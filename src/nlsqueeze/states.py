"""Quantum states, held as a factor S of rho = S S^dagger in a labeled basis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError
from .operators import HermitianOperator

PURE_NORM_ATOL = 1e-12
DENSITY_ATOL = 1e-12
DENSITY_EIG_FLOOR = -1e-10


def _rounding_cut(dim: int, lam_max: float) -> float:
    """eps * dim * lambda_max: eigenvalues of a dim x dim density this close
    to a reference (zero, or the smallest) are not told apart from it."""
    return np.finfo(float).eps * dim * lam_max


@dataclass(frozen=True, eq=False)
class QuantumState:
    """State rho = S S^dagger given by its factor S of shape (dim, rank).

    A pure state is the one-column factor S = psi.  `mixed()` checks a
    density operator and stores its positive part, S = V sqrt(lambda) over
    the eigenvalues lambda > eps * dim * lambda_max, renormalized to unit
    trace (||S||_F = 1).
    The factor is kept in its eigenframe, S^dagger S = diag(l) with l the
    eigenvalues of rho: a factor of several columns is rotated once on
    construction, S <- S W with S^dagger S = W diag(l) W^dagger (the same
    rho); `mixed()` and an evolved factor U S are in it already.
    Every expectation value is a product of S with operators, so pure and
    mixed states share one code path.  Where the moment rows of a band
    family are formed, a full-rank factor whose smallest eigenvalues form a
    wide floor, such as a white-noise mixture, is taken as
    rho = lambda0 I + S' S'^dagger (see `spectral_floor`); the state itself
    keeps its whole factor, which evolution and the dense-operator paths use.
    """

    basis_tag: str
    factor: np.ndarray

    def __post_init__(self):
        # a copy: the state neither aliases nor freezes the caller's array
        self._settle(np.array(self.factor, dtype=complex), rotate=True)

    @classmethod
    def _in_eigenframe(cls, basis_tag: str, factor: np.ndarray) -> "QuantumState":
        """State of a fresh factor, owned by no caller, whose columns are
        already orthogonal (V sqrt(lambda), or U S for a state's factor S and
        a unitary U): checked and kept as it is, neither copied nor rotated."""
        state = cls.__new__(cls)
        object.__setattr__(state, "basis_tag", basis_tag)
        state._settle(np.asarray(factor, dtype=complex), rotate=False)
        return state

    def _settle(self, s: np.ndarray, rotate: bool) -> None:
        if s.ndim != 2 or s.shape[1] < 1:
            raise ValueError("state factor must be a matrix with at least one column")
        norm = np.linalg.norm(s)
        if not abs(norm - 1.0) <= PURE_NORM_ATOL:  # written so that NaN fails
            raise ValueError(f"state norm {float(norm)!r} is not 1")
        if rotate and s.shape[1] > 1:
            s = s @ np.linalg.eigh(s.conj().T @ s)[1]
        s.setflags(write=False)
        object.__setattr__(self, "factor", s)

    @classmethod
    def pure(cls, vector, basis_tag: str) -> "QuantumState":
        return cls(basis_tag, np.asarray(vector, dtype=complex).reshape(-1, 1))

    @classmethod
    def mixed(cls, density, basis_tag: str) -> "QuantumState":
        rho = HermitianOperator(density, "density").matrix  # square, Hermitian, finite
        if not abs(np.trace(rho).real - 1.0) <= DENSITY_ATOL:
            raise ValueError("density operator trace is not 1")
        lam, vecs = np.linalg.eigh(rho)
        if lam[0] < DENSITY_EIG_FLOOR:
            raise ValueError("density operator has a negative eigenvalue")
        # eigenvalues within rounding of zero (relative to the largest) are
        # noise, so a pure density keeps one column
        keep = lam > _rounding_cut(rho.shape[0], lam[-1])
        s = vecs[:, keep] * np.sqrt(lam[keep])
        return cls._in_eigenframe(basis_tag, s / np.linalg.norm(s))

    @property
    def is_pure(self) -> bool:
        return self.factor.shape[1] == 1

    @property
    def vector(self) -> np.ndarray:
        """State vector of a pure state."""
        if self.factor.shape[1] != 1:
            raise ValueError("a mixed state has no state vector")
        return self.factor[:, 0]

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    def density_matrix(self) -> np.ndarray:
        return self.factor @ self.factor.conj().T

    def _matrix_of(self, op: HermitianOperator) -> np.ndarray:
        if not isinstance(op, HermitianOperator):  # only it checks Hermiticity
            raise TypeError(f"operator must be a HermitianOperator, not {type(op).__name__}")
        if op.dim != self.dim:
            raise BasisMismatchError(f"operator dimension {op.dim} does not match state dimension {self.dim}")
        return op.matrix

    def expectation(self, op: HermitianOperator) -> float:
        """Real expectation value tr(A rho) = <S, A S> of a Hermitian operator."""
        return np.vdot(self.factor, self._matrix_of(op) @ self.factor).real

    def variance(self, op: HermitianOperator) -> float:
        # centered evaluation ||(A - <A>) S||^2: no catastrophic cancellation
        # for small variances
        phi = self._matrix_of(op) @ self.factor
        mean = np.vdot(self.factor, phi).real
        phi -= mean * self.factor
        return np.vdot(phi, phi).real


def spectral_floor(s: np.ndarray, width: int):
    """(lambda0, S') with rho = S S^dagger = lambda0 I + S' S'^dagger, or None.

    S is a factor in its eigenframe (see `QuantumState`), so its squared
    column norms l are the eigenvalues of rho.  Only a full-rank factor
    (as many columns as rows) has a floor: lambda0 is the smallest l, and
    the columns within `mixed()`'s cut eps D lambda_max of it are taken as
    exactly lambda0, an error no larger than the eigenvalues `mixed()`
    drops.  The other r' columns, rescaled by sqrt(1 - lambda0 / l), make
    S'.  A row table over [S' | sqrt(lambda0) I] holds each band member's
    identity part in its 2 width + 1 band columns, so the split is taken
    only when r' + 2 width + 1 < r: for a white-noise mixture of a pure
    state r' = 1.  A pure state (r = 1) never takes it.
    """
    dim, rank = s.shape
    if rank < dim:
        return None
    lam = np.einsum("ij,ij->j", s.real, s.real) + np.einsum("ij,ij->j", s.imag, s.imag)  # no D x r temporary
    lam0 = lam.min()
    above = lam > lam0 + _rounding_cut(dim, lam.max())
    if np.count_nonzero(above) + 2 * width + 1 >= rank:
        return None
    return lam0, s[:, above] * np.sqrt(1.0 - lam0 / lam[above])


def check_same_basis(state: QuantumState, family) -> None:
    if state.basis_tag != family.basis_tag:
        raise BasisMismatchError(
            f"state basis {state.basis_tag!r} does not match family basis {family.basis_tag!r}"
        )
    if state.dim != family.dim:
        raise BasisMismatchError("state and family dimensions differ")
