"""Quantum states, held as a factor S of rho = S S^dagger in a labeled basis."""

from __future__ import annotations

import math

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
    mixed states share one code path.
    A full-rank factor whose smallest eigenvalues form a floor, such as a
    white-noise mixture, is also split once, where it is made, as
    rho = lambda0 I + S' S'^dagger (`spectral_floor` for a band of width 1).
    A unitary keeps the floor, U rho U^dagger = lambda0 I + (U S')(U S')^dagger,
    so evolution carries the split by rotating S' alone and forms the D x D
    factor U S only when `factor` is first read (the dense-operator paths:
    expectation values, `density_matrix`, `qfi`, `classical_fisher`,
    `chi2_error_propagation`, the estimator).  The moment table and
    `f_max_density` read the split, and a band too wide for it the factor.
    Instances are immutable.
    """

    def __init__(self, basis_tag: str, factor):
        object.__setattr__(self, "basis_tag", basis_tag)
        # a copy: the state neither aliases nor freezes the caller's array
        self._settle(np.array(factor, dtype=complex), rotate=True, split=True)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a QuantumState is immutable")

    @classmethod
    def _in_eigenframe(cls, basis_tag: str, factor: np.ndarray, split: bool) -> "QuantumState":
        """State of a fresh factor, owned by no caller, whose columns are
        already orthogonal (V sqrt(lambda), or U S for a state's factor S and
        a unitary U): checked and kept as it is, neither copied nor rotated;
        its floor is looked for when `split`."""
        state = cls.__new__(cls)
        object.__setattr__(state, "basis_tag", basis_tag)
        state._settle(np.asarray(factor, dtype=complex), rotate=False, split=split)
        return state

    @classmethod
    def _evolved(cls, basis_tag: str, floor, parent: "QuantumState", rotate) -> "QuantumState":
        """State of the floor split (lambda0, U S') of `parent` evolved by a
        unitary U, whose factor rotate(S) = U S is formed on first read from
        the parent's.  Its trace D lambda0 + ||U S'||^2 must be 1, as the
        norm of a factor."""
        if not abs((norm := _split_norm(*floor)) - 1.0) <= PURE_NORM_ATOL:  # written so that NaN fails
            raise ValueError(f"state norm {norm!r} is not 1")
        floor[1].setflags(write=False)
        state = cls.__new__(cls)
        for name, value in (("basis_tag", basis_tag), ("_factor", None), ("_floor", floor),
                            ("_source", (parent, rotate))):
            object.__setattr__(state, name, value)
        return state

    def _settle(self, s: np.ndarray, rotate: bool, split: bool) -> None:
        if s.ndim != 2 or s.shape[1] < 1:
            raise ValueError("state factor must be a matrix with at least one column")
        norm = np.linalg.norm(s)
        if not abs(norm - 1.0) <= PURE_NORM_ATOL:  # written so that NaN fails
            raise ValueError(f"state norm {float(norm)!r} is not 1")
        if rotate and s.shape[1] > 1:
            s = s @ np.linalg.eigh(s.conj().T @ s)[1]
        s.setflags(write=False)
        floor = spectral_floor(s, 1) if split else None
        # kept only at unit trace, as evolution checks it: the floor columns
        # taken as exactly lambda0 may add up to more than a norm's rounding
        if floor is not None and abs(_split_norm(*floor) - 1.0) <= PURE_NORM_ATOL:
            floor[1].setflags(write=False)
        else:
            floor = None
        object.__setattr__(self, "_factor", s)
        object.__setattr__(self, "_floor", floor)

    @property
    def factor(self) -> np.ndarray:
        """The factor S, read-only.  An evolved state with a floor forms it
        here, once, by the rotations since the nearest earlier state that
        holds its factor, in order (a loop, so a long chain of evolutions
        needs no deep recursion)."""
        if self._factor is None:
            rotations, state = [], self
            while state._factor is None:
                state, rotate = state._source
                rotations.append(rotate)
            s = state._factor
            for rotate in reversed(rotations):
                s = rotate(s)
            s.setflags(write=False)
            object.__setattr__(self, "_factor", s)
            object.__setattr__(self, "_source", None)  # the parent is no longer needed
        return self._factor

    def _floor_within(self, width: int):
        """The floor split (lambda0, S') when a row table over
        [S' | sqrt(lambda0) I] for a band of that width is narrower than one
        over S, r' + 2 width + 1 < r; else None."""
        floor = self._floor
        if floor is not None and floor[1].shape[1] + 2 * width + 1 < len(floor[1]):
            return floor
        return None

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
        return cls._in_eigenframe(basis_tag, s / np.linalg.norm(s), split=True)

    @property
    def is_pure(self) -> bool:
        return self._floor is None and self.factor.shape[1] == 1

    @property
    def vector(self) -> np.ndarray:
        """State vector of a pure state."""
        if not self.is_pure:
            raise ValueError("a mixed state has no state vector")
        return self.factor[:, 0]

    @property
    def dim(self) -> int:
        return len(self.factor) if self._floor is None else len(self._floor[1])

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
    state r' = 1.  A pure state (r = 1) never takes it.  `QuantumState`
    calls it once per state, where its factor is made, with width 1 (the
    band of Jx, Jy, Jz), and carries the split through evolution; the
    moment table and `f_max_density` test the width of their own band
    against the carried split (`QuantumState._floor_within`).
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


def _split_norm(lam0: float, s_top: np.ndarray) -> float:
    """sqrt(tr rho) of rho = lambda0 I + S' S'^dagger: sqrt(D lambda0 + ||S'||_F^2)."""
    return math.sqrt(len(s_top) * lam0 + np.vdot(s_top, s_top).real)


def check_same_basis(state: QuantumState, family) -> None:
    if state.basis_tag != family.basis_tag:
        raise BasisMismatchError(
            f"state basis {state.basis_tag!r} does not match family basis {family.basis_tag!r}"
        )
    if state.dim != family.dim:
        raise BasisMismatchError("state and family dimensions differ")
