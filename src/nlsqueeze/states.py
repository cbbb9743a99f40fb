"""Quantum states, held as a factor S of rho = S S^dagger in a labeled basis."""

from __future__ import annotations

import functools
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
    rho), `mixed()`'s too; an evolved factor U S is in it already.
    Every expectation value is a product of S with operators, so pure and
    mixed states share one code path.
    A full-rank factor whose smallest eigenvalues form a floor, such as a
    white-noise mixture, is split once, where it is made, as
    rho = lambda0 I + S' S'^dagger when `spectral_floor`'s rules keep it.  A
    state that carries a split is read through it by every band reader: the
    moment table and `f_max_density` take the rows over S' and L + 1 real
    columns of the identity part (see `moments._centered_rows`), never S.
    A unitary keeps the floor, U rho U^dagger = lambda0 I + (U S')(U S')^dagger,
    so `_rotated` carries the split by rotating S' alone and defers the
    D x D factor U S to the first read of `factor` (the dense-operator
    paths: expectation values, `density_matrix`, `qfi`, `classical_fisher`,
    `chi2_error_propagation`, the estimator).  Instances are immutable.
    """

    def __init__(self, basis_tag: str, factor):
        s = np.array(factor, dtype=complex)  # a copy: the caller's array is neither aliased nor frozen
        if s.ndim != 2 or s.shape[1] < 1:
            raise ValueError("state factor must be a matrix with at least one column")
        if not _is_unit(norm := np.linalg.norm(s)):
            raise ValueError(f"state norm {float(norm)!r} is not 1")
        if s.shape[1] > 1:
            s = s @ np.linalg.eigh(s.conj().T @ s)[1]
        self._hold(basis_tag, s, spectral_floor(s))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a QuantumState is immutable")

    def _hold(self, basis_tag: str, factor, floor, source=None) -> None:
        """Every constructor's end: set the parts and freeze the arrays.  A
        deferred factor (None) has the source (root, rotations)."""
        for array in (factor, floor and floor[1]):
            if array is not None:
                array.setflags(write=False)
        for name, value in dict(basis_tag=basis_tag, _factor=factor, _floor=floor, _source=source).items():
            object.__setattr__(self, name, value)

    @property
    def factor(self) -> np.ndarray:
        """The factor S, read-only.  An evolved state with a floor forms it
        here, once, by its rotations in order on the factor of its root, the
        last state that held one; no intermediate state is kept for it."""
        if self._factor is None:
            root, rotations = self._source
            self._hold(self.basis_tag, functools.reduce(lambda s, rot: rot(s), rotations, root), self._floor)
        return self._factor

    def _rotated(self, rotate) -> "QuantumState":
        """This state under a unitary U, given as rotate(S) = U S for a
        factor of any number of columns.  U S has the Gram matrix of S, so it
        stays in its eigenframe, and a split (lambda0, S') becomes
        (lambda0, U S'): only S' is rotated here, and rotate is appended to
        the rotations that the factor replays on its first read.  The norm
        of U S, or the split's sqrt(D lambda0 + ||U S'||^2), must be 1."""
        if self._floor is None:
            factor, floor, source = rotate(self.factor), None, None
            norm = np.linalg.norm(factor)
        else:
            factor, floor = None, (self._floor[0], rotate(self._floor[1]))
            root, rotations = self._source if self._factor is None else (self._factor, ())
            source, norm = (root, rotations + (rotate,)), _split_norm(*floor)
        if not _is_unit(norm):
            raise ValueError(f"state norm {float(norm)!r} is not 1")
        state = QuantumState.__new__(QuantumState)
        state._hold(self.basis_tag, factor, floor, source)
        return state

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
        return cls(basis_tag, s / np.linalg.norm(s))

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


def spectral_floor(s: np.ndarray):
    """(lambda0, S') with rho = S S^dagger = lambda0 I + S' S'^dagger, or None.

    S is a factor in its eigenframe (see `QuantumState`), so its squared
    column norms l are the eigenvalues of rho.  Only a full-rank factor
    (as many columns as rows) has a floor: lambda0 is the smallest l, and
    the columns within `mixed()`'s cut eps D lambda_max of it are taken as
    exactly lambda0, an error no larger than the eigenvalues `mixed()`
    drops.  The other r' columns, rescaled by sqrt(1 - lambda0 / l), make
    S'.  The split is kept when r' + 3 < r (a white-noise mixture of a pure
    state has r' = 1, a pure state r = 1): a table over it has D r' + L + 1
    columns per member (see `moments._centered_rows`), at most D (r' + 3)
    and so fewer than the D r of a table over S, for every family of
    L + 1 <= 3 D members (Jx, Jy, Jz at any D).  It is kept only when its
    trace D lambda0 + ||S'||^2 is 1 within a norm's rounding, as evolution
    checks it: the floor columns taken as exactly lambda0 may add up to
    more.  `QuantumState` calls it once per state, where its factor is
    made, and every band reader reads the split it carries, whatever the
    size of its family.
    """
    dim, rank = s.shape
    if rank < dim:
        return None
    lam = np.einsum("ij,ij->j", s.real, s.real) + np.einsum("ij,ij->j", s.imag, s.imag)  # no D x r temporary
    lam0 = lam.min()
    above = lam > lam0 + _rounding_cut(dim, lam.max())
    if np.count_nonzero(above) + 3 >= rank:
        return None
    s_top = s[:, above] * np.sqrt(1.0 - lam0 / lam[above])
    return (lam0, s_top) if _is_unit(_split_norm(lam0, s_top)) else None


def _split_norm(lam0: float, s_top: np.ndarray) -> float:
    """sqrt(tr rho) of rho = lambda0 I + S' S'^dagger: sqrt(D lambda0 + ||S'||_F^2)."""
    return math.sqrt(len(s_top) * lam0 + np.vdot(s_top, s_top).real)


def _is_unit(norm: float) -> bool:
    """Whether a state's norm, sqrt(tr rho), is 1 within `PURE_NORM_ATOL`
    (written so that NaN is not)."""
    return abs(norm - 1.0) <= PURE_NORM_ATOL


def check_same_basis(state: QuantumState, family) -> None:
    if state.basis_tag != family.basis_tag:
        raise BasisMismatchError(
            f"state basis {state.basis_tag!r} does not match family basis {family.basis_tag!r}"
        )
    if state.dim != family.dim:
        raise BasisMismatchError("state and family dimensions differ")
