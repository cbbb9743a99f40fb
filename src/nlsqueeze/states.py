"""Quantum states, held as a factor S of rho = S S^dagger in a labeled basis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError
from .operators import HermitianOperator

PURE_NORM_ATOL = 1e-12
DENSITY_ATOL = 1e-12
DENSITY_EIG_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class QuantumState:
    """State rho = S S^dagger given by its factor S of shape (dim, rank).

    A pure state is the one-column factor S = psi.  `mixed()` checks a
    density operator and stores its positive part, S = V sqrt(lambda) over
    the eigenvalues lambda > eps * dim * lambda_max, renormalized to unit
    trace (||S||_F = 1).
    Every expectation value is a product of S with operators, so pure and
    mixed states share one code path.
    """

    basis_tag: str
    factor: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.factor, dtype=complex)
        if s.ndim != 2 or s.shape[1] < 1:
            raise ValueError("state factor must be a matrix with at least one column")
        norm = np.linalg.norm(s)
        if abs(norm - 1.0) > PURE_NORM_ATOL:
            raise ValueError(f"state norm {norm!r} is not 1")
        s.setflags(write=False)
        object.__setattr__(self, "factor", s)

    @classmethod
    def pure(cls, vector, basis_tag: str) -> "QuantumState":
        return cls(basis_tag, np.asarray(vector, dtype=complex).reshape(-1, 1))

    @classmethod
    def mixed(cls, density, basis_tag: str) -> "QuantumState":
        rho = np.asarray(density, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density must be a square matrix")
        if np.abs(rho - rho.conj().T).max() > DENSITY_ATOL:
            raise ValueError("density operator is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > DENSITY_ATOL:
            raise ValueError("density operator trace is not 1")
        lam, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
        if lam[0] < DENSITY_EIG_FLOOR:
            raise ValueError("density operator has a negative eigenvalue")
        # eigenvalues within rounding of zero (relative to the largest) are
        # noise, so a pure density keeps one column
        keep = lam > np.finfo(float).eps * rho.shape[0] * lam[-1]
        s = vecs[:, keep] * np.sqrt(lam[keep])
        return cls(basis_tag, s / np.linalg.norm(s))

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

    def _matrix_of(self, op) -> np.ndarray:
        mat = op.matrix if isinstance(op, HermitianOperator) else np.asarray(op)
        if mat.shape != (self.dim, self.dim):
            raise BasisMismatchError(
                f"operator dimension {mat.shape} does not match state dimension {self.dim}"
            )
        return mat

    def expectation(self, op) -> float:
        """Real expectation value tr(A rho) = <S, A S> of a Hermitian operator."""
        return np.vdot(self.factor, self._matrix_of(op) @ self.factor).real

    def variance(self, op) -> float:
        # centered evaluation ||(A - <A>) S||^2: no catastrophic cancellation
        # for small variances
        phi = self._matrix_of(op) @ self.factor
        mean = np.vdot(self.factor, phi).real
        phi -= mean * self.factor
        return np.vdot(phi, phi).real


def check_same_basis(state: QuantumState, family) -> None:
    if state.basis_tag != family.basis_tag:
        raise BasisMismatchError(
            f"state basis {state.basis_tag!r} does not match family basis {family.basis_tag!r}"
        )
    if state.dim != family.dim:
        raise BasisMismatchError("state and family dimensions differ")
