"""Quantum and classical Fisher information and the chain of inequalities
chi^-2 <= F <= F_Q."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import HermitianPropagator
from .errors import BasisMismatchError
# covariance_matrix and build_spin_operators: unused, kept for perfbench's trace targets
from .moments import _centered_rows, _operator_rows, covariance_matrix, principal_eigenpair
from .operators import HermitianOperator
from .spin import DickeBasis, build_spin_family, build_spin_operators
from .states import QuantumState

CHAIN_SLACK = 1e-8


def _qfi_matrix(s: np.ndarray, rows: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Quantum Fisher matrix of rho = S S^dagger from its centered rows
    R_a = (A_a - <A_a>) S and their Gram matrix Z = R* R^T, as returned by
    `moments._center`.

    A state's factor is kept in its eigenframe (see `QuantumState`):
    S^dagger S = diag(l), so its columns are eigenvectors of rho scaled by
    sqrt(l_i), and the eigenvalues l are their squared norms.  With
    P^a = S^dagger R_a,
    Q_ab = 4 Re Z_ab - 8 sum_ij Re(P^a_ij conj(P^b_ij)) / (l_i + l_j),
    which is the spectral formula 2 sum_ij (l_i - l_j)^2 / (l_i + l_j)
    Re(A_ij B_ji).  Every pair with l_i + l_j > 0 counts: P^a_ij is
    sqrt(l_i l_j) times a matrix element of A - <A>, so a pair's quotient is
    at most min(l_i, l_j) ||A - <A>|| ||B - <B>|| however small its weights,
    and only l_i = l_j = 0 is 0/0.  For a pure state P vanishes and Q is
    four times the covariance matrix.  Re Z is read from the centering
    pass, so the rows are not copied again here.
    """
    lam = np.linalg.norm(s, axis=0) ** 2
    sums = (lam[:, None] + lam[None, :]).ravel()
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0.0)
    p = (s.conj().T @ rows.reshape(len(rows), *s.shape)).reshape(len(rows), -1).view(float)
    # Re(x conj(y)) summed is the real dot product of the float views
    cross = (p * np.repeat(inv, 2)) @ p.T
    return 4.0 * gram.real - 8.0 * cross


def qfi(state: QuantumState, generator: HermitianOperator) -> float:
    """Quantum Fisher information of a pure or mixed state for a generator."""
    return float(_qfi_matrix(state.factor, *_operator_rows(state.factor, state._matrix_of(generator)))[0, 0])


@functools.lru_cache(maxsize=8)
def _spin_axes(basis: DickeBasis):
    """The order-1 family Jx, Jy, Jz of a basis, built once per basis."""
    return build_spin_family(basis, 1)


def f_max_density(state: QuantumState, basis: DickeBasis):
    """Best quantum Fisher information per particle over collective rotations.

    Returns (f_max, direction): the top eigenvalue of the 3x3 quantum Fisher
    matrix of Jx, Jy, Jz divided by N, and its eigenvector (for a pure
    state, four times the spin covariance matrix).
    """
    if state.basis_tag != basis.tag:
        raise BasisMismatchError("state does not live in the given Dicke basis")
    q = _qfi_matrix(state.factor, *_centered_rows(state.factor, _spin_axes(basis)))
    direction, lam = principal_eigenpair(q)
    return lam / basis.n_particles, direction


def classical_fisher(state: QuantumState, generator: HermitianOperator,
                     observable: HermitianOperator, theta: float) -> float:
    """Fisher information of the observable's counting statistics at theta.

    With S = exp(-i theta H) S_0 and each outcome g an eigenspace of the
    observable (projector Pi_g), p_g = ||Pi_g S||^2 and dp_g/dtheta =
    -i tr(Pi_g [H, rho]) = 2 Im tr(S^dagger Pi_g H S) exactly, both summed
    over the rows of g in the observable's eigenbasis.  Every outcome with
    p_g > 0 counts, however small: by Cauchy-Schwarz each term dp_g^2 / p_g
    is at most 4 ||Pi_g H S||^2, so a rare outcome cannot blow up, and at
    small theta the rare outcomes carry all of F.  Eigenvalues closer than
    D eps max|lambda|, the rounding of `eigh` on a D x D matrix, are merged,
    so an exactly degenerate pair is one outcome, and F does not change when
    the observable is rescaled.  Distinct eigenvalues that close cannot be
    told apart in float64 and are merged too: Jx^6 at N >= 400 exceeds
    float64 resolution in this way.
    """
    h = state._matrix_of(generator)
    evals, evecs = np.linalg.eigh(state._matrix_of(observable))
    s = HermitianPropagator._from_matrix(h).apply(state, theta).factor
    a = evecs.conj().T @ s
    b = evecs.conj().T @ (h @ s)
    tol = len(evals) * np.finfo(float).eps * np.abs(evals).max()
    starts = np.flatnonzero(np.r_[True, np.diff(evals) > tol])
    p = np.add.reduceat(np.sum(np.abs(a) ** 2, axis=1), starts)
    dp = 2.0 * np.add.reduceat(np.sum(a.conj() * b, axis=1).imag, starts)
    keep = p > 0.0
    return float(np.sum(dp[keep] ** 2 / p[keep]))


@dataclass(frozen=True)
class FisherReport:
    """The three rungs of the sensitivity chain for one configuration."""

    chi2_inv: float
    classical_fisher: float
    qfi: float

    def validate_chain(self) -> None:
        """Raise unless chi^-2 <= F <= F_Q within the relative slack 1e-8."""
        if self.chi2_inv > self.classical_fisher + CHAIN_SLACK * self.qfi:
            raise ValueError(
                f"chain violated: chi2_inv {self.chi2_inv} > classical Fisher "
                f"{self.classical_fisher}"
            )
        if self.classical_fisher > self.qfi * (1.0 + CHAIN_SLACK):
            raise ValueError(
                f"chain violated: classical Fisher {self.classical_fisher} > "
                f"QFI {self.qfi}"
            )
