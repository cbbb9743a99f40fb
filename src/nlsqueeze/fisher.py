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

QFI_MODE_EPS = 1e-12
EIG_CLUSTER_TOL = 1e-9
PROB_FLOOR = 1e-12
CHAIN_SLACK = 1e-8


def _qfi_matrix(s: np.ndarray, rows_of) -> np.ndarray:
    """Quantum Fisher matrix of rho = S S^dagger from centered rows.

    The factor is first turned into its eigenframe S W, where S^dagger S =
    W diag(l) W^dagger: the same rho, with orthogonal columns S W / sqrt(l)
    that are the eigenvectors of rho for its nonzero eigenvalues l.  With
    the centered rows R_a = (A_a - <A_a>) S W that `rows_of(S W)` returns
    and P^a = (S W)^dagger R_a,
    Q_ab = 4 Re<R_a|R_b> - 8 sum_ij Re(P^a_ij conj(P^b_ij)) / (l_i + l_j),
    which is the spectral formula 2 sum_ij (l_i - l_j)^2 / (l_i + l_j)
    Re(A_ij B_ji); pairs with l_i + l_j below 1e-12 are dropped to avoid
    0/0.  For a pure state P vanishes and Q is four times the covariance
    matrix.
    """
    lam, w = np.linalg.eigh(s.conj().T @ s)
    s = s @ w
    rows = rows_of(s)
    sums = (lam[:, None] + lam[None, :]).ravel()
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > QFI_MODE_EPS)
    p = (s.conj().T @ rows.reshape(len(rows), *s.shape)).reshape(len(rows), -1)
    # Re(x conj(y)) summed is the real dot product of the float views
    cross = (p * inv).view(float) @ p.view(float).T
    return 4.0 * (rows.conj() @ rows.T).real - 8.0 * cross


def qfi(state: QuantumState, generator: HermitianOperator) -> float:
    """Quantum Fisher information of a pure or mixed state for a generator."""
    mat = state._matrix_of(generator)
    return float(_qfi_matrix(state.factor, lambda s: _operator_rows(s, mat))[0, 0])


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
    q = _qfi_matrix(state.factor, lambda s: _centered_rows(s, _spin_axes(basis)))
    direction, lam = principal_eigenpair(q)
    return lam / basis.n_particles, direction


def classical_fisher(state: QuantumState, generator: HermitianOperator,
                     observable: HermitianOperator, theta: float) -> float:
    """Fisher information of the observable's counting statistics at theta.

    With S = exp(-i theta H) S_0 and each outcome g an eigenspace of the
    observable (eigenvalues closer than 1e-9 merged, projector Pi_g),
    p_g = ||Pi_g S||^2 and dp_g/dtheta = -i tr(Pi_g [H, rho]) =
    2 Im tr(S^dagger Pi_g H S) exactly, both summed over the rows of g in
    the observable's eigenbasis.  Outcomes with p_g <= 1e-12 are excluded.
    """
    evals, evecs = np.linalg.eigh(state._matrix_of(observable))
    s = HermitianPropagator(generator).apply(state, theta).factor
    a = evecs.conj().T @ s
    b = evecs.conj().T @ (generator.matrix @ s)
    starts = np.flatnonzero(np.r_[True, np.diff(evals) > EIG_CLUSTER_TOL])
    p = np.add.reduceat(np.sum(np.abs(a) ** 2, axis=1), starts)
    dp = 2.0 * np.add.reduceat(np.sum(a.conj() * b, axis=1).imag, starts)
    keep = p > PROB_FLOOR
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
