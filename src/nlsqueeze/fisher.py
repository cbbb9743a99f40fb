"""Quantum and classical Fisher information and the chain of inequalities
chi^-2 <= F <= F_Q."""

from __future__ import annotations

import numpy as np

from .dynamics import HermitianPropagator
from .errors import BasisMismatchError
# covariance_matrix, build_spin_family, build_spin_operators: unused, kept for perfbench's trace targets
from .moments import _centered_rows, _operator_rows, covariance_matrix, principal_eigenpair
from .operators import HermitianOperator, pieces
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
    pass, so the rows are not copied again here.  P and its weighted copy
    are formed in `pieces` of the factor's columns i and their products
    added up, so the largest temporaries are two blocks; a P of one piece
    (a pure state's) gets Q bit for bit as one product over all i.
    """
    lam = np.linalg.norm(s, axis=0) ** 2
    stack = rows.reshape(len(rows), *s.shape)
    weighted = None
    for piece in pieces(len(lam), len(rows) * len(lam)):
        sums = lam[piece, None] + lam[None, :]
        inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0.0)
        p = s[:, piece].conj().T @ stack
        block = _real_gram(p * inv, p)
        weighted = block if weighted is None else weighted + block
    return 4.0 * gram.real - 8.0 * weighted


def _floor_qfi_matrix(lam0: float, s_top: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Quantum Fisher matrix of rho = lambda0 I + S' S'^dagger (see
    `states.spectral_floor`) from the centered rows over [S' | sqrt(lambda0) I]
    that `moments._centered_rows` forms, of which only the r' columns
    X_a = (A_a - <A_a>) S' are read.

    The columns of S' are sqrt(d_i) v_i with v_i the eigenvectors of rho
    above the floor, l_i = lambda0 + d_i, and Pi = I - V V^dagger (V the
    matrix of the v_i) projects on the floor eigenspace.  Pairs of floor eigenvectors have equal
    eigenvalues and add nothing to the spectral formula, so
    Q_ab = sum_ij 2 (l_i - l_j)^2 / (l_i + l_j) Re(A_ij B_ji)
         + 4 sum_i (l_i - lambda0)^2 / (l_i + lambda0) Re<Pi A v_i, Pi B v_i>
    over i, j above the floor.  With P^a = S'^dagger X_a, A_ij is
    P^a_ij / sqrt(d_i d_j), and Pi X_a = X_a - S' diag(1/d) P^a is formed
    explicitly (D x r'), so no D x D product enters and each diagonal
    entry Q_aa is a sum of non-negative terms.
    """
    x = rows.reshape(len(rows), len(s_top), -1)[:, :, :s_top.shape[1]]
    d = np.linalg.norm(s_top, axis=0) ** 2
    lam = lam0 + d
    p = s_top.conj().T @ x
    pair = 2.0 * (d[:, None] - d[None, :]) ** 2 / (np.add.outer(lam, lam) * np.outer(d, d))
    side = x - s_top @ (p / d[:, None])
    return _real_gram(p * pair, p) + _real_gram(side * (4.0 * d / (lam + lam0)), side)


def _real_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum_j a_kj conj(b_lj) over the trailing axes of two complex stacks:
    the real dot products of their float views."""
    return a.reshape(len(a), -1).view(float) @ b.reshape(len(b), -1).view(float).T


def qfi(state: QuantumState, generator: HermitianOperator) -> float:
    """Quantum Fisher information of a pure or mixed state for a generator."""
    return float(_qfi_matrix(state.factor, *_operator_rows(state.factor, state._matrix_of(generator)))[0, 0])


def f_max_density(state: QuantumState, basis: DickeBasis):
    """Best quantum Fisher information per particle over collective rotations.

    Returns (f_max, direction): the top eigenvalue of the 3x3 quantum Fisher
    matrix of Jx, Jy, Jz divided by N, and its eigenvector (for a pure
    state, four times the spin covariance matrix).  A state that carries a
    floor split (see `QuantumState` and `states.spectral_floor`) is read
    through it: the matrix comes from the rows over the r' columns above the
    floor alone (`_floor_qfi_matrix`), so a white-noise mixture costs r' x r'
    products instead of D x D ones and its D x D factor is never formed.
    """
    if state.basis_tag != basis.tag:
        raise BasisMismatchError("state does not live in the given Dicke basis")
    rows, gram = _centered_rows(state, basis.spin_axes)
    q = _qfi_matrix(state.factor, rows, gram) if state._floor is None else _floor_qfi_matrix(*state._floor, rows)
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
    s = HermitianPropagator(generator).apply(state, theta).factor
    a = evecs.conj().T @ s
    b = evecs.conj().T @ (h @ s)
    tol = len(evals) * np.finfo(float).eps * np.abs(evals).max()
    starts = np.flatnonzero(np.r_[True, np.diff(evals) > tol])
    p = np.add.reduceat(np.sum(np.abs(a) ** 2, axis=1), starts)
    dp = 2.0 * np.add.reduceat(np.sum(a.conj() * b, axis=1).imag, starts)
    keep = p > 0.0
    return float(np.sum(dp[keep] ** 2 / p[keep]))


def check_chain(chi2_inv: float, classical_fisher: float, qfi: float) -> None:
    """Raise unless chi^-2 <= F <= F_Q within the relative slack 1e-8; a NaN
    or infinite rung fails."""
    rungs = f"chi2_inv {chi2_inv}, classical Fisher {classical_fisher}, QFI {qfi}"
    if not chi2_inv <= classical_fisher + CHAIN_SLACK * qfi:
        raise ValueError(f"chain violated: not chi2_inv <= F + {CHAIN_SLACK:g} QFI at {rungs}")
    if not classical_fisher <= qfi * (1.0 + CHAIN_SLACK) < np.inf:
        raise ValueError(f"chain violated: not F <= (1 + {CHAIN_SLACK:g}) QFI < inf at {rungs}")
