"""Quantum and classical Fisher information, shot-noise references, and the
chain of inequalities chi^-2 <= F <= F_Q."""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import HermitianPropagator
from .errors import BasisMismatchError
from .moments import covariance_matrix, principal_eigenpair
from .operators import HermitianOperator
from .spin import DickeBasis, build_spin_family, build_spin_operators
from .states import QuantumState

QFI_MODE_EPS = 1e-12
EIG_CLUSTER_TOL = 1e-9
PROB_FLOOR = 1e-12
RICHARDSON_REL = 1e-4


def qfi_pure(state: QuantumState, generator: HermitianOperator) -> float:
    """Quantum Fisher information of a pure state: four times the variance."""
    if not state.is_pure:
        raise ValueError("qfi_pure needs a pure state; use qfi_mixed")
    return 4.0 * state.variance(generator)


def _qfi_matrix(state: QuantumState, mats) -> np.ndarray:
    """Spectral quantum Fisher matrix of the generators `mats`.

    Q_ab = 2 sum_ij (l_i - l_j)^2 / (l_i + l_j) Re(<i|A|j><j|B|i>) over the
    eigenpairs (l_i, |i>) of rho; modes with eigenvalue sum below 1e-12 are
    dropped to avoid 0/0.
    """
    lam, vecs = np.linalg.eigh(state.density_matrix())
    lam = np.clip(lam, 0.0, None)
    sums = lam[:, None] + lam[None, :]
    diffs = lam[:, None] - lam[None, :]
    weights = np.where(sums > QFI_MODE_EPS, diffs ** 2 / np.where(sums > QFI_MODE_EPS, sums, 1.0), 0.0)
    rotated = [vecs.conj().T @ m @ vecs for m in mats]
    q = np.empty((len(mats), len(mats)))
    for a in range(len(mats)):
        for b in range(a, len(mats)):
            q[a, b] = q[b, a] = 2.0 * np.real(np.sum(weights * rotated[a] * rotated[b].T))
    return q


def qfi_mixed(state: QuantumState, generator: HermitianOperator) -> float:
    """Spectral quantum Fisher information for density operators."""
    if state.dim != generator.dim:
        raise BasisMismatchError("state and generator dimensions differ")
    return float(_qfi_matrix(state, [generator.matrix])[0, 0])


@functools.lru_cache(maxsize=8)
def _spin_axes(basis: DickeBasis):
    """The order-1 family Jx, Jy, Jz of a basis, built once per basis."""
    return build_spin_family(basis, 1)


def f_max_density(state: QuantumState, basis: DickeBasis):
    """Best quantum Fisher information per particle over collective rotations.

    Returns (f_max, direction).  For pure states this is four times the top
    eigenvalue of the 3x3 spin covariance matrix divided by N; for mixed
    states the top eigenvalue of the 3x3 QFI matrix divided by N.
    """
    if state.basis_tag != basis.tag:
        raise BasisMismatchError("state does not live in the given Dicke basis")
    n = basis.n_particles
    if state.is_pure:
        cov3 = covariance_matrix(state, _spin_axes(basis))
        direction, lam = principal_eigenpair(cov3)
        return 4.0 * lam / n, direction
    jmats = [op.matrix for op in build_spin_operators(basis)]
    direction, lam = principal_eigenpair(_qfi_matrix(state, jmats))
    return lam / n, direction


def _clustered_projectors(observable: HermitianOperator, tol: float = EIG_CLUSTER_TOL):
    """Eigenvector index groups of the observable, merging degenerate values."""
    evals, evecs = np.linalg.eigh(observable.matrix)
    groups = []
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] > tol:
            groups.append(slice(start, i))
            start = i
    return evals, evecs, groups


def classical_fisher(state: QuantumState, generator: HermitianOperator,
                     observable: HermitianOperator, theta: float,
                     dtheta: float = 1e-5) -> float:
    """Fisher information of the observable's counting statistics at theta.

    Probabilities come from the eigendecomposition of the observable with
    degenerate eigenvalues merged at tolerance 1e-9; the theta derivative
    is a central finite difference with step dtheta.  Outcomes with
    probability below 1e-12 are excluded.  A halved-step re-evaluation
    must agree to 1e-4 relative, otherwise a warning is emitted.
    """
    if dtheta <= 0:
        raise ValueError("dtheta must be positive")
    _, evecs, groups = _clustered_projectors(observable)
    prop = HermitianPropagator(generator)

    def probs(th: float) -> np.ndarray:
        amps = np.sum(np.abs(evecs.conj().T @ prop.apply(state, th).factor) ** 2, axis=1)
        return np.array([amps[g].sum() for g in groups])

    p0 = probs(theta)

    def fisher_for(h: float) -> float:
        dp = (probs(theta + h) - probs(theta - h)) / (2.0 * h)
        mask = p0 > PROB_FLOOR
        return float(np.sum(dp[mask] ** 2 / p0[mask]))

    f = fisher_for(dtheta)
    f_half = fisher_for(dtheta / 2)
    scale = max(abs(f), abs(f_half))
    if scale > 1e-12 and abs(f_half - f) > RICHARDSON_REL * scale:
        warnings.warn(
            f"classical Fisher estimate changes by {abs(f_half - f):.3e} when the "
            f"step is halved (step {dtheta:g}); reduce dtheta", stacklevel=2,
        )
    return f


def shot_noise_limit(system: str, n_particles: int | None = None) -> float:
    """Best classical sensitivity: N for N spins, 2 for a single bosonic mode."""
    if system == "spin":
        if n_particles is None or n_particles < 1:
            raise ValueError("spin shot noise needs the particle number")
        return float(n_particles)
    if system == "cv":
        return 2.0
    raise ValueError("system must be 'spin' or 'cv'")


@dataclass(frozen=True)
class FisherReport:
    """The three rungs of the sensitivity chain for one configuration."""

    chi2_inv: float
    classical_fisher: float
    qfi: float

    def validate_chain(self, slack: float = 1e-8) -> None:
        """Raise unless chi^-2 <= F <= F_Q within the given relative slack."""
        if self.chi2_inv > self.classical_fisher + slack * self.qfi:
            raise ValueError(
                f"chain violated: chi2_inv {self.chi2_inv} > classical Fisher "
                f"{self.classical_fisher}"
            )
        if self.classical_fisher > self.qfi * (1.0 + slack):
            raise ValueError(
                f"chain violated: classical Fisher {self.classical_fisher} > "
                f"QFI {self.qfi}"
            )
