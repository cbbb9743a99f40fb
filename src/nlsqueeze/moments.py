"""Moment-matrix machinery: covariance and commutator matrices, analytic
optimization of measurement observables and encoding generators, squeezing
coefficients, and the moment-based phase estimator."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cv import parse_fock_tag
from .dynamics import HermitianPropagator
from .errors import CalibrationError, ZeroSignalError
from .operators import HermitianOperator, OperatorFamily
from .spin import DickeBasis, build_spin_family, parse_dicke_tag, spin_family_size
from .states import QuantumState, check_same_basis

# retention threshold for the equilibrated covariance spectrum: sits well
# above its ~K*eps eigenvalue noise floor while keeping the genuinely dark
# measurement directions that a coarser cut would throw away together with
# their sensitivity
GAMMA_EPS_REL = 1e-12
KERNEL_LEAK_TOL = 1e-8
IMAG_RESIDUE_TOL = 1e-10


def _centered_rows(s: np.ndarray, family: OperatorFamily) -> np.ndarray:
    """Centered rows r_k = (H_k - <H_k>) S, flattened, where rho = S S^dagger.

    S is a state's factor (the state vector of a pure state).  Every
    second moment of the family is an inner product of these rows:
    Z = R* R^T is the table Z_kl = <(H_k - <H_k>)(H_l - <H_l>)>, and a
    combination sum_k a_k H_k has the centered row a^T R.  Centering the
    rows before the products avoids the cancellation that plagues
    high-degree monomials, whose raw second moments dwarf their covariances.
    The products H_k S come from the family's stored diagonals, so no dense
    member is touched.
    """
    prod = family.bands @ s[family.band_cols]  # prod[i, k] = (H_k S)[i]
    return _center(prod, s)


def _operator_rows(s: np.ndarray, *mats) -> np.ndarray:
    """Centered rows (A - <A>) S of dense matrices, as `_centered_rows`."""
    return _center(np.stack([a @ s for a in mats], axis=1), s)


def _center(prod: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows (H_k - <H_k>) S, flattened, from prod[:, k] = H_k S, checking the
    means.  Means and norms are read from prod and its float view, and the
    rows are written once, into the array returned: no other array of
    prod's size is made."""
    mu_c = np.einsum("ikc,ic->k", prod, s.conj())
    f = prod.view(float)
    # Cauchy-Schwarz: |<H_k>| <= ||H_k S|| ||S||, the scale of the residue
    _check_mean_residue(mu_c, np.sqrt(np.einsum("ikc,ikc->k", f, f)) * math.sqrt(np.vdot(s, s).real))
    rows = np.multiply(mu_c.real[:, None, None], s)  # rows[k] = <H_k> S
    np.subtract(prod.transpose(1, 0, 2), rows, out=rows)
    return rows.reshape(len(rows), -1)


def _signal(x: np.ndarray, h: np.ndarray):
    """((Delta X)^2, |<[X, H]>|) from the centered rows x, h of X and H.

    Returns None when the commutator is no signal: zero, or below 1e-12 of
    its Robertson bound 2 sqrt(Var X Var H).
    """
    var_x = np.vdot(x, x).real
    comm = 2.0 * abs(np.vdot(x, h).imag)
    if comm > 1e-12 * 2.0 * math.sqrt(var_x * np.vdot(h, h).real):
        return var_x, comm
    return None


def _moment_table(rows: np.ndarray):
    """Covariance and commutator matrices from the centered rows.

    Re(Z) is the symmetrized covariance and 2 Im(Z) equals -i<[H_k, H_l]>,
    so one table feeds both matrices.
    """
    z = rows.conj() @ rows.T
    return (z.real + z.real.T) / 2, z.imag - z.imag.T


def _check_mean_residue(mu_c: np.ndarray, bound: np.ndarray) -> None:
    over = np.abs(mu_c.imag) > IMAG_RESIDUE_TOL * bound
    if over.any():
        resid = np.abs(mu_c.imag[over]).max()
        raise ValueError(f"imaginary residue {resid:.2e} in operator means exceeds tolerance")


def covariance_matrix(state: QuantumState, family: OperatorFamily) -> np.ndarray:
    """Symmetrized covariance matrix of the family in the given state."""
    check_same_basis(state, family)
    return _moment_table(_centered_rows(state.factor, family))[0]


def commutator_matrix(state: QuantumState, family: OperatorFamily) -> np.ndarray:
    """Real skew-symmetric matrix of -i times commutator expectations."""
    check_same_basis(state, family)
    return _moment_table(_centered_rows(state.factor, family))[1]


@dataclass(frozen=True, eq=False)
class MomentData:
    """Covariance/commutator matrices and the regularized moment matrix.

    The pseudo-inversion runs on the variance-equilibrated covariance
    (each member rescaled to unit variance via `scales`), which keeps the
    spectrum well conditioned when the family mixes operator degrees; the
    stored gamma, c and m_matrix refer to the original operators.
    retained_dims holds the kept (trailing, ascending-eigenvalue)
    eigenvector columns of the equilibrated covariance, gamma_eigs its
    full spectrum and scales the member factors 1 / (Delta H_k) (1 for a
    member without variance).  kernel_leakage is the largest norm of an
    equilibrated commutator column along a dropped direction, relative to
    the Frobenius norm of the equilibrated commutator matrix; values above
    KERNEL_LEAK_TOL signal numerical corruption because exact states
    cannot carry signal in a zero-variance direction.
    """

    gamma: np.ndarray
    c: np.ndarray
    m_matrix: np.ndarray
    retained_dims: np.ndarray
    gamma_eigs: np.ndarray
    kernel_leakage: float
    scales: np.ndarray

    @property
    def size(self) -> int:
        return self.gamma.shape[0]

    @property
    def retained_count(self) -> int:
        return self.retained_dims.shape[1]

    @property
    def retained_eigs(self) -> np.ndarray:
        return self.gamma_eigs[self.size - self.retained_count:]

    @property
    def robertson_violated(self) -> bool:
        return self.kernel_leakage > KERNEL_LEAK_TOL


def moment_matrix(gamma: np.ndarray, c: np.ndarray) -> MomentData:
    """Moment matrix C^T Gamma^+ C with a spectral pseudo-inverse of Gamma.

    Both matrices are first equilibrated by the member standard deviations,
    which changes nothing in exact arithmetic but keeps mixed-degree
    families well conditioned.  Eigen-directions of the equilibrated
    covariance with eigenvalue <= GAMMA_EPS_REL * lambda_max are dropped;
    their commutator leakage is recorded (not raised) on the returned
    MomentData.
    """
    gamma = np.asarray(gamma, dtype=float)
    c = np.asarray(c, dtype=float)
    k = gamma.shape[0]
    if gamma.shape != (k, k) or c.shape != (k, k):
        raise ValueError("gamma and c must be square matrices of equal size")
    if np.abs(gamma - gamma.T).max() > 1e-10 * max(1.0, np.abs(gamma).max()):
        raise ValueError("gamma is not symmetric")
    if np.abs(c + c.T).max() > 1e-10 * max(1.0, np.abs(c).max()):
        raise ValueError("c is not skew-symmetric")
    gamma = (gamma + gamma.T) / 2
    c = (c - c.T) / 2

    dev = np.sqrt(np.clip(np.diag(gamma), 0.0, None))
    scales = np.where(dev > 0.0, 1.0 / np.where(dev > 0.0, dev, 1.0), 1.0)
    gamma_eq = gamma * scales[:, None] * scales[None, :]
    c_eq = c * scales[:, None] * scales[None, :]

    evals, evecs = np.linalg.eigh((gamma_eq + gamma_eq.T) / 2)
    lam_top = evals[-1]
    if evals[0] < -1e-10 * max(1.0, lam_top):
        raise ValueError("gamma has a negative eigenvalue beyond tolerance")
    keep = evals > GAMMA_EPS_REL * lam_top  # all False when lam_top <= 0

    retained = evecs[:, keep]
    proj = retained.T @ c_eq  # (r, k)
    m_eq = proj.T @ (proj / evals[keep][:, None])  # k x k zeros when nothing is kept
    m = m_eq * dev[:, None] * dev[None, :]  # undo the equilibration
    m = (m + m.T) / 2

    c_norm = np.linalg.norm(c_eq)
    dropped = evecs[:, ~keep]
    if dropped.shape[1] and c_norm > 0:
        leakage = float(np.linalg.norm(c_eq @ dropped, axis=0).max() / c_norm)
    else:
        leakage = 0.0
    return MomentData(gamma, c, m, retained, evals, leakage, scales)


def moment_data(state: QuantumState, family: OperatorFamily) -> MomentData:
    """Covariance, commutator and moment matrices for one state and family."""
    check_same_basis(state, family)
    return moment_matrix(*_moment_table(_centered_rows(state.factor, family)))


def principal_eigenpair(matrix: np.ndarray):
    """Top eigenpair of a symmetric matrix with deterministic conventions.

    Degenerate top eigenvalues are broken by preferring the eigenvector
    whose largest-magnitude coefficient sits at the smallest index; the
    sign is fixed so the largest-magnitude coefficient (the first one on a
    tie) is positive.
    """
    matrix = np.asarray(matrix, dtype=float)
    evals, evecs = np.linalg.eigh((matrix + matrix.T) / 2)
    lam = evals[-1]
    tol = 1e-12 * max(1.0, abs(lam))
    candidates = [evecs[:, i] for i in range(len(evals)) if evals[i] >= lam - tol]
    best = min(candidates, key=lambda v: int(np.argmax(np.abs(v))))
    if best[np.argmax(np.abs(best))] < 0:
        best = -best
    return best.copy(), float(lam)


def optimal_measurement(md: MomentData, n_coeffs) -> np.ndarray:
    """Unit-norm measurement coefficients saturating the moment bound.

    Implements the pseudo-inverse version of m ~ Gamma^{-1} C n.  When
    n_coeffs is shorter than the family, it sits on the leading members and
    is zero-padded elsewhere.  Raises ZeroSignalError when C n vanishes: no
    accessible observable responds to this generator.
    """
    n_coeffs = np.asarray(n_coeffs, dtype=float)
    if len(n_coeffs) > md.size:
        raise ValueError("n_coeffs is longer than the family")
    n_full = np.zeros(md.size)
    n_full[:len(n_coeffs)] = n_coeffs
    scales = md.scales
    cn_eq = scales * (md.c @ n_full)  # equilibrated signal vector C' n'
    if np.linalg.norm(cn_eq) <= 1e-14 * max(1.0, np.linalg.norm(md.c * scales[:, None] * scales[None, :])):
        raise ZeroSignalError("C n vanishes: zero sensitivity for this generator")
    weights = md.retained_dims.T @ cn_eq
    m = scales * (md.retained_dims @ (weights / md.retained_eigs))
    norm = np.linalg.norm(m)
    if norm == 0.0:
        raise ZeroSignalError("C n lies outside the retained covariance subspace")
    return m / norm


def optimize_generator(md: MomentData, generator_slots):
    """Best generator direction within the given slots.

    Returns the top eigenvector and eigenvalue of the principal submatrix
    of the moment matrix on generator_slots.
    """
    slots = list(generator_slots)
    if not slots:
        raise ValueError("generator_slots must be non-empty")
    return principal_eigenpair(md.m_matrix[np.ix_(slots, slots)])


def shot_noise_limit(system: str, n_particles: int | None = None) -> float:
    """Best classical sensitivity: N for N spins, 2 for a single bosonic mode."""
    if system == "spin":
        if n_particles is None or n_particles < 1:
            raise ValueError("spin shot noise needs the particle number")
        return float(n_particles)
    if system == "cv":
        return 2.0
    raise ValueError("system must be 'spin' or 'cv'")


def _shot_noise_from_tag(basis_tag: str) -> float:
    """Shot-noise limit of the system behind a basis tag (NaN if unknown)."""
    n = parse_dicke_tag(basis_tag)
    if n is not None:
        return shot_noise_limit("spin", n)
    if parse_fock_tag(basis_tag) is not None:
        return shot_noise_limit("cv")
    return math.nan


@dataclass(frozen=True, eq=False)
class SqueezingResult:
    """Optimized inverse squeezing parameter and the vectors achieving it.

    chi2_inv is the saturating quotient |<[X, H]>|^2 / (Delta X)^2 of the
    generator H = n.H and the optimal measurement X = m.H, and exactly 0
    when there is no signal; xi2 the gain coefficient F_SN / chi2_inv;
    m_coeffs the unit-norm optimal measurement (None without signal, where
    chi2_inv is 0);
    n_coeffs the generator direction on its candidate slots; lambda_max the
    top eigenvalue of the principal submatrix on those slots; moments the
    MomentData (of this order's family) that all of it was read from.
    """

    chi2_inv: float
    xi2: float
    m_coeffs: np.ndarray | None
    n_coeffs: np.ndarray
    lambda_max: float
    moments: MomentData

    @property
    def kernel_leakage(self) -> float:
        return self.moments.kernel_leakage

    @property
    def robertson_violated(self) -> bool:
        return self.moments.robertson_violated


def _squeeze(md: MomentData, rows: np.ndarray, slots, f_sn: float,
             n_coeffs=None) -> SqueezingResult:
    """Squeezing result of the moment data `md` and the centered rows it came
    from, for the generator n_coeffs on `slots` (default: the best one).

    lambda_max and the default generator are the top eigenpair of M on the
    slots.  chi2_inv is the saturating quotient of the optimal measurement
    m: with x = m^T R and h = n^T R it is (2 Im<x|h>)^2 / ||x||^2, which
    stays stable where the quadratic form n^T M n overshoots bounds like F_Q
    by the noise of the smallest retained covariance eigenvalues.  Without
    signal (see `_signal`) chi2_inv is 0 and there is no measurement.
    """
    n_opt, lam = optimize_generator(md, slots)
    n_coeffs = n_opt if n_coeffs is None else np.asarray(n_coeffs, dtype=float)
    n_full = np.zeros(md.size)
    n_full[slots] = n_coeffs
    try:
        m = optimal_measurement(md, n_full)
    except ZeroSignalError:
        m = None
    signal = None if m is None else _signal(m @ rows, n_full @ rows)
    if signal is None:
        return SqueezingResult(0.0, math.nan if math.isnan(f_sn) else math.inf, None,
                               n_coeffs, lam, md)
    chi2_inv = signal[1] ** 2 / signal[0]
    return SqueezingResult(chi2_inv, f_sn / chi2_inv, m, n_coeffs, lam, md)


def chi2_inverse_opt(state: QuantumState, family: OperatorFamily, n_coeffs,
                     generator_slots=None) -> SqueezingResult:
    """Best inverse squeezing parameter for a fixed generator direction.

    n_coeffs is a unit vector over the generator candidate slots (default:
    the degree-1 family members); the measurement is optimized analytically
    over the full family.
    """
    slots = list(generator_slots) if generator_slots is not None else family.linear_slots()
    n_coeffs = np.asarray(n_coeffs, dtype=float)
    if len(n_coeffs) != len(slots):
        raise ValueError("n_coeffs length must match the generator slots")
    if abs(np.linalg.norm(n_coeffs) - 1.0) > 1e-10:
        raise ValueError("generator direction must be a unit vector")
    check_same_basis(state, family)
    rows = _centered_rows(state.factor, family)
    return _squeeze(moment_matrix(*_moment_table(rows)), rows, slots,
                    _shot_noise_from_tag(family.basis_tag), n_coeffs)


def chi2_error_propagation(state: QuantumState, generator: HermitianOperator,
                           observable: HermitianOperator) -> float:
    """Error-propagation squeezing parameter (Delta X)^2 / |<[X, H]>|^2."""
    rows = _operator_rows(state.factor, state._matrix_of(observable), state._matrix_of(generator))
    signal = _signal(*rows)
    if signal is None:
        raise ZeroSignalError("observable carries no signal for this generator")
    var_x, comm = signal
    return var_x / comm ** 2


def spin_squeezing_profile(state: QuantumState, basis: DickeBasis, k_max: int,
                           family: OperatorFamily | None = None) -> list[SqueezingResult]:
    """Squeezing results for every order 1..k_max sharing one moment table.

    The order-k family is a prefix of the order-k_max family, so the
    covariance and commutator matrices are computed once and sliced.
    """
    if family is None:
        family = build_spin_family(basis, k_max)
    if len(family) != spin_family_size(k_max):
        raise ValueError("family does not match k_max")
    check_same_basis(state, family)
    rows = _centered_rows(state.factor, family)
    gamma, c = _moment_table(rows)
    results = []
    for k in range(1, k_max + 1):
        cnt = spin_family_size(k)
        md = moment_matrix(gamma[:cnt, :cnt], c[:cnt, :cnt])
        results.append(_squeeze(md, rows[:cnt], [0, 1, 2], float(basis.n_particles)))
    return results


ENT_BOUNDARY_TOL = 1e-9


def entanglement_bound(xi2_inv: float) -> int:
    """Largest k with xi2_inv > k: at least that many qubits are entangled.

    The inequality is strict, so values within 1e-9 of an integer boundary
    are not rounded up; floating noise at the classical limit (xi2_inv = 1)
    must not fake a detection.
    """
    if xi2_inv < 0:
        raise ValueError("xi2_inv must be non-negative")
    if not math.isfinite(xi2_inv):
        raise ValueError("xi2_inv must be finite")
    return max(0, math.ceil(xi2_inv - ENT_BOUNDARY_TOL) - 1)


@dataclass(frozen=True)
class EstimatorReport:
    """Predicted vs empirical variance of the moment-based estimator."""

    theta_true: float
    mu: int
    trials: int
    seed: int
    window: tuple
    predicted_variance: float
    empirical_variance: float
    ratio: float
    theta_mean: float
    n_clamped: int


def simulate_moment_estimator(state: QuantumState, generator: HermitianOperator,
                              observable: HermitianOperator, theta_true: float,
                              mu: int, trials: int, seed: int,
                              window: tuple | None = None) -> EstimatorReport:
    """Monte Carlo check of (Delta theta_est)^2 = chi^2 / mu.

    Each trial draws mu outcomes from the spectral distribution of the
    observable at theta_true and inverts the calibration curve <X>(theta)
    by monotone bracketing with linear interpolation on a fixed 1001-point
    grid over the declared window (default: theta_true +- 0.3).
    """
    if mu < 1:
        raise ValueError("mu must be >= 1")
    if trials < 2:
        raise ValueError("need at least two trials to estimate a variance")
    if mu < 30:
        warnings.warn(
            f"mu = {mu} is too small for the central-limit regime the "
            "prediction relies on", stacklevel=2,
        )
    if window is None:
        window = (theta_true - 0.3, theta_true + 0.3)
    lo, hi = float(window[0]), float(window[1])
    if not lo < theta_true < hi:
        raise ValueError("theta_true must lie strictly inside the window")

    prop = HermitianPropagator(generator)
    grid = np.linspace(lo, hi, 1001)
    curve = np.array([prop.apply(state, t).expectation(observable) for t in grid])
    diffs = np.diff(curve)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise CalibrationError("calibration curve is not monotonic on the window")
    if curve[0] > curve[-1]:
        curve_asc, grid_asc = curve[::-1], grid[::-1]
    else:
        curve_asc, grid_asc = curve, grid

    probe = prop.apply(state, theta_true)
    xvals, xvecs = np.linalg.eigh(observable.matrix)
    p = np.sum(np.abs(xvecs.conj().T @ probe.factor) ** 2, axis=1)
    p = np.clip(p, 0.0, None)
    p /= p.sum()

    rng = np.random.default_rng(seed)
    counts = rng.multinomial(mu, p, size=trials)
    xbars = counts @ xvals / mu

    n_clamped = int(np.sum((xbars < curve_asc[0]) | (xbars > curve_asc[-1])))
    if n_clamped:
        warnings.warn(
            f"{n_clamped}/{trials} sample means fell outside the calibration "
            "window and were clamped", stacklevel=2,
        )
    theta_est = np.interp(xbars, curve_asc, grid_asc)

    empirical = float(np.var(theta_est, ddof=1))
    predicted = chi2_error_propagation(probe, generator, observable) / mu
    return EstimatorReport(
        theta_true=theta_true,
        mu=mu,
        trials=trials,
        seed=seed,
        window=(lo, hi),
        predicted_variance=predicted,
        empirical_variance=empirical,
        ratio=empirical / predicted,
        theta_mean=float(theta_est.mean()),
        n_clamped=n_clamped,
    )
