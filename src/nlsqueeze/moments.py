"""Moment-matrix machinery: covariance and commutator matrices, analytic
optimization of measurement observables and encoding generators, squeezing
coefficients, and the moment-based phase estimator."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import HermitianPropagator
from .errors import BasisMismatchError, CalibrationError, ZeroSignalError
from .operators import HermitianOperator, OperatorFamily, pieces
from .spin import DickeBasis, build_spin_family, spin_family_size
from .states import QuantumState, check_same_basis

# retention threshold for the equilibrated covariance spectrum: sits well
# above its ~K*eps eigenvalue noise floor while keeping the genuinely dark
# measurement directions that a coarser cut would throw away together with
# their sensitivity
GAMMA_EPS_REL = 1e-12
KERNEL_LEAK_TOL = 1e-8


def _centered_rows(state: QuantumState, family: OperatorFamily):
    """Centered rows r_k = (H_k - <H_k>) S, flattened, and their Gram matrix
    Z = R* R^T (see `_center`), where rho = S S^dagger.

    S is the state's factor (the state vector of a pure state).  Every
    second moment of the family is an inner product of these rows:
    Z_kl = <(H_k - <H_k>)(H_l - <H_l>)>, and a combination sum_k a_k H_k
    has the centered row a^T R.  Centering the rows before the products
    avoids the cancellation that plagues high-degree monomials, whose raw
    second moments dwarf their covariances.  The products H_k S come from
    the family's stored diagonals, so no dense member is touched, and are
    written straight into the returned table.

    A state that carries a floor split, rho = lambda0 I + S' S'^dagger
    (see `QuantumState` and `states.spectral_floor`), is tabled over it in
    D r' + L + 1 columns: the entries of (H_k - <H_k>) S', then the L + 1
    real coordinates sqrt(lambda0) [F_k | sqrt(D) (tbar_k - <H_k>)] of
    sqrt(lambda0) (H_k - <H_k>) in an orthonormal operator basis, from the
    family's `trace_factor`.  Their products give the identity part's
    lambda0 tr((H_k - <H_k>)(H_l - <H_l>)), and nothing to the commutators.
    `_center` centers the table against [S' | 0 | sqrt(lambda0 D)], whose
    last entry adds lambda0 tr H_k to each mean.  Such a state's D x D
    factor is never formed.
    """
    floor = state._floor
    s = center = state.factor if floor is None else floor[1]
    rows = np.empty((len(family), s.size if floor is None else s.size + len(family) + 1), dtype=complex)
    heads = rows[:, :s.size].reshape(len(family), *s.shape)  # a view: rows[k, :D r] = H_k S
    _band_product(family, s, heads.transpose(1, 0, 2))
    if floor is not None:
        tbar, trace = family.trace_factor
        center = np.zeros(rows.shape[1], dtype=complex)
        center[:s.size] = s.ravel()
        center[-1] = math.sqrt(floor[0] * len(s))
        rows[:, s.size:-1] = math.sqrt(floor[0]) * trace
        rows[:, -1] = center[-1] * tbar
    return _center(rows, center)


def _band_product(family: OperatorFamily, s: np.ndarray, out: np.ndarray):
    """out[i, k] = (H_k S)[i] = bands[i, k] @ S[band_cols[i]], formed in row
    `pieces` of gathered entries of S.  Each row's product is its own matrix
    product, so the pieces give the same bits as one batched product over
    all rows."""
    cols = family.band_cols
    for piece in pieces(len(s), cols.shape[1] * s.shape[1]):
        np.matmul(family.bands[piece], s[cols[piece]], out=out[piece])


def _operator_rows(s: np.ndarray, *mats):
    """Centered rows (A - <A>) S of dense matrices and their Gram matrix,
    as `_centered_rows`."""
    return _center(np.stack([a @ s for a in mats]), s)


def _center(rows: np.ndarray, s: np.ndarray):
    """Center rows[k] = H_k S in place into R_k = (H_k - <H_k>) S and
    return the flattened rows R with Z = R* R^T.

    The means are the real part of one product of the flattened rows with
    S*; every H_k was checked Hermitian when it was made.  S only has to
    flatten as the rows do: a floored table's is [S' | 0 | sqrt(lambda0 D)]
    (see `_centered_rows`).  The table is then walked twice in `pieces`,
    the largest temporaries.  The centering walks contiguous row chunks;
    being elementwise, it gives the same bits in any partition.  The Gram
    product walks column slices and adds up their blocks; a table of one
    slice gets Z bit for bit as the one-shot R* R^T.
    """
    flat = rows.reshape(len(rows), -1)
    s_flat = s.ravel()
    mu = (flat @ s_flat.conj()).real.astype(complex)[:, None]  # cast once, not per chunk
    for piece in pieces(len(flat), flat.shape[1]):
        flat[piece] -= mu[piece] * s_flat
    gram = None
    for piece in pieces(flat.shape[1], len(flat)):
        part = flat[:, piece]
        block = part.conj() @ part.T
        gram = block if gram is None else gram + block
    return flat, gram


def _signal(x: np.ndarray, h: np.ndarray, floor: float = 0.0):
    """((Delta X)^2, |<[X, H]>|) from the centered rows x, h of X and H.

    Returns None when the commutator is no signal: zero, or below 1e-12 of
    its Robertson bound 2 sqrt(Var X Var H), or when ||x|| is within
    `floor`, the rounding error of the row x, so that both quotient terms
    are noise.  Raises ValueError when Var X Var H or the squared commutator
    overflows: the bound and the callers' quotients cannot be formed.
    """
    var_x = np.vdot(x, x).real
    comm = 2.0 * abs(np.vdot(x, h).imag)
    # products of Python floats: one beyond float range is inf, with no warning
    product = float(var_x) * float(np.vdot(h, h).real)
    if math.isinf(product) or math.isinf(float(comm) * float(comm)):
        raise ValueError("second moments overflow the float range: rescale the operators")
    if var_x > floor * floor and comm > 1e-12 * 2.0 * math.sqrt(product):
        return var_x, comm
    return None


def _family_moments(state: QuantumState, family: OperatorFamily):
    """(rows, gamma, c): the centered rows of the family in the state (see
    `_centered_rows`), its symmetrized covariance matrix and its real
    skew-symmetric matrix of -i times commutator expectations.

    Re(Z) is the symmetrized covariance and 2 Im(Z) equals -i<[H_k, H_l]>,
    so one Gram matrix Z feeds both matrices.  An exact-zero member (row within
    100 e_k, `OperatorFamily.member_noise`) gets zero row, Gram row and column;
    the row norm is compared, as (100 e_k) ** 2 overflows for entries above about 3e166.
    """
    check_same_basis(state, family)
    rows, gram = _centered_rows(state, family)
    exact_zero = np.sqrt(gram.diagonal().real) <= 100.0 * family.member_noise
    if exact_zero.any():
        rows[exact_zero] = gram[exact_zero] = gram[:, exact_zero] = 0.0
    return rows, (gram.real + gram.real.T) / 2, gram.imag - gram.imag.T


def covariance_matrix(state: QuantumState, family: OperatorFamily) -> np.ndarray:
    """Symmetrized covariance matrix of the family in the given state."""
    return _family_moments(state, family)[1]


@dataclass(frozen=True, eq=False)
class MomentData:
    """Covariance/commutator matrices and the regularized moment matrix.

    The pseudo-inversion runs on the variance-equilibrated covariance
    Gamma_eq = diag(scales) Gamma diag(scales), where scales holds the
    member factors 1 / (Delta H_k) (1 for a member without variance); this
    keeps the spectrum well conditioned when the family mixes operator
    degrees.  The stored gamma, c and m_matrix refer to the original
    operators.  retained is the one factor of the pseudo-inverse,
    W = V lambda^(-1/2) on the kept eigenpairs (lambda, V) of Gamma_eq:
    Gamma_eq^+ = W W^T and Gamma^+ = diag(scales) W W^T diag(scales).
    kernel_leakage is the largest norm of an equilibrated commutator column
    along a dropped direction, relative to c_norm, the Frobenius norm of the
    equilibrated commutator matrix diag(scales) C diag(scales); values above
    KERNEL_LEAK_TOL signal numerical corruption because exact states cannot
    carry signal in a zero-variance direction.  c_norm is also the scale of
    the zero-signal test of `optimal_measurement`.
    """

    gamma: np.ndarray
    c: np.ndarray
    m_matrix: np.ndarray
    retained: np.ndarray
    kernel_leakage: float
    scales: np.ndarray
    c_norm: float

    @property
    def size(self) -> int:
        return self.gamma.shape[0]

    @property
    def retained_count(self) -> int:
        return self.retained.shape[1]

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

    This is the one gate from (gamma, c) to MomentData, for a caller's
    matrices and the row kernel's tables alike: they must be square, of
    equal size, nonempty, finite and symmetric (gamma) or skew-symmetric (c)
    within 1e-10 of their largest entry.  An exactly (skew-)symmetric input,
    as every table of the row kernel is, is copied, any other one
    symmetrized.
    """
    gamma = np.asarray(gamma, dtype=float)
    c = np.asarray(c, dtype=float)
    k = gamma.shape[-1] if gamma.ndim else 0
    if not k or gamma.shape != (k, k) or c.shape != (k, k):
        raise ValueError("gamma and c must be square matrices of equal size")
    # one residue per matrix: a NaN or infinite entry leaves a NaN or
    # infinite one, so a residue of exact zeros proves the matrix finite and
    # exactly (skew-)symmetric, and it is kept as a copy
    with np.errstate(invalid="ignore", over="ignore"):
        gamma_residue, c_residue = gamma - gamma.T, c + c.T
    gamma_exact, c_exact = not np.count_nonzero(gamma_residue), not np.count_nonzero(c_residue)
    # written `not x <= tol < inf`: a NaN residue fails, and an infinite
    # entry gives an infinite tolerance
    if not (gamma_exact or np.abs(gamma_residue).max() <= 1e-10 * np.abs(gamma).max() < np.inf):
        raise ValueError("gamma is not a finite symmetric matrix")
    if not (c_exact or np.abs(c_residue).max() <= 1e-10 * np.abs(c).max() < np.inf):
        raise ValueError("c is not a finite skew-symmetric matrix")
    gamma = gamma.copy() if gamma_exact else (gamma + gamma.T) / 2
    c = c.copy() if c_exact else (c - c.T) / 2

    dev = np.sqrt(np.maximum(gamma.diagonal(), 0.0))
    scales = 1.0 / np.where(dev > 0.0, dev, 1.0)
    gamma_eq = gamma * scales[:, None] * scales
    c_eq = c * scales[:, None] * scales

    evals, evecs = np.linalg.eigh((gamma_eq + gamma_eq.T) / 2)
    lam_top = evals[-1]
    if evals[0] < -1e-10 * lam_top:
        raise ValueError("gamma has a negative eigenvalue beyond tolerance")
    keep = evals > GAMMA_EPS_REL * lam_top  # all False when lam_top <= 0

    retained = evecs[:, keep] / np.sqrt(evals[keep])
    proj = (retained.T @ c_eq) * dev  # (r, k); the factor dev undoes the equilibration
    m = proj.T @ proj  # exactly symmetric (BLAS syrk); k x k zeros when nothing is kept

    c_norm = math.sqrt(np.vdot(c_eq, c_eq))  # Frobenius norm
    dropped = evecs[:, ~keep]
    if dropped.shape[1] and c_norm > 0:  # the largest column norm of c_eq @ dropped
        leakage = math.sqrt(np.add.reduce((c_eq @ dropped) ** 2).max()) / c_norm
    else:
        leakage = 0.0
    return MomentData(gamma, c, m, retained, leakage, scales, c_norm)


def moment_data(state: QuantumState, family: OperatorFamily) -> MomentData:
    """Covariance, commutator and moment matrices for one state and family."""
    return moment_matrix(*_family_moments(state, family)[1:])


def principal_eigenpair(matrix: np.ndarray):
    """Top eigenpair of a symmetric matrix, the largest-magnitude coefficient
    (the first one on a tie) made positive; for a stack (K, n, n), the top
    eigenpairs (K, n) and (K,) of its matrices from one batched `eigh`.

    A single matrix gives (vector, float).  A degenerate top eigenspace gets
    no canonical vector: of the vectors `eigh` returns with eigenvalues
    within 1e-12 max|eigenvalue| of the top (a window that scales with the
    matrix), the one whose largest-magnitude coefficient sits at the
    smallest index wins (the lowest-ranked one on a tie), so rounding noise
    can turn the result within that space (ROADMAP, "Honest numbers").
    """
    matrix = np.asarray(matrix, dtype=float)
    evals, evecs = np.linalg.eigh((matrix + matrix.swapaxes(-1, -2)) / 2)
    lam = evals[..., -1:]
    cols = evecs.swapaxes(-1, -2)  # cols[..., j, :] is eigenvector j
    lead = np.abs(cols).argmax(axis=-1)  # index of each eigenvector's largest |coefficient|
    candidate = evals >= lam - 1e-12 * np.abs(evals).max(axis=-1, keepdims=True)
    best = np.where(candidate, lead, lead.shape[-1]).argmin(axis=-1)  # first minimum: lowest rank
    if matrix.ndim == 2:  # basic indexing: no index arrays for a single matrix
        vec = cols[best]
        return (-vec if vec[lead[best]] < 0 else vec.copy()), float(lam[0])
    k = np.arange(len(best))
    vec = cols[k, best]
    vec *= np.sign(vec[k, lead[k, best]])[:, None]  # +-1: a unit vector's largest entry is nonzero
    return vec, lam[:, 0]


def _measurement(md: MomentData, n_full: np.ndarray) -> np.ndarray:
    """Unit-norm m ~ Gamma^+ C n for a full-length generator n (see
    `optimal_measurement`, which checks the input)."""
    scales = md.scales
    cn_eq = scales * (md.c @ n_full)  # equilibrated signal vector C' n'
    # sqrt(x @ x) is what np.linalg.norm computes for a real vector
    if math.sqrt(cn_eq @ cn_eq) <= 1e-14 * max(1.0, md.c_norm):
        raise ZeroSignalError("C n vanishes: zero sensitivity for this generator")
    m = scales * (md.retained @ (md.retained.T @ cn_eq))
    norm = math.sqrt(m @ m)
    if norm == 0.0:
        raise ZeroSignalError("C n lies outside the retained covariance subspace")
    return m / norm


def optimal_measurement(md: MomentData, n_coeffs) -> np.ndarray:
    """Unit-norm measurement coefficients saturating the moment bound.

    Implements m ~ Gamma^+ C n with the stored factor W of Gamma^+.  When
    n_coeffs is shorter than the family, it sits on the leading members and
    is zero-padded elsewhere.  Raises ZeroSignalError when C n vanishes
    (below 1e-14 of max(1, md.c_norm)): no accessible observable responds to
    this generator.
    """
    n_coeffs = np.asarray(n_coeffs, dtype=float)
    if len(n_coeffs) > md.size or not np.isfinite(n_coeffs).all():
        raise ValueError("n_coeffs must be finite and no longer than the family")
    n_full = np.zeros(md.size)
    n_full[:len(n_coeffs)] = n_coeffs
    return _measurement(md, n_full)


def optimize_generator(md: MomentData, generator_slots):
    """Best generator direction within the given slots.

    Returns the top eigenpair of the principal submatrix of the moment
    matrix on generator_slots, which must be distinct member indices.
    """
    slots = list(generator_slots)
    _check_slots(slots, md.size)
    return principal_eigenpair(md.m_matrix[slots][:, slots])


def _check_slots(slots: list, size: int):
    """Refuse generator slots that are not distinct member indices."""
    valid = all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < size for i in slots)
    if not (slots and valid and len(set(slots)) == len(slots)):
        raise ValueError(f"generator_slots must be distinct integers in 0..{size - 1}")


@dataclass(frozen=True, eq=False)
class SqueezingResult:
    """Optimized inverse squeezing parameter and the vectors achieving it.

    chi2_inv is the saturating quotient |<[X, H]>|^2 / (Delta X)^2 of the
    generator H = n.H and the optimal measurement X = m.H, and exactly 0
    when there is no signal; the gain coefficient xi^2 = F_SN / chi2_inv
    takes F_SN from the basis (`DickeBasis.shot_noise`,
    `FockBasis.shot_noise`).  m_coeffs is the unit-norm optimal measurement
    (None without signal, where chi2_inv is 0);
    n_coeffs the generator direction on its candidate slots; lambda_max the
    top eigenvalue of the principal submatrix on those slots; moments the
    MomentData (of this order's family) that all of it was read from.
    """

    chi2_inv: float
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


def _squeeze(md: MomentData, rows: np.ndarray, slots, n_coeffs: np.ndarray, lam: float) -> SqueezingResult:
    """Squeezing result of the moment data `md` and the centered rows it came
    from, for the generator n_coeffs on `slots`; lam is the top eigenvalue
    of M on the slots, which the caller has solved for.

    chi2_inv is the saturating quotient of the optimal measurement m (see
    `_measurement`): with x = m^T R and h = n^T R it is
    (2 Im<x|h>)^2 / ||x||^2, which stays stable where the quadratic form
    n^T M n overshoots bounds like F_Q by the noise of the smallest retained
    covariance eigenvalues.  Without signal (see `_signal`) chi2_inv is 0
    and there is no measurement.  Nothing is validated here: the profile
    builds its own input, and `chi2_inverse_opt` checks the user's.
    """
    n_full = np.zeros(md.size)
    n_full[slots] = n_coeffs
    try:
        m = _measurement(md, n_full)
    except ZeroSignalError:
        m = None
    signal = None if m is None else _signal(m @ rows, n_coeffs @ rows[slots])
    if signal is None:
        return SqueezingResult(0.0, None, n_coeffs, lam, md)
    return SqueezingResult(signal[1] ** 2 / signal[0], m, n_coeffs, lam, md)


def chi2_inverse_opt(state: QuantumState, family: OperatorFamily, n_coeffs,
                     generator_slots=None) -> SqueezingResult:
    """Best inverse squeezing parameter for a fixed generator direction.

    n_coeffs is a unit vector over the generator candidate slots (default:
    the degree-1 family members); the measurement is optimized analytically
    over the full family.  The table is the one `moment_data` passes to
    `moment_matrix`, and lambda_max is the top eigenvalue of M on the slots
    alone: the bits of `optimize_generator`'s, without choosing its vector.
    """
    slots = list(generator_slots) if generator_slots is not None else family.linear_slots()
    n_coeffs = np.asarray(n_coeffs, dtype=float)
    if len(n_coeffs) != len(slots):
        raise ValueError("n_coeffs length must match the generator slots")
    if not abs(np.linalg.norm(n_coeffs) - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError("generator direction must be a unit vector")
    rows, gamma, c = _family_moments(state, family)
    md = moment_matrix(gamma, c)
    _check_slots(slots, md.size)
    block = md.m_matrix[slots][:, slots]
    lam = float(np.linalg.eigh((block + block.T) / 2)[0][-1])  # as `principal_eigenpair` forms it
    return _squeeze(md, rows, slots, n_coeffs, lam)


def chi2_error_propagation(state: QuantumState, generator: HermitianOperator,
                           observable: HermitianOperator) -> float:
    """Error-propagation squeezing parameter (Delta X)^2 / |<[X, H]>|^2.

    The centered row (X - <X>) S of the observable is formed with an error
    of at most about D eps || |X| |S| ||_F (entrywise absolute values, D
    the dimension).  A row no longer than ten times that is rounding noise,
    as for an eigenstate of X, and carries no signal: ZeroSignalError.
    """
    s, x_mat = state.factor, state._matrix_of(observable)
    rows, _ = _operator_rows(s, x_mat, state._matrix_of(generator))
    floor = 10.0 * np.finfo(float).eps * len(s) * np.linalg.norm(np.abs(x_mat) @ np.abs(s))
    signal = _signal(*rows, floor=floor)
    if signal is None:
        raise ZeroSignalError("observable carries no signal for this generator")
    var_x, comm = signal
    if comm >= 2.0 ** -511:  # comm ** 2 is normal
        return var_x / comm ** 2
    # below, comm = mant 2^exp and var_x are scaled by exact powers of two
    mant, exp = math.frexp(comm)
    return math.ldexp(var_x, -2 * exp) / mant ** 2


def spin_squeezing_profile(state: QuantumState, basis: DickeBasis, k_max: int,
                           family: OperatorFamily | None = None) -> list[SqueezingResult]:
    """Squeezing results for every order 1..k_max sharing one moment table;
    `basis` builds the family when none is given, or must hold the given one.

    The order-k family is a prefix of the order-k_max family, so the
    covariance and commutator matrices are computed once and sliced.  Each
    order runs `moment_matrix` on its prefix, which its one residue pass per
    matrix finds exactly (skew-)symmetric; the generator slots Jx, Jy, Jz
    of all orders are then solved at once, by `principal_eigenpair` on the
    stack of the k_max blocks M[:3, :3].  The results are bit for bit those
    of the public per-order path (`moment_matrix`, `optimize_generator`,
    `optimal_measurement`).
    """
    if family is None:
        family = build_spin_family(basis, k_max)
    elif family.basis_tag != basis.tag:
        raise BasisMismatchError("family does not live in the given Dicke basis")
    if len(family) != spin_family_size(k_max):
        raise ValueError("family does not match k_max")
    rows, gamma, c = _family_moments(state, family)
    mds = [moment_matrix(gamma[:cnt, :cnt], c[:cnt, :cnt])
           for cnt in map(spin_family_size, range(1, k_max + 1))]
    n_opts, lams = principal_eigenpair(np.stack([md.m_matrix[:3, :3] for md in mds]))
    return [_squeeze(md, rows[:md.size], slice(3), n_opt, float(lam))
            for md, n_opt, lam in zip(mds, n_opts, lams)]


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
    """Predicted vs empirical variance of the moment-based estimator; window
    is the calibration window used, with the default resolved."""

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
    if not 1 <= mu <= np.iinfo(np.int64).max:  # the multinomial draw counts in int64
        raise ValueError(f"mu must be >= 1 and <= {np.iinfo(np.int64).max}")
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
    if not math.isfinite(hi - lo):
        raise ValueError("window width must be finite")

    prop = HermitianPropagator(generator)
    grid = np.linspace(lo, hi, 1001)
    curve = np.array([prop.apply(state, t).expectation(observable) for t in grid])
    diffs = np.diff(curve)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise CalibrationError("calibration curve is not monotonic on the window")
    if curve[0] > curve[-1]:  # np.interp needs an increasing curve
        curve, grid = curve[::-1], grid[::-1]

    probe = prop.apply(state, theta_true)
    xvals, xvecs = np.linalg.eigh(state._matrix_of(observable))
    p = np.sum(np.abs(xvecs.conj().T @ probe.factor) ** 2, axis=1)
    p /= p.sum()

    rng = np.random.default_rng(seed)
    counts = rng.multinomial(mu, p, size=trials)
    xbars = counts @ xvals / mu

    n_clamped = int(np.sum((xbars < curve[0]) | (xbars > curve[-1])))
    if n_clamped:
        warnings.warn(
            f"{n_clamped}/{trials} sample means fell outside the calibration "
            "window and were clamped", stacklevel=2,
        )
    theta_est = np.interp(xbars, curve, grid)

    empirical = float(np.var(theta_est, ddof=1))
    predicted = chi2_error_propagation(probe, generator, observable) / mu
    return EstimatorReport(
        window=(lo, hi),
        predicted_variance=predicted,
        empirical_variance=empirical,
        ratio=empirical / predicted,
        theta_mean=float(theta_est.mean()),
        n_clamped=n_clamped,
    )
