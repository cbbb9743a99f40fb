import numpy as np
import pytest

from nlsqueeze import (
    BasisMismatchError,
    DickeBasis,
    FockBasis,
    HermitianOperator,
    HermitianPropagator,
    OperatorFamily,
    QuadratureDirection,
    QuantumState,
    ZeroSignalError,
    build_spin_family,
    build_spin_operators,
    check_chain,
    chi2_error_propagation,
    chi2_inverse_opt,
    classical_fisher,
    coherent_spin_state_z,
    combine,
    covariance_matrix,
    evolve,
    f_max_density,
    fock_state,
    moment_data,
    parity_operator,
    qfi,
    quadrature_generator,
)
from nlsqueeze.dynamics import EvolutionSpec
from nlsqueeze.spin import _AXES, _spin_bands
from nlsqueeze.states import spectral_floor

from conftest import random_density, random_hermitian, random_pure_state


def standard_ghz(n):
    basis = DickeBasis(n)
    vec = np.zeros(n + 1, dtype=complex)
    vec[0] = vec[-1] = 1 / np.sqrt(2)
    return basis, QuantumState.pure(vec, basis.tag)


def spectral_qfi_matrix(rho, mats):
    """Reference Q_ab = 2 sum_ij (l_i - l_j)^2 / (l_i + l_j) Re(A_ij B_ji) over
    the eigenpairs of rho, pairs with l_i + l_j <= 1e-12 dropped."""
    lam, vecs = np.linalg.eigh(rho)
    lam = np.clip(lam, 0.0, None)
    sums = lam[:, None] + lam[None, :]
    weights = np.where(sums > 1e-12, (lam[:, None] - lam[None, :]) ** 2
                       / np.where(sums > 1e-12, sums, 1.0), 0.0)
    rotated = [vecs.conj().T @ m @ vecs for m in mats]
    return np.array([[2.0 * np.real(np.sum(weights * a * b.T)) for b in rotated]
                     for a in rotated])


def random_factor(rng, dim, rank, basis_tag="test"):
    """Unit-trace factor with non-orthogonal columns (rho = S S^dagger)."""
    s = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return QuantumState(basis_tag, s / np.linalg.norm(s))


def noisy_css(n=60, weight=0.1):
    """The coherent state |j, j> mixed with white noise of the given weight."""
    basis = DickeBasis(n)
    rho = (1 - weight) * coherent_spin_state_z(basis).density_matrix() + weight * np.eye(n + 1) / (n + 1)
    return basis, QuantumState.mixed(rho, basis.tag)


def bures_qfi_oracle(rho, generator, dtheta=1e-4):
    """Finite-difference fidelity oracle: F_Q ~ 8 (1 - sqrt(F(rho, rho_dtheta))) / dtheta^2."""

    def sqrtm_psd(mat):
        evals, evecs = np.linalg.eigh(mat)
        return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T

    evals, evecs = np.linalg.eigh(generator.matrix)
    u = (evecs * np.exp(-1j * dtheta * evals)) @ evecs.conj().T
    rho_shift = u @ rho @ u.conj().T
    root = sqrtm_psd(rho)
    fid = np.trace(sqrtm_psd(root @ rho_shift @ root)).real ** 2
    return 8.0 * (1.0 - np.sqrt(fid)) / dtheta ** 2


class TestQfiPure:
    def test_fock_state_value(self):
        basis = FockBasis(12)
        state = fock_state(basis, 3)
        q = quadrature_generator(basis, QuadratureDirection.from_phase(1.1))
        assert abs(qfi(state, q) - 14.0) < 1e-10

    def test_css_value(self):
        n = 10
        basis = DickeBasis(n)
        css = coherent_spin_state_z(basis)
        jx = build_spin_operators(basis)[0]
        assert abs(qfi(css, jx) - n) < 1e-11

    def test_eigenstate_gives_zero(self):
        n = 6
        basis = DickeBasis(n)
        css = coherent_spin_state_z(basis)
        jz = build_spin_operators(basis)[2]
        assert qfi(css, jz) < 1e-12

    def test_identity_shift_invariance(self, rng):
        state = random_pure_state(rng, 8)
        h = random_hermitian(rng, 8)
        shifted = HermitianOperator(h.matrix + 2.7 * np.eye(8), "H+c")
        assert abs(qfi(state, h) - qfi(state, shifted)) < 1e-10


class TestQfiMixed:
    def test_rank_one_density_matches_pure(self, rng):
        state = random_pure_state(rng, 7)
        h = random_hermitian(rng, 7)
        as_mixed = QuantumState.mixed(state.density_matrix(), "test")
        pure_val = qfi(state, h)
        assert abs(qfi(as_mixed, h) - pure_val) <= 1e-9 * max(pure_val, 1.0)

    def test_maximally_mixed_gives_zero(self, rng):
        dim = 6
        state = QuantumState.mixed(np.eye(dim) / dim, "test")
        assert qfi(state, random_hermitian(rng, dim)) < 1e-12

    def test_noisy_ghz_against_fidelity_oracle(self):
        n = 8
        basis, ghz = standard_ghz(n)
        jz = build_spin_operators(basis)[2]
        rho = 0.9 * ghz.density_matrix() + 0.1 * np.eye(n + 1) / (n + 1)
        state = QuantumState.mixed(rho, basis.tag)
        got = qfi(state, jz)
        assert 0.0 < got < n * n
        oracle = bures_qfi_oracle(state.density_matrix(), jz)
        assert abs(got - oracle) <= 1e-4 * oracle


class TestFMaxDensity:
    def test_css_is_shot_noise(self):
        n = 12
        basis = DickeBasis(n)
        fmax, _ = f_max_density(coherent_spin_state_z(basis), basis)
        assert abs(fmax - 1.0) < 1e-10

    def test_oat_ghz_reaches_n(self):
        n = 16
        basis = DickeBasis(n)
        ghz = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", np.pi / 2))
        fmax, _ = f_max_density(ghz, basis)
        assert abs(fmax - n) < 1e-8

    def test_mixed_rank_one_matches_pure(self):
        # two parallel columns: rho = psi psi^dagger, rank-deficient Gram matrix
        n = 8
        basis, ghz = standard_ghz(n)
        pure_val, _ = f_max_density(ghz, basis)
        mixed = QuantumState(basis.tag, np.outer(ghz.vector, [0.6, 0.8]))
        mixed_val, _ = f_max_density(mixed, basis)
        assert abs(mixed_val - pure_val) < 1e-8 * max(pure_val, 1.0)

    def test_rotation_invariance(self):
        n = 10
        basis = DickeBasis(n)
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", 0.9))
        jx, jy, jz = build_spin_operators(basis)
        axis = HermitianOperator(
            (0.3 * jx.matrix + 0.5 * jy.matrix - 0.8 * jz.matrix) / np.sqrt(0.98),
            "J_axis", degree=1,
        )
        rotated = HermitianPropagator(axis).apply(state, 0.77)
        f_original, direction = f_max_density(state, basis)
        f_rotated, _ = f_max_density(rotated, basis)
        assert abs(f_original - f_rotated) < 1e-9
        # the reported direction achieves the reported value
        gen = HermitianOperator(
            direction[0] * jx.matrix + direction[1] * jy.matrix + direction[2] * jz.matrix,
            "J_n", degree=1,
        )
        assert abs(qfi(state, gen) / n - f_original) < 1e-9


class TestFloorFisher:
    """f_max of a state with a spectral floor, rho = lambda0 I + S' S'^dagger,
    from the rows over the r' columns above the floor alone."""

    @pytest.mark.parametrize("weight", [0.01, 0.1, 0.9])
    @pytest.mark.parametrize("n", [16, 60, 200])
    @pytest.mark.parametrize("model", ["OAT", "TAT"])
    def test_white_noise_matches_the_spectral_formula(self, model, n, weight):
        basis, state = noisy_css(n, weight)
        state = evolve(state, EvolutionSpec(model, 0.3))
        assert spectral_floor(state.factor)[1].shape == (n + 1, 1)
        jmats = [op.matrix for op in build_spin_operators(basis)]
        want = np.linalg.eigvalsh(spectral_qfi_matrix(state.density_matrix(), jmats))[-1] / n
        got, _ = f_max_density(state, basis)
        assert abs(got - want) <= 1e-12 * want

    def test_several_columns_above_the_floor(self, rng):
        # r' = 3: the pairs above the floor add the spectral sum among them
        n = 40
        basis = DickeBasis(n)
        sigma = random_density(rng, n + 1, basis.tag, rank=3).density_matrix()
        rho = 0.8 * sigma + 0.2 * np.eye(n + 1) / (n + 1)
        state = evolve(QuantumState.mixed(rho, basis.tag), EvolutionSpec("TAT", 0.5))
        assert spectral_floor(state.factor)[1].shape == (n + 1, 3)
        jmats = [op.matrix for op in build_spin_operators(basis)]
        want = np.linalg.eigvalsh(spectral_qfi_matrix(state.density_matrix(), jmats))[-1] / n
        assert abs(f_max_density(state, basis)[0] - want) <= 1e-12 * want


class TestClassicalFisher:
    def test_css_squeeze_to_shot_noise(self):
        n = 16
        basis = DickeBasis(n)
        css = coherent_spin_state_z(basis)
        jx, jy, _ = build_spin_operators(basis)
        f = classical_fisher(css, jx, jy, theta=0.0)
        chi2_inv = 1.0 / chi2_error_propagation(css, jx, jy)
        f_q = qfi(css, jx)
        assert chi2_inv <= f * (1 + 1e-6)
        assert f <= f_q * (1 + 1e-6)
        assert abs(f - n) < 1e-12 * n

    def test_commuting_observable_carries_nothing(self):
        n = 8
        basis = DickeBasis(n)
        css = coherent_spin_state_z(basis)
        _, _, jz = build_spin_operators(basis)
        jz2 = HermitianOperator(jz.matrix @ jz.matrix, "Jz^2", degree=2)
        assert classical_fisher(css, jz, jz2, theta=0.3) < 1e-10

    def test_ghz_parity_fringe(self):
        n = 16
        basis, ghz = standard_ghz(n)
        jz = build_spin_operators(basis)[2]
        parity = parity_operator(basis)
        f = classical_fisher(ghz, jz, parity, theta=np.pi / (2 * n))
        assert abs(f - n * n) <= 1e-12 * n * n

    def test_mixed_state_path(self):
        n = 8
        basis, ghz = standard_ghz(n)
        jz = build_spin_operators(basis)[2]
        parity = parity_operator(basis)
        # a zero second column: a two-column factor whose rho is the GHZ state
        mixed = QuantumState(basis.tag, np.column_stack([ghz.vector, np.zeros(n + 1)]))
        f_pure = classical_fisher(ghz, jz, parity, theta=np.pi / (2 * n))
        f_mixed = classical_fisher(mixed, jz, parity, theta=np.pi / (2 * n))
        assert abs(f_pure - f_mixed) < 1e-8 * f_pure

    def test_exact_derivative_matches_density_oracle(self, rng):
        # F = sum_g tr(Pi_g d rho)^2 / tr(Pi_g rho), d rho = -i [H, rho(theta)],
        # for a complex generator and a degenerate observable on rank-3 factors
        n = 7
        basis = DickeBasis(n)
        _, jy, jz = build_spin_operators(basis)
        jz2 = HermitianOperator(jz.matrix @ jz.matrix, "Jz^2", degree=2)
        # Jz^2 is diagonal in the Dicke basis: one projector per value of m^2
        m2 = basis.m_values ** 2
        projectors = [np.diag((m2 == v).astype(float)) for v in np.unique(m2)]
        assert len(projectors) == (n + 1) // 2
        for theta in (0.0, 0.4, 2.1):
            state = random_factor(rng, n + 1, 3, basis.tag)
            rho = HermitianPropagator(jy).apply(state, theta).density_matrix()
            d_rho = -1j * (jy.matrix @ rho - rho @ jy.matrix)
            want = sum(np.trace(pi @ d_rho).real ** 2 / np.trace(pi @ rho).real
                       for pi in projectors)
            got = classical_fisher(state, jy, jz2, theta=theta)
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_powers_with_equal_eigenspaces_agree(self, n):
        # Jx^2 and Jx^4 share their eigenspaces (the +-m pairs), so they have
        # one counting statistics; the degenerate pairs of Jx^4 split by far
        # more than 1e-9 in rounding once its norm reaches (N/2)^4
        basis = DickeBasis(n)
        jx, jy, _ = build_spin_operators(basis)
        jx2 = HermitianOperator(jx.matrix @ jx.matrix, "Jx^2", degree=2)
        jx4 = HermitianOperator(jx2.matrix @ jx2.matrix, "Jx^4", degree=4)
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", 0.3))
        f2 = classical_fisher(state, jy, jx2, theta=0.2)
        f4 = classical_fisher(state, jy, jx4, theta=0.2)
        assert abs(f4 - f2) <= 1e-8 * f2


@pytest.mark.parametrize("n", [16, 400])
def test_classical_fisher_keeps_rare_outcomes(n):
    # a coherent state along z turned about x, counted in Jz: at small theta
    # the outcomes off |j, j> are rare, yet they carry all of F = N
    basis = DickeBasis(n)
    css = coherent_spin_state_z(basis)
    jx, _, jz = build_spin_operators(basis)
    f_q = qfi(css, jx)
    for theta in (1e-12, 1e-9, 1e-7, 1e-4, 0.1, 1.0):
        f = classical_fisher(css, jx, jz, theta)
        if theta >= 1e-9:
            assert abs(f - n) <= 1e-9 * n, theta
        check_chain(n, f, f_q)


@pytest.mark.parametrize("name", ["coherent", "OAT tau=0.3"])
@pytest.mark.parametrize("observable", ["Jz", "Jz^2"])
def test_rungs_do_not_depend_on_units(name, observable):
    # F and chi^2 are properties of a measurement's outcomes, so rescaling the
    # observable by a changes neither, and rescaling the generator by b scales
    # F_Q by b^2.  An absolute eigenvalue cluster width of 1e-9 merged every
    # outcome of 1e-10 Jz into one and gave F = 1e-33 there
    basis, states = _chain_states()
    state = states[name]
    jx, _, jz = build_spin_operators(basis)
    obs = {"Jz": jz.matrix, "Jz^2": jz.matrix @ jz.matrix}[observable]
    f_ref = classical_fisher(state, jx, HermitianOperator(obs, observable), 0.2)
    turned = HermitianPropagator(jx).apply(state, 0.2)
    chi2_ref = chi2_error_propagation(turned, jx, HermitianOperator(obs, observable))
    f_q = qfi(state, jx)
    assert f_ref > 1.0
    for a in (1e-14, 1e-10, 1e-9, 1.0, 1e6):
        scaled = HermitianOperator(a * obs, f"{a:g} {observable}")
        assert abs(classical_fisher(state, jx, scaled, 0.2) - f_ref) <= 1e-12 * f_ref, a
        assert abs(chi2_error_propagation(turned, jx, scaled) - chi2_ref) <= 1e-12 * chi2_ref, a
        b_jx = HermitianOperator(a * jx.matrix, f"{a:g} Jx")
        assert abs(qfi(state, b_jx) - a * a * f_q) <= 1e-12 * a * a * f_q, a


def _chain_states():
    basis = DickeBasis(16)
    css = coherent_spin_state_z(basis)
    dim = basis.dimension
    noisy = QuantumState.mixed(0.9 * css.density_matrix() + 0.1 * np.eye(dim) / dim, basis.tag)
    return basis, {"coherent": css, "OAT tau=0.3": evolve(css, EvolutionSpec("OAT", 0.3)),
                   "GHZ": standard_ghz(16)[1], "10% noise": noisy}


@pytest.mark.parametrize("name", ["coherent", "OAT tau=0.3", "GHZ", "10% noise"])
@pytest.mark.parametrize("observable", ["Jz", "Jz^2", "parity"])
def test_chain_holds_along_a_small_phase_walk(name, observable):
    # chi^-2 <= F <= F_Q at every phase of the walk, chi^-2 taken as 0 where
    # the observable carries no signal.  GHZ is a parity eigenstate at every
    # theta (the parity commutes with Jx); its rounding-level Var P and
    # <[P, Jx]> gave chi^-2 ~ 1e-3 against F ~ 1e-32 before the row floor of
    # `chi2_error_propagation`
    basis, states = _chain_states()
    state = states[name]
    jx, _, jz = build_spin_operators(basis)
    obs = {"Jz": jz, "Jz^2": HermitianOperator(jz.matrix @ jz.matrix, "Jz^2", degree=2),
           "parity": parity_operator(basis)}[observable]
    f_q = qfi(state, jx)
    propagator = HermitianPropagator(jx)
    for theta in (1e-12, 1e-9, 1e-7, 1e-4, 0.1, 1.0):
        try:
            chi2_inv = 1.0 / chi2_error_propagation(propagator.apply(state, theta), jx, obs)
        except ZeroSignalError:
            chi2_inv = 0.0
        check_chain(chi2_inv, classical_fisher(state, jx, obs, theta), f_q)


class TestShotNoise:
    def test_values(self):
        # F_SN is a fact of the system, so its basis carries it
        assert DickeBasis(16).shot_noise == 16.0
        assert DickeBasis(1).shot_noise == 1.0
        assert FockBasis(6).shot_noise == 2.0


class TestCheckChain:
    def test_chain_holds_on_benchmarks(self):
        n = 12
        basis = DickeBasis(n)
        jx, jy, jz = build_spin_operators(basis)
        parity = parity_operator(basis)
        cases = [
            (coherent_spin_state_z(basis), jx, jy, 0.0),
            (evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", 0.25)), jx, jy, 0.0),
            (standard_ghz(n)[1], jz, parity, np.pi / (2 * n)),
        ]
        for state, gen, obs, theta in cases:
            probe = HermitianPropagator(gen).apply(state, theta)
            check_chain(1.0 / chi2_error_propagation(probe, gen, obs),
                        classical_fisher(state, gen, obs, theta=theta), qfi(probe, gen))

    def test_violation_detected(self):
        with pytest.raises(ValueError, match="chain"):
            check_chain(3.0, 2.0, 4.0)
        with pytest.raises(ValueError, match="chain"):
            check_chain(1.0, 5.0, 4.0)

    @pytest.mark.parametrize("rungs", [(np.nan, 1.0, 2.0), (1.0, np.nan, 2.0), (1.0, 1.5, np.nan),
                                       (np.inf, np.inf, np.inf)],
                             ids=["nan chi2_inv", "nan classical", "nan qfi", "all infinite"])
    def test_non_finite_rung_fails(self, rungs):
        # the message names every rung: a NaN QFI fails the first test through
        # its slack term, which must not read as "chi2_inv 1.0 > F 1.5"
        with pytest.raises(ValueError, match="chain violated") as info:
            check_chain(*rungs)
        a, f, q = rungs
        assert f"chi2_inv {a}, classical Fisher {f}, QFI {q}" in str(info.value)

    def test_zero_chain_holds(self):
        # a state with no signal anywhere: every rung 0, all equalities
        check_chain(0.0, 0.0, 0.0)

    def test_chain_with_optimized_nonlinear_measurements(self):
        # the analytically optimal (generator, measurement) pair from the
        # moment machinery must slot into chi^-2 <= F <= F_Q
        from nlsqueeze import build_spin_family, spin_squeezing_profile

        n = 10
        basis = DickeBasis(n)
        family = build_spin_family(basis, 3)
        for tau in (0.15, 0.6, 1.1):
            state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", tau))
            res = spin_squeezing_profile(state, basis, 3, family=family)[-1]
            gen = combine(tuple(family), list(res.n_coeffs) + [0.0] * (len(family) - 3))
            obs = combine(tuple(family), res.m_coeffs)
            check_chain(res.chi2_inv, classical_fisher(state, gen, obs, theta=0.0), qfi(state, gen))


class TestSpinAxes:
    def test_cached_per_basis(self):
        # the family lives with one basis object: an equal basis builds its own
        basis, twin = DickeBasis(9), DickeBasis(9)
        assert basis.spin_axes is basis.spin_axes
        assert twin == basis and twin.spin_axes is not basis.spin_axes
        assert basis.spin_axes.labels == ("Jx", "Jy", "Jz")
        for op, member in zip(build_spin_operators(basis), basis.spin_axes, strict=True):
            assert op.label == member.label and op.matrix.tobytes() == member.matrix.tobytes()

    def test_axes_are_the_raw_spin_bands(self):
        # the order-1 symmetrized family stores the bands of Jx, Jy, Jz
        # themselves, byte for byte
        for n in [*range(1, 40), 60, 100, 400, 1023]:
            basis = DickeBasis(n)
            raw = OperatorFamily(_spin_bands(basis), list(_AXES), (1, 1, 1), basis.tag)
            assert basis.spin_axes.bands.tobytes() == raw.bands.tobytes(), n

    def test_f_max_matches_fresh_family(self):
        basis = DickeBasis(12)
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", 0.3))
        cov3 = covariance_matrix(state, build_spin_family(basis, 1))
        want = 4.0 * np.linalg.eigvalsh(cov3)[-1] / basis.n_particles
        got, _ = f_max_density(state, basis)
        assert abs(got - want) <= 1e-13 * want

    def test_mixed_branch_on_rank_one_factor(self):
        # a zero second column keeps rho pure but makes the Gram matrix singular
        n = 8
        basis, ghz = standard_ghz(n)
        padded = QuantumState(basis.tag, np.column_stack([ghz.vector, np.zeros(n + 1)]))
        assert not padded.is_pure
        pure_val, _ = f_max_density(ghz, basis)
        mixed_val, _ = f_max_density(padded, basis)
        assert abs(mixed_val - pure_val) < 1e-8 * max(pure_val, 1.0)


class TestQfiKernel:
    """The centered-row kernel against formulas on the density matrix rho."""

    @staticmethod
    def check(state, basis, h):
        rho = state.density_matrix()
        want = spectral_qfi_matrix(rho, [h.matrix])[0, 0]
        assert abs(qfi(state, h) - want) <= 1e-12 * want
        jmats = [op.matrix for op in build_spin_operators(basis)]
        want_f = np.linalg.eigvalsh(spectral_qfi_matrix(rho, jmats))[-1] / basis.n_particles
        got_f, _ = f_max_density(state, basis)
        assert abs(got_f - want_f) <= 1e-12 * want_f

    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_random_non_orthogonal_factors(self, rng, rank):
        basis = DickeBasis(6)
        for _ in range(5):
            self.check(random_factor(rng, 7, rank, basis.tag), basis, random_hermitian(rng, 7))

    def test_factor_spanning_several_blocks(self, rng):
        # P = S^dagger R of 3 rows over a full-rank factor of 101 columns has
        # 30,603 entries, so f_max forms it in two blocks of the factor's columns
        basis = DickeBasis(100)
        self.check(random_density(rng, 101, basis.tag), basis, random_hermitian(rng, 101))

    def test_factor_with_zero_column(self, rng):
        basis = DickeBasis(6)
        s = random_factor(rng, 7, 3).factor.copy()
        s[:, 1] = 0.0
        state = QuantumState(basis.tag, s / np.linalg.norm(s))
        self.check(state, basis, random_hermitian(rng, 7))

    def test_factor_with_a_tiny_weight_column(self, rng):
        # rho = (1 - 3e-13) |v0><v0| + 1e-13 |v1><v1| + 2e-13 |v2><v2| with v0
        # an eigenvector of A: v0 contributes nothing, so F_Q comes from the
        # tiny weights alone.  The pairs among the small columns (l_i + l_j
        # below 1e-12) carry all of it against the exact spectral sum over
        # every pair with l_i + l_j > 0, from the known l and eigenbasis V.
        dim = 7
        v = random_unitary(rng, dim)
        inner = random_hermitian(rng, dim).matrix.copy()
        inner[0, 1:] = inner[1:, 0] = 0.0
        a = HermitianOperator(v @ inner @ v.conj().T, "A")
        lam = np.zeros(dim)
        lam[:3] = [1.0 - 3e-13, 1e-13, 2e-13]
        state = QuantumState(DickeBasis(6).tag, v[:, :3] * np.sqrt(lam[:3]))
        sums = lam[:, None] + lam[None, :]
        weights = np.divide((lam[:, None] - lam[None, :]) ** 2, sums, out=np.zeros_like(sums),
                            where=sums > 0.0)
        inner = v.conj().T @ a.matrix @ v
        want = 2.0 * np.sum(weights * np.abs(inner) ** 2)
        assert 1e-13 < want < 1e-11
        assert abs(qfi(state, a) - want) <= 1e-9 * want

    def test_evolved_noisy_tat_state(self):
        basis, state = noisy_css()
        state = evolve(state, EvolutionSpec("TAT", 1.0))
        assert state.factor.shape == (61, 61)
        self.check(state, basis, build_spin_operators(basis)[0])

    def test_error_propagation_matches_trace_formula(self, rng):
        state = random_factor(rng, 7, 3)
        rho = state.density_matrix()
        x = random_hermitian(rng, 7).matrix
        h = random_hermitian(rng, 7).matrix
        centered = x - np.trace(rho @ x).real * np.eye(7)
        want = np.trace(rho @ centered @ centered).real / abs(np.trace(rho @ (x @ h - h @ x))) ** 2
        got = chi2_error_propagation(state, HermitianOperator(h, "H"), HermitianOperator(x, "X"))
        assert abs(got - want) <= 1e-12 * want


def gram_off_diagonal(state):
    """Largest off-diagonal entry of S^dagger S relative to its largest eigenvalue."""
    gram = state.factor.conj().T @ state.factor
    return np.abs(gram - np.diag(np.diag(gram))).max(initial=0.0) / np.diag(gram).real.max()


def random_unitary(rng, r):
    q, upper = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    return q * (np.diag(upper) / np.abs(np.diag(upper)))


class TestEigenframe:
    """Every state's factor has orthogonal columns, and the QFI reads rho's
    eigenvalues from their norms."""

    TAUS = [*np.linspace(0.0, np.pi, 41), 1e3, 1e6]

    def test_constructed_factors(self, rng):
        basis = DickeBasis(6)
        raw = random_factor(rng, 7, 3, basis.tag)
        padded = QuantumState(basis.tag, np.column_stack([raw.factor[:, 0], np.zeros(7)])
                              / np.linalg.norm(raw.factor[:, 0]))
        states = [random_pure_state(rng, 7, basis.tag), random_density(rng, 7, basis.tag, rank=3),
                  raw, padded]
        for state in states:
            assert gram_off_diagonal(state) <= 1e-15
            TestQfiKernel.check(state, basis, random_hermitian(rng, 7))

    @pytest.mark.parametrize("model", ["OAT", "TAT"])
    def test_evolution_keeps_the_eigenframe(self, model):
        basis, state = noisy_css()
        assert gram_off_diagonal(state) <= 1e-15
        jx = build_spin_operators(basis)[0]
        for tau in self.TAUS:
            out = evolve(state, EvolutionSpec(model, tau))
            assert gram_off_diagonal(out) <= 1e-15
            TestQfiKernel.check(out, basis, jx)

    def test_sweep_point_diagonalizes_only_the_fisher_matrix(self, monkeypatch):
        basis, state = noisy_css()
        spec = EvolutionSpec("TAT", 0.7)
        f_max_density(evolve(state, spec), basis)  # warm-up: propagator and spin axes cached
        eigh, shapes = np.linalg.eigh, []

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        f_max_density(evolve(state, spec), basis)
        assert shapes == [(3, 3)]  # the principal eigenpair of the 3 x 3 Fisher matrix

    @staticmethod
    def _quantities(state, basis, family, h):
        direction = np.ones(3) / np.sqrt(3.0)
        return [covariance_matrix(state, family), moment_data(state, family).c,
                qfi(state, h), f_max_density(state, basis)[0],
                chi2_inverse_opt(state, family, direction).chi2_inv]

    @pytest.mark.parametrize("rank", [3, 5, 61])
    def test_frame_change_of_the_factor_changes_nothing(self, rng, rank):
        if rank == 61:  # the noisy coherent state after twist-and-turn
            basis, state = noisy_css()
            state = evolve(state, EvolutionSpec("TAT", 0.7))
        else:
            basis = DickeBasis(6)
            state = random_factor(rng, 7, rank, basis.tag)
        family = build_spin_family(basis, 3)
        h = random_hermitian(rng, basis.dimension)
        turned = QuantumState(state.basis_tag, state.factor @ random_unitary(rng, rank))
        for want, got in zip(self._quantities(state, basis, family, h),
                             self._quantities(turned, basis, family, h)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("make, exc, fragment", [
    (lambda: f_max_density(coherent_spin_state_z(DickeBasis(4)), DickeBasis(5)), BasisMismatchError,
     "does not live in the given Dicke basis"),
], ids=["other basis"])
def test_refusals(make, exc, fragment):
    with pytest.raises(exc, match=fragment):
        make()
