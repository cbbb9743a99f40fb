import numpy as np
import pytest

from nlsqueeze import (
    DickeBasis,
    FisherReport,
    FockBasis,
    HermitianOperator,
    HermitianPropagator,
    QuadratureDirection,
    QuantumState,
    build_spin_family,
    build_spin_operators,
    chi2_error_propagation,
    classical_fisher,
    coherent_spin_state_z,
    covariance_matrix,
    evolve,
    f_max_density,
    fock_state,
    parity_operator,
    qfi_mixed,
    qfi_pure,
    quadrature_generator,
    shot_noise_limit,
)
from nlsqueeze.dynamics import EvolutionSpec
from nlsqueeze.fisher import _spin_axes

from conftest import random_density, random_hermitian, random_pure_state


def standard_ghz(n):
    basis = DickeBasis(n)
    vec = np.zeros(n + 1, dtype=complex)
    vec[0] = vec[-1] = 1 / np.sqrt(2)
    return basis, QuantumState.pure(vec, basis.tag)


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
        assert abs(qfi_pure(state, q) - 14.0) < 1e-10

    def test_css_value(self):
        n = 10
        basis = DickeBasis(n)
        css = coherent_spin_state_z(basis)
        jx = build_spin_operators(basis)[0]
        assert abs(qfi_pure(css, jx) - n) < 1e-11

    def test_eigenstate_gives_zero(self):
        n = 6
        basis = DickeBasis(n)
        css = coherent_spin_state_z(basis)
        jz = build_spin_operators(basis)[2]
        assert qfi_pure(css, jz) < 1e-12

    def test_identity_shift_invariance(self, rng):
        state = random_pure_state(rng, 8)
        h = random_hermitian(rng, 8)
        shifted = HermitianOperator(h.matrix + 2.7 * np.eye(8), "H+c")
        assert abs(qfi_pure(state, h) - qfi_pure(state, shifted)) < 1e-10

    def test_rejects_mixed(self, rng):
        state = random_density(rng, 5)
        with pytest.raises(ValueError, match="pure"):
            qfi_pure(state, random_hermitian(rng, 5))


class TestQfiMixed:
    def test_rank_one_density_matches_pure(self, rng):
        state = random_pure_state(rng, 7)
        h = random_hermitian(rng, 7)
        as_mixed = QuantumState.mixed(state.density_matrix(), "test")
        pure_val = qfi_pure(state, h)
        assert abs(qfi_mixed(as_mixed, h) - pure_val) <= 1e-9 * max(pure_val, 1.0)

    def test_maximally_mixed_gives_zero(self, rng):
        dim = 6
        state = QuantumState.mixed(np.eye(dim) / dim, "test")
        assert qfi_mixed(state, random_hermitian(rng, dim)) < 1e-12

    def test_noisy_ghz_against_fidelity_oracle(self):
        n = 8
        basis, ghz = standard_ghz(n)
        jz = build_spin_operators(basis)[2]
        rho = 0.9 * ghz.density_matrix() + 0.1 * np.eye(n + 1) / (n + 1)
        state = QuantumState.mixed(rho, basis.tag)
        got = qfi_mixed(state, jz)
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
        n = 8
        basis, ghz = standard_ghz(n)
        pure_val, _ = f_max_density(ghz, basis)
        mixed = QuantumState.mixed(ghz.density_matrix(), basis.tag)
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
        assert abs(qfi_pure(state, gen) / n - f_original) < 1e-9


class TestClassicalFisher:
    def test_css_squeeze_to_shot_noise(self):
        n = 16
        basis = DickeBasis(n)
        css = coherent_spin_state_z(basis)
        jx, jy, _ = build_spin_operators(basis)
        f = classical_fisher(css, jx, jy, theta=0.0)
        chi2_inv = 1.0 / chi2_error_propagation(css, jx, jy)
        qfi = qfi_pure(css, jx)
        assert chi2_inv <= f * (1 + 1e-6)
        assert f <= qfi * (1 + 1e-6)
        assert abs(f - n) < 1e-5 * n

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
        assert abs(f - n * n) <= 1e-6 * n * n

    def test_large_step_warns(self):
        n = 8
        basis, ghz = standard_ghz(n)
        jz = build_spin_operators(basis)[2]
        parity = parity_operator(basis)
        with pytest.warns(UserWarning, match="step"):
            classical_fisher(ghz, jz, parity, theta=np.pi / (2 * n), dtheta=0.3)

    def test_mixed_state_path(self):
        n = 8
        basis, ghz = standard_ghz(n)
        jz = build_spin_operators(basis)[2]
        parity = parity_operator(basis)
        mixed = QuantumState.mixed(ghz.density_matrix(), basis.tag)
        f_pure = classical_fisher(ghz, jz, parity, theta=np.pi / (2 * n))
        f_mixed = classical_fisher(mixed, jz, parity, theta=np.pi / (2 * n))
        assert abs(f_pure - f_mixed) < 1e-8 * f_pure


class TestShotNoise:
    def test_values(self):
        assert shot_noise_limit("spin", 16) == 16.0
        assert shot_noise_limit("spin", 1) == 1.0
        assert shot_noise_limit("cv") == 2.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            shot_noise_limit("spin")
        with pytest.raises(ValueError):
            shot_noise_limit("optical")


class TestFisherReport:
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
            report = FisherReport(
                chi2_inv=1.0 / chi2_error_propagation(probe, gen, obs),
                classical_fisher=classical_fisher(state, gen, obs, theta=theta),
                qfi=qfi_pure(probe, gen),
            )
            report.validate_chain(slack=1e-6)

    def test_violation_detected(self):
        with pytest.raises(ValueError, match="chain"):
            FisherReport(chi2_inv=3.0, classical_fisher=2.0, qfi=4.0).validate_chain()
        with pytest.raises(ValueError, match="chain"):
            FisherReport(chi2_inv=1.0, classical_fisher=5.0, qfi=4.0).validate_chain()

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
            gen = family.combine(list(res.n_coeffs) + [0.0] * (len(family) - 3))
            obs = family.combine(res.m_coeffs)
            report = FisherReport(
                chi2_inv=res.chi2_inv,
                classical_fisher=classical_fisher(state, gen, obs, theta=0.0),
                qfi=qfi_pure(state, gen),
            )
            report.validate_chain(slack=1e-6)


class TestSpinAxes:
    def test_cached_per_basis(self):
        basis = DickeBasis(9)
        assert _spin_axes(basis) is _spin_axes(DickeBasis(9))
        assert _spin_axes(basis).labels == ["Jx", "Jy", "Jz"]

    def test_f_max_matches_fresh_family(self):
        basis = DickeBasis(12)
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", 0.3))
        cov3 = covariance_matrix(state, build_spin_family(basis, 1))
        want = 4.0 * np.linalg.eigvalsh(cov3)[-1] / basis.n_particles
        got, _ = f_max_density(state, basis)
        assert abs(got - want) <= 1e-13 * want

    def test_mixed_branch_on_rank_one_factor(self):
        # a zero second column keeps rho pure but sends it down the mixed branch
        n = 8
        basis, ghz = standard_ghz(n)
        padded = QuantumState(basis.tag, np.column_stack([ghz.vector, np.zeros(n + 1)]))
        assert not padded.is_pure
        pure_val, _ = f_max_density(ghz, basis)
        mixed_val, _ = f_max_density(padded, basis)
        assert abs(mixed_val - pure_val) < 1e-8 * max(pure_val, 1.0)
