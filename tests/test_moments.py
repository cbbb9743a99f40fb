import math
import tracemalloc

import numpy as np
import pytest

from nlsqueeze import (
    CalibrationError,
    DickeBasis,
    FockBasis,
    MomentData,
    OperatorFamily,
    QuantumState,
    ZeroSignalError,
    build_cv_second_order_family,
    build_cv_third_order_family,
    build_spin_family,
    build_spin_operators,
    chi2_error_propagation,
    chi2_inverse_opt,
    coherent_spin_state_z,
    combine,
    covariance_matrix,
    entanglement_bound,
    evolve,
    fock_state,
    moment_data,
    moment_matrix,
    optimal_measurement,
    optimize_generator,
    simulate_moment_estimator,
    spin_squeezing_profile,
)
from nlsqueeze.dynamics import EvolutionSpec
from nlsqueeze.fisher import f_max_density
from nlsqueeze.moments import SLICE_ENTRIES, _center, _centered_rows, _signal, principal_eigenpair
from nlsqueeze.spin import spin_family_size

from conftest import angle_between, random_density, random_family, random_pure_state


def css_and_linear_family(n):
    basis = DickeBasis(n)
    return basis, coherent_spin_state_z(basis), build_spin_family(basis, 1)


class TestCovarianceAndCommutator:
    def test_css_covariance(self):
        n = 16
        _, css, fam = css_and_linear_family(n)
        gamma = covariance_matrix(css, fam)
        assert np.abs(gamma - np.diag([n / 4, n / 4, 0.0])).max() < 1e-12

    def test_css_commutator(self):
        n = 16
        _, css, fam = css_and_linear_family(n)
        c = moment_data(css, fam).c
        want = np.zeros((3, 3))
        want[0, 1], want[1, 0] = n / 2, -n / 2
        assert np.abs(c - want).max() < 1e-12

    def test_vacuum_quadrature_matrices(self):
        basis = FockBasis(8)
        second = build_cv_second_order_family(basis)
        fam = OperatorFamily.from_operators([second[0], second[1]], basis.tag)
        vac = fock_state(basis, 0)
        gamma = covariance_matrix(vac, fam)
        c = moment_data(vac, fam).c
        assert np.abs(gamma - np.eye(2) / 2).max() < 1e-14
        assert abs(c[0, 1] - 1.0) < 1e-14

    def test_eigenstate_has_zero_variance_row(self):
        n = 6
        _, css, fam = css_and_linear_family(n)
        gamma = covariance_matrix(css, fam)
        assert abs(gamma[2, 2]) < 1e-13  # CSS_z is a Jz eigenstate

    def test_commutator_diagonal_vanishes(self, rng):
        state = random_pure_state(rng, 7)
        fam = random_family(rng, 7, 4)
        c = moment_data(state, fam).c
        assert np.abs(np.diag(c)).max() < 1e-12

    def test_mixed_state_matrices_match_pure(self, rng):
        state = random_pure_state(rng, 6)
        fam = random_family(rng, 6, 3)
        # the density comes back as one column; a zero second column keeps
        # rho pure but takes the multi-column path
        padded = QuantumState("test", np.column_stack([state.vector, np.zeros(6)]))
        for as_mixed in (QuantumState.mixed(state.density_matrix(), "test"), padded):
            assert np.abs(
                covariance_matrix(state, fam) - covariance_matrix(as_mixed, fam)
            ).max() < 1e-10
            assert np.abs(
                moment_data(state, fam).c - moment_data(as_mixed, fam).c
            ).max() < 1e-10

    def test_residue_properties_on_benchmarks(self):
        # symmetry/skewness residues stay at rounding level on states of interest
        n = 12
        basis = DickeBasis(n)
        fam = build_spin_family(basis, 3)
        for tau in (0.0, 0.3, np.pi / 2):
            state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", tau))
            gamma = covariance_matrix(state, fam)
            c = moment_data(state, fam).c
            assert np.abs(gamma - gamma.T).max() < 1e-10
            assert np.abs(c + c.T).max() < 1e-10


def _dense_centered_rows(state, family):
    """Reference rows from the stacked dense members, centered like the library."""
    s = state.factor
    raw = (np.stack([op.matrix for op in family]) @ s).reshape(len(family), -1)
    mu = raw @ s.ravel().conj()
    return raw - mu.real[:, None] * s.ravel()[None, :], np.abs(raw).max(axis=1)


class TestBandedRows:
    def _cases(self, rng):
        spin_basis = DickeBasis(16)
        oat = evolve(coherent_spin_state_z(spin_basis), EvolutionSpec("OAT", 0.4))
        fock = FockBasis(20)
        dense = random_family(rng, 9, 4)
        return [
            (oat, build_spin_family(spin_basis, 5)),
            (random_density(rng, 17, spin_basis.tag, rank=3), build_spin_family(spin_basis, 5)),
            (fock_state(fock, 6), build_cv_third_order_family(fock)),
            (random_density(rng, 20, fock.tag, rank=3), build_cv_third_order_family(fock)),
            (random_pure_state(rng, 9), dense),
            (random_density(rng, 9, rank=3), dense),
        ]

    def test_rows_match_dense_products(self, rng):
        cases = self._cases(rng)
        assert [state.factor.shape[1] for state, _ in cases] == [1, 3] * 3
        for state, fam in cases:
            got, _ = _centered_rows(state.factor, fam)
            want, scale = _dense_centered_rows(state, fam)
            assert got.shape == want.shape
            assert (np.abs(got - want).max(axis=1) <= 1e-13 * scale).all()


def _noisy_tat_point(n, weight=0.1, tau=0.7):
    """The coherent state with white-noise weight `weight`, TAT-evolved to tau."""
    basis = DickeBasis(n)
    dim = basis.dimension
    rho = (1.0 - weight) * coherent_spin_state_z(basis).density_matrix() + weight * np.eye(dim) / dim
    return basis, evolve(QuantumState.mixed(rho, basis.tag), EvolutionSpec("TAT", tau))


class TestSlicedKernel:
    """`_center` walks the row table in column slices of SLICE_ENTRIES entries
    in all; it must agree with the broadcast centering and the one-shot Gram
    product R* R^T."""

    def _cases(self, rng):
        """(state, family, slices, remainder) for each kind of table."""
        spin16, spin20, spin64 = DickeBasis(16), DickeBasis(20), DickeBasis(64)
        fock = FockBasis(91)
        cv3 = build_cv_third_order_family(fock)
        dense128, dense100 = random_family(rng, 128, 4), random_family(rng, 100, 4)
        tat_basis, tat_state = _noisy_tat_point(60)
        return [
            # one slice
            (random_density(rng, 17, spin16.tag, rank=3), build_spin_family(spin16, 5), 1, 51),
            (fock_state(fock, 6), cv3, 1, 91),
            (random_pure_state(rng, 128), dense128, 1, 128),
            # exactly several slices
            (random_density(rng, 65, spin64.tag, rank=56), build_spin_family(spin64, 2), 2, 0),
            (random_density(rng, 91, fock.tag, rank=60), cv3, 2, 0),
            (random_density(rng, 128, rank=64), dense128, 2, 0),
            # several slices and a remainder
            (random_density(rng, 21, spin20.tag, rank=21), build_spin_family(spin20, 5), 2, 144),
            (tat_state, build_spin_family(tat_basis, 3), 5, 273),
            (random_density(rng, 91, fock.tag, rank=61), cv3, 3, 91),
            (random_density(rng, 100, rank=50), dense100, 2, 904),
        ]

    def test_slices_match_one_shot_reference(self, rng):
        for state, family, slices, remainder in self._cases(rng):
            s = state.factor
            raw = np.stack([op.matrix for op in family]) @ s
            mu = raw.reshape(len(raw), -1) @ s.ravel().conj()
            want = (raw - mu.real[:, None, None] * s).reshape(len(raw), -1)
            want_gram = want.conj() @ want.T
            rows, gram = _center(raw.copy(), s)
            step = SLICE_ENTRIES // len(family)
            assert (math.ceil(rows.shape[1] / step), rows.shape[1] % step) == (slices, remainder)
            # centering is elementwise, so slicing it changes no bit
            assert np.array_equal(rows, want)
            if slices == 1:
                assert np.array_equal(gram, want_gram)
            else:
                norms = np.linalg.norm(want, axis=1)
                assert (np.abs(gram - want_gram) <= 1e-13 * np.outer(norms, norms)).all()

    def test_kernel_makes_no_copy_of_the_row_table(self):
        # at N=60, K=3 the mixed TAT point's row table is 19 x 61 x 61 complex
        # (1.13 MB); the band product's gathered operand (0.42 MB), or the
        # temporaries of one column slice (about 0.5 MB), come on top of it;
        # one full-size copy (a broadcast centering, a conjugate table) would
        # take the peak to 2.2x
        basis, state = _noisy_tat_point(60)
        family = build_spin_family(basis, 3)
        table = len(family) * state.factor.size * 16
        spin_squeezing_profile(state, basis, 3, family=family)
        f_max_density(state, basis)  # fills the basis's cache of Jx, Jy, Jz
        tracemalloc.start()
        try:
            spin_squeezing_profile(state, basis, 3, family=family)
            profile_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            f_max_density(state, basis)
            f_max_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile_peak <= 1.6 * table
        # 3 rows take 0.18 MB and peak at 0.66 MB with their products
        # P = S^dagger R; a conjugate copy of the rows, or numpy's buffer for
        # the complex-times-real product of P and its weights, add 0.18 MB each
        assert f_max_peak <= 0.72e6


class TestMomentMatrix:
    def test_css_moment_matrix(self):
        n = 16
        _, css, fam = css_and_linear_family(n)
        md = moment_data(css, fam)
        assert np.abs(md.m_matrix - np.diag([n, n, 0.0])).max() < 1e-10
        assert md.retained_count == 2
        assert md.kernel_leakage < 1e-12

    def test_identity_gamma_gives_ctc(self, rng):
        a = rng.normal(size=(5, 5))
        c = a - a.T
        md = moment_matrix(np.eye(5), c)
        assert np.abs(md.m_matrix - c.T @ c).max() < 1e-12

    @pytest.mark.parametrize("case", ["pure", "mixed", "OAT", "TAT"])
    def test_retained_factor_whitens_the_covariance(self, case, rng):
        # W^T Gamma_eq W = I_r for the stored factor W = V lambda^(-1/2); the
        # spin points are well conditioned, since elsewhere the identity holds
        # only to about eps lambda_max / lambda_min (ROADMAP item 1)
        if case in ("pure", "mixed"):
            make = random_pure_state if case == "pure" else random_density
            mds = [moment_data(make(rng, dim), random_family(rng, dim, size))
                   for dim, size in ((5, 4), (9, 6), (12, 8))]
        else:
            basis = DickeBasis(16 if case == "OAT" else 10)
            mds = [res.moments for tau in (0.2, 0.4, 1.0) for res in spin_squeezing_profile(
                evolve(coherent_spin_state_z(basis), EvolutionSpec(case, tau)), basis,
                3 if case == "OAT" else 2)]
        for md in mds:
            w, scales = md.retained, md.scales
            gamma_eq = md.gamma * scales[:, None] * scales[None, :]
            assert np.abs(w.T @ gamma_eq @ w - np.eye(md.retained_count)).max() <= 1e-10
            assert np.array_equal(md.m_matrix, md.m_matrix.T)

    def test_full_rank_matches_the_inverse(self, rng):
        # full rank: M = C^T Gamma^-1 C and m ~ Gamma^-1 C n, from the factor
        for make in (random_pure_state, random_density):
            md = moment_data(make(rng, 9), random_family(rng, 9, 6))
            assert md.retained_count == 6
            want = md.c.T @ np.linalg.solve(md.gamma, md.c)
            assert np.abs(md.m_matrix - want).max() <= 1e-9 * np.abs(want).max()
            n_vec = rng.normal(size=6)
            m_want = np.linalg.solve(md.gamma, md.c @ n_vec)
            m_want /= np.linalg.norm(m_want)
            assert np.abs(optimal_measurement(md, n_vec) - m_want).max() <= 1e-9

    def test_members_without_variance_have_zero_rows(self):
        # on |j, j> Jz and Jz^2 have no spread: their rows and columns of M
        # are exact zeros, and the others are not
        basis = DickeBasis(8)
        fam = build_spin_family(basis, 2)
        md = moment_data(coherent_spin_state_z(basis), fam)
        dark = [fam.labels.index("Jz"), fam.labels.index("Jz^2")]
        assert np.array_equal(md.scales[dark], [1.0, 1.0])
        assert not md.m_matrix[dark].any() and not md.m_matrix[:, dark].any()
        assert np.delete(np.delete(md.m_matrix, dark, 0), dark, 1).any(axis=0).all()

    def test_fock_third_order_block_is_isotropic(self):
        n = 3
        basis = FockBasis(n + 8)
        fam = build_cv_third_order_family(basis)
        md = moment_data(fock_state(basis, n), fam)
        block = md.m_matrix[:2, :2]
        assert np.abs(block - (4 * n + 2) * np.eye(2)).max() < 1e-9

    def test_robertson_flag_on_corrupted_input(self):
        gamma = np.diag([1.0, 0.0])
        c = np.array([[0.0, 1.0], [-1.0, 0.0]])
        md = moment_matrix(gamma, c)
        assert md.robertson_violated
        assert md.kernel_leakage > 0.1

    def test_zero_covariance_keeps_nothing(self):
        # Jz has no spread on |j, j>: every direction is dropped, and there is
        # no signal, so no measurement
        basis, css, _ = css_and_linear_family(8)
        fam = OperatorFamily.from_operators([build_spin_operators(basis)[2]], basis.tag)
        md = moment_data(css, fam)
        assert md.retained_count == 0
        assert np.array_equal(md.m_matrix, np.zeros((1, 1)))
        assert md.kernel_leakage == 0.0
        result = chi2_inverse_opt(css, fam, [1.0])
        assert result.chi2_inv == 0.0
        assert result.m_coeffs is None

    def test_rejects_asymmetric_gamma(self):
        with pytest.raises(ValueError, match="symmetric"):
            moment_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 2)))
        # the tolerance is relative to the entries, with no unit floor
        with pytest.raises(ValueError, match="symmetric"):
            moment_matrix(1e-11 * np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2)))

    @pytest.mark.parametrize("which", ["gamma", "c"])
    def test_rejects_nan(self, which):
        # unchecked, a NaN in gamma gives M = 0 and one in c gives
        # M = NaN, both with leakage 0, so no integrity flag would fire
        # an infinite entry off the diagonal leaves an infinite residue, which
        # passed a tolerance taken from the (infinite) largest entry
        for bad in (np.nan, np.inf):
            gamma, c = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])
            {"gamma": gamma, "c": c}[which][0, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                moment_matrix(gamma, c)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError, match="negative"):
            moment_matrix(np.diag([1.0, -0.5]), np.zeros((2, 2)))

    def test_robertson_containment_on_benchmarks(self):
        # kernel directions of the covariance carry no commutator signal
        basis = DickeBasis(10)
        fam = build_spin_family(basis, 4)
        for model in ("OAT", "TAT"):
            for tau in (0.0, 0.4, np.pi / 2, np.pi):
                state = evolve(coherent_spin_state_z(basis), EvolutionSpec(model, tau))
                md = moment_data(state, fam)
                assert md.kernel_leakage <= 1e-8
                assert np.array_equal(md.m_matrix, md.m_matrix.T)


class TestOptimalMeasurement:
    def test_css_measurement_direction(self):
        n = 8
        _, css, fam = css_and_linear_family(n)
        md = moment_data(css, fam)
        m = optimal_measurement(md, [1.0, 0.0, 0.0])
        assert angle_between(m, [0.0, 1.0, 0.0]) < 1e-10

    def test_vacuum_measurement_direction(self):
        basis = FockBasis(6)
        second = build_cv_second_order_family(basis)
        fam = OperatorFamily.from_operators([second[0], second[1]], basis.tag)
        md = moment_data(fock_state(basis, 0), fam)
        m = optimal_measurement(md, [1.0, 0.0])
        assert angle_between(m, [0.0, 1.0]) < 1e-12

    def test_zero_signal_raises(self):
        n = 8
        _, css, fam = css_and_linear_family(n)
        md = moment_data(css, fam)
        with pytest.raises(ZeroSignalError):
            optimal_measurement(md, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        _, css, fam = css_and_linear_family(8)
        with pytest.raises(ValueError, match="finite"):
            optimal_measurement(moment_data(css, fam), [bad, 0.0, 0.0])

    def test_fock_measurement_matches_closed_form(self):
        n = 4
        basis = FockBasis(n + 8)
        fam = build_cv_third_order_family(basis)
        md = moment_data(fock_state(basis, n), fam)
        c_n = 1.0 / math.sqrt(3 + 4 * n * (n + 1))
        for phi in (0.0, 0.8, 2.2):
            n1, n2 = math.sin(phi), -math.cos(phi)
            m = optimal_measurement(md, [n1, n2])
            want = c_n * np.array(
                [-(2 * n + 1) * n2, (2 * n + 1) * n1, n2, -n1, n2, -n1]
            )
            assert angle_between(m, want) < 1e-10

    def test_saturation_on_random_states(self, rng):
        # the analytic measurement reproduces n^T M n through error propagation
        for _ in range(25):
            dim = int(rng.integers(3, 13))
            state = random_pure_state(rng, dim)
            fam = random_family(rng, dim, 4)
            md = moment_data(state, fam)
            n_vec = rng.normal(size=4)
            n_vec /= np.linalg.norm(n_vec)
            target = n_vec @ md.m_matrix @ n_vec
            m = optimal_measurement(md, n_vec)
            chi2 = chi2_error_propagation(state, combine(tuple(fam), n_vec),
                                          combine(tuple(fam), m))
            assert abs(1.0 / chi2 - target) <= 1e-8 * target

    def test_random_measurements_never_beat_the_bound(self, rng):
        dim = 9
        state = random_pure_state(rng, dim)
        fam = random_family(rng, dim, 4)
        md = moment_data(state, fam)
        n_vec = np.array([1.0, 0.0, 0.0, 0.0])
        bound = n_vec @ md.m_matrix @ n_vec
        draws = rng.normal(size=(2000, 4))
        numer = (draws @ md.c @ n_vec) ** 2
        denom = np.einsum("ij,jk,ik->i", draws, md.gamma, draws)
        ok = denom > 1e-12
        assert (numer[ok] / denom[ok]).max() <= bound * (1 + 1e-8)


class TestGeneratorOptimization:
    def test_css_generator_in_equatorial_plane(self):
        n = 12
        _, css, fam = css_and_linear_family(n)
        md = moment_data(css, fam)
        n_opt, lam = optimize_generator(md, [0, 1, 2])
        assert abs(lam - n) < 1e-10
        assert abs(n_opt[2]) < 1e-10

    def test_diagonal_tie_break(self):
        md = MomentData(
            gamma=np.eye(3),
            c=np.zeros((3, 3)),
            m_matrix=np.diag([3.0, 1.0, 2.0]),
            retained=np.eye(3),
            kernel_leakage=0.0,
            scales=np.ones(3),
            c_norm=0.0,
        )
        n_opt, lam = optimize_generator(md, [0, 1, 2])
        assert lam == 3.0
        assert np.abs(n_opt - [1.0, 0.0, 0.0]).max() < 1e-14

    @pytest.mark.parametrize("slots, n_vec", [([0, 0], [0.6, 0.8]), ([-1], [1.0]), ([9], [1.0])],
                             ids=["repeated", "negative", "beyond"])
    def test_rejects_invalid_slots(self, slots, n_vec):
        # unchecked, [0, 0] reported the direction [0.6, 0.8] but measured
        # 0.8 Jx alone, [-1] used Jz^2, and [9] raised an IndexError
        basis = DickeBasis(8)
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", 0.3))
        fam = build_spin_family(basis, 2)
        with pytest.raises(ValueError, match="distinct integers in 0..8"):
            optimize_generator(moment_data(state, fam), slots)
        with pytest.raises(ValueError, match="distinct integers"):
            chi2_inverse_opt(state, fam, n_vec, generator_slots=slots)

    def test_degenerate_top_prefers_smallest_leading_index(self):
        vec, lam = principal_eigenpair(np.eye(4))
        assert lam == 1.0
        assert np.abs(vec - [1.0, 0.0, 0.0, 0.0]).max() < 1e-14

    def test_sign_convention(self):
        # top eigenvector forced to have a positive largest-magnitude coefficient
        u = np.array([-0.8, 0.6])
        mat = 5.0 * np.outer(u, u) + np.eye(2)
        vec, _ = principal_eigenpair(mat)
        assert vec[0] > 0
        assert angle_between(vec, u) < 1e-12
        # a tiny leading coefficient does not decide the sign
        u = np.array([1e-6, 0.0, -1.0]) / np.hypot(1e-6, 1.0)
        vec, _ = principal_eigenpair(5.0 * np.outer(u, u) + np.eye(3))
        assert vec[2] > 0
        assert angle_between(vec, u) < 1e-12

    @staticmethod
    def _rule(matrix):
        """The tie-break written out one matrix at a time: of the eigenvectors
        within 1e-12 max(1, |top|) of the top eigenvalue, the lowest-ranked
        one whose largest |coefficient| has the smallest index, signed so
        that this coefficient is positive."""
        evals, evecs = np.linalg.eigh((matrix + matrix.T) / 2)
        lam = evals[-1]
        tol = 1e-12 * max(1.0, abs(lam))
        candidates = [evecs[:, i] for i in range(len(evals)) if evals[i] >= lam - tol]
        best = min(candidates, key=lambda v: int(np.argmax(np.abs(v))))
        return (-best if best[np.argmax(np.abs(best))] < 0 else best), float(lam)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_stack_matches_one_matrix_at_a_time(self, rng, dim):
        # degenerate tops (identity, a doubled top, a tie within 1e-12), top
        # eigenvectors whose largest entry is negative, negative definite
        # and zero matrices, and random ones, solved as one stack
        u = np.zeros(dim)
        u[:2] = [-0.8, 0.6]
        flat = np.ones(dim) / np.sqrt(dim)
        near = np.eye(dim)
        near[0, 0] += 1e-13
        mats = [np.eye(dim), np.diag([1.0, 1.0] + [0.0] * (dim - 2)),
                np.diag([0.0] * (dim - 2) + [1.0, 1.0]), near,
                5.0 * np.outer(u, u) + np.eye(dim), -np.eye(dim) - 3.0 * np.outer(flat, flat),
                -5.0 * np.outer(u, u), 2.0 * np.outer(flat, flat), np.zeros((dim, dim))]
        for _ in range(4):
            a = rng.normal(size=(dim, dim))
            mats.append(a @ a.T - 2.0 * np.eye(dim))
        stack = np.stack(mats)
        vecs, lams = principal_eigenpair(stack)
        assert vecs.shape == (len(mats), dim) and lams.shape == (len(mats),)
        for mat, vec, lam in zip(mats, vecs, lams):
            one_vec, one_lam = principal_eigenpair(mat)
            rule_vec, rule_lam = self._rule(mat)
            assert type(one_lam) is float and one_lam == rule_lam == lam
            assert one_vec.tobytes() == rule_vec.tobytes() == vec.tobytes()
        assert np.abs(vecs[0] - np.eye(dim)[0]).max() == 0.0  # identity: the first axis
        assert np.abs(vecs[1] - np.eye(dim)[0]).max() == 0.0
        assert vecs[4][0] > 0 and angle_between(vecs[4], u) < 1e-12


class TestChi2:
    def test_chi2_inverse_opt_css(self):
        n = 16
        _, css, fam = css_and_linear_family(n)
        res = chi2_inverse_opt(css, fam, [1.0, 0.0, 0.0])
        assert abs(res.chi2_inv - n) < 1e-10
        assert abs(res.xi2 * res.chi2_inv - n) < 1e-9  # xi2 * chi2_inv = F_SN
        assert abs(np.linalg.norm(res.m_coeffs) - 1.0) < 1e-12

    def test_chi2_inverse_opt_kernel_direction(self):
        n = 16
        _, css, fam = css_and_linear_family(n)
        res = chi2_inverse_opt(css, fam, [0.0, 0.0, 1.0])
        assert res.chi2_inv == 0.0
        assert res.m_coeffs is None
        assert math.isinf(res.xi2)

    def test_chi2_inverse_opt_requires_unit_direction(self):
        n = 4
        _, css, fam = css_and_linear_family(n)
        with pytest.raises(ValueError, match="unit"):
            chi2_inverse_opt(css, fam, [2.0, 0.0, 0.0])
        # a NaN direction is no unit vector, not a direction without signal
        with pytest.raises(ValueError, match="unit"):
            chi2_inverse_opt(css, fam, [np.nan, 0.0, 0.0])

    @pytest.mark.parametrize("dim, tag, f_sn", [
        (5, "dicke-N4", 4.0), (6, "fock-D6", 2.0), (5, "test", math.nan), (3, "dicke-N4", math.nan),
        (5, "fock-D6", math.nan), (5, "dicke-N04", math.nan),
    ], ids=["dicke", "fock", "other tag", "dicke tag, other dimension", "fock tag, other dimension",
            "dicke tag, other spelling"])
    def test_shot_noise_is_read_from_the_basis_of_the_dimension(self, rng, dim, tag, f_sn):
        res = chi2_inverse_opt(random_pure_state(rng, dim, tag), random_family(rng, dim, 3, tag),
                               [1.0, 0.0, 0.0])
        assert res.chi2_inv > 0
        if math.isnan(f_sn):
            assert math.isnan(res.xi2)
        else:
            assert abs(res.xi2 * res.chi2_inv - f_sn) <= 1e-12 * f_sn

    @pytest.mark.parametrize("tag", ["dicke-N0", "fock-D1", "test"])
    def test_dimension_one_family_has_no_shot_noise_limit(self, tag):
        # no basis accepts one level, so the lookup builds none and gives NaN
        fam = OperatorFamily(np.ones((1, 1, 1)), ["1"], (1,), tag)
        res = chi2_inverse_opt(QuantumState.pure([1.0], tag), fam, [1.0])
        assert res.chi2_inv == 0.0 and math.isnan(res.xi2)

    def test_fock_third_order_value(self):
        for n in (0, 2, 5):
            basis = FockBasis(n + 8)
            fam = build_cv_third_order_family(basis)
            res = chi2_inverse_opt(fock_state(basis, n), fam, [0.6, 0.8])
            assert abs(res.chi2_inv - (4 * n + 2)) <= 1e-9 * (4 * n + 2)

    @pytest.mark.parametrize("kind", ["pure_oat", "mixed_tat"])
    def test_quotient_matches_dense_error_propagation(self, kind):
        # the saturating quotient taken from the centered rows equals the
        # dense re-evaluation on the state, for pure and mixed states alike
        n = 10
        basis = DickeBasis(n)
        css = coherent_spin_state_z(basis)
        if kind == "pure_oat":
            state = evolve(css, EvolutionSpec("OAT", 0.3))
        else:
            dim = basis.dimension
            rho = 0.9 * css.density_matrix() + 0.1 * np.eye(dim) / dim
            state = evolve(QuantumState.mixed(rho, basis.tag), EvolutionSpec("TAT", 0.4))
        family = build_spin_family(basis, 3)

        def padded(coeffs, slots):
            full = np.zeros(len(family))
            full[slots] = coeffs
            return full

        def reference(res, n_slots):
            chi2 = chi2_error_propagation(
                state,
                combine(tuple(family), padded(res.n_coeffs, n_slots)),
                combine(tuple(family), padded(res.m_coeffs, list(range(len(res.m_coeffs))))),
            )
            return 1.0 / chi2

        profile = spin_squeezing_profile(state, basis, 3, family=family)
        for res in profile:
            assert abs(res.chi2_inv - reference(res, [0, 1, 2])) <= 1e-9 * res.chi2_inv
        slots = [0, 1, 2, 3]
        direction = np.array([0.5, 0.5, 0.5, 0.5])
        res = chi2_inverse_opt(state, family, direction, generator_slots=slots)
        assert abs(res.chi2_inv - reference(res, slots)) <= 1e-9 * res.chi2_inv

    def test_error_propagation_css(self):
        n = 16
        basis = DickeBasis(n)
        css = coherent_spin_state_z(basis)
        jx, jy, _ = build_spin_operators(basis)
        chi2 = chi2_error_propagation(css, jx, jy)
        assert abs(1.0 / chi2 - n) < 1e-10

    def test_error_propagation_zero_commutator(self):
        n = 8
        basis = DickeBasis(n)
        css = coherent_spin_state_z(basis)
        _, _, jz = build_spin_operators(basis)
        with pytest.raises(ZeroSignalError):
            chi2_error_propagation(css, jz, jz)

    def test_error_propagation_eigenstate_observable(self):
        # an eigenstate of X cannot carry signal: zero commutator expected
        n = 8
        basis = DickeBasis(n)
        css = coherent_spin_state_z(basis)
        jx, _, jz = build_spin_operators(basis)
        with pytest.raises(ZeroSignalError):
            chi2_error_propagation(css, jx, jz)

    @pytest.mark.parametrize("theta", [0.1, 1.0])
    def test_rounding_noise_of_an_eigenstate_is_no_signal(self, theta):
        # GHZ turned about x stays an eigenstate of the parity (-1)^(J - Jx),
        # so Var P is rounding noise (~1e-31) and so is <[P, Jx]>; their
        # quotient passed the relative Robertson cut and gave chi^-2 ~ 1e-3
        # against a classical Fisher information of ~1e-32
        from nlsqueeze import HermitianPropagator, parity_operator

        n = 16
        basis = DickeBasis(n)
        vec = np.zeros(n + 1, dtype=complex)
        vec[0] = vec[-1] = 1 / np.sqrt(2)
        jx = build_spin_operators(basis)[0]
        probe = HermitianPropagator(jx).apply(QuantumState.pure(vec, basis.tag), theta)
        with pytest.raises(ZeroSignalError):
            chi2_error_propagation(probe, jx, parity_operator(basis))

    def test_ghz_parity_sensitivity(self):
        from nlsqueeze import parity_operator

        n = 16
        basis = DickeBasis(n)
        ghz = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", np.pi / 2))
        _, _, jz = build_spin_operators(basis)
        parity = parity_operator(basis)
        chi2_inv = 1.0 / chi2_error_propagation(ghz, jz, parity)
        assert abs(chi2_inv - n * n) < 1e-6
        assert chi2_inv / n >= n - 1

    def test_convexity_in_the_state(self, rng):
        # mixing states can only lower the optimized inverse parameter
        dim = 6
        fam = random_family(rng, dim, 4)
        n_vec = rng.normal(size=4)
        n_vec /= np.linalg.norm(n_vec)
        for _ in range(10):
            rho1 = random_density(rng, dim, rank=3)
            rho2 = random_density(rng, dim, rank=3)
            lam = float(rng.uniform(0.1, 0.9))
            blend = QuantumState.mixed(
                lam * rho1.density_matrix() + (1 - lam) * rho2.density_matrix(), "test"
            )
            lhs = chi2_inverse_opt(blend, fam, n_vec).chi2_inv
            rhs = (
                lam * chi2_inverse_opt(rho1, fam, n_vec).chi2_inv
                + (1 - lam) * chi2_inverse_opt(rho2, fam, n_vec).chi2_inv
            )
            assert lhs <= rhs + 1e-9


class TestSpinSqueezingOrders:
    def test_css_linear_coefficient_is_shot_noise(self):
        basis = DickeBasis(16)
        css = coherent_spin_state_z(basis)
        res = spin_squeezing_profile(css, basis, 1)[-1]
        assert abs(res.xi2 - 1.0) < 1e-10
        assert abs(res.lambda_max - 16.0) < 1e-9

    def test_short_time_oat_is_spin_squeezed(self):
        basis = DickeBasis(16)
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", 0.05))
        res = spin_squeezing_profile(state, basis, 1)[-1]
        assert res.xi2 < 1.0

    def test_profile_matches_single_order_calls(self):
        basis = DickeBasis(10)
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", 0.35))
        profile = spin_squeezing_profile(state, basis, 3)
        for k, res in enumerate(profile, start=1):
            single = spin_squeezing_profile(state, basis, k)[-1]
            assert abs(res.chi2_inv - single.chi2_inv) < 1e-10
            assert angle_between(res.n_coeffs, single.n_coeffs) < 1e-8

    @staticmethod
    def _readme_point(index):
        basis = DickeBasis(16)
        tau = float(np.linspace(0.0, np.pi, 101)[index]) if index is not None else np.pi / 2
        return basis, evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", tau))

    @pytest.mark.parametrize("point", ["readme row 48", "readme row 52", "pi/2", "noisy TAT"])
    def test_profile_is_the_public_per_order_path_bit_for_bit(self, point):
        # rows 48 and 52 of the README grid raise the integrity flag at order
        # 5; tau = pi/2 has a degenerate generator plane and orders without
        # signal
        if point == "noisy TAT":
            basis, state = _noisy_tat_point(16, tau=0.4)
        else:
            basis, state = self._readme_point({"readme row 48": 48, "readme row 52": 52}.get(point))
        k_max = 5
        family = build_spin_family(basis, k_max)
        gamma, c = covariance_matrix(state, family), moment_data(state, family).c
        rows, _ = _centered_rows(state.factor, family)
        profile = spin_squeezing_profile(state, basis, k_max, family=family)
        for k, res in enumerate(profile, start=1):
            cnt = spin_family_size(k)
            md = moment_matrix(gamma[:cnt, :cnt], c[:cnt, :cnt])
            n_opt, lam = optimize_generator(md, [0, 1, 2])
            try:
                m = optimal_measurement(md, n_opt)
            except ZeroSignalError:
                m = None
            n_full = np.zeros(cnt)
            n_full[:3] = n_opt
            signal = None if m is None else _signal(m @ rows[:cnt], n_full @ rows[:cnt])
            chi2_inv = 0.0 if signal is None else signal[1] ** 2 / signal[0]
            assert res.chi2_inv == chi2_inv
            assert res.lambda_max == lam and type(res.lambda_max) is float
            assert res.n_coeffs.tobytes() == n_opt.tobytes()
            assert (res.m_coeffs is None) == (signal is None)  # no measurement without signal
            if signal is not None:
                assert res.m_coeffs.tobytes() == m.tobytes()
            got = res.moments
            assert got.kernel_leakage == md.kernel_leakage and got.c_norm == md.c_norm
            for name in ("gamma", "c", "m_matrix", "retained", "scales"):
                assert getattr(got, name).tobytes() == getattr(md, name).tobytes(), name
        if point.startswith("readme"):
            assert profile[-1].robertson_violated  # the known flag, unchanged
        if point == "pi/2":
            assert profile[0].chi2_inv == 0.0

    def test_profile_solves_every_order_with_one_stacked_eigh(self, monkeypatch):
        # one `eigh` per order inside `moment_matrix`, then one for the k_max
        # generator blocks M[:3, :3] together; none to re-validate
        basis, state = self._readme_point(30)
        family = build_spin_family(basis, 5)
        eigh, shapes = np.linalg.eigh, []

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        spin_squeezing_profile(state, basis, 5, family=family)
        assert shapes == [(3, 3), (9, 9), (19, 19), (34, 34), (55, 55), (5, 3, 3)]

    def test_no_signal_orders_report_zero_on_the_readme_grid(self):
        # chi2_inv has one formula: an order whose saturating quotient finds
        # no signal reports exactly 0, not the rounding noise of n^T M n
        # (order 1 has no signal at 11 points between tau = 1.38 and 1.76)
        n, k_max = 16, 5
        basis = DickeBasis(n)
        family = build_spin_family(basis, k_max)
        css = coherent_spin_state_z(basis)
        no_signal = 0
        for tau in np.linspace(0.0, np.pi, 101):
            state = evolve(css, EvolutionSpec("OAT", float(tau)))
            rows, _ = _centered_rows(state.factor, family)
            for res in spin_squeezing_profile(state, basis, k_max, family=family):
                cnt = res.moments.size
                assert res.kernel_leakage == res.moments.kernel_leakage
                n_full = np.zeros(cnt)
                n_full[:3] = res.n_coeffs
                signal = None if res.m_coeffs is None else _signal(
                    res.m_coeffs @ rows[:cnt], n_full @ rows[:cnt])
                # a result without signal carries no measurement
                assert (res.chi2_inv == 0.0) == (res.m_coeffs is None)
                # the generator's largest-magnitude coefficient is positive
                assert res.n_coeffs[np.argmax(np.abs(res.n_coeffs))] > 0
                if signal is None:
                    no_signal += 1
                    assert res.chi2_inv == 0.0
                else:
                    assert res.chi2_inv == signal[1] ** 2 / signal[0] > 0.0
        assert no_signal > 0

    def test_hierarchy_pointwise_in_n(self, rng):
        # for every fixed generator direction the order-(k+1) quadratic form
        # dominates the order-k one
        basis = DickeBasis(12)
        fam5 = build_spin_family(basis, 5)
        directions = rng.normal(size=(6, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        from nlsqueeze.spin import spin_family_size

        for tau in (0.1, 0.7, 1.9):
            state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", tau))
            gamma = covariance_matrix(state, fam5)
            c = moment_data(state, fam5).c
            prev = None
            for k in range(1, 6):
                cnt = spin_family_size(k)
                md = moment_matrix(gamma[:cnt, :cnt], c[:cnt, :cnt])
                vals = np.array(
                    [d @ md.m_matrix[:3, :3] @ d for d in directions]
                )
                if prev is not None:
                    assert np.all(vals >= prev - 1e-10)
                prev = vals

    def test_tat_hierarchy_and_chain(self):
        from nlsqueeze import f_max_density

        basis = DickeBasis(12)
        for tau in np.linspace(0.0, 1.2, 9):
            state = evolve(coherent_spin_state_z(basis), EvolutionSpec("TAT", float(tau)))
            profile = spin_squeezing_profile(state, basis, 4)
            xi = [r.chi2_inv / 12 for r in profile]
            for a, b in zip(xi, xi[1:]):
                assert a <= b + 1e-9
            assert xi[-1] <= f_max_density(state, basis)[0] + 1e-9

    def test_parity_beats_linear_squeezing_at_ghz(self):
        from nlsqueeze import parity_operator

        n = 16
        basis = DickeBasis(n)
        ghz = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", np.pi / 2))
        linear = spin_squeezing_profile(ghz, basis, 1)[-1]
        _, _, jz = build_spin_operators(basis)
        parity_inv = 1.0 / chi2_error_propagation(ghz, jz, parity_operator(basis)) / n
        assert linear.lambda_max / n < 1e-6
        assert parity_inv > 10.0


class TestEntanglementBound:
    @pytest.mark.parametrize(
        "value,want",
        [(0.0, 0), (1.0, 0), (1.5, 1), (3.5, 3), (16.0, 15), (15.2, 15)],
    )
    def test_values(self, value, want):
        assert entanglement_bound(value) == want

    def test_noise_at_the_classical_boundary(self):
        assert entanglement_bound(1.0 + 1e-13) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            entanglement_bound(-0.1)


class TestMomentEstimator:
    def setup_method(self):
        self.basis = DickeBasis(16)
        self.css = coherent_spin_state_z(self.basis)
        self.jx, self.jy, self.jz = build_spin_operators(self.basis)

    def test_variance_matches_prediction(self):
        rep = simulate_moment_estimator(
            self.css, self.jx, self.jy, 0.0, mu=10_000, trials=200, seed=0
        )
        assert abs(rep.predicted_variance - 1.0 / (16 * 10_000)) < 1e-15
        assert 0.85 <= rep.ratio <= 1.15

    def test_variance_scales_inversely_with_mu(self):
        r1 = simulate_moment_estimator(
            self.css, self.jx, self.jy, 0.0, mu=10_000, trials=300, seed=3
        )
        r4 = simulate_moment_estimator(
            self.css, self.jx, self.jy, 0.0, mu=40_000, trials=300, seed=3
        )
        assert abs(r4.empirical_variance / r1.empirical_variance - 0.25) < 0.08

    def test_non_monotonic_window_raises(self):
        with pytest.raises(CalibrationError):
            simulate_moment_estimator(
                self.css, self.jx, self.jy, 0.0, mu=100, trials=5, seed=0,
                window=(-2.5, 2.5),
            )

    def test_small_mu_warns(self):
        with pytest.warns(UserWarning) as record:
            simulate_moment_estimator(
                self.css, self.jx, self.jy, 0.0, mu=1, trials=5, seed=0
            )
        assert any("central-limit" in str(w.message) for w in record)

    def test_determinism(self):
        a = simulate_moment_estimator(
            self.css, self.jx, self.jy, 0.0, mu=1000, trials=50, seed=11
        )
        b = simulate_moment_estimator(
            self.css, self.jx, self.jy, 0.0, mu=1000, trials=50, seed=11
        )
        assert a == b

    def test_parity_readout_reaches_heisenberg_scaling(self):
        from nlsqueeze import parity_operator

        n = 16
        ghz = evolve(self.css, EvolutionSpec("OAT", np.pi / 2))
        parity = parity_operator(self.basis)
        half_fringe = np.pi / (2 * n)
        rep = simulate_moment_estimator(
            ghz, self.jz, parity, 0.0, mu=10_000, trials=200, seed=3,
            window=(-0.8 * half_fringe, 0.8 * half_fringe),
        )
        assert abs(rep.predicted_variance - 1.0 / (n * n * 10_000)) < 1e-18
        assert 0.8 <= rep.ratio <= 1.25


def _css_jx_jy():
    basis = DickeBasis(4)
    jx, jy, _ = build_spin_operators(basis)
    return coherent_spin_state_z(basis), jx, jy


@pytest.mark.parametrize("make, exc, fragment", [
    (lambda: moment_matrix(np.zeros((2, 2)), np.zeros((3, 3))), ValueError,
     "gamma and c must be square matrices of equal size"),
    # no retained direction: C n is nonzero but W W^T C n vanishes
    (lambda: optimal_measurement(moment_matrix(np.zeros((2, 2)), [[0.0, 1.0], [-1.0, 0.0]]), [1.0, 0.0]),
     ZeroSignalError, "outside the retained covariance subspace"),
    (lambda: chi2_inverse_opt(_css_jx_jy()[0], build_spin_family(DickeBasis(4), 1), [1.0]), ValueError,
     "n_coeffs length must match the generator slots"),
    (lambda: spin_squeezing_profile(_css_jx_jy()[0], DickeBasis(4), 3, build_spin_family(DickeBasis(4), 2)),
     ValueError, "family does not match k_max"),
    (lambda: entanglement_bound(math.inf), ValueError, "must be finite"),
    (lambda: simulate_moment_estimator(*_css_jx_jy(), 0.0, mu=0, trials=2, seed=0), ValueError,
     "mu must be >= 1"),
    (lambda: simulate_moment_estimator(*_css_jx_jy(), 0.0, mu=100, trials=1, seed=0), ValueError,
     "at least two trials"),
    (lambda: simulate_moment_estimator(*_css_jx_jy(), 0.0, mu=100, trials=2, seed=0, window=(0.1, 0.5)),
     ValueError, "strictly inside the window"),
], ids=["shapes differ", "outside retained", "generator length", "family order", "infinite xi2",
        "mu 0", "one trial", "theta outside window"])
def test_refusals(make, exc, fragment):
    with pytest.raises(exc, match=fragment):
        make()
