import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nlsqueeze import (
    BasisMismatchError,
    CalibrationError,
    DickeBasis,
    FockBasis,
    HermitianOperator,
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
    cv,
    entanglement_bound,
    evolve,
    fock_state,
    moment_data,
    moment_matrix,
    moments,
    optimal_measurement,
    optimize_generator,
    simulate_moment_estimator,
    spin_squeezing_profile,
)
from nlsqueeze.dynamics import EvolutionSpec
from nlsqueeze.fisher import _qfi_matrix, f_max_density
from nlsqueeze.moments import _center, _centered_rows, _signal, principal_eigenpair
from nlsqueeze.moments import _family_moments as moments_of
from nlsqueeze.operators import SLICE_ENTRIES
from nlsqueeze.spin import spin_family_size
from nlsqueeze.states import spectral_floor

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
            got, _ = _centered_rows(state, fam)
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
    """`_center` centers the row table in row chunks and adds up its Gram
    matrix over column slices, each of SLICE_ENTRIES entries in all; it must
    agree with the broadcast centering and the one-shot Gram product R* R^T."""

    def _cases(self, rng):
        """(state, family, chunks, slices, remainder) for each kind of table."""
        spin16, spin20, spin64 = DickeBasis(16), DickeBasis(20), DickeBasis(64)
        spin1000 = DickeBasis(1000)
        fock = FockBasis(91)
        cv3 = build_cv_third_order_family(fock)
        dense128, dense100 = random_family(rng, 128, 4), random_family(rng, 100, 4)
        tat_basis, tat_state = _noisy_tat_point(60)
        return [
            # one chunk, one slice
            (random_density(rng, 17, spin16.tag, rank=3), build_spin_family(spin16, 5), 1, 1, 51),
            (fock_state(fock, 6), cv3, 1, 1, 91),
            (random_pure_state(rng, 128), dense128, 1, 1, 128),
            # exactly several slices
            (random_density(rng, 65, spin64.tag, rank=56), build_spin_family(spin64, 2), 3, 2, 0),
            (random_density(rng, 91, fock.tag, rank=60), cv3, 2, 2, 0),
            (random_density(rng, 128, rank=64), dense128, 2, 2, 0),
            # several slices and a remainder
            (random_density(rng, 21, spin20.tag, rank=21), build_spin_family(spin20, 5), 2, 2, 144),
            (tat_state, build_spin_family(tat_basis, 3), 5, 5, 273),
            (random_pure_state(rng, 1001, spin1000.tag), build_spin_family(spin1000, 3), 2, 2, 139),
            (random_density(rng, 91, fock.tag, rank=61), cv3, 3, 3, 91),
            (random_density(rng, 100, rank=50), dense100, 2, 2, 904),
        ]

    def test_slices_match_one_shot_reference(self, rng):
        for state, family, chunks, slices, remainder in self._cases(rng):
            s = state.factor
            raw = np.stack([op.matrix @ s for op in family])  # one dense member at a time
            mu = raw.reshape(len(raw), -1) @ s.ravel().conj()
            want = (raw - mu.real[:, None, None] * s).reshape(len(raw), -1)
            want_gram = want.conj() @ want.T
            rows, gram = _center(raw.copy(), s)
            per, step = max(1, SLICE_ENTRIES // rows.shape[1]), SLICE_ENTRIES // len(family)
            assert math.ceil(len(rows) / per) == chunks
            assert (math.ceil(rows.shape[1] / step), rows.shape[1] % step) == (slices, remainder)
            # centering is elementwise, so chunking it changes no bit
            assert np.array_equal(rows, want)
            if slices == 1:
                assert np.array_equal(gram, want_gram)
            else:
                norms = np.linalg.norm(want, axis=1)
                assert (np.abs(gram - want_gram) <= 1e-13 * np.outer(norms, norms)).all()

    def test_kernel_makes_no_copy_of_the_row_table(self, rng):
        # at N=60, K=3 a generic full-rank state (no spectral floor) has a row
        # table of 19 x 61 x 61 complex (1.13 MB); the band product's gathered
        # operand (0.42 MB), or the temporaries of one row chunk (about
        # 0.4 MB), come on top of it; one full-size copy (a broadcast
        # centering, a conjugate table) would take the peak to 2.2x
        basis = DickeBasis(60)
        state = random_density(rng, 61, basis.tag)
        assert state.factor.shape == (61, 61) and spectral_floor(state.factor) is None
        family = build_spin_family(basis, 3)
        profile_peak, f_max_peak = _peaks(state, basis, family)
        assert profile_peak <= 1.42 * len(family) * state.factor.size * 16
        # 3 rows take 0.18 MB and peak at 0.66 MB with their products
        # P = S^dagger R; a conjugate copy of the rows, or numpy's buffer for
        # the complex-times-real product of P and its weights, add 0.18 MB each
        assert f_max_peak <= 0.72e6

    def test_qfi_products_stay_within_the_row_pass(self, rng):
        # at N=200 the 3 rows of a generic full-rank state take 1.94 MB, and
        # centering them peaks at twice that.  P = S^dagger R and its weighted
        # copy, formed whole, took two more arrays of that size (6.6 MB peak);
        # formed in blocks of SLICE_ENTRIES entries, they stay under the peak
        # of the rows' own pass
        basis = DickeBasis(200)
        state = random_density(rng, 201, basis.tag)
        assert spectral_floor(state.factor) is None
        _, f_max_peak = _peaks(state, basis, build_spin_family(basis, 3))
        assert f_max_peak <= 2.05 * 3 * state.factor.size * 16

    def test_band_product_gathers_one_row_piece_at_a_time(self, rng):
        # at N=200 the Jx, Jy, Jz rows of a generic full-rank state take
        # 1.94 MB (3 D^2 complex entries); their operand S[band_cols],
        # gathered whole, was as large again (3.88 MB peak).  Gathered in row
        # pieces of SLICE_ENTRIES entries, the peak is the rows plus `_center`'s
        # own temporaries (one row chunk of D^2 entries)
        basis = DickeBasis(200)
        state = random_density(rng, 201, basis.tag)
        assert spectral_floor(state.factor) is None
        _centered_rows(state, basis.spin_axes)
        tracemalloc.start()
        try:
            _centered_rows(state, basis.spin_axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.01 * 5 * state.factor.size * 16

    def test_mixed_factor_is_flattened_without_a_copy(self, rng):
        # `mixed()` holds its factor row-major, so `_center` reads it raveled
        # in place; held in `eigh`'s column-major order, the raveled copy
        # (D^2 entries) took the peak of the Jx, Jy, Jz rows at N=200 from
        # 1.33x to 1.67x the rows (1.94 MB)
        basis = DickeBasis(200)
        state = random_density(rng, 201, basis.tag)
        assert spectral_floor(state.factor) is None and state.factor.flags.c_contiguous
        _centered_rows(state, basis.spin_axes)
        tracemalloc.start()
        try:
            rows, _ = _centered_rows(state, basis.spin_axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * rows.nbytes

    @pytest.mark.parametrize("n", [60, 200])
    def test_floored_table_stays_within_its_own_columns(self, n):
        # a noisy TAT point splits as lambda0 I + S' S'^dagger with r' = 1:
        # its K=3 table holds L (D r' + L + 1) complex entries (19 x 81,
        # 25 KB, at N=60; the unfloored 19 x 61 x 61 took 1.13 MB).  Such a
        # table is smaller than one SLICE_ENTRIES piece, so `_center` centers
        # and multiplies it whole, with numpy's buffers; its own peak on a
        # table of that shape is allowed on top of 1.42 tables (the profile
        # peaks at 102,816 B against a bound of 111,398 B at N=60, and at
        # 275,296 B against 299,513 B at N=200)
        basis, state = _noisy_tat_point(n)
        family = build_spin_family(basis, 3)
        top = spectral_floor(state.factor)[1].shape[1]
        assert top == 1
        profile_peak, f_max_peak = _peaks(state, basis, family)
        shape = (len(family), basis.dimension * top + len(family) + 1)
        assert profile_peak <= 1.42 * math.prod(shape) * 16 + _center_peak(shape)
        # f_max reads 3 rows of D r' + 4 entries (3 x 65 complex at N=60),
        # never a D x D array (60 KB): two such tables plus `_center`'s peak
        # (16,608 B against 17,904 B at N=60; 45,728 B against 51,504 B at N=200)
        shape = (3, basis.dimension * top + 4)
        assert f_max_peak <= 2.0 * math.prod(shape) * 16 + _center_peak(shape)


def _center_peak(shape):
    """tracemalloc peak of `_center` on a table of that shape, beyond the table."""
    rows, s = np.ones(shape, dtype=complex), np.ones(shape[1:], dtype=complex)
    tracemalloc.start()
    try:
        _center(rows, s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peaks(state, basis, family):
    """tracemalloc peaks of one warm profile and one warm f_max call."""
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
    return profile_peak, f_max_peak


def _full_factor_rows(state, family):
    """The table over the state's whole factor S from the stacked dense
    members, as `TestSlicedKernel` builds it: what `_centered_rows` gives
    without a floor."""
    s = state.factor
    return _center(np.stack([op.matrix @ s for op in family]), s)


class TestSpectralFloor:
    """A white-noise state takes the floor rho = lambda0 I + S' S'^dagger
    (`states.spectral_floor`); its table over [S' | sqrt(lambda0) I] gives
    the moments of the full-factor table."""

    @pytest.mark.parametrize("weight", [0.01, 0.1, 0.9])
    @pytest.mark.parametrize("n, kmax", [
        pytest.param(16, 3, id="16"), pytest.param(60, 3, id="60"), pytest.param(200, 3, id="200"),
        # small states and large families, whose tables over the split have
        # more columns than over S (D r' + L + 1 >= D r): the split is read all the same
        *(pytest.param(n, kmax, id=f"{n}-k{kmax}")
          for n, kmax in ((4, 1), (4, 3), (4, 6), (7, 3), (7, 6), (10, 6), (13, 6), (16, 6))),
    ])
    @pytest.mark.parametrize("model", ["OAT", "TAT"])
    def test_floored_table_matches_the_full_factor(self, monkeypatch, model, n, kmax, weight):
        basis = DickeBasis(n)
        state = _noisy_twisted(basis, model, 0.3, noise=weight)
        family = build_spin_family(basis, kmax)
        rows, _ = _centered_rows(state, family)
        assert rows.shape == (len(family), basis.dimension + len(family) + 1)  # r' = 1 and the trace factor
        gamma, c = covariance_matrix(state, family), moment_data(state, family).c
        profile = spin_squeezing_profile(state, basis, kmax, family=family)
        f_max = f_max_density(state, basis)[0]
        assert state._floor is not None and state._factor is None  # the D x D factor was never formed
        with monkeypatch.context() as patch:
            patch.setattr(moments, "_centered_rows", _full_factor_rows)
            want_gamma, want_c = covariance_matrix(state, family), moment_data(state, family).c
            want = spin_squeezing_profile(state, basis, kmax, family=family)
        # each member's scale is ||H_k S||_F, the size of its raw row
        scales = np.array([np.linalg.norm(op.matrix @ state.factor) for op in family])
        bound = 1e-13 * np.outer(scales, scales)
        assert (np.abs(gamma - want_gamma) <= bound).all()
        assert (np.abs(c - want_c) <= bound).all()
        for got, ref in zip(profile, want):
            # Robertson: chi2_inv <= 4 Var(n.J), the scale of the commutator's
            # rounding where an order has almost no signal (4e-10 at OAT N=200, w=0.9)
            robertson = 4.0 * ref.n_coeffs @ ref.moments.gamma[:3, :3] @ ref.n_coeffs
            assert abs(got.chi2_inv - ref.chi2_inv) <= 1e-10 * ref.chi2_inv + 1e-15 * robertson
            assert not got.robertson_violated
        # f_max from the spectral formula over the whole factor, within 1e-13
        # of its terms' scale 4 <J_a^2> = 4 ||J_a S||^2: near the maximally
        # mixed state F_Q is far below it (54 against 1.6e4 at TAT N=200, w=0.9)
        axes = basis.spin_axes
        want_q = _qfi_matrix(state.factor, *_full_factor_rows(state, axes))
        scale = 4.0 * max(np.linalg.norm(op.matrix @ state.factor) for op in axes) ** 2
        assert abs(f_max - principal_eigenpair(want_q)[1] / n) <= 1e-13 * scale / n

    @pytest.mark.parametrize("weight", [0.01, 0.1, 0.9])
    @pytest.mark.parametrize("n", [16, 60, 200])
    @pytest.mark.parametrize("model", ["OAT", "TAT"])
    def test_carried_split_matches_a_split_found_afresh(self, model, n, weight):
        # evolution rotates the split of the initial state; the split found
        # on the evolved factor itself must give the same moments and f_max
        basis = DickeBasis(n)
        state = _noisy_twisted(basis, model, 0.3, noise=weight)
        family = build_spin_family(basis, 3)
        _, gamma, c = moments_of(state, family)
        profile = spin_squeezing_profile(state, basis, 3, family=family)
        f_max = f_max_density(state, basis)[0]
        fresh = QuantumState(state.basis_tag, state.factor)
        assert spectral_floor(fresh.factor)[1].shape == (basis.dimension, 1)
        _, want_gamma, want_c = moments_of(fresh, family)
        want = spin_squeezing_profile(fresh, basis, 3, family=family)
        scales = np.array([np.linalg.norm(op.matrix @ fresh.factor) for op in family])
        bound = 1e-13 * np.outer(scales, scales)
        assert (np.abs(gamma - want_gamma) <= bound).all()
        assert (np.abs(c - want_c) <= bound).all()
        for got, ref in zip(profile, want):
            robertson = 4.0 * ref.n_coeffs @ ref.moments.gamma[:3, :3] @ ref.n_coeffs
            assert abs(got.chi2_inv - ref.chi2_inv) <= 1e-10 * ref.chi2_inv + 1e-15 * robertson
        assert abs(f_max - f_max_density(fresh, basis)[0]) <= 1e-13 * f_max

    def test_maximally_mixed_state_has_no_signal(self):
        # r' = 0: the table is the identity part alone, L + 1 real columns,
        # so C is exactly zero and no order can leak into a dropped direction
        for n in (4, 20, 60):
            basis = DickeBasis(n)
            state = QuantumState.mixed(np.eye(n + 1) / (n + 1), basis.tag)
            family = build_spin_family(basis, 3)
            assert _centered_rows(state, family)[0].shape == (19, 20)
            for res in spin_squeezing_profile(state, basis, 3, family=family):
                assert res.chi2_inv == 0.0 and res.m_coeffs is None
                assert res.kernel_leakage == 0.0 and not res.robertson_violated
            assert f_max_density(state, basis)[0] == 0.0

    def test_states_without_a_floor_keep_the_full_table(self, rng):
        # a generic full-rank state, rank-deficient ones and a pure one are
        # tabled over their whole factor, byte for byte as before the floor
        basis = DickeBasis(60)
        family = build_spin_family(basis, 3)
        states = [random_density(rng, 61, basis.tag), random_density(rng, 61, basis.tag, rank=3),
                  random_density(rng, 61, basis.tag, rank=60),
                  evolve(coherent_spin_state_z(basis), EvolutionSpec("TAT", 0.3))]
        for state in states:
            s = state.factor
            assert spectral_floor(s) is None
            want = np.empty((len(family), *s.shape), dtype=complex)
            np.matmul(family.bands, s[family.band_cols], out=want.transpose(1, 0, 2))
            want_rows, want_gram = _center(want, s)
            rows, gram = _centered_rows(state, family)
            assert rows.tobytes() == want_rows.tobytes() and gram.tobytes() == want_gram.tobytes()

    @pytest.mark.parametrize("make", [lambda: _noisy_tat_point(16)[1], lambda: _noisy_tat_point(60)[1],
                                      lambda: QuantumState.mixed(np.eye(21) / 21, DickeBasis(20).tag)],
                             ids=["tat-16", "tat-60", "maximally-mixed-20"])
    def test_states_with_a_floor_keep_their_table(self, make):
        # a split state (r' = 1 for white-noise TAT, r' = 0 for the maximally
        # mixed state) is tabled byte for byte as by the table's own layout:
        # the rows H_k S', then sqrt(lambda0) F_k and sqrt(lambda0 D) tbar_k
        # from the trace factor, centered against [S' | 0 | sqrt(lambda0 D)]
        state = make()
        family = build_spin_family(DickeBasis(state.dim - 1), 3)
        lam0, s_top = state._floor
        tbar, trace = family.trace_factor
        center = np.zeros(s_top.size + len(family) + 1, dtype=complex)
        center[:s_top.size] = s_top.ravel()
        center[-1] = math.sqrt(lam0 * state.dim)
        heads = (family.bands @ s_top[family.band_cols]).transpose(1, 0, 2).reshape(len(family), -1)
        want = np.empty((len(family), len(center)), dtype=complex)
        want[:, :s_top.size] = heads
        want[:, s_top.size:-1] = math.sqrt(lam0) * trace
        want[:, -1] = center[-1] * tbar
        want_rows, want_gram = _center(want, center)
        rows, gram = _centered_rows(state, family)
        assert rows.tobytes() == want_rows.tobytes() and gram.tobytes() == want_gram.tobytes()


class TestTraceFactor:
    """`OperatorFamily.trace_factor`: (tbar, F) with F F^T the traces
    tr((H_k - tbar_k)(H_l - tbar_l)) that carry a floored state's lambda0 I
    into its table, built once per family, on its first floored read."""

    @staticmethod
    def _dense_traces(family):
        """tr(H_k)/D and tr((H_k - tbar_k)(H_l - tbar_l)) from the dense
        members, with the Frobenius norms of the centered members."""
        tbar = np.array([np.trace(op.matrix).real for op in family]) / family.dim
        flat = np.stack([(op.matrix - t * np.eye(family.dim)).ravel() for op, t in zip(family, tbar)])
        real = flat.view(float)  # tr(A_k A_l) = Re <A_k, A_l> for Hermitian A
        gram = real @ real.T
        return tbar, gram, np.sqrt(gram.diagonal())

    def _check(self, family, tbar_want, gram, norms):
        tbar, trace = family.trace_factor
        assert trace.shape == (len(family), len(family))
        assert (np.abs(tbar - tbar_want) <= 1e-13 * np.abs(tbar_want).max()).all()
        assert (np.abs(trace @ trace.T - gram) <= 1e-13 * np.outer(norms, norms)).all()

    @pytest.mark.parametrize("n", [4, 16, 200])
    def test_factor_matches_the_dense_traces_of_spin_families(self, n):
        basis = DickeBasis(n)
        # the order-k family is a prefix of the order-6 one: one dense reference serves all
        tbar, gram, norms = self._dense_traces(build_spin_family(basis, 6))
        for k in range(1, 7):
            size = spin_family_size(k)
            self._check(build_spin_family(basis, k), tbar[:size], gram[:size, :size], norms[:size])

    @pytest.mark.parametrize("cutoff", [4, 20, 61])
    def test_factor_matches_the_dense_traces_of_cv_families(self, cutoff):
        # built afresh, past the shared cache, whose families no floored state reads
        for family in cv._families.__wrapped__(FockBasis(cutoff)):
            self._check(family, *self._dense_traces(family))

    def test_factor_is_read_only_and_built_once(self):
        basis, state = _noisy_tat_point(16)
        family = build_spin_family(basis, 3)
        spin_squeezing_profile(state, basis, 3, family=family)
        tbar, trace = built = family.__dict__["trace_factor"]
        assert not tbar.flags.writeable and not trace.flags.writeable
        spin_squeezing_profile(state, basis, 3, family=family)
        chi2_inverse_opt(state, family, [1.0, 0.0, 0.0])
        assert family.trace_factor is built and family.__dict__["trace_factor"] is built

    def test_pure_states_never_build_it(self):
        basis = DickeBasis(16)
        family = build_spin_family(basis, 3)
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec("TAT", 0.7))
        spin_squeezing_profile(state, basis, 3, family=family)
        f_max_density(state, basis)
        assert "trace_factor" not in family.__dict__ and "trace_factor" not in basis.spin_axes.__dict__
        cv._families.cache_clear()  # the solve's own, fresh families
        fock = FockBasis(12)
        direction = cv.QuadratureDirection.from_phase(0.3).as_array()
        assert chi2_inverse_opt(fock_state(fock, 3), build_cv_third_order_family(fock), direction).chi2_inv > 0
        for family in cv._families(fock):
            assert "trace_factor" not in family.__dict__

    def test_zero_and_identity_members_are_exact_zeros(self):
        # neither a zero member nor c I varies in any state: on the floored
        # table both have rows of rounding noise, which the exact-zero rule zeroes
        basis, state = _noisy_tat_point(16)
        assert state._floor is not None
        dim = basis.dimension
        ops = [*build_spin_operators(basis), HermitianOperator(np.zeros((dim, dim)), "0"),
               HermitianOperator(0.7 * np.eye(dim), "c I")]
        family = OperatorFamily.from_operators(ops, basis.tag)
        rows, gram = _centered_rows(state, family)
        assert rows.shape == (5, dim + 6)
        rows, gamma, c = moments_of(state, family)
        assert not rows[3:].any() and not gamma[3:].any() and not gamma[:, 3:].any()
        assert not c[3:].any() and not c[:, 3:].any()
        assert np.abs(gamma[:3, :3]).max() > 1.0
        md = moment_data(state, family)
        assert md.kernel_leakage == 0.0 and not md.robertson_violated
        assert not chi2_inverse_opt(state, family, [0.0, 1.0, 0.0]).robertson_violated


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
        # only to about eps lambda_max / lambda_min (ROADMAP, "Retention from
        # the rows' own rank": the whitening residue)
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


def _moment_matrix_reference(gamma, c):
    """`moment_matrix` as it was before its per-call work was trimmed: it
    symmetrized every input, equilibrated through np.clip, np.divide and a
    symmetrized copy, and took its norms from np.linalg.norm."""
    gamma = np.asarray(gamma, dtype=float)
    c = np.asarray(c, dtype=float)
    k = gamma.shape[0]
    if gamma.shape != (k, k) or c.shape != (k, k):
        raise ValueError("gamma and c must be square matrices of equal size")
    if not np.abs(gamma - gamma.T).max() <= 1e-10 * np.abs(gamma).max() < np.inf:
        raise ValueError("gamma is not a finite symmetric matrix")
    if not np.abs(c + c.T).max() <= 1e-10 * np.abs(c).max() < np.inf:
        raise ValueError("c is not a finite skew-symmetric matrix")
    gamma = (gamma + gamma.T) / 2
    c = (c - c.T) / 2
    dev = np.sqrt(np.clip(np.diag(gamma), 0.0, None))
    scales = np.divide(1.0, dev, out=np.ones_like(dev), where=dev > 0.0)
    gamma_eq = gamma * scales[:, None] * scales[None, :]
    c_eq = c * scales[:, None] * scales[None, :]
    evals, evecs = np.linalg.eigh((gamma_eq + gamma_eq.T) / 2)
    lam_top = evals[-1]
    if evals[0] < -1e-10 * lam_top:
        raise ValueError("gamma has a negative eigenvalue beyond tolerance")
    keep = evals > 1e-12 * lam_top
    retained = evecs[:, keep] / np.sqrt(evals[keep])
    proj = (retained.T @ c_eq) * dev
    m = proj.T @ proj
    c_norm = float(np.linalg.norm(c_eq))
    dropped = evecs[:, ~keep]
    if dropped.shape[1] and c_norm > 0:
        leakage = float(np.linalg.norm(c_eq @ dropped, axis=0).max() / c_norm)
    else:
        leakage = 0.0
    return MomentData(gamma, c, m, retained, leakage, scales, c_norm)


_MOMENT_FIELDS = ("gamma", "c", "m_matrix", "retained", "kernel_leakage", "scales", "c_norm")


def _moment_bytes(md):
    return {name: np.asarray(getattr(md, name)).tobytes() for name in _MOMENT_FIELDS}


class TestMomentMatrixBytes:
    """`moment_matrix` gives the reference's bytes in every field: it keeps an
    exactly (skew-)symmetric input instead of symmetrizing it, but forms
    every other value with the same operations in the same order."""

    @staticmethod
    def _prefixes(state, family, k_max):
        _, gamma, c = moments_of(state, family)
        return [(gamma[:cnt, :cnt], c[:cnt, :cnt]) for cnt in map(spin_family_size, range(1, k_max + 1))]

    def _table_cases(self):
        basis16, basis7 = DickeBasis(16), DickeBasis(7)
        fam16, fam7 = build_spin_family(basis16, 5), build_spin_family(basis7, 6)
        taus = np.linspace(0.0, np.pi, 101)
        for row in range(47, 54):
            state = evolve(coherent_spin_state_z(basis16), EvolutionSpec("OAT", float(taus[row])))
            yield from self._prefixes(state, fam16, 5)
        yield from self._prefixes(_noisy_tat_point(16, tau=0.4)[1], fam16, 5)
        yield from self._prefixes(evolve(coherent_spin_state_z(basis7), EvolutionSpec("OAT", np.pi / 2)), fam7, 6)

    @staticmethod
    def _random_pairs(rng):
        """Positive-definite, rank-deficient and partly zero covariances with
        skew partners, made exactly (skew-)symmetric."""
        for size in (1, 3, 9, 34):
            a = rng.normal(size=(size, size)) * np.logspace(0, 6, size)
            b = rng.normal(size=(size, size))
            low = a[:, :max(1, size // 2)]
            zeroed = a @ a.T
            zeroed[:, :1] = zeroed[:1, :] = 0.0
            for gamma in (a @ a.T, low @ low.T, zeroed):
                yield (gamma + gamma.T) / 2, b - b.T

    def _assert_reference_bytes(self, gamma, c):
        got, want = moment_matrix(gamma, c), _moment_matrix_reference(gamma, c)
        assert _moment_bytes(got) == _moment_bytes(want)
        assert type(got.kernel_leakage) is float and type(got.c_norm) is float

    def test_family_tables(self):
        cases = list(self._table_cases())
        assert len(cases) == 8 * 5 + 6
        for gamma, c in cases:
            # tables from the row kernel are exactly symmetric: the copy branch
            assert np.array_equal(gamma, gamma.T) and np.array_equal(c, -c.T)
            self._assert_reference_bytes(gamma, c)

    def test_random_pairs(self, rng):
        for gamma, c in self._random_pairs(rng):
            self._assert_reference_bytes(gamma, c)

    def test_near_symmetric_inputs_are_symmetrized(self, rng):
        # an entrywise relative residue of 1e-13 passes the 1e-10 check and
        # takes the symmetrizing branch; the factors 1 +- e leave the
        # (skew-)symmetric part, so a rank-deficient gamma stays semidefinite
        pairs = list(self._random_pairs(rng)) + list(self._table_cases())[::5]
        for gamma, c in pairs[3:]:  # the 1 x 1 pairs have no off-diagonal entry
            noise = 1e-13 * rng.normal(size=(2,) + gamma.shape)
            gamma = gamma * (1.0 + noise[0] - noise[0].T)
            c = c * (1.0 + noise[1] - noise[1].T)
            assert not np.array_equal(gamma, gamma.T) and not np.array_equal(c, -c.T)
            self._assert_reference_bytes(gamma, c)

    def test_result_owns_its_arrays(self, rng):
        # the profile passes views of one table; a later write to the caller's
        # arrays must not reach the MomentData
        basis = DickeBasis(16)
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", 0.3))
        _, gamma, c = moments_of(state, build_spin_family(basis, 3))
        gamma_near = gamma + 1e-13 * np.abs(gamma).max() * rng.normal(size=gamma.shape)
        for g, cc in ((gamma[:9, :9], c[:9, :9]), (gamma_near, c.copy())):
            md = moment_matrix(g, cc)
            before = _moment_bytes(md)
            g[...] = 7.0
            cc[...] = 3.0
            assert _moment_bytes(md) == before


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

    @pytest.mark.parametrize("slots, n_vec", [([0, 0], [0.6, 0.8]), ([-1], [1.0]), ([9], [1.0]),
                                              ([True], [1.0]), ([], [])],
                             ids=["repeated", "negative", "beyond", "bool", "empty"])
    def test_rejects_invalid_slots(self, slots, n_vec):
        # unchecked, [0, 0] reported the direction [0.6, 0.8] but measured
        # 0.8 Jx alone, [-1] used Jz^2, and [9] raised an IndexError; an
        # empty direction is refused as no unit vector before its slots
        basis = DickeBasis(8)
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", 0.3))
        fam = build_spin_family(basis, 2)
        message = "generator_slots must be distinct integers in 0..8"
        with pytest.raises(ValueError) as caught:
            optimize_generator(moment_data(state, fam), slots)
        assert str(caught.value) == message
        with pytest.raises(ValueError) as caught:
            chi2_inverse_opt(state, fam, n_vec, generator_slots=slots)
        assert str(caught.value) == (message if slots else "generator direction must be a unit vector")

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

    def test_tie_window_scales_with_the_matrix(self):
        # below unit scale the window must shrink with the matrix: (1, 0) is
        # no eigenvector for 2e-13
        vec, lam = principal_eigenpair(np.diag([1e-13, 2e-13]))
        assert vec.tolist() == [0.0, 1.0] and lam == 2e-13

    def test_tie_window_is_set_by_each_matrix_of_a_stack(self):
        # the tiny matrix keeps its own window next to a large one
        vecs, lams = principal_eigenpair(np.stack([np.diag([1e-13, 2e-13]), np.diag([1e6, 2e6])]))
        assert vecs.tolist() == [[0.0, 1.0], [0.0, 1.0]] and lams.tolist() == [2e-13, 2e6]

    @pytest.mark.parametrize("scale", [1e-14, 1e-8, 1.0, 1e6])
    def test_vector_does_not_depend_on_units(self, rng, scale):
        a = rng.normal(size=(4, 4))
        psd = a @ a.T
        vec, _ = principal_eigenpair(psd)
        scaled, _ = principal_eigenpair(scale * psd)
        assert np.abs(scaled - vec).max() <= 1e-12

    @staticmethod
    def _rule(matrix):
        """The tie-break written out one matrix at a time: of the eigenvectors
        within 1e-12 max|eigenvalue| of the top eigenvalue, the lowest-ranked
        one whose largest |coefficient| has the smallest index, signed so
        that this coefficient is positive."""
        evals, evecs = np.linalg.eigh((matrix + matrix.T) / 2)
        lam = evals[-1]
        tol = 1e-12 * max(abs(evals[0]), abs(lam))
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
        basis, css, fam = css_and_linear_family(n)
        res = chi2_inverse_opt(css, fam, [1.0, 0.0, 0.0])
        assert abs(res.chi2_inv - n) < 1e-10
        assert abs(basis.shot_noise / res.chi2_inv - 1.0) < 1e-10  # xi2 = F_SN / chi2_inv = 1
        assert abs(np.linalg.norm(res.m_coeffs) - 1.0) < 1e-12

    def test_chi2_inverse_opt_kernel_direction(self):
        n = 16
        _, css, fam = css_and_linear_family(n)
        res = chi2_inverse_opt(css, fam, [0.0, 0.0, 1.0])
        assert res.chi2_inv == 0.0  # exactly: xi2 = F_SN / chi2_inv is infinite
        assert res.m_coeffs is None

    def test_chi2_inverse_opt_requires_unit_direction(self):
        n = 4
        _, css, fam = css_and_linear_family(n)
        with pytest.raises(ValueError, match="unit"):
            chi2_inverse_opt(css, fam, [2.0, 0.0, 0.0])
        # a NaN direction is no unit vector, not a direction without signal
        with pytest.raises(ValueError, match="unit"):
            chi2_inverse_opt(css, fam, [np.nan, 0.0, 0.0])

    @pytest.mark.parametrize("tag", ["dicke-N0", "fock-D1", "test"])
    def test_dimension_one_family_has_no_shot_noise_limit(self, tag):
        # a one-level family carries no signal, whatever its tag, and no
        # basis accepts one level, so there is no shot-noise limit to divide
        fam = OperatorFamily(np.ones((1, 1, 1)), ["1"], (1,), tag)
        res = chi2_inverse_opt(QuantumState.pure([1.0], tag), fam, [1.0])
        assert res.chi2_inv == 0.0 and res.m_coeffs is None
        with pytest.raises(ValueError):
            DickeBasis(0)
        with pytest.raises(ValueError):
            FockBasis(1)

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

    @staticmethod
    def _scaled_problem(scale):
        rng = np.random.default_rng(0)
        family = random_family(rng, 6, 6)
        family = OperatorFamily(family.bands * scale, family.labels, family.degrees, family.basis_tag)
        return random_pure_state(rng, 6), family

    def test_large_operators_keep_their_signal(self):
        # at 1e50 the second moments reach 1e100 and their products 1e200:
        # chi^-2 scales as the square of the operators, the error-propagation
        # parameter as the inverse square
        state, unit = self._scaled_problem(1.0)
        _, large = self._scaled_problem(1e50)
        n_vec = [0.6, 0.8, 0.0, 0.0, 0.0, 0.0]
        want = chi2_inverse_opt(state, unit, n_vec).chi2_inv
        assert want > 0.0
        assert chi2_inverse_opt(state, large, n_vec).chi2_inv == pytest.approx(1e100 * want, rel=1e-12)
        want = chi2_error_propagation(state, unit[0], unit[1])
        assert chi2_error_propagation(state, large[0], large[1]) == pytest.approx(1e-100 * want, rel=1e-12)

    def test_overflowing_second_moments_are_refused(self):
        # at 1e100 Var X Var H overflows: the Robertson bound became inf, so
        # the solve reported "no signal" (chi2_inv 0.0, ZeroSignalError), with
        # numpy overflow warnings, where chi^-2 is finite
        state, family = self._scaled_problem(1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow the float range"):
                chi2_inverse_opt(state, family, [0.6, 0.8, 0.0, 0.0, 0.0, 0.0])
            with pytest.raises(ValueError, match="overflow the float range"):
                chi2_error_propagation(state, family[0], family[1])

    @staticmethod
    def _scaled_axes(scale):
        """Jx, Jy, Jz of N = 8, scaled, as a family."""
        axes = build_spin_family(DickeBasis(8), 1)
        return OperatorFamily(axes.bands * scale, axes.labels, axes.degrees, axes.basis_tag)

    @pytest.mark.parametrize("scale", [1e160, 1e170, 1e200])
    def test_huge_members_are_not_taken_for_exact_zeros(self, scale):
        # the Gram diagonal overflows to inf at all three scales; compared with
        # (100 e_k) ** 2, which overflows too above about 3e166, every member
        # passed for an exact zero and the solve reported "no signal" (0.0)
        family = self._scaled_axes(scale)
        state = coherent_spin_state_z(DickeBasis(8))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"(overflow|invalid value) encountered in (matmul|subtract)",
                                    RuntimeWarning)
            with pytest.raises(ValueError, match="gamma is not a finite symmetric matrix"):
                chi2_inverse_opt(state, family, [1.0, 0.0, 0.0])

    def test_small_operators_keep_their_error_propagation(self):
        # (Delta X)^2 / |<[X, H]>|^2 scales as 1 / s^2; below about 1e-77 the
        # squared commutator leaves the normal range (1e-80: 2.6e-5 off; 1e-100: inf)
        state = evolve(coherent_spin_state_z(DickeBasis(8)), EvolutionSpec("OAT", 0.3))
        unit = self._scaled_axes(1.0)
        want = chi2_error_propagation(state, unit[0], unit[1])
        for scale in (1e-60, 1e-80, 1e-100):
            small = self._scaled_axes(scale)
            got = chi2_error_propagation(state, small[0], small[1])
            assert got == pytest.approx(want / scale ** 2, rel=1e-12), scale


def _public_chain(state, family, n_coeffs, slots):
    """`chi2_inverse_opt` written out through the public gate and generator
    optimization: moment_matrix -> optimize_generator -> _squeeze."""
    rows, gamma, c = moments_of(state, family)
    md = moment_matrix(gamma, c)
    lam = optimize_generator(md, slots)[1]
    return moments._squeeze(md, rows, slots, np.asarray(n_coeffs, dtype=float), lam)


class TestFixedGeneratorSolve:
    """`chi2_inverse_opt` solves the table `_family_moments` builds without
    the public gate's residue checks and reads only the top eigenvalue of
    its slot block, yet gives the public chain's bits in every field."""

    @staticmethod
    def _assert_chain_bits(state, family, n_coeffs, slots=None):
        got = chi2_inverse_opt(state, family, n_coeffs, generator_slots=slots)
        want = _public_chain(state, family, n_coeffs, family.linear_slots() if slots is None else list(slots))
        assert np.float64(got.chi2_inv).tobytes() == np.float64(want.chi2_inv).tobytes()
        assert got.lambda_max == want.lambda_max and type(got.lambda_max) is float
        assert got.n_coeffs.tobytes() == want.n_coeffs.tobytes()
        assert (got.m_coeffs is None) == (want.m_coeffs is None)
        if want.m_coeffs is not None:
            assert got.m_coeffs.tobytes() == want.m_coeffs.tobytes()
        assert got.kernel_leakage == want.kernel_leakage
        assert _moment_bytes(got.moments) == _moment_bytes(want.moments)
        assert _moment_bytes(moment_data(state, family)) == _moment_bytes(want.moments)
        return got

    @pytest.mark.parametrize("phase", [0.0, 0.7])
    def test_fock_states(self, phase):
        direction = cv.QuadratureDirection.from_phase(phase).as_array()
        signals = 0
        for n in range(61):
            for pad in (8, 12):
                basis = FockBasis(n + pad)
                for family in (build_cv_second_order_family(basis), build_cv_third_order_family(basis)):
                    signals += self._assert_chain_bits(fock_state(basis, n), family, direction).m_coeffs is not None
        assert signals == 61 * 2 * 2

    def test_coherent_states(self):
        basis = FockBasis(24)
        for alpha in (0.0, 0.5, 1.0 + 0.5j, -1.5j):
            for family in (build_cv_second_order_family(basis), build_cv_third_order_family(basis)):
                for phase in (0.0, 0.3, 2.0):
                    direction = cv.QuadratureDirection.from_phase(phase).as_array()
                    self._assert_chain_bits(cv.coherent_state(basis, alpha), family, direction)

    @pytest.mark.parametrize("slots", [[0, 1, 2], [2, 0], [3, 5, 8], [1, 7, 11, 18]])
    def test_random_spin_states(self, rng, slots):
        basis = DickeBasis(12)
        family = build_spin_family(basis, 3)
        dim = basis.dimension
        states = [random_pure_state(rng, dim, basis.tag), random_density(rng, dim, basis.tag),
                  random_density(rng, dim, basis.tag, rank=3),
                  evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", np.pi / 2))]
        for state in states:
            n_vec = rng.normal(size=len(slots))
            self._assert_chain_bits(state, family, n_vec / np.linalg.norm(n_vec), slots)
            self._assert_chain_bits(state, family, np.eye(len(slots))[0], slots)

    @pytest.mark.parametrize("bad, message", [
        ({"gamma": np.nan}, "gamma is not a finite symmetric matrix"),
        ({"gamma": np.inf, "c": np.nan}, "gamma is not a finite symmetric matrix"),
        ({"c": -np.inf}, "c is not a finite skew-symmetric matrix"),
    ], ids=["gamma", "both", "c"])
    def test_a_non_finite_table_gets_the_gates_message(self, monkeypatch, bad, message):
        _, state, family = css_and_linear_family(8)
        rows, gamma, c = moments_of(state, family)
        tables = {"gamma": gamma, "c": c}
        for name, value in bad.items():
            tables[name][0, 1] = tables[name][1, 0] = value
        monkeypatch.setattr(moments, "_family_moments", lambda *_: (rows, gamma, c))
        solves = (lambda: moment_matrix(gamma, c), lambda: moment_data(state, family),
                  lambda: chi2_inverse_opt(state, family, [1.0, 0.0, 0.0]))
        with np.errstate(invalid="ignore"):  # the gate's residue of an infinite entry
            for solve in solves:
                with pytest.raises(ValueError, match=f"^{message}$"):
                    solve()

    def test_an_overflowing_family_gets_the_gates_message(self):
        # members of 1e160: the Gram matrix overflows before any signal is formed
        _, state, family = css_and_linear_family(8)
        huge = OperatorFamily(family.bands * 1e160, family.labels, family.degrees, family.basis_tag)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="^gamma is not a finite symmetric matrix$"):
                moment_matrix(*moments_of(state, huge)[1:])
            with pytest.raises(ValueError, match="^gamma is not a finite symmetric matrix$"):
                chi2_inverse_opt(state, huge, [1.0, 0.0, 0.0])

    def test_solve_runs_neither_the_gate_nor_the_vector_selection(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("called")

        monkeypatch.setattr(moments, "moment_matrix", refuse)
        monkeypatch.setattr(moments, "principal_eigenpair", refuse)
        basis = FockBasis(13)
        res = chi2_inverse_opt(fock_state(basis, 5), build_cv_third_order_family(basis), [0.6, 0.8])
        assert abs(res.chi2_inv - 22.0) <= 1e-9 * 22.0
        _, state, family = css_and_linear_family(8)
        assert chi2_inverse_opt(state, family, [1.0, 0.0, 0.0]).chi2_inv == pytest.approx(8.0)
        assert moment_data(state, family).retained_count == 2


class TestSpinSqueezingOrders:
    def test_css_linear_coefficient_is_shot_noise(self):
        basis = DickeBasis(16)
        css = coherent_spin_state_z(basis)
        res = spin_squeezing_profile(css, basis, 1)[-1]
        assert abs(basis.shot_noise / res.chi2_inv - 1.0) < 1e-10
        assert abs(res.lambda_max - 16.0) < 1e-9

    def test_short_time_oat_is_spin_squeezed(self):
        basis = DickeBasis(16)
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", 0.05))
        res = spin_squeezing_profile(state, basis, 1)[-1]
        assert basis.shot_noise / res.chi2_inv < 1.0

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

    @pytest.mark.parametrize("point", ["readme row 48", "readme row 52", "pi/2", "noisy TAT",
                                       "noisy TAT N=60", "full rank N=60"])
    def test_profile_is_the_public_per_order_path_bit_for_bit(self, point):
        # rows 48 and 52 of the README grid raise the integrity flag at order
        # 5; tau = pi/2 has a degenerate generator plane and orders without
        # signal; the noisy TAT points take the spectral floor, and the
        # generic full-rank N=60, K=3 table has 5 row chunks and 5 column slices
        k_max = 5
        if point == "noisy TAT":
            basis, state = _noisy_tat_point(16, tau=0.4)
        elif point == "noisy TAT N=60":
            (basis, state), k_max = _noisy_tat_point(60), 3
        elif point == "full rank N=60":
            basis, k_max = DickeBasis(60), 3
            state = random_density(np.random.default_rng(20260810), 61, basis.tag)
        else:
            basis, state = self._readme_point({"readme row 48": 48, "readme row 52": 52}.get(point))
        family = build_spin_family(basis, k_max)
        gamma, c = covariance_matrix(state, family), moment_data(state, family).c
        rows, _ = _centered_rows(state, family)
        profile = spin_squeezing_profile(state, basis, k_max, family=family)
        for k, res in enumerate(profile, start=1):
            cnt = spin_family_size(k)
            md = moment_matrix(gamma[:cnt, :cnt], c[:cnt, :cnt])
            n_opt, lam = optimize_generator(md, [0, 1, 2])
            try:
                m = optimal_measurement(md, n_opt)
            except ZeroSignalError:
                m = None
            signal = None if m is None else _signal(m @ rows[:cnt], n_opt @ rows[[0, 1, 2]])
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
            rows, _ = _centered_rows(state, family)
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


def _noisy_twisted(basis, model, tau, noise=0.1):
    """The +z coherent state mixed with `noise` of the maximally mixed state,
    then twisted."""
    dim = basis.dimension
    rho = (1.0 - noise) * coherent_spin_state_z(basis).density_matrix() + noise * np.eye(dim) / dim
    return evolve(QuantumState.mixed(rho, basis.tag), EvolutionSpec(model, tau))


class TestExactZeroMembers:
    """Members whose centered row is rounding noise, as Jx^2 = Jy^2 = Jz^2 = I/4
    for spin 1/2, keep no covariance direction: once the family spans every
    operator (K >= N), the optimized chi^-2 is F_Q (Braunstein & Caves)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_complete_family_reaches_f_max_and_never_exceeds_it(self, n):
        rng = np.random.default_rng(7)
        basis = DickeBasis(n)
        family = build_spin_family(basis, 6)
        dim = basis.dimension
        states = [random_density(rng, dim, basis.tag, rank=rank) for rank in (None, 2) for _ in range(6)]
        states += [_noisy_twisted(basis, model, tau) for model in ("OAT", "TAT") for tau in (0.3, 1.1, 2.4)]
        for state in states:
            profile = spin_squeezing_profile(state, basis, 6, family=family)
            f_q = n * f_max_density(state, basis)[0]
            for res in profile:
                assert res.chi2_inv <= f_q * (1.0 + 1e-8)
                assert res.moments.retained_count <= dim * dim - 1
            assert abs(profile[-1].chi2_inv - f_q) <= 1e-10 * f_q

    @pytest.mark.parametrize("n, k_max", [(16, 5), (16, 6), (7, 6), (40, 5), (100, 4), (400, 3)])
    def test_twisting_frame_does_not_change_the_profile(self, n, k_max):
        # exp(-i tau Jz^2) on +x is the sweep's exp(-i tau Jy^2) on +z seen in
        # a rotated frame, and the family of all monomials up to degree K is
        # closed under rotations; at tau = pi/2 the diagonal frame used to
        # keep noise directions of members that are exact zeros there
        basis = DickeBasis(n)
        family = build_spin_family(basis, k_max)
        m = basis.m_values
        plus_x = np.sqrt([math.comb(n, k) / 2 ** n for k in range(n + 1)])
        start = coherent_spin_state_z(basis)
        for tau in np.linspace(0.0, np.pi, 101):
            diagonal = QuantumState.pure(np.exp(-1j * tau * m ** 2) * plus_x, basis.tag)
            swept = evolve(start, EvolutionSpec("OAT", float(tau)))
            got = [r.chi2_inv / n for r in spin_squeezing_profile(diagonal, basis, k_max, family=family)]
            want = [r.chi2_inv / n for r in spin_squeezing_profile(swept, basis, k_max, family=family)]
            np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9, err_msg=f"tau = {tau!r}")


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
    # the multinomial draw counts in int64
    (lambda: simulate_moment_estimator(*_css_jx_jy(), 0.0, mu=2**63, trials=2, seed=0), ValueError,
     "mu must be >= 1 and <= 9223372036854775807"),
    (lambda: simulate_moment_estimator(*_css_jx_jy(), 0.0, mu=100, trials=1, seed=0), ValueError,
     "at least two trials"),
    (lambda: simulate_moment_estimator(*_css_jx_jy(), 0.0, mu=100, trials=2, seed=0, window=(0.1, 0.5)),
     ValueError, "strictly inside the window"),
    # both ends are finite floats, their distance is not
    (lambda: simulate_moment_estimator(*_css_jx_jy(), 0.0, mu=100, trials=2, seed=0,
                                       window=(-1e308, 1e308)), ValueError, "window width must be finite"),
    (lambda: spin_squeezing_profile(coherent_spin_state_z(DickeBasis(16)), DickeBasis(20), 1,
                                    family=build_spin_family(DickeBasis(16), 1)),
     BasisMismatchError, "family does not live in the given Dicke basis"),
], ids=["shapes differ", "outside retained", "generator length", "family order", "infinite xi2",
        "mu 0", "mu beyond int64", "one trial", "theta outside window", "window beyond float range", "family of another basis"])
def test_refusals(make, exc, fragment):
    with pytest.raises(exc, match=fragment):
        make()
