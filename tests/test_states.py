import numpy as np
import pytest
from conftest import random_hermitian

from nlsqueeze import (
    BasisMismatchError,
    DickeBasis,
    EvolutionSpec,
    HermitianOperator,
    HermitianPropagator,
    OperatorFamily,
    QuantumState,
    build_spin_operators,
    chi2_error_propagation,
    classical_fisher,
    coherent_spin_state_z,
    evolve,
    moment_data,
    qfi,
    simulate_moment_estimator,
)
from nlsqueeze.dynamics import twisting_generator
from nlsqueeze.states import DENSITY_EIG_FLOOR, spectral_floor

EPS = np.finfo(float).eps


class TestValidation:
    def test_pure_rejects_non_unit_norm(self):
        with pytest.raises(ValueError, match="norm"):
            QuantumState.pure([1.0, 1.0], "test")

    def test_mixed_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            QuantumState.mixed(rho, "test")

    @pytest.mark.parametrize("make", [
        lambda: QuantumState.pure([np.nan, 0.0], "test"),
        lambda: QuantumState.mixed(np.diag([np.nan, 1.0]), "test"),
        lambda: QuantumState("test", np.array([[np.nan], [0.0]])),
    ], ids=["pure", "mixed", "factor"])
    def test_rejects_nan(self, make):
        # a NaN fails every `x > tol` test, so the checks must be written to reject it
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("make", [
        lambda v: QuantumState.pure(v, "test"),
        lambda v: QuantumState("test", v.reshape(-1, 1)),
    ], ids=["pure", "factor"])
    def test_copies_the_callers_array(self, make):
        # the norm is checked once, so a state sharing the caller's memory
        # could be changed afterwards into one that is not normalized
        v = np.array([1.0, 0.0, 0.0], dtype=complex)
        state = make(v)
        assert v.flags.writeable
        v[0] = 5.0
        assert np.linalg.norm(state.factor) == 1.0
        assert not state.factor.flags.writeable

    def test_mixed_rejects_trace_not_one(self):
        with pytest.raises(ValueError, match="trace"):
            QuantumState.mixed(np.eye(2) / 3, "test")

    def test_mixed_rejects_eigenvalue_below_floor(self):
        rho = np.diag([1.0 - 2 * DENSITY_EIG_FLOOR, 2 * DENSITY_EIG_FLOOR])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            QuantumState.mixed(rho, "test")

    def test_mixed_keeps_positive_part_renormalized(self):
        # the third eigenvalue is negative but above the floor (floor < 0)
        rho = np.diag([0.6, 0.4 - 0.5 * DENSITY_EIG_FLOOR, 0.5 * DENSITY_EIG_FLOOR])
        state = QuantumState.mixed(rho, "test")
        assert state.factor.shape == (3, 2)
        assert abs(np.linalg.norm(state.factor) - 1.0) < 1e-15
        assert not state.is_pure
        with pytest.raises(ValueError, match="mixed"):
            state.vector


def test_mixed_drops_rounding_noise_eigenvalues():
    # the density of an evolved pure state has eigenvalues at rounding level
    basis = DickeBasis(6)
    pure = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", 0.4))
    rho = pure.density_matrix()
    state = QuantumState.mixed(rho, basis.tag)
    assert state.factor.shape == (7, 1)
    assert state.is_pure
    assert np.abs(state.density_matrix() - rho).max() <= 1e-14


def test_mixed_keeps_every_noise_weighted_direction():
    # white noise of weight 0.1 leaves every eigenvalue at or above 0.1 / dim
    basis = DickeBasis(60)
    css = coherent_spin_state_z(basis)
    rho = 0.9 * css.density_matrix() + 0.1 * np.eye(61) / 61
    state = QuantumState.mixed(rho, basis.tag)
    assert state.factor.shape == (61, 61)
    assert np.abs(state.density_matrix() - rho).max() <= 1e-14


def _white_noise(n, weight):
    basis = DickeBasis(n)
    dim = basis.dimension
    rho = (1.0 - weight) * coherent_spin_state_z(basis).density_matrix() + weight * np.eye(dim) / dim
    return QuantumState.mixed(rho, basis.tag)


class TestSpectralFloor:
    @pytest.mark.parametrize("weight", [0.01, 0.1, 0.9])
    def test_white_noise_splits_off_the_identity(self, weight):
        state = evolve(_white_noise(60, weight), EvolutionSpec("TAT", 0.7))
        lam0, s_top = spectral_floor(state.factor)
        assert s_top.shape == (61, 1)
        assert abs(lam0 - weight / 61) <= 1e-15
        assert abs(np.linalg.norm(s_top) ** 2 - (1.0 - weight)) <= 1e-14
        split = lam0 * np.eye(61) + s_top @ s_top.conj().T
        assert np.abs(split - state.density_matrix()).max() <= 1e-15

    def test_taken_only_when_it_narrows_the_table(self):
        # one rule for every band: r' + 3 < r, the columns per row of the
        # table over [S' | sqrt(lambda0) I] in the band of Jx, Jy, Jz
        assert spectral_floor(_white_noise(3, 0.1).factor) is None  # D = 4: 1 + 3 columns, not fewer than 4
        assert spectral_floor(_white_noise(4, 0.1).factor)[1].shape == (5, 1)
        assert spectral_floor(QuantumState.mixed(np.eye(3) / 3, "test").factor) is None  # 0 + 3, not fewer than 3
        lam0, s_top = spectral_floor(QuantumState.mixed(np.eye(4) / 4, "test").factor)
        assert lam0 == pytest.approx(1 / 4, rel=1e-15) and s_top.shape == (4, 0)

    def test_maximally_mixed_keeps_no_column(self):
        lam0, s_top = spectral_floor(QuantumState.mixed(np.eye(61) / 61, "test").factor)
        assert lam0 == pytest.approx(1 / 61, rel=1e-15) and s_top.shape == (61, 0)

    def test_pure_generic_and_rank_deficient_states_have_none(self, rng):
        assert spectral_floor(coherent_spin_state_z(DickeBasis(60)).factor) is None
        a = rng.normal(size=(61, 61)) + 1j * rng.normal(size=(61, 61))
        generic = QuantumState.mixed(a @ a.conj().T / np.linalg.norm(a) ** 2, "test")
        assert generic.factor.shape == (61, 61)  # full rank, distinct eigenvalues
        assert spectral_floor(generic.factor) is None
        rho = np.diag(np.r_[0.5, np.full(59, 0.5 / 59), 0.0])  # a wide floor, but rank 60 < 61
        assert spectral_floor(QuantumState.mixed(rho, "test").factor) is None


class TestCarriedSplit:
    """A state finds its floor split once, where its factor is made (the rule
    of `spectral_floor`, r' + 3 < r), and keeps it."""

    def test_made_once_with_the_factor(self):
        state = _white_noise(60, 0.1)
        lam0, s_top = state._floor
        want_lam0, want_top = spectral_floor(state.factor)
        assert lam0 == want_lam0 and s_top.tobytes() == want_top.tobytes()
        assert not s_top.flags.writeable
        # `mixed()` goes through the constructor, whose rotation leaves the
        # factor row-major: `moments._center` ravels it without a D x r copy
        assert state.factor.flags.c_contiguous and not state.factor.flags.writeable
        # a factor handed to the constructor is split after its rotation
        built = QuantumState(state.basis_tag, state.factor)
        assert built._floor[1].shape == (61, 1) and abs(built._floor[0] - lam0) <= 1e-17

    def test_kept_only_when_it_narrows_the_axes_table(self):
        assert _white_noise(3, 0.1)._floor is None  # D = 4: 1 + 3 columns, not fewer than 4
        assert _white_noise(4, 0.1)._floor[1].shape == (5, 1)

    def test_pure_generic_and_rank_deficient_states_carry_none(self, rng):
        a = rng.normal(size=(61, 61)) + 1j * rng.normal(size=(61, 61))
        rho = np.diag(np.r_[0.5, np.full(59, 0.5 / 59), 0.0])
        for state in (coherent_spin_state_z(DickeBasis(60)),
                      QuantumState.mixed(a @ a.conj().T / np.linalg.norm(a) ** 2, "test"),
                      QuantumState.mixed(rho, "test")):
            assert state._floor is None

    def test_split_off_unit_trace_is_not_kept(self):
        # 499 floor eigenvalues spread within the cut eps D lambda_max of the
        # smallest: each is taken as exactly lambda0, so the split's trace
        # misses 1 by far more than a norm's rounding, and evolution, which
        # checks the trace, would refuse a state whose factor is fine
        dim = 500
        lam = np.r_[0.5, 0.5 / (dim - 1) + np.linspace(0.0, 0.9, dim - 1) * EPS * dim * 0.5]
        lam /= lam.sum()
        state = QuantumState("test", np.diag(np.sqrt(lam)))
        # the split's trace: D lambda0 for the floor, and lambda_max - lambda0
        # for the one column above it
        assert abs(dim * lam.min() + (lam.max() - lam.min()) - 1.0) > 1e-11
        assert spectral_floor(state.factor) is None
        assert state._floor is None
        out = HermitianPropagator(HermitianOperator(np.diag(np.arange(dim, dtype=float)), "H")).apply(state, 0.3)
        assert abs(np.linalg.norm(out.factor) - 1.0) <= 1e-14

    def test_states_are_immutable(self):
        state = _white_noise(8, 0.1)
        for name in ("factor", "basis_tag", "_floor"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(state, name, None)


def test_evolution_keeps_rank_and_matches_direct_exponential():
    basis = DickeBasis(6)
    rho = np.zeros((7, 7))
    rho[[0, 2, 5], [0, 2, 5]] = [0.5, 0.3, 0.2]
    state = QuantumState.mixed(rho, basis.tag)
    assert state.factor.shape == (7, 3)
    tau = 0.7
    out = evolve(state, EvolutionSpec("TAT", tau))
    assert out.factor.shape == (7, 3)
    evals, evecs = np.linalg.eigh(twisting_generator(basis, "TAT").matrix)
    u = (evecs * np.exp(-1j * tau * evals)) @ evecs.conj().T
    assert np.abs(out.density_matrix() - u @ rho @ u.conj().T).max() < 1e-12


def test_pure_state_is_one_column():
    css = coherent_spin_state_z(DickeBasis(4))
    assert css.is_pure
    assert css.factor.shape == (5, 1)
    assert np.array_equal(css.vector, css.factor[:, 0])


def test_moments_match_trace_formulas(rng):
    dim = 6
    for _ in range(5):
        s = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        rho = s @ s.conj().T
        rho /= np.trace(rho).real
        state = QuantumState.mixed(rho, "test")
        a_op = random_hermitian(rng, dim)
        b_op = random_hermitian(rng, dim)
        a, b = a_op.matrix, b_op.matrix
        mean = np.trace(a @ rho).real
        centered = a - mean * np.eye(dim)
        var = np.trace(centered @ centered @ rho).real
        comm = np.trace((a @ b - b @ a) @ rho)
        assert abs(state.expectation(a_op) - mean) < 1e-12
        assert abs(state.variance(a_op) - var) < 1e-12
        # c_01 = -i <[A, B]>, from the family's centered rows
        c = moment_data(state, OperatorFamily.from_operators([a_op, b_op], "test")).c
        assert abs(1j * c[0, 1] - comm) < 1e-12


def _css_jx_jy(n=4):
    basis = DickeBasis(n)
    jx, jy, _ = build_spin_operators(basis)
    return coherent_spin_state_z(basis), jx, jy


_ESTIMATE = {"theta_true": 0.0, "mu": 100, "trials": 2, "seed": 0}


@pytest.mark.parametrize("call", [
    lambda css, u, jx, jy: css.expectation(u),
    lambda css, u, jx, jy: css.variance(u),
    lambda css, u, jx, jy: qfi(css, u),
    lambda css, u, jx, jy: chi2_error_propagation(css, u, jy),
    lambda css, u, jx, jy: chi2_error_propagation(css, jx, u),
    lambda css, u, jx, jy: classical_fisher(css, u, jy, 0.1),
    lambda css, u, jx, jy: classical_fisher(css, jx, u, 0.1),
    lambda css, u, jx, jy: simulate_moment_estimator(css, u, jy, **_ESTIMATE),
    lambda css, u, jx, jy: simulate_moment_estimator(css, jx, u, **_ESTIMATE),
], ids=["expectation", "variance", "qfi", "chi2 generator", "chi2 observable",
        "classical_fisher generator", "classical_fisher observable",
        "estimator generator", "estimator observable"])
def test_raw_arrays_are_refused_as_operators(call):
    # only `HermitianOperator` checks Hermiticity, so a bare matrix is no
    # operator: the strictly upper U would give qfi 0 and a real mean
    css, jx, jy = _css_jx_jy()
    with pytest.raises(TypeError, match="must be a HermitianOperator"):
        call(css, np.triu(np.ones((5, 5)), 1), jx, jy)


@pytest.mark.parametrize("make, exc, fragment", [
    (lambda: QuantumState("test", np.array([1.0, 0.0])), ValueError, "must be a matrix"),
    (lambda: QuantumState("test", np.zeros((3, 0))), ValueError, "at least one column"),
    (lambda: QuantumState.mixed(np.ones(4) / 4, "test"), ValueError, "square matrix"),
    (lambda: _css_jx_jy(4)[0].expectation(build_spin_operators(DickeBasis(5))[0]), BasisMismatchError,
     "does not match state dimension"),
    (lambda: moment_data(_css_jx_jy(4)[0], OperatorFamily.from_operators(_css_jx_jy(4)[1:], "other")),
     BasisMismatchError, "does not match family basis"),
    (lambda: moment_data(QuantumState.pure([1.0, 0.0], "test"),
                         OperatorFamily.from_operators([_css_jx_jy(2)[1]], "test")),
     BasisMismatchError, "dimensions differ"),
], ids=["vector factor", "no column", "density not square", "operator dimension", "basis tag",
        "family dimension"])
def test_refusals(make, exc, fragment):
    with pytest.raises(exc, match=fragment):
        make()
