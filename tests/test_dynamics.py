import tracemalloc

import numpy as np
import pytest

from nlsqueeze import (
    BasisMismatchError,
    DickeBasis,
    EvolutionSpec,
    FockBasis,
    HermitianPropagator,
    QuantumState,
    build_spin_family,
    build_spin_operators,
    coherent_spin_state_z,
    evolve,
    f_max_density,
    fock_state,
    parity_operator,
    spin_squeezing_profile,
    symmetric_product,
    twisting_generator,
)
from nlsqueeze.dynamics import _cached_propagator, _twisting_band
from nlsqueeze.operators import dense_matrix

EPS = np.finfo(float).eps


def _direct(matrix, factor, theta):
    """exp(-i theta H) S from a complex eigh of the dense matrix."""
    evals, evecs = np.linalg.eigh(matrix)
    return (evecs * np.exp(-1j * theta * evals)) @ (evecs.conj().T @ factor)


def _test_state(basis, kind, rng):
    dim = basis.dimension
    if kind == "pure":
        s = rng.normal(size=(dim, 1)) + 1j * rng.normal(size=(dim, 1))
    elif kind == "rank3":
        s = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    else:  # white noise of weight 0.1 on the coherent state: one column per level
        css = coherent_spin_state_z(basis).density_matrix()
        return QuantumState.mixed(0.9 * css + 0.1 * np.eye(dim) / dim, basis.tag)
    return QuantumState(basis.tag, s / np.linalg.norm(s))


@pytest.mark.parametrize("n", [2, 7, 16])
def test_coherent_spin_state_moments(n):
    basis = DickeBasis(n)
    css = coherent_spin_state_z(basis)
    jx, jy, jz = build_spin_operators(basis)
    assert abs(css.expectation(jz) - n / 2) < 1e-12
    assert abs(css.variance(jz)) < 1e-12
    assert abs(css.variance(jx) - n / 4) < 1e-12
    assert abs(css.variance(jy) - n / 4) < 1e-12


def test_tau_zero_is_identity():
    basis = DickeBasis(6)
    css = coherent_spin_state_z(basis)
    out = evolve(css, EvolutionSpec("OAT", 0.0))
    assert abs(np.vdot(css.vector, out.vector)) > 1 - 1e-12


def test_unitarity_over_grid():
    css = coherent_spin_state_z(DickeBasis(12))
    for model in ("OAT", "TAT"):
        for tau in np.linspace(0.0, np.pi, 9):
            out = evolve(css, EvolutionSpec(model, float(tau)))
            assert abs(np.linalg.norm(out.vector) - 1.0) < 1e-10


# the propagator does not renormalize: its rotation alone keeps ||S|| = 1,
# far inside the 1e-12 that QuantumState checks, up to N = 1023 and tau = 1e6
@pytest.mark.parametrize("model", ["OAT", "TAT"])
@pytest.mark.parametrize("n, kind", [(16, "pure"), (60, "pure"), (401, "pure"), (1023, "pure"),
                                     (16, "mixed"), (60, "mixed"), (401, "mixed")])
def test_evolution_preserves_the_norm(model, n, kind, rng):
    basis = DickeBasis(n)
    state = coherent_spin_state_z(basis) if kind == "pure" else _test_state(basis, kind, rng)
    for tau in [*np.linspace(0.0, np.pi, 41), 1e3, 1e6]:
        out = evolve(state, EvolutionSpec(model, float(tau)))
        assert abs(np.linalg.norm(out.factor) - 1.0) <= 1e-13, tau


def test_composition():
    css = coherent_spin_state_z(DickeBasis(10))
    for model in ("OAT", "TAT"):
        one = evolve(evolve(css, EvolutionSpec(model, 0.4)), EvolutionSpec(model, 0.9))
        two = evolve(css, EvolutionSpec(model, 1.3))
        fidelity = abs(np.vdot(one.vector, two.vector)) ** 2
        assert fidelity > 1 - 1e-9


def test_oat_revival_at_pi_is_the_antipodal_coherent_state():
    # for even N the tau = pi state is again a spin coherent state, pointing
    # along -z; the true fidelity revival happens at tau = 2 pi
    n = 16
    basis = DickeBasis(n)
    css = coherent_spin_state_z(basis)
    at_pi = evolve(css, EvolutionSpec("OAT", np.pi))
    antipodal = np.zeros(n + 1, dtype=complex)
    antipodal[-1] = 1.0
    assert abs(np.vdot(antipodal, at_pi.vector)) ** 2 > 1 - 1e-9
    at_2pi = evolve(css, EvolutionSpec("OAT", 2 * np.pi))
    assert abs(np.vdot(css.vector, at_2pi.vector)) ** 2 > 1 - 1e-9


def test_oat_ghz_reaches_heisenberg_sensitivity():
    n = 16
    basis = DickeBasis(n)
    ghz = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", np.pi / 2))
    fmax, _ = f_max_density(ghz, basis)
    assert abs(fmax - n) < 1e-8  # F_Q = N^2


def test_tat_generator_matrix():
    basis = DickeBasis(6)
    _, jy, jz = build_spin_operators(basis)
    gen = twisting_generator(basis, "TAT")
    want = jy.matrix @ jy.matrix - 3.0 * jz.matrix
    assert np.abs(gen.matrix - want).max() < 1e-13


def test_mixed_state_evolution_matches_pure():
    basis = DickeBasis(6)
    css = coherent_spin_state_z(basis)
    spec = EvolutionSpec("TAT", 0.7)
    pure_out = evolve(css, spec)
    # a zero second column: a two-column factor whose rho is the coherent state
    mixed = QuantumState(basis.tag, np.column_stack([css.vector, np.zeros(7)]))
    mixed_out = evolve(mixed, spec)
    assert mixed_out.factor.shape == (7, 2)
    assert np.abs(mixed_out.density_matrix() - pure_out.density_matrix()).max() < 1e-12


def test_evolve_rejects_non_dicke_states():
    vac = fock_state(FockBasis(4), 0)
    with pytest.raises(BasisMismatchError):
        evolve(vac, EvolutionSpec("OAT", 0.1))


def test_evolution_spec_validation():
    with pytest.raises(ValueError):
        EvolutionSpec("XYZ", 0.1)
    with pytest.raises(ValueError):
        EvolutionSpec("OAT", float("inf"))


def test_phase_beyond_float_range_is_refused():
    basis = DickeBasis(5)
    css = coherent_spin_state_z(basis)
    prop = HermitianPropagator(twisting_generator(basis, "OAT"))
    for theta in (1e308, float("nan")):
        with pytest.raises(ValueError, match="not finite"):
            prop.apply(css, theta)
    with pytest.raises(ValueError, match="not finite"):
        evolve(css, EvolutionSpec("TAT", 1e308))


def _white_noise(n, weight=0.1):
    basis = DickeBasis(n)
    css = coherent_spin_state_z(basis).density_matrix()
    dim = basis.dimension
    return basis, QuantumState.mixed((1.0 - weight) * css + weight * np.eye(dim) / dim, basis.tag)


class TestCarriedFloor:
    """A state with a floor split, rho = lambda0 I + S' S'^dagger, evolves by
    rotating S' alone; its factor U S is formed when first read."""

    def test_sweep_point_never_forms_the_full_factor(self, monkeypatch):
        basis, state = _white_noise(60)
        family = build_spin_family(basis, 3)
        rotate = HermitianPropagator._rotate

        def columns_above_the_floor_only(self, factor, theta):
            if factor.shape[1] == len(factor):
                raise AssertionError("the D x D factor was rotated")
            return rotate(self, factor, theta)

        monkeypatch.setattr(HermitianPropagator, "_rotate", columns_above_the_floor_only)
        for model in ("OAT", "TAT"):
            out = evolve(evolve(state, EvolutionSpec(model, 0.7)), EvolutionSpec(model, 0.2))
            assert out.dim == 61 and not out.is_pure
            spin_squeezing_profile(out, basis, 3, family=family)
            f_max_density(out, basis)
            assert out._factor is None
            with pytest.raises(AssertionError, match="D x D factor was rotated"):
                out.factor

    def test_factor_read_later_is_the_unsplit_evolution(self):
        # the full factor rotated at once, step by step; the deferred factor
        # must be that array byte for byte, also after two steps and under a
        # complex generator (Jy)
        basis, state = _white_noise(60)
        assert state._floor is not None
        jy = build_spin_operators(basis)[1]
        for prop, theta in ((_cached_propagator("OAT", 60), 0.7), (_cached_propagator("TAT", 60), 0.7),
                            (HermitianPropagator(jy), 0.3)):
            lazy = prop.apply(prop.apply(state, theta), -2.0 * theta)
            eager = prop._rotate(prop._rotate(state.factor, theta), -2.0 * theta)
            assert lazy._factor is None
            assert lazy.factor.tobytes() == eager.tobytes()
            assert not lazy.factor.flags.writeable and lazy.factor is lazy.factor

    def test_theta_and_trace_are_checked_when_applied(self, monkeypatch):
        basis, state = _white_noise(16)
        prop = _cached_propagator("TAT", 16)
        for theta in (1e308, float("nan")):
            with pytest.raises(ValueError, match="not finite"):
                prop.apply(state, theta)
        rotate = HermitianPropagator._rotate
        monkeypatch.setattr(HermitianPropagator, "_rotate", lambda self, s, theta: 2.0 * rotate(self, s, theta))
        with pytest.raises(ValueError, match="state norm .* is not 1"):
            prop.apply(state, 0.3)


def test_generator_eigensystem_reused_across_sweep():
    from nlsqueeze.dynamics import _cached_propagator

    _cached_propagator.cache_clear()
    css = coherent_spin_state_z(DickeBasis(9))
    for tau in (0.1, 0.2, 0.3, 0.4):
        evolve(css, EvolutionSpec("OAT", tau))
    info = _cached_propagator.cache_info()
    assert info.misses == 1
    assert info.hits == 3


def test_propagator_matches_direct_exponential():
    basis = DickeBasis(5)
    jx = build_spin_operators(basis)[0]
    prop = HermitianPropagator(jx)
    theta = 0.63
    evals, evecs = np.linalg.eigh(jx.matrix)
    direct = (evecs * np.exp(-1j * theta * evals)) @ evecs.conj().T
    css = coherent_spin_state_z(basis)
    out = prop.apply(css, theta)
    assert np.abs(out.vector - direct @ css.vector).max() < 1e-12


@pytest.mark.parametrize("model", ["OAT", "TAT"])
@pytest.mark.parametrize("n", [1, 2, 15, 16, 60])
@pytest.mark.parametrize("kind", ["pure", "rank3", "noise"])
def test_twisting_propagator_matches_complex_eigh(model, n, kind, rng):
    # independent reference: a complex eigh of the generator formed from the
    # dense spin matrices; both sides carry rounding of order eps tau ||H||_2
    basis = DickeBasis(n)
    _, jy, jz = build_spin_operators(basis)
    h = jy.matrix @ jy.matrix - (n / 2 * jz.matrix if model == "TAT" else 0.0)
    norm = np.linalg.norm(h, 2)
    state = _test_state(basis, kind, rng)
    if kind == "noise":
        assert state.factor.shape[1] == n + 1
    for tau in (0.1, np.pi / 2, np.pi, 1e3):
        out = evolve(state, EvolutionSpec(model, tau))
        assert out.factor.shape == state.factor.shape
        err = np.abs(out.factor - _direct(h, state.factor, tau)).max()
        assert err <= 10 * EPS * (tau * norm + 1), (tau, err)
    # the generator is real and couples only levels of equal parity
    prop = _cached_propagator(model, n)
    assert prop._evecs.dtype == float and len(prop._evals) == 2


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("name, real, split", [
    ("Jx", True, False),  # real, couples m to m +- 1
    ("Jy", False, False),  # complex: one complex block
    ("Jz", True, True),  # diagonal
    ("P", True, None),  # flips m -> -m: same parity exactly when N is even
    ("S[Jx Jy]", False, True),  # complex, couples m to m +- 2
])
def test_propagator_field_and_blocks_of_generic_generators(n, name, real, split, rng):
    basis = DickeBasis(n)
    ops = dict(zip(("Jx", "Jy", "Jz"), build_spin_operators(basis)), P=parity_operator(basis))
    ops["S[Jx Jy]"] = symmetric_product([ops["Jx"], ops["Jy"]])
    prop = HermitianPropagator(ops[name])
    split = n % 2 == 0 if split is None else split
    assert (prop._evecs.dtype == float) == real
    assert len(prop._evals) == (2 if split else 1)
    state = _test_state(basis, "rank3", rng)
    for theta in (0.63, -2.1):
        out = prop.apply(state, theta)
        assert np.abs(out.factor - _direct(ops[name].matrix, state.factor, theta)).max() < 1e-13


def test_oat_propagator_build_allocates_no_complex_dense_matrix():
    # at D = 401 the real generator takes 1.3 MB and its real half-size
    # blocks and eigenvectors 0.65 MB each (2.6 MB traced in all); one complex
    # D x D matrix takes 2.6 MB, and the dense complex build peaked at 15.6 MB
    tracemalloc.start()
    try:
        _cached_propagator.__wrapped__("OAT", 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("n", [1, 2, 7, 16, 400])
@pytest.mark.parametrize("model", ["OAT", "TAT"])
def test_twisting_bands_are_exactly_hermitian(model, n):
    # the band comes from a gated family, which keeps the exact Hermitian part
    band = _twisting_band(DickeBasis(n), model)
    assert band.dtype == float
    mat = dense_matrix(band)
    assert np.array_equal(mat, mat.T)


@pytest.mark.parametrize("make, exc, fragment", [
    (lambda: HermitianPropagator(twisting_generator(DickeBasis(4), "OAT")).apply(
        coherent_spin_state_z(DickeBasis(5)), 0.1), BasisMismatchError, "does not match the generator"),
    (lambda: twisting_generator(DickeBasis(4), "XYZ"), ValueError, "model must be one of"),
    (lambda: evolve(QuantumState.pure([1.0, 0.0, 0.0], "dicke-N4"), EvolutionSpec("OAT", 0.1)),
     BasisMismatchError, "does not match its Dicke tag"),
    (lambda: evolve(fock_state(FockBasis(5), 0), EvolutionSpec("OAT", 0.1)),
     BasisMismatchError, "needs a Dicke-basis state"),
    (lambda: evolve(QuantumState.pure([1.0], "dicke-N0"), EvolutionSpec("OAT", 0.1)),
     BasisMismatchError, "needs a Dicke-basis state"),
    (lambda: HermitianPropagator(np.eye(2)), TypeError, "must be a HermitianOperator, not ndarray"),
], ids=["propagator dimension", "unknown model", "dimension against tag", "fock state", "one level",
        "raw array generator"])
def test_refusals(make, exc, fragment):
    with pytest.raises(exc, match=fragment):
        make()
