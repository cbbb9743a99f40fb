import numpy as np
import pytest

from nlsqueeze import (
    BasisMismatchError,
    DickeBasis,
    EvolutionSpec,
    FockBasis,
    HermitianPropagator,
    QuantumState,
    build_spin_operators,
    coherent_spin_state_z,
    evolve,
    f_max_density,
    fock_state,
    twisting_generator,
)


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
