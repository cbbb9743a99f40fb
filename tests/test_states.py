import numpy as np
import pytest
from conftest import random_hermitian

from nlsqueeze import (
    DickeBasis,
    EvolutionSpec,
    OperatorFamily,
    QuantumState,
    coherent_spin_state_z,
    commutator_matrix,
    evolve,
)
from nlsqueeze.dynamics import twisting_generator
from nlsqueeze.states import DENSITY_EIG_FLOOR


class TestValidation:
    def test_pure_rejects_non_unit_norm(self):
        with pytest.raises(ValueError, match="norm"):
            QuantumState.pure([1.0, 1.0], "test")

    def test_mixed_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            QuantumState.mixed(rho, "test")

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
        assert abs(state.expectation(a) - mean) < 1e-12
        assert abs(state.variance(a) - var) < 1e-12
        # c_01 = -i <[A, B]>, from the family's centered rows
        c = commutator_matrix(state, OperatorFamily.from_operators([a_op, b_op], "test"))
        assert abs(1j * c[0, 1] - comm) < 1e-12
