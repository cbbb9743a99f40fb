import numpy as np
import pytest

from nlsqueeze import HermitianOperator, OperatorFamily, QuantumState


def random_hermitian(rng, dim, label="H", degree=1):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((a + a.conj().T) / 2, label, degree=degree)


def random_pure_state(rng, dim, basis_tag="test"):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState.pure(vec / np.linalg.norm(vec), basis_tag)


def random_density(rng, dim, basis_tag="test", rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return QuantumState.mixed(rho, basis_tag)


def random_family(rng, dim, size):
    ops = [random_hermitian(rng, dim, label=f"H{k}") for k in range(size)]
    return OperatorFamily.from_operators(ops, "test")


def angle_between(u, v):
    """Angle between two unit vectors up to overall sign, robust near zero."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    chord = min(np.linalg.norm(u - v), np.linalg.norm(u + v))
    return 2.0 * np.arcsin(min(chord / 2.0, 1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
