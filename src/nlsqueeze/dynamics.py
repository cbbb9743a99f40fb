"""Coherent spin states and twisting evolutions (one-axis, twist-and-turn)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError
from .operators import HermitianOperator
from .spin import DickeBasis, build_spin_operators, parse_dicke_tag
from .states import QuantumState

MODELS = ("OAT", "TAT")


@dataclass(frozen=True)
class EvolutionSpec:
    """Twisting model and dimensionless evolution time."""

    model: str
    tau: float

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")


class HermitianPropagator:
    """Applies exp(-i theta H) for a fixed Hermitian generator H.

    The generator is diagonalized once; each application costs two dense
    products with the state's factor S (one column for a pure state).
    Instances are immutable and safe to share.
    """

    def __init__(self, generator: HermitianOperator):
        self.generator = generator
        evals, evecs = np.linalg.eigh(generator.matrix)
        self._evals = evals
        self._evecs = evecs

    def apply(self, state: QuantumState, theta: float) -> QuantumState:
        if state.dim != self.generator.dim:
            raise BasisMismatchError("state dimension does not match the generator")
        # rotate the factor S of rho = S S^dagger into the eigenbasis and back;
        # E^dagger S is formed as (S^dagger E)^dagger so that no D x D copy is made
        coeffs = (state.factor.conj().T @ self._evecs).conj().T
        s = self._evecs @ (np.exp(-1j * theta * self._evals)[:, None] * coeffs)
        return QuantumState(state.basis_tag, s / np.linalg.norm(s))


def twisting_generator(basis: DickeBasis, model: str) -> HermitianOperator:
    """Jy^2 for OAT, Jy^2 - (N/2) Jz for twist-and-turn."""
    _, jy, jz = build_spin_operators(basis)
    jy2 = jy.matrix @ jy.matrix
    if model == "OAT":
        return HermitianOperator(jy2, "Jy^2", degree=2)
    if model == "TAT":
        return HermitianOperator(
            jy2 - (basis.n_particles / 2) * jz.matrix, "Jy^2 - (N/2) Jz", degree=2
        )
    raise ValueError(f"model must be one of {MODELS}")


@functools.lru_cache(maxsize=32)
def _cached_propagator(model: str, n_particles: int) -> HermitianPropagator:
    return HermitianPropagator(twisting_generator(DickeBasis(n_particles), model))


def coherent_spin_state_z(basis: DickeBasis) -> QuantumState:
    """Maximal-Jz Dicke state: every spin polarized along +z."""
    vec = np.zeros(basis.dimension, dtype=complex)
    vec[0] = 1.0
    return QuantumState.pure(vec, basis.tag)


def evolve(state: QuantumState, spec: EvolutionSpec) -> QuantumState:
    """Evolve a Dicke-basis state under the chosen twisting Hamiltonian.

    The generator eigendecomposition is cached per (model, N) so that a tau
    sweep costs two products with the state's factor per point.
    """
    n = parse_dicke_tag(state.basis_tag)
    if n is None:
        raise BasisMismatchError(
            f"twisting evolution needs a Dicke-basis state, got {state.basis_tag!r}"
        )
    if state.dim != n + 1:
        raise BasisMismatchError("state dimension does not match its Dicke tag")
    return _cached_propagator(spec.model, n).apply(state, spec.tau)
