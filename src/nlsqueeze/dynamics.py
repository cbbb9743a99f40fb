"""Coherent spin states and twisting evolutions (one-axis, twist-and-turn)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError
from .operators import MAX_DIMENSION, HermitianOperator, dense_matrix, symmetrized_bands
# build_spin_operators: unused, kept for perfbench's trace targets
from .spin import DickeBasis, _spin_bands, build_spin_operators
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

    H is diagonalized once: in real arithmetic when its entries are real,
    and per index-parity block (rows 0, 2, 4, ... and rows 1, 3, 5, ...)
    when no entry couples an even row to an odd one, as for the twisting
    generators.  Each application rotates the matching rows of the state's
    factor S (one column for a pure state) into each block's eigenbasis and
    back; a real eigenbasis acts on the float view of S, so it is never cast
    to complex.  A theta whose phases theta * lambda leave float range is
    refused.  Instances are immutable and safe to share.
    """

    def __init__(self, generator: HermitianOperator):
        if not isinstance(generator, HermitianOperator):  # only it checks Hermiticity
            raise TypeError(f"operator must be a HermitianOperator, not {type(generator).__name__}")
        self._decompose(generator.matrix)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a HermitianPropagator is immutable")

    @classmethod
    def _from_matrix(cls, h: np.ndarray) -> "HermitianPropagator":
        """The twisting propagator's path past the Hermitian gate: a real matrix stays real."""
        prop = cls.__new__(cls)
        prop._decompose(h)
        return prop

    def _decompose(self, h: np.ndarray) -> None:
        if h.dtype == complex and not h.imag.any():
            h = h.real
        if h[::2, 1::2].any():  # an even row couples to an odd one: one block
            mats = h[None]
        else:  # rows 0, 2, ... and rows 1, 3, ..., the shorter padded with zeros
            mats = np.zeros((2, (len(h) + 1) // 2, (len(h) + 1) // 2), h.dtype)
            mats[0] = h[::2, ::2]
            mats[1, :len(h) // 2, :len(h) // 2] = h[1::2, 1::2]
        evals, evecs = np.linalg.eigh(mats)
        for array in (evals, evecs):  # shared by `_cached_propagator`'s callers
            array.setflags(write=False)
        for name, value in dict(dim=len(h), _evals=evals, _evecs=evecs,
                                _lam_max=float(np.abs(evals).max())).items():
            object.__setattr__(self, name, value)

    def apply(self, state: QuantumState, theta: float) -> QuantumState:
        """exp(-i theta H) applied to the state (see `QuantumState._rotated`)."""
        if state.dim != self.dim:
            raise BasisMismatchError("state dimension does not match the generator")
        theta = float(theta)  # a Python float product overflows to inf without a warning
        if not math.isfinite(theta * self._lam_max):  # also NaN theta
            raise ValueError(f"theta {theta!r} times the generator's largest |eigenvalue| is not finite")
        return state._rotated(functools.partial(self._rotate, theta=theta))

    def _rotate(self, factor: np.ndarray, theta: float) -> np.ndarray:
        """exp(-i theta H) S for a factor S of any number of columns."""
        blocks, size = self._evals.shape
        s = np.zeros((size * blocks, factor.shape[1]), dtype=complex)
        s[:self.dim] = factor
        s = s.reshape(size, blocks, -1).transpose(1, 0, 2)  # s[p] = rows p, p + blocks, ...
        phase, e = np.exp(-1j * theta * self._evals)[..., None], self._evecs
        if e.dtype == complex:
            # E^dagger S is formed as (S^dagger E)^dagger so that no D x D copy is made
            s = e @ (phase * (s.conj().transpose(0, 2, 1) @ e).conj().transpose(0, 2, 1))
        else:  # E (a + ib) = E a + i E b, so E is never cast to complex
            coeffs = (e.transpose(0, 2, 1) @ s.view(float)).view(complex)
            s = (e @ (phase * coeffs).view(float)).view(complex)
        return s.transpose(1, 0, 2).reshape(size * blocks, -1)[:self.dim]


def _twisting_band(basis: DickeBasis, model: str) -> np.ndarray:
    """Band (D, 5), held real, of Jy^2 (OAT) or Jy^2 - (N/2) Jz (TAT): the
    ladder recursion gives real entries, each exactly its mirror's."""
    jy2, jz = symmetrized_bands(_spin_bands(basis), [(0, 2, 0), (0, 0, 1)]).real.transpose(1, 0, 2)
    if model == "OAT":
        return jy2
    if model == "TAT":
        return jy2 - (basis.n_particles / 2) * jz
    raise ValueError(f"model must be one of {MODELS}")


def twisting_generator(basis: DickeBasis, model: str) -> HermitianOperator:
    """Jy^2 for OAT, Jy^2 - (N/2) Jz for twist-and-turn, densified from its
    band; it is real and couples only levels m of equal parity."""
    label = "Jy^2" if model == "OAT" else "Jy^2 - (N/2) Jz"
    return HermitianOperator(dense_matrix(_twisting_band(basis, model)), label, degree=2)


@functools.lru_cache(maxsize=32)
def _cached_propagator(model: str, n_particles: int) -> HermitianPropagator:
    return HermitianPropagator._from_matrix(dense_matrix(_twisting_band(DickeBasis(n_particles), model)))


def coherent_spin_state_z(basis: DickeBasis) -> QuantumState:
    """Maximal-Jz Dicke state: every spin polarized along +z."""
    vec = np.zeros(basis.dimension, dtype=complex)
    vec[0] = 1.0
    return QuantumState.pure(vec, basis.tag)


def evolve(state: QuantumState, spec: EvolutionSpec) -> QuantumState:
    """Evolve a Dicke-basis state under the chosen twisting Hamiltonian.

    The generator's real, per-parity eigendecomposition is cached per
    (model, N), so a tau sweep costs two real rotations of each half of the
    state's factor per point.
    """
    n = state.dim - 1
    if not (2 <= state.dim <= MAX_DIMENSION and state.basis_tag == DickeBasis(n).tag):
        raise BasisMismatchError(f"twisting evolution needs a Dicke-basis state: basis "
                                 f"{state.basis_tag!r} of dimension {state.dim} does not match its Dicke tag")
    return _cached_propagator(spec.model, n).apply(state, spec.tau)
