"""Truncated single-mode Fock space: quadratures, cubic families, states."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .operators import MAX_DIMENSION as MAX_CUTOFF
from .operators import HermitianOperator, OperatorFamily, dense_matrix, ladder_bands
# symmetric_product: unused, kept for perfbench's trace targets
from .operators import symmetric_product
from .states import QuantumState

RENORM_WARN_TOL = 1e-10


@dataclass(frozen=True)
class FockBasis:
    """Number basis |0> ... |cutoff-1> of a single bosonic mode, with
    2 <= cutoff <= MAX_CUTOFF."""

    cutoff: int

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")
        if self.cutoff > MAX_CUTOFF:
            raise ValueError(f"cutoff {self.cutoff} exceeds the dense limit {MAX_CUTOFF}")

    @property
    def tag(self) -> str:
        return f"fock-D{self.cutoff}"


def parse_fock_tag(tag: str) -> int | None:
    if tag.startswith("fock-D"):
        try:
            return int(tag[len("fock-D"):])
        except ValueError:
            return None
    return None


@dataclass(frozen=True)
class QuadratureDirection:
    """Unit vector (n1, n2) selecting the quadrature n1*x + n2*p."""

    n1: float
    n2: float

    def __post_init__(self):
        if abs(self.n1 ** 2 + self.n2 ** 2 - 1.0) > 1e-12:
            raise ValueError("quadrature direction must be a unit vector")

    @classmethod
    def from_phase(cls, phi: float) -> "QuadratureDirection":
        """Direction sensing a displacement of phase phi: (sin(phi), -cos(phi))."""
        return cls(math.sin(phi), -math.cos(phi))

    def as_array(self) -> np.ndarray:
        return np.array([self.n1, self.n2])


_QUADRATURES = ("x", "p")


def _quadrature_bands(basis: FockBasis) -> np.ndarray:
    """Bands (cutoff, 2, 3) of x and p, from <n-1|a|n> = sqrt(n)."""
    upper = np.zeros(basis.cutoff)
    upper[:-1] = np.sqrt(np.arange(1, basis.cutoff))
    return ladder_bands(upper, np.sqrt(2))


def build_quadratures(basis: FockBasis):
    """Quadratures x = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2)."""
    bands = _quadrature_bands(basis)
    return tuple(HermitianOperator(dense_matrix(bands[:, a]), label, degree=1)
                 for a, label in enumerate(_QUADRATURES))


def quadrature_generator(basis: FockBasis, direction: QuadratureDirection) -> HermitianOperator:
    x, p = build_quadratures(basis)
    return HermitianOperator(
        direction.n1 * x.matrix + direction.n2 * p.matrix, "q_n", degree=1
    )


def build_cv_second_order_family(basis: FockBasis) -> OperatorFamily:
    """Quadratures plus all symmetric quadratic combinations (five members)."""
    return OperatorFamily.from_factors(_quadrature_bands(basis), _QUADRATURES,
                                       [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], basis.tag)


def build_cv_third_order_family(basis: FockBasis) -> OperatorFamily:
    """Quadratures plus the four symmetric cubic observables (six members)."""
    if basis.cutoff < 4:
        raise ValueError("cutoff must be >= 4 for cubic operators")
    return OperatorFamily.from_factors(_quadrature_bands(basis), _QUADRATURES,
                                       [(1, 0), (0, 1), (3, 0), (2, 1), (1, 2), (0, 3)], basis.tag)


def default_cutoff(n: int) -> int:
    """Cutoff used when analyzing Fock state |n> with cubic observables.

    Cubic operators connect |n> to |n +- 3>, so n + 8 leaves safety margin
    for every second moment entering the covariance matrix.
    """
    return n + 8


def fock_state(basis: FockBasis, n: int) -> QuantumState:
    if not 0 <= n <= basis.cutoff - 1:
        raise ValueError(f"Fock index {n} outside basis of cutoff {basis.cutoff}")
    vec = np.zeros(basis.cutoff, dtype=complex)
    vec[n] = 1.0
    return QuantumState.pure(vec, basis.tag)


def coherent_state(basis: FockBasis, alpha: complex) -> QuantumState:
    """Truncated coherent state, renormalized after the cutoff.

    Requires |alpha|^2 <= cutoff/4 so that the truncated tail stays small;
    warns when the renormalization correction exceeds 1e-10.
    """
    if abs(alpha) ** 2 > basis.cutoff / 4:
        raise ValueError(
            f"|alpha|^2 = {abs(alpha) ** 2:.3g} exceeds cutoff/4 = {basis.cutoff / 4:.3g}"
        )
    n = np.arange(basis.cutoff)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, basis.cutoff)))))
    if alpha == 0:
        amps = np.zeros(basis.cutoff, dtype=complex)
        amps[0] = 1.0
    else:
        amps = np.exp(
            n * np.log(complex(alpha)) - abs(alpha) ** 2 / 2 - log_fact / 2
        )
    norm = np.linalg.norm(amps)
    correction = abs(1.0 - norm)
    if correction > RENORM_WARN_TOL:
        warnings.warn(
            f"coherent state renormalization correction {correction:.3e} "
            f"exceeds {RENORM_WARN_TOL:.0e}; consider a larger cutoff",
            stacklevel=2,
        )
    return QuantumState.pure(amps / norm, basis.tag)
