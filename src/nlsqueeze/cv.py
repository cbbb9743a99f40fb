"""Truncated single-mode Fock space: quadratures, cubic families, states."""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .operators import (MAX_DIMENSION, HermitianOperator, OperatorFamily, _sym_label, dense_matrix,
                        ladder_bands, symmetrized_bands)
# symmetric_product: unused, kept for perfbench's trace targets
from .operators import symmetric_product
from .states import QuantumState

RENORM_WARN_TOL = 1e-10


@dataclass(frozen=True)
class FockBasis:
    """Number basis |0> ... |cutoff-1> of a single bosonic mode, with
    2 <= cutoff <= MAX_DIMENSION."""

    cutoff: int

    def __post_init__(self):
        if isinstance(self.cutoff, bool) or not isinstance(self.cutoff, (int, np.integer)) or self.cutoff < 2:
            raise ValueError(f"cutoff must be an integer >= 2, got {self.cutoff!r}")
        if self.cutoff > MAX_DIMENSION:
            raise ValueError(f"cutoff {self.cutoff} exceeds the dense limit {MAX_DIMENSION}")

    @property
    def tag(self) -> str:
        return f"fock-D{self.cutoff}"

    @property
    def shot_noise(self) -> float:
        """Shot-noise limit F_SN = 2 of a single mode (a coherent state's)."""
        return 2.0


@dataclass(frozen=True)
class QuadratureDirection:
    """Unit vector (n1, n2) selecting the quadrature n1*x + n2*p."""

    n1: float
    n2: float

    def __post_init__(self):
        if not abs(self.n1 ** 2 + self.n2 ** 2 - 1.0) <= 1e-12:  # NaN fails too
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


def quadrature_generator(basis: FockBasis, direction: QuadratureDirection) -> HermitianOperator:
    """The quadrature n1*x + n2*p, densified from the bands of x and p."""
    x, p = _quadrature_bands(basis).transpose(1, 0, 2)
    return HermitianOperator(dense_matrix(direction.n1 * x + direction.n2 * p), "q_n", degree=1)


# The x, p multi-degrees of total degree 1..3, and the members of each order
_HIERARCHY = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))
_SECOND_ORDER, _THIRD_ORDER = (0, 1, 2, 3, 4), (0, 1, 5, 6, 7, 8)


@functools.lru_cache(maxsize=2)
def _hierarchy_bands(basis: FockBasis) -> np.ndarray:
    """Bands of the nine monomials of `_HIERARCHY`, read-only: one recursion
    for both orders, whose levels 1 and 2 are the second-order build's bit for
    bit.  A scan over n asks for a cutoff's cubic family in the problem after
    the one that built its second order, and its first problem builds two
    cutoffs, so 2 entries serve both orders (1 entry: 73 recursions for the 65
    cutoffs of n = 0..60)."""
    band = symmetrized_bands(_quadrature_bands(basis), _HIERARCHY)
    band.setflags(write=False)
    return band


def _gated(basis: FockBasis, members) -> OperatorFamily:
    """The family of `members` of the hierarchy's band, on the central columns
    their top degree reaches (the band's width 3 is the top degree of all nine)."""
    degrees = [_HIERARCHY[k] for k in members]
    cut = 3 - max(map(sum, degrees))
    band = _hierarchy_bands(basis)
    # contiguous, as the gate walks it slower in the layout a fancy index leaves
    band = np.ascontiguousarray(band[:, list(members), cut:band.shape[2] - cut])
    labels = [_sym_label(zip(_QUADRATURES, d)) for d in degrees]
    return OperatorFamily(band, labels, tuple(map(sum, degrees)), basis.tag)


# Each builder keeps its last 8 families, one per basis (a frozen, hashable
# value), and hands the same read-only family to every caller; both gate their
# members from `_hierarchy_bands`, so a cutoff asked for at both orders takes
# one recursion.  A scan over consecutive n at `default_cutoff` with its check
# at cutoff + 4 requests each cutoff twice per order, with 6 other cutoffs of
# that order in between, so 7 entries are the least that reuse anything.  Over
# n = 0..60 and both orders, 8 entries, like 32, answer 114 of the 244
# requests without a build, and the 130 builds take 65 recursions; 8 added
# 0.8 MB to the scan's peak resident memory, and 32 added 2.7 MB.
@functools.lru_cache(maxsize=8)
def build_cv_second_order_family(basis: FockBasis) -> OperatorFamily:
    """Quadratures plus all symmetric quadratic combinations (five members),
    built once per basis and shared, read-only."""
    return _gated(basis, _SECOND_ORDER)


@functools.lru_cache(maxsize=8)
def build_cv_third_order_family(basis: FockBasis) -> OperatorFamily:
    """Quadratures plus the four symmetric cubic observables (six members),
    built once per basis and shared, read-only."""
    if basis.cutoff < 4:
        raise ValueError("cutoff must be >= 4 for cubic operators")
    return _gated(basis, _THIRD_ORDER)


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
    # <n|alpha> = exp(-|alpha|^2 / 2) alpha^n / sqrt(n!), each amplitude
    # alpha / sqrt(n) times the one before
    ratios = np.concatenate(([1.0], complex(alpha) / np.sqrt(np.arange(1, basis.cutoff))))
    amps = math.exp(-abs(alpha) ** 2 / 2) * np.cumprod(ratios)
    norm = np.linalg.norm(amps)
    correction = abs(1.0 - norm)
    if correction > RENORM_WARN_TOL:
        warnings.warn(
            f"coherent state renormalization correction {correction:.3e} "
            f"exceeds {RENORM_WARN_TOL:.0e}; consider a larger cutoff",
            stacklevel=2,
        )
    return QuantumState.pure(amps / norm, basis.tag)
