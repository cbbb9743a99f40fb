"""Dense Hermitian operators, banded operator families and symmetrized products."""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Sequence

import numpy as np

HERMITICITY_ATOL = 1e-12
# the evolution and the observables outside a family (generators, parity,
# members built on demand) are dense dim x dim matrices, so a basis
# dimension is bounded: at 1024 one matrix takes 16.8 MB
MAX_DIMENSION = 1024
# entries (complex, 256 KB) in one piece of a table walked in `pieces`; a
# partition can fix the bits of a sum over pieces, so it must not move
SLICE_ENTRIES = 16384


def pieces(count: int, per_item: int) -> Iterator[slice]:
    """Slices covering range(count) in order, each of at most SLICE_ENTRIES
    entries at per_item entries per item (or of one item, if longer)."""
    step = max(1, SLICE_ENTRIES // max(1, per_item))
    return (slice(i, i + step) for i in range(0, count, step))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dense complex Hermitian matrix with a label and a monomial degree.

    degree counts the monomial degree in the elementary (linear) operators;
    non-polynomial operators such as parity carry degree 0.
    """

    matrix: np.ndarray
    label: str
    degree: int = 0

    def __post_init__(self):
        src = np.asarray(self.matrix)
        if src.ndim != 2 or src.shape[0] != src.shape[1] or len(src) == 0:
            raise ValueError(f"operator {self.label!r} must be a square matrix")
        # checked and kept in row pieces of SLICE_ENTRIES entries, each cast to
        # complex, so the gate costs its result plus a few pieces.  Halves first:
        # (H + H^dagger) / 2 overflows on a finite entry above DBL_MAX / 2; the
        # adjoint is halved after conjugation, which keeps the bits of
        # (H + H^dagger) / 2, signed zeros included, unless a half is subnormal
        mat = np.empty(src.shape, dtype=complex)  # the caller's array is neither aliased nor changed
        resid = scale = 0.0
        for piece in pieces(len(src), len(src)):
            rows = np.asarray(src[piece], dtype=complex)
            adjoint = np.conjugate(src[:, piece].T, dtype=complex)  # rows of H^dagger
            # the result's piece holds H - H^dagger until it is formed; np.maximum,
            # unlike max, keeps a NaN from any piece
            resid = np.maximum(resid, np.abs(np.subtract(rows, adjoint, out=mat[piece])).max())
            scale = np.maximum(scale, np.abs(rows).max())
            if not (resid < np.inf and scale < np.inf):
                break  # the test below fails; halving an infinite entry would warn
            np.divide(rows, 2, out=mat[piece])
            adjoint /= 2
            mat[piece] += adjoint
        # bound HERMITICITY_ATOL * largest entry, so the test does not depend on
        # units; a NaN entry leaves a NaN residue and an infinite one an
        # infinite bound, and both fail
        if not resid <= HERMITICITY_ATOL * scale < np.inf:
            raise ValueError(
                f"operator {self.label!r} is not Hermitian (max residue {resid:.2e})"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if self.degree < 0:
            raise ValueError("degree must be non-negative")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"HermitianOperator({self.label!r}, dim={self.dim}, degree={self.degree})"


def _sym_label(powers) -> str:
    """Label from (factor label, power) pairs: "x^3", "S[p x^2]"."""
    parts = [lbl if n == 1 else f"{lbl}^{n}" for lbl, n in sorted(powers) if n]
    return parts[0] if len(parts) == 1 else f"S[{' '.join(parts)}]"


# band layout of a matrix H: band[i, w + o] = H[i, i + o] for o = -w..w,
# zero where i + o falls outside the matrix
def _diagonals(dim: int, width: int):
    """(o, slice of the rows i with 0 <= i + o < dim) for o = -width..width."""
    for o in range(max(-width, 1 - dim), min(width, dim - 1) + 1):
        yield o, slice(max(0, -o), min(dim, dim - o))


def _band_cols(dim: int, width: int) -> np.ndarray:
    """Column indices i + o of the band layout, clipped into the matrix by hand
    (`np.clip`'s Python wrapper costs more than the table here), read-only."""
    cols = np.arange(dim)[:, None] + np.arange(-width, width + 1)
    np.minimum(np.maximum(cols, 0, out=cols), dim - 1, out=cols)
    cols.setflags(write=False)
    return cols


def _bands_of(mats) -> np.ndarray:
    """Bands (dim, L, 2w+1) of dense matrices, w their widest nonzero offset."""
    stack = np.stack(mats)
    rows, cols = np.nonzero((stack != 0).any(axis=0))
    width = int(np.abs(rows - cols).max(initial=0))
    bands = np.zeros((stack.shape[1], len(stack), 2 * width + 1), dtype=complex)
    for o, r in _diagonals(stack.shape[1], width):
        bands[r, :, width + o] = np.diagonal(stack, o, axis1=1, axis2=2).T
    return bands


def dense_matrix(band: np.ndarray) -> np.ndarray:
    """The dense matrix of one band (dim, 2w+1), in the band's dtype."""
    mat = np.zeros((len(band), len(band)), dtype=band.dtype)
    # clipped positions hold zeros, so adding them leaves every entry exact
    np.add.at(mat, (np.arange(len(band))[:, None], _band_cols(len(band), band.shape[1] // 2)), band)
    return mat


def ladder_bands(upper: np.ndarray, scale: float) -> np.ndarray:
    """Bands (dim, 2, 3) of (L + L^dagger) / scale and i (L^dagger - L) / scale
    for the ladder operator with L[i, i + 1] = upper[i] (upper[-1] = 0)."""
    x = upper / scale
    bands = np.zeros((len(upper), 2, 3), dtype=complex)
    bands[:, 0, 2], bands[1:, 0, 0] = x, x[:-1]
    bands[:, 1, 2], bands[1:, 1, 0] = -1j * x, 1j * x[:-1]
    return bands


def _band_products(f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bands of every product F_j B_m, laid out as out[i, u + v + o, j, m],
    from f[i, j, u + t] = F_j[i, i + t] and b[i, v + s, m] = B_m[i, i + s]."""
    dim, span, size = b.shape
    u = f.shape[2] // 2
    out = np.zeros((dim, span + 2 * u, f.shape[1], size), dtype=complex)
    for t, r in _diagonals(dim, u):  # (F B)[i, i + t + s] += F[i, i + t] B[i + t, i + t + s]
        out[r, u + t:u + t + span] += f[r, None, :, u + t, None] * b[r.start + t:r.stop + t, :, None, :]
    return out


@functools.lru_cache(maxsize=64)
def _level(box: tuple, n: int):
    """The multi-degrees d <= box of total degree n, by position, and the 0/1
    matrix adding F_j W(d - e_j) (row j * size + position of d - e_j one
    level down) into W(d) (column); both read-only, as every caller shares them."""
    here = [d for d in itertools.product(*(range(m, -1, -1) for m in box)) if sum(d) == n]
    here = {d: p for p, d in enumerate(here)}
    below = _level(box, n - 1)[0] if n else {}
    sums = np.zeros((len(box) * len(below), len(here)))
    for d, p in here.items():
        for j in np.flatnonzero(d):
            sums[j * len(below) + below[d[:j] + (d[j] - 1,) + d[j + 1:]], p] = 1.0
    sums.setflags(write=False)
    return MappingProxyType(here), sums


def symmetrized_bands(factors: np.ndarray, degrees) -> np.ndarray:
    """Bands (dim, L, 2Ku+1) of the symmetrized monomials of factors F_j with
    bands (dim, n_f, 2u+1), one per multi-degree tuple (total 1..K).

    The sum W(d) of all words of multi-degree d obeys W(d) = sum_j F_j
    W(d - e_j) with W(0) = 1, so all W of one total degree come from one
    banded product of every factor with every W one degree lower.  Monomial
    d is W(d) over its number of words, Hermitian up to rounding.
    """
    dim, _, span = factors.shape
    degrees = [tuple(d) for d in degrees]
    box, top = tuple(map(max, zip(*degrees))), max(map(sum, degrees))
    width = top * (span // 2)
    bands = np.zeros((dim, len(degrees), 2 * width + 1), dtype=complex)
    level = np.ones((dim, 1, 1), dtype=complex)  # level[i, v + o, m] = W_m[i, i + o]
    for n in range(1, top + 1):
        here, sums = _level(box, n)
        prod = _band_products(factors, level)
        level = (prod.reshape(-1, len(sums)) @ sums).reshape(dim, prod.shape[1], -1)
        ks = [k for k, d in enumerate(degrees) if sum(d) == n]
        words = [[math.factorial(n) // math.prod(map(math.factorial, degrees[k]))] for k in ks]
        pad = width - level.shape[1] // 2
        bands[:, ks, pad:2 * width + 1 - pad] = (level[:, :, [here[degrees[k]] for k in ks]]
                                                 .transpose(0, 2, 1) / np.reshape(words, (-1, 1)))
    return bands


def symmetric_product(ops: Sequence[HermitianOperator]) -> HermitianOperator:
    """Average of the operator product over all orderings of the factors.

    The result is Hermitian, of degree the sum of the input degrees; a single
    factor is returned unchanged.  Identical objects are one factor with a power.
    """
    if len(ops) == 0:
        raise ValueError("symmetric_product needs at least one operator")
    if len(ops) == 1:
        return ops[0]
    if any(op.dim != ops[0].dim for op in ops):
        raise ValueError("symmetric_product: operator dimension mismatch")
    factors = list({id(op): op for op in ops}.values())
    powers = tuple(sum(op is f for op in ops) for f in factors)
    band = symmetrized_bands(_bands_of([f.matrix for f in factors]), [powers])[:, 0]
    return HermitianOperator(dense_matrix(band), _sym_label(Counter(op.label for op in ops).items()),
                             sum(op.degree for op in ops))


def combine(ops: Sequence[HermitianOperator], coeffs, label: str | None = None) -> HermitianOperator:
    """Real linear combination sum_k coeffs[k] * ops[k]."""
    if len(ops) == 0:
        raise ValueError("combine needs at least one operator")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(ops),):
        raise ValueError("coefficient vector length must match the operator list")
    mat = np.zeros((ops[0].dim, ops[0].dim), dtype=complex)
    for ck, op in zip(coeffs, ops):
        if ck != 0.0:
            mat += ck * op.matrix
    if label is None:
        label = " + ".join(f"{c:.3g}*{op.label}" for c, op in zip(coeffs, ops) if c != 0.0) or "0"
    degree = max((op.degree for c, op in zip(coeffs, ops) if c != 0.0), default=0)
    return HermitianOperator(matrix=mat, label=label, degree=degree)


def _row_noise(mag: np.ndarray) -> np.ndarray:
    """e_k = eps (2w+2) max_i sum_j |H_k|_ij from the entry magnitudes of a
    family's bands: it bounds the rounding of a row (H_k - <H_k>) S, ||S||_F = 1.
    A row sum beyond float range is an infinite e_k, with no warning."""
    with np.errstate(over="ignore"):
        row_sums = mag @ np.ones(mag.shape[2])  # a matmul: a sum over the short band axis is slow
    return np.finfo(float).eps * (mag.shape[2] + 1) * row_sums.max(axis=0)


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """Ordered Hermitian operators on one basis, stored only as their bands.

    bands[i, k, w + o] = H_k[i, i + o]; with band_cols[i, w + o] = i + o
    clipped into the matrix, every H_k S is in bands @ S[band_cols], at
    O(L (2w+1) D r) cost (w = K for spin monomials up to degree K).  labels
    (stored as a tuple) and degrees (a tuple of monomial degrees, 0 if not
    polynomial) hold one entry per member.  A dense member is built on each access (`fam[k]`, iteration,
    `tuple(fam)` for all of them) and kept only by the caller.  Each member
    must pass the Hermiticity rule of `HermitianOperator` against its band
    adjoint; the family keeps the exact H_k / 2 + H_k^dagger / 2 in its own array.
    The gate also stores band_cols and member_noise, each member's rounding
    bound e_k (see `_row_noise`) from the magnitudes of the bands it reads.
    A family is immutable, its arrays read-only, so a cached one is shared.
    """

    bands: np.ndarray
    labels: tuple
    degrees: tuple
    basis_tag: str

    def __post_init__(self):
        bands = np.asarray(self.bands, dtype=complex)
        if bands.ndim != 3 or bands.shape[1] == 0:
            raise ValueError("family must contain at least one operator")
        if bands.shape[0] == 0 or bands.shape[2] % 2 == 0:
            raise ValueError(f"family bands must have the layout (dim, L, 2w+1) with dim >= 1, "
                             f"got shape {bands.shape}")
        object.__setattr__(self, "labels", tuple(self.labels))
        if not len(self.labels) == len(self.degrees) == bands.shape[1]:
            raise ValueError("family needs one label and one degree per member")
        w = bands.shape[2] // 2
        herm = np.zeros_like(bands)  # the adjoints H_k^dagger, zero outside the matrix
        for o, r in _diagonals(len(bands), w):
            herm[r, :, w + o] = bands[r.start + o:r.stop + o, :, w - o].conj()
        # per member, rows reduced first: a two-axis max over the short band axis is slow
        resid = np.abs(bands - herm).max(axis=0).max(axis=1)
        mag = np.abs(bands)
        scale = mag.max(axis=0).max(axis=1)
        bad = np.flatnonzero(~((resid <= HERMITICITY_ATOL * scale) & (scale < np.inf)))  # NaN fails too
        if len(bad):
            raise ValueError(f"family member {bad[0]} ({self.labels[bad[0]]!r}) is not Hermitian "
                             f"(max residue {resid[bad[0]]:.2e})")
        noise = _row_noise(mag)
        noise.setflags(write=False)
        object.__setattr__(self, "member_noise", noise)
        object.__setattr__(self, "band_cols", _band_cols(len(bands), w))
        # H / 2 + H^dagger / 2 has exactly conjugate entries, and a finite H
        # gives a finite sum, which (H + H^dagger) / 2 does not above DBL_MAX / 2;
        # added in row pieces
        herm /= 2
        for piece in pieces(len(bands), bands.shape[1] * bands.shape[2]):
            herm[piece] += bands[piece] / 2
        herm.setflags(write=False)
        object.__setattr__(self, "bands", herm)

    @classmethod
    def from_operators(cls, ops: Sequence[HermitianOperator], basis_tag: str) -> "OperatorFamily":
        """Ad-hoc family of given dense operators, read by a nonzero scan."""
        if not ops:
            raise ValueError("family must contain at least one operator")
        if any(op.dim != ops[0].dim for op in ops):
            raise ValueError("family operators must share one dimension")
        return cls(_bands_of([op.matrix for op in ops]), [op.label for op in ops],
                   tuple(op.degree for op in ops), basis_tag)

    @classmethod
    def from_factors(cls, factors: np.ndarray, names, degrees, basis_tag: str) -> "OperatorFamily":
        """Symmetrized monomials of the named factors, one per multi-degree."""
        return cls(symmetrized_bands(factors, degrees), [_sym_label(zip(names, d)) for d in degrees],
                   tuple(map(sum, degrees)), basis_tag)

    def __len__(self) -> int:
        return self.bands.shape[1]

    def __iter__(self) -> Iterator[HermitianOperator]:
        return (self[k] for k in range(len(self)))

    def __getitem__(self, idx: int) -> HermitianOperator:
        k = range(len(self))[idx]
        return HermitianOperator(dense_matrix(self.bands[:, k]), self.labels[k], self.degrees[k])

    @property
    def dim(self) -> int:
        return self.bands.shape[0]

    def linear_slots(self) -> list[int]:
        """Positions of the degree-1 members (the default generator candidates)."""
        return [k for k, d in enumerate(self.degrees) if d == 1]
