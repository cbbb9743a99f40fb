"""Dense Hermitian operators, operator families and symmetrized products."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

HERMITICITY_ATOL = 1e-12
# operators are dense dim x dim matrices, so a basis dimension is bounded:
# at 1024 one matrix takes 16.8 MB
MAX_DIMENSION = 1024


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
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator {self.label!r} must be a square matrix")
        resid = np.abs(mat - mat.conj().T).max()
        if resid > HERMITICITY_ATOL:
            raise ValueError(
                f"operator {self.label!r} is not Hermitian (max residue {resid:.2e})"
            )
        mat = (mat + mat.conj().T) / 2
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if self.degree < 0:
            raise ValueError("degree must be non-negative")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"HermitianOperator({self.label!r}, dim={self.dim}, degree={self.degree})"


def _sym_label(ops: Sequence[HermitianOperator]) -> str:
    # compress repeated factors: [x, x, p] -> "S[x^2 p]", [x, x, x] -> "x^3"
    parts: list[tuple[str, int]] = []
    for op in ops:
        if parts and parts[-1][0] == op.label:
            parts[-1] = (op.label, parts[-1][1] + 1)
        else:
            parts.append((op.label, 1))
    text = " ".join(lbl if n == 1 else f"{lbl}^{n}" for lbl, n in parts)
    if len(parts) == 1:
        return text
    return f"S[{text}]"


def symmetric_product(ops: Sequence[HermitianOperator]) -> HermitianOperator:
    """Average of the operator product over all orderings of the factors.

    The result is Hermitian by construction and has degree equal to the sum
    of the input degrees.  A single factor is returned unchanged.
    """
    if len(ops) == 0:
        raise ValueError("symmetric_product needs at least one operator")
    if len(ops) == 1:
        return ops[0]
    dim = ops[0].dim
    if any(op.dim != dim for op in ops):
        raise ValueError("symmetric_product: operator dimension mismatch")

    # identical objects are interchangeable, so average over distinct orderings
    keys = []
    for op in ops:
        for j, other in enumerate(ops):
            if other is op:
                keys.append(j)
                break
    orderings = set(permutations(keys))
    acc = np.zeros((dim, dim), dtype=complex)
    for order in orderings:
        prod = ops[order[0]].matrix
        for k in order[1:]:
            prod = prod @ ops[k].matrix
        acc += prod
    acc /= len(orderings)
    acc = (acc + acc.conj().T) / 2  # remove rounding skew
    return HermitianOperator(
        matrix=acc,
        label=_sym_label(sorted(ops, key=lambda o: o.label)),
        degree=sum(op.degree for op in ops),
    )


def combine(ops: Sequence[HermitianOperator], coeffs, label: str | None = None) -> HermitianOperator:
    """Real linear combination sum_k coeffs[k] * ops[k]."""
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


def _bandwidth(mats) -> int:
    """Largest |i - j| over the entries that are nonzero in any of the
    complex matrices (0 if none)."""
    # compare the real and imaginary parts side by side: faster than
    # comparing complex numbers, and one scan covers the whole family
    mask = mats[0].view(float) != 0
    for mat in mats[1:]:
        mask |= mat.view(float) != 0
    rows, cols = np.nonzero(mask)
    return int(np.abs(rows - cols // 2).max(initial=0))


@functools.lru_cache(maxsize=32)
def _band_index(dim: int, width: int):
    """Column indices i + o of the diagonals o = -width..width of a dim x dim
    matrix, clipped into it, their flat positions i * dim + (i + o), and
    which of them lie inside the matrix."""
    rows = np.arange(dim)[:, None]
    cols = rows + np.arange(-width, width + 1)
    inside = (cols >= 0) & (cols < dim)
    cols = np.clip(cols, 0, dim - 1)
    flat = rows * dim + cols
    for arr in (cols, flat, inside):
        arr.setflags(write=False)
    return cols, flat, inside


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """Ordered list of Hermitian operators acting on one common basis.

    monomial_index maps a multi-degree tuple (one entry per elementary
    operator) to the list position of the corresponding symmetrized monomial;
    it may be empty for ad-hoc families.

    The members' nonzero diagonals are stored once, at construction:
    bands[i, k, w + o] = H_k[i, i + o] for o = -w..w (zero where i + o falls
    outside the matrix) and band_cols[i, w + o] = i + o, clipped into the
    matrix.  The bandwidth w is the largest offset of a nonzero entry of
    any member (K for spin monomials up to degree K, 3 for the cv families),
    so every H_k S is in bands @ S[band_cols], at O(L (2w+1) D r) cost.
    """

    operators: tuple[HermitianOperator, ...]
    basis_tag: str
    monomial_index: dict = field(default_factory=dict)
    bands: np.ndarray = field(init=False, repr=False)
    band_cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        if not self.operators:
            raise ValueError("family must contain at least one operator")
        dim = self.operators[0].dim
        if any(op.dim != dim for op in self.operators):
            raise ValueError("family operators must share one dimension")
        positions = list(self.monomial_index.values())
        if len(positions) != len(set(positions)):
            raise ValueError("duplicate positions in monomial_index")
        if any(not 0 <= p < len(self.operators) for p in positions):
            raise ValueError("monomial_index positions out of range")
        width = _bandwidth([op.matrix for op in self.operators])
        cols, flat, inside = _band_index(dim, width)
        bands = np.stack([op.matrix.take(flat) for op in self.operators], axis=1)
        bands = np.where(inside[:, None, :], bands, 0.0)
        bands.setflags(write=False)
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "band_cols", cols)

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self) -> Iterator[HermitianOperator]:
        return iter(self.operators)

    def __getitem__(self, idx: int) -> HermitianOperator:
        return self.operators[idx]

    @property
    def dim(self) -> int:
        return self.operators[0].dim

    @property
    def labels(self) -> list[str]:
        return [op.label for op in self.operators]

    def linear_slots(self) -> list[int]:
        """Positions of the degree-1 members (the default generator candidates)."""
        return [k for k, op in enumerate(self.operators) if op.degree == 1]
