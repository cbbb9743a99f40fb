"""Collective spin operators in the symmetric (Dicke) basis."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .operators import MAX_DIMENSION, HermitianOperator, OperatorFamily, dense_matrix, ladder_bands
# symmetric_product: unused, kept for perfbench's trace targets
from .operators import symmetric_product

_AXES = ("Jx", "Jy", "Jz")


@dataclass(frozen=True)
class DickeBasis:
    """Symmetric subspace of n_particles spin-1/2 particles, with
    1 <= n_particles < MAX_DIMENSION.

    Basis states are ordered by descending collective J_z eigenvalue
    m = j, j-1, ..., -j with j = n_particles / 2.
    """

    n_particles: int

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1 (one-dimensional space is trivial)")
        if self.n_particles + 1 > MAX_DIMENSION:
            raise ValueError(f"n_particles {self.n_particles} exceeds the dense limit: "
                             f"dimension {self.n_particles + 1} > {MAX_DIMENSION}")

    @property
    def dimension(self) -> int:
        return self.n_particles + 1

    @property
    def j(self) -> float:
        return self.n_particles / 2

    @property
    def m_values(self) -> np.ndarray:
        return self.j - np.arange(self.dimension)

    @property
    def tag(self) -> str:
        return f"dicke-N{self.n_particles}"


def parse_dicke_tag(tag: str) -> int | None:
    """Particle number encoded in a Dicke basis tag, or None."""
    if tag.startswith("dicke-N"):
        try:
            return int(tag[len("dicke-N"):])
        except ValueError:
            return None
    return None


def _spin_bands(basis: DickeBasis) -> np.ndarray:
    """Bands (D, 3, 3) of Jx, Jy, Jz (see `OperatorFamily`): Jz is diagonal,
    and <m+1|J+|m> = sqrt(j(j+1) - m(m+1)) sits above it as m descends."""
    j, m = basis.j, basis.m_values
    upper = np.zeros(basis.dimension)
    upper[:-1] = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    bands = np.zeros((basis.dimension, 3, 3), dtype=complex)
    bands[:, :2] = ladder_bands(upper, 2.0)
    bands[:, 2, 1] = m
    return bands


def build_spin_operators(basis: DickeBasis):
    """Dense collective Jx, Jy, Jz for total spin j = n_particles / 2."""
    bands = _spin_bands(basis)
    return tuple(HermitianOperator(dense_matrix(bands[:, a]), label, degree=1)
                 for a, label in enumerate(_AXES))


def _monomial_degrees(k_max: int) -> list[tuple[int, int, int]]:
    # total degree first, then descending lexicographic so Jx, Jy, Jz lead
    return [d for n in range(1, k_max + 1)
            for d in itertools.product(range(n, -1, -1), repeat=3) if sum(d) == n]


def spin_family_size(k: int) -> int:
    """Number of monomials of degree 1..k in three variables."""
    return sum((d + 1) * (d + 2) // 2 for d in range(1, k + 1))


def build_spin_family(basis: DickeBasis, k: int) -> OperatorFamily:
    """All symmetrized collective-spin monomials of degree 1..k.

    The family of order k is a prefix-extension of the family of order k-1;
    the first three members are Jx, Jy, Jz.
    """
    if k < 1:
        raise ValueError("family order must be >= 1")
    return OperatorFamily.from_factors(_spin_bands(basis), _AXES, _monomial_degrees(k), basis.tag)


def parity_operator(basis: DickeBasis) -> HermitianOperator:
    """Spin parity (-1)^(J - Jx): eigenvalue (-1)^(J-m) on each Jx eigenstate.

    In the Jz basis this is exactly the flip |m> -> |-m>, an antidiagonal
    of ones.  Involutory and Hermitian; degree 0 because it is not
    polynomial in J.
    """
    return HermitianOperator(np.eye(basis.dimension)[::-1], "P", degree=0)
