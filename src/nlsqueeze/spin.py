"""Collective spin operators in the symmetric (Dicke) basis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import MAX_DIMENSION, HermitianOperator, OperatorFamily, symmetric_product


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


def build_spin_operators(basis: DickeBasis):
    """Collective Jx, Jy, Jz for total spin j = n_particles / 2.

    Jz is diagonal in the basis ordering; Jx and Jy come from the ladder
    operator with elements <m+1|J+|m> = sqrt(j(j+1) - m(m+1)).
    """
    j = basis.j
    m = basis.m_values
    jz = np.diag(m).astype(complex)
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    jx = (jp + jp.conj().T) / 2
    jy = (jp - jp.conj().T) / 2j
    return (
        HermitianOperator(jx, "Jx", degree=1),
        HermitianOperator(jy, "Jy", degree=1),
        HermitianOperator(jz, "Jz", degree=1),
    )


def _monomial_degrees(k_max: int) -> list[tuple[int, int, int]]:
    # total degree first, then descending lexicographic so Jx, Jy, Jz lead
    degs = []
    for d in range(1, k_max + 1):
        level = []
        for dx in range(d + 1):
            for dy in range(d + 1 - dx):
                level.append((dx, dy, d - dx - dy))
        level.sort(key=lambda t: tuple(-x for x in t))
        degs.extend(level)
    return degs


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
    jx, jy, jz = build_spin_operators(basis)
    ops = []
    index = {}
    for pos, (dx, dy, dz) in enumerate(_monomial_degrees(k)):
        factors = [jx] * dx + [jy] * dy + [jz] * dz
        ops.append(symmetric_product(factors))
        index[(dx, dy, dz)] = pos
    return OperatorFamily(ops, basis.tag, index)


def parity_operator(basis: DickeBasis) -> HermitianOperator:
    """Spin parity (-1)^(J - Jx): eigenvalue (-1)^(J-m) on each Jx eigenstate.

    In the Jz basis this is exactly the flip |m> -> |-m>, an antidiagonal
    of ones.  Involutory and Hermitian; degree 0 because it is not
    polynomial in J.
    """
    return HermitianOperator(np.eye(basis.dimension)[::-1], "P", degree=0)
