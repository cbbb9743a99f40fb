import tracemalloc

import numpy as np
import pytest

from nlsqueeze import (
    DickeBasis,
    build_spin_family,
    build_spin_operators,
    parity_operator,
    spin_family_size,
)
from nlsqueeze.operators import MAX_DIMENSION

LEVI_CIVITA = {("x", "y"): "z", ("y", "z"): "x", ("z", "x"): "y"}


def test_single_spin_matrices():
    jx, jy, jz = build_spin_operators(DickeBasis(1))
    assert np.abs(jz.matrix - np.diag([0.5, -0.5])).max() < 1e-15
    assert np.abs(jx.matrix - np.array([[0, 0.5], [0.5, 0]])).max() < 1e-15
    assert np.abs(jy.matrix - np.array([[0, -0.5j], [0.5j, 0]])).max() < 1e-15


def test_commutator_n4():
    jx, jy, jz = build_spin_operators(DickeBasis(4))
    comm = jx.matrix @ jy.matrix - jy.matrix @ jx.matrix
    assert np.abs(comm - 1j * jz.matrix).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 25, 40])
def test_commutation_algebra_and_casimir(n):
    basis = DickeBasis(n)
    jx, jy, jz = build_spin_operators(basis)
    mats = {"x": jx.matrix, "y": jy.matrix, "z": jz.matrix}
    for (a, b), c in LEVI_CIVITA.items():
        comm = mats[a] @ mats[b] - mats[b] @ mats[a]
        assert np.abs(comm - 1j * mats[c]).max() < 1e-10
    j = n / 2
    casimir = mats["x"] @ mats["x"] + mats["y"] @ mats["y"] + mats["z"] @ mats["z"]
    assert np.abs(casimir - j * (j + 1) * np.eye(n + 1)).max() < 1e-10


def test_rejects_trivial_space():
    with pytest.raises(ValueError):
        DickeBasis(0)


def test_dimension_bounded_like_the_fock_cutoff():
    assert DickeBasis(MAX_DIMENSION - 1).dimension == MAX_DIMENSION
    with pytest.raises(ValueError, match="dense limit"):
        DickeBasis(MAX_DIMENSION)


@pytest.mark.parametrize("k,count", [(1, 3), (2, 9), (3, 19)])
def test_family_sizes(k, count):
    assert spin_family_size(k) == count
    assert len(build_spin_family(DickeBasis(4), k)) == count


def test_family_leads_with_jx_jy_jz():
    basis = DickeBasis(3)
    fam = build_spin_family(basis, 2)
    jx, jy, jz = build_spin_operators(basis)
    for got, want in zip(fam, (jx, jy, jz)):
        assert np.abs(got.matrix - want.matrix).max() < 1e-14
    assert fam.labels[:3] == ("Jx", "Jy", "Jz")


def test_family_prefix_extension():
    basis = DickeBasis(5)
    small = build_spin_family(basis, 2)
    large = build_spin_family(basis, 3)
    for a, b in zip(small, large):
        assert a.label == b.label
        assert np.abs(a.matrix - b.matrix).max() == 0.0


def test_family_members_hermitian_with_unique_degrees():
    fam = build_spin_family(DickeBasis(4), 3)
    for op in fam:
        assert np.abs(op.matrix - op.matrix.conj().T).max() < 1e-12
    assert len(set(fam.labels)) == len(fam)
    assert max(fam.degrees) == 3


@pytest.mark.parametrize("n", [1, 2, 5, 9, 14])
def test_parity_involution(n):
    p = parity_operator(DickeBasis(n))
    assert np.abs(p.matrix @ p.matrix - np.eye(n + 1)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 16, 40])
def test_parity_is_the_exact_flip(n):
    # (-1)^(J - Jx) maps |m> to |-m>; its spectral form agrees to rounding
    basis = DickeBasis(n)
    p = parity_operator(basis)
    assert np.array_equal(p.matrix, np.eye(basis.dimension)[::-1])
    evals, evecs = np.linalg.eigh(build_spin_operators(basis)[0].matrix)
    spectral = (evecs * (-1.0) ** np.round(basis.j - evals)) @ evecs.conj().T
    assert np.abs(spectral - p.matrix).max() < 1e-13


def test_parity_single_spin_eigenvalues():
    p = parity_operator(DickeBasis(1))
    evals = np.sort(np.linalg.eigvalsh(p.matrix))
    assert np.abs(evals - [-1.0, 1.0]).max() < 1e-12


def test_parity_trace_two_ways():
    basis = DickeBasis(2)
    p = parity_operator(basis)
    # eigenvalues (-1)^(J-m) for m = 1, 0, -1
    by_eigenvalues = sum((-1.0) ** round(basis.j - m) for m in basis.m_values)
    assert abs(np.trace(p.matrix).real - by_eigenvalues) < 1e-12


def test_large_family_casimir_from_bands():
    # D = 1024 at degree 6: the bands take 17.7 MB where dense members would
    # take 1.4 GB
    basis = DickeBasis(1023)
    fam = build_spin_family(basis, 6)
    width = fam.bands.shape[2] // 2
    casimir = sum(fam.bands[:, fam.labels.index(lbl)] for lbl in ["Jx^2", "Jy^2", "Jz^2"])
    want = np.zeros_like(casimir)
    want[:, width] = basis.j * (basis.j + 1)
    assert np.abs(casimir - want).max() <= 1e-14 * basis.j * (basis.j + 1)


def test_family_build_allocates_no_dense_matrix():
    # one dense 401 x 401 member alone takes 2.6 MB; the 19 members' bands 0.9 MB
    tracemalloc.start()
    try:
        build_spin_family(DickeBasis(400), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_family_keeps_no_dense_member():
    # 83 dense 401 x 401 members take 213.6 MB; once the caller drops them,
    # the family must not still hold them
    fam = build_spin_family(DickeBasis(400), 6)
    tracemalloc.start()
    try:
        assert len(list(fam)) == 83
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1e6


def test_accepts_numpy_integers():
    basis = DickeBasis(np.int64(4))
    assert basis.dimension == 5
    assert build_spin_family(basis, 2).dim == 5


# a non-integer size would otherwise fail only inside numpy, at the first state
@pytest.mark.parametrize("make, exc, fragment", [
    (lambda: DickeBasis(16.0), ValueError, "must be an integer"),
    (lambda: DickeBasis(2.5), ValueError, "must be an integer"),
    (lambda: DickeBasis(True), ValueError, "must be an integer"),
    (lambda: DickeBasis("4"), ValueError, "must be an integer"),
    (lambda: build_spin_family(DickeBasis(3), 0), ValueError, "family order must be >= 1"),
], ids=["float", "fraction", "bool", "str", "order 0"])
def test_refusals(make, exc, fragment):
    with pytest.raises(exc, match=fragment):
        make()
