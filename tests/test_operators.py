import functools
from itertools import permutations

import numpy as np
import pytest

from nlsqueeze import (
    DickeBasis,
    FockBasis,
    HermitianOperator,
    OperatorFamily,
    build_cv_second_order_family,
    build_cv_third_order_family,
    build_spin_family,
    build_spin_operators,
    combine,
    symmetric_product,
)

from conftest import random_hermitian


def test_hermitian_operator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), "bad")
    # large entries: the bound scales with them, but a residue of 1e-9 times
    # the largest entry stays far above it
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(1e6 * np.array([[1.0, 2.0], [2.0 + 3e-9, 3.0]]), "bad")


@pytest.mark.parametrize("axis", [0, 1], ids=["Jx", "Jy"])
def test_hermitian_operator_accepts_dense_spin_powers(axis):
    # Jx^k and Jy^k at N = 60 carry rounding residues far above 1e-12 in
    # absolute terms (1.8e-12 for k = 3, 3e-8 for k = 6), but about 2e-16
    # relative to their largest entry
    j = build_spin_operators(DickeBasis(60))[axis].matrix
    power = j
    for k in range(2, 7):
        power = power @ j
        assert HermitianOperator(power, f"J^{k}").matrix.shape == (61, 61)


def test_hermitian_operator_rejects_non_square():
    with pytest.raises(ValueError):
        HermitianOperator(np.zeros((2, 3)), "bad")


def test_symmetric_product_pair_anticommutator():
    jx, jy, _ = build_spin_operators(DickeBasis(4))
    got = symmetric_product([jx, jy])
    want = (jx.matrix @ jy.matrix + jy.matrix @ jx.matrix) / 2
    assert np.abs(got.matrix - want).max() < 1e-14
    assert got.degree == 2


def test_symmetric_product_cubic_matches_explicit_form():
    # (x p^2 + p x p + p^2 x) / 3 with x, p taken as generic Hermitians
    rng = np.random.default_rng(7)
    x = random_hermitian(rng, 5, "x")
    p = random_hermitian(rng, 5, "p")
    got = symmetric_product([x, p, p])
    xm, pm = x.matrix, p.matrix
    want = (xm @ pm @ pm + pm @ xm @ pm + pm @ pm @ xm) / 3
    assert np.abs(got.matrix - want).max() < 1e-12


def test_symmetric_product_single_factor_unchanged():
    _, _, jz = build_spin_operators(DickeBasis(3))
    assert symmetric_product([jz]) is jz


def test_symmetric_product_permutation_invariant(rng):
    ops = [random_hermitian(rng, 4, f"H{k}") for k in range(3)]
    ref = symmetric_product(ops).matrix
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        mat = symmetric_product([ops[i] for i in perm]).matrix
        assert np.abs(mat - ref).max() < 1e-12


def test_symmetric_product_output_is_hermitian(rng):
    ops = [random_hermitian(rng, 6, f"H{k}") for k in range(4)]
    got = symmetric_product(ops).matrix
    assert np.abs(got - got.conj().T).max() < 1e-12


def test_symmetric_product_dimension_mismatch():
    rng = np.random.default_rng(0)
    a = random_hermitian(rng, 3, "a")
    b = random_hermitian(rng, 4, "b")
    with pytest.raises(ValueError, match="mismatch"):
        symmetric_product([a, b])


def test_family_rejects_mixed_dimensions(rng):
    a = random_hermitian(rng, 3, "a")
    b = random_hermitian(rng, 4, "b")
    with pytest.raises(ValueError):
        OperatorFamily.from_operators([a, b], "test")


def test_family_combine_and_slots():
    basis = DickeBasis(2)
    jx, jy, jz = build_spin_operators(basis)
    fam = OperatorFamily.from_operators([jx, jy, jz], basis.tag)
    assert fam.linear_slots() == [0, 1, 2]
    combo = combine(fam.operators, [0.0, 0.0, 2.0])
    assert np.abs(combo.matrix - 2.0 * jz.matrix).max() < 1e-14



def _dense_from_bands(fam):
    """Rebuild every member from the stored diagonals."""
    dim, size, width = fam.bands.shape
    mats = np.zeros((size, dim, dim), dtype=complex)
    rows = np.repeat(np.arange(dim)[:, None], width, axis=1)
    for k in range(size):
        # clipped positions carry zeros, so adding never disturbs a real entry
        np.add.at(mats[k], (rows, fam.band_cols), fam.bands[:, k, :])
    return mats


def _dense_spin(n):
    """Jx, Jy, Jz of n spins from the ladder operator, written out densely."""
    j = n / 2
    m = j - np.arange(n + 1)
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)
    return [(jp + jp.T) / 2, (jp - jp.T) / 2j, np.diag(m)]


def _dense_quadratures(cutoff):
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
    return [(a + a.T) / np.sqrt(2), 1j * (a.T - a) / np.sqrt(2)]


def _ordering_average(mats, degree):
    """Average of the products of mats[j] (degree[j] times each) over all
    distinct orderings."""
    words = set(permutations([j for j, n in enumerate(degree) for _ in range(n)]))
    return sum(functools.reduce(np.matmul, [mats[j] for j in w]) for w in words) / len(words)


def _monomial_case(fam, elementary, width):
    degree_of = {k: d for d, k in fam.monomial_index.items()}
    return fam, [_ordering_average(elementary, degree_of[k]) for k in range(len(fam))], width


def _spin_case(n, k):
    return _monomial_case(build_spin_family(DickeBasis(n), k), _dense_spin(n), k)


def _cv_case(order, cutoff):
    build = {2: build_cv_second_order_family, 3: build_cv_third_order_family}[order]
    return _monomial_case(build(FockBasis(cutoff)), _dense_quadratures(cutoff), order)


def _adhoc_case(ops, width):
    return OperatorFamily.from_operators(ops, "test"), [op.matrix for op in ops], width


def _dense_case():
    rng = np.random.default_rng(11)
    return _adhoc_case([random_hermitian(rng, 9, f"H{k}") for k in range(4)], 8)


def _diagonal_case():
    rng = np.random.default_rng(11)
    return _adhoc_case([HermitianOperator(np.diag(rng.normal(size=6)), f"d{k}") for k in range(3)], 0)


_MEMBER_CASES = {
    "spin N=1 K=5": lambda: _spin_case(1, 5),
    "spin N=2 K=5": lambda: _spin_case(2, 5),
    "spin N=16 K=5": lambda: _spin_case(16, 5),
    "spin N=7 K=6": lambda: _spin_case(7, 6),
    "cv order 2": lambda: _cv_case(2, 20),
    "cv order 3": lambda: _cv_case(3, 20),
    "cv order 2 cutoff 4": lambda: _cv_case(2, 4),
    "cv order 3 cutoff 4": lambda: _cv_case(3, 4),
    "cv order 2 cutoff 72": lambda: _cv_case(2, 72),
    "cv order 3 cutoff 72": lambda: _cv_case(3, 72),
    "dense": _dense_case,
    "diagonal": _diagonal_case,
}


@pytest.mark.parametrize("name", list(_MEMBER_CASES))
def test_family_bands_rebuild_every_member(name):
    # the reference is the dense average over all orderings; members that
    # vanish exactly (S[Jx Jy] for one spin) are measured against the largest
    # entry among the references of their degree
    fam, refs, width = _MEMBER_CASES[name]()
    dim = fam.dim
    assert fam.bands.shape == (dim, len(fam), 2 * width + 1)
    assert fam.band_cols.shape == (dim, 2 * width + 1)
    assert fam.band_cols.min() >= 0 and fam.band_cols.max() <= dim - 1
    rebuilt = _dense_from_bands(fam)
    degrees = np.array(fam.degrees)
    for k, op in enumerate(fam):
        assert np.array_equal(op.matrix, rebuilt[k]), op.label
        scale = max(np.abs(refs[i]).max() for i in np.flatnonzero(degrees == degrees[k]))
        assert np.abs(op.matrix - refs[k]).max() <= 1e-14 * scale, op.label


def test_family_labels_and_monomial_index():
    spin = build_spin_family(DickeBasis(3), 2)
    assert spin.labels == ["Jx", "Jy", "Jz", "Jx^2", "S[Jx Jy]", "S[Jx Jz]",
                           "Jy^2", "S[Jy Jz]", "Jz^2"]
    assert spin.monomial_index == {
        (1, 0, 0): 0, (0, 1, 0): 1, (0, 0, 1): 2, (2, 0, 0): 3, (1, 1, 0): 4,
        (1, 0, 1): 5, (0, 2, 0): 6, (0, 1, 1): 7, (0, 0, 2): 8,
    }
    cv = build_cv_third_order_family(FockBasis(8))
    assert cv.labels == ["x", "p", "x^3", "S[p x^2]", "S[p^2 x]", "p^3"]
    assert cv.monomial_index == {(1, 0): 0, (0, 1): 1, (3, 0): 2, (2, 1): 3, (1, 2): 4, (0, 3): 5}


def test_family_bands_are_read_only():
    fam = build_spin_family(DickeBasis(4), 2)
    with pytest.raises(ValueError):
        fam.bands[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        fam.band_cols[0, 0] = 1
