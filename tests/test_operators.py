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
        OperatorFamily([a, b], "test")


def test_family_combine_and_slots():
    basis = DickeBasis(2)
    jx, jy, jz = build_spin_operators(basis)
    fam = OperatorFamily([jx, jy, jz], basis.tag)
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


def _band_families():
    rng = np.random.default_rng(11)
    diag = [HermitianOperator(np.diag(rng.normal(size=6)), f"d{k}") for k in range(3)]
    return {
        "spin N=16 K=5": (build_spin_family(DickeBasis(16), 5), 5),
        "spin N=7 K=6": (build_spin_family(DickeBasis(7), 6), 6),
        "cv order 2": (build_cv_second_order_family(FockBasis(20)), 2),
        "cv order 3": (build_cv_third_order_family(FockBasis(20)), 3),
        "dense": (OperatorFamily([random_hermitian(rng, 9, f"H{k}") for k in range(4)],
                                 "test"), 8),
        "diagonal": (OperatorFamily(diag, "test"), 0),
    }


@pytest.mark.parametrize("name", list(_band_families()))
def test_family_bands_rebuild_every_member(name):
    fam, width = _band_families()[name]
    dim = fam.dim
    assert fam.bands.shape == (dim, len(fam), 2 * width + 1)
    assert fam.band_cols.shape == (dim, 2 * width + 1)
    assert fam.band_cols.min() >= 0 and fam.band_cols.max() <= dim - 1
    rebuilt = _dense_from_bands(fam)
    for k, op in enumerate(fam):
        assert np.array_equal(rebuilt[k], op.matrix), op.label


def test_family_bands_are_read_only():
    fam = build_spin_family(DickeBasis(4), 2)
    with pytest.raises(ValueError):
        fam.bands[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        fam.band_cols[0, 0] = 1
