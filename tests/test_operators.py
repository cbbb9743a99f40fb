import functools
import tracemalloc
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
from nlsqueeze.cv import _quadrature_bands
from nlsqueeze.operators import (HERMITICITY_ATOL, SLICE_ENTRIES, _band_cols, _bands_of, _plan, dense_matrix,
                                 pieces, symmetrized_bands)
from nlsqueeze.spin import _monomial_degrees, _spin_bands

from conftest import random_hermitian


def test_hermitian_operator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), "bad")
    # large entries: the bound scales with them, but a residue of 1e-9 times
    # the largest entry stays far above it
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(1e6 * np.array([[1.0, 2.0], [2.0 + 3e-9, 3.0]]), "bad")


def test_hermitian_operator_rejects_nan():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]), "bad")


@pytest.mark.parametrize("mat", [1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]]),
                                 np.array([[0.0, np.inf], [1.0, 0.0]])],
                         ids=["1e-13 shift", "infinite entry"])
def test_both_gates_take_their_scale_from_the_operand(mat):
    # a bound floored at 1e-12 passed any matrix with entries below it, and
    # an infinite entry off the diagonal left an infinite residue within an
    # infinite bound
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(mat, "bad")
    with pytest.raises(ValueError, match="not Hermitian"):
        OperatorFamily(_bands_of([mat]), ["bad"], (0,), "test")


@pytest.mark.parametrize("mat, noise_is_inf", [
    (np.diag([1e308, 2.0]), False),
    (np.array([[1.0, 1e308 + 1e308j], [1e308 - 1e308j, -1e308]]), True),
], ids=["diagonal", "off the diagonal"])
def test_both_gates_keep_a_finite_entry_near_dbl_max(mat, noise_is_inf):
    # (H + H^dagger) / 2 overflowed above DBL_MAX / 2 and kept inf + nan j;
    # the overflow's RuntimeWarning is an error under the suite's filters.
    # A row sum of |H| beyond float range is an infinite e_k, with no warning
    family = OperatorFamily(_bands_of([mat]), ["big"], (0,), "test")
    for kept in (HermitianOperator(mat, "big").matrix, dense_matrix(family.bands[:, 0])):
        assert np.isfinite(kept).all() and np.array_equal(kept, mat)
    assert np.isinf(family.member_noise[0]) == noise_is_inf


@pytest.mark.parametrize("dtype", [complex, float])
def test_hermitian_gate_costs_its_result_plus_a_few_pieces(dtype):
    # at D = 401 the kept matrix takes 2.57 MB.  Checked and halved whole, the
    # gate peaked at 5.28 MB for a complex input and at 7.85 MB for a real one
    # (as `twisting_generator` passes it), cast to complex whole; in row pieces
    # of SLICE_ENTRIES entries, a few pieces' temporaries come on top of the
    # result, which keeps the bits of the whole-matrix H / 2 + H^dagger / 2
    rng = np.random.default_rng(3)
    a = rng.normal(size=(401, 401)) + 1j * rng.normal(size=(401, 401))
    mat = a + a.conj().T if dtype is complex else a.real + a.real.T
    zeros = rng.random(mat.shape) < 0.1
    mat[zeros | zeros.T] *= -0.0  # signed zeros, in the imaginary parts too
    HermitianOperator(mat, "H")
    tracemalloc.start()
    try:
        kept = HermitianOperator(mat, "H").matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kept.nbytes + 4 * SLICE_ENTRIES * 16
    whole = np.asarray(mat, dtype=complex)
    assert kept.tobytes() == (whole / 2 + whole.conj().T / 2).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["NaN", "inf"])
@pytest.mark.parametrize("row", [1, 210, 419], ids=["first piece", "middle piece", "last piece"])
def test_hermitian_gate_fails_a_non_finite_entry_in_any_piece(bad, row):
    # at D = 420 a piece holds 39 rows; the entry and its mirror lie in one
    # piece, off the diagonal, where an infinite entry leaves an infinite residue
    mat = np.diag(np.arange(420.0))
    mat[row, row - 1] = bad
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(mat, "bad")


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
    combo = combine(tuple(fam), [0.0, 0.0, 2.0])
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


def _monomial_case(fam, degrees, elementary, width):
    return fam, [_ordering_average(elementary, d) for d in degrees], width


def _spin_case(n, k):
    return _monomial_case(build_spin_family(DickeBasis(n), k), _monomial_degrees(k), _dense_spin(n), k)


def _cv_case(order, cutoff):
    build = {2: build_cv_second_order_family, 3: build_cv_third_order_family}[order]
    degrees = {2: [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)],
               3: [(1, 0), (0, 1), (3, 0), (2, 1), (1, 2), (0, 3)]}[order]
    return _monomial_case(build(FockBasis(cutoff)), degrees, _dense_quadratures(cutoff), order)


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
    assert spin.labels == ("Jx", "Jy", "Jz", "Jx^2", "S[Jx Jy]", "S[Jx Jz]",
                           "Jy^2", "S[Jy Jz]", "Jz^2")
    cv = build_cv_third_order_family(FockBasis(8))
    assert cv.labels == ("x", "p", "x^3", "S[p x^2]", "S[p^2 x]", "p^3")


def test_family_bands_are_read_only():
    fam = build_spin_family(DickeBasis(4), 2)
    with pytest.raises(ValueError):
        fam.bands[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        fam.band_cols[0, 0] = 1


@pytest.mark.parametrize("per_item", [0, 1, 3, 401, SLICE_ENTRIES, SLICE_ENTRIES + 1, 5 * SLICE_ENTRIES])
def test_pieces_cover_the_items_in_order_within_the_bound(per_item):
    # every walk in pieces (both Hermitian gates, the band product, `_center`'s
    # centering and Gram slices, `_qfi_matrix`) stepped by
    # max(1, SLICE_ENTRIES // per_item) on its own, so the Gram partition and
    # its bits stay; per_item 0 (a floor split's S' of no columns) puts no
    # entry in any piece
    for count in (0, 1, 7, SLICE_ENTRIES, 3 * SLICE_ENTRIES + 5):
        got = [range(count)[piece] for piece in pieces(count, per_item)]
        assert [i for items in got for i in items] == list(range(count))
        assert all(len(items) * per_item <= SLICE_ENTRIES or len(items) == 1 for items in got)
        if per_item:
            step = max(1, SLICE_ENTRIES // per_item)
            assert [(items.start, items.step) for items in got] == [(i, 1) for i in range(0, count, step)]
            assert all(len(items) == step for items in got[:-1])


def test_band_cols_are_the_clipped_offsets():
    # the np.clip formula is the reference: the same integer table, read-only
    for dim in range(1, 81):
        for width in range(7):
            want = np.clip(np.arange(dim)[:, None] + np.arange(-width, width + 1), 0, dim - 1)
            got = _band_cols(dim, width)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.shape == want.shape and not got.flags.writeable


def _upper_shift(dim):
    """Bands (dim, 1, 3) of the strictly upper U with U[i, i + 1] = 1."""
    bands = np.zeros((dim, 1, 3), dtype=complex)
    bands[:-1, 0, 2] = 1.0
    return bands


def test_family_rejects_non_hermitian_member_by_name():
    # the mean <U> = 1/2 on (|0> + |1>)/sqrt(2) is real, so only the gate at
    # construction can tell that U is no observable
    jz = np.zeros((3, 1, 3), dtype=complex)
    jz[:, 0, 1] = [1.0, 0.0, -1.0]
    bands = np.concatenate([jz, _upper_shift(3)], axis=1)
    with pytest.raises(ValueError, match=r"member 1 \('U'\) is not Hermitian"):
        OperatorFamily(bands, ["Jz", "U"], (1, 1), "test")


def test_family_gate_scales_with_the_entries_and_rejects_nan():
    bands = 1e6 * build_spin_family(DickeBasis(4), 2).bands
    labels, degrees = [f"H{k}" for k in range(9)], (1,) * 9
    noisy = bands.copy()
    noisy[0, 3, 3] += 1e-7  # 1e-13 of the largest entry of member 3
    _assert_exactly_hermitian(OperatorFamily(noisy, labels, degrees, "test"))
    noisy[0, 3, 3] += 1e-2
    with pytest.raises(ValueError, match="member 3"):
        OperatorFamily(noisy, labels, degrees, "test")
    bands = bands.copy()
    bands[2, 5, 2] = np.nan
    with pytest.raises(ValueError, match="member 5"):
        OperatorFamily(bands, labels, degrees, "test")


def test_family_rejects_entries_outside_the_matrix():
    bands = np.zeros((3, 1, 3), dtype=complex)
    bands[2, 0, 2] = 1.0  # H[2, 3] does not exist
    with pytest.raises(ValueError, match="not Hermitian"):
        OperatorFamily(bands, ["H"], (1,), "test")


def test_family_neither_freezes_nor_aliases_the_callers_bands():
    bands = build_spin_family(DickeBasis(3), 1).bands.copy()
    view = bands[:, 0]
    fam = OperatorFamily(bands, ["Jx", "Jy", "Jz"], (1, 1, 1), "test")
    assert bands.flags.writeable
    view[:] = 5.0
    assert np.array_equal(fam.bands[:, 1:], bands[:, 1:])
    assert np.abs(fam.bands[:, 0]).max() < 5.0
    assert not fam.bands.flags.writeable


def _assert_exactly_hermitian(fam):
    for op_band, label in zip(fam.bands.transpose(1, 0, 2), fam.labels):
        mat = dense_matrix(op_band)
        assert np.array_equal(mat, mat.conj().T), label


@pytest.mark.parametrize("n", [1, 2, 7, 16])
@pytest.mark.parametrize("k", range(1, 7))
def test_spin_families_are_exactly_hermitian(n, k):
    _assert_exactly_hermitian(build_spin_family(DickeBasis(n), k))


def _library_bands():
    """Raw symmetrized bands (before the gate) of every family the library
    builds: spin monomials, the twisting generators and both CV orders."""
    out = {}
    for n in (1, 2, 7, 16, 400):
        spin = _spin_bands(DickeBasis(n))
        out[f"spin N={n}"] = symmetrized_bands(spin, _monomial_degrees(3 if n == 400 else 6))
        jy2, jz = symmetrized_bands(spin, [(0, 2, 0), (0, 0, 1)]).transpose(1, 0, 2)
        out[f"OAT N={n}"] = jy2[:, None]
        out[f"TAT N={n}"] = (jy2 - n / 2 * jz)[:, None]
    for cutoff in (4, 8, 68):
        quad = _quadrature_bands(FockBasis(cutoff))
        out[f"cv order 2 cutoff {cutoff}"] = symmetrized_bands(quad, [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
        out[f"cv order 3 cutoff {cutoff}"] = symmetrized_bands(
            quad, [(1, 0), (0, 1), (3, 0), (2, 1), (1, 2), (0, 3)])
    return out


def test_library_bands_clear_the_relative_gate_by_a_wide_margin():
    # the gate allows a residue of HERMITICITY_ATOL times a member's largest
    # entry, with no absolute floor; the raw bands the library builds stay
    # below 1/100 of that (at most 3.8e-16 of the largest entry here), so
    # rounding cannot trip it
    for name, bands in _library_bands().items():
        for k, band in enumerate(bands.transpose(1, 0, 2)):
            mat = dense_matrix(band)
            assert np.abs(mat - mat.conj().T).max() <= HERMITICITY_ATOL / 100 * np.abs(mat).max(), (name, k)


@pytest.mark.parametrize("degrees", [
    [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)],
    [(0, 2, 0), (0, 0, 1)],  # the twisting band's: degree 2 before degree 1
    [(0, 1), (2, 0), (1, 0)],  # degree-1 members apart and out of level order
], ids=["cv hierarchy", "twisting", "scattered"])
def test_symmetrized_bands_keep_their_bytes_through_the_plan_cache(degrees):
    # the recursion is planned once per tuple of degree tuples; lists of
    # lists find the same plan, and a call that plans gives the bytes of one
    # that finds its plan cached
    factors = _spin_bands(DickeBasis(9)) if len(degrees[0]) == 3 else _quadrature_bands(FockBasis(9))
    _plan.cache_clear()
    first = symmetrized_bands(factors, tuple(map(tuple, degrees)))
    assert _plan.cache_info().misses == 1
    for form in ([list(d) for d in degrees], tuple(map(tuple, degrees))):
        assert symmetrized_bands(factors, form).tobytes() == first.tobytes()
    assert _plan.cache_info()[:2] == (2, 1)
    if len(degrees) == 3:  # against the dense monomials x, p and x^2
        x, p = (dense_matrix(band) for band in factors.transpose(1, 0, 2))
        for band, want in zip(first.transpose(1, 0, 2), (p, x @ x, x)):
            assert np.allclose(dense_matrix(band), want, rtol=0, atol=1e-13)


def _input_noise(bands):
    """e_k = eps (2w+2) max_i sum_j |H_k|_ij of the bands handed to a family."""
    mag = np.abs(np.asarray(bands, dtype=complex))
    return np.finfo(float).eps * (mag.shape[2] + 1) * (mag @ np.ones(mag.shape[2])).max(axis=0)


def test_member_noise_has_the_bits_of_the_input_bands():
    # formed by the gate from the input bands, also where the kept
    # H / 2 + H^dagger / 2 is not the input
    for name, bands in _library_bands().items():
        fam = OperatorFamily(bands, [str(k) for k in range(bands.shape[1])], (1,) * bands.shape[1], "t")
        assert fam.member_noise.tobytes() == _input_noise(bands).tobytes(), name


@pytest.mark.parametrize("cutoff", [4, 20, 72])
@pytest.mark.parametrize("build", [build_cv_second_order_family, build_cv_third_order_family],
                         ids=["order2", "order3"])
def test_cv_families_are_exactly_hermitian(build, cutoff):
    _assert_exactly_hermitian(build(FockBasis(cutoff)))


def test_from_operators_and_symmetric_product_are_exactly_hermitian(rng):
    ops = [random_hermitian(rng, 6, f"H{k}") for k in range(3)]
    _assert_exactly_hermitian(OperatorFamily.from_operators(ops, "test"))
    jx, jy, jz = build_spin_operators(DickeBasis(9))
    for factors in ([jx, jy], [jx, jy, jz, jz], ops):
        mat = symmetric_product(factors).matrix
        assert np.array_equal(mat, mat.conj().T)


@pytest.mark.parametrize("make, exc, fragment", [
    (lambda: HermitianOperator(np.eye(2), "H", degree=-1), ValueError, "degree must be non-negative"),
    (lambda: symmetric_product([]), ValueError, "at least one operator"),
    (lambda: combine(build_spin_operators(DickeBasis(2)), [1.0, 2.0]), ValueError,
     "coefficient vector length"),
    (lambda: combine([], []), ValueError, "combine needs at least one operator"),
    (lambda: OperatorFamily(np.zeros((3, 3)), ["H"], (1,), "test"), ValueError, "at least one operator"),
    (lambda: OperatorFamily(np.zeros((3, 0, 3)), [], (), "test"), ValueError, "at least one operator"),
    (lambda: OperatorFamily(np.zeros((3, 1, 0)), ["H"], (1,), "test"), ValueError, r"\(dim, L, 2w\+1\)"),
    (lambda: OperatorFamily(np.zeros((3, 1, 4)), ["H"], (1,), "test"), ValueError, r"\(dim, L, 2w\+1\)"),
    (lambda: OperatorFamily(np.zeros((0, 1, 3)), ["H"], (1,), "test"), ValueError, r"\(dim, L, 2w\+1\)"),
    (lambda: OperatorFamily(np.zeros((3, 2, 3)), ["H"], (1, 1), "test"), ValueError,
     "one label and one degree per member"),
    (lambda: OperatorFamily.from_operators([], "test"), ValueError, "at least one operator"),
], ids=["negative degree", "empty product", "combine length", "empty combine", "bands not 3-d",
        "no member", "no band", "even band count", "no row", "label count", "no operator"])
def test_refusals(make, exc, fragment):
    with pytest.raises(exc, match=fragment):
        make()
