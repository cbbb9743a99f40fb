import numpy as np
import pytest

from nlsqueeze import (
    FockBasis,
    QuadratureDirection,
    build_cv_second_order_family,
    build_cv_third_order_family,
    chi2_inverse_opt,
    coherent_state,
    default_cutoff,
    fock_state,
    qfi,
    quadrature_generator,
)
from nlsqueeze import cv
from nlsqueeze.dynamics import _cached_propagator
from nlsqueeze.operators import MAX_DIMENSION, OperatorFamily, _band_cols, _level


def _quadratures(basis):
    """x and p: members 0 and 1 of the second-order family."""
    family = build_cv_second_order_family(basis)
    return family[0], family[1]


def test_two_level_x_matrix():
    x, _ = _quadratures(FockBasis(2))
    want = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2)
    assert np.abs(x.matrix - want).max() < 1e-15


def test_cutoff_bounded_by_dense_limit():
    assert FockBasis(MAX_DIMENSION).cutoff == MAX_DIMENSION
    for cutoff in (MAX_DIMENSION + 1, 10 ** 9):
        with pytest.raises(ValueError, match="dense limit"):
            FockBasis(cutoff)


@pytest.mark.parametrize("d", [2, 5, 12])
def test_canonical_commutator_below_cutoff(d):
    x, p = _quadratures(FockBasis(d))
    comm = x.matrix @ p.matrix - p.matrix @ x.matrix
    block = comm[: d - 1, : d - 1]
    assert np.abs(block - 1j * np.eye(d - 1)).max() < 1e-12


def test_vacuum_quadrature_variance():
    basis = FockBasis(10)
    x, _ = _quadratures(basis)
    vac = fock_state(basis, 0)
    assert abs(vac.variance(x) - 0.5) < 1e-14


def test_third_order_family_shape():
    basis = FockBasis(12)
    fam = build_cv_third_order_family(basis)
    assert len(fam) == 6
    assert fam.linear_slots() == [0, 1]
    member = fam[3]
    assert np.abs(member.matrix - member.matrix.conj().T).max() < 1e-12
    one = fock_state(basis, 1)
    x3 = fam[2]
    assert abs(one.expectation(x3)) < 1e-14


def test_odd_degree_members_vanish_on_fock_states():
    basis = FockBasis(14)
    fam = build_cv_third_order_family(basis)
    for n in (0, 2, 5):
        state = fock_state(basis, n)
        for op in fam:
            assert abs(state.expectation(op)) < 1e-12


def test_fock_state_basics():
    basis = FockBasis(12)
    vac = fock_state(basis, 0)
    assert abs(vac.vector[0] - 1.0) < 1e-15
    three = fock_state(basis, 3)
    x, p = _quadratures(basis)
    assert abs(three.expectation(x)) < 1e-14
    assert abs(three.expectation(p)) < 1e-14
    x2 = x.matrix @ x.matrix
    assert abs(np.vdot(three.vector, x2 @ three.vector).real - 3.5) < 1e-12


def test_fock_state_qfi_isotropic():
    basis = FockBasis(12)
    three = fock_state(basis, 3)
    for phi in (0.0, 0.9, 2.4):
        q = quadrature_generator(basis, QuadratureDirection.from_phase(phi))
        assert abs(qfi(three, q) - 14.0) < 1e-10


def test_fock_state_out_of_range():
    with pytest.raises(ValueError):
        fock_state(FockBasis(4), 4)


def test_coherent_state_zero_is_vacuum():
    state = coherent_state(FockBasis(8), 0.0)
    assert abs(state.vector[0] - 1.0) < 1e-15


def test_coherent_state_displacement_and_qfi():
    basis = FockBasis(32)
    state = coherent_state(basis, 1.0)
    x, _ = _quadratures(basis)
    assert abs(state.expectation(x) - np.sqrt(2)) < 1e-10
    for phi in (0.3, 1.7):
        q = quadrature_generator(basis, QuadratureDirection.from_phase(phi))
        assert abs(qfi(state, q) - 2.0) < 1e-9


def test_coherent_state_renormalization_warning():
    with pytest.warns(UserWarning, match="renormalization"):
        coherent_state(FockBasis(16), 2.0)


def test_coherent_state_truncation_precondition():
    with pytest.raises(ValueError, match="cutoff/4"):
        coherent_state(FockBasis(8), 3.0)


def test_quadrature_direction_validation():
    with pytest.raises(ValueError):
        QuadratureDirection(1.0, 1.0)
    d = QuadratureDirection.from_phase(0.0)
    assert abs(d.n1) < 1e-15 and abs(d.n2 + 1.0) < 1e-15


@pytest.mark.parametrize("n", [1, 3])
def test_cutoff_doubling_convergence(n):
    # doubling the cutoff leaves the optimized value unchanged
    values = []
    for cutoff in (default_cutoff(n), 2 * default_cutoff(n)):
        basis = FockBasis(cutoff)
        fam = build_cv_third_order_family(basis)
        res = chi2_inverse_opt(fock_state(basis, n), fam, [1.0, 0.0])
        values.append(res.chi2_inv)
    assert abs(values[1] - values[0]) / values[1] < 1e-9


def test_accepts_numpy_integer_cutoffs():
    assert fock_state(FockBasis(np.int32(6)), 2).dim == 6


# a non-integer cutoff would otherwise fail only inside numpy, at the first
# state; a NaN direction fails every `x > tol` test
@pytest.mark.parametrize("make, exc, fragment", [
    (lambda: FockBasis(1), ValueError, "cutoff must be an integer >= 2"),
    (lambda: FockBasis(10.5), ValueError, "must be an integer"),
    (lambda: FockBasis(16.0), ValueError, "must be an integer"),
    (lambda: FockBasis(False), ValueError, "must be an integer"),
    (lambda: build_cv_third_order_family(FockBasis(3)), ValueError, "cutoff must be >= 4"),
    (lambda: QuadratureDirection(np.nan, 0.0), ValueError, "unit vector"),
    (lambda: QuadratureDirection.from_phase(np.nan), ValueError, "unit vector"),
], ids=["cutoff 1", "fractional cutoff", "float cutoff", "bool cutoff", "cubic at cutoff 3",
        "NaN direction", "NaN phase"])
def test_refusals(make, exc, fragment):
    with pytest.raises(exc, match=fragment):
        make()


def test_families_are_cached_per_basis():
    for build in (build_cv_second_order_family, build_cv_third_order_family):
        family = build(FockBasis(12))
        assert build(FockBasis(12)) is family  # an equal basis, not the same object
        assert build(FockBasis(np.int64(12))) is family
        assert build(FockBasis(13)) is not family


@pytest.mark.parametrize("cutoffs", [range(2, 81), [1020, 1024]], ids=["2..80", "1020, 1024"])
def test_shared_hierarchy_gives_each_order_its_own_build(cutoffs):
    # both orders are gated from one band of the nine x, p multi-degrees of
    # total degree 1..3; each must be the family its own recursion gave
    orders = [(build_cv_second_order_family, [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
              (build_cv_third_order_family, [(1, 0), (0, 1), (3, 0), (2, 1), (1, 2), (0, 3)])]
    for cutoff in cutoffs:
        basis = FockBasis(cutoff)
        for build, degrees in orders[:1 if cutoff < 4 else 2]:
            got = build(basis)
            want = OperatorFamily.from_factors(cv._quadrature_bands(basis), ("x", "p"), degrees, basis.tag)
            assert got.bands.shape == want.bands.shape, (cutoff, degrees)
            assert got.bands.tobytes() == want.bands.tobytes(), (cutoff, degrees)  # sign bits too
            assert got.member_noise.tobytes() == want.member_noise.tobytes(), (cutoff, degrees)
            assert (got.labels, got.degrees, got.basis_tag) == (want.labels, want.degrees, want.basis_tag)
    with pytest.raises(ValueError, match="cutoff must be >= 4"):
        build_cv_third_order_family(FockBasis(3))
    with pytest.raises(ValueError, match="read-only"):  # the shared band is cached too
        cv._hierarchy_bands(FockBasis(12))[...] = 0


def test_fock_scan_reuses_families_four_problems_apart(monkeypatch):
    # the scan of `nlsqueeze fock` over n = 0..60, in its order: per n, orders
    # 2 then 3, each at the default cutoff n + 8 and its check at n + 12.  A
    # cutoff c is asked for at n = c - 12 and again at n = c - 8, with 6
    # other cutoffs of its order in between, so 57 cutoffs per order are
    # built once for two requests; both orders of a cutoff are gated from one
    # recursion, so the 65 cutoffs 8..72 take 65
    builds = []
    bands = cv.symmetrized_bands
    monkeypatch.setattr(cv, "symmetrized_bands", lambda *a: builds.append(a) or bands(*a))
    order_builders = (build_cv_second_order_family, build_cv_third_order_family)
    for cache in (*order_builders, cv._hierarchy_bands):
        cache.cache_clear()
    requests = 0
    for n in range(61):
        for build in order_builders:
            for cutoff in (default_cutoff(n), default_cutoff(n) + 4):
                build(FockBasis(cutoff))
                requests += 1
    assert (requests, len(builds)) == (244, 65)


@pytest.mark.parametrize("build, closed_form", [
    (build_cv_third_order_family, lambda n: 4 * n + 2),
    (build_cv_second_order_family, lambda n: 1 / (n + 0.5)),
], ids=["order 3", "order 2"])
def test_fock_scan_grid_matches_closed_forms(build, closed_form):
    # every problem of the scan, at both of its cutoffs and two phases
    for phi in (0.0, 0.9):
        direction = QuadratureDirection.from_phase(phi).as_array()
        for n in range(61):
            want = closed_form(n)
            for cutoff in (default_cutoff(n), default_cutoff(n) + 4):
                basis = FockBasis(cutoff)
                got = chi2_inverse_opt(fock_state(basis, n), build(basis), direction).chi2_inv
                assert abs(got - want) <= 1e-9 * want, (n, cutoff, phi)


def test_cached_objects_are_read_only():
    # a cached value is shared by every later caller: one write would change
    # every later family read or evolution on that basis
    family = build_cv_third_order_family(FockBasis(12))
    propagator = _cached_propagator("OAT", 4)
    positions, sums = _level((3, 3), 2)
    for array in (family.bands, family.member_noise, propagator._evals, propagator._evecs,
                  sums, _band_cols(12, 3)):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    with pytest.raises(TypeError):
        family.labels[0] = "y"
    with pytest.raises(AttributeError, match="immutable"):
        propagator._evals = np.zeros_like(propagator._evals)
    with pytest.raises(TypeError):
        positions[(0, 2)] = 0
