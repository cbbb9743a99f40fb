import numpy as np
import pytest

from nlsqueeze import (
    FockBasis,
    QuadratureDirection,
    build_cv_second_order_family,
    build_cv_third_order_family,
    build_quadratures,
    chi2_inverse_opt,
    coherent_state,
    default_cutoff,
    fock_state,
    qfi,
    quadrature_generator,
)
from nlsqueeze.cv import MAX_CUTOFF


def test_two_level_x_matrix():
    x, _ = build_quadratures(FockBasis(2))
    want = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2)
    assert np.abs(x.matrix - want).max() < 1e-15


def test_cutoff_bounded_by_dense_limit():
    assert FockBasis(MAX_CUTOFF).cutoff == MAX_CUTOFF
    for cutoff in (MAX_CUTOFF + 1, 10 ** 9):
        with pytest.raises(ValueError, match="dense limit"):
            FockBasis(cutoff)


@pytest.mark.parametrize("d", [2, 5, 12])
def test_canonical_commutator_below_cutoff(d):
    x, p = build_quadratures(FockBasis(d))
    comm = x.matrix @ p.matrix - p.matrix @ x.matrix
    block = comm[: d - 1, : d - 1]
    assert np.abs(block - 1j * np.eye(d - 1)).max() < 1e-12


def test_vacuum_quadrature_variance():
    basis = FockBasis(10)
    x, _ = build_quadratures(basis)
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
    x, p = build_quadratures(basis)
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
    x, _ = build_quadratures(basis)
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
