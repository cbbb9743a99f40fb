"""One-axis twisting against the closed forms of Kitagawa & Ueda (PRA 47, 5138).

The library evolves the coherent state along +z under exp(-i tau Jy^2).  With
mu = 2 tau, A = 1 - cos^(N-2) mu and B = 4 sin(mu/2) cos^(N-2)(mu/2), the
mean spin <Jz> = (N/2) cos^(N-1)(mu/2) points along z; across it the
covariance has the eigenvalues V_pm = (N/4) [1 + (N-1) (A +- sqrt(A^2 + B^2)) / 4],
and along it Var Jz = (N/4) [(N+1)/2 + (N-1) cos^(N-2)(mu) / 2] - <Jz>^2.  The
order-1 coefficient is Wineland's, <Jz>^2 / (N V_-), and f_max is
4 max(V_+, Var Jz) / N.

Error model.  Evolution diagonalizes H = Jy^2 (||H||_2 = N^2 / 4) with a
backward error of order u ||H|| (u = eps / 2) and forms the D = N + 1
amplitudes with about D roundings each, so the state S carries a forward
error delta = u (D + tau N^2 / 4).  To first order this moves <J> by at most
2 delta ||J - <J>|| <= 2 N delta, and the centered row r = (J - <J>) S by at
most ||J - <J>|| delta + |d<J>| <= 2 N delta (with ||J|| = N / 2).  A
variance V = ||r||^2 then moves by at most 2 sqrt(V) 2 N delta, and so does
the top or bottom eigenvalue of the covariance (first-order perturbation
along its eigenvector).  Hence

    order 1:  |d xi| / xi <= 2 (2 N delta) / |<Jz>| + 4 N delta / sqrt(V_-)
    f_max:    |d f| / f   <= 4 N delta / sqrt(max(V_+, Var Jz)).

Below a true order-1 value of 1e-6 the printed digits are rounding noise
(ROADMAP, "Honest numbers": the noise cells), so order 1 is compared only
above it (58, 24, 12 and 8 grid points at N = 16, 100, 400 and 1000).
Measured on the 101-point grids, the largest error over its bound is 0.16
(order 1) and 0.080 (f_max) at N = 16, 0.013 and 0.011 at N = 100, 0.0068
and 0.0037 at N = 400, and 0.00087 and 0.0020 at N = 1000.  The bound thus
holds with a margin of at least 6, and it is loose at large N: the state sits
on the eigenvectors of Jy^2 with small |m|, so its phase errors stay far
below u tau ||H||.
"""

import math

import numpy as np
import pytest

from nlsqueeze import (DickeBasis, QuantumState, build_spin_family, coherent_spin_state_z, evolve,
                       f_max_density, spin_squeezing_profile)
from nlsqueeze.dynamics import EvolutionSpec

U = np.finfo(float).eps / 2


def kitagawa_ueda(n, tau):
    """(<Jz>, V_-, V_+, Var Jz) of the OAT state at tau, in closed form."""
    mu = 2.0 * tau
    a = 1.0 - math.cos(mu) ** (n - 2)
    b = 4.0 * math.sin(mu / 2) * math.cos(mu / 2) ** (n - 2)
    mean = n / 2 * math.cos(mu / 2) ** (n - 1)
    root = math.hypot(a, b)
    v_minus = n / 4 * (1.0 + (n - 1) * (a - root) / 4)
    v_plus = n / 4 * (1.0 + (n - 1) * (a + root) / 4)
    var_z = n / 4 * ((n + 1) / 2 + (n - 1) * math.cos(mu) ** (n - 2) / 2) - mean ** 2
    return mean, v_minus, v_plus, var_z


@pytest.mark.parametrize("n", [16, 100, 400, 1000])
def test_oat_grid_matches_the_closed_form(n):
    basis = DickeBasis(n)
    family = build_spin_family(basis, 1)
    css = coherent_spin_state_z(basis)
    compared = 0
    for tau in np.linspace(0.0, np.pi, 101):
        tau = float(tau)
        state = evolve(css, EvolutionSpec("OAT", tau))
        mean, v_minus, v_plus, var_z = kitagawa_ueda(n, tau)
        delta = U * (n + 1 + tau * n * n / 4)

        f_true = 4.0 * max(v_plus, var_z) / n
        f_got = f_max_density(state, basis)[0]
        f_bound = 4 * n * delta / math.sqrt(max(v_plus, var_z))
        assert abs(f_got - f_true) <= f_bound * f_true, tau

        xi_true = mean ** 2 / (n * v_minus)
        if xi_true > 1e-6:
            xi_got = spin_squeezing_profile(state, basis, 1, family=family)[0].chi2_inv / n
            xi_bound = 4 * n * delta / abs(mean) + 4 * n * delta / math.sqrt(v_minus)
            assert abs(xi_got - xi_true) <= xi_bound * xi_true, tau
            compared += 1
    assert compared >= 5  # the comparison is not vacuous


@pytest.mark.parametrize("n, weight", [(100, 0.1), (400, 0.1), (60, 0.9)])
def test_white_noise_scales_f_max_in_closed_form(n, weight):
    # rho = (1-w) |psi><psi| + w I/D has the eigenvalue (1-w) + w/D on psi and
    # w/D on its complement, so the spectral formula keeps only the pairs
    # (psi, complement): Q(rho) = (1-w)^2 / ((1-w) + 2w/D) Q(psi), for the
    # whole Fisher matrix of Jx, Jy, Jz and hence for its top eigenvalue
    basis = DickeBasis(n)
    dim = basis.dimension
    css = coherent_spin_state_z(basis)
    rho = (1.0 - weight) * css.density_matrix() + weight * np.eye(dim) / dim
    spec = EvolutionSpec("OAT", 0.3)
    noisy = evolve(QuantumState.mixed(rho, basis.tag), spec)
    pure = f_max_density(evolve(css, spec), basis)[0]
    want = (1.0 - weight) ** 2 / ((1.0 - weight) + 2.0 * weight / dim) * pure
    assert abs(f_max_density(noisy, basis)[0] - want) <= 1e-14 * want
