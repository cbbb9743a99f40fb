"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import re
import time

import numpy as np

from nlsqueeze import (
    DickeBasis,
    FockBasis,
    build_cv_second_order_family,
    build_cv_third_order_family,
    build_spin_family,
    build_spin_operators,
    chi2_error_propagation,
    chi2_inverse_opt,
    coherent_spin_state_z,
    coherent_state,
    combine,
    default_cutoff,
    entanglement_bound,
    evolve,
    f_max_density,
    fock_state,
    moment_data,
    optimal_measurement,
    parity_operator,
    spin_squeezing_profile,
)
from nlsqueeze.cli import EXIT_OK, main
from nlsqueeze.dynamics import EvolutionSpec

from conftest import random_family, random_pure_state


def _report(num, text):
    print(f"[criterion {num}] PASS: {text}")


def _retained_projector(gamma, eps_rel=1e-10):
    evals, evecs = np.linalg.eigh(gamma)
    keep = evals > eps_rel * max(evals[-1], 0.0)
    w = evecs[:, keep]
    return w @ w.T


def test_criterion_1_fock_exactness():
    start = time.perf_counter()
    for n in range(11):
        basis = FockBasis(default_cutoff(n))
        family = build_cv_third_order_family(basis)
        state = fock_state(basis, n)
        md = moment_data(state, family)
        c_n = 1.0 / math.sqrt(3 + 4 * n * (n + 1))
        for phi in (0.0, 0.9, 2.3):
            n1, n2 = math.sin(phi), -math.cos(phi)
            res = chi2_inverse_opt(state, family, [n1, n2])
            assert abs(res.chi2_inv - (4 * n + 2)) <= 1e-9 * (4 * n + 2)
            paper_m = c_n * np.array(
                [-(2 * n + 1) * n2, (2 * n + 1) * n1, n2, -n1, n2, -n1]
            )
            got_m = res.m_coeffs
            if n == 0:
                # the vacuum covariance has an exact null space, so the
                # optimal measurement is unique only modulo zero-variance
                # directions: compare within the retained subspace and
                # check the closed-form vector saturates the bound itself
                chi2 = chi2_error_propagation(
                    state, combine(family.operators, [n1, n2, 0, 0, 0, 0]), combine(family.operators, paper_m)
                )
                assert abs(1.0 / chi2 - 2.0) <= 1e-9 * 2.0
                proj = _retained_projector(md.gamma)
                paper_m = proj @ paper_m
                paper_m /= np.linalg.norm(paper_m)
                got_m = proj @ got_m
                got_m /= np.linalg.norm(got_m)
            chord = min(np.linalg.norm(got_m - paper_m), np.linalg.norm(got_m + paper_m))
            angle = 2.0 * math.asin(min(chord / 2.0, 1.0))
            assert angle <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"chi2_inv = 4N+2 and closed-form m_opt for N=0..10 ({elapsed:.2f} s)")


def test_criterion_2_saturation_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    for _ in range(100):
        dim = int(rng.integers(3, 21))
        state = random_pure_state(rng, dim)
        family = random_family(rng, dim, 4)
        md = moment_data(state, family)
        n_vec = rng.normal(size=4)
        n_vec /= np.linalg.norm(n_vec)
        target = float(n_vec @ md.m_matrix @ n_vec)

        m_vec = optimal_measurement(md, n_vec)
        chi2 = chi2_error_propagation(state, combine(family.operators, n_vec), combine(family.operators, m_vec))
        assert abs(1.0 / chi2 - target) <= 1e-8 * target

        draws = rng.normal(size=(10_000, 4))
        numer = (draws @ (md.c @ n_vec)) ** 2
        denom = np.einsum("ij,jk,ik->i", draws, md.gamma, draws)
        ok = denom > 1e-12 * np.trace(md.gamma)
        assert (numer[ok] / denom[ok]).max() <= target * (1 + 1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"analytic m saturates n^T M n; 1e6 random m never exceed it ({elapsed:.2f} s)")


def _oat_sweep_table(n, k_max, taus):
    basis = DickeBasis(n)
    psi0 = coherent_spin_state_z(basis)
    family = build_spin_family(basis, k_max)
    rows = []
    for tau in taus:
        state = evolve(psi0, EvolutionSpec("OAT", float(tau)))
        profile = spin_squeezing_profile(state, basis, k_max, family=family)
        xi2_inv = [r.chi2_inv / n for r in profile]
        fmax = f_max_density(state, basis)[0]
        leak = max(r.kernel_leakage for r in profile)
        rows.append((xi2_inv, fmax, leak))
    return rows


def test_criterion_3_hierarchy_and_chain():
    start = time.perf_counter()
    taus = np.linspace(0.0, np.pi, 101)
    rows = _oat_sweep_table(16, 5, taus)
    for xi2_inv, fmax, _ in rows:
        for a, b in zip(xi2_inv, xi2_inv[1:]):
            assert a <= b + 1e-9
        assert xi2_inv[-1] <= fmax + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(3, f"xi^-2_(1..5) <= f_max on 101 OAT points, N=16 ({elapsed:.2f} s)")


def test_criterion_4_gaussian_anchors():
    rows = _oat_sweep_table(16, 1, [0.0, np.pi])
    (xi0, f0, _), (xi_pi, f_pi, _) = rows
    assert abs(xi0[0] - 1.0) <= 1e-9
    assert abs(f0 - 1.0) <= 1e-9
    assert abs(xi_pi[0] - xi0[0]) <= 1e-8
    assert abs(f_pi - f0) <= 1e-8
    _report(4, "tau=0 sits at shot noise; tau=pi reproduces it (revival)")


def test_criterion_5_ghz_anchors():
    n = 16
    basis = DickeBasis(n)
    ghz = evolve(coherent_spin_state_z(basis), EvolutionSpec("OAT", np.pi / 2))
    fmax, _ = f_max_density(ghz, basis)
    assert abs(fmax - n) <= 1e-8
    jz = build_spin_operators(basis)[2]
    parity = parity_operator(basis)
    xi2_inv_parity = 1.0 / chi2_error_propagation(ghz, jz, parity) / n
    assert xi2_inv_parity >= 15.0
    assert entanglement_bound(xi2_inv_parity) >= 15
    _report(5, f"f_max = {fmax:.9f}, parity xi^-2 = {xi2_inv_parity:.9f} at tau=pi/2")


def test_criterion_6_second_order_cv_insufficiency():
    rng = np.random.default_rng(77)
    for n in range(1, 6):
        basis = FockBasis(default_cutoff(n))
        family = build_cv_second_order_family(basis)
        state = fock_state(basis, n)
        res = chi2_inverse_opt(state, family, [1.0, 0.0])
        want = 1.0 / (n + 0.5)
        assert abs(res.chi2_inv - want) <= 1e-9 * want
        # brute-force oracle: no random quadratic measurement beats the value
        md = moment_data(state, family)
        draws = rng.normal(size=(10_000, 5))
        numer = (draws @ (md.c @ np.array([1.0, 0.0, 0.0, 0.0, 0.0]))) ** 2
        denom = np.einsum("ij,jk,ik->i", draws, md.gamma, draws)
        ok = denom > 1e-12 * np.trace(md.gamma)
        best = (numer[ok] / denom[ok]).max()
        assert best <= want * (1 + 1e-8)
        assert best >= 0.5 * want  # the optimum is actually approached
    _report(6, "order-2 family on |N> stuck at chi2_inv = 1/(N+1/2), N=1..5")


def test_criterion_7_estimator_consistency(capsys):
    start = time.perf_counter()
    code = main([
        "estimate", "--model", "OAT", "--n", "16", "--tau", "0",
        "--generator", "Jx", "--observable", "Jy",
        "--mu", "10000", "--trials", "200", "--seed", "0",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    ratio = float(re.search(r"ratio = ([0-9.eE+-]+)", out).group(1))
    assert abs(ratio - 1.0) <= 0.15
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _report(7, f"empirical/predicted variance = {ratio:.4f} ({elapsed:.2f} s)")


def test_criterion_8_robertson_integrity(tmp_path, capsys):
    worst = 0.0

    def check(md):
        # kernel_leakage is the exact quantity the inversion policy (and the
        # CLI integrity exit code) is driven by: the largest commutator
        # column norm along a dropped covariance direction, relative to the
        # commutator norm, both in the variance-equilibrated frame
        nonlocal worst
        worst = max(worst, md.kernel_leakage)
        assert md.kernel_leakage <= 1e-8
        assert not md.robertson_violated

    for n, k_max in ((16, 5), (10, 4)):
        basis = DickeBasis(n)
        psi0 = coherent_spin_state_z(basis)
        family = build_spin_family(basis, k_max)
        for model in ("OAT", "TAT"):
            for tau in np.linspace(0.0, np.pi, 11):
                state = evolve(psi0, EvolutionSpec(model, float(tau)))
                check(moment_data(state, family))
    for n in range(11):
        basis = FockBasis(default_cutoff(n))
        check(moment_data(fock_state(basis, n), build_cv_third_order_family(basis)))
    basis = FockBasis(32)
    check(moment_data(coherent_state(basis, 1.0), build_cv_third_order_family(basis)))
    assert worst <= 1e-8

    # a representative CLI sweep must not raise the integrity exit code
    code = main([
        "sweep", "--n", "16", "--kmax", "5", "--tau-start", "0",
        "--tau-end", "3.141592653589793", "--steps", "21", "--parity", "--qfi",
        "--out", str(tmp_path / "bench.csv"),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    with capsys.disabled():
        _report(8, f"kernel commutator leakage <= {worst:.2e}; no integrity exit")


def test_criterion_9_scale_check_n100():
    start = time.perf_counter()
    taus = np.linspace(0.0, np.pi, 51)
    rows = _oat_sweep_table(100, 3, taus)
    for xi2_inv, fmax, leak in rows:
        for a, b in zip(xi2_inv, xi2_inv[1:]):
            assert a <= b + 1e-9
        assert xi2_inv[-1] <= fmax + 1e-9
        assert leak <= 1e-8
    (xi0, f0, _), (xi_pi, f_pi, _) = rows[0], rows[-1]
    assert abs(xi0[0] - 1.0) <= 1e-9
    assert abs(f0 - 1.0) <= 1e-9
    assert abs(xi_pi[0] - xi0[0]) <= 1e-8
    assert abs(f_pi - f0) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(9, f"N=100, K<=3, 51 points in {elapsed:.1f} s with criteria 3-4 intact")
