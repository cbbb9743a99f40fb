"""The benchmark's workloads, built only from public nlsqueeze calls.

One op is one sweep point, computed as `nlsqueeze sweep` computes it
(evolve, the order 1..K profile with the shared family, the parity and
f_max columns when present, the entanglement bound), or one Fock problem,
computed as `nlsqueeze fock` computes it (default cutoff, then cutoff + 4).
Library functions are called through their modules at call time so that a
traced run can wrap them where they are looked up.

The seed picks one of VARIANTS input variants (variant = seed % VARIANTS),
so that every variant has stored reference values.  Variant 0 is the README
grid: 101 points on [0, pi], which holds the two points of the N=16, K=5
sweep that raise the integrity flag.  Other variants shift the interior grid
points by variant/VARIANTS of a step (tau = 0 and tau = pi stay, so the
revival check runs on every variant), the Fock quadrature phase and the
white-noise weight of the mixed state.
"""

from __future__ import annotations

import math
import time

import numpy as np

import nlsqueeze
from nlsqueeze import cv, dynamics, fisher, moments, operators, spin

import checks

VARIANTS = 8
STEPS = 101
FOCK_N_MAX = 60
FOCK_PHASE_STEP = 0.7  # radians per variant
NOISE_BASE = 0.1  # white-noise weight of the mixed state at variant 0
NOISE_STEP = 0.01


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def sweep_grid(variant: int) -> np.ndarray:
    taus = np.linspace(0.0, math.pi, STEPS)
    taus[1:-1] += variant / VARIANTS * taus[1]
    return taus


class Sweep:
    """A twisting sweep over the variant's tau grid; op i is point i."""

    def __init__(self, model, n, k_max, variant, parity=False, qfi=False, noise=None):
        self.model, self.k_max, self.qfi = model, k_max, qfi
        self.taus = sweep_grid(variant)
        self.basis = spin.DickeBasis(n)
        psi0 = dynamics.coherent_spin_state_z(self.basis)
        if noise is not None:
            weight = noise + NOISE_STEP * variant
            dim = self.basis.dimension
            rho = (1.0 - weight) * psi0.density_matrix() + weight * np.eye(dim) / dim
            psi0 = nlsqueeze.QuantumState.mixed(rho, self.basis.tag)
        self.psi0 = psi0
        self.family = spin.build_spin_family(self.basis, k_max)
        self.jz = spin.build_spin_operators(self.basis)[2] if parity else None
        self.parity = spin.parity_operator(self.basis) if parity else None
        # the first evolve diagonalizes the generator and fills the cache
        dynamics.evolve(psi0, dynamics.EvolutionSpec(model, float(self.taus[0])))

    def __len__(self):
        return len(self.taus)

    @property
    def family_mbytes(self) -> float:
        """Computed size of the dense family: L * D^2 complex128 entries."""
        return len(self.family) * self.basis.dimension ** 2 * 16 / 1e6

    def op(self, i):
        n = self.basis.n_particles
        state = dynamics.evolve(self.psi0, dynamics.EvolutionSpec(self.model, float(self.taus[i])))
        results = moments.spin_squeezing_profile(state, self.basis, self.k_max, family=self.family)
        values = [r.chi2_inv / n for r in results]
        candidates = list(values)
        if self.parity is not None:
            try:
                chi2 = moments.chi2_error_propagation(state, self.jz, self.parity)
                xi2_inv_parity = 1.0 / chi2 / n
            except nlsqueeze.ZeroSignalError:
                xi2_inv_parity = 0.0
            values.append(xi2_inv_parity)
            candidates.append(xi2_inv_parity)
        if self.qfi:
            values.append(fisher.f_max_density(state, self.basis)[0])
        moments.entanglement_bound(max(candidates))
        return results, values

    def inspect(self, i, raw):
        """(values, kernel leakage, integrity flag, check errors) of op i."""
        results, values = raw
        tau = float(self.taus[i])
        revival = (self.model == "OAT" and self.basis.n_particles % 2 == 0
                   and tau in (0.0, math.pi))
        errors = checks.sweep_point_errors(values[:self.k_max],
                                           values[-1] if self.qfi else None, revival)
        leak = max(r.kernel_leakage for r in results)
        return values, leak, any(r.robertson_violated for r in results), errors

    def describe(self, i) -> str:
        return f"tau={float(self.taus[i])!r}"


class FockScan:
    """Fock |n>, n = 0..FOCK_N_MAX, at orders 2 and 3; op i is one problem."""

    family_mbytes = 0.0

    def __init__(self, variant):
        phase = FOCK_PHASE_STEP * variant
        self.direction = cv.QuadratureDirection.from_phase(phase).as_array()
        self.problems = [(n, order) for n in range(FOCK_N_MAX + 1) for order in (2, 3)]

    def __len__(self):
        return len(self.problems)

    def _solve(self, n, order, cutoff):
        basis = cv.FockBasis(cutoff)
        if order == 2:
            family = cv.build_cv_second_order_family(basis)
        else:
            family = cv.build_cv_third_order_family(basis)
        return moments.chi2_inverse_opt(cv.fock_state(basis, n), family, self.direction)

    def op(self, i):
        n, order = self.problems[i]
        cutoff = cv.default_cutoff(n)
        return self._solve(n, order, cutoff), self._solve(n, order, cutoff + 4)

    def inspect(self, i, raw):
        result, check = raw
        n, order = self.problems[i]
        drift = abs(check.chi2_inv - result.chi2_inv) / max(abs(check.chi2_inv), 1e-300)
        errors = checks.fock_errors(n, order, result.chi2_inv, drift)
        return [result.chi2_inv], result.kernel_leakage, result.robertson_violated, errors

    def describe(self, i) -> str:
        n, order = self.problems[i]
        return f"n={n} order={order}"


WORKLOADS = {
    "oat_n16_k5": lambda v: Sweep("OAT", 16, 5, v, parity=True, qfi=True),
    "oat_n400_k3": lambda v: Sweep("OAT", 400, 3, v, qfi=True),
    "tat_mixed_n60_k3": lambda v: Sweep("TAT", 60, 3, v, qfi=True, noise=NOISE_BASE),
    "fock_scan": FockScan,
}


def reference_points(reference: dict, name: str, variant: int):
    """Stored per-op values for a workload variant; None marks an op the
    reference commit raised on or flagged, which is compared with nothing."""
    if name == "fock_scan":
        return reference["fock_scan"]
    return reference["sweeps"][name][str(variant)]


class Tally:
    """Outcome and time of every attempted op of a set of cycles."""

    def __init__(self):
        self.op_ms = []  # every attempted op, in order
        self.ok = []  # whether that op succeeded
        self.probe_ms = []  # calibration kernel time just before that op, when probing
        self.failed = {"raised": 0, "flagged": 0, "check": 0}
        self.known = {"residue": 0, "flagged": 0}  # today's defects, see run_cycle
        self.first_failure = {}  # op index -> (kind, detail)
        self.first_known = {}  # op index -> (kind, detail)
        self.cycles = 0
        self.leak_max = 0.0
        self.correct = True

    @property
    def attempted(self) -> int:
        return len(self.op_ms)

    @property
    def ok_ms(self) -> list:
        return [ms for ms, good in zip(self.op_ms, self.ok) if good]

    def fail(self, workload, i, kind, detail):
        self.failed[kind] += 1
        self.first_failure.setdefault(i, (kind, f"{workload.describe(i)}: {detail}"))

    def known_defect(self, workload, i, kind, detail):
        self.known[kind] += 1
        self.first_known.setdefault(i, (kind, f"{workload.describe(i)}: {detail}"))


def run_cycle(workload, reference, tally: Tally, probe=None) -> None:
    """Run every op of the workload once, timing each and checking its output.

    An op that gives no vouched result is either a known defect of the
    reference commit or a failure.  Known defects are the mean-residue raise
    (checks.is_mean_residue_raise, at whatever points rounding puts it) and
    the integrity flag on an op the reference stores as None.  Any other
    raise, a flag on an op with a reference value, or an unflagged output
    that fails a check is a failure; only the last makes the run incorrect.
    Only ops with a vouched, checked result succeed.  `probe`, when given,
    is timed (in seconds, by itself) before every op.
    """
    tally.cycles += 1
    for i in range(len(workload)):
        if probe is not None:
            tally.probe_ms.append(probe() * 1e3)
        start = time.perf_counter()
        try:
            raw = workload.op(i)
        except Exception as exc:  # a raising op is counted; the sweep goes on
            tally.op_ms.append((time.perf_counter() - start) * 1e3)
            tally.ok.append(False)
            detail = f"{type(exc).__name__}: {exc}"
            if checks.is_mean_residue_raise(exc):
                tally.known_defect(workload, i, "residue", detail)
            else:
                tally.fail(workload, i, "raised", detail)
            continue
        tally.op_ms.append((time.perf_counter() - start) * 1e3)
        values, leak, flagged, errors = workload.inspect(i, raw)
        errors += checks.reference_errors(values, reference[i])
        tally.leak_max = max(tally.leak_max, leak)
        if flagged:
            detail = "; ".join([f"kernel leakage {leak:.3e}"] + errors)
            if reference[i] is None:
                tally.known_defect(workload, i, "flagged", detail)
            else:
                tally.fail(workload, i, "flagged", detail)
        elif errors:
            tally.correct = False
            tally.fail(workload, i, "check", "; ".join(errors))
        tally.ok.append(not flagged and not errors)


def trace_targets():
    """(module, attribute, span name[, observe]) for every traced lookup site."""
    return [
        (spin, "build_spin_family", "spin.build_spin_family"),
        (fisher, "build_spin_family", "spin.build_spin_family"),
        (spin, "build_spin_operators", "spin.build_spin_operators"),
        (fisher, "build_spin_operators", "spin.build_spin_operators"),
        (dynamics, "build_spin_operators", "spin.build_spin_operators"),
        (spin, "parity_operator", "spin.parity_operator"),
        (spin, "symmetric_product", "operators.symmetric_product"),
        (cv, "symmetric_product", "operators.symmetric_product"),
        (operators, "combine", "operators.combine"),
        (dynamics, "evolve", "dynamics.evolve"),
        (moments, "spin_squeezing_profile", "moments.spin_squeezing_profile"),
        (moments, "moment_data", "moments.moment_data"),
        (moments, "moment_matrix", "moments.moment_matrix",
         lambda md: (md.retained_count, md.size)),
        (moments, "optimize_generator", "moments.optimize_generator"),
        (moments, "optimal_measurement", "moments.optimal_measurement"),
        (moments, "chi2_error_propagation", "moments.chi2_error_propagation"),
        (moments, "chi2_inverse_opt", "moments.chi2_inverse_opt"),
        (moments, "entanglement_bound", "moments.entanglement_bound"),
        (fisher, "covariance_matrix", "moments.covariance_matrix"),
        (fisher, "f_max_density", "fisher.f_max_density"),
        (cv, "build_cv_second_order_family", "cv.build_cv_second_order_family"),
        (cv, "build_cv_third_order_family", "cv.build_cv_third_order_family"),
        (cv, "fock_state", "cv.fock_state"),
    ]
