"""Benchmark child process: one workload's set-up, then its op loop.

    python worker.py WORKLOAD SEED MODE SECONDS SRC

run.py starts it with the BLAS thread count pinned in the environment and
SRC on PYTHONPATH.  MODE is `run` (set up, then start whole cycles of ops
while less than SECONDS have passed; none when SECONDS is 0) or `trace`
(as `run`, with a traced set-up and at least two cycles, alternately
untraced and traced).  The last line on stdout is one JSON object; `ready` in it is
the CLOCK_MONOTONIC time at which set-up ended, which run.py compares with
the time it started the process.
"""

import time

_IMPORT_START = time.perf_counter()
import numpy as np  # noqa: E402
import nlsqueeze  # noqa: E402
import nlsqueeze.cli  # noqa: E402,F401  (the CLI's import cost is part of cli.import_s)

IMPORT_S = time.perf_counter() - _IMPORT_START

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

PROBES_WITHOUT_OPS = 9  # calibration samples of a process that runs no op
STREAMING_MB = 8.0  # a dense family beyond this does not stay in a core's cache
LAYERS = ("spin", "operators", "dynamics", "moments", "fisher", "cv")
REFERENCE = Path(__file__).with_name("reference.json")


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


class Calibration:
    """A fixed kernel of small dense linear algebra and interpreter work,
    timed next to every op.  The machine's speed drifts by up to 2x over
    seconds to minutes under other tenants' load; this kernel slows with
    it, so run.py scales op times by CALIBRATION_REF_MS over its local
    median.  Ops that stream a dense family larger than STREAMING_MB slow
    with memory traffic rather than with the cache-resident kernel, so for
    them the kernel also streams a few MB."""

    def __init__(self, streaming: bool):
        rng = np.random.default_rng(0)
        sym = rng.normal(size=(55, 55))
        self.sym = sym + sym.T
        self.mat = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        self.big = None
        if streaming:
            self.big = rng.normal(size=(401, 401)) + 1j * rng.normal(size=(401, 401))
            self.out = np.empty_like(self.big)
            self.vec = rng.normal(size=401) + 0j

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(3):
            np.linalg.eigh(self.sym)
            self.mat @ self.mat
        total = 0
        for i in range(2000):
            total += i
        if self.big is not None:
            for _ in range(2):
                np.multiply(self.big, 0.3, out=self.out)
                self.big @ self.vec
        return time.perf_counter() - start


def loop(workload, reference, seconds, traced=None):
    """Start whole cycles while less than `seconds` have passed.

    Untraced runs time the calibration kernel before every op, or
    PROBES_WITHOUT_OPS times when they run no op.  With a tracer, cycles
    alternate untraced and traced (at least one of each), the second tally
    holds the traced ones, and nothing is calibrated.
    """
    probe = Calibration(workload.family_mbytes > STREAMING_MB) if traced is None else None
    plain, with_spans = workloads.Tally(), workloads.Tally()
    start = time.perf_counter()
    cycle = 0
    while time.perf_counter() - start < seconds or (traced is not None and cycle < 2):
        if traced is not None and cycle % 2 == 1:
            with patched(traced, workloads.trace_targets()):
                workloads.run_cycle(workload, reference, with_spans)
        else:
            workloads.run_cycle(workload, reference, plain, probe)
        cycle += 1
    loop_s = time.perf_counter() - start
    if probe is not None and not plain.probe_ms:
        plain.probe_ms = [probe() * 1e3 for _ in range(PROBES_WITHOUT_OPS)]
    return plain, with_spans, loop_s


def tally_summary(tally) -> dict:
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "op_ms": tally.op_ms,
        "ok": tally.ok,
        "probe_ms": tally.probe_ms,
        "failures": [[i, *failure] for i, failure in sorted(tally.first_failure.items())],
        "known": tally.known,
        "known_defects": [[i, *known] for i, known in sorted(tally.first_known.items())],
        "correct": tally.correct,
    }


def layer_metrics(workload, setup: Tracer, spans: Tracer, plain, with_spans) -> dict:
    """Per-layer metrics of a traced run; *_ms_per_op are per attempted op
    of the traced cycles, function names give inclusive time, `<layer>.self`
    and `moments.table` give self time."""
    ops = with_spans.attempted

    def ms(*names, table=spans.total_s):
        return 1e3 * sum(table[n] for n in names) / ops

    def calls(name):
        return spans.calls[name] / ops

    retained = spans.observed["moments.moment_matrix"]
    top = max((size for _, size in retained), default=0)
    top_fracs = [kept / size for kept, size in retained if size == top]
    metrics = {
        "spin.build_spin_family_s": setup.total_s["spin.build_spin_family"],
        "operators.symmetric_product_s": setup.total_s["operators.symmetric_product"],
        "spin.family_mbytes": workload.family_mbytes,
        "spin.parity_operator_s": setup.total_s["spin.parity_operator"],
        "dynamics.propagator_init_s": setup.total_s["dynamics.evolve"],
        "spin.build_spin_operators_calls_per_op": calls("spin.build_spin_operators"),
        "dynamics.evolve_ms_per_op": ms("dynamics.evolve"),
        "moments.table_ms_per_op": ms("moments.spin_squeezing_profile", "moments.moment_data",
                                      table=spans.self_s),
        "moments.moment_matrix_ms_per_op": ms("moments.moment_matrix"),
        "moments.moment_matrix_calls_per_op": calls("moments.moment_matrix"),
        "moments.optimize_generator_ms_per_op": ms("moments.optimize_generator"),
        "moments.optimize_generator_calls_per_op": calls("moments.optimize_generator"),
        "moments.optimal_measurement_ms_per_op": ms("moments.optimal_measurement"),
        "moments.chi2_error_propagation_ms_per_op": ms("moments.chi2_error_propagation"),
        "moments.chi2_error_propagation_calls_per_op": calls("moments.chi2_error_propagation"),
        "operators.combine_ms_per_op": ms("operators.combine"),
        "operators.combine_calls_per_op": calls("operators.combine"),
        "moments.retained_frac": statistics.fmean(top_fracs) if top_fracs else 0.0,
        "moments.kernel_leakage_max": max(plain.leak_max, with_spans.leak_max),
        "moments.raised_ops": (with_spans.failed["raised"] + with_spans.known["residue"])
        / with_spans.cycles,
        "moments.flagged_ops": (with_spans.failed["flagged"] + with_spans.known["flagged"])
        / with_spans.cycles,
        "moments.chi2_inverse_opt_ms_per_op": ms("moments.chi2_inverse_opt"),
        "cv.family_build_ms_per_op": ms("cv.build_cv_second_order_family",
                                        "cv.build_cv_third_order_family"),
        "fisher.f_max_density_ms_per_op": ms("fisher.f_max_density"),
        "trace.span_coverage": 1e3 * spans.top_level_s / sum(with_spans.op_ms),
        "trace.overhead_ms_per_op": (statistics.median(with_spans.ok_ms)
                                     - statistics.median(plain.ok_ms)
                                     if with_spans.ok_ms and plain.ok_ms else 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = 1e3 * spans.layer_self_s(layer) / ops
    return metrics


def main(argv) -> int:
    name, seed, mode, seconds, src = argv[1], int(argv[2]), argv[3], float(argv[4]), argv[5]
    if Path(nlsqueeze.__file__).resolve().parent != Path(src).resolve() / "nlsqueeze":
        print(f"error: nlsqueeze imported from {nlsqueeze.__file__}, not {src}", file=sys.stderr)
        return 1
    variant = workloads.variant_of(seed)
    make = workloads.WORKLOADS[name]
    setup = Tracer()
    if mode == "trace":
        with patched(setup, workloads.trace_targets()):
            workload = make(variant)
    else:
        workload = make(variant)
    out = {
        "ready": time.clock_gettime(time.CLOCK_MONOTONIC),
        "import_s": IMPORT_S,
        "env": {
            "numpy": np.__version__,
            "blas": blas_info(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
        },
    }
    reference = workloads.reference_points(json.loads(REFERENCE.read_text()), name, variant)
    spans = Tracer() if mode == "trace" else None
    plain, with_spans, loop_s = loop(workload, reference, seconds, spans)
    out.update(
        loop_s=loop_s,
        plain=tally_summary(plain),
        traced=tally_summary(with_spans),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if spans is not None:
        out["layers"] = layer_metrics(workload, setup, spans, plain, with_spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
