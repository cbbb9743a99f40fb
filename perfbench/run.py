"""nlsqueeze benchmark: sweep points and Fock problems, end to end and per layer.

    python3 perfbench/run.py --workload oat_n16_k5 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a source checkout; nlsqueeze is imported from its
`src` directory.  Every child process runs with one BLAS thread.  Without
tracing a run reports the end-to-end metrics:

- setup_s: median over REPS fresh processes of the wall time from
  process start to the first op being ready (imports, family and parity
  construction, first evolve);
- ops_per_s, op_ms_p50, op_ms_p90: successful ops per second of op time
  and the latency percentiles of successful ops, pooled over the REPS
  processes, which run whole cycles of ops for `--seconds` in all;
- peak_rss_mb: the largest peak resident memory of those processes.

After each of those processes the README sweep command runs once, cold;
its exit code and CSV are checked and its median time is printed as
cli_sweep_s, but it is not an end-to-end metric (see measure).

Times are calibrated: on a shared 2-core VM the machine's speed drifts by
up to 2x over seconds to minutes with other tenants' load, so every op-loop
process times a fixed kernel before each op, and each time above is scaled
to a machine that runs the kernel in CALIBRATION_REF_MS (see end_to_end).
The summary also prints every value uncalibrated.  The seed picks the
workload's input variant (see workloads.py).

With `--trace 1` a separate traced process reports the per-layer metrics
(see worker.py).  Ops that hit a known defect of the reference commit (see
workloads.run_cycle; the README command's exit code 2) are counted and
listed apart as known_frac.  Every other failed op (raised, integrity flag,
failed output check, CLI exit code or CSV unlike the reference) counts in
`failed`; an output that fails a check without the program flagging it
makes `correct` false.  A human-readable summary
and a record line precede the last line, which is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# one BLAS thread: the failure pattern of oat_n400_k3 depends on the count
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REPS = 5  # op-loop processes per run, each also giving one set-up time
CALIBRATION_REF_MS = 1.0  # calibrated times are those of a machine running the kernel in 1 ms
CALIBRATION_WINDOW = 9  # calibration kernel times per local median
ONE_CYCLE_S = 1e-3  # a budget shorter than any cycle, so the worker runs exactly one
DEADLINE_S = 170.0

WORKLOAD_NAMES = ("oat_n16_k5", "oat_n400_k3", "tat_mixed_n60_k3", "fock_scan")
README_WORKLOAD = "oat_n16_k5"  # the in-process twin of the README command at seed 0
CLI_SWEEP_ARGS = ["sweep", "--model", "OAT", "--n", "16", "--kmax", "5",
                  "--tau-start", "0", "--tau-end", "3.141592653589793",
                  "--steps", "101", "--parity", "--qfi"]

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# Per-layer metrics of a traced run, one layer per module of src/nlsqueeze,
# each with the end-to-end metric and workload it should move.  Names ending
# in _s are set-up spans; *_ms_per_op and *_calls_per_op are per attempted
# op of the traced cycles.  Function-named times are inclusive; the
# <layer>.self_ms_per_op and moments.table_ms_per_op times are self times.
PER_LAYER = {
    "spin.build_spin_family_s": "s",  # setup_s, oat_n400_k3
    "operators.symmetric_product_s": "s",  # setup_s, oat_n400_k3
    "spin.family_mbytes": "MB",  # computed L*D^2*16/1e6 -> peak_rss_mb, oat_n400_k3
    "spin.parity_operator_s": "s",  # setup_s, oat_n16_k5
    # the K=1 family rebuild inside f_max_density -> ops_per_s, oat_n400_k3
    "spin.build_spin_operators_calls_per_op": "count",
    "dynamics.propagator_init_s": "s",  # first evolve -> setup_s, oat_n400_k3 and tat_mixed_n60_k3
    "dynamics.evolve_ms_per_op": "ms",  # ops_per_s, tat_mixed_n60_k3 and oat_n400_k3
    "moments.table_ms_per_op": "ms",  # ops_per_s, oat_n400_k3 and tat_mixed_n60_k3
    "moments.moment_matrix_ms_per_op": "ms",  # ops_per_s and op_ms_p50, oat_n16_k5
    "moments.moment_matrix_calls_per_op": "count",
    "moments.optimize_generator_ms_per_op": "ms",  # ops_per_s and op_ms_p50, oat_n16_k5
    "moments.optimize_generator_calls_per_op": "count",
    "moments.optimal_measurement_ms_per_op": "ms",  # ops_per_s, oat_n16_k5
    "moments.chi2_error_propagation_ms_per_op": "ms",  # ops_per_s, oat_n400_k3 and tat_mixed_n60_k3
    "moments.chi2_error_propagation_calls_per_op": "count",
    "operators.combine_ms_per_op": "ms",  # ops_per_s, oat_n400_k3 (dominant) and oat_n16_k5
    "operators.combine_calls_per_op": "count",
    "moments.retained_frac": "ratio",  # retained rank / L at order K -> failures, oat_n16_k5
    "moments.kernel_leakage_max": "ratio",  # integrity flag -> failures, oat_n16_k5
    "moments.raised_ops": "count",  # per cycle -> failures, oat_n400_k3
    "moments.flagged_ops": "count",  # per cycle -> failures, oat_n16_k5
    "moments.chi2_inverse_opt_ms_per_op": "ms",  # ops_per_s, fock_scan
    "cv.family_build_ms_per_op": "ms",  # ops_per_s, fock_scan
    "fisher.f_max_density_ms_per_op": "ms",  # ops_per_s, oat_n400_k3 and tat_mixed_n60_k3
    "spin.self_ms_per_op": "ms",
    "operators.self_ms_per_op": "ms",
    "dynamics.self_ms_per_op": "ms",
    "moments.self_ms_per_op": "ms",
    "fisher.self_ms_per_op": "ms",
    "cv.self_ms_per_op": "ms",
    "trace.span_coverage": "ratio",  # share of op time inside spans
    "trace.overhead_ms_per_op": "ms",  # median traced minus untraced op time
    "cli.sweep_s": "s",  # the README command, cold: median of REPS runs
    "cli.import_s": "s",  # cli.sweep_s
    "cli.overhead_s": "s",  # cli.sweep_s minus its in-process twin's set-up and sweep
}


class BenchError(RuntimeError):
    """The benchmark could not measure: missing source, crash or timeout."""


def percentile(values, q: float) -> tuple[float, int]:
    """q-th percentile (0..100, linear interpolation) and the sample count."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), len(ordered)


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so worker.py's `ready` stamps compare with it
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before {argv[1:3]}")
    try:
        return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {argv[1:3]}") from exc


def worker(name: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    started = monotonic()
    proc = run_child([sys.executable, str(HERE / "worker.py"), name, str(seed), mode,
                      str(seconds), str(SRC)], deadline)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {name} {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    return out


def cli_run(deadline: float, reference: dict) -> dict:
    """One cold run of the README sweep command, checked against the CSV."""
    skip = [i for i, ref in enumerate(reference["sweeps"][README_WORKLOAD]["0"]) if ref is None]
    start = time.perf_counter()
    proc = run_child([sys.executable, "-m", "nlsqueeze", *CLI_SWEEP_ARGS], deadline)
    seconds = time.perf_counter() - start
    errors = checks.csv_errors(proc.stdout, reference["cli_csv"], skip)
    return {"seconds": seconds, "exit": proc.returncode, "errors": errors}


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def local_medians(values, window: int = CALIBRATION_WINDOW) -> list:
    """Median of each value's neighbourhood of `window` values, the
    neighbourhood shifted inwards at the ends."""
    half = window // 2
    out = []
    for i in range(len(values)):
        lo = max(0, min(i - half, len(values) - window))
        out.append(statistics.median(values[lo:lo + window]))
    return out


def end_to_end(runs):
    """Calibrated end-to-end metrics, their uncalibrated values and notes.

    Each op time is multiplied by CALIBRATION_REF_MS over the local median
    of the calibration kernel times around it, a set-up time by the factor
    of its process's first ops.
    """
    ok_cal, ok_raw, cal_s, raw_s, speed, starts = [], [], 0.0, 0.0, [], []
    for r in runs:
        tally = r["plain"]
        factors = [CALIBRATION_REF_MS / m for m in local_medians(tally["probe_ms"])]
        cal = [ms * f for ms, f in zip(tally["op_ms"], factors)]
        ok_cal += [ms for ms, good in zip(cal, tally["ok"]) if good]
        ok_raw += [ms for ms, good in zip(tally["op_ms"], tally["ok"]) if good]
        cal_s += sum(cal) / 1e3
        raw_s += sum(tally["op_ms"]) / 1e3
        speed += factors
        starts.append(factors[0])
    if not ok_cal:
        raise BenchError("no op succeeded; nothing to time")
    n = len(ok_cal)
    rss = max(r["peak_rss_kb"] for r in runs) * 1024 / 1e6

    def metrics(ok_ms, op_s, setup):
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": n / op_s,
            "op_ms_p50": percentile(ok_ms, 50)[0],
            "op_ms_p90": percentile(ok_ms, 90)[0],
            "peak_rss_mb": rss,
        }

    notes = {
        "setup_s": f"median of {len(runs)} fresh processes",
        "ops_per_s": f"{n} successful ops, {raw_s:.3f} s of op time in "
                     f"{sum(1 for r in runs if r['plain']['op_ms'])} processes, "
                     f"median speed factor {statistics.median(speed):.3f}",
        "op_ms_p50": f"n={n}",
        "op_ms_p90": f"n={n}",
        "peak_rss_mb": f"largest of {len(runs)} processes",
    }
    return (metrics(ok_cal, cal_s, [r["setup_s"] * f for r, f in zip(runs, starts)]),
            metrics(ok_raw, raw_s, [r["setup_s"] for r in runs]), notes)


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; return the final JSON object and the summary lines."""
    deadline = monotonic() + DEADLINE_S
    reference = json.loads(REFERENCE.read_text())
    # compile and page in the package so that the timed start-ups are alike
    warm = run_child([sys.executable, "-c", "import nlsqueeze.cli"], deadline)
    if warm.returncode != 0:
        raise BenchError(f"cannot import nlsqueeze from {SRC}: {warm.stderr[-2000:]}")

    # worker processes alternate with CLI runs, so that both sample the
    # machine over the whole run rather than one stretch of it
    runs, cli = [], []
    if trace:
        main = worker(name, seed, "trace", seconds, deadline)
        tallies = [main["plain"], main["traced"]]
        for _ in range(REPS):
            # one sweep of the README grid in-process: the CLI's in-process twin
            runs.append(worker(README_WORKLOAD, 0, "run", ONE_CYCLE_S, deadline))
            cli.append(cli_run(deadline, reference))
    else:
        # each process gets an even share of what is left of `seconds`; a
        # process whose cycles would overrun it only sets up and calibrates
        used = 0.0
        for i in range(REPS):
            budget = max(0.0, (seconds - used) / (REPS - i))
            runs.append(worker(name, seed, "run", budget, deadline))
            used += runs[-1]["loop_s"]
            cli.append(cli_run(deadline, reference))
        main = runs[0]
        tallies = [r["plain"] for r in runs]

    attempted = sum(t["attempted"] for t in tallies) + len(cli)
    by_kind = {k: sum(t["failed"][k] for t in tallies) for k in ("raised", "flagged", "check")}
    # the README command exits 2 at the reference commit (integrity flag on
    # two points): that exit code is a known defect, any other is a failure
    cli_exit = reference["cli_exit_code"]
    by_kind["cli"] = sum(1 for r in cli if r["exit"] != cli_exit or r["errors"])
    failed = sum(by_kind.values())
    known = {k: sum(t["known"][k] for t in tallies) for k in ("residue", "flagged")}
    known["cli_exit"] = sum(1 for r in cli if r["exit"] == cli_exit != 0 and not r["errors"])
    correct = all(t["correct"] for t in tallies) and not any(r["errors"] for r in cli)
    cli_s = statistics.median(r["seconds"] for r in cli)
    first_failure, first_known = {}, {}
    for tally in tallies:
        for index, kind, detail in tally["failures"]:
            first_failure.setdefault(index, (kind, detail))
        for index, kind, detail in tally["known_defects"]:
            first_known.setdefault(index, (kind, detail))

    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  "
             f"blas_threads {main['env']['blas_threads']}"]
    if trace:
        values = dict(main["layers"])
        values["cli.import_s"] = main["import_s"]
        values["cli.sweep_s"] = cli_s
        twin_s = statistics.median(r["setup_s"] + sum(r["plain"]["op_ms"]) / 1e3 for r in runs)
        values["cli.overhead_s"] = cli_s - twin_s
        units = PER_LAYER
        lines += [f"  {k:<44} {v:.6g} {units[k]}" for k, v in values.items()]
        raw = {}
    else:
        values, raw, notes = end_to_end(runs)
        units = END_TO_END
        lines += [f"  {k:<12} {v:>12.6g} {units[k]:<4} (uncalibrated {raw[k]:.6g}; {notes[k]})"
                  for k, v in values.items()]
        # a CLI run is a 0.5-0.8 s one-shot process while this machine's speed
        # flips on sub-second scales, so calibration samples next to it do not
        # track it; its spread over ten runs (up to 0.22 of the median) is
        # wider than any bound an end-to-end metric may have
        raw["cli_sweep_s"] = cli_s
        lines.append(f"  cli_sweep_s  {cli_s:>12.6g} s    (uncalibrated; median of {len(cli)} "
                     "cold runs; reported, not an end-to-end metric)")
    lines.append(f"  fail_frac    {failed / attempted:>12.6g}      ({failed} of {attempted} "
                 f"attempted: {', '.join(f'{k} {v}' for k, v in by_kind.items())}; "
                 f"CLI exit codes {[r['exit'] for r in cli]}, reference {cli_exit})")
    lines.append(f"  known_frac   {sum(known.values()) / attempted:>12.6g}      "
                 f"({sum(known.values())} of {attempted} attempted hit a defect of the "
                 f"reference commit: {', '.join(f'{k} {v}' for k, v in known.items())})")
    for index, (kind, detail) in sorted(first_failure.items())[:20]:
        lines.append(f"  failed: {name} op {index}: {kind}: {detail[:300]}")
    for index, (kind, detail) in sorted(first_known.items())[:20]:
        lines.append(f"  known defect: {name} op {index}: {kind}: {detail[:200]}")
    for run in cli:
        for error in run["errors"][:5]:
            lines.append(f"  failed: {name} cli csv: {error}")

    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "env": {**main["env"], "commit": commit(), "src_lines": src_lines()},
        "attempted": attempted, "failed_by_kind": by_kind, "known_by_kind": known,
        "cli_exit_codes": [r["exit"] for r in cli],
        "metrics": values, "uncalibrated": raw,
    }
    lines.append("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nlsqueeze" / "__init__.py").is_file():
        print(f"error: no nlsqueeze source under {SRC}", file=sys.stderr)
        return 1
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result, lines = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
