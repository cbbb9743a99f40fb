"""Regenerate reference.json from the nlsqueeze source of this checkout.

    python3 perfbench/make_reference.py

The file holds, for every sweep workload and input variant, the values of
each op (xi2inv_k1..K, then the parity and f_max columns when the workload
has them), the Fock chi2_inv values, and the stdout and exit code of the
README sweep command.  An op that raised or set the integrity flag is
stored as null: the program did not vouch for it, so nothing is compared
with it, and the benchmark counts a flag there as a known defect.  Values keep 13 significant digits, well inside checks.REF_REL.
Regenerate only at a commit whose numbers are trusted; the stored file
comes from the commit that introduced the benchmark.
"""

import json
import os
import sys

import run

os.environ.update(run.PINNED_ENV)  # before numpy is imported
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def op_values(workload, i):
    try:
        raw = workload.op(i)
    except Exception as exc:  # recorded as "no reference" and reported
        print(f"  op {i}: raised {type(exc).__name__}", file=sys.stderr)
        return None
    values, _, flagged, errors = workload.inspect(i, raw)
    if errors:
        print(f"  op {i}: {errors}", file=sys.stderr)
    if flagged:
        print(f"  op {i}: flagged", file=sys.stderr)
        return None
    return [float(f"{v:.13g}") for v in values]


def main() -> int:
    reference = {"sweeps": {}}
    for name in run.WORKLOAD_NAMES:
        variants = [0] if name == "fock_scan" else range(workloads.VARIANTS)
        for variant in variants:
            print(f"{name} variant {variant}", file=sys.stderr)
            workload = workloads.WORKLOADS[name](variant)
            points = [op_values(workload, i) for i in range(len(workload))]
            if name == "fock_scan":
                reference["fock_scan"] = points
            else:
                reference["sweeps"].setdefault(name, {})[str(variant)] = points
    cli = run.run_child([sys.executable, "-m", "nlsqueeze", *run.CLI_SWEEP_ARGS],
                        run.monotonic() + 600)
    reference["cli_csv"] = cli.stdout
    reference["cli_exit_code"] = cli.returncode
    run.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
