"""Command line front end: tau sweeps, Fock-state reports, single-state
analysis, and estimator validation with deterministic CSV/JSON output."""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .cv import (
    FockBasis,
    build_cv_second_order_family,
    build_cv_third_order_family,
    default_cutoff,
    fock_state,
)
from .dynamics import MODELS, EvolutionSpec, coherent_spin_state_z, evolve
from .errors import ZeroSignalError
from .fisher import f_max_density
from .moments import (
    chi2_error_propagation,
    chi2_inverse_opt,
    entanglement_bound,
    simulate_moment_estimator,
    spin_squeezing_profile,
)
from .operators import MAX_DIMENSION
from .spin import _AXES, DickeBasis, build_spin_family, parity_operator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTEGRITY = 2


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# accepted value types per field annotation; bool is an int subclass, so it
# passes only where the annotation asks for a bool
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool,
                "str | None": (str, type(None))}


@dataclass
class SweepConfig:
    model: str = "OAT"
    n_particles: int = 16
    k_max: int = 2
    tau_start: float = 0.0
    tau_end: float = float(np.pi)
    steps: int = 51
    include_parity: bool = False
    include_qfi: bool = False
    output_path: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _FIELD_TYPES[f.type])
                    or (isinstance(value, bool) and f.type != "bool")):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float":  # a JSON integer may lie beyond float range
                try:
                    setattr(self, f.name, float(value))
                except OverflowError:
                    raise ValueError(f"{f.name} lies beyond float range") from None
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.n_particles < 1:
            raise ValueError("n must be >= 1")
        if not 1 <= self.k_max <= 6:
            raise ValueError("kmax must be between 1 and 6")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        for name, end in (("tau-start", self.tau_start), ("tau-end", self.tau_end)):
            if not math.isfinite(end):
                raise ValueError(f"{name} must be finite, got {end!r}")
        if not self.tau_start < self.tau_end:
            raise ValueError("tau-start must be smaller than tau-end")
        if not math.isfinite(self.tau_end - self.tau_start):
            raise ValueError("tau-end - tau-start must be finite")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def _load_sweep_config(args: argparse.Namespace) -> SweepConfig:
    cfg = SweepConfig()
    if args.config is not None:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"config {args.config} is nested too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(SweepConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            setattr(cfg, key, value)
    for f in fields(SweepConfig):
        value = getattr(args, f.name)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


def _csv_cells(record: dict):
    """(column, value) pairs of a sweep record's CSV row: n_opt_by_k is left
    out, and xi2_inv_by_k spreads over one xi2inv_k<k> column per order."""
    for key, value in record.items():
        if key == "xi2_inv_by_k":
            yield from ((f"xi2inv_k{k}", v) for k, v in enumerate(value, 1))
        elif key != "n_opt_by_k":
            yield key.replace("xi2_inv", "xi2inv"), value


def _run_sweep(args: argparse.Namespace) -> tuple[str | None, str, bool]:
    cfg = _load_sweep_config(args)
    if cfg.model == "OAT" and cfg.n_particles % 2 == 1:
        warnings.warn("OAT revival and GHZ statements assume an even particle number")
    basis = DickeBasis(cfg.n_particles)
    n = cfg.n_particles
    psi0 = coherent_spin_state_z(basis)
    family = build_spin_family(basis, cfg.k_max)
    if cfg.include_parity:
        jz, parity = basis.spin_axes[2], parity_operator(basis)
    records, flagged = [], False
    for tau in np.linspace(cfg.tau_start, cfg.tau_end, cfg.steps):
        state = evolve(psi0, EvolutionSpec(cfg.model, float(tau)))
        results = spin_squeezing_profile(state, basis, cfg.k_max, family=family)
        flagged = flagged or any(r.robertson_violated for r in results)
        xi2_inv_by_k = [r.chi2_inv / n for r in results]
        record = {
            "tau": float(tau),
            "xi2_inv_by_k": xi2_inv_by_k,
            "n_opt_by_k": [[float(v) for v in r.n_coeffs] for r in results],
        }
        candidates = list(xi2_inv_by_k)
        if cfg.include_parity:
            try:
                xi2_inv_parity = 1.0 / chi2_error_propagation(state, jz, parity) / n
            except ZeroSignalError:
                xi2_inv_parity = 0.0
            record["xi2_inv_parity"] = xi2_inv_parity
            candidates.append(xi2_inv_parity)
        if cfg.include_qfi:
            record["f_max"] = f_max_density(state, basis)[0]
        record["ent_bound"] = entanglement_bound(max(candidates))
        records.append(record)
    if cfg.format == "json":
        return cfg.output_path, json.dumps(records, indent=2, sort_keys=True) + "\n", flagged
    rows = [list(_csv_cells(record)) for record in records]
    lines = [",".join(column for column, _ in rows[0])] + [",".join(_fmt(v) for _, v in row) for row in rows]
    return cfg.output_path, "\n".join(lines) + "\n", flagged


def _fock_result(basis: FockBasis, n: int, order: int):
    build = build_cv_second_order_family if order == 2 else build_cv_third_order_family
    family = build(basis)
    state = fock_state(basis, n)
    return chi2_inverse_opt(state, family, [1.0, 0.0]), family


def _run_fock(args: argparse.Namespace) -> tuple[str | None, str, bool]:
    n = args.n
    if n is None or n < 0:
        raise ValueError("fock needs --n >= 0")
    cutoff = args.cutoff if args.cutoff is not None else default_cutoff(n)
    if cutoff < n + 4:
        raise ValueError(
            f"cutoff {cutoff} too small: cubic observables on |{n}> reach "
            f"|{n + 3}>, need at least {n + 4}"
        )
    if cutoff + 4 > MAX_DIMENSION:
        raise ValueError(
            f"cutoff {cutoff} too large: the convergence check at cutoff "
            f"{cutoff + 4} exceeds the dense limit {MAX_DIMENSION}"
        )
    basis = FockBasis(cutoff)
    result, family = _fock_result(basis, n, args.order)
    check, _ = _fock_result(FockBasis(cutoff + 4), n, args.order)
    drift = abs(check.chi2_inv - result.chi2_inv) / max(abs(check.chi2_inv), 1e-300)
    if drift > 1e-9:
        raise ValueError(
            f"cutoff {cutoff} not converged: chi2_inv changes by {drift:.3e} "
            f"relative when the cutoff grows; increase --cutoff"
        )
    xi2 = basis.shot_noise / result.chi2_inv if result.chi2_inv else float("inf")
    lines = [
        f"fock state |{n}>, order-{args.order} family, cutoff {cutoff}",
        f"chi2_inv = {_fmt(result.chi2_inv)}",
        f"xi2      = {_fmt(xi2)}",
    ]
    if result.m_coeffs is not None:
        pairs = ", ".join(f"{lbl}: {_fmt(v)}" for lbl, v in zip(family.labels, result.m_coeffs))
        lines.append(f"m_opt    = [{pairs}]")
    lines.append(f"cutoff convergence: relative drift {drift:.3e} at cutoff {cutoff + 4}")
    return None, "\n".join(lines) + "\n", result.robertson_violated


def _spin_state(args: argparse.Namespace):
    """(basis, state): the coherent spin state of --n particles evolved by --model for --tau."""
    basis = DickeBasis(args.n)
    return basis, evolve(coherent_spin_state_z(basis), EvolutionSpec(args.model, args.tau))


def _run_analyze(args: argparse.Namespace) -> tuple[str | None, str, bool]:
    if args.n is None or args.n < 1:
        raise ValueError("analyze needs --n >= 1")
    if not 1 <= args.kmax <= 6:
        raise ValueError("kmax must be between 1 and 6")
    basis, state = _spin_state(args)
    family = build_spin_family(basis, args.kmax)
    result = spin_squeezing_profile(state, basis, args.kmax, family=family)[-1]
    md = result.moments
    payload = {
        "model": args.model,
        "n_particles": args.n,
        "tau": args.tau,
        "k_max": args.kmax,
        "labels": family.labels,
        "gamma": md.gamma.tolist(),
        "c": md.c.tolist(),
        "m_matrix": md.m_matrix.tolist(),
        "m_tilde": md.m_matrix[:3, :3].tolist(),
        "lambda_max": result.lambda_max,
        "n_opt": [float(v) for v in result.n_coeffs],
        "m_opt": None if result.m_coeffs is None else [float(v) for v in result.m_coeffs],
        "retained_count": md.retained_count,
        "kernel_leakage": md.kernel_leakage,
    }
    return args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n", result.robertson_violated


def _run_estimate(args: argparse.Namespace) -> tuple[str | None, str, bool]:
    if args.n is None or args.n < 1:
        raise ValueError("estimate needs --n >= 1")
    if not args.window > 0:  # also NaN
        raise ValueError(f"window must be positive, got {args.window!r}")
    window = (args.theta - args.window, args.theta + args.window)
    basis, state = _spin_state(args)
    generator = basis.spin_axes[_AXES.index(args.generator)]
    observable = (parity_operator(basis) if args.observable == "parity"
                  else basis.spin_axes[_AXES.index(args.observable)])
    report = simulate_moment_estimator(
        state, generator, observable, args.theta,
        mu=args.mu, trials=args.trials, seed=args.seed, window=window,
    )
    lines = [
        f"model {args.model}, N={args.n}, tau={_fmt(args.tau)}; "
        f"generator {args.generator}, observable {args.observable}",
        f"theta = {_fmt(args.theta)}, mu = {args.mu}, "
        f"trials = {args.trials}, seed = {args.seed}",
        f"predicted variance = {_fmt(report.predicted_variance)}",
        f"empirical variance = {_fmt(report.empirical_variance)}",
        f"ratio = {_fmt(report.ratio)}",
    ]
    if report.n_clamped:
        lines.append(f"clamped sample means: {report.n_clamped}/{args.trials}")
    return None, "\n".join(lines) + "\n", False


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlsqueeze",
        description="Optimized nonlinear squeezing parameters for spin and "
                    "bosonic states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every dest but config's is a SweepConfig field name
    sweep = sub.add_parser("sweep", help="tau sweep of squeezing coefficients")
    sweep.add_argument("--model", choices=MODELS, default=None)
    sweep.add_argument("--n", dest="n_particles", type=int, default=None,
                       help="particle number")
    sweep.add_argument("--kmax", dest="k_max", type=int, default=None,
                       help="highest family order")
    sweep.add_argument("--tau-start", dest="tau_start", type=float, default=None)
    sweep.add_argument("--tau-end", dest="tau_end", type=float, default=None)
    sweep.add_argument("--steps", type=int, default=None)
    sweep.add_argument("--parity", dest="include_parity",
                       action=argparse.BooleanOptionalAction, default=None,
                       help="include the parity squeezing column")
    sweep.add_argument("--qfi", dest="include_qfi",
                       action=argparse.BooleanOptionalAction, default=None,
                       help="include the quantum Fisher density column")
    sweep.add_argument("--out", dest="output_path", default=None,
                       help="output path (default stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default=None)
    sweep.add_argument("--config", default=None, help="JSON config file; flags override")
    sweep.set_defaults(func=_run_sweep)

    fock = sub.add_parser("fock", help="Fock-state displacement sensing report")
    fock.add_argument("--n", type=int, default=None, help="Fock index")
    fock.add_argument("--order", type=int, choices=(2, 3), default=3)
    fock.add_argument("--cutoff", type=int, default=None,
                      help=f"Fock dimension (default n + 8, at most {MAX_DIMENSION - 4})")
    fock.set_defaults(func=_run_fock)

    # the evolved spin state of analyze and estimate (see `_spin_state`)
    spin_state = argparse.ArgumentParser(add_help=False)
    spin_state.add_argument("--model", choices=MODELS, default="OAT")
    spin_state.add_argument("--n", type=int, default=None)
    spin_state.add_argument("--tau", type=float, default=0.0)

    analyze = sub.add_parser("analyze", parents=[spin_state], help="moment matrices for one state")
    analyze.add_argument("--kmax", type=int, default=2)
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(func=_run_analyze)

    estimate = sub.add_parser("estimate", parents=[spin_state], help="moment-estimator validation")
    estimate.add_argument("--generator", choices=_AXES, default="Jx")
    estimate.add_argument("--observable", choices=_AXES + ("parity",), default="Jy")
    estimate.add_argument("--theta", type=float, default=0.0)
    estimate.add_argument("--mu", type=int, default=10_000)
    estimate.add_argument("--trials", type=int, default=200)
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--window", type=float, default=0.3,
                          help="calibration window half width around theta")
    estimate.set_defaults(func=_run_estimate)

    return parser


def _run(args):
    """Run the subcommand, printing each warning it raises as one `warning:`
    line on stderr instead of Python's source location and line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default", UserWarning)  # a line, also under -W error
        try:
            return args.func(args)
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one subcommand, which returns (output path or None for stdout, text,
    integrity flag); errors, output and exit codes are handled here alone."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        path, text, flagged = _run(args)
    except (ValueError, OSError, MemoryError) as exc:  # numpy names an array beyond memory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if flagged:
        print("warning: covariance kernel carries commutator signal "
              "(numerical integrity flag)", file=sys.stderr)
        return EXIT_INTEGRITY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
