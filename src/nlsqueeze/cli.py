"""Command line front end: tau sweeps, Fock-state reports, single-state
analysis, and estimator validation with deterministic CSV/JSON output."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .cv import (
    MAX_CUTOFF,
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
    KERNEL_LEAK_TOL,
    chi2_error_propagation,
    chi2_inverse_opt,
    entanglement_bound,
    moment_data,
    optimal_measurement,
    optimize_generator,
    principal_submatrix,
    simulate_moment_estimator,
    spin_squeezing_profile,
)
from .spin import DickeBasis, build_spin_family, build_spin_operators, parity_operator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTEGRITY = 2


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


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
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.n_particles < 1:
            raise ValueError("n must be >= 1")
        if not 1 <= self.k_max <= 6:
            raise ValueError("kmax must be between 1 and 6")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if not self.tau_start < self.tau_end:
            raise ValueError("tau-start must be smaller than tau-end")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")


_FLAG_TO_FIELD = {
    "model": "model",
    "n": "n_particles",
    "kmax": "k_max",
    "tau_start": "tau_start",
    "tau_end": "tau_end",
    "steps": "steps",
    "parity": "include_parity",
    "qfi": "include_qfi",
    "out": "output_path",
    "format": "format",
}


def _load_sweep_config(args: argparse.Namespace) -> SweepConfig:
    cfg = SweepConfig()
    if args.config is not None:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(SweepConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            setattr(cfg, key, value)
    for flag, field_name in _FLAG_TO_FIELD.items():
        value = getattr(args, flag)
        if value is not None:
            setattr(cfg, field_name, value)
    cfg.validate()
    return cfg


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _sweep_records(cfg: SweepConfig) -> list[dict]:
    """One record per tau point; "_leak" holds the point's kernel leakage."""
    basis = DickeBasis(cfg.n_particles)
    n = cfg.n_particles
    psi0 = coherent_spin_state_z(basis)
    family = build_spin_family(basis, cfg.k_max)
    jz = build_spin_operators(basis)[2]
    parity = parity_operator(basis) if cfg.include_parity else None
    records = []
    for tau in np.linspace(cfg.tau_start, cfg.tau_end, cfg.steps):
        state = evolve(psi0, EvolutionSpec(cfg.model, float(tau)))
        results = spin_squeezing_profile(state, basis, cfg.k_max, family=family)
        xi2_inv_by_k = [r.chi2_inv / n for r in results]
        record = {
            "tau": float(tau),
            "xi2_inv_by_k": xi2_inv_by_k,
            "n_opt_by_k": [[float(v) for v in r.n_coeffs] for r in results],
        }
        candidates = list(xi2_inv_by_k)
        if parity is not None:
            try:
                xi2_inv_parity = 1.0 / chi2_error_propagation(state, jz, parity) / n
            except ZeroSignalError:
                xi2_inv_parity = 0.0
            record["xi2_inv_parity"] = xi2_inv_parity
            candidates.append(xi2_inv_parity)
        if cfg.include_qfi:
            record["f_max"] = f_max_density(state, basis)[0]
        record["ent_bound"] = entanglement_bound(max(candidates))
        record["_leak"] = max(r.kernel_leakage for r in results)
        records.append(record)
    return records


def _run_sweep(args: argparse.Namespace) -> int:
    try:
        cfg = _load_sweep_config(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))

    if cfg.model == "OAT" and cfg.n_particles % 2 == 1:
        print(
            "warning: OAT revival and GHZ statements assume an even particle "
            "number", file=sys.stderr,
        )

    try:
        records = _sweep_records(cfg)
    except ValueError as exc:
        return _fail(str(exc))
    flagged = any(rec.pop("_leak") > KERNEL_LEAK_TOL for rec in records)

    if cfg.format == "csv":
        header = ["tau"] + [f"xi2inv_k{k}" for k in range(1, cfg.k_max + 1)]
        if cfg.include_parity:
            header.append("xi2inv_parity")
        if cfg.include_qfi:
            header.append("f_max")
        header.append("ent_bound")
        lines = [",".join(header)]
        for rec in records:
            cells = [_fmt(rec["tau"])]
            cells += [_fmt(v) for v in rec["xi2_inv_by_k"]]
            if cfg.include_parity:
                cells.append(_fmt(rec["xi2_inv_parity"]))
            if cfg.include_qfi:
                cells.append(_fmt(rec["f_max"]))
            cells.append(str(rec["ent_bound"]))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(records, indent=2, sort_keys=True) + "\n"

    try:
        _write_text(cfg.output_path, text)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    if flagged:
        print("warning: covariance kernel carries commutator signal "
              "(numerical integrity flag)", file=sys.stderr)
        return EXIT_INTEGRITY
    return EXIT_OK


def _fock_result(n: int, order: int, cutoff: int):
    basis = FockBasis(cutoff)
    if order == 2:
        family = build_cv_second_order_family(basis)
    else:
        family = build_cv_third_order_family(basis)
    state = fock_state(basis, n)
    return chi2_inverse_opt(state, family, [1.0, 0.0]), family


def _run_fock(args: argparse.Namespace) -> int:
    n = args.n
    if n is None or n < 0:
        return _fail("fock needs --n >= 0")
    order = args.order
    cutoff = args.cutoff if args.cutoff is not None else default_cutoff(n)
    if cutoff < n + 4:
        return _fail(
            f"cutoff {cutoff} too small: cubic observables on |{n}> reach "
            f"|{n + 3}>, need at least {n + 4}"
        )
    if cutoff + 4 > MAX_CUTOFF:
        return _fail(
            f"cutoff {cutoff} too large: the convergence check at cutoff "
            f"{cutoff + 4} exceeds the dense limit {MAX_CUTOFF}"
        )
    try:
        result, family = _fock_result(n, order, cutoff)
        check, _ = _fock_result(n, order, cutoff + 4)
    except ValueError as exc:
        return _fail(str(exc))
    drift = abs(check.chi2_inv - result.chi2_inv) / max(abs(check.chi2_inv), 1e-300)
    if drift > 1e-9:
        return _fail(
            f"cutoff {cutoff} not converged: chi2_inv changes by {drift:.3e} "
            f"relative when the cutoff grows; increase --cutoff"
        )
    print(f"fock state |{n}>, order-{order} family, cutoff {cutoff}")
    print(f"chi2_inv = {_fmt(result.chi2_inv)}")
    print(f"xi2      = {_fmt(result.xi2)}")
    if result.m_coeffs is not None:
        pairs = ", ".join(
            f"{lbl}: {_fmt(v)}" for lbl, v in zip(family.labels, result.m_coeffs)
        )
        print(f"m_opt    = [{pairs}]")
    print(f"cutoff convergence: relative drift {drift:.3e} at cutoff {cutoff + 4}")
    if result.robertson_violated:
        return EXIT_INTEGRITY
    return EXIT_OK


def _run_analyze(args: argparse.Namespace) -> int:
    if args.n is None or args.n < 1:
        return _fail("analyze needs --n >= 1")
    if not 1 <= args.kmax <= 6:
        return _fail("kmax must be between 1 and 6")
    basis = DickeBasis(args.n)
    slots = [0, 1, 2]
    try:
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec(args.model, args.tau))
        family = build_spin_family(basis, args.kmax)
        md = moment_data(state, family)
        n_opt, lam = optimize_generator(md, slots)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        m_opt = [float(v) for v in optimal_measurement(md, n_opt, slots)]
    except ZeroSignalError:
        m_opt = None
    payload = {
        "model": args.model,
        "n_particles": args.n,
        "tau": args.tau,
        "k_max": args.kmax,
        "labels": family.labels,
        "gamma": md.gamma.tolist(),
        "c": md.c.tolist(),
        "m_matrix": md.m_matrix.tolist(),
        "m_tilde": principal_submatrix(md.m_matrix, slots).tolist(),
        "lambda_max": lam,
        "n_opt": [float(v) for v in n_opt],
        "m_opt": m_opt,
        "retained_count": md.retained_count,
        "kernel_leakage": md.kernel_leakage,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        _write_text(args.out, text)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    if md.robertson_violated:
        return EXIT_INTEGRITY
    return EXIT_OK


_OBSERVABLES = ("Jx", "Jy", "Jz", "parity")


def _spin_observable(basis: DickeBasis, name: str):
    jx, jy, jz = build_spin_operators(basis)
    table = {"Jx": jx, "Jy": jy, "Jz": jz}
    if name == "parity":
        return parity_operator(basis)
    return table[name]


def _run_estimate(args: argparse.Namespace) -> int:
    if args.n is None or args.n < 1:
        return _fail("estimate needs --n >= 1")
    if args.generator not in ("Jx", "Jy", "Jz"):
        return _fail("generator must be Jx, Jy or Jz")
    if args.observable not in _OBSERVABLES:
        return _fail(f"observable must be one of {_OBSERVABLES}")
    basis = DickeBasis(args.n)
    generator = _spin_observable(basis, args.generator)
    observable = _spin_observable(basis, args.observable)
    window = (args.theta - args.window, args.theta + args.window)
    try:
        state = evolve(coherent_spin_state_z(basis), EvolutionSpec(args.model, args.tau))
        report = simulate_moment_estimator(
            state, generator, observable, args.theta,
            mu=args.mu, trials=args.trials, seed=args.seed, window=window,
        )
    except ValueError as exc:  # CalibrationError and ZeroSignalError included
        return _fail(str(exc))
    print(f"model {args.model}, N={args.n}, tau={_fmt(args.tau)}; "
          f"generator {args.generator}, observable {args.observable}")
    print(f"theta = {_fmt(report.theta_true)}, mu = {report.mu}, "
          f"trials = {report.trials}, seed = {report.seed}")
    print(f"predicted variance = {_fmt(report.predicted_variance)}")
    print(f"empirical variance = {_fmt(report.empirical_variance)}")
    print(f"ratio = {_fmt(report.ratio)}")
    if report.n_clamped:
        print(f"clamped sample means: {report.n_clamped}/{report.trials}")
    return EXIT_OK


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

    sweep = sub.add_parser("sweep", help="tau sweep of squeezing coefficients",
                           parents=[], add_help=True)
    sweep.add_argument("--model", choices=MODELS, default=None)
    sweep.add_argument("--n", type=int, default=None, help="particle number")
    sweep.add_argument("--kmax", type=int, default=None, help="highest family order")
    sweep.add_argument("--tau-start", dest="tau_start", type=float, default=None)
    sweep.add_argument("--tau-end", dest="tau_end", type=float, default=None)
    sweep.add_argument("--steps", type=int, default=None)
    sweep.add_argument("--parity", action=argparse.BooleanOptionalAction, default=None,
                       help="include the parity squeezing column")
    sweep.add_argument("--qfi", action=argparse.BooleanOptionalAction, default=None,
                       help="include the quantum Fisher density column")
    sweep.add_argument("--out", default=None, help="output path (default stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default=None)
    sweep.add_argument("--config", default=None, help="JSON config file; flags override")
    sweep.set_defaults(func=_run_sweep)

    fock = sub.add_parser("fock", help="Fock-state displacement sensing report")
    fock.add_argument("--n", type=int, default=None, help="Fock index")
    fock.add_argument("--order", type=int, choices=(2, 3), default=3)
    fock.add_argument("--cutoff", type=int, default=None,
                      help=f"Fock dimension (default n + 8, at most {MAX_CUTOFF - 4})")
    fock.set_defaults(func=_run_fock)

    analyze = sub.add_parser("analyze", help="moment matrices for one state")
    analyze.add_argument("--model", choices=MODELS, default="OAT")
    analyze.add_argument("--n", type=int, default=None)
    analyze.add_argument("--tau", type=float, default=0.0)
    analyze.add_argument("--kmax", type=int, default=2)
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(func=_run_analyze)

    estimate = sub.add_parser("estimate", help="moment-estimator validation")
    estimate.add_argument("--model", choices=MODELS, default="OAT")
    estimate.add_argument("--n", type=int, default=None)
    estimate.add_argument("--tau", type=float, default=0.0)
    estimate.add_argument("--generator", default="Jx")
    estimate.add_argument("--observable", default="Jy")
    estimate.add_argument("--theta", type=float, default=0.0)
    estimate.add_argument("--mu", type=int, default=10_000)
    estimate.add_argument("--trials", type=int, default=200)
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--window", type=float, default=0.3,
                          help="calibration window half width around theta")
    estimate.set_defaults(func=_run_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
