"""Output checks applied to every benchmark op.

Each function returns a list of error strings; an empty list means the
output passed.  The invariants are the paper's (ROADMAP north star); the
reference values were produced by `make_reference.py` at the commit that
introduced the benchmark.
"""

from __future__ import annotations

import math

MONOTONE_ABS = 1e-9  # xi2inv_k may dip below xi2inv_(k-1) by rounding only
FMAX_REL = 1e-8  # best order <= f_max * (1 + FMAX_REL)
REVIVAL_ABS = 1e-8  # even-N OAT: xi2inv_k1 = 1 at tau = 0 and tau = pi
FOCK_REL = 1e-9  # |n>: chi2_inv = 4n+2 (order 3), 1/(n+1/2) (order 2)
FOCK_DRIFT_MAX = 1e-9  # relative change when the cutoff grows by 4, as `nlsqueeze fock`
# agreement with the stored reference: |value - ref| <= REF_REL*|ref| + REF_ABS;
# values computed with 1 and 2 BLAS threads differ by under 1e-12 relative
REF_REL = 1e-7
REF_ABS = 1e-9


def is_mean_residue_raise(exc: BaseException) -> bool:
    """The known defect of ROADMAP item 2: the moment table's absolute check
    on the imaginary part of the operator means.  Which points raise it
    depends on rounding (BLAS kernel and thread count), not on the input."""
    return isinstance(exc, ValueError) and str(exc).startswith("imaginary residue") \
        and "in operator means exceeds tolerance" in str(exc)


def reference_errors(values, reference) -> list[str]:
    """Compare a value vector with its stored reference (None: no reference)."""
    if reference is None:
        return []
    if len(values) != len(reference):
        return [f"{len(values)} values, reference has {len(reference)}"]
    errors = []
    for pos, (got, want) in enumerate(zip(values, reference)):
        if not abs(got - want) <= REF_REL * abs(want) + REF_ABS:
            errors.append(f"value {pos} = {got!r}, reference {want!r}")
    return errors


def sweep_point_errors(xi2_inv, f_max=None, revival=False) -> list[str]:
    """Invariants of one sweep point: monotone hierarchy, best order <= f_max,
    and the shot-noise value of xi2inv_k1 where `revival` holds."""
    if not all(math.isfinite(v) for v in xi2_inv):
        return [f"non-finite hierarchy {list(xi2_inv)!r}"]
    errors = []
    for k in range(1, len(xi2_inv)):
        if xi2_inv[k] < xi2_inv[k - 1] - MONOTONE_ABS * max(1.0, abs(xi2_inv[k - 1])):
            errors.append(f"hierarchy decreases: xi2inv_k{k + 1} = {xi2_inv[k]!r} "
                          f"< xi2inv_k{k} = {xi2_inv[k - 1]!r}")
    if f_max is not None and not max(xi2_inv) <= f_max * (1.0 + FMAX_REL):
        errors.append(f"best order {max(xi2_inv)!r} exceeds f_max {f_max!r}")
    if revival and not abs(xi2_inv[0] - 1.0) <= REVIVAL_ABS:
        errors.append(f"xi2inv_k1 = {xi2_inv[0]!r} at a revival time, expected 1")
    return errors


def fock_errors(n: int, order: int, chi2_inv: float, drift: float) -> list[str]:
    """Closed-form Fock values and cutoff convergence of one Fock problem."""
    want = 4 * n + 2 if order == 3 else 1.0 / (n + 0.5)
    errors = []
    if not abs(chi2_inv - want) <= FOCK_REL * want:
        errors.append(f"chi2_inv = {chi2_inv!r} for |{n}> at order {order}, expected {want!r}")
    if not drift <= FOCK_DRIFT_MAX:
        errors.append(f"cutoff not converged: relative drift {drift!r}")
    return errors


def csv_errors(text: str, reference_text: str, skip_rows=()) -> list[str]:
    """Compare a sweep CSV with the stored one: same header and row count,
    cells within the reference tolerance, except rows in `skip_rows`."""
    got = text.splitlines()
    want = reference_text.splitlines()
    if not got or got[0] != want[0]:
        return [f"header {got[:1]!r}, reference {want[0]!r}"]
    if len(got) != len(want):
        return [f"{len(got) - 1} rows, reference has {len(want) - 1}"]
    skip = set(skip_rows)
    errors = []
    for row, (line, ref_line) in enumerate(zip(got[1:], want[1:])):
        if row in skip:
            continue
        try:
            values = [float(cell) for cell in line.split(",")]
        except ValueError:
            errors.append(f"row {row}: unparsable {line!r}")
            continue
        ref = [float(cell) for cell in ref_line.split(",")]
        errors += [f"row {row}: {e}" for e in reference_errors(values, ref)]
    return errors
