"""Tests of the benchmark's own helpers (run with pytest from the repo root)."""

import json
import types
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from nlsqueeze import fisher


def test_percentile_interpolates_and_counts():
    values = list(range(101, 0, -1))  # 1..101, unsorted
    assert run.percentile(values, 50) == (51, 101)
    assert run.percentile(values, 90) == (91, 101)
    assert run.percentile([1.0, 2.0], 50) == (1.5, 2)
    assert run.percentile([7.0], 90) == (7.0, 1)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_local_medians_follow_the_neighbourhood():
    values = [1.0, 1.0, 1.0, 9.0, 2.0, 2.0, 2.0]
    assert run.local_medians(values, window=3) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    assert run.local_medians([5.0, 1.0], window=9) == [3.0, 3.0]


def test_self_time_of_nested_spans(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: clock[0])
    tracer = tracing.Tracer()

    def advance(dt):
        clock[0] += dt

    inner = tracer.wrap("b.inner", lambda: advance(2.0))

    def outer_body():
        advance(1.0)
        inner()
        inner()
        advance(3.0)

    outer = tracer.wrap("a.outer", outer_body)
    outer()
    assert tracer.total_s["a.outer"] == 8.0
    assert tracer.self_s["a.outer"] == 4.0
    assert tracer.total_s["b.inner"] == tracer.self_s["b.inner"] == 4.0
    assert tracer.calls == {"a.outer": 1, "b.inner": 2}
    assert tracer.top_level_s == 8.0
    assert tracer.layer_self_s("a") == 4.0 and tracer.layer_self_s("b") == 4.0


def test_patched_wraps_lookup_sites_and_restores():
    originals = {(m, a): getattr(m, a) for m, a, *_ in workloads.trace_targets()}
    tracer = tracing.Tracer()
    with tracing.patched(tracer, workloads.trace_targets()):
        assert fisher.build_spin_family is not originals[(fisher, "build_spin_family")]
        workload = workloads.WORKLOADS["oat_n16_k5"](0)
        workload.op(10)
    assert all(getattr(m, a) is f for (m, a), f in originals.items())
    # fisher looks build_spin_family up in its own namespace: the per-point
    # K=1 family rebuild inside f_max_density must show as a span
    assert tracer.calls["spin.build_spin_family"] == 2  # set-up + one op
    assert tracer.calls["moments.moment_matrix"] == 5  # one per order


def test_patched_restores_after_an_exception():
    module = types.ModuleType("fake")
    module.f = lambda: 1
    original = module.f
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer(), [(module, "f", "fake.f")]):
            assert module.f is not original
            raise RuntimeError("boom")
    assert module.f is original


def _reference(name, variant=0):
    data = json.loads(run.REFERENCE.read_text())
    return workloads.reference_points(data, name, variant)


def test_untouched_sweep_passes_its_checks():
    tally = workloads.Tally()
    workloads.run_cycle(workloads.WORKLOADS["oat_n16_k5"](0), _reference("oat_n16_k5"), tally)
    assert tally.correct
    assert tally.attempted == workloads.STEPS
    assert tally.failed == {"raised": 0, "flagged": 0, "check": 0}
    # the reference commit flags the README grid at these two points
    assert tally.known == {"residue": 0, "flagged": 2}
    assert sorted(tally.first_known) == [48, 52]


def test_only_the_known_defects_are_counted_apart(monkeypatch):
    workload = workloads.WORKLOADS["tat_mixed_n60_k3"](0)
    real_op, real_inspect = workload.op, workload.inspect

    def op(i):
        if i == 3:
            raise ValueError("imaginary residue 2.00e-10 in operator means exceeds tolerance")
        if i == 4:
            raise ValueError("some other error")
        return real_op(i)

    def inspect(i, raw):
        values, leak, flagged, errors = real_inspect(i, raw)
        return values, leak, flagged or i == 5, errors

    monkeypatch.setattr(workload, "op", op)
    monkeypatch.setattr(workload, "inspect", inspect)
    tally = workloads.Tally()
    workloads.run_cycle(workload, _reference("tat_mixed_n60_k3"), tally)
    assert tally.known == {"residue": 1, "flagged": 0}
    assert tally.failed == {"raised": 1, "flagged": 1, "check": 0}
    assert sorted(tally.first_failure) == [4, 5] and list(tally.first_known) == [3]
    assert tally.correct  # the program owned up to both failures
    assert tally.ok.count(False) == 3


def test_planted_f_max_violation_is_caught(monkeypatch):
    real = fisher.f_max_density
    monkeypatch.setattr(fisher, "f_max_density", lambda s, b: (0.5 * real(s, b)[0], None))
    tally = workloads.Tally()
    workloads.run_cycle(workloads.WORKLOADS["oat_n16_k5"](0), _reference("oat_n16_k5"), tally)
    assert not tally.correct
    assert tally.failed["check"] > 0
    kind, detail = tally.first_failure[0]
    assert kind == "check" and "exceeds f_max" in detail and "tau=0.0" in detail


def test_planted_small_drift_is_caught_by_the_reference(monkeypatch):
    workload = workloads.WORKLOADS["tat_mixed_n60_k3"](0)
    real_op = workload.op

    def drifted(i):
        results, values = real_op(i)
        if i == 7:
            values[1] *= 1 + 1e-5
        return results, values

    monkeypatch.setattr(workload, "op", drifted)
    tally = workloads.Tally()
    workloads.run_cycle(workload, _reference("tat_mixed_n60_k3"), tally)
    assert not tally.correct
    assert tally.failed["check"] == 1
    assert list(tally.first_failure) == [7]
    assert "reference" in tally.first_failure[7][1]


def test_check_functions_reject_planted_values():
    assert checks.fock_errors(3, 3, 14.0, 0.0) == []
    assert checks.fock_errors(3, 3, 14.0 * (1 + 1e-6), 0.0)
    assert checks.fock_errors(3, 2, 1 / 3.5, 1e-6)  # not converged in the cutoff
    assert checks.sweep_point_errors([1.0, 2.0, 1.5])  # hierarchy decreases
    assert checks.sweep_point_errors([0.9, 1.0], revival=True)
    assert checks.sweep_point_errors([float("nan"), 1.0])
    csv = "tau,x\n0,1\n1,2\n"
    assert checks.csv_errors(csv, csv) == []
    assert checks.csv_errors("tau,x\n0,1\n1,2.1\n", csv)
    assert checks.csv_errors("tau,x\n0,1\n1,2.1\n", csv, skip_rows=[1]) == []


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
