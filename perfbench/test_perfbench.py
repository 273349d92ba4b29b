"""Tests of the benchmark itself: seeded inputs, span arithmetic, exact traced counts.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from qdice import optimize, sixround_dr, weak_cf  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = WORKLOADS[name]
    first = workload().inputs(7)
    assert first == workload().inputs(7)
    assert len(first) == workload.pass_size
    assert first != workload().inputs(8)


def test_self_and_busy_time_on_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("a", 5.0, 9.0, 0, 0),  # a recursive call inside the first "a"
        ("c", 6.0, 8.0, 2, 0),
        ("c", 11.0, 12.0, -1, 1),
    ]
    rows = tracing.summarize(spans)
    assert rows["a"] == {"calls": 2, "busy_s": 10.0, "self_s": (10 - 3 - 4) + (4 - 2)}
    assert rows["b"] == {"calls": 1, "busy_s": 3.0, "self_s": 3.0}
    assert rows["c"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}


def test_tail_has_ten_samples_beyond_it_up_to_p99():
    samples = [float(i) for i in range(1, 41)]
    assert run.tail(samples) == (30.0, 75.0, 10)
    samples = [float(i) for i in range(1, 5001)]
    value, percentile, beyond = run.tail(samples)
    assert (percentile, beyond) == (99.0, 50)
    assert sum(s > value for s in samples) == beyond


def test_per_pass_takes_medians_over_passes():
    passes = [[1.0, 3.0], [0.5, 0.5], [2.0, 2.0]]
    assert run.per_pass(passes) == (0.5, 2.0)


def test_traced_solve_counts_and_restores_originals():
    originals = (sixround_dr.alice_opt_cheat, sixround_dr.bisect_root, weak_cf.maximize_unimodal)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sixround_dr.alice_opt_cheat is not originals[0]
        sixround_dr.solve("case1")
    finally:
        tracer.uninstall()
    assert (sixround_dr.alice_opt_cheat, sixround_dr.bisect_root, weak_cf.maximize_unimodal) == originals
    assert optimize.maximize_unimodal is weak_cf.maximize_unimodal

    metrics = tracer.per_layer(1)
    assert metrics["sixround_dr.solve.calls"] == 1
    assert metrics["weak_cf.alice_opt_cheat.calls"] == 45
    assert metrics["optimize.maximize_unimodal.calls"] == 45
    assert metrics["optimize.bisect_root.calls"] == 1
    # one stage-2 cheat per residual evaluation, then two more for the reported solution
    assert metrics["optimize.bisect_root.evals"] == 45 - 2
    assert metrics["optimize.maximize_unimodal.evals_per_call"] > 10_000
    assert all(v == 0 for k, v in metrics.items() if k.endswith(".errors"))


def _traced_counts(name: str) -> dict[str, float]:
    workload = WORKLOADS[name]()
    tracer = tracing.Tracer()
    passes, refs, failed, failures = run.run_loop(workload, workload.inputs(3), seconds=0.0, tracer=tracer)
    assert not failures and failed == 0
    assert [len(p) for p in passes] == [workload.pass_size] and len(refs) == 2
    metrics = tracer.per_layer(workload.pass_size)
    return {k: v for k, v in metrics.items() if not k.endswith(("busy_s", "self_s"))}


@pytest.mark.parametrize("name", ["oracle-grid", "honest-sim", "exact-sweep"])
def test_traced_counts_repeat_exactly(name):
    first = _traced_counts(name)
    assert first == _traced_counts(name)
    assert any(v > 0 for k, v in first.items() if k.endswith(".calls"))


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
