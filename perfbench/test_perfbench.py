"""Tests for the benchmark harness itself (not for spinqpe)."""

import json
import math
import sys
import types

import pytest

from perfbench import run, workloads
from perfbench.tracer import Tracer


def _take(name, seed, count=12):
    stream = workloads.requests(name, seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    assert _take(name, 7) == _take(name, 7)
    assert _take(name, 7) != _take(name, 8)


def test_leaky_stream_mixes_commands_and_modes():
    kinds = [(r.kind, r.shots is not None) for r in _take("leaky-n12", 3, 6)]
    assert kinds == [("qpev", False), ("qpeh", True), ("qpev", True),
                     ("qpeh", False), ("qpev", True), ("qpeh", True)]


def test_circuits_per_request_type():
    counts = {r.kind: r.circuits
              for name in workloads.WORKLOADS for r in _take(name, 1, 4)}
    assert counts == {"pipeline": 2, "qpev": 1, "qpeh": 1, "sweep": 288}


def test_circuits_per_s_counts_only_completed_requests():
    requests = [_take("exact-n16", 1, 1)[0], *_take("leaky-n12", 1, 2),
                _take("sweep-n10-cold", 1, 1)[0]]
    outcomes = [run.Outcome(0.5, 0, "", "") for _ in requests]
    outcomes[1].failure = "CheckFailed: example"
    stats = run.summarize(requests, outcomes, prefix=0)
    assert stats["circuits_per_s"] == pytest.approx((2 + 1 + 288) / 2.0)
    assert stats["error_rate"] == 0.25


def test_reference_seconds_rescale_wall_time():
    outcome = run.Outcome(0.5, 0, "", "", ref_s=2 * run.REF_S)
    assert outcome.ref_seconds == pytest.approx(0.25)


def test_tail_is_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(1, 21)]
    assert run.tail(times) == (10.0, 50.0)
    assert run.tail(times[:10]) == (10.0, 100.0)


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake")

    def inner(x):
        return sum(range(x))

    def outer(x):
        return module.inner(x) + module.inner(2 * x)

    def broken():
        raise ValueError("boom")

    module.inner, module.outer, module.broken = inner, outer, broken
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def _traced(targets):
    tracer = Tracer({"perfbench_fake": targets})
    tracer.install()
    return tracer


def test_nested_self_times_add_up_to_parent(fake_module):
    tracer = _traced([("outer", "qpe.run_qpe", None), ("inner", "gates", None)])
    try:
        for _ in range(3):
            fake_module.outer(20000)
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    outer, inner = spans["qpe.run_qpe"], spans["gates"]
    assert (outer["calls"], inner["calls"]) == (3, 6)
    assert inner["self_s"] == pytest.approx(inner["total_s"], abs=1e-12)
    assert outer["self_s"] + inner["self_s"] == pytest.approx(outer["total_s"], abs=1e-12)
    assert 0.0 < outer["self_s"] < outer["total_s"]


def test_wrapper_passes_values_and_counts_failures(fake_module):
    original = fake_module.inner
    tracer = _traced([("inner", "gates", None), ("broken", "cli.main", None)])
    try:
        assert fake_module.inner(5) == 10
        with pytest.raises(ValueError, match="boom"):
            fake_module.broken()
    finally:
        tracer.uninstall()
    assert fake_module.inner is original
    assert tracer.failures == {"cli": 1}


def test_absent_target_reports_zero_calls(fake_module):
    tracer = Tracer({
        "perfbench_fake": [("removed", "statevector.apply_single", None)],
        "perfbench_no_such_module": [("apply_iqft", "iqft.apply_iqft", None)],
    })
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["perfbench_fake.removed",
                             "perfbench_no_such_module.apply_iqft"]
    spans = tracer.summary()
    assert spans["statevector.apply_single"]["calls"] == 0
    assert spans["iqft.apply_iqft"]["self_s"] == 0.0
    assert not math.isnan(spans["iqft.apply_iqft"]["total_s"])


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == []
    values = run.layer_metrics(tracer, 1)
    measured_in_run = {"trace.request_s", "trace.overhead_s",
                       "run.error_rate", "run.estimate_err_rms"}
    assert set(values) | measured_in_run == {m["name"] for m in spec["per_layer"]}
