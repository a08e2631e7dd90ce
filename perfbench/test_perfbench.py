"""Self-checks of the benchmark: span arithmetic, unwrapping, repeatable counts
and the correctness gate. They run a 200-sample tracker stream, not a full
workload."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import dopptrack  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = ("signal_model.points", "rls.rows_per_sample",
                "segmentation.admitted", "segmentation.evicted",
                "tracker.closures")


@pytest.fixture
def short_stream(monkeypatch):
    spec = dict(workloads.WORKLOADS["track_moving"], samples=200)
    monkeypatch.setitem(workloads.WORKLOADS, "track_moving", spec)
    monkeypatch.setattr(workloads, "SETUP_SLICE_S", 0.0)


def test_nested_spans_give_self_time():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 7.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.enter("a")           # 0
    tracer.enter("b")           # 1
    tracer.enter("c")           # 2
    tracer.exit()               # 2.5: c lasted 0.5
    tracer.exit()               # 3: b lasted 2, 1.5 of it its own
    tracer.enter("b")           # 4
    tracer.exit()               # 7: b lasted 3
    tracer.exit()               # 10: a lasted 10, minus 5 in b
    assert tracer.self_s == {"a": 5.0, "b": 4.5, "c": 0.5}
    assert tracer.calls == {"a": 1, "b": 2, "c": 1}
    assert tracer.root_s == {"a": 10.0}


def test_install_patches_every_lookup_and_uninstall_restores():
    originals = (dopptrack.tracker.bellman_step, dopptrack.harness.synthesize,
                 dopptrack.rls.update_batch,
                 dopptrack.DopplerTracker.__dict__["process_sample"])
    patches = spans.install(spans.Tracer())
    try:
        assert hasattr(dopptrack.tracker.bellman_step, spans.MARK)
        assert hasattr(dopptrack.segmentation.bellman_step, spans.MARK)
        assert hasattr(dopptrack.harness.synthesize, spans.MARK)
        assert hasattr(dopptrack.rls.update_batch, spans.MARK)
        wrapped = {name.rsplit(".", 1)[-1]
                   for name in spans.leftover_wrappers()}
        assert {n.split(".")[-1] for n in spans.SPAN_NAMES} <= wrapped
    finally:
        spans.uninstall(patches)
    assert spans.leftover_wrappers() == []
    assert originals == (dopptrack.tracker.bellman_step,
                         dopptrack.harness.synthesize,
                         dopptrack.rls.update_batch,
                         dopptrack.DopplerTracker.__dict__["process_sample"])


def test_traced_runs_repeat_counts_and_unwrap(short_stream):
    runs = [workloads.run_track("track_moving", 3, 0.01, trace=True)
            for _ in range(2)]
    assert spans.leftover_wrappers() == []
    first, second = (r["metrics"] for r in runs)
    for key in EXACT_COUNTS + tuple(n + ".calls" for n in spans.SPAN_NAMES):
        assert first[key] == second[key], key
    # 30 live candidates x (L+1) linearizations x L paths once the bank is full
    assert first["signal_model.points_per_sample"] == 360
    assert first["rls.rows_per_sample"] == 120
    assert all(r["correct"] for r in runs)
    assert runs[0]["details"]["answer_digest"] == \
        runs[1]["details"]["answer_digest"]


def test_gate_fails_run_past_error_limit(short_stream, monkeypatch):
    monkeypatch.setattr(workloads, "MAX_ERR_S", 0.0)
    result = workloads.run_track("track_moving", 3, 0.01, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_csv_check_is_bitwise():
    a = np.array([0.0, 1.0])
    assert workloads._same_bits(a, a.copy())
    assert not workloads._same_bits(a, np.array([-0.0, 1.0]))
    assert not workloads._same_bits(a, np.nextafter(a, 2.0))
    assert not workloads._same_bits(a, a.astype(np.float32))
