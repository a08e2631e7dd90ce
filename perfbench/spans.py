"""Span tracing of dopptrack's layers, applied from outside the package.

`traced(tracer)` replaces each public function named in TARGETS with a wrapper
that records one span per call, and puts every original back on exit. A span's
self time is its duration minus the time covered by the spans it directly
encloses, so the self times of one call tree add up to its root span. The same
wrappers take the counts the per-layer ratios need.

A name is patched wherever it is looked up: in every `dopptrack` module that
holds it (the tracker binds segmentation functions by name, the harness binds
`synthesize`, the package re-exports most of them) or on its class.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MARK = "__perfbench_wraps__"


class Tracer:
    """Aggregates spans by name; keeps no per-span records."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.root_s = defaultdict(float)  # inclusive time of depth-0 spans
        self.counts = Counter()
        self.per_sample = []  # (points, rows, live) per process_sample call
        self.sample = Counter()  # counts inside the open process_sample
        self._stack = []  # open spans: [name, start, child_s]

    def is_open(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s[name] += duration

    def add(self, key: str, amount) -> None:
        self.counts[key] += amount
        self.sample[key] += amount


# Hooks run outside the span they belong to, so their cost is charged to the
# enclosing span (or, at the root, to the unattributed remainder).

def _points(tracer, args, result, outer):
    tracer.add("signal_model.points", int(np.size(args[1])))


def _rows(tracer, args, result, outer):
    if outer:   # update_batch recurses for the states that are not warm yet
        H, R = args[1].shape[:2]
        tracer.add("rls.rows", H * R)
        tracer.add("tracker.live", H)


def _sample_begin(tracer, args):
    tracer.sample.clear()


def _sample_end(tracer, args, result, outer):
    s = tracer.sample
    tracer.per_sample.append((s["signal_model.points"], s["rls.rows"],
                              s["tracker.live"]))
    if result is not None:
        tracer.counts["tracker.closures"] += 1


def _admitted(tracer, args, result, outer):
    tracer.counts["segmentation.admitted"] += 1


def _evicted(tracer, args, result, outer):
    if result is not None:
        tracer.counts["segmentation.evicted"] += 1


def _synth_samples(tracer, args, result, outer):
    tracer.counts["channel.synthesize.samples"] += int(args[2])


def _no_peak(tracer, args, result, outer):
    tracer.counts["peak_tracking.no_peak_flags"] += int(np.sum(result[2]))


def _bytes_written(tracer, args, result, outer):
    tracer.counts["harness.csv_bytes_written"] += os.path.getsize(args[0])


def _bytes_read(tracer, args, result, outer):
    tracer.counts["harness.csv_bytes_read"] += os.path.getsize(args[0])


# (module, attribute path, hook after the call, hook before the call)
TARGETS = [
    ("signal_model", "TransmitSignal.eval_passband_with_derivative", _points,
     None),
    ("signal_model", "TransmitSignal.eval_passband", _points, None),
    ("channel", "synthesize", _synth_samples, None),
    ("rls", "update_batch", _rows, None),
    ("rls", "update", None, None),
    ("rls", "solve_direct", None, None),
    ("segmentation", "admit_hypothesis", _admitted, None),
    ("segmentation", "evict_if_full", _evicted, None),
    ("segmentation", "bellman_step", None, None),
    ("tracker", "rows_batch", None, None),
    ("tracker", "DopplerTracker.process_sample", _sample_end, _sample_begin),
    ("tracker", "DopplerTracker.finalize", None, None),
    ("tracker", "reconstruct_warp_array", None, None),
    ("peak_tracking", "PeakTracker.run", _no_peak, None),
    ("peak_tracking", "crosscorr", None, None),
    ("peak_tracking", "track_step", None, None),
    ("harness", "build_signal", None, None),
    ("harness", "build_scene", None, None),
    ("harness", "simulate_stream", None, None),
    ("harness", "baseline_stream", None, None),
    ("harness", "compare", None, None),
    ("harness", "write_received", _bytes_written, None),
    ("harness", "write_truth", _bytes_written, None),
    ("harness", "write_errors", _bytes_written, None),
    ("harness", "write_delays", _bytes_written, None),
    ("harness", "read_received", _bytes_read, None),
    ("harness", "read_truth", _bytes_read, None),
    ("harness", "read_errors", _bytes_read, None),
]

SPAN_NAMES = ["%s.%s" % (module, path.split(".")[-1])
              for module, path, _, _ in TARGETS]


def _wrap(tracer: Tracer, name: str, fn, after, before):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        outer = not tracer.is_open(name)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, args, result, outer)
        return result

    setattr(wrapper, MARK, fn)
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    return wrapper


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "dopptrack" or name.startswith("dopptrack.")]


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the patch list that `uninstall` reverts."""
    modules = _package_modules()
    patches = []
    for module, path, after, before in TARGETS:
        owner = sys.modules["dopptrack." + module]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = _wrap(tracer, "%s.%s" % (module, attr), original, after,
                        before)
        if inspect.isclass(owner):
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names in dopptrack modules or classes that still hold a wrapper."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append("%s.%s" % (mod.__name__, key))
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                found += ["%s.%s.%s" % (mod.__name__, key, k)
                          for k, v in vars(value).items() if hasattr(v, MARK)]
    return found


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Trace into tracer for the duration of the block; always unwraps."""
    patches = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patches)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics, per pass over the workload's input.

    Calls and counts repeat exactly between passes of one input, so dividing
    by the pass count keeps them whole numbers. Per-sample figures are medians
    over process_sample calls, so they read the full-bank value.
    """
    out = {}
    for name in SPAN_NAMES:
        out[name + ".calls"] = tracer.calls[name] / passes
        out[name + ".self_s"] = tracer.self_s[name] / passes
    c = tracer.counts
    per_sample = np.array(tracer.per_sample, dtype=float).reshape(-1, 3)
    has_samples = per_sample.shape[0] > 0
    points = c["signal_model.points"]
    signal_s = (tracer.self_s["signal_model.eval_passband_with_derivative"]
                + tracer.self_s["signal_model.eval_passband"])
    out["signal_model.points"] = points / passes
    out["signal_model.points_per_sample"] = \
        float(np.median(per_sample[:, 0])) if has_samples else 0.0
    out["signal_model.ns_per_point"] = \
        1e9 * signal_s / points if points else 0.0
    out["rls.rows_per_sample"] = \
        float(np.median(per_sample[:, 1])) if has_samples else 0.0
    out["rls.warm_self_s"] = (tracer.self_s["rls.update"]
                              + tracer.self_s["rls.solve_direct"]) / passes
    out["tracker.closures"] = c["tracker.closures"] / passes
    out["tracker.live_mean"] = \
        float(per_sample[:, 2].mean()) if has_samples else 0.0
    out["segmentation.admitted"] = c["segmentation.admitted"] / passes
    out["segmentation.evicted"] = c["segmentation.evicted"] / passes
    admitted = c["segmentation.admitted"]
    out["segmentation.win_ratio"] = \
        c["tracker.closures"] / admitted if admitted else 0.0
    for key in ("channel.synthesize.samples", "peak_tracking.no_peak_flags",
                "harness.csv_bytes_written", "harness.csv_bytes_read"):
        out[key] = c[key] / passes
    return out
