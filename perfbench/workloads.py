"""The benchmark's workloads: inputs from a seed, timed passes, and checks.

Every workload is a closed loop over one stream in this process. Its input is
generated from the seed before timing starts; a run then repeats whole passes
over that input until its time is up, so one seed always gives one answer and
passes can be checked against each other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import itertools
import resource
import statistics
import tempfile
import time
import traceback

import numpy as np

import dopptrack
from dopptrack import harness

import spans

# Tracker timing errors above one sample interval at 200 kHz count as misses.
MAX_ERR_S = 5e-6
# Set-up is timed in slices between passes, so that its median spans the run
# as the passes do: a shared machine's speed drifts over seconds.
SETUP_SLICE_REPEATS = 2
SETUP_SLICE_S = 0.1
SETUP_SLICE_PROBES = 5

# Tracker streams are prefixes of the default scenario: once the candidate
# bank is full, the cost of a sample does not depend on where in the stream it
# falls, and a short pass lets a run hold several passes.
WORKLOADS = {
    "track_moving": {"kind": "track", "keep_best": 10, "keep_recent": 20,
                     "samples": 2400},
    "track_wide": {"kind": "track", "keep_best": 40, "keep_recent": 80,
                   "samples": 1200},
    "pipeline": {"kind": "pipeline"},
}

clock = time.perf_counter


def derive_seeds(seed: int) -> tuple[int, int]:
    """(symbol_seed, noise_seed) drawn from the workload seed."""
    symbol_seed, noise_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(symbol_seed), int(noise_seed)


def make_config(workload: str, seed: int) -> harness.RunConfig:
    spec = WORKLOADS[workload]
    cfg = harness.default_config()
    symbol_seed, noise_seed = derive_seeds(seed)
    cfg = dataclasses.replace(
        cfg,
        signal=dataclasses.replace(cfg.signal, symbol_seed=symbol_seed),
        channel=dataclasses.replace(cfg.channel, noise_seed=noise_seed))
    if spec["kind"] == "track":
        cfg = dataclasses.replace(
            cfg, duration=spec["samples"] / cfg.channel.sample_rate,
            tracker=dataclasses.replace(cfg.tracker,
                                        keep_best=spec["keep_best"],
                                        keep_recent=spec["keep_recent"]))
    cfg.validate()
    return cfg


def tracker_config(cfg: harness.RunConfig, truth) -> dopptrack.TrackerConfig:
    """The tracker settings harness.track_stream uses for this run config."""
    t = cfg.tracker
    return dopptrack.TrackerConfig(
        penalty=t.penalty, detect_threshold=t.detect_threshold,
        keep_best=t.keep_best, keep_recent=t.keep_recent,
        perturbation=t.perturbation, gains=tuple(cfg.channel.gains),
        initial_tau=tuple(truth.alpha[:, 0]),
        sample_period=1.0 / cfg.channel.sample_rate, ridge=t.ridge)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The speed of a shared machine drifts by tens of percent over seconds and
# minutes. Each pass therefore also times a fixed probe, and times are scaled
# by PROBE_NOMINAL_S / (the probe's median time in the same pass): a scaled
# time is the time the work would take where the probe takes 0.5 ms.
PROBE_NOMINAL_S = 0.5e-3
_PROBE_RNG = np.random.default_rng(12345)
_PROBE_T = _PROBE_RNG.uniform(0.0, 1e-3, 360)
_PROBE_G = _PROBE_RNG.normal(size=(30, 4, 3))
_PROBE_A = _PROBE_RNG.normal(size=(6, 3))
_PROBE_P = np.repeat((np.eye(3) * 1e4)[None], 30, axis=0)


def probe() -> float:
    """Wall time of a fixed mix of small numpy work, independent of dopptrack.

    It mirrors one tracker sample at 30 candidates: pulse sums at 360 times,
    four batched rank-1 updates of 30 3x3 states, small dense solves and a
    Python loop over 30 items.
    """
    t0 = clock()
    dt = _PROBE_T[:, None] - np.arange(9)[None, :] * 5e-5
    env = np.where(np.abs(dt) < 2e-4, np.exp(-0.5 * (dt / 1.25e-5) ** 2), 0.0)
    env.sum(axis=1)
    P = _PROBE_P.copy()
    for m in range(4):
        g = _PROBE_G[:, m, :]
        Pg = np.einsum("hij,hj->hi", P, g)
        d = 1.0 + np.einsum("hi,hi->h", g, Pg)
        P -= (Pg / d[:, None])[:, :, None] * Pg[:, None, :]
        P = 0.5 * (P + P.transpose(0, 2, 1))
    for k in range(4, 7):
        A = _PROBE_A[:k]
        np.linalg.lstsq(A, A[:, 0], rcond=None)
        np.linalg.eigh(A.T @ A)
    total = 0.0
    for h in range(30):
        total += float(P[h, 0, 0])
    return clock() - t0


class Run:
    """Repeats whole passes for a given time.

    A traced run alternates traced and untraced passes, so that the machine's
    drift in speed falls on both alike and their difference is the tracing
    overhead. Every wrapper is removed, and checked gone, before each
    untraced pass. Set-up is timed only in untraced runs, so that traced
    counts do not depend on how many set-ups fit.
    """

    def __init__(self, seconds: float, trace: bool, setup):
        self.seconds = seconds
        self.trace = trace
        self.setup = setup
        self.tracer = spans.Tracer() if trace else None
        self.setup_times = []
        self.setup_scaled = []
        self.traced_passes = []
        self.passes = []

    def execute(self, one_pass) -> None:
        """Run passes while the next one is expected to end in time."""
        deadline = clock() + self.seconds
        while True:
            t0 = clock()
            if self.trace:
                with spans.traced(self.tracer):
                    self.traced_passes.append(one_pass())
                leftover = spans.leftover_wrappers()
                if leftover:
                    raise RuntimeError("wrappers left after tracing: %s"
                                       % ", ".join(leftover))
            else:
                self._time_setup()
            self.passes.append(one_pass())
            now = clock()
            if now + (now - t0) > deadline:
                return

    def _time_setup(self) -> None:
        """One slice of set-ups, scaled by probes taken just before it."""
        scale = PROBE_NOMINAL_S / statistics.median(
            probe() for _ in range(SETUP_SLICE_PROBES))
        start = clock()
        for i in itertools.count():
            if i >= SETUP_SLICE_REPEATS and clock() - start >= SETUP_SLICE_S:
                return
            t0 = clock()
            self.setup()
            wall = clock() - t0
            self.setup_times.append(wall)
            self.setup_scaled.append(wall * scale)

    def trace_metrics(self, root_names) -> dict[str, float]:
        """Per-layer metrics plus the cost of tracing itself.

        The unattributed share is the part of the traced passes' wall time
        that no root span in root_names covers: the timing loop and the
        wrappers' own bookkeeping between spans.
        """
        traced, plain = self.traced_passes, self.passes
        metrics = spans.layer_metrics(self.tracer, len(traced))
        wall = sum(p["wall_s"] for p in traced)
        attributed = sum(self.tracer.root_s[n] for n in root_names)
        metrics["trace.traced_rtf"] = statistics.median(
            p["rtf"] for p in traced)
        metrics["trace.untraced_rtf"] = statistics.median(
            p["rtf"] for p in plain)
        metrics["trace.overhead_rtf"] = statistics.median(
            t["rtf"] - u["rtf"] for t, u in zip(traced, plain))
        metrics["trace.unattributed_share"] = 1.0 - attributed / wall
        return metrics


def _rates(result: dict, stream_s: float) -> dict:
    """Adds the pass's wall-clock and probe-scaled real-time factors."""
    result["rtf_wall"] = result["wall_s"] / stream_s if stream_s else 0.0
    result["rtf"] = result["rtf_wall"] * PROBE_NOMINAL_S \
        / float(np.median(result["probes"]))
    return result


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# track_moving, track_wide


def run_track(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cfg = make_config(workload, seed)
    _, _, received, truth = harness.simulate_stream(cfg)
    stream = [float(v) for v in received]
    tcfg = tracker_config(cfg, truth)
    sig = harness.build_signal(cfg)

    def setup():
        dopptrack.DopplerTracker(harness.build_signal(cfg),
                                 tracker_config(cfg, truth))

    period = tcfg.sample_period
    warmup = 2 * cfg.tracker.detect_threshold
    n_paths = tcfg.num_paths

    def one_pass() -> dict:
        tracker = dopptrack.DopplerTracker(sig, tcfg)
        per_call = []
        error = None
        probes = []
        try:
            for i, value in enumerate(stream):
                if i % 50 == 0:
                    probes.append(probe())
                t0 = clock()
                tracker.process_sample(value)
                per_call.append(clock() - t0)
            t0 = clock()
            tracker.finalize()
            finalize_s = clock() - t0
        except Exception:   # a raising tracker fails the run, not the harness
            error = traceback.format_exc()
            finalize_s = 0.0
        wall = sum(per_call) + finalize_s
        result = _rates({"steps": per_call, "wall_s": wall, "probes": probes,
                         "error": error, "diverged": tracker.diverged},
                        len(per_call) * period)
        if error is None:
            segs = tracker.segments
            warp = dopptrack.reconstruct_warp_array(segs, n_paths,
                                                    len(stream), period)
            err = np.abs(warp - truth.alpha)[:, warmup:]
            bounds = np.array([(s.a, s.b) for s in segs], dtype=np.int64)
            result.update(
                max_err_s=float(np.nanmax(err)) if err.size else 0.0,
                misses=int(np.count_nonzero(~(err <= MAX_ERR_S))),
                segments=len(segs),
                boundary_digest=_digest(bounds),
                answer_digest=_digest(
                    bounds, *[np.concatenate([s.doppler, s.tau, [s.lse]])
                              for s in segs]))
        return result

    run = Run(seconds, trace, setup)
    run.execute(one_pass)
    every = run.traced_passes + run.passes
    first = every[0]
    problems = [p["error"] for p in every if p["error"]]
    if not problems:
        if any(p["diverged"] for p in every):
            problems.append("tracker set diverged")
        if first["max_err_s"] >= MAX_ERR_S:
            problems.append("max |timing error| %.3g s >= %g s"
                            % (first["max_err_s"], MAX_ERR_S))
        if len({p["answer_digest"] for p in every}) != 1:
            problems.append("passes over one input gave different segments")
    attempted = (len(stream) - warmup) * n_paths
    failed = attempted if problems else first["misses"]
    details = {
        "stream_samples": len(stream),
        "live_candidates": cfg.tracker.keep_best + cfg.tracker.keep_recent,
        "warmup_samples": warmup,
        "max_err_s": first.get("max_err_s"),
        "segments": first.get("segments"),
        "boundary_digest": first.get("boundary_digest"),
        "answer_digest": first.get("answer_digest"),
        "diverged": any(p["diverged"] for p in every),
    }
    return _result(run, attempted, failed, problems, details,
                   ["tracker.process_sample", "tracker.finalize"])


def _result(run: Run, attempted: int, failed: int, problems: list,
            details: dict, root_names) -> dict:
    """The run's result: end-to-end metrics, or per-layer ones when traced.

    `rtf` is the median over passes, so a burst of load on the machine that
    slows one pass moves it little. Step percentiles are reported per pass
    only: on a shared machine, per-step times split into a fast and a slow
    mode as the machine's speed drifts, and a percentile that falls between
    them moves more from run to run than the mean does.
    """
    per_pass = [{"step_ms_p50": 1e3 * float(np.percentile(p["steps"], 50)),
                 "step_ms_p99": 1e3 * float(np.percentile(p["steps"], 99)),
                 "probe_ms": 1e3 * float(np.median(p["probes"])),
                 "rtf_wall": p["rtf_wall"], "rtf": p["rtf"]}
                for p in run.passes if p["steps"]]
    if run.trace:
        metrics = run.trace_metrics(root_names)
    else:
        details["setup_s_wall"] = statistics.median(run.setup_times)
        metrics = {
            "setup_s": statistics.median(run.setup_scaled),
            "rtf": statistics.median([p["rtf"] for p in per_pass] or [0.0]),
            "peak_rss_mib": peak_rss_mib(),
        }
    details.update(seconds=run.seconds, passes=len(run.passes),
                   traced_passes=len(run.traced_passes),
                   steps_per_pass=[len(p["steps"]) for p in run.passes],
                   per_pass=per_pass, setup_repeats=len(run.setup_times),
                   failed_share=failed / attempted, problems=problems)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "details": details}


# ---------------------------------------------------------------------------
# pipeline


def _simulate(cfg, work):
    work["sig"], _, work["r"], work["truth"] = harness.simulate_stream(cfg)


def _check_simulate(cfg, work):
    r = work["r"]
    if r.shape != (cfg.n_samples,) or not np.all(np.isfinite(r)):
        return "received stream malformed"


def _baseline(cfg, work):
    (work["n_grid"], work["delays"], work["flags"], work["trace"],
     _) = harness.baseline_stream(cfg, work["sig"], work["r"], work["truth"])


def _check_baseline(cfg, work):
    n_grid, delays, flags = work["n_grid"], work["delays"], work["flags"]
    hop = cfg.baseline.hop
    first = int(round(cfg.baseline.template_len * cfg.channel.sample_rate))
    on_grid = n_grid.size > 0 and n_grid[0] == first \
        and n_grid[-1] < cfg.n_samples and np.all(np.diff(n_grid) == hop) \
        and delays.shape == (len(dopptrack.PATHS), n_grid.size) \
        and flags.shape == delays.shape
    if not on_grid:
        return "delays not on the hop-%d grid" % hop
    if not np.all(np.isfinite(delays)):
        return "non-finite delays"


def _csv(work, kind: str) -> str:
    return os.path.join(work["dir"], kind + ".csv")


def _write_received(cfg, work):
    harness.write_received(_csv(work, "received"), work["r"])


def _write_truth(cfg, work):
    harness.write_truth(_csv(work, "truth"), work["truth"])


def _write_errors(cfg, work):
    harness.write_errors(_csv(work, "errors"), work["trace"])


def _write_delays(cfg, work):
    harness.write_delays(_csv(work, "delays"), work["n_grid"], work["delays"],
                         work["flags"])


def _read_received(cfg, work):
    work["r_back"] = harness.read_received(_csv(work, "received"))


def _read_truth(cfg, work):
    work["truth_back"] = harness.read_truth(_csv(work, "truth"))


def _read_errors(cfg, work):
    work["trace_back"] = harness.read_errors(_csv(work, "errors"))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _check_csv_io(cfg, work):
    truth, back = work["truth"], work["truth_back"]
    trace, trace_back = work["trace"], work["trace_back"]
    if not (_same_bits(work["r"], work["r_back"])
            and _same_bits(truth.alpha, back.alpha)
            and _same_bits(truth.doppler, back.doppler)
            and _same_bits(trace.n, trace_back.n)
            and _same_bits(trace.abs_err, trace_back.abs_err)):
        return "read-back differs from the in-memory arrays"


def _compare(cfg, work):
    work["report"] = harness.compare(work["trace"], work["trace_back"])


def _check_compare(cfg, work):
    report = work["report"]
    if report["common_samples"] != work["trace"].n.size or any(
            p["delta_max_s"] != 0.0 or p["a_misses"] != p["b_misses"]
            for p in report["paths"].values()):
        return "a trace differs from its own read-back"


# (name, timed calls, untimed check returning a problem or None)
PIPELINE_STAGES = [
    ("simulate_s", [_simulate], _check_simulate),
    ("baseline_s", [_baseline], _check_baseline),
    ("csv_io_s", [_write_received, _write_truth, _write_errors, _write_delays,
                  _read_received, _read_truth, _read_errors], _check_csv_io),
    ("compare_s", [_compare], _check_compare),
]
# Probes before each timed call: the CSV stage alone lasts seconds.
PIPELINE_CALL_PROBES = 5


def _pipeline_pass(cfg: harness.RunConfig, workdir: str) -> dict:
    """One offline pass: each stage's wall time, and how many stages failed.

    A stage that raises or fails its check ends the pass; the stages after it
    count as failed too.
    """
    work = {"dir": workdir}
    stages, problems = {}, []
    failed = 0
    probes = []
    for i, (name, calls, check) in enumerate(PIPELINE_STAGES):
        try:
            stages[name] = 0.0
            for call in calls:
                probes += [probe() for _ in range(PIPELINE_CALL_PROBES)]
                t0 = clock()
                call(cfg, work)
                stages[name] += clock() - t0
            problem = check(cfg, work)
        except Exception:   # a raising stage fails the run, not the harness
            problem = traceback.format_exc()
        if problem:
            problems.append("%s: %s" % (name, problem))
            failed = len(PIPELINE_STAGES) - i
            break
    return {"stages": stages, "problems": problems, "failed": failed,
            "probes": probes,
            "baseline_max_err_s": float(np.max(work["trace"].abs_err))
            if "trace" in work else None,
            "answer_digest": _digest(work["n_grid"], work["delays"])
            if "delays" in work else None}


def run_pipeline(workload: str, seed: int, seconds: float, trace: bool,
                 workdir_parent: str) -> dict:
    cfg = make_config(workload, seed)
    duration = cfg.n_samples / cfg.channel.sample_rate

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=workdir_parent) as workdir:
        def one_pass() -> dict:
            result = _pipeline_pass(cfg, workdir)
            result["wall_s"] = sum(result["stages"].values())
            result["steps"] = [result["wall_s"]] if result["stages"] else []
            return _rates(result, duration)

        run = Run(seconds, trace, lambda: harness.build_scene(
            cfg, harness.build_signal(cfg)))
        run.execute(one_pass)

    every = run.traced_passes + run.passes
    problems = [msg for p in every for msg in p["problems"]]
    if not problems and len({p["answer_digest"] for p in every}) != 1:
        problems.append("passes over one input gave different delays")
    attempted = len(PIPELINE_STAGES) * len(every)
    failed = max(sum(p["failed"] for p in every), 1 if problems else 0)
    details = {
        "stream_samples": cfg.n_samples,
        "baseline_max_err_s": every[0]["baseline_max_err_s"],
        "answer_digest": every[0]["answer_digest"],
    }
    if not problems:
        for name, _, _ in PIPELINE_STAGES:
            details[name] = statistics.median(
                p["stages"][name] for p in run.passes)
    return _result(run, attempted, failed, problems, details,
                   ["harness.simulate_stream", "harness.baseline_stream",
                    "harness.compare", "harness.write_received",
                    "harness.write_truth", "harness.write_errors",
                    "harness.write_delays", "harness.read_received",
                    "harness.read_truth", "harness.read_errors"])
