"""End-to-end acceptance checks, one per criterion, each printing a
PASS/FAIL line with the measured values (run with -s to see them live)."""

import dataclasses
import filecmp
import os
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blas_core import run_on_nehalem_core
from dopptrack import cli, harness, rls
from dopptrack.channel import PATHS
from dopptrack.signal_model import make_qpsk_signal
from dopptrack.tracker import (DopplerTracker, TrackerConfig,
                               reconstruct_warp_array, rows_batch)
from oracles import batch_sls, enumerate_best, line_fitter, line_rows

SAMPLE_INTERVAL = 5e-6
# the default run's waveform settings with symbol seed 9
SEED_9_SIGNAL = dataclasses.asdict(dataclasses.replace(
    harness.SignalParams(), symbol_seed=9))
SCENES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scenes")


def report(label, ok, detail):
    print("\n[criterion %2s] %s: %s" % (label, "PASS" if ok else "FAIL",
                                        detail))
    assert ok, detail


def microseconds(worst) -> str:
    """Per-path errors in seconds as "a/b/c" microseconds."""
    return "/".join("%.3g" % (v * 1e6) for v in worst)


def run_default_baseline():
    """The peak-tracking baseline at hop 1 on the default scenario:
    (error trace, summary)."""
    cfg = harness.default_config()
    sig, _, r, truth = harness.simulate_stream(cfg)
    cfg = dataclasses.replace(
        cfg, baseline=dataclasses.replace(cfg.baseline, hop=1))
    _, _, _, btrace, bsummary = harness.baseline_stream(cfg, sig, r, truth)
    return btrace, bsummary


@pytest.fixture(scope="module")
def default_baseline():
    return run_default_baseline()


@pytest.fixture(scope="module")
def scenario(default_baseline):
    """The full evaluation scenario: 0.5 s at 200 kHz, 3-ray tank geometry
    and motion, gains (1, -0.8, 0.5), 20 dB SNR, penalty 0.01, detection
    threshold 50, perturbation 1e-6, memory 10 + 20."""
    cfg = harness.default_config()
    assert cfg.duration == 0.5
    sig, scene, r, truth = harness.simulate_stream(cfg)
    segments, trace, summary = harness.track_stream(cfg, sig, r, truth)
    return cfg, segments, trace, summary, *default_baseline


def test_criterion_1_tracker_within_one_sample_interval(scenario):
    cfg, segments, trace, summary, _, _ = scenario
    warmup = cfg.warmup_samples
    err = trace.abs_err[:, warmup:]
    exceed = int((err > SAMPLE_INTERVAL).sum())
    worst = float(err.max())
    report(1, exceed == 0 and not summary["diverged"],
           "tracker |timing error| after %d-sample warm-up: max %.3g s over "
           "%d samples x %d paths, %d above one sample interval (%.0g s), "
           "%d segments"
           % (warmup, worst, err.shape[1], err.shape[0], exceed,
              SAMPLE_INTERVAL, summary["segment_count"]))


def test_criterion_2_baseline_misses_samples(scenario):
    _, _, _, _, btrace, _ = scenario
    worst_per_path = btrace.abs_err.max(axis=1)
    exceeding = [PATHS[i] for i, v in enumerate(worst_per_path)
                 if v > SAMPLE_INTERVAL]
    report(2, len(exceeding) >= 1,
           "peak-tracking baseline exceeds one sample interval on %s "
           "(per-path max: %s)"
           % (exceeding or "no path",
              {PATHS[i]: "%.3g" % v for i, v in enumerate(worst_per_path)}))


def test_criterion_3_rls_matches_direct_solve():
    rng = np.random.default_rng(7)
    worst_x = worst_l = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        n_rows = int(rng.integers(dim + 1, 201))
        A = rng.normal(size=(n_rows, dim))
        y = rng.normal(size=n_rows)
        # a stack of one factor absorbing dim + 1 rows per call, as the
        # tracker's bank absorbs its L + 1 rows per sample; the last call
        # takes what is left
        factor = rls.init(dim, ridge=1e-8)[None]
        for lo in range(0, n_rows, dim + 1):
            block = slice(lo, lo + dim + 1)
            lse_rls = rls.update_batch(factor, A[None, block],
                                       y[None, block])[0]
        x, lse = rls.solve_direct(A, y, ridge=1e-8)
        worst_x = max(worst_x, float(np.linalg.norm(rls.estimate(factor) - x)
                                     / max(np.linalg.norm(x), 1e-30)))
        worst_l = max(worst_l, abs(lse_rls - lse) / max(lse, 1e-30))
    report(3, worst_x < 1e-8 and worst_l < 1e-8,
           "100 instances (dim<=5, rows<=200): worst relative deviation "
           "estimate %.2e, lse %.2e (tolerance 1e-8)" % (worst_x, worst_l))


def test_criterion_4_batch_dp_optimal():
    rng = np.random.default_rng(11)
    worst_gap = 0.0
    for trial in range(30):
        N = int(rng.integers(2, 13))
        y = np.cumsum(rng.normal(size=N))
        if trial % 3 == 0:
            y[N // 2:] += 4.0
        penalty = float(rng.choice([0.05, 0.5, 2.0]))
        fitter = line_fitter(y)
        _, prefix = batch_sls(y, penalty, fitter)
        brute = enumerate_best(y, penalty, fitter)
        worst_gap = max(worst_gap, abs(prefix[-1] - brute))
    k = np.arange(100, dtype=float)
    y2 = np.where(k < 50, 1.0 + 0.5 * k, 26.0 - 2.0 * (k - 50))
    segments, prefix = batch_sls(y2, 1e-6, line_fitter(y2))
    starts = [a for a, _ in segments]
    report(4, worst_gap < 1e-9 and starts == [0, 50]
           and prefix[-1] == pytest.approx(2e-6, abs=1e-12),
           "30 instances (N<=12) match exhaustive enumeration within %.1e; "
           "two-piece linear data breakpoints %s, cost %.6g"
           % (worst_gap, starts, prefix[-1]))


def tracker_line_costs(y, ridge, penalty, keep_best, keep_recent,
                       detect_threshold):
    """The shipped tracker on stream y with line_rows in place of its
    rows: the online prefix cost E(n) read off the bank after each sample,
    the segments it closed, and the exact batch prefix costs over the same
    half-open accounting: E(n) is prefix[n] of the batch DP over y[1:],
    whose observations i..j are samples i+1..j+1. The line fits read as
    Doppler corrections, so closures may flag a clamp; that halts nothing."""
    tracker = DopplerTracker(None, TrackerConfig(
        penalty=penalty, detect_threshold=detect_threshold,
        keep_best=keep_best, keep_recent=keep_recent, perturbation=1e-6,
        gains=(1.0, 1.0), initial_tau=(0.0, 0.0), sample_period=1.0,
        ridge=ridge))
    E_online = []
    with mock.patch("dopptrack.tracker.rows_batch", line_rows):
        for value in y:
            tracker.process_sample(float(value))
            E_online.append(tracker._seg.last_E)
    _, prefix = batch_sls(y[1:], penalty, line_fitter(y[1:], ridge))
    return np.array(E_online), tracker.segments, prefix


def test_criterion_5_online_equals_batch_with_full_memory():
    # piecewise-linear stream, no eviction (memory >= N), matched ridge fits
    ridge = 1e-8
    penalty = 0.05
    M = 25
    N = 200
    k = np.arange(N, dtype=float)
    y = np.where(k < 70, 0.5 * k,
                 np.where(k < 140, 35.0 - 1.2 * (k - 70),
                          -49.0 + 2.0 * (k - 140)))
    E_online, closed, prefix = tracker_line_costs(y, ridge, penalty, N, N, M)
    detected = [seg.b + 1 for seg in closed]
    gaps = np.abs(E_online - prefix) / np.maximum(1.0, prefix)
    true_breaks = [70, 140]
    matched = all(any(abs(d - b) <= M for d in detected) for b in true_breaks)
    localized = all(any(abs(d - b) <= M for b in true_breaks) for d in detected)
    report(5, float(gaps.max()) < 1e-8 and matched and localized,
           "online prefix costs match the batch DP within %.2e relative; "
           "detected boundaries %s vs true %s (threshold %d)"
           % (float(gaps.max()), detected, true_breaks, M))


def test_criterion_5b_restricted_memory_never_beats_batch():
    rng = np.random.default_rng(23)
    ridge = 1e-8
    penalty = 0.05
    N = 120
    y = np.cumsum(rng.normal(size=N) * 0.1)
    y[60:] += 3.0
    E_online, _, prefix = tracker_line_costs(y, ridge, penalty, 4, 4,
                                             detect_threshold=25)
    slack = float(np.min(E_online - prefix))
    report("5b", slack > -1e-9,
           "memory-restricted online prefix costs stay >= batch costs "
           "(worst slack %.2e)" % slack)


@st.composite
def line_streams(draw):
    """(y, ridge, penalty): a random walk of 2-40 samples with one jump,
    ridge 1e-10 to 1e-2 and penalty 1e-3 to 1, both log-uniform."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = draw(st.integers(2, 40))
    y = np.cumsum(rng.normal(size=N))
    y[int(rng.integers(0, N)):] += rng.normal(scale=5.0)
    ridge = 10.0 ** draw(st.floats(-10.0, -2.0))
    penalty = 10.0 ** draw(st.floats(-3.0, 0.0))
    return y, ridge, penalty


ONLINE_VS_BATCH = settings(max_examples=50)


@ONLINE_VS_BATCH
@given(line_streams(), st.integers(1, 40))
def test_online_equals_batch_with_full_memory_on_random_streams(
        stream, detect_threshold):
    # generalizes criterion 5 over seeds, ridges, penalties and detection
    # thresholds: with full memory no closure moves E(n)
    y, ridge, penalty = stream
    E_online, _, prefix = tracker_line_costs(y, ridge, penalty, y.size,
                                             y.size, detect_threshold)
    gaps = np.abs(E_online - prefix) / np.maximum(1.0, prefix)
    assert float(gaps.max()) < 1e-8


@ONLINE_VS_BATCH
@given(line_streams(), st.integers(2, 4), st.integers(1, 4),
       st.integers(1, 40))
def test_restricted_memory_never_beats_batch_on_random_streams(
        stream, keep_best, keep_recent, detect_threshold):
    # generalizes criterion 5b over seeds, ridges, penalties, memory sizes
    # and detection thresholds: closures move the anchor that eviction
    # shields
    y, ridge, penalty = stream
    E_online, _, prefix = tracker_line_costs(y, ridge, penalty, keep_best,
                                             keep_recent, detect_threshold)
    assert float(np.min(E_online - prefix)) > -1e-9


def test_criterion_6_jacobian_matches_finite_differences():
    sig = make_qpsk_signal(600, 40, **SEED_9_SIGNAL)
    gains = np.array([1.0, -0.8, 0.5])
    T = SAMPLE_INTERVAL
    rng = np.random.default_rng(31)
    scale_base = 2 * np.pi * sig.carrier_freq * sig.amplitude
    step = 1e-8
    d, tau, lever = np.empty((1000, 3)), np.empty((1000, 3)), np.empty(1000)
    for h in range(1000):
        d[h] = 1.0 + rng.uniform(-1e-3, 1e-3, size=3)
        tau[h] = rng.uniform(0.0, 0.02, size=3)
        a = int(rng.integers(0, 2000))
        n = a + int(rng.integers(1, 3000))
        lever[h] = (n - a) * T

    def unperturbed(d_ref):
        # model m = 0 of the rows the tracker absorbs: (gradient, prediction)
        rows, _, preds = rows_batch(sig, d_ref, tau, lever, 1e-6, gains)
        return rows[:, 0], preds[:, 0]

    grad, _ = unperturbed(d)
    worst = 0.0
    for l in range(3):
        dp = d.copy(); dp[:, l] += step
        dm = d.copy(); dm[:, l] -= step
        fd = (unperturbed(dp)[1] - unperturbed(dm)[1]) / (2 * step)
        tol = np.maximum(np.abs(grad[:, l]),
                         scale_base * abs(gains[l]) * lever)
        worst = max(worst, float(np.max(np.abs(grad[:, l] - fd) / tol)))
    report(6, worst < 1e-4,
           "1000 random configurations: worst mixed-relative gradient "
           "deviation %.2e (tolerance 1e-4)" % worst)


def test_criterion_7_perturbation_restores_rank():
    sig = make_qpsk_signal(600, 40, **SEED_9_SIGNAL)
    gains = np.array([1.0, 1.0])
    d = np.array([1.0, 1.0])
    tau = np.array([1.5e-3, 1.5e-3])
    plain, full = [], []
    for n in range(400, 406):
        # the L+1 models of the candidate started at sample 0
        rows, _, _ = rows_batch(sig, d[None, :], tau[None, :],
                                np.array([n * SAMPLE_INTERVAL]), 1e-6, gains)
        plain.append(rows[0, 0])
        full.extend(rows[0])
    s_plain = np.linalg.svd(np.array(plain), compute_uv=False)
    s_full = np.linalg.svd(np.array(full), compute_uv=False)
    report(7, s_plain[-1] < 1e-12 * s_plain[0] and s_full[-1] > 1e-12,
           "degenerate two-path case: unperturbed stack sigma_min/sigma_max "
           "= %.1e (rank deficient), perturbed stack sigma_min = %.3g > 1e-12"
           % (s_plain[-1] / s_plain[0], s_full[-1]))


def test_criterion_8_identity_fixed_point():
    cfg = dataclasses.replace(
        harness.load_config(os.path.join(SCENES, "static.ini")), duration=0.05)
    sig, scene, r, truth = harness.simulate_stream(cfg)
    tracker = DopplerTracker(sig, harness.tracker_config(cfg,
                                                         truth.alpha[:, 0]))
    bank = tracker._seg
    closures = 0
    worst_correction = 0.0
    for i, v in enumerate(r):
        if tracker.process_sample(float(v)) is not None:
            closures += 1
        if i >= 1000:
            correction = rls.estimate(bank.factor[bank.anchor])
            worst_correction = max(worst_correction,
                                   float(np.abs(correction).max()))
    report(8, closures == 0 and worst_correction < 1e-5,
           "static channel, zero noise: %d closures over %d samples, "
           "max correction after sample 1000 = %.2e (tolerance 1e-5)"
           % (closures, r.size, worst_correction))


def test_criterion_9_delay_chain_continuity(scenario):
    cfg, segments, _, _, _, _ = scenario
    T = 1.0 / cfg.channel.sample_rate
    assert len(segments) >= 2
    worst = 0.0
    for prev, nxt in zip(segments, segments[1:]):
        assert nxt.a == prev.b + 1
        end_warp = prev.tau + prev.doppler * (prev.b - prev.a) * T
        gap = np.abs(nxt.tau - (end_warp + prev.doppler * T))
        worst = max(worst, float(gap.max()))
    report(9, worst < 1e-12,
           "delay chaining across %d boundaries: worst discontinuity %.2e s "
           "(tolerance 1e-12)" % (len(segments) - 1, worst))


def coincident_path_run(perturbation):
    """The tracker on 0.03 s of scenes/coincident.ini, whose surface and
    bottom paths nearly coincide. Returns the largest max/min ratio of
    |diag R[:3, :3]| of the anchor's factor over the samples, and the
    per-path |error| of every sample."""
    cfg = harness.load_config(os.path.join(SCENES, "coincident.ini"))
    cfg = dataclasses.replace(
        cfg, duration=0.03,
        tracker=dataclasses.replace(cfg.tracker, perturbation=perturbation))
    sig, _, r, truth = harness.simulate_stream(cfg)
    tcfg = harness.tracker_config(cfg, truth.alpha[:, 0])
    tracker = DopplerTracker(sig, tcfg)
    bank = tracker._seg
    worst = 0.0
    for value in r:
        tracker.process_sample(float(value))
        diag = np.abs(np.diagonal(bank.factor[bank.anchor])[:3])
        worst = max(worst, float(diag.max() / diag.min()))
    tracker.finalize()
    warp = reconstruct_warp_array(tracker.segments, tcfg.num_paths, r.size,
                                  tcfg.sample_period)
    return worst, np.abs(warp - truth.alpha)


# Over noise seeds 1-20 at the default perturbation 1e-6, every run peaks at
# 1.17e4, at sample 205 of the first segment, whose rows do not depend on the
# noise; with the perturbation at 1e-12 the ratio grows through that segment
# to 3.1e5-3.9e5. Errors stay below 2.3 us at both.
COINCIDENT_RATIO_BOUND = 2e4


def test_perturbed_rows_bound_conditioning_on_coincident_paths():
    ratio, err = coincident_path_run(1e-6)
    weak_ratio, weak_err = coincident_path_run(1e-12)
    print("\ncoincident paths: anchor diag ratio max %.3g at perturbation "
          "1e-6, %.3g at 1e-12 (bound %.0e); max |error| %.3g s, %.3g s"
          % (ratio, weak_ratio, COINCIDENT_RATIO_BOUND, err.max(),
             weak_err.max()))
    assert ratio <= COINCIDENT_RATIO_BOUND < weak_ratio
    assert err.max() < SAMPLE_INTERVAL


def test_criterion_11_uniform_doppler_loses_the_track():
    # the paper's claim that one Doppler for all paths cannot track a
    # multipath channel whose arrivals are stretched differently. Under one
    # Doppler factor every path keeps its initial offset from the direct
    # path, so the uniform model is the shipped tracker on one path whose
    # waveform is the three arrivals summed at those offsets
    cfg = dataclasses.replace(harness.default_config(), duration=0.03)
    sig, _, r, truth = harness.simulate_stream(cfg)
    tcfg = harness.tracker_config(cfg, truth.alpha[:, 0])
    offsets = truth.alpha[:, 0] - truth.alpha[0, 0]
    gains = np.asarray(tcfg.gains)

    def summed(t):
        s, sd = sig.eval_passband_with_derivative(
            (t[:, None] + offsets).reshape(-1))
        return (s.reshape(t.size, -1) @ gains, sd.reshape(t.size, -1) @ gains)

    tracker = DopplerTracker(
        SimpleNamespace(eval_passband_with_derivative=summed),
        dataclasses.replace(tcfg, gains=(1.0,),
                            initial_tau=tcfg.initial_tau[:1]))
    for value in r:
        tracker.process_sample(float(value))
    tracker.finalize()
    warp = reconstruct_warp_array(tracker.segments, 1, r.size,
                                  tcfg.sample_period) + offsets[:, None]
    warmup = cfg.warmup_samples
    uniform = np.abs(warp - truth.alpha)[:, warmup:].max(axis=1)
    per_path_segments, trace, _ = harness.track_stream(cfg, sig, r, truth)
    per_path = trace.abs_err[:, warmup:].max(axis=1)
    report(11, uniform.max() > SAMPLE_INTERVAL
           and per_path.max() < SAMPLE_INTERVAL,
           "0.03 s of the default scene after %d-sample warm-up: uniform "
           "Doppler max |error| %s us (%d segments), per-path %s us "
           "(%d segments), one sample interval %.0f us"
           % (warmup, microseconds(uniform), len(tracker.segments),
              microseconds(per_path), len(per_path_segments),
              SAMPLE_INTERVAL * 1e6))


def test_criterion_12_single_linearization_fails_near_coincidence(
        monkeypatch):
    # the paper's claim that the perturbed linearizations keep the fit
    # well-conditioned: under heave the surface and bottom paths of
    # coincident_heave.ini pass through each other, and a tracker that fits
    # only the unperturbed row (one row per sample, weight 1/sqrt(1))
    # loses them while the shipped L+1 rows hold one sample interval
    cfg = harness.load_config(os.path.join(SCENES, "coincident_heave.ini"))
    cfg = dataclasses.replace(cfg, duration=0.05)
    sig, _, r, truth = harness.simulate_stream(cfg)
    warmup = cfg.warmup_samples
    shipped_segments, trace, _ = harness.track_stream(cfg, sig, r, truth)
    shipped = trace.abs_err[:, warmup:].max(axis=1)

    def unperturbed_only(*args):
        rows, offsets, preds = rows_batch(*args)
        return rows[:, :1], offsets[:, :1], preds[:, :1]

    monkeypatch.setattr("dopptrack.tracker.rows_batch", unperturbed_only)
    one_row_segments, trace, _ = harness.track_stream(cfg, sig, r, truth)
    one_row = trace.abs_err[:, warmup:].max(axis=1)
    report(12, shipped.max() < SAMPLE_INTERVAL
           and one_row.max() > 5 * SAMPLE_INTERVAL,
           "0.05 s of coincident_heave.ini after %d-sample warm-up: "
           "unperturbed row only max |error| %s us (%d segments), L+1 rows "
           "%s us (%d segments), one sample interval %.0f us"
           % (warmup, microseconds(one_row), len(one_row_segments),
              microseconds(shipped), len(shipped_segments),
              SAMPLE_INTERVAL * 1e6))


# The 21 segments of the default scenario as (a, b, d per path, tau_s per
# path, lse). A change that moves them on purpose updates this table in the
# same commit and reports the largest |delta| in CHANGES.md.
DEFAULT_SEGMENTS = [
    (0, 779,
     (0.9996882806497868, 0.9993248219841928, 0.9998433199134772),
     (-0.0009666666666666667, -0.0011448241009964029, -0.0020314089254067536),
     0.1636090322417353),
    (780, 1438,
     (0.9996962285280782, 0.999264523611566, 0.9998262894333382),
     (0.0029321176278675025, 0.00275254270474195, 0.0018679800222558079),
     0.12200962698782616),
    (1439, 15150,
     (0.9996874517969991, 0.9992894427853463, 0.9998541621448965),
     (0.0062261167008675206, 0.00604511931004206, 0.0051624076459386575),
     2.430893582110134),
    (15151, 24307,
     (0.9997107390303746, 0.9993157763067323, 0.9998537247437981),
     (0.07476468839606978, 0.0745564035074054, 0.07371240900259277),
     1.6008632467116535),
    (24308, 30804,
     (0.9997260662647973, 0.999363485967524, 0.9998664964725211),
     (0.12053644458257548, 0.12031007632560914, 0.11949071178998757),
     1.1311037110512596),
    (30805, 36635,
     (0.9997480011606255, 0.9993997098145916, 0.9998773677035273),
     (0.15301254584518742, 0.15277439916726415, 0.15197137492789742),
     1.048689200941508),
    (36636, 41755,
     (0.9997666402135065, 0.9994520085001131, 0.9998799621222134),
     (0.18216019881902545, 0.18191189770690858, 0.18112279958329375),
     0.8227573014105912),
    (41756, 47098,
     (0.9997915067977997, 0.9994923778683261, 0.999900480733536),
     (0.20775422480849123, 0.20749786912451149, 0.20671972661362242),
     0.9994900976434433),
    (47099, 51706,
     (0.999812192385899, 0.9995565139014683, 0.9998993952451856),
     (0.23446365491259447, 0.23419930799926383, 0.23343206795641883),
     0.7861627773019302),
    (51707, 56203,
     (0.9998354350479784, 0.9995991173888109, 0.9999238645023338),
     (0.2574993278251656, 0.25722909007955364, 0.2564697500228679),
     0.7842446976668378),
    (56204, 60790,
     (0.9998566119455289, 0.9996593960058545, 0.9999299548087434),
     (0.2799806275822194, 0.27970507623404106, 0.2789530381162029),
     0.8060590828648848),
    (60791, 65236,
     (0.9998830203114358, 0.9997148239009385, 0.9999372641110541),
     (0.3029123389771901, 0.3026322644814353, 0.30188643162974144),
     0.803830226285104),
    (65237, 69408,
     (0.9999072978169059, 0.99977567599484, 0.9999480995876229),
     (0.3251397385187133, 0.3248559250167532, 0.32411503701093014),
     0.7548086362116284),
    (69409, 73596,
     (0.9999320865531846, 0.9998315973852671, 0.9999732737162595),
     (0.345997804751174, 0.3457112456180056, 0.34497395436832795),
     0.7700001167484509),
    (73597, 77573,
     (0.9999514588165201, 0.99989285910781, 0.999973852383296),
     (0.3669363826435977, 0.3666477192672531, 0.36591339471994644),
     0.6929391381022388),
    (77574, 82018,
     (0.9999804780656902, 0.9999447843679158, 0.9999854100834753),
     (0.38682041740216416, 0.3865305887706119, 0.38579787477458827),
     0.7984796613000703),
    (82019, 85768,
     (1.000006286034726, 1.0000144499683028, 1.0000057940268492),
     (0.4090449835271741, 0.40875436160318884, 0.4080225505136935),
     0.6203912496495813),
    (85769, 90125,
     (1.0000248065502186, 1.0000586878339721, 1.0000117783951348),
     (0.4277951013903252, 0.4275046325400945, 0.42677265915169693),
     0.8186269254806626),
    (90126, 94316,
     (1.0000502020098683, 1.0001323593305227, 1.000027046512126),
     (0.44958064180102175, 0.4492909110545576, 0.4485579157440349),
     0.7726897306014231),
    (94317, 98356,
     (1.0000777087205794, 1.0001823839955242, 1.0000431690938705),
     (0.47053669378413854, 0.4702486846443287, 0.4695134825036965),
     0.7592300932286518),
    (98357, 99999,
     (1.000103994813818, 1.0002496678109625, 1.0000400364879904),
     (0.49073826350029426, 0.49045236880103826, 0.4897143545193927),
     0.24078428642729552),
]


def test_default_scenario_answers_unchanged(scenario):
    _, segments, _, _, _, _ = scenario
    assert [(s.a, s.b) for s in segments] == \
        [(a, b) for a, b, _, _, _ in DEFAULT_SEGMENTS]
    for seg, (_, _, d, tau, lse) in zip(segments, DEFAULT_SEGMENTS):
        np.testing.assert_allclose(seg.doppler, d, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(seg.tau, tau, rtol=1e-12, atol=0.0)
        assert seg.lse == pytest.approx(lse, rel=1e-10, abs=0.0)


# The baseline's answers on the default scenario at hop 1: per-path maxima,
# and per-path |error| at every 12 313th sample of its trace.
BASELINE_MAX_ABS_ERR = {"direct": 1.4916894610084164e-06,
                        "surface": 1.8888345711898236e-05,
                        "bottom": 2.969857715015567e-06}
BASELINE_ERR_STRIDE = 12313
BASELINE_ERR_SUBSAMPLE = [
    (7.188683104407227e-07, 3.8147551129075197e-07, 2.5524040067614884e-07,
     3.008039428653575e-09, 2.7858504000888296e-07, 5.927632495961177e-08,
     6.026484306032032e-08, 4.023186842005977e-07, 9.695844194190784e-08),
    (1.5077394815886424e-05, 1.5392070249087286e-05, 1.5719734009655983e-05,
     1.5092660873156083e-05, 1.5107710102824079e-05, 1.618655059659746e-05,
     1.641421379150465e-05, 1.5613613509490865e-05, 1.6127560839129806e-05),
    (1.0287557631028475e-06, 1.6162888176463053e-06, 3.0450136571935627e-07,
     8.042040097466785e-07, 1.236447894903403e-07, 8.080439369284598e-07,
     1.8339379664888966e-07, 4.076101141059496e-07, 1.1929062731508289e-06),
]


def test_default_scenario_baseline_unchanged(default_baseline):
    btrace, bsummary = default_baseline
    assert bsummary["iterations"] == 98507
    assert bsummary["no_peak_flags"] == 0
    np.testing.assert_array_equal(btrace.n, np.arange(600, 99107))
    assert bsummary["max_abs_err_s"] == pytest.approx(BASELINE_MAX_ABS_ERR,
                                                      rel=1e-12, abs=0.0)
    np.testing.assert_allclose(btrace.abs_err[:, ::BASELINE_ERR_STRIDE],
                               BASELINE_ERR_SUBSAMPLE, rtol=1e-12, atol=0.0)


def test_default_scenario_baseline_holds_on_nehalem_core():
    # the same pins on OpenBLAS's SSE core without FMA: fails when the
    # baseline's delays hang on the last bits of one core's dot products
    run_on_nehalem_core(
        "import test_acceptance as t; "
        "t.test_default_scenario_baseline_unchanged(t.run_default_baseline())")


def test_criterion_10_demo_determinism(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["demo", "--out", out_a]) == 0
    assert cli.main(["demo", "--out", out_b]) == 0
    mismatched = []
    for root, _, files in os.walk(out_a):
        for name in files:
            if not name.endswith(".csv"):
                continue
            rel = os.path.relpath(os.path.join(root, name), out_a)
            if not filecmp.cmp(os.path.join(out_a, rel),
                               os.path.join(out_b, rel), shallow=False):
                mismatched.append(rel)
    n_csv = sum(name.endswith(".csv") for _, _, fs in os.walk(out_a)
                for name in fs)
    report(10, n_csv >= 6 and not mismatched,
           "two demo runs: %d CSV artifacts byte-identical%s"
           % (n_csv, "" if not mismatched else ", mismatches: %s" % mismatched))
