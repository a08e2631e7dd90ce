import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import dopptrack
from dopptrack import harness, rls
from dopptrack.channel import ChannelScene, Geometry, MotionSpec, synthesize
from dopptrack.signal_model import (TransmitSignal, generate_symbols,
                                    make_qpsk_signal)
from dopptrack.tracker import (DOPPLER_BOUNDS, DopplerSegment,
                               DopplerTracker, InvalidSampleError,
                               TrackerConfig, reconstruct_warp_array,
                               rows_batch)

FS = 200e3
T = 1.0 / FS


def build_signal(n_symbols=400, lead=60, seed=7, amplitude=0.25):
    return make_qpsk_signal(n_symbols, seed, symbol_rate=20e3,
                            carrier_freq=30e3, amplitude=amplitude,
                            lead_symbols=lead)


def config(gains, tau0, **kw):
    defaults = dict(penalty=0.01, detect_threshold=50, keep_best=10,
                    keep_recent=20, perturbation=1e-6, sample_period=T)
    defaults.update(kw)
    return TrackerConfig(gains=tuple(gains), initial_tau=tuple(tau0),
                         **defaults)


# closed segments (a, b, doppler) of the 3 000-sample default stream per
# (keep_best, keep_recent), committed so eviction-heavy answers cannot drift
# unnoticed; the three smallest memories close the same two segments
_SMALL_MEMORY_SEGMENTS = [
    ((0, 1287), (0.9996715346069646, 0.9993727935147405, 0.9998310596553807)),
    ((1288, 2368), (0.999722353344074, 0.9992201416070012,
                    0.9998412610233806)),
]
EVICTION_HEAVY_SEGMENTS = {
    (1, 1): _SMALL_MEMORY_SEGMENTS,
    (1, 2): _SMALL_MEMORY_SEGMENTS,
    (2, 1): _SMALL_MEMORY_SEGMENTS,
    (3, 2): [
        ((0, 1085), (0.9996816721009465, 0.9993536539290618,
                     0.9998360549889747)),
        ((1086, 2105), (0.9997071085988117, 0.9992489511565529,
                        0.9998565987363325)),
    ],
}

# run in a child process whose OpenBLAS was loaded as the Nehalem core
NEHALEM_CHILD = """
from blas_core import openblas_core
from test_tracker import TestTrackerRuns
core = openblas_core()
print(core)
if core == "Nehalem":
    TestTrackerRuns().test_kept_anchor_row_follows_open_segment()
"""


def perturbed_rows(sig, d_ref, tau, a, n, T, epsilon, gains):
    """The L+1 linearization models of one candidate at sample n, as
    [(row, target_offset, prediction), ...]: rows_batch with H = 1."""
    rows, offsets, preds = rows_batch(
        sig, np.asarray(d_ref, dtype=float)[None, :],
        np.asarray(tau, dtype=float)[None, :], np.array([(n - a) * T]),
        epsilon, np.asarray(gains, dtype=float))
    return list(zip(rows[0], offsets[0], preds[0]))


class TestPerturbedRows:
    def test_zero_perturbation_degenerates(self):
        sig = build_signal()
        entries = perturbed_rows(sig, np.ones(3), np.array([1e-3, 2e-3, 3e-3]),
                                 a=0, n=200, T=T, epsilon=0.0,
                                 gains=np.array([1.0, -0.8, 0.5]))
        assert len(entries) == 4
        row0, off0, pred0 = entries[0]
        assert off0 == 0.0
        for row, off, pred in entries[1:]:
            np.testing.assert_array_equal(row, row0)
            assert off == 0.0
            assert pred == pred0

    def test_offset_consistency(self):
        # substituting the perturbation itself into a perturbed model must
        # reproduce that model's own prediction exactly
        sig = build_signal()
        eps = 1e-6
        entries = perturbed_rows(sig, np.ones(2), np.array([1e-3, 2.2e-3]),
                                 a=10, n=400, T=T, epsilon=eps,
                                 gains=np.array([1.0, -0.8]))
        for l, (row, off, pred) in enumerate(entries[1:]):
            assert off == pytest.approx(eps * row[l], rel=1e-12, abs=1e-18)

    def test_rank_restored_on_degenerate_geometry(self):
        # equal reference Doppler, equal delays and equal gains make the
        # unperturbed rows collinear; the perturbed stack must not be
        sig = build_signal()
        gains = np.array([1.0, 1.0])
        d = np.array([1.0, 1.0])
        tau = np.array([1.5e-3, 1.5e-3])
        plain, full = [], []
        for n in range(200, 206):
            entries = perturbed_rows(sig, d, tau, a=0, n=n, T=T,
                                     epsilon=1e-6, gains=gains)
            plain.append(entries[0][0])
            full.extend(e[0] for e in entries)
        s_plain = np.linalg.svd(np.array(plain), compute_uv=False)
        s_full = np.linalg.svd(np.array(full), compute_uv=False)
        assert s_plain[-1] < 1e-12 * s_plain[0]
        assert s_full[-1] > 1e-12


def rows_batch_per_model(sig, d_ref, tau, lever, epsilon, gains):
    """Reference rows_batch: one signal evaluation per candidate and model."""
    H, L = d_ref.shape
    rows = np.zeros((H, L + 1, L))
    offsets = np.zeros((H, L + 1))
    preds = np.zeros((H, L + 1))
    for h in range(H):
        base = d_ref[h] * lever[h] + tau[h]
        for m in range(L + 1):
            t = base.copy()
            if m:
                t[m - 1] += epsilon * lever[h]
            s, sd = sig.eval_passband_with_derivative(t)
            preds[h, m] = (s * gains).sum()
            rows[h, m] = gains * lever[h] * sd
            if m:
                offsets[h, m] = epsilon * rows[h, m, m - 1]
    return rows, offsets, preds


class CountingSignal(TransmitSignal):
    """TransmitSignal that counts the times it is evaluated at."""

    points = 0

    def eval_passband_with_derivative(self, t):
        self.points += np.size(t)
        return super().eval_passband_with_derivative(t)


class TestRowsBatch:
    def test_bit_exact_against_per_model_reference(self):
        base = build_signal()
        # build_signal's 400 symbols and 60 lead-in symbols
        sig = CountingSignal(generate_symbols(460, 7), base.pulse,
                             base.carrier_freq, base.amplitude,
                             base.start_time)
        rng = np.random.default_rng(41)
        for _ in range(60):
            H = int(rng.integers(1, 9))
            L = int(rng.integers(1, 5))
            d_ref = 1.0 + rng.uniform(-1e-3, 1e-3, size=(H, L))
            tau = rng.uniform(-2e-3, 5e-3, size=(H, L))
            lever = rng.integers(0, 3000, size=H) * T
            gains = rng.normal(size=L)
            eps = float(rng.choice([0.0, 1e-6, 1e-3]))
            sig.points = 0
            got = rows_batch(sig, d_ref, tau, lever, eps, gains)
            assert sig.points == H * (L + 1) * L
            want = rows_batch_per_model(base, d_ref, tau, lever, eps, gains)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.array_equal(g, w)

    def test_zero_lever_arm(self):
        # at the segment start the rows vanish and every model predicts the
        # signal at the start times
        sig = build_signal()
        tau = np.array([[1e-3, 2e-3]])
        gains = np.array([1.0, -0.5])
        rows, offsets, preds = rows_batch(sig, np.ones((1, 2)), tau,
                                          np.zeros(1), 1e-6, gains)
        np.testing.assert_array_equal(rows, np.zeros((1, 3, 2)))
        np.testing.assert_array_equal(offsets, np.zeros((1, 3)))
        want = gains @ sig.eval_passband(tau[0])
        np.testing.assert_allclose(preds, want, rtol=1e-12, atol=0.0)

    def test_identity_warp_single_path(self):
        sig = build_signal()
        n = 777
        _, _, preds = rows_batch(sig, np.ones((1, 1)), np.zeros((1, 1)),
                                 np.array([n * T]), 1e-6, np.ones(1))
        want = sig.eval_passband(np.array([n * T]))[0]
        assert preds[0, 0] == pytest.approx(want, rel=1e-12)


class TestReconstruction:
    def segs(self):
        return [
            DopplerSegment(a=0, b=99, doppler=np.array([1.0]),
                           tau=np.array([0.0]), lse=0.0),
            DopplerSegment(a=100, b=199, doppler=np.array([1.0002]),
                           tau=np.array([100 * T]), lse=0.0),
        ]

    def test_segment_start_returns_tau(self):
        arr = reconstruct_warp_array(self.segs(), 1, 200, T)
        assert arr[0, 100] == pytest.approx(100 * T, rel=1e-15)

    def test_identity_warp(self):
        arr = reconstruct_warp_array(self.segs(), 1, 200, T)
        np.testing.assert_allclose(arr[0, :100], np.arange(100) * T,
                                   rtol=1e-15, atol=0.0)

    def test_uncovered_sample_is_nan(self):
        arr = reconstruct_warp_array(self.segs()[1:], 1, 201, T)
        assert np.isnan(arr[0, :100]).all()
        assert np.isnan(arr[0, 200])
        assert not np.isnan(arr[0, 100:200]).any()

    def test_array_matches_hand_computed_warp(self):
        arr = reconstruct_warp_array(self.segs(), 1, 200, T)
        # second segment: 100 T + 1.0002 (n - 100) T
        for n, want in ((0, 0.0), (57, 57 * T), (99, 99 * T),
                        (100, 100 * T), (150, 100 * T + 50.01 * T),
                        (199, 100 * T + 99.0198 * T)):
            assert arr[0, n] == pytest.approx(want, rel=1e-14, abs=1e-20)

    def test_validation(self):
        with pytest.raises(ValueError):
            DopplerSegment(a=5, b=4, doppler=np.array([1.0]),
                           tau=np.array([0.0]), lse=0.0)
        with pytest.raises(ValueError):
            DopplerSegment(a=0, b=5, doppler=np.array([2.5]),
                           tau=np.array([0.0]), lse=0.0)

    # a segment holds the Doppler range a closure clamps to, and the NaN of
    # a halted bank's fit
    @pytest.mark.parametrize("d, ok", [(0.4, False), (1.6, False),
                                       (0.5, True), (1.5, True),
                                       (np.nan, True)])
    def test_doppler_within_bounds(self, d, ok):
        assert DOPPLER_BOUNDS == (0.5, 1.5)
        doppler = np.array([1.0, d])
        if ok:
            DopplerSegment(a=0, b=5, doppler=doppler, tau=np.zeros(2),
                           lse=0.0)
        else:
            with pytest.raises(ValueError, match="DOPPLER_BOUNDS"):
                DopplerSegment(a=0, b=5, doppler=doppler, tau=np.zeros(2),
                               lse=0.0)


class TestTrackerRuns:
    def static_run(self, n_samples):
        geo = Geometry(bottom_depth=1.8, tx_depth=0.46, rx_depth=0.46,
                       horizontal_range=1.45)
        scene = ChannelScene(geometry=geo, motion=MotionSpec(),
                             gains=(1.0, -0.8, 0.5), noise_std=0.0,
                             sample_rate=FS)
        sig = build_signal(n_symbols=int(n_samples * T * 20e3) + 2)
        r, truth, _ = synthesize(scene, sig, n_samples, noise_seed=0)
        cfg = config(scene.gains, truth.alpha[:, 0])
        trk = DopplerTracker(sig, cfg)
        closures = [trk.process_sample(float(v)) for v in r]
        return trk, truth, [c for c in closures if c is not None]

    def test_static_channel_fixed_point(self):
        trk, truth, closures = self.static_run(3000)
        assert closures == []
        assert np.max(np.abs(trk.current_correction)) < 1e-5
        trk.finalize()
        warp_hat = reconstruct_warp_array(trk.segments, 3, 3000, T)
        assert np.max(np.abs(warp_hat - truth.alpha)) < 1e-7

    def test_single_path_constant_doppler_recovered(self):
        sig = build_signal(n_symbols=800)
        d_true = 1.0005
        tau0 = -1e-3
        n = np.arange(4000)
        r = sig.eval_passband(d_true * n * T + tau0)
        cfg = config([1.0], [tau0])
        trk = DopplerTracker(sig, cfg)
        first = None
        for v in r:
            seg = trk.process_sample(float(v))
            if seg is not None and first is None:
                first = seg
        assert first is not None, "no segment detected"
        assert abs(first.doppler[0] - d_true) < 1e-4

    def test_segment_stream_deterministic(self):
        sig = build_signal(n_symbols=500)
        rng = np.random.default_rng(3)
        n = np.arange(6000)
        r = sig.eval_passband(1.0003 * n * T - 8e-4) + rng.normal(0, 0.01, n.size)
        outs = []
        for _ in range(2):
            trk = DopplerTracker(sig, config([1.0], [-8e-4]))
            for v in r:
                trk.process_sample(float(v))
            trk.finalize()
            outs.append(trk.segments)
        assert len(outs[0]) == len(outs[1])
        for s1, s2 in zip(*outs):
            assert (s1.a, s1.b) == (s2.a, s2.b)
            np.testing.assert_array_equal(s1.doppler, s2.doppler)
            np.testing.assert_array_equal(s1.tau, s2.tau)
            assert s1.lse == s2.lse

    def test_finalize_covers_tail_and_locks(self):
        trk, _, _ = self.static_run(500)
        seg = trk.finalize()
        assert seg is not None
        assert (seg.a, seg.b) == (0, 499)
        with pytest.raises(RuntimeError):
            trk.process_sample(0.0)
        assert trk.finalize() is None

    def test_non_finite_sample_rejected_without_advancing(self):
        sig = build_signal()
        r = sig.eval_passband(np.arange(10) * T - 1e-3)
        trk = DopplerTracker(sig, config([1.0], [-1e-3]))
        with pytest.raises(InvalidSampleError):
            trk.process_sample(np.nan)
        for v in r[:5]:
            trk.process_sample(float(v))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidSampleError):
                trk.process_sample(bad)
        trk.process_sample(float(r[5]))
        # finalize closes the open segment at the last of the six samples
        # consumed; a rejected sample counted would move it
        assert trk.finalize().b == 5

    def test_huge_finite_sample_flags_divergence_at_once(self):
        cfg = harness.default_config()
        cfg = dataclasses.replace(cfg, duration=600 / cfg.channel.sample_rate)
        sig, _, r, truth = harness.simulate_stream(cfg)
        r[300] = 1e300
        # the overflowing lse is the only warning: the bank halts with it
        with pytest.warns(RuntimeWarning) as caught:
            segments, _, summary = harness.track_stream(cfg, sig, r, truth)
        assert [(w.filename, str(w.message)) for w in caught] == \
            [(rls.__file__, "overflow encountered in square")]
        assert summary["diverged"]
        assert summary["diverged_at"] == 300
        assert segments[-1].b == 599

    def test_halted_bank_still_checks_and_counts_samples(self):
        sig = build_signal()
        r = sig.eval_passband(1.0003 * np.arange(200) * T - 8e-4)
        trk = DopplerTracker(sig, config([1.0], [-8e-4]))
        for v in r[:100]:
            trk.process_sample(float(v))
        with pytest.warns(RuntimeWarning):
            trk.process_sample(1e300)
        assert trk.diverged_at == 100
        bank = trk.segmentation
        frozen = (bank.filled, bank.start.copy(), bank.factor.copy())
        with pytest.raises(InvalidSampleError):
            trk.process_sample(float("nan"))
        for v in r[101:]:
            assert trk.process_sample(float(v)) is None
        assert bank.filled == frozen[0]
        np.testing.assert_array_equal(bank.start, frozen[1])
        np.testing.assert_array_equal(bank.factor, frozen[2])
        # the 200 samples are counted and the rejected NaN is not
        assert trk.finalize().b == 199

    def test_one_best_one_recent_keeps_admitting(self):
        # eviction finds nothing to drop while the anchor is the older of
        # the two candidates; the newcomer is admitted all the same
        sig = build_signal()
        r = sig.eval_passband(1.0003 * np.arange(600) * T - 8e-4)
        trk = DopplerTracker(sig, config([1.0], [-8e-4], keep_best=1,
                                         keep_recent=1))
        live = []
        for v in r:
            trk.process_sample(float(v))
            live.append(trk.segmentation.filled)
        assert max(live) == 3
        assert trk.finalize().b == 599

    def test_kept_anchor_row_follows_open_segment(self):
        # the bank keeps the anchor's row; eviction below the anchor and
        # closures both move that row
        cfg = harness.default_config()
        cfg = dataclasses.replace(cfg, duration=3000 / cfg.channel.sample_rate)
        sig, _, r, truth = harness.simulate_stream(cfg)
        for memory, pinned in EVICTION_HEAVY_SEGMENTS.items():
            keep_best, keep_recent = memory
            trk = DopplerTracker(sig, config(cfg.channel.gains,
                                             truth.alpha[:, 0],
                                             keep_best=keep_best,
                                             keep_recent=keep_recent))
            bank = trk.segmentation
            closures = shifts = 0
            for v in r:
                row = bank.anchor
                closures += trk.process_sample(float(v)) is not None
                shifts += bank.anchor < row
                assert bank.anchor < bank.filled
                open_start = trk.segments[-1].b + 1 if trk.segments else 0
                assert bank.start[bank.anchor] == open_start
            assert closures >= 1 and shifts >= 1
            assert [(s.a, s.b) for s in trk.segments] == \
                [ab for ab, _ in pinned], memory
            for seg, (_, doppler) in zip(trk.segments, pinned):
                np.testing.assert_allclose(seg.doppler, doppler, rtol=1e-12,
                                           atol=0.0, err_msg=str(memory))

    def test_kept_anchor_pins_hold_on_nehalem_core(self):
        # the same pins on OpenBLAS's SSE core without FMA: fails when a
        # boundary or Doppler hangs on the last bits of one core's kernels
        paths = [os.path.dirname(os.path.dirname(dopptrack.__file__)),
                 os.path.dirname(os.path.abspath(__file__))]
        env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem",
                   PYTHONPATH=os.pathsep.join(paths))
        child = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c",
             NEHALEM_CHILD], env=env, capture_output=True, text=True,
            timeout=600)
        assert child.returncode == 0, child.stderr
        core = child.stdout.strip()
        if core == "None":
            pytest.skip("the OpenBLAS core cannot be read")
        if core != "Nehalem":
            pytest.skip("OPENBLAS_CORETYPE=Nehalem left the core at " + core)

    def test_delay_chain_continuity(self):
        sig = build_signal(n_symbols=1200)
        n = np.arange(10000)
        # two-rate warp induces at least one closure
        d_piece = np.where(n < 4000, 1.0004, 0.9996)
        alpha = np.cumsum(np.r_[0.0, d_piece[1:]]) * T - 9e-4
        r = sig.eval_passband(alpha)
        trk = DopplerTracker(sig, config([1.0], [-9e-4]))
        for v in r:
            trk.process_sample(float(v))
        trk.finalize()
        assert len(trk.segments) >= 2
        for prev, nxt in zip(trk.segments, trk.segments[1:]):
            assert nxt.a == prev.b + 1
            end_warp = prev.tau + prev.doppler * (prev.b - prev.a) * T
            chained = end_warp + prev.doppler * T
            np.testing.assert_allclose(nxt.tau, chained, atol=1e-12)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            config([1.0], [0.0], penalty=0.0)
        with pytest.raises(ValueError):
            config([1.0], [0.0], detect_threshold=0)
        with pytest.raises(ValueError):
            config([1.0], [0.0], perturbation=0.0)
        with pytest.raises(ValueError):
            config([1.0], [0.0, 1.0])
        for bad in (np.nan, np.inf, -np.inf):
            for key in ("penalty", "perturbation", "sample_period"):
                with pytest.raises(ValueError):
                    config([1.0], [0.0], **{key: bad})
            with pytest.raises(ValueError):
                config([bad], [0.0])
            with pytest.raises(ValueError):
                config([1.0], [bad])

    def test_memory_sizes_rejected_by_the_bank(self):
        for sizes in [dict(keep_best=0), dict(keep_recent=0)]:
            with pytest.raises(ValueError):
                DopplerTracker(build_signal(), config([1.0], [0.0], **sizes))
