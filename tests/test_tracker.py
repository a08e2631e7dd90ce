import dataclasses

import numpy as np
import pytest

from dopptrack import harness, rls
from dopptrack.channel import ChannelScene, Geometry, MotionSpec, synthesize
from dopptrack.signal_model import TransmitSignal, make_qpsk_signal
from dopptrack.tracker import (DopplerSegment, DopplerTracker,
                               InvalidSampleError, TrackerConfig,
                               perturbed_rows, predict_and_gradient,
                               reconstruct_warp_array, rows_batch,
                               update_delays)

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


class TestUpdateDelays:
    def test_unit_doppler(self):
        out = update_delays(np.array([1.0]), np.array([1e-3]), 0, 1000, 5e-6)
        assert out[0] == pytest.approx(6.0e-3, abs=1e-15)

    def test_off_unit_doppler(self):
        out = update_delays(np.array([1.0001]), np.array([1e-3]), 0, 1000, 5e-6)
        assert out[0] == pytest.approx(6.0005e-3, abs=1e-12)

    def test_zero_doppler_freezes_delay(self):
        out = update_delays(np.array([0.0]), np.array([1e-3]), 5, 25, 5e-6)
        assert out[0] == 1e-3

    def test_needs_forward_span(self):
        with pytest.raises(ValueError):
            update_delays(np.array([1.0]), np.array([0.0]), 10, 10, 5e-6)


class TestPredictAndGradient:
    def test_zero_lever_arm(self):
        sig = build_signal()
        tau = np.array([1e-3, 2e-3])
        gains = np.array([1.0, -0.5])
        pred, grad = predict_and_gradient(sig, np.ones(2), tau, a=100, n=100,
                                          T=T, gains=gains)
        np.testing.assert_array_equal(grad, np.zeros(2))
        want = gains @ sig.eval_passband(tau)
        assert pred == pytest.approx(want, rel=1e-12)

    def test_identity_warp_single_path(self):
        sig = build_signal()
        n = 777
        pred, _ = predict_and_gradient(sig, np.array([1.0]), np.array([0.0]),
                                       a=0, n=n, T=T, gains=np.array([1.0]))
        want = sig.eval_passband(np.array([n * T]))[0]
        assert pred == pytest.approx(want, rel=1e-12)

    def test_gradient_matches_finite_difference(self):
        sig = build_signal()
        rng = np.random.default_rng(17)
        gains = np.array([1.0, -0.8, 0.5])
        scale_base = 2 * np.pi * sig.carrier_freq * sig.amplitude
        for _ in range(100):
            d = 1.0 + rng.uniform(-5e-4, 5e-4, size=3)
            tau = rng.uniform(0.0, 5e-3, size=3)
            a = int(rng.integers(0, 500))
            n = a + int(rng.integers(1, 2000))
            pred, grad = predict_and_gradient(sig, d, tau, a, n, T, gains)
            u = (n - a) * T
            step = 1e-8
            for l in range(3):
                dp = d.copy(); dp[l] += step
                dm = d.copy(); dm[l] -= step
                fp, _ = predict_and_gradient(sig, dp, tau, a, n, T, gains)
                fm, _ = predict_and_gradient(sig, dm, tau, a, n, T, gains)
                fd = (fp - fm) / (2 * step)
                tol = 1e-4 * max(abs(grad[l]),
                                 scale_base * abs(gains[l]) * u)
                assert abs(grad[l] - fd) <= tol


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
        sig = CountingSignal(base.symbols, base.pulse, base.carrier_freq,
                             base.amplitude, base.start_time)
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


class TestTrackerRuns:
    def static_run(self, n_samples):
        geo = Geometry(bottom_depth=1.8, tx_depth=0.46, rx_depth=0.46,
                       horizontal_range=1.45)
        scene = ChannelScene(geometry=geo, motion=MotionSpec(),
                             gains=(1.0, -0.8, 0.5), noise_std=0.0,
                             sample_rate=FS)
        sig = build_signal(n_symbols=int(n_samples * T * 20e3) + 2)
        r, truth = synthesize(scene, sig, n_samples, noise_seed=0)
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
            assert trk.sample_index == 5
        trk.process_sample(float(r[5]))
        assert trk.sample_index == 6

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
        assert trk.sample_index == 101
        for v in r[101:]:
            assert trk.process_sample(float(v)) is None
        assert trk.sample_index == 200
        assert bank.filled == frozen[0]
        np.testing.assert_array_equal(bank.start, frozen[1])
        np.testing.assert_array_equal(bank.factor, frozen[2])
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
        # the tracker keeps the anchor's bank row instead of searching for
        # it; eviction below the anchor and closures both move that row
        cfg = harness.default_config()
        cfg = dataclasses.replace(cfg, duration=3000 / cfg.channel.sample_rate)
        sig, _, r, truth = harness.simulate_stream(cfg)
        for keep_best, keep_recent in [(1, 1), (1, 2), (2, 1), (3, 2)]:
            trk = DopplerTracker(sig, config(cfg.channel.gains,
                                             truth.alpha[:, 0],
                                             keep_best=keep_best,
                                             keep_recent=keep_recent))
            bank = trk.segmentation
            closures = shifts = 0
            for v in r:
                row = trk._anchor
                closures += trk.process_sample(float(v)) is not None
                shifts += trk._anchor < row
                assert trk._anchor < bank.filled
                assert bank.start[trk._anchor] == trk._a_cur
            assert closures >= 1 and shifts >= 1

    def test_missing_winner_raises_without_closing(self):
        trk, _, _ = self.static_run(50)
        with pytest.raises(RuntimeError):
            trk._close_segment(10**6, 50)
        assert trk.segments == []

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

    def test_memory_sizes_rejected_by_the_bank(self):
        for sizes in [dict(keep_best=0), dict(keep_recent=0)]:
            with pytest.raises(ValueError):
                DopplerTracker(build_signal(), config([1.0], [0.0], **sizes))
