import dataclasses
import errno
import os

import numpy as np
import pytest

from dopptrack import fanout, peak_tracking
from dopptrack.harness import BaselineParams, SignalParams
from dopptrack.peak_tracking import (PeakTracker, crosscorr, subsample_interp,
                                     track_step)
from dopptrack.signal_model import make_qpsk_signal
from test_harness import assert_no_child

FS = 200e3
T = 1.0 / FS
# the default run's baseline settings
SETTINGS = dataclasses.asdict(BaselineParams())


class TestSubsampleInterp:
    def test_symmetric_triple(self):
        assert subsample_interp(0.5, 1.0, 0.5) == 0.0

    def test_exact_parabola_vertex(self):
        y = lambda x: 1.0 - (x - 0.2) ** 2
        assert subsample_interp(y(-1), y(0), y(1)) == pytest.approx(0.2, abs=1e-14)

    def test_edge_case_half_sample(self):
        assert subsample_interp(1.0, 1.0, 0.9) == pytest.approx(-0.5)

    def test_zero_curvature(self):
        assert subsample_interp(1.0, 1.0, 1.0) == 0.0

    def test_vertex_recovered_across_offsets(self):
        for delta in np.linspace(-0.5, 0.5, 21):
            y = lambda x: 3.0 - 0.7 * (x - delta) ** 2
            got = subsample_interp(y(-1), y(0), y(1))
            assert got == pytest.approx(delta, abs=1e-12)


class TestCrosscorr:
    def test_matched_filter_peak_at_true_lag(self):
        rng = np.random.default_rng(0)
        template = rng.normal(size=50)
        window = np.zeros(200)
        window[60:110] = template
        corr = crosscorr(window, template)
        assert np.argmax(corr) == 60

    def test_zero_template_zero_output(self):
        corr = crosscorr(np.ones(100), np.zeros(10))
        assert np.all(corr == 0.0)

    def test_two_copies_equal_maxima(self):
        rng = np.random.default_rng(1)
        template = rng.normal(size=30)
        window = np.zeros(200)
        window[0:30] += template
        window[100:130] += template
        corr = crosscorr(window, template)
        assert corr[0] == pytest.approx(corr[100], rel=1e-12)

    def test_window_too_short(self):
        with pytest.raises(ValueError):
            crosscorr(np.ones(5), np.ones(10))


def full_correlation_search(prev_delays, corr, sample_period,
                            search_halfwidth):
    """The search over a correlation of all lags, as the baseline ran it
    before it correlated only the lags near each path."""
    c0 = corr[1:-1]
    ge = (c0 >= corr[:-2]) & (c0 >= corr[2:])
    gt = (c0 > corr[:-2]) | (c0 > corr[2:])
    maxima = np.flatnonzero(ge & gt) + 1
    dist = np.abs(maxima - (prev_delays / sample_period)[:, None])
    near = dist <= search_halfwidth
    found = near.any(axis=1)
    out = prev_delays.copy()
    if found.any():
        i = maxima[np.argmin(np.where(near, dist, np.inf), axis=1)[found]]
        y_minus, y_0, y_plus = corr[i - 1], corr[i], corr[i + 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = 2.0 * (y_minus - 2.0 * y_0 + y_plus)
            off = np.divide(y_minus - y_plus, denom)
        off = np.where(denom == 0.0, 0.0, np.clip(off, -0.5, 0.5))
        out[found] = (i + off) * sample_period
    return out, ~found


def each_path(prev_delays, window, template, sample_period,
              search_halfwidth):
    """track_step for each of several paths on one window: (delays, flags)
    as arrays."""
    steps = [track_step(prev, window, template, sample_period,
                        search_halfwidth) for prev in prev_delays.tolist()]
    return (np.array([delay for delay, _ in steps], dtype=float),
            np.array([flag for _, flag in steps], dtype=bool))


class TestTrackStep:
    # a one-sample unit template correlates to the window itself, so these
    # tests hand track_step the correlation they mean as its window
    UNIT = np.ones(1)

    def gaussian_peak(self, center, n=400, width=3.0):
        lag = np.arange(n)
        return np.exp(-0.5 * ((lag - center) / width) ** 2)

    def test_drifting_peak_followed(self):
        delay = 100 * T
        center = 100.0
        for _ in range(60):
            center += 0.3
            delay, _ = track_step(delay, self.gaussian_peak(center),
                                  self.UNIT, T, 20)
            assert abs(delay / T - center) < 0.1

    def test_nearest_local_max_beats_global(self):
        corr = self.gaussian_peak(120) + 2.0 * self.gaussian_peak(220)
        delay, _ = track_step(125 * T, corr, self.UNIT, T, 20)
        assert abs(delay / T - 120) < 1.0

    def test_flat_correlation_holds_and_flags(self):
        delay, flag = track_step(50 * T, np.ones(200), self.UNIT, T, 20)
        assert delay == pytest.approx(50 * T)
        assert flag

    def test_peak_outside_window_holds(self):
        delay, flag = track_step(30 * T, self.gaussian_peak(300), self.UNIT,
                                 T, 10)
        assert delay == pytest.approx(30 * T)
        assert flag

    def test_locality_invariant(self):
        rng = np.random.default_rng(5)
        delay = 200 * T
        for _ in range(50):
            corr = rng.normal(size=500)
            prev = delay
            delay, _ = track_step(delay, corr, self.UNIT, T, 15)
            assert abs(delay - prev) / T <= 15 + 0.5

    def test_empty_correlation_rejected(self):
        with pytest.raises(ValueError):
            track_step(1e-4, np.array([]), self.UNIT, T, 5)

    def test_bit_exact_against_full_correlation_search(self):
        # at a unit period, lag 4 lies hw + 2^-52 above the delay, which
        # rounds onto hw = 3: only the margin lag 5 makes it a maximum
        window = np.array([5.0, 4.0, 3.0, 2.0, 6.0, 1.0, 7.0, 8.0])
        prev = np.array([1.0 - 2.0 ** -52])
        want = full_correlation_search(prev, window, 1.0, 3)
        assert not want[1][0]
        got = each_path(prev, window, self.UNIT, 1.0, 3)
        assert got[0].tobytes() == want[0].tobytes()
        np.testing.assert_array_equal(got[1], want[1])
        # integer-valued windows make ties and plateaus; delays fall on,
        # next to and half-way between lags, at lag 0 and max_lag, and
        # outside the lag range; the long template takes the BLAS dot
        rng = np.random.default_rng(11)
        for case in range(3000):
            K = int(rng.integers(1, 8)) if case % 10 else 64
            lags = int(rng.integers(1, 41))
            hw = int(rng.integers(1, 6))
            window = rng.integers(-3, 4, size=lags + K - 1).astype(float)
            template = rng.integers(-2, 3, size=K).astype(float)
            if case % 3 == 0:   # a strided window is copied by np.correlate
                window = np.repeat(window, 2)[::2]
            p = rng.uniform(-8.0, lags + 8.0, size=3)
            p[0] = [0, lags - 1, np.round(p[0])][case % 3]
            p[1] = np.round(p[1]) + rng.choice([-1, 1, 0.5]) \
                * 2.0 ** -float(rng.integers(1, 53))
            prev = np.abs(p) * T if case % 2 else p * T
            want = full_correlation_search(prev, crosscorr(window, template),
                                           T, hw)
            got = each_path(prev, window, template, T, hw)
            assert got[0].tobytes() == want[0].tobytes(), case
            np.testing.assert_array_equal(got[1], want[1])

    def test_bit_exact_on_non_finite_peaks(self):
        # a plateau of inf makes the parabola NaN; the NaN delay is then held
        # and flagged, as the full-correlation search does
        window = np.array([0.0, 1.0, np.inf, np.inf, 1.0, 0.0, 2.0, 0.0])
        prev = np.array([2 * T, 6 * T, np.nan])
        for _ in range(2):
            want = full_correlation_search(prev, window, T, 3)
            got = each_path(prev, window, self.UNIT, T, 3)
            assert got[0].tobytes() == want[0].tobytes()
            np.testing.assert_array_equal(got[1], want[1])
            prev = got[0]
        assert np.isnan(prev[0]) and got[1][0]

    def test_correlates_only_lags_near_each_path(self, monkeypatch):
        spans = []

        def recording(window, template):
            spans.append(window.size - template.size + 1)
            return crosscorr(window, template)

        monkeypatch.setattr(peak_tracking, "crosscorr", recording)
        rng = np.random.default_rng(3)
        for hw in (1, 5, 20):
            template = rng.normal(size=600)
            window = rng.normal(size=900 + template.size - 1)
            prev = rng.uniform(0.0, 900.0, size=20) * T
            prev[:4] = [0.0, 900 * T, 450 * T, 450.5 * T]
            spans.clear()
            each_path(prev, window, template, T, hw)
            assert len(spans) == prev.size
            assert max(spans) <= 2 * hw + 5


class TestPeakTrackerRun:
    def test_static_single_path_delay_recovered(self):
        delay = 150 * T  # exactly on-grid
        params = dataclasses.replace(SignalParams(), amplitude=1.0)
        sig = make_qpsk_signal(650, 30, **vars(params))
        t = np.arange(6000) * T
        r = sig.eval_passband(t - delay)
        pk = PeakTracker(FS, **SETTINGS)
        n_grid, delays, flags = pk.run(r, sig.eval_passband(t), [delay])
        assert not flags.any()
        assert np.max(np.abs(delays - delay)) < T

    def test_stream_too_short(self):
        pk = PeakTracker(FS, template_len=3e-3, search_halfwidth=20, hop=1)
        # a 600-sample template and 2 * 200 + 4 * 20 lags
        with pytest.raises(ValueError, match="stream of 100 samples too "
                           "short for the template of 600 and lag range of "
                           "480 samples"):
            pk.run(np.zeros(100), np.zeros(100), [1e-3])
        # the shortest stream run accepts: one iteration, at sample 600
        n_grid, _, _ = pk.run(np.zeros(1081), np.zeros(1081), [1e-3])
        assert n_grid.tolist() == [600]
        with pytest.raises(ValueError, match="stream of 1080 samples"):
            pk.run(np.zeros(1080), np.zeros(1080), [1e-3])

    def test_stream_length_mismatch_rejected(self):
        pk = PeakTracker(FS, template_len=3e-3, search_halfwidth=20, hop=1)
        with pytest.raises(ValueError, match="received stream of 1081 "
                           "samples, transmitted of 1080"):
            pk.run(np.zeros(1081), np.zeros(1080), [1e-3])

    # 0.52 samples round to one; 0.5 round to none (below)
    def test_template_of_half_a_sample_and_more_is_one_sample(self):
        pk = PeakTracker(FS, template_len=2.6e-6, search_halfwidth=20,
                         hop=1)
        assert pk.template_samples == 1
        n_grid, _, _ = pk.run(np.zeros(82), np.zeros(82), [0.0])
        assert n_grid.tolist() == [1]

    def test_numpy_integer_counts_accepted(self):
        pk = PeakTracker(FS, template_len=3e-3,
                         search_halfwidth=np.int64(20), hop=np.int64(10))
        assert pk.hop == 10 and type(pk.hop) is np.int64
        assert type(pk.search_halfwidth) is np.int64

    @pytest.mark.parametrize("kw", [{"search_halfwidth": 2.5}, {"hop": 2.5}])
    def test_non_integer_counts_rejected(self, kw):
        name, = kw
        with pytest.raises(ValueError, match="%s must be an integer >= 1"
                           % name):
            PeakTracker(FS, **{**SETTINGS, **kw})

    # the settings are checked when the tracker is built, the delays when it
    # runs
    @pytest.mark.parametrize("delays, kw", [
        ([1e-3], {"template_len": 0.0}),
        # 0.5 samples round to none; 1e305 s is past any sample count
        ([1e-3], {"template_len": 2.5e-6}),
        ([1e-3], {"template_len": 1e305}),
        ([-1e-6], {}),
        ([1e-3], {"search_halfwidth": 0}),
        ([1e-3], {"hop": 0}),
        ([np.nan], {}),
        ([np.inf], {}),
    ])
    def test_bad_arguments_rejected(self, delays, kw):
        with pytest.raises(ValueError):
            pk = PeakTracker(FS, **{**SETTINGS, **kw})
            pk.run(np.zeros(2000), np.zeros(2000), delays)


class TestPeakTrackerShares:
    """The paths fanned out over the usable CPUs keep the bits of the run
    that stepped every path on one full correlation per iteration."""

    HW = 5
    DELAYS = [10 * T, 20.5 * T, 30 * T]

    def run(self, iterations):
        """(received, transmitted, run) of a 20-sample template, hop 1, over
        three delayed noisy copies of a random stream, iterations long, that
        goes silent for a stretch, where every path is flagged."""
        rng = np.random.default_rng(iterations)
        # max_lag = 2 * 30 (rounded up) + 4 * HW = 81 lags after the
        # 20-sample template
        x = rng.normal(size=iterations + 101)
        r = rng.normal(0.0, 0.5, size=x.size)
        for lag, gain in ((10, 1.0), (20, -0.7), (30, 0.5)):
            r[lag:] += gain * x[:x.size - lag]
        r[x.size // 3:x.size // 3 + 120] = 0.0
        pk = PeakTracker(FS, template_len=1e-4, search_halfwidth=self.HW,
                         hop=1)
        got = pk.run(r, x, self.DELAYS)
        assert got[0].size == iterations
        return r, x, got

    def assert_reference_bits(self, r, x, got):
        n_grid, delays, flags = got
        K = 20
        max_lag = r.size - 1 - n_grid[-1]
        assert n_grid.tolist() == list(range(K, r.size - max_lag))
        prev, want = np.array(self.DELAYS), []
        for n in n_grid:
            prev, flag = full_correlation_search(
                prev, crosscorr(r[n - K + 1:n + 1 + max_lag],
                                x[n - K + 1:n + 1]), T, self.HW)
            want.append((prev, flag))
        assert delays.tobytes() == np.array([d for d, _ in want]).T.tobytes()
        np.testing.assert_array_equal(flags,
                                      np.array([f for _, f in want]).T)
        assert flags.any() and not flags.all()

    def counting_forks(self, monkeypatch, cpus):
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", counted)
        return forks

    # one process, as many as there are paths, and more CPUs than paths
    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    def test_same_bits_at_each_share_count(self, monkeypatch, cpus):
        forks = self.counting_forks(monkeypatch, cpus)
        self.assert_reference_bits(*self.run(400))
        assert_no_child()
        assert len(forks) == min(cpus, 3) - 1

    def test_failed_fork_gives_the_same_bits_alone(self, monkeypatch):
        forks = []

        def no_fork():
            forks.append(1)
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(fanout, "usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", no_fork)
        self.assert_reference_bits(*self.run(400))
        assert len(forks) == 2

    def test_failed_child_raises_after_reaping(self, monkeypatch):
        here = os.getpid()

        def raising_in_a_child(*args):
            if os.getpid() != here:
                raise ZeroDivisionError("child")
            return track_step(*args)

        monkeypatch.setattr(fanout, "usable_cpus", lambda: 3)
        monkeypatch.setattr(peak_tracking, "track_step", raising_in_a_child)
        with pytest.raises(OSError, match="peak tracking: 2 of the 2 child"):
            self.run(400)
        assert_no_child()

    def test_grid_under_the_floor_starts_no_child(self, monkeypatch):
        # three paths make two shares from 2 * floor path-iterations on
        floor = peak_tracking._SHARE_ITERATIONS
        forks = self.counting_forks(monkeypatch, 64)
        self.run((2 * floor - 1) // 3)
        assert forks == []
        self.run(-(-2 * floor // 3))
        assert forks == [1]
        assert_no_child()
