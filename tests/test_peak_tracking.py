import numpy as np
import pytest

from dopptrack import peak_tracking
from dopptrack.peak_tracking import (PeakTracker, crosscorr, subsample_interp,
                                     track_step)
from dopptrack.signal_model import make_qpsk_signal

FS = 200e3
T = 1.0 / FS


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


class TestTrackStep:
    # a one-sample unit template correlates to the window itself, so these
    # tests hand track_step the correlation they mean as its window
    UNIT = np.ones(1)

    def gaussian_peak(self, center, n=400, width=3.0):
        lag = np.arange(n)
        return np.exp(-0.5 * ((lag - center) / width) ** 2)

    def test_drifting_peak_followed(self):
        delays = np.array([100 * T])
        center = 100.0
        for _ in range(60):
            center += 0.3
            delays, _ = track_step(delays, self.gaussian_peak(center),
                                   self.UNIT, T, 20)
            assert abs(delays[0] / T - center) < 0.1

    def test_nearest_local_max_beats_global(self):
        corr = self.gaussian_peak(120) + 2.0 * self.gaussian_peak(220)
        delays, _ = track_step(np.array([125 * T]), corr, self.UNIT, T, 20)
        assert abs(delays[0] / T - 120) < 1.0

    def test_flat_correlation_holds_and_flags(self):
        delays, flags = track_step(np.array([50 * T]), np.ones(200),
                                   self.UNIT, T, 20)
        assert delays[0] == pytest.approx(50 * T)
        assert flags[0]

    def test_peak_outside_window_holds(self):
        delays, flags = track_step(np.array([30 * T]),
                                   self.gaussian_peak(300), self.UNIT, T, 10)
        assert delays[0] == pytest.approx(30 * T)
        assert flags[0]

    def test_locality_invariant(self):
        rng = np.random.default_rng(5)
        delays = np.array([200 * T])
        for _ in range(50):
            corr = rng.normal(size=500)
            prev = delays[0]
            delays, _ = track_step(delays, corr, self.UNIT, T, 15)
            assert abs(delays[0] - prev) / T <= 15 + 0.5

    def test_empty_correlation_rejected(self):
        with pytest.raises(ValueError):
            track_step(np.array([1e-4]), np.array([]), self.UNIT, T, 5)

    def test_bit_exact_against_full_correlation_search(self):
        # at a unit period, lag 4 lies hw + 2^-52 above the delay, which
        # rounds onto hw = 3: only the margin lag 5 makes it a maximum
        window = np.array([5.0, 4.0, 3.0, 2.0, 6.0, 1.0, 7.0, 8.0])
        prev = np.array([1.0 - 2.0 ** -52])
        want = full_correlation_search(prev, window, 1.0, 3)
        assert not want[1][0]
        got = track_step(prev, window, self.UNIT, 1.0, 3)
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
            got = track_step(prev, window, template, T, hw)
            assert got[0].tobytes() == want[0].tobytes(), case
            np.testing.assert_array_equal(got[1], want[1])

    def test_bit_exact_on_non_finite_peaks(self):
        # a plateau of inf makes the parabola NaN; the NaN delay is then held
        # and flagged, as the full-correlation search does
        window = np.array([0.0, 1.0, np.inf, np.inf, 1.0, 0.0, 2.0, 0.0])
        prev = np.array([2 * T, 6 * T, np.nan])
        for _ in range(2):
            want = full_correlation_search(prev, window, T, 3)
            got = track_step(prev, window, self.UNIT, T, 3)
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
            track_step(prev, window, template, T, hw)
            assert len(spans) == prev.size
            assert max(spans) <= 2 * hw + 5


class TestPeakTrackerRun:
    def test_static_single_path_delay_recovered(self):
        delay = 150 * T  # exactly on-grid
        sig = make_qpsk_signal(650, seed=7, symbol_rate=20e3,
                               carrier_freq=30e3, lead_symbols=30)
        n = np.arange(6000)
        r = sig.eval_passband(n * T - delay)
        pk = PeakTracker(sig, [delay], FS, template_len=3e-3,
                         search_halfwidth=20, hop=10)
        n_grid, delays, flags = pk.run(r)
        assert not flags.any()
        assert np.max(np.abs(delays - delay)) < T

    def test_stream_too_short(self):
        sig = make_qpsk_signal(10, seed=7, symbol_rate=20e3, carrier_freq=30e3)
        pk = PeakTracker(sig, [1e-3], FS, template_len=3e-3, hop=1)
        # a 600-sample template and 2 * 200 + 4 * 20 lags
        with pytest.raises(ValueError, match="stream of 100 samples too "
                           "short for the template of 600 and lag range of "
                           "480 samples"):
            pk.run(np.zeros(100))
        # the shortest stream run accepts: one iteration, at sample 600
        n_grid, _, _ = pk.run(np.zeros(1081))
        assert n_grid.tolist() == [600]
        with pytest.raises(ValueError, match="stream of 1080 samples"):
            pk.run(np.zeros(1080))

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
        sig = make_qpsk_signal(10, seed=7, symbol_rate=20e3, carrier_freq=30e3)
        with pytest.raises(ValueError):
            PeakTracker(sig, delays, FS, **kw)
