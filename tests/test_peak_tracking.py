import numpy as np
import pytest

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


class TestTrackStep:
    def gaussian_peak(self, center, n=400, width=3.0):
        lag = np.arange(n)
        return np.exp(-0.5 * ((lag - center) / width) ** 2)

    def test_drifting_peak_followed(self):
        delays = np.array([100 * T])
        center = 100.0
        for _ in range(60):
            center += 0.3
            delays, _ = track_step(delays, self.gaussian_peak(center), T, 20)
            assert abs(delays[0] / T - center) < 0.1

    def test_nearest_local_max_beats_global(self):
        corr = self.gaussian_peak(120) + 2.0 * self.gaussian_peak(220)
        delays, _ = track_step(np.array([125 * T]), corr, T, 20)
        assert abs(delays[0] / T - 120) < 1.0

    def test_flat_correlation_holds_and_flags(self):
        delays, flags = track_step(np.array([50 * T]), np.ones(200), T, 20)
        assert delays[0] == pytest.approx(50 * T)
        assert flags[0]

    def test_peak_outside_window_holds(self):
        delays, flags = track_step(np.array([30 * T]),
                                   self.gaussian_peak(300), T, 10)
        assert delays[0] == pytest.approx(30 * T)
        assert flags[0]

    def test_locality_invariant(self):
        rng = np.random.default_rng(5)
        delays = np.array([200 * T])
        for _ in range(50):
            corr = rng.normal(size=500)
            prev = delays[0]
            delays, _ = track_step(delays, corr, T, 15)
            assert abs(delays[0] - prev) / T <= 15 + 0.5

    def test_empty_correlation_rejected(self):
        with pytest.raises(ValueError):
            track_step(np.array([1e-4]), np.array([]), T, 5)


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
        with pytest.raises(ValueError):
            pk.run(np.zeros(100))

    @pytest.mark.parametrize("delays, kw", [
        ([1e-3], {"template_len": 0.0}),
        ([-1e-6], {}),
        ([1e-3], {"search_halfwidth": 0}),
        ([1e-3], {"hop": 0}),
    ])
    def test_bad_arguments_rejected(self, delays, kw):
        sig = make_qpsk_signal(10, seed=7, symbol_rate=20e3, carrier_freq=30e3)
        with pytest.raises(ValueError):
            PeakTracker(sig, delays, FS, **kw)
