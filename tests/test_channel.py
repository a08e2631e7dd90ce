import dataclasses

import numpy as np
import pytest

from dopptrack.channel import (ChannelScene, Geometry, MotionSpec, PATHS,
                               path_lengths, path_warp, synthesize)
from dopptrack.signal_model import make_qpsk_signal

C_SOUND = 1500.0


def tank_geometry():
    return Geometry(bottom_depth=1.8, tx_depth=0.46, rx_depth=0.46,
                    horizontal_range=1.45, sound_speed=C_SOUND)


def static_scene(gains=(1.0, -0.8, 0.5), noise_std=0.0):
    return ChannelScene(geometry=tank_geometry(), motion=MotionSpec(),
                        gains=gains, noise_std=noise_std, sample_rate=200e3)


def moving_scene(noise_std=0.0, sample_rate=200e3):
    motion = MotionSpec(rx_osc_freq=0.6, rx_osc_amp=0.125,
                        surface_freq=0.6, surface_amp=0.165)
    return ChannelScene(geometry=tank_geometry(), motion=motion,
                        gains=(1.0, -0.8, 0.5), noise_std=noise_std,
                        sample_rate=sample_rate)


def truth_of(scene, n_samples):
    """Ground truth of the first n_samples; zero gains skip the signal."""
    silent = dataclasses.replace(scene, gains=(0.0, 0.0, 0.0))
    sig = make_qpsk_signal(1, seed=7, symbol_rate=20e3, carrier_freq=30e3)
    _, truth, _ = synthesize(silent, sig, n_samples, noise_seed=0)
    return truth


def length_at(scene, path, t):
    lengths = path_lengths(scene.geometry, scene.motion, np.array([t]))
    return lengths[PATHS.index(path), 0]


def swaying_scene():
    """Receiver sway on a flat surface; tx and rx share a depth, so the
    direct path's vertical extent is 0."""
    return dataclasses.replace(moving_scene(), motion=MotionSpec(
        rx_osc_freq=0.6, rx_osc_amp=0.125))


def tilted_scene():
    """Transmitter above the receiver, phase-shifted sway and heave."""
    geometry = Geometry(bottom_depth=1.8, tx_depth=0.3, rx_depth=0.7,
                        horizontal_range=1.45, sound_speed=C_SOUND)
    return dataclasses.replace(moving_scene(), geometry=geometry,
                               motion=MotionSpec(0.6, 0.125, 0.3, 0.7, 0.165,
                                                 1.1))


def per_path_warp(g, m, path, t):
    """One path's warp and Doppler factor, with its own sway and heave."""
    w, ws = 2.0 * np.pi * m.rx_osc_freq, 2.0 * np.pi * m.surface_freq
    x = g.horizontal_range + m.rx_osc_amp * np.sin(w * t + m.rx_osc_phase)
    x_dot = m.rx_osc_amp * w * np.cos(w * t + m.rx_osc_phase)
    if path == "surface":
        v = g.tx_depth + g.rx_depth \
            + 2.0 * (m.surface_amp * np.sin(ws * t + m.surface_phase))
        v_dot = 2.0 * (m.surface_amp * ws * np.cos(ws * t + m.surface_phase))
    else:
        v = g.tx_depth - g.rx_depth if path == "direct" \
            else 2.0 * g.bottom_depth - g.tx_depth - g.rx_depth
        v_dot = 0.0
    length = np.hypot(x, v)
    c = g.sound_speed
    return t - length / c, 1.0 - (x * x_dot + v * v_dot) / length / c


class TestPathLength:
    # image-method arithmetic for the equal-depth tank geometry, frozen:
    #   direct  = 1.45
    #   surface = sqrt(1.45^2 + 0.92^2) = 1.71724
    #   bottom  = sqrt(1.45^2 + 2.68^2) = 3.04712
    def test_direct(self):
        assert length_at(static_scene(), "direct", 0.0) == pytest.approx(1.45, abs=1e-9)

    def test_surface(self):
        assert length_at(static_scene(), "surface", 0.0) == pytest.approx(1.71724, abs=1e-5)

    def test_bottom(self):
        assert length_at(static_scene(), "bottom", 0.0) == pytest.approx(3.04712, abs=1e-5)

    def test_surface_heave_lengthens_image(self):
        scene = moving_scene()
        quarter = 0.25 / 0.6  # surface sinusoid peak
        up = length_at(scene, "surface", quarter)
        flat = length_at(static_scene(), "surface", 0.0)
        assert up > flat

    # the same IEEE operations as path_warp's lengths, so the warp built from
    # each row is the same to the bit; 2 s span more than one sway period
    @pytest.mark.parametrize("scene", [moving_scene, swaying_scene])
    @pytest.mark.parametrize("i", range(len(PATHS)))
    def test_row_is_path_warp_length(self, scene, i):
        scene = scene()
        g, m = scene.geometry, scene.motion
        t = np.arange(400000) * scene.sample_period
        alpha, _ = path_warp(g, m, t)
        lengths = path_lengths(g, m, t)
        assert lengths.shape == alpha.shape == (len(PATHS), t.size)
        np.testing.assert_array_equal(alpha[i],
                                      t - lengths[i] / g.sound_speed)


class TestWarp:
    def test_static_delay_only(self):
        n = np.arange(100)
        expect = n / 200e3 - 1.45 / C_SOUND
        alpha = truth_of(static_scene(), 100).alpha
        np.testing.assert_allclose(alpha[0], expect, atol=1e-15)

    def test_direct_delay_value(self):
        # 1.45 m at 1500 m/s -> 0.96667 ms
        delay = 0.0 - truth_of(static_scene(), 1).alpha[0, 0]
        assert delay == pytest.approx(9.6667e-4, abs=1e-8)

    # path_warp evaluates the sway and heave once for all paths; each row
    # keeps the bits of the per-path formula, which evaluated them per path
    @pytest.mark.parametrize("scene", [static_scene, moving_scene,
                                       swaying_scene, tilted_scene])
    def test_rows_match_per_path_reference(self, scene):
        scene = scene()
        g, m = scene.geometry, scene.motion
        t = np.arange(400000) * scene.sample_period
        alpha, doppler = path_warp(g, m, t)
        for i, path in enumerate(PATHS):
            ref_alpha, ref_doppler = per_path_warp(g, m, path, t)
            np.testing.assert_array_equal(alpha[i], ref_alpha)
            np.testing.assert_array_equal(doppler[i], ref_doppler)

    def test_monotone_in_paper_scenario(self):
        alpha = truth_of(moving_scene(), 10000).alpha
        assert np.all(np.diff(alpha, axis=1) > 0.0)


class TestGroundTruthDoppler:
    def test_static_is_one(self):
        assert np.all(truth_of(static_scene(), 100).doppler == 1.0)

    def test_receiver_speed_bound(self):
        # |d - 1| <= v_max / c with v_max = 2 pi * 0.6 * 0.125; 5000
        # samples at 2.5 kHz span 2 s, more than one sway period
        d = truth_of(moving_scene(sample_rate=2500.0), 5000).doppler[0]
        bound = 2 * np.pi * 0.6 * 0.125 / C_SOUND
        assert np.all(np.abs(d - 1.0) <= bound + 1e-12)
        assert np.max(np.abs(d - 1.0)) > 0.5 * bound

    def test_matches_finite_difference_of_warp(self):
        scene = moving_scene()
        T = scene.sample_period
        truth = truth_of(scene, 90005)
        rng = np.random.default_rng(3)
        n = rng.integers(100, 90000, size=200)
        dn = 4
        fd = (truth.alpha[:, n + dn] - truth.alpha[:, n - dn]) / (2 * dn * T)
        np.testing.assert_allclose(truth.doppler[:, n], fd, rtol=1e-9)


class TestSynthesize:
    def test_single_path_is_delayed_signal(self):
        scene = static_scene(gains=(1.0, 0.0, 0.0))
        sig = make_qpsk_signal(100, seed=7, symbol_rate=20e3,
                               carrier_freq=30e3, lead_symbols=40)
        r, truth, _ = synthesize(scene, sig, 2000, noise_seed=0)
        n = np.arange(2000)
        expect = sig.eval_passband(n * scene.sample_period - 1.45 / C_SOUND)
        np.testing.assert_array_equal(r, expect)

    # the direct path's power overflows, or a finite power puts the level
    # snr_db below it past float range; neither warns. An explicit level
    # derives nothing from the power
    @pytest.mark.parametrize("gain, snr_db", [(1e200, 20.0), (1e150, -300.0)])
    def test_non_finite_noise_level_rejected(self, gain, snr_db):
        scene = static_scene(gains=(gain, 0.0, 0.0))
        sig = make_qpsk_signal(100, seed=7, symbol_rate=20e3,
                               carrier_freq=30e3, lead_symbols=40)
        with pytest.raises(ValueError, match="not finite"):
            synthesize(dataclasses.replace(scene, noise_std=None,
                                           snr_db=snr_db), sig, 2000, 0)
        r, _, noise_std = synthesize(scene, sig, 2000, noise_seed=0)
        assert noise_std == 0.0 and np.isfinite(r).all()

    def test_zero_gains_zero_output(self):
        scene = static_scene(gains=(0.0, 0.0, 0.0))
        sig = make_qpsk_signal(50, seed=7, symbol_rate=20e3, carrier_freq=30e3)
        r, _, _ = synthesize(scene, sig, 500, noise_seed=0)
        assert np.all(r == 0.0)

    def test_energy_bound(self):
        scene = moving_scene()
        sig = make_qpsk_signal(200, seed=7, symbol_rate=20e3,
                               carrier_freq=30e3, lead_symbols=50)
        r, _, _ = synthesize(scene, sig, 5000, noise_seed=0)
        t = np.linspace(-50 / 20e3, 200 / 20e3, 200001)
        peak = np.max(np.abs(sig.eval_passband(t)))
        assert np.max(np.abs(r)) <= (1.0 + 0.8 + 0.5) * peak + 1e-12

    def test_noise_reproducible(self):
        scene = moving_scene(noise_std=0.05)
        sig = make_qpsk_signal(50, seed=7, symbol_rate=20e3, carrier_freq=30e3)
        r1, _, _ = synthesize(scene, sig, 1000, noise_seed=99)
        r2, _, _ = synthesize(scene, sig, 1000, noise_seed=99)
        assert np.array_equal(r1, r2)
        r3, _, _ = synthesize(scene, sig, 1000, noise_seed=100)
        assert np.any(r3 != r1)

    def test_truth_filled_for_all_paths(self):
        scene = moving_scene()
        sig = make_qpsk_signal(50, seed=7, symbol_rate=20e3, carrier_freq=30e3)
        _, truth, _ = synthesize(scene, sig, 700, noise_seed=0)
        assert truth.alpha.shape == (3, 700)
        assert truth.doppler.shape == (3, 700)
        assert np.all(np.isfinite(truth.alpha))


class TestValidation:
    def test_depth_ordering(self):
        with pytest.raises(ValueError):
            Geometry(bottom_depth=1.0, tx_depth=1.5, rx_depth=0.5,
                     horizontal_range=1.0)

    def test_negative_amplitude(self):
        with pytest.raises(ValueError):
            MotionSpec(rx_osc_amp=-0.1)

    def test_surface_heave_crossing_terminal(self):
        with pytest.raises(ValueError):
            ChannelScene(geometry=tank_geometry(),
                         motion=MotionSpec(surface_amp=0.5),
                         gains=(1.0, -0.8, 0.5), noise_std=0.0,
                         sample_rate=200e3)

    def test_noise_setting(self):
        scene = static_scene()
        noisy = dataclasses.replace(scene, noise_std=None, snr_db=20.0)
        assert noisy.noise_std is None and noisy.snr_db == 20.0
        for noise_std, snr_db in [(None, None), (None, 300.5), (0.0, -301.0),
                                  (None, float("nan")), (-0.1, None)]:
            with pytest.raises(ValueError):
                dataclasses.replace(scene, noise_std=noise_std, snr_db=snr_db)

    def test_gain_count(self):
        with pytest.raises(ValueError):
            ChannelScene(geometry=tank_geometry(), motion=MotionSpec(),
                         gains=(1.0, 0.5), noise_std=0.0, sample_rate=200e3)
