import numpy as np
import pytest

from dopptrack.signal_model import (PulseShape, TransmitSignal,
                                    generate_symbols, make_qpsk_signal)

QPSK_POINTS = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2)


def single_symbol_signal(symbol=1 + 0j, carrier=30e3, amplitude=1.0):
    pulse = PulseShape(symbol_period=5e-5, gaussian_std=1.25e-5)
    return TransmitSignal(np.array([symbol]), pulse, carrier, amplitude)


class TestGenerateSymbols:
    def test_constellation_membership(self):
        syms = generate_symbols(4, seed=7)
        for s in syms:
            assert np.min(np.abs(s - QPSK_POINTS)) < 1e-12

    def test_determinism(self):
        a = generate_symbols(1000, seed=7)
        b = generate_symbols(1000, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_sequence(self):
        a = generate_symbols(1000, seed=7)
        b = generate_symbols(1000, seed=8)
        assert np.any(a != b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_symbols(0, seed=1)


def at(*times):
    return np.array(times, dtype=float)


class TestBaseband:
    # with carrier 0 and the real symbol 1, s(t) = amplitude * b(t)
    def test_peak_value(self):
        sig = single_symbol_signal(carrier=0.0)
        assert sig.eval_passband(at(0.0))[0] == pytest.approx(1.0)

    def test_one_std_off_peak(self):
        sig = single_symbol_signal(carrier=0.0)
        got = sig.eval_passband(at(sig.pulse.gaussian_std))[0]
        assert got == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_zero_outside_support(self):
        sig = single_symbol_signal(carrier=0.0)
        beyond = sig.pulse.window + 1e-9
        np.testing.assert_array_equal(sig.eval_passband(at(beyond, -beyond)),
                                      0.0)

    def test_support_with_many_symbols(self):
        sig = make_qpsk_signal(50, seed=3, symbol_rate=20e3, carrier_freq=0.0)
        t_end = 49 * sig.pulse.symbol_period + sig.pulse.window
        s = sig.eval_passband(at(t_end + 1e-9, t_end - 1e-6))
        assert s[0] == 0.0
        assert abs(s[1]) > 0.0


class TestPassband:
    def test_pure_carrier_factor(self):
        # real symbol: s(t) = envelope(t) * cos(2 pi f t)
        sig = single_symbol_signal(carrier=30e3)
        t = at(0.0, 3e-6, 1.1e-5, -7e-6)
        env = np.exp(-0.5 * (t / sig.pulse.gaussian_std) ** 2)
        want = env * np.cos(2 * np.pi * 30e3 * t)
        np.testing.assert_allclose(sig.eval_passband(t), want, rtol=0.0,
                                   atol=1e-12)

    def test_zero_outside_support(self):
        sig = single_symbol_signal()
        assert sig.eval_passband(at(sig.pulse.window + 1e-7))[0] == 0.0

    def test_amplitude_linearity(self):
        one = single_symbol_signal(symbol=QPSK_POINTS[2], amplitude=1.0)
        two = single_symbol_signal(symbol=QPSK_POINTS[2], amplitude=2.0)
        t = np.linspace(-1e-4, 1e-4, 101)
        np.testing.assert_allclose(two.eval_passband(t),
                                   2.0 * one.eval_passband(t), rtol=1e-13)


class TestDerivative:
    def test_zero_at_cosine_extremum(self):
        # at the pulse center both the envelope slope and the carrier sine
        # vanish, so ds/dt(0) = 0
        sig = single_symbol_signal(carrier=30e3)
        _, sd = sig.eval_passband_with_derivative(at(0.0))
        assert sd[0] == pytest.approx(0.0, abs=1e-9)

    def test_envelope_derivative_without_carrier(self):
        sig = single_symbol_signal(carrier=0.0)
        t = 4e-6
        env = np.exp(-0.5 * (t / sig.pulse.gaussian_std) ** 2)
        want = -t / sig.pulse.gaussian_std ** 2 * env
        _, sd = sig.eval_passband_with_derivative(at(0.0, t))
        assert sd[0] == pytest.approx(0.0, abs=1e-12)
        assert sd[1] == pytest.approx(want, rel=1e-12)

    def test_matches_central_difference(self):
        # oracle: central finite differences, step 1e-9 s; tolerance floor
        # scales with the carrier rate since |ds/dt| ~ 2 pi f_c
        sig = make_qpsk_signal(200, seed=11, symbol_rate=20e3,
                               carrier_freq=30e3)
        rng = np.random.default_rng(42)
        t = rng.uniform(0.0, 200 / 20e3, size=1000)
        h = 1e-9
        fd = (sig.eval_passband(t + h) - sig.eval_passband(t - h)) / (2 * h)
        _, an = sig.eval_passband_with_derivative(t)
        scale = 2 * np.pi * sig.carrier_freq * sig.amplitude
        assert np.all(np.abs(an - fd) <= 1e-4 * np.maximum(np.abs(an), scale))

    def test_with_derivative_consistent(self):
        sig = make_qpsk_signal(30, seed=2, symbol_rate=20e3, carrier_freq=30e3)
        t = np.linspace(0, 1e-3, 57)
        s, sd = sig.eval_passband_with_derivative(t)
        np.testing.assert_array_equal(s, sig.eval_passband(t))
        np.testing.assert_array_equal(sd,
                                      sig.eval_passband_with_derivative(t)[1])


class TestLeadIn:
    def test_start_time_shifts_support(self):
        lead = 10
        sig = make_qpsk_signal(20, seed=1, symbol_rate=20e3, carrier_freq=0.0,
                               lead_symbols=lead)
        assert sig.start_time == pytest.approx(-lead / 20e3)
        assert abs(sig.eval_passband(at(-lead / 20e3))[0]) > 0.1

    def test_lead_in_extends_not_translates(self):
        # symbols after t=0 must not depend on the lead-in length
        base = make_qpsk_signal(20, seed=1, symbol_rate=20e3,
                                carrier_freq=20e3)
        lead = make_qpsk_signal(20, seed=1, symbol_rate=20e3,
                                carrier_freq=20e3, lead_symbols=5)
        # same seed gives the same symbol stream, so the leaded signal equals
        # the base signal shifted by 5 symbol periods; the carrier turns
        # whole cycles over that shift, so both quadratures of b are compared
        t = np.linspace(0.0, 8e-4, 31)
        np.testing.assert_allclose(lead.eval_passband(t - 5 / 20e3),
                                   base.eval_passband(t), atol=1e-12)


class TestValidation:
    def test_pulse_tail_must_be_negligible(self):
        with pytest.raises(ValueError):
            PulseShape(symbol_period=5e-5, gaussian_std=5e-5,
                       truncation_halfwidth=1)

    def test_pulse_positive_params(self):
        with pytest.raises(ValueError):
            PulseShape(symbol_period=0.0, gaussian_std=1e-5)
        with pytest.raises(ValueError):
            PulseShape(symbol_period=5e-5, gaussian_std=-1e-5)
        with pytest.raises(ValueError):
            PulseShape(symbol_period=5e-5, gaussian_std=1.25e-5,
                       truncation_halfwidth=0)

    def test_symbols_must_have_unit_magnitude(self):
        pulse = PulseShape(symbol_period=5e-5, gaussian_std=1.25e-5)
        with pytest.raises(ValueError):
            TransmitSignal(np.array([0.5 + 0j]), pulse, 30e3)

    def test_amplitude_positive(self):
        pulse = PulseShape(symbol_period=5e-5, gaussian_std=1.25e-5)
        with pytest.raises(ValueError):
            TransmitSignal(np.array([1 + 0j]), pulse, 30e3, amplitude=0.0)
