import tracemalloc

import numpy as np
import pytest

from dopptrack.signal_model import (_BLOCK_TERMS, PulseShape, TransmitSignal,
                                    _sum_rows, generate_symbols,
                                    make_qpsk_signal)

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
        # 2 * 1820 + 1 times make three blocks at W = 4
        for n in (57, 2 * 1820 + 1):
            t = np.linspace(0, 1e-3, n)
            s, sd = sig.eval_passband_with_derivative(t)
            np.testing.assert_array_equal(s, sig.eval_passband(t))
            np.testing.assert_array_equal(
                sd, sig.eval_passband_with_derivative(t)[1])


def sum_columns_in_order(x):
    """Sum an (N, R) array over its columns, left to right from +0.0."""
    total = np.zeros(x.shape[0], dtype=complex)
    for column in x.T:
        total += column
    return total


class PointMajorSignal(TransmitSignal):
    """Reference kernel: one row per time, one column per pulse offset, an
    explicit range-and-window mask, and a sum over the offsets in order.
    It keeps the symbols it was built from; blocks counts the blocks it has
    evaluated."""

    blocks = 0

    def __init__(self, symbols, *args, **kwargs):
        super().__init__(symbols, *args, **kwargs)
        self.symbols = np.asarray(symbols, dtype=complex)

    def _passband_block(self, t, s, sd):
        self.blocks += 1
        ts = self.pulse.symbol_period
        sig = self.pulse.gaussian_std
        offsets = np.arange(-self.pulse.truncation_halfwidth,
                            self.pulse.truncation_halfwidth + 1)
        u = t - self.start_time
        k_center = np.rint(u / ts).astype(np.int64)
        k = k_center[:, None] + offsets[None, :]
        dt = u[:, None] - k * ts
        inside = (k >= 0) & (k < self.symbols.size) & \
            (np.abs(dt) <= self.pulse.window)
        env = np.where(inside, np.exp(-0.5 * (dt / sig) ** 2), 0.0)
        terms = self.symbols.take(k, mode="clip") * env
        b = sum_columns_in_order(terms)
        b_dot = sum_columns_in_order(terms * (-dt / (sig * sig)))
        omega = 2.0 * np.pi * self.carrier_freq
        carrier = np.exp(1j * omega * t)
        s[:] = self.amplitude * np.real(b * carrier)
        if sd is not None:
            sd[:] = self.amplitude * np.real((b_dot + 1j * omega * b) * carrier)


def signed_zeros_and_magnitudes(rng, shape):
    """Complex values spanning 60 decades, a third of the parts zeros of
    either sign, and some columns entirely -0.0."""
    def part():
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
        zero = rng.random(shape) < 0.35
        x[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        return x
    x = part() + 1j * part()
    x[:, ::5] = complex(-0.0, -0.0)
    return x


# times per block = _BLOCK_TERMS // (2W + 1); the label gives (blocks, extra)
AROUND_BLOCK = {"block-1": (1, -1), "block": (1, 0), "block+1": (1, 1),
                "2block+1": (2, 1)}


def assert_matches_point_major(halfwidth, n):
    period = 1 / 20e3
    # the tail at the truncation boundary is exp(-18) for every width
    pulse = PulseShape(symbol_period=period,
                       gaussian_std=halfwidth * period / 6.0,
                       truncation_halfwidth=halfwidth)
    symbols = generate_symbols(60, seed=halfwidth)
    args = (symbols, pulse, 30e3, 0.7, -5 * period)
    new, ref = TransmitSignal(*args), PointMajorSignal(*args)
    start, end = -5 * period, 55 * period
    reach = (halfwidth + 2) * period
    rng = np.random.default_rng(n + halfwidth)
    # the reference kernel runs in the same fixed-size blocks, none for N = 0
    blocks = -(-n // (_BLOCK_TERMS // (2 * halfwidth + 1)))
    for t in (rng.uniform(start, end, n),
              rng.uniform(start - reach, end + reach, n),
              np.where(rng.random(n) < 0.5,
                       rng.uniform(start - 1.0, start - reach, n),
                       rng.uniform(end + reach, end + 1.0, n))):
        ref.blocks = 0
        got = new.eval_passband_with_derivative(t)
        want = ref.eval_passband_with_derivative(t)
        assert ref.blocks == blocks
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        ref.blocks = 0
        assert new.eval_passband(t).tobytes() == \
            ref.eval_passband(t).tobytes()
        assert ref.blocks == blocks


class TestKernelBitExact:
    # the offset-major kernel must give the point-major kernel's bits

    # The name predates the in-order sum, when the kernel copied numpy's
    # pairwise reduction. np.cumsum is sequential by definition, so its
    # last row plus 0.0 is the owned order: rows in order, then +0.0.
    @pytest.mark.parametrize("rows", range(1, 131))
    def test_pairwise_sum_matches_numpy_sum(self, rows):
        rng = np.random.default_rng(rows)
        x = signed_zeros_and_magnitudes(rng, (rows, 23))
        want = np.cumsum(x, axis=0)[-1] + 0.0
        assert _sum_rows(x.copy()).tobytes() == want.tobytes()
        assert want.tobytes() == sum_columns_in_order(x.T).tobytes()

    @pytest.mark.parametrize("halfwidth", [1, 2, 4, 8, 40])
    @pytest.mark.parametrize("n", [0, 1, 3, 360, 5000, *AROUND_BLOCK])
    def test_eval_matches_point_major(self, halfwidth, n):
        if n in AROUND_BLOCK:
            blocks, extra = AROUND_BLOCK[n]
            n = blocks * (_BLOCK_TERMS // (2 * halfwidth + 1)) + extra
        assert_matches_point_major(halfwidth, n)

    def test_large_batch_matches_point_major(self):
        assert_matches_point_major(4, 100_000)


class TestBlocks:
    # W = 4: 1 820 times per block
    def signal(self):
        return make_qpsk_signal(600, seed=5, symbol_rate=20e3,
                                carrier_freq=30e3)

    def test_tracker_sized_call_runs_one_block(self, monkeypatch):
        sig = self.signal()
        sizes = []
        block = sig._passband_block
        monkeypatch.setattr(sig, "_passband_block",
                            lambda t, s, sd: sizes.append(t.size)
                            or block(t, s, sd))
        sig.eval_passband_with_derivative(np.linspace(0.0, 0.03, 1440))
        assert sizes == [1440]
        sizes.clear()
        sig.eval_passband(np.linspace(0.0, 0.03, 2 * 1820 + 1))
        assert sizes == [1820, 1820, 1]

    def test_large_batch_memory_per_point(self):
        # the float results take 8 or 16 bytes per point and one block's
        # work array ~5 or ~8 at 10^5 points; carriers and b(t) spanning
        # the whole batch took 64 and 80, and one unblocked call 480
        sig = self.signal()
        t = np.linspace(0.0, 0.03, 100_000)
        for evaluate, bound in ((sig.eval_passband, 24),
                                (sig.eval_passband_with_derivative, 40)):
            evaluate(t[:10])
            tracemalloc.start()
            try:
                evaluate(t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * t.size, evaluate.__name__


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

    @pytest.mark.parametrize("bad", [np.nan, complex(1.0, np.nan), np.inf])
    def test_non_finite_symbol(self, bad):
        pulse = PulseShape(symbol_period=5e-5, gaussian_std=1.25e-5)
        with pytest.raises(ValueError, match="unit magnitude"):
            TransmitSignal(np.array([1, bad, 1j]), pulse, 30e3)

    # the one owner of the symbol-rate rule: 0 would divide by zero
    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
    def test_symbol_rate_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="symbol_rate"):
            make_qpsk_signal(10, seed=1, symbol_rate=rate, carrier_freq=30e3)

    @pytest.mark.parametrize("start", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_time(self, start):
        pulse = PulseShape(symbol_period=5e-5, gaussian_std=1.25e-5)
        with pytest.raises(ValueError, match="start_time"):
            TransmitSignal(np.array([1 + 0j]), pulse, 30e3, start_time=start)
