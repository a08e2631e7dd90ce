"""Known transmitted waveform: QPSK symbols with Gaussian pulse shaping,
evaluable (with exact time-derivative) at arbitrary continuous times.

The waveform is kept as an analytic function rather than a sampled grid so
that warped evaluation times falling between samples carry no interpolation
error into the tracker's gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QPSK_CONSTELLATION = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2.0)


def generate_symbols(count: int, seed: int) -> np.ndarray:
    """Deterministic pseudorandom QPSK symbol sequence (unit magnitude)."""
    if count < 1:
        raise ValueError("symbol count must be >= 1, got %d" % count)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 4, size=count)
    return QPSK_CONSTELLATION[idx]


@dataclass(frozen=True)
class PulseShape:
    """Gaussian shaping pulse.

    One pulse is centered on every symbol instant k * symbol_period; the pulse
    is treated as exactly zero beyond truncation_halfwidth symbol periods from
    its center, and the parameters must make the neglected tail < 1e-6 of the
    peak.
    """

    symbol_period: float
    gaussian_std: float
    truncation_halfwidth: int = 4

    def __post_init__(self):
        if self.symbol_period <= 0.0:
            raise ValueError("symbol_period must be positive")
        if self.gaussian_std <= 0.0:
            raise ValueError("gaussian_std must be positive")
        if self.truncation_halfwidth < 1:
            raise ValueError("truncation_halfwidth must be >= 1")
        edge = self.truncation_halfwidth * self.symbol_period / self.gaussian_std
        if np.exp(-0.5 * edge * edge) >= 1e-6:
            raise ValueError(
                "pulse tail at the truncation boundary is not negligible; "
                "increase truncation_halfwidth or decrease gaussian_std"
            )

    @property
    def window(self) -> float:
        """Half-width of the pulse support, in seconds."""
        return self.truncation_halfwidth * self.symbol_period


class TransmitSignal:
    """Passband waveform s(t) = amplitude * Re{ b(t) exp(j 2 pi f_c t) } where
    b(t) sums one Gaussian pulse per complex symbol.

    Symbol k is centered at start_time + k * symbol_period; a negative
    start_time models a transmission already in progress at t = 0, so that
    propagation-delayed evaluation times stay inside the signal support from
    the first received sample on.

    Immutable after construction; evaluation is pure and thread-safe.
    """

    def __init__(self, symbols: np.ndarray, pulse: PulseShape,
                 carrier_freq: float, amplitude: float = 1.0,
                 start_time: float = 0.0):
        symbols = np.asarray(symbols, dtype=complex)
        if symbols.ndim != 1 or symbols.size < 1:
            raise ValueError("symbols must be a non-empty 1-D sequence")
        if np.max(np.abs(np.abs(symbols) - 1.0)) > 1e-9:
            raise ValueError("symbols must have unit magnitude")
        if carrier_freq < 0.0:
            raise ValueError("carrier_freq must be >= 0")
        if amplitude <= 0.0:
            raise ValueError("amplitude must be positive")
        self.symbols = symbols
        self.pulse = pulse
        self.carrier_freq = float(carrier_freq)
        self.amplitude = float(amplitude)
        self.start_time = float(start_time)
        self._offsets = np.arange(-pulse.truncation_halfwidth,
                                  pulse.truncation_halfwidth + 1)

    def _baseband_terms(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (b(t), db/dt) for a 1-D float array of times."""
        ts = self.pulse.symbol_period
        sig = self.pulse.gaussian_std
        t = t - self.start_time
        k_center = np.rint(t / ts).astype(np.int64)
        k = k_center[:, None] + self._offsets[None, :]
        dt = t[:, None] - k * ts
        inside = (k >= 0) & (k < self.symbols.size) & \
            (np.abs(dt) <= self.pulse.window)
        env = np.where(inside, np.exp(-0.5 * (dt / sig) ** 2), 0.0)
        sym = self.symbols.take(k, mode="clip")
        terms = sym * env
        b = terms.sum(axis=1)
        b_dot = (terms * (-dt / (sig * sig))).sum(axis=1)
        return b, b_dot

    def eval_passband(self, t: np.ndarray) -> np.ndarray:
        """Real passband values s(t) at a 1-D float array of times; zero
        outside the pulse-truncated support."""
        b, _ = self._baseband_terms(t)
        omega = 2.0 * np.pi * self.carrier_freq
        return self.amplitude * np.real(b * np.exp(1j * omega * t))

    def eval_passband_with_derivative(self, t: np.ndarray):
        """Return (s(t), ds/dt) at a 1-D float array of times, sharing one
        pulse-evaluation pass; ds/dt is exact (product rule on pulses and
        carrier)."""
        b, b_dot = self._baseband_terms(t)
        omega = 2.0 * np.pi * self.carrier_freq
        carrier = np.exp(1j * omega * t)
        s = self.amplitude * np.real(b * carrier)
        sd = self.amplitude * np.real((b_dot + 1j * omega * b) * carrier)
        return s, sd


def make_qpsk_signal(n_symbols: int, seed: int, symbol_rate: float,
                     carrier_freq: float, amplitude: float = 1.0,
                     std_fraction: float = 0.25,
                     truncation_halfwidth: int = 4,
                     lead_symbols: int = 0) -> TransmitSignal:
    """Convenience constructor for the standard QPSK/Gaussian waveform.

    lead_symbols extra symbols are prepended before t = 0 so the waveform is
    already on the air when reception starts.
    """
    period = 1.0 / symbol_rate
    pulse = PulseShape(symbol_period=period,
                       gaussian_std=std_fraction * period,
                       truncation_halfwidth=truncation_halfwidth)
    return TransmitSignal(generate_symbols(n_symbols + lead_symbols, seed),
                          pulse, carrier_freq, amplitude,
                          start_time=-lead_symbols * period)
