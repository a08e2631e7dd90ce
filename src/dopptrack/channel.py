"""Three-ray shallow-water channel simulator.

Direct, surface-reflected (image across the instantaneously displaced flat
surface) and bottom-reflected arrivals of a known waveform, with a horizontally
oscillating receiver and a sinusoidally heaving surface. synthesize produces
received samples plus the ground-truth emission-time warp and its derivative
for every path, for evaluating trackers; it is the one place that computes
them.

Delays use the quasi-static convention: geometry is frozen at reception time,
alpha(n T) = n T - L(n T) / c. At the sub-m/s speeds simulated here the
difference from the implicit emission-time solution is O(v L / c^2) ~ 1e-9 s,
far below a sample interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import TransmitSignal

PATHS = ("direct", "surface", "bottom")


@dataclass(frozen=True)
class Geometry:
    """Static geometry: depths in meters, horizontal range in meters."""

    bottom_depth: float
    tx_depth: float
    rx_depth: float
    horizontal_range: float
    sound_speed: float = 1500.0

    def __post_init__(self):
        if not (0.0 < self.tx_depth < self.bottom_depth):
            raise ValueError("need 0 < tx_depth < bottom_depth")
        if not (0.0 < self.rx_depth < self.bottom_depth):
            raise ValueError("need 0 < rx_depth < bottom_depth")
        if self.horizontal_range <= 0.0:
            raise ValueError("horizontal_range must be positive")
        if self.sound_speed <= 0.0:
            raise ValueError("sound_speed must be positive")


@dataclass(frozen=True)
class MotionSpec:
    """Sinusoidal receiver sway and surface heave.

    Amplitudes are half of peak-to-peak displacement.
    """

    rx_osc_freq: float = 0.0
    rx_osc_amp: float = 0.0
    rx_osc_phase: float = 0.0
    surface_freq: float = 0.0
    surface_amp: float = 0.0
    surface_phase: float = 0.0

    def __post_init__(self):
        if self.rx_osc_amp < 0.0 or self.surface_amp < 0.0:
            raise ValueError("motion amplitudes must be >= 0")


@dataclass(frozen=True)
class ChannelScene:
    """Full scene: geometry, motion, per-path gains, noise and sampling."""

    geometry: Geometry
    motion: MotionSpec
    gains: tuple[float, float, float]
    noise_std: float
    sample_rate: float

    def __post_init__(self):
        if len(self.gains) != len(PATHS):
            raise ValueError("need exactly %d path gains" % len(PATHS))
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")
        if self.sample_rate <= 0.0:
            raise ValueError("sample_rate must be positive")
        g = self.geometry
        if self.motion.surface_amp >= min(g.tx_depth, g.rx_depth):
            raise ValueError("surface heave may not cross the terminals")

    @property
    def sample_period(self) -> float:
        return 1.0 / self.sample_rate


@dataclass
class GroundTruth:
    """Per-path emission-time warp alpha (seconds) and its time derivative."""

    alpha: np.ndarray    # shape (num_paths, n_samples)
    doppler: np.ndarray  # shape (num_paths, n_samples)


def _range_and_rate(scene: ChannelScene, t: np.ndarray):
    m = scene.motion
    w = 2.0 * np.pi * m.rx_osc_freq
    phase = w * t + m.rx_osc_phase
    x = scene.geometry.horizontal_range + m.rx_osc_amp * np.sin(phase)
    x_dot = m.rx_osc_amp * w * np.cos(phase)
    return x, x_dot


def _surface_and_rate(scene: ChannelScene, t: np.ndarray):
    m = scene.motion
    w = 2.0 * np.pi * m.surface_freq
    phase = w * t + m.surface_phase
    eta = m.surface_amp * np.sin(phase)
    eta_dot = m.surface_amp * w * np.cos(phase)
    return eta, eta_dot


def _length_and_rate(scene: ChannelScene, path: str, t: np.ndarray):
    """Path length L(t) in meters and dL/dt in m/s, both analytic."""
    g = scene.geometry
    x, x_dot = _range_and_rate(scene, t)
    if path == "direct":
        v = g.tx_depth - g.rx_depth
        length = np.hypot(x, v)
        rate = x * x_dot / length
    elif path == "surface":
        eta, eta_dot = _surface_and_rate(scene, t)
        v = g.tx_depth + g.rx_depth + 2.0 * eta
        length = np.hypot(x, v)
        rate = (x * x_dot + v * 2.0 * eta_dot) / length
    elif path == "bottom":
        v = 2.0 * g.bottom_depth - g.tx_depth - g.rx_depth
        length = np.hypot(x, v)
        rate = x * x_dot / length
    else:
        raise ValueError("unknown path %r" % path)
    return length, rate


def path_length(scene: ChannelScene, path: str, t: np.ndarray) -> np.ndarray:
    """Propagation path lengths in meters at a 1-D array of times."""
    length, _ = _length_and_rate(scene, path, t)
    return length


def synthesize(scene: ChannelScene, sig: TransmitSignal, n_samples: int,
               noise_seed: int) -> tuple[np.ndarray, GroundTruth]:
    """Received samples r[n] = sum_l h_l s(alpha_l(n)) + noise, plus truth."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = np.arange(n_samples)
    t = n * scene.sample_period
    alpha = np.empty((len(PATHS), n_samples))
    doppler = np.empty((len(PATHS), n_samples))
    r = np.zeros(n_samples)
    for i, path in enumerate(PATHS):
        length, rate = _length_and_rate(scene, path, t)
        alpha[i] = t - length / scene.geometry.sound_speed
        doppler[i] = 1.0 - rate / scene.geometry.sound_speed
        if scene.gains[i] != 0.0:
            r += scene.gains[i] * sig.eval_passband(alpha[i])
    rng = np.random.default_rng(noise_seed)
    if scene.noise_std > 0.0:
        r = r + rng.normal(0.0, scene.noise_std, size=n_samples)
    return r, GroundTruth(alpha=alpha, doppler=doppler)
