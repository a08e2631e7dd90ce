"""Three-ray shallow-water channel simulator.

Direct, surface-reflected (image across the instantaneously displaced flat
surface) and bottom-reflected arrivals of a known waveform, with a horizontally
oscillating receiver and a sinusoidally heaving surface. synthesize produces
received samples plus the ground-truth emission-time warp and its derivative
for every path, for evaluating trackers. path_warp is the one place that
computes a path's warp and Doppler; synthesize and the harness's noise-level
probe both call it. path_lengths gives every path's length at once, for the
harness's bound on the longest delay. Both take each path's vertical extent
from _vertical_extent, the one copy of the image-method geometry.

Delays use the quasi-static convention: geometry is frozen at reception time,
alpha(n T) = n T - L(n T) / c. At the sub-m/s speeds simulated here the
difference from the implicit emission-time solution is O(v L / c^2) ~ 1e-9 s,
far below a sample interval.
"""

from __future__ import annotations

import math
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
        if not 0.0 < self.tx_depth < self.bottom_depth < math.inf:
            raise ValueError("need 0 < tx_depth < bottom_depth < inf")
        if not (0.0 < self.rx_depth < self.bottom_depth):
            raise ValueError("need 0 < rx_depth < bottom_depth")
        if not 0.0 < self.horizontal_range < math.inf:
            raise ValueError("horizontal_range must be positive and finite")
        if not 0.0 < self.sound_speed < math.inf:
            raise ValueError("sound_speed must be positive and finite")


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
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError("motion settings must be finite")
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
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be >= 0 and finite")
        if not 0.0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be positive and finite")
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


def _sinusoid(freq: float, amp: float, phase: float, t: np.ndarray,
              rate: bool = True):
    """amp sin(2 pi freq t + phase) and its rate of change (None unless
    rate)."""
    w = 2.0 * np.pi * freq
    arg = w * t + phase
    return amp * np.sin(arg), amp * w * np.cos(arg) if rate else None


def _vertical_extent(g: Geometry, path: str):
    """(depth, heave): the path's vertical extent is v = depth + heave * eta
    for the surface displacement eta. It is the depth difference, the image
    across the heaving surface, or the image across the bottom."""
    if path == "direct":
        return g.tx_depth - g.rx_depth, 0.0
    if path == "surface":
        return g.tx_depth + g.rx_depth, 2.0
    if path == "bottom":
        return 2.0 * g.bottom_depth - g.tx_depth - g.rx_depth, 0.0
    raise ValueError("unknown path %r" % path)


def path_lengths(geometry: Geometry, motion: MotionSpec,
                 t: np.ndarray) -> np.ndarray:
    """Propagation path lengths in meters, shape (len(PATHS), t.size), at a
    1-D array of times; row i equals the length path_warp uses for PATHS[i]."""
    m = motion
    sway, _ = _sinusoid(m.rx_osc_freq, m.rx_osc_amp, m.rx_osc_phase, t,
                        rate=False)
    eta, _ = _sinusoid(m.surface_freq, m.surface_amp, m.surface_phase, t,
                       rate=False)
    v = np.empty((len(PATHS), t.size))
    for row, path in zip(v, PATHS):
        depth, heave = _vertical_extent(geometry, path)
        row[:] = depth + heave * eta if heave else depth
    return np.hypot(geometry.horizontal_range + sway, v)


def path_warp(geometry: Geometry, motion: MotionSpec, path: str,
              t: np.ndarray):
    """Emission-time warp alpha = t - L/c in seconds and Doppler factor
    d = 1 - (dL/dt)/c of one path at a 1-D array of reception times.

    L = hypot(x, v) for the swaying horizontal range x and the path's
    vertical extent v; dL/dt is analytic.
    """
    g, m = geometry, motion
    depth, heave = _vertical_extent(g, path)
    sway, x_dot = _sinusoid(m.rx_osc_freq, m.rx_osc_amp, m.rx_osc_phase, t)
    x = g.horizontal_range + sway
    if heave:
        eta, eta_dot = _sinusoid(m.surface_freq, m.surface_amp,
                                 m.surface_phase, t)
        v, v_dot = depth + heave * eta, heave * eta_dot
    else:
        v, v_dot = depth, 0.0
    length = np.hypot(x, v)
    c = g.sound_speed
    return t - length / c, 1.0 - (x * x_dot + v * v_dot) / length / c


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
        alpha[i], doppler[i] = path_warp(scene.geometry, scene.motion,
                                         path, t)
        if scene.gains[i] != 0.0:
            r += scene.gains[i] * sig.eval_passband(alpha[i])
    rng = np.random.default_rng(noise_seed)
    if scene.noise_std > 0.0:
        r = r + rng.normal(0.0, scene.noise_std, size=n_samples)
    return r, GroundTruth(alpha=alpha, doppler=doppler)
