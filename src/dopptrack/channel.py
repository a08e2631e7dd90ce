"""Three-ray shallow-water channel simulator.

Direct, surface-reflected (image across the instantaneously displaced flat
surface) and bottom-reflected arrivals of a known waveform, with a horizontally
oscillating receiver and a sinusoidally heaving surface. synthesize produces
received samples plus the ground-truth emission-time warp and its derivative
for every path, for evaluating trackers, and owns the noise level: a scene
gives noise_std, or snr_db against the clean direct path, which synthesize
measures as it adds that path. path_warp is the one place that computes the
paths' warps and Doppler factors; path_lengths gives the same lengths without
their rates, for the harness's bound on the longest delay. Both evaluate the
receiver sway and the surface heave once for all paths, in _extents, the one
copy of the image-method geometry.

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
    """Full scene: geometry, motion, per-path gains, noise and sampling.

    The noise level is noise_std when it is set; when it is None, synthesize
    sets it from snr_db, the direct path's power over the noise's in dB."""

    geometry: Geometry
    motion: MotionSpec
    gains: tuple[float, float, float]
    noise_std: float | None
    sample_rate: float
    snr_db: float | None = None

    def __post_init__(self):
        if len(self.gains) != len(PATHS):
            raise ValueError("need exactly %d path gains" % len(PATHS))
        if self.noise_std is None and self.snr_db is None:
            raise ValueError("need noise_std or snr_db")
        if self.noise_std is not None and not 0.0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be >= 0 and finite")
        # a power ratio of 1e+-30, far past any physical SNR, so that the
        # level synthesize derives stays within float range
        if self.snr_db is not None and not -300.0 <= self.snr_db <= 300.0:
            raise ValueError("snr_db must lie within +-300 dB, got %r"
                             % self.snr_db)
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
              rate: bool):
    """amp sin(2 pi freq t + phase) and its rate of change (None unless
    rate)."""
    w = 2.0 * np.pi * freq
    arg = w * t + phase
    return amp * np.sin(arg), amp * w * np.cos(arg) if rate else None


def _extents(g: Geometry, m: MotionSpec, t: np.ndarray, rate: bool):
    """(x, x_dot, v, v_dot) at a 1-D array of times: the swaying horizontal
    range x and every path's vertical extent v = depth + heave * eta for the
    surface displacement eta, shape (len(PATHS), t.size), with their rates
    (None unless rate). Row by row, v is the depth difference, the image
    across the heaving surface and the image across the bottom; the zero
    heave of the other rows adds a signed zero, which moves no bit of a
    length or a Doppler factor. Sway and heave are evaluated once."""
    sway, x_dot = _sinusoid(m.rx_osc_freq, m.rx_osc_amp, m.rx_osc_phase, t,
                            rate)
    eta, eta_dot = _sinusoid(m.surface_freq, m.surface_amp, m.surface_phase,
                             t, rate)
    depth = np.array([[g.tx_depth - g.rx_depth], [g.tx_depth + g.rx_depth],
                      [2.0 * g.bottom_depth - g.tx_depth - g.rx_depth]])
    heave = np.array([[0.0], [2.0], [0.0]])
    return (g.horizontal_range + sway, x_dot, depth + heave * eta,
            heave * eta_dot if rate else None)


def path_lengths(geometry: Geometry, motion: MotionSpec,
                 t: np.ndarray) -> np.ndarray:
    """Propagation path lengths in meters, shape (len(PATHS), t.size), at a
    1-D array of times: the lengths path_warp uses, without their rates."""
    x, _, v, _ = _extents(geometry, motion, t, rate=False)
    return np.hypot(x, v)


def path_warp(geometry: Geometry, motion: MotionSpec, t: np.ndarray):
    """Emission-time warps alpha = t - L/c in seconds and Doppler factors
    d = 1 - (dL/dt)/c of every path, each shape (len(PATHS), t.size), at a
    1-D array of reception times.

    L = hypot(x, v) for the swaying horizontal range x and each path's
    vertical extent v; dL/dt is analytic.
    """
    x, x_dot, v, v_dot = _extents(geometry, motion, t, rate=True)
    length = np.hypot(x, v)
    c = geometry.sound_speed
    # v v' + x x' leaves its temporary on the left, which numpy divides in
    # place (IEEE addition commutes, so the sum keeps its bits); alpha is
    # then written over the lengths
    doppler = 1.0 - (v * v_dot + x * x_dot) / length / c
    return np.subtract(t, length / c, out=length), doppler


def synthesize(scene: ChannelScene, sig: TransmitSignal, n_samples: int,
               noise_seed: int) -> tuple[np.ndarray, GroundTruth, float]:
    """Received samples r[n] = sum_l h_l s(alpha_l(n)) + noise, the truth,
    and the noise level drawn: the scene's noise_std or, when that is None,
    the level snr_db below the power of the clean direct path h_0 s(alpha_0),
    measured after that path is added and before any other. ValueError when
    that path carries no power, or when the stream is not finite: a gain,
    amplitude or noise level so large that a sample overflows, which
    includes an SNR-derived level that overflows and draws infinite noise."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    t = np.arange(n_samples) * scene.sample_period
    alpha, doppler = path_warp(scene.geometry, scene.motion, t)
    r = np.zeros(n_samples)
    noise_std = scene.noise_std
    # an overflow here is rejected once, below, by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for i, gain in enumerate(scene.gains):
            if gain != 0.0:
                r += gain * sig.eval_passband(alpha[i])
            if i == 0 and noise_std is None:
                # r is 0.0 + h_0 s(alpha_0): the clean direct path, up to
                # the sign of a zero, which its square drops
                power = float(np.mean(r * r))
                if power == 0.0:
                    raise ValueError("direct path carries no signal power")
                noise_std = math.sqrt(power / 10.0 ** (scene.snr_db / 10.0))
        rng = np.random.default_rng(noise_seed)
        if noise_std > 0.0:
            r = r + rng.normal(0.0, noise_std, size=n_samples)
    if not np.isfinite(r).all():
        raise ValueError("received stream is not finite")
    return r, GroundTruth(alpha=alpha, doppler=doppler), noise_std
