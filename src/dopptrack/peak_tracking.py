"""Matched-filter peak-tracking baseline for multipath delay estimation.

Each iteration cross-correlates the received signal against a short segment
of the known transmitted signal, follows for every path the correlation
local maximum nearest the previously accepted delay, and refines the peak
location to subsample precision with a parabola through the maximum and its
two neighbors.
"""

from __future__ import annotations

import numpy as np

from .signal_model import TransmitSignal


def crosscorr(received: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Sliding inner products of template against received, lag in samples."""
    if received.size < template.size:
        raise ValueError("window shorter than template")
    return np.correlate(received, template, mode="valid")


def subsample_interp(y_minus: float, y_0: float, y_plus: float) -> float:
    """Vertex offset of the parabola through three points around a maximum."""
    denom = 2.0 * (y_minus - 2.0 * y_0 + y_plus)
    if denom == 0.0:
        return 0.0
    off = (y_minus - y_plus) / denom
    return float(np.clip(off, -0.5, 0.5))


def _local_maxima(corr: np.ndarray) -> np.ndarray:
    """Indices of discrete local maxima (plateaus do not count)."""
    c0 = corr[1:-1]
    ge = (c0 >= corr[:-2]) & (c0 >= corr[2:])
    gt = (c0 > corr[:-2]) | (c0 > corr[2:])
    return np.flatnonzero(ge & gt) + 1


def track_step(prev_delays: np.ndarray, corr: np.ndarray,
               sample_period: float,
               search_halfwidth: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance the per-path delay track over one correlation output.

    corr is indexed by lag in samples (lag * sample_period = delay). Returns
    (delays, flags): paths with no local maximum within search_halfwidth
    samples of their previous delay keep it and get their flag raised.
    """
    if corr.size == 0:
        raise ValueError("empty correlation")
    maxima = _local_maxima(corr)
    out = prev_delays.copy()
    flags = np.zeros(out.size, dtype=bool)
    for p in range(out.size):
        prev_lag = prev_delays[p] / sample_period
        if maxima.size:
            dist = np.abs(maxima - prev_lag)
            near = maxima[dist <= search_halfwidth]
        else:
            near = maxima
        if near.size == 0:
            flags[p] = True
            continue
        i = int(near[np.argmin(np.abs(near - prev_lag))])
        off = subsample_interp(corr[i - 1], corr[i], corr[i + 1])
        out[p] = (i + off) * sample_period
    return out, flags


class PeakTracker:
    """Runs the baseline over a full received stream.

    At iteration n the template is the template_len-long stretch of the
    transmitted signal ending at sample n, correlated against the received
    samples from n - template up to n + max_lag, so path delays appear
    directly as correlation lags. max_lag covers twice the longest initial
    delay plus four search half-widths.
    """

    def __init__(self, sig: TransmitSignal, initial_delays, sample_rate: float,
                 template_len: float = 3e-3, search_halfwidth: int = 20,
                 hop: int = 10):
        self.sig = sig
        self.T = 1.0 / sample_rate
        self._initial_delays = np.asarray(initial_delays, dtype=float).copy()
        if template_len <= 0.0:
            raise ValueError("template_len must be positive")
        if np.any(self._initial_delays < 0.0):
            raise ValueError("delays must be non-negative")
        if search_halfwidth < 1:
            raise ValueError("search_halfwidth must be >= 1")
        self._search_halfwidth = search_halfwidth
        self.hop = int(hop)
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        self.template_samples = int(round(template_len * sample_rate))
        max_delay = 2.0 * float(np.max(self._initial_delays))
        self.max_lag = int(np.ceil(max_delay * sample_rate)) \
            + 4 * search_halfwidth

    def run(self, received: np.ndarray):
        """Track delays over the stream from the initial delays.

        Returns (n_grid, delays, flags): iteration sample indices, per-path
        delays in seconds with shape (num_paths, len(n_grid)), and the
        no-peak-found flags with the same shape.
        """
        K = self.template_samples
        first = K
        last = received.size - 1 - self.max_lag
        if last < first:
            raise ValueError("stream too short for template and lag range")
        n_grid = np.arange(first, last + 1, self.hop)
        tx_times = np.arange(received.size) * self.T
        tx = self.sig.eval_passband(tx_times)
        prev = self._initial_delays
        delays = np.empty((prev.size, n_grid.size))
        flags = np.zeros((prev.size, n_grid.size), dtype=bool)
        for j, n in enumerate(n_grid):
            template = tx[n - K + 1:n + 1]
            window = received[n - K + 1:n + 1 + self.max_lag]
            corr = crosscorr(window, template)
            prev, flags[:, j] = track_step(prev, corr, self.T,
                                           self._search_halfwidth)
            delays[:, j] = prev
        return n_grid, delays, flags
