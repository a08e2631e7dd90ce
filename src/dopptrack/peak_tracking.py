"""Matched-filter peak-tracking baseline for multipath delay estimation.

Each iteration cross-correlates the received signal against a short segment
of the known transmitted signal, follows for every path the correlation
local maximum nearest the previously accepted delay, and refines the peak
location to subsample precision with a parabola through the maximum and its
two neighbors. Only the lags each path's search reads are correlated, one
short window of lags per path: each lag is the same dot product that a
correlation over all lags computes, so the answers keep every bit.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def crosscorr(received: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Sliding inner products of template against received, lag in samples."""
    if received.size < template.size:
        raise ValueError("window shorter than template")
    return np.correlate(received, template, mode="valid")


def subsample_interp(y_minus: float, y_0: float, y_plus: float) -> float:
    """Vertex offset of the parabola through three points around a maximum;
    0 where the three points lie on a line."""
    denom = 2.0 * (y_minus - 2.0 * y_0 + y_plus)
    if denom == 0.0:
        return 0.0
    return min(max((y_minus - y_plus) / denom, -0.5), 0.5)


def track_step(prev_delays: np.ndarray, window: np.ndarray,
               template: np.ndarray, sample_period: float,
               search_halfwidth: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance the per-path delay track over one received window.

    Lag i of the window is the inner product of template with
    window[i:i + template.size], at delay i * sample_period; the lags run
    from 0 to max_lag = window.size - template.size. Each path moves to the
    local maximum over lags nearest its previous delay p (in samples),
    within search_halfwidth samples (a tie goes to the lower lag), refined
    by a parabola through the maximum and its two neighbors. Returns
    (delays, flags): paths with no such maximum keep their delay and get
    their flag raised.

    Only the lags the search reads are correlated: per path, lags
    ceil(p) - hw - 2 .. floor(p) + hw + 2 (hw = search_halfwidth) clipped to
    0 .. max_lag, that is the candidates, their neighbors and one lag of
    margin for a distance that rounds onto hw. A path whose lags number
    fewer than 3 keeps its delay and is flagged. np.correlate computes each
    lag as one dot product of the template with the same received samples
    whether it is asked for all lags or a few, and the search does the same
    operations in the same order, so delays and flags are bit-identical to
    a search of the full correlation on any BLAS core.
    """
    K = template.size
    max_lag = window.size - K
    if max_lag < 0:
        raise ValueError("window shorter than template")
    out = prev_delays.copy()
    flags = np.ones(prev_delays.size, dtype=bool)
    for k, prev in enumerate(prev_delays.tolist()):
        p = prev / sample_period
        if not math.isfinite(p):   # only a NaN delay from a non-finite peak
            continue
        lo = max(0, math.ceil(p) - search_halfwidth - 2)
        hi = min(max_lag, math.floor(p) + search_halfwidth + 2)
        if hi - lo < 2:
            continue
        c = crosscorr(window[lo:hi + K], template).tolist()
        # visit lags in order of distance from p, the lower lag first on a
        # tie, so the first local maximum met is the one to follow
        left = min(math.floor(p), hi - 1)
        right = max(math.floor(p) + 1, lo + 1)
        while True:
            d_left = abs(left - p) if left > lo else math.inf
            d_right = abs(right - p) if right < hi else math.inf
            if d_left <= d_right:
                i, dist = left, d_left
                left -= 1
            else:
                i, dist = right, d_right
                right += 1
            if dist > search_halfwidth:
                break
            y_minus, y_0, y_plus = c[i - lo - 1], c[i - lo], c[i - lo + 1]
            if y_0 >= y_minus and y_0 >= y_plus \
                    and (y_0 > y_minus or y_0 > y_plus):
                off = subsample_interp(y_minus, y_0, y_plus)
                out[k] = (i + off) * sample_period
                flags[k] = False
                break
    return out, flags


class PeakTracker:
    """The baseline's settings, and its run over one sampled stream.

    Built from settings alone: the template length rounds to at least one
    sample and is finite, and hop and search_halfwidth are integers >= 1
    (numpy integers count), stored as given. At iteration n the template is
    the template_len-long stretch of the transmitted samples ending at
    sample n, correlated against the received samples from n - template up
    to n + max_lag, so path delays appear directly as correlation lags.
    max_lag covers twice the longest initial delay plus four search
    half-widths; `track_step` correlates only the 2 * search_halfwidth + 5
    or fewer lags around each path's delay.
    """

    def __init__(self, sample_rate: float, template_len: float,
                 search_halfwidth: int, hop: int):
        # x > 0.5 is exactly round(x) >= 1
        if not 0.5 < template_len * sample_rate < math.inf:
            raise ValueError("template_len of %r s is shorter than one sample "
                             "or not finite" % template_len)
        for name, count in (("search_halfwidth", search_halfwidth),
                            ("hop", hop)):
            if not (isinstance(count, numbers.Integral) and count >= 1):
                raise ValueError("%s must be an integer >= 1" % name)
        self.sample_rate = sample_rate
        self.search_halfwidth = search_halfwidth
        self.hop = hop
        self.template_samples = int(round(template_len * sample_rate))

    def run(self, received: np.ndarray, transmitted: np.ndarray,
            initial_delays):
        """Track delays over a stream: received and transmitted samples on
        one grid, and the per-path delays in seconds at the first iteration,
        sample template_samples.

        Returns (n_grid, delays, flags): iteration sample indices, per-path
        delays in seconds with shape (num_paths, len(n_grid)), and the
        no-peak-found flags with the same shape. ValueError when the two
        streams differ in length, a delay is negative or not finite, or the
        stream is no longer than the template plus the lag range.
        """
        if received.size != transmitted.size:
            raise ValueError("received stream of %d samples, transmitted of %d"
                             % (received.size, transmitted.size))
        prev = np.asarray(initial_delays, dtype=float)
        if not np.all(np.isfinite(prev) & (prev >= 0.0)):
            raise ValueError("delays must be finite and non-negative")
        max_lag = int(np.ceil(2.0 * float(np.max(prev)) * self.sample_rate)) \
            + 4 * self.search_halfwidth
        K = self.template_samples
        last = received.size - 1 - max_lag
        if last < K:
            raise ValueError("stream of %d samples too short for the template "
                             "of %d and lag range of %d samples"
                             % (received.size, K, max_lag))
        n_grid = np.arange(K, last + 1, self.hop)
        period = 1.0 / self.sample_rate
        delays = np.empty((prev.size, n_grid.size))
        flags = np.zeros((prev.size, n_grid.size), dtype=bool)
        for j, n in enumerate(n_grid):
            prev, flags[:, j] = track_step(
                prev, received[n - K + 1:n + 1 + max_lag],
                transmitted[n - K + 1:n + 1], period, self.search_halfwidth)
            delays[:, j] = prev
        return n_grid, delays, flags
