"""Matched-filter peak-tracking baseline for multipath delay estimation.

Each path is tracked on its own, over the whole iteration grid: at each
iteration the received signal is cross-correlated against a short segment
of the known transmitted signal, the path follows the correlation local
maximum nearest its previously accepted delay, and the peak location is
refined to subsample precision with a parabola through the maximum and its
two neighbors. Only the lags the path's search reads are correlated, one
short window of lags: each lag is the same dot product that a correlation
over all lags computes, so the answers keep every bit. The paths are
independent, so they are fanned out over the usable CPUs (`fanout`).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import fanout

# The fewest path-iterations a share of the baseline holds: fork plus reap
# took ~3 ms on a 2-vCPU VM, the time of ~330 iterations at ~9 us each.
_SHARE_ITERATIONS = 330


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


def track_step(prev: float, window: np.ndarray, template: np.ndarray,
               sample_period: float, search_halfwidth: int
               ) -> tuple[float, bool]:
    """Advance one path's delay track over one received window.

    Lag i of the window is the inner product of template with
    window[i:i + template.size], at delay i * sample_period; the lags run
    from 0 to max_lag = window.size - template.size. The path moves from
    its previous delay prev, p = prev / sample_period samples, to the local
    maximum over lags nearest p within search_halfwidth samples (a tie goes
    to the lower lag), refined by a parabola through the maximum and its two
    neighbors. Returns (delay, flag): with no such maximum the path keeps
    prev and its flag is raised.

    Only the lags the search reads are correlated: lags
    ceil(p) - hw - 2 .. floor(p) + hw + 2 (hw = search_halfwidth) clipped to
    0 .. max_lag, that is the candidates, their neighbors and one lag of
    margin for a distance that rounds onto hw. Fewer than 3 such lags keep
    the delay and raise the flag. np.correlate computes each lag as one dot
    product of the template with the same received samples whether it is
    asked for all lags or a few, and the search does the same operations in
    the same order, so delay and flag are bit-identical to a search of the
    full correlation on any BLAS core.
    """
    K = template.size
    max_lag = window.size - K
    if max_lag < 0:
        raise ValueError("window shorter than template")
    p = prev / sample_period
    if not math.isfinite(p):   # only a NaN delay from a non-finite peak
        return prev, True
    lo = max(0, math.ceil(p) - search_halfwidth - 2)
    hi = min(max_lag, math.floor(p) + search_halfwidth + 2)
    if hi - lo < 2:
        return prev, True
    c = crosscorr(window[lo:hi + K], template).tolist()
    # visit lags in order of distance from p, the lower lag first on a tie,
    # so the first local maximum met is the one to follow
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
            return prev, True
        y_minus, y_0, y_plus = c[i - lo - 1], c[i - lo], c[i - lo + 1]
        if y_0 >= y_minus and y_0 >= y_plus \
                and (y_0 > y_minus or y_0 > y_plus):
            return (i + subsample_interp(y_minus, y_0, y_plus)) \
                * sample_period, False


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

        max_lag and n_grid follow from all initial delays; then each path is
        tracked over the whole grid in its own loop of `track_step` calls.
        fanout.split cuts the paths into contiguous shares of at least
        _SHARE_ITERATIONS path-iterations, one per usable CPU: this process
        tracks the first share while a forked child tracks each later one,
        each writing its paths' rows of delays and flags in place in shared
        memory (fanout.shared), so the bits do not depend on how many
        processes ran. Every child is reaped before this returns or raises;
        a child that fails raises OSError.
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
        delays = fanout.shared((prev.size, n_grid.size), float)
        flags = fanout.shared((prev.size, n_grid.size), bool)
        period = 1.0 / self.sample_rate
        hw = self.search_halfwidth
        grid = n_grid.tolist()

        def track(paths):
            for k in paths:
                delay, row, row_flags = float(prev[k]), [], []
                for n in grid:
                    delay, flag = track_step(
                        delay, received[n - K + 1:n + 1 + max_lag],
                        transmitted[n - K + 1:n + 1], period, hw)
                    row.append(delay)
                    row_flags.append(flag)
                delays[k], flags[k] = row, row_flags

        shares = fanout.split(range(prev.size), prev.size * n_grid.size,
                              _SHARE_ITERATIONS)
        fanout.fan_out(shares, track, "peak tracking")
        return n_grid, delays, flags
