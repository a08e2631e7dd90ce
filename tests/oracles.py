"""Exact segmented least squares (SLS), the reference the online candidate
bank is checked against, with the line fitter and brute force it is
checked with. Nothing in the package uses them.

The line model is checked two ways: in batch, line_fitter gives batch_sls
each segment's error; online, line_rows stands in for tracker.rows_batch,
so the shipped DopplerTracker fits the same lines sample by sample
(criteria 5 and 5b).

The uniform-Doppler model needs no oracle: with one Doppler factor for all
paths, each path's warp stays its initial offset from the direct path's, so
the model is the shipped tracker on one path whose waveform is the arrivals
summed at those offsets (criterion 11).
"""

import itertools

import numpy as np

from dopptrack import rls


def batch_sls(observations, penalty: float, segment_fitter):
    """Exact O(N^2)-pair dynamic program over all segmentations.

    segment_fitter(i, j) must return the least-squares error of one segment
    covering observations i..j inclusive. Returns the optimal list of (i, j)
    segments (disjoint, consecutive, covering 0..N-1) and the prefix costs:
    prefix[j] is the optimal cost of observations 0..j-1, the number of
    segments times penalty plus their fitted errors, so prefix[-1] is the
    total.
    """
    N = len(observations)
    if N < 1:
        raise ValueError("need at least 1 observation")
    prefix = np.zeros(N + 1)
    back = np.zeros(N + 1, dtype=int)
    for j in range(1, N + 1):
        costs = [prefix[i] + penalty + segment_fitter(i, j - 1)
                 for i in range(j)]
        back[j] = int(np.argmin(costs))
        prefix[j] = costs[back[j]]
    segments = []
    j = N
    while j > 0:
        segments.append((int(back[j]), j - 1))
        j = back[j]
    return segments[::-1], prefix


def line_fitter(y, ridge: float = 0.0):
    """fitter(i, j): the error of the ridge-regularized least-squares line
    through y[i..j] at abscissae 1..j-i+1, which is the lse of the online
    bank's line fit over those samples when ridge is its RLS ridge."""
    y = np.asarray(y, dtype=float)

    def fitter(i, j):
        k = np.arange(1.0, j - i + 2)
        rows = np.column_stack([np.ones_like(k), k])
        return rls.solve_direct(rows, y[i:j + 1], ridge)[1]
    return fitter


def line_rows(sig, d_ref, tau, lever, epsilon, gains):
    """Stand-in for tracker.rows_batch: every candidate gets the one line
    row (1, lever) with zero prediction and zero offset, so its target is
    the received sample itself. With sample_period 1.0, lever is n - start,
    the abscissa line_fitter gives sample n of a segment opened at start."""
    rows = np.ones((lever.size, 1, 2))
    rows[:, 0, 1] = lever
    zeros = np.zeros((lever.size, 1))
    return rows, zeros, zeros


def enumerate_best(observations, penalty: float, segment_fitter) -> float:
    """Brute-force optimal cost over all 2^(N-1) break placements."""
    N = len(observations)
    best = np.inf
    for mask in itertools.product([0, 1], repeat=N - 1):
        bounds = [0] + [i + 1 for i, m in enumerate(mask) if m] + [N]
        cost = sum(penalty + segment_fitter(a, b - 1)
                   for a, b in zip(bounds[:-1], bounds[1:]))
        best = min(best, cost)
    return best
