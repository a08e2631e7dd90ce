"""Exact segmented least squares (SLS), the reference the online candidate
bank is checked against, with the line fitter and brute force it is
checked with, and a tracker that fits one Doppler factor for all paths, the
uniform-Doppler model the per-path tracker is compared with. Nothing in the
package uses them.
"""

import itertools

import numpy as np

from dopptrack import rls
from dopptrack.segmentation import (SegmentationState, admit_hypothesis,
                                    bellman_step, evict_if_full)
from dopptrack.tracker import DOPPLER_BOUNDS, DopplerSegment, rows_batch


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


def uniform_doppler_run(sig, config, r) -> list:
    """The segmented tracker of a TrackerConfig over the stream r, with one
    Doppler factor shared by all paths; returns its DopplerSegments.

    Bank, penalty, jump rule, known start, admission and delay chaining are
    DopplerTracker's. Each candidate fits one correction to the shared
    Doppler: its one row is the sum over paths of the unperturbed per-path
    rows, so no perturbed rows are needed. The bank's tau column has the
    width of that one unknown, so the per-path emission times of each
    candidate start live in a parallel (capacity, L) array.
    """
    T, L = config.sample_period, config.num_paths
    gains = np.asarray(config.gains, dtype=float)
    bank = SegmentationState(config.keep_best, config.keep_recent, 1,
                             config.ridge)
    taus = np.zeros((bank.capacity, L))
    taus[0] = tau_cur = np.asarray(config.initial_tau, dtype=float)
    d_ref = 1.0
    bank.anchor = admit_hypothesis(bank, 1, d_ref, 0.0)
    segments = []

    def running_doppler():
        return float(bank.d_ref[bank.anchor, 0]
                     + rls.estimate(bank.factor[bank.anchor])[0])

    def close(b):
        a = int(bank.start[bank.anchor])
        d = float(np.clip(running_doppler(), *DOPPLER_BOUNDS))
        segments.append(DopplerSegment(a, b, np.full(L, d), tau_cur.copy(),
                                       float(bank.lse[bank.anchor])))
        return a, d

    for n in range(1, len(r)):
        k = bank.filled
        starts = bank.start[:k].copy()
        victim = evict_if_full(bank)
        if victim is not None:
            row = int(np.searchsorted(starts, victim))
            taus[row:k - 1] = taus[row + 1:k]
        if n > 1:
            a = int(bank.start[bank.anchor])
            row = admit_hypothesis(bank, n, d_ref, 0.0)
            taus[row] = tau_cur + running_doppler() * (n - 1 - a) * T
        k = bank.filled
        lever = (n - bank.start[:k]) * T
        rows, _, preds = rows_batch(sig, np.repeat(bank.d_ref[:k], L, axis=1),
                                    taus[:k], lever, config.perturbation,
                                    gains)
        bank.lse[:k] = rls.update_batch(bank.factor[:k],
                                        rows[:, :1].sum(axis=2, keepdims=True),
                                        r[n] - preds[:, :1])
        _, best = bellman_step(bank, config.penalty)
        if best - bank.prev_best_start >= config.detect_threshold \
                and best > bank.start[bank.anchor]:
            a, d_ref = close(best - 1)
            tau_cur = tau_cur + d_ref * (best - a) * T
            bank.anchor = bank.best_row
    close(len(r) - 1)
    return segments
