"""Online segmentation machinery and its exact batch counterpart.

The online side maintains a bounded set of candidate segment starts, each
carrying a live RLS fit of "what if the current segment had started there".
Every step the prefix cost E(n) = min over candidates of
(candidate lse + penalty + E(candidate start)) is minimized; a new-segment
event is declared by the caller when the winning start jumps far enough.

Cost accounting: a candidate admitted while processing sample n gets start
n-1 and absorbs sample n onward, so candidate (a, n) charges samples a+1..n
exactly once. With unlimited memory the recursion therefore reproduces the
exact batch dynamic program implemented by batch_sls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rls import RlsState


@dataclass
class SegmentHypothesis:
    """One candidate segment start with its live fit state."""

    start: int
    rls: RlsState
    e_admit: float        # prefix cost E(start), frozen at admission
    admit_seq: int        # admission order, for recency protection
    payload: object = None

    @property
    def lse(self) -> float:
        return self.rls.lse


class SegmentationState:
    """Live candidate set plus Bellman bookkeeping for one stream."""

    def __init__(self):
        self.hypotheses: list[SegmentHypothesis] = []
        self.last_E = 0.0          # E(n-1), the settled previous prefix cost
        self.E_n = 0.0
        self.best_start = 0
        self.prev_best_start = 0
        self._admit_counter = 0

    @property
    def filled(self) -> int:
        return len(self.hypotheses)

    @property
    def e_values(self) -> dict[int, float]:
        """Admission-time prefix cost per live candidate start."""
        return {h.start: h.e_admit for h in self.hypotheses}

    def find(self, start: int) -> SegmentHypothesis | None:
        for h in self.hypotheses:
            if h.start == start:
                return h
        return None


def admit_hypothesis(state: SegmentationState, n: int, seed_rls: RlsState,
                     payload: object = None) -> SegmentHypothesis:
    """Append a candidate starting at n-1; E(n-1) is frozen as its prefix cost."""
    hyp = SegmentHypothesis(start=n - 1, rls=seed_rls, e_admit=state.last_E,
                            admit_seq=state._admit_counter, payload=payload)
    state._admit_counter += 1
    state.hypotheses.append(hyp)
    return hyp


def evict_if_full(state: SegmentationState, n_best: int, n_recent: int,
                  protect_start: int | None = None) -> SegmentHypothesis | None:
    """Discard the largest-lse candidate outside the n_recent most recent.

    No-op unless the memory is at capacity n_best + n_recent. A start given in
    protect_start (the tracker's open-segment anchor) is never discarded; if
    that empties the pool, the protection window shrinks to the single most
    recent candidate. Returns the discarded hypothesis, if any.
    """
    if state.filled < n_best + n_recent:
        return None
    by_recency = sorted(state.hypotheses, key=lambda h: h.admit_seq)
    recent = set(id(h) for h in by_recency[-n_recent:])
    pool = [h for h in state.hypotheses
            if id(h) not in recent and h.start != protect_start]
    if not pool:
        recent_one = set(id(h) for h in by_recency[-1:])
        pool = [h for h in state.hypotheses
                if id(h) not in recent_one and h.start != protect_start]
        if not pool:
            return None
    victim = max(pool, key=lambda h: h.lse)
    state.hypotheses.remove(victim)
    return victim


def bellman_step(state: SegmentationState, penalty: float) -> tuple[float, int]:
    """Memory-restricted prefix-cost minimization over the live candidates.

    Stores and returns (E(n), best start); ties break toward the earliest
    start. Also shifts the previous winner into prev_best_start so the caller
    can apply its jump-based new-segment rule.
    """
    if not state.hypotheses:
        raise ValueError("no live hypotheses")
    costs = np.array([h.lse + penalty + h.e_admit for h in state.hypotheses])
    starts = np.array([h.start for h in state.hypotheses])
    best_cost = costs.min()
    best_start = int(starts[costs == best_cost].min())
    state.prev_best_start = state.best_start
    state.best_start = best_start
    state.E_n = float(best_cost)
    state.last_E = state.E_n
    return state.E_n, best_start


def batch_sls(observations, penalty: float, segment_fitter) -> tuple[list[tuple[int, int]], float]:
    """Exact O(N^2)-pair dynamic program over all segmentations (test oracle).

    segment_fitter(a, b) must return the least-squares error of one segment
    covering observations a..b inclusive. Returns the optimal list of (a, b)
    segments (disjoint, consecutive, covering 0..N-1) and the total cost
    len(segments) * penalty + sum of fitted errors.
    """
    N = len(observations)
    if N < 2:
        raise ValueError("need at least 2 observations")
    prefix = np.full(N + 1, np.inf)
    prefix[0] = 0.0
    back = np.zeros(N + 1, dtype=int)
    for j in range(1, N + 1):
        best = np.inf
        best_i = 0
        for i in range(j):
            c = prefix[i] + penalty + segment_fitter(i, j - 1)
            if c < best:
                best = c
                best_i = i
        prefix[j] = best
        back[j] = best_i
    segments = []
    j = N
    while j > 0:
        i = back[j]
        segments.append((int(i), int(j - 1)))
        j = i
    segments.reverse()
    return segments, float(prefix[N])
