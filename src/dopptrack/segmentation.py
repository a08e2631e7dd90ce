"""Online segmentation machinery.

The tracker keeps a bounded bank of candidate segment starts, each carrying
a live RLS fit (its bare factor) of "what if the current segment had
started there". The bank is a set of fixed-capacity column arrays whose
rows [:filled] are the live candidates, compact and in admission order;
callers update slices of it in place. Every step the prefix cost
E(n) = min over candidates of (candidate lse + penalty + E(candidate start))
is an argmin over the live rows; a new-segment event is declared by the
caller when the winning start jumps far enough; the Bellman step records
the winning row. The bank owns its memory policy and its row layout: it is
sized from keep_best and keep_recent, and evict_if_full, a no-op until
keep_best + keep_recent rows are live, is an argmax of lse over the rows
outside the keep_recent most recent ones and the anchor, the caller's
open-segment row, which the bank moves when eviction shifts rows.

Cost accounting: a candidate admitted while processing sample n gets start
n-1 and absorbs sample n onward, so candidate (a, n) charges samples a+1..n
exactly once. With unlimited memory the recursion therefore reproduces the
exact batch dynamic program over all segmentations, which the tests keep as
their oracle (tests/oracles.py).
"""

from __future__ import annotations

import numpy as np

from . import rls


class SegmentationState:
    """Fixed-capacity candidate bank plus Bellman bookkeeping for one stream.

    It keeps keep_best small-lse and keep_recent newest candidates in
    keep_best + keep_recent + 1 rows. The spare row matters with one of each
    kept: eviction finds nothing to drop while the anchor is the older row,
    and the newcomer is admitted all the same.

    Row i < filled of each column is one live candidate. Rows stay in
    admission order, and each admission starts one sample later than the
    last, so row order is also start order:

        start    (capacity,)               first sample before the segment
        e_admit  (capacity,)               E(start), frozen at admission
        lse      (capacity,)               lse of the live fit
        factor   (capacity, dim+1, dim+1)  RLS factor of the live fit
        d_ref    (capacity, dim)           caller's frozen linearization
        tau      (capacity, dim)           reference, set at admission

    anchor is the caller's open-segment row, which eviction never drops and
    keeps pointing at the same candidate, or None when no row is protected.
    best_row is the winning row of the last Bellman step; eviction does not
    update it.
    """

    def __init__(self, keep_best: int, keep_recent: int, dim: int,
                 ridge: float):
        if keep_best < 1 or keep_recent < 1:
            raise ValueError("memory sizes must be >= 1")
        self.keep_best = keep_best
        self.keep_recent = keep_recent
        self.capacity = capacity = keep_best + keep_recent + 1
        self.filled = 0
        self.start = np.zeros(capacity, dtype=np.int64)
        self.e_admit = np.zeros(capacity)
        self.lse = np.zeros(capacity)
        self.factor = np.zeros((capacity, dim + 1, dim + 1))
        self.d_ref = np.zeros((capacity, dim))
        self.tau = np.zeros((capacity, dim))
        self._fresh_factor = rls.init(dim, ridge)
        self.anchor: int | None = None
        self.best_row = 0
        self.last_E = 0.0          # E(n-1), the settled previous prefix cost
        self.best_start = 0
        self.prev_best_start = 0


def admit_hypothesis(state: SegmentationState, n: int, d_ref, tau) -> int:
    """Append a fresh fit starting at n-1 as the newest row; returns the row.

    E(n-1) is frozen as its prefix cost; d_ref and tau fill its reference
    columns.
    """
    k = state.filled
    if k == state.capacity:
        raise ValueError("candidate bank is full")
    if k and state.start[k - 1] >= n - 1:
        raise ValueError("candidate starts must increase")
    state.start[k] = n - 1
    state.e_admit[k] = state.last_E
    state.lse[k] = 0.0
    state.factor[k] = state._fresh_factor
    state.d_ref[k] = d_ref
    state.tau[k] = tau
    state.filled = k + 1
    return k


def evict_if_full(state: SegmentationState) -> int | None:
    """Discard the largest-lse candidate outside the keep_recent most recent.

    No-op unless keep_best + keep_recent candidates are live. The anchor row
    is never discarded; if that empties the pool, the protection window
    shrinks to the single most recent candidate. Among equal lse the oldest
    goes. Later rows move up by one, the anchor with them. Returns the
    discarded start, if any.
    """
    k = state.filled
    if k < state.keep_best + state.keep_recent:
        return None
    for n_keep in (state.keep_recent, 1):
        pool = np.arange(k - n_keep)
        pool = pool[pool != state.anchor]
        if pool.size:
            break
    else:
        return None
    row = int(pool[state.lse[pool].argmax()])
    victim = int(state.start[row])
    for column in (state.start, state.e_admit, state.lse, state.factor,
                   state.d_ref, state.tau):
        column[row:k - 1] = column[row + 1:k]
    state.filled = k - 1
    if state.anchor is not None and row < state.anchor:
        state.anchor -= 1
    return victim


def bellman_step(state: SegmentationState, penalty: float) -> tuple[float, int]:
    """Memory-restricted prefix-cost minimization over the live candidates.

    Stores and returns (E(n), best start) and stores the best row; ties
    break toward the earliest start, the first row. Also shifts the previous
    winner into prev_best_start so the caller can apply its jump-based
    new-segment rule.
    """
    k = state.filled
    if k == 0:
        raise ValueError("no live hypotheses")
    costs = state.lse[:k] + penalty + state.e_admit[:k]
    state.best_row = row = int(costs.argmin())
    state.prev_best_start = state.best_start
    state.best_start = int(state.start[row])
    state.last_E = float(costs[row])
    return state.last_E, state.best_start

