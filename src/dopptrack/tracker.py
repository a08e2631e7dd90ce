"""Streaming multipath Doppler tracker.

The per-path emission-time warp is modeled as piecewise linear in the sample
index: over a segment starting at a, path l maps sample n to the transmit
time d_l (n - a) T + tau_l. Candidate segment starts are rows of the
segmentation layer's array bank, which the tracker sizes from keep_best and
keep_recent and which decides itself when it is full. Each row fits, via RLS
on linearized rows, the small Doppler correction of its own segment against
the frozen reference Doppler vector and start time (d_ref, tau) stored with
it. Because the per-path gradient rows become collinear when the reference
Doppler components coincide, every sample contributes L+1 rows: one at the
reference and one at each singly-perturbed reference, which restores full
column rank.

Each sample is one batched pass over the live slice of the bank: the
regression rows of all candidates come from one signal evaluation at the
H (L+1) L model times, one QR updates all factors in place, and the Bellman
step is an argmin over the slice. A non-finite lse flags divergence at once
and halts the bank for the rest of the stream.

A new segment is declared when the prefix-cost-optimal start jumps forward
by at least detect_threshold samples. The incumbent fit is the anchor, the
candidate whose start is the open segment's start. The bank keeps its row:
eviction never drops it and moves it with the rows it shifts, and at
closure the tracker hands it the Bellman step's winning row, so the tracker
holds no row index itself. On closure, as at finalize, the open segment's
Doppler is fixed from the anchor and clamped to DOPPLER_BOUNDS; the
per-path delays are then propagated so the reconstructed warp chains
continuously across the boundary, and the winning candidate becomes the new
open segment.

One tracker instance consumes one strictly sample-ordered stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rls
from .segmentation import (SegmentationState, admit_hypothesis, bellman_step,
                           evict_if_full)
from .signal_model import TransmitSignal


# closing Doppler factors are clamped to this range; a clamp flags divergence
DOPPLER_BOUNDS = (0.5, 1.5)


class InvalidSampleError(ValueError):
    """A received sample the tracker cannot consume: it is not finite."""


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker tuning and known channel-side information.

    initial_tau holds, per path, the emission time of sample 0 (the known
    initial arrival expressed as a warp value: minus the initial path delay).
    """

    penalty: float                 # cost of opening one more segment
    detect_threshold: int          # min forward jump of the optimal start
    keep_best: int                 # retained small-lse candidates
    keep_recent: int               # eviction-protected recent candidates
    perturbation: float            # Doppler offset of the extra linearizations
    gains: tuple[float, ...]       # known per-path channel gains
    initial_tau: tuple[float, ...]
    sample_period: float
    ridge: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.penalty < math.inf:
            raise ValueError("penalty must be positive and finite")
        if self.detect_threshold < 1:
            raise ValueError("detect_threshold must be >= 1")
        if not 0.0 < self.perturbation < math.inf:
            raise ValueError("perturbation must be positive and finite")
        if not 0.0 < self.sample_period < math.inf:
            raise ValueError("sample_period must be positive and finite")
        if len(self.gains) != len(self.initial_tau):
            raise ValueError("gains and initial_tau must have equal length")
        if len(self.gains) < 1:
            raise ValueError("need at least one path")
        if not all(map(math.isfinite, (*self.gains, *self.initial_tau))):
            raise ValueError("gains and initial_tau must be finite")

    @property
    def num_paths(self) -> int:
        return len(self.gains)


@dataclass
class DopplerSegment:
    """One closed segment: samples a..b inclusive, per-path Doppler within
    DOPPLER_BOUNDS and delay."""

    a: int
    b: int
    doppler: np.ndarray   # (num_paths,)
    tau: np.ndarray       # (num_paths,) emission time of sample a
    lse: float

    def __post_init__(self):
        if self.b < self.a:
            raise ValueError("segment end before start")
        # written so that the NaN of a halted bank's fit passes
        lo, hi = DOPPLER_BOUNDS
        if np.any(self.doppler < lo) or np.any(self.doppler > hi):
            raise ValueError("Doppler factor outside DOPPLER_BOUNDS")


def rows_batch(sig: TransmitSignal, d_ref: np.ndarray, tau: np.ndarray,
               lever: np.ndarray, epsilon: float, gains: np.ndarray):
    """Linearized regression rows for many candidates at one sample.

    d_ref and tau have shape (H, L) and lever (H,), lever being (n - start) T.
    Returns (rows, target_offsets, predictions) with shapes (H, L+1, L),
    (H, L+1), (H, L+1): entry m=0 is the unperturbed linearization, entry
    m=l+1 perturbs reference Doppler component l by epsilon. The regression
    target for received value r is r - prediction + target_offset.
    """
    H, L = d_ref.shape
    times = np.empty((H, L + 1, L))
    times[:] = (d_ref * lever[:, None] + tau)[:, None]
    # entries (l+1, l) of each flattened (L+1, L) block lie L+1 apart from L
    times.reshape(H, -1)[:, L::L + 1] += (epsilon * lever)[:, None]
    s, sd = sig.eval_passband_with_derivative(times.reshape(-1))
    s = s.reshape(H, L + 1, L)
    sd = sd.reshape(H, L + 1, L)
    preds = (s * gains).sum(axis=2)
    rows = gains * lever[:, None, None] * sd
    offsets = np.zeros((H, L + 1))
    offsets[:, 1:] = epsilon * rows.reshape(H, -1)[:, L::L + 1]
    return rows, offsets, preds


def reconstruct_warp_array(segments: list[DopplerSegment], num_paths: int,
                           n_samples: int, T: float) -> np.ndarray:
    """Per-path reconstructed warp over 0..n_samples-1 (NaN where uncovered)."""
    out = np.full((num_paths, n_samples), np.nan)
    for seg in segments:
        lo, hi = seg.a, min(seg.b, n_samples - 1)
        if hi < lo:
            continue
        rel = (np.arange(lo, hi + 1) - seg.a) * T
        out[:, lo:hi + 1] = seg.doppler[:, None] * rel[None, :] \
            + seg.tau[:, None]
    return out


class DopplerTracker:
    """Drives the segmentation layer over one received-sample stream."""

    def __init__(self, sig: TransmitSignal, config: TrackerConfig):
        self.sig = sig
        self.config = config
        L = config.num_paths
        self._gains = np.asarray(config.gains, dtype=float)
        self._d_ref = np.ones(L)
        self._tau_cur = np.asarray(config.initial_tau, dtype=float).copy()
        self._seg = SegmentationState(config.keep_best, config.keep_recent,
                                      L, config.ridge)
        # the open segment's fit: the candidate at start 0
        self._seg.anchor = admit_hypothesis(self._seg, 1, self._d_ref,
                                            self._tau_cur)
        self._n = 0
        self.segments: list[DopplerSegment] = []
        self.diverged_at: int | None = None
        self._halted = False       # a live lse went non-finite
        self._finalized = False

    @property
    def segmentation(self) -> SegmentationState:
        return self._seg

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    @property
    def current_correction(self) -> np.ndarray:
        """Running Doppler-correction estimate of the open segment."""
        return rls.estimate(self._seg.factor[self._seg.anchor])

    def _open_start(self) -> int:
        """First sample of the open segment: the start of its anchor row."""
        return int(self._seg.start[self._seg.anchor])

    def _running_doppler(self) -> np.ndarray:
        return self._seg.d_ref[self._seg.anchor] + self.current_correction

    def _running_warp_at(self, m: int) -> np.ndarray:
        return self._tau_cur + self._running_doppler() \
            * (m - self._open_start()) * self.config.sample_period

    def _flag_divergence(self, n: int) -> None:
        if self.diverged_at is None:
            self.diverged_at = n

    def process_sample(self, r_n: float) -> DopplerSegment | None:
        """Consume the next received sample; returns a segment when one closes.

        A non-finite sample raises InvalidSampleError and is not consumed. A
        non-finite candidate lse flags divergence at this sample and halts the
        bank: later samples are still checked and counted but fit nothing, and
        finalize closes the open segment at the last of them.
        """
        if self._finalized:
            raise RuntimeError("tracker already finalized")
        if not math.isfinite(r_n):
            raise InvalidSampleError("non-finite sample at index %d"
                                     % self._n)
        cfg = self.config
        seg = self._seg
        n = self._n
        self._n += 1
        if n == 0 or self._halted:
            # sample 0 is the known anchor point of the warp, and a halted
            # bank's fits are void: no row to fit
            return None
        evict_if_full(seg)
        if n > 1:
            # the constructor admitted start 0, the candidate of sample 1
            admit_hypothesis(seg, n, self._d_ref,
                             self._running_warp_at(n - 1))
        k = seg.filled
        lever = (n - seg.start[:k]) * cfg.sample_period
        rows, offsets, preds = rows_batch(self.sig, seg.d_ref[:k],
                                          seg.tau[:k], lever,
                                          cfg.perturbation, self._gains)
        targets = r_n - preds + offsets
        # the L+1 models describe one observation: weight them so the lse
        # accumulates one squared residual per sample, the unit the segment
        # penalty is calibrated in (uniform scaling leaves the estimate alone)
        scale = 1.0 / np.sqrt(rows.shape[1])
        lse = rls.update_batch(seg.factor[:k], rows * scale, targets * scale)
        seg.lse[:k] = lse
        if not np.isfinite(lse).all():
            self._halted = True
            self._flag_divergence(n)
        _, best = bellman_step(seg, cfg.penalty)
        jump = best - seg.prev_best_start
        if jump >= cfg.detect_threshold and best > self._open_start():
            return self._close_segment(best, n)
        return None

    def _close(self, b: int, n: int) -> DopplerSegment:
        """Close the open segment at sample b with the anchor's fit.

        A Doppler clamped to DOPPLER_BOUNDS flags divergence at sample n.
        """
        d = self._running_doppler()
        clipped = np.clip(d, *DOPPLER_BOUNDS)
        if np.any(clipped != d):
            self._flag_divergence(n)
        seg = DopplerSegment(a=self._open_start(), b=b, doppler=clipped,
                             tau=self._tau_cur.copy(),
                             lse=float(self._seg.lse[self._seg.anchor]))
        self.segments.append(seg)
        return seg

    def _close_segment(self, new_start: int, n: int) -> DopplerSegment:
        seg = self._close(new_start - 1, n)
        # chain the delays: the warp of sample new_start under the closed fit
        self._tau_cur = self._tau_cur + seg.doppler * (new_start - seg.a) \
            * self.config.sample_period
        self._seg.anchor = self._seg.best_row
        self._d_ref = seg.doppler.copy()
        return seg

    def finalize(self) -> DopplerSegment | None:
        """Close the open segment at the last consumed sample."""
        if self._finalized:
            return None
        self._finalized = True
        last = self._n - 1
        if last < self._open_start():
            return None
        return self._close(last, last)
