"""Recursive least-squares in square-root (QR-factor) form.

Unit forgetting factor: the segmentation layer, not exponential windowing,
handles nonstationarity. The state is the upper-triangular R factor of the
ridge-augmented data [[sqrt(ridge) I, 0], [A, y]]; absorbing rows is one QR
of the old factor stacked on the new rows. The estimate solves
R[:d, :d] x = R[:d, d] and the last diagonal entry squared is exactly
ridge*||x||^2 + sum of squared residuals, so lse compares directly against
solve_direct on the same rows. No inverse Gram is formed: there is no 1/ridge
cancellation while a fit has fewer rows than unknowns, and the factor stays
triangular with a nonzero leading diagonal (positive definite Gram) by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RlsState:
    """Value-type RLS state; never shared mutably between owners.

    factor is the (dim+1, dim+1) upper-triangular R factor of the augmented
    data; estimate and lse are read off it after every update.
    """

    factor: np.ndarray     # (dim+1, dim+1), upper triangular
    estimate: np.ndarray   # (dim,)
    lse: float
    count: int

    @property
    def dim(self) -> int:
        return self.factor.shape[0] - 1


def init(dim: int, ridge: float) -> RlsState:
    """Fresh state: factor diag(sqrt(ridge), ..., sqrt(ridge), 0), zero fit."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if ridge <= 0.0:
        raise ValueError("ridge must be positive")
    factor = np.diag(np.append(np.full(dim, np.sqrt(ridge)), 0.0))
    return RlsState(factor=factor, estimate=np.zeros(dim), lse=0.0, count=0)


def update(state: RlsState, row: np.ndarray, target: float) -> tuple[RlsState, float]:
    """Absorb one regression row in place; returns (state, a-posteriori residual)."""
    g = np.asarray(row, dtype=float)
    if g.shape != (state.dim,):
        raise ValueError("row must have shape (%d,)" % state.dim)
    if not (np.all(np.isfinite(g)) and np.isfinite(target)):
        raise ValueError("non-finite row or target")
    update_batch([state], g[None, None, :], np.array([[target]], dtype=float))
    return state, float(target - g @ state.estimate)


def update_batch(states: list[RlsState], rows: np.ndarray,
                 targets: np.ndarray) -> None:
    """Absorb the same number of rows into many independent states at once.

    rows has shape (H, R, dim) and targets (H, R): state h absorbs its R rows.
    A zero row carries no information; its target is not charged to the fit.
    """
    H, R, dim = rows.shape
    if len(states) != H:
        raise ValueError("rows/states length mismatch")
    # zeroing the target makes a zero row a zero row of the augmented data,
    # which the QR passes over
    live = np.any(rows != 0.0, axis=2)
    data = np.concatenate(
        [rows, np.where(live, targets, 0.0)[:, :, None]], axis=2)
    stacked = np.concatenate([np.stack([s.factor for s in states]), data],
                             axis=1)
    factor = np.linalg.qr(stacked, mode="r")
    estimate = np.linalg.solve(factor[:, :dim, :dim],
                               factor[:, :dim, dim:])[:, :, 0]
    lse = (factor[:, dim, dim] ** 2).tolist()
    for s, f, x, e in zip(states, factor, estimate, lse):
        s.factor = f
        s.estimate = x
        s.lse = e
        s.count += R


def solve_direct(rows, targets, ridge: float) -> tuple[np.ndarray, float]:
    """Dense oracle: minimize ridge*||x||^2 + sum (target - row.x)^2."""
    A = np.atleast_2d(np.asarray(rows, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    if A.shape[0] < 1:
        raise ValueError("need at least one row")
    dim = A.shape[1]
    aug_A = np.vstack([A, np.sqrt(ridge) * np.eye(dim)])
    aug_y = np.concatenate([y, np.zeros(dim)])
    x, *_ = np.linalg.lstsq(aug_A, aug_y, rcond=None)
    resid = y - A @ x
    lse = float(ridge * (x @ x) + resid @ resid)
    return x, lse
