"""Recursive least-squares in square-root (QR-factor) form.

Unit forgetting factor: the segmentation layer, not exponential windowing,
handles nonstationarity. The state is the upper-triangular R factor of the
ridge-augmented data [[sqrt(ridge) I, 0], [A, y]]; absorbing rows is one QR
of the old factor stacked on the new rows, batched over an (H, dim+1, dim+1)
array of factors that is overwritten in place. The estimate solves
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
    data; update reads estimate and lse off it. This single-state form serves
    the oracle checks; many fits update together as a factor array through
    update_batch.
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


def estimate(factor: np.ndarray) -> np.ndarray:
    """Fit read off one factor (dim+1, dim+1) or a stack (..., dim+1, dim+1).

    Solves R[:d, :d] x = R[:d, d]; only the places that use a fit call this,
    the update itself never forms it.
    """
    d = factor.shape[-1] - 1
    return np.linalg.solve(factor[..., :d, :d], factor[..., :d, d:])[..., 0]


def update(state: RlsState, row: np.ndarray, target: float) -> tuple[RlsState, float]:
    """Absorb one regression row in place; returns (state, a-posteriori residual)."""
    g = np.asarray(row, dtype=float)
    if g.shape != (state.dim,):
        raise ValueError("row must have shape (%d,)" % state.dim)
    if not (np.all(np.isfinite(g)) and np.isfinite(target)):
        raise ValueError("non-finite row or target")
    lse = update_batch(state.factor[None], g[None, None, :],
                       np.array([[target]], dtype=float))
    state.estimate = estimate(state.factor)
    state.lse = float(lse[0])
    state.count += 1
    return state, float(target - g @ state.estimate)


def update_batch(factors: np.ndarray, rows: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """Absorb the same number of rows into many independent factors at once.

    factors has shape (H, dim+1, dim+1) and is overwritten in place; rows has
    shape (H, R, dim) and targets (H, R): factor h absorbs its R rows. A zero
    row carries no information; its target is not charged to the fit.
    Returns the H updated lse values.
    """
    H, R, dim = rows.shape
    if factors.shape != (H, dim + 1, dim + 1):
        raise ValueError("rows/factors shape mismatch")
    # zeroing the target makes a zero row a zero row of the augmented data,
    # which the QR passes over
    live = np.any(rows != 0.0, axis=2)
    data = np.concatenate(
        [rows, np.where(live, targets, 0.0)[:, :, None]], axis=2)
    factors[...] = np.linalg.qr(np.concatenate([factors, data], axis=1),
                                mode="r")
    return factors[:, dim, dim] ** 2


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
