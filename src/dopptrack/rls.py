"""Recursive least-squares in square-root (QR-factor) form.

Unit forgetting factor: the segmentation layer, not exponential windowing,
handles nonstationarity. A fit is nothing but its factor: the
upper-triangular R (dim+1, dim+1) of the ridge-augmented data
[[sqrt(ridge) I, 0], [A, y]]. init returns the factor of the empty fit;
update (one row, checked) and update_batch (an (H, dim+1, dim+1) stack)
absorb rows as one QR of the old factor stacked on the new rows, overwrite
the factor in place and return lse. The QR runs in numpy's raw mode on one
freshly filled stack, and only the upper triangle of its output is copied
back under a cached mask; this gives the same bits as mode "r" without its
per-call triu.

One rule defines lse, the cost the segmentation layer compares (plus a
penalty per segment): after rows A and targets y, lse is the minimum over x
of ridge*||x||^2 + ||y - A x||^2, the cost solve_direct computes on the same
rows. Every row is charged, so a zero row adds its target squared and moves
no estimate. lse is the last diagonal entry of the factor squared.

estimate reads the fit x off a factor by solving R[:d, :d] x = R[:d, d]. No
inverse Gram is formed: there is no 1/ridge cancellation while a fit has
fewer rows than unknowns, and the factor stays triangular with a nonzero
leading diagonal (positive definite Gram) by construction.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def init(dim: int, ridge: float) -> np.ndarray:
    """Fresh factor diag(sqrt(ridge), ..., sqrt(ridge), 0): the empty fit."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0.0 < ridge < math.inf:
        raise ValueError("ridge must be positive and finite")
    return np.diag(np.append(np.full(dim, np.sqrt(ridge)), 0.0))


def estimate(factor: np.ndarray) -> np.ndarray:
    """Fit read off one factor (dim+1, dim+1) or a stack (..., dim+1, dim+1).

    Solves R[:d, :d] x = R[:d, d]; only the places that use a fit call this,
    the update itself never forms it.
    """
    d = factor.shape[-1] - 1
    return np.linalg.solve(factor[..., :d, :d], factor[..., :d, d:])[..., 0]


def update(factor: np.ndarray, row: np.ndarray, target: float) -> float:
    """Absorb one regression row into one factor in place; returns lse."""
    g = np.asarray(row, dtype=float)
    dim = factor.shape[0] - 1
    if g.shape != (dim,):
        raise ValueError("row must have shape (%d,)" % dim)
    if not (np.all(np.isfinite(g)) and np.isfinite(target)):
        raise ValueError("non-finite row or target")
    lse = update_batch(factor[None], g[None, None, :],
                       np.array([[target]], dtype=float))
    return float(lse[0])


def update_batch(factors: np.ndarray, rows: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """Absorb the same number of rows into many independent factors at once.

    factors has shape (H, dim+1, dim+1) and is overwritten in place; rows has
    shape (H, R, dim) and targets (H, R): factor h absorbs its R rows.
    Returns the H updated lse values.
    """
    H, R, dim = rows.shape
    if factors.shape != (H, dim + 1, dim + 1):
        raise ValueError("rows/factors shape mismatch")
    stack = np.empty((H, dim + 1 + R, dim + 1))
    stack[:, :dim + 1] = factors
    stack[:, dim + 1:, :dim] = rows
    stack[:, dim + 1:, dim] = targets
    # raw mode returns the Householder output transposed, R in its upper
    # triangle; the factors' lower triangle is already zero
    h = np.linalg.qr(stack, mode="raw")[0]
    np.copyto(factors, h[:, :, :dim + 1].mT, where=_upper(dim + 1))
    return factors[:, dim, dim] ** 2


@functools.cache
def _upper(n: int) -> np.ndarray:
    """Upper-triangular (n, n) mask, built once per size."""
    return np.triu(np.ones((n, n), dtype=bool))


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
