"""Primitives on the probability simplex and the nonnegative orthant.

Distances, divergences, entropies, and exact KL projection onto the
clipped simplex (the set of probability vectors with every coordinate
bounded below by ``alpha / d``).  All functions are pure and safe to
call concurrently.

The ``_check_*`` functions are the one checker of each hypothesis the
guarantees rest on (eta, alpha, a projected alpha's floor alpha/d, gamma,
the loss entries, the schedule step), called where the value enters the
library.  Each takes a number or an array, every entry of which must
pass; NaN and None fail them.
"""

from __future__ import annotations

import numpy as np


def _holds(ok) -> bool:
    return ok if isinstance(ok, bool) else bool(ok.all())


def _check_eta(eta, name: str = "eta"):
    if eta is None or not _holds((eta > 0.0) & (eta < np.inf)):
        raise ValueError(f"{name} must be positive and finite")
    return eta


def _check_alpha(alpha, name: str = "alpha"):
    if alpha is None or not _holds((alpha >= 0.0) & (alpha <= 1.0)):
        raise ValueError(f"{name} must be in [0, 1]")
    return alpha


def _check_floor(alpha, d: int) -> None:
    """Refuse an alpha > 0 whose projection floor alpha/d underflows to 0."""
    if alpha > 0.0 and alpha / d == 0.0:
        raise ValueError("alpha/d underflows to 0: the projection's floor "
                         "must be positive")


def _check_gamma(gamma, name: str = "gamma", zero: bool = False):
    """0 < gamma < inf; ``zero`` admits gamma = 0 (no decay) too."""
    if gamma is None or not 0.0 <= gamma < np.inf or gamma == 0.0 and not zero:
        low = "nonnegative" if zero else "positive"
        raise ValueError(f"{name} must be {low} and finite")
    return gamma


def _check_losses(v: np.ndarray, where: str = "") -> None:
    # a NaN propagates into the extremes; isfinite only picks the message
    if not (np.minimum.reduce(v, None, initial=0.0) >= 0.0
            and np.maximum.reduce(v, None, initial=1.0) <= 1.0):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{where}loss entries must be finite")
        raise ValueError(f"{where}loss entries must lie in [0, 1]")


def _check_schedule_step(eta_prev, eta_t, alpha_prev, alpha_t) -> None:
    """eta_t <= eta_prev up to a relative 1e-12, alpha_t <= alpha_prev up
    to an absolute 1e-12: slack for a computed schedule's rounding."""
    if not _holds(eta_t <= eta_prev * (1.0 + 1e-12)):
        raise ValueError("schedule violation: eta_t > eta_prev")
    if not _holds(alpha_t <= alpha_prev + 1e-12):
        raise ValueError("schedule violation: alpha_t > alpha_prev")


def as_nonneg_vector(x) -> np.ndarray:
    """Validate a 1-d vector of finite nonnegative reals."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-d vector with at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    if np.any(v < 0.0):
        raise ValueError("entries must be nonnegative")
    return v


def as_distribution(x, *, tol: float = 1e-9) -> np.ndarray:
    """Validate a probability vector and renormalize by its exact sum.

    Renormalizing after every construction keeps long runs (T ~ 1e5
    rounds) free of normalization drift.
    """
    v = as_nonneg_vector(x)
    s = float(v.sum())
    if abs(s - 1.0) > tol:
        raise ValueError(f"entries sum to {s!r}, expected 1 within {tol!r}")
    return v / s


def uniform(d: int) -> np.ndarray:
    """The uniform distribution on d points."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return np.full(d, 1.0 / d)


def total_variation(x, y) -> float:
    """One-sided mass increase sum((x_i - y_i) over i with x_i >= y_i).

    Asymmetric in general for nonnegative vectors; equals half the L1
    distance when both arguments are probability vectors, and is always
    bounded by the L1 distance.
    """
    xv = as_nonneg_vector(x)
    yv = as_nonneg_vector(y)
    if xv.shape != yv.shape:
        raise ValueError("dimension mismatch")
    return float(np.maximum(xv - yv, 0.0).sum())


def kl_divergence(x, y) -> float:
    """Kullback-Leibler divergence sum(x_i * ln(x_i / y_i)).

    Uses the 0 * ln 0 = 0 convention.  Raises if x puts mass where y
    has none.
    """
    xv = as_distribution(x)
    yv = as_distribution(y)
    if xv.shape != yv.shape:
        raise ValueError("dimension mismatch")
    support = xv > 0.0
    if np.any(yv[support] <= 0.0):
        raise ValueError("support violation: x_i > 0 where y_i = 0")
    xs = xv[support]
    return float(np.sum(xs * np.log(xs / yv[support])))


def binary_entropy(x: float) -> float:
    """Binary entropy -x ln x - (1-x) ln(1-x), with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary entropy is defined on [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log(x) - (1.0 - x) * np.log(1.0 - x))


def kl_project_clipped(v, alpha: float) -> np.ndarray:
    """KL projection of a positive distribution onto the clipped simplex.

    The clipped simplex is {x in Delta_d : x_i >= alpha/d for all i}.
    The minimizer floors the k smallest entries at alpha/d and rescales
    the remaining entries by the leftover mass, where k is the smallest
    count for which every unfloored rescaled entry stays at or above the
    floor.  This is the exact KKT solution, computed in O(d log d).  A
    zero entry is refused at alpha > 0.
    """
    _check_alpha(alpha)
    p = as_distribution(v)
    _check_floor(alpha, p.size)
    if alpha == 0.0:
        return p
    if np.any(p <= 0.0):
        raise ValueError("projection requires strictly positive entries")
    return kl_project_rows(p, alpha)


def clipped_numerators(alpha: float, d: int) -> np.ndarray:
    """1 - k alpha/d, k = 1..d-1: the mass left after flooring k entries."""
    return 1.0 - np.arange(1, d) * (alpha / d)


def kl_project_rows(p: np.ndarray, alpha: float,
                    numerators: np.ndarray | None = None) -> np.ndarray:
    """Row-wise ``kl_project_clipped`` of an (..., d) array of distributions.

    Rows must sum to 1 up to rounding and ``0 < alpha <= 1``; a run may
    pass its ``clipped_numerators(alpha, d)``.  A zero entry (a pre-weight
    that underflowed) sorts first and is floored.  Each row gets the
    arithmetic of a single projection, so a stack of rows projects bit for
    bit like the rows one at a time.  Entries <= x = ps[last] get the
    floor, so tied entries at the floor are floored together.  Flooring
    sorted positions 0..last gives a copy of x sorted after last max(q,
    floor), q = fl(scale x): the floor if last >= 1, as ``fits[last - 1]``
    tests (1 - last floor) x / (S + x) = floor + S (q - floor) / (S + x),
    S the mass after x, up to ulps far inside the 1e-13 slack.  At
    last == 0, q > floor needs a tied minimum within the row sum's
    rounding below the floor, where flooring by position floors only one
    copy.
    """
    d = p.shape[-1]
    floor = alpha / d
    flat = p.reshape(-1, d)
    todo = np.flatnonzero(flat.min(axis=1) < floor)
    if todo.size == 0:
        return p
    rows = flat[todo]
    ps = np.sort(rows, axis=1)
    # suffix[:, k] = mass of the d-k largest entries (the unfloored ones).
    suffix = np.cumsum(ps[:, ::-1], axis=1)[:, ::-1]
    scales = (clipped_numerators(alpha, d) if numerators is None
              else numerators) / suffix[:, 1:]
    fits = scales * ps[:, 1:] >= floor * (1.0 - 1e-13)
    # Floor the k smallest entries for the first k that fits.  k = d - 1
    # always fits when alpha < 1, so rows where none fits have alpha == 1
    # and every entry floored at 1/d.
    last = fits.argmax(axis=1)[:, None]
    row = np.arange(todo.size)[:, None]
    rows = np.where(rows <= ps[row, last], floor,
                    np.maximum(scales[row, last] * rows, floor))
    rows /= rows.sum(axis=1, keepdims=True)
    rows[~fits.any(axis=1)] = floor / (d * floor)
    if todo.size == flat.shape[0]:
        return rows.reshape(p.shape)
    out = flat.copy()
    out[todo] = rows
    return out.reshape(p.shape)
