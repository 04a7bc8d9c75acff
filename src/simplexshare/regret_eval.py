"""Regret notions and comparator-regularity statistics.

The central quantity is the generalized shifting regret against an
arbitrary sequence of nonnegative comparator vectors u_1..u_T:

    sum_t ||u_t||_1 (p_t . l_t) - sum_t u_t . l_t

Adaptive (best window) and discounted regret are special cases obtained
by specific comparator constructions; they get direct evaluators here.
"""

from __future__ import annotations

import numpy as np

from .simplex_core import as_nonneg_vector

# Prefix sums switch to compensated summation at this length: window
# differences of large prefix sums would otherwise lose precision.
KAHAN_MIN_LENGTH = 10_000


def as_comparator(u) -> np.ndarray:
    """Validate a (T, d) matrix of nonnegative comparator vectors."""
    m = np.asarray(u, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1:
        raise ValueError("comparator must be a (T, d) matrix with T >= 1")
    if not np.all(np.isfinite(m)) or np.any(m < 0.0):
        raise ValueError("comparator entries must be finite and nonnegative")
    return m


def _realized(p_traj, losses) -> tuple[np.ndarray, np.ndarray]:
    """The per-round losses p_t . l_t of the played rows (a trajectory's
    ``played`` or a (T, d) matrix), and the losses as an array."""
    p = np.asarray(getattr(p_traj, "played", p_traj), dtype=float)
    l = np.asarray(losses, dtype=float)
    if p.shape != l.shape:
        raise ValueError("trajectory and losses shapes differ")
    return np.einsum("td,td->t", p, l), l


def regularity_m(u) -> float:
    """Summed one-sided total-variation increments of the comparator.

    Counts exactly the number of hard switches when the sequence moves
    between probability vectors.
    """
    m = as_comparator(u)
    if m.shape[0] == 1:
        return 0.0
    return float(np.maximum(m[1:] - m[:-1], 0.0).sum())


def sparsity_n(u) -> float:
    """Sum over coordinates of the comparator's maximum weight over time."""
    m = as_comparator(u)
    return float(m.max(axis=0).sum())


def generalized_shifting_regret(p_traj, losses, u) -> float:
    """Weighted regret sum_t ||u_t||_1 p_t.l_t - sum_t u_t.l_t."""
    realized, l = _realized(p_traj, losses)
    m = as_comparator(u)
    if m.shape != l.shape:
        raise ValueError("comparator and losses shapes differ")
    return float(m.sum(axis=1) @ realized - np.einsum("td,td->", m, l))


def _kahan_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    total = np.zeros(a.shape[1:], dtype=float)
    carry = np.zeros_like(total)
    for i in range(a.shape[0]):
        y = a[i] - carry
        t = total + y
        carry = (t - total) - y
        total = t
        out[i] = total
    return out


def _prefix(a: np.ndarray) -> np.ndarray:
    """Prefix sums with a leading zero row; compensated for long inputs."""
    body = _kahan_cumsum(a) if a.shape[0] >= KAHAN_MIN_LENGTH else np.cumsum(a, axis=0)
    zero = np.zeros((1,) + a.shape[1:])
    return np.concatenate([zero, body], axis=0)


def adaptive_regret(p_traj, losses, tau0: int) -> float:
    """Worst regret against the best action over windows of length <= tau0."""
    value, _, _, _ = adaptive_regret_details(p_traj, losses, tau0)
    return value


def adaptive_regret_details(p_traj, losses, tau0: int
                            ) -> tuple[float, int, int, int]:
    """Adaptive regret together with its maximizing (r, s, action).

    The inner minimum over comparison distributions is attained at a
    corner because the objective is linear.  With G_j = prefix(realized)
    - prefix(l_j), the regret of window [r, s] against action j is
    G_j(s) - G_j(r - 1), so the best window ending at s subtracts the
    minimum of G_j over [s - tau0, s - 1]: a sliding-window minimum
    (van Herk 1992; Gil & Werman 1993), found for every s and j in
    O(T * d) time whatever tau0 is.

    Returns (value, r, s, j) with 1-based round indices.  Ties go to the
    largest regret, then the smallest width, then the earliest start,
    then the lowest action; when no window has positive regret (always
    for d = 1) the answer is (0, 1, 1, 0).
    """
    realized, l = _realized(p_traj, losses)
    T = l.shape[0]
    if not 1 <= tau0 <= T:
        raise ValueError("tau0 must satisfy 1 <= tau0 <= T")
    pref = _prefix(np.column_stack([realized, l]))
    gains = pref[:, :1] - pref[:, 1:]
    regret = np.empty((T, l.shape[1]))
    start = np.empty((T, l.shape[1]), dtype=np.intp)
    for j in range(l.shape[1]):
        low, start[:, j] = _window_minima(gains[:-1, j], tau0)
        regret[:, j] = gains[1:, j] - low
    best = regret.max()
    if not best > 0.0:
        return 0.0, 1, 1, 0
    ends, arms = np.nonzero(regret == best)
    starts = start[ends, arms]
    k = np.lexsort((arms, starts, ends - starts))[0]
    return float(best), int(starts[k]) + 1, int(ends[k]) + 1, int(arms[k])


def _window_minima(g: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of ``g`` over [i - width + 1, i] (clipped at 0) for every
    i, and the latest index attaining it.

    Blockwise prefix and suffix minima (van Herk / Gil-Werman): a window
    of ``width`` entries spans the tail of one block and the head of the
    next, so its minimum is the smaller of a suffix and a prefix minimum.
    """
    n = g.size
    blocks = -(-(n + width - 1) // width)
    pad = np.full(blocks * width, np.inf)
    pad[width - 1:width - 1 + n] = g
    pad = pad.reshape(blocks, width)
    pos = np.arange(pad.size).reshape(blocks, width)
    head = np.minimum.accumulate(pad, axis=1)
    head_at = np.maximum.accumulate(np.where(pad == head, pos, -1), axis=1)
    tail = np.minimum.accumulate(pad[:, ::-1], axis=1)[:, ::-1]
    # the latest minimum of a block's tail is its first entry strictly
    # below everything after it
    after = np.concatenate([tail[:, 1:], np.full((blocks, 1), np.inf)], axis=1)
    tail_at = np.minimum.accumulate(
        np.where(pad < after, pos, pad.size)[:, ::-1], axis=1)[:, ::-1]
    # the window of entry i is padded entries [i, i + width - 1]
    right = slice(width - 1, width - 1 + n)
    head, head_at = head.ravel()[right], head_at.ravel()[right]
    tail, tail_at = tail.ravel()[:n], tail_at.ravel()[:n]
    use_head = head <= tail
    return (np.where(use_head, head, tail),
            np.where(use_head, head_at, tail_at) - (width - 1))


def as_discounts(betas, T: int | None = None) -> np.ndarray:
    """Validate a vector of per-round discount factors in [0, 1]."""
    b = as_nonneg_vector(betas)
    if np.any(b > 1.0):
        raise ValueError("discounts must lie in [0, 1]")
    if T is not None and b.size != T:
        raise ValueError(f"discount schedule has length {b.size}, expected {T}")
    return b


def discounted_regret(p_traj, losses, betas) -> float:
    """Discounted regret max_q sum_t beta_t (p_t.l_t - q.l_t)."""
    value, _ = discounted_regret_details(p_traj, losses, betas)
    return value


def discounted_regret_details(p_traj, losses, betas) -> tuple[float, int]:
    """Discounted regret and the maximizing corner (linear objective)."""
    realized, l = _realized(p_traj, losses)
    b = as_discounts(betas, l.shape[0])
    arm_totals = b @ l
    j = int(np.argmin(arm_totals))
    return float(b @ realized - arm_totals[j]), j


def discount_regularity(betas, q) -> float:
    """Regularity mass ||beta_1 q||_1 + m((beta_t q)_t) of a discounted
    comparator.

    For monotone discounts this equals max(beta_1, beta_T) for any
    probability vector q.
    """
    b = as_discounts(betas)
    qv = np.asarray(q, dtype=float)
    u = b[:, None] * qv[None, :]
    return float(u[0].sum() + regularity_m(u))
