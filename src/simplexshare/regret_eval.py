"""Regret notions and comparator-regularity statistics.

The central quantity is the generalized shifting regret against an
arbitrary sequence of nonnegative comparator vectors u_1..u_T:

    sum_t ||u_t||_1 (p_t . l_t) - sum_t u_t . l_t

Adaptive (best window) and discounted regret are special cases obtained
by specific comparator constructions; they get direct evaluators here.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .forecasters import Trajectory, _one_run, _played_losses
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
    """p_t . l_t of one run's played rows (a trajectory's, formed as its
    ``realized``, or a (T, d) matrix's), and the losses as an array."""
    l = np.asarray(losses, dtype=float)
    traj = isinstance(p_traj, Trajectory)
    p = (p_traj.log_p[..., : p_traj.T, :] if traj
         else np.asarray(p_traj, dtype=float))
    if traj and p.ndim == 3:
        raise ValueError("the evaluator takes one run: pass traj.rep(i)")
    if p.shape != l.shape or l.ndim != 2:
        raise ValueError("trajectory and losses shapes differ")
    if not traj:
        return np.einsum("td,td->t", p, l), l
    return _played_losses(p, l), l


def _increments(u: np.ndarray) -> np.ndarray:
    """The increments of rounds 1..k-1 of the (k, d) rows ``u``: numpy's sums
    of rows of clipped differences, formed in blocks of <= 2^14 entries."""
    k = u.shape[0]
    block = max(1, (1 << 14) // max(1, u.shape[1]))
    incs = np.empty(k - 1)
    for lo in range(1, k, block):
        hi = min(lo + block, k)
        incs[lo - 1:hi - 1] = np.maximum(u[lo:hi] - u[lo - 1:hi - 1],
                                         0.0).sum(axis=1)
    return incs


def regularity_m(u) -> float:
    """Summed one-sided total-variation increments of the comparator, which
    count the hard switches between probability vectors: the rounds'
    ``_increments``, summed exactly (``math.fsum``)."""
    return math.fsum(_increments(as_comparator(u)))


def sparsity_n(u) -> float:
    """Sum over coordinates of the comparator's maximum weight over time."""
    m = as_comparator(u)
    return float(m.max(axis=0).sum())


class Segment(NamedTuple):
    """Rounds [a, b) (0-based) of a comparator: the corner ``vec`` (an
    action), the d-vector ``vec`` in every round, or the (b - a, d) rows
    ``vec``.  A corner is scaled by ``scale[t]`` in round t, or by 1 when
    ``scale`` is None."""

    a: int
    b: int
    vec: int | np.ndarray
    scale: np.ndarray | None = None


def _rows(segs, r0: int, r1: int, d: int) -> np.ndarray:
    """Rows [r0, r1) of the comparator, as ``gen_comparator`` writes them."""
    block = np.zeros((r1 - r0, d))
    for a, b, vec, scale in segs:
        lo, hi = max(a, r0), min(b, r1)
        if lo >= hi:
            continue
        if isinstance(vec, np.ndarray):
            rows = vec if vec.ndim == 1 else vec[lo - a:hi - a]  # q or block
            block[lo - r0:hi - r0] = rows
        else:
            block[lo - r0:hi - r0, vec] = 1.0 if scale is None else scale[lo:hi]
    return block


def comparator_stats(u: list[Segment], losses
                     ) -> tuple[np.ndarray, float, float, float, float]:
    """The row masses ||u_t||_1, m, n, U_sum and L_sum of ``Segment`` rows.

    ``losses`` is a (T, d) matrix or one run's ``LossRows``, read in one
    pass.  Beyond the row blocks they take O(T + k d) memory.  Each
    round's mass, increment and loss u_t . l_t is numpy's sum over its d
    entries, and m, U_sum and L_sum sum the rounds exactly
    (``math.fsum``), so they equal the dense functions on ``_rows`` bit
    for bit: a corner round has one nonzero entry, and other rounds' rows
    are built and summed.
    """
    rows = _one_run(losses)
    T, d = rows.T, rows.d
    masses, incs, row_losses = np.zeros(T), np.zeros(T), np.zeros(T)
    peaks = np.zeros(d)
    for a, b, vec, scale in u:
        if isinstance(vec, np.ndarray):
            masses[a:b] = vec.sum(axis=-1)  # as u.sum(axis=1) forms a row's
            np.maximum(peaks, vec.reshape(-1, d).max(axis=0), out=peaks)
            if vec.ndim == 2:
                incs[a + 1:b] = _increments(vec)
        else:
            masses[a:b] = 1.0 if scale is None else scale[a:b]
            peaks[vec] = max(peaks[vec], masses[a:b].max())
            if scale is not None:
                incs[a + 1:b] = np.maximum(np.diff(scale[a:b]), 0.0)
    segs, first = sorted(u, key=lambda seg: seg.a), 0
    for lo, hi, block in rows.blocks():
        while first < len(segs) and segs[first].b <= lo:
            first += 1  # segments before the block
        for a, b, vec, _ in itertools.islice(segs, first, None):
            if a >= hi:
                break
            x, y = max(a, lo), min(b, hi)
            l = block[0, x - lo:y - lo]
            if isinstance(vec, np.ndarray):
                row_losses[x:y] = np.einsum("td,td->t", _rows(u, x, y, d), l)
            else:
                row_losses[x:y] = masses[x:y] * l[:, vec]
    for t in {x for a, b, _, _ in u for x in (a, b) if 0 < x < T}:
        before, after = _rows(u, t - 1, t + 1, d)  # rows where segments meet
        incs[t] = np.maximum(after - before, 0.0).sum()
    return (masses, math.fsum(incs), float(peaks.sum()), math.fsum(masses),
            math.fsum(row_losses))


def generalized_shifting_regret(p_traj, losses, u) -> float:
    """Weighted regret sum_t ||u_t||_1 p_t.l_t - sum_t u_t.l_t."""
    realized, l = _realized(p_traj, losses)
    m = as_comparator(u)
    if m.shape != l.shape:
        raise ValueError("comparator and losses shapes differ")
    return float(m.sum(axis=1) @ realized
                 - math.fsum(np.einsum("td,td->t", m, l)))


def _kahan_cumsum(col: np.ndarray) -> np.ndarray:
    """Kahan's compensated running sums of one column.  The loop runs on
    Python floats read from and written to memoryviews: the same IEEE
    steps as numpy's, without its per-call cost."""
    out = np.empty(col.shape[0])
    sums = memoryview(out)
    total = carry = 0.0
    for i, x in enumerate(memoryview(np.ascontiguousarray(col))):
        y = x - carry
        t = total + y
        carry = (t - total) - y
        total = t
        sums[i] = t
    return out


def _prefix(a: np.ndarray) -> np.ndarray:
    """Prefix sums with a leading zero row; compensated for long inputs.

    Long inputs get Kahan's sums (``_kahan_cumsum``) bit for bit, but only
    the columns that need them are compensated.  Kahan's step i forms
    y = a_i - c, s_i = s_{i-1} + y and c = (s_i - s_{i-1}) - y, from
    s_0 = c = +0.0.  While c is +0.0, y is a_i (signed zeros too) and s_i
    the plain running sum of [0; a]; c stays +0.0 iff fl(s_i - s_{i-1})
    == a_i, as x - x is +0.0 and no s_i is -0.0.  So where every step
    passes that test, the plain sums are Kahan's.  (An infinite a_i passes
    with a NaN carry, but then the next step fails; the last is unused.)
    """
    zero = np.zeros((1,) + a.shape[1:])
    if a.shape[0] < KAHAN_MIN_LENGTH:
        return np.concatenate([zero, np.cumsum(a, axis=0)], axis=0)
    pref = np.cumsum(np.concatenate([zero, a], axis=0), axis=0)
    inexact = ((pref[1:] - pref[:-1]) != a).any(axis=0)
    for j in np.flatnonzero(inexact):
        pref[1:, j] = _kahan_cumsum(a[:, j])
    return pref


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
    if not 1 <= tau0 <= l.shape[0]:
        raise ValueError("tau0 must satisfy 1 <= tau0 <= T")
    return _adaptive_details(realized, l, tau0)


def _adaptive_details(realized: np.ndarray, l: np.ndarray, tau0: int
                      ) -> tuple[float, int, int, int]:
    """``adaptive_regret_details`` from the realized losses, at a checked
    1 <= tau0 <= T."""
    fore = _prefix(realized[:, None])
    best = (0.0, 0, 0, 0)  # (-regret, s - r, r - 1, action): least wins
    for j in range(l.shape[1]):  # one action at a time, in O(T) memory
        gains = _prefix(l[:, j:j + 1])
        np.subtract(fore, gains, out=gains)
        best = min(best, _best_window(gains[:, 0], tau0) + (j,))
    neg_regret, width, r, arm = best
    if not neg_regret < 0.0:
        return 0.0, 1, 1, 0
    return float(-neg_regret), r + 1, r + width + 1, arm


def _best_window(gains: np.ndarray, width: int) -> tuple[float, int, int]:
    """The largest gains[s] - gains[r - 1] over 0 <= s - r < ``width``, as
    (-value, s - r, r - 1) with the least s - r, then the least r - 1.

    The best r - 1 for each s is the latest minimum of gains over
    [s - width, s - 1], clipped at 0.  Blockwise prefix and suffix
    minima (van Herk / Gil-Werman) find it for every s: a window of
    ``width`` entries spans the tail of one block and the head of the
    next, so its minimum is the smaller of a suffix and a prefix minimum;
    a window clipped at 0 is a prefix of the first block.  Only the last
    block is padded, so the arrays hold fewer than T + width entries.
    """
    n = gains.size - 1
    blocks = -(-n // width)
    pad = np.full((blocks, width), np.inf)
    pad.reshape(-1)[:n] = gains[:-1]
    pos = np.arange(pad.size).reshape(pad.shape)
    head = np.minimum.accumulate(pad, axis=1)
    head_at = np.maximum.accumulate(np.where(pad == head, pos, -1), axis=1)
    tail = np.empty_like(pad)
    np.minimum.accumulate(pad[:, ::-1], axis=1, out=tail[:, ::-1])
    # the latest minimum of a block's tail is its first entry strictly
    # below everything after it
    last = np.less(pad, np.inf)
    np.less(pad[:, :-1], tail[:, 1:], out=last[:, :-1])
    del pad
    tail_at = np.where(last, pos, pos.size)
    np.minimum.accumulate(tail_at[:, ::-1], axis=1, out=tail_at[:, ::-1])
    # the window ending at s is entries [s - width, s - 1]: the head up to
    # s - 1 and, once s >= width, the tail from s - width; the head wins
    # ties, and the regret and starts overwrite it
    low, start = head.reshape(-1)[:n], head_at.reshape(-1)[:n]
    whole = slice(width - 1, n)
    tail = tail.reshape(-1)[:n - width + 1]
    use_tail = low[whole] > tail
    np.copyto(low[whole], tail, where=use_tail)
    np.copyto(start[whole], tail_at.reshape(-1)[:n - width + 1],
              where=use_tail)
    regret = np.subtract(gains[1:], low, out=low)
    value = regret.max()
    ends = np.flatnonzero(regret == value)
    k = np.lexsort((start[ends], ends - start[ends]))[0]
    return -value, int(ends[k] - start[ends[k]]), int(start[ends[k]])


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
    return _discounted_details(realized, l, as_discounts(betas, l.shape[0]))


def _discounted_details(realized: np.ndarray, l: np.ndarray,
                        betas: np.ndarray) -> tuple[float, int]:
    """``discounted_regret_details`` from the realized losses, at checked
    discounts (``as_discounts``)."""
    arm_totals = betas @ l
    j = int(np.argmin(arm_totals))
    return float(betas @ realized - arm_totals[j]), j


def discount_regularity(betas, q) -> float:
    """Regularity mass ||beta_1 q||_1 + m((beta_t q)_t) of a discounted
    comparator: max(beta_1, beta_T) for monotone discounts and any
    probability vector q."""
    b = as_discounts(betas)
    qv = np.asarray(q, dtype=float)
    u = b[:, None] * qv[None, :]
    return float(u[0].sum() + regularity_m(u))
