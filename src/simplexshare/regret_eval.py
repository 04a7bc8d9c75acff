"""Regret notions and comparator-regularity statistics.

The central quantity is the generalized shifting regret against an
arbitrary sequence of nonnegative comparator vectors u_1..u_T:

    sum_t ||u_t||_1 (p_t . l_t) - sum_t u_t . l_t

Adaptive (best window) and discounted regret are special cases obtained
by specific comparator constructions (the worst window, and u_t = beta_t
e_j at the best arm j); they get direct evaluators here.  Hindsight
corners have one finder, ``SegmentCorners``, the engine's too.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import forecasters
from .forecasters import LossRows, Trajectory, _one_run, _played_losses
from .simplex_core import as_nonneg_vector


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
    ``scale`` is None.  A ``vec`` of None is a hindsight corner still to
    be found (``SegmentCorners``); the statistics take found corners."""

    a: int
    b: int
    vec: int | np.ndarray | None
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


class SegmentCorners:
    """The hindsight corners of ``Segment`` rows ``u`` (those whose
    ``vec`` is None, in round order: the summed losses' argmin, each round
    scaled by ``scale`` when given) in R runs, found as blocks pass:
    ``add(lo, hi, rows)`` takes rounds [lo, hi) as an (R, hi - lo, d)
    array, in round order, and ``runs[i]`` is run i's ``u`` with its
    corners once every round is added.  With no hindsight corner,
    ``add`` returns at once.

    A segment's column sums are carried across blocks in the order of
    ``(scale[a:b, None] * losses[a:b]).sum(axis=0)``, which adds the rows
    in turn for d >= 2: the carried sum joins the block's first row.  (At
    d = 1 that sum is pairwise, but one arm is the corner whatever its
    sum.)
    """

    def __init__(self, u: list[Segment], R: int):
        self.runs = [list(u) for _ in range(R)]
        self._open = [k for k, seg in enumerate(u) if seg.vec is None]
        self._total = None  # the sums of the first open segment

    def add(self, lo: int, hi: int, rows: np.ndarray) -> None:
        while self._open and self.runs[0][self._open[0]].a < hi:
            k = self._open[0]
            a, b, _, scale = self.runs[0][k]
            x, y = max(a, lo), min(b, hi)
            part = rows[:, x - lo:y - lo]
            if scale is not None:
                part = part * scale[x:y, None]
            elif self._total is not None:
                part = part.copy()
            if self._total is not None:
                part[:, 0] += self._total
            self._total = part.sum(axis=1)
            if y < b:
                return
            for run, j in zip(self.runs, np.argmin(self._total, axis=1)):
                run[k] = run[k]._replace(vec=int(j))
            self._open, self._total = self._open[1:], None


def _with_corners(u: list[Segment], losses) -> list[Segment]:
    """``u`` with its hindsight corners in the losses of one run, a (T, d)
    matrix or ``LossRows``, read in one pass."""
    corners = SegmentCorners(u, 1)
    for block in _one_run(losses).blocks():
        corners.add(*block)
    return corners.runs[0]


def generalized_shifting_regret(p_traj, losses, u) -> float:
    """Weighted regret sum_t ||u_t||_1 p_t.l_t - sum_t u_t.l_t."""
    realized, l = _realized(p_traj, losses)
    m = as_comparator(u)
    if m.shape != l.shape:
        raise ValueError("comparator and losses shapes differ")
    return float(m.sum(axis=1) @ realized
                 - math.fsum(np.einsum("td,td->t", m, l)))


def _kahan_sums(cols: np.ndarray, sums: np.ndarray, carries: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Kahan's running sums along each row of ``cols`` from its entry of
    ``sums`` and ``carries``, and the carries after the last.  The loop
    runs on Python floats: the same IEEE steps as numpy's, without its
    per-call cost."""
    out, last = [], []
    for row, total, carry in zip(cols.tolist(), sums.tolist(),
                                 carries.tolist()):
        run = []
        for x in row:
            y = x - carry
            t = total + y
            carry = (t - total) - y
            total = t
            run.append(t)
        out.append(run)
        last.append(carry)
    return np.array(out), np.array(last)


class _RunningSums:
    """Prefix sums of a stream of (n, k) row blocks under a leading zero
    row, carried from block to block: Kahan's, so that window differences
    of large prefix sums keep their precision, but only the columns that
    need them are compensated.  Kahan's step i forms y = a_i - c, s_i =
    s_{i-1} + y and c = (s_i - s_{i-1}) - y, from s_0 = c = +0.0.  While c
    is +0.0, y is a_i (signed zeros too) and s_i the plain running sum of
    [0; a]; c stays +0.0 iff fl(s_i - s_{i-1}) - a_i is zero, as x - x is
    +0.0 and no s_i is -0.0.  So a column keeps numpy's sums until a block
    has a step with a nonzero carry, and from that block on runs Kahan's
    loop, which gives the same sums up to that step.
    """

    def __init__(self, k: int):
        self.sums, self.carry = np.zeros(k), np.zeros(k)
        self.compensated = np.zeros(k, dtype=bool)

    def extend(self, a: np.ndarray) -> np.ndarray:
        """(n + 1, k): the sums so far, then the sums through each row of
        the block ``a``."""
        out = np.empty((a.shape[0] + 1, a.shape[1]))
        out[0], out[1:] = self.sums, a
        np.cumsum(out, axis=0, out=out)
        carries = np.subtract(out[1:], out[:-1])
        np.subtract(carries, a, out=carries)
        self.compensated |= (carries != 0.0).any(axis=0)
        cols = np.flatnonzero(self.compensated)
        sums, self.carry[cols] = _kahan_sums(a[:, cols].T, out[0, cols],
                                             self.carry[cols])
        out[1:, cols] = sums.T
        self.sums = out[-1].copy()
        return out


class _WindowScan:
    """The best window of a stream of gains G(0), ..., G(T), one column
    per action: the least (-value, s - r, r - 1, j) over windows
    1 <= r <= s <= T with s - r < ``width`` and action j, value =
    G_j(s) - G_j(r - 1), starting from ``best`` = (0.0, 0, 0, 0).

    The best r - 1 for an end s is the latest minimum of G_j over
    [s - width, s - 1], clipped at 0.  Positions fall into chunks of
    ``width`` (van Herk 1992; Gil & Werman 1993), so that window is a
    suffix of one chunk and a prefix of the next: its minimum is the
    smaller of the last whole chunk's suffix minimum and the current
    chunk's running minimum, which wins ties as the later.  The scan
    holds the running minima and their latest positions (``head``,
    ``head_at``) and ``tail``: the last whole chunk's suffix minima, the
    current chunk's gains over the rows already passed, and +inf in row
    ``width``.  Suffix minima never fall, so the latest minimum of a
    suffix is the last row holding its value; only winners look it up.
    """

    def __init__(self, T: int, d: int, width: int):
        self.width, self.best = width, (0.0, 0, 0, 0)
        self.head, self.head_at = np.full(d, np.inf), np.full(d, -1)
        # only a horizon of more than one chunk reads a last whole chunk
        self.tail = np.full((width + 1, d), np.inf) if width < T else None

    def extend(self, lo: int, gains: np.ndarray) -> None:
        """Pass positions lo..hi - 1 of the gains rows of positions
        lo..hi and score the window ends lo + 1..hi."""
        w, hi, a = self.width, lo + gains.shape[0] - 1, lo
        while a < hi:
            nc = (hi - a) // w if a % w == 0 else 0  # whole chunks
            b = a + nc * w if nc else min(hi, a - a % w + w)
            self._chunks(a, gains[a - lo:b - lo + 1], max(nc, 1))
            a = b

    def _chunks(self, a: int, g: np.ndarray, nc: int) -> None:
        """Positions a, ... of the gains rows ``g``: ``nc`` whole chunks,
        or part of one."""
        w, off, d = self.width, a % self.width, g.shape[1]
        m = (g.shape[0] - 1) // nc
        x = g[:-1].reshape(nc, m, d)
        head = np.minimum.accumulate(x, axis=1)
        np.minimum(head[0], self.head, out=head[0])
        at = np.where(x == head, np.arange(a, a + nc * m).reshape(nc, m, 1),
                      -1)
        np.maximum.accumulate(at, axis=1, out=at)
        np.maximum(at[0], self.head_at, out=at[0])
        if off + m < w:  # the chunk goes on in the next block
            self.head, self.head_at = head[0, -1].copy(), at[0, -1].copy()
        else:
            self.head.fill(np.inf)
            self.head_at.fill(-1)
        older = []  # (running minima, their starts, the suffix minima)
        if a >= w:
            older.append((head[0], at[0], self.tail[off + 1:off + m + 1]))
        if nc > 1:
            prev = np.minimum.accumulate(x[:-1, ::-1], axis=1)[:, ::-1]
            older.append((head[1:, :-1], at[1:, :-1], prev[:, 1:]))
        for low, start, tail in older:
            use = tail < low
            np.copyto(low, tail, where=use)
            np.copyto(start, -1, where=use)
        regret = np.subtract(g[1:].reshape(nc, m, d), head, out=head)
        value = regret.max()
        if value > 0.0 and -value <= self.best[0]:
            c, i, j = np.nonzero(regret == value)
            start = at[c, i, j]
            for k in np.flatnonzero(start < 0):  # a suffix's latest minimum
                if c[k] == 0:
                    col, first = self.tail[off + 1:w, j[k]], a - w + 1
                    low = col[i[k]]
                else:
                    col, first = prev[c[k] - 1, :, j[k]], a + (c[k] - 1) * w
                    low = col[i[k] + 1]
                start[k] = first + np.searchsorted(col, low, "right") - 1
            width = a + c * m + i - start
            k = np.lexsort((j, start, width))[0]
            self.best = min(self.best, (-value, int(width[k]), int(start[k]),
                                        int(j[k])))
        if self.tail is not None:
            self.tail[off:off + m] = x[-1]
            if off + m == w:  # a whole chunk: its suffix minima
                rows = self.tail[w - 1::-1]
                np.minimum.accumulate(rows, axis=0, out=rows)


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
    (``_WindowScan``), found for every s and j in O(T * d) time whatever
    tau0 is, in one pass over the losses (``_adaptive_details``).

    Returns (value, r, s, j) with 1-based round indices.  Ties go to the
    largest regret, then the smallest width, then the earliest start,
    then the lowest action; when no window has positive regret (always
    for d = 1) the answer is (0, 1, 1, 0).
    """
    realized, l = _realized(p_traj, losses)
    if not 1 <= tau0 <= l.shape[0]:
        raise ValueError("tau0 must satisfy 1 <= tau0 <= T")
    return _adaptive_details(realized, _one_run(l), tau0)


def _adaptive_details(realized: np.ndarray, losses: LossRows, tau0: int
                      ) -> tuple[float, int, int, int]:
    """``adaptive_regret_details`` from one run's realized losses and its
    ``LossRows``, at a checked 1 <= tau0 <= T: one pass over the blocks,
    whose prefix sums (``_RunningSums``) and gains go through the window
    scan.  It holds the scan's O(tau0 d) and four arrays of a block, whose
    2^13 entries keep them below a batched run's ring and loss block."""
    T, d = losses.T, losses.d
    fore, sums = _RunningSums(1), _RunningSums(d)
    scan = _WindowScan(T, d, tau0)
    for lo, hi, rows in losses.blocks(forecasters._block_rows(4 * d)):
        gains = sums.extend(rows[0])
        np.subtract(fore.extend(realized[lo:hi, None]), gains, out=gains)
        scan.extend(lo, gains)
    neg_regret, width, r, arm = scan.best
    if not neg_regret < 0.0:
        return 0.0, 1, 1, 0
    return float(-neg_regret), r + 1, r + width + 1, arm


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
    """Discounted regret and the maximizing corner (linear objective): the
    arm j of least discounted loss, ``SegmentCorners``' hindsight corner
    of u_t = beta_t e_j, and betas . realized - sum_t beta_t l_{t,j}, the
    latter summed exactly (``math.fsum``).  This is the shifting regret
    against u_t = beta_t e_j, as the engine scores a discounted row."""
    realized, l = _realized(p_traj, losses)
    betas = as_discounts(betas, l.shape[0])
    j = _with_corners([Segment(0, l.shape[0], None, betas)], l)[0].vec
    return float(betas @ realized - math.fsum(betas * l[:, j])), j


def discount_regularity(betas, q) -> float:
    """Regularity mass ||beta_1 q||_1 + m((beta_t q)_t) of a discounted
    comparator: max(beta_1, beta_T) for monotone discounts and any
    probability vector q."""
    b = as_discounts(betas)
    qv = np.asarray(q, dtype=float)
    u = b[:, None] * qv[None, :]
    return float(u[0].sum() + regularity_m(u))
