"""Seeded loss generators and comparator constructions.

Randomness comes from numpy's PCG64 generator seeded through
``SeedSequence((seed, stream))``, so repetitions get independent,
reproducible streams.  Loss entries are always in [0, 1].

The specs check their own fields, ``comparator_segments`` a comparator's
against d and T, and every error message starts with the offending
field (``means[1][3]: must be in [0, 1]``), so a config parser can
report it under the field's config path.
"""

from __future__ import annotations

import bisect
import itertools
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .forecasters import LossRows, _one_run
from .regret_eval import Segment, _rows, as_discounts
from .simplex_core import _check_losses


INDEX_MAX = int(np.iinfo(np.intp).max)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Reproducible per-stream generator (PCG64, split by (seed, stream))."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((int(seed), int(stream)))))


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple, np.ndarray))


def _check_means(means, d: int, where: str) -> np.ndarray:
    if not _is_list(means) or len(means) != d:
        raise ValueError(f"{where}: expected one mean per arm ({d})")
    for j, value in enumerate(means):
        if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                or not 0.0 <= value <= 1.0):
            raise ValueError(f"{where}[{j}]: must be in [0, 1]")
    return np.asarray(means, dtype=float)


def _check_segment_lengths(lengths, T: int) -> None:
    if not _is_list(lengths) or len(lengths) == 0:
        raise ValueError("segment_lengths: expected a nonempty list")
    for i, length in enumerate(lengths):
        if not _is_int(length) or length < 1:
            raise ValueError(f"segment_lengths[{i}]: expected a positive "
                             "integer")
    if sum(lengths) != T:
        raise ValueError("segment_lengths: must sum to T")


def _floats(value, where: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _check_index(value, d: int, where: str) -> None:
    if not _is_int(value) or not 0 <= value < d:
        raise ValueError(f"{where}: expected an arm index in [0, {d})")


@dataclass
class EnvironmentSpec:
    """Declarative description of a loss sequence source.

    For ``from_file``, ``d`` and ``T`` of 0 mean "take them from the file".
    """

    kind: str
    d: int = 0
    T: int = 0
    seed: int = 0
    means: list = field(default_factory=list)
    segment_lengths: list = field(default_factory=list)
    path: str | None = None

    # each kind and the fields it reads besides kind, d and T
    KINDS = {"iid_bernoulli": ("seed", "means"),
             "piecewise_stationary": ("seed", "means", "segment_lengths"),
             "adversarial_flip": ("seed",), "from_file": ("seed", "path")}

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in self.KINDS:
            raise ValueError(f"kind: unknown kind {self.kind!r}")
        min_d = 0 if self.kind == "from_file" else 1
        for name, least, most in (("d", min_d, INDEX_MAX), ("T", 0, INDEX_MAX),
                                  ("seed", 0, None)):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name}: expected an integer")
            if value < least:
                raise ValueError(f"{name}: must be >= {least}")
            if most is not None and value > most:  # numpy's index range
                raise ValueError(f"{name}: must be <= {most}")
        if self.kind == "from_file":
            if not isinstance(self.path, (str, os.PathLike)):
                raise ValueError("path: expected a file path")
        elif self.kind == "iid_bernoulli":
            _check_means(self.means, self.d, "means")
        elif self.kind == "piecewise_stationary":
            _check_segment_lengths(self.segment_lengths, self.T)
            if not _is_list(self.means) or (
                    len(self.means) != len(self.segment_lengths)):
                raise ValueError("means: expected one mean vector per segment")
            best = [int(np.argmin(_check_means(row, self.d, f"means[{i}]")))
                    for i, row in enumerate(self.means)]
            for i in range(1, len(best)):
                if best[i] == best[i - 1]:
                    raise ValueError(f"means[{i}]: consecutive segments "
                                     "must favour different arms")


def gen_losses(spec: EnvironmentSpec, stream: int = 0) -> np.ndarray:
    """The (T, d) loss matrix of an offline environment kind: stream
    ``stream`` of ``loss_rows``, read in one block.  The adaptive
    adversary has ``make_adversary`` instead."""
    if spec.kind == "adversarial_flip":
        raise ValueError("adversarial_flip is adaptive; use make_adversary")
    if spec.kind == "from_file":
        return load_losses_csv(spec.path, d=spec.d or None, T=spec.T or None)
    out = np.empty((spec.T, spec.d))
    DrawnLosses(spec, (stream,))._draw(make_rng(spec.seed, stream), out, 0)
    return out


def loss_rows(spec: EnvironmentSpec, reps: int = 1) -> LossRows:
    """The losses of ``reps`` runs of ``spec``, run i on stream i, as
    ``LossRows`` to replay.  A random kind is redrawn on every pass, a
    loss file is read once and its one matrix serves every run, and the
    adaptive adversary's runs get empty (R, T, d) rows for the run to
    record."""
    if spec.kind == "adversarial_flip":
        return LossRows(np.empty((reps, spec.T, spec.d)))
    if spec.kind == "from_file":
        losses = gen_losses(spec)
        return LossRows(np.broadcast_to(losses, (reps,) + losses.shape))
    return DrawnLosses(spec, range(reps))


class DrawnLosses(LossRows):
    """The losses of a random kind, one run per stream, redrawn from
    ``make_rng(seed, stream)`` on every pass.

    ``random(out=...)`` into consecutive blocks draws the doubles of one
    ``random((T, d))``, and ``less`` writes the 0/1 floats that
    ``(... < means).astype(float)`` gives, so every pass and every block
    size reads the same losses.
    """

    def __init__(self, spec: EnvironmentSpec, streams):
        self.spec, self.streams = spec, tuple(streams)
        self.R, self.T, self.d = len(self.streams), spec.T, spec.d
        if spec.kind == "iid_bernoulli":
            lengths, means = [spec.T], [spec.means]
        else:  # piecewise_stationary
            lengths, means = spec.segment_lengths, spec.means
        self._ends = np.cumsum(lengths).tolist()
        self._segments = [(b - n, b, np.asarray(row, dtype=float))
                          for n, b, row in zip(lengths, self._ends, means)]

    def _draw(self, rng: np.random.Generator, out: np.ndarray, lo: int
              ) -> None:
        """Rounds [lo, lo + len(out)) of one run, into the C-contiguous
        ``out``; ``rng`` has drawn the rounds before lo."""
        rng.random(out=out)
        hi = lo + len(out)
        first = bisect.bisect_right(self._ends, lo)  # the segment of lo
        for a, b, means in itertools.islice(self._segments, first, None):
            if a >= hi:
                break
            rows = out[max(a, lo) - lo:min(b, hi) - lo]
            np.less(rows, means, out=rows)

    def _blocks(self, rows: int):
        rngs = [make_rng(self.spec.seed, s) for s in self.streams]
        out = np.empty((self.R, min(rows, self.T), self.d))
        for lo in range(0, self.T, rows):
            hi = min(lo + rows, self.T)
            for rng, run in zip(rngs, out):
                self._draw(rng, run[:hi - lo], lo)
            yield lo, hi, out[:, :hi - lo]

    def run(self, i: int) -> "DrawnLosses":
        return DrawnLosses(self.spec, self.streams[i:i + 1])


class AdversarialFlip:
    """Adaptive adversary assigning loss 1 to the forecaster's heaviest
    coordinate each round (ties broken with the seeded stream).

    Single-owner per run: call as ``adversary(t, p_t)``.
    """

    def __init__(self, d: int, seed: int = 0, stream: int = 0):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self._rng = make_rng(seed, stream)

    def __call__(self, t: int, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        top = np.flatnonzero(p >= p.max() - 1e-12)
        hit = top[self._rng.integers(top.size)] if top.size > 1 else top[0]
        loss = np.zeros(self.d)
        loss[hit] = 1.0
        return loss


def make_adversary(spec: EnvironmentSpec, stream: int = 0) -> AdversarialFlip:
    if spec.kind != "adversarial_flip":
        raise ValueError("spec does not describe an adaptive adversary")
    return AdversarialFlip(spec.d, seed=spec.seed, stream=stream)


def load_losses_csv(path, d: int | None = None, T: int | None = None
                    ) -> np.ndarray:
    """Load losses from CSV: one row per round, d comma-separated reals
    in [0, 1] (checked once, here), no header; errors name the path."""
    data = np.loadtxt(Path(path), delimiter=",", ndmin=2)
    _check_losses(data, f"{path}: ")
    if d is not None and data.shape[1] != d:
        raise ValueError(f"{path}: expected {d} columns, found {data.shape[1]}")
    if T is not None and data.shape[0] != T:
        raise ValueError(f"{path}: expected {T} rows, found {data.shape[0]}")
    return data


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------


@dataclass
class ComparatorSpec:
    """Declarative description of a comparator sequence."""

    kind: str
    segment_lengths: list = field(default_factory=list)
    corners: list | None = None
    r: int = 1
    s: int = 1
    q: object = None
    betas: object = None
    corner: int | None = None
    vectors: object = None

    # each kind and the fields it reads besides kind
    KINDS = {"piecewise_corner": ("segment_lengths", "corners"),
             "adaptive_window": ("r", "s", "q"),
             "discounted": ("betas", "corner"), "scaled_arbitrary": ("vectors",)}

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in self.KINDS:
            raise ValueError(f"kind: unknown kind {self.kind!r}")


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


def hindsight_segment_corners(losses, segment_lengths) -> list[int]:
    """Best arm per segment in hindsight (summed losses argmin) of a
    (T, d) matrix or one run's ``LossRows``, read in one pass; the
    lengths are checked as a ``piecewise_corner`` comparator's."""
    spec = ComparatorSpec(kind="piecewise_corner",
                          segment_lengths=segment_lengths)
    source = _one_run(losses)
    u = comparator_segments(spec, source.d, source.T)
    return [seg.vec for seg in _with_corners(u, source)]


def gen_comparator(spec: ComparatorSpec, d: int, T: int,
                   losses: np.ndarray | None = None) -> np.ndarray:
    """Materialize a (T, d) comparator matrix: the rows of
    ``comparator_segments`` (which checks the spec), whose hindsight
    corners (piecewise_corner without corners, discounted without a
    corner) are found in ``losses``."""
    u = comparator_segments(spec, d, T)
    if any(seg.vec is None for seg in u):
        if losses is None:
            raise ValueError("hindsight corners need the losses")
        u = _with_corners(u, losses)
    return _rows(u, 0, T, d)


def comparator_segments(spec: ComparatorSpec, d: int, T: int
                        ) -> list[Segment]:
    """The comparator of ``spec`` as ``regret_eval.Segment`` rows, each
    kind checked against the dimension and the horizon where its rows are
    laid out; every message starts with the offending field, e.g.
    ``corners[3]``.  ``scaled_arbitrary`` is one block of T rows.  A
    hindsight corner (piecewise_corner without corners, discounted
    without a corner) is ``Segment(a, b, None, scale)``, for
    ``SegmentCorners`` to find."""
    if spec.kind == "scaled_arbitrary":
        u = _floats(spec.vectors, "vectors")
        if u.shape != (T, d) or not np.all(np.isfinite(u) & (u >= 0.0)):
            raise ValueError("vectors: expected a nonnegative (T, d) matrix")
        return [Segment(0, T, np.ascontiguousarray(u))]
    if spec.kind == "adaptive_window":
        for name in ("r", "s"):
            if not _is_int(getattr(spec, name)):
                raise ValueError(f"{name}: expected an integer")
        if not 1 <= spec.r <= spec.s <= T:
            raise ValueError("r: window must satisfy 1 <= r <= s <= T")
        q = spec.q
        if np.ndim(q) == 0:
            _check_index(q, d, "q")
        else:
            q = _floats(q, "q")
            if q.shape != (d,) or not np.all(np.isfinite(q) & (q >= 0.0)):
                raise ValueError("q: expected a finite nonnegative d-vector")
        return [Segment(spec.r - 1, spec.s, q)]
    if spec.kind == "discounted":
        try:
            betas = as_discounts(spec.betas, T)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"betas: {exc}") from exc
        if spec.corner is not None:
            _check_index(spec.corner, d, "corner")
        return [Segment(0, T, spec.corner, betas)]
    lengths, corners = spec.segment_lengths, spec.corners
    _check_segment_lengths(lengths, T)
    if corners is None:
        corners = [None] * len(lengths)
    else:
        if not _is_list(corners) or len(corners) != len(lengths):
            raise ValueError("corners: expected one corner per segment")
        for i, j in enumerate(corners):
            _check_index(j, d, f"corners[{i}]")
    ends = np.cumsum(lengths).tolist()
    return [Segment(b - n, b, j) for n, b, j in zip(lengths, ends, corners)]


def linear_up_discounts(T: int) -> np.ndarray:
    """Nondecreasing ramp beta_t = t / T."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return np.arange(1, T + 1, dtype=float) / T


def linear_down_discounts(T: int) -> np.ndarray:
    """Nonincreasing ramp beta_t = (T + 1 - t) / T."""
    return linear_up_discounts(T)[::-1].copy()
