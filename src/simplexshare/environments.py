"""Seeded loss generators and comparator constructions.

Randomness comes from numpy's PCG64 generator seeded through
``SeedSequence((seed, stream))``, so repetitions get independent,
reproducible streams.  Loss entries are always in [0, 1].

The specs check their own fields, and every error message starts with
the offending field (``means[1][3]: must be in [0, 1]``), so a config
parser can report it under the field's config path.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .regret_eval import as_discounts


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

    KINDS = ("iid_bernoulli", "piecewise_stationary", "adversarial_flip",
             "from_file")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"kind: unknown kind {self.kind!r}")
        min_d = 0 if self.kind == "from_file" else 1
        for name, least in (("d", min_d), ("T", 0), ("seed", 0)):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name}: expected an integer")
            if value < least:
                raise ValueError(f"{name}: must be >= {least}")
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
    """Generate the (T, d) loss matrix for an offline environment kind.

    The adaptive adversary cannot be pre-generated; use
    ``make_adversary`` for it.
    """
    if spec.kind == "adversarial_flip":
        raise ValueError("adversarial_flip is adaptive; use make_adversary")
    if spec.kind == "from_file":
        return load_losses_csv(spec.path, d=spec.d or None, T=spec.T or None)
    rng = make_rng(spec.seed, stream)
    if spec.kind == "iid_bernoulli":
        means = np.asarray(spec.means, dtype=float)
        return (rng.random((spec.T, spec.d)) < means).astype(float)
    # piecewise_stationary
    rows = [(rng.random((length, spec.d)) < np.asarray(means, dtype=float)
             ).astype(float)
            for length, means in zip(spec.segment_lengths, spec.means)]
    return np.concatenate(rows, axis=0)


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
    in [0, 1], no header."""
    data = np.loadtxt(Path(path), delimiter=",", ndmin=2)
    if np.any(data < 0.0) or np.any(data > 1.0) or not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: loss entries must lie in [0, 1]")
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

    KINDS = ("piecewise_corner", "adaptive_window", "discounted",
             "scaled_arbitrary")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"kind: unknown kind {self.kind!r}")


def check_comparator(spec: ComparatorSpec, d: int, T: int) -> None:
    """Check a comparator spec against the dimension and the horizon.

    Each message starts with the offending field, e.g. ``corners[3]``.
    """
    if spec.kind == "piecewise_corner":
        _check_segment_lengths(spec.segment_lengths, T)
        if spec.corners is not None:
            if not _is_list(spec.corners) or (
                    len(spec.corners) != len(spec.segment_lengths)):
                raise ValueError("corners: expected one corner per segment")
            for i, j in enumerate(spec.corners):
                _check_index(j, d, f"corners[{i}]")
    elif spec.kind == "adaptive_window":
        for name in ("r", "s"):
            if not _is_int(getattr(spec, name)):
                raise ValueError(f"{name}: expected an integer")
        if not 1 <= spec.r <= spec.s <= T:
            raise ValueError("r: window must satisfy 1 <= r <= s <= T")
        if np.ndim(spec.q) == 0:
            _check_index(spec.q, d, "q")
        else:
            q = _floats(spec.q, "q")
            if q.shape != (d,) or not np.all(q >= 0.0):
                raise ValueError("q: expected a nonnegative d-vector")
    elif spec.kind == "discounted":
        try:
            as_discounts(spec.betas, T)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"betas: {exc}") from exc
        if spec.corner is not None:
            _check_index(spec.corner, d, "corner")
    else:  # scaled_arbitrary
        u = _floats(spec.vectors, "vectors")
        if u.shape != (T, d) or not np.all(u >= 0.0):
            raise ValueError("vectors: expected a nonnegative (T, d) matrix")


def hindsight_segment_corners(losses: np.ndarray, segment_lengths) -> list[int]:
    """Best arm per segment in hindsight (summed losses argmin)."""
    lengths = [int(x) for x in segment_lengths]
    if sum(lengths) != losses.shape[0]:
        raise ValueError("segment_lengths must sum to T")
    corners, start = [], 0
    for length in lengths:
        corners.append(int(np.argmin(losses[start:start + length].sum(axis=0))))
        start += length
    return corners


def gen_comparator(spec: ComparatorSpec, d: int, T: int,
                   losses: np.ndarray | None = None) -> np.ndarray:
    """Materialize a (T, d) comparator matrix.

    Kinds with hindsight defaults (piecewise_corner without explicit
    corners, discounted without an explicit corner) need the loss matrix.
    """
    check_comparator(spec, d, T)
    if spec.kind == "scaled_arbitrary":
        return np.asarray(spec.vectors, dtype=float)
    u = np.zeros((T, d))
    if spec.kind == "piecewise_corner":
        corners = spec.corners
        if corners is None:
            if losses is None:
                raise ValueError("hindsight corners need the loss matrix")
            corners = hindsight_segment_corners(losses, spec.segment_lengths)
        start = 0
        for length, j in zip(spec.segment_lengths, corners):
            u[start:start + length, j] = 1.0
            start += length
    elif spec.kind == "adaptive_window":
        if np.ndim(spec.q) == 0:
            u[spec.r - 1:spec.s, spec.q] = 1.0
        else:
            u[spec.r - 1:spec.s] = np.asarray(spec.q, dtype=float)
    else:  # discounted
        betas = as_discounts(spec.betas, T)
        corner = spec.corner
        if corner is None:
            if losses is None:
                raise ValueError("hindsight corner needs the loss matrix")
            corner = int(np.argmin(betas @ losses))
        u[:, corner] = betas
    return u


def linear_up_discounts(T: int) -> np.ndarray:
    """Nondecreasing ramp beta_t = t / T."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return np.arange(1, T + 1, dtype=float) / T


def linear_down_discounts(T: int) -> np.ndarray:
    """Nonincreasing ramp beta_t = (T + 1 - t) / T."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return np.arange(T, 0, -1, dtype=float) / T
