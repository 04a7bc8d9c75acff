"""Seeded loss generators and comparator constructions.

Randomness comes from numpy's PCG64 generator seeded through
``SeedSequence((seed, stream))``, so repetitions get independent,
reproducible streams.  Loss entries are always in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .regret_eval import as_discounts


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Reproducible per-stream generator (PCG64, split by (seed, stream))."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((int(seed), int(stream)))))


@dataclass
class EnvironmentSpec:
    """Declarative description of a loss sequence source."""

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
            raise ValueError(f"unknown environment kind {self.kind!r}")


def _check_means(means, d: int, where: str) -> np.ndarray:
    m = np.asarray(means, dtype=float)
    if m.shape != (d,):
        raise ValueError(f"{where}: expected {d} per-arm means")
    if np.any(m < 0.0) or np.any(m > 1.0):
        raise ValueError(f"{where}: means must lie in [0, 1]")
    return m


def gen_losses(spec: EnvironmentSpec, stream: int = 0) -> np.ndarray:
    """Generate the (T, d) loss matrix for an offline environment kind.

    The adaptive adversary cannot be pre-generated; use
    ``make_adversary`` for it.
    """
    if spec.kind == "adversarial_flip":
        raise ValueError("adversarial_flip is adaptive; use make_adversary")
    if spec.kind == "from_file":
        return load_losses_csv(spec.path, d=spec.d or None, T=spec.T or None)
    if spec.d < 1 or spec.T < 0:
        raise ValueError("environment needs d >= 1 and T >= 0")
    rng = make_rng(spec.seed, stream)
    if spec.kind == "iid_bernoulli":
        means = _check_means(spec.means, spec.d, "means")
        return (rng.random((spec.T, spec.d)) < means).astype(float)
    # piecewise_stationary
    lengths = [int(x) for x in spec.segment_lengths]
    if not lengths or any(x < 1 for x in lengths):
        raise ValueError("segment_lengths must be positive integers")
    if sum(lengths) != spec.T:
        raise ValueError("segment_lengths must sum to T")
    if len(spec.means) != len(lengths):
        raise ValueError("need one per-arm mean vector per segment")
    seg_means = [_check_means(m, spec.d, f"means[{i}]")
                 for i, m in enumerate(spec.means)]
    for i in range(1, len(seg_means)):
        if int(np.argmin(seg_means[i])) == int(np.argmin(seg_means[i - 1])):
            raise ValueError(
                "consecutive segments must favor different arms so that "
                "shifting comparators are meaningful")
    rows = []
    for length, means in zip(lengths, seg_means):
        rows.append((rng.random((length, spec.d)) < means).astype(float))
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
            raise ValueError(f"unknown comparator kind {self.kind!r}")


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
    if spec.kind == "piecewise_corner":
        corners = spec.corners
        if corners is None:
            if losses is None:
                raise ValueError("hindsight corners need the loss matrix")
            corners = hindsight_segment_corners(losses, spec.segment_lengths)
        lengths = [int(x) for x in spec.segment_lengths]
        if sum(lengths) != T:
            raise ValueError("segment_lengths must sum to T")
        if len(corners) != len(lengths):
            raise ValueError("need one corner per segment")
        u = np.zeros((T, d))
        start = 0
        for length, j in zip(lengths, corners):
            if not 0 <= int(j) < d:
                raise ValueError("corner index out of range")
            u[start:start + length, int(j)] = 1.0
            start += length
        return u
    if spec.kind == "adaptive_window":
        r, s = int(spec.r), int(spec.s)
        if not 1 <= r <= s <= T:
            raise ValueError("window must satisfy 1 <= r <= s <= T")
        if np.ndim(spec.q) == 0:
            q = np.zeros(d)
            q[int(spec.q)] = 1.0
        else:
            q = np.asarray(spec.q, dtype=float)
            if q.shape != (d,) or np.any(q < 0.0):
                raise ValueError("q must be a nonnegative d-vector")
        u = np.zeros((T, d))
        u[r - 1:s] = q
        return u
    if spec.kind == "discounted":
        betas = as_discounts(spec.betas, T)
        corner = spec.corner
        if corner is None:
            if losses is None:
                raise ValueError("hindsight corner needs the loss matrix")
            corner = int(np.argmin(betas @ losses))
        u = np.zeros((T, d))
        u[:, int(corner)] = betas
        return u
    # scaled_arbitrary
    u = np.asarray(spec.vectors, dtype=float)
    if u.shape != (T, d) or np.any(u < 0.0):
        raise ValueError("vectors must be a nonnegative (T, d) matrix")
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
