"""The generalized share forecaster for online linear optimization.

Each round the forecaster plays a distribution p_t over d actions,
observes a loss vector in [0,1]^d, forms exponentially reweighted
pre-weights v_{t+1}, and then applies a *mixing rule* to produce
p_{t+1}.  The mixing rules implemented here:

* ``fixed_share``       -- p = alpha/d + (1-alpha) v (max share's mix at w = 1)
* ``projected``         -- KL projection of v onto the clipped simplex
* ``max_share``         -- mix toward the running max of past pre-weights
* ``decayed_max_share`` -- same, decayed by e^-gamma a round (max share: 0)
* ``time_varying``      -- fixed share with non-increasing (eta_t, alpha_t)

Weights are stored in the log domain internally and renormalized by
subtracting the max log-weight before exponentiation: eta * T can reach
the hundreds, where naive exponentials underflow.  ``simplex_core``'s
checkers test each parameter and loss once, where it enters: in the
rule, the state, the public ops, ``_round_params`` (schedule values),
``_start`` (a loss array) and ``_rounds`` (each adversary row).  Every
rule is the time-varying update at its (eta_t, alpha_t), so every run
takes one round loop, ``_rounds``, which reads them before round 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

import numpy as np

from .simplex_core import (_check_alpha, _check_eta, _check_floor,
                           _check_gamma, _check_losses, _check_schedule_step,
                           as_distribution, clipped_numerators,
                           kl_project_clipped, kl_project_rows)

Schedule = Union[Callable[[int], float], Sequence[float]]


def as_loss_vector(loss, d: int | None = None) -> np.ndarray:
    """Validate a loss vector with entries in [0, 1], where the guarantees
    hold; the rest is rejected, not clipped, which would mask caller bugs."""
    v = np.asarray(loss, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("loss must be a 1-d vector")
    _check_losses(v)
    if d is not None and v.size != d:
        raise ValueError(f"loss has dimension {v.size}, expected {d}")
    return v


# ---------------------------------------------------------------------------
# log-domain kernels over a trailing d axis (one code path shared by the
# public ops, ForecasterState and the batched driver, so equivalences
# between rules and between single and batched runs hold bitwise).  The
# optional ``out``, scratch ``sc = (work, m, s)`` (input-shaped, then two
# (..., 1) columns) and spare input-shaped ``buf`` say where to write.
# A round normalizes once, in its loss step: a mix sums to 1 in exact
# arithmetic, and only what is emitted is renormalized, by ``_to_linear``.
# The shared-weights mix takes no alpha branch: a -inf term drops out exactly.
# ---------------------------------------------------------------------------


def _logsumexp(logw: np.ndarray, sc=(None,) * 3) -> np.ndarray:
    work, m, s = sc
    m = np.maximum.reduce(logw, -1, None, m, True)
    work = np.subtract(logw, m, work)
    s = np.add.reduce(np.exp(work, work), -1, None, s, True)
    return np.add(m, np.log(s, s), s)


def _log_normalize(logw: np.ndarray, out=None, sc=(None,) * 3) -> np.ndarray:
    return np.subtract(logw, _logsumexp(logw, sc), out)


def _to_linear(logw: np.ndarray) -> np.ndarray:
    p = np.exp(_log_normalize(logw))
    return p / np.add.reduce(p, axis=-1, keepdims=True)


def _log_loss_step(log_p, eta_loss, pow_ratio=1.0, out=None, sc=(None,) * 3):
    """Normalized pow_ratio * log_p - eta_loss, formed in ``eta_loss``."""
    unit = isinstance(pow_ratio, float) and pow_ratio == 1.0  # 1.0 * x is x
    np.subtract(log_p if unit else pow_ratio * log_p, eta_loss, eta_loss)
    return _log_normalize(eta_loss, out, sc)


def _share_consts(variant: str, alpha: float, d: int):
    """What a rule's mix computes from alpha alone: projected's numerators
    (None at alpha 0), else ln(1 - alpha), ln(alpha) and ln(alpha) - ln(d)."""
    if variant == "projected":
        return None if alpha == 0.0 else clipped_numerators(alpha, d)
    # -inf at alpha 1 and 0 without numpy's divide warning, or the
    # microsecond that np.errstate costs each round of a time-varying run
    log_keep = float(np.log1p(-alpha)) if alpha < 1.0 else -math.inf
    log_alpha = float(np.log(alpha)) if alpha > 0.0 else -math.inf
    return log_keep, log_alpha, log_alpha - math.log(d)


def _log_fixed_share(log_v, consts, out=None, buf=None) -> np.ndarray:
    """Max share's mix at log w = 0, log Z = ln d: its share term is the
    constant ln(alpha) - ln(d), finite at every alpha > 0."""
    log_keep, _, log_share = consts
    return np.logaddexp(np.add(log_keep, log_v, buf), log_share, out)


def _log_projected(log_v: np.ndarray, alpha: float, consts=None) -> np.ndarray:
    """Projects exp(log v): the projection renormalizes what it floors."""
    if alpha == 0.0:
        return log_v
    return np.log(kl_project_rows(np.exp(log_v), alpha, consts))


def _log_max_share(log_w: np.ndarray, log_v_next: np.ndarray, gamma: float,
                   consts, out=None, sc=(None,) * 3, buf=None
                   ) -> tuple[np.ndarray, np.ndarray]:
    log_w_next = np.maximum(np.subtract(log_w, gamma, buf), log_v_next)
    log_z = _logsumexp(log_w_next, sc)
    log_keep, log_alpha, _ = consts
    shared = np.add(log_alpha, log_w_next, sc[0])
    return np.logaddexp(np.add(log_keep, log_v_next, buf),
                        np.subtract(shared, log_z, shared), out), log_w_next


# ---------------------------------------------------------------------------
# public single-step operations (linear domain)
# ---------------------------------------------------------------------------


def _log_distribution(p) -> np.ndarray:
    """The log of a checked distribution, -inf at its zero entries."""
    with np.errstate(divide="ignore"):
        return np.log(as_distribution(p))


def loss_update(p, loss, eta: float) -> np.ndarray:
    """Exponential reweighting: v_j = p_j exp(-eta l_j) / normalizer."""
    _check_eta(eta)
    log_p = _log_distribution(p)
    lv = as_loss_vector(loss, log_p.size)
    return _to_linear(_log_loss_step(log_p, eta * lv))


def mix_fixed_share(v, alpha: float) -> np.ndarray:
    """Fixed-share mixing p_j = alpha/d + (1-alpha) v_j."""
    _check_alpha(alpha)
    log_v = _log_distribution(v)
    consts = _share_consts("fixed_share", alpha, log_v.size)
    return _to_linear(_log_fixed_share(log_v, consts))


def mix_projected(v, alpha: float) -> np.ndarray:
    """KL projection of the pre-weights onto the clipped simplex."""
    return kl_project_clipped(v, alpha)


def mix_max_share(w, v_next, alpha: float, gamma: float = 0.0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Share update mixing toward a running max of past pre-weights.

    Updates the auxiliary weights to w' = max(exp(-gamma) * w, v_next)
    componentwise (gamma = 0 gives the plain running max), then returns

        p = (1 - alpha) * v_next + alpha * w' / sum(w')

    together with the updated auxiliary weights.  This recursion only
    ever keeps d numbers, yet equals the definitional decayed max over
    the whole pre-weight history.
    """
    _check_alpha(alpha)
    _check_gamma(gamma, zero=True)
    wv = np.asarray(w, dtype=float)
    log_v = _log_distribution(v_next)
    if wv.shape != log_v.shape:
        raise ValueError("dimension mismatch")
    if not np.all((wv > 0.0) & (wv <= 1.0 + 1e-12)):  # NaN fails too
        raise ValueError("auxiliary weights must lie in (0, 1]")
    consts = _share_consts("max_share", alpha, log_v.size)
    log_p, log_w = _log_max_share(np.log(wv), log_v, gamma, consts)
    return _to_linear(log_p), np.exp(log_w)


def step_time_varying(p, loss, eta_t: float, eta_prev: float, alpha_t: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """One round of the share update with time-varying parameters.

    v_{j} = p_j^(eta_t/eta_prev) exp(-eta_t l_j) / normalizer, then
    fixed-share mixing with alpha_t.  Requires eta_t <= eta_prev (the
    power is a contraction only for non-increasing rates).  With
    eta_t == eta_prev this is exactly loss_update + mix_fixed_share.
    """
    _check_eta(eta_t, "eta_t")
    _check_eta(eta_prev, "eta_prev")
    _check_alpha(alpha_t, "alpha_t")
    _check_schedule_step(eta_prev, eta_t, alpha_t, alpha_t)  # no alpha_prev
    log_p = _log_distribution(p)
    if np.any(log_p == -math.inf):
        raise ValueError("time-varying step requires strictly positive p")
    lv = as_loss_vector(loss, log_p.size)
    log_v = _log_loss_step(log_p, eta_t * lv, eta_t / eta_prev)
    v_next = _to_linear(log_v)
    consts = _share_consts("fixed_share", alpha_t, log_p.size)
    p_next = _to_linear(_log_fixed_share(log_v, consts))
    return p_next, v_next


# ---------------------------------------------------------------------------
# mixing rules and the driver
# ---------------------------------------------------------------------------

VARIANTS = ("fixed_share", "projected", "max_share", "decayed_max_share",
            "time_varying")


@dataclass(frozen=True)
class MixingRule:
    """Configuration selecting the shared update applied after each loss."""

    variant: str
    alpha: float | None = None
    gamma: float | None = None
    eta_schedule: Schedule | None = None
    alpha_schedule: Schedule | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "time_varying":
            if self.eta_schedule is None or self.alpha_schedule is None:
                raise ValueError("time_varying requires both schedules")
        else:
            _check_alpha(self.alpha)
            if self.variant == "decayed_max_share":
                _check_gamma(self.gamma)

    @property
    def _decay(self) -> float | None:
        """The running max's decay: 0.0 for max share, None without one."""
        return {"max_share": 0.0,
                "decayed_max_share": self.gamma}.get(self.variant)

    @classmethod
    def fixed_share(cls, alpha: float) -> "MixingRule":
        return cls("fixed_share", alpha=alpha)

    @classmethod
    def projected(cls, alpha: float) -> "MixingRule":
        return cls("projected", alpha=alpha)

    @classmethod
    def max_share(cls, alpha: float) -> "MixingRule":
        return cls("max_share", alpha=alpha)

    @classmethod
    def decayed_max_share(cls, alpha: float, gamma: float) -> "MixingRule":
        return cls("decayed_max_share", alpha=alpha, gamma=gamma)

    @classmethod
    def time_varying(cls, eta_schedule: Schedule, alpha_schedule: Schedule
                     ) -> "MixingRule":
        return cls("time_varying", eta_schedule=eta_schedule,
                   alpha_schedule=alpha_schedule)


def _schedule_value(sched: Schedule, t: int) -> float:
    if not callable(sched) and t > len(sched):
        raise ValueError(f"schedule has {len(sched)} values, none for t={t}")
    return float(sched(t)) if callable(sched) else float(sched[t - 1])


def _round_params(rule: MixingRule, eta: float | None, lo: int, hi: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(eta_t, alpha_t) of rounds t = lo..hi - 1, as two arrays.  Schedule
    values are read, and so checked, only here, each step from round
    max(lo - 1, 1) on too; a constant rule's were checked before."""
    if rule.variant != "time_varying":
        return (np.full(hi - lo, eta, dtype=float),
                np.full(hi - lo, rule.alpha, dtype=float))
    first = max(lo - 1, 1)
    etas, alphas = np.empty(hi - first), np.empty(hi - first)
    for i, t in enumerate(range(first, hi)):
        etas[i] = _check_eta(_schedule_value(rule.eta_schedule, t),
                             f"eta schedule at t={t}")
        alphas[i] = _check_alpha(_schedule_value(rule.alpha_schedule, t),
                                 f"alpha schedule at t={t}")
        if i:
            _check_schedule_step(etas[i - 1], etas[i], alphas[i - 1],
                                 alphas[i])
    return etas[lo - first:], alphas[lo - first:]


class ForecasterState:
    """Single-owner mutable state of one forecaster run, or of ``reps``
    runs stepped in lockstep (every weight array then gains a leading
    reps axis); one thread at a time.  Storage is O(reps * d) whatever
    the horizon, and arrays read from a state keep their values."""

    def __init__(self, d: int, rule: MixingRule, eta: float | None = None,
                 reps: int | None = None):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if rule.variant == "projected":
            _check_floor(rule.alpha, d)
        self.d = d
        self.rule = rule
        if rule.variant == "time_varying":
            self.eta = None
        else:
            self.eta = float(_check_eta(eta))
        self.t = 1
        shape = (d,) if reps is None else (reps, d)
        log_u = np.full(shape, -np.log(d))
        self.log_p = log_u
        self.log_v = log_u.copy()
        self._gamma = rule._decay
        self.log_w = None if self._gamma is None else log_u.copy()
        self._eta_prev: float | None = None
        self._alpha_prev: float | None = None
        column = shape[:-1] + (1,)
        self._sc = (np.empty(shape), np.empty(column), np.empty(column))

    @property
    def p(self) -> np.ndarray:
        return _to_linear(self.log_p)

    @property
    def v(self) -> np.ndarray:
        return _to_linear(self.log_v)

    @property
    def w(self) -> np.ndarray | None:
        return None if self.log_w is None else np.exp(self.log_w)

    def update(self, loss) -> None:
        """Observe the loss for the current round and advance one step."""
        loss = np.broadcast_to(as_loss_vector(loss, self.d), self.log_p.shape)
        etas, alphas = _round_params(self.rule, self.eta, self.t, self.t + 1)
        eta_t, alpha_t = float(etas[0]), float(alphas[0])
        self._advance(eta_t * loss, eta_t, alpha_t)

    def _advance(self, eta_loss: np.ndarray, eta_t: float, alpha_t: float,
                 out: np.ndarray | None = None) -> None:
        """One step at the round's ``_round_params``, overwriting
        ``eta_loss`` (eta_t times a validated loss of the state's shape);
        the new log p goes into ``out`` if given.  A constant rate's power
        eta_t / eta_prev is exactly 1."""
        eta_prev = self._eta_prev if self._eta_prev is not None else eta_t
        sc, variant = self._sc, self.rule.variant
        self.log_v = log_v = _log_loss_step(self.log_p, eta_loss,
                                            eta_t / eta_prev, None, sc)
        if alpha_t != self._alpha_prev:  # else last round's still hold
            self._consts = _share_consts(variant, alpha_t, self.d)
        if variant == "projected":
            log_p = _log_projected(log_v, alpha_t, self._consts)
        elif self.log_w is None:
            log_p = _log_fixed_share(log_v, self._consts, out, eta_loss)
        else:
            log_p, self.log_w = _log_max_share(self.log_w, log_v, self._gamma,
                                               self._consts, out, sc, eta_loss)
        if out is not None and log_p is not out:
            out[...] = log_p
            log_p = out
        self.log_p = log_p
        self._eta_prev, self._alpha_prev = eta_t, alpha_t
        self.t += 1


def _block_rows(d: int) -> int:
    """Rows of d entries in one block of at most 2^15 entries: the unit
    in which records are converted, so no temporary grows with T."""
    return max(1, (1 << 15) // d)


class LossRows:
    """Replayable losses of R runs over T rounds of d actions.

    ``blocks()`` is one pass over the rounds in order: it yields
    ``(lo, hi, rows)``, ``rows`` being rounds [lo, hi) of every run as an
    (R, hi - lo, d) array that stays valid until the next block is read.
    Blocks have ``_block_rows(d)`` rows unless asked otherwise, so a pass
    holds at most 2^15 entries per run; the batched run asks for
    ``_block_rows(R d)``, 2^15 in all.  ``run(i)`` is run i alone.  This
    class reads an (R, T, d) array, which may broadcast one (T, d) matrix
    to every run.
    """

    def __init__(self, losses: np.ndarray):
        self.losses = losses
        self.R, self.T, self.d = losses.shape

    def blocks(self, rows: int | None = None):
        return self._blocks(rows or _block_rows(self.d))

    def _blocks(self, rows: int):
        for lo in range(0, self.T, rows):
            yield lo, min(lo + rows, self.T), self.losses[:, lo:lo + rows]

    def run(self, i: int) -> "LossRows":
        return LossRows(self.losses[i:i + 1])


def _one_run(losses) -> LossRows:
    """One run's losses as ``LossRows``: the rows themselves, or a (T, d)
    matrix."""
    if isinstance(losses, LossRows):
        return losses
    return LossRows(np.asarray(losses, dtype=float)[None])


def _played_losses(log_p: np.ndarray, losses: np.ndarray) -> np.ndarray:
    """p_t . l_t of (T, d) log-weight rows and their loss rows, formed in
    blocks of ``_block_rows(d)`` rows: the one p_t . l_t of the library."""
    out = np.empty(losses.shape[0])
    block = _block_rows(losses.shape[1])
    for lo in range(0, losses.shape[0], block):
        out[lo:lo + block] = np.einsum("td,td->t",
                                       _to_linear(log_p[lo:lo + block]),
                                       losses[lo:lo + block])
    return out


def _linear(log_w: np.ndarray) -> np.ndarray:
    """``_to_linear`` of every row of a log-weight record."""
    rows = log_w.reshape(-1, log_w.shape[-1])
    out = np.empty(rows.shape)
    block = _block_rows(rows.shape[1])
    for lo in range(0, rows.shape[0], block):
        out[lo:lo + block] = _to_linear(rows[lo:lo + block])
    return out.reshape(log_w.shape)


@dataclass
class Trajectory:
    """Full record of one run, for regret evaluation and certification:
    ``log_p`` (log p_1..log p_{T+1}), ``losses`` and the per-round
    parameters used (``etas``, ``alphas``), for every rule.  Every other
    record, max-share's ``log_w`` and ``w`` included, is recomputed from
    these in blocks on each access, bit for bit what the run computed;
    keep the result when reading one repeatedly.  A batch of R lockstep
    runs gives every per-run array a leading R axis and shares ``etas``
    and ``alphas``; ``rep(i)`` views run i."""

    rule: MixingRule
    d: int
    T: int
    log_p: np.ndarray
    losses: np.ndarray
    etas: np.ndarray
    alphas: np.ndarray

    @property
    def p(self) -> np.ndarray:
        """The distributions p_1..p_{T+1}."""
        return _linear(self.log_p)

    def _loss_updates(self, log_v=None) -> np.ndarray:
        """Log normalizers c_t, (T,) or (R, T), of the loss updates of log
        p_t, formed by the run's kernel in blocks of ``_block_rows(d)``
        rounds; the normalized updates go into ``log_v`` if given."""
        ratio = (self.etas / self.eta_prevs)[:, None]  # 1.0 * x is x
        c = np.empty(self.losses.shape[:-1] + (1,))
        for lo in range(0, self.T, block := _block_rows(self.d)):
            t = slice(lo, min(lo + block, self.T))
            out = None if log_v is None else log_v[..., t, :]
            _log_loss_step(self.log_p[..., t, :],
                           self.etas[t, None] * self.losses[..., t, :],
                           ratio[t], out, (out, None, c[..., t, :]))
        return c[..., 0]

    @property
    def log_v(self) -> np.ndarray:
        """Log pre-weights: each round's loss update of log p_t."""
        log_v = np.empty(self.losses.shape)
        self._loss_updates(log_v)
        return log_v

    @property
    def v(self) -> np.ndarray:
        """The pre-weights v_2..v_{T+1}."""
        return _linear(self.log_v)

    @property
    def log_w(self) -> np.ndarray | None:
        """Log auxiliary weights log w_1..log w_{T+1} (max-share rules
        only), rescanned with ``_log_max_share``'s running decayed max."""
        if (gamma := self.rule._decay) is None:
            return None
        log_w = np.full(self.log_p.shape, -np.log(self.d))
        self._loss_updates(log_w[..., 1:, :])
        for t in range(self.T):
            np.maximum(log_w[..., t, :] - gamma, log_w[..., t + 1, :],
                       out=log_w[..., t + 1, :])
        return log_w

    @property
    def w(self) -> np.ndarray | None:
        """The auxiliary weights w_1..w_{T+1} (max-share rules only)."""
        return None if (log_w := self.log_w) is None else np.exp(log_w)

    @property
    def played(self) -> np.ndarray:
        """The distributions actually played, one row per round."""
        return _linear(self.log_p[..., : self.T, :])

    @property
    def realized(self) -> np.ndarray:
        """The forecaster's loss p_t . l_t in each round."""
        if self.log_p.ndim == 3:
            return np.stack([self.rep(i).realized
                             for i in range(len(self.log_p))])
        return _played_losses(self.log_p[: self.T], self.losses)

    @property
    def eta_prevs(self) -> np.ndarray:
        """Previous-round learning rates, with eta_0 = eta_1."""
        return np.concatenate([self.etas[:1], self.etas[:-1]])

    def rep(self, i: int) -> "Trajectory":
        """Run ``i`` of a batched trajectory, as views into the batch."""
        if self.log_p.ndim != 3:
            raise ValueError("rep(i) needs a batched trajectory, not one run")
        return replace(self, log_p=self.log_p[i], losses=self.losses[i])


def _rounds(rule: MixingRule, eta: float | None, source: LossRows,
            adversaries, ring: np.ndarray, done
            ) -> tuple[np.ndarray, np.ndarray]:
    """Play ``rule`` from uniform weights through one pass of ``source``
    in blocks of ``rows = ring.shape[1] - 1`` rounds; return every round's
    (eta_t, alpha_t), read and checked before round 1.

    Only adversary rows are checked here, row t of a block in round t as
    it is written; other losses were checked where they entered.  Each
    run's ``rows + 1`` ``ring`` rows hold log p_lo..log p_hi after rounds
    [lo, hi), ``done(lo, hi, ring[:, :hi - lo], block)`` reads the rows
    played and their losses, and the last row moves to the front for the
    next block; a ring of T + 1 rows is the whole record.
    """
    R, T, d = source.R, source.T, source.d
    rows = ring.shape[1] - 1
    state = ForecasterState(d, rule, eta, reps=R)
    etas, alphas = _round_params(rule, state.eta, 1, T + 1)
    ring[:, 0] = state.log_p
    # eta_t times the loss is formed ahead in round-major chunks of at
    # most 2^14 entries; an adversary's rows come one round at a time.
    step = 1 if adversaries else max(1, 16384 // (R * d))
    scaled = np.empty((min(step, rows, T), R, d))
    for lo, hi, loss in source.blocks(rows):
        for i, (eta_t, alpha_t) in enumerate(zip(etas[lo:hi].tolist(),
                                                 alphas[lo:hi].tolist())):
            t = lo + i  # i is the round's row of the block
            if adversaries is not None:
                p_t = state.p
                for r, adversary in enumerate(adversaries):
                    row = np.asarray(adversary(t + 1, p_t[r]), dtype=float)
                    if row.shape != (d,):
                        raise ValueError(f"loss has shape {row.shape}, "
                                         f"expected ({d},)")
                    loss[r, i] = row
                _check_losses(loss[:, i])
            if (k := i % step) == 0:
                n = min(step, hi - t)
                np.multiply(etas[t:t + n, None, None],
                            loss[:, i:i + n].swapaxes(0, 1), scaled[:n])
            state._advance(scaled[k], eta_t, alpha_t, ring[:, i + 1])
        done(lo, hi, ring[:, :hi - lo], loss)
        if hi < T:
            ring[:, 0] = ring[:, hi - lo]
            state.log_p = ring[:, 0]
    return etas, alphas


def _start(losses, d, horizon):
    """The losses as ``LossRows`` (empty for adversaries, which fill them),
    the adversaries or None, and whether the input was one run."""
    adversaries = None
    if callable(losses):
        adversaries = [losses]
    elif (isinstance(losses, (list, tuple)) and losses
          and all(callable(f) for f in losses)):
        adversaries = list(losses)
    if adversaries is not None:
        if d is None or horizon is None:
            raise ValueError("callable losses require d and horizon")
        single = callable(losses)
        loss = np.empty((len(adversaries), int(horizon), d))
    else:
        loss = np.asarray(losses, dtype=float)
        if loss.ndim not in (2, 3):
            raise ValueError("losses must be a (T, d) or (R, T, d) array")
        if d is None:
            d = loss.shape[-1]
        elif d != loss.shape[-1]:
            raise ValueError("losses do not match the requested dimension")
        single = loss.ndim == 2
        if single:
            loss = loss[None]
        _check_losses(loss)
    return LossRows(loss), adversaries, single


def run_forecaster(rule: MixingRule, eta: float | None, losses, *,
                   d: int | None = None, horizon: int | None = None
                   ) -> Trajectory:
    """Run the share forecaster from uniform weights over a loss stream.

    ``losses`` is either an array-like of shape (T, d) or a callable
    ``(t, p_t) -> loss`` for adaptive environments (then ``d`` and
    ``horizon`` are required).  An (R, T, d) array or a list of R
    callables runs R repetitions in lockstep and returns one batched
    Trajectory (see ``Trajectory.rep``); each repetition equals its
    single run bit for bit.  Array losses are validated once, up front;
    each callable's output is validated every round.  ``eta`` is
    ignored by the time_varying rule, whose schedules carry the rates.
    """
    source, adversaries, single = _start(losses, d, horizon)
    R, T, d = source.R, source.T, source.d
    log_p = np.empty((R, T + 1, d))
    etas, alphas = _rounds(rule, eta, source, adversaries, log_p,
                           lambda *block: None)
    traj = Trajectory(rule=rule, d=d, T=T, log_p=log_p, losses=source.losses,
                      etas=etas, alphas=alphas)
    return traj.rep(0) if single else traj


@dataclass
class RealizedRun:
    """What certifying a batch of R lockstep runs needs from them: the
    losses ``source`` to replay, the (R, T) realized losses p_t . l_t
    (bit for bit what the regret evaluators form from a ``Trajectory``)
    and the per-round parameters."""

    source: LossRows
    realized: np.ndarray
    etas: np.ndarray
    alphas: np.ndarray


def _run_realized(rule: MixingRule, eta: float | None, source: LossRows,
                  adversaries, each_block) -> RealizedRun:
    """``run_forecaster`` over one pass of ``source`` (checked losses),
    without the record: each block of at most 2^15 losses across the R
    runs is played through a ring of as many log p entries and becomes
    realized losses, so a batch holds O(2^15 + R T) besides ``source``:
    nothing for a drawn kind, a loss file's one matrix, or the (R, T, d)
    rows that ``adversaries`` (one per run, or None) write.
    ``each_block(lo, hi, rows)`` also reads every block once it is
    played."""
    R, T, d = source.R, source.T, source.d
    realized = np.empty((R, T))

    def done(lo, hi, rows, loss):
        for i in range(R):
            realized[i, lo:hi] = _played_losses(rows[i], loss[i])
        each_block(lo, hi, loss)

    ring = np.empty((R, min(_block_rows(R * d), T) + 1, d))
    etas, alphas = _rounds(rule, eta, source, adversaries, ring, done)
    return RealizedRun(source=source, realized=realized, etas=etas,
                       alphas=alphas)


# ---------------------------------------------------------------------------
# per-round certificates
# ---------------------------------------------------------------------------


def certificate_slacks(traj: Trajectory) -> np.ndarray:
    """Slack of the per-round regret certificate (p_t - q) . l_t <= sum_i
    q_i (ln(v_{i,t+1})/eta_t - ln(p_{i,t})/eta_{t-1}) + (1/eta_t
    - 1/eta_{t-1}) ln d + eta_{t-1}/8 (eta_0 = eta_1), the same for every
    q: g_t - p_t . l_t, g_t = -c_t/eta_t + (1/eta_t - 1/eta_{t-1}) ln d
    + eta_{t-1}/8, c_t the loss update's log normalizer.  (T,), or (R, T)
    for a batch; a valid run's entries are >= -1e-9 up to float error."""
    eta, eta_prev = traj.etas, traj.eta_prevs
    return (-traj._loss_updates() / eta + (1.0 / eta - 1.0 / eta_prev)
            * np.log(traj.d) + eta_prev / 8.0 - traj.realized)


def small_loss_certificate_slacks(traj: Trajectory) -> np.ndarray:
    """Slack of the small-loss certificate ((1-e^-eta)/eta) p_t . l_t
    - q . l_t <= (1/eta) sum_i q_i ln(v_{i,t+1}/p_{i,t}), which is
    -c_t/eta + (expm1(-eta)/eta) p_t . l_t for every q: (T,) or (R, T).
    It is stated at a constant rate, so a run whose eta varies is refused."""
    eta = traj.etas
    if np.any(eta != eta[0]):
        raise ValueError("the small-loss certificate needs a constant rate")
    return -traj._loss_updates() / eta + np.expm1(-eta) / eta * traj.realized
