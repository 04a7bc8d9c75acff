"""The generalized share forecaster for online linear optimization.

Each round the forecaster plays a distribution p_t over d actions,
observes a loss vector in [0,1]^d, forms exponentially reweighted
pre-weights v_{t+1}, and then applies a *mixing rule* to produce
p_{t+1}.  The mixing rules implemented here:

* ``fixed_share``       -- p = alpha/d + (1-alpha) v
* ``projected``         -- KL projection of v onto the clipped simplex
* ``max_share``         -- mix toward the running max of past pre-weights
* ``decayed_max_share`` -- same with exponential decay of the running max
* ``time_varying``      -- fixed share with non-increasing (eta_t, alpha_t)

Weights are stored in the log domain internally and renormalized by
subtracting the max log-weight before exponentiation: eta * T can reach
the hundreds, where naive exponentials underflow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

import numpy as np

from .simplex_core import as_distribution, kl_project_clipped, kl_project_rows

Schedule = Union[Callable[[int], float], Sequence[float]]


def _check_loss_entries(v: np.ndarray) -> None:
    if not np.all(np.isfinite(v)):
        raise ValueError("loss entries must be finite")
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError("loss entries must lie in [0, 1]")


def as_loss_vector(loss, d: int | None = None) -> np.ndarray:
    """Validate a loss vector with entries in [0, 1].

    Out-of-range entries are rejected, not clipped: the per-round
    certificates are only valid on [0, 1] and silent clipping would mask
    caller bugs.
    """
    v = np.asarray(loss, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("loss must be a 1-d vector")
    _check_loss_entries(v)
    if d is not None and v.size != d:
        raise ValueError(f"loss has dimension {v.size}, expected {d}")
    return v


# ---------------------------------------------------------------------------
# log-domain kernels over a trailing d axis (one code path shared by the
# public ops, ForecasterState and the batched driver, so equivalences
# between rules and between single and batched runs hold bitwise)
# ---------------------------------------------------------------------------


def _logsumexp(logw: np.ndarray) -> np.ndarray:
    m = np.maximum.reduce(logw, axis=-1, keepdims=True)
    return m + np.log(np.add.reduce(np.exp(logw - m), axis=-1, keepdims=True))


def _log_normalize(logw: np.ndarray) -> np.ndarray:
    return logw - _logsumexp(logw)


def _to_linear(logw: np.ndarray) -> np.ndarray:
    p = np.exp(_log_normalize(logw))
    return p / np.add.reduce(p, axis=-1, keepdims=True)


def _log_loss_step(log_p: np.ndarray, loss: np.ndarray, eta: float,
                   pow_ratio: float = 1.0) -> np.ndarray:
    return _log_normalize(pow_ratio * log_p - eta * loss)


def _log_fixed_share(log_v: np.ndarray, alpha: float) -> np.ndarray:
    d = log_v.shape[-1]
    if alpha == 0.0:
        return log_v
    if alpha == 1.0:
        return np.full(log_v.shape, -np.log(d))
    mixed = np.logaddexp(np.log(alpha / d), np.log1p(-alpha) + log_v)
    return _log_normalize(mixed)


def _log_projected(log_v: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == 0.0:
        return log_v
    v = _to_linear(log_v)
    # renormalize as kl_project_clipped does, so the rows match it bitwise
    return np.log(kl_project_rows(v / v.sum(axis=-1, keepdims=True), alpha))


def _log_max_share(log_w: np.ndarray, log_v_next: np.ndarray, alpha: float,
                   gamma: float) -> tuple[np.ndarray, np.ndarray]:
    log_w_next = np.maximum(log_w - gamma, log_v_next)
    log_z = _logsumexp(log_w_next)
    if alpha == 0.0:
        log_p = log_v_next
    elif alpha == 1.0:
        log_p = log_w_next - log_z
    else:
        log_p = np.logaddexp(np.log1p(-alpha) + log_v_next,
                             np.log(alpha) + log_w_next - log_z)
    return _log_normalize(log_p), log_w_next


# ---------------------------------------------------------------------------
# public single-step operations (linear domain)
# ---------------------------------------------------------------------------


def loss_update(p, loss, eta: float) -> np.ndarray:
    """Exponential reweighting: v_j = p_j exp(-eta l_j) / normalizer."""
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    pv = as_distribution(p)
    lv = as_loss_vector(loss, pv.size)
    with np.errstate(divide="ignore"):
        log_p = np.log(pv)
    return _to_linear(_log_loss_step(log_p, lv, eta))


def mix_fixed_share(v, alpha: float) -> np.ndarray:
    """Fixed-share mixing p_j = alpha/d + (1-alpha) v_j."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    vv = as_distribution(v)
    with np.errstate(divide="ignore"):
        log_v = np.log(vv)
    return _to_linear(_log_fixed_share(log_v, alpha))


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
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if gamma < 0.0:
        raise ValueError("gamma must be positive for the decayed variant")
    wv = np.asarray(w, dtype=float)
    vv = as_distribution(v_next)
    if wv.shape != vv.shape:
        raise ValueError("dimension mismatch")
    if np.any(wv <= 0.0) or np.any(wv > 1.0 + 1e-12):
        raise ValueError("auxiliary weights must lie in (0, 1]")
    log_p, log_w = _log_max_share(np.log(wv), np.log(vv), alpha, gamma)
    return _to_linear(log_p), np.exp(log_w)


def step_time_varying(p, loss, eta_t: float, eta_prev: float, alpha_t: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """One round of the share update with time-varying parameters.

    v_{j} = p_j^(eta_t/eta_prev) exp(-eta_t l_j) / normalizer, then
    fixed-share mixing with alpha_t.  Requires eta_t <= eta_prev (the
    power is a contraction only for non-increasing rates).  With
    eta_t == eta_prev this is exactly loss_update + mix_fixed_share.
    """
    if not 0.0 < eta_t:
        raise ValueError("eta_t must be positive")
    if eta_t > eta_prev * (1.0 + 1e-12):
        raise ValueError("schedule violation: eta_t > eta_prev")
    if not 0.0 <= alpha_t <= 1.0:
        raise ValueError("alpha_t must be in [0, 1]")
    pv = as_distribution(p)
    if np.any(pv <= 0.0):
        raise ValueError("time-varying step requires strictly positive p")
    lv = as_loss_vector(loss, pv.size)
    log_v = _log_loss_step(np.log(pv), lv, eta_t, pow_ratio=eta_t / eta_prev)
    v_next = _to_linear(log_v)
    p_next = _to_linear(_log_fixed_share(log_v, alpha_t))
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
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise ValueError("alpha must be in [0, 1]")
            if self.variant == "decayed_max_share":
                if self.gamma is None or self.gamma <= 0.0:
                    raise ValueError("decayed_max_share requires gamma > 0")

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
    value = float(sched(t)) if callable(sched) else float(sched[t - 1])
    if not np.isfinite(value):
        raise ValueError(f"schedule value at t={t} is not finite")
    return value


class ForecasterState:
    """Single-owner mutable state of one forecaster run, or of ``reps``
    runs stepped in lockstep (every weight array then gains a leading
    reps axis).

    Must not be advanced from two threads simultaneously; distinct
    states are independent.  Internal storage is O(reps * d) regardless
    of the horizon.
    """

    def __init__(self, d: int, rule: MixingRule, eta: float | None = None,
                 reps: int | None = None):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.rule = rule
        if rule.variant == "time_varying":
            self.eta = None
        else:
            if eta is None or not eta > 0.0:
                raise ValueError("eta must be positive")
            self.eta = float(eta)
        self.t = 1
        log_u = np.full((d,) if reps is None else (reps, d), -np.log(d))
        self.log_p = log_u
        self.log_v = log_u.copy()
        self.log_w = log_u.copy() if rule.variant in ("max_share",
                                                      "decayed_max_share") else None
        self._eta_prev: float | None = None
        self._alpha_prev: float | None = None

    @property
    def p(self) -> np.ndarray:
        return _to_linear(self.log_p)

    @property
    def v(self) -> np.ndarray:
        return _to_linear(self.log_v)

    @property
    def w(self) -> np.ndarray | None:
        return None if self.log_w is None else np.exp(self.log_w)

    def round_params(self) -> tuple[float, float]:
        """(eta_t, alpha_t) governing the update at the current round."""
        rule = self.rule
        if rule.variant != "time_varying":
            return self.eta, rule.alpha
        eta_t = _schedule_value(rule.eta_schedule, self.t)
        alpha_t = _schedule_value(rule.alpha_schedule, self.t)
        if not eta_t > 0.0:
            raise ValueError("eta schedule must be positive")
        if not 0.0 <= alpha_t <= 1.0:
            raise ValueError("alpha schedule must stay in [0, 1]")
        return eta_t, alpha_t

    def update(self, loss) -> None:
        """Observe the loss for the current round and advance one step."""
        self._advance(as_loss_vector(loss, self.d), *self.round_params())

    def _advance(self, loss: np.ndarray, eta_t: float, alpha_t: float) -> None:
        """One step on an already validated loss of the state's shape.

        Constant-rate rules are time-varying ones with constant
        schedules: their power eta_t / eta_prev is exactly 1.
        """
        eta_prev = self._eta_prev if self._eta_prev is not None else eta_t
        if eta_t > eta_prev * (1.0 + 1e-12):
            raise ValueError("schedule violation: eta_t > eta_prev")
        if self._alpha_prev is not None and alpha_t > self._alpha_prev + 1e-12:
            raise ValueError("schedule violation: alpha_t > alpha_prev")
        self.log_v = _log_loss_step(self.log_p, loss, eta_t,
                                    pow_ratio=eta_t / eta_prev)
        rule = self.rule
        if rule.variant in ("fixed_share", "time_varying"):
            self.log_p = _log_fixed_share(self.log_v, alpha_t)
        elif rule.variant == "projected":
            self.log_p = _log_projected(self.log_v, alpha_t)
        else:
            gamma = rule.gamma if rule.variant == "decayed_max_share" else 0.0
            self.log_p, self.log_w = _log_max_share(self.log_w, self.log_v,
                                                    alpha_t, gamma)
        self._eta_prev = eta_t
        self._alpha_prev = alpha_t
        self.t += 1


def _linear(log_w: np.ndarray) -> np.ndarray:
    """``_to_linear`` of every row of a log-weight record, in blocks of
    at most 2^15 entries so that no temporary grows with the horizon."""
    rows = log_w.reshape(-1, log_w.shape[-1])
    out = np.empty(rows.shape)
    block = max(1, (1 << 15) // rows.shape[1])
    for lo in range(0, rows.shape[0], block):
        out[lo:lo + block] = _to_linear(rows[lo:lo + block])
    return out.reshape(log_w.shape)


@dataclass
class Trajectory:
    """Full record of one run, for regret evaluation and certification.

    Stored: ``log_p`` (log p_1..log p_{T+1}), ``losses``, the per-round
    parameters actually used (``etas``, ``alphas``) and, for max-share
    rules, ``log_w`` (log w_1..log w_{T+1}).  Every other record is
    recomputed from these on each access, bit for bit what the run
    computed; keep the result when reading one repeatedly.  A batch of
    R lockstep runs gives every per-run array a leading R axis and
    shares ``etas`` and ``alphas``; ``rep(i)`` views run i.
    """

    rule: MixingRule
    d: int
    T: int
    log_p: np.ndarray
    losses: np.ndarray
    etas: np.ndarray
    alphas: np.ndarray
    log_w: np.ndarray | None = None

    @property
    def p(self) -> np.ndarray:
        """The distributions p_1..p_{T+1}."""
        return _linear(self.log_p)

    @property
    def log_v(self) -> np.ndarray:
        """Log pre-weights: each round's loss update of log p_t."""
        return _log_loss_step(self.log_p[..., : self.T, :], self.losses,
                              self.etas[:, None],
                              pow_ratio=(self.etas / self.eta_prevs)[:, None])

    @property
    def v(self) -> np.ndarray:
        """The pre-weights v_2..v_{T+1}."""
        return _linear(self.log_v)

    @property
    def w(self) -> np.ndarray | None:
        """The auxiliary weights w_1..w_{T+1} (max-share rules only)."""
        return None if self.log_w is None else np.exp(self.log_w)

    @property
    def played(self) -> np.ndarray:
        """The distributions actually played, one row per round."""
        return self.p[..., : self.T, :]

    @property
    def realized(self) -> np.ndarray:
        """The forecaster's loss p_t . l_t in each round."""
        # stacked vector products: bitwise equal to p[t] @ losses[t]
        return np.matmul(self.played[..., None, :],
                         self.losses[..., None])[..., 0, 0]

    @property
    def eta_prevs(self) -> np.ndarray:
        """Previous-round learning rates, with eta_0 = eta_1."""
        if self.T == 0:
            return np.empty(0)
        return np.concatenate([[self.etas[0]], self.etas[:-1]])

    def rep(self, i: int) -> "Trajectory":
        """Run ``i`` of a batched trajectory, as views into the batch."""
        return replace(self, log_p=self.log_p[i], losses=self.losses[i],
                       log_w=None if self.log_w is None else self.log_w[i])


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
        if loss.size == 0 and loss.ndim < 2:
            raise ValueError("empty loss sequence: dimension cannot be inferred")
        if loss.ndim == 1:
            loss = loss.reshape(1, -1)
        if loss.ndim not in (2, 3):
            raise ValueError("losses must be a (T, d) or (R, T, d) array")
        if d is None:
            d = loss.shape[-1]
        elif d != loss.shape[-1]:
            raise ValueError("losses do not match the requested dimension")
        _check_loss_entries(loss)
        single = loss.ndim == 2
        if single:
            loss = loss[None]
    R, T, _ = loss.shape

    state = ForecasterState(d, rule, eta, reps=R)
    log_p = np.empty((R, T + 1, d))
    log_w = None if state.log_w is None else np.empty((R, T + 1, d))
    etas = np.empty(T)
    alphas = np.empty(T)
    if log_w is not None:
        log_w[:, 0] = state.log_w

    for t in range(T):
        log_p[:, t] = state.log_p
        if adversaries is not None:
            p_t = state.p
            for i, adversary in enumerate(adversaries):
                row = np.asarray(adversary(t + 1, p_t[i]), dtype=float)
                if row.shape != (d,):
                    raise ValueError(f"loss has shape {row.shape}, "
                                     f"expected ({d},)")
                loss[i, t] = row
            _check_loss_entries(loss[:, t])
        eta_t, alpha_t = state.round_params()
        etas[t], alphas[t] = eta_t, alpha_t
        state._advance(loss[:, t], eta_t, alpha_t)
        if log_w is not None:
            log_w[:, t + 1] = state.log_w
    log_p[:, T] = state.log_p

    traj = Trajectory(rule=rule, d=d, T=T, log_p=log_p, losses=loss,
                      etas=etas, alphas=alphas, log_w=log_w)
    return traj.rep(0) if single else traj


# ---------------------------------------------------------------------------
# per-round certificates
# ---------------------------------------------------------------------------


def certificate_slacks(traj: Trajectory, comparators) -> np.ndarray:
    """Slack of the per-round regret certificate, for constant-rate runs.

    For each round t and each comparison distribution q the certificate
    states (p_t - q) . l_t <= (1/eta) sum_i q_i ln(v_{i,t+1}/p_{i,t})
    + eta/8; the returned (T, n_q) array is RHS - LHS, so every entry of
    a valid run is >= -1e-9 up to float error.
    """
    q = np.atleast_2d(np.asarray(comparators, dtype=float))
    log_ratio = traj.log_v - traj.log_p[: traj.T]
    lhs = traj.realized[:, None] - traj.losses @ q.T
    rhs = (log_ratio @ q.T) / traj.etas[:, None] + traj.etas[:, None] / 8.0
    return rhs - lhs


def small_loss_certificate_slacks(traj: Trajectory, comparators) -> np.ndarray:
    """Slack of the small-loss variant of the per-round certificate.

    ((1-e^-eta)/eta) p_t . l_t - q . l_t <=
    (1/eta) sum_i q_i ln(v_{i,t+1}/p_{i,t}).
    """
    q = np.atleast_2d(np.asarray(comparators, dtype=float))
    log_ratio = traj.log_v - traj.log_p[: traj.T]
    eta = traj.etas[:, None]
    factor = (1.0 - np.exp(-eta)) / eta
    lhs = factor * traj.realized[:, None] - traj.losses @ q.T
    rhs = (log_ratio @ q.T) / eta
    return rhs - lhs


def varying_rate_certificate_slacks(traj: Trajectory, comparators) -> np.ndarray:
    """Slack of the per-round certificate for time-varying rates.

    (p_t - q) . l_t <= sum_i q_i ((1/eta_{t-1}) ln(1/p_{i,t})
    - (1/eta_t) ln(1/v_{i,t+1})) + (1/eta_t - 1/eta_{t-1}) ln d
    + eta_{t-1}/8.
    """
    q = np.atleast_2d(np.asarray(comparators, dtype=float))
    eta_t = traj.etas[:, None]
    eta_prev = traj.eta_prevs[:, None]
    neg_log_p = -traj.log_p[: traj.T]
    neg_log_v = -traj.log_v
    rhs = ((neg_log_p / eta_prev - neg_log_v / eta_t) @ q.T
           + (1.0 / eta_t - 1.0 / eta_prev) * np.log(traj.d)
           + eta_prev / 8.0)
    lhs = traj.realized[:, None] - traj.losses @ q.T
    return rhs - lhs
