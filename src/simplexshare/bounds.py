"""Closed-form regret guarantees and the parameter tunings they assume.

Every function evaluates the right-hand side of a worst-case guarantee
for one of the share forecasters, so certification reduces to comparing
a realized regret against the returned number.  Conventions:

* ``m``     -- regularity of the comparator (summed one-sided shifts),
* ``U_sum`` -- total comparator mass sum_t ||u_t||_1,
* ``u1_norm`` -- mass ||u_1||_1 of the first comparator vector,
* ``n``     -- sparsity (summed coordinatewise maxima).

Terms of the form coefficient * log(...) are defined as 0 whenever the
coefficient is 0, so boundary parameters (alpha = 0 with m = 0, say)
evaluate to their limits instead of raising.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .simplex_core import binary_entropy


class TuneResult(NamedTuple):
    eta: float
    alpha: float
    bound: float


def _coef_log(coefficient: float, log_argument: float) -> float:
    """coefficient * ln(log_argument) with the 0 * ln(...) := 0 convention."""
    if coefficient == 0.0:
        return 0.0
    if log_argument <= 0.0:
        raise ValueError("parameter outside the bound's domain")
    return coefficient * math.log(log_argument)


def _check_common(eta: float, alpha: float, m: float, U_sum: float,
                  u1_norm: float) -> None:
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if m < 0.0 or U_sum < 0.0 or u1_norm < 0.0:
        raise ValueError("m, U_sum, and u1_norm must be nonnegative")
    if u1_norm > U_sum + 1e-12:
        raise ValueError("u1_norm cannot exceed U_sum")


def bound_projected(d: int, eta: float, alpha: float, m: float, U_sum: float,
                    u1_norm: float) -> float:
    """Shifting-regret guarantee of the KL-projected share update."""
    _check_common(eta, alpha, m, U_sum, u1_norm)
    return (_coef_log(u1_norm / eta, d)
            + _coef_log(m / eta, d / alpha if m > 0 else 1.0)
            + (eta / 8.0 + alpha) * U_sum)


def bound_fixed_share(d: int, eta: float, alpha: float, m: float,
                      U_sum: float, u1_norm: float) -> float:
    """Shifting-regret guarantee of the fixed-share update."""
    _check_common(eta, alpha, m, U_sum, u1_norm)
    tail = U_sum - u1_norm - m
    if tail < -1e-9:
        raise ValueError("m cannot exceed the comparator mass after round 1")
    tail = max(tail, 0.0)
    return (_coef_log(u1_norm / eta, d)
            + eta / 8.0 * U_sum
            + _coef_log(m / eta, d / alpha if m > 0 else 1.0)
            + _coef_log(tail / eta, 1.0 / (1.0 - alpha) if tail != 0 else 1.0))


def fixed_share_envelope(d: int, m0: float, U0: float, eta: float,
                         alpha: float) -> float:
    """Worst case of the fixed-share guarantee over all comparators with
    regularity mass at most m0 and total mass at most U0."""
    if not 0.0 < m0 <= U0:
        raise ValueError("need 0 < m0 <= U0")
    if not eta > 0.0 or not 0.0 < alpha <= 1.0:
        raise ValueError("need eta > 0 and alpha in (0, 1]")
    mix_cost = (_coef_log(m0, 1.0 / alpha)
                + _coef_log(U0 - m0, 1.0 / (1.0 - alpha) if U0 > m0 else 1.0))
    return (m0 * math.log(d) + mix_cost) / eta + eta * U0 / 8.0


def tune_fixed_share(d: int, m0: float, U0: float) -> TuneResult:
    """Optimal (eta, alpha) for fixed share given caps m0 and U0.

    alpha* = m0/U0 and eta* = sqrt(8 B / U0) with
    B = m0 ln d + U0 h(m0/U0); the resulting guarantee is
    sqrt(U0 B / 2).
    """
    if not 0.0 < m0 <= U0:
        raise ValueError("need 0 < m0 <= U0")
    if d < 2:
        raise ValueError("need d >= 2")
    alpha = m0 / U0
    budget = m0 * math.log(d) + U0 * binary_entropy(alpha)
    eta = math.sqrt(8.0 * budget / U0)
    return TuneResult(eta=eta, alpha=alpha, bound=math.sqrt(U0 * budget / 2.0))


def bound_adaptive(d: int, tau0: int) -> tuple[float, float]:
    """Guarantee on the best-window regret of the tuned fixed share.

    Returns the exact form sqrt(tau0/2 (tau0 h(1/tau0) + ln d)) and the
    relaxed form sqrt(tau0/2 ln(e d tau0)); the exact form never exceeds
    the relaxed one.
    """
    if tau0 < 1:
        raise ValueError("tau0 must be >= 1")
    if d < 2:
        raise ValueError("need d >= 2")
    exact = math.sqrt(tau0 / 2.0 * (tau0 * binary_entropy(1.0 / tau0)
                                    + math.log(d)))
    relaxed = math.sqrt(tau0 / 2.0 * math.log(math.e * d * tau0))
    return exact, relaxed


def tune_small_loss(d: int, m0: float, U0: float, L0: float) -> TuneResult:
    """Tuning and guarantee scaling with the comparator's loss cap L0.

    The guarantee is sqrt(L0 m0 B') + B' with
    B' = ln d + ln(e U0 / m0).  The tuning follows the standard
    small-loss recipe eta* = ln(1 + sqrt(2 m0 B' / L0)), alpha* = m0/U0;
    at L0 = 0 the rate degenerates to +inf (follow the leader) and only
    the returned bound value remains meaningful.
    """
    if not 0.0 < m0 <= U0:
        raise ValueError("need 0 < m0 <= U0")
    if L0 < 0.0:
        raise ValueError("L0 must be nonnegative")
    if d < 2:
        raise ValueError("need d >= 2")
    budget = math.log(d) + math.log(math.e * U0 / m0)
    if L0 == 0.0:
        eta = math.inf
    else:
        eta = math.log1p(math.sqrt(2.0 * m0 * budget / L0))
    return TuneResult(eta=eta, alpha=m0 / U0,
                      bound=math.sqrt(L0 * m0 * budget) + budget)


def bound_shared_weights(d: int, T: int, eta: float, alpha: float, m: float,
                         n: float, U_sum: float, C: float, Z_max: float,
                         u1_norm: float = 1.0) -> float:
    """Guarantee for share updates mixing toward auxiliary weights.

    Covers any update p = (1-alpha) v + alpha w / Z whose weights w
    satisfy v_j <= w_j <= 1 and C w_{j,t+1} >= w_{j,t} with C >= 1;
    Z_max bounds the normalizers sum_j w_j over the run.
    """
    _check_common(eta, alpha, m, U_sum, u1_norm)
    if C < 1.0:
        raise ValueError("C must be >= 1")
    if Z_max <= 0.0:
        raise ValueError("Z_max must be positive")
    tail = U_sum - u1_norm - m
    if tail < -1e-9:
        raise ValueError("m cannot exceed the comparator mass after round 1")
    tail = max(tail, 0.0)
    return (_coef_log(n / eta, d)
            + n * T * math.log(C) / eta
            + eta / 8.0 * U_sum
            + _coef_log(m / eta, Z_max / alpha if m > 0 else 1.0)
            + _coef_log(tail / eta, 1.0 / (1.0 - alpha) if tail != 0 else 1.0))


def bound_max_share(d: int, T: int, eta: float, alpha: float, m: float,
                    n: float) -> float:
    """Running-max share guarantee for probability-vector comparators:
    the normalizers obey Z <= min(d, t) <= min(d, T) and the weights
    never decay (C = 1)."""
    return bound_shared_weights(d, T, eta, alpha, m, n, U_sum=float(T),
                                C=1.0, Z_max=float(min(d, T)), u1_norm=1.0)


def bound_decayed_max_share(d: int, T: int, eta: float, alpha: float,
                            m0: float, n0: float) -> float:
    """Decayed-max share guarantee at the tuned decay gamma = m0/(n0 T).

    The decay factor gives C = e^gamma and Z <= min(d, 1/gamma), which
    trades the running-max variant's T inside the logarithm for
    min(d, n0 T / m0) and improves on it for sparse comparators.
    """
    if m0 <= 0.0 or n0 <= 0.0:
        raise ValueError("need m0 > 0 and n0 > 0")
    gamma = m0 / (n0 * T)
    return bound_shared_weights(d, T, eta, alpha, m0, n0, U_sum=float(T),
                                C=math.exp(gamma),
                                Z_max=min(float(d), 1.0 / gamma), u1_norm=1.0)


def decayed_max_share_gamma(m0: float, n0: float, T: int) -> float:
    """The decay tuned to the regularity/sparsity caps: gamma = m0/(n0 T)."""
    if m0 <= 0.0 or n0 <= 0.0 or T < 1:
        raise ValueError("need m0 > 0, n0 > 0, T >= 1")
    return m0 / (n0 * T)


def bound_time_varying(d: int, T: int, etas: Sequence[float],
                       alphas: Sequence[float], m: float,
                       u_norms: Sequence[float]) -> float:
    """Shifting-regret guarantee under non-increasing (eta_t, alpha_t).

    ``etas`` and ``alphas`` hold the per-round parameters for rounds
    1..T with the convention eta_0 = eta_1.  With constant schedules
    this equals the fixed-share guarantee exactly.
    """
    eta = np.asarray(etas, dtype=float)
    al = np.asarray(alphas, dtype=float)
    u = np.asarray(u_norms, dtype=float)
    if not (eta.shape == al.shape == u.shape == (T,)):
        raise ValueError("schedules and u_norms must have length T")
    if np.any(eta <= 0.0) or np.any(np.diff(eta) > 1e-12):
        raise ValueError("eta schedule must be positive and non-increasing")
    if np.any(al < 0.0) or np.any(al > 1.0) or np.any(np.diff(al) > 1e-12):
        raise ValueError("alpha schedule must be non-increasing within [0, 1]")
    if np.any(u < 0.0) or m < 0.0:
        raise ValueError("comparator masses must be nonnegative")
    eta_prev = np.concatenate([[eta[0]], eta[:-1]])
    first = (u[0] / eta[0] + float(np.sum(u[1:] * (1.0 / eta[1:]
                                                   - 1.0 / eta_prev[1:]))))
    first *= math.log(d)
    second = _coef_log(m / eta[-1],
                       d * (1.0 - al[-1]) / al[-1] if m > 0 else 1.0)
    with np.errstate(divide="ignore"):
        mix = np.where(u[1:] > 0.0, -np.log1p(-al[1:]), 0.0)
    third = float(np.sum(u[1:] / eta_prev[1:] * mix))
    fourth = float(np.sum(eta_prev / 8.0 * u))
    return first + second + third + fourth


def anytime_schedules(d: int, t: int) -> tuple[float, float]:
    """Horizon-free schedules eta_t = sqrt(ln(d t)/t), alpha_t = 1/t.

    ln(n)/n is only non-increasing from n = 3, so the rate is clamped to
    its t = 3 value for earlier rounds; alpha_1 = 1 makes the second
    played distribution exactly uniform.
    """
    if d < 2 or t < 0:
        raise ValueError("need d >= 2 and t >= 0")
    if t >= 3:
        eta = math.sqrt(math.log(d * t) / t)
    else:
        eta = math.sqrt(math.log(3 * d) / 3.0)
    alpha = 1.0 / t if t >= 1 else 1.0
    return eta, alpha


def anytime_adaptive_bound(d: int, T: int) -> float:
    """Regret guarantee over every interval for the horizon-free
    schedules: sqrt(2 T ln(d T)) + sqrt(3 ln(3 d))."""
    if d < 2 or T < 3:
        raise ValueError("need d >= 2 and T >= 3")
    return math.sqrt(2.0 * T * math.log(d * T)) + math.sqrt(3.0 * math.log(3 * d))
