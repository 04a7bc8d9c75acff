"""Closed-form regret guarantees and the parameter tunings they assume.

Every function evaluates the right-hand side of a worst-case guarantee
for one of the share forecasters, so certification reduces to comparing
a realized regret against the returned number.  Conventions:

* ``m``     -- regularity of the comparator (summed one-sided shifts),
* ``U_sum`` -- total comparator mass sum_t ||u_t||_1,
* ``u1_norm`` -- mass ||u_1||_1 of the first comparator vector,
* ``n``     -- sparsity (summed coordinatewise maxima),
* ``M``     -- mixing cost (``_mixing_*``): a constant-rate guarantee is
  M + eta U_sum / 8, and ``small_loss_form`` takes the same M.

Terms coefficient * ln(num / den) are 0 at a zero coefficient or
num = den and +inf at den = 0, so boundary parameters evaluate to their
limits instead of raising or giving nan: alpha = 0 with m > 0, say,
gives +inf.  Parameters pass ``simplex_core``'s checkers.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .simplex_core import (_check_alpha, _check_eta, _check_gamma,
                           _check_schedule_step, binary_entropy)


class TuneResult(NamedTuple):
    eta: float
    alpha: float
    bound: float


def _coef_log(coefficient: float, num: float, den: float = 1.0) -> float:
    """coefficient * ln(num / den); 0 at a zero coefficient or num = den,
    +inf at den = 0, ln(num) - ln(den) where num / den overflows."""
    if coefficient == 0.0 or num == den:
        return 0.0
    if den == 0.0:
        return math.inf
    if num / den == math.inf:
        return coefficient * (math.log(num) - math.log(den))
    return coefficient * math.log(num / den)


def _check_common(d: int, eta: float, alpha: float, m: float, U_sum: float,
                  u1_norm: float) -> None:
    if not d >= 1:
        raise ValueError("need d >= 1")
    _check_eta(eta)
    _check_alpha(alpha)
    if not (m >= 0.0 and U_sum >= 0.0 and u1_norm >= 0.0):
        raise ValueError("m, U_sum, and u1_norm must be nonnegative")
    if u1_norm > U_sum + 1e-12:
        raise ValueError("u1_norm cannot exceed U_sum")


def _mixing_projected(d: int, eta: float, alpha: float, m: float,
                      U_sum: float, u1_norm: float) -> float:
    """Projected's mixing cost u1/eta ln d + m/eta ln(d/alpha) + alpha U."""
    _check_common(d, eta, alpha, m, U_sum, u1_norm)
    return (_coef_log(u1_norm / eta, d) + _coef_log(m / eta, d, alpha)
            + (alpha * U_sum if alpha else 0.0))


def bound_projected(d: int, eta: float, alpha: float, m: float, U_sum: float,
                    u1_norm: float) -> float:
    """Shifting-regret guarantee of the KL-projected share update."""
    return (_mixing_projected(d, eta, alpha, m, U_sum, u1_norm)
            + eta / 8.0 * U_sum)


def _mixing_fixed_share(d: int, eta: float, alpha: float, m: float,
                        U_sum: float, u1_norm: float) -> float:
    """Shared weights' mixing cost at w = 1: C = 1, Z = d, n = u1_norm."""
    return _mixing_shared_weights(d, 1, eta, alpha, m, u1_norm, U_sum, 1.0,
                                  d, u1_norm)


def bound_fixed_share(d: int, eta: float, alpha: float, m: float,
                      U_sum: float, u1_norm: float) -> float:
    """Shifting-regret guarantee of the fixed-share update."""
    return (_mixing_fixed_share(d, eta, alpha, m, U_sum, u1_norm)
            + eta / 8.0 * U_sum)


def small_loss_form(M: float, eta: float, L_sum: float) -> float:
    """(k - 1) L_sum + k M, k = eta / (1 - e^-eta): the small-loss form of
    the guarantee M + eta U_sum / 8 at a comparator of loss L_sum.  Both
    are theorems for every nonnegative comparator u: the loss update gives
    ((1 - e^-eta)/eta) p_t . l_t - q . l_t <= (1/eta) q . ln(v_{t+1}/p_t)
    for every q (``small_loss_certificate_slacks``), and summed along u its
    right side meets the q-independent mixing analysis that costs M.
    Projected pays its alpha U_sum through the smoothed comparator's loss,
    so k multiplies it too."""
    _check_eta(eta)
    k = eta / -math.expm1(-eta)
    return (k - 1.0) * L_sum + k * M


def fixed_share_envelope(d: int, m0: float, U0: float, eta: float,
                         alpha: float) -> float:
    """Worst case of the fixed-share guarantee over all comparators with
    regularity mass at most m0 and total mass at most U0: the guarantee
    at m = m0, U_sum = U0 and ||u_1||_1 = 0."""
    if not 0.0 < m0 <= U0:
        raise ValueError("need 0 < m0 <= U0")
    return bound_fixed_share(d, eta, alpha, m0, U0, 0.0)


def tune_fixed_share(d: int, m0: float, U0: float) -> TuneResult:
    """Optimal (eta, alpha) for fixed share given caps m0 and U0:
    alpha* = m0/U0 and eta* = sqrt(8 B / U0) with B = m0 ln d
    + U0 h(m0/U0), for the guarantee sqrt(U0 B / 2)."""
    if not 0.0 < m0 <= U0 < math.inf:
        raise ValueError("need 0 < m0 <= U0 < inf")
    if d < 2:
        raise ValueError("need d >= 2")
    alpha = m0 / U0
    budget = m0 * math.log(d) + U0 * binary_entropy(alpha)
    eta = math.sqrt(8.0 * budget / U0)
    return TuneResult(eta=eta, alpha=alpha, bound=math.sqrt(U0 * budget / 2.0))


class AdaptiveBound(NamedTuple):
    exact: float
    relaxed: float


def bound_adaptive(d: int, tau0: int) -> AdaptiveBound:
    """Guarantee on the best-window regret of the tuned fixed share: the
    exact form sqrt(tau0/2 (tau0 h(1/tau0) + ln d)), the fixed-share
    tuning's guarantee at caps m0 = 1, U0 = tau0, and the relaxed form
    sqrt(tau0/2 ln(e d tau0)), which the exact form never exceeds."""
    if tau0 < 1:
        raise ValueError("tau0 must be >= 1")
    return AdaptiveBound(tune_fixed_share(d, 1.0, float(tau0)).bound,
                         math.sqrt(tau0 / 2.0 * math.log(math.e * d * tau0)))


def tune_small_loss(d: int, m0: float, U0: float, L0: float) -> TuneResult:
    """Tuning and guarantee scaling with the comparator's loss cap L0: at
    mixing cost M0 = m0 B', B' = ln d + ln(e U0 / m0), the small-loss recipe
    eta* = ln(1 + sqrt(2 M0 / L0)), alpha* = m0/U0 guarantees (eta L0 + M0)
    / (1 - e^-eta) - L0 <= sqrt(2 L0 M0) + M0, the returned bound.  At
    L0 = 0 the rate degenerates to +inf (follow the leader), bound M0."""
    if not 0.0 < m0 <= U0 < math.inf:
        raise ValueError("need 0 < m0 <= U0 < inf")
    if not L0 >= 0.0:
        raise ValueError("L0 must be nonnegative")
    if d < 2:
        raise ValueError("need d >= 2")
    budget = math.log(d) + math.log(math.e * U0 / m0)
    if budget == math.inf:
        raise ValueError("need e U0 / m0 within the float range")
    mix = m0 * budget
    eta = math.inf if L0 == 0.0 else math.log1p(math.sqrt(2.0 * mix / L0))
    return TuneResult(eta=eta, alpha=m0 / U0,
                      bound=math.sqrt(2.0 * L0 * mix) + mix)


def _mixing_shared_weights(d: int, T: int, eta: float, alpha: float,
                           m: float, n: float, U_sum: float, C: float,
                           Z_max: float, u1_norm: float) -> float:
    """Shared weights' mixing cost n/eta ln d + n T ln C / eta + m/eta
    ln(Z_max/alpha) + tail/eta ln(1/(1 - alpha)), tail = U_sum - u1 - m."""
    _check_common(d, eta, alpha, m, U_sum, u1_norm)
    if not n >= 0.0:
        raise ValueError("n must be nonnegative")
    if not C >= 1.0:
        raise ValueError("C must be >= 1")
    if not Z_max >= 1.0:
        raise ValueError("Z_max must be >= 1")
    tail = U_sum - u1_norm - m
    if not tail >= -1e-12 * max(1.0, U_sum):  # rounding in U_sum and m
        raise ValueError("m cannot exceed the comparator mass after round 1")
    tail = max(tail, 0.0)
    return (_coef_log(n / eta, d)
            + _coef_log(n * T, C) / eta
            + _coef_log(m / eta, Z_max, alpha)
            + _coef_log(tail / eta, 1.0, 1.0 - alpha))


def bound_shared_weights(d: int, T: int, eta: float, alpha: float, m: float,
                         n: float, U_sum: float, C: float, Z_max: float,
                         u1_norm: float = 1.0) -> float:
    """Guarantee for share updates mixing toward auxiliary weights.

    Covers any update p = (1-alpha) v + alpha w / Z whose weights w
    satisfy v_j <= w_j <= 1 and C w_{j,t+1} >= w_{j,t} with C >= 1;
    Z_max bounds the normalizers sum_j w_j >= sum_j v_j = 1 over the run.
    """
    return _mixing_shared_weights(d, T, eta, alpha, m, n, U_sum, C, Z_max,
                                  u1_norm) + eta / 8.0 * U_sum


def bound_max_share(d: int, T: int, eta: float, alpha: float, m: float,
                    n: float) -> float:
    """Running-max share guarantee for probability-vector comparators:
    decay 0 in ``_weight_constants``, so C = 1 and Z_max = min(d, T)."""
    if not (d >= 1 and T >= 1):
        raise ValueError("need d >= 1 and T >= 1")
    return bound_shared_weights(d, T, eta, alpha, m, n, float(T),
                                *_weight_constants(d, T, 0.0))


def bound_decayed_max_share(d: int, T: int, eta: float, alpha: float,
                            m0: float, n0: float) -> float:
    """Decayed-max share guarantee at the tuned decay gamma = m0/(n0 T):
    C = e^gamma costs n0 T ln C = m0, and Z_max = min(d, T, 1/(1 - e^-gamma))
    ~ min(d, T, n0 T / m0 + 1/2) (``_weight_constants``) is smaller than
    the running max's min(d, T) for sparse comparators."""
    if not (d >= 1 and T >= 1):
        raise ValueError("need d >= 1 and T >= 1")
    gamma = decayed_max_share_gamma(m0, n0, T)
    return bound_shared_weights(d, T, eta, alpha, m0, n0, float(T),
                                *_weight_constants(d, T, gamma))


def decayed_max_share_gamma(m0: float, n0: float, T: int) -> float:
    """The decay tuned to the caps: gamma = m0/(n0 T), positive and finite."""
    if not (m0 > 0.0 and n0 > 0.0 and T >= 1):
        raise ValueError("need m0 > 0, n0 > 0, T >= 1")
    gamma = m0 / (n0 * T)
    return _check_gamma(gamma, f"gamma = m0/(n0 T) = {gamma:g}")


def _weight_constants(d: int, T: int, gamma: float) -> tuple[float, float]:
    """(C, Z_max) of max share at decay gamma >= 0, the running max at 0:
    C = e^gamma (+inf past the float range), Z_max = min(d, T, 1/(1 -
    e^-gamma)) >= 1.  As w_{t+1} = max(e^-gamma w_t, v_{t+1}) <= e^-gamma
    w_t + v_{t+1} entrywise and Z_1 = 1, Z_t <= sum_{k<t} e^-gamma k <=
    min(t, 1/(1 - e^-gamma)); w <= 1 gives Z_t <= d."""
    try:
        C = math.exp(gamma)
    except OverflowError:
        C = math.inf
    tail = math.inf if gamma == 0.0 else -1.0 / math.expm1(-gamma)
    return C, min(float(d), float(T), tail)


def bound_time_varying(d: int, T: int, etas: Sequence[float],
                       alphas: Sequence[float], m: float,
                       u_norms: Sequence[float]) -> float:
    """Shifting-regret guarantee under non-increasing (eta_t, alpha_t), as
    the forecaster checks it (``_check_schedule_step``).

    ``etas`` and ``alphas`` hold the per-round parameters for rounds
    1..T with the convention eta_0 = eta_1.  With constant schedules
    this equals the fixed-share guarantee exactly.  It needs d >= 1 and,
    when m > 0, alpha_T < 1: the shifts pay ln(d (1 - alpha_T) / alpha_T).
    """
    if not d >= 1:
        raise ValueError("need d >= 1")
    eta = np.asarray(etas, dtype=float)
    al = np.asarray(alphas, dtype=float)
    u = np.asarray(u_norms, dtype=float)
    if not (eta.shape == al.shape == u.shape == (T,)):
        raise ValueError("schedules and u_norms must have length T")
    _check_eta(eta, "eta schedule")
    _check_alpha(al, "alpha schedule")
    _check_schedule_step(eta[:-1], eta[1:], al[:-1], al[1:])
    if not (np.all(u >= 0.0) and m >= 0.0):
        raise ValueError("comparator masses must be nonnegative")
    if m > 0.0 and al[-1] == 1.0:
        raise ValueError("alpha schedule must end below 1 when m > 0")
    eta_prev = np.concatenate([[eta[0]], eta[:-1]])
    first = _coef_log(u[0] / eta[0] + float(np.sum(
        u[1:] * (1.0 / eta[1:] - 1.0 / eta_prev[1:]))), d)
    second = _coef_log(m / eta[-1], d * (1.0 - al[-1]), al[-1])
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
