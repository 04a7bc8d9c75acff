"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (grids, double loops, definitional
formulas) and shares no code with the library paths it checks.
"""

import math
from fractions import Fraction

import numpy as np


def dtv_brute(x, y) -> float:
    """Two-branch definition of the one-sided total variation."""
    total = 0.0
    for xi, yi in zip(x, y):
        if xi >= yi:
            total += xi - yi
    return total


def kl_brute(x, y) -> float:
    total = 0.0
    for xi, yi in zip(x, y):
        if xi > 0.0:
            total += xi * np.log(xi / yi)
    return float(total)


def grid_clipped_simplex(d: int, alpha: float, res: float) -> np.ndarray:
    """Grid over the clipped simplex via an affine map of a simplex grid."""
    if d == 2:
        t = np.arange(0.0, 1.0 + res / 2, res)
        base = np.stack([t, 1.0 - t], axis=1)
    elif d == 3:
        t = np.arange(0.0, 1.0 + res / 2, res)
        a, b = np.meshgrid(t, t, indexing="ij")
        c = 1.0 - a - b
        mask = c >= -res / 2
        base = np.stack([a[mask], b[mask], np.maximum(c[mask], 0.0)], axis=1)
    else:
        raise ValueError("grid oracle supports d in {2, 3}")
    return alpha / d + (1.0 - alpha) * base


def grid_min_kl(v: np.ndarray, alpha: float, res: float) -> float:
    """Smallest KL(x, v) over the grid of the clipped simplex."""
    pts = grid_clipped_simplex(len(v), alpha, res)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pts > 0.0, pts * np.log(pts / v), 0.0)
    return float(terms.sum(axis=1).min())


def kl_project_argsort(p, alpha: float, floor_ties: bool = False
                       ) -> np.ndarray:
    """Clipped-simplex KL projection of each row of an (..., d) array by
    sort order, one row at a time.

    Rows with an entry below alpha/d are argsorted; the first k sorted
    entries are floored for the smallest k whose next entry, rescaled by
    the leftover mass, fits above the floor (to a 1e-13 slack); the rest
    are rescaled, scattered back and renormalized.  Rows where no k fits
    become uniform.  ``floor_ties`` also floors every entry equal to the
    last floored one, whatever its sort position.
    """
    p = np.asarray(p, dtype=float)
    d = p.shape[-1]
    floor = alpha / d
    out = p.reshape(-1, d).copy()
    for i in range(out.shape[0]):
        row = out[i].copy()
        if row.min() >= floor:
            continue
        order = np.argsort(row)
        ps = row[order]
        suffix = np.cumsum(ps[::-1])[::-1]
        scales = (1.0 - np.arange(1, d) * floor) / suffix[1:]
        fits = scales * ps[1:] >= floor * (1.0 - 1e-13)
        if not fits.any():
            out[i] = floor / (d * floor)
            continue
        last = int(np.argmax(fits))
        projected = np.maximum(scales[last] * ps, floor)
        projected[:last + 1] = floor
        if floor_ties:
            projected[ps == ps[last]] = floor
        row[order] = projected
        out[i] = row / row.sum()
    return out.reshape(p.shape)


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    m = np.maximum.reduce(x, axis=-1, keepdims=True)
    return m + np.log(np.add.reduce(np.exp(x - m), axis=-1, keepdims=True))


def share_rounds_reference(variant: str, losses, etas, alphas,
                           gamma: float = 0.0):
    """log p_1..log p_{T+1} of one run of a share rule, and log w_1..
    log w_{T+1} for the max-share rules (else None), stepped one round at
    a time with fresh arrays and per-round constants.

    ``etas`` and ``alphas`` give each round's parameters; round t's loss
    step raises p_t to the power eta_t / eta_{t-1} (eta_0 = eta_1).  The
    operations and their order are those of a direct implementation:
    ``pow_ratio * log_p - eta * loss``, logsumexp normalization, the
    log-domain fixed-share mix (share term ln(alpha) - ln(d), the
    max-share mix at log w = 0 and log Z = ln d), the max-share recursion,
    and the projection of exp(log v) through
    ``kl_project_argsort(floor_ties=True)``.
    A round normalizes once, in its loss step; the mixes sum to 1 in exact
    arithmetic and are not renormalized.
    """
    losses = np.asarray(losses, dtype=float)
    T, d = losses.shape
    log_p = np.full(d, -np.log(d))
    log_w = log_p.copy()
    ps, ws = [log_p], [log_w]
    for t in range(T):
        eta, alpha = float(etas[t]), float(alphas[t])
        pow_ratio = eta / float(etas[t - 1] if t > 0 else eta)
        x = pow_ratio * log_p - eta * losses[t]
        log_v = x - _logsumexp_rows(x)
        if variant in ("max_share", "decayed_max_share"):
            log_w = np.maximum(log_w - gamma, log_v)
            log_z = _logsumexp_rows(log_w)
            if alpha == 0.0:
                log_p = log_v
            elif alpha == 1.0:
                log_p = log_w - log_z
            else:
                log_p = np.logaddexp(np.log1p(-alpha) + log_v,
                                     np.log(alpha) + log_w - log_z)
        elif alpha == 0.0:
            log_p = log_v
        elif variant == "projected":
            log_p = np.log(kl_project_argsort(np.exp(log_v), alpha,
                                              floor_ties=True))
        elif alpha == 1.0:
            log_p = np.full(d, -np.log(d))
        else:
            log_p = np.logaddexp(np.log1p(-alpha) + log_v,
                                 np.log(alpha) - np.log(d))
        ps.append(log_p)
        ws.append(log_w)
    max_share = variant in ("max_share", "decayed_max_share")
    return np.stack(ps), np.stack(ws) if max_share else None


def adaptive_regret_brute(p: np.ndarray, losses: np.ndarray, tau0: int) -> float:
    """Double loop over all windows and all corners, fresh sums."""
    return adaptive_regret_details_brute(p, losses, tau0)[0]


def adaptive_regret_details_brute(p: np.ndarray, losses: np.ndarray,
                                  tau0: int) -> tuple[float, int, int, int]:
    """Every (window, corner) pair with fresh sums: the largest positive
    regret as (value, r, s, corner), 1-based rounds, ties to the smallest
    width, then the earliest start, then the lowest corner; (0, 1, 1, 0)
    when no window has positive regret."""
    T, d = p.shape
    realized = [float(p[t] @ losses[t]) for t in range(T)]
    best, key = (0.0, 1, 1, 0), None
    for r in range(T):
        for s in range(r, min(T, r + tau0)):
            fore = sum(realized[r:s + 1])
            for j in range(d):
                value = fore - float(losses[r:s + 1, j].sum())
                if value > 0.0 and (key is None
                                    or (-value, s - r, r, j) < key):
                    best, key = (value, r + 1, s + 1, j), (-value, s - r, r, j)
    return best


def prefix_sums_brute(a: np.ndarray) -> np.ndarray:
    """Column-wise Kahan running sums of a (T, k) matrix under a leading
    zero row, one Python float at a time from a +0.0 total and carry."""
    T, k = a.shape
    out = np.zeros((T + 1, k))
    for j in range(k):
        total = carry = 0.0
        for i in range(T):
            y = float(a[i, j]) - carry
            t = total + y
            carry = (t - total) - y
            total = t
            out[i + 1, j] = total
    return out


def best_window_brute(gains: np.ndarray, tau0: int
                      ) -> tuple[float, int, int, int]:
    """(value, r, s, j) of the largest gains[s, j] - gains[r - 1, j] over
    1 <= r <= s <= T with s - r < tau0, from (T + 1, d) gains: every width
    in turn, so ties go to the smallest width, then the earliest start,
    then the lowest action; (0, 1, 1, 0) when no window is positive."""
    T = gains.shape[0] - 1
    best, key = (0.0, 1, 1, 0), (0.0,)
    for width in range(min(tau0, T)):
        regret = gains[width + 1:] - gains[:T - width]  # row r - 1
        value = regret.max()
        r0, j = np.argwhere(regret == value)[0]
        if (-value, width, r0, j) < key:
            best = (float(value), int(r0) + 1, int(r0) + width + 1, int(j))
            key = (-value, width, r0, j)
    return best


def discounted_regret_details_brute(p: np.ndarray, losses: np.ndarray,
                                    betas) -> tuple[float, int]:
    """Every arm's discounted loss sum_t beta_t l_{t,j} in rationals, one
    round at a time: the arm of least total, the lowest on exact ties,
    and sum_t beta_t p_t . l_t minus its total, rounded once.  A zero
    loss adds exactly 0 to every sum, so only nonzero entries are read."""
    T, d = p.shape
    totals = [Fraction(0)] * d
    fore = Fraction(0)
    for t in range(T):
        beta = Fraction(float(betas[t]))
        for j in np.flatnonzero(losses[t]).tolist():
            loss = Fraction(float(losses[t, j]))
            totals[j] += beta * loss
            fore += beta * Fraction(float(p[t, j])) * loss
    best = 0
    for j in range(1, d):
        if totals[j] < totals[best]:
            best = j
    return float(fore - totals[best]), best


def exact_sum(values) -> float:
    """The sum of floats in rationals, rounded once to the nearest float."""
    return float(sum((Fraction(float(x)) for x in values), Fraction(0)))


def comparator_sums_exact(u: np.ndarray, losses: np.ndarray
                          ) -> tuple[float, float, float]:
    """(m, U_sum, L_sum) of a dense (T, d) comparator: each round's
    increment, mass and loss is numpy's sum over its d entries, and the
    rounds are summed exactly (``exact_sum``)."""
    increments = np.maximum(u[1:] - u[:-1], 0.0).sum(axis=1)
    masses = u.sum(axis=1)
    row_losses = np.einsum("td,td->t", u, losses)
    return exact_sum(increments), exact_sum(masses), exact_sum(row_losses)


def decayed_max_brute(v_history: np.ndarray, gamma: float) -> np.ndarray:
    """Definitional decayed running max over the stored pre-weight history.

    Row t of the result is max over s <= t of exp(gamma (s - t)) v_s,
    with rows of ``v_history`` indexed from 1.
    """
    T = v_history.shape[0]
    out = np.empty_like(v_history)
    for t in range(1, T + 1):
        s = np.arange(1, t + 1)
        weights = np.exp(gamma * (s - t))[:, None]
        out[t - 1] = (weights * v_history[:t]).max(axis=0)
    return out


def central_difference_gaps(value_fn, p: np.ndarray, eps: float = 1e-6
                            ) -> np.ndarray:
    """Pairwise derivative gaps g_i - g_0 from central differences along
    simplex directions (e_i - e_0); immune to constant shifts of the
    subgradient."""
    d = p.size
    gaps = np.zeros(d)
    for i in range(1, d):
        step = np.zeros(d)
        step[i], step[0] = eps, -eps
        gaps[i] = (value_fn(p + step) - value_fn(p - step)) / (2.0 * eps)
    return gaps


def _times_log(coefficient: Fraction, log_value: float):
    """coefficient * ln(x) from ln(x) taken in float: 0 at a zero
    coefficient, +inf where ln(x) is +inf."""
    if coefficient == 0:
        return Fraction(0)
    return math.inf if log_value == math.inf else coefficient * Fraction(
        log_value)


def rate_forms_exact(d: int, eta: float, alpha: float, m: float,
                     U_sum: float, u1_norm: float, L_sum: float,
                     shared=None) -> tuple[float, float]:
    """(Hoeffding form, small-loss form) of a constant-rate share guarantee,
    M + eta U_sum / 8 and (k - 1) L_sum + k M with k = eta / (1 - e^-eta),
    summed in rationals from the float inputs (each log and exp in float)
    and rounded once.  With ``shared`` None, M is the projected mixing
    cost (u1 ln d + m ln(d / alpha)) / eta + alpha U_sum; with ``shared`` =
    (n, T, C, Z_max) it is the shared-weights one (n ln d + n T ln C
    + m ln(Z_max / alpha) + tail ln(1 / (1 - alpha))) / eta, tail =
    max(U_sum - u1 - m, 0)."""
    q = Fraction
    ln_over_alpha = (lambda x: math.inf if alpha == 0.0
                     else math.log(x) - math.log(alpha))
    if shared is None:
        terms = [_times_log(q(u1_norm), math.log(d)),
                 _times_log(q(m), ln_over_alpha(d))]
    else:
        n, T, C, Z_max = shared
        tail = max(q(U_sum) - q(u1_norm) - q(m), q(0))
        terms = [_times_log(q(n), math.log(d)),
                 _times_log(q(n) * T, math.log(C)),
                 _times_log(q(m), ln_over_alpha(Z_max)),
                 _times_log(tail, math.inf if alpha == 1.0
                            else -math.log1p(-alpha))]
    if math.inf in terms:
        return math.inf, math.inf
    M = sum(terms, q(0)) / q(eta)
    if shared is None:
        M += q(alpha) * q(U_sum)
    k = q(eta) / q(-math.expm1(-eta))
    return (float(M + q(eta) * q(U_sum) / 8),
            float((k - 1) * q(L_sum) + k * M))
