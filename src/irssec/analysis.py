"""Analytical results: sweep-resolution gap bounds, IRS benefit/impairment
classification, channel enhancement factors, complexity estimates, and the
exhaustive verification oracle."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .channel import ChannelSet

_ORACLE_MAX_CELLS = 60_000_000   # largest phase/power grid brute_force_oracle enumerates


class IrsEffect(enum.Enum):
    IMPROVES = "Improves"
    IMPAIRS = "Impairs"
    INDETERMINATE = "Indeterminate"


@dataclass
class EnhancementReport:
    e_factors: list
    eta: float
    alpha_with: float
    alpha_without: float
    classification: IrsEffect


def gap_bound_tight(p: float, n: int, tr_t1: float, sigma1_sq: float, t_alpha: int) -> float:
    """Loss (bits) of the uniform confidential-power sweep relative to the
    exact fractional optimum, assuming the relaxation is tight at every grid
    power: log2(1 + P*(N+1)*Tr(T1) / (sigma1^2*(T_alpha - 1)))."""
    if t_alpha < 2:
        raise ValueError("need at least two power samples")
    return math.log2(1.0 + p * (n + 1) * tr_t1 / (sigma1_sq * (t_alpha - 1)))


def gap_bound_general(p: float, n: int, tr_t1: float, sigma1_sq: float,
                      t_alpha: int, delta_c: float) -> float:
    """Sweep-resolution bound plus the observed relaxation slack delta_c at
    the winning grid power (delta_c = 0 recovers the tight bound)."""
    if delta_c < 0:
        raise ValueError("relaxation slack must be nonnegative")
    return gap_bound_tight(p, n, tr_t1, sigma1_sq, t_alpha) + delta_c


def gap_bound_worst_case(p: float, n: int, tr_t1: float, sigma1_sq: float,
                         t_alpha: int) -> float:
    """Bound valid without knowing the relaxation slack, using the pi/4
    randomization guarantee: log2(4/pi + 4*P*(N+1)*Tr(T1)/(pi*sigma1^2*(T_alpha-1))).
    Tends to log2(4/pi) as the sweep refines."""
    if t_alpha < 2:
        raise ValueError("need at least two power samples")
    lead = p * (n + 1) * tr_t1 / (sigma1_sq * (t_alpha - 1))
    return math.log2(4.0 / math.pi + 4.0 * lead / math.pi)


def _unclamped_secrecy(x1: float, x2: float, s1: float, s2: float, alpha: float) -> float:
    return math.log2((1.0 + alpha * x1 / s1) / (1.0 + alpha * x2 / s2))


def enhancement_analysis(ch: ChannelSet, v: np.ndarray, alpha: float,
                         p: float | None = None, r_m: float = 1.0) -> EnhancementReport:
    """Two-user channel-enhancement factors of the surface at a fixed
    confidential power.

    E_k = (1 + alpha*x_k/sigma_k^2) / (1 + alpha*|h_k|^2/sigma_k^2) and
    eta = E_1/E_2, which multiplies 2^(secrecy rate) relative to the
    surface-free system at the same power (identity checked numerically on
    the unclamped rates). alpha_with/alpha_without are the closed-form power
    splits of the two systems under budget p (default: the compared alpha)
    at multicast floor r_m; their ordering does not depend on r_m or p while
    unclipped.
    """
    if ch.k != 2:
        raise ValueError("enhancement analysis is defined for two users")
    if p is None:
        p = max(alpha, 1e-30)
    x = model.effective_gains(ch, v)
    hx = np.abs(ch.h) ** 2
    s = ch.sigma2
    e = (1.0 + alpha * x / s) / (1.0 + alpha * hx / s)
    eta = float(e[0] / e[1])
    r_irs = _unclamped_secrecy(x[0], x[1], s[0], s[1], alpha)
    r_non = _unclamped_secrecy(hx[0], hx[1], s[0], s[1], alpha)
    if abs(2.0 ** r_irs - eta * 2.0 ** r_non) > 1e-6 * max(1.0, 2.0 ** r_irs):
        raise ArithmeticError("enhancement identity violated; inputs are degenerate")
    alpha_with = model.alpha_opt_closed_form(x[1], s[1], p, r_m)
    alpha_without = model.alpha_opt_closed_form(hx[1], s[1], p, r_m)
    return EnhancementReport(e_factors=[float(e[0]), float(e[1])], eta=eta,
                             alpha_with=alpha_with, alpha_without=alpha_without,
                             classification=proposition3_classify(ch, v, strict=False))


def proposition3_classify(ch: ChannelSet, v: np.ndarray, strict: bool = True) -> IrsEffect:
    """Does this reflection pattern help or hurt the two-user secrecy rate
    relative to the surface-free system?

    Improves when the pattern strictly enlarges the eavesdropper gain (hence
    the closed-form confidential power) while enlarging user 1's amplitude by
    a strictly larger factor; Impairs when both comparisons reverse.
    Requires the surface-free system to support positive secrecy
    (|h_1|^2/sigma_1^2 > |h_2|^2/sigma_2^2); with strict=True a violation
    raises, otherwise the verdict is Indeterminate.
    """
    if ch.k != 2:
        raise ValueError("the classification is defined for two users")
    hx = np.abs(ch.h) ** 2
    if not hx[0] / ch.sigma2[0] > hx[1] / ch.sigma2[1]:
        if strict:
            raise ValueError("surface-free system has no positive secrecy rate; "
                             "classification undefined")
        return IrsEffect.INDETERMINATE
    amp = np.sqrt(model.effective_gains(ch, v))
    h_abs = np.abs(ch.h)
    if amp[1] > h_abs[1] and h_abs[1] * amp[0] > h_abs[0] * amp[1]:
        return IrsEffect.IMPROVES
    if amp[1] < h_abs[1] and h_abs[1] * amp[0] < h_abs[0] * amp[1]:
        return IrsEffect.IMPAIRS
    return IrsEffect.INDETERMINATE


def complexity_estimate(n: int, k: int, t_alpha: int, t_lambda: int, t_g: int):
    """Interior-point flop-order estimates for one boundary point of each
    algorithm (multicast bound + per-power fractional solves + randomization
    for the sweep; one fractional solve plus blended randomization for the
    covariance heuristic)."""
    if min(n, k, t_alpha, t_lambda, t_g) < 1:
        raise ValueError("all sizes must be positive")
    n1 = n + 1
    nv = n1 ** 2 + 1
    grp = grp_complexity(n, t_g)

    def ipm(m: int) -> float:       # one SDP of N + m constraint rows
        return math.sqrt(2 * n + m + 1) * (nv * (n1 ** 3 + m + n)
                                           + nv ** 2 * (n1 ** 2 + m + n) + nv ** 3)
    return ipm(k) + t_alpha * (ipm(2 * k) + grp), ipm(k) + ipm(k + 3) + t_lambda * grp


def grp_complexity(n: int, t_g: int) -> float:
    """Flop order of one randomization pass: (N+1)^3 + 8*T_g*(N+1)^2."""
    n1 = n + 1
    return float(n1 ** 3 + 8 * t_g * n1 ** 2)


def check_oracle_grid(n: int, phase_levels: int, alpha_points: int) -> None:
    """ValueError unless the oracle grid on an N = n surface is small and
    has at least one phase level and one power sample."""
    if phase_levels < 1 or alpha_points < 1:
        raise ValueError(f"oracle grid needs phase_levels and alpha_points of at least 1, "
                         f"got {phase_levels} and {alpha_points}")
    cells = phase_levels ** n * alpha_points
    if n > 3 or cells > _ORACLE_MAX_CELLS:
        raise ValueError(f"oracle grid too large: {phase_levels}^{n} x {alpha_points} "
                         f"= {cells:.3g} cells")


def brute_force_oracle(ch: ChannelSet, p: float, r_m: float, phase_levels: int, alpha_points: int):
    """Exhaustive reference: enumerate phases on a uniform grid and the
    confidential power on a uniform [0, P] grid; return the best
    floor-feasible secrecy rate as (r_c, v, alpha), with v None when no grid
    cell supports the floor (SINR c - 1 at every user, c the
    `model._floor_factor`; a NaN floor raises ValueError). Deterministic;
    ties break on the first grid index. Only small surfaces are accepted
    (`check_oracle_grid`).
    """
    n = ch.n
    check_oracle_grid(n, phase_levels, alpha_points)
    floor = model._floor_factor(r_m) - 1.0
    thetas = 2.0 * np.pi * np.arange(phase_levels) / phase_levels
    grids = np.meshgrid(*([thetas] * n), indexing="ij")
    vs = np.exp(1j * np.stack([g.reshape(-1) for g in grids], axis=-1))  # (L^n, n)
    alphas = np.linspace(0.0, p, alpha_points)
    betas = p - alphas

    best = (-1.0, None, 0.0)
    chunk = max(1, 2_000_000 // alpha_points)
    for start in range(0, vs.shape[0], chunk):
        vb = vs[start:start + chunk]
        x = model.effective_gains(ch, vb)                      # (B, K)
        # multicast floor for every (v, alpha) pair
        sinr = betas[None, :, None] * x[:, None, :] / (ch.sigma2 + alphas[None, :, None] * x[:, None, :])
        ok = sinr.min(axis=-1) >= floor * (1.0 - 1e-12)        # (B, A)
        num = ch.sigma2[0] * ch.sigma2[1:] + ch.sigma2[1:] * alphas[None, :, None] * x[:, None, :1]
        den = ch.sigma2[0] * ch.sigma2[1:] + ch.sigma2[0] * alphas[None, :, None] * x[:, None, 1:]
        r_c = np.maximum(np.log2(num / den).min(axis=-1), 0.0)  # (B, A)
        r_c = np.where(ok, r_c, -1.0)
        i = np.unravel_index(np.argmax(r_c), r_c.shape)
        if r_c[i] > best[0]:
            best = (float(r_c[i]), vb[i[0]].copy(), float(alphas[i[1]]))
    if best[0] < 0:
        return 0.0, None, 0.0
    return best
