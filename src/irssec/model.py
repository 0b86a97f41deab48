"""Rate expressions, lifted quadratic forms, feasibility tests, power split.

Rates are in bits (log base 2) and powers in watts throughout. The reflection
pattern is a plain complex vector ``v`` with unit-modulus entries; the phase
matrix applied by the surface is diag(conj(v)), so the effective channel of
user k is ``m_k^H diag(conj(v)) g + h_k``.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet


class Feasibility(enum.Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNDETERMINED = "Undetermined"


@dataclass
class PowerSplit:
    """Transmit power split: ``alpha`` to the confidential stream, ``beta``
    to the multicast stream, with alpha + beta <= total power."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < -1e-12 or self.beta < -1e-12:
            raise ValueError("powers must be nonnegative")
        self.alpha = max(float(self.alpha), 0.0)
        self.beta = max(float(self.beta), 0.0)


def check_phase_vector(v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate that every entry of v has unit modulus (within tol)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    err = np.abs(np.abs(v) - 1.0).max() if v.size else 0.0
    if err > tol:
        raise ValueError(f"phase vector entries deviate from unit modulus by {err:.3e}")
    return v


def lift_vector(v: np.ndarray) -> np.ndarray:
    """Homogenization z = [v; 1] used by the trace reformulation."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.concatenate([v, [1.0 + 0.0j]])


def build_tk(m_k: np.ndarray, g: np.ndarray, h_k: complex) -> np.ndarray:
    """Rank-one Hermitian lift of user k's effective channel gain.

    Returns u u^H with u = [diag(conj(m_k)) g ; h_k], so that for z = [v; 1]
    the quadratic form z^H T z equals |m_k^H diag(conj(v)) g + h_k|^2.
    """
    m_k = np.asarray(m_k, dtype=complex).reshape(-1)
    g = np.asarray(g, dtype=complex).reshape(-1)
    if m_k.size != g.size:
        raise ValueError("m_k and g must have the same length")
    u = np.concatenate([np.conj(m_k) * g, [complex(h_k)]])
    return np.outer(u, np.conj(u))


def lift_vectors(ch: ChannelSet) -> np.ndarray:
    """Columns u_k of every user's lift T_k = u_k u_k^H (see build_tk), (N+1, K)."""
    return np.concatenate([(np.conj(ch.m) * ch.g).T, ch.h[None, :]])


def effective_gain(v: np.ndarray, m_k: np.ndarray, g: np.ndarray, h_k: complex) -> float:
    """Effective channel power |m_k^H diag(conj(v)) g + h_k|^2."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return float(np.abs(np.vdot(v, np.conj(m_k) * g) + h_k) ** 2)


def effective_gains(ch: ChannelSet, v: np.ndarray) -> np.ndarray:
    """Per-user effective gains for one pattern (N,) or a batch (B, N).

    Returns shape (K,) for a single pattern, (B, K) for a batch.
    """
    v = np.asarray(v, dtype=complex)
    w = (np.conj(ch.m) * ch.g).T            # (N, K)
    amp = np.conj(v) @ w + ch.h             # (K,) or (B, K)
    return np.abs(amp) ** 2


def aligned_gain(m_k: np.ndarray, g: np.ndarray, h_k: complex) -> float:
    """Largest achievable |m_k^H diag(conj(v)) g + h_k| over unit-modulus v:
    all reflected terms phase-aligned with the direct path."""
    return float(np.sum(np.abs(m_k) * np.abs(g)) + abs(h_k))


def aligned_gains(ch: ChannelSet) -> np.ndarray:
    return np.array([aligned_gain(ch.m[k], ch.g, ch.h[k]) for k in range(ch.k)])


def multicast_rate_from_gains(x: np.ndarray, sigma2: np.ndarray,
                              alpha, beta) -> np.ndarray:
    """min_k log2(1 + beta*x_k / (sigma_k^2 + alpha*x_k)); broadcasts over
    leading axes of x / alpha / beta."""
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)[..., None]
    beta = np.asarray(beta, dtype=float)[..., None]
    sinr = beta * x / (sigma2 + alpha * x)
    return np.log2(1.0 + sinr).min(axis=-1)


def multicast_rate(ch: ChannelSet, v: np.ndarray, split: PowerSplit) -> float:
    """Common multicast rate: worst user's rate decoding the multicast stream
    while the confidential stream is treated as interference."""
    x = effective_gains(ch, v)
    return float(multicast_rate_from_gains(x, ch.sigma2, split.alpha, split.beta))


def secrecy_rate_from_gains(x: np.ndarray, sigma2: np.ndarray, alpha) -> np.ndarray:
    """max(0, min over eavesdroppers of the confidential-rate margin).

    x has per-user gains along the last axis (user 0 is the confidential
    user); broadcasts over leading axes of x and alpha.
    """
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)[..., None]
    s1 = sigma2[0]
    num = s1 * sigma2[1:] + sigma2[1:] * alpha * x[..., :1]
    den = s1 * sigma2[1:] + s1 * alpha * x[..., 1:]
    rate = np.log2(num / den).min(axis=-1)
    return np.maximum(rate, 0.0)


def secrecy_rate(ch: ChannelSet, v: np.ndarray, alpha: float) -> float:
    """Achievable confidential rate against the strongest eavesdropper,
    clamped at zero, for confidential power alpha."""
    x = effective_gains(ch, v)
    return float(secrecy_rate_from_gains(x, ch.sigma2, alpha))


def positive_secrecy_condition(ch: ChannelSet, v: np.ndarray) -> bool:
    """True iff user 1's effective SNR strictly exceeds every eavesdropper's,
    the necessary condition for a positive secrecy rate at some alpha > 0."""
    x = effective_gains(ch, v)
    y = x / ch.sigma2
    return bool(y[0] > y[1:].max())


def feasibility_check(ch: ChannelSet) -> Feasibility:
    """Certificate test for whether any pattern gives user 1 the SNR lead.

    Feasible: user 1's fully phase-aligned gain beats every eavesdropper's
    aligned gain (noise weighted), so an explicit aligned pattern works.
    Infeasible: some eavesdropper's direct path alone already beats user 1's
    aligned gain, so no pattern can help. Otherwise undetermined.
    """
    a = aligned_gains(ch)
    s = ch.sigma2
    lead = a[0] ** 2
    if any(lead <= (s[0] * abs(ch.h[k]) ** 2) / s[k] for k in range(1, ch.k)):
        return Feasibility.INFEASIBLE
    if lead >= max((s[0] / s[k]) * a[k] ** 2 for k in range(1, ch.k)):
        return Feasibility.FEASIBLE
    return Feasibility.UNDETERMINED


def infeasibility_witness(ch: ChannelSet) -> int | None:
    """Index (0-based) of an eavesdropper certifying infeasibility, if any."""
    lead = aligned_gain(ch.m[0], ch.g, ch.h[0]) ** 2
    for k in range(1, ch.k):
        if lead <= (ch.sigma2[0] * abs(ch.h[k]) ** 2) / ch.sigma2[k]:
            return k
    return None


def bottleneck_user(x: np.ndarray, sigma2: np.ndarray) -> int:
    """User with the smallest gain-to-noise ratio; the only user whose
    multicast floor can bind."""
    return int(np.argmin(np.asarray(x) / np.asarray(sigma2)))


def alpha_opt_closed_form(x_min: float, sigma2_min: float, p: float, r_m: float) -> float:
    """Largest confidential power meeting the multicast floor r_m.

    x_min and sigma2_min belong to the bottleneck user. Returns
    max(0, min(P, (P*x - (2^r_m - 1)*sigma^2) / (2^r_m * x))); 0 when the
    floor is unattainable (x_min = 0 with r_m > 0), in which case the caller
    must treat the target as infeasible.
    """
    if r_m < 0:
        raise ValueError("multicast floor must be nonnegative")
    if r_m == 0:
        return float(p)
    if x_min <= 0:
        return 0.0
    c = 2.0 ** r_m
    alpha = (p * x_min - (c - 1.0) * sigma2_min) / (c * x_min)
    return float(min(p, max(alpha, 0.0)))


def alpha_opt_for_pattern(ch: ChannelSet, v: np.ndarray, p: float, r_m: float) -> float:
    """Closed-form optimal confidential power for a fixed pattern v."""
    x = effective_gains(ch, v)
    tau = bottleneck_user(x, ch.sigma2)
    return alpha_opt_closed_form(x[tau], ch.sigma2[tau], p, r_m)


def multicast_capacity_from_gains(x: np.ndarray, sigma2: np.ndarray, p) -> np.ndarray:
    """Largest supportable multicast floor for fixed gains: all power to the
    multicast stream. Broadcasts over leading axes of x."""
    x = np.asarray(x, dtype=float)
    y = (x / sigma2).min(axis=-1)
    return np.log2(1.0 + p * y)
