"""Boundary characterization of the (multicast, secrecy) rate region.

Two optimized schemes plus benchmarks:

* ``cct``        fractional-program sweep: for each confidential power on a
                 uniform grid, a Charnes-Cooper transformed SDP (a lane)
                 bounds the secrecy objective and Gaussian randomization
                 extracts a feasible reflection pattern. A grid power's
                 lanes at every floor are one unit of work: its lane at the
                 lowest floor (the anchor) serves each higher floor whose
                 rows its optimum meets, by the rule that sets the floors'
                 power windows, and each solve is drawn once.
* ``wscm``       blends the multicast-optimal and secrecy-optimal lifted
                 covariances; each blend's rounding draws serve every floor
                 of a region, with the confidential power set in closed form.
* ``random-irs`` uniform random phases with closed-form power split.
* ``no-irs``     direct channels only.
* ``tdma``       orthogonal time sharing between the two services.
* ``upper-bound`` reports the relaxation value found along the cct sweep.
* ``oracle``     exhaustive phase/power grid (small N only).

All schemes take raw channel data in watts; lifted SDPs are internally
rescaled (gains to order one, Charnes-Cooper normalization re-bounded) so the
interior-point core sees well-conditioned data. Reported rates, powers, and
patterns are unaffected by the rescaling.
"""
from __future__ import annotations

import ctypes
import glob
import math
import os
import pickle
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from . import model
from .channel import ChannelSet
from .sdp import SdpBatch, SdpSolverError, SdpStatus, _grp_draws, grp_round, solve_batch, substream

SCHEMES = ("cct", "wscm", "random-irs", "no-irs", "tdma", "upper-bound", "oracle")
ORACLE_GRID = (64, 201)   # phase levels and power samples of the oracle scheme
_LEAST = {"t_alpha": 2, "t_lambda": 2, "t_g": 1, "grid_points": 2, "seed": 0}   # least values

_RM_SLACK = 1e-9          # tolerance when re-checking the multicast floor
_XI_FLOOR = 1e-10         # Charnes-Cooper scale must stay positive


@dataclass
class BoundaryPoint:
    r_m_target: float
    r_c_achieved: float
    alpha: float
    phase_vector: np.ndarray | None
    upper_bound: float
    feasible: bool
    scheme: str
    diagnostics: dict = field(default_factory=dict)


@dataclass
class RegionBoundary:
    points: list
    pareto_filtered: bool = False


@dataclass
class SweepParams:
    """Sample counts of one sweep; every SDP runs at the solver's defaults."""
    t_alpha: int = 80
    t_lambda: int = 80
    t_g: int = 1000
    pareto_filter: bool = True

    def __post_init__(self):
        _check_counts(t_alpha=self.t_alpha, t_lambda=self.t_lambda, t_g=self.t_g)


def _check_counts(**counts) -> None:
    """Raise ValueError unless every count is an integer (a numpy integer
    too, a bool not) of at least its `_LEAST`."""
    for name, value in counts.items():
        least = _LEAST[name]
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
            raise ValueError(f"{name} must be an integer of at least {least}")


@cache
def _blas_threads() -> tuple:
    """(get, set) of the thread count of numpy's bundled OpenBLAS, by ctypes on
    the library numpy loaded, or () where that library or either symbol is absent."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                       "libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(path)
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return ()


@contextmanager
def _one_blas_thread():
    """While no other thread runs (as whenever `_workers` may fork), numpy's
    OpenBLAS (`_blas_threads`, where in reach) runs one thread inside and the
    caller's count comes back after, also when the body raises; the count is
    the process's, so no other thread's is taken. Every public solving entry
    holds it, so its bytes depend on neither the caller's count nor the CPUs."""
    blas = _blas_threads() if threading.active_count() == 1 else ()
    threads = blas[0]() if blas else None
    if blas:
        blas[1](1)
    try:
        yield
    finally:
        if blas:
            blas[1](threads)


class _Lifted:
    """Gain-normalized lifted data and the library's one program shape,
    built as `SdpBatch` arrays: PSD Y with a constant diagonal (the tie rows
    Y_ii = Y_N+1,N+1, i <= N) and rows a I + b T_k, for the max-min SNR
    program and one Charnes-Cooper program per confidential power. Every
    matrix is a weight vector over the basis [e_1 ... e_N+1, u_1 ... u_K] of
    unit vectors and user lifts T_k = u_k u_k^H, so a I + b T_k weighs the
    first N+1 columns by a and column N+1+k by b; no T_k is formed densely."""

    def __init__(self, ch: ChannelSet, p: float):
        if not 0.0 < p < math.inf:
            raise ValueError("power must be finite and positive")
        self.p = float(p)
        self.n = ch.n
        self.k = ch.k
        self.aligned2_raw = model.aligned_gains(ch) ** 2
        scale = float(np.max(self.aligned2_raw))
        self.gain_scale = scale if scale > 0 else 1.0
        lifts = model.lift_vectors(ch) / math.sqrt(self.gain_scale)
        self.basis = np.hstack([np.eye(self.n + 1), lifts])
        self.sigma2 = ch.sigma2 / self.gain_scale
        self.aligned2 = self.aligned2_raw / self.gain_scale
        self.traces = (np.abs(lifts) ** 2).sum(axis=0)
        self.ties = np.hstack([np.eye(self.n), -np.ones((self.n, 1)), np.zeros((self.n, self.k))])

    def max_min_batch(self, users: np.ndarray, weights: np.ndarray, s_scale: float) -> SdpBatch:
        """One lane: min Tr(Y)/(N+1) over PSD Y with a constant diagonal s.t.
        Tr(Y T_k) / Tr(T_k) >= s_scale / (weights_k Tr(T_k)), k in users:
        unit-norm rows whose bounds are free of P. Z = Y / Y_11 attains the
        max-min SNR s_scale / Y_11."""
        n1, n_users = self.n + 1, len(users)
        rows = np.zeros((n_users + self.n, self.basis.shape[1]))
        rows[np.arange(n_users), n1 + users] = 1.0 / self.traces[users]
        rows[n_users:] = self.ties
        objective = np.repeat([-1.0 / n1, 0.0], [n1, self.k])[None]
        bounds = np.concatenate([s_scale / (weights * self.traces[users]), np.zeros(self.n)])
        return SdpBatch(self.basis, objective, rows[None], bounds[None],
                        np.repeat([-1, 0], [n_users, self.n]))

    def supports(self, floors, alphas, snr) -> np.ndarray:
        """(P - alpha c) snr >= (c - 1)(1 - 1e-12), c the `model._floor_factor`,
        broadcast over (floors, alphas, snr); false for an infinite c. At snr =
        M_eav (`_eavesdropper_snr`) it is a floor's power window; at a Y's
        `least_snr`, whether Y meets the floor rows of lane (r_m, alpha)."""
        a, c = np.asarray(alphas, dtype=float), _floor_factors(floors)
        with np.errstate(over="ignore", invalid="ignore"):       # an infinite c
            return (self.p - a * c) * snr >= (c - 1.0) * (1.0 - 1e-12)

    def least_snr(self, ys) -> np.ndarray:
        """min_k Tr(T_k Y) / (sigma_k^2 xi) over the eavesdroppers, per Y of the
        stack ys, xi the mean of diag(Y): by the tie rows, floor row k of lane
        (r_m, alpha) is Tr(A_k Y) = (P - alpha c) Tr(T_k Y) - (c - 1) sigma_k^2 xi."""
        ys = np.reshape(ys, (-1, self.n + 1, self.n + 1))
        diag = (self.basis.conj() * (ys @ self.basis)).sum(axis=-2).real
        xi = diag[:, :self.n + 1].mean(axis=-1)
        return (diag[:, self.n + 2:] / self.sigma2[1:]).min(axis=-1) / xi

    def cct_batch(self, floors, alphas) -> SdpBatch:
        """One Charnes-Cooper lane per pair (r_m, alpha) of zip(floors,
        alphas), all floored (r_m > 0) or none, each floored alpha in the
        floor's power window (`supports`, decided before any solve).
        Lane (r_m, alpha) maximizes Tr((s_1/(N+1) I + alpha T_1) Y) over PSD Y
        with a constant diagonal (the tie rows) s.t. Tr((s_1/(N+1) I + alpha
        s_1/s_k T_k) Y) <= beta0 for each eavesdropper k and, with a floor,
        Tr(((P - alpha c) T_k - (c - 1) s_k/(N+1) I) Y) >= 0, c the
        `model._floor_factor`. The bound beta0 keeps Y of order one. A floor
        r_m <= 0 is no floor; a NaN one raises ValueError."""
        n1, k, eav, s1 = self.n + 1, self.k, np.arange(1, self.k), self.sigma2[0]
        floored = any(r > 0 for r in floors)
        a = np.asarray(alphas, dtype=float)[:, None]
        c = _floor_factors(floors)[:, None]
        # The objective, then the rows, each weight affine in alpha.
        m = (k - 1) * (1 + floored) + self.n
        weights = np.zeros((len(a), 1 + m, n1 + k))
        weights[:, :k, :n1] = s1 / n1
        weights[:, 0, n1] = a[:, 0]
        weights[:, eav, n1 + eav] = a * (s1 / self.sigma2[eav])
        if floored:
            weights[:, k - 1 + eav, :n1] = (-(c - 1.0) * self.sigma2[eav] / n1)[..., None]
            weights[:, k - 1 + eav, n1 + eav] = self.p + a * -c
        weights[:, -self.n:] = self.ties
        beta0 = np.maximum((s1 + weights[:, eav, n1 + eav] * self.traces[eav]).max(axis=1), 1e-30)
        bounds = np.zeros((len(weights), m))
        bounds[:, :k - 1] = beta0[:, None]
        sense = np.repeat([1, -1, 0], [k - 1, m - self.n - (k - 1), self.n])
        return SdpBatch(self.basis, weights[:, 0], weights[:, 1:], bounds, sense)


def _floor_factors(floors) -> np.ndarray:
    """`model._floor_factor` of every floor, in the shape of floors."""
    r_m = np.asarray(floors, dtype=float)
    return np.array([model._floor_factor(r) for r in r_m.ravel().tolist()]).reshape(r_m.shape)


def _dual_slack(duals: np.ndarray, batch: SdpBatch, lanes: list):
    """(A*(y) - C, y) of the given lanes of a batch, stacked, at the solver's
    multipliers y (duals, one row per lane), each first clipped to the sign
    its row's sense allows (nonnegative for +1, nonpositive for -1); weak
    duality then needs only each slack's smallest eigenvalue."""
    ys = np.where(batch.sense * duals < 0, 0.0, duals)
    w = (ys[:, None, :] @ batch.rows[lanes])[:, 0] - batch.objective[lanes]
    return (batch.basis * w[:, None, :]) @ batch.basis.conj().T, ys


def _psd_shift(mats: np.ndarray) -> np.ndarray:
    """Smallest t >= 0 with mat + t*I PSD, per matrix of the stack mats."""
    low = -np.linalg.eigvalsh(mats)[:, 0]
    return np.where(low > 0.0, low, 0.0)


def _aligned(ctx: _Lifted, users: np.ndarray, weights: np.ndarray):
    """(s_scale, Z): s_scale = min_k weights_k |aligned gain_k|^2 over `users`,
    which bounds weights_k Tr(Z T_k) over unit-diagonal Z, and Z = zz^H, z the
    bottleneck user's aligned pattern (its lift column's phases, z_N+1 = 1),
    where weights_k |u_k^H z|^2 >= s_scale (1 - 1e-12) for every user: then
    (s_scale, Z) is the max-min optimum. Else Z is None; Z = I for s_scale 0."""
    gains = weights * ctx.aligned2[users]
    b = int(np.argmin(gains))
    if gains[b] <= 0.0:
        return 0.0, np.eye(ctx.n + 1, dtype=complex)
    lifts = ctx.basis[:, ctx.n + 1 + users]
    phases = np.angle(lifts[:, b]) - np.angle(lifts[-1, b])
    zz = np.exp(1j * (phases[:, None] - phases))        # unit diagonal; z its last column
    if not (weights * np.abs(zz[:, -1] @ lifts.conj()) ** 2 >= gains[b] * (1.0 - 1e-12)).all():
        return float(gains[b]), None
    return float(gains[b]), zz


def _max_min_snr(ctx: _Lifted, users: np.ndarray, weights: np.ndarray):
    """Max over unit-diagonal PSD Z of min over `users` of weights_k Tr(Z T_k)
    in ctx units, as (value, Z, solved): the `_aligned` closed form where it
    is exact (solved False), else solved as `_Lifted.max_min_batch`, Z = Y /
    Y_11 of the primal Y and value the smaller of two certified upper bounds,
    so it never lies below the relaxed maximum:

    * the dual: multipliers mu_k >= 0 on the user rows, whose bounds are b,
      and t lifting the dual slack to PSD give every feasible Y the diagonal
      Y_11 >= b.mu / (1 + (N+1) t): the value is s_scale / Y_11 at most;
    * the closed form s_scale, which as the program's unit puts Y_11 in
      [1, N+1] (Z = I is feasible).

    The solve never raises: without finite multipliers the value is s_scale,
    and without a finite Y with Y_11 > 0, Z is I.
    """
    s_scale, z = _aligned(ctx, users, weights)
    if z is not None:
        return s_scale, z, False
    batch = ctx.max_min_batch(users, weights, s_scale)
    sol = solve_batch(batch)[0]
    dual_snr = math.inf
    if np.isfinite(sol.dual).all():
        slack, y = _dual_slack(sol.dual[None], batch, [0])
        dual_obj = -float(batch.bounds[0] @ y[0])
        if dual_obj > 0:
            dual_snr = s_scale * (1.0 + (ctx.n + 1) * float(_psd_shift(slack)[0])) / dual_obj
    z = np.eye(ctx.n + 1, dtype=complex)
    if np.isfinite(sol.matrix).all() and sol.matrix[0, 0].real > 0:
        z = sol.matrix / sol.matrix[0, 0].real
    return max(min(dual_snr, s_scale), 0.0), z, True


@_one_blas_thread()
def multicast_upper_bound(ch: ChannelSet, p: float):
    """Certified upper bound on the largest supportable multicast floor, all
    power on the multicast stream: (log2(1 + s), Z) with (s, Z) the
    `_max_min_snr` of every user under weights P / sigma_k^2, unsolved and Z
    rank one where the `_aligned` closed form is exact; at one BLAS thread."""
    ctx = _Lifted(ch, p)
    s, z, _ = _max_min_snr(ctx, np.arange(ctx.k), ctx.p / ctx.sigma2)
    return math.log2(1.0 + s), z


def _eavesdropper_snr(ctx: _Lifted) -> tuple:
    """(M_eav, solves): the `_max_min_snr` of the eavesdroppers under weights
    1 / sigma_k^2, and 1 if it took a solve, 0 for its `_aligned` closed form
    (always with one eavesdropper). Eavesdropper k needs Tr(Z T_k) / sigma_k^2
    >= (c - 1) / (P - alpha c), c = 2^r_m, so this one constant decides every
    (r_m, alpha) of a channel; like every `_max_min_snr`, it never raises."""
    value, _, solved = _max_min_snr(ctx, np.arange(1, ctx.k), 1.0 / ctx.sigma2[1:])
    return value, int(solved)


def _cct_values(ctx: _Lifted, sols: list, batch: SdpBatch) -> list:
    """(c_value, y, xi) of each solved lane of a `_Lifted.cct_batch`, whatever
    its status, or None when it is infeasible, xi <= _XI_FLOOR or Y is not
    finite, or the SdpSolverError of multipliers that are not finite. By weak
    duality c_value bounds the relaxation from above: it is the dual
    objective divided by beta0, the sum of the normalization-row multipliers.
    A dual slack with smallest eigenvalue -t is made PSD by adding
    t (N+1)/sigma_1^2 to one of them, since every normalization matrix
    dominates (sigma_1^2/(N+1)) I. The lanes are certified together: their
    dual slacks stacked, and one eigvalsh call for the shifts.
    """
    values, kept = [None] * len(sols), []
    for lane, sol in enumerate(sols):
        if sol.status == SdpStatus.INFEASIBLE:
            continue
        if np.isfinite(sol.dual).all():
            kept.append(lane)
        else:
            values[lane] = SdpSolverError(f"fractional SDP failed: {sol.status.value} (gap "
                                          f"{sol.duality_gap:.2e}, resid {sol.residuals:.2e})")
    ys = np.array([sols[lane].matrix for lane in kept]).reshape(-1, ctx.n + 1, ctx.n + 1)
    xi = ys.diagonal(0, -2, -1).real.mean(axis=-1)
    ok = (xi > _XI_FLOOR) & np.isfinite(ys).all(axis=(1, 2))
    lanes = [lane for lane, good in zip(kept, ok.tolist()) if good]
    if lanes:
        slack, mult = _dual_slack(np.array([sols[lane].dual for lane in lanes]), batch, lanes)
        c_values = (mult[:, :ctx.k - 1].sum(axis=-1)
                    + _psd_shift(slack) * (ctx.n + 1) / ctx.sigma2[0])
        for lane, c_value, x in zip(lanes, c_values, xi[ok].tolist()):
            values[lane] = c_value, sols[lane].matrix, x
    return values


@_one_blas_thread()
def cct_fixed_alpha(ch: ChannelSet, p: float, r_m: float, alpha: float):
    """Secrecy-objective relaxation bound at a fixed confidential power.

    Returns (c_value, y, xi) with log2(c_value) an upper bound on the secrecy
    rate achievable under the multicast floor at this power split, or None
    when the floor is unsupportable, as its power window (`_Lifted.supports`)
    tells before any solve. y and xi are expressed against the raw channel
    units (normalization bound equal to one). It runs at one BLAS thread.
    """
    if not (-1e-12 <= alpha <= p + 1e-12):
        raise ValueError("confidential power must lie in [0, P]")
    ctx, alpha = _Lifted(ch, p), min(max(alpha, 0.0), p)
    if r_m > 0 and not ctx.supports(r_m, alpha, _eavesdropper_snr(ctx)[0]):
        return None
    batch = ctx.cct_batch([r_m], [alpha])   # NaN > 0 is false: a NaN floor raises here
    res = _cct_values(ctx, solve_batch(batch), batch)[0]
    if isinstance(res, SdpSolverError):
        raise res
    if res is None:
        return None
    c_value, y, xi = res
    scale = ctx.gain_scale * batch.bounds[0, 0]
    return c_value, y / scale, xi / scale


def _repair(ch: ChannelSet, p: float, floors, x: np.ndarray, cap, out=None):
    """Bottleneck power repair of gains x (B, K) at each multicast floor in `floors` (a
    scalar is one floor): (r_c, alpha, ok), each the transpose of a floor-major array, so
    (B, F), alpha and r_c made in ``out`` (2, F, B) if given. alpha is the largest power at
    which the user of least gain-to-noise ratio meets the floor, (P x - (c - 1) sigma^2) /
    (c x) with c the `model._floor_factor`, in [0, min(P, cap)] (the top without a floor),
    cap a scalar or one per candidate (B,); r_c is the secrecy rate at alpha; ok says the
    floor holds with all power on multicast. A NaN floor raises ValueError."""
    r_m = np.atleast_1d(np.asarray(floors, dtype=float))[:, None]
    c, top = _floor_factors(r_m), np.minimum(p, cap)
    tau = np.argmin(x / ch.sigma2, axis=-1)
    x_tau, s_tau = x[np.arange(len(x)), tau], ch.sigma2[tau]
    ok = r_m - _RM_SLACK <= np.log2(1.0 + p * (x_tau / s_tau))
    a, r_c = np.empty((2, *ok.shape)) if out is None else out
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(c - 1.0, s_tau, out=a)
        np.divide(np.subtract(p * x_tau, a, out=a), np.multiply(c, x_tau, out=r_c), out=a)
    np.clip(a, 0.0, top, out=a)
    np.copyto(a, 0.0, where=~(x_tau > 0))
    np.copyto(a, top, where=~(r_m > 0))
    return model.secrecy_rate_from_gains(x, ch.sigma2, a, out=r_c).T, a.T, ok.T


def _best_of_draws(ch: ChannelSet, p: float, held: list, covs, caps: list, t_g: int,
                   rngs: list) -> list:
    """Per covariance covs[i], drawn on rngs[i] by `sdp._grp_draws` (in turn), its first best
    candidate at each multicast floor of held[i], as (patterns, scores, powers), a row each per
    floor: the `_repair` secrecy rate and power, capped at caps[i], the score -inf (the row
    meaningless) where no candidate carries the floor; NaN ranks as -inf. Each draw of t_g
    candidates is scored on its own, in one `_repair` array grown to the most floors, and every
    one-candidate batch (a rank-one pattern) in one call at the sorted union of their floors,
    from which each pattern reads its own floors back."""
    covs = list(covs)
    results, singles, out = [None] * len(covs), [], np.empty((2, 0, t_g))
    for i, batch in enumerate(_grp_draws(covs, t_g, rngs) if covs else ()):
        floors = np.asarray(held[i], dtype=float)
        if len(batch) == 1:                         # a copy: a draw's batch is reused
            singles.append((i, batch[0].copy()))
            continue
        if out.shape[1] < floors.size:
            out = np.empty((2, floors.size, t_g))
        r_c, alpha, ok = _repair(ch, p, floors, model.effective_gains(ch, batch), caps[i],
                                 out[:, :floors.size])
        scores = np.where(ok & (r_c > -np.inf), r_c, -np.inf).T     # floor-major; NaN as -inf
        top, rows = scores.argmax(axis=-1), np.arange(floors.size)
        results[i] = batch[top], scores[rows, top], alpha.T[rows, top]
    if singles:
        index, patterns = zip(*singles)
        # a set, not np.unique, whose first call imports numpy.ma: 1.5 MB of peak RSS
        union = np.array(sorted({*np.concatenate([held[i] for i in index]).tolist()}))
        gains = model.effective_gains(ch, np.array(patterns)[:, None, :])[:, 0]   # each alone
        r_c, alpha, ok = _repair(ch, p, union, gains, np.array([caps[i] for i in index]))
        scores = np.where(ok & (r_c > -np.inf), r_c, -np.inf)
        for s, (i, v) in enumerate(singles):
            own = np.searchsorted(union, held[i])
            results[i] = np.repeat(v[None], own.size, axis=0), scores[s, own], alpha[s, own]
    return results


def _repair_one(ch: ChannelSet, p: float, r_m: float, x: np.ndarray):
    """`_repair` of one pattern's gains x (K,) at one floor, capped at P, as Python scalars."""
    r_c, alpha, ok = _repair(ch, p, r_m, x[None, :], p)
    return float(r_c[0, 0]), float(alpha[0, 0]), bool(ok[0, 0])


def _cct_units(ctx: _Lifted, ch: ChannelSet, floors: list, t_alpha: int,
               eav_snr: float) -> tuple:
    """(alphas, units, anchors), decided before any solve: per floor its lanes'
    powers (P without a floor; with one, the grid powers P t/(t_alpha - 1) in
    its window, `_Lifted.supports` at eav_snr, then the edge refinements in
    it above the largest), and the lanes (i, j), at powers alphas[i][j], in
    units of work. A grid power's lanes at every floor that keeps it are one
    unit, its anchor the lowest floor's first, whose window keeps every grid
    power that any higher floor's keeps; every other lane is its own unit."""
    def in_window(r, powers):
        return [alpha for alpha, ok in zip(powers, ctx.supports(r, powers, eav_snr)) if ok]
    grid = [ctx.p * t / (t_alpha - 1) for t in range(t_alpha)]
    alphas, by_power, singles = [[ctx.p] for _ in floors], {}, []
    for i in sorted((i for i, r in enumerate(floors) if r > 0), key=floors.__getitem__):
        r, window = floors[i], in_window(floors[i], grid)
        # The supportable power window [0, edge] can fall between grid samples
        # (it shrinks like 2^-r_m); the aligned gains bound the relaxed edge in
        # closed form, so refine there instead of losing the window.
        edge = min(model.alpha_opt_closed_form(ctx.aligned2_raw[k], ch.sigma2[k], ctx.p, r)
                   for k in range(1, ch.k))
        edges = [frac * edge for frac in (0.98, 0.75, 0.5, 0.25)
                 if max(window, default=-1.0) + 1e-12 < frac * edge < ctx.p]
        alphas[i] = window + in_window(r, edges)
        for j, alpha in enumerate(window):
            by_power.setdefault(alpha, []).append((i, j))
        singles += [[(i, j)] for j in range(len(window), len(alphas[i]))]
    singles += [[(i, 0)] for i, r in enumerate(floors) if not r > 0]
    return alphas, [*by_power.values(), *singles], {unit[0] for unit in by_power.values()}


class _Lane(NamedTuple):
    """A cct lane from its solve to its point: `value` is its `_cct_values` entry
    (c_value alone once rounded), `by` the slot whose solve it takes, and
    `score` and `pattern` its first best candidate (-inf and None: none) and
    `power` the repaired power that candidate scored at."""
    alpha: float
    status: SdpStatus
    iterations: int
    value: object
    by: tuple | None = None
    score: float = -math.inf
    pattern: np.ndarray | None = None
    power: float = math.nan


def _solve_lanes(ctx: _Lifted, floors: list, alphas: list) -> list:
    """The `_Lane` of each lane (r_m, alpha) of zip(floors, alphas), solved as
    one `_Lifted.cct_batch`, if any, and certified together by `_cct_values`."""
    if not floors:
        return []
    batch = ctx.cct_batch(floors, alphas)
    sols = solve_batch(batch)
    return [_Lane(alpha, sol.status, sol.iterations, value)
            for alpha, sol, value in zip(alphas, sols, _cct_values(ctx, sols, batch))]


def _solve_units(ctx: _Lifted, floors: list, alphas: list, units: list) -> dict:
    """The `_Lane` of every lane (i, j) of `units`, by the slot whose solve it
    takes (a shared slot holds that lane): its unit's first (the anchor) where
    that value is certified and its Y meets floor i's rows (`_Lifted.supports`
    at the `_Lifted.least_snr` of Y, all pairs in one call), as that program
    differs only by stricter rows; else itself. Three batches: the first
    lanes without a floor, those with one, then the rest."""
    solved = {}

    def solve(slots):
        solved.update((slot, lane._replace(by=slot)) for slot, lane in zip(slots, _solve_lanes(
            ctx, [floors[i] for i, _ in slots], [alphas[i][j] for i, j in slots])))

    solve([unit[0] for unit in units if not floors[unit[0][0]] > 0])
    solve([unit[0] for unit in units if floors[unit[0][0]] > 0])
    held = [unit for unit in units if len(unit) > 1 and isinstance(solved[unit[0]].value, tuple)]
    snr = ctx.least_snr([solved[unit[0]].value[1] for unit in held])
    pairs = [(unit[0], (i, j), s) for unit, s in zip(held, snr) for i, j in unit[1:]]
    met = ctx.supports([floors[i] for _, (i, _), _ in pairs],
                       [alphas[i][j] for _, (i, j), _ in pairs], [s for *_, s in pairs])
    by = {slot: first for (first, slot, _), ok in zip(pairs, met) if ok}
    solve([slot for unit in units for slot in unit[1:] if slot not in by])
    return {slot: solved[by.get(slot, slot)] for unit in units for slot in unit}


def _lane_rng(rng: np.random.Generator, slot: int) -> np.random.Generator:
    """The generator of a lane's draws: child `slot` of rng's seed sequence."""
    seq = rng.bit_generator.seed_seq
    return np.random.Generator(type(rng.bit_generator)(np.random.SeedSequence(
        seq.entropy, spawn_key=(*seq.spawn_key, slot), pool_size=seq.pool_size)))


def _cct_work(ctx: _Lifted, ch: ChannelSet, floors: list, alphas: list, units: list, t_g: int,
              rngs: list) -> dict:
    """The `_solve_units` lanes of `units`, each certified one with its value cut
    to c_value and its first best candidate at its floor as score, pattern and
    power, the power capped at the lane's alpha: here alone is a cap below P set.
    Every certified solve is rounded in one `_best_of_draws` call: drawn once,
    on `_lane_rng` of the floor and slot that solved it, made only if the draw
    takes normals, and its candidates scored at every floor that takes it."""
    lanes, held = _solve_units(ctx, floors, alphas, units), {}
    for slot, lane in lanes.items():
        held.setdefault(lane.by, []).append(slot)
    drawn = [lanes[first] for first in held if isinstance(lanes[first].value, tuple)]
    rounds = _best_of_draws(ch, ctx.p, [[floors[i] for i, _ in held[lane.by]] for lane in drawn],
                            [lane.value[1] / lane.value[2] for lane in drawn],
                            [lane.alpha for lane in drawn], t_g,
                            [partial(_lane_rng, rngs[lane.by[0]], lane.by[1]) for lane in drawn])
    for lane, (patterns, scores, powers) in zip(drawn, rounds):
        lanes.update((slot, lane._replace(value=lane.value[0], score=score, power=power,
                                          pattern=v if score > -math.inf else None))
                     for slot, score, v, power in zip(held[lane.by], scores, patterns, powers))
    return lanes


def _workers(units: int) -> int:
    """Processes, the calling one included, to solve and round `units` units
    of work in: one per CPU this process may run on, at most one per unit.
    1 without fork or CPU affinity, or while other threads run: a forked
    child gets none of them, but every lock they hold."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(units, len(os.sched_getaffinity(0)))


def _groups(loads: list, count: int) -> list:
    """The indices of `loads` in `count` groups of near-equal summed load:
    largest load first, each to the lightest group (among equals, the one
    with fewer indices), so no group is empty while count <= len(loads);
    each group in index order."""
    groups, totals = [[] for _ in range(count)], [0] * count
    for i in sorted(range(len(loads)), key=lambda i: -loads[i]):
        g = min(range(count), key=lambda g: (totals[g], len(groups[g])))
        groups[g].append(i)
        totals[g] += loads[i]
    return [sorted(group) for group in groups]


def _in_groups(work, groups: list) -> dict:
    """The records of work(group) of every group, merged: the first group's
    here, each other's in a child forked by `os.fork`, which sends its records
    or its exception as one pickle on a pipe and leaves by `os._exit`. Every
    child is reaped before the call returns or raises, and killed first if
    this process raises. Then the first error in group order is raised, a
    ChildProcessError with the exit status where a child sent no whole result.
    For one group as for several, numpy's OpenBLAS runs one thread
    (`_one_blas_thread`) here and in each child, which inherits it: there is
    one group per CPU, so more threads would only contend for the CPUs, and
    the bytes stay the same on any CPU count."""
    children, sent = [], []
    with _one_blas_thread():
        try:
            for group in groups[1:]:
                read, write = os.pipe()
                if (pid := os.fork()) == 0:                 # the child: one pickle, then out
                    try:
                        try:
                            result = work(group)
                        except BaseException as exc:        # raised again by the caller
                            result = exc
                        with os.fdopen(write, "wb") as pipe:
                            pickle.dump(result, pipe)
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(write)
                children.append((pid, read))
            records = work(groups[0]) if groups else {}
        except BaseException:
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid, read in children:  # read to the end first: a child blocks on a full pipe
                with os.fdopen(read, "rb") as pipe:
                    data = pipe.read()
                sent.append((pid, data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for pid, data, status in sent:
        if status != 0:
            raise ChildProcessError(f"worker {pid} sent no whole result (exit status {status})")
        result = pickle.loads(data)
        if isinstance(result, BaseException):
            raise result
        records.update(result)
    return records


def _cct_point(ch: ChannelSet, r_m: float, lanes: list, anchors: set):
    """The `algorithm1_cct` point at floor r_m from its `_cct_work` lanes: the
    first best candidate (-inf never wins) at the rate and power it scored.
    Raises the last SdpSolverError when every lane failed."""
    errors = [lane.value for lane in lanes if isinstance(lane.value, SdpSolverError)]
    if errors and len(errors) == len(lanes):
        raise errors[-1]
    diagnostics = {"n_solves": len(lanes), "n_shared": sum(lane.by in anchors for lane in lanes),
                   "n_failed_alpha": len(errors),
                   "last_error": repr(errors[-1]) if errors else None,
                   "n_iterations": sum(lane.iterations for lane in lanes),
                   "statuses": {stat.value: sum(lane.status is stat for lane in lanes)
                                for stat in SdpStatus}}
    win = max(lanes, key=lambda lane: lane.score, default=None)
    if win is None or win.pattern is None:
        return BoundaryPoint(r_m, 0.0, 0.0, None, math.nan, False, "cct", diagnostics)
    diagnostics.update(alpha_grid=win.alpha,
                       r_c_unrepaired=model.secrecy_rate(ch, win.pattern, win.alpha))
    return BoundaryPoint(r_m, float(win.score), float(win.power), win.pattern,
                         max(0.0, math.log2(max(win.value, 1e-300))), True, "cct", diagnostics)


def _cct_points(ch: ChannelSet, p: float, floors, t_alpha: int, t_g: int, rngs: list) -> list:
    """`algorithm1_cct` at every floor in `floors`, floor i keying its lanes'
    draws on rngs[i], which never advances. M_eav is found once, here, and its
    solve, if any, charged to the first floored point. The `_cct_units` are
    split by lane count into one group per worker (`_workers`) and solved and
    rounded by `_cct_work`, the first group here and each other in a forked
    child (`_in_groups`): the same bytes on any CPU count, as every lane is
    bitwise what it gives alone. Each floor then takes its `_cct_point`; a
    group's error is raised, else the first failing floor's."""
    _check_counts(t_alpha=t_alpha, t_g=t_g)
    ctx = _Lifted(ch, p)
    floors = [float(r) for r in floors]
    floored = [i for i, r in enumerate(floors) if r > 0]
    eav_snr, solves = _eavesdropper_snr(ctx) if floored else (math.inf, 0)
    alphas, units, anchors = _cct_units(ctx, ch, floors, t_alpha, eav_snr)
    groups = _groups([len(unit) for unit in units], _workers(len(units)))
    lanes = _in_groups(lambda group: _cct_work(ctx, ch, floors, alphas,
                                               [units[u] for u in group], t_g, rngs), groups)
    points = [_cct_point(ch, r_m, [lanes[i, j] for j in range(len(own))], anchors)
              for i, (r_m, own) in enumerate(zip(floors, alphas))]
    if floored:
        points[floored[0]].diagnostics["n_solves"] += solves
    return points


@_one_blas_thread()
def algorithm1_cct(ch: ChannelSet, p: float, r_m: float, t_alpha: int = 80,
                   t_g: int = 1000, rng: np.random.Generator | None = None) -> BoundaryPoint:
    """Algorithm 1 at one BLAS thread: a 1-D search over the confidential
    power alpha, the one-floor case of `_cct_points`, whose lanes fan out
    as a region's.

    With a floor r_m > 0 the samples are the t_alpha uniform powers over
    [0, P] in the power window that the eavesdropper program
    (`_eavesdropper_snr`) bounds, then up to four refinements in it below the
    closed-form window edge, above the largest of those grid powers: all
    decided before any Charnes-Cooper solve. Without a floor the feasible set
    does not depend on alpha and the objective does not decrease in it: the
    one sample is alpha = P. Each lane that `_cct_values` certifies, whatever
    its status, is rounded by Gaussian randomization, lane j on child j of
    rng's seed sequence (`_lane_rng`); candidates are scored by their
    `_repair` secrecy rate, power capped at the lane's alpha, and dropped if
    they cannot carry the floor; the first best over the lanes (grid before
    edges) wins, at the rate and power it scored. The point records the
    relaxation bound at the winning sample.

    diagnostics: n_solves counts the Charnes-Cooper lanes plus any
    eavesdropper solve (none where M_eav is its closed form, as with one
    eavesdropper), and n_shared the lanes taken from an anchor (alone, the
    grid lanes); n_iterations and statuses sum the IPM iterations of all the
    lanes, shared ones included, and count them by SdpStatus; n_failed_alpha
    counts the samples without finite multipliers and last_error holds the
    last such error, raised when every sample fails. The eavesdropper solve
    never raises: without finite multipliers it gives its closed-form bound.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    return _cct_points(ch, p, [r_m], t_alpha, t_g, [rng])[0]


@_one_blas_thread()
def secrecy_covariance(ch: ChannelSet, p: float) -> np.ndarray:
    """Secrecy-optimal lifted covariance: the Charnes-Cooper lane with all
    power on the confidential stream and no multicast floor, solved and
    certified by `_solve_lanes` at one BLAS thread; returns the unit-diagonal
    Z. Raises the lane's SdpSolverError, or one where it is infeasible."""
    value = _solve_lanes(_Lifted(ch, p), [0.0], [p])[0].value
    if not isinstance(value, tuple):
        raise value or SdpSolverError("secrecy covariance program unexpectedly infeasible")
    return value[1] / value[2]


def _wscm_points(ch: ChannelSet, p: float, floors, t_lambda: int, t_g: int,
                 rng: np.random.Generator, z_m: np.ndarray, z_c: np.ndarray) -> list:
    """Weighted-covariance-blend heuristic at every multicast floor in `floors`.

    Each blend lam z_c + (1 - lam) z_m of a uniform weight grid draws its T_g
    candidates once from rng, scored against every floor (`_best_of_draws`).
    Each floor keeps its best candidate (ties go to the first blend) with the
    rate and the bottleneck closed-form confidential power it scored at (the
    cap is P), and is infeasible where no candidate carries it. z_m and z_c
    are the multicast and secrecy covariances; rng is the Generator every
    blend draws from in turn.
    """
    _check_counts(t_lambda=t_lambda, t_g=t_g)
    lams = [t / (t_lambda - 1) for t in range(t_lambda)]
    floors = np.asarray(floors, dtype=float)
    best, wins = np.full(floors.size, -np.inf), [None] * floors.size
    for lam, (patterns, scores, powers) in zip(lams, _best_of_draws(
            ch, p, [floors] * t_lambda, [lam * z_c + (1.0 - lam) * z_m for lam in lams],
            [p] * t_lambda, t_g, [rng] * t_lambda)):
        for f in np.flatnonzero(scores > best):
            best[f], wins[f] = scores[f], (patterns[f], float(powers[f]), lam)
    return [BoundaryPoint(r_m, 0.0, 0.0, None, math.nan, False, "wscm") if win is None else
            BoundaryPoint(r_m, r_c, win[1], win[0], math.nan, True, "wscm", {"lambda": win[2]})
            for r_m, r_c, win in zip(floors.tolist(), best.tolist(), wins)]


@_one_blas_thread()
def algorithm2_wscm(ch: ChannelSet, p: float, r_m: float, t_lambda: int = 80,
                    t_g: int = 1000, rng: np.random.Generator | None = None) -> BoundaryPoint:
    """`_wscm_points` at the single floor r_m, with the multicast and secrecy
    covariances solved here at one BLAS thread; a NaN floor raises ValueError
    before either. Each blend is rank two at most, and its draws ignore the
    eigenvalues below `sdp._RANK_TOL` times its trace (`sdp.grp_draw`)."""
    _check_counts(t_lambda=t_lambda, t_g=t_g)
    model._floor_factor(r_m)                        # rejects a NaN floor
    rng = np.random.default_rng(0) if rng is None else rng
    return _wscm_points(ch, p, [r_m], t_lambda, t_g, rng, multicast_upper_bound(ch, p)[1],
                        secrecy_covariance(ch, p))[0]


def baseline_random_irs(ch: ChannelSet, p: float, r_m: float,
                        rng: np.random.Generator) -> BoundaryPoint:
    """Uniform random phases with the closed-form power split."""
    v = np.exp(2j * np.pi * rng.random(ch.n))
    r_c, alpha, ok = _repair_one(ch, p, r_m, model.effective_gains(ch, v))
    return BoundaryPoint(r_m, r_c if ok else 0.0, alpha if ok else 0.0, v if ok else None,
                         math.nan, ok, "random-irs")


def baseline_no_irs(ch: ChannelSet, p: float, r_m: float) -> BoundaryPoint:
    """Direct channels only; power split from the bottleneck closed form."""
    r_c, alpha, ok = _repair_one(ch, p, r_m, np.abs(ch.h) ** 2)
    return BoundaryPoint(r_m, r_c if ok else 0.0, alpha if ok else 0.0, None, math.nan, ok,
                         "no-irs")


def _multicast_score(ch: ChannelSet, p: float):
    def score(vbatch):
        x = model.effective_gains(ch, vbatch)
        return model.multicast_capacity_from_gains(x, ch.sigma2, p)
    return score


@_one_blas_thread()
def baseline_tdma(ch: ChannelSet, p: float, grid_points: int,
                  params: SweepParams, rng: np.random.Generator) -> RegionBoundary:
    """Orthogonal time sharing between the confidential and multicast services.

    Endpoint rates come from the unconstrained secrecy run and a feasible
    rounding of the multicast-optimal covariance; the region is the segment
    between them. It runs at one BLAS thread.
    """
    head = algorithm1_cct(ch, p, 0.0, params.t_alpha, params.t_g, rng)
    r_c_max = head.r_c_achieved
    _, z_m = multicast_upper_bound(ch, p)
    v_m, r_m_max = grp_round(z_m, params.t_g, _multicast_score(ch, p), rng)
    points = []
    for t in np.linspace(0.0, 1.0, grid_points):
        points.append(BoundaryPoint(
            r_m_target=float(t * r_m_max),
            r_c_achieved=float((1.0 - t) * r_c_max),
            alpha=float((1.0 - t) * p),
            phase_vector=None,
            upper_bound=math.nan,
            feasible=True,
            scheme="tdma",
            diagnostics={"time_share": float(t)}))
    return RegionBoundary(points)


def pareto_filter(region: RegionBoundary) -> RegionBoundary:
    """Monotonize the boundary: a point found at a higher multicast target is
    also achievable at every lower target, so each target inherits the best
    feasible point found at or above it."""
    pts = sorted(region.points, key=lambda q: q.r_m_target)
    carried = None
    out = [None] * len(pts)
    for i in range(len(pts) - 1, -1, -1):
        pt = pts[i]
        take = pt
        if carried is not None and (carried.r_c_achieved > pt.r_c_achieved
                                    or (carried.feasible and not pt.feasible)):
            take = replace(carried, r_m_target=pt.r_m_target)
        out[i] = take
        if pt.feasible and (carried is None or pt.r_c_achieved >= carried.r_c_achieved):
            carried = pt
    return RegionBoundary(out, pareto_filtered=True)


@_one_blas_thread()
def sweep_region(ch: ChannelSet, p: float, scheme: str, grid_points: int,
                 params: SweepParams | None = None, seed: int = 0) -> RegionBoundary:
    """Evaluate one scheme on uniform multicast targets over [0, r_m_up].

    Targets beyond the supportable maximum are reported with feasible=False.
    Grid point i draws from the child generator (seed, i); the wscm floors
    share one, (seed, 0), in a single pass. Results depend only on the seed.
    r_m_up and M_eav take their closed forms wherever exact (`_aligned`).
    The cct and upper-bound points are one `_cct_points` call: they share
    one M_eav, its solve (if any) counted in the n_solves of the first
    floored point, which decides every floor's power window before any other
    solve, and each grid power's anchor lane, which higher floors share. Its
    units of lanes are solved and rounded in groups, one per CPU, the first
    in the calling process, each lane once and each group's lanes in at most
    three batches. A wscm region runs in the calling process. The oracle
    enumerates the `ORACLE_GRID`. While no other thread runs, the whole
    region runs numpy's OpenBLAS on one thread (`_one_blas_thread`), so its
    bytes do not depend on the caller's thread count.
    """
    _check_counts(grid_points=grid_points, seed=seed)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    params = params or SweepParams()
    if scheme == "tdma":
        region = baseline_tdma(ch, p, grid_points, params, substream(seed, 0))
    else:
        region = RegionBoundary(_region_points(ch, p, scheme, grid_points, params, seed))
    return pareto_filter(region) if params.pareto_filter else region


def _region_points(ch: ChannelSet, p: float, scheme: str, grid_points: int, params: SweepParams,
                   seed: int) -> list:
    """The points of `sweep_region` for every scheme but tdma."""
    r_m_up, z_m = multicast_upper_bound(ch, p)
    targets = np.linspace(0.0, r_m_up, grid_points)

    if model.feasibility_check(ch) is model.Feasibility.INFEASIBLE:
        # No pattern can give user 1 the lead: the region degenerates to the
        # multicast axis, so only the multicast problem remains.
        v_m, cap = grp_round(z_m, params.t_g, _multicast_score(ch, p), substream(seed, 0))
        return [BoundaryPoint(float(rm), 0.0, 0.0, v_m if cap >= rm - _RM_SLACK else None,
                              math.nan, cap >= rm - _RM_SLACK, scheme, {"degenerate": True})
                for rm in targets]

    def eval_point(idx: int) -> BoundaryPoint:
        rm = float(targets[idx])
        if scheme == "random-irs":
            return baseline_random_irs(ch, p, rm, substream(seed, idx))
        if scheme == "no-irs":
            return baseline_no_irs(ch, p, rm)
        from .analysis import brute_force_oracle
        r_c, v, alpha = brute_force_oracle(ch, p, rm, *ORACLE_GRID)
        return BoundaryPoint(rm, r_c, alpha, v, math.nan, v is not None, "oracle")

    if scheme in ("cct", "upper-bound"):
        points = _cct_points(ch, p, targets, params.t_alpha, params.t_g,
                             [substream(seed, i) for i in range(grid_points)])
        if scheme == "upper-bound":
            points = [replace(pt, r_c_achieved=pt.upper_bound if pt.feasible else 0.0,
                              scheme="upper-bound") for pt in points]
        return points
    if scheme == "wscm":
        return _wscm_points(ch, p, targets, params.t_lambda, params.t_g, substream(seed, 0), z_m,
                            secrecy_covariance(ch, p))
    return [eval_point(i) for i in range(grid_points)]
