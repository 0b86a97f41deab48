"""Boundary characterization of the (multicast, secrecy) rate region.

Two optimized schemes plus benchmarks:

* ``cct``        fractional-program sweep: for each confidential power on a
                 uniform grid, a Charnes-Cooper transformed SDP bounds the
                 secrecy objective (every floor's programs are lanes of the
                 same region-wide solves) and Gaussian randomization
                 extracts a feasible reflection pattern.
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

import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import model
from .channel import ChannelSet
from .sdp import (SdpBatch, SdpSolverError, SdpStatus, grp_draw, grp_round, solve_batch,
                  substream)

SCHEMES = ("cct", "wscm", "random-irs", "no-irs", "tdma", "upper-bound", "oracle")
ORACLE_GRID = (64, 201)   # phase levels and power samples of the oracle scheme
_LEAST = {"t_alpha": 2, "t_lambda": 2, "t_g": 1, "grid_points": 2}   # each count's least value

# Non-optimal solves are still usable when this accurate.
_ACCEPT_GAP = 1e-6
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

    def cct_batch(self, floors, alphas, eav_snr: float):
        """(batch, keep): one Charnes-Cooper lane per pair (r_m, alpha) of
        zip(floors, alphas) with keep, all floored (r_m > 0) or none; keep
        drops the pairs at which no lifted covariance supports the floor,
        (P - alpha c) eav_snr < c - 1 with c = 2^r_m (`_eavesdropper_snr`).
        Lane (r_m, alpha) maximizes Tr((s_1/(N+1) I + alpha T_1) Y) over PSD Y
        with a constant diagonal (the tie rows) s.t. Tr((s_1/(N+1) I + alpha
        s_1/s_k T_k) Y) <= beta0 for each eavesdropper k and, with a floor,
        Tr(((P - alpha c) T_k - (c - 1) s_k/(N+1) I) Y) >= 0. The bound beta0
        keeps Y of order one."""
        n1, k, eav, s1 = self.n + 1, self.k, np.arange(1, self.k), self.sigma2[0]
        alphas = np.asarray(alphas, dtype=float)
        floored = any(r > 0 for r in floors)
        c = np.array([2.0 ** float(r) for r in floors])     # Python's pow, as `_repair`
        keep = np.ones(alphas.size, dtype=bool)
        if floored:
            with np.errstate(over="ignore"):
                keep = (self.p - alphas * c) * eav_snr >= (c - 1.0) * (1.0 - 1e-12)
        a, c = alphas[keep, None], c[keep, None]
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
        return SdpBatch(self.basis, weights[:, 0], weights[:, 1:], bounds, sense), keep


def _solution_usable(sol) -> bool:
    if sol.status == SdpStatus.OPTIMAL:
        return True
    return (sol.status in (SdpStatus.MAX_ITERATIONS, SdpStatus.BREAKDOWN)
            and sol.duality_gap <= _ACCEPT_GAP and sol.residuals <= _ACCEPT_GAP)


def _dual_slack(sol, batch: SdpBatch, lane: int):
    """(A*(y) - C, y) of one lane of a batch at the solver's multipliers y,
    each first clipped to the sign its row's sense allows (nonnegative for
    +1, nonpositive for -1); weak duality then needs only the slack's
    smallest eigenvalue."""
    ys = np.where(batch.sense * sol.dual < 0, 0.0, sol.dual)
    w = batch.rows[lane].T @ ys - batch.objective[lane]
    return (batch.basis * w) @ batch.basis.conj().T, ys


def _psd_shift(mat: np.ndarray) -> float:
    """Smallest t >= 0 with mat + t*I PSD."""
    return max(0.0, -float(np.linalg.eigvalsh(mat)[0]))


def _max_min_snr(ctx: _Lifted, users: np.ndarray, weights: np.ndarray):
    """Max over unit-diagonal PSD Z of min over `users` of weights_k Tr(Z T_k)
    in ctx units, as (value, Z), solved as `_Lifted.max_min_batch`: Z is
    Y / Y_11 of the primal Y and value the smaller of two certified upper
    bounds, so it never lies below the relaxed maximum.

    * the dual: multipliers mu_k >= 0 on the user rows, whose bounds are b,
      and t lifting the dual slack to PSD give every feasible Y the diagonal
      Y_11 >= b.mu / (1 + (N+1) t): the value is s_scale / Y_11 at most;
    * the closed form s_scale = min_k weights_k |aligned gain_k|^2, since
      Tr(Z T_k) never exceeds it. It is exact whenever one user's aligned
      gain binds, as with a single user or no reflection. As the program's
      unit it puts Y_11 in [1, N+1] (Z = I is feasible).

    A user without aligned gain makes the value 0, with Z = I and no solve.
    A failed solve raises SdpSolverError.
    """
    s_scale = float(np.min(weights * ctx.aligned2[users]))
    if s_scale <= 0.0:
        return 0.0, np.eye(ctx.n + 1, dtype=complex)
    batch = ctx.max_min_batch(users, weights, s_scale)
    sol = solve_batch(batch)[0]
    if not _solution_usable(sol):
        raise SdpSolverError(f"max-min SNR solve failed: {sol.status.value}")
    slack, y = _dual_slack(sol, batch, 0)
    dual_obj = -float(batch.bounds[0] @ y)
    dual_snr = math.inf
    if dual_obj > 0:
        dual_snr = s_scale * (1.0 + (ctx.n + 1) * _psd_shift(slack)) / dual_obj
    return max(min(dual_snr, s_scale), 0.0), sol.matrix / sol.matrix[0, 0].real


def multicast_upper_bound(ch: ChannelSet, p: float):
    """Certified upper bound on the largest supportable multicast floor, all
    power on the multicast stream: (log2(1 + s), Z) with (s, Z) the
    `_max_min_snr` of every user under weights P / sigma_k^2."""
    ctx = _Lifted(ch, p)
    s, z = _max_min_snr(ctx, np.arange(ctx.k), ctx.p / ctx.sigma2)
    return math.log2(1.0 + s), z


def _eavesdropper_snr(ctx: _Lifted) -> float:
    """M_eav, the `_max_min_snr` of the eavesdroppers under weights
    1 / sigma_k^2. Eavesdropper k needs Tr(Z T_k) / sigma_k^2 >=
    (c - 1) / (P - alpha c), c = 2^r_m, so this one constant decides every
    (r_m, alpha) of a channel. A failed solve raises SdpSolverError."""
    eav = np.arange(1, ctx.k)
    return _max_min_snr(ctx, eav, 1.0 / ctx.sigma2[eav])[0]


def _cct_value(ctx: _Lifted, sol, batch: SdpBatch, lane: int):
    """(c_value, y, xi) of one solved lane of a `_Lifted.cct_batch`, or
    None when it is infeasible; an unusable solution raises SdpSolverError.
    c_value bounds the relaxation from above: it is the dual objective divided
    by beta0, the sum of the normalization-row multipliers. A dual slack with
    smallest eigenvalue -t is made PSD by adding t (N+1)/sigma_1^2 to one of
    them, since every normalization matrix dominates (sigma_1^2/(N+1)) I.
    """
    if sol.status == SdpStatus.INFEASIBLE:
        return None
    if not _solution_usable(sol):
        raise SdpSolverError(f"fractional SDP failed: {sol.status.value} "
                             f"(gap {sol.duality_gap:.2e}, resid {sol.residuals:.2e})")
    y = sol.matrix
    xi = float(np.mean(np.diag(y).real))
    if xi <= _XI_FLOOR:
        return None
    slack, mult = _dual_slack(sol, batch, lane)
    c_value = float(mult[:ctx.k - 1].sum()) + _psd_shift(slack) * (ctx.n + 1) / ctx.sigma2[0]
    return c_value, y, xi


def cct_fixed_alpha(ch: ChannelSet, p: float, r_m: float, alpha: float):
    """Secrecy-objective relaxation bound at a fixed confidential power.

    Returns (c_value, y, xi) with log2(c_value) an upper bound on the secrecy
    rate achievable under the multicast floor at this power split, or None
    when the floor is unsupportable. y and xi are expressed against the raw
    channel units (normalization bound equal to one).
    """
    if not (-1e-12 <= alpha <= p + 1e-12):
        raise ValueError("confidential power must lie in [0, P]")
    ctx = _Lifted(ch, p)
    eav_snr = _eavesdropper_snr(ctx) if r_m > 0 else math.inf
    batch, keep = ctx.cct_batch([r_m], [min(max(alpha, 0.0), p)], eav_snr)
    res = _cct_value(ctx, solve_batch(batch)[0], batch, 0) if keep[0] else None
    if res is None:
        return None
    c_value, y, xi = res
    scale = ctx.gain_scale * batch.bounds[0, 0]
    return c_value, y / scale, xi / scale


def _repair(ch: ChannelSet, p: float, floors, x: np.ndarray, alpha_cap: float | None):
    """Bottleneck power repair of gains x (B, K) at each multicast floor in
    `floors` (a scalar is one floor): (r_c, alpha, ok), each (B, F). alpha is
    the largest power at which the user of least gain-to-noise ratio meets
    the floor, (P x - (c - 1) sigma^2) / (c x) with c = 2^r_m, in [0, P] (P
    without a floor) and capped by alpha_cap; r_c is the secrecy rate at
    alpha; ok says the floor holds with all power on multicast."""
    r_m = np.atleast_1d(np.asarray(floors, dtype=float))
    c = np.array([2.0 ** float(r) for r in r_m])     # Python's pow, as alpha_opt_closed_form
    y = x / ch.sigma2
    tau = np.argmin(y, axis=-1)
    x_tau = np.take_along_axis(x, tau[:, None], axis=-1)
    ok = np.log2(1.0 + p * y.min(axis=-1))[:, None] >= r_m - _RM_SLACK
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (p * x_tau - (c - 1.0) * ch.sigma2[tau][:, None]) / (c * x_tau)
    a = np.where(r_m > 0, np.where(x_tau > 0, np.clip(a, 0.0, p), 0.0), p)
    if alpha_cap is not None:
        a = np.minimum(a, alpha_cap)
    return model.secrecy_rate_from_gains(x[:, None, :], ch.sigma2, a), a, ok


def _masked_alpha_scores(ch: ChannelSet, p: float, floors, alpha_cap: float | None):
    """Score callback for `grp_round`: the `_repair` secrecy rate of a batch,
    (B, F), one column per floor in `floors`, -inf where a candidate cannot
    carry that floor at any power; the batch's gains are computed once."""
    def score(vbatch):
        r_c, _, ok = _repair(ch, p, floors, model.effective_gains(ch, vbatch), alpha_cap)
        return np.where(ok, r_c, -np.inf)

    return score


def _repair_one(ch: ChannelSet, p: float, r_m: float, x: np.ndarray, alpha_cap: float | None):
    """`_repair` of one pattern's gains x (K,) at one floor, as Python scalars."""
    r_c, alpha, ok = _repair(ch, p, r_m, x[None, :], alpha_cap)
    return float(r_c[0, 0]), float(alpha[0, 0]), bool(ok[0, 0])


def _rounded_point(ch: ChannelSet, p: float, r_m: float, v: np.ndarray | None,
                   scheme: str, diagnostics: dict | None = None) -> BoundaryPoint:
    """Boundary point of pattern v at its repaired power split; infeasible
    when v is None or cannot carry the multicast floor r_m."""
    if v is not None:
        r_c, alpha, ok = _repair_one(ch, p, r_m, model.effective_gains(ch, v), None)
        if ok:
            return BoundaryPoint(r_m, r_c, alpha, v, math.nan, True, scheme, diagnostics or {})
    return BoundaryPoint(r_m, 0.0, 0.0, None, math.nan, False, scheme)


def _cct_lanes(ctx: _Lifted, floors: list, samples: list, eav_snr: float) -> list:
    """Per point i, (alpha, status, iterations, value) of each kept lane at
    floor floors[i] and power in samples[i]: one `solve_batch` call solves all
    unfloored points' lanes, one all floored. value is the lane's
    `_cct_value`, or the SdpSolverError it raised (powers at the exact
    feasibility edge lose strict interiority)."""
    lanes = [[] for _ in floors]
    for floored in (False, True):
        pairs = [(i, a) for i, r in enumerate(floors) if (r > 0) == floored for a in samples[i]]
        if not pairs:
            continue
        batch, keep = ctx.cct_batch([floors[i] for i, _ in pairs], [a for _, a in pairs], eav_snr)
        for lane, (j, sol) in enumerate(zip(np.flatnonzero(keep).tolist(), solve_batch(batch))):
            try:
                value = _cct_value(ctx, sol, batch, lane)
            except SdpSolverError as exc:
                value = exc
            i, alpha = pairs[j]
            lanes[i].append((alpha, sol.status, sol.iterations, value))
    return lanes


def _workers(points: int) -> int:
    """Processes to solve and round `points` boundary points in: one per CPU
    this process may run on, at most one per point. 1 (the calling process)
    without fork or CPU affinity, or while other threads run: a forked child
    gets none of them, but every lock they hold."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(points, len(os.sched_getaffinity(0)))


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


def _cct_group(ctx: _Lifted, ch: ChannelSet, floors: list, grid: list, t_g: int, rngs: list,
               eav_snr: float, n_solves: list) -> list:
    """Per floor, the `algorithm1_cct` point rounded on rngs[i], or the
    SdpSolverError of a point whose every solved lane failed. The lanes of
    all floors are solved together: first every floor's samples (the grid,
    or alpha = P without a floor), then every floor's edge refinements,
    placed from its own largest feasible grid power. n_solves[i] counts
    solves made before, for floor i."""
    p = ctx.p
    floored = [i for i, r in enumerate(floors) if r > 0]
    samples = [grid if r > 0 else [p] for r in floors]
    lanes = _cct_lanes(ctx, floors, samples, eav_snr)
    edges = [[] for _ in floors]
    for i in floored:
        # The supportable power window [0, edge] can fall between grid samples
        # (it shrinks like 2^-r_m); the aligned gains bound the relaxed edge in
        # closed form, so refine there instead of losing the window.
        edge = min(model.alpha_opt_closed_form(ctx.aligned2_raw[k], ch.sigma2[k], p, floors[i])
                   for k in range(1, ch.k))
        floor_alpha = max((a for a, *_, v in lanes[i] if isinstance(v, tuple)), default=-1.0)
        edges[i] = [frac * edge for frac in (0.98, 0.75, 0.5, 0.25)
                    if floor_alpha + 1e-12 < frac * edge < p]
    lanes = [own + more for own, more in zip(lanes, _cct_lanes(ctx, floors, edges, eav_snr))]

    points = []
    for r_m, own, rng, solves in zip(floors, lanes, rngs, n_solves):
        best = None
        for alpha_t, _, _, value in own:
            if not isinstance(value, tuple):
                continue
            c_value, y, xi = value
            v, sc = grp_round(y / xi, t_g, _masked_alpha_scores(ch, p, r_m, alpha_t), rng)
            if not np.isfinite(sc):
                continue
            r_c, alpha_fix, ok = _repair_one(ch, p, r_m, model.effective_gains(ch, v), alpha_t)
            if ok and (best is None or r_c > best[0]):
                bound = max(0.0, math.log2(max(c_value, 1e-300)))
                best = (r_c, alpha_fix, v, bound, alpha_t, model.secrecy_rate(ch, v, alpha_t))

        errors = [value for *_, value in own if isinstance(value, SdpSolverError)]
        diagnostics = {"n_solves": solves + len(own), "n_failed_alpha": len(errors),
                       "last_error": repr(errors[-1]) if errors else None,
                       "n_iterations": sum(iters for _, _, iters, _ in own),
                       "statuses": {stat.value: sum(status is stat for _, status, _, _ in own)
                                    for stat in SdpStatus}}
        if best is None:
            if errors and len(errors) == len(own):
                points.append(errors[-1])
            else:
                points.append(BoundaryPoint(r_m, 0.0, 0.0, None, math.nan, False, "cct",
                                            diagnostics))
            continue
        r_c, alpha, v, bound, alpha_grid, unrepaired = best
        diagnostics.update(alpha_grid=alpha_grid, r_c_unrepaired=unrepaired)
        points.append(BoundaryPoint(r_m, r_c, alpha, v, bound, True, "cct", diagnostics))
    return points


def _cct_points(ch: ChannelSet, p: float, floors, t_alpha: int, t_g: int, rngs: list,
                eav_snr: float | None) -> list:
    """`algorithm1_cct` at every floor in `floors`, point i rounding on
    rngs[i]. eav_snr is solved here if None and a floor is positive, and
    counted in the n_solves of the first floored point.

    The points are solved and rounded by `_cct_group`: in the calling
    process, or, with two or more points and CPUs (see `_workers`), in one
    group per CPU on a pool of forked worker processes, created and joined
    within the call. The groups are balanced by each point's count of grid
    lanes in the power window. The points come back in floor order and are
    the same bytes either way, since every point rounds on its own generator
    and every lane is bitwise what it gives alone. Fanned out, the
    generators advance in the workers, not in rngs. Where several points
    fail, the error of the first failing floor is raised, a worker's own
    error counting as one of its group's first point."""
    _check_counts(t_alpha=t_alpha, t_g=t_g)
    ctx = _Lifted(ch, p)
    floors = [float(r) for r in floors]
    floored = [i for i, r in enumerate(floors) if r > 0]
    n_solves = [0] * len(floors)
    if floored and eav_snr is None:
        eav_snr, n_solves[floored[0]] = _eavesdropper_snr(ctx), 1
    grid = [p * t / (t_alpha - 1) for t in range(t_alpha)]
    workers = _workers(len(floors))
    if workers < 2:
        points = _cct_group(ctx, ch, floors, grid, t_g, rngs, eav_snr, n_solves)
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        loads = [int(ctx.cct_batch([r] * t_alpha, grid, eav_snr)[1].sum()) if r > 0 else 1
                 for r in floors]
        groups = _groups(loads, workers)
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_cct_group, ctx, ch, [floors[i] for i in group], grid, t_g,
                                   [rngs[i] for i in group], eav_snr,
                                   [n_solves[i] for i in group]) for group in groups]
        points = [None] * len(floors)
        for group, future in zip(groups, futures):
            error = future.exception()
            for i, point in zip(group, [error] if error is not None else future.result()):
                points[i] = point
    for point in points:
        if isinstance(point, Exception):
            raise point
    return points


def algorithm1_cct(ch: ChannelSet, p: float, r_m: float, t_alpha: int = 80,
                   t_g: int = 1000, rng: np.random.Generator | None = None,
                   eav_snr: float | None = None) -> BoundaryPoint:
    """Algorithm 1: a 1-D search over the confidential power alpha, the
    one-floor case of `_cct_points`, solved and rounded in the calling
    process (one point never fans out).

    With a floor r_m > 0 the samples are t_alpha uniform powers over [0, P],
    then up to four refinements below the closed-form window edge, above the
    largest feasible grid power. Without one the feasible set does not depend
    on alpha and the objective does not decrease in it: the one sample is
    alpha = P. The samples in the power window, then the refinements, are
    each solved as the lanes of one `solve_batch` call. Each usable lane,
    grid before edges, is rounded by Gaussian randomization on rng;
    candidates are scored by their `_repair` secrecy rate, power capped at
    the lane's alpha, and dropped if they cannot carry the floor. The point
    records the relaxation bound at the winning sample. eav_snr is the
    `_eavesdropper_snr` of (ch, p), solved here if None.

    diagnostics: n_solves counts the Charnes-Cooper lanes (samples inside the
    window) plus any eavesdropper solve; n_iterations and statuses sum their
    IPM iterations and count them by SdpStatus; n_failed_alpha counts failed
    samples and last_error holds the last error, raised when every solved
    sample fails. A failed eavesdropper solve raises, as it would fail every
    sample.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    return _cct_points(ch, p, [r_m], t_alpha, t_g, [rng], eav_snr)[0]


def secrecy_covariance(ch: ChannelSet, p: float) -> np.ndarray:
    """Secrecy-optimal lifted covariance: the Charnes-Cooper program with all
    power on the confidential stream and no multicast floor; returns the
    unit-diagonal Z."""
    ctx = _Lifted(ch, p)
    batch, _ = ctx.cct_batch([0.0], [p], math.inf)
    res = _cct_value(ctx, solve_batch(batch)[0], batch, 0)
    if res is None:
        raise SdpSolverError("secrecy covariance program unexpectedly infeasible")
    return res[1] / res[2]


def _wscm_points(ch: ChannelSet, p: float, floors, t_lambda: int, t_g: int,
                 rng: np.random.Generator | None, z_m: np.ndarray | None,
                 z_c: np.ndarray | None) -> list:
    """Weighted-covariance-blend heuristic at every multicast floor in `floors`.

    Each blend lam z_c + (1 - lam) z_m of a uniform weight grid draws its T_g
    candidates once from rng, scored against every floor. Each floor keeps
    its best candidate (ties go to the first blend) and sets the confidential
    power by the bottleneck closed form. z_m / z_c may be shared across calls.
    """
    _check_counts(t_lambda=t_lambda, t_g=t_g)
    rng = np.random.default_rng(0) if rng is None else rng
    z_m = multicast_upper_bound(ch, p)[1] if z_m is None else z_m
    z_c = secrecy_covariance(ch, p) if z_c is None else z_c
    floors = np.asarray(floors, dtype=float)
    score = _masked_alpha_scores(ch, p, floors, None)
    best = np.full(floors.size, -np.inf)
    best_v, best_lam = [None] * floors.size, [None] * floors.size
    for t in range(t_lambda):
        lam = t / (t_lambda - 1)
        batch = grp_draw(lam * z_c + (1.0 - lam) * z_m, t_g, rng)
        scores = score(batch)
        top = np.argmax(scores, axis=0)
        for f in np.flatnonzero(scores[top, np.arange(floors.size)] > best):
            best[f], best_v[f], best_lam[f] = scores[top[f], f], batch[top[f]].copy(), lam
    return [_rounded_point(ch, p, r_m, v, "wscm", {"lambda": lam})
            for r_m, v, lam in zip(floors.tolist(), best_v, best_lam)]


def algorithm2_wscm(ch: ChannelSet, p: float, r_m: float, t_lambda: int = 80,
                    t_g: int = 1000, rng: np.random.Generator | None = None,
                    z_m: np.ndarray | None = None, z_c: np.ndarray | None = None) -> BoundaryPoint:
    """`_wscm_points` at the single floor r_m."""
    return _wscm_points(ch, p, [r_m], t_lambda, t_g, rng, z_m, z_c)[0]


def baseline_random_irs(ch: ChannelSet, p: float, r_m: float,
                        rng: np.random.Generator) -> BoundaryPoint:
    """Uniform random phases with the closed-form power split."""
    return _rounded_point(ch, p, r_m, np.exp(2j * np.pi * rng.random(ch.n)), "random-irs")


def baseline_no_irs(ch: ChannelSet, p: float, r_m: float) -> BoundaryPoint:
    """Direct channels only; power split from the bottleneck closed form."""
    r_c, alpha, ok = _repair_one(ch, p, r_m, np.abs(ch.h) ** 2, None)
    return BoundaryPoint(r_m, r_c if ok else 0.0, alpha if ok else 0.0, None, math.nan, ok,
                         "no-irs")


def _multicast_score(ch: ChannelSet, p: float):
    def score(vbatch):
        x = model.effective_gains(ch, vbatch)
        return model.multicast_capacity_from_gains(x, ch.sigma2, p)
    return score


def baseline_tdma(ch: ChannelSet, p: float, grid_points: int,
                  params: SweepParams, rng: np.random.Generator) -> RegionBoundary:
    """Orthogonal time sharing between the confidential and multicast services.

    Endpoint rates come from the unconstrained secrecy run and a feasible
    rounding of the multicast-optimal covariance; the region is the segment
    between them.
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


def sweep_region(ch: ChannelSet, p: float, scheme: str, grid_points: int,
                 params: SweepParams | None = None, seed: int = 0) -> RegionBoundary:
    """Evaluate one scheme on uniform multicast targets over [0, r_m_up].

    Targets beyond the supportable maximum are reported with feasible=False.
    Grid point i draws from the child generator (seed, i); the wscm floors
    share one, (seed, 0), in a single pass. Results depend only on the seed.
    The cct and upper-bound points are one `_cct_points` call: they share
    one eavesdropper max-min solve, counted in the n_solves of the first
    floored point, and are solved and rounded in groups, one per CPU, each
    group's Charnes-Cooper lanes in group-wide batches. The oracle
    enumerates the `ORACLE_GRID`.
    """
    _check_counts(grid_points=grid_points)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    params = params or SweepParams()

    if scheme == "tdma":
        region = baseline_tdma(ch, p, grid_points, params, substream(seed, 0))
        return pareto_filter(region) if params.pareto_filter else region

    r_m_up, z_m = multicast_upper_bound(ch, p)
    targets = np.linspace(0.0, r_m_up, grid_points)

    if model.feasibility_check(ch) is model.Feasibility.INFEASIBLE:
        # No pattern can give user 1 the lead: the region degenerates to the
        # multicast axis, so only the multicast problem remains.
        v_m, _ = grp_round(z_m, params.t_g, _multicast_score(ch, p), substream(seed, 0))
        cap = float(model.multicast_capacity_from_gains(
            model.effective_gains(ch, v_m), ch.sigma2, p))
        pts = [BoundaryPoint(float(rm), 0.0, 0.0, v_m if cap >= rm - _RM_SLACK else None,
                             math.nan, cap >= rm - _RM_SLACK, scheme,
                             diagnostics={"degenerate": True})
               for rm in targets]
        region = RegionBoundary(pts)
        return pareto_filter(region) if params.pareto_filter else region

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
                             [substream(seed, i) for i in range(grid_points)], None)
        if scheme == "upper-bound":
            points = [replace(pt, r_c_achieved=pt.upper_bound if pt.feasible else 0.0,
                              scheme="upper-bound") for pt in points]
    elif scheme == "wscm":
        points = _wscm_points(ch, p, targets, params.t_lambda, params.t_g, substream(seed, 0),
                              z_m, secrecy_covariance(ch, p))
    else:
        points = [eval_point(i) for i in range(grid_points)]
    region = RegionBoundary(points)
    return pareto_filter(region) if params.pareto_filter else region
