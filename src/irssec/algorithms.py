"""Boundary characterization of the (multicast, secrecy) rate region.

Two optimized schemes plus benchmarks:

* ``cct``        fractional-program sweep: for each confidential power on a
                 uniform grid, a Charnes-Cooper transformed SDP bounds the
                 secrecy objective and Gaussian randomization extracts a
                 feasible reflection pattern.
* ``wscm``       blends the multicast-optimal and secrecy-optimal lifted
                 covariances and picks the best rounding over the blend grid,
                 with the confidential power set in closed form.
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import model
from .channel import ChannelSet
from .sdp import (SdpProblem, SdpSolverError, SdpStatus, SolverConfig,
                  grp_round, solve, substream)

SCHEMES = ("cct", "wscm", "random-irs", "no-irs", "tdma", "upper-bound", "oracle")

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
    t_alpha: int = 80
    t_lambda: int = 80
    t_g: int = 1000
    pareto_filter: bool = True
    solver: SolverConfig = field(default_factory=SolverConfig)
    oracle_phase_levels: int = 64
    oracle_alpha_points: int = 201


class _Lifted:
    """Gain-normalized lifted problem data shared by the SDP builders. Every
    matrix the programs use is a weight vector over the basis [I, u_1 ... u_K]
    of unit vectors and user lifts T_k = u_k u_k^H; no T_k is formed densely."""

    def __init__(self, ch: ChannelSet, p: float):
        self.ch = ch
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
        self.n_solves = 0

    def weights(self, eye: float = 0.0, k: int | None = None, t_coef: float = 0.0):
        """Weight vector of eye*I + t_coef*T_k over the basis."""
        w = np.zeros(self.n + 1 + self.k)
        w[:self.n + 1] = eye
        if k is not None:
            w[self.n + 1 + k] = t_coef
        return w

    def diag_tie_rows(self):
        ties = np.eye(self.n, self.n + 1 + self.k)
        ties[:, self.n] = -1.0
        return [(w, "==", 0.0) for w in ties]

    def unit_diag_rows(self):
        return [(w, "==", 1.0) for w in np.eye(self.n + 1, self.n + 1 + self.k)]

    def solve(self, objective, cons, cfg: SolverConfig | None, **scalars):
        """Solve one lifted program over the basis; returns (solution, problem)."""
        prob = SdpProblem(dim=self.n + 1, objective=objective, constraints=cons,
                          basis=self.basis, **scalars)
        self.n_solves += 1
        return solve(prob, cfg), prob


def _solution_usable(sol) -> bool:
    if sol.status == SdpStatus.OPTIMAL:
        return True
    return (sol.status in (SdpStatus.MAX_ITERATIONS, SdpStatus.BREAKDOWN)
            and sol.duality_gap <= _ACCEPT_GAP and sol.residuals <= _ACCEPT_GAP)


def _dual_slack(sol, prob: SdpProblem):
    """Dual slack A*(y) - C of a factored max program at the solver's
    multipliers.

    Each multiplier is first clipped to the sign its relation allows (">="
    rows nonpositive, "<=" rows nonnegative). Returns (slack, y_clipped);
    weak duality then needs only the slack's smallest eigenvalue.
    """
    ys = np.empty(len(prob.constraints))
    for i, (y, (_, rel, *_)) in enumerate(zip(sol.dual, prob.constraints)):
        if rel == "<=":
            y = max(y, 0.0)
        elif rel == ">=":
            y = min(y, 0.0)
        ys[i] = y
    w = np.array([con[0] for con in prob.constraints]).T @ ys - prob.objective
    return (prob.basis * w) @ prob.basis.conj().T, ys


def _psd_shift(mat: np.ndarray) -> float:
    """Smallest t >= 0 with mat + t*I PSD."""
    return max(0.0, -float(np.linalg.eigvalsh(mat)[0]))


def multicast_upper_bound(ch: ChannelSet, p: float, cfg: SolverConfig | None = None):
    """Certified upper bound on the largest supportable multicast floor.

    Solves the max-min SNR relaxation over unit-diagonal PSD covariances
    (all transmit power on the multicast stream) and returns (r_m_up, Z), where
    Z is the primal covariance and r_m_up is log2(1 + s) with s the smaller of
    two bounds on the max-min SNR:

    * the dual objective: weights mu_k >= 0 on the users and multipliers w on
      the unit diagonal give min_k SNR_k <= (sum(w) + (N+1) t) / sum(mu) for
      every unit-diagonal Z, with t lifting diag(w) - sum_k mu_k A_k to PSD;
    * the aligned-gain closed form min_k P |aligned gain_k|^2 / sigma_k^2,
      since Tr(Z T_k) never exceeds the aligned gain squared. It is exact
      whenever one user's aligned gain binds, as without reflection.

    The bound can exceed the true maximum, because the lifted covariance
    need not be rank one, but never lies below it.
    """
    ctx = _Lifted(ch, p)
    n1 = ctx.n + 1
    s_scale = max(float(np.max(ctx.p / ctx.sigma2 * np.maximum(ctx.traces, 0.0))), 1e-30)
    cons = [(ctx.weights(k=k, t_coef=ctx.p / ctx.sigma2[k]), ">=", 0.0, [-s_scale])
            for k in range(ctx.k)]
    cons += [c + (np.zeros(1),) for c in ctx.unit_diag_rows()]
    sol, prob = ctx.solve(ctx.weights(), cons, cfg, n_scalars=1, scalar_objective=[s_scale])
    if not _solution_usable(sol):
        raise SdpSolverError(f"multicast bound solve failed: {sol.status.value}")
    slack, y = _dual_slack(sol, prob)
    mu_sum = -float(y[:ctx.k].sum())
    dual_snr = math.inf
    if mu_sum > 0:
        dual_snr = (float(y[ctx.k:].sum()) + n1 * _psd_shift(slack)) / mu_sum
    aligned_snr = float(np.min(ctx.p * ctx.aligned2 / ctx.sigma2))
    s = max(min(dual_snr, aligned_snr), 0.0)
    return math.log2(1.0 + s), sol.matrix


def _qoms_margin_feasible(ctx: _Lifted, r_m: float, alpha: float,
                          cfg: SolverConfig | None) -> bool:
    """Can any unit-diagonal lifted covariance meet the multicast floor at
    this power split? Decided by a capped margin SDP after cheap certificates."""
    if r_m <= 0:
        return True
    c = 2.0 ** r_m
    budget = ctx.p - alpha * c
    if budget <= 0:
        return False
    need = (c - 1.0) * ctx.sigma2 / budget          # required Tr(Z T_k), all users
    eav = slice(1, ctx.k)
    # max of Tr(Z T_k) over unit-diagonal PSD Z is exactly the aligned gain
    # squared (entries of Z are bounded by one in modulus), so this is sharp.
    if np.any(ctx.aligned2[eav] < need[eav] * (1.0 - 1e-12)):
        return False
    if np.all(ctx.traces[eav] >= need[eav]):
        return True                                  # Z = I certifies feasibility
    if np.any(ctx.traces[eav] <= 0):
        return False
    cons = [(ctx.weights(k=k, t_coef=1.0), ">=", 0.0, [-need[k]]) for k in range(1, ctx.k)]
    cons.append((ctx.weights(), "<=", 2.0, [1.0]))   # cap: only s >= 1 matters
    cons += [c_ + (np.zeros(1),) for c_ in ctx.unit_diag_rows()]
    sol, _ = ctx.solve(ctx.weights(), cons, cfg, n_scalars=1, scalar_objective=[1.0])
    if not _solution_usable(sol):
        return False
    return float(sol.objective_value) >= 1.0 - 1e-7


def _cct_solve(ctx: _Lifted, r_m: float, alpha: float, cfg: SolverConfig | None):
    """Charnes-Cooper SDP at a fixed confidential power.

    Returns (c_value, y, xi, z, beta0) in the normalized units of ctx, or
    None when no lifted covariance supports the multicast floor at this
    power split. beta0 is the rescaled normalization bound. c_value bounds
    the relaxation from above: it is the dual objective divided by beta0, the
    sum of the normalization-row multipliers. A dual slack with smallest
    eigenvalue -t is made PSD by adding t (N+1)/sigma_1^2 to one of them,
    since every normalization matrix dominates (sigma_1^2/(N+1)) I.
    """
    if not _qoms_margin_feasible(ctx, r_m, alpha, cfg):
        return None
    n1 = ctx.n + 1
    s1 = ctx.sigma2[0]
    coefs = (s1 / ctx.sigma2) * alpha
    # Re-bound the normalization so the matrix iterate stays order one.
    beta0 = max(max(s1 + coefs[k] * ctx.traces[k] for k in range(1, ctx.k)), 1e-30)
    cons = [(ctx.weights(s1 / n1, k, coefs[k]), "<=", beta0) for k in range(1, ctx.k)]
    if r_m > 0:
        c = 2.0 ** r_m
        for k in range(1, ctx.k):
            cons.append((ctx.weights(-(c - 1.0) * ctx.sigma2[k] / n1, k, ctx.p - alpha * c),
                         ">=", 0.0))
    cons += ctx.diag_tie_rows()
    sol, prob = ctx.solve(ctx.weights(s1 / n1, 0, alpha), cons, cfg)
    if sol.status == SdpStatus.INFEASIBLE:
        return None
    if not _solution_usable(sol):
        raise SdpSolverError(f"fractional SDP failed: {sol.status.value} "
                             f"(gap {sol.duality_gap:.2e}, resid {sol.residuals:.2e})")
    y = sol.matrix
    xi = float(np.mean(np.diag(y).real))
    if xi <= _XI_FLOOR:
        return None
    z = y / xi
    slack, mult = _dual_slack(sol, prob)
    c_value = float(mult[:ctx.k - 1].sum()) + _psd_shift(slack) * n1 / s1
    return c_value, y, xi, z, beta0


def cct_fixed_alpha(ch: ChannelSet, p: float, r_m: float, alpha: float,
                    cfg: SolverConfig | None = None):
    """Secrecy-objective relaxation bound at a fixed confidential power.

    Returns (c_value, y, xi) with log2(c_value) an upper bound on the secrecy
    rate achievable under the multicast floor at this power split, or None
    when the floor is unsupportable. y and xi are expressed against the raw
    channel units (normalization bound equal to one).
    """
    if not (-1e-12 <= alpha <= p + 1e-12):
        raise ValueError("confidential power must lie in [0, P]")
    ctx = _Lifted(ch, p)
    res = _cct_solve(ctx, r_m, min(max(alpha, 0.0), p), cfg)
    if res is None:
        return None
    c_value, y, xi, _, beta0 = res
    scale = ctx.gain_scale * beta0
    return c_value, y / scale, xi / scale


def _masked_alpha_scores(ch: ChannelSet, p: float, r_m: float, alpha_cap: float | None):
    """Score callback factory: per-candidate secrecy at the repaired power.

    Candidates that cannot meet the multicast floor at any power score -inf.
    With alpha_cap set, the power is min(alpha_cap, closed-form optimum).
    """
    sigma2 = ch.sigma2
    c = 2.0 ** r_m

    def score(vbatch):
        x = model.effective_gains(ch, vbatch)
        y = x / sigma2
        tau = np.argmin(y, axis=-1)
        x_tau = np.take_along_axis(x, tau[:, None], axis=-1)[:, 0]
        s_tau = sigma2[tau]
        if r_m > 0:
            ok = np.log2(1.0 + p * y.min(axis=-1)) >= r_m - _RM_SLACK
            with np.errstate(divide="ignore", invalid="ignore"):
                a = (p * x_tau - (c - 1.0) * s_tau) / (c * x_tau)
            a = np.where(x_tau > 0, np.clip(a, 0.0, p), 0.0)
        else:
            ok = np.ones(x.shape[0], dtype=bool)
            a = np.full(x.shape[0], p)
        if alpha_cap is not None:
            a = np.minimum(a, alpha_cap)
        r = model.secrecy_rate_from_gains(x, sigma2, a)
        return np.where(ok, r, -np.inf)

    return score


def _repaired_point(ch: ChannelSet, p: float, r_m: float, v: np.ndarray,
                    alpha_cap: float | None):
    """Evaluate one pattern: bottleneck power repair plus feasibility check."""
    x = model.effective_gains(ch, v)
    tau = model.bottleneck_user(x, ch.sigma2)
    alpha = model.alpha_opt_closed_form(x[tau], ch.sigma2[tau], p, r_m)
    if alpha_cap is not None:
        alpha = min(alpha, alpha_cap)
    feasible = model.multicast_capacity_from_gains(x, ch.sigma2, p) >= r_m - _RM_SLACK
    r_c = float(model.secrecy_rate_from_gains(x, ch.sigma2, alpha))
    return r_c, float(alpha), bool(feasible)


def algorithm1_cct(ch: ChannelSet, p: float, r_m: float, t_alpha: int = 80,
                   t_g: int = 1000, rng: np.random.Generator | None = None,
                   cfg: SolverConfig | None = None) -> BoundaryPoint:
    """Fractional-programming sweep over the confidential power grid.

    At each grid power the Charnes-Cooper SDP is solved, candidates are drawn
    by Gaussian randomization and scored by their repaired secrecy rate
    (patterns that cannot carry the multicast floor are discarded so every
    reported point is floor-certified). Records the relaxation bound at the
    winning grid power.
    """
    if t_alpha < 2:
        raise ValueError("need at least two power samples")
    if rng is None:
        rng = np.random.default_rng(0)
    ctx = _Lifted(ch, p)
    state = {"best": None, "n_failed": 0, "n_steps": 0, "last_error": None,
             "max_feasible": -1.0}

    def run_step(alpha_t):
        state["n_steps"] += 1
        try:
            res = _cct_solve(ctx, r_m, alpha_t, cfg)
        except SdpSolverError as exc:
            # Powers at the exact feasibility edge lose strict interiority;
            # skip the sample unless every sample fails.
            state["n_failed"] += 1
            state["last_error"] = exc
            return
        if res is None:
            return
        state["max_feasible"] = max(state["max_feasible"], alpha_t)
        c_value, _, _, z, _ = res
        v, sc = grp_round(z, t_g, _masked_alpha_scores(ch, p, r_m, alpha_t), rng)
        if not np.isfinite(sc):
            return
        r_c, alpha_fix, feas = _repaired_point(ch, p, r_m, v, alpha_t)
        if not feas:
            return
        bound = max(0.0, math.log2(max(c_value, 1e-300)))
        unrepaired = model.secrecy_rate(ch, v, alpha_t)
        if state["best"] is None or r_c > state["best"][0]:
            state["best"] = (r_c, alpha_fix, v, bound, alpha_t, unrepaired)

    for t in range(t_alpha):
        run_step(p * t / (t_alpha - 1))

    if r_m > 0:
        # The supportable power window [0, edge] can fall between grid samples
        # (it shrinks like 2^-r_m); the aligned gains bound the relaxed edge in
        # closed form, so refine there instead of losing the window.
        edge = min(model.alpha_opt_closed_form(ctx.aligned2_raw[k], ch.sigma2[k], p, r_m)
                   for k in range(1, ch.k))
        floor_alpha = state["max_feasible"]
        for frac in (0.98, 0.75, 0.5, 0.25):
            alpha_x = frac * edge
            if floor_alpha + 1e-12 < alpha_x < p:
                run_step(alpha_x)

    last_error = state["last_error"]
    diagnostics = {"n_solves": ctx.n_solves, "n_failed_alpha": state["n_failed"],
                   "last_error": None if last_error is None else repr(last_error)}
    if state["best"] is None:
        if state["n_failed"] == state["n_steps"] and last_error is not None:
            raise last_error
        return BoundaryPoint(r_m, 0.0, 0.0, None, math.nan, False, "cct",
                             diagnostics=diagnostics)
    r_c, alpha, v, bound, alpha_grid, unrepaired = state["best"]
    diagnostics.update(alpha_grid=alpha_grid, r_c_unrepaired=unrepaired)
    return BoundaryPoint(r_m, r_c, alpha, v, bound, True, "cct", diagnostics=diagnostics)


def secrecy_covariance(ch: ChannelSet, p: float, cfg: SolverConfig | None = None) -> np.ndarray:
    """Secrecy-optimal lifted covariance: the Charnes-Cooper program with all
    power on the confidential stream and no multicast floor; returns the
    unit-diagonal Z."""
    ctx = _Lifted(ch, p)
    res = _cct_solve(ctx, 0.0, p, cfg)
    if res is None:
        raise SdpSolverError("secrecy covariance program unexpectedly infeasible")
    return res[3]


def algorithm2_wscm(ch: ChannelSet, p: float, r_m: float, t_lambda: int = 80,
                    t_g: int = 1000, rng: np.random.Generator | None = None,
                    cfg: SolverConfig | None = None,
                    z_m: np.ndarray | None = None,
                    z_c: np.ndarray | None = None) -> BoundaryPoint:
    """Weighted-covariance-blend heuristic.

    Blends the secrecy-optimal and multicast-optimal lifted covariances over
    a uniform weight grid, rounds each blend, sets the confidential power by
    the bottleneck closed form, and keeps the best rounded pattern. z_m / z_c
    may be precomputed once per channel set and shared across floors.
    """
    if t_lambda < 2:
        raise ValueError("need at least two blend samples")
    if rng is None:
        rng = np.random.default_rng(0)
    if z_m is None:
        _, z_m = multicast_upper_bound(ch, p, cfg)
    if z_c is None:
        z_c = secrecy_covariance(ch, p, cfg)
    score = _masked_alpha_scores(ch, p, r_m, None)
    best = None
    for t in range(t_lambda):
        lam = t / (t_lambda - 1)
        blend = lam * z_c + (1.0 - lam) * z_m
        v, sc = grp_round(blend, t_g, score, rng)
        if not np.isfinite(sc):
            continue
        r_c, alpha, feas = _repaired_point(ch, p, r_m, v, None)
        if not feas:
            continue
        if best is None or r_c > best[0]:
            best = (r_c, alpha, v, lam)
    if best is None:
        return BoundaryPoint(r_m, 0.0, 0.0, None, math.nan, False, "wscm")
    r_c, alpha, v, lam = best
    return BoundaryPoint(r_m, r_c, alpha, v, math.nan, True, "wscm",
                         diagnostics={"lambda": lam})


def baseline_random_irs(ch: ChannelSet, p: float, r_m: float,
                        rng: np.random.Generator) -> BoundaryPoint:
    """Uniform random phases with the closed-form power split."""
    v = np.exp(2j * np.pi * rng.random(ch.n))
    r_c, alpha, feas = _repaired_point(ch, p, r_m, v, None)
    if not feas:
        return BoundaryPoint(r_m, 0.0, 0.0, None, math.nan, False, "random-irs")
    return BoundaryPoint(r_m, r_c, alpha, v, math.nan, True, "random-irs")


def baseline_no_irs(ch: ChannelSet, p: float, r_m: float) -> BoundaryPoint:
    """Direct channels only; power split from the bottleneck closed form."""
    x = np.abs(ch.h) ** 2
    tau = model.bottleneck_user(x, ch.sigma2)
    alpha = model.alpha_opt_closed_form(x[tau], ch.sigma2[tau], p, r_m)
    feasible = bool(model.multicast_capacity_from_gains(x, ch.sigma2, p) >= r_m - _RM_SLACK)
    if not feasible:
        return BoundaryPoint(r_m, 0.0, 0.0, None, math.nan, False, "no-irs")
    r_c = float(model.secrecy_rate_from_gains(x, ch.sigma2, alpha))
    return BoundaryPoint(r_m, r_c, alpha, None, math.nan, True, "no-irs")


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
    head = algorithm1_cct(ch, p, 0.0, params.t_alpha, params.t_g, rng, params.solver)
    r_c_max = head.r_c_achieved
    _, z_m = multicast_upper_bound(ch, p, params.solver)
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


def _sweep_workers() -> int:
    env = os.environ.get("IRSSEC_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def sweep_region(ch: ChannelSet, p: float, scheme: str, grid_points: int,
                 params: SweepParams | None = None, seed: int = 0) -> RegionBoundary:
    """Evaluate one scheme on uniform multicast targets over [0, r_m_up].

    Targets beyond the supportable maximum are reported with feasible=False
    rather than dropped. Each grid point draws from its own child generator
    derived from (seed, index), so results are independent of worker count
    and scheduling. Set IRSSEC_THREADS to bound the thread pool.
    """
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    params = params or SweepParams()

    if scheme == "tdma":
        region = baseline_tdma(ch, p, grid_points, params, substream(seed, 0))
        return pareto_filter(region) if params.pareto_filter else region

    r_m_up, z_m = multicast_upper_bound(ch, p, params.solver)
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

    z_c = secrecy_covariance(ch, p, params.solver) if scheme == "wscm" else None

    def eval_point(idx: int) -> BoundaryPoint:
        rm = float(targets[idx])
        rng = substream(seed, idx)
        if scheme == "cct":
            return algorithm1_cct(ch, p, rm, params.t_alpha, params.t_g, rng, params.solver)
        if scheme == "wscm":
            return algorithm2_wscm(ch, p, rm, params.t_lambda, params.t_g, rng,
                                   params.solver, z_m=z_m, z_c=z_c)
        if scheme == "random-irs":
            return baseline_random_irs(ch, p, rm, rng)
        if scheme == "no-irs":
            return baseline_no_irs(ch, p, rm)
        if scheme == "upper-bound":
            pt = algorithm1_cct(ch, p, rm, params.t_alpha, params.t_g, rng, params.solver)
            value = pt.upper_bound if pt.feasible else 0.0
            return replace(pt, r_c_achieved=value, scheme="upper-bound")
        from .analysis import brute_force_oracle
        r_c, v, alpha = brute_force_oracle(ch, p, rm, params.oracle_phase_levels,
                                           params.oracle_alpha_points)
        return BoundaryPoint(rm, r_c, alpha, v, math.nan, v is not None, "oracle")

    workers = _sweep_workers()
    if workers == 1 or grid_points == 2:
        points = [eval_point(i) for i in range(grid_points)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(eval_point, range(grid_points)))
    region = RegionBoundary(points)
    return pareto_filter(region) if params.pareto_filter else region
