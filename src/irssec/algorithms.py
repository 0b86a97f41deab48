"""Boundary characterization of the (multicast, secrecy) rate region.

Two optimized schemes plus benchmarks:

* ``cct``        fractional-program sweep: for each confidential power on a
                 uniform grid, a Charnes-Cooper transformed SDP bounds the
                 secrecy objective and Gaussian randomization extracts a
                 feasible reflection pattern.
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
from dataclasses import dataclass, field, replace

import numpy as np

from . import model
from .channel import ChannelSet
from .sdp import (SdpProblem, SdpSolverError, SdpStatus, grp_draw, grp_round, solve, solve_many,
                  substream)

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
    """Sample counts of one sweep; every SDP runs at the solver's defaults."""
    t_alpha: int = 80
    t_lambda: int = 80
    t_g: int = 1000
    pareto_filter: bool = True


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

    def program(self, objective, cons, **scalars) -> SdpProblem:
        """One lifted program over the basis."""
        return SdpProblem(dim=self.n + 1, objective=objective, constraints=cons,
                          basis=self.basis, **scalars)


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


def _max_min_snr(ctx: _Lifted, users: np.ndarray, weights: np.ndarray):
    """Max over unit-diagonal PSD Z of min over `users` of weights_k Tr(Z T_k)
    in ctx units, as (value, Z): Z is the primal and value the smaller of two
    certified upper bounds, so it never lies below the relaxed maximum.

    * the dual objective: multipliers mu_k >= 0 on the users and w on the
      unit diagonal bound the value by (sum(w) + (N+1) t) / sum(mu), with t
      lifting diag(w) - sum_k mu_k weights_k T_k to PSD;
    * the closed form min_k weights_k |aligned gain_k|^2, since Tr(Z T_k)
      never exceeds it. It is exact whenever one user's aligned gain binds,
      as with a single user or no reflection.

    A failed solve raises SdpSolverError.
    """
    n1 = ctx.n + 1
    s_scale = max(float(np.max(weights * np.maximum(ctx.traces[users], 0.0))), 1e-30)
    cons = [(ctx.weights(k=k, t_coef=wk), ">=", 0.0, [-s_scale])
            for k, wk in zip(users, weights)]
    cons += [c + (np.zeros(1),) for c in ctx.unit_diag_rows()]
    prob = ctx.program(ctx.weights(), cons, n_scalars=1, scalar_objective=[s_scale])
    sol = solve(prob)
    if not _solution_usable(sol):
        raise SdpSolverError(f"max-min SNR solve failed: {sol.status.value}")
    slack, y = _dual_slack(sol, prob)
    mu_sum = -float(y[:len(users)].sum())
    dual_snr = math.inf
    if mu_sum > 0:
        dual_snr = (float(y[len(users):].sum()) + n1 * _psd_shift(slack)) / mu_sum
    aligned_snr = float(np.min(weights * ctx.aligned2[users]))
    return max(min(dual_snr, aligned_snr), 0.0), sol.matrix


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


def _cct_program(ctx: _Lifted, r_m: float, alpha: float, eav_snr: float):
    """Charnes-Cooper SDP at a fixed confidential power, as (problem, beta0)
    in the normalized units of ctx (beta0 the rescaled normalization bound),
    or None when no lifted covariance supports the multicast floor at this
    power split, as when (P - alpha c) eav_snr < c - 1 (`_eavesdropper_snr`).
    """
    n1 = ctx.n + 1
    s1 = ctx.sigma2[0]
    coefs = (s1 / ctx.sigma2) * alpha
    # Re-bound the normalization so the matrix iterate stays order one.
    beta0 = max(max(s1 + coefs[k] * ctx.traces[k] for k in range(1, ctx.k)), 1e-30)
    cons = [(ctx.weights(s1 / n1, k, coefs[k]), "<=", beta0) for k in range(1, ctx.k)]
    if r_m > 0:
        c = 2.0 ** r_m
        if not (ctx.p - alpha * c) * eav_snr >= (c - 1.0) * (1.0 - 1e-12):
            return None
        for k in range(1, ctx.k):
            cons.append((ctx.weights(-(c - 1.0) * ctx.sigma2[k] / n1, k, ctx.p - alpha * c),
                         ">=", 0.0))
    cons += ctx.diag_tie_rows()
    return ctx.program(ctx.weights(s1 / n1, 0, alpha), cons), beta0


def _cct_value(ctx: _Lifted, sol, prob: SdpProblem, beta0: float):
    """(c_value, y, xi, z, beta0) of a solved `_cct_program`, or None when it
    is infeasible; an unusable solution raises SdpSolverError. c_value bounds
    the relaxation from above: it is the dual objective divided by beta0, the
    sum of the normalization-row multipliers. A dual slack with smallest
    eigenvalue -t is made PSD by adding t (N+1)/sigma_1^2 to one of them,
    since every normalization matrix dominates (sigma_1^2/(N+1)) I.
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
    z = y / xi
    slack, mult = _dual_slack(sol, prob)
    c_value = float(mult[:ctx.k - 1].sum()) + _psd_shift(slack) * (ctx.n + 1) / ctx.sigma2[0]
    return c_value, y, xi, z, beta0


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
    prog = _cct_program(ctx, r_m, min(max(alpha, 0.0), p), eav_snr)
    res = None if prog is None else _cct_value(ctx, solve(prog[0]), *prog)
    if res is None:
        return None
    c_value, y, xi, _, beta0 = res
    scale = ctx.gain_scale * beta0
    return c_value, y / scale, xi / scale


def _masked_alpha_scores(ch: ChannelSet, p: float, floors, alpha_cap: float | None):
    """Score callback factory: per-candidate secrecy at the repaired power,
    one column per multicast floor in `floors` (a scalar is one floor).

    score(vbatch) computes the batch's gains once and returns a (B, F) array.
    Candidates that cannot meet a floor at any power score -inf there. With
    alpha_cap set, the power is min(alpha_cap, closed-form optimum).
    """
    sigma2 = ch.sigma2
    r_m = np.atleast_1d(np.asarray(floors, dtype=float))
    c = np.array([2.0 ** float(r) for r in r_m])     # the float pow of the repair's closed form
    floored = r_m > 0

    def score(vbatch):
        x = model.effective_gains(ch, vbatch)
        y = x / sigma2
        tau = np.argmin(y, axis=-1)
        x_tau = np.take_along_axis(x, tau[:, None], axis=-1)
        s_tau = sigma2[tau][:, None]
        ok = (np.log2(1.0 + p * y.min(axis=-1))[:, None] >= r_m - _RM_SLACK) | ~floored
        with np.errstate(divide="ignore", invalid="ignore"):
            a = (p * x_tau - (c - 1.0) * s_tau) / (c * x_tau)
        a = np.where(floored, np.where(x_tau > 0, np.clip(a, 0.0, p), 0.0), p)
        if alpha_cap is not None:
            a = np.minimum(a, alpha_cap)
        r = model.secrecy_rate_from_gains(x[:, None, :], sigma2, a)
        return np.where(ok, r, -np.inf)

    return score


def _repaired_point(ch: ChannelSet, p: float, r_m: float, x: np.ndarray,
                    alpha_cap: float | None):
    """Evaluate one pattern by its gains x: bottleneck power repair plus
    feasibility check."""
    tau = model.bottleneck_user(x, ch.sigma2)
    alpha = model.alpha_opt_closed_form(x[tau], ch.sigma2[tau], p, r_m)
    if alpha_cap is not None:
        alpha = min(alpha, alpha_cap)
    feasible = model.multicast_capacity_from_gains(x, ch.sigma2, p) >= r_m - _RM_SLACK
    r_c = float(model.secrecy_rate_from_gains(x, ch.sigma2, alpha))
    return r_c, float(alpha), bool(feasible)


def _rounded_point(ch: ChannelSet, p: float, r_m: float, v: np.ndarray | None,
                   scheme: str, diagnostics: dict | None = None) -> BoundaryPoint:
    """Boundary point of pattern v at its repaired power split; infeasible
    when v is None or cannot carry the multicast floor r_m."""
    if v is not None:
        r_c, alpha, feas = _repaired_point(ch, p, r_m, model.effective_gains(ch, v), None)
        if feas:
            return BoundaryPoint(r_m, r_c, alpha, v, math.nan, True, scheme, diagnostics or {})
    return BoundaryPoint(r_m, 0.0, 0.0, None, math.nan, False, scheme)


def algorithm1_cct(ch: ChannelSet, p: float, r_m: float, t_alpha: int = 80,
                   t_g: int = 1000, rng: np.random.Generator | None = None,
                   eav_snr: float | None = None) -> BoundaryPoint:
    """Fractional-programming sweep over the confidential power grid.

    The Charnes-Cooper SDPs of the grid powers inside the supportable window
    are solved as lanes of one `solve_many` call. In grid order, candidates
    are drawn from each solution by Gaussian randomization and scored by
    their repaired secrecy rate (patterns that cannot carry the multicast
    floor are discarded so every reported point is floor-certified). Records
    the relaxation bound at the winning grid power. eav_snr is the
    `_eavesdropper_snr` of (ch, p) if the caller has it; solved here if not.

    diagnostics: n_solves counts every SDP run here, one Charnes-Cooper lane
    per sample inside the window plus any eavesdropper max-min solve;
    n_iterations and statuses sum the lanes' IPM iterations and count them
    by SdpStatus; n_failed_alpha counts samples whose solve failed. A failed
    eavesdropper solve raises, since it would fail every sample.
    """
    if t_alpha < 2:
        raise ValueError("need at least two power samples")
    if rng is None:
        rng = np.random.default_rng(0)
    ctx = _Lifted(ch, p)
    n_solves = 0
    if r_m <= 0:
        eav_snr = math.inf
    elif eav_snr is None:
        eav_snr = _eavesdropper_snr(ctx)
        n_solves = 1
    state = {"best": None, "n_failed": 0, "n_steps": 0, "last_error": None,
             "max_feasible": -1.0, "lanes": []}

    def run_steps(alphas):
        progs = [_cct_program(ctx, r_m, alpha_t, eav_snr) for alpha_t in alphas]
        sols = iter(solve_many([prog[0] for prog in progs if prog is not None]))
        for alpha_t, prog in zip(alphas, progs):
            state["n_steps"] += 1
            if prog is None:
                continue
            sol = next(sols)
            state["lanes"].append(sol)
            try:
                res = _cct_value(ctx, sol, *prog)
            except SdpSolverError as exc:
                # Powers at the exact feasibility edge lose strict interiority;
                # skip the sample unless every sample fails.
                state["n_failed"] += 1
                state["last_error"] = exc
                continue
            if res is None:
                continue
            state["max_feasible"] = max(state["max_feasible"], alpha_t)
            c_value, _, _, z, _ = res
            v, sc = grp_round(z, t_g, _masked_alpha_scores(ch, p, r_m, alpha_t), rng)
            if not np.isfinite(sc):
                continue
            r_c, alpha_fix, feas = _repaired_point(ch, p, r_m, model.effective_gains(ch, v),
                                                   alpha_t)
            if not feas:
                continue
            bound = max(0.0, math.log2(max(c_value, 1e-300)))
            unrepaired = model.secrecy_rate(ch, v, alpha_t)
            if state["best"] is None or r_c > state["best"][0]:
                state["best"] = (r_c, alpha_fix, v, bound, alpha_t, unrepaired)

    run_steps([p * t / (t_alpha - 1) for t in range(t_alpha)])

    if r_m > 0:
        # The supportable power window [0, edge] can fall between grid samples
        # (it shrinks like 2^-r_m); the aligned gains bound the relaxed edge in
        # closed form, so refine there instead of losing the window.
        edge = min(model.alpha_opt_closed_form(ctx.aligned2_raw[k], ch.sigma2[k], p, r_m)
                   for k in range(1, ch.k))
        floor_alpha = state["max_feasible"]
        run_steps([frac * edge for frac in (0.98, 0.75, 0.5, 0.25)
                   if floor_alpha + 1e-12 < frac * edge < p])

    last_error, lanes = state["last_error"], state["lanes"]
    diagnostics = {"n_solves": n_solves + len(lanes), "n_failed_alpha": state["n_failed"],
                   "last_error": None if last_error is None else repr(last_error),
                   "n_iterations": sum(sol.iterations for sol in lanes),
                   "statuses": {stat.value: sum(sol.status is stat for sol in lanes)
                                for stat in SdpStatus}}
    if state["best"] is None:
        if state["n_failed"] == state["n_steps"] and last_error is not None:
            raise last_error
        return BoundaryPoint(r_m, 0.0, 0.0, None, math.nan, False, "cct",
                             diagnostics=diagnostics)
    r_c, alpha, v, bound, alpha_grid, unrepaired = state["best"]
    diagnostics.update(alpha_grid=alpha_grid, r_c_unrepaired=unrepaired)
    return BoundaryPoint(r_m, r_c, alpha, v, bound, True, "cct", diagnostics=diagnostics)


def secrecy_covariance(ch: ChannelSet, p: float) -> np.ndarray:
    """Secrecy-optimal lifted covariance: the Charnes-Cooper program with all
    power on the confidential stream and no multicast floor; returns the
    unit-diagonal Z."""
    ctx = _Lifted(ch, p)
    prob, beta0 = _cct_program(ctx, 0.0, p, math.inf)
    res = _cct_value(ctx, solve(prob), prob, beta0)
    if res is None:
        raise SdpSolverError("secrecy covariance program unexpectedly infeasible")
    return res[3]


def _wscm_points(ch: ChannelSet, p: float, floors, t_lambda: int, t_g: int,
                 rng: np.random.Generator | None, z_m: np.ndarray | None,
                 z_c: np.ndarray | None) -> list:
    """Weighted-covariance-blend heuristic at every multicast floor in `floors`.

    Each blend lam z_c + (1 - lam) z_m of a uniform weight grid draws its T_g
    candidates once from rng, scored against every floor. Each floor keeps
    its best candidate (ties go to the first blend) and sets the confidential
    power by the bottleneck closed form. z_m / z_c may be shared across calls.
    """
    if t_lambda < 2:
        raise ValueError("need at least two blend samples")
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
    r_c, alpha, feas = _repaired_point(ch, p, r_m, np.abs(ch.h) ** 2, None)
    if not feas:
        return BoundaryPoint(r_m, 0.0, 0.0, None, math.nan, False, "no-irs")
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
    Points are evaluated in grid order. Grid point i draws from the child
    generator (seed, i); the wscm floors share one, (seed, 0), in a single
    pass. Results depend only on the seed. The cct and upper-bound points
    share one eavesdropper max-min solve, counted in the n_solves of the
    first floored point. The oracle enumerates 64 phase levels and 201 power
    samples.
    """
    if grid_points < 2:
        raise ValueError("need at least two grid points")
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

    floored = np.flatnonzero(targets > 0)
    eav_snr = None
    if scheme in ("cct", "upper-bound") and floored.size:
        eav_snr = _eavesdropper_snr(_Lifted(ch, p))

    def eval_point(idx: int) -> BoundaryPoint:
        rm = float(targets[idx])
        rng = substream(seed, idx)
        if scheme in ("cct", "upper-bound"):
            pt = algorithm1_cct(ch, p, rm, params.t_alpha, params.t_g, rng, eav_snr)
            if eav_snr is not None and idx == floored[0]:
                pt.diagnostics["n_solves"] += 1      # the shared eavesdropper solve
            if scheme == "cct":
                return pt
            value = pt.upper_bound if pt.feasible else 0.0
            return replace(pt, r_c_achieved=value, scheme="upper-bound")
        if scheme == "random-irs":
            return baseline_random_irs(ch, p, rm, rng)
        if scheme == "no-irs":
            return baseline_no_irs(ch, p, rm)
        from .analysis import brute_force_oracle
        r_c, v, alpha = brute_force_oracle(ch, p, rm, 64, 201)
        return BoundaryPoint(rm, r_c, alpha, v, math.nan, v is not None, "oracle")

    if scheme == "wscm":
        points = _wscm_points(ch, p, targets, params.t_lambda, params.t_g, substream(seed, 0),
                              z_m, secrecy_covariance(ch, p))
    else:
        points = [eval_point(i) for i in range(grid_points)]
    region = RegionBoundary(points)
    return pareto_filter(region) if params.pareto_filter else region
