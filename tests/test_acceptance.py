"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Each criterion is evaluated at its stated tolerance; instance sizes and seeds
are fixed so reruns are reproducible.
"""
import math
import time

import numpy as np
import pytest

from irssec import model
from irssec.algorithms import (SweepParams, algorithm1_cct, baseline_tdma,
                               multicast_upper_bound, pareto_filter, secrecy_covariance,
                               sweep_region)
from irssec.analysis import (IrsEffect, brute_force_oracle, complexity_estimate,
                             gap_bound_general, gap_bound_worst_case, proposition3_classify)
from irssec.channel import ChannelSet, generate_channels, multi_user_scenario, two_user_scenario
from irssec.model import effective_gains, multicast_capacity_from_gains
from irssec.sdp import SdpStatus, SolverConfig, grp_round, solve_batch, substream

from conftest import phase_grid, rand_channelset
from sdp_forms import dense_batch
from test_analysis import LOG2_4_OVER_PI, improves_instance, impairs_instance
from test_sdp import feasible_random_problem

P = 1.0


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def staircase(points, rm, tol=1e-12):
    vals = [pt.r_c_achieved for pt in points if pt.feasible and pt.r_m_target >= rm - tol]
    return max(vals) if vals else 0.0


def test_criterion_01_oracle_equivalence():
    start = time.time()
    ch = rand_channelset(np.random.default_rng(42), n=2, k=2)
    r_up, _ = multicast_upper_bound(ch, P)
    targets = np.linspace(0.0, r_up, 10)
    worst_gap = -np.inf
    worst_excess = -np.inf
    for i, rm in enumerate(targets):
        pt = algorithm1_cct(ch, P, float(rm), t_alpha=80, t_g=1000, rng=substream(42, i))
        orc, _, _ = brute_force_oracle(ch, P, float(rm), 64, 201)
        worst_gap = max(worst_gap, orc - pt.r_c_achieved)
        if pt.feasible and np.isfinite(pt.upper_bound):
            worst_excess = max(worst_excess, pt.r_c_achieved - pt.upper_bound)
    elapsed = time.time() - start
    ok = worst_gap <= 0.05 and worst_excess <= 1e-6 and elapsed < 120.0
    report(1, ok, f"max oracle gap {worst_gap:.4f} bits (<=0.05), "
                  f"max bound excess {worst_excess:.2e} (<=1e-6), {elapsed:.1f}s (<120s)")


def test_criterion_02_gap_bound():
    worst_margin = -np.inf
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        ch = rand_channelset(rng, n=2, k=2)
        r_up, _ = multicast_upper_bound(ch, P)
        rm = 0.4 * r_up
        orc, _, _ = brute_force_oracle(ch, P, rm, 64, 201)
        tr_t1 = float(np.trace(model.build_tk(ch.m[0], ch.g, ch.h[0])).real)
        for t_alpha in (5, 20, 80):
            pt = algorithm1_cct(ch, P, rm, t_alpha=t_alpha, t_g=400,
                                rng=substream(trial, t_alpha))
            assert pt.feasible
            delta_c = max(0.0, pt.upper_bound - pt.r_c_achieved)
            bound = gap_bound_general(P, ch.n, tr_t1, float(ch.sigma2[0]),
                                      t_alpha, delta_c)
            worst_margin = max(worst_margin, (orc - pt.r_c_achieved) - bound)
    limit = gap_bound_worst_case(P, 10, 1e-9, 1e-11, 10 ** 12)
    limit_err = abs(limit - LOG2_4_OVER_PI)
    ok = worst_margin <= 1e-4 and limit_err < 1e-6
    report(2, ok, f"max (gap - bound) {worst_margin:.3e} (<=1e-4), "
                  f"worst-case limit error {limit_err:.2e} vs log2(4/pi)")


def test_criterion_03_region_properties():
    ch = rand_channelset(np.random.default_rng(5), n=2, k=2)
    params = SweepParams(t_alpha=40, t_g=400, pareto_filter=False)
    raw = sweep_region(ch, P, "cct", 12, params, seed=5)
    filt = pareto_filter(raw)
    rcs = [pt.r_c_achieved for pt in filt.points]
    monotone = all(a >= b - 1e-12 for a, b in zip(rcs, rcs[1:]))
    best_rc = max(pt.r_c_achieved for pt in raw.points)
    endpoint_ok = abs(filt.points[0].r_c_achieved - best_rc) <= 1e-6
    grid = phase_grid(2, 64)
    cap = multicast_capacity_from_gains(effective_gains(ch, grid), ch.sigma2, P)
    r_m_max_grid = float(cap.max())
    flags_ok = True
    for pt in raw.points:
        if pt.r_m_target > r_m_max_grid + 0.02:
            flags_ok &= not pt.feasible
        elif pt.r_m_target < r_m_max_grid - 0.02:
            flags_ok &= pt.feasible
    ok = monotone and endpoint_ok and flags_ok
    report(3, ok, f"monotone={monotone}, endpoint |diff|="
                  f"{abs(filt.points[0].r_c_achieved - best_rc):.2e} (<=1e-6), "
                  f"infeasible flags consistent={flags_ok}")


def _feasible_construction(rng):
    ch = rand_channelset(rng, n=2, k=2)
    a = model.aligned_gains(ch)
    target = max((ch.sigma2[0] / ch.sigma2[k]) * a[k] ** 2 for k in range(1, ch.k))
    scale = math.sqrt(1.05 * target) / a[0]
    return ChannelSet(g=ch.g, m=np.vstack([scale * ch.m[0], ch.m[1:]]),
                      h=np.concatenate([[scale * ch.h[0]], ch.h[1:]]),
                      sigma2=ch.sigma2)


def _infeasible_construction(rng):
    # h-dominated: the eavesdropper's direct path beats user 1's best aligned
    # gain even after the worst-case destructive reflection on its own link,
    # so the direct-path certificate is honest.
    ch = rand_channelset(rng, n=2, k=2)
    a1 = model.aligned_gain(ch.m[0], ch.g, ch.h[0])
    s2 = float(np.sum(np.abs(ch.m[1]) * np.abs(ch.g)))
    h2 = s2 + 1.05 * a1 * math.sqrt(ch.sigma2[1] / ch.sigma2[0])
    h = ch.h.copy()
    h[1] = h2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return ChannelSet(g=ch.g, m=ch.m, h=h, sigma2=ch.sigma2)


def test_criterion_04_proposition1():
    n_feas = sum(model.feasibility_check(_feasible_construction(
        np.random.default_rng(2000 + t))) is model.Feasibility.FEASIBLE
        for t in range(50))
    grid = phase_grid(2, 64)
    n_inf = 0
    never_positive = True
    for t in range(50):
        ch = _infeasible_construction(np.random.default_rng(3000 + t))
        verdict = model.feasibility_check(ch)
        n_inf += verdict is model.Feasibility.INFEASIBLE
        y = effective_gains(ch, grid) / ch.sigma2
        never_positive &= bool((y[:, 0] <= y[:, 1:].max(axis=1) + 1e-12).all())
    ok = n_feas == 50 and n_inf == 50 and never_positive
    report(4, ok, f"feasible classified {n_feas}/50, infeasible {n_inf}/50, "
                  f"grid never finds positive lead on infeasible: {never_positive}")


def test_criterion_05_proposition3():
    n_improve = n_impair = 0
    improve_dom = impair_dom = True
    identity_worst = 0.0
    for t in range(20):
        rng = np.random.default_rng(4000 + t)
        ch, v = improves_instance(rng)
        n_improve += proposition3_classify(ch, v) is IrsEffect.IMPROVES
        x = effective_gains(ch, v)
        hx = np.abs(ch.h) ** 2
        cap = min(float(multicast_capacity_from_gains(x, ch.sigma2, P)),
                  float(multicast_capacity_from_gains(hx, ch.sigma2, P)))
        for rm in np.linspace(0.0, cap, 200):
            a_i = model.alpha_opt_closed_form(x[1], ch.sigma2[1], P, rm)
            a_n = model.alpha_opt_closed_form(hx[1], ch.sigma2[1], P, rm)
            r_i = model.secrecy_rate_from_gains(x, ch.sigma2, a_i)
            r_n = model.secrecy_rate_from_gains(hx, ch.sigma2, a_n)
            improve_dom &= bool(r_i >= r_n - 1e-12)

        ch2, v2 = impairs_instance(rng)
        n_impair += proposition3_classify(ch2, v2) is IrsEffect.IMPAIRS
        x2 = effective_gains(ch2, v2)
        hx2 = np.abs(ch2.h) ** 2
        cap2 = min(float(multicast_capacity_from_gains(x2, ch2.sigma2, P)),
                   float(multicast_capacity_from_gains(hx2, ch2.sigma2, P)))
        for rm in np.linspace(0.0, cap2, 200):
            a_i = model.alpha_opt_closed_form(x2[1], ch2.sigma2[1], P, rm)
            a_n = model.alpha_opt_closed_form(hx2[1], ch2.sigma2[1], P, rm)
            r_i = model.secrecy_rate_from_gains(x2, ch2.sigma2, a_i)
            r_n = model.secrecy_rate_from_gains(hx2, ch2.sigma2, a_n)
            impair_dom &= bool(r_i <= r_n + 1e-12)

        # fixed-power enhancement identity on the unclamped rates
        chr_ = rand_channelset(rng, n=3, k=2)
        if (np.abs(chr_.h[0]) ** 2 / chr_.sigma2[0]
                > np.abs(chr_.h[1]) ** 2 / chr_.sigma2[1]):
            vr = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            alpha = float(rng.uniform(0.05, 1.0))
            xr = effective_gains(chr_, vr)
            hxr = np.abs(chr_.h) ** 2
            e = (1 + alpha * xr / chr_.sigma2) / (1 + alpha * hxr / chr_.sigma2)
            lhs = (1 + alpha * xr[0] / chr_.sigma2[0]) / (1 + alpha * xr[1] / chr_.sigma2[1])
            rhs = (e[0] / e[1]) * (1 + alpha * hxr[0] / chr_.sigma2[0]) / (1 + alpha * hxr[1] / chr_.sigma2[1])
            identity_worst = max(identity_worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = (n_improve == 20 and n_impair == 20 and improve_dom and impair_dom
          and identity_worst <= 1e-9)
    report(5, ok, f"improves {n_improve}/20, impairs {n_impair}/20, grid dominance "
                  f"{improve_dom}/{impair_dom}, identity residual {identity_worst:.2e}")


def test_criterion_06_sdp_solver():
    tight = SolverConfig(tolerance=1e-12)
    worst_gap = worst_res = worst_eig = 0.0
    n_ok = 0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        dim = int(rng.integers(2, 13))
        sol = solve_batch(dense_batch(*feasible_random_problem(rng, dim)))[0]
        good = sol.status is SdpStatus.OPTIMAL
        worst_gap = max(worst_gap, sol.duality_gap)
        worst_res = max(worst_res, sol.residuals)
        min_eig = float(np.linalg.eigvalsh(sol.matrix).min())
        worst_eig = min(worst_eig, min_eig) if trial else min_eig
        n_ok += good and sol.duality_gap < 1e-7 and sol.residuals < 1e-7 and min_eig >= -1e-8
    scalar = solve_batch(dense_batch(np.array([[1.0]]), [(np.array([[2.0]]), "==", 1.0)]),
                         tight)[0]
    eig = solve_batch(dense_batch(np.diag([2.0, 1.0]).astype(complex), [(np.eye(2), "==", 1.0)]),
                      tight)[0]
    closed = (abs(scalar.objective_value - 0.5) <= 1e-9
              and abs(eig.objective_value - 2.0) <= 1e-9)
    ok = n_ok == 100 and closed
    report(6, ok, f"{n_ok}/100 optimal with gap<1e-7/res<1e-7/eig>=-1e-8 "
                  f"(worst gap {worst_gap:.1e}, res {worst_res:.1e}), closed forms "
                  f"exact to 1e-9: {closed}")


def test_criterion_07_power_nesting():
    # containment is checked at common multicast floors: the lower power's
    # grid, with both boundary curves evaluated exactly there
    ok = True
    worst = np.inf
    for seed in range(5):
        config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=seed)
        ch = generate_channels(config)
        for lo, hi in ((0.1, 1.0), (1.0, 10.0)):
            r_up_lo, _ = multicast_upper_bound(ch, lo)
            for i, rm in enumerate(np.linspace(0.0, r_up_lo, 8)):
                pt_lo = algorithm1_cct(ch, lo, float(rm), t_alpha=30, t_g=300,
                                       rng=substream(seed, i))
                if not pt_lo.feasible:
                    continue
                pt_hi = algorithm1_cct(ch, hi, float(rm), t_alpha=30, t_g=300,
                                       rng=substream(seed, 100 + i))
                margin = pt_hi.r_c_achieved - pt_lo.r_c_achieved
                worst = min(worst, margin)
                ok &= margin >= -0.02
    report(7, ok, f"regions nested across P in {{0.1,1,10}} W over 5 seeds; "
                  f"worst containment margin {worst:.4f} bits (>= -0.02)")


def _max_secrecy(ch, p, t_g, rng):
    z_c = secrecy_covariance(ch, p)
    score = lambda vb: model.secrecy_rate_from_gains(model.effective_gains(ch, vb), ch.sigma2, p)
    _, sc = grp_round(z_c, t_g, score, rng)
    return max(float(sc), 0.0)


def test_criterion_08_element_scaling():
    sizes = [(10, (5, 2)), (30, (6, 5)), (60, (10, 6))]
    n_monotone = 0
    n_other = 0
    n_seeds = 10
    for seed in range(n_seeds):
        vals = []
        for n_el, (ny, nz) in sizes:
            ch = generate_channels(multi_user_scenario(n_users=4, n_y=ny, n_z=nz, seed=seed))
            vals.append(_max_secrecy(ch, P, 300, substream(seed, n_el)))
        n_monotone += vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9
        ch60 = generate_channels(multi_user_scenario(n_users=4, n_y=10, n_z=6, seed=seed))
        for j in (1, 2, 3):
            r_j = _max_secrecy(ch60.with_confidential_user(j), P, 300, substream(seed, 100 + j))
            if r_j > 1e-6:
                n_other += 1
                break
    ok = n_monotone >= 9 and n_other >= 7
    report(8, ok, f"secrecy non-decreasing in N for {n_monotone}/10 seeds (>=9); "
                  f"another user positive at N=60 in {n_other}/10 seeds (>=7)")


def test_criterion_09_scheme_ordering():
    n_seeds = 20
    grid_points = 9
    params = SweepParams(t_alpha=30, t_g=300)
    wparams = SweepParams(t_alpha=30, t_lambda=40, t_g=300)
    acc = {s: np.zeros(grid_points) for s in ("cct", "wscm", "random-irs", "no-irs")}
    tdma_mid_diff = []
    for seed in range(n_seeds):
        config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=seed)
        ch = generate_channels(config)
        regions = {
            "cct": sweep_region(ch, P, "cct", grid_points, params, seed=seed),
            "wscm": sweep_region(ch, P, "wscm", grid_points, wparams, seed=seed),
            "random-irs": sweep_region(ch, P, "random-irs", grid_points, params, seed=seed),
            "no-irs": sweep_region(ch, P, "no-irs", grid_points, params, seed=seed),
        }
        for name, region in regions.items():
            acc[name] += np.array([pt.r_c_achieved for pt in region.points])
        tdma = baseline_tdma(ch, P, grid_points, params, substream(seed, 999))
        mid = tdma.points[grid_points // 2]
        tdma_mid_diff.append(staircase(regions["cct"].points, mid.r_m_target)
                             - mid.r_c_achieved)
    for name in acc:
        acc[name] /= n_seeds
    wscm_ok = bool(np.all(acc["cct"] >= acc["wscm"] - 0.1))
    rand_frac = float(np.mean(acc["cct"] >= acc["random-irs"] - 1e-9))
    noirs_frac = float(np.mean(acc["cct"] >= acc["no-irs"] - 1e-9))
    tdma_ok = float(np.mean(tdma_mid_diff)) > 0.0
    ok = wscm_ok and rand_frac >= 0.9 and noirs_frac >= 0.9 and tdma_ok
    report(9, ok, f"cct>=wscm-0.1 pointwise: {wscm_ok}; cct dominates random-irs at "
                  f"{rand_frac:.0%}, no-irs at {noirs_frac:.0%} of grid (>=90%); "
                  f"tdma midpoint below cct by {np.mean(tdma_mid_diff):.3f} bits (>0)")


def test_criterion_10_complexity_forms():
    sympy = pytest.importorskip("sympy")
    n, k, ta, tl, tg = sympy.symbols("n k ta tl tg", positive=True)
    n1 = n + 1
    nv = n1 ** 2 + 1
    grp = n1 ** 3 + 8 * tg * n1 ** 2
    a11 = sympy.sqrt(2 * n + k + 1) * (nv * (n1 ** 3 + k + n)
                                       + nv ** 2 * (n1 ** 2 + k + n) + nv ** 3)
    a12 = sympy.sqrt(2 * n + 2 * k + 1) * (nv * (n1 ** 3 + 2 * k + n)
                                           + nv ** 2 * (n1 ** 2 + 2 * k + n) + nv ** 3)
    a22 = sympy.sqrt(2 * n + k + 4) * (nv * (n1 ** 3 + k + n + 3)
                                       + nv ** 2 * (n1 ** 2 + k + n + 3) + nv ** 3)
    a1s = a11 + ta * (a12 + grp)
    a2s = a11 + a22 + tl * grp
    exact = True
    for vals in [(4, 2, 10, 10, 100), (8, 4, 80, 80, 1000), (16, 2, 5, 9, 50)]:
        subs = dict(zip((n, k, ta, tl, tg), vals))
        a1, a2 = complexity_estimate(*vals)
        exact &= math.isclose(a1, float(a1s.subs(subs)), rel_tol=1e-12)
        exact &= math.isclose(a2, float(a2s.subs(subs)), rel_tol=1e-12)
    ratios = []
    for nn in (4, 8, 16):
        lo = complexity_estimate(nn, 2, 40, 40, 100)
        hi = complexity_estimate(nn, 2, 80, 40, 100)
        ratios.append((hi[0] / hi[1]) / (lo[0] / lo[1]))
    linear = all(abs(r - 2.0) <= 0.3 for r in ratios)
    ok = exact and linear
    report(10, ok, f"closed forms exact: {exact}; sweep/blend cost ratio doubles "
                   f"with T_alpha at N in {{4,8,16}}: {[f'{r:.2f}' for r in ratios]}")
