import math
import multiprocessing
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from irssec import algorithms, model
from irssec.algorithms import (SweepParams, algorithm1_cct, algorithm2_wscm,
                               baseline_no_irs, baseline_random_irs,
                               baseline_tdma, cct_fixed_alpha,
                               multicast_upper_bound, pareto_filter,
                               secrecy_covariance, sweep_region)
from irssec.analysis import brute_force_oracle
from irssec.sdp import SdpSolverError, SdpStatus, substream
from irssec.channel import (ChannelSet, generate_channels, multi_user_scenario,
                            two_user_scenario)
from irssec.model import effective_gains, multicast_capacity_from_gains

from conftest import phase_grid, rand_channelset
from sdp_forms import max_min_lanes

P = 1.0


def no_irs_channelset(h, sigma2=None):
    h = np.asarray(h, dtype=complex)
    k = h.size
    if sigma2 is None:
        sigma2 = np.ones(k)
    return ChannelSet(g=np.zeros(1), m=np.zeros((k, 1)), h=h, sigma2=sigma2)


def grid_best_multicast(ch, p, levels=64):
    grid = phase_grid(ch.n, levels)
    x = effective_gains(ch, grid)
    return float(multicast_capacity_from_gains(x, ch.sigma2, p).max())


def test_multicast_upper_bound_no_reflection_exact():
    ch = no_irs_channelset([np.sqrt(2.0), np.sqrt(2.0)])
    r_up, z = multicast_upper_bound(ch, P)
    assert r_up == pytest.approx(np.log2(3.0), abs=1e-7)
    assert np.allclose(np.diag(z).real, 1.0, atol=1e-6)


def test_multicast_upper_bound_never_below_capacity_without_reflection():
    # the exact capacity is the weakest direct gain; a primal value from an
    # inexact solve lands just below it, so the bound must come from elsewhere
    ch = no_irs_channelset([2.0, 1.0])
    r_up, _ = multicast_upper_bound(ch, P)
    capacity = math.log2(1.0 + P * float(np.min(np.abs(ch.h) ** 2 / ch.sigma2)))
    assert r_up >= capacity


def test_cct_fixed_alpha_never_below_exact_ratio_without_reflection():
    ch = no_irs_channelset([2.0, 1.0])
    for alpha in (0.25, 0.5, 1.0):
        c, _, _ = cct_fixed_alpha(ch, P, 0.0, alpha)
        assert c >= (1.0 + 4.0 * alpha) / (1.0 + alpha)


def test_multicast_upper_bound_symmetric_users(rng):
    ch = rand_channelset(rng, n=2, k=1)
    twin = ChannelSet(g=ch.g, m=np.vstack([ch.m[0], ch.m[0]]),
                      h=np.array([ch.h[0], ch.h[0]]), sigma2=np.ones(2))
    r_up, _ = multicast_upper_bound(twin, P)
    # identical users: bound equals the single-user aligned capacity
    aligned = model.aligned_gain(twin.m[0], twin.g, twin.h[0]) ** 2
    assert r_up == pytest.approx(np.log2(1 + P * aligned), abs=1e-6)


def test_multicast_upper_bound_dominates_grid(rng):
    for trial in range(5):
        ch = rand_channelset(np.random.default_rng(trial), n=2, k=2)
        r_up, _ = multicast_upper_bound(ch, P)
        assert r_up >= grid_best_multicast(ch, P) - 1e-6


def test_cct_fixed_alpha_zero_power_bound_is_one(rng):
    ch = rand_channelset(rng)
    c, y, xi = cct_fixed_alpha(ch, P, 0.3, 0.0)
    assert c == pytest.approx(1.0, abs=1e-6)
    assert xi > 0
    # returned pair satisfies the unit normalization in caller units
    n1 = ch.n + 1
    b2 = (ch.sigma2[0] / n1) * np.eye(n1)
    assert float(np.trace(y @ b2).real) <= 1.0 + 1e-6


def test_cct_fixed_alpha_identical_users_bound_one(rng):
    ch = rand_channelset(rng, n=2, k=1)
    twin = ChannelSet(g=ch.g, m=np.vstack([ch.m[0], ch.m[0]]),
                      h=np.array([ch.h[0], ch.h[0]]), sigma2=np.ones(2))
    for alpha in (0.0, 0.4, 1.0):
        c, _, _ = cct_fixed_alpha(twin, P, 0.0, alpha)
        assert c == pytest.approx(1.0, abs=1e-6)


def test_cct_fixed_alpha_dominates_grid_secrecy(rng):
    ch = rand_channelset(np.random.default_rng(11), n=2, k=2)
    r_m, alpha = 0.7, 0.35
    res = cct_fixed_alpha(ch, P, r_m, alpha)
    assert res is not None
    bound = math.log2(res[0])
    grid = phase_grid(2, 64)
    x = effective_gains(ch, grid)
    qoms = model.multicast_rate_from_gains(x, ch.sigma2, alpha, P - alpha) >= r_m
    rates = model.secrecy_rate_from_gains(x, ch.sigma2, alpha)
    if qoms.any():
        assert rates[qoms].max() <= bound + 1e-6


def test_cct_fixed_alpha_reports_unsupportable_floor(rng):
    ch = rand_channelset(rng)
    r_up, _ = multicast_upper_bound(ch, P)
    assert cct_fixed_alpha(ch, P, r_up + 1.0, 0.9 * P) is None


def test_algorithm1_unconstrained_matches_oracle():
    ch = rand_channelset(np.random.default_rng(42), n=2, k=2)
    pt = algorithm1_cct(ch, P, 0.0, t_alpha=40, t_g=500, rng=np.random.default_rng(1))
    r_c, _, alpha = brute_force_oracle(ch, P, 0.0, 64, 101)
    assert pt.feasible
    assert pt.alpha == pytest.approx(P)  # no floor: all power confidential
    assert pt.r_c_achieved >= r_c - 0.05
    assert pt.r_c_achieved <= pt.upper_bound + 1e-6


def test_algorithm1_full_floor_on_tight_instance():
    # no reflected paths: the relaxation is exact and the top target forces
    # all power to the multicast stream
    ch = no_irs_channelset([2.0, 1.0])
    r_up, _ = multicast_upper_bound(ch, P)
    pt = algorithm1_cct(ch, P, r_up, t_alpha=20, t_g=50, rng=np.random.default_rng(0))
    assert pt.feasible
    assert pt.r_c_achieved == pytest.approx(0.0, abs=1e-9)
    assert pt.alpha == pytest.approx(0.0, abs=1e-9)


def test_algorithm1_respects_multicast_floor(rng):
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    r_up, _ = multicast_upper_bound(ch, P)
    r_m = 0.6 * r_up
    pt = algorithm1_cct(ch, P, r_m, t_alpha=30, t_g=300, rng=np.random.default_rng(2))
    assert pt.feasible
    got = model.multicast_rate(ch, pt.phase_vector,
                               model.PowerSplit(pt.alpha, P - pt.alpha))
    assert got >= r_m - 1e-9


def test_algorithm1_diagnostics_count_solves_and_skipped_samples(monkeypatch):
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    pt = algorithm1_cct(ch, P, 0.0, t_alpha=4, t_g=20, rng=np.random.default_rng(0))
    # no floor: no eavesdropper program, one Charnes-Cooper solve at alpha = P
    assert pt.diagnostics["n_solves"] == 1
    assert pt.diagnostics["n_failed_alpha"] == 0
    assert pt.diagnostics["last_error"] is None

    # with a floor the in-window samples solve as lanes of one batch
    r_m, eav = 0.05 * multicast_upper_bound(ch, P)[0], eavesdropper_snr(ch)
    healthy = algorithm1_cct(ch, P, r_m, t_alpha=4, t_g=20, rng=np.random.default_rng(0),
                             eav_snr=eav)
    assert healthy.diagnostics["n_solves"] == 4
    real_solve_batch = algorithms.solve_batch
    calls = []

    def failing_second_solve(batch, config=None):
        sols = real_solve_batch(batch, config)
        for i in range(len(sols)):
            calls.append((batch, i))
            if len(calls) == 2:
                sols[i] = replace(sols[i], status=SdpStatus.BREAKDOWN, duality_gap=1.0)
        return sols

    monkeypatch.setattr(algorithms, "solve_batch", failing_second_solve)
    pt = algorithm1_cct(ch, P, r_m, t_alpha=4, t_g=20, rng=np.random.default_rng(0),
                        eav_snr=eav)
    assert pt.feasible
    assert pt.diagnostics["n_solves"] == 4
    assert pt.diagnostics["n_failed_alpha"] == 1
    assert "fractional SDP failed: Breakdown" in pt.diagnostics["last_error"]


def test_algorithm1_unfloored_point_solves_one_lane_at_full_power(monkeypatch):
    # without a floor the relaxed optimum sits at alpha = P, so that is the
    # one sample of the sweep
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    lanes = []
    real_solve_batch = algorithms.solve_batch

    def recording_solve(batch, config=None):
        lanes.extend(batch.objective)
        return real_solve_batch(batch, config)

    monkeypatch.setattr(algorithms, "solve_batch", recording_solve)
    pt = algorithm1_cct(ch, P, 0.0, t_alpha=80, t_g=50, rng=np.random.default_rng(0))
    assert len(lanes) == 1 and pt.diagnostics["n_solves"] == 1
    assert pt.diagnostics["alpha_grid"] == P and pt.feasible
    monkeypatch.undo()
    assert pt.upper_bound == math.log2(cct_fixed_alpha(ch, P, 0.0, P)[0])


def test_repair_matches_scalar_closed_form():
    sigma2 = np.array([1.0, 0.5, 2.0])
    ch = ChannelSet(g=np.zeros(1), m=np.zeros((3, 1)), h=np.ones(3), sigma2=sigma2)
    x = np.random.default_rng(5).exponential(size=(40, 3))
    x[:4, 1] = 0.0                      # a bottleneck user without gain
    floors = [0.0, 0.3, 1.2, 3.0]
    for cap in (None, 0.4):
        r_c, alpha, ok = algorithms._repair(ch, P, floors, x, cap)
        assert r_c.shape == alpha.shape == ok.shape == (len(x), len(floors))
        for b, row in enumerate(x):
            tau = int(np.argmin(row / sigma2))
            for f, r_m in enumerate(floors):
                want = model.alpha_opt_closed_form(row[tau], sigma2[tau], P, r_m)
                want = want if cap is None else min(want, cap)
                assert alpha[b, f] == want
                assert ok[b, f] == (multicast_capacity_from_gains(row, sigma2, P)
                                    >= r_m - algorithms._RM_SLACK)
                assert r_c[b, f] == model.secrecy_rate_from_gains(row, sigma2, want)
    # a gainless bottleneck carries no floor but the zero floor
    assert ok[:4, 0].all() and not ok[:4, 1:].any() and (alpha[:4, 1:] == 0.0).all()


def eavesdropper_snr(ch):
    ctx = algorithms._Lifted(ch, P)
    eav = np.arange(1, ch.k)
    value, _ = algorithms._max_min_snr(ctx, eav, 1.0 / ctx.sigma2[eav])
    return value


def test_algorithm1_floor_solves_one_eavesdropper_program(monkeypatch):
    ch = rand_channelset(np.random.default_rng(7), n=3, k=3)
    r_m = 0.9 * multicast_upper_bound(ch, P)[0]
    real_solve = algorithms.solve_batch
    max_min_progs = []

    def recording_solve(batch, config=None):
        sols = real_solve(batch, config)
        if max_min_lanes(batch):
            max_min_progs.append(batch)
        return sols

    monkeypatch.setattr(algorithms, "solve_batch", recording_solve)
    pt = algorithm1_cct(ch, P, r_m, t_alpha=30, t_g=100, rng=np.random.default_rng(0))
    assert len(max_min_progs) == 1
    assert pt.diagnostics["n_failed_alpha"] == 0

    # a failed eavesdropper solve fails every sample, solved once, never
    # read as an unsupportable floor
    def failing_max_min_solve(batch, config=None):
        sols = recording_solve(batch, config)
        if max_min_lanes(batch):
            sols = [replace(sol, status=SdpStatus.BREAKDOWN, duality_gap=1.0) for sol in sols]
        return sols

    max_min_progs.clear()
    monkeypatch.setattr(algorithms, "solve_batch", failing_max_min_solve)
    with pytest.raises(SdpSolverError, match="max-min SNR solve failed"):
        algorithm1_cct(ch, P, r_m, t_alpha=4, t_g=20, rng=np.random.default_rng(0))
    assert len(max_min_progs) == 1


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_eavesdropper_snr_bounds_phase_grid(seed):
    ch = rand_channelset(np.random.default_rng(seed), n=3, k=3)
    y = effective_gains(ch, phase_grid(ch.n, 32)) / ch.sigma2
    assert eavesdropper_snr(ch) >= float(y[:, 1:].min(axis=1).max())
    # one eavesdropper: the aligned closed form is exact
    one = rand_channelset(np.random.default_rng(seed), n=3, k=2)
    exact = model.aligned_gain(one.m[1], one.g, one.h[1]) ** 2 / one.sigma2[1]
    assert eavesdropper_snr(one) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("scale", [0.0, 1e-3, 1e-6])
def test_max_min_snr_of_a_user_far_weaker_than_the_others(scale):
    # the weak user's gain, down to 1e-12 of the others', binds at its
    # aligned closed form, and a user with no gain makes the value 0
    ch = rand_channelset(np.random.default_rng(1), n=3, k=3)
    weak = ChannelSet(g=ch.g, m=ch.m * [[1.0], [1.0], [scale]], h=ch.h * [1.0, 1.0, scale],
                      sigma2=ch.sigma2)
    ctx = algorithms._Lifted(weak, P)
    value, z = algorithms._max_min_snr(ctx, np.arange(3), ctx.p / ctx.sigma2)
    aligned = model.aligned_gain(weak.m[2], weak.g, weak.h[2]) ** 2 * P / weak.sigma2[2]
    assert value == pytest.approx(aligned, rel=1e-9, abs=0.0)
    assert z[0, 0] == 1.0 and np.linalg.eigvalsh(z).min() >= -1e-9 * len(z)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_cct_fixed_alpha_floor_window_top(seed):
    ch = rand_channelset(np.random.default_rng(seed), n=3, k=3)
    r_m = 0.5 * multicast_upper_bound(ch, P)[0]
    c = 2.0 ** r_m
    alpha_top = (P - (c - 1.0) / eavesdropper_snr(ch)) / c
    assert 0.0 < alpha_top < P / 1.01
    assert cct_fixed_alpha(ch, P, r_m, 0.99 * alpha_top) is not None
    assert cct_fixed_alpha(ch, P, r_m, 1.01 * alpha_top) is None


def test_secrecy_covariance_unit_diagonal_no_reflection():
    ch = no_irs_channelset([2.0, 1.0])
    z = secrecy_covariance(ch, P)
    assert np.allclose(np.diag(z).real, 1.0, atol=1e-6)


def test_secrecy_covariance_converges_on_four_user_n60_seed8(monkeypatch):
    # with separate primal and dual step lengths this instance stalled for
    # 200 iterations and raised, though the relaxation has a strict interior
    ch = generate_channels(multi_user_scenario(n_users=4, n_y=10, n_z=6, seed=8))
    sols = []
    real_solve = algorithms.solve_batch

    def recording_solve(batch, config=None):
        out = real_solve(batch, config)
        sols.extend(out)
        return out

    monkeypatch.setattr(algorithms, "solve_batch", recording_solve)
    z = secrecy_covariance(ch, P)
    assert [s.status for s in sols] == [SdpStatus.OPTIMAL]
    assert sols[0].iterations <= 40
    assert np.allclose(z, z.conj().T, atol=1e-12)
    assert float(np.linalg.eigvalsh(z).min()) >= -1e-8
    assert np.allclose(np.diag(z).real, 1.0, atol=1e-6)


def test_secrecy_covariance_single_user_alignment(rng):
    # eavesdropper with no channel: rounding the secrecy covariance aligns
    # the reflected path with user 1's direct path
    ch = rand_channelset(np.random.default_rng(8), n=3, k=2)
    ch = ChannelSet(g=ch.g, m=np.vstack([ch.m[0], np.zeros(3)]),
                    h=np.array([ch.h[0], 0.0]), sigma2=ch.sigma2)
    z = secrecy_covariance(ch, P)
    from irssec.sdp import grp_round
    score = algorithms._masked_alpha_scores(ch, P, 0.0, None)
    v, _ = grp_round(z, 300, score, np.random.default_rng(0))
    aligned = model.aligned_gain(ch.m[0], ch.g, ch.h[0]) ** 2
    assert model.effective_gain(v, ch.m[0], ch.g, ch.h[0]) >= aligned * (1 - 1e-6)


def test_algorithm2_zero_floor_uses_full_power(rng):
    ch = rand_channelset(np.random.default_rng(21), n=2, k=2)
    pt = algorithm2_wscm(ch, P, 0.0, t_lambda=10, t_g=200, rng=np.random.default_rng(5))
    assert pt.feasible
    assert pt.alpha == pytest.approx(P)


def test_algorithm2_degenerate_blend_deterministic(rng):
    ch = rand_channelset(np.random.default_rng(31), n=2, k=2)
    z = secrecy_covariance(ch, P)
    a = algorithm2_wscm(ch, P, 0.2, t_lambda=2, t_g=100,
                        rng=np.random.default_rng(4), z_m=z, z_c=z)
    b = algorithm2_wscm(ch, P, 0.2, t_lambda=2, t_g=100,
                        rng=np.random.default_rng(4), z_m=z, z_c=z)
    assert a.r_c_achieved == b.r_c_achieved
    assert np.array_equal(a.phase_vector, b.phase_vector)


def test_algorithms_head_to_head(rng):
    ch = rand_channelset(np.random.default_rng(12), n=2, k=2)
    r_up, _ = multicast_upper_bound(ch, P)
    r_m = 0.5 * r_up
    a1 = algorithm1_cct(ch, P, r_m, t_alpha=80, t_g=500, rng=np.random.default_rng(3))
    a2 = algorithm2_wscm(ch, P, r_m, t_lambda=80, t_g=500, rng=np.random.default_rng(3))
    assert abs(a1.r_c_achieved - a2.r_c_achieved) <= 0.1


def test_baseline_random_irs_reduces_to_no_irs_without_paths():
    ch = no_irs_channelset([2.0, 1.0])
    a = baseline_random_irs(ch, P, 0.3, np.random.default_rng(0))
    b = baseline_no_irs(ch, P, 0.3)
    assert a.r_c_achieved == pytest.approx(b.r_c_achieved, abs=1e-12)
    assert a.alpha == pytest.approx(b.alpha, abs=1e-12)


def test_baseline_random_irs_deterministic(rng):
    ch = rand_channelset(np.random.default_rng(2))
    a = baseline_random_irs(ch, P, 0.2, np.random.default_rng(6))
    b = baseline_random_irs(ch, P, 0.2, np.random.default_rng(6))
    assert np.array_equal(a.phase_vector, b.phase_vector)


def test_baseline_no_irs_closed_form_and_grid():
    ch = no_irs_channelset([np.sqrt(3.0), np.sqrt(2.0)])
    r_m = 1.0
    pt = baseline_no_irs(ch, P, r_m)
    assert pt.alpha == pytest.approx(0.25, abs=1e-12)  # (P*x - 1)/(2x) at x = 2
    alphas = np.linspace(0, P, 20001)
    x = np.abs(ch.h) ** 2
    feas = model.multicast_rate_from_gains(np.broadcast_to(x, (alphas.size, 2)),
                                           ch.sigma2, alphas, P - alphas) >= r_m
    rates = model.secrecy_rate_from_gains(np.broadcast_to(x, (alphas.size, 2)),
                                          ch.sigma2, alphas)
    assert pt.r_c_achieved == pytest.approx(rates[feas].max(), abs=1e-6)


def test_baseline_no_irs_zero_without_advantage():
    pt = baseline_no_irs(no_irs_channelset([1.0, 2.0]), P, 0.2)
    assert pt.r_c_achieved == 0.0
    assert baseline_no_irs(no_irs_channelset([2.0, 1.0]), P, 0.0).alpha == P


def test_tdma_segment_endpoints(rng):
    ch = rand_channelset(np.random.default_rng(14), n=2, k=2)
    params = SweepParams(t_alpha=20, t_g=200)
    region = baseline_tdma(ch, P, 5, params, np.random.default_rng(1))
    pts = region.points
    assert pts[0].r_m_target == 0.0
    assert pts[-1].r_c_achieved == pytest.approx(0.0)
    assert pts[0].r_c_achieved >= pts[-1].r_c_achieved
    mid = pts[2]
    assert mid.r_m_target == pytest.approx(0.5 * pts[-1].r_m_target)
    assert mid.r_c_achieved == pytest.approx(0.5 * pts[0].r_c_achieved)


def test_sweep_two_points_hits_endpoints(rng):
    ch = rand_channelset(np.random.default_rng(16), n=2, k=2)
    params = SweepParams(t_alpha=20, t_g=200, pareto_filter=False)
    region = sweep_region(ch, P, "cct", 2, params, seed=3)
    r_up, _ = multicast_upper_bound(ch, P)
    assert region.points[0].r_m_target == 0.0
    assert region.points[1].r_m_target == pytest.approx(r_up)


def test_sweep_shares_one_eavesdropper_solve(monkeypatch):
    # every floored cct point reads the same M_eav: the sweep solves it once,
    # charges it to the first floored point, and each point equals the
    # point computed alone with its own eavesdropper solve
    # on one CPU every solve runs in this process, where the patch records it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ch = rand_channelset(np.random.default_rng(7), n=3, k=3)
    params = SweepParams(t_alpha=12, t_g=60, pareto_filter=False)
    r_up, _ = multicast_upper_bound(ch, P)
    max_min_progs, lanes = [], []

    def recording_solve(batch, config=None):
        sols = real_solve(batch, config)
        if max_min_lanes(batch):
            max_min_progs.append(max_min_lanes(batch))
        else:
            lanes.extend(sols)
        return sols

    real_solve = algorithms.solve_batch
    monkeypatch.setattr(algorithms, "solve_batch", recording_solve)
    region = sweep_region(ch, P, "cct", 5, params, seed=2)
    # the multicast bound and one eavesdropper program, for four floored points
    assert max_min_progs == [1, 1]
    solves = [pt.diagnostics["n_solves"] for pt in region.points]
    point_lanes = [n - (i == 1) for i, n in enumerate(solves)]
    assert sum(point_lanes) == len(lanes)
    stats = []
    for k, at in zip(point_lanes, np.cumsum(point_lanes)):
        own = lanes[at - k:at]
        stats.append((sum(sol.iterations for sol in own),
                      {stat.value: sum(sol.status is stat for sol in own) for stat in SdpStatus}))
    monkeypatch.undo()
    for i, (pt, r_m) in enumerate(zip(region.points, np.linspace(0.0, r_up, 5))):
        # the per-point solve stats come from the point's own lanes
        assert (pt.diagnostics["n_iterations"], pt.diagnostics["statuses"]) == stats[i]
        alone = algorithm1_cct(ch, P, r_m, params.t_alpha, params.t_g, substream(2, i))
        assert pt.r_c_achieved == alone.r_c_achieved and pt.alpha == alone.alpha
        assert np.array_equal(pt.phase_vector, alone.phase_vector)
        assert pt.upper_bound == alone.upper_bound or not pt.feasible
        # alone, every floored point pays for its own eavesdropper solve
        assert alone.diagnostics["n_solves"] == point_lanes[i] + (i > 0)


def test_cct_region_solves_its_lanes_in_region_wide_batches(monkeypatch):
    # a cct or upper-bound sweep hands the solver the multicast bound, the
    # eavesdropper program, the unfloored lane, every floored point's grid
    # lanes as one batch and every point's edge lanes as one more; each point
    # still equals algorithm1_cct alone at its floor on its own stream
    # on one CPU every solve runs in this process, where the patch records it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    params = SweepParams(t_alpha=12, t_g=60, pareto_filter=False)
    r_up, _ = multicast_upper_bound(ch, P)
    batches = []

    def recording_solve(batch, config=None):
        batches.append(batch)
        return real_solve(batch, config)

    real_solve = algorithms.solve_batch
    monkeypatch.setattr(algorithms, "solve_batch", recording_solve)
    regions = [sweep_region(ch, P, scheme, 5, params, seed=2) for scheme in ("cct", "upper-bound")]
    monkeypatch.undo()
    assert len(batches) == 10
    for sweep in (batches[:5], batches[5:]):
        assert [max_min_lanes(batch) for batch in sweep] == [1, 1, 0, 0, 0]
        unfloored, grid, edge = sweep[2:]
        # one unfloored lane; the floor rows add one row per eavesdropper
        assert len(unfloored.bounds) == 1
        assert grid.rows.shape[1] == edge.rows.shape[1] == unfloored.rows.shape[1] + ch.k - 1
        assert 4 < len(grid.bounds) < 4 * params.t_alpha
        assert len(edge.bounds) > 0           # an edge lane survives the keep mask
    for i, r_m in enumerate(np.linspace(0.0, r_up, 5)):
        alone = algorithm1_cct(ch, P, r_m, params.t_alpha, params.t_g, substream(2, i))
        assert alone.feasible
        cct, bound = regions[0].points[i], regions[1].points[i]
        assert (cct.r_c_achieved, cct.alpha, cct.upper_bound) == (
            alone.r_c_achieved, alone.alpha, alone.upper_bound)
        assert (bound.r_c_achieved, bound.alpha) == (alone.upper_bound, alone.alpha)
        for pt in (cct, bound):
            assert pt.phase_vector.tobytes() == alone.phase_vector.tobytes()
            for key in ("n_iterations", "statuses"):
                assert pt.diagnostics[key] == alone.diagnostics[key]


def test_sweep_raises_the_error_of_a_point_whose_every_lane_fails(monkeypatch):
    # on one CPU every batch is built and solved in this process, where the
    # patches record it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    params = SweepParams(t_alpha=12, t_g=60, pareto_filter=False)
    bad = float(np.linspace(0.0, multicast_upper_bound(ch, P)[0], 5)[3])
    real_batch, real_solve = algorithms._Lifted.cct_batch, algorithms.solve_batch
    floors_of = {}

    def recording_batch(self, floors, alphas, eav_snr):
        batch, keep = real_batch(self, floors, alphas, eav_snr)
        floors_of[id(batch)] = np.asarray(floors)[keep]
        return batch, keep

    def failing_solve(batch, config=None):
        # every lane of the floor `bad` breaks down, grid and edge lanes alike
        sols = real_solve(batch, config)
        for lane in np.flatnonzero(floors_of.get(id(batch), np.zeros(0)) == bad):
            sols[lane] = replace(sols[lane], status=SdpStatus.BREAKDOWN, duality_gap=7.0)
        return sols

    monkeypatch.setattr(algorithms._Lifted, "cct_batch", recording_batch)
    monkeypatch.setattr(algorithms, "solve_batch", failing_solve)
    with pytest.raises(SdpSolverError, match=r"fractional SDP failed: Breakdown \(gap 7.00e\+00"):
        sweep_region(ch, P, "cct", 5, params, seed=2)
    assert any((floors == bad).any() for floors in floors_of.values())


def test_sweep_pareto_filter_monotone(rng):
    ch = rand_channelset(np.random.default_rng(17), n=2, k=2)
    params = SweepParams(t_alpha=20, t_g=200)
    region = sweep_region(ch, P, "cct", 8, params, seed=5)
    rcs = [pt.r_c_achieved for pt in region.points]
    assert all(a >= b - 1e-12 for a, b in zip(rcs, rcs[1:]))
    assert region.pareto_filtered


def test_sweep_deterministic_across_reruns(monkeypatch, rng):
    ch = rand_channelset(np.random.default_rng(18), n=2, k=2)
    params = SweepParams(t_alpha=10, t_g=100)

    def run():
        region = sweep_region(ch, P, "cct", 5, params, seed=11)
        return [(pt.r_m_target, pt.r_c_achieved, pt.alpha) for pt in region.points]

    monkeypatch.setenv("IRSSEC_THREADS", "1")
    serial = run()
    monkeypatch.setenv("IRSSEC_THREADS", "4")
    threaded = run()
    assert serial == threaded


def test_sweep_runs_on_the_calling_thread(monkeypatch):
    # A leftover IRSSEC_THREADS setting starts no pool: every solve of the
    # sweep runs on the thread that called sweep_region.
    monkeypatch.setenv("IRSSEC_THREADS", "3")
    idents = {}

    def recording(name):
        inner = getattr(algorithms, name)

        def call(*args, **kwargs):
            idents.setdefault(name, []).append(threading.get_ident())
            return inner(*args, **kwargs)
        return call

    monkeypatch.setattr(algorithms, "solve_batch", recording("solve_batch"))
    ch = rand_channelset(np.random.default_rng(18), n=2, k=2)
    sweep_region(ch, P, "cct", 4, SweepParams(t_alpha=6, t_g=50), seed=3)
    assert set(idents) == {"solve_batch"}
    assert {ident for seen in idents.values() for ident in seen} == {threading.get_ident()}


def pin_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def point_bytes(pt):
    """Every field of a point: the phases as bytes, the rest (floats by their
    exact repr, diagnostics included) as the point's repr."""
    phases = None if pt.phase_vector is None else pt.phase_vector.tobytes()
    return phases, repr(replace(pt, phase_vector=None))


def recording_lanes(monkeypatch):
    """The Charnes-Cooper lanes that algorithms.solve_batch solves in this
    process, from now on."""
    lanes, real_solve = [], algorithms.solve_batch

    def recording_solve(batch, config=None):
        sols = real_solve(batch, config)
        if not max_min_lanes(batch):
            lanes.extend(sols)
        return sols

    monkeypatch.setattr(algorithms, "solve_batch", recording_solve)
    return lanes


@pytest.mark.parametrize("config", [two_user_scenario(d1=20, n_y=2, n_z=2, seed=1),
                                    multi_user_scenario(n_users=3, n_y=2, n_z=2, seed=0)],
                         ids=["two-user", "three-user"])
def test_points_on_worker_processes_match_one_process_bitwise(monkeypatch, config):
    # cct and upper-bound regions on one CPU (every point in this process) and
    # on two (the points in two forked groups, no lane solved here): every
    # field of every point is the same bytes, diagnostics included
    ch, p = generate_channels(config), config.total_power_w
    params = SweepParams(t_alpha=10, t_g=100, pareto_filter=False)
    runs, here = {}, {}
    for cpus in (1, 2):
        pin_cpus(monkeypatch, cpus)
        assert algorithms._workers(6) == cpus
        lanes = recording_lanes(monkeypatch)
        regions = [sweep_region(ch, p, scheme, 6, params, 4) for scheme in ("cct", "upper-bound")]
        runs[cpus] = [[point_bytes(pt) for pt in region.points] for region in regions]
        here[cpus] = len(lanes)
        monkeypatch.undo()
    assert runs[2] == runs[1]
    assert any(pt.feasible for pt in regions[0].points[1:])
    assert here[1] > 0 and here[2] == 0


def test_no_worker_outlives_a_region(monkeypatch):
    # workers are joined before sweep_region returns, or raises: a worker's
    # error reaches the caller with its type and message
    pin_cpus(monkeypatch, 2)
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    params = SweepParams(t_alpha=6, t_g=50)
    assert all(pt.feasible for pt in sweep_region(ch, P, "cct", 4, params, seed=1).points)
    assert multiprocessing.active_children() == []

    def failing_round(*args):
        raise ValueError(f"rounding failed in process {os.getpid()}")

    monkeypatch.setattr(algorithms, "grp_round", failing_round)   # workers inherit the patch
    with pytest.raises(ValueError, match=r"^rounding failed in process \d+$") as err:
        sweep_region(ch, P, "cct", 4, params, seed=1)
    assert int(str(err.value).split()[-1]) != os.getpid()
    assert multiprocessing.active_children() == []


def test_fanned_out_region_raises_the_error_of_the_first_failing_floor(monkeypatch):
    # two floors whose every lane fails, in different groups, the lower floor
    # in the group submitted second: the sweep raises the lower floor's
    # error, as it does in one process
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    params = SweepParams(t_alpha=12, t_g=60, pareto_filter=False)
    floors = np.linspace(0.0, multicast_upper_bound(ch, P)[0], 5).tolist()
    pin_cpus(monkeypatch, 2)
    seen, real_groups = [], algorithms._groups

    def recording_groups(loads, count):
        seen.append(real_groups(loads, count))
        return seen[-1]

    monkeypatch.setattr(algorithms, "_groups", recording_groups)
    sweep_region(ch, P, "cct", 5, params, seed=2)
    first, second = seen[0]
    low, high = min(i for i in second if floors[i] > 0), max(first)
    assert low < high
    gaps = {floors[low]: 7.0, floors[high]: 8.0}
    real_batch, real_solve = algorithms._Lifted.cct_batch, algorithms.solve_batch
    floors_of = {}

    def recording_batch(self, floors, alphas, eav_snr):
        batch, keep = real_batch(self, floors, alphas, eav_snr)
        floors_of[id(batch)] = np.asarray(floors)[keep]
        return batch, keep

    def failing_solve(batch, config=None):
        sols = real_solve(batch, config)
        for lane, r_m in enumerate(floors_of.get(id(batch), np.zeros(0)).tolist()):
            if r_m in gaps:
                sols[lane] = replace(sols[lane], status=SdpStatus.BREAKDOWN, duality_gap=gaps[r_m])
        return sols

    monkeypatch.setattr(algorithms._Lifted, "cct_batch", recording_batch)
    monkeypatch.setattr(algorithms, "solve_batch", failing_solve)
    for cpus in (2, 1):
        pin_cpus(monkeypatch, cpus)
        with pytest.raises(SdpSolverError, match=r"Breakdown \(gap 7.00e\+00"):
            sweep_region(ch, P, "cct", 5, params, seed=2)
    assert len(seen) == 2


def test_points_stay_in_process_while_another_thread_runs(monkeypatch):
    # a forked worker would inherit every lock the other thread holds, but
    # not the thread that releases it
    pin_cpus(monkeypatch, 2)
    assert algorithms._workers(5) == 2 and algorithms._workers(1) == 1
    lanes = recording_lanes(monkeypatch)
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert algorithms._workers(5) == 1
        region = sweep_region(ch, P, "cct", 4, SweepParams(t_alpha=6, t_g=50), seed=1)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    # every lane solved here; the eavesdropper solve is no lane
    assert len(lanes) == sum(pt.diagnostics["n_solves"] for pt in region.points) - 1


@pytest.mark.parametrize("name, value", [("t_alpha", 1), ("t_alpha", 2.5), ("t_alpha", "80"),
                                         ("t_lambda", 1), ("t_lambda", True), ("t_g", 0),
                                         ("t_g", 2.5), ("t_g", -3)])
def test_sweep_params_reject_a_count_that_is_no_integer_or_too_small(name, value):
    # rejected when built, before any solve (and before any worker starts)
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least"):
        SweepParams(**{name: value})
    assert SweepParams(t_alpha=np.int64(2), t_lambda=2, t_g=1).t_alpha == 2


@pytest.mark.parametrize("entry, name, value", [
    ("cct", "t_alpha", 2.5), ("cct", "t_alpha", True), ("cct", "t_g", 2.5), ("cct", "t_g", 0),
    ("wscm", "t_lambda", 2.5), ("wscm", "t_lambda", 1), ("wscm", "t_g", 2.5), ("wscm", "t_g", 0)])
def test_algorithms_reject_a_count_that_is_no_integer_or_too_small(entry, name, value,
                                                                   monkeypatch):
    # SweepParams' rule, applied before any solve
    calls = []

    def solve_batch(batch, config=None):
        calls.append(batch)
        raise AssertionError("solved before the counts were checked")

    monkeypatch.setattr(algorithms, "solve_batch", solve_batch)
    ch = generate_channels(two_user_scenario(d1=20, n_y=2, n_z=1, seed=0))
    run = algorithm1_cct if entry == "cct" else algorithm2_wscm
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least"):
        run(ch, P, 0.1, **{name: value})
    assert not calls


@pytest.mark.parametrize("scheme", ["cct", "no-irs", "tdma", "wscm"])
@pytest.mark.parametrize("power", [math.nan, -1.0, 0.0, math.inf])
def test_sweep_region_rejects_a_power_that_is_not_finite_and_positive(scheme, power):
    # unchecked, a NaN power ends in a solver breakdown, a negative one in an
    # infeasibility verdict
    ch = rand_channelset(np.random.default_rng(0))
    with pytest.raises(ValueError, match="^power must be finite and positive"):
        sweep_region(ch, power, scheme, 4, SweepParams(t_alpha=5, t_g=10))


@pytest.mark.parametrize("scheme", ["no-irs", "tdma", "cct"])
@pytest.mark.parametrize("grid", [1, 2.5, True, "4"])
def test_sweep_region_rejects_a_grid_that_is_no_integer_of_at_least_two(scheme, grid):
    # unchecked, a fractional grid reaches np.linspace as a TypeError
    ch = rand_channelset(np.random.default_rng(0))
    with pytest.raises(ValueError, match="^grid_points must be an integer of at least 2"):
        sweep_region(ch, P, scheme, grid, SweepParams(t_alpha=5, t_g=10))


def test_sweep_wscm_floors_share_one_stream():
    # Every floor scores the same draws, so each point of a wscm region is the
    # single-floor run on the region's stream (seed, 0).
    config = two_user_scenario(d1=20, n_y=5, n_z=2, seed=1)
    ch, p = generate_channels(config), config.total_power_w
    params = SweepParams(t_lambda=10, t_g=200, pareto_filter=False)
    region = sweep_region(ch, p, "wscm", 6, params, seed=4)
    r_up, z_m = multicast_upper_bound(ch, p)
    z_c = secrecy_covariance(ch, p)
    assert sum(pt.feasible for pt in region.points) >= 3
    for pt, r_m in zip(region.points, np.linspace(0.0, r_up, 6)):
        ref = algorithm2_wscm(ch, p, r_m, params.t_lambda, params.t_g,
                              rng=substream(4, 0), z_m=z_m, z_c=z_c)
        assert pt.r_m_target == ref.r_m_target and pt.feasible == ref.feasible
        assert pt.r_c_achieved == ref.r_c_achieved and pt.alpha == ref.alpha
        if ref.phase_vector is None:
            assert pt.phase_vector is None
        else:
            assert np.array_equal(pt.phase_vector, ref.phase_vector)
        assert pt.diagnostics.get("lambda") == ref.diagnostics.get("lambda")


def test_sweep_degenerate_scenario_reports_multicast_axis():
    # deck stacked against user 1: no pattern can flip the SNR lead
    ch = no_irs_channelset([1.0, 3.0])
    region = sweep_region(ch, P, "cct", 4, SweepParams(t_alpha=5, t_g=50), seed=0)
    assert all(pt.r_c_achieved == 0.0 for pt in region.points)
    assert any(pt.feasible for pt in region.points)


def test_pareto_filter_carries_better_points():
    mk = lambda rm, rc, feas=True: algorithms.BoundaryPoint(rm, rc, 0.1, None,
                                                            math.nan, feas, "cct")
    region = algorithms.RegionBoundary([mk(0.0, 0.5), mk(1.0, 0.8), mk(2.0, 0.1),
                                        mk(3.0, 0.0, feas=False)])
    out = pareto_filter(region)
    assert [pt.r_c_achieved for pt in out.points] == [0.8, 0.8, 0.1, 0.0]
    assert [pt.r_m_target for pt in out.points] == [0.0, 1.0, 2.0, 3.0]
    assert not out.points[-1].feasible


def test_sweep_rejects_unknown_scheme(rng):
    ch = rand_channelset(rng)
    with pytest.raises(ValueError):
        sweep_region(ch, P, "nope", 4)
