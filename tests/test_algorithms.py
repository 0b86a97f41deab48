import math
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
from irssec.sdp import SdpStatus
from irssec.channel import ChannelSet, generate_channels, multi_user_scenario
from irssec.model import effective_gains, multicast_capacity_from_gains

from conftest import phase_grid, rand_channelset

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
    # no floor: no margin programs, one Charnes-Cooper solve per power sample
    assert pt.diagnostics["n_solves"] == 4
    assert pt.diagnostics["n_failed_alpha"] == 0
    assert pt.diagnostics["last_error"] is None

    real_solve = algorithms.solve
    calls = []

    def failing_second_solve(problem, config=None):
        calls.append(problem)
        sol = real_solve(problem, config)
        if len(calls) == 2:
            sol = replace(sol, status=SdpStatus.BREAKDOWN, duality_gap=1.0)
        return sol

    monkeypatch.setattr(algorithms, "solve", failing_second_solve)
    pt = algorithm1_cct(ch, P, 0.0, t_alpha=4, t_g=20, rng=np.random.default_rng(0))
    assert pt.feasible
    assert pt.diagnostics["n_solves"] == 4
    assert pt.diagnostics["n_failed_alpha"] == 1
    assert "fractional SDP failed: Breakdown" in pt.diagnostics["last_error"]


def test_secrecy_covariance_unit_diagonal_no_reflection():
    ch = no_irs_channelset([2.0, 1.0])
    z = secrecy_covariance(ch, P)
    assert np.allclose(np.diag(z).real, 1.0, atol=1e-6)


def test_secrecy_covariance_converges_on_four_user_n60_seed8(monkeypatch):
    # with separate primal and dual step lengths this instance stalled for
    # 200 iterations and raised, though the relaxation has a strict interior
    ch = generate_channels(multi_user_scenario(n_users=4, n_y=10, n_z=6, seed=8))
    sols = []
    real_solve = algorithms.solve

    def recording_solve(problem, config=None):
        sols.append(real_solve(problem, config))
        return sols[-1]

    monkeypatch.setattr(algorithms, "solve", recording_solve)
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


def test_sweep_pareto_filter_monotone(rng):
    ch = rand_channelset(np.random.default_rng(17), n=2, k=2)
    params = SweepParams(t_alpha=20, t_g=200)
    region = sweep_region(ch, P, "cct", 8, params, seed=5)
    rcs = [pt.r_c_achieved for pt in region.points]
    assert all(a >= b - 1e-12 for a, b in zip(rcs, rcs[1:]))
    assert region.pareto_filtered


def test_sweep_deterministic_across_worker_counts(monkeypatch, rng):
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
