import math
import os
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from irssec import algorithms, model, sdp
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

from conftest import (assert_no_child_left, counting_forks, phase_grid, rand_channelset,
                      twin_channelset)
from sdp_forms import max_min_lanes, recorded_batches

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
    twin = twin_channelset(rng, n=2)
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
    twin = twin_channelset(rng, n=2)
    for alpha in (0.0, 0.4, 1.0):
        c, _, _ = cct_fixed_alpha(twin, P, 0.0, alpha)
        assert c == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("cap", [2, 4, 6])
def test_lane_stopped_early_keeps_a_certified_bound(monkeypatch, cap):
    # weak duality holds for any finite multipliers: a Charnes-Cooper lane
    # stopped at the iteration cap still bounds its program from above
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    r_up = multicast_upper_bound(ch, P)[0]
    cases = [(0.0, P), (0.3 * r_up, 0.2), (0.6 * r_up, 0.1)]
    real_solve, statuses = algorithms.solve_batch, []

    def recording_solve(batch, config=None):
        sols = real_solve(batch, config)
        statuses.extend(sol.status for sol in sols)
        return sols

    monkeypatch.setattr(algorithms, "solve_batch", recording_solve)
    optimal = [cct_fixed_alpha(ch, P, r_m, alpha)[0] for r_m, alpha in cases]
    assert set(statuses) == {SdpStatus.OPTIMAL}
    statuses.clear()
    monkeypatch.setattr(sdp, "_MAX_ITERATIONS", cap)
    for (r_m, alpha), want in zip(cases, optimal):
        c_value, _, _ = cct_fixed_alpha(ch, P, r_m, alpha)
        assert c_value >= want
    assert set(statuses) == {SdpStatus.MAX_ITERATIONS}


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

    # with a floor the in-window samples as lanes of one batch; with one
    # eavesdropper M_eav is its closed form, so no eavesdropper program
    r_m = 0.05 * multicast_upper_bound(ch, P)[0]
    healthy = algorithm1_cct(ch, P, r_m, t_alpha=4, t_g=20, rng=np.random.default_rng(0))
    assert healthy.diagnostics["n_solves"] == 4
    # a floored point's units fan out: on one CPU every lane is solved in
    # this process, where the patch counts them
    pin_cpus(monkeypatch, 1)
    real_solve_batch = algorithms.solve_batch
    calls = []

    def failing_second_solve(batch, config=None):
        sols = real_solve_batch(batch, config)
        if max_min_lanes(batch):
            return sols
        for i in range(len(sols)):
            calls.append((batch, i))
            if len(calls) == 2:
                sols[i] = replace(sols[i], status=SdpStatus.BREAKDOWN, duality_gap=1.0,
                                  dual=np.full_like(sols[i].dual, np.nan))
        return sols

    monkeypatch.setattr(algorithms, "solve_batch", failing_second_solve)
    pt = algorithm1_cct(ch, P, r_m, t_alpha=4, t_g=20, rng=np.random.default_rng(0))
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

    # the eavesdropper bound comes from the multipliers, whatever the status:
    # a BREAKDOWN with the same multipliers gives the same point, from one solve
    def breakdown_max_min_solve(dual):
        def solve(batch, config=None):
            sols = recording_solve(batch, config)
            if max_min_lanes(batch):
                sols = [replace(sol, status=SdpStatus.BREAKDOWN, duality_gap=1.0,
                                dual=dual(sol.dual)) for sol in sols]
            return sols
        return solve

    max_min_progs.clear()
    monkeypatch.setattr(algorithms, "solve_batch", breakdown_max_min_solve(lambda y: y))
    same = algorithm1_cct(ch, P, r_m, t_alpha=30, t_g=100, rng=np.random.default_rng(0))
    assert len(max_min_progs) == 1
    assert (same.r_c_achieved, same.alpha, same.upper_bound) == (
        pt.r_c_achieved, pt.alpha, pt.upper_bound)
    assert same.phase_vector.tobytes() == pt.phase_vector.tobytes()

    # without finite multipliers it is the aligned closed form s_scale
    monkeypatch.setattr(algorithms, "solve_batch",
                        breakdown_max_min_solve(lambda y: np.full_like(y, np.nan)))
    ctx = algorithms._Lifted(ch, P)
    assert eavesdropper_snr(ch) == float(np.min(ctx.aligned2[1:] / ctx.sigma2[1:]))
    loose = algorithm1_cct(ch, P, r_m, t_alpha=30, t_g=100, rng=np.random.default_rng(0))
    assert loose.feasible and loose.diagnostics["n_failed_alpha"] == 0


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


def test_one_eavesdroppers_snr_is_its_closed_form_without_a_solve(monkeypatch):
    # with one eavesdropper the aligned closed form is exact: M_eav hands the
    # solver no batch, and is bitwise what the solved program gives (the
    # closed form switched off, as before it was taken)
    real_aligned = algorithms._aligned
    for seed in range(20):
        config = two_user_scenario(seed=seed)
        ctx = algorithms._Lifted(generate_channels(config), config.total_power_w)
        closed, solved = [], []
        assert recorded_batches(lambda: closed.extend(algorithms._eavesdropper_snr(ctx))) == []
        with monkeypatch.context() as patch:
            patch.setattr(algorithms, "_aligned", lambda *args: (real_aligned(*args)[0], None))
            batches = recorded_batches(lambda: solved.extend(algorithms._eavesdropper_snr(ctx)))
        assert len(batches) == 1 and closed == [solved[0], 0] and solved[1] == 1


@pytest.mark.parametrize("k, seed", [(2, 3), (3, 6)])
def test_multicast_bound_where_the_aligned_pattern_meets_every_user(k, seed):
    # the bottleneck user's aligned pattern meets every user, so the bound
    # is its closed form, unsolved, and Z its rank-one lift: Z[0, 0] == 1, a
    # unit diagonal, and a pattern whose every user's SNR reaches the value
    # within the rule's slack; the value bounds the phase grid's optimum
    ch = rand_channelset(np.random.default_rng(seed), n=3, k=k)
    bound = []
    assert recorded_batches(lambda: bound.extend(multicast_upper_bound(ch, P))) == []
    r_up, z = bound
    s = 2.0 ** r_up - 1.0
    assert z[0, 0] == 1.0 and (np.diag(z) == 1.0).all()
    lam = np.linalg.eigvalsh(z)
    assert lam[-1] == pytest.approx(ch.n + 1) and np.abs(lam[:-1]).max() < 1e-12
    snr = P * effective_gains(ch, z[:-1, -1]) / ch.sigma2
    assert (snr >= s * (1.0 - 1e-12)).all()
    grid = P * effective_gains(ch, phase_grid(ch.n, 16)) / ch.sigma2
    assert grid.min(axis=1).max() <= s
    # tdma's multicast endpoint rounds that Z: its one pattern is the aligned one
    tdma = baseline_tdma(ch, P, 3, SweepParams(t_alpha=4, t_g=20), np.random.default_rng(0))
    cap = float(multicast_capacity_from_gains(effective_gains(ch, z[:-1, -1]), ch.sigma2, P))
    assert tdma.points[-1].r_m_target == pytest.approx(cap, rel=1e-12, abs=0.0)


def test_a_max_min_program_whose_aligned_pattern_misses_a_user_is_solved():
    # K = 3: neither the multicast nor the eavesdroppers' aligned pattern
    # meets every user, so each program is solved, its value at most s_scale
    ch = rand_channelset(np.random.default_rng(7), n=3, k=3)
    ctx = algorithms._Lifted(ch, P)
    for users, weights in ((np.arange(3), ctx.p / ctx.sigma2),
                           (np.arange(1, 3), 1.0 / ctx.sigma2[1:])):
        s_scale, z = algorithms._aligned(ctx, users, weights)
        assert z is None
        out = []
        batches = recorded_batches(lambda: out.extend(
            algorithms._max_min_snr(ctx, users, weights)))
        assert [max_min_lanes(batch) for batch in batches] == [1]
        value, z = out
        assert 0.0 < value <= s_scale and z[0, 0] == 1.0


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_cct_fixed_alpha_floor_window_top(seed):
    ch = rand_channelset(np.random.default_rng(seed), n=3, k=3)
    r_m = 0.5 * multicast_upper_bound(ch, P)[0]
    c = 2.0 ** r_m
    alpha_top = (P - (c - 1.0) / eavesdropper_snr(ch)) / c
    assert 0.0 < alpha_top < P / 1.01
    assert cct_fixed_alpha(ch, P, r_m, 0.99 * alpha_top) is not None
    assert cct_fixed_alpha(ch, P, r_m, 1.01 * alpha_top) is None


def test_cct_rejects_a_nan_floor_before_any_solve(monkeypatch):
    # NaN > 0 is false: unchecked, a NaN floor was solved as no floor at all
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    calls, real_solve = [], algorithms.solve_batch

    def solve_batch(batch, config=None):
        calls.append(batch)
        return real_solve(batch, config)

    monkeypatch.setattr(algorithms, "solve_batch", solve_batch)
    with pytest.raises(ValueError, match="^multicast floor must not be NaN"):
        cct_fixed_alpha(ch, P, math.nan, 0.5)
    with pytest.raises(ValueError, match="^multicast floor must not be NaN"):
        algorithm1_cct(ch, P, math.nan, t_alpha=4, t_g=10)
    assert not calls
    # a negative floor is no floor
    (c_neg, y_neg, _), (c_zero, y_zero, _) = (cct_fixed_alpha(ch, P, r_m, 0.5)
                                              for r_m in (-1.0, 0.0))
    assert c_neg == c_zero and y_neg.tobytes() == y_zero.tobytes()
    neg, zero = (algorithm1_cct(ch, P, r_m, 4, 10, np.random.default_rng(1))
                 for r_m in (-1.0, 0.0))
    assert (neg.r_c_achieved, neg.alpha, neg.feasible) == (zero.r_c_achieved, zero.alpha, True)


def lane_by_lane_cct(ch, r_m, lanes, t_g, seed):
    """(r_c, alpha, v, bound, alpha_grid) of a cct point rounded one certified
    lane at a time, or None: lane j's `grp_round` on its own generator,
    child j of the floor's seed sequence (`substream(seed, j)` for the floor
    generator default_rng(seed)), with its `_repair` score capped at the
    lane's power, the winner repaired again, and a later lane kept only if
    its repaired rate is strictly higher."""
    best = None
    for slot, (alpha_t, _, _, value) in enumerate(lanes):
        if not isinstance(value, tuple):
            continue
        c_value, y, xi = value

        def score(vb, alpha_t=alpha_t):
            r_c, _, ok = algorithms._repair(ch, P, r_m, effective_gains(ch, vb), alpha_t)
            return np.where(ok, r_c, -np.inf)[:, 0]
        v, sc = sdp.grp_round(y / xi, t_g, score, substream(seed, slot))
        if not np.isfinite(sc):
            continue
        r_c, alpha, ok = algorithms._repair_one(ch, P, r_m, effective_gains(ch, v), alpha_t)
        if ok and (best is None or r_c > best[0]):
            best = (r_c, alpha, v, max(0.0, math.log2(max(c_value, 1e-300))), alpha_t)
    return best


@pytest.mark.parametrize("k", [2, 4])
def test_cct_point_is_the_lane_by_lane_rounding(k, monkeypatch):
    # a floor's certified lanes, each drawn once and the floor's first best
    # taken over them in order, keep the point that rounding them one lane at
    # a time keeps; alone, a floor's lanes are its units, solved in slot order
    # on one CPU every lane is solved in this process, where the patch records it
    pin_cpus(monkeypatch, 1)
    ch = rand_channelset(np.random.default_rng(50 + k), n=3, k=k)
    r_up = multicast_upper_bound(ch, P)[0]
    real_lanes, lanes = algorithms._solve_lanes, []

    def recording_lanes(*args):
        out = real_lanes(*args)
        lanes.extend(out)
        return out

    monkeypatch.setattr(algorithms, "_solve_lanes", recording_lanes)
    floored = 0
    for r_m in (0.0, 0.3 * r_up, 0.7 * r_up):
        lanes.clear()
        pt = algorithm1_cct(ch, P, r_m, 12, 200, np.random.default_rng(8))
        ref = lane_by_lane_cct(ch, r_m, lanes, 200, 8)
        assert pt.feasible == (ref is not None)
        if ref is None:
            continue
        floored += r_m > 0
        r_c, alpha, v, bound, alpha_grid = ref
        assert (pt.r_c_achieved, pt.alpha, pt.upper_bound) == (r_c, alpha, bound)
        assert pt.diagnostics["alpha_grid"] == alpha_grid
        assert pt.phase_vector.tobytes() == v.tobytes()
    assert floored >= 1


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
    score = lambda vb: model.secrecy_rate_from_gains(model.effective_gains(ch, vb), ch.sigma2, P)
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
    a, = algorithms._wscm_points(ch, P, [0.2], 2, 100, np.random.default_rng(4), z, z)
    b, = algorithms._wscm_points(ch, P, [0.2], 2, 100, np.random.default_rng(4), z, z)
    assert a.r_c_achieved == b.r_c_achieved
    assert np.array_equal(a.phase_vector, b.phase_vector)


@pytest.mark.parametrize("k", [2, 4])
def test_wscm_scores_each_floor_as_if_alone(k):
    # one pass over every floor keeps, per floor, what a pass over that
    # floor alone keeps; with K = 4 three eavesdroppers bound each margin
    ch = rand_channelset(np.random.default_rng(40 + k), n=3, k=k)
    r_up, z_m = multicast_upper_bound(ch, P)
    z_c = secrecy_covariance(ch, P)
    floors = [0.0, 0.3 * r_up, 0.8 * r_up, r_up + 1.0]    # no candidate carries the last
    together = algorithms._wscm_points(ch, P, floors, 5, 60, np.random.default_rng(4), z_m, z_c)
    assert together[0].feasible and not together[-1].feasible
    for r_m, pt in zip(floors, together):
        alone, = algorithms._wscm_points(ch, P, [r_m], 5, 60, np.random.default_rng(4), z_m, z_c)
        assert (pt.r_c_achieved, pt.alpha, pt.feasible) == (alone.r_c_achieved, alone.alpha,
                                                             alone.feasible)
        assert pt.diagnostics.get("lambda") == alone.diagnostics.get("lambda")
        phases = [None if q.phase_vector is None else q.phase_vector.tobytes()
                  for q in (pt, alone)]
        assert phases[0] == phases[1]


def test_wscm_ranks_a_nan_score_below_every_finite_one(monkeypatch):
    # a NaN first candidate must lose to the finite ones, exactly as -inf does
    ch = rand_channelset(np.random.default_rng(31), n=2, k=2)
    r_up, z_m = multicast_upper_bound(ch, P)
    z_c = secrecy_covariance(ch, P)
    real = algorithms._repair
    points = {}
    for bad in (-math.inf, math.nan):
        def spoiled(ch, p, floors, x, alpha_cap, out=None, bad=bad):
            r_c, alpha, ok = real(ch, p, floors, x, alpha_cap, out)
            if out is not None:         # a batch's scores, not a winner's repair
                r_c[0] = bad
            return r_c, alpha, ok
        monkeypatch.setattr(algorithms, "_repair", spoiled)
        points[bad] = algorithms._wscm_points(ch, P, [0.0, 0.5 * r_up], 4, 30,
                                              np.random.default_rng(9), z_m, z_c)
    for a, b in zip(*points.values()):
        assert a.feasible and b.feasible
        assert (a.r_c_achieved, a.alpha) == (b.r_c_achieved, b.alpha)
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


def test_every_rounding_rejects_a_nan_floor(monkeypatch):
    # unchecked, every point at a NaN floor came back infeasible without a
    # word; wscm raises before any solve or draw
    config = two_user_scenario(d1=20, n_y=2, n_z=1, seed=0)
    ch, p = generate_channels(config), config.total_power_w

    def no_solve(batch, config=None):
        raise AssertionError("solved")

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"drew by {name}")

    monkeypatch.setattr(algorithms, "solve_batch", no_solve)
    with pytest.raises(ValueError, match="^multicast floor must not be NaN$"):
        algorithm2_wscm(ch, p, math.nan, 4, 20, NoDraws())
    monkeypatch.undo()
    for run in (lambda: baseline_no_irs(ch, p, math.nan),
                lambda: baseline_random_irs(ch, p, math.nan, np.random.default_rng(0)),
                lambda: algorithms._repair(ch, p, [0.0, math.nan], np.ones((3, ch.k)), None),
                lambda: brute_force_oracle(ch, 1.0, math.nan, 4, 4)):
        with pytest.raises(ValueError, match="^multicast floor must not be NaN$"):
            run()


def test_an_infinite_cct_floor_is_infeasible_without_a_warning():
    # 0 * inf in the power-window test of the Charnes-Cooper lanes warned, as
    # did a lane built at alpha = 0 before its window was asked; wscm never
    # did. A finite floor of 1024 bits or more, whose 2^r_m overflows a float,
    # raised OverflowError in every scheme; it is the infinite floor.
    config = two_user_scenario(d1=20, n_y=2, n_z=1, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    for r_m in (math.inf, 2000.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = [algorithm1_cct(ch, p, r_m, 4, 20), algorithm2_wscm(ch, p, r_m, 4, 20),
                      baseline_no_irs(ch, p, r_m),
                      baseline_random_irs(ch, p, r_m, np.random.default_rng(0))]
            assert cct_fixed_alpha(ch, p, r_m, 0.0) is None
        for pt in points:
            assert (pt.feasible, pt.r_c_achieved, pt.alpha, pt.phase_vector) == (
                False, 0.0, 0.0, None)


def test_sweep_two_points_hits_endpoints(rng):
    ch = rand_channelset(np.random.default_rng(16), n=2, k=2)
    params = SweepParams(t_alpha=20, t_g=200, pareto_filter=False)
    region = sweep_region(ch, P, "cct", 2, params, seed=3)
    r_up, _ = multicast_upper_bound(ch, P)
    assert region.points[0].r_m_target == 0.0
    assert region.points[1].r_m_target == pytest.approx(r_up)


def recording_units(monkeypatch):
    """Each `algorithms._cct_units` result (alphas, units, anchors) from now
    on, in call order."""
    seen, real = [], algorithms._cct_units

    def cct_units(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(algorithms, "_cct_units", cct_units)
    return seen


def assert_matches_alone(pt, alone, lowest, eav_solves):
    """A region's point against `algorithm1_cct` at its floor alone: bitwise,
    diagnostics included, at a floor that takes no lane from a lower floor's
    anchor (no floor, or the lowest, which charges the eavesdropper solve as
    alone); else the same lane count, feasibility and alpha, and rate and
    bound within 1e-7 bits. eav_solves is that solve's count, 1, or 0 where
    M_eav is its closed form."""
    if pt.r_m_target <= lowest:
        assert point_bytes(pt) == point_bytes(alone)
        return
    assert pt.diagnostics["n_solves"] == alone.diagnostics["n_solves"] - eav_solves
    assert (pt.feasible, pt.alpha) == (alone.feasible, alone.alpha)
    if pt.feasible:
        assert pt.r_c_achieved == pytest.approx(alone.r_c_achieved, abs=1e-7)
        assert pt.upper_bound == pytest.approx(alone.upper_bound, abs=1e-7)


def test_sweep_shares_one_eavesdropper_solve(monkeypatch):
    # every floored cct point reads the same M_eav: the sweep solves it once
    # and charges it to the first floored point. The lanes solved are the
    # anchors plus each point's lanes that took no anchor's, and each point
    # matches the point computed alone with its own eavesdropper solve
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
    units = recording_units(monkeypatch)
    region = sweep_region(ch, P, "cct", 5, params, seed=2)
    # the multicast bound and one eavesdropper program, for four floored points
    assert max_min_progs == [1, 1]
    diags = [pt.diagnostics for pt in region.points]
    own = sum(d["n_solves"] - d["n_shared"] for d in diags) - 1
    # one anchor per grid unit
    assert len(units) == 1 and len(lanes) == own + len(units[0][2])
    # a floor above the lowest takes some lane from an anchor, but not all
    assert 0 < sum(d["n_shared"] for d in diags[2:]) < sum(d["n_solves"] for d in diags[2:])
    monkeypatch.undo()
    for i, (pt, r_m) in enumerate(zip(region.points, np.linspace(0.0, r_up, 5))):
        alone = algorithm1_cct(ch, P, r_m, params.t_alpha, params.t_g, substream(2, i))
        # alone, every floored point pays for its own eavesdropper solve
        assert alone.diagnostics["n_solves"] == diags[i]["n_solves"] + (i > 1)
        assert_matches_alone(pt, alone, region.points[1].r_m_target, 1)


def test_cct_region_solves_its_lanes_in_region_wide_batches(monkeypatch):
    # a cct or upper-bound sweep hands the solver the unfloored lane, then one
    # batch of every anchor and every floored point's edge lanes, and at most
    # one batch of the grid lanes that take no anchor's; the multicast bound
    # and the one eavesdropper's program take their closed forms, so no
    # max-min program is solved. Each point still matches algorithm1_cct
    # alone at its floor on its own stream
    # on one CPU every solve runs in this process, where the patch records it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    params = SweepParams(t_alpha=12, t_g=60, pareto_filter=False)
    r_up, _ = multicast_upper_bound(ch, P)
    grid = {P * t / (params.t_alpha - 1) for t in range(params.t_alpha)}
    batches = []

    def recording_solve(batch, config=None):
        batches.append(batch)
        return real_solve(batch, config)

    real_solve = algorithms.solve_batch
    monkeypatch.setattr(algorithms, "solve_batch", recording_solve)
    units = recording_units(monkeypatch)
    regions = [sweep_region(ch, P, scheme, 5, params, seed=2)
               for scheme in ("cct", "upper-bound")]
    monkeypatch.undo()
    assert len(batches) == 6 and len(units) == 2
    for sweep, (own, units_of, anchor_set) in ((batches[:3], units[0]), (batches[3:], units[1])):
        assert [max_min_lanes(batch) for batch in sweep] == [0, 0, 0]
        unfloored, first, second = sweep
        # one unfloored lane; the floor rows add one row per eavesdropper
        assert len(unfloored.bounds) == 1
        floored_rows = unfloored.rows.shape[1] + ch.k - 1
        assert first.rows.shape[1] == second.rows.shape[1] == floored_rows
        # a lane's objective weighs user 1's lift by its power alpha: each
        # anchor once, then the off-grid edge lanes
        alphas = first.objective[:, ch.n + 1].tolist()
        anchors = sorted(own[i][j] for i, j in anchor_set)
        assert {i for i, _ in anchor_set} == {1}
        assert alphas[:len(anchors)] == anchors and set(anchors) <= grid
        assert len(alphas) > len(anchors) and not grid & set(alphas[len(anchors):])
        # the second batch holds grid lanes only, fewer than the floors above
        # the lowest have
        assert set(second.objective[:, ch.n + 1].tolist()) <= set(anchors)
        above = sum(len(unit) - 1 for unit in units_of if unit[0] in anchor_set)
        assert 0 < len(second.bounds) < above
    for i, r_m in enumerate(np.linspace(0.0, r_up, 5)):
        alone = algorithm1_cct(ch, P, r_m, params.t_alpha, params.t_g, substream(2, i))
        assert alone.feasible
        cct, bound = regions[0].points[i], regions[1].points[i]
        assert_matches_alone(cct, alone, regions[0].points[1].r_m_target, 0)
        assert (bound.r_c_achieved, bound.alpha) == (cct.upper_bound, cct.alpha)
        assert bound.phase_vector.tobytes() == cct.phase_vector.tobytes()
        assert bound.diagnostics == cct.diagnostics


def failing_lanes(monkeypatch, gaps):
    """Make every Charnes-Cooper lane at a floor of `gaps` break down without
    finite multipliers, with duality gap gaps[floor], and so the first lane
    (alpha, floor) of every unit that holds such a lane (gap 9), so that no
    such floor takes a lane from an anchor. Returns the (floor, alpha) of the
    lanes failed in this process."""
    real_units, real_batch = algorithms._cct_units, algorithms._Lifted.cct_batch
    real_solve, anchors, lanes_of_batch, failed = algorithms.solve_batch, set(), {}, []

    def anchoring_units(ctx, ch, floors, *args):
        alphas, units, unit_anchors = real_units(ctx, ch, floors, *args)
        anchors.update((alphas[unit[0][0]][unit[0][1]], floors[unit[0][0]]) for unit in units
                       if any(floors[i] in gaps for i, _ in unit))
        return alphas, units, unit_anchors

    def recording_batch(self, floors, alphas):
        batch = real_batch(self, floors, alphas)
        lanes_of_batch[id(batch)] = list(zip(floors, alphas))
        return batch

    def failing_solve(batch, config=None):
        sols = real_solve(batch, config)
        for lane, (r_m, alpha) in enumerate(lanes_of_batch.get(id(batch), [])):
            if r_m in gaps or (alpha, r_m) in anchors:
                failed.append((r_m, alpha))
                sols[lane] = replace(sols[lane], status=SdpStatus.BREAKDOWN,
                                     duality_gap=gaps.get(r_m, 9.0),
                                     dual=np.full_like(sols[lane].dual, np.nan))
        return sols

    monkeypatch.setattr(algorithms, "_cct_units", anchoring_units)
    monkeypatch.setattr(algorithms._Lifted, "cct_batch", recording_batch)
    monkeypatch.setattr(algorithms, "solve_batch", failing_solve)
    return failed


def test_sweep_raises_the_error_of_a_point_whose_every_lane_fails(monkeypatch):
    # every lane solved for the floor `bad` breaks down, its grid lanes'
    # anchors included, so it takes no anchor's lane either: the sweep raises
    # its error
    # on one CPU every batch is built and solved in this process, where the
    # patches record it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    params = SweepParams(t_alpha=12, t_g=60, pareto_filter=False)
    floors = np.linspace(0.0, multicast_upper_bound(ch, P)[0], 5).tolist()
    bad = floors[3]
    failed = failing_lanes(monkeypatch, {bad: 7.0})
    with pytest.raises(SdpSolverError, match=r"fractional SDP failed: Breakdown \(gap 7.00e\+00"):
        sweep_region(ch, P, "cct", 5, params, seed=2)
    assert any(r_m == bad for r_m, _ in failed)
    # the anchor of bad's grid lane, at the lowest floor, failed too
    assert any(r_m == floors[1] for r_m, _ in failed)


def test_sweep_pareto_filter_monotone(rng):
    ch = rand_channelset(np.random.default_rng(17), n=2, k=2)
    params = SweepParams(t_alpha=20, t_g=200)
    region = sweep_region(ch, P, "cct", 8, params, seed=5)
    rcs = [pt.r_c_achieved for pt in region.points]
    assert all(a >= b - 1e-12 for a, b in zip(rcs, rcs[1:]))
    assert region.pareto_filtered


def test_sweep_deterministic_across_reruns(rng):
    ch = rand_channelset(np.random.default_rng(18), n=2, k=2)
    params = SweepParams(t_alpha=10, t_g=100)

    def run():
        region = sweep_region(ch, P, "cct", 5, params, seed=11)
        return [(pt.r_m_target, pt.r_c_achieved, pt.alpha) for pt in region.points]

    assert run() == run()


def test_sweep_runs_on_the_calling_thread(monkeypatch):
    # On one CPU no worker process starts: every solve of the sweep, the
    # region's Charnes-Cooper lanes as well as its max-min programs, runs on
    # the thread that called sweep_region.
    pin_cpus(monkeypatch, 1)
    real_solve, seen = algorithms.solve_batch, []

    def recording(batch, config=None):
        seen.append((threading.get_ident(), max_min_lanes(batch)))
        return real_solve(batch, config)

    monkeypatch.setattr(algorithms, "solve_batch", recording)
    ch = rand_channelset(np.random.default_rng(18), n=2, k=2)
    sweep_region(ch, P, "cct", 4, SweepParams(t_alpha=6, t_g=50), seed=3)
    assert {ident for ident, _ in seen} == {threading.get_ident()}
    assert any(lanes == 0 for _, lanes in seen)


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


def counting_work(monkeypatch, path):
    """Make every process from now on, forked workers included, append a
    line to `path` per lane that `algorithms._solve_lanes` solves ("lane"),
    with the hash of the covariance of each certified one that is not rank
    one ("cov h"); per full draw of `algorithms._grp_draw`, one that draws
    normals ("draw h"); and per covariance that `algorithms._best_of_draws`
    scores, with the number of floors it scores at ("held h floors").
    Returns a function that reads the lines, as lists of words by kind."""
    real = {name: getattr(algorithms, name) for name in ("_solve_lanes", "_grp_draw",
                                                         "_best_of_draws")}

    def log(*words):
        with open(path, "a") as fh:
            fh.write(" ".join(map(str, words)) + "\n")

    def solve_lanes(ctx, floors, alphas):
        lanes = real["_solve_lanes"](ctx, floors, alphas)
        for *_, value in lanes:
            log("lane")
            if isinstance(value, tuple):
                z = value[1] / value[2]
                if len(sdp.grp_draw(z, 2, np.random.default_rng(0))) > 1:
                    log("cov", hash(z.tobytes()))
        return lanes

    def grp_draw(z, candidates, rng, work):
        batch = real["_grp_draw"](z, candidates, rng, work)
        if len(batch) > 1:
            log("draw", hash(z.tobytes()))
        return batch

    def best_of_draws(ch, p, floors, covs, *args):
        covs = list(covs)
        for z in covs:
            log("held", hash(z.tobytes()), len(floors))
        return real["_best_of_draws"](ch, p, floors, covs, *args)

    for name, fake in (("_solve_lanes", solve_lanes), ("_grp_draw", grp_draw),
                       ("_best_of_draws", best_of_draws)):
        monkeypatch.setattr(algorithms, name, fake)

    def read():
        lines = {"lane": [], "cov": [], "draw": [], "held": []}
        for line in path.read_text().splitlines() if path.exists() else []:
            kind, *words = line.split()
            lines[kind].append(words)
        return lines
    return read


def test_a_region_solves_each_lane_once_and_draws_each_covariance_once_on_any_cpu_count(
        monkeypatch, tmp_path):
    # the workers split units of lanes, not points: on one CPU and on two a
    # region solves the same lanes, and draws each certified covariance that
    # is not rank one once, whatever the floors that hold it
    config = two_user_scenario(d1=20, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    params = SweepParams(t_alpha=20, t_g=100, pareto_filter=False)
    work = {}
    for cpus in (1, 2):
        pin_cpus(monkeypatch, cpus)
        read = counting_work(monkeypatch, tmp_path / f"{cpus}.log")
        sweep_region(ch, p, "cct", 8, params, seed=0)
        monkeypatch.undo()
        work[cpus] = read()
    for lines in work.values():
        assert lines["draw"] and sorted(lines["draw"]) == sorted(lines["cov"])
        assert len({h for h, in lines["draw"]}) == len(lines["draw"])
    assert len(work[1]["lane"]) == len(work[2]["lane"]) > len(work[1]["draw"])
    assert sorted(work[1]["draw"]) == sorted(work[2]["draw"])


@pytest.mark.parametrize("config", [two_user_scenario(d1=20, n_y=2, n_z=2, seed=1),
                                    multi_user_scenario(n_users=3, n_y=2, n_z=2, seed=0),
                                    two_user_scenario(d1=20, n_y=5, n_z=2, seed=0)],
                         ids=["two-user", "three-user", "two-user-n10"])
def test_points_on_worker_processes_match_one_process_bitwise(monkeypatch, tmp_path, config):
    # cct and upper-bound regions on one CPU (every point in this process) and
    # on two (the units in two groups, the first solved here and the other in
    # a forked child): every field of every point is the same bytes,
    # diagnostics included. On each
    # instance a covariance that is not rank one is drawn for more than one
    # floor, so a lane's draws do not depend on which process makes them
    ch, p = generate_channels(config), config.total_power_w
    params = SweepParams(t_alpha=10, t_g=100, pareto_filter=False)
    runs, here = {}, {}
    for cpus in (1, 2):
        pin_cpus(monkeypatch, cpus)
        assert algorithms._workers(6) == cpus
        read = counting_work(monkeypatch, tmp_path / f"{cpus}.log")
        lanes = recording_lanes(monkeypatch)
        regions = [sweep_region(ch, p, scheme, 6, params, 4) for scheme in ("cct", "upper-bound")]
        runs[cpus] = [[point_bytes(pt) for pt in region.points] for region in regions]
        here[cpus] = len(lanes)
        monkeypatch.undo()
    assert runs[2] == runs[1]
    assert any(pt.feasible for pt in regions[0].points[1:])
    assert 0 < here[2] < here[1]
    lines = read()
    floors = {h: int(count) for h, count in lines["held"]}
    assert any(floors[h] > 1 for h, in lines["draw"])


def failing_in(monkeypatch, name, where, fail):
    """Patch algorithms.`name` to call fail(pid) in the processes that
    where(pid) picks, this one or its forked children, which inherit the
    patch, and to run as before elsewhere."""
    real = getattr(algorithms, name)

    def patched(*args):
        if where(os.getpid()):
            fail(os.getpid())
        return real(*args)

    monkeypatch.setattr(algorithms, name, patched)


def test_no_worker_outlives_a_region(monkeypatch):
    # on two CPUs a region forks one child, which runs the second group of
    # units, and reaps it before sweep_region or algorithm1_cct returns, or
    # raises: an error raised only in the child reaches the caller with its
    # type and message
    pin_cpus(monkeypatch, 2)
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    params = SweepParams(t_alpha=6, t_g=50)
    forks, caller = counting_forks(monkeypatch), os.getpid()
    assert all(pt.feasible for pt in sweep_region(ch, P, "cct", 4, params, seed=1).points)
    assert algorithm1_cct(ch, P, 0.5 * multicast_upper_bound(ch, P)[0], 6, 50).feasible
    assert len(forks) == 2
    assert_no_child_left()

    def fail(pid):
        raise ValueError(f"rounding failed in process {pid}")

    failing_in(monkeypatch, "_best_of_draws", lambda pid: pid != caller, fail)
    with pytest.raises(ValueError, match=r"^rounding failed in process \d+$") as err:
        sweep_region(ch, P, "cct", 4, params, seed=1)
    assert int(str(err.value).split()[-1]) == forks[-1] != caller
    assert_no_child_left()


def test_an_error_in_the_callers_own_group_is_raised_and_its_child_reaped(monkeypatch):
    pin_cpus(monkeypatch, 2)
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    forks, caller = counting_forks(monkeypatch), os.getpid()

    def fail(pid):
        raise ValueError("rounding failed in the calling process")

    failing_in(monkeypatch, "_best_of_draws", lambda pid: pid == caller, fail)
    with pytest.raises(ValueError, match="^rounding failed in the calling process$"):
        sweep_region(ch, P, "cct", 4, SweepParams(t_alpha=6, t_g=50), seed=1)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_child_that_exits_without_a_result_raises_its_exit_status(monkeypatch):
    # no partial records and no hang: the call raises, naming the status
    pin_cpus(monkeypatch, 2)
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    forks, caller = counting_forks(monkeypatch), os.getpid()
    failing_in(monkeypatch, "_cct_work", lambda pid: pid != caller, lambda pid: os._exit(3))
    with pytest.raises(ChildProcessError, match=r"sent no whole result \(exit status 3\)$"):
        sweep_region(ch, P, "cct", 4, SweepParams(t_alpha=6, t_g=50), seed=1)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_point_without_two_units_forks_nothing(monkeypatch):
    # an infinite floor has no lane at all, no floor one lane: neither forks
    pin_cpus(monkeypatch, 2)
    config = two_user_scenario(d1=20, n_y=2, n_z=1, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    forks, units = counting_forks(monkeypatch), recording_units(monkeypatch)
    assert not algorithm1_cct(ch, p, math.inf, 4, 20).feasible
    assert algorithm1_cct(ch, p, 0.0, 4, 20).feasible
    assert [len(seen[1]) for seen in units] == [0, 1]
    assert forks == []
    assert_no_child_left()


def test_fanned_out_region_raises_the_error_of_the_first_failing_floor(monkeypatch):
    # two floors whose every solved lane fails, their grid lanes' anchors
    # included, each with lanes in both groups of units, so the first group
    # (solved in this process) fails lanes of the higher floor too: the sweep
    # raises the lower floor's error, as it does in one process
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    params = SweepParams(t_alpha=12, t_g=60, pareto_filter=False)
    floors = np.linspace(0.0, multicast_upper_bound(ch, P)[0], 5).tolist()
    pin_cpus(monkeypatch, 2)
    seen, real_groups = [], algorithms._groups

    def recording_groups(loads, count):
        seen.append(real_groups(loads, count))
        return seen[-1]

    monkeypatch.setattr(algorithms, "_groups", recording_groups)
    units = recording_units(monkeypatch)
    sweep_region(ch, P, "cct", 5, params, seed=2)
    low, high = 2, 3
    for group in seen[0]:
        assert {low, high} <= {i for u in group for i, _ in units[0][1][u]}
    failed = failing_lanes(monkeypatch, {floors[low]: 7.0, floors[high]: 8.0})
    for cpus in (2, 1):
        pin_cpus(monkeypatch, cpus)
        with pytest.raises(SdpSolverError, match=r"Breakdown \(gap 7.00e\+00"):
            sweep_region(ch, P, "cct", 5, params, seed=2)
    assert len(seen) == 3 and len(seen[2]) == 1
    # in one process: both floors' lanes and their anchors, at the lowest floor
    assert {r_m for r_m, _ in failed} == {floors[1], floors[low], floors[high]}


SHARING_SET = {**{f"two-user-{seed}": two_user_scenario(seed=seed) for seed in range(6)},
               **{f"{k}-user-{seed}": multi_user_scenario(n_users=k, seed=seed)
                  for k in (3, 4) for seed in (0, 1)}}


def region_units(config, grid, t_alpha):
    """(ctx, floors, alphas, units) of a cct region of `config` at `grid`
    floors: its `_cct_units`, decided as `_cct_points` decides them."""
    ch, p = generate_channels(config), config.total_power_w
    ctx = algorithms._Lifted(ch, p)
    floors = np.linspace(0.0, multicast_upper_bound(ch, p)[0], grid).tolist()
    eav_snr = algorithms._eavesdropper_snr(ctx)[0]
    alphas, units, _ = algorithms._cct_units(ctx, ch, floors, t_alpha, eav_snr)
    return ctx, floors, alphas, units


@pytest.mark.parametrize("config", SHARING_SET.values(), ids=SHARING_SET.keys())
def test_a_floor_takes_an_anchor_lane_only_where_it_is_that_floors_optimum(config, monkeypatch):
    # a region's units solved in one process: each lane is its own solve or
    # its unit's first lane's, the lowest floor's (the anchor), and the
    # region solves no more lanes than its points have; every lane that a
    # floor takes from a lower floor's anchor meets that floor's rows, and
    # solving it at that floor gives a certified bound within 1e-6 relative
    # of the anchor's
    ctx, floors, alphas, units = region_units(config, 8, 20)
    recorded = recording_lanes(monkeypatch)
    solved, by = algorithms._solve_units(ctx, floors, alphas, units)
    monkeypatch.undo()
    assert len(recorded) == len(solved) == len(set(by.values())) <= sum(map(len, alphas))
    taken = []
    for unit in units:
        assert all(floors[i] >= floors[unit[0][0]] for i, _ in unit)
        for i, j in unit:
            assert by[i, j] in ((i, j), unit[0])
            if floors[i] > floors[by[i, j][0]]:
                taken.append((i, j, solved[by[i, j]]))
    for i, j, (alpha, _, _, (_, y, _)) in taken:
        assert alpha == alphas[i][j]
        batch = ctx.cct_batch([floors[i]], [alpha])
        for row in batch.rows[0][batch.sense == -1]:
            a = (ctx.basis * row) @ ctx.basis.conj().T
            assert np.trace(a @ y).real >= 0.0
    assert taken
    direct = algorithms._solve_lanes(ctx, [floors[i] for i, _, _ in taken],
                                     [anchor[0] for _, _, anchor in taken])
    for (_, _, anchor), lane in zip(taken, direct, strict=True):
        assert isinstance(lane[3], tuple)
        assert lane[3][0] == pytest.approx(anchor[3][0], rel=1e-6)


@pytest.mark.parametrize("config", SHARING_SET.values(), ids=SHARING_SET.keys())
def test_a_floor_solves_its_own_lane_only_where_the_anchor_misses_its_rows(config):
    # the other direction: every lane that a higher floor does not take from
    # its unit's anchor has an anchor whose Y misses some floor row of that
    # floor's lane, Tr(A Y) < 0 (every anchor here is certified)
    ctx, floors, alphas, units = region_units(config, 8, 20)
    solved, by = algorithms._solve_units(ctx, floors, alphas, units)
    for unit in units:
        for i, j in unit[1:]:
            if by[i, j] != (i, j):
                continue
            _, y, _ = solved[unit[0]][3]
            batch = ctx.cct_batch([floors[i]], [alphas[i][j]])
            traces = [np.trace((ctx.basis * row) @ ctx.basis.conj().T @ y).real
                      for row in batch.rows[0][batch.sense == -1]]
            assert min(traces) < 0.0


@pytest.mark.parametrize("config", [SHARING_SET["two-user-0"], SHARING_SET["3-user-0"]],
                         ids=["two-user-0", "3-user-0"])
def test_a_floor_solves_each_lane_whose_anchor_has_no_finite_multipliers(config, monkeypatch):
    # every lane of the lowest floor breaks down without finite multipliers,
    # so every anchor does: the floors above solve each of their lanes and
    # take none, and the region solves every lane of its points once
    ctx, floors, alphas, units = region_units(config, 8, 20)
    failing_lanes(monkeypatch, {floors[1]: 7.0})
    recorded = recording_lanes(monkeypatch)
    solved, by = algorithms._solve_units(ctx, floors, alphas, units)
    monkeypatch.undo()
    assert len(recorded) == len(solved) == sum(map(len, alphas))
    assert all(by[slot] == slot for slot in solved)
    for (i, _), (*_, value) in solved.items():
        assert isinstance(value, SdpSolverError) == (i == 1)
    assert any(len(unit) > 1 for unit in units)


def test_fanned_out_region_balances_the_lanes_it_solves(monkeypatch):
    # on two CPUs the groups of units are balanced by each unit's lanes: the
    # loads are the units' lane counts, which sum to the points' n_solves
    # (the one eavesdropper's M_eav is its closed form, no solve), and the
    # groups' summed loads differ by no more than the largest load
    ch = rand_channelset(np.random.default_rng(3), n=2, k=2)
    params = SweepParams(t_alpha=12, t_g=60, pareto_filter=False)
    pin_cpus(monkeypatch, 2)
    seen, real_groups = [], algorithms._groups

    def recording_groups(loads, count):
        seen.append((list(loads), real_groups(loads, count)))
        return seen[-1][1]

    monkeypatch.setattr(algorithms, "_groups", recording_groups)
    units = recording_units(monkeypatch)
    region = sweep_region(ch, P, "cct", 5, params, seed=2)
    (loads, groups), = seen
    assert loads == [len(unit) for unit in units[0][1]]
    assert sum(loads) == sum(pt.diagnostics["n_solves"] for pt in region.points)
    totals = [sum(loads[u] for u in group) for group in groups]
    assert max(totals) - min(totals) <= max(loads)


def test_points_stay_in_process_while_another_thread_runs(monkeypatch):
    # a forked worker would inherit every lock the other thread holds, but
    # not the thread that releases it
    pin_cpus(monkeypatch, 2)
    assert algorithms._workers(5) == 2 and algorithms._workers(1) == 1
    lanes, units = recording_lanes(monkeypatch), recording_units(monkeypatch)
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
    # every lane solved here: one anchor per grid unit, and each point's
    # lanes that took no anchor's; the one eavesdropper's M_eav takes no solve
    assert len(units) == 1
    assert len(lanes) == (sum(pt.diagnostics["n_solves"] - pt.diagnostics["n_shared"]
                              for pt in region.points) + len(units[0][2]))


@pytest.mark.parametrize("config", [two_user_scenario(d1=20, n_y=2, n_z=2, seed=1),
                                    multi_user_scenario(n_users=3, n_y=2, n_z=2, seed=0)],
                         ids=["two-user", "three-user"])
def test_wscm_region_same_bytes_on_one_and_two_cpus_without_a_fork(monkeypatch, config):
    # a wscm region solves and rounds in the calling process whatever the
    # CPU count: every field of every point is the same bytes, the blend
    # weight lambda included, and no process is forked
    ch, p = generate_channels(config), config.total_power_w
    params = SweepParams(t_lambda=12, t_g=60, pareto_filter=False)
    runs, forks = {}, {}
    for cpus in (1, 2):
        pin_cpus(monkeypatch, cpus)
        forks[cpus] = counting_forks(monkeypatch)
        region = sweep_region(ch, p, "wscm", 6, params, 4)
        runs[cpus] = [point_bytes(pt) for pt in region.points]
        monkeypatch.undo()
        assert_no_child_left()
    assert runs[2] == runs[1]
    assert forks[1] == forks[2] == []
    assert sum(pt.feasible for pt in region.points) >= 2
    assert len({pt.diagnostics["lambda"] for pt in region.points if pt.feasible}) >= 2


def test_no_process_outlives_a_wscm_region(monkeypatch):
    # a wscm region forks nothing, so an error mid-loop or in the secrecy
    # solve leaves no process behind; either error is the same on one CPU
    # and on two
    config = two_user_scenario(d1=20, n_y=2, n_z=2, seed=1)
    ch, p = generate_channels(config), config.total_power_w
    params = SweepParams(t_lambda=12, t_g=60)
    real_repair, calls = algorithms._repair, []

    def failing_repair(*args):
        calls.append(None)
        if len(calls) == 6:
            raise FloatingPointError("repair failed at call 6")
        return real_repair(*args)

    def failing_secrecy(ch, p):
        raise SdpSolverError("secrecy covariance program unexpectedly infeasible")

    errors = {}
    for cpus in (2, 1):
        pin_cpus(monkeypatch, cpus)
        forks = counting_forks(monkeypatch)
        assert all(pt.feasible for pt in sweep_region(ch, p, "wscm", 4, params, 1).points[:-1])
        assert_no_child_left()
        for name, fake in (("_repair", failing_repair), ("secrecy_covariance", failing_secrecy)):
            calls.clear()
            with monkeypatch.context() as patch, pytest.raises(Exception) as err:
                patch.setattr(algorithms, name, fake)
                sweep_region(ch, p, "wscm", 4, params, 1)
            errors[cpus, name] = (type(err.value), str(err.value))
            assert_no_child_left()
        assert forks == []
        monkeypatch.undo()
    assert errors[1, "_repair"] == errors[2, "_repair"] == (
        FloatingPointError, "repair failed at call 6")
    assert errors[1, "secrecy_covariance"] == errors[2, "secrecy_covariance"] == (
        SdpSolverError, "secrecy covariance program unexpectedly infeasible")


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


@pytest.mark.parametrize("scheme", ["random-irs", "tdma", "cct"])
@pytest.mark.parametrize("seed", [1.5, True, -1])
def test_sweep_region_rejects_a_seed_that_is_no_integer_of_at_least_zero(scheme, seed):
    # unchecked, 1.5 and True ran as seed 1 (`substream` truncates), and -1
    # raised numpy's own error
    ch = rand_channelset(np.random.default_rng(0))
    with pytest.raises(ValueError, match="^seed must be an integer of at least 0$"):
        sweep_region(ch, P, scheme, 3, SweepParams(t_alpha=5, t_g=10), seed=seed)


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
    r_up = multicast_upper_bound(ch, p)[0]
    assert sum(pt.feasible for pt in region.points) >= 3
    for pt, r_m in zip(region.points, np.linspace(0.0, r_up, 6)):
        ref = algorithm2_wscm(ch, p, r_m, params.t_lambda, params.t_g, rng=substream(4, 0))
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
