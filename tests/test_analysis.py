import math
from dataclasses import replace

import numpy as np
import pytest

from irssec import model
from irssec.analysis import (IrsEffect, brute_force_oracle, complexity_estimate,
                             enhancement_analysis, gap_bound_general, gap_bound_tight,
                             gap_bound_worst_case, grp_complexity, proposition3_classify)
from irssec.channel import ChannelSet

from conftest import rand_channelset

# log2(1 + 1*(10+1)*1e-9 / (1e-11*(80-1))), 30 significant digits
GAP_EXAMPLE = 3.89956725480265972
LOG2_4_OVER_PI = 0.348503870527681202


def test_gap_bound_tight_frozen_value():
    assert gap_bound_tight(1.0, 10, 1e-9, 1e-11, 80) == pytest.approx(GAP_EXAMPLE, abs=1e-9)


def test_gap_bound_tight_limits():
    assert gap_bound_tight(1.0, 10, 1e-9, 1e-11, 10 ** 10) < 1e-6
    assert gap_bound_tight(1.0, 10, 0.0, 1e-11, 80) == 0.0


def test_gap_bound_general_reduces_to_tight():
    a = gap_bound_tight(2.0, 5, 0.3, 0.01, 40)
    assert gap_bound_general(2.0, 5, 0.3, 0.01, 40, 0.0) == a


def test_gap_bound_worst_case_limit():
    assert gap_bound_worst_case(1.0, 10, 1e-9, 1e-11, 10 ** 12) == pytest.approx(
        LOG2_4_OVER_PI, abs=1e-6)


def test_gap_bound_general_adds_the_slack():
    bound = (1.0, 4, 0.2, 0.05, 20)
    assert gap_bound_general(*bound, 0.3) == pytest.approx(gap_bound_tight(*bound) + 0.3, abs=1e-12)
    assert gap_bound_worst_case(*bound) >= LOG2_4_OVER_PI - 1e-9


def aligned_pattern(ch, user=0):
    # conj(v_i) * w_i must share the phase of h: v = (w/|w|) * conj(h/|h|)
    w = np.conj(ch.m[user]) * ch.g
    target = ch.h[user] / abs(ch.h[user]) if abs(ch.h[user]) > 0 else 1.0
    return (w / np.abs(w)) * np.conj(target)


def test_enhancement_inert_surface():
    ch = ChannelSet(g=np.ones(2), m=np.zeros((2, 2)),
                    h=np.array([2.0, 1.0]), sigma2=np.ones(2))
    rep = enhancement_analysis(ch, np.ones(2, dtype=complex), 0.7, p=1.0)
    assert rep.e_factors == pytest.approx([1.0, 1.0])
    assert rep.eta == pytest.approx(1.0)
    assert rep.classification is IrsEffect.INDETERMINATE


def test_enhancement_rejects_a_nan_floor():
    # a NaN floor must not report the whole budget as both closed-form powers
    ch = ChannelSet(g=np.ones(2), m=np.zeros((2, 2)),
                    h=np.array([2.0, 1.0]), sigma2=np.ones(2))
    with pytest.raises(ValueError):
        enhancement_analysis(ch, np.ones(2, dtype=complex), 0.7, p=1.0, r_m=math.nan)


def test_enhancement_identity_random_instances():
    for trial in range(20):
        rng = np.random.default_rng(trial)
        ch = rand_channelset(rng, n=3, k=2)
        hx = np.abs(ch.h) ** 2
        if hx[0] / ch.sigma2[0] <= hx[1] / ch.sigma2[1]:
            continue
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        alpha = float(rng.uniform(0.05, 1.0))
        rep = enhancement_analysis(ch, v, alpha, p=1.0)
        x = model.effective_gains(ch, v)
        lhs = (1 + alpha * x[0] / ch.sigma2[0]) / (1 + alpha * x[1] / ch.sigma2[1])
        rhs = rep.eta * (1 + alpha * hx[0] / ch.sigma2[0]) / (1 + alpha * hx[1] / ch.sigma2[1])
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)


def test_enhancement_user1_alignment_raises_eta():
    rng = np.random.default_rng(4)
    ch = rand_channelset(rng, n=3, k=2)
    h = np.array([1.0 + 0j, 0.5 + 0j])
    ch = ChannelSet(g=ch.g, m=np.vstack([ch.m[0], 1e-3 * ch.m[1]]), h=h,
                    sigma2=np.ones(2))
    rep = enhancement_analysis(ch, aligned_pattern(ch, user=0), 0.8, p=1.0)
    assert rep.eta > 1.0


def improves_instance(rng, n=3):
    """(48): user-2 gain nudged up, user-1 amplitude boosted by a larger factor."""
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g[np.abs(g) < 0.2] += 0.5
    m1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h = np.array([1.0 + 0j, 0.6 + 0j])
    v = None
    ch0 = ChannelSet(g=g, m=np.vstack([m1, np.zeros(n)]), h=h, sigma2=np.ones(2))
    v = aligned_pattern(ch0, user=0)
    eps = 0.05 * abs(h[1])
    m2 = np.conj(v * eps * (h[1] / abs(h[1])) / (n * g))
    ch = ChannelSet(g=g, m=np.vstack([m1, m2]), h=h, sigma2=np.ones(2))
    return ch, v


def impairs_instance(rng, n=3):
    """(49): both user gains shrink, user 1 relatively more."""
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g[np.abs(g) < 0.2] += 0.5
    h = np.array([1.0 + 0j, 0.6 + 0j])
    m1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m1 *= 0.3 / np.sum(np.abs(m1 * g))  # aligned reflected mass = 0.3|h1|
    ch0 = ChannelSet(g=g, m=np.vstack([m1, np.zeros(n)]), h=h, sigma2=np.ones(2))
    v = -aligned_pattern(ch0, user=0)   # anti-align user 1
    eps = 0.02 * abs(h[1])
    m2 = np.conj(v * (-eps) * (h[1] / abs(h[1])) / (n * g))
    ch = ChannelSet(g=g, m=np.vstack([m1, m2]), h=h, sigma2=np.ones(2))
    return ch, v


def closed_form_secrecy(x1, x2, s, p, r_m, x_bottleneck):
    alpha = model.alpha_opt_closed_form(x_bottleneck, s[1], p, r_m)
    return model.secrecy_rate_from_gains(np.array([x1, x2]), s, alpha), alpha


def test_proposition3_improves_with_grid_verification():
    rng = np.random.default_rng(9)
    ch, v = improves_instance(rng)
    assert proposition3_classify(ch, v) is IrsEffect.IMPROVES
    x = model.effective_gains(ch, v)
    hx = np.abs(ch.h) ** 2
    p = 1.0
    cap = min(float(model.multicast_capacity_from_gains(x, ch.sigma2, p)),
              float(model.multicast_capacity_from_gains(hx, ch.sigma2, p)))
    for r_m in np.linspace(0.0, cap, 200):
        with_irs, _ = closed_form_secrecy(x[0], x[1], ch.sigma2, p, r_m, x[1])
        without, _ = closed_form_secrecy(hx[0], hx[1], ch.sigma2, p, r_m, hx[1])
        assert with_irs >= without - 1e-12
    for alpha in np.linspace(0.0, p, 200):
        r_i = model.secrecy_rate_from_gains(x, ch.sigma2, alpha)
        r_n = model.secrecy_rate_from_gains(hx, ch.sigma2, alpha)
        assert r_i >= r_n - 1e-12


def test_proposition3_impairs_with_grid_verification():
    rng = np.random.default_rng(10)
    ch, v = impairs_instance(rng)
    assert proposition3_classify(ch, v) is IrsEffect.IMPAIRS
    x = model.effective_gains(ch, v)
    hx = np.abs(ch.h) ** 2
    p = 1.0
    cap = min(float(model.multicast_capacity_from_gains(x, ch.sigma2, p)),
              float(model.multicast_capacity_from_gains(hx, ch.sigma2, p)))
    for r_m in np.linspace(0.0, cap, 200):
        with_irs, _ = closed_form_secrecy(x[0], x[1], ch.sigma2, p, r_m, x[1])
        without, _ = closed_form_secrecy(hx[0], hx[1], ch.sigma2, p, r_m, hx[1])
        assert with_irs <= without + 1e-12


def test_proposition3_symmetric_is_indeterminate():
    ch = ChannelSet(g=np.ones(2), m=np.zeros((2, 2)),
                    h=np.array([2.0, 1.0]), sigma2=np.ones(2))
    assert proposition3_classify(ch, np.ones(2, dtype=complex)) is IrsEffect.INDETERMINATE


def test_proposition3_requires_direct_advantage():
    ch = ChannelSet(g=np.ones(2), m=np.zeros((2, 2)),
                    h=np.array([1.0, 2.0]), sigma2=np.ones(2))
    with pytest.raises(ValueError):
        proposition3_classify(ch, np.ones(2, dtype=complex))


def test_complexity_matches_symbolic_forms():
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
    for vals in [(4, 2, 10, 10, 100), (8, 3, 80, 80, 1000), (16, 4, 5, 7, 10)]:
        subs = dict(zip((n, k, ta, tl, tg), vals))
        a1, a2 = complexity_estimate(*vals)
        assert a1 == pytest.approx(float(a1s.subs(subs)), rel=1e-12)
        assert a2 == pytest.approx(float(a2s.subs(subs)), rel=1e-12)


def test_complexity_grp_term_and_monotonicity():
    assert grp_complexity(1, 1) == 40.0
    base = complexity_estimate(4, 2, 10, 10, 100)[0]
    assert complexity_estimate(5, 2, 10, 10, 100)[0] > base
    assert complexity_estimate(4, 3, 10, 10, 100)[0] > base
    assert complexity_estimate(4, 2, 20, 10, 100)[0] > base


def test_complexity_ratio_linear_in_t_alpha():
    # with the blend count fixed, the sweep/blend cost ratio tracks T_alpha
    for n in (4, 8, 16):
        r1 = complexity_estimate(n, 2, 40, 40, 100)
        r2 = complexity_estimate(n, 2, 80, 40, 100)
        ratio1 = r1[0] / r1[1]
        ratio2 = r2[0] / r2[1]
        assert ratio2 / ratio1 == pytest.approx(2.0, rel=0.15)


def test_oracle_matches_no_irs_closed_form():
    ch = ChannelSet(g=np.zeros(1), m=np.zeros((2, 1)),
                    h=np.array([np.sqrt(3.0), np.sqrt(2.0)]), sigma2=np.ones(2))
    r_m = 1.0
    r_c, v, alpha = brute_force_oracle(ch, 1.0, r_m, 16, 401)
    ref = model.alpha_opt_closed_form(2.0, 1.0, 1.0, r_m)
    assert alpha == pytest.approx(ref, abs=1.0 / 400)
    expected = model.secrecy_rate_from_gains(np.array([3.0, 2.0]), ch.sigma2, alpha)
    assert r_c == pytest.approx(float(expected), abs=1e-12)


def test_oracle_zero_for_symmetric_eavesdropper():
    ch = ChannelSet(g=np.ones(1), m=np.vstack([[0.5], [0.5]]),
                    h=np.array([1.0, 1.0]), sigma2=np.ones(2))
    r_c, v, alpha = brute_force_oracle(ch, 1.0, 0.0, 32, 51)
    assert r_c == 0.0


def test_oracle_rejects_oversized_grids():
    ch = ChannelSet(g=np.ones(4), m=np.ones((2, 4)),
                    h=np.array([1.0, 0.5]), sigma2=np.ones(2))
    with pytest.raises(ValueError, match="too large"):
        brute_force_oracle(ch, 1.0, 0.0, 64, 201)
    # an empty grid is no grid: no phase level divided by zero, and none read
    # as "no cell supports the floor"
    small = ChannelSet(g=np.ones(2), m=np.ones((2, 2)), h=np.array([1.0, 0.5]), sigma2=np.ones(2))
    for levels, points in ((4, 0), (0, 4), (-2, 4), (4, -1)):
        with pytest.raises(ValueError, match="at least 1"):
            brute_force_oracle(small, 1.0, 0.0, levels, points)


def test_oracle_invariant_under_grid_rotation():
    rng = np.random.default_rng(2)
    ch = rand_channelset(rng, n=2, k=2)
    a = brute_force_oracle(ch, 1.0, 0.4, 32, 101)
    # rotating every grid phase by theta is rotating the AP-IRS channel by -theta
    b = brute_force_oracle(replace(ch, g=ch.g * np.exp(-2j * np.pi / 64)), 1.0, 0.4, 32, 101)
    # the grid is phase-rotation covariant; values agree to grid resolution
    assert abs(a[0] - b[0]) <= 0.05


def test_oracle_unsupportable_floor():
    ch = ChannelSet(g=np.zeros(1), m=np.zeros((2, 1)),
                    h=np.array([1.0, 1.0]), sigma2=np.ones(2))
    # a floor whose 2^r_m overflows a float is as unsupportable as 10 bits
    for r_m in (10.0, 2000.0):
        assert brute_force_oracle(ch, 1.0, r_m, 8, 11) == (0.0, None, 0.0)
