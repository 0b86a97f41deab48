import math

import numpy as np
import pytest

from irssec import model
from irssec.channel import (ChannelSet, generate_channels, multi_user_scenario,
                            two_user_scenario)
from irssec.model import (Feasibility, PowerSplit, aligned_gain,
                          alpha_opt_closed_form, build_tk, effective_gain,
                          effective_gains, feasibility_check, lift_vector,
                          multicast_rate, positive_secrecy_condition,
                          secrecy_rate)

from conftest import phase_grid, rand_channelset, twin_channelset


def test_build_tk_all_ones():
    t = build_tk(np.array([1.0]), np.array([1.0]), 1.0)
    assert np.allclose(t, np.ones((2, 2)))


def test_build_tk_no_reflected_path():
    t = build_tk(np.array([0.0]), np.array([3.0 + 1j]), 2.0 - 1j)
    assert np.allclose(t, np.diag([0.0, 5.0]))


def test_build_tk_rank_one_with_known_eigenvalue(rng):
    for _ in range(10):
        m = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h = complex(rng.standard_normal(), rng.standard_normal())
        t = build_tk(m, g, h)
        assert np.abs(t - t.conj().T).max() < 1e-12
        lam = np.linalg.eigvalsh(t)
        assert lam[0] > -1e-12
        assert lam[-2] <= 1e-9 * lam.sum()
        expected = float(np.sum(np.abs(m * g) ** 2) + abs(h) ** 2)
        assert lam[-1] == pytest.approx(expected, abs=1e-10 * max(1, expected))


def test_effective_gain_examples():
    assert effective_gain(np.array([1.0]), np.array([1.0]), np.array([1.0]), 1.0) == pytest.approx(4.0)
    v = np.exp(1j * np.array([0.3, -1.2]))
    assert effective_gain(v, np.zeros(2), np.ones(2), 2 - 1j) == pytest.approx(5.0)


def test_effective_gain_equals_lifted_trace(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h = complex(rng.standard_normal(), rng.standard_normal())
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        z = lift_vector(v)
        lifted = float(np.real(z.conj() @ build_tk(m, g, h) @ z))
        assert effective_gain(v, m, g, h) == pytest.approx(lifted, abs=1e-10 * max(1, lifted))


@pytest.mark.parametrize("config", [
    two_user_scenario(seed=3), two_user_scenario(seed=4),
    multi_user_scenario(n_users=4, n_y=10, n_z=6, seed=3),
    multi_user_scenario(n_users=4, n_y=10, n_z=6, seed=4)], ids=["2u-3", "2u-4", "4u-3", "4u-4"])
def test_effective_gains_is_bitwise_the_plain_expression(config):
    # the conjugate amplitude has the same modulus to the last bit
    ch = generate_channels(config)
    v = np.exp(2j * np.pi * np.random.default_rng(5).random((1000, ch.n)))
    plain = lambda v: np.abs(np.conj(v) @ (np.conj(ch.m) * ch.g).T + ch.h) ** 2
    for pattern in (v, v[7], v[:1]):
        assert effective_gains(ch, pattern).tobytes() == plain(pattern).tobytes()


@pytest.mark.parametrize("n,levels", [(2, 256), (3, 32)])
def test_aligned_gain_is_grid_maximum(n, levels, rng):
    ch = twin_channelset(rng, n=n)     # two copies of one drawn user
    grid = phase_grid(n, levels)
    gains = effective_gains(ch, grid)[:, 0]
    best = aligned_gain(ch.m[0], ch.g, ch.h[0]) ** 2
    assert gains.max() <= best + 1e-9
    # grid resolution loses at most a cos(pi/levels) factor per term
    assert gains.max() >= best * np.cos(np.pi / levels) ** 2 - 1e-9


def test_multicast_rate_zero_without_power(rng):
    ch = rand_channelset(rng)
    v = np.ones(ch.n, dtype=complex)
    assert multicast_rate(ch, v, PowerSplit(1.0, 0.0)) == pytest.approx(0.0)


def test_multicast_rate_symmetric_users():
    g = np.array([1.0 + 0j, 0.5j])
    m = np.vstack([[0.3, 0.1j], [0.3, 0.1j]])
    ch = ChannelSet(g=g, m=m, h=np.array([0.2, 0.2]), sigma2=np.ones(2))
    v = np.exp(1j * np.array([0.1, 0.7]))
    x = effective_gains(ch, v)
    assert x[0] == pytest.approx(x[1])
    r = multicast_rate(ch, v, PowerSplit(0.3, 0.7))
    single = np.log2(1 + 0.7 * x[0] / (1 + 0.3 * x[0]))
    assert r == pytest.approx(single)


def test_multicast_rate_known_value():
    # effective SNR gains 2 and 8, all power multicast: min(log2 3, log2 9)
    ch = ChannelSet(g=np.array([0.0j]), m=np.zeros((2, 1)),
                    h=np.array([np.sqrt(2.0), np.sqrt(8.0)]), sigma2=np.ones(2))
    r = multicast_rate(ch, np.ones(1, dtype=complex), PowerSplit(0.0, 1.0))
    assert r == pytest.approx(np.log2(3.0), abs=1e-12)


def test_secrecy_rate_examples():
    ch = ChannelSet(g=np.array([0.0j]), m=np.zeros((2, 1)),
                    h=np.array([np.sqrt(3.0), 1.0]), sigma2=np.ones(2))
    v = np.ones(1, dtype=complex)
    assert secrecy_rate(ch, v, 0.0) == pytest.approx(0.0)
    assert secrecy_rate(ch, v, 1.0) == pytest.approx(1.0, abs=1e-12)  # log2(4/2)
    sym = ChannelSet(g=np.array([0.0j]), m=np.zeros((2, 1)),
                     h=np.array([1.0, 1.0]), sigma2=np.ones(2))
    assert secrecy_rate(sym, v, 0.7) == pytest.approx(0.0)


def test_secrecy_rate_clamps_at_zero():
    ch = ChannelSet(g=np.array([0.0j]), m=np.zeros((2, 1)),
                    h=np.array([1.0, 2.0]), sigma2=np.ones(2))
    assert secrecy_rate(ch, np.ones(1, dtype=complex), 0.9) == 0.0


def test_secrecy_monotone_in_alpha_under_condition(rng):
    for _ in range(10):
        ch = rand_channelset(rng, n=2, k=3)
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        alphas = np.linspace(0, 1, 50)
        x = effective_gains(ch, v)
        rates = model.secrecy_rate_from_gains(np.broadcast_to(x, (50, 3)), ch.sigma2, alphas)
        if positive_secrecy_condition(ch, v):
            assert np.all(np.diff(rates) >= -1e-12)
        else:
            assert np.allclose(rates, 0.0)


def test_positive_secrecy_condition_matches_small_alpha_sign(rng):
    for _ in range(25):
        ch = rand_channelset(rng, n=2, k=2)
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        cond = positive_secrecy_condition(ch, v)
        assert cond == (secrecy_rate(ch, v, 1e-6) > 0)


def test_positive_secrecy_condition_identical_channels():
    ch = ChannelSet(g=np.ones(2), m=np.vstack([np.ones(2), np.ones(2)]),
                    h=np.array([1.0, 1.0]), sigma2=np.ones(2))
    assert not positive_secrecy_condition(ch, np.ones(2, dtype=complex))


def test_feasibility_identical_users_is_feasible():
    ch = ChannelSet(g=np.ones(2), m=np.vstack([np.ones(2), np.ones(2)]),
                    h=np.array([1.0, 1.0]), sigma2=np.ones(2))
    assert feasibility_check(ch) is Feasibility.FEASIBLE


def test_feasibility_h_dominated_is_infeasible():
    ch = ChannelSet(g=np.array([1.0 + 0j]), m=np.vstack([[0.0], [0.0]]),
                    h=np.array([1.0, 2.0]), sigma2=np.ones(2))
    assert feasibility_check(ch) is Feasibility.INFEASIBLE
    assert model.infeasibility_witness(ch) == 1


def test_feasibility_undetermined_gap_case():
    # certificates are silent: user 1's aligned gain trails user 2's aligned
    # gain but beats user 2's direct-only gain
    ch = ChannelSet(g=np.array([1.0 + 0j]), m=np.vstack([[0.1], [1.0]]),
                    h=np.array([1.0, 1.0]), sigma2=np.ones(2))
    assert feasibility_check(ch) is Feasibility.UNDETERMINED
    # a 64-level grid still finds patterns with a positive secrecy lead, so
    # Undetermined genuinely differs from Infeasible here
    grid = phase_grid(1, 64)
    x = effective_gains(ch, grid)
    assert np.any(x[:, 0] / ch.sigma2[0] > x[:, 1] / ch.sigma2[1])


def test_alpha_opt_closed_form_boundaries():
    assert alpha_opt_closed_form(2.0, 1.0, 1.0, 0.0) == 1.0
    cap = np.log2(1 + 1.0 * 2.0 / 1.0)
    assert alpha_opt_closed_form(2.0, 1.0, 1.0, cap) == pytest.approx(0.0, abs=1e-12)
    assert alpha_opt_closed_form(0.0, 1.0, 1.0, 0.5) == 0.0
    # an infinite gain takes the limit P / 2^r_m, where the formula's
    # inf / inf is NaN
    assert alpha_opt_closed_form(math.inf, 1.0, 1.0, 1.0) == 0.5


def test_alpha_opt_closed_form_rejects_a_nan_floor_or_gain():
    # min(P, max(nan, 0)) is P, so a NaN must stop before the formula
    for x_min, r_m in ((2.0, math.nan), (math.nan, 1.0), (math.nan, 0.0)):
        with pytest.raises(ValueError):
            alpha_opt_closed_form(x_min, 1.0, 1.0, r_m)
    with pytest.raises(ValueError, match="noise power"):
        alpha_opt_closed_form(2.0, math.nan, 1.0, 1.0)
    # an infinite floor is unattainable at any power, as is one whose 2^r_m
    # overflows a float
    assert alpha_opt_closed_form(2.0, 1.0, 1.0, math.inf) == 0.0
    assert alpha_opt_closed_form(2.0, 1.0, 1.0, 2000.0) == 0.0


def test_alpha_opt_closed_form_matches_grid_search():
    p, x, s2, r_m = 1.0, 2.0, 1.0, 1.0
    a = alpha_opt_closed_form(x, s2, p, r_m)
    assert a == pytest.approx(0.25, abs=1e-12)
    alphas = np.linspace(0, p, 100_001)
    qoms_ok = (p - alphas * 2 ** r_m) * x >= (2 ** r_m - 1) * s2
    assert abs(alphas[qoms_ok].max() - a) < 1e-5


def test_alpha_opt_monotone_in_gain():
    alphas = [alpha_opt_closed_form(x, 1.0, 1.0, 1.0) for x in np.linspace(0.5, 10, 40)]
    assert np.all(np.diff(alphas) >= -1e-12)


def test_power_split_validation():
    for alpha, beta in ((-0.5, 0.2), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            PowerSplit(alpha, beta)
