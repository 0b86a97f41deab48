"""The factored-row path against the same programs given as dense rows."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from irssec import algorithms, sdp
from irssec.channel import generate_channels, multi_user_scenario, two_user_scenario
from irssec.sdp import SdpBatch, SdpStatus, solve_batch

from sdp_forms import (cct_region_batches, dense_batch, floored_region_batch, lanes_of,
                       max_min_lanes, random_hermitian, recorded_batches)

P = 1.0
RELATIONS = {1: "<=", 0: "==", -1: ">="}


def dense_copy(lane):
    """The same one-lane program with every weight vector expanded to F diag(w) F^H."""
    f = lane.basis

    def expand(w):
        return (f * w) @ f.conj().T

    cons = [(expand(w), RELATIONS[sense], bound) for w, sense, bound
            in zip(lane.rows[0], lane.sense, lane.bounds[0])]
    return dense_batch(expand(lane.objective[0]), cons)


def factored_slack(lane, y):
    w = lane.rows[0].T @ y - lane.objective[0]
    return (lane.basis * w) @ lane.basis.conj().T


def two_user_runs(ch):
    r_up, _ = algorithms.multicast_upper_bound(ch, P)
    algorithms.cct_fixed_alpha(ch, P, 0.0, P)
    algorithms.cct_fixed_alpha(ch, P, 0.5 * r_up, 0.1 * P)


def four_user_runs(ch):
    r_up, _ = algorithms.multicast_upper_bound(ch, P)
    algorithms.cct_fixed_alpha(ch, P, 0.0, P)
    algorithms.cct_fixed_alpha(ch, P, 0.5 * r_up, 0.1 * P)
    # inside the floor's window, whose top is near 0.066 P: three floor rows
    algorithms.cct_fixed_alpha(ch, P, 0.5 * r_up, 0.05 * P)


@pytest.mark.parametrize("config, runs", [
    (two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0), two_user_runs),
    (multi_user_scenario(n_users=4, n_y=10, n_z=6, seed=0), four_user_runs),
], ids=["two-user-n10", "four-user-n60"])
def test_factored_rows_match_dense_rows(config, runs):
    ch = generate_channels(config)
    lanes = [lanes_of(batch, [lane]) for batch in recorded_batches(lambda: runs(ch))
             for lane in range(len(batch.bounds))]
    # the multicast bound, as solved, or where its closed form is exact and
    # nothing is solved, as `max_min_batch` builds it; and at least one
    # Charnes-Cooper program
    if not max_min_lanes(lanes[0]):
        ctx, users = algorithms._Lifted(ch, P), np.arange(ch.k)
        s_scale, z = algorithms._aligned(ctx, users, ctx.p / ctx.sigma2)
        assert z is not None
        lanes.insert(0, ctx.max_min_batch(users, ctx.p / ctx.sigma2, s_scale))
    assert max_min_lanes(lanes[0]) == 1
    assert any(max_min_lanes(lane) == 0 for lane in lanes)
    for lane in lanes:
        assert lane.basis.shape == (ch.n + 1, ch.n + 1 + ch.k)
        fac = solve_batch(lane)[0]
        den = solve_batch(dense_copy(lane))[0]
        assert fac.status is den.status is SdpStatus.OPTIMAL
        assert fac.objective_value == pytest.approx(den.objective_value, rel=1e-7, abs=1e-12)
        slack = factored_slack(lane, fac.dual)
        scale = max(1.0, float(np.linalg.norm(slack)))
        assert float(np.linalg.eigvalsh(slack).min()) >= -1e-6 * scale
        # the sense is +1 for <=, 0 for == and -1 for >=
        for y, sign in zip(fac.dual, lane.sense):
            assert sign * y >= -1e-6 * scale


def test_breakdown_is_not_reported_as_max_iterations(monkeypatch):
    # a step fraction this small makes the first step fall below the 1e-10
    # breakdown threshold, long before the iteration cap
    monkeypatch.setattr(sdp, "_STEP_FRACTION", 1e-12)
    batch = dense_batch(np.diag([3.0, 2.0, 1.0]).astype(complex), [(np.eye(3), "==", 1.0)])
    sol = solve_batch(batch)[0]
    assert sol.status is SdpStatus.BREAKDOWN
    assert sol.iterations == 1 < sdp._MAX_ITERATIONS


def point_batch():
    """The batch of in-window grid programs of one floored two-user cct
    point, as algorithm1_cct hands it to the solver in one process."""
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    r_m = 0.3 * algorithms.multicast_upper_bound(ch, p)[0]
    batches = recorded_batches(lambda: algorithms.algorithm1_cct(
        ch, p, r_m, t_alpha=80, t_g=20, rng=np.random.default_rng(0)))
    # the first Charnes-Cooper batch follows the eavesdropper max-min program
    return next(batch for batch in batches if not max_min_lanes(batch))


def screened_batch():
    """Two unfloored Charnes-Cooper lanes of a four-user N = 30 scenario."""
    ch = generate_channels(multi_user_scenario(n_users=4, n_y=5, n_z=6, seed=0))
    batch = algorithms._Lifted(ch, P).cct_batch([0.0] * 2, [0.0, 0.4 * P])
    assert batch.basis.shape[0] == 31
    return batch


def record_screens(monkeypatch) -> list:
    """Wrap sdp._definite so that every flag it returns is appended, in call
    order, to the list returned."""
    tests, real = [], sdp._definite

    def definite(mats):
        flags = real(mats)
        tests.extend(flags.tolist())
        return flags

    monkeypatch.setattr(sdp, "_definite", definite)
    return tests


def screen_off(monkeypatch):
    """Fail every matrix's screen, so that every step length takes its eigenvalues."""
    monkeypatch.setattr(sdp, "_definite", lambda mats: np.zeros(len(mats), dtype=bool))


def assert_bitwise_equal(got, ref):
    assert got.status is ref.status and got.iterations == ref.iterations
    for a, b in ((got.matrix, ref.matrix), (got.dual, ref.dual),
                 (got.objective_value, ref.objective_value)):
        assert np.array_equal(a, b, equal_nan=True)


def solved_alone(batch, lane):
    return solve_batch(lanes_of(batch, [lane]))[0]


def test_lanes_match_solving_each_program_alone():
    batch = point_batch()
    assert 2 < len(batch.bounds) < 80
    sols = solve_batch(batch)
    for lane, sol in enumerate(sols):
        assert sol.status is SdpStatus.OPTIMAL
        assert_bitwise_equal(sol, solved_alone(batch, lane))
    # the lanes stop at different iterations, so some froze while others ran on
    assert len({sol.iterations for sol in sols}) > 1


def test_lane_that_stops_early_does_not_perturb_the_others():
    # a lane with a non-finite bound breaks down in its first iteration; it
    # starts from the finite 10 I (the NaN bound does not enter the start)
    # and reports a NaN gap and residual
    batch = point_batch()
    # lane 1 twice, its first copy with a NaN bound on its first (<=) row
    with_broken = lanes_of(batch, [0, 1, *range(1, len(batch.bounds))])
    assert with_broken.sense[0] == 1
    with_broken.bounds[1, 0] = np.nan
    sols = solve_batch(with_broken)
    assert sols[1].status is SdpStatus.BREAKDOWN and sols[1].iterations == 1
    assert np.array_equal(sols[1].matrix, 10.0 * np.eye(batch.basis.shape[0]))
    assert np.isnan(sols[1].duality_gap) and np.isnan(sols[1].residuals)
    assert np.isfinite(sols[1].objective_value) and not sols[1].dual.any()
    for got, ref in zip(sols[:1] + sols[2:], solve_batch(batch)):
        assert_bitwise_equal(got, ref)
    assert_bitwise_equal(sols[1], solved_alone(with_broken, 1))

    # one program of the batch is certified infeasible while the others run on
    rows = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])      # == bound, <= pair_bound
    batch = SdpBatch(np.eye(4), np.array([[3.0, 2.0, 1.0, 0.0], [0.0, 1.0, 2.0, 3.0],
                                          [1.0, 0.0, 0.0, 2.0]]),
                     np.array([rows] * 3), np.array([[1.0, 0.5], [1.0, -0.5], [2.0, 0.3]]),
                     np.array([0, 1]))
    sols = solve_batch(batch)
    assert [sol.status for sol in sols] == [SdpStatus.OPTIMAL, SdpStatus.INFEASIBLE,
                                            SdpStatus.OPTIMAL]
    assert sols[1].iterations < min(sols[0].iterations, sols[2].iterations)
    for lane, sol in enumerate(sols):
        assert_bitwise_equal(sol, solved_alone(batch, lane))


def test_lanes_ending_breakdown_infeasible_and_at_the_cap_share_a_stack(monkeypatch):
    # max x_3 + x_4 with only x_1 and x_2 held is unbounded, so its iterate
    # overflows into a BREAKDOWN; the pair rows x_1 + ... + x_4 == 1,
    # x_1 + x_2 <= -0.5 are infeasible, and <= 0.5 not
    pair = [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]]
    batch = SdpBatch(np.eye(4), np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0],
                                          [1.0, 0.0, 0.0, 2.0]]),
                     np.array([[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], pair, pair]),
                     np.array([[1.0, 1.0], [1.0, -0.5], [1.0, 0.5]]), np.array([0, 1]))
    for cap, last in ((sdp._MAX_ITERATIONS, (SdpStatus.OPTIMAL, 8)),
                      (7, (SdpStatus.MAX_ITERATIONS, 7))):
        monkeypatch.setattr(sdp, "_MAX_ITERATIONS", cap)
        sols = solve_batch(batch)
        assert [(sol.status, sol.iterations) for sol in sols] == [
            (SdpStatus.BREAKDOWN, 7), (SdpStatus.INFEASIBLE, 3), last]
        for lane, sol in enumerate(sols):
            alone = solved_alone(batch, lane)
            assert_bitwise_equal(sol, alone)
            assert (sol.duality_gap, sol.residuals) == (alone.duality_gap, alone.residuals)


def test_lane_whose_row_scale_overflows_breaks_down_alone():
    # a row whose norm overflows cannot be equilibrated: its lane is a
    # BREAKDOWN with NaN multipliers, gap and residual, so no bound is read
    # from it, and the other lanes are bitwise what they give without it
    batch = point_batch()
    rows = batch.rows.copy()
    rows[1, 0] *= 1e300
    sols = solve_batch(replace(batch, rows=rows))
    assert sols[1].status is SdpStatus.BREAKDOWN
    assert np.isnan(sols[1].duality_gap) and np.isnan(sols[1].residuals)
    assert np.isnan(sols[1].dual).all()
    others = [lane for lane in range(len(sols)) if lane != 1]
    alone = solve_batch(lanes_of(batch, others))
    for got, ref in zip([sols[lane] for lane in others], alone, strict=True):
        assert_bitwise_equal(got, ref)


def test_inv_factor_falls_back_matrix_by_matrix_in_a_stack():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    definite = a @ a.conj().T + np.eye(4)
    indefinite = np.diag([1.0, 2.0, -1.0, 3.0]).astype(complex)
    stack = np.array([definite, np.outer(a[:, 0], a[:, 0].conj()), indefinite])
    # the whole stack in one call, where np.linalg.cholesky raises on it
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factors = sdp._inv_factor(stack)
    for one, got in zip(stack, factors):
        assert np.array_equal(got, sdp._inv_factor(one[None])[0])
    assert np.array_equal(factors[0], np.linalg.inv(np.linalg.cholesky(definite)))
    # the rank-one matrix takes a jitter rung: a full-rank factor, no zero row
    assert np.abs(factors[1]).sum(axis=1).all()
    # past the jitter ladder: the pseudo-inverse factor of the positive part,
    # padded with a zero row
    assert np.allclose(factors[2].conj().T @ factors[2], np.diag([1.0, 0.5, 0.0, 1.0 / 3.0]))
    assert not factors[2][-1].any()


def test_inv_factor_gives_a_non_finite_matrix_no_jitter(monkeypatch):
    # its factor is not finite, so that its lane ends as BREAKDOWN, even for
    # an infinite diagonal entry, whose LAPACK factor inverts to a finite
    # diag(1, 0, 1)
    monkeypatch.setattr(sdp, "_jittered_factor", None)
    stack = np.array([np.eye(3), np.eye(3), np.eye(3)], dtype=complex)
    stack[1, 2, 0] = math.nan
    stack[2, 1, 1] = math.inf
    factors = sdp._inv_factor(stack)
    assert np.array_equal(factors[0], np.eye(3))
    assert np.isnan(factors[1]).all() and np.isnan(factors[2]).all()


def test_stack_whose_schur_complement_fails_its_factorization_matches_each_lane_alone(
        monkeypatch):
    # a stack of a cct region's n = 11 lanes in which one Schur complement
    # fails its stacked Cholesky factorization and takes the jitter ladder
    batch = floored_region_batch(20)
    width = sdp._stack_width(batch.basis.shape[0])
    jittered, real = [], sdp._jittered_factor

    def jittered_factor(one):
        jittered.append(len(one))
        return real(one)

    monkeypatch.setattr(sdp, "_jittered_factor", jittered_factor)
    for at in range(0, len(batch.bounds), width):
        stack = lanes_of(batch, slice(at, at + width))
        sols = solve_batch(stack)
        if jittered:
            break
    else:
        raise AssertionError("no factorization of the batch failed")
    # the m x m Schur complement: one row per constraint
    assert jittered == [batch.rows.shape[1]] * len(jittered)
    for lane, sol in enumerate(sols):
        assert_bitwise_equal(sol, solved_alone(stack, lane))


def charnes_cooper_batch(lanes):
    """Unfloored Charnes-Cooper lanes at `lanes` powers over [0, P] of the
    two-user scenario."""
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    return algorithms._Lifted(ch, p).cct_batch([0.0] * lanes, np.linspace(0.0, p, lanes))


def test_each_block_of_a_batch_matches_the_block_solved_alone(monkeypatch):
    # three blocks in one call: every lane is the same bytes as in its block
    # solved alone
    monkeypatch.setattr(sdp, "_STACK_ENTRIES", 16 * 11 ** 2)
    batch = charnes_cooper_batch(40)
    width = sdp._stack_width(batch.basis.shape[0])
    blocks = range(0, 40, width)
    assert len(blocks) == 3
    sols = solve_batch(batch)
    assert len(sols) == 40
    for at in blocks:
        sel = slice(at, at + width)
        alone = solve_batch(lanes_of(batch, sel))
        for got, ref in zip(sols[sel], alone, strict=True):
            assert_bitwise_equal(got, ref)


def test_basis_operators_match_the_dense_products():
    # the library's [I, U] bases skip their identity block; a basis that does
    # not start with the identity (the dense forms' eigenvector bases, or the
    # identity placed last) is all U
    rng = np.random.default_rng(6)
    lifted = algorithms._Lifted(generate_channels(two_user_scenario(d1=20.0, n_y=5, n_z=2,
                                                                    seed=0)), P).basis
    u = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    herm = [random_hermitian(rng, 6) for _ in range(3)]
    dense = dense_batch(herm[0], [(herm[1], "<=", 1.0), (herm[2], "==", 2.0)]).basis
    for f, k in ((lifted, 11), (np.hstack([np.eye(6), u]), 6), (dense, 0),
                 (np.hstack([u, np.eye(6)]), 0)):
        basis = sdp._Basis(f)
        assert basis.k == k
        n, width = f.shape
        g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        h = g + g.conj().swapaxes(-1, -2)
        c = rng.standard_normal((2, width))
        fh = f.conj().T
        assert np.allclose(basis.diag(g), (f.conj() * (g @ f)).sum(axis=-2).real,
                           rtol=1e-13, atol=1e-12)
        assert np.allclose(basis.expand(c), (f * c[:, None, :]) @ fh, rtol=1e-13, atol=1e-12)
        assert np.allclose(basis.gram(h), fh @ h @ f, rtol=1e-13, atol=1e-12)


def test_definite_flags_each_matrix_of_a_stack():
    # one flag per matrix, where a stacked np.linalg.cholesky raises on the
    # first failure: the gufunc under it NaN-fills a failed factor instead
    n = 11
    rng = np.random.default_rng(8)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    stack = np.array([a @ a.conj().T + np.eye(n), np.diag(np.linspace(-1.0, 1.0, n)),
                      np.eye(n), np.eye(n)], dtype=complex)
    stack[2, n - 1, 0], stack[3, n - 1, 0] = math.nan, math.inf
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flags = sdp._definite(stack)
    assert flags.tolist() == [True, False, False, False]
    # a non-finite matrix never passes, though np.linalg.cholesky factors a NaN
    assert np.isnan(np.linalg.cholesky(stack[2])).any()
    for one, flag in zip(stack, flags):
        assert sdp._definite(one[None]).tolist() == [flag]
    # the other two gufuncs of the step give a non-finite result for a
    # non-finite (or, inv, a singular) matrix, and np.linalg's for the others
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv = sdp._lapack("inv", stack)
        lam = sdp._lapack("eigvalsh_lo", stack)
        lam_real = sdp._lapack("eigvalsh_lo", stack.real)
    assert np.isfinite(inv).all(axis=(1, 2)).tolist() == [True, False, False, False]
    assert np.isfinite(lam).all(axis=1).tolist() == [True, True, False, False]
    assert np.isfinite(lam_real).all(axis=1).tolist() == [True, True, False, False]
    assert np.array_equal(inv[0], np.linalg.inv(stack[0]))
    assert np.array_equal(lam[:2], np.linalg.eigvalsh(stack[:2]))
    assert np.array_equal(lam_real[:2], np.linalg.eigvalsh(stack[:2].real))


def test_stacks_hold_64_lanes_at_n11_and_one_at_n101(monkeypatch):
    widths = []

    def stack(basis, gram2, p, cfg, w, *rest):
        widths.append(len(w))
        return [None] * len(w)

    monkeypatch.setattr(sdp, "_solve_stack", stack)
    assert len(solve_batch(charnes_cooper_batch(130))) == 130
    assert widths == [64, 64, 2]
    widths.clear()
    ch = generate_channels(multi_user_scenario(n_users=4, n_y=10, n_z=10, seed=0))
    batch = algorithms._Lifted(ch, P).cct_batch([0.0] * 2, [0.5 * P, P])
    assert batch.basis.shape[0] == 101
    assert len(solve_batch(batch)) == 2
    assert widths == [1, 1]


def test_screened_step_lengths_give_the_eigenvalue_steps(monkeypatch):
    # M = L L^H and D = L E L^H, so that lambda_min(R D R^H) is E's least
    # eigenvalue e: the eigenvalue length is -1/e
    rng = np.random.default_rng(7)
    n, fraction = 11, 0.99
    top = math.nextafter(1.0 / fraction, math.inf)
    cases = {                        # e, vector ratio, cap, corrector, the test passes
        "test passes": (-0.5, math.inf, 1.0, False, True),
        "test fails": (-2.0, math.inf, 1.0, False, False),
        "ratio binds": (-2.0, 0.3, 0.3, False, True),
        "corrector cap binds": (-0.9, math.inf, top, True, True),
        "corrector, test fails": (-2.0, 5.0, top, True, False),
    }
    mats, ds = [], []
    for e in (case[0] for case in cases.values()):
        low = np.linalg.cholesky(random_hermitian(rng, n) + 2 * n * np.eye(n))
        q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        mats.append(low @ low.conj().T)
        ds.append(low @ (q * np.linspace(e, 1.0, n)) @ q.conj().T @ low.conj().T)
    mats, ds = np.array(mats), np.array(ds)
    ratio = np.array([case[1] for case in cases.values()])
    caps = np.array([case[2] for case in cases.values()])

    def factors(js):
        return np.linalg.inv(np.linalg.cholesky(mats[js]))

    tests = record_screens(monkeypatch)
    screened = sdp._boundary_steps(mats, ds, ratio, caps, factors)
    assert tests == [case[4] for case in cases.values()]
    screen_off(monkeypatch)
    plain = sdp._boundary_steps(mats, ds, ratio, caps, factors)
    assert len(tests) == len(cases)
    assert plain == pytest.approx([2.0, 0.5, 0.3, 1.0 / 0.9, 0.5], rel=1e-9)
    for (_, r, _, corrector, passes), got, ref in zip(cases.values(), screened, plain):
        # a matrix that passes skips its eigenvalue: only the ratio is left
        assert got == (r if passes else ref)
        if corrector:
            assert min(1.0, fraction * got) == min(1.0, fraction * ref)
        else:
            assert min(1.0, got) == min(1.0, ref)


def test_boundary_step_is_zero_along_a_nan_direction():
    # the NaN eigenvalue of a NaN direction gives a zero length, so that the
    # step falls below the breakdown threshold in that iteration
    mats = np.array([np.eye(3), np.eye(3)], dtype=complex)
    ds = -0.5 * mats
    ds[1, 0, 1] = math.nan
    steps = sdp._boundary_steps(mats, ds, np.full(2, math.inf), np.full(2, 4.0),
                                lambda js: np.linalg.inv(np.linalg.cholesky(mats[js])))
    assert steps.tolist() == [2.0, 0.0]


def test_screened_lanes_match_solving_each_program_alone():
    batch = screened_batch()
    sols = solve_batch(batch)
    for lane, sol in enumerate(sols):
        assert sol.status is SdpStatus.OPTIMAL
        assert_bitwise_equal(sol, solved_alone(batch, lane))
    # the second lane runs on alone after the first has stopped
    assert sols[0].iterations < sols[1].iterations


@pytest.mark.parametrize("case", [0, 1, 8, "two-user-n10-region"])
def test_screened_steps_solve_the_four_user_n60_battery_as_eigenvalue_steps(case, monkeypatch):
    # the four-user N = 60 battery at scenario seeds 0, 1 and 8, and the n = 11
    # lanes of a cct region
    if case == "two-user-n10-region":
        batches = cct_region_batches(10)
        assert sum(len(batch.bounds) for batch in batches) > 64
    else:
        ch = generate_channels(multi_user_scenario(n_users=4, n_y=10, n_z=6, seed=case))
        batches = recorded_batches(lambda: (algorithms.multicast_upper_bound(ch, P),
                                            algorithms.secrecy_covariance(ch, P)))
    tests = record_screens(monkeypatch)
    screened = [sol for batch in batches for sol in solve_batch(batch)]
    assert any(tests) and not all(tests)
    screen_off(monkeypatch)
    plain = [sol for batch in batches for sol in solve_batch(batch)]
    for got, ref in zip(screened, plain, strict=True):
        assert got.status is ref.status is SdpStatus.OPTIMAL
        assert abs(got.iterations - ref.iterations) <= 1
        assert got.objective_value == pytest.approx(ref.objective_value, rel=1e-9)
