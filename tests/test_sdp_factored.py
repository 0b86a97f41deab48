"""The factored-row path against the same programs given as dense rows."""
import math
from dataclasses import replace

import numpy as np
import pytest

from irssec import algorithms, sdp
from irssec.channel import generate_channels, multi_user_scenario, two_user_scenario
from irssec.sdp import (SdpProblem, SdpSolution, SdpStatus, SolverConfig, solve, solve_batch,
                        solve_many)

P = 1.0
RELATIONS = {1: "<=", 0: "==", -1: ">="}


def batch_programs(batch):
    """The lanes of an SdpBatch written out as tuple SdpProblems."""
    lanes, p = len(batch.bounds), batch.n_scalars
    scalar_objective = np.broadcast_to(batch.scalar_objective, (lanes, p))
    return [SdpProblem(dim=batch.basis.shape[0], objective=batch.objective[lane],
                       constraints=[(w, RELATIONS[sense], bound) + ((a,) if p else ())
                                    for w, sense, bound, a in zip(batch.rows[lane], batch.sense,
                                                                  batch.bounds[lane],
                                                                  batch.scalar_rows[lane])],
                       n_scalars=p, scalar_objective=scalar_objective[lane], basis=batch.basis)
            for lane in range(lanes)]


def recorded_batches(monkeypatch, run):
    """Every batch `run` hands to the solver."""
    seen = []

    def recording_solve(batch, config=None):
        seen.append(batch)
        return solve_batch(batch, config)

    with monkeypatch.context() as patch:
        patch.setattr(algorithms, "solve_batch", recording_solve)
        run()
    return seen


def recorded_programs(monkeypatch, run):
    """Every program `run` hands to the solver, as a tuple SdpProblem."""
    return [prog for batch in recorded_batches(monkeypatch, run) for prog in batch_programs(batch)]


def dense_copy(prob):
    """The same program with every weight vector expanded to F diag(w) F^H."""
    f = prob.basis

    def expand(w):
        return (f * w) @ f.conj().T

    cons = [(expand(con[0]),) + tuple(con[1:]) for con in prob.constraints]
    return replace(prob, objective=expand(prob.objective), constraints=cons, basis=None)


def factored_slack(prob, y):
    w = np.array([con[0] for con in prob.constraints]).T @ y - prob.objective
    return (prob.basis * w) @ prob.basis.conj().T


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
def test_factored_rows_match_dense_rows(monkeypatch, config, runs):
    ch = generate_channels(config)
    progs = recorded_programs(monkeypatch, lambda: runs(ch))
    # the multicast bound, and at least one Charnes-Cooper program (no scalars)
    assert progs[0].n_scalars == 1
    assert any(prog.n_scalars == 0 for prog in progs)
    for prog in progs:
        assert prog.basis.shape == (ch.n + 1, ch.n + 1 + ch.k)
        fac = solve(prog)
        den = solve(dense_copy(prog))
        assert fac.status is den.status is SdpStatus.OPTIMAL
        assert fac.objective_value == pytest.approx(den.objective_value, rel=1e-7, abs=1e-12)
        slack = factored_slack(prog, fac.dual)
        scale = max(1.0, float(np.linalg.norm(slack)))
        assert float(np.linalg.eigvalsh(slack).min()) >= -1e-6 * scale
        sign = {"<=": 1.0, "==": 0.0, ">=": -1.0}
        for y, (_, rel, *_) in zip(fac.dual, prog.constraints):
            assert sign[rel] * y >= -1e-6 * scale


def test_weight_vector_needs_matching_basis():
    with pytest.raises(ValueError):
        solve(SdpProblem(dim=2, objective=np.ones(3), constraints=[]))
    with pytest.raises(ValueError):
        solve(SdpProblem(dim=2, objective=np.ones(3), constraints=[], basis=np.eye(2)))
    with pytest.raises(ValueError):
        solve(SdpProblem(dim=2, objective=np.ones(3), constraints=[], basis=np.eye(3)))


def test_breakdown_is_not_reported_as_max_iterations():
    # a step fraction this small makes the first step fall below the 1e-10
    # breakdown threshold, long before the iteration cap
    prob = SdpProblem(dim=3, objective=np.diag([3.0, 2.0, 1.0]).astype(complex),
                      constraints=[(np.eye(3), "==", 1.0)])
    sol = solve(prob, SolverConfig(step_fraction=1e-12))
    assert sol.status is SdpStatus.BREAKDOWN
    assert sol.iterations == 1 < SolverConfig().max_iterations


@pytest.mark.parametrize("status", [SdpStatus.BREAKDOWN, SdpStatus.MAX_ITERATIONS])
def test_unconverged_solution_usable_only_when_accurate(status):
    sol = SdpSolution(matrix=np.eye(2), objective_value=0.0, status=status,
                      duality_gap=1e-9, residuals=1e-9, iterations=5)
    assert algorithms._solution_usable(sol)
    assert not algorithms._solution_usable(replace(sol, duality_gap=1e-3))
    assert not algorithms._solution_usable(replace(sol, residuals=1e-3))


def point_batch(monkeypatch):
    """The batch of in-window grid programs of one floored two-user cct
    point, as algorithm1_cct hands it to the solver."""
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    r_m = 0.3 * algorithms.multicast_upper_bound(ch, p)[0]
    batches = recorded_batches(monkeypatch, lambda: algorithms.algorithm1_cct(
        ch, p, r_m, t_alpha=80, t_g=20, rng=np.random.default_rng(0)))
    # the first batch without scalars follows the eavesdropper max-min program
    return next(batch for batch in batches if not batch.n_scalars)


def point_lanes(monkeypatch):
    """The programs of `point_batch` in tuple form."""
    return batch_programs(point_batch(monkeypatch))


def assert_bitwise_equal(got, ref):
    assert got.status is ref.status and got.iterations == ref.iterations
    for a, b in ((got.matrix, ref.matrix), (got.dual, ref.dual),
                 (got.objective_value, ref.objective_value)):
        assert np.array_equal(a, b, equal_nan=True)


def test_tuple_adapter_matches_the_batch_bitwise(monkeypatch):
    # the tuple form of a batch built by the algorithms is solved bit for bit
    # as the batch itself, and the lanes keep their order
    batch = point_batch(monkeypatch)
    assert batch.sense.tolist().count(-1) == batch.sense.tolist().count(1) == 1
    direct = solve_batch(batch)
    assert len(direct) == len(batch.bounds) > 2
    for got, ref in zip(solve_many(batch_programs(batch)), direct, strict=True):
        assert_bitwise_equal(got, ref)


def test_lanes_match_solving_each_program_alone(monkeypatch):
    progs = point_lanes(monkeypatch)
    assert 2 < len(progs) < 80
    sols = solve_many(progs)
    for prog, sol in zip(progs, sols):
        assert sol.status is SdpStatus.OPTIMAL
        assert_bitwise_equal(sol, solve(prog))
    # the lanes stop at different iterations, so some froze while others ran on
    assert len({sol.iterations for sol in sols}) > 1


def test_lane_that_stops_early_does_not_perturb_the_others(monkeypatch):
    # a lane with a non-finite bound breaks down in its first iteration; as
    # the scalar solver did, it starts from the finite 10 I (the NaN bound does
    # not enter the start) and reports a NaN gap and residual
    progs = point_lanes(monkeypatch)
    broken = replace(progs[1], constraints=[(progs[1].constraints[0][0], "<=", np.nan)]
                     + progs[1].constraints[1:])
    sols = solve_many(progs[:1] + [broken] + progs[1:])
    assert sols[1].status is SdpStatus.BREAKDOWN and sols[1].iterations == 1
    assert np.array_equal(sols[1].matrix, 10.0 * np.eye(broken.dim))
    assert np.isnan(sols[1].duality_gap) and np.isnan(sols[1].residuals)
    assert np.isfinite(sols[1].objective_value) and not sols[1].dual.any()
    for got, ref in zip(sols[:1] + sols[2:], solve_many(progs)):
        assert_bitwise_equal(got, ref)
    assert_bitwise_equal(sols[1], solve(broken))

    # one program of the batch is certified infeasible while the others run on
    def program(bound, pair_bound, weights):
        return SdpProblem(dim=4, objective=np.asarray(weights, dtype=float), basis=np.eye(4),
                          constraints=[(np.ones(4), "==", bound),
                                       (np.array([1.0, 1.0, 0.0, 0.0]), "<=", pair_bound)])

    progs = [program(1.0, 0.5, [3, 2, 1, 0]), program(1.0, -0.5, [0, 1, 2, 3]),
             program(2.0, 0.3, [1, 0, 0, 2])]
    sols = solve_many(progs)
    assert [sol.status for sol in sols] == [SdpStatus.OPTIMAL, SdpStatus.INFEASIBLE,
                                            SdpStatus.OPTIMAL]
    assert sols[1].iterations < min(sols[0].iterations, sols[2].iterations)
    for prog, sol in zip(progs, sols):
        assert_bitwise_equal(sol, solve(prog))


def test_lane_whose_row_scale_overflows_breaks_down_alone(monkeypatch):
    # a row whose norm overflows cannot be equilibrated: its lane is a
    # BREAKDOWN with NaN gap and residual, never an optimum with NaN
    # multipliers, and the other lanes are bitwise what they give without it
    batch = point_batch(monkeypatch)
    rows = batch.rows.copy()
    rows[1, 0] *= 1e300
    sols = solve_batch(replace(batch, rows=rows))
    assert sols[1].status is SdpStatus.BREAKDOWN
    assert np.isnan(sols[1].duality_gap) and np.isnan(sols[1].residuals)
    assert not algorithms._solution_usable(sols[1])
    others = [lane for lane in range(len(sols)) if lane != 1]
    alone = solve_batch(replace(batch, objective=batch.objective[others], rows=batch.rows[others],
                                bounds=batch.bounds[others],
                                scalar_rows=batch.scalar_rows[others]))
    for got, ref in zip([sols[lane] for lane in others], alone, strict=True):
        assert_bitwise_equal(got, ref)


def test_lanes_need_one_shape(monkeypatch):
    progs = point_lanes(monkeypatch)[:3]
    head = progs[0]
    other_basis = replace(head, basis=head.basis * np.exp(0.1j))
    rel = head.constraints[0]
    other_relation = replace(head, constraints=[(rel[0], ">=", rel[2])] + head.constraints[1:])
    other_scalars = replace(head, n_scalars=1, scalar_objective=[0.0])
    for odd in (other_basis, other_relation, other_scalars):
        with pytest.raises(ValueError, match="lanes need"):
            solve_many(progs + [odd])
    assert solve_many([]) == []


def test_inv_factor_falls_back_matrix_by_matrix_for_one_lane():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    definite = a @ a.conj().T + np.eye(4)
    indefinite = np.diag([1.0, 2.0, -1.0, 3.0]).astype(complex)
    stack = np.array([definite, np.outer(a[:, 0], a[:, 0].conj()), indefinite])
    # a stack of several lanes leaves the failure to the lane-by-lane retry
    with pytest.raises(np.linalg.LinAlgError):
        sdp._inv_factor(stack, alone=False)
    factors = sdp._inv_factor(stack, alone=True)
    for one, got in zip(stack, factors):
        assert np.array_equal(got, sdp._inv_factor(one[None], alone=True)[0])
    assert np.array_equal(factors[0], np.linalg.inv(np.linalg.cholesky(definite)))
    # past the jitter ladder: the pseudo-inverse factor of the positive part,
    # padded with a zero row
    assert np.allclose(factors[2].conj().T @ factors[2], np.diag([1.0, 0.5, 0.0, 1.0 / 3.0]))
    assert not factors[2][-1].any()


def test_lane_by_lane_steps_match_the_stacked_ones(monkeypatch):
    # when a stacked factorization fails, the iteration's step is taken lane by
    # lane; forcing that path everywhere leaves every lane's history unchanged
    progs = point_lanes(monkeypatch)
    stacked = solve_many(progs)
    real = sdp._inv_factor

    def failing_on_stacks(mat, alone):
        if not alone:
            raise np.linalg.LinAlgError("forced")
        return real(mat, alone)

    monkeypatch.setattr(sdp, "_inv_factor", failing_on_stacks)
    for got, ref in zip(solve_many(progs), stacked):
        assert_bitwise_equal(got, ref)


def charnes_cooper_batch(lanes):
    """Unfloored Charnes-Cooper lanes at `lanes` powers over [0, P] of the
    two-user scenario, every one kept."""
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    batch, keep = algorithms._Lifted(ch, p).cct_batch([0.0] * lanes, np.linspace(0.0, p, lanes),
                                                      math.inf)
    assert keep.all()
    return batch


def test_each_block_of_a_batch_matches_the_block_solved_alone():
    # three blocks in one call: every lane is the same bytes as in its block
    # solved alone
    batch = charnes_cooper_batch(40)
    blocks = range(0, 40, sdp._LANE_BLOCK)
    assert len(blocks) == 3
    sols = solve_batch(batch)
    assert len(sols) == 40
    for at in blocks:
        sel = slice(at, at + sdp._LANE_BLOCK)
        alone = solve_batch(replace(batch, objective=batch.objective[sel], rows=batch.rows[sel],
                                    bounds=batch.bounds[sel], scalar_rows=batch.scalar_rows[sel]))
        for got, ref in zip(sols[sel], alone, strict=True):
            assert_bitwise_equal(got, ref)
