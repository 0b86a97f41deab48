"""The factored-row path against the same programs given as dense rows."""
from dataclasses import replace

import numpy as np
import pytest

from irssec import algorithms
from irssec.channel import generate_channels, multi_user_scenario, two_user_scenario
from irssec.sdp import SdpProblem, SdpSolution, SdpStatus, SolverConfig, solve

P = 1.0


def recorded_programs(monkeypatch, run):
    """Every program `run` hands to the solver."""
    seen = []

    def recording_solve(problem, config=None):
        seen.append(problem)
        return solve(problem, config)

    with monkeypatch.context() as patch:
        patch.setattr(algorithms, "solve", recording_solve)
        run()
    return seen


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
    algorithms.multicast_upper_bound(ch, P)
    algorithms.cct_fixed_alpha(ch, P, 0.0, P)


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
