import math

import numpy as np
import pytest

from irssec.sdp import SdpStatus, SolverConfig, grp_draw, grp_round, solve_batch, substream

from sdp_forms import dense_batch, random_hermitian

TIGHT = SolverConfig(tolerance=1e-12)


def feasible_random_problem(rng, n, n_ineq=3, n_eq=1):
    """(objective, constraints) of a bounded instance with a known strictly
    feasible point."""
    b_mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x0 = b_mat @ b_mat.conj().T / n
    cons = []
    for _ in range(n_ineq):
        a = random_hermitian(rng, n)
        rel = "<=" if rng.random() < 0.5 else ">="
        off = 0.5 if rel == "<=" else -0.5
        cons.append((a, rel, float(np.trace(a @ x0).real) + off))
    for _ in range(n_eq):
        a = random_hermitian(rng, n)
        cons.append((a, "==", float(np.trace(a @ x0).real)))
    cons.append((np.eye(n), "<=", float(np.trace(x0).real) + 1.0))
    return random_hermitian(rng, n), cons


def test_scalar_equality_program():
    sol = solve_batch(dense_batch(np.array([[1.0]]), [(np.array([[2.0]]), "==", 1.0)]), TIGHT)[0]
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(0.5, abs=1e-9)
    assert sol.matrix[0, 0].real == pytest.approx(0.5, abs=1e-9)


def test_largest_eigenvalue_program():
    sol = solve_batch(dense_batch(np.diag([2.0, 1.0]).astype(complex), [(np.eye(2), "==", 1.0)]),
                      TIGHT)[0]
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)
    assert sol.matrix[0, 0].real == pytest.approx(1.0, abs=1e-7)


def test_complex_largest_eigenvalue(rng):
    c = random_hermitian(rng, 4)
    sol = solve_batch(dense_batch(c, [(np.eye(4), "==", 1.0)]), TIGHT)[0]
    assert sol.objective_value == pytest.approx(float(np.linalg.eigvalsh(c).max()), abs=1e-8)


def test_minimization_direction():
    # min Tr X is max Tr(-X)
    batch = dense_batch(np.eye(2), [(np.diag([1.0, 0.0]), ">=", 2.0)])
    batch.objective = -batch.objective
    sol = solve_batch(batch)[0]
    assert sol.status is SdpStatus.OPTIMAL
    assert -sol.objective_value == pytest.approx(2.0, abs=1e-6)


def test_diagonal_instances_match_linprog(rng):
    linprog = pytest.importorskip("scipy.optimize").linprog
    for trial in range(15):
        r = np.random.default_rng(trial)
        n = int(r.integers(2, 6))
        c = r.standard_normal(n)
        x0 = r.random(n) + 0.1
        a_ub, b_ub = [], []
        for _ in range(3):
            a = r.standard_normal(n)
            a_ub.append(a)
            b_ub.append(a @ x0 + 0.3)
        a_ub.append(np.ones(n))
        b_ub.append(x0.sum() + 1.0)
        ref = linprog(-c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                      bounds=[(0, None)] * n, method="highs")
        assert ref.status == 0
        cons = [(np.diag(a), "<=", float(b)) for a, b in zip(a_ub, b_ub)]
        sol = solve_batch(dense_batch(np.diag(c), cons))[0]
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-6)


def test_random_battery_certified(rng):
    for trial in range(30):
        r = np.random.default_rng(100 + trial)
        objective, cons = feasible_random_problem(r, int(r.integers(2, 7)))
        sol = solve_batch(dense_batch(objective, cons))[0]
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.duality_gap < 1e-7
        assert sol.residuals < 1e-7
        assert float(np.linalg.eigvalsh(sol.matrix).min()) >= -1e-8
        # weak-duality certificate, independent of the solver's internals:
        # the dual slack built from the returned multipliers must be PSD and
        # the primal/dual objective values must coincide.
        y = sol.dual
        slack = -objective.astype(complex)
        bound = 0.0
        scale = max(1.0, abs(sol.objective_value))
        for yi, (mat, rel, rhs, *_) in zip(y, cons):
            slack = slack + yi * np.asarray(mat, dtype=complex)
            bound += yi * rhs
            if rel == "<=":
                assert yi >= -1e-6 * scale
            elif rel == ">=":
                assert yi <= 1e-6 * scale
        assert float(np.linalg.eigvalsh(0.5 * (slack + slack.conj().T)).min()) >= -1e-6 * scale
        assert bound == pytest.approx(sol.objective_value, abs=1e-5 * scale)


def test_infeasible_is_certified():
    sol = solve_batch(dense_batch(np.eye(2), [(np.diag([1.0, 0.0]), "==", -1.0),
                                              (np.eye(2), "<=", 5.0)]))[0]
    assert sol.status is SdpStatus.INFEASIBLE


def test_unbounded_detected():
    # max Tr(X) with only X_11 held grows X_22 without bound: the lane ends
    # on an overflowing iterate, never as an optimum
    sol = solve_batch(dense_batch(np.eye(2), [(np.diag([1.0, 0.0]), "<=", 1.0)]))[0]
    assert sol.status is not SdpStatus.OPTIMAL
    assert sol.status in (SdpStatus.BREAKDOWN, SdpStatus.MAX_ITERATIONS)


def test_grp_rank_one_recovery(rng):
    n = 4
    v = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    z = np.concatenate([v, [1.0 + 0j]])
    zmat = np.outer(z, z.conj())
    t1 = random_hermitian(rng, n + 1)
    t1 = t1 @ t1.conj().T  # PSD score matrix

    def score(vb):
        zb = np.concatenate([vb, np.ones((vb.shape[0], 1))], axis=1)
        return np.real(np.einsum("bi,ij,bj->b", zb.conj(), t1, zb))

    out_v, out_s = grp_round(zmat, 50, score, np.random.default_rng(0))
    assert np.allclose(out_v, v, atol=1e-9)
    lifted = np.concatenate([v, [1.0 + 0j]])
    expected = float(np.real(lifted.conj() @ t1 @ lifted))
    assert out_s == pytest.approx(expected, abs=1e-9 * max(1, expected))


def test_grp_deterministic_given_seed(rng):
    z = random_hermitian(rng, 4)
    z = z @ z.conj().T + np.eye(4)
    score = lambda vb: np.abs(vb.sum(axis=1))
    a = grp_round(z, 25, score, np.random.default_rng(7))
    b = grp_round(z, 25, score, np.random.default_rng(7))
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_grp_round_is_argmax_of_grp_draw(rng):
    z = random_hermitian(rng, 4)
    z = z @ z.conj().T + np.eye(4)
    score = lambda vb: np.abs(vb.sum(axis=1))
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    batch = grp_draw(z, 40, rng_a)
    v, s = grp_round(z, 40, score, rng_b)
    assert batch.shape == (40, 3)
    assert np.allclose(np.abs(batch), 1.0, atol=1e-12)
    i = int(np.argmax(score(batch)))
    assert np.array_equal(v, batch[i]) and s == score(batch)[i]
    assert rng_a.random() == rng_b.random()      # both consumed the same draws
    # a rank-one input gives its eigenvector pattern alone and draws nothing
    lifted = np.append(batch[0], 1.0)
    rng_c = np.random.default_rng(3)
    one = grp_draw(np.outer(lifted, lifted.conj()), 40, rng_c)
    assert one.shape == (1, 3) and np.allclose(one[0], batch[0], atol=1e-9)
    assert rng_c.random() == np.random.default_rng(3).random()


def test_grp_rejects_covariance_without_lifted_variance():
    # every draw's lifted coordinate would be zero, so no candidate could be
    # normalized: the error comes before any draw
    score = lambda vb: np.zeros(vb.shape[0])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="no variance"):
        grp_round(np.diag([1.0, 0.0]), 10, score, rng)
    assert rng.random() == np.random.default_rng(0).random()


@pytest.mark.parametrize("score", [lambda vb: np.abs(vb[:, :2]), lambda vb: 1.0,
                                   lambda vb: np.ones(len(vb) + 1)],
                         ids=["two per candidate", "one value", "one too many"])
def test_grp_round_rejects_a_score_that_is_not_one_value_per_candidate(score):
    # a (B, 2) score would pair one candidate's pattern with another's score,
    # a single value would always pick candidate 0
    with pytest.raises(ValueError, match="one value per candidate"):
        grp_round(np.eye(4) + 0.1, 6, score, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_grp_rejects_a_covariance_that_is_not_finite(bad):
    # a NaN stalls the eigendecomposition; an infinite diagonal would pass it
    # and fail later with a misleading "no variance"
    z = np.eye(4, dtype=complex)
    z[1, 1] = bad
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="finite"):
        grp_draw(z, 10, rng)
    assert rng.random() == np.random.default_rng(0).random()     # nothing drawn


def reference_draw(z_matrix, candidates, rng):
    """`grp_draw` without its rank-one shortcut, as plain expressions on
    fresh arrays: the eigenpairs above 1e-7 of the trace (a trailing slice,
    as eigh sorts ascending), two normal calls of one row per kept
    eigenpair, numpy's complex division by sqrt(2), the usable columns
    gathered, then z / |z| (1 where |z| is zero)."""
    z = np.asarray(z_matrix, dtype=complex)
    lam, u = np.linalg.eigh(0.5 * (z + z.conj().T))
    lam = np.clip(lam, 0.0, None)
    low = int((lam <= 1e-7 * lam.sum()).sum())
    factor = u[:, low:] * np.sqrt(lam[low:])
    rank, batches, remaining = len(z) - low, [], candidates
    while remaining > 0:
        draw = (rng.standard_normal((rank, remaining))
                + 1j * rng.standard_normal((rank, remaining))) / math.sqrt(2.0)
        zt = factor @ draw
        keep = np.abs(zt[-1]) > 1e-300
        ratio = (zt[:-1, keep] / zt[-1, keep]).T
        mag = np.abs(ratio)
        batches.append(np.where(mag > 0, ratio / np.where(mag > 0, mag, 1.0), 1.0 + 0.0j))
        remaining -= int(keep.sum())
    return batches[0] if len(batches) == 1 else np.vstack(batches)


@pytest.mark.parametrize("candidates", [1, 7, 1000])
@pytest.mark.parametrize("kind", ["rank-two blend", "rank three", "full rank"])
def test_grp_draw_is_bitwise_the_plain_expression(kind, candidates):
    rng = np.random.default_rng(17)
    u, w = (rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))) / math.sqrt(2.0)
    if kind == "rank-two blend":
        z = 0.3 * np.outer(u, u.conj()) + 0.7 * np.outer(w, w.conj())
    elif kind == "rank three":
        t = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / math.sqrt(2.0)
        z = 0.3 * np.outer(u, u.conj()) + 0.7 * np.outer(w, w.conj()) + 0.5 * np.outer(t, t.conj())
    else:
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        z = a @ a.conj().T / 6 + np.eye(6)
    before = z.copy()
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    got, want = grp_draw(z, candidates, rng_a), reference_draw(z, candidates, rng_b)
    assert got.shape == want.shape == (candidates, 5)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert z.tobytes() == before.tobytes()


@pytest.mark.parametrize("size", [6, 11])
def test_grp_draw_of_a_rank_two_blend_draws_two_normals_per_candidate_and_part(size):
    # a real and an imaginary normal per kept eigenpair and candidate, not
    # per entry of the (size x size) covariance
    rng = np.random.default_rng(17)
    u, w = (rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))) / math.sqrt(2.0)
    z, t_g = 0.3 * np.outer(u, u.conj()) + 0.7 * np.outer(w, w.conj()), 50
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    assert grp_draw(z, t_g, rng).shape == (t_g, size - 1)
    twin.standard_normal(2 * 2 * t_g)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_grp_round_ranks_a_nan_score_below_every_other():
    z = np.eye(3) + 0.1
    batch = grp_draw(z, 4, np.random.default_rng(2))
    for scores, want in (([1.0, math.nan, 2.0, 0.5], 2), ([math.nan, -math.inf, 0.0, 0.0], 2),
                         ([math.nan, -math.inf, math.nan, -math.inf], 1),
                         ([math.nan] * 4, 0), ([3.0, 1.0, 3.0, 2.0], 0)):
        v, s = grp_round(z, 4, lambda vb, scores=scores: np.array(scores),
                         np.random.default_rng(2))
        assert np.array_equal(v, batch[want])
        assert s == scores[want] or math.isnan(s) and math.isnan(scores[want])


def test_grp_unit_modulus_and_relaxation_dominance():
    n = 4
    rng = np.random.default_rng(5)
    u = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    t = np.outer(u, u.conj())
    cons = [(np.diag(np.eye(n + 1)[i]).astype(complex), "==", 1.0) for i in range(n + 1)]
    sol = solve_batch(dense_batch(t, cons), TIGHT)[0]
    assert sol.status is SdpStatus.OPTIMAL

    def score(vb):
        zb = np.concatenate([vb, np.ones((vb.shape[0], 1))], axis=1)
        return np.real(np.einsum("bi,ij,bj->b", zb.conj(), t, zb))

    v, s = grp_round(np.eye(n + 1) / (n + 1), 1000, score, np.random.default_rng(1))
    assert np.allclose(np.abs(v), 1.0, atol=1e-12)
    assert s <= sol.objective_value + 1e-7
    v2, s2 = grp_round(sol.matrix, 1000, score, np.random.default_rng(2))
    assert s2 <= sol.objective_value + 1e-7


def test_grp_expected_ratio_above_pi_over_four():
    # randomization guarantee holds in expectation; check the corpus mean
    ratios = []
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        n = int(rng.integers(3, 7))
        u = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        w = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        t = np.outer(u, u.conj()) + 0.3 * np.outer(w, w.conj())
        cons = [(np.diag(np.eye(n + 1)[i]).astype(complex), "==", 1.0) for i in range(n + 1)]
        sol = solve_batch(dense_batch(t, cons))[0]
        assert sol.status is SdpStatus.OPTIMAL

        def score(vb):
            zb = np.concatenate([vb, np.ones((vb.shape[0], 1))], axis=1)
            return np.real(np.einsum("bi,ij,bj->b", zb.conj(), t, zb))

        _, s = grp_round(sol.matrix, 200, score, rng)
        ratios.append(s / sol.objective_value)
    assert np.mean(ratios) >= np.pi / 4


def test_substream_reproducible_and_order_free():
    a = substream(9, 3).standard_normal(4)
    b = substream(9, 3).standard_normal(4)
    c = substream(9, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed, key", [(1.9, (0,)), (True, (0,)), (0, (0.5,)), (0, (False,)),
                                       (-1, ()), (3, (2, -1)), ("3", ())])
def test_substream_rejects_a_seed_or_key_that_is_no_integer_of_at_least_0(seed, key):
    # int() truncated 1.9, True and 0.5, so they ran as 1, 1 and 0
    with pytest.raises(ValueError, match="integers of at least 0"):
        substream(seed, *key)


def test_substream_takes_numpy_integers_as_their_values():
    a = substream(np.int64(3), np.int64(2)).bit_generator.state
    assert a == substream(3, 2).bit_generator.state


@pytest.mark.parametrize("tolerance", [0.0, -1e-8, math.nan, math.inf])
def test_solver_config_rejects_a_tolerance_that_is_not_positive_and_finite(tolerance):
    # a NaN tolerance would run every solve to the iteration cap, an infinite
    # one would report every lane OPTIMAL at iteration 1
    with pytest.raises(ValueError, match="tolerance"):
        SolverConfig(tolerance=tolerance)
