"""SdpBatch builders for the tests and `layer_timings.py`: hand-written dense
programs, random Hermitian data, sub-batches, the batches the algorithms
hand to the solver, and a cct region's floored lanes as one batch."""
from dataclasses import replace

import numpy as np

from irssec import algorithms, sdp
from irssec.channel import generate_channels, two_user_scenario

SENSES = {"<=": 1, "==": 0, ">=": -1}


def dense_batch(objective, constraints):
    """One lane: max Tr(C X) s.t. Tr(A_i X) {rel_i} b_i, X PSD, with
    C = objective and constraints the tuples (A_i, rel_i, b_i), every C and
    A_i a dense Hermitian matrix. The eigenvectors of each matrix in turn,
    its numerically zero eigenvalues dropped, join the basis, and its
    eigenvalues are its weights on them."""
    factors = []
    for data in [objective] + [con[0] for con in constraints]:
        mat = np.asarray(data, dtype=complex)
        lam, vec = np.linalg.eigh(0.5 * (mat + mat.conj().T))
        keep = np.abs(lam) > 1e-14 * np.abs(lam).max(initial=0.0)
        factors.append((vec[:, keep], lam[keep]))
    basis = np.hstack([vec for vec, _ in factors])
    w, at = np.zeros((len(factors), basis.shape[1])), 0
    for row, (_, lam) in zip(w, factors):
        row[at:at + lam.size] = lam
        at += lam.size
    bounds = np.array([[float(con[2]) for con in constraints]])
    return sdp.SdpBatch(basis, w[:1], w[None, 1:], bounds,
                        np.array([SENSES[con[1]] for con in constraints]))


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def lanes_of(batch, sel):
    """The sub-batch of the lanes sel (a slice or an index list) of a batch."""
    return replace(batch, objective=batch.objective[sel], rows=batch.rows[sel],
                   bounds=batch.bounds[sel])


def max_min_lanes(batch) -> int:
    """The number of max-min SNR lanes in a batch the algorithms solve: all
    of its lanes when it is the max-min program (`_Lifted.max_min_batch`,
    the one shape that minimizes, so its objective is negative), else 0."""
    return len(batch.bounds) if (batch.objective < 0).any() else 0


def recorded_batches(run) -> list:
    """Every batch that `run` hands to algorithms.solve_batch, each solved in
    this process: a cct point or region runs on no worker process."""
    seen = []

    def solve_batch(batch, config=None):
        seen.append(batch)
        return sdp.solve_batch(batch, config)

    saved = algorithms.solve_batch, algorithms._workers
    try:
        algorithms.solve_batch, algorithms._workers = solve_batch, lambda units: 1
        run()
    finally:
        algorithms.solve_batch, algorithms._workers = saved
    return seen


def cct_region_batches(grid: int) -> list:
    """Every batch of a two-user N = 10 cct region (grid points `grid`,
    T_alpha 80) on `two_user_scenario(d1=20, n_y=5, n_z=2, seed=0)`, its
    units solved and recorded in this process."""
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    params = algorithms.SweepParams(t_alpha=80, t_g=20)     # T_g does not change the lanes
    return recorded_batches(lambda: algorithms.sweep_region(ch, p, "cct", grid, params))


def floored_region_batch(grid: int) -> sdp.SdpBatch:
    """Every floored Charnes-Cooper lane of the `cct_region_batches(grid)`
    region as one batch built by `_Lifted.cct_batch`, none shared: floor by
    floor, the in-window grid lanes, then the edge lanes (`_cct_units`).
    The region itself solves each anchor once and shares it (`_solve_units`)."""
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    ctx = algorithms._Lifted(ch, p)
    floors = np.linspace(0.0, algorithms.multicast_upper_bound(ch, p)[0], grid)[1:].tolist()
    alphas, _, _ = algorithms._cct_units(ctx, ch, floors, 80, algorithms._eavesdropper_snr(ctx))
    pairs = [(r_m, alpha) for r_m, own in zip(floors, alphas) for alpha in own]
    return ctx.cct_batch([r_m for r_m, _ in pairs], [alpha for _, alpha in pairs])
