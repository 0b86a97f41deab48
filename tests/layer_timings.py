"""Per-layer timings that the benchmark does not report, on fixed seeds.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/layer_timings.py [--repeats R]

Prints the CPUs the process may run on and the lanes per `solve_batch` stack
at n in {11, 31, 61, 101}, then six groups of figures, each timing the best of
R repeats. Only a region spreads its work over processes (one group of
boundary points per CPU), so every other figure is a time on one CPU:

* ms per lane-iteration at n = 11 for L in {1, 20, 80} lanes. The programs
  are the Charnes-Cooper programs of 80 uniform confidential powers over
  [0, P] without a floor on `two_user_scenario(d1=20, n_y=5, n_z=2, seed=0)`,
  solved L lanes at a time by `solve_batch`, and the time is divided by the
  summed iterations of the lanes.
* ms per lane-iteration on the floored Charnes-Cooper batches of a cct region
  on the same scenario (grid 20, T_alpha 80), recorded with its points solved
  in this process, as one region's batches reach `solve_batch`; with the
  share of step lengths at n = 11 that the Cholesky screen settles without
  eigenvalues, and the matrices whose inverse Cholesky factor took the
  jitter ladder and the eigendecomposition of `sdp._inv_factor`.
* one-lane ms per iteration at N in {30, 60, 100}: the multicast-bound and
  secrecy-covariance programs of `multi_user_scenario(n_users=4)` at
  scenario seeds 0 and 1, with the share of predictor and of corrector step
  lengths that the screen settles.
* `grp_round` us per 1000 candidates at N = 10, drawn from the even blend of
  the multicast- and secrecy-optimal covariances of the two-user scenario.
* ms per `algorithm1_cct` point on the same scenario (N = 10, T_alpha 80,
  T_g 1000) at r_m = 0 and at half the multicast upper bound, with the
  eavesdropper max-min SNR solved beforehand as `sweep_region` does.
* ms per cct region on the same scenario (grid 20, T_alpha 80, T_g 1000),
  with the process pinned to one CPU and on every CPU, and the region's
  Charnes-Cooper lanes and lane-iterations summed from its points'
  diagnostics (the points may be solved in worker processes).

The file name does not match test_*.py, so pytest does not collect it.
"""
from __future__ import annotations

import argparse
import math
import os
import time

import numpy as np

from irssec import algorithms, sdp
from irssec.channel import generate_channels, multi_user_scenario, two_user_scenario

from sdp_forms import cct_region_batches, lanes_of, max_min_lanes, recorded_batches

P = 1.0
LANES = (1, 20, 80)
STACK_SIZES = (11, 31, 61, 101)
SURFACES = {30: (5, 6), 60: (10, 6), 100: (10, 10)}       # N: (n_y, n_z)


def best_of(repeats: int, run) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def lane_rows(repeats: int) -> None:
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    p = config.total_power_w
    ctx = algorithms._Lifted(generate_channels(config), p)
    batch, _ = ctx.cct_batch([0.0] * 80, [p * t / 79 for t in range(80)], math.inf)
    count = len(batch.bounds)
    iterations = sum(sol.iterations for sol in sdp.solve_batch(batch))
    for lanes in LANES:
        def run(lanes=lanes):
            for at in range(0, count, lanes):
                sdp.solve_batch(lanes_of(batch, slice(at, at + lanes)))
        ms = 1e3 * best_of(repeats, run) / iterations
        print(f"n=11   L={lanes:<3d} ms per lane-iteration {ms:8.4f}"
              f"   ({count} programs, {iterations} lane-iterations)")


def region_batch_row(repeats: int) -> None:
    batches = [batch for batch in cct_region_batches(20)
               if not max_min_lanes(batch) and (batch.sense == -1).any()]
    iterations, calls, (jittered, eigh) = screened_solves(batches)

    def run():
        for batch in batches:
            sdp.solve_batch(batch)
    ms = 1e3 * best_of(repeats, run) / iterations
    print(f"n=11   cct region floored batches ms per lane-iteration {ms:8.4f}"
          f"   ({sum(len(batch.bounds) for batch in batches)} lanes in {len(batches)} batches,"
          f" {iterations} lane-iterations; screen settles {share(sum(calls, []))} lengths;"
          f" inverse factors by jitter {jittered}, by eigendecomposition {eigh})")


def one_lane_rows(repeats: int) -> None:
    for n_elements, (n_y, n_z) in SURFACES.items():
        batches = []
        for seed in (0, 1):
            config = multi_user_scenario(n_users=4, n_y=n_y, n_z=n_z, seed=seed)
            ch = generate_channels(config)
            batches += recorded_batches(lambda: (algorithms.multicast_upper_bound(ch, P),
                                                 algorithms.secrecy_covariance(ch, P)))
        iterations, calls, _ = screened_solves(batches)
        # one lane screens its predictor lengths in one call, then its corrector ones
        predictor, corrector = sum(calls[0::2], []), sum(calls[1::2], [])

        def run():
            for batch in batches:
                sdp.solve_batch(batch)
        ms = 1e3 * best_of(repeats, run) / iterations
        print(f"n={n_elements + 1:<4d} L=1   ms per iteration      {ms:8.4f}"
              f"   ({len(batches)} programs, {iterations} iterations; screen settles"
              f" {share(predictor)} predictor and {share(corrector)} corrector lengths)")


def share(flags) -> str:
    return f"{sum(flags)} of {len(flags)}"


def screened_solves(batches):
    """The summed lane-iterations of the batches; the outcomes of the
    Cholesky screens of their step lengths, one list per `sdp._definite`
    call in call order; and how many matrices took the jitter ladder and
    how many the eigendecomposition of `sdp._inv_factor`."""
    calls, taken = [], {"_jittered_factor": 0, "_pseudo_factor": 0}
    real = {name: getattr(sdp, name) for name in ("_definite", *taken)}

    def definite(mats):
        flags = real["_definite"](mats)
        calls.append(flags.tolist())
        return flags

    def counted(name):
        def factor(one):
            taken[name] += 1
            return real[name](one)
        return factor

    sdp._definite = definite
    for name in taken:
        setattr(sdp, name, counted(name))
    try:
        iterations = sum(sol.iterations for batch in batches for sol in sdp.solve_batch(batch))
    finally:
        for name, func in real.items():
            setattr(sdp, name, func)
    return iterations, calls, tuple(taken.values())


def grp_round_row(repeats: int) -> None:
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    z = 0.5 * (algorithms.multicast_upper_bound(ch, p)[1] + algorithms.secrecy_covariance(ch, p))
    score = algorithms._masked_alpha_scores(ch, p, 0.0, None)
    assert len(sdp.grp_draw(z, 1000, np.random.default_rng(0))) == 1000
    calls = 20

    def run():
        rng = np.random.default_rng(0)
        for _ in range(calls):
            sdp.grp_round(z, 1000, score, rng)
    us = 1e6 * best_of(repeats, run) / calls
    print(f"grp_round N=10 us per 1000 candidates {us:9.1f}")


def cct_point_rows(repeats: int) -> None:
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    eav_snr = algorithms._eavesdropper_snr(algorithms._Lifted(ch, p))
    r_up = algorithms.multicast_upper_bound(ch, p)[0]
    for label, r_m in (("0", 0.0), ("r_up/2", 0.5 * r_up)):
        point = []

        def run(r_m=r_m):
            point[:] = [algorithms.algorithm1_cct(ch, p, r_m, 80, 1000,
                                                  np.random.default_rng(0), eav_snr)]
        ms = 1e3 * best_of(repeats, run)
        print(f"algorithm1_cct N=10 r_m={label:<7s} ms per point {ms:9.1f}"
              f"   ({point[0].diagnostics['n_solves']} lanes)")


def cct_region_row(repeats: int) -> None:
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    params = algorithms.SweepParams(t_alpha=80, t_g=1000)
    region = []

    def run():
        region[:] = [algorithms.sweep_region(ch, p, "cct", 20, params, seed=0)]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        one_cpu = 1e3 * best_of(repeats, run)
    finally:
        os.sched_setaffinity(0, cpus)
    all_cpus = 1e3 * best_of(repeats, run)
    diags = [pt.diagnostics for pt in region[0].points]
    lanes = sum(d["n_solves"] for d in diags) - 1      # less the eavesdropper solve
    print(f"cct region N=10 grid 20 ms per region {one_cpu:9.1f} on 1 CPU, {all_cpus:9.1f} on"
          f" {len(cpus)}   ({lanes} lanes, {sum(d['n_iterations'] for d in diags)}"
          " lane-iterations)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    repeats = parser.parse_args().repeats
    print(f"CPUs {len(os.sched_getaffinity(0))} (a region runs one group of points on each)")
    print("lanes per stack " + ", ".join(f"n={n} {sdp._stack_width(n)}" for n in STACK_SIZES))
    lane_rows(repeats)
    region_batch_row(repeats)
    one_lane_rows(repeats)
    grp_round_row(repeats)
    cct_point_rows(repeats)
    cct_region_row(repeats)


if __name__ == "__main__":
    main()
