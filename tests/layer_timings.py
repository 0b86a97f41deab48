"""Per-layer timings that the benchmark does not report, on fixed seeds.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/layer_timings.py [--repeats R]

Prints three groups of figures, each the best of R timed repeats:

* ms per lane-iteration at n = 11 for L in {1, 20, 80} lanes. The programs
  are the 80 Charnes-Cooper programs of the r_m = 0 point of
  `two_user_scenario(d1=20, n_y=5, n_z=2, seed=0)`, solved L at a time by
  `solve_many` (L = 1 is `solve`), and the time is divided by the summed
  iterations of the lanes.
* one-lane ms per iteration at N in {30, 60, 100}: the multicast-bound and
  secrecy-covariance programs of `multi_user_scenario(n_users=4)` at
  scenario seeds 0 and 1.
* `grp_round` us per 1000 candidates at N = 10, drawn from the even blend of
  the multicast- and secrecy-optimal covariances of the two-user scenario.

The file name does not match test_*.py, so pytest does not collect it.
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from irssec import algorithms, sdp
from irssec.channel import generate_channels, multi_user_scenario, two_user_scenario

P = 1.0
LANES = (1, 20, 80)
SURFACES = {30: (5, 6), 60: (10, 6), 100: (10, 10)}       # N: (n_y, n_z)


def recorded_programs(run) -> list:
    """Every program that `run` hands to algorithms.solve or solve_many."""
    seen = []

    def solve(problem, config=None):
        seen.append(problem)
        return sdp.solve(problem, config)

    def solve_many(problems, config=None):
        seen.extend(problems)
        return sdp.solve_many(problems, config)

    hooks = {"solve": solve, "solve_many": solve_many}
    saved = {name: getattr(algorithms, name) for name in hooks}
    try:
        for name, hook in hooks.items():
            setattr(algorithms, name, hook)
        run()
    finally:
        for name, fn in saved.items():
            setattr(algorithms, name, fn)
    return seen


def best_of(repeats: int, run) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def lane_rows(repeats: int) -> None:
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch = generate_channels(config)
    progs = recorded_programs(lambda: algorithms.algorithm1_cct(
        ch, config.total_power_w, 0.0, t_alpha=80, t_g=20, rng=np.random.default_rng(0)))
    iterations = sum(sdp.solve(prog).iterations for prog in progs)
    for lanes in LANES:
        if lanes == 1:
            def run():
                for prog in progs:
                    sdp.solve(prog)
        else:
            def run(lanes=lanes):
                for at in range(0, len(progs), lanes):
                    sdp.solve_many(progs[at:at + lanes])
        ms = 1e3 * best_of(repeats, run) / iterations
        print(f"n=11   L={lanes:<3d} ms per lane-iteration {ms:8.4f}"
              f"   ({len(progs)} programs, {iterations} lane-iterations)")


def one_lane_rows(repeats: int) -> None:
    for n_elements, (n_y, n_z) in SURFACES.items():
        progs = []
        for seed in (0, 1):
            config = multi_user_scenario(n_users=4, n_y=n_y, n_z=n_z, seed=seed)
            ch = generate_channels(config)
            progs += recorded_programs(lambda: (algorithms.multicast_upper_bound(ch, P),
                                                algorithms.secrecy_covariance(ch, P)))
        iterations = sum(sdp.solve(prog).iterations for prog in progs)

        def run():
            for prog in progs:
                sdp.solve(prog)
        ms = 1e3 * best_of(repeats, run) / iterations
        print(f"n={n_elements + 1:<4d} L=1   ms per iteration      {ms:8.4f}"
              f"   ({len(progs)} programs, {iterations} iterations)")


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    repeats = parser.parse_args().repeats
    lane_rows(repeats)
    one_lane_rows(repeats)
    grp_round_row(repeats)


if __name__ == "__main__":
    main()
