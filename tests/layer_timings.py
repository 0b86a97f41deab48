"""Per-layer timings that the benchmark does not report, on fixed seeds.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/layer_timings.py [--repeats R]

Prints the CPUs the process may run on and the lanes per `solve_batch` stack
at n in {11, 31, 61, 101}, then seven groups of figures, each timing the best of
R repeats. Only a cct point or region spreads its work over processes (one
group of units of lanes per CPU), so every other figure is a time on one CPU:

* ms per lane-iteration at n = 11 for L in {1, 20, 80} lanes. The programs
  are the Charnes-Cooper programs of 80 uniform confidential powers over
  [0, P] without a floor on `two_user_scenario(d1=20, n_y=5, n_z=2, seed=0)`,
  solved L lanes at a time by `solve_batch`, and the time is divided by the
  summed iterations of the lanes.
* ms per lane-iteration on every floored Charnes-Cooper lane of a cct region
  on the same scenario (grid 20, T_alpha 80), none shared, as one batch
  (`sdp_forms.floored_region_batch`); with the share of step lengths at
  n = 11 that the Cholesky screen settles without eigenvalues, and the
  matrices whose inverse Cholesky factor took the jitter ladder and the
  eigendecomposition of `sdp._inv_factor`.
* one-lane ms per iteration at N in {30, 60, 100}: the multicast-bound and
  secrecy-covariance programs of `multi_user_scenario(n_users=4)` at
  scenario seeds 0 and 1, with the share of predictor and of corrector step
  lengths that the screen settles, and whether each seed's multicast bound
  took its closed form (`algorithms._aligned`), which solves nothing.
* us per covariance of `algorithms._best_of_draws`, the Gaussian
  randomization and scoring that both algorithms round with, each with the
  minor page faults per covariance (`resource.getrusage`), which move with
  the heap layout:
  - 1000 candidates at one floor (r_m = 0), drawn from the even blend of the
    multicast- and secrecy-optimal covariances of the two-user scenario;
  - one wscm blend: the same 1000 candidates scored at 20 floors over
    [0, the multicast upper bound], as `algorithms._wscm_points` runs 80
    blends in one call;
  - one cct lane: the certified grid lanes (T_alpha 80) of the floor at half
    the multicast upper bound, capped at their powers, each rounded in its
    own call on its `algorithms._lane_rng`, as `algorithms._cct_work` rounds
    a lane; lanes whose covariance is rank one take the one-pattern shortcut
    and draw nothing.
* ms per `algorithm1_cct` point on the same scenario (N = 10, T_alpha 80,
  T_g 1000) at r_m = 0 and at half the multicast upper bound, on every CPU
  (a floored point's units fan out); the floored point's time includes its
  M_eav, which `sweep_region` finds once per region. These rows and the cct
  region's say whether the multicast bound and M_eav took their closed
  forms or were solved.
* ms per cct region on the same scenario (grid 20, T_alpha 80, T_g 1000),
  with the process pinned to one CPU and on every CPU; the region's anchors
  (`algorithms._cct_units`), its points' Charnes-Cooper lanes, taken from
  an anchor (shared) or solved for the point (own), from their diagnostics;
  and how far the sharing decisions stand from the rule's 1e-12 slack: over
  the (anchor, higher floor) pairs that `algorithms._solve_units` shares, the
  least relative margin (P - alpha c) s / (c - 1) - 1 of `_Lifted.supports`
  at the anchor's `_Lifted.least_snr` s, and over those it refuses, the
  largest (the closest miss), from one more solve of its units in process.
  Then, from one more run on one CPU and on every CPU, one line per call of
  `algorithms._cct_work`, one per group of units (the first in this process,
  each other in a forked child): its units, the lanes it solved and their
  lane-iterations, its full draws (`sdp._grp_draw` calls that draw normals)
  and its busy time, from its start to its return; then the time from the
  region's start to the first group's start, and from the last group's end
  to the region's return.
* ms per wscm region on the same scenario (grid 20, T_lambda 80, T_g 1000),
  pinned to one CPU and on every CPU, with the mean ms per region in its
  three parts: the multicast bound, the secrecy covariance and the blend
  loop (`algorithms._wscm_points`), and whether the multicast bound took its
  closed form. A wscm region runs in one process, so the two rows differ
  only by BLAS threads and the machine's load.

The file name does not match test_*.py, so pytest does not collect it.
"""
from __future__ import annotations

import argparse
import os
import resource
import tempfile
import time

import numpy as np

from irssec import algorithms, sdp
from irssec.channel import generate_channels, multi_user_scenario, two_user_scenario

from sdp_forms import floored_region_batch, lanes_of, recorded_batches

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
    batch = ctx.cct_batch([0.0] * 80, [p * t / 79 for t in range(80)])
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
    batches = [floored_region_batch(20)]
    iterations, calls, (jittered, eigh) = screened_solves(batches)

    def run():
        for batch in batches:
            sdp.solve_batch(batch)
    ms = 1e3 * best_of(repeats, run) / iterations
    print(f"n=11   cct region floored lanes ms per lane-iteration {ms:8.4f}"
          f"   ({sum(len(batch.bounds) for batch in batches)} lanes in {len(batches)} batch,"
          f" {iterations} lane-iterations; screen settles {share(sum(calls, []))} lengths;"
          f" inverse factors by jitter {jittered}, by eigendecomposition {eigh})")


def one_lane_rows(repeats: int) -> None:
    for n_elements, (n_y, n_z) in SURFACES.items():
        batches, forms = [], []
        for seed in (0, 1):
            config = multi_user_scenario(n_users=4, n_y=n_y, n_z=n_z, seed=seed)
            ch = generate_channels(config)
            batches += recorded_batches(lambda: (algorithms.multicast_upper_bound(ch, P),
                                                 algorithms.secrecy_covariance(ch, P)))
            forms.append(f"seed {seed} {closed_forms(ch, P)[0]}")
        iterations, calls, _ = screened_solves(batches)
        # one lane screens its predictor lengths in one call, then its corrector ones
        predictor, corrector = sum(calls[0::2], []), sum(calls[1::2], [])

        def run():
            for batch in batches:
                sdp.solve_batch(batch)
        ms = 1e3 * best_of(repeats, run) / iterations
        print(f"n={n_elements + 1:<4d} L=1   ms per iteration      {ms:8.4f}"
              f"   ({len(batches)} programs, {iterations} iterations; screen settles"
              f" {share(predictor)} predictor and {share(corrector)} corrector lengths;"
              f" {', '.join(forms)})")


def closed_forms(ch, p) -> list:
    """How the multicast bound and M_eav of a channel are found: each either
    "... closed form" (`algorithms._aligned` is exact, nothing is solved) or
    "... solved"."""
    ctx, users = algorithms._Lifted(ch, p), np.arange(ch.k)
    programs = (("multicast bound", users, ctx.p / ctx.sigma2),
                ("M_eav", users[1:], 1.0 / ctx.sigma2[1:]))
    return [f"{name} {'solved' if algorithms._aligned(ctx, u, w)[1] is None else 'closed form'}"
            for name, u, w in programs]


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


def rounding_row(repeats: int, label: str, each: str, count: int, run) -> None:
    """The row of `run`, its `algorithms._best_of_draws` calls over `count`
    covariances, per covariance (each)."""
    run()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    us = 1e6 * best_of(repeats, run) / count
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / (repeats * count)
    print(f"{label} us per {each} {us:9.1f}   ({faults:.1f} minor page faults per {each})")


def rounding_rows(repeats: int) -> None:
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    r_up, z_m = algorithms.multicast_upper_bound(ch, p)
    z = 0.5 * (z_m + algorithms.secrecy_covariance(ch, p))
    assert len(sdp.grp_draw(z, 1000, np.random.default_rng(0))) == 1000     # not rank one

    def blends(floors):
        return lambda: algorithms._best_of_draws(ch, p, floors, [z] * 20, [None] * 20, 1000,
                                                 np.random.default_rng(0))
    rounding_row(repeats, "best of draws N=10 1 floor", "1000 candidates", 20, blends([0.0]))
    rounding_row(repeats, "wscm blend N=10 20 floors", "blend", 20,
                 blends(np.linspace(0.0, r_up, 20)))
    ctx, r_m = algorithms._Lifted(ch, p), 0.5 * r_up
    powers = [p * t / 79 for t in range(80)]
    keep = ctx.supports(r_m, powers, algorithms._eavesdropper_snr(ctx)[0])
    grid = [alpha for alpha, ok in zip(powers, keep) if ok]
    lanes = algorithms._solve_lanes(ctx, [r_m] * len(grid), grid)
    certified = [(j, alpha, value[1] / value[2]) for j, (alpha, *_, value) in enumerate(lanes)
                 if isinstance(value, tuple)]
    rank_one = sum(len(sdp.grp_draw(z, 2, np.random.default_rng(0))) == 1 for *_, z in certified)

    def lane_draws():
        floor_rng = np.random.default_rng(0)
        for j, alpha, z in certified:
            algorithms._best_of_draws(ch, p, [r_m], [z], [alpha], 1000,
                                      lambda: algorithms._lane_rng(floor_rng, j))
    rounding_row(repeats, f"cct lanes N=10 r_m=r_up/2 ({len(certified)}, {rank_one} rank one)",
                 "lane", len(certified), lane_draws)


def cct_point_rows(repeats: int) -> None:
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    r_up = algorithms.multicast_upper_bound(ch, p)[0]
    for label, r_m in (("0", 0.0), ("r_up/2", 0.5 * r_up)):
        point = []

        def run(r_m=r_m):
            point[:] = [algorithms.algorithm1_cct(ch, p, r_m, 80, 1000,
                                                  np.random.default_rng(0))]
        ms = 1e3 * best_of(repeats, run)
        print(f"algorithm1_cct N=10 r_m={label:<7s} ms per point {ms:9.1f}"
              f"   ({point[0].diagnostics['n_solves']} solves; {', '.join(closed_forms(ch, p))})")


WORK = {"log": None, "lanes": 0, "iterations": 0, "draws": 0}   # counts of one process's call
REAL = {name: getattr(algorithms, name) for name in ("_cct_work", "_solve_lanes", "_grp_draw")}


def counted_solve_lanes(ctx, floors, alphas):
    lanes = REAL["_solve_lanes"](ctx, floors, alphas)
    WORK["lanes"] += len(lanes)
    WORK["iterations"] += sum(iterations for _, _, iterations, _ in lanes)
    return lanes


def counted_grp_draw(z, candidates, rng, work):
    batch = REAL["_grp_draw"](z, candidates, rng, work)
    WORK["draws"] += len(batch) > 1
    return batch


def timed_cct_work(ctx, ch, floors, alphas, units, *args):
    """`algorithms._cct_work`, appending to WORK["log"] its process, units,
    lanes solved, lane-iterations, full draws, and its start and end on the
    `time.perf_counter` clock, which forked children share. A forked child
    inherits it with the patched module."""
    start = time.perf_counter()
    WORK.update(lanes=0, iterations=0, draws=0)
    records = REAL["_cct_work"](ctx, ch, floors, alphas, units, *args)
    with open(WORK["log"], "a") as fh:
        fh.write(f"{os.getpid()} {len(units)} {WORK['lanes']} {WORK['iterations']} "
                 f"{WORK['draws']} {start!r} {time.perf_counter()!r}\n")
    return records


def worker_rows(run) -> tuple:
    """One run with `timed_cct_work` in place of `algorithms._cct_work`: its
    log lines, one per call, as lists of words, and the run's start and end."""
    fakes = {"_cct_work": timed_cct_work, "_solve_lanes": counted_solve_lanes,
             "_grp_draw": counted_grp_draw}
    with tempfile.TemporaryDirectory() as tmp:
        WORK["log"] = os.path.join(tmp, "work.log")
        for name, fake in fakes.items():
            setattr(algorithms, name, fake)
        try:
            start = time.perf_counter()
            run()
            end = time.perf_counter()
        finally:
            for name in fakes:
                setattr(algorithms, name, REAL[name])
        with open(WORK["log"]) as fh:
            return [line.split() for line in fh], start, end


def sharing_margins(ctx, floors, alphas, units) -> tuple:
    """(least margin over the shared pairs, largest over the refused) of the
    region's units, as the module docstring defines them; NaN for none."""
    solved, by = algorithms._solve_units(ctx, floors, alphas, units)
    margins = {True: [], False: []}
    for unit in units:
        value = solved[unit[0]][3]
        if len(unit) < 2 or not isinstance(value, tuple):
            continue
        s = float(ctx.least_snr([value[1]])[0])
        for i, j in unit[1:]:
            c = 2.0 ** floors[i]
            margins[by[i, j] == unit[0]].append((ctx.p - alphas[i][j] * c) * s / (c - 1.0) - 1.0)
    return min(margins[True], default=np.nan), max(margins[False], default=np.nan)


def cct_region_row(repeats: int) -> None:
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    params = algorithms.SweepParams(t_alpha=80, t_g=1000)
    region, units, real_units = [], [], algorithms._cct_units

    def recording_units(*args):
        units[:] = [real_units(*args), args]
        return units[0]

    def run():
        region[:] = [algorithms.sweep_region(ch, p, "cct", 20, params, seed=0)]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        one_cpu = 1e3 * best_of(repeats, run)
        one_work = worker_rows(run)
    finally:
        os.sched_setaffinity(0, cpus)
    all_cpus = 1e3 * best_of(repeats, run)
    all_work = worker_rows(run)
    algorithms._cct_units = recording_units
    try:
        run()
    finally:
        algorithms._cct_units = real_units
    (alphas, unit_list, _), (ctx, _, floors, *_) = units
    diags = [pt.diagnostics for pt in region[0].points]
    lanes = sum(d["n_solves"] for d in diags) - algorithms._eavesdropper_snr(ctx)[1]
    shared = sum(d["n_shared"] for d in diags)
    print(f"cct region N=10 grid 20 ms per region {one_cpu:9.1f} on 1 CPU, {all_cpus:9.1f} on"
          f" {len(cpus)}   ({len(units[0][2])} anchors in {len(units[0][1])} units; {lanes} lanes"
          f" of its points, {shared} shared and {lanes - shared} own;"
          f" {', '.join(closed_forms(ch, p))})")
    least, closest = sharing_margins(ctx, floors, alphas, unit_list)
    print(f"  sharing rule margins: least shared {least:+.3g}, closest refused {closest:+.3g}"
          f" (relative; the rule's slack is 1e-12)")
    for on, (rows, start, end) in (("1 CPU", one_work), (f"{len(cpus)} CPUs", all_work)):
        for pid, n_units, solved, iterations, draws, begun, done in rows:
            whose = "this process" if int(pid) == os.getpid() else f"child {pid}"
            print(f"  on {on}: {whose} {n_units} units, {solved} lanes solved in"
                  f" {iterations} lane-iterations, {draws} full draws,"
                  f" busy {1e3 * (float(done) - float(begun)):.1f} ms")
        first = min(float(row[5]) for row in rows)
        last = max(float(row[6]) for row in rows)
        print(f"  on {on}: {1e3 * (first - start):.1f} ms before the first group starts,"
              f" {1e3 * (end - last):.1f} ms after the last one ends")


def wscm_region_row(repeats: int) -> None:
    config = two_user_scenario(d1=20.0, n_y=5, n_z=2, seed=0)
    ch, p = generate_channels(config), config.total_power_w
    params = algorithms.SweepParams(t_lambda=80, t_g=1000)
    real = {name: getattr(algorithms, name)
            for name in ("multicast_upper_bound", "secrecy_covariance", "_wscm_points")}
    spent = dict.fromkeys(real, 0.0)

    def timed(name):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return real[name](*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start
        return call

    def run():
        algorithms.sweep_region(ch, p, "wscm", 20, params, seed=0)

    def row(on):
        spent.update(dict.fromkeys(spent, 0.0))
        os.sched_setaffinity(0, on)
        ms = 1e3 * best_of(repeats, run)
        return (f"{ms:9.1f} on {len(on)} CPU{'s' * (len(on) > 1)}",
                "/".join(f"{1e3 * t / repeats:.1f}" for t in spent.values()))

    cpus = os.sched_getaffinity(0)
    for name in real:
        setattr(algorithms, name, timed(name))
    try:
        (one, one_spent), (every, every_spent) = row({min(cpus)}), row(cpus)
    finally:
        os.sched_setaffinity(0, cpus)
        for name, func in real.items():
            setattr(algorithms, name, func)
    print(f"wscm region N=10 grid 20 ms per region {one}, {every}   (mean ms per region in the"
          f" multicast bound/secrecy covariance/blend loop: {one_spent} and {every_spent};"
          f" {closed_forms(ch, p)[0]})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    repeats = parser.parse_args().repeats
    print(f"CPUs {len(os.sched_getaffinity(0))} (a cct region runs one group of units on each)")
    print("lanes per stack " + ", ".join(f"n={n} {sdp._stack_width(n)}" for n in STACK_SIZES))
    lane_rows(repeats)
    region_batch_row(repeats)
    one_lane_rows(repeats)
    rounding_rows(repeats)
    cct_point_rows(repeats)
    cct_region_row(repeats)
    wscm_region_row(repeats)


if __name__ == "__main__":
    main()
