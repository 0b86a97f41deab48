"""Workload definitions. Imports nothing from the program.

Every workload has a fixed number of seed-derived units per batch, never
sized from the clock, so one workload seed always gives the same batch and
the same outputs.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

# At most two compute threads: two sweep (or unit) pool threads, one BLAS
# thread each. Unpinned, 2 pool threads x 2 BLAS threads oversubscribe 2 cores.
THREAD_PINS = {"IRSSEC_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The fixed ROADMAP item-1 instance: four users, N = 60, scenario seed 8,
# user 1 confidential. At the seed commit its IPM runs 200 iterations and the
# CCT solve raises. It runs in every secrecy batch and is never skipped,
# re-seeded or cut short.
REPRO_SCENARIO_SEED = 8


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "region" or "secrecy"
    units: int                # seed-derived units per batch (1 in smoke mode)
    scheme: str = ""


# Each layer likely to be optimised does most of the work in one workload and
# little in another (the reasons are recorded in BENCHMARK.json):
#   region-2u-cct   ~440 CCT/margin SDPs of size N+1 = 11 per region: the IPM
#                   bound by per-call and per-iteration overhead
#   secrecy-4u-n60  one SDP of size N+1 = 61 per unit: the IPM bound by the
#                   Schur-complement flops; rounding short-circuits
#   region-2u-wscm  2 SDPs against 1,600 grp_round calls per region: rounding
#                   and scoring, with the same CLI and pool as region-2u-cct
WORKLOADS = {w.name: w for w in (
    Workload("region-2u-cct", "region", units=4, scheme="cct"),
    Workload("secrecy-4u-n60", "secrecy", units=4),
    Workload("region-2u-wscm", "region", units=15, scheme="wscm"),
)}

# Per-region sizes: the CLI defaults, passed explicitly so that a change of
# default does not change the measured work.
REGION_ARGS = ["--grid", "20", "--t-alpha", "80", "--t-lambda", "80", "--t-g", "1000"]
SMOKE_REGION_ARGS = ["--grid", "2", "--t-alpha", "2", "--t-lambda", "2", "--t-g", "8"]
REGION_GRID = {False: 20, True: 2}
SECRECY_CANDIDATES = {False: 500, True: 8}
# Surface sizes (n_y, n_z): the benchmark layouts, or the smallest one in smoke mode.
REGION_SURFACE = {False: (5, 2), True: (2, 1)}
SECRECY_SURFACE = {False: (10, 6), True: (2, 1)}


def derive_seed(seed: int, *key) -> int:
    """A 31-bit seed derived from the workload seed and a key."""
    text = ":".join(str(k) for k in (seed,) + key)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16) & 0x7FFFFFFF
