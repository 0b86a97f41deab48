"""Output checks, run after the timed part of a workload.

Each check returns a list of problems; an empty list means the output is
correct. Rates are recomputed with the program's public model functions from
the channel the benchmark drew itself.
"""
from __future__ import annotations

import math

import numpy as np

CSV_HEADER = "r_m_target,r_c_achieved,alpha_w,beta_w,upper_bound,feasible,scheme,seed"
RATE_TOL = 1e-6        # reported secrecy rate against the recomputed one
FLOOR_TOL = 1e-9       # multicast rate against the row's target
MATRIX_TOL = 1e-6      # Hermitian, PSD and unit diagonal of Z


def reference_rate(ch, p: float) -> float:
    """A yardstick for how much secrecy a channel allows, independent of the
    program: user 1's rate with every reflected path phase-aligned to its
    direct path, against the strongest eavesdropper's direct path alone, in
    bits. Achieved rates divided by it vary far less from one fading block to
    the next than the rates themselves."""
    aligned = (np.sum(np.abs(ch.m[0]) * np.abs(ch.g)) + abs(ch.h[0])) ** 2
    snr_eve = max(abs(ch.h[k]) ** 2 / ch.sigma2[k] for k in range(1, ch.k))
    return math.log2((1.0 + p * aligned / ch.sigma2[0]) / (1.0 + p * snr_eve))


def check_region(csv_text: str, phases: dict, ch, p: float, grid: int, model):
    """Check one ``irssec region`` CSV and its ``.phases.json`` companion.

    Every feasible row needs unit-modulus phases, alpha + beta <= P, a
    secrecy rate that the model reproduces, and a multicast rate that meets
    the row's target. Returns (problems, the secrecy rate of every row, 0
    for an infeasible one).
    """
    problems, rates = [], []
    lines = csv_text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header missing or changed"], rates
    rows = [line.split(",") for line in lines[1:]]
    points = phases.get("points") if isinstance(phases, dict) else None
    if len(rows) != grid:
        problems.append(f"{len(rows)} CSV rows, expected {grid}")
    if not isinstance(points, list) or len(points) != len(rows):
        return problems + ["phases JSON does not match the CSV rows"], rates
    for i, (row, rec) in enumerate(zip(rows, points)):
        where = f"row {i + 1}"
        try:
            r_m, r_c, alpha_w, beta_w = (float(x) for x in row[:4])
            feasible = row[5]
        except (ValueError, IndexError):
            problems.append(f"{where}: unparsable")
            continue
        if feasible == "false":
            rates.append(0.0)
            continue
        if feasible != "true":
            problems.append(f"{where}: feasible flag {feasible!r}")
            continue
        rad = rec.get("phases_rad")
        if rad is None or len(rad) != ch.n or not all(math.isfinite(x) for x in rad):
            problems.append(f"{where}: missing or malformed phases")
            continue
        v = np.exp(1j * np.asarray(rad, dtype=float))
        if np.abs(np.abs(v) - 1.0).max() > 1e-9:
            problems.append(f"{where}: phases not unit modulus")
        alpha, target = float(rec["alpha_w"]), float(rec["r_m_target"])
        if abs(alpha - alpha_w) > RATE_TOL * max(1.0, p) or abs(target - r_m) > RATE_TOL:
            problems.append(f"{where}: CSV and phases JSON disagree")
        if min(alpha_w, beta_w) < 0 or alpha_w + beta_w > p * (1 + 1e-9):
            problems.append(f"{where}: alpha + beta = {alpha_w + beta_w} exceeds P = {p}")
        got = model.secrecy_rate(ch, v, alpha)
        if not abs(got - r_c) <= RATE_TOL:
            problems.append(f"{where}: secrecy rate {r_c} but model gives {got}")
        r_mc = model.multicast_rate(ch, v, model.PowerSplit(alpha, max(p - alpha, 0.0)))
        if not r_mc >= target - FLOOR_TOL:
            problems.append(f"{where}: multicast rate {r_mc} below target {target}")
        rates.append(r_c)
    return problems, rates


def check_secrecy(z, v, score: float, ch, p: float, model):
    """Check one max-secrecy unit: Z Hermitian PSD with unit diagonal, and
    the rounded score equal to the recomputed secrecy rate."""
    problems = []
    z = np.asarray(z, dtype=complex)
    if z.shape != (ch.n + 1, ch.n + 1):
        return [f"Z has shape {z.shape}"]
    if np.abs(z - z.conj().T).max() > MATRIX_TOL:
        problems.append("Z is not Hermitian")
    if np.linalg.eigvalsh(0.5 * (z + z.conj().T)).min() < -MATRIX_TOL:
        problems.append("Z is not PSD")
    if np.abs(np.diag(z) - 1.0).max() > MATRIX_TOL:
        problems.append("Z has no unit diagonal")
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != ch.n or np.abs(np.abs(v) - 1.0).max() > 1e-9:
        problems.append("rounded pattern is not a unit-modulus N-vector")
        return problems
    got = model.secrecy_rate(ch, v, p)
    if not abs(got - score) <= 1e-9 * max(1.0, abs(got)):
        problems.append(f"rounded score {score} but model gives {got}")
    return problems
