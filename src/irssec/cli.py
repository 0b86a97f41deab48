"""Command line front end: reproducible region sweeps and analysis reports.

Exit codes: 0 success, 1 configuration/usage error, 2 scenario certified
infeasible (no reflection pattern can give the confidential user the SNR
lead), 3 solver failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import algorithms, analysis, model
from .channel import ScenarioError, generate_channels, load_scenario
from .sdp import SdpSolverError, substream

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_SOLVER = 3

CSV_HEADER = "r_m_target,r_c_achieved,alpha_w,beta_w,upper_bound,feasible,scheme,seed"


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message, EXIT_CONFIG)


@dataclass
class RunSpec:
    scenario_path: str
    scheme: str = "cct"
    grid_points: int = 20
    t_alpha: int = 80
    t_lambda: int = 80
    t_g: int = 1000
    seed: int = 0
    output_path: str = "region.csv"
    pareto_filter: bool = True

    def __post_init__(self):
        for name, least in {**algorithms._LEAST, "seed": 0}.items():
            if getattr(self, name) < least:
                flag = "--" + ("grid" if name == "grid_points" else name.replace("_", "-"))
                raise CliError(f"{flag} must be at least {least}")
        if self.scheme not in algorithms.SCHEMES:
            raise CliError(f"unknown scheme {self.scheme!r}; pick from {algorithms.SCHEMES}")

    def params(self) -> algorithms.SweepParams:
        return algorithms.SweepParams(t_alpha=self.t_alpha, t_lambda=self.t_lambda,
                                      t_g=self.t_g, pareto_filter=self.pareto_filter)


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _region_rows(region: algorithms.RegionBoundary, p: float, seed: int,
                 extra: str = "") -> list:
    rows = []
    for pt in sorted(region.points, key=lambda q: q.r_m_target):
        rows.append(",".join([
            _fmt(pt.r_m_target), _fmt(pt.r_c_achieved), _fmt(pt.alpha),
            _fmt(p - pt.alpha), _fmt(pt.upper_bound),
            "true" if pt.feasible else "false", pt.scheme, str(seed),
        ]) + extra)
    return rows


def _phases_entry(region: algorithms.RegionBoundary) -> list:
    out = []
    for pt in sorted(region.points, key=lambda q: q.r_m_target):
        phases = None
        if pt.phase_vector is not None:
            phases = np.angle(pt.phase_vector).tolist()
        out.append({"r_m_target": pt.r_m_target, "alpha_w": pt.alpha,
                    "phases_rad": phases})
    return out


def _region_channels(spec: RunSpec):
    """(config, ch), rejecting infeasible scenarios and oracle grids too large."""
    config = load_scenario(spec.scenario_path)
    ch = generate_channels(config)
    if model.feasibility_check(ch) is model.Feasibility.INFEASIBLE:
        k = model.infeasibility_witness(ch)
        raise CliError(
            f"scenario is infeasible: eavesdropper user {k + 1}'s direct channel "
            f"alone dominates user 1's best fully-aligned gain, so no reflection "
            f"pattern yields a positive secrecy lead", EXIT_INFEASIBLE)
    if spec.scheme == "oracle":
        try:
            analysis.check_oracle_grid(ch.n, *algorithms.ORACLE_GRID)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    return config, ch


def cmd_region(spec: RunSpec) -> int:
    """Sweep one scheme over the multicast-target grid and write the region CSV
    plus the companion phases JSON."""
    config, ch = _region_channels(spec)
    p = config.total_power_w
    region = algorithms.sweep_region(ch, p, spec.scheme, spec.grid_points,
                                     spec.params(), seed=spec.seed)
    rows = [CSV_HEADER] + _region_rows(region, p, spec.seed)
    with open(spec.output_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    companion = {"scheme": spec.scheme, "seed": spec.seed,
                 "points": _phases_entry(region)}
    with open(spec.output_path + ".phases.json", "w") as fh:
        json.dump(companion, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _load_v_source(v_source: str, ch, p: float, spec: RunSpec):
    """A phase file (JSON array of N radians) or a scheme name to optimize."""
    schemes = ("cct", "wscm", "random-irs")
    if v_source in schemes:
        rng = substream(spec.seed, 0)
        if v_source == "cct":
            pt = algorithms.algorithm1_cct(ch, p, 0.0, spec.t_alpha, spec.t_g, rng)
        elif v_source == "wscm":
            pt = algorithms.algorithm2_wscm(ch, p, 0.0, spec.t_lambda, spec.t_g, rng)
        else:
            pt = algorithms.baseline_random_irs(ch, p, 0.0, rng)
        if pt.phase_vector is None:
            raise CliError("optimization produced no usable pattern", EXIT_SOLVER)
        return pt.phase_vector
    try:
        with open(v_source) as fh:
            phases = json.load(fh)
        arr = np.asarray(phases, dtype=float).reshape(-1)
    except (OSError, TypeError, ValueError) as exc:
        raise CliError(f"cannot read phase file {v_source!r}: {exc}") from exc
    if arr.size != ch.n:
        raise CliError(f"phase file holds {arr.size} entries, scenario needs {ch.n}")
    if not np.isfinite(arr).all():
        raise CliError(f"phase file {v_source!r} holds non-finite radians")
    return np.exp(1j * arr)


def cmd_analyze(spec: RunSpec, v_source: str, alpha: float | None) -> dict:
    """JSON report: feasibility verdict, benefit classification, enhancement
    factors, sweep gap bounds, and complexity estimates."""
    config = load_scenario(spec.scenario_path)
    ch = generate_channels(config)
    p = config.total_power_w
    if alpha is None:
        alpha = p
    if not 0.0 <= alpha <= p:
        raise CliError(f"--alpha must lie in [0, {p}]")

    verdict = model.feasibility_check(ch)
    feas = {"verdict": verdict.value}
    if verdict is model.Feasibility.INFEASIBLE:
        feas["witness_user"] = model.infeasibility_witness(ch) + 1

    classification = None
    e_factors = None
    eta = None
    if verdict is not model.Feasibility.INFEASIBLE and ch.k == 2:
        v = _load_v_source(v_source, ch, p, spec)
        try:
            report = analysis.enhancement_analysis(ch, v, alpha, p=p)
            classification = report.classification.value
            e_factors = report.e_factors
            eta = report.eta
        except ValueError:
            classification = None  # surface-free secrecy precondition violated

    tr_t1 = float(np.trace(model.build_tk(ch.m[0], ch.g, ch.h[0])).real)
    gaps = analysis.gap_bound_report(p, ch.n, tr_t1, float(ch.sigma2[0]), spec.t_alpha)
    a1, a2 = analysis.complexity_estimate(ch.n, ch.k, spec.t_alpha, spec.t_lambda, spec.t_g)
    return {
        "feasibility": feas,
        "classification": classification,
        "e_factors": e_factors,
        "eta": eta,
        "gap_bounds": {
            "tight_bits": gaps.bound_tight,
            "general_bits": gaps.bound_general,
            "worst_case_bits": gaps.bound_worst_case,
            "delta_c_bits": gaps.delta_c,
            "t_alpha": gaps.t_alpha,
        },
        "complexity": {"cct_flops": a1, "wscm_flops": a2},
    }


def cmd_sweep_power(spec: RunSpec, powers: list) -> int:
    """One region per transmit power, tagged by a power column."""
    if not powers:
        raise CliError("--powers requires at least one value")
    if not all(np.isfinite(p) and p > 0 for p in powers):
        raise CliError("powers must be finite and positive")
    _, ch = _region_channels(spec)
    rows = [CSV_HEADER + ",power_w"]
    companions = []
    for p in powers:
        region = algorithms.sweep_region(ch, p, spec.scheme, spec.grid_points,
                                         spec.params(), seed=spec.seed)
        rows += _region_rows(region, p, spec.seed, extra="," + _fmt(p))
        companions.append({"power_w": p, "points": _phases_entry(region)})
    with open(spec.output_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(spec.output_path + ".phases.json", "w") as fh:
        json.dump({"scheme": spec.scheme, "seed": spec.seed, "powers": companions},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="irssec",
                     description="Secrecy/multicast rate-region characterization "
                                 "for an IRS-assisted integrated-service downlink")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, scheme_default="cct"):
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument("--scheme", default=scheme_default, help="one of %s" % (algorithms.SCHEMES,))
        sp.add_argument("--grid", type=int, default=20, help="multicast-target grid points")
        sp.add_argument("--t-alpha", type=int, default=80, help="confidential-power samples")
        sp.add_argument("--t-lambda", type=int, default=80, help="covariance-blend samples")
        sp.add_argument("--t-g", type=int, default=1000, help="randomization candidates")
        sp.add_argument("--seed", type=int, default=0, help="randomization seed")
        sp.add_argument("--out", default=None, help="output file path")
        sp.add_argument("--no-pareto-filter", action="store_true",
                        help="emit raw sweep points without monotonization")

    sp = sub.add_parser("region", help="sweep one scheme and write the region CSV")
    common(sp)

    sp = sub.add_parser("analyze", help="feasibility, benefit classification, bounds")
    common(sp)
    sp.add_argument("--v-source", default="cct",
                    help="phase file (JSON radians) or scheme name to optimize first")
    sp.add_argument("--alpha", type=float, default=None,
                    help="confidential power for the enhancement factors (default: P)")

    sp = sub.add_parser("sweep-power", help="one region per transmit power")
    common(sp)
    sp.add_argument("--powers", required=True,
                    help="comma-separated transmit powers in watts, e.g. 0.1,1,10")
    return parser


def _spec_from_args(args, default_out: str) -> RunSpec:
    return RunSpec(
        scenario_path=args.scenario,
        scheme=args.scheme,
        grid_points=args.grid,
        t_alpha=args.t_alpha,
        t_lambda=args.t_lambda,
        t_g=args.t_g,
        seed=args.seed,
        output_path=args.out or default_out,
        pareto_filter=not args.no_pareto_filter,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "region":
            return cmd_region(_spec_from_args(args, "region.csv"))
        if args.command == "analyze":
            spec = _spec_from_args(args, "")
            report = cmd_analyze(spec, args.v_source, args.alpha)
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            if spec.output_path:
                with open(spec.output_path, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return EXIT_OK
        if args.command == "sweep-power":
            try:
                powers = [float(tok) for tok in args.powers.split(",") if tok.strip()]
            except ValueError as exc:
                raise CliError(f"bad --powers value: {exc}") from exc
            return cmd_sweep_power(_spec_from_args(args, "sweep_power.csv"), powers)
        raise CliError(f"unknown command {args.command!r}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SdpSolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
