"""One workload in its own process: set-up, the timed batch, output checks.

Started by run.py with a JSON spec as its only argument; writes a JSON result
to ``spec["out"]``. ``mode`` "setup" stops after set-up, so the parent can
time set-up several times. With ``trace`` set, the batch runs with the timing
wrappers installed and the result carries the per-layer numbers.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@dataclass
class Unit:
    name: str
    ch: object
    p: float
    seed: int                 # CLI --seed, or the rounding stream's seed
    scenario: str = ""        # region: scenario file
    out: str = ""             # region: CSV path


class Runner:
    def __init__(self, spec: dict, irssec):
        self.spec = spec
        self.smoke = bool(spec.get("smoke"))
        self.workload = wl.WORKLOADS[spec["workload"]]
        self.irssec = irssec
        self.tracer = None

    # -- set-up: scenarios, scenario files and channel draws ---------------
    def build_units(self) -> list[Unit]:
        channel = self.irssec.channel
        seed, name = self.spec["seed"], self.workload.name
        n = 1 if self.smoke else self.workload.units
        region = self.workload.kind == "region"
        if region:
            n_y, n_z = wl.REGION_SURFACE[self.smoke]
            layout = functools.partial(channel.two_user_scenario, d1=20.0, n_y=n_y, n_z=n_z)
        else:
            n_y, n_z = wl.SECRECY_SURFACE[self.smoke]
            layout = functools.partial(channel.multi_user_scenario, n_users=4, n_y=n_y, n_z=n_z)
        units = []
        if not region:
            config = layout(seed=wl.REPRO_SCENARIO_SEED)
            units.append(Unit("repro-seed8", channel.generate_channels(config),
                              config.total_power_w, wl.derive_seed(seed, name, "rounding", 0)))
        for draw in itertools.count():
            if len(units) == n + (not region):
                return units
            i = len(units)
            config = layout(seed=wl.derive_seed(seed, name, "scenario", draw))
            path = out = ""
            if region:
                path = os.path.join(self.spec["work"], f"scenario{i}.json")
                out = os.path.join(self.spec["work"], f"region{i}.csv")
                with open(path, "w") as fh:
                    json.dump(channel.scenario_to_dict(config), fh)
                config = channel.load_scenario(path)   # the CLI draws from the file
            ch = channel.generate_channels(config)
            # An eavesdropper whose direct path alone beats user 1's best
            # aligned gain makes secrecy impossible; the CLI rejects such a
            # scenario by design (exit 2), so it is no workload input.
            if checks.reference_rate(ch, config.total_power_w) > 0:
                units.append(Unit(f"{self.workload.kind}{i}", ch, config.total_power_w,
                                  wl.derive_seed(seed, name, "rounding", i), path, out))

    # -- the timed batch ----------------------------------------------------
    def _span(self, i):
        return self.tracer.span("unit", i) if self.tracer else nullcontext()

    def region_unit(self, i: int, unit: Unit):
        args = wl.SMOKE_REGION_ARGS if self.smoke else wl.REGION_ARGS
        argv = ["region", "--scenario", unit.scenario, "--scheme", self.workload.scheme,
                "--seed", str(unit.seed), "--out", unit.out] + args
        start = time.perf_counter()
        try:
            with self._span(i):
                code = self.irssec.cli.main(argv)
            error = None if code == 0 else f"exit code {code}"
        except Exception as exc:      # a raising unit counts as failed
            error = repr(exc)
        return time.perf_counter() - start, error, None

    def secrecy_unit(self, i: int, unit: Unit):
        model, sdp = self.irssec.model, self.irssec.sdp
        p = unit.p

        def score(vbatch):
            return model.secrecy_rate_from_gains(model.effective_gains(unit.ch, vbatch),
                                                 unit.ch.sigma2, p)

        start = time.perf_counter()
        try:
            with self._span(i):
                z = self.irssec.algorithms.secrecy_covariance(unit.ch, p)
                v, sc = sdp.grp_round(z, wl.SECRECY_CANDIDATES[self.smoke], score,
                                      sdp.substream(unit.seed))
            error, out = None, (z, v, float(sc))
        except Exception as exc:      # the item-1 instance raises SdpSolverError here
            error, out = repr(exc), None
        return time.perf_counter() - start, error, out

    def run_batch(self, units):
        if self.workload.kind == "region":
            start = time.perf_counter()
            results = [self.region_unit(i, u) for i, u in enumerate(units)]
            return time.perf_counter() - start, results
        # The item-1 instance and the seed-derived instances run side by side,
        # one part on each of the two unit threads, and each part is timed on
        # its own. The batch time is their sum, so neither part hides behind
        # the other.
        def part(indexed):
            start = time.perf_counter()
            out = [self.secrecy_unit(i, u) for i, u in indexed]
            return time.perf_counter() - start, out

        indexed = list(enumerate(units))
        with ThreadPoolExecutor(2) as pool:
            repro = pool.submit(part, indexed[:1])
            seeded = pool.submit(part, indexed[1:])
            (repro_s, first), (seeded_s, rest) = repro.result(), seeded.result()
        return repro_s + seeded_s, first + rest

    # -- output checks (untimed) ---------------------------------------------
    def check(self, units, results):
        """Returns (per-unit problems, achieved secrecy rates, the same rates
        over each unit's reference rate).

        There is one rate per grid row of a region (0 for an infeasible row)
        or one per secrecy instance. Every row of a unit that failed counts
        as 0, so a unit or a boundary point given up shows as lost quality.
        """
        model = self.irssec.model
        region = self.workload.kind == "region"
        rows = wl.REGION_GRID[self.smoke] if region else 1
        problems, rates, relative = [], [], []
        for unit, (_, error, out) in zip(units, results):
            found, got = [], [0.0] * rows
            if error is None and region:
                found, got = check_region_files(unit, rows, model)
            elif error is None:
                z, v, sc = out
                found = checks.check_secrecy(z, v, sc, unit.ch, unit.p, model)
                got = [max(sc, 0.0)]
            if found:
                got = [0.0] * rows
            problems.append(found)
            rates.extend(got)
            ref = checks.reference_rate(unit.ch, unit.p)
            relative.extend(r / ref if ref > 0 else 0.0 for r in got)
        return problems, rates, relative

    def corrupt_row_caught(self, unit: Unit) -> bool:
        """Smoke self-test: a feasible row with a wrong secrecy rate must fail."""
        with open(unit.out) as fh:
            lines = fh.read().splitlines()
        for k, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if cells[5] == "true":
                cells[1] = repr(float(cells[1]) + 0.25)
                lines[k] = ",".join(cells)
                break
        else:
            return False
        with open(unit.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        found, _ = check_region_files(unit, wl.REGION_GRID[self.smoke], self.irssec.model)
        return bool(found)


def check_region_files(unit: Unit, grid: int, model):
    try:
        with open(unit.out) as fh:
            csv_text = fh.read()
        with open(unit.out + ".phases.json") as fh:
            phases = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read outputs: {exc}"], []
    return checks.check_region(csv_text, phases, unit.ch, unit.p, grid, model)


def environment(irssec) -> dict:
    import numpy
    from importlib import metadata
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy_version, "blas": f"{blas.get('name')} {blas.get('version')}",
            "irssec": getattr(irssec, "__version__", "unknown")}


def main() -> int:
    spec = json.loads(sys.argv[1])
    irssec = importlib.import_module("irssec")
    importlib.import_module("irssec.cli")     # the package does not import its CLI
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(irssec.__file__).startswith(src + os.sep):
        print(f"irssec imported from {irssec.__file__}, not from {src}", file=sys.stderr)
        return 2
    runner = Runner(spec, irssec)
    tracer = runner.tracer = tracing.Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()              # the set-up channel draws are traced too
    units = runner.build_units()
    setup_s = time.monotonic() - spec["spawn_t"]
    result = {"setup_s": setup_s}
    if spec["mode"] == "setup":
        return write_result(spec, result)

    wall, results = runner.run_batch(units)
    if tracer:
        tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0

    problems, rates, relative = runner.check(units, results)
    failed = sum(1 for (_, error, _), found in zip(results, problems) if error or found)
    result.update({
        "wall_s": wall,
        "unit_s": [r[0] for r in results],
        "units": [{"name": u.name, "seconds": r[0], "error": r[1], "problems": found}
                  for u, r, found in zip(units, results, problems)],
        "attempted": len(units),
        "failed": failed,
        "correct": not any(problems),
        "rates": rates,
        "relative_rates": relative,
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "env": environment(irssec),
    })
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans, wall, tracing.wrapper_cost_s())
        result["not_measured"] = sorted(tracer.not_measured)
        write_spans(spec["spans_out"], tracer.spans)
    if runner.smoke and runner.workload.kind == "region":
        result["corrupt_row_caught"] = runner.corrupt_row_caught(units[0])
    return write_result(spec, result)


def write_spans(path: str, spans) -> None:
    self_s = tracing.self_times(spans)
    rows = [{"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "unit": s.unit, "self_s": self_s[s.sid], **s.attrs}
            for s in spans]
    with open(path, "w") as fh:
        json.dump(rows, fh)


def write_result(spec: dict, result: dict) -> int:
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
