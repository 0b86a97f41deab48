"""Benchmark of the irssec region tracer: one command, every workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1] [--smoke]

Each workload runs in its own child process (child.py) with the thread pins
of workloads.THREAD_PINS, against the ``irssec`` sources in ``src/`` next to
this directory. A workload's batch has a fixed number of units; ``--seconds``
is accepted, as benchmark harnesses pass it, but sizes nothing. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run together with the tracing overhead.
Every output is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every output passed its check, 1 when one did not, and 2 when the
benchmark could not run at all.

``--smoke`` runs every workload at its smallest size, traced and untraced,
and checks that every metric named in BENCHMARK.json is emitted and that a
corrupted CSV row fails the output check.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"       # scenario files and CSVs, removed after the run
RESULTS = ROOT / ".perfbench_out"     # one JSON record per run, plus spans when traced
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# End-to-end metrics in the result line, each bounded in BENCHMARK.json.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ok_share": "ratio", "rc_rel": "ratio",
             "peak_rss_mb": "MB"}
# Printed and recorded too, but not bounded: across workload seeds they vary
# more than a bound can allow (failed_share is also 0 on most workloads).
INFO_UNITS = {"failed_share": "ratio", "unit_s_p50": "s", "rc_mean_bits": "bits"}
SETUP_REPEATS = 7          # set-up is timed in this many children; the median is reported
# Per workload run, set-up children included: the ceiling within which a run
# must end. Every batch runs once, about 3x below it at the parent commit.
RUN_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to an output that failed its check)."""


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_child(spec: dict, work: Path, deadline: float) -> dict:
    out = work / f"result-{spec['mode']}.json"
    spec = dict(spec, out=str(out), work=str(work), src=str(ROOT / "src"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **wl.THREAD_PINS)
    spec["spawn_t"] = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spec["spawn_t"]))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['workload']}: run exceeded {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"{spec['workload']}: child exited with {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def run_workload(name: str, args, trace: int, work: Path, env: dict) -> dict:
    """Set-up timings plus one run of the batch, each in a fresh child."""
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{args.seed}-trace{trace}"
    spec = {"workload": name, "seed": args.seed, "trace": trace, "smoke": args.smoke,
            "spans_out": str(RESULTS / f"{tag}-spans.json")}
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not trace:
        setups = [run_child(dict(spec, mode="setup"), work, deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
    run = run_child(dict(spec, mode="run"), work, deadline)
    if not trace:
        setups.append(run["setup_s"])
    rates, relative = run.pop("rates"), run.pop("relative_rates")
    run["env"].update(env)
    run["e2e"] = {
        "setup_s": (statistics.median(setups) if setups else 0.0, len(setups)),
        "wall_s": (run["wall_s"], 1),
        "ok_share": (1.0 - run["failed"] / run["attempted"], run["attempted"]),
        "rc_rel": (statistics.fmean(relative) if relative else 0.0, len(relative)),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
        "failed_share": (run["failed"] / run["attempted"], run["attempted"]),
        "unit_s_p50": (statistics.median(run["unit_s"]), len(run["unit_s"])),
        "rc_mean_bits": (statistics.fmean(rates) if rates else 0.0, len(rates)),
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(run, indent=1) + "\n")
    return run


def metrics_of(run: dict, trace: int) -> dict:
    if trace:
        return {k: {"value": run["layers"][k], "unit": u} for k, u in tracing.LAYER_UNITS.items()}
    return {k: {"value": run["e2e"][k][0], "unit": u} for k, u in E2E_UNITS.items()}


def report(name: str, run: dict, trace: int) -> None:
    print(f"== {name}: {run['attempted']} units, {run['failed']} failed, "
          f"outputs {'correct' if run['correct'] else 'WRONG'}")
    for unit in run["units"]:
        if unit["error"] or unit["problems"]:
            print(f"   {unit['name']}: {unit['error'] or '; '.join(unit['problems'][:3])}")
    if trace:
        for key, unit in tracing.LAYER_UNITS.items():
            print(f"   {key:36s} {run['layers'][key]:14.6g} {unit}")
        for attr in run["not_measured"]:
            print(f"   not measured: {attr} (missing or changed signature)")
    else:
        for key, unit in {**E2E_UNITS, **INFO_UNITS}.items():
            value, n = run["e2e"][key]
            print(f"   {key:36s} {value:14.6g} {unit:8s} n={n}")


def smoke_problems(runs: dict) -> list[str]:
    """Every metric named in BENCHMARK.json is emitted; a corrupted row is caught."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for (name, trace), run in runs.items():
        listed = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
        missing = listed - set(metrics_of(run, trace))
        if missing:
            problems.append(f"{name} trace={trace}: missing metrics {sorted(missing)}")
        if not run["correct"]:
            problems.append(f"{name} trace={trace}: outputs failed their checks")
        if wl.WORKLOADS[name].kind == "region" and not run.get("corrupt_row_caught"):
            problems.append(f"{name}: a corrupted CSV row passed the output check")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *wl.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="accepted and ignored: batches are fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "irssec" / "__init__.py").is_file():
        print(f"error: no irssec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.smoke else (args.trace,)
    env = {"nproc": os.cpu_count(), "cpu": cpu_model(), "pins": wl.THREAD_PINS,
           "commit": git_commit(), "workload_seed": args.seed}
    work = WORK / str(os.getpid())
    RESULTS.mkdir(exist_ok=True)
    runs = {}
    try:
        for name in names:
            for trace in modes:
                runs[name, trace] = run_workload(name, args, trace, work / f"{name}-{trace}", env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for (name, trace), run in runs.items():
        report(name, run, trace)
    print("env: " + json.dumps(next(iter(runs.values()))["env"], sort_keys=True))
    if args.smoke:
        problems = smoke_problems(runs)
        for p in problems:
            print(f"smoke: {p}", file=sys.stderr)
        print("smoke: " + ("FAILED" if problems else "ok"))
        return 1 if problems else 0

    if len(runs) == 1:
        run = next(iter(runs.values()))
        metrics = metrics_of(run, args.trace)
    else:
        metrics = {f"{name}.{k}": v for (name, _), run in runs.items()
                   for k, v in metrics_of(run, args.trace).items()}
    correct = all(run["correct"] for run in runs.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs.values()),
                      "failed": sum(r["failed"] for r in runs.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
