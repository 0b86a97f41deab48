"""Span tracing from outside the program.

The benchmark never edits ``irssec``. For a traced run it swaps timing
wrappers onto the module attributes that the program's own callers look up
(``irssec.algorithms.solve`` and so on), records one span per call, and puts
the original functions back afterwards. A layer whose attribute is missing or
whose leading parameters changed is left unwrapped and reported as not
measured, so a refactor of the program never breaks the untraced benchmark.
"""
from __future__ import annotations

import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: object
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _first(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _solve_attrs(args, kwargs, out):
    problem = _first(args, kwargs, 0, "problem")
    status = getattr(out, "status", None)
    return {"dim": getattr(problem, "dim", None),
            "iterations": getattr(out, "iterations", None),
            "status": getattr(status, "value", status)}


def _grp_round_attrs(args, kwargs, out):
    return {"candidates": _first(args, kwargs, 1, "candidates")}


def _effective_gains_attrs(args, kwargs, out):
    shape = getattr(out, "shape", None)
    return {"rows": shape[0] if shape is not None and len(shape) == 2 else 1}


def _sweep_attrs(args, kwargs, out):
    points = getattr(out, "points", None)
    return {"points": len(points) if points is not None else None}


# (module, attribute, span name, leading parameter names, attribute extractor).
# Layer names follow the program's own modules.
HOOKS = (
    ("irssec.algorithms", "solve", "sdp.solve", ("problem",), _solve_attrs),
    ("irssec.algorithms", "grp_round", "sdp.grp_round",
     ("z_matrix", "candidates", "score", "rng"), _grp_round_attrs),
    # The secrecy workload calls the public grp_round itself.
    ("irssec.sdp", "grp_round", "sdp.grp_round",
     ("z_matrix", "candidates", "score", "rng"), _grp_round_attrs),
    ("irssec.algorithms", "sweep_region", "algorithms.sweep_region",
     ("ch", "p", "scheme", "grid_points"), _sweep_attrs),
    ("irssec.algorithms", "multicast_upper_bound", "algorithms.multicast_upper_bound",
     ("ch", "p"), None),
    ("irssec.algorithms", "secrecy_covariance", "algorithms.secrecy_covariance",
     ("ch", "p"), None),
    ("irssec.model", "effective_gains", "model.effective_gains", ("ch", "v"),
     _effective_gains_attrs),
    ("irssec.channel", "generate_channels", "channel.generate_channels", ("config",), None),
    ("irssec.cli", "generate_channels", "channel.generate_channels", ("config",), None),
    ("irssec.cli", "main", "cli.main", ("argv",), None),
)


def _leading_params(fn) -> tuple:
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return ()
    return tuple(params)


class Tracer:
    """Collects spans in memory; ``install`` and ``uninstall`` swap wrappers.

    Each thread keeps its own stack of open spans. A call on a thread with an
    empty stack (a ``sweep_region`` pool thread) attaches to the sweep span
    that is open at the time, so pool work is charged to its unit.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.not_measured: set[str] = set()     # "module.attribute" left unwrapped
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._sweep = None              # (span id, unit) of the open sweep span
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _context(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._sweep or (None, None)

    def span(self, name: str, unit):
        """Context manager for a root span (one unit of a workload)."""
        return _RootSpan(self, name, unit)

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def _wrap(self, fn, name, extract):
        tracer = self
        is_sweep = name == "algorithms.sweep_region"

        def wrapper(*args, **kwargs):
            parent, unit = tracer._context()
            sid = tracer._new_id()
            stack = tracer._stack()
            stack.append((sid, unit))
            if is_sweep:
                tracer._sweep = (sid, unit)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_sweep:
                    tracer._sweep = None
                attrs = {}
                if extract is not None:
                    try:
                        attrs = extract(args, kwargs, out)
                    except Exception:   # a changed return type must not fail the call
                        attrs = {}
                tracer._record(Span(sid, name, start, end, parent, unit, attrs))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, params, extract in HOOKS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.not_measured.add(f"{mod_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn) or _leading_params(fn)[:len(params)] != params:
                self.not_measured.add(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, extract))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str, unit):
        self.tracer, self.name, self.unit = tracer, name, unit

    def __enter__(self):
        self.sid = self.tracer._new_id()
        self.tracer._stack().append((self.sid, self.unit))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer._record(Span(self.sid, self.name, self.start, end, None, self.unit))
        return False


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds to a bare call, measured on a no-op.

    Timing a traced run against an untraced one cannot resolve the tracing
    overhead: the difference is below the run-to-run noise of the workloads.
    """
    def noop():
        return None

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    wrapped = Tracer()._wrap(noop, "calibration", None)
    bare = min(loop(noop) for _ in range(3))
    traced = min(loop(wrapped) for _ in range(3))
    return max(traced - bare, 0.0) / calls


def self_times(spans: list[Span]) -> dict:
    """Span id -> duration minus the part of its interval that children cover.

    Children on pool threads can overlap each other, so the covered part is
    the union of their intervals, clipped to the parent.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.sid] = s.duration - covered
    return out


# Per-layer metric name -> unit, in the order they are printed.
LAYER_UNITS = {
    "sdp.solve_s": "s",
    "sdp.solve.calls": "count",
    "sdp.solve.iterations": "count",
    "sdp.solve.iter_ms.n11": "ms",
    "sdp.solve.iter_ms.n61": "ms",
    "sdp.solve.optimal_share": "ratio",
    "sdp.solve.max_iter": "count",
    "sdp.solve.infeasible": "count",
    "sdp.grp_round_s": "s",
    "sdp.grp_round.calls": "count",
    "sdp.grp_round.candidates": "count",
    "sdp.grp_round.us_per_candidate": "us",
    "model.effective_gains_s": "s",
    "model.effective_gains.calls": "count",
    "model.effective_gains.rows": "count",
    "algorithms.sweep_region_s": "s",
    "algorithms.points": "count",
    "algorithms.solves_per_point": "count",
    "algorithms.multicast_upper_bound_s": "s",
    "algorithms.secrecy_covariance_s": "s",
    "algorithms.overlap": "ratio",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "channel.generate_channels_s": "s",
    "channel.generate_channels.calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], traced_wall: float, call_cost_s: float) -> dict:
    """Per-layer numbers from one traced pass. Busy times are summed over
    threads; a layer with no spans reads 0. The tracing overhead is the
    measured cost of one wrapped call times the number of spans."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    parent_of = {s.sid: s.parent for s in spans}
    sweep_ids = {s.sid for s in by_name.get("algorithms.sweep_region", ())}

    def in_sweep(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if p in sweep_ids:
                return True
            p = parent_of.get(p)
        return False

    def busy(name, pick=None):
        return sum(s.duration for s in by_name.get(name, ()) if pick is None or pick(s))

    def total(name, key):
        return sum(s.attrs.get(key) or 0 for s in by_name.get(name, ()))

    solves = by_name.get("sdp.solve", [])
    statuses = [s.attrs.get("status") for s in solves]

    def iter_ms(dim):
        picked = [s for s in solves if s.attrs.get("dim") == dim]
        iters = sum(s.attrs.get("iterations") or 0 for s in picked)
        return _ratio(1e3 * sum(s.duration for s in picked), iters)

    grp_s = busy("sdp.grp_round")
    candidates = total("sdp.grp_round", "candidates")
    sweep_s = busy("algorithms.sweep_region")
    points = total("algorithms.sweep_region", "points")
    sweep_work = busy("sdp.solve", in_sweep) + busy("sdp.grp_round", in_sweep)
    cli_s = busy("cli.main")
    return {
        "sdp.solve_s": busy("sdp.solve"),
        "sdp.solve.calls": len(solves),
        "sdp.solve.iterations": total("sdp.solve", "iterations"),
        "sdp.solve.iter_ms.n11": iter_ms(11),
        "sdp.solve.iter_ms.n61": iter_ms(61),
        "sdp.solve.optimal_share": _ratio(statuses.count("Optimal"), len(solves)),
        "sdp.solve.max_iter": statuses.count("MaxIterations"),
        "sdp.solve.infeasible": statuses.count("Infeasible"),
        "sdp.grp_round_s": grp_s,
        "sdp.grp_round.calls": len(by_name.get("sdp.grp_round", ())),
        "sdp.grp_round.candidates": candidates,
        "sdp.grp_round.us_per_candidate": _ratio(1e6 * grp_s, candidates),
        "model.effective_gains_s": busy("model.effective_gains"),
        "model.effective_gains.calls": len(by_name.get("model.effective_gains", ())),
        "model.effective_gains.rows": total("model.effective_gains", "rows"),
        "algorithms.sweep_region_s": sweep_s,
        "algorithms.points": points,
        "algorithms.solves_per_point": _ratio(sum(1 for s in solves if in_sweep(s)), points),
        "algorithms.multicast_upper_bound_s": busy("algorithms.multicast_upper_bound"),
        "algorithms.secrecy_covariance_s": busy("algorithms.secrecy_covariance"),
        "algorithms.overlap": _ratio(sweep_work, sweep_s),
        "cli.main_s": cli_s,
        "cli.self_s": cli_s - sweep_s if cli_s else 0.0,
        "channel.generate_channels_s": busy("channel.generate_channels"),
        "channel.generate_channels.calls": len(by_name.get("channel.generate_channels", ())),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": call_cost_s * len(spans),
    }
