"""Per-layer tracing from outside the library.

``Tracer.install`` rebinds every public function of each layer module, at
every ``negflow.*`` name that refers to it, to a timing wrapper, and
``uninstall`` puts the originals back. Each call appends one span (name, op
id, parent span, start, end) to flat in-memory arrays; ``write`` dumps them
once at the end. A name that a layer no longer defines is skipped and
listed, so its metrics read 0 instead of breaking the run; so is a count
whose function no longer takes the arguments its hook reads. Generator
functions are skipped too: their work is done while the caller iterates,
so it stays in the caller's self time.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

LAYERS = ("cli", "graph", "cycles", "polyhedra", "characterize", "reduction")

# Functions whose call count and mean self time per op are reported.
WATCHED_CALLS = (
    "polyhedra.oracle_vertices",
    "cycles.is_two_cycle",
    "cycles.make_cycle",
    "cycles.enumerate_cycles",
    "characterize.direction_from_two_cycle",
    "graph.characteristic_vector",
)
WATCHED_SELF = WATCHED_CALLS + (
    "polyhedra.build_P",
    "polyhedra.build_P_prime",
    "characterize.directions_from_cycles",
    "characterize.verify_theorem1",
    "characterize.format_tagged_point",
    "reduction.decide_ve01",
    "reduction.build_reduction",
    "reduction.brute_force_sat",
    "reduction.parse_dimacs_cnf",
    "graph.parse_graph",
    "cli.main",
)

ROOT_SPAN = "op"


def _oracle_counts(counts, args, result) -> None:
    counts["polyhedra.supports_candidate"] += 2 ** args[0].dimension
    counts["polyhedra.vertices_found"] += len(result.points)


def _two_cycle_counts(counts, args, result) -> None:
    counts["cycles.two_cycles_found"] += result is not None


def _cycle_counts(counts, args, result) -> None:
    counts["cycles.cycles_found"] += len(result)


COUNT_HOOKS: dict[str, Callable] = {
    "polyhedra.oracle_vertices": _oracle_counts,
    "cycles.is_two_cycle": _two_cycle_counts,
    "cycles.enumerate_cycles": _cycle_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self.name_of = array("i")
        self.op_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.skipped: list[str] = []
        self.wrapped: list[str] = []
        self._bindings: list[tuple] | None = None

    def _open(self, name_index: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_index)
        self.op_of.append(self.op_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def begin_op(self, op_id: int) -> int:
        """Open the op's root span; the caller stores its start and end."""
        self.op_id = op_id
        return self._open(0)

    def end_op(self, idx: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        self.names.append(name)
        name_index = len(self.names) - 1
        hook = COUNT_HOOKS.get(name)
        start, end, stack, counts = self.start, self.end, self.stack, self.counts
        skipped = self.skipped
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_index)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    # A changed signature loses the count, not the op.
                    if f"{name} (count)" not in skipped:
                        skipped.append(f"{name} (count)")
            return result

        return wrapper

    def _bind(self, expected: tuple[str, ...]) -> list[tuple]:
        """Wrap each layer's public functions; list every negflow name bound
        to one as (module, attribute, original, wrapper)."""
        replacement: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"negflow.{layer}")
            if module is None:
                self.skipped.append(f"{layer} (module not loaded)")
                continue
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                if inspect.isgeneratorfunction(fn):
                    self.skipped.append(f"{layer}.{attr} (generator)")
                    continue
                replacement[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
                self.wrapped.append(f"{layer}.{attr}")
        self.skipped += [f"{n} (missing)" for n in expected if n not in self.wrapped]
        bindings = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "negflow" and not mod_name.startswith("negflow."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    bindings.append((module, attr, value, wrapper))
        return bindings

    def install(self, expected: tuple[str, ...] = WATCHED_SELF) -> None:
        """Point those names at the wrappers, built on the first call."""
        if self._bindings is None:
            self._bindings = self._bind(expected)
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings or ():
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        self_t = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                self_t[parent] -= self.end[idx] - self.start[idx]
        return self_t

    def closure_error(self, self_t: list[float]) -> float:
        """Worst excess, over all ops, of |sum of self times - op latency|
        beyond the clock's resolution plus float rounding; also checks that
        every span lies inside its parent. A well-formed trace gives 0."""
        res = time.get_clock_info("perf_counter").resolution
        per_op: dict[int, float] = defaultdict(float)
        spans_per_op: dict[int, int] = defaultdict(int)
        latency: dict[int, float] = {}
        worst = 0.0
        for idx, parent in enumerate(self.parent):
            op = self.op_of[idx]
            per_op[op] += self_t[idx]
            spans_per_op[op] += 1
            if parent < 0:
                latency[op] = self.end[idx] - self.start[idx]
            elif not (
                self.start[parent] <= self.start[idx] <= self.end[idx] <= self.end[parent]
            ):
                worst = math.inf
        for op, total in per_op.items():
            if op not in latency:
                return math.inf
            tol = res + 4 * spans_per_op[op] * math.ulp(self.end[-1])
            worst = max(worst, abs(total - latency[op]) - tol, 0.0)
        return worst

    def metrics(self, ops: int, sat_of_op: dict[int, bool] | None) -> dict[str, float]:
        """Per-layer figures: calls and self seconds per op, counts per op."""
        self_t = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_total: dict[str, float] = defaultdict(float)
        decide_ms: dict[bool, list[float]] = {True: [], False: []}
        for idx, name_index in enumerate(self.name_of):
            name = self.names[name_index]
            calls[name] += 1
            self_total[name] += self_t[idx]
            if name == "reduction.decide_ve01" and sat_of_op is not None:
                sat = sat_of_op[self.op_of[idx]]
                decide_ms[sat].append((self.end[idx] - self.start[idx]) * 1e3)
        out: dict[str, float] = {}
        for name in WATCHED_CALLS:
            out[f"{name}.calls"] = calls[name] / ops
        for name in WATCHED_SELF:
            out[f"{name}.self_s"] = self_total[name] / ops
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for n, t in self_total.items() if n.startswith(layer + ".")
            ) / ops
        for key in (
            "polyhedra.supports_candidate",
            "polyhedra.vertices_found",
            "cycles.two_cycles_found",
            "cycles.cycles_found",
        ):
            out[key] = self.counts[key] / ops
        out["polyhedra.vertex_yield"] = _ratio(
            self.counts["polyhedra.vertices_found"],
            self.counts["polyhedra.supports_candidate"],
        )
        out["cycles.two_cycle_yield"] = _ratio(
            self.counts["cycles.two_cycles_found"], calls["cycles.is_two_cycle"]
        )
        for sat, label in ((True, "sat"), (False, "unsat")):
            values = decide_ms[sat]
            out[f"reduction.decide_ve01.{label}_p50_ms"] = (
                statistics.median(values) if values else 0.0
            )
        return out

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: op, parent, name, start_s, end_s."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,parent,name,start_s,end_s\n")
            for idx in range(len(self.start)):
                fh.write(
                    f"{self.op_of[idx]},{self.parent[idx]},"
                    f"{self.names[self.name_of[idx]]},"
                    f"{self.start[idx]!r},{self.end[idx]!r}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
