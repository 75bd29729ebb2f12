"""Spans around the calls into each evocycle layer, recorded from outside.

The traced run replaces, for its duration, the public functions that
`evocycle.cli` calls (and the package-level names the certify workload
calls) with wrappers that record a span per call: name, layer, start, end,
parent span and op.  `evocycle.dynamics.step` and `evocycle.analysis.step`
are wrapped too, so steps taken by `trajectory` and by the verifiers show
up as children of those.  Spans stay in memory; the runner writes them
out when it ends.  A span's self time is its duration minus the time its
child spans cover, and summing self times by layer gives the per-layer
figures.  Nothing is recorded outside an op, so the runner's own checks
and set-up stay out of the figures.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

# Layer of every wrapped name.  serialize is split by direction because
# the instance is written once and read twice per pipeline.
LAYERS = {
    "main": "cli",
    "solve_fcsh": "solver", "solve_hdpd": "solver", "solve_tree": "solver",
    "check_fcsh": "solver", "check_hdpd": "solver", "check_tree": "solver",
    "build_fcsh": "constructions", "build_hdpd": "constructions",
    "build_tree": "constructions", "Graph": "constructions",
    "trajectory": "dynamics", "step": "dynamics",
    "verify_fcsh_dynamics": "analysis", "verify_hdpd_dynamics": "analysis",
    "verify_tree_invariants": "analysis", "check_local_lemmas": "analysis",
    "instance_to_dict": "serialize.write", "write_json": "serialize.write",
    "graph_to_dot": "serialize.write",
    "instance_from_dict": "serialize.read", "read_json": "serialize.read",
}

# (module, names) patched while tracing.  serialize.Graph is the Graph
# that instance_from_dict validates, which belongs to constructions.
TARGETS = (
    ("evocycle.cli", (
        "main", "solve_fcsh", "solve_hdpd", "solve_tree",
        "check_fcsh", "check_hdpd", "check_tree",
        "build_fcsh", "build_hdpd", "build_tree", "trajectory",
        "verify_fcsh_dynamics", "verify_hdpd_dynamics",
        "verify_tree_invariants", "check_local_lemmas",
        "instance_to_dict", "instance_from_dict", "read_json", "write_json",
        "graph_to_dot")),
    ("evocycle", ("solve_fcsh", "solve_hdpd", "check_fcsh", "check_hdpd")),
    ("evocycle.dynamics", ("step",)),
    ("evocycle.analysis", ("step",)),
    ("evocycle.serialize", ("Graph",)),
)

NAME, LAYER, START, END, PARENT, OP = range(6)


def _count_build(counts: Counter, args: tuple, result: Any) -> None:
    counts["vertices"] += result.graph.n
    counts["edges"] += result.graph.edge_count


def _count_step(counts: Counter, args: tuple, result: Any) -> None:
    graph, state = args[0], args[2]
    active = args[3] if len(args) > 3 else None
    counts["edge_steps"] += graph.edge_count
    counts["updated"] += graph.n if active is None else len(set(active))
    # States hold one 0/1 byte per vertex, so the popcount of the XOR of
    # the two byte strings counts the vertices that changed.
    before = int.from_bytes(state.bits, "little")
    counts["changed"] += (before ^ int.from_bytes(result.bits, "little")).bit_count()


def _count_violations(counts: Counter, args: tuple, result: Any) -> None:
    counts["violations"] += len(result)


def _count_file(counts: Counter, args: tuple, result: Any) -> None:
    counts["bytes"] += os.path.getsize(args[0])


def _count_text(counts: Counter, args: tuple, result: Any) -> None:
    counts["bytes"] += len(result)


COUNTERS: dict[str, Callable[[Counter, tuple, Any], None]] = {
    "build_fcsh": _count_build, "build_hdpd": _count_build,
    "build_tree": _count_build, "step": _count_step,
    "verify_fcsh_dynamics": _count_violations,
    "verify_hdpd_dynamics": _count_violations,
    "verify_tree_invariants": _count_violations,
    "check_local_lemmas": _count_violations,
    "write_json": _count_file, "read_json": _count_file,
    "graph_to_dot": _count_text,
}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._op: Optional[str] = None

    def _begin(self, name: str, layer: str) -> list[Any]:
        span = [name, layer, 0.0, 0.0, self._open[-1] if self._open else -1, self._op]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _end(self, span: list[Any]) -> None:
        span[END] = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def op(self, label: str) -> Iterator[None]:
        """Root span of one op; every span inside it carries its label."""
        self._op = label
        span = self._begin(label, "bench")
        try:
            yield
        finally:
            self._end(span)
            self._op = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        layer = LAYERS[name]
        count = COUNTERS.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.counts[f"raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self._end(span)
            if count is not None:
                # Bookkeeping gets a span of its own so that it is not
                # charged to the caller's layer.
                span = self._begin("count", "trace")
                count(self.counts, args, result)
                self._end(span)
            return result

        return traced

    @contextlib.contextmanager
    def instrument(self) -> Iterator[None]:
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for module_name, names in TARGETS:
                module = importlib.import_module(module_name)
                for name in names:
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, self.wrap(name, original))
            yield
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)


def self_times(spans: list[list[Any]]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def op_accounting(spans: list[list[Any]]) -> dict[str, tuple[float, float]]:
    """For each op: (root span duration, sum of self times of its spans)."""
    own = self_times(spans)
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for span, self_s in zip(spans, own):
        if span[PARENT] < 0:
            totals[span[OP]][0] += span[END] - span[START]
        totals[span[OP]][1] += self_s
    return {op: (wall, summed) for op, (wall, summed) in totals.items()}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans and counters of a traced pass."""
    own = self_times(tracer.spans)
    by_layer: Counter = Counter()
    by_name: Counter = Counter()
    calls: Counter = Counter()
    for span, self_s in zip(tracer.spans, own):
        by_layer[span[LAYER]] += self_s
        by_name[span[NAME]] += self_s
        calls[span[NAME]] += 1
    c = tracer.counts
    step_s = by_name["step"]
    return {
        "solver.s": by_layer["solver"],
        "solver.calls": sum(calls[n] for n in ("solve_fcsh", "solve_hdpd", "solve_tree")),
        "solver.budget_exhausted": c["raised.SearchBudgetError"],
        "solver.check_s": sum(by_name[n] for n in ("check_fcsh", "check_hdpd", "check_tree")),
        "constructions.s": by_layer["constructions"],
        "constructions.vertices": c["vertices"],
        "constructions.edges": c["edges"],
        "dynamics.s": by_layer["dynamics"],
        "dynamics.step_calls": calls["step"],
        "dynamics.ns_per_edge_step": step_s * 1e9 / c["edge_steps"] if c["edge_steps"] else 0.0,
        "dynamics.changed_frac": c["changed"] / c["updated"] if c["updated"] else 0.0,
        "analysis.s": by_layer["analysis"],
        "analysis.violations": c["violations"],
        "serialize.write_s": by_layer["serialize.write"],
        "serialize.read_s": by_layer["serialize.read"],
        "serialize.bytes": c["bytes"],
        "cli.self_s": by_layer["cli"],
    }


def peak_bytes_per_edge(build: Callable[[], Any]) -> float:
    """tracemalloc peak of one build divided by the edges it built."""
    tracemalloc.start()
    try:
        instance = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / instance.graph.edge_count
