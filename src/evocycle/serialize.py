"""External formats: JSON for graphs, instances, certificates, and
trajectory reports; CSV for cooperator counts; DOT for state snapshots.

JSON always has the layout of dumps(), sorted keys and two-space indent,
so writing, reading, and writing again is byte-identical.  write_json
emits an instance in that layout straight from its graph and roles.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import fields
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .constructions import ConstructedInstance, Role
from .dynamics import TrajectoryReport
from .game import Graph, StrategyVector
from .solver import Certificate

__all__ = [
    "rational_to_str",
    "graph_to_dict",
    "graph_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "report_to_dict",
    "certificate_to_dict",
    "counts_to_csv",
    "graph_to_dot",
    "dumps",
    "write_json",
    "read_json",
]


def rational_to_str(value: Fraction) -> str:
    """Exact text form: '3', '-2', or 'p/q' in lowest terms."""
    return str(value)


def graph_to_dict(graph: Graph) -> dict[str, Any]:
    return {"n": graph.n, "edges": [[i, j] for i, j in graph.edges()]}


def _require_int(value: Any, what: str) -> int:
    """JSON integers only: no float, string, null or bool passes as one."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _require_str(value: Any, what: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def graph_from_dict(data: Mapping[str, Any]) -> Graph:
    try:
        n, edges = data["n"], data["edges"]
        lengths = set(map(len, edges))
        endpoint_types = set(map(type, chain.from_iterable(edges)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a graph object: {exc}") from None
    if lengths - {2} or endpoint_types - {int}:
        raise ValueError("not a graph object: edges must be pairs of integers")
    _require_int(n, "graph vertex count")
    # Every vertex needs a neighbor; refusing n > 2 * edges up front keeps
    # Graph from allocating adjacency lists for a count the edges cannot back.
    if n > 2 * len(edges):
        raise ValueError(f"{len(edges)} edges cannot give all n={n} vertices a neighbor")
    return Graph(n, edges)


def instance_to_dict(instance: ConstructedInstance) -> dict[str, Any]:
    return {
        "kind": instance.kind,
        "graph": graph_to_dict(instance.graph),
        "x0": instance.x0.to_string(),
        "roles": [[role.kind, *role.index] for role in instance.roles],
        "structural_params": dict(instance.structural_params),
        "predicted_period": instance.predicted_period,
    }


def instance_from_dict(data: Mapping[str, Any]) -> ConstructedInstance:
    try:
        graph = graph_from_dict(data["graph"])
        x0 = StrategyVector.from_string(data["x0"])
        roles = tuple(
            Role(_require_str(entry[0], "role kind"),
                 tuple(_require_int(x, "role coordinate") for x in entry[1:]))
            for entry in data["roles"]
        )
        structural = {k: _require_int(v, k) for k, v in data["structural_params"].items()}
        instance = ConstructedInstance(
            kind=_require_str(data["kind"], "kind"),
            graph=graph,
            x0=x0,
            roles=roles,
            structural_params=structural,
            predicted_period=_require_int(data["predicted_period"], "predicted_period"),
        )
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise ValueError(f"not an instance object: {exc}") from None
    if len(instance.roles) != graph.n or len(x0) != graph.n:
        raise ValueError("instance roles/state do not match the graph size")
    return instance


def report_to_dict(report: TrajectoryReport) -> dict[str, Any]:
    return {
        "initial_state": report.initial_state.to_string(),
        "transient": report.transient,
        "minimal_period": report.minimal_period,
        "states": [s.to_string() for s in report.states],
        "cooperator_counts": list(report.cooperator_counts),
    }


def certificate_to_dict(certificate: Certificate) -> dict[str, Any]:
    """Kind-tagged JSON form with every residual as an exact rational string."""
    if not isinstance(certificate, Certificate):
        raise TypeError(f"not a certificate: {certificate!r}")
    data = {f.name: getattr(certificate, f.name) for f in fields(certificate)}
    data["kind"] = certificate.kind
    data["residuals"] = {k: rational_to_str(v) for k, v in certificate.residuals.items()}
    return data


def counts_to_csv(series: Iterable[tuple[int, int]]) -> str:
    lines = ["t,cooperators"]
    lines.extend(f"{t},{count}" for t, count in series)
    return "\n".join(lines) + "\n"


def _edge_runs(graph: Graph, head: str, tail: str, sep: str) -> Iterator[str]:
    """For each vertex v with a later neighbour, the text of its edges
    (v, w), w > v, each written as head % v, then w, then tail, joined by
    sep: one str.join per vertex from the sorted adjacency."""
    for v in range(graph.n):
        nbrs = graph.neighbors(v)
        later = nbrs[bisect_right(nbrs, v):]
        if later:
            first = head % v
            yield first + (tail + sep + first).join(map(str, later)) + tail


def graph_to_dot(graph: Graph, state: StrategyVector | None = None) -> str:
    """DOT snapshot of graph G; cooperators are filled black, defectors white."""
    lines = ["graph G {", "  node [shape=circle, style=filled];"]
    for v in range(graph.n):
        if state is None or state[v] == 0:
            lines.append(f'  {v} [fillcolor="white"];')
        else:
            lines.append(f'  {v} [fillcolor="black", fontcolor="white"];')
    lines.extend(_edge_runs(graph, "  %d -- ", ";", "\n"))
    lines.append("}")
    return "\n".join(lines) + "\n"


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return _ENCODER.encode(obj) + "\n"


def _array(items: Iterable[str], indent: str) -> Iterator[str]:
    """A nonempty JSON array laid out as the encoder lays it out, given the
    text of its elements (or of runs of them) already indented."""
    sep = "[\n"
    for item in items:
        yield sep + item
        sep = ",\n"
    yield "\n" + indent + "]"


def _instance_chunks(instance: ConstructedInstance) -> Iterator[str]:
    """The text of dumps(instance_to_dict(instance)) without that dict: the
    edges one vertex at a time from the sorted adjacency, the roles one at
    a time, and every other field through the shared encoder.  The keys
    are written in sorted order."""
    encode = _ENCODER.encode
    graph = instance.graph
    yield '{\n  "graph": {\n    "edges": '
    yield from _array(
        _edge_runs(graph, "      [\n        %d,\n        ", "\n      ]", ",\n"), "    ")
    yield ',\n    "n": %s\n  },\n  "kind": %s,\n  "predicted_period": %s,\n  "roles": ' % (
        encode(graph.n), encode(instance.kind), encode(instance.predicted_period))
    kind_text = {kind: encode(kind) for kind in {role.kind for role in instance.roles}}
    yield from _array(
        ("    [\n      " + ",\n      ".join([kind_text[role.kind], *map(str, role.index)])
         + "\n    ]" for role in instance.roles),
        "  ",
    )
    # JSON text has no raw newline inside a string, so this indents it exactly.
    structural = encode(dict(instance.structural_params)).replace("\n", "\n  ")
    yield ',\n  "structural_params": %s,\n  "x0": %s\n}' % (
        structural, encode(instance.x0.to_string()))


def write_json(path: str | Path, obj: Any) -> None:
    """Write dumps(obj) chunk by chunk, never holding the whole text.  An
    instance is written as dumps(instance_to_dict(obj)) with no per-edge or
    per-role list, so memory stays within one vertex's edges."""
    if isinstance(obj, ConstructedInstance):
        chunks = _instance_chunks(obj)
    else:
        chunks = _ENCODER.iterencode(obj)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)
        handle.write("\n")


def read_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))
