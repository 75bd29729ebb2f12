"""External formats: JSON for graphs, payoffs, instances, certificates, and
trajectory reports; CSV for cooperator counts; DOT for state snapshots.

JSON is always emitted through dumps() with sorted keys and a fixed layout,
so writing, reading, and writing again is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Mapping

from .constructions import ConstructedInstance, Role, RoleMap
from .dynamics import TrajectoryReport
from .game import GameParams, Graph, StrategyVector, as_rational
from .solver import Certificate

__all__ = [
    "rational_to_str",
    "graph_to_dict",
    "graph_from_dict",
    "params_to_dict",
    "params_from_dict",
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


def graph_from_dict(data: Mapping[str, Any]) -> Graph:
    try:
        n = data["n"]
        edges = [(int(i), int(j)) for i, j in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a graph object: {exc}") from None
    if not isinstance(n, int):
        raise ValueError(f"graph vertex count must be an integer, got {n!r}")
    # Every vertex needs a neighbor; refusing n > 2 * edges up front keeps
    # Graph from allocating adjacency lists for a count the edges cannot back.
    if n > 2 * len(edges):
        raise ValueError(f"{len(edges)} edges cannot give all n={n} vertices a neighbor")
    return Graph(n, edges)


def params_to_dict(params: GameParams) -> dict[str, str]:
    return {key: rational_to_str(getattr(params, key)) for key in ("a", "b", "c", "d")}


def params_from_dict(data: Mapping[str, Any]) -> GameParams:
    try:
        return GameParams(*(as_rational(data[key]) for key in ("a", "b", "c", "d")))
    except KeyError as exc:
        raise ValueError(f"payoff object is missing {exc}") from None


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
        roles = RoleMap(
            Role(entry[0], tuple(int(x) for x in entry[1:])) for entry in data["roles"]
        )
        structural = {str(k): int(v) for k, v in data["structural_params"].items()}
        instance = ConstructedInstance(
            kind=str(data["kind"]),
            graph=graph,
            x0=x0,
            roles=roles,
            structural_params=structural,
            predicted_period=int(data["predicted_period"]),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
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


def graph_to_dot(
    graph: Graph, state: StrategyVector | None = None, name: str = "G"
) -> str:
    """DOT snapshot; cooperators are filled black, defectors white."""
    lines = [f"graph {name} {{", "  node [shape=circle, style=filled];"]
    for v in range(graph.n):
        if state is None or state[v] == 0:
            lines.append(f'  {v} [fillcolor="white"];')
        else:
            lines.append(f'  {v} [fillcolor="black", fontcolor="white"];')
    lines.extend(f"  {i} -- {j};" for i, j in graph.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def read_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))
