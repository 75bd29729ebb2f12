"""External formats: JSON for graphs, instances, certificates, and
trajectory reports; CSV for cooperator counts; DOT for state snapshots.

JSON always has the layout of dumps(), sorted keys and two-space indent,
so writing, reading, and writing again is byte-identical.  write_json
emits an instance in that layout straight from its graph and roles, and
the graph may be a Graph or a clique chain's closed-form Layout: either
gives each vertex's sorted later neighbours and the instance its roles as
runs, which is all one emitter reads.  Its text is made a vertex's edges
or a run of roles or of node lines at a time, and write_json and
write_dot write it in blocks (_blocks), never holding the whole of it.
A file in the JSON layout can be recognised without parsing it: its
structural params sit in its tail, and _holds compares it with the same
blocks, byte for byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from fractions import Fraction
from itertools import chain
from pathlib import Path
from stat import S_ISREG
from typing import Any, BinaryIO, Iterable, Iterator, Mapping, Optional

from .constructions import ConstructedInstance, Layout, Role, RoleRun
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
    "write_dot",
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
        "roles": [[role.kind, *role.index] for role in instance.role_tuple()],
        "structural_params": dict(instance.structural_params),
        "predicted_period": instance.predicted_period,
    }


def _roles_from_list(entries: Any) -> tuple[Role, ...]:
    """The Role of each entry [kind, *coordinates], one object per distinct
    entry.  All types are checked in bulk, as graph_from_dict checks edges,
    before any entry is a key where True == 1 == 1.0; where that check
    fails, the per-entry checks run to word the refusal."""
    if (type(entries) is list and set(map(type, entries)) <= {list}
            and set(map(type, chain.from_iterable(entries))) <= {str, int}):
        keys = dict.fromkeys(map(tuple, entries))
        if all(key and type(key[0]) is str and str not in map(type, key[1:]) for key in keys):
            interned = {key: Role(key[0], key[1:]) for key in keys}
            return tuple(map(interned.__getitem__, map(tuple, entries)))
    return tuple(
        Role(_require_str(entry[0], "role kind"),
             tuple(_require_int(x, "role coordinate") for x in entry[1:]))
        for entry in entries
    )


def instance_from_dict(data: Mapping[str, Any]) -> ConstructedInstance:
    try:
        graph = graph_from_dict(data["graph"])
        x0 = StrategyVector.from_string(data["x0"])
        roles = _roles_from_list(data["roles"])
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


def _edge_runs(graph: Graph | Layout, head: str, tail: str, sep: str) -> Iterator[str]:
    """For each vertex v with a later neighbour, the text of its edges
    (v, w), w > v, each written as head % v, then w, then tail, joined by
    sep: one str.join per vertex over its sorted later neighbours' text,
    made once for consecutive vertices given one sequence (a gadget's S1)."""
    shared = texts = None
    for v, later in graph.later_neighbors():
        if later is not shared:
            shared, texts = later, list(map(str, later))
        first = head % v
        yield first + (tail + sep + first).join(texts) + tail


# The node line of a defector and of a cooperator, after its number.
_NODE_TAILS = (' [fillcolor="white"];\n', ' [fillcolor="black", fontcolor="white"];\n')
# The most node lines one DOT chunk holds.
_NODE_RUN = 1 << 12


def _dot_chunks(graph: Graph | Layout, state: StrategyVector | None) -> Iterator[str]:
    """The text of graph_to_dot(graph, state), chunk by chunk: the node
    lines a run of vertices with one strategy at a time, at most
    _NODE_RUN of them, and then the edge lines a vertex at a time."""
    yield "graph G {\n  node [shape=circle, style=filled];\n"
    n = graph.n
    bits = bytes(n) if state is None else state.bits
    v = 0
    while v < n:
        bit = bits[v]
        stop = min(n, v + _NODE_RUN)
        end = bits.find(b"\x00" if bit else b"\x01", v, stop)
        end = stop if end < 0 else end
        tail = _NODE_TAILS[bit]
        yield "  " + (tail + "  ").join(map(str, range(v, end))) + tail
        v = end
    yield from _edge_runs(graph, "  %d -- ", ";\n", "")
    yield "}\n"


def graph_to_dot(graph: Graph | Layout, state: StrategyVector | None = None) -> str:
    """DOT snapshot of graph G; cooperators are filled black, defectors white."""
    return "".join(_dot_chunks(graph, state))


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


def _role_text(runs: Iterable[RoleRun]) -> Iterator[str]:
    """The roles array's elements, one str.join per run of roles."""
    kind_text: dict[str, str] = {}
    for kind, fixed, last in runs:
        text = kind_text.get(kind) or kind_text.setdefault(kind, _ENCODER.encode(kind))
        head = "    [\n      " + ",\n      ".join([text, *map(str, fixed)])
        if last is None:
            yield head + "\n    ]"
        else:
            head += ",\n      "
            yield head + ("\n    ],\n" + head).join(map(str, last)) + "\n    ]"


def _instance_chunks(instance: ConstructedInstance) -> Iterator[str]:
    """The text of dumps(instance_to_dict(instance)) without that dict: the
    edges one vertex at a time from the sorted adjacency, the roles one run
    at a time, and every other field through the shared encoder.  The keys
    are written in sorted order."""
    encode = _ENCODER.encode
    graph = instance.graph
    yield '{\n  "graph": {\n    "edges": '
    yield from _array(
        _edge_runs(graph, "      [\n        %d,\n        ", "\n      ]", ",\n"), "    ")
    yield ',\n    "n": %s\n  },\n  "kind": %s,\n  "predicted_period": %s,\n  "roles": ' % (
        encode(graph.n), encode(instance.kind), encode(instance.predicted_period))
    yield from _array(_role_text(instance.role_runs()), "  ")
    # JSON text has no raw newline inside a string, so this indents it exactly.
    structural = encode(dict(instance.structural_params)).replace("\n", "\n  ")
    yield ',\n  "structural_params": %s,\n  "x0": %s\n}' % (
        structural, encode(instance.x0.to_string()))


def _json_chunks(obj: Any) -> Iterator[str]:
    """The text of dumps(obj), chunk by chunk; an instance's as
    dumps(instance_to_dict(obj)) with no per-edge or per-role list."""
    if isinstance(obj, ConstructedInstance):
        yield from _instance_chunks(obj)
    else:
        yield from _ENCODER.iterencode(obj)
    yield "\n"


# write_json and write_dot write, and _holds compares, text this many
# bytes at a time: the one buffer, besides one chunk, that any of them holds.
_BLOCK = 1 << 14


def _blocks(chunks: Iterable[str]) -> Iterator[bytes]:
    """The UTF-8 bytes of the chunks joined, in blocks of _BLOCK bytes and
    then one shorter block, which may be empty."""
    pending: list[str] = []
    rest, size = b"", 0  # size is at most the bytes of rest and pending
    for chunk in chunks:
        pending.append(chunk)
        size += len(chunk)
        if size >= _BLOCK:
            data = rest + "".join(pending).encode("utf-8")
            end = len(data) - len(data) % _BLOCK
            for start in range(0, end, _BLOCK):
                yield data[start:start + _BLOCK]
            rest = data[end:]
            pending.clear()
            size = len(rest)
    yield rest + "".join(pending).encode("utf-8")


def write_json(path: str | Path, obj: Any) -> None:
    """Write dumps(obj) a block at a time, never holding the whole text,
    so an instance takes memory within one vertex's edges or one role run."""
    with open(path, "wb") as handle:
        handle.writelines(_blocks(_json_chunks(obj)))


def write_dot(
    path: str | Path, graph: Graph | Layout, state: StrategyVector | None = None
) -> None:
    """Write graph_to_dot(graph, state) a block at a time, as write_json does."""
    with open(path, "wb") as handle:
        handle.writelines(_blocks(_dot_chunks(graph, state)))


# Each edge of an instance file in the layout of write_json takes at least
# this many bytes, "      [\n        0,\n        1\n      ]", and the file
# ends in its structural params, one integer per line, and then x0, one
# character per vertex.
MIN_EDGE_BYTES = 36
_PARAMS_KEY = b'\n  "structural_params": {'
_PARAMS = re.compile(rb'\n  "structural_params": \{((?:\n    "[a-z]+": [0-9]{1,18},?)+)'
                     rb'\n  \},\n  "x0": "')
_PARAM = re.compile(rb'"([a-z]+)": ([0-9]+)')


def _declared_params(handle: BinaryIO) -> Optional[dict[str, int]]:
    """The structural params in the tail of an instance file in the layout
    of write_json, or None when its tail has none in that layout.  The
    tail read is the file's size over MIN_EDGE_BYTES plus 4096 bytes:
    room for the x0 of a connected graph whose edges fill the file.  No
    JSON is parsed, only lines of the form "name": digits."""
    size = handle.seek(0, 2)
    tail_size = min(size, size // MIN_EDGE_BYTES + 4096)
    handle.seek(size - tail_size)
    tail = handle.read(tail_size)
    found = _PARAMS.match(tail, tail.rfind(_PARAMS_KEY))
    if found is None:
        return None
    return {name.decode(): int(value) for name, value in _PARAM.findall(found[1])}


def _holds(handle: BinaryIO, obj: Any) -> bool:
    """Whether the file holds exactly the bytes write_json writes for obj,
    final newline included.  It is read from the start against the blocks
    write_json would write, and left at the first block that differs."""
    handle.seek(0)
    return (all(handle.read(len(block)) == block for block in _blocks(_json_chunks(obj)))
            and not handle.read(1))  # and nothing after it


def _require_regular(path: str | Path) -> None:
    """Refuse a path that is not a regular file before anything opens it:
    /dev/zero is read without end, and opening a FIFO can block forever."""
    if not S_ISREG(Path(path).stat().st_mode):
        raise ValueError(f"{path} is not a regular file")


def read_json(path: str | Path) -> Any:
    _require_regular(path)
    return json.loads(Path(path).read_text(encoding="utf-8"))
