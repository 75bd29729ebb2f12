"""Two-strategy games on graphs: payoff quadruples, scenario classification,
graphs, strategy vectors, and the mean-utility layer.

Everything in this layer is exact. Payoffs are rationals, and every
comparison the dynamics makes is a strict rational comparison; floating
point is deliberately kept out because the update rule branches on ties.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress, islice
from operator import eq
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "RationalLike",
    "as_rational",
    "Scenario",
    "GameParams",
    "classify_scenario",
    "normalize_params",
    "Graph",
    "StrategyVector",
    "VertexClass",
    "mean_utility",
    "vertex_class",
]

RationalLike = Union[Fraction, int, str]


_MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def as_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational.

    Accepts Fractions, ints, and strings in "p/q" or decimal form ("0.45"
    becomes 9/20 exactly). Floats are rejected outright: a binary float
    already misrepresents decimal input, and the dynamics branches on
    strict comparisons, so there is no harmless way to accept one.
    Decimal exponents above 1000 in magnitude are refused, because
    Fraction expands the power of ten in full.
    """
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}; pass a string like '{value!r}' or a Fraction"
        )
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent is not None and abs(int(exponent.group(1))) > _MAX_EXPONENT:
            raise ValueError(
                f"decimal exponent {exponent.group(1)} exceeds {_MAX_EXPONENT} in magnitude"
            )
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


class Scenario(Enum):
    """The strict payoff orders an admissible quadruple can realize."""

    PD = "PD"  # prisoner's dilemma: c > a > d > b
    SH = "SH"  # stag hunt:          a > c > d > b
    HD = "HD"  # hawk and dove:      c > a > b > d
    FC = "FC"  # full cooperation:   a > c > b > d
    NON_ADMISSIBLE = "NonAdmissible"


@dataclass(frozen=True)
class GameParams:
    """Payoff quadruple (a, b, c, d) of a two-strategy matrix game.

    a: cooperator meeting a cooperator, b: cooperator meeting a defector,
    c: defector meeting a cooperator, d: defector meeting a defector.
    Fields are coerced through as_rational, so strings and ints are fine.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))

    @property
    def admissible(self) -> bool:
        """Playing against a cooperator always pays more than against a defector."""
        return min(self.a, self.c) > max(self.b, self.d)

    @property
    def generic(self) -> bool:
        """All four payoffs pairwise distinct."""
        return len({self.a, self.b, self.c, self.d}) == 4

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"(a={self.a}, b={self.b}, c={self.c}, d={self.d})"


def classify_scenario(params: GameParams) -> Scenario:
    """Classify a payoff quadruple by its strict order.

    Exactly one order matches any generic admissible quadruple.
    NON_ADMISSIBLE covers both genuinely inadmissible quadruples and
    admissible ones with tied payoffs, where no strict order holds; it is
    a value, not an error.
    """
    a, b, c, d = params.as_tuple()
    if c > a > d > b:
        return Scenario.PD
    if a > c > d > b:
        return Scenario.SH
    if c > a > b > d:
        return Scenario.HD
    if a > c > b > d:
        return Scenario.FC
    return Scenario.NON_ADMISSIBLE


def normalize_params(params: GameParams) -> GameParams:
    """Rescale payoffs affinely so that a = 1 and d = 0.

    Mean utilities are weighted averages of the payoffs, so a positive
    affine rescaling preserves every comparison the dynamics makes, and in
    particular the scenario label. Requires a > d, which holds for every
    admissible quadruple.
    """
    a, b, c, d = params.as_tuple()
    if a <= d:
        raise ValueError(f"cannot normalize: need a > d, got a={a}, d={d}")
    span = a - d
    return GameParams((a - d) / span, (b - d) / span, (c - d) / span, Fraction(0))


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Validated at construction: no loops, no multi-edges, and every vertex
    has at least one neighbor (mean utility averages over a nonempty
    neighborhood). Connectivity is reported via is_connected but not
    required.
    """

    __slots__ = ("_adj", "_edge_count", "_connected", "_step_counts")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            adj[i].append(j)
            adj[j].append(i)
        for v, nbrs in enumerate(adj):
            if not nbrs:
                raise ValueError(f"vertex {v} has degree 0")
            nbrs.sort()
            # a duplicate edge repeats a neighbor; v is its smaller endpoint
            w = next(compress(nbrs, map(eq, nbrs, islice(nbrs, 1, None))), None)
            if w is not None:
                raise ValueError(f"duplicate edge {(v, w)}")
        self._adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self._edge_count = sum(map(len, adj)) // 2
        self._connected: bool | None = None
        # Owned by dynamics.step: (bits, params, coop, table) of the last
        # state it returned, the cooperating-neighbor counts and the utility
        # rank of every key seen, in a list so that a call takes them with
        # one atomic pop.
        self._step_counts: list[tuple] = []

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def neighbors(self, vertex: int) -> tuple[int, ...]:
        return self._adj[vertex]

    def degree(self, vertex: int) -> int:
        return len(self._adj[vertex])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge once, as (i, j) with i < j, in lexicographic order."""
        for v, later in self.later_neighbors():
            for w in later:
                yield (v, w)

    def later_neighbors(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(v, the neighbors w > v of v in ascending order) for every
        vertex v that has one, in vertex order."""
        for v, nbrs in enumerate(self._adj):
            later = nbrs[bisect_right(nbrs, v):]
            if later:
                yield v, later

    @property
    def is_connected(self) -> bool:
        if self._connected is None:
            reached = bytearray(self.n)
            reached[0] = 1
            queue = deque([0])
            total = 1
            while queue:
                v = queue.popleft()
                for w in self._adj[v]:
                    if not reached[w]:
                        reached[w] = 1
                        total += 1
                        queue.append(w)
            self._connected = total == self.n
        return self._connected

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image of the graph under the vertex relabeling v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertices")
        return Graph(self.n, ((perm[i], perm[j]) for i, j in self.edges()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


_BIT_TO_CHAR = bytes.maketrans(b"\x00\x01", b"01")
_CHAR_ALIASES = str.maketrans("CDcd", "1010")


class StrategyVector:
    """One strategy per vertex: 1 cooperates, 0 defects."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] | bytes | bytearray) -> None:
        if isinstance(bits, str):
            raise TypeError("use StrategyVector.from_string for text input")
        data = bytes(bits)
        if not data:
            raise ValueError("empty strategy vector")
        if data.translate(None, b"\x00\x01"):
            raise ValueError("strategies must be 0 or 1")
        self._bits = data

    @classmethod
    def from_string(cls, text: str) -> "StrategyVector":
        """Parse one character per vertex: '1'/'C' cooperates, '0'/'D' defects."""
        normalized = text.translate(_CHAR_ALIASES)
        if not normalized or set(normalized) - {"0", "1"}:
            raise ValueError(f"not a strategy string: {text!r}")
        return cls(1 if ch == "1" else 0 for ch in normalized)

    @classmethod
    def uniform(cls, n: int, strategy: int) -> "StrategyVector":
        if strategy not in (0, 1):
            raise ValueError("strategy must be 0 or 1")
        return cls(bytes([strategy]) * n)

    @property
    def bits(self) -> bytes:
        return self._bits

    def to_string(self) -> str:
        return self._bits.translate(_BIT_TO_CHAR).decode("ascii")

    def count_cooperators(self) -> int:
        return sum(self._bits)

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, vertex: int) -> int:
        return self._bits[vertex]

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrategyVector):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:
        text = self.to_string()
        if len(text) > 60:
            text = text[:57] + "..."
        return f"StrategyVector('{text}')"


class VertexClass(Enum):
    """Position of a vertex relative to the cooperating/defecting clusters."""

    INNER_COOPERATOR = "IC"
    BOUNDARY_COOPERATOR = "BC"
    BOUNDARY_DEFECTOR = "BD"
    INNER_DEFECTOR = "ID"


def _check_state(graph: Graph, state: StrategyVector) -> None:
    if len(state) != graph.n:
        raise ValueError(f"state has {len(state)} entries, graph has {graph.n} vertices")


def _check_vertex(graph: Graph, vertex: int) -> None:
    """Refuse a vertex outside 0..n-1, which a tuple index would wrap or miss."""
    if not 0 <= vertex < graph.n:
        raise ValueError(f"vertex {vertex} outside graph with n={graph.n}")


def _require_at_least(minimum: int, **values: int) -> None:
    for name, value in values.items():
        if not isinstance(value, int) or value < minimum:
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _utility(params: GameParams, own: int, coop: int, deg: int) -> Fraction:
    """Mean utility of a vertex playing `own` with `coop` of `deg` neighbors cooperating."""
    if own:
        return (params.a * coop + params.b * (deg - coop)) / deg
    return (params.c * coop + params.d * (deg - coop)) / deg


def mean_utility(
    graph: Graph, params: GameParams, state: StrategyVector, vertex: int
) -> Fraction:
    """Average payoff of `vertex` against its neighbors under `state`.

    A cooperator earns (a * coop + b * defect) / degree, a defector
    (c * coop + d * defect) / degree, where coop and defect count the
    neighbor strategies.
    """
    _check_state(graph, state)
    _check_vertex(graph, vertex)
    nbrs = graph.neighbors(vertex)
    coop = sum(state[w] for w in nbrs)
    return _utility(params, state[vertex], coop, len(nbrs))


def vertex_class(graph: Graph, state: StrategyVector, vertex: int) -> VertexClass:
    """Inner vertices sit in a strategy-uniform closed neighborhood."""
    _check_state(graph, state)
    _check_vertex(graph, vertex)
    own = state[vertex]
    uniform = all(state[w] == own for w in graph.neighbors(vertex))
    if own:
        return VertexClass.INNER_COOPERATOR if uniform else VertexClass.BOUNDARY_COOPERATOR
    return VertexClass.INNER_DEFECTOR if uniform else VertexClass.BOUNDARY_DEFECTOR
