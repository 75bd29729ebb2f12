"""Builders for graphs that carry periodic imitation trajectories.

Three families, one per parameter regime:

* build_fcsh: a chain of cliques fed by bipartite gadgets, for parameters
  with a > c (full-cooperation and stag-hunt orders). Cooperation spreads
  outward along the chain from its center and is reset by the gadget
  feelers after p steps.
* build_hdpd: a chain of cliques attached to a resetting hub, for
  parameters with c > a (hawk-dove and prisoner's-dilemma orders).
  Cooperation spreads down the chain from the first clique and the hub
  wipes it after p steps.
* build_tree: an r-ary tree whose ball of cooperators shrinks to the root
  and grows back, giving period 2(q - 3).

Each builder returns a ConstructedInstance bundling the graph, the initial
state, a role for every vertex, the structural integers, and the period the
instance is designed to realize. Vertex layouts are deterministic and
documented per builder, so equal inputs give byte-identical instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping

from .dynamics import Quotient
from .game import Graph, StrategyVector, _require_at_least

__all__ = [
    "Role",
    "Layout",
    "ConstructedInstance",
    "fcsh_layout",
    "fcsh_quotient",
    "hdpd_layout",
    "hdpd_quotient",
    "build_fcsh",
    "build_hdpd",
    "build_tree",
]


@dataclass(frozen=True)
class Role:
    """Structural tag of a vertex: a kind plus integer coordinates.

    The coordinate layout per kind is fixed by the builder that emits it;
    see the builder docstrings.
    """

    kind: str
    index: tuple[int, ...] = ()


@dataclass(frozen=True)
class Layout:
    """The graph of a clique-chain witness in closed form: its vertex
    count, and for every vertex with a neighbour above it those
    neighbours in ascending order, written as a few ranges from the
    structural integers.  It is what build_fcsh and build_hdpd build
    their Graph from, and what serialize writes a file or a DOT text
    from; later_neighbors is called like Graph's method of that name."""

    n: int
    later_neighbors: Callable[[], Iterator[tuple[int, Iterable[int]]]]


@dataclass(frozen=True)
class ConstructedInstance:
    """A built witness: graph, initial state, roles, and the target period.

    graph is a Graph, or for an instance taken from its structural
    integers alone (fcsh_layout, hdpd_layout) their Layout, which has the
    vertex count and the sorted neighbours but no adjacency to step on.
    """

    kind: str
    graph: Graph | Layout
    x0: StrategyVector
    roles: tuple[Role, ...]
    structural_params: Mapping[str, int]
    predicted_period: int


def _bits(n: int, cooperators: Iterable[range]) -> StrategyVector:
    """The state on n vertices that cooperates exactly on the ranges."""
    bits = bytearray(n)
    for run in cooperators:
        bits[run.start:run.stop] = b"\x01" * len(run)
    return StrategyVector(bits)


def _built(instance: ConstructedInstance) -> ConstructedInstance:
    """The instance with its Layout replaced by the Graph of the same edges."""
    layout = instance.graph
    graph = Graph(layout.n, ((v, w) for v, later in layout.later_neighbors() for w in later))
    assert graph.is_connected
    return replace(instance, graph=graph)


def _require_period(p: int) -> None:
    if p < 2:
        raise ValueError("p must be at least 2; uniform fixed points cover period 1")


def fcsh_layout(p: int, q: int, r: int, s: int) -> ConstructedInstance:
    """The instance of build_fcsh(p, q, r, s) with its Layout for a graph.

    Vertex v < (2p-1)q is K_n position l with divmod(v, q) = (n + p - 1,
    l - 1), and the gadget (l, m) starts at (2p-1)q + 1 + ((l-1)r + m-1)
    (2s + 2).  Above a chain vertex lie the rest of its clique, its rung
    to K_(n+1), g for n = 0, and the r feelers of position l, which are
    2s + 2 apart; above h its S1, above each S1 vertex all of S2, and
    above the first S2 vertex its feeler.
    """
    _require_at_least(1, p=p, q=q, r=r, s=s)
    _require_period(p)
    chain_end = (2 * p - 1) * q  # also the hub g
    width = 2 * s + 2  # one gadget: h, S1, S2, f
    gadgets = chain_end + 1
    n = gadgets + q * r * width

    def later_neighbors() -> Iterator[tuple[int, Iterable[int]]]:
        for v in range(chain_end):
            clique, position = divmod(v, q)
            runs: list[Iterable[int]] = [range(v + 1, (clique + 1) * q)]
            if clique < 2 * p - 2:
                runs.append((v + q,))
            if clique == p - 1:
                runs.append((chain_end,))
            feeler = gadgets + position * r * width + width - 1
            runs.append(range(feeler, feeler + r * width, width))
            yield v, chain.from_iterable(runs)
        for h in range(gadgets, n, width):
            yield h, range(h + 1, h + s + 1)
            side_2 = range(h + s + 1, h + 2 * s + 1)
            for v in range(h + 1, h + s + 1):
                yield v, side_2
            yield h + s + 1, (h + 2 * s + 1,)

    roles = [Role("K", (k, l)) for k in range(-(p - 1), p) for l in range(1, q + 1)]
    roles.append(Role("g"))
    for l in range(1, q + 1):
        for m in range(1, r + 1):
            roles.append(Role("H", (l, m)))
            roles.extend(Role("I", (l, m, i)) for i in range(1, s + 1))
            roles.extend(Role("J", (l, m, i)) for i in range(1, s + 1))
            roles.append(Role("F", (l, m)))
    # K_0 and g are one run; then each gadget's h and S1.
    x0 = _bits(n, [range((p - 1) * q, p * q), range(chain_end, chain_end + 1),
                   *(range(h, h + s + 1) for h in range(gadgets, n, width))])
    return ConstructedInstance("fcsh", Layout(n, later_neighbors), x0, tuple(roles),
                               {"p": p, "q": q, "r": r, "s": s}, p)


def build_fcsh(p: int, q: int, r: int, s: int) -> ConstructedInstance:
    """Clique chain with bipartite hub gadgets, for payoffs with a > c.

    Structure. A chain of 2p - 1 cliques K_n of size q each, indexed
    n = -(p-1) .. p-1, with rung edges joining position l of K_n to
    position l of K_(n+1). A hub g adjacent to all of K_0. For every chain
    position l (1..q) and every copy m (1..r) a gadget: a vertex h
    adjacent to one side S1 (s vertices), the complete bipartite coupling
    S1 x S2 (s vertices each), and a feeler f adjacent to exactly one S2
    vertex and to all 2p - 1 chain vertices at position l.

    Roles. "K" with index (n, l); "g"; per gadget "H" (l, m), "I" (l, m, i)
    for S1, "J" (l, m, i) for S2, "F" (l, m).

    Layout. Chain vertices first, clique by clique for n ascending and l
    ascending within each clique; then g; then the gadgets in (l, m) order,
    each as h, S1, S2, f.  fcsh_layout writes it down.

    Initial state: the h and S1 vertices, all of K_0, and g cooperate;
    everything else defects. Designed minimal period: p (requires p >= 2;
    for period 1 any uniform state on any graph is already a fixed point).
    """
    return _built(fcsh_layout(p, q, r, s))


def hdpd_layout(p: int, o: int, q: int, r: int, s: int) -> ConstructedInstance:
    """The instance of build_hdpd(p, o, q, r, s) with its Layout for a graph.

    Vertex v < (p+1)o is K_n position m with divmod(v, o) = (n - 1, m - 1),
    and g_R = (p+1)o.  Above a vertex of K_1 .. K_p lie the rest of its
    clique, its rung to K_(n+1) and, from K_2 on, g_R; above g_R lie g_D
    and H, above g_D all of I and J, and above g_C all of J.
    """
    _require_at_least(1, p=p, o=o, q=q, r=r, s=s)
    _require_period(p)
    g_r = (p + 1) * o
    g_c, pendants = g_r + 2, g_r + 3
    n = pendants + q + r + s

    def later_neighbors() -> Iterator[tuple[int, Iterable[int]]]:
        for v in range(p * o):  # K_(p+1) has no neighbour above it
            layer = v // o
            runs: list[Iterable[int]] = [range(v + 1, (layer + 1) * o), (v + o,)]
            if layer:
                runs.append((g_r,))
            yield v, chain.from_iterable(runs)
        yield g_r, chain((g_r + 1,), range(pendants, pendants + q))
        yield g_r + 1, range(pendants + q, n)
        yield g_c, range(n - s, n)

    roles = [Role("K", (k, m)) for k in range(1, p + 2) for m in range(1, o + 1)]
    roles += [Role("g_R"), Role("g_D"), Role("g_C")]
    for kind, count in (("H", q), ("I", r), ("J", s)):
        roles.extend(Role(kind, (i,)) for i in range(1, count + 1))
    x0 = _bits(n, [range(o), range(g_c, g_c + 1), range(n - s, n)])
    return ConstructedInstance("hdpd", Layout(n, later_neighbors), x0, tuple(roles),
                               {"p": p, "o": o, "q": q, "r": r, "s": s}, p)


def build_hdpd(p: int, o: int, q: int, r: int, s: int) -> ConstructedInstance:
    """Clique chain with a resetting hub, for payoffs with c > a.

    Structure. A chain of p cliques K_1 .. K_p of size o each, extended by
    a layer K_(p+1) of o pairwise nonadjacent vertices, with rung edges
    joining position m of K_n to position m of K_(n+1) for n = 1..p. A hub
    g_R adjacent to every vertex of K_2 .. K_p, to q pendant vertices (the
    H set), and to a second hub g_D. g_D is adjacent to r pendant vertices
    (the I set) and to s vertices of degree two (the J set), each of which
    is also adjacent to a third hub g_C.

    Roles. "K" with index (n, m) for 1 <= n <= p+1; "g_R", "g_D", "g_C";
    "H" (i), "I" (i), "J" (i).

    Layout. Chain vertices clique by clique for n = 1..p+1 and m ascending;
    then g_R, g_D, g_C; then H, I, J.  hdpd_layout writes it down.

    Initial state: K_1, the J vertices, and g_C cooperate (o + s + 1
    cooperators); everything else defects. Designed minimal period: p
    (requires p >= 2; uniform fixed points cover period 1).
    """
    return _built(hdpd_layout(p, o, q, r, s))


def _quotient(cell_of: list[int], first: Iterable[int],
              links: Iterable[Mapping[int, int]]) -> Quotient:
    """The Quotient with these cells, first members and, per cell, its
    neighbour count in every other cell (a count of 0 is no link)."""
    return Quotient(cell_of, tuple(first), tuple(
        tuple(sorted((l, count) for l, count in cell.items() if count)) for cell in links))


def fcsh_quotient(p: int, q: int, r: int, s: int) -> Quotient:
    """Quotient.of(build_fcsh(p, q, r, s).graph, cells) for the cells K_n
    and K_-n by |n|, g, h, S1, the S2 vertex a feeler touches, the other
    S2 vertices, and f, split by x0 (on which they are constant), written
    from the integers and numbered in order of first vertex as there."""
    _require_at_least(1, p=p, q=q, r=r, s=s)
    _require_period(p)
    chain_end = (2 * p - 1) * q
    g, h, side_1, feeler_side = p, p + 1, p + 2, p + 3
    rest, f = (p + 4, p + 5) if s > 1 else (None, p + 4)

    def clique(a: int) -> int:  # the cell of K_a and K_-a
        return p - 1 - a

    cell_of: list[int] = []
    for k in range(-(p - 1), p):
        cell_of += [clique(abs(k))] * q
    cell_of.append(g)
    cell_of += ([h] + [side_1] * s + [feeler_side] + [rest] * (s - 1) + [f]) * (q * r)
    first = [*range(0, p * q, q), chain_end, chain_end + 1, chain_end + 2, chain_end + s + 2]
    if rest is not None:
        first.append(chain_end + s + 3)
    first.append(chain_end + 2 * s + 2)
    links: list[dict] = []
    for a in range(p - 1, -1, -1):
        cell = {clique(a): q - 1, f: r}
        if a:
            cell[clique(a - 1)] = 1
            if a < p - 1:
                cell[clique(a + 1)] = 1
        else:  # both K_1 and K_-1 are rungs away, and g is adjacent
            cell.update({clique(1): 2, g: 1})
        links.append(cell)
    links += [
        {clique(0): q},  # g
        {side_1: s},  # h
        {h: 1, feeler_side: 1, rest: s - 1},  # S1
        {side_1: s, f: 1},  # the S2 vertex its feeler touches
        *([{side_1: s}] if rest is not None else []),  # the other S2 vertices
        {clique(0): 1, **{clique(a): 2 for a in range(1, p)}, feeler_side: 1},  # f
    ]
    return _quotient(cell_of, first, links)


def hdpd_quotient(p: int, o: int, q: int, r: int, s: int) -> Quotient:
    """Quotient.of(build_hdpd(p, o, q, r, s).graph, cells) for the cells
    K_1 .. K_(p+1), g_R, g_D, g_C, H, I and J, split by x0 (on which they
    are constant), written from the integers and numbered in order of
    first vertex as there."""
    _require_at_least(1, p=p, o=o, q=q, r=r, s=s)
    _require_period(p)
    g_r, g_d, g_c, h, i, j = range(p + 1, p + 7)
    cell_of = [layer for layer in range(p + 1) for _ in range(o)]
    cell_of += [g_r, g_d, g_c] + [h] * q + [i] * r + [j] * s
    hubs = (p + 1) * o
    first = [*range(0, hubs, o), *(hubs + k for k in (0, 1, 2, 3, 3 + q, 3 + q + r))]
    links: list[dict] = []
    for layer in range(p):  # K_(layer+1)
        cell = {layer: o - 1, layer + 1: 1}
        if layer:
            cell[layer - 1] = 1
            cell[g_r] = 1
        links.append(cell)
    links += [
        {p - 1: 1},  # K_(p+1)
        {**{layer: o for layer in range(1, p)}, g_d: 1, h: q},  # g_R
        {g_r: 1, i: r, j: s},  # g_D
        {j: s},  # g_C
        {g_r: 1},  # H
        {g_d: 1},  # I
        {g_d: 1, g_c: 1},  # J
    ]
    return _quotient(cell_of, first, links)


def build_tree(r: int, q: int) -> ConstructedInstance:
    """Rooted r-ary tree whose cooperating ball shrinks and regrows.

    Structure. A root with a single child; every vertex on levels 1..q-2
    has exactly r children, so level l holds r^(l-1) vertices for
    1 <= l <= q-1. One designated path per level-3 vertex continues to
    level q-1 and stops there: those r*r level-(q-1) vertices are leaves
    with pairwise distinct level-3 ancestors. Every other level-(q-1)
    vertex gets r leaf children on level q.

    The designated vertices are the level-1 vertex, all of levels 2 and 3,
    and from each level-3 vertex the chain of first children (in creation
    order) down to level q-1.

    Roles. "root"; "special" with index (level,) for designated vertices;
    "ordinary" with index (level, branch) otherwise, where branch numbers
    the level-3 ancestor in index order starting from 0.

    Layout: breadth first; children are created in parent order, so child
    indices are consecutive per parent and increase with depth.

    Initial state: levels 0..q-2 cooperate, deeper levels defect.
    Designed minimal period: 2(q - 3). Requires r >= 2 and q >= 5.
    """
    _require_at_least(2, r=r)
    _require_at_least(5, q=q)

    roles: list[Role] = [Role("root")]
    levels: list[int] = [0]
    special: list[bool] = [False]
    branch: list[int] = [-1]
    edges: list[tuple[int, int]] = []

    def add_child(par: int, level: int, is_special: bool) -> int:
        v = len(levels)
        levels.append(level)
        special.append(is_special)
        # the r*r level-3 vertices are created consecutively from v = r + 2
        branch.append(v - (r + 2) if level == 3 else branch[par])
        roles.append(Role("special", (level,)) if is_special
                     else Role("ordinary", (level, branch[v])))
        edges.append((par, v))
        return v

    frontier = [add_child(0, 1, True)]  # the root's only child
    for level in range(2, q):
        next_frontier: list[int] = []
        for par in frontier:
            for child_pos in range(r):
                # levels 2 and 3 are fully designated; deeper designated
                # vertices are the first children of designated parents
                is_special = level <= 3 or (special[par] and child_pos == 0)
                next_frontier.append(add_child(par, level, is_special))
        frontier = next_frontier
    for par in frontier:
        if not special[par]:  # designated level-(q-1) vertices stay leaves
            for _ in range(r):
                add_child(par, q, False)

    graph = Graph(len(levels), edges)
    assert graph.is_connected and graph.edge_count == graph.n - 1
    x0 = StrategyVector(bytes(level <= q - 2 for level in levels))
    return ConstructedInstance("tree", graph, x0, tuple(roles), {"r": r, "q": q}, 2 * (q - 3))
