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

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .game import Graph, StrategyVector
from .solver import _require_at_least

__all__ = [
    "Role",
    "RoleMap",
    "ConstructedInstance",
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


class RoleMap:
    """Role lookup for every vertex of a constructed instance."""

    __slots__ = ("_roles",)

    def __init__(self, roles: Iterator[Role] | list[Role] | tuple[Role, ...]) -> None:
        self._roles: tuple[Role, ...] = tuple(roles)

    def __len__(self) -> int:
        return len(self._roles)

    def __getitem__(self, vertex: int) -> Role:
        return self._roles[vertex]

    def __iter__(self) -> Iterator[Role]:
        return iter(self._roles)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoleMap):
            return NotImplemented
        return self._roles == other._roles

    def vertices(self, kind: str) -> tuple[int, ...]:
        """All vertices carrying the given role kind, in index order."""
        return tuple(v for v, role in enumerate(self._roles) if role.kind == kind)

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for role in self._roles:
            counts[role.kind] = counts.get(role.kind, 0) + 1
        return counts


@dataclass(frozen=True)
class ConstructedInstance:
    """A built witness: graph, initial state, roles, and the target period."""

    kind: str
    graph: Graph
    x0: StrategyVector
    roles: RoleMap
    structural_params: Mapping[str, int]
    predicted_period: int


def _instance(kind: str, roles: list[Role], edges: list[tuple[int, int]],
              cooperators: Iterable[int], structural_params: dict[str, int],
              predicted_period: int) -> ConstructedInstance:
    """Bundle a finished build; x0 cooperates exactly on `cooperators`."""
    bits = bytearray(len(roles))
    for v in cooperators:
        bits[v] = 1
    graph = Graph(len(roles), edges)
    assert graph.is_connected
    return ConstructedInstance(kind, graph, StrategyVector(bits), RoleMap(roles),
                               structural_params, predicted_period)


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
    each as h, S1, S2, f.

    Initial state: the h and S1 vertices, all of K_0, and g cooperate;
    everything else defects. Designed minimal period: p (requires p >= 2;
    for period 1 any uniform state on any graph is already a fixed point).
    """
    _require_at_least(1, p=p, q=q, r=r, s=s)
    if p < 2:
        raise ValueError("p must be at least 2; uniform fixed points cover period 1")

    roles: list[Role] = []

    def add(role: Role) -> int:
        roles.append(role)
        return len(roles) - 1

    chain: dict[tuple[int, int], int] = {}
    for n in range(-(p - 1), p):
        for l in range(1, q + 1):
            chain[(n, l)] = add(Role("K", (n, l)))
    hub = add(Role("g"))

    edges: list[tuple[int, int]] = []
    for n in range(-(p - 1), p):
        members = [chain[(n, l)] for l in range(1, q + 1)]
        edges.extend(combinations(members, 2))
    for n in range(-(p - 1), p - 1):
        for l in range(1, q + 1):
            edges.append((chain[(n, l)], chain[(n + 1, l)]))
    for l in range(1, q + 1):
        edges.append((hub, chain[(0, l)]))

    cooperators: list[int] = [hub]
    cooperators.extend(chain[(0, l)] for l in range(1, q + 1))
    for l in range(1, q + 1):
        for m in range(1, r + 1):
            h = add(Role("H", (l, m)))
            s1 = [add(Role("I", (l, m, i))) for i in range(1, s + 1)]
            s2 = [add(Role("J", (l, m, i))) for i in range(1, s + 1)]
            f = add(Role("F", (l, m)))
            edges.extend((h, v) for v in s1)
            edges.extend((v, w) for v in s1 for w in s2)
            edges.append((f, s2[0]))
            edges.extend((f, chain[(n, l)]) for n in range(-(p - 1), p))
            cooperators.append(h)
            cooperators.extend(s1)

    return _instance("fcsh", roles, edges, cooperators, {"p": p, "q": q, "r": r, "s": s}, p)


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
    then g_R, g_D, g_C; then H, I, J.

    Initial state: K_1, the J vertices, and g_C cooperate (o + s + 1
    cooperators); everything else defects. Designed minimal period: p
    (requires p >= 2; uniform fixed points cover period 1).
    """
    _require_at_least(1, p=p, o=o, q=q, r=r, s=s)
    if p < 2:
        raise ValueError("p must be at least 2; uniform fixed points cover period 1")

    roles: list[Role] = []

    def add(role: Role) -> int:
        roles.append(role)
        return len(roles) - 1

    chain: dict[tuple[int, int], int] = {}
    for n in range(1, p + 2):
        for m in range(1, o + 1):
            chain[(n, m)] = add(Role("K", (n, m)))
    g_r = add(Role("g_R"))
    g_d = add(Role("g_D"))
    g_c = add(Role("g_C"))
    pendants_h = [add(Role("H", (i,))) for i in range(1, q + 1)]
    pendants_i = [add(Role("I", (i,))) for i in range(1, r + 1)]
    bridge_j = [add(Role("J", (i,))) for i in range(1, s + 1)]

    edges: list[tuple[int, int]] = []
    for n in range(1, p + 1):  # K_(p+1) stays edgeless inside
        members = [chain[(n, m)] for m in range(1, o + 1)]
        edges.extend(combinations(members, 2))
    for n in range(1, p + 1):
        for m in range(1, o + 1):
            edges.append((chain[(n, m)], chain[(n + 1, m)]))
    for n in range(2, p + 1):
        for m in range(1, o + 1):
            edges.append((g_r, chain[(n, m)]))
    edges.extend((g_r, v) for v in pendants_h)
    edges.append((g_r, g_d))
    edges.extend((g_d, v) for v in pendants_i)
    edges.extend((g_d, v) for v in bridge_j)
    edges.extend((g_c, v) for v in bridge_j)

    cooperators = [chain[(1, m)] for m in range(1, o + 1)] + bridge_j + [g_c]
    structural = {"p": p, "o": o, "q": q, "r": r, "s": s}
    return _instance("hdpd", roles, edges, cooperators, structural, p)


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

    levels: list[int] = [0]
    parent: list[int] = [-1]
    special: list[bool] = [False]
    branch: list[int] = [-1]
    edges: list[tuple[int, int]] = []
    branch_count = 0

    def add_child(par: int, level: int, is_special: bool) -> int:
        nonlocal branch_count
        v = len(levels)
        levels.append(level)
        parent.append(par)
        special.append(is_special)
        if level == 3:
            branch.append(branch_count)
            branch_count += 1
        else:
            branch.append(branch[par])
        edges.append((par, v))
        return v

    root = 0
    h1 = add_child(root, 1, True)
    frontier = [h1]
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

    n_vertices = len(levels)
    roles: list[Role] = []
    for v in range(n_vertices):
        if v == root:
            roles.append(Role("root"))
        elif special[v]:
            roles.append(Role("special", (levels[v],)))
        else:
            roles.append(Role("ordinary", (levels[v], branch[v])))

    cooperators = (v for v in range(n_vertices) if levels[v] <= q - 2)
    instance = _instance("tree", roles, edges, cooperators, {"r": r, "q": q}, 2 * (q - 3))
    assert instance.graph.edge_count == n_vertices - 1
    return instance
