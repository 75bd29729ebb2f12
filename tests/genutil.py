"""Seeded random generators and partition helpers shared across the test modules."""

import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, groupby

import pytest

import evocycle.refine
from evocycle import GameParams, Graph, Quotient, StrategyVector, build_fcsh, build_hdpd, build_tree
from evocycle.constructions import ConstructedInstance, Role

SCENARIO_TAGS = ("PD", "SH", "HD", "FC")


def random_connected_graph(rng, n):
    """Connected graph on n >= 2 vertices: random tree plus random extras."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    candidates = [pair for pair in combinations(range(n), 2) if pair not in edges]
    rng.shuffle(candidates)
    extra = rng.randint(0, len(candidates))
    edges.update(candidates[:extra])
    return Graph(n, sorted(edges))


def is_connected(graph):
    """Whether a breadth-first walk from vertex 0 reaches every vertex."""
    reached = {0}
    order = [0]
    for v in order:
        for w in graph.neighbors(v):
            if w not in reached:
                reached.add(w)
                order.append(w)
    return len(reached) == graph.n


def relabel(graph, perm):
    """Image of the graph under the vertex relabeling v -> perm[v]."""
    if sorted(perm) != list(range(graph.n)):
        raise ValueError("perm is not a permutation of the vertices")
    return Graph(graph.n, ((perm[i], perm[j]) for i, j in graph.edges()))


def permuted(state, perm):
    """The state of relabel(graph, perm): vertex perm[v] plays v's strategy."""
    bits = bytearray(len(state))
    for v, bit in enumerate(state.bits):
        bits[perm[v]] = bit
    return StrategyVector(bits)


@contextmanager
def vertex_steps():
    """Within, the refinement of dynamics.step always gives up, so that
    every step decides every vertex on its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evocycle.refine, "_BUDGET_FLOOR", 0)
        patch.setattr(evocycle.refine, "_BUDGET_SHARE", sys.maxsize)
        yield


def random_rationals(rng, count, max_den=12, lo=-3, hi=3):
    """Strictly increasing rationals, denominators bounded by max_den."""
    values = set()
    while len(values) < count:
        den = rng.randint(1, max_den)
        values.add(Fraction(rng.randint(lo * den, hi * den), den))
    return sorted(values)


def random_scenario_params(rng, tag=None):
    """Admissible generic quadruple for the requested (or a random) scenario."""
    return scenario_params(tag or rng.choice(SCENARIO_TAGS), random_rationals(rng, 4))


def scenario_params(tag, values):
    """The quadruple of scenario `tag` made of four distinct rationals."""
    w, x, y, z = sorted(values)
    if tag == "PD":
        b, d, a, c = w, x, y, z
    elif tag == "SH":
        b, d, c, a = w, x, y, z
    elif tag == "HD":
        d, b, a, c = w, x, y, z
    else:
        d, b, c, a = w, x, y, z
    return GameParams(a, b, c, d)


def random_admissible_params(rng):
    """Admissible quadruple; roughly a quarter carry a tie (a=c or b=d)."""
    params = random_scenario_params(rng)
    roll = rng.randrange(4)
    if roll == 0:
        params = GameParams(params.a, params.b, params.a, params.d)
    elif roll == 1:
        params = GameParams(params.a, params.d, params.c, params.d)
    return params


def random_state(rng, n):
    return StrategyVector(rng.randrange(2) for _ in range(n))


def connected_graphs_upto(n_max):
    """Every connected labeled graph on 2..n_max vertices."""
    out = []
    for n in range(2, n_max + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if len(edges) < n - 1:
                continue
            try:
                graph = Graph(n, edges)
            except ValueError:
                continue
            if is_connected(graph):
                out.append(graph)
    return out


def canonical(keys):
    """Cell numbers in order of first appearance: equal lists, equal partitions."""
    ids = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def colour_refinement(graph, colours):
    """The coarsest equitable partition refining `colours` (1-WL), numbered
    by canonical."""
    cells = canonical(colours)
    while True:
        refined = canonical(
            (cells[v], tuple(sorted(cells[w] for w in graph.neighbors(v))))
            for v in range(graph.n)
        )
        if max(refined) == max(cells):  # refinement only splits cells
            return cells
        cells = refined


def build(family, sp):
    """The family's witness for the structural integers, built as a Graph by
    its builder."""
    return {"fcsh": build_fcsh, "hdpd": build_hdpd, "tree": build_tree}[family.kind](**sp)


def quotient_of(graph, cell_of):
    """The Quotient by the partition that puts vertex v in the cell named
    cell_of[v], cells numbered in order of first vertex and keyed by those
    names, or None when that partition is not equitable: one pass over the
    sorted adjacency compares each vertex's sorted list of neighbour cells
    with the first one seen in its cell."""
    if len(cell_of) != graph.n:
        raise ValueError(f"{len(cell_of)} cell keys for a graph with n={graph.n}")
    cells = canonical(cell_of)
    seen, first = {}, []
    for v, k in enumerate(cells):
        around = sorted(cells[w] for w in graph.neighbors(v))
        if k not in seen:
            seen[k] = around
            first.append(v)
        elif around != seen[k]:
            return None
    links = tuple(tuple((l, sum(1 for _ in run)) for l, run in groupby(seen[k]))
                  for k in range(len(first)))
    return Quotient(cells, tuple(first), links, tuple(cell_of[v] for v in first))


def reference_tree(r, q):
    """build_tree(r, q) grown vertex by vertex, as the builder once did,
    with the (role kind, level, attach level) key of every vertex: the
    oracle of tree_layout and tree_quotient."""
    roles, levels, special, branch, attach = [Role("root")], [0], [False], [-1], [-1]
    edges = []

    def add_child(par, level, is_special):
        v = len(levels)
        levels.append(level)
        special.append(is_special)
        # the r*r level-3 vertices are created consecutively from v = r + 2
        branch.append(v - (r + 2) if level == 3 else branch[par])
        roles.append(Role("special", (level,)) if is_special
                     else Role("ordinary", (level, branch[v])))
        attach.append(-1 if is_special else levels[par] if special[par] else attach[par])
        edges.append((par, v))
        return v

    frontier = [add_child(0, 1, True)]  # the root's only child
    for level in range(2, q):
        next_frontier = []
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

    instance = ConstructedInstance(
        "tree", Graph(len(levels), edges), StrategyVector(level <= q - 2 for level in levels),
        tuple(roles), {"r": r, "q": q}, 2 * (q - 3))
    keys = [(role.kind, level, j) for role, level, j in zip(roles, levels, attach)]
    return instance, keys
