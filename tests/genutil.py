"""Seeded random generators and partition helpers shared across the test modules."""

from fractions import Fraction
from itertools import combinations

from evocycle import GameParams, Graph, StrategyVector

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


def relabel(graph, perm):
    """Image of the graph under the vertex relabeling v -> perm[v]."""
    if sorted(perm) != list(range(graph.n)):
        raise ValueError("perm is not a permutation of the vertices")
    return Graph(graph.n, ((perm[i], perm[j]) for i, j in graph.edges()))


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
            if graph.is_connected:
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
