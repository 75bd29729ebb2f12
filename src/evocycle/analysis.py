"""Verification of constructed instances against their designed dynamics.

Each verifier takes the states X(0) .. X(P) of one replay (or trajectory)
and compares every step with the pattern the construction is built to
realize. Mismatches come back as InvariantViolation records; an empty list
means the run matched the design exactly. Violations are data, not errors:
tampered instances or uncertified parameters produce records, never
exceptions.

The two tree verifiers decide each check once per cell of an equitable
partition: vertices keyed by (role kind, level, attach level, x0 bit).
All members of a cell share every fact a check reads (their bit, level,
attach level and degree, their linked cells and cooperating-neighbor
count), so when that run logs nothing the answer is [].  Otherwise, and
whenever the cells cannot serve (damaged structure, a partition that is
not equitable, a state that is not constant on cells), the same code runs
on the discrete partition, one cell per vertex, and reports per vertex in
vertex order.  Callers that run both verifiers hand them one set of
cells: the states projected once (_tree_cells), or a replay taken on the
cells alone (_tree_replay), whose states are lifted to the vertices only
when the cells find something.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import islice
from typing import Any, Callable, Hashable, Mapping, NamedTuple, Optional, Sequence

from .constructions import ConstructedInstance
# step is not called here; perfbench/tracing.py wraps this name.
from .dynamics import Quotient, _minimal_period, _states, step
from .game import GameParams, StrategyVector, _utility
from .solver import _tree_sides

__all__ = [
    "InvariantViolation",
    "MAX_VIOLATION_RECORDS",
    "f_of_t",
    "replay",
    "verify_fcsh_dynamics",
    "verify_hdpd_dynamics",
    "verify_tree_invariants",
    "check_local_lemmas",
]

MAX_VIOLATION_RECORDS = 1000
_TREE_ROLES = ("root", "special", "ordinary")


@dataclass(frozen=True)
class InvariantViolation:
    """One observed departure from the designed dynamics.

    expected/observed hold strategies for per-vertex checks and are None
    for structural or sequence-level findings, where detail explains.
    """

    time: int
    label: str
    vertex: Optional[int] = None
    expected: Optional[int] = None
    observed: Optional[int] = None
    detail: str = ""


class _ViolationLog:
    """Collects violations, capped at MAX_VIOLATION_RECORDS."""

    def __init__(self) -> None:
        self.records: list[InvariantViolation] = []

    def add(self, *fields: Any, **named: Any) -> None:
        """Record InvariantViolation(*fields, **named) while under the cap."""
        if len(self.records) < MAX_VIOLATION_RECORDS:
            self.records.append(InvariantViolation(*fields, **named))


def f_of_t(q: int, t: int) -> int:
    """Level of the deepest cooperating designated vertex at step t.

    f(t) = |t - q + 3| + 1; it walks from q - 2 down to 1 and back, which
    is what makes the tree trajectory close after 2(q - 3) steps. Defined
    for 0 <= t <= 2q - 6.
    """
    if not 0 <= t <= 2 * q - 6:
        raise ValueError(f"t={t} outside the period window 0..{2 * q - 6}")
    return abs(t - q + 3) + 1


def replay(
    instance: ConstructedInstance,
    params: GameParams,
    cells: Optional[Sequence[Hashable] | Quotient] = None,
) -> list[StrategyVector]:
    """X(0) .. X(P) of the instance, where P is its predicted period.

    The states come from the source `trajectory` draws on: with `cells`,
    one cell key per vertex, the steps are taken on the Quotient by those
    cells split by the x0 bit when that partition is equitable, and on
    the whole graph otherwise; the states are the same.  With a Quotient
    for `cells` they are taken on it, and the instance's graph may be a
    Layout.
    """
    states = _states(instance.graph, params, instance.x0, cells)
    return list(islice(states, instance.predicted_period + 1))


def _open_log(
    instance: ConstructedInstance,
    kind: str,
    states: Optional[Sequence[StrategyVector]],
    period: Optional[Callable[[Mapping[str, int]], int]] = None,
    cells: Optional[_Cells] = None,
) -> _ViolationLog:
    """An empty log, once instance has `kind` and states fit the verifier.

    With a period (a function of the structural params), states must be
    X(0) .. X(period) starting at x0; without one (the lemma scan), any
    X(0) .. X(T) with T >= 1 will do.  When states is None the cells'
    states stand for them, and those start at x0 by construction.
    """
    if instance.kind != kind:
        raise ValueError(f"expected kind {kind!r}, got kind={instance.kind!r}")
    count = len(cells.states if states is None else states)
    if period is None:
        if count < 2:
            raise ValueError("need at least the two states X(0) and X(1)")
    else:
        length = period(instance.structural_params) + 1
        if count != length or states is not None and states[0] != instance.x0:
            raise ValueError(f"need X(0) .. X({length - 1}) from x0, got {count} states")
    return _ViolationLog()


def _expect(
    log: _ViolationLog, state: Sequence[int], t: int, label: str, vertex: int, expected: int
) -> None:
    observed = state[vertex]
    if observed != expected:
        log.add(t, label, vertex, expected, observed)


def _closes(log: _ViolationLog, label: str, states: Sequence[Sequence[int]]) -> bool:
    """Log each vertex where X(P) differs from X(0); True when none does."""
    period = len(states) - 1
    start, final = states[0], states[period]
    for v in range(len(start)):
        if final[v] != start[v]:
            log.add(period, label, v, start[v], final[v])
    return final == start


def _clique_groups(
    instance: ConstructedInstance, key: Callable[[int], int]
) -> dict[int, list[int]]:
    """Vertices of the "K" cliques, grouped by key(first role index)."""
    groups: dict[int, list[int]] = {}
    for v, role in enumerate(instance.roles):
        if role.kind == "K":
            groups.setdefault(key(role.index[0]), []).append(v)
    return groups


def verify_fcsh_dynamics(
    instance: ConstructedInstance, params: GameParams, states: Sequence[StrategyVector]
) -> list[InvariantViolation]:
    """Check a build_fcsh instance against its designed trajectory.

    Over one period: the gadget vertices (H, I, J, F), the hub g, and the
    center cliques stay frozen at the initial state; the chain lights up
    outward, cliques at distance <= t cooperating and the rest defecting;
    and X(p) returns to X(0).
    """
    log = _open_log(instance, "fcsh", states, lambda sp: sp["p"])
    p = len(states) - 1
    x0 = instance.x0
    frozen = [
        v
        for v, role in enumerate(instance.roles)
        if role.kind in ("H", "I", "J", "F", "g") or (role.kind == "K" and role.index[0] == 0)
    ]
    by_distance = _clique_groups(instance, abs)

    for t in range(p):
        state = states[t]
        for v in frozen:
            _expect(log, state, t, "fcsh:frozen", v, x0[v])
        for n in range(1, p):
            expected = 1 if n <= t else 0
            for v in by_distance.get(n, ()):
                _expect(log, state, t, "fcsh:chain", v, expected)
    _closes(log, "fcsh:reset", states)
    return log.records


def verify_hdpd_dynamics(
    instance: ConstructedInstance, params: GameParams, states: Sequence[StrategyVector]
) -> list[InvariantViolation]:
    """Check a build_hdpd instance against its designed trajectory.

    Over one period: cliques K_1 .. K_(t+1) cooperate at step t while every
    other vertex keeps its previous strategy; the edgeless outer layer
    K_(p+1) defects throughout; and X(p) returns to X(0).
    """
    log = _open_log(instance, "hdpd", states, lambda sp: sp["p"])
    p = len(states) - 1
    vertices = range(len(instance.x0))
    by_layer = _clique_groups(instance, lambda layer: layer)

    for t in range(1, p):
        state, previous = states[t], states[t - 1]
        lit: set[int] = set()
        for n in range(1, t + 2):
            for v in by_layer.get(n, ()):
                lit.add(v)
                _expect(log, state, t, "hdpd:chain", v, 1)
        for v in vertices:
            if v not in lit:
                _expect(log, state, t, "hdpd:frozen", v, previous[v])
    for t in range(p):
        for v in by_layer.get(p + 1, ()):
            _expect(log, states[t], t, "hdpd:outer", v, 0)
    _closes(log, "hdpd:reset", states)
    return log.records


def _tree_shape(
    instance: ConstructedInstance, log: _ViolationLog
) -> Optional[tuple[list[int], list[int]]]:
    """Derive (level per vertex, attach levels), or None without one root.

    Levels come from the roles; parent links come from a breadth-first walk
    of the graph, cross-checked against the role levels. Inconsistencies
    (a tampered graph, say) are logged as tree:structure violations, and
    vertices whose ancestry cannot be resolved get attach level -1, which
    exempts them from the ancestry-based checks.
    """
    graph, n = instance.graph, instance.graph.n
    kind = [role.kind for role in instance.roles]
    roots = [v for v in range(n) if kind[v] == "root"]
    if len(roots) != 1:
        log.add(0, "tree:structure", detail=f"{len(roots)} root roles, expected 1")
        return None
    foreign = [k for k in kind if k not in _TREE_ROLES]
    if foreign:
        raise ValueError(f"role kind {foreign[0]!r} does not belong to a tree instance")
    level = [role.index[0] if role.kind != "root" else 0 for role in instance.roles]

    neighbors = graph.neighbors
    depth = [-1] * n
    attach = [-1] * n
    (root,) = roots
    depth[root] = 0
    order = [root]
    # Breadth-first order visits each parent before its children, so its
    # attach level is final when they are reached; ordinary children of
    # the root take the root's, -1.
    for v in order:  # grows while the walk runs
        below = depth[v] + 1
        inherited = level[v] if kind[v] == "special" else attach[v]
        for w in neighbors(v):
            if depth[w] == -1:
                depth[w] = below
                order.append(w)
                if kind[w] == "ordinary":
                    attach[w] = inherited
    for v in range(n):
        if depth[v] == -1:
            log.add(0, "tree:structure", v, detail="unreachable from the root")
        elif depth[v] != level[v]:
            log.add(
                0,
                "tree:structure",
                v,
                detail=f"role level {level[v]} but distance {depth[v]} from root",
            )
    return level, attach


class _Vertices(NamedTuple):
    """The discrete partition of a graph, one cell per vertex, read from
    the graph's own sorted adjacency: what the tree checks read of a
    Quotient, with every link count 1."""

    linked: Sequence[Sequence[int]]
    degree: list[int]

    def cooperators(self, bits: bytes) -> list[int]:
        return [sum(map(bits.__getitem__, around)) for around in self.linked]


class _Cells(NamedTuple):
    """A tree on the cells of a partition: per cell its role kind, level
    and attach level, per state one bit per cell.  The quotient gives each
    cell's linked cells, its degree and its cooperating-neighbor counts."""

    quotient: Quotient | _Vertices
    kind: list[str]
    level: list[int]
    attach: list[int]
    states: list[bytes]


# What a caller passes as `cells` once it has found that the tree's keyed
# cells cannot serve, so that no verifier builds them again: the checks go
# straight to the discrete partition.
NO_CELLS = _Cells(_Vertices((), []), [], [], [], [])


def _keyed_cells(instance: ConstructedInstance) -> Optional[_Cells]:
    """The tree on its cells keyed by (role kind, level, attach level, x0
    bit), with no states yet; None when its structure is damaged or that
    partition is not equitable."""
    structure = _ViolationLog()
    shape = _tree_shape(instance, structure)
    if shape is None or structure.records:
        return None
    level, attach = shape
    kind = [role.kind for role in instance.roles]
    quotient = Quotient.of(instance.graph, list(zip(kind, level, attach, instance.x0.bits)))
    if quotient is None:
        return None
    kind, level, attach = ([values[v] for v in quotient.first] for values in (kind, level, attach))
    return _Cells(quotient, kind, level, attach, [])


def _tree_cells(
    instance: ConstructedInstance, states: Sequence[StrategyVector]
) -> Optional[_Cells]:
    """The states on the tree's keyed cells, or None when those cannot
    serve: damaged structure, a partition that is not equitable, or a
    state that is not constant on cells."""
    cells = _keyed_cells(instance)
    if cells is None:
        return None
    quotient = cells.quotient
    bits = [bytes(map(state.bits.__getitem__, quotient.first)) for state in states]
    if any(quotient.lift(cell_bits) != state for cell_bits, state in zip(bits, states)):
        return None
    return cells._replace(states=bits)


def _tree_replay(instance: ConstructedInstance, params: GameParams) -> Optional[_Cells]:
    """X(0) .. X(P) of a tree instance on its keyed cells, stepped by
    Quotient.step from x0's cell bits, or None when those cells cannot
    serve (damaged structure, a partition that is not equitable).  The
    partition holds the x0 bit, so every state is constant on cells."""
    cells = _keyed_cells(instance)
    if cells is None:
        return None
    quotient = cells.quotient
    bits = bytes(map(instance.x0.bits.__getitem__, quotient.first))
    states = [bits]
    for _ in range(instance.predicted_period):
        bits = quotient.step(params, bits)
        states.append(bits)
    return cells._replace(states=states)


def _per_cell(
    instance: ConstructedInstance,
    states: Optional[Sequence[StrategyVector]],
    cells: Optional[_Cells],
    log: _ViolationLog,
    check: Callable[[_ViolationLog, _Cells], None],
    structure: _ViolationLog,
) -> list[InvariantViolation]:
    """Run check on the tree's cells (those given, else the states on its
    keyed cells) and return [] when it logs nothing there.  Otherwise, or
    when the cells cannot serve (NO_CELLS), log the tree's structure into
    structure and, if it has one root, run check into log on one cell per
    vertex, over the states or else the cells' states lifted, and return
    log's records."""
    if cells is None:
        cells = _tree_cells(instance, states) or NO_CELLS
    if cells is not NO_CELLS:
        trial = _ViolationLog()
        check(trial, cells)
        if not trial.records:
            return []
        if states is None:
            states = list(map(cells.quotient.lift, cells.states))
    shape = _tree_shape(instance, structure)
    if shape is not None:
        adj = instance.graph._adj
        kind = [role.kind for role in instance.roles]
        vertices = _Vertices(adj, list(map(len, adj)))
        check(log, _Cells(vertices, kind, *shape, [state.bits for state in states]))
    return log.records


def _tree_checks(log: _ViolationLog, cells: _Cells, q: int) -> None:
    """The checks of verify_tree_invariants but tree:structure, on cells."""
    quotient, kind, level, attach, states = cells
    linked = quotient.linked
    count = len(kind)
    period = len(states) - 1

    for k in range(count):
        _expect(log, states[0], 0, "tree:x0", k, 1 if level[k] <= q - 2 else 0)

    specials = [k for k in range(count) if kind[k] == "special"]
    ordinaries = [k for k in range(count) if kind[k] == "ordinary"]

    for t in range(period + 1):
        bits = states[t]
        f = f_of_t(q, t)  # the window is inclusive: f(2q-6) = f(0)
        for k in specials:
            l = level[k]
            _expect(log, bits, t, "tree:a", k, 1 if l <= f else 0)
            inner = all(bits[w] == bits[k] for w in linked[k])
            if (bits[k] == 1 and inner) != (l < f):
                log.add(t, "tree:b", k, detail=f"inner cooperator iff level {l} < f={f}")
            if (bits[k] == 0 and inner) != (l > f + 1):
                log.add(t, "tree:c", k, detail=f"inner defector iff level {l} > f+1={f + 1}")
        if t < q - 3:
            for k in ordinaries:
                j = attach[k]
                if j < 0:
                    continue
                if t >= 1 and j <= f + 1 and level[k] == j + 1:
                    _expect(log, bits, t, "tree:d", k, 1)
                if j > f + 1 and level[k] <= 2 * j - f - 1:
                    _expect(log, bits, t, "tree:e", k, 0)
        else:
            for k in range(count):
                if level[k] <= f:
                    _expect(log, bits, t, "tree:f", k, 1)
                elif level[k] <= f + 3:
                    _expect(log, bits, t, "tree:g", k, 0)

    if _closes(log, "tree:periodic", states):
        minimal = _minimal_period(states[:period])
        if minimal < period:
            log.add(
                minimal,
                "tree:minimal-period",
                detail=f"cycle already repeats after {minimal} < {period} steps",
            )


def verify_tree_invariants(
    instance: ConstructedInstance,
    params: GameParams,
    states: Optional[Sequence[StrategyVector]],
    cells: Optional[_Cells] = None,
) -> list[InvariantViolation]:
    """Check a build_tree instance against the breathing-ball pattern.

    Takes X(0) .. X(2(q-3)) and checks, per step t with f = f_of_t(q, t):

    * tree:x0        X(0) cooperates exactly on levels 0..q-2.
    * tree:a         designated vertex at level l cooperates iff l <= f.
    * tree:b         it is an inner cooperator iff l < f.
    * tree:c         it is an inner defector iff l > f + 1.
    * tree:d         (shrinking, 1 <= t < q-3) ordinary children of a
                     designated level-m vertex cooperate for m <= f + 1.
                     At t = 0 that set is fixed by X(0) instead: the
                     children of the level-(q-2) vertices still defect.
    * tree:e         (shrinking) ordinary descendants of a designated
                     level-m vertex within distance m - f - 1 defect, for
                     every m > f + 1; the binding case is m = attach level.
    * tree:f/g       (growing, t >= q-3) every vertex at level <= f
                     cooperates and levels f+1 .. f+3 defect.
    * tree:periodic  X(2q-6) equals X(0).
    * tree:minimal-period  no proper divisor of 2(q-3) is already a period
                     of the observed cycle.

    Only this verifier reports tree:structure violations.
    Nothing stronger is asserted; outside the listed sets the dynamics is
    free to do what it likes (and does, near the leaves).  The checks run
    once per cell of the tree's equitable partition (see _per_cell).
    `cells`, the states on those cells from _tree_cells or _tree_replay,
    saves building them here; with them, states may be None.  NO_CELLS
    says that they cannot serve, so the checks run per vertex at once.
    """
    log = _open_log(instance, "tree", states, lambda sp: 2 * (sp["q"] - 3), cells)
    check = partial(_tree_checks, q=instance.structural_params["q"])
    return _per_cell(instance, states, cells, log, check, structure=log)


def _lemma_checks(log: _ViolationLog, cells: _Cells, params: GameParams, r: int) -> None:
    """The four checks of check_local_lemmas, on cells."""
    quotient, kind, level, _, states = cells
    linked, degree = quotient.linked, quotient.degree
    (threshold, lean_defector), (rich_defector, surrounded) = _tree_sides(params, r).values()
    advance_applies = threshold > lean_defector
    retreat_applies = rich_defector > surrounded

    # Both laws concern vertices of degree r + 1 only.
    hinges = [k for k, d in enumerate(degree) if d == r + 1]
    children = [[w for w in around if level[w] == level[k] + 1] for k, around in enumerate(linked)]
    parents = [k for k, kids in enumerate(children) if kind[k] == "ordinary" and kids]

    @cache  # a defector's utility depends only on (cooperating neighbors, degree)
    def scores_below(coop_x: int, deg: int) -> bool:
        return _utility(params, 0, coop_x, deg) < threshold

    for t in range(len(states) - 1):
        bits, nxt = states[t], states[t + 1]
        coop = quotient.cooperators(bits)
        for i in hinges:
            if bits[i]:
                if not advance_applies or coop[i] != 1:
                    continue
                lean = [w for w in linked[i] if not bits[w]]
                if all(
                    degree[w] == r + 1
                    and coop[w] == 1
                    and all(scores_below(coop[x], degree[x]) for x in linked[w] if not bits[x])
                    for w in lean
                ):
                    for v in (i, *lean):
                        _expect(log, nxt, t + 1, "lemma:advance", v, 1)
            elif retreat_applies and coop[i] == r:
                for v in (i, *linked[i]):
                    _expect(log, nxt, t + 1, "lemma:retreat", v, 0)
        for i in parents:
            kids = children[i]
            first = bits[kids[0]]
            for w in kids[1:]:
                if bits[w] != first:
                    log.add(t, "lemma:siblings", w, first, bits[w])
            if retreat_applies and not bits[i]:
                for w in kids:
                    _expect(log, nxt, t + 1, "lemma:descend", w, 0)


def check_local_lemmas(
    instance: ConstructedInstance,
    params: GameParams,
    states: Optional[Sequence[StrategyVector]],
    cells: Optional[_Cells] = None,
) -> list[InvariantViolation]:
    """Scan a tree trajectory for the four local update laws.

    Over the T >= 1 transitions of states X(0) .. X(T), whenever a premise
    holds at time t the matching conclusion must hold at t + 1:

    * lemma:advance  a cooperator with one cooperating neighbor and r
      defecting neighbors of degree r + 1, each of which has no other
      cooperating neighbor and whose own defecting neighbors all score
      below (a + r*b)/(r+1), cooperates next step together with those
      defectors.  Requires a + r*b > c + r*d; skipped otherwise.
    * lemma:retreat  a defector with exactly one defecting neighbor and r
      cooperating ones defects next step, and so do all its neighbors.
      Requires a*(r+1) < r*c + d; skipped otherwise.
    * lemma:siblings ordinary siblings (children of one ordinary vertex)
      always share a strategy.
    * lemma:descend  children of a defecting ordinary vertex defect next
      step.  Relies on the same inequality as lemma:retreat.

    Levels come from the roles and premises from each state's cooperating-
    neighbor counts; verify_tree_invariants reports the tree's structure,
    and with not exactly one root role this scan reports nothing.  The
    checks run once per cell of the tree's equitable partition (see
    _per_cell); `cells` is as for verify_tree_invariants.
    """
    log = _open_log(instance, "tree", states, cells=cells)
    check = partial(_lemma_checks, params=params, r=instance.structural_params["r"])
    return _per_cell(instance, states, cells, log, check, structure=_ViolationLog())
