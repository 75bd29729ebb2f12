"""Verification of constructed instances against their designed dynamics.

Each verifier takes the states X(0) .. X(P) of one replay (or trajectory)
and compares every step with the pattern the construction is built to
realize. Mismatches come back as InvariantViolation records; an empty list
means the run matched the design exactly. Violations are data, not errors:
tampered instances or uncertified parameters produce records, never
exceptions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import Any, Callable, Hashable, Mapping, Optional, Sequence

from .constructions import ConstructedInstance, Role
# step is not called here; perfbench/tracing.py wraps this name.
from .dynamics import _minimal_period, _states, step
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
    cells: Optional[Sequence[Hashable]] = None,
) -> list[StrategyVector]:
    """X(0) .. X(P) of the instance, where P is its predicted period.

    The states come from the source `trajectory` draws on: with `cells`,
    one cell key per vertex, the steps are taken on the Quotient by those
    cells split by the x0 bit when that partition is equitable, and on
    the whole graph otherwise; the states are the same.
    """
    states = _states(instance.graph, params, instance.x0, cells)
    return list(islice(states, instance.predicted_period + 1))


def _open_log(
    instance: ConstructedInstance,
    kind: str,
    states: Sequence[StrategyVector],
    period: Optional[Callable[[Mapping[str, int]], int]] = None,
) -> _ViolationLog:
    """An empty log, once instance has `kind` and states fit the verifier.

    With a period (a function of the structural params), states must be
    X(0) .. X(period) starting at x0; without one (the lemma scan), any
    X(0) .. X(T) with T >= 1 will do.
    """
    if instance.kind != kind:
        raise ValueError(f"expected kind {kind!r}, got kind={instance.kind!r}")
    if period is None:
        if len(states) < 2:
            raise ValueError("need at least the two states X(0) and X(1)")
    else:
        length = period(instance.structural_params) + 1
        if len(states) != length or states[0] != instance.x0:
            raise ValueError(f"need X(0) .. X({length - 1}) from x0, got {len(states)} states")
    return _ViolationLog()


def _expect(
    log: _ViolationLog, state: StrategyVector, t: int, label: str, vertex: int, expected: int
) -> None:
    observed = state[vertex]
    if observed != expected:
        log.add(t, label, vertex, expected, observed)


def _closes(log: _ViolationLog, label: str, states: Sequence[StrategyVector]) -> bool:
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
    by_layer = _clique_groups(instance, lambda layer: layer)

    for t in range(1, p):
        state, previous = states[t], states[t - 1]
        lit: set[int] = set()
        for n in range(1, t + 2):
            for v in by_layer.get(n, ()):
                lit.add(v)
                _expect(log, state, t, "hdpd:chain", v, 1)
        for v in range(instance.graph.n):
            if v not in lit:
                _expect(log, state, t, "hdpd:frozen", v, previous[v])
    for t in range(p):
        for v in by_layer.get(p + 1, ()):
            _expect(log, states[t], t, "hdpd:outer", v, 0)
    _closes(log, "hdpd:reset", states)
    return log.records


def _of_kind(roles: Sequence[Role], kind: str) -> tuple[int, ...]:
    """All vertices carrying the given role kind, in index order."""
    return tuple(v for v, role in enumerate(roles) if role.kind == kind)


def _role_levels(instance: ConstructedInstance) -> list[int]:
    """Level of every tree vertex, as its role states it."""
    foreign = [role.kind for role in instance.roles if role.kind not in _TREE_ROLES]
    if foreign:
        raise ValueError(f"role kind {foreign[0]!r} does not belong to a tree instance")
    return [role.index[0] if role.kind != "root" else 0 for role in instance.roles]


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
    graph, roles = instance.graph, instance.roles
    n = graph.n
    root_vertices = _of_kind(roles, "root")
    if len(root_vertices) != 1:
        log.add(0, "tree:structure", detail=f"{len(root_vertices)} root roles, expected 1")
        return None
    root = root_vertices[0]
    level = _role_levels(instance)

    parent = [-1] * n
    depth = [-1] * n
    depth[root] = 0
    queue = deque([root])
    order = [root]
    while queue:
        v = queue.popleft()
        for w in graph.neighbors(v):
            if depth[w] == -1:
                depth[w] = depth[v] + 1
                parent[w] = v
                queue.append(w)
                order.append(w)
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

    # Breadth-first order visits each parent before its children; ordinary
    # children of the root take the root's attach level, -1.
    attach = [-1] * n
    for v in order:
        if roles[v].kind == "ordinary":
            par = parent[v]
            attach[v] = level[par] if roles[par].kind == "special" else attach[par]
    return level, attach


def verify_tree_invariants(
    instance: ConstructedInstance, params: GameParams, states: Sequence[StrategyVector]
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
    free to do what it likes (and does, near the leaves).
    """
    log = _open_log(instance, "tree", states, lambda sp: 2 * (sp["q"] - 3))
    q = instance.structural_params["q"]
    period = len(states) - 1
    shape = _tree_shape(instance, log)
    if shape is None:
        return log.records
    level, attach = shape
    graph, roles = instance.graph, instance.roles
    n = graph.n
    x0 = instance.x0

    for v in range(n):
        _expect(log, x0, 0, "tree:x0", v, 1 if level[v] <= q - 2 else 0)

    specials = _of_kind(roles, "special")
    ordinaries = _of_kind(roles, "ordinary")

    for t in range(period + 1):
        state = states[t]
        f = f_of_t(q, t)  # the window is inclusive: f(2q-6) = f(0)
        bits = state.bits
        for v in specials:
            l = level[v]
            _expect(log, state, t, "tree:a", v, 1 if l <= f else 0)
            nbrs = graph.neighbors(v)
            inner = all(bits[w] == bits[v] for w in nbrs)
            if (bits[v] == 1 and inner) != (l < f):
                log.add(t, "tree:b", v, detail=f"inner cooperator iff level {l} < f={f}")
            if (bits[v] == 0 and inner) != (l > f + 1):
                log.add(t, "tree:c", v, detail=f"inner defector iff level {l} > f+1={f + 1}")
        if t < q - 3:
            for v in ordinaries:
                j = attach[v]
                if j < 0:
                    continue
                if t >= 1 and j <= f + 1 and level[v] == j + 1:
                    _expect(log, state, t, "tree:d", v, 1)
                if j > f + 1 and level[v] <= 2 * j - f - 1:
                    _expect(log, state, t, "tree:e", v, 0)
        else:
            for v in range(n):
                if level[v] <= f:
                    _expect(log, state, t, "tree:f", v, 1)
                elif level[v] <= f + 3:
                    _expect(log, state, t, "tree:g", v, 0)

    if _closes(log, "tree:periodic", states):
        minimal = _minimal_period(states[:period])
        if minimal < period:
            log.add(
                minimal,
                "tree:minimal-period",
                detail=f"cycle already repeats after {minimal} < {period} steps",
            )
    return log.records


def check_local_lemmas(
    instance: ConstructedInstance, params: GameParams, states: Sequence[StrategyVector]
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
    neighbor counts; verify_tree_invariants checks the tree's structure.
    """
    log = _open_log(instance, "tree", states)
    r = instance.structural_params["r"]
    roles = instance.roles
    if len(_of_kind(roles, "root")) != 1:
        return log.records  # verify_tree_invariants reports the damage
    level = _role_levels(instance)
    graph = instance.graph
    adj = [graph.neighbors(v) for v in range(graph.n)]
    (threshold, lean_defector), (rich_defector, surrounded) = _tree_sides(params, r).values()
    advance_applies = threshold > lean_defector
    retreat_applies = rich_defector > surrounded

    # Both laws concern vertices of degree r + 1 only.
    hinges = [v for v, nbrs in enumerate(adj) if len(nbrs) == r + 1]
    children = [[w for w in nbrs if level[w] == level[v] + 1] for v, nbrs in enumerate(adj)]
    parents = [v for v, role in enumerate(roles) if role.kind == "ordinary" and children[v]]

    @cache  # a defector's utility depends only on (cooperating neighbors, degree)
    def scores_below(coop_x: int, degree: int) -> bool:
        return _utility(params, 0, coop_x, degree) < threshold

    for t in range(len(states) - 1):
        bits, nxt = states[t].bits, states[t + 1]
        coop = [sum(map(bits.__getitem__, nbrs)) for nbrs in adj]
        for i in hinges:
            if bits[i]:
                if not advance_applies or coop[i] != 1:
                    continue
                lean = [w for w in adj[i] if not bits[w]]
                if all(
                    len(adj[w]) == r + 1
                    and coop[w] == 1
                    and all(scores_below(coop[x], len(adj[x])) for x in adj[w] if not bits[x])
                    for w in lean
                ):
                    for v in (i, *lean):
                        _expect(log, nxt, t + 1, "lemma:advance", v, 1)
            elif retreat_applies and coop[i] == r:
                for v in (i, *adj[i]):
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
    return log.records
