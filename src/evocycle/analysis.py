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
from typing import Any, Optional, Sequence

from .constructions import ConstructedInstance
from .dynamics import TrajectoryReport, step, utility_profile
from .game import GameParams, StrategyVector

__all__ = [
    "InvariantViolation",
    "MAX_VIOLATION_RECORDS",
    "f_of_t",
    "replay",
    "verify_fcsh_dynamics",
    "verify_hdpd_dynamics",
    "verify_tree_invariants",
    "check_local_lemmas",
    "cooperator_series",
]

MAX_VIOLATION_RECORDS = 1000


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


def replay(instance: ConstructedInstance, params: GameParams) -> list[StrategyVector]:
    """X(0) .. X(P) of the instance, where P is its predicted period."""
    states = [instance.x0]
    for _ in range(instance.predicted_period):
        states.append(step(instance.graph, params, states[-1]))
    return states


def _require_replay(
    instance: ConstructedInstance, states: Sequence[StrategyVector], period: int
) -> None:
    if len(states) != period + 1 or states[0] != instance.x0:
        raise ValueError(f"need X(0) .. X({period}) from x0, got {len(states)} states")


def _expect(
    log: _ViolationLog,
    state: StrategyVector,
    t: int,
    label: str,
    vertex: int,
    expected: int,
) -> None:
    observed = state[vertex]
    if observed != expected:
        log.add(t, label, vertex, expected, observed)


def verify_fcsh_dynamics(
    instance: ConstructedInstance, params: GameParams, states: Sequence[StrategyVector]
) -> list[InvariantViolation]:
    """Check a build_fcsh instance against its designed trajectory.

    Over one period: the gadget vertices (H, I, J, F), the hub g, and the
    center cliques stay frozen at the initial state; the chain lights up
    outward, cliques at distance <= t cooperating and the rest defecting;
    and X(p) returns to X(0).
    """
    if instance.kind != "fcsh":
        raise ValueError(f"expected an fcsh instance, got kind={instance.kind!r}")
    p = instance.structural_params["p"]
    _require_replay(instance, states, p)
    roles = instance.roles
    x0 = instance.x0
    log = _ViolationLog()

    frozen = [
        v
        for v, role in enumerate(roles)
        if role.kind in ("H", "I", "J", "F", "g") or (role.kind == "K" and role.index[0] == 0)
    ]
    by_distance: dict[int, list[int]] = {}
    for v, role in enumerate(roles):
        if role.kind == "K":
            by_distance.setdefault(abs(role.index[0]), []).append(v)

    for t in range(p):
        state = states[t]
        for v in frozen:
            _expect(log, state, t, "fcsh:frozen", v, x0[v])
        for n in range(1, p):
            expected = 1 if n <= t else 0
            for v in by_distance.get(n, ()):
                _expect(log, state, t, "fcsh:chain", v, expected)
    final = states[p]
    for v in range(instance.graph.n):
        if final[v] != x0[v]:
            log.add(p, "fcsh:reset", v, x0[v], final[v])
    return log.records


def verify_hdpd_dynamics(
    instance: ConstructedInstance, params: GameParams, states: Sequence[StrategyVector]
) -> list[InvariantViolation]:
    """Check a build_hdpd instance against its designed trajectory.

    Over one period: cliques K_1 .. K_(t+1) cooperate at step t while every
    other vertex keeps its previous strategy; the edgeless outer layer
    K_(p+1) defects throughout; and X(p) returns to X(0).
    """
    if instance.kind != "hdpd":
        raise ValueError(f"expected an hdpd instance, got kind={instance.kind!r}")
    p = instance.structural_params["p"]
    _require_replay(instance, states, p)
    roles = instance.roles
    x0 = instance.x0
    log = _ViolationLog()

    by_layer: dict[int, list[int]] = {}
    for v, role in enumerate(roles):
        if role.kind == "K":
            by_layer.setdefault(role.index[0], []).append(v)

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
    final = states[p]
    for v in range(instance.graph.n):
        if final[v] != x0[v]:
            log.add(p, "hdpd:reset", v, x0[v], final[v])
    return log.records


def _tree_shape(
    instance: ConstructedInstance, log: _ViolationLog
) -> tuple[int, list[int], list[bool], list[int]]:
    """Derive (root, level per vertex, designated flags, attach levels).

    Levels and designation come from the roles; parent links come from a
    breadth-first walk of the graph, cross-checked against the role levels.
    Inconsistencies (a tampered graph, say) are logged as tree:structure
    violations, and vertices whose ancestry cannot be resolved get attach
    level -1, which exempts them from the ancestry-based checks.
    """
    graph, roles = instance.graph, instance.roles
    n = graph.n
    root_vertices = roles.vertices("root")
    if len(root_vertices) != 1:
        log.add(0, "tree:structure", detail=f"{len(root_vertices)} root roles, expected 1")
        return -1, [], [], []
    root = root_vertices[0]
    level = [0] * n
    designated = [False] * n
    for v, role in enumerate(roles):
        if role.kind == "root":
            level[v] = 0
        elif role.kind in ("special", "ordinary"):
            level[v] = role.index[0]
            designated[v] = role.kind == "special"
        else:
            raise ValueError(f"role kind {role.kind!r} does not belong to a tree instance")

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

    attach = [-1] * n
    for v in order:
        if roles[v].kind != "ordinary":
            continue
        par = parent[v]
        if par == -1:
            continue
        if roles[par].kind == "special":
            attach[v] = level[par]
        elif roles[par].kind == "ordinary":
            attach[v] = attach[par]
    return root, level, designated, attach


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

    Nothing stronger is asserted; outside the listed sets the dynamics is
    free to do what it likes (and does, near the leaves).
    """
    if instance.kind != "tree":
        raise ValueError(f"expected a tree instance, got kind={instance.kind!r}")
    q = instance.structural_params["q"]
    period = 2 * (q - 3)
    _require_replay(instance, states, period)
    log = _ViolationLog()
    root, level, designated, attach = _tree_shape(instance, log)
    if root == -1:
        return log.records
    graph = instance.graph
    n = graph.n
    x0 = instance.x0

    for v in range(n):
        _expect(log, x0, 0, "tree:x0", v, 1 if level[v] <= q - 2 else 0)

    specials = [v for v in range(n) if designated[v]]
    ordinaries = [v for v in range(n) if not designated[v] and v != root]

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

    final = states[period]
    periodic = True
    for v in range(n):
        if final[v] != x0[v]:
            periodic = False
            log.add(period, "tree:periodic", v, x0[v], final[v])
    if periodic:
        cycle = states[:period]
        for cand in range(1, period):
            if period % cand != 0:
                continue
            if all(cycle[i] == cycle[(i + cand) % period] for i in range(period)):
                log.add(
                    cand,
                    "tree:minimal-period",
                    detail=f"cycle already repeats after {cand} < {period} steps",
                )
                break
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
    """
    if instance.kind != "tree":
        raise ValueError(f"expected a tree instance, got kind={instance.kind!r}")
    r = instance.structural_params["r"]
    horizon = len(states) - 1
    if horizon < 1:
        raise ValueError("need at least the two states X(0) and X(1)")
    log = _ViolationLog()
    root, level, _designated, _attach = _tree_shape(instance, log)
    if root == -1:
        return log.records
    graph, roles = instance.graph, instance.roles
    n = graph.n
    a, b, c, d = params.as_tuple()
    threshold = (a + r * b) / (r + 1)
    advance_applies = a + r * b > c + r * d
    retreat_applies = a * (r + 1) < r * c + d

    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in graph.neighbors(v):
            if level[w] == level[v] + 1:
                children[v].append(w)

    for t in range(horizon):
        state, nxt = states[t], states[t + 1]
        bits = state.bits
        utils = utility_profile(graph, params, state)
        for i in range(n):
            nbrs = graph.neighbors(i)
            if advance_applies and bits[i] == 1 and len(nbrs) == r + 1:
                coop = [w for w in nbrs if bits[w]]
                lean = [w for w in nbrs if not bits[w]]
                if len(coop) == 1 and all(
                    graph.degree(w) == r + 1
                    and sum(bits[x] for x in graph.neighbors(w)) == 1
                    and all(
                        utils[x] < threshold
                        for x in graph.neighbors(w)
                        if not bits[x]
                    )
                    for w in lean
                ):
                    _expect(log, nxt, t + 1, "lemma:advance", i, 1)
                    for w in lean:
                        _expect(log, nxt, t + 1, "lemma:advance", w, 1)
            if retreat_applies and bits[i] == 0 and len(nbrs) == r + 1:
                lean = [w for w in nbrs if not bits[w]]
                if len(lean) == 1:
                    _expect(log, nxt, t + 1, "lemma:retreat", i, 0)
                    for w in nbrs:
                        _expect(log, nxt, t + 1, "lemma:retreat", w, 0)
        for i in range(n):
            if roles[i].kind != "ordinary" or not children[i]:
                continue
            first = bits[children[i][0]]
            for w in children[i][1:]:
                if bits[w] != first:
                    log.add(t, "lemma:siblings", w, first, bits[w])
            if retreat_applies and bits[i] == 0:
                for w in children[i]:
                    _expect(log, nxt, t + 1, "lemma:descend", w, 0)
    return log.records


def cooperator_series(report: TrajectoryReport) -> list[tuple[int, int]]:
    """(t, cooperator count) pairs over the report's transient plus period."""
    return list(enumerate(report.cooperator_counts))
