"""Deterministic imitation dynamics: single synchronous updates, iterated
trajectories, and transient/period detection by hashing visited states.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .game import (
    SYNCHRONOUS,
    GameParams,
    Graph,
    StrategyVector,
    UpdateSchedule,
    _check_state,
    _utility,
    mean_utility,
)

__all__ = [
    "NonGenericParamsWarning",
    "TrajectoryBudgetError",
    "utility_profile",
    "argmax_strategies",
    "step",
    "is_fixed_point",
    "TrajectoryReport",
    "trajectory",
]


class NonGenericParamsWarning(UserWarning):
    """Tied payoffs make tie-handling load-bearing; results are still exact."""


class TrajectoryBudgetError(RuntimeError):
    """The step budget ran out before any state was revisited.

    `states` holds everything seen, X(0) through X(max_steps), so a caller
    can inspect or resume the partial trajectory.
    """

    def __init__(self, message: str, states: tuple[StrategyVector, ...]) -> None:
        super().__init__(message)
        self.states = states


def utility_profile(
    graph: Graph, params: GameParams, state: StrategyVector
) -> tuple[Fraction, ...]:
    """Mean utility of every vertex at once, each distinct value computed once."""
    _check_state(graph, state)
    bits = state.bits
    # Utilities depend only on (own strategy, cooperating neighbors,
    # degree); keying on these integers avoids hashing a Fraction per vertex.
    by_key: dict[tuple[int, int, int], Fraction] = {}
    profile = []
    for v in range(graph.n):
        nbrs = graph.neighbors(v)
        key = (bits[v], sum(map(bits.__getitem__, nbrs)), len(nbrs))
        u = by_key.get(key)
        if u is None:
            u = by_key[key] = _utility(params, *key)
        profile.append(u)
    return tuple(profile)


class _Counts:
    """What `step` knows about the last state it returned on one graph.

    coop[v] counts the cooperating neighbors of v, and rank[v] is the dense
    rank of v's exact utility among `levels`, the sorted distinct utilities
    of every (strategy, cooperators, degree) key in `rank_of_key`, so equal
    utilities share a rank.  Each vertex outside `dirty` kept its strategy
    when last decided, and nothing within distance 2 of it has flipped
    since; its decision reads only those strategies, so it keeps again.
    """

    __slots__ = ("params", "bits", "coop", "rank", "dirty", "levels", "rank_of_key")

    def __init__(self, graph: Graph, params: GameParams, bits: bytes) -> None:
        n = graph.n
        self.params = params
        self.bits = bits
        self.coop = [sum(map(bits.__getitem__, graph.neighbors(v))) for v in range(n)]
        self.rank = [0] * n
        self.dirty: Iterable[int] = range(n)
        self.levels: list[Fraction] = []
        self.rank_of_key: dict[tuple[int, int, int], int] = {}
        self.rerank(graph, bits, range(n))

    def rerank(self, graph: Graph, bits: bytes, vertices: Iterable[int]) -> None:
        """Refresh rank[v] for `vertices` under `bits` and the current coop.

        A utility not seen before shifts the ranks above it, which costs
        one O(n) pass over every rank.
        """
        coop, rank, rank_of_key = self.coop, self.rank, self.rank_of_key
        neighbors = graph.neighbors
        fresh: dict[tuple[int, int, int], Fraction] = {}
        for v in vertices:
            key = (bits[v], coop[v], len(neighbors(v)))
            r = rank_of_key.get(key)
            if r is not None:
                rank[v] = r
            elif key not in fresh:
                fresh[key] = _utility(self.params, *key)
        if not fresh:
            return
        old = self.levels
        levels = sorted(set(old).union(fresh.values()))
        if old and len(levels) > len(old):
            remap = [bisect_left(levels, u) for u in old]
            rank[:] = map(remap.__getitem__, rank)
            for key, r in rank_of_key.items():
                rank_of_key[key] = remap[r]
        self.levels = levels
        for key, u in fresh.items():
            rank_of_key[key] = bisect_left(levels, u)
        for v in vertices:
            rank[v] = rank_of_key[(bits[v], coop[v], len(neighbors(v)))]


def argmax_strategies(
    graph: Graph, params: GameParams, state: StrategyVector, vertex: int
) -> frozenset[int]:
    """Strategies played by the top scorers in the closed neighborhood.

    The result is {0}, {1}, or {0, 1}; the update rule acts only when it is
    a singleton, otherwise the vertex keeps its strategy.
    """
    _check_state(graph, state)
    best = mean_utility(graph, params, state, vertex)
    strategies = {state[vertex]}
    for w in graph.neighbors(vertex):
        u = mean_utility(graph, params, state, w)
        if u > best:
            best = u
            strategies = {state[w]}
        elif u == best:
            strategies.add(state[w])
    return frozenset(strategies)


def step(
    graph: Graph,
    params: GameParams,
    state: StrategyVector,
    active: Optional[Iterable[int]] = None,
) -> StrategyVector:
    """One parallel update of the active vertices (all vertices by default).

    Every active vertex looks at the closed neighborhood under the old
    state and adopts the strategy of the unique best performer; if both
    strategies attain the maximum, it keeps its own. Inactive vertices are
    copied unchanged.

    The graph keeps the neighbor counts and utility ranks of the state this
    function last returned on it.  Called again with that very state (and
    equal params), it re-decides only the vertices within distance 2 of the
    last flips, since a decision reads only the strategies that close;
    called with any other state, it first counts from scratch.
    """
    _check_state(graph, state)
    n = graph.n
    if active is not None:
        active = set(active)
        outside = [v for v in active if not 0 <= v < n]
        if outside:
            raise ValueError(f"active vertex {min(outside)} outside graph with n={n}")
    bits = state.bits
    held = graph._step_counts
    # pop() hands the counts to this call alone, so no other call, whether
    # concurrent or after an interrupted one, sees half-updated lists.
    try:
        counts = held.pop()
    except IndexError:
        counts = None
    if counts is None or counts.bits is not bits or counts.params != params:
        counts = _Counts(graph, params, bits)
    if active is None:
        targets: Iterable[int] = counts.dirty
        waiting: set[int] = set()
    else:
        targets = active.intersection(counts.dirty)
        waiting = set(counts.dirty).difference(targets)
    neighbors = graph.neighbors
    coop, rank = counts.coop, counts.rank
    flipped = []
    for v in targets:
        nbrs = neighbors(v)
        own = bits[v]
        if coop[v] == (len(nbrs) if own else 0):
            continue  # the closed neighborhood plays one strategy: keep
        best = rank[v]
        mask = 1 << own
        for w in nbrs:
            rw = rank[w]
            if rw > best:
                best = rw
                mask = 1 << bits[w]
            elif rw == best:
                mask |= 1 << bits[w]
        if mask == 2 >> own:  # only the other strategy reaches the maximum
            flipped.append(v)
    new = bytearray(bits)
    touched = set(flipped)
    for v in flipped:
        new[v] ^= 1
        delta = -1 if bits[v] else 1
        nbrs = neighbors(v)
        for w in nbrs:
            coop[w] += delta
        touched.update(nbrs)
    result = StrategyVector(new)
    counts.bits = result.bits
    counts.rerank(graph, result.bits, touched)
    # Utilities changed exactly on `touched`; their closed neighborhoods
    # (which contain `touched`, as no vertex is isolated) may now decide
    # differently.
    for w in touched:
        waiting.update(neighbors(w))
    counts.dirty = waiting
    held[:] = (counts,)
    return result


def is_fixed_point(graph: Graph, params: GameParams, state: StrategyVector) -> bool:
    return step(graph, params, state) == state


@dataclass(frozen=True)
class TrajectoryReport:
    """Transient, minimal period, and the states covering both.

    states holds X(0) .. X(transient + minimal_period - 1); applying one
    more step to the last entry returns to states[transient].
    cooperator_counts[t] counts the 1-bits of states[t].
    """

    initial_state: StrategyVector
    transient: int
    minimal_period: int
    states: tuple[StrategyVector, ...]
    cooperator_counts: tuple[int, ...]

    def state_at(self, t: int) -> StrategyVector:
        """X(t) for any t >= 0, folding large t into the detected cycle."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        if t < len(self.states):
            return self.states[t]
        return self.states[self.transient + (t - self.transient) % self.minimal_period]

    @property
    def cycle(self) -> tuple[StrategyVector, ...]:
        return self.states[self.transient :]


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def trajectory(
    graph: Graph,
    params: GameParams,
    x0: StrategyVector,
    schedule: UpdateSchedule = SYNCHRONOUS,
    max_steps: int = 10_000,
) -> TrajectoryReport:
    """Iterate the dynamics until a state repeats at the same schedule phase.

    The synchronous dynamics is deterministic and memoryless, so the first
    revisit pins down both the minimal transient and the minimal period.
    Under a periodic-subset schedule the revisit is detected on
    (state, phase) pairs and the cycle length is then reduced to the
    minimal period of the state sequence itself, which may be a proper
    divisor of the pair-cycle length.

    Raises TrajectoryBudgetError when max_steps updates happen without a
    revisit. Warns NonGenericParamsWarning for tied payoffs.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    _check_state(graph, x0)
    schedule.validate_for(graph.n)
    if not params.generic:
        warnings.warn(
            f"payoff quadruple {params} has tied payoffs",
            NonGenericParamsWarning,
            stacklevel=2,
        )
    phases = schedule.phase_count
    seen: dict[object, int] = {}
    states: list[StrategyVector] = []
    state = x0
    transient = -1
    cycle_len = -1
    for t in range(max_steps + 1):
        key: object = state.bits if phases == 1 else (state.bits, t % phases)
        first = seen.get(key)
        if first is not None:
            transient = first
            cycle_len = t - first
            break
        seen[key] = t
        states.append(state)
        if t == max_steps:
            raise TrajectoryBudgetError(
                f"no revisited state within {max_steps} steps", tuple(states)
            )
        state = step(graph, params, state, schedule.active_at(t))
    period = cycle_len
    if phases > 1:
        # The same state sequence can repeat faster than the (state, phase)
        # pair does; the minimal sequence period divides the pair cycle.
        cycle = states[transient:]
        for cand in _divisors(cycle_len):
            if all(cycle[i] == cycle[i - cand] for i in range(cand, cycle_len)):
                period = cand
                break
    del states[transient + period :]
    counts = tuple(s.count_cooperators() for s in states)
    return TrajectoryReport(x0, transient, period, tuple(states), counts)
