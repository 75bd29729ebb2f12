"""Deterministic imitation dynamics: single synchronous updates, iterated
trajectories, and transient/period detection by hashing visited states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .game import (
    SYNCHRONOUS,
    GameParams,
    Graph,
    StrategyVector,
    UpdateSchedule,
    _check_state,
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


def _utility_slots(
    graph: Graph, params: GameParams, bits: bytes
) -> tuple[list[int], list[Fraction]]:
    # Utilities depend only on (own strategy, cooperating neighbors,
    # degree), so each distinct key gets one slot and one Fraction:
    # values[slot[v]] is the mean utility of v.  The keys stay integer
    # triples because hashing a Fraction per vertex would slow step().
    a, b, c, d = params.as_tuple()
    slot_by_key: dict[tuple[int, int, int], int] = {}
    values: list[Fraction] = []
    slot = [0] * graph.n
    for v in range(graph.n):
        nbrs = graph.neighbors(v)
        deg = len(nbrs)
        coop = sum(map(bits.__getitem__, nbrs))
        key = (bits[v], coop, deg)
        s = slot_by_key.get(key)
        if s is None:
            s = len(values)
            slot_by_key[key] = s
            if bits[v]:
                values.append((a * coop + b * (deg - coop)) / deg)
            else:
                values.append((c * coop + d * (deg - coop)) / deg)
        slot[v] = s
    return slot, values


def utility_profile(
    graph: Graph, params: GameParams, state: StrategyVector
) -> tuple[Fraction, ...]:
    """Mean utility of every vertex at once, each distinct value computed once."""
    _check_state(graph, state)
    slot, values = _utility_slots(graph, params, state.bits)
    return tuple(map(values.__getitem__, slot))


def _utility_ranks(graph: Graph, params: GameParams, bits: bytes) -> list[int]:
    # Order-preserving integer ranks of the per-vertex utilities, so the
    # argmax scans below compare small ints instead of Fractions.
    slot, values = _utility_slots(graph, params, bits)
    # Dense ranking: equal utilities must share a rank, or ties between
    # distinct (strategy, cooperators, degree) profiles would disappear.
    order = sorted(range(len(values)), key=values.__getitem__)
    rank = [0] * len(values)
    current = -1
    prev: Optional[Fraction] = None
    for s in order:
        if prev is None or values[s] != prev:
            current += 1
            prev = values[s]
        rank[s] = current
    return [rank[s] for s in slot]


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
    """
    _check_state(graph, state)
    bits = state.bits
    targets: Iterable[int]
    if active is None:
        targets = range(graph.n)
    else:
        targets = sorted(set(active))
        for v in targets:
            if not 0 <= v < graph.n:
                raise ValueError(f"active vertex {v} outside graph with n={graph.n}")
    ranks = _utility_ranks(graph, params, bits)
    new = bytearray(bits)
    for v in targets:
        best = ranks[v]
        mask = 1 << bits[v]
        for w in graph.neighbors(v):
            rw = ranks[w]
            if rw > best:
                best = rw
                mask = 1 << bits[w]
            elif rw == best:
                mask |= 1 << bits[w]
        if mask != 3:  # 3 means both strategies reach the maximum: keep
            new[v] = mask >> 1
    return StrategyVector(new)


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
    on_state: Optional[Callable[[int, StrategyVector], None]] = None,
) -> TrajectoryReport:
    """Iterate the dynamics until a state repeats at the same schedule phase.

    The synchronous dynamics is deterministic and memoryless, so the first
    revisit pins down both the minimal transient and the minimal period.
    Under a periodic-subset schedule the revisit is detected on
    (state, phase) pairs and the cycle length is then reduced to the
    minimal period of the state sequence itself, which may be a proper
    divisor of the pair-cycle length.

    on_state, when given, is called as on_state(t, X(t)) for every state in
    the order visited, including X(0); this streams the full history even
    though the report only stores transient + period states.

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
    if on_state is not None:
        on_state(0, x0)
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
        if on_state is not None:
            on_state(t + 1, state)
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
