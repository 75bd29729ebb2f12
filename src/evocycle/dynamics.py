"""Deterministic imitation dynamics: single synchronous updates, iterated
trajectories, and transient/period detection by hashing visited states.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, Iterator, Optional, Sequence

from .game import (
    GameParams,
    Graph,
    StrategyVector,
    _check_state,
    _check_vertex,
    _utility,
    mean_utility,
)

__all__ = [
    "NonGenericParamsWarning",
    "TrajectoryBudgetError",
    "argmax_strategies",
    "step",
    "Quotient",
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


def _rank_table(
    params: GameParams, keys: Iterable[tuple[int, int, int]]
) -> dict[tuple[int, int, int], int]:
    """Every (strategy, cooperators, degree) key mapped to the dense rank of
    its exact utility among those of all the keys, so equal utilities share
    a rank and ranks order like utilities."""
    utility = {key: _utility(params, *key) for key in keys}
    levels = sorted(set(utility.values()))
    return {key: bisect_left(levels, u) for key, u in utility.items()}


def _top_masks(
    vertices: Iterable[int], adj: Sequence[Sequence[int]], bits: Sequence[int], score: Sequence[Any]
) -> list[int]:
    """The update rule's one decision procedure.  Per vertex v, the mask
    (bit s for strategy s) of the strategies of the top scorers among v
    and adj[v], with score[v] ordered like v's utility; v adopts the other
    strategy exactly when its mask is 2 >> bits[v], and else keeps its own.
    """
    masks = []
    for v in vertices:
        best = score[v]
        mask = 1 << bits[v]
        for w in adj[v]:
            s = score[w]
            if s > best:
                best = s
                mask = 1 << bits[w]
            elif s == best:
                mask |= 1 << bits[w]
        masks.append(mask)
    return masks


def argmax_strategies(
    graph: Graph, params: GameParams, state: StrategyVector, vertex: int
) -> frozenset[int]:
    """Strategies played by the top scorers in the closed neighborhood.

    The result is {0}, {1}, or {0, 1}; the update rule acts only when it is
    a singleton, otherwise the vertex keeps its strategy.
    """
    _check_state(graph, state)
    _check_vertex(graph, vertex)
    closed = (vertex, *graph.neighbors(vertex))  # indexed locally: the vertex is 0
    score = [mean_utility(graph, params, state, w) for w in closed]
    (mask,) = _top_masks((0,), (range(1, len(closed)),), [state[w] for w in closed], score)
    return frozenset(s for s in (0, 1) if mask >> s & 1)


def step(graph: Graph, params: GameParams, state: StrategyVector) -> StrategyVector:
    """One synchronous update of every vertex.

    Every vertex looks at the closed neighborhood under the old state and
    adopts the strategy of the unique best performer; if both strategies
    attain the maximum, it keeps its own.

    The graph keeps the cooperating-neighbor counts of the state this
    function last returned on it, and a table of utility ranks by key.
    Called again with that very state (and equal params), it reuses both
    and updates the counts only around the vertices that flip; called with
    any other state, it first counts from scratch.
    """
    _check_state(graph, state)
    bits = state.bits
    adj = graph._adj
    # pop() hands the counts to this call alone, so no other call, whether
    # concurrent or after an interrupted one, sees a half-updated list.
    try:
        held_bits, held_params, coop, table = graph._step_counts.pop()
    except IndexError:
        held_bits = held_params = None
    if held_bits is not bits or held_params != params:
        coop = [sum(map(bits.__getitem__, nbrs)) for nbrs in adj]
        table = {}
    # Every rank one call reads comes from one table, so ranks compare
    # exactly like utilities; a key not in it rebuilds it.
    try:
        rank = list(map(table.__getitem__, zip(bits, coop, map(len, adj))))
    except KeyError:
        table = _rank_table(params, {*table, *zip(bits, coop, map(len, adj))})
        rank = list(map(table.__getitem__, zip(bits, coop, map(len, adj))))
    # A vertex whose closed neighborhood plays one strategy keeps it.
    mixed = [
        v for v, own, count, nbrs in zip(range(len(adj)), bits, coop, adj)
        if count != (len(nbrs) if own else 0)
    ]
    new = bytearray(bits)
    for v, mask in zip(mixed, _top_masks(mixed, adj, bits, rank)):
        own = bits[v]
        if mask == 2 >> own:
            new[v] = 1 - own
            delta = -1 if own else 1
            for w in adj[v]:
                coop[w] += delta
    result = StrategyVector(new)
    graph._step_counts[:] = ((result.bits, params, coop, table),)
    return result


class Quotient:
    """A graph seen through an equitable partition of its vertices.

    Equitable means every vertex of cell k has the same number of
    neighbors in each cell l.  While a state is constant on every cell,
    all vertices of a cell then have the same utility and see the same
    (utility, strategy) pairs in their closed neighborhoods, so they make
    one decision: a synchronous update maps a state constant on cells to
    another one.  `step` makes that update on one bit per cell, and `lift`
    turns the cell bits back into the state of every vertex.
    """

    __slots__ = ("cell_of", "first", "links", "linked", "degree", "_ranks")

    def __init__(
        self,
        cell_of: list[int],
        first: tuple[int, ...],
        links: tuple[tuple[tuple[int, int], ...], ...],
    ) -> None:
        self.cell_of = cell_of  # the cell of every vertex
        self.first = first  # one vertex of every cell
        self.links = links  # per cell: the (cell l, neighbors in l) pairs
        self.linked = tuple(tuple(l for l, _ in pairs) for pairs in links)  # the cells l alone
        self.degree = tuple(sum(count for _, count in pairs) for pairs in links)
        # Owned by step: the params it last ran with and their rank table.
        self._ranks: tuple[Optional[GameParams], dict] = (None, {})

    def lift(self, bits: bytes) -> StrategyVector:
        """The state in which every vertex plays its cell's bit."""
        return StrategyVector(bytes(map(bits.__getitem__, self.cell_of)))

    def cooperators(self, bits: bytes) -> list[int]:
        """Every cell's number of cooperating neighbors, given the cell bits."""
        return [sum(count for l, count in pairs if bits[l]) for pairs in self.links]

    def step(self, params: GameParams, bits: bytes) -> bytes:
        """One synchronous update, by the rule of `step`, on the cell bits.
        Utilities are compared as ranks from one table per params, kept
        across calls and rebuilt, as `step` rebuilds its own, when a key
        is new."""
        keys = list(zip(bits, self.cooperators(bits), self.degree))
        held, table = self._ranks
        if held != params:
            table = {}
        try:
            rank = list(map(table.__getitem__, keys))
        except KeyError:
            table = _rank_table(params, {*table, *keys})
            rank = list(map(table.__getitem__, keys))
        self._ranks = (params, table)
        masks = _top_masks(range(len(bits)), self.linked, bits, rank)
        return bytes(own ^ (mask == 2 >> own) for own, mask in zip(bits, masks))


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


def _minimal_period(cycle: Sequence[StrategyVector]) -> int:
    """The least d dividing len(cycle) after which the cycle repeats."""
    n = len(cycle)
    return next(d for d in range(1, n + 1) if n % d == 0 and cycle[d:] == cycle[: n - d])


def _states(
    graph: Graph,
    params: GameParams,
    x0: StrategyVector,
    cells: Optional[Quotient],
) -> Iterator[StrategyVector]:
    """X(0), X(1), ... from x0: on the Quotient given as cells, else by
    `step` on the whole graph, looked up in the module globals so that a
    wrapper patched over the name sees every step.  A Quotient must cover
    the graph's n vertices and lift x0's bits on its first vertices back
    to x0, else ValueError: states stepped on it would not be x0's."""
    if cells is None:
        state = x0
        while True:
            yield state
            state = step(graph, params, state)
    if len(cells.cell_of) != graph.n:
        raise ValueError(f"a quotient of {len(cells.cell_of)} vertices "
                         f"for a graph with n={graph.n}")
    bits = bytes(map(x0.bits.__getitem__, cells.first))
    state = cells.lift(bits)
    if state != x0:
        raise ValueError("x0 is not constant on the cells of the quotient")
    while True:
        yield state
        bits = cells.step(params, bits)
        state = cells.lift(bits)


def trajectory(
    graph: Graph,
    params: GameParams,
    x0: StrategyVector,
    max_steps: int = 10_000,
    cells: Optional[Quotient] = None,
) -> TrajectoryReport:
    """Iterate the synchronous dynamics until a state repeats.

    The dynamics is deterministic and memoryless, so the first revisit
    pins down both the minimal transient and the minimal period, and the
    states of the cycle are pairwise distinct.

    With a Quotient of the graph for `cells` (an equitable partition of
    its n vertices on whose cells x0 is constant), the dynamics runs on
    it, one bit per cell, and its states are lifted; nothing of the graph
    is read but its vertex count n.  The report is the one the whole
    graph gives.  Without `cells` it runs on the whole graph.

    Raises ValueError when the Quotient does not cover n vertices or x0
    is not constant on its cells, and TrajectoryBudgetError when
    max_steps updates happen without a revisit.  Warns
    NonGenericParamsWarning for tied payoffs.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    _check_state(graph, x0)
    if not params.generic:
        warnings.warn(
            f"payoff quadruple {params} has tied payoffs",
            NonGenericParamsWarning,
            stacklevel=2,
        )
    # Each state's first time, in order of first visit.
    seen: dict[StrategyVector, int] = {}
    for t, state in enumerate(islice(_states(graph, params, x0, cells), max_steps + 1)):
        transient = seen.setdefault(state, t)
        if transient < t:
            states = tuple(seen)
            counts = tuple(s.count_cooperators() for s in states)
            return TrajectoryReport(x0, transient, t - transient, states, counts)
    raise TrajectoryBudgetError(f"no revisited state within {max_steps} steps", tuple(seen))
