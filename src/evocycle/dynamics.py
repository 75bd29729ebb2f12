"""Deterministic imitation dynamics: single synchronous updates, iterated
trajectories, and transient/period detection by hashing visited states.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby, islice
from typing import Any, Hashable, Iterable, Iterator, Optional, Sequence

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

    __slots__ = ("cell_of", "first", "links", "linked", "degree")

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

    @classmethod
    def of(cls, graph: Graph, cell_of: Sequence[Hashable]) -> Optional["Quotient"]:
        """The quotient by the partition that puts vertex v in the cell
        named cell_of[v], or None when that partition is not equitable.

        One pass over the sorted adjacency compares each vertex's sorted
        list of neighbor cells with the first one seen in its cell.
        """
        if len(cell_of) != graph.n:
            raise ValueError(f"{len(cell_of)} cell keys for a graph with n={graph.n}")
        ids: dict[Hashable, int] = {}
        cells = [ids.setdefault(key, len(ids)) for key in cell_of]
        seen: list[Optional[list[int]]] = [None] * len(ids)
        first = [0] * len(ids)
        neighbors = graph.neighbors
        for v, k in enumerate(cells):
            around = sorted(map(cells.__getitem__, neighbors(v)))
            known = seen[k]
            if known is None:
                seen[k] = around
                first[k] = v
            elif around != known:
                return None
        links = tuple(
            tuple((l, sum(1 for _ in run)) for l, run in groupby(around))
            for around in seen
        )
        return cls(cells, tuple(first), links)

    def lift(self, bits: bytes) -> StrategyVector:
        """The state in which every vertex plays its cell's bit."""
        return StrategyVector(bytes(map(bits.__getitem__, self.cell_of)))

    def cooperators(self, bits: bytes) -> list[int]:
        """Every cell's number of cooperating neighbors, given the cell bits."""
        return [sum(count for l, count in pairs if bits[l]) for pairs in self.links]

    def step(self, params: GameParams, bits: bytes) -> bytes:
        """One synchronous update, by the rule of `step`, on the cell bits."""
        utility = [
            _utility(params, own, coop, degree)
            for own, coop, degree in zip(bits, self.cooperators(bits), self.degree)
        ]
        masks = _top_masks(range(len(bits)), self.linked, bits, utility)
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
    cells: Optional[Sequence[Hashable] | Quotient],
) -> Iterator[StrategyVector]:
    """X(0), X(1), ... from x0: on the Quotient given as cells, or on the
    Quotient by the cells split by the x0 bit when that partition is
    equitable, else by `step` on the whole graph, looked up in the module
    globals so that a wrapper patched over the name sees every step."""
    quotient = cells if isinstance(cells, Quotient) else None
    if cells is not None and quotient is None:
        if len(cells) != graph.n:
            raise ValueError(f"{len(cells)} cell keys for a graph with n={graph.n}")
        quotient = Quotient.of(graph, list(zip(cells, x0.bits)))
    if quotient is None:
        state = x0
        while True:
            yield state
            state = step(graph, params, state)
    else:
        bits = bytes(map(x0.bits.__getitem__, quotient.first))
        while True:
            yield quotient.lift(bits)
            bits = quotient.step(params, bits)


def trajectory(
    graph: Graph,
    params: GameParams,
    x0: StrategyVector,
    max_steps: int = 10_000,
    cells: Optional[Sequence[Hashable] | Quotient] = None,
) -> TrajectoryReport:
    """Iterate the synchronous dynamics until a state repeats.

    The dynamics is deterministic and memoryless, so the first revisit
    pins down both the minimal transient and the minimal period, and the
    states of the cycle are pairwise distinct.

    `cells` names a cell for every vertex.  They are split by the x0 bit,
    and when that partition is equitable the dynamics runs on its
    Quotient, one bit per cell, and its states are lifted; otherwise it
    runs on the whole graph.  The report is the same.  `cells` may also
    be that Quotient itself, taken already (x0 must be constant on its
    cells); then nothing of the graph is read but its vertex count n.

    Raises TrajectoryBudgetError when max_steps updates happen without a
    revisit. Warns NonGenericParamsWarning for tied payoffs.
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
