"""Deterministic imitation dynamics: single synchronous updates, iterated
trajectories, and transient/period detection by hashing visited states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import lcm
from operator import getitem
from typing import Any, Callable, Collection, Iterable, Iterator, Optional, Sequence

from .game import GameParams, Graph, StrategyVector, _check_state, _check_vertex, mean_utility

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

    def __reduce__(self) -> tuple:  # pickled whole, so a pool worker can raise it
        return type(self), (*self.args, self.states)


def _score_coefficients(params: GameParams, degrees: Collection[int]) -> dict[int, tuple]:
    """Per degree deg, a defector's and a cooperator's (slope, intercept):
    with k of deg neighbors cooperating, the integer slope * k + intercept
    is m * L times the utility (game._utility), m the lcm of the payoffs'
    denominators and L that of the degrees, so the scores of one params
    and degree set order and tie exactly like the utilities."""
    m = lcm(*(x.denominator for x in params.as_tuple()))
    a, b, c, d = (x.numerator * (m // x.denominator) for x in params.as_tuple())
    scale = lcm(*degrees)
    return {deg: ((w * (c - d), w * deg * d), (w * (a - b), w * deg * b))
            for deg in degrees for w in (scale // deg,)}


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
            if s >= best:  # one comparison for a neighbor below the best
                if s > best:
                    best = s
                    mask = 1 << bits[w]
                else:
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

    The graph keeps what it learnt of the state this function last
    returned on it.  Given any other state, step refines the state's two
    classes to their coarsest equitable partition (refine.refine), steps
    one bit per cell by Quotient.step and lifts the result.  The state so
    made is constant on the same cells, which stay equitable, so a call
    given the state it last returned steps on them again.  Where the
    refinement gives up, on a graph with little symmetry, every vertex is
    decided on its own from its cooperating-neighbor counts, which the
    graph keeps with the integer score of every key met so far; a call
    given the state it last returned then updates the counts only around
    the vertices that flip.  Either way utilities are compared as exact
    integers on one scale per params (_score_coefficients).
    """
    _check_state(graph, state)
    bits = state.bits
    adj = graph._adj
    # pop() hands the carried state to this call alone, so no other call,
    # whether concurrent or after an interrupted one, sees it half updated.
    try:
        held_bits, held_params, carried = graph._step_counts.pop()
    except IndexError:
        held_bits = held_params = None
    if held_bits is not bits:
        # Imported here, so that a cold import of the package does not
        # compile the refinement, which only whole-graph steps use.
        from .refine import refine

        carried = refine(adj, bits)
    if isinstance(carried, Quotient):
        result = carried.lift(carried.step(params, bytes(map(bits.__getitem__, carried.first))))
    else:
        coop, scores = carried or (None, {})
        new, carried = _vertex_step(adj, params, bits, coop, scores if held_params == params else {})
        result = StrategyVector(new)
    graph._step_counts[:] = ((result.bits, params, carried),)
    return result


def _vertex_step(
    adj: Sequence[Sequence[int]], params: GameParams, bits: bytes,
    coop: Optional[list[int]], scores: dict,
) -> tuple[bytearray, tuple[list[int], dict]]:
    """One update of every vertex on its own, and the cooperating-neighbor
    counts and scores of the result: coop, when given, are bits' counts
    and become the result's in place; else they are counted.  scores maps
    every (strategy, cooperators, degree) key met under params to its
    score on the scale of the graph's degrees, and grows in place."""
    if coop is None:
        coop = [sum(map(bits.__getitem__, nbrs)) for nbrs in adj]
    try:
        score = list(map(scores.__getitem__, zip(bits, coop, map(len, adj))))
    except KeyError:  # scores only the keys not met before
        by_degree = _score_coefficients(params, set(map(len, adj)))
        for own, k, deg in set(zip(bits, coop, map(len, adj))).difference(scores):
            slope, base = by_degree[deg][own]
            scores[own, k, deg] = slope * k + base
        score = list(map(scores.__getitem__, zip(bits, coop, map(len, adj))))
    # A vertex whose closed neighborhood plays one strategy keeps it.
    mixed = [
        v for v, own, count, nbrs in zip(range(len(adj)), bits, coop, adj)
        if count != (len(nbrs) if own else 0)
    ]
    new = bytearray(bits)
    for v, mask in zip(mixed, _top_masks(mixed, adj, bits, score)):
        own = bits[v]
        if mask == 2 >> own:
            new[v] = 1 - own
            delta = -1 if own else 1
            for w in adj[v]:
                coop[w] += delta
    return new, (coop, scores)


class Quotient:
    """A graph seen through an equitable partition of its vertices.

    Equitable means every vertex of cell k has the same number of
    neighbors in each cell l.  While a state is constant on every cell,
    all vertices of a cell then have the same utility and see the same
    (utility, strategy) pairs in their closed neighborhoods, so they make
    one decision: a synchronous update maps a state constant on cells to
    another one.  `step` makes that update on one bit per cell, and `lift`
    turns the cell bits back into the state of every vertex.  `keys` gives
    each cell's (role kind, level, attach level), the one source of them;
    a partition found by `refine.refine` has none.
    """

    __slots__ = ("cell_of", "first", "links", "keys", "linked", "degree", "_scores")

    def __init__(
        self,
        cell_of: Sequence[int],
        first: tuple[int, ...],
        links: tuple[tuple[tuple[int, int], ...], ...],
        keys: Optional[tuple[tuple[str, int, int], ...]],
    ) -> None:
        self.cell_of = bytes(cell_of) if len(first) <= 256 else cell_of  # each vertex's cell
        self.first = first  # one vertex of every cell
        self.links = links  # per cell: the (cell l, neighbors in l) pairs
        self.keys = keys  # per cell: what it is
        self.linked = tuple(tuple(l for l, _ in pairs) for pairs in links)  # the cells l alone
        self.degree = tuple(sum(count for _, count in pairs) for pairs in links)
        # Owned by step: the params it last ran with, and per cell its scoring.
        self._scores: tuple[Optional[GameParams], tuple] = (None, ())

    def lift(self, bits: bytes) -> StrategyVector:
        """The state in which every vertex plays its cell's bit."""
        return StrategyVector(_lifted(self.cell_of, bits))

    def cooperators(self, bits: bytes) -> list[int]:
        """Every cell's number of cooperating neighbors, given the cell bits."""
        return [sum(count for l, count in pairs if bits[l]) for pairs in self.links]

    def step(self, params: GameParams, bits: bytes) -> bytes:
        """One synchronous update, by the rule of `step`, on the cell bits.
        Utilities are compared as exact integer scores on the scale of the
        cells' degrees, each cell's coefficients made once per params."""
        held, coefficients = self._scores
        if held != params:
            by_degree = _score_coefficients(params, self.degree)
            coefficients = tuple(map(by_degree.__getitem__, self.degree))
            self._scores = (params, coefficients)
        score = [slope * k + base for (slope, base), k
                 in zip(map(getitem, coefficients, bits), self.cooperators(bits))]
        masks = _top_masks(range(len(bits)), self.linked, bits, score)
        return bytes(own ^ (mask == 2 >> own) for own, mask in zip(bits, masks))

    def states(self, params: GameParams, x0: StrategyVector) -> Iterator[bytes]:
        """X(0), X(1), ... on the cells, one bit per cell: x0's bits at the
        first vertices, then `step` repeated.  The one loop that steps a
        Quotient; the states are x0's when x0 is constant on the cells."""
        bits = bytes(map(x0.bits.__getitem__, self.first))
        while True:
            yield bits
            bits = self.step(params, bits)


def _lifted(cell_of: Sequence[int], bits: bytes) -> bytes:
    """Every vertex's cell's bit: one C pass for cell_of as bytes (<= 256 cells)."""
    if isinstance(cell_of, bytes):
        return cell_of.translate(bits.ljust(256, b"\0"))
    return bytes(map(bits.__getitem__, cell_of))


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


def _stepped(graph: Graph, params: GameParams, x0: StrategyVector) -> Iterator[StrategyVector]:
    """X(0), X(1), ... from x0 by `step` on the whole graph, looked up in
    the module globals so that a wrapper patched over the name sees every
    step."""
    state = x0
    while True:
        yield state
        state = step(graph, params, state)


def _states(
    graph: Graph, params: GameParams, x0: StrategyVector, cells: Optional[Quotient]
) -> tuple[Iterator[Any], Callable[[Any], StrategyVector]]:
    """X(0), X(1), ... from x0, and what makes a StrategyVector of one:
    on the Quotient given as cells, its cell states and Quotient.lift;
    else the whole graph's states as they are.  A Quotient must cover the
    graph's n vertices and x0 be constant on its cells, else ValueError:
    states stepped on it would not be x0's."""
    if cells is None:
        return _stepped(graph, params, x0), lambda state: state
    if len(cells.cell_of) != graph.n:
        raise ValueError(f"a quotient of {len(cells.cell_of)} vertices "
                         f"for a graph with n={graph.n}")
    if _lifted(cells.cell_of, bytes(map(x0.bits.__getitem__, cells.first))) != x0.bits:
        raise ValueError("x0 is not constant on the cells of the quotient")
    return cells.states(params, x0), cells.lift


def _cycle(
    states: Iterator[Any], max_steps: int, lift: Callable[[Any], StrategyVector]
) -> tuple[tuple[Any, ...], int]:
    """The states X(0) .. X(T - 1) before the first revisit X(T), and the
    time of the state X(T) revisits, when T <= max_steps.  Else
    TrajectoryBudgetError with every state seen, lifted."""
    seen: dict[Any, int] = {}  # each state's first time, in order of first visit
    for t, state in zip(range(max_steps + 1), states):
        transient = seen.setdefault(state, t)
        if transient < t:
            return tuple(seen), transient
    raise TrajectoryBudgetError(f"no revisited state within {max_steps} steps",
                                tuple(map(lift, seen)))


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
    it, one bit per cell, finds the revisit on the cell bits and lifts
    only the states it reports, reading nothing of the graph but n.  The
    report is the one the whole graph gives, which runs without `cells`.

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
    states, lift = _states(graph, params, x0, cells)
    seen, transient = _cycle(states, max_steps, lift)
    states = tuple(map(lift, seen))
    counts = tuple(s.count_cooperators() for s in states)
    return TrajectoryReport(x0, transient, len(seen) - transient, states, counts)
