import contextlib
import gc
import pickle
import random
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evocycle import (
    GameParams,
    Graph,
    NonGenericParamsWarning,
    Quotient,
    StrategyVector,
    TrajectoryBudgetError,
    argmax_strategies,
    build_fcsh,
    build_hdpd,
    build_tree,
    mean_utility,
    step,
    trajectory,
)
from evocycle.analysis import replay
from evocycle.refine import refine
from genutil import (
    canonical,
    colour_refinement,
    random_admissible_params,
    random_connected_graph,
    random_state,
    relabel,
    vertex_steps,
)
from reference import (
    params_to_pairs,
    ref_eq,
    ref_lt,
    ref_neighbors,
    ref_step,
    ref_utility,
)

PD = GameParams(1, 0, "3/2", "1/5")


def edge_pair(graph):
    return list(graph.edges())


class TestStep:
    def test_two_vertex_path_converges(self):
        graph = Graph(2, [(0, 1)])
        x0 = StrategyVector.from_string("10")
        x1 = step(graph, PD, x0)
        assert x1.to_string() == "00"
        report = trajectory(graph, PD, x0)
        assert report.transient == 1
        assert report.minimal_period == 1

    def test_strategy_tie_keeps_state(self):
        # Path C,C,D under (1, 1/2, 1, 0): the middle vertex sees one top
        # cooperator and one top defector at equal utility and must keep C.
        graph = Graph(3, [(0, 1), (1, 2)])
        params = GameParams(1, "1/2", 1, 0)
        x0 = StrategyVector.from_string("110")
        assert argmax_strategies(graph, params, x0, 1) == frozenset({0, 1})
        fixed = step(graph, params, x0)
        assert fixed == x0
        # stepped again, now from the counts the graph carries
        assert step(graph, params, fixed) == fixed

    def test_matches_reference_oracle(self, rng):
        for _ in range(60):
            graph = random_connected_graph(rng, rng.randint(2, 9))
            params = random_admissible_params(rng)
            pairs = params_to_pairs(params)
            edges = edge_pair(graph)
            state = random_state(rng, graph.n)
            bits = [state[v] for v in range(graph.n)]
            for _ in range(10):
                state = step(graph, params, state)
                bits = ref_step(graph.n, edges, bits, pairs)
                assert [state[v] for v in range(graph.n)] == bits

    def test_argmax_strategies_match_reference_oracle(self, rng):
        # Every vertex's top-scorer strategies, and step's flip, against
        # maximisers found with the oracle's cross-multiplied comparisons.
        # Mixed ties are rare, so draw enough cases to meet some.
        mixed = 0
        for _ in range(400):
            graph = random_connected_graph(rng, rng.randint(2, 9))
            params = random_admissible_params(rng)
            pairs = params_to_pairs(params)
            edges = edge_pair(graph)
            state = random_state(rng, graph.n)
            bits = [state[v] for v in range(graph.n)]
            utility = [ref_utility(edges, bits, pairs, v) for v in range(graph.n)]
            nxt = step(graph, params, state)
            for v in range(graph.n):
                closed = [v] + ref_neighbors(edges, v)
                best = utility[v]
                for w in closed:
                    if ref_lt(best, utility[w]):
                        best = utility[w]
                expected = {bits[w] for w in closed if ref_eq(utility[w], best)}
                assert argmax_strategies(graph, params, state, v) == expected
                assert (nxt[v] != bits[v]) == (expected == {1 - bits[v]})
                mixed += expected == {0, 1}
        assert mixed > 0

    def test_deterministic(self, rng):
        graph = random_connected_graph(rng, 8)
        params = random_admissible_params(rng)
        x0 = random_state(rng, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonGenericParamsWarning)
            first = trajectory(graph, params, x0)
            second = trajectory(graph, params, x0)
        assert first.states == second.states
        assert (first.transient, first.minimal_period) == (
            second.transient, second.minimal_period,
        )

    def test_commutes_with_relabeling(self, rng):
        for _ in range(25):
            graph = random_connected_graph(rng, rng.randint(2, 8))
            params = random_admissible_params(rng)
            state = random_state(rng, graph.n)
            perm = list(range(graph.n))
            rng.shuffle(perm)
            relabeled = relabel(graph, perm)
            moved = StrategyVector(
                state[perm.index(v)] for v in range(graph.n)
            )
            stepped_then_moved = step(graph, params, state)
            moved_then_stepped = step(relabeled, params, moved)
            for v in range(graph.n):
                assert moved_then_stepped[perm[v]] == stepped_then_moved[v]

    def test_uniform_states_are_fixed(self, rng):
        # Every closed neighborhood plays one strategy, so no vertex moves.
        for _ in range(20):
            graph = random_connected_graph(rng, rng.randint(2, 9))
            params = random_admissible_params(rng)
            for bit in (0, 1):
                state = StrategyVector([bit] * graph.n)
                fixed = step(graph, params, state)
                assert fixed == state
                # stepped again, now from the counts the graph carries
                assert step(graph, params, fixed) == fixed

    def test_state_must_fit_graph(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="state has 2 entries, graph has 3"):
            step(graph, PD, StrategyVector.from_string("10"))


class TestTrajectory:
    def test_report_shape(self, rng):
        for _ in range(20):
            graph = random_connected_graph(rng, rng.randint(2, 7))
            params = random_admissible_params(rng)
            x0 = random_state(rng, graph.n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonGenericParamsWarning)
                report = trajectory(graph, params, x0)
            assert report.initial_state == x0
            assert len(report.states) == report.transient + report.minimal_period
            assert report.cooperator_counts == tuple(
                s.count_cooperators() for s in report.states
            )
            # one more step from the last stored state closes the cycle
            closing = step(graph, params, report.states[-1])
            assert closing == report.states[report.transient]
            assert report.state_at(len(report.states) + 3) == report.state_at(
                report.transient + (len(report.states) + 3 - report.transient)
                % report.minimal_period
            )
            assert report.cycle == report.states[report.transient:]
            assert len(set(report.cycle)) == report.minimal_period

    def test_state_at_refuses_negative_time(self):
        report = trajectory(Graph(2, [(0, 1)]), PD, StrategyVector.from_string("10"))
        assert report.state_at(0).to_string() == "10"
        with pytest.raises(ValueError, match="time must be nonnegative"):
            report.state_at(-1)

    def test_budget_error_carries_states(self):
        # A 6-cycle of alternating pairs under HD params moves; with a
        # 2-step budget the search cannot close and must raise.
        graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        params = GameParams(1, "0.45", "1.24", 0)
        x0 = StrategyVector.from_string("110100")
        with pytest.raises(TrajectoryBudgetError) as excinfo:
            trajectory(graph, params, x0, max_steps=2)
        assert len(excinfo.value.states) == 3  # X(0), X(1), X(2)
        assert excinfo.value.states[0] == x0
        # A process-pool worker, a sweep row among them, hands it back pickled.
        again = pickle.loads(pickle.dumps(excinfo.value))
        assert type(again) is TrajectoryBudgetError
        assert (str(again), again.states) == (str(excinfo.value), excinfo.value.states)

    def test_non_generic_params_warn(self):
        graph = Graph(2, [(0, 1)])
        params = GameParams(3, 1, 4, 1)
        with pytest.warns(NonGenericParamsWarning):
            trajectory(graph, params, StrategyVector.from_string("10"))

    def test_first_revisit_matches_reference(self, rng):
        # The oracle is iterated until some state comes back; its first
        # time fixes the transient and the steps since then the period.
        for _ in range(20):
            graph = random_connected_graph(rng, rng.randint(2, 8))
            params = random_admissible_params(rng)
            x0 = random_state(rng, graph.n)
            pairs = params_to_pairs(params)
            edges = edge_pair(graph)
            seen = []
            bits = [x0[v] for v in range(graph.n)]
            while bits not in seen:
                seen.append(bits)
                bits = ref_step(graph.n, edges, bits, pairs)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonGenericParamsWarning)
                report = trajectory(graph, params, x0)
            assert [list(s.bits) for s in report.states] == seen
            assert report.transient == seen.index(bits)
            assert report.minimal_period == len(seen) - seen.index(bits)

    def test_budget_is_exact(self):
        # From 10 on a 2-path under PD the run is 10, 00, 00: the revisit
        # comes at the second update, so a budget of 2 suffices and 1 does not.
        graph = Graph(2, [(0, 1)])
        x0 = StrategyVector.from_string("10")
        report = trajectory(graph, PD, x0, max_steps=2)
        assert (report.transient, report.minimal_period) == (1, 1)
        with pytest.raises(TrajectoryBudgetError) as excinfo:
            trajectory(graph, PD, x0, max_steps=1)
        assert [s.to_string() for s in excinfo.value.states] == ["10", "00"]
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            trajectory(graph, PD, x0, max_steps=0)

    @pytest.mark.parametrize("max_steps", [2**63 - 1, 2**63, 10**20])
    def test_any_budget_past_the_machine_word(self, max_steps):
        # A budget is a bound on updates, not a count to allocate: one
        # beyond sys.maxsize stops at the revisit like any other.
        graph = Graph(2, [(0, 1)])
        x0 = StrategyVector.from_string("10")
        assert trajectory(graph, PD, x0, max_steps=max_steps) == trajectory(graph, PD, x0)

    def test_state_must_fit_graph(self):
        graph = Graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="state has 3 entries, graph has 2"):
            trajectory(graph, PD, StrategyVector.from_string("100"))



# Payoffs from a small grid, so tied payoffs and tied utilities are common.
PAYOFFS = st.integers(-4, 4).map(lambda k: Fraction(k, 2))


@st.composite
def small_games(draw, max_n=16):
    """(graph, params, x0) on a connected graph of at most max_n vertices."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [pair for pair in combinations(range(n), 2) if pair not in edges]
    if others:
        edges.update(draw(st.lists(st.sampled_from(others), unique=True)))
    params = GameParams(*(draw(PAYOFFS) for _ in range(4)))
    return Graph(n, sorted(edges)), params, draw(states(n))


def states(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).map(StrategyVector)


def assert_is_one_step(graph, params, before, after):
    """after is one update of before, both from scratch and by the oracle."""
    # A separate equal graph and a new bytes object: nothing is carried over.
    twin = Graph(graph.n, graph.edges())
    copy = StrategyVector(bytearray(before.bits))
    assert step(twin, params, copy) == after
    expected = ref_step(graph.n, list(graph.edges()), list(before.bits),
                        params_to_pairs(params))
    assert list(after.bits) == expected


def symmetric_graphs():
    """Cycles, complete bipartite graphs and small trees, n <= 60, each with
    a start that keeps much of its symmetry."""
    cases = [pytest.param(Graph(n, [(v, (v + 1) % n) for v in range(n)]),
                          StrategyVector(v % 4 < 2 for v in range(n)), id=f"C{n}")
             for n in (3, 8, 31, 60)]
    cases += [pytest.param(Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)]),
                           StrategyVector(v < a for v in range(a + b)), id=f"K{a},{b}")
              for a, b in ((1, 5), (3, 4), (6, 6))]
    cases.append(pytest.param(Graph(31, [((v - 1) // 2, v) for v in range(1, 31)]),
                              StrategyVector(v < 7 for v in range(31)), id="binary-31"))
    cases += [pytest.param(instance.graph, instance.x0, id=f"tree{instance.structural_params}")
              for instance in (build_tree(2, 5), build_tree(2, 6))]
    return cases


SYMMETRIC = symmetric_graphs()


def carried(graph):
    """What step carries on the graph for the state it last returned."""
    return graph._step_counts[0][2]


class TestRefinement:
    """refine against colour refinement in tests/genutil.py, written
    independently of the package: the coarsest equitable partition that
    refines the state's two classes."""

    @given(small_games())
    def test_coarsest_equitable_partition_of_the_state(self, game):
        graph, _, state = game
        quotient = refine(graph._adj, state.bits)
        assert quotient.keys is None
        cell_of = list(quotient.cell_of)
        assert canonical(cell_of) == canonical(colour_refinement(graph, state.bits))
        # It refines the state and is equitable, with the links it claims.
        assert quotient.lift(bytes(map(state.bits.__getitem__, quotient.first))) == state
        for v in range(graph.n):
            k = cell_of[v]
            assert cell_of[quotient.first[k]] == k
            around = Counter(cell_of[w] for w in graph.neighbors(v))
            assert sorted(around.items()) == list(quotient.links[k])

    @pytest.mark.parametrize("graph,start", SYMMETRIC)
    def test_symmetric_graphs(self, graph, start, rng):
        for state in (start, StrategyVector.uniform(graph.n, 1), random_state(rng, graph.n)):
            quotient = refine(graph._adj, state.bits)
            assert canonical(quotient.cell_of) == canonical(colour_refinement(graph, state.bits))
        # One cooperator on a cycle: the cells are the distances from it.
        if all(graph.degree(v) == 2 for v in range(graph.n)):
            one = StrategyVector([1] + [0] * (graph.n - 1))
            assert len(refine(graph._adj, one.bits).first) == graph.n // 2 + 1

    def test_gives_up_past_the_budget(self, monkeypatch):
        graph = Graph(200, [(v, (v + 1) % 200) for v in range(200)])
        one = StrategyVector([1] + [0] * 199)  # 101 cells, past the floor of 64
        assert refine(graph._adj, one.bits) is None
        monkeypatch.setattr("evocycle.refine._BUDGET_FLOOR", 101)
        assert len(refine(graph._adj, one.bits).first) == 101


class TestCarriedCounts:
    """step carries what it learnt of the state it last returned on a
    graph: the cells of its refinement or, where that gives up, every
    vertex's counts.  Every state it so produces, on either path, must
    equal a from-scratch update and the oracle."""

    @pytest.fixture(autouse=True, params=["cells", "vertices"])
    def path(self, request):
        self.path = request.param
        with vertex_steps() if self.path == "vertices" else contextlib.nullcontext():
            yield

    @pytest.mark.parametrize("graph,start", SYMMETRIC)
    def test_symmetric_graphs_take_their_path(self, graph, start, rng):
        # The budget has a floor: small symmetric graphs step on cells.
        params = random_admissible_params(rng)
        pairs, edges = params_to_pairs(params), list(graph.edges())
        for state in (start, random_state(rng, graph.n)):
            for _ in range(6):
                after = step(graph, params, state)
                assert isinstance(carried(graph), Quotient) == (self.path == "cells")
                assert list(after.bits) == ref_step(graph.n, edges, list(state.bits), pairs)
                state = after

    @given(small_games(), st.integers(0, 8))
    def test_chains_of_steps(self, game, steps):
        graph, params, state = game
        for _ in range(steps):
            after = step(graph, params, state)
            assert_is_one_step(graph, params, state, after)
            state = after

    @given(small_games())
    def test_trajectories_synchronous(self, game):
        graph, params, x0 = game
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonGenericParamsWarning)
            report = trajectory(graph, params, x0, max_steps=200)
        for t in range(1, len(report.states)):
            assert_is_one_step(graph, params, report.states[t - 1], report.states[t])

    @given(small_games(), st.data())
    def test_two_trajectories_stepped_alternately(self, game, data):
        graph, first_params, x0 = game
        params = [first_params, GameParams(*(data.draw(PAYOFFS) for _ in range(4)))]
        current = [x0, data.draw(states(graph.n))]
        # Each move advances one of the two states under either quadruple.
        moves = st.tuples(st.integers(0, 1), st.integers(0, 1))
        for k, j in data.draw(st.lists(moves, max_size=12)):
            after = step(graph, params[j], current[k])
            assert_is_one_step(graph, params[j], current[k], after)
            current[k] = after

    @given(small_games())
    def test_repeated_step_on_the_same_state(self, game):
        graph, params, x0 = game
        x1 = step(graph, params, x0)
        assert step(graph, params, x0) == x1
        x2 = step(graph, params, x1)
        assert step(graph, params, x1) == x2
        assert_is_one_step(graph, params, x0, x1)
        assert_is_one_step(graph, params, x1, x2)

    def test_threads_stepping_one_graph(self, rng):
        # Thread 0 advances a chain on a shared graph; the others step its
        # latest state too, so several calls often pass the state that the
        # graph carries at once.  Each call takes what the graph carries
        # with one atomic pop, so every result stays exact.  The states
        # repeat every 10 vertices, so that the cells stay few.
        graph = Graph(200, [(v, (v + 1) % 200) for v in range(200)])
        params = GameParams(1, "0.45", "1.24", 0)

        def periodic_state(rng):
            return StrategyVector(random_state(rng, 10).bits * 20)

        latest = [periodic_state(rng)]
        failures = []

        def walk(seed):
            local = random.Random(seed)
            twin = Graph(graph.n, graph.edges())
            try:
                for _ in range(300):
                    state = latest[0]
                    after = step(graph, params, state)
                    if step(twin, params, StrategyVector(bytearray(state.bits))) != after:
                        failures.append(f"thread {seed}: wrong state")
                    if seed == 0:
                        latest[0] = periodic_state(local) if after == state else after
            except Exception as exc:  # a broken hand-off can also raise
                failures.append(f"thread {seed}: {exc!r}")

        threads = [threading.Thread(target=walk, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_new_key_in_mid_trajectory(self):
        # On the path 0-1-...-6, the utilities under x0 are 0, 4/5, 1 and 2.
        # In x1, vertex 6 cooperates next to a defector: a new key whose
        # utility 3/5 lies strictly between two of them, so the carried call
        # meets a key it has not scored yet and must score it on the scale
        # of the keys it scored before.
        graph = Graph(7, [(v, v + 1) for v in range(6)])
        params = GameParams(1, "3/5", 2, 0)
        x0 = StrategyVector.from_string("0011011")
        x1 = step(graph, params, x0)
        assert x1 == StrategyVector.from_string("0000001")
        known = {mean_utility(graph, params, x0, v) for v in range(graph.n)}
        assert known == {0, Fraction(4, 5), 1, 2}
        assert mean_utility(graph, params, x1, 6) == Fraction(3, 5)
        x2 = step(graph, params, x1)
        assert_is_one_step(graph, params, x0, x1)
        assert_is_one_step(graph, params, x1, x2)

    def test_stars_with_degrees_past_the_machine_word(self, monkeypatch, rng):
        # The stars K_{1,k}, k = 1..60, side by side: the lcm of their
        # degrees, and so the scale of the integer scores, exceeds 2**64.
        # The budget is lifted so that the cells path keeps its many cells.
        # Stars share no edge, so the oracle steps each on its own.
        sizes = range(1, 61)
        assert lcm(*sizes) > 2 ** 64
        firsts = [k * (k + 1) // 2 - 1 for k in sizes]  # each centre
        graph = Graph(firsts[-1] + 61, [(v, v + j) for v, k in zip(firsts, sizes)
                                        for j in range(1, k + 1)])
        if self.path == "cells":
            monkeypatch.setattr("evocycle.refine._BUDGET_FLOOR", graph.n)
        for params in (random_admissible_params(rng), GameParams(1, "1/2", 1, 0),
                       GameParams(1, "-1e-300", Fraction(1) + Fraction("1e-300"), 0)):
            pairs, state = params_to_pairs(params), random_state(rng, graph.n)
            for _ in range(2):
                after = step(graph, params, state)
                assert isinstance(carried(graph), Quotient) == (self.path == "cells")
                expected = []
                for v, k in zip(firsts, sizes):
                    star = [(0, j) for j in range(1, k + 1)]
                    expected += ref_step(k + 1, star, list(state.bits[v:v + k + 1]), pairs)
                assert list(after.bits) == expected
                state = after

    @pytest.mark.parametrize("r,q", [(2, 14), (3, 9)])
    def test_carried_state_memory_per_vertex(self, r, q):
        # The first step refines the state, or counts every vertex, and
        # the graph then carries the cells or the counts and the last
        # state; a step allocates a few lists of n entries.  A list of n
        # key tuples, a set of vertices, or the refinement's cells holding
        # a new int object per vertex would break these bounds.  A full
        # collection first empties the interpreter's free lists, so that
        # the peaks count every object made.
        instance = build_tree(r, q)
        graph, n = instance.graph, instance.graph.n
        params = GameParams(1, "3/5", 2, 0)
        gc.collect()
        tracemalloc.start()
        try:
            x1 = step(graph, params, instance.x0)
            first = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            step(graph, params, x1)
            peak = tracemalloc.get_traced_memory()[1] - before
            del x1
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert first < 64 * n
        assert peak < 64 * n
        assert held < 24 * n

    @pytest.mark.parametrize("params,instance", [
        (GameParams(1, "1/2", "4/5", 0), lambda: build_fcsh(4, 4, 10, 8)),
        (GameParams(1, "-9/20", "27/20", 0), lambda: build_hdpd(6, 14, 22, 1, 5)),
        (GameParams(1, "3/5", 2, 0), lambda: build_tree(2, 7)),
    ])
    def test_witness_replay_matches_scratch(self, params, instance):
        instance = instance()
        states = replay(instance, params)
        assert states[-1] == instance.x0
        twin = Graph(instance.graph.n, instance.graph.edges())
        for before, after in zip(states, states[1:]):
            assert step(twin, params, StrategyVector(bytearray(before.bits))) == after
