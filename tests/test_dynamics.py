import random
import sys
import threading
import warnings
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evocycle import (
    SYNCHRONOUS,
    GameParams,
    Graph,
    NonGenericParamsWarning,
    StrategyVector,
    TrajectoryBudgetError,
    UpdateSchedule,
    argmax_strategies,
    build_fcsh,
    build_hdpd,
    build_tree,
    is_fixed_point,
    mean_utility,
    step,
    trajectory,
    utility_profile,
)
from evocycle.analysis import replay
from genutil import (
    random_admissible_params,
    random_connected_graph,
    random_state,
)
from reference import params_to_pairs, ref_step

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
        assert step(graph, params, x0) == x0
        assert is_fixed_point(graph, params, x0)

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
            relabeled = graph.relabel(perm)
            moved = StrategyVector(
                state[perm.index(v)] for v in range(graph.n)
            )
            stepped_then_moved = step(graph, params, state)
            moved_then_stepped = step(relabeled, params, moved)
            for v in range(graph.n):
                assert moved_then_stepped[perm[v]] == stepped_then_moved[v]

    def test_explicit_active_set_matches_synchronous(self, rng):
        graph = random_connected_graph(rng, 7)
        params = random_admissible_params(rng)
        state = random_state(rng, 7)
        assert step(graph, params, state) == step(
            graph, params, state, active=frozenset(range(7))
        )

    def test_empty_active_set_freezes(self, rng):
        graph = random_connected_graph(rng, 5)
        params = random_admissible_params(rng)
        state = random_state(rng, 5)
        assert step(graph, params, state, active=frozenset()) == state


class TestUtilityProfile:
    def test_matches_mean_utility(self, rng):
        for _ in range(10):
            graph = random_connected_graph(rng, rng.randint(2, 9))
            params = random_admissible_params(rng)
            state = random_state(rng, graph.n)
            profile = utility_profile(graph, params, state)
            assert list(profile) == [
                mean_utility(graph, params, state, v) for v in range(graph.n)
            ]


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

    def test_non_generic_params_warn(self):
        graph = Graph(2, [(0, 1)])
        params = GameParams(3, 1, 4, 1)
        with pytest.warns(NonGenericParamsWarning):
            trajectory(graph, params, StrategyVector.from_string("10"))

    def test_periodic_schedule_against_reference(self, rng):
        for _ in range(15):
            graph = random_connected_graph(rng, rng.randint(3, 7))
            params = random_admissible_params(rng)
            x0 = random_state(rng, graph.n)
            half = list(range(0, graph.n, 2))
            rest = list(range(1, graph.n, 2))
            schedule = UpdateSchedule.periodic([half, rest])
            pairs = params_to_pairs(params)
            edges = edge_pair(graph)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonGenericParamsWarning)
                report = trajectory(graph, params, x0, schedule=schedule)
            bits = [x0[v] for v in range(graph.n)]
            for t in range(1, len(report.states)):
                active = half if (t - 1) % 2 == 0 else rest
                bits = ref_step(graph.n, edges, bits, pairs, active=set(active))
                assert [report.states[t][v] for v in range(graph.n)] == bits

    def test_periodic_schedule_period_multiple_of_phases_or_divisor_refined(self):
        # Alternating singleton updates on a 2-path, PD params: state
        # reaches all-D and stays there; the reported minimal period must
        # be 1 even though revisits are only checked at matching phases.
        graph = Graph(2, [(0, 1)])
        schedule = UpdateSchedule.periodic([[0], [1]])
        report = trajectory(
            graph, PD, StrategyVector.from_string("10"), schedule=schedule
        )
        assert report.minimal_period == 1
        assert report.states[-1].to_string() == "00"

    def test_schedule_must_fit_graph(self):
        graph = Graph(2, [(0, 1)])
        schedule = UpdateSchedule.periodic([[0, 5]])
        with pytest.raises(ValueError):
            trajectory(graph, PD, StrategyVector.from_string("10"), schedule=schedule)


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


def subsets(n):
    return st.none() | st.frozensets(st.integers(0, n - 1))


def assert_is_one_step(graph, params, before, after, active=None):
    """after is one update of before, both from scratch and by the oracle."""
    # A separate equal graph and a new bytes object: nothing is carried over.
    twin = Graph(graph.n, graph.edges())
    copy = StrategyVector(bytearray(before.bits))
    assert step(twin, params, copy, active) == after
    expected = ref_step(graph.n, list(graph.edges()), list(before.bits),
                        params_to_pairs(params), active=active)
    assert list(after.bits) == expected


class TestCarriedCounts:
    """step reuses the counts of the state it last returned on a graph; every
    state it so produces must equal a from-scratch update and the oracle."""

    @given(st.data())
    def test_chains_of_steps(self, data):
        graph, params, state = data.draw(small_games())
        for active in data.draw(st.lists(subsets(graph.n), max_size=8)):
            after = step(graph, params, state, active)
            assert_is_one_step(graph, params, state, after, active)
            state = after

    @given(small_games(), st.data())
    def test_trajectories_synchronous_and_periodic(self, game, data):
        graph, params, x0 = game
        phases = data.draw(st.lists(st.frozensets(st.integers(0, graph.n - 1)),
                                    max_size=3))
        schedule = UpdateSchedule.periodic(phases) if phases else SYNCHRONOUS
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonGenericParamsWarning)
            report = trajectory(graph, params, x0, schedule=schedule, max_steps=200)
        for t in range(1, len(report.states)):
            assert_is_one_step(graph, params, report.states[t - 1],
                               report.states[t], schedule.active_at(t - 1))

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

    @given(small_games(), st.data())
    def test_repeated_step_on_the_same_state(self, game, data):
        graph, params, x0 = game
        active = data.draw(subsets(graph.n))
        x1 = step(graph, params, x0, active)
        assert step(graph, params, x0, active) == x1
        x2 = step(graph, params, x1, active)
        assert step(graph, params, x1, active) == x2
        assert_is_one_step(graph, params, x0, x1, active)
        assert_is_one_step(graph, params, x1, x2, active)

    def test_threads_stepping_one_graph(self, rng):
        # Thread 0 advances a chain on a shared graph; the others step its
        # latest state too, so several calls often pass the state that the
        # graph's counts describe at once.  Each call takes the counts with
        # one atomic pop, so every result stays exact.
        graph = Graph(200, [(v, (v + 1) % 200) for v in range(200)])
        params = GameParams(1, "0.45", "1.24", 0)
        latest = [random_state(rng, graph.n)]
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
                        latest[0] = random_state(local, graph.n) if after == state else after
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
