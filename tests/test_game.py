from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evocycle import (
    GameParams,
    Graph,
    Scenario,
    StrategyVector,
    argmax_strategies,
    as_rational,
    classify_scenario,
    mean_utility,
    normalize_params,
)
from genutil import (is_connected, random_connected_graph, random_scenario_params, random_state,
                     relabel)


class TestAsRational:
    def test_decimal_string_is_exact(self):
        assert as_rational("0.45") == Fraction(9, 20)
        assert as_rational("1.24") == Fraction(31, 25)
        assert as_rational("-0.45") == Fraction(-9, 20)

    def test_ratio_string(self):
        assert as_rational("27/20") == Fraction(27, 20)
        assert as_rational("-1/3") == Fraction(-1, 3)

    def test_int_and_fraction_pass_through(self):
        assert as_rational(7) == Fraction(7)
        assert as_rational(Fraction(2, 6)) == Fraction(1, 3)

    def test_float_is_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.45)

    def test_garbage_is_rejected(self):
        with pytest.raises(ValueError):
            as_rational("one half")

    def test_exponents_up_to_1000_parse_exactly(self):
        assert as_rational("1e3") == Fraction(1000)
        assert as_rational("2.5E-3") == Fraction(1, 400)
        assert as_rational("1e1000") == Fraction(10**1000)
        assert as_rational("1e-1000") == Fraction(1, 10**1000)

    @pytest.mark.parametrize("text", ["1e1001", "1e10000000", "-2.5E-1001", "1e+1_001"])
    def test_larger_exponents_are_refused(self, text):
        # Fraction would expand the power of ten in full: 1e10000000 took
        # about ten seconds.
        with pytest.raises(ValueError, match="exceeds 1000 in magnitude"):
            as_rational(text)


class TestGameParams:
    def test_fields_coerced_to_fractions(self):
        params = GameParams(1, "0.45", "1.24", 0)
        assert params.as_tuple() == (
            Fraction(1), Fraction(9, 20), Fraction(31, 25), Fraction(0),
        )

    def test_admissible_and_generic_flags(self):
        assert GameParams(1, "0.45", "1.24", 0).admissible
        assert GameParams(1, "0.45", "1.24", 0).generic
        assert not GameParams(1, "0.5", "0.4", 0).admissible
        tied = GameParams(3, 1, 4, 1)
        assert tied.admissible
        assert not tied.generic

    def test_float_field_rejected(self):
        with pytest.raises(TypeError):
            GameParams(1, 0.45, 1.24, 0)


class TestClassify:
    @pytest.mark.parametrize(
        "quad,expected",
        [
            ((1, "-0.45", "1.35", 0), Scenario.PD),
            ((1, 0, "0.5", "0.25"), Scenario.SH),
            ((1, "0.45", "1.24", 0), Scenario.HD),
            ((1, "0.5", "0.8", 0), Scenario.FC),
            ((1, "0.5", "0.4", 0), Scenario.NON_ADMISSIBLE),
        ],
    )
    def test_frozen_examples(self, quad, expected):
        assert classify_scenario(GameParams(*quad)) is expected

    def test_admissible_with_tie_has_no_scenario(self):
        # min{a,c} > max{b,d} holds, but b = d breaks every strict chain.
        params = GameParams(3, 1, 4, 1)
        assert params.admissible
        assert classify_scenario(params) is Scenario.NON_ADMISSIBLE

    def test_each_scenario_reachable(self, rng):
        seen = {classify_scenario(random_scenario_params(rng)).value
                for _ in range(80)}
        assert seen == {"PD", "SH", "HD", "FC"}


class TestNormalize:
    def test_frozen_example(self):
        normalized = normalize_params(GameParams(3, 1, 4, 1))
        assert normalized.as_tuple() == (
            Fraction(1), Fraction(0), Fraction(3, 2), Fraction(0),
        )

    def test_requires_a_above_d(self):
        with pytest.raises(ValueError):
            normalize_params(GameParams(0, 1, 2, 0))

    @given(st.data())
    def test_scenario_invariant_under_normalization(self, data):
        values = data.draw(
            st.lists(
                st.fractions(min_value=-3, max_value=3, max_denominator=12),
                min_size=4, max_size=4, unique=True,
            )
        )
        w, x, y, z = sorted(values)
        tag = data.draw(st.sampled_from(["PD", "SH", "HD", "FC"]))
        if tag == "PD":
            params = GameParams(y, w, z, x)
        elif tag == "SH":
            params = GameParams(z, w, y, x)
        elif tag == "HD":
            params = GameParams(y, x, z, w)
        else:
            params = GameParams(z, x, y, w)
        assert classify_scenario(params).value == tag
        assert classify_scenario(normalize_params(params)).value == tag
        renorm = normalize_params(params)
        assert renorm.a == 1 and renorm.d == 0


class TestGraph:
    def test_validation(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for n=3$"):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
            Graph(3, [(1, 1), (0, 2)])
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            Graph(3, [(0, 1), (1, 0), (1, 2)])
        with pytest.raises(ValueError, match=r"^vertex 2 has degree 0$"):
            Graph(3, [(0, 1)])  # vertex 2 would be isolated

    def test_edges_are_canonical(self):
        graph = Graph(3, [(2, 1), (1, 0)])
        assert tuple(graph.edges()) == ((0, 1), (1, 2))
        assert graph.edge_count == 2
        assert graph.degree(1) == 2

    def test_connectivity(self):
        assert is_connected(Graph(3, [(0, 1), (1, 2)]))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_relabel_preserves_structure(self, rng):
        for _ in range(20):
            graph = random_connected_graph(rng, rng.randint(2, 8))
            perm = list(range(graph.n))
            rng.shuffle(perm)
            relabeled = relabel(graph, perm)
            assert sorted(graph.degree(v) for v in range(graph.n)) == sorted(
                relabeled.degree(v) for v in range(graph.n)
            )
            for v in range(graph.n):
                assert relabeled.degree(perm[v]) == graph.degree(v)

    def test_equality_and_hash(self):
        g1 = Graph(3, [(0, 1), (1, 2)])
        g2 = Graph(3, [(1, 2), (0, 1)])
        assert g1 == g2 and hash(g1) == hash(g2)


class TestStrategyVector:
    def test_string_round_trip(self):
        state = StrategyVector.from_string("1101")
        assert state.to_string() == "1101"
        assert state.count_cooperators() == 3

    def test_cooperate_defect_aliases(self):
        assert StrategyVector.from_string("CCD") == StrategyVector.from_string("110")

    def test_uniform(self):
        assert StrategyVector.uniform(4, 1).to_string() == "1111"
        assert StrategyVector.uniform(3, 0).count_cooperators() == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            StrategyVector.from_string("10X")
        for bad in ([0, 2], bytes([0, 1] * 50 + [255])):
            with pytest.raises(ValueError, match="strategies must be 0 or 1"):
                StrategyVector(bad)
        with pytest.raises(ValueError):
            StrategyVector([])
        with pytest.raises(TypeError):
            StrategyVector("101")


class TestMeanUtility:
    def test_path_values(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        state = StrategyVector.from_string("110")
        params = GameParams(1, "-0.45", "1.35", 0)
        a, b, c, d = params.as_tuple()
        assert mean_utility(graph, params, state, 0) == a
        assert mean_utility(graph, params, state, 1) == (a + b) / 2
        assert mean_utility(graph, params, state, 2) == c

    def test_edge_sum_consistency(self, rng):
        # Summing degree-weighted mean utilities recovers the sum of the
        # pairwise payoffs over ordered adjacent pairs.
        for _ in range(30):
            graph = random_connected_graph(rng, rng.randint(2, 9))
            params = random_scenario_params(rng)
            state = random_state(rng, graph.n)
            a, b, c, d = params.as_tuple()
            total = sum(
                graph.degree(v) * mean_utility(graph, params, state, v)
                for v in range(graph.n)
            )
            pairwise = Fraction(0)
            for i, j in graph.edges():
                for v, w in ((i, j), (j, i)):
                    if state[v] and state[w]:
                        pairwise += a
                    elif state[v]:
                        pairwise += b
                    elif state[w]:
                        pairwise += c
                    else:
                        pairwise += d
            assert total == pairwise


@pytest.mark.parametrize("vertex", [-1, 3])
def test_vertex_outside_the_graph_is_refused(vertex):
    # A negative vertex must not be read as a Python index (-1 as vertex 2).
    graph = Graph(3, [(0, 1), (1, 2)])
    state = StrategyVector.from_string("110")
    params = GameParams(1, "-0.45", "1.35", 0)
    calls = (
        lambda: mean_utility(graph, params, state, vertex),
        lambda: argmax_strategies(graph, params, state, vertex),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"^vertex {vertex} outside graph with n=3$"):
            call()
