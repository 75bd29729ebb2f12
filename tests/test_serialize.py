from fractions import Fraction

import pytest

from evocycle import (
    GameParams,
    Graph,
    StrategyVector,
    build_hdpd,
    build_tree,
    check_tree,
    trajectory,
)
from evocycle.serialize import (
    counts_to_csv,
    certificate_to_dict,
    dumps,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    instance_from_dict,
    instance_to_dict,
    params_from_dict,
    params_to_dict,
    rational_to_str,
    read_json,
    report_to_dict,
    write_json,
)


class TestRoundTrips:
    def test_graph(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        data = graph_to_dict(graph)
        assert data == {"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}
        assert graph_from_dict(data) == graph

    @pytest.mark.parametrize("n", ["2", 2.0])
    def test_graph_rejects_non_integer_vertex_counts(self, n):
        with pytest.raises(ValueError):
            graph_from_dict({"n": n, "edges": [[0, 1]]})

    def test_params_stay_exact(self):
        params = GameParams(1, "-0.45", "27/20", 0)
        data = params_to_dict(params)
        assert data == {"a": "1", "b": "-9/20", "c": "27/20", "d": "0"}
        assert params_from_dict(data) == params

    def test_instance_reserialization_is_byte_identical(self):
        for instance in (build_hdpd(3, 4, 2, 1, 5), build_tree(2, 6)):
            text = dumps(instance_to_dict(instance))
            again = instance_from_dict(instance_to_dict(instance))
            assert dumps(instance_to_dict(again)) == text
            assert again.graph == instance.graph
            assert again.x0 == instance.x0
            assert list(again.roles) == list(instance.roles)
            assert again.structural_params == dict(instance.structural_params)

    def test_write_and_read_json(self, tmp_path):
        instance = build_hdpd(2, 3, 1, 1, 4)
        path = tmp_path / "instance.json"
        write_json(path, instance_to_dict(instance))
        data = read_json(path)
        assert instance_from_dict(data).graph == instance.graph

    def test_instance_rejects_inconsistent_sizes(self):
        instance = build_hdpd(2, 3, 1, 1, 4)
        data = instance_to_dict(instance)
        data["x0"] = data["x0"][:-1]
        with pytest.raises(ValueError):
            instance_from_dict(data)
        data = instance_to_dict(instance)
        data["roles"] = data["roles"][:-1]
        with pytest.raises(ValueError):
            instance_from_dict(data)


class TestSnapshots:
    def test_rational_strings(self):
        assert rational_to_str(Fraction(-9, 20)) == "-9/20"
        assert rational_to_str(Fraction(3)) == "3"

    def test_dot_output(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        state = StrategyVector.from_string("101")
        assert graph_to_dot(graph, state) == (
            "graph G {\n"
            "  node [shape=circle, style=filled];\n"
            '  0 [fillcolor="black", fontcolor="white"];\n'
            '  1 [fillcolor="white"];\n'
            '  2 [fillcolor="black", fontcolor="white"];\n'
            "  0 -- 1;\n"
            "  1 -- 2;\n"
            "}\n"
        )

    def test_counts_csv(self):
        assert counts_to_csv([(0, 5), (1, 3)]) == "t,cooperators\n0,5\n1,3\n"

    def test_certificate_dict_is_kind_tagged(self):
        cert = check_tree(GameParams(1, "0.6", 2, 0), 2, 6)
        data = certificate_to_dict(cert)
        assert data == {
            "kind": "tree",
            "r": 2,
            "q": 6,
            "residuals": {"spread": "1/15", "retreat": "1/3"},
            "leafward_spread": False,
        }

    def test_report_dict(self):
        graph = Graph(2, [(0, 1)])
        params = GameParams(1, 0, "3/2", "1/5")
        report = trajectory(graph, params, StrategyVector.from_string("10"))
        data = report_to_dict(report)
        assert data == {
            "initial_state": "10",
            "transient": 1,
            "minimal_period": 1,
            "states": ["10", "00"],
            "cooperator_counts": [1, 0],
        }

    def test_dumps_is_stable(self):
        payload = {"b": 1, "a": [2, 3]}
        assert dumps(payload) == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
