import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocycle import (
    GameParams,
    Graph,
    StrategyVector,
    build_fcsh,
    build_hdpd,
    build_tree,
    check_tree,
    trajectory,
)
from evocycle.constructions import Role, fcsh_layout, hdpd_layout, tree_layout
from evocycle.serialize import (
    _BLOCK,
    _RUN,
    _holds,
    _role_text,
    counts_to_csv,
    certificate_to_dict,
    dumps,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    instance_from_dict,
    instance_to_dict,
    rational_to_str,
    read_json,
    report_to_dict,
    write_dot,
    write_json,
)


SMALL_INSTANCES = st.one_of(
    st.builds(build_fcsh, st.integers(2, 4), st.integers(1, 4), st.integers(1, 3),
              st.integers(1, 4)),
    st.builds(build_hdpd, st.integers(2, 5), st.integers(1, 4), st.integers(1, 4),
              st.integers(1, 3), st.integers(1, 4)),
    st.builds(build_tree, st.integers(2, 3), st.integers(5, 7)),
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

    @pytest.mark.parametrize("endpoint", [1.9, 1.0, "1", None, True])
    def test_graph_rejects_non_integer_endpoints(self, endpoint):
        with pytest.raises(ValueError, match="^not a graph object: "):
            graph_from_dict({"n": 3, "edges": [[0, endpoint], [1, 2]]})

    @settings(max_examples=40)
    @given(SMALL_INSTANCES)
    def test_write_json_writes_the_dumps_bytes(self, tmp_path_factory, instance):
        # An instance streams from its adjacency and role tuples, whether
        # built or loaded; everything else goes through the encoder.
        data = instance_to_dict(instance)
        loaded = instance_from_dict(json.loads(dumps(data)))
        small = build_hdpd(2, 3, 1, 1, 4)
        report = report_to_dict(
            trajectory(small.graph, GameParams(1, "0.45", "1.24", 0), small.x0))
        certificate = certificate_to_dict(check_tree(GameParams(1, "0.6", 2, 0), 2, 6))
        path = tmp_path_factory.mktemp("json") / "out.json"
        for obj, payload in [(instance, data), (loaded, data), (data, data),
                             (certificate, certificate), (report, report)]:
            write_json(path, obj)
            assert path.read_bytes() == dumps(payload).encode("utf-8")

    def test_writing_an_instance_holds_no_per_edge_list(self, tmp_path):
        # Writing instance_to_dict's output peaked at 101 bytes per edge
        # here; the instance writer holds one vertex's edges at a time.
        instance = build_fcsh(4, 10, 8, 16)  # 22,785 edges
        tracemalloc.start()
        try:
            write_json(tmp_path / "instance.json", instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * instance.graph.edge_count

    def test_a_parsed_tree_holds_one_role_object_per_distinct_role(self):
        tree = build_tree(2, 12)
        roles = instance_from_dict(instance_to_dict(tree)).roles
        assert roles == tree.roles
        assert len({id(role) for role in roles}) == len(set(roles)) < 100

    @pytest.mark.parametrize("key,value", [("x0", 5), ("structural_params", [1])])
    def test_instance_rejects_fields_of_the_wrong_json_type(self, key, value):
        # Both used to escape as AttributeError, a traceback from the CLI.
        data = instance_to_dict(build_hdpd(2, 3, 1, 1, 4))
        data[key] = value
        with pytest.raises(ValueError, match="^not an instance object: "):
            instance_from_dict(data)

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


# Built witnesses, each with its closed-form Layout twin where it has one.
BLOCK_INSTANCES = st.one_of(
    st.tuples(st.integers(2, 5), st.integers(1, 4), st.integers(1, 3), st.integers(1, 4))
    .map(lambda a: (build_fcsh(*a), fcsh_layout(*a))),
    st.tuples(st.integers(2, 6), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
              st.integers(1, 4))
    .map(lambda a: (build_hdpd(*a), hdpd_layout(*a))),
    st.tuples(st.integers(2, 3), st.integers(5, 8)).map(lambda a: (build_tree(*a),
                                                                   tree_layout(*a))),
)


class TestBlockWriter:
    """write_json and write_dot write, and _holds compares, _BLOCK bytes at
    a time; the bytes are those of the whole text, wherever blocks end."""

    @settings(max_examples=60, deadline=None)
    @given(BLOCK_INSTANCES)
    def test_blocks_join_to_the_reference_text(self, tmp_path_factory, instances):
        built, twin = instances
        json_text = dumps(instance_to_dict(built)).encode("utf-8")
        dot_text = graph_to_dot(built.graph, built.x0).encode("utf-8")
        directory = tmp_path_factory.mktemp("blocks")
        for instance in (built, twin):
            write_json(directory / "instance.json", instance)
            assert (directory / "instance.json").read_bytes() == json_text
            write_dot(directory / "instance.dot", instance.graph, instance.x0)
            assert (directory / "instance.dot").read_bytes() == dot_text
            with open(directory / "instance.json", "rb") as handle:
                assert _holds(handle, instance)

    @pytest.mark.parametrize("instance", [fcsh_layout(3, 5, 4, 6), build_tree(2, 9),
                                          tree_layout(2, 9)],
                             ids=["fcsh", "tree", "tree-layout"])
    def test_holds_refuses_one_byte_changed_added_or_dropped(self, tmp_path, instance):
        path = tmp_path / "instance.json"
        write_json(path, instance)
        data = path.read_bytes()
        assert len(data) > 2 * _BLOCK

        def holds(content):
            path.write_bytes(content)
            with open(path, "rb") as handle:
                return _holds(handle, instance)

        assert holds(data)
        assert not holds(data + b"\n")
        assert not holds(data[:-1])
        for at in (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, len(data) - 1):
            assert not holds(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]), at


class TestRoleText:
    RUNS = [("ordinary", (4, 1), None), ("ordinary", (4, 1), None), ("ordinary", (4, True), None),
            ("ordinary", (4, 1), None), ("K", (1,), range(1, 3)), ("K", (1,), range(1, 3)),
            ("special", (True,), None), ("special", (1,), None), ("special", (1,), None)]

    def test_one_text_per_stretch_of_equal_runs(self):
        alone = [next(_role_text([run])) for run in self.RUNS]
        assert "True" in alone[2] and "True" not in alone[0]
        texts = list(_role_text(self.RUNS))
        # Equal runs share a text, but True and 1 are written apart.
        assert len(texts) == 6
        assert ",\n".join(texts) == ",\n".join(alone)

    def test_a_long_stretch_is_written_in_bounded_chunks(self):
        run = ("ordinary", (9, 3), None)
        texts = list(_role_text([run] * (2 * _RUN + 1)))
        assert [text.count("ordinary") for text in texts] == [_RUN, _RUN, 1]
        assert ",\n".join(texts) == ",\n".join([next(_role_text([run]))] * (2 * _RUN + 1))

    def test_an_instance_writes_true_and_1_apart(self, tmp_path):
        instance = build_tree(2, 5)
        roles = list(instance.roles)
        roles[-2:] = [Role("ordinary", (5, True)), Role("ordinary", (5, 1))]
        odd = replace(instance, roles=tuple(roles))
        write_json(tmp_path / "instance.json", odd)
        assert (tmp_path / "instance.json").read_text(encoding="utf-8").endswith(
            '      5,\n      True\n    ],\n    [\n      "ordinary",\n      5,\n      1\n    ]\n'
            '  ],\n  "structural_params": {\n    "q": 5,\n    "r": 2\n  },\n  "x0": "'
            + instance.x0.to_string() + '"\n}\n')


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

    @settings(max_examples=40)
    @given(SMALL_INSTANCES, st.booleans())
    def test_dot_output_matches_a_per_edge_rendering(self, instance, with_state):
        # graph_to_dot writes each vertex's later neighbours in one join;
        # the bytes must be those of one line per edge in edge order.
        graph = instance.graph
        state = instance.x0 if with_state else None
        nodes = [
            f'  {v} [fillcolor="black", fontcolor="white"];' if state is not None and state[v]
            else f'  {v} [fillcolor="white"];'
            for v in range(graph.n)
        ]
        edges = [f"  {i} -- {j};" for i, j in graph.edges()]
        assert graph_to_dot(graph, state) == "\n".join(
            ["graph G {", "  node [shape=circle, style=filled];", *nodes, *edges, "}"]) + "\n"

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
