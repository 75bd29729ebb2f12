"""The closed forms of the witness families against their builders.

fcsh_layout, hdpd_layout and tree_layout write an instance down from its
structural integers, and fcsh_quotient, hdpd_quotient and tree_quotient
its quotient, each family's one source of replay cells.  On small grids
each must equal what is read off the built graph, which is computed here
from the adjacency alone: the sorted later neighbours of every vertex,
the roles and x0, the coarsest equitable partition refining x0 (colour
refinement, in tests/genutil.py) with quotient_of's link tables on it (up
to the numbering of the cells), and the JSON and DOT texts.  A tree is
held to the per-vertex builder in tests/genutil.py instead, and its
quotient to the partition keyed by (role kind, level, attach level, x0
bit) that it records, with the numbering exact.  Every member of a
closed-form cell must have that cell's key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocycle import Quotient
from evocycle.cli import _FCSH, _HDPD
from evocycle.constructions import (fcsh_layout, fcsh_quotient, hdpd_layout, hdpd_quotient,
                                    tree_layout, tree_quotient)
from evocycle.serialize import dumps, graph_to_dot, instance_to_dict, write_json
from genutil import build, colour_refinement, is_connected, quotient_of, reference_tree

SIZES = st.one_of(
    st.tuples(st.just(_FCSH), st.tuples(st.integers(2, 6), st.integers(1, 4),
                                        st.integers(1, 3), st.integers(1, 4))),
    st.tuples(st.just(_HDPD), st.tuples(st.integers(2, 8), st.integers(1, 4),
                                        st.integers(1, 3), st.integers(1, 3),
                                        st.integers(1, 4))),
)


def relabelled(quotient, to):
    """quotient's links with every cell k renamed to[k], in to's order."""
    links = [None] * len(quotient.links)
    for k, pairs in enumerate(quotient.links):
        links[to[k]] = sorted((to[l], count) for l, count in pairs)
    return links


def assert_same_up_to_relabelling(got, expected):
    """Equal partitions of the vertices, and equal link tables once each
    cell of got takes the number of the same cell in expected."""
    assert len(got.cell_of) == len(expected.cell_of)
    to = dict(zip(got.cell_of, expected.cell_of))
    assert len(to) == len(set(to.values())) == len(got.links) == len(expected.links)
    assert [to[k] for k in got.cell_of] == list(expected.cell_of)
    assert [got.cell_of[v] for v in got.first] == list(range(len(got.links)))
    assert relabelled(got, to) == [list(pairs) for pairs in expected.links]


@given(SIZES)
def test_closed_form_equals_the_build(tmp_path_factory, case):
    family, sizes = case
    sp = dict(zip(family.params, sizes))
    built, laid_out = build(family, sp), family.layout(sp)
    graph = built.graph
    assert is_connected(graph)

    later = [(v, [w for w in graph.neighbors(v) if w > v]) for v in range(graph.n)]
    assert laid_out.graph.n == graph.n
    assert [(v, list(ws)) for v, ws in laid_out.graph.later_neighbors()] == [
        (v, ws) for v, ws in later if ws]
    # The roles come as runs, and expand to the builder's role tuple.
    assert laid_out.roles is None and laid_out.role_tuple() == built.roles
    assert laid_out.x0 == built.x0
    assert (laid_out.kind, laid_out.structural_params, laid_out.predicted_period) == (
        built.kind, built.structural_params, built.predicted_period)

    cells = colour_refinement(graph, built.x0.bits)
    assert_same_up_to_relabelling(family.quotient(sp), quotient_of(graph, cells))

    path = tmp_path_factory.mktemp("layout") / "instance.json"
    write_json(path, laid_out)
    assert path.read_text(encoding="utf-8") == dumps(instance_to_dict(built))
    assert graph_to_dot(laid_out.graph, laid_out.x0) == graph_to_dot(graph, built.x0)


@settings(max_examples=40)
@given(st.one_of(SIZES, st.tuples(st.just(None), st.tuples(st.integers(2, 3),
                                                          st.integers(5, 8)))))
def test_every_cell_member_has_its_cells_key(case):
    # Each closed form keys its cells by what their members are: a chain
    # vertex by its role kind and clique |n| (fcsh) or n (hdpd), a tree
    # vertex by its (role kind, level, attach level).
    family, sizes = case
    if family is None:
        quotient, keys = tree_quotient(*sizes), reference_tree(*sizes)[1]
    else:
        sp = dict(zip(family.params, sizes))
        quotient = family.quotient(sp)
        keys = [(role.kind, abs(role.index[0]) if role.kind == "K" else 0, -1)
                for role in build(family, sp).roles]
    assert len(quotient.keys) == len(quotient.first)
    assert [quotient.keys[k] for k in quotient.cell_of] == keys


def test_relabelling_check_catches_a_wrong_link():
    quotient = hdpd_quotient(3, 2, 1, 1, 2)
    links = list(quotient.links)
    links[-1] = tuple((l, count + 1) for l, count in links[-1])
    with pytest.raises(AssertionError):
        assert_same_up_to_relabelling(
            Quotient(quotient.cell_of, quotient.first, tuple(links), quotient.keys), quotient)


@pytest.mark.parametrize("closed_form,sizes", [
    (fcsh_layout, (1, 2, 2, 2)), (fcsh_layout, (2, 0, 2, 2)),
    (fcsh_quotient, (1, 2, 2, 2)), (fcsh_quotient, (2, 2, 2, -1)),
    (hdpd_layout, (1, 2, 2, 2, 2)), (hdpd_layout, (2, 2, 0, 2, 2)),
    (hdpd_quotient, (1, 2, 2, 2, 2)), (hdpd_quotient, (2, 2, 2, 2, 0)),
    (tree_layout, (1, 6)), (tree_layout, (3, 4)),
    (tree_quotient, (1, 6)), (tree_quotient, (3, 4)),
])
def test_closed_forms_refuse_what_the_builders_refuse(closed_form, sizes):
    with pytest.raises(ValueError):
        closed_form(*sizes)


@settings(max_examples=15)
@given(st.integers(2, 4), st.integers(5, 10))
def test_tree_closed_forms_equal_the_per_vertex_build(tmp_path_factory, r, q):
    reference, keys = reference_tree(r, q)
    graph, laid_out = reference.graph, tree_layout(r, q)
    assert is_connected(graph) and graph.edge_count == graph.n - 1
    assert laid_out.graph.n == graph.n
    assert [(v, list(ws)) for v, ws in laid_out.graph.later_neighbors()] == [
        (v, list(ws)) for v, ws in graph.later_neighbors()]
    assert laid_out.roles is None and laid_out.role_tuple() == reference.roles
    assert laid_out.x0 == reference.x0
    assert (laid_out.kind, laid_out.structural_params, laid_out.predicted_period) == (
        reference.kind, reference.structural_params, reference.predicted_period)

    keyed = quotient_of(graph, [(*key, bit) for key, bit in zip(keys, reference.x0.bits)])
    quotient = tree_quotient(r, q)
    assert (quotient.cell_of, quotient.first, quotient.links) == (
        keyed.cell_of, keyed.first, keyed.links)
    assert len(quotient.first) == (q * q - 3 * q + 4) // 2

    if graph.n <= 5000:
        path = tmp_path_factory.mktemp("tree") / "instance.json"
        write_json(path, laid_out)
        assert path.read_text(encoding="utf-8") == dumps(instance_to_dict(reference))
        assert graph_to_dot(laid_out.graph, laid_out.x0) == graph_to_dot(graph, reference.x0)
