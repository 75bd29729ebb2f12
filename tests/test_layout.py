"""The closed forms of the clique-chain families against their builders.

fcsh_layout and hdpd_layout write an instance down from its structural
integers, and fcsh_quotient and hdpd_quotient the quotient by its family
cells split by x0.  On small grids each must equal what is read off the
built graph, which is computed here from the adjacency alone: the sorted
later neighbours of every vertex, the roles and x0, Quotient.of's link
tables (up to the numbering of the cells), and the JSON and DOT texts.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evocycle import Quotient
from evocycle.cli import _FCSH, _HDPD, _cells
from evocycle.constructions import fcsh_layout, fcsh_quotient, hdpd_layout, hdpd_quotient
from evocycle.serialize import dumps, graph_to_dot, instance_to_dict, write_json

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
    assert [to[k] for k in got.cell_of] == expected.cell_of
    assert [got.cell_of[v] for v in got.first] == list(range(len(got.links)))
    assert relabelled(got, to) == [list(pairs) for pairs in expected.links]


@given(SIZES)
def test_closed_form_equals_the_build(tmp_path_factory, case):
    family, sizes = case
    sp = dict(zip(family.params, sizes))
    built, laid_out = family.build(sp), family.layout(sp)
    graph = built.graph

    later = [(v, [w for w in graph.neighbors(v) if w > v]) for v in range(graph.n)]
    assert laid_out.graph.n == graph.n
    assert [(v, list(ws)) for v, ws in laid_out.graph.later_neighbors()] == [
        (v, ws) for v, ws in later if ws]
    assert laid_out.roles == built.roles and laid_out.x0 == built.x0
    assert (laid_out.kind, laid_out.structural_params, laid_out.predicted_period) == (
        built.kind, built.structural_params, built.predicted_period)

    cells = list(zip(_cells(family, built), built.x0.bits))
    assert_same_up_to_relabelling(family.quotient(sp), Quotient.of(graph, cells))

    path = tmp_path_factory.mktemp("layout") / "instance.json"
    write_json(path, laid_out)
    assert path.read_text(encoding="utf-8") == dumps(instance_to_dict(built))
    assert graph_to_dot(laid_out.graph, laid_out.x0) == graph_to_dot(graph, built.x0)


def test_relabelling_check_catches_a_wrong_link():
    quotient = hdpd_quotient(3, 2, 1, 1, 2)
    links = list(quotient.links)
    links[-1] = tuple((l, count + 1) for l, count in links[-1])
    with pytest.raises(AssertionError):
        assert_same_up_to_relabelling(Quotient(quotient.cell_of, quotient.first, tuple(links)),
                                      quotient)


@pytest.mark.parametrize("closed_form,sizes", [
    (fcsh_layout, (1, 2, 2, 2)), (fcsh_layout, (2, 0, 2, 2)),
    (fcsh_quotient, (1, 2, 2, 2)), (fcsh_quotient, (2, 2, 2, -1)),
    (hdpd_layout, (1, 2, 2, 2, 2)), (hdpd_layout, (2, 2, 0, 2, 2)),
    (hdpd_quotient, (1, 2, 2, 2, 2)), (hdpd_quotient, (2, 2, 2, 2, 0)),
])
def test_closed_forms_refuse_what_the_builders_refuse(closed_form, sizes):
    with pytest.raises(ValueError):
        closed_form(*sizes)
