"""The quotient replay of clique-chain witnesses against the full graph.

The family cells of evocycle.cli are checked against colour refinement
(1-WL), written here independently of the package: on small builds they
must be equitable and constant on x0, and on certified witnesses they must
be the coarsest equitable refinement of the x0 colouring.  Trajectories
and replays on the quotient must equal those on the whole graph and the
oracle in tests/reference.py, and every witness of the two families must
actually take the quotient, so that the fast path cannot be lost unseen.
"""

import contextlib
import io
import json
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import evocycle.analysis
import evocycle.dynamics
from evocycle import (
    GameParams,
    Graph,
    NonGenericParamsWarning,
    Quotient,
    StrategyVector,
    TrajectoryBudgetError,
    build_fcsh,
    build_hdpd,
    trajectory,
)
from evocycle.analysis import replay
from evocycle.cli import _FAMILIES, _cells, _solve, main, parse_params
from evocycle.serialize import instance_from_dict
from genutil import random_admissible_params, random_state
from reference import params_to_pairs, ref_step

FCSH_GRID = [build_fcsh(*sizes) for sizes in product((2, 3, 4), (1, 3), (1, 2), (1, 3))]
HDPD_GRID = [build_hdpd(*sizes) for sizes in product((2, 3, 5), (1, 3), (1, 2), (1, 2), (1, 3))]
GRID = FCSH_GRID + HDPD_GRID

# The four chain-witness quadruples of perfbench and the golden fcsh and
# hdpd ones of tests/test_golden.py.
CHAIN_QUADRUPLES = ("1,2/5,9/10,1/2", "1,1/2,4/5,0", "1,-9/20,27/20,0",
                    "1,9/20,31/25,0", "1,0.45,1.24,0")
GOLDEN = {"fcsh": ("1,1/2,4/5,0", "3"), "hdpd": ("1,0.45,1.24,0", "4")}
ORACLE_MAX_N = 60


def family_cells(instance):
    return _cells(_FAMILIES[instance.kind], instance)


def canonical(keys):
    """Cell numbers in order of first appearance: equal lists, equal partitions."""
    ids = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def colour_refinement(graph, colours):
    """The coarsest equitable partition refining `colours` (1-WL)."""
    cells = canonical(colours)
    while True:
        refined = canonical(
            (cells[v], tuple(sorted(cells[w] for w in graph.neighbors(v))))
            for v in range(graph.n)
        )
        if max(refined) == max(cells):  # refinement only splits cells
            return cells
        cells = refined


@pytest.mark.parametrize("instance", GRID, ids=lambda i: f"{i.kind}{i.structural_params}")
def test_family_cells_are_equitable_and_constant_on_x0(instance):
    cells = canonical(family_cells(instance))
    # Equitable: colour refinement splits no cell.
    assert colour_refinement(instance.graph, cells) == cells
    bit = {}
    assert all(bit.setdefault(c, b) == b for c, b in zip(cells, instance.x0.bits))
    assert Quotient.of(instance.graph, family_cells(instance)) is not None


def certified_witnesses():
    for text in CHAIN_QUADRUPLES:
        params = parse_params(text)
        for p in range(2, 9):
            family, _, sp = _solve(params, p, False, 10**6)
            yield pytest.param(family, sp, id=f"{text}:{p}")


@pytest.mark.parametrize("family,sp", certified_witnesses())
def test_family_cells_are_the_coarsest_equitable_refinement(family, sp):
    instance = family.build(sp)
    cells = canonical(family_cells(instance))
    assert cells == colour_refinement(instance.graph, instance.x0.bits)
    extra = 6 if family.kind == "fcsh" else 7
    assert max(cells) + 1 == sp["p"] + extra


def test_cell_keys_must_cover_the_graph():
    graph = Graph(3, [(0, 1), (1, 2)])
    assert Quotient.of(graph, [0, 1, 0]) is not None
    for keys in ([0, 1], [0, 1, 0, 1]):
        with pytest.raises(ValueError, match=f"{len(keys)} cell keys for a graph with n=3"):
            Quotient.of(graph, keys)


def test_more_than_256_cells():
    # hdpd p=250 has p + 7 = 257 cells, more than one byte can number.
    instance = build_hdpd(250, 1, 1, 1, 1)
    cells = family_cells(instance)
    quotient = Quotient.of(instance.graph, cells)
    assert quotient is not None and len(quotient.links) == 257
    params = parse_params("1,-9/20,27/20,0")
    fast = trajectory(instance.graph, params, instance.x0, cells=cells)
    assert fast == trajectory(instance.graph, params, instance.x0)
    assert replay(instance, params, cells) == replay(instance, params)


def witness_file(tmp_path, kind):
    params, period = GOLDEN[kind]
    out = tmp_path / kind
    assert main(["witness", "--params", params, "--period", period, "--out", str(out)]) == 0
    return params, out / "instance.json"


def count_steps(monkeypatch):
    """Count the full-graph steps that trajectory and replay take."""
    calls = []
    for module in (evocycle.dynamics, evocycle.analysis):
        original = module.step

        def counted(*args, _step=original, **kwargs):
            calls.append(1)
            return _step(*args, **kwargs)

        monkeypatch.setattr(module, "step", counted)
    return calls


def quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


class TestFastPathGuard:
    @pytest.mark.parametrize("kind", ["fcsh", "hdpd"])
    def test_golden_witnesses_take_the_quotient(self, tmp_path, monkeypatch, kind):
        params, path = witness_file(tmp_path, kind)
        instance = instance_from_dict(json.loads(path.read_text()))
        assert Quotient.of(instance.graph, family_cells(instance)) is not None
        calls = count_steps(monkeypatch)
        for command in ("simulate", "verify"):
            assert quiet([command, "--params", params, "--instance", str(path)])[0] == 0
        assert quiet(["sweep", "--params", params, "--periods", GOLDEN[kind][1]])[0] == 0
        assert calls == []

    @pytest.mark.parametrize("instance,flipped", [
        # fcsh: the cliques K_n with n > 0, so K_n and K_-n now differ.
        (build_fcsh(3, 3, 2, 3), lambda role: role.kind == "K" and role.index[0] > 0),
        (build_fcsh(4, 2, 1, 2), lambda role: role.kind == "K" and role.index[0] > 0),
        # hdpd: position 1 of every layer, and one pendant of g_R.
        (build_hdpd(3, 3, 2, 1, 2), lambda role: role.kind == "K" and role.index[1] == 1),
        (build_hdpd(4, 2, 3, 2, 2), lambda role: role.kind == "H" and role.index == (1,)),
    ], ids=["fcsh-3", "fcsh-4", "hdpd-position", "hdpd-pendant"])
    def test_cells_without_the_x0_split_take_the_quotient(self, monkeypatch, instance,
                                                         flipped):
        # A start that differs from x0 on whole cells of a finer equitable
        # partition is not constant on the family cells, but its own split
        # of them is equitable.
        cells = [_FAMILIES[instance.kind].cell(role) for role in instance.roles]
        start = StrategyVector(
            bit ^ flipped(role) for bit, role in zip(instance.x0.bits, instance.roles)
        )
        split = canonical(zip(cells, start.bits))
        assert split != canonical(cells)
        assert colour_refinement(instance.graph, split) == split
        moved = replace(instance, x0=start)
        for text in GOLDEN.values():
            params = parse_params(text[0])
            full = run(instance.graph, params, start, 64)
            full_replay = replay(moved, params)
            calls = count_steps(monkeypatch)
            assert run(instance.graph, params, start, 64, cells) == full
            assert replay(moved, params, cells) == full_replay
            assert calls == []
            monkeypatch.undo()

    def test_tampered_golden_replays_the_whole_graph(self, tmp_path, monkeypatch):
        params, path = witness_file(tmp_path, "hdpd")
        data = json.loads(path.read_text())
        data["graph"]["edges"].pop()
        path.write_text(json.dumps(data))
        instance = instance_from_dict(data)
        assert Quotient.of(instance.graph, family_cells(instance)) is None
        calls = count_steps(monkeypatch)
        assert quiet(["verify", "--params", params, "--instance", str(path)])[0] == 1
        assert len(calls) == instance.predicted_period


# Payoffs from a small grid (ties and non-admissible quadruples are common)
# or admissible quadruples of every scenario, some with a tie.
GRID_PAYOFFS = st.tuples(*[st.integers(-4, 4).map(lambda k: Fraction(k, 2))] * 4).map(
    lambda values: GameParams(*values))
SCENARIO_PAYOFFS = st.randoms(use_true_random=False).map(random_admissible_params)
CHAIN_SIZES = st.one_of(
    st.tuples(st.just(build_fcsh), st.integers(2, 4), st.integers(1, 3),
              st.integers(1, 2), st.integers(1, 3)),
    st.tuples(st.just(build_hdpd), st.integers(2, 5), st.integers(1, 3),
              st.integers(1, 3), st.integers(1, 2), st.integers(1, 3)),
)


def run(graph, params, x0, max_steps, cells=None):
    """The report, or the states of the budget error."""
    try:
        return trajectory(graph, params, x0, max_steps=max_steps, cells=cells)
    except TrajectoryBudgetError as exc:
        return exc.states


class TestDifferential:
    @given(CHAIN_SIZES, GRID_PAYOFFS | SCENARIO_PAYOFFS, st.integers(1, 12),
           st.none() | st.randoms(use_true_random=False))
    def test_quotient_trajectory_equals_the_full_one(self, sizes, params, max_steps, rng):
        instance = sizes[0](*sizes[1:])
        graph, cells = instance.graph, family_cells(instance)
        # The split of the cells by a random start is rarely equitable, and
        # the run must then take the whole graph.
        x0 = instance.x0 if rng is None else random_state(rng, graph.n)
        assert Quotient.of(graph, cells) is not None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonGenericParamsWarning)
            full = run(graph, params, x0, max_steps)
            fast = run(graph, params, x0, max_steps, cells)
        assert fast == full
        states = full if isinstance(full, tuple) else full.states
        if graph.n <= ORACLE_MAX_N:
            edges, pairs = list(graph.edges()), params_to_pairs(params)
            following = [list(s.bits) for s in states[1:]]
            if not isinstance(full, tuple):
                following.append(list(states[full.transient].bits))
            for before, after in zip(states, following):
                assert ref_step(graph.n, edges, list(before.bits), pairs) == after
        assert replay(instance, params, cells) == replay(instance, params)


def tampered(data, how):
    """A copy of an instance dict with one fault of the given kind."""
    data = json.loads(json.dumps(data))
    edges, n = data["graph"]["edges"], data["graph"]["n"]
    if how == "x0-flip":
        x0 = data["x0"]
        data["x0"] = x0[:1] + ("0" if x0[1] == "1" else "1") + x0[2:]
    elif how == "x0-flip-last":
        x0 = data["x0"]
        data["x0"] = x0[:-1] + ("0" if x0[-1] == "1" else "1")
    elif how == "edge-added":
        present = {tuple(edge) for edge in edges}
        edges.append(next([0, w] for w in range(n - 1, 0, -1) if (0, w) not in present))
    elif how == "edge-removed":
        del edges[len(edges) // 2]
    elif how == "roles-swapped":
        roles = data["roles"]
        kinds = [role[0] for role in roles]
        other = next(v for v in range(n - 1, 0, -1) if kinds[v] != kinds[0])
        roles[0], roles[other] = roles[other], roles[0]
    return data


@pytest.mark.parametrize("kind", ["fcsh", "hdpd"])
@pytest.mark.parametrize("how", ["x0-flip", "x0-flip-last", "edge-added",
                                 "edge-removed", "roles-swapped"])
def test_tampered_files_give_the_full_path_bytes(tmp_path, monkeypatch, kind, how):
    params, path = witness_file(tmp_path, kind)
    path.write_text(json.dumps(tampered(json.loads(path.read_text()), how)))
    commands = [[command, "--params", params, "--instance", str(path), "--format", fmt]
                for command in ("simulate", "verify") for fmt in ("text", "json")]
    fast = [quiet(argv) for argv in commands]
    monkeypatch.setattr(Quotient, "of", classmethod(lambda cls, graph, cells: None))
    assert [quiet(argv) for argv in commands] == fast
