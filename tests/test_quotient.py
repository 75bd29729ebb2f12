"""The quotient replay of clique-chain witnesses against the full graph.

The closed-form quotients of the two families (fcsh_quotient,
hdpd_quotient), their one source of replay cells, are checked against
colour refinement (1-WL), written in tests/genutil.py independently of
the package: on small builds their cells must be equitable and constant
on x0, and on certified witnesses the coarsest equitable refinement of
the x0 colouring.  Trajectories and replays on a quotient must equal
those on the whole graph and the oracle in tests/reference.py, on the
closed form and on a start's own split of its cells, tampered files
included, and every canonical witness must actually take the quotient,
so that the fast path cannot be lost unseen.  One step of
Quotient.step, which compares utilities as exact integer scores on the
scale of its cells' degrees, must lift to the whole-graph step on chain
and tree quotients under changing, tied and finely spaced payoffs, and
those scores must order and tie every pair of keys as the utilities do.
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
import evocycle.cli
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
    build_tree,
    step,
    trajectory,
)
from evocycle.analysis import _Cells, replay
from evocycle.cli import _FAMILIES, _solve, main, parse_params
from evocycle.game import _utility
from evocycle.refine import refine
from genutil import (build, canonical, colour_refinement, permuted, quotient_of,
                     random_admissible_params, random_state, relabel, vertex_steps)
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


def closed_form(instance):
    """The family's closed-form Quotient for the instance's structural integers."""
    return _FAMILIES[instance.kind].quotient(instance.structural_params)


@pytest.mark.parametrize("instance", GRID, ids=lambda i: f"{i.kind}{i.structural_params}")
def test_family_cells_are_equitable_and_constant_on_x0(instance):
    cell_of = closed_form(instance).cell_of
    cells = canonical(cell_of)
    # Equitable: colour refinement splits no cell.
    assert colour_refinement(instance.graph, cells) == cells
    bit = {}
    assert all(bit.setdefault(c, b) == b for c, b in zip(cells, instance.x0.bits))
    assert quotient_of(instance.graph, cell_of) is not None


def certified_witnesses():
    for text in CHAIN_QUADRUPLES:
        params = parse_params(text)
        for p in range(2, 9):
            family, _, sp = _solve(params, p, False, 10**6)
            yield pytest.param(family, sp, id=f"{text}:{p}")


@pytest.mark.parametrize("family,sp", certified_witnesses())
def test_family_cells_are_the_coarsest_equitable_refinement(family, sp):
    instance = build(family, sp)
    cells = canonical(family.quotient(sp).cell_of)
    assert cells == colour_refinement(instance.graph, instance.x0.bits)
    extra = 6 if family.kind == "fcsh" else 7
    assert max(cells) + 1 == sp["p"] + extra


def test_cell_keys_must_cover_the_graph():
    graph = Graph(3, [(0, 1), (1, 2)])
    assert quotient_of(graph, [0, 1, 0]) is not None
    for keys in ([0, 1], [0, 1, 0, 1]):
        with pytest.raises(ValueError, match=f"{len(keys)} cell keys for a graph with n=3"):
            quotient_of(graph, keys)


def test_more_than_256_cells():
    # hdpd p=250 has p + 7 = 257 cells, more than one byte can number, so
    # its cells stay a list; at p=249, 256 cells, they are bytes, which
    # lift in one bytes.translate.
    assert isinstance(closed_form(build_hdpd(249, 1, 1, 1, 1)).cell_of, bytes)
    instance = build_hdpd(250, 1, 1, 1, 1)
    assert isinstance(closed_form(instance).cell_of, list)
    quotient = quotient_of(instance.graph, closed_form(instance).cell_of)
    assert quotient is not None and len(quotient.links) == 257
    params = parse_params("1,-9/20,27/20,0")
    fast = trajectory(instance.graph, params, instance.x0, cells=quotient)
    assert fast == trajectory(instance.graph, params, instance.x0)
    assert replay(instance, params, quotient) == replay(instance, params)


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
        instance = build(_FAMILIES[kind], json.loads(path.read_text())["structural_params"])
        assert quotient_of(instance.graph, closed_form(instance).cell_of) is not None
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
        # partition is not constant on the closed-form cells, but its own
        # split of them is equitable, and its Quotient serves.
        cells = closed_form(instance).cell_of
        start = StrategyVector(
            bit ^ flipped(role) for bit, role in zip(instance.x0.bits, instance.roles)
        )
        split = canonical(zip(cells, start.bits))
        assert split != canonical(cells)
        assert colour_refinement(instance.graph, split) == split
        quotient = quotient_of(instance.graph, split)
        moved = replace(instance, x0=start)
        for text in GOLDEN.values():
            params = parse_params(text[0])
            full = run(instance.graph, params, start, 64)
            full_replay = replay(moved, params)
            calls = count_steps(monkeypatch)
            assert run(instance.graph, params, start, 64, quotient) == full
            assert replay(moved, params, quotient) == full_replay
            assert calls == []
            monkeypatch.undo()

    def test_tampered_golden_replays_the_whole_graph(self, tmp_path, monkeypatch):
        params, path = witness_file(tmp_path, "hdpd")
        data = json.loads(path.read_text())
        data["graph"]["edges"].pop()
        path.write_text(json.dumps(data))
        calls = count_steps(monkeypatch)
        assert quiet(["verify", "--params", params, "--instance", str(path)])[0] == 1
        assert len(calls) == data["predicted_period"]


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
        graph, cells = instance.graph, closed_form(instance).cell_of
        # The split of the cells by a random start is rarely equitable, and
        # the run must then take the whole graph; x0's split always is.
        x0 = instance.x0 if rng is None else random_state(rng, graph.n)
        quotient = quotient_of(graph, list(zip(cells, x0.bits)))
        assert rng is not None or quotient is not None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonGenericParamsWarning)
            full = run(graph, params, x0, max_steps)
            fast = run(graph, params, x0, max_steps, quotient)
        assert fast == full
        states = full if isinstance(full, tuple) else full.states
        if graph.n <= ORACLE_MAX_N:
            edges, pairs = list(graph.edges()), params_to_pairs(params)
            following = [list(s.bits) for s in states[1:]]
            if not isinstance(full, tuple):
                following.append(list(states[full.transient].bits))
            for before, after in zip(states, following):
                assert ref_step(graph.n, edges, list(before.bits), pairs) == after
        assert replay(instance, params, closed_form(instance)) == replay(instance, params)



@pytest.mark.parametrize("max_steps", [1, 3, 10_000])
def test_trajectory_lifts_each_reported_state_once(monkeypatch, max_steps):
    # The revisit is found on the cell bits, and only the states reported,
    # by the report or by the budget error, are lifted: each of them once.
    instance = build_hdpd(5, 3, 2, 1, 3)
    params = parse_params("1,-9/20,27/20,0")
    full = run(instance.graph, params, instance.x0, max_steps)
    lifted, lift = [], evocycle.dynamics.Quotient.lift
    monkeypatch.setattr(evocycle.dynamics.Quotient, "lift",
                        lambda *args: lifted.append(lift(*args)) or lifted[-1])
    fast = run(instance.graph, params, instance.x0, max_steps, closed_form(instance))
    assert fast == full
    assert lifted == list(fast if isinstance(fast, tuple) else fast.states)


QUOTIENT_SIZES = st.one_of(
    st.tuples(st.just("fcsh"), st.tuples(st.integers(2, 4), st.integers(1, 3),
                                         st.integers(1, 2), st.integers(1, 3))),
    st.tuples(st.just("hdpd"), st.tuples(st.integers(2, 5), st.integers(1, 3),
                                         st.integers(1, 2), st.integers(1, 2), st.integers(1, 3))),
    st.tuples(st.just("tree"), st.tuples(st.integers(2, 3), st.integers(5, 7))),
)
# Tied quadruples, on which the keep-on-tie rule decides.
TIED_PAYOFFS = st.sampled_from(["1,0,1,0", "1,1/2,1,0", "2,0,1,0", "1,-1/2,3/2,-1/2"]).map(
    parse_params)
# Payoffs of unlike denominators up to 7, or 1e-300 apart (denominators
# 10**300).
FINE_PAYOFFS = st.one_of(
    st.tuples(*[st.fractions(-2, 2, max_denominator=7)] * 4),
    st.tuples(*[st.integers(-2, 2).map(lambda k: 1 + k * Fraction("1e-300"))] * 4),
).map(lambda values: GameParams(*values))


@given(QUOTIENT_SIZES, st.lists(GRID_PAYOFFS | SCENARIO_PAYOFFS | TIED_PAYOFFS | FINE_PAYOFFS,
                                min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_quotient_step_lifts_to_the_whole_graph_step(case, payoffs, rng):
    # Quotient.step keeps its cells' score coefficients per params; one
    # quotient stepped under several params, and the same params again,
    # must lift each step to the one the whole graph takes.
    kind, sizes = case
    family = _FAMILIES[kind]
    sp = dict(zip(family.params, sizes))
    graph, quotient = build(family, sp).graph, family.quotient(sp)
    for params in payoffs + payoffs[:1]:
        bits = bytes(rng.randrange(2) for _ in quotient.first)
        state = quotient.lift(bits)
        with vertex_steps():
            assert quotient.lift(quotient.step(params, bits)) == step(graph, params, state)


# Degree sets, some with every degree up to 60, whose lcm exceeds 2**64.
DEGREE_SETS = st.builds(set.union, st.sets(st.integers(1, 64), min_size=1, max_size=6),
                        st.sampled_from([set(), set(range(1, 61))]))


@given(GRID_PAYOFFS | SCENARIO_PAYOFFS | TIED_PAYOFFS | FINE_PAYOFFS, DEGREE_SETS)
def test_scores_order_and_tie_like_the_utilities(params, degrees):
    # The integer scores on one scale for the params and the degrees
    # compare every pair of keys as their exact utilities do, ties
    # included: sorted by utility, each key's score must exceed the one
    # before exactly when its utility does, and equal it otherwise.
    by_degree = evocycle.dynamics._score_coefficients(params, degrees)

    def score(own, k, deg):
        slope, base = by_degree[deg][own]
        return slope * k + base

    keys = [(own, k, deg) for deg in degrees for own in (0, 1) for k in range(deg + 1)]
    scored = sorted((_utility(params, *key), score(*key)) for key in keys)
    for (utility, score), (next_utility, next_score) in zip(scored, scored[1:]):
        assert (score < next_score, score == next_score) == (utility < next_utility,
                                                             utility == next_utility)


@given(QUOTIENT_SIZES, st.randoms(use_true_random=False), GRID_PAYOFFS | SCENARIO_PAYOFFS)
def test_refinement_finds_the_closed_form_cells(case, rng, params):
    # On a clean build, relabelled or not, step refines x0 to the
    # closed-form cells (up to numbering), steps on them, and each of its
    # states is the closed-form replay's, relabelled.
    kind, sizes = case
    family = _FAMILIES[kind]
    sp = dict(zip(family.params, sizes))
    instance, quotient = build(family, sp), family.quotient(sp)
    perm = list(range(instance.graph.n))
    if rng.randrange(2):
        rng.shuffle(perm)
    graph = relabel(instance.graph, perm)
    expected = [0] * len(perm)
    for v, k in enumerate(quotient.cell_of):
        expected[perm[v]] = k
    refined = refine(graph._adj, permuted(instance.x0, perm).bits)
    assert canonical(refined.cell_of) == canonical(expected)
    states = replay(instance, params, quotient)
    state = permuted(states[0], perm)
    for after in states[1:]:
        state = step(graph, params, state)
        assert isinstance(graph._step_counts[0][2], Quotient)
        assert state == permuted(after, perm)


def test_refined_quotients_have_no_keys_to_check():
    instance = build_tree(2, 6)
    quotient = refine(instance.graph._adj, instance.x0.bits)
    with pytest.raises(ValueError, match="no cell keys"):
        _Cells.of(quotient, [])


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
    # A tampered file replays on the whole graph; where the closed-form
    # cells split by its x0 are still equitable, a replay on their
    # Quotient must print the same bytes.
    params, path = witness_file(tmp_path, kind)
    path.write_text(json.dumps(tampered(json.loads(path.read_text()), how)))
    commands = [[command, "--params", params, "--instance", str(path), "--format", fmt]
                for command in ("simulate", "verify") for fmt in ("text", "json")]
    full = [quiet(argv) for argv in commands]
    load = evocycle.cli._load_instance

    def split(path, *families):
        family, instance, _ = load(path, *families)
        cells = zip(closed_form(instance).cell_of, instance.x0.bits)
        quotient = quotient_of(instance.graph, list(cells))
        if quotient is None:
            return family, instance, None
        # Each cell is keyed by the role of its first vertex.
        keys = tuple((role.kind, role.index[0] if role.kind == "K" else 0, -1)
                     for role in map(instance.roles.__getitem__, quotient.first))
        return family, instance, Quotient(quotient.cell_of, quotient.first, quotient.links, keys)

    monkeypatch.setattr(evocycle.cli, "_load_instance", split)
    assert [quiet(argv) for argv in commands] == full
