import contextlib
import gc
import io
import json
import tracemalloc
from dataclasses import replace
from itertools import islice

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
    check_local_lemmas,
    f_of_t,
    replay,
    solve_fcsh,
    trajectory,
    verify_fcsh_dynamics,
    verify_hdpd_dynamics,
    verify_tree_invariants,
)
from evocycle import analysis, cli, dynamics
from evocycle.analysis import MAX_VIOLATION_RECORDS, InvariantViolation
from evocycle.constructions import Role, fcsh_quotient, tree_layout, tree_quotient
from evocycle.serialize import write_json
from genutil import build, reference_tree
from reference import params_to_pairs, ref_lt, ref_neighbors, ref_utility

WORKED_HD = GameParams(1, "0.45", "1.24", 0)
TREE_HD = GameParams(1, "0.6", 2, 0)


def flip_x0(instance, vertex):
    bits = bytearray(instance.x0.bits)
    bits[vertex] ^= 1
    return replace(instance, x0=StrategyVector(bits))


class TestFOfT:
    @pytest.mark.parametrize(
        "q,t,expected",
        [(8, 0, 6), (8, 5, 1), (8, 10, 6), (6, 0, 4), (6, 3, 1), (6, 6, 4)],
    )
    def test_frozen_values(self, q, t, expected):
        assert f_of_t(q, t) == expected

    def test_window_is_inclusive(self):
        assert f_of_t(7, 0) == f_of_t(7, 2 * 7 - 6)

    def test_domain(self):
        with pytest.raises(ValueError):
            f_of_t(6, -1)
        with pytest.raises(ValueError):
            f_of_t(6, 7)


class TestCleanInstancesVerify:
    def test_hdpd_worked_example(self):
        instance = build_hdpd(5, 4, 2, 1, 6)
        assert verify_hdpd_dynamics(instance, WORKED_HD, replay(instance, WORKED_HD)) == []

    def test_fcsh_example(self):
        cert = solve_fcsh(GameParams(1, "1/2", "4/5", 0), 3)
        instance = build_fcsh(3, cert.q, cert.r, cert.s)
        params = GameParams(1, "1/2", "4/5", 0)
        assert verify_fcsh_dynamics(instance, params, replay(instance, params)) == []

    def test_tree_example(self):
        instance = build_tree(3, 6)
        states = replay(instance, TREE_HD)
        assert verify_tree_invariants(instance, TREE_HD, states) == []
        assert check_local_lemmas(instance, TREE_HD, states) == []

    def test_tree_without_leafward_spread_still_verifies(self):
        # b = 2/5 with r = 3 leaves the optional leafward-spread margin
        # unmet, yet the designed trajectory is unchanged.
        params = GameParams(1, "2/5", 2, 0)
        instance = build_tree(3, 6)
        assert verify_tree_invariants(instance, params, replay(instance, params)) == []
        report = trajectory(instance.graph, params, instance.x0, max_steps=40)
        assert (report.transient, report.minimal_period) == (0, 6)


class TestTamperedInstances:
    def test_flipped_far_chain_vertex_is_caught_immediately(self):
        instance = build_fcsh(2, 1, 13, 4)
        far = next(
            v for v, role in enumerate(instance.roles)
            if role.kind == "K" and role.index[0] == 1
        )
        tampered, params = flip_x0(instance, far), GameParams(1, "1/2", "4/5", 0)
        violations = verify_fcsh_dynamics(tampered, params, replay(tampered, params))
        assert violations
        assert any(v.label == "fcsh:chain" and v.time == 0 for v in violations)

    def test_flipped_outer_vertex_is_caught_immediately(self):
        instance = build_hdpd(5, 4, 2, 1, 6)
        outer = next(
            v for v, role in enumerate(instance.roles)
            if role.kind == "K" and role.index[0] == 6
        )
        tampered = flip_x0(instance, outer)
        violations = verify_hdpd_dynamics(tampered, WORKED_HD, replay(tampered, WORKED_HD))
        assert violations
        assert any(v.label == "hdpd:outer" and v.time == 0 for v in violations)

    def test_flipped_leaf_breaks_initial_state_check(self):
        instance = build_tree(2, 6)
        leaf = instance.graph.n - 1
        tampered = flip_x0(instance, leaf)
        violations = verify_tree_invariants(tampered, TREE_HD, replay(tampered, TREE_HD))
        assert any(v.label == "tree:x0" and v.vertex == leaf for v in violations)

    def test_wrong_params_break_dynamics(self):
        # These payoffs are HD as well, but the hub inequalities fail for
        # the worked example's sizes, so the wave does not run on schedule.
        instance = build_hdpd(5, 4, 2, 1, 6)
        params = GameParams(1, "3/5", 2, 0)
        violations = verify_hdpd_dynamics(instance, params, replay(instance, params))
        assert violations

    def test_severed_subtree_is_reported_as_structure_damage(self):
        instance = build_tree(2, 6)
        level1 = next(v for v, role in enumerate(instance.roles) if role.kind == "special")
        assert instance.roles[level1].index == (1,)
        level2 = [
            w for w in instance.graph.neighbors(level1)
            if instance.roles[w].kind != "root"
        ]
        cut = (min(level1, level2[0]), max(level1, level2[0]))
        edges = [e for e in instance.graph.edges() if e != cut]
        tampered = replace(instance, graph=Graph(instance.graph.n, edges))
        violations = verify_tree_invariants(tampered, TREE_HD, replay(tampered, TREE_HD))
        assert any(
            v.label == "tree:structure" and "unreachable" in v.detail
            for v in violations
        )

    def test_second_root_role_is_reported_once(self):
        # Without one root the levels mean nothing, so only the structure
        # check speaks, even where the lemma scan would otherwise fire.
        instance = build_tree(2, 6)
        roles = list(instance.roles)
        roles[5] = Role("root")
        bits = bytearray(instance.x0.bits)
        for v in (3, 9, 20, 40):
            bits[v] ^= 1
        tampered = replace(instance, roles=tuple(roles), x0=StrategyVector(bits))
        states = replay(tampered, TREE_HD)
        assert check_local_lemmas(tampered, TREE_HD, states) == []
        assert [v.detail for v in verify_tree_invariants(tampered, TREE_HD, states)] == [
            "2 root roles, expected 1"
        ]

    def test_violation_log_is_capped(self):
        # Inverting every strategy on a deep tree trips the initial-state
        # check on more than a thousand vertices alone.
        instance = build_tree(3, 7)
        inverted = StrategyVector(
            1 - instance.x0[v] for v in range(instance.graph.n)
        )
        tampered = replace(instance, x0=inverted)
        violations = verify_tree_invariants(tampered, TREE_HD, replay(tampered, TREE_HD))
        assert len(violations) == MAX_VIOLATION_RECORDS

    @pytest.mark.parametrize("q,cycle", [(9, 6), (9, 4), (7, 1)])
    def test_cycle_shorter_than_designed_is_reported(self, q, cycle):
        # The first `cycle` designed states, repeated over the whole window
        # of 2(q-3) steps: the smallest proper divisor that is already a
        # period is reported, at that time.
        instance = build_tree(2, q)
        designed = replay(instance, TREE_HD)
        states = [designed[t % cycle] for t in range(len(designed))]
        found = [v for v in verify_tree_invariants(instance, TREE_HD, states)
                 if v.label == "tree:minimal-period"]
        assert found == [InvariantViolation(
            cycle, "tree:minimal-period",
            detail=f"cycle already repeats after {cycle} < {2 * (q - 3)} steps",
        )]


class TestKindDispatch:
    def test_verifiers_reject_wrong_kind(self):
        tree = build_tree(2, 5)
        hdpd = build_hdpd(2, 3, 1, 1, 4)
        states = replay(hdpd, WORKED_HD)
        with pytest.raises(ValueError):
            verify_fcsh_dynamics(hdpd, WORKED_HD, states)
        with pytest.raises(ValueError):
            verify_hdpd_dynamics(tree, TREE_HD, replay(tree, TREE_HD))
        with pytest.raises(ValueError):
            verify_tree_invariants(hdpd, WORKED_HD, states)
        with pytest.raises(ValueError):
            check_local_lemmas(hdpd, WORKED_HD, states)

    def test_verifiers_need_one_replayed_period(self):
        hdpd = build_hdpd(2, 3, 1, 1, 4)
        tree = build_tree(2, 5)
        hdpd_states, tree_states = replay(hdpd, WORKED_HD), replay(tree, TREE_HD)
        assert len(hdpd_states) == 3 and len(tree_states) == 5
        with pytest.raises(ValueError):
            verify_hdpd_dynamics(hdpd, WORKED_HD, hdpd_states[:-1])
        with pytest.raises(ValueError):
            verify_hdpd_dynamics(hdpd, WORKED_HD, hdpd_states[1:] + hdpd_states[:1])
        with pytest.raises(ValueError):
            verify_tree_invariants(tree, TREE_HD, tree_states + tree_states[1:2])

    def test_verifiers_need_states_or_cells(self):
        hdpd, fcsh, tree = build_hdpd(2, 3, 1, 1, 4), build_fcsh(2, 1, 13, 4), build_tree(2, 5)
        for verify, instance in ((verify_fcsh_dynamics, fcsh), (verify_hdpd_dynamics, hdpd),
                                 (verify_tree_invariants, tree), (check_local_lemmas, tree)):
            with pytest.raises(ValueError, match="need the states, or the cells"):
                verify(instance, WORKED_HD, None)

    @pytest.mark.parametrize("s,flipped,message", [
        (2, False, "a quotient of 52 vertices for a graph with n=64"),
        (4, False, "a quotient of 76 vertices for a graph with n=64"),
        (3, True, "x0 is not constant on the cells of the quotient"),
    ], ids=["fewer-vertices", "more-vertices", "x0-not-constant"])
    def test_quotient_must_fit_the_graph_and_x0(self, s, flipped, message):
        # Stepped from x0's bits on its first vertices, such a quotient
        # would start from a state other than x0, and report it silently.
        instance = build_fcsh(3, 3, 2, 3)
        if flipped:
            instance = flip_x0(instance, 0)
        quotient = fcsh_quotient(3, 3, 2, s)
        with pytest.raises(ValueError, match=message):
            trajectory(instance.graph, WORKED_HD, instance.x0, cells=quotient)
        with pytest.raises(ValueError, match=message):
            replay(instance, WORKED_HD, quotient)


class TestLemmaScan:
    def test_clean_trees_have_no_lemma_violations(self):
        for r, q, params in (
            (2, 6, TREE_HD),
            (2, 7, GameParams(1, "0.7", 2, 0)),
            (3, 6, GameParams(1, "2/5", 2, 0)),
        ):
            instance = build_tree(r, q)
            assert check_local_lemmas(instance, params, replay(instance, params)) == []

    def test_scan_horizon_argument(self):
        instance = build_tree(2, 5)
        report = trajectory(instance.graph, TREE_HD, instance.x0)
        states = [report.state_at(t) for t in range(3 * 4 + 1)]
        assert check_local_lemmas(instance, TREE_HD, states) == []
        with pytest.raises(ValueError):
            check_local_lemmas(instance, TREE_HD, states[:1])


def _pair_sum(*terms):
    """Sum of (count, (num, den)) terms as one (num, den) pair."""
    num, den = 0, 1
    for k, (pn, pd) in terms:
        num, den = num * pd + k * pn * den, den * pd
    return num, den


def naive_lemma_scan(instance, params, states):
    """check_local_lemmas transcribed from its docstring, on tests/reference.py."""
    r = instance.structural_params["r"]
    n, edges, roles = instance.graph.n, list(instance.graph.edges()), instance.roles
    pairs = params_to_pairs(params)
    a, b, c, d = pairs
    nbrs = [ref_neighbors(edges, v) for v in range(n)]
    level = [role.index[0] if role.index else 0 for role in roles]
    children = [[w for w in nbrs[v] if level[w] == level[v] + 1] for v in range(n)]
    advance = ref_lt(_pair_sum((1, c), (r, d)), _pair_sum((1, a), (r, b)))
    retreat = ref_lt(_pair_sum((r + 1, a)), _pair_sum((r, c), (1, d)))
    records = []

    def scores_below(bits, x):
        # u(x) < (a + r*b)/(r+1)  <=>  (r+1)*u(x) < a + r*b
        u = ref_utility(edges, bits, pairs, x)
        return ref_lt(_pair_sum((r + 1, u)), _pair_sum((1, a), (r, b)))

    def expect(nxt, t, label, v, strategy):
        if nxt[v] != strategy:
            records.append(InvariantViolation(t, label, v, strategy, nxt[v]))

    for t in range(len(states) - 1):
        bits, nxt = states[t].bits, states[t + 1].bits
        for i in range(n):
            coop = [w for w in nbrs[i] if bits[w]]
            lean = [w for w in nbrs[i] if not bits[w]]
            if (advance and bits[i] and len(coop) == 1 and len(lean) == r
                    and all(len(nbrs[w]) == r + 1
                            and sum(bits[x] for x in nbrs[w]) == 1
                            and all(scores_below(bits, x) for x in nbrs[w] if not bits[x])
                            for w in lean)):
                for v in [i] + lean:
                    expect(nxt, t + 1, "lemma:advance", v, 1)
            if retreat and not bits[i] and len(lean) == 1 and len(coop) == r:
                for v in [i] + nbrs[i]:
                    expect(nxt, t + 1, "lemma:retreat", v, 0)
        for i in range(n):
            if roles[i].kind != "ordinary" or not children[i]:
                continue
            first = bits[children[i][0]]
            records.extend(
                InvariantViolation(t, "lemma:siblings", w, first, bits[w])
                for w in children[i][1:] if bits[w] != first
            )
            if retreat and not bits[i]:
                for w in children[i]:
                    expect(nxt, t + 1, "lemma:descend", w, 0)
    return records[:MAX_VIOLATION_RECORDS]



def naive_tree_shape(instance, log):
    """(role level, attach level) per vertex, or None without one root; a
    breadth-first walk over the edge list, logging tree:structure damage."""
    n, roles = instance.graph.n, instance.roles
    edges = list(instance.graph.edges())
    roots = [v for v in range(n) if roles[v].kind == "root"]
    if len(roots) != 1:
        log.append(InvariantViolation(0, "tree:structure",
                                      detail=f"{len(roots)} root roles, expected 1"))
        return None
    level = [role.index[0] if role.kind != "root" else 0 for role in roles]
    nbrs = [ref_neighbors(edges, v) for v in range(n)]
    parent, depth = [-1] * n, [-1] * n
    depth[roots[0]] = 0
    order = [roots[0]]
    for v in order:
        for w in sorted(nbrs[v]):
            if depth[w] == -1:
                depth[w], parent[w] = depth[v] + 1, v
                order.append(w)
    for v in range(n):
        if depth[v] == -1:
            log.append(InvariantViolation(0, "tree:structure", v,
                                          detail="unreachable from the root"))
        elif depth[v] != level[v]:
            log.append(InvariantViolation(
                0, "tree:structure", v,
                detail=f"role level {level[v]} but distance {depth[v]} from root"))
    attach = [-1] * n
    for v in order:
        if roles[v].kind == "ordinary":
            par = parent[v]
            attach[v] = level[par] if roles[par].kind == "special" else attach[par]
    return level, attach, nbrs


def naive_tree_invariants(instance, params, states):
    """verify_tree_invariants as it was written per vertex, on the edge list."""
    q = instance.structural_params["q"]
    period = len(states) - 1
    records = []
    shape = naive_tree_shape(instance, records)
    if shape is None:
        return records
    level, attach, nbrs = shape
    n, roles = instance.graph.n, instance.roles

    def expect(state, t, label, v, strategy):
        if state[v] != strategy:
            records.append(InvariantViolation(t, label, v, strategy, state[v]))

    for v in range(n):
        expect(instance.x0, 0, "tree:x0", v, 1 if level[v] <= q - 2 else 0)
    for t in range(period + 1):
        state, f = states[t], f_of_t(q, t)
        for v in range(n):
            if roles[v].kind != "special":
                continue
            expect(state, t, "tree:a", v, 1 if level[v] <= f else 0)
            inner = all(state[w] == state[v] for w in nbrs[v])
            if (state[v] == 1 and inner) != (level[v] < f):
                records.append(InvariantViolation(
                    t, "tree:b", v, detail=f"inner cooperator iff level {level[v]} < f={f}"))
            if (state[v] == 0 and inner) != (level[v] > f + 1):
                records.append(InvariantViolation(
                    t, "tree:c", v, detail=f"inner defector iff level {level[v]} > f+1={f + 1}"))
        for v in range(n):
            j = attach[v]
            if t >= q - 3:
                if level[v] <= f:
                    expect(state, t, "tree:f", v, 1)
                elif level[v] <= f + 3:
                    expect(state, t, "tree:g", v, 0)
            elif roles[v].kind == "ordinary" and j >= 0:
                if t >= 1 and j <= f + 1 and level[v] == j + 1:
                    expect(state, t, "tree:d", v, 1)
                if j > f + 1 and level[v] <= 2 * j - f - 1:
                    expect(state, t, "tree:e", v, 0)
    for v in range(n):
        expect(states[period], period, "tree:periodic", v, states[0][v])
    if states[period] == states[0]:
        minimal = next(d for d in range(1, period + 1)
                       if period % d == 0 and all(states[t] == states[t % d]
                                                  for t in range(period)))
        if minimal < period:
            records.append(InvariantViolation(
                minimal, "tree:minimal-period",
                detail=f"cycle already repeats after {minimal} < {period} steps"))
    return records[:MAX_VIOLATION_RECORDS]

def plant_advance(rng, graph, bits, i):
    """Make cooperator i meet every lemma:advance premise but the utility one.

    Its defecting neighbors' other neighbors x defect, and the neighbors of
    each x beyond it are drawn at random, so x's utility decides.  On a
    tree these vertices are all distinct.
    """
    partner = rng.choice(graph.neighbors(i))
    bits[i] = 1
    for w in graph.neighbors(i):
        bits[w] = int(w == partner)
        if w == partner:
            continue
        for x in graph.neighbors(w):
            if x != i:
                bits[x] = 0
                for y in graph.neighbors(x):
                    if y != w:
                        bits[y] = rng.randint(0, 1)


class TestLemmaScanAgainstReference:
    @pytest.mark.parametrize("params", [
        TREE_HD,  # advance and retreat both apply for r = 2
        GameParams(1, "0.05", "1.3", 0),  # neither applies for r = 2 or 3
        # For r = 2 only advance applies, and a defector with two of its
        # three neighbors cooperating scores exactly (a + r*b)/(r+1).
        GameParams(1, "0.9", "1.4", 0),
    ])
    @pytest.mark.parametrize("r,q", [(2, 6), (2, 7), (2, 8), (3, 6)])
    def test_flipped_replays_match_the_naive_scan(self, rng, params, r, q):
        instance = build_tree(r, q)
        graph = instance.graph
        hinges = [v for v in range(graph.n) if graph.degree(v) == r + 1]
        clean = replay(instance, params)
        for _ in range(3):
            states = list(clean)
            for t in rng.sample(range(1, len(states)), 2):
                bits = bytearray(states[t].bits)
                for v in rng.sample(range(graph.n), rng.randint(1, 6)):
                    bits[v] ^= 1
                for i in rng.sample(hinges, 3):
                    plant_advance(rng, graph, bits, i)
                states[t] = StrategyVector(bits)
            assert check_local_lemmas(instance, params, states) == naive_lemma_scan(
                instance, params, states
            )


class TestCooperatorSeries:
    def test_matches_report_counts(self):
        instance = build_hdpd(3, 4, 1, 1, 4)
        params = GameParams(1, "9/20", "31/25", 0)
        report = trajectory(instance.graph, params, instance.x0, max_steps=40)
        series = list(enumerate(report.cooperator_counts))
        assert series == [(t, s.count_cooperators()) for t, s in enumerate(report.states)]
        assert [t for t, _ in series] == list(range(len(report.states)))

    def test_tree_counts_are_non_constant_over_a_period(self):
        instance = build_tree(3, 6)
        report = trajectory(instance.graph, TREE_HD, instance.x0, max_steps=40)
        counts = set(report.cooperator_counts)
        assert len(counts) > 1


def assert_matches_oracles(instance, params, states):
    """Both tree verifiers give exactly the records of their oracles."""
    assert verify_tree_invariants(instance, params, states) == naive_tree_invariants(
        instance, params, states)
    roots = sum(role.kind == "root" for role in instance.roles)
    # Without one root the scan has no levels to read and stays silent.
    expected = naive_lemma_scan(instance, params, states) if roots == 1 else []
    assert check_local_lemmas(instance, params, states) == expected


def tree_cells_of(instance):
    """The vertices of every (kind, level, attach level) class, from the oracle's walk."""
    level, attach, _ = naive_tree_shape(instance, [])
    cells = {}
    for v, role in enumerate(instance.roles):
        cells.setdefault((role.kind, level[v], attach[v]), []).append(v)
    return list(cells.values())


def move_leaf(rng, instance):
    """Reattach a random leaf to a random vertex other than its parent."""
    graph = instance.graph
    leaf = rng.choice([v for v in range(graph.n) if graph.degree(v) == 1])
    (parent,) = graph.neighbors(leaf)
    target = rng.choice([v for v in range(graph.n) if v not in (leaf, parent)])
    edges = [e for e in graph.edges() if leaf not in e] + [(leaf, target)]
    return replace(instance, graph=Graph(graph.n, edges))


TREE_PARAMS = (
    TREE_HD,
    GameParams(1, "2/5", 2, 0),
    GameParams(1, "0.7", 2, 0),
    GameParams(1, "0.05", "1.3", 0),
)


class TestTreeVerifiersAgainstOracles:
    @settings(max_examples=60)
    @given(
        st.sampled_from([(2, 5), (2, 6), (2, 7), (2, 8), (3, 5), (3, 6)]),
        st.sampled_from(TREE_PARAMS),
        st.sampled_from(["clean", "cell", "vertex", "state", "edge"]),
        st.randoms(use_true_random=False),
    )
    def test_records_equal_the_per_vertex_oracles(self, size, params, damage, rng):
        instance = build_tree(*size)
        if damage == "cell":  # x0 flipped on a whole cell keeps the split equitable
            bits = bytearray(instance.x0.bits)
            for v in rng.choice(tree_cells_of(instance)):
                bits[v] ^= 1
            instance = replace(instance, x0=StrategyVector(bits))
        elif damage == "vertex":
            instance = flip_x0(instance, rng.randrange(instance.graph.n))
        elif damage == "edge":
            instance = move_leaf(rng, instance)
        states = replay(instance, params)
        if damage == "state":  # one vertex of one later state
            t = rng.randrange(1, len(states))
            bits = bytearray(states[t].bits)
            bits[rng.randrange(len(bits))] ^= 1
            states[t] = StrategyVector(bits)
        assert_matches_oracles(instance, params, states)

    def test_tampered_fixtures(self):
        flipped_leaf = build_tree(2, 6)
        flipped_leaf = flip_x0(flipped_leaf, flipped_leaf.graph.n - 1)
        severed = build_tree(2, 6)
        severed = replace(severed, graph=Graph(severed.graph.n, [
            e for e in severed.graph.edges() if e != (1, 2)]))
        second_root = build_tree(2, 6)
        bits = bytearray(second_root.x0.bits)
        for v in (3, 9, 20, 40):
            bits[v] ^= 1
        second_root = replace(second_root, x0=StrategyVector(bits), roles=tuple(
            Role("root") if v == 5 else role for v, role in enumerate(second_root.roles)))
        inverted = build_tree(3, 7)
        inverted = replace(inverted, x0=StrategyVector(1 - bit for bit in inverted.x0))
        for instance in (flipped_leaf, severed, second_root, inverted):
            assert_matches_oracles(instance, TREE_HD, replay(instance, TREE_HD))
        for q, cycle in ((9, 6), (9, 4), (7, 1)):
            instance = build_tree(2, q)
            designed = replay(instance, TREE_HD)
            states = [designed[t % cycle] for t in range(len(designed))]
            assert_matches_oracles(instance, TREE_HD, states)

    @pytest.mark.parametrize("r,q", [(2, 5), (2, 6), (2, 9), (2, 12), (3, 5), (3, 7)])
    def test_clean_builds_take_the_cell_path(self, monkeypatch, r, q):
        states = replay(build_tree(r, q), TREE_HD)
        instance = tree_layout(r, q)
        keyed = analysis._Cells.of(tree_quotient(r, q), [])
        quotient = keyed.quotient
        assert len(quotient.first) == (q * q - 3 * q + 4) // 2
        # Each cell carries the key of its first vertex.
        keys = reference_tree(r, q)[1]
        assert list(zip(keyed.kind, keyed.level, keyed.attach)) == [
            keys[v] for v in quotient.first]
        # The replay on cells alone lifts to the whole-graph states, and
        # those read back at the cells' first vertices give its states.
        replayed = quotient.states(TREE_HD, instance.x0)
        cells = keyed._replace(states=list(islice(replayed, instance.predicted_period + 1)))
        assert list(map(quotient.lift, cells.states)) == states
        assert [bytes(map(state.bits.__getitem__, quotient.first))
                for state in states] == cells.states

        def refuse(*args):
            raise AssertionError("a per-vertex run was set up")

        monkeypatch.setattr(analysis, "_Vertices", refuse)
        for given_states in (None, states):  # a verify replay, a sweep row
            assert verify_tree_invariants(instance, TREE_HD, given_states, cells) == []
            assert check_local_lemmas(instance, TREE_HD, given_states, cells) == []

    @settings(max_examples=40)
    @given(
        st.sampled_from([(2, 5), (2, 6), (2, 7), (2, 8), (3, 5), (3, 6)]),
        st.sampled_from(TREE_PARAMS),
        st.sampled_from(["clean", "cell", "vertex", "leaf", "level", "root"]),
        st.randoms(use_true_random=False),
    )
    def test_states_alone_run_per_vertex(self, size, params, damage, rng):
        instance = tamper_tree(rng, build_tree(*size), damage)
        states = replay(instance, params)

        def refuse(*args):
            raise AssertionError("cells were made")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics.Quotient, "__init__", refuse)
            assert_matches_oracles(instance, params, states)

    def test_fallback_memory_stays_below_the_build(self, rng):
        # The per-vertex run reads the graph's own adjacency: a copy of
        # the discrete partition used to take more than the build.  One
        # flipped x0 vertex leaves the keyed partition not equitable.  A
        # full collection first empties the interpreter's free lists, so
        # that both peaks count every object made, whatever earlier tests
        # left behind in those lists.
        def traced_peak(run):
            gc.collect()
            tracemalloc.start()
            try:
                return run(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        instance, build_peak = traced_peak(lambda: build_tree(2, 12))
        instance = flip_x0(instance, rng.randrange(instance.graph.n))
        states = replay(instance, TREE_HD)
        records, peak = traced_peak(lambda: (
            verify_tree_invariants(instance, TREE_HD, states),
            check_local_lemmas(instance, TREE_HD, states)))
        assert peak < build_peak
        assert records == (naive_tree_invariants(instance, TREE_HD, states),
                           naive_lemma_scan(instance, TREE_HD, states))
        assert records[0]


def tamper_tree(rng, instance, damage):
    """A build_tree instance with one kind of damage."""
    if damage == "cell":  # x0 flipped on a whole cell keeps the split equitable
        bits = bytearray(instance.x0.bits)
        for v in rng.choice(tree_cells_of(instance)):
            bits[v] ^= 1
        return replace(instance, x0=StrategyVector(bits))
    if damage == "vertex":
        return flip_x0(instance, rng.randrange(instance.graph.n))
    if damage == "leaf":
        return move_leaf(rng, instance)
    if damage == "level":  # one cell's role level raised past the height:
        # damaged structure on a partition that stays equitable
        level = instance.structural_params["q"] + 5
        cell = set(rng.choice(tree_cells_of(instance)[1:]))
        return replace(instance, roles=tuple(
            Role(role.kind, (level, *role.index[1:])) if w in cell else role
            for w, role in enumerate(instance.roles)))
    if damage == "root":  # a second root role: no levels to walk from
        v = rng.randrange(1, instance.graph.n)
        return replace(instance, roles=tuple(
            Role("root") if w == v else role for w, role in enumerate(instance.roles)))
    return instance


def verify_file(path, params, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--params", params, "--instance", str(path), "--format", fmt])
    return code, out.getvalue()


class TestVerifyReplaysTreesOnCells:
    @settings(max_examples=50)
    @given(
        st.sampled_from([(2, 5), (2, 6), (2, 7), (2, 8), (3, 5), (3, 6), (3, 7), (3, 8)]),
        st.sampled_from(["1,0.6,2,0", "1,2/5,2,0", "1,0.7,2,0", "1,0.05,1.3,0"]),
        st.sampled_from(["clean", "cell", "vertex", "leaf", "level", "root"]),
        st.sampled_from(["text", "json"]),
        st.randoms(use_true_random=False),
    )
    def test_output_equals_the_whole_graph_path(self, tmp_path_factory, size, params,
                                                damage, fmt, rng):
        path = tmp_path_factory.mktemp("tree") / "instance.json"
        write_json(path, tamper_tree(rng, build_tree(*size), damage))
        on_cells = verify_file(path, params, fmt)
        with pytest.MonkeyPatch.context() as patch:
            # Not canonical: the file is parsed, every state is stepped on
            # the whole graph and every check runs per vertex.
            patch.setattr(cli, "_canonical", lambda *args: None)
            whole_graph = verify_file(path, params, fmt)
        assert on_cells == whole_graph

    @pytest.mark.parametrize("size", [(2, 9), (3, 7)])
    def test_damaged_tree_verify_walks_its_shape_once(self, tmp_path, monkeypatch, size):
        # The last x0 character flipped: the file is not canonical, so the
        # replay takes the whole graph and both verifiers run per vertex,
        # on one walk of the tree's shape.
        instance = build_tree(*size)
        path = tmp_path / "instance.json"
        write_json(path, flip_x0(instance, instance.graph.n - 1))
        expected = verify_file(path, "1,0.6,2,0", "text")
        _, quotients, walks = count_steps_quotients_and_walks(monkeypatch)
        printed = verify_file(path, "1,0.6,2,0", "text")
        assert printed == expected and printed[0] == 1
        assert printed[1].splitlines()[-1].startswith("FAIL")
        assert (quotients, walks) == ([], [1])

    def test_clean_tree_verify_takes_no_whole_graph_step(self, tmp_path, monkeypatch):
        path = tmp_path / "instance.json"
        write_json(path, build_tree(2, 7))
        steps, quotients, walks = count_steps_quotients_and_walks(monkeypatch)
        assert verify_file(path, "1,0.6,2,0", "text")[0] == 0
        assert (steps, quotients, walks) == ([], [1], [])
        # simulate --instance still steps trees on the whole graph.
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--params", "1,0.6,2,0", "--instance", str(path)]) == 0
        assert len(steps) > 0
        assert quotients == [1]

    def test_clean_tree_verify_with_a_finding_walks_the_built_graph_once(self, tmp_path,
                                                                         monkeypatch):
        # Payoffs the witness is not certified for: the cells find
        # something, and both verifiers rerun per vertex on one Graph,
        # built from the layout, printing what the parsed file prints.
        path = tmp_path / "instance.json"
        write_json(path, build_tree(2, 7))
        monkeypatch.setattr(cli, "_canonical", lambda *args: None)
        parsed = verify_file(path, "1,0.05,1.3,0", "text")
        monkeypatch.undo()
        _, quotients, walks = count_steps_quotients_and_walks(monkeypatch)
        assert verify_file(path, "1,0.05,1.3,0", "text") == parsed
        assert parsed[0] == 1
        assert (quotients, walks) == ([1], [1])

    def test_tree_sweep_row_steps_on_the_closed_form_cells(self, monkeypatch):
        steps, quotients, walks = count_steps_quotients_and_walks(monkeypatch)
        made = []
        monkeypatch.setattr(Graph, "__init__", lambda *args: made.append(args))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["sweep", "--params", "1,0.6,2,0", "--tree", "--periods", "8"]) == 0
        assert out.getvalue().splitlines()[1] == "8,tree,120,,,7,2,,0,8,0,True"
        assert (steps, quotients, walks, made) == ([], [1], [], [])

    @pytest.mark.parametrize("params,tree,periods", [
        ("1,0.6,2,0", True, "2..12"), ("1,2/5,2,0", True, "4,7,9"),
        ("1,0.05,1.3,0", True, "5,7"),  # period 7: r=7, q=7, n=136,915
        ("1,9/20,31/25,0", False, "2..8"), ("1,-9/20,27/20,0", False, "2..6"),  # HD, PD
        ("1,2/5,9/10,1/2", False, "2..4"), ("1,1/2,4/5,0", False, "2..6"),  # SH, FC
    ])
    def test_sweep_equals_the_whole_graph_path(self, tmp_path, monkeypatch, params, tree,
                                               periods):
        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            return code, out.getvalue()

        family = ["--tree"] if tree else []
        rows = [run("sweep", "--params", params, *family, "--periods", periods,
                    "--jobs", "1", "--format", fmt) for fmt in ("csv", "json")]
        assert rows[0] == (0, cli._sweep_csv(json.loads(rows[1][1])))
        # Each row as witness --out, then simulate and verify of the parsed
        # file on the whole graph, print it.
        monkeypatch.setattr(cli, "_canonical", lambda *args: None)
        for row in json.loads(rows[1][1]):
            out = tmp_path / str(row["requested"])
            given = ["--params", params, "--instance", str(out / "instance.json"),
                     "--format", "json"]
            period = ["--tree", "--min-period"] if tree else ["--period"]
            witness = json.loads(run("witness", "--params", params, *period,
                                     str(row["requested"]), "--out", str(out),
                                     "--format", "json")[1])
            simulated = json.loads(run("simulate", *given)[1])
            verified = json.loads(run("verify", *given)[1])
            violations = len(verified["violations"]) + len(verified["certificate_violations"])
            assert row == {
                "requested": row["requested"], "kind": witness["kind"],
                **witness["structural_params"],
                "n": witness["vertices"], "transient": simulated["transient"],
                "minimal_period": simulated["minimal_period"], "violations": violations,
                "ok": verified["ok"] and simulated["transient"] == 0
                and simulated["minimal_period"] == witness["predicted_period"],
            }


def count_steps_quotients_and_walks(monkeypatch):
    """Lists that grow by one per whole-graph step, per closed-form tree
    quotient and per walk of a tree's shape."""
    steps, quotients, walks = [], [], []
    step, quotient, walk = dynamics.step, cli.tree_quotient, analysis._tree_shape
    monkeypatch.setattr(dynamics, "step", lambda *args: steps.append(1) or step(*args))
    monkeypatch.setattr(cli, "tree_quotient", lambda *args: quotients.append(1) or quotient(*args))
    monkeypatch.setattr(analysis, "_tree_shape", lambda *args: walks.append(1) or walk(*args))
    return steps, quotients, walks


# Small clique-chain sizes per family, and payoffs: the golden fcsh and
# hdpd ones, two more certified quadruples, and uncertified ones.
CHAIN_SIZES = st.one_of(
    st.tuples(st.just("fcsh"), st.tuples(st.integers(2, 5), st.integers(1, 3),
                                         st.integers(1, 2), st.integers(1, 3))),
    st.tuples(st.just("hdpd"), st.tuples(st.integers(2, 6), st.integers(1, 3),
                                         st.integers(1, 2), st.integers(1, 2),
                                         st.integers(1, 3))),
)
CHAIN_PAYOFFS = ("1,1/2,4/5,0", "1,0.45,1.24,0", "1,2/5,9/10,1/2", "1,-9/20,27/20,0",
                 "2,-1,3,0", "1,1/3,3/2,1/3")
CHAIN_VERIFIERS = {"fcsh": verify_fcsh_dynamics, "hdpd": verify_hdpd_dynamics}


class TestChainVerifiersOnCells:
    @settings(max_examples=80)
    @given(CHAIN_SIZES, st.sampled_from(CHAIN_PAYOFFS),
           st.sampled_from(["clean", "cell", "lone vertex", "vertex"]),
           st.randoms(use_true_random=False))
    def test_cells_give_the_per_vertex_records(self, case, payoffs, flip, rng):
        kind, sizes = case
        family = cli._FAMILIES[kind]
        sp = dict(zip(family.params, sizes))
        built, laid_out, quotient = build(family, sp), family.layout(sp), family.quotient(sp)
        params, verify = cli.parse_params(payoffs), CHAIN_VERIFIERS[kind]
        replayed = quotient.states(params, laid_out.x0)
        cells = analysis._Cells.of(
            quotient, list(islice(replayed, laid_out.predicted_period + 1)))
        states = list(map(quotient.lift, cells.states))
        assert states == replay(built, params)
        # The cell states are the whole-graph states read at the cells'
        # first vertices.
        assert [bytes(map(state.bits.__getitem__, quotient.first))
                for state in states] == cells.states
        cell_of, n = quotient.cell_of, built.graph.n
        on_cells = True
        if flip != "clean":  # a whole cell, or one vertex, flipped in a state after X(0)
            t = rng.randrange(1, len(states))
            if flip == "cell":
                k = rng.randrange(len(quotient.first))
                flipped = [v for v in range(n) if cell_of[v] == k]
            else:  # a lone vertex is the only member of its cell (g, g_R, ...)
                flipped = [rng.choice([v for v in range(n) if flip == "vertex"
                                       or cell_of.count(cell_of[v]) == 1])]
                k = cell_of[flipped[0]]
                on_cells = cell_of.count(k) == 1
            bits = bytearray(states[t].bits)
            for v in flipped:
                bits[v] ^= 1
            states[t] = StrategyVector(bits)
            cell_bits = bytearray(cells.states[t])
            cell_bits[k] ^= 1
            cells.states[t] = bytes(cell_bits)
        expected = verify(built, params, states)  # per vertex, roles from the tuple
        # Per vertex with the roles read off the layout's runs, then on cells.
        assert verify(laid_out, params, states) == expected
        if on_cells:
            assert verify(laid_out, params, None, cells) == expected
            assert verify(laid_out, params, states, cells) == expected

    @pytest.mark.parametrize("kind,payoffs,period", [
        ("fcsh", "1,1/2,4/5,0", "3"), ("hdpd", "1,0.45,1.24,0", "4"),
        ("fcsh", "1,2/5,9/10,1/2", "5")])
    def test_clean_canonical_verify_checks_cells_only(self, tmp_path, monkeypatch, kind,
                                                      payoffs, period):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["witness", "--params", payoffs, "--period", period,
                             "--out", str(tmp_path)]) == 0
        lifts, per_vertex = [], []
        lift, chain_units, of = dynamics.Quotient.lift, analysis._chain_units, analysis._Cells.of
        monkeypatch.setattr(dynamics.Quotient, "lift",
                            lambda self, bits: lifts.append(1) or lift(self, bits))
        # Every set of units made, on the cells (False) or per vertex (True).
        monkeypatch.setattr(analysis._Cells, "of", staticmethod(
            lambda quotient, states: per_vertex.append(False) or of(quotient, states)))
        monkeypatch.setattr(analysis, "_chain_units", lambda instance, states: (
            per_vertex.append(True) or chain_units(instance, states)))
        code, out = verify_file(tmp_path / "instance.json", payoffs, "text")
        assert code == 0 and out.endswith("OK\n")
        # The replay is never lifted and no check runs per vertex.
        assert lifts == [] and per_vertex == [False]


@pytest.mark.parametrize("params,tree,period", [
    ("1,9/20,31/25,0", False, 8), ("1,-9/20,27/20,0", False, 6),  # HD, PD
    ("1,2/5,9/10,1/2", False, 6), ("1,1/2,4/5,0", False, 5),  # SH, FC
    ("1,3/5,2,0", True, 10)])
def test_clean_sweep_rows_lift_nothing(monkeypatch, params, tree, period):
    # A row finds its cycle on the cell bits and verifies those bits: a
    # clean one turns no cell state into a state of every vertex.
    lifted = []
    monkeypatch.setattr(dynamics.Quotient, "lift", lambda *args: lifted.append(args))
    row = cli._sweep_row((cli.parse_params(params), period, tree, 10**6))
    assert row["ok"] and row["violations"] == 0
    assert lifted == []


@pytest.mark.parametrize("params,tree,period", [
    ("1,9/20,31/25,0", False, 8), ("1,2/5,9/10,1/2", False, 6), ("1,3/5,2,0", True, 10)])
def test_clean_sweep_rows_read_no_roles(monkeypatch, params, tree, period):
    # A row's cells take what they are from the closed-form quotient's
    # keys: the layout's role runs are never read.
    def refuse():
        raise AssertionError("the role runs were read")

    for name in ("fcsh_layout", "hdpd_layout", "tree_layout"):
        monkeypatch.setattr(cli, name, lambda *sizes, layout=getattr(cli, name): replace(
            instance := layout(*sizes), graph=replace(instance.graph, role_runs=refuse)))
    row = cli._sweep_row((cli.parse_params(params), period, tree, 10**6))
    assert row["ok"] and row["violations"] == 0
