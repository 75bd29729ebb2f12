from dataclasses import replace

import pytest

from evocycle import (
    GameParams,
    Graph,
    StrategyVector,
    build_fcsh,
    build_hdpd,
    build_tree,
    check_local_lemmas,
    cooperator_series,
    f_of_t,
    replay,
    solve_fcsh,
    solve_hdpd,
    trajectory,
    verify_fcsh_dynamics,
    verify_hdpd_dynamics,
    verify_tree_invariants,
)
from evocycle.analysis import MAX_VIOLATION_RECORDS

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
            v for v in instance.roles.vertices("K")
            if instance.roles[v].index[0] == 1
        )
        tampered, params = flip_x0(instance, far), GameParams(1, "1/2", "4/5", 0)
        violations = verify_fcsh_dynamics(tampered, params, replay(tampered, params))
        assert violations
        assert any(v.label == "fcsh:chain" and v.time == 0 for v in violations)

    def test_flipped_outer_vertex_is_caught_immediately(self):
        instance = build_hdpd(5, 4, 2, 1, 6)
        outer = next(
            v for v in instance.roles.vertices("K")
            if instance.roles[v].index[0] == 6
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
        level1 = instance.roles.vertices("special")[0]
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


class TestCooperatorSeries:
    def test_matches_report_counts(self):
        instance = build_hdpd(3, 4, 1, 1, 4)
        params = GameParams(1, "9/20", "31/25", 0)
        report = trajectory(instance.graph, params, instance.x0, max_steps=40)
        series = cooperator_series(report)
        assert series == list(enumerate(report.cooperator_counts))
        assert [t for t, _ in series] == list(range(len(report.states)))

    def test_tree_counts_are_non_constant_over_a_period(self):
        instance = build_tree(3, 6)
        report = trajectory(instance.graph, TREE_HD, instance.x0, max_steps=40)
        counts = {count for _, count in cooperator_series(report)}
        assert len(counts) > 1
