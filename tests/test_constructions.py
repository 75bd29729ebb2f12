from collections import Counter

import pytest

from evocycle import build_fcsh, build_hdpd, build_tree
from evocycle.serialize import dumps, instance_to_dict


class TestFcsh:
    def test_frozen_vertex_count(self):
        # 27 clique vertices + 1 hub + 6 gadgets of 10 vertices each.
        instance = build_fcsh(p=5, q=3, r=2, s=4)
        assert instance.graph.n == 88
        assert instance.predicted_period == 5

    def test_minimal_instance(self):
        # p=2, q=r=s=1: three single-vertex "cliques", hub, one 4-vertex
        # gadget; edges are 2 chain rungs, hub link, and 6 gadget edges
        # (hub-class, class-class, feeler tap, feeler to all 3 columns).
        instance = build_fcsh(2, 1, 1, 1)
        assert instance.graph.n == 8
        assert instance.graph.edge_count == 9
        assert instance.graph.is_connected

    def test_role_multiplicities(self):
        instance = build_fcsh(5, 3, 2, 4)
        counts = Counter(role.kind for role in instance.roles)
        assert counts["K"] == 27   # (2p-1) * q
        assert counts["g"] == 1
        assert counts["H"] == 6    # q * r gadget hubs
        assert counts["I"] == 24   # s per gadget, first class
        assert counts["J"] == 24   # s per gadget, second class
        assert counts["F"] == 6    # one feeler per gadget

    def test_initial_cooperators(self):
        instance = build_fcsh(5, 3, 2, 4)
        # hubs of gadgets, first bipartite class, center column, graph hub
        assert instance.x0.count_cooperators() == 6 * (1 + 4) + 3 + 1
        cooperating_kinds = {
            instance.roles[v].kind
            for v in range(instance.graph.n)
            if instance.x0[v]
        }
        assert cooperating_kinds == {"H", "I", "K", "g"}
        for v, role in enumerate(instance.roles):
            if role.kind == "K":
                assert bool(instance.x0[v]) == (role.index[0] == 0)

    def test_feeler_degree(self):
        # feeler: one tap into its gadget plus one vertex per chain column
        instance = build_fcsh(p=4, q=2, r=1, s=3)
        for v in [v for v, role in enumerate(instance.roles) if role.kind == "F"]:
            assert instance.graph.degree(v) == 1 + (2 * 4 - 1)

    def test_rejects_period_one(self):
        with pytest.raises(ValueError, match="uniform fixed points"):
            build_fcsh(1, 2, 2, 2)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_fcsh(2, 0, 1, 1)
        with pytest.raises(ValueError):
            build_fcsh(2, 1, 1, -3)


class TestHdpd:
    def test_frozen_vertex_count(self):
        instance = build_hdpd(p=5, o=4, q=2, r=1, s=6)
        assert instance.graph.n == 36
        assert instance.predicted_period == 5

    def test_hub_degree(self):
        # g_R sees every vertex of cliques 2..p, the q pendants, and g_D.
        p, o, q, r, s = 5, 4, 2, 1, 6
        instance = build_hdpd(p, o, q, r, s)
        (g_r,) = [v for v, role in enumerate(instance.roles) if role.kind == "g_R"]
        assert instance.graph.degree(g_r) == (p - 1) * o + q + 1

    def test_role_multiplicities(self):
        p, o, q, r, s = 5, 4, 2, 1, 6
        instance = build_hdpd(p, o, q, r, s)
        counts = Counter(role.kind for role in instance.roles)
        assert counts["K"] == (p + 1) * o
        assert counts["g_R"] == counts["g_D"] == counts["g_C"] == 1
        assert counts["H"] == q
        assert counts["I"] == r
        assert counts["J"] == s

    def test_initial_cooperators(self):
        instance = build_hdpd(5, 4, 2, 1, 6)
        assert instance.x0.count_cooperators() == 4 + 6 + 1  # K_1, J, g_C
        for v in range(instance.graph.n):
            role = instance.roles[v]
            expected = role.kind in ("J", "g_C") or (
                role.kind == "K" and role.index[0] == 1
            )
            assert bool(instance.x0[v]) == expected

    def test_outer_layer_is_edgeless_inside(self):
        # Columns are chained by a perfect matching, and the (p+1)-th
        # column has no edges among its own vertices, so each of its
        # members touches exactly its partner in column p.
        p, o = 3, 4
        instance = build_hdpd(p, o, 2, 2, 2)
        outer = [
            v for v, role in enumerate(instance.roles)
            if role.kind == "K" and role.index[0] == p + 1
        ]
        assert len(outer) == o
        outer_set = set(outer)
        for v in outer:
            assert outer_set.isdisjoint(instance.graph.neighbors(v))
            assert instance.graph.degree(v) == 1
            (partner,) = instance.graph.neighbors(v)
            assert instance.roles[partner].kind == "K"
            assert instance.roles[partner].index[0] == p
            assert instance.roles[partner].index[1] == instance.roles[v].index[1]

    def test_rejects_period_one(self):
        with pytest.raises(ValueError, match="uniform fixed points"):
            build_hdpd(1, 3, 1, 1, 1)


class TestTree:
    def test_frozen_counts(self):
        instance = build_tree(r=3, q=6)
        assert instance.graph.n == 338
        assert instance.x0.count_cooperators() == 41
        assert instance.graph.edge_count == instance.graph.n - 1
        assert instance.graph.is_connected
        assert instance.predicted_period == 6

    def test_role_multiplicities(self):
        instance = build_tree(3, 6)
        counts = Counter(role.kind for role in instance.roles)
        assert counts["root"] == 1
        # one designated vertex on level 1, all of levels 2 and 3, then one
        # chain per level-3 vertex down to level q-1
        assert counts["special"] == 1 + 3 + 9 + 9 + 9
        assert counts["ordinary"] == 338 - 1 - 31

    def test_special_leaves_have_no_children(self):
        instance = build_tree(2, 5)
        specials = [v for v, role in enumerate(instance.roles) if role.kind == "special"]
        deepest = [
            v for v in specials if instance.roles[v].index[0] == 4
        ]
        assert deepest
        for v in deepest:
            assert instance.graph.degree(v) == 1

    def test_branch_indices_partition_ordinaries(self):
        instance = build_tree(2, 6)
        branches = {
            role.index[1] for role in instance.roles if role.kind == "ordinary"
        }
        assert branches == set(range(4))  # r^2 level-3 ancestors

    def test_rejects_small_shapes(self):
        with pytest.raises(ValueError):
            build_tree(1, 6)
        with pytest.raises(ValueError):
            build_tree(3, 4)


class TestDeterminism:
    @pytest.mark.parametrize(
        "builder,args",
        [
            (build_fcsh, (3, 2, 2, 3)),
            (build_hdpd, (4, 3, 2, 2, 5)),
            (build_tree, (2, 6)),
        ],
    )
    def test_builds_are_reproducible(self, builder, args):
        first = builder(*args)
        second = builder(*args)
        assert first.graph == second.graph
        assert first.x0 == second.x0
        assert dumps(instance_to_dict(first)) == dumps(instance_to_dict(second))
