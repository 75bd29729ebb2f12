import concurrent.futures
import contextlib
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evocycle.cli
import evocycle.constructions
from evocycle.cli import main
from evocycle.serialize import instance_to_dict
from genutil import build

HD = "1,0.45,1.24,0"
TREE_HD = "1,0.6,2,0"
PD = "1,-0.45,1.35,0"


def refuse_builds(monkeypatch):
    """Make any build of a witness graph fail the test."""
    def refuse(*args):
        raise AssertionError("a witness graph was built")

    for name in ("build_fcsh", "build_hdpd", "build_tree", "Graph"):
        monkeypatch.setattr(evocycle.constructions, name, refuse)
        monkeypatch.setattr(evocycle.cli, name, refuse, raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_hd(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--params", HD)
        assert code == 0
        assert out.splitlines()[0] == "HD"

    def test_pd_json(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--params", PD, "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "scenario": "PD", "admissible": True, "generic": True,
        }

    def test_non_admissible_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--params", "1,0.5,0.4,0")
        assert code == 2
        assert out.splitlines()[0] == "NonAdmissible"

    def test_malformed_params(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--params", "1,2,3")
        assert code == 2
        assert "four comma-separated payoffs" in err

    def test_huge_exponent_is_refused_quickly(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "classify", "--params", "1e10000000,0,2,1")
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert "exceeds 1000 in magnitude" in err

    def test_float_like_input_is_parsed_exactly(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--params", "1,0.45,1.24,0", "--format", "json"
        )
        assert code == 0 and json.loads(out)["scenario"] == "HD"


class TestWitnessPipeline:
    def test_hdpd_round_trip(self, tmp_path, capsys):
        out_dir = tmp_path / "w"
        code, out, _ = run_cli(
            capsys, "witness", "--params", HD, "--period", "5",
            "--out", str(out_dir),
        )
        assert code == 0
        assert "predicted_period=5" in out
        assert (out_dir / "instance.json").exists()
        assert (out_dir / "certificate.json").exists()
        assert (out_dir / "instance.dot").exists()

        code, out, _ = run_cli(
            capsys, "simulate", "--params", HD,
            "--instance", str(out_dir / "instance.json"), "--out", str(out_dir),
        )
        assert code == 0
        assert out.splitlines()[0] == "transient=0 period=5"
        assert (out_dir / "trajectory.json").exists()
        csv_text = (out_dir / "cooperators.csv").read_text()
        assert csv_text.startswith("t,cooperators\n0,11\n")

        code, out, _ = run_cli(
            capsys, "verify", "--params", HD,
            "--instance", str(out_dir / "instance.json"),
        )
        assert code == 0
        assert out.rstrip().endswith("OK")

    def test_tree_round_trip(self, tmp_path, capsys):
        out_dir = tmp_path / "t"
        code, out, _ = run_cli(
            capsys, "witness", "--params", TREE_HD, "--tree",
            "--min-period", "6", "--out", str(out_dir),
        )
        assert code == 0
        assert "kind=tree" in out and "predicted_period=6" in out

        code, out, _ = run_cli(
            capsys, "verify", "--params", TREE_HD,
            "--instance", str(out_dir / "instance.json"), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        for family in ("tree:a", "tree:b", "tree:c", "tree:d",
                       "tree:e", "tree:f", "tree:g"):
            assert family in payload["families_checked"]

    def test_witness_is_deterministic(self, tmp_path, capsys):
        dirs = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                capsys, "witness", "--params", HD, "--period", "3",
                "--out", str(out_dir),
            )
            assert code == 0
            dirs.append(out_dir)
        assert (dirs[0] / "instance.json").read_bytes() == (
            dirs[1] / "instance.json"
        ).read_bytes()

    def test_tampered_instance_fails_verify(self, tmp_path, capsys):
        out_dir = tmp_path / "w"
        run_cli(capsys, "witness", "--params", HD, "--period", "4",
                "--out", str(out_dir))
        path = out_dir / "instance.json"
        data = json.loads(path.read_text())
        data["graph"]["edges"].pop()
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "verify", "--params", HD,
                               "--instance", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_certificate_violations_come_before_the_dynamics(self, tmp_path, capsys):
        # The HD p=4 witness under other HD payoffs: two hub inequalities
        # fail, and the replay strays from the designed wave 17 times.
        run_cli(capsys, "witness", "--params", HD, "--period", "4",
                "--out", str(tmp_path))
        path = str(tmp_path / "instance.json")
        code, out, _ = run_cli(capsys, "verify", "--params", TREE_HD, "--instance", path)
        assert code == 1
        lines = out.splitlines()
        assert lines[2:4] == [
            "violated inequality certificate:spread_over_hub",
            "violated inequality certificate:anchor_upper",
        ]
        assert all(line.startswith("violation t=") for line in lines[4:-1])
        assert lines[-1] == "FAIL (19 problems)"
        code, out, _ = run_cli(capsys, "verify", "--params", TREE_HD, "--instance", path,
                               "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["certificate_violations"] == [
            "certificate:spread_over_hub", "certificate:anchor_upper",
        ]
        assert report["ok"] is False

    def test_unknown_instance_kind_is_refused(self, tmp_path, capsys):
        run_cli(capsys, "witness", "--params", HD, "--period", "4",
                "--out", str(tmp_path))
        path = tmp_path / "instance.json"
        data = json.loads(path.read_text())
        data["kind"] = "star"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "verify", "--params", HD, "--instance", str(path))
        assert (code, out, err) == (2, "", "error: unknown instance kind 'star'\n")

    def test_damaged_tree_reports_each_structure_fault_once(self, tmp_path, capsys):
        # The last leaf re-attached to the root: the verifier and the lemma
        # scan used to print the same tree:structure line each.
        data = instance_to_dict(evocycle.build_tree(2, 6))
        j = data["graph"]["edges"][-1][1]
        data["graph"]["edges"][-1] = [0, j]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "verify", "--params", TREE_HD,
                               "--instance", str(path))
        assert code == 1
        structure = [line for line in out.splitlines() if "tree:structure" in line]
        assert structure == [
            f"violation t=0 tree:structure vertex={j} expected=None observed=None "
            f"(role level 6 but distance 1 from root)"
        ]

    @pytest.mark.parametrize("params,select,wrong", [
        (TREE_HD, ["--tree", "--min-period", "6"], 4),
        (TREE_HD, ["--tree", "--min-period", "6"], 0),
        (HD, ["--period", "4"], 5),
    ])
    def test_wrong_predicted_period_is_refused(self, tmp_path, capsys, params,
                                               select, wrong):
        run_cli(capsys, "witness", "--params", params, *select,
                "--out", str(tmp_path))
        path = tmp_path / "instance.json"
        data = json.loads(path.read_text())
        data["predicted_period"] = wrong
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "verify", "--params", params,
                                 "--instance", str(path))
        assert code == 2
        assert "OK" not in out
        assert f"predicted_period {wrong} does not match" in err

    @pytest.mark.parametrize("family,sizes", [
        *((evocycle.cli._FCSH, sizes)
          for sizes in itertools.product((2, 3), (1, 2, 4), (1, 3), (1, 2))),
        *((evocycle.cli._HDPD, sizes)
          for sizes in itertools.product((2, 4), (1, 3), (1, 2), (1, 2), (1, 3))),
        *((evocycle.cli._TREE, sizes) for sizes in itertools.product((2, 3), (5, 6, 7))),
    ])
    def test_family_vertex_count_matches_builder(self, family, sizes):
        # The closed forms of n and m, which witness prints without a build.
        sp = dict(zip(family.params, sizes))
        instance = build(family, sp)
        assert instance.structural_params == sp
        assert family.vertices(sp) == instance.graph.n
        assert family.edges(sp) == instance.graph.edge_count
        # The role layout that _family_of checks on every loaded file.
        assert {(role.kind, len(role.index)) for role in instance.roles} == set(
            family.roles.items())

    @pytest.mark.parametrize("params,select", [
        ("1,1/2,4/5,0", ["--period", "3"]),
        (HD, ["--period", "4"]),
        (TREE_HD, ["--tree", "--min-period", "6"]),
        ("1,2/5,9/10,1/2", ["--period", "16"]),  # SH, 3.7M edges: within MAX_EDGES
        (TREE_HD, ["--tree", "--min-period", "36"]),  # r=2 q=21: within MAX_TREE_EDGES
    ])
    def test_witness_without_out_builds_no_graph(self, monkeypatch, capsys, params, select):
        code, out, _ = run_cli(capsys, "witness", "--params", params, *select)
        assert code == 0
        refuse_builds(monkeypatch)
        for fmt in ("text", "json"):
            code, printed, _ = run_cli(capsys, "witness", "--params", params, *select,
                                       "--format", fmt)
            assert code == 0
            if fmt == "text":
                assert printed == out

    @pytest.mark.parametrize("argv,edges", [
        # The first two used to die converting a tree size of over 4300
        # digits to text, or computing 2^(5*10^11); the others in the OOM
        # killer while building the graph.
        (["witness", "--params", TREE_HD, "--tree", "--min-period", "40000"], "2^20001"),
        (["witness", "--params", TREE_HD, "--tree", "--min-period", str(10**12)],
         "2^500000000001"),
        (["witness", "--params", TREE_HD, "--tree", "--min-period", "60", "--out", "OUT"],
         "2^31"),
        (["sweep", "--params", TREE_HD, "--tree", "--periods", "60"], "2^31"),
        (["sweep", "--params", TREE_HD, "--tree", "--periods", "60,62", "--jobs", "2"],
         "2^31"),
        (["witness", "--params", TREE_HD, "--tree", "--min-period", "44"], "33554423"),
        (["witness", "--params", "1,2/5,9/10,1/2", "--period", "32", "--out", "OUT"],
         "53364270"),
    ])
    def test_oversized_witness_is_refused_before_any_build(self, tmp_path, monkeypatch,
                                                            capsys, argv, edges):
        refuse_builds(monkeypatch)
        out_dir = tmp_path / "out"
        argv = [str(out_dir) if arg == "OUT" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert f"{edges} edges, more than MAX_EDGES=10000000" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [
        # r=2 q=22: 4,194,295 edges, within MAX_EDGES but not MAX_TREE_EDGES.
        ["witness", "--params", TREE_HD, "--tree", "--min-period", "38"],
        ["witness", "--params", TREE_HD, "--tree", "--min-period", "38", "--out", "OUT"],
        ["sweep", "--params", TREE_HD, "--tree", "--periods", "38"],
    ])
    def test_oversized_tree_is_refused_before_any_build(self, tmp_path, monkeypatch,
                                                        capsys, argv):
        refuse_builds(monkeypatch)
        out_dir = tmp_path / "out"
        argv = [str(out_dir) if arg == "OUT" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == ("error: size budget: the tree witness {'r': 2, 'q': 22} has 4194295 "
                       "edges, more than MAX_TREE_EDGES=2500000\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("params,select,raised", [
        (HD, ["--period", "4"], {"p": 2000, "predicted_period": 2000}),
        (TREE_HD, ["--tree", "--min-period", "6"],
         {"q": 10**6, "predicted_period": 2 * (10**6 - 3)}),
    ])
    def test_structural_params_must_fit_the_graph(self, tmp_path, capsys, params,
                                                  select, raised):
        # A period raised together with predicted_period used to make verify
        # replay and keep that many states of the small graph.
        run_cli(capsys, "witness", "--params", params, *select,
                "--out", str(tmp_path))
        path = tmp_path / "instance.json"
        data = json.loads(path.read_text())
        for key, value in raised.items():
            if key in data["structural_params"]:
                data["structural_params"][key] = value
            else:
                data[key] = value
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "verify", "--params", params,
                                 "--instance", str(path))
        assert code == 2
        assert out == ""
        assert "-vertex graph of the instance" in err

    def test_tree_height_is_bounded_before_the_vertex_count(self, tmp_path, monkeypatch,
                                                            capsys):
        # A q up to n passed the range check, and counting the tree's
        # vertices then raised r to the power q - 1: with n in the millions,
        # a number of millions of bits.
        run_cli(capsys, "witness", "--params", TREE_HD, "--tree", "--min-period", "6",
                "--out", str(tmp_path))
        path = tmp_path / "instance.json"
        data = json.loads(path.read_text())
        n = data["graph"]["n"]
        data["structural_params"]["q"] = n
        data["predicted_period"] = 2 * (n - 3)
        path.write_text(json.dumps(data))
        calls = []
        counted = evocycle.cli._tree_vertices

        def recording(*args):
            calls.append(args)
            return counted(*args)

        monkeypatch.setattr(evocycle.cli, "_tree_vertices", recording)
        code, out, err = run_cli(capsys, "verify", "--params", TREE_HD,
                                 "--instance", str(path))
        assert (code, out) == (2, "")
        assert "-vertex graph of the instance" in err
        assert calls == []

    @pytest.mark.parametrize("command", ["simulate", "verify", "export-dot"])
    @pytest.mark.parametrize("params,select,deleted,vertex,role,error", [
        # With o deleted and the role kind 7, simulate and export-dot used to
        # exit 0 and verify to exit 2 with the bare message "error: 'o'".
        pytest.param(HD, ["--period", "3"], "o", 0, ["K", 1, 1],
                     "missing structural param 'o'", id="K"),
        pytest.param(HD, ["--period", "3"], "o", 0, [7, 1, 1],
                     "role kind must be a string, got 7", id="7"),
        # A role without its coordinates used to end verify in an IndexError
        # traceback (exit 1) while simulate and export-dot exited 0.
        pytest.param("1,1/2,4/5,0", ["--period", "3"], None, 0, ["K"],
                     "vertex 0 has role ['K']: a fcsh role 'K' has 2 coordinates",
                     id="fcsh-bare-K"),
        pytest.param(HD, ["--period", "4"], None, 0, ["K"],
                     "vertex 0 has role ['K']: a hdpd role 'K' has 2 coordinates",
                     id="hdpd-bare-K"),
        pytest.param(TREE_HD, ["--tree", "--min-period", "4"], None, 1, ["special"],
                     "vertex 1 has role ['special']: a tree role 'special' has 1 coordinates",
                     id="tree-bare-special"),
        pytest.param("1,1/2,4/5,0", ["--period", "3"], None, 0, ["special", 1],
                     "vertex 0 has role ['special', 1]: no fcsh role has kind 'special'",
                     id="fcsh-foreign-kind"),
    ])
    def test_every_command_checks_the_family(self, tmp_path, capsys, command, params,
                                             select, deleted, vertex, role, error):
        run_cli(capsys, "witness", "--params", params, *select, "--out", str(tmp_path))
        path = tmp_path / "instance.json"
        data = json.loads(path.read_text())
        if deleted is not None:
            del data["structural_params"][deleted]
        data["roles"][vertex] = role
        path.write_text(json.dumps(data))
        given = [] if command == "export-dot" else ["--params", params]
        code, out, err = run_cli(capsys, command, *given, "--instance", str(path))
        assert (code, out) == (2, "")
        assert error in err

    # Each fault used to load through int() as 1, 4, 4 and 1, the role kind
    # loaded as it was, and the damaged file verified OK.
    MALFORMED = {  # name -> (path into the instance JSON, new value)
        "edge": (("graph", "edges", 0), [0, 1.7]),
        "predicted_period": (("predicted_period",), 4.9),
        "structural": (("structural_params", "p"), "4"),
        "role": (("roles", 0, 1), 1.5),
        "role_kind": (("roles", 0, 0), {"x": 1}),
    }

    @pytest.mark.parametrize("faults", [[name] for name in MALFORMED] + [list(MALFORMED)])
    def test_non_integer_instance_fields_are_refused(self, tmp_path, capsys, faults):
        run_cli(capsys, "witness", "--params", HD, "--period", "4",
                "--out", str(tmp_path))
        path = tmp_path / "instance.json"
        data = json.loads(path.read_text())
        assert data["graph"]["edges"][0] == [0, 1] and data["roles"][0] == ["K", 1, 1]
        for name in faults:
            keys, value = self.MALFORMED[name]
            _container(data, keys)[keys[-1]] = value
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "verify", "--params", HD,
                                 "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("select", [["--params", HD, "--period", "4"],
                                        ["--params", TREE_HD, "--tree", "--min-period", "8"]],
                             ids=["chain", "tree"])
    @pytest.mark.parametrize("at,value,refusal", [
        (-1, True, "role coordinate must be an integer, got True"),
        (-1, 1.0, "role coordinate must be an integer, got 1.0"),
        (-1, "1", "role coordinate must be an integer, got '1'"),
        (-1, None, "role coordinate must be an integer, got None"),
        (-1, [1], "role coordinate must be an integer, got [1]"),
        (0, 7, "role kind must be a string, got 7"),
        (0, None, "role kind must be a string, got None"),
    ], ids=["true", "1.0", "string", "null", "list", "kind-7", "kind-null"])
    def test_roles_of_the_wrong_json_type_are_refused(self, tmp_path, capsys, select, at,
                                                      value, refusal):
        # Roles are interned on load, keyed by tuples in which True == 1 ==
        # 1.0; the damaged role is the last whose last coordinate is 1, so
        # on a tree true and 1.0 make it equal to roles that stay intact.
        run_cli(capsys, "witness", *select, "--out", str(tmp_path))
        path = tmp_path / "instance.json"
        data = json.loads(path.read_text())
        roles = data["roles"]
        vertex = max(v for v, role in enumerate(roles) if role[-1] == 1)
        roles[vertex][at] = value
        path.write_text(json.dumps(data))
        for command in ("simulate", "verify", "export-dot"):
            given = [] if command == "export-dot" else select[:2]
            code, out, err = run_cli(capsys, command, *given, "--instance", str(path))
            assert (code, out, err) == (2, "", f"error: not an instance object: {refusal}\n")

    def test_period_one_is_refused_with_explanation(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--params", HD, "--period", "1")
        assert code == 2
        assert "fixed points" in err

    def test_non_admissible_witness(self, capsys):
        code, _, err = run_cli(
            capsys, "witness", "--params", "1,0.5,0.4,0", "--period", "3"
        )
        assert code == 2
        assert "NonAdmissible" in err

    def test_fc_period_no_fcsh_witness_can_serve_exits_2(self, capsys):
        # ((2p-1)c + d)/(2p) <= b for every p <= 32 at this quadruple, and
        # every center utility exceeds b, so feeler_reset fails at every
        # (q, r); at p = 64 the inequality holds and a witness exists.
        params = "--params=11/9,-3/11,-1/4,-13/7"
        code, out, err = run_cli(capsys, "witness", params, "--period", "8")
        assert (code, out) == (2, "")
        assert err == (
            "error: no fcsh witness for (a=11/9, b=-3/11, c=-1/4, d=-13/7) at p=8: "
            "feeler_reset needs ((2p-1)c + d)/(2p) = -157/448 > b = -3/11 at every (q, r)\n"
        )
        code, out, _ = run_cli(capsys, "witness", params, "--period", "64")
        assert code == 0 and out.startswith("kind=fcsh p=64 q=1 r=438 s=136\n")

    def test_period_or_tree_is_required(self, capsys):
        code, out, err = run_cli(capsys, "witness", "--params", HD)
        assert (code, out) == (2, "")
        assert err == "error: --period is required (or use --tree --min-period)\n"

    def test_flag_combinations(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--params", HD, "--tree")
        assert code == 2 and "--min-period" in err
        code, _, err = run_cli(
            capsys, "witness", "--params", HD, "--tree",
            "--min-period", "4", "--period", "4",
        )
        assert code == 2


class TestSimulate:
    def test_bare_graph_input(self, tmp_path, capsys):
        graph_file = tmp_path / "graph.json"
        graph_file.write_text('{"n": 2, "edges": [[0, 1]]}')
        code, out, _ = run_cli(
            capsys, "simulate", "--params", PD,
            "--graph", str(graph_file), "--x0", "CD",
        )
        assert code == 0
        assert out.splitlines()[0] == "transient=1 period=1"

    def test_vertex_count_beyond_the_edges_is_refused(self, tmp_path, capsys):
        graph_file = tmp_path / "graph.json"
        graph_file.write_text('{"n": 1000000000, "edges": [[0, 1]]}')
        code, _, err = run_cli(
            capsys, "simulate", "--params", PD,
            "--graph", str(graph_file), "--x0", "CD",
        )
        assert code == 2
        assert "n=1000000000" in err

    def test_budget_exhaustion_exits_3(self, tmp_path, capsys):
        out_dir = tmp_path / "w"
        run_cli(capsys, "witness", "--params", HD, "--period", "5",
                "--out", str(out_dir))
        code, _, err = run_cli(
            capsys, "simulate", "--params", HD,
            "--instance", str(out_dir / "instance.json"), "--max-steps", "2",
        )
        assert code == 3
        assert "2 steps" in err

    def test_budget_beyond_the_machine_word_is_accepted(self, tmp_path, capsys):
        graph_file = tmp_path / "graph.json"
        graph_file.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        argv = ("simulate", "--params", "1,0.45,1.24,0", "--graph", str(graph_file),
                "--x0", "CDC")
        default = run_cli(capsys, *argv)
        assert default[0] == 0
        assert run_cli(capsys, *argv, "--max-steps", "100000000000000000000") == default

    def test_tied_payoffs_warn_in_one_line(self, tmp_path, capsys):
        # The warning names the payoffs alone, with no source path or line.
        graph_file = tmp_path / "graph.json"
        graph_file.write_text('{"n": 2, "edges": [[0, 1]]}')
        for _ in range(2):  # and again on the next call in the same process
            code, out, err = run_cli(capsys, "simulate", "--params", "1,1,1,1",
                                     "--graph", str(graph_file), "--x0", "CD")
            assert (code, out) == (0, "transient=0 period=1\n")
            assert err == ("warning: payoff quadruple (a=1, b=1, c=1, d=1) "
                           "has tied payoffs\n")

    def test_csv_format(self, tmp_path, capsys):
        graph_file = tmp_path / "graph.json"
        graph_file.write_text('{"n": 2, "edges": [[0, 1]]}')
        code, out, _ = run_cli(
            capsys, "simulate", "--params", PD,
            "--graph", str(graph_file), "--x0", "10", "--format", "csv",
        )
        assert code == 0
        assert out == "t,cooperators\n0,1\n1,0\n"

    def test_missing_instance_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--params", PD,
            "--instance", str(tmp_path / "nope.json"),
        )
        assert code == 2

    def test_graph_requires_x0(self, tmp_path, capsys):
        graph_file = tmp_path / "graph.json"
        graph_file.write_text('{"n": 2, "edges": [[0, 1]]}')
        code, out, err = run_cli(capsys, "simulate", "--params", PD, "--graph", str(graph_file))
        assert (code, out, err) == (2, "", "error: --graph requires --x0 (e.g. CCD)\n")

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--params", PD)
        assert code == 2 and "exactly one" in err


class TestSweep:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--params", HD, "--periods", "2..4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("requested,kind,n,")
        assert len(lines) == 4
        for line, period in zip(lines[1:], (2, 3, 4)):
            cells = line.split(",")
            assert cells[0] == str(period)
            assert cells[1] == "hdpd"
            assert cells[-1] == "True"

    def test_parallel_matches_serial(self, tmp_path, capsys):
        argv = ["sweep", "--params", TREE_HD, "--tree", "--periods", "2,5"]
        code, serial, _ = run_cli(capsys, *argv, "--jobs", "1")
        assert code == 0
        code, parallel, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert code == 0
        assert serial == parallel

    def test_json_output_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "rows.json"
        code, _, _ = run_cli(
            capsys, "sweep", "--params", HD, "--periods", "2",
            "--format", "json", "--out", str(out_file),
        )
        assert code == 0
        rows = json.loads(out_file.read_text())
        assert rows[0]["requested"] == 2 and rows[0]["ok"] is True

    def test_period_one_is_refused_with_explanation(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--params", HD, "--periods", "1..3")
        assert code == 2
        assert "fixed points" in err

    def test_workers_never_exceed_tasks(self, monkeypatch, capsys):
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # cli imports the pool from concurrent.futures when a sweep needs it.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(evocycle.cli.os, "cpu_count", lambda: 64)
        code, _, _ = run_cli(
            capsys, "sweep", "--params", HD, "--periods", "2..4", "--jobs", "1000",
        )
        assert code == 0
        assert requested == [3]

    def test_empty_period_list_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--params", HD, "--periods", ",")
        assert (code, out, err) == (2, "", "error: no periods given\n")

    def test_bad_period_spec(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--params", HD, "--periods", "6..2")
        assert code == 2

    @pytest.mark.parametrize("spec", [
        "2..1000000000000000000000",  # used to raise OverflowError in range()
        f"2..{evocycle.cli.MAX_SWEEP_ROWS + 2}",  # one row over the cap
        "2..100000000",  # used to build 10**8 periods and tasks first
    ])
    def test_period_ranges_beyond_the_row_cap_are_refused(self, monkeypatch, capsys, spec):
        def refuse(*args):
            raise AssertionError("a sweep row ran")

        monkeypatch.setattr(evocycle.cli, "_sweep_row", refuse)
        code, out, err = run_cli(capsys, "sweep", "--params", "1,9/20,31/25,0",
                                 "--periods", spec)
        assert code == 2 and out == ""
        assert err.startswith("error: sweep row cap:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,named", [
        (["sweep", "--params", HD, "--periods", "2..4", "--jobs", "0"], "jobs"),
        (["sweep", "--params", HD, "--periods", "2..4", "--jobs", "-4"], "jobs"),
        (["sweep", "--params", HD, "--periods", "2..4", "--max-candidates", "0"],
         "max_candidates"),
        (["sweep", "--params", TREE_HD, "--tree", "--periods", "6",
          "--max-candidates", "-1"], "max_candidates"),
        (["witness", "--params", HD, "--period", "4", "--max-candidates", "0"],
         "max_candidates"),
        (["witness", "--params", "1,1/2,4/5,0", "--period", "3", "--max-candidates", "-1"],
         "max_candidates"),
        (["witness", "--params", TREE_HD, "--tree", "--min-period", "6",
          "--max-candidates", "0"], "max_candidates"),
    ])
    def test_non_positive_counts_are_refused(self, monkeypatch, capsys, argv, named):
        # These used to run serially, or exit 3 as an exhausted budget.
        def refuse(*args):
            raise AssertionError("a sweep row ran")

        monkeypatch.setattr(evocycle.cli, "_sweep_row", refuse)
        refuse_builds(monkeypatch)
        code, out, err = run_cli(capsys, *argv)
        value = argv[-1]
        assert (code, out) == (2, "")
        assert err == f"error: {named} must be an integer >= 1, got {value}\n"

    def test_period_range_at_the_row_cap_is_accepted(self):
        cap = evocycle.cli.MAX_SWEEP_ROWS
        assert len(evocycle.cli.parse_periods(f"2..{cap + 1}")) == cap


class TestExportDot:
    def test_stdout(self, tmp_path, capsys):
        out_dir = tmp_path / "w"
        run_cli(capsys, "witness", "--params", TREE_HD, "--tree",
                "--min-period", "1", "--out", str(out_dir))
        code, out, _ = run_cli(
            capsys, "export-dot", "--instance", str(out_dir / "instance.json"),
        )
        assert code == 0
        assert out.startswith("graph G {")
        assert out.rstrip().endswith("}")


class TestEntryPoints:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["witness"])
        assert excinfo.value.code == 2

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "evocycle", "classify", "--params", HD],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "HD"


def _bounded_cli(*argv):
    """python -m evocycle argv in a child limited to 400 MB of address
    space and 30 s, so that a command reading without end fails the test
    instead of exhausting memory or hanging."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "evocycle", *argv], capture_output=True,
                          text=True, timeout=30, preexec_fn=limit,
                          env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.skipif(not os.path.exists("/dev/zero") or not hasattr(os, "mkfifo"),
                    reason="needs /dev/zero and FIFOs")
class TestNonRegularFiles:
    """A device was read until memory ran out (a MemoryError traceback
    under an address-space limit), and opening a FIFO blocked forever."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--params", HD, "--instance", "/dev/zero"],
        ["verify", "--params", HD, "--instance", "/dev/zero"],
        ["export-dot", "--instance", "/dev/zero"],
        ["simulate", "--params", HD, "--graph", "/dev/zero", "--x0", "CD"],
    ], ids=["simulate", "verify", "export-dot", "simulate-graph"])
    def test_a_device_is_refused(self, argv):
        done = _bounded_cli(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "error: /dev/zero is not a regular file\n")

    def test_a_fifo_is_refused_without_opening_it(self, tmp_path):
        fifo = tmp_path / "instance.json"
        os.mkfifo(fifo)
        done = _bounded_cli("simulate", "--params", HD, "--instance", str(fifo))
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", f"error: {fifo} is not a regular file\n")



@contextlib.contextmanager
def collector(enabled):
    """Run the block with the cyclic collector on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    """main pauses the cyclic collector while a command runs and leaves
    the caller's setting as it found it, whatever the exit code."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv,expected", [
        (["witness", "--params", HD, "--period", "3", "--out", "OUT"], 0),
        (["verify", "--params", TREE_HD, "--instance", "HD4"], 1),
        (["verify", "--params", "1,2,3", "--instance", "HD4"], 2),
        (["witness", "--params", TREE_HD, "--tree", "--min-period", "44"], 3),
        (["witness", "--params", HD, "--period", "9", "--max-candidates", "1"], 3),
    ])
    def test_the_callers_setting_is_restored(self, tmp_path, capsys, enabled, argv,
                                            expected):
        run_cli(capsys, "witness", "--params", HD, "--period", "4",
                "--out", str(tmp_path / "hd4"))
        paths = {"OUT": str(tmp_path / "out"), "HD4": str(tmp_path / "hd4" / "instance.json")}
        with collector(enabled):
            code, _, _ = run_cli(capsys, *(paths.get(arg, arg) for arg in argv))
            assert gc.isenabled() is enabled
        assert code == expected

    def test_the_collector_is_off_while_a_command_works(self, tmp_path, monkeypatch,
                                                       capsys):
        # witness --out writes a clique chain from its closed-form layout.
        seen = []
        lay_out = evocycle.cli.hdpd_layout

        def recording_layout(*args):
            seen.append(gc.isenabled())
            return lay_out(*args)

        monkeypatch.setattr(evocycle.cli, "hdpd_layout", recording_layout)
        with collector(True):
            code, _, _ = run_cli(capsys, "witness", "--params", HD, "--period", "3",
                                 "--out", str(tmp_path))
        assert (code, seen) == (0, [False])

    @pytest.mark.parametrize("params,select", [
        (HD, [["--period", "3"], ["--period", "12"]]),
        ("1,2/5,9/10,1/2", [["--period", "2"], ["--period", "3"]]),
        (TREE_HD, [["--tree", "--min-period", "4"], ["--tree", "--min-period", "12"]]),
    ])
    def test_cyclic_garbage_does_not_grow_with_the_witness(self, tmp_path, capsys,
                                                           params, select):
        # The pause rests on witness data holding no reference cycles: what
        # the collector finds after a command is the parser's, whatever the
        # size.  Counts are compared between sizes because the parser's
        # share differs between Python versions.
        def garbage(*argv):
            gc.collect()
            with collector(False):
                code, _, _ = run_cli(capsys, *argv)
                found = gc.collect()
            assert code == 0
            return found

        counts = []
        for k, period_args in enumerate(select):
            instance = str(tmp_path / str(k) / "instance.json")
            counts.append([
                garbage("witness", "--params", params, *period_args,
                        "--out", str(tmp_path / str(k))),
                garbage("simulate", "--params", params, "--instance", instance),
                garbage("verify", "--params", params, "--instance", instance),
            ])
        assert counts[0] == counts[1]


def _sites(node, path=()):
    """("int", path) for every integer and ("key", path) for every object
    key of a JSON tree."""
    if type(node) is int:
        yield "int", path
    elif isinstance(node, dict):
        for key, value in node.items():
            yield "key", path + (key,)
            yield from _sites(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _sites(value, path + (k,))


# Ways to replace an integer x: a float equal to it, a float beside it,
# a string, a bool, null, and an infinity.
REPLACEMENTS = {
    "float": float,
    "half": lambda x: x + 0.5,
    "string": str,
    "true": lambda x: True,
    "false": lambda x: False,
    "null": lambda x: None,
    "inf": lambda x: float("inf"),
}


def _container(data, path):
    """The list or object holding the entry at path of a JSON tree."""
    for key in path[:-1]:
        data = data[key]
    return data


def _damaged(base, site, replacement):
    data = json.loads(json.dumps(base))
    kind, path = site
    container = _container(data, path)
    if kind == "key":
        del container[path[-1]]
    else:
        container[path[-1]] = REPLACEMENTS[replacement](container[path[-1]])
    return data


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


FUZZ_HDPD = instance_to_dict(evocycle.build_hdpd(3, 5, 1, 1, 6))  # HD p=3 witness
FUZZ_TREE = instance_to_dict(evocycle.build_tree(2, 5))  # TREE_HD witness


class TestLoaderFuzz:
    """One integer of a small witness file replaced by a non-integer, or
    one key dropped: the loaders refuse it with exit 2, never a traceback."""

    INSTANCE_SITES = [(HD, FUZZ_HDPD, site) for site in _sites(FUZZ_HDPD)] + [
        (TREE_HD, FUZZ_TREE, site) for site in _sites(FUZZ_TREE)]
    GRAPH_SITES = list(_sites(FUZZ_HDPD["graph"]))

    @settings(max_examples=150)
    @given(st.sampled_from(INSTANCE_SITES), st.sampled_from(sorted(REPLACEMENTS)))
    def test_instance_loader(self, tmp_path_factory, case, replacement):
        params, base, site = case
        path = tmp_path_factory.mktemp("fuzz") / "instance.json"
        path.write_text(json.dumps(_damaged(base, site, replacement)))
        code, out, err = _main_quietly(["verify", "--params", params, "--instance", str(path)])
        assert (code, out) == (2, ""), (site, replacement, out)
        assert err.startswith("error: ")

    @settings(max_examples=60)
    @given(st.sampled_from(GRAPH_SITES), st.sampled_from(sorted(REPLACEMENTS)))
    def test_graph_loader(self, tmp_path_factory, site, replacement):
        path = tmp_path_factory.mktemp("fuzz") / "graph.json"
        path.write_text(json.dumps(_damaged(FUZZ_HDPD["graph"], site, replacement)))
        code, out, err = _main_quietly(
            ["simulate", "--params", HD, "--graph", str(path), "--x0", FUZZ_HDPD["x0"]])
        assert (code, out) == (2, ""), (site, replacement, out)
        assert err.startswith("error: ")

    def test_the_bases_load(self, tmp_path):
        for params, base in ((HD, FUZZ_HDPD), (TREE_HD, FUZZ_TREE)):
            path = tmp_path / "instance.json"
            path.write_text(json.dumps(base))
            assert _main_quietly(["verify", "--params", params, "--instance", str(path)])[0] == 0


# Flag values for TestArgumentFuzz: valid and malformed payoffs, periods
# around the refusal boundaries, small budgets, and instance files that
# load, are damaged, or are missing.  INSTANCE_FILES names are resolved to
# paths in the test.
SH = "1,2/5,9/10,1/2"
INSTANCE_FILES = ("hdpd.json", "tree.json", "damaged.json", "missing.json")
FLAG_VALUES = {
    "--params": (HD, PD, TREE_HD, SH, "1,2,3", "1,x,2,0", "1,0.5,0.4,0"),
    "--period": tuple(map(str, range(-2, 6))) + ("x",),
    "--min-period": tuple(map(str, range(-2, 11))),
    "--periods": ("2", "5", "1", "2..1", "4..3", "x"),
    "--jobs": ("-1", "0", "1", "2"),
    "--max-candidates": ("0", "1", "40", "1000"),
    "--max-steps": ("0", "1", "100"),
    "--format": ("text", "json", "csv", "yaml"),
    "--instance": INSTANCE_FILES,
    "--graph": INSTANCE_FILES,
    "--x0": ("C", "CD" * 5, "X"),
    "--tree": None,
}
COMMAND_FLAGS = {
    "classify": ("--params", "--format"),
    "witness": ("--params", "--period", "--tree", "--min-period", "--max-candidates",
                "--format"),
    "simulate": ("--params", "--instance", "--graph", "--x0", "--max-steps", "--format"),
    "verify": ("--params", "--instance", "--format"),
    "sweep": ("--params", "--periods", "--tree", "--jobs", "--max-candidates", "--format"),
    "export-dot": ("--instance",),
}


@st.composite
def cli_argv(draw):
    """A subcommand, most of its own flags, and now and then one more from
    the whole vocabulary (which may be its own again, or another's)."""
    often = st.integers(0, 3).map(bool)
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = [flag for flag in COMMAND_FLAGS[command] if draw(often)]
    if not draw(often):
        flags.append(draw(st.sampled_from(sorted(FLAG_VALUES))))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if FLAG_VALUES[flag] is not None:
            argv.append(draw(st.sampled_from(FLAG_VALUES[flag])))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "hdpd.json").write_text(json.dumps(FUZZ_HDPD))
    (root / "tree.json").write_text(json.dumps(FUZZ_TREE))
    text = json.dumps(FUZZ_HDPD)
    (root / "damaged.json").write_text(text[: len(text) // 2])
    return root


class TestArgumentFuzz:
    @settings(max_examples=300, deadline=None)
    @given(cli_argv(), st.booleans())
    def test_main_returns_an_exit_code_or_argparse_exits(self, fuzz_dir, argv, enabled):
        # With --jobs 2 a sweep of one period still runs in-process, and
        # every witness here is small, so no example needs a worker pool.
        argv = [str(fuzz_dir / arg) if arg in INSTANCE_FILES else arg for arg in argv]
        with collector(enabled):
            try:
                code = _main_quietly(argv)[0]
            except SystemExit as exc:
                code = ("argparse", exc.code)
            assert gc.isenabled() is enabled, argv
        assert code in (0, 1, 2, 3, ("argparse", 2)), argv
