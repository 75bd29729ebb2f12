import json
import subprocess
import sys

import pytest

import evocycle.cli
from evocycle.cli import main

HD = "1,0.45,1.24,0"
TREE_HD = "1,0.6,2,0"
PD = "1,-0.45,1.35,0"


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

    @pytest.mark.parametrize("family,instance", [
        (evocycle.cli._FCSH, evocycle.build_fcsh(3, 2, 2, 1)),
        (evocycle.cli._HDPD, evocycle.build_hdpd(3, 2, 1, 2, 1)),
        (evocycle.cli._TREE, evocycle.build_tree(3, 6)),
    ])
    def test_family_vertex_count_matches_builder(self, family, instance):
        assert family.vertices(instance.structural_params) == instance.graph.n

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

        monkeypatch.setattr(evocycle.cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(evocycle.cli.os, "cpu_count", lambda: 64)
        code, _, _ = run_cli(
            capsys, "sweep", "--params", HD, "--periods", "2..4", "--jobs", "1000",
        )
        assert code == 0
        assert requested == [3]

    def test_bad_period_spec(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--params", HD, "--periods", "6..2")
        assert code == 2


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
