"""Canonical clique-chain files are read from their structural integers.

A file that holds exactly what witness --out writes for the fcsh or hdpd
params it declares is simulated, verified and exported on the closed-form
instance and quotient, with no JSON parse of its edges and no Graph.  Any
other file takes the parse-and-check path.  A clique-chain sweep row is
laid out and replayed on the closed forms as well.  Both must print the same
stdout, stderr and exit code: here every command runs on canonical files
and on single-byte damages of them, once as is and once with the
canonical check switched off.
"""

import contextlib
import io
import tracemalloc

import pytest

from evocycle import Graph
from evocycle import analysis, cli, dynamics
from evocycle.cli import _canonical, main

# Certified params and period per family (the golden witnesses), and
# payoffs the witness is not certified for: random ones and tied ones.
WITNESS = {"fcsh": ("1,1/2,4/5,0", "3"), "hdpd": ("1,0.45,1.24,0", "4")}
OTHER_PAYOFFS = ("2,-1,3,0", "1,1/3,3/2,1/3", "1,0,1,0")


def quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def witness(directory, kind):
    params, period = WITNESS[kind]
    assert quiet(["witness", "--params", params, "--period", period,
                  "--out", str(directory)])[0] == 0
    return directory / "instance.json"


def _digit_after(data, key, skip=0):
    """The offset of the first digit at least skip bytes after key."""
    start = data.index(key) + skip
    return next(k for k in range(start, len(data)) if data[k:k + 1].isdigit())


def _bump_digit(data, at):
    digit = data[at] - ord("0")
    return data[:at] + bytes([ord("0") + (digit + 1) % 10]) + data[at + 1:]


def damaged(data, how):
    """The bytes of a canonical file with one fault of the given kind."""
    if how == "clean":
        return data
    if how == "edge-digit":
        return _bump_digit(data, _digit_after(data, b'"edges": [', skip=40))
    if how == "dropped-byte":
        return data[:len(data) // 2] + data[len(data) // 2 + 1:]
    if how == "x0-flip":
        at = data.rindex(b'"') - 1
        return data[:at] + (b"0" if data[at:at + 1] == b"1" else b"1") + data[at + 1:]
    if how == "role-coordinate":
        return _bump_digit(data, _digit_after(data, b'"roles": ['))
    if how == "structural-param":
        return _bump_digit(data, _digit_after(data, b'"structural_params": {'))
    if how == "space":
        return data + b" "
    if how == "newline":
        return data + b"\n"
    raise ValueError(how)


DAMAGES = ("clean", "edge-digit", "dropped-byte", "x0-flip", "role-coordinate",
           "structural-param", "space", "newline")


def commands(path, params, out_dir):
    instance = ["--instance", str(path)]
    given = ["--params", params, *instance]
    return [
        *(["simulate", *given, "--format", fmt] for fmt in ("text", "json", "csv")),
        ["simulate", *given, "--out", str(out_dir)],
        ["simulate", *given, "--max-steps", "2"],
        *(["verify", *given, "--format", fmt] for fmt in ("text", "json")),
        ["export-dot", *instance],
    ]


def outputs(path, params, out_dir):
    """Each command's (exit code, stdout, stderr), then the files that
    simulate --out wrote."""
    results = [quiet(argv) for argv in commands(path, params, out_dir)]
    if not out_dir.exists():
        return results, []
    return results, sorted((path.name, path.read_bytes()) for path in out_dir.iterdir())


@pytest.mark.filterwarnings("ignore::evocycle.NonGenericParamsWarning")
@pytest.mark.parametrize("kind", sorted(WITNESS))
@pytest.mark.parametrize("how", DAMAGES)
@pytest.mark.parametrize("payoffs", ["certified", *OTHER_PAYOFFS])
def test_canonical_and_parsed_paths_print_the_same(tmp_path, monkeypatch, kind, how, payoffs):
    path = witness(tmp_path / "w", kind)
    path.write_bytes(damaged(path.read_bytes(), how))
    assert (_canonical(str(path)) is not None) == (how == "clean")
    params = WITNESS[kind][0] if payoffs == "certified" else payoffs
    fast = outputs(path, params, tmp_path / "fast")
    monkeypatch.setattr(cli, "_canonical", lambda path: None)
    assert outputs(path, params, tmp_path / "parsed") == fast


@pytest.mark.parametrize("kind", sorted(WITNESS))
def test_damages_change_one_byte_or_append_one(tmp_path, kind):
    data = witness(tmp_path, kind).read_bytes()
    for how in DAMAGES[1:]:
        other = damaged(data, how)
        assert other != data
        if len(other) == len(data):
            assert sum(a != b for a, b in zip(data, other)) == 1
        else:
            assert abs(len(other) - len(data)) == 1


def count_graphs(monkeypatch):
    made = []
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting)
    return made


@pytest.mark.parametrize("kind", sorted(WITNESS))
def test_canonical_commands_build_no_graph(tmp_path, monkeypatch, kind):
    made = count_graphs(monkeypatch)
    path = witness(tmp_path / "w", kind)
    params = WITNESS[kind][0]
    for argv in commands(path, params, tmp_path / "sim"):
        assert quiet(argv)[0] in (0, 3)
    assert made == []
    # A file that is not canonical is parsed into a Graph, as it always was.
    path.write_bytes(path.read_bytes() + b"\n")
    assert quiet(["verify", "--params", params, "--instance", str(path)])[0] == 0
    assert len(made) == 1


@pytest.mark.parametrize("kind", sorted(WITNESS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_chain_sweep_builds_no_graph_and_takes_no_step(monkeypatch, kind, fmt):
    made, steps = count_graphs(monkeypatch), []
    for module in (dynamics, analysis):
        monkeypatch.setattr(module, "step", lambda *args: steps.append(args))
    params, period = WITNESS[kind]
    code, out, _ = quiet(["sweep", "--params", params, "--periods", f"2..{period}",
                          "--jobs", "1", "--format", fmt])
    assert code == 0 and out  # exit 0: every row reached its period and verified
    assert made == [] and steps == []


def test_a_tree_file_is_left_after_its_params(tmp_path, monkeypatch):
    assert quiet(["witness", "--params", "1,0.6,2,0", "--tree", "--min-period", "8",
                  "--out", str(tmp_path)])[0] == 0
    compared = []
    monkeypatch.setattr(cli, "_holds", lambda *args: compared.append(1))
    assert _canonical(str(tmp_path / "instance.json")) is None
    assert quiet(["verify", "--params", "1,0.6,2,0",
                  "--instance", str(tmp_path / "instance.json")])[0] == 0
    assert compared == []


@pytest.mark.parametrize("params,reason", [
    ('"o": 1,\n    "p": 2,\n    "q": 9000000,\n    "r": 1,\n    "s": 1', "larger than the file"),
    ('"o": 1,\n    "p": 2,\n    "q": 90000000,\n    "r": 1,\n    "s": 1', "over MAX_EDGES"),
    ('"o": 0,\n    "p": 2,\n    "q": 1,\n    "r": 1,\n    "s": 1', "o = 0"),
    ('"p": 2,\n    "q": 1,\n    "r": 1', "no family's params"),
])
def test_declared_params_are_checked_before_any_layout(tmp_path, monkeypatch, params, reason):
    # A small file that declares a huge witness is not laid out to be
    # compared with: it would take memory the file does not back.
    path = tmp_path / "instance.json"
    path.write_text('{\n  "graph": {},\n  "structural_params": {\n    ' + params
                    + '\n  },\n  "x0": "01"\n}\n')
    laid_out = []
    monkeypatch.setattr(cli, "hdpd_layout", lambda *args: laid_out.append(args))
    monkeypatch.setattr(cli, "fcsh_layout", lambda *args: laid_out.append(args))
    assert _canonical(str(path)) is None, reason
    assert laid_out == []
    assert quiet(["verify", "--params", "1,0.45,1.24,0", "--instance", str(path)])[0] == 2


def test_params_the_builder_refuses_are_not_canonical(tmp_path, monkeypatch):
    # Long enough for its edges, but p = 1, which the builder refuses.
    path = tmp_path / "instance.json"
    path.write_text('{\n  "graph": {},\n  "structural_params": {\n    "o": 1,\n    "p": 1,'
                    '\n    "q": 1,\n    "r": 1,\n    "s": 1\n  },\n  "x0": "01"\n}\n' + " " * 400)
    refused = []
    lay_out = cli.hdpd_layout

    def recording(*args):
        try:
            return lay_out(*args)
        except ValueError:
            refused.append(args)
            raise

    monkeypatch.setattr(cli, "hdpd_layout", recording)
    assert _canonical(str(path)) is None
    assert refused == [(1, 1, 1, 1, 1)]


def traced_peak(argv):
    """The exit code of the command and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return quiet(argv)[0], tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("period", ["4", "8"])
def test_chain_commands_take_memory_in_n_not_m(tmp_path, period):
    # SH p=4 has n = 4,676 and m = 22,275, p=8 n = 30,746 and m = 276,540.
    # Every command holds at most a few bytes per vertex, one block of
    # the file and one chunk of text: per-vertex roles, per-edge DOT lines
    # or the whole DOT text took 25 MB at p=8, 92 bytes per edge.
    params = "1,2/5,9/10,1/2"
    family, _, sp = cli._solve(cli.parse_params(params), int(period), False, 10**6)
    bound = 32 * family.vertices(sp) + (1 << 19)
    out, path = tmp_path / "out", str(tmp_path / "out" / "instance.json")
    given = ["--params", params, "--instance", path]
    for argv in (["witness", "--params", params, "--period", period, "--out", str(out)],
                 ["simulate", *given], ["verify", *given],
                 ["export-dot", "--instance", path, "--out", str(tmp_path / "export.dot")]):
        code, peak = traced_peak(argv)
        assert code == 0 and peak < bound, (argv[0], peak, bound)
    assert (tmp_path / "export.dot").read_bytes() == (out / "instance.dot").read_bytes()
