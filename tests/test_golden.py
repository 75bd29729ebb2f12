"""Byte-for-byte CLI behaviour for one small witness per family.

tests/golden_cli.json holds the exit code and exact stdout of every case
below, and the SHA-256 of the three artifacts `witness --out` writes.  The
expected values were recorded with run_cases() on the code before the
family registry in evocycle.cli existed, so any change to the bytes the
CLI prints or writes for these inputs fails here.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from evocycle.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

# family -> (params, the arguments that select the witness, sweep arguments)
FAMILIES = {
    "fcsh": ("1,1/2,4/5,0", ["--period", "3"], ["--periods", "3"]),
    "hdpd": ("1,0.45,1.24,0", ["--period", "4"], ["--periods", "4"]),
    "tree": ("1,0.6,2,0", ["--tree", "--min-period", "6"],
             ["--tree", "--periods", "6"]),
}
ARTIFACTS = ("instance.json", "certificate.json", "instance.dot")


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def run_cases(workdir):
    """Run every case under workdir; returns (cases, artifact digests)."""
    workdir = Path(workdir)
    cases, digests = {}, {}
    for family, (params, select, sweep) in FAMILIES.items():
        out_dir = workdir / family
        _call(["witness", "--params", params, *select, "--out", str(out_dir)])
        digests[family] = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ARTIFACTS
        }
        instance = ["--instance", str(out_dir / "instance.json")]
        for fmt in ("text", "json"):
            cases[f"{family}:witness:{fmt}"] = _call(
                ["witness", "--params", params, *select, "--format", fmt])
            cases[f"{family}:simulate:{fmt}"] = _call(
                ["simulate", "--params", params, *instance, "--format", fmt])
            cases[f"{family}:verify:{fmt}"] = _call(
                ["verify", "--params", params, *instance, "--format", fmt])
        for fmt in ("csv", "json"):
            cases[f"{family}:sweep:{fmt}"] = _call(
                ["sweep", "--params", params, *sweep, "--format", fmt])

    # The hdpd instance with its last edge removed fails verification.
    params, select, _ = FAMILIES["hdpd"]
    path = workdir / "hdpd" / "instance.json"
    data = json.loads(path.read_text())
    data["graph"]["edges"].pop()
    tampered = workdir / "tampered.json"
    tampered.write_text(json.dumps(data))
    for fmt in ("text", "json"):
        cases[f"tampered:verify:{fmt}"] = _call(
            ["verify", "--params", params, "--instance", str(tampered),
             "--format", fmt])
    return cases, digests


def test_cli_bytes_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    cases, digests = run_cases(tmp_path)
    assert sorted(cases) == sorted(golden["cases"])
    for name, expected in golden["cases"].items():
        assert cases[name] == expected, name
    assert digests == golden["artifacts"]
    assert golden["cases"]["tampered:verify:text"]["exit"] == 1
