"""Seeded inputs, closed-form witness sizes and the operations of each
workload.

Every workload starts from fixed base payoff quadruples.  The seed draws,
for each operation, a positive affine map x -> k*x + t and applies it to
the base quadruple.  Mean utilities
are weighted averages of the payoffs, so such a map preserves every
comparison the dynamics and the certificates make: the program sees
different payoff literals on every seed, yet solves for the same
certificate integers and builds the same graphs.  Runs with different
seeds therefore measure the same work, which is what keeps the figures
comparable from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import evocycle
import evocycle.cli

ROOT = Path(__file__).resolve().parent.parent

# Ops whose predicted edge count exceeds this are skipped and logged, not
# run: build_fcsh peaks at roughly 220 bytes per edge, and FC/SH witnesses
# grow like p^4 (SH p=32 would have 53M edges).
EDGE_BUDGET = 2_000_000

# The oracle in tests/reference.py rescans the edge list for every
# utility, so only instances up to this many vertices are replayed on it.
ORACLE_MAX_N = 60

CERTIFY_BUDGET = 200_000

# (params, --period) clique chains: SH n=30,746 m=276,540; FC n=24,707
# m=307,835; PD n=3,918 m=131,909; HD n=1,345 m=19,237.
CHAIN_CELLS = (
    ("1,2/5,9/10,1/2", 8),
    ("1,1/2,4/5,0", 12),
    ("1,-9/20,27/20,0", 32),
    ("1,9/20,31/25,0", 32),
)

# (params, --min-period) for the tree witness.
TREE_CELLS = (
    ("1,3/5,2,0", 24),
    ("1,7/10,2,0", 22),
)

# (params, tree, periods) for sweep-small; every row is a small pipeline.
SWEEP_CELLS = (
    ("1,9/20,31/25,0", False, range(2, 17)),
    ("1,-9/20,27/20,0", False, range(2, 17)),
    ("1,3/5,2,0", True, range(2, 17)),
    ("1,7/10,2,0", True, range(2, 17)),
)

# (scenario, period, b, c) of normalized quadruples (a=1, d=0) for
# certify.  They were drawn once at random and then picked at the 10th,
# 30th, 50th, 70th and 90th percentile of solve time in each (scenario,
# period) cell, so the list keeps the solver's long tail (up to about
# 1 s per solve) while a pass stays near 7 s.  One more, the first, sits
# at the overall median: with an odd count the median op is one op, and
# its neighbours cost nearly the same, so op_p50_s does not jump between
# two cost levels from run to run.
CERTIFY_BASE = (
    ("PD", 64, "-5/4", "17/8"),
    ("PD", 64, "-11/29", "41/29"), ("PD", 64, "-1/2", "19/10"),
    ("PD", 64, "-1/9", "19/18"), ("PD", 64, "-27/253", "261/253"),
    ("PD", 64, "-13/11", "2"),
    ("PD", 256, "-143/219", "209/73"), ("PD", 256, "-39/59", "66/59"),
    ("PD", 256, "-11/13", "33/13"), ("PD", 256, "-99/65", "21/13"),
    ("PD", 256, "-3/40", "6/5"),
    ("SH", 64, "-23/16", "73/80"), ("SH", 64, "-11/18", "5/6"),
    ("SH", 64, "-51/50", "3/5"), ("SH", 64, "-22/7", "8/21"),
    ("SH", 64, "-5/33", "7/99"),
    ("SH", 256, "-4/35", "26/35"), ("SH", 256, "-1/21", "13/24"),
    ("SH", 256, "-24/41", "132/287"), ("SH", 256, "-7/2", "13/42"),
    ("SH", 256, "-66/199", "474/2189"),
    ("HD", 64, "28/33", "16/11"), ("HD", 64, "5/12", "11/8"),
    ("HD", 64, "28/39", "14/13"), ("HD", 64, "1/14", "46/35"),
    ("HD", 64, "5/93", "321/310"),
    ("HD", 256, "82/159", "75/53"), ("HD", 256, "1/2", "37/20"),
    ("HD", 256, "92/113", "837/452"), ("HD", 256, "6/7", "9/8"),
    ("HD", 256, "7/22", "7/4"),
    ("FC", 64, "49/61", "553/610"), ("FC", 64, "9/14", "47/56"),
    ("FC", 64, "28/195", "48/65"), ("FC", 64, "7/36", "35/99"),
    ("FC", 64, "91/1143", "35/127"),
    ("FC", 256, "143/206", "363/412"), ("FC", 256, "54/803", "316/365"),
    ("FC", 256, "43/148", "79/111"), ("FC", 256, "1/20", "13/20"),
    ("FC", 256, "11/170", "13/34"),
)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def parse_quadruple(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(part) for part in text.split(","))


def quadruple_text(values: tuple[Fraction, ...]) -> str:
    return ",".join(str(v) for v in values)


def draw_affine(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A positive integer scale k and an integer shift t.

    Integers keep the denominators of the base quadruple, so that the
    exact arithmetic, whose cost grows with the size of the numbers,
    costs about the same on every seed.
    """
    return Fraction(rng.randint(1, 9)), Fraction(rng.randint(-9, 9))


def rescale(text: str, k: Fraction, t: Fraction) -> str:
    return quadruple_text(tuple(k * v + t for v in parse_quadruple(text)))


def game(text: str) -> evocycle.GameParams:
    return evocycle.GameParams(*parse_quadruple(text))


# ---------------------------------------------------------------------------
# closed-form sizes
# ---------------------------------------------------------------------------


def fcsh_size(p: int, q: int, r: int, s: int) -> tuple[int, int]:
    n = (2 * p - 1) * q + 1 + q * r * (2 * s + 2)
    m = (2 * p - 1) * comb(q, 2) + (2 * p - 1) * q + q * r * (s * s + s + 2 * p)
    return n, m


def hdpd_size(p: int, o: int, q: int, r: int, s: int) -> tuple[int, int]:
    n = (p + 1) * o + q + r + s + 3
    m = p * comb(o, 2) + (2 * p - 1) * o + q + r + 2 * s + 1
    return n, m


def tree_size(r: int, q: int) -> tuple[int, int]:
    n = 1 + sum(r ** (level - 1) for level in range(1, q)) + r * (r ** (q - 2) - r * r)
    return n, n - 1


@dataclass(frozen=True)
class Witness:
    """A certificate's structural integers with its predicted size."""

    kind: str
    ints: dict[str, int]
    period: int
    n: int
    m: int

    def build(self) -> evocycle.ConstructedInstance:
        i = self.ints
        if self.kind == "fcsh":
            return evocycle.build_fcsh(i["p"], i["q"], i["r"], i["s"])
        if self.kind == "hdpd":
            return evocycle.build_hdpd(i["p"], i["o"], i["q"], i["r"], i["s"])
        return evocycle.build_tree(i["r"], i["q"])

    def recheck(self, params: evocycle.GameParams) -> Fraction:
        """Minimum residual of a fresh check_* on the certificate."""
        i = self.ints
        if self.kind == "fcsh":
            cert = evocycle.check_fcsh(params, i["p"], i["q"], i["r"], i["s"])
        elif self.kind == "hdpd":
            cert = evocycle.check_hdpd(params, i["p"], i["o"], i["q"], i["r"], i["s"])
        else:
            cert = evocycle.check_tree(params, i["r"], i["q"])
        return cert.min_residual


def witness_for(params: evocycle.GameParams, period: int, tree: bool) -> Witness:
    """Solve the certificate the CLI will find and predict its graph size."""
    if tree:
        cert = evocycle.solve_tree(params, period)
        ints = {"r": cert.r, "q": cert.q}
        return Witness("tree", ints, 2 * (cert.q - 3), *tree_size(cert.r, cert.q))
    scenario = evocycle.classify_scenario(params)
    if scenario in (evocycle.Scenario.FC, evocycle.Scenario.SH):
        cert = evocycle.solve_fcsh(params, period)
        ints = {"p": period, "q": cert.q, "r": cert.r, "s": cert.s}
        return Witness("fcsh", ints, period, *fcsh_size(**ints))
    cert = evocycle.solve_hdpd(params, period)
    ints = {"p": period, "o": cert.o, "q": cert.q, "r": cert.r, "s": cert.s}
    return Witness("hdpd", ints, period, *hdpd_size(**ints))


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Outcome:
    """What one op produced: timing, hashes and the problems found."""

    label: str
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    predicted: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def record(self) -> dict[str, Any]:
        return {"op": self.label, "seconds": self.seconds, "ok": self.ok,
                "problems": self.problems, "sha256": self.digests,
                "predicted": self.predicted}


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """evocycle.cli.main in this process, with stdout and stderr captured.

    The entry point is looked up on every call so that the traced run's
    wrapper is the one called.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = evocycle.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# A Measure is entered around exactly the program calls of one op; the
# plain one only times, the traced one also opens the op's root span.
Measure = Callable[[str], contextlib.AbstractContextManager]


@contextlib.contextmanager
def stopwatch(outcome: Outcome, measure: Measure) -> Iterator[None]:
    start = perf_counter()
    with measure(outcome.label):
        yield
    outcome.seconds = perf_counter() - start


class Pipeline:
    """witness --out, then simulate and verify on the written instance."""

    def __init__(self, params: str, period: int, tree: bool) -> None:
        self.params = params
        self.period = period
        self.tree = tree
        self.witness = witness_for(game(params), period, tree)
        self.label = f"{self.witness.kind}:{params}:{period}"

    @property
    def largest(self) -> Witness:
        return self.witness

    def run(self, workdir: Path, measure: Measure) -> Outcome:
        out = Outcome(self.label, predicted={"n": self.witness.n, "m": self.witness.m})
        period_args = (["--tree", "--min-period", str(self.period)] if self.tree
                       else ["--period", str(self.period)])
        instance = workdir / "instance.json"
        with stopwatch(out, measure):
            results = [
                call_cli(["witness", f"--params={self.params}", *period_args,
                          "--out", str(workdir), "--format", "json"]),
                call_cli(["simulate", f"--params={self.params}",
                          "--instance", str(instance)]),
                call_cli(["verify", f"--params={self.params}",
                          "--instance", str(instance)]),
            ]
        self._check(out, results, workdir)
        return out

    def _check(self, out: Outcome, results: list[tuple[int, str, str]],
               workdir: Path) -> None:
        for name, (code, stdout, stderr) in zip(("witness", "simulate", "verify"), results):
            out.digests[f"{name}.stdout"] = sha256_bytes(stdout.encode())
            if code != 0:
                out.problems.append(f"{name} exited {code}: {stderr.strip()}")
        if out.problems:
            return
        for artifact in ("instance.json", "certificate.json", "instance.dot"):
            out.digests[artifact] = sha256_file(workdir / artifact)
        summary = json.loads(results[0][1])
        w = self.witness
        if (summary["vertices"], summary["edges"]) != (w.n, w.m):
            out.problems.append(
                f"size formula predicted n={w.n} m={w.m}, built "
                f"n={summary['vertices']} m={summary['edges']}")
        expected = f"transient=0 period={w.period}"
        if results[1][1].strip() != expected:
            out.problems.append(f"simulate printed {results[1][1].strip()!r}, "
                                f"expected {expected!r}")
        if results[2][1].strip().splitlines()[-1:] != ["OK"]:
            out.problems.append("verify did not print OK")
        cert = json.loads((workdir / "certificate.json").read_text())
        ints = {key: cert[key] for key in w.ints if key != "p"}
        if ints != {key: v for key, v in w.ints.items() if key != "p"}:
            out.problems.append(f"certificate {ints} differs from predicted {w.ints}")
        elif w.recheck(game(self.params)) <= 0:
            out.problems.append("re-check gave a nonpositive minimum residual")


class Certify:
    """Library solve_* on one quadruple, then a re-check_* of the result."""

    largest = None  # no graph is built

    def __init__(self, scenario: str, period: int, params: str) -> None:
        self.scenario = scenario
        self.period = period
        self.params = params
        self.label = f"{scenario}:{params}:{period}"

    def run(self, workdir: Path, measure: Measure) -> Outcome:
        out = Outcome(self.label)
        params = game(self.params)
        clique = self.scenario in ("FC", "SH")
        try:
            with stopwatch(out, measure):
                if clique:
                    cert = evocycle.solve_fcsh(params, self.period,
                                               max_candidates=CERTIFY_BUDGET)
                    again = evocycle.check_fcsh(params, self.period,
                                                cert.q, cert.r, cert.s)
                else:
                    cert = evocycle.solve_hdpd(params, self.period,
                                               max_candidates=CERTIFY_BUDGET)
                    again = evocycle.check_hdpd(params, self.period,
                                                cert.o, cert.q, cert.r, cert.s)
        except evocycle.SearchBudgetError as exc:
            out.problems.append(f"candidate budget exhausted: {exc}")
            return out
        if clique:
            n, m = fcsh_size(self.period, cert.q, cert.r, cert.s)
        else:
            n, m = hdpd_size(self.period, cert.o, cert.q, cert.r, cert.s)
        out.predicted = {"n": n, "m": m}
        text = evocycle.cli.dumps(evocycle.cli.certificate_to_dict(cert))
        out.digests["certificate"] = sha256_bytes(text.encode())
        if again.min_residual <= 0 or again.residuals != cert.residuals:
            out.problems.append("re-check disagrees with the solver's certificate")
        return out


class Sweep:
    """One `evocycle sweep` invocation over a range of small pipelines."""

    def __init__(self, params: str, tree: bool, periods: range, jobs: int,
                 oracle: "Oracle") -> None:
        self.params = params
        self.tree = tree
        self.periods = periods
        self.jobs = jobs
        self.oracle = oracle
        self.label = (f"sweep{':tree' if tree else ''}:{params}:"
                      f"{periods.start}..{periods.stop - 1}:jobs={jobs}")
        self.rows = {p: witness_for(game(params), p, tree) for p in periods}

    @property
    def largest(self) -> Witness:
        return max(self.rows.values(), key=lambda w: w.m)

    def _argv(self, jobs: int) -> list[str]:
        spec = f"{self.periods.start}..{self.periods.stop - 1}"
        return (["sweep", f"--params={self.params}", "--periods", spec,
                 "--jobs", str(jobs), "--format", "json"]
                + (["--tree"] if self.tree else []))

    def run(self, workdir: Path, measure: Measure) -> Outcome:
        return self._run(self.jobs, self.label, measure)

    def replay(self, measure: Measure) -> Outcome:
        """The same rows in this process, one after another (--jobs 1)."""
        return self._run(1, f"{self.label}:replay", measure)

    def _run(self, jobs: int, label: str, measure: Measure) -> Outcome:
        out = Outcome(label)
        out.predicted = {"m_max": self.largest.m}
        with stopwatch(out, measure):
            code, stdout, stderr = call_cli(self._argv(jobs))
        out.digests["stdout"] = sha256_bytes(stdout.encode())
        if code != 0:
            out.problems.append(f"sweep exited {code}: {stderr.strip()}")
            return out
        rows = json.loads(stdout)
        if [row["requested"] for row in rows] != list(self.periods):
            out.problems.append("sweep rows do not match the requested periods")
            return out
        for row in rows:
            w = self.rows[row["requested"]]
            if not (row["ok"] and row["transient"] == 0
                    and row["minimal_period"] == w.period and row["violations"] == 0):
                out.problems.append(f"row {row} failed")
            if row["n"] != w.n:
                out.problems.append(f"row {row['requested']}: size formula "
                                    f"predicted n={w.n}, built n={row['n']}")
        out.problems.extend(filter(None, (self.oracle.check(self.params, w)
                                          for w in self.rows.values())))
        return out


class Oracle:
    """Replays small witnesses on tests/reference.py and re-checks them.

    Results are kept per (params, witness), so each distinct row is
    replayed once per run however many passes repeat it.
    """

    def __init__(self) -> None:
        path = ROOT / "tests" / "reference.py"
        if not path.is_file():
            raise FileNotFoundError(f"oracle {path} not found")
        spec = importlib.util.spec_from_file_location("evocycle_reference", path)
        self.ref = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.ref)
        self.done: dict[tuple, str] = {}
        self.replayed = 0

    def check(self, params_text: str, w: Witness) -> str:
        key = (params_text, w.kind, tuple(sorted(w.ints.items())))
        if key not in self.done:
            self.done[key] = self._check(game(params_text), w)
        return self.done[key]

    def _check(self, params: evocycle.GameParams, w: Witness) -> str:
        if w.recheck(params) <= 0:
            return f"{w.kind} {w.ints}: re-check gave a nonpositive minimum residual"
        if w.n > ORACLE_MAX_N:
            return ""
        self.replayed += 1
        instance = w.build()
        report = evocycle.trajectory(instance.graph, params, instance.x0,
                                     max_steps=4 * w.period + 16)
        edges = list(instance.graph.edges())
        pairs = self.ref.params_to_pairs(params)
        bits = list(instance.x0.bits)
        for t in range(w.period):
            if t > 0 and bits == list(instance.x0.bits):
                return f"{w.kind} {w.ints}: oracle returns to x0 at t={t}"
            if t >= len(report.states) or bits != list(report.states[t].bits):
                return f"{w.kind} {w.ints}: oracle and trajectory differ at t={t}"
            bits = self.ref.ref_step(w.n, edges, bits, pairs)
        if bits != list(instance.x0.bits):
            return f"{w.kind} {w.ints}: oracle does not return to x0 at t={w.period}"
        return ""


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def sweep_jobs() -> int:
    """One worker per available core, at most four."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def make_ops(workload: str, seed: int) -> list:
    """The workload's fixed op list for this seed, in run order.

    The order is the same for every seed: an op's speed depends on what
    the ops before it left on the heap.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "chain-witness":
        ops = [Pipeline(rescale(p, *draw_affine(rng)), period, tree=False)
               for p, period in CHAIN_CELLS]
    elif workload == "tree-deep":
        ops = [Pipeline(rescale(p, *draw_affine(rng)), period, tree=True)
               for p, period in TREE_CELLS]
    elif workload == "certify":
        ops = [Certify(tag, period, rescale(f"1,{b},{c},0", *draw_affine(rng)))
               for tag, period, b, c in CERTIFY_BASE]
    elif workload == "sweep-small":
        jobs, oracle = sweep_jobs(), Oracle()
        ops = [Sweep(rescale(p, *draw_affine(rng)), tree, periods, jobs, oracle)
               for p, tree, periods in SWEEP_CELLS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
