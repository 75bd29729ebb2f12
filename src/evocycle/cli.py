"""Command line front end for witness construction, simulation and checking.

Subcommands
-----------
classify    scenario of a payoff quadruple
witness     solve integer parameters, build the instance, write artifacts
simulate    run the dynamics from an instance file or a bare graph + state
verify      re-check certificate inequalities and trajectory invariants
sweep       witness pipeline over a whole range of periods, optionally parallel
export-dot  DOT snapshot of a stored instance

Exit codes: 0 success, 1 verification failure, 2 bad or non-admissible
input, 3 search/step budget exhausted.  Payoffs are given as exact
rationals: "1,-0.45,1.35,0" reads 0.45 as 9/20, never as a binary float.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from .analysis import (
    InvariantViolation,
    check_local_lemmas,
    replay,
    verify_fcsh_dynamics,
    verify_hdpd_dynamics,
    verify_tree_invariants,
)
from .constructions import (
    ConstructedInstance,
    build_fcsh,
    build_hdpd,
    build_tree,
)
from .dynamics import TrajectoryBudgetError, trajectory
from .game import GameParams, Scenario, StrategyVector, as_rational, classify_scenario
from .serialize import (
    certificate_to_dict,
    counts_to_csv,
    dumps,
    graph_from_dict,
    graph_to_dot,
    instance_from_dict,
    instance_to_dict,
    read_json,
    report_to_dict,
    write_json,
)
from .solver import (
    DEFAULT_MAX_CANDIDATES,
    Certificate,
    CertificateFailure,
    ScenarioError,
    SearchBudgetError,
    check_fcsh,
    check_hdpd,
    check_tree,
    solve_fcsh,
    solve_hdpd,
    solve_tree,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class _Family:
    """Everything that differs between the witness families.  Each callable
    looks its function up in this module's globals when called, so that a
    wrapper patched over the name (as perfbench does) sees every call."""

    kind: str
    solve: Callable[[GameParams, int, int], Certificate]  # params, period, budget
    build: Callable[[int, Any], ConstructedInstance]  # period, certificate
    check: Callable[[GameParams, Mapping[str, int]], Certificate]
    verify: Callable[..., list[InvariantViolation]]  # instance, params, X(0)..X(P)
    invariants: tuple[str, ...]  # listed by verify, so exit 0 states what was checked
    period: Callable[[Mapping[str, int]], int]  # from the structural integers
    vertices: Callable[[Mapping[str, int]], int]  # n, from the structural integers


def _tree_vertices(r: int, q: int) -> int:
    """1 + (1 + r + ... + r^(q-2)) + r(r^(q-2) - r^2), with the sum in closed form."""
    levels = q - 1 if r == 1 else (r ** (q - 1) - 1) // (r - 1)
    return 1 + levels + r ** (q - 1) - r ** 3


_FCSH = _Family(
    kind="fcsh",
    solve=lambda params, p, budget: solve_fcsh(params, p, max_candidates=budget),
    build=lambda p, cert: build_fcsh(p, cert.q, cert.r, cert.s),
    check=lambda params, sp: check_fcsh(params, sp["p"], sp["q"], sp["r"], sp["s"]),
    verify=lambda inst, params, states: verify_fcsh_dynamics(inst, params, states),
    invariants=("fcsh:frozen", "fcsh:chain", "fcsh:reset"),
    period=lambda sp: sp["p"],
    vertices=lambda sp: (2 * sp["p"] - 1) * sp["q"] + 1 + sp["q"] * sp["r"] * (2 * sp["s"] + 2),
)
_HDPD = _Family(
    kind="hdpd",
    solve=lambda params, p, budget: solve_hdpd(params, p, max_candidates=budget),
    build=lambda p, cert: build_hdpd(p, cert.o, cert.q, cert.r, cert.s),
    check=lambda params, sp: check_hdpd(params, sp["p"], sp["o"], sp["q"], sp["r"], sp["s"]),
    verify=lambda inst, params, states: verify_hdpd_dynamics(inst, params, states),
    invariants=("hdpd:chain", "hdpd:frozen", "hdpd:outer", "hdpd:reset"),
    period=lambda sp: sp["p"],
    vertices=lambda sp: (sp["p"] + 1) * sp["o"] + sp["q"] + sp["r"] + sp["s"] + 3,
)
_TREE = _Family(
    kind="tree",
    solve=lambda params, bound, budget: solve_tree(params, bound, max_candidates=budget),
    build=lambda _bound, cert: build_tree(cert.r, cert.q),
    check=lambda params, sp: check_tree(params, sp["r"], sp["q"]),
    verify=lambda inst, params, states: (
        verify_tree_invariants(inst, params, states)
        + check_local_lemmas(inst, params, states)
    ),
    invariants=(
        "tree:x0",
        "tree:a",
        "tree:b",
        "tree:c",
        "tree:d",
        "tree:e",
        "tree:f",
        "tree:g",
        "tree:periodic",
        "tree:minimal-period",
        "lemma:advance",
        "lemma:retreat",
        "lemma:siblings",
        "lemma:descend",
    ),
    period=lambda sp: 2 * (sp["q"] - 3),
    vertices=lambda sp: _tree_vertices(sp["r"], sp["q"]),
)
_FAMILIES = {family.kind: family for family in (_FCSH, _HDPD, _TREE)}


def _family_of(instance: ConstructedInstance) -> _Family:
    """The family of a loaded instance, whose predicted period and vertex
    count must fit its structural params, so that a small file cannot ask
    for a long replay."""
    family = _FAMILIES.get(instance.kind)
    if family is None:
        raise ValueError(f"unknown instance kind {instance.kind!r}")
    period = family.period(instance.structural_params)
    if instance.predicted_period != period:
        raise ValueError(f"predicted_period {instance.predicted_period} does not match "
                         f"the {family.kind} period {period} of its structural params")
    n = instance.graph.n
    sp = instance.structural_params
    # Every structural integer of a witness lies in 1..n; checking that
    # first also keeps the tree's power r^(q-1) small enough to compute.
    if not all(0 < value <= n for value in sp.values()) or family.vertices(sp) != n:
        raise ValueError(f"the {family.kind} structural params {dict(sp)} do not "
                         f"describe the {n}-vertex graph of the instance")
    return family


def _solve_and_build(
    params: GameParams, period: int, tree: bool, max_candidates: int
) -> tuple[_Family, Certificate, ConstructedInstance]:
    """Shared by witness and sweep; with tree, period is a lower bound."""
    if tree:
        family = _TREE
    elif period == 1:
        raise ValueError(
            "period 1 needs no construction: both uniform states are fixed "
            "points of the dynamics on every graph"
        )
    elif classify_scenario(params) in (Scenario.FC, Scenario.SH):
        family = _FCSH
    else:  # HD / PD; non-admissible quadruples fail the solver's scenario gate
        family = _HDPD
    cert = family.solve(params, period, max_candidates)
    return family, cert, family.build(period, cert)


def parse_params(text: str) -> GameParams:
    """Parse "a,b,c,d" with each entry an exact rational literal."""
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"expected four comma-separated payoffs a,b,c,d, got {text!r}")
    return GameParams(*(as_rational(part) for part in parts))


def parse_periods(text: str) -> list[int]:
    """Parse a period list: "4", "2,3,5", or an inclusive range "2..6"."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty period range {text!r}")
        return list(range(lo, hi + 1))
    values = sorted({int(part) for part in text.split(",") if part.strip()})
    if not values:
        raise ValueError("no periods given")
    return values


def _load_instance(path: str) -> ConstructedInstance:
    return instance_from_dict(read_json(path))


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_classify(args: argparse.Namespace) -> int:
    params = parse_params(args.params)
    scenario = classify_scenario(params)
    if args.format == "json":
        sys.stdout.write(dumps({
            "scenario": scenario.value,
            "admissible": params.admissible,
            "generic": params.generic,
        }))
    else:
        print(scenario.value)
        print(f"admissible={str(params.admissible).lower()} "
              f"generic={str(params.generic).lower()}")
    return EXIT_OK if params.admissible else EXIT_BAD_INPUT


def cmd_witness(args: argparse.Namespace) -> int:
    params = parse_params(args.params)
    if args.tree and args.period is not None:
        raise ValueError("--tree takes --min-period, not --period")
    if args.tree and args.min_period is None:
        raise ValueError("--tree requires --min-period")
    if not args.tree and args.period is None:
        raise ValueError("--period is required (or use --tree --min-period)")
    period = args.min_period if args.tree else args.period
    _, cert, instance = _solve_and_build(params, period, args.tree, args.max_candidates)

    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "instance.json", instance_to_dict(instance))
        write_json(out_dir / "certificate.json", certificate_to_dict(cert))
        (out_dir / "instance.dot").write_text(
            graph_to_dot(instance.graph, instance.x0), encoding="utf-8"
        )

    summary = {
        "kind": instance.kind,
        "structural_params": dict(instance.structural_params),
        "vertices": instance.graph.n,
        "edges": instance.graph.edge_count,
        "predicted_period": instance.predicted_period,
    }
    if args.format == "json":
        summary["certificate"] = certificate_to_dict(cert)
        sys.stdout.write(dumps(summary))
    else:
        fields = " ".join(f"{k}={v}" for k, v in instance.structural_params.items())
        print(f"kind={instance.kind} {fields}")
        print(f"vertices={instance.graph.n} edges={instance.graph.edge_count}")
        print(f"predicted_period={instance.predicted_period}")
        if args.out is not None:
            print(f"written: {args.out}/instance.json certificate.json instance.dot")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    params = parse_params(args.params)
    if (args.instance is None) == (args.graph is None):
        raise ValueError("give exactly one of --instance or --graph")
    if args.instance is not None:
        instance = _load_instance(args.instance)
        graph, x0 = instance.graph, instance.x0
    else:
        if args.x0 is None:
            raise ValueError("--graph requires --x0 (e.g. CCD)")
        graph = graph_from_dict(read_json(args.graph))
        x0 = StrategyVector.from_string(args.x0)
    report = trajectory(graph, params, x0, max_steps=args.max_steps)

    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "trajectory.json", report_to_dict(report))
        (out_dir / "cooperators.csv").write_text(
            counts_to_csv(enumerate(report.cooperator_counts)), encoding="utf-8"
        )
    if args.format == "json":
        sys.stdout.write(dumps(report_to_dict(report)))
    elif args.format == "csv":
        sys.stdout.write(counts_to_csv(enumerate(report.cooperator_counts)))
    else:
        print(f"transient={report.transient} period={report.minimal_period}")
    return EXIT_OK


def _verify_instance(
    family: _Family,
    instance: ConstructedInstance,
    params: GameParams,
    states: Sequence[StrategyVector],
) -> tuple[list[str], list[str]]:
    """Returns (violation lines, certificate problem lines) given X(0) .. X(P)."""
    cert_problems: list[str] = []
    try:
        family.check(params, instance.structural_params)
    except CertificateFailure as exc:
        cert_problems = [f"certificate:{name}" for name in exc.violated]
    lines = [
        f"violation t={v.time} {v.label} vertex={v.vertex} "
        f"expected={v.expected} observed={v.observed}"
        + (f" ({v.detail})" if v.detail else "")
        for v in family.verify(instance, params, states)
    ]
    return lines, cert_problems


def cmd_verify(args: argparse.Namespace) -> int:
    params = parse_params(args.params)
    instance = _load_instance(args.instance)
    family = _family_of(instance)
    lines, cert_problems = _verify_instance(family, instance, params, replay(instance, params))
    ok = not lines and not cert_problems
    families = family.invariants + ("certificate",)
    if args.format == "json":
        sys.stdout.write(dumps({
            "kind": instance.kind,
            "families_checked": list(families),
            "certificate_violations": cert_problems,
            "violations": lines,
            "ok": ok,
        }))
    else:
        print(f"kind={instance.kind}")
        print("families checked: " + " ".join(families))
        for line in cert_problems:
            print(f"violated inequality {line}")
        for line in lines:
            print(line)
        print("OK" if ok else f"FAIL ({len(lines) + len(cert_problems)} problems)")
    return EXIT_OK if ok else EXIT_VIOLATIONS


def _sweep_row(task: tuple[GameParams, int, bool, int]) -> dict[str, Any]:
    """One sweep entry: solve, build, simulate, verify.  Module level so a
    process pool can pickle it."""
    params, period, tree, max_candidates = task
    family, _, instance = _solve_and_build(params, period, tree, max_candidates)
    budget = max(64, 4 * instance.predicted_period + 16)
    report = trajectory(instance.graph, params, instance.x0, max_steps=budget)
    # state_at folds times past the report into its cycle, so these are
    # exactly X(0) .. X(P) without simulating again.
    states = [report.state_at(t) for t in range(instance.predicted_period + 1)]
    lines, cert_problems = _verify_instance(family, instance, params, states)
    row: dict[str, Any] = {"requested": period, "kind": instance.kind}
    row.update(instance.structural_params)
    row["n"] = instance.graph.n
    row["transient"] = report.transient
    row["minimal_period"] = report.minimal_period
    row["violations"] = len(lines) + len(cert_problems)
    row["ok"] = (
        report.transient == 0
        and report.minimal_period == instance.predicted_period
        and row["violations"] == 0
    )
    return row


_SWEEP_COLUMNS = ("requested", "kind", "n", "p", "o", "q", "r", "s",
                  "transient", "minimal_period", "violations", "ok")


def _sweep_csv(rows: list[dict[str, Any]]) -> str:
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row.get(col, "")) for col in _SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    params = parse_params(args.params)
    periods = parse_periods(args.periods)
    tasks = [(params, p, args.tree, args.max_candidates) for p in periods]
    # With fork a pool starts all its workers at once, so never ask for
    # more than there are tasks or cores.
    jobs = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(task) for task in tasks]
    text = dumps(rows) if args.format == "json" else _sweep_csv(rows)
    _emit(text, args.out)
    if args.out is not None:
        print(f"written: {args.out}")
    return EXIT_OK if all(row["ok"] for row in rows) else EXIT_VIOLATIONS


def cmd_export_dot(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    _emit(graph_to_dot(instance.graph, instance.x0), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evocycle",
        description="Deterministic imitation dynamics on graphs: build, "
        "simulate and verify periodic witness instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--params", required=True, metavar="a,b,c,d",
            help="payoff quadruple as exact rationals, e.g. 1,0.45,1.24,0",
        )

    p = sub.add_parser("classify", help="scenario of a payoff quadruple")
    add_params(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("witness", help="solve parameters and build an instance")
    add_params(p)
    p.add_argument("--period", type=int, help="exact minimal period (clique chains)")
    p.add_argument("--tree", action="store_true",
                   help="build the acyclic witness instead (needs --min-period)")
    p.add_argument("--min-period", type=int,
                   help="lower bound for the tree's minimal period 2(q-3)")
    p.add_argument("--max-candidates", type=int, default=DEFAULT_MAX_CANDIDATES)
    p.add_argument("--out", metavar="DIR",
                   help="write instance.json, certificate.json, instance.dot")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("simulate", help="run the dynamics, report transient/period")
    add_params(p)
    p.add_argument("--instance", metavar="FILE", help="instance JSON from witness")
    p.add_argument("--graph", metavar="FILE", help="bare graph JSON {n, edges}")
    p.add_argument("--x0", metavar="STATE", help="initial state string, e.g. CCD")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--out", metavar="DIR",
                   help="write trajectory.json and cooperators.csv")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="re-check certificate and trajectory invariants")
    add_params(p)
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="witness pipeline over a range of periods")
    add_params(p)
    p.add_argument("--periods", required=True, metavar="SPEC",
                   help='e.g. "2..6" (inclusive) or "2,4,8"')
    p.add_argument("--tree", action="store_true",
                   help="sweep tree witnesses; SPEC gives minimal-period bounds")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--max-candidates", type=int, default=DEFAULT_MAX_CANDIDATES)
    p.add_argument("--out", metavar="FILE", help="write table here instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-dot", help="DOT snapshot of a stored instance")
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SearchBudgetError, TrajectoryBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ScenarioError, CertificateFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
