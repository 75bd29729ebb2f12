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
import gc
import json
import os
import sys
import warnings
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .analysis import (
    InvariantViolation,
    _Cells,
    _TreeWalk,
    check_local_lemmas,
    replay,
    verify_fcsh_dynamics,
    verify_hdpd_dynamics,
    verify_tree_invariants,
)
from .constructions import (
    ConstructedInstance,
    build_fcsh,  # the builders are not called here; perfbench/tracing.py wraps their names
    build_hdpd,
    build_tree,
    fcsh_layout,
    fcsh_quotient,
    hdpd_layout,
    hdpd_quotient,
    tree_layout,
    tree_quotient,
)
from .dynamics import Quotient, TrajectoryBudgetError, _cycle, trajectory
from .game import (GameParams, Scenario, StrategyVector, _require_at_least, as_rational,
                   classify_scenario)
from .serialize import (
    MIN_EDGE_BYTES,
    _declared_params,
    _holds,
    _require_regular,
    certificate_to_dict,
    counts_to_csv,
    dumps,
    graph_from_dict,
    graph_to_dot,
    instance_from_dict,
    instance_to_dict,  # not called here; perfbench/tracing.py wraps this name
    read_json,
    report_to_dict,
    write_dot,
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

# A sweep runs one witness pipeline per period; longer period lists are
# refused before any list or task is built.
MAX_SWEEP_ROWS = 10_000
# Witnesses with more edges are refused before any graph is built.  A built
# graph takes about 120 bytes per edge on clique chains and 430 on trees
# (perfbench's traced builds), so SH p=32 (53M edges) ran out of memory;
# SH p=16 (3.7M) and every benchmark op fit below the limit.
MAX_EDGES = 10_000_000
# Trees get that limit scaled by 120/430, rounded down, so that no tree is
# built with more memory than the largest clique chain allowed.
MAX_TREE_EDGES = 2_500_000


class SizeBudgetError(RuntimeError):
    """The witness for the request would have more than MAX_EDGES edges
    (MAX_TREE_EDGES for a tree)."""


@dataclass(frozen=True)
class _Family:
    """Everything that differs between the witness families.  Each callable
    looks its function up in this module's globals when called, so that a
    wrapper patched over the name (as perfbench does) sees every call."""

    kind: str
    params: tuple[str, ...]  # the structural integers, in the builder's order
    solve: Callable[[GameParams, int, int], Certificate]  # params, period, budget
    check: Callable[[GameParams, Mapping[str, int]], Certificate]
    # instance, params, X(0)..X(P) (or None), its cells with their states (or None)
    verify: Callable[..., list[InvariantViolation]]
    invariants: tuple[str, ...]  # listed by verify, so exit 0 states what was checked
    period: Callable[[Mapping[str, int]], int]  # from the structural integers
    vertices: Callable[[Mapping[str, int]], int]  # n, from the structural integers
    edges: Callable[[Mapping[str, int]], int]  # m, from the structural integers
    roles: Mapping[str, int]  # the number of coordinates of each role kind
    # From the structural integers alone: the instance with its closed-form
    # Layout for a graph, and the equitable partition refining x0 that it
    # replays on, as a Quotient.
    layout: Callable[[Mapping[str, int]], ConstructedInstance]
    quotient: Callable[[Mapping[str, int]], Quotient]


def _tree_vertices(r: int, q: int) -> int:
    """1 + (1 + r + ... + r^(q-2)) + r(r^(q-2) - r^2), with the sum in closed form."""
    levels = q - 1 if r == 1 else (r ** (q - 1) - 1) // (r - 1)
    return 1 + levels + r ** (q - 1) - r ** 3


_FCSH = _Family(
    kind="fcsh",
    params=("p", "q", "r", "s"),
    solve=lambda params, p, budget: solve_fcsh(params, p, max_candidates=budget),
    check=lambda params, sp: check_fcsh(params, sp["p"], sp["q"], sp["r"], sp["s"]),
    verify=lambda inst, params, states, cells: verify_fcsh_dynamics(inst, params, states, cells),
    invariants=("fcsh:frozen", "fcsh:chain", "fcsh:reset"),
    period=lambda sp: sp["p"],
    vertices=lambda sp: (2 * sp["p"] - 1) * sp["q"] + 1 + sp["q"] * sp["r"] * (2 * sp["s"] + 2),
    edges=lambda sp: (
        (2 * sp["p"] - 1) * (comb(sp["q"], 2) + sp["q"])
        + sp["q"] * sp["r"] * (sp["s"] ** 2 + sp["s"] + 2 * sp["p"])
    ),
    roles={"K": 2, "g": 0, "H": 2, "I": 3, "J": 3, "F": 2},
    layout=lambda sp: fcsh_layout(sp["p"], sp["q"], sp["r"], sp["s"]),
    quotient=lambda sp: fcsh_quotient(sp["p"], sp["q"], sp["r"], sp["s"]),
)
_HDPD = _Family(
    kind="hdpd",
    params=("p", "o", "q", "r", "s"),
    solve=lambda params, p, budget: solve_hdpd(params, p, max_candidates=budget),
    check=lambda params, sp: check_hdpd(params, sp["p"], sp["o"], sp["q"], sp["r"], sp["s"]),
    verify=lambda inst, params, states, cells: verify_hdpd_dynamics(inst, params, states, cells),
    invariants=("hdpd:chain", "hdpd:frozen", "hdpd:outer", "hdpd:reset"),
    period=lambda sp: sp["p"],
    vertices=lambda sp: (sp["p"] + 1) * sp["o"] + sp["q"] + sp["r"] + sp["s"] + 3,
    edges=lambda sp: (
        sp["p"] * comb(sp["o"], 2) + (2 * sp["p"] - 1) * sp["o"]
        + sp["q"] + sp["r"] + 2 * sp["s"] + 1
    ),
    roles={"K": 2, "g_R": 0, "g_D": 0, "g_C": 0, "H": 1, "I": 1, "J": 1},
    layout=lambda sp: hdpd_layout(sp["p"], sp["o"], sp["q"], sp["r"], sp["s"]),
    quotient=lambda sp: hdpd_quotient(sp["p"], sp["o"], sp["q"], sp["r"], sp["s"]),
)
_TREE = _Family(
    kind="tree",
    params=("r", "q"),
    solve=lambda params, bound, budget: solve_tree(params, bound, max_candidates=budget),
    check=lambda params, sp: check_tree(params, sp["r"], sp["q"]),
    # Both verifiers' per-vertex runs share one walk of the tree's shape.
    verify=lambda inst, params, states, cells: (
        verify_tree_invariants(inst, params, states, cells, walk := _TreeWalk(inst))
        + check_local_lemmas(inst, params, states, cells, walk)),
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
    edges=lambda sp: _tree_vertices(sp["r"], sp["q"]) - 1,
    roles={"root": 0, "special": 1, "ordinary": 2},
    layout=lambda sp: tree_layout(sp["r"], sp["q"]),
    quotient=lambda sp: tree_quotient(sp["r"], sp["q"]),
)
_FAMILIES = {family.kind: family for family in (_FCSH, _HDPD, _TREE)}


def _family_of(instance: ConstructedInstance) -> _Family:
    """The family of a loaded instance, whose predicted period and vertex
    count must fit its structural params, so that a small file cannot ask
    for a long replay."""
    family = _FAMILIES.get(instance.kind)
    if family is None:
        raise ValueError(f"unknown instance kind {instance.kind!r}")
    sp = instance.structural_params
    missing = [key for key in family.params if key not in sp]
    if missing:
        raise ValueError(f"missing structural param {missing[0]!r}")
    period = family.period(sp)
    if instance.predicted_period != period:
        raise ValueError(f"predicted_period {instance.predicted_period} does not match "
                         f"the {family.kind} period {period} of its structural params")
    n = instance.graph.n
    # Every structural integer of a witness lies in 1..n, and a tree of
    # height q has at least 2^(q-2) vertices; checking both first keeps the
    # tree's power r^(q-1) small enough to compute.
    if (
        not all(0 < value <= n for value in sp.values())
        or family is _TREE and sp["q"] - 2 >= n.bit_length()
        or family.vertices(sp) != n
    ):
        raise ValueError(f"the {family.kind} structural params {dict(sp)} do not "
                         f"describe the {n}-vertex graph of the instance")
    # The verifiers read role coordinates by position.
    for v, role in enumerate(instance.roles):
        size = family.roles.get(role.kind)
        if size != len(role.index):
            raise ValueError(f"vertex {v} has role {[role.kind, *role.index]}: " + (
                f"no {family.kind} role has kind {role.kind!r}" if size is None
                else f"a {family.kind} role {role.kind!r} has {size} coordinates"))
    return family


def _solve(
    params: GameParams, period: int, tree: bool, max_candidates: int
) -> tuple[_Family, Certificate, dict[str, int]]:
    """Shared by witness and sweep; with tree, period is a lower bound.
    Returns the family, the certificate and its structural integers, once
    _oversized finds the witness small enough."""
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
    sp = {key: period if key == "p" else getattr(cert, key) for key in family.params}
    oversized = _oversized(family, sp)
    if oversized:
        raise SizeBudgetError(f"size budget: {oversized}")
    return family, cert, sp


def _oversized(family: _Family, sp: Mapping[str, int]) -> str:
    """Why the witness of sp is too large to lay out, or "" when it has
    at most MAX_EDGES edges (MAX_TREE_EDGES for a tree).  A tree has an
    edge into each of its r^(q-2) >= 2^(q-2) vertices on level q-1, so
    q is bounded before r^(q-1) is computed."""
    if family is _TREE and sp["q"] - 2 >= MAX_EDGES.bit_length():
        return (f"a tree with q={sp['q']} has at least 2^{sp['q'] - 2} edges, "
                f"more than MAX_EDGES={MAX_EDGES}")
    edges = family.edges(sp)
    if edges > MAX_EDGES:
        return f"the {family.kind} witness {sp} has {edges} edges, more than MAX_EDGES={MAX_EDGES}"
    if family is _TREE and edges > MAX_TREE_EDGES:
        return (f"the tree witness {sp} has {edges} edges, "
                f"more than MAX_TREE_EDGES={MAX_TREE_EDGES}")
    return ""


def parse_params(text: str) -> GameParams:
    """Parse "a,b,c,d" with each entry an exact rational literal."""
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"expected four comma-separated payoffs a,b,c,d, got {text!r}")
    return GameParams(*(as_rational(part) for part in parts))


def parse_periods(text: str) -> list[int]:
    """Parse a period list: "4", "2,3,5", or an inclusive range "2..6",
    of at most MAX_SWEEP_ROWS periods."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty period range {text!r}")
        periods: Sequence[int] = range(lo, hi + 1)  # lazy until the cap is checked
        count = hi - lo + 1
    else:
        periods = sorted({int(part) for part in text.split(",") if part.strip()})
        if not periods:
            raise ValueError("no periods given")
        count = len(periods)
    if count > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep row cap: {text!r} asks for {count} periods, "
                         f"at most {MAX_SWEEP_ROWS} are allowed")
    return list(periods)


def _canonical(
    path: str, families: Iterable[_Family] = _FAMILIES.values()
) -> Optional[tuple[_Family, ConstructedInstance]]:
    """The family and the closed-form instance (its layout) of a canonical
    file of one of the families: one that holds, byte for byte, what
    witness --out writes for the structural params it declares in its
    tail.  Those must be exactly one family's, integers that its builder
    accepts, for a witness that _oversized lets through and whose edges
    alone would fill no more than the file.  None for any other file."""
    try:
        with open(path, "rb") as handle:
            sp = _declared_params(handle) or {}
            family = next((family for family in families
                           if sp.keys() == set(family.params)), None)
            if (family is None or min(sp.values()) < 1 or _oversized(family, sp)
                    or family.edges(sp) * MIN_EDGE_BYTES > handle.seek(0, 2)):
                return None
            instance = family.layout(sp)  # ValueError where the builder refuses sp
            return (family, instance) if _holds(handle, instance) else None
    except (OSError, ValueError):
        return None


def _load_instance(
    path: str, families: Iterable[_Family] = _FAMILIES.values()
) -> tuple[_Family, ConstructedInstance, Optional[Quotient]]:
    """A stored instance, its family, which every command that reads an
    instance file checks first, and the Quotient to replay it on.  A
    canonical file of one of the families comes with no Graph: its
    instance is the closed-form one, replayed on the family's closed-form
    Quotient.  Any other file, one re-dumped or damaged among them, is
    parsed and checked in full, and replayed on the whole graph (None)."""
    _require_regular(path)
    canonical = _canonical(path, families)
    if canonical is not None:
        family, instance = canonical
        return family, instance, family.quotient(instance.structural_params)
    instance = instance_from_dict(read_json(path))
    return _family_of(instance), instance, None


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
    family, cert, sp = _solve(params, period, args.tree, args.max_candidates)

    # The artifacts are written from the closed form, and so is the summary.
    if args.out is not None:
        instance = family.layout(sp)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "instance.json", instance)
        write_json(out_dir / "certificate.json", certificate_to_dict(cert))
        write_dot(out_dir / "instance.dot", instance.graph, instance.x0)

    summary = {
        "kind": family.kind,
        "structural_params": sp,
        "vertices": family.vertices(sp),
        "edges": family.edges(sp),
        "predicted_period": family.period(sp),
    }
    if args.format == "json":
        summary["certificate"] = certificate_to_dict(cert)
        sys.stdout.write(dumps(summary))
    else:
        fields = " ".join(f"{k}={v}" for k, v in sp.items())
        print(f"kind={family.kind} {fields}")
        print(f"vertices={summary['vertices']} edges={summary['edges']}")
        print(f"predicted_period={summary['predicted_period']}")
        if args.out is not None:
            print(f"written: {args.out}/instance.json certificate.json instance.dot")
    return EXIT_OK


# simulate recognises canonical clique-chain files only: it parses a tree
# file, canonical or not, and steps it on the whole graph.  perfbench's
# self-test (test_span_self_times_sum_to_each_op_wall_time) reads the
# Graph build, the parse and the step calls of its tree pipeline from tree
# simulate alone; once it reads spans of the closed forms, pass every family.
_SIMULATE_CANONICAL = (_FCSH, _HDPD)


def cmd_simulate(args: argparse.Namespace) -> int:
    params = parse_params(args.params)
    if (args.instance is None) == (args.graph is None):
        raise ValueError("give exactly one of --instance or --graph")
    if args.instance is not None:
        _, instance, cells = _load_instance(args.instance, _SIMULATE_CANONICAL)
        graph, x0 = instance.graph, instance.x0
    else:
        if args.x0 is None:
            raise ValueError("--graph requires --x0 (e.g. CCD)")
        graph = graph_from_dict(read_json(args.graph))
        x0, cells = StrategyVector.from_string(args.x0), None
    report = trajectory(graph, params, x0, max_steps=args.max_steps, cells=cells)

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
    states: Optional[Sequence[StrategyVector]],
    cells: Optional[_Cells] = None,
) -> tuple[list[str], list[str]]:
    """Returns (violation lines, certificate problem lines) given X(0) .. X(P),
    or its states on cells alone."""
    cert_problems: list[str] = []
    try:
        family.check(params, instance.structural_params)
    except CertificateFailure as exc:
        cert_problems = [f"certificate:{name}" for name in exc.violated]
    lines = [
        f"violation t={v.time} {v.label} vertex={v.vertex} "
        f"expected={v.expected} observed={v.observed}"
        + (f" ({v.detail})" if v.detail else "")
        for v in family.verify(instance, params, states, cells)
    ]
    return lines, cert_problems


def cmd_verify(args: argparse.Namespace) -> int:
    params = parse_params(args.params)
    family, instance, quotient = _load_instance(args.instance)
    if quotient is None:  # not canonical: the whole graph
        states, cells = replay(instance, params), None
    else:  # X(0) .. X(P) on the cells alone, lifted only if they find something
        steps = zip(range(instance.predicted_period + 1), quotient.states(params, instance.x0))
        states, cells = None, _Cells.of(quotient, [bits for _, bits in steps])
    lines, cert_problems = _verify_instance(family, instance, params, states, cells)
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
    """One sweep entry: solve, quotient, cell replay, cell verify.  The
    witness is laid out with no Graph, as witness --out writes it, its
    transient and period are found on the bits of its closed-form cells,
    and X(0) .. X(P) are verified on those bits alone.  Module level so a
    process pool can pickle it."""
    params, period, tree, max_candidates = task
    family, _, sp = _solve(params, period, tree, max_candidates)
    instance = family.layout(sp)
    quotient = family.quotient(sp)
    budget = max(64, 4 * instance.predicted_period + 16)
    seen, transient = _cycle(quotient.states(params, instance.x0), budget, quotient.lift)
    minimal = len(seen) - transient
    # Times past the revisit fold into the cycle, as state_at folds them,
    # so these are exactly X(0) .. X(P) without stepping again.
    states = [seen[t if t < transient else transient + (t - transient) % minimal]
              for t in range(instance.predicted_period + 1)]
    lines, cert_problems = _verify_instance(family, instance, params, None,
                                            _Cells.of(quotient, states))
    violations = len(lines) + len(cert_problems)
    return {"requested": period, "kind": instance.kind, **instance.structural_params,
            "n": family.vertices(sp), "transient": transient, "minimal_period": minimal,
            "violations": violations,
            "ok": transient == 0 and minimal == instance.predicted_period and violations == 0}


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
    _require_at_least(1, jobs=args.jobs, max_candidates=args.max_candidates)
    tasks = [(params, p, args.tree, args.max_candidates) for p in periods]
    # With fork a pool starts all its workers at once, so never ask for
    # more than there are tasks or cores.
    jobs = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        # Imported here: the pool pulls in multiprocessing, about a tenth
        # of a cold `import evocycle.cli`, which no other command needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(task) for task in tasks]
    text = dumps(rows) if args.format == "json" else _sweep_csv(rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"written: {args.out}")
    return EXIT_OK if all(row["ok"] for row in rows) else EXIT_VIOLATIONS


def cmd_export_dot(args: argparse.Namespace) -> int:
    _, instance, _ = _load_instance(args.instance)
    if args.out is None:
        sys.stdout.write(graph_to_dot(instance.graph, instance.x0))
    else:
        write_dot(args.out, instance.graph, instance.x0)
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
    # Witness data holds no reference cycles (graphs, roles, states and
    # reports are trees of tuples, lists and frozen dataclasses), so
    # reference counting frees it all; the cyclic collector would only
    # rescan the objects a command builds.  Library calls keep the
    # caller's policy.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with warnings.catch_warnings():  # one line each, with no source path or line
            warnings.showwarning = lambda message, *_: print("warning:", message, file=sys.stderr)
            return args.func(args)
    except (SearchBudgetError, SizeBudgetError, TrajectoryBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ScenarioError, CertificateFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
