"""Benchmark for evocycle: witness pipelines, certificates and sweeps.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload chain-witness --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run imports evocycle from ./src, makes the workload's inputs from the
seed, and repeats the workload's fixed list of ops in passes until the
next pass would overrun --seconds (one pass at least).  Every op's output
is checked; any failed op makes the run exit 1.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
the metrics are the end-to-end figures with --trace 0 and the per-layer
figures with --trace 1.  Lines before it repeat every figure by name, with
its unit.  `--workload all` runs each workload untraced and then traced,
each in a fresh process, and prints all their figures.

Results (run facts, every op with the SHA-256 of its outputs, and the
spans of a traced run) go to .perfbench_out/ at the root of the checkout.
See perfbench/README.md for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("chain-witness", "tree-deep", "certify", "sweep-small")

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "solver.s": "s", "solver.calls": "count", "solver.budget_exhausted": "count",
    "solver.check_s": "s",
    "constructions.s": "s", "constructions.vertices": "count",
    "constructions.edges": "count", "constructions.peak_bytes_per_edge": "B",
    "dynamics.s": "s", "dynamics.step_calls": "count",
    "dynamics.ns_per_edge_step": "ns", "dynamics.changed_frac": "ratio",
    "analysis.s": "s", "analysis.violations": "count",
    "serialize.write_s": "s", "serialize.read_s": "s", "serialize.bytes": "B",
    "cli.self_s": "s", "cli.parallel_eff": "ratio",
    "trace.overhead_s": "s",
}


def use_source_tree() -> None:
    """Import evocycle from this checkout's src/, never from site-packages."""
    if not (SRC / "evocycle" / "__init__.py").is_file():
        raise SystemExit(f"error: no evocycle source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import evocycle

    if Path(evocycle.__file__).resolve().parent != SRC / "evocycle":
        raise SystemExit(f"error: evocycle imported from {evocycle.__file__}, not {SRC}")


def run_facts(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "evocycle").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def setup_once(workload: str, seed: int) -> tuple[float, list, list]:
    """Cold import of the package in a fresh interpreter, then the inputs.

    Returns (seconds, ops to run, ops skipped by the size guard).
    """
    import workloads

    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import evocycle.cli"], check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    ops = workloads.make_ops(workload, seed)
    kept = [op for op in ops if predicted_edges(op) <= workloads.EDGE_BUDGET]
    skipped = [op for op in ops if predicted_edges(op) > workloads.EDGE_BUDGET]
    return time.perf_counter() - start, kept, skipped


def predicted_edges(op) -> int:
    return op.largest.m if op.largest else 0


def tail(times: list[float]) -> tuple[int, float, int] | None:
    """Highest whole percentile with at least ten ops above it.

    Returns (percentile, value, ops above) by the nearest-rank rule, or
    None when there are too few ops.
    """
    ordered = sorted(times)
    for pct in range(99, 49, -1):
        index = -(-pct * len(ordered) // 100) - 1
        above = sum(t > ordered[index] for t in ordered)
        if index >= 0 and above >= 10:
            return pct, ordered[index], above
    return None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


class Run:
    """One workload, one seed: passes over the op list and their checks."""

    def __init__(self, args: argparse.Namespace, ops: list, workdir: Path) -> None:
        self.args = args
        self.ops = ops
        self.workdir = workdir
        self.records: list[dict] = []
        self.failed = 0
        self.first_digests: dict[str, dict] = {}

    def one_pass(self, measure, replay: bool = False) -> float:
        """Run every op once; returns the summed op time."""
        total = 0.0
        for op in self.ops:
            opdir = self.workdir / "op"
            shutil.rmtree(opdir, ignore_errors=True)
            opdir.mkdir(parents=True)
            # Start every op from a collected heap, so that no op pays for
            # the garbage of the one before it.
            gc.collect()
            outcome = op.replay(measure) if replay else op.run(opdir, measure)
            # Keyed by op, so a sweep's in-process replay must also print
            # the bytes its parallel run printed.
            seen = self.first_digests.setdefault(op.label, outcome.digests)
            if outcome.ok and seen != outcome.digests:
                outcome.problems.append("outputs differ from the first pass")
            if not outcome.ok:
                self.failed += 1
                print(f"FAILED {outcome.label}: {'; '.join(outcome.problems)}",
                      file=sys.stderr)
            self.records.append({**outcome.record(), "replay": replay})
            total += outcome.seconds
        return total

    def timed_passes(self, measure, seconds: float) -> list[float]:
        deadline = time.perf_counter() + seconds
        passes: list[float] = []
        while True:
            started = time.perf_counter()
            passes.append(self.one_pass(measure))
            elapsed = time.perf_counter() - started
            if time.perf_counter() + elapsed > deadline:
                return passes


def end_to_end(run: Run, setups: list[float], passes: list[float]) -> tuple[dict, dict]:
    times = [r["seconds"] for r in run.records]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(passes),
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra: dict = {"fail_ratio": run.failed / len(run.records), "passes": len(passes)}
    found = tail(times)
    if found is not None:
        pct, value, above = found
        extra["op_tail_s"] = {"percentile": pct, "value": value, "ops_above": above,
                              "ops": len(times)}
    return metrics, extra


def per_layer(run: Run, untraced: float) -> tuple[dict, dict, list]:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    with tracer.instrument():
        traced = run.one_pass(tracer.op)
        # sweep-small's rows run in worker processes, out of the tracer's
        # sight; its layer figures come from replaying them in-process.
        replayed = (run.one_pass(tracer.op, replay=True)
                    if run.args.workload == "sweep-small" else 0.0)
    metrics = tracing.layer_metrics(tracer)
    biggest = max(run.ops, key=predicted_edges).largest
    metrics["constructions.peak_bytes_per_edge"] = (
        tracing.peak_bytes_per_edge(biggest.build) if biggest else 0.0)
    jobs = workloads.sweep_jobs()
    metrics["cli.parallel_eff"] = replayed / (jobs * traced) if replayed else 0.0
    metrics["trace.overhead_s"] = traced - untraced
    accounting = tracing.op_accounting(tracer.spans)
    worst = max(abs(wall - summed) for wall, summed in accounting.values())
    extra = {"untraced_pass_s": untraced, "traced_pass_s": traced,
             "self_time_gap_s": worst, "spans": len(tracer.spans)}
    if worst > 1e-6:
        run.failed += 1
        print(f"FAILED span self times miss an op's wall time by {worst} s",
              file=sys.stderr)
    return metrics, extra, tracer.spans


def run_workload(args: argparse.Namespace) -> int:
    use_source_tree()
    import workloads  # after use_source_tree

    facts = run_facts(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, ops, skipped = setup_once(args.workload, args.seed)
            setups.append(seconds)
        for op in skipped:
            print(f"skipped {op.label}: predicted {predicted_edges(op)} edges exceeds "
                  f"the budget of {workloads.EDGE_BUDGET}", file=sys.stderr)
        if not ops:
            raise SystemExit("error: every op exceeds the edge budget")
        run = Run(args, ops, workdir)
        if args.trace:
            untraced = run.one_pass(_untraced)
            metrics, extra, spans = per_layer(run, untraced)
            units = PER_LAYER_UNITS
        else:
            passes = run.timed_passes(_untraced, args.seconds)
            metrics, extra = end_to_end(run, setups, passes)
            spans = None
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = {
        **facts, "setup_s": setups, "metrics": metrics, **extra,
        "skipped": [{"op": op.label, "predicted_edges": predicted_edges(op)}
                    for op in skipped],
        "ops": run.records,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(results, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "layer", "start", "end", "parent", "op"],
             "spans": spans}) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{args.workload} fail_ratio = {extra['fail_ratio']:.6g} ratio")
        if "op_tail_s" in extra:
            t = extra["op_tail_s"]
            print(f"{args.workload} op_tail_s = {t['value']:.6g} s "
                  f"(p{t['percentile']} of {t['ops']} ops, {t['ops_above']} above)")
        else:
            print(f"{args.workload} op_tail_s undefined: {len(run.records)} ops "
                  "leave fewer than ten above any percentile")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.records),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


def _untraced(label: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced, then traced, each in its own process."""
    if not (SRC / "evocycle" / "__init__.py").is_file():
        raise SystemExit(f"error: no evocycle source tree at {SRC}")
    status = 0
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            result = json.loads(lines[-1]) if lines else {}
            print(f"{name} trace={trace}: correct={result.get('correct')} "
                  f"attempted={result.get('attempted')} failed={result.get('failed')} "
                  f"exit={proc.returncode}")
            status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
