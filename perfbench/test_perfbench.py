"""Self-tests of the benchmark.

Run from the root of the checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import itertools  # noqa: E402

import evocycle  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("p,q,r,s", itertools.product((2, 3, 5), (1, 3), (1, 2), (1, 3)))
def test_fcsh_size_matches_built_graph(p, q, r, s):
    graph = evocycle.build_fcsh(p, q, r, s).graph
    assert workloads.fcsh_size(p, q, r, s) == (graph.n, graph.edge_count)


@pytest.mark.parametrize("p,o,q,r,s",
                         itertools.product((2, 3, 6), (1, 4), (1, 3), (1, 2), (1, 4)))
def test_hdpd_size_matches_built_graph(p, o, q, r, s):
    graph = evocycle.build_hdpd(p, o, q, r, s).graph
    assert workloads.hdpd_size(p, o, q, r, s) == (graph.n, graph.edge_count)


@pytest.mark.parametrize("r,q", itertools.product((2, 3), (5, 6, 7)))
def test_tree_size_matches_built_graph(r, q):
    graph = evocycle.build_tree(r, q).graph
    assert workloads.tree_size(r, q) == (graph.n, graph.edge_count)


def test_same_seed_gives_identical_certify_inputs():
    def inputs(seed):
        return [(op.scenario, op.period, op.params) for op in workloads.make_ops("certify", seed)]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    assert sorted(inputs(7)) != sorted(inputs(8))


def test_rescaled_quadruple_keeps_certificate_and_scenario():
    for seed in range(5):
        k, t = workloads.draw_affine(workloads.random.Random(seed))
        for text, period in workloads.CHAIN_CELLS:
            base = workloads.witness_for(workloads.game(text), period, tree=False)
            moved = workloads.rescale(text, k, t)
            assert moved != text or (k, t) == (1, 0)
            assert workloads.witness_for(workloads.game(moved), period, tree=False) == base


def test_tail_needs_ten_ops_above():
    assert run.tail([1.0] * 10) is None
    pct, value, above = run.tail([float(i) for i in range(100)])
    assert (pct, value, above) == (90, 89.0, 10)


def _traced(ops, tmp_path):
    tracer = tracing.Tracer()
    with tracer.instrument():
        outcomes = [op.run(tmp_path, tracer.op) for op in ops]
    return tracer, outcomes


def test_span_self_times_sum_to_each_op_wall_time(tmp_path):
    ops = [
        workloads.Pipeline("1,9/20,31/25,0", 5, tree=False),
        workloads.Pipeline("1,3/5,2,0", 8, tree=True),
        workloads.Certify("SH", 16, "1,-1/2,1/2,0"),
    ]
    tracer, outcomes = _traced(ops, tmp_path)
    assert all(outcome.ok for outcome in outcomes), [o.problems for o in outcomes]
    accounting = tracing.op_accounting(tracer.spans)
    assert set(accounting) == {op.label for op in ops}
    for outcome in outcomes:
        wall, summed = accounting[outcome.label]
        assert summed == pytest.approx(wall, rel=1e-9, abs=1e-9)
        assert wall <= outcome.seconds
    layers = {span[tracing.LAYER] for span in tracer.spans}
    assert {"bench", "cli", "solver", "constructions", "dynamics", "analysis",
            "serialize.write", "serialize.read"} <= layers
    metrics = tracing.layer_metrics(tracer)
    assert metrics["solver.calls"] == 3
    assert metrics["dynamics.step_calls"] > 0 and 0 < metrics["dynamics.changed_frac"] < 1


def test_instrument_restores_every_patched_name():
    before = {(module, name): getattr(sys.modules[module], name)
              for module, names in tracing.TARGETS for name in names}
    with contextlib.suppress(RuntimeError), tracing.Tracer().instrument():
        raise RuntimeError
    for (module, name), original in before.items():
        assert getattr(sys.modules[module], name) is original


def test_failed_check_is_reported(tmp_path):
    op = workloads.Pipeline("1,9/20,31/25,0", 4, tree=False)
    op.witness = dataclasses.replace(op.witness, n=op.witness.n + 1)
    outcome = op.run(tmp_path, lambda label: contextlib.nullcontext())
    assert not outcome.ok
    assert any("size formula" in problem for problem in outcome.problems)


def test_oracle_replays_small_sweep_rows():
    oracle = workloads.Oracle()
    op = workloads.Sweep("1,9/20,31/25,0", False, range(2, 5), 1, oracle)
    outcome = op.run(None, lambda label: contextlib.nullcontext())
    assert outcome.ok, outcome.problems
    assert oracle.replayed == 3


def test_size_guard_skips_ops_over_the_edge_budget(monkeypatch):
    monkeypatch.setattr(workloads, "EDGE_BUDGET", 100_000)
    _, kept, skipped = run.setup_once("chain-witness", 1)
    assert [run.predicted_edges(op) for op in kept] == [19_237]
    assert sorted(run.predicted_edges(op) for op in skipped) == [131_909, 276_540, 307_835]
