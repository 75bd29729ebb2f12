"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run `pytest -s tests/test_acceptance.py` to see the lines as they complete;
without -s, pytest still shows the line of any failing criterion.
"""

import random
import time
import warnings
from itertools import product

from evocycle import (
    GameParams,
    NonGenericParamsWarning,
    StrategyVector,
    build_fcsh,
    build_hdpd,
    build_tree,
    check_hdpd,
    check_local_lemmas,
    normalize_params,
    solve_fcsh,
    solve_hdpd,
    solve_tree,
    step,
    trajectory,
    verify_fcsh_dynamics,
    verify_hdpd_dynamics,
    verify_tree_invariants,
)
from evocycle.solver import hdpd_slopes
from genutil import (
    connected_graphs_upto,
    random_admissible_params,
    random_connected_graph,
    random_scenario_params,
    random_state,
)
from reference import params_to_pairs, ref_step

GRIDS = {
    "PD": [
        GameParams(1, "-9/20", "27/20", 0),
        GameParams(1, "-1/10", "13/10", "1/20"),
        GameParams(1, "-1/4", "5/4", "1/10"),
    ],
    "SH": [
        GameParams(1, "2/5", "9/10", "1/2"),
        GameParams(1, "3/10", "9/10", "2/5"),
        GameParams(1, "1/2", "19/20", "11/20"),
    ],
    "HD": [
        GameParams(1, "9/20", "31/25", 0),
        GameParams(1, "3/5", 2, 0),
        GameParams(1, "1/2", "3/2", "1/4"),
    ],
    "FC": [
        GameParams(1, "1/2", "4/5", 0),
        GameParams(1, "1/4", "1/2", 0),
        GameParams(1, "1/5", "3/5", "1/10"),
    ],
}
TREE_GRID = [
    GameParams(1, "3/5", 2, 0),
    GameParams(1, "7/10", 2, 0),
    GameParams(1, "11/20", "9/5", "1/10"),
]


def _report(number, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"criterion {number} ({title}): {status}{suffix}")
    assert ok, f"criterion {number} ({title}) failed {suffix}"


def test_criterion_1_worked_instance():
    started = time.perf_counter()
    params = GameParams(1, "0.45", "1.24", 0)
    instance = build_hdpd(p=5, o=4, q=2, r=1, s=6)
    report = trajectory(instance.graph, params, instance.x0, max_steps=64)
    cert = check_hdpd(params, 5, 4, 2, 1, 6)
    elapsed = time.perf_counter() - started
    ok = (
        report.transient == 0
        and report.minimal_period == 5
        and all(res > 0 for res in cert.residuals.values())
        and elapsed < 1.0
    )
    _report(
        1, "worked hub-chain instance", ok,
        f"transient={report.transient} period={report.minimal_period} "
        f"min_residual={min(cert.residuals.values())} {elapsed:.2f}s",
    )


def test_criterion_2_worked_tree():
    started = time.perf_counter()
    params = GameParams(1, "0.6", 2, 0)
    instance = build_tree(r=3, q=6)
    report = trajectory(instance.graph, params, instance.x0, max_steps=64)
    states = [instance.x0]
    for _ in range(27):
        states.append(step(instance.graph, params, states[-1]))
    shifted_ok = all(states[t] == states[t + 6] for t in range(21))
    violations = verify_tree_invariants(instance, params, states[:7])
    elapsed = time.perf_counter() - started
    ok = (
        report.minimal_period == 6
        and shifted_ok
        and violations == []
        and elapsed < 1.0
    )
    _report(
        2, "worked tree instance", ok,
        f"period={report.minimal_period} X(t)=X(t+6) for t<=20: {shifted_ok} "
        f"violations={len(violations)} {elapsed:.2f}s",
    )


def test_criterion_3_cooperator_count_series():
    started = time.perf_counter()
    params = GameParams(1, "0.7", 2, 0)
    results = []
    for q, expected in ((6, 6), (9, 12)):
        instance = build_tree(3, q)
        report = trajectory(
            instance.graph, params, instance.x0, max_steps=3 * expected + 8
        )
        counts = report.cooperator_counts[report.transient:]
        repeats = report.transient == 0 and report.minimal_period == expected
        length = len(counts)
        minimal = next(
            d for d in range(1, length + 1)
            if length % d == 0
            and all(counts[i] == counts[i % d] for i in range(length))
        )
        results.append(
            repeats and minimal == expected and len(set(counts)) > 1
        )
    elapsed = time.perf_counter() - started
    ok = all(results) and elapsed < 5.0
    _report(
        3, "cooperator count series", ok,
        f"series periods q=6:{results[0]} q=9:{results[1]} {elapsed:.2f}s",
    )


def test_criterion_4_any_period_all_scenarios():
    started = time.perf_counter()
    runs = failures = 0
    for scenario, grid in GRIDS.items():
        for params, p in product(grid, range(2, 7)):
            runs += 1
            if scenario in ("FC", "SH"):
                cert = solve_fcsh(params, p)
                instance = build_fcsh(p, cert.q, cert.r, cert.s)
                verify = verify_fcsh_dynamics
            else:
                cert = solve_hdpd(params, p)
                instance = build_hdpd(p, cert.o, cert.q, cert.r, cert.s)
                verify = verify_hdpd_dynamics
            report = trajectory(
                instance.graph, params, instance.x0, max_steps=4 * p + 16
            )
            states = [report.state_at(t) for t in range(p + 1)]
            violations = verify(instance, params, states)
            if (
                report.transient != 0
                or report.minimal_period != p
                or violations
            ):
                failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and runs == 60
    _report(
        4, "solve/build/simulate across scenarios and periods", ok,
        f"{runs} pipelines, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_5_tree_periods():
    started = time.perf_counter()
    runs = failures = 0
    for params, p0 in product(TREE_GRID, (1, 4, 7, 10, 13)):
        runs += 1
        cert = solve_tree(params, p0)
        instance = build_tree(cert.r, cert.q)
        period = 2 * (cert.q - 3)
        report = trajectory(
            instance.graph, params, instance.x0, max_steps=3 * period + 8
        )
        states = [report.state_at(t) for t in range(period + 1)]
        violations = verify_tree_invariants(instance, params, states)
        violations += check_local_lemmas(instance, params, states)
        if (
            report.transient != 0
            or report.minimal_period != period
            or period < p0
            or violations
        ):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and runs == 15
    _report(
        5, "tree periods meet requested bounds", ok,
        f"{runs} pipelines, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20240817)
    mismatches = 0
    for _ in range(200):
        graph = random_connected_graph(rng, rng.randint(2, 9))
        params = random_admissible_params(rng)
        pairs = params_to_pairs(params)
        edges = list(graph.edges())
        state = random_state(rng, graph.n)
        bits = [state[v] for v in range(graph.n)]
        for _ in range(10):
            state = step(graph, params, state)
            bits = ref_step(graph.n, edges, bits, pairs)
            if [state[v] for v in range(graph.n)] != bits:
                mismatches += 1
                break
    _report(
        6, "oracle equivalence on random instances", mismatches == 0,
        f"200 cases x 10 steps, {mismatches} mismatches",
    )


def test_criterion_7_slope_identity():
    rng = random.Random(1123581321)
    checked = failures = 0
    for index in range(100):
        tag = "HD" if index % 2 == 0 else "PD"
        params = random_scenario_params(rng, tag)
        expected = normalize_params(params).c
        for p in range(2, 11):
            checked += 1
            sigma1, sigma2 = hdpd_slopes(params, p)
            if sigma2 - sigma1 != expected:
                failures += 1
    _report(
        7, "slope difference equals normalized c", failures == 0,
        f"{checked} (quadruple, period) pairs, {failures} failures",
    )


def test_criterion_8_fixed_points_and_eventual_periodicity():
    rng = random.Random(42424242)
    bad_fixed = 0
    for _ in range(50):
        graph = random_connected_graph(rng, rng.randint(2, 9))
        for tag in ("PD", "SH", "HD", "FC"):
            params = random_scenario_params(rng, tag)
            for strategy in (0, 1):
                uniform = StrategyVector.uniform(graph.n, strategy)
                if step(graph, params, uniform) != uniform:
                    bad_fixed += 1

    sample = [
        GameParams(1, "-9/20", "27/20", 0),
        GameParams(1, 0, "1/2", "1/4"),
        GameParams(1, "9/20", "31/25", 0),
        GameParams(1, "1/2", "4/5", 0),
        GameParams(3, 1, 4, 1),
    ]
    graphs = connected_graphs_upto(4)
    slow = 0
    trajectories = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonGenericParamsWarning)
        for graph in graphs:
            bound = 2 ** graph.n
            for params in sample:
                for mask in range(1 << graph.n):
                    trajectories += 1
                    x0 = StrategyVector(
                        mask >> v & 1 for v in range(graph.n)
                    )
                    report = trajectory(graph, params, x0, max_steps=bound + 1)
                    if report.transient + report.minimal_period > bound:
                        slow += 1
    ok = bad_fixed == 0 and slow == 0
    _report(
        8, "uniform fixed points and eventual periodicity", ok,
        f"400 uniform checks ({bad_fixed} bad), {len(graphs)} graphs, "
        f"{trajectories} trajectories ({slow} exceeded 2^n)",
    )
