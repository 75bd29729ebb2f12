import logging
import os
import subprocess
import sys
from fractions import Fraction
from itertools import count
from math import floor
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import evocycle.solver
from evocycle import (
    CertificateFailure,
    GameParams,
    ScenarioError,
    SearchBudgetError,
    build_fcsh,
    check_fcsh,
    check_hdpd,
    check_tree,
    solve_fcsh,
    solve_hdpd,
    solve_tree,
    trajectory,
)
from evocycle.cli import _FAMILIES
from evocycle.game import _utility, normalize_params
from evocycle.solver import (
    _fcsh_residuals,
    _hdpd_residuals,
    _tree_sides,
    hdpd_q_bounds,
    hdpd_slopes,
)
from genutil import quotient_of, scenario_params

SRC = Path(__file__).resolve().parent.parent / "src"
WORKED_HD = GameParams(1, "0.45", "1.24", 0)
FC_EXAMPLE = GameParams(1, "1/2", "4/5", 0)
TREE_HD = GameParams(1, "0.6", 2, 0)


class TestFcshSolver:
    def test_escalation_example(self):
        # At these FC payoffs the initial q+r budget fails the gadget
        # inequalities and the search must escalate before settling.
        cert = solve_fcsh(FC_EXAMPLE, 2)
        assert (cert.q, cert.r, cert.s) == (1, 13, 4)
        assert all(res > 0 for res in cert.residuals.values())

    def test_solver_output_recertifies(self):
        cert = solve_fcsh(GameParams(1, 0, "1/2", "1/4"), 5)
        again = check_fcsh(GameParams(1, 0, "1/2", "1/4"), 5, cert.q, cert.r, cert.s)
        assert again.residuals == cert.residuals
        assert min(again.residuals.values()) > 0

    def test_known_failure_names_violated_inequalities(self):
        params = GameParams(1, -1, "0.5", "0.2")
        with pytest.raises(CertificateFailure) as excinfo:
            check_fcsh(params, 3, 1, 1, 1)
        assert set(excinfo.value.violated) == {
            "gadget_center", "center_spread", "center_outer", "feeler_reset",
        }
        # the surviving inequality is reported with its positive slack
        assert excinfo.value.residuals["gadget_inner"] == Fraction(7, 20)

    def test_rejects_wrong_scenario(self):
        with pytest.raises(ScenarioError):
            solve_fcsh(WORKED_HD, 3)
        with pytest.raises(ScenarioError):
            check_fcsh(GameParams(1, "-0.45", "1.35", 0), 3, 1, 1, 1)

    def test_rejects_non_generic(self):
        with pytest.raises(ScenarioError):
            solve_fcsh(GameParams(3, 1, 4, 1), 3)

    def test_rejects_period_one(self):
        with pytest.raises(ValueError):
            solve_fcsh(FC_EXAMPLE, 1)

    def test_budget_exhaustion(self):
        with pytest.raises(SearchBudgetError):
            solve_fcsh(FC_EXAMPLE, 2, max_candidates=3)

    def test_escalation_is_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="evocycle.solver"):
            solve_fcsh(FC_EXAMPLE, 2)
        # One INFO record per escalated m, from m = 6 up to the pick's q + r = 14.
        logged = [(record.name, record.levelno, record.getMessage()) for record in caplog.records]
        assert logged == [
            ("evocycle.solver", logging.INFO,
             f"no feasible r for m={m} with {FC_EXAMPLE}, p=2; escalating m") for m in range(6, 14)]

    def test_importing_the_cli_does_not_import_logging(self):
        # The solver imports logging only when it escalates.
        code = "import sys, evocycle.cli; print('logging' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
        assert done.stdout == "False\n"

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="max_candidates must be an integer >= 1"):
            solve_fcsh(FC_EXAMPLE, 2, max_candidates=0)

    def test_refuses_unservable_period_before_any_search(self):
        # ((2p-1)c + d)/(2p) <= b at p = 8: one candidate would exhaust a
        # search, so the ScenarioError shows that none was made.
        params = GameParams("11/9", "-3/11", "-1/4", "-13/7")
        with pytest.raises(ScenarioError, match="p=8: feeler_reset needs"):
            solve_fcsh(params, 8, max_candidates=1)
        cert = solve_fcsh(params, 64)
        assert (cert.q, cert.r, cert.s) == (1, 438, 136)

    def test_refusal_includes_equality(self):
        # At p = 2, ((2p-1)c + d)/(2p) = -1 = b: feeler_reset fails at every
        # (q, r) and the request is refused; at p = 3 it is -2/3 > b.
        params = GameParams(1, -1, 0, -4)
        with pytest.raises(ScenarioError, match="= -1 > b = -1 at every"):
            solve_fcsh(params, 2)
        for q, r in ((1, 1), (1, 16), (5, 2), (40, 40)):
            with pytest.raises(CertificateFailure) as excinfo:
                check_fcsh(params, 2, q, r, 1)
            assert "feeler_reset" in excinfo.value.violated
        cert = solve_fcsh(params, 3)
        assert min(check_fcsh(params, 3, cert.q, cert.r, cert.s).residuals.values()) > 0


class TestHdpdSolver:
    def test_rediscovers_worked_example(self):
        cert = solve_hdpd(WORKED_HD, 5)
        assert (cert.o, cert.q, cert.r, cert.s) == (4, 2, 1, 6)

    def test_worked_example_residuals(self):
        cert = check_hdpd(WORKED_HD, 5, 4, 2, 1, 6)
        assert cert.residuals == {
            "clique_spread": Fraction(61, 100),
            "spread_over_hub": Fraction(191, 5700),
            "hub_reset": Fraction(21, 475),
            "anchor_lower": Fraction(13, 600),
            "anchor_upper": Fraction(7, 100),
        }

    def test_q_bounds_match_direct_checks(self):
        # With o, r, s fixed at certified values, an integer q yields a
        # valid certificate exactly when it lies strictly inside the open
        # interval, and the violated inequality names the binding side.
        lower, upper = hdpd_q_bounds(WORKED_HD, 5, 4)
        assert lower == Fraction(299, 245)
        assert upper == Fraction(71, 25)
        for q in range(1, 8):
            inside = lower < Fraction(q) < upper
            try:
                check_hdpd(WORKED_HD, 5, 4, q, 1, 6)
                assert inside
            except CertificateFailure as exc:
                assert not inside
                assert set(exc.violated) <= {"spread_over_hub", "hub_reset"}

    def test_q_interval_missing_lower_bound(self):
        # Strongly negative b makes o + 2b nonpositive after normalizing,
        # so no q can satisfy the hub-spread inequality for that o.
        lower, upper = hdpd_q_bounds(GameParams(1, -3, "3/2", 0), 3, 2)
        assert lower is None
        assert upper == Fraction(1)

    def test_slopes_identity(self):
        sigma1, sigma2 = hdpd_slopes(GameParams(1, "-0.45", "1.35", 0), 10)
        assert (sigma1, sigma2) == (Fraction(9, 5), Fraction(63, 20))
        assert sigma2 - sigma1 == Fraction(27, 20)

    def test_rejects_wrong_scenario(self):
        with pytest.raises(ScenarioError):
            solve_hdpd(FC_EXAMPLE, 3)

    def test_budget_exhaustion(self):
        with pytest.raises(SearchBudgetError):
            solve_hdpd(WORKED_HD, 5, max_candidates=2)

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="max_candidates must be an integer >= 1"):
            solve_hdpd(WORKED_HD, 5, max_candidates=0)


class TestCertificateRobustness:
    # Every residual is a difference of two payoff averages, so moving
    # each payoff by at most eps moves each residual by at most 2*eps:
    # any perturbation below half the minimal slack keeps the certificate.

    def _perturb(self, params, eps, signs):
        a, b, c, d = params.as_tuple()
        sa, sb, sc, sd = signs
        return GameParams(a + sa * eps, b + sb * eps, c + sc * eps, d + sd * eps)

    def test_hdpd_certificate_survives_small_perturbations(self):
        cert = check_hdpd(WORKED_HD, 5, 4, 2, 1, 6)
        eps = min(cert.residuals.values()) / 2 - Fraction(1, 10_000)
        for signs in ((1, -1, 1, -1), (-1, 1, -1, 1), (1, 1, -1, -1)):
            moved = self._perturb(WORKED_HD, eps, signs)
            again = check_hdpd(moved, 5, 4, 2, 1, 6)
            assert min(again.residuals.values()) > 0

    def test_fcsh_certificate_survives_small_perturbations(self):
        cert = check_fcsh(FC_EXAMPLE, 2, 1, 13, 4)
        eps = min(cert.residuals.values()) / 2 - Fraction(1, 10_000)
        for signs in ((1, -1, 1, -1), (-1, 1, -1, 1)):
            moved = self._perturb(FC_EXAMPLE, eps, signs)
            again = check_fcsh(moved, 2, 1, 13, 4)
            assert min(again.residuals.values()) > 0


class TestTreeSolver:
    def test_branching_choice(self):
        cert = solve_tree(TREE_HD, 6)
        assert (cert.r, cert.q) == (2, 6)
        cert = solve_tree(GameParams(1, "0.7", 2, 0), 6)
        assert cert.r == 2

    def test_depth_tracks_requested_period(self):
        assert solve_tree(TREE_HD, 1).q == 5
        assert solve_tree(TREE_HD, 4).q == 5
        assert solve_tree(TREE_HD, 7).q == 7
        assert solve_tree(TREE_HD, 13).q == 10
        for p0 in (1, 4, 7, 13, 20):
            q = solve_tree(TREE_HD, p0).q
            assert 2 * (q - 3) >= p0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="max_candidates must be an integer >= 1"):
            solve_tree(TREE_HD, 6, max_candidates=0)

    def test_residuals(self):
        cert = check_tree(TREE_HD, 2, 6)
        assert cert.residuals == {
            "spread": Fraction(1, 15),
            "retreat": Fraction(1, 3),
        }
        assert cert.leafward_spread is False
        assert check_tree(TREE_HD, 3, 6).leafward_spread is True

    def test_rejects_wrong_scenario_and_shape(self):
        with pytest.raises(ScenarioError):
            solve_tree(GameParams(1, "-0.45", "1.35", 0), 6)
        with pytest.raises(ScenarioError):
            check_tree(GameParams(1, "-0.45", "1.35", 0), 2, 6)
        with pytest.raises(ValueError):
            check_tree(TREE_HD, 1, 6)
        with pytest.raises(ValueError):
            check_tree(TREE_HD, 2, 4)

    def test_failing_branching_is_reported(self):
        # r = 2 violates the spread inequality for b = 2/5 at these
        # payoffs: (a + 2b)/3 = 3/5 < 2/3 = (c + 2d)/3.
        with pytest.raises(CertificateFailure) as excinfo:
            check_tree(GameParams(1, "2/5", 2, 0), 2, 6)
        assert excinfo.value.violated == ["spread"]


# ---------------------------------------------------------------------------
# the solvers against plain linear scans
# ---------------------------------------------------------------------------
#
# Each scan below evaluates the residual system on one candidate after
# another and charges one candidate for each: the plain search whose picks
# and budgets the solvers' closed-form bounds must reproduce.  A solver
# must return the scan's certificate at the scan's exact candidate count,
# and must run out of budget, with the scan's message, one candidate
# earlier.  Each scan also collects its ties: the deciding residuals that
# were exactly 0 at some candidate, and "q_lower"/"q_upper" when an
# endpoint of the hdpd q interval is the integer the scan starts or stops
# at.  The inequalities are strict, so a tie is where an off-by-one in a
# closed form would show.


def _deciding(residuals, ties, *names):
    """Whether the named residuals are all positive; adds those that are 0 to ties."""
    ties.update(name for name in names if residuals[name] == 0)
    return all(residuals[name] > 0 for name in names)


def _scan_fcsh(params, p, max_candidates):
    a, b, c, d = params.as_tuple()
    m = max(1, floor(6 * p * (a - b) / (c - d) - 2) + 1, floor(Fraction(2 * p, 2 * p - 3)) + 1)
    spent, ties = 0, set()
    while True:
        for r in range(1, m):
            spent += 1
            if spent > max_candidates:
                raise SearchBudgetError(
                    f"no (q, r) within {max_candidates} candidates (reached m={m})"
                )
            residuals = _fcsh_residuals(params, p, m - r, r, 1)
            if _deciding(residuals, ties, "feeler_reset", "center_spread"):
                beta = _utility(params, 0, 2 * p - 1, 2 * p)
                s = max(1, floor((a - d) / (c - b)) + 1, floor((beta - d) / (c - beta)) + 1)
                return check_fcsh(params, p, m - r, r, s), spent, ties
        m += 1


def _scan_hdpd(params, p, max_candidates):
    spent, ties = 0, set()

    def charge(context):
        nonlocal spent
        spent += 1
        if spent > max_candidates:
            raise SearchBudgetError(
                f"no certified tuple within {max_candidates} candidates ({context})"
            )

    for o in count(1):
        charge(f"o={o}")
        if not _deciding(_hdpd_residuals(params, p, o, 1, 1, 1), ties, "clique_spread"):
            continue
        lower, upper = hdpd_q_bounds(params, p, o)
        if lower is None:
            continue
        q = max(1, floor(lower) + 1)
        if lower == q - 1:
            ties.add("q_lower")
        while q < upper:
            charge(f"o={o}, q={q}")
            trial = _hdpd_residuals(params, p, o, q, 1, 1)
            if trial["spread_over_hub"] > 0 and trial["hub_reset"] > 0:
                break
            q += 1
        else:
            if q == upper:
                ties.add("q_upper")
            continue
        for total in count(2):
            for r in range(1, total):
                charge(f"o={o}, q={q}, r+s={total}")
                trial = _hdpd_residuals(params, p, o, q, r, total - r)
                if _deciding(trial, ties, "anchor_lower", "anchor_upper"):
                    return check_hdpd(params, p, o, q, r, total - r), spent, ties


def _scan_tree(params, min_period, max_candidates):
    q = max(5, (min_period + 1) // 2 + 3)
    ties = set()
    for r in range(2, 2 + max_candidates):
        sides = {name: left - right for name, (left, right) in _tree_sides(params, r).items()}
        if _deciding(sides, ties, "spread", "retreat"):
            return check_tree(params, r, q), r - 1, ties
    raise SearchBudgetError(
        f"no branching factor within {max_candidates} candidates for {params}"
    )


SCAN_CAP = 2_000  # candidates; a pick the scan does not reach must fail the same way
SOLVERS = {"fcsh": (solve_fcsh, _scan_fcsh), "hdpd": (solve_hdpd, _scan_hdpd),
           "tree": (solve_tree, _scan_tree)}


def fcsh_servable(params, p):
    """((2p-1)c + d)/(2p) > b: without it no (q, r) passes feeler_reset, and
    solve_fcsh refuses the request while the scan spends any budget."""
    return _utility(params, 0, 2 * p - 1, 2 * p) > params.b


def assert_matches_scan(family, params, p):
    """The solver's certificate and least sufficient budget are the scan's;
    returns the scan's ties."""
    solve, scan = SOLVERS[family]
    refused = family == "fcsh" and not fcsh_servable(params, p)
    try:
        cert, spent, ties = scan(params, p, SCAN_CAP)
    except SearchBudgetError as want:
        if refused:
            with pytest.raises(ScenarioError):
                solve(params, p, max_candidates=SCAN_CAP)
            return set()
        with pytest.raises(SearchBudgetError) as got:
            solve(params, p, max_candidates=SCAN_CAP)
        assert str(got.value) == str(want)
        return set()
    assert not refused
    assert solve(params, p, max_candidates=spent) == cert
    if spent > 1:
        with pytest.raises(SearchBudgetError) as want:
            scan(params, p, spent - 1)
        with pytest.raises(SearchBudgetError) as got:
            solve(params, p, max_candidates=spent - 1)
        assert str(got.value) == str(want.value)
    return ties


def quadruples(*tags):
    """Generic quadruples of the named scenarios, each payoff a rational in
    [-3, 3] with denominator at most 12, as random_scenario_params draws them."""
    rational = st.integers(1, 12).flatmap(
        lambda den: st.integers(-3 * den, 3 * den).map(lambda num: Fraction(num, den))
    )
    values = st.lists(rational, min_size=4, max_size=4, unique=True)
    return st.builds(scenario_params, st.sampled_from(tags), values)


@settings(max_examples=60)
@given(params=quadruples("FC", "SH"), p=st.integers(2, 12))
def test_fcsh_picks_match_the_scan(params, p):
    assert_matches_scan("fcsh", params, p)


@settings(max_examples=150)
@given(params=quadruples("HD", "PD"), p=st.integers(2, 12))
def test_hdpd_picks_match_the_scan(params, p):
    assert_matches_scan("hdpd", params, p)


def assert_same_outcome(family, params, p, budget):
    """The solver and the scan, both given budget, pick the same tuple or
    fail with the same message."""
    solve, scan = SOLVERS[family]
    try:
        cert = scan(params, p, budget)[0]
    except SearchBudgetError as want:
        with pytest.raises(SearchBudgetError) as got:
            solve(params, p, max_candidates=budget)
        assert str(got.value) == str(want)
    else:
        assert solve(params, p, max_candidates=budget) == cert


@pytest.mark.parametrize("quadruple", ["1,0.45,1.24,0", "1,9/20,31/25,0", "1,-9/20,27/20,0"])
@pytest.mark.parametrize("p", [10**3, 10**6, 10**11])
@pytest.mark.parametrize("budget", [1, 40, 2_500])
def test_hdpd_budget_at_long_periods_matches_the_scan(quadruple, p, budget):
    # The solver refuses at once when no o within budget can have a q;
    # the scan spends its whole budget to say the same.  At p = 1000 the
    # first possible o, about 1100 for the HD and 2900 for the PD
    # quadruple, lies within or beyond the largest budget.
    assert_same_outcome("hdpd", GameParams(*quadruple.split(",")), p, budget)


def test_hdpd_refuses_an_unreachable_budget_before_any_o(monkeypatch):
    # At p = 10^11 the first o with a q lies near 10^11: the scan used to
    # spend its million candidates (84 s) before saying so.
    scanned = []
    monkeypatch.setattr(evocycle.solver, "_hdpd_q_interval", lambda *args: scanned.append(args))
    with pytest.raises(SearchBudgetError, match=r"within 1000000 candidates \(o=1000001\)$"):
        solve_hdpd(GameParams(1, "9/20", "31/25", 0), 10**11)
    assert scanned == []


@settings(max_examples=150)
@given(params=quadruples("HD", "PD"), p=st.integers(2, 10**6), data=st.data())
def test_no_o_up_to_o_min_has_an_integer_q(params, p, data):
    # solve_hdpd's budget check rests on the interval width
    # c*o*(o - o_min)/(o + 2b), normalized, with o_min = 2(p-2) - 2b(p-1).
    norm = normalize_params(params)
    o_min = 2 * (p - 2) - 2 * norm.b * (p - 1)
    assume(o_min >= 1)
    o = data.draw(st.integers(1, floor(o_min)))
    lower, upper = hdpd_q_bounds(params, p, o)
    if lower is not None:
        assert upper - lower == norm.c * o * (o - o_min) / (o + 2 * norm.b)
        assert floor(lower) + 1 >= upper


@settings(max_examples=60)
@given(params=quadruples("HD"), bound=st.integers(1, 24))
def test_tree_picks_match_the_scan(params, bound):
    assert_matches_scan("tree", params, bound)


# Quadruples (scenario noted) whose scan meets a tie on the named residual
# or q endpoint, found by scanning random small rationals.  fcsh has no
# center_spread tie: once feeler_reset holds, the margin conditions leave
# more than four integers of room below its bound.
TIES = [
    ("fcsh", "-3/4,-13/6,-1,-17/6", 2, "feeler_reset"),  # FC
    ("fcsh", "3,-5/2,11/6,-3/2", 8, "feeler_reset"),  # SH
    ("hdpd", "4/3,1/4,11/4,-1", 4, "clique_spread"),  # HD
    ("hdpd", "-1/2,-11/4,3,-5/2", 2, "clique_spread"),  # PD
    ("hdpd", "1,-3/4,3,-3/2", 4, "q_lower"),  # HD
    ("hdpd", "0,-3/2,1,-7/5", 3, "q_lower"),  # PD
    ("hdpd", "-1,-15/8,1,-5/2", 4, "q_upper"),  # HD
    ("hdpd", "3/4,-2/3,3/2,-1/4", 3, "q_upper"),  # PD
    ("hdpd", "1,-2,3,-5/2", 3, "anchor_lower"),  # HD
    ("hdpd", "5/2,3/2,3,5/3", 2, "anchor_lower"),  # PD
    ("hdpd", "-1/2,-11/12,0,-1", 3, "anchor_upper"),  # HD
    ("hdpd", "6/5,-1,12/5,0", 2, "anchor_upper"),  # PD
    ("tree", "2/9,-2/3,26/9,-2", 7, "spread"),
    ("tree", "-1,-12/11,-3/4,-3/2", 6, "retreat"),
]


@pytest.mark.parametrize("family,quadruple,p,tie", TIES)
def test_picks_match_the_scan_at_integer_endpoints(family, quadruple, p, tie):
    params = GameParams(*quadruple.split(","))
    assert tie in assert_matches_scan(family, params, p)


# Builds above this size are skipped: building and checking the quotient
# cost about 0.1 s at this size, and the median pick at p <= 8 has 68k edges.
REPLAY_MAX_EDGES = 30_000


@settings(max_examples=25)
@given(params=quadruples("FC", "SH"), p=st.integers(2, 8))
def test_fcsh_picks_meet_the_margins_and_replay_to_period_p(params, p):
    # solve_fcsh's docstring derives the chain links check_fcsh does not
    # test from two margin conditions on m = q + r; every pick must meet
    # them, and its witness must cycle from x0 with period exactly p.
    assume(fcsh_servable(params, p))
    try:
        cert = solve_fcsh(params, p, max_candidates=SCAN_CAP)
    except SearchBudgetError:
        assume(False)
    sp = {"p": p, "q": cert.q, "r": cert.r, "s": cert.s}
    assume(_FAMILIES["fcsh"].edges(sp) <= REPLAY_MAX_EDGES)
    a, b, c, d = params.as_tuple()
    m = cert.q + cert.r
    assert 6 * (a - b) / (m + 2) < (c - d) / p
    assert (c + (m - 1) * d) / m < ((2 * p - 3) * c + 3 * d) / (2 * p)
    assert check_fcsh(params, p, cert.q, cert.r, cert.s) == cert
    instance = build_fcsh(p, cert.q, cert.r, cert.s)
    # the replay below takes the quotient of the build by the closed-form cells
    quotient = quotient_of(instance.graph, _FAMILIES["fcsh"].quotient(sp).cell_of)
    assert quotient is not None
    report = trajectory(instance.graph, params, instance.x0, cells=quotient)
    assert (report.transient, report.minimal_period) == (0, p)
