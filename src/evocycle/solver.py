"""Exact inequality certificates for the witness constructions and integer
searches that produce certified structural parameters.

Every check_* recomputes its inequality system from scratch with rational
arithmetic and returns a certificate carrying all residuals (left side
minus right side, so positive means satisfied). The solve_* searches only
propose candidates; the returned certificate always comes from the
corresponding check_*, so a solver bug cannot smuggle out an uncertified
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import floor
from typing import ClassVar, Mapping

from .game import (GameParams, Scenario, _require_at_least, _utility, classify_scenario,
                   normalize_params)

__all__ = [
    "SolverError",
    "ScenarioError",
    "CertificateFailure",
    "SearchBudgetError",
    "Certificate",
    "FcshCertificate",
    "HdpdCertificate",
    "TreeCertificate",
    "check_fcsh",
    "solve_fcsh",
    "check_hdpd",
    "solve_hdpd",
    "hdpd_q_bounds",
    "hdpd_slopes",
    "check_tree",
    "solve_tree",
    "DEFAULT_MAX_CANDIDATES",
]

DEFAULT_MAX_CANDIDATES = 10**6


class SolverError(Exception):
    """Base class for certificate and search failures."""


class ScenarioError(SolverError):
    """The payoff quadruple, or the quadruple at this period, is not one
    this construction serves."""


class CertificateFailure(SolverError):
    """At least one inequality residual is nonpositive.

    `residuals` maps every inequality name to its exact residual;
    `violated` lists the names with residual <= 0.
    """

    def __init__(self, message: str, residuals: Mapping[str, Fraction]) -> None:
        self.residuals = dict(residuals)
        self.violated = [name for name, value in self.residuals.items() if value <= 0]
        super().__init__(f"{message}: violated {', '.join(self.violated)}")

    def __reduce__(self) -> tuple:
        # Rebuilt as it is, not by __init__, whose message args holds with
        # the violated names added; so a pool worker can raise it.
        return Exception.__new__, (type(self), *self.args), self.__dict__


class SearchBudgetError(SolverError):
    """The candidate budget ran out before a certified tuple appeared."""


def _require_scenario(params: GameParams, allowed: tuple[Scenario, ...], what: str) -> None:
    scenario = classify_scenario(params)
    if scenario not in allowed:
        names = " or ".join(s.value for s in allowed)
        raise ScenarioError(
            f"{what} needs a {names} quadruple, got {scenario.value} for {params}"
        )


def _next_int_above(x: Fraction) -> int:
    """Smallest integer strictly greater than x."""
    return floor(x) + 1


class Certificate:
    """Base of the certificates: `kind` names the family, `residuals` maps
    each inequality to its exact residual."""

    kind: ClassVar[str]
    residuals: Mapping[str, Fraction]

    @property
    def min_residual(self) -> Fraction:
        return min(self.residuals.values())


# ---------------------------------------------------------------------------
# clique chain with gadgets (a > c)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FcshCertificate(Certificate):
    """Certified structural parameters for build_fcsh.

    Residual names, each left minus right of a strict inequality:

    * gadget_inner: the gadget's far side outscores its cooperating side,
      (s*c + d)/(s+1) > (a + s*b)/(s+1).
    * gadget_center: the far side also outscores a fully lit center clique
      vertex, (s*c + d)/(s+1) > ((q+2)*a + r*b)/(q+r+2).
    * center_spread: a center vertex at its leanest still beats a feeler
      one chain position short of full, (q*a + (r+2)*b)/(q+r+2) >
      ((2p-3)*c + 3*d)/(2p).
    * center_outer: the lean center vertex beats an outer clique vertex,
      (q*a + (r+2)*b)/(q+r+2) > (c + (q+r-1)*d)/(q+r).
    * feeler_reset: a feeler with the whole chain lit beats the full
      center vertex, ((2p-1)*c + d)/(2p) > ((q+2)*a + r*b)/(q+r+2).
    """

    kind = "fcsh"
    q: int
    r: int
    s: int
    residuals: Mapping[str, Fraction]


def _fcsh_residuals(
    params: GameParams, p: int, q: int, r: int, s: int
) -> dict[str, Fraction]:
    u_far = _utility(params, 0, s, s + 1)
    u_near = _utility(params, 1, 1, s + 1)
    u_center_full = _utility(params, 1, q + 2, q + r + 2)
    u_center_lean = _utility(params, 1, q, q + r + 2)
    u_feeler_full = _utility(params, 0, 2 * p - 1, 2 * p)
    u_feeler_short = _utility(params, 0, 2 * p - 3, 2 * p)
    u_outer = _utility(params, 0, 1, q + r)
    return {
        "gadget_inner": u_far - u_near,
        "gadget_center": u_far - u_center_full,
        "center_spread": u_center_lean - u_feeler_short,
        "center_outer": u_center_lean - u_outer,
        "feeler_reset": u_feeler_full - u_center_full,
    }


def check_fcsh(params: GameParams, p: int, q: int, r: int, s: int) -> FcshCertificate:
    """Verify the five chain/gadget inequalities for (p, q, r, s).

    Raises ScenarioError unless the quadruple is FC or SH (both have
    a > c), ValueError for nonpositive integers or p < 2, and
    CertificateFailure listing every violated inequality otherwise.
    """
    _require_scenario(params, (Scenario.FC, Scenario.SH), "check_fcsh")
    _require_at_least(2, p=p)
    _require_at_least(1, q=q, r=r, s=s)
    residuals = _fcsh_residuals(params, p, q, r, s)
    if any(v <= 0 for v in residuals.values()):
        raise CertificateFailure(f"(q={q}, r={r}, s={s}) not certified for p={p}", residuals)
    return FcshCertificate(q=q, r=r, s=s, residuals=residuals)


def solve_fcsh(
    params: GameParams, p: int, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> FcshCertificate:
    """Search (q, r, s) certifying the chain/gadget instance for period p.

    Recipe: take the smallest m = q + r such that both margin conditions
    hold, 6(a-b)/(m+2) < (c-d)/p and (c + (m-1)d)/m < ((2p-3)c + 3d)/(2p);
    both sides are monotone in m, so the threshold is computed in closed
    form. Then pick the smallest r in 1..m-1, with q = m - r, that passes
    the two chain inequalities (the remaining links of the chain follow
    from the margin conditions). At fixed m both center utilities fall by
    (a-b)/(m+2) per unit of r, since a > b, so each inequality bounds r
    on one side: feeler_reset holds exactly when
    r > (m+2)(a - u_feeler_full)/(a-b), and center_spread exactly when
    r < (m*a + 2b - (m+2)*u_feeler_short)/(a-b). If no r in 1..m-1 lies
    strictly between the two, the search escalates m by one, logging the
    escalation, since every larger m keeps the margin conditions. Finally
    s is the smallest integer satisfying gadget_inner together with
    (s*c + d)/(s+1) > ((2p-1)c + d)/(2p), which implies gadget_center
    through feeler_reset.

    Every center utility ((q+2)a + rb)/(q+r+2) exceeds b, so feeler_reset
    fails at every (q, r) when ((2p-1)c + d)/(2p) <= b, and ScenarioError
    is raised before any search.  Otherwise the feasible r interval widens
    linearly in m, so some m serves the request.

    The returned certificate is produced by check_fcsh on the final tuple.
    Each r the pick passes over or takes counts as one candidate, r = 1..m-1
    at every escalated m and 1..r at the last, and SearchBudgetError is
    raised when that count would exceed max_candidates.
    """
    _require_scenario(params, (Scenario.FC, Scenario.SH), "solve_fcsh")
    _require_at_least(2, p=p)
    _require_at_least(1, max_candidates=max_candidates)
    a, b, c, d = params.as_tuple()
    u_feeler_full = _utility(params, 0, 2 * p - 1, 2 * p)
    if u_feeler_full <= b:
        raise ScenarioError(
            f"no fcsh witness for {params} at p={p}: feeler_reset needs "
            f"((2p-1)c + d)/(2p) = {u_feeler_full} > b = {b} at every (q, r)"
        )

    m_start = max(
        1,
        _next_int_above(6 * p * (a - b) / (c - d) - 2),
        _next_int_above(Fraction(2 * p, 2 * p - 3)),
    )
    assert 6 * (a - b) / (m_start + 2) < (c - d) / p
    assert _utility(params, 0, 1, m_start) < _utility(params, 0, 2 * p - 3, 2 * p)

    u_feeler_short = _utility(params, 0, 2 * p - 3, 2 * p)
    spent = 0
    for m in count(m_start):
        r = max(1, _next_int_above((m + 2) * (a - u_feeler_full) / (a - b)))
        found = r < m and r < (m * a + 2 * b - (m + 2) * u_feeler_short) / (a - b)
        spent += r if found else m - 1
        if spent > max_candidates:
            raise SearchBudgetError(
                f"no (q, r) within {max_candidates} candidates (reached m={m})"
            )
        if found:
            break
        # Imported here: logging pulls in traceback, string and textwrap,
        # a tenth of a cold `import evocycle.cli`, for the rare escalation.
        import logging

        logging.getLogger(__name__).info(
            "no feasible r for m=%d with %s, p=%d; escalating m", m, params, p)

    s = max(
        1,
        _next_int_above((a - d) / (c - b)),
        _next_int_above((u_feeler_full - d) / (c - u_feeler_full)),
    )
    return check_fcsh(params, p, m - r, r, s)


# ---------------------------------------------------------------------------
# clique chain with resetting hub (c > a)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HdpdCertificate(Certificate):
    """Certified structural parameters for build_hdpd.

    Residual names, each left minus right of a strict inequality:

    * clique_spread: both cooperator utilities seen while the chain lights
      up, ((o-1)a + b)/o at the start and (o*a + 2b)/(o+2) later, beat the
      next clique's vertices at (c + (o+1)d)/(o+2).
    * spread_over_hub: the boundary cooperator also beats the hub before
      the chain is full, (o*a + 2b)/(o+2) >
      ((p-2)*o*c + (o+q+1)*d)/((p-1)*o + q + 1).
    * hub_reset: with the chain fully lit the hub finally beats a, i.e.
      ((p-1)*o*c + (q+1)*d)/((p-1)*o + q + 1) > a.
    * anchor_lower / anchor_upper: the anchor hub's utility
      (s*c + (r+1)*d)/(s+r+1) lies strictly between ((o+1)a + b)/(o+2)
      and a, which pins the reset hub to defection without infecting its
      other neighbors.
    """

    kind = "hdpd"
    o: int
    q: int
    r: int
    s: int
    residuals: Mapping[str, Fraction]


def _hdpd_residuals(
    params: GameParams, p: int, o: int, q: int, r: int, s: int
) -> dict[str, Fraction]:
    u_first = _utility(params, 1, o - 1, o)
    u_boundary = _utility(params, 1, o, o + 2)
    u_next = _utility(params, 0, 1, o + 2)
    hub_deg = (p - 1) * o + q + 1
    u_hub_early = _utility(params, 0, (p - 2) * o, hub_deg)
    u_hub_full = _utility(params, 0, (p - 1) * o, hub_deg)
    u_anchor = _utility(params, 0, s, s + r + 1)
    u_top = _utility(params, 1, o + 1, o + 2)
    return {
        "clique_spread": min(u_first, u_boundary) - u_next,
        "spread_over_hub": u_boundary - u_hub_early,
        "hub_reset": u_hub_full - params.a,
        "anchor_lower": u_anchor - u_top,
        "anchor_upper": params.a - u_anchor,
    }


def check_hdpd(
    params: GameParams, p: int, o: int, q: int, r: int, s: int
) -> HdpdCertificate:
    """Verify the hub-chain inequalities for (p, o, q, r, s).

    Raises ScenarioError unless the quadruple is HD or PD (both have
    c > a), ValueError for nonpositive integers or p < 2, and
    CertificateFailure listing every violated inequality otherwise.
    """
    _require_scenario(params, (Scenario.HD, Scenario.PD), "check_hdpd")
    _require_at_least(2, p=p)
    _require_at_least(1, o=o, q=q, r=r, s=s)
    residuals = _hdpd_residuals(params, p, o, q, r, s)
    if any(v <= 0 for v in residuals.values()):
        raise CertificateFailure(
            f"(o={o}, q={q}, r={r}, s={s}) not certified for p={p}", residuals
        )
    return HdpdCertificate(o=o, q=q, r=r, s=s, residuals=residuals)


def hdpd_q_bounds(params: GameParams, p: int, o: int) -> tuple[Fraction | None, Fraction]:
    """Open interval (lower, upper) of real q satisfying the two hub bounds.

    Computed on the normalized quadruple (a = 1, d = 0), where
    spread_over_hub rearranges to q > lower whenever o + 2b > 0 (lower is
    None otherwise, and no q works at all then) and hub_reset rearranges
    to q < upper = o(p-1)(c-1) - 1.
    """
    _require_scenario(params, (Scenario.HD, Scenario.PD), "hdpd_q_bounds")
    if p < 2 or o < 1:
        raise ValueError("need p >= 2 and o >= 1")
    return _hdpd_q_interval(normalize_params(params), p, o)


def _hdpd_q_interval(
    norm: GameParams, p: int, o: int
) -> tuple[Fraction | None, Fraction]:
    """hdpd_q_bounds for a quadruple already normalized to a = 1, d = 0."""
    b, c = norm.b, norm.c
    upper = o * (p - 1) * (c - 1) - 1
    den = o + 2 * b
    if den <= 0:
        return None, upper
    sigma1 = (1 - p) * (1 - c) - c
    numerator = o * o * sigma1 - o * (2 * (p - 1) * b - 2 * (p - 2) * c + 1) - 2 * b
    return numerator / den, upper


def hdpd_slopes(params: GameParams, p: int) -> tuple[Fraction, Fraction]:
    """Leading slopes in o of the q-interval endpoints, normalized frame.

    Returns (sigma1, sigma2) with sigma1 = (1-p)(1-c) - c for the lower
    endpoint and sigma2 = (p-1)(c-1) for the upper one. Their difference
    is exactly the normalized c, so the interval width grows like c * o
    and a feasible integer q always appears for large enough o.
    """
    _require_scenario(params, (Scenario.HD, Scenario.PD), "hdpd_slopes")
    if p < 2:
        raise ValueError("need p >= 2")
    c = normalize_params(params).c
    return (1 - p) * (1 - c) - c, (p - 1) * (c - 1)


def solve_hdpd(
    params: GameParams, p: int, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> HdpdCertificate:
    """Search (o, q, r, s) certifying the hub-chain instance for period p.

    Scans o upward, keeping only o that satisfy clique_spread. For each
    such o the normalized bounds of hdpd_q_bounds give the exact open
    interval of q passing spread_over_hub and hub_reset; o with
    o + 2b <= 0 in the normalized frame are skipped outright because
    spread_over_hub is then unsatisfiable, and so is o whose interval
    holds no integer q >= 1. The smallest such q is kept. Then (r, s) go
    by increasing total T = r + s, taking the smallest r in 1..T-1 whose
    anchor utility u_anchor = (T*c + d - r(c-d))/(T+1) lies strictly
    between its two bounds. u_anchor falls in r, since c > d in HD and PD,
    so anchor_upper holds exactly when r > (T*c + d - (T+1)a)/(c-d) and
    anchor_lower exactly when r < (T*c + d - (T+1)u_top)/(c-d), with
    u_top = ((o+1)a + b)/(o+2). The interval is (T+1)(a-b)/((o+2)(c-d))
    wide, which grows with T, so some T holds an r.

    In the normalized frame the q interval at o is c*o*(o - o_min)/(o + 2b)
    wide, with o_min = 2(p-2) - 2b(p-1) >= -2b, so no o <= o_min has a q.
    When the first o above o_min lies beyond max_candidates, the scan
    would only exhaust its budget at o = max_candidates + 1, and
    SearchBudgetError says so before any o is scanned.

    The returned certificate is produced by check_hdpd on the final tuple.
    Candidates are counted as one per o, one for the kept q, and one per
    r passed over or taken at each T (all of 1..T-1 where none fits);
    SearchBudgetError is raised when that count would exceed max_candidates.
    """
    _require_scenario(params, (Scenario.HD, Scenario.PD), "solve_hdpd")
    _require_at_least(2, p=p)
    _require_at_least(1, max_candidates=max_candidates)
    a, _, c, d = params.as_tuple()
    norm = normalize_params(params)
    if _next_int_above(2 * (p - 2) - 2 * norm.b * (p - 1)) > max_candidates:
        raise SearchBudgetError(f"no certified tuple within {max_candidates} candidates "
                                f"(o={max_candidates + 1})")

    spent = 0

    def charge(context: str, candidates: int = 1) -> None:
        nonlocal spent
        spent += candidates
        if spent > max_candidates:
            raise SearchBudgetError(
                f"no certified tuple within {max_candidates} candidates ({context})"
            )

    for o in count(1):
        charge(f"o={o}")
        u_next = _utility(params, 0, 1, o + 2)
        if min(_utility(params, 1, o - 1, o), _utility(params, 1, o, o + 2)) <= u_next:
            continue  # clique_spread fails
        lower, upper = _hdpd_q_interval(norm, p, o)
        if lower is None:
            continue
        q = max(1, _next_int_above(lower))
        if q < upper:
            charge(f"o={o}, q={q}")
            break

    u_top = _utility(params, 1, o + 1, o + 2)
    for total in count(2):
        r = max(1, _next_int_above((total * c + d - (total + 1) * a) / (c - d)))
        found = r < total and r < (total * c + d - (total + 1) * u_top) / (c - d)
        charge(f"o={o}, q={q}, r+s={total}", r if found else total - 1)
        if found:
            return check_hdpd(params, p, o, q, r, total - r)


# ---------------------------------------------------------------------------
# r-ary tree (HD)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeCertificate(Certificate):
    """Certified structural parameters for build_tree.

    Residuals:

    * spread: (a + r*b)/(r+1) - (c + r*d)/(r+1); a cooperator facing one
      cooperator and r defectors beats a defector in the mirrored spot.
    * retreat: (r*c + d)/(r+1) - a; a defector facing r cooperators beats
      a surrounded cooperator, which peels the cooperating ball back.

    leafward_spread records whether b > (c + r*d)/(r+1) also holds; it
    changes how cooperation behaves near the leaves but not the certified
    period.
    """

    kind = "tree"
    r: int
    q: int
    residuals: Mapping[str, Fraction]
    leafward_spread: bool


def _tree_sides(params: GameParams, r: int) -> dict[str, tuple[Fraction, Fraction]]:
    """(left, right) utilities of each tree inequality, all at degree r + 1:
    spread pits a cooperator against a defector, each with one cooperating
    neighbor; retreat pits a defector with r against a cooperator with r + 1."""
    return {
        "spread": (_utility(params, 1, 1, r + 1), _utility(params, 0, 1, r + 1)),
        "retreat": (_utility(params, 0, r, r + 1), _utility(params, 1, r + 1, r + 1)),
    }


def check_tree(params: GameParams, r: int, q: int) -> TreeCertificate:
    """Verify the two tree inequalities for branching r and depth q.

    Raises ScenarioError unless the quadruple is HD, ValueError for r < 2
    or q < 5, and CertificateFailure otherwise.
    """
    _require_scenario(params, (Scenario.HD,), "check_tree")
    _require_at_least(2, r=r)
    _require_at_least(5, q=q)
    sides = _tree_sides(params, r)
    residuals = {name: left - right for name, (left, right) in sides.items()}
    if any(v <= 0 for v in residuals.values()):
        raise CertificateFailure(f"(r={r}, q={q}) not certified", residuals)
    leafward = _utility(params, 1, 0, r + 1) > sides["spread"][1]
    return TreeCertificate(r=r, q=q, residuals=residuals, leafward_spread=leafward)


def solve_tree(
    params: GameParams, min_period: int, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> TreeCertificate:
    """Pick (r, q) whose tree realizes minimal period 2(q-3) >= min_period.

    q = max(5, ceil(min_period / 2) + 3) is forced by the period formula;
    r is the smallest integer >= 2 satisfying both tree inequalities.
    Multiplying out the degree r + 1, spread holds exactly when
    r(b-d) > c-a and retreat exactly when r(c-a) > a-d; HD has
    c > a > b > d, so each bounds r from below.

    The returned certificate is produced by check_tree. The branchings
    2..r count as candidates, and SearchBudgetError is raised when there
    are more than max_candidates of them.
    """
    _require_scenario(params, (Scenario.HD,), "solve_tree")
    _require_at_least(1, min_period=min_period, max_candidates=max_candidates)
    q = max(5, (min_period + 1) // 2 + 3)
    a, b, c, d = params.as_tuple()
    r = max(2, _next_int_above((c - a) / (b - d)), _next_int_above((a - d) / (c - a)))
    if r - 1 > max_candidates:
        raise SearchBudgetError(
            f"no branching factor within {max_candidates} candidates for {params}"
        )
    return check_tree(params, r, q)
