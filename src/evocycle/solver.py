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

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import floor
from typing import ClassVar, Mapping

from .game import GameParams, Scenario, classify_scenario, normalize_params

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

logger = logging.getLogger(__name__)

DEFAULT_MAX_CANDIDATES = 10**6


class SolverError(Exception):
    """Base class for certificate and search failures."""


class ScenarioError(SolverError):
    """The payoff quadruple is not in a scenario this construction serves."""


class CertificateFailure(SolverError):
    """At least one inequality residual is nonpositive.

    `residuals` maps every inequality name to its exact residual;
    `violated` lists the names with residual <= 0.
    """

    def __init__(self, message: str, residuals: Mapping[str, Fraction]) -> None:
        self.residuals = dict(residuals)
        self.violated = [name for name, value in self.residuals.items() if value <= 0]
        super().__init__(f"{message}: violated {', '.join(self.violated)}")


class SearchBudgetError(SolverError):
    """The candidate budget ran out before a certified tuple appeared."""


def _require_scenario(params: GameParams, allowed: tuple[Scenario, ...], what: str) -> None:
    scenario = classify_scenario(params)
    if scenario not in allowed:
        names = " or ".join(s.value for s in allowed)
        raise ScenarioError(
            f"{what} needs a {names} quadruple, got {scenario.value} for {params}"
        )


def _require_at_least(minimum: int, **values: int) -> None:
    for name, value in values.items():
        if not isinstance(value, int) or value < minimum:
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


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
    a, b, c, d = params.as_tuple()
    u_far = Fraction(s * c + d, 1) / (s + 1)
    u_near = Fraction(a + s * b, 1) / (s + 1)
    u_center_full = Fraction((q + 2) * a + r * b, 1) / (q + r + 2)
    u_center_lean = Fraction(q * a + (r + 2) * b, 1) / (q + r + 2)
    u_feeler_full = Fraction((2 * p - 1) * c + d, 1) / (2 * p)
    u_feeler_short = Fraction((2 * p - 3) * c + 3 * d, 1) / (2 * p)
    u_outer = Fraction(c + (q + r - 1) * d, 1) / (q + r)
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
    form. Then scan r = 1..m-1 with q = m - r for the two chain
    inequalities (center_spread and feeler_reset; the remaining links of
    the chain follow from the margin conditions). If no r works the search
    escalates m by one, logging the escalation, since every larger m keeps
    the margin conditions. Finally s is the smallest integer satisfying
    gadget_inner together with (s*c + d)/(s+1) > ((2p-1)c + d)/(2p), which
    implies gadget_center through feeler_reset.

    The returned certificate is produced by check_fcsh on the final tuple.
    Raises SearchBudgetError after max_candidates candidate evaluations.
    """
    _require_scenario(params, (Scenario.FC, Scenario.SH), "solve_fcsh")
    _require_at_least(2, p=p)
    a, b, c, d = params.as_tuple()

    m_start = max(
        1,
        _next_int_above(6 * p * (a - b) / (c - d) - 2),
        _next_int_above(Fraction(2 * p, 2 * p - 3)),
    )
    assert 6 * (a - b) / (m_start + 2) < (c - d) / p
    assert (c + (m_start - 1) * d) / m_start < ((2 * p - 3) * c + 3 * d) / (2 * p)

    spent = 0
    chosen: tuple[int, int] | None = None
    for m in count(m_start):
        for r in range(1, m):
            spent += 1
            if spent > max_candidates:
                raise SearchBudgetError(
                    f"no (q, r) within {max_candidates} candidates (reached m={m})"
                )
            q = m - r
            residuals = _fcsh_residuals(params, p, q, r, s=1)
            if residuals["feeler_reset"] > 0 and residuals["center_spread"] > 0:
                chosen = (q, r)
                break
        if chosen is not None:
            break
        logger.info("no feasible r for m=%d with %s, p=%d; escalating m", m, params, p)

    q, r = chosen
    beta = Fraction((2 * p - 1) * c + d, 1) / (2 * p)
    s = max(
        1,
        _next_int_above((a - d) / (c - b)),
        _next_int_above((beta - d) / (c - beta)),
    )
    return check_fcsh(params, p, q, r, s)


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
    a, b, c, d = params.as_tuple()
    u_first = Fraction((o - 1) * a + b, 1) / o
    u_boundary = Fraction(o * a + 2 * b, 1) / (o + 2)
    u_next = Fraction(c + (o + 1) * d, 1) / (o + 2)
    hub_deg = (p - 1) * o + q + 1
    u_hub_early = Fraction((p - 2) * o * c + (o + q + 1) * d, 1) / hub_deg
    u_hub_full = Fraction((p - 1) * o * c + (q + 1) * d, 1) / hub_deg
    u_anchor = Fraction(s * c + (r + 1) * d, 1) / (s + r + 1)
    u_top = Fraction((o + 1) * a + b, 1) / (o + 2)
    return {
        "clique_spread": min(u_first, u_boundary) - u_next,
        "spread_over_hub": u_boundary - u_hub_early,
        "hub_reset": u_hub_full - a,
        "anchor_lower": u_anchor - u_top,
        "anchor_upper": a - u_anchor,
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
    norm = normalize_params(params)
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
    such o the normalized bounds of hdpd_q_bounds frame the q scan; o with
    o + 2b <= 0 in the normalized frame are skipped outright because
    spread_over_hub is then unsatisfiable. The smallest integer q in the
    interval that passes spread_over_hub and hub_reset directly is kept.
    Then (r, s) are scanned in order of r + s (ties by smaller r) until
    the anchor utility lands strictly between its two bounds; such a pair
    always exists because the target interval is open and nonempty.

    The returned certificate is produced by check_hdpd on the final tuple.
    Raises SearchBudgetError after max_candidates candidate evaluations.
    """
    _require_scenario(params, (Scenario.HD, Scenario.PD), "solve_hdpd")
    _require_at_least(2, p=p)

    spent = 0

    def charge(context: str) -> None:
        nonlocal spent
        spent += 1
        if spent > max_candidates:
            raise SearchBudgetError(
                f"no certified tuple within {max_candidates} candidates ({context})"
            )

    for o in count(1):
        charge(f"o={o}")
        if _hdpd_residuals(params, p, o, q=1, r=1, s=1)["clique_spread"] <= 0:
            continue
        lower, upper = hdpd_q_bounds(params, p, o)
        if lower is None:
            continue
        q_found: int | None = None
        q = max(1, _next_int_above(lower))
        while Fraction(q) < upper:
            charge(f"o={o}, q={q}")
            trial = _hdpd_residuals(params, p, o, q, r=1, s=1)
            if trial["spread_over_hub"] > 0 and trial["hub_reset"] > 0:
                q_found = q
                break
            q += 1
        if q_found is None:
            continue
        for total in count(2):
            for r in range(1, total):
                charge(f"o={o}, q={q_found}, r+s={total}")
                s = total - r
                trial = _hdpd_residuals(params, p, o, q_found, r, s)
                if trial["anchor_lower"] > 0 and trial["anchor_upper"] > 0:
                    return check_hdpd(params, p, o, q_found, r, s)


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


def check_tree(params: GameParams, r: int, q: int) -> TreeCertificate:
    """Verify the two tree inequalities for branching r and depth q.

    Raises ScenarioError unless the quadruple is HD, ValueError for r < 2
    or q < 5, and CertificateFailure otherwise.
    """
    _require_scenario(params, (Scenario.HD,), "check_tree")
    _require_at_least(2, r=r)
    _require_at_least(5, q=q)
    a, b, c, d = params.as_tuple()
    residuals = {
        "spread": Fraction((a + r * b) - (c + r * d), 1) / (r + 1),
        "retreat": Fraction(r * c + d, 1) / (r + 1) - a,
    }
    if any(v <= 0 for v in residuals.values()):
        raise CertificateFailure(f"(r={r}, q={q}) not certified", residuals)
    leafward = b > Fraction(c + r * d, 1) / (r + 1)
    return TreeCertificate(r=r, q=q, residuals=residuals, leafward_spread=leafward)


def solve_tree(
    params: GameParams, min_period: int, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> TreeCertificate:
    """Pick (r, q) whose tree realizes minimal period 2(q-3) >= min_period.

    q = max(5, ceil(min_period / 2) + 3) is forced by the period formula;
    r is the smallest integer >= 2 satisfying both tree inequalities.

    The returned certificate is produced by check_tree. Raises
    SearchBudgetError if no r certifies within max_candidates attempts.
    """
    _require_scenario(params, (Scenario.HD,), "solve_tree")
    _require_at_least(1, min_period=min_period)
    a, b, c, d = params.as_tuple()
    q = max(5, (min_period + 1) // 2 + 3)
    for r in range(2, 2 + max_candidates):
        if a + r * b > c + r * d and a * (r + 1) < r * c + d:
            return check_tree(params, r, q)
    raise SearchBudgetError(
        f"no branching factor within {max_candidates} candidates for {params}"
    )
