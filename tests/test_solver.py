from fractions import Fraction

import pytest

from evocycle import (
    CertificateFailure,
    GameParams,
    ScenarioError,
    SearchBudgetError,
    check_fcsh,
    check_hdpd,
    check_tree,
    solve_fcsh,
    solve_hdpd,
    solve_tree,
)
from evocycle.solver import hdpd_q_bounds, hdpd_slopes

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

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="max_candidates must be an integer >= 1"):
            solve_fcsh(FC_EXAMPLE, 2, max_candidates=0)


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
