import math

import numpy as np
import pytest

import abicreg as ar
from abicreg.selection import DEFAULT_REL_TOL, GRID_POINTS
from conftest import random_fixture


class TestMinimizeScalar:
    def test_quadratic_in_log_kappa(self):
        target = 10.0 ** 1.7

        def objective(kappa):
            return (math.log10(kappa) - 1.7) ** 2

        found = ar.minimize_scalar(objective)
        assert found.boundary_flag is ar.BoundaryFlag.INTERIOR
        assert found.kappa_hat == pytest.approx(target, rel=1e-5)
        assert found.objective_at_min == pytest.approx(0.0, abs=1e-10)
        assert len(found.trace) == GRID_POINTS

    def test_rel_tol_controls_precision(self):
        def objective(kappa):
            return (math.log10(kappa) + 3.25) ** 2

        coarse = ar.minimize_scalar(objective, rel_tol=1e-2)
        fine = ar.minimize_scalar(objective, rel_tol=1e-9)
        assert abs(fine.kappa_hat / 10.0 ** -3.25 - 1.0) < 1e-8
        assert abs(coarse.kappa_hat / 10.0 ** -3.25 - 1.0) < 1e-1

    def test_increasing_objective_flags_lower_edge(self):
        found = ar.minimize_scalar(lambda kappa: math.log10(kappa))
        assert found.boundary_flag is ar.BoundaryFlag.LOWER_EDGE
        assert found.kappa_hat == pytest.approx(1e-12, rel=1e-12)

    def test_decreasing_objective_flags_upper_edge(self):
        found = ar.minimize_scalar(lambda kappa: -math.log10(kappa))
        assert found.boundary_flag is ar.BoundaryFlag.UPPER_EDGE
        assert found.kappa_hat == pytest.approx(1e12, rel=1e-12)

    def test_tie_goes_to_smaller_kappa(self):
        # flat well between 1e-2 and 1e2, both walls equal: the first
        # grid minimum (smallest kappa) must win
        def objective(kappa):
            return max(abs(math.log10(kappa)) - 2.0, 0.0)

        found = ar.minimize_scalar(objective)
        assert found.objective_at_min == 0.0
        assert found.kappa_hat <= 1e-1

    def test_custom_bracket(self):
        found = ar.minimize_scalar(lambda k: (math.log10(k) - 1.0) ** 2, log10_bracket=(0.0, 2.0))
        assert found.kappa_hat == pytest.approx(10.0, rel=1e-5)

    def test_bad_bracket_rejected(self):
        with pytest.raises(ar.DomainError):
            ar.minimize_scalar(lambda k: k, log10_bracket=(3.0, 3.0))
        with pytest.raises(ar.DomainError):
            ar.minimize_scalar(lambda k: k, rel_tol=0.0)
        # 10 ** 400 overflows and 10 ** -400 underflows to zero
        with pytest.raises(ar.DomainError):
            ar.minimize_scalar(lambda k: k, log10_bracket=(-400.0, 400.0))

    def test_mostly_non_finite_grid_raises(self):
        def objective(kappa):
            return math.nan if kappa < 1e6 else 1.0

        with pytest.raises(ar.EvaluationError):
            ar.minimize_scalar(objective)

    def test_sparse_non_finite_points_are_tolerated(self):
        def objective(kappa):
            if 1e-3 < kappa < 1e-2:
                return math.inf
            return (math.log10(kappa) - 2.0) ** 2

        found = ar.minimize_scalar(objective)
        assert found.kappa_hat == pytest.approx(100.0, rel=1e-5)


class TestSelectCase1:
    def test_recovers_brute_force_minimum(self):
        rng = np.random.default_rng(30)
        problem, prior = random_fixture(rng, 12, 4)
        result = ar.select_case1(problem, prior)
        grid = 10.0 ** np.linspace(-12, 12, 20001)
        workspace = ar.MarginalWorkspace(problem, prior.w_beta)
        values = ar.MarginalObjective(workspace, prior)(grid).total[:, 0]
        best = grid[int(np.argmin(values))]
        if result.boundary_flag is ar.BoundaryFlag.INTERIOR:
            assert result.kappa_hat == pytest.approx(best, rel=5e-3)
        assert result.objective_at_min <= min(values) + 1e-9

    def test_variance_recomputed_at_optimum(self):
        rng = np.random.default_rng(31)
        problem, prior = random_fixture(rng, 10, 3)
        result = ar.select_case1(problem, prior)
        assert result.sigma2_hat == ar.sigma2_hat(problem, prior, result.kappa_hat)
        assert result.sigma_beta2_hat == pytest.approx(
            result.sigma2_hat / result.kappa_hat, rel=1e-12
        )

    def test_zero_residual_is_degenerate(self):
        rng = np.random.default_rng(32)
        design = ar.ProblemDesign(rng.standard_normal((8, 2)))
        mu = rng.standard_normal(2)
        problem = design.with_observations(design.a_matrix @ mu)
        prior = ar.default_prior(2, mu=mu)
        with pytest.raises(ar.DegenerateProblemError):
            ar.select_case1(problem, prior)

    def test_case_tag_reflects_mu(self):
        rng = np.random.default_rng(33)
        problem, prior = random_fixture(rng, 8, 2)
        assert ar.select_case1(problem, prior).case_tag is ar.ObjectiveCase.CASE1
        zeroed = prior.with_zero_mean()
        result = ar.select_case1(problem, zeroed)
        assert result.case_tag is ar.ObjectiveCase.CASE1_ZERO_MEAN
        assert result.mu_assumed_zero


    def test_scale_invariant(self):
        # y -> c y leaves kappa_hat alone and scales sigma2_hat by c^2,
        # also where r^T E^-1 r itself leaves the float range
        design, exact = ar.phillips_problem(32)
        y, _ = ar.synthesize_observations(design, exact, sigma2=1e-4, seed=3)
        prior = ar.default_prior(design.t)
        base = ar.select_case1(design.with_observations(y), prior)
        for scale in (1e150, 1e160, 1e-200):
            result = ar.select_case1(design.with_observations(y * scale), prior)
            assert result.boundary_flag is ar.BoundaryFlag.INTERIOR
            assert result.kappa_hat == pytest.approx(base.kappa_hat, rel=DEFAULT_REL_TOL)
            # at 1e160 and 1e-200 both sides overflow to inf or underflow to 0
            assert result.sigma2_hat == pytest.approx(
                base.sigma2_hat * scale * scale, rel=DEFAULT_REL_TOL
            )
        # a power of two scales r exactly, so the search sees the same values
        for scale in (2.0**500, 2.0**531, 2.0**-664):
            result = ar.select_case1(design.with_observations(y * scale), prior)
            assert result.kappa_hat == base.kappa_hat
            assert result.boundary_flag is base.boundary_flag


class TestSelectCase2:
    def test_matches_direct_grid(self):
        rng = np.random.default_rng(34)
        problem, prior = random_fixture(rng, 12, 4)
        sigma2 = 0.5
        result = ar.select_case2(problem, prior, sigma2)
        grid = 10.0 ** np.linspace(-12, 12, 20001)
        workspace = ar.MarginalWorkspace(problem, prior.w_beta)
        values = ar.MarginalObjective(workspace, prior, sigma2)(grid).total[:, 0]
        best = grid[int(np.argmin(values))]
        if result.boundary_flag is ar.BoundaryFlag.INTERIOR:
            assert result.kappa_hat == pytest.approx(best, rel=5e-3)
        assert result.objective_at_min <= min(values) + 1e-9

    def test_sigma2_echoed_and_prior_variance_derived(self):
        rng = np.random.default_rng(35)
        problem, prior = random_fixture(rng, 9, 3)
        result = ar.select_case2(problem, prior, 0.25)
        assert result.sigma2_hat == pytest.approx(0.25)
        assert result.sigma_beta2_hat == pytest.approx(0.25 / result.kappa_hat, rel=1e-12)

    def test_nonpositive_sigma2_rejected(self):
        rng = np.random.default_rng(36)
        problem, prior = random_fixture(rng, 8, 2)
        with pytest.raises(ar.DomainError):
            ar.select_case2(problem, prior, 0.0)


class TestNewtonRefinement:
    """Grid, then safeguarded Newton steps in ln kappa on the exact slope and curvature."""

    @pytest.mark.parametrize("sigma2", [None, 1e-4], ids=["case1", "case2"])
    def test_slope_vanishes_at_criterion_07_minima(self, sigma2):
        # criterion 07's problem: Phillips 32, sigma2 1e-4, seed 3, zero prior mean
        design, exact = ar.phillips_problem(32)
        y, _ = ar.synthesize_observations(design, exact, 1e-4, seed=3)
        problem, prior = design.with_observations(y), ar.default_prior(32)
        if sigma2 is None:
            result = ar.select_case1(problem, prior)
        else:
            result = ar.select_case2(problem, prior, sigma2)
        assert result.boundary_flag is ar.BoundaryFlag.INTERIOR
        objective = ar.MarginalObjective(ar.MarginalWorkspace(problem), prior, sigma2)
        value, slope, curvature = objective.search_slopes(np.array([result.kappa_hat]), np.array([0]))
        # a Newton step from kappa_hat would be below the tolerance
        assert curvature[0] > 0
        assert abs(slope[0]) <= math.log(1.0 + DEFAULT_REL_TOL) * curvature[0]
        assert result.objective_at_min == value[0] + objective.offset[0]
        assert result.objective_at_min <= min(v for _, v in result.trace)
        assert result.ln_kappa_width == math.sqrt(2.0 / curvature[0])

    def test_edge_has_no_width(self):
        design, exact = ar.spectrum_problem(48, 12, decay=4.0, seed=1)
        y, _ = ar.synthesize_observations(design, exact, 1e-6, seed=4)
        result = ar.select_case2(design.with_observations(y), ar.default_prior(12, mu=exact), 1e-6)
        assert result.boundary_flag is ar.BoundaryFlag.UPPER_EDGE
        assert result.ln_kappa_width is None
        assert result.to_json()["ln_kappa_width"] is None


class TestSweepMatchesTrace:
    @pytest.mark.parametrize("mu_zero", [False, True])
    @pytest.mark.parametrize("kind", ["phillips32", "spectrum48x12"])
    def test_sweep_objective_is_the_selection_trace(self, kind, mu_zero):
        if kind == "phillips32":
            design, exact = ar.phillips_problem(32)
        else:
            design, exact = ar.spectrum_problem(48, 12, decay=4.0, seed=1)
        y, _ = ar.synthesize_observations(design, exact, sigma2=1e-4, seed=4)
        problem = design.with_observations(y)
        prior = ar.default_prior(design.t, mu=None if mu_zero else exact)
        for case, sigma2 in ((1, None), (2, 1e-4)):
            if case == 1:
                trace = ar.select_case1(problem, prior).trace
            else:
                trace = ar.select_case2(problem, prior, sigma2).trace
            rows = ar.sweep_objective(problem, prior, case=case, sigma2=sigma2, points=GRID_POINTS)
            assert [row.kappa for row in rows] == [kappa for kappa, _ in trace]
            swept = [row.objective if math.isfinite(row.objective) else math.inf for row in rows]
            assert swept == [value for _, value in trace]


class TestSelectionResultJson:
    def test_payload_shape(self):
        rng = np.random.default_rng(37)
        problem, prior = random_fixture(rng, 8, 2)
        doc = ar.select_case1(problem, prior).to_json()
        assert set(doc) == {
            "kappa_hat",
            "ln_kappa_width",
            "sigma2_hat",
            "sigma_beta2_hat",
            "objective_at_min",
            "boundary_flag",
            "mu_assumed_zero",
            "case",
            "trace",
        }
        assert doc["boundary_flag"] in {"interior", "lower-edge", "upper-edge"}
        width = doc["ln_kappa_width"]
        assert width is None or (math.isfinite(width) and width > 0)
        assert len(doc["trace"]) == GRID_POINTS
        for kappa, value in doc["trace"]:
            assert value is None or math.isfinite(value)
