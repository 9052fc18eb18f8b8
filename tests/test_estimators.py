import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import abicreg as ar
from conftest import random_fixture


class TestLeastSquares:
    def test_exact_data_recovers_truth(self):
        rng = np.random.default_rng(0)
        design = ar.ProblemDesign(rng.standard_normal((8, 3)))
        beta = rng.standard_normal(3)
        problem = design.with_observations(design.a_matrix @ beta)
        est = ar.ls_estimate(problem)
        assert_allclose(est.beta_hat, beta, rtol=1e-10)
        assert est.method is ar.EstimatorMethod.LS

    def test_weighted_normal_equations_hold(self):
        rng = np.random.default_rng(1)
        problem, _ = random_fixture(rng, 10, 4)
        est = ar.ls_estimate(problem)
        # A^T W (y - A beta_hat) = 0
        gradient = problem.a_matrix.T @ problem.w.to_array() @ (problem.y - problem.a_matrix @ est.beta_hat)
        assert_allclose(gradient, np.zeros(4), atol=1e-10)

    def test_singular_normal_matrix_reports_condition(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        problem = ar.InverseProblem(a, [1.0, 2.0, 3.0])
        with pytest.raises(ar.SingularMatrixError) as excinfo:
            ar.ls_estimate(problem)
        assert excinfo.value.condition > 1e12

    def test_square_rank_one_design_raises(self):
        # the normal equations once factored this and returned [0.2015, 0.7985]
        problem = ar.InverseProblem([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
        with pytest.raises(ar.SingularMatrixError) as excinfo:
            ar.ls_estimate(problem)
        assert excinfo.value.condition > 1e12

    def test_rank_rule_is_validate_problems(self):
        # singular values 1 and 1e-12 pass the rule; 1 and 1e-14 fail it
        for smallest, singular in ((1e-12, False), (1e-14, True)):
            problem = ar.InverseProblem(np.diag([1.0, smallest]), [1.0, 1.0])
            checks = ar.validate_problem(problem, ar.default_prior(2)).checks
            passed = next(c.passed for c in checks if c.name == "a_full_column_rank")
            assert passed is not singular
            if singular:
                with pytest.raises(ar.SingularMatrixError):
                    ar.ls_estimate(problem)
            else:
                assert_allclose(ar.ls_estimate(problem).beta_hat, [1.0, 1.0 / smallest])


class TestRegularized:
    def test_hand_value(self):
        problem = ar.InverseProblem([[1.0], [1.0]], [1.0, 1.0])
        est = ar.regularized_estimate(problem, kappa=1.0)
        assert_allclose(est.beta_hat, [2.0 / 3.0])
        assert est.kappa == pytest.approx(1.0)

    def test_kappa_zero_matches_ls(self):
        rng = np.random.default_rng(2)
        problem, prior = random_fixture(rng, 9, 3)
        reg = ar.regularized_estimate(problem, prior.w_beta, kappa=0.0)
        assert_allclose(reg.beta_hat, ar.ls_estimate(problem).beta_hat, rtol=1e-9)

    def test_large_kappa_shrinks_to_zero(self):
        rng = np.random.default_rng(3)
        problem, prior = random_fixture(rng, 9, 3)
        reg = ar.regularized_estimate(problem, prior.w_beta, kappa=1e12)
        assert np.linalg.norm(reg.beta_hat) < 1e-9

    def test_negative_kappa_rejected(self):
        problem = ar.InverseProblem([[1.0], [1.0]], [1.0, 1.0])
        with pytest.raises(ar.DomainError):
            ar.regularized_estimate(problem, kappa=-0.5)
        with pytest.raises(ar.DomainError):
            ar.regularized_estimate(problem, kappa=float("nan"))


class TestBayes:
    def test_hand_value(self):
        problem = ar.InverseProblem([[2.0]], [7.0])
        prior = ar.default_prior(1, mu=[3.0])
        est = ar.bayes_estimate(problem, prior, sigma2=1.0, sigma_beta2=1.0)
        assert_allclose(est.beta_hat, [3.4])
        assert est.sigma2 == pytest.approx(1.0)
        assert est.kappa == pytest.approx(1.0)

    def test_zero_mean_prior_collapses_to_regularized(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            problem, prior = random_fixture(rng, 8, 3, zero_mu=True)
            sigma2 = 10.0 ** rng.uniform(-3, 2)
            sigma_beta2 = 10.0 ** rng.uniform(-3, 2)
            kappa = sigma2 / sigma_beta2
            bayes = ar.bayes_estimate(problem, prior, sigma2, sigma_beta2)
            reg = ar.regularized_estimate(problem, prior.w_beta, kappa)
            assert_allclose(bayes.beta_hat, reg.beta_hat, rtol=1e-9, atol=1e-12)

    def test_tight_prior_pins_estimate_to_mean(self):
        rng = np.random.default_rng(6)
        problem, prior = random_fixture(rng, 8, 3)
        est = ar.bayes_estimate(problem, prior, sigma2=1.0, sigma_beta2=1e-14)
        assert_allclose(est.beta_hat, prior.mu, atol=1e-8)

    def test_nonpositive_variances_rejected(self):
        problem = ar.InverseProblem([[1.0], [1.0]], [1.0, 1.0])
        prior = ar.default_prior(1)
        with pytest.raises(ar.DomainError):
            ar.bayes_estimate(problem, prior, sigma2=0.0, sigma_beta2=1.0)
        with pytest.raises(ar.DomainError):
            ar.bayes_estimate(problem, prior, sigma2=1.0, sigma_beta2=-2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_variances_rejected(self, value):
        problem = ar.InverseProblem([[1.0], [1.0]], [1.0, 1.0])
        prior = ar.default_prior(1)
        with pytest.raises(ar.DomainError):
            ar.bayes_estimate(problem, prior, sigma2=value, sigma_beta2=1.0)
        with pytest.raises(ar.DomainError):
            ar.bayes_estimate(problem, prior, sigma2=1.0, sigma_beta2=value)


class TestEstimateContainer:
    def test_json_payload(self):
        problem = ar.InverseProblem([[1.0], [1.0]], [1.0, 1.0])
        est = ar.regularized_estimate(problem, kappa=1.0)
        doc = est.to_json()
        assert doc["method"] == "regularized"
        assert doc["kappa"] == pytest.approx(1.0)
        assert doc["beta_hat"] == pytest.approx([2.0 / 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ar.FactorizationError):
            ar.Estimate(np.array([np.nan]), ar.EstimatorMethod.LS)


class TestDensities:
    def test_posterior_mode_hand_value(self):
        problem = ar.InverseProblem([[2.0]], [7.0])
        prior = ar.default_prior(1, mu=[3.0])
        # the joint minus the marginal is the posterior, here at its mode
        value = ar.log_joint_density(problem, prior, [3.4], 1.0, 1.0) - ar.log_marginal_density(
            problem, prior, 1.0, 1.0
        )
        assert value == pytest.approx(0.5 * (math.log(5.0) - math.log(2.0 * math.pi)))

    def test_posterior_maximized_at_bayes_estimate(self):
        rng = np.random.default_rng(8)
        problem, prior = random_fixture(rng, 7, 2)
        sigma2, sigma_beta2 = 0.5, 1.5
        mode = ar.bayes_estimate(problem, prior, sigma2, sigma_beta2).beta_hat
        # the joint is the posterior plus a constant in beta
        at_mode = ar.log_joint_density(problem, prior, mode, sigma2, sigma_beta2)
        for _ in range(10):
            other = mode + 0.1 * rng.standard_normal(2)
            assert ar.log_joint_density(problem, prior, other, sigma2, sigma_beta2) < at_mode
