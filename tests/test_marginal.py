import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import abicreg as ar
from conftest import random_fixture, random_spd, tiny_fixture

LN5 = math.log(5.0)


class TestTinyFixtureValues:
    """Closed-form values for A=[[1],[1]], W=I, W_beta=[1], y=[1,1], mu=0."""

    def setup_method(self):
        _, self.problem, self.prior, _ = tiny_fixture()

    def test_split_terms_at_half(self):
        value = ar.abic_case1(self.problem, self.prior, kappa=0.5)
        assert value.quad_term == pytest.approx(0.4, rel=1e-12)
        assert value.logdet_term == pytest.approx(LN5, rel=1e-12)

    def test_split_terms_at_five(self):
        value = ar.abic_case1(self.problem, self.prior, kappa=5.0)
        assert value.quad_term == pytest.approx(10.0 / 7.0, rel=1e-12)
        assert value.logdet_term == pytest.approx(math.log(1.4), rel=1e-12)

    def test_log_marginal(self):
        value = ar.log_marginal_density(self.problem, self.prior, 1.0, 2.0)
        expected = -math.log(2.0 * math.pi) - 0.5 * LN5 - 0.2
        assert value == pytest.approx(expected, rel=1e-12)

    def test_negative_log_likelihoods(self):
        expected = LN5 + 0.4
        assert ar.neg_log_lik_variances(self.problem, self.prior, 1.0, 2.0) == pytest.approx(
            expected, rel=1e-12
        )
        assert ar.neg_log_lik_kappa(self.problem, self.prior, 1.0, 0.5) == pytest.approx(
            expected, rel=1e-12
        )

    def test_sigma2_hat(self):
        assert ar.sigma2_hat(self.problem, self.prior, 0.5) == pytest.approx(0.2, rel=1e-12)

    def test_sigma2_hat_of_exact_fit_is_zero(self):
        prior = ar.default_prior(1, mu=[1.0])
        assert ar.sigma2_hat(self.problem, prior, 0.5) == 0.0

    def test_case1_objective(self):
        value = ar.abic_case1(self.problem, self.prior, 0.5)
        assert value.total == pytest.approx(2.0 * math.log(0.4) + LN5, rel=1e-12)
        assert value.quad_term == pytest.approx(0.4)
        assert value.logdet_term == pytest.approx(LN5)
        assert value.case_tag is ar.ObjectiveCase.CASE1_ZERO_MEAN

    def test_case2_objective(self):
        value = ar.abic_case2(self.problem, self.prior, 1.0, 0.5)
        assert value.total == pytest.approx(0.4 + LN5, rel=1e-12)
        assert value.sigma2 == pytest.approx(1.0)


class TestMarginalCovariance:
    def test_explicit_formula(self):
        rng = np.random.default_rng(10)
        problem, prior = random_fixture(rng, 6, 2)
        sigma2, sigma_beta2 = 0.3, 1.7
        cov = ar.marginal_covariance(problem, prior, sigma2, sigma_beta2)
        expected = np.linalg.inv(problem.w.to_array()) * sigma2 + (
            problem.a_matrix @ np.linalg.inv(prior.w_beta.to_array()) @ problem.a_matrix.T
        ) * sigma_beta2
        assert_allclose(cov, expected, rtol=1e-10)

    def test_scaled_cofactor_identity(self):
        rng = np.random.default_rng(11)
        problem, prior = random_fixture(rng, 6, 3)
        sigma2, sigma_beta2 = 0.9, 0.4
        kappa = sigma2 / sigma_beta2
        ops = ar.MarginalWorkspace(problem, prior.w_beta).operators(kappa)
        # Sigma = sigma2 * E
        cofactor = ar.marginal_covariance(problem, prior, sigma2, sigma_beta2) / sigma2
        residual = problem.y - problem.a_matrix @ prior.mu
        quad = residual @ np.linalg.solve(cofactor, residual)
        assert ops.quad_form(residual) == pytest.approx(quad, rel=1e-10)
        assert ops.logdet == pytest.approx(np.linalg.slogdet(cofactor)[1], rel=1e-10)

    def test_zero_prior_variance_collapses_to_noise(self):
        rng = np.random.default_rng(12)
        problem, prior = random_fixture(rng, 5, 2)
        cov = ar.marginal_covariance(problem, prior, 2.0, 0.0)
        assert_allclose(cov, np.linalg.inv(problem.w.to_array()) * 2.0, rtol=1e-10)


def _dense_cofactor(problem, prior, kappa):
    """E = W^-1 + A W_beta^-1 A^T / kappa, assembled densely."""
    return ar.marginal_covariance(problem, prior, 1.0, 1.0 / kappa)


class TestOperatorPaths:
    def test_spectral_operators_match_dense_cofactor(self):
        # the spectral operators against numpy on the explicit dense E
        rng = np.random.default_rng(13)
        for trial in range(15):
            n = int(rng.integers(3, 30))
            t = int(rng.integers(1, min(n, 7) + 1))
            problem, prior = random_fixture(rng, n, t)
            kappa = 10.0 ** rng.uniform(-4, 4)
            ops = ar.MarginalWorkspace(problem, prior.w_beta).operators(kappa)
            cofactor = _dense_cofactor(problem, prior, kappa)
            residual = problem.y - problem.a_matrix @ prior.mu
            solved = np.linalg.solve(cofactor, residual)
            assert ops.logdet == pytest.approx(np.linalg.slogdet(cofactor)[1], rel=1e-9)
            assert ops.quad_form(residual) == pytest.approx(residual @ solved, rel=1e-9)
            expected_trace = np.trace(np.linalg.solve(cofactor, np.linalg.inv(problem.w.to_array())))
            assert ops.expected_noise_quad() == pytest.approx(expected_trace, rel=1e-9)

    def test_expected_noise_quad_is_trace(self):
        rng = np.random.default_rng(17)
        problem, prior = random_fixture(rng, 6, 2)
        ops = ar.MarginalWorkspace(problem, prior.w_beta).operators(0.7)
        cofactor = _dense_cofactor(problem, prior, 0.7)
        expected = np.trace(np.linalg.solve(cofactor, np.linalg.inv(problem.w.to_array())))
        assert ops.expected_noise_quad() == pytest.approx(expected, rel=1e-10)

    def test_nonpositive_kappa_rejected(self):
        problem = ar.InverseProblem([[1.0], [1.0]], [1.0, 1.0])
        workspace = ar.MarginalWorkspace(problem)
        with pytest.raises(ar.DomainError):
            workspace.operators(0.0)


def _lowest_kappa_fixtures():
    """Phillips 16 as generated with seed 1, with W_beta = I and 1e-10 I, and a
    12 x 6 design with dense W and W_beta = 1e-12 times a dense SPD matrix."""
    design, exact = ar.phillips_problem(16)
    problem = design.with_observations(ar.synthesize_observations(design, exact, 1e-4, seed=1)[0])
    rng = np.random.default_rng(42)
    dense, prior = random_fixture(rng, 12, 6, cond=1e4)
    return [
        (problem, ar.default_prior(16, mu=exact)),
        (problem, ar.default_prior(16, mu=exact, w_beta=1e-10 * np.eye(16))),
        (dense, ar.default_prior(6, mu=prior.mu, w_beta=1e-12 * prior.w_beta.matrix)),
    ]


class TestLowestKappa:
    """ln det E at the bottom of the float range, where s^2 / kappa overflows,
    against 50-digit mpmath: sum ln(1 + s^2 / kappa) - ln det W with s^2 the
    eigenvalues of L_b^-1 A^T W A L_b^-T."""

    @pytest.mark.parametrize("kappa", [5e-324, 1e-307, 1e-300])
    def test_logdet_high_precision(self, kappa):
        with mp.workdps(50):
            for problem, prior in _lowest_kappa_fixtures():
                a = mp.matrix(problem.a_matrix.tolist())
                w = mp.matrix(problem.w.to_array().tolist())
                half = mp.inverse(mp.cholesky(mp.matrix(prior.w_beta.to_array().tolist())))
                s2 = mp.eigsy(half * a.T * w * a * half.T, eigvals_only=True)
                exact = mp.fsum(mp.log(1 + x / mp.mpf(kappa)) for x in s2) - mp.log(mp.det(w))
                ops = ar.MarginalWorkspace(problem, prior.w_beta).operators(kappa)
                case1 = ar.abic_case1(problem, prior, kappa)
                for value in (ops.logdet, case1.logdet_term):
                    assert float(abs(value - exact) / abs(exact)) <= 1e-13


class TestNonFiniteParameters:
    """sigma2 and kappa must satisfy 0 < x < inf; abic_case2 with sigma2 = inf
    used to return the ln det E term alone."""

    @pytest.fixture
    def fixture(self):
        _, problem, prior, _ = tiny_fixture()
        return problem, prior, ar.MarginalWorkspace(problem)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejected(self, fixture, value):
        problem, prior, workspace = fixture
        calls = [
            lambda: ar.MarginalObjective(workspace, prior, sigma2=value),
            lambda: ar.MarginalObjective(workspace, prior)([0.5, value]),
            lambda: workspace.operators(value),
            lambda: ar.abic_case1(problem, prior, value),
            lambda: ar.abic_case2(problem, prior, value, 0.5),
            lambda: ar.abic_case2(problem, prior, 1.0, value),
            lambda: ar.sigma2_hat(problem, prior, value),
            lambda: ar.marginal_covariance(problem, prior, value, 1.0),
            lambda: ar.log_marginal_density(problem, prior, 1.0, value),
        ]
        for call in calls:
            with pytest.raises(ar.DomainError):
                call()


class TestSvdFailure:
    def test_linalg_error_becomes_factorization_error(self, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        _, problem, _, _ = tiny_fixture()
        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(ar.FactorizationError, match="did not converge"):
            ar.MarginalWorkspace(problem)
        with pytest.raises(ar.FactorizationError, match="did not converge"):
            ar.condition_estimate(problem)


def _dense_mp(problem, prior):
    """mpmath copies (W, W_beta, A, r) of a problem, at the caller's precision."""
    return (
        mp.matrix(problem.w.to_array().tolist()),
        mp.matrix(prior.w_beta.to_array().tolist()),
        mp.matrix(problem.a_matrix.tolist()),
        mp.matrix((problem.y - problem.a_matrix @ prior.mu).tolist()),
    )


def _dense_objective_mp(problem, prior, sigma2, kappa):
    """The Case-1 or Case-2 objective at an mpmath kappa, from dense matrices: with
    M = kappa W_beta + A^T W A and b = A^T W r, Woodbury and the determinant lemma give
    q = r^T W r - b^T M^-1 b and ln det E = ln det M - t ln kappa - ln det W_beta - ln det W."""
    w, w_beta, a, r = _dense_mp(problem, prior)
    gram, b = a.T * w * a, a.T * w * r
    m = kappa * w_beta + gram
    quad = (r.T * w * r)[0] - (b.T * mp.lu_solve(m, b))[0]
    logdet = mp.log(mp.det(m)) - problem.t * mp.log(kappa) - mp.log(mp.det(w_beta)) - mp.log(mp.det(w))
    return (problem.n * mp.log(quad) if sigma2 is None else quad / sigma2) + logdet


def _slope_reference(problem, prior, sigma2, kappa):
    """(f', f'', scale of f' terms, scale of f'' terms) in ln kappa of
    _dense_objective_mp at 50 digits, by differentiating its two parts in closed form:

        q'  = kappa b^T M^-1 W_beta M^-1 b
        q'' = q' - 2 kappa^2 b^T M^-1 W_beta M^-1 W_beta M^-1 b
        (ln det E)'  = -tr(M^-1 A^T W A)
        (ln det E)'' = kappa tr(M^-1 W_beta M^-1 A^T W A)

    none of which cancels at either end of the float range."""
    with mp.workdps(50):
        w, w_beta, a, r = _dense_mp(problem, prior)
        kappa = mp.mpf(kappa)
        gram, b = a.T * w * a, a.T * w * r
        m_inv = mp.inverse(kappa * w_beta + gram)
        quad = (r.T * w * r)[0] - (b.T * m_inv * b)[0]
        left = m_inv * w_beta * m_inv
        slope_q = kappa * (b.T * left * b)[0]
        curve_q = slope_q - 2 * kappa**2 * (b.T * left * w_beta * m_inv * b)[0]
        slope_l = -sum((m_inv * gram)[i, i] for i in range(problem.t))
        curve_l = kappa * sum((left * gram)[i, i] for i in range(problem.t))
        if sigma2 is None:
            ratio = slope_q / quad
            terms = (problem.n * ratio, problem.n * curve_q / quad, -problem.n * ratio**2)
        else:
            terms = (slope_q / sigma2, curve_q / sigma2)
        slope = terms[0] + slope_l
        curvature = sum(terms[1:]) + curve_l
        scales = (abs(terms[0]) + abs(slope_l), sum(abs(x) for x in terms[1:]) + abs(curve_l))
        return [float(x) for x in (slope, curvature, *scales)]


def _slope_fixture():
    """Dense W and W_beta, with A scaled so that s^2 / kappa overflows at kappa = 1e-307."""
    problem, prior = random_fixture(np.random.default_rng(51), 7, 4, cond=1e2)
    return ar.InverseProblem(10.0 * problem.a_matrix, problem.y, problem.w), prior


class TestSlopes:
    """f' and f'' in ln kappa (marginal._reduce_slopes) against 50-digit mpmath."""

    KAPPAS = (1e-307, 1e-12, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6, 1e12)

    @pytest.mark.parametrize("sigma2", [None, 0.3], ids=["case1", "case2"])
    def test_match_mpmath_over_the_bracket(self, sigma2):
        problem, prior = _slope_fixture()
        workspace = ar.MarginalWorkspace(problem, prior.w_beta)
        # at the lowest kappa s^2 / kappa overflows for the largest s only
        with np.errstate(over="ignore"):
            ratio = workspace.s2 / 1e-307
        assert np.isinf(ratio[0]) and np.isfinite(ratio[-1])
        objective = ar.MarginalObjective(workspace, prior, sigma2)
        columns = np.zeros(len(self.KAPPAS), dtype=int)
        _, slope, curvature = objective.search_slopes(np.array(self.KAPPAS), columns)
        for j, kappa in enumerate(self.KAPPAS):
            exact_slope, exact_curv, slope_scale, curv_scale = _slope_reference(
                problem, prior, sigma2, kappa
            )
            # rounding relative to the size of the terms, which may cancel
            assert abs(slope[j] - exact_slope) <= 1e-13 * slope_scale, kappa
            assert abs(curvature[j] - exact_curv) <= 1e-13 * curv_scale, kappa

    @pytest.mark.parametrize("sigma2", [None, 0.3], ids=["case1", "case2"])
    def test_reference_is_the_objectives_derivative(self, sigma2):
        # the closed forms above against mpmath's numerical derivatives of f(e^u)
        problem, prior = _slope_fixture()
        for kappa in (1e-3, 1.0, 1e3):
            exact_slope, exact_curv, _, _ = _slope_reference(problem, prior, sigma2, kappa)
            with mp.workdps(50):
                u = mp.log(mp.mpf(kappa))
                derivatives = mp.diffs(
                    lambda v: _dense_objective_mp(problem, prior, sigma2, mp.exp(v)), u, 2
                )
                _, slope, curvature = (float(x) for x in derivatives)
            assert slope == pytest.approx(exact_slope, rel=1e-14, abs=1e-14)
            assert curvature == pytest.approx(exact_curv, rel=1e-14, abs=1e-14)


class TestObjectiveRelations:
    def test_two_parameterizations_agree(self):
        rng = np.random.default_rng(18)
        for trial in range(10):
            problem, prior = random_fixture(rng, 9, 3)
            sigma2 = 10.0 ** rng.uniform(-3, 2)
            kappa = 10.0 ** rng.uniform(-3, 3)
            by_kappa = ar.neg_log_lik_kappa(problem, prior, sigma2, kappa)
            by_variances = ar.neg_log_lik_variances(problem, prior, sigma2, sigma2 / kappa)
            assert by_kappa == pytest.approx(by_variances, rel=1e-10)

    def test_concentration_identity(self):
        # plugging the closed-form variance into the likelihood differs
        # from the case-1 objective by the constant n - n ln n
        rng = np.random.default_rng(19)
        problem, prior = random_fixture(rng, 8, 3)
        n = problem.n
        constant = n - n * math.log(n)
        for log_kappa in np.linspace(-6, 6, 25):
            kappa = 10.0 ** log_kappa
            s2 = ar.sigma2_hat(problem, prior, kappa)
            concentrated = ar.neg_log_lik_kappa(problem, prior, s2, kappa)
            objective = ar.abic_case1(problem, prior, kappa).total
            assert concentrated - objective == pytest.approx(constant, abs=1e-9)

    def test_zero_mean_flag_matches_explicit_zero_vector(self):
        rng = np.random.default_rng(20)
        problem, _ = random_fixture(rng, 7, 3)
        flagged = ar.default_prior(3)
        explicit = ar.default_prior(3, mu=[0.0, 0.0, 0.0])
        for kappa in (0.01, 1.0, 100.0):
            a = ar.abic_case1(problem, flagged, kappa)
            b = ar.abic_case1(problem, explicit, kappa)
            assert a.total == pytest.approx(b.total, abs=1e-12)
        assert a.case_tag is ar.ObjectiveCase.CASE1_ZERO_MEAN
        assert b.case_tag is ar.ObjectiveCase.CASE1_ZERO_MEAN

    def test_case_tags_follow_prior_mean(self):
        rng = np.random.default_rng(21)
        problem, prior = random_fixture(rng, 7, 3)
        assert ar.abic_case1(problem, prior, 1.0).case_tag is ar.ObjectiveCase.CASE1
        assert (
            ar.abic_case2(problem, prior, 1.0, 1.0).case_tag is ar.ObjectiveCase.CASE2
        )
        zeroed = prior.with_zero_mean()
        assert (
            ar.abic_case2(problem, zeroed, 1.0, 1.0).case_tag
            is ar.ObjectiveCase.CASE2_ZERO_MEAN
        )

    def test_degenerate_residual_raises(self):
        rng = np.random.default_rng(22)
        design = ar.ProblemDesign(rng.standard_normal((6, 2)))
        mu = rng.standard_normal(2)
        problem = design.with_observations(design.a_matrix @ mu)
        prior = ar.default_prior(2, mu=mu)
        with pytest.raises(ar.DegenerateProblemError):
            ar.abic_case1(problem, prior, 1.0)

    def test_log_marginal_peaks_near_true_variances(self):
        # crude sanity: the marginal prefers the generating hyperparameters
        # over ones that are off by two orders of magnitude
        rng = np.random.default_rng(23)
        design = ar.ProblemDesign(rng.standard_normal((40, 3)))
        prior = ar.default_prior(3, mu=rng.standard_normal(3))
        sigma2, sigma_beta2 = 0.5, 2.0
        beta = prior.mu + math.sqrt(sigma_beta2) * rng.standard_normal(3)
        y = design.a_matrix @ beta + math.sqrt(sigma2) * rng.standard_normal(40)
        problem = design.with_observations(y)
        good = ar.log_marginal_density(problem, prior, sigma2, sigma_beta2)
        assert good > ar.log_marginal_density(problem, prior, sigma2 * 100, sigma_beta2)
        assert good > ar.log_marginal_density(problem, prior, sigma2 / 100, sigma_beta2)


class TestSweep:
    def test_rows_and_monotone_terms(self):
        rng = np.random.default_rng(24)
        problem, prior = random_fixture(rng, 8, 3)
        rows = ar.sweep_objective(problem, prior, case=1, points=33)
        assert len(rows) == 33
        kappas = np.array([row.kappa for row in rows])
        quads = np.array([row.quad_term for row in rows])
        logdets = np.array([row.logdet_term for row in rows])
        assert np.all(np.diff(kappas) > 0)
        assert np.all(np.diff(quads) >= -1e-9 * np.abs(quads[:-1]))
        assert np.all(np.diff(logdets) <= 1e-9 * np.abs(logdets[:-1]))
        assert rows[0].case == "case1"

    def test_case2_needs_sigma2(self):
        rng = np.random.default_rng(25)
        problem, prior = random_fixture(rng, 6, 2)
        with pytest.raises(ar.DomainError):
            ar.sweep_objective(problem, prior, case=2)

    def test_csv_format(self, tmp_path):
        rng = np.random.default_rng(26)
        problem, prior = random_fixture(rng, 6, 2)
        rows = ar.sweep_objective(problem, prior, case=2, sigma2=0.5, points=5)
        path = tmp_path / "sweep.csv"
        ar.write_sweep_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "kappa,quad_term,logdet_term,objective,case"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert len(first) == 5
        assert float(first[0]) == pytest.approx(1e-12)
        assert first[4] == "case2"
        # shortest round-trip digits reproduce the doubles exactly
        assert float(first[1]) == rows[0].quad_term

    def test_non_finite_row_raises_and_writes_no_file(self, tmp_path):
        row = ar.SweepRow(1.0, float("inf"), 0.5, float("inf"), "case1")
        path = tmp_path / "sweep.csv"
        with pytest.raises(ar.EvaluationError):
            ar.write_sweep_csv(path, [row])
        assert not path.exists()


def _rounding_fixture(kind):
    """(design, y, mu, w_beta, sigma2) for the single-rounding tests; dense-w has a
    dense W and W_beta, spectrum a nonzero prior mean."""
    rng = np.random.default_rng(60)
    if kind == "dense-w":
        problem, prior = random_fixture(rng, 30, 6, cond=1e4)
        design = ar.ProblemDesign(problem.a_matrix, problem.w)
        return design, problem.y, prior.mu, prior.w_beta, 1e-2
    if kind == "phillips":
        design, exact = ar.phillips_problem(64)
        sigma2, mu = 1e-4, None
    else:
        design, exact = ar.spectrum_problem(200, 50, decay=4.0, seed=3)
        sigma2, mu = 1e-6, 0.9 * exact
    y = design.a_matrix @ exact + math.sqrt(sigma2) * rng.standard_normal(design.n)
    return design, y, mu, None, sigma2


class TestOneRoundingRule:
    """Every residual is projected by project_rows and reduced by one expression,
    so a value rounds alike at any kappa, in any block and alone."""

    @pytest.mark.parametrize("scale", [1.0, 3.0, 2.0**-40], ids=["1", "3", "2^-40"])
    @pytest.mark.parametrize("kind", ["phillips", "spectrum", "dense-w"])
    def test_sigma2_hat_at_kappa_hat_is_the_selections(self, kind, scale):
        design, y, mu, w_beta, sigma2 = _rounding_fixture(kind)
        problem = design.with_observations(scale * y)
        prior = ar.default_prior(design.t, mu=None if mu is None else scale * mu, w_beta=w_beta)
        found = ar.select_case1(problem, prior)
        assert ar.sigma2_hat(problem, prior, found.kappa_hat) == found.sigma2_hat
        known = sigma2 * scale * scale
        found = ar.select_case2(problem, prior, known)
        workspace = ar.MarginalWorkspace(problem, prior.w_beta)
        objective = ar.MarginalObjective(workspace, prior, known)
        quad = objective(np.array([found.kappa_hat]), np.array([0])).quad_term[0]
        assert ar.sigma2_hat(problem, prior, found.kappa_hat) == quad / problem.n
        if found.boundary_flag is ar.BoundaryFlag.INTERIOR:
            ops = workspace.operators(found.kappa_hat)
            total = ops.quad_form(workspace.residual(prior)) / known + ops.logdet
            assert total == found.objective_at_min

    @pytest.mark.parametrize("kind", ["phillips", "spectrum", "dense-w"])
    def test_quad_form_equals_its_column_of_a_block(self, kind):
        design, y, mu, w_beta, sigma2 = _rounding_fixture(kind)
        prior = ar.default_prior(design.t, mu=mu, w_beta=w_beta)
        rng = np.random.default_rng(61)
        observations = y[:, None] + math.sqrt(sigma2) * rng.standard_normal((design.n, 7))
        workspace = ar.MarginalWorkspace(design.with_observations(y), prior.w_beta)
        objective = ar.MarginalObjective(workspace, prior, sigma2, observations)
        columns = np.arange(observations.shape[1])
        for kappa in (1e-9, 1e-3, 0.7, 1e4):
            quad = objective(np.full(columns.size, kappa), columns).quad_term
            ops = workspace.operators(kappa)
            for j in columns:
                assert ops.quad_form(observations[:, j] - design.a_matrix @ prior.mu) == quad[j]


@pytest.fixture
def one_blas_thread():
    """numpy's bundled OpenBLAS on one thread, as the command line runs it; restored after."""
    lib = ar._linalg.bundled_openblas()
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS is not found; its thread count cannot be set")
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    yield
    lib.scipy_openblas_set_num_threads64_(before)


def _tall_fixture(n, t, seed, dense):
    """(problem, W_beta) with singular values 1 ... 1e-6 and, if ``dense``, dense W and W_beta."""
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((n, t)))[0]
    right = np.linalg.qr(rng.standard_normal((t, t)))[0]
    a = (left * np.logspace(0.0, -6.0, t)) @ right.T
    w, w_beta = (random_spd(rng, n), random_spd(rng, t)) if dense else (None, np.eye(t))
    # y lies in range(A) but for a 1e-6 part, so |z - U c|^2 ~ 1e-12 |z|^2
    y = a @ rng.standard_normal(t) + 1e-6 * rng.standard_normal(n)
    return ar.InverseProblem(a, y, w=w), w_beta


class TestQrWorkspace:
    """The workspace factors the whitened design as Q R, R = U_R diag(s) V^T, and never forms U."""

    @pytest.mark.parametrize(
        "n, t, dense", [(16, 16, False), (64, 64, True), (74, 40, False), (400, 100, False), (60, 20, True)]
    )
    def test_s_and_vt_are_numpys_svd_bit_for_bit(self, one_blas_thread, n, t, dense):
        # LAPACK's gesdd factors by QR itself where n >= 11 t / 6, and n = t takes no QR
        problem, w_beta = _tall_fixture(n, t, seed=n + t, dense=dense)
        workspace = ar.MarginalWorkspace(problem, w_beta)
        whitened = workspace.w_beta.solve_lower(problem.w.mul_lower_t(problem.a_matrix).T).T
        _, s, vt = np.linalg.svd(whitened, full_matrices=False)
        assert np.array_equal(workspace.s, s)
        assert np.array_equal(workspace.vt, vt)

    def test_no_n_by_t_array_but_the_reflectors(self):
        problem, w_beta = _tall_fixture(90, 12, seed=5, dense=True)
        workspace = ar.MarginalWorkspace(problem, w_beta)
        assert not hasattr(workspace, "u")
        arrays = vars(workspace).items()
        assert [name for name, value in arrays if np.size(value) >= 90 * 12] == ["_reflectors"]
        assert workspace._reflectors.shape == (12, 90) and workspace._reflectors.flags.c_contiguous

    @pytest.mark.parametrize("dense", [True, False], ids=["dense-w", "identity-w"])
    def test_projection_matches_mpmath(self, dense):
        problem, w_beta = _tall_fixture(40, 8, seed=70, dense=dense)
        workspace = ar.MarginalWorkspace(problem, w_beta)
        (perp,), (coef,) = workspace.project_rows(problem.y[None, :])
        with mp.workdps(40):
            l_w = mp.cholesky(mp.matrix(problem.w.to_array().tolist()))
            l_b = mp.cholesky(mp.matrix(w_beta.tolist()))
            u, _, vt = mp.svd_r(l_w.T * mp.matrix(problem.a_matrix.tolist()) * mp.inverse(l_b).T)
            z = l_w.T * mp.matrix(problem.y.tolist())
            c = u.T * z
            exact_perp = float(mp.fsum(v**2 for v in z) - mp.fsum(v**2 for v in c))
            norm_z = float(mp.norm(z))
            exact = np.array(c.tolist(), dtype=float)[:, 0]
            exact_vt = np.array(vt.tolist(), dtype=float)
        # singular vectors are defined up to sign: align U's columns through V's
        exact *= np.sign(np.einsum("ij,ij->i", workspace.vt, exact_vt))
        assert np.max(np.abs(coef - exact)) <= 1e-14 * norm_z
        # |z|^2 - |c|^2 in floats would be off by about 1e-5 of perp here
        assert perp == pytest.approx(exact_perp, rel=1e-9)

    @pytest.mark.parametrize("kind", ["n-equals-t", "n-equals-t-plus-1", "already-triangular"])
    def test_edge_shapes_match_dense_operators(self, kind):
        rng = np.random.default_rng(71)
        if kind == "already-triangular":
            # zero below the diagonal: LAPACK returns tau = 0, Q = I
            a = np.vstack([np.triu(rng.standard_normal((5, 5))) + 3.0 * np.eye(5), np.zeros((4, 5))])
            problem = ar.InverseProblem(a, rng.standard_normal(9))
            prior = ar.default_prior(5, mu=rng.standard_normal(5))
        else:
            n = 6 if kind == "n-equals-t" else 7
            problem, prior = random_fixture(rng, n, 6)
        workspace = ar.MarginalWorkspace(problem, prior.w_beta)
        reflectors = problem.t if problem.n > problem.t else 0
        assert workspace._reflectors.shape == (reflectors, problem.n)
        if kind == "already-triangular":
            assert not np.any(workspace._tau)
        residual = workspace.residual(prior)
        (perp,), _ = workspace.project_rows(residual[None, :])
        if kind == "n-equals-t":
            assert perp == 0.0
        for kappa in (1e-3, 0.7, 1e3):
            ops = workspace.operators(kappa)
            cofactor = _dense_cofactor(problem, prior, kappa)
            solved = np.linalg.solve(cofactor, residual)
            assert ops.quad_form(residual) == pytest.approx(residual @ solved, rel=1e-11)


def _symmetric_fixture(kind):
    """A problem whose whitened design equals its transpose bit for bit: Phillips 64,
    or (M + M^T) / 2 of a random 40 x 40 M, which is indefinite."""
    if kind == "phillips64":
        design, exact = ar.phillips_problem(64)
        y, _ = ar.synthesize_observations(design, exact, 1e-4, seed=3)
        return design.with_observations(y)
    rng = np.random.default_rng(70)
    m = rng.standard_normal((40, 40))
    return ar.InverseProblem((m + m.T) / 2, rng.standard_normal(40))


def _fail(name):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{name} did not converge")

    return failing


class TestSymmetricRoute:
    """A square whitened design equal to its transpose is eigendecomposed; the results
    agree with the SVD route's to rounding, bounded by eps times the condition number."""

    @pytest.mark.parametrize("kind", ["phillips64", "indefinite40"])
    def test_takes_eigh_and_gives_the_svds_singular_values(self, monkeypatch, kind):
        problem = _symmetric_fixture(kind)
        expected = np.linalg.svd(problem.a_matrix, compute_uv=False)
        monkeypatch.setattr(np.linalg, "svd", _fail("SVD"))
        workspace = ar.MarginalWorkspace(problem)
        eps = np.finfo(float).eps
        assert np.all(np.diff(workspace.s) <= 0)
        assert np.max(np.abs(workspace.s - expected)) <= 8 * eps * expected[0]
        # U_R diag(s) V^T is the design, with orthonormal factors
        rebuilt = (workspace.u_r * workspace.s) @ workspace.vt
        assert np.max(np.abs(rebuilt - problem.a_matrix)) <= 64 * problem.n * eps * expected[0]
        for factor in (workspace.u_r, workspace.vt):
            assert_allclose(factor.T @ factor, np.eye(problem.n), rtol=0, atol=64 * problem.n * eps)

    @pytest.mark.parametrize("kind", ["phillips64", "indefinite40"])
    def test_grid_objectives_and_estimates_match_the_svd_route(self, monkeypatch, kind):
        problem = _symmetric_fixture(kind)
        prior = ar.default_prior(problem.t)
        s = np.linalg.svd(problem.a_matrix, compute_uv=False)
        bound = 10 * (s[0] / s[-1]) * np.finfo(float).eps  # 6.5e-10 on Phillips 64, 7.8e-14 here
        _, kappas = ar.marginal.kappa_grid(ar.marginal.DEFAULT_BRACKET, ar.marginal.GRID_POINTS)

        def outputs():
            workspace = ar.MarginalWorkspace(problem)
            values = [ar.MarginalObjective(workspace, prior, sigma2)(kappas) for sigma2 in (None, 1e-4)]
            estimates = [ar.ls_estimate(problem), ar.regularized_estimate(problem, kappa=1e-3)]
            return values, [estimate.beta_hat for estimate in estimates]

        values, estimates = outputs()
        monkeypatch.setattr(ar.marginal, "_symmetric_svd", np.linalg.svd)
        svd_values, svd_estimates = outputs()
        for value, svd_value in zip(values, svd_values):
            assert_allclose(value.quad_term, svd_value.quad_term, rtol=bound)
            assert_allclose(value.logdet_term, svd_value.logdet_term, rtol=1e-13, atol=1e-13)
            # a relative error of q moves n ln q by n times it, and q / sigma2 by q / sigma2 times it
            quad_part = problem.n if value.sigma2 is None else svd_value.quad_term / value.sigma2
            tol = bound * quad_part + 1e-13 * (1.0 + np.abs(svd_value.logdet_term))
            assert np.all(np.abs(value.total - svd_value.total) <= tol)
        for estimate, svd_estimate in zip(estimates, svd_estimates):
            assert np.linalg.norm(estimate - svd_estimate) <= bound * np.linalg.norm(svd_estimate)

    def test_one_ulp_off_symmetric_takes_the_svd(self, monkeypatch):
        problem = _symmetric_fixture("indefinite40")
        a = problem.a_matrix.copy()
        a[0, 1] = np.nextafter(a[0, 1], np.inf)
        skewed = ar.InverseProblem(a, problem.y)
        monkeypatch.setattr(np.linalg, "eigh", _fail("eigh"))
        with pytest.raises(ar.FactorizationError):
            ar.MarginalWorkspace(problem)
        ar.MarginalWorkspace(skewed)
        monkeypatch.setattr(np.linalg, "svd", _fail("SVD"))
        with pytest.raises(ar.FactorizationError, match="SVD did not converge"):
            ar.MarginalWorkspace(skewed)

    def test_zero_eigenvalue_takes_a_positive_sign(self):
        a = np.diag([-3.0, 0.0, 2.0])
        workspace = ar.MarginalWorkspace(ar.InverseProblem(a, np.ones(3)))
        assert workspace.s.tolist() == [3.0, 2.0, 0.0]
        # U_R = V sign(lam), with sign(0) = +1
        assert_allclose(workspace.u_r, workspace.vt.T * [[-1.0, 1.0, 1.0]], atol=0)
        assert_allclose((workspace.u_r * workspace.s) @ workspace.vt, a, atol=0)


def _scaled_phillips(scale):
    """Phillips 8 with A scaled by ``scale`` and y = A beta exactly, beside the unscaled one."""
    design, exact = ar.phillips_problem(8)
    a = design.a_matrix * scale
    return ar.InverseProblem(a, a @ exact), ar.InverseProblem(design.a_matrix, design.a_matrix @ exact)


class TestOverflowingSingularValues:
    """Whitened singular values above about 1.34e154, where s^2 overflows to inf."""

    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_estimates_match_the_unscaled_design(self, scale):
        big, small = _scaled_phillips(scale)
        assert np.all(np.isinf(ar.MarginalWorkspace(big).s2))
        # kappa scales with A^2
        regularized = ar.regularized_estimate(small, kappa=1e308 / scale / scale)
        pairs = [
            (ar.ls_estimate(big), ar.ls_estimate(small)),
            (ar.regularized_estimate(big, kappa=1e308), regularized),
        ]
        for scaled, plain in pairs:
            error = np.linalg.norm(scaled.beta_hat - plain.beta_hat)
            assert error <= 1e-13 * np.linalg.norm(plain.beta_hat)

    @pytest.mark.parametrize("kappa", [1.0, 1e300])
    def test_logdet_is_finite(self, kappa):
        big, _ = _scaled_phillips(1e160)
        workspace = ar.MarginalWorkspace(big)
        expected = np.sum(2.0 * np.log(workspace.s) - math.log(kappa)) - big.w.logdet
        assert workspace.operators(kappa).logdet == pytest.approx(expected, rel=1e-13)

    def test_filter_where_s2_plus_kappa_overflows_matches_mpmath(self):
        # s^2 = 1.44e308 is finite; s^2 + kappa passes the float range at the top two kappas
        problem = ar.InverseProblem([[1.2e154, 0.0], [0.0, 1.0], [0.0, 0.0]], [1.0, 1.0, 1.0])
        workspace = ar.MarginalWorkspace(problem)
        kappas = np.array([1e308, 5e307, 1e300])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            damping, complement, logdet = workspace._filter(kappas)
        with mp.workdps(50):
            s2 = [mp.mpf(float(s)) ** 2 for s in workspace.s]
            for k, kappa in enumerate(map(mp.mpf, kappas.tolist())):
                exact = [
                    [kappa / (x + kappa) for x in s2],
                    [x / (x + kappa) for x in s2],
                    [mp.fsum(mp.log1p(x / kappa) for x in s2)],
                ]
                for got, want in zip((damping[k], complement[k], [logdet[k]]), exact):
                    for value, reference in zip(got, want):
                        assert float(abs(value - reference)) <= 4e-16 * float(abs(reference))
