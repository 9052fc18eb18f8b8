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
        cov = ar.marginal_covariance(problem, prior, sigma2, sigma_beta2)
        # Sigma = sigma2 * E, so E^-1 Sigma / sigma2 is the identity
        assert_allclose(ops.solve(cov / sigma2), np.eye(problem.n), atol=1e-10)

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
            assert_allclose(ops.solve(residual), solved, rtol=1e-8)
            expected_trace = np.trace(np.linalg.solve(cofactor, np.linalg.inv(problem.w.to_array())))
            assert ops.expected_noise_quad() == pytest.approx(expected_trace, rel=1e-9)

    def test_solve_matches_matrix_inverse(self):
        rng = np.random.default_rng(15)
        problem, prior = random_fixture(rng, 7, 3)
        ops = ar.MarginalWorkspace(problem, prior.w_beta).operators(0.8)
        rhs = rng.standard_normal(7)
        cofactor = _dense_cofactor(problem, prior, 0.8)
        assert_allclose(ops.solve(rhs), np.linalg.solve(cofactor, rhs), rtol=1e-9)

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
        whitened = workspace.w_beta.solve_lower(problem.w.mul_lower(problem.a_matrix, trans=True).T).T
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
            assert_allclose(ops.solve(residual), solved, rtol=1e-10)
            rhs = rng.standard_normal((problem.n, 3))
            assert_allclose(ops.solve(rhs), np.linalg.solve(cofactor, rhs), rtol=1e-10)
