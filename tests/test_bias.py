import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
from numpy.testing import assert_allclose

import abicreg as ar
from abicreg.selection import select_columns
from conftest import random_design, random_prior, random_spd, tiny_fixture


class TestReplicateStream:
    def test_replicates_are_order_independent(self):
        a = ar.replicate_stream(7, 3).standard_normal(5)
        ar.replicate_stream(7, 0).standard_normal(100)
        b = ar.replicate_stream(7, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_replicates_differ(self):
        a = ar.replicate_stream(7, 0).standard_normal(5)
        b = ar.replicate_stream(7, 1).standard_normal(5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5])
    def test_seed_outside_philox_key_range_rejected(self, seed):
        design, _, prior, truth = tiny_fixture()
        with pytest.raises(ar.DomainError):
            ar.replicate_stream(seed, 0)
        with pytest.raises(ar.DomainError):
            ar.bias._noise_block(design, 1.0, seed, 100)
        with pytest.raises(ar.DomainError):
            ar.mc_sigma2_study(design, truth, prior, 1.0, 0.5, replicates=100, seed=seed)

    def test_largest_seed_accepted(self):
        design, _, _, _ = tiny_fixture()
        eps = ar.bias._noise_block(design, 1.0, 2**128 - 1, 100)
        assert np.array_equal(eps[:, 99], ar.replicate_stream(2**128 - 1, 99).standard_normal(2))


class TestNoiseBlock:
    """Column r of a study's noise block is replicate_stream(seed, r)."""

    @pytest.mark.parametrize("identity_w", [True, False])
    def test_columns_are_replicate_streams(self, identity_w):
        rng = np.random.default_rng(46)
        design = random_design(rng, 9, 3, identity_w=identity_w)
        sigma2, seed, replicates = 0.3, 11, 150
        eps = ar.bias._noise_block(design, sigma2, seed, replicates)
        assert eps.shape == (design.n, replicates)
        draws = [ar.replicate_stream(seed, r).standard_normal(design.n) for r in range(replicates)]
        # the block colors all columns in one triangular solve: bit-equal to
        # coloring the stacked streams, and equal to each column's own solve
        # up to the rounding of a block against a single right-hand side
        assert np.array_equal(eps, ar.bias._color(design.w, sigma2, np.array(draws).T))
        for r in (0, 73, replicates - 1):
            alone = ar.bias._color(design.w, sigma2, draws[r])
            if identity_w:
                assert np.array_equal(eps[:, r], alone)
            else:
                assert_allclose(eps[:, r], alone, rtol=1e-13, atol=1e-15)
        y, truth = ar.synthesize_observations(design, np.ones(design.t), sigma2, seed)
        if identity_w:
            assert np.array_equal(y, truth.y_bar + eps[:, 0])
        else:
            assert_allclose(y, truth.y_bar + eps[:, 0], rtol=1e-13, atol=1e-15)


class TestDrawNoise:
    def test_identity_weight_is_plain_gaussian(self):
        rng1 = ar.replicate_stream(0, 0)
        rng2 = ar.replicate_stream(0, 0)
        eps = ar.draw_noise(np.eye(4), 4.0, rng1)
        z = rng2.standard_normal(4)
        assert_allclose(eps, 2.0 * z, rtol=1e-15)

    def test_covariance_matches_inverse_weight(self):
        rng = np.random.default_rng(1)
        w = np.diag([1.0, 4.0, 0.25])
        draws = np.array([ar.draw_noise(w, 2.0, ar.replicate_stream(1, r)) for r in range(4000)])
        var = draws.var(axis=0)
        assert_allclose(var, 2.0 / np.diag(w), rtol=0.15)

    def test_negative_variance_rejected(self):
        with pytest.raises(ar.DomainError):
            ar.draw_noise(np.eye(2), -1.0, np.random.default_rng(0))


class TestExpectedSigma2:
    def test_closed_form_fixture(self):
        design, _, _, truth = tiny_fixture()
        signal, noise = ar.expected_sigma2_terms(design, truth, sigma2=1.0, kappa=0.5)
        assert signal == pytest.approx(0.2, rel=1e-12)
        assert noise == pytest.approx(0.6, rel=1e-12)
        # the expectation of the zero-mean estimate that mc_sigma2_study reports
        assert signal + noise == pytest.approx(0.8, rel=1e-12)

    def test_terms_nonnegative_and_noise_bounded(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            t = int(rng.integers(1, min(n, 5) + 1))
            design = random_design(rng, n, t)
            truth = ar.GroundTruth.from_design(design, rng.standard_normal(t))
            sigma2 = 10.0 ** rng.uniform(-2, 2)
            kappa = 10.0 ** rng.uniform(-4, 4)
            signal, noise = ar.expected_sigma2_terms(design, truth, sigma2, kappa)
            assert signal >= 0.0
            assert 0.0 <= noise <= sigma2 * (1.0 + 1e-12)

    def test_large_kappa_removes_damping(self):
        # kappa -> inf pins the prior, E -> W^-1, so the noise term -> sigma2
        design, _, _, truth = tiny_fixture()
        signal, noise = ar.expected_sigma2_terms(design, truth, 1.0, 1e12)
        assert noise == pytest.approx(1.0, rel=1e-9)
        assert signal == pytest.approx(1.0, rel=1e-9)  # ybar^T W ybar / n for y=[1,1]


class TestMcSigma2Study:
    def test_zero_mu_matches_formula_on_fixture(self):
        design, _, prior, truth = tiny_fixture()
        report = ar.mc_sigma2_study(
            design, truth, prior, sigma2=1.0, kappa=0.5, replicates=4000, seed=2
        )
        assert report.analytic_expectation == pytest.approx(0.8, rel=1e-12)
        assert abs(report.mc_mean - report.analytic_expectation) < 3.0 * report.mc_std_error
        assert report.sampling == "fixed-truth"
        assert report.mu_mode is ar.MuMode.ZERO_MU

    def test_true_mu_is_unbiased(self):
        rng = np.random.default_rng(41)
        design = random_design(rng, 10, 3)
        truth = ar.GroundTruth.from_design(design, rng.standard_normal(3))
        prior = random_prior(rng, 3)
        report = ar.mc_sigma2_study(
            design,
            truth,
            prior,
            sigma2=0.5,
            kappa=2.0,
            replicates=4000,
            seed=3,
            mu_mode=ar.MuMode.TRUE_MU,
        )
        assert report.analytic_expectation == pytest.approx(0.5)
        assert abs(report.mc_mean - 0.5) < 3.0 * report.mc_std_error
        assert report.sampling == "prior-draw"

    def test_deterministic_given_seed(self):
        design, _, prior, truth = tiny_fixture()
        kwargs = dict(sigma2=1.0, kappa=0.5, replicates=200, seed=5)
        a = ar.mc_sigma2_study(design, truth, prior, **kwargs)
        b = ar.mc_sigma2_study(design, truth, prior, **kwargs)
        assert a == b

    def test_replicate_floor(self):
        design, _, prior, truth = tiny_fixture()
        with pytest.raises(ar.DomainError):
            ar.mc_sigma2_study(design, truth, prior, 1.0, 0.5, replicates=50)

    def test_json_payload(self):
        design, _, prior, truth = tiny_fixture()
        doc = ar.mc_sigma2_study(design, truth, prior, 1.0, 0.5, replicates=150, seed=1).to_json()
        assert doc["mu_mode"] == "zero"
        assert doc["replicates"] == 150
        assert "Philox" in doc["rng"]


def _philox_block(seed, b, word, width):
    """Block b of the sigma2 study's stream ``word``, drawn from its own Philox."""
    philox = np.random.Philox(key=seed, counter=[0, b, word, 0])
    return np.random.Generator(philox).standard_normal((256, width))


def _dense_sigma2_reference(design, truth, w, w_beta, sigma2, kappa, replicates, seed, mu_mode):
    """(mc_mean, mc_std_error) by redrawing each replicate's row of its block,
    coloring with explicit Cholesky factors and solving with E."""
    a, n, t = design.a_matrix, design.n, design.t
    l_w, l_b = np.linalg.cholesky(w), np.linalg.cholesky(w_beta)
    e = np.linalg.inv(w) + a @ np.linalg.inv(w_beta) @ a.T / kappa
    estimates = []
    for r in range(replicates):
        b, row = divmod(r, 256)
        eps = math.sqrt(sigma2) * la.solve_triangular(l_w.T, _philox_block(seed, b, 0, n)[row])
        if mu_mode == "true":
            z_beta = _philox_block(seed, b, 1, t)[row]
            residual = a @ (math.sqrt(sigma2 / kappa) * la.solve_triangular(l_b.T, z_beta)) + eps
        else:
            residual = truth.y_bar + eps
        estimates.append(residual @ np.linalg.solve(e, residual) / n)
    return np.mean(estimates), np.std(estimates, ddof=1) / math.sqrt(replicates)


class TestSigma2StudyChunks:
    """The chunked, whitened study against a dense per-replicate reference."""

    @pytest.mark.parametrize("mu_mode", ["zero", "true"])
    def test_matches_dense_reference_across_chunks(self, monkeypatch, mu_mode):
        rng = np.random.default_rng(48)
        n, t = 11, 4
        w, w_beta = random_spd(rng, n), random_spd(rng, t)
        design = ar.ProblemDesign(rng.standard_normal((n, t)), w)
        truth = ar.GroundTruth.from_design(design, rng.standard_normal(t))
        prior = ar.default_prior(t, mu=truth.beta_bar, w_beta=w_beta)
        sigma2, kappa, replicates, seed = 0.3, 2.0, 600, 9
        args = (design, truth, prior, sigma2, kappa, replicates, seed, mu_mode)
        default = ar.mc_sigma2_study(*args)
        # one block per chunk in both modes: 256, 256 and a partial 88 replicates
        monkeypatch.setattr(ar.bias, "_CHUNK_BYTES", 8 * 256 * n)
        report = ar.mc_sigma2_study(*args)
        mean, std_error = _dense_sigma2_reference(
            design, truth, w, w_beta, sigma2, kappa, replicates, seed, mu_mode
        )
        assert report.mc_mean == pytest.approx(mean, rel=1e-10)
        assert report.mc_std_error == pytest.approx(std_error, rel=1e-10)
        assert report == default

    @pytest.mark.parametrize("n", [32, 400, 2000])
    def test_rows_are_block_rows_in_order(self, n):
        # the mean and standard error cannot see the order of replicates,
        # so the rows are checked here: a partial block is a prefix of the full one
        seed, rows = 13, 600
        streams = ar.bias._replicate_streams(seed)
        out, tail = np.empty((rows, n)), np.empty((rows - 512, n))
        for word in (0, 1):
            ar.bias._block_rows(streams, 0, word, out)
            for b in range(3):
                full, drawn = _philox_block(seed, b, word, n), out[256 * b : 256 * (b + 1)]
                assert np.array_equal(drawn, full[: len(drawn)])
                if word == 0:
                    stream = ar.replicate_stream(seed, b)
                    assert np.array_equal(full, stream.standard_normal((256, n)))
            # a chunk that starts at block 2 draws what the whole run drew there
            ar.bias._block_rows(streams, 512, word, tail)
            assert np.array_equal(tail, out[512:])

    @pytest.mark.parametrize("mu_mode", ["zero", "true"])
    def test_peak_memory_below_one_block(self, mu_mode):
        n, t, replicates = 400, 100, 30000
        design, exact = ar.spectrum_problem(n, t, decay=6.0, seed=1)
        truth = ar.GroundTruth.from_design(design, exact)
        prior = ar.default_prior(t, mu=exact)
        tracemalloc.start()
        try:
            ar.mc_sigma2_study(design, truth, prior, 1e-6, 1e-4, replicates, 3, mu_mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n x R float64 block; drawing and reducing the whole block at once
        # held four or five of them
        assert peak < n * replicates * 8, f"peak traced memory {peak / 2**20:.1f} MiB"

    def test_no_thread_starts_during_a_study(self, monkeypatch):
        design, _, prior, truth = tiny_fixture()
        monkeypatch.setattr(ar.bias, "_CHUNK_BYTES", 8 * 256 * design.n)
        before = set(threading.enumerate())
        during = []
        project = ar.MarginalWorkspace.project_whitened

        def spy_project(workspace, z):
            if z.ndim == 2:  # a chunk; the analytic terms project one vector
                during.append(set(threading.enumerate()))
            return project(workspace, z)

        monkeypatch.setattr(ar.MarginalWorkspace, "project_whitened", spy_project)
        ar.mc_sigma2_study(design, truth, prior, 1.0, 0.5, replicates=600, seed=2)
        assert len(during) == 3  # 600 replicates in chunks of one block
        assert all(threads == before for threads in during)

    @pytest.mark.parametrize("stage", ["draw", "reduction"])
    def test_errors_propagate_unchanged(self, monkeypatch, stage):
        design, _, prior, truth = tiny_fixture()
        monkeypatch.setattr(ar.bias, "_CHUNK_BYTES", 8 * 256 * design.n)
        if stage == "draw":
            error, fill = MemoryError("draw failed"), ar.bias._block_rows

            def spy_fill(streams, start, word, out):
                if start > 0:  # the second chunk's fill
                    raise error
                fill(streams, start, word, out)

            monkeypatch.setattr(ar.bias, "_block_rows", spy_fill)
        else:
            error = FloatingPointError("reduction failed")
            project = ar.MarginalWorkspace.project_whitened

            def spy_project(workspace, z):
                if z.ndim == 2:
                    raise error
                return project(workspace, z)

            monkeypatch.setattr(ar.MarginalWorkspace, "project_whitened", spy_project)
        with pytest.raises(type(error)) as raised:
            ar.mc_sigma2_study(design, truth, prior, 1.0, 0.5, replicates=600, seed=2)
        assert raised.value is error


class TestMcKappaStudy:
    def make_inputs(self):
        design, exact = ar.spectrum_problem(16, 4, decay=3.0, seed=8)
        truth = ar.GroundTruth.from_design(design, exact)
        prior = ar.default_prior(4, mu=exact)
        return design, truth, prior

    def test_report_structure_and_quantile_order(self):
        design, truth, prior = self.make_inputs()
        report = ar.mc_kappa_study(design, truth, prior, sigma2=1e-4, replicates=100, seed=6)
        for summary in (report.true_mu, report.zero_mu):
            for q in (summary.kappa_hat, summary.sigma2_hat, summary.sigma_beta2_hat):
                assert q.q05 <= q.q25 <= q.q50 <= q.q75 <= q.q95
            assert 0.0 <= summary.boundary_fraction <= 1.0
            assert summary.failures == 0
        assert report.median_kappa_hat_difference == pytest.approx(
            report.zero_mu.kappa_hat.q50 - report.true_mu.kappa_hat.q50
        )

    def test_modes_share_noise_draws(self):
        # pairing: replicate r sees the same y in both modes, so with the
        # prior mean already zero the two summaries coincide exactly
        design, truth, _ = self.make_inputs()
        zero_prior = ar.default_prior(4)
        report = ar.mc_kappa_study(design, truth, zero_prior, sigma2=1e-4, replicates=100, seed=7)
        assert report.true_mu == report.zero_mu
        assert report.median_kappa_hat_difference == 0.0

    def test_case2_variant(self):
        design, truth, prior = self.make_inputs()
        report = ar.mc_kappa_study(
            design, truth, prior, sigma2=1e-4, replicates=100, seed=8, case=2
        )
        assert report.case == 2
        # case 2 echoes the supplied sigma2 for every replicate
        assert report.true_mu.sigma2_hat.q05 == pytest.approx(1e-4)
        assert report.true_mu.sigma2_hat.q95 == pytest.approx(1e-4)

    def test_determinism(self):
        design, truth, prior = self.make_inputs()
        a = ar.mc_kappa_study(design, truth, prior, sigma2=1e-4, replicates=100, seed=9)
        b = ar.mc_kappa_study(design, truth, prior, sigma2=1e-4, replicates=100, seed=9)
        assert a == b

    def test_replicate_floor(self):
        design, truth, prior = self.make_inputs()
        with pytest.raises(ar.DomainError):
            ar.mc_kappa_study(design, truth, prior, sigma2=1e-4, replicates=10)

    def test_bad_case_rejected(self):
        design, truth, prior = self.make_inputs()
        with pytest.raises(ar.DomainError):
            ar.mc_kappa_study(design, truth, prior, sigma2=1e-4, replicates=100, case=3)


def _study_fixture(kind):
    """(design, exact solution, true sigma2) for the lockstep equality tests."""
    if kind == "spectrum48x12":
        design, exact = ar.spectrum_problem(48, 12, decay=4.0, seed=1)
        return design, exact, 1e-6
    if kind == "phillips32":
        design, exact = ar.phillips_problem(32)
        return design, exact, 1e-4
    rng = np.random.default_rng(44)
    return random_design(rng, 30, 6, cond=1e4), rng.standard_normal(6), 1e-2


class TestLockstepMatchesSelection:
    """Each replicate of a kappa study is select_case1/select_case2 on its own data."""

    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize("kind", ["spectrum48x12", "phillips32", "dense-w"])
    def test_replicates_bit_identical(self, kind, case):
        design, exact, sigma2 = _study_fixture(kind)
        truth = ar.GroundTruth.from_design(design, exact)
        prior = ar.default_prior(design.t, mu=exact)
        replicates, seed = 100, 12
        eps = ar.bias._noise_block(design, sigma2, seed, replicates)  # the study's own draws
        observations = truth.y_bar[:, None] + eps
        workspace = ar.MarginalWorkspace(design.with_observations(truth.y_bar), prior.w_beta)
        known = None if case == 1 else sigma2
        report = ar.mc_kappa_study(design, truth, prior, sigma2, replicates, seed, case)
        for mode_prior, summary in ((prior, report.true_mu), (prior.with_zero_mean(), report.zero_mu)):
            found = select_columns(ar.MarginalObjective(workspace, mode_prior, known, observations))
            assert not found.failed.any()
            singles = []
            for r in range(replicates):
                problem = design.with_observations(truth.y_bar + eps[:, r])
                if case == 1:
                    single = ar.select_case1(problem, mode_prior)
                else:
                    single = ar.select_case2(problem, mode_prior, sigma2)
                assert found.kappa_hat[r] == single.kappa_hat
                assert found.sigma2_hat[r] == single.sigma2_hat
                assert found.boundary_flag[r] is single.boundary_flag
                singles.append(single)
            # the study reports exactly these selections
            assert summary.kappa_hat == ar.QuantileSummary.from_samples(
                [single.kappa_hat for single in singles]
            )
            assert summary.sigma2_hat == ar.QuantileSummary.from_samples(
                [single.sigma2_hat for single in singles]
            )
            edges = sum(single.boundary_flag is not ar.BoundaryFlag.INTERIOR for single in singles)
            assert summary.boundary_fraction == edges / replicates
            assert summary.failures == 0

    def test_zero_residual_column_fails_alone(self):
        # in a block a zero Case-1 residual is a failed column; alone it raises
        design, _ = ar.phillips_problem(32)
        prior = ar.default_prior(design.t)
        workspace = ar.MarginalWorkspace(design.with_observations(np.ones(design.n)), prior.w_beta)
        observations = np.zeros((design.n, 3))
        observations[:, 1] = 1.0
        found = select_columns(ar.MarginalObjective(workspace, prior, None, observations))
        assert found.failed.tolist() == [True, False, True]
        with pytest.raises(ar.DegenerateProblemError):
            ar.select_case1(design.with_observations(observations[:, 0]), prior)
