import math
import sys
import threading
import time
import tracemalloc
import warnings

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


class TestColoredNoise:
    def test_identity_weight_is_plain_gaussian(self):
        design = ar.ProblemDesign(np.ones((4, 1)), np.eye(4))
        eps = ar.bias._noise_block(design, 4.0, 0, 1)[:, 0]
        z = ar.replicate_stream(0, 0).standard_normal(4)
        assert_allclose(eps, 2.0 * z, rtol=1e-15)

    def test_covariance_matches_inverse_weight(self):
        rng = np.random.default_rng(1)
        w = np.diag([1.0, 4.0, 0.25])
        draws = ar.bias._noise_block(ar.ProblemDesign(np.ones((3, 1)), w), 2.0, 1, 4000).T
        var = draws.var(axis=0)
        assert_allclose(var, 2.0 / np.diag(w), rtol=0.15)

    def test_negative_variance_rejected(self):
        design = ar.ProblemDesign(np.ones((2, 1)), np.eye(2))
        with pytest.raises(ar.DomainError):
            ar.synthesize_observations(design, [1.0], -1.0)

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf])
    def test_non_finite_variance_rejected(self, sigma2):
        # nan used to give an all-nan y and inf a y of +-inf
        design = ar.ProblemDesign(np.ones((2, 1)), np.eye(2))
        with pytest.raises(ar.DomainError):
            ar.synthesize_observations(design, [1.0], sigma2)


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


NON_FINITE = pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])


class TestNonFiniteParameters:
    """sigma2 and kappa must satisfy 0 < x < inf; an infinite one used to run on
    to nan or inf results, or to an EvaluationError."""

    @NON_FINITE
    @pytest.mark.parametrize("name", ["sigma2", "kappa"])
    @pytest.mark.parametrize("mu_mode", ["true", "zero"])
    def test_sigma2_study(self, name, value, mu_mode):
        design, _, prior, truth = tiny_fixture()
        args = {"sigma2": 1.0, "kappa": 0.5, name: value}
        with pytest.raises(ar.DomainError):
            ar.mc_sigma2_study(design, truth, prior, replicates=100, mu_mode=mu_mode, **args)

    @NON_FINITE
    @pytest.mark.parametrize("name", ["sigma2", "kappa"])
    def test_expected_sigma2_terms(self, name, value):
        design, _, _, truth = tiny_fixture()
        args = {"sigma2": 1.0, "kappa": 0.5, name: value}
        with pytest.raises(ar.DomainError):
            ar.expected_sigma2_terms(design, truth, **args)

    @NON_FINITE
    def test_kappa_study(self, value):
        design, _, prior, truth = tiny_fixture()
        with pytest.raises(ar.DomainError):
            ar.mc_kappa_study(design, truth, prior, sigma2=value, replicates=100)


def test_kappa_study_rejects_a_truth_of_another_length():
    # a length-1 ybar broadcasts against the n x R noise block to a study of the wrong data
    design, _, prior, truth = tiny_fixture()
    short = ar.GroundTruth(truth.beta_bar, truth.y_bar[:1])
    with pytest.raises(ar.DimensionError, match="y_bar has length 1, expected 2"):
        ar.mc_kappa_study(design, short, prior, 1.0, replicates=100)


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

    @pytest.mark.parametrize("mu_mode", list(ar.MuMode))
    def test_spread_of_huge_estimates(self, mu_mode):
        # the squared deviations of estimates near 1e155 overflow; their standard error does not
        design, exact = ar.spectrum_problem(40, 8, 2.0, seed=1)
        truth = ar.GroundTruth.from_design(design, exact)
        prior = ar.default_prior(8, mu=exact)
        huge, large = (
            ar.mc_sigma2_study(design, truth, prior, sigma2, 1.0, 200, seed=2, mu_mode=mu_mode)
            for sigma2 in (1e155, 1e100)
        )
        assert huge.mc_std_error / 1e155 == pytest.approx(large.mc_std_error / 1e100, rel=1e-9)
        assert huge.mc_mean / 1e155 == pytest.approx(large.mc_mean / 1e100, rel=1e-9)

    def test_standard_error_of_noise_far_below_the_signal(self):
        # sigma << |o|: each replicate's noise part lies below an ulp of its |o|^2 part,
        # so the spread must come from the excess over the noise-free value; to first
        # order in sigma it is the same draws times sigma, so se / sigma is constant
        design, exact = ar.spectrum_problem(8, 4, 2.0, seed=1)
        truth = ar.GroundTruth.from_design(design, exact)
        prior = ar.default_prior(4, mu=exact)
        ratios = [
            ar.mc_sigma2_study(design, truth, prior, sigma2, 1.0, 100, seed=3).mc_std_error
            / math.sqrt(sigma2)
            for sigma2 in (1e-20, 1e-100, 1e-300, 1e-320)
        ]
        assert ratios[0] > 0.0
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-9)
        assert ratios[2] == pytest.approx(ratios[0], rel=1e-9)
        assert ratios[3] == pytest.approx(ratios[0], rel=1e-2)

    def test_true_mu_where_s2_over_kappa_overflows(self):
        # W_beta = 1e-300 I puts s^2 between 1e296 and 1e300; s^2/kappa overflows at both
        # kappas, where d used to underflow to 0 (a mean near 0.5) or meet an infinite h (nan)
        design, exact = ar.spectrum_problem(8, 4, 2.0, seed=1)
        truth = ar.GroundTruth.from_design(design, exact)
        prior = ar.default_prior(4, mu=exact, w_beta=1e-300 * np.eye(4))
        reports = [
            ar.mc_sigma2_study(design, truth, prior, 1.0, kappa, 4000, seed=1, mu_mode="true")
            for kappa in (1e-307, 1e-320)
        ]
        for report in reports:
            assert report.analytic_expectation == 1.0
            assert abs(report.mc_mean - 1.0) < 4.0 * report.mc_std_error
        # sqrt(d) h is 1 in every direction at both kappas, so the estimates are the same
        assert reports[0].mc_mean == reports[1].mc_mean
        assert reports[0].mc_std_error == reports[1].mc_std_error

    @pytest.mark.parametrize(
        "region", ["default-bracket", "s2-over-kappa-overflows", "s2-plus-kappa-overflows"]
    )
    def test_true_mu_spread_is_one_within_an_ulp(self, monkeypatch, region):
        # sqrt(d) h = sqrt(d + e) = 1 in exact arithmetic, in units of the complement
        # axis's spread sigma; the study passes both to _excess
        if region == "s2-plus-kappa-overflows":
            design = ar.ProblemDesign([[1.2e154, 0.0], [0.0, 1.0], [0.0, 0.0]])
            w_beta, kappas = None, [1e308]
        else:
            design, _ = ar.spectrum_problem(8, 4, 2.0, seed=1)
            if region == "default-bracket":
                w_beta, kappas = None, ar.kappa_grid(ar.marginal.DEFAULT_BRACKET, 97)[1]
            else:
                # s^2 lies between 1e296 and 1e300: s^2/kappa overflows in every direction
                w_beta, kappas = 1e-300 * np.eye(4), [1e-10, 1e-307, 1e-320]
        truth = ar.GroundTruth.from_design(design, np.zeros(design.t))
        prior = ar.default_prior(design.t, w_beta=w_beta)
        spreads, reduce = [], ar.bias._excess

        def spy_reduce(rows, shift, spread):
            spreads.append(spread[:-1] / spread[-1])
            return reduce(rows, shift, spread)

        monkeypatch.setattr(ar.bias, "_excess", spy_reduce)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kappa in kappas:
                ar.mc_sigma2_study(design, truth, prior, 1.0, kappa, 100, seed=1, mu_mode="true")
        assert len(spreads) == len(kappas)
        assert np.all(np.abs(np.array(spreads) - 1.0) <= np.spacing(1.0))

    @pytest.mark.parametrize("shape", [(11, 4), (4, 4)], ids=["n>t", "n=t"])
    def test_zero_mu_study_ignores_singular_vector_signs(self, monkeypatch, shape):
        # U_R and V with columns 0 and 2 negated are as much an SVD as the ones LAPACK returned
        rng = np.random.default_rng(52)
        n, t = shape
        design = ar.ProblemDesign(rng.standard_normal((n, t)), random_spd(rng, n))
        truth = ar.GroundTruth(rng.standard_normal(t), rng.standard_normal(n))
        prior = ar.default_prior(t, w_beta=random_spd(rng, t))
        args = (design, truth, prior, 0.3, 2.0, 600, 9, "zero")
        before = ar.mc_sigma2_study(*args)

        class Flipped(ar.MarginalWorkspace):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                self.u_r[:, [0, 2]] *= -1.0
                self.vt[[0, 2]] *= -1.0

        monkeypatch.setattr(ar.bias, "MarginalWorkspace", Flipped)
        assert ar.mc_sigma2_study(*args) == before

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


def _chi2_block(seed, b, df):
    """Block b of the sigma2 study's chi2(df) stream, word 1."""
    philox = np.random.Philox(key=seed, counter=[0, b, 1, 0])
    return 2.0 * np.random.Generator(philox).standard_gamma(df / 2, 256)


def _dense_sigma2_reference(design, truth, w, w_beta, sigma2, kappa, replicates, seed, mu_mode):
    """(mc_mean, mc_std_error) by redrawing each replicate's row of its blocks,
    building its whitened residual z = U c + a complement part from them, and
    solving with an explicit E for r = L_W^-T z."""
    a, n, t = design.a_matrix, design.n, design.t
    workspace = ar.MarginalWorkspace(design.with_observations(np.zeros(n)), w_beta)
    l_w = np.linalg.cholesky(w)
    # the package's own frame U = Q U_R, Q from a plain QR of the whitened design
    whitened = l_w.T @ a @ np.linalg.inv(np.linalg.cholesky(w_beta)).T
    u, s = np.linalg.qr(whitened)[0] @ workspace.u_r, workspace.s
    e = np.linalg.inv(w) + a @ np.linalg.inv(w_beta) @ a.T / kappa
    complement = np.linalg.svd(u, full_matrices=True)[0][:, t:]
    sigma = math.sqrt(sigma2)
    if mu_mode == "true":
        offset, spread = np.zeros(t), sigma * np.sqrt(1.0 + s * s / kappa)
        perp_offset, axis, other = 0.0, complement[:, 0], complement[:, 1]
    else:
        o = l_w.T @ truth.y_bar
        # the study draws with |U^T o|: the frame whose columns give U^T o >= 0
        u = u * np.where(u.T @ o < 0.0, -1.0, 1.0)
        offset, spread = u.T @ o, np.full(t, sigma)
        perp = o - u @ offset
        perp_offset = np.linalg.norm(perp)
        axis = perp / perp_offset
        other = complement[:, 0] - axis * (axis @ complement[:, 0])
        other /= np.linalg.norm(other)
    estimates = []
    for r in range(replicates):
        b, row = divmod(r, 256)
        g = _philox_block(seed, b, 0, t + 1)[row]
        chi2 = _chi2_block(seed, b, n - t - 1)[row]
        z = u @ (offset + spread * g[:t])
        z += (perp_offset + sigma * g[t]) * axis + sigma * math.sqrt(chi2) * other
        residual = la.solve_triangular(l_w.T, z)
        estimates.append(residual @ np.linalg.solve(e, residual) / n)
    return np.mean(estimates), np.std(estimates, ddof=1) / math.sqrt(replicates)


class TestSigma2StudyChunks:
    """The chunked study against a dense per-replicate reference."""

    @pytest.mark.parametrize("mu_mode", ["zero", "true"])
    def test_matches_dense_reference_across_chunks(self, monkeypatch, mu_mode):
        rng = np.random.default_rng(48)
        n, t = 11, 4
        w, w_beta = random_spd(rng, n), random_spd(rng, t)
        design = ar.ProblemDesign(rng.standard_normal((n, t)), w)
        # a ybar outside range(A) gives o_perp a length to shift g_0 by
        beta = rng.standard_normal(t)
        truth = ar.GroundTruth(beta, design.a_matrix @ beta + 0.3 * rng.standard_normal(n))
        prior = ar.default_prior(t, mu=truth.beta_bar, w_beta=w_beta)
        sigma2, kappa, replicates, seed = 0.3, 2.0, 600, 9
        args = (design, truth, prior, sigma2, kappa, replicates, seed, mu_mode)
        default = ar.mc_sigma2_study(*args)
        # the floor of one block per chunk: 256, 256 and a partial 88 replicates
        monkeypatch.setattr(ar.bias, "_CHUNK_BYTES", 1)
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
        out, tail = np.empty((rows, n)), np.empty((rows - 512, n))
        for word in (0, 1):
            fill = ar.bias._block_filler(seed, word)
            fill(0, out)
            for b in range(3):
                full, drawn = _philox_block(seed, b, word, n), out[256 * b : 256 * (b + 1)]
                assert np.array_equal(drawn, full[: len(drawn)])
                if word == 0:
                    stream = ar.replicate_stream(seed, b)
                    assert np.array_equal(full, stream.standard_normal((256, n)))
            # a chunk that starts at block 2 draws what the whole run drew there,
            # also from the filler that drew the whole run
            fill(512, tail)
            assert np.array_equal(tail, out[512:])
            ar.bias._block_filler(seed, word)(512, tail)
            assert np.array_equal(tail, out[512:])
        # the chi-square stream, one value per replicate
        chi2 = np.empty(rows)
        ar.bias._block_filler(
            seed, word=1, draw=lambda rng, out: rng.standard_gamma(n / 2, out=out)
        )(0, chi2)
        for b in range(3):
            drawn = 2.0 * chi2[256 * b : 256 * (b + 1)]
            assert np.array_equal(drawn, _chi2_block(seed, b, n)[: len(drawn)])

    @pytest.mark.parametrize("mu_mode", ["zero", "true"])
    def test_peak_memory_below_one_block(self, monkeypatch, mu_mode):
        n, t, replicates = 400, 100, 30000
        design, exact = ar.spectrum_problem(n, t, decay=6.0, seed=1)
        truth = ar.GroundTruth.from_design(design, exact)
        prior = ar.default_prior(t, mu=exact)
        monkeypatch.setattr(ar.bias, "_cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            ar.mc_sigma2_study(design, truth, prior, 1e-6, 1e-4, replicates, 3, mu_mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 2.0 MiB: two workers' chunks of two 256 x 101 blocks (0.8 MiB), the
        # estimates and the workspace; 8 MiB of chunk buffers read 9.2 MiB
        assert peak < 3 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"

    def test_one_generator_per_worker_and_word(self, monkeypatch):
        # chunks of one block: 1000 replicates make four chunks, two per worker
        design, _, prior, truth = tiny_fixture()
        monkeypatch.setattr(ar.bias, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(ar.bias, "_cpu_count", lambda: 2)
        philox, built = np.random.Philox, []

        def spy_philox(*args, **kwargs):
            built.append(threading.current_thread())
            return philox(*args, **kwargs)

        reduce, chunks = ar.bias._excess, []

        def spy_reduce(*args):
            chunks.append(threading.current_thread())
            return reduce(*args)

        monkeypatch.setattr(np.random, "Philox", spy_philox)
        monkeypatch.setattr(ar.bias, "_excess", spy_reduce)
        ar.mc_sigma2_study(design, truth, prior, 1.0, 0.5, replicates=1000, seed=2)
        assert len(chunks) == 4 and len(set(chunks)) == 2
        # built on the calling thread, before any worker starts
        assert built == [threading.current_thread()] * 4

    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    @pytest.mark.parametrize("shape", [(11, 4), (4, 4)], ids=["n>t", "n=t"])
    @pytest.mark.parametrize("mu_mode", ["zero", "true"])
    def test_worker_count_changes_no_bit(self, monkeypatch, mu_mode, shape, chunk_bytes):
        rng = np.random.default_rng(50)
        design = random_design(rng, *shape)
        beta = rng.standard_normal(shape[1])
        truth = ar.GroundTruth(beta, design.a_matrix @ beta + 0.3 * rng.standard_normal(shape[0]))
        prior = random_prior(rng, shape[1])
        if chunk_bytes is not None:
            monkeypatch.setattr(ar.bias, "_CHUNK_BYTES", chunk_bytes)
        workers_seen, reduce = set(), ar.bias._excess

        def spy_reduce(*args):
            workers_seen.add(threading.current_thread())
            return reduce(*args)

        monkeypatch.setattr(ar.bias, "_excess", spy_reduce)
        before = set(threading.enumerate())
        reports = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches, so that a lost write would show
        try:
            # 1000 replicates: three full blocks and a partial one of 232
            for workers in (1, 2, 3):
                monkeypatch.setattr(ar.bias, "_cpu_count", lambda: workers)
                workers_seen.clear()
                reports[workers] = ar.mc_sigma2_study(design, truth, prior, 0.3, 2.0, 1000, 4, mu_mode)
                assert len(workers_seen) == workers
                assert threading.current_thread() in workers_seen
                assert not any(thread.is_alive() for thread in workers_seen - before)
        finally:
            sys.setswitchinterval(interval)
        assert set(threading.enumerate()) == before
        assert reports[1] == reports[2] == reports[3]

    @pytest.mark.parametrize("failing", [(0,), (1,), (2,), (1, 2)])
    def test_threads_joined_when_a_worker_raises(self, monkeypatch, failing):
        # 1000 replicates in chunks of one block on three workers: worker 0 takes
        # chunks 0 and 3 (starts 0 and 768), workers 1 and 2 one chunk each
        design, _, prior, truth = tiny_fixture()
        monkeypatch.setattr(ar.bias, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(ar.bias, "_cpu_count", lambda: 3)
        errors = {worker: MemoryError(f"worker {worker} failed") for worker in failing}
        block_filler, starts, workers_seen, failed = ar.bias._block_filler, [], set(), []
        all_failing = threading.Barrier(len(failing))

        def spy_filler(*args, **kwargs):
            fill = block_filler(*args, **kwargs)

            def spy_fill(start, out):
                starts.append(start)
                workers_seen.add(threading.current_thread())
                if start // 256 in errors:  # a failing worker's first chunk
                    failed.append(threading.current_thread())
                    all_failing.wait(timeout=10.0)  # so that none stops before it fails
                    raise errors[start // 256]
                if start == 0:
                    # worker 0 lets the failing workers finish, so it must see their errors
                    deadline = time.monotonic() + 10.0
                    while len(failed) < len(failing) or any(t.is_alive() for t in failed):
                        assert time.monotonic() < deadline, "a failing worker did not finish"
                        time.sleep(1e-3)
                fill(start, out)

            return spy_fill

        monkeypatch.setattr(ar.bias, "_block_filler", spy_filler)
        before = set(threading.enumerate())
        with pytest.raises(MemoryError) as raised:
            ar.mc_sigma2_study(design, truth, prior, 1.0, 0.5, replicates=1000, seed=2)
        assert raised.value is errors[min(failing)]
        if 0 not in failing:
            assert 768 not in starts  # worker 0 stopped before its second chunk
        assert not any(thread.is_alive() for thread in workers_seen - before)
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("stage", ["draw", "reduction"])
    def test_errors_propagate_unchanged(self, monkeypatch, stage):
        design, _, prior, truth = tiny_fixture()
        monkeypatch.setattr(ar.bias, "_CHUNK_BYTES", 1)
        if stage == "draw":
            error, block_filler = MemoryError("draw failed"), ar.bias._block_filler

            def spy_filler(*args, **kwargs):
                fill = block_filler(*args, **kwargs)

                def spy_fill(start, out):
                    if start > 0:  # the second chunk's fill
                        raise error
                    fill(start, out)

                return spy_fill

            monkeypatch.setattr(ar.bias, "_block_filler", spy_filler)
        else:
            error = FloatingPointError("reduction failed")

            def spy_reduce(*args):
                raise error

            monkeypatch.setattr(ar.bias, "_excess", spy_reduce)
        with pytest.raises(type(error)) as raised:
            ar.mc_sigma2_study(design, truth, prior, 1.0, 0.5, replicates=600, seed=2)
        assert raised.value is error


def _n_dim_sigma2_study(design, truth, prior, sigma2, kappa, replicates, seed, mu_mode):
    """Estimates of the sigma2 study as it once sampled them: n whitened noise
    normals per replicate, plus t prior normals in TrueMu mode, projected onto U."""
    n, t = design.n, design.t
    workspace = ar.MarginalWorkspace(design.with_observations(np.zeros(n)), prior.w_beta)
    # its own SVD of the whitened design, independent of the package's factors
    whitened = workspace.w_beta.solve_lower(workspace.w.mul_lower_t(design.a_matrix).T).T
    u, s, vt = np.linalg.svd(whitened, full_matrices=False)
    z = np.empty((replicates, n))
    ar.bias._block_filler(seed)(0, z)
    z *= math.sqrt(sigma2)
    if mu_mode == "zero":
        z += workspace.w.mul_lower_t(truth.y_bar)
    # plain numpy on the already whitened draws, independent of the package's projection
    coef = u.T @ z.T
    outside = z.T - u @ coef
    perp = np.einsum("ij,ij->j", outside, outside)
    if mu_mode == "true":
        # L_W^T A beta_dev = sqrt(sigma2/kappa) U diag(s) V^T z_beta
        prior_normals = np.empty((replicates, t))
        ar.bias._block_filler(seed, word=1)(0, prior_normals)
        coef += math.sqrt(sigma2 / kappa) * s[:, None] * (vt @ prior_normals.T)
    damping = kappa / (s * s + kappa)
    return (perp + np.einsum("i,ij,ij->j", damping, coef, coef)) / n


def _oracle_fixture(kind):
    """(design, truth, prior, sigma2, kappa) with n = t, n - t = 1, or a dense W."""
    if kind == "phillips16":
        design, exact = ar.phillips_problem(16)
        truth = ar.GroundTruth.from_design(design, exact)
        return design, truth, ar.default_prior(16, mu=exact), 1e-3, 1e-2
    rng = np.random.default_rng(49)
    n, t = (7, 6) if kind == "n-minus-t-1" else (12, 4)
    design = random_design(rng, n, t, identity_w=kind == "n-minus-t-1")
    beta = rng.standard_normal(t)
    # part of ybar outside range(A), so that o_perp is not zero
    truth = ar.GroundTruth(beta, design.a_matrix @ beta + 0.2 * rng.standard_normal(n))
    return design, truth, random_prior(rng, t), 0.05, 0.5


class TestSigma2Oracle:
    """The t + 1 draws per replicate against the n-dimensional simulation."""

    @pytest.mark.parametrize("mu_mode", ["zero", "true"])
    @pytest.mark.parametrize("kind", ["phillips16", "n-minus-t-1", "dense-w"])
    def test_samplers_agree(self, kind, mu_mode):
        design, truth, prior, sigma2, kappa = _oracle_fixture(kind)
        replicates = 20000
        report = ar.mc_sigma2_study(design, truth, prior, sigma2, kappa, replicates, 5, mu_mode)
        # another seed, so the two samplers' draws are independent
        estimates = _n_dim_sigma2_study(design, truth, prior, sigma2, kappa, replicates, 6, mu_mode)
        mean, std_error = np.mean(estimates), np.std(estimates, ddof=1) / math.sqrt(replicates)
        assert abs(report.mc_mean - mean) < 4.0 * math.hypot(report.mc_std_error, std_error)
        # the sample standard deviation has relative standard error sqrt((kurtosis - 1) / 4R)
        centered = estimates - mean
        kurtosis = np.mean(centered**4) / np.mean(centered**2) ** 2
        spread = math.sqrt((kurtosis - 1.0) / (4.0 * replicates))
        assert abs(report.mc_std_error / std_error - 1.0) < 4.0 * math.sqrt(2.0) * spread

    @pytest.mark.parametrize("mu_mode", ["zero", "true"])
    def test_standard_error_matches_quadratic_form_variance(self, mu_mode):
        # Var of a Gaussian quadratic form (Mathai and Provost, 1992): with o_c = U^T o
        # and o_perp = o - U o_c, ZeroMu has Var(quad) = 2 sigma^4 [(n - t) + sum d^2]
        # + 4 sigma^2 [|o_perp|^2 + sum d^2 o_c^2], and TrueMu 2 n sigma^4
        n, t, replicates, sigma2, kappa = 400, 100, 30000, 1e-6, 1e-4
        design, exact = ar.spectrum_problem(n, t, decay=6.0, seed=1)
        truth = ar.GroundTruth.from_design(design, exact)
        prior = ar.default_prior(t, mu=exact)
        report = ar.mc_sigma2_study(design, truth, prior, sigma2, kappa, replicates, 7, mu_mode)
        if mu_mode == "true":
            variance = 2.0 * n * sigma2**2
        else:
            u, s, _ = np.linalg.svd(design.a_matrix, full_matrices=False)  # W = W_beta = I
            damping = kappa / (s * s + kappa)
            o_c = u.T @ truth.y_bar
            o_perp = truth.y_bar - u @ o_c
            variance = 2.0 * sigma2**2 * ((n - t) + np.sum(damping**2)) + 4.0 * sigma2 * (
                o_perp @ o_perp + np.sum(damping**2 * o_c**2)
            )
        analytic = math.sqrt(variance) / n / math.sqrt(replicates)
        assert report.mc_std_error / analytic == pytest.approx(1.0, abs=0.03)


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
