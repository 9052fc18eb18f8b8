"""Acceptance suite: one test per shipped guarantee.

Each test prints a single line
    [PASS|FAIL] criterion NN <name>: <measured numbers vs tolerance>
so a `pytest tests/test_acceptance.py -v -s` run reads as a checklist.
Every criterion carries an explicit tolerance and a wall-clock budget.
"""

import json
import math
import subprocess
import time

import mpmath as mp
import numpy as np
import scipy.integrate

import abicreg as ar
from conftest import cli_invocation, random_design, random_fixture, random_prior, tiny_fixture


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] criterion {number:02d} {name}: {detail}")
    assert passed, f"criterion {number:02d} {name}: {detail}"


def _rel(delta, scale):
    return float(delta) / max(1.0, float(scale))


def _posterior_precision(problem, prior, sigma2, sigma_beta2):
    a, w = problem.a_matrix, problem.w.to_array()
    return a.T @ w @ a / sigma2 + prior.w_beta.to_array() / sigma_beta2


def test_criterion_01_identity_suite():
    """Exponent decomposition, normal equations, Woodbury collapse."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 41))
        t = int(rng.integers(1, min(n, 8) + 1))
        cond = 10.0 ** rng.uniform(0.0, 6.0)
        problem, prior = random_fixture(rng, n, t, cond=cond)
        sigma2 = 10.0 ** rng.uniform(-2.0, 2.0)
        sigma_beta2 = 10.0 ** rng.uniform(-2.0, 2.0)
        a, w, y = problem.a_matrix, problem.w.to_array(), problem.y
        residual = y - a @ prior.mu
        precision = _posterior_precision(problem, prior, sigma2, sigma_beta2)
        beta_b = ar.bayes_estimate(problem, prior, sigma2, sigma_beta2).beta_hat

        # shift of the posterior mode away from the prior mean
        lhs = prior.mu - beta_b
        rhs = -np.linalg.solve(precision, a.T @ w @ residual) / sigma2
        worst = max(worst, _rel(np.linalg.norm(lhs - rhs), np.linalg.norm(rhs)))

        # rank-t downdate of the noise precision equals the inverse
        # marginal covariance
        sigma_py = ar.marginal_covariance(problem, prior, sigma2, sigma_beta2)
        w_s = w / sigma2
        collapsed = w_s - w_s @ a @ np.linalg.solve(precision, a.T @ w_s)
        direct = np.linalg.inv(sigma_py)
        worst = max(
            worst,
            _rel(np.linalg.norm(collapsed - direct), np.linalg.norm(direct)),
        )

        # joint exponent = recentered quadratic + data-only remainder
        remainder = float(residual @ np.linalg.solve(sigma_py, residual))
        for _ in range(3):
            beta = prior.mu + rng.standard_normal(t)
            mis = y - a @ beta
            dev = beta - prior.mu
            q_joint = float(mis @ w @ mis) / sigma2 + float(dev @ prior.w_beta.to_array() @ dev) / sigma_beta2
            shift = beta - beta_b
            q_split = float(shift @ precision @ shift) + remainder
            worst = max(worst, _rel(abs(q_joint - q_split), abs(q_joint)))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "identity suite",
        worst < 1e-9 and elapsed < 10.0,
        f"max rel err {worst:.2e} (tol 1e-9) over 50 fixtures in {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_02_marginal_density_oracle():
    """log_marginal_density vs adaptive quadrature over the parameters."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260402)
    worst = 0.0
    for trial in range(10):
        t = 1 if trial < 6 else 2
        n = int(rng.integers(3, 11))
        problem, prior = random_fixture(rng, n, t, cond=10.0)
        sigma2 = 10.0 ** rng.uniform(-1.0, 1.0)
        sigma_beta2 = 10.0 ** rng.uniform(-1.0, 1.0)
        claimed = ar.log_marginal_density(problem, prior, sigma2, sigma_beta2)

        beta_b = ar.bayes_estimate(problem, prior, sigma2, sigma_beta2).beta_hat
        anchor = ar.log_joint_density(problem, prior, beta_b, sigma2, sigma_beta2)
        spread = np.sqrt(
            np.diag(np.linalg.inv(_posterior_precision(problem, prior, sigma2, sigma_beta2)))
        )
        if t == 1:

            def integrand(b0):
                return math.exp(
                    ar.log_joint_density(problem, prior, [b0], sigma2, sigma_beta2) - anchor
                )

            mass, _ = scipy.integrate.quad(
                integrand,
                beta_b[0] - 12.0 * spread[0],
                beta_b[0] + 12.0 * spread[0],
                epsabs=1e-12,
                epsrel=1e-10,
                limit=200,
            )
        else:

            def integrand(b1, b0):
                return math.exp(
                    ar.log_joint_density(problem, prior, [b0, b1], sigma2, sigma_beta2) - anchor
                )

            mass, _ = scipy.integrate.dblquad(
                integrand,
                beta_b[0] - 9.0 * spread[0],
                beta_b[0] + 9.0 * spread[0],
                lambda _: beta_b[1] - 9.0 * spread[1],
                lambda _: beta_b[1] + 9.0 * spread[1],
                epsabs=1e-10,
                epsrel=1e-8,
            )
        quadrature = anchor + math.log(mass)
        worst = max(worst, abs(claimed - quadrature))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "marginal density oracle",
        worst < 1e-4 and elapsed < 30.0,
        f"max abs err {worst:.2e} (tol 1e-4) over 10 fixtures in {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_03_formula_equivalences():
    """Two likelihood parameterizations, concentration, estimator collapse."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260301)

    worst_pair = 0.0
    for _ in range(10):
        problem, prior = random_fixture(rng, 10, 3)
        sigma2 = 10.0 ** rng.uniform(-2.0, 2.0)
        kappa = 10.0 ** rng.uniform(-3.0, 3.0)
        by_kappa = ar.neg_log_lik_kappa(problem, prior, sigma2, kappa)
        by_var = ar.neg_log_lik_variances(problem, prior, sigma2, sigma2 / kappa)
        worst_pair = max(worst_pair, abs(by_kappa - by_var) / abs(by_var))

    problem, prior = random_fixture(rng, 12, 4)
    n = problem.n
    offsets = []
    for log_kappa in np.linspace(-8.0, 8.0, 50):
        kappa = 10.0 ** log_kappa
        s2 = ar.sigma2_hat(problem, prior, kappa)
        concentrated = ar.neg_log_lik_kappa(problem, prior, s2, kappa)
        offsets.append(concentrated - ar.abic_case1(problem, prior, kappa).total)
    spread = float(np.ptp(offsets))
    constant_err = abs(offsets[0] - (n - n * math.log(n)))

    worst_collapse = 0.0
    for _ in range(10):
        problem, prior = random_fixture(rng, 9, 3, zero_mu=True)
        sigma2 = 10.0 ** rng.uniform(-2.0, 2.0)
        sigma_beta2 = 10.0 ** rng.uniform(-2.0, 2.0)
        bayes = ar.bayes_estimate(problem, prior, sigma2, sigma_beta2).beta_hat
        ridge = ar.regularized_estimate(problem, prior.w_beta, sigma2 / sigma_beta2).beta_hat
        worst_collapse = max(
            worst_collapse,
            _rel(np.linalg.norm(bayes - ridge), np.linalg.norm(ridge)),
        )
    elapsed = time.perf_counter() - start
    _report(
        3,
        "formula equivalences",
        worst_pair < 1e-10
        and spread < 1e-9
        and constant_err < 1e-9
        and worst_collapse < 1e-12
        and elapsed < 10.0,
        f"parameterization err {worst_pair:.2e} (tol 1e-10), "
        f"concentration spread {spread:.2e} (tol 1e-9), "
        f"collapse err {worst_collapse:.2e} (tol 1e-12), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_04_monotone_terms():
    """quad_term never decreases, logdet_term never increases in kappa."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260404)
    worst_quad = -math.inf
    worst_logdet = -math.inf
    for trial in range(10):
        if trial < 8:
            n = int(rng.integers(6, 40))
            t = int(rng.integers(2, 8))
            cond = 10.0 ** rng.uniform(0.0, 4.0)
            problem, prior = random_fixture(rng, n, t, cond=cond, zero_mu=(trial % 2 == 0))
        else:
            design, exact = ar.phillips_problem(8 if trial == 8 else 16)
            y, _ = ar.synthesize_observations(design, exact, 1e-4, seed=trial)
            problem = design.with_observations(y)
            prior = ar.default_prior(problem.t)
        rows = ar.sweep_objective(problem, prior, case=1, log10_bracket=(-12.0, 12.0), points=97)
        quads = np.array([row.quad_term for row in rows])
        logdets = np.array([row.logdet_term for row in rows])
        worst_quad = max(worst_quad, float(np.max(-np.diff(quads))))
        worst_logdet = max(worst_logdet, float(np.max(np.diff(logdets))))
    elapsed = time.perf_counter() - start
    _report(
        4,
        "monotone objective terms",
        worst_quad <= 0.0 and worst_logdet <= 0.0 and elapsed < 10.0,
        f"worst quad decrease {worst_quad:.2e}, worst logdet increase {worst_logdet:.2e} "
        f"(both must be <= 0) over 10 fixtures x 97 points in {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_05_variance_estimate_unbiased_with_true_mean():
    """Monte Carlo mean of sigma2_hat matches sigma2 when mu is honest."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260505)
    hits = 0
    margins = []
    for _ in range(10):
        n = int(rng.integers(4, 25))
        t = int(rng.integers(1, min(n, 6) + 1))
        design = random_design(rng, n, t, cond=10.0 ** rng.uniform(0, 3))
        truth = ar.GroundTruth.from_design(design, rng.standard_normal(t))
        prior = random_prior(rng, t)
        sigma2 = 10.0 ** rng.uniform(-2.0, 1.0)
        kappa = 10.0 ** rng.uniform(-2.0, 2.0)
        report = ar.mc_sigma2_study(
            design,
            truth,
            prior,
            sigma2,
            kappa,
            replicates=20000,
            seed=int(rng.integers(1 << 31)),
            mu_mode=ar.MuMode.TRUE_MU,
        )
        deviation = abs(report.mc_mean - sigma2) / report.mc_std_error
        margins.append(deviation)
        hits += deviation < 3.0
    elapsed = time.perf_counter() - start
    _report(
        5,
        "unbiased with true mean",
        hits >= 9 and elapsed < 120.0,
        f"{hits}/10 fixtures within 3 SE (need >= 9), worst {max(margins):.2f} SE, "
        f"R=20000, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_06_bias_formula_with_zero_mean():
    """Monte Carlo mean matches the analytic zero-mean expectation."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260606)
    worst = 0.0
    fixtures = []

    design, _, prior, truth = tiny_fixture()
    fixtures.append((design, truth, prior, 1.0, 0.5))
    for _ in range(9):
        n = int(rng.integers(4, 25))
        t = int(rng.integers(1, min(n, 6) + 1))
        design = random_design(rng, n, t, cond=10.0 ** rng.uniform(0, 3))
        truth = ar.GroundTruth.from_design(design, rng.standard_normal(t))
        prior = random_prior(rng, t, zero_mu=True)
        sigma2 = 10.0 ** rng.uniform(-2.0, 1.0)
        kappa = 10.0 ** rng.uniform(-2.0, 2.0)
        fixtures.append((design, truth, prior, sigma2, kappa))

    closed_form_ok = False
    for index, (design, truth, prior, sigma2, kappa) in enumerate(fixtures):
        report = ar.mc_sigma2_study(
            design,
            truth,
            prior,
            sigma2,
            kappa,
            replicates=20000,
            seed=int(rng.integers(1 << 31)),
            mu_mode=ar.MuMode.ZERO_MU,
        )
        deviation = abs(report.mc_mean - report.analytic_expectation) / report.mc_std_error
        worst = max(worst, deviation)
        if index == 0:
            closed_form_ok = (
                abs(report.analytic_expectation - 0.8) < 1e-12 and deviation < 3.0
            )
    elapsed = time.perf_counter() - start
    _report(
        6,
        "zero-mean bias formula",
        worst < 3.0 and closed_form_ok and elapsed < 120.0,
        f"worst deviation {worst:.2f} SE (tol 3 SE) on 10 fixtures incl. the closed-form "
        f"0.8 fixture, R=20000, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_07_optimizer_vs_brute_force():
    """Golden-section kappa_hat vs a 1e5-point grid; edge flags."""
    start = time.perf_counter()
    design, exact = ar.phillips_problem(32)
    y, _ = ar.synthesize_observations(design, exact, 1e-4, seed=3)
    problem = design.with_observations(y)
    prior = ar.default_prior(32)

    # closed form through the SVD: W and W_beta are both identity here
    u, s, _ = np.linalg.svd(problem.a_matrix)
    weights = (u.T @ y) ** 2
    total = float(y @ y)
    s2 = s ** 2
    grid = 10.0 ** np.linspace(-12.0, 12.0, 100_000)
    quad = total - (weights[:, None] * (s2[:, None] / (grid[None, :] + s2[:, None]))).sum(axis=0)
    logdet = np.log1p(s2[:, None] / grid[None, :]).sum(axis=0)

    case1_obj = 32 * np.log(quad) + logdet
    oracle1 = grid[int(np.argmin(case1_obj))]
    found1 = ar.select_case1(problem, prior)
    err1 = abs(found1.kappa_hat - oracle1) / oracle1

    sigma2 = 1e-4
    case2_obj = quad / sigma2 + logdet
    oracle2 = grid[int(np.argmin(case2_obj))]
    found2 = ar.select_case2(problem, prior, sigma2)
    err2 = abs(found2.kappa_hat - oracle2) / oracle2

    lower = ar.minimize_scalar(lambda kappa: math.log10(kappa))
    upper = ar.minimize_scalar(lambda kappa: -math.log10(kappa))
    flags_ok = (
        found1.boundary_flag is ar.BoundaryFlag.INTERIOR
        and found2.boundary_flag is ar.BoundaryFlag.INTERIOR
        and lower.boundary_flag is ar.BoundaryFlag.LOWER_EDGE
        and upper.boundary_flag is ar.BoundaryFlag.UPPER_EDGE
    )
    elapsed = time.perf_counter() - start
    _report(
        7,
        "optimizer vs brute force",
        err1 < 1e-3 and err2 < 1e-3 and flags_ok and elapsed < 60.0,
        f"case1 rel err {err1:.2e}, case2 rel err {err2:.2e} (tol 1e-3 each) vs 1e5-point "
        f"grid, edge flags {'correct' if flags_ok else 'WRONG'}, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_08_byte_identical_reruns(tmp_path):
    """Seeded pipelines rewrite result.json byte for byte."""
    start = time.perf_counter()

    def run(*args):
        cmd, env = cli_invocation(*args)
        proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    run("generate", "--kind", "phillips", "--n", "16", "--sigma2", "1e-4",
        "--seed", "5", "--out", "gen")
    pipelines = {
        "select-kappa": ["select-kappa", "--problem", "gen/problem.json", "--mu-mode", "zero"],
        "sweep": ["sweep", "--problem", "gen/problem.json", "--mu-mode", "zero",
                  "--points", "33"],
        "bias-study": ["bias-study", "--study", "sigma2", "--kind", "phillips", "--n", "8",
                       "--sigma2", "0.01", "--kappa", "1.0", "--replicates", "150",
                       "--seed", "7"],
    }
    identical = {}
    for name, args in pipelines.items():
        blobs = []
        for attempt in ("a", "b"):
            out = f"{name}-{attempt}"
            run(*args, "--out", out)
            blobs.append((tmp_path / out / "result.json").read_bytes())
            if name == "sweep":
                blobs.append((tmp_path / out / "sweep.csv").read_bytes())
        if name == "sweep":
            identical[name] = blobs[0] == blobs[2] and blobs[1] == blobs[3]
        else:
            identical[name] = blobs[0] == blobs[1]
    elapsed = time.perf_counter() - start
    _report(
        8,
        "byte-identical reruns",
        all(identical.values()) and elapsed < 60.0,
        ", ".join(f"{k}: {'identical' if v else 'DIFFERS'}" for k, v in identical.items())
        + f", {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_09_dual_path_agreement():
    """Spectral route vs numpy on the explicitly assembled n x n cofactor."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260909)
    worst = 0.0
    shapes = [(64, 8), (40, 40), (12, 1), (30, 5), (8, 8)]
    for n, t in shapes:
        for _ in range(3):
            problem, prior = random_fixture(rng, n, t, cond=10.0 ** rng.uniform(0, 3))
            workspace = ar.MarginalWorkspace(problem, prior.w_beta)
            residual = workspace.residual(prior)
            kappa = 10.0 ** rng.uniform(-4.0, 4.0)
            spectral = workspace.operators(kappa)
            # E = Sigma / sigma2 with sigma2 = 1 and sigma_beta2 = 1 / kappa
            cofactor = ar.marginal_covariance(problem, prior, 1.0, 1.0 / kappa)
            logdet = np.linalg.slogdet(cofactor)[1]
            worst = max(worst, abs(spectral.logdet - logdet) / max(1.0, abs(logdet)))
            solved = np.linalg.solve(cofactor, residual)
            quad = float(residual @ solved)
            worst = max(worst, abs(spectral.quad_form(residual) - quad) / abs(quad))
            trace = np.trace(np.linalg.solve(cofactor, np.linalg.inv(problem.w.to_array())))
            worst = max(worst, abs(spectral.expected_noise_quad() - trace) / abs(trace))
    elapsed = time.perf_counter() - start
    _report(
        9,
        "spectral vs dense agreement",
        worst < 1e-9 and elapsed < 10.0,
        f"max rel disagreement {worst:.2e} (tol 1e-9) with dense E over 15 fixtures up to n=64, "
        f"kappa in 1e-4..1e4, in {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_10_high_precision_reference():
    """Spectral route vs a 60-digit mpmath evaluation over the whole default bracket."""
    start = time.perf_counter()
    rng = np.random.default_rng(20261012)
    worst = {"quad": 0.0, "logdet": 0.0, "trace": 0.0}
    with mp.workdps(60):
        for _ in range(3):
            problem, prior = random_fixture(rng, 12, 6, cond=1e8)
            workspace = ar.MarginalWorkspace(problem, prior.w_beta)
            residual = workspace.residual(prior)
            a = mp.matrix(problem.a_matrix.tolist())
            w_inv = mp.inverse(mp.matrix(problem.w.to_array().tolist()))
            prior_gram = a * mp.inverse(mp.matrix(prior.w_beta.to_array().tolist())) * a.T
            r = mp.matrix(residual.tolist())
            for k in range(-12, 13):
                kappa = 10.0**k
                cofactor = w_inv + prior_gram / mp.mpf(kappa)
                inverse = mp.inverse(cofactor)
                quad = (r.T * inverse * r)[0]
                logdet = mp.log(mp.det(cofactor))
                trace = sum((inverse * w_inv)[i, i] for i in range(problem.n))
                ops = workspace.operators(kappa)
                errors = {
                    "quad": abs(ops.quad_form(residual) - quad) / quad,
                    # ln det E can cross zero: its error is relative to max(1, |ln det E|)
                    "logdet": abs(ops.logdet - logdet) / max(1, abs(logdet)),
                    "trace": abs(ops.expected_noise_quad() - trace) / trace,
                }
                for key, err in errors.items():
                    worst[key] = max(worst[key], float(err))
    elapsed = time.perf_counter() - start
    _report(
        10,
        "high-precision reference",
        max(worst.values()) <= 1e-10 and elapsed < 30.0,
        "max rel err "
        + ", ".join(f"{key} {err:.2e}" for key, err in worst.items())
        + f" (tol 1e-10) over 3 fixtures 12x6, cond 1e8, kappa = 1e-12..1e12, "
        f"{elapsed:.1f}s (budget 30s)",
    )


def test_criterion_11_estimators_high_precision():
    """Point estimates vs a 50-digit mpmath solve, down to kappa = 1e-14 at cond(A) = 1e10."""
    start = time.perf_counter()
    rng = np.random.default_rng(20261018)
    eps = np.finfo(float).eps
    worst = {"ls": 0.0, "regularized": 0.0, "bayes": 0.0}
    worst_ratio = 0.0
    with mp.workdps(50):
        for cond in (1e6, 1e8, 1e10):
            for dense in (False, True):
                design = random_design(rng, 40, 12, cond=cond, identity_w=not dense)
                problem = design.with_observations(rng.standard_normal(40))
                prior = random_prior(rng, 12, identity_wbeta=not dense)
                a, w = mp.matrix(problem.a_matrix.tolist()), mp.matrix(problem.w.to_array().tolist())
                w_beta = mp.matrix(prior.w_beta.to_array().tolist())
                aw = a.T * w
                gram, data = aw * a, aw * mp.matrix(problem.y.tolist())
                prior_pull = w_beta * mp.matrix(prior.mu.tolist())
                # least squares has no kappa to bound its sensitivity: a backward-stable
                # solve errs by about eps cond(L_W^T A), up to 2x that measured here
                whitened = np.linalg.cholesky(problem.w.to_array()).T @ problem.a_matrix
                ls_tol = max(1e-8, 10.0 * eps * np.linalg.cond(whitened))
                cases = [("ls", 0.0, ar.ls_estimate(problem), ls_tol)]
                for k in range(-14, 3, 2):
                    kappa = 10.0**k
                    reg = ar.regularized_estimate(problem, prior.w_beta, kappa)
                    bayes = ar.bayes_estimate(problem, prior, 1.0, 1.0 / kappa)
                    cases += [("regularized", kappa, reg, 1e-8), ("bayes", bayes.kappa, bayes, 1e-8)]
                for name, kappa, estimate, tol in cases:
                    rhs = data + mp.mpf(kappa) * prior_pull if name == "bayes" else data
                    exact = mp.lu_solve(gram + mp.mpf(kappa) * w_beta, rhs)
                    err = float(mp.norm(mp.matrix(estimate.beta_hat.tolist()) - exact) / mp.norm(exact))
                    worst[name] = max(worst[name], err)
                    worst_ratio = max(worst_ratio, err / tol)
    elapsed = time.perf_counter() - start
    _report(
        11,
        "estimators vs high precision",
        worst_ratio <= 1.0 and elapsed < 30.0,
        "max rel err "
        + ", ".join(f"{key} {err:.2e}" for key, err in worst.items())
        + " (tol 1e-8; ls max(1e-8, 10 eps cond(L_W^T A))) over 6 fixtures 40x12, "
        f"cond 1e6..1e10, identity and dense weights, kappa = 1e-14..1e2, "
        f"{elapsed:.1f}s (budget 30s)",
    )
