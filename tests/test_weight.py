"""The Weight type: an omitted weight is the identity and is never built."""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import abicreg as ar
from conftest import random_spd


def _mp_substitution(lower, rhs, trans):
    """L^-1 rhs, or L^-T rhs with ``trans``, by substitution at the working mpmath precision."""
    n = len(rhs)
    factor = [[mp.mpf(v) for v in row] for row in (lower.T if trans else lower).tolist()]
    out = [mp.mpf(0)] * n
    for i in reversed(range(n)) if trans else range(n):
        known = range(i + 1, n) if trans else range(i)
        out[i] = (mp.mpf(rhs[i]) - mp.fsum(factor[i][j] * out[j] for j in known)) / factor[i][i]
    return [float(v) for v in out]


class TestWeight:
    def test_identity_stores_no_matrix(self):
        w = ar.as_weight(None, "w", 5)
        assert w.matrix is None and w.size == 5
        assert w.logdet == 0.0
        assert_allclose(w.to_array(), np.eye(5))

    def test_identity_mul_lower_is_a_fresh_c_ordered_copy(self):
        x = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        out = ar.as_weight(None, "w", 3).mul_lower_t(x)
        assert out is not x and out.flags.c_contiguous
        assert np.array_equal(out, x)

    def test_dense_operations_match_numpy(self):
        rng = np.random.default_rng(1)
        mat = random_spd(rng, 5)
        w = ar.as_weight(mat, "w")
        lower = np.linalg.cholesky(mat)
        x = rng.standard_normal((5, 2))
        assert w.logdet == pytest.approx(np.linalg.slogdet(mat)[1], rel=1e-12)
        assert_allclose(w.mul_lower_t(x), lower.T @ x, rtol=1e-12)
        assert_allclose(w.solve_lower(x), np.linalg.solve(lower, x), rtol=1e-10)
        assert_allclose(w.solve_lower(x, trans=True), np.linalg.solve(lower.T, x), rtol=1e-10)

    @pytest.mark.parametrize(
        "trans, t",
        [(False, 16), (True, 16), (False, 130), (True, 130)],
        ids=["L", "LT", "L-130-rows", "LT-130-rows"],
    )
    def test_solve_lower_matches_mpmath_on_ill_conditioned_weight(self, trans, t):
        # a second-difference prior plus a 1e-10 ridge: cond(L) is about 4e5 at
        # either size; 130 rows are two diagonal blocks of 64 and one of 2
        diff2 = np.diff(np.eye(t), 2, axis=0)
        w = ar.as_weight(diff2.T @ diff2 + 1e-10 * np.eye(t), "w_beta")
        lower = w._factor()
        assert 3e5 < np.linalg.cond(lower) < 5e5
        rhs = np.random.default_rng(3).standard_normal((t, 3))
        with mp.workdps(50):
            exact = np.array([_mp_substitution(lower, col, trans) for col in rhs.T]).T
        block, vector = w.solve_lower(rhs, trans=trans), w.solve_lower(rhs[:, 0], trans=trans)
        assert np.linalg.norm(block - exact) <= 1e-13 * np.linalg.norm(exact)
        assert np.linalg.norm(vector - exact[:, 0]) <= 1e-13 * np.linalg.norm(exact[:, 0])

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("trans", [False, True], ids=["L", "LT"])
    def test_solve_lower_inverts_mul_lower(self, n, trans):
        rng = np.random.default_rng(n)
        w = ar.as_weight(random_spd(rng, n), "w")
        lower = w._factor()
        factor = lower.T if trans else lower
        assert np.array_equal(np.triu(factor) if trans else np.tril(factor), factor)
        rhs = rng.standard_normal((n, 4))
        for x in (rhs, rhs[:, 1]):
            solved = w.solve_lower(x, trans=trans)
            assert solved.shape == x.shape and solved is not x
            # small backward error, as a triangular substitution has
            residual = np.linalg.norm(factor @ solved - x)
            assert residual <= 1e2 * n * np.finfo(float).eps * np.linalg.norm(factor) * np.linalg.norm(solved)
            assert_allclose(solved, np.linalg.solve(factor, x), rtol=1e-9, atol=1e-12)

    def test_weight_passes_through_and_size_is_checked(self):
        w = ar.as_weight(np.eye(3), "w")
        assert ar.as_weight(w, "w", 3) is w
        with pytest.raises(ar.DimensionError):
            ar.as_weight(w, "w", 4)
        with pytest.raises(ar.DimensionError):
            ar.as_weight(None, "w")

    def test_no_implicit_array_conversion(self):
        assert not hasattr(ar.Weight, "__array__")

    @pytest.mark.parametrize(
        "bad",
        [np.diag([1.0, -1.0]), np.array([[1.0, 0.5], [0.0, 1.0]])],
        ids=["indefinite", "asymmetric"],
    )
    def test_workspace_rejects_invalid_weights(self, bad):
        a, y = [[1.0], [2.0]], [1.0, 2.0]
        with pytest.raises(ar.FactorizationError):
            ar.MarginalWorkspace(ar.InverseProblem(a, y, w=bad))
        with pytest.raises(ar.FactorizationError):
            ar.MarginalWorkspace(ar.InverseProblem([[1.0, 0.0], [0.0, 1.0]], y), bad)


def test_identity_weight_pipeline_stays_small(tmp_path):
    n, t = 4000, 3
    rng = np.random.default_rng(0)
    problem = ar.InverseProblem(rng.standard_normal((n, t)), rng.standard_normal(n))
    prior = ar.default_prior(t, mu=np.full(t, 0.1))
    bracket = (-6.0, 6.0)
    tracemalloc.start()
    try:
        assert ar.validate_problem(problem, prior).passed
        ar.select_case1(problem, prior, bracket)
        ar.select_case2(problem, prior, 1.0, bracket)
        ar.sweep_objective(problem, prior, log10_bracket=bracket, points=9)
        ar.save_problem(tmp_path / "p.json", problem, prior)
        loaded = ar.load_problem(tmp_path / "p.json")
        ar.synthesize_observations(loaded.problem.design, np.ones(t), 0.5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense identity W alone would take n^2 * 8 bytes, eight times this bound
    assert peak < n * n * 8 / 8, f"peak traced memory {peak / 2**20:.1f} MiB"


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    n=st.integers(2, 8),
    t_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_explicit_identity_weights_give_identical_results(n, t_share, seed):
    t = 1 + int(t_share * (n - 1))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, t))
    y = rng.standard_normal(n)
    mu = rng.standard_normal(t)
    truth = ar.GroundTruth.from_design(ar.ProblemDesign(a), mu)
    bracket = (-4.0, 4.0)

    def outputs(w, w_beta):
        problem = ar.InverseProblem(a, y, w)
        prior = ar.default_prior(t, mu=mu, w_beta=w_beta)
        rows = ar.sweep_objective(problem, prior, log10_bracket=bracket, points=9)
        return (
            ar.select_case1(problem, prior, bracket).to_json(),
            ar.select_case2(problem, prior, 0.3, bracket).to_json(),
            [(r.kappa, r.quad_term, r.logdet_term, r.objective, r.case) for r in rows],
            ar.synthesize_observations(problem.design, mu, 0.3, seed)[0].tolist(),
            # TrueMu mode draws beta as well; the study runs in the whitened frame and colors nothing
            ar.mc_sigma2_study(
                problem.design, truth, prior, 0.3, 2.0, replicates=100, seed=seed, mu_mode="true"
            ).to_json(),
        )

    implicit = outputs(None, None)
    assert outputs(np.eye(n), None) == implicit
    assert outputs(None, np.eye(t)) == implicit
