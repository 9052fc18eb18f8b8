import numpy as np
import pytest
from numpy.testing import assert_allclose

import abicreg as ar


class TestPhillips:
    def test_shapes_and_symmetry(self):
        design, exact = ar.phillips_problem(16)
        assert design.a_matrix.shape == (16, 16)
        assert exact.shape == (16,)
        # the kernel depends only on the difference of grid points
        assert np.array_equal(design.a_matrix, design.a_matrix.T)

    def test_exact_solution_profile(self):
        design, exact = ar.phillips_problem(32)
        mid = -6.0 + (np.arange(32) + 0.5) * (12.0 / 32)
        assert np.all(exact >= 0.0)
        assert np.all(exact[np.abs(mid) >= 3.0] == 0.0)
        assert exact.max() == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize(
        "n,cond",
        [(8, 3.216e1), (16, 9.871e2), (32, 1.781e4), (64, 2.931e5)],
    )
    def test_conditioning_growth(self, n, cond):
        design, _ = ar.phillips_problem(n)
        problem = design.with_observations(np.zeros(n))
        assert ar.condition_estimate(problem) == pytest.approx(cond, rel=1e-3)

    def test_bad_sizes_rejected(self):
        for n in (0, 4, 10, 15):
            with pytest.raises(ar.DomainError):
                ar.phillips_problem(n)

    def test_row_sums_approximate_kernel_integral(self):
        # midpoint rule: rows integrate the kernel, total mass 6 per row
        # for rows whose support sits inside the domain
        design, _ = ar.phillips_problem(64)
        middle_row = design.a_matrix[32]
        assert middle_row.sum() == pytest.approx(6.0, rel=1e-3)


class TestSpectrum:
    def test_prescribed_singular_values(self):
        design, _ = ar.spectrum_problem(20, 6, decay=4.0, seed=5)
        s = np.linalg.svd(design.a_matrix, compute_uv=False)
        expected = 10.0 ** (-4.0 * np.arange(6) / 5)
        assert_allclose(s, expected, rtol=1e-10)

    def test_exact_solution_unit_norm(self):
        _, exact = ar.spectrum_problem(10, 5, decay=2.0, seed=1)
        assert np.linalg.norm(exact) == pytest.approx(1.0, rel=1e-12)

    def test_seed_reproducibility(self):
        a1, x1 = ar.spectrum_problem(12, 4, decay=3.0, seed=9)
        a2, x2 = ar.spectrum_problem(12, 4, decay=3.0, seed=9)
        assert np.array_equal(a1.a_matrix, a2.a_matrix)
        assert np.array_equal(x1, x2)
        a3, _ = ar.spectrum_problem(12, 4, decay=3.0, seed=10)
        assert not np.array_equal(a1.a_matrix, a3.a_matrix)

    def test_zero_decay_is_orthonormal_like(self):
        design, _ = ar.spectrum_problem(8, 3, decay=0.0, seed=2)
        s = np.linalg.svd(design.a_matrix, compute_uv=False)
        assert_allclose(s, np.ones(3), rtol=1e-10)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ar.DomainError):
            ar.spectrum_problem(5, 1, decay=1.0)
        with pytest.raises(ar.DomainError):
            ar.spectrum_problem(3, 4, decay=1.0)
        with pytest.raises(ar.DomainError):
            ar.spectrum_problem(5, 3, decay=-1.0)
        for seed in (-1, 2**128):
            with pytest.raises(ar.DomainError):
                ar.spectrum_problem(5, 3, decay=1.0, seed=seed)


class TestGeneratorSpec:
    def test_phillips_normalizes_t(self):
        spec = ar.GeneratorSpec(ar.GeneratorKind.PHILLIPS, n=12)
        assert spec.t == 12

    def test_phillips_wrong_t_rejected(self):
        with pytest.raises(ar.DomainError):
            ar.GeneratorSpec(ar.GeneratorKind.PHILLIPS, n=12, t=10)

    def test_accepts_string_kind(self):
        spec = ar.GeneratorSpec("spectrum", n=6, t=3)
        assert spec.kind is ar.GeneratorKind.SPECTRUM

    def test_json_round_trip(self):
        spec = ar.GeneratorSpec("spectrum", n=6, t=3, decay=2.5, seed=4)
        doc = spec.to_json()
        assert doc == {"kind": "spectrum", "n": 6, "t": 3, "decay": 2.5, "seed": 4}
        again = ar.GeneratorSpec(**doc)
        assert again == spec

    def test_generate_dispatch(self):
        design, exact = ar.generate_problem(ar.GeneratorSpec("phillips", n=8))
        assert design.a_matrix.shape == (8, 8)
        design, exact = ar.generate_problem(ar.GeneratorSpec("spectrum", n=9, t=4))
        assert design.a_matrix.shape == (9, 4)


class TestSynthesize:
    def test_zero_noise_is_exact(self):
        design, exact = ar.phillips_problem(8)
        y, truth = ar.synthesize_observations(design, exact, sigma2=0.0)
        assert np.array_equal(y, truth.y_bar)
        assert_allclose(truth.y_bar, design.a_matrix @ exact)

    def test_seed_reproducibility(self):
        design, exact = ar.phillips_problem(8)
        y1, _ = ar.synthesize_observations(design, exact, 0.5, seed=3)
        y2, _ = ar.synthesize_observations(design, exact, 0.5, seed=3)
        y3, _ = ar.synthesize_observations(design, exact, 0.5, seed=4)
        assert np.array_equal(y1, y2)
        assert not np.array_equal(y1, y3)

    def test_matches_first_study_replicate(self):
        # generated data is replicate 0 of the Monte Carlo sampler
        design, exact = ar.phillips_problem(8)
        y, truth = ar.synthesize_observations(design, exact, 0.25, seed=11)
        eps = ar.bias._noise_block(design, 0.25, 11, 100)[:, 0]
        assert_allclose(y, truth.y_bar + eps, rtol=1e-12)

    def test_noise_scale(self):
        design, exact = ar.spectrum_problem(400, 3, decay=1.0, seed=0)
        y, truth = ar.synthesize_observations(design, exact, sigma2=4.0, seed=1)
        spread = np.std(y - truth.y_bar)
        assert spread == pytest.approx(2.0, rel=0.15)

    def test_negative_sigma2_rejected(self):
        design, exact = ar.phillips_problem(8)
        with pytest.raises(ar.DomainError):
            ar.synthesize_observations(design, exact, -1.0)
