import json
import subprocess

import numpy as np
import pytest

import abicreg as ar
from conftest import cli_invocation


def run_cli(*args, cwd):
    cmd, env = cli_invocation(*args)
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """One generated Phillips problem shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    proc = run_cli(
        "generate", "--kind", "phillips", "--n", "16", "--sigma2", "1e-4",
        "--seed", "3", "--out", "gen", cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    return root


@pytest.fixture(scope="module")
def swept(generated):
    """A 15-point sweep of the generated problem, written to `sw/`."""
    proc = run_cli(
        "sweep", "--problem", "gen/problem.json", "--mu-mode", "zero",
        "--points", "15", "--out", "sw", cwd=generated,
    )
    assert proc.returncode == 0, proc.stderr
    return generated / "sw"


class TestGenerate:
    def test_outputs_and_config(self, generated):
        out = generated / "gen"
        assert (out / "problem.json").exists()
        assert (out / "truth.json").exists()
        config = read_json(out / "config.json")
        assert config["version"] == ar.__version__
        assert config["command"] == "generate"
        assert config["kind"] == "phillips"
        assert config["n"] == 16
        result = read_json(out / "result.json")
        assert result["result"]["n"] == 16
        assert result["config"]["seed"] == 3

    def test_problem_file_loads_and_matches_library(self, generated):
        loaded = ar.load_problem(generated / "gen" / "problem.json")
        design, exact = ar.phillips_problem(16)
        y, _ = ar.synthesize_observations(design, exact, 1e-4, seed=3)
        assert np.array_equal(loaded.problem.a_matrix, design.a_matrix)
        assert np.array_equal(loaded.problem.y, y)
        assert np.array_equal(loaded.prior.mu, exact)
        assert loaded.sigma2 == pytest.approx(1e-4)

    def test_truth_sidecar(self, generated):
        doc = read_json(generated / "gen" / "truth.json")
        assert doc["generator_spec"]["kind"] == "phillips"
        _, exact = ar.phillips_problem(16)
        assert np.allclose(doc["exact_solution"], exact)

    def test_mu_mode_zero_omits_mu(self, tmp_path):
        proc = run_cli(
            "generate", "--kind", "spectrum", "--n", "10", "--t", "3",
            "--decay", "2", "--mu-mode", "zero", "--out", "g0", cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        raw = read_json(tmp_path / "g0" / "problem.json")
        assert "mu" not in raw
        assert "sigma2" not in raw

    def test_missing_kind_is_config_error(self, tmp_path):
        proc = run_cli("generate", "--n", "16", cwd=tmp_path)
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"]["category"] == "config"


class TestSolve:
    def test_bayes_solution(self, generated):
        proc = run_cli(
            "solve", "--problem", "gen/problem.json", "--method", "bayes",
            "--sigma-beta2", "1e-2", "--out", "solve", cwd=generated,
        )
        assert proc.returncode == 0, proc.stderr
        result = read_json(generated / "solve" / "result.json")
        est = result["result"]["estimate"]
        assert est["method"] == "bayes"
        assert len(est["beta_hat"]) == 16
        assert result["result"]["validation"]["passed"] is True
        # sigma2 came from the problem file
        assert result["config"]["sigma2"] == pytest.approx(1e-4)

    def test_ls_matches_library(self, generated):
        proc = run_cli(
            "solve", "--problem", "gen/problem.json", "--method", "ls",
            "--out", "solvels", cwd=generated,
        )
        assert proc.returncode == 0, proc.stderr
        beta = read_json(generated / "solvels" / "result.json")["result"]["estimate"]["beta_hat"]
        loaded = ar.load_problem(generated / "gen" / "problem.json")
        assert np.allclose(beta, ar.ls_estimate(loaded.problem).beta_hat, rtol=1e-12)

    def test_regularized_needs_kappa(self, generated):
        proc = run_cli(
            "solve", "--problem", "gen/problem.json", "--method", "regularized",
            "--out", "x", cwd=generated,
        )
        assert proc.returncode == 2

    def test_unknown_method_rejected_by_parser(self, generated):
        proc = run_cli(
            "solve", "--problem", "gen/problem.json", "--method", "magic", cwd=generated
        )
        assert proc.returncode == 2
        assert "error" in json.loads(proc.stderr)


class TestSelectKappa:
    def test_case1_result_fields(self, generated):
        proc = run_cli(
            "select-kappa", "--problem", "gen/problem.json", "--mu-mode", "zero",
            "--out", "sel", cwd=generated,
        )
        assert proc.returncode == 0, proc.stderr
        result = read_json(generated / "sel" / "result.json")
        doc = result["result"]
        assert doc["boundary_flag"] in {"interior", "lower-edge", "upper-edge"}
        assert doc["sigma2_hat"] > 0
        assert result["config"]["mu_assumed_zero"] is True
        assert len(doc["trace"]) == 97

    def test_case2_uses_embedded_sigma2(self, generated):
        proc = run_cli(
            "select-kappa", "--problem", "gen/problem.json", "--case", "2",
            "--mu-mode", "zero", "--out", "sel2", cwd=generated,
        )
        assert proc.returncode == 0, proc.stderr
        result = read_json(generated / "sel2" / "result.json")
        assert result["result"]["sigma2_hat"] == pytest.approx(1e-4)
        assert result["config"]["sigma2"] == pytest.approx(1e-4)

    def test_exact_fit_degenerate_exits_3(self, tmp_path):
        gen = run_cli(
            "generate", "--kind", "phillips", "--n", "8", "--out", "g", cwd=tmp_path
        )
        assert gen.returncode == 0, gen.stderr
        proc = run_cli(
            "select-kappa", "--problem", "g/problem.json", "--out", "s", cwd=tmp_path
        )
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"]["category"] == "numeric"

    def test_missing_file_exits_4(self, tmp_path):
        proc = run_cli("select-kappa", "--problem", "nope.json", cwd=tmp_path)
        assert proc.returncode == 4

    def test_malformed_json_exits_2(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        proc = run_cli("select-kappa", "--problem", "bad.json", cwd=tmp_path)
        assert proc.returncode == 2

    def test_non_finite_problem_exits_2(self, tmp_path):
        # json accepts the NaN literal, so the check has to happen on load
        (tmp_path / "nan.json").write_text('{"A": [[1.0], [2.0]], "y": [NaN, 1.0]}')
        proc = run_cli("select-kappa", "--problem", "nan.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"]["category"] == "config"

    def test_bracket_outside_float_range_exits_2(self, generated):
        proc = run_cli(
            "select-kappa", "--problem", "gen/problem.json", "--bracket", "-400", "400",
            "--out", "wide", cwd=generated,
        )
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"]["category"] == "config"


class TestSweep:
    def test_csv_contract(self, swept):
        lines = (swept / "sweep.csv").read_text().splitlines()
        assert lines[0] == "kappa,quad_term,logdet_term,objective,case"
        assert len(lines) == 16
        result = read_json(swept / "result.json")
        assert result["result"]["points"] == 15
        assert result["result"]["case"] == "case1-zero-mean"

    def test_quad_and_logdet_monotone_in_csv(self, swept):
        lines = (swept / "sweep.csv").read_text().splitlines()[1:]
        quads = [float(line.split(",")[1]) for line in lines]
        logdets = [float(line.split(",")[2]) for line in lines]
        assert all(b >= a for a, b in zip(quads, quads[1:]))
        assert all(b <= a for a, b in zip(logdets, logdets[1:]))


class TestBiasStudy:
    def test_sigma2_study_from_generator(self, tmp_path):
        proc = run_cli(
            "bias-study", "--study", "sigma2", "--kind", "phillips", "--n", "8",
            "--sigma2", "0.01", "--kappa", "1.0", "--replicates", "300",
            "--out", "b", cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        doc = read_json(tmp_path / "b" / "result.json")["result"]
        assert doc["mu_mode"] == "zero"
        assert abs(doc["mc_mean"] - doc["analytic_expectation"]) < 4 * doc["mc_std_error"]

    def test_sigma2_study_from_files(self, generated):
        proc = run_cli(
            "bias-study", "--study", "sigma2", "--problem", "gen/problem.json",
            "--truth", "gen/truth.json", "--sigma2", "1e-4", "--kappa", "0.5",
            "--replicates", "150", "--mu-mode", "true", "--out", "bf", cwd=generated,
        )
        assert proc.returncode == 0, proc.stderr
        doc = read_json(generated / "bf" / "result.json")["result"]
        assert doc["analytic_expectation"] == pytest.approx(1e-4)
        assert doc["sampling"] == "prior-draw"

    def test_kappa_study(self, tmp_path):
        proc = run_cli(
            "bias-study", "--study", "kappa", "--kind", "spectrum", "--n", "12",
            "--t", "3", "--decay", "3", "--sigma2", "1e-4", "--replicates", "100",
            "--out", "bk", cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        doc = read_json(tmp_path / "bk" / "result.json")["result"]
        assert set(doc["true_mu"]) == {
            "kappa_hat", "sigma2_hat", "sigma_beta2_hat", "boundary_fraction", "failures",
        }
        assert doc["replicates"] == 100

    def test_problem_without_truth_is_config_error(self, generated):
        proc = run_cli(
            "bias-study", "--problem", "gen/problem.json", "--sigma2", "1e-4",
            "--kappa", "1", cwd=generated,
        )
        assert proc.returncode == 2


class TestSeedRange:
    """A seed must fit a Philox key, [0, 2**128); outside it the CLI exits 2."""

    @pytest.mark.parametrize("seed", [-1, 2**128])
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--kind", "phillips", "--n", "8", "--sigma2", "0.01"],
            ["bias-study", "--kind", "phillips", "--n", "8", "--sigma2", "0.01", "--kappa", "1"],
        ],
        ids=["generate", "bias-study"],
    )
    def test_out_of_range_seed_exits_2(self, tmp_path, argv, seed):
        proc = run_cli(*argv, "--seed", str(seed), "--out", "o", cwd=tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"]["category"] == "config"


class TestDeterminism:
    def test_select_kappa_byte_identical(self, generated):
        for out in ("d1", "d2"):
            proc = run_cli(
                "select-kappa", "--problem", "gen/problem.json", "--mu-mode", "zero",
                "--out", out, cwd=generated,
            )
            assert proc.returncode == 0, proc.stderr
        first = (generated / "d1" / "result.json").read_bytes()
        second = (generated / "d2" / "result.json").read_bytes()
        assert first == second

    def test_generate_byte_identical(self, tmp_path):
        for out in ("g1", "g2"):
            proc = run_cli(
                "generate", "--kind", "spectrum", "--n", "10", "--t", "3",
                "--decay", "2", "--sigma2", "0.01", "--seed", "5", "--out", out,
                cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "g1" / "problem.json").read_bytes() == (
            tmp_path / "g2" / "problem.json"
        ).read_bytes()


class TestTopLevel:
    def test_version_flag(self, tmp_path):
        proc = run_cli("--version", cwd=tmp_path)
        assert proc.returncode == 0
        assert ar.__version__ in proc.stdout

    def test_no_subcommand_is_config_error(self, tmp_path):
        proc = run_cli(cwd=tmp_path)
        assert proc.returncode == 2
