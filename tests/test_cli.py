import json
import subprocess
import warnings

import numpy as np
import pytest

import abicreg as ar
from abicreg import _linalg, cli
from abicreg.selection import DEFAULT_BRACKET, DEFAULT_REL_TOL
from conftest import (
    BOOL_ARRAYS,
    HUGE_INT_ARRAYS,
    NUMERIC_TEXT_ARRAYS,
    RAGGED_ARRAYS,
    TEXT_ARRAYS,
    cli_invocation,
)


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

    def test_non_finite_result_exits_3_without_result_file(self, tmp_path):
        # y * 1e160 makes the case-1 sigma2_hat overflow; orjson alone would write it as null
        gen = run_cli(
            "generate", "--kind", "phillips", "--n", "32", "--sigma2", "1e-4",
            "--seed", "3", "--out", "g", cwd=tmp_path,
        )
        assert gen.returncode == 0, gen.stderr
        doc = read_json(tmp_path / "g" / "problem.json")
        doc["y"] = [value * 1e160 for value in doc["y"]]
        (tmp_path / "scaled.json").write_text(json.dumps(doc))
        proc = run_cli(
            "select-kappa", "--problem", "scaled.json", "--mu-mode", "zero", "--out", "s",
            cwd=tmp_path,
        )
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stderr)["error"]["category"] == "numeric"
        assert not (tmp_path / "s" / "result.json").exists()

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--kind", "phillips", "--n", "8", "--sigma2", "0.01"],
            ["bias-study", "--kind", "phillips", "--n", "8", "--sigma2", "0.01", "--kappa", "1",
             "--replicates", "100"],
        ],
        ids=["generate", "bias-study"],
    )
    def test_largest_seed_is_written_exactly(self, tmp_path, argv):
        seed = 2**128 - 1
        proc = run_cli(*argv, "--seed", str(seed), "--out", "o", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert read_json(tmp_path / "o" / "config.json")["seed"] == seed
        assert read_json(tmp_path / "o" / "result.json")["config"]["seed"] == seed
        if argv[0] == "generate":
            assert read_json(tmp_path / "o" / "truth.json")["generator_spec"]["seed"] == seed


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


class TestParserBuiltOnce:
    """cli.main parses every call with one cached parser; no call leaks into the next."""

    def _select(self, generated, out, *flags):
        problem = str(generated / "gen" / "problem.json")
        return cli.main(["select-kappa", "--problem", problem, *flags, "--out", str(out)])

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_defaults_after_a_call_that_set_them(self, generated, tmp_path, capsys):
        assert self._select(generated, tmp_path / "set", "--case", "2", "--bracket", "-3", "4") == 0
        assert self._select(generated, tmp_path / "default") == 0
        assert capsys.readouterr() == ("", "")
        set_config = read_json(tmp_path / "set" / "config.json")
        assert (set_config["case"], set_config["bracket"]) == (2, [-3.0, 4.0])
        config = read_json(tmp_path / "default" / "config.json")
        assert config["case"] == 1
        assert config["bracket"] == list(DEFAULT_BRACKET)
        assert config["rel_tol"] == DEFAULT_REL_TOL
        assert config["sigma2"] is None

    def test_valid_call_after_an_argparse_error(self, generated, tmp_path, capsys):
        assert self._select(generated, tmp_path / "bad", "--case", "3") == 2
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "config"
        assert self._select(generated, tmp_path / "good") == 0
        assert capsys.readouterr() == ("", "")
        assert read_json(tmp_path / "good" / "config.json")["case"] == 1

    def test_default_bracket_list_unchanged(self, generated, tmp_path):
        for index, flags in enumerate([[], ["--bracket", "-2", "2"], ["--case", "2"], []]):
            assert self._select(generated, tmp_path / str(index), *flags) == 0
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        for name in ("select-kappa", "sweep", "bias-study"):
            assert subparsers[name].get_default("bracket") == list(DEFAULT_BRACKET)


BUNDLED_OPENBLAS = _linalg.bundled_openblas()
needs_bundled_openblas = pytest.mark.skipif(
    BUNDLED_OPENBLAS is None, reason="numpy's bundled OpenBLAS is not found; the CLI cannot pin it"
)


@pytest.fixture(scope="module")
def spectrum_2000x200(tmp_path_factory):
    """A problem file large enough that its SVD rounds differently on two BLAS threads."""
    root = tmp_path_factory.mktemp("spectrum2000")
    argv = ["generate", "--kind", "spectrum", "--n", "2000", "--t", "200", "--decay", "6"]
    assert cli.main([*argv, "--sigma2", "1e-6", "--seed", "3", "--out", str(root / "gen")]) == 0
    return root / "gen" / "problem.json"


class TestBlasThreads:
    def test_sigma2_study_byte_identical_at_one_and_two_threads(self, tmp_path):
        # the workspace SVD of this input rounds alike at both thread counts, so
        # nothing else in the study may depend on the thread count
        proc = run_cli(
            "generate", "--kind", "spectrum", "--n", "400", "--t", "100", "--decay", "6",
            "--sigma2", "1e-6", "--seed", "9", "--out", "gen", cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        for mode in ("zero", "true"):
            results = []
            for threads in ("1", "2"):
                cmd, env = cli_invocation(
                    "bias-study", "--study", "sigma2", "--problem", "gen/problem.json",
                    "--truth", "gen/truth.json", "--sigma2", "1e-6", "--kappa", "1e-4",
                    "--replicates", "30000", "--seed", "1", "--mu-mode", mode,
                    "--out", f"{mode}{threads}",
                )
                env["OPENBLAS_NUM_THREADS"] = threads
                proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)
                assert proc.returncode == 0, proc.stderr
                results.append((tmp_path / f"{mode}{threads}" / "result.json").read_bytes())
            assert results[0] == results[1], mode

    @needs_bundled_openblas
    @pytest.mark.parametrize(
        "argv, outputs",
        [
            ("select-kappa --case 1", ["result.json"]),
            ("select-kappa --case 2", ["result.json"]),
            ("sweep", ["result.json", "sweep.csv"]),
        ],
    )
    def test_outputs_independent_of_openblas_num_threads(
        self, spectrum_2000x200, tmp_path, argv, outputs
    ):
        written = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            cmd, env = cli_invocation(*argv.split(), "--problem", spectrum_2000x200, "--out", out)
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            written.append([(out / name).read_bytes() for name in outputs])
        assert written[0] == written[1]

    @needs_bundled_openblas
    def test_main_leaves_one_blas_thread(self, tmp_path):
        set_threads = BUNDLED_OPENBLAS.scipy_openblas_set_num_threads64_
        get_threads = BUNDLED_OPENBLAS.scipy_openblas_get_num_threads64_
        before = get_threads()
        try:
            set_threads(2)
            assert get_threads() == 2
            argv = ["generate", "--kind", "phillips", "--n", "8", "--out", str(tmp_path)]
            assert cli.main(argv) == 0
            assert get_threads() == 1
        finally:
            set_threads(before)


class TestTopLevel:
    def test_version_flag(self, tmp_path):
        proc = run_cli("--version", cwd=tmp_path)
        assert proc.returncode == 0
        assert ar.__version__ in proc.stdout

    def test_no_subcommand_is_config_error(self, tmp_path):
        proc = run_cli(cwd=tmp_path)
        assert proc.returncode == 2


# A valid 2 x 1 problem; each fuzz case edits one key or replaces the whole file (text or bytes).
GOOD_PROBLEM = {"A": [[1.0], [2.0]], "y": [1.0, 3.0], "mu": [1.0], "sigma2": 0.01, "sigma_beta2": 1.0}
SOLVE = "solve --problem {problem} --out {out} --method"
SELECT = "select-kappa --problem {problem} --out {out}"
SWEEP = "sweep --problem {problem} --out {out} --points 9"
BIAS = "bias-study --out {out} --replicates 100"
BIAS_FILES = f"{BIAS} --problem {{problem}} --truth {{truth}} --sigma2 0.01 --kappa 1"
BIAS_GEN = f"{BIAS} --kind phillips --n 8"
INDEFINITE = {"W": [[1.0, 2.0], [2.0, 1.0]]}
ASYMMETRIC = {"W": [[1.0, 0.0], [1.0, 1.0]]}


def _phillips(n):
    """The problem file of `generate --kind phillips --n {n} --sigma2 1e-4 --seed 1`."""
    design, exact = ar.phillips_problem(n)
    y, _ = ar.synthesize_observations(design, exact, 1e-4, seed=1)
    doc = {"A": design.a_matrix.tolist(), "y": y.tolist(), "mu": exact.tolist(), "sigma2": 1e-4}
    return json.dumps(doc)


def _scaled_phillips_8():
    """Phillips 8 with A scaled by 1e160 and y = A beta: every s^2 overflows."""
    design, exact = ar.phillips_problem(8)
    a = design.a_matrix * 1e160
    return json.dumps({"A": a.tolist(), "y": (a @ exact).tolist()})


# its largest s^2 is 33.7, so s^2 / kappa overflows at the bottom of the float range
PHILLIPS_16 = _phillips(16)
PHILLIPS_8 = _phillips(8)
PHILLIPS_8_TRUTH = json.dumps({"exact_solution": ar.phillips_problem(8)[1].tolist()})
LOWEST_BRACKET = "--bracket -307 -306"
# s_1^2 = 1.44e308 is finite, and s_1^2 + kappa overflows at kappa = 1e308
SUM_OVERFLOW = '{"A": [[1.2e154, 0.0], [0.0, 1.0], [0.0, 0.0]], "y": [1.0, 1.0, 1.0]}'
TOP_BRACKET = "--bracket 300 308"
# r^T E^-1 r at kappa = 1e308: 1 off range(A), d_2 = 1 and d_1 = 1 / (1 + 1.44)
SUM_OVERFLOW_QUAD = 2.0 + 1.0 / 2.44


def _result(out):
    return read_json(out / "result.json")["result"]


def _top_sweep_row(out):
    """(kappa, quad_term) of the sweep's last row."""
    return tuple(map(float, (out / "sweep.csv").read_text().splitlines()[-1].split(",")[:2]))


def fuzz(case_id, argv, code, problem=None, truth='{"exact_solution": [1.0]}', expect=None):
    """``expect(out)`` checks the outputs of a finished run."""
    return pytest.param(argv, problem or {}, truth, code, expect, id=case_id)


FUZZ_CASES = [
    fuzz("solve-ls-ok", f"{SOLVE} ls", 0),
    fuzz("select-ok", SELECT, 0),
    fuzz("bias-kappa-ok", f"{BIAS_GEN} --study kappa --sigma2 0.01", 0),
    fuzz("bias-files-ok", BIAS_FILES, 0),
    fuzz("generate-sigma2-zero", "generate --kind phillips --n 8 --sigma2 0 --out {out}", 0),
    fuzz(
        "sweep-lowest-bracket",
        f"sweep --problem {{problem}} --out {{out}} {LOWEST_BRACKET}",
        0,
        PHILLIPS_16,
    ),
    fuzz("select-lowest-bracket", f"{SELECT} {LOWEST_BRACKET}", 0, PHILLIPS_16),
    # W_beta = 1e-300 I makes s^2 = 5e300, which s^2 / kappa overflows at kappa = 1e-12
    fuzz("sweep-tiny-w-beta", SWEEP, 0, {"W_beta": [[1e-300]]}),
    # the spread of estimates near 3e299 and the sum of 1000 near 3e305 used to overflow
    fuzz("bias-sigma2-huge", f"{BIAS_GEN} --study sigma2 --sigma2 1e300 --kappa 1", 0),
    fuzz(
        "bias-sigma2-near-max",
        f"{BIAS_GEN} --study sigma2 --sigma2 1e306 --kappa 1 --replicates 1000",
        0,
    ),
    # quad overflowed before the division by n, and in true mode sigma2/kappa or s^2/kappa
    fuzz("bias-sigma2-max", f"{BIAS_GEN} --study sigma2 --sigma2 1e308 --kappa 1", 0),
    fuzz(
        "bias-sigma-beta2-overflow",
        f"{BIAS_GEN} --study sigma2 --sigma2 1e300 --kappa 1e-300 --mu-mode true",
        0,
    ),
    # s^2 = 5e300 and kappa 1e-320: s^2/kappa and s/sqrt(kappa) overflow and the damping underflows
    fuzz(
        "bias-tiny-w-beta-true",
        f"{BIAS_FILES} --kappa 1e-320 --mu-mode true",
        0,
        {"W_beta": [[1e-300]]},
    ),
    fuzz(
        "bias-kappa-subnormal",
        f"{BIAS} --study sigma2 --kind spectrum --n 8 --t 4 --sigma2 1 --kappa 1e-320 --mu-mode true",
        0,
    ),
    fuzz("solve-ls-huge-singular-values", f"{SOLVE} ls", 0, _scaled_phillips_8()),
    # d and e, and the solve's gain s / (s^2 + kappa), used to read 0 where s^2 + kappa overflows
    fuzz(
        "select-sum-overflow",
        f"{SELECT} {TOP_BRACKET}",
        0,
        SUM_OVERFLOW,
        expect=lambda out: _result(out)["sigma2_hat"] == pytest.approx(SUM_OVERFLOW_QUAD / 3, rel=1e-14),
    ),
    fuzz(
        "sweep-sum-overflow",
        f"{SWEEP} --case 2 --sigma2 1 {TOP_BRACKET}",
        0,
        SUM_OVERFLOW,
        expect=lambda out: _top_sweep_row(out) == pytest.approx((1e308, SUM_OVERFLOW_QUAD), rel=1e-14),
    ),
    fuzz(
        "solve-sum-overflow",
        f"{SOLVE} regularized --kappa 1e308",
        0,
        SUM_OVERFLOW,
        # s / (s^2 + kappa) = 1.2e154 / 2.44e308, the sign that of LAPACK's singular vectors
        expect=lambda out: abs(_result(out)["estimate"]["beta_hat"][0])
        == pytest.approx(1.2 / 2.44 * 1e-154, rel=1e-14, abs=0.0),
    ),
    # condition_estimate's RankDeficiencyWarning; the estimate itself reports the deficiency
    fuzz(
        "generate-rank-deficient",
        "generate --kind spectrum --n 8 --t 4 --decay 400 --sigma2 1 --out {out}",
        0,
    ),
    # a mean of about 1.01 sigma2 exceeds the largest float
    # the squared projection of ybar overflows, so the analytic signal term is inf
    fuzz(
        "bias-sigma2-signal-overflow",
        f"{BIAS} --study sigma2 --problem {{problem}} --truth {{truth}} --sigma2 1e-4 --kappa 1",
        2,
        _scaled_phillips_8(),
        PHILLIPS_8_TRUTH,
    ),
    fuzz(
        "bias-sigma2-mean-overflow",
        f"{BIAS_GEN} --study sigma2 --sigma2 1.79e308 --kappa 1 --mu-mode true --seed 1",
        2,
    ),
    fuzz("kappa-inf", f"{SOLVE} regularized --kappa inf", 2),
    fuzz("kappa-nan", f"{SOLVE} regularized --kappa nan", 2),
    fuzz("kappa-text", f"{SOLVE} regularized --kappa abc", 2),
    fuzz("solve-sigma2-inf", f"{SOLVE} bayes --sigma2 inf", 2),
    fuzz("solve-sigma-beta2-inf", f"{SOLVE} bayes --sigma-beta2 inf", 2),
    fuzz("select-sigma2-inf", f"{SELECT} --case 2 --sigma2 inf", 2),
    fuzz("select-rel-tol-inf", f"{SELECT} --rel-tol inf", 2),
    fuzz("select-bracket-inf", f"{SELECT} --bracket -12 inf", 2),
    fuzz("sweep-sigma2-inf", f"{SWEEP} --case 2 --sigma2 inf", 2),
    fuzz("bias-kappa-inf", f"{BIAS_GEN} --study sigma2 --sigma2 0.01 --kappa inf", 2),
    fuzz("bias-sigma2-inf", f"{BIAS_GEN} --study kappa --sigma2 inf", 2),
    fuzz("generate-decay-nan", "generate --kind spectrum --n 6 --t 2 --decay nan --out {out}", 2),
    fuzz("solve-sigma2-text", f"{SOLVE} bayes", 2, {"sigma2": "x"}),
    fuzz("solve-sigma-beta2-text", f"{SOLVE} bayes", 2, {"sigma_beta2": "x"}),
    fuzz("select-sigma2-text", f"{SELECT} --case 2", 2, {"sigma2": "x"}),
    fuzz("sweep-sigma2-text", SWEEP, 2, {"sigma2": "x"}),
    fuzz("select-sigma2-bool", f"{SELECT} --case 2", 2, {"sigma2": True}),
    fuzz("ragged-a", SELECT, 2, {"A": [[1.0], [2.0, 3.0]]}),
    fuzz("text-a", SELECT, 2, {"A": "x"}),
    *(
        fuzz(f"{kind}-entry-{key}", SELECT, 2, {key: arrays[key]})
        for kind, arrays in (
            ("text", TEXT_ARRAYS),
            ("ragged", RAGGED_ARRAYS),
            ("numeric-text", NUMERIC_TEXT_ARRAYS),
            ("bool", BOOL_ARRAYS),
            ("huge-int", HUGE_INT_ARRAYS),
        )
        for key in arrays
    ),
    fuzz("mu-wrong-length", f"{SOLVE} bayes", 2, {"mu": [1.0, 2.0]}),
    fuzz("y-nan", SELECT, 2, '{"A": [[1.0], [2.0]], "y": [NaN, 1.0]}'),
    fuzz("not-an-object", SELECT, 2, "[1.0]"),
    fuzz("not-json", SELECT, 2, "{A:"),
    fuzz("problem-not-utf8", SELECT, 2, json.dumps(GOOD_PROBLEM).encode() + b"\xff"),
    fuzz("solve-ls-indefinite-w", f"{SOLVE} ls", 3, INDEFINITE),
    fuzz("solve-bayes-indefinite-w", f"{SOLVE} bayes", 3, INDEFINITE),
    fuzz("select-indefinite-w", SELECT, 3, INDEFINITE),
    fuzz("solve-ls-asymmetric-w", f"{SOLVE} ls", 3, ASYMMETRIC),
    fuzz("solve-regularized-asymmetric-w", f"{SOLVE} regularized --kappa 1", 3, ASYMMETRIC),
    fuzz("solve-rank-deficient", f"{SOLVE} ls", 3, {"A": [[1.0, 1.0], [1.0, 1.0]], "mu": None}),
    # quad / sigma2 overflows at a subnormal known sigma2
    fuzz("select-sigma2-subnormal", f"{SELECT} --case 2 --sigma2 1e-320", 3, PHILLIPS_8),
    fuzz("sweep-sigma2-subnormal", f"{SWEEP} --case 2 --sigma2 1e-320", 3, PHILLIPS_8),
    fuzz("bias-kappa-sigma2-subnormal", f"{BIAS_GEN} --study kappa --case 2 --sigma2 5e-324", 3),
    # sigma2_hat / kappa_hat overflows at kappa_hat near 1e-300
    fuzz(
        "bias-kappa-sigma-beta2-overflow",
        f"{BIAS_GEN} --study kappa --sigma2 1e300 --case 2 --bracket -300 -250",
        3,
    ),
    fuzz("truth-text", BIAS_FILES, 2, truth='{"exact_solution": "abc"}'),
    fuzz("truth-wrong-length", BIAS_FILES, 2, truth='{"exact_solution": [1.0, 2.0]}'),
    fuzz("truth-missing-key", BIAS_FILES, 2, truth="{}"),
    fuzz("truth-not-utf8", BIAS_FILES, 2, truth=b'{"exact_solution": [1.0]}\xff'),
    # each first array (7 PiB, 728 TiB, 7 PiB) exceeds any address space, so numpy refuses it at once
    fuzz("sweep-points-too-large", f"{SWEEP} --points 1000000000000000", 2),
    fuzz(
        "bias-replicates-too-large",
        f"{BIAS_GEN} --study sigma2 --sigma2 0.01 --kappa 1 --replicates 100000000000000",
        2,
    ),
    fuzz("generate-n-too-large", "generate --kind phillips --n 1000000000000000 --out {out}", 2),
    fuzz("missing-problem", "select-kappa --problem {out}/nope.json --out {out}", 4),
]


class TestInProcessFuzz:
    """Bad flags and corrupted files through cli.main: the right exit code, never a traceback."""

    @pytest.mark.parametrize("argv, problem, truth, code, expect", FUZZ_CASES)
    def test_exit_code(self, tmp_path, capsys, argv, problem, truth, code, expect):
        if isinstance(problem, dict):
            edited = {**GOOD_PROBLEM, **problem}
            problem = json.dumps({key: value for key, value in edited.items() if value is not None})
        paths = {"problem": tmp_path / "problem.json", "truth": tmp_path / "truth.json"}
        for key, content in (("problem", problem), ("truth", truth)):
            if isinstance(content, bytes):
                paths[key].write_bytes(content)
            else:
                paths[key].write_text(content)
        argv = [arg.format(out=tmp_path / "out", **paths) for arg in argv.split()]
        with warnings.catch_warnings(record=True) as caught:
            # outside pytest, each of these would print its text to stderr
            warnings.simplefilter("always")
            exit_code = cli.main(argv)
        stdout, stderr = capsys.readouterr()
        assert not caught, [str(warning.message) for warning in caught]
        # the package never writes to stdout, where perfbench prints its result line
        assert stdout == ""
        assert "Traceback" not in stderr
        assert exit_code in {0, 2, 3, 4}
        assert exit_code == code, stderr
        if not code:
            # a finished run prints nothing and writes every objective value it found
            assert stderr == ""
            result = tmp_path / "out" / "result.json"
            if result.exists():
                trace = read_json(result)["result"].get("trace", [])
                assert all(value is not None for _, value in trace)
            if expect is not None:
                assert expect(tmp_path / "out")
        if code:
            category = {2: "config", 3: "numeric", 4: "io"}[code]
            assert json.loads(stderr)["error"]["category"] == category


class TestConfigBytes:
    """select-kappa and sweep share one config builder; its key order is pinned here."""

    CASES = [
        (
            "select-kappa --problem p.json --out o",
            '"command":"select-kappa","problem":"p.json","case":1,"mu_mode":"auto",'
            '"mu_assumed_zero":false,"sigma2":null,"bracket":[-12.0,12.0],"rel_tol":1e-6}',
        ),
        (
            "select-kappa --problem p.json --out o --case 2 --mu-mode zero",
            '"command":"select-kappa","problem":"p.json","case":2,"mu_mode":"zero",'
            '"mu_assumed_zero":true,"sigma2":0.0001,"bracket":[-12.0,12.0],"rel_tol":1e-6}',
        ),
        (
            "sweep --problem p.json --out o --sigma2 0.5 --points 9 --bracket -3 3",
            '"command":"sweep","problem":"p.json","case":1,"mu_mode":"auto",'
            '"mu_assumed_zero":false,"sigma2":null,"bracket":[-3.0,3.0],"points":9}',
        ),
    ]

    @pytest.mark.parametrize("argv, expected", CASES, ids=["select-case1", "select-case2", "sweep"])
    def test_config_json(self, tmp_path, monkeypatch, argv, expected):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.json").write_text(PHILLIPS_8)
        assert cli.main(argv.split()) == 0
        version = '{"version":"%s",' % ar.__version__
        assert (tmp_path / "o" / "config.json").read_bytes() == (version + expected + "\n").encode()


@pytest.fixture(scope="module")
def overflowing(tmp_path_factory):
    """Phillips 32 with y scaled by 1e160: its quadratic forms overflow to inf."""
    root = tmp_path_factory.mktemp("overflow")
    argv = ["generate", "--kind", "phillips", "--n", "32", "--sigma2", "1e-4", "--seed", "3"]
    assert cli.main([*argv, "--out", str(root / "g")]) == 0
    doc = read_json(root / "g" / "problem.json")
    doc["y"] = [value * 1e160 for value in doc["y"]]
    (root / "scaled.json").write_text(json.dumps(doc))
    return root / "scaled.json"


class TestOverflow:
    """An overflow in the objective exits 3 with stderr one JSON object, no warning text."""

    @pytest.mark.parametrize(
        "argv", ["sweep", "sweep --case 2 --sigma2 1e-4", "select-kappa --case 1"]
    )
    def test_stderr_is_one_json_object(self, overflowing, tmp_path, capsys, argv):
        exit_code = cli.main([*argv.split(), "--problem", str(overflowing), "--out", str(tmp_path)])
        stderr = capsys.readouterr().err
        assert exit_code == 3, stderr
        assert json.loads(stderr)["error"]["category"] == "numeric"


@pytest.fixture(scope="module")
def spectrum_24x6(tmp_path_factory):
    """A tall problem file, whose workspace takes the SVD route."""
    root = tmp_path_factory.mktemp("spectrum24")
    argv = ["generate", "--kind", "spectrum", "--n", "24", "--t", "6", "--decay", "3"]
    assert cli.main([*argv, "--sigma2", "1e-4", "--seed", "3", "--out", str(root / "gen")]) == 0
    return root / "gen" / "problem.json"


class TestSvdFailure:
    """A failing decomposition exits 3 on either route: the SVD on a tall design,
    eigh on the symmetric Phillips design."""

    @staticmethod
    def _assert_exits_3(argv, problem, tmp_path, capsys):
        exit_code = cli.main([*argv.split(), "--problem", str(problem), "--out", str(tmp_path)])
        stderr = capsys.readouterr().err
        assert exit_code == 3, stderr
        assert json.loads(stderr)["error"]["category"] == "numeric"

    @pytest.mark.parametrize("argv", ["select-kappa", "solve --method ls"])
    def test_exits_3(self, spectrum_24x6, tmp_path, capsys, monkeypatch, argv):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        self._assert_exits_3(argv, spectrum_24x6, tmp_path, capsys)

    @pytest.mark.parametrize("argv", ["select-kappa", "sweep"])
    def test_failing_eigh_exits_3(self, generated, tmp_path, capsys, monkeypatch, argv):
        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        self._assert_exits_3(argv, generated / "gen" / "problem.json", tmp_path, capsys)


# Runs in a child process where `import scipy` fails: every subcommand, on a
# problem with dense W and W_beta so that every factorization and solve runs.
WITHOUT_SCIPY = """
import json, sys
from pathlib import Path
sys.modules["scipy"] = None
import abicreg
from abicreg import _linalg, cli
loaded = sorted(name for name in sys.modules if name.startswith("scipy") and sys.modules[name])
assert not loaded, loaded
gen = ["--kind", "phillips", "--n", "16", "--seed", "3"]
assert cli.main(["generate", *gen, "--sigma2", "1e-4", "--out", "gen"]) == 0
doc = json.loads(Path("gen/problem.json").read_text())
doc["W"] = [[2.0 if i == j else 0.5 ** abs(i - j) for j in range(16)] for i in range(16)]
doc["W_beta"] = [[2.0 if i == j else -0.5 * (abs(i - j) == 1) for j in range(16)] for i in range(16)]
Path("dense.json").write_text(json.dumps(doc))
runs = [
    ["solve", "--method", "ls"],
    ["solve", "--method", "regularized", "--kappa", "1e-3"],
    ["solve", "--method", "bayes", "--sigma-beta2", "0.1"],
    ["select-kappa", "--case", "1"],
    ["select-kappa", "--case", "2"],
    ["sweep"],
    ["bias-study", "--study", "sigma2", "--truth", "gen/truth.json", "--sigma2", "1e-4",
     "--kappa", "1e-3", "--replicates", "300", "--mu-mode", "true"],
    ["bias-study", "--study", "kappa", "--truth", "gen/truth.json", "--sigma2", "1e-4",
     "--replicates", "100"],
]
for i, argv in enumerate(runs):
    code = cli.main([*argv, "--problem", "dense.json", "--out", f"out{i}"])
    assert code == 0, (argv, code)
print("ok", len(runs))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    cmd, env = cli_invocation()
    proc = subprocess.run(
        [cmd[0], "-c", WITHOUT_SCIPY], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok", "8"]
