import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import abicreg as ar
from conftest import (
    BOOL_ARRAYS,
    GOOD_ARRAYS,
    HUGE_INT_ARRAYS,
    NULL_ARRAYS,
    NUMERIC_TEXT_ARRAYS,
    RAGGED_ARRAYS,
    TEXT_ARRAYS,
    random_fixture,
    random_spd,
)


LOADER_SETTINGS = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def file_arrays(loaded):
    """The five arrays of a loaded problem file under their keys; None for an identity weight."""
    return {
        "A": loaded.problem.a_matrix,
        "y": loaded.problem.y,
        "W": loaded.problem.w.matrix,
        "W_beta": loaded.prior.w_beta.matrix,
        "mu": loaded.prior.mu,
    }


def loader_matches_stdlib(tmp_path, data):
    """Load a drawn problem, written by save_problem and by json.dumps, and
    compare each array bit for bit with the stdlib parse of the same text."""
    extreme = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, sys.float_info.max, -sys.float_info.max]
    values = (
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from(extreme)
        | st.integers(2**63, 2**70)
        | st.integers(-(2**70), -(2**63))
    )
    n = data.draw(st.integers(1, 4), label="n")
    t = data.draw(st.integers(1, n), label="t")

    def draw(*shape):
        size = int(np.prod(shape))
        flat = data.draw(st.lists(values, min_size=size, max_size=size))
        return flat if len(shape) == 1 else [flat[i * shape[1] : (i + 1) * shape[1]] for i in range(shape[0])]

    doc = {"A": draw(n, t), "y": draw(n), "W": draw(n, n), "W_beta": draw(t, t), "mu": draw(t)}
    path = tmp_path / "p.json"
    raw = json.dumps(doc)
    problem = ar.InverseProblem(doc["A"], doc["y"], doc["W"])
    ar.save_problem(path, problem, ar.default_prior(t, doc["mu"], doc["W_beta"]))
    for text in (path.read_text(), raw):
        path.write_text(text)
        got = file_arrays(ar.load_problem(path))
        for key, value in json.loads(text).items():
            want = np.asarray(value, dtype=float)
            assert np.array_equal(got[key].view(np.uint64), want.view(np.uint64)), key


class TestInverseProblem:
    def test_shapes_and_defaults(self):
        p = ar.InverseProblem([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.0])
        assert p.n == 3 and p.t == 2
        assert_allclose(p.w.to_array(), np.eye(3))

    def test_arrays_are_frozen(self):
        p = ar.InverseProblem([[1.0], [1.0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            p.a_matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            p.y[0] = 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ar.DimensionError):
            ar.InverseProblem([[1.0], [1.0]], [1.0, 2.0, 3.0])
        with pytest.raises(ar.DimensionError):
            ar.InverseProblem([[1.0], [1.0]], [1.0, 2.0], w=np.eye(3))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ar.DimensionError):
            ar.InverseProblem([[1.0, 2.0]], [1.0])

    def test_non_numeric_rejected(self):
        with pytest.raises(ar.DimensionError):
            ar.InverseProblem([[1.0], ["x"]], [1.0, 2.0])

    def test_non_finite_rejected(self):
        a, y = [[1.0], [2.0]], [1.0, 2.0]
        with pytest.raises(ar.DomainError):
            ar.InverseProblem([[1.0], [np.inf]], y)
        with pytest.raises(ar.DomainError):
            ar.InverseProblem(a, [1.0, np.nan])
        with pytest.raises(ar.DomainError):
            ar.InverseProblem(a, y, w=[[1.0, 0.0], [0.0, np.nan]])
        with pytest.raises(ar.DomainError):
            ar.default_prior(1, mu=[np.inf])
        with pytest.raises(ar.DomainError):
            ar.default_prior(1, w_beta=[[np.nan]])

    def test_design_round_trip(self):
        design = ar.ProblemDesign([[1.0], [2.0]])
        p = design.with_observations([3.0, 4.0])
        assert_allclose(p.a_matrix, [[1.0], [2.0]])
        assert_allclose(p.y, [3.0, 4.0])


class TestNoAliasing:
    """Every stored array is a copy: writing to the caller's array later changes nothing."""

    def test_objects_keep_their_values(self):
        a, y, w, mu = np.array([[1.0], [2.0]]), np.array([1.0, 3.0]), np.eye(2), np.array([1.0])
        objects = {
            "problem": ar.InverseProblem(a, y, w),
            "design": ar.ProblemDesign(a, w),
            "weight": ar.Weight(w),
            "prior": ar.PriorModel(mu, w[:1, :1]),
            "truth": ar.GroundTruth(mu, y),
        }
        arrays = {
            "problem": lambda o: (o.a_matrix, o.y, o.w.matrix),
            "design": lambda o: (o.a_matrix, o.w.matrix),
            "weight": lambda o: (o.matrix,),
            "prior": lambda o: (o.mu, o.w_beta.matrix),
            "truth": lambda o: (o.beta_bar, o.y_bar),
        }
        before = {name: [x.copy() for x in arrays[name](o)] for name, o in objects.items()}
        for arr in (a, y, w, mu):
            arr += 7.0
        for name, o in objects.items():
            for old, new in zip(before[name], arrays[name](o)):
                assert_allclose(new, old, rtol=0, atol=0)
                assert not new.flags.writeable


class TestPriorModel:
    def test_default_prior_zero_mean_flag(self):
        prior = ar.default_prior(3)
        assert prior.mu_assumed_zero
        assert_allclose(prior.mu, np.zeros(3))
        assert_allclose(prior.w_beta.to_array(), np.eye(3))

    def test_explicit_mu_not_flagged(self):
        prior = ar.default_prior(2, mu=[1.0, 2.0])
        assert not prior.mu_assumed_zero

    def test_with_zero_mean(self):
        prior = ar.default_prior(2, mu=[1.0, 2.0])
        zeroed = prior.with_zero_mean()
        assert zeroed.mu_assumed_zero
        assert_allclose(zeroed.mu, [0.0, 0.0])
        assert_allclose(zeroed.w_beta.to_array(), prior.w_beta.to_array())

    def test_mu_length_checked(self):
        with pytest.raises(ar.DimensionError):
            ar.default_prior(2, mu=[1.0, 2.0, 3.0])

    def test_mu_length_error_names_mu(self, tmp_path):
        # without a W_beta key the identity is built for t; the error is still mu's
        with pytest.raises(ar.DimensionError, match="^mu has length 2, expected 1$"):
            ar.default_prior(1, mu=[1.0, 2.0])
        path = tmp_path / "p.json"
        path.write_text('{"A": [[1.0],[1.0]], "y": [1.0, 2.0], "mu": [1.0, 2.0]}')
        with pytest.raises(ar.DimensionError, match="^mu has length 2, expected 1$"):
            ar.load_problem(path)


class TestValidation:
    def test_all_pass_on_good_fixture(self):
        rng = np.random.default_rng(42)
        problem, prior = random_fixture(rng, 12, 4)
        report = ar.validate_problem(problem, prior)
        assert report.passed
        names = {check.name for check in report.checks}
        assert "a_full_column_rank" in names
        assert "w_positive_definite" in names

    def test_rank_deficiency_detected(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        problem = ar.InverseProblem(a, [1.0, 2.0, 3.0])
        report = ar.validate_problem(problem, ar.default_prior(2))
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "a_full_column_rank" in failed

    def test_indefinite_weight_detected(self):
        problem = ar.InverseProblem([[1.0], [1.0]], [1.0, 2.0], w=np.diag([1.0, -1.0]))
        report = ar.validate_problem(problem, ar.default_prior(1))
        failed = {c.name for c in report.checks if not c.passed}
        assert "w_positive_definite" in failed

    def test_asymmetric_weight_detected(self):
        w = np.array([[1.0, 0.5], [0.0, 1.0]])
        problem = ar.InverseProblem([[1.0], [1.0]], [1.0, 2.0], w=w)
        report = ar.validate_problem(problem, ar.default_prior(1))
        failed = {c.name for c in report.checks if not c.passed}
        assert "w_symmetric" in failed

    def test_zero_weight_is_symmetric_but_not_definite(self):
        problem = ar.InverseProblem([[1.0], [1.0]], [1.0, 2.0], w=np.zeros((2, 2)))
        # the asymmetry of an all-zero matrix is 0, not 0 / 0 with a RuntimeWarning, which fails a test
        report = ar.validate_problem(problem, ar.default_prior(1))
        passed = {c.name: c.passed for c in report.checks}
        assert passed["w_symmetric"] and not passed["w_positive_definite"]

    def test_report_json_shape(self):
        rng = np.random.default_rng(7)
        problem, prior = random_fixture(rng, 6, 2)
        doc = ar.validate_problem(problem, prior).to_json()
        assert set(doc) == {"passed", "checks"}
        for entry in doc["checks"]:
            assert set(entry) == {"name", "passed", "detail"}

    def test_prior_problem_size_mismatch(self):
        problem = ar.InverseProblem([[1.0], [1.0]], [1.0, 2.0])
        with pytest.raises(ar.DimensionError):
            ar.validate_problem(problem, ar.default_prior(3))


class TestConditionEstimate:
    def test_identity_is_one(self):
        problem = ar.InverseProblem(np.eye(4), np.ones(4))
        assert ar.condition_estimate(problem) == pytest.approx(1.0)

    def test_warns_near_rank_deficiency(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16], [1.0, 1.0]])
        problem = ar.InverseProblem(a, np.ones(3))
        with pytest.warns(ar.RankDeficiencyWarning):
            value = ar.condition_estimate(problem)
        assert value > 1e12

    def test_zero_column_is_infinite(self):
        problem = ar.InverseProblem([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], np.ones(3))
        with pytest.warns(ar.RankDeficiencyWarning):
            assert ar.condition_estimate(problem) == math.inf


class TestGroundTruth:
    def test_from_design(self):
        design = ar.ProblemDesign([[1.0], [2.0]])
        truth = ar.GroundTruth.from_design(design, [3.0])
        assert_allclose(truth.y_bar, [3.0, 6.0])
        assert_allclose(truth.beta_bar, [3.0])


class TestProblemFiles:
    def test_round_trip_with_everything(self, tmp_path):
        rng = np.random.default_rng(3)
        problem, prior = random_fixture(rng, 5, 2)
        path = tmp_path / "p.json"
        ar.save_problem(path, problem, prior, sigma2=0.25, sigma_beta2=4.0)
        loaded = ar.load_problem(path)
        assert_allclose(loaded.problem.a_matrix, problem.a_matrix)
        assert_allclose(loaded.problem.y, problem.y)
        assert_allclose(loaded.problem.w.to_array(), problem.w.to_array())
        assert_allclose(loaded.prior.mu, prior.mu)
        assert_allclose(loaded.prior.w_beta.to_array(), prior.w_beta.to_array())
        assert loaded.sigma2 == pytest.approx(0.25)
        assert loaded.sigma_beta2 == pytest.approx(4.0)
        assert not loaded.mu_assumed_zero

    def test_zero_mean_flag_survives_round_trip(self, tmp_path):
        problem = ar.InverseProblem([[1.0], [1.0]], [1.0, 2.0])
        path = tmp_path / "p.json"
        ar.save_problem(path, problem, ar.default_prior(1))
        loaded = ar.load_problem(path)
        assert loaded.mu_assumed_zero
        raw = json.loads(path.read_text())
        assert "mu" not in raw
        assert "W" not in raw

    def test_identity_weights_omitted(self, tmp_path):
        problem = ar.InverseProblem([[1.0], [1.0]], [1.0, 2.0])
        path = tmp_path / "p.json"
        ar.save_problem(path, problem, ar.default_prior(1, mu=[1.0]))
        raw = json.loads(path.read_text())
        assert set(raw) == {"A", "y", "mu"}

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"A": [[1.0],[1.0]], "y": [1.0, 2.0], "extra": 1}')
        with pytest.raises(ar.DomainError, match="extra"):
            ar.load_problem(path)

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"A": [[1.0],[1.0]]}')
        with pytest.raises(ar.DomainError, match="'y'"):
            ar.load_problem(path)

    def test_ragged_matrix_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"A": [[1.0],[1.0, 2.0]], "y": [1.0, 2.0]}')
        with pytest.raises((ar.DomainError, ar.DimensionError)):
            ar.load_problem(path)

    def test_nonpositive_sigma2_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"A": [[1.0],[1.0]], "y": [1.0, 2.0], "sigma2": 0.0}')
        with pytest.raises(ar.DomainError):
            ar.load_problem(path)

    @pytest.mark.parametrize("value", ["0.0", "-1.0"])
    def test_nonpositive_sigma_beta2_rejected(self, tmp_path, value):
        # the problem file is the one home of the prior variance
        path = tmp_path / "p.json"
        path.write_text(f'{{"A": [[1.0],[1.0]], "y": [1.0, 2.0], "sigma_beta2": {value}}}')
        with pytest.raises(ar.DomainError, match="sigma_beta2 must be positive"):
            ar.load_problem(path)

    @pytest.mark.parametrize(
        "bad",
        [TEXT_ARRAYS, RAGGED_ARRAYS, NUMERIC_TEXT_ARRAYS, BOOL_ARRAYS, HUGE_INT_ARRAYS],
        ids=["text", "ragged", "numeric-text", "bool", "huge-int"],
    )
    @pytest.mark.parametrize("key", ["A", "y", "W", "W_beta", "mu"])
    def test_non_numeric_array_rejected(self, tmp_path, key, bad):
        """Every array of a file goes through one conversion, with one error type."""
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**GOOD_ARRAYS, key: bad[key]}))
        name = {"A": "a_matrix", "W": "w", "W_beta": "w_beta"}.get(key, key)
        with pytest.raises(ar.DimensionError, match=f"^{name} is not a numeric array"):
            ar.load_problem(path)

    @pytest.mark.parametrize("key", ["sigma2", "sigma_beta2"])
    @pytest.mark.parametrize(
        "text",
        ['"x"', "true", "[1.0]", "1e400", "1" + "0" * 400, "NaN"],
        ids=["string", "bool", "list", "inf", "huge-int", "nan"],
    )
    def test_non_numeric_variance_rejected(self, tmp_path, key, text):
        path = tmp_path / "p.json"
        path.write_text(f'{{"A": [[1.0],[1.0]], "y": [1.0, 2.0], "{key}": {text}}}')
        with pytest.raises(ar.DomainError, match=key):
            ar.load_problem(path)

    @LOADER_SETTINGS
    @given(st.data())
    def test_loader_matches_stdlib_parse_bit_for_bit(self, tmp_path, data):
        """Every array load_problem returns holds exactly the doubles of the
        stdlib parse, for files written by save_problem and as raw JSON text."""
        loader_matches_stdlib(tmp_path, data)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        problem, prior = random_fixture(rng, 4, 2)
        path = tmp_path / "p.json"
        ar.save_problem(path, problem, prior)
        loaded = ar.load_problem(path)
        assert np.array_equal(loaded.problem.a_matrix, problem.a_matrix)
        assert np.array_equal(loaded.problem.w.to_array(), problem.w.to_array())


def spy_block_path(monkeypatch):
    """A list that records, load by load, whether a file's matrices were read in row blocks."""
    taken, load_blocks = [], ar.serialize._load_blocks

    def spy(*args):
        doc = load_blocks(*args)
        taken.append(doc is not None)
        return doc

    monkeypatch.setattr(ar.serialize, "_load_blocks", spy)
    return taken


def load_both_ways(monkeypatch, path):
    """(what load_problem gives, what it gives when every file is parsed whole):
    a LoadedProblem or the exception raised."""
    outcomes = []
    for whole in (False, True):
        with monkeypatch.context() as patch:
            if whole:
                patch.setattr(ar.serialize, "_load_blocks", lambda *args: None)
            try:
                outcomes.append(ar.load_problem(path))
            except Exception as exc:  # noqa: BLE001 - the two outcomes are compared
                outcomes.append(exc)
    return outcomes


def assert_same_load(blocks, whole):
    if isinstance(whole, Exception):
        assert type(blocks) is type(whole) and str(blocks) == str(whole), (blocks, whole)
        return
    for key, want in file_arrays(whole).items():
        got = file_arrays(blocks)[key]
        assert (got is None) == (want is None), key
        if want is not None:
            assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64)), key
    assert (blocks.sigma2, blocks.sigma_beta2) == (whole.sigma2, whole.sigma_beta2)
    assert blocks.mu_assumed_zero == whole.mu_assumed_zero


def problem_doc(n=9, t=3, seed=4):
    """A problem file's keys, all seven, with dense weights, as lists."""
    rng = np.random.default_rng(seed)
    problem, prior = random_fixture(rng, n, t)
    return {
        "A": problem.a_matrix.tolist(),
        "y": problem.y.tolist(),
        "W": problem.w.matrix.tolist(),
        "W_beta": prior.w_beta.matrix.tolist(),
        "mu": prior.mu.tolist(),
        "sigma2": 0.25,
        "sigma_beta2": 4.0,
    }


LAYOUTS = {
    "compact": lambda doc: json.dumps(doc, separators=(",", ":")),
    "spaced": json.dumps,
    "indented": lambda doc: json.dumps(doc, indent=4),
}


class TestBlockReads:
    """Problem files of numbers only have their matrices read in row blocks,
    with the doubles, and the errors, of a parse of the whole file."""

    @LOADER_SETTINGS
    @given(st.data())
    def test_loader_matches_stdlib_parse_in_one_row_blocks(self, tmp_path, monkeypatch, data):
        with monkeypatch.context() as patch:
            patch.setattr(ar.serialize, "_BLOCK_BYTES", 1)
            taken = spy_block_path(patch)
            loader_matches_stdlib(tmp_path, data)
        # both layouts, every matrix row its own block
        assert taken == [True, True]

    @pytest.mark.parametrize("block_bytes", [1, 100, None], ids=["one-row", "some-rows", "default"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("order", range(5))
    def test_keys_in_any_order(self, tmp_path, monkeypatch, order, layout, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(ar.serialize, "_BLOCK_BYTES", block_bytes)
        doc = problem_doc()
        keys = list(doc)
        np.random.default_rng(order).shuffle(keys)
        path = tmp_path / "p.json"
        path.write_text(LAYOUTS[layout]({key: doc[key] for key in keys}))
        taken = spy_block_path(monkeypatch)
        blocks, whole = load_both_ways(monkeypatch, path)
        assert taken == [True]
        assert_same_load(blocks, whole)
        assert np.array_equal(blocks.problem.a_matrix, np.array(doc["A"]))

    @pytest.mark.parametrize("block_bytes", [1, 300, None], ids=["one-row", "some-rows", "default"])
    def test_dense_weights_read_in_blocks(self, tmp_path, monkeypatch, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(ar.serialize, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(8)
        problem, prior = random_fixture(rng, 40, 7)
        path = tmp_path / "p.json"
        ar.save_problem(path, problem, prior, sigma2=0.5)
        taken = spy_block_path(monkeypatch)
        loaded = ar.load_problem(path)
        assert taken == [True]
        saved = {"A": problem.a_matrix, "y": problem.y, "W": problem.w.matrix}
        saved.update(W_beta=prior.w_beta.matrix, mu=prior.mu)
        for key, got in file_arrays(loaded).items():
            assert np.array_equal(got.view(np.uint64), saved[key].view(np.uint64)), key

    def test_duplicate_key_is_parsed_whole(self, tmp_path, monkeypatch):
        # both parsers keep the last value of a repeated key
        path = tmp_path / "p.json"
        path.write_text('{"A": [[9.0], [9.0]], "y": [1.0, 3.0], "A": [[1.0], [2.0]]}')
        taken = spy_block_path(monkeypatch)
        blocks, whole = load_both_ways(monkeypatch, path)
        assert taken == [False]
        assert_same_load(blocks, whole)
        assert blocks.problem.a_matrix.tolist() == [[1.0], [2.0]]

    @pytest.mark.parametrize(
        "text",
        [
            '{"A": [5 [1.0], [2.0]], "y": [1.0, 3.0]}',
            '{"A": [[1.0], [2.0] 5], "y": [1.0, 3.0]}',
            '{"A": 5 [[1.0], [2.0]], "y": [1.0, 3.0]}',
            '{"A": [[1.0], [2.0]] 5, "y": [1.0, 3.0]}',
            '{"A" [[1.0], [2.0]], "y": [1.0, 3.0]}',
            '{"A": [[1.0], [2.0]], "y": [1.0, 3.0]} 5',
            '{"A": [[1.0], [2.0]], "y": [1.0, 3.0], "mu": {"W": [[1.0]]}}',
            '{"A": [[1.0], [2.0]], "y": [1.0, 3.0], "mu": [1.0, {"W": [[1.0]]}]}',
            '{"A": [[1.0], [2.0]], "y": [1.0, 3.0], "mu": [1.0, "W"]}',
            '{"A": [[1.0], [2.0]], "y": [1.0, 3.0], "mu": ["W"], "sigma2": 1.0}',
            '{"A": [[1.0], {"y": [1.0, 3.0]}]}',
            '{"A": [[1.0], [2.0]], "y": [1.0, 3.0], "mu": [1.0, {"W": [[1.0]], "sigma2": 1.0}]}',
            '[{"A": [[1.0], [2.0]], "y": [1.0, 3.0]}]',
        ],
        ids=[
            "before-first-row",
            "after-last-row",
            "before-matrix",
            "after-matrix",
            "no-colon",
            "after-object",
            "nested-object",
            "object-in-array",
            "string-naming-a-matrix",
            "string-before-a-key",
            "object-in-matrix",
            "keys-in-an-object-in-array",
            "array-of-objects",
        ],
    )
    def test_malformed_text_fails_as_before(self, tmp_path, monkeypatch, text):
        monkeypatch.setattr(ar.serialize, "_BLOCK_BYTES", 1)
        path = tmp_path / "p.json"
        path.write_text(text)
        blocks, whole = load_both_ways(monkeypatch, path)
        assert isinstance(whole, (json.JSONDecodeError, ar.DimensionError, ar.DomainError)), whole
        assert_same_load(blocks, whole)

    @pytest.mark.parametrize("bad", [NULL_ARRAYS, BOOL_ARRAYS], ids=["null", "bool"])
    @pytest.mark.parametrize("key", sorted(GOOD_ARRAYS))
    def test_literal_entry_fails_as_before(self, tmp_path, monkeypatch, key, bad):
        # orjson reads null, true and false, which np.array takes as nan, 1 and 0: a matrix
        # holding one is parsed whole, and a vector holding one goes with the rest, whose
        # parse gives the objects of the whole parse
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**GOOD_ARRAYS, key: bad[key]}))
        taken = spy_block_path(monkeypatch)
        blocks, whole = load_both_ways(monkeypatch, path)
        assert taken == [key not in ("A", "W", "W_beta")]
        name = {"A": "a_matrix", "W": "w", "W_beta": "w_beta"}.get(key, key)
        if bad is NULL_ARRAYS:
            assert isinstance(whole, ar.DomainError) and str(whole) == f"{name} has non-finite entries"
        else:
            assert isinstance(whole, ar.DimensionError) and str(whole).startswith(f"{name} is not a numeric array")
        assert_same_load(blocks, whole)

    @pytest.mark.parametrize("row", [0, 3, 7])
    def test_overflow_in_a_block_fails_as_before(self, tmp_path, monkeypatch, row):
        monkeypatch.setattr(ar.serialize, "_BLOCK_BYTES", 20)
        doc = problem_doc()
        text = json.dumps(doc, separators=(",", ":"))
        entry = json.dumps(doc["A"][row], separators=(",", ":"))
        path = tmp_path / "p.json"
        path.write_text(text.replace(entry, "[1e400" + entry[entry.index(","):], 1))
        blocks, whole = load_both_ways(monkeypatch, path)
        assert isinstance(whole, ar.DomainError) and "non-finite" in str(whole)
        assert_same_load(blocks, whole)

    # rows of two entries, "[1.5,2.5]" (9 bytes), and blocks of two rows:
    # a block ends at the first row end 10 bytes or more past its start
    @pytest.mark.parametrize(
        "odd",
        [
            {1: [1.5]},
            {2: [1.5]},
            {2: [1.5], 3: [1.5]},
            {7: [1.5]},
            {6: [1.5], 7: [1.5]},
            {2: 7.0},
            {2: [[1.5], [2.5]]},
        ],
        ids=["before-cut", "after-cut", "whole-block", "last-row", "last-block", "number-after-cut", "nested-row"],
    )
    def test_ragged_row_beside_a_cut(self, tmp_path, monkeypatch, odd):
        monkeypatch.setattr(ar.serialize, "_BLOCK_BYTES", 10)
        rows = [odd.get(i, [1.5, 2.5]) for i in range(8)]
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"A": rows, "y": [1.0] * 8}, separators=(",", ":")))
        blocks, whole = load_both_ways(monkeypatch, path)
        assert isinstance(whole, ar.DimensionError)
        assert str(whole).startswith("a_matrix is not a numeric array")
        assert_same_load(blocks, whole)

    def test_peak_memory_below_file_and_two_matrices(self, tmp_path):
        n, t = 1000, 100
        design, exact = ar.spectrum_problem(n, t, decay=6.0, seed=1)
        problem = design.with_observations(design.a_matrix @ exact)
        path = tmp_path / "p.json"
        ar.save_problem(path, problem, ar.default_prior(t, mu=exact), sigma2=1e-6)
        tracemalloc.start()
        try:
            loaded = ar.load_problem(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.problem.a_matrix, problem.a_matrix)
        # the file's bytes, the array read in blocks, its copy in the model, and one
        # block's text and lists; parsing the whole file at once read 5.2 MiB here
        bound = path.stat().st_size + 2 * problem.a_matrix.nbytes + ar.serialize._BLOCK_BYTES
        assert peak < bound, f"peak traced memory {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"

    def test_row_count_beyond_the_text_is_parsed_whole(self, tmp_path, monkeypatch):
        # a first block of one row of 100000 entries, then 100000 empty rows: the rows
        # the brackets count cannot hold that many entries each, so nothing is allocated
        monkeypatch.setattr(ar.serialize, "_BLOCK_BYTES", 1)
        width = 100_000
        row = "[" + ",".join(["0"] * width) + "]"
        path = tmp_path / "p.json"
        path.write_text('{"A": [' + row + ",[]" * width + '], "y": [1.0]}')
        taken = spy_block_path(monkeypatch)
        tracemalloc.start()
        try:
            blocks, whole = load_both_ways(monkeypatch, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert taken == [False]
        assert isinstance(whole, ar.DimensionError)
        assert_same_load(blocks, whole)
        # 100001 rows of 100000 doubles would be 80 GB
        assert peak < 2**26, f"peak traced memory {peak / 2**20:.0f} MiB"
