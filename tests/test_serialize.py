import json
import sys

import numpy as np
import pytest

import abicreg as ar
from abicreg.marginal import kappa_grid
from abicreg.selection import DEFAULT_BRACKET
from abicreg.serialize import dump, dumps, load
from conftest import random_fixture


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_extreme_doubles_round_trip_bit_identical(tmp_path):
    extremes = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 1.0 / 3.0]
    log10_grid, kappas = kappa_grid(DEFAULT_BRACKET, 97)
    doc = {
        "listed": extremes,
        "array": np.array(extremes),
        "scalars": [np.float64(value) for value in extremes],
        "log10_grid": log10_grid,
        "kappas": kappas,
    }
    path = tmp_path / "doc.json"
    dump(doc, path)
    loaded = load(path)
    assert list(loaded) == list(doc)
    for key, values in doc.items():
        assert np.array_equal(bits(loaded[key]), bits(values)), key


def test_layouts_and_numpy_scalars_round_trip(tmp_path):
    matrix = np.arange(12.0).reshape(3, 4) / 7.0
    doc = {
        "fortran": np.asfortranarray(matrix),
        "strided": matrix[::2, ::3],
        "flags": [np.bool_(True), np.bool_(False)],
        "counts": [np.int64(-3), np.uint8(7)],
        "pair": (1.5, (2, None)),
    }
    path = tmp_path / "doc.json"
    dump(doc, path)
    loaded = load(path)
    assert np.array_equal(bits(loaded["fortran"]), bits(matrix))
    assert np.array_equal(bits(loaded["strided"]), bits(matrix[::2, ::3]))
    assert loaded["flags"] == [True, False]
    assert loaded["counts"] == [-3, 7]
    assert loaded["pair"] == [1.5, [2, None]]
    # one fixed layout: compact, shortest round-trip floats, a final newline
    assert dumps({"a": [0.1, -0.0, 1e300], "b": None}) == b'{"a":[0.1,-0.0,1e300],"b":null}\n'


def test_integers_beyond_64_bits_are_written_exactly(tmp_path):
    doc = {"seed": 2**128 - 1, "low": -(2**100), "x": [0.1, 1e-5], "a": np.arange(3.0)}
    path = tmp_path / "doc.json"
    dump(doc, path)
    assert path.read_bytes() == dumps(doc)
    # orjson reads an integer beyond 64 bits as the nearest double, so the stdlib checks the text
    loaded = json.loads(path.read_bytes())
    assert loaded == {"seed": 2**128 - 1, "low": -(2**100), "x": [0.1, 1e-5], "a": [0.0, 1.0, 2.0]}
    assert load(path)["x"] == [0.1, 1e-5]


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        np.float64("inf"),
        [[1.0, 2.0], [3.0, float("nan")]],
        np.array([1.0, np.nan, 2.0]),
    ],
    ids=["python-nan", "numpy-inf", "nested-list-nan", "array-nan"],
)
def test_non_finite_raises_and_writes_no_file(tmp_path, value):
    path = tmp_path / "doc.json"
    with pytest.raises(ar.EvaluationError):
        dump({"ok": 1.0, "value": value}, path)
    assert not path.exists()


def test_save_problem_fortran_design_round_trips(tmp_path):
    rng = np.random.default_rng(5)
    a = np.asfortranarray(rng.standard_normal((6, 3)))
    w = np.asfortranarray(np.diag(rng.uniform(1.0, 2.0, 6)))
    problem = ar.InverseProblem(a, rng.standard_normal(6), w)
    path = tmp_path / "p.json"
    ar.save_problem(path, problem, ar.default_prior(3, mu=rng.standard_normal(3)))
    loaded = ar.load_problem(path)
    assert np.array_equal(bits(loaded.problem.a_matrix), bits(a))
    assert np.array_equal(bits(loaded.problem.y), bits(problem.y))
    assert np.array_equal(bits(loaded.problem.w.matrix), bits(problem.w.matrix))


@pytest.mark.parametrize("block_bytes", [1, 64, 4096, None], ids=["one-row", "64", "4096", "default"])
@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (7, 0), (0, 4), (60, 2), (30, 30), (9000, 2)])
def test_dump_writes_matrices_in_row_blocks_with_the_bytes_of_dumps(tmp_path, monkeypatch, shape, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(ar.serialize, "_BLOCK_BYTES", block_bytes)
    encode, encoded = ar.serialize._encode, []

    def spy(obj, *args):
        if isinstance(obj, np.ndarray) and obj.ndim == 2:
            encoded.append(len(obj))
        return encode(obj, *args)

    monkeypatch.setattr(ar.serialize, "_encode", spy)
    rng = np.random.default_rng(shape[0])
    matrix = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    matrix[:1, :1] = -0.0
    doc = {
        "A": matrix,
        "y": rng.standard_normal(shape[0]),
        "fortran": np.asfortranarray(matrix),
        "strided": matrix[::2, ::-1],
        "sigma2": 0.5,
        "last": matrix,
    }
    path = tmp_path / "doc.json"
    dump(doc, path)
    assert path.read_bytes() == dumps(doc)
    if block_bytes == 1:
        assert set(encoded) <= {1}


@pytest.mark.parametrize("block_bytes", [1, 500, None], ids=["one-row", "500", "default"])
def test_save_problem_writes_the_bytes_of_dumps(tmp_path, monkeypatch, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(ar.serialize, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(6)
    problem, prior = random_fixture(rng, 30, 6)
    path = tmp_path / "p.json"
    ar.save_problem(path, problem, prior, sigma2=0.25, sigma_beta2=2.0)
    doc = {
        "A": problem.a_matrix,
        "y": problem.y,
        "W": problem.w.matrix,
        "W_beta": prior.w_beta.matrix,
        "mu": prior.mu,
        "sigma2": 0.25,
        "sigma_beta2": 2.0,
    }
    assert path.read_bytes() == dumps(doc)


def test_a_document_the_stdlib_writes_keeps_its_bytes(tmp_path):
    # a seed beyond 64 bits sends the whole document, matrix too, to the stdlib writer
    doc = {"A": np.array([[1e-5, 0.1]]), "seed": 2**128 - 1}
    path = tmp_path / "doc.json"
    dump(doc, path)
    assert path.read_bytes() == dumps(doc) == b'{"A":[[1e-05,0.1]],"seed":340282366920938463463374607431768211455}\n'
