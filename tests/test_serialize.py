import numpy as np
import pytest

import abicreg as ar
from abicreg.serialize import dumps, format_float


def test_arrays_render_like_per_value_format_float():
    matrix = np.array([[0.1, -2.5e-300, 1.0 / 3.0], [7.0, -0.0, 6.02214076e23]])
    doc = {
        "matrix": matrix,
        "counts": np.array([3, -1]),
        "flags": [True, np.bool_(False)],
        "missing": None,
    }
    rows = [", ".join(format_float(value) for value in row) for row in matrix]
    expected = (
        "{\n"
        '  "matrix": [\n'
        f"    [{rows[0]}],\n"
        f"    [{rows[1]}]\n"
        "  ],\n"
        '  "counts": [3, -1],\n'
        '  "flags": [true, false],\n'
        '  "missing": null\n'
        "}\n"
    )
    assert dumps(doc) == expected


def test_array_with_nan_raises():
    with pytest.raises(ar.EvaluationError):
        dumps({"values": np.array([1.0, np.nan, 2.0])})
