"""One JSON writer and one JSON reader, both orjson.

Every JSON file the package writes goes through ``dump``: compact JSON
with shortest round-trip floats, so each double parses back bit for bit
and a rerun writes the same bytes. orjson would write NaN and ±inf as
``null``, so the writer first rejects a non-finite float anywhere in the
document with EvaluationError. orjson takes integers only in
[-2**63, 2**64), and a seed may reach 2**128 - 1, so a document orjson
cannot encode is written by the stdlib ``json`` module instead: the same
compact layout, integers of any size, and floats that are the same
shortest round-trip values, though not always the same text (``1e-05``
where orjson writes ``1e-5``).

Every JSON file the package reads goes through ``load``. It parses with
orjson, which turns a large float array into Python floats several times
faster than the stdlib parser and gives the same doubles bit for bit. A
document orjson refuses, one outside strict RFC 8259 (``NaN``,
``Infinity``, ``1e400``, an integer too large for a double, a lone
surrogate escape), is parsed again by the stdlib ``json`` module, so such
a file reaches the same checks, and fails with the same error, as before.
"""

import json
import math

import numpy as np
import orjson

from .errors import DomainError, EvaluationError

__all__ = ["dumps", "dump", "load"]


def _check_finite(obj):
    """Raise EvaluationError for a non-finite float anywhere in ``obj``."""
    if isinstance(obj, dict):
        for value in obj.values():
            _check_finite(value)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _check_finite(item)
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            raise EvaluationError("non-finite array values are not representable in JSON")
    elif isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        raise EvaluationError(f"non-finite value {obj!r} is not representable in JSON")


def _default(obj):
    # orjson takes only C-contiguous arrays directly, so a transposed or strided one comes here;
    # the stdlib sends every array and every numpy scalar that is not a float subclass
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj):
    """``obj`` as compact JSON bytes with shortest round-trip floats and a final newline."""
    _check_finite(obj)
    try:
        return orjson.dumps(
            obj, default=_default, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
        )
    except orjson.JSONEncodeError:
        text = json.dumps(obj, default=_default, ensure_ascii=False, separators=(",", ":"))
        return (text + "\n").encode("utf-8")


def dump(obj, path):
    """Write ``dumps(obj)`` to ``path``; a document that fails to encode leaves no file."""
    data = dumps(obj)
    with open(path, "wb") as handle:
        handle.write(data)


def load(path):
    """The JSON document in the file at ``path``.

    A document orjson refuses is parsed again by the stdlib, which accepts
    the non-standard literals above and raises ``json.JSONDecodeError`` on
    anything that is not JSON; bytes that are not UTF-8 raise DomainError.
    orjson reads an integer beyond 64 bits as the nearest double; the only
    such integer the package writes is a seed, which it never reads back.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from None
    return json.loads(text)
