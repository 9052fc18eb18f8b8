"""Deterministic JSON emission at 17 significant digits, and one reader.

The stdlib encoder formats floats with shortest-roundtrip repr and cannot
be overridden from the C fast path, so reproducibility-sensitive outputs
(result.json, config.json) go through this small writer instead.

Every JSON file the package reads goes through ``load``. It parses with
orjson, which turns a large float array into Python floats several times
faster than the stdlib parser and gives the same doubles bit for bit. A
document orjson refuses, one outside strict RFC 8259 (``NaN``,
``Infinity``, ``1e400``, an integer too large for a double, a lone
surrogate escape), is parsed again by the stdlib ``json`` module, so such
a file reaches the same checks, and fails with the same error, as before.
"""

import json

import numpy as np
import orjson

from .errors import DomainError, EvaluationError

__all__ = ["format_float", "dumps", "dump", "load"]


def format_float(value):
    """Render a float with 17 significant digits (round-trips exactly)."""
    value = float(value)
    if not np.isfinite(value):
        raise EvaluationError(f"non-finite value {value!r} is not representable in JSON")
    return format(value, ".17g")


def _encode_floats(values, indent, level):
    """_encode of a finite float array's tolist(), one format call per value."""
    if not isinstance(values, list):
        return format(values, ".17g")
    if not values:
        return "[]"
    if not isinstance(values[0], list):
        return "[" + ", ".join([format(v, ".17g") for v in values]) + "]"
    inner = " " * (indent * (level + 1))
    body = ",\n".join(inner + _encode_floats(row, indent, level + 1) for row in values)
    return "[\n" + body + "\n" + " " * (indent * level) + "]"


def _is_scalar(obj):
    return not isinstance(obj, (list, tuple, dict, np.ndarray))


def _encode(obj, indent, level):
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            if not np.isfinite(obj).all():
                raise EvaluationError("non-finite array values are not representable in JSON")
            return _encode_floats(obj.tolist(), indent, level)
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if all(_is_scalar(item) for item in items):
            return "[" + ", ".join(_encode(item, indent, 0) for item in items) + "]"
        body = ",\n".join(inner + _encode(item, indent, level + 1) for item in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(
                inner + json.dumps(key, ensure_ascii=False) + ": "
                + _encode(value, indent, level + 1)
            )
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj, indent=2):
    return _encode(obj, indent, 0) + "\n"


def dump(obj, path, indent=2):
    text = dumps(obj, indent=indent)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def load(path):
    """The JSON document in the file at ``path``.

    A document orjson refuses is parsed again by the stdlib, which accepts
    the non-standard literals above and raises ``json.JSONDecodeError`` on
    anything that is not JSON; bytes that are not UTF-8 raise DomainError.
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
