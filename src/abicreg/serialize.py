"""The package's number text: every file it writes or reads, through orjson.

Every JSON file the package writes goes through ``dump``: compact JSON
with shortest round-trip floats, so each double parses back bit for bit
and a rerun writes the same bytes. orjson would write NaN and ±inf as
``null``, so the writer first rejects a non-finite float anywhere in the
document with EvaluationError. orjson takes integers only in
[-2**63, 2**64), and a seed may reach 2**128 - 1, so a document orjson
cannot encode is written by the stdlib ``json`` module instead: the same
compact layout, integers of any size, and floats that are the same
shortest round-trip values, though not always the same text (``1e-05``
where orjson writes ``0.00001``). ``dump_csv`` writes a float table, the
sweep CSV, in orjson's text after the same check.

Every JSON file the package reads goes through ``load``. It parses with
orjson, which turns a large float array into Python floats several times
faster than the stdlib parser and gives the same doubles bit for bit. A
document orjson refuses, one outside strict RFC 8259 (``NaN``,
``Infinity``, ``1e400``, an integer too large for a double, a lone
surrogate escape), is parsed again by the stdlib ``json`` module, so such
a file reaches the same checks, and fails with the same error, as before.

Matrices are read and written one block of whole rows at a time, about
``_BLOCK_BYTES`` of text each, so that neither a matrix's text nor its
nested lists exist whole. ``dump`` writes every 2-d float array under a
key of a top-level object that way; the file holds the bytes of
``dumps``. ``load_numeric`` reads a problem file. When its only strings
are its distinct known keys and no matrix holds a JSON literal, orjson
parses each matrix a block at a time straight into one float array, and
the rest of the document (keys, vectors, scalars) in one small call; the
arrays hold the doubles of the whole parse bit for bit. Any other file,
and one whose matrix text is not a rectangular array of numbers, is
parsed whole by ``load``, which gives its values and its errors.
"""

import json
import math

import numpy as np
import orjson

from .errors import DomainError, EvaluationError

__all__ = ["dumps", "dump", "dump_csv", "load", "load_numeric"]

# Text of a matrix parsed or written at once; a block ends at the first row end past it.
_BLOCK_BYTES = 256 * 1024
# orjson writes a double in at most 24 bytes; 25 with its comma.
_FLOAT_TEXT_BYTES = 25
_WHITESPACE = b" \n\t\r"


def _check_finite(obj, form="JSON"):
    """Raise EvaluationError for a non-finite float anywhere in ``obj``."""
    if isinstance(obj, dict):
        for value in obj.values():
            _check_finite(value, form)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _check_finite(item, form)
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            raise EvaluationError(f"non-finite array values are not representable in {form}")
    elif isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        raise EvaluationError(f"non-finite value {obj!r} is not representable in {form}")


def _default(obj):
    # orjson takes only C-contiguous arrays directly, so a transposed or strided one comes here;
    # the stdlib sends every array and every numpy scalar that is not a float subclass
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _encode(obj, option=orjson.OPT_APPEND_NEWLINE):
    return orjson.dumps(obj, default=_default, option=orjson.OPT_SERIALIZE_NUMPY | option)


def _text(obj):
    try:
        return _encode(obj)
    except orjson.JSONEncodeError:
        text = json.dumps(obj, default=_default, ensure_ascii=False, separators=(",", ":"))
        return (text + "\n").encode("utf-8")


def dumps(obj):
    """``obj`` as compact JSON bytes with shortest round-trip floats and a final newline."""
    _check_finite(obj)
    return _text(obj)


def _is_matrix(value):
    return isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.float64


def _pieces(obj):
    """The bytes of ``dumps(obj)`` for a finite ``obj``, as bytes and the 2-d
    float arrays whose JSON text stands in their place."""
    if not isinstance(obj, dict) or not any(map(_is_matrix, obj.values())):
        return [_text(obj)]
    pieces = []
    try:
        for index, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                return [_text(obj)]
            pieces.append((b"," if index else b"{") + _encode(key, 0) + b":")
            pieces.append(value if _is_matrix(value) else _encode(value, 0))
    except orjson.JSONEncodeError:
        # the stdlib then writes the whole document, and its float text may differ
        return [_text(obj)]
    pieces.append(b"}\n")
    return pieces


def _write_rows(handle, matrix):
    """Write ``matrix`` as JSON, one block of whole rows at a time."""
    rows = max(1, _BLOCK_BYTES // (_FLOAT_TEXT_BYTES * max(matrix.shape[1], 1)))
    handle.write(b"[")
    for start in range(0, matrix.shape[0], rows):
        text = _encode(np.ascontiguousarray(matrix[start : start + rows]), 0)
        if start:
            handle.write(b",")
        handle.write(memoryview(text)[1:-1])
    handle.write(b"]")


def dump(obj, path):
    """Write ``dumps(obj)`` to ``path``; a document that fails to encode leaves no file.

    A 2-d float array under a key of a top-level object is written one
    block of rows at a time, never as one bytes object.
    """
    _check_finite(obj)
    pieces = _pieces(obj)
    with open(path, "wb") as handle:
        for piece in pieces:
            if isinstance(piece, np.ndarray):
                _write_rows(handle, piece)
            else:
                handle.write(piece)


def dump_csv(path, header, table, labels):
    """Write the line ``header``, then one line per row of the 2-d float array
    ``table``: its numbers in the text ``dumps`` gives them, then its entry of
    ``labels``. A non-finite number raises EvaluationError and leaves no file."""
    _check_finite(table, "CSV")
    rows = _encode(table, 0)[2:-2].split(b"],[") if len(table) else []
    lines = [header.encode(), *(row + b"," + label.encode() for row, label in zip(rows, labels))]
    with open(path, "wb") as handle:
        handle.write(b"\n".join(lines) + b"\n")


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _parse(data, path):
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from None
    return json.loads(text)


def load(path):
    """The JSON document in the file at ``path``.

    A document orjson refuses is parsed again by the stdlib, which accepts
    the non-standard literals above and raises ``json.JSONDecodeError`` on
    anything that is not JSON; bytes that are not UTF-8 raise DomainError.
    orjson reads an integer beyond 64 bits as the nearest double; the only
    such integer the package writes is a seed, which it never reads back.
    """
    return _parse(_read(path), path)


def _between(data, start, stop):
    """``data[start:stop]`` without the whitespace around it."""
    return data[start:stop].strip(_WHITESPACE)


def _read_rows(data, start, stop, rows):
    """The matrix whose JSON text is ``data[start:stop]``, from its "[" to its
    "]", as a float array parsed one block of whole rows at a time; None
    unless the text is ``rows`` arrays of numbers, all of one length."""
    first = data.find(b"[", start + 1, stop)
    last = data.rfind(b"]", start, stop - 1)
    if first < 0 or last < first or _between(data, start + 1, first):
        return None
    if _between(data, last + 1, stop - 1):
        return None
    view, out, filled = memoryview(data), None, 0
    while True:
        # the text holds no string, so each "]" before the last row's ends an array
        cut = data.find(b"]", first + _BLOCK_BYTES, last)
        end = last if cut < 0 else cut
        try:
            block = np.array(orjson.loads(b"".join((b"[", view[first : end + 1], b"]"))), dtype=float)
        except (ValueError, TypeError):
            return None
        # each entry takes at least two bytes of text, one digit and a "," or "]"
        if out is None and block.ndim == 2 and 2 * rows * block.shape[1] <= stop - start:
            out = np.empty((rows, block.shape[1]))
        if out is None or block.shape[1:] != out.shape[1:] or filled + len(block) > rows:
            return None
        out[filled : filled + len(block)] = block
        filled += len(block)
        if cut < 0:
            return out if filled == rows else None
        first = data.find(b"[", cut + 1, last)
        if first < 0 or _between(data, cut + 1, first) != b",":
            return None


def _load_blocks(data, keys, matrices):
    """The object in ``data`` with the values under ``matrices`` read by
    ``_read_rows``; None unless its only strings are distinct ``keys`` of
    the object itself and each value under ``matrices`` is a matrix of numbers."""
    # a file whose only strings are its keys holds at most 2 len(keys) quotes
    quotes = [data.find(b'"')]
    while quotes[-1] >= 0 and len(quotes) <= 2 * len(keys):
        quotes.append(data.find(b'"', quotes[-1] + 1))
    quotes = [at for at in quotes if at >= 0]
    names = [data[opened + 1 : closed] for opened, closed in zip(quotes[::2], quotes[1::2])]
    if not names or len(quotes) > 2 * len(names):
        return None
    if len(set(names)) < len(names) or not {key.encode() for key in keys}.issuperset(names):
        return None
    wanted = {key.encode() for key in matrices}
    view, pieces, arrays, done = memoryview(data), [], {}, 0
    for index, name in enumerate(names):
        closed = quotes[2 * index + 1]
        last = index + 1 == len(names)
        following = len(data) if last else quotes[2 * index + 2]
        # a string is a key of the document when a ":" follows it and a "," comes
        # next before the next string (a "{" would make that one a nested key)
        stop = data.rfind(b"}" if last else b",", closed, following)
        if stop < 0 or _between(data, stop + 1, following) or data.find(b":", closed, stop) < 0:
            return None
        if name not in wanted:
            continue
        # whatever lies outside the matrix text is checked by parsing the rest
        start, end = data.find(b"[", closed, stop), data.rfind(b"]", closed, stop) + 1
        if start < 0 or end <= start:
            return None
        # orjson reads true, false and null, which np.array would take as 1, 0 and nan;
        # each holds a "u" or an "a", which no number does
        if data.find(b"u", start, end) >= 0 or data.find(b"a", start, end) >= 0:
            return None
        matrix = _read_rows(data, start, end, data.count(b"[", start + 1, end))
        if matrix is None:
            return None
        arrays[name.decode()] = matrix
        pieces += [view[done:start], b"null"]
        done = end
    pieces.append(view[done:])
    try:
        doc = orjson.loads(b"".join(pieces))
    except orjson.JSONDecodeError:
        return None
    doc.update(arrays)
    return doc


def load_numeric(path, keys, matrices):
    """The JSON document in the file at ``path``, its values under
    ``matrices`` as float arrays read a block of rows at a time when the
    file is an object whose only strings are distinct ``keys`` and whose
    matrices hold numbers only; else ``load(path)``."""
    data = _read(path)
    doc = _load_blocks(data, keys, matrices)
    return _parse(data, path) if doc is None else doc
