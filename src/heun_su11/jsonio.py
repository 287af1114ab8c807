"""Deterministic JSON emission for reproducible CLI output.

Documents are emitted with sorted keys and floats printed to 17 significant
digits (enough to round-trip IEEE doubles exactly), so byte-identical output
is a meaningful regression check.  Negative zero is printed as 0, because
``json.load`` reads ``-0`` back as the integer 0 and a re-emitted document
would otherwise differ.  Non-finite floats become null; complex
numbers become {"im": ..., "re": ...} objects.

A list whose items share one shape (all floats, all complex numbers, or all
dicts with the same keys and float or complex values) is written from a
``%.17g`` template filled from a flat column of its leaves in a single ``%``
call; other lists, and lists holding a NaN or inf, go through the recursive
writer.  Each ``canonical_dumps`` call keeps the templates it builds, keyed
by shape and, for dicts, by the values of the first float column, which the
template holds as text: the eigenfunctions of one parity sub-grid share
their exponents, so each formats only its values.  Reading uses the standard
json module plus a small helper that turns those objects back into numbers
and null into NaN.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter
from typing import Any

_ZERO = (0.0).__add__  # 0.0 + x is x, except that -0.0 becomes 0.0
_FLOAT, _COMPLEX = frozenset({float}), frozenset({complex})
_IMAG, _REAL = attrgetter("imag"), attrgetter("real")


def _filled_list(items, pad: str, templates: dict) -> str | None:
    """Text of a list whose items share one shape of float leaves, or None:
    all floats, all complex numbers, or all dicts with the same str keys and,
    key by key, one leaf type, float or complex.  The list's template comes
    from templates, keyed by the shape and, for dicts, by the values of the
    first float column, whose text it holds; the other leaves fill it."""
    inner = pad + "  "
    first = items[0]
    if type(first) is dict and first and all(type(key) is str for key in first):
        if set(map(type, items)) != {dict} or set(map(len, items)) != {len(first)}:
            return None
        keys = tuple(sorted(first))
        try:
            columns = [tuple(map(itemgetter(key), items)) for key in keys]
        except KeyError:
            return None
        leaf_pad = inner + "  "
    else:
        keys, columns, leaf_pad = None, [tuple(items)], inner
    kinds = tuple(frozenset(map(type, column)) for column in columns)
    # A NaN or inf anywhere makes the sum non-finite; the recursive writer nulls it.
    if not set(kinds) <= {_FLOAT, _COMPLEX} or not cmath.isfinite(sum(map(sum, columns))):
        return None
    baked = kinds.index(_FLOAT) if keys and _FLOAT in kinds else None
    key = (pad, keys, kinds, len(items) if baked is None else columns[baked])
    template = templates.get(key)
    if template is None:
        part = leaf_pad + "  "
        slots = ["%.17g" if kind == _FLOAT else
                 "{\n" + part + '"im": %.17g,\n' + part + '"re": %.17g\n' + leaf_pad + "}"
                 for kind in kinds]
        if baked is None:
            texts = repeat("", len(items))
        else:
            slots[baked] = "\0"  # never in a quoted key: it is written \u0000
            texts = map("%.17g".__mod__, map(_ZERO, columns[baked]))
        item = slots[0] if keys is None else "{\n" + ",\n".join(
            leaf_pad + _quote(name).replace("%", "%%") + ": " + slot
            for name, slot in zip(keys, slots)
        ) + "\n" + inner + "}"
        head, _, tail = item.partition("\0")
        template = templates[key] = (
            "[\n" + inner + head + (tail + ",\n" + inner + head).join(texts) + tail
            + "\n" + pad + "]"
        )
    fill = []
    for k, column in enumerate(columns):
        if k != baked:
            fill += (column,) if kinds[k] == _FLOAT else (map(_IMAG, column), map(_REAL, column))
    values = fill[0] if len(fill) == 1 else tuple(chain.from_iterable(zip(*fill)))
    if 0.0 in values:
        values = tuple(map(_ZERO, values))
    return template % values


def _write(obj: Any, out, pad: str, templates: dict) -> None:
    # No object is two of these types but bool and int, so floats can go first.
    inner = pad + "  "
    if isinstance(obj, float):
        out("%.17g" % (obj + 0.0) if math.isfinite(obj) else "null")
    elif isinstance(obj, (dict, complex)):
        if isinstance(obj, complex):
            obj = {"im": obj.imag, "re": obj.real}
        out("{" if obj else "{}")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out((",\n" if i else "\n") + inner + _quote(key) + ": ")
            _write(obj[key], out, inner, templates)
        if obj:
            out("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        text = _filled_list(obj, pad, templates) if obj else "[]"
        if text is None:
            for i, item in enumerate(obj):
                out((",\n" if i else "[\n") + inner)
                _write(item, out, inner, templates)
            text = "\n" + pad + "]"
        out(text)
    elif isinstance(obj, bool):
        out("true" if obj else "false")
    elif isinstance(obj, int):
        out(repr(obj))
    elif isinstance(obj, str):
        out(_quote(obj))
    elif obj is None:
        out("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def canonical_dumps(obj: Any) -> str:
    pieces: list = []
    _write(obj, pieces.append, "", {})
    return "".join(pieces)


def as_number(obj: Any) -> complex | float:
    """Parse a JSON number, {"re", "im"} object or null (as NaN) back into a number."""
    if obj is None:
        return math.nan
    if isinstance(obj, dict):
        value = complex(as_number(obj["re"]), as_number(obj["im"]))
        return value.real if value.imag == 0.0 else value
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise TypeError(f"expected a number, got {obj!r}")
    return float(obj)
