"""Deterministic JSON emission for reproducible CLI output.

Documents are emitted with sorted keys and floats printed to 17 significant
digits (enough to round-trip IEEE doubles exactly), so byte-identical output
is a meaningful regression check.  Negative zero is printed as 0, because
``json.load`` reads ``-0`` back as the integer 0 and a re-emitted document
would otherwise differ.  Non-finite floats become null; complex
numbers become {"im": ..., "re": ...} objects.

A list whose items share one shape (all floats, all complex numbers, or all
dicts with the same keys and float or complex values) is written from one
``%.17g`` item template, filled from a flat column of its leaves in a single
``%`` call; other lists, and columns holding a NaN or inf, go through the
recursive writer.  Reading uses the standard json module plus a small helper
that turns those objects back into numbers and null into NaN.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Any

_ZERO = (0.0).__add__  # 0.0 + x is x, except that -0.0 becomes 0.0


def _filled_list(items, pad: str) -> str | None:
    """Text of a list whose items share one shape of float leaves, or None:
    all floats, all complex numbers, or all dicts with the same str keys and,
    key by key, one leaf type, float or complex."""
    inner = pad + "  "
    first = items[0]
    if type(first) is dict and first and all(type(key) is str for key in first):
        if set(map(type, items)) != {dict} or set(map(len, items)) != {len(first)}:
            return None
        keys = sorted(first)
        columns = [list(map(dict.get, items, repeat(key))) for key in keys]
        leaf_pad = inner + "  "
    else:
        keys, columns, leaf_pad = None, [items], inner
    slots, leaves = [], []
    for values in columns:
        kinds = set(map(type, values))
        if kinds == {float}:
            slots.append("%.17g")
            leaves.append(map(_ZERO, values))
        elif kinds == {complex}:
            part = leaf_pad + "  "
            slots.append("{\n" + part + '"im": %.17g,\n' + part + '"re": %.17g\n' + leaf_pad + "}")
            leaves += [map(_ZERO, map(attrgetter(name), values)) for name in ("imag", "real")]
        else:
            return None
    column = tuple(chain.from_iterable(zip(*leaves)))
    # A NaN or inf anywhere makes the sum non-finite; the recursive writer nulls it.
    if not math.isfinite(sum(column)):
        return None
    if keys is None:
        template = slots[0]
    else:
        template = "{\n" + ",\n".join(
            leaf_pad + _quote(key).replace("%", "%%") + ": " + slot
            for key, slot in zip(keys, slots)
        ) + "\n" + inner + "}"
    body = (",\n" + inner).join([template] * len(items)) % column
    return "[\n" + inner + body + "\n" + pad + "]"


def _write(obj: Any, out, pad: str) -> None:
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
            _write(obj[key], out, inner)
        if obj:
            out("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        text = _filled_list(obj, pad) if obj else "[]"
        if text is None:
            for i, item in enumerate(obj):
                out((",\n" if i else "[\n") + inner)
                _write(item, out, inner)
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
    _write(obj, pieces.append, "")
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
