"""Deterministic JSON emission for reproducible CLI output.

Documents are emitted with sorted keys and floats printed to 17 significant
digits (enough to round-trip IEEE doubles exactly), so byte-identical output
is a meaningful regression check.  Negative zero is printed as 0, because
``json.load`` reads ``-0`` back as the integer 0 and a re-emitted document
would otherwise differ.  Non-finite floats become null; complex
numbers become {"im": ..., "re": ...} objects.  Reading uses the standard
json module plus a small helper to turn those objects back into numbers.
"""

from __future__ import annotations

import json
import math
from typing import Any


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(x + 0.0, ".17g")


def _write(obj: Any, pieces: list, level: int) -> None:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            pieces.append(inner + json.dumps(key) + ": ")
            _write(obj[key], pieces, level + 1)
            pieces.append(",\n" if i < len(keys) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(obj):
            pieces.append(inner)
            _write(item, pieces, level + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, int):
        pieces.append(repr(obj))
    elif isinstance(obj, float):
        pieces.append(_format_float(obj))
    elif isinstance(obj, complex):
        _write({"im": obj.imag, "re": obj.real}, pieces, level)
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif obj is None:
        pieces.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def canonical_dumps(obj: Any) -> str:
    pieces: list = []
    _write(obj, pieces, 0)
    return "".join(pieces)


def as_number(obj: Any) -> complex | float:
    """Parse a JSON number or a {"re", "im"} object back into a number."""
    if isinstance(obj, dict):
        value = complex(float(obj["re"]), float(obj["im"]))
        return value.real if value.imag == 0.0 else value
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise TypeError(f"expected a number, got {obj!r}")
    return float(obj)
