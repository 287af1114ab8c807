"""Deterministic JSON emission for reproducible CLI output.

Documents are emitted with sorted keys and floats printed to 17 significant
digits (enough to round-trip IEEE doubles exactly), so byte-identical output
is a meaningful regression check.  Negative zero is printed as 0, because
``json.load`` reads ``-0`` back as the integer 0 and a re-emitted document
would otherwise differ.  Non-finite floats become null; complex
numbers become {"im": ..., "re": ...} objects.

Lists are written item by item, except a TemplatedList: a list given as
runs of items that share a skeleton, a JSON value in which SLOT marks
each float leaf.  The skeleton is written once, with its fixed text
(keys, strings, fixed floats) in place, and repeated for every item of
the run; a flat tuple of the run's leaves fills it from one ``%.17g``
template in a single ``%`` call.  The spectrum's eigenpairs are one run
per parity sub-grid, so the exponents and the parity are formatted once
per sub-grid and only the values, q and residuals per item.  A run
holding a NaN or inf fills its template with each leaf's text instead,
null for the non-finite ones, so every list prints as the recursive
writer would print it item by item.
Reading uses the standard json module plus a small helper that turns those
objects back into numbers and null into NaN.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, NamedTuple, Tuple

SLOT = object()  # a float leaf of a TemplatedList skeleton


class TemplatedList(NamedTuple):
    """A JSON list given as runs (skeleton, count, leaves).  A run stands
    for count >= 1 items, each printed as its skeleton would be with every
    SLOT replaced by the next of the leaves, in the order the writer meets
    them: keys sorted, and "im" before "re" in a complex value.  leaves is
    a flat tuple of floats, count times the SLOTs of the skeleton, and
    holds no negative zero, which the template would print as -0."""

    runs: Tuple[Tuple[Any, int, Tuple[float, ...]], ...]


def _float_text(x: float) -> str:
    return "%.17g" % (x + 0.0) if math.isfinite(x) else "null"


def _runs(runs, pad: str, out) -> None:
    """Write a list of runs at pad: each run's items from its skeleton, the
    SLOTs filled from its leaves by one template and one % call."""
    inner = pad + "  "
    for i, (skeleton, count, leaves) in enumerate(runs):
        pieces: list = []
        _write(skeleton, pieces.append, inner)
        slot = "%.17g"
        # A NaN or inf anywhere makes the sum non-finite.
        if not math.isfinite(sum(leaves)):
            slot, leaves = "%s", tuple(map(_float_text, leaves))
        # _write quotes every string it prints, so a raw NUL is a SLOT.
        item = "".join(pieces).replace("%", "%%").replace("\0", slot)
        out((",\n" if i else "[\n") + inner)
        out((",\n" + inner).join([item] * count) % leaves)
    out("\n" + pad + "]" if runs else "[]")


def _write(obj: Any, out, pad: str) -> None:
    # Only a bool (an int too) and a TemplatedList (a tuple too) are two of these
    # types, so SLOT and floats, the most frequent, go first; each of the two
    # goes before its other type.
    if obj is SLOT:
        out("\0")
    elif isinstance(obj, float):
        out(_float_text(obj))
    elif isinstance(obj, (dict, complex)):
        if isinstance(obj, complex):
            obj = {"im": obj.imag, "re": obj.real}
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out(sep + _quote(key) + ": ")
            _write(obj[key], out, inner)
            sep = ",\n" + inner
        out("\n" + pad + "}" if obj else "{}")
    elif isinstance(obj, TemplatedList):
        _runs(obj.runs, pad, out)
    elif isinstance(obj, (list, tuple)):
        inner = pad + "  "
        for i, item in enumerate(obj):
            out((",\n" if i else "[\n") + inner)
            _write(item, out, inner)
        out("\n" + pad + "]" if obj else "[]")
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
