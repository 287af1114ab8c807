"""canonical_dumps against the plain recursive writer it replaced.

``reference_dumps`` is that writer, kept unchanged: one piece per token,
each float through ``format(x, ".17g")``.  The emitter must print the same
bytes on every document and raise the same TypeError on every document it
cannot print.  A TemplatedList must print as the plain list of the items
it stands for, and a spectrum's eigenpairs as the per-coefficient records
the solver's pairs describe.
"""

import json
import math
import random
from typing import Any

import numpy as np
import pytest

from heun_su11.heun_core import make_parameters
from heun_su11.jsonio import SLOT, TemplatedList, as_number, canonical_dumps
from heun_su11.representations import RepresentationClass, classify
from heun_su11.spectrum import SpectralResult, solve_spectrum
from heun_su11.su11_algebra import decompose


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


def reference_dumps(obj: Any) -> str:
    pieces: list = []
    _write(obj, pieces, 0)
    return "".join(pieces)


class Real(float):
    """A float subclass, which must print as the float it holds."""


FLOATS = (0.0, -0.0, 1.0, -1.5, 0.1, 1 / 3, 1e16, 1e17, -2.5e-17, 5e-324,
          2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308)
NON_FINITE = (math.nan, math.inf, -math.inf)
KEYS = ("a", "b", "exponent", "value", "im", "re", "q", "-0", "x-0,y", "100%", "%.17g", "%s",
        'quote"', "tab\t", "é", "")


def _float(rng):
    r = rng.random()
    if r < 0.03:
        return rng.choice(NON_FINITE)
    if r < 0.35:
        return rng.choice(FLOATS)
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-40, 40)


def _complex(rng):
    return complex(_float(rng), _float(rng))


def _scalar(rng):
    r = rng.random()
    if r < 0.02:
        return rng.choice((set(), object(), b"x"))
    if r < 0.04:
        return {rng.randint(0, 3): 1.0}
    return rng.choice((
        _float, _float, _complex, lambda r: Real(_float(r)),
        lambda r: r.randint(-5, 5), lambda r: 10 ** 20, lambda r: -(10 ** 17),
        lambda r: r.random() < 0.5, lambda r: r.choice(KEYS), lambda r: None, lambda r: {},
    ))(rng)


def _leaf(kind, rng):
    return _float(rng) if kind is float else _complex(rng)


def _break(items, rng):
    """Spoil the shape of one item of a homogeneous list, or leave it."""
    i = rng.randrange(len(items))
    item = items[i]
    how = rng.choice(("missing key", "extra key", "int", "bool", "subclass", "nan",
                      "non-str key", "nested list", "none", "item"))
    if isinstance(item, dict):
        key = rng.choice(sorted(item))
        if how == "missing key":
            del item[key]
        elif how == "extra key":
            item["extra"] = 1.0
        elif how == "non-str key":
            items[i] = {rng.randint(0, 3): 1.0}
        elif how == "nested list":
            item[key] = [1.0, 2.0]
        else:
            item[key] = {"int": 3, "bool": True, "subclass": Real(0.5), "nan": math.nan,
                         "none": None, "item": "x"}[how]
    else:
        items[i] = {"missing key": 1, "extra key": -0.0j, "int": 3, "bool": False,
                    "subclass": Real(-0.0), "nan": math.nan, "non-str key": {1.5: 2.0},
                    "nested list": [0.25], "none": None, "item": {"a": 1.0}}[how]


def _homogeneous(rng):
    n = rng.randint(1, 6)
    # Lists of floats come up as often as the other two shapes together.
    shape = rng.choice(("float", "float", "complex", "dict"))
    if shape == "dict":
        kinds = {key: rng.choice((float, complex)) for key in rng.sample(KEYS, rng.randint(1, 3))}
        items = [{key: _leaf(kind, rng) for key, kind in kinds.items()} for _ in range(n)]
    else:
        kind = float if shape == "float" else complex
        items = [_leaf(kind, rng) for _ in range(n)]
    if rng.random() < 0.5:
        _break(items, rng)
    return tuple(items) if rng.random() < 0.2 else items


def random_document(rng, depth=0):
    r = rng.random()
    if depth >= 4 or r < 0.25:
        return _scalar(rng)
    if r < 0.55:
        return _homogeneous(rng)
    children = [random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if r < 0.8:
        return {rng.choice(KEYS): child for child in children}
    return tuple(children) if r < 0.85 else children


def _outcome(dumps, doc):
    try:
        return dumps(doc)
    except TypeError as exc:
        return ("TypeError", str(exc))


def _holds_float_list(obj) -> bool:
    """Whether obj is or holds a non-empty list of floats and nothing else."""
    if isinstance(obj, dict):
        return any(map(_holds_float_list, obj.values()))
    if isinstance(obj, (list, tuple)):
        return (bool(obj) and all(type(item) is float for item in obj)
                or any(map(_holds_float_list, obj)))
    return False


@pytest.mark.parametrize("seed", range(4))
def test_canonical_dumps_matches_reference_on_random_documents(seed):
    rng = random.Random(seed)
    errors = float_lists = 0
    for _ in range(500):
        doc = random_document(rng)
        expected = _outcome(reference_dumps, doc)
        assert _outcome(canonical_dumps, doc) == expected, doc
        errors += isinstance(expected, tuple)
        float_lists += _holds_float_list(doc)
    # Both the printed documents and the errors are exercised, and lists of
    # floats among the printed ones.
    assert 20 <= errors <= 250, errors
    assert float_lists >= 100, float_lists


EDGE_CASES = {
    "negative-zero": [-0.0, 0.0, complex(-0.0, -0.0)],
    "complex-list": [1j, complex(-0.0, 2.5), complex(1e300, -1e-300)],
    "pair-list": [{"exponent": 0.0, "value": 1j}, {"exponent": 1.0, "value": -0.5 + 0j}],
    "missing-key": [{"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0}],
    "extra-key": [{"a": 1.0}, {"a": 1.0, "b": 2.0}],
    "int-among-floats": [1.0, 10 ** 20, 2.0],
    "bool-among-floats": [1.0, True],
    "nan-in-column": [{"a": 1.0, "b": 2.0}, {"a": math.nan, "b": 2.0}],
    "inf-in-complex": [1j, complex(math.inf, 0.0)],
    "overflowing-sum": [1.7976931348623157e308, 1.7976931348623157e308],
    "non-str-key": [{"a": 1.0}, {1: 1.0}],
    "mixed-keys": [{"a": 1.0}, {"a": 1.0, 1: 2.0}],
    "nested-list-in-value": [{"a": 1.0}, {"a": [1.0]}],
    "percent-in-key": [{"%s": 1.0, "100%": 2.0}, {"%s": 3.0, "100%": 4.0}],
    "float-subclass": [1.0, Real(-0.0)],
    "unserializable": [1.0, {1.0}],
    "nested-lists": [[1.0, 2.0], (3.0,), []],
    "empty-dicts": [{}, {}],
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_canonical_dumps_matches_reference_on_edge_cases(name):
    doc = {"list": EDGE_CASES[name], "nested": [EDGE_CASES[name]]}
    assert _outcome(canonical_dumps, doc) == _outcome(reference_dumps, doc)


def shared_column_document(rng):
    """Record lists sharing one column, as the eigenfunctions of a parity
    sub-grid share their exponents, with values that differ, at two pads."""
    n = rng.randint(1, 8)
    shared, other = rng.sample(KEYS, 2)
    column = [_float(rng) for _ in range(n)]
    kind = rng.choice((float, complex))
    lists = [[{shared: x, other: _leaf(kind, rng)} for x in column]
             for _ in range(rng.randint(2, 5))]
    if rng.random() < 0.3:
        _break(lists[-1], rng)
    return {"lists": lists, "nested": {"deeper": lists[::-1]}}


@pytest.mark.parametrize("seed", range(4))
def test_canonical_dumps_matches_reference_on_shared_columns(seed):
    rng = random.Random(100 + seed)
    for _ in range(200):
        doc = shared_column_document(rng)
        assert _outcome(canonical_dumps, doc) == _outcome(reference_dumps, doc), doc


def _pairs(exponents, values):
    return [{"exponent": e, "value": v} for e, v in zip(exponents, values)]


SHARED_CASES = {
    "key-differs-in-one-entry": [_pairs((0.0, 1.0, 2.0), (1.0, 2.0, 3.0)),
                                 _pairs((0.0, 1.5, 2.0), (4.0, 5.0, 6.0))],
    "negative-zero-key": [_pairs((-0.0, 1.0), (1.0, -0.0)), _pairs((0.0, 1.0), (2.0, 3.0)),
                          _pairs((-0.0, 1.0), (0.0, 4.0))],
    "complex-values": [_pairs((0.5, 1.5), (1j, complex(-0.0, 2.5))),
                       _pairs((0.5, 1.5), (complex(3.0, -0.0), 0.25 + 0j))],
    "int-or-bool-key-equal-to-float": [_pairs((1.0, 0.0), (1.0, 2.0)), _pairs((1, 0.0), (3.0, 4.0)),
                                       _pairs((True, 0.0), (5.0, 6.0))],
    "big-int-key-equal-to-float": [_pairs((1e20,), (1.0,)), _pairs((10 ** 20,), (2.0,))],
    "non-finite-after-hit": [_pairs((1.0, 2.0), (1.0, 2.0)), _pairs((1.0, 2.0), (math.nan, 2.0)),
                             _pairs((1.0, math.inf), (1.0, 2.0))],
    "float-values-then-complex": [_pairs((1.0, 2.0), (1.0, 2.0)), _pairs((1.0, 2.0), (1j, 2j))],
    "complex-key-column": [[{"a": 1j, "b": 2.0}], [{"a": 1j, "b": 3.0}]],
    "single-column": [[{"a": 1.0}, {"a": 2.0}], [{"a": 1.0}, {"a": 2.0}], [{"a": 1.0}, {"a": 3.0}]],
}


@pytest.mark.parametrize("name", sorted(SHARED_CASES))
def test_canonical_dumps_matches_reference_on_shared_columns_edge_cases(name):
    lists = SHARED_CASES[name]
    doc = {"lists": lists, "two-pads": {"deeper": lists}, "reversed": lists[::-1]}
    assert _outcome(canonical_dumps, doc) == _outcome(reference_dumps, doc)


def test_consecutive_documents_differing_in_the_key_column():
    values = (0.5, -0.25, 1j)
    first = {"eigenpairs": [{"coefficients": _pairs((0.0, 1.0, 2.0), values)}]}
    second = {"eigenpairs": [{"coefficients": _pairs((0.5, 1.5, 2.5), values)}]}
    for doc in (first, second, first):
        assert canonical_dumps(doc) == reference_dumps(doc)


def _slots(skeleton):
    if skeleton is SLOT:
        return 1
    if isinstance(skeleton, dict):
        return sum(map(_slots, skeleton.values()))
    if isinstance(skeleton, list):
        return sum(map(_slots, skeleton))
    return 0


def _items(skeleton, count, leaves):
    """The plain items a run stands for: SLOTs filled in sorted-key order."""
    leaves = iter(leaves)

    def fill(node):
        if node is SLOT:
            return next(leaves)
        if isinstance(node, dict):
            return {key: fill(node[key]) for key in sorted(node)}
        if isinstance(node, list):
            return [fill(item) for item in node]
        return node

    return [fill(skeleton) for _ in range(count)]


def _skeleton(rng, depth=0):
    r = rng.random()
    if depth >= 3 or r < 0.45:
        return rng.choice((
            lambda: SLOT, lambda: SLOT, lambda: {"im": SLOT, "re": SLOT},
            lambda: rng.choice(KEYS), lambda: _float(rng), lambda: [_float(rng), -0.0],
            lambda: rng.random() < 0.5, lambda: None, lambda: [],
        ))()
    if r < 0.75:
        return {rng.choice(KEYS): _skeleton(rng, depth + 1) for _ in range(rng.randint(1, 3))}
    return [_skeleton(rng, depth + 1) for _ in range(rng.randint(1, 3))]


@pytest.mark.parametrize("seed", range(2))
def test_templated_list_prints_the_items_it_stands_for(seed):
    rng = random.Random(300 + seed)
    nulls = 0
    for _ in range(300):
        runs = []
        for _ in range(rng.randint(0, 3)):
            skeleton, count = _skeleton(rng), rng.randint(1, 4)
            leaves = tuple(_float(rng) + 0.0 for _ in range(count * _slots(skeleton)))
            runs.append((skeleton, count, leaves))
        items = [item for run in runs for item in _items(*run)]
        doc = {"list": TemplatedList(tuple(runs)), "nested": [{"deeper": TemplatedList(tuple(runs))}]}
        plain = {"list": items, "nested": [{"deeper": items}]}
        text = canonical_dumps(doc)
        assert text == reference_dumps(plain), runs
        nulls += "null" in text
    assert nulls >= 30


def plain_eigenpairs(result):
    """The eigenpairs as one record per pair and per coefficient, the form
    the writer took before it read the solver's arrays."""
    return [
        {
            "coefficients": [
                {"exponent": pair.eigenfunction.p0 + m, "value": c}
                for m, c in enumerate(pair.eigenfunction.coefficients)
            ],
            "parity": pair.parity,
            "q": pair.q,
            "residual": pair.residual,
        }
        for pair in result.pairs
    ]


def spectrum_of(n, gamma, a, delta):
    nu = {0.5: 0.0, 1.5: 0.5}[gamma]
    alpha = nu - (n - 1) / 2.0  # alpha = mu and beta = mu + 1/2: a ladder of length n
    dec = decompose(make_parameters(gamma, delta, alpha, alpha + 0.5, a, 0.0))
    rep = next(r for r in classify(dec) if r.rep_class is RepresentationClass.FINITE_DIMENSIONAL)
    return solve_spectrum(dec, rep)


def assert_prints_as_plain(result):
    """The eigenpairs print as the plain records, at the top level and nested
    one level deeper.  The reference writes the records once: at depth d
    each line after the first gains 2 * d spaces of indent."""
    eigenpairs = result.to_json_list()
    doc = {"eigenpairs": eigenpairs, "nested": {"eigenpairs": eigenpairs}}
    plain = reference_dumps(plain_eigenpairs(result))
    top, nested = (plain.replace("\n", "\n" + "  " * depth) for depth in (1, 2))
    expected = f'{{\n  "eigenpairs": {top},\n  "nested": {{\n    "eigenpairs": {nested}\n  }}\n}}'
    assert canonical_dumps(doc) == expected


def test_eigenpairs_print_as_their_per_coefficient_records():
    rng = random.Random(15)
    seen_complex = 0
    for gamma in (0.5, 1.5):
        for a in (2.0, 4.0, -3.0, 0.3):
            for n in (1, 2, 3, 16, 64, 128):
                result = spectrum_of(n, gamma, a, rng.uniform(-0.55, -0.45))
                assert len(result.pairs) == n
                assert_prints_as_plain(result)
                seen_complex += any(isinstance(pair.q, complex) for pair in result.pairs)
    assert seen_complex


def with_arrays(result, edit):
    """The result rebuilt from copies of its sub-grid arrays after
    edit(parity, q, rows, residuals) changed them."""
    subgrids = []
    for sub in result.subgrids:
        q, rows, residuals = sub.q.copy(), sub.rows.copy(), sub.residuals.copy()
        edit(sub.parity, q, rows, residuals)
        subgrids.append(sub._replace(q=q, rows=rows, residuals=residuals))
    return SpectralResult(result.warnings, tuple(subgrids))


def _negative_zeros(parity, q, rows, residuals):
    if np.iscomplexobj(rows):
        rows[0, 0] = complex(0.5, -0.0)
        rows[-1, -1] = complex(-0.0, -0.0)
        q[0] = complex(q[0].real, -0.0)
    else:
        rows[0, 0] = rows[-1, -1] = -0.0
        q[0] = -0.0
    residuals[-1] = -0.0


def _nan_q(parity, q, rows, residuals):
    q[len(q) // 2] = math.nan


def _inf_residual(parity, q, rows, residuals):
    residuals[0] = math.inf


def _nan_coefficient(parity, q, rows, residuals):
    if parity == "even":
        rows[-1, len(rows[0]) // 2] = complex(math.nan, 1.0) if np.iscomplexobj(rows) else math.nan


@pytest.mark.parametrize("a", [2.0, -3.0])
@pytest.mark.parametrize("edit", [_negative_zeros, _nan_q, _inf_residual, _nan_coefficient])
def test_eigenpairs_print_negative_zeros_and_non_finite_leaves_as_before(a, edit):
    result = with_arrays(spectrum_of(16, 0.5, a, -0.5), edit)
    assert any(isinstance(pair.q, complex) for pair in result.pairs) == (a < 0.0)
    assert_prints_as_plain(result)
    text = canonical_dumps({"eigenpairs": result.to_json_list()})
    assert ("null" in text) is (edit is not _negative_zeros)


def test_as_number_reads_null_as_nan():
    assert math.isnan(as_number(None))
    value = as_number({"im": None, "re": 1.0})
    assert value.real == 1.0 and math.isnan(value.imag)
    assert as_number({"im": 0, "re": -2}) == -2.0
    with pytest.raises(TypeError):
        as_number(True)
