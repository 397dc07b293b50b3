"""Lossless JSON codecs: exact rationals travel as "p/q" strings, vertices
as "anchor:digits", and approximate values are tagged with their mode and
precision so nothing exact is ever silently rounded.

Every report goes to JSON through one serializer, `report_json`, whose one
table keyed by type holds the leaves and a row per result dataclass naming
the keys it reports.  A new result type is one row in `_ROWS`.
"""

from __future__ import annotations

import io
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable

from .bmo import BmoReport, HormanderResult, KernelWindow
from .funcs import Exponent, FinFunc, NormValue
from .hardy import (
    Atom,
    DualityLower,
    GaugeResult,
    GoodBadSplit,
    H1Estimate,
    TelescopingResult,
)
from .maximal import CutoffCertificate, MaximalResult
from .sets import AdmissibleTrapezoid, CZSet, set_measure
from .tree import Tree, Vertex, format_vertex, parse_vertex, parse_window

APPROX_PRECISION = 1e-12


def frac_str(x: Fraction) -> str:
    try:
        return str(x)
    except ValueError:
        # CPython prints no integer of more than sys.get_int_max_str_digits() digits
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        raise ValueError(
            f"a rational of {bits} bits is too large to print: its numerator "
            f"or denominator passes {sys.get_int_max_str_digits()} digits"
        ) from None


def parse_frac(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


def norm_json(n: NormValue) -> dict:
    if not n.exact:
        return {"mode": "approx", "value": n.approx, "precision": APPROX_PRECISION}
    if n.degree == 1:
        return {"mode": "exact", "value": frac_str(n.radicand)}
    return {
        "mode": "exact-sqrt",
        "value_squared": frac_str(n.radicand),
        "float": n.as_float(),
    }


def finfunc_json(f: FinFunc) -> list[dict]:
    return [
        {"v": format_vertex(v), "val": frac_str(val)}
        for v, val in sorted(f.items(), key=lambda kv: (kv[0].anchor, kv[0].word))
    ]


def parse_finfunc(tree: Tree, data) -> FinFunc:
    if not isinstance(data, list):
        raise ValueError("function JSON must be an array of {v, val} entries")
    seen = set()
    pairs = []
    for entry in data:
        if not isinstance(entry, dict) or "v" not in entry or "val" not in entry:
            raise ValueError(f"function JSON entry {entry!r} is not a {{v, val}} pair")
        if not isinstance(entry["v"], str):
            raise ValueError(f"vertex {entry['v']!r} in function JSON is not a string")
        v = parse_vertex(tree, entry["v"])
        if v in seen:
            raise ValueError(f"duplicate vertex {entry['v']} in function JSON")
        seen.add(v)
        pairs.append((v, parse_frac(entry["val"])))
    return FinFunc(pairs)


def set_json(tree: Tree, s: CZSet | AdmissibleTrapezoid) -> dict:
    return {
        "root": format_vertex(s.root),
        "h": s.h,
        "degenerate": s.degenerate,
        "measure": frac_str(set_measure(tree, s)),
    }


def parse_cz(tree: Tree, text: str) -> CZSet:
    return _parse_set(tree, text, "cz", CZSet)


def parse_trapezoid(tree: Tree, text: str) -> AdmissibleTrapezoid:
    return _parse_set(tree, text, "trapezoid", AdmissibleTrapezoid)


def _parse_set(tree: Tree, text: str, tag: str, cls):
    parts = text.strip().split()
    if not parts or parts[0] != tag:
        raise ValueError(f"expected '{tag} root=<vertex> h=<int> [deg]', got {text!r}")
    fields = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
    degenerate = "deg" in parts[1:]
    if "root" not in fields or ("h" not in fields and not degenerate):
        raise ValueError(f"missing root/h in {text!r}")
    root = parse_vertex(tree, fields["root"])
    h = int(fields.get("h", 1))
    return cls(root, h, degenerate)


def _row(names: str, **derived) -> tuple:
    """A result type's row of (key, field, getter): each of the space-separated
    `names` reported under its own name, and each derived key from (field,
    convert), a convert of None renaming the field."""
    specs = {name: (name, None) for name in names.split()} | derived
    return tuple((key, name, _getter(name, convert)) for key, (name, convert) in specs.items())


def _getter(name: str, convert: Callable | None) -> Callable:
    get = attrgetter(name)
    return get if convert is None else lambda o: convert(get(o))


def _pieces(pieces) -> list[dict]:
    return [{"coefficient": lam, **_fields(atom)} for lam, atom in pieces]


# A dataclass field missing from its type's row is named as left out in
# tests/test_jsonio.py.
_ROWS = {
    CutoffCertificate: _row("rule measure_bound bound_at_cutoff sets_evaluated"),
    MaximalResult: _row("value witness certificate"),
    BmoReport: _row("value q witness certificate sets_evaluated"),
    HormanderResult: _row("value witness_set witness_pair sets_checked note"),
    GoodBadSplit: _row(
        "q good certificate c_good c_bad_qpow",
        j=("level_j", None),
        omega_size=("omega", len),
        omega=("omega", lambda omega: sorted(map(format_vertex, omega))),
        bad_parts=("bad_parts", lambda parts: [{"trapezoid": r, "function": b} for b, r in parts]),
        c_bad_float=("c_bad", None),
    ),
    # every reported atom is a (1, inf)-atom, so its exponent is left out
    Atom: _row("set", atom=("function", None)),
    TelescopingResult: _row(
        "upper j_min j_max c_good_max c_bad_qpow_max", pieces=("pieces", _pieces)
    ),
    GaugeResult: _row("value family", pieces=("pieces", _pieces)),
    DualityLower: _row("value witness", skipped_constant_candidates=("skipped", None)),
    H1Estimate: _row("lower upper gap_ratio"),
}


def _fields(o) -> dict:
    """The keys of o's row, their values not yet serialized."""
    return {key: get(o) for key, _, get in _ROWS[type(o)]}


def report_json(tree: Tree, obj):
    """obj in the notation of every report: a leaf through its entry in the
    table keyed by type, a result dataclass through its row in `_ROWS`."""
    return _ENCODE.get(type(obj), _unknown)(tree, obj)


def _unknown(tree: Tree, o):
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _encode_row(row: tuple) -> Callable:
    getters = tuple((key, get) for key, _, get in row)
    return lambda tree, o: {key: report_json(tree, get(o)) for key, get in getters}


_ENCODE: dict[type, Callable] = {
    **dict.fromkeys((str, int, float, bool, type(None)), lambda tree, o: o),
    Fraction: lambda tree, x: frac_str(x),
    NormValue: lambda tree, n: norm_json(n),
    CZSet: set_json,
    AdmissibleTrapezoid: set_json,
    FinFunc: lambda tree, f: finfunc_json(f),
    Vertex: lambda tree, v: format_vertex(v),
    Exponent: lambda tree, p: str(p),
    **dict.fromkeys((list, tuple), lambda tree, xs: [report_json(tree, x) for x in xs]),
    dict: lambda tree, d: {
        format_vertex(k) if type(k) is Vertex else k: report_json(tree, v) for k, v in d.items()
    },
    **{cls: _encode_row(row) for cls, row in _ROWS.items()},
}

# former builder names, still called by perfbench/workloads.py and the golden tests
maximal_json = bmo_report_json = split_json = report_json
telescoping_json = h1_json = hormander_json = report_json


def parse_kernel(tree: Tree, data) -> KernelWindow:
    if not isinstance(data, dict) or "window" not in data or "entries" not in data:
        raise ValueError("kernel JSON must be an object with 'window' and 'entries'")
    if not isinstance(data["window"], str):
        raise ValueError(f"kernel window {data['window']!r} is not a string")
    if not isinstance(data["entries"], list):
        raise ValueError("kernel JSON 'entries' must be an array of {y, x, val} entries")
    window = parse_window(tree, data["window"])
    mapping = {}
    for entry in data["entries"]:
        if not isinstance(entry, dict) or not {"y", "x", "val"} <= entry.keys():
            raise ValueError(f"kernel JSON entry {entry!r} is not a {{y, x, val}} triple")
        if not isinstance(entry["y"], str) or not isinstance(entry["x"], str):
            raise ValueError(f"vertex in kernel JSON entry {entry!r} is not a string")
        y = parse_vertex(tree, entry["y"])
        x = parse_vertex(tree, entry["x"])
        key = (y, x)
        if key in mapping:
            raise ValueError(f"duplicate kernel entry for {entry['y']}, {entry['x']}")
        mapping[key] = parse_frac(entry["val"])
    return KernelWindow.from_mapping(mapping, window)


def dumps(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2), for objects
    whose dicts have str keys (every report's do).

    With `indent` set, json falls back to its pure-Python encoder; this
    writer makes the same choices (sorted keys, ASCII escapes, float repr,
    NaN and Infinity, "{}" and "[]" for empty containers) directly.
    """
    buf = io.StringIO()  # holds one string, not a list of the pieces
    _write(obj, buf.write, "\n")
    return buf.getvalue()


def _write(o, out: Callable[[str], object], newline: str) -> None:
    if isinstance(o, str):
        out(encode_basestring_ascii(o))
    elif o is None:
        out("null")
    elif o is True:
        out("true")
    elif o is False:
        out("false")
    elif isinstance(o, int):
        out(int.__repr__(o))
    elif isinstance(o, float):
        out(_float_str(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            out(sep)
            _write(item, out, inner)
            sep = "," + inner
        out(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out(sep)
            out(encode_basestring_ascii(key))
            out(": ")
            _write(value, out, inner)
            sep = "," + inner
        out(newline + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _float_str(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)
