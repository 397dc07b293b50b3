"""Lossless JSON codecs: exact rationals travel as "p/q" strings, vertices
as "anchor:digits", and approximate values are tagged with their mode and
precision so nothing exact is ever silently rounded.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bmo import BmoReport, HormanderResult, KernelWindow
from .funcs import FinFunc, NormValue
from .hardy import (
    GaugeResult,
    GoodBadSplit,
    H1Estimate,
    TelescopingResult,
)
from .maximal import CutoffCertificate, MaximalResult
from .sets import AdmissibleTrapezoid, CZSet, set_measure
from .tree import Tree, format_vertex, parse_vertex

APPROX_PRECISION = 1e-12


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


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


def certificate_json(c: CutoffCertificate) -> dict:
    bound = c.bound_at_cutoff
    if isinstance(bound, Fraction):
        bound = frac_str(bound)
    return {
        "rule": c.rule,
        "measure_bound": None if c.measure_bound is None else frac_str(c.measure_bound),
        "bound_at_cutoff": bound,
        "sets_evaluated": c.sets_evaluated,
    }


def maximal_json(tree: Tree, r: MaximalResult) -> dict:
    return {
        "value": norm_json(r.value),
        "witness": None if r.witness is None else set_json(tree, r.witness),
        "certificate": certificate_json(r.certificate),
    }


def bmo_report_json(tree: Tree, r: BmoReport) -> dict:
    return {
        "value": norm_json(r.value),
        "q": str(r.q),
        "witness": set_json(tree, r.witness),
        "certificate": certificate_json(r.certificate),
        "sets_evaluated": r.sets_evaluated,
    }


def split_json(tree: Tree, s: GoodBadSplit) -> dict:
    return {
        "j": s.level_j,
        "q": s.q,
        "omega_size": len(s.omega),
        "omega": sorted(format_vertex(v) for v in s.omega),
        "good": finfunc_json(s.good),
        "bad_parts": [
            {"trapezoid": set_json(tree, r), "function": finfunc_json(b)}
            for b, r in s.bad_parts
        ],
        "c_good": frac_str(s.c_good),
        "c_bad_qpow": frac_str(s.c_bad_qpow),
        "c_bad_float": s.c_bad,
        "certificate": certificate_json(s.certificate),
    }


def telescoping_json(tree: Tree, r: TelescopingResult) -> dict:
    return {
        "upper": frac_str(r.upper),
        "j_min": r.j_min,
        "j_max": r.j_max,
        "c_good_max": frac_str(r.c_good_max),
        "c_bad_qpow_max": frac_str(r.c_bad_qpow_max),
        "pieces": [
            {
                "coefficient": frac_str(lam),
                "set": set_json(tree, atom.set),
                "atom": finfunc_json(atom.function),
            }
            for lam, atom in r.pieces
        ],
    }


def gauge_json(tree: Tree, r: GaugeResult) -> dict:
    return {
        "value": frac_str(r.value),
        "family": [set_json(tree, s) for s in r.family],
        "pieces": [
            {
                "coefficient": frac_str(lam),
                "set": set_json(tree, atom.set),
                "atom": finfunc_json(atom.function),
            }
            for lam, atom in r.pieces
        ],
    }


def h1_json(tree: Tree, e: H1Estimate) -> dict:
    return {
        "lower": {
            "value": frac_str(e.lower.value),
            "witness": None
            if e.lower.witness is None
            else finfunc_json(e.lower.witness),
            "skipped_constant_candidates": e.lower.skipped,
        },
        "upper": gauge_json(tree, e.upper),
        "gap_ratio": e.gap_ratio,
    }


def hormander_json(tree: Tree, r: HormanderResult) -> dict:
    return {
        "value": frac_str(r.value),
        "witness_set": None if r.witness_set is None else set_json(tree, r.witness_set),
        "witness_pair": None
        if r.witness_pair is None
        else [format_vertex(r.witness_pair[0]), format_vertex(r.witness_pair[1])],
        "sets_checked": r.sets_checked,
        "note": r.note,
    }


def parse_kernel(tree: Tree, data) -> KernelWindow:
    from .tree import parse_window

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
    return json.dumps(obj, sort_keys=True, indent=2)
