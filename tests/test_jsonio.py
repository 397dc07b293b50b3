import json
from fractions import Fraction

import pytest

from treebmo import jsonio
from treebmo.bmo import bmo_norm
from treebmo.funcs import FinFunc, NormValue
from treebmo.sets import AdmissibleTrapezoid, CZSet
from treebmo.tree import Tree, Vertex, Window

T2 = Tree(2)
U = Vertex(0, (1,))


def test_fraction_roundtrip():
    for x in [Fraction(5, 18), Fraction(-3), Fraction(0), Fraction(22, 7)]:
        assert jsonio.parse_frac(jsonio.frac_str(x)) == x


def test_norm_json_modes():
    assert jsonio.norm_json(NormValue.exact1(Fraction(5, 18))) == {
        "mode": "exact",
        "value": "5/18",
    }
    sq = jsonio.norm_json(NormValue.exact_sqrt(Fraction(25, 324)))
    assert sq["mode"] == "exact-sqrt" and sq["value_squared"] == "25/324"
    ap = jsonio.norm_json(NormValue.approximate(0.25))
    assert ap["mode"] == "approx" and ap["precision"] == 1e-12


def test_finfunc_roundtrip():
    f = FinFunc({U: Fraction(1, 3), Vertex(-1, ()): Fraction(-2)})
    data = jsonio.finfunc_json(f)
    assert jsonio.parse_finfunc(T2, data) == f


def test_finfunc_duplicate_rejected():
    data = [{"v": "0:1", "val": "1"}, {"v": "0:1", "val": "2"}]
    with pytest.raises(ValueError):
        jsonio.parse_finfunc(T2, data)


def test_finfunc_canonicalizes_on_ingest():
    data = [{"v": "1:01", "val": "1/2"}]
    f = jsonio.parse_finfunc(T2, data)
    assert f.support() == [Vertex(0, (1,))]


def test_cz_text_roundtrip():
    s = CZSet(Vertex(1, ()), 3)
    assert jsonio.parse_cz(T2, str(s)) == s
    deg = CZSet(U, 1, degenerate=True)
    assert jsonio.parse_cz(T2, str(deg)) == deg
    with pytest.raises(ValueError):
        jsonio.parse_cz(T2, "root=0: h=1")


def test_trapezoid_parse():
    r = jsonio.parse_trapezoid(T2, "trapezoid root=0: h=2")
    assert r == AdmissibleTrapezoid(Vertex(0, ()), 2)


def test_set_json_fields():
    data = jsonio.set_json(T2, CZSet(Vertex(0, ()), 1))
    assert data == {"root": "0:", "h": 1, "degenerate": False, "measure": "3"}


def test_bmo_report_json_is_serializable():
    rep = bmo_norm(T2, FinFunc.indicator(U), 1)
    payload = jsonio.bmo_report_json(T2, rep)
    text = jsonio.dumps(payload)
    parsed = json.loads(text)
    assert parsed["value"] == {"mode": "exact", "value": "5/18"}
    assert parsed["witness"]["root"] == "0:"


def test_kernel_roundtrip():
    data = {
        "window": "root=2:,depth=4",
        "entries": [
            {"y": "0:", "x": "0:1", "val": "1/2"},
            {"y": "0:1", "x": "0:", "val": "-3"},
        ],
    }
    k = jsonio.parse_kernel(T2, data)
    assert k.window == Window(Vertex(2, ()), 4)
    assert len(k.entries) == 2
    dup = {
        "window": "root=2:,depth=4",
        "entries": [
            {"y": "0:", "x": "0:1", "val": "1/2"},
            {"y": "0:", "x": "0:1", "val": "1"},
        ],
    }
    with pytest.raises(ValueError):
        jsonio.parse_kernel(T2, dup)
