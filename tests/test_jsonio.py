import dataclasses
import json
from fractions import Fraction

import pytest

from treebmo import jsonio
from treebmo.bmo import bmo_norm
from treebmo.funcs import FinFunc, NormValue
from treebmo.hardy import Atom
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


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        "",
        None,
        0,
        -7,
        3.25,
        1e300,
        -0.0,
        float("nan"),
        float("inf"),
        -float("inf"),
        True,
        {"b": [], "a": {}, "c": [{}, [[]], ""]},
        {"zeta": [1, 2.5, None, False], "alpha": {"k": "v", "j": [True, {"x": -1}]}},
        ["é, ü and ∞", "tab\tquote\"backslash\\", "  and \U0001f600", "\x00\x1f"],
        {"ö": "ø", "a\nb": [float("nan"), float("inf"), -float("inf")]},
        (1, (2, 3), []),
        {"deep": [[[[{"deeper": [[{}]]}]]]]},
        10**40,
    ],
)
def test_dumps_writes_the_bytes_of_json_dumps(obj):
    assert jsonio.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_dumps_writes_a_report_like_json_dumps():
    rep = bmo_norm(T2, FinFunc({U: Fraction(1, 3), Vertex(-1, ()): Fraction(-2, 7)}), 2)
    payload = {"report": jsonio.bmo_report_json(T2, rep), "points": {"0:1": [rep.sets_evaluated]}}
    assert jsonio.dumps(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_dumps_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        jsonio.dumps({"value": Fraction(1, 3)})


@pytest.mark.parametrize(
    "obj", [object(), {1, 2}, Window(Vertex(2, ()), 4), {"points": [Fraction(1), object()]}]
)
def test_report_json_refuses_an_unknown_type(obj):
    with pytest.raises(TypeError, match=r"Object of type \w+ is not JSON serializable"):
        jsonio.report_json(T2, obj)


# dataclass fields no report carries: every reported atom is a (1, inf)-atom
LEFT_OUT = {Atom: {"p"}}


def test_every_field_is_reported_or_left_out():
    for cls, row in jsonio._ROWS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        read = {name for _, name, _ in row}
        assert fields - read == LEFT_OUT.get(cls, set()), cls.__name__
        # a row may read a property beside the fields (GoodBadSplit.c_bad)
        assert all(name in fields or isinstance(getattr(cls, name), property) for name in read)
    assert LEFT_OUT.keys() <= jsonio._ROWS.keys()
