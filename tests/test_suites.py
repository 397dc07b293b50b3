from fractions import Fraction

import pytest

import treebmo.suites as suites
from treebmo import jsonio
from treebmo.randgen import RunConfig, generate_function, nonzero_function
from treebmo.funcs import integral
from treebmo.tree import Tree, Vertex, Window

T2 = Tree(2)
WINDOW = Window(Vertex(2, ()), 4)


def test_reports_byte_identical():
    cfg = RunConfig(m=2, seed=12, size=4)
    a = jsonio.dumps(suites.run_suite(cfg, "all").to_json())
    b = jsonio.dumps(suites.run_suite(cfg, "all").to_json())
    assert a == b


def test_all_suites_pass_small():
    cfg = RunConfig(m=2, seed=1, size=4)
    rep = suites.run_suite(cfg, "all")
    assert rep.ok, jsonio.dumps(rep.to_json())


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        suites.run_suite(RunConfig(), "nope")


def test_falsifier_names_statement_and_serializes(monkeypatch):
    # force a frozen regression bound below reality: the suite must report a
    # named violation with a serialized counterexample instead of crashing
    monkeypatch.setattr(suites, "FROZEN_BMO_REVERSE_RATIO", 1.0)
    rep = suites.run_suite(RunConfig(m=2, seed=3, size=4), "bmo")
    assert not rep.ok
    v = rep.violations[0]
    assert v.name == "bmo-sandwich"
    assert v.statement
    assert "observed" in v.counterexample
    assert "extremizer" in v.counterexample


def test_generate_function_kinds_and_determinism():
    for kind in ("indicator", "rademacher", "sparse", "atom-combo"):
        f1 = generate_function(T2, WINDOW, 5, kind, 3)
        f2 = generate_function(T2, WINDOW, 5, kind, 3)
        assert f1 == f2
        assert generate_function(T2, WINDOW, 6, kind, 3) is not None
    ind = generate_function(T2, WINDOW, 5, "indicator", 0)
    assert len(ind) == 1 and ind.max_abs() == 1
    combo = nonzero_function(T2, WINDOW, 5, "atom-combo", 0)
    assert integral(T2, combo) == 0


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(m=1)
    with pytest.raises(ValueError):
        RunConfig(window=Window(Vertex(0, ()), 0))
    with pytest.raises(ValueError):
        RunConfig(p=Fraction(2), p0=Fraction(2))
