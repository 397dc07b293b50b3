from fractions import Fraction as F

import pytest

from treebmo import simplex
from treebmo.simplex import InfeasibleError, UnboundedError, solve_lp


def test_simple_equality():
    # min x + y  s.t.  x + y = 2
    sol = solve_lp([[F(1), F(1)]], [F(2)], [F(1), F(1)])
    assert sol.objective == 2


def test_exact_rational_optimum():
    # min 3x + 2y  s.t.  x + y = 7/3, x - y = 1/3  =>  x = 4/3, y = 1
    sol = solve_lp(
        [[F(1), F(1)], [F(1), F(-1)]],
        [F(7, 3), F(1, 3)],
        [F(3), F(2)],
    )
    assert sol.x[0] == F(4, 3) and sol.x[1] == 1
    assert sol.objective == F(4) + F(2)


def test_negative_rhs_normalized():
    # same system stated with a negated row
    sol = solve_lp(
        [[F(-1), F(-1)]],
        [F(-2)],
        [F(1), F(2)],
    )
    assert sol.objective == 2  # all weight on x


def test_infeasible():
    with pytest.raises(InfeasibleError):
        solve_lp([[F(1)], [F(1)]], [F(1), F(2)], [F(0)])


def test_unbounded():
    # min -x  s.t.  x - y = 0 (x free to grow with y)
    with pytest.raises(UnboundedError):
        solve_lp([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])


def test_redundant_rows_dropped():
    sol = solve_lp(
        [[F(1), F(1)], [F(2), F(2)]],
        [F(1), F(2)],
        [F(1), F(3)],
    )
    assert sol.objective == 1


def test_degenerate_vertices_terminate(monkeypatch):
    # a classically degenerate instance; Bland fallback guarantees progress,
    # so it is also solved with the switch to Bland's rule at the first pivot
    a = [
        [F(1), F(1), F(1), F(0), F(0)],
        [F(1), F(0), F(0), F(1), F(0)],
        [F(0), F(1), F(0), F(0), F(1)],
    ]
    b = [F(1), F(1), F(1)]
    c = [F(-1), F(-2), F(0), F(0), F(0)]
    for bland_after in (simplex.BLAND_AFTER, 0):
        monkeypatch.setattr(simplex, "BLAND_AFTER", bland_after)
        sol = solve_lp(a, b, c)
        assert sol.objective == F(-2)
        assert sol.x[1] == 1 and sol.x[0] == 0


def test_free_split_pattern():
    # min |t| style: t = p - n with p, n >= 0 and p + n minimized
    # constraint p - n = -5/2  ->  optimum picks n = 5/2
    sol = solve_lp([[F(1), F(-1)]], [F(-5, 2)], [F(1), F(1)])
    assert sol.objective == F(5, 2)
    assert sol.x[0] == 0 and sol.x[1] == F(5, 2)
