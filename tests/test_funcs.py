import math
from fractions import Fraction

import pytest

from treebmo import bruteforce
from treebmo.funcs import (
    Exponent,
    FinFunc,
    NormValue,
    ZeroMeasureError,
    _frac_to_float,
    average,
    integral,
    lp_norm,
    lp_power,
    norm_le_sum,
    oscillation,
    oscillation_bound,
    pairing,
    sqrt_plus_le,
)
from treebmo.randgen import KINDS, nonzero_function
from treebmo.sets import CZSet, GeneralTrapezoid, cz_measure, cz_supersets
from treebmo.tree import Tree, Vertex, Window, ancestor

T2 = Tree(2)
T3 = Tree(3)
O = Vertex(0, ())
U = Vertex(0, (1,))
V = Vertex(-1, ())
S1 = CZSet(O, 1)
CHI_U = FinFunc.indicator(U)


class TestExponent:
    def test_parse(self):
        assert Exponent.of(2).value == 2
        assert Exponent.of("3/2").value == Fraction(3, 2)
        assert Exponent.of("inf").is_inf
        assert Exponent.of(None).is_inf

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            Exponent.of(Fraction(1, 2))


class TestNormValue:
    def test_cross_degree_comparison(self):
        two = NormValue.exact1(2)
        sqrt5 = NormValue.exact_sqrt(5)
        assert two < sqrt5
        assert sqrt5 <= NormValue.exact1(3)
        assert NormValue.exact_sqrt(4).eq_value(NormValue.exact1(2))

    def test_scaling(self):
        v = NormValue.exact_sqrt(Fraction(9, 4))
        assert v.scaled(Fraction(2)).eq_value(NormValue.exact1(3))

    def test_sqrt_plus_le(self):
        # sqrt(4) + 1 = 3 <= sqrt(9); not <= sqrt(8)
        assert sqrt_plus_le(Fraction(4), Fraction(1), Fraction(9))
        assert not sqrt_plus_le(Fraction(4), Fraction(1), Fraction(8))

    def test_norm_le_sum_two_terms(self):
        # sqrt(8) <= sqrt(2) + sqrt(2) holds with equality
        c = NormValue.exact_sqrt(8)
        t = NormValue.exact_sqrt(2)
        assert norm_le_sum(c, [(Fraction(1), t), (Fraction(1), t)])
        assert not norm_le_sum(
            NormValue.exact_sqrt(9), [(Fraction(1), t), (Fraction(1), t)]
        )


@pytest.mark.parametrize(
    "x, expected",
    [(Fraction(10**400, 3), math.inf), (Fraction(-(10**400), 3), -math.inf)],
)
def test_frac_to_float_overflow_keeps_sign(x, expected):
    assert _frac_to_float(x) == expected


class TestFinFunc:
    def test_zero_entries_dropped(self):
        f = FinFunc({U: Fraction(0), V: Fraction(1)})
        assert f.support() == [V]
        assert (f - f).support() == []

    def test_repeated_vertices_are_summed_in_first_seen_order(self):
        f = FinFunc([(U, 1), (V, 2), (U, Fraction(1, 2)), (O, 3), (V, -2)])
        assert list(f.items()) == [(U, Fraction(3, 2)), (O, Fraction(3))]
        assert not FinFunc([(U, 1), (U, -1)])
        assert list(FinFunc([(U, 1), (U, -1), (V, 1), (U, 2)]).items()) == [
            (V, Fraction(1)),
            (U, Fraction(2)),
        ]

    def test_algebra(self):
        f = FinFunc({U: Fraction(1), V: Fraction(-2)})
        g = FinFunc({U: Fraction(-1), V: Fraction(1)})
        assert (f + g) == FinFunc({V: Fraction(-1)})
        assert abs(f) == FinFunc({U: Fraction(1), V: Fraction(2)})
        assert f.scaled(Fraction(1, 2)).at(V) == -1
        assert f.pointwise_max(g) == FinFunc({U: Fraction(1), V: Fraction(1)})
        assert f.pointwise_min(g).at(U) == -1


class TestIntegral:
    def test_examples(self):
        assert integral(T2, FinFunc()) == 0
        assert integral(T2, CHI_U) == Fraction(1, 2)
        assert integral(T2, CHI_U - FinFunc.indicator(V)) == 0

    def test_linearity_and_l1_bound(self):
        window = Window(Vertex(2, ()), 4)
        for i in range(20):
            f = nonzero_function(T2, window, 3, "sparse", i)
            g = nonzero_function(T2, window, 3, "rademacher", i)
            assert integral(T2, f + g) == integral(T2, f) + integral(T2, g)
            assert abs(integral(T2, f)) <= lp_norm(T2, f, 1).as_fraction()

    def test_pairing(self):
        a = FinFunc({U: Fraction(1, 3), V: Fraction(-1, 3)})
        assert pairing(T2, CHI_U, a) == Fraction(1, 6)
        assert pairing(T2, a, CHI_U) == Fraction(1, 6)
        assert pairing(T2, CHI_U, FinFunc.indicator(Vertex(2, ()))) == 0


class TestLpNorm:
    def test_zero(self):
        for p in (1, 2, "inf", Fraction(3, 2)):
            assert lp_norm(T2, FinFunc(), p).is_zero()

    def test_examples(self):
        assert lp_norm(T2, CHI_U, 1).as_fraction() == Fraction(1, 2)
        assert lp_norm(T2, CHI_U, "inf").as_fraction() == 1
        assert lp_norm(T2, CHI_U, 2).sq == Fraction(1, 2)

    def test_general_p_flagged_and_close(self):
        n = lp_norm(T2, CHI_U, Fraction(3, 2))
        assert not n.exact
        assert abs(n.approx - 0.5 ** (2 / 3)) < 1e-12

    def test_power(self):
        f = FinFunc({U: Fraction(-2), V: Fraction(3)})
        assert lp_power(T2, f, 3) == 8 * Fraction(1, 2) + 27 * Fraction(1, 2)


class TestAverageOscillation:
    def test_average_examples(self):
        assert average(T2, CHI_U, S1) == Fraction(1, 6)
        const = FinFunc({v: Fraction(5) for v in cz_members()})
        assert average(T2, const, S1) == 5
        assert average(T2, FinFunc({U: Fraction(1), V: Fraction(-1)}), S1) == 0

    def test_zero_measure_error(self):
        empty = GeneralTrapezoid(O, Fraction(5, 2), Fraction(11, 4))
        with pytest.raises(ZeroMeasureError):
            average(T2, CHI_U, empty)

    def test_oscillation_worked_example(self):
        assert oscillation(T2, CHI_U, S1, 1).as_fraction() == Fraction(5, 18)

    def test_constant_has_zero_oscillation(self):
        const = FinFunc({v: Fraction(7, 3) for v in cz_members()})
        assert oscillation(T2, const, S1, 1).is_zero()
        assert oscillation(T2, const, S1, 2).is_zero()

    def test_shift_invariance_on_set(self):
        window = Window(Vertex(2, ()), 4)
        for i in range(10):
            f = nonzero_function(T2, window, 5, "sparse", i)
            shifted = f + FinFunc({v: Fraction(3, 2) for v in cz_members()})
            for q in (1, 2):
                assert oscillation(T2, f, S1, q).eq_value(
                    oscillation(T2, shifted, S1, q)
                )

    def test_holder_monotone(self):
        window = Window(Vertex(2, ()), 4)
        for i in range(15):
            f = nonzero_function(T2, window, 9, "sparse", i)
            for s in [S1, CZSet(Vertex(1, ()), 2), CZSet(Vertex(2, ()), 1)]:
                o1 = oscillation(T2, f, s, 1)
                o2 = oscillation(T2, f, s, 2)
                assert o1 <= o2

    def test_cutoff_bound_dominates(self):
        # every oscillation is at most (||f||_q^q/mu)^(1/q) + ||f||_1/mu
        window = Window(Vertex(2, ()), 4)
        for i in range(15):
            f = nonzero_function(T2, window, 11, "sparse", i)
            l1 = lp_power(T2, f, 1)
            l2 = lp_power(T2, f, 2)
            for s in cz_supersets(T2, f.support(), Fraction(64)):
                mu = cz_measure(T2, s)
                assert oscillation(T2, f, s, 1).as_fraction() <= 2 * l1 / mu
                osc2 = oscillation(T2, f, s, 2)
                assert not _sqrt_plus_lt(l2 / mu, l1 / mu, osc2.sq)
                # and the cutoff predicate can never discard a beatable set
                if not osc2.is_zero():
                    assert not oscillation_bound(T2, f, 2)(
                        mu, osc2.scaled(Fraction(9999, 10000))
                    )

    def test_q1_cutoff_is_the_exact_comparison(self):
        # at q = 1 the predicate is 2 * ||f||_1 / mu <= best, on and off the edge
        window = Window(Vertex(2, ()), 4)
        for i in range(15):
            f = nonzero_function(T2, window, 11, "sparse", i)
            l1 = lp_power(T2, f, 1)
            holds = oscillation_bound(T2, f, 1)
            for s in cz_supersets(T2, f.support(), Fraction(64)):
                mu = cz_measure(T2, s)
                edge = 2 * l1 / mu
                osc = oscillation(T2, f, s, 1).as_fraction()
                for best in (osc, edge, edge * Fraction(9999, 10000), edge + Fraction(1, 10**9)):
                    assert holds(mu, NormValue.exact1(best)) == (edge <= best)


def _sqrt_plus_lt(a, s, c) -> bool:
    """sqrt(a) + s < sqrt(c), exactly, for nonnegative rationals."""
    rest = c - a - s * s
    return rest > 0 and 4 * s * s * a < rest * rest


def cz_members():
    from treebmo.sets import members

    return list(members(T2, S1))


def _oscillation_inputs():
    """(tree, f, heights on a support chain, heights next to it): every
    randgen kind on a window reaching negative levels, and values with
    denominators 3 and 7 at negative and positive levels.  Sets of the
    largest heights (4 092 members on Tree(2), 3 279 on Tree(3)) are
    summed on the chains of the second group only, to keep the test fast."""
    out = []
    for tree, window, h in ((T2, Window(Vertex(0, ()), 2), 2), (T3, Window(Vertex(0, ()), 1), 1)):
        for kind in KINDS:
            out.append((tree, nonzero_function(tree, window, 4, kind, 1), h, h))
    f2 = FinFunc({U: Fraction(1, 3), V: Fraction(-2, 7), Vertex(1, (1,)): Fraction(5, 21)})
    f3 = FinFunc({Vertex(-2, (2,)): Fraction(-4, 7), Vertex(1, ()): Fraction(2, 3)})
    return out + [(T2, f2, 3, 2), (T3, f3, 2, 1)]


def _sets_near(tree, support, h_chain, h_child):
    """Every CZ set, degenerate or of height <= h_chain, rooted on a support
    vertex's father chain up to where sets of those heights stop holding
    it, and every one of height <= h_child rooted at a child of a chain
    vertex: the sets meeting the support and the sets next to it."""
    chain, children = set(), set()
    for u in support:
        for t in range(4 * h_chain + 1):
            a = ancestor(u, t)
            chain.add(a)
            children.update(tree.children(a))
    out = []
    for roots, h_max in ((chain, h_chain), (children - chain, h_child)):
        for r in sorted(roots):
            out.append(CZSet(r, 1, degenerate=True))
            out.extend(CZSet(r, h) for h in range(1, h_max + 1))
    return out


def test_oscillation_matches_enumeration(monkeypatch):
    # every set is summed vertex by vertex, however many members it has
    monkeypatch.setattr(bruteforce, "FULL_SUM_CAP", 10**5)
    for tree, f, h_chain, h_child in _oscillation_inputs():
        sets = _sets_near(tree, f.support(), h_chain, h_child)
        assert any(not any(s.contains(v) for v in f.support()) for s in sets)
        if len(f) > 1:
            assert any(0 < sum(s.contains(v) for v in f.support()) < len(f) for s in sets)
        for s in sets:
            for q in (1, 2):
                got = oscillation(tree, f, s, q)
                want = bruteforce.oscillation_by_enumeration(tree, f, s, q)
                assert (got.radicand, got.degree, got.exact) == (
                    want.radicand,
                    want.degree,
                    want.exact,
                ), (f, s, q)
