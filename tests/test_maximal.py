import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import treebmo.bruteforce as bf
from treebmo import maximal
from treebmo.funcs import (
    Exponent,
    FinFunc,
    NormValue,
    average,
    lp_power,
    oscillation,
    oscillation_bound,
)
from treebmo.maximal import (
    MaximalResult,
    best_constant_oscillation,
    centered_sharp_maximal,
    hl_field,
    hl_maximal,
    hl_rule,
    maximal_level_set,
    sharp_field,
    sharp_maximal,
    sharp_rule,
    sup_over_cz,
    threshold_trapezoids,
)
from treebmo.randgen import nonzero_function
from treebmo.sets import AdmissibleTrapezoid, ArgMax, CZSet, EnumerationError, members, witness_key
from treebmo.tree import Tree, Vertex, Window

T2 = Tree(2)
O = Vertex(0, ())
U = Vertex(0, (1,))
V = Vertex(-1, ())
CHI_U = FinFunc.indicator(U)
WINDOW = Window(Vertex(2, ()), 4)


def _set_by_set(tree, f, q, x, set_value=oscillation):
    """The sharp maximal function at x from `sup_over_cz`, which offers
    every CZ set of the climb one by one and shares nothing."""
    q = Exponent.of(q)
    rule = sharp_rule(tree, f, q)
    best, certificate = sup_over_cz(tree, rule, [x], lambda s: set_value(tree, f, s, q))
    return MaximalResult(best.value, best.witness, certificate)


def _stops_at_every_test(rule):
    return replace(rule, holds=lambda mu, best: True)


class TestStopRule:
    @pytest.mark.parametrize("x", [Vertex(-3, ()), Vertex(2, ())])
    def test_no_stop_while_the_best_is_zero(self, monkeypatch, x):
        # x is off the support, so each climb starts at a zero best and meets
        # zero waves first; under a rule that holds at every test it still
        # climbs to its first nonzero best, which here is the oracle's value
        for q in (1, 2):
            rule = _stops_at_every_test(sharp_rule(T2, CHI_U, q))
            best, _ = sup_over_cz(T2, rule, [x], lambda s: oscillation(T2, CHI_U, s, q))
            assert best.value.eq_value(bf.sharp_maximal_oracle(T2, CHI_U, q, x))
        monkeypatch.setattr(maximal, "hl_rule", lambda *a: _stops_at_every_test(hl_rule(*a)))
        monkeypatch.setattr(maximal, "sharp_rule", lambda *a: _stops_at_every_test(sharp_rule(*a)))
        assert hl_maximal(T2, CHI_U, x).value.as_fraction() == bf.hl_maximal_oracle(T2, CHI_U, x)
        for q in (1, 2):
            got = sharp_maximal(T2, CHI_U, q, x).value
            assert got.eq_value(bf.sharp_maximal_oracle(T2, CHI_U, q, x))

    def test_sup_over_cz_certifies_by_the_rule_it_is_given(self):
        f = nonzero_function(T2, WINDOW, 23, "sparse", 0)
        for q in (1, 2):
            rule = sharp_rule(T2, f, q)
            for x in (U, O):
                want, cert = sup_over_cz(T2, rule, [x], lambda s: oscillation(T2, f, s, q))
                got, named = sup_over_cz(
                    T2, replace(rule, name="x"), [x], lambda s: oscillation(T2, f, s, q)
                )
                assert cert.rule == rule.name and cert.measure_bound is not None
                assert named == replace(cert, rule="x")
                assert got.value.eq_value(want.value) and got.witness == want.witness

    @pytest.mark.parametrize("tree, win", [(T2, WINDOW), (Tree(3), Window(Vertex(1, ()), 3))])
    def test_sup_over_cz_searches_the_kind_of_its_rule(self, tree, win):
        # under hl_rule the set-by-set search runs over admissible trapezoids,
        # and from a point off the support it starts where hl_maximal does
        for i in range(4):
            phi = abs(nonzero_function(tree, win, 29, "sparse", i))
            rule = hl_rule(tree, phi)
            for x in win.members(tree):
                if phi.at(x):
                    continue
                best, cert = sup_over_cz(
                    tree, rule, [x], lambda r: NormValue.exact1(average(tree, phi, r))
                )
                assert MaximalResult(best.value, best.witness, cert) == hl_maximal(tree, phi, x)


class TestHLMaximal:
    def test_at_support_vertex(self):
        r = hl_maximal(T2, CHI_U, U)
        assert r.value.as_fraction() == 1
        assert r.witness == AdmissibleTrapezoid(U, 1, degenerate=True)

    def test_at_origin(self):
        r = hl_maximal(T2, CHI_U, O)
        assert r.value.as_fraction() == Fraction(1, 16)
        assert r.witness == AdmissibleTrapezoid(Vertex(2, ()), 2)

    def test_zero_function(self):
        r = hl_maximal(T2, FinFunc(), O)
        assert r.value.is_zero() and r.witness is None

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hl_maximal(T2, FinFunc({U: Fraction(-1)}), O)

    def test_certificate_is_sound(self):
        phi = FinFunc({U: Fraction(2), V: Fraction(1, 3)})
        r = hl_maximal(T2, phi, O)
        cert = r.certificate
        assert cert.measure_bound is not None
        # any set at or past the bound is dominated by mass/measure
        assert lp_power(T2, phi, 1) / cert.measure_bound < r.value.as_fraction()

    def test_dominates_averages(self):
        for i in range(10):
            phi = abs(nonzero_function(T2, WINDOW, 13, "sparse", i))
            for x in [U, O, Vertex(1, (1,))]:
                best = hl_maximal(T2, phi, x).value.as_fraction()
                for r in bf.trapezoids_containing(T2, x, Fraction(64)):
                    assert average(T2, phi, r) <= best

    def test_matches_oracle(self):
        for i in range(12):
            phi = abs(nonzero_function(T2, WINDOW, 17, "sparse", i))
            for x in [U, O, Vertex(2, (1, 0, 1)), Vertex(-2, ())]:
                assert (
                    hl_maximal(T2, phi, x).value.as_fraction()
                    == bf.hl_maximal_oracle(T2, phi, x)
                )


class TestHLField:
    def test_agrees_with_pointwise(self):
        # every point's whole result is that of its own hl_maximal call,
        # whatever order the field visits the points in
        for tree, win in ((T2, WINDOW), (Tree(3), Window(Vertex(1, ()), 3))):
            for i in range(3):
                phi = abs(nonzero_function(tree, win, 43, "sparse", i))
                pts = win.members(tree)
                shuffled = pts[:]
                random.Random(i).shuffle(shuffled)
                alone = {x: hl_maximal(tree, phi, x) for x in pts}
                for order in (pts, shuffled):
                    assert hl_field(tree, phi, order) == alone

    def test_each_trapezoid_valued_once(self, monkeypatch):
        phi = abs(nonzero_function(T2, WINDOW, 43, "sparse", 0))
        calls = Counter()
        band_mean = maximal._band_mean

        def counted(m, index, root, h):
            calls[root, h] += 1
            return band_mean(m, index, root, h)

        monkeypatch.setattr(maximal, "_band_mean", counted)
        field = hl_field(T2, phi, WINDOW)
        assert calls and max(calls.values()) == 1
        assert sum(r.certificate.sets_evaluated for r in field.values()) > len(calls)

    def test_matches_oracle(self):
        win = Window(Vertex(1, ()), 3)
        for i in range(4):
            phi = abs(nonzero_function(T2, win, 47, "sparse", i))
            for x, r in hl_field(T2, phi, win).items():
                assert r.value.as_fraction() == bf.hl_maximal_oracle(T2, phi, x)

    def test_zero_and_negative_functions(self):
        field = hl_field(T2, FinFunc(), WINDOW)
        assert all(r.value.is_zero() and r.witness is None for r in field.values())
        with pytest.raises(ValueError):
            hl_field(T2, FinFunc({U: Fraction(-1)}), [O])


class TestLevelSet:
    def test_worked_example(self):
        omega, cert = maximal_level_set(T2, CHI_U, Fraction(1, 4))
        assert omega == frozenset({U, V})
        assert cert.measure_bound == lp_power(T2, CHI_U, 1) / Fraction(1, 4)

    def test_empty_above_sup(self):
        omega, _ = maximal_level_set(T2, CHI_U, Fraction(2))
        assert omega == frozenset()

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            maximal_level_set(T2, CHI_U, Fraction(0))

    def test_budget_guard(self):
        with pytest.raises(EnumerationError):
            maximal_level_set(T2, CHI_U, Fraction(1, 2**40))

    def test_one_trapezoid_over_budget_is_refused_before_the_climb(self):
        # a height-9 trapezoid holds 261 632 vertices and averages at least
        # 1 / (9 * 2**9) with U at its top depth; the climb to 2**-6000
        # would pass thousands of levels
        with pytest.raises(EnumerationError, match="holds a trapezoid of 261632 vertices"):
            maximal_level_set(T2, CHI_U, Fraction(1, 2**6000))
        # where that bound is not strict, the predicted size decides as before
        with pytest.raises(EnumerationError, match="spans about"):
            maximal_level_set(T2, CHI_U, Fraction(1, 9 * 2**9))

    @pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(1, 10), Fraction(3, 4)])
    def test_matches_pointwise_oracle(self, lam):
        phi = FinFunc({U: Fraction(1), Vertex(1, (1,)): Fraction(1, 2)})
        omega, _ = maximal_level_set(T2, phi, lam)
        for x in Window(Vertex(3, ()), 6).members(T2):
            assert (bf.hl_maximal_oracle(T2, phi, x) > lam) == (x in omega)
        # and every member of every threshold trapezoid is in the set
        for r in threshold_trapezoids(T2, phi, lam):
            assert average(T2, phi, r) > lam
            assert all(v in omega for v in members(T2, r))

    @pytest.mark.parametrize("tree, win", [(T2, WINDOW), (Tree(3), Window(Vertex(1, ()), 3))])
    def test_threshold_trapezoids_complete_and_ordered(self, tree, win):
        # a trapezoid averaging above lam meets the support and measures
        # below ||phi||_1 / lam, so the union over the support of the
        # oracle's trapezoids up to that measure holds every one of them
        for i in range(4):
            phi = abs(nonzero_function(tree, win, 41, "sparse", i))
            l1 = lp_power(tree, phi, 1)
            for k in (3, 17, 100):
                lam = phi.max_abs() / k
                found = {
                    r
                    for x in phi.support()
                    for r in bf.trapezoids_containing(tree, x, l1 / lam)
                    if not r.degenerate and average(tree, phi, r) > lam
                }
                want = sorted(found, key=lambda r: witness_key(tree, r))
                assert threshold_trapezoids(tree, phi, lam) == want


class TestSharpMaximal:
    def test_worked_example_at_support(self):
        r = sharp_maximal(T2, CHI_U, 1, U)
        assert r.value.as_fraction() == Fraction(5, 18)
        assert r.witness == CZSet(O, 1)

    def test_same_value_at_sibling(self):
        r = sharp_maximal(T2, CHI_U, 1, V)
        assert r.value.as_fraction() == Fraction(5, 18)
        assert r.witness == CZSet(O, 1)

    def test_zero_function(self):
        assert sharp_maximal(T2, FinFunc(), 1, O).value.is_zero()

    def test_witness_attains_value(self):
        for i in range(8):
            f = nonzero_function(T2, WINDOW, 19, "sparse", i)
            for q in (1, 2):
                r = sharp_maximal(T2, f, q, U)
                assert oscillation(T2, f, r.witness, q).eq_value(r.value)

    def test_matches_oracle(self):
        for i in range(8):
            f = nonzero_function(T2, WINDOW, 23, "sparse", i)
            for x in [U, O, Vertex(2, (1, 1))]:
                for q in (1, 2):
                    got = sharp_maximal(T2, f, q, x).value
                    want = bf.sharp_maximal_oracle(T2, f, q, x)
                    assert got.eq_value(want)

    def test_approximate_exponent_close_to_exact_neighbours(self):
        f = FinFunc({U: Fraction(2), V: Fraction(-1)})
        v32 = sharp_maximal(T2, f, Fraction(3, 2), U).value
        v1 = sharp_maximal(T2, f, 1, U).value
        v2 = sharp_maximal(T2, f, 2, U).value
        assert not v32.exact
        assert v1.as_float() - 1e-9 <= v32.as_float() <= v2.as_float() + 1e-9


class TestCenteredSharp:
    def test_bracket(self):
        for i in range(8):
            f = nonzero_function(T2, WINDOW, 29, "sparse", i)
            for x in [U, O]:
                for q in (1, 2):
                    s = sharp_maximal(T2, f, q, x).value
                    c = centered_sharp_maximal(T2, f, q, x).value
                    assert s.scaled(Fraction(1, 2)) <= c
                    assert c <= s

    def test_q2_centered_equals_sharp(self):
        f = FinFunc({U: Fraction(3), V: Fraction(-1)})
        assert best_constant_oscillation(T2, f, CZSet(O, 1), 2).eq_value(
            oscillation(T2, f, CZSet(O, 1), 2)
        )

    def test_agrees_with_set_by_set(self):
        for i in range(3):
            f = nonzero_function(T2, WINDOW, 29, "sparse", i)
            for x in [U, O, Vertex(2, (1, 1))]:
                for q in (1, 2, Fraction(3, 2)):
                    want = _set_by_set(T2, f, q, x, best_constant_oscillation)
                    assert centered_sharp_maximal(T2, f, q, x) == want

    def test_q1_median_beats_mean_sometimes(self):
        f = CHI_U
        s = CZSet(O, 1)
        med = best_constant_oscillation(T2, f, s, 1).as_fraction()
        mean = oscillation(T2, f, s, 1).as_fraction()
        assert med == Fraction(1, 6) < mean


class TestSharpField:
    def test_constant_zero_field(self):
        field = sharp_field(T2, FinFunc(), 1, WINDOW)
        assert all(r.value.is_zero() for r in field.values())

    def test_agrees_with_pointwise(self):
        # every point's value, witness and whole certificate are those of the
        # set-by-set climb, whatever order the field visits the points in
        for tree, win in ((T2, WINDOW), (Tree(3), Window(Vertex(1, ()), 3))):
            f = nonzero_function(tree, win, 31, "sparse", 0)
            pts = win.members(tree)
            shuffled = pts[:]
            random.Random(31).shuffle(shuffled)
            for q in (1, 2, Fraction(3, 2)):
                alone = {x: _set_by_set(tree, f, q, x) for x in pts}
                for order in (pts, shuffled):
                    assert sharp_field(tree, f, q, order) == alone

    def test_each_state_climbed_once(self, monkeypatch):
        # over one field, each (root, t, running witness) state takes one
        # step; a point that reaches a state climbed before takes its ending
        steps = Counter()
        step = maximal._Shared.step

        def counted_step(self, state, best, set_value):
            steps[state] += 1
            return step(self, state, best, set_value)

        monkeypatch.setattr(maximal._Shared, "step", counted_step)
        for tree, win in ((T2, WINDOW), (Tree(3), Window(Vertex(1, ()), 3))):
            f = nonzero_function(tree, win, 31, "sparse", 0)
            pts = win.members(tree)
            for q in (1, 2, Fraction(3, 2)):
                steps.clear()
                field = sharp_field(tree, f, q, pts)
                assert steps and max(steps.values()) == 1
                assert field == {x: _set_by_set(tree, f, q, x) for x in pts}
                shared = len(steps)
                steps.clear()
                for x in pts:
                    sharp_maximal(tree, f, q, x)
                assert shared < sum(steps.values())

    def test_point_order_does_not_matter(self):
        f = nonzero_function(T2, WINDOW, 37, "sparse", 1)
        pts = WINDOW.members(T2)
        base = sharp_field(T2, f, 1, pts)
        shuffled = pts[::-1]
        random.Random(37).shuffle(shuffled)
        for order in (pts[::-1], shuffled):
            other = sharp_field(T2, f, 1, order)
            assert set(other) == set(base)
            for x in base:
                assert other[x].value.eq_value(base[x].value)
                assert other[x].witness == base[x].witness

    def test_each_cz_set_evaluated_once(self, monkeypatch):
        f = nonzero_function(T2, WINDOW, 31, "sparse", 0)
        calls = Counter()
        points = []

        def counted_oscillation(tree, g, s, q, **kw):
            calls[s] += 1
            return oscillation(tree, g, s, q, **kw)

        def recorded_sharp_maximal(tree, g, q, x, **kw):
            points.append(x)
            return sharp_maximal(tree, g, q, x, **kw)

        monkeypatch.setattr(maximal, "oscillation", counted_oscillation)
        monkeypatch.setattr(maximal, "sharp_maximal", recorded_sharp_maximal)
        field = sharp_field(T2, f, 1, WINDOW)
        # every point is one sharp_maximal call; the points share the sets
        assert points == WINDOW.members(T2)
        assert calls and max(calls.values()) == 1
        assert sum(r.certificate.sets_evaluated for r in field.values()) > len(calls)

    def test_points_share_waves_and_stop_test(self, monkeypatch):
        f = nonzero_function(T2, WINDOW, 31, "sparse", 0)
        built, offered, tests = [], [], []

        def counted_bound(tree, g, q):
            built.append(q)
            holds = oscillation_bound(tree, g, q)

            def counted(mu, best):
                tests.append(mu)
                return holds(mu, best)

            return counted

        class CountedArgMax(ArgMax):
            def offer(self, value, witness):
                offered.append(witness)
                super().offer(value, witness)

        monkeypatch.setattr(maximal, "oscillation_bound", counted_bound)
        monkeypatch.setattr(maximal, "ArgMax", CountedArgMax)
        field = sharp_field(T2, f, 1, WINDOW)
        assert len(built) == 1
        # a set-by-set climb offers every set it evaluates past the start;
        # with waves, a point offers one set per wave
        per_set = sum(r.certificate.sets_evaluated - 1 for r in field.values())
        assert len(offered) < per_set
        # points at one level holding the same best share each stop test
        shared_tests = len(tests)
        tests.clear()
        for v in WINDOW.members(T2):
            sharp_maximal(T2, f, 1, v)
        assert 0 < shared_tests < len(tests)

    def test_max_of_field_is_witness_oscillation(self):
        f = CHI_U
        field = sharp_field(T2, f, 1, [U, V, O])
        best = max(r.value for r in field.values())
        assert best.as_fraction() == Fraction(5, 18)
