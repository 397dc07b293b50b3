import itertools
import random
from fractions import Fraction

import pytest

from treebmo.tree import (
    MAX_LISTED,
    ORIGIN,
    EnumerationError,
    InvalidVertexError,
    Tree,
    Vertex,
    Window,
    ancestor,
    depth_below,
    distance,
    father,
    format_vertex,
    join,
    level,
    parse_vertex,
    parse_window,
)

T2 = Tree(2)
T3 = Tree(3)


def window_vertices(tree, root=Vertex(2, ()), depth=4):
    return Window(root, depth).members(tree)


class TestCanonicalize:
    def test_leading_zero_reduces(self):
        assert T2.canonicalize(0, (0,)) == Vertex(-1, ())

    def test_already_canonical(self):
        assert T2.canonicalize(0, (1,)) == Vertex(0, (1,))

    def test_single_reduction(self):
        v = T2.canonicalize(2, (0, 1))
        assert v == Vertex(1, (1,))
        assert T2.canonicalize(v.anchor, v.word) == v  # idempotent

    def test_multiple_zeros(self):
        assert T2.canonicalize(3, (0, 0, 0)) == Vertex(0, ())

    def test_digit_out_of_range(self):
        with pytest.raises(InvalidVertexError):
            T2.canonicalize(0, (2,))
        with pytest.raises(InvalidVertexError):
            T3.canonicalize(1, (0, 3))

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_idempotent_on_window(self, tree):
        for v in window_vertices(tree, depth=3):
            assert tree.canonicalize(v.anchor, v.word) == v


class TestLevelAndFather:
    def test_origin_level(self):
        assert level(ORIGIN) == 0

    def test_one_step_down(self):
        assert level(Vertex(0, (1,))) == -1

    def test_m3_level(self):
        assert level(T3.vertex(3, (1, 2))) == 1
        # cross-check by walking the father chain up to the geodesic
        v = T3.vertex(3, (1, 2))
        steps = 0
        while v.word:
            v = father(v)
            steps += 1
        assert v.anchor - steps == 1

    def test_father_drops_digit(self):
        assert father(Vertex(0, (1,))) == ORIGIN

    def test_geodesic_ascends(self):
        assert father(Vertex(1, ())) == Vertex(2, ())

    def test_children_m2(self):
        assert set(T2.children(ORIGIN)) == {Vertex(-1, ()), Vertex(0, (1,))}

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_father_child_inverse(self, tree):
        for v in window_vertices(tree, depth=3):
            kids = tree.children(v)
            assert len(kids) == tree.m
            assert len(set(kids)) == tree.m
            for c in kids:
                assert father(c) == v
                assert level(c) == level(v) - 1
            assert level(father(v)) == level(v) + 1


class TestOrderAndDistance:
    def test_distance_examples(self):
        assert distance(Vertex(0, (1,)), Vertex(-1, ())) == 2
        assert distance(ORIGIN, ORIGIN) == 0
        assert distance(ORIGIN, Vertex(3, ())) == 3

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_metric_axioms_on_window(self, tree):
        verts = window_vertices(tree, depth=3)
        for x, y in itertools.product(verts, repeat=2):
            d = distance(x, y)
            assert d == distance(y, x)
            assert (d == 0) == (x == y)
        for x, y, z in itertools.islice(
            itertools.product(verts, repeat=3), 0, None, 7
        ):
            assert distance(x, z) <= distance(x, y) + distance(y, z)

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_descendant_counts(self, tree):
        for r in range(4):
            below = [
                u
                for u in tree.ball(ORIGIN, r)
                if depth_below(u, ORIGIN) == r
            ]
            assert len(below) == tree.m**r

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_depth_below_matches_ancestor_definition(self, tree):
        # depth_below reads membership from the coordinates; its definition
        # is the level gap d >= 0 with ancestor(x, d) == root
        def by_ancestor(x, root):
            d = level(root) - level(x)
            return d if d >= 0 and ancestor(x, d) == root else None

        rng = random.Random(f"{tree.m}:depth-below")

        def digits(n):
            return tuple(rng.randrange(tree.m) for _ in range(n))

        far = 10**9
        seen = set()
        for anchor in (0, 3, -5, far, -far):
            for _ in range(60):
                root = tree.canonicalize(anchor, digits(rng.randint(0, 4)))
                up = ancestor(root, rng.randint(1, 6))
                xs = [
                    root,
                    up,  # above the root
                    tree.canonicalize(root.anchor, root.word + digits(rng.randint(1, 5))),
                    tree.canonicalize(up.anchor, up.word + digits(rng.randint(1, 9))),
                    tree.canonicalize(root.anchor + rng.randint(-3, 3), digits(rng.randint(0, 6))),
                    tree.canonicalize(rng.choice((far, -far)), digits(rng.randint(0, 3))),
                ]
                for x in xs:
                    d = depth_below(x, root)
                    assert d == by_ancestor(x, root), (x, root)
                    seen.add((bool(root.word), d is None, d == 0))
        # roots on and off the geodesic, each with x outside, at and strictly below it
        assert seen == {(g, out, at) for g in (False, True) for out, at in
                        ((True, False), (False, True), (False, False))}

    def test_join(self):
        u = Vertex(0, (1,))
        v = Vertex(-1, ())
        assert join(u, v) == ORIGIN
        assert join(u, u) == u
        assert ancestor(u, 3) == Vertex(2, ())


class TestMeasure:
    def test_weight_examples(self):
        assert T2.weight(ORIGIN) == 1
        assert T2.weight(Vertex(0, (1,))) == Fraction(1, 2)
        assert T3.weight(Vertex(2, ())) == 9

    def test_ball_r1_m2(self):
        ball = T2.ball(ORIGIN, 1)
        assert set(ball) == {ORIGIN, Vertex(1, ()), Vertex(-1, ()), Vertex(0, (1,))}
        assert T2.ball_measure_enumerated(ORIGIN, 1) == 4
        assert T2.ball_measure_closed(ORIGIN, 1) == 4

    def test_ball_r0(self):
        assert T2.ball_measure_closed(ORIGIN, 0) == 1
        assert T2.ball(ORIGIN, 0) == [ORIGIN]

    def test_ball_m3_r2(self):
        assert T3.ball_measure_closed(ORIGIN, 2) == 17
        assert T3.ball_measure_enumerated(ORIGIN, 2) == 17

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_ball_formula_matches_enumeration(self, tree):
        centers = [ORIGIN, tree.vertex(0, (1,)), Vertex(2, ()), tree.vertex(-1)]
        for v in centers:
            for r in range(1, 5):
                assert tree.ball_measure_enumerated(v, r) == tree.ball_measure_closed(
                    v, r
                )


class TestBudgets:
    @pytest.mark.parametrize("tree", [T2, T3])
    def test_listing_is_refused_from_the_closed_form_count(self, tree):
        m = tree.m
        for depth in (1, 5, 16, 10**9):
            count = sum(m**d for d in range(min(depth, 20) + 1))
            w = Window(ORIGIN, depth)
            if count <= MAX_LISTED:
                assert len(w.members(tree)) == count
            else:
                with pytest.raises(EnumerationError, match=f"window {w} holds more than"):
                    w.members(tree)
        for r in (1, 4, 16, 10**9):
            count = 1 + (m + 1) * (m ** min(r, 20) - 1) // (m - 1)
            if count <= MAX_LISTED:
                assert len(tree.ball(ORIGIN, r)) == count
            else:
                with pytest.raises(EnumerationError, match=f"ball of radius {r} about 0: holds"):
                    tree.ball(ORIGIN, r)

    def test_unprintable_power_is_refused_before_it_is_formed(self):
        # CPython prints at most 4300 digits by default: 2**14284 and 10**4299
        # have that many, 2**14285 and 10**4300 one more
        assert T2.level_weight(14284) == 2**14284
        assert T2.level_weight(-14284) == Fraction(1, 2**14284)
        assert Tree(10).level_weight(4299) == 10**4299
        for tree, lvl, bits in ((T2, -14285, 14286), (Tree(10), 4300, 14285)):
            with pytest.raises(ValueError, match=f"a rational of {bits} bits is too large"):
                tree.level_weight(lvl)
        with pytest.raises(ValueError, match="a rational of 1000000001 bits is too large"):
            T2.weight(Vertex(10**9, ()))
        with pytest.raises(ValueError, match="a rational of 158496252 bits is too large"):
            T3.ball_measure_closed(ORIGIN, 10**8)


class TestWindowMember:
    WINDOWS = [
        (Vertex(2, ()), 4),
        (Vertex(0, ()), 0),
        (Vertex(-1, ()), 3),
        (Vertex(1, (1,)), 3),
        (Vertex(3, (1, 0)), 2),
    ]

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_member_indexes_members(self, tree):
        # members() lists depth by depth through descendants_at_depth, so this
        # also pins that walk's order to the base-m digits of the index
        for root, depth in self.WINDOWS:
            w = Window(root, depth)
            listed = w.members(tree)
            assert len(listed) == sum(tree.m**d for d in range(depth + 1))
            assert [w.member(tree, i) for i in range(len(listed))] == listed
            for d in range(depth + 1):
                ball = {u for u in tree.ball(root, d) if depth_below(u, root) == d}
                assert set(tree.descendants_at_depth(root, d)) == ball

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_member_out_of_range(self, tree):
        w = Window(Vertex(2, ()), 3)
        for i in (-1, len(w.members(tree)), 10**6):
            with pytest.raises(IndexError):
                w.member(tree, i)


class TestTextFormat:
    def test_parse_examples(self):
        assert parse_vertex(T2, "0:") == ORIGIN
        assert parse_vertex(T2, "0:1") == Vertex(0, (1,))
        assert parse_vertex(T2, "-1:") == Vertex(-1, ())

    def test_parse_canonicalizes(self):
        assert parse_vertex(T2, "0:01") == Vertex(-1, (1,))

    def test_roundtrip(self):
        for v in window_vertices(T3, depth=3):
            assert parse_vertex(T3, format_vertex(v)) == v

    def test_bad_inputs(self):
        for text in ["01", "x:1", "0:12x", "0:3"]:
            with pytest.raises(InvalidVertexError):
                parse_vertex(T2, text)

    def test_window_parse(self):
        w = parse_window(T2, "root=2:,depth=4")
        assert w == Window(Vertex(2, ()), 4)
        assert len(w.members(T2)) == 2**5 - 1
        with pytest.raises(ValueError):
            parse_window(T2, "depth=4")
