import dataclasses
from fractions import Fraction

import pytest

from treebmo.bruteforce import (
    cz_in_window as cz_in_window_oracle,
    cz_meeting_support,
    descendant_count,
    distance_to_set,
    enlargement_by_bfs,
)
from treebmo.funcs import NormValue
from treebmo.sets import (
    AdmissibleTrapezoid,
    ArgMax,
    CZSet,
    GeneralTrapezoid,
    admissible_measure,
    band_within,
    bands_overlap,
    covering_family,
    covering_index,
    cz_in_window,
    cz_measure,
    cz_supersets,
    enlargement,
    enlargement_depth_range,
    enlargement_measure,
    envelope,
    feasible_heights,
    members,
    ordered_members,
    set_measure,
    smallest_enclosing_cz,
    witness_key,
)
from treebmo.tree import Tree, Vertex, Window, distance, father

T2 = Tree(2)
T3 = Tree(3)
O = Vertex(0, ())


def mass(tree, s):
    return sum((tree.weight(v) for v in members(tree, s)), Fraction(0))


class TestGeneralTrapezoid:
    def test_one_level(self):
        t = GeneralTrapezoid(O, 1, 2)
        assert set(members(T2, t)) == set(T2.children(O))

    def test_root_only(self):
        assert list(members(T2, GeneralTrapezoid(O, 0, 1))) == [O]

    def test_two_levels(self):
        assert len(list(members(T2, GeneralTrapezoid(O, 1, 3)))) == 6

    def test_fractional_bounds(self):
        t = GeneralTrapezoid(O, Fraction(1, 2), Fraction(5, 2))
        assert t.depth_range() == (1, 2)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            GeneralTrapezoid(O, 2, 2)


@pytest.mark.parametrize("tree", [T2, T3])
def test_ordered_members_are_the_sorted_members(tree):
    # geodesic roots, whose members change anchor, and roots off the geodesic
    roots = [O, Vertex(2, ()), Vertex(0, (1,)), Vertex(-1, (1, 0))]
    bands = [
        CZSet(O, 1, degenerate=True),
        GeneralTrapezoid(O, Fraction(5, 2), Fraction(11, 4)),  # no depth
        GeneralTrapezoid(O, 0, 3),
        GeneralTrapezoid(O, 2, 4),
        CZSet(O, 1),
        CZSet(O, 2),
    ]
    for root in roots:
        for band in bands:
            s = dataclasses.replace(band, root=root)
            assert list(ordered_members(tree, s)) == sorted(members(tree, s)), s


class TestAdmissibleTrapezoid:
    def test_measure_examples(self):
        assert admissible_measure(T2, AdmissibleTrapezoid(O, 2)) == 2
        assert admissible_measure(T2, AdmissibleTrapezoid(O, 1, degenerate=True)) == 1
        assert admissible_measure(T3, AdmissibleTrapezoid(Vertex(1, ()), 1)) == 3

    def test_degenerate_membership(self):
        r = AdmissibleTrapezoid(O, 1, degenerate=True)
        assert r.contains(O) and not r.contains(Vertex(1, ()))
        assert list(members(T2, r)) == [O]

    def test_degenerate_needs_h1(self):
        with pytest.raises(ValueError):
            AdmissibleTrapezoid(O, 2, degenerate=True)

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_mass_identity_window(self, tree):
        for root in Window(Vertex(2, ()), 2).members(tree):
            for h in range(1, 5):
                r = AdmissibleTrapezoid(root, h)
                assert mass(tree, r) == admissible_measure(tree, r)
                assert admissible_measure(tree, r) == h * tree.weight(root)


class TestEnvelope:
    def test_depth_ranges(self):
        assert envelope(AdmissibleTrapezoid(O, 1)).depth_range() == (1, 3)
        assert envelope(AdmissibleTrapezoid(O, 2)).depth_range() == (1, 7)
        deg = envelope(AdmissibleTrapezoid(O, 1, degenerate=True))
        assert deg.degenerate and list(members(T2, deg)) == [O]

    def test_measures(self):
        assert cz_measure(T2, CZSet(O, 1)) == 3
        assert cz_measure(T2, CZSet(O, 2)) == 7
        assert cz_measure(T2, CZSet(O, 4)) == 14

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_measure_matches_enumeration(self, tree):
        for h in range(1, 4):
            s = CZSet(Vertex(1, ()), h)
            assert mass(tree, s) == cz_measure(tree, s)

    def test_ratio_bound_and_max(self):
        ratios = [
            cz_measure(T2, envelope(AdmissibleTrapezoid(O, h)))
            / admissible_measure(T2, AdmissibleTrapezoid(O, h))
            for h in range(1, 65)
        ]
        assert all(r <= 4 for r in ratios)
        assert max(ratios) == Fraction(7, 2)
        assert ratios[1] == Fraction(7, 2)  # attained at even h

    def test_within_ball_of_any_member(self):
        for h in (1, 2):
            s = CZSet(O, h)
            mem = list(members(T2, s))
            for z in mem:
                assert all(distance(y, z) <= 8 * h for y in mem)


class TestEnlargement:
    def test_small_h_equals_set(self):
        for h in (1, 2, 3, 4):
            s = CZSet(O, h)
            assert enlargement_depth_range(s) == s.depth_range()

    def test_h8_depth_band(self):
        assert enlargement_depth_range(CZSet(O, 8)) == (3, 32)

    def test_degenerate(self):
        s = CZSet(O, 1, degenerate=True)
        assert enlargement_depth_range(s) == (0, 0)

    @pytest.mark.parametrize("tree,h_values", [(T2, (1, 2, 3, 4)), (T3, (1, 2))])
    def test_band_matches_bfs_oracle(self, tree, h_values):
        for h in h_values:
            s = CZSet(O, h)
            lo, hi = enlargement_depth_range(s)
            band = {
                v
                for d in range(lo, hi + 1)
                for v in tree.descendants_at_depth(s.root, d)
            }
            assert band == enlargement_by_bfs(tree, s)

    @pytest.mark.parametrize("tree,h", [(T2, 5), (T2, 8), (T3, 5)])
    def test_band_matches_distance_oracle_at_boundaries(self, tree, h):
        # reach >= 1 sets are too large to materialize; verify the band edge
        # by per-vertex BFS distances on the boundary layers, a bottom
        # sub-cone, and the off-subtree collar.
        s = CZSet(O, h)
        lo, hi = enlargement_depth_range(s)
        reach = (h - 1) // 4
        assert reach == 1
        for v in tree.descendants_at_depth(O, lo):
            assert distance_to_set(tree, v, s) <= reach
        for v in tree.descendants_at_depth(O, lo - 1):
            assert distance_to_set(tree, v, s) > reach
        cone_top = next(tree.descendants_at_depth(O, hi - 2))
        for v in tree.descendants_at_depth(cone_top, 2):  # depth hi below root
            assert distance_to_set(tree, v, s) <= reach
        for v in tree.descendants_at_depth(cone_top, 3):  # depth hi + 1
            assert distance_to_set(tree, v, s) > reach
        off_branch = tree.vertex(1, (1,))  # sibling subtree of the root
        assert distance_to_set(tree, off_branch, s) > reach
        assert distance_to_set(tree, Vertex(1, ()), s) > reach

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_ratio_at_most_two(self, tree):
        for h in range(1, 9):
            s = CZSet(Vertex(1, ()), h)
            assert enlargement_measure(tree, s) <= 2 * cz_measure(tree, s)


class TestBandGeometry:
    """Band.contains, band_within and bands_overlap against enumerated member
    sets, over every pair of a small exhaustive family of bands."""

    WINDOW = Window(Vertex(1, ()), 3)
    # a CZ set of height 3 on Tree(3) has ~265k members, too many to enumerate
    # once per root
    CZ_HEIGHTS = {2: 3, 3: 2}

    def family(self, tree):
        out = []
        for root in self.WINDOW.members(tree):
            out.append(AdmissibleTrapezoid(root, 1, degenerate=True))
            out.extend(AdmissibleTrapezoid(root, h) for h in range(1, 4))
            czs = [CZSet(root, 1, degenerate=True)]
            czs.extend(CZSet(root, h) for h in range(1, self.CZ_HEIGHTS[tree.m] + 1))
            out.extend(czs)
            out.extend(enlargement(s) for s in czs)
        out.extend([self.WINDOW, Window(O, 2), Window(Vertex(2, ()), 4), Window(Vertex(0, (1,)), 1)])
        return out

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_contains(self, tree):
        # every member, a slab reaching outside the window, and the level
        # under one bottom member
        slab = set(Window(father(self.WINDOW.root), self.WINDOW.depth + 2).members(tree))
        for s in self.family(tree):
            mem = set(members(tree, s))
            _, hi = s.depth_range()
            below = tree.children(next(tree.descendants_at_depth(s.root, hi)))
            for v in mem | slab | set(below):
                assert s.contains(v) == (v in mem), (s, v)

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_within_and_overlap(self, tree):
        fam = self.family(tree)
        mems = [frozenset(members(tree, s)) for s in fam]
        for a, ma in zip(fam, mems):
            for b, mb in zip(fam, mems):
                assert band_within(a, b) == (ma <= mb), (a, b)
                assert bands_overlap(a, b) == (not ma.isdisjoint(mb)), (a, b)


class TestCovering:
    def test_family_examples(self):
        assert covering_family(0) == CZSet(O, 1)
        assert covering_family(1) == CZSet(Vertex(1, ()), 2)
        assert covering_family(5) == CZSet(Vertex(5, ()), 6)

    def test_nested_enumerated_small(self):
        for n in (0, 1, 2):
            small = set(members(T2, covering_family(n)))
            big = covering_family(n + 1)
            assert all(big.contains(x) for x in small)

    def test_nested_band_endpoints(self):
        for n in range(21):
            lo_a, hi_a = covering_family(n).depth_range()
            lo_b, hi_b = covering_family(n + 1).depth_range()
            assert lo_b <= lo_a + 1 and hi_a + 1 <= hi_b

    def test_index_examples(self):
        assert covering_index(O) == 1
        assert not covering_family(0).contains(O)
        assert covering_index(Vertex(0, (1,))) == 0
        assert covering_index(Vertex(7, ())) == 15

    def test_index_verified_on_window(self):
        for x in Window(Vertex(2, ()), 6).members(T2):
            n = covering_index(x)
            assert covering_family(n).contains(x)
            if n > max(x.anchor, 0):
                assert not covering_family(n - 1).contains(x)


class TestSupersetStream:
    def test_stream_head(self):
        u = Vertex(0, (1,))
        fam = list(cz_supersets(T2, [u], Fraction(40)))
        assert fam[0] == CZSet(u, 1, degenerate=True)
        assert fam[1:5] == [
            CZSet(O, 1),
            CZSet(O, 2),
            CZSet(Vertex(1, ()), 1),
            CZSet(Vertex(1, ()), 2),
        ]

    def test_no_set_rooted_at_support_vertex(self):
        fam = list(cz_supersets(T2, [O], Fraction(64)))
        assert all(s.degenerate or s.root != O for s in fam)
        assert all(s.contains(O) for s in fam)

    def test_tiny_cutoff(self):
        u = Vertex(0, (1,))
        fam = list(cz_supersets(T2, [u], Fraction(0)))
        assert fam == []

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            list(cz_supersets(T2, [], Fraction(1)))

    @pytest.mark.parametrize("tree", [T2, T3])
    def test_completeness_against_bruteforce(self, tree):
        supp = [tree.vertex(0, (1,)), tree.vertex(-2), tree.vertex(1, (1, 1))]
        cap = Fraction(96)
        streamed = {(s.root, s.h, s.degenerate) for s in cz_supersets(tree, supp, cap)}
        brute = {
            (s.root, s.h, s.degenerate) for s in cz_meeting_support(tree, supp, cap)
        }
        assert streamed == brute
        for key in streamed:
            s = CZSet(*key)
            assert set_measure(tree, s) <= cap
            assert any(s.contains(u) for u in supp)

    def test_feasible_heights_rule(self):
        # a vertex at depth d below the root is a member iff h is in the range
        for d in range(1, 12):
            hs = set(feasible_heights(d))
            for h in range(1, 3 * d + 4):
                s = CZSet(O, h)
                lo, hi = s.depth_range()
                assert (lo <= d <= hi) == (h in hs)


class TestSmallestEnclosing:
    def test_pair(self):
        u, v = Vertex(0, (1,)), Vertex(-1, ())
        s = smallest_enclosing_cz(T2, [u, v])
        assert s == CZSet(O, 1)

    def test_single_vertex(self):
        s = smallest_enclosing_cz(T2, [O])
        assert s.contains(O) and not s.degenerate

    def test_is_minimal_among_stream(self):
        pts = [Vertex(0, (1,)), Vertex(-2, ()), Vertex(0, (1, 1))]
        s = smallest_enclosing_cz(T2, pts)
        assert all(s.contains(p) for p in pts)
        cap = 4 * cz_measure(T2, s)
        for cand in cz_supersets(T2, pts, cap):
            if all(cand.contains(p) for p in pts):
                assert cz_measure(T2, cand) >= cz_measure(T2, s)


class TestDescendantCount:
    @pytest.mark.parametrize("tree", [T2, T3])
    def test_matches_enumeration_and_is_distinct(self, tree):
        for d in range(7):
            listed = list(tree.descendants_at_depth(Vertex(1, ()), d))
            assert len(set(listed)) == len(listed) == tree.m**d
            assert descendant_count(tree, Vertex(1, ()), d) == len(listed)


class TestCzInWindow:
    @pytest.mark.parametrize("tree", [T2, T3])
    def test_matches_oracle_order(self, tree):
        # cli h1 --family auto: and cli hormander report families in this order
        for root in (Vertex(4, ()), Vertex(1, (1,))):
            for depth in range(9 if tree.m == 2 else 7):
                window = Window(root, depth)
                for h_max in (1, 2, 3):
                    oracle = cz_in_window_oracle(tree, window, h_max, include_degenerate=False)
                    assert cz_in_window(tree, window, h_max) == oracle


class TestArgMax:
    def test_fraction_ties_go_to_smallest_key(self):
        small, large = CZSet(O, 1), CZSet(O, 2)
        best = ArgMax(T2, Fraction(1, 2), large)
        best.offer(Fraction(2, 4), small)
        assert best.witness == small
        best.offer(Fraction(1, 2), large)
        best.offer(Fraction(1, 3), CZSet(O, 1, degenerate=True))
        assert (best.value, best.witness) == (Fraction(1, 2), small)
        best.offer(Fraction(3, 5), large)
        assert (best.value, best.witness) == (Fraction(3, 5), large)

    def test_norm_values_tie_across_degrees(self):
        small, large = CZSet(O, 1), CZSet(O, 2)
        assert witness_key(T2, small) < witness_key(T2, large)
        best = ArgMax(T2, NormValue.exact1(2), large)
        best.offer(NormValue.exact_sqrt(4), small)
        assert best.witness == small and best.value == NormValue.exact1(2)
        best.offer(NormValue.exact_sqrt(3), large)
        assert best.witness == small
        best.offer(NormValue.exact_sqrt(5), large)
        assert best.witness == large and best.value == NormValue.exact_sqrt(5)
