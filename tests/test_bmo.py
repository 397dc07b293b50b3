import random
from fractions import Fraction

import pytest

import treebmo.bruteforce as bf
from treebmo.bmo import (
    DomainError,
    KernelWindow,
    atom_pairing_bound_check,
    bmo_norm,
    hormander_constant,
)
from treebmo.funcs import FinFunc, oscillation, pairing
from treebmo.maximal import sharp_field
from treebmo.randgen import nonzero_function
from treebmo.sets import CZSet, band_within, cz_supersets, enlargement, member_count, members
from treebmo.tree import Tree, Vertex, Window, distance

T2 = Tree(2)
T3 = Tree(3)
O = Vertex(0, ())
U = Vertex(0, (1,))
V = Vertex(-1, ())
S1 = CZSet(O, 1)
CHI_U = FinFunc.indicator(U)
ATOM = FinFunc({U: Fraction(1, 3), V: Fraction(-1, 3)})
WINDOW = Window(Vertex(2, ()), 4)


def _tie_kernel(window, seed, n_rows):
    """Seeded rows at n_rows vertices of the window (the other members of a
    set have none): a sparse random row, a copy of the previous row, a row
    on y and its children, inside the enlargement of every set holding
    them, or a single unit entry, whose values tie often."""
    rng = random.Random(f"{seed}:tie-kernel")
    pts = window.members(T2)
    entries = {}
    row = {}
    for k, y in enumerate(rng.sample(pts, n_rows)):
        shape = rng.choice(("sparse", "copy", "local", "unit"))
        if shape == "sparse" or not row:
            row = dict(nonzero_function(T2, window, seed, "sparse", k).items())
        elif shape == "local":
            xs = [x for x in (y, *T2.children(y)) if window.contains(x)]
            row = {x: Fraction(rng.randint(1, 3)) for x in xs}
        elif shape == "unit":
            row = {rng.choice(pts): Fraction(1)}
        for x, val in row.items():
            entries[(y, x)] = val
    return KernelWindow.from_mapping(entries, window)


def _all_pairs_scan(kernel, family):
    """(value, witness set, witness pair) of a strict-> scan over every
    member pair (y, z), y before z in (anchor, word) order."""
    rows = kernel.rows()
    best, best_set, best_pair = Fraction(0), None, None
    for s in family:
        enlarged = set(members(T2, enlargement(s)))
        mem = sorted(members(T2, s), key=lambda v: (v.anchor, v.word))
        for i, y in enumerate(mem):
            ry = rows.get(y, {})
            for z in mem[i + 1 :]:
                rz = rows.get(z, {})
                total = sum(
                    (
                        abs(ry.get(x, 0) - rz.get(x, 0)) * T2.weight(x)
                        for x in ry.keys() | rz.keys()
                        if x not in enlarged
                    ),
                    Fraction(0),
                )
                if total > best:
                    best, best_set, best_pair = total, s, (y, z)
    return best, best_set, best_pair


# sets of height 5, 6 and 9, whose enlargements reach (h - 1) // 4 = 1, 1
# and 2 levels past them, on and off the geodesic: (tree, window, family)
REACH_FAMILIES = [
    (T2, Window(Vertex(2, ()), 40),
     [CZSet(O, 5), CZSet(U, 6), CZSet(Vertex(1, ()), 9), CZSet(Vertex(2, (1,)), 9)]),
    (T3, Window(Vertex(2, ()), 40),
     [CZSet(O, 9), CZSet(Vertex(1, (2,)), 5), CZSet(Vertex(1, (1, 2)), 6)]),
]


def _reach_kernel(tree, window, family, seed):
    """Seeded rows on members of the family's sets, each with entries in
    three of: the set, the ring its enlargement adds above it, the ring
    below it, and the whole window."""
    rng = random.Random(f"{seed}:reach")

    def below(root, depth):
        word = root.word + tuple(rng.randrange(tree.m) for _ in range(depth))
        return tree.canonicalize(root.anchor, word)

    entries = {}
    for _ in range(12):
        s = rng.choice(family)
        lo, hi = s.depth_range()
        r = (s.h - 1) // 4
        y = below(s.root, rng.randint(lo, hi))
        bands = [(s.root, lo, hi), (s.root, lo - r, lo - 1), (s.root, hi + 1, hi + r),
                 (window.root, 0, window.depth)]
        for root, a, b in rng.sample(bands, 3):
            val = Fraction(rng.choice((-2, 1, 3)), rng.choice((1, 2)))
            entries[(y, below(root, rng.randint(a, b)))] = val
    return KernelWindow.from_mapping(entries, window)


def _restricted_rows(tree, kernel, s):
    """The kernel rows of s's members, weighted and restricted to the
    complement of s's enlargement, by the sets' own membership tests."""
    grown = enlargement(s)
    return {
        y: {x: v * tree.weight(x) for x, v in row.items() if not grown.contains(x)}
        for y, row in kernel.rows().items()
        if s.contains(y)
    }


def _pair_total(a, b):
    return sum((abs(a.get(x, 0) - b.get(x, 0)) for x in a.keys() | b.keys()), Fraction(0))


def _membership_scan(tree, kernel, family):
    """(value, witness set): per set, the largest pair total over its members'
    restricted rows and the zero row (every set here has more members than
    the kernel has rows), and the first set reaching the largest."""
    per_set = []
    for s in family:
        rows = [*_restricted_rows(tree, kernel, s).values(), {}]
        per_set.append(max(_pair_total(a, b) for a in rows for b in rows))
    best = max(per_set)
    return best, family[per_set.index(best)]


class TestBmoNorm:
    def test_zero_function(self):
        assert bmo_norm(T2, FinFunc(), 1).value.is_zero()

    def test_worked_witness(self):
        r = bmo_norm(T2, CHI_U, 1)
        assert r.value.as_fraction() == Fraction(5, 18)
        assert r.witness == S1
        assert r.sets_evaluated > 1
        assert r.certificate.measure_bound is not None

    def test_witness_attains_value(self):
        for i in range(10):
            f = nonzero_function(T2, WINDOW, 41, "sparse", i)
            for q in (1, 2):
                r = bmo_norm(T2, f, q)
                assert oscillation(T2, f, r.witness, q).eq_value(r.value)

    def test_matches_oracle(self):
        for i in range(10):
            f = nonzero_function(T2, WINDOW, 43, "sparse", i)
            for q in (1, 2):
                assert bmo_norm(T2, f, q).value.eq_value(bf.bmo_norm_oracle(T2, f, q))

    def test_sandwich(self):
        for i in range(15):
            f = nonzero_function(T2, WINDOW, 47, "sparse", i)
            assert bmo_norm(T2, f, 1).value <= bmo_norm(T2, f, 2).value

    def test_homogeneity(self):
        for i in range(8):
            f = nonzero_function(T2, WINDOW, 53, "rademacher", i)
            base = bmo_norm(T2, f, 1).value.as_fraction()
            lam = Fraction(-7, 3)
            assert bmo_norm(T2, f.scaled(lam), 1).value.as_fraction() == abs(lam) * base

    def test_shift_invariance_on_enumerated_family(self):
        f = FinFunc({U: Fraction(2), Vertex(1, (1,)): Fraction(-1, 2)})
        slab = Window(Vertex(3, ()), 9)
        shifted = f + FinFunc({v: Fraction(5) for v in slab.members(T2)})
        for s in cz_supersets(T2, f.support(), Fraction(24)):
            from treebmo.tree import depth_below

            _, hi = s.depth_range()
            db = depth_below(s.root, slab.root)
            if db is None or db + hi > slab.depth:
                continue
            assert oscillation(T2, f, s, 1).eq_value(oscillation(T2, shifted, s, 1))

    def test_equals_sup_of_sharp_field(self):
        for i in range(6):
            f = nonzero_function(T2, WINDOW, 59, "sparse", i)
            r = bmo_norm(T2, f, 1)
            lo, _ = r.witness.depth_range()
            inside = next(T2.descendants_at_depth(r.witness.root, lo))
            pts = set(WINDOW.members(T2)) | {inside}
            field = sharp_field(T2, f, 1, sorted(pts, key=lambda v: (v.anchor, v.word)))
            sup = max(x.value for x in field.values())
            assert sup.eq_value(r.value)


class TestPairing:
    def test_disjoint_supports(self):
        assert pairing(T2, CHI_U, FinFunc.indicator(Vertex(3, ()))) == 0

    def test_atom_example(self):
        assert pairing(T2, CHI_U, ATOM) == Fraction(1, 6)

    def test_symmetric(self):
        f = FinFunc({U: Fraction(2), O: Fraction(-1)})
        g = FinFunc({U: Fraction(1, 3), V: Fraction(5)})
        assert pairing(T2, f, g) == pairing(T2, g, f)


class TestAtomPairingBound:
    def test_worked_example(self):
        ok, slack = atom_pairing_bound_check(T2, CHI_U, ATOM, S1)
        assert ok and slack == Fraction(1, 9)

    def test_constant_f_gives_zero_both_sides(self):
        # a function constant on the atom's set pairs to zero with the atom
        const = FinFunc({v: Fraction(4) for v in members(T2, S1)})
        assert pairing(T2, const, ATOM) == 0

    def test_invalid_atom_rejected(self):
        with pytest.raises(ValueError):
            atom_pairing_bound_check(T2, CHI_U, ATOM.scaled(2), S1)

    def test_random_suite_always_holds(self):
        from treebmo.hardy import normalize_to_atom
        from treebmo.sets import smallest_enclosing_cz

        min_slack = None
        for i in range(25):
            g = nonzero_function(T2, WINDOW, 61, "atom-combo", i)
            holder = smallest_enclosing_cz(T2, g.support())
            atom, _ = normalize_to_atom(T2, g, holder)
            f = nonzero_function(T2, WINDOW, 67, "sparse", i)
            ok, slack = atom_pairing_bound_check(T2, f, atom.function, holder)
            assert ok and slack >= 0
            min_slack = slack if min_slack is None else min(min_slack, slack)
        assert min_slack is not None


class TestHormander:
    def window(self):
        return Window(Vertex(4, ()), 8)

    def family(self):
        return [CZSet(O, 1), CZSet(Vertex(1, ()), 1), CZSet(O, 1, degenerate=True)]

    def test_y_independent_kernel_gives_zero(self):
        win = self.window()
        xs = list(T2.descendants_at_depth(O, 2))
        entries = {}
        for s in self.family():
            for y in members(T2, s):
                for x in xs:
                    entries[(y, x)] = Fraction(1, 7)
        k = KernelWindow.from_mapping(entries, win)
        r = hormander_constant(T2, k, self.family())
        assert r.value == 0

    def test_diagonal_kernel_gives_zero(self):
        win = self.window()
        entries = {}
        for s in self.family():
            for y in members(T2, s):
                entries[(y, y)] = Fraction(1)
        k = KernelWindow.from_mapping(entries, win)
        r = hormander_constant(T2, k, self.family())
        # y, z in the set are inside the enlargement, so differences never
        # survive on the complement
        assert r.value == 0

    def test_ball_kernel_matches_inline_oracle(self):
        win = self.window()
        d_cut = 2
        support = win.members(T2)
        entries = {}
        family = self.family()
        ys = {y for s in family for y in members(T2, s)}
        for y in ys:
            for x in support:
                if distance(y, x) <= d_cut:
                    entries[(y, x)] = Fraction(1)
        k = KernelWindow.from_mapping(entries, win)
        got = hormander_constant(T2, k, family)

        def kv(y, x):
            return Fraction(1) if distance(y, x) <= d_cut else Fraction(0)

        best = Fraction(0)
        for s in family:
            enlarged = set(members(T2, enlargement(s)))
            mem = list(members(T2, s))
            for y in mem:
                for z in mem:
                    total = sum(
                        (
                            abs(kv(y, x) - kv(z, x)) * T2.weight(x)
                            for x in support
                            if x not in enlarged
                        ),
                        Fraction(0),
                    )
                    best = max(best, total)
        assert got.value == best
        assert got.value > 0

    @pytest.mark.parametrize(
        "window, n_rows",
        # sparse rows in a large family; dense rows, so that a row's member
        # often precedes every member without a row; a row on every member
        [
            (Window(Vertex(4, ()), 7), 12),
            (Window(Vertex(2, ()), 4), 20),
            (Window(Vertex(2, ()), 4), 31),
        ],
    )
    def test_tie_kernels_match_all_pairs_scan(self, window, n_rows):
        family = bf.cz_in_window(T2, window, 2)
        for seed in range(8):
            k = _tie_kernel(window, seed, n_rows)
            got = hormander_constant(T2, k, family)
            want = _all_pairs_scan(k, family)
            assert (got.value, got.witness_set, got.witness_pair) == want

    def test_fractional_kernels_match_all_pairs_scan(self):
        # values with denominators 3 and 7 at levels down to -6 (weights
        # 1/64), and rows on vertices no set of the family holds: the
        # window's root, a vertex above it and one below its bottom
        window = Window(Vertex(1, ()), 7)
        family = bf.cz_in_window(T2, window, 2, include_degenerate=False)
        pts = window.members(T2)
        outside = [window.root, Vertex(3, ()), Vertex(1, (1,) * 8)]
        assert not any(s.contains(y) for s in family for y in outside)
        for seed in range(6):
            rng = random.Random(f"{seed}:fractional-kernel")
            entries = {}
            for y in rng.sample(pts, 10) + outside:
                for x in rng.sample(pts, rng.randint(1, 4)):
                    entries[(y, x)] = Fraction(rng.choice((-5, -2, 1, 3, 4)), rng.choice((1, 3, 7, 21)))
            k = KernelWindow.from_mapping(entries, window)
            got = hormander_constant(T2, k, family)
            assert got.value.denominator > 1
            assert (got.value, got.witness_set, got.witness_pair) == _all_pairs_scan(k, family)

    @pytest.mark.parametrize("tree, window, family", REACH_FAMILIES)
    def test_reach_kernels_match_membership_scan(self, tree, window, family):
        for seed in range(10):
            k = _reach_kernel(tree, window, family, seed)
            got = hormander_constant(tree, k, family)
            assert got.value > 0
            assert (got.value, got.witness_set) == _membership_scan(tree, k, family)
            # the witness pair: two members whose restricted rows reach the value
            y, z = got.witness_pair
            assert got.witness_set.contains(y) and got.witness_set.contains(z)
            rows = _restricted_rows(tree, k, got.witness_set)
            assert _pair_total(rows.get(y, {}), rows.get(z, {})) == got.value

    def test_far_rows_change_nothing(self):
        # a row a billion levels down, outside the window and then inside a
        # window that deep: no set holds it, and settling that costs no walk
        # over the levels between it and a set
        family = bf.cz_in_window(T2, Window(Vertex(1, ()), 7), 2)
        far = Vertex(-(10**9), ())
        entries = {(U, O): Fraction(1), (Vertex(-1, ()), Vertex(1, (1,))): Fraction(-2, 3)}
        for window in (Window(Vertex(1, ()), 7), Window(Vertex(1, ()), 10**9 + 1)):
            k = KernelWindow.from_mapping(entries, window)
            with_far = KernelWindow.from_mapping({**entries, (far, O): Fraction(5)}, window)
            got, want = hormander_constant(T2, with_far, family), hormander_constant(T2, k, family)
            assert (got.value, got.witness_set, got.witness_pair) == (
                want.value,
                want.witness_set,
                want.witness_pair,
            )
            assert (want.value, want.witness_set, want.witness_pair) == _all_pairs_scan(k, family)

    def test_set_of_a_million_members_is_scanned(self):
        # the scan reads the kernel rows inside the set and one zero-row
        # member, never the member list, so no set size is refused
        s = CZSet(O, 5)
        assert member_count(T2, s) == 2**20 - 8
        y, x = Vertex(0, (1, 1, 1, 1)), Vertex(0, (1,))
        k = KernelWindow.from_mapping({(y, x): Fraction(1)}, Window(O, 21))
        got = hormander_constant(T2, k, [s])
        # x lies off the enlargement and weighs 1/2; the first member in
        # Vertex order carries the zero row
        assert (got.value, got.witness_set, got.witness_pair) == (
            Fraction(1, 2),
            s,
            (Vertex(-19, ()), y),
        )

    def test_pair_order_on_hand_made_ties(self):
        # a row on the first member only, so it pairs with the next member;
        # then rows on the second and third members whose pair ties with both
        # of their pairs with the first member: the first pair wins
        s = CZSet(O, 1)
        m = sorted(members(T2, s))
        win = Window(Vertex(1, ()), 4)
        x1, x2 = O, Vertex(1, (1,))  # outside s, both of weight 1
        cases = [
            ({(m[0], x1): 1}, (m[0], m[1]), 1),
            ({(m[1], x1): 1, (m[1], x2): 1, (m[2], x1): 1, (m[2], x2): -1}, (m[0], m[1]), 2),
        ]
        for entries, pair, value in cases:
            k = KernelWindow.from_mapping(entries, win)
            got = hormander_constant(T2, k, [s])
            assert (got.value, got.witness_pair) == (value, pair)
            assert (got.value, got.witness_set, got.witness_pair) == _all_pairs_scan(k, [s])

    def test_empty_family_gives_zero(self):
        k = KernelWindow.from_mapping({(U, Vertex(1, (1,))): Fraction(1)}, self.window())
        r = hormander_constant(T2, k, [])
        assert (r.value, r.witness_set, r.witness_pair, r.sets_checked) == (0, None, None, 0)

    def test_repeated_set_keeps_the_first_copy(self):
        k = KernelWindow.from_mapping({(U, Vertex(1, (1,))): Fraction(1)}, self.window())
        first, again = CZSet(O, 1), CZSet(O, 1)
        one = hormander_constant(T2, k, [first])
        two = hormander_constant(T2, k, [first, again])
        assert one.value == 1
        assert (two.value, two.witness_pair) == (one.value, one.witness_pair)
        assert two.witness_set is first and two.sets_checked == 2

    @pytest.mark.parametrize(
        "third, message",
        [
            # rooted above the window's root
            (CZSet(Vertex(1, ()), 1), "cz root=1: h=1 escapes the declared window"),
            # inside the window, but its enlargement reaches depth 20
            (CZSet(O, 5), "enlargement of cz root=0: h=5 escapes the declared window"),
        ],
    )
    def test_first_escaping_set_is_named(self, third, message):
        k = KernelWindow.from_mapping({(U, Vertex(0, (1, 1))): Fraction(1)}, Window(O, 19))
        with pytest.raises(DomainError) as err:
            hormander_constant(T2, k, [CZSet(O, 1), CZSet(U, 1), third])
        assert str(err.value) == message

    def test_escaping_kernel_rejected(self):
        win = Window(Vertex(1, ()), 2)
        entries = {(U, Vertex(9, ())): Fraction(1)}
        k = KernelWindow.from_mapping(entries, win)
        with pytest.raises(DomainError):
            hormander_constant(T2, k, [CZSet(O, 1)])

    def test_escaping_family_rejected(self):
        win = Window(Vertex(1, ()), 2)
        entries = {(U, U): Fraction(1)}
        k = KernelWindow.from_mapping(entries, win)
        with pytest.raises(DomainError):
            hormander_constant(T2, k, [CZSet(Vertex(1, ()), 2)])

    def test_escaping_enlargement_rejected(self):
        # CZSet(O, 5) spans depths 3..19 of the window; its enlargement
        # reaches depth 20, one level past the window's bottom
        s = CZSet(O, 5)
        win = Window(O, 19)
        assert band_within(s, win) and not band_within(enlargement(s), win)
        k = KernelWindow.from_mapping({(U, U): Fraction(1)}, win)
        with pytest.raises(DomainError, match="enlargement"):
            hormander_constant(T2, k, [s])

