"""Byte-level pins of the certified candidate streams and the decompositions.

Each case serialises seeded calls with `jsonio` and compares the sha256 of
the text with a digest recorded from a known-good implementation.  A change
to any value, witness, certificate field (`sets_evaluated` included), the
level-set contents, the order in which `cz_supersets` yields its sets, the
trapezoids a good/bad split selects, a Hörmander constant's witness set
and pair, or the optimal vertex the simplex returns for an `h1_lp_gauge`
LP (its value and pieces), or a duality lower bound's value, witness or
skip count changes a digest.  `hormander_reach` pins Hörmander constants
over sets tall enough (h >= 5) that the enlargement is larger than the set.  Refactors of the streams, of
the set geometry and of the LP's layout must keep every digest.  The
`approximate_mode` case pins the float outputs of exponents outside
{1, 2, inf} bit for bit; `suite_reports` pins the property-suite reports at
full size and `suite_violations` their counterexample JSON.
"""

import dataclasses
import hashlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from treebmo import bmo, bruteforce, hardy, jsonio, maximal, sets, simplex, suites
from treebmo.bmo import KernelWindow, bmo_norm, hormander_constant
from treebmo.bruteforce import cz_in_window
from treebmo.funcs import FinFunc, NormValue, lp_norm, oscillation
from treebmo.hardy import (
    _ceil_log2,
    good_bad_split,
    h1_duality_lower,
    h1_lp_gauge,
    telescoping_h1_upper,
)
from treebmo.maximal import (
    centered_sharp_maximal,
    hl_maximal,
    maximal_level_set,
    sharp_field,
    sharp_maximal,
)
from treebmo.randgen import KINDS, RunConfig, nonzero_function
from treebmo.sets import CZSet, cz_supersets, smallest_enclosing_cz
from treebmo.suites import SUITES, _merge, run_suite
from treebmo.tree import ORIGIN, Tree, Vertex, Window, distance, father, format_vertex

# (tree, window, cz_supersets cap)
SETTINGS = (
    (Tree(2), Window(Vertex(2, ()), 4), Fraction(24)),
    (Tree(3), Window(Vertex(1, ()), 3), Fraction(40)),
)
SEEDS = range(6)
# good/bad splits: the Criterion-10 shapes, q in {2, 3}, one and two scales
# below the top, on the SETTINGS windows
SPLIT_KINDS = ("rademacher", "atom-combo")
SPLIT_SEEDS = range(3)
# telescoping decompositions of atom-combo functions: (tree, window, exponents)
TELESCOPING = (
    (Tree(2), Window(Vertex(2, ()), 1), (2, 3)),
    (Tree(2), Window(Vertex(2, ()), 2), (2,)),
    (Tree(3), Window(Vertex(1, ()), 1), (2, 3)),
)
# sharp fields of functions drawn on the SETTINGS windows, over these windows
FIELD_WINDOWS = (Window(Vertex(3, ()), 3), Window(Vertex(2, ()), 2))
FIELD_SEEDS = range(2)
# Hörmander constants: (tree, kernel window, h_max) of the family of every CZ
# set rooted in the window with its members inside it
HORMANDER = (
    (Tree(2), Window(Vertex(4, ()), 7), 2),
    (Tree(3), Window(Vertex(2, ()), 4), 1),
)
HORMANDER_SEEDS = range(8)
KERNEL_ROWS = 12
# Hörmander constants over sets of height 5, 6 and 9, whose enlargements
# reach (h - 1) // 4 = 1, 1 and 2 levels past the set on either side:
# (tree, kernel window, family), roots on and off the geodesic
HORMANDER_REACH = (
    (
        Tree(2),
        Window(Vertex(2, ()), 40),
        (CZSet(Vertex(0, ()), 5), CZSet(Vertex(0, (1,)), 6), CZSet(Vertex(1, ()), 9),
         CZSet(Vertex(2, (1,)), 9)),
    ),
    (
        Tree(3),
        Window(Vertex(2, ()), 40),
        (CZSet(Vertex(0, ()), 5), CZSet(Vertex(1, (2,)), 6), CZSet(Vertex(2, (1,)), 9),
         CZSet(Vertex(1, ()), 6)),
    ),
)
REACH_ROWS = 16
# LP gauges: zero-integral atom-combo functions on H1_GAUGE_WINDOW over the
# two-set family h1-gauge builds, the smallest enclosing CZ set and the set
# of the same height at its father; seeds whose LPs take 0.5-0.7 s each
H1_GAUGE_WINDOW = Window(Vertex(2, ()), 2)
H1_GAUGE_SEEDS = (3, 11, 15, 20)
# duality lower bounds: zero-integral atom-combo functions on the SETTINGS
# windows, each against this many sparse candidates drawn on the same window
DUALITY_CANDIDATES = 3
# approximate mode: suite reports per (m, q), and exponents outside {1, 2, inf}
SUITE_EXPONENTS = (Fraction(1), Fraction(3, 2), Fraction(2))
APPROX_EXPONENTS = (Fraction(3, 2), Fraction(5, 2), Fraction(3))
# exact suite reports at full size: (m, suites); the m = 3 decompose suite
# takes about 0.03 s per seed, as its gauges are one-set closed forms, but
# adding it would change the recorded bytes, and approximate_mode already
# pins it at size 3
SUITE_REPORT_RUNS = ((2, SUITES), (3, tuple(s for s in SUITES if s != "decompose")))
SUITE_REPORT_SEEDS = (0, 1)
SUITE_REPORT_SIZE = 25
# counterexample reports: every frozen bound is set below what this
# configuration observes, and the names the suites look up are replaced by
# wrong answers, so that every violation a patch can reach is serialised
VIOLATION_CONFIG = RunConfig(m=2, seed=0, size=4)


def _tie_kernel(tree, window, seed):
    """Seeded rows at KERNEL_ROWS vertices (the other members have none):
    a sparse random row, a copy of the previous row, or a row on y and its
    children, which lies inside the enlargement of every set holding them."""
    rng = random.Random(f"{seed}:tie-kernel")
    entries = {}
    row = {}
    for k, y in enumerate(rng.sample(window.members(tree), KERNEL_ROWS)):
        shape = rng.choice(("sparse", "copy", "local"))
        if shape == "sparse" or not row:
            row = dict(nonzero_function(tree, window, seed, "sparse", k).items())
        elif shape == "local":
            xs = [x for x in (y, *tree.children(y)) if window.contains(x)]
            row = {x: Fraction(rng.randint(1, 3)) for x in xs}
        for x, val in row.items():
            entries[(y, x)] = val
    return KernelWindow.from_mapping(entries, window)


def _reach_kernel(tree, window, family, seed):
    """Seeded rows, most on members of the family's sets.  A row's entries
    lie in a set, in the ring its enlargement adds above or below it, or
    anywhere in the window; some rows copy the previous one, so that pairs
    whose rows differ only inside an enlargement tie."""
    rng = random.Random(f"{seed}:reach-kernel")

    def below(root, depth):
        word = root.word + tuple(rng.randrange(tree.m) for _ in range(depth))
        return tree.canonicalize(root.anchor, word)

    entries = {}
    row = {}
    for _ in range(REACH_ROWS):
        s = rng.choice(family)
        lo, hi = s.depth_range()
        r = (s.h - 1) // 4
        if rng.random() < 0.8:
            y = below(s.root, rng.randint(lo, hi))
        else:
            y = below(window.root, rng.randint(0, window.depth))
        if not row or rng.random() < 0.6:
            bands = (
                (s.root, lo, hi),
                (s.root, lo - r, lo - 1),
                (s.root, hi + 1, hi + r),
                (window.root, 0, window.depth),
            )
            row = {}
            for _ in range(rng.randint(1, 4)):
                root, a, b = rng.choice(bands)
                val = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
                row[below(root, rng.randint(a, b))] = val
        for x, val in row.items():
            entries[(y, x)] = val
    return KernelWindow.from_mapping(entries, window)


def _inputs():
    for tree, window, cap in SETTINGS:
        pts = window.members(tree)
        for kind in KINDS:
            for seed in SEEDS:
                f = nonzero_function(tree, window, seed, kind)
                probes = [pts[0], pts[len(pts) // 2], pts[-1], f.support()[-1]]
                yield tree, f, probes, cap


def _suite_reports(m):
    """`run_suite(config, "all")` JSON for each SUITE_EXPONENTS q.  The
    decompose suite does not read q (its splits use q = 2 and its LP is
    exact), so it runs once per m and is merged into every report."""
    decompose = run_suite(RunConfig(m=m, size=3), "decompose")
    for q in SUITE_EXPONENTS:
        config = RunConfig(m=m, q=q, size=3)
        reports = [decompose if s == "decompose" else run_suite(config, s) for s in SUITES]
        yield _merge(reports, config).to_json()


def _violation_patches(mp):
    bump = FinFunc.indicator(Vertex(0, (1,))).scaled(2)
    real_bmo_norm = bmo.bmo_norm
    real_closed = Tree.ball_measure_closed

    def fake_bmo_norm(tree, f, q):
        # not homogeneous, BMO_2 below BMO_1, and the worked witness moves
        return real_bmo_norm(tree, f + bump if q == 1 else f.scaled(Fraction(1, 10)), q)

    def fake_field(tree, f, q, where):
        # the field at the first point only
        return dict(list(maximal.sharp_field(tree, f, q, where).items())[:1])

    def fake_split(tree, g, q, j):
        split = hardy.good_bad_split(tree, g, q, j)
        return dataclasses.replace(split, good=split.good + bump)

    # envelope-ratio is the one check left unpatched: the code these digests
    # were recorded from computed its ratios from a closed formula
    for name, value in (
        ("FROZEN_ENLARGEMENT_RATIO", Fraction(0)),
        ("FROZEN_BMO_REVERSE_RATIO", 0.0),
        ("FROZEN_LP_SHARP_RATIO", {(2, "2", "3/2"): 0.0}),
        ("FROZEN_MAXMIN_SHARP_C", 0.0),
        ("FROZEN_SPLIT_C_GOOD", Fraction(0)),
        ("FROZEN_SPLIT_C_BAD_QPOW", Fraction(0)),
        (
            "admissible_measure",
            lambda tree, r: sets.admissible_measure(tree, r) + (r.root != ORIGIN),
        ),
        ("distance", lambda y, z: 100 if y == z == Vertex(-1, ()) else distance(y, z)),
        ("enlargement", lambda s: sets.CZSet(s.root, s.h + 1)),
        ("covering_index", lambda x: 0),
        (
            "centered_sharp_maximal",
            lambda tree, f, q, x: maximal.sharp_maximal(tree, f.scaled(3), q, x),
        ),
        ("norm_le_sum", lambda value, terms: False),
        ("sharp_field", fake_field),
        ("oscillation", lambda tree, f, s, q: NormValue.exact1(len(f))),
        ("good_bad_split", fake_split),
        ("h1_lp_gauge", lambda tree, g, family: SimpleNamespace(value=Fraction(-1))),
    ):
        mp.setattr(suites, name, value)
    # the BMO norm and the pairing are looked up in both modules, so the
    # atom-pairing check sees the same wrong answers wherever it runs
    for module in (suites, bmo):
        mp.setattr(module, "bmo_norm", fake_bmo_norm, raising=False)
        mp.setattr(module, "pairing", lambda tree, f, g: Fraction(10**6), raising=False)
    mp.setattr(Tree, "ball_measure_closed", lambda self, v, r: real_closed(self, v, r) + (r == 3))
    mp.setattr(bruteforce, "cz_meeting_support", lambda tree, supp, cap: [])


def _maximal_map(tree, fn, probes):
    return {format_vertex(x): jsonio.maximal_json(tree, fn(x)) for x in probes}


def _gauge_family(tree, g):
    holder = smallest_enclosing_cz(tree, g.support())
    return [holder, CZSet(father(holder.root), holder.h)]


def _payload(name: str) -> list:
    out = []
    if name == "h1_lp_gauge":
        tree = Tree(2)
        for seed in H1_GAUGE_SEEDS:
            g = nonzero_function(tree, H1_GAUGE_WINDOW, seed, "atom-combo")
            out.append(jsonio.report_json(tree, h1_lp_gauge(tree, g, _gauge_family(tree, g))))
        return out
    if name == "h1_duality_lower":
        for tree, window, _ in SETTINGS:
            for seed in SEEDS:
                g = nonzero_function(tree, window, seed, "atom-combo")
                cands = [
                    nonzero_function(tree, window, seed, "sparse", k)
                    for k in range(DUALITY_CANDIDATES)
                ]
                # a zero candidate, and one that meets g but pairs with it to
                # the integral of g, which is 0
                cands += [FinFunc(), FinFunc.indicator(*g.support())]
                out.append(jsonio.report_json(tree, h1_duality_lower(tree, g, cands)))
        return out
    if name == "good_bad_split":
        for tree, window, _ in SETTINGS:
            for kind in SPLIT_KINDS:
                for seed in SPLIT_SEEDS:
                    g = nonzero_function(tree, window, seed, kind)
                    top = _ceil_log2(g.max_abs())
                    for q in (2, 3):
                        for below in (1, 2):
                            split = good_bad_split(tree, g, q, top - below)
                            out.append(jsonio.split_json(tree, split))
        return out
    if name == "telescoping_h1_upper":
        for tree, window, exponents in TELESCOPING:
            for seed in SEEDS:
                g = nonzero_function(tree, window, seed, "atom-combo")
                for q in exponents:
                    res = telescoping_h1_upper(tree, g, q)
                    out.append(jsonio.telescoping_json(tree, res))
        return out
    if name == "hormander_constant":
        for tree, window, h_max in HORMANDER:
            family = cz_in_window(tree, window, h_max)
            diagonal = KernelWindow.from_mapping(
                {(y, y): Fraction(1) for y in window.members(tree)}, window
            )
            kernels = [_tie_kernel(tree, window, seed) for seed in HORMANDER_SEEDS]
            for k in [diagonal, *kernels]:
                out.append(jsonio.hormander_json(tree, hormander_constant(tree, k, family)))
        return out
    if name == "hormander_reach":
        for tree, window, family in HORMANDER_REACH:
            for seed in HORMANDER_SEEDS:
                k = _reach_kernel(tree, window, family, seed)
                out.append(jsonio.hormander_json(tree, hormander_constant(tree, k, family)))
        return out
    if name == "sharp_field":
        for (tree, window, _), field in zip(SETTINGS, FIELD_WINDOWS):
            for kind in KINDS:
                for seed in FIELD_SEEDS:
                    f = nonzero_function(tree, window, seed, kind)
                    for q in (1, 2):
                        res = sharp_field(tree, f, q, field)
                        out.append(
                            {format_vertex(x): jsonio.maximal_json(tree, r) for x, r in res.items()}
                        )
        return out
    if name == "suite_reports":
        for m, names in SUITE_REPORT_RUNS:
            for seed in SUITE_REPORT_SEEDS:
                config = RunConfig(m=m, seed=seed, size=SUITE_REPORT_SIZE)
                out.append(_merge([run_suite(config, s) for s in names], config).to_json())
        return out
    if name == "suite_violations":
        with pytest.MonkeyPatch.context() as mp:
            _violation_patches(mp)
            out.append(run_suite(VIOLATION_CONFIG, "all").to_json())
        return out
    if name == "approximate_mode":
        for m in (2, 3):
            out.extend(_suite_reports(m))
        for tree, f, probes, cap in _inputs():
            sets = cz_supersets(tree, f.support(), cap)
            for q in APPROX_EXPONENTS:
                out.append(
                    {
                        "lp_norm": jsonio.norm_json(lp_norm(tree, f, q)),
                        "oscillation": [
                            jsonio.norm_json(oscillation(tree, f, s, q)) for s in sets
                        ],
                        "centered": _maximal_map(
                            tree, lambda x: centered_sharp_maximal(tree, f, q, x), probes
                        ),
                    }
                )
        for (tree, window, _), field in zip(SETTINGS, FIELD_WINDOWS):
            for kind in KINDS:
                f = nonzero_function(tree, window, 0, kind)
                res = sharp_field(tree, f, Fraction(3, 2), field)
                out.append({format_vertex(x): jsonio.maximal_json(tree, r) for x, r in res.items()})
        return out
    for tree, f, probes, cap in _inputs():
        phi = abs(f)
        if name == "bmo_norm":
            out.append(
                [jsonio.bmo_report_json(tree, bmo_norm(tree, f, q)) for q in (1, 2)]
            )
        elif name == "sharp_maximal":
            out.append(
                _maximal_map(tree, lambda x: sharp_maximal(tree, f, 1, x), probes)
            )
        elif name == "centered_sharp_maximal":
            out.append(
                [
                    _maximal_map(
                        tree, lambda x: centered_sharp_maximal(tree, f, q, x), probes
                    )
                    for q in (1, 2)
                ]
            )
        elif name == "hl_maximal":
            out.append(_maximal_map(tree, lambda x: hl_maximal(tree, phi, x), probes))
        elif name == "maximal_level_set":
            for lam in (phi.max_abs() / 2, phi.max_abs() / 5):
                omega, cert = maximal_level_set(tree, phi, lam)
                out.append(
                    {
                        "omega": sorted(format_vertex(v) for v in omega),
                        "certificate": jsonio.report_json(tree, cert),
                    }
                )
        elif name == "cz_supersets":
            out.append(
                [jsonio.set_json(tree, s) for s in cz_supersets(tree, f.support(), cap)]
            )
    return out


DIGESTS = {
    "approximate_mode": (
        "5e4de4e83d5fe5a732c0ec3f4e5d6dec"
        "701da3fc9b0228caae6b86f115c97720"
    ),
    "bmo_norm": (
        "3adc4b8fcb68cff11656a3443e18bdfd"
        "c68255b910017a893e96c57fafd85aaa"
    ),
    "sharp_maximal": (
        "d9c57d10ee7a87cec8a9a43ae7a8fdb8"
        "fb1d6d8b45146240ea7e65f18509cc7b"
    ),
    "centered_sharp_maximal": (
        "0bbf5da825f134fb3aa230b21c43530e"
        "7e0bf774b2ac874d5d5496398d24a235"
    ),
    "hl_maximal": (
        "20fb0d70d0af6c712221f26b90a829b6"
        "8379cc921addfbd259ae675c4745b596"
    ),
    "maximal_level_set": (
        "7d9ae06632f20cd997d6308b08ca1d68"
        "c2155d5878d8ed6789bf3021d2242a6c"
    ),
    "cz_supersets": (
        "1f3ce41b39144f4fd9e6a9eb1c8f129e"
        "5ee4ce1fcc87a7d46121701d67368ec6"
    ),
    "good_bad_split": (
        "bc3a9baf3797772fad70d5f9f92934eb"
        "557b0123c547877fed4f03b704297258"
    ),
    "h1_duality_lower": (
        "f501501cd029a7a622f6c9669b37ed81"
        "449352d71ad8f51c0c45e03a1f5e43b9"
    ),
    "h1_lp_gauge": (
        "cf11a6086d662460018913182f3b43d6"
        "647e2f044aadac3a2407be45ab6a9cc2"
    ),
    "hormander_constant": (
        "e434faf97aae443b0583d284bc068f5c"
        "4404ddbb39107b859d9f359d9dc98ca4"
    ),
    "hormander_reach": (
        "92ce5146bba9c8301b14ffda45fe2581"
        "760a9d28b97457691532f466387a3696"
    ),
    "sharp_field": (
        "7482c0503175f52e68bf09f5aa9935da"
        "3a2a904151edb39608d43b2ef95eb74d"
    ),
    "suite_reports": (
        "36120352229ce3f9139b994d8b6867ff"
        "744d5889212ca29913bd49a9794e7046"
    ),
    "suite_violations": (
        "cfe930e28d9dce230cc2ecaa3d9a5746"
        "975ba02cc478247a4d461b5ef0ab14d3"
    ),
    "telescoping_h1_upper": (
        "29b5b1b3ca9de021f7fa47cad3972230"
        "bbf60ce8750a9872b87d00afc44f9f6c"
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_stream_digest(name):
    text = jsonio.dumps(_payload(name))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


def test_gauge_lp_shape(monkeypatch):
    """The LP of the first h1_lp_gauge case has the layout `_gauge_lp`
    states: a row per universe vertex, per set and per (set, member) pair,
    and p, n and slack columns per pair plus a t column per set."""
    tree = Tree(2)
    g = nonzero_function(tree, H1_GAUGE_WINDOW, H1_GAUGE_SEEDS[0], "atom-combo")
    family = _gauge_family(tree, g)
    captured = []
    solve_lp = hardy.solve_lp

    def capture(rows, rhs, cost):
        captured.append((rows, rhs, cost))
        return solve_lp(rows, rhs, cost)

    monkeypatch.setattr(hardy, "solve_lp", capture)
    h1_lp_gauge(tree, g, family)
    (rows, rhs, cost), = captured
    n = sum(sets.member_count(tree, s) for s in family)
    universe = {v for s in family for v in sets.members(tree, s)}
    assert len(rows) == len(rhs) == len(universe) + len(family) + n
    assert {len(row) for row in rows} == {len(cost)} == {3 * n + len(family)}
    assert cost == [0] * (3 * n) + [1] * len(family)


@pytest.mark.parametrize(
    "bland_after, seeds, pivots",
    [
        (2000, H1_GAUGE_SEEDS, (96, 115, 114, 121)),
        (0, H1_GAUGE_SEEDS[:2], (201, 182)),
    ],
    ids=["dantzig", "bland"],
)
def test_gauge_pivot_path(monkeypatch, bland_after, seeds, pivots):
    """The `h1_lp_gauge` golden LPs take a pinned number of pivots, under
    Dantzig pricing and, with the switch at once, under Bland's rule.  A
    change to the pricing, the ratio test or its tie-breaks moves a count
    even where the optimum and its digest stay the same."""
    values = dict(zip(H1_GAUGE_SEEDS, (192, 48, 42, 96)))
    pivot = simplex._pivot
    count = [0]

    def counting(*args):
        count[0] += 1
        return pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", counting)
    monkeypatch.setattr(simplex, "BLAND_AFTER", bland_after)
    tree = Tree(2)
    seen = []
    for seed in seeds:
        count[0] = 0
        g = nonzero_function(tree, H1_GAUGE_WINDOW, seed, "atom-combo")
        assert h1_lp_gauge(tree, g, _gauge_family(tree, g)).value == values[seed]
        seen.append(count[0])
    assert tuple(seen) == pivots
