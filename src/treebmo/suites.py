"""Property suites: each suite replays a family of inequalities on seeded
data, records the empirical constants (the theory asserts existence only),
and serializes a counterexample for any violation instead of crashing.

Each suite keeps its checks' names and statements in a table of `Check` rows
next to its frozen bounds, passes every case to `ConstantsReport.check`, and
reports each check's count and constants with `ConstantsReport.record`.

Reports are deterministic functions of the configuration: identical
(config, seed) pairs produce byte-identical JSON.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import bruteforce as bf
from .bmo import atom_pairing_bound_check, bmo_norm
from .funcs import FinFunc, NormValue, lp_norm, norm_le_sum, oscillation
from .hardy import (
    _ceil_log2,
    good_bad_split,
    h1_duality_lower,
    h1_lp_gauge,
    normalize_to_atom,
)
from .jsonio import report_json
from .maximal import centered_sharp_maximal, sharp_field, sharp_maximal
from .randgen import RunConfig, nonzero_function
from .sets import (
    AdmissibleTrapezoid,
    CZSet,
    EnumerationError,
    admissible_measure,
    band_within,
    covering_family,
    covering_index,
    cz_supersets,
    enlargement,
    enlargement_measure,
    envelope,
    members,
    set_measure,
    smallest_enclosing_cz,
)
from .tree import Tree, Vertex, Window, distance


class Check(NamedTuple):
    """A table row: what a failing case violates, what the record counting the
    cases states (None: no record), and the name to report if not the row's own."""

    violated: str
    recorded: str | None = None
    name: str | None = None


class Violation(NamedTuple):
    name: str
    statement: str
    counterexample: dict


class Record(NamedTuple):
    name: str
    statement: str
    count: int
    data: dict


@dataclass
class ConstantsReport:
    suite: str
    m: int
    seed: int
    size: int
    records: list[Record] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    counts: Counter[str] = field(default_factory=Counter, init=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, key: str, holds: bool, *, cases: int = 1, **counterexample) -> None:
        """Count `cases` cases of the table row `key`; if they fail, the row's
        statement becomes a violation, its counterexample serialized only then."""
        self.counts[key] += cases
        if not holds:
            row = _CHECKS[key]
            cex = report_json(Tree(self.m), counterexample)
            self.violations.append(Violation(row.name or key, row.violated, cex))

    def record(self, key: str, **data) -> None:
        """Report how many cases of the row `key` ran, with `data`."""
        row = _CHECKS[key]
        data = report_json(Tree(self.m), data)
        self.records.append(Record(key, row.recorded, self.counts[key], data))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "m": self.m,
            "seed": self.seed,
            "size": self.size,
            "ok": self.ok,
            "records": [
                {"name": r.name, "statement": r.statement, "count": r.count, **r.data}
                for r in self.records
            ],
            "violations": [v._asdict() for v in self.violations],
        }


def _merge(reports: list[ConstantsReport], config: RunConfig) -> ConstantsReport:
    records = [r for rep in reports for r in rep.records]
    violations = [v for rep in reports for v in rep.violations]
    return ConstantsReport("all", config.m, config.seed, config.size, records, violations)


def run_suite(config: RunConfig, suite: str) -> ConstantsReport:
    if suite == "all":
        return _merge([run_suite(config, s) for s in SUITES], config)
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    return _SUITES[suite](config)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

# Frozen regression bounds sit above the table of the suite that checks them,
# each confirmed against the brute-force oracles before being pinned.  A run
# that crosses one is a reportable counterexample, not a tolerance issue.
FROZEN_ENLARGEMENT_RATIO = Fraction(2)
GEOMETRY = {
    "trapezoid-measure": Check("enumerated trapezoid mass equals h * m**level(root)",
                               "mu(R) = h(R) * w(R) exactly on enumerated trapezoids"),
    "ball-measure": Check("enumerated ball mass equals the closed form for r >= 1",
                          "mu(B(x,r)) = m**level(x) (m**(r+1)+m**r-2)/(m-1) for r >= 1"),
    "envelope-ratio": Check("mu(envelope) <= 4 mu(R), maximum 7/2 over h <= 64",
                            "mu(envelope)/mu(R) <= 4; exact max over h <= 64"),
    "envelope-in-ball": Check("every envelope fits in the 8h-ball of any member",
                              "envelope subset of B(z, 8h) for every member z (exhaustive pairs)"),
    "enlargement-oracle": Check("depth-band enlargement equals the BFS distance scan"),
    "enlargement-ratio": Check("mu(enlargement) <= 2 mu(CZ set) for h <= 8",
                               "mu(enlargement)/mu(CZ set), h <= 8, oracle-confirmed band"),
    "covering": Check("the covering family is nested and reaches every vertex",
                      "nested covering sets (n <= 20) and verified membership indices"),
    "superset-stream": Check(
        "the superset stream finds every support-meeting CZ set under the cap",
        "stream completeness against definition-level enumeration"),
}


def suite_geometry(config: RunConfig) -> ConstantsReport:
    tree = config.tree()
    rep = ConstantsReport("geometry", config.m, config.seed, config.size)
    window = Window(Vertex(2, ()), min(3, config.window.depth))

    for r in [AdmissibleTrapezoid(root, h) for root in window.members(tree) for h in range(1, 5)]:
        enum = sum((tree.weight(v) for v in members(tree, r)), Fraction(0))
        rep.check("trapezoid-measure", enum == admissible_measure(tree, r), set=r, enumerated=enum)
    rep.record("trapezoid-measure")

    for center in [Vertex(0, ()), tree.vertex(0, (1,)), Vertex(2, ())]:
        for r in range(1, 6):
            holds = tree.ball_measure_enumerated(center, r) == tree.ball_measure_closed(center, r)
            rep.check("ball-measure", holds, center=center, radius=r)
    rep.record("ball-measure")

    # the library's envelope against the trapezoid it is built from
    trapezoids = [AdmissibleTrapezoid(Vertex(0, ()), h) for h in range(1, 65)]
    ratios = [set_measure(tree, envelope(r)) / admissible_measure(tree, r) for r in trapezoids]
    holds = all(r <= 4 for r in ratios) and max(ratios) == Fraction(7, 2)
    rep.check("envelope-ratio", holds, cases=len(ratios), max_ratio=max(ratios))
    rep.record("envelope-ratio", max_ratio=max(ratios))

    for h in (1, 2) if config.m == 2 else (1,):
        s = envelope(AdmissibleTrapezoid(Vertex(0, ()), h))
        mem = list(members(tree, s))
        for z in mem:
            for y in mem:
                rep.check("envelope-in-ball", distance(y, z) <= 8 * h, set=s, y=y, z=z)
    rep.record("envelope-in-ball")

    cz_sets = [CZSet(Vertex(0, ()), h) for h in range(1, 9)]
    worst = max(enlargement_measure(tree, s) / set_measure(tree, s) for s in cz_sets)
    for s in cz_sets[: 3 if config.m == 2 else 2]:  # the heights the BFS oracle can afford
        closed = set(members(tree, enlargement(s)))
        rep.check("enlargement-oracle", closed == bf.enlargement_by_bfs(tree, s), set=s)
    holds = worst <= FROZEN_ENLARGEMENT_RATIO
    rep.check("enlargement-ratio", holds, cases=len(cz_sets), max_ratio=worst)
    rep.record("enlargement-ratio", max_ratio=worst)

    bad_nest = [
        n for n in range(21) if not band_within(covering_family(n), covering_family(n + 1))
    ]
    window6 = Window(Vertex(2, ()), min(4, config.window.depth))
    idx_fail = [
        str(x) for x in window6.members(tree) if not covering_family(covering_index(x)).contains(x)
    ]
    holds = not (bad_nest or idx_fail)
    cases = 21 + len(window6.members(tree))
    rep.check("covering", holds, cases=cases, nesting_failures=bad_nest, index_failures=idx_fail)
    rep.record("covering")

    rng = random.Random(f"{config.seed}:geometry:supersets")
    verts = config.window.members(tree)
    supp = rng.sample(verts, min(3, len(verts)))
    cap = Fraction(64) * max(tree.weight(v) for v in supp)
    streamed = {
        (s.root, s.h, s.degenerate) for s in cz_supersets(tree, supp, cap)
    }
    brute = {
        (s.root, s.h, s.degenerate)
        for s in bf.cz_meeting_support(tree, supp, cap)
    }
    missing = [str(CZSet(*k)) for k in sorted(brute - streamed)]
    extra = [str(CZSet(*k)) for k in sorted(streamed - brute)]
    rep.check("superset-stream", streamed == brute, cases=len(brute), missing=missing, extra=extra)
    rep.record("superset-stream", cap=cap)
    return rep


# ---------------------------------------------------------------------------
# sharp maximal properties
# ---------------------------------------------------------------------------

FROZEN_MAXMIN_SHARP_C = 2.0  # [max(f,g)] sharp vs |f| sharp + |g| sharp
SHARP = {
    "centered": Check("half sharp <= centered sharp <= sharp",
                      "best-constant oscillations bracket the sharp function"),
    "abs": Check("sharp of |f| <= 2 sharp of f", "sharp of |f| at most twice sharp of f"),
    "subadd": Check("sharp is subadditive", "sharp maximal function is subadditive"),
    "maxmin": Check("sharp of max/min <= (sharp f + sharp g)/2 + sharp(f-g)",
                    "lattice bound for sharp of max/min"),
    "supfield": Check("sup of the sharp field equals the BMO norm on a witness-meeting window",
                      "sup sharp field = BMO norm (q=1)"),
    "maxmin-empirical-constant": Check(
        "empirical lattice constant exceeded its frozen regression bound",
        "observed [max(f,g)] sharp / (sharp |f| + sharp |g|), regression bound"),
}


def suite_sharp(config: RunConfig) -> ConstantsReport:
    tree = config.tree()
    rep = ConstantsReport("sharp", config.m, config.seed, config.size)
    window = config.window
    q = Fraction(config.q)
    half, one = Fraction(1, 2), Fraction(1)
    worst = 0.0

    for i in range(config.size):
        rng = random.Random(f"{config.seed}:sharp:{i}")
        f = nonzero_function(tree, window, config.seed, "sparse", 2 * i)
        g = nonzero_function(tree, window, config.seed, "rademacher", 2 * i + 1)
        points = rng.sample(window.members(tree), 2) + [f.support()[0]]
        for x in points:
            sf = sharp_maximal(tree, f, q, x).value
            cf = centered_sharp_maximal(tree, f, q, x).value
            s_abs = sharp_maximal(tree, abs(f), q, x).value
            sg = sharp_maximal(tree, g, q, x).value
            s_sum = sharp_maximal(tree, f + g, q, x).value
            s_max = sharp_maximal(tree, f.pointwise_max(g), q, x).value
            s_min = sharp_maximal(tree, f.pointwise_min(g), q, x).value
            lattice = [(half, sf), (half, sg), (one, sharp_maximal(tree, f - g, q, x).value)]
            maxmin = norm_le_sum(s_max, lattice) and norm_le_sum(s_min, lattice)
            # each counterexample names the function whose sharp value broke the bound
            rep.check("centered", sf.scaled(half) <= cf <= sf, f=f, x=x, q=q)
            rep.check("abs", norm_le_sum(s_abs, [(Fraction(2), sf)]), f=f, x=x, q=q)
            rep.check("subadd", norm_le_sum(s_sum, [(one, sf), (one, sg)]), f=f + g, x=x, q=q)
            rep.check("maxmin", maxmin, f=f.pointwise_max(g), x=x, q=q)
            denom = s_abs.as_float() + sharp_maximal(tree, abs(g), q, x).value.as_float()
            if denom > 0:
                worst = max(worst, s_max.as_float() / denom)

    # sup of the sharp field equals the BMO norm once the window meets the witness
    for i in range(min(10, config.size)):
        f = nonzero_function(tree, window, config.seed, "sparse", 10_000 + i)
        norm = bmo_norm(tree, f, 1)
        lo, _ = norm.witness.depth_range()
        witness_point = next(tree.descendants_at_depth(norm.witness.root, lo))
        pts = set(window.members(tree)) | {witness_point}
        field_vals = sharp_field(tree, f, 1, sorted(pts))
        sup = max((r.value for r in field_vals.values()), default=NormValue.zero())
        holds = sup.eq_value(norm.value)
        rep.check("supfield", holds, f=f, field_sup=str(sup), bmo=str(norm.value))
    bound = FROZEN_MAXMIN_SHARP_C
    holds = worst <= bound
    rep.check("maxmin-empirical-constant", holds, cases=rep.counts["maxmin"], observed=worst)
    for key in ("centered", "abs", "subadd", "maxmin", "supfield"):
        rep.record(key)
    rep.record("maxmin-empirical-constant", max_ratio=worst, frozen_bound=bound)
    return rep


# ---------------------------------------------------------------------------
# bmo
# ---------------------------------------------------------------------------

FROZEN_BMO_REVERSE_RATIO = 3.0  # ||f||_BMO_2 / ||f||_BMO_1 observed well below this
BMO = {
    "bmo-sandwich": Check("BMO_1 norm <= BMO_2 norm",
                          "BMO_1 <= BMO_2 with recorded reverse ratio"),
    "bmo-reverse-ratio": Check("reverse BMO ratio exceeded its frozen regression bound",
                               name="bmo-sandwich"),
    "bmo-homogeneity": Check("BMO_1 norm is absolutely homogeneous", "norm scales exactly"),
    "bmo-shift": Check("oscillations ignore constants added on a covering slab",
                       "set-by-set shift invariance"),
    "atom-pairing": Check("|integral(f a)| <= BMO_1 norm of f for every atom",
                          "duality pairing bound over seeded (f, atom) pairs"),
    "worked-witness": Check(
        "BMO_1 of the level -1 child indicator is 5/18 on the height-1 set at the origin",
        "hand-computed witness reproduced"),
}


def suite_bmo(config: RunConfig) -> ConstantsReport:
    tree = config.tree()
    rep = ConstantsReport("bmo", config.m, config.seed, config.size)
    window = config.window
    lam = Fraction(3, 2)
    reverse_ratio = 0.0
    extremizer: FinFunc | list = []
    slab = Window(Vertex(window.root.anchor + 2, ()), window.depth + (6 if config.m == 2 else 3))
    for i in range(config.size):
        f = nonzero_function(tree, window, config.seed, "sparse", 20_000 + i)
        r1 = bmo_norm(tree, f, 1)
        r2 = bmo_norm(tree, f, 2)
        rep.check("bmo-sandwich", r1.value <= r2.value, f=f)
        ratio = 0.0 if r1.value.is_zero() else r2.value.as_float() / r1.value.as_float()
        if ratio > reverse_ratio:
            reverse_ratio, extremizer = ratio, f
        scaled = bmo_norm(tree, f.scaled(lam), 1).value.as_fraction()
        holds = scaled == lam * r1.value.as_fraction()
        rep.check("bmo-homogeneity", holds, f=f, **{"lambda": lam})
        # shift invariance set-by-set over a finite family inside a modest slab
        if i < 5:
            shifted = f + FinFunc({v: Fraction(2) for v in slab.members(tree)})
            cap = 4 * max(set_measure(tree, r1.witness), Fraction(1))
            for s in cz_supersets(tree, f.support(), cap):
                if band_within(s, slab):
                    same = oscillation(tree, f, s, 1).eq_value(oscillation(tree, shifted, s, 1))
                    rep.check("bmo-shift", same, f=f, set=s)
    bound = FROZEN_BMO_REVERSE_RATIO
    holds = reverse_ratio <= bound
    rep.check("bmo-reverse-ratio", holds, cases=0, observed=reverse_ratio, extremizer=extremizer)
    rep.record("bmo-sandwich", max_reverse_ratio=reverse_ratio, frozen_bound=bound)
    rep.record("bmo-homogeneity")
    rep.record("bmo-shift")

    # duality pairing against random atoms
    slacks = []
    for i in range(config.size):
        g = nonzero_function(tree, window, config.seed, "atom-combo", 30_000 + i)
        holder = smallest_enclosing_cz(tree, g.support())
        atom, _ = normalize_to_atom(tree, g, holder)
        f = nonzero_function(tree, window, config.seed, "sparse", 40_000 + i)
        ok, slack = atom_pairing_bound_check(tree, f, atom.function, holder)
        rep.check("atom-pairing", ok, f=f, atom=atom.function)
        slacks.append(slack)
    rep.record("atom-pairing", min_slack=min(slacks, default=Fraction(0)))

    # worked witness
    if config.m == 2:
        r = bmo_norm(tree, FinFunc.indicator(tree.vertex(0, (1,))), 1)
        holds = r.value.as_fraction() == Fraction(5, 18) and r.witness == CZSet(Vertex(0, ()), 1)
        rep.check("worked-witness", holds, value=str(r.value), witness=str(r.witness))
        rep.record("worked-witness")
    return rep


# ---------------------------------------------------------------------------
# good/bad decomposition
# ---------------------------------------------------------------------------

FROZEN_SPLIT_C_GOOD = Fraction(4)  # max |good part| / 2**j across seeds
FROZEN_SPLIT_C_BAD_QPOW = Fraction(4)  # max ||bad||_q^q / (2**(jq) mu(envelope))
DECOMPOSE = {
    "split-reconstruction": Check("good + bad pieces reconstruct the function with zero residual"),
    "good-bad-contract": Check("split size constants exceeded their frozen regression bounds",
                               "level-set cover, zero-integral pieces, reported size constants"),
    "h1-sandwich": Check("duality lower bound never exceeds the LP gauge",
                         "lower <= upper on zero-integral instances"),
}


def suite_decompose(config: RunConfig) -> ConstantsReport:
    tree = config.tree()
    rep = ConstantsReport("decompose", config.m, config.seed, config.size)
    window = config.window
    c_good_max = c_bad_max = Fraction(0)
    for i in range(config.size):
        rng = random.Random(f"{config.seed}:decompose:{i}")
        kind = "rademacher" if i % 2 else "atom-combo"
        g = nonzero_function(tree, window, config.seed, kind, 50_000 + i)
        j_top = _ceil_log2(g.max_abs())
        j = j_top - rng.randint(1, 2)
        try:
            split = good_bad_split(tree, g, 2, j)  # self-verifies its contracts
        except EnumerationError:
            j = j_top - 1
            split = good_bad_split(tree, g, 2, j)
        c_good_max = max(c_good_max, split.c_good)
        c_bad_max = max(c_bad_max, split.c_bad_qpow)
        reconstructed = sum((piece for piece, _ in split.bad_parts), split.good)
        rep.check("split-reconstruction", reconstructed == g, g=g, j=j)
    constants = {"c_good_max": c_good_max, "c_bad_qpow_max": c_bad_max}
    holds = c_good_max <= FROZEN_SPLIT_C_GOOD and c_bad_max <= FROZEN_SPLIT_C_BAD_QPOW
    rep.check("good-bad-contract", holds, cases=rep.counts["split-reconstruction"], **constants)
    frozen = {"frozen_c_good": FROZEN_SPLIT_C_GOOD, "frozen_c_bad_qpow": FROZEN_SPLIT_C_BAD_QPOW}
    rep.record("good-bad-contract", **constants, **frozen)

    # two-sided norm sandwich on small zero-integral instances; a small
    # window keeps the enclosing CZ set (hence the LP) small
    small = Window(window.root, min(2, window.depth))
    for i in range(max(5, config.size // 4)):
        g = nonzero_function(tree, small, config.seed, "atom-combo", 60_000 + i)
        holder = smallest_enclosing_cz(tree, g.support())
        candidates = [
            nonzero_function(tree, window, config.seed, "sparse", 70_000 + 3 * i + k)
            for k in range(3)
        ]
        lower = h1_duality_lower(tree, g, candidates)
        upper = h1_lp_gauge(tree, g, [holder])
        rep.check("h1-sandwich", lower.value <= upper.value, g=g)
    rep.record("h1-sandwich")
    return rep


# ---------------------------------------------------------------------------
# Lp vs sharp maximal ratio
# ---------------------------------------------------------------------------

FROZEN_LP_SHARP_RATIO = {(2, "2", "3/2"): 6.0, (3, "2", "3/2"): 6.0}
LP_RATIO = {
    "lp-sharp-ratio": Check(
        "window Lp norm exceeded the frozen multiple of the sharp-field Lp norm",
        "distribution of ||f||_p over ||sharp_{p0} f||_p on the window"),
}


def suite_lp_ratio(config: RunConfig) -> ConstantsReport:
    tree = config.tree()
    rep = ConstantsReport("lp-ratio", config.m, config.seed, config.size)
    window = config.window
    p, p0 = Fraction(config.p), Fraction(config.p0)
    frozen = FROZEN_LP_SHARP_RATIO.get((config.m, str(p), str(p0)))
    pts = window.members(tree)
    ratios: list[float] = []
    max_ratio = 0.0
    extremizer: FinFunc | list = []
    for i in range(config.size):
        f = nonzero_function(tree, window, config.seed, "sparse", 80_000 + i)
        num = lp_norm(tree, f, p).as_float()
        field_vals = sharp_field(tree, f, p0, pts)
        den = sum(
            r.value.as_float() ** float(p) * float(tree.weight(v))
            for v, r in field_vals.items()
        ) ** (1.0 / float(p))
        if den == 0:
            continue
        ratios.append(num / den)
        if ratios[-1] >= max_ratio:  # the last instance attaining the maximum
            max_ratio, extremizer = ratios[-1], f
    holds = not ratios or frozen is None or max_ratio <= frozen
    rep.check("lp-sharp-ratio", holds, cases=len(ratios), ratio=max_ratio, extremizer=extremizer)
    median = sorted(ratios)[len(ratios) // 2] if ratios else 0.0
    data = {"p": p, "p0": p0, "max_ratio": max_ratio, "median_ratio": median}
    bound = {} if frozen is None else {"frozen_bound": frozen}
    rep.record("lp-sharp-ratio", **data, extremizer=extremizer, **bound)
    return rep


# the dispatch table of `run_suite`; its order is the order of "all"
_SUITES = {
    "geometry": suite_geometry,
    "sharp": suite_sharp,
    "bmo": suite_bmo,
    "decompose": suite_decompose,
    "lp-ratio": suite_lp_ratio,
}
SUITES = tuple(_SUITES)
# every suite's rows by name; names are unique across the suites
_CHECKS = {**GEOMETRY, **SHARP, **BMO, **DECOMPOSE, **LP_RATIO}
