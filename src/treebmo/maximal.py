"""Maximal operators with certified finite enumeration.

Two suprema over infinite families are computed here:

* the Hardy-Littlewood-type maximal function: suprema of plain averages
  over admissible trapezoids containing a point,
* the sharp maximal function: suprema of q-oscillations over CZ sets
  containing a point.

Both climb father chains, keep the best value in a `sets.ArgMax`, and
stop a chain once an a-priori bound shows that any set rooted higher
cannot beat the current best.  That bound is a `StopRule` (`hl_rule`,
`sharp_rule`), which carries its set family and is part of the public
contract: every result carries its certificate, stating the measure
threshold past which candidates were discarded and the inequality that
justifies it.  The test suite replays these computations against
brute-force oracles with no cutoff.

Both climbs run through `_Shared`, which reads the set family off the rule
and serves the points of one field: each set holding a support vertex is
valued once, each wave's best found once, sets holding none are skipped
(they average and oscillate by zero), and each climb state is climbed
once.  `hl_field` and `sharp_field` pass one `_Shared` to every point; a
lone `hl_maximal`, `sharp_maximal` or `centered_sharp_maximal` runs
through one of its own.  `sup_over_cz` is the set-by-set search that
`bmo.bmo_norm` runs from every support vertex, and the reference the
tests check the climbs against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .funcs import (
    Exponent,
    FinFunc,
    NormValue,
    SupportIndex,
    _frac_to_float,
    _power_sum,
    lp_power,
    lq_mean,
    on_set,
    oscillation,
    oscillation_bound,
)
from .sets import (
    AdmissibleTrapezoid,
    ArgMax,
    CZSet,
    EnumerationError,
    member_count,
    members,
    rooted_bands,
    witness_key,
)
from .tree import MAX_LISTED, Tree, Vertex, Window, father, level


@dataclass(frozen=True)
class CutoffCertificate:
    """Why stopping the enumeration lost nothing.

    Every candidate set that was not evaluated has measure >= measure_bound,
    and by `rule` its value is at most bound_at_cutoff, which does not beat
    the reported value.  measure_bound None means the enumeration was
    trivially complete (zero function, empty family).
    """

    rule: str
    measure_bound: Fraction | None
    bound_at_cutoff: Fraction | float | None
    sets_evaluated: int


@dataclass(frozen=True)
class MaximalResult:
    value: NormValue
    witness: AdmissibleTrapezoid | CZSet | None
    certificate: CutoffCertificate


def _trivial_certificate(rule: str, n: int = 0) -> CutoffCertificate:
    return CutoffCertificate(rule, None, None, n)


@dataclass(frozen=True)
class StopRule:
    """The a-priori bound that ends a climb over the sets of one kind
    (`AdmissibleTrapezoid` or `CZSet`), named in its certificates:
    holds(mu, best) is True when no candidate of measure >= mu can beat
    best, and bound(mu), if given, caps them all."""

    name: str
    tree: Tree
    kind: type
    holds: Callable[[Fraction, NormValue], bool]
    bound: Callable[[Fraction], Fraction] | None = None

    def least(self, lvl: int, t: int) -> Fraction:
        """The least measure of a set t levels above a start at level lvl holding it."""
        return self.kind.least_levels(t) * self.tree.level_weight(lvl + t)

    def stop(self, lvl: int, t: int, best: NormValue) -> Fraction | None:
        """The measure at which the rule ends a climb from level lvl before
        its wave t, or None if it goes on, as it always does at a zero best
        (the start's degenerate set, which any nonzero value beats)."""
        if best.is_zero():
            return None
        mu = self.least(lvl, t)
        return mu if self.holds(mu, best) else None

    def certificate(self, floor: Fraction | None, evaluated: int) -> CutoffCertificate:
        at_floor = None if floor is None or self.bound is None else self.bound(floor)
        return CutoffCertificate(self.name, floor, at_floor, evaluated)


def hl_rule(tree: Tree, phi: FinFunc) -> StopRule:
    """Averages of phi >= 0 over admissible trapezoids are at most its
    total mass over their measure."""
    l1 = lp_power(tree, phi, 1)
    return StopRule(
        "average <= total_mass / measure",
        tree, AdmissibleTrapezoid,
        lambda mu, best: mu * best.as_fraction() > l1,
        lambda mu: l1 / mu,
    )


def sharp_rule(tree: Tree, f: FinFunc, q) -> StopRule:
    """q-oscillations of f over CZ sets, capped by `funcs.oscillation_bound`."""
    name = "oscillation <= (||f||_q^q/measure)^(1/q) + ||f||_1/measure"
    return StopRule(name, tree, CZSet, oscillation_bound(tree, f, q))


# ---------------------------------------------------------------------------
# Hardy-Littlewood-type maximal function over admissible trapezoids
# ---------------------------------------------------------------------------


def _band_mean(m: int, index: SupportIndex, root: Vertex, h: int) -> tuple[int, int]:
    """The average of the index's function over AdmissibleTrapezoid(root, h)
    as integers (N, D), N / D, from its band sums (`SupportIndex.band`)."""
    scaled, total = index.band(m, root, h, 2 * h - 1)
    return sum(num * w for num, w in scaled), index.unit * total


def _hl_shared(tree: Tree, phi: FinFunc) -> _Shared:
    for _, val in phi.items():
        if val < 0:
            raise ValueError("hl_maximal requires a nonnegative function")
    return _Shared(tree, phi, hl_rule(tree, phi))


def hl_maximal(
    tree: Tree, phi: FinFunc, x: Vertex, *, _memo: _Shared | None = None
) -> MaximalResult:
    """Exact sup of averages of phi over admissible trapezoids containing x.

    phi must be nonnegative.  Roots climb the father chain of x; at height
    t the feasible heights are the integers in (t/2, t], and the chain
    stops once the smallest measure at that height already caps averages
    below the running best, which starts at phi(x) on the degenerate
    trapezoid {x}.  The climb runs through a `_Shared` of its own, or
    through `_memo`, which `hl_field` passes to every point of a field.
    """
    shared = _hl_shared(tree, phi) if _memo is None else _memo
    if not phi:
        return MaximalResult(NormValue.zero(), None, _trivial_certificate("zero function"))
    m, index, start = tree.m, shared.index, phi.at(x)
    deg = AdmissibleTrapezoid(x, 1, degenerate=True)
    best = ArgMax(tree, NormValue.exact1(start), deg) if start else None
    return shared.climb(x, lambda r: NormValue(Fraction(*_band_mean(m, index, r.root, r.h))), best)


def hl_field(
    tree: Tree, phi: FinFunc, where: Window | Iterable[Vertex]
) -> dict[Vertex, MaximalResult]:
    """Pointwise Hardy-Littlewood maximal function on a window or explicit
    vertex list, the counterpart of `sharp_field`: phi >= 0 is checked
    once, and each point is one `hl_maximal` call through one `_Shared`,
    which values each trapezoid once and climbs each state once."""
    points = where.members(tree) if isinstance(where, Window) else list(where)
    memo = _hl_shared(tree, phi)
    return {v: hl_maximal(tree, phi, v, _memo=memo) for v in points}


# ---------------------------------------------------------------------------
# level sets of the maximal function, as exact unions of trapezoids
# ---------------------------------------------------------------------------


def threshold_trapezoids(
    tree: Tree, phi: FinFunc, lam: Fraction
) -> list[AdmissibleTrapezoid]:
    """All non-degenerate admissible trapezoids whose phi-average exceeds lam.

    lam must be positive; any qualifying trapezoid meets the support of phi
    and has measure < total_mass / lam, so the family is finite and the
    support-anchored climb below is exhaustive.
    """
    return _over_threshold(hl_rule(tree, phi), phi, Fraction(lam))


def _over_threshold(rule: StopRule, phi: FinFunc, lam: Fraction) -> list[AdmissibleTrapezoid]:
    """`threshold_trapezoids` under phi's `hl_rule`."""
    if lam <= 0:
        raise ValueError("threshold must be positive")
    tree = rule.tree
    cap = rule.bound(lam)  # the bound l1 / mu falls to lam at the measure l1 / lam
    index, m = SupportIndex(phi), tree.m
    out = []
    for root, hs in rooted_bands(
        phi.support(), rule.kind.heights, lambda u, t: rule.least(level(u), t) < cap
    ):
        for h in hs:
            num, den = _band_mean(m, index, root, h)
            if num * lam.denominator > lam.numerator * den:
                out.append(AdmissibleTrapezoid(root, h))
    out.sort(key=lambda r: witness_key(tree, r))
    return out


MAX_LEVEL_SET = MAX_LISTED  # vertices a level set may materialise


def maximal_level_set(
    tree: Tree, phi: FinFunc, lam: Fraction
) -> tuple[frozenset[Vertex], CutoffCertificate]:
    """The exact set {x : hl maximal of phi at x > lam}, as explicit vertices.

    A point exceeds the threshold iff its own value does (degenerate
    trapezoid) or it belongs to some trapezoid whose average does, so the
    level set is the union of the threshold trapezoids plus the vertices
    where phi itself exceeds lam.  A level set predicted to exceed
    MAX_LEVEL_SET vertices raises EnumerationError before any is listed,
    and before the climb when one trapezoid alone would pass the budget.
    """
    lam = Fraction(lam)
    # for phi >= 0, the trapezoid of height h holding a support vertex v at
    # depth h averages at least phi(v) / (h * m**h), whatever the level of v;
    # it holds m**h + ... + m**(2h - 1) vertices
    m, h = tree.m, 1
    while (size := m**h * (m**h - 1) // (m - 1)) <= MAX_LEVEL_SET:
        h += 1
    if 0 < lam * h * m**h < phi.max_abs():
        raise EnumerationError(
            f"level set holds a trapezoid of {size} vertices, over the budget {MAX_LEVEL_SET}"
        )
    rule = hl_rule(tree, phi)  # its bound falls to lam at the measure bound(lam)
    traps = _over_threshold(rule, phi, lam)
    predicted = sum(member_count(tree, r) for r in traps)
    if predicted > MAX_LEVEL_SET:
        raise EnumerationError(
            f"level set spans about {predicted} vertices, over the budget {MAX_LEVEL_SET}"
        )
    omega = {v for v, val in phi.items() if val > lam}
    for r in traps:
        omega.update(members(tree, r))
    return frozenset(omega), CutoffCertificate(rule.name, rule.bound(lam), lam, len(traps))


# ---------------------------------------------------------------------------
# the climbs from the points of one field
# ---------------------------------------------------------------------------


# (root, t, lead): a climb about to test wave t at root = ancestor(x, t),
# holding the best set so far, or None while the best is still zero
_State = tuple[Vertex, int, AdmissibleTrapezoid | CZSet | None]


class _Shared:
    """The climbs of one maximal function from the points of one field.

    The set family is the rule's kind: kind(root, h) is a set, and
    heights(d) = kind.heights(d) lists the heights of the sets rooted d
    levels above a vertex that hold it.  A climb from x runs in waves
    t = 1, 2, ...: unless `StopRule.stop` ends it, wave t offers the best
    (value, set) over kind(ancestor(x, t), h), h in heights(t).  That order
    is total (value, then the witness_key, unique per set), so the best of
    the wave bests is the best over the sets.  A set holding no support vertex averages and
    oscillates by zero and is skipped unevaluated, found by heights(d) from
    the depths d of the support below its root, read from the field's one
    `SupportIndex` of f, as the set values are.  A wave of value zero is
    not offered: while the best is zero the start's degenerate set holds
    it, and its measure m**level(x) is below that of any set holding x, so
    it wins every tie at zero.

    The rest of a climb depends only on its state (root, t, lead), where
    root = ancestor(x, t) and lead is the set holding the best, or None
    while the best is zero.  root and t fix the start's level, which the
    stop test reads.  lead fixes the best value: a degenerate lead {x}
    holds f(x), and the values of one field come from one set_value, which
    has one representation per value (degree 1 for averages and q = 1, 2
    for q = 2, a float otherwise), so a tie that moves the lead keeps an
    equal NormValue.  Every climb starts at t = 1 and counts all of
    heights(t) as evaluated for each wave it passes, as the set-by-set
    climb does, so that count and the stop's measure depend only on the
    wave where it stops.  So each state's ending, the point's whole
    MaximalResult, is found once: a climb that reaches a known state takes
    that ending and records it for every state it passed.  The results do
    not depend on the order of the points.
    """

    def __init__(self, tree: Tree, f: FinFunc, rule: StopRule) -> None:
        self.tree, self.rule, self.kind, self.heights = tree, rule, rule.kind, rule.kind.heights
        self.index = SupportIndex(f)
        self.holding: dict[Vertex, set[int]] = {}
        self.values: dict = {}  # set -> value
        self.waves: dict[tuple[Vertex, int], tuple | None] = {}  # -> (value, set) or None
        self.ends: dict[_State, MaximalResult] = {}

    def held(self, root: Vertex) -> set[int]:
        """The heights h for which kind(root, h) holds a support vertex:
        a vertex d levels below root is a member for h in heights(d)."""
        held = self.holding.get(root)
        if held is None:
            held = self.holding[root] = set()
            for _, d in self.index.at(root):
                held.update(self.heights(d))
        return held

    def wave(self, root: Vertex, t: int, set_value: Callable) -> tuple | None:
        """The best (value, set) over the sets kind(root, h), h in
        heights(t), that hold a support vertex, or None if none does.
        Each wave and each set's value is found once per field."""
        key = (root, t)
        if key in self.waves:
            return self.waves[key]
        values = self.values
        held = self.held(root)
        best = None
        for h in self.heights(t):
            if h not in held:
                continue
            s = self.kind(root, h)
            if s not in values:
                values[s] = set_value(s)
            if best is None:
                best = ArgMax(self.tree, values[s], s)
            else:
                best.offer(values[s], s)
        top = self.waves[key] = None if best is None else (best.value, best.witness)
        return top

    def step(
        self, state: _State, best: ArgMax | None, set_value: Callable
    ) -> tuple[ArgMax | None, Fraction | None]:
        """One wave of a climb from a state no climb has passed, with best
        the climb's running best (None while it is zero): (best, the stop's
        measure) if `StopRule.stop` ends the climb here, else (best after
        the wave's best is offered, None)."""
        root, t, _ = state
        if best is not None and (mu := self.rule.stop(level(root) - t, t, best.value)) is not None:
            return best, mu
        top = self.wave(root, t, set_value)
        if top is not None and not top[0].is_zero():  # see the class
            if best is None:
                best = ArgMax(self.tree, *top)
            else:
                best.offer(*top)
        return best, None

    def climb(self, x: Vertex, set_value: Callable, best: ArgMax | None = None) -> MaximalResult:
        """The maximal function at x under set_value, from best, the start's
        degenerate set holding a nonzero f(x), or None, and from the known
        ending of the first state of x's climb that an earlier climb passed.
        The climb stops only once its best is nonzero, so a degenerate set
        holding a zero best is never the witness."""
        root, t, evaluated = father(x), 1, 1
        path = []
        ends = self.ends
        while (state := (root, t, None if best is None else best.witness)) not in ends:
            path.append(state)
            best, stop = self.step(state, best, set_value)
            if stop is not None:
                certificate = self.rule.certificate(stop, evaluated)
                ends[state] = MaximalResult(best.value, best.witness, certificate)
                break
            evaluated += len(self.heights(t))
            root, t = father(root), t + 1
        end = ends[state]
        for passed in path:
            ends[passed] = end
        return end


# ---------------------------------------------------------------------------
# the set-by-set search, and the sharp maximal function over CZ sets
# ---------------------------------------------------------------------------


def sup_over_cz(
    tree: Tree,
    rule: StopRule,
    starts: list[Vertex],
    set_value: Callable[[AdmissibleTrapezoid | CZSet], NormValue],
) -> tuple[ArgMax, CutoffCertificate]:
    """Sup of set_value over the sets of the rule's kind containing some
    start vertex: CZ sets under `sharp_rule`, trapezoids under `hl_rule`.

    set_value(S) must not exceed what the rule bounds, for `sharp_rule`
    the q-oscillation of a nonzero f at a finite q.  The search starts
    at value zero on the degenerate set {starts[0]}, counted as evaluated,
    and offers every candidate set of `sets.rooted_bands` one by one until
    `StopRule.stop` ends each chain; the least stop measure is certified.
    `bmo.bmo_norm` runs it from every support vertex at once; the climb
    from one point runs through `_Shared`, which gives the same value,
    witness and certificate with less work, and the tests compare the two.
    """
    kind, stops = rule.kind, []
    best = ArgMax(tree, NormValue.zero(), kind(starts[0], 1, degenerate=True))

    def keep(u: Vertex, t: int) -> bool:
        mu = rule.stop(level(u), t, best.value)
        if mu is not None:
            stops.append(mu)
        return mu is None

    evaluated = 1
    for root, hs in rooted_bands(starts, kind.heights, keep):
        evaluated += len(hs)
        for h in hs:
            cand = kind(root, h)
            best.offer(set_value(cand), cand)
    return best, rule.certificate(min(stops, default=None), evaluated)


def _sharp_at(
    tree: Tree,
    f: FinFunc,
    q,
    x: Vertex,
    set_value: Callable[[CZSet], NormValue] | None = None,
    shared: _Shared | None = None,
) -> MaximalResult:
    q = Exponent.of(q)
    if q.is_inf:
        raise ValueError("sharp maximal requires a finite exponent")
    if not f:
        return MaximalResult(
            NormValue.zero(),
            CZSet(x, 1, degenerate=True),
            _trivial_certificate("zero function", 1),
        )
    if shared is None:
        shared = _Shared(tree, f, sharp_rule(tree, f, q))
    return shared.climb(x, set_value or (lambda s: oscillation(tree, f, s, q, index=shared.index)))


def sharp_maximal(
    tree: Tree, f: FinFunc, q, x: Vertex, *, _memo: _Shared | None = None
) -> MaximalResult:
    """Sup of q-oscillations of f over CZ sets containing x; exact for q in {1, 2}.

    The climb runs through a `_Shared` of its own, or through `_memo`,
    which `sharp_field` passes to every point of a field: each CZ set is
    then evaluated once per field, through the memo's `SupportIndex`, and
    each state of a climb is climbed once (see `_Shared`).
    """
    return _sharp_at(tree, f, q, x, shared=_memo)


def centered_sharp_maximal(tree: Tree, f: FinFunc, q, x: Vertex) -> MaximalResult:
    """Same supremum with the mean replaced by the best constant on each set.

    The minimizing constant is the weighted median for q = 1 and the mean
    for q = 2 (both exact); other exponents use a golden-section search.
    Always between half of the sharp maximal function and the sharp
    maximal function itself.
    """
    return _sharp_at(
        tree, f, q, x, lambda s: best_constant_oscillation(tree, f, s, q)
    )


def best_constant_oscillation(tree: Tree, f: FinFunc, s, q) -> NormValue:
    """inf over constants c of the Lq mean of |f - c| on s."""
    q = Exponent.of(q)
    if q.value == 2:
        return oscillation(tree, f, s, q)
    pairs, mu = on_set(tree, f, s)
    rest = mu - sum((w for _, w in pairs), Fraction(0))
    # the candidate constants see the off-support mass as one value-0 pair
    full = pairs + [(Fraction(0), rest)] if rest > 0 else pairs
    if q.value == 1:
        return lq_mean(pairs, _weighted_median(full), mu, q)
    vals = sorted(float(val) for val, _ in full)
    fpairs = [(_frac_to_float(val), _frac_to_float(w)) for val, w in full]

    def objective(c: float) -> float:
        return _power_sum(((val - c, w) for val, w in fpairs), q)

    lo, hi = vals[0], vals[-1]
    golden = (5**0.5 - 1) / 2
    a, b = lo, hi
    c1 = b - golden * (b - a)
    c2 = a + golden * (b - a)
    f1, f2 = objective(c1), objective(c2)
    while b - a > 1e-10 * max(1.0, abs(lo), abs(hi)):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - golden * (b - a)
            f1 = objective(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + golden * (b - a)
            f2 = objective(c2)
    return lq_mean(pairs, Fraction((a + b) / 2), mu, q)


def _weighted_median(pairs: list[tuple[Fraction, Fraction]]) -> Fraction:
    """A minimizer of sum w*|val - c|: the smallest value where the cumulative
    weight reaches half the total."""
    pairs = sorted(pairs)
    total = sum((w for _, w in pairs), Fraction(0))
    acc = Fraction(0)
    for val, w in pairs:
        acc += w
        if 2 * acc >= total:
            return val
    return pairs[-1][0]


def sharp_field(
    tree: Tree,
    f: FinFunc,
    q,
    where: Window | Iterable[Vertex],
) -> dict[Vertex, MaximalResult]:
    """Pointwise sharp maximal function on a window or explicit vertex list.

    Each point is one `sharp_maximal` call, and the calls share one
    `_Shared`, which evaluates each CZ set once, finds each wave's best
    once and climbs each state once (see there).  It holds values, maxima
    under a total order and whole results, so the result does not depend
    on the order of the points, and each point's value, witness and
    certificate are those of the set-by-set `sup_over_cz` from that point.
    The memo is freed on return.
    """
    points = where.members(tree) if isinstance(where, Window) else list(where)
    q = Exponent.of(q)
    memo = _Shared(tree, f, sharp_rule(tree, f, q))
    return {v: sharp_maximal(tree, f, q, v, _memo=memo) for v in points}
