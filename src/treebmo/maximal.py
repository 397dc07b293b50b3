"""Maximal operators with certified finite enumeration.

Two suprema over infinite families are computed here:

* the Hardy-Littlewood-type maximal function: suprema of plain averages
  over admissible trapezoids containing a point,
* the sharp maximal function: suprema of q-oscillations over CZ sets
  containing a point.

Both climb the father chains of `sets.rooted_bands`, keep the best value
in a `sets.ArgMax`, and stop a chain once an a-priori bound shows that any
set rooted higher cannot beat the current best.  The stopping rule is part
of the public contract: every result carries a certificate stating the
measure threshold past which candidates were discarded and the inequality
that justifies it.  `bmo.bmo_norm` runs the same CZ search, `sup_over_cz`,
from every support vertex.  The test suite replays these computations
against brute-force oracles with no cutoff.

`sharp_field` climbs from many points of a window.  Wave t of the climb
from x, the CZ sets rooted at ancestor(x, t) with the heights feasible t
levels below, depends only on that root and t, so the points share it:
each set is evaluated once, each wave's best set is found once, and each
point offers one set per wave.  Sets that hold no support vertex
oscillate by zero; found from an index of the support by root, they are
skipped with no evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .funcs import (
    Exponent,
    FinFunc,
    NormValue,
    _frac_to_float,
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
    feasible_heights,
    member_count,
    members,
    rooted_bands,
    witness_key,
)
from .tree import Tree, Vertex, Window, depth_below, father, level


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


# ---------------------------------------------------------------------------
# Hardy-Littlewood-type maximal function over admissible trapezoids
# ---------------------------------------------------------------------------


HL_RULE = "average <= total_mass / measure"


def _trapezoid_mu_min(tree: Tree, start_level: int, t: int) -> Fraction:
    """Least measure of a trapezoid rooted t levels above the start."""
    return (t // 2 + 1) * tree.level_weight(start_level + t)


def _trapezoid_masses(
    tree: Tree,
    phi: FinFunc,
    starts: list[Vertex],
    keep: Callable[[Vertex, int], bool],
) -> Iterator[tuple[AdmissibleTrapezoid, Fraction, Fraction]]:
    """(trapezoid, integral of phi over it, its measure) along the stream.

    Each support mass is added, as the stream's roots rise, to the
    per-depth totals of each of its ancestors: the father chains of the
    support climb once, one level at a time, to the highest root so far.
    A band's integral is then a sum over the depths held below its root.
    """
    # [vertex on the chain, its level, depth of the support vertex below it, mass]
    chains = [[v, level(v), 0, val * tree.weight(v)] for v, val in phi.items()]
    below: dict[Vertex, dict[int, Fraction]] = {}
    reached = min((c[1] for c in chains), default=0)  # every chain is indexed to here
    # the heights whose band [h, 2h) reaches depth t below the root
    for root, hs in rooted_bands(starts, lambda t: range(t // 2 + 1, t + 1), keep):
        root_level = level(root)
        while reached < root_level:
            reached += 1
            for c in chains:
                if c[1] < reached:
                    c[0], c[1], c[2] = father(c[0]), reached, c[2] + 1
                    totals = below.setdefault(c[0], {})
                    d = c[2]
                    totals[d] = totals[d] + c[3] if d in totals else c[3]
        depths = below.get(root, {})
        for h in hs:
            band = [m for d, m in depths.items() if h <= d < 2 * h]
            total = sum(band[1:], band[0]) if band else Fraction(0)
            yield AdmissibleTrapezoid(root, h), total, h * tree.level_weight(root_level)


def hl_maximal(tree: Tree, phi: FinFunc, x: Vertex) -> MaximalResult:
    """Exact sup of averages of phi over admissible trapezoids containing x.

    phi must be nonnegative.  Roots climb the father chain of x; at height
    t the feasible heights are the integers in (t/2, t], and the chain
    stops once the smallest measure at that height already caps averages
    below the running best.
    """
    for _, val in phi.items():
        if val < 0:
            raise ValueError("hl_maximal requires a nonnegative function")
    if not phi:
        return MaximalResult(
            NormValue.zero(), None, _trivial_certificate("zero function")
        )
    l1 = lp_power(tree, phi, 1)
    best = ArgMax(tree, phi.at(x), AdmissibleTrapezoid(x, 1, degenerate=True))
    evaluated = 1
    floor: Fraction | None = None

    def keep(u: Vertex, t: int) -> bool:
        nonlocal floor
        mu_min = _trapezoid_mu_min(tree, level(u), t)
        if best.value > 0 and mu_min * best.value > l1:
            floor = mu_min
            return False
        return True

    for r, total, mu in _trapezoid_masses(tree, phi, [x], keep):
        evaluated += 1
        best.offer(total / mu, r)
    certificate = CutoffCertificate(HL_RULE, floor, l1 / floor, evaluated)
    return MaximalResult(NormValue.exact1(best.value), best.witness, certificate)


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
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("threshold must be positive")
    cap = lp_power(tree, phi, 1) / lam

    def keep(u: Vertex, t: int) -> bool:
        return _trapezoid_mu_min(tree, level(u), t) < cap

    out = [
        r
        for r, total, mu in _trapezoid_masses(tree, phi, phi.support(), keep)
        if total > lam * mu
    ]
    out.sort(key=lambda r: witness_key(tree, r))
    return out


MAX_LEVEL_SET = 100_000  # vertices a level set may materialise


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
    traps = threshold_trapezoids(tree, phi, lam)
    predicted = sum(member_count(tree, r) for r in traps)
    if predicted > MAX_LEVEL_SET:
        raise EnumerationError(
            f"level set spans about {predicted} vertices, over the budget {MAX_LEVEL_SET}"
        )
    omega = {v for v, val in phi.items() if val > lam}
    for r in traps:
        omega.update(members(tree, r))
    l1 = lp_power(tree, phi, 1)
    certificate = CutoffCertificate(
        HL_RULE,
        l1 / lam,
        lam,
        len(traps),
    )
    return frozenset(omega), certificate


# ---------------------------------------------------------------------------
# sharp maximal function over CZ sets
# ---------------------------------------------------------------------------


def _cz_mu_min(tree: Tree, x_level: int, t: int) -> Fraction:
    h0 = (t + 4) // 4
    return (4 * h0 - (h0 + 1) // 2) * tree.level_weight(x_level + t)


SHARP_RULE = "oscillation <= (||f||_q^q/measure)^(1/q) + ||f||_1/measure"


def _stop(
    tree: Tree,
    holds: Callable[[Fraction, NormValue], bool],
    x_level: int,
    t: int,
    best: NormValue,
) -> Fraction | None:
    """The least measure of a CZ set rooted t levels above a start at
    x_level, if the stop test there ends a climb holding best; else None."""
    mu_min = _cz_mu_min(tree, x_level, t)
    return mu_min if holds(mu_min, best) else None


_UNSET = object()


class _Shared:
    """What the points of one `sharp_field` share as their climbs run: the
    value of each CZ set, the best (value, set) of each wave, keyed by its
    root and its height t above the start, and the stop test with each
    outcome, keyed by the start's level, t and the running best.

    It also indexes the support of f by root: the depths of the support
    vertices below each root climbed.  A set holding none of them
    oscillates by zero, which never wins a climb (see `sup_over_cz`), so
    it is skipped without being evaluated, and a wave holding only such
    sets has no best.
    """

    def __init__(self) -> None:
        self.values: dict[CZSet, NormValue] = {}
        self.waves: dict[tuple[Vertex, int], tuple[NormValue, CZSet] | None] = {}
        self.holds: Callable[[Fraction, NormValue], bool] | None = None
        self.stops: dict[tuple[int, int, NormValue], Fraction | None] = {}
        self.support: list[Vertex] = []
        self.depths: dict[Vertex, list[int]] = {}

    def start(self, tree: Tree, f: FinFunc, q: Exponent) -> None:
        """Build what depends on f and q, once per field."""
        if self.holds is None:
            self.holds = oscillation_bound(tree, f, q)
            self.support = [v for v, _ in f.items()]

    def stop(self, tree: Tree, x_level: int, t: int, best: NormValue) -> Fraction | None:
        """`_stop` with this field's test, found once per (x_level, t, best)."""
        key = (x_level, t, best)
        stop = self.stops.get(key, _UNSET)
        if stop is _UNSET:
            stop = self.stops[key] = _stop(tree, self.holds, x_level, t, best)
        return stop

    def depths_below(self, root: Vertex) -> list[int]:
        """Depths below root of the support vertices it lies above."""
        depths = self.depths.get(root)
        if depths is None:
            below = (depth_below(v, root) for v in self.support)
            depths = self.depths[root] = [d for d in below if d is not None]
        return depths

    def wave(
        self,
        tree: Tree,
        root: Vertex,
        t: int,
        hs: list[int],
        set_value: Callable[[CZSet], NormValue],
    ) -> tuple[NormValue, CZSet] | None:
        """The best (value, set) over the sets CZSet(root, h), h in hs, that
        hold a support vertex, or None if none does.  Each wave and each
        set's value is found once per field."""
        key = (root, t)
        if key in self.waves:
            return self.waves[key]
        values = self.values
        depths = self.depths_below(root)
        best = None
        for h in hs:
            s = CZSet(root, h)
            lo, hi = s.depth_range()
            if not any(lo <= d <= hi for d in depths):
                continue
            if s not in values:
                values[s] = set_value(s)
            if best is None:
                best = ArgMax(tree, values[s], s)
            else:
                best.offer(values[s], s)
        top = self.waves[key] = None if best is None else (best.value, best.witness)
        return top


def sup_over_cz(
    tree: Tree,
    f: FinFunc,
    q: Exponent,
    starts: list[Vertex],
    set_value: Callable[[CZSet], NormValue],
    *,
    _shared: _Shared | None = None,
) -> tuple[ArgMax, CutoffCertificate]:
    """Sup of set_value over the CZ sets containing some start vertex.

    f must be nonzero and q finite; set_value(S) must not exceed the
    q-oscillation of f on S, which the stop rule bounds.  The search starts
    at value zero on the degenerate set {starts[0]}, counted as evaluated.

    With `_shared` (one start x, from `sharp_field`), wave t of the climb,
    the sets CZSet(ancestor(x, t), h) for h in feasible_heights(t), is
    offered as one pair: its best under the ArgMax order, found once per
    field.  That order is total (value, then the witness_key, unique per
    set), so the best of the wave bests is the best over the sets; keep
    reads the running best only between waves, so the stop and the count
    of sets evaluated are those of the set-by-set climb.  A wave with no
    best, or of value zero, is not offered: while the best is zero it is
    held by the start's degenerate set, whose measure m**level(x) is below
    that of any CZ set holding x, so it wins every tie at zero.
    """
    best = ArgMax(tree, NormValue.zero(), CZSet(starts[0], 1, degenerate=True))
    evaluated = 1
    floor: Fraction | None = None
    if _shared is None:
        bound_holds = oscillation_bound(tree, f, q)
    else:
        _shared.start(tree, f, q)
        x_level = level(starts[0])

    def keep(u: Vertex, t: int) -> bool:
        nonlocal floor
        if best.value.is_zero():
            return True
        if _shared is None:
            stop = _stop(tree, bound_holds, level(u), t, best.value)
        else:
            stop = _shared.stop(tree, x_level, t, best.value)
        if stop is None:
            return True
        floor = stop if floor is None else min(floor, stop)
        return False

    for root, hs in rooted_bands(starts, feasible_heights, keep):
        evaluated += len(hs)
        if _shared is not None:
            top = _shared.wave(tree, root, level(root) - x_level, hs, set_value)
            if top is not None and not top[0].is_zero():  # see above
                best.offer(*top)
            continue
        for h in hs:
            cand = CZSet(root, h)
            best.offer(set_value(cand), cand)
    return best, CutoffCertificate(SHARP_RULE, floor, None, evaluated)


def _sharp_at(
    tree: Tree,
    f: FinFunc,
    q,
    x: Vertex,
    set_value: Callable[[CZSet], NormValue],
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
    best, certificate = sup_over_cz(tree, f, q, [x], set_value, _shared=shared)
    return MaximalResult(best.value, best.witness, certificate)


def sharp_maximal(
    tree: Tree, f: FinFunc, q, x: Vertex, *, _memo: _Shared | None = None
) -> MaximalResult:
    """Sup of q-oscillations of f over CZ sets containing x; exact for q in {1, 2}.

    `sharp_field` passes every point the same `_memo`: each CZ set is then
    evaluated once per field, and the climb offers each wave's best set in
    place of the wave's sets (see `sup_over_cz`).
    """
    q = Exponent.of(q)
    return _sharp_at(tree, f, q, x, lambda s: oscillation(tree, f, s, q), _memo)


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
    qf = float(q)
    vals = sorted(float(val) for val, _ in full)
    fpairs = [(_frac_to_float(val), _frac_to_float(w)) for val, w in full]

    def objective(c: float) -> float:
        return sum(abs(val - c) ** qf * w for val, w in fpairs)

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

    Each point is one `sharp_maximal` call, and the calls share one memo.
    A wave (the CZ sets rooted at ancestor(x, t) with the heights feasible
    t levels below) depends only on that root and t, so every point with
    the same ancestor t levels up climbs the same wave: its best set is
    found once, by one ArgMax over the wave, and each point offers that
    one set.  Each CZ set holding a support vertex is evaluated once, the
    others are skipped (a zero never wins), and the stop test is built
    once.  The memo holds values and maxima under a total order, so the
    result does not depend on the order of the points, and each point's
    value, witness and certificate are those of an unshared `sharp_maximal`.
    """
    points = where.members(tree) if isinstance(where, Window) else list(where)
    q = Exponent.of(q)
    memo = _Shared()
    return {v: sharp_maximal(tree, f, q, v, _memo=memo) for v in points}
