"""Definition-level reference computations with no enumeration cutoffs.

Everything in this module recomputes a quantity straight from its
definition: averages by visiting every member vertex, suprema by listing
every candidate set below an explicit measure cap, distances by breadth
first search.  None of it shares the climbing/cutoff logic of the
production paths in `maximal` and `bmo`; the test suite uses it as the
second route of every dual-route check.

The only mathematics these oracles rely on is definitional: a set
containing a vertex is rooted on that vertex's father chain, a candidate
family capped in measure is finite, and a value v can only be beaten by a
set of measure mu if the elementary bound at mu exceeds v.  The caps are
grown until that last inequality certifies the scan saw everything.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .funcs import FinFunc, NormValue, lp_power, oscillation
from .sets import (
    AdmissibleTrapezoid,
    CZSet,
    TrapezoidLike,
    member_count,
    members,
    set_measure,
    witness_key,
)
from .tree import Tree, Vertex, Window, ancestor, father, level


FULL_SUM_CAP = 3_000  # below this many members, integrals are summed vertex by vertex


def descendant_count(tree: Tree, v: Vertex, depth: int) -> int:
    """Count canonical descendants at the given depth by explicit depth-first
    construction (iterative, no recursion overhead).  Distinctness of the
    constructed coordinates is verified set-wise at small depths by the test
    suite; this counter makes the deep levels affordable."""
    if depth == 0:
        return 1
    m = tree.m
    count = 0
    # stack entries: (anchor, word tuple, remaining depth)
    stack = [(v.anchor, v.word, depth)]
    while stack:
        anchor, word, rem = stack.pop()
        if rem == 1:
            count += m
            continue
        for d in range(m):
            if d == 0 and not word:
                stack.append((anchor - 1, word, rem - 1))
            else:
                stack.append((anchor, word + (d,), rem - 1))
    return count


def average_by_enumeration(tree: Tree, f: FinFunc, s: TrapezoidLike) -> Fraction:
    total = Fraction(0)
    if member_count(tree, s) <= FULL_SUM_CAP:
        for v in members(tree, s):
            val = f.at(v)
            if val:
                total += val * tree.weight(v)
    else:
        for v, val in f.items():
            if s.contains(v):
                total += val * tree.weight(v)
    return total / set_measure(tree, s)


def oscillation_by_enumeration(tree: Tree, f: FinFunc, s: TrapezoidLike, q) -> NormValue:
    """q in {1, 2}; sums |f - mean|^q over every member vertex when feasible."""
    mu = set_measure(tree, s)
    if member_count(tree, s) > FULL_SUM_CAP:
        return oscillation(tree, f, s, q)
    avg = average_by_enumeration(tree, f, s)
    qi = int(q)
    total = Fraction(0)
    for v in members(tree, s):
        total += abs(f.at(v) - avg) ** qi * tree.weight(v)
    val = total / mu
    return NormValue.exact1(val) if qi == 1 else NormValue.exact_sqrt(val)


# ---------------------------------------------------------------------------
# capped candidate families around a point or a support
# ---------------------------------------------------------------------------


def trapezoids_containing(
    tree: Tree, x: Vertex, max_measure: Fraction
) -> list[AdmissibleTrapezoid]:
    """Every admissible trapezoid containing x with measure <= max_measure."""
    cap = Fraction(max_measure)
    out = []
    if tree.weight(x) <= cap:
        out.append(AdmissibleTrapezoid(x, 1, degenerate=True))
    t = 0
    while True:
        t += 1
        if (t // 2 + 1) * tree.level_weight(level(x) + t) > cap:
            return out
        root = ancestor(x, t)
        for h in range(1, t + 1):
            r = AdmissibleTrapezoid(root, h)
            if r.contains(x) and set_measure(tree, r) <= cap:
                out.append(r)


def cz_containing(tree: Tree, x: Vertex, max_measure: Fraction) -> list[CZSet]:
    """Every CZ set containing x with measure <= max_measure."""
    cap = Fraction(max_measure)
    out = []
    if tree.weight(x) <= cap:
        out.append(CZSet(x, 1, degenerate=True))
    t = 0
    while True:
        t += 1
        if 3 * tree.level_weight(level(x) + t) > cap:
            return out
        root = ancestor(x, t)
        h = 0
        while True:
            h += 1
            s = CZSet(root, h)
            if set_measure(tree, s) > cap:
                break
            if s.contains(x):
                out.append(s)


def cz_meeting_support(
    tree: Tree, support: Iterable[Vertex], max_measure: Fraction
) -> list[CZSet]:
    """Every CZ set containing at least one of the given vertices, capped in measure."""
    fam: dict[tuple, CZSet] = {}
    for u in set(support):
        for s in cz_containing(tree, u, max_measure):
            fam[(s.root, s.h, s.degenerate)] = s
    return sorted(fam.values(), key=lambda s: witness_key(tree, s))


def cz_in_window(
    tree: Tree, window: Window, h_max: int, include_degenerate: bool = True
) -> list[CZSet]:
    """Every CZ set with root in the window, members inside it, and h <= h_max."""
    out = []
    for root in window.members(tree):
        droot = level(window.root) - level(root)
        if include_degenerate:
            out.append(CZSet(root, 1, degenerate=True))
        for h in range(1, h_max + 1):
            if droot + 4 * h - 1 <= window.depth:
                out.append(CZSet(root, h))
    return out


# ---------------------------------------------------------------------------
# no-cutoff suprema with self-certifying caps
# ---------------------------------------------------------------------------


def hl_maximal_oracle(tree: Tree, phi: FinFunc, x: Vertex) -> Fraction:
    if not phi:
        return Fraction(0)
    l1 = lp_power(tree, phi, 1)
    cap = 64 * max(l1, Fraction(1))
    while True:
        best = Fraction(0)
        for r in trapezoids_containing(tree, x, cap):
            best = max(best, average_by_enumeration(tree, phi, r))
        if best > 0 and l1 / cap < best:
            return best
        cap = max(cap * 16, l1 * 2 / best if best else cap * 16)


def sharp_maximal_oracle(tree: Tree, f: FinFunc, q, x: Vertex) -> NormValue:
    if not f:
        return NormValue.zero()
    qi = int(q)
    cap = _initial_cap(tree, f)
    while True:
        best = NormValue.zero()
        for s in cz_containing(tree, x, cap):
            best = max(best, oscillation_by_enumeration(tree, f, s, qi))
        required = _cap_certifying(tree, f, qi, best)
        if required is not None and cap >= required:
            return best
        cap = max(cap * 16, required if required is not None else cap * 16)


def bmo_norm_oracle(tree: Tree, f: FinFunc, q) -> NormValue:
    """Sup of q-oscillations over all CZ sets, by capped exhaustive scan."""
    if not f:
        return NormValue.zero()
    qi = int(q)
    cap = _initial_cap(tree, f)
    while True:
        best = NormValue.zero()
        for s in cz_meeting_support(tree, f.support(), cap):
            best = max(best, oscillation_by_enumeration(tree, f, s, qi))
        required = _cap_certifying(tree, f, qi, best)
        if required is not None and cap >= required:
            return best
        cap = max(cap * 16, required if required is not None else cap * 16)


def _initial_cap(tree: Tree, f: FinFunc) -> Fraction:
    return 64 * max(lp_power(tree, f, 1), Fraction(1))


def _cap_certifying(tree: Tree, f: FinFunc, qi: int, best: NormValue) -> Fraction | None:
    """A measure past which no set can reach `best`: oscillation over a set of
    measure mu is at most (||f||_q^q/mu)^(1/q) + ||f||_1/mu."""
    if best.is_zero():
        return None
    l1 = lp_power(tree, f, 1)
    if qi == 1:
        return 2 * l1 / best.as_fraction()
    v2 = best.sq
    a = lp_power(tree, f, 2)
    # (sqrt(a/mu) + l1/mu)^2 <= 2a/mu + 2(l1/mu)^2 <= v2 once mu >= both pieces' caps
    return max(4 * a / v2, 2 * l1 / _sqrt_floor(v2 / 4))


def _sqrt_floor(x: Fraction) -> Fraction:
    """A positive rational lower bound for sqrt(x), x > 0:
    sqrt(p/q) = sqrt(pq)/q >= isqrt(pq)/q, and isqrt(pq) >= 1 for p, q >= 1."""
    import math

    return Fraction(math.isqrt(x.numerator * x.denominator), x.denominator)


# ---------------------------------------------------------------------------
# distances by BFS: the enlargement oracle
# ---------------------------------------------------------------------------


def distance_to_set(tree: Tree, x: Vertex, s: TrapezoidLike, give_up: int = 64) -> int:
    """d(x, s) by breadth-first search outward from x, using only membership tests."""
    if s.contains(x):
        return 0
    seen = {x}
    frontier = [x]
    for r in range(1, give_up + 1):
        nxt = []
        for u in frontier:
            for w in [father(u), *tree.children(u)]:
                if w in seen:
                    continue
                if s.contains(w):
                    return r
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    raise RuntimeError(f"no member of {s} within distance {give_up} of {x}")


def enlargement_by_bfs(tree: Tree, s: CZSet) -> set[Vertex]:
    """The exact enlargement {x : d(x, s) < h/4} grown breadth-first from the set."""
    reach = (s.h - 1) // 4 if not s.degenerate else 0
    current = set(members(tree, s))
    frontier = list(current)
    for _ in range(reach):
        nxt = []
        for u in frontier:
            for w in [father(u), *tree.children(u)]:
                if w not in current:
                    current.add(w)
                    nxt.append(w)
        frontier = nxt
    return current
