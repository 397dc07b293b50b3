"""Trapezoid families: general and admissible trapezoids, their envelopes
(Calderon-Zygmund sets), enlargements, and the nested covering of the tree.

A trapezoid collects the vertices below a root whose depth falls in a
half-open band.  Admissible trapezoids use the band [h, 2h) and have the
exact measure h * m**level(root); their envelopes widen the band to
[h/2, 4h) and form the family over which every oscillation, maximal
function and atom in this package is defined.  Closed-form measures are
used everywhere and are cross-checked against enumeration in the tests.
Every set here, enlargements included, is a `tree.Band`, so membership,
containment (`band_within`) and overlap (`bands_overlap`) are written once.

Depth bands are kept in integer form: "depth >= h/2" for integer depth
is "depth >= ceil(h/2)", and "depth < 4h" is "depth <= 4h - 1".  This
avoids any rounding policy downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .tree import (
    Band,
    EnumerationError,
    Tree,
    Vertex,
    Window,
    ancestor,
    depth_below,
    father,
    format_vertex,
    join,
    level,
    vertex_sort_key,
)


@dataclass(frozen=True)
class GeneralTrapezoid(Band):
    """Vertices below `root` with a <= depth < b (a, b need not be integers)."""

    root: Vertex
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        a, b = Fraction(self.a), Fraction(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a < 0 or b <= a:
            raise ValueError("need 0 <= a < b")

    def depth_range(self) -> tuple[int, int]:
        """Inclusive integer depth band [lo, hi] (hi < lo means empty)."""
        return math.ceil(self.a), math.ceil(self.b) - 1  # hi: the largest integer < b


@dataclass(frozen=True)
class _ScaledBand(Band):
    """A band fixed by a root and a height h, or the single vertex {root}
    when degenerate (then h = 1)."""

    root: Vertex
    h: int = 1
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.degenerate and self.h != 1:
            raise ValueError("degenerate sets have h = 1")
        if self.h < 1:
            raise ValueError("height must be >= 1")

    def __str__(self) -> str:
        deg = " deg" if self.degenerate else ""
        return f"{self.kind} root={format_vertex(self.root)} h={self.h}{deg}"


class AdmissibleTrapezoid(_ScaledBand):
    """Either the single vertex {root} (degenerate, h = 1) or the band [h, 2h)."""

    kind = "trapezoid"

    def depth_range(self) -> tuple[int, int]:
        if self.degenerate:
            return 0, 0
        return self.h, 2 * self.h - 1


class CZSet(_ScaledBand):
    """A Calderon-Zygmund set: {root} if degenerate, else depths ceil(h/2) .. 4h-1."""

    kind = "cz"

    def depth_range(self) -> tuple[int, int]:
        if self.degenerate:
            return 0, 0
        return (self.h + 1) // 2, 4 * self.h - 1


TrapezoidLike = GeneralTrapezoid | AdmissibleTrapezoid | CZSet


# ---------------------------------------------------------------------------
# membership enumeration and exact measures
# ---------------------------------------------------------------------------


def members(tree: Tree, s: TrapezoidLike) -> Iterator[Vertex]:
    lo, hi = s.depth_range()
    for d in range(lo, hi + 1):
        yield from tree.descendants_at_depth(s.root, d)


def ordered_members(tree: Tree, s: TrapezoidLike) -> Iterator[Vertex]:
    """The members of s in Vertex order, (anchor, word), listed lazily."""
    lo, hi = s.depth_range()
    m = tree.m
    root = s.root
    if root.word:
        yield from _ordered_below(m, lo, hi, root.anchor, root.word, 0)
        return
    # below a geodesic vertex the smaller anchors come first: the geodesic
    # vertex z levels down, then the words leaving the geodesic there
    for z in range(hi, -1, -1):
        if z >= lo:
            yield Vertex(root.anchor - z, ())
        if z < hi:
            for d in range(1, m):
                yield from _ordered_below(m, lo, hi, root.anchor - z, (d,), z + 1)


def _ordered_below(
    m: int, lo: int, hi: int, anchor: int, word: tuple[int, ...], depth: int
) -> Iterator[Vertex]:
    # a word sorts before its extensions, and they sort by digit; a module
    # function, as a closure calling itself would leave a reference cycle
    if depth >= lo:
        yield Vertex(anchor, word)
    if depth < hi:
        for d in range(m):
            yield from _ordered_below(m, lo, hi, anchor, word + (d,), depth + 1)


def member_count(tree: Tree, s: TrapezoidLike) -> int:
    lo, hi = s.depth_range()
    return sum(tree.m**d for d in range(lo, hi + 1))


def set_measure(tree: Tree, s: TrapezoidLike) -> Fraction:
    """Exact measure: each fully populated level below the root carries m**level(root)."""
    lo, hi = s.depth_range()
    if hi < lo:
        return Fraction(0)
    return (hi - lo + 1) * tree.weight(s.root)


def admissible_measure(tree: Tree, r: AdmissibleTrapezoid) -> Fraction:
    """mu(R) = h * m**level(root); holds in the degenerate case too (h = 1)."""
    return r.h * tree.weight(r.root)


def cz_measure(tree: Tree, s: CZSet) -> Fraction:
    """mu of a CZ set: (4h - ceil(h/2)) * m**level(root), or the root weight if degenerate."""
    return set_measure(tree, s)


def envelope(r: AdmissibleTrapezoid) -> CZSet:
    """The CZ set with the same root and height; degenerate maps to degenerate."""
    return CZSet(r.root, r.h, r.degenerate)


# ---------------------------------------------------------------------------
# enlargements, containment and overlap of bands
# ---------------------------------------------------------------------------


def enlargement(s: CZSet) -> GeneralTrapezoid:
    """The vertices within distance < h/4 of s: again a band below its root.

    Every vertex within distance < h/4 of the set stays below the root:
    the band's top depth is ceil(h/2), walking up d < h/4 steps keeps the
    depth >= ceil(h/2) - (h-1)//4 >= 1, and any path leaving the subtree
    must first climb past the root, which costs more than h/4.  Walking
    down extends the band symmetrically by (h-1)//4, the largest integer
    distance below h/4.  The brute-force distance scan in the test suite
    confirms this band on explicit windows.
    """
    lo, hi = enlargement_depth_range(s)
    return GeneralTrapezoid(s.root, lo, hi + 1)


def enlargement_depth_range(s: CZSet) -> tuple[int, int]:
    """The enlargement's inclusive depth band, in integers: s's band widened
    by (h - 1) // 4 on both sides."""
    lo, hi = s.depth_range()
    reach = 0 if s.degenerate else (s.h - 1) // 4
    return lo - reach, hi + reach


def enlargement_measure(tree: Tree, s: CZSet) -> Fraction:
    return set_measure(tree, enlargement(s))


def band_within(a: Band, b: Band) -> bool:
    """Every member of a is a member of b.

    A nonempty band holds whole levels of the subtree below its root, so it
    fits in b only if that root lies below b's root, at some gap g, and the
    depths shifted by g stay inside b's band.
    """
    lo, hi = a.depth_range()
    if hi < lo:
        return True
    gap = depth_below(a.root, b.root)
    if gap is None:
        return False
    b_lo, b_hi = b.depth_range()
    return b_lo <= lo + gap and hi + gap <= b_hi


def bands_overlap(a: Band, b: Band) -> bool:
    """a and b share a member.  Bands with incomparable roots lie in disjoint
    subtrees; otherwise the lower band's depths, shifted by the gap between
    the roots, must meet the upper band's."""
    gap = depth_below(a.root, b.root)
    if gap is None:
        gap = depth_below(b.root, a.root)
        if gap is None:
            return False
        a, b = b, a
    lo, hi = a.depth_range()
    b_lo, b_hi = b.depth_range()
    return max(lo + gap, b_lo) <= min(hi + gap, b_hi)


# ---------------------------------------------------------------------------
# the increasing covering family and the constructive index bound
# ---------------------------------------------------------------------------


def covering_family(n: int) -> CZSet:
    """The n-th set of the nested covering: root at geodesic level n, height n+1."""
    if n < 0:
        raise ValueError("covering index must be >= 0")
    return CZSet(Vertex(n, ()), n + 1)


def covering_index(x: Vertex) -> int:
    """Smallest n with x in the n-th covering set; membership is verified.

    The scan starts at the first family root lying above x and is bounded:
    with k that root's index and d its level gap to x, any
    n >= max(k, 1 + 2(k - d), floor((d - k - 4)/3) + 1) is a member, so
    termination is guaranteed.
    """
    k = max(x.anchor, 0)
    d = k - level(x)
    bound = max(k, 1 + 2 * (k - d), (d - k - 4) // 3 + 1, 0)
    n = k
    while True:
        if covering_family(n).contains(x):
            return n
        n += 1
        if n > bound:
            raise AssertionError(
                f"covering index scan passed its guaranteed bound {bound} for {x}"
            )


# ---------------------------------------------------------------------------
# the candidate stream: bands rooted on the father chains of finitely many starts
# ---------------------------------------------------------------------------


def feasible_heights(depth: int) -> range:
    """Heights h for which a vertex at this depth below the root is a member."""
    if depth < 1:
        return range(0)
    return range((depth + 4) // 4, 2 * depth + 1)  # ceil((depth+1)/4) .. 2*depth


MIN_CZ_LEVELS = 3  # a non-degenerate CZ set spans at least 4*1 - 1 = 3 levels


def rooted_bands(
    starts: Iterable[Vertex],
    heights: Callable[[int], Iterable[int]],
    keep: Callable[[Vertex, int], bool],
) -> Iterator[tuple[Vertex, list[int]]]:
    """The candidate stream of every supremum over sets rooted on father chains.

    In waves t = 1, 2, ..., each live start u (in the given order) survives
    while keep(u, t) holds, and its root ancestor(u, t) is yielded with the
    heights of heights(t) not yet yielded at that root.  keep runs only
    after the caller has consumed every earlier yield, so it may read a
    running best.  The stream ends when every chain has stopped.
    """
    alive = list(starts)
    seen: set[tuple[Vertex, int]] = set()
    t = 0
    while alive:
        t += 1
        still = []
        for u in alive:
            if not keep(u, t):
                continue
            still.append(u)
            root = ancestor(u, t)
            fresh = [h for h in heights(t) if (root, h) not in seen]
            if fresh:
                seen.update((root, h) for h in fresh)
                yield root, fresh
        alive = still


def cz_supersets(
    tree: Tree, support: Iterable[Vertex], max_measure: Fraction
) -> Iterator[CZSet]:
    """Every CZ set containing at least one support vertex, with measure <= max_measure.

    Degenerate sets at the support vertices come first; then roots climb
    the father chains in waves of increasing height.  A chain stops once
    even the smallest set rooted at that height exceeds the cap, which is
    what certifies completeness: any qualifying set rooted above contains
    some support vertex u at height t with 3 * m**(level(u) + t) > cap.
    Each set is yielded exactly once.
    """
    supp = sorted(set(support), key=vertex_sort_key)
    if not supp:
        raise ValueError("support must be nonempty")
    cap = Fraction(max_measure)
    for u in supp:
        if tree.weight(u) <= cap:
            yield CZSet(u, 1, degenerate=True)

    def keep(u: Vertex, t: int) -> bool:
        return MIN_CZ_LEVELS * tree.level_weight(level(u) + t) <= cap

    for root, hs in rooted_bands(supp, feasible_heights, keep):
        root_weight = tree.weight(root)
        for h in hs:
            if (4 * h - (h + 1) // 2) * root_weight <= cap:
                yield CZSet(root, h)


def cz_in_window(tree: Tree, window: Window, h_max: int) -> list[CZSet]:
    """Every non-degenerate CZ set with h <= h_max rooted in the window whose
    members stay inside it, by root in window order, then by height.  A set
    rooted at depth d reaches depth d + 4h - 1, so only roots at depth
    <= window.depth - 3 carry one."""
    out = []
    for d in range(window.depth - 2):
        hs = range(1, min(h_max, (window.depth - d + 1) // 4) + 1)
        for root in tree.descendants_at_depth(window.root, d):
            out.extend(CZSet(root, h) for h in hs)
    return out


def cz_in_window_count(tree: Tree, window: Window, h_max: int, cap: int) -> int:
    """len(cz_in_window(tree, window, h_max)) in closed form, nothing
    listed: the m**d roots at depth d carry min(h_max, (depth - d + 1) // 4)
    heights each.  Each term is at least 1, so the sum stops at the first
    partial sum past cap, after at most cap + 1 terms, and returns it."""
    count = 0
    for d in range(window.depth - 2):
        count += tree.m**d * min(h_max, (window.depth - d + 1) // 4)
        if count > cap:
            break
    return count


def witness_key(tree: Tree, s: TrapezoidLike):
    """Deterministic tie-break order: smaller measure, lower root level, lex word."""
    h = getattr(s, "h", 0)
    deg = getattr(s, "degenerate", False)
    return (
        set_measure(tree, s),
        level(s.root),
        s.root.word,
        s.root.anchor,
        h,
        deg,
    )


def _compare(a, b) -> int:
    """-1, 0 or 1 as a is below, equal to or above b: two Fractions by one
    cross-multiplication, or two NormValues by NormValue.compare."""
    if isinstance(a, Fraction):
        x, y = a.numerator * b.denominator, b.numerator * a.denominator
        return (x > y) - (x < y)
    return a.compare(b)


class ArgMax:
    """A running maximum whose ties go to the smallest witness_key.

    Values may be Fractions or NormValues.  Each offer makes one three-way
    comparison, which also settles ties between equal NormValues of
    different representation (degree 1 vs 2).
    """

    def __init__(self, tree: Tree, value, witness: TrapezoidLike):
        self.tree = tree
        self.value = value
        self.witness = witness
        self._key = None  # the holder's witness_key, computed at its first tie

    def offer(self, value, witness: TrapezoidLike) -> None:
        c = _compare(value, self.value)
        if c > 0:
            self.value, self.witness, self._key = value, witness, None
        elif c == 0:
            if self._key is None:
                self._key = witness_key(self.tree, self.witness)
            key = witness_key(self.tree, witness)
            if key < self._key:
                self.witness, self._key = witness, key


def smallest_enclosing_cz(tree: Tree, vertices: Iterable[Vertex]) -> CZSet:
    """The CZ set of least measure containing every given vertex."""
    pts = list(vertices)
    if not pts:
        raise ValueError("need at least one vertex")
    root = pts[0]
    for p in pts[1:]:
        root = join(root, p)
    best: CZSet | None = None
    best_measure: Fraction | None = None
    while True:
        depths = [depth_below(p, root) for p in pts]
        if all(d is not None for d in depths):
            dmin, dmax = min(depths), max(depths)
            if dmin >= 1:
                h_lo = (dmax + 4) // 4
                if h_lo <= 2 * dmin:
                    cand = CZSet(root, h_lo)
                    meas = cz_measure(tree, cand)
                    if best_measure is None or meas < best_measure:
                        best, best_measure = cand, meas
        if best_measure is not None and MIN_CZ_LEVELS * tree.weight(father(root)) > best_measure:
            return best
        root = father(root)
