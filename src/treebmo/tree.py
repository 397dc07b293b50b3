"""Geometry of the infinite homogeneous tree with a fixed doubly-infinite geodesic.

Every vertex of the (m+1)-regular tree is addressed by a pair
``(anchor, word)``: ``anchor`` is the index of a geodesic vertex and
``word`` is the sequence of child choices (digits in ``0..m-1``) taken
while descending from it.  Digit 0 at a geodesic vertex continues the
geodesic one level down, so ``(n, 0w)`` and ``(n-1, w)`` address the same
vertex; the canonical form drops leading zeros.  Under this encoding

* ``level(v) = anchor - len(word)``,
* ancestry is word-prefixing, which makes equality, the father map and
  distances O(len(word)).

All measure arithmetic is exact: the weight of a vertex at level ``l``
is the rational ``m**l``.  Vertices and trees are immutable values and
every operation is a pure function, so everything here can be shared
freely across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple


class InvalidVertexError(ValueError):
    """Raised when a vertex description is malformed for the given tree."""


class EnumerationError(ValueError):
    """Raised when a requested enumeration cannot be completed as asked."""


MAX_LISTED = 100_000  # vertices a window, a ball or a level set may list
# m**e > MAX_LISTED for every m >= 2 and e >= this, so counts may cap e here
_LISTED_EXPONENT = MAX_LISTED.bit_length()


def _check_listed(what: str, count: int) -> None:
    if count > MAX_LISTED:
        raise EnumerationError(f"{what} holds more than the budget of {MAX_LISTED} vertices")


def unprintable(bits: int) -> ValueError:
    """The error for a rational of this many bits in its numerator or
    denominator whose digits pass the most CPython prints."""
    return ValueError(
        f"a rational of {bits} bits is too large to print: its numerator "
        f"or denominator passes {sys.get_int_max_str_digits()} digits"
    )


def check_power(m: int, e: int) -> None:
    """Raise `unprintable` if m**|e| has more digits than CPython prints,
    before it is formed: such a power reaches no report."""
    limit, e = sys.get_int_max_str_digits(), abs(e)
    digits = e * math.log10(m)  # m**e has floor(digits) + 1 of them; exact near the limit
    if limit and digits > limit - 1 and (digits > limit + 1 or m**e >= 10**limit):
        raise unprintable(int(e * math.log2(m)) + 1)


class Vertex(NamedTuple):
    anchor: int
    word: tuple[int, ...]

    def __str__(self) -> str:
        return format_vertex(self)


ORIGIN = Vertex(0, ())

# (m, level) -> m**level: Fractions are immutable, so every tree shares them
_POWERS: dict[tuple[int, int], Fraction] = {}


@dataclass(frozen=True)
class Tree:
    """Parameters of the homogeneous tree: each vertex has m children and one father."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"branching factor must be >= 2, got {self.m}")

    # -- construction -------------------------------------------------------

    def canonicalize(self, anchor: int, word) -> Vertex:
        """Return the canonical vertex for (anchor, word).

        Leading zeros are absorbed into the anchor: (n, 0w) == (n-1, w).
        Raises InvalidVertexError on digits outside 0..m-1.
        """
        digits = tuple(word)
        for d in digits:
            if not isinstance(d, int) or d < 0 or d >= self.m:
                raise InvalidVertexError(f"digit {d!r} out of range 0..{self.m - 1}")
        i = 0
        n = anchor
        while i < len(digits) and digits[i] == 0:
            i += 1
            n -= 1
        return Vertex(n, digits[i:])

    def vertex(self, anchor: int, word=()) -> Vertex:
        return self.canonicalize(anchor, word)

    # -- local structure ----------------------------------------------------

    def children(self, v: Vertex) -> list[Vertex]:
        """The m children of v (one level down), in digit order."""
        out = []
        for d in range(self.m):
            if d == 0 and not v.word:
                out.append(Vertex(v.anchor - 1, ()))
            else:
                out.append(Vertex(v.anchor, v.word + (d,)))
        return out

    def descendants_at_depth(self, v: Vertex, depth: int) -> Iterator[Vertex]:
        """All m**depth vertices exactly `depth` levels below v, in the
        lexicographic order of the digit words that reach them."""
        words = product(range(self.m), repeat=depth)
        if v.word:
            for w in words:
                yield Vertex(v.anchor, v.word + w)
            return
        # below a geodesic vertex, leading zeros continue the geodesic
        for w in words:
            z = 0
            while z < depth and w[z] == 0:
                z += 1
            yield Vertex(v.anchor - z, w[z:])

    # -- measure ------------------------------------------------------------

    def weight(self, v: Vertex) -> Fraction:
        """mu({v}) = m**level(v), exact (a unit fraction for negative levels)."""
        return self.level_weight(level(v))

    def level_weight(self, lvl: int) -> Fraction:
        w = _POWERS.get((self.m, lvl))
        if w is None:
            check_power(self.m, lvl)
            w = _POWERS[self.m, lvl] = Fraction(self.m) ** lvl
        return w

    def ball(self, v: Vertex, r: int) -> list[Vertex]:
        """All vertices at distance <= r from v (closed ball), by BFS, refused
        past MAX_LISTED from their count 1 + (m + 1)(m**r - 1)/(m - 1)."""
        if r < 0:
            raise ValueError("radius must be >= 0")
        m, e = self.m, min(r, _LISTED_EXPONENT)
        _check_listed(f"ball of radius {r} about {v}", 1 + (m + 1) * (m**e - 1) // (m - 1))
        seen = {v}
        frontier = [v]
        for _ in range(r):
            nxt = []
            for u in frontier:
                for w in [father(u), *self.children(u)]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return sorted(seen, key=vertex_sort_key)

    def ball_measure_closed(self, v: Vertex, r: int) -> Fraction:
        """mu(B(v, r)) in closed form: m**level(v) * (m**(r+1) + m**r - 2) / (m - 1).

        Asserted against enumeration only for r >= 1; for r = 0 the ball is
        the single vertex and its weight is returned directly.
        """
        if r < 0:
            raise ValueError("radius must be >= 0")
        if r == 0:
            return self.weight(v)
        m = self.m
        check_power(m, r + 1)
        return self.weight(v) * Fraction(m ** (r + 1) + m**r - 2, m - 1)

    def ball_measure_enumerated(self, v: Vertex, r: int) -> Fraction:
        return sum((self.weight(u) for u in self.ball(v, r)), Fraction(0))


# ---------------------------------------------------------------------------
# m-independent vertex operations
# ---------------------------------------------------------------------------


def level(v: Vertex) -> int:
    return v.anchor - len(v.word)


def father(v: Vertex) -> Vertex:
    if not v.word:
        return Vertex(v.anchor + 1, ())
    return Vertex(v.anchor, v.word[:-1])


def ancestor(v: Vertex, height: int) -> Vertex:
    """The vertex `height` levels above v along the father chain."""
    if height < 0:
        raise ValueError("height must be >= 0")
    if height <= len(v.word):
        return Vertex(v.anchor, v.word[: len(v.word) - height])
    return Vertex(v.anchor + height - len(v.word), ())


def _lifted_digit(v: Vertex, common_anchor: int, i: int) -> int:
    # digit i of v's word once lifted to common_anchor by prepending zeros
    pad = common_anchor - v.anchor
    return 0 if i < pad else v.word[i - pad]


def distance(x: Vertex, y: Vertex) -> int:
    """Graph distance: depth of x plus depth of y below their lowest common ancestor."""
    a = max(x.anchor, y.anchor)
    lx = a - level(x)
    ly = a - level(y)
    common = 0
    for i in range(min(lx, ly)):
        if _lifted_digit(x, a, i) != _lifted_digit(y, a, i):
            break
        common += 1
    return (lx - common) + (ly - common)


def join(x: Vertex, y: Vertex) -> Vertex:
    """Lowest common ancestor of x and y."""
    a = max(x.anchor, y.anchor)
    lx = a - level(x)
    ly = a - level(y)
    common = []
    for i in range(min(lx, ly)):
        d = _lifted_digit(x, a, i)
        if d != _lifted_digit(y, a, i):
            break
        common.append(d)
    i = 0
    n = a
    while i < len(common) and common[i] == 0:
        i += 1
        n -= 1
    return Vertex(n, tuple(common[i:]))


def depth_below(x: Vertex, root: Vertex) -> int | None:
    """level(root) - level(x) if x lies below root, else None.

    Read from the coordinates, with no ancestor built: below a root off the
    geodesic lie the vertices of its anchor whose words extend its word,
    and below a geodesic root the vertices whose anchor is at most its own.
    """
    w = root.word
    if w:
        if x.anchor != root.anchor or x.word[: len(w)] != w:
            return None
        return len(x.word) - len(w)
    if x.anchor > root.anchor:
        return None
    return root.anchor - level(x)


def vertex_sort_key(v: Vertex):
    return (-level(v), v.anchor, v.word)


class Band:
    """A set of whole levels below a root: the vertices x below `root` with
    lo <= depth_below(x, root) <= hi, where (lo, hi) = depth_range().

    Every set of the package is one: windows, trapezoids, CZ sets and
    enlargements.  Subclasses provide `root` and `depth_range()`.
    """

    def contains(self, v: Vertex) -> bool:
        d = depth_below(v, self.root)
        if d is None:
            return False
        lo, hi = self.depth_range()
        return lo <= d <= hi


@dataclass(frozen=True)
class Window(Band):
    """The finite slab of vertices lying at depth 0..depth below root."""

    root: Vertex
    depth: int

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("window depth must be >= 0")

    def depth_range(self) -> tuple[int, int]:
        return 0, self.depth

    def members(self, tree: Tree) -> list[Vertex]:
        """Every vertex, by depth, refused past MAX_LISTED from their count
        m**0 + ... + m**depth."""
        m, e = tree.m, min(self.depth, _LISTED_EXPONENT)
        _check_listed(f"window {self}", (m ** (e + 1) - 1) // (m - 1))
        out: list[Vertex] = []
        for d in range(self.depth + 1):
            out.extend(tree.descendants_at_depth(self.root, d))
        return out

    def member(self, tree: Tree, i: int) -> Vertex:
        """members(tree)[i] without listing the others: past the depth bands
        above it, i's base-m digits are the word below the root."""
        rest = i
        if rest >= 0:
            for d in range(self.depth + 1):
                if rest < tree.m**d:
                    digits = []
                    for _ in range(d):
                        rest, digit = divmod(rest, tree.m)
                        digits.append(digit)
                    word = self.root.word + tuple(reversed(digits))
                    return tree.canonicalize(self.root.anchor, word)
                rest -= tree.m**d
        raise IndexError(f"window {self} has no member {i}")

    def __str__(self) -> str:
        return f"root={format_vertex(self.root)},depth={self.depth}"


def parse_window(tree: Tree, text: str) -> Window:
    """Parse "root=<vertex>,depth=<int>"."""
    parts = dict(
        item.split("=", 1) for item in text.strip().split(",") if "=" in item
    )
    if set(parts) != {"root", "depth"}:
        raise ValueError(f"window text {text!r} must be 'root=<vertex>,depth=<int>'")
    return Window(parse_vertex(tree, parts["root"]), int(parts["depth"]))


# ---------------------------------------------------------------------------
# text format: "<anchor>:<digits>", e.g. "0:", "0:1", "-1:", "2:102"
# ---------------------------------------------------------------------------


def format_vertex(v: Vertex) -> str:
    return f"{v.anchor}:{''.join(str(d) for d in v.word)}"


def parse_vertex(tree: Tree, text: str) -> Vertex:
    """Parse "n:w" and canonicalize.  Digits must be valid for tree.m."""
    s = text.strip()
    if ":" not in s:
        raise InvalidVertexError(f"vertex text {text!r} lacks ':' separator")
    head, _, tail = s.partition(":")
    try:
        anchor = int(head)
    except ValueError as e:
        raise InvalidVertexError(f"bad anchor in vertex text {text!r}") from e
    if not all(ch.isdigit() for ch in tail):
        raise InvalidVertexError(f"bad digits in vertex text {text!r}")
    return tree.canonicalize(anchor, tuple(int(ch) for ch in tail))
