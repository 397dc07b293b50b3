"""Finitely supported rational functions on the tree and their exact integrals,
Lp norms, averages and oscillations.

Scalars are real rationals: every inequality this package checks is about
absolute values, so complex data would only obscure the exactness story.
Norms that are intrinsically algebraic stay exact.  `lq_mean` is the one
place that rule is written:

* p = 1 and p = infinity are rational numbers,
* p = 2 is carried as its exact square and compared on squares,
* any other exponent goes through floats and is flagged approximate.

`NormValue` encapsulates that representation and makes comparisons between
exact values decidable (nonnegative quantities compare through their squares,
or directly when both carry the same degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .sets import TrapezoidLike, set_measure
from .tree import Tree, Vertex, depth_below


class ZeroMeasureError(ValueError):
    """Raised when averaging over a set of measure zero."""


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponent:
    """An exponent in [1, infinity]; value None encodes infinity."""

    value: Fraction | None

    def __post_init__(self) -> None:
        if self.value is not None:
            v = Fraction(self.value)
            object.__setattr__(self, "value", v)
            if v < 1:
                raise ValueError(f"exponent must be >= 1, got {v}")

    @classmethod
    def of(cls, p) -> "Exponent":
        if isinstance(p, Exponent):
            return p
        if p is None or p == math.inf or (isinstance(p, str) and p.lower() == "inf"):
            return cls(None)
        return cls(Fraction(p))

    @property
    def is_inf(self) -> bool:
        return self.value is None

    def integer(self) -> int | None:
        if self.value is not None and self.value.denominator == 1:
            return int(self.value)
        return None

    def __float__(self) -> float:
        return math.inf if self.value is None else float(self.value)

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


# ---------------------------------------------------------------------------
# norm values: exact rationals, exact square roots, or flagged floats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormValue:
    """A nonnegative norm: radicand ** (1/degree), exact unless flagged."""

    radicand: Fraction
    degree: int = 1
    exact: bool = True
    approx: float = 0.0

    @classmethod
    def exact1(cls, v) -> "NormValue":
        v = Fraction(v)
        if v < 0:
            raise ValueError("norm values are nonnegative")
        return cls(v, 1, True)

    @classmethod
    def exact_sqrt(cls, sq) -> "NormValue":
        sq = Fraction(sq)
        if sq < 0:
            raise ValueError("squared norm must be nonnegative")
        return cls(sq, 2, True)

    @classmethod
    def approximate(cls, x: float) -> "NormValue":
        return cls(Fraction(0), 1, False, float(x))

    @classmethod
    def zero(cls) -> "NormValue":
        return cls.exact1(0)

    @property
    def sq(self) -> Fraction:
        """The exact square; comparisons between exact values go through this."""
        if not self.exact:
            raise ValueError("approximate norm has no exact square")
        return self.radicand if self.degree == 2 else self.radicand * self.radicand

    def as_fraction(self) -> Fraction:
        if not self.exact or self.degree != 1:
            raise ValueError("norm is not an exact rational")
        return self.radicand

    def as_float(self) -> float:
        if not self.exact:
            return self.approx
        x = _frac_to_float(self.radicand)
        return x if self.degree == 1 else math.sqrt(x)

    def is_zero(self) -> bool:
        return self.radicand == 0 if self.exact else self.approx == 0.0

    def scaled(self, c) -> "NormValue":
        c = Fraction(c)
        if c < 0:
            raise ValueError("scale must be nonnegative")
        if not self.exact:
            return NormValue.approximate(self.approx * float(c))
        if self.degree == 1:
            return NormValue.exact1(self.radicand * c)
        return NormValue.exact_sqrt(self.radicand * c * c)

    def compare(self, other: "NormValue") -> int:
        """-1, 0 or 1 as self is below, equal to or above other."""
        if self.exact and other.exact:
            # radicands are >= 0, so equal degrees compare as their radicands
            if self.degree == other.degree:
                a, b = self.radicand, other.radicand
            else:
                a, b = self.sq, other.sq
        else:
            a, b = self.as_float(), other.as_float()
        return (a > b) - (a < b)

    def __lt__(self, other: "NormValue") -> bool:
        return self.compare(other) < 0

    def __le__(self, other: "NormValue") -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: "NormValue") -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: "NormValue") -> bool:
        return self.compare(other) >= 0

    def eq_value(self, other: "NormValue") -> bool:
        return self.compare(other) == 0

    def __str__(self) -> str:
        if not self.exact:
            return f"~{self.approx!r}"
        if self.degree == 1:
            return str(self.radicand)
        return f"sqrt({self.radicand})"


def _frac_to_float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        # the sign is taken from the Fraction: math.copysign would convert it
        # to a float and overflow again
        return math.inf if x > 0 else -math.inf


def sqrt_le_two_term(c: Fraction, alpha: Fraction, a: Fraction, beta: Fraction, b: Fraction) -> bool:
    """Decide sqrt(c) <= alpha*sqrt(a) + beta*sqrt(b) exactly (all inputs >= 0)."""
    rest = c - alpha * alpha * a - beta * beta * b
    if rest <= 0:
        return True
    return rest * rest <= 4 * alpha * alpha * beta * beta * a * b


def norm_le_sum(c: NormValue, terms: list[tuple[Fraction, NormValue]]) -> bool:
    """Decide c <= sum(coef * term); exact for up to two exact terms."""
    if c.exact and all(t.exact for _, t in terms):
        if len(terms) == 0:
            return c.sq == 0
        if len(terms) == 1:
            coef, t = terms[0]
            return c.sq <= coef * coef * t.sq
        if len(terms) == 2:
            (al, ta), (be, tb) = terms
            return sqrt_le_two_term(c.sq, Fraction(al), ta.sq, Fraction(be), tb.sq)
    return c.as_float() <= sum(float(k) * t.as_float() for k, t in terms) + 1e-9


# ---------------------------------------------------------------------------
# finitely supported functions
# ---------------------------------------------------------------------------


class FinFunc:
    """Finite association Vertex -> Fraction; zero entries are never stored."""

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[Vertex, Fraction] | Iterable[tuple[Vertex, Fraction]] = ()):
        items = data.items() if isinstance(data, Mapping) else data
        d: dict[Vertex, Fraction] = {}
        for v, val in items:
            val = Fraction(val)
            if val and v in d:
                val += d[v]
                if not val:
                    del d[v]
            if val:
                d[v] = val
        self._data = d

    @classmethod
    def indicator(cls, *vertices: Vertex) -> "FinFunc":
        return cls({v: Fraction(1) for v in vertices})

    def at(self, v: Vertex) -> Fraction:
        return self._data.get(v, Fraction(0))

    def support(self) -> list[Vertex]:
        return sorted(self._data)

    def items(self):
        return self._data.items()

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinFunc) and self._data == other._data

    def __hash__(self):
        raise TypeError("FinFunc is not hashable")

    def added(self, others: Iterable["FinFunc"], sign: int = 1) -> "FinFunc":
        """self + sign * (the sum of others), with sign +1 or -1, in one
        dict updated in place; a sum that cancels is dropped, as no zero
        is stored."""
        d = dict(self._data)
        for other in others:
            for v, val in other._data.items():
                if sign < 0:
                    val = -val
                s = d[v] + val if v in d else val
                if s:
                    d[v] = s
                else:
                    del d[v]
        out = FinFunc.__new__(FinFunc)
        out._data = d
        return out

    def __add__(self, other: "FinFunc") -> "FinFunc":
        return self.added((other,))

    def __neg__(self) -> "FinFunc":
        out = FinFunc.__new__(FinFunc)
        out._data = {v: -val for v, val in self._data.items()}
        return out

    def __sub__(self, other: "FinFunc") -> "FinFunc":
        return self.added((other,), -1)

    def scaled(self, c) -> "FinFunc":
        c = Fraction(c)
        out = FinFunc.__new__(FinFunc)
        out._data = {} if not c else {v: c * val for v, val in self._data.items()}
        return out

    def __abs__(self) -> "FinFunc":
        out = FinFunc.__new__(FinFunc)
        out._data = {v: abs(val) for v, val in self._data.items()}
        return out

    def pointwise_max(self, other: "FinFunc") -> "FinFunc":
        keys = set(self._data) | set(other._data)
        return FinFunc({v: max(self.at(v), other.at(v)) for v in keys})

    def pointwise_min(self, other: "FinFunc") -> "FinFunc":
        keys = set(self._data) | set(other._data)
        return FinFunc({v: min(self.at(v), other.at(v)) for v in keys})

    def max_abs(self) -> Fraction:
        return max((abs(v) for v in self._data.values()), default=Fraction(0))

    def __repr__(self) -> str:
        inside = ", ".join(f"{v}: {val}" for v, val in sorted(self._data.items()))
        return f"FinFunc({{{inside}}})"


# ---------------------------------------------------------------------------
# integrals, norms, averages, oscillations
# ---------------------------------------------------------------------------


def integral(tree: Tree, f: FinFunc) -> Fraction:
    """Exact integral against the weighted counting measure."""
    return sum((val * tree.weight(v) for v, val in f.items()), Fraction(0))


def pairing(tree: Tree, f: FinFunc, g: FinFunc) -> Fraction:
    """Exact integral of the product f*g."""
    total = Fraction(0)
    small, big = (f, g) if len(f) <= len(g) else (g, f)
    for v, val in small.items():
        other = big.at(v)
        if other:
            total += val * other * tree.weight(v)
    return total


def lp_power(tree: Tree, f: FinFunc, q: int) -> Fraction:
    """Exact sum of |f|**q against the measure, for integer q >= 1."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    return sum((abs(val) ** q * tree.weight(v) for v, val in f.items()), Fraction(0))


def lq_mean(pairs: list[tuple[Fraction, Fraction]], c, mu, q) -> NormValue:
    """The Lq mean of |f - c| over a set of measure mu.

    f takes value v on weight w for each (v, w) in pairs and is zero on the
    remaining measure mu - sum(w); q = inf gives max |v - c| over the pairs.
    c and mu are rationals.  This is the one place an exponent decides
    exactness: an exact rational for q in {1, inf}, an exact square root
    for q = 2, a flagged float (rel. err <= 1e-12) otherwise.
    """
    return _lq_mean(pairs, c, mu, q, 1)


def _lq_mean(pairs, c, mu, q, unit: int) -> NormValue:
    """`lq_mean` with the values v and the centre c counted in units of
    1/unit.  When v, w, c and mu are all integers, the sums for q in
    {1, 2} stay integers and one Fraction is formed at the end."""
    q = Exponent.of(q)
    if q.is_inf:
        top = max((abs(v - c) for v, _ in pairs), default=0)
        return NormValue.exact1(Fraction(top, unit))
    # f - c is -c off the pairs; c = 0 needs no weight total
    rest = mu - sum(w for _, w in pairs) if c else 0
    # both sums are >= 0, so the NormValues skip the sign check
    if q.value == 1:
        num = sum(abs(v - c) * w for v, w in pairs)
        return NormValue(Fraction(num + abs(c) * rest, mu * unit), 1)
    if q.value == 2:
        num = sum((v - c) ** 2 * w for v, w in pairs)
        return NormValue(Fraction(num + c * c * rest, mu * unit * unit), 2)
    qf = float(q)
    cf = _frac_to_float(Fraction(c, unit))
    num = sum(abs(_frac_to_float(Fraction(v, unit)) - cf) ** qf * _frac_to_float(w) for v, w in pairs)
    num += abs(cf) ** qf * _frac_to_float(rest)
    return NormValue.approximate((num / _frac_to_float(mu)) ** (1.0 / qf))


def lp_norm(tree: Tree, f: FinFunc, p) -> NormValue:
    """Lp norm; exact for p in {1, 2, inf}, see `lq_mean`."""
    return lq_mean([(val, tree.weight(v)) for v, val in f.items()], 0, 1, p)


def on_set(
    tree: Tree, f: FinFunc, s: TrapezoidLike
) -> tuple[list[tuple[Fraction, Fraction]], Fraction]:
    """(value, weight) of f at its support vertices in s, and the measure of s,
    which must be positive."""
    mu = set_measure(tree, s)
    if mu <= 0:
        raise ZeroMeasureError(f"cannot average over a set of measure {mu}")
    return [(val, tree.weight(v)) for v, val in f.items() if s.contains(v)], mu


def average(tree: Tree, f: FinFunc, s: TrapezoidLike) -> Fraction:
    """Exact average of f over the set; the set must have positive measure."""
    pairs, mu = on_set(tree, f, s)
    return sum((v * w for v, w in pairs), Fraction(0)) / mu


class SupportIndex:
    """f's values as integer numerators over one common denominator `unit`,
    and, for each root asked about, the (numerator, depth) of the support
    vertices below that root.

    A root's list is found once, with one `depth_below` per support vertex,
    so the sets rooted there read it instead of testing the whole support
    each.  No father chain is walked, so a support vertex far from the root
    costs no more than a near one.  One index serves one function: a search
    over many sets of f builds it once and passes it to `oscillation`.
    """

    __slots__ = ("unit", "nums", "below")

    def __init__(self, f: FinFunc) -> None:
        unit = 1  # not lcm(*generator): its shrunk argument tuple stays on a free list
        for _, val in f.items():
            unit = math.lcm(unit, val.denominator)
        self.unit = unit
        self.nums = [(v, val.numerator * (unit // val.denominator)) for v, val in f.items()]
        self.below: dict[Vertex, list[tuple[int, int]]] = {}

    def at(self, root: Vertex) -> list[tuple[int, int]]:
        """(numerator, depth below root) of each support vertex below root."""
        held = self.below.get(root)
        if held is None:
            held = self.below[root] = []
            for v, num in self.nums:
                d = depth_below(v, root)
                if d is not None:
                    held.append((num, d))
        return held

    def band(self, m: int, root: Vertex, lo: int, hi: int) -> tuple[list[tuple[int, int]], int]:
        """(numerator, m**(hi - d)) of each support vertex d = lo..hi levels
        below root, and M = (hi - lo + 1) * m**hi.  Member weights and the
        band's measure are these times m**(level(root) - hi), which cancels."""
        scaled = [(num, m ** (hi - d)) for num, d in self.at(root) if lo <= d <= hi]
        return scaled, (hi - lo + 1) * m**hi


def oscillation(
    tree: Tree, f: FinFunc, s: TrapezoidLike, q, *, index: SupportIndex | None = None
) -> NormValue:
    """q-oscillation of f over s: the Lq mean of |f - mean(f)| on s.

    Only the support of f is visited; the off-support members of s enter
    through their total measure, since f vanishes there.  For q in {1, 2}
    the sums are integers: with B the common denominator of f's
    `SupportIndex` and M the band total of `SupportIndex.band`, the mean
    oscillation is N / (B * M**2) for q = 1 and N / (B**2 * M**3) for
    q = 2, with N an integer.  The support vertices in s are read from the
    index's list for the root of s; a search over many sets passes one
    `index` of f, and a call without one builds its own.
    A set holding no support vertex gives the zero of its q.  Other
    exponents take the Fraction and float route of `lq_mean`.
    """
    q = Exponent.of(q)
    if q.is_inf:
        raise ValueError("oscillation requires a finite exponent")
    if q.integer() not in (1, 2):
        pairs, mu = on_set(tree, f, s)
        return lq_mean(pairs, sum((v * w for v, w in pairs), Fraction(0)) / mu, mu, q)
    lo, hi = s.depth_range()
    if hi < lo:
        raise ZeroMeasureError("cannot average over a set of measure 0")
    if index is None:
        index = SupportIndex(f)
    scaled, total = index.band(tree.m, s.root, lo, hi)
    # the mean is centre / (unit * total); count values in units of that
    centre = sum(num * w for num, w in scaled)
    return _lq_mean([(num * total, w) for num, w in scaled], centre, total, q, index.unit * total)


def oscillation_bound(tree: Tree, f: FinFunc, q) -> Callable[[Fraction, NormValue], bool]:
    """The test `holds(mu, best)`: True if the a-priori bound on any
    q-oscillation over a set of measure >= mu already fails to exceed `best`:

        oscillation <= (||f||_q^q / mu)^(1/q) + ||f||_1 / mu

    (triangle inequality against the zero function plus the mean bound).
    The norms of f are computed once, here.  Used to certify enumeration
    cutoffs; exact for q in {1, 2}.
    """
    q = Exponent.of(q)
    l1 = lp_power(tree, f, 1)
    if q.value == 1:
        # 2 * l1 / mu <= best, cross-multiplied in integers
        num, den = (2 * l1).as_integer_ratio()

        def holds1(mu: Fraction, best: NormValue) -> bool:
            b = best.as_fraction()
            return num * mu.denominator * b.denominator <= mu.numerator * b.numerator * den

        return holds1
    if q.value == 2:
        # sqrt(l2 / mu) + l1 / mu <= sqrt(best**2), in integers: with l1 = A/D,
        # l2 = B/D, mu = p/r and best**2 = u/w, it holds iff R >= 0 and
        # 4 A**2 B D r**3 w**2 p <= R**2, where R = u D**2 p**2 - w r (B D p + A**2 r)
        l2 = lp_power(tree, f, 2)
        den = math.lcm(l1.denominator, l2.denominator)
        a2 = (l1.numerator * (den // l1.denominator)) ** 2
        bd = l2.numerator * (den // l2.denominator) * den
        dd, k = den * den, 4 * a2 * bd

        def holds2(mu: Fraction, best: NormValue) -> bool:
            sq = best.sq
            p, r, u, w = mu.numerator, mu.denominator, sq.numerator, sq.denominator
            rest = u * dd * p * p - w * r * (bd * p + a2 * r)
            return rest >= 0 and k * r**3 * w * w * p <= rest * rest

        return holds2
    qf = float(q)
    lq = sum(
        abs(_frac_to_float(val)) ** qf * _frac_to_float(tree.weight(v))
        for v, val in f.items()
    )

    def holds(mu: Fraction, best: NormValue) -> bool:
        bound = (lq / _frac_to_float(mu)) ** (1.0 / qf) + _frac_to_float(l1 / mu)
        return bound <= best.as_float()

    return holds
