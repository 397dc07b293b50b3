"""BMO norms over the CZ family, the duality pairing bound, and the
Hörmander constant of finitely supported kernels.

The BMO_q norm of a finitely supported function is an exact supremum: sets
disjoint from the support oscillate by zero, so it is the sharp maximal
search of `maximal.sup_over_cz` run from every support vertex at once.
Candidates come from the shared stream `sets.rooted_bands` along the
father chains of the support, and each chain stops once the a-priori
oscillation bound at its minimal remaining measure cannot beat the running
best.  Functions represent their BMO class directly; the quotient by
constants shows up only as tested shift invariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .funcs import Exponent, FinFunc, NormValue, oscillation, pairing
from .maximal import CutoffCertificate, sup_over_cz
from .sets import CZSet, band_within, enlargement, member_count, ordered_members
from .tree import Tree, Vertex, Window, ancestor, level


@dataclass(frozen=True)
class BmoReport:
    value: NormValue
    q: Exponent
    witness: CZSet
    certificate: CutoffCertificate
    sets_evaluated: int


def bmo_norm(tree: Tree, f: FinFunc, q) -> BmoReport:
    """Exact supremum of q-oscillations of f over every CZ set.

    Exact for q in {1, 2}; other exponents run in approximate mode.  The
    certificate records the measure floor past which no set was evaluated
    together with the bound that makes the truncation lossless.
    """
    q = Exponent.of(q)
    if q.is_inf:
        raise ValueError("bmo_norm requires a finite exponent")
    if not f:
        witness = CZSet(Vertex(0, ()), 1, degenerate=True)
        return BmoReport(
            NormValue.zero(),
            q,
            witness,
            CutoffCertificate("zero function", None, None, 0),
            0,
        )
    best, certificate = sup_over_cz(
        tree, f, q, f.support(), lambda s: oscillation(tree, f, s, q)
    )
    evaluated = certificate.sets_evaluated
    return BmoReport(best.value, q, best.witness, certificate, evaluated)


def atom_pairing_bound_check(
    tree: Tree, f: FinFunc, a: FinFunc, s: CZSet
) -> tuple[bool, Fraction]:
    """Check |integral(f*a)| <= BMO_1 norm of f for a (1, inf)-atom a on s.

    Returns the truth value and the exact slack.  The atom is validated
    first; an invalid atom is an input error, not a counterexample.
    """
    from .hardy import is_atom

    ok, why = is_atom(tree, a, s, Exponent.of(None))
    if not ok:
        raise ValueError(f"not a (1,inf)-atom: {why}")
    lhs = abs(pairing(tree, f, a))
    norm = bmo_norm(tree, f, 1).value.as_fraction()
    return lhs <= norm, norm - lhs


# ---------------------------------------------------------------------------
# Hörmander condition for finitely supported kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelWindow:
    """A kernel K(y, x) with finite support, valid on a declared window."""

    entries: tuple[tuple[Vertex, Vertex, Fraction], ...]
    window: Window

    @classmethod
    def from_mapping(cls, mapping, window: Window) -> "KernelWindow":
        items = tuple(
            (y, x, Fraction(v)) for (y, x), v in sorted(mapping.items()) if v
        )
        return cls(items, window)

    def rows(self) -> dict[Vertex, dict[Vertex, Fraction]]:
        out: dict[Vertex, dict[Vertex, Fraction]] = {}
        for y, x, v in self.entries:
            out.setdefault(y, {})[x] = v
        return out

    def x_support(self) -> set[Vertex]:
        return {x for _, x, _ in self.entries}


class DomainError(ValueError):
    """Raised when a computation would need vertices beyond a declared window."""


@dataclass(frozen=True)
class HormanderResult:
    value: Fraction
    witness_set: CZSet | None
    witness_pair: tuple[Vertex, Vertex] | None
    sets_checked: int
    note: str = "complement restricted to the kernel's declared support"


def hormander_constant(
    tree: Tree, kernel: KernelWindow, family: Sequence[CZSet]
) -> HormanderResult:
    """max over the family of sup_{y,z in S} integral over the complement of
    the enlargement of |K(y, .) - K(z, .)|.

    Exact whenever the kernel is genuinely supported where declared: off
    the declared x-support the integrand vanishes, so the complement
    integral is a finite sum.  Every set, its enlargement, and the kernel
    support must fit the declared window.

    Only the kernel rows restricted to the complement matter, and every
    member whose restricted row vanishes carries the zero row, so the sup
    over member pairs is a sup over the distinct restricted rows plus the
    zero row: O(k^2) in the k kernel rows inside S.  The pairs evaluated
    are every pair of nonzero rows and, for each nonzero row, its pair with
    the first zero-row member; later zero-row pairs repeat that value and
    zero-zero pairs vanish, so visiting these pairs in (y, z) member order
    with a strict > gives the value and witness of a scan of all pairs.

    The arithmetic is in integers.  Each set's integer depth bands are
    found once, so membership in the set or its enlargement is a level
    difference checked against a band, then one ancestor compared with the
    root.  Each entry K(y, x) * mu({x}) is kept as an integer over one
    common denominator, so pair totals add and compare as integers, and
    the value is formed once at the end.
    """
    win = kernel.window
    for x in kernel.x_support():
        if not win.contains(x):
            raise DomainError(f"kernel x-support vertex {x} escapes the window")
    weighted = []
    unit = 1  # not lcm(*generator), as in funcs.oscillation
    for y, x, val in kernel.entries:
        w = val * tree.weight(x)
        weighted.append((y, x, w))
        unit = math.lcm(unit, w.denominator)
    rows: dict[Vertex, dict[Vertex, int]] = {}
    for y, x, w in weighted:
        rows.setdefault(y, {})[x] = w.numerator * (unit // w.denominator)
    best = 0
    best_set: CZSet | None = None
    best_pair: tuple[Vertex, Vertex] | None = None
    for s in family:
        grown = enlargement(s)
        if not band_within(s, win):
            raise DomainError(f"{s} escapes the declared window")
        if not band_within(grown, win):
            raise DomainError(f"enlargement of {s} escapes the declared window")
        if member_count(tree, s) > 200_000:
            raise DomainError(f"{s} is too large to scan pairwise")
        root = s.root
        top = level(root)
        lo, hi = s.depth_range()
        g_lo, g_hi = grown.depth_range()
        # each member's kernel row off the enlargement, where it is nonzero
        restricted = {}
        for y, row in rows.items():
            d = top - level(y)
            if lo <= d <= hi and ancestor(y, d) == root:
                r = {}
                for x, w in row.items():
                    dx = top - level(x)
                    if w and not (g_lo <= dx <= g_hi and ancestor(x, dx) == root):
                        r[x] = w
                if r:
                    restricted[y] = r
        if not restricted:
            continue
        zero = next((v for v in ordered_members(tree, s) if v not in restricted), None)
        # Vertex tuples order as (anchor, word), the member order of the pairs
        order = sorted(restricted if zero is None else [*restricted, zero])
        empty: dict[Vertex, int] = {}
        for i, y in enumerate(order):
            row_y = restricted.get(y, empty)
            for z in order[i + 1 :]:
                row_z = restricted.get(z, empty)
                keys = row_y.keys() | row_z.keys()
                total = sum(abs(row_y.get(x, 0) - row_z.get(x, 0)) for x in keys)
                if total > best:
                    best, best_set, best_pair = total, s, (y, z)
    return HormanderResult(Fraction(best, unit), best_set, best_pair, len(family))
