"""BMO norms over the CZ family, the duality pairing bound, and the
Hörmander constant of finitely supported kernels.

The BMO_q norm of a finitely supported function is an exact supremum: sets
disjoint from the support oscillate by zero, so it is the sharp maximal
search of `maximal.sup_over_cz` run from every support vertex at once.
Candidates come from the shared stream `sets.rooted_bands` along the
father chains of the support, and each chain stops once `maximal.sharp_rule`,
the a-priori oscillation bound at its least measure, cannot beat the
running best.  Functions represent their BMO class directly; the quotient
by constants shows up only as tested shift invariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .funcs import Exponent, FinFunc, NormValue, SupportIndex, oscillation, pairing
from .maximal import CutoffCertificate, sharp_rule, sup_over_cz
from .sets import CZSet, enlargement_depth_range, ordered_members
from .tree import Tree, Vertex, Window, depth_below, level


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
    together with the bound that makes the truncation lossless.  Every set
    is valued by `oscillation` through one `SupportIndex` of f.
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
    index = SupportIndex(f)
    rule = sharp_rule(tree, f, q)
    best, certificate = sup_over_cz(
        tree, rule, f.support(), lambda s: oscillation(tree, f, s, q, index=index)
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

    One call runs in integers: each entry K(y, x) * mu({x}) is an integer
    over one unit, a common multiple of val.denominator * m**(-level(x)),
    and the value is formed once at the end.  Membership of a row y in S,
    and of an entry x in S's enlargement (its band widened by (h - 1) // 4),
    is one `depth_below` from the coordinates, checked against the band.  A
    pair whose two restricted rows have L1 norms summing to at most the
    running best cannot pass it and is skipped.
    """
    win = kernel.window
    for x in kernel.x_support():
        if not win.contains(x):
            raise DomainError(f"kernel x-support vertex {x} escapes the window")
    m = tree.m
    unit = math.lcm(*(v.denominator * m ** max(0, -level(x)) for _, x, v in kernel.entries))
    rows: dict[Vertex, dict[Vertex, int]] = {}
    for y, x, val in kernel.entries:
        if val:
            lvl = level(x)
            w = val.numerator * (unit // val.denominator)
            rows.setdefault(y, {})[x] = w * m**lvl if lvl >= 0 else w // m**-lvl
    best = 0
    best_set: CZSet | None = None
    best_pair: tuple[Vertex, Vertex] | None = None
    for s in family:
        root = s.root
        lo, hi = s.depth_range()
        g_lo, g_hi = enlargement_depth_range(s)
        # both bands start at depth >= 0 below the root: only their bottoms can escape
        gap = depth_below(root, win.root)
        if gap is None or gap + hi > win.depth:
            raise DomainError(f"{s} escapes the declared window")
        if gap + g_hi > win.depth:
            raise DomainError(f"enlargement of {s} escapes the declared window")
        # each member's kernel row off the enlargement, where it is nonzero
        restricted = {}
        for y, row in rows.items():
            d = depth_below(y, root)
            if d is not None and lo <= d <= hi:
                r = {}
                for x, w in row.items():
                    dx = depth_below(x, root)
                    if dx is None or not g_lo <= dx <= g_hi:
                        r[x] = w
                if r:
                    restricted[y] = r
        if not restricted:
            continue
        zero = next((v for v in ordered_members(tree, s) if v not in restricted), None)
        if zero is not None:
            restricted[zero] = {}
        # Vertex tuples order as (anchor, word), the member order of the pairs
        order = sorted((y, r, sum(map(abs, r.values()))) for y, r in restricted.items())
        for i, (y, row_y, norm_y) in enumerate(order):
            for z, row_z, norm_z in order[i + 1 :]:
                if norm_y + norm_z > best:
                    keys = row_y.keys() | row_z.keys()
                    total = sum(abs(row_y.get(x, 0) - row_z.get(x, 0)) for x in keys)
                    if total > best:
                        best, best_set, best_pair = total, s, (y, z)
    return HormanderResult(Fraction(best, unit), best_set, best_pair, len(family))
