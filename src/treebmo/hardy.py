"""Atomic Hardy-space machinery: atom validation, good/bad splits at
threshold 2**j, telescoping atomic decompositions, and two-sided norm
estimation (an exact LP gauge from above, a duality quotient from below).

The good/bad split materializes the level set of the maximal function as
an exact vertex set, covers it with inclusion-maximal disjoint admissible
trapezoids, and peels one zero-integral piece per trapezoid envelope.  Any
construction satisfying the four split contracts is acceptable; the
contracts themselves are re-verified on every run:

  (b1) the trapezoids sit inside the level set and their envelopes cover it,
  (b2) the function is exactly the good part plus the bad pieces, each
       piece supported in its envelope,
  (b3) the good part is uniformly small at the 2**j scale (reported ratio),
  (b4) every bad piece has zero integral and controlled Lq size (reported
       ratio).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .funcs import (
    Exponent,
    FinFunc,
    integral,
    lp_norm,
    lp_power,
    lq_mean,
    pairing,
)
from .maximal import CutoffCertificate, hl_maximal, maximal_level_set
from .sets import (
    AdmissibleTrapezoid,
    CZSet,
    band_within,
    cz_measure,
    envelope,
    member_count,
    members,
    ordered_members,
    set_measure,
    smallest_enclosing_cz,
    witness_key,
)
from .simplex import InfeasibleError, solve_lp
from .tree import Tree, Vertex, ancestor, check_power, father, level


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    function: FinFunc
    set: CZSet
    p: Exponent


def is_atom(tree: Tree, f: FinFunc, s: CZSet, p) -> tuple[bool, str | None]:
    """Validate the three atom clauses: support in the set, zero integral,
    and Lp norm at most measure**(1/p - 1).  Exact for p in {1, 2, inf};
    the first violated clause is named in the diagnostic."""
    p = Exponent.of(p)
    for v in f.support():
        if not s.contains(v):
            return False, f"support vertex {v} is outside {s}"
    if integral(tree, f) != 0:
        return False, f"integral is {integral(tree, f)}, not zero"
    mu = cz_measure(tree, s)
    # measure**(1/p - 1) is the Lp norm of the constant 1/measure on s
    norm, bound = lp_norm(tree, f, p), lq_mean([(1 / mu, mu)], 0, 1, p)
    if norm > bound:
        name = "sup norm" if p.is_inf else f"L{p} norm"
        return False, f"{name} {norm} exceeds measure**(1/p - 1) = {bound}"
    return True, None


def normalize_to_atom(tree: Tree, g: FinFunc, s: CZSet) -> tuple[Atom, Fraction]:
    """Scale a zero-integral function supported in s to a (1, inf)-atom.

    Returns (a, lam) with g = lam * a and lam = measure(s) * sup|g|; the
    resulting atom meets its size bound with equality.
    """
    if not g:
        raise ValueError("cannot normalize the zero function")
    for v in g.support():
        if not s.contains(v):
            raise ValueError(f"support vertex {v} escapes {s}")
    if integral(tree, g) != 0:
        raise ValueError(f"integral is {integral(tree, g)}, not zero")
    lam = cz_measure(tree, s) * g.max_abs()
    atom = Atom(g.scaled(1 / lam), s, Exponent.of(None))
    return atom, lam


# ---------------------------------------------------------------------------
# good/bad split at scale 2**j
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoodBadSplit:
    level_j: int
    q: int
    good: FinFunc
    bad_parts: tuple[tuple[FinFunc, AdmissibleTrapezoid], ...]
    omega: frozenset[Vertex]
    certificate: CutoffCertificate
    c_good: Fraction  # max |good| / 2**j
    c_bad_qpow: Fraction  # max ||b||_q^q / (2**(jq) * measure(envelope))

    @property
    def c_bad(self) -> float:
        return float(self.c_bad_qpow) ** (1.0 / self.q)


def admissible_trapezoids_within(
    tree: Tree, omega: frozenset[Vertex]
) -> list[AdmissibleTrapezoid]:
    """Every admissible trapezoid all of whose members lie in omega.

    The level t below a root is complete when m**t omega vertices sit t
    levels below it, so no level deeper than t_max = log_m |omega| is
    complete.  The counts come from one climb of the father chains to
    height t_max, the counts at height t + 1 being the counts at height t
    summed onto their fathers.
    """
    if not omega:
        return []
    cands = [AdmissibleTrapezoid(w, 1, degenerate=True) for w in omega]
    t_max = 0
    while tree.m ** (t_max + 1) <= len(omega):
        t_max += 1
    complete: dict[Vertex, set[int]] = {}
    counts = dict.fromkeys(omega, 1)
    for t in range(1, t_max + 1):
        climbed: dict[Vertex, int] = {}
        for v, cnt in counts.items():
            u = father(v)
            climbed[u] = climbed.get(u, 0) + cnt
        counts = climbed
        full = tree.m**t
        for r, cnt in counts.items():
            if cnt == full:
                complete.setdefault(r, set()).add(t)
    for r, depths in complete.items():
        for h in sorted(depths):
            if all(d in depths for d in range(h + 1, 2 * h)):
                cands.append(AdmissibleTrapezoid(r, h))
    return cands


def select_maximal_disjoint(
    tree: Tree, candidates: list[AdmissibleTrapezoid]
) -> list[AdmissibleTrapezoid]:
    """Inclusion-maximal candidates, made disjoint by a top-down greedy sweep.

    Roots are processed from the highest level down; a maximal candidate
    rejected for overlapping an earlier pick is wholly inside that pick's
    envelope (two overlapping trapezoids have comparable roots, and the
    lower one's depth band maps into the upper one's envelope band), which
    is what makes the envelopes of the selection cover the original set.

    Both tests walk the candidate's father chain once with `father`: a
    candidate is maximal when no other candidate rooted on that chain
    contains it, and it overlaps an earlier pick only if that pick is
    rooted on the chain (an earlier pick sits no lower), so each test
    compares depth bands shifted by the gap to the root looked up.
    """
    bands: dict[Vertex, list[tuple[int, int]]] = {}
    for s in candidates:
        bands.setdefault(s.root, []).append(s.depth_range())
    top = max((s.depth_range()[1] for s in candidates), default=0)

    def covered(r: AdmissibleTrapezoid) -> bool:
        # a superset of r is rooted g levels above r with its band reaching
        # depth hi(r) + g, so g never exceeds top - hi(r); at g = 0 it is
        # another candidate at the same root, so its band differs from r's
        lo, hi = r.depth_range()
        root = r.root
        for g in range(top - hi + 1):
            for s_lo, s_hi in bands.get(root, ()):
                if s_lo <= lo + g and hi + g <= s_hi and (g or (s_lo, s_hi) != (lo, hi)):
                    return True
            root = father(root)
        return False

    maximal = [r for r in candidates if not covered(r)]
    maximal.sort(key=lambda r: (-level(r.root), witness_key(tree, r)))
    selected: list[AdmissibleTrapezoid] = []
    picked: dict[Vertex, list[tuple[int, int]]] = {}
    for r in maximal:
        # a pick overlapping r reaches depth lo(r) + g <= top below its root
        lo, hi = r.depth_range()
        root = r.root
        for g in range(top - lo + 1):
            if any(max(lo + g, s_lo) <= min(hi + g, s_hi) for s_lo, s_hi in picked.get(root, ())):
                break
            root = father(root)
        else:
            selected.append(r)
            picked.setdefault(r.root, []).append((lo, hi))
    return selected


# 2**14_284 has 4 300 decimal digits, the most CPython prints by default
MAX_THRESHOLD_BITS = 14_284


def _integer_power(g: FinFunc, q) -> tuple[int, FinFunc]:
    """(q, |g|**q) for an integer exponent q >= 2, the exponents for which
    |g|**q and the thresholds 2**(jq) stay rational.  A power too long to
    print is refused before it is formed."""
    qi = Exponent.of(q).integer()
    if qi is None or qi < 2:
        raise ValueError("good/bad splits require an integer exponent q >= 2")
    for _, val in g.items():
        for n in (abs(val.numerator), val.denominator):
            if n > 1:
                check_power(n, qi)
    return qi, FinFunc({v: abs(val) ** qi for v, val in g.items()})


def _threshold(j: int, qi: int) -> Fraction:
    """2**(jq), refused before it is formed when |jq| passes MAX_THRESHOLD_BITS."""
    if abs(j * qi) > MAX_THRESHOLD_BITS:
        raise ValueError(
            f"threshold 2**{j * qi} is too large to print: |jq| exceeds {MAX_THRESHOLD_BITS}"
        )
    return Fraction(2) ** (j * qi)


def good_bad_split(tree: Tree, g: FinFunc, q, j: int) -> GoodBadSplit:
    """Split g at threshold 2**j against the maximal function of |g|**q.

    q must be an integer >= 2 so that |g|**q and the level-set threshold
    2**(jq) stay rational and the whole construction is exact.  A level
    set larger than `maximal.MAX_LEVEL_SET` vertices raises
    EnumerationError rather than truncating silently.  A threshold whose
    exponent |jq| passes MAX_THRESHOLD_BITS raises ValueError before
    2**(jq) is formed.
    """
    qi, phi = _integer_power(g, q)
    lam = _threshold(j, qi)
    scale = Fraction(2) ** j
    omega, certificate = maximal_level_set(tree, phi, lam)
    selected = select_maximal_disjoint(
        tree, admissible_trapezoids_within(tree, omega)
    )
    envelopes = [envelope(r) for r in selected]
    bad_parts: list[tuple[FinFunc, AdmissibleTrapezoid]] = []
    assigned: set[Vertex] = set()
    for r, env in zip(selected, envelopes):
        region = [
            (v, val)
            for v, val in g.items()
            if v not in assigned and env.contains(v)
        ]
        assigned.update(v for v, _ in region)
        mass = sum((val * tree.weight(v) for v, val in region), Fraction(0))
        balance = mass / set_measure(tree, r)
        piece = FinFunc(region) - FinFunc(
            {v: balance for v in members(tree, r)} if balance else {}
        )
        bad_parts.append((piece, r))
    good = g.added((piece for piece, _ in bad_parts), -1)

    _verify_split_contracts(tree, g, good, bad_parts, envelopes, omega)

    c_good = good.max_abs() / scale
    c_bad_qpow = Fraction(0)
    for (piece, r), env in zip(bad_parts, envelopes):
        if piece:
            ratio = lp_power(tree, piece, qi) / (lam * cz_measure(tree, env))
            c_bad_qpow = max(c_bad_qpow, ratio)
    return GoodBadSplit(
        j,
        qi,
        good,
        tuple(bad_parts),
        omega,
        certificate,
        c_good,
        c_bad_qpow,
    )


def _verify_split_contracts(tree, g, good, bad_parts, envelopes, omega) -> None:
    traps = [r for _, r in bad_parts]
    # overlapping bands have comparable roots, and the upper root is at most
    # `top` levels above the lower one: walk each trapezoid's father chain
    # against the trapezoids keyed by root, then name the first pair
    by_root: dict[Vertex, list[tuple[int, int, int]]] = {}
    for i, r in enumerate(traps):
        by_root.setdefault(r.root, []).append((i, *r.depth_range()))
    top = max((r.depth_range()[1] for r in traps), default=0)
    clashes = []
    for i, r in enumerate(traps):
        lo, hi = r.depth_range()
        root = r.root
        for gap in range(top - lo + 1):
            for k, s_lo, s_hi in by_root.get(root, ()):
                if k != i and max(lo + gap, s_lo) <= min(hi + gap, s_hi):
                    clashes.append((min(i, k), max(i, k)))
            root = father(root)
    if clashes:
        i, k = min(clashes)
        raise AssertionError(f"selected trapezoids {traps[i]} and {traps[k]} overlap")
    listed = []
    for piece, r in bad_parts:
        mem = set(members(tree, r))
        if not mem <= omega:
            raise AssertionError(f"selected trapezoid {r} leaves the level set")
        if integral(tree, piece) != 0:
            raise AssertionError("bad piece has nonzero integral")
        listed.append(mem)
    # a trapezoid whose band lies in its envelope's band puts every listed
    # member inside that envelope; only the other vertices are looked up
    held: set[Vertex] = set()
    for (piece, r), env, mem in zip(bad_parts, envelopes, listed):
        inside = mem if band_within(r, env) else set()
        for v, _ in piece.items():
            if v not in inside and not env.contains(v):
                raise AssertionError("bad piece escapes its envelope")
        held |= inside
    # any other w is covered when its ancestor at some envelope root level
    # roots an envelope whose band holds w's depth below it
    env_bands: dict[Vertex, list[tuple[int, int]]] = {}
    for e in envelopes:
        env_bands.setdefault(e.root, []).append(e.depth_range())
    root_levels = sorted({level(e.root) for e in envelopes})
    for w in omega:
        if w in held:
            continue
        lw = level(w)
        if not any(
            lo <= lr - lw <= hi
            for lr in root_levels
            if lr >= lw
            for lo, hi in env_bands.get(ancestor(w, lr - lw), ())
        ):
            raise AssertionError(f"level-set vertex {w} is not covered by an envelope")
    if good.added(piece for piece, _ in bad_parts) != g:
        raise AssertionError("good + bad does not reconstruct the function")


# ---------------------------------------------------------------------------
# telescoping upper bound for the atomic norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelescopingResult:
    upper: Fraction
    pieces: tuple[tuple[Fraction, Atom], ...]
    j_min: int
    j_max: int
    c_good_max: Fraction
    c_bad_qpow_max: Fraction


def telescoping_h1_upper(tree: Tree, g: FinFunc, q) -> TelescopingResult:
    """An explicit validated atomic decomposition of g, hence an upper bound
    for its atomic norm.

    Splits run over the finite range of thresholds between 2**j_max (above
    the sup of the maximal function, where the level set is empty) and
    2**j_min (below the maximal function everywhere on the support, so the
    level set swallows the support).  The decomposition is assembled from
    the bottom split: one normalized atom per bad piece, plus one atom for
    the leftover good part on its smallest enclosing CZ set.  The pieces
    sum to g exactly.
    """
    qi, phi = _integer_power(g, q)
    if integral(tree, g) != 0:
        raise ValueError("only zero-integral functions admit atomic decompositions")
    if not g:
        return TelescopingResult(Fraction(0), (), 0, 0, Fraction(0), Fraction(0))
    j_max = _ceil_log2(g.max_abs())
    min_m = min(
        hl_maximal(tree, phi, u).value.as_fraction() for u in g.support()
    )
    j_min = j_max
    while _threshold(j_min, qi) >= min_m:
        j_min -= 1
    splits = [good_bad_split(tree, g, qi, j) for j in range(j_min, j_max)]
    base = splits[0]
    pieces: list[tuple[Fraction, Atom]] = []
    for piece, r in base.bad_parts:
        if piece:
            atom, lam = normalize_to_atom(tree, piece, envelope(r))
            pieces.append((lam, atom))
    if base.good:
        holder = smallest_enclosing_cz(tree, base.good.support())
        atom, lam = normalize_to_atom(tree, base.good, holder)
        pieces.append((lam, atom))
    recombined = FinFunc()
    for lam, atom in pieces:
        ok, why = is_atom(tree, atom.function, atom.set, atom.p)
        if not ok:
            raise AssertionError(f"emitted piece fails atom validation: {why}")
        recombined = recombined + atom.function.scaled(lam)
    if recombined != g:
        raise AssertionError("atomic pieces do not sum back to the function")
    return TelescopingResult(
        sum((lam for lam, _ in pieces), Fraction(0)),
        tuple(pieces),
        j_min,
        j_max,
        max(s.c_good for s in splits),
        max(s.c_bad_qpow for s in splits),
    )


def _ceil_log2(x: Fraction) -> int:
    """Smallest integer j with 2**j >= x, for x > 0."""
    j = x.numerator.bit_length() - x.denominator.bit_length() + 1
    while Fraction(2) ** j >= x:
        j -= 1
    return j + 1


# ---------------------------------------------------------------------------
# exact LP gauge: the atomic norm restricted to a finite CZ family
# ---------------------------------------------------------------------------


MAX_FAMILY = 64
MAX_UNIVERSE = 512
MAX_CANDIDATES = 10_000  # duality candidates `cli h1 --candidates` may build
MAX_HORMANDER_FAMILY = 10_000  # CZ sets `cli hormander --family auto:` may scan


@dataclass(frozen=True)
class GaugeResult:
    value: Fraction
    pieces: tuple[tuple[Fraction, Atom], ...]
    family: tuple[CZSet, ...]


def h1_lp_gauge(tree: Tree, g: FinFunc, family: Sequence[CZSet]) -> GaugeResult:
    """min sum(t_S) over decompositions g = sum(b_S) with b_S supported in S,
    zero integral, and |b_S| <= t_S / measure(S): the (1, inf)-atomic gauge
    over the given family.

    A one-set family forces b_S = g, so the gauge is measure(S) * max|g|
    with the single piece g / t: the simplex's own optimum, returned in
    closed form without listing the members of S.  Larger families are
    solved by exact rational simplex.  Every set's member count is checked
    against MAX_UNIVERSE in closed form before any member is listed.

    An upper bound for the atomic norm that can only decrease as the
    family grows.  Raises InfeasibleError when no decomposition exists
    (support not covered, nonzero integral, or no zero-integral routing).
    """
    fam = list(dict.fromkeys(family))
    if not fam:
        raise ValueError("family must be nonempty")
    if len(fam) > MAX_FAMILY:
        raise ValueError(f"family size {len(fam)} exceeds the cap {MAX_FAMILY}")
    if integral(tree, g) != 0:
        raise InfeasibleError("nonzero integral: no atomic decomposition exists")
    count = max(member_count(tree, s) for s in fam)
    if count > MAX_UNIVERSE:
        raise ValueError(f"{count} member vertices exceed the cap {MAX_UNIVERSE}")
    if len(fam) > 1:
        return _gauge_lp(tree, g, fam)
    (s,) = fam
    for v in g.support():
        if not s.contains(v):
            raise InfeasibleError(f"support vertex {v} is covered by no family set")
    if not g:
        return GaugeResult(Fraction(0), (), (s,))
    t = cz_measure(tree, s) * g.max_abs()
    return GaugeResult(t, ((t, Atom(g.scaled(1 / t), s, Exponent.of(None))),), (s,))


def _gauge_lp(tree: Tree, g: FinFunc, fam: list[CZSet]) -> GaugeResult:
    """The gauge's exact LP over a de-duplicated nonempty family, for a
    zero-integral g.

    Of the n (set i, member v) pairs, listed set by set in Vertex order,
    pair k owns the columns k and n + k (b_i(v) is their difference) and
    the slack 2n + k, and set i owns t_i at 3n + i.  The rows are g's
    value at each vertex of the universe (the union of the sets, in Vertex
    order), the zero integral of each b_i, and
    measure(S_i) (p + n) + slack = t_i for each pair; the cost is the sum
    of the t_i.
    """
    pairs = [(i, v) for i, s in enumerate(fam) for v in ordered_members(tree, s)]
    universe = sorted({v for _, v in pairs})
    if len(universe) > MAX_UNIVERSE:
        raise ValueError(f"{len(universe)} member vertices exceed the cap {MAX_UNIVERSE}")
    value_row = {v: r for r, v in enumerate(universe)}
    for v in g.support():
        if v not in value_row:
            raise InfeasibleError(f"support vertex {v} is covered by no family set")

    n, nsets, nvalues = len(pairs), len(fam), len(universe)
    zero, one = Fraction(0), Fraction(1)
    rows = [[zero] * (3 * n + nsets) for _ in range(nvalues + nsets + n)]
    measures = [cz_measure(tree, s) for s in fam]
    for k, (i, v) in enumerate(pairs):
        w = tree.weight(v)
        value, mass, bound = rows[value_row[v]], rows[nvalues + i], rows[nvalues + nsets + k]
        value[k], value[n + k] = one, -one
        mass[k], mass[n + k] = w, -w
        bound[k] = bound[n + k] = measures[i]
        bound[2 * n + k], bound[3 * n + i] = one, -one
    rhs = [g.at(v) for v in universe] + [zero] * (nsets + n)
    sol = solve_lp(rows, rhs, [zero] * (3 * n) + [one] * nsets)

    x = sol.x
    parts: list[dict[Vertex, Fraction]] = [{} for _ in fam]
    for k, (i, v) in enumerate(pairs):
        parts[i][v] = x[k] - x[n + k]
    pieces: list[tuple[Fraction, Atom]] = []
    for i, (s, part) in enumerate(zip(fam, parts)):
        b, t = FinFunc(part), x[3 * n + i]
        if b and t:
            pieces.append((t, Atom(b.scaled(1 / t), s, Exponent.of(None))))
    return GaugeResult(sol.objective, tuple(pieces), tuple(fam))


# ---------------------------------------------------------------------------
# duality lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualityLower:
    """The duality lower bound: its value, the candidate attaining it (None
    while it is 0), and `skipped`, the count of zero candidates, which are
    the candidates of BMO_1 norm 0 (see `h1_duality_lower`)."""

    value: Fraction
    witness: FinFunc | None
    skipped: int


@dataclass(frozen=True)
class H1Estimate:
    lower: DualityLower
    upper: GaugeResult

    @property
    def gap_ratio(self) -> float | None:
        if self.lower.value == 0:
            return None
        return float(self.upper.value / self.lower.value)


def h1_duality_lower(
    tree: Tree, g: FinFunc, candidates: Sequence[FinFunc]
) -> DualityLower:
    """max over candidates f of |integral(f g)| / BMO_1(f): every pairing is
    bounded by the atomic norm times the BMO norm, so this quotient bounds
    the atomic norm of g from below, constant-free.

    Each candidate is paired with g first, and only a nonzero pairing runs
    the BMO search: a quotient with a zero numerator is 0 whatever the norm
    is, and never beats the running best, which starts at 0.  A nonzero
    finitely supported f has BMO_1(f) > 0: the CZ sets holding a vertex grow
    without bound, so some CZ set holds a support vertex and more than
    |supp f| members; f is nonzero at the one and 0 at a member off the
    support, so it is not constant there and oscillates.  So the zero
    candidates are exactly those of norm 0, and `skipped` counts them
    without a search.
    """
    from .bmo import bmo_norm

    if integral(tree, g) != 0:
        raise ValueError("duality lower bound needs a zero-integral function")
    best = Fraction(0)
    witness: FinFunc | None = None
    skipped = 0
    for f in candidates:
        if not f:
            skipped += 1
            continue
        paired = abs(pairing(tree, f, g))
        if not paired:
            continue
        ratio = paired / bmo_norm(tree, f, 1).value.as_fraction()
        if ratio > best:
            best, witness = ratio, f
    return DualityLower(best, witness, skipped)


def h1_estimate(
    tree: Tree, g: FinFunc, family: Sequence[CZSet], candidates: Sequence[FinFunc]
) -> H1Estimate:
    lower = h1_duality_lower(tree, g, candidates)
    upper = h1_lp_gauge(tree, g, family)
    if lower.value > upper.value:
        raise AssertionError(
            f"duality lower bound {lower.value} exceeds the gauge {upper.value}"
        )
    return H1Estimate(lower, upper)
