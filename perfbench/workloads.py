"""The three benchmark workloads.

A workload turns (seed, index) into the input of one instance, runs the
instance through the public functions of treebmo, and renders the JSON
report a command-line user would wait for.  Outside the timed region it
also names the mathematical answer inside that report (what the digest
covers) and checks the answer against an independent route: the
brute-force oracles, a closed form, or the split contracts re-derived.

Inputs come from `randgen.nonzero_function`, keyed by (seed, kind, index),
so the same seed always gives the same instances.  The instance schedule
(which shape index i gets) is fixed; only the functions depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from treebmo import bmo, bruteforce, hardy, jsonio, maximal, randgen, sets
from treebmo.funcs import integral, lp_power
from treebmo.tree import Tree, Vertex, Window, father, format_vertex

T2 = Tree(2)
T3 = Tree(3)

# The warm-up instance run during set-up: an index far past any a run reaches,
# under a fixed seed, so that set-up time does not depend on --seed.
WARMUP_SEED = 0
WARMUP_INDEX = 1_000_000


def ceil_log2(x: Fraction) -> int:
    """Smallest integer j with 2**j >= x, for x > 0."""
    j = x.numerator.bit_length() - x.denominator.bit_length() - 1
    while Fraction(2) ** j < x:
        j += 1
    return j


def _cert(c: dict) -> dict:
    return {"rule": c["rule"], "measure_bound": c["measure_bound"]}


def _sup(r: dict) -> dict:
    """The answer part of a supremum report: value, witness, certificate rule and bound."""
    return {"value": r["value"], "witness": r["witness"], "certificate": _cert(r["certificate"])}


class BmoField:
    """BMO_1 and BMO_2 norms, the sharp field at q = 1 and a few
    Hardy-Littlewood values of sparse functions (at most 5 support
    vertices), plus the Hörmander constant of a seeded sparse kernel over
    every non-degenerate CZ set of height <= 2 inside the window
    root=4:,depth=7 (32 sets)."""

    name = "bmo-field"
    digested = 24
    checked = 6
    hl_points = 3
    # (tree, function window, sharp-field window); every third instance uses m = 3.
    grids = (
        (T2, Window(Vertex(3, ()), 6), Window(Vertex(3, ()), 4)),
        (T3, Window(Vertex(2, ()), 4), Window(Vertex(2, ()), 4)),
    )
    kernel_window = Window(Vertex(4, ()), 7)
    kernel_h_max = 2
    kernel_rows = 24

    def __init__(self, seed: int):
        self.seed = seed
        self.points = [field.members(tree) for tree, _, field in self.grids]
        self.family = bruteforce.cz_in_window(
            T2, self.kernel_window, self.kernel_h_max, include_degenerate=False
        )
        self.kernel_points = self.kernel_window.members(T2)

    def make(self, i: int):
        g = 1 if i % 3 == 2 else 0
        tree, win, field = self.grids[g]
        f = randgen.nonzero_function(tree, win, self.seed, "sparse", i)
        pts = random.Random(f"{self.seed}:hl:{i}").sample(self.points[g], self.hl_points)
        return tree, f, field, pts, self.make_kernel(i)

    def make_kernel(self, i: int) -> bmo.KernelWindow:
        ys = random.Random(f"{self.seed}:kernel:{i}").sample(self.kernel_points, self.kernel_rows)
        entries = {}
        for k, y in enumerate(ys):
            row = randgen.nonzero_function(
                T2, self.kernel_window, self.seed, "sparse", self.kernel_rows * i + k
            )
            for x, val in row.items():
                entries[(y, x)] = val
        return bmo.KernelWindow.from_mapping(entries, self.kernel_window)

    def compute(self, inp):
        tree, f, field, pts, kernel = inp
        phi = abs(f)
        return (
            bmo.bmo_norm(tree, f, 1),
            bmo.bmo_norm(tree, f, 2),
            maximal.sharp_field(tree, f, 1, field),
            {x: maximal.hl_maximal(tree, phi, x) for x in pts},
            bmo.hormander_constant(T2, kernel, self.family),
        )

    def render(self, inp, res) -> dict:
        tree = inp[0]
        b1, b2, field, hl, horm = res
        return {
            "bmo_1": jsonio.bmo_report_json(tree, b1),
            "bmo_2": jsonio.bmo_report_json(tree, b2),
            "sharp": {format_vertex(x): jsonio.maximal_json(tree, r) for x, r in field.items()},
            "maximal": {format_vertex(x): jsonio.maximal_json(tree, r) for x, r in hl.items()},
            "hormander": jsonio.hormander_json(T2, horm),
        }

    def answer(self, report: dict) -> dict:
        horm = report["hormander"]
        return {
            "bmo_1": _sup(report["bmo_1"]),
            "bmo_2": _sup(report["bmo_2"]),
            "sharp": {x: _sup(r) for x, r in report["sharp"].items()},
            "maximal": {x: _sup(r) for x, r in report["maximal"].items()},
            "hormander": {k: horm[k] for k in ("value", "witness_set", "witness_pair")},
        }

    def check(self, inp, res) -> list[str]:
        tree, f, _, pts, kernel = inp
        b1, b2, field, hl, horm = res
        phi = abs(f)
        errors = []
        for q, r in ((1, b1), (2, b2)):
            if not r.value.eq_value(bruteforce.bmo_norm_oracle(tree, f, q)):
                errors.append(f"bmo_norm q={q} disagrees with the oracle")
        for x in pts[:2]:
            if not field[x].value.eq_value(bruteforce.sharp_maximal_oracle(tree, f, 1, x)):
                errors.append(f"sharp maximal at {x} disagrees with the oracle")
            if hl[x].value.as_fraction() != bruteforce.hl_maximal_oracle(tree, phi, x):
                errors.append(f"hl maximal at {x} disagrees with the oracle")
        best = _hormander_double_loop(kernel, self.family)
        if best != horm.value:
            errors.append(f"Hörmander constant {horm.value} differs from the double loop's {best}")
        return errors


def _hormander_double_loop(kernel, family) -> Fraction:
    """The Hörmander supremum by a plain double loop over member pairs, with
    the enlargement grown breadth-first."""
    rows = kernel.rows()
    best = Fraction(0)
    for s in family:
        enlarged = bruteforce.enlargement_by_bfs(T2, s)
        mem = list(sets.members(T2, s))
        for y in mem:
            ry = rows.get(y, {})
            for z in mem:
                rz = rows.get(z, {})
                if not ry and not rz:
                    continue
                total = sum(
                    (
                        abs(ry.get(x, 0) - rz.get(x, 0)) * T2.weight(x)
                        for x in set(ry) | set(rz)
                        if x not in enlarged
                    ),
                    Fraction(0),
                )
                best = max(best, total)
    return best


class H1Gauge:
    """Two-sided atomic-norm estimate of zero-integral atom-combo functions:
    the exact LP gauge over a small CZ family and a duality lower bound from
    three sparse candidates.  Every fifth instance adds the father-rooted CZ
    set of the same height to the family, which changes the LP shape."""

    name = "h1-gauge"
    digested = 10
    checked = float("inf")  # the closed-form checks are cheap: check every instance
    window = Window(Vertex(2, ()), 2)
    candidate_window = Window(Vertex(2, ()), 4)
    two_set_every = 5

    def __init__(self, seed: int):
        self.seed = seed

    def make(self, i: int):
        g = randgen.nonzero_function(T2, self.window, self.seed, "atom-combo", i)
        holder = sets.smallest_enclosing_cz(T2, g.support())
        family = [holder]
        if i % self.two_set_every == self.two_set_every - 1:
            family.append(sets.CZSet(father(holder.root), holder.h))
        candidates = [
            randgen.nonzero_function(T2, self.candidate_window, self.seed, "sparse", 3 * i + k)
            for k in range(3)
        ]
        return g, family, candidates

    def compute(self, inp):
        g, family, candidates = inp
        return hardy.h1_estimate(T2, g, family, candidates)

    def render(self, inp, res) -> dict:
        return jsonio.h1_json(T2, res)

    def answer(self, report: dict) -> dict:
        lower = report["lower"]
        return {"lower": {"value": lower["value"], "witness": lower["witness"]}, "upper": report["upper"]}

    def check(self, inp, res) -> list[str]:
        g, family, _ = inp
        closed = sets.cz_measure(T2, family[0]) * g.max_abs()
        upper, lower = res.upper.value, res.lower.value
        errors = []
        if len(family) == 1 and upper != closed:
            errors.append(f"single-set gauge {upper} is not mu(S)*max|g| = {closed}")
        if len(family) > 1 and upper > closed:
            errors.append(f"two-set gauge {upper} exceeds the single-set gauge {closed}")
        if lower > upper:
            errors.append(f"lower bound {lower} exceeds the gauge {upper}")
        total = sum((atom.function.scaled(lam) for lam, atom in res.upper.pieces), start=type(g)())
        if total != g:
            errors.append("gauge pieces do not sum back to the function")
        return errors


class Decompose:
    """Good/bad splits in the Criterion-10 shape: rademacher and atom-combo
    functions on a depth-4 window, q in {2, 3}, j one or two scales below
    the top.  Every seventh instance is a telescoping decomposition of an
    atom-combo function on a depth-1 window instead."""

    name = "decompose"
    digested = 48
    checked = 48
    window = Window(Vertex(2, ()), 4)
    telescoping_window = Window(Vertex(2, ()), 1)
    # (q, scales below the top, kind).  Shapes whose level sets can pass ~1000
    # vertices are left out: q = 3 two scales down, and telescoping on a
    # depth-2 window.  One such instance takes 1-5 s, a tenth or more of a
    # run, and their count per run swings the throughput by a third from seed
    # to seed.
    shapes = (
        (2, 1, "rademacher"),
        (2, 2, "rademacher"),
        (3, 1, "rademacher"),
        (2, 1, "atom-combo"),
        (2, 2, "atom-combo"),
        (3, 1, "atom-combo"),
    )

    def __init__(self, seed: int):
        self.seed = seed

    def make(self, i: int):
        k = i % (len(self.shapes) + 1)
        if k == len(self.shapes):
            g = randgen.nonzero_function(T2, self.telescoping_window, self.seed, "atom-combo", i)
            return g, 2, None
        q, below, kind = self.shapes[k]
        g = randgen.nonzero_function(T2, self.window, self.seed, kind, i)
        return g, q, ceil_log2(g.max_abs()) - below

    def compute(self, inp):
        g, q, j = inp
        if j is None:
            return hardy.telescoping_h1_upper(T2, g, q)
        return hardy.good_bad_split(T2, g, q, j)

    def render(self, inp, res) -> dict:
        if inp[2] is None:
            return jsonio.telescoping_json(T2, res)
        return jsonio.split_json(T2, res)

    def answer(self, report: dict) -> dict:
        if "pieces" in report:
            keys = ("upper", "j_min", "j_max", "c_good_max", "c_bad_qpow_max", "pieces")
            return {k: report[k] for k in keys}
        keys = ("j", "q", "omega_size", "good", "bad_parts", "c_good", "c_bad_qpow")
        return {**{k: report[k] for k in keys}, "certificate": _cert(report["certificate"])}

    def check(self, inp, res) -> list[str]:
        g, q, j = inp
        if j is None:
            return _check_telescoping(g, res)
        return _check_split(g, q, j, res)


def _check_split(g, q, j, sp) -> list[str]:
    """Bullets (b1)-(b4) of a good/bad split, re-derived from the result."""
    lam = Fraction(2) ** (j * q)
    scale = Fraction(2) ** j
    envs = [sets.envelope(r) for _, r in sp.bad_parts]
    errors = []
    total = sp.good
    for (piece, r), env in zip(sp.bad_parts, envs):
        if not all(v in sp.omega for v in sets.members(T2, r)):
            errors.append(f"(b1) {r} leaves the level set")
        if integral(T2, piece) != 0:
            errors.append(f"(b4) the piece on {r} has nonzero integral")
        if not all(env.contains(v) for v in piece.support()):
            errors.append(f"(b2) the piece on {r} escapes its envelope")
        if piece and lp_power(T2, piece, q) > sp.c_bad_qpow * lam * sets.cz_measure(T2, env):
            errors.append(f"(b4) the piece on {r} exceeds the reported size ratio")
        total = total + piece
    if not all(any(env.contains(w) for env in envs) for w in sp.omega):
        errors.append("(b1) the envelopes do not cover the level set")
    if total != g:
        errors.append("(b2) good + bad does not reconstruct the function")
    if sp.good.max_abs() > sp.c_good * scale:
        errors.append("(b3) the good part exceeds the reported ratio")
    if any(abs(val) > scale for v, val in g.items() if v not in sp.omega):
        errors.append("(b3) a value off the level set exceeds 2**j")
    return errors


def _check_telescoping(g, res) -> list[str]:
    errors = []
    total = type(g)()
    for lam, atom in res.pieces:
        ok, why = hardy.is_atom(T2, atom.function, atom.set, atom.p)
        if not ok:
            errors.append(f"piece on {atom.set} is not an atom: {why}")
        total = total + atom.function.scaled(lam)
    if total != g:
        errors.append("atomic pieces do not sum back to the function")
    if res.upper != sum((lam for lam, _ in res.pieces), Fraction(0)):
        errors.append("upper bound is not the sum of the coefficients")
    return errors


WORKLOADS = {w.name: w for w in (BmoField, H1Gauge, Decompose)}


def report(workload, inp, res) -> str:
    """The JSON report of one instance, as the command line prints it."""
    return jsonio.dumps(workload.render(inp, res))


def run(workload, inp):
    """One instance: the library call plus its report.  Returns (result, report text)."""
    res = workload.compute(inp)
    return res, report(workload, inp, res)


def answer_hash(workload, text: str) -> str:
    answer = workload.answer(json.loads(text))
    canon = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def prefix_digest(hashes: list[str]) -> str:
    """Digest of the answers of instances 0 .. digested-1, in order."""
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()
