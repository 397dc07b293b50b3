"""Seeded test-data generation: run configuration and deterministic
function generators over a window.

Generators key their RNG off (seed, kind, index) through string seeding,
so a report produced from a config is reproducible byte for byte.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .funcs import FinFunc
from .sets import member_count
from .tree import EnumerationError, Tree, Vertex, Window

KINDS = ("indicator", "rademacher", "sparse", "atom-combo")


@dataclass(frozen=True)
class RunConfig:
    m: int = 2
    window: Window = field(default_factory=lambda: Window(Vertex(2, ()), 4))
    q: Fraction = Fraction(1)
    p: Fraction = Fraction(2)
    p0: Fraction = Fraction(3, 2)
    seed: int = 0
    size: int = 50

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.window.depth < 1:
            raise ValueError("window depth must be >= 1")
        if not (1 < self.p0 < self.p):
            raise ValueError("need 1 < p0 < p for sharp-ratio experiments")

    def tree(self) -> Tree:
        return Tree(self.m)


def generate_function(
    tree: Tree, window: Window, seed: int, kind: str, index: int = 0
) -> FinFunc:
    """Deterministic small-rational function supported in the window.

    Kinds: one-vertex indicator, a +-1 valued subset (rademacher), a few
    vertices with small rational values (sparse), or a zero-integral
    combination of weighted pair swaps (atom-combo).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {KINDS}")
    rng = random.Random(f"{seed}:{kind}:{index}")
    # draws are made on member indices, which consume the RNG exactly as the
    # listed members would; only the drawn indices become vertices
    size = member_count(tree, window)
    if size > sys.maxsize:  # the longest range random.sample and choice draw from
        raise EnumerationError(f"window {window} has over {sys.maxsize} vertices to draw from")
    if kind == "indicator":
        return FinFunc.indicator(window.member(tree, rng.choice(range(size))))
    if kind == "rademacher":
        k = rng.randint(1, min(8, size))
        chosen = rng.sample(range(size), k)
        return FinFunc({window.member(tree, i): Fraction(rng.choice((-1, 1))) for i in chosen})
    if kind == "sparse":
        k = rng.randint(1, min(5, size))
        chosen = rng.sample(range(size), k)
        out = {}
        for i in chosen:
            num = rng.choice([n for n in range(-6, 7) if n])
            out[window.member(tree, i)] = Fraction(num, rng.randint(1, 4))
        return FinFunc(out)
    # atom-combo: sums of c * (w(v)*chi_u - w(u)*chi_v), each exactly zero-integral
    f = FinFunc()
    for _ in range(rng.randint(1, 3)):
        u, v = (window.member(tree, i) for i in rng.sample(range(size), 2))
        c = Fraction(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice((-1, 1))
        f = f + FinFunc({u: c * tree.weight(v), v: -c * tree.weight(u)})
    return f


def nonzero_function(
    tree: Tree, window: Window, seed: int, kind: str, index: int = 0
) -> FinFunc:
    """Like generate_function but skips the rare identically-zero draw."""
    for attempt in range(64):
        f = generate_function(tree, window, seed, kind, index * 64 + attempt)
        if f:
            return f
    raise RuntimeError("generator kept producing the zero function")
