"""Exact two-phase simplex over the rationals.

Solves  min c.x  subject to  A x = b,  x >= 0  with Fraction arithmetic
throughout, so optima and infeasibility verdicts are exact.  Pricing is
Dantzig (most negative reduced cost) for speed, switching permanently to
Bland's smallest-index rule after a pivot budget to rule out cycling;
either way every verdict is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class InfeasibleError(ValueError):
    """The constraint system A x = b, x >= 0 has no solution."""


class UnboundedError(ValueError):
    """The objective is unbounded below on the feasible region."""


@dataclass
class LPSolution:
    x: list[Fraction]
    objective: Fraction


def solve_lp(
    a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]
) -> LPSolution:
    m = len(a)
    n = len(c)
    if any(len(row) != n for row in a) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")

    # phase 1: rows with a negative right-hand side are negated, row i gets
    # the artificial column n + i, and the cost is the sum of the artificials
    rows = [[Fraction(v) for v in row] + [Fraction(bi)] for row, bi in zip(a, b)]
    rows = [[-v for v in row] if row[-1] < 0 else row for row in rows]
    zero, one = Fraction(0), Fraction(1)
    unit = [[one if j == i else zero for j in range(m)] for i in range(m)]
    tab = [r[:n] + e + r[n:] for r, e in zip(rows, unit)]
    basis = list(range(n, n + m))
    sums = [-sum((r[j] for r in rows), zero) for j in range(n + 1)]
    obj = sums[:n] + [zero] * m + sums[n:]
    _run_simplex(tab, basis, obj, n + m)
    if -obj[-1] > 0:
        raise InfeasibleError("phase 1 optimum is positive")

    # drive artificials out of the basis; drop redundant (all-zero) rows
    keep: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                continue
            _pivot(tab, basis, None, i, col)
        keep.append(i)

    # phase 2 on the original columns
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    obj = [Fraction(v) for v in c] + [zero]
    for row, bi in zip(tab, basis):
        coef = obj[bi]
        if coef:
            obj = [o - coef * t for o, t in zip(obj, row)]
    _run_simplex(tab, basis, obj, n)

    x = [zero] * n
    for row, bi in zip(tab, basis):
        x[bi] = row[-1]
    return LPSolution(x, sum((cj * xj for cj, xj in zip(c, x)), zero))


BLAND_AFTER = 2000


def _run_simplex(tab, basis, obj, ncols) -> None:
    """Pivot until the maintained reduced-cost row `obj` is nonnegative.

    The entering column has the most negative reduced cost, ties to the
    smallest column, or past BLAND_AFTER iterations the smallest column
    with a negative one; the leaving row has the least ratio, ties to the
    smallest basic column."""
    iterations = 0
    while True:
        iterations += 1
        bland = iterations > BLAND_AFTER
        priced = [(j if bland else obj[j], j) for j in range(ncols) if obj[j] < 0]
        if not priced:
            return
        col = min(priced)[1]
        rows = enumerate(zip(tab, basis))
        ratios = [(r[-1] / r[col], bi, i) for i, (r, bi) in rows if r[col] > 0]
        if not ratios:
            raise UnboundedError("no leaving row for entering column")
        _pivot(tab, basis, obj, min(ratios)[2], col)


def _pivot(tab, basis, obj, row: int, col: int) -> None:
    pr = tab[row]
    inv = Fraction(1) / pr[col]
    if inv != 1:
        tab[row] = pr = [v * inv for v in pr]
    for i, ri in enumerate(tab):
        factor = ri[col]
        if i != row and factor:
            tab[i] = [vi - factor * vp for vi, vp in zip(ri, pr)]
    if obj is not None and obj[col]:
        factor = obj[col]
        obj[:] = [vi - factor * vp for vi, vp in zip(obj, pr)]
    basis[row] = col
