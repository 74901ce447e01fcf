"""Exact rational simplex for systems A x <= b with free variables.

Two-phase dense tableau method.  Free variables are split into differences
of nonnegatives; rows with negative right-hand side get a phase-1
artificial.  Every tableau row, and the objective row riding below them, is
a list of ints (the rhs last) over one positive int denominator, and every
pivot is the package's one fraction-free Gauss-Jordan step, ``la.pivot``:
it clears a column by (row * p - f * prow) / (d * p), p the positive pivot
entry and f the row's entry in the column, then divides out
gcd(d, *row), so entries stay the size of reduced fractions.

Bland's rule everywhere: the lowest entering column, the minimum ratio
b_i / t_ie, ties broken by the lower basis index.  The denominators cancel
within a row, so each ratio comparison is one cross-multiplication of ints.
The comparisons are exact, which guarantees termination, and only the
returned ``LpResult`` holds Fractions.

This solver is deliberately independent of the polyhedron code so that linear
programming over an H-description and vertex enumeration stay two separate
routes that can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from latcut import linalg as la
from latcut.errors import DimensionMismatch
from latcut.linalg import Vec, ZERO, ONE, dot

_MAX = "max"
_MIN = "min"


@dataclass(frozen=True)
class LpResult:
    status: str  # 'optimal' | 'unbounded' | 'infeasible'
    value: Fraction | None = None
    point: Vec | None = None
    ray: Vec | None = None


def solve_ineq(rows: list[Vec], rhs: list[Fraction], objective: Vec,
               sense: str = _MAX) -> LpResult:
    """Optimize objective . x over {x : rows[i] . x <= rhs[i]}, x free."""
    if sense not in (_MAX, _MIN):
        raise ValueError("sense must be 'max' or 'min'")
    objective = la.vec(objective)
    rows = [la.vec(r) for r in rows]
    rhs = [la.frac(b) for b in rhs]
    n = len(objective)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("rows and objective differ in dimension")
    c_obj = objective if sense == _MAX else la.vneg(objective)

    m = len(rows)
    n_art = sum(1 for b in rhs if b < 0)
    ncols = 2 * n + m + n_art
    art_base = 2 * n + m

    # tab[:len(basis)] are the constraint rows; while a phase runs, its
    # objective row is tab[-1].  Row i means tab[i] / den[i].
    tab: list[list[int]] = []
    den: list[int] = []
    basis: list[int] = []
    art_index = art_base
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
        entries = rows[i] + (rhs[i],)
        a, d = la.integer_copy(entries), la.denominator_lcm(entries)
        row = [0] * (ncols + 1)
        for j in range(n):
            row[j] = sign * a[j]
            row[n + j] = -sign * a[j]
        row[2 * n + i] = sign * d
        row[-1] = sign * a[-1]
        if sign < 0:
            row[art_index] = d
            basis.append(art_index)
            art_index += 1
        else:
            basis.append(2 * n + i)
        tab.append(row)
        den.append(d)

    def start(z: list[int], d: int) -> None:
        """Append the objective row z / d with every basic column cleared;
        the basic entry of row r is den[r] > 0."""
        tab.append(z)
        den.append(d)
        for r, bv in enumerate(basis):
            if tab[-1][bv] != 0:
                la.clear(tab, den, len(tab) - 1, r, bv)

    def run(allowed: int) -> int | None:
        """Bland iterations on the objective row tab[-1] (maximization).
        Returns the entering column on unboundedness, else None at
        optimality."""
        while True:
            z = tab[-1]
            enter = next((j for j in range(allowed) if z[j] > 0), None)
            if enter is None:
                return None
            best_r = None
            for i in range(len(basis)):
                t = tab[i][enter]
                if t > 0:
                    if best_r is None:
                        best_r = i
                        continue
                    # b_i / t < b_best / t_best, both over the rows' own
                    # denominators, which cancel
                    lhs = tab[i][-1] * tab[best_r][enter]
                    rhs_ = tab[best_r][-1] * t
                    if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[best_r]):
                        best_r = i
            if best_r is None:
                return enter
            la.pivot(tab, den, best_r, enter)
            basis[best_r] = enter

    # phase 1: maximize -(sum of artificials)
    if n_art:
        start([0] * art_base + [-1] * n_art + [0], 1)
        run(ncols)
        # every b_i stays >= 0, so the artificials sum to 0 only if each is 0
        if any(tab[r][-1] != 0 for r, bv in enumerate(basis) if bv >= art_base):
            return LpResult(status="infeasible")
        # drive remaining artificials (all at value 0) out of the basis
        for r in range(len(basis)):
            if basis[r] >= art_base:
                col = next((j for j in range(art_base) if tab[r][j] != 0), None)
                if col is not None:
                    la.pivot(tab, den, r, col)
                    basis[r] = col
        keep = [r for r in range(len(basis)) if basis[r] < art_base]
        tab[:] = [tab[r] for r in keep]
        den[:] = [den[r] for r in keep]
        basis[:] = [basis[r] for r in keep]

    # phase 2
    cost = la.integer_copy(c_obj)
    start(cost + [-x for x in cost] + [0] * (ncols - 2 * n + 1),
          la.denominator_lcm(c_obj))
    enter = run(art_base)

    def current_point() -> Vec:
        full = [ZERO] * ncols
        for r, bv in enumerate(basis):
            full[bv] = Fraction(tab[r][-1], den[r])
        return tuple(full[j] - full[n + j] for j in range(n))

    if enter is not None:
        d_full = [ZERO] * ncols
        d_full[enter] = ONE
        for r, bv in enumerate(basis):
            d_full[bv] = Fraction(-tab[r][enter], den[r])
        ray = tuple(d_full[j] - d_full[n + j] for j in range(n))
        return LpResult(status="unbounded", point=current_point(), ray=ray)

    x = current_point()
    val = dot(objective, x)
    return LpResult(status="optimal", value=val, point=x)
