"""Exact rational simplex for systems A x <= b with free variables.

Two-phase dense tableau method.  Bland's rule everywhere, which with exact
Fractions guarantees termination.  Free variables are split into differences
of nonnegatives; rows with negative right-hand side get a phase-1 artificial.

This solver is deliberately independent of the polyhedron code so that linear
programming over an H-description and vertex enumeration stay two separate
routes that can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Vec, ZERO, ONE, dot

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
    n = len(objective)
    c_obj = objective if sense == _MAX else tuple(-v for v in objective)

    m = len(rows)
    neg = [i for i in range(m) if rhs[i] < 0]
    n_art = len(neg)
    ncols = 2 * n + m + n_art
    art_base = 2 * n + m

    tab: list[list[Fraction]] = []
    b: list[Fraction] = []
    basis: list[int] = []
    art_index = 0
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
        row = [ZERO] * ncols
        for j in range(n):
            row[j] = sign * rows[i][j]
            row[n + j] = -sign * rows[i][j]
        row[2 * n + i] = Fraction(sign)
        if sign < 0:
            row[art_base + art_index] = ONE
            basis.append(art_base + art_index)
            art_index += 1
        else:
            basis.append(2 * n + i)
        tab.append(row)
        b.append(sign * rhs[i])

    def pivot(r: int, j: int, z: list[Fraction]) -> None:
        pv = tab[r][j]
        tab[r] = [x / pv for x in tab[r]]
        b[r] /= pv
        for i in range(len(tab)):
            if i != r and tab[i][j] != 0:
                f = tab[i][j]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]
                b[i] -= f * b[r]
        if z[j] != 0:
            f = z[j]
            for k in range(ncols):
                z[k] -= f * tab[r][k]
        basis[r] = j

    def run(z: list[Fraction], allowed: int) -> int | None:
        """Bland iterations on objective row z (maximization).  Returns the
        entering column on unboundedness, else None at optimality."""
        while True:
            enter = next((j for j in range(allowed) if z[j] > 0), None)
            if enter is None:
                return None
            best_r = None
            best_ratio = None
            for i in range(len(tab)):
                if tab[i][enter] > 0:
                    ratio = b[i] / tab[i][enter]
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio and basis[i] < basis[best_r])):
                        best_ratio = ratio
                        best_r = i
            if best_r is None:
                return enter
            pivot(best_r, enter, z)

    # phase 1: maximize -(sum of artificials)
    if n_art:
        z1 = [ZERO] * ncols
        for j in range(art_base, ncols):
            z1[j] = Fraction(-1)
        # canonicalize against the artificial basis rows
        for r, bv in enumerate(basis):
            if bv >= art_base:
                for k in range(ncols):
                    z1[k] += tab[r][k]
        run(z1, ncols)
        ph1 = sum((b[r] for r, bv in enumerate(basis) if bv >= art_base), ZERO)
        if ph1 != 0:
            return LpResult(status="infeasible")
        # drive remaining artificials (all at value 0) out of the basis
        for r in range(len(tab)):
            if basis[r] >= art_base:
                col = next((j for j in range(art_base) if tab[r][j] != 0), None)
                if col is not None:
                    pivot(r, col, z1)
        keep = [r for r in range(len(tab)) if basis[r] < art_base]
        if len(keep) != len(tab):
            tabs = [tab[r] for r in keep]
            bs = [b[r] for r in keep]
            bas = [basis[r] for r in keep]
            tab.clear(); tab.extend(tabs)
            b.clear(); b.extend(bs)
            basis.clear(); basis.extend(bas)

    # phase 2
    cost = [ZERO] * ncols
    for j in range(n):
        cost[j] = c_obj[j]
        cost[n + j] = -c_obj[j]
    z2 = list(cost)
    for r, bv in enumerate(basis):
        if cost[bv] != 0:
            f = cost[bv]
            for k in range(ncols):
                z2[k] -= f * tab[r][k]
    enter = run(z2, art_base)

    def current_point() -> Vec:
        full = [ZERO] * ncols
        for r, bv in enumerate(basis):
            full[bv] = b[r]
        return tuple(full[j] - full[n + j] for j in range(n))

    if enter is not None:
        d_full = [ZERO] * ncols
        d_full[enter] = ONE
        for r, bv in enumerate(basis):
            d_full[bv] = -tab[r][enter]
        ray = tuple(d_full[j] - d_full[n + j] for j in range(n))
        return LpResult(status="unbounded", point=current_point(), ray=ray)

    x = current_point()
    val = dot(objective, x)
    return LpResult(status="optimal", value=val, point=x)
