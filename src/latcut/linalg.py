"""Exact rational vectors, matrices, and integer lattice utilities.

Every number that crosses an API in this package is a ``fractions.Fraction``;
a vector is a tuple of Fractions and a matrix is a tuple of row tuples.  Using
the stdlib rational type gives arbitrary precision and automatic gcd
normalization (reduced numerator/denominator, positive denominator), which is
exactly the invariant the rest of the code relies on.  Kernels may work on
integer copies internally (``integer_copy``) and return Fractions: ``dot``
sums into one integer numerator over the product of the denominators and
builds one Fraction per call.  Floats never enter any computation here.

One fraction-free Gauss-Jordan step, ``pivot``, does every elimination:
``rref_int`` and so ``rank``, ``solve``, ``inverse`` and ``kernel_basis``,
and the tableau of ``simplex.solve_ineq``; ``solve``, ``inverse`` and
``kernel_basis`` read its table and build one Fraction per entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, require

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce an int, string like '3/4', or Fraction to Fraction.

    Floats are rejected: exactness is a package-wide contract.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("float input is not exact; pass int, str, or Fraction")
    return Fraction(x)


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def vzero(n: int) -> Vec:
    return (ZERO,) * n


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    n, d = 0, 1
    for a, b in zip(u, v):
        q = a.denominator * b.denominator
        n = n * q + a.numerator * b.numerator * d
        d *= q
    return Fraction(n, d)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def norm_sq(u: Vec) -> Fraction:
    return dot(u, u)


def denominator_lcm(u: Sequence[Fraction]) -> int:
    return math.lcm(*[a.denominator for a in u])


def integer_copy(u: Sequence[Fraction]) -> list[int]:
    """u scaled by the lcm of its denominators: a positive multiple of u in
    integers, with every sign and every zero where u has it."""
    dens = [a.denominator for a in u]
    m = math.lcm(*dens)
    return [a.numerator * (m // d) for a, d in zip(u, dens)]


def primitive_int(v: Sequence[int]) -> tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = math.gcd(*v)
    return tuple(z // g for z in v)


def primitive(u: Sequence[Fraction]) -> Vec:
    """Scale a nonzero rational vector by a positive rational so that its
    entries are coprime integers.  Direction is preserved."""
    if is_zero_vec(u):
        raise ValueError("zero vector has no primitive form")
    return tuple(map(Fraction, primitive_int(integer_copy(u))))


def is_integer_vec(u: Sequence[Fraction]) -> bool:
    return all(a.denominator == 1 for a in u)


# ---------------------------------------------------------------------------
# matrices

def identity(n: int) -> Mat:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


# ---------------------------------------------------------------------------
# fraction-free Gauss-Jordan: row i of a table means tab[i] / den[i], ints
# over a positive int, and each step ends with one gcd reduction


def clear(tab: list[list[int]], den: list[int], i: int, r: int, j: int) -> None:
    """Clear column j of row i by row r, whose entry there is positive:
    (row * p - f * prow) / (d * p), p the pivot entry, f row i's entry."""
    row, prow = tab[i], tab[r]
    f, p = row[j], prow[j]
    new = [x * p - f * y for x, y in zip(row, prow)]
    d = den[i] * p
    g = math.gcd(d, *new)
    tab[i] = [x // g for x in new]
    den[i] = d // g


def pivot(tab: list[list[int]], den: list[int], r: int, j: int) -> None:
    """Pivot on the nonzero entry (r, j): row r becomes its primitive ints,
    sign chosen to make entry j positive, over that entry (so the entry
    reads 1), and column j is cleared from every other row."""
    prow = tab[r]
    g = math.gcd(*prow) if prow[j] > 0 else -math.gcd(*prow)
    tab[r] = [x // g for x in prow]
    den[r] = tab[r][j]
    for i in range(len(tab)):
        if i != r and tab[i][j] != 0:
            clear(tab, den, i, r, j)


def rref_int(m: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form of the rows of m as a table: (tab, den,
    pivot columns).  Zero rows come last, over 1."""
    tab = [integer_copy(row) for row in m]
    den = [denominator_lcm(row) for row in m]
    pivots: list[int] = []
    for c in range(len(tab[0]) if tab else 0):
        r = len(pivots)
        if r == len(tab):
            break
        i = next((i for i in range(r, len(tab)) if tab[i][c] != 0), None)
        if i is None:
            continue
        tab[r], tab[i] = tab[i], tab[r]
        den[r], den[i] = den[i], den[r]
        pivot(tab, den, r, c)
        pivots.append(c)
    return tab, den, pivots


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    return len(rref_int(m)[2])


def solve(m: Mat, b: Vec):
    """One exact solution of m x = b, or None if inconsistent."""
    if not m:
        return None if any(x != 0 for x in b) else ()
    ncols = len(m[0])
    tab, den, pivots = rref_int([list(row) + [bi] for row, bi in zip(m, b)])
    # inconsistent iff a pivot lands in the augmented column
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, c in enumerate(pivots):
        x[c] = Fraction(tab[r][ncols], den[r])
    return tuple(x)


def inverse(m: Mat) -> Mat:
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch("matrix is not square")
    tab, den, pivots = rref_int(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row, d in zip(tab, den))


def kernel_basis(m: Sequence[Sequence[Fraction]], ncols: int) -> list[Vec]:
    """Rational basis of {x : m x = 0} (free-variable back substitution),
    read off the ``rref_int`` table with one Fraction per entry."""
    tab, den, pivots = rref_int(m)
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        x = [ZERO] * ncols
        x[fcol] = ONE
        for r, c in enumerate(pivots):
            x[c] = Fraction(-tab[r][fcol], den[r])
        basis.append(tuple(x))
    return basis


def affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull of the given points."""
    if not points:
        return -1
    base = points[0]
    return rank([vsub(p, base) for p in points[1:]])


def project_off(v: Vec, basis: Sequence[Vec]) -> Vec:
    """Orthogonal projection of v onto the complement of span(basis).

    The Gram system is solved exactly, so the projection is rational.
    """
    if not basis:
        return v
    gram = tuple(tuple(dot(a, b) for b in basis) for a in basis)
    rhs = tuple(dot(a, v) for a in basis)
    coef = solve(gram, rhs)
    out = v
    for c, b in zip(coef, basis):
        out = vsub(out, vscale(c, b))
    return out


# ---------------------------------------------------------------------------
# integer / unimodular utilities

def _col_addmul(mats: list[list[int]], dst: int, src: int, k: int) -> None:
    """Add k times column src to column dst in every row of mats."""
    for w in mats:
        w[dst] += k * w[src]


def _col_swap(mats: list[list[int]], a: int, b: int) -> None:
    for w in mats:
        w[a], w[b] = w[b], w[a]


def unimodular_with_bottom_row(u: Vec) -> tuple[Mat, Mat]:
    """(U, U^-1) with U a unimodular integer matrix whose bottom row is the
    primitive vector u.

    Column gcd elimination reduces u to the last unit row vector while a
    companion matrix C records the operations; U = C^-1 has u as its last
    row, and C is returned as its inverse.
    """
    row = [int(x) for x in primitive(u)]
    n = len(row)
    c = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    both = [row] + c
    # euclid all entries into the last column
    for j in range(n - 1):
        while row[j] != 0:
            if row[n - 1] == 0 or abs(row[j]) < abs(row[n - 1]):
                _col_swap(both, j, n - 1)
            else:
                _col_addmul(both, j, n - 1, -(row[j] // row[n - 1]))
    if row[n - 1] < 0:
        for w in both:
            w[n - 1] = -w[n - 1]
    # row = u.C = (0, ..., 0, gcd(u)) = e_n, so u is the last row of C^-1,
    # which is integral because C is a product of unimodular column steps
    return inverse(c), tuple(tuple(map(Fraction, row)) for row in c)


def integer_kernel_basis(rows: Sequence[Vec]) -> list[Vec]:
    """Basis of the saturated lattice {z in Z^n : rows . z = 0}."""
    if not rows:
        raise ValueError("need at least one row")
    n = len(rows[0])
    c, rk = _column_echelon([primitive(r) for r in rows])
    return [tuple(Fraction(c[i][j]) for i in range(n)) for j in range(rk, n)]


def alignment_unimodular(lines: Sequence[Vec]) -> tuple[Mat, Mat]:
    """(U, U^-1) with U unimodular, sending the rational subspace
    span(lines) onto the span of the trailing coordinate axes.

    Works through the saturated integer kernel of the subspace's orthogonal
    complement, so U and its inverse are integer matrices.
    """
    if not lines:
        raise ValueError("no lineality directions given")
    n = len(lines[0])
    perp = kernel_basis(lines, n)
    if not perp:
        raise ValueError("lineality spans the whole space")
    # the transform is unimodular and its trailing columns span the kernel
    # lattice, so its inverse sends span(lines) onto the trailing axes
    c, rk = _column_echelon([primitive(p) for p in perp])
    u = inverse(c)
    for l in lines:
        require(is_zero_vec(mat_vec(u, l)[:rk]), "lineality misses the trailing axes")
    return u, tuple(tuple(map(Fraction, row)) for row in c)


def _column_echelon(rows: Sequence[Vec]) -> tuple[list[list[int]], int]:
    """Column transform C (unimodular, integer) with rows.C in echelon form,
    and the rank of the integer rows; the trailing columns of C span the
    integer kernel of rows."""
    n = len(rows[0])
    work = [[int(x) for x in r] for r in rows]
    c = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    both = work + c

    pivot_col = 0
    for r in work:
        if all(r[j] == 0 for j in range(pivot_col, n)):
            continue
        # euclid the tail of this row onto pivot_col
        while True:
            nz = [j for j in range(pivot_col, n) if r[j] != 0]
            if len(nz) == 1:
                if nz[0] != pivot_col:
                    _col_swap(both, nz[0], pivot_col)
                break
            nz.sort(key=lambda j: abs(r[j]))
            _col_addmul(both, nz[1], nz[0], -(r[nz[1]] // r[nz[0]]))
        pivot_col += 1
        if pivot_col == n:
            break
    for j in range(pivot_col, n):
        v = tuple(Fraction(c[i][j]) for i in range(n))
        require(all(dot(row, v) == 0 for row in rows),
                "kernel column leaves the kernel")
    return c, pivot_col


def format_frac(x) -> str:
    """'p/q' for anything ``frac`` accepts."""
    x = frac(x)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str, strict: bool = False) -> Fraction:
    """Parse 'p/q' (or bare 'p' when not strict).  Rejects '1/0' and floats
    always, unreduced forms in strict mode."""
    from .errors import ParseError

    s = s.strip()
    if any(ch in s for ch in ".eE") and not s.lstrip("+-").isdigit():
        raise ParseError(f"not an exact rational literal: {s!r}")
    if "/" in s:
        num_s, _, den_s = s.partition("/")
        try:
            num, den = int(num_s), int(den_s)
        except ValueError as exc:
            raise ParseError(f"bad rational literal: {s!r}") from exc
        if den == 0:
            raise ParseError(f"zero denominator: {s!r}")
        if strict and (den < 0 or math.gcd(num, den) != 1):
            raise ParseError(f"non-canonical rational (want reduced p/q, q >= 1): {s!r}")
        return Fraction(num, den)
    try:
        return Fraction(int(s))
    except ValueError as exc:
        raise ParseError(f"bad rational literal: {s!r}") from exc
