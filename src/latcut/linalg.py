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
``rref_int`` and so ``rank``, ``solve`` and ``inverse``, which read its
table and build one Fraction per entry.  One int column echelon,
``_column_echelon``, is the only Euclid loop: it keeps C^-1 by the inverse
row step of each column step, so no unimodular matrix is ever inverted,
and every unimodular frame comes from it (the completion of a primitive
row, the alignment of a lineality, the kernel vector of a tower and the
particular solution on a planar line).
"""

from __future__ import annotations

import math
import operator
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
    return tuple(v) if g == 1 else tuple([z // g for z in v])


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


def affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull of the given points."""
    if not points:
        return -1
    base = points[0]
    return rank([vsub(p, base) for p in points[1:]])


# ---------------------------------------------------------------------------
# integer / unimodular utilities

def _col_addmul(mats: list[list[int]], inv: list[list[int]], dst: int, src: int, k: int):
    """Column dst += k column src in mats, row src -= k row dst in inv."""
    for w in mats:
        w[dst] += k * w[src]
    inv[src] = [a - k * b for a, b in zip(inv[src], inv[dst])]


def _col_swap(mats: list[list[int]], inv: list[list[int]], a: int, b: int):
    """Swap columns a and b in mats and rows a and b in inv."""
    for w in mats:
        w[a], w[b] = w[b], w[a]
    inv[a], inv[b] = inv[b], inv[a]


def _fractions(m) -> Mat:
    return tuple(tuple(map(Fraction, row)) for row in m)


def unimodular_with_bottom_row(u: Vec) -> tuple[Mat, Mat]:
    """(U, U^-1) with U a unimodular integer matrix whose bottom row is the
    primitive vector u.

    ``_column_echelon`` runs on u read backwards, so its Euclid ends in the
    last column; reversing the rows and columns of its C and C^-1 and fixing
    the sign of the last column of C gives u.C = e_n, so u is the last row
    of U = C^-1, and C is returned as its inverse.
    """
    row = [int(x) for x in primitive(u)]
    c, inv, _ = _column_echelon([row[::-1]])
    c, inv = ([w[::-1] for w in m[::-1]] for m in (c, inv))
    if sum(map(operator.mul, row, (w[-1] for w in c))) < 0:
        for w in c:
            w[-1] = -w[-1]
        inv[-1] = [-x for x in inv[-1]]
    return _fractions(inv), _fractions(c)


def alignment_int(lines: Sequence[Vec], n: int):
    """(U, U^-1, r) as int rows: r the dimension of span(lines) in n-space
    and U unimodular, sending that span onto the span of the trailing r
    coordinate axes; the identity pair when r is 0 or n.  Works through the
    saturated integer kernel of its orthogonal complement, read off the
    ``rref_int`` table of the lines on one int scale."""
    tab, den, pivots = rref_int(lines)
    free = [j for j in range(n) if j not in pivots]
    if not free:
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        return eye, eye, n
    m = math.lcm(*den)
    perp = [[m * (k == j) for k in range(n)] for j in free]
    for x, j in zip(perp, free):
        for row, d, p in zip(tab, den, pivots):
            x[p] = -row[j] * (m // d)
    # the transform is unimodular and its trailing columns span the kernel
    # lattice, so its inverse sends span(lines) onto the trailing axes
    c, u, rk = _column_echelon(perp)
    for l in map(integer_copy, lines):
        require(not any(sum(map(operator.mul, row, l)) for row in u[:rk]),
                "lineality misses the trailing axes")
    return u, c, n - rk


def _column_echelon(rows: list[list[int]]):
    """(C, C^-1, rank) for int rows: C unimodular with rows.C in echelon
    form, C^-1 kept by the inverse row step of each column step; the
    trailing columns of C span the integer kernel of rows."""
    n = len(rows[0])
    work = [list(r) for r in rows]
    c, inv = ([[int(i == j) for j in range(n)] for i in range(n)] for _ in range(2))
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
                    _col_swap(both, inv, nz[0], pivot_col)
                break
            nz.sort(key=lambda j: abs(r[j]))
            _col_addmul(both, inv, nz[1], nz[0], -(r[nz[1]] // r[nz[0]]))
        pivot_col += 1
        if pivot_col == n:
            break
    for col in list(zip(*c))[pivot_col:]:
        require(not any(sum(map(operator.mul, row, col)) for row in rows),
                "kernel column leaves the kernel")
    return c, inv, pivot_col


def format_frac(x) -> str:
    """'p/q' for anything ``frac`` accepts."""
    x = frac(x)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str, strict: bool = False) -> Fraction:
    """Parse 'p/q' (or bare 'p' when not strict) in ASCII digits.  Rejects
    '1/0', floats, underscores and non-ASCII digits always, unreduced forms
    in strict mode."""
    from .errors import ParseError

    s = s.strip()
    if not s.isascii() or "_" in s:
        raise ParseError(f"not an ASCII rational literal: {s!r}")
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
