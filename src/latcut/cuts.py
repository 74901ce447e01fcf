"""Gauge functions, intersection cuts, cut closures, and the polar metric.

The gauge of a body B with respect to an interior point f measures how far
one can walk from f in a direction r before leaving B: psi(r) is the
reciprocal of that step length (0 when the walk never leaves).  A body cuts
the fractional point f away from the mixed-integer hull through the
inequality sum_i psi(r_i) s_i >= 1 on the nonnegative combination weights s
of the column directions r_i.

Cut systems are predicate objects over coefficient vectors; they are never
converted back into polyhedra in s-space.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .errors import DimensionMismatch, OriginNotInterior, PointNotInterior
from .geometry import Polyhedron, hausdorff_sq, polar
from .linalg import Vec, ZERO


def _shifted(b: Polyhedron, f: Vec):
    """(F, df, [(c_i, a_i)]): f = F / df on ints, and for each row (z0, a)
    of b its normal a with c = -z0 df - a . F, which is df times the row's
    slack at f and must be positive (else PointNotInterior)."""
    if len(f) != b.dim:
        raise DimensionMismatch("point dimension mismatch")
    fi, df = la.integer_copy(f), la.denominator_lcm(f)
    rows = [(-z0 * df - sum(map(operator.mul, a, fi)), a) for z0, *a in b.rows]
    if any(c <= 0 for c, _ in rows):
        raise PointNotInterior(f"{tuple(map(str, f))} is not interior to the body")
    return fi, df, rows


def _ratio(rows, r) -> tuple[int, int]:
    """max(0, max_i a_i . r / c_i) as (num, den) over ``_shifted`` rows and
    an int r, the first maximum by cross-multiplication."""
    num, den = 0, 1
    for c, a in rows:
        n = sum(map(operator.mul, a, r))
        if n * den > num * c:
            num, den = n, c
    return num, den


def gauge(b: Polyhedron, f, r) -> Fraction:
    """psi of B-f at r: max(0, max_i a_i . r / (b_i - a_i . f)).

    Runs on b's int rows (z0, a), read a . x <= -z0: with f = F / df and
    r = R / dr, row i's ratio is a . R / c times df / dr for c from
    ``_shifted``.  One Fraction is built.
    """
    f = la.vec(f)
    r = la.vec(r)
    if len(r) != b.dim:
        raise DimensionMismatch("direction dimension mismatch")
    _, df, rows = _shifted(b, f)
    num, den = _ratio(rows, la.integer_copy(r))
    return Fraction(num * df, den * la.denominator_lcm(r))


@dataclass(frozen=True)
class CutSystem:
    """The inequality sum_i coeffs[i] s_i >= 1 over s >= 0.

    A trivial system (fractional point not interior to the generating body)
    accepts every nonnegative s.
    """

    f: Vec
    columns: tuple
    coeffs: tuple
    trivial: bool

    def accepts(self, s) -> bool:
        s = la.vec(s)
        if len(s) != len(self.columns):
            raise DimensionMismatch("weight vector length mismatch")
        if any(x < 0 for x in s):
            return False
        if self.trivial:
            return True
        return sum(c * x for c, x in zip(self.coeffs, s)) >= 1


@dataclass(frozen=True)
class ClosureSystem:
    """Conjunction of cut systems sharing the same point and columns."""

    f: Vec
    columns: tuple
    cuts: tuple

    def accepts(self, s) -> bool:
        s = la.vec(s)
        if len(s) != len(self.columns):
            raise DimensionMismatch("weight vector length mismatch")
        if any(x < 0 for x in s):
            return False
        return all(c.accepts(s) for c in self.cuts)


def intersection_cut(b: Polyhedron, columns, f) -> CutSystem:
    """Cut generated by b for the corner data (columns, f).

    Fails only on a column or an f of the wrong length: when f is not
    interior to b the cut degenerates to the whole nonnegative orthant and
    is marked trivial.
    """
    f = la.vec(f)
    cols = tuple(la.vec(r) for r in columns)
    if any(len(r) != b.dim for r in cols):
        raise DimensionMismatch("direction dimension mismatch")
    if not b.contains_point(f, strict=True):
        return CutSystem(f, cols, tuple(ZERO for _ in cols), True)
    return CutSystem(f, cols, tuple(gauge(b, f, r) for r in cols), False)


def closure(family, columns, f) -> ClosureSystem:
    """Simultaneous cuts from every family member; empty family accepts all."""
    f = la.vec(f)
    cols = tuple(la.vec(r) for r in columns)
    if any(len(r) != len(f) for r in cols):
        raise DimensionMismatch("direction dimension mismatch")
    return ClosureSystem(f, cols,
                         tuple(intersection_cut(b, cols, f) for b in family))


def cut_dominates(b1: Polyhedron, b2: Polyhedron, f) -> bool:
    """Whether b1's cut implies b2's cut for every choice of columns.

    Containment of the cut regions for all column matrices is equivalent to
    containment of the generating bodies, so the test is exact geometry.
    """
    f = la.vec(f)
    for b in (b1, b2):
        if not b.contains_point(f, strict=True):
            raise PointNotInterior("cut comparison needs interior points")
    return b1.contains(b2)


# ---------------------------------------------------------------------------
# the polar (f-) metric


@dataclass(frozen=True)
class PolarDistance:
    """Hausdorff distance between (B1-f) polar and (B2-f) polar.

    Exact as a squared rational; the float square root is display-only.
    """

    dist_sq: Fraction

    @property
    def dist(self) -> float:
        return math.sqrt(float(self.dist_sq))


def f_metric(b1: Polyhedron, b2: Polyhedron, f) -> PolarDistance:
    """Hausdorff distance between (b1 - f) polar and (b2 - f) polar.

    Both polars are read off the bodies' own facets and vertices, so the
    metric runs no conversion; ``polar`` tests that f is interior.  Each
    body keeps its polar at f, and each polar its face frames, so measuring
    the same bodies again at the same f builds neither again.
    """
    f = la.vec(f)
    try:
        polars = [polar(b, f) for b in (b1, b2)]
    except OriginNotInterior as exc:
        raise PointNotInterior("polar metric needs interior points") from exc
    return PolarDistance(hausdorff_sq(*polars))
