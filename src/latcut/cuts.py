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


def gauge(b: Polyhedron, f, r) -> Fraction:
    """psi of B-f at r: max(0, max_i a_i . r / (b_i - a_i . f)).

    Runs in integers, since every normal a_i is a primitive integer vector
    (a HalfSpace invariant).  With f = F / df, r = R / dr and b_i = p_i / q_i
    for integer F, R, the shifted offset times q_i df is
    c_i = p_i df - q_i a_i . F, which must be positive (else
    PointNotInterior), and facet i's ratio is q_i a_i . R / c_i times
    df / dr.  Ratios compare by cross-multiplication; one Fraction is built.
    """
    f = la.vec(f)
    r = la.vec(r)
    if len(r) != b.dim:
        raise DimensionMismatch("direction dimension mismatch")
    if len(f) != b.dim:
        raise DimensionMismatch("point dimension mismatch")
    fi, df = la.integer_copy(f), la.denominator_lcm(f)
    ri, dr = la.integer_copy(r), la.denominator_lcm(r)
    num, den = 0, 1
    for h in b.halfspaces:
        a = [x.numerator for x in h.normal]
        q = h.offset.denominator
        c = h.offset.numerator * df - q * sum(map(operator.mul, a, fi))
        if c <= 0:
            raise PointNotInterior(
                f"{tuple(map(str, f))} is not interior to the body")
        n = q * sum(map(operator.mul, a, ri))
        if n * den > num * c:
            num, den = n, c
    return Fraction(num * df, den * dr)


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

    Never fails: when f is not interior to b the cut degenerates to the
    whole nonnegative orthant and is marked trivial.
    """
    f = la.vec(f)
    cols = tuple(la.vec(r) for r in columns)
    if not b.contains_point(f, strict=True):
        return CutSystem(f, cols, tuple(ZERO for _ in cols), True)
    return CutSystem(f, cols, tuple(gauge(b, f, r) for r in cols), False)


def closure(family, columns, f) -> ClosureSystem:
    """Simultaneous cuts from every family member; empty family accepts all."""
    f = la.vec(f)
    cols = tuple(la.vec(r) for r in columns)
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
    metric runs no conversion; ``polar`` tests that f is interior.
    """
    f = la.vec(f)
    try:
        polars = [polar(b, f) for b in (b1, b2)]
    except OriginNotInterior as exc:
        raise PointNotInterior("polar metric needs interior points") from exc
    return PolarDistance(hausdorff_sq(*polars))
