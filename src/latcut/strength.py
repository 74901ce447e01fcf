"""Relative strength of cuts from one body against another.

The strength functional compares the cut a body B induces at a fractional
point f against the cut from a body L: it is the least inflation factor
alpha such that f + alpha (B - f) covers L.  Cut regions then relate by the
same factor for every choice of columns, so the geometric number speaks for
all cut instances at once.

For a finite family of bodies the exact family functional has no finite
algorithm; instead a certified two-sided sandwich is reported: the best
single-member value from above, and from below that value divided by one
more than the number of generators of L (tight per the one-for-all
argument, which exhibits a violating column matrix built from the vertex
directions of L).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .cuts import _ratio, _shifted
from .errors import PointNotInterior
from .geometry import Polyhedron, homothety
from .linalg import ZERO, Vec, vadd, vscale


@dataclass(frozen=True)
class StrengthReport:
    """Value of the strength functional with an attaining witness.

    kind 'zero':     f is not interior to L, every cut comparison is vacuous
    kind 'infinite': no inflation of B about f ever covers L; the witness is
                     either a recession direction of L that escapes B, or
                     None when f is not even interior to B
    kind 'finite':   value = max over vertices v of L of the B-gauge of
                     v - f, attained at the witness vertex
    """

    kind: str
    value: Fraction | None
    witness: Vec | None


def relative_strength(b: Polyhedron, l: Polyhedron, f) -> StrengthReport:
    """Least alpha with homothety(b, f, alpha) containing l.  B's shifted
    offsets are taken once; a point (dx, X) of L gives v - f =
    (df X - dx F) / (dx df), whose gauge is the ``_ratio`` of df X - dx F
    over dx."""
    f = la.vec(f)
    if not l.contains_point(f, strict=True):
        return StrengthReport("zero", ZERO, None)
    try:
        fi, df, rows = _shifted(b, f)
    except PointNotInterior:
        return StrengthReport("infinite", None, None)
    for w in l.directions:
        if _ratio(rows, w)[0] > 0:
            return StrengthReport("infinite", None, tuple(map(Fraction, w)))
    bn, bd, arg = 0, 1, l.points[0]
    for g in l.points:
        dx, *x = g
        n, d = _ratio(rows, [df * a - dx * b for a, b in zip(x, fi)])
        if n * bd > bn * d * dx:
            bn, bd, arg = n, d * dx, g
    return StrengthReport("finite", Fraction(bn, bd),
                          tuple(Fraction(x, arg[0]) for x in arg[1:]))


def family_strength_upper(family, l: Polyhedron, f):
    """min over the family of the one-body strength; None means infinite."""
    best = None
    for b in family:
        rep = relative_strength(b, l, f)
        if rep.kind == "zero":
            return ZERO
        if rep.kind == "finite" and (best is None or rep.value < best):
            best = rep.value
    return best


@dataclass(frozen=True)
class SandwichReport:
    """Two-sided bracket on the family strength functional.

    upper      -- best single-member strength (None = infinite)
    lower      -- certified lower bound from the vertex-column witness
    n_bound    -- one more than the generator count of L; the functional is
                  always within factor n_bound of upper
    """

    upper: Fraction | None
    lower: Fraction | None
    n_bound: int


def sandwich(family, l: Polyhedron, f) -> SandwichReport:
    """Each member's strength is taken once: on a polytope L it is the
    largest vertex gauge m, and the vertex-column witness pins the family
    functional above the least such m over k + 1, k the vertex count, so
    lower is upper / (k + 1)."""
    f = la.vec(f)
    n_bound = len(l.points) + len(l.directions) + 1
    if l.directions:
        # replace L by an inscribed polytope sharing its generator count;
        # the bracket then holds for that polytope
        l = inner_approximation(l, f, 1)
    upper = family_strength_upper(family, l, f)
    # with no finite member, an empty family over an f outside L gives 0
    lower = (upper / (len(l.points) + 1) if upper is not None
             else None if l.contains_point(f, strict=True) else ZERO)
    return SandwichReport(upper, lower, n_bound)


def inner_approximation(l: Polyhedron, f, t: int) -> Polyhedron:
    """Polytope conv(vertices of L, f + t * rays of L) growing towards L.

    A bounded L is returned unchanged.  The result always contains f in its
    interior and increases with t, converging to L in the polar metric.
    """
    f = la.vec(f)
    if not l.contains_point(f, strict=True):
        raise PointNotInterior("inner approximation anchors at an interior point")
    if not l.rays:
        return l
    if t < 1:
        raise ValueError("the step index must be at least 1")
    pts = list(l.vertices)
    pts += [vadd(f, vscale(Fraction(t), w)) for w in l.rays]
    return Polyhedron.from_generators(pts, [], l.dim)


def find_covering_body(family, l: Polyhedron, f, mu):
    """First family member containing the mu-shrink of L about f, if any.

    A member covering the shrink certifies that its cuts approximate L-cuts
    within factor 1/mu for every column matrix.
    """
    f = la.vec(f)
    mu = la.frac(mu)
    if not 0 < mu < 1:
        raise ValueError("the shrink factor must be strictly between 0 and 1")
    target = homothety(l, f, mu)
    for b in family:
        if b.contains(target):
            return b
    return None
