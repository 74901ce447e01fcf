"""Constructive procedures around lattice-free bodies.

Cube-face bodies realize every facet count between 2 and 2^n.  Truncated
cones shrink onto a quarter-scale core once the interior point sits at
transverse height 1/3 or more.  A Caratheodory step picks facet subsets
whose relaxation splits as simplex plus subspace.  The lifting step turns a
lattice-free base in dimension n-1 into a lattice-free body in dimension n
with one facet more, and the two approximation pipelines drive it to bodies
with few facets and a certified inflation factor.  The tail of the module
builds the witnesses for the negative results: shrink factors, lattice-free
pyramids that force a facet count, simplex towers, and cylinder lifts.

Every construction reads the stored int form of its bodies (``rows``,
``points``, ``directions``) and hands int rows or generators to
``Polyhedron._from_rows`` or ``Polyhedron._from_gens``; none builds a
``Fraction`` view of a body.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg as la
from .cuts import gauge
from .errors import (
    DimensionMismatch,
    EmptySet,
    HypothesisViolated,
    MuTooSmall,
    NotLatticeFreeInput,
    NotPolytope,
    NotSeparable,
    OutOfRange,
    PointNotInterior,
    UnsupportedDimension,
    WitnessOnBoundary,
    require,
)
from .geometry import (
    HalfSpace,
    Polyhedron,
    UnimodularMap,
    embed_last_axis,
    homothety,
    level_slice,
    minkowski_scale_shift,
    product_with_line,
    transform,
)
from .lattice import (
    LatticeFreeCert,
    certify_lattice_free,
    flatness_bound,
    grow_to_maximal,
    interior_lattice_point,
    lattice_width,
    point_denominator,
)
from .linalg import ONE, ZERO, Vec, dot, vadd, vneg, vscale, vsub, vzero
from .strength import relative_strength


# ---------------------------------------------------------------------------
# cube faces: every facet count from 2 to 2^n

@dataclass(frozen=True)
class CubeFaceBody:
    """Maximal lattice-free body with the certificate that proves it."""

    body: Polyhedron
    cert: LatticeFreeCert


def cube_face_construction(n: int, i: int) -> CubeFaceBody:
    """Maximal lattice-free body in R^n with exactly i facets.

    Maintains a list of pairwise disjoint faces of the 0/1 cube that covers
    its vertex set, starting from the bottom and top facets and splitting
    the first face of positive dimension along its lowest free coordinate
    until i faces remain.  Each face contributes the inequality sum_fixed
    (+-x_t) <= #ones; the splitting keeps every cube vertex tight on exactly
    one inequality, which is what makes the intersection lattice-free and
    every inequality facet-defining.  So each face's vertex with its free
    coordinates at 0 witnesses its facet, and the certificate searches no
    facet.
    """
    if n < 1:
        raise OutOfRange(f"dimension {n} out of range")
    if i < 2 or i > 2 ** n:
        raise OutOfRange(f"facet count {i} outside [2, {2 ** n}]")
    faces: list[tuple] = [
        tuple([None] * (n - 1) + [0]),
        tuple([None] * (n - 1) + [1]),
    ]
    while len(faces) < i:
        j = next(k for k, face in enumerate(faces) if None in face)
        face = faces[j]
        ax = face.index(None)
        lower, upper = list(face), list(face)
        lower[ax], upper[ax] = 0, 1
        faces[j:j + 1] = [tuple(lower), tuple(upper)]
    # the int row (-#ones, a), read a . x <= #ones
    rows = [[-sum(1 for c in face if c == 1)]
            + [0 if c is None else (1 if c else -1) for c in face] for face in faces]
    out = Polyhedron._from_rows(rows, n)
    require(len(out.rows) == i, "cube-face body has the wrong facet count")
    cert = certify_lattice_free(out, [[c or 0 for c in face] for face in faces])
    require(cert.maximal, "cube-face body is not maximal lattice-free")
    return CubeFaceBody(out, cert)


# ---------------------------------------------------------------------------
# truncated cones

@dataclass(frozen=True)
class TruncatedCone:
    """conv(base, far base) where the far base is (1+alpha) base + shift.

    The shift must leave the affine hull of the base, so the slices
    (1 + mu alpha) base + mu shift, mu in [0,1], sweep the hull exactly
    once and every point has a well defined transverse coordinate mu.
    The far base ``make`` built for the hull is kept (not compared, not
    shown) for ``truncated_cone_shrink``.
    """

    base: Polyhedron
    alpha: Fraction
    shift: Vec
    hull: Polyhedron
    far: Polyhedron = field(compare=False, repr=False)

    @staticmethod
    def make(base: Polyhedron, alpha, shift) -> "TruncatedCone":
        alpha = la.frac(alpha)
        shift = la.vec(shift)
        if alpha < 0:
            raise OutOfRange("expansion ratio must be nonnegative")
        if len(shift) != base.dim:
            raise DimensionMismatch("shift dimension mismatch")
        _, span, (_, delta) = _cone_frame(base, alpha, shift)
        if la.rank(span + [delta]) == la.rank(span):
            raise OutOfRange("far base shares the affine hull of the base")
        far = minkowski_scale_shift(base, ONE + alpha, shift)
        rays = [(0, *r) for r in base.directions]  # far has the same
        hull = Polyhedron._from_gens(list(base.points + far.points) + rays, base.dim)
        # hull.contains(slice_at(mu)) for each mu = mn / md below, on the
        # slice's generators: a point (d, x) of the base goes to
        # (1 + mu alpha) x / d + mu S / ds, as ints over md Q d ds
        P, Q = alpha.numerator, alpha.denominator
        ds, *S = la.integer_copy((ONE,) + shift)
        for mn, md in ((0, 1), (1, 3), (1, 2), (1, 1)):
            lam = (md * Q + mn * P) * ds
            gens = [[md * Q * ds * d] + [lam * x + mn * Q * d * s for x, s in zip(xs, S)]
                    for d, *xs in base.points]
            require(all(sum(map(operator.mul, z, g)) <= 0
                        for z in hull.rows for g in gens + rays),
                    "cone hull misses a slice")
        return TruncatedCone(base, alpha, shift, hull, far)

    def slice_at(self, mu) -> Polyhedron:
        mu = la.frac(mu)
        return minkowski_scale_shift(self.base, ONE + mu * self.alpha,
                                     vscale(mu, self.shift))

    def transverse_coordinate(self, x) -> Fraction:
        """The mu of the slice through x; 0 on the base, 1 on the far base.

        mu = g . (x - x0) / g . delta for x0 the base's first vertex and g
        the part of delta orthogonal to the base's hull.  Any positive
        multiple of g gives the same mu, so g comes from a fraction-free
        Gram-Schmidt on ints (u <- (b . b) u - (u . b) b), and only x - x0
        and delta are brought to their true scales.
        """
        x = la.vec(x)
        if len(x) != self.base.dim:
            raise DimensionMismatch("point dimension mismatch")
        (d0, x0), span, (dd, delta) = _cone_frame(self.base, self.alpha, self.shift)
        basis = []
        for u in span + [delta]:
            for b in basis:
                ub = sum(map(operator.mul, u, b))
                if ub:
                    bb = sum(y * y for y in b)
                    u = [bb * p - ub * q for p, q in zip(u, b)]
            if any(u):
                basis.append(la.primitive_int(u))
        g = basis[-1]  # delta leaves the span (``make``)
        # x - x0 = (d0 X - dx x0) / (dx d0) and delta = D / dd
        dx, *xs = la.integer_copy((ONE,) + x)
        num = sum(c * (d0 * p - dx * q) for c, p, q in zip(g, xs, x0))
        return Fraction(num * dd, sum(map(operator.mul, g, delta)) * dx * d0)


def _cone_frame(base: Polyhedron, alpha: Fraction, shift: Vec):
    """On ints: the base's first point (d0, x0); the span of its hull's
    directions, each other point (d, x) as d0 x - d x0, then the
    directions; and delta = alpha x0 / d0 + shift as (dd, D), read D / dd."""
    (d0, *x0), *rest = base.points
    span = [[d0 * x - d * a for x, a in zip(xs, x0)] for d, *xs in rest]
    span += base.directions
    P, Q = alpha.numerator, alpha.denominator
    ds, *S = la.integer_copy((ONE,) + shift)
    delta = [P * ds * a + Q * d0 * s for a, s in zip(x0, S)]
    return (d0, x0), span, (Q * d0 * ds, delta)


def truncated_cone_shrink(cone: TruncatedCone, f) -> Polyhedron:
    """Pull the base of a truncated cone into a single interior point.

    Writes f = (1 + mu alpha) x + mu shift with x in the base and replaces
    the cone by conv({x}, far base).  The result still holds the quarter
    homothety of the hull about f provided mu >= 1/3.
    """
    f = la.vec(f)
    if not cone.hull.contains_point(f):
        raise OutOfRange("point outside the truncated cone")
    mu = cone.transverse_coordinate(f)
    require(ZERO <= mu <= ONE, "transverse coordinate outside [0, 1]")
    if mu < Fraction(1, 3):
        raise MuTooSmall(f"transverse coordinate {mu} below 1/3")
    scale = ONE + mu * cone.alpha
    x = vscale(ONE / scale, vsub(f, vscale(mu, cone.shift)))
    require(cone.base.contains_point(x), "anchor point leaves the base")
    out = Polyhedron._from_gens([la.integer_copy((ONE,) + x), *cone.far.points]
                                + [(0, *r) for r in cone.far.directions], cone.base.dim)
    require(cone.hull.contains(out), "shrunk cone leaves the hull")
    require(out.contains(homothety(cone.hull, f, Fraction(1, 4))),
            "shrunk cone misses the quarter homothety")
    return out


# ---------------------------------------------------------------------------
# Caratheodory facet subsets

@dataclass(frozen=True)
class FacetSubsetResult:
    """Facet subset whose relaxation is a simplex plus a subspace."""

    indices: tuple[int, ...]
    simplex_dim: int
    lineality_dim: int


def _zero_combination(normals: list[Vec]):
    """Positive convex weights on an affinely independent subset of the
    nonzero normals expressing 0, or None when 0 is outside their hull.

    By Caratheodory's theorem (Schrijver, Theory of Linear and Integer
    Programming, 1986, ch. 8) 0 lies in the hull of some affinely
    independent subset, with positive weights, whenever it lies in the
    hull of all of them; such a subset has 2 to n + 1 members.  The subsets
    are tried by size, then in index order, and each takes one Gauss-Jordan
    pass on [N; 1 | 0; 1]: the subset is affinely independent iff every
    column is a pivot, and then the weights are the last column.
    """
    m, n = len(normals), len(normals[0])
    for k in range(2, min(m, n + 1) + 1):
        for idx in itertools.combinations(range(m), k):
            rows = [[normals[j][c] for j in idx] + [ZERO] for c in range(n)]
            rows.append([ONE] * (k + 1))
            tab, den, pivots = la.rref_int(rows)
            if pivots == list(range(k)) and all(tab[r][k] > 0 for r in range(k)):
                return list(idx), [Fraction(tab[r][k], den[r]) for r in range(k)]
    return None


def caratheodory_facet_subset(m: Polyhedron) -> FacetSubsetResult:
    """Facet subset of a lattice-free body whose relaxation splits off all
    unboundedness as lineality around a simplex.

    A lattice-free body has 0 in the convex hull of its facet normals
    (otherwise some direction recedes from every facet and the interior
    holds a whole shifted orthant); reducing a convex combination to an
    affinely independent support keeps all weights positive, which forces
    the recession cone of the relaxation to be a subspace.
    """
    got = _zero_combination([z[1:] for z in m.rows])
    if got is None:
        raise NotLatticeFreeInput("0 outside the hull of the facet normals")
    idx, lam = got
    n = m.dim
    relaxed = Polyhedron._from_rows([m.rows[j] for j in idx], n)
    k = len(relaxed.lines)
    require(len(idx) == n - k + 1, "facet subset is not a simplex plus lineality")
    require(relaxed.recession_is_subspace(), "relaxation recedes off its lineality")
    require(len(relaxed.rows) == len(idx), "a chosen facet is redundant")
    return FacetSubsetResult(tuple(idx), n - k, k)


# ---------------------------------------------------------------------------
# the lifting step

def _last_axis_range(p: Polyhedron):
    """Exact range of the last coordinate, the least and greatest x_n / d
    over the points (d, x); None marks an unbounded end, which a direction
    with a negative (lower end) or positive (upper end) last entry opens."""
    ends = [Fraction(x[-1], x[0]) for x in p.points]
    return (None if any(r[-1] < 0 for r in p.directions) else min(ends),
            None if any(r[-1] > 0 for r in p.directions) else max(ends))


def split_along(u, b) -> Polyhedron:
    """The integer split {b <= u . x <= b + 1}."""
    u = la.vec(u)
    b = la.frac(b)
    return Polyhedron.from_halfspaces(
        [HalfSpace.make(vneg(u), -b), HalfSpace.make(u, b + 1)], len(u))


def lift_to_nplus1(l: Polyhedron, f, gamma, d: Polyhedron, t: int) -> Polyhedron:
    """One-dimension-up lattice-free cover with at most one facet more.

    Given a lattice-free base d for the level-t slice of l and a shrink
    ratio gamma whose homothety L' has last-axis width at most 1 and meets
    level t, produces a lattice-free body with at most (facets of d) + 1
    facets containing homothety(l, f, gamma/4).  With level t moved to 0,
    each facet a . x' <= beta of d becomes the half-space (a, s) . x <= beta
    of the pencil through its trace on level 0 that holds the shrunken body
    and is deepest at f, so the part of level 0 beyond the facet stays
    outside; s is read off the body's generators in closed form, a tie
    going to the least |s|, then to s >= 0 (``_pencil``).  If both integer
    levels remain facets afterwards, a truncated-cone shrink about f
    removes one of them.  No LP is solved.
    """
    f = la.vec(f)
    gamma = la.frac(gamma)
    t = int(t)
    n = l.dim
    if n < 2:
        raise UnsupportedDimension("lifting starts from the plane")
    if len(f) != n:
        raise DimensionMismatch("point dimension mismatch")
    if d.dim != n - 1:
        raise DimensionMismatch("base must live one dimension down")
    if not (0 < gamma <= 1):
        raise HypothesisViolated("gamma-out-of-range", f"gamma = {gamma}")
    if not l.contains_point(f, strict=True):
        raise HypothesisViolated("f-not-interior", "f must be interior to the body")
    if not d.fulldim:
        raise HypothesisViolated("base-not-full-dimensional", "")
    if interior_lattice_point(d) is not None:
        raise HypothesisViolated("base-not-lattice-free", "")
    try:
        sec = level_slice(l, t)
    except EmptySet:
        sec = None
    if sec is not None and not d.contains(sec):
        raise HypothesisViolated("slice-not-dominated",
                                 "the level-t slice leaves the base")
    lp = homothety(l, f, gamma)
    lo, hi = _last_axis_range(lp)
    if lo is None or hi is None or hi - lo > 1:
        raise HypothesisViolated("width-exceeds-one",
                                 "the shrunken body is too wide transversally")
    if not lo <= t <= hi:
        raise HypothesisViolated("slice-misses-body",
                                 "the shrunken body misses level t")

    # normalize: slice level to 0, f weakly above it
    matrix = la.identity(n)
    if f[-1] < t:
        matrix = tuple(tuple(-x if i == n - 1 else x for x in row)
                       for i, row in enumerate(matrix))
        shift = vzero(n - 1) + (Fraction(t),)
    else:
        shift = vzero(n - 1) + (Fraction(-t),)
    phi = UnimodularMap(matrix, shift, matrix)  # the identity or a flip: m^-1 = m
    f0 = phi.apply(f)
    lp0 = transform(lp, phi)

    lpp = homothety(lp0, f0, Fraction(1, 4))
    lo2, hi2 = _last_axis_range(lpp)
    if hi2 <= 0 or lo2 >= 0:
        # the quarter body misses level 0: an integer slab already covers it
        b0 = split_along(vzero(n - 1) + (ONE,), -1 if hi2 <= 0 else 0)
    else:
        b0 = _lift_core(lp0, f0, d)
    require(b0.contains(lpp), "lifted body misses the quarter homothety")
    require(interior_lattice_point(b0) is None, "lifted body is not lattice-free")
    require(len(b0.rows) <= len(d.rows) + 1, "lifted body has too many facets")
    return transform(b0, phi.inverse())


def _lift_core(lp0: Polyhedron, f0: Vec, d: Polyhedron) -> Polyhedron:
    """Separation stage of the lift, in normalized coordinates.

    lp0 is the shrunken body, its interior meets level 0, f0 is its center
    with 0 <= f0_n <= 1/4.  Each facet a . x' <= beta of d gets the
    separator (a, t) . x <= beta deepest at f0, t in closed form with ties
    to the least |t|, then to t >= 0 (``_pencil``); the caps |x_n| <= 1
    close the body.
    """
    n = lp0.dim
    seps = [_pencil(lp0, f0, z) for z in d.rows]
    caps = [(-1,) + (0,) * (n - 1) + (1,), (-1,) + (0,) * (n - 1) + (-1,)]  # |x_n| <= 1
    bprime = Polyhedron._from_rows(seps + caps, n)
    m = len(d.rows)
    if len(bprime.rows) <= m + 1:
        return bprime

    # both caps are facets: drop one through a truncated-cone shrink
    require(ZERO <= f0[-1] <= Fraction(1, 4), "center height outside [0, 1/4]")
    slice_normals = [z[1:-1] for z in seps]
    require(all(map(any, slice_normals)), "a separator is parallel to the levels")
    got = _zero_combination(slice_normals)
    if got is None:
        raise NotLatticeFreeInput("separator slice normals do not surround 0")
    idx, lam = got
    kept = [seps[j] for j in idx]
    tshape = Polyhedron._from_rows(kept + caps, n)

    def offset(j: int, level: Fraction) -> Fraction:
        # separator j, (z0, a', a_n), read a' . y <= -z0 - a_n level on the level
        return -seps[j][0] - seps[j][-1] * level

    def size(level: Fraction) -> Fraction:
        # positive multiple of the inradius-type size of the level slice
        return sum(w * offset(j, level) for w, j in zip(lam, idx))

    s_lo, s_hi = size(-ONE), size(ONE)
    require(size(ZERO) > 0 and s_lo > 0 and s_hi > 0, "a level slice is empty")
    base_level = ONE if s_hi <= s_lo else -ONE
    other_level = -base_level
    alpha = size(other_level) / size(base_level) - ONE
    # translation between the slice systems: g_j . p' matches the offsets
    rhs = tuple(offset(j, other_level) - (ONE + alpha) * offset(j, base_level)
                for j in idx)
    pprime = la.solve(tuple(z[1:-1] for z in kept), rhs)
    require(pprime is not None, "slice systems have no translation")
    p = pprime + (other_level - (ONE + alpha) * base_level,)
    base = embed_last_axis(level_slice(tshape, base_level), base_level)
    cone = TruncatedCone.make(base, alpha, p)
    require(cone.hull == tshape, "truncated cone is not the shape")
    # the interior point sits high enough: mu >= 3/8 from the upper base,
    # mu >= 1/2 from the lower, both clearing the 1/3 threshold
    mu = (ONE - f0[-1]) / 2 if base_level == ONE else (ONE + f0[-1]) / 2
    require(cone.transverse_coordinate(f0) == mu, "transverse coordinate off")
    tprime = truncated_cone_shrink(cone, f0)
    rest = [seps[j] for j in range(m) if j not in set(idx)]
    return Polyhedron._from_rows(list(tprime.rows) + rest, n)


def _pencil(lp0: Polyhedron, f0: Vec, z) -> tuple[int, ...]:
    """The half-space holding lp0 that keeps the part of level 0 beyond the
    facet a . x' <= beta of the base (the int row z = (-beta, a)) outside
    its interior, and is deepest at f0.

    lp0 has points on both sides of level 0, so every such separator is
    (a, t) . x <= beta for one t, a pencil through the facet's trace on
    level 0.  A generator g = (g0, g', g_n) of lp0 (g0 = 0 for a ray)
    holds iff t g_n <= beta g0 - a . g', which bounds t from above when g_n
    > 0 and from below when g_n < 0; one on level 0 that breaks the facet
    leaves no separator.  Scaled so that the normal's largest entry is 1,
    the depth at f0 is (beta - a . f0' - t f0_n) / max(|a|_inf, |t|),
    linear in t on [-|a|_inf, |a|_inf] and monotone on either side.  So
    the best t is one of the interval's ends, +/-|a|_inf or 0, each clipped
    to the interval, and a tie goes to the least |t|, then to t >= 0.
    The bounds are kept as int pairs (num, den), den > 0, compared by
    cross-multiplication, and the int row of the separator is returned.
    """
    z0, *a = z
    lo = hi = None
    for g in itertools.chain(lp0.points, ((0, *r) for r in lp0.directions)):
        s = z0 * g[0] + sum(map(operator.mul, a, g[1:-1]))  # t g_n <= -s
        gn = g[-1]
        if gn > 0:
            if hi is None or -s * hi[1] < hi[0] * gn:
                hi = (-s, gn)
        elif gn < 0:
            if lo is None or s * lo[1] > lo[0] * -gn:
                lo = (s, -gn)
        elif s > 0:
            raise NotSeparable("the base's facet cuts the body on level 0")
    require(lo is not None and hi is not None,
            "the shrunken body does not straddle level 0")
    if lo[0] * hi[1] > hi[0] * lo[1]:
        raise NotSeparable("no half-space through the facet holds the body")
    lo, hi = Fraction(*lo), Fraction(*hi)
    norm = max(map(abs, a))
    depth = -z0 - sum(x * y for x, y in zip(a, f0))  # beta - a . f0'
    t = min({min(max(c, lo), hi) for c in (lo, hi, norm, -norm, 0)},
            key=lambda t: (-(depth - t * f0[-1]) / max(norm, abs(t)), abs(t), t < 0))
    tn, td = t.numerator, t.denominator
    return la.primitive_int([z0 * td] + [x * td for x in a] + [tn])


# ---------------------------------------------------------------------------
# approximation pipelines

@dataclass(frozen=True)
class ApproxResult:
    """Approximating body together with its exact inflation factor."""

    body: Polyhedron
    factor: Fraction


def _pipeline_input(l: Polyhedron, f) -> Vec:
    """f as a vector, after the input checks both pipelines share."""
    f = la.vec(f)
    if l.dim > 3:
        raise UnsupportedDimension("pipelines stop at dimension 3")
    if len(f) != l.dim:
        raise DimensionMismatch("point dimension mismatch")
    if interior_lattice_point(l) is not None:
        raise NotLatticeFreeInput("input body has an interior lattice point")
    if not l.contains_point(f, strict=True):
        raise PointNotInterior("f must be interior to the body")
    return f


def approximate_any_f(l: Polyhedron, f) -> ApproxResult:
    """Few-facet lattice-free cover of l with factor at most 4 flatness(n).

    Rotates a lattice width direction onto the last axis, shrinks by one
    over the flatness bound, and either an integer slab already covers the
    shrunken body or an integer level cuts it, in which case the level
    slice is grown to a maximal lattice-free base and lifted back up.
    """
    f = _pipeline_input(l, f)
    n = l.dim
    cap = 2 ** (n - 1) + 1
    flt = flatness_bound(n)
    if len(l.rows) <= cap:
        # l covers itself at factor exactly 1: f is interior and every
        # vertex of l lies on a facet, so relative_strength(l, l, f) == 1
        return ApproxResult(l, ONE)
    wr = lattice_width(l)
    require(wr.width <= flt, "lattice width exceeds the flatness bound")
    m, c = la.unimodular_with_bottom_row(wr.direction)
    phi = UnimodularMap(m, vzero(n), c)
    lt = transform(l, phi)
    ft = phi.apply(f)
    gamma = Fraction(1, flt)
    lo, hi = _last_axis_range(homothety(lt, ft, gamma))
    tlo = math.floor(lo)
    if hi <= tlo + 1:
        b0 = split_along(vzero(n - 1) + (ONE,), tlo)
    else:
        t = math.ceil(lo)
        require(lo < t < hi, "level t misses the shrunken body")
        d = grow_to_maximal(level_slice(lt, t))
        require(len(d.rows) <= 2 ** (n - 1), "maximal base has too many facets")
        b0 = lift_to_nplus1(lt, ft, gamma, d, t)
    b = transform(b0, phi.inverse())
    rep = relative_strength(b, l, f)
    require(rep.kind == "finite" and rep.value <= 4 * flt, "factor exceeds its bound")
    require(len(b.rows) <= cap, "cover exceeds the facet cap")
    return ApproxResult(b, rep.value)


def approximate_fixed_f(l: Polyhedron, f) -> ApproxResult:
    """Cover of l by a body with at most n+1 facets; the factor bound
    flatness(n) 4^(n-1) s depends on the denominator s of f.

    Induction over the dimension: when the rotated f sits strictly between
    integer levels its denominator bounds the distance to them and an
    integer slab suffices; when it sits on one, the level slice is grown to
    a maximal base, approximated recursively at f's projection, and lifted.
    """
    f = _pipeline_input(l, f)
    n = l.dim
    s = point_denominator(f)
    flt = flatness_bound(n)
    bound = flt * 4 ** (n - 1) * s
    if len(l.rows) <= n + 1:
        return ApproxResult(l, ONE)  # factor 1, as in approximate_any_f
    # n >= 2 from here: one-dimensional lattice-free bodies have <= 2 facets
    wr = lattice_width(l)
    require(wr.width <= flt, "lattice width exceeds the flatness bound")
    fn = dot(wr.direction, f)
    m, c = la.unimodular_with_bottom_row(wr.direction)
    if fn.denominator > 1:
        # strictly fractional level: the slab between the neighbouring
        # integer levels holds the 1/bound homothety since fn keeps a
        # distance of at least 1/s from both
        phi = UnimodularMap(m, vzero(n), c)
        b0 = split_along(vzero(n - 1) + (ONE,), math.floor(fn))
        require(b0.contains(homothety(transform(l, phi), phi.apply(f),
                                      Fraction(1, bound))),
                "slab misses the 1/bound homothety")
        b = transform(b0, phi.inverse())
    else:
        phi = UnimodularMap(m, vzero(n - 1) + (-fn,), c)
        lt = transform(l, phi)
        ft = phi.apply(f)
        mmax = grow_to_maximal(level_slice(lt, 0))
        sub = approximate_fixed_f(mmax, ft[:-1])
        d = sub.body
        gamma_prime = Fraction(1, flt * 4 ** (n - 2) * s)
        b0 = lift_to_nplus1(homothety(lt, ft, gamma_prime), ft, ONE, d, 0)
        b = transform(b0, phi.inverse())
    rep = relative_strength(b, l, f)
    require(rep.kind == "finite" and rep.value <= bound, "factor exceeds its bound")
    require(len(b.rows) <= n + 1, "cover exceeds the facet cap")
    return ApproxResult(b, rep.value)


# ---------------------------------------------------------------------------
# inapproximability witnesses

def _check_witnesses(b: Polyhedron, zs: list[Vec]):
    """Validate one integral witness per facet, strictly inside the rest:
    an integer z holds the row (z0, a) iff z0 + a . z <= 0, tightly iff = 0."""
    if any(len(z) != b.dim for z in zs):
        raise DimensionMismatch("witness dimension mismatch")
    if len(zs) != len(b.rows):
        raise OutOfRange("need exactly one witness per facet")
    tight_facets = []
    for z in zs:
        if not la.is_integer_vec(z):
            raise OutOfRange(f"witness {z} is not integral")
        g = la.integer_copy((ONE,) + z)
        vals = [sum(map(operator.mul, r, g)) for r in b.rows]
        if any(v > 0 for v in vals):
            raise OutOfRange(f"witness {z} outside the body")
        tight = [j for j, v in enumerate(vals) if v == 0]
        if len(tight) != 1:
            raise OutOfRange(f"witness {z} not in a facet relative interior")
        tight_facets.append(tight[0])
    if sorted(tight_facets) != list(range(len(b.rows))):
        raise OutOfRange("witnesses do not cover all facets")


def shrink_epsilon(b: Polyhedron, c, zs) -> Fraction:
    """Largest-comfortable shrink factor keeping witness midpoints inside.

    Midpoints of facet witnesses on distinct facets are interior, so some
    homothety (1-eps) b + eps c still holds them all; returns half the
    exact feasible maximum of eps.
    """
    c = la.vec(c)
    zs = [la.vec(z) for z in zs]
    if b.directions:
        raise NotPolytope("shrink factor needs a bounded body")
    if not b.contains_point(c, strict=True):
        raise PointNotInterior("center must be interior")
    _check_witnesses(b, zs)
    worst = ZERO
    for zi, zj in itertools.combinations(zs, 2):
        g = gauge(b, c, vsub(vscale(Fraction(1, 2), vadd(zi, zj)), c))
        if g >= 1:
            raise WitnessOnBoundary("a witness midpoint is not interior")
        worst = max(worst, g)
    eps = (ONE - worst) / 2
    shrunk = homothety(b, c, ONE - eps)
    for zi, zj in itertools.combinations(zs, 2):
        require(shrunk.contains_point(vscale(Fraction(1, 2), vadd(zi, zj))),
                "a witness midpoint leaves the shrunk body")
    return eps


@dataclass(frozen=True)
class PyramidWitness:
    """Lattice-free pyramid over a scaled copy of the base body, with the
    fractional point for which it certifies the facet-count lower bound and
    the certificate that it is maximal lattice-free."""

    body: Polyhedron
    f: Vec
    cert: LatticeFreeCert


def inapprox_pyramid(l: Polyhedron, c, zs, eps, mu) -> PyramidWitness:
    """Pyramid forcing one facet more than the base body.

    Every body that covers a positive homothety of the pyramid about
    f = (c, eps mu) must catch the witness segments; the base body's facet
    witnesses pair up across the pyramid so that no body with fewer facets
    can separate them all.  The returned pyramid is maximal lattice-free
    with (facets of l) + 1 facets.
    """
    c = la.vec(c)
    eps = la.frac(eps)
    mu = la.frac(mu)
    zs = [la.vec(z) for z in zs]
    if l.directions:
        raise NotPolytope("the pyramid construction needs a bounded base")
    if not (0 < eps < 1 and 0 < mu < 1):
        raise OutOfRange("eps and mu must lie strictly between 0 and 1")
    if not l.contains_point(c, strict=True):
        raise PointNotInterior("center must be interior")
    _check_witnesses(l, zs)
    em = eps * mu
    for zi, zj in itertools.combinations(zs, 2):
        mid = vscale(Fraction(1, 2), vadd(zi, zj))
        if gauge(l, c, vsub(mid, c)) > ONE - eps:
            raise OutOfRange("eps too large for the witnesses")

    n = l.dim + 1
    f = c + (em,)
    fbase = homothety(l, c, ONE / em)
    # f, then each vertex (d, x) of fbase at level -1
    p = Polyhedron._from_gens([la.integer_copy((ONE,) + f)]
                              + [(*g, -g[0]) for g in fbase.points], n)
    require(level_slice(p, 0) == homothety(l, c, ONE / (em + 1)),
            "inner cross-section identity fails")
    lam = (em * (em + 1) + 1) / (em + 1)
    body = homothety(p, c + (-ONE,), lam)
    require(level_slice(body, 0) == l, "level-zero cross-section is not the base")
    require(len(body.rows) == len(l.rows) + 1, "pyramid facet count off")
    require(body.contains(p), "pyramid does not hold its core")
    require(body.contains_point(f, strict=True), "f is not interior to the pyramid")
    # the level-0 slice is l, strictly above the pyramid's base, so (z, 0)
    # lies on the side facet over z's facet of l and strictly inside every
    # other row: only the base facet is searched
    cert = certify_lattice_free(body, [z + (ZERO,) for z in zs])
    require(cert.maximal, "pyramid is not maximal lattice-free")

    # covering properties of the inner pyramid eps mu (p - f) + f
    inner = homothety(p, f, em)
    require(inner.contains(embed_last_axis(homothety(l, c, ONE - eps), 0)),
            "inner pyramid misses the shrunk base")
    for zi, zj in itertools.combinations(zs, 2):
        mid = vscale(Fraction(1, 2), vadd(zi, zj))
        require(inner.contains_point(mid + (ZERO,)),
                "a witness midpoint escapes the inner pyramid")
    e2m2 = em * em
    for z in zs:
        q = vadd(vscale(e2m2, zs[0] + (-ONE,)), vscale(ONE - e2m2, z + (ZERO,)))
        require(l.contains_point(q[:-1]), "q-point leaves the base slab")
        require(inner.contains_point(q), "q-point escapes the inner pyramid")
    return PyramidWitness(body, f, cert)


@dataclass(frozen=True)
class TowerWitness:
    """Maximal lattice-free simplex whose facet witnesses pairwise connect
    through the 1/alpha homothety about f, with the certificate that it is
    maximal lattice-free."""

    body: Polyhedron
    witnesses: tuple[Vec, ...]
    cert: LatticeFreeCert


def segment_meets(p: Polyhedron, a, b) -> bool:
    """Exact test whether the segment [a, b] intersects the polyhedron.

    With a = A / da and b = B / db, a row z reads u + s (v - u) <= 0 at
    (1 - s) a + s b, for u = db z . (da, A) and v = da z . (db, B); the
    range [lo, hi] of s, clipped from [0, 1], is kept as int pairs (num,
    den), den > 0, compared by cross-multiplication.
    """
    a = la.vec(a)
    b = la.vec(b)
    if len(a) != p.dim or len(b) != p.dim:
        raise DimensionMismatch("point dimension mismatch")
    ga = la.integer_copy((ONE,) + a)
    gb = la.integer_copy((ONE,) + b)
    (ln, ld), (hn, hd) = (0, 1), (1, 1)
    for z in p.rows:
        u = sum(map(operator.mul, z, ga)) * gb[0]
        v = sum(map(operator.mul, z, gb)) * ga[0]
        if u == v:
            if u > 0:
                return False
        elif v > u:  # s <= -u / (v - u)
            if -u * hd < hn * (v - u):
                hn, hd = -u, v - u
        elif u * ld > ln * (u - v):  # s >= u / (u - v)
            ln, ld = u, u - v
    return ln * hd <= hn * ld


def simplex_tower(f, alpha) -> TowerWitness:
    """Simplex around f whose facet witnesses all meet its 1/alpha copy.

    Recursive pyramid: rotate a coordinate of f to an integer level, build
    the tower one dimension down around the projection, then take the cone
    from an apex at height 1/(alpha-1) over the alpha-blown base at level
    -1.  Every witness pair's segment crosses the level of the shrunken
    base, so no inflation below alpha separates them.
    """
    f = la.vec(f)
    alpha = la.frac(alpha)
    n = len(f)
    if n > 3:
        raise UnsupportedDimension("towers stop at dimension 3")
    if alpha <= 1:
        raise OutOfRange("the homothety ratio must exceed 1")
    if la.is_integer_vec(f):
        raise OutOfRange("f must have a fractional coordinate")
    body, zs = _tower(f, alpha)
    require(len(body.rows) == n + 1 and not body.directions, "tower is not a simplex")
    require(body.contains_point(f, strict=True), "f is not interior to the tower")
    cert = certify_lattice_free(body, zs)
    require(cert.maximal, "tower is not maximal lattice-free")
    require(sorted(cert.facet_witnesses) == sorted(zs),
            "tower witnesses do not sit one per facet")
    shrunk = homothety(body, f, ONE / alpha)
    for zi, zj in itertools.combinations(zs, 2):
        require(segment_meets(shrunk, zi, zj),
                "a witness segment misses the 1/alpha copy")
    return TowerWitness(body, tuple(zs), cert)


def _tower(f: Vec, alpha: Fraction):
    n = len(f)
    if n == 1:
        z1 = math.floor(f[0])
        body = Polyhedron._from_gens([(1, z1), (1, z1 + 1)], 1)
        return body, [(Fraction(z1),), (Fraction(z1 + 1),)]
    scaled = tuple(int(x * point_denominator(f)) for x in f)
    u = la.integer_kernel_basis([la.vec(scaled)])[0]
    m, c = la.unimodular_with_bottom_row(u)
    phi = UnimodularMap(m, vzero(n), c)
    ft = phi.apply(f)
    fprime = ft[:-1]
    sub_body, sub_zs = _tower(fprime, alpha)
    apex = fprime + (ONE / (alpha - ONE),)
    base = homothety(sub_body, fprime, alpha)
    # the apex, then each vertex (d, x) of the base at level -1
    body0 = Polyhedron._from_gens([la.integer_copy((ONE,) + apex)]
                                  + [(*g, -g[0]) for g in base.points], n)
    zs0 = [z + (ZERO,) for z in sub_zs] + [sub_zs[0] + (-ONE,)]
    require(level_slice(body0, 0) == sub_body, "tower slice is not the lower tower")
    # the shrunken tower's base returns to the lower tower at level -1/alpha
    shrunk = homothety(body0, ft, ONE / alpha)
    require(level_slice(shrunk, -ONE / alpha) == sub_body,
            "shrunk tower misses the lower tower")
    inv = phi.inverse()
    return transform(body0, inv), [inv.apply(z) for z in zs0]


def cylinder_lift_witness(l: Polyhedron, f_prime, n: int) -> Polyhedron:
    """Cylinder over a lower-dimensional body, keeping its facet count.

    The fibre {f'} x R^(n-i) stays inside every positive homothety of the
    cylinder about (f', 0, ..., 0), which is what transfers the finite
    approximation obstruction up the dimensions.
    """
    i = l.dim
    if i >= n:
        raise OutOfRange("the target dimension must exceed the base's")
    f_prime = la.vec(f_prime)
    if len(f_prime) != i:
        raise DimensionMismatch("point dimension mismatch")
    out = product_with_line(l, n - i)
    require(len(out.rows) == len(l.rows), "cylinder facet count off")
    f = f_prime + vzero(n - i)
    require(out.contains_point(f, strict=True)
            == l.contains_point(f_prime, strict=True),
            "cylinder changes whether f is interior")
    return out
