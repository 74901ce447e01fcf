"""Exact dual-description polyhedra over the rationals.

A ``Polyhedron`` always carries both a half-space description and a generator
description, kept consistent and in canonical form, so structural equality of
two values means equality of the underlying sets.

Conventions
-----------
* Half-space normals are primitive integer vectors (positive scaling only);
  equalities appear as pairs of opposite half-spaces.
* Lineality is encoded in the ray list as +/- pairs; ``vertices`` then holds
  canonical representatives of the extreme points of the quotient (for a pure
  cone or affine set this is a single anchor point).
* The empty set and the whole space are not representable; constructors raise
  ``EmptySet`` / ``WholeSpace`` instead.

The conversion engine is the classical incremental double description method
on the homogenization cone: insert one inequality at a time, keep the extreme
rays of the pointed quotient plus a lineality basis, and combine adjacent
rays across the new hyperplane (combinatorial adjacency test).  Both
conversion directions run through the same cone routine, since the facets of
a polyhedron are the extreme rays of its homogenized dual cone.  The routine
is fraction-free, as in cdd and lrs: each row is scaled to integers by the
lcm of its denominators, lines and rays are primitive int tuples, and each
ray carries its zero set as a bit mask, bit i for the i-th input row,
updated at each insertion rather than recomputed; a row that cuts nothing
is redundant and owns no bit.  Two adjacent rays span a face of dimension
l + 2 (l the lineality's), whose tight rows have rank d - l - 2 in
dimension d, so a pair whose zero sets share fewer rows is never scanned
for a third ray.  It returns the int tuples and masks as they are; no
``Fraction`` appears in it.

Each constructor runs one conversion: ``from_halfspaces`` and
``from_generators`` coerce their input to ints and hand it to
``Polyhedron._from_rows`` or ``Polyhedron._from_gens``, the two int entry
points, which code that already holds int rows or generators (slices,
embeddings, the constructions) calls directly.  ``Polyhedron._assemble`` is
the one routine that brings both descriptions to canonical form for them,
and it drops the redundant part of either side from one
incidence table of rows against generators, with the row x0 >= 0 (the face
at infinity) added to the rows.  This is the combinatorial form of the test
in Fukuda & Prodon, "Double description method revisited", 1996: a row is
an implicit equality iff it is tight on every generator, and a facet iff no
other row's tight set strictly contains its own without being every
generator; a generator is a line iff it is tight on every row, and extreme
iff no other generator's tight set strictly contains its own without being
every row, so the lineality space is the span of the generators tight on
every row and no caller passes it.  The double description's zero sets are
that table: the constructors hand them over, and only the x0 row's own
zero set and one transposition are computed.  The side the conversion
produced (the facets of ``from_generators``, the vertices and rays of
``from_halfspaces``) is irredundant, so only the other side is pruned,
and its members in no ray's zero set are dropped first.  The assembly
reduces only when there is a lineality or an implicit equality (the
generators off the one, the rows off the other); a full-dimensional
pointed body, the common case, has no basis to reduce off, so its kept
generators and rows are its vertices, rays and facets as they stand.

Affine images, scalings and polars run neither a conversion nor this
pass.  An invertible map carries facets to facets and extreme generators
to extreme generators, so ``_image`` maps the normals by the inverse and
the generators by the map, and only reduces a flat body's other rows off
its mapped equalities and the generators off the mapped lineality.  A
``UnimodularMap`` keeps its inverse, so ``transform`` runs no elimination.
Every scaling and homothety, flat or not, is one closed form on ints
(``_scale_shift``): it keeps normals, rays and lineality, and a flat image
re-reduces its rows through the tail it shares with ``_image``
(``_flat_rows``).  The polar turns the face lattice upside down.  A level
slice reads the int rows with the level put in and converts once.  Distances
to a polytope walk its real faces, found from the vertices tight on each
row, and a Hausdorff walk stops at its running maximum.  A body builds its
face frames once, on its own int scale, and a walk multiplies them up to
the common scale of the two bodies; a body keeps each of its polars by
center, so neither is rebuilt when the polar metric measures it again.

A ``Polyhedron`` stores its canonical form on ints, and every kernel above
reads and writes that form with no ``Fraction`` in between: a row is a
primitive (z0, a), read a . x <= -z0, a point a primitive (d, x) with d > 0,
read x / d, and rays and lineality are primitive int vectors.  Inside a
kernel a row or generator is any positive multiple of itself, and
``_reduce`` takes a vector off a canonical basis.  The ``Fraction`` views
(``halfspaces``, ``vertices``, ``rays``, ``lineality``) are built on first
read; only data that a caller passes in is converted to ints.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg as la
from .errors import (
    DimensionMismatch,
    EmptySet,
    OriginNotInterior,
    WholeSpace,
    require,
)
from .linalg import Mat, Vec, ZERO, ONE, dot, vadd, vscale


# ---------------------------------------------------------------------------
# cone double description


def cone_dd(rows, dim: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """Generators of the cone {y : r . y <= 0 for all r in rows}.

    Returns (lines, rays, masks): a basis of the lineality space, the
    generators tight on every row, and the extreme rays of the quotient by
    it, as primitive int tuples, and each ray's zero set as a bit mask (bit
    i of masks[k]: rows[i] cut the cone when it was inserted and is tight on
    rays[k]).  A row that never cuts, zero or already satisfied, is
    redundant for every later cone too and owns no bit.  The rows are int
    sequences, each any positive multiple of itself; the adjacency test and
    its rank bound are in the module docstring.
    """
    lines = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []
    cut = 0  # the rows that have cut so far
    for k, a in enumerate(rows):
        if not any(a):
            continue
        bit = 1 << k
        vals_l = [sum(map(operator.mul, a, l)) for l in lines]
        vals = [sum(map(operator.mul, a, r)) for r in rays] if rays else []
        pivot = next((i for i, v in enumerate(vals_l) if v != 0), None)
        if pivot is not None:
            # the constraint cuts the lineality space: one line becomes a
            # ray, and every other generator moves along it onto a . y = 0
            lstar = lines.pop(pivot)
            vstar = vals_l.pop(pivot)
            if vstar > 0:
                lstar, vstar = tuple(-x for x in lstar), -vstar
            lines = [l if v == 0 else la.primitive_int(
                         [vstar * x - v * y for x, y in zip(l, lstar)])
                     for l, v in zip(lines, vals_l)]
            rays = [r if v == 0 else la.primitive_int(
                        [v * y - vstar * x for x, y in zip(r, lstar)])
                    for r, v in zip(rays, vals)] + [lstar]
            masks = [m | bit for m in masks] + [cut]
        elif any(v > 0 for v in vals):
            new = {r: m | bit if v == 0 else m
                   for r, m, v in zip(rays, masks, vals) if v <= 0}
            pos = [(m, v, r) for r, m, v in zip(rays, masks, vals) if v > 0]
            neg = [(m, v, r) for r, m, v in zip(rays, masks, vals) if v < 0]
            least = dim - len(lines) - 2
            for mp, vp, rp in pos:
                for mm, vm, rm in neg:
                    common = mp & mm
                    if common.bit_count() >= least and _adjacent(common, masks):
                        comb = la.primitive_int(
                            [vp * x - vm * y for x, y in zip(rm, rp)])
                        new.setdefault(comb, common | bit)
            rays, masks = list(new), list(new.values())
        else:
            continue  # the cone already lies in a . y <= 0
        cut |= bit
    return lines, rays, masks


def _adjacent(common: int, masks: list[int]) -> bool:
    """No ray but the two whose zero sets meet in common is tight on every
    row of common."""
    return sum(m & common == common for m in masks) == 2


# ---------------------------------------------------------------------------
# half-spaces


@dataclass(frozen=True, order=True)
class HalfSpace:
    """a . x <= b with a a primitive integer vector."""

    normal: Vec
    offset: Fraction

    @staticmethod
    def make(normal, offset) -> "HalfSpace":
        normal = la.vec(normal)
        offset = la.frac(offset)
        # one positive scale turns the row into ints b, a; dividing by the
        # gcd g of a makes the normal primitive
        b, *a = la.integer_copy((offset,) + normal)
        g = math.gcd(*a)
        if g == 0:
            raise ValueError("half-space needs a nonzero normal")
        return HalfSpace(tuple(Fraction(z // g) for z in a), Fraction(b, g))

    def eval_slack(self, x: Vec) -> Fraction:
        return self.offset - dot(self.normal, x)


# ---------------------------------------------------------------------------
# canonical representatives


def _canonical_basis(lines) -> list[tuple[int, ...]]:
    """RREF the line vectors, then scale each row to primitive ints; each
    row's pivot (its first nonzero entry) is positive."""
    if not lines:
        return []
    tab, _, _ = la.rref_int(lines)
    return [la.primitive_int(r) for r in tab if any(r)]


def _reduce(z: list[int], basis) -> list[int]:
    """z off a canonical basis, each row's positive pivot p cleared in turn
    by z row[p] - z[p] row (for a point (d, x) off rows (0, l) the
    denominator d is multiplied by row[p])."""
    for row in basis:
        p = next(i for i, x in enumerate(row) if x)
        f = z[p]
        if f:
            q = row[p]
            z = [a * q - f * b for a, b in zip(z, row)]
    return z


def _apply(m, g) -> list[int]:
    """The int matrix m times the int vector g."""
    return [sum(map(operator.mul, row, g)) for row in m]


def _on_scale(v, s: int) -> list[int]:
    """s v as ints, for s a multiple of every denominator of v."""
    return [x.numerator * (s // x.denominator) for x in v]


def _scaled(m) -> tuple[list[list[int]], int]:
    """The rows of a rational matrix as ints over one positive denominator."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return [_on_scale(row, d) for row in m], d


def _normal(z) -> list[int]:
    """The primitive normal of an int row (z0, a)."""
    g = math.gcd(*z[1:])
    return [x // g for x in z[1:]]


def _canonical(dim, rows, points, rays, lines, fulldim) -> "Polyhedron":
    """The Polyhedron of primitive int rows, points, rays and lineality
    basis, put in view order: rows by primitive normal, points by x / d
    compared on one common denominator, rays as int tuples."""
    s = math.lcm(*(pt[0] for pt in points))
    points = sorted(points, key=lambda pt: [x * (s // pt[0]) for x in pt[1:]])
    return Polyhedron(dim, tuple(sorted(rows, key=_normal)), tuple(points),
                      tuple(sorted(rays)), tuple(lines), fulldim)


def _maximal(masks: list[int], full: int, live: list[int]) -> list[int]:
    """The indices in live whose tight-set bit mask no other mask of live
    short of full strictly contains (a full mask is never contained, so it
    is kept)."""
    others = {masks[i] for i in live} - {full}
    return [i for i in live
            if not any(masks[i] != o and masks[i] & o == masks[i] for o in others)]


def _transpose(masks: list[int], n: int) -> list[int]:
    """The n column masks of the 0/1 table whose rows are masks, read off
    each row's set bits."""
    cols = [0] * n
    for i, m in enumerate(masks):
        bit = 1 << i
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
    return cols


# ---------------------------------------------------------------------------
# the polyhedron


@dataclass(frozen=True)
class Polyhedron:
    """A rational polyhedron in canonical form, stored on ints: ``rows``
    are primitive (z0, a), read a . x <= -z0, sorted by primitive normal;
    ``points`` primitive (d, x), d > 0, one per vertex x / d, sorted by
    x / d; ``directions`` the primitive recession rays, lineality as +/-
    pairs, sorted; ``lines`` the canonical basis of the lineality space.
    Equality, hash and repr read these; ``halfspaces``, ``vertices``,
    ``rays`` and ``lineality`` are their ``Fraction`` views."""

    dim: int
    rows: tuple[tuple[int, ...], ...]
    points: tuple[tuple[int, ...], ...]
    directions: tuple[tuple[int, ...], ...]
    lines: tuple[tuple[int, ...], ...]
    fulldim: bool

    # the Fraction views, each built on its first read
    halfspaces = functools.cached_property(lambda self: tuple(
        HalfSpace(tuple(map(Fraction, _normal(z))), Fraction(-z[0], math.gcd(*z[1:])))
        for z in self.rows))
    vertices = functools.cached_property(lambda self: tuple(
        tuple(Fraction(x, d) for x in xs) for d, *xs in self.points))
    rays = functools.cached_property(lambda self: la._fractions(self.directions))
    lineality = functools.cached_property(lambda self: la._fractions(self.lines))
    # the f-metric inputs, each built once per body and read by neither
    # equality, hash nor repr: the polars by exact center (``polar``), and
    # the face frames on the body's own scale (``_frames_on``)
    _polars = functools.cached_property(lambda self: {})
    _frames = functools.cached_property(lambda self: _face_frames(self))

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_halfspaces(halfspaces, dim: int) -> "Polyhedron":
        hs = [h if isinstance(h, HalfSpace) else HalfSpace.make(*h)
              for h in halfspaces]
        if not hs:
            raise WholeSpace("no half-spaces given")
        for h in hs:
            if len(h.normal) != dim:
                raise DimensionMismatch(f"normal {h.normal} not in dimension {dim}")
        # a HalfSpace built by a caller may have a normal that is not an
        # integer vector
        return Polyhedron._from_rows(
            [la.integer_copy((-h.offset,) + h.normal) for h in hs], dim)

    @staticmethod
    def _from_rows(rows, dim: int) -> "Polyhedron":
        """The polyhedron of int rows (z0, a), read a . x <= -z0, none zero
        in a: one conversion, then ``_assemble`` with its zero sets."""
        lines, rays, masks = cone_dd(rows + [[-1] + [0] * dim], dim + 1)  # x0 >= 0
        if not any(r[0] > 0 for r in rays):
            raise EmptySet("no feasible point satisfies all half-spaces")
        every = (1 << (len(rows) + 1)) - 1  # a line is tight on every row
        return Polyhedron._assemble(rows, rays + lines, dim,
                                    gen_inc=masks + [every] * len(lines))

    @staticmethod
    def from_generators(vertices, rays=(), dim: int | None = None) -> "Polyhedron":
        verts = [la.vec(v) for v in vertices]
        recrays = [la.vec(r) for r in rays]
        if not verts:
            raise EmptySet("a generator description needs at least one point")
        if dim is None:
            dim = len(verts[0])
        for g in itertools.chain(verts, recrays):
            if len(g) != dim:
                raise DimensionMismatch(f"generator {g} not in dimension {dim}")
        gens = [la.integer_copy((ONE,) + v) for v in verts]
        gens += [la.integer_copy((ZERO,) + r) for r in recrays]
        return Polyhedron._from_gens(gens, dim)

    @staticmethod
    def _from_gens(gens, dim: int) -> "Polyhedron":
        """The polyhedron of int generators (d, x), d > 0, read x / d, and
        (0, r), gens[0] a point: one conversion, then ``_assemble`` with its
        zero sets."""
        dlines, drays, masks = cone_dd(gens, dim + 1)
        every = (1 << len(gens)) - 1  # a dual line is tight on every generator
        return Polyhedron._assemble(dlines + drays, gens, dim,
                                    row_inc=[every] * len(dlines) + masks)

    @staticmethod
    def _assemble(rows, gens, dim, row_inc=None, gen_inc=None) -> "Polyhedron":
        """Canonical form from homogenized rows (z0, c), read as c . x <= -z0,
        that include every facet and span the implicit equalities, and from
        homogenized generators (1, v) and (0, r) that include every extreme
        point and ray and span the lineality space.  The x0 >= 0 row added
        here as the last row tells a quadrant's rays apart from its vertex,
        and no point is tight on it.  Rows and generators are ints, each any
        positive multiple of itself, and none is copied.

        One side came out of a double description of the other, and its
        zero sets are the incidence (module docstring): row_inc[i] has bit j
        iff gens[j] cut and is tight on rows[i], with gens[0] a point;
        gen_inc[j] has bit i iff rows[i] (x0 >= 0 last) cut and is tight on
        gens[j]; a line of that side has every bit.  Exactly one is given,
        and that side is kept whole.  Of the other side, the members in no
        zero set of a ray are redundant and dropped, but gens[0], which
        always cuts: it is the point of an affine subspace, which has no
        facet, and a generator of any other body on no facet is interior.
        The rest are pruned.
        """
        x0 = [-1] + [0] * dim  # x0 >= 0
        rows = [*rows, x0]
        all_r, all_g = (1 << len(rows)) - 1, (1 << len(gens)) - 1
        if gen_inc is not None:
            live = functools.reduce(operator.or_, (m for m in gen_inc if m != all_r), 0)
            row_inc = _transpose(gen_inc, len(rows))
            keep_r = _maximal(row_inc, all_g,
                              [i for i in range(len(rows)) if live >> i & 1])
            keep_g = range(len(gens))
        else:
            live = functools.reduce(operator.or_, (m for m in row_inc if m != all_g), 1)
            row_inc = [*row_inc, live & sum(1 << j for j, g in enumerate(gens) if not g[0])]
            gen_inc = _transpose(row_inc, len(gens))
            keep_r = range(len(rows))
            keep_g = _maximal(gen_inc, all_r,
                              [j for j in range(len(gens)) if live >> j & 1])
        basis = _canonical_basis([gens[j][1:] for j in keep_g if gen_inc[j] == all_r])
        eqs = _canonical_basis([rows[i] for i in keep_r if row_inc[i] == all_g])
        gs = (gens[j] for j in keep_g)
        zs = (rows[i] for i in keep_r)
        if basis or eqs:
            # _reduce is the identity off an empty basis, so a full-dimensional
            # pointed body skips both reductions
            lin_rows = [(0,) + l for l in basis]
            gs = (_reduce(g, lin_rows) for g in gs)
            zs = (_reduce(z, eqs) for z in zs)
            x0 = _reduce(x0, eqs)
        verts, rays = set(), set()
        for g in gs:
            if g[0]:
                verts.add(la.primitive_int(g))
            elif any(g):
                rays.add(la.primitive_int(g[1:]))
        rays.update(basis, (tuple(-x for x in l) for l in basis))
        facets = {la.primitive_int(z) for z in zs if any(z)}
        # the class of (-1, 0) is the inequality 0 . x <= 1, the face at
        # infinity: not a facet, though its normal need not reduce to zero
        facets.discard(la.primitive_int(x0))
        facets.update(z for e in eqs for z in (e, tuple(-x for x in e)))
        if not facets:
            raise WholeSpace("generators span the whole space")
        return _canonical(dim, facets, verts, rays, basis, not eqs)

    # -- queries -------------------------------------------------------------

    def contains_point(self, x, strict: bool = False) -> bool:
        x = la.vec(x)
        if len(x) != self.dim:
            raise DimensionMismatch("point dimension mismatch")
        d, *xs = la.integer_copy((ONE,) + x)
        test = operator.lt if strict else operator.le
        return all(test(z0 * d + sum(map(operator.mul, a, xs)), 0)
                   for z0, *a in self.rows)

    def contains(self, other: "Polyhedron") -> bool:
        """Set containment: other is a subset of self.  Each row z of self
        meets other's points g = (d, x) as z . g <= 0, and its rays r as
        z . (0, r) <= 0."""
        return self._holds(other, operator.gt)

    def contains_in_interior(self, other: "Polyhedron") -> bool:
        """other lies in the topological interior of self."""
        return self._holds(other, operator.ge)

    def _holds(self, other: "Polyhedron", fails) -> bool:
        if self.dim != other.dim:
            raise DimensionMismatch("ambient dimensions differ")
        gens = [(g, fails) for g in other.points]
        gens += [((0,) + r, operator.gt) for r in other.directions]
        for z in self.rows:
            if any(test(sum(map(operator.mul, z, g)), 0) for g, test in gens):
                return False
        return True

    def is_bounded(self) -> bool:
        return not self.directions

    def relative_interior_point(self) -> Vec:
        p = self.vertices[0]
        for v in self.vertices[1:]:
            p = vadd(p, v)
        p = vscale(Fraction(1, len(self.vertices)), p)
        for r in self.rays:
            p = vadd(p, r)
        return p

    def recession_is_subspace(self) -> bool:
        """True iff every recession ray is neutralized by its opposite."""
        rayset = set(self.directions)
        return all(tuple(-x for x in r) in rayset for r in self.directions)


# ---------------------------------------------------------------------------
# polarity


def polar(p: Polyhedron, center=None) -> Polyhedron:
    """(p - center) polar = {y : y . (x - center) <= 1 on p}; center defaults
    to the origin and must lie strictly inside p.

    With the center inside, the face lattice of the polar is that of p
    turned upside down, so its canonical form is written down with no
    conversion and no canonical-form pass: a facet a . x <= b of p gives the
    vertex a / (b - a . center), a vertex v the facet (v - center) . y <= 1
    (v - center reduced off p's lineality), and a ray r the facet r . y <= 0,
    so a +/- pair of lineality rays gives an equality pair and the polar is
    full-dimensional iff p has no lineality.  The origin is one more vertex
    exactly when p's rays span the space.  The polar is bounded.

    Each polar is built once per body and center: p keeps it by the exact
    center (a center that is not interior is not kept), so a repeated
    (p, center) returns the same object.
    """
    c = la.vzero(p.dim) if center is None else la.vec(center)
    if len(c) != p.dim:
        raise DimensionMismatch("point dimension mismatch")
    kept = p._polars.get(c)
    if kept is None:
        kept = p._polars[c] = _polar(p, c)
    return kept


def _polar(p: Polyhedron, c: Vec) -> Polyhedron:
    """The polar of p - c in closed form (``polar``), built anew."""
    # on ints: c is cx / cd, a point (d, x) is x / d, and a row (z0, a) gives
    # the vertex (t, cd a), t = cd times its slack at c, positive iff c is in
    cd, *cx = la.integer_copy((ONE,) + c)
    verts = [[-z0 * cd - sum(map(operator.mul, a, cx))] + [cd * x for x in a]
             for z0, *a in p.rows]
    if any(v[0] <= 0 for v in verts):
        raise OriginNotInterior("polar needs the center strictly inside p")
    verts = list(map(la.primitive_int, verts))
    if la.rank(p.directions) == p.dim:
        verts.append((1,) + (0,) * p.dim)
    lin_rows = [(0,) + l for l in p.lines]
    rows = [la.primitive_int(_reduce([-d * cd] + [cd * a - d * b
                                                  for a, b in zip(x, cx)], lin_rows))
            for d, *x in p.points]
    rows += ((0,) + r for r in p.directions)
    return _canonical(p.dim, rows, verts, (), (), not p.lines)


# ---------------------------------------------------------------------------
# affine images


@dataclass(frozen=True)
class UnimodularMap:
    """x -> m x + shift with m an integer matrix of determinant +/-1 and an
    integer shift, so the integer lattice maps onto itself.  The integer
    inverse of m is kept (not compared, not shown): given, it is checked by
    one integer product; otherwise one elimination finds it."""

    matrix: Mat
    shift: Vec
    inverse_matrix: Mat | None = field(default=None, compare=False, repr=False)

    # the int pair ``_image`` reads, built on the first ``transform`` and
    # read by neither equality, hash nor repr
    _int_pair = functools.cached_property(lambda self: _homogeneous(
        [_on_scale(r, 1) for r in self.matrix], _on_scale(self.shift, 1), 1,
        [_on_scale(r, 1) for r in self.inverse_matrix], 1))

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix) or len(self.shift) != n:
            raise DimensionMismatch("unimodular map needs an n x n matrix "
                                    "and a shift of length n")
        if any(x.denominator != 1 for row in self.matrix for x in row):
            raise ValueError("unimodular matrix must be integer")
        if any(x.denominator != 1 for x in self.shift):
            raise ValueError("unimodular shift must be integer")
        inv = self.inverse_matrix
        if inv is None:
            try:
                inv = la.inverse(self.matrix)
            except ValueError:
                inv = ()
            if len(inv) != n or not all(map(la.is_integer_vec, inv)):
                raise ValueError("matrix determinant must be +1 or -1")
            object.__setattr__(self, "inverse_matrix", inv)
        else:
            # integer m times an integer n x n matrix gives the identity only
            # when det m = +/-1 and that matrix is m^-1: one int product
            m = [_on_scale(row, 1) for row in self.matrix]
            require(len(inv) == n and all(len(row) == n and la.is_integer_vec(row)
                                          for row in inv)
                    and [_apply(m, _on_scale(col, 1)) for col in zip(*inv)]
                    == [[int(i == j) for j in range(n)] for i in range(n)],
                    "stored inverse is not the integer inverse of the matrix")

    @staticmethod
    def make(matrix, shift=None) -> "UnimodularMap":
        m = tuple(la.vec(row) for row in matrix)
        s = la.vec(shift) if shift is not None else la.vzero(len(m))
        return UnimodularMap(m, s)

    def apply(self, x) -> Vec:
        return vadd(la.mat_vec(self.matrix, la.vec(x)), self.shift)

    def inverse(self) -> "UnimodularMap":
        inv = self.inverse_matrix
        shift = _apply([_on_scale(r, 1) for r in inv], _on_scale(self.shift, 1))
        return UnimodularMap(inv, tuple(Fraction(-x) for x in shift), self.matrix)


def _homogeneous(mi, si, dm: int, ki, dk: int):
    """(fwd, back) for x -> (mi x + si) / dm, all ints, whose matrix has the
    inverse ki / dk: fwd = dm h for the homogenized map
    h = [[1, 0], [shift, matrix]], and back the columns of dm dk h^-1."""
    fwd = [[dm] + [0] * len(mi)] + [[s] + row for s, row in zip(si, mi)]
    # the columns of dm dk h^-1 = [[dm dk, 0], [-ki si, dm ki]]
    back = [[dm * dk] + [-x for x in _apply(ki, si)]]
    back += ([0] + [dm * x for x in col] for col in zip(*ki))
    return fwd, back


def _image(p: Polyhedron, fwd, back) -> Polyhedron:
    """Image of p under x -> matrix x + shift, given its int pair (fwd, back)
    from ``_homogeneous``, with no incidence pass (module docstring):
    a . x <= b becomes (a inv) . y <= b + (a inv) . shift, and vertices and
    rays are mapped and reduced off the canonical basis of the image
    lineality.  On ints, the homogenized map h sends a generator g to h g
    and a row z to z h^-1.
    """
    if len(fwd) != p.dim + 1:
        raise DimensionMismatch("map dimension mismatch")
    rows = [la.primitive_int(_apply(back, z)) for z in p.rows]
    if not p.fulldim:
        rows = _flat_rows(rows)
    basis = _canonical_basis([_apply(fwd, (0,) + l)[1:] for l in p.lines])
    lin_rows = [(0,) + l for l in basis]
    # distinct generators of p have distinct images
    verts = [la.primitive_int(_reduce(_apply(fwd, g), lin_rows)) for g in p.points]
    rays = basis + [tuple(-x for x in l) for l in basis]
    for r in p.directions:
        _, *y = _reduce(_apply(fwd, (0,) + r), lin_rows)
        if any(y):
            rays.append(la.primitive_int(y))
    return _canonical(p.dim, rows, verts, rays, basis, p.fulldim)


def _flat_rows(rows) -> list[tuple[int, ...]]:
    """The canonical rows of a flat body from primitive int rows of its
    facets and its equalities, each equality a pair of opposite rows: the
    canonical basis of the pairs, as pairs, and every other row reduced off
    it (distinct facets stay distinct)."""
    both = set(rows)
    flat = [tuple(-x for x in z) in both for z in rows]
    eqs = _canonical_basis([z for z, f in zip(rows, flat) if f])
    facets = [la.primitive_int(_reduce(z, eqs)) for z, f in zip(rows, flat) if not f]
    return facets + [z for e in eqs for z in (e, tuple(-x for x in e))]


def affine_image(p: Polyhedron, matrix: Mat, shift: Vec) -> Polyhedron:
    """Image of p under the invertible map x -> matrix x + shift.

    The matrix is inverted once and the image written in closed form (see
    ``_image``); no conversion and no canonical-form pass runs.  The matrix
    and shift may hold ints or Fractions, not floats.
    """
    matrix = tuple(la.vec(row) for row in matrix)
    shift = la.vec(shift)
    if any(len(row) != p.dim for row in (shift,) + matrix) or len(matrix) != p.dim:
        raise DimensionMismatch("map dimension mismatch")
    (*mi, si), dm = _scaled(matrix + (shift,))
    return _image(p, *_homogeneous(mi, si, dm, *_scaled(la.inverse(matrix))))


def transform(p: Polyhedron, t: UnimodularMap) -> Polyhedron:
    """The image of p under t, from the int pair t keeps (no scaling)."""
    return _image(p, *t._int_pair)


def minkowski_scale_shift(p: Polyhedron, lam, v) -> Polyhedron:
    """lam * p + v for a positive rational lam, in closed form on ints
    (``_scale_shift``), flat or not."""
    lam = la.frac(lam)
    v = la.vec(v)
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    if len(v) != p.dim:
        raise DimensionMismatch("shift dimension mismatch")
    dv, *V = la.integer_copy((ONE,) + v)
    return _scale_shift(p, lam.numerator, lam.denominator, dv, V)


def _scale_shift(p: Polyhedron, P: int, Q: int, dv: int, V: list[int]) -> Polyhedron:
    """lam p + v for lam = P / Q > 0 and v = V / dv, dv > 0, in any terms:
    each row and point is made primitive.  With s = S / ds the shift reduced
    off the lineality and a point (dx, X), a row a . x <= -z0 becomes
    Q dv a . y <= Q a . V - P dv z0, and a vertex x becomes lam x + s.

    A positive scaling keeps every normal, ray and the lineality, and both
    sort orders, so a full-dimensional image is written down as it is.  The
    facet rows of a flat body are reduced off its equalities, so they
    depend on where the body sits (the segment conv{(0, 1), (1, 1)} has the
    row x - y <= 0, its translate by (0, 2) the row 3x - y <= 0, not
    x - y <= -2): its mapped rows are reduced again (``_flat_rows``) and
    sorted by normal, while its points, rays and lineality keep their
    order."""
    ds, *S = _reduce([dv] + V, [(0,) + l for l in p.lines])
    pd, qd, pds = P * dv, Q * dv, P * ds
    rows = [la.primitive_int([pd * z0 - Q * sum(map(operator.mul, a, V))]
                             + [qd * x for x in a]) for z0, *a in p.rows]
    points = tuple(la.primitive_int([Q * dx * ds] + [pds * a + Q * dx * s
                                                     for a, s in zip(X, S)])
                   for dx, *X in p.points)
    if not p.fulldim:
        rows = sorted(_flat_rows(rows), key=_normal)
    return Polyhedron(p.dim, tuple(rows), points, p.directions, p.lines, p.fulldim)


def homothety(p: Polyhedron, center, factor) -> Polyhedron:
    """Scale p about center: x -> center + factor (x - center), factor > 0.

    The shift (1 - t) c is taken as ints: with t = P / Q and c = C / cd it
    is (Q - P) C over Q cd.  A factor <= 0 or a center of the wrong length
    goes to ``minkowski_scale_shift``, which raises the error.
    """
    center = la.vec(center)
    factor = la.frac(factor)
    if factor <= 0 or len(center) != p.dim:
        return minkowski_scale_shift(p, factor, vscale(ONE - factor, center))
    P, Q = factor.numerator, factor.denominator
    cd, *C = la.integer_copy((ONE,) + center)
    return _scale_shift(p, P, Q, Q * cd, [(Q - P) * c for c in C])


def translate(p: Polyhedron, v) -> Polyhedron:
    return minkowski_scale_shift(p, 1, v)


# ---------------------------------------------------------------------------
# exact euclidean distances (squared) between polytopes


def _face_frames(p: Polyhedron) -> tuple[list[list[int]], list[tuple]]:
    """p's vertices as ints (s, s v) for s the lcm of their denominators, and
    a frame for a bounded p and each face with two or more vertices: the faces
    are the vertex sets tight on each int row z, closed under intersection.
    A frame is a base vertex, an orthogonal int basis b_k of the face's hull
    by fraction-free Gram-Schmidt (u <- bb u - (u . b) b, made primitive,
    bb = |b|^2), P the lcm of the bb_k, w_k = P / bb_k, and the ints
    (z . base P, z . b_k w_k) of each row z not tight on the whole face (a
    row tight there holds on the face's affine hull).
    """
    if p.directions:
        raise ValueError("distance helper needs a bounded target")
    s = math.lcm(*(d for d, *_ in p.points))
    verts = [[s] + [x * (s // d) for x in xs] for d, *xs in p.points]
    rows = p.rows
    tight = [frozenset(i for i, v in enumerate(verts)
                       if not sum(map(operator.mul, z, v))) for z in rows]
    faces = {frozenset(range(len(verts)))}
    todo = list(tight)
    while todo:
        f = todo.pop()
        if len(f) < 2 or f in faces:
            continue
        todo.extend(f & g for g in faces)
        faces.add(f)
    frames = []
    for f in faces:
        base, *rest = (verts[i] for i in sorted(f))
        basis, bbs = [], []
        for v in rest:
            u = [x - y for x, y in zip(v, base)]
            for b, bb in zip(basis, bbs):
                ub = sum(map(operator.mul, u, b))
                u = [bb * x - ub * y for x, y in zip(u, b)]
            if any(u):
                basis.append(la.primitive_int(u))
                bbs.append(sum(x * x for x in basis[-1]))
        big = math.lcm(*bbs)
        weights = [big // bb for bb in bbs]
        tests = [[t * w for t, w in zip(_apply([base, *basis], z), [big, *weights])]
                 for z, t in zip(rows, tight) if not f <= t]
        frames.append((base, big, basis, weights, tests))
    return verts, frames


def _distance_sq(x: list[int], verts, frames, cap=(-1, 1)) -> tuple[int, int]:
    """Squared distance (num, den) from x to the body of ``_face_frames``, on
    its scale, or the first value <= cap = (num, den) found.  A face gives
    (|rel|^2 P - sum c_k^2 w_k) / P for rel = x - base and c_k = rel . b_k,
    and x projects into the body iff t_0 + sum c_k t_k <= 0 on every row.
    """
    (cn, cd), bn, bd = cap, None, 1
    for v in verts:
        d = sum((a - b) ** 2 for a, b in zip(x, v))
        if d * cd <= cn:
            return d, 1
        bn = d if bn is None or d < bn else bn
    for base, big, basis, weights, tests in frames:
        rel = [a - b for a, b in zip(x, base)]
        c = [sum(map(operator.mul, rel, b)) for b in basis]
        d = sum(r * r for r in rel) * big - sum(k * k * w for k, w in zip(c, weights))
        if d * bd < bn * big and all(t0 + sum(map(operator.mul, c, t)) <= 0
                                     for t0, *t in tests):
            if d * cd <= cn * big:
                return d, big
            bn, bd = d, big
    return bn, bd


def _frames_on(p: Polyhedron, s: int) -> tuple[list[list[int]], list[tuple]]:
    """p's face frames on the scale s, a multiple of the scale s0 on which p
    built them once (``Polyhedron._frames``): with k = s / s0 the vertices,
    each frame's base and each test's t_0 are multiplied by k, and the
    primitive basis, P and the weights do not depend on the scale, so the
    ints are those that ``_face_frames`` would write on the scale s."""
    verts, frames = p._frames
    k = s // verts[0][0]
    if k == 1:
        return verts, frames
    return ([[k * x for x in v] for v in verts],
            [([k * x for x in base], big, basis, weights,
              [[k * t0, *t] for t0, *t in tests])
             for base, big, basis, weights, tests in frames])


def hausdorff_sq(p: Polyhedron, q: Polyhedron) -> Fraction:
    """Exact squared Hausdorff distance between bounded polyhedra of one
    dimension.

    sup over p of the distance to q is attained at a vertex of p because the
    distance function to a convex set is convex; likewise with the roles
    swapped.  All comparisons happen on squared values, so no roots appear.
    Each walk stops at a point no farther than the running maximum, which
    cannot raise it (the early break of Taha & Hanbury, TPAMI 2015).  Each
    body builds its face frames once, on its own scale; both walks run on
    ints for the common scale s, the lcm of the two, and the result is
    d / s^2.
    """
    if p.dim != q.dim:
        raise DimensionMismatch("ambient dimensions differ")
    s = math.lcm(*(pt[0] for pt in p.points + q.points))
    (pv, pf), (qv, qf) = _frames_on(p, s), _frames_on(q, s)
    dn, dd = 0, 1
    for xs, verts, frames in ((pv, qv, qf), (qv, pv, pf)):
        for x in xs:
            n, d = _distance_sq(x, verts, frames, (dn, dd))
            if n * dd > dn * d:
                dn, dd = n, d
    return Fraction(dn, dd * s * s)


# ---------------------------------------------------------------------------
# level slices and embeddings (last-axis convention); a slice is read off the
# int rows with x_n fixed, so it costs one conversion


def level_slice(p: Polyhedron, level) -> Polyhedron:
    """p intersected with {x_n = level}, in the first n-1 coordinates.

    With level = t / dt, each int row (z0, a) becomes
    (dt z0 + a_n t, dt a[:-1]), read dt a[:-1] . y <= -(dt z0 + a_n t).  A
    row whose new normal is zero is dropped when it holds and raises
    EmptySet when it fails; WholeSpace is raised when no row constrains the
    slice.
    """
    level = la.frac(level)
    t, dt = level.numerator, level.denominator
    rows = []
    for z0, *a in p.rows:
        head = [dt * x for x in a[:-1]]
        z = dt * z0 + a[-1] * t
        if any(head):
            rows.append([z] + head)
        elif z > 0:
            raise EmptySet("the level misses a half-space")
    if not rows:
        raise WholeSpace("no half-spaces given")
    return Polyhedron._from_rows(rows, p.dim - 1)


def embed_last_axis(p: Polyhedron, level) -> Polyhedron:
    """Place p into one more dimension at height x_n = level: with level =
    t / dt, a point (d, x) becomes (dt d, dt x, t d) and a ray gains a 0."""
    level = la.frac(level)
    t, dt = level.numerator, level.denominator
    return Polyhedron._from_gens(
        [(dt * d, *(dt * x for x in xs), t * d) for d, *xs in p.points]
        + [(0, *r, 0) for r in p.directions], p.dim + 1)


def product_with_line(p: Polyhedron, extra: int = 1) -> Polyhedron:
    """p x R^extra (new free coordinates appended)."""
    zeros = (0,) * extra
    gens = [g + zeros for g in p.points] + [(0, *r) + zeros for r in p.directions]
    for k in range(extra):
        e = tuple(int(i == p.dim + 1 + k) for i in range(p.dim + extra + 1))
        gens.extend((e, tuple(-x for x in e)))
    return Polyhedron._from_gens(gens, p.dim + extra)
