"""Integer points in rational polyhedra: enumeration, lattice-free
certificates, lattice width, and growth to maximal lattice-free bodies.

A body is lattice-free when its topological interior contains no integer
point.  ``interior_lattice_point`` is the one routine that decides it; every
yes/no check asks it directly.  Certificates are two-sided: a violating
interior integer point, or per-facet integer witnesses (an integer point in
each facet's relative interior proves the body cannot be enlarged, so
witnesses on every facet certify maximality).

Every enumeration is one integer column scan: ``_columns`` takes int rows
(z0, a), read a . z + z0 <= 0, runs all axes but one over integer ranges in
itertools.product order and solves that one as an exact integer interval by
floor division, one int dot product per row.  ``_scan`` takes the first
nonempty column (at the end ``_strict_integer`` picks), ``lattice_points_in``
expands every column, and ``lattice_width`` expands the integer points of
the difference body's polar, taken after projecting along the rays.

One int kernel, ``_interior_point``, searches the interior of a body given
as int rows, points and rays, and reads no ``Polyhedron``.  A bounded body
scans its box; one fat in every axis is first turned by an int unimodular
pair so that its thinnest facet normal becomes an axis.  An unbounded body
is projected along its rays by the same int frame as its width: the
projection's box is scanned, and one ``_strict_integer`` step along the ray
sum lifts the point it finds back into the body.  Every full-dimensional
body, lineality or not, is certified directly: the interior search, then
one search per facet that no integer point the caller holds witnesses
(each such point is checked exactly on the rows).  The facet search picks
its route by dimension: on the line it tests the facet's one point, in the
plane it solves along the integer points of the facet's line, and from
dimension 3 on it turns the facet onto a level of the last axis by an int
unimodular pair and hands the kernel the other rows there with p's points
and rays tight on the facet, so no facet is built as a body.  Growth in the
plane drops and pushes int rows.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .errors import (
    NotFullDimensional,
    NotLatticeFreeInput,
    UnboundedEnumeration,
    UnsupportedDimension,
    require,
)
from .geometry import Polyhedron, _apply, _canonical_basis, _normal, _reduce
from .linalg import Vec


# ---------------------------------------------------------------------------
# plain enumeration


def lattice_points_in(p: Polyhedron, strict: bool = False) -> list[Vec]:
    """All integer points of p (of its interior when strict), in
    itertools.product order: every column of its box, last axis solved."""
    return [tuple(map(Fraction, z)) for z in _points_in(p, strict)]


def _points_in(p: Polyhedron, strict: bool = False) -> list[tuple[int, ...]]:
    """``lattice_points_in`` as int tuples."""
    if p.directions:
        raise UnboundedEnumeration("cannot enumerate an unbounded polyhedron")
    s, points = _common_scale(p.points)
    return [combo + (t,)
            for combo, (t0, t1) in _columns(p.rows, _box(points, s), p.dim - 1, strict)
            for t in range(t0, t1 + 1)]


def point_denominator(x) -> int:
    """Least q >= 1 with q x integer."""
    return la.denominator_lcm(la.vec(x))


def flatness_bound(n: int) -> int:
    """ceil(n^(5/2)): every lattice-free body in dimension n is this thin
    in some integer direction."""
    if n < 1:
        raise UnsupportedDimension("dimension must be at least 1")
    k = n ** 5
    s = math.isqrt(k)
    return s if s * s == k else s + 1


# ---------------------------------------------------------------------------
# integer points on a constrained line (the 2-d workhorse)


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _interval(pairs):
    """(lo, hi) bounding the integers t with den * t < num for every pair
    (num, den), an end None where no pair bounds it, or None when there are
    none.  Floor division is exact for int and Fraction pairs alike:
    t <= -(-num // den) - 1 when den > 0, t >= num // den + 1 when den < 0."""
    lo = hi = None
    for num, den in pairs:
        if den > 0:
            t = -(-num // den) - 1
            if hi is None or t < hi:
                hi = t
        elif den < 0:
            t = num // den + 1
            if lo is None or t > lo:
                lo = t
        elif num <= 0:
            return None
    if lo is not None and hi is not None and hi < lo:
        return None
    return lo, hi


def _end(lo, hi):
    """The integer of a nonempty interval that the searches return: its top
    when bounded above, else its bottom, else 0."""
    return hi if hi is not None else 0 if lo is None else lo


def _strict_integer(pairs):
    """An integer t with den * t < num for every pair (num, den), or None:
    the largest when some den > 0 bounds t from above, else the smallest; 0
    when no pair bounds t."""
    span = _interval(pairs)
    return None if span is None else _end(*span)


def _columns(rows, ranges, axis: int, strict: bool = True):
    """The one integer column scan: (combo, (lo, hi)) for every nonempty
    column of integer points in the int rows (z0, a), read a . z + z0 <= 0
    (< 0 if strict).

    The coordinates other than axis run over their integer ranges in
    itertools.product order (ranges[axis] is ignored); for each choice the
    axis coordinate is the interval solved by _interval, a . z < -z0, or
    a . z < 1 - z0 when not strict, so a column costs one int dot product
    per row.
    """
    others = [i for i in range(len(ranges)) if i != axis]
    split = [(-z0 + (not strict), [a[i] for i in others], a[axis])
             for z0, *a in rows]
    for combo in itertools.product(*(ranges[i] for i in others)):
        span = _interval((b - sum(map(operator.mul, a, combo)), a_axis)
                         for b, a, a_axis in split)
        if span is not None:
            yield combo, span


def _scan(rows, ranges, axis: int):
    """First integer point strictly inside every int row (z0, a), as an int
    tuple, or None: the first nonempty column, at the end _strict_integer
    picks."""
    for combo, span in _columns(rows, ranges, axis):
        return combo[:axis] + (_end(*span),) + combo[axis:]
    return None


def _integer_point_on_line(a, beta: int, rows):
    """Integer z with a . z = beta, a a primitive 2-d int normal, strictly
    inside every int row (w0, w), read w . z + w0 < 0, or None: the integer
    solutions of a . z = beta are x + t d, and _strict_integer picks t.
    """
    g, u, v = _xgcd(a[0], a[1])
    require(g == 1, "line normal is not primitive")
    x, d = (u * beta, v * beta), (-a[1], a[0])
    t = _strict_integer((-w0 - w[0] * x[0] - w[1] * x[1], w[0] * d[0] + w[1] * d[1])
                        for w0, *w in rows)
    return None if t is None else tuple(Fraction(a + t * b) for a, b in zip(x, d))


# ---------------------------------------------------------------------------
# interior integer point


def interior_lattice_point(p: Polyhedron):
    """An integer point strictly inside p, or None when p is lattice-free:
    ``_interior_point`` on p's int rows, points and rays."""
    if not p.fulldim:
        raise NotFullDimensional("interior search needs a full-dimensional body")
    z = _interior_point(p.rows, p.points, p.directions, p.dim)
    return None if z is None else tuple(map(Fraction, z))


def _interior_point(rows, points, directions, n: int):
    """An integer point, as ints, strictly inside the n-dimensional body of
    int rows (z0, a), read a . x + z0 < 0, points (d, x), read x / d, and
    rays, or None.  Every generator lies in the body, and each vertex is
    among the points; rows and generators need not be canonical.

    Decides every full-dimensional body.  A bounded body scans its box.  An
    unbounded one is read in the frame y = U x of its rays (``_ray_frame``):
    the rows whose trailing part vanishes, those parallel to every ray, cut
    out its projection along the rays, which ``_box_scan`` searches in the
    box of the projected vertices for the first interior integer y'.  Every
    other row has a negative product with the ray sum w, so x = C (y', t w)
    for the least integer t that ``_strict_integer`` returns over all rows,
    where a row parallel to the rays re-checks y'.  When the rays span the
    space, U is the identity and y' is empty.
    """
    if not directions:
        return _bounded_interior_point(rows, points, n)
    _, c, r, s, heads = _ray_frame(points, directions, n)
    k = n - r
    y = ()
    if k:
        ct = list(zip(*c))  # a . x = (C^T a) . y
        turned = ([z0] + _apply(ct, a) for z0, *a in rows)
        y = _box_scan([b[:k + 1] for b in turned if not any(b[k + 1:])], heads, s)
        if y is None:
            return None
    x0 = _apply(c, list(y) + [0] * r)
    w = list(map(sum, zip(*directions)))
    t = _strict_integer((-z0 - sum(map(operator.mul, a, x0)),
                         sum(map(operator.mul, a, w))) for z0, *a in rows)
    require(t is not None, "projected point is not interior")
    return [a + t * b for a, b in zip(x0, w)]


def _ray_frame(points, directions, n: int):
    """(U, C, r, s, heads): int rows U and C = U^-1 sending the r-dimensional
    span of the rays onto the trailing r axes of y = U x (the identity when r
    is 0 or n), and heads the leading n - r entries of U s v for each point
    v, s their common denominator: the body projected along its rays, on one
    scale."""
    u, c, r = la.alignment_int(directions, n)
    s, scaled = _common_scale(points)
    return u, c, r, s, [_apply(u, v)[:n - r] for v in scaled]


def _common_scale(points):
    """(s, [s v]): the points (d, x) as ints s x / d, s the lcm of the d."""
    s = math.lcm(*(g[0] for g in points))
    return s, [[x * (s // d) for x in xs] for d, *xs in points]


def _spread(u, points) -> int:
    """max - min of u . v over int points v."""
    vals = [sum(map(operator.mul, u, v)) for v in points]
    return max(vals) - min(vals)


def _bounded_interior_point(rows, points, n: int):
    """First strict integer point of a bounded body, or None.

    The widest axis is solved as an exact interval per candidate of the
    remaining axes, so cost follows the product of the small extents.  A
    body fat in every axis is first turned so its thinnest facet-normal
    direction becomes an axis; cone-over-base and slab-like bodies are thin
    along one of their own normals even when no coordinate axis shows it.
    The int pair (U, C) of ``la.alignment_int`` gives the frame y = C^T x:
    a row (z0, a) becomes (z0, U a), a point s v becomes C^T s v, and the
    point the scan finds goes back by x = U^T y.  A unimodular frame keeps
    every vertex's denominator and every normal width, so the turned body
    is scanned as it is, never turned again.
    """
    s, points = _common_scale(points)
    extents = [max(a) - min(a) for a in zip(*points)]  # on scale s
    budget = 1
    for e in sorted(extents)[:-1]:
        budget *= e // s + 1
    if n >= 3 and budget > 20000:
        u_best = min(map(_normal, rows), key=lambda u: _spread(u, points))
        if _spread(u_best, points) < min(extents):
            u, c, _ = la.alignment_int([u_best], n)
            ct = list(zip(*c))
            z = _box_scan([[z0] + _apply(u, a) for z0, *a in rows],
                          [_apply(ct, v) for v in points], s)
            return None if z is None else _apply(list(zip(*u)), z)
    return _box_scan(rows, points, s)


def _box(points, s) -> list[range]:
    """The integer ranges of the box of int points / s."""
    return [range(-(-min(a) // s), max(a) // s + 1) for a in zip(*points)]


def _box_scan(rows, points, s=1):
    """_scan over the box of points / s, its widest axis solved."""
    cols = list(zip(*points))
    axis = max(range(len(cols)), key=lambda i: max(cols[i]) - min(cols[i]))
    return _scan(rows, _box(points, s), axis)


# ---------------------------------------------------------------------------
# facet witnesses and the lattice-free certificate


@dataclass(frozen=True)
class LatticeFreeCert:
    """Outcome of a lattice-free check.

    lattice_free      -- whether the interior avoids integer points
    interior_witness  -- violating integer point when not lattice-free
    facet_witnesses   -- per facet, an integer point in its relative
                         interior (None when that facet has none)
    maximal           -- True iff every facet is witnessed; a witnessed
                         facet cannot be pushed outward, an unwitnessed one
                         can, so this settles maximality exactly
    """

    lattice_free: bool
    interior_witness: Vec | None
    facet_witnesses: tuple
    maximal: bool | None

    def unwitnessed(self) -> list[int]:
        return [i for i, w in enumerate(self.facet_witnesses) if w is None]


def facet_interior_lattice_point(p: Polyhedron, j: int):
    """Integer point in the relative interior of facet j, or None.

    From dimension 3 on, U from ``la.alignment_int`` turns the facet onto a
    level of the last axis, and ``_interior_point`` searches it there on the
    other rows and on p's points and rays tight on the facet, mapped by C^T:
    a bounded facet is scanned in its box, an unbounded one projected along
    its rays, and one whose relative interior is the whole level gives 0."""
    if not p.fulldim:
        raise NotFullDimensional("facet search needs a full-dimensional body")
    tight = p.rows[j]
    int_others = p.rows[:j] + p.rows[j + 1:]
    if math.gcd(*tight[1:]) != 1:
        return None  # primitive normal: a fractional level misses Z^n entirely
    if p.dim == 1:
        x = -tight[0] * tight[1]  # the normal is +/-1
        return (Fraction(x),) if all(w0 + w * x < 0 for w0, w in int_others) else None
    if p.dim == 2:
        return _integer_point_on_line(tight[1:], -tight[0], int_others)
    u, c, _ = la.alignment_int([tight[1:]], p.dim)
    level = -tight[0] * sum(map(operator.mul, u[-1], tight[1:]))
    # under y = U^-T x = C^T x the plane becomes y_n = level and a row (z0, a)
    # becomes (z0, U a); fixing y_n leaves (z0 + (U a)_n level, (U a)[:-1]),
    # and a row whose head vanishes (parallel to the plane) holds strictly
    rows = []
    for z0, *a in int_others:
        *head, last = _apply(u, a)
        if any(head):
            rows.append([z0 + last * level] + head)
        else:
            require(z0 + last * level < 0, "a parallel row misses the facet")
    # the facet's points and rays are p's tight on it, mapped by C^T
    ct = list(zip(*c))
    points = [[g[0]] + _apply(ct, g[1:])[:-1] for g in p.points
              if not sum(map(operator.mul, tight, g))]
    directions = [_apply(ct, r)[:-1] for r in p.directions
                  if not sum(map(operator.mul, tight[1:], r))]
    if p.lines:
        # the rays reduced off the facet's canonical lineality basis, as the
        # facet's canonical form has them, so that the ray sum is its own
        basis = _canonical_basis([_apply(ct, l)[:-1] for l in p.lines])
        rays = (_reduce(r, basis) for r in directions)
        directions = [la.primitive_int(r) for r in rays if any(r)]
        directions += basis + [[-x for x in l] for l in basis]
    z2 = _interior_point(rows, points, directions, p.dim - 1)
    if z2 is None:
        return None
    z = _apply(list(zip(*u)), list(z2) + [level])
    on, *off = _apply([tight, *int_others], [1] + z)
    require(on == 0 and all(x < 0 for x in off),
            "facet witness is not in the relative interior")
    return tuple(map(Fraction, z))


def certify_lattice_free(p: Polyhedron, witnesses=()) -> LatticeFreeCert:
    """Decide lattice-freeness of a full-dimensional body, with evidence.

    witnesses: integer points the caller already holds, each meant to lie in
    the relative interior of one facet.  Each is checked exactly on p's int
    rows (integral, zero slack on one row, negative on every other) and
    raises ``CertificateError`` when it fails; one that passes is that
    facet's witness, the first one given when several land on one facet.
    Only the facets no given point witnesses are searched, and the interior
    search always runs, so the decisions are those of the search alone."""
    if not p.fulldim:
        raise NotFullDimensional("lattice-free check needs a full-dimensional body")
    given = _checked_witnesses(p, witnesses)
    return _certificate(p, interior_lattice_point(p), given)


def _checked_witnesses(p: Polyhedron, witnesses) -> dict[int, Vec]:
    """The given points by the row of p whose relative interior each lies
    in, checked exactly on p's int rows."""
    given = {}
    for x in map(la.vec, witnesses):
        require(len(x) == p.dim and la.is_integer_vec(x),
                f"witness {x} is not an integer point of the space")
        slacks = _apply(p.rows, [1] + [int(c) for c in x])
        tight = [j for j, sl in enumerate(slacks) if sl == 0]
        require(len(tight) == 1 and max(slacks) == 0,
                f"witness {x} is not in the relative interior of a facet")
        given.setdefault(tight[0], x)
    return given


def _certificate(p: Polyhedron, bad, given: dict[int, Vec]) -> LatticeFreeCert:
    """The certificate of p given its interior search's answer bad, an
    integer point strictly inside p or None when p is lattice-free, and
    checked facet witnesses by row (``_checked_witnesses``): every other
    facet is searched."""
    if bad is not None:
        return LatticeFreeCert(False, bad, (), None)
    witnesses = tuple(given.get(j) or facet_interior_lattice_point(p, j)
                      for j in range(len(p.rows)))
    return LatticeFreeCert(True, None, witnesses,
                           all(w is not None for w in witnesses))


# ---------------------------------------------------------------------------
# lattice width


@dataclass(frozen=True)
class WidthReport:
    """Certified lattice width; every field is None when it is infinite.

    Soundness: width_u(p) is finite only for u orthogonal to the rays (rank n
    rays leave room for every ball).  A unimodular U sends their span onto
    the trailing r axes, so those u are U^T (c, 0), and width_u(p) is the
    support function at c of P - P, P the hull of the leading n - r entries
    of U v over the vertices.  The scan covers K = w0 (P - P) polar, which
    holds every c no wider than the best axis width w0.  With m the largest
    coordinate of K's vertices, P holds a segment of length segment_bound =
    w0 / m along every axis, and search_bound = ceil(m) >= ||c||_inf on K.
    """

    width: Fraction | None
    direction: Vec | None
    segment_bound: Fraction | None
    search_bound: int | None


def lattice_width(p: Polyhedron) -> WidthReport:
    """Least support width over primitive integer directions: the first of
    least width in itertools.product order over K (see WidthReport), leading
    entry positive, for the hull of the vertices projected along the rays
    (``_ray_frame``), mapped back by U^T."""
    if not p.fulldim:
        raise NotFullDimensional("width needs a full-dimensional body")
    um, _, r, s, heads = _ray_frame(p.points, p.directions, p.dim)
    n = p.dim - r
    if not n:
        return WidthReport(None, None, None, None)
    # a repeated point would give K a zero row
    verts = list(dict.fromkeys(map(tuple, heads)))
    best, axis = min((_spread([int(i == j) for j in range(n)], verts), i)
                     for i in range(n))
    best_u = tuple(int(i == axis) for i in range(n))
    w0 = Fraction(best, s)  # K's rows on scale s: (s v - s x) . u <= s w0
    diffs = [list(map(operator.sub, v, x)) for v, x in itertools.permutations(verts, 2)]
    diffs.sort(key=lambda d: -sum(x * x for x in d))  # longest first: fewer DD rays
    k = Polyhedron._from_rows([[-best] + d for d in diffs], n)
    top = max(Fraction(max(x), d) for d, *x in k.points)
    require(top > 0, "difference body polar is not full-dimensional")
    for z in _points_in(k):
        if next((x for x in z if x), 0) <= 0 or math.gcd(*z) != 1:
            continue  # zero, the mirror of a direction, or not primitive
        w = _spread(z, verts)
        if w < best:
            best, best_u = w, z
    back = la.primitive_int(_apply(list(zip(*um)), best_u + (0,) * r))  # U^T (c, 0)
    return WidthReport(Fraction(best, s), tuple(map(Fraction, back)), w0 / top,
                       math.ceil(top))


# ---------------------------------------------------------------------------
# growth to a maximal lattice-free body (dimension <= 2)


def grow_to_maximal(p: Polyhedron) -> Polyhedron:
    """A maximal lattice-free body containing p (plane and line only).

    Repeatedly picks a facet with no integer point in its relative interior
    and drops it when the other facets alone still bound a lattice-free
    body; otherwise that body's interior integer point z bounds the push:
    the facet moves outward to the first integer level, at most a . z, that
    meets an integer point admissible for all other facets.  Witnessed
    facets stay witnessed, so the pair (facet count, unwitnessed count)
    strictly decreases and the loop ends; their witnesses, and the point
    that ends a push, are handed to the next certificate, which searches
    only the facets none of them witnesses.
    """
    if p.dim > 2:
        raise UnsupportedDimension("growth is implemented for dimensions 1 and 2")
    cert = certify_lattice_free(p)
    if not cert.lattice_free:
        raise NotLatticeFreeInput(
            f"interior integer point {cert.interior_witness}")
    if p.dim == 1:
        lo = min(x // d for d, x in p.points)  # the floor of the least vertex
        return Polyhedron._from_rows([[-lo - 1, 1], [lo, -1]], 1)

    q = p
    while not cert.maximal:
        j = cert.unwitnessed()[0]
        tight = q.rows[j]
        cons = q.rows[:j] + q.rows[j + 1:]
        kept = [w for w in cert.facet_witnesses if w is not None]
        q, z = _try_drop(cons)
        if z is None:
            # the drop searched q's interior
            cert = _certificate(q, None, _checked_witnesses(q, kept))
            continue
        # the facet cannot be dropped: push it.  z is strictly inside the
        # other facets and beyond this one (on its line z would witness
        # it), so the level a . z has a point and ends the scan
        g = math.gcd(*tight[1:])
        normal = [x // g for x in tight[1:]]
        hits = (_integer_point_on_line(normal, t, cons)
                for t in range(-tight[0] // g + 1, sum(map(operator.mul, normal, z)) + 1))
        hit = next((w for w in hits if w is not None), None)
        require(hit is not None, "no level up to a . z meets an integer point")
        level = int(sum(map(operator.mul, normal, hit)))
        q = Polyhedron._from_rows([*cons, (-level, *normal)], 2)
        cert = certify_lattice_free(q, kept + [hit])
        require(cert.lattice_free, "grown body is not lattice-free")
    return q


def _try_drop(rows):
    """(body, z): the body on the int rows of the remaining facets and an
    integer point strictly inside it, z None when it is lattice-free."""
    q = Polyhedron._from_rows(list(rows), 2)
    return q, _interior_point(q.rows, q.points, q.directions, 2)
