"""Brute-force reference implementations used to freeze expected test values.

Everything here is deliberately independent of the library's conversion
engine: vertices come from solving n-subsets of facet equations, LP values
from scanning vertices, lattice counts from box enumeration.  Slow and
simple on purpose.  The Fraction kernels that integer ones replaced live on
here as references for them.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from latcut import linalg as la
from latcut.errors import DimensionMismatch
from latcut.linalg import ONE, ZERO, Vec, dot, vadd, vneg, vscale, vsub


@dataclass(frozen=True)
class LpResult:
    status: str  # 'optimal' | 'unbounded' | 'infeasible'
    value: Fraction | None = None
    point: Vec | None = None
    ray: Vec | None = None


def norm_sq(u: Vec) -> Fraction:
    return dot(u, u)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def polyhedron_of(dim, halfspaces, vertices, rays, lineality, fulldim):
    """The polyhedron whose ``Fraction`` views are these canonical fields:
    the Fraction references below build through it."""
    from latcut.geometry import _canonical

    return _canonical(dim, [tuple(la.integer_copy((-h.offset,) + h.normal))
                            for h in halfspaces],
                      [tuple(la.integer_copy((ONE,) + v)) for v in vertices],
                      [tuple(la.integer_copy(r)) for r in rays],
                      [tuple(la.integer_copy(l)) for l in lineality], fulldim)


def brute_force_vertices(halfspaces, dim):
    """All basic feasible points of an inequality system.

    Solves every dim-subset of facet equations and keeps the solutions that
    satisfy the whole system.  Complete for the vertex set of a pointed
    polyhedron (every vertex has dim tight, independent facets).
    """
    hs = [(la.vec(a), la.frac(b)) for a, b in halfspaces]
    found = set()
    for subset in itertools.combinations(hs, dim):
        m = tuple(a for a, _ in subset)
        if la.rank(m) != dim:
            continue
        x = la.solve(m, tuple(b for _, b in subset))
        if x is None:
            continue
        if all(dot(a, x) <= b for a, b in hs):
            found.add(x)
    return sorted(found)


def brute_force_lp(objective, vertices):
    """Max of a linear functional over an explicit point list."""
    objective = la.vec(objective)
    return max(dot(objective, la.vec(v)) for v in vertices)


def lattice_points_box(lo, hi):
    """All integer points z with lo <= z <= hi, coordinatewise."""
    ranges = [range(math.ceil(l), math.floor(h) + 1) for l, h in zip(lo, hi)]
    return [tuple(Fraction(z) for z in pt) for pt in itertools.product(*ranges)]


def lattice_points_in_hrep(halfspaces, lo, hi, strict=False):
    hs = [(la.vec(a), la.frac(b)) for a, b in halfspaces]
    out = []
    for z in lattice_points_box(lo, hi):
        if strict:
            ok = all(dot(a, z) < b for a, b in hs)
        else:
            ok = all(dot(a, z) <= b for a, b in hs)
        if ok:
            out.append(z)
    return out


def lp_solve(objective, p, sense="max") -> LpResult:
    """Exact LP over p's half-space description by the simplex: an LP route
    that ignores p's generators, so vertex enumeration and pivoting stay
    independent."""
    objective = la.vec(objective)
    assert len(objective) == p.dim
    rows = [h.normal for h in p.halfspaces]
    rhs = [h.offset for h in p.halfspaces]
    return fraction_solve_ineq(rows, rhs, objective, sense)


def max_inner_segment(p, axis):
    """Length of the longest segment parallel to the given axis inside p,
    by one LP over (x, t): x and x + t e_axis both in p, t maximal."""
    n = p.dim
    rows, rhs = [], []
    for h in p.halfspaces:
        rows += [h.normal + (ZERO,), h.normal + (h.normal[axis],)]
        rhs += [h.offset, h.offset]
    res = fraction_solve_ineq(rows, rhs, la.vzero(n) + (ONE,), sense="max")
    assert res.status == "optimal"
    return res.value


def _separator_rows(p, q):
    """The rows of the LP over separators (a, b) of p from q, in a box."""
    from latcut.errors import DimensionMismatch

    if p.dim != q.dim:
        raise DimensionMismatch("ambient dimensions differ")
    n = p.dim
    # variables (a, b): a . x <= b on p, a . y >= b on q, plus a box so the
    # LP is bounded.
    rows, rhs = [], []

    def add(coef_a, coef_b, bound):
        rows.append(tuple(coef_a) + (coef_b,))
        rhs.append(bound)

    for v in p.vertices:
        add(v, Fraction(-1), ZERO)            # a.v - b <= 0
    for r in p.rays:
        add(r, ZERO, ZERO)                    # a.r <= 0
    for v in q.vertices:
        add(vneg(v), ONE, ZERO)               # -a.v + b <= 0
    for r in q.rays:
        add(vneg(r), ZERO, ZERO)              # -a.r <= 0
    big = ONE + max(
        (sum(abs(x) for x in v) for v in itertools.chain(p.vertices, q.vertices)),
        default=ZERO,
    )
    for i in range(n):
        e = tuple(ONE if j == i else ZERO for j in range(n))
        add(e, ZERO, ONE)
        add(vneg(e), ZERO, ONE)
    add(la.vzero(n), ONE, big)
    add(la.vzero(n), Fraction(-1), big)
    return rows, rhs


def separate(p, q, slack_point=None):
    """A half-space h with p inside h and q outside the interior of h, by
    the simplex over the cone of valid separators in a box: the LP
    reference for the lift's closed-form separator
    (``constructions._pencil``).

    When ``slack_point`` is given (a point of p, normally interior), the
    separator maximizing the slack offset - normal . slack_point is
    returned, which is the deepest cut through that point; otherwise any
    nonzero separator is returned.  Raises NotSeparable when only the zero
    functional separates.
    """
    from latcut.errors import NotSeparable
    from latcut.geometry import HalfSpace

    n = p.dim
    rows, rhs = _separator_rows(p, q)

    def lp(objective):
        res = fraction_solve_ineq(rows, rhs, objective, sense="max")
        assert res.status == "optimal", "separation LP is not optimal"
        return res

    candidates = []
    if slack_point is not None:
        sp = la.vec(slack_point)
        res = lp(tuple(-x for x in sp) + (ONE,))  # maximize b - a . sp
        if res.value > 0:
            candidates.append(res.point)
    if not candidates:
        for i in range(n):
            for sign in (ONE, -ONE):
                obj = tuple((sign if j == i else ZERO) for j in range(n)) + (ZERO,)
                res = lp(obj)
                if res.value > 0:
                    candidates.append(res.point)
                    break
            if candidates:
                break
    if not candidates:
        raise NotSeparable("interiors intersect; no separating half-space")
    a, b = candidates[0][:n], candidates[0][n]
    return HalfSpace.make(a, b)


def separation_depth(p, q, point):
    """The optimum of ``separate``'s LP at point: max b - a . point over
    the separators a . x <= b of p from q in its box."""
    rows, rhs = _separator_rows(p, q)
    res = fraction_solve_ineq(rows, rhs, tuple(-x for x in la.vec(point)) + (ONE,), "max")
    assert res.status == "optimal", "separation LP is not optimal"
    return res.value


def zero_combination_feasible(normals):
    """Whether 0 is a convex combination of the normals, by phase 1 of the
    simplex: the LP reference for ``constructions._zero_combination``."""
    m = len(normals)
    rows = [tuple(-ONE if k == j else ZERO for k in range(m)) for j in range(m)]
    rhs = [ZERO] * m
    ones = (ONE,) * m
    rows += [ones, vneg(ones)]
    rhs += [ONE, -ONE]
    for c in range(len(normals[0])):
        row = tuple(la.frac(v[c]) for v in normals)
        rows += [row, vneg(row)]
        rhs += [ZERO, ZERO]
    return fraction_solve_ineq(rows, rhs, la.vzero(m), sense="max").status == "optimal"


def box_scan_width(p):
    """(width, direction, segment_bound, search_bound) of a bounded body of
    dimension >= 2 by scanning every primitive u in [-B, B]^n.

    segment_bound is the shortest longest axis segment (one LP per axis), so
    u has width at least ||u||_inf segment_bound and B = ceil(w0 /
    segment_bound) for the best axis width w0 bounds the search.  A
    direction replaces the best only when strictly thinner, so the first of
    least width in itertools.product order is kept.
    """
    n = p.dim

    def width(u):
        vals = [dot(u, v) for v in p.vertices]
        return max(vals) - min(vals)

    axes = [tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)]
    tau = min(max_inner_segment(p, i) for i in range(n))
    best_w, i = min((width(e), i) for i, e in enumerate(axes))
    best_u = axes[i]
    bound = math.ceil(best_w / tau)
    for cand in itertools.product(range(-bound, bound + 1), repeat=n):
        if not any(cand) or next(c for c in cand if c) < 0:
            continue
        if math.gcd(*cand) != 1:
            continue
        u = la.vec(cand)
        w = width(u)
        if w < best_w:
            best_w, best_u = w, u
    return best_w, best_u, tau, bound


def orthogonal_brute_width(vertices, rays, bound=6):
    """Least support width of conv(vertices) + cone(rays) over the primitive
    integer u in [-bound, bound]^n orthogonal to every ray, the directions
    along which it is finite; None when no such u is in the box."""
    n = len(vertices[0])
    best = None
    for cand in itertools.product(range(-bound, bound + 1), repeat=n):
        if not any(cand) or math.gcd(*cand) != 1:
            continue
        if any(fraction_dot(cand, r) != 0 for r in rays):
            continue
        vals = [fraction_dot(cand, v) for v in vertices]
        w = max(vals) - min(vals)
        if best is None or w < best:
            best = w
    return best


def fraction_dot(u, v):
    """sum of u_i v_i, one Fraction product and sum at a time; independent
    of ``linalg.dot``, whose integer accumulation it checks."""
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def slack(h, x):
    """offset - normal . x of the half-space h at x, on Fractions."""
    return h.offset - fraction_dot(h.normal, x)


def support(p, direction):
    """(sup of direction . x, attaining vertex) with None meaning +inf, read
    off the vertices and rays: the reference for
    ``constructions._last_axis_range``."""
    direction = la.vec(direction)
    if len(direction) != p.dim:
        raise DimensionMismatch("direction dimension mismatch")
    if any(dot(direction, r) > 0 for r in p.rays):
        return None, None
    best, arg = None, None
    for v in p.vertices:
        val = dot(direction, v)
        if best is None or val > best:
            best, arg = val, v
    return best, arg


def project_off(v, basis):
    """Orthogonal projection of v onto the complement of span(basis), by an
    exact Gram system: the reference for
    ``constructions.TruncatedCone.transverse_coordinate``."""
    if not basis:
        return v
    gram = tuple(tuple(dot(a, b) for b in basis) for a in basis)
    rhs = tuple(dot(a, v) for a in basis)
    out = v
    for c, b in zip(la.solve(gram, rhs), basis):
        out = vsub(out, vscale(c, b))
    return out


def cone_slice(cone, mu):
    """The slice (1 + mu alpha) base + mu shift of a truncated cone."""
    from latcut.geometry import minkowski_scale_shift

    mu = Fraction(mu)
    return minkowski_scale_shift(cone.base, ONE + mu * cone.alpha, vscale(mu, cone.shift))


def fraction_transverse_coordinate(cone, x):
    """The mu of the slice of a truncated cone through x, on Fractions."""
    anchor = cone.base.vertices[0]
    span = [vsub(v, anchor) for v in cone.base.vertices[1:]] + list(cone.base.rays)
    delta = vadd(vscale(cone.alpha, anchor), cone.shift)
    g = project_off(delta, span)
    return dot(g, vsub(la.vec(x), anchor)) / dot(g, delta)


def fraction_segment_meets(p, a, b):
    """Whether the segment [a, b] meets p, by clipping [0, 1] against each
    half-space on Fractions: the reference for
    ``constructions.segment_meets``."""
    a, b = la.vec(a), la.vec(b)
    lo, hi = ZERO, ONE
    d = vsub(b, a)
    for h in p.halfspaces:
        num = h.offset - dot(h.normal, a)
        den = dot(h.normal, d)
        if den == 0:
            if num < 0:
                return False
        elif den > 0:
            hi = min(hi, num / den)
        else:
            lo = max(lo, num / den)
    return lo <= hi


def witnessed_facet(halfspaces, z):
    """The index of the one half-space a . x <= b with a . z = b when z is an
    integer point strictly inside every other, else None: Fraction dot
    products on the half-spaces, independent of the int rows that
    ``certify_lattice_free`` checks given witnesses on."""
    if any(Fraction(x).denominator != 1 for x in z):
        return None
    slacks = [h.offset - fraction_dot(h.normal, z) for h in halfspaces]
    tight = [j for j, sl in enumerate(slacks) if sl == 0]
    return tight[0] if len(tight) == 1 and min(slacks) >= 0 else None


def gauge_value(hs_shifted, r):
    """max(0, max_i a_i . r / c_i) for the system a_i . x <= c_i, c_i > 0."""
    best = Fraction(0)
    for a, c in hs_shifted:
        assert c > 0
        best = max(best, fraction_dot(a, r) / c)
    return best


def point_segment_dist_sq(x, p, q):
    """Exact squared distance from x to segment [p, q]."""
    x, p, q = la.vec(x), la.vec(p), la.vec(q)
    d = vsub(q, p)
    dd = norm_sq(d)
    if dd == 0:
        return norm_sq(vsub(x, p))
    t = dot(vsub(x, p), d) / dd
    t = max(Fraction(0), min(Fraction(1), t))
    c = tuple(pi + t * di for pi, di in zip(p, d))
    return norm_sq(vsub(x, c))


def polygon_dist_sq(x, verts):
    """Exact squared distance from x to a 2-d polygon given by its vertices."""
    verts = [la.vec(v) for v in verts]
    if len(verts) == 1:
        return norm_sq(vsub(la.vec(x), verts[0]))
    # inside test via every edge of the hull handled by caller; here just
    # min over all segments plus zero when x is inside the hull.
    best = min(point_segment_dist_sq(x, p, q)
               for p, q in itertools.combinations(verts, 2))
    return best


def subset_scan_dist_sq(x, vertices, contains):
    """Exact squared distance from x to the polytope conv(vertices).

    Projects x onto the affine hull of every affinely independent vertex
    subset of size 2 to dim + 1, keeps the projections that ``contains``
    accepts, and takes the least distance to them and to the vertices.  The
    closest point projects onto the hull of its face, so the scan is complete.
    """
    x = la.vec(x)
    verts = [la.vec(v) for v in vertices]
    best = min(norm_sq(vsub(x, v)) for v in verts)
    for size in range(2, min(len(verts), len(x) + 1) + 1):
        for subset in itertools.combinations(verts, size):
            base = subset[0]
            dirs = [vsub(v, base) for v in subset[1:]]
            if la.rank(dirs) != len(dirs):
                continue
            gram = tuple(tuple(dot(a, b) for b in dirs) for a in dirs)
            coef = la.solve(gram, tuple(dot(a, vsub(x, base)) for a in dirs))
            proj = base
            for c, d in zip(coef, dirs):
                proj = vadd(proj, vscale(c, d))
            if contains(proj):
                best = min(best, norm_sq(vsub(x, proj)))
    return best


def hausdorff_sq_polygons(verts_a, verts_b, inside_a, inside_b):
    """Squared Hausdorff distance of 2-d polygons.

    inside_a / inside_b: membership predicates for the filled polygons.
    """
    def one_sided(vs, other_vs, inside_other):
        worst = Fraction(0)
        for v in vs:
            if inside_other(v):
                continue
            worst = max(worst, polygon_dist_sq(v, other_vs))
        return worst

    return max(one_sided(verts_a, verts_b, inside_b),
               one_sided(verts_b, verts_a, inside_a))


def _fraction_face_frames(p):
    """A frame for a bounded p and for each face with two or more vertices.

    The faces are the vertex sets tight on each half-space, closed under
    pairwise intersection.  A frame is a base vertex and an orthogonal
    basis (with squared lengths) of the face's affine hull, built by
    Gram-Schmidt from the face's other vertices, in Fraction arithmetic.
    """
    if p.rays:
        raise ValueError("distance helper needs a bounded target")
    verts = p.vertices
    faces = {frozenset(range(len(verts)))}
    todo = [frozenset(i for i, v in enumerate(verts) if slack(h, v) == 0)
            for h in p.halfspaces]
    while todo:
        f = todo.pop()
        if len(f) < 2 or f in faces:
            continue
        todo.extend(f & g for g in faces)
        faces.add(f)
    frames = []
    for f in faces:
        base, *rest = (verts[i] for i in sorted(f))
        basis = []
        for v in rest:
            u = vsub(v, base)
            for b, bb in basis:
                u = vsub(u, vscale(dot(u, b) / bb, b))
            if not la.is_zero_vec(u):
                basis.append((u, norm_sq(u)))
        frames.append((base, basis))
    return frames


def _fraction_walk(x, p, frames, cap=None):
    """Squared distance from x to p, or the first value <= cap found: the
    vertices first, then each face's projection, tested by
    ``contains_point`` only when it beats the best so far."""
    best = None
    for v in p.vertices:
        d = norm_sq(vsub(x, v))
        if cap is not None and d <= cap:
            return d
        best = d if best is None or d < best else best
    for base, basis in frames:
        rel = vsub(x, base)
        proj = base
        for b, bb in basis:
            proj = vadd(proj, vscale(dot(rel, b) / bb, b))
        d = norm_sq(vsub(x, proj))
        if d < best and p.contains_point(proj):
            if cap is not None and d <= cap:
                return d
            best = d
    return best


def fraction_distance_sq(x, p):
    """Squared distance from x to a bounded p by the Fraction face walk:
    the reference for ``squared_distance_point``."""
    return _fraction_walk(la.vec(x), p, _fraction_face_frames(p))


def squared_distance_point(x, p):
    """Exact squared euclidean distance from x to a bounded polyhedron, by
    the integer face walk of ``geometry.hausdorff_sq`` from one point.

    The closest point lies in the relative interior of a unique face and is
    the orthogonal projection of x onto that face's affine hull.  So the
    minimum over the vertices and over the projections onto each face that
    land inside p is the distance.  It runs on ints for one scale s per
    call (``_frames_on``), and the result is d / s^2.
    """
    from latcut.geometry import _distance_sq, _frames_on, _on_scale

    x = la.vec(x)
    s = math.lcm(*(a.denominator for a in x), *(pt[0] for pt in p.points))
    n, d = _distance_sq(_on_scale((ONE,) + x, s), *_frames_on(p, s))
    return Fraction(n, d * s * s)


def fraction_hausdorff_sq(p, q):
    """Squared Hausdorff distance of bounded p and q by the capped Fraction
    face walk: the reference for ``geometry.hausdorff_sq``."""
    p_frames, q_frames = _fraction_face_frames(p), _fraction_face_frames(q)
    d = ZERO
    for v in p.vertices:
        d = max(d, _fraction_walk(v, q, q_frames, d))
    for v in q.vertices:
        d = max(d, _fraction_walk(v, p, p_frames, d))
    return d


def brute_force_slice(vertices, level):
    """Sorted extreme points of a polytope's slice at x_n = level, in the
    first n-1 coordinates (n <= 3), or None when the level misses it.

    The slice is the convex hull of the points where segments between two
    vertices meet the level (the edges are among them); the hull is taken
    by sorting on a line and by the monotone chain in the plane.
    """
    level = Fraction(level)
    verts = [la.vec(v) for v in vertices]
    pts = set()
    for a, b in itertools.combinations_with_replacement(verts, 2):
        if a[-1] == b[-1]:
            if a[-1] == level:
                pts.update((a[:-1], b[:-1]))
        elif min(a[-1], b[-1]) <= level <= max(a[-1], b[-1]):
            s = (level - a[-1]) / (b[-1] - a[-1])
            pts.add(tuple(x + s * (y - x) for x, y in zip(a[:-1], b[:-1])))
    if not pts:
        return None
    pts = sorted(pts)
    if len(pts[0]) == 1 or len(pts) == 1:
        return sorted({pts[0], pts[-1]})

    def chain(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and _turn(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out[:-1]

    return sorted(set(chain(pts) + chain(reversed(pts))))


def fix_last_axis(halfspaces, level):
    """The rows a . x <= b with x_n = level put in, one dimension down, as
    ``HalfSpace`` rows: each becomes a[:-1] . y <= b - a_n level, and a row
    whose new normal is zero is dropped when it holds and raises EmptySet
    when it fails.  The Fraction reference for ``geometry.level_slice``
    (through ``Polyhedron.from_halfspaces``)."""
    from latcut.errors import EmptySet
    from latcut.geometry import HalfSpace

    level = la.frac(level)
    out = []
    for h in halfspaces:
        head = h.normal[:-1]
        rhs = h.offset - h.normal[-1] * level
        if la.is_zero_vec(head):
            if rhs < 0:
                raise EmptySet("the level misses a half-space")
            continue
        out.append(HalfSpace.make(head, rhs))
    return out


def _turn(o, a, b):
    """Twice the signed area of the triangle o, a, b."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def first_strict_point_by_columns(halfspaces, dim):
    """First integer point strictly inside a polytope, in the library's
    scan order, or None.

    The box is the vertices' bounding box; the widest axis (the first one on
    a tie) is the inner coordinate, tried from its top down, and the other
    axes run over their integer ranges in itertools.product order.
    """
    hs = [(la.vec(a), la.frac(b)) for a, b in halfspaces]
    verts = brute_force_vertices(hs, dim)
    lo = [min(v[i] for v in verts) for i in range(dim)]
    hi = [max(v[i] for v in verts) for i in range(dim)]
    axis = max(range(dim), key=lambda i: hi[i] - lo[i])
    others = [i for i in range(dim) if i != axis]
    ranges = [range(math.ceil(lo[i]), math.floor(hi[i]) + 1) for i in others]
    column = range(math.floor(hi[axis]), math.ceil(lo[axis]) - 1, -1)
    for combo in itertools.product(*ranges):
        for t in column:
            z = [Fraction(t)] * dim
            for i, c in zip(others, combo):
                z[i] = Fraction(c)
            z = tuple(z)
            if all(dot(a, z) < b for a, b in hs):
                return z
    return None


def fraction_cone_dd(rows: list[Vec], dim: int) -> tuple[list[Vec], list[Vec]]:
    """Generators of the cone {y : r . y <= 0 for all r in rows}, by the
    double description method in Fraction arithmetic, recomputing every
    ray's zero set at every insertion: the reference for geometry.cone_dd.

    Returns (lines, rays): a basis of the lineality space and the extreme
    rays of the quotient by it.  Rows equal to zero are skipped.
    """
    lines: list[Vec] = [tuple(ONE if i == j else ZERO for j in range(dim))
                        for i in range(dim)]
    rays: list[Vec] = []
    processed: list[Vec] = []

    for a in rows:
        if la.is_zero_vec(a):
            continue
        vals_l = [dot(a, l) for l in lines]
        pivot = next((i for i, v in enumerate(vals_l) if v != 0), None)
        if pivot is not None:
            # the constraint cuts the lineality space: one line becomes a ray
            lstar = lines.pop(pivot)
            vstar = vals_l.pop(pivot)
            if vstar > 0:
                lstar, vstar = vneg(lstar), -vstar
            lines = [l if v == 0 else vsub(l, vscale(v / vstar, lstar))
                     for l, v in zip(lines, vals_l)]
            new_rays = []
            for r in rays:
                v = dot(a, r)
                if v != 0:
                    r = vsub(r, vscale(v / vstar, lstar))
                new_rays.append(la.primitive(r))
            new_rays.append(la.primitive(lstar))
            rays = new_rays
            processed.append(a)
            continue

        vals = [dot(a, r) for r in rays]
        if all(v <= 0 for v in vals):
            processed.append(a)
            continue
        zsets = [frozenset(k for k, c in enumerate(processed) if dot(c, r) == 0)
                 for r in rays]
        keep = [i for i, v in enumerate(vals) if v <= 0]
        new_rays = [rays[i] for i in keep]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        for ip in pos:
            for im in neg:
                common = zsets[ip] & zsets[im]
                adjacent = True
                for k in range(len(rays)):
                    if k != ip and k != im and common <= zsets[k]:
                        adjacent = False
                        break
                if adjacent:
                    comb = vsub(vscale(vals[ip], rays[im]),
                                vscale(vals[im], rays[ip]))
                    new_rays.append(la.primitive(comb))
        seen = set()
        rays = []
        for r in new_rays:
            if r not in seen:
                seen.add(r)
                rays.append(r)
        processed.append(a)

    return lines, rays


def _fraction_canonical_basis(lines):
    """RREF the line vectors, then scale each row primitive (Fraction rows)."""
    rows, _ = fraction_rref([list(la.vec(l)) for l in lines])
    return [la.primitive(r) for r in rows if not la.is_zero_vec(r)]


def _fraction_reduce_off(v, basis):
    """v minus multiples of the rows of a canonical basis, each row's pivot
    (its first nonzero entry) cleared in turn."""
    for row in basis:
        p = next(i for i, x in enumerate(row) if x != 0)
        if v[p] != 0:
            v = vsub(v, vscale(v[p] / row[p], row))
    return v


def _maximal_masks(masks, full):
    """Indices of the tight-set bit masks that no other mask short of full
    strictly contains."""
    others = set(masks) - {full}
    return [i for i, m in enumerate(masks)
            if not any(m != o and m & o == m for o in others)]


def fraction_kernel(rows, ncols):
    """Basis of {x : rows . x = 0} by free-variable back substitution on
    the Fraction elimination."""
    red, pivots = fraction_rref([list(r) for r in rows])
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        x = [ZERO] * ncols
        x[fcol] = ONE
        for r, c in enumerate(pivots):
            x[c] = -red[r][fcol]
        basis.append(tuple(x))
    return basis


def fraction_assemble(rows, gens, dim):
    """``Polyhedron._assemble`` on Fraction rows and generators: the same
    incidence pass, with the lineality taken as the kernel of the row
    normals, the generators divided out, reduced off the lineality and the
    rows off the equalities in Fraction arithmetic, and every result
    collected in sets of Fraction tuples.  The reference for the integer
    kernel, which reads the lineality off the generators tight on every
    row instead."""
    from latcut.errors import WholeSpace
    from latcut.geometry import HalfSpace

    def halfspace(z):
        return HalfSpace.make(z[1:], -z[0])

    rows = [la.vec(z) for z in rows]
    lins = fraction_kernel([z[1:] for z in rows], dim)
    rows.append((-ONE,) + la.vzero(dim))  # x0 >= 0
    gens = [la.vec(g) for g in gens]
    gs = [la.integer_copy(g) for g in gens]  # tightness survives scaling
    inc = [sum(1 << j for j, g in enumerate(gs)
               if sum(x * y for x, y in zip(z, g)) == 0)
           for z in map(la.integer_copy, rows)]
    all_g = (1 << len(gens)) - 1
    ginc = [sum(1 << i for i, m in enumerate(inc) if m >> j & 1)
            for j in range(len(gens))]
    gens = [gens[j] for j in _maximal_masks(ginc, (1 << len(rows)) - 1)]
    basis = _fraction_canonical_basis(lins)
    vcan = sorted({_fraction_reduce_off(tuple(x / g[0] for x in g[1:]), basis)
                   for g in gens if g[0] != 0})
    rays = (_fraction_reduce_off(g[1:], basis) for g in gens if g[0] == 0)
    rcan = sorted({la.primitive(r) for r in rays if not la.is_zero_vec(r)})
    eqs = _fraction_canonical_basis([z for z, m in zip(rows, inc) if m == all_g])
    rows = [rows[i] for i in _maximal_masks(inc, all_g)]
    hs = set()
    for z in eqs:
        hs.update((halfspace(z), halfspace(vneg(z))))
    # the class of (-1, 0) is the inequality 0 . x <= 1, the face at
    # infinity: not a facet, though its normal need not reduce to zero
    trivial = la.primitive(_fraction_reduce_off((-ONE,) + la.vzero(dim), eqs))
    for z in rows:
        z = _fraction_reduce_off(z, eqs)
        if not la.is_zero_vec(z) and la.primitive(z) != trivial:
            hs.add(halfspace(z))
    if not hs:
        raise WholeSpace("generators span the whole space")
    all_rays = list(rcan)
    for l in basis:
        all_rays.extend((l, vneg(l)))
    return polyhedron_of(
        dim=dim,
        halfspaces=tuple(sorted(hs)),
        vertices=tuple(vcan),
        rays=tuple(sorted(all_rays)),
        lineality=tuple(basis),
        fulldim=not eqs,
    )


def fraction_scale_shift(p, lam, v):
    """lam * p + v for a full-dimensional p in Fraction arithmetic: each
    offset lam b + a . v and each vertex lam x + s, s the shift reduced off
    the lineality.  The reference for ``geometry.minkowski_scale_shift``."""
    from latcut.geometry import HalfSpace

    lam, v = la.frac(lam), la.vec(v)
    s = _fraction_reduce_off(v, p.lineality)
    return polyhedron_of(
        dim=p.dim,
        halfspaces=tuple(HalfSpace(h.normal, lam * h.offset + fraction_dot(h.normal, v))
                         for h in p.halfspaces),
        vertices=tuple(vadd(vscale(lam, x), s) for x in p.vertices),
        rays=p.rays, lineality=p.lineality, fulldim=True)


def slack_contains(p, q, strict=False):
    """q inside p, or inside its interior when strict, by the slack rule:
    every row of p has a nonnegative slack (positive when strict) at every
    vertex of q, and no ray of q increases a row of p.  The reference for
    ``Polyhedron.contains`` and ``contains_in_interior``."""
    for h in p.halfspaces:
        for v in q.vertices:
            s = slack(h, v)
            if s < 0 or strict and s == 0:
                return False
        if any(fraction_dot(h.normal, r) > 0 for r in q.rays):
            return False
    return True


def assembled_polar(p, center=None):
    """(p - center) polar through ``fraction_assemble``: the vertex rows,
    the ray rows and the facet points go through the canonical-form pass,
    which finds the equalities and drops redundant rows by incidence.  The
    reference for the closed-form ``geometry.polar``."""
    from latcut.errors import OriginNotInterior

    c = la.vzero(p.dim) if center is None else la.vec(center)
    if not p.contains_point(c, strict=True):
        raise OriginNotInterior("polar needs the center strictly inside p")
    rows = [(-ONE,) + vsub(v, c) for v in p.vertices]
    rows += [(ZERO,) + r for r in p.rays]
    gens = [(ONE,) + vscale(ONE / slack(h, c), h.normal)
            for h in p.halfspaces]
    if la.rank(p.rays) == p.dim:
        gens.append((ONE,) + la.vzero(p.dim))
    return fraction_assemble(rows, gens, p.dim)


def assembled_affine_image(p, matrix, shift):
    """Image of p under the invertible map x -> matrix x + shift through
    ``fraction_assemble``: the mapped rows and generators go through the
    canonical-form pass, which finds the equalities and keeps facets and
    extreme generators by incidence.  The reference for the closed-form
    ``geometry.affine_image`` and ``geometry.transform``."""
    from latcut.errors import DimensionMismatch

    matrix = tuple(la.vec(row) for row in matrix)
    shift = la.vec(shift)
    if any(len(row) != p.dim for row in (shift,) + matrix) or len(matrix) != p.dim:
        raise DimensionMismatch("map dimension mismatch")
    inv_t = transpose(la.inverse(matrix))
    rows = []
    # a . x <= b  ->  (a inv) . y <= b + (a inv) . shift
    for h in p.halfspaces:
        a2 = la.mat_vec(inv_t, h.normal)
        rows.append((-h.offset - dot(a2, shift),) + a2)
    gens = [(ONE,) + vadd(la.mat_vec(matrix, v), shift) for v in p.vertices]
    gens += [(ZERO,) + la.mat_vec(matrix, r) for r in p.rays]
    return fraction_assemble(rows, gens, p.dim)


def fraction_strict_integer(pairs):
    """An integer t with den * t < num for every pair (num, den), or None.

    The largest such t when some den > 0 bounds t from above, else the
    smallest; 0 when no pair bounds t.  Each bound num / den is a Fraction
    rounded by math.ceil or math.floor: the reference for
    ``lattice._strict_integer``, which rounds by floor division.
    """
    lo = hi = None
    for num, den in pairs:
        if den == 0:
            if num <= 0:
                return None
            continue
        bound = num / den
        if den > 0:
            if hi is None or bound < hi:
                hi = bound
        elif lo is None or bound > lo:
            lo = bound
    if hi is not None:
        t = math.ceil(hi) - 1
        return t if lo is None or t > lo else None
    return 0 if lo is None else math.floor(lo) + 1


def fraction_solve_ineq(rows, rhs, objective, sense="max"):
    """Optimize objective . x over {x : rows[i] . x <= rhs[i]}, x free, on a
    dense Fraction tableau with Bland's rule: the tests' one LP, which
    shares no code with the closed forms it checks."""
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    n = len(objective)
    c_obj = objective if sense == "max" else tuple(-v for v in objective)

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
        prow = tab[r] = [x / pv for x in tab[r]]
        b[r] /= pv
        nonzero = [k for k, y in enumerate(prow) if y]  # the rest change nothing
        for i in range(len(tab)):
            if i != r and tab[i][j] != 0:
                f = tab[i][j]
                for k in nonzero:
                    tab[i][k] -= f * prow[k]
                b[i] -= f * b[r]
        if z[j] != 0:
            f = z[j]
            for k in nonzero:
                z[k] -= f * prow[k]
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


def fraction_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot column list).

    The Fraction elimination ``linalg.rref_int`` replaced: the reference for
    it and for ``rank``, ``solve`` and ``inverse``.  Its
    entries must be Fractions (an int pivot divides to a float).
    """
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def fraction_det(m) -> Fraction:
    """Determinant by Fraction Gaussian elimination: the reference for the
    unimodularity test of ``geometry.UnimodularMap``."""
    n = len(m)
    rows = [list(row) for row in m]
    out = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            out = -out
        out *= rows[c][c]
        inv = ONE / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


# ---------------------------------------------------------------------------
# the Fraction unimodular route that the tracked-inverse int echelon replaced


def _fraction_col_addmul(mats, dst, src, k):
    for w in mats:
        w[dst] += k * w[src]


def _fraction_col_swap(mats, a, b):
    for w in mats:
        w[a], w[b] = w[b], w[a]


def _fraction_column_echelon(rows):
    """Column transform C (unimodular, integer) with rows.C in echelon form,
    and the rank; the trailing columns of C span the integer kernel."""
    n = len(rows[0])
    work = [[int(x) for x in r] for r in rows]
    c = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    both = work + c
    pivot_col = 0
    for r in work:
        if all(r[j] == 0 for j in range(pivot_col, n)):
            continue
        while True:
            nz = [j for j in range(pivot_col, n) if r[j] != 0]
            if len(nz) == 1:
                if nz[0] != pivot_col:
                    _fraction_col_swap(both, nz[0], pivot_col)
                break
            nz.sort(key=lambda j: abs(r[j]))
            _fraction_col_addmul(both, nz[1], nz[0], -(r[nz[1]] // r[nz[0]]))
        pivot_col += 1
        if pivot_col == n:
            break
    for j in range(pivot_col, n):
        v = tuple(Fraction(c[i][j]) for i in range(n))
        assert all(dot(row, v) == 0 for row in rows)
    return c, pivot_col


def _as_fractions(m):
    return tuple(tuple(map(Fraction, row)) for row in m)


def fraction_alignment(lines):
    """(U, U^-1) sending span(lines) onto the trailing axes: the Fraction
    kernel of the lines, its column echelon and one ``inverse``; the
    reference for ``linalg.alignment_int``."""
    if not lines:
        raise ValueError("no lineality directions given")
    perp = fraction_kernel(lines, len(lines[0]))
    if not perp:
        raise ValueError("lineality spans the whole space")
    c, rk = _fraction_column_echelon([la.primitive(p) for p in perp])
    u = la.inverse(c)
    for l in lines:
        assert la.is_zero_vec(la.mat_vec(u, l)[:rk])
    return u, _as_fractions(c)


def fraction_unimodular_with_bottom_row(u):
    """The reference for ``linalg.unimodular_with_bottom_row``: the column
    echelon of u read backwards, its rows and columns reversed and the sign
    of its last column fixed, with U found by one ``inverse``."""
    row = [int(x) for x in la.primitive(u)]
    c, _ = _fraction_column_echelon([row[::-1]])
    c = [w[::-1] for w in c[::-1]]
    if sum(x * w[-1] for x, w in zip(row, c)) < 0:
        for w in c:
            w[-1] = -w[-1]
    return la.inverse(c), _as_fractions(c)


# ---------------------------------------------------------------------------
# the lineality quotient: the reference route for a lineality certificate


def _split_off_lineality(p):
    """Unimodular change sending the lineality space to the trailing axes,
    then dropping them.  Returns (quotient, lift, umap): lift maps integer
    quotient points back to integer points of p, and umap is the change."""
    from latcut.errors import CertificateError
    from latcut.geometry import HalfSpace, UnimodularMap, transform

    k = len(p.lineality)
    u, c = fraction_alignment(list(p.lineality))
    umap = UnimodularMap(u, la.vzero(p.dim), c)
    q = transform(p, umap)
    keep = p.dim - k
    # the lineality now spans the trailing axes, so every normal, vertex and
    # non-lineality ray of q has a zero tail; dropping it keeps every normal
    # primitive and every sort order, so the quotient is read off q
    rays = [r for r in q.rays if not la.is_zero_vec(r[:keep])]
    normals = [h.normal for h in q.halfspaces]
    if any(not la.is_zero_vec(x[keep:])
           for x in itertools.chain(normals, q.vertices, rays)):
        raise CertificateError("lineality did not split off the trailing axes")
    quotient = polyhedron_of(
        keep, [HalfSpace(h.normal[:keep], h.offset) for h in q.halfspaces],
        [v[:keep] for v in q.vertices], [r[:keep] for r in rays], (), p.fulldim)
    inv = umap.inverse()

    def back(z: Vec) -> Vec:
        return inv.apply(tuple(z) + (ZERO,) * k)

    return quotient, back, umap


def quotient_certificate(p):
    """``lattice.certify_lattice_free`` of a lineality body read off its
    quotient by the lineality space: the quotient is certified, each facet
    of p is matched with its image facet there, and every witness is lifted
    back by the unimodular change."""
    from latcut.geometry import HalfSpace
    from latcut.lattice import LatticeFreeCert, certify_lattice_free

    quotient, back, umap = _split_off_lineality(p)
    sub = certify_lattice_free(quotient)
    if not sub.lattice_free:
        return LatticeFreeCert(False, back(sub.interior_witness), (), None)
    k = len(p.lineality)
    inv_t = transpose(umap.inverse_matrix)
    witnesses = []
    for h in p.halfspaces:
        a2 = la.mat_vec(inv_t, h.normal)
        img = HalfSpace.make(a2[:p.dim - k], h.offset)
        idx = quotient.halfspaces.index(img)
        w = sub.facet_witnesses[idx]
        witnesses.append(None if w is None else back(w))
    return LatticeFreeCert(True, None, tuple(witnesses),
                           all(w is not None for w in witnesses))


def family_strength_lower(family, l, f):
    """Certified lower bound on the family strength functional.

    For the column matrix made of the vertex directions of L - f, the point
    (m, ..., m)/(k+1) with m the best family gauge maximum lies in the
    family closure but escapes the scaled L-cut, pinning the functional
    above m/(k+1).  None means the bound itself is infinite.  Every
    member's vertex gauges are recomputed: the reference for the lower
    bound of ``strength.sandwich``.
    """
    from latcut.cuts import gauge
    from latcut.errors import NotPolytope

    f = la.vec(f)
    if l.rays:
        raise NotPolytope("the witness construction needs a polytope")
    if not l.contains_point(f, strict=True):
        return ZERO
    k = len(l.vertices)
    dirs = [vsub(v, f) for v in l.vertices]
    best = None
    for b in family:
        if not b.contains_point(f, strict=True):
            continue  # trivial cut: cannot serve as the covering member
        m = max(gauge(b, f, r) for r in dirs)
        if best is None or m < best:
            best = m
    if best is None:
        return None
    return best / (k + 1)
