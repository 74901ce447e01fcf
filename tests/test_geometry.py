"""Conversion engine, polarity, transforms, LP, separation, distances."""

import dataclasses
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latcut import geometry, lattice
from latcut import linalg as la
from latcut.cuts import f_metric
from latcut.errors import (
    CertificateError,
    DimensionMismatch,
    EmptySet,
    NotSeparable,
    OriginNotInterior,
    WholeSpace,
)
from latcut.geometry import (
    HalfSpace,
    Polyhedron,
    UnimodularMap,
    _canonical_basis,
    _distance_sq,
    _frames_on,
    _on_scale,
    affine_image,
    cone_dd,
    embed_last_axis,
    hausdorff_sq,
    homothety,
    level_slice,
    minkowski_scale_shift,
    polar,
    product_with_line,
    transform,
    translate,
)
from latcut.jsonio import parse_polyhedron
from latcut.lattice import facet_interior_lattice_point

from oracles import (
    assembled_affine_image,
    assembled_polar,
    brute_force_lp,
    brute_force_slice,
    brute_force_vertices,
    fix_last_axis,
    fraction_assemble,
    fraction_cone_dd,
    fraction_distance_sq,
    fraction_hausdorff_sq,
    fraction_scale_shift,
    hausdorff_sq_polygons,
    lp_solve,
    polygon_dist_sq,
    polyhedron_of,
    separate,
    slack,
    slack_contains,
    squared_distance_point,
    subset_scan_dist_sq,
    support,
)

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
DIAMOND_HS = [((1, 1), 1), ((1, -1), 1), ((-1, 1), 1), ((-1, -1), 1)]


def test_diamond_vertices_match_brute_force():
    # oracle: solve all facet pairs, keep feasible intersections
    expected = brute_force_vertices(DIAMOND_HS, 2)
    assert expected == [
        (F(-1), F(0)), (F(0), F(-1)), (F(0), F(1)), (F(1), F(0))]  # frozen
    p = Polyhedron.from_halfspaces(DIAMOND_HS, 2)
    assert list(p.vertices) == expected
    assert p.rays == ()
    assert p.fulldim


def test_unit_square_roundtrip_and_facets():
    p = Polyhedron.from_halfspaces(
        [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)], 2)
    assert sorted(p.vertices) == [
        (F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))]
    q = Polyhedron.from_generators(p.vertices, p.rays, p.dim)
    assert q == p
    r = Polyhedron.from_halfspaces(p.halfspaces, p.dim)
    assert r == p


def test_redundant_inputs_are_dropped():
    p = Polyhedron.from_halfspaces(
        [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0),
         ((1, 1), 5), ((1, 0), 2)], 2)
    assert len(p.halfspaces) == 4
    q = Polyhedron.from_generators(
        [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 3))])
    assert len(q.vertices) == 4
    assert p == q
    # a point and a ray: rows strict on every vertex are the face at infinity
    pt = Polyhedron.from_halfspaces(
        [((1,), F(-1, 2)), ((-1,), F(1, 2)), ((1,), 0)], 1)
    assert len(pt.halfspaces) == 2
    assert pt.vertices == ((F(-1, 2),),)
    ray = Polyhedron.from_halfspaces(
        [((3, -1), -1), ((-3, 1), 1), ((1, 0), F(1, 3)), ((3, -1), 0)], 2)
    assert len(ray.halfspaces) == 3
    assert ray.vertices == ((F(1, 3), F(2)),) and ray.rays == ((F(-1), F(-3)),)
    # a HalfSpace built directly, its normal not an integer vector
    half = Polyhedron.from_halfspaces([HalfSpace((F(1, 2),), F(1)), ((-1,), 0)], 1)
    assert half.vertices == ((F(0),), (F(2),))
    # lineality given as rays, one direction twice
    slab = Polyhedron.from_generators(
        [(0, 0), (0, 5), (1, 0)], [(0, 1), (0, -1), (0, 2)], 2)
    assert len(slab.vertices) == 2
    assert slab.lineality == ((F(0), F(1)),)


def test_one_conversion_per_constructor(monkeypatch):
    calls = []

    def counting_cone_dd(rows, dim):
        calls.append(dim)
        return cone_dd(rows, dim)

    monkeypatch.setattr(geometry, "cone_dd", counting_cone_dd)
    bodies = [([((1, 1), 1), ((1, -1), 1), ((-1, 1), 1), ((-1, -1), 1),
                ((1, 0), 3)], 2),
              ([((0, 1, 0), 1), ((0, -1, 0), 0), ((1, 0, 1), 2)], 3),
              ([((1,), 2), ((-1,), -2)], 1)]
    for hs, dim in bodies:
        calls.clear()
        p = Polyhedron.from_halfspaces(hs, dim)
        assert len(calls) == 1
        q = Polyhedron.from_generators(list(p.vertices) + [p.vertices[0]],
                                       p.rays, dim)
        assert q == p and len(calls) == 2
        m = tuple(tuple(F(2) if i == j else F(i < j) for j in range(dim))
                  for i in range(dim))
        affine_image(p, m, (F(1, 2),) * dim)
        homothety(p, (1,) * dim, F(3, 2))
        transform(p, UnimodularMap.make(la.identity(dim), (1,) * dim))
        if p.fulldim:
            c = p.relative_interior_point()
            polar(p, c)
            f_metric(p, homothety(p, c, 2), c)
        assert len(calls) == 2
        if dim > 1:
            level_slice(p, F(1, 3))
            assert len(calls) == 3


def _redundant_generator_inputs(rng, count):
    """Seeded pointed unbounded 2-d and 3-d bodies given with non-extreme
    points and rays: (points, rays, the primitive extreme rays, sorted).

    The k given rays are linearly independent, so each is extreme; the input
    adds their sum, a repeat and a multiple, the centroid of the points, a
    point plus a ray, and a repeated point.
    """
    out = []
    while len(out) < count:
        n = 2 + len(out) % 2
        k = 1 + len(out) // 2 % n
        rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        if la.rank(rays) != k:
            continue
        pts = [tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(n))
               for _ in range(rng.randint(1, 5))]
        centroid = pts[0]
        for x in pts[1:]:
            centroid = la.vadd(centroid, x)
        inner = [la.vscale(F(1, len(pts)), centroid), la.vadd(pts[0], rays[0])]
        extra = [la.vadd(rays[0], rays[-1]), rays[-1], la.vscale(2, rays[0])]
        out.append((pts + inner + [pts[0]], rays + extra,
                    sorted(la.primitive(la.vec(r)) for r in rays)))
    return out


def assert_cone_dd_matches_oracle(rows, dim):
    # rays exactly and in order; lines up to their span
    lines, rays, masks = cone_dd([la.integer_copy(r) for r in rows], dim)
    want_lines, want_rays = fraction_cone_dd(rows, dim)
    assert rays == want_rays
    assert _canonical_basis(lines) == _canonical_basis(want_lines)
    assert_masks_are_zero_sets(rows, dim, rays, masks)


def assert_masks_are_zero_sets(rows, dim, rays, masks):
    """Bit i of each ray's mask is set iff rows[i] cut the cone of the rows
    before it (the oracle's generators of that cone) and is tight on the
    ray, by integer dot products."""
    assert len(masks) == len(rays)
    live = []
    for i, a in enumerate(rows):
        lines, gens = fraction_cone_dd(rows[:i], dim)
        live.append(any(la.dot(a, l) != 0 for l in lines)
                    or any(la.dot(a, g) > 0 for g in gens))
    for r, m in zip(rays, masks):
        assert m >> len(rows) == 0
        tight = [c and not sum(map(int.__mul__, la.integer_copy(a), r))
                 for a, c in zip(rows, live)]
        assert [bool(m >> i & 1) for i in range(len(rows))] == tight


def varied_rows(base, pick):
    """The integer rows base, each scaled by a positive fraction, with zero
    rows, repeated rows and positive multiples mixed in; pick(k) returns an
    integer in range(k)."""
    scale = lambda: F(pick(4) + 1, pick(3) + 1)
    rows = []
    for r in base:
        r = la.vscale(scale(), r)
        rows.append(r)
        extra = pick(5)
        if extra == 1:
            rows.append(r)
        elif extra == 2:
            rows.append(la.vscale(scale(), r))
        elif extra == 3:
            rows.append((F(0),) * len(r))
    return rows


def test_cone_dd_matches_fraction_oracle():
    # small integer entries make degenerate systems: rays tight on many rows
    rng = random.Random(10)
    entry = lambda: rng.choice((-2, -1, -1, 0, 0, 1, 1, 2))
    for _ in range(200):
        dim = rng.randint(2, 5)
        kind = rng.randrange(4)  # kind 0 leaves lineality: fewer rows than dim
        size = rng.randint(0, dim - 1) if kind == 0 else rng.randint(dim, dim + 5)
        if kind == 2:  # homogenized points, as from_generators passes them
            base = [(1,) + tuple(rng.randint(-1, 1) for _ in range(dim - 1))
                    for _ in range(size)]
        else:
            base = [tuple(entry() for _ in range(dim)) for _ in range(size)]
        if kind == 3:  # x0 >= 0, a . x <= b x0 and a . x >= (b + 1) x0
            a, b = tuple(entry() for _ in range(dim - 1)), entry()
            base += [(-b,) + a, (b + 1,) + tuple(-x for x in a),
                     (-1,) + (0,) * (dim - 1)]
        rows = varied_rows(base, rng.randrange)
        rng.shuffle(rows)
        if kind == 3:
            assert not any(r[0] > 0 for r in fraction_cone_dd(rows, dim)[1])
        assert_cone_dd_matches_oracle(rows, dim)


def test_cone_dd_runs_no_fraction_arithmetic(monkeypatch):
    calls = []

    def counted(f):
        def wrapper(*args):
            calls.append(f.__name__)
            return f(*args)
        return wrapper

    for mod, name in [(la, "dot"), (geometry, "vscale"),
                      (la, "vsub"), (la, "primitive")]:
        monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    square = [(F(-1), F(1), F(0)), (F(0), F(-1), F(0)), (F(-1), F(0), F(1)),
              (F(0), F(0), F(-1)), (F(-1), F(0), F(0))]
    cone_dd([la.integer_copy(r) for r in square], 3)
    cone_dd([la.integer_copy(r) for r in [(F(1, 2), F(-1, 3)), (F(-2), F(0))]], 2)
    octant = [(F(-1), F(0), F(0)), (F(0), F(-1), F(0)), (F(0), F(0), F(-1)),
              (F(-1), F(-1), F(1, 2))]
    cone_dd([la.integer_copy(r) for r in octant], 3)
    assert calls == []


def test_cone_dd_returns_lists_of_int_tuples():
    # perfbench's tracer reads len(rows) and len(result[1]); _assemble takes
    # the primitive int tuples and the int masks as they are
    lines, rays, masks = cone_dd(
        [la.integer_copy(r) for r in [(F(0), F(-1), F(0)), (F(-1), F(1, 2), F(0))]], 3)
    assert type(lines) is list and type(rays) is list and type(masks) is list
    assert lines == [(0, 0, 1)] and sorted(rays) == [(1, 0, 0), (1, 2, 0)]
    for v in lines + rays:
        assert type(v) is tuple and len(v) == 3
        assert all(type(x) is int for x in v)
    assert len(masks) == 2 and all(type(m) is int for m in masks)


def test_redundant_generators_keep_every_extreme_ray():
    seen = {(n, k): 0 for n in (2, 3) for k in range(1, n + 1)}
    for pts, rays, extreme in _redundant_generator_inputs(random.Random(17), 60):
        n = len(pts[0])
        p = Polyhedron.from_generators(pts, rays, n)
        assert list(p.rays) == extreme
        assert p == Polyhedron.from_halfspaces(p.halfspaces, n)
        hs = [(h.normal, h.offset) for h in p.halfspaces]
        assert list(p.vertices) == brute_force_vertices(hs, n)
        assert set(p.vertices) < set(pts)  # x + r is never a vertex
        assert all(p.contains_point(x) for x in pts)
        seen[n, len(extreme)] += 1
    assert min(seen.values()) >= 5, seen
    # the quadrant: its vertex is tight on every row either ray is tight on
    q = Polyhedron.from_generators([(0, 0), (1, 1)], [(1, 0), (0, 1), (1, 1)])
    assert q.rays == ((F(0), F(1)), (F(1), F(0))) and q.vertices == ((F(0), F(0)),)


def test_constructors_and_3d_facet_search_run_no_rank(monkeypatch):
    inputs = _redundant_generator_inputs(random.Random(19), 24)
    rng = random.Random(23)
    inputs += [([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(6)],
                [], []) for _ in range(12)]
    calls = []
    real_rank = la.rank

    def counting_rank(m):
        calls.append(len(m))
        return real_rank(m)

    monkeypatch.setattr(la, "rank", counting_rank)
    searched = 0
    for pts, rays, _ in inputs:
        n = len(pts[0])
        p = Polyhedron.from_generators(pts, rays, n)
        hs = list(p.halfspaces)
        loose = [HalfSpace(h.normal, h.offset + 1) for h in hs]
        sums = [HalfSpace.make(la.vadd(g.normal, h.normal), g.offset + h.offset)
                for g, h in zip(hs, hs[1:]) if la.vadd(g.normal, h.normal) != (0,) * n]
        assert Polyhedron.from_halfspaces(hs + loose + sums, n) == p
        if n == 3 and p.fulldim:
            for j in range(len(hs)):
                facet_interior_lattice_point(p, j)
                searched += 1
    assert calls == []
    assert searched >= 60


def test_empty_and_whole_space_raise():
    with pytest.raises(EmptySet):
        Polyhedron.from_halfspaces([((1,), 0), ((-1,), -1)], 1)
    with pytest.raises(WholeSpace):
        Polyhedron.from_halfspaces([], 2)
    with pytest.raises(WholeSpace):
        Polyhedron.from_generators([(0,)], [(1,), (-1,)], 1)
    with pytest.raises(EmptySet):
        Polyhedron.from_generators([], [], 2)


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        Polyhedron.from_halfspaces([((1, 0), 1)], 1)
    with pytest.raises(DimensionMismatch):
        Polyhedron.from_generators([(0, 0), (1,)], [], 2)


def test_lineality_slab():
    p = Polyhedron.from_halfspaces([((0, 1), 1), ((0, -1), 0)], 2)
    assert p.lineality == ((F(1), F(0)),)
    assert set(p.rays) == {(F(1), F(0)), (F(-1), F(0))}
    assert p.recession_is_subspace()
    assert p.fulldim
    assert not p.is_bounded()
    # quotient anchors sit on the lineality-orthogonal slice
    assert set(p.vertices) == {(F(0), F(0)), (F(0), F(1))}


def test_cone_has_anchor_vertex():
    p = Polyhedron.from_generators([(0, 0)], [(1, 0), (1, 1)], 2)
    assert p.vertices == ((F(0), F(0)),)
    assert set(p.rays) == {(F(1), F(0)), (F(1), F(1))}
    assert not p.recession_is_subspace()
    facets = {(h.normal, h.offset) for h in p.halfspaces}
    assert facets == {((F(-1), F(1)), F(0)), ((F(0), F(-1)), F(0))}


def test_lower_dimensional_segment():
    p = Polyhedron.from_generators([(0, 0), (1, 0)])
    assert not p.fulldim
    eqs = [h for h in p.halfspaces
           if HalfSpace.make(la.vneg(h.normal), -h.offset) in p.halfspaces]
    assert {(h.normal, h.offset) for h in eqs} == {
        ((F(0), F(1)), F(0)), ((F(0), F(-1)), F(0))}


def test_contains_and_interior():
    cube = Polyhedron.from_halfspaces(
        [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1),
         ((0, -1, 0), 1), ((0, 0, 1), 1), ((0, 0, -1), 1)], 3)
    half = homothety(cube, (0, 0, 0), F(1, 2))
    assert cube.contains(half)
    assert cube.contains_in_interior(half)
    assert cube.contains(cube)
    assert not cube.contains_in_interior(cube)
    assert not half.contains(cube)
    assert cube.contains_point((1, 1, 1))
    assert not cube.contains_point((1, 1, 1), strict=True)


def test_polar_diamond_square():
    dia = Polyhedron.from_generators([(1, 0), (-1, 0), (0, 1), (0, -1)])
    sq = Polyhedron.from_halfspaces(
        [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)], 2)
    assert polar(dia) == sq
    assert polar(sq) == dia


def test_polar_requires_interior_origin():
    shifted = Polyhedron.from_generators([(1, 0), (2, 0), (1, 1), (2, 1)])
    with pytest.raises(OriginNotInterior):
        polar(shifted)
    seg = Polyhedron.from_generators([(-1, 0), (1, 0)])
    with pytest.raises(OriginNotInterior):
        polar(seg)
    dia = Polyhedron.from_halfspaces(DIAMOND_HS, 2)
    for center in [(2, 0), (F(1, 2), F(1, 2))]:   # outside, on the boundary
        with pytest.raises(OriginNotInterior):
            polar(dia, center)


# bodies holding the origin inside, apart from the split
POLAR_BODIES = [
    Polyhedron.from_halfspaces(DIAMOND_HS, 2),
    Polyhedron.from_generators([(-1,), (F(5, 2),)]),
    Polyhedron.from_generators(
        [(-1, -1, -1), (2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 2)]),
    # quadrant: its rays span the plane, so 0 is a vertex of the polar
    Polyhedron.from_halfspaces([((-1, 0), 1), ((0, -1), 2)], 2),
    # half-strip: one ray, so 0 lies on an edge of the polar
    Polyhedron.from_halfspaces([((1, 0), 2), ((-1, 0), 1), ((0, -1), 1)], 2),
    # slab and split: lineality makes the polar lower-dimensional
    Polyhedron.from_halfspaces([((0, 1), 2), ((0, -1), 1)], 2),
    Polyhedron.from_halfspaces([((1, 2, -1), 1), ((-1, -2, 1), 0)], 3),
]


def test_polar_closed_form_matches_conversion():
    rng = random.Random(11)
    for p in POLAR_BODIES:
        inner = p.relative_interior_point()
        assert p.contains_point(inner, strict=True)
        origin = la.vzero(p.dim)
        centers = [origin] if p.contains_point(origin, strict=True) else []
        for _ in range(3):
            # the midpoint of an interior point and a random point of p
            w = [rng.randint(1, 5) for _ in p.vertices]
            q = tuple(sum(k * v[i] for k, v in zip(w, p.vertices)) / sum(w)
                      for i in range(p.dim))
            for r in p.rays:
                q = la.vadd(q, la.vscale(rng.randint(0, 3), r))
            centers.append(tuple((a + b) / 2 for a, b in zip(inner, q)))
        for c in centers:
            want = Polyhedron.from_halfspaces(
                [HalfSpace.make(la.vsub(v, c), 1) for v in p.vertices]
                + [HalfSpace.make(r, 0) for r in p.rays], p.dim)
            got = polar(p, c)
            assert got == want
            assert got == polar(translate(p, la.vneg(c)))
            assert got.rays == () and got.fulldim == (not p.lineality)
            origin_is_vertex = la.vzero(p.dim) in got.vertices
            assert origin_is_vertex == (la.rank(p.rays) == p.dim)
    assert la.vzero(2) in polar(POLAR_BODIES[3]).vertices
    assert la.vzero(2) not in polar(POLAR_BODIES[4]).vertices


def _polar_inputs(rng, each):
    """Seeded full-dimensional 1-3-d bodies, ``each`` of every kind (bounded,
    pointed with rays that span less than the space, pointed with rays that
    span it, and with lineality), each with its strictly interior centers."""
    def q():
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3)))

    def r(n):
        return tuple(F(rng.randint(-2, 2)) for _ in range(n))

    kinds = ("bounded", "rays", "spanning", "lineality")
    out = {kind: [] for kind in kinds}
    while min(map(len, out.values())) < each:
        n = rng.randint(1, 3)
        pts = [tuple(q() for _ in range(n)) for _ in range(n + rng.randint(1, 3))]
        rays = [r(n) for _ in range(rng.randint(0, n + 1))]
        if rng.random() < 0.3:
            line = r(n)
            rays += [line, la.vneg(line)]
        try:
            p = Polyhedron.from_generators(
                pts, [x for x in rays if not la.is_zero_vec(x)], n)
        except WholeSpace:
            continue
        if not p.fulldim:
            continue
        kind = ("lineality" if p.lineality else "bounded" if not p.rays
                else "spanning" if la.rank(p.rays) == n else "rays")
        inner = p.relative_interior_point()
        centers = [inner]
        for _ in range(2):
            # the midpoint of the interior point and a vertex or a ray step
            v = rng.choice(p.vertices)
            for x in p.rays:
                v = la.vadd(v, la.vscale(rng.randint(0, 2), x))
            centers.append(tuple((a + b) / 2 for a, b in zip(inner, v)))
        out[kind].append(
            (p, [c for c in centers if p.contains_point(c, strict=True)]))
    return out


def test_polar_matches_the_assembled_route():
    origin_inside = 0
    for kind, bodies in _polar_inputs(random.Random(13), 30).items():
        for p, centers in bodies:
            if p.contains_point(la.vzero(p.dim), strict=True):
                centers = centers + [None]
                origin_inside += 1
            for c in centers:
                got = polar(p, c)
                assert repr(got) == repr(assembled_polar(p, c)), (kind, p, c)
                assert got.fulldim == (kind != "lineality")
    assert origin_inside >= 10


def test_polar_and_f_metric_run_no_assemble(monkeypatch):
    calls = []
    real = Polyhedron._assemble

    def counting_assemble(rows, gens, dim):
        calls.append(dim)
        return real(rows, gens, dim)

    inputs = _polar_inputs(random.Random(17), 5)
    pairs = [(p, homothety(p, c, 2), c) for bodies in inputs.values()
             for p, centers in bodies for c in centers]
    monkeypatch.setattr(Polyhedron, "_assemble", staticmethod(counting_assemble))
    for p, big, c in pairs:
        polar(p, c)
        f_metric(p, big, c)
    assert calls == []


def test_polar_of_unbounded_body_is_lower_dimensional():
    # polar of a slab is a segment (scaled normals), exact duality kept
    slab = Polyhedron.from_halfspaces([((0, 1), 2), ((0, -1), 2)], 2)
    p = polar(slab)
    assert sorted(p.vertices) == [(F(0), F(-1, 2)), (F(0), F(1, 2))]
    assert not p.fulldim


def test_lp_matches_vertex_scan():
    p = Polyhedron.from_halfspaces(DIAMOND_HS, 2)
    for obj in [(1, 0), (0, 1), (2, 3), (-1, 5), (7, -2)]:
        res = lp_solve(obj, p)
        assert res.status == "optimal"
        assert res.value == brute_force_lp(obj, p.vertices)
        assert p.contains_point(res.point)


def test_lp_unbounded_gives_improving_ray():
    p = Polyhedron.from_generators([(0, 0)], [(1, 0)], 2)
    res = lp_solve((1, 0), p)
    assert res.status == "unbounded"
    assert la.dot(res.ray, (F(1), F(0))) > 0
    # the certificate must be a recession direction
    for h in p.halfspaces:
        assert la.dot(h.normal, res.ray) <= 0


def test_lp_min_sense():
    p = Polyhedron.from_halfspaces(DIAMOND_HS, 2)
    res = lp_solve((1, 1), p, sense="min")
    assert res.status == "optimal"
    assert res.value == -1


def test_separate_disjoint_boxes():
    a = Polyhedron.from_generators([(0, 0), (1, 0), (0, 1), (1, 1)])
    b = translate(a, (3, 0))
    h = separate(a, b, slack_point=(F(1, 2), F(1, 2)))
    assert all(slack(h, v) >= 0 for v in a.vertices)
    assert all(slack(h, v) <= 0 for v in b.vertices)


def test_separate_touching_boxes_weakly():
    a = Polyhedron.from_generators([(0, 0), (1, 0), (0, 1), (1, 1)])
    b = translate(a, (1, 0))
    h = separate(a, b, slack_point=(F(1, 2), F(1, 2)))
    assert all(slack(h, v) >= 0 for v in a.vertices)
    assert all(slack(h, v) <= 0 for v in b.vertices)


def test_separate_overlap_raises():
    a = Polyhedron.from_generators([(0, 0), (2, 0), (0, 2), (2, 2)])
    b = translate(a, (1, 1))
    with pytest.raises(NotSeparable):
        separate(a, b, slack_point=(1, 1))


def test_separate_unbounded_sets():
    upper = Polyhedron.from_halfspaces([((0, -1), -1)], 2)   # y >= 1
    lower = Polyhedron.from_halfspaces([((0, 1), -1)], 2)    # y <= -1
    h = separate(upper, lower, slack_point=(0, 2))
    assert h.normal[0] == 0 and h.normal[1] != 0
    for r in upper.rays:
        assert la.dot(h.normal, r) <= 0


def test_transform_roundtrip_and_rebuild():
    tri = Polyhedron.from_generators([(0, 0), (2, 0), (1, 2)])
    u = UnimodularMap.make([[1, 1], [0, 1]], (2, -3))
    t = transform(tri, u)
    assert transform(t, u.inverse()) == tri
    assert t == Polyhedron.from_generators([u.apply(v) for v in tri.vertices])


def test_unimodular_map_validation():
    with pytest.raises(ValueError):
        UnimodularMap.make([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        UnimodularMap.make([[1, 0], [0, 1]], (F(1, 2), 0))


def test_unimodular_map_needs_a_square_matrix_and_a_full_shift():
    # a 2x3 matrix, a 3x2 matrix, and a shift one entry too long
    for matrix, shift in [([[1, 0, 0], [0, 1, 0]], None),
                          ([[1, 0], [0, 1], [0, 0]], None),
                          ([[1, 0], [0, 1]], (0, 0, 0))]:
        with pytest.raises(DimensionMismatch):
            UnimodularMap.make(matrix, shift)


def test_transform_rejects_a_map_of_the_wrong_size():
    tri = Polyhedron.from_generators([(0, 0), (2, 0), (1, 2)])
    for n in (1, 3):
        with pytest.raises(DimensionMismatch):
            transform(tri, UnimodularMap.make(la.identity(n), (1,) * n))


def test_unimodular_map_rejects_a_point_of_the_wrong_length():
    u = UnimodularMap.make([[1, 1], [0, 1]], (2, -3))
    for x in [(1,), (1, 2, 3)]:
        with pytest.raises(DimensionMismatch):
            u.apply(x)


def test_unimodular_map_keeps_its_inverse_out_of_equality():
    m = ((F(2), F(1), F(0)), (F(1), F(1), F(0)), (F(0), F(3), F(-1)))
    inv = ((F(1), F(-1), F(0)), (F(-1), F(2), F(0)), (F(-3), F(6), F(-1)))
    made = UnimodularMap.make(m, (1, -2, 0))
    given = UnimodularMap(m, la.vec((1, -2, 0)), inv)
    twice = made.inverse().inverse()
    assert made.inverse_matrix == inv
    assert made == given == twice
    assert hash(made) == hash(given) == hash(twice)
    assert repr(made) == repr(given) == repr(twice)
    assert "inverse" not in repr(made)
    assert made.inverse() == UnimodularMap.make(inv, la.mat_vec(inv, (-1, 2, 0)))
    assert made.inverse().inverse_matrix == m
    # a stored inverse that is not the integer inverse is refused
    wrong = [(inv[1], inv[0], inv[2]),                        # rows swapped
             tuple(la.vscale(F(1, 2), r) for r in la.identity(3)),
             inv[:2], tuple(r[:2] for r in inv),
             (inv[0], inv[1], inv[2] + (F(0),))]
    for bad in wrong:
        with pytest.raises(CertificateError):
            UnimodularMap(m, la.vzero(3), bad)


def test_affine_image_takes_int_matrices_and_rejects_floats():
    tri = Polyhedron.from_generators([(0, 0), (2, 0), (1, 2)])
    img = affine_image(tri, ((2, 1), (1, 1)), (0, 0))
    assert img == affine_image(tri, ((F(2), F(1)), (F(1), F(1))), (F(0), F(0)))
    assert img == Polyhedron.from_generators([(0, 0), (4, 2), (4, 3)])
    with pytest.raises(TypeError):
        affine_image(tri, ((2.0, 1), (1, 1)), (0, 0))
    with pytest.raises(TypeError):
        affine_image(tri, ((2, 1), (1, 1)), (0.5, 0))
    for matrix, shift in [(((1, 0, 0), (0, 1, 0)), (0, 0)),
                          (((1, 0), (0, 1), (0, 0)), (0, 0)),
                          (((1, 0), (0, 1)), (0, 0, 0)),
                          (((1,),), (0,))]:
        with pytest.raises(DimensionMismatch):
            affine_image(tri, matrix, shift)


def test_homothety_and_scale_shift():
    tri = Polyhedron.from_generators([(0, 0), (2, 0), (1, 2)])
    assert homothety(tri, (1, 1), 1) == tri
    small = homothety(tri, (1, F(1, 2)), F(1, 3))
    assert tri.contains(small)
    assert minkowski_scale_shift(tri, 2, (0, 0)) == Polyhedron.from_generators(
        [(0, 0), (4, 0), (2, 4)])
    with pytest.raises(ValueError):
        minkowski_scale_shift(tri, 0, (0, 0))
    with pytest.raises(ValueError):
        homothety(tri, (0, 0), 0)
    # a slab: the shift is reduced off the lineality, the rays stay
    slab = Polyhedron.from_halfspaces([((1, 1), 1), ((-1, -1), 0)], 2)
    moved = minkowski_scale_shift(slab, 3, (F(1, 2), 5))
    assert moved == Polyhedron.from_halfspaces([((1, 1), F(17, 2)),
                                                ((-1, -1), F(-11, 2))], 2)
    assert moved.rays == slab.rays and moved.lineality == slab.lineality
    assert homothety(slab, (0, 1), 2) == Polyhedron.from_halfspaces(
        [((1, 1), 1), ((-1, -1), 1)], 2)
    for bad in ((0,), (0, 0, 0)):
        with pytest.raises(DimensionMismatch):
            homothety(tri, bad, 2)
        with pytest.raises(DimensionMismatch):
            translate(slab, bad)
        with pytest.raises(DimensionMismatch):
            minkowski_scale_shift(tri, 2, bad)


def _scale_shift_bodies(rng, count):
    """Seeded 1-3-d bodies: bounded, with rays, with lineality and flat."""
    def q():
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3)))

    bodies = []
    while len(bodies) < count:
        n = rng.randint(1, 3)
        kind = len(bodies) % 4
        pts = [tuple(q() for _ in range(n)) for _ in range(n + 2)]
        rays = []
        if kind == 1:
            rays = [tuple(F(rng.randint(-2, 2)) for _ in range(n))
                    for _ in range(rng.randint(1, 2))]
        elif kind == 2:
            line = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            rays = [line, la.vneg(line)]
        elif kind == 3:
            # points on a line through the first one
            d = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            pts = [la.vadd(pts[0], la.vscale(rng.randint(-3, 3), d))
                   for _ in range(3)]
        rays = [r for r in rays if not la.is_zero_vec(r)]
        try:
            bodies.append(Polyhedron.from_generators(pts, rays, n))
        except WholeSpace:
            continue
    return bodies


def test_scale_shift_closed_form_matches_affine_image():
    rng = random.Random(7)
    seen = {"flat": 0, "rays": 0, "lineality": 0}
    for p in _scale_shift_bodies(rng, 160):
        n = p.dim
        lam = F(rng.randint(1, 12), rng.randint(1, 5))
        v = tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n))
        c = tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n))
        diag = tuple(tuple(lam if i == j else F(0) for j in range(n))
                     for i in range(n))
        assert repr(minkowski_scale_shift(p, lam, v)) == repr(
            assembled_affine_image(p, diag, v))
        assert translate(p, v) == assembled_affine_image(p, la.identity(n), v)
        assert homothety(p, c, lam) == assembled_affine_image(
            p, diag, la.vscale(1 - lam, c))
        seen["flat"] += not p.fulldim
        seen["rays"] += bool(p.rays) and not p.lineality
        seen["lineality"] += bool(p.lineality)
    assert min(seen.values()) >= 20, seen


def test_scale_shift_runs_no_assemble(monkeypatch):
    calls = []
    real = Polyhedron._assemble

    def counting_assemble(rows, gens, dim):
        calls.append(dim)
        return real(rows, gens, dim)

    bodies = _scale_shift_bodies(random.Random(5), 40)
    monkeypatch.setattr(Polyhedron, "_assemble", staticmethod(counting_assemble))
    for p in bodies:
        calls.clear()
        one = (1,) * p.dim
        homothety(p, one, F(3, 2))
        translate(p, one)
        minkowski_scale_shift(p, 2, one)
        assert calls == []
    assert any(not p.fulldim for p in bodies)


def _random_unimodular(rng, n):
    """A product of a few random integer row operations and sign flips."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 5)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            k = rng.randint(-2, 2)
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return UnimodularMap.make(m, [rng.randint(-3, 3) for _ in range(n)])


def _image_inputs(rng, count):
    """Seeded bodies of five kinds (bounded, with rays, with lineality,
    flat, flat with a ray or a line), each with a unimodular, a diagonal
    and a general rational map: (kind, body, map kind, matrix, shift)."""
    bodies = _scale_shift_bodies(rng, count)
    flats = [p for p in bodies if not p.fulldim and len(p.vertices) == 2]
    for p in flats[:count // 4]:
        d = la.vsub(p.vertices[1], p.vertices[0])
        rays = [d] if rng.random() < 0.5 else [d, la.vneg(d)]
        if p.dim == 3 and rng.random() < 0.5:
            rays = [la.vec(rng.randint(-2, 2) for _ in range(3))] + rays[1:]
        bodies.append(Polyhedron.from_generators(p.vertices, rays, p.dim))
    out = []
    for p in bodies:
        n = p.dim
        kind = ("flat with recession" if not p.fulldim and p.rays else
                "flat" if not p.fulldim else "lineality" if p.lineality else
                "rays" if p.rays else "bounded")
        t = _random_unimodular(rng, n)
        out.append((kind, p, "unimodular", t.matrix, t.shift))
        lam = F(rng.randint(1, 12), rng.randint(1, 5))
        shift = tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n))
        out.append((kind, p, "diagonal",
                    tuple(la.vscale(lam, e) for e in la.identity(n)), shift))
        while True:
            m = tuple(tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(n)) for _ in range(n))
            if la.rank(m) == n:
                break
        out.append((kind, p, "general", m, shift))
    return out


def test_images_match_the_assembled_route():
    seen = {}
    for kind, p, map_kind, m, s in _image_inputs(random.Random(29), 320):
        want = repr(assembled_affine_image(p, m, s))
        assert repr(affine_image(p, m, s)) == want, (kind, map_kind, p, m, s)
        if map_kind == "unimodular":
            t = UnimodularMap.make(m, s)
            assert repr(transform(p, t)) == want, (kind, p, m, s)
            assert transform(transform(p, t), t.inverse()) == p
        seen[kind, map_kind] = seen.get((kind, map_kind), 0) + 1
    assert sum(seen.values()) >= 1000
    assert len(seen) == 15 and min(seen.values()) >= 20, seen


def test_images_run_no_assemble_and_maps_no_inverse(monkeypatch):
    assembles = []
    inverses = []
    real_assemble, real_inverse = Polyhedron._assemble, la.inverse

    def counting_assemble(rows, gens, dim):
        assembles.append(dim)
        return real_assemble(rows, gens, dim)

    def counting_inverse(m):
        inverses.append(m)
        return real_inverse(m)

    inputs = [(p, UnimodularMap.make(m, s)) for _, p, map_kind, m, s
              in _image_inputs(random.Random(31), 40) if map_kind == "unimodular"]
    monkeypatch.setattr(Polyhedron, "_assemble", staticmethod(counting_assemble))
    monkeypatch.setattr(la, "inverse", counting_inverse)
    for p, t in inputs:
        transform(transform(p, t), t.inverse())
        assert inverses == []
        affine_image(p, t.matrix, t.shift)
        assert len(inverses) == 1
        inverses.clear()
    assert assembles == []


KINDS = ("bounded", "rays", "lineality", "flat")


def _kind(p):
    return ("flat" if not p.fulldim else "lineality" if p.lineality else
            "rays" if p.rays else "bounded")


def _bodies_of_every_kind(rng, per):
    """Seeded bodies in dimensions 1-3, per of each kind (bounded, pointed
    unbounded, with lineality, flat; a line in R^1 is the whole space), as
    {(kind, dim): [bodies]}.  Flat bodies lie on a line or, in R^3, a plane
    through a point, some with a ray or a line along it."""
    def q():
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3)))

    def vec(n):
        return tuple(F(rng.randint(-2, 2)) for _ in range(n))

    out = {(k, n): [] for n in (1, 2, 3) for k in KINDS if (k, n) != ("lineality", 1)}
    while any(len(v) < per for v in out.values()):
        n = rng.randint(1, 3)
        pts = [tuple(q() for _ in range(n)) for _ in range(rng.randint(1, n + 2))]
        rays = [vec(n) for _ in range(rng.choice((0, 0, 1, 2)))]
        if rays and rng.random() < 0.4:
            rays.append(la.vneg(rays[0]))
        if rng.random() < 0.3:
            span = [vec(n) for _ in range(rng.randint(0, min(2, n - 1)))]
            flat = []
            for _ in range(rng.randint(0, 3)):
                x = pts[0]
                for d in span:
                    x = la.vadd(x, la.vscale(rng.randint(-3, 3), d))
                flat.append(x)
            pts = pts[:1] + flat
            rays = [d for d in span if rng.random() < 0.3]
            if rays and rng.random() < 0.5:
                rays.append(la.vneg(rays[0]))
        rays = [r for r in rays if not la.is_zero_vec(r)]
        try:
            p = Polyhedron.from_generators(pts, rays, n)
        except WholeSpace:
            continue
        bucket = out[_kind(p), n]
        if len(bucket) < per:
            bucket.append(p)
    return out


def _check_assemble_against_the_fraction_route(mp):
    """Run every Polyhedron._assemble call through oracles.fraction_assemble
    too and compare the two by repr (WholeSpace from both alike); returns
    the list of results."""
    real = Polyhedron._assemble
    log = []

    def checked(rows, gens, dim, **incidence):
        # the oracle makes its own incidence by dot products
        try:
            want = repr(fraction_assemble(rows, gens, dim))
        except WholeSpace:
            with pytest.raises(WholeSpace):
                real(rows, gens, dim, **incidence)
            raise
        got = real(rows, gens, dim, **incidence)
        assert repr(got) == want, (rows, gens, dim, incidence)
        log.append(got)
        return got

    mp.setattr(Polyhedron, "_assemble", staticmethod(checked))
    return log


# (points, rays, lineality dimension): the rays span the lineality with no
# +/- pair among them, as r, s, -r - s or r, -2r
_PLANE = [(1, 0, 1), (0, 1, -1), (-1, -1, 0)]
_LINEALITY_WITHOUT_PAIRS = [
    ([(F(1, 2), 0)], [(1, 2), (-2, -4)], 1),                  # a line
    ([(0, 0), (1, 0)], [(1, 1), (-3, -3), (0, 1)], 1),        # a half-plane
    ([(F(1, 2), F(1, 3), 0)], _PLANE + [(1, 1, 1)], 2),       # a half-space
    ([(0, 0, 0), (0, 0, 1)], _PLANE, 2),                      # a slab
    ([(0, 0, 0), (1, 0, 0), (0, 2, 0)], [(1, 1, 1), (-2, -2, -2)], 1),  # a prism
    ([(F(1, 2), 0, 0)], _PLANE, 2),                           # flat: a plane
    ([(0, 0, F(1, 2)), (1, 0, F(1, 2))], [(0, 1, 0), (0, -2, 0)], 1),  # a strip
    ([(0, 0, F(1, 2))], [(0, 1, 0), (0, -2, 0), (1, 0, 0)], 1),  # a half-plane
    ([(1, 0, 0)], [(1, 1, 1), (-2, -2, -2)], 1),             # a line
]


def test_assemble_matches_the_fraction_route(monkeypatch):
    bodies = _bodies_of_every_kind(random.Random(43), 25)
    log = _check_assemble_against_the_fraction_route(monkeypatch)
    for pts, rays, k in _LINEALITY_WITHOUT_PAIRS:
        p = Polyhedron.from_generators(pts, rays)
        assert len(p.lineality) == k and _canonical_basis(p.lineality) == (
            _canonical_basis([la.vec(r) for r in rays[:k + 1]]))
        bodies.setdefault(("no pairs", p.dim), []).append(p)
    for (kind, n), ps in bodies.items():
        for p in ps:
            q = Polyhedron.from_generators(p.vertices, p.rays, n)
            assert q == p
            assert Polyhedron.from_halfspaces(p.halfspaces, n) == p
            # the facets of unbounded bodies in space, flat bodies with a
            # ray or a line, made by one more conversion each
            if p.fulldim and p.rays and n == 3:
                for h in p.halfspaces:
                    flat = HalfSpace(la.vneg(h.normal), -h.offset)
                    Polyhedron.from_halfspaces(p.halfspaces + (flat,), n)
    for rays in ([(1, 0), (-1, 0), (0, 1), (0, -1)], [(1, 0), (0, 1), (-1, -1)]):
        with pytest.raises(WholeSpace):
            Polyhedron.from_generators([(0, 0)], rays)
    seen = {}
    for p in log:
        seen[_kind(p), p.dim] = seen.get((_kind(p), p.dim), 0) + 1
    assert len(seen) == 11 and min(seen.values()) >= 50, seen
    assert len(log) >= 600


def _padded_descriptions(p, rng):
    """p's generators with interior, repeated and scaled ones mixed in (the
    points first, as from_generators orders them), and its half-spaces with
    loosened, repeated, scaled and summed ones, each list shuffled."""
    pts = list(p.vertices)
    centroid = pts[0]
    for x in pts[1:]:
        centroid = la.vadd(centroid, x)
    pts += [la.vscale(F(1, len(pts)), centroid), rng.choice(pts)]
    if p.rays:
        pts.append(la.vadd(pts[0], rng.choice(p.rays)))
    rays = list(p.rays)
    if rays:
        rays += [rng.choice(rays), la.vscale(3, rng.choice(rays)),
                 la.vadd(rays[0], rays[-1])]
    rays = [r for r in rays if not la.is_zero_vec(r)]
    hs = [(h.normal, h.offset) for h in p.halfspaces]
    g, h = rng.choice(hs), rng.choice(hs)
    extra = [(g[0], g[1] + 1), h, (la.vscale(2, h[0]), 2 * h[1])]
    if not la.is_zero_vec(la.vadd(g[0], h[0])):
        extra.append((la.vadd(g[0], h[0]), g[1] + h[1]))
    hs += extra
    for xs in (pts, rays, hs):
        rng.shuffle(xs)
    return pts, rays, hs


# affine subspaces as equality pairs plus redundant rows: a point, a line
# and a plane (dimension, half-spaces)
_FLATS_BY_ROWS = [
    (2, [((1, 0), 2), ((-1, 0), -2), ((0, 1), F(1, 2)), ((0, -1), F(-1, 2)),
         ((1, 1), 7), ((2, 0), 4)]),
    (3, [((1, 0, 0), 1), ((-1, 0, 0), -1), ((0, 1, -1), 0), ((0, -1, 1), 0),
         ((1, 1, -1), 3)]),
    (3, [((1, 1, -1), 1), ((-1, -1, 1), -1), ((1, 1, -1), 3),
         ((2, 2, -2), 2)]),
]


def test_handed_incidence_matches_the_fraction_route(monkeypatch):
    # the zero sets the conversion hands to _assemble give what the oracle's
    # dot-product incidence gives, on inputs with redundant members
    rng = random.Random(53)
    bodies = _bodies_of_every_kind(rng, 12)
    log = _check_assemble_against_the_fraction_route(monkeypatch)
    checked = Polyhedron._assemble
    handed = []

    def recording(rows, gens, dim, **incidence):
        handed.append("".join(sorted(incidence)))
        return checked(rows, gens, dim, **incidence)

    monkeypatch.setattr(Polyhedron, "_assemble", staticmethod(recording))
    for (kind, n), ps in bodies.items():
        for p in ps:
            pts, rays, hs = _padded_descriptions(p, rng)
            assert Polyhedron.from_generators(pts, rays, n) == p
            assert Polyhedron.from_halfspaces(hs, n) == p
    flats = []
    for n, hs in _FLATS_BY_ROWS:
        p = Polyhedron.from_halfspaces(hs, n)
        assert Polyhedron.from_generators(p.vertices * 2, p.rays, n) == p
        flats.append(len(p.lineality))
    assert flats == [0, 1, 2]
    assert handed.count("row_inc") == handed.count("gen_inc") == len(log) // 2
    assert len(log) >= 2 * 11 * 12
    seen = {}
    for p in log:
        seen[_kind(p)] = seen.get(_kind(p), 0) + 1
    # unbounded bodies too, where the x0 face is a facet of the cone
    assert min(seen.values()) >= 40, seen


def test_scale_shift_matches_the_fraction_formula():
    rng = random.Random(47)
    count = 0
    for (kind, n), ps in _bodies_of_every_kind(rng, 15).items():
        for p in ps:
            lam = F(rng.randint(1, 12), rng.randint(1, 5))
            v = tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n))
            c = tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 4))) for _ in range(n))
            if p.fulldim:
                want = fraction_scale_shift(p, lam, v)
                assert repr(minkowski_scale_shift(p, lam, v)) == repr(want), (p, lam, v)
                assert repr(homothety(p, c, lam)) == repr(
                    fraction_scale_shift(p, lam, la.vscale(1 - lam, c)))
                assert repr(translate(p, v)) == repr(fraction_scale_shift(p, 1, v))
                count += 1
            diag = tuple(la.vscale(lam, e) for e in la.identity(n))
            assert repr(minkowski_scale_shift(p, lam, v)) == repr(
                assembled_affine_image(p, diag, v)), (kind, p, lam, v)
            # every p, flat or not, takes the shift (1 - t) c on ints
            for t in (lam, F(1)):
                assert repr(homothety(p, c, t)) == repr(
                    minkowski_scale_shift(p, t, la.vscale(1 - t, c))), (p, c, t)
    assert count >= 120


def test_containment_matches_the_slack_rule():
    rng = random.Random(53)
    bodies = _bodies_of_every_kind(rng, 8)
    outcomes = {}
    for (kind, n), ps in bodies.items():
        others = [q for (_, m), qs in bodies.items() if m == n for q in qs]
        for p in ps:
            c = p.relative_interior_point()
            pairs = [(p, p)] + [(p, q) for q in rng.sample(others, 6)]
            # about a vertex, the homothety keeps that vertex on p's facets
            for center in (c, p.vertices[0]):
                for lam in (F(1, 2), F(3, 2)):
                    hp = homothety(p, center, lam)
                    pairs += [(p, hp), (hp, p)]
            for a, b in pairs:
                got = (a.contains(b), a.contains_in_interior(b))
                assert got == (slack_contains(a, b),
                               slack_contains(a, b, strict=True)), (a, b)
                on_facet = any(slack(h, v) == 0 for h in a.halfspaces
                               for v in b.vertices)
                key = got + (on_facet, bool(b.rays))
                outcomes[key] = outcomes.get(key, 0) + 1
    # inside with a vertex on a facet, strictly inside, outside, and each
    # with rays
    for key in [(True, False, True, False), (True, False, True, True),
                (True, True, False, False), (False, False, False, False),
                (False, False, True, True), (True, True, False, True)]:
        assert outcomes.get(key, 0) >= 5, (key, outcomes)
    with pytest.raises(DimensionMismatch):
        bodies["bounded", 2][0].contains(bodies["bounded", 3][0])
    with pytest.raises(DimensionMismatch):
        bodies["bounded", 2][0].contains_in_interior(bodies["bounded", 1][0])


def test_sections_and_embeddings():
    tri = Polyhedron.from_generators([(0, 0), (2, 0), (1, 2)])
    d = level_slice(tri, 1)
    assert d.dim == 1 and sorted(d.vertices) == [(F(1, 2),), (F(3, 2),)]
    e = embed_last_axis(d, 5)
    assert sorted(e.vertices) == [(F(1, 2), F(5)), (F(3, 2), F(5))]
    with pytest.raises(EmptySet):
        level_slice(tri, 3)
    slab = Polyhedron.from_halfspaces([((0, 1), 1), ((0, -1), 0)], 2)
    with pytest.raises(WholeSpace):
        level_slice(slab, F(1, 2))
    with pytest.raises(EmptySet):
        level_slice(slab, 2)
    pl = product_with_line(d)
    assert pl.lineality == ((F(0), F(1)),)


def test_level_slice_matches_brute_force():
    # random 2-d and 3-d polytopes, half of them with a flat top, sliced at
    # every vertex level, between levels, and outside the level range
    rng = random.Random(5)
    flat_tops = 0
    for trial in range(40):
        n = 2 + trial % 2
        pts = [tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n))
               for _ in range(n + 3)]
        if trial % 4 < 2:
            top = max(x[-1] for x in pts)
            pts += [x[:-1] + (top,) for x in pts[:n]]
        p = Polyhedron.from_generators(pts)
        flat_tops += any(la.is_zero_vec(h.normal[:-1]) for h in p.halfspaces)
        heights = sorted({v[-1] for v in p.vertices})
        levels = heights + [(a + b) / 2 for a, b in zip(heights, heights[1:])]
        levels += [heights[0] - 1, heights[-1] + F(1, 2)]
        for t in levels:
            want = brute_force_slice(p.vertices, t)
            if want is None:
                with pytest.raises(EmptySet):
                    level_slice(p, t)
                continue
            s = level_slice(p, t)
            assert s.dim == n - 1 and s.rays == ()
            assert list(s.vertices) == want
    assert flat_tops > 0


def _outcome(run):
    """repr of run(), or the type and message of the LatcutError it raised."""
    try:
        return repr(run())
    except (EmptySet, WholeSpace) as exc:
        return type(exc).__name__, str(exc)


def test_level_slice_matches_the_halfspace_route():
    # level_slice fixes x_n on the int rows and converts once; the reference
    # fixes it on the Fraction half-spaces, one HalfSpace.make per row, and
    # converts those: the same slice, and the same error, type and message
    rng = random.Random(30)
    outcomes = {}
    for (kind, n), ps in _bodies_of_every_kind(rng, 12).items():
        for p in ps:
            heights = sorted({v[-1] for v in p.vertices})
            levels = {0, heights[0], heights[-1] + 1, heights[0] - F(5, 2)}
            levels.update(F(rng.randint(-20, 20), rng.choice((1, 2, 3, 7)))
                          for _ in range(3))
            for t in sorted(levels):
                want = _outcome(lambda: Polyhedron.from_halfspaces(
                    fix_last_axis(p.halfspaces, t), n - 1))
                assert _outcome(lambda: level_slice(p, t)) == want, (p, t)
                key = want[0] if isinstance(want, tuple) else "slice"
                outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes["EmptySet"] >= 100 and outcomes["slice"] >= 200, outcomes
    assert outcomes["WholeSpace"] >= 3, outcomes


def test_squared_distances():
    sq = Polyhedron.from_generators([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert squared_distance_point((2, 0), sq) == 1
    assert squared_distance_point((2, 2), sq) == 2
    assert squared_distance_point((F(1, 2), F(1, 2)), sq) == 0
    big = homothety(sq, (0, 0), 2)
    assert hausdorff_sq(sq, big) == 2  # frozen: farthest corner (2,2) to (1,1)
    assert hausdorff_sq(sq, sq) == 0


def test_hausdorff_of_mixed_dimensions_raises():
    # the walk zips vertices of both bodies: a triangle against a 3-d
    # simplex read 1 and against a segment 0 before the check
    tri = Polyhedron.from_generators([(0, 0), (1, 0), (0, 1)])
    simplex = Polyhedron.from_generators([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    segment = Polyhedron.from_generators([(0,), (1,)])
    for p, q in ((tri, simplex), (simplex, tri), (tri, segment), (segment, tri)):
        with pytest.raises(DimensionMismatch, match="ambient dimensions differ"):
            hausdorff_sq(p, q)


def assert_same_fraction(got, want):
    assert type(got) is F and type(want) is F, (got, want)
    assert got == want


def test_distances_match_subset_scan():
    rng = random.Random(5)

    def pt(n):
        return tuple(F(rng.randint(-8, 8), 2) for _ in range(n))

    def scan_hausdorff(p, q):
        return max([subset_scan_dist_sq(v, q.vertices, q.contains_point)
                    for v in p.vertices]
                   + [subset_scan_dist_sq(v, p.vertices, p.contains_point)
                      for v in q.vertices])

    solids = [Polyhedron.from_generators(
        [pt(3) for _ in range(rng.randint(4, 7))]) for _ in range(10)]
    segments = [Polyhedron.from_generators([pt(n), pt(n)])
                for n in (2, 3) for _ in range(3)]
    flat = [polar(Polyhedron.from_halfspaces([((0, 1), 2), ((0, -1), 1)], 2)),
            polar(Polyhedron.from_halfspaces(
                [((1, 1, 0), 1), ((-1, -1, 0), 3)], 3)),
            Polyhedron.from_generators(
                [(0, 0, 1), (2, 0, 1), (0, 3, 1), (3, 3, 1)])]
    targets = solids + segments + flat
    assert sum(not p.fulldim for p in targets) >= len(segments) + len(flat)
    for i, p in enumerate(targets):
        for _ in range(6):
            x = pt(p.dim)
            got = squared_distance_point(x, p)
            assert got == subset_scan_dist_sq(x, p.vertices, p.contains_point)
            assert_same_fraction(got, fraction_distance_sq(x, p))
        q = next(q for q in targets[i + 1:] + targets if q.dim == p.dim)
        got = hausdorff_sq(p, q)
        assert got == scan_hausdorff(p, q)
        assert_same_fraction(got, fraction_hausdorff_sq(p, q))
    with pytest.raises(ValueError):
        squared_distance_point((0, 0), POLAR_BODIES[3])


def test_capped_distance_stops_at_the_cap():
    rng = random.Random(23)

    def pt(n):
        return tuple(F(rng.randint(-8, 8), 2) for _ in range(n))

    fired = above_exact = 0
    for _ in range(30):
        n = rng.randint(2, 3)
        p = Polyhedron.from_generators([pt(n) for _ in range(n + 3)])
        for _ in range(4):
            x = pt(n)
            exact = squared_distance_point(x, p)
            # the int walk reads x as (s, s x) and the cap as (num, den) for
            # one scale s, and a distance (num, den) there is num / (den s^2)
            s = math.lcm(*(a.denominator for v in p.vertices + (x,) for a in v))
            verts, frames = _frames_on(p, s)
            for cap in (F(0), exact - 1, exact - F(1, 7), exact, exact + F(1, 3),
                        exact + 4, 4 * exact + 9):
                c = cap * s * s
                num, den = _distance_sq(_on_scale((F(1),) + x, s), verts, frames,
                                        (c.numerator, c.denominator))
                got = F(num, den * s * s)
                if exact > cap:
                    assert got == exact
                else:
                    assert exact <= got <= cap
                    fired += 1
                    above_exact += got > exact
    assert fired > 0 and above_exact > 0


def test_int_walk_matches_the_fraction_walk(monkeypatch):
    # polars of seeded 1-, 2- and 3-d bodies with denominators 1, 2 and 3
    # (flat where the body has lineality), and random polytopes with
    # denominators up to 7, against the Fraction walk of tests/oracles.py;
    # each pair is measured on fresh copies, which build their frames, and
    # again on the bodies themselves once their frames are built, which the
    # walk multiplies up to the pair's scale when the denominators differ
    rng = random.Random(31)

    def pt(n):
        return tuple(F(rng.randint(-12, 12), rng.choice((1, 2, 3, 5, 7)))
                     for _ in range(n))

    inputs = [(p, c) for bodies in _polar_inputs(random.Random(29), 6).values()
              for p, centers in bodies for c in centers]
    polars = [polar(p, c) for p, c in inputs]
    ints = 0
    for p, c in inputs:
        # one polar per body and exact center, whatever type the center has
        assert polar(p, c) is polar(p, c)
        if all(x.denominator == 1 for x in c):
            assert polar(p, tuple(map(int, c))) is polar(p, c)
            ints += 1
    assert ints >= 5, ints
    polytopes = [Polyhedron.from_generators(
        [pt(n) for _ in range(rng.randint(1, n + 4))]) for n in (1, 2, 3) for _ in range(8)]
    targets = polars + polytopes
    assert sum(not p.fulldim for p in polars) >= 6
    assert {p.dim for p in polars} == {1, 2, 3}
    builds = []
    real = geometry._face_frames
    monkeypatch.setattr(geometry, "_face_frames",
                        lambda p: builds.append(p) or real(p))
    rescaled = 0
    for i, p in enumerate(targets):
        for q in [q for q in targets[i:] if q.dim == p.dim][:4]:
            want = fraction_hausdorff_sq(p, q)
            builds.clear()
            assert_same_fraction(hausdorff_sq(*map(dataclasses.replace, (p, q))), want)
            assert len(builds) == 2
            hausdorff_sq(p, q)
            builds.clear()
            assert_same_fraction(hausdorff_sq(p, q), want)
            assert not builds
            s = math.lcm(*(g[0] for g in p.points + q.points))
            rescaled += any(b._frames[0][0][0] < s for b in (p, q))
        for x in [pt(p.dim) for _ in range(3)] + list(p.vertices[:1]):
            assert_same_fraction(squared_distance_point(x, p),
                                 fraction_distance_sq(x, p))
    assert rescaled >= 100, rescaled
    # a body that keeps polars or frames is still equal to a fresh copy
    kept = [(p, "_polars") for p, _ in inputs] + [(p, "_frames") for p in targets]
    for p, memo in kept:
        assert memo in vars(p)
        fresh = dataclasses.replace(p)
        assert fresh == p and hash(fresh) == hash(p) and repr(fresh) == repr(p)


def test_f_metric_pairs_match_the_fraction_walk(monkeypatch):
    # every polar pair f_metric measures in gauge-metric-properties
    from latcut import cuts
    from latcut.scenarios import run_scenario

    pairs = []

    def checked(p, q):
        got = hausdorff_sq(p, q)
        assert_same_fraction(got, fraction_hausdorff_sq(p, q))
        pairs.append(got)
        return got

    monkeypatch.setattr(cuts, "hausdorff_sq", checked)
    assert run_scenario("gauge-metric-properties", {"checks": 24}).passed
    assert len(pairs) >= 40 and any(pairs)


def test_halfspace_normalization():
    h = HalfSpace.make((F(2, 3), F(-4, 3)), F(1, 2))
    assert h.normal == (F(1), F(-2))
    assert h.offset == F(3, 4)
    with pytest.raises(ValueError):
        HalfSpace.make((0, 0), 1)


def test_every_normal_is_a_primitive_integer_vector(monkeypatch):
    # cuts.gauge reads normals as ints: every constructor and closed form
    # must keep them primitive integer, and the rows that the facet search
    # scans must be ints
    scanned = []
    columns = lattice._columns

    def recording_columns(rows, ranges, axis, strict=True):
        scanned.extend(rows)
        return columns(rows, ranges, axis, strict)

    monkeypatch.setattr(lattice, "_columns", recording_columns)
    bodies = []
    for path in FIXTURES:
        p = parse_polyhedron(path.read_text())
        n, c = p.dim, p.relative_interior_point()
        shear = [[int(i == j or (i, j) == (0, n - 1)) for j in range(n)]
                 for i in range(n)]
        bodies += [p, transform(p, UnimodularMap.make(shear, (1,) * n)),
                   homothety(p, c, F(3, 7)), translate(p, (F(-5, 3),) * n)]
        if p.fulldim:
            bodies.append(polar(p, c))
        if p.fulldim and n == 3:
            for j in range(len(p.halfspaces)):
                facet_interior_lattice_point(p, j)
        if n >= 2:
            try:
                bodies.append(level_slice(p, c[-1]))
            except WholeSpace:
                pass
    normals = [h.normal for b in bodies for h in b.halfspaces]
    for a in normals:
        assert all(x.denominator == 1 for x in a)
        assert math.gcd(*(x.numerator for x in a)) == 1
    assert scanned
    assert all(type(x) is int for row in scanned for x in row)


# -- randomized structural invariants ---------------------------------------

coord = st.integers(min_value=-4, max_value=4).map(F)
point2 = st.tuples(coord, coord)
point3 = st.tuples(coord, coord, coord)


@settings(max_examples=60, deadline=None)
@given(st.lists(point2, min_size=3, max_size=7))
def test_generator_roundtrip_2d(pts):
    try:
        p = Polyhedron.from_generators(pts)
    except EmptySet:
        return
    for x in pts:
        assert p.contains_point(x)
    assert Polyhedron.from_halfspaces(p.halfspaces, 2) == p
    assert Polyhedron.from_generators(p.vertices, p.rays, 2) == p
    # every vertex is tight at some facet and every facet has a tight vertex
    for h in p.halfspaces:
        assert any(slack(h, v) == 0 for v in p.vertices)


@settings(max_examples=40, deadline=None)
@given(st.lists(point3, min_size=4, max_size=7))
def test_generator_roundtrip_3d(pts):
    p = Polyhedron.from_generators(pts)
    assert Polyhedron.from_halfspaces(p.halfspaces, 3) == p
    hull_pts = set(p.vertices)
    assert hull_pts <= set(tuple(la.vec(x)) for x in pts)


@settings(max_examples=40, deadline=None)
@given(st.lists(point2, min_size=3, max_size=6), st.lists(point2, min_size=0, max_size=2))
def test_recession_and_lp_agree(pts, raw_rays):
    rays = [r for r in raw_rays if any(c != 0 for c in r)]
    p = Polyhedron.from_generators(pts, rays)
    obj = (F(3), F(-2))
    res = lp_solve(obj, p)
    sup, _ = support(p, obj)
    if res.status == "optimal":
        assert sup == res.value
        assert sup == max(la.dot(obj, v) for v in p.vertices)
    else:
        assert sup is None
        assert any(la.dot(obj, r) > 0 for r in p.rays)


def test_support_reference_checks_its_dimension():
    # the package's last support reader left it for the oracles; a direction
    # of the wrong length raises DimensionMismatch, not linalg.dot's ValueError
    tri = Polyhedron.from_generators([(0, 0), (2, 0), (0, 2)])
    assert support(tri, (1, 1)) == (F(2), (F(0), F(2)))
    for direction in ((1,), (1, 1, 1)):
        with pytest.raises(DimensionMismatch):
            support(tri, direction)


@settings(max_examples=40, deadline=None)
@given(st.lists(point2, min_size=3, max_size=6))
def test_bipolar_identity(pts):
    p = Polyhedron.from_generators(pts)
    if not p.contains_point((0, 0), strict=True):
        return
    assert polar(polar(p)) == p
    # gauge duality: every polar point has product <= 1 with every body point
    for u in polar(p).vertices:
        for v in p.vertices:
            assert la.dot(u, v) <= 1


@st.composite
def dd_systems(draw):
    dim = draw(st.integers(min_value=2, max_value=5))
    entry = st.integers(min_value=-2, max_value=2)
    base = draw(st.lists(st.tuples(*[entry] * dim), max_size=dim + 5))
    rows = varied_rows(
        base, lambda k: draw(st.integers(min_value=0, max_value=k - 1)))
    return draw(st.permutations(rows)), dim


@settings(max_examples=60, deadline=None)
@given(dd_systems())
def test_cone_dd_matches_fraction_oracle_random(system):
    assert_cone_dd_matches_oracle(*system)


half = st.integers(min_value=-9, max_value=9).map(lambda k: F(k, 2))


@settings(max_examples=60, deadline=None)
@given(st.lists(point2, min_size=1, max_size=6),
       st.lists(point2, min_size=1, max_size=6), st.tuples(half, half))
def test_distances_match_polygon_oracles(pa, pb, x):
    a = Polyhedron.from_generators(pa)
    b = Polyhedron.from_generators(pb)
    want = 0 if a.contains_point(x) else polygon_dist_sq(x, a.vertices)
    assert squared_distance_point(x, a) == want
    assert hausdorff_sq(a, b) == hausdorff_sq_polygons(
        a.vertices, b.vertices, a.contains_point, b.contains_point)


@settings(max_examples=30, deadline=None)
@given(st.lists(point2, min_size=3, max_size=6), st.lists(point2, min_size=3, max_size=6))
def test_separation_complete(pa, pb):
    a = Polyhedron.from_generators(pa)
    b = Polyhedron.from_generators(pb)
    try:
        h = separate(a, b, slack_point=a.relative_interior_point())
    except NotSeparable:
        # only overlapping interiors are inseparable: the intersection must
        # then be nonempty, and full-dimensional when both inputs are
        both = Polyhedron.from_halfspaces(
            list(a.halfspaces) + list(b.halfspaces), 2)
        if a.fulldim and b.fulldim:
            assert both.fulldim
        return
    assert all(slack(h, v) >= 0 for v in a.vertices)
    assert all(slack(h, v) <= 0 for v in b.vertices)


@settings(max_examples=60, deadline=None)
@given(st.lists(point3, min_size=1, max_size=5),
       st.lists(point3, max_size=2),
       st.tuples(*[st.integers(min_value=-2, max_value=2)] * 9),
       st.tuples(half, half, half))
def test_images_match_the_assembled_route_hypothesis(pts, raw_rays, entries, shift):
    rays = [r for r in raw_rays if not la.is_zero_vec(r)]
    try:
        p = Polyhedron.from_generators(pts, rays, 3)
    except WholeSpace:
        return
    m = tuple(tuple(F(x) for x in entries[3 * i:3 * i + 3]) for i in range(3))
    if la.rank(m) < 3:
        return
    want = repr(assembled_affine_image(p, m, shift))
    assert repr(affine_image(p, m, shift)) == want
    if all(x.denominator == 1 for x in shift) and all(
            map(la.is_integer_vec, la.inverse(m))):
        assert repr(transform(p, UnimodularMap.make(m, shift))) == want


rational = st.builds(F, st.integers(min_value=-9, max_value=9),
                     st.integers(min_value=1, max_value=3))


@st.composite
def generator_lists(draw):
    """(dim, points, rays) in dimensions 1-3; some lie on a line, with a ray
    along it or none."""
    n = draw(st.integers(min_value=1, max_value=3))
    pts = draw(st.lists(st.tuples(*[rational] * n), min_size=1, max_size=5))
    rays = draw(st.lists(st.tuples(*[coord] * n), max_size=3))
    if draw(st.booleans()):
        d = draw(st.tuples(*[coord] * n))
        ks = draw(st.lists(st.integers(min_value=-3, max_value=3), max_size=3))
        pts = pts[:1] + [la.vadd(pts[0], la.vscale(k, d)) for k in ks]
        rays = [d] * draw(st.integers(min_value=0, max_value=1))
    return n, pts, [r for r in rays if not la.is_zero_vec(r)]


@settings(max_examples=80, deadline=None)
@given(generator_lists(), st.builds(F, st.integers(min_value=1, max_value=12),
                                    st.integers(min_value=1, max_value=5)),
       st.data())
def test_int_kernels_match_the_fraction_routes_hypothesis(gens, lam, data):
    n, pts, rays = gens
    with pytest.MonkeyPatch.context() as mp:
        _check_assemble_against_the_fraction_route(mp)
        try:
            p = Polyhedron.from_generators(pts, rays, n)
        except WholeSpace:
            return
        assert Polyhedron.from_halfspaces(p.halfspaces, n) == p
    v = data.draw(st.tuples(*[rational] * n))
    if p.fulldim:
        assert repr(minkowski_scale_shift(p, lam, v)) == repr(
            fraction_scale_shift(p, lam, v))
    m = data.draw(st.tuples(*[st.tuples(*[rational] * n)] * n))
    if la.rank(m) == n:
        assert repr(affine_image(p, m, v)) == repr(assembled_affine_image(p, m, v))
    for center in (p.relative_interior_point(), p.vertices[0]):
        q = homothety(p, center, lam)
        for a, b in ((p, q), (q, p), (p, p)):
            assert (a.contains(b), a.contains_in_interior(b)) == (
                slack_contains(a, b), slack_contains(a, b, strict=True))


def _assert_canonical_int_form(p):
    """p's stored int form is primitive, its views come out sorted, and the
    Fraction constructor of its views gives p back."""
    assert all(math.gcd(*z) == 1 and any(z[1:]) for z in p.rows)
    assert all(math.gcd(*g) == 1 and g[0] > 0 for g in p.points)
    assert all(math.gcd(*r) == 1 for r in p.directions + p.lines)
    assert all(la.is_integer_vec(h.normal)
               and math.gcd(*(a.numerator for a in h.normal)) == 1
               for h in p.halfspaces)
    assert list(p.halfspaces) == sorted(p.halfspaces)
    assert list(p.vertices) == sorted(p.vertices)
    assert list(p.rays) == sorted(p.rays)
    assert polyhedron_of(p.dim, p.halfspaces, p.vertices, p.rays, p.lineality,
                         p.fulldim) == p


def test_int_form_round_trips_through_the_fraction_views():
    # on every fixture, on seeded bounded, pointed, spanning, lineality and
    # flat bodies, and on the images, homotheties and polars of those that
    # the kernels write without a sort
    rng = random.Random(26)
    bodies = [parse_polyhedron(path.read_text()) for path in FIXTURES]
    centers = []
    for kind, found in _polar_inputs(rng, 6).items():
        for p, cs in found:
            bodies.append(p)
            centers += [(p, c) for c in cs]
    for _ in range(12):
        # points a + sum t_k d_k over k < n directions: a segment or a polygon
        n = rng.randint(2, 3)
        a, *dirs = [tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                          for _ in range(n)) for _ in range(rng.randint(2, n))]
        pts = [a]
        for _ in range(4):
            ts = [F(rng.randint(-4, 4), 2) for _ in dirs]
            pts.append(tuple(x + sum(t * d[i] for t, d in zip(ts, dirs))
                             for i, x in enumerate(a)))
        flat = Polyhedron.from_generators(pts)
        assert not flat.fulldim
        bodies.append(flat)
    for p, c in centers:
        bodies.append(homothety(p, c, F(rng.randint(1, 9), rng.randint(1, 4))))
        bodies.append(polar(p, c))
    bodies += [geometry.transform(p, _random_unimodular(rng, p.dim))
               for p in bodies[:40]]
    assert len(bodies) > 100
    for p in bodies:
        _assert_canonical_int_form(p)
