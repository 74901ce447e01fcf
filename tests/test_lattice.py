"""Lattice enumeration, lattice-free certificates, width, growth."""

import itertools
import math
import random
from fractions import Fraction as F

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latcut import geometry, jsonio, lattice, scenarios
from latcut import linalg as la
from latcut.constructions import split_along
from latcut.errors import (
    NotFullDimensional,
    NotLatticeFreeInput,
    UnboundedEnumeration,
    UnsupportedDimension,
    WholeSpace,
)
from latcut.geometry import (
    HalfSpace,
    Polyhedron,
    UnimodularMap,
    cone_dd,
    homothety,
    transform,
    translate,
)
from latcut.lattice import (
    certify_lattice_free,
    facet_interior_lattice_point,
    flatness_bound,
    grow_to_maximal,
    interior_lattice_point,
    lattice_points_in,
    lattice_width,
    point_denominator,
)

from oracles import (
    box_scan_width,
    brute_force_vertices,
    first_strict_point_by_columns,
    fix_last_axis,
    fraction_alignment,
    fraction_strict_integer,
    lattice_points_in_hrep,
    orthogonal_brute_width,
    quotient_certificate,
    slack,
    _split_off_lineality,
    transpose,
)

DIAMOND = Polyhedron.from_halfspaces(
    [((1, 1), 1), ((1, -1), 1), ((-1, 1), 1), ((-1, -1), 1)], 2)
SQUARE01 = Polyhedron.from_generators([(0, 0), (1, 0), (0, 1), (1, 1)])
SLAB = Polyhedron.from_halfspaces([((1, 0), 1), ((-1, 0), 0)], 2)
BIG_TRIANGLE = Polyhedron.from_generators([(0, 0), (2, 0), (0, 2)])
FIXTURES = Path(__file__).parent / "fixtures"


def _check_cert(p, cert):
    """Replay the certificate against the body it talks about."""
    if not cert.lattice_free:
        w = cert.interior_witness
        assert all(x.denominator == 1 for x in w)
        assert p.contains_point(w, strict=True)
        return
    for j, w in enumerate(cert.facet_witnesses):
        if w is None:
            continue
        assert all(x.denominator == 1 for x in w)
        h = p.halfspaces[j]
        assert slack(h, w) == 0
        for i, g in enumerate(p.halfspaces):
            if i != j:
                assert slack(g, w) > 0
    assert cert.maximal == all(w is not None for w in cert.facet_witnesses)


def test_lattice_points_in_diamond():
    # oracle: box scan against the raw inequalities
    expected = lattice_points_in_hrep(
        [((1, 1), 1), ((1, -1), 1), ((-1, 1), 1), ((-1, -1), 1)],
        (-1, -1), (1, 1))
    assert sorted(expected) == [
        (F(-1), F(0)), (F(0), F(-1)), (F(0), F(0)), (F(0), F(1)), (F(1), F(0))]
    assert sorted(lattice_points_in(DIAMOND)) == sorted(expected)
    assert lattice_points_in(DIAMOND, strict=True) == [(F(0), F(0))]


def test_lattice_points_refuses_unbounded():
    with pytest.raises(UnboundedEnumeration):
        lattice_points_in(SLAB)


def test_point_denominator():
    assert point_denominator((F(1, 2), F(1, 3))) == 6
    assert point_denominator((1, 2)) == 1


def test_flatness_bound_values():
    assert [flatness_bound(n) for n in (1, 2, 3)] == [1, 6, 16]
    with pytest.raises(UnsupportedDimension):
        flatness_bound(0)


def test_certify_square_lattice_free_not_maximal():
    cert = certify_lattice_free(SQUARE01)
    assert cert.lattice_free
    assert cert.maximal is False
    assert len(cert.unwitnessed()) == 4  # no edge holds an interior integer
    _check_cert(SQUARE01, cert)


def test_certify_big_triangle_maximal():
    cert = certify_lattice_free(BIG_TRIANGLE)
    assert cert.lattice_free and cert.maximal
    _check_cert(BIG_TRIANGLE, cert)
    # frozen witnesses: one interior integer point per edge
    assert set(cert.facet_witnesses) == {(F(0), F(1)), (F(1), F(0)), (F(1), F(1))}


def test_certify_finds_interior_point():
    box = Polyhedron.from_generators([(-1, -1), (2, -1), (-1, 2), (2, 2)])
    cert = certify_lattice_free(box)
    assert not cert.lattice_free
    _check_cert(box, cert)


def test_certify_slab_maximal():
    cert = certify_lattice_free(SLAB)
    assert cert.lattice_free and cert.maximal
    _check_cert(SLAB, cert)


def test_certify_slab_3d():
    slab3 = Polyhedron.from_halfspaces([((1, 0, 0), 1), ((-1, 0, 0), 0)], 3)
    cert = certify_lattice_free(slab3)
    assert cert.lattice_free and cert.maximal


def test_certify_skewed_slab():
    # {0 <= x + 2y <= 1} is maximal lattice-free
    p = Polyhedron.from_halfspaces([((1, 2), 1), ((-1, -2), 0)], 2)
    cert = certify_lattice_free(p)
    assert cert.lattice_free and cert.maximal
    _check_cert(p, cert)


def test_certify_bodies_with_lineality_that_hold_a_lattice_point():
    # frozen: the witnesses interior_lattice_point gives on the same bodies
    strip = Polyhedron.from_halfspaces([((1, 2), 3), ((-1, -2), 0)], 2)
    slab = Polyhedron.from_halfspaces(
        [((1, 0, 1), F(5, 2)), ((-1, 0, -1), 0), ((0, 1, 0), 2), ((0, -1, 0), 0)],
        3)
    for p, w in ((strip, (F(2), F(0))), (slab, (F(2), F(1), F(0)))):
        cert = certify_lattice_free(p)
        assert not cert.lattice_free and cert.interior_witness == w
        assert interior_lattice_point(p) == w
        _check_cert(p, cert)


def test_certify_builds_no_image_of_a_lineality_body(monkeypatch):
    # a lineality body is certified in its own frame: no quotient, so no
    # image of it is built
    real = geometry._image
    calls = []

    def counting_image(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "_image", counting_image)
    bodies = [Polyhedron.from_halfspaces([((1, 2), 1), ((-1, -2), 0)], 2)]
    bodies += [jsonio.parse_polyhedron((FIXTURES / f"{name}.json").read_text())
               for name in ("split_horizontal", "split_slanted",
                            "cylinder_over_diamond", "skew_cylinder_3d")]
    frees = []
    for p in bodies:
        assert p.lineality
        frees.append(certify_lattice_free(p).lattice_free)
    assert frees == [True, True, False, True, True] and calls == []


def test_split_off_lineality_runs_no_conversion(monkeypatch):
    bodies = [Polyhedron.from_halfspaces([((1, 2), 1), ((-1, -2), 0)], 2),
              Polyhedron.from_halfspaces([((1, 2, 3), 1), ((-1, -2, -3), 0)], 3),
              Polyhedron.from_halfspaces(
                  [((1, -1, 0), 1), ((0, 1, -1), 2), ((-1, 0, 1), 0)], 3),
              Polyhedron.from_halfspaces([((0, 1, 1), 2), ((0, -1, 0), 1)], 3)]
    # the quotient as a conversion builds it from the transformed generators
    wanted = []
    for p in bodies:
        keep = p.dim - len(p.lineality)
        u, _ = fraction_alignment(p.lineality)
        q = transform(p, UnimodularMap.make(u))
        rays = [r[:keep] for r in q.rays if not la.is_zero_vec(r[:keep])]
        wanted.append(Polyhedron.from_generators(
            [v[:keep] for v in q.vertices], rays, keep))
    calls = []

    def counting_cone_dd(rows, dim):
        calls.append(dim)
        return cone_dd(rows, dim)

    real_assemble = Polyhedron._assemble
    assembled = []

    def counting_assemble(rows, gens, dim):
        assembled.append(dim)
        return real_assemble(rows, gens, dim)

    monkeypatch.setattr(geometry, "cone_dd", counting_cone_dd)
    monkeypatch.setattr(Polyhedron, "_assemble", staticmethod(counting_assemble))
    for p, want in zip(bodies, wanted):
        quotient, back, _ = _split_off_lineality(p)
        assert quotient == want
        assert p.contains_point(back(quotient.relative_interior_point()))
    assert calls == [] and assembled == [], (calls, assembled)


def _check_cert_on_ints(p, cert):
    """Replay a certificate on p's int rows (z0, a), read a . x + z0 <= 0:
    an interior witness strictly inside every row, a facet witness on its
    row and strictly inside every other."""
    def values(w):
        assert all(x.denominator == 1 for x in w)
        return [z0 + sum(int(x) * y for x, y in zip(w, a)) for z0, *a in p.rows]

    if not cert.lattice_free:
        assert max(values(cert.interior_witness)) < 0
        return
    assert len(cert.facet_witnesses) == len(p.rows)
    for j, w in enumerate(cert.facet_witnesses):
        if w is not None:
            v = values(w)
            assert v.pop(j) == 0 and all(x < 0 for x in v)
    assert cert.maximal == all(w is not None for w in cert.facet_witnesses)


def _lineality_bodies(rng, count):
    """The lineality fixtures, then count seeded bodies under random
    unimodular maps: 2-d and 3-d splits and cylinders over quadrilaterals."""
    bodies = [jsonio.parse_polyhedron((FIXTURES / f"{name}.json").read_text())
              for name in ("split_horizontal", "split_slanted",
                           "cylinder_over_diamond", "skew_cylinder_3d")]
    while len(bodies) < 4 + count:
        kind = len(bodies) % 3
        if kind < 2:
            n = 2 + kind
            c = [rng.randint(-3, 3) for _ in range(n)]
            if not any(c):
                continue
            lo = F(rng.randint(-6, 6), rng.choice((1, 1, 2)))
            hi = lo + F(rng.randint(1, 4), rng.choice((1, 1, 2, 3)))
            p = Polyhedron.from_halfspaces([(c, hi), ([-x for x in c], -lo)], n)
        else:
            pts = [(F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2), 0)
                   for _ in range(4)]
            try:
                p = Polyhedron.from_generators(pts, [(0, 0, 1), (0, 0, -1)])
            except WholeSpace:
                continue
            if not p.fulldim or len(p.vertices) != 4:
                continue
        bodies.append(transform(p, scenarios.random_unimodular(rng, p.dim)))
    return bodies


def test_certificates_match_the_quotient_route():
    # the direct certificate of a lineality body against the one read off
    # its quotient: the same decision and the same witnessed facets, though
    # a witness may differ; every witness is replayed on int rows
    bodies = _lineality_bodies(random.Random(27), 300)
    kinds = {"free": 0, "maximal": 0, "not free": 0}
    for p in bodies:
        assert p.lineality
        got, want = certify_lattice_free(p), quotient_certificate(p)
        assert got.lattice_free == want.lattice_free, p
        assert got.maximal == want.maximal, p
        assert got.unwitnessed() == want.unwitnessed(), p
        _check_cert_on_ints(p, got)
        _check_cert_on_ints(p, want)
        kinds["not free" if not got.lattice_free
              else "maximal" if got.maximal else "free"] += 1
    assert min(kinds.values()) >= 30, kinds


def test_certify_strip_with_pointed_recession():
    # quarter-open strip: lattice-free but not maximal
    p = Polyhedron.from_halfspaces(
        [((0, 1), F(1, 2)), ((0, -1), F(-1, 4)), ((-1, 0), 0)], 2)
    cert = certify_lattice_free(p)
    assert cert.lattice_free and cert.maximal is False
    _check_cert(p, cert)


def test_certify_wedge_contains_integer():
    # full-dimensional pointed cone: far enough out there is always one
    p = Polyhedron.from_halfspaces(
        [((0, -1), F(-1, 7)), ((1, -20), 0)], 2)
    cert = certify_lattice_free(p)
    assert not cert.lattice_free
    _check_cert(p, cert)


def test_certify_requires_full_dimension():
    seg = Polyhedron.from_generators([(0, 0), (1, 0)])
    with pytest.raises(NotFullDimensional):
        certify_lattice_free(seg)


def test_certify_3d_orthant_holds_a_lattice_point():
    p = Polyhedron.from_generators(
        [(F(1, 2), F(1, 2), F(1, 2))],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    cert = certify_lattice_free(p)
    assert not cert.lattice_free
    w = cert.interior_witness
    assert all(x.denominator == 1 for x in w) and p.contains_point(w, strict=True)
    _check_cert(p, cert)


def _half_prisms(count=80, seed=17):
    """Seeded sheared half-prisms as (body, polygon) pairs.

    Each body is {x >= alpha} x Q for a random rational polygon Q in (y, z),
    sheared by x <- x + k y + m z + s, so its recession cone is the x-ray
    and its last axis is bounded.  Every second Q is thin: drawn inside an
    open unit strip, then sheared inside the (y, z) plane, so it is often
    lattice-free without lying along an axis.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2:
            base = rng.randint(-2, 2)
            pts = [(F(rng.randint(-12, 12), rng.randint(1, 4)),
                    base + F(rng.randint(1, 5), 6))
                   for _ in range(rng.randint(3, 5))]
            j, swap = rng.randint(-2, 2), rng.random() < 0.5
            pts = [(z, y + j * z) if swap else (y + j * z, z) for y, z in pts]
        else:
            pts = [(F(rng.randint(-8, 8), rng.randint(1, 3)),
                    F(rng.randint(-8, 8), rng.randint(1, 3)))
                   for _ in range(rng.randint(3, 6))]
        q = Polyhedron.from_generators(pts)
        if not q.fulldim:
            continue
        alpha = F(rng.randint(-9, 9), rng.randint(1, 4))
        k, m = rng.randint(-2, 2), rng.randint(-2, 2)
        s = F(rng.randint(-5, 5), rng.randint(1, 3))
        # x >= alpha becomes -x' + k y + m z <= -alpha - s under the shear
        rows = [((F(-1), F(k), F(m)), -alpha - s)]
        rows += [((F(0),) + h.normal, h.offset) for h in q.halfspaces]
        out.append((Polyhedron.from_halfspaces(rows, 3), q))
    return out


def _moved_off_the_last_axis(p, rng):
    """p under z <- z + k x (k = +/-1) followed by a seeded random
    unimodular map, so an x-ray usually leaves the last axis."""
    k = F(rng.choice((-1, 1)))
    shear = UnimodularMap.make([(1, 0, 0), (0, 1, 0), (k, 0, 1)])
    return transform(transform(p, shear), scenarios.random_unimodular(rng, 3))


def _check_interior_search(p, holds_a_point):
    """interior_lattice_point and the certificate agree with the oracle."""
    z = interior_lattice_point(p)
    assert (z is not None) == holds_a_point
    if z is not None:
        assert all(x.denominator == 1 for x in z)
        assert p.contains_point(z, strict=True)
    cert = certify_lattice_free(p)
    assert cert.lattice_free == (z is None)
    _check_cert(p, cert)


def vertex_box(p):
    """(lo, hi): the box of a bounded body's vertices."""
    cols = list(zip(*p.vertices))
    return tuple(map(min, cols)), tuple(map(max, cols))


def test_half_prisms_match_box_enumeration(monkeypatch):
    rng = random.Random(29)
    cases = []
    for p, q in _half_prisms():
        assert not p.lineality and p.rays and all(r[-1] == 0 for r in p.rays)
        lo, hi = vertex_box(q)
        strict = lattice_points_in_hrep(
            [(h.normal, h.offset) for h in q.halfspaces], lo, hi, strict=True)
        moved = _moved_off_the_last_axis(p, rng)
        cases += [(p, bool(strict)), (moved, bool(strict))]
    calls = []

    def counting_cone_dd(rows, dim):
        calls.append(dim)
        return cone_dd(rows, dim)

    monkeypatch.setattr(geometry, "cone_dd", counting_cone_dd)
    for p, holds_a_point in cases:
        _check_interior_search(p, holds_a_point)
    free = sum(not h for _, h in cases) // 2
    moved = sum(r[-1] != 0 for p, _ in cases[1::2] for r in p.rays)
    assert free >= 10 and moved >= 70, (free, moved)
    # a ray spanning a line is one scan, so no body is converted
    assert calls == [], len(calls)


def test_pointed_bodies_of_ray_rank_two_and_three():
    """Two-ray planar cones times a z-interval hold an interior integer point
    iff an integer lies strictly inside the interval; cones on three
    independent rays always do.  Each body is searched as built and under
    a seeded unimodular map."""
    rng = random.Random(31)

    def q():
        return F(rng.randint(-9, 9), rng.randint(1, 4))

    def independent(n):
        while True:
            rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
            if la.rank(rays) == n:
                return rays

    seen = {True: 0, False: 0}
    for i in range(60):
        apex = (q(), q(), q())
        if i % 2:
            rays = independent(3)
            pts, holds_a_point = [apex], True
        else:
            rays = [r + (0,) for r in independent(2)]
            lo, hi = apex[2], apex[2] + F(rng.randint(1, 4), rng.randint(2, 4))
            pts = [apex[:2] + (lo,), apex[:2] + (hi,)]
            holds_a_point = math.floor(lo) + 1 < hi
        p = Polyhedron.from_generators(pts, rays, 3)
        assert p.fulldim and not p.lineality
        for body in (p, transform(p, scenarios.random_unimodular(rng, 3))):
            _check_interior_search(body, holds_a_point)
        seen[holds_a_point] += 1
    assert min(seen.values()) >= 10, seen


UNBOUNDED_KINDS = ("lineality", "lineality and rays", "ray rank below n",
                   "ray rank n", "half-line")


def _unbounded_bodies(kind, count, rng):
    """count seeded unbounded bodies of one recession shape, each as built
    and under a seeded unimodular map.  For the shapes whose rays can all
    lie in x_n = 0, every second body keeps x_n within [0, 1], so it is
    lattice-free."""
    def q():
        return F(rng.randint(-6, 6), rng.randint(1, 3))

    out = []
    while len(out) < 2 * count:
        n = 1 if kind == "half-line" else rng.choice((2, 3))
        thin = len(out) % 4 == 0 and kind not in ("ray rank n", "half-line")

        def ray():
            head = tuple(rng.randint(-2, 2) for _ in range(n - 1))
            return head + (0 if thin else rng.randint(-2, 2),)

        pts = [tuple(q() for _ in range(n - 1))
               + (F(rng.randint(0, 3), 3) if thin else q(),)
               for _ in range(rng.randint(1, 3))]
        if thin:
            pts += [pts[0][:-1] + (F(0),), pts[0][:-1] + (F(1),)]
        l = ray()
        m = ray() if n == 3 and rng.random() < 0.5 else None  # a second line
        rays = {"lineality": [l, la.vneg(l)] + ([m, la.vneg(m)] if m else []),
                "lineality and rays": [l, la.vneg(l), ray()],
                "ray rank below n": [ray() for _ in range(n - 1)],
                "ray rank n": [ray() for _ in range(n)],
                "half-line": [(rng.choice((-1, 1)),)]}[kind]
        if not all(map(any, rays)):
            continue
        p = Polyhedron.from_generators(pts, rays, n)
        shape = {"lineality": p.lineality and len(p.rays) == 2 * len(p.lineality),
                 "lineality and rays": p.lineality and len(p.rays) > 2 * len(p.lineality),
                 "ray rank below n": not p.lineality and la.rank(p.rays) < n,
                 "ray rank n": not p.lineality and la.rank(p.rays) == n,
                 "half-line": True}[kind]
        if p.fulldim and shape:
            out += [p, transform(p, scenarios.random_unimodular(rng, n))]
    return out


def test_unbounded_interior_search_matches_the_box_oracle():
    """One search for every unbounded body: its decision is the box oracle's
    on the body cut to [-6, 6]^n, and its witness is integral, strictly
    inside, and the least step t along the integer ray sum w (one step less
    leaves the interior).  A lineality body's witness is its certificate's,
    which is read off the quotient."""
    rng = random.Random(41)
    seen = {}
    for kind in UNBOUNDED_KINDS:
        for p in _unbounded_bodies(kind, 12, rng):
            z = interior_lattice_point(p)
            rows = [(h.normal, h.offset) for h in p.halfspaces]
            box = lattice_points_in_hrep(rows, (-6,) * p.dim, (6,) * p.dim, strict=True)
            assert (z is None) == (not box), (kind, p)
            seen[kind, z is None] = seen.get((kind, z is None), 0) + 1
            if kind == "lineality":
                assert certify_lattice_free(p).interior_witness == z
            if z is None:
                continue
            assert all(x.denominator == 1 for x in z)
            assert p.contains_point(z, strict=True)
            w = tuple(map(sum, zip(*map(la.integer_copy, p.rays))))
            if any(w):
                assert not p.contains_point(la.vsub(z, w), strict=True), (kind, p)
    assert all(seen.get((kind, False), 0) >= 5 for kind in UNBOUNDED_KINDS), seen
    assert all(seen.get((kind, True), 0) >= 5
               for kind in UNBOUNDED_KINDS[:3]), seen


def test_facet_witness_nonexistent_on_fractional_line():
    p = Polyhedron.from_halfspaces(
        [((0, 1), F(1, 2)), ((0, -1), 0), ((1, 0), 10), ((-1, 0), 10)], 2)
    j = next(i for i, h in enumerate(p.halfspaces)
             if h.normal == (F(0), F(1)))
    assert facet_interior_lattice_point(p, j) is None


def test_facet_witnesses_of_a_slab_in_space():
    # the other facet is parallel, so each facet's relative interior is its
    # whole plane
    slab3 = Polyhedron.from_halfspaces([((1, 0, 0), 1), ((-1, 0, 0), 0)], 3)
    for j, h in enumerate(slab3.halfspaces):
        z = facet_interior_lattice_point(slab3, j)
        assert all(x.denominator == 1 for x in z) and slack(h, z) == 0


def _facet_by_conversion(p, j):
    """The 3-d facet search with the facet built by from_halfspaces:
    (facet body or None, witness)."""
    h = p.halfspaces[j]
    others = [g for i, g in enumerate(p.halfspaces) if i != j]
    if h.offset.denominator != 1:
        return None, None
    u, _ = fraction_alignment([h.normal])
    level = h.offset * la.mat_vec(u, h.normal)[-1]
    rotated = [HalfSpace(la.mat_vec(u, g.normal), g.offset) for g in others]
    try:
        sub = Polyhedron.from_halfspaces(fix_last_axis(rotated, level), p.dim - 1)
    except WholeSpace:
        return None, la.mat_vec(transpose(u), la.vzero(p.dim - 1) + (level,))
    z2 = interior_lattice_point(sub)
    if z2 is None:
        return sub, None
    return sub, la.mat_vec(transpose(u), tuple(z2) + (level,))


def test_3d_facet_search_runs_no_conversion(monkeypatch):
    rng = random.Random(13)
    bodies = []
    while len(bodies) < 45:
        pts = [tuple(F(rng.randint(-6, 6), rng.choice((1, 1, 2))) for _ in range(3))
               for _ in range(rng.randint(4, 7))]
        rays = [tuple(F(rng.randint(-2, 2)) for _ in range(3))
                for _ in range(len(bodies) % 4)]
        if len(rays) >= 2:
            rays[1] = la.vneg(rays[0])  # a line, and a ray when there are 3
        rays = [r for r in rays if not la.is_zero_vec(r)]
        p = Polyhedron.from_generators(pts, rays, 3)
        if p.fulldim:
            bodies.append(p)
    wanted = [[_facet_by_conversion(p, j) for j in range(len(p.halfspaces))]
              for p in bodies]
    assert sum(w is not None for ws in wanted for _, w in ws) >= 20
    assert sum(bool(p.lineality) for p in bodies) >= 5
    assert sum(bool(p.lineality) and len(p.rays) > 2 for p in bodies) >= 5
    assert sum(bool(p.rays) and not p.lineality for p in bodies) >= 5
    calls = []

    def counting_cone_dd(rows, dim):
        calls.append("cone_dd")
        return cone_dd(rows, dim)

    real_assemble = Polyhedron._assemble

    def counting_assemble(rows, gens, dim, **incidence):
        calls.append("_assemble")
        return real_assemble(rows, gens, dim, **incidence)

    monkeypatch.setattr(geometry, "cone_dd", counting_cone_dd)
    monkeypatch.setattr(Polyhedron, "_assemble", staticmethod(counting_assemble))
    for p, want in zip(bodies, wanted):
        for j, (_, w) in enumerate(want):
            assert facet_interior_lattice_point(p, j) == w
    # every facet, bounded or not, is searched on p's rows and generators
    # with no body built: no conversion and no canonical-form pass
    kinds = [sub.is_bounded() for ws in wanted for sub, _ in ws if sub is not None]
    assert kinds.count(True) >= 20 and kinds.count(False) >= 20, kinds
    assert calls == [], calls


def test_facet_search_requires_full_dimension():
    # a flat triangle lists both sides of its plane as rows, and no point
    # of the plane lies strictly inside the other side
    tri = Polyhedron.from_generators([(0, 0, 0), (4, 0, 0), (0, 4, 0)])
    for j in range(len(tri.halfspaces)):
        with pytest.raises(NotFullDimensional):
            facet_interior_lattice_point(tri, j)


def test_interior_point_halfline():
    # the integer nearest the vertex on the open side, frozen as
    # (vertex, ray) -> point
    cases = {(F(7, 2), -1): 3, (F(3), -1): 2, (F(7, 2), 1): 4, (F(3), 1): 4}
    for (v, r), want in cases.items():
        p = Polyhedron.from_generators([(v,)], [(r,)], 1)
        z = interior_lattice_point(p)
        assert z == (F(want),)
        assert p.contains_point(z, strict=True)


def _realign_budget(p):
    lo, hi = vertex_box(p)
    budget = 1
    for e in sorted(hi[i] - lo[i] for i in range(p.dim))[:-1]:
        budget *= math.floor(e) + 1
    return budget


def test_interior_point_follows_the_column_scan():
    # the witness is the first point of the scan: other axes in product
    # order, the widest axis from its top down
    rng = random.Random(11)
    found = 0
    for trial in range(60):
        n = 1 + trial % 3
        pts = [tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n))
               for _ in range(n + 2)]
        p = Polyhedron.from_generators(pts)
        if not p.fulldim:
            continue
        assert _realign_budget(p) < 20000
        want = first_strict_point_by_columns(
            [(h.normal, h.offset) for h in p.halfspaces], n)
        assert interior_lattice_point(p) == want
        found += want is not None
    assert found > 20


def _thin_slabs(rng, count):
    """Boxes of side near 150 cut by a slab a . x in [c, c + w], w at most 3,
    that are over the 20,000-column budget: fat in every axis, thin along a."""
    out = []
    while len(out) < count:
        a = [rng.randint(-2, 2) for _ in range(3)]
        if sum(x != 0 for x in a) < 2:
            continue
        box = [F(rng.randint(140, 150), 2) for _ in range(3)]
        c, w = F(rng.randint(-10, 10), 2), F(rng.randint(1, 6), 2)
        hs = [(tuple(k * int(i == j) for j in range(3)), box[i])
              for i in range(3) for k in (1, -1)]
        hs += [(a, c + w), ([-x for x in a], -c)]
        p = Polyhedron.from_halfspaces(hs, 3)
        if _realign_budget(p) > 20000:
            out.append(p)
    return out


def test_fat_bounded_body_is_scanned_along_its_thinnest_normal(monkeypatch):
    # a body over the 20,000-column budget whose thinnest facet normal u is
    # thinner than every axis is scanned in the frame that U from the
    # alignment of u turns it into: the column oracle on the turned rows,
    # its point mapped back by U^T
    real = la.alignment_int
    calls = []

    def counting_alignment(lines, n):
        calls.append(lines)
        return real(lines, n)

    monkeypatch.setattr(la, "alignment_int", counting_alignment)
    turned = found = 0
    for p in _thin_slabs(random.Random(2), 8):
        lo, hi = vertex_box(p)
        calls.clear()
        z = interior_lattice_point(p)
        if not calls:
            continue
        turned += 1
        spreads = [max(vals) - min(vals) for vals in (
            [la.dot(h.normal, v) for v in p.vertices] for h in p.halfspaces)]
        j = spreads.index(min(spreads))
        assert spreads[j] < min(b - a for a, b in zip(lo, hi))
        m, _ = fraction_alignment([p.halfspaces[j].normal])
        want = first_strict_point_by_columns(
            [(la.mat_vec(m, h.normal), h.offset) for h in p.halfspaces], 3)
        if want is not None:
            want = la.mat_vec(transpose(m), want)
            found += 1
        assert z == want, p
    assert turned >= 5 and found >= 3, (turned, found)


def test_strict_integer_matches_its_fraction_reference():
    # int pairs (as _scan passes them) and Fraction pairs (as the planar
    # facet search passes them) round by floor division to the integer the
    # Fraction bounds round to by ceil and floor
    rng = random.Random(5)
    for _ in range(3000):
        k = rng.randint(0, 5)
        dens = [rng.randint(-4, 4) for _ in range(k)]
        nums = [rng.randint(-30, 30) for _ in range(k)]
        want = fraction_strict_integer(
            [(F(a), F(b)) for a, b in zip(nums, dens)])
        assert lattice._strict_integer(zip(nums, dens)) == want
        q = [rng.randint(1, 6) for _ in range(k)]
        rational = [(F(a, c), F(b, rng.randint(1, 3)))
                    for a, b, c in zip(nums, dens, q)]
        assert lattice._strict_integer(rational) == fraction_strict_integer(
            rational)


def test_scan_matches_the_column_oracle_on_random_boxes():
    # a rational box cut by a few rational half-spaces that keep its
    # center inside, scanned in int rows and by the Fraction oracle
    rng = random.Random(29)
    found = 0
    for trial in range(80):
        n = 2 + trial % 2
        lo = [F(rng.randint(-12, 4), rng.choice((1, 2, 3))) for _ in range(n)]
        hi = [a + F(rng.randint(1, 16), rng.choice((1, 2))) for a in lo]
        rows = []
        for i in range(n):
            e = tuple(F(int(i == j)) for j in range(n))
            rows += [(e, hi[i]), (tuple(-x for x in e), -lo[i])]
        center = tuple((a + b) / 2 for a, b in zip(lo, hi))
        for _ in range(rng.randint(0, 3)):
            a = tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 4)))
                      for _ in range(n))
            if any(a):
                rows.append((a, la.dot(a, center) + F(rng.randint(1, 9), 4)))
        verts = brute_force_vertices(rows, n)
        vlo = [min(v[i] for v in verts) for i in range(n)]
        vhi = [max(v[i] for v in verts) for i in range(n)]
        axis = max(range(n), key=lambda i: vhi[i] - vlo[i])
        ranges = [range(math.ceil(vlo[i]), math.floor(vhi[i]) + 1)
                  for i in range(n)]
        got = lattice._scan([la.integer_copy((-b,) + a) for a, b in rows],
                            ranges, axis)
        want = first_strict_point_by_columns(rows, n)
        assert got == (None if want is None else tuple(map(int, want)))
        assert got is None or all(type(x) is int for x in got)
        found += got is not None
    assert 20 < found < 80


def test_planar_facet_witness_is_furthest_along_the_facet():
    # on a 2-d facet a . z = b the witness is the admissible integer point
    # furthest along (-a2, a1), checked against box enumeration
    rng = random.Random(3)
    several = 0
    for _ in range(30):
        pts = [(F(rng.randint(-12, 12), rng.choice((1, 2))),
                F(rng.randint(-12, 12), rng.choice((1, 2)))) for _ in range(5)]
        p = Polyhedron.from_generators(pts)
        if not p.fulldim:
            continue
        lo, hi = vertex_box(p)
        box = [la.vec(z) for z in itertools.product(
            *(range(math.ceil(a), math.floor(b) + 1) for a, b in zip(lo, hi)))]
        for j, h in enumerate(p.halfspaces):
            others = [g for i, g in enumerate(p.halfspaces) if i != j]
            admissible = [
                z for z in box if la.dot(h.normal, z) == h.offset
                and all(la.dot(g.normal, z) < g.offset for g in others)]
            d = (-h.normal[1], h.normal[0])
            want = max(admissible, key=lambda z: la.dot(d, z), default=None)
            assert facet_interior_lattice_point(p, j) == want
            several += len(admissible) > 1
    assert several > 10


def test_facet_witnesses_of_planar_splits():
    # no other row bounds a facet line of a split {b <= a . x <= b + 1}: the
    # other row is parallel to it, so the witness is the line's particular
    # solution itself.  The normals reach |a_i| = 15, which takes in those
    # whose Bezout vector from the column echelon differs from the extended
    # Euclid one, e.g. (-2, -1) against (1, 1) for a = (-2, 3)
    rng = random.Random(37)
    for a in itertools.product(range(-15, 16), repeat=2):
        if math.gcd(*a) != 1:
            continue
        p = split_along(a, rng.randint(-9, 9))
        cert = certify_lattice_free(p)
        assert cert.lattice_free and cert.maximal, a
        h, g = p.halfspaces
        for (line, other), z in zip(((h, g), (g, h)), cert.facet_witnesses):
            assert la.is_integer_vec(z), (a, z)
            assert la.dot(line.normal, z) == line.offset, (a, z)
            assert la.dot(other.normal, z) < other.offset, (a, z)


def test_grow_interval():
    p = Polyhedron.from_generators([(F(3, 10),), (F(3, 5),)])
    q = grow_to_maximal(p)
    assert sorted(q.vertices) == [(F(0),), (F(1),)]


def test_grow_sliver_to_slab():
    p = Polyhedron.from_generators(
        [(0, F(1, 4)), (1, F(1, 4)), (0, F(1, 2)), (1, F(1, 2))])
    q = grow_to_maximal(p)
    assert q.contains(p)
    assert q == Polyhedron.from_halfspaces([((0, 1), 1), ((0, -1), 0)], 2)


def test_grow_square_to_slab():
    q = grow_to_maximal(SQUARE01)
    assert q.contains(SQUARE01)
    cert = certify_lattice_free(q)
    assert cert.lattice_free and cert.maximal
    assert q.lineality != ()


def test_grow_keeps_maximal_fixed():
    assert grow_to_maximal(BIG_TRIANGLE) == BIG_TRIANGLE
    assert grow_to_maximal(SLAB) == SLAB


def test_grow_rejects_fat_bodies():
    box = Polyhedron.from_generators([(-1, -1), (2, -1), (-1, 2), (2, 2)])
    with pytest.raises(NotLatticeFreeInput):
        grow_to_maximal(box)


def test_grow_dimension_cap():
    cube = Polyhedron.from_halfspaces(
        [((1, 0, 0), 1), ((-1, 0, 0), 0), ((0, 1, 0), 1),
         ((0, -1, 0), 0), ((0, 0, 1), 1), ((0, 0, -1), 0)], 3)
    with pytest.raises(UnsupportedDimension):
        grow_to_maximal(cube)


def test_width_axis_aligned():
    r = lattice_width(SQUARE01)
    assert r.width == 1
    assert r.width == _support_width(SQUARE01, r.direction)
    r2 = lattice_width(DIAMOND)
    assert r2.width == 2
    r3 = lattice_width(BIG_TRIANGLE)
    assert r3.width == 2


def test_width_sliver():
    p = Polyhedron.from_generators(
        [(0, F(1, 4)), (1, F(1, 4)), (0, F(1, 2)), (1, F(1, 2))])
    r = lattice_width(p)
    assert r.width == F(1, 4)
    assert r.direction == (F(0), F(1))


def test_width_skewed_square():
    p = Polyhedron.from_generators([(0, 0), (1, 0), (5, 1), (6, 1)])
    r = lattice_width(p)
    assert r.width == 1
    assert abs(r.direction[1]) >= 1  # pure e1 direction has width 6


def test_width_slab_through_quotient():
    r = lattice_width(SLAB)
    assert r.width == 1
    assert r.direction == (F(1), F(0))


def test_width_of_a_half_strip():
    p = Polyhedron.from_generators([(0, F(1, 4)), (0, F(1, 2))],
                                   [(1, 0)], 2)
    r = lattice_width(p)
    assert r.width == F(1, 4)
    assert r.direction == (F(0), F(1))


def test_width_is_infinite_when_the_rays_span_the_space():
    bodies = [Polyhedron.from_generators([(0, 0)], [(1, 0), (0, 1)], 2),
              Polyhedron.from_generators([(F(1, 2),)], [(-1,)], 1),
              Polyhedron.from_halfspaces([((1, 2), 3)], 2),  # a half-plane
              Polyhedron.from_generators([(0, 0, 0), (1, 0, 0)],
                                         [(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)]
    for p in bodies:
        assert lattice_width(p) == lattice.WidthReport(None, None, None, None)


def _pointed_bodies(rng, count):
    """Seeded pointed 2-d and 3-d bodies with rays of rank 1 to n - 1, each
    under a random unimodular map."""
    bodies = []
    while len(bodies) < count:
        n = 2 + len(bodies) % 2
        r = 1 + rng.randrange(n - 1)
        pts = [tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n))
               for _ in range(rng.randint(2, n + 2))]
        rays = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(r)]
        if la.rank(rays) != r:
            continue
        p = Polyhedron.from_generators(pts, rays, n)
        if p.fulldim and not p.lineality:
            bodies.append(transform(p, scenarios.random_unimodular(rng, n)))
    return bodies


def test_width_of_pointed_bodies_matches_the_orthogonal_brute_force():
    # the width is the least spread over the directions orthogonal to the
    # rays; no direction of the oracle's box is thinner, and when the one
    # found lies in the box the two minima agree
    bodies = _pointed_bodies(random.Random(23), 60)
    assert {la.rank(p.rays) for p in bodies} == {1, 2}
    compared = 0
    for p in bodies:
        r = lattice_width(p)
        assert all(la.dot(r.direction, ray) == 0 for ray in p.rays)
        assert r.width == _support_width(p, r.direction)
        assert math.gcd(*(int(c) for c in r.direction)) == 1
        want = orthogonal_brute_width(p.vertices, p.rays)
        assert want is None or r.width <= want
        if max(abs(c) for c in r.direction) <= 6:
            assert r.width == want
            compared += 1
    assert compared >= 55, compared


def test_width_is_invariant_under_unimodular_maps():
    # x -> U x + s keeps the width, infinite ones included, and sends an
    # optimal direction u to U^-T u, which attains it on the image
    rng = random.Random(29)
    for path in sorted(FIXTURES.glob("*.json")):
        p = jsonio.parse_polyhedron(path.read_text())
        r = lattice_width(p)
        for _ in range(3):
            m = scenarios.random_unimodular(rng, p.dim)
            q = transform(p, m)
            rq = lattice_width(q)
            assert rq.width == r.width, path.stem
            if r.width is None:
                assert rq == r
                continue
            u = la.mat_vec(transpose(m.inverse_matrix), r.direction)
            assert all(la.dot(u, ray) == 0 for ray in q.rays)
            assert _support_width(q, u) == r.width, path.stem


def _report(r):
    return r.width, r.direction, r.segment_bound, r.search_bound


def test_width_matches_the_box_scan():
    # the difference-body scan returns the whole report of the box scan over
    # [-B, B]^n with one LP per axis: width, the first direction of least
    # width, segment_bound and search_bound
    rng = random.Random(17)
    bodies = []
    for path in sorted(FIXTURES.glob("*.json")):
        p = jsonio.parse_polyhedron(path.read_text())
        if p.lineality:
            p = _split_off_lineality(p)[0]  # the width is the quotient's
        if p.dim < 2 or p.rays or path.stem == "tower_3d":
            continue  # tower_3d: B = 338, the box scan does not end
        bodies += [p] + [transform(p, scenarios.random_unimodular(rng, p.dim))
                         for _ in range(3)]
    for trial in range(80):
        n = 2 + trial % 2
        if trial % 4 < 2:
            pts = [tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                         for _ in range(n)) for _ in range(n + 2)]
            p = Polyhedron.from_generators(pts)
        else:
            f = tuple(F(rng.randint(0, 3), rng.choice((2, 3))) for _ in range(n))
            p = scenarios.random_polytope_around(rng, f, spread=2)
        if p.fulldim:
            bodies.append(transform(p, scenarios.random_unimodular(rng, n)))
    assert len(bodies) > 100
    moved = 0
    for p in bodies:
        got = _report(lattice_width(p))
        assert got == box_scan_width(p)
        moved += la.vec(got[1]) not in {tuple(F(int(i == j)) for j in range(p.dim))
                                        for i in range(p.dim)}
    assert moved > 20  # many optima are not an axis


def _support_width(p, u):
    vals = [la.dot(u, v) for v in p.vertices]
    return max(vals) - min(vals)


# -- randomized cross-checks -------------------------------------------------

coord = st.integers(min_value=-6, max_value=6).map(lambda k: F(k, 2))
point2 = st.tuples(coord, coord)


@settings(max_examples=50, deadline=None)
@given(st.lists(point2, min_size=3, max_size=6))
def test_certify_matches_enumeration(pts):
    p = Polyhedron.from_generators(pts)
    if not p.fulldim:
        return
    strict = lattice_points_in(p, strict=True)
    cert = certify_lattice_free(p)
    assert cert.lattice_free == (not strict)
    _check_cert(p, cert)


@settings(max_examples=30, deadline=None)
@given(st.lists(point2, min_size=3, max_size=6))
def test_grow_output_is_maximal_superset(pts):
    p = Polyhedron.from_generators(pts)
    if not p.fulldim:
        return
    try:
        q = grow_to_maximal(p)
    except NotLatticeFreeInput:
        assert lattice_points_in(p, strict=True)
        return
    assert q.contains(p)
    cert = certify_lattice_free(q)
    assert cert.lattice_free and cert.maximal
    _check_cert(q, cert)


@settings(max_examples=30, deadline=None)
@given(st.lists(point2, min_size=3, max_size=6))
def test_width_is_certified_minimum(pts):
    p = Polyhedron.from_generators(pts)
    if not p.fulldim:
        return
    r = lattice_width(p)
    assert r.width == _support_width(p, r.direction)
    assert math.gcd(*(int(c) for c in r.direction)) == 1
    # spot-check the reported optimum against a fixed direction sample
    for u in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2)]:
        assert _support_width(p, la.vec(u)) >= r.width
