"""Constructive procedures: cube faces, cones, lifting, pipelines, witnesses.

Expected values for the exact checks were derived by hand from the defining
formulas (homothety images, slice interpolation, gauge evaluations) before
being frozen here; the randomized blocks re-verify the advertised
containments and factor bounds on every instance.
"""

import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from latcut import constructions
from latcut.constructions import (
    ApproxResult,
    FacetSubsetResult,
    TruncatedCone,
    _last_axis_range,
    _pencil,
    _zero_combination,
    approximate_any_f,
    approximate_fixed_f,
    caratheodory_facet_subset,
    cube_face_construction,
    cylinder_lift_witness,
    inapprox_pyramid,
    lift_to_nplus1,
    segment_meets,
    shrink_epsilon,
    simplex_tower,
    truncated_cone_shrink,
)
from latcut.errors import (
    DimensionMismatch,
    HypothesisViolated,
    MuTooSmall,
    NotLatticeFreeInput,
    NotPolytope,
    NotSeparable,
    OutOfRange,
    PointNotInterior,
    UnsupportedDimension,
)
from latcut.geometry import (
    HalfSpace,
    Polyhedron,
    embed_last_axis,
    homothety,
    level_slice,
    minkowski_scale_shift,
    transform,
)
from latcut import lattice
from latcut import linalg as la
from latcut.jsonio import parse_polyhedron
from latcut.lattice import certify_lattice_free, flatness_bound, point_denominator
from latcut.scenarios import (
    _lift_instances,
    random_polytope_around,
    random_unimodular,
    run_scenario,
)
from latcut.strength import relative_strength

from oracles import (
    fraction_segment_meets,
    fraction_transverse_coordinate,
    lp_solve,
    separate,
    separation_depth,
    support,
    witnessed_facet,
    zero_combination_feasible,
)

F12 = (F(1, 2), F(1, 2))
FIXTURES = Path(__file__).parent / "fixtures"


def tri(t):
    """Lattice-free triangles flattening onto the horizontal split."""
    return Polyhedron.from_generators([(F(-t), F(0)), (F(t + 1), F(0)),
                                       (F(1, 2), 1 + F(1, 2 * t))])


def seg01():
    return Polyhedron.from_generators([(F(0),), (F(1),)])


def assert_search_decisions(body, cert):
    """cert decides as the search route does (``certify_lattice_free`` with
    no witnesses), and each of its witnesses lies on its own facet, strictly
    inside every other row (``oracles.witnessed_facet``)."""
    search = certify_lattice_free(body)
    assert (cert.lattice_free, cert.maximal) == (search.lattice_free, search.maximal)
    assert len(cert.facet_witnesses) == len(body.halfspaces)
    for j, w in enumerate(cert.facet_witnesses):
        assert w is None or witnessed_facet(body.halfspaces, w) == j, (j, w)


def facet_witnesses(b):
    """One integer point per facet, tight there and strict elsewhere."""
    out = []
    span = range(-3, 5)
    for j, h in enumerate(b.halfspaces):
        found = None
        for z in itertools.product(span, repeat=b.dim):
            zv = tuple(F(x) for x in z)
            slacks = [g.eval_slack(zv) for g in b.halfspaces]
            if all(s >= 0 for s in slacks) and slacks[j] == 0 \
                    and sum(1 for s in slacks if s == 0) == 1:
                found = zv
                break
        assert found is not None, f"no witness for facet {j}"
        out.append(found)
    return out


# ---------------------------------------------------------------------------
# cube faces


def test_cube_face_census_all_counts_certified():
    # the certificate carries the cube vertices as witnesses: the search
    # route's decisions, with witnesses of the construction's own
    for n in (1, 2, 3):
        for i in range(2, 2 ** n + 1):
            made = cube_face_construction(n, i)
            assert len(made.body.halfspaces) == i
            assert made.cert.lattice_free and made.cert.maximal
            assert_search_decisions(made.body, made.cert)
            assert all(set(w) <= {0, 1} for w in made.cert.facet_witnesses)


def test_cube_face_two_facets_is_the_horizontal_split():
    b = cube_face_construction(2, 2).body
    assert b == Polyhedron.from_halfspaces(
        [HalfSpace.make((F(0), F(-1)), F(0)), HalfSpace.make((F(0), F(1)), F(1))], 2)


def test_cube_face_four_facets_is_the_diamond():
    b = cube_face_construction(2, 4).body
    diamond = Polyhedron.from_halfspaces(
        [HalfSpace.make((F(-1), F(-1)), F(0)),
         HalfSpace.make((F(1), F(1)), F(2)),
         HalfSpace.make((F(1), F(-1)), F(1)),
         HalfSpace.make((F(-1), F(1)), F(1))], 2)
    assert b == diamond


def test_cube_face_count_out_of_range():
    for n, i in ((2, 1), (2, 5), (3, 9), (1, 3)):
        with pytest.raises(OutOfRange):
            cube_face_construction(n, i)


# ---------------------------------------------------------------------------
# truncated cones


def make_wedge():
    # segment base on the x-axis, far base twice as long and two up
    base = Polyhedron.from_generators([(F(0), F(0)), (F(2), F(0))])
    return TruncatedCone.make(base, F(1), (F(0), F(2)))


def test_cone_slices_interpolate_between_bases():
    cone = make_wedge()
    assert cone.slice_at(0) == cone.base
    far = minkowski_scale_shift(cone.base, 2, (F(0), F(2)))
    assert cone.slice_at(1) == far
    mid = cone.slice_at(F(1, 2))
    assert cone.hull.contains(mid)
    assert mid.vertices == ((F(0), F(1)), (F(3), F(1)))


def test_cone_transverse_coordinate_reads_the_slice_level():
    cone = make_wedge()
    assert cone.transverse_coordinate((F(1), F(0))) == 0
    assert cone.transverse_coordinate((F(1), F(2))) == 1
    assert cone.transverse_coordinate((F(1), F(1, 2))) == F(1, 4)
    with pytest.raises(DimensionMismatch):
        cone.transverse_coordinate((F(1), F(1, 2), F(0)))


def test_transverse_coordinate_matches_the_gram_projection():
    # the int Gram-Schmidt against the Fraction projection off the base's
    # hull: cones of the truncated-cone-shrink scenario, flat bases with a
    # ray or a line, and points inside and outside each hull
    cones = []
    real = constructions.TruncatedCone.make

    def make(*args):
        cones.append(real(*args))
        return cones[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions.TruncatedCone, "make", staticmethod(make))
        for seed in (0, 7, 13):
            assert run_scenario("truncated-cone-shrink",
                                {"count": 10, "seed": seed}).passed
    cones.append(make_wedge())
    for verts, rays, alpha, shift in (
            ([(0, 0, 0), (2, 1, 0)], [(1, 0, 0)], F(1, 2), (0, 1, 3)),
            ([(1, 0, 0), (0, 1, 0)], [(0, 0, 1), (0, 0, -1)], F(2), (1, 1, 0)),
            ([(F(1, 2), F(1, 3))], [], F(3), (F(-1, 2), 2))):
        base = Polyhedron.from_generators(verts, rays)
        cones.append(TruncatedCone.make(base, alpha, shift))
    rng = random.Random(34)
    for cone in cones:
        n = cone.base.dim
        points = list(cone.hull.vertices)
        points += [tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
                   for _ in range(3)]
        for x in points:
            assert (cone.transverse_coordinate(x)
                    == fraction_transverse_coordinate(cone, x)), (cone, x)
    assert len(cones) >= 33


def test_cone_rejects_shift_inside_the_base_hull():
    base = Polyhedron.from_generators([(F(0), F(0)), (F(2), F(0))])
    with pytest.raises(OutOfRange):
        TruncatedCone.make(base, F(0), (F(1), F(0)))


def test_shrink_sandwich_exact_on_the_wedge():
    cone = make_wedge()
    f = (F(1), F(1))
    out = truncated_cone_shrink(cone, f)
    assert cone.hull.contains(out)
    assert out.contains(homothety(cone.hull, f, F(1, 4)))
    # base collapses to the single preimage point of f
    assert (F(2, 3), F(0)) in out.vertices


def test_shrink_at_far_base_keeps_the_quarter_body():
    cone = make_wedge()
    f = (F(2), F(2))  # on the far base, transverse coordinate 1
    out = truncated_cone_shrink(cone, f)
    assert out.contains(homothety(cone.hull, f, F(1, 4)))


def test_shrink_below_one_third_rejected():
    cone = make_wedge()
    with pytest.raises(MuTooSmall):
        truncated_cone_shrink(cone, (F(1), F(1, 2)))
    with pytest.raises(OutOfRange):
        truncated_cone_shrink(cone, (F(5), F(5)))


def test_shrink_bound_matters_just_below_one_third():
    # prism over [-1,1]: conv({x} u far base) loses the quarter body once
    # the transverse coordinate drops below 1/3
    base = Polyhedron.from_generators([(F(-1), F(0)), (F(1), F(0))])
    cone = TruncatedCone.make(base, F(0), (F(0), F(1)))
    mu = F(1, 3) - F(1, 24)
    f = (F(0), mu)
    with pytest.raises(MuTooSmall):
        truncated_cone_shrink(cone, f)
    x = (F(0), F(0))
    by_hand = Polyhedron.from_generators(
        [x, (F(-1), F(1)), (F(1), F(1))])
    assert not by_hand.contains(homothety(cone.hull, f, F(1, 4)))


def test_shrink_sandwich_on_randomized_cones():
    rng = random.Random(20240815)
    checked = 0
    while checked < 50:
        dim = rng.choice((2, 2, 3))
        if dim == 2:
            xs = sorted(rng.sample(range(-4, 6), 2))
            verts = [(F(xs[0]), F(0)), (F(xs[1]), F(0))]
            shift = (F(rng.randint(-2, 2)), F(rng.choice((-2, -1, 1, 2))))
        else:
            pts = [(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), F(0))
                   for _ in range(3)]
            if la.affine_rank(pts) != 2:
                continue
            verts = pts
            shift = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)),
                     F(rng.choice((-2, -1, 1, 2))))
        base = Polyhedron.from_generators(verts)
        alpha = rng.choice((F(0), F(1, 2), F(1), F(3)))
        cone = TruncatedCone.make(base, alpha, shift)
        mu = rng.choice((F(1, 3), F(2, 5), F(1, 2), F(3, 4), F(1)))
        weights = [F(rng.randint(0, 4)) for _ in verts]
        if sum(weights) == 0:
            weights[0] = F(1)
        tot = sum(weights)
        point = tuple(sum(w * v[k] for w, v in zip(weights, verts)) / tot
                      for k in range(dim))
        f = tuple((1 + mu * alpha) * x for x in point)
        f = tuple(a + mu * b for a, b in zip(f, shift))
        out = truncated_cone_shrink(cone, f)
        assert cone.hull.contains(out)
        assert out.contains(homothety(cone.hull, f, F(1, 4)))
        checked += 1


# ---------------------------------------------------------------------------
# Caratheodory facet subsets


def unique_convex_combination(normals, idx):
    """The unique affine weights of 0 on the selected normals."""
    rows = [[normals[j][c] for j in idx] for c in range(len(normals[0]))]
    rows.append([F(1)] * len(idx))
    rhs = tuple([F(0)] * len(normals[0]) + [F(1)])
    lam = la.solve(tuple(tuple(r) for r in rows), rhs)
    assert lam is not None
    return lam


def check_subset_result(m, res):
    normals = [h.normal for h in m.halfspaces]
    chosen = [normals[j] for j in res.indices]
    assert la.affine_rank(chosen) == len(chosen) - 1
    lam = unique_convex_combination(normals, res.indices)
    assert all(w > 0 for w in lam)
    assert res.simplex_dim + res.lineality_dim == m.dim
    assert len(res.indices) == res.simplex_dim + 1
    relaxed = Polyhedron.from_halfspaces(
        [m.halfspaces[j] for j in res.indices], m.dim)
    assert relaxed.recession_is_subspace()
    assert len(relaxed.lineality) == res.lineality_dim
    assert relaxed.contains(m)


def test_subset_of_the_split_takes_both_facets():
    res = caratheodory_facet_subset(cube_face_construction(2, 2).body)
    assert res == FacetSubsetResult((0, 1), 1, 1)


def test_subset_of_the_diamond_may_use_an_opposite_pair():
    m = cube_face_construction(2, 4).body
    res = caratheodory_facet_subset(m)
    check_subset_result(m, res)


def test_subset_of_a_simplex_keeps_all_normals():
    m = Polyhedron.from_generators([(F(0), F(0)), (F(2), F(0)), (F(0), F(2))])
    res = caratheodory_facet_subset(m)
    assert sorted(res.indices) == [0, 1, 2]
    assert res.simplex_dim == 2 and res.lineality_dim == 0
    check_subset_result(m, res)


def test_subset_rejects_normals_that_miss_the_origin():
    quadrant = Polyhedron.from_halfspaces(
        [HalfSpace.make((F(-1), F(0)), F(0)), HalfSpace.make((F(0), F(-1)), F(0))], 2)
    with pytest.raises(NotLatticeFreeInput):
        caratheodory_facet_subset(quadrant)


def test_subset_invariants_across_the_census():
    for n in (2, 3):
        for i in range(2, 2 ** n + 1):
            m = cube_face_construction(n, i).body
            check_subset_result(m, caratheodory_facet_subset(m))


@pytest.fixture(scope="module")
def lift_workload():
    """The arguments of every separation and Caratheodory step that the
    lifts of lifting-end-to-end and of approximation-factors at seeds 0, 7
    and 13 make."""
    pencils, zeros = [], []
    real_pencil, real_zero = constructions._pencil, constructions._zero_combination

    def pencil(*args):
        pencils.append(args)
        return real_pencil(*args)

    def zero(normals):
        zeros.append(normals)
        return real_zero(normals)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_pencil", pencil)
        mp.setattr(constructions, "_zero_combination", zero)
        assert run_scenario("lifting-end-to-end").passed
        for seed in (0, 7, 13):
            assert run_scenario("approximation-factors", {"seed": seed}).passed
    return pencils, zeros


def check_zero_combination(normals):
    """_zero_combination against the LP: None exactly when 0 is outside the
    hull, else positive weights summing to 1 on an affinely independent
    support that combine the normals to 0."""
    got = _zero_combination(normals)
    assert (got is None) == (not zero_combination_feasible(normals)), normals
    if got is not None:
        idx, lam = got
        pts = [la.vec(normals[j]) for j in idx]
        assert la.affine_rank(pts) == len(pts) - 1
        assert all(w > 0 for w in lam) and sum(lam) == 1
        assert all(sum(w * p[c] for w, p in zip(lam, pts)) == 0
                   for c in range(len(pts[0])))
    return got


def test_zero_combination_matches_the_lp(lift_workload):
    _, zeros = lift_workload
    rng = random.Random(31)
    cases = list(zeros)
    cases += [[h.normal for h in cube_face_construction(n, i).body.halfspaces]
              for n in (2, 3) for i in range(2, 2 ** n + 1)]
    for trial in range(80):
        n = 2 + trial % 2
        cases.append([tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n))
                      for _ in range(rng.randint(2, 6))])
    cases = [c for c in cases if not any(la.is_zero_vec(v) for v in c)]
    found = [check_zero_combination(c) is not None for c in cases]
    assert len(zeros) >= 10 and sum(found) >= 30 and found.count(False) >= 10, (
        len(zeros), found)


# ---------------------------------------------------------------------------
# lifting


def test_last_axis_range_matches_the_support_reference():
    # the points and directions against sup and inf read off the vertices
    # and rays, on the fixtures and their unimodular images
    rng = random.Random(13)
    bodies = [parse_polyhedron(path.read_text())
              for path in sorted(FIXTURES.glob("*.json"))]
    bodies += [transform(b, random_unimodular(rng, b.dim)) for b in bodies]
    for p in bodies:
        e = (0,) * (p.dim - 1) + (1,)
        lo, hi = support(p, la.vneg(la.vec(e)))[0], support(p, e)[0]
        assert _last_axis_range(p) == (None if lo is None else -lo, hi), p


def test_last_axis_range_matches_the_lp():
    # read off vertices and rays, the range must agree with both simplex
    # solves, also where an end is unbounded
    rng = random.Random(8)
    open_ends = 0
    for trial in range(60):
        n = 1 + trial % 3
        pts = [tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n))
               for _ in range(n + 1)]
        rays = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(trial % 3)]
        p = Polyhedron.from_generators(pts, [r for r in rays if any(r)], n)
        e = (0,) * (n - 1) + (1,)
        want = []
        for sense in ("min", "max"):
            res = lp_solve(e, p, sense=sense)
            want.append(res.value if res.status == "optimal" else None)
        assert _last_axis_range(p) == tuple(want)
        open_ends += want.count(None)
    assert open_ends > 10


def test_lift_slab_case_returns_the_integer_split():
    out = lift_to_nplus1(tri(1), F12, F(2, 3), seg01(), 1)
    assert out == Polyhedron.from_halfspaces(
        [HalfSpace.make((F(0), F(-1)), F(0)), HalfSpace.make((F(0), F(1)), F(1))], 2)


def test_lift_core_case_adds_one_facet():
    l = tri(1)
    f = (F(1, 2), F(1))
    gamma = F(2, 3)
    out = lift_to_nplus1(l, f, gamma, seg01(), 1)
    assert len(out.halfspaces) <= 3
    assert out.contains(homothety(l, f, gamma / 4))
    cert = certify_lattice_free(out)
    assert cert.lattice_free


def prism_over(d, f_height):
    """3-dim body whose level-1 slice is exactly d, narrowing downwards."""
    c0 = F12
    half = homothety(d, c0, F(1, 2))
    return Polyhedron.from_generators(
        [v + (F(1),) for v in d.vertices] + [v + (F(-1),) for v in half.vertices])


def test_lift_three_dimensional_with_triangle_base():
    d = tri(1)
    l = prism_over(d, None)
    f = (F(1, 2), F(1, 2), F(1, 8))
    out = lift_to_nplus1(l, f, F(1, 2), d, 0)
    assert len(out.halfspaces) <= 4
    assert out.contains(homothety(l, f, F(1, 8)))
    cert = certify_lattice_free(out)
    assert cert.lattice_free


def test_lift_hypothesis_violations_name_the_failed_clause():
    l, d = tri(1), seg01()
    with pytest.raises(HypothesisViolated) as e:
        lift_to_nplus1(l, F12, F(0), d, 1)
    assert e.value.which == "gamma-out-of-range"
    with pytest.raises(HypothesisViolated) as e:
        lift_to_nplus1(l, (F(0), F(0)), F(2, 3), d, 1)
    assert e.value.which == "f-not-interior"
    with pytest.raises(HypothesisViolated) as e:
        lift_to_nplus1(l, F12, F(2, 3),
                       Polyhedron.from_generators([(F(0),), (F(3),)]), 1)
    assert e.value.which == "base-not-lattice-free"
    with pytest.raises(HypothesisViolated) as e:
        lift_to_nplus1(l, F12, F(2, 3), d, 0)  # level-0 slice is [-1, 2]
    assert e.value.which == "slice-not-dominated"
    with pytest.raises(HypothesisViolated) as e:
        lift_to_nplus1(l, F12, F(1), d, 1)  # full triangle is 3/2 wide
    assert e.value.which == "width-exceeds-one"
    with pytest.raises(HypothesisViolated) as e:
        lift_to_nplus1(l, F12, F(1, 6), d, 1)  # shrunken body stays below
    assert e.value.which == "slice-misses-body"


def test_lift_postconditions_on_varied_instances():
    cases = []
    for t in (1, 2, 3):
        cases.append((tri(t), (F(1, 2), F(1)), F(1, 2), seg01(), 1))
        cases.append((tri(t), (F(1, 2), F(1)), F(1, 3), seg01(), 1))
        cases.append((tri(t), (F(1, 2), F(7, 8)), F(1, 2), seg01(), 1))
    d = tri(1)
    l3 = prism_over(d, None)
    for height in (F(0), F(1, 8), F(1, 4), F(1, 2)):
        cases.append((l3, (F(1, 2), F(1, 2), height), F(1, 2), d, 0))
    for l, f, gamma, d_, t_ in cases:
        out = lift_to_nplus1(l, f, gamma, d_, t_)
        assert len(out.halfspaces) <= len(d_.halfspaces) + 1
        assert out.contains(homothety(l, f, gamma / 4))


def beyond_facet(z, n):
    """Closure of the part of level 0 beyond the base facet with int row z
    = (-beta, a): {a . x' >= beta, x_n = 0} in dimension n."""
    a, e = tuple(F(x) for x in z[1:]), (F(0),) * (n - 1) + (F(1),)
    return Polyhedron.from_halfspaces(
        [HalfSpace.make(la.vneg(a) + (0,), z[0]),
         HalfSpace.make(e, 0), HalfSpace.make(la.vneg(e), 0)], n)


def check_pencil(lp0, f0, z):
    """The closed-form separator against the simplex on the region beyond
    the facet: both raise NotSeparable or neither does; it holds every
    point, ray and line of lp0, keeps the region outside its interior, and
    its depth at f0 in the unit box is the LP optimum."""
    beyond = beyond_facet(z, lp0.dim)
    try:
        row = _pencil(lp0, f0, z)  # the int row (z0, a), read a . x <= -z0
        h = HalfSpace.make(row[1:], -row[0])
    except NotSeparable:
        with pytest.raises(NotSeparable):
            separate(lp0, beyond, f0)
        return None
    assert all(h.eval_slack(v) >= 0 for v in lp0.vertices)
    assert all(la.dot(h.normal, r) <= 0 for r in lp0.rays)
    assert all(la.dot(h.normal, l) == 0 for l in lp0.lineality)
    assert all(h.eval_slack(v) <= 0 for v in beyond.vertices)
    assert all(la.dot(h.normal, r) >= 0 for r in beyond.rays)
    k = max(map(abs, h.normal[:-1])) / max(map(abs, z[1:]))  # in the pencil
    assert h.normal[:-1] == tuple(k * x for x in z[1:]) and h.offset == -k * z[0]
    depth = h.eval_slack(f0) / max(abs(x) for x in h.normal)
    assert depth == separation_depth(lp0, beyond, f0)
    return h


def test_pencil_matches_the_lp_on_the_lift_workload(lift_workload):
    pencils, _ = lift_workload
    same = 0
    for lp0, f0, z in pencils:
        h = check_pencil(lp0, f0, z)
        same += h == separate(lp0, beyond_facet(z, lp0.dim), f0)
    # the rest are LP ties: the simplex takes another optimal t
    assert len(pencils) >= 50 and same >= len(pencils) * 9 // 10, (len(pencils), same)


def test_pencil_raises_exactly_where_the_lp_does():
    def body(points, rays=()):
        return Polyhedron.from_generators(points, rays)

    half = F(1, 2)
    cases = [
        # a vertex on level 0 beyond the facet x <= 1
        (body([(0, -1), (0, 1), (2, 0)]), (half, 0), (-1, 1), None),
        # the generators above and below bound t from both sides, apart
        (body([(2, 1), (2, -1), (0, 1), (0, -1)]), (half, 0), (-1, 1), None),
        # f0 on level 0: every t in [-1, 1] is as deep, and t = 0 wins
        (body([(-1, -1), (-1, 1), (half, -1), (half, 1)]), (0, 0), (-1, 1), 0),
        # f0 above level 0: t in [-1/2, 1/2], and the lower end is deepest
        (body([(0, -1), (0, 1), (half, -1), (half, 1)]), (F(1, 4), F(1, 4)), (-1, 1),
         -half),
        # a ray and a line along the facet, in 3-d
        (body([(0, 0, -half), (0, 0, half), (half, 0, half)], [(0, 1, 0), (0, -1, 0),
                                                             (-1, 0, 0)]),
         (0, 0, 0), (-1, 1, 0), 0),
        # a line that leaves level 0 pins t
        (body([(0, 0, -half), (0, 0, half), (half, 0, 0)],
              [(1, 0, 1), (-1, 0, -1), (0, 1, 0), (0, -1, 0)]),
         (F(1, 8), 0, 0), (-2, 1, 0), -1),
        # a ray on level 0 that crosses the facet
        (body([(0, 0, -half), (0, 0, half)], [(1, 0, 0), (1, 0, 1), (0, 1, 0), (0, -1, 0)]),
         (half, 0, 0), (-2, 1, 0), None),
    ]
    for p, f0, z, want in cases:
        h = check_pencil(p, tuple(F(x) for x in f0), z)
        assert (h is None) == (want is None), (p, z)
        if h is not None:
            g = la.primitive(tuple(F(x) for x in z[1:]) + (F(want),))
            assert h.normal == g, (h, want)


def test_yes_no_checks_run_no_facet_search(monkeypatch):
    # lattice-freeness of inputs and outputs is a yes/no question: it needs
    # interior_lattice_point only, never a certificate with facet witnesses
    real = lattice.facet_interior_lattice_point
    calls = []

    def counting(p, j):
        calls.append(j)
        return real(p, j)

    instances = _lift_instances()
    capped = [(approximate_any_f, cube_face_construction(n, i).body)
              for n, i in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (3, 5))]
    capped += [(approximate_fixed_f, cube_face_construction(n, i).body)
               for n, i in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4))]
    monkeypatch.setattr(lattice, "facet_interior_lattice_point", counting)
    for l, f, gamma, d, t in instances:
        lift_to_nplus1(l, f, gamma, d, t)
    for pipeline, l in capped:
        res = pipeline(l, (F(1, 2),) * l.dim)
        assert res.body == l and res.factor == 1
    assert calls == []


# ---------------------------------------------------------------------------
# approximation pipelines


def test_any_f_short_circuits_bodies_with_few_facets():
    split = cube_face_construction(2, 2).body
    res = approximate_any_f(split, F12)
    assert res.body == split and res.factor == 1


def test_any_f_on_the_diamond():
    diam = cube_face_construction(2, 4).body
    res = approximate_any_f(diam, F12)
    assert len(res.body.halfspaces) <= 3
    assert res.factor == 2
    assert res.factor <= 4 * flatness_bound(2)
    rep = relative_strength(res.body, diam, F12)
    assert rep.kind == "finite" and rep.value == res.factor
    assert res.body.contains(homothety(diam, F12, 1 / res.factor))


def test_any_f_takes_the_lifting_path_near_a_level():
    diam = cube_face_construction(2, 4).body
    f = (F(1, 2), F(1))
    res = approximate_any_f(diam, f)
    assert res.factor <= 4 * flatness_bound(2)
    assert certify_lattice_free(res.body).lattice_free


def test_fixed_f_split_branch_factor_bound_scales_with_denominator():
    diam = cube_face_construction(2, 4).body
    for f in (F12, (F(1, 3), F(2, 3)), (F(2, 5), F(1, 5))):
        res = approximate_fixed_f(diam, f)
        s = point_denominator(f)
        assert len(res.body.halfspaces) <= 3
        assert res.factor <= flatness_bound(2) * 4 * s


def test_fixed_f_integer_level_branch_recurses():
    diam = cube_face_construction(2, 4).body
    res = approximate_fixed_f(diam, (F(1), F(1, 2)))
    assert res.factor == F(7, 2)
    assert len(res.body.halfspaces) == 3
    assert res.body.contains(homothety(diam, (F(1), F(1, 2)), 1 / res.factor))


def test_pipelines_on_three_dimensional_bodies():
    fs = ((F(1, 2), F(1, 2), F(1, 2)), (F(1, 3), F(1, 2), F(3, 4)),
          (F(1), F(1, 2), F(1, 2)))
    for i in (5, 6, 8):
        l = cube_face_construction(3, i).body
        for f in fs:
            if not l.contains_point(f, strict=True):
                continue
            res = approximate_any_f(l, f)
            assert len(res.body.halfspaces) <= 5
            assert res.factor <= 4 * flatness_bound(3)
            res2 = approximate_fixed_f(l, f)
            assert len(res2.body.halfspaces) <= 4
            assert res2.factor <= flatness_bound(3) * 16 * point_denominator(f)


def test_pipeline_rejects_bad_inputs():
    diam = cube_face_construction(2, 4).body
    with pytest.raises(PointNotInterior):
        approximate_any_f(diam, (F(0), F(0)))
    box = Polyhedron.from_generators(
        [(F(0), F(0)), (F(3), F(0)), (F(0), F(3)), (F(3), F(3))])
    with pytest.raises(NotLatticeFreeInput):
        approximate_fixed_f(box, (F(3, 2), F(3, 2)))
    four = cylinder_lift_witness(cube_face_construction(3, 8).body,
                                 (F(1, 2), F(1, 2), F(1, 2)), 4)
    with pytest.raises(UnsupportedDimension):
        approximate_any_f(four, (F(1, 2), F(1, 2), F(1, 2), F(0)))


def test_pipeline_outputs_are_certified_on_a_mixed_family():
    bodies = [cube_face_construction(2, 3).body,
              cube_face_construction(2, 4).body, tri(1), tri(2),
              simplex_tower(F12, F(2)).body]
    fs = (F12, (F(1, 3), F(1, 2)), (F(1, 2), F(3, 4)), (F(1), F(1, 2)))
    for l in bodies:
        for f in fs:
            if not l.contains_point(f, strict=True):
                continue
            for res in (approximate_any_f(l, f), approximate_fixed_f(l, f)):
                cert = certify_lattice_free(res.body)
                assert cert.lattice_free
                assert res.body.contains(homothety(l, f, 1 / res.factor))


def test_lattice_free_bodies_are_flat():
    # every lattice-free fixture (tower_3d and the lineality ones included),
    # two pointed half-strips, and every pipeline and tower output is at most
    # flatness_bound(n) thin in some integer direction, the bound the
    # approximation factors use
    bodies = []
    for path in sorted(FIXTURES.glob("*.json")):
        p = parse_polyhedron(path.read_text())
        if certify_lattice_free(p).lattice_free:
            bodies.append(p)
    assert len(bodies) == 14
    bodies += [Polyhedron.from_generators([(0, F(1, 4)), (0, F(1, 2))], [(1, 0)], 2),
               Polyhedron.from_halfspaces(
                   [((0, -1), F(-1, 8)), ((0, 1), F(7, 8)), ((-1, 0), 0),
                    ((-1, -4), -1), ((-1, 4), 3)], 2)]
    assert all(p.rays and certify_lattice_free(p).lattice_free for p in bodies[-2:])
    towers = [simplex_tower((F(1, 2),), F(2)), simplex_tower(F12, F(2)),
              simplex_tower(F12, F(3)), simplex_tower((F(1, 2), F(1, 3)), F(3)),
              simplex_tower((F(1, 2), F(1, 3), F(1, 5)), F(5, 2))]
    bodies += [tw.body for tw in towers]
    targets = [cube_face_construction(2, i).body for i in (2, 3, 4)]
    targets += [cube_face_construction(3, i).body for i in (2, 5, 6, 8)]
    targets += [tri(1), tri(2), towers[1].body]
    fs = (F12, (F(1, 3), F(1, 2)), (F(1, 2), F(3, 4)), (F(1), F(1, 2)),
          (F(1, 2), F(1, 2), F(1, 2)), (F(1, 3), F(1, 2), F(3, 4)),
          (F(1), F(1, 2), F(1, 2)))
    for l in targets:
        for f in fs:
            if len(f) == l.dim and l.contains_point(f, strict=True):
                bodies += [approximate_any_f(l, f).body,
                           approximate_fixed_f(l, f).body]
    assert len(bodies) > 50
    for p in bodies:
        assert lattice.lattice_width(p).width <= flatness_bound(p.dim)


# ---------------------------------------------------------------------------
# shrink factors and pyramids


def test_shrink_epsilon_of_the_diamond():
    diam = cube_face_construction(2, 4).body
    zs = facet_witnesses(diam)
    eps = shrink_epsilon(diam, F12, zs)
    assert eps == F(1, 4)  # worst midpoint gauge is 1/2
    shrunk = homothety(diam, F12, 1 - eps)
    for zi, zj in itertools.combinations(zs, 2):
        mid = tuple((a + b) / 2 for a, b in zip(zi, zj))
        assert shrunk.contains_point(mid)


def test_shrink_epsilon_symmetric_segment():
    eps = shrink_epsilon(seg01(), (F(1, 2),), [(F(0),), (F(1),)])
    assert eps == F(1, 2)  # the single midpoint is the center itself


def test_shrink_epsilon_validates_witnesses():
    diam = cube_face_construction(2, 4).body
    zs = facet_witnesses(diam)
    with pytest.raises(OutOfRange):
        shrink_epsilon(diam, F12, zs[:3])
    bad = list(zs)
    bad[0] = (F(1, 2), F(0))
    with pytest.raises(OutOfRange):
        shrink_epsilon(diam, F12, bad)
    bad = list(zs)
    bad[0] = (F(5), F(5))
    with pytest.raises(OutOfRange):
        shrink_epsilon(diam, F12, bad)
    with pytest.raises(NotPolytope):
        shrink_epsilon(cube_face_construction(2, 2).body, F12,
                       [(F(0), F(0)), (F(0), F(1))])
    with pytest.raises(PointNotInterior):
        shrink_epsilon(diam, (F(2), F(2)), zs)


def test_pyramid_over_the_unit_segment():
    l = seg01()
    zs = [(F(0),), (F(1),)]
    eps = shrink_epsilon(l, (F(1, 2),), zs)
    pw = inapprox_pyramid(l, (F(1, 2),), zs, eps, F(1, 2))
    assert pw.f == (F(1, 2), F(1, 4))
    assert len(pw.body.halfspaces) == 3
    assert pw.body.vertices == (
        (F(-8, 5), F(-1)), (F(1, 2), F(5, 16)), (F(13, 5), F(-1)))
    # level-zero slice recovers the base body exactly
    assert level_slice(pw.body, 0) == l
    assert pw.cert.lattice_free and pw.cert.maximal
    assert pw.cert == certify_lattice_free(pw.body)


def test_pyramid_over_the_diamond_adds_one_facet():
    diam = cube_face_construction(2, 4).body
    zs = facet_witnesses(diam)
    eps = shrink_epsilon(diam, F12, zs)
    pw = inapprox_pyramid(diam, F12, zs, eps, F(1, 2))
    assert len(pw.body.halfspaces) == 5
    assert pw.f == (F(1, 2), F(1, 2), F(1, 8))
    assert level_slice(pw.body, 0) == diam
    assert pw.body.contains_point(pw.f, strict=True)


def test_pyramid_interior_cover_forces_the_facet_count():
    # bodies that hold the inner pyramid strictly need one facet more than
    # the base; two-facet splits never manage it
    l = seg01()
    zs = [(F(0),), (F(1),)]
    eps = shrink_epsilon(l, (F(1, 2),), zs)
    mu = F(1, 2)
    pw = inapprox_pyramid(l, (F(1, 2),), zs, eps, mu)
    em = eps * mu
    apex = (F(1, 2), em)
    base = homothety(l, (F(1, 2),), 1 / em)
    p = Polyhedron.from_generators([apex] + [v + (F(-1),) for v in base.vertices])
    inner = homothety(p, apex, em)
    assert pw.body.contains_in_interior(inner)
    assert len(pw.body.halfspaces) == 3
    splits = [
        Polyhedron.from_halfspaces([HalfSpace.make((F(0), F(-1)), F(0)),
                                    HalfSpace.make((F(0), F(1)), F(1))], 2),
        Polyhedron.from_halfspaces([HalfSpace.make((F(0), F(-1)), F(1)),
                                    HalfSpace.make((F(0), F(1)), F(0))], 2),
        Polyhedron.from_halfspaces([HalfSpace.make((F(-1), F(0)), F(0)),
                                    HalfSpace.make((F(1), F(0)), F(1))], 2),
        Polyhedron.from_halfspaces([HalfSpace.make((F(-1), F(-4)), F(1)),
                                    HalfSpace.make((F(1), F(4)), F(0))], 2),
    ]
    for s in splits:
        assert not s.contains_in_interior(inner)


def test_pyramid_rejects_out_of_range_parameters():
    l = seg01()
    zs = [(F(0),), (F(1),)]
    with pytest.raises(OutOfRange):
        inapprox_pyramid(l, (F(1, 2),), zs, F(1), F(1, 2))
    diam = cube_face_construction(2, 4).body
    with pytest.raises(OutOfRange):
        # worst witness midpoint sits at gauge 1/2, so eps must stay <= 1/2
        inapprox_pyramid(diam, F12, facet_witnesses(diam), F(3, 4), F(1, 2))
    with pytest.raises(NotPolytope):
        inapprox_pyramid(cube_face_construction(2, 2).body, F12,
                         [(F(0), F(0)), (F(0), F(1))], F(1, 4), F(1, 2))


# ---------------------------------------------------------------------------
# simplex towers and cylinders


def test_tower_base_case_is_the_unit_interval():
    tw = simplex_tower((F(1, 2),), F(2))
    assert tw.body == seg01()
    assert tw.witnesses == ((F(0),), (F(1),))


def test_tower_in_the_plane():
    tw = simplex_tower(F12, F(2))
    assert tw.body.vertices == ((F(-1, 2), F(-3, 2)), (F(1, 2), F(3, 2)),
                                (F(3, 2), F(1, 2)))
    assert tw.witnesses == ((F(0), F(0)), (F(1), F(1)), (F(0), F(-1)))
    assert tw.body.contains_point(F12, strict=True)
    assert tw.cert.lattice_free and tw.cert.maximal
    assert_search_decisions(tw.body, tw.cert)
    assert tw.cert.facet_witnesses == ((F(0), F(0)), (F(0), F(-1)), (F(1), F(1)))
    shrunk = homothety(tw.body, F12, F(1, 2))
    for zi, zj in itertools.combinations(tw.witnesses, 2):
        assert segment_meets(shrunk, zi, zj)
    # the ratio is sharp: a slightly smaller copy loses a witness segment
    tighter = homothety(tw.body, F12, F(2, 5))
    assert not segment_meets(tighter, (F(0), F(0)), (F(0), F(-1)))


def test_tower_three_dimensional_with_fractional_ratio():
    f = (F(1, 2), F(1, 3), F(1, 5))
    tw = simplex_tower(f, F(5, 2))
    assert len(tw.body.halfspaces) == 4
    assert len(tw.witnesses) == 4
    shrunk = homothety(tw.body, f, F(2, 5))
    for zi, zj in itertools.combinations(tw.witnesses, 2):
        assert segment_meets(shrunk, zi, zj)


def segment_cases(rng, p):
    """Seeded segments for p: vertices and points on facets as ends, a ==
    b, segments parallel to a facet through points on and off it, and
    random rational ends."""
    n = p.dim
    rand = lambda: tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 3))) for _ in range(n))
    verts = list(p.vertices)
    on_facet = [la.vscale(F(1, 2), la.vadd(u, v))
                for u, v in itertools.combinations(verts, 2)]
    ends = verts + on_facet + [rand() for _ in range(4)]
    cases = [(rng.choice(ends), rng.choice(ends)) for _ in range(8)]
    cases += [(a, a) for a in rng.sample(ends, 3)]
    for h in p.halfspaces:
        for along in la.kernel_basis([h.normal], n)[:1]:
            a = rng.choice(ends)
            t = F(rng.randint(-4, 4), rng.choice((1, 2)))
            cases.append((a, la.vadd(a, la.vscale(t, along))))
    return cases


def test_segment_meets_matches_the_fraction_clipping():
    # int clipping against the Fraction clipping it replaced: the fixtures,
    # random polytopes, their unimodular images, and flat bodies (with and
    # without a line); both answers and every kind of segment occur
    rng = random.Random(34)
    bodies = [parse_polyhedron(path.read_text())
              for path in sorted(FIXTURES.glob("*.json"))]
    for f in ((F(1, 2), F(1, 3)), (F(1, 2), F(1, 3), F(1, 5))):
        bodies += [random_polytope_around(rng, f) for _ in range(4)]
    bodies += [Polyhedron.from_generators(v, r) for v, r in (
        ([(0, 1), (3, 1)], []),
        ([(0, 1, 2), (3, 1, 1)], []),
        ([(0, 0, F(1, 2)), (2, 1, F(1, 2)), (1, 3, F(1, 2))], []),
        ([(F(1, 2), 0, 1)], [(1, 1, 0), (-1, -1, 0)]))]
    bodies += [transform(b, random_unimodular(rng, b.dim)) for b in bodies]
    kinds = {"bounded": 0, "unbounded": 0, "flat": 0}
    answers = []
    for p in bodies:
        kind = "bounded" if p.is_bounded() else "unbounded"
        kinds[kind if p.fulldim else "flat"] += 1
        for a, b in segment_cases(rng, p):
            got = segment_meets(p, a, b)
            assert got == fraction_segment_meets(p, a, b), (p, a, b)
            answers.append(got)
    assert min(kinds.values()) >= 8, kinds
    assert answers.count(True) >= 200 and answers.count(False) >= 200, (
        answers.count(True), answers.count(False))


def test_segment_and_witness_dimensions_are_checked():
    tri = Polyhedron.from_generators([(0, 0), (2, 0), (0, 2)])
    for a, b in (((0, 0), (1, 1, 1)), ((0, 0, 0), (1, 1, 1)), ((0,), (1, 1))):
        with pytest.raises(DimensionMismatch):
            segment_meets(tri, a, b)
    diam = cube_face_construction(2, 4).body
    with pytest.raises(DimensionMismatch):
        shrink_epsilon(diam, F12, [(0, 0), (1, 1), (1, 0), (0, 1, 0)])


INAPPROX_FS = (F12, (F(1, 3), F(2, 3)), (F(1, 2), F(1, 3), F(1, 5)))


@pytest.mark.parametrize("alpha", [F(2), F(5, 2), F(3), F(10)])
@pytest.mark.parametrize("f", INAPPROX_FS)
def test_tower_certificate_matches_the_search_route(f, alpha):
    # the tower hands its own witnesses to the certificate, which lists
    # exactly those and decides as the facet search does
    tw = simplex_tower(f, alpha)
    assert_search_decisions(tw.body, tw.cert)
    assert tw.cert.maximal
    assert sorted(tw.cert.facet_witnesses) == sorted(tw.witnesses)


def test_pyramid_certificates_match_the_search_route():
    # the bases of the inapprox-witnesses pyramid identities: each side
    # facet is witnessed by a base witness on level 0, and the search finds
    # the witness of the pyramid's base
    cases = [(seg01(), (F(1, 2),), [(F(0),), (F(1),)]),
             (cube_face_construction(2, 4).body, F12,
              [(F(0), F(0)), (F(1), F(1)), (F(1), F(0)), (F(0), F(1))])]
    for l, c, zs in cases:
        pw = inapprox_pyramid(l, c, zs, shrink_epsilon(l, c, zs), F(1, 2))
        assert_search_decisions(pw.body, pw.cert)
        assert pw.cert.maximal
        assert {z + (F(0),) for z in zs} < set(pw.cert.facet_witnesses)


def test_tower_witnesses_defeat_sampled_covering_bodies():
    # a lattice-free body with fewer facets than the tower cannot separate
    # every witness pair, so its approximation ratio is at least alpha
    alpha = F(2)
    tw = simplex_tower(F12, alpha)
    slanted = Polyhedron.from_halfspaces(
        [HalfSpace.make((F(-1), F(-1)), F(0)), HalfSpace.make((F(1), F(1)), F(2))], 2)
    few_facets = [
        cube_face_construction(2, 2).body,
        cylinder_lift_witness(seg01(), (F(1, 2),), 2),
        slanted,
    ]
    for b in few_facets:
        rep = relative_strength(b, tw.body, F12)
        assert rep.kind == "infinite" or rep.value >= alpha
    # richer bodies may do better; the tower itself covers itself exactly
    assert relative_strength(tw.body, tw.body, F12).value == 1
    full = relative_strength(cube_face_construction(2, 4).body, tw.body, F12)
    assert full.kind == "finite" and full.value >= alpha


def test_tower_rejects_bad_parameters():
    with pytest.raises(OutOfRange):
        simplex_tower((F(1), F(2)), F(2))
    with pytest.raises(OutOfRange):
        simplex_tower(F12, F(1))
    with pytest.raises(UnsupportedDimension):
        simplex_tower((F(1, 2),) * 4, F(2))


def test_cylinder_over_a_segment_is_a_split():
    out = cylinder_lift_witness(seg01(), (F(1, 2),), 2)
    assert out == Polyhedron.from_halfspaces(
        [HalfSpace.make((F(-1), F(0)), F(0)), HalfSpace.make((F(1), F(0)), F(1))], 2)


def test_cylinder_keeps_facets_and_holds_the_fibre():
    diam = cube_face_construction(2, 4).body
    out = cylinder_lift_witness(diam, F12, 3)
    assert len(out.halfspaces) == 4
    assert out.lineality == ((F(0), F(0), F(1)),)
    fibre = Polyhedron.from_generators(
        [(F(1, 2), F(1, 2), F(0))],
        [(F(0), F(0), F(1)), (F(0), F(0), F(-1))], 3)
    for mu in (F(1, 10), F(1, 2), F(9, 10)):
        assert homothety(out, (F(1, 2), F(1, 2), F(0)), mu).contains(fibre)
    with pytest.raises(OutOfRange):
        cylinder_lift_witness(diam, F12, 2)
