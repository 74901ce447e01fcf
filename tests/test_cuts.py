"""Gauges, intersection cuts, closures, dominance, and the polar metric."""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latcut import linalg as la
from latcut.cuts import (
    ClosureSystem,
    CutSystem,
    closure,
    cut_dominates,
    f_metric,
    gauge,
    intersection_cut,
)
from latcut.errors import DimensionMismatch, PointNotInterior
from latcut.geometry import Polyhedron, homothety
from latcut.jsonio import parse_polyhedron

from oracles import fraction_dot, gauge_value, norm_sq
from simplex import solve_ineq

F12 = (F(1, 2), F(1, 2))
SQ01 = Polyhedron.from_generators([(0, 0), (1, 0), (0, 1), (1, 1)])
SPLIT_V = Polyhedron.from_halfspaces([((1, 0), 1), ((-1, 0), 0)], 2)
SPLIT_H = Polyhedron.from_halfspaces([((0, 1), 1), ((0, -1), 0)], 2)
BIG_DIAMOND = Polyhedron.from_generators([(2, 0), (-2, 0), (0, 2), (0, -2)])
FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))


def tri(t):
    """Lattice-free triangles flattening onto the horizontal split."""
    return Polyhedron.from_generators(
        [(-t, 0), (t + 1, 0), (F(1, 2), 1 + F(1, 2 * t))])


def test_gauge_square():
    assert gauge(SQ01, F12, (1, 0)) == 2
    assert gauge(SQ01, F12, (0, -1)) == 2
    assert gauge(SQ01, F12, (1, 1)) == 2


def test_gauge_split_lineality_direction():
    assert gauge(SPLIT_V, F12, (0, 1)) == 0
    assert gauge(SPLIT_V, F12, (1, 0)) == 2


def test_gauge_diamond_against_oracle():
    # oracle: scan the shifted facet pairs directly
    shifted = [(h.normal, h.offset - fraction_dot(h.normal, F12))
               for h in BIG_DIAMOND.halfspaces]
    assert gauge_value(shifted, (1, 1)) == 2  # frozen: boundary hit at (1,1)
    assert gauge(BIG_DIAMOND, F12, (1, 1)) == 2


def test_gauge_matches_oracle_on_fixtures():
    # every full-dimensional fixture, bounded, pointed or with lineality;
    # f is a positive combination of all vertices and rays, so interior
    rng = random.Random(20)
    bodies = [b for b in (parse_polyhedron(p.read_text()) for p in FIXTURES)
              if b.fulldim]
    assert len(bodies) >= 15
    for b in bodies:
        for _ in range(6):
            w = [F(rng.randint(1, 9)) for _ in b.vertices]
            f = tuple(sum(x * v[i] for x, v in zip(w, b.vertices)) / sum(w)
                      for i in range(b.dim))
            for ray in b.rays:
                lam = F(rng.randint(1, 9), rng.randint(1, 4))
                f = la.vadd(f, la.vscale(lam, ray))
            shifted = [(h.normal, h.offset - fraction_dot(h.normal, f))
                       for h in b.halfspaces]
            for _ in range(6):
                r = tuple(F(rng.randint(-20, 20), rng.randint(1, 7))
                          for _ in range(b.dim))
                assert gauge(b, f, r) == gauge_value(shifted, r)
        with pytest.raises(PointNotInterior):
            gauge(b, b.vertices[0], (1,) * b.dim)


def test_gauge_requires_interior():
    with pytest.raises(PointNotInterior):
        gauge(SQ01, (0, 0), (1, 1))
    with pytest.raises(PointNotInterior):
        gauge(SQ01, (7, 7), (1, 1))
    with pytest.raises(DimensionMismatch):
        gauge(SQ01, (F(1, 2),) * 3, (1, 1))


def test_cut_split_coefficients():
    cut = intersection_cut(SPLIT_V, [(1, 0), (-1, 0), (0, 1)], F12)
    assert cut.coeffs == (F(2), F(2), F(0))
    assert not cut.trivial


def test_cut_degenerates_outside():
    cut = intersection_cut(SQ01, [(1, 0)], (5, 5))
    assert cut.trivial
    assert cut.accepts((0,)) and cut.accepts((100,))
    assert not cut.accepts((-1,))


def test_cut_membership_boundary():
    cut = intersection_cut(SQ01, [(1, 1)], F12)
    assert cut.coeffs == (F(2),)
    assert cut.accepts((F(1, 2),))      # exactly on the boundary
    assert not cut.accepts((F(1, 3),))
    assert cut.accepts((1,))


def test_closure_conjunction_and_empty_family():
    sys = closure([SPLIT_V], [(0, 1)], F12)
    for s in [(0,), (1,), (10,)]:
        assert not sys.accepts(s)   # zero coefficient: unsatisfiable
    empty = closure([], [(0, 1)], F12)
    assert empty.accepts((0,)) and empty.accepts((99,))
    both = closure([SPLIT_V, SQ01], [(1, 0), (0, 1)], F12)
    assert both.accepts((F(1, 2), F(1, 2)))
    assert not both.accepts((F(1, 4), F(1, 2)))  # split cut bites


def test_cut_validity_on_integer_points():
    """Any integer point outside the body's interior satisfies every cut.

    Checked by exact LP: the minimum cut activity over all nonnegative
    column combinations reaching the point is at least one.
    """
    cols = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for body in (SQ01, SPLIT_V, BIG_DIAMOND, tri(1)):
        cut = intersection_cut(body, cols, F12)
        assert not cut.trivial
        for z in [(0, 0), (1, 0), (2, 3), (-1, -1), (0, 1), (5, -2)]:
            z = la.vec(z)
            if body.contains_point(z, strict=True):
                continue
            assert _min_activity(cut, z) >= 1


def _min_activity(cut, z):
    k = len(cut.columns)
    n = len(cut.f)
    target = la.vsub(z, cut.f)
    rows, rhs = [], []
    for i in range(n):                      # sum_j s_j col_j[i] = target[i]
        row = tuple(c[i] for c in cut.columns)
        rows.append(row)
        rhs.append(target[i])
        rows.append(tuple(-x for x in row))
        rhs.append(-target[i])
    for j in range(k):                      # s >= 0
        rows.append(tuple(F(-1) if i == j else F(0) for i in range(k)))
        rhs.append(F(0))
    res = solve_ineq(rows, rhs, cut.coeffs, sense="min")
    assert res.status == "optimal"
    return res.value


def test_dominance_is_containment():
    assert cut_dominates(SPLIT_V, SQ01, F12)
    assert not cut_dominates(SQ01, SPLIT_V, F12)
    assert cut_dominates(SQ01, SQ01, F12)
    with pytest.raises(PointNotInterior):
        cut_dominates(SQ01, SPLIT_V, (0, 0))


def test_dominance_implies_cutwise_implication():
    cols = [(1, 0), (0, 1), (1, 1), (-1, 2)]
    strong = intersection_cut(SPLIT_V, cols, F12)
    weak = intersection_cut(SQ01, cols, F12)
    # boundary points of the stronger cut satisfy the weaker one
    for j, c in enumerate(strong.coeffs):
        if c == 0:
            continue
        s = tuple(F(1) / c if i == j else F(0) for i in range(len(cols)))
        assert strong.accepts(s) and weak.accepts(s)


def test_f_metric_identity_and_symmetry():
    assert f_metric(SQ01, SQ01, F12).dist_sq == 0
    a = f_metric(SQ01, BIG_DIAMOND, F12)
    b = f_metric(BIG_DIAMOND, SQ01, F12)
    assert a.dist_sq == b.dist_sq > 0


def test_f_metric_nested_boxes():
    # frozen: polars are the diamond and the half diamond, distance 1/2
    inner = Polyhedron.from_generators([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    outer = homothety(inner, (0, 0), 2)
    assert f_metric(inner, outer, (0, 0)).dist_sq == F(1, 4)


def test_f_metric_triangles_to_split():
    # frozen closed form: distance 2/(t+1) to the horizontal split
    vals = [f_metric(tri(t), SPLIT_H, F12).dist_sq for t in (1, 3, 7)]
    assert vals == [F(1), F(1, 4), F(1, 16)]
    assert vals[0] > vals[1] > vals[2]


def test_f_metric_requires_interior():
    # f on the boundary of both bodies, then inside only the first one
    for b1, b2, f in ((SQ01, SPLIT_V, (0, F(1, 2))),
                      (SPLIT_V, SQ01, (F(1, 2), F(3, 2)))):
        with pytest.raises(PointNotInterior,
                           match="^polar metric needs interior points$"):
            f_metric(b1, b2, f)


def gauge_convergence(seq, b, f, dirs):
    """Per body of seq: (polar metric to b squared, worst gauge gap over
    dirs, whether every gap^2 <= dist_sq |r|^2).  The gauge of B - f is the
    support function of its polar, and support functions of compact sets
    differ by at most the Hausdorff distance per unit of direction length."""
    out = []
    for bt in seq:
        d = f_metric(bt, b, f).dist_sq
        gaps = [(abs(gauge(bt, f, r) - gauge(b, f, r)), r) for r in dirs]
        out.append((d, max(g for g, _ in gaps),
                    all(g * g <= d * norm_sq(la.vec(r)) for g, r in gaps)))
    return out


def test_gauge_convergence_triangles():
    dirs = [(0, 1), (1, 0), (-1, 1), (2, 1)]
    entries = gauge_convergence([tri(1), tri(3), tri(7)], SPLIT_H, F12, dirs)
    devs = [worst for _, worst, _ in entries]
    assert devs[0] > devs[1] > devs[2]
    assert all(ok for _, _, ok in entries)
    # vertical direction: triangle gauge 2t/(t+1) versus split gauge 2
    assert gauge(tri(3), F12, (0, 1)) == F(6, 4)
    assert gauge(SPLIT_H, F12, (0, 1)) == 2


def test_gauge_convergence_constant_sequence():
    entries = gauge_convergence([SQ01, SQ01], SQ01, F12, [(1, 0), (0, 1)])
    assert all(worst == 0 and d == 0 for d, worst, _ in entries)


# -- randomized gauge laws ----------------------------------------------------

coord = st.integers(min_value=-3, max_value=3).map(F)
direction = st.tuples(coord, coord).filter(lambda r: any(x != 0 for x in r))
scale = st.integers(min_value=0, max_value=9).map(lambda k: F(k, 3))


@settings(max_examples=60, deadline=None)
@given(direction, scale)
def test_gauge_positive_homogeneity(r, lam):
    for body in (SQ01, BIG_DIAMOND, SPLIT_V):
        assert gauge(body, F12, la.vscale(lam, la.vec(r))) == \
            lam * gauge(body, F12, r)


@settings(max_examples=60, deadline=None)
@given(direction, direction)
def test_gauge_subadditive(r1, r2):
    for body in (SQ01, BIG_DIAMOND, tri(2)):
        lhs = gauge(body, F12, la.vadd(la.vec(r1), la.vec(r2)))
        assert lhs <= gauge(body, F12, r1) + gauge(body, F12, r2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_gauge_body_scaling(k):
    lam = F(k, 2)
    shrunk = homothety(BIG_DIAMOND, F12, 1 / lam)
    for r in [(1, 0), (0, 1), (1, 1), (-2, 3)]:
        assert gauge(shrunk, F12, r) == lam * gauge(BIG_DIAMOND, F12, r)


@settings(max_examples=60, deadline=None)
@given(st.tuples(coord, coord))
def test_gauge_membership_duality(x):
    x = la.vec(x)
    for body in (SQ01, BIG_DIAMOND):
        g = gauge(body, F12, la.vsub(x, la.vec(F12)))
        assert (g <= 1) == body.contains_point(x)
        assert (g < 1) == body.contains_point(x, strict=True)
