"""Relative strength, family bounds, and inner polytope approximations."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from latcut.errors import NotPolytope, PointNotInterior
from latcut.geometry import Polyhedron, homothety
from latcut.strength import (
    family_strength_upper,
    find_covering_body,
    inner_approximation,
    relative_strength,
    sandwich,
)

from oracles import family_strength_lower

F12 = (F(1, 2), F(1, 2))
SQ01 = Polyhedron.from_generators([(0, 0), (1, 0), (0, 1), (1, 1)])
INNER = homothety(SQ01, F12, F(1, 2))     # [1/4,3/4]^2
SPLIT_V = Polyhedron.from_halfspaces([((1, 0), 1), ((-1, 0), 0)], 2)
SPLIT_H = Polyhedron.from_halfspaces([((0, 1), 1), ((0, -1), 0)], 2)


def tri(t):
    return Polyhedron.from_generators(
        [(-t, 0), (t + 1, 0), (F(1, 2), 1 + F(1, 2 * t))])


def test_strength_of_body_against_itself():
    rep = relative_strength(SQ01, SQ01, F12)
    assert rep.kind == "finite" and rep.value == 1
    assert SQ01.contains_point(rep.witness)


def test_strength_nested_boxes():
    rep = relative_strength(SQ01, INNER, F12)
    assert rep.kind == "finite" and rep.value == F(1, 2)
    assert rep.witness in INNER.vertices


def test_strength_zero_when_f_outside_target():
    rep = relative_strength(SQ01, INNER, (F(1, 8), F(1, 8)))
    assert rep.kind == "zero" and rep.value == 0


def test_strength_infinite_when_f_on_cutting_boundary():
    # f interior to the target but only on the boundary of the cutting body
    corner_box = Polyhedron.from_generators(
        [(F(1, 2), F(1, 2)), (2, F(1, 2)), (F(1, 2), 2), (2, 2)])
    rep = relative_strength(corner_box, SQ01, F12)
    assert rep.kind == "infinite" and rep.witness is None


def test_strength_triangle_cannot_cover_split():
    rep = relative_strength(tri(1), SPLIT_H, F12)
    assert rep.kind == "infinite"
    assert rep.witness in ((1, 0), (-1, 0))  # escaping recession direction


def test_strength_split_covers_triangle():
    rep = relative_strength(SPLIT_H, tri(1), F12)
    assert rep.kind == "finite"
    assert rep.value == 2          # apex (1/2, 3/2) sits at vertical gauge 2
    assert rep.witness == (F(1, 2), F(3, 2))


def test_strength_attainment():
    """The value is the least positive homothety factor giving containment."""
    for b, l in [(SQ01, INNER), (SPLIT_H, tri(2)), (BIGTRI, SQ01)]:
        rep = relative_strength(b, l, F12)
        assert rep.kind == "finite" and rep.value > 0
        assert homothety(b, F12, rep.value).contains(l)
        shy = rep.value * F(999, 1000)
        assert not homothety(b, F12, shy).contains(l)


BIGTRI = Polyhedron.from_generators([(0, 0), (2, 0), (0, 2)])


def test_strength_scaling_law():
    base = relative_strength(SQ01, INNER, F12)
    for k in (2, 3, 5):
        shrunk = homothety(SQ01, F12, F(1, k))
        rep = relative_strength(shrunk, INNER, F12)
        assert rep.value == k * base.value


def test_strength_monotone_in_cutting_body():
    weak = relative_strength(SQ01, BIGTRI, F12)
    strong = relative_strength(SPLIT_V, BIGTRI, F12)
    assert SPLIT_V.contains(SQ01)
    assert strong.value <= weak.value


def test_family_upper_contains_target():
    assert family_strength_upper([SQ01], SQ01, F12) == 1
    assert family_strength_upper([tri(1), SQ01], SQ01, F12) == 1
    assert family_strength_upper([SQ01, SPLIT_V], INNER, F12) == F(1, 2)


def test_family_upper_infinite_for_triangles_vs_split():
    assert family_strength_upper([tri(1), tri(2), tri(5)], SPLIT_H, F12) is None


def test_family_upper_zero_when_f_outside():
    assert family_strength_upper([SQ01], INNER, (0, 0)) == 0


def test_family_lower_box():
    # frozen: best member strength 1/2, four vertices, bound (1/2)/5
    got = family_strength_lower([SQ01], INNER, F12)
    assert got == F(1, 10)
    assert F(1, 10) <= got <= F(1, 2)


def test_family_lower_needs_polytope():
    with pytest.raises(NotPolytope):
        family_strength_lower([SQ01], SPLIT_V, F12)


def test_family_lower_infinite_family():
    assert family_strength_lower([tri(1)], tri(1), F12) == F(1, 4)
    assert family_strength_lower([], SQ01, F12) is None


def test_sandwich_polytope_chain():
    rep = sandwich([SQ01, SPLIT_V], INNER, F12)
    assert rep.lower is not None and rep.upper is not None
    assert rep.lower <= rep.upper <= rep.n_bound * rep.lower
    assert rep.upper == F(1, 2) and rep.n_bound == 5


def test_sandwich_unbounded_target_truncates():
    rep = sandwich([SQ01, tri(1)], SPLIT_H, F12)
    assert rep.n_bound == 5        # two anchors, two signed rays, plus one
    assert rep.lower is not None and rep.upper is not None
    assert rep.lower <= rep.upper <= rep.n_bound * rep.lower


def test_inner_approximation_split():
    got = inner_approximation(SPLIT_V, F12, 1)
    want = Polyhedron.from_generators(
        [(0, 0), (1, 0), (F(1, 2), F(3, 2)), (F(1, 2), F(-1, 2))])
    assert got == want


def test_inner_approximation_grows_with_t():
    prev = inner_approximation(SPLIT_V, F12, 1)
    for t in (2, 3, 5):
        cur = inner_approximation(SPLIT_V, F12, t)
        assert cur.contains(prev)
        assert SPLIT_V.contains(cur)
        assert cur.is_bounded()
        assert cur.contains_point(F12, strict=True)
        prev = cur


def test_inner_approximation_bounded_is_identity():
    assert inner_approximation(SQ01, F12, 3) == SQ01


def test_inner_approximation_validation():
    with pytest.raises(ValueError):
        inner_approximation(SPLIT_V, F12, F(1, 2))
    with pytest.raises(PointNotInterior):
        inner_approximation(SPLIT_V, (0, 0), 1)


def test_covering_body_found():
    assert find_covering_body([SQ01], SQ01, F12, F(1, 2)) == SQ01
    assert find_covering_body([SPLIT_V], SQ01, F12, F(3, 4)) == SPLIT_V


def test_covering_body_absent_for_triangles():
    for mu in (F(1, 4), F(1, 2), F(9, 10)):
        assert find_covering_body(
            [tri(1), tri(3)], SPLIT_H, F12, mu) is None


def test_covering_body_mu_range():
    with pytest.raises(ValueError):
        find_covering_body([SQ01], SQ01, F12, F(3, 2))
    with pytest.raises(ValueError):
        find_covering_body([SQ01], SQ01, F12, F(0))


# -- randomized sandwich consistency ------------------------------------------

coord = st.integers(min_value=-3, max_value=3).map(lambda k: F(k, 2))


@st.composite
def polytope_around_f(draw):
    pts = draw(st.lists(st.tuples(coord, coord), min_size=0, max_size=5))
    # fixed full-dimensional core keeps f strictly inside
    pts += [(-1, -1), (2, -1), (-1, 2)]
    verts = [(F(1, 2) + x, F(1, 2) + y) for x, y in pts]
    return Polyhedron.from_generators(verts)


@settings(max_examples=25, deadline=None)
@given(polytope_around_f(), st.integers(min_value=1, max_value=3))
def test_sandwich_random_instances(l, k):
    fam = [homothety(SQ01, F12, k), BIGTRI]
    rep = sandwich(fam, l, F12)
    assert rep.upper is not None and rep.lower is not None
    assert 0 < rep.lower <= rep.upper <= rep.n_bound * rep.lower
    best = min(relative_strength(b, l, F12).value for b in fam)
    assert rep.upper == best


def test_sandwich_lower_matches_the_reference_bound():
    # sandwich derives its lower bound from the member strengths it takes
    # for the upper one; family_strength_lower recomputes every member's
    # vertex gauges and must agree, with members that miss f and f outside L
    import random

    from latcut.scenarios import random_polytope_around

    rng = random.Random(26)
    kinds = set()
    for trial in range(300):
        n = 2 + trial % 2
        f = tuple(F(rng.randint(1, 5), 6) for _ in range(n))
        away = tuple(x + rng.choice((-3, 3)) for x in f)
        l = random_polytope_around(rng, f if rng.random() < 0.9 else away)
        family = [random_polytope_around(rng, f if rng.random() < 0.7 else away)
                  for _ in range(rng.randint(0, 3))]
        rep = sandwich(family, l, f)
        assert rep.lower == family_strength_lower(family, l, f), trial
        if rep.upper is not None:
            assert rep.lower == rep.upper / (len(l.vertices) + 1), trial
        kinds.update(relative_strength(b, l, f).kind for b in family)
    assert kinds == {"zero", "infinite", "finite"}
