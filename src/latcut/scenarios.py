"""Named desk-scale experiments over the toolkit, run as assertion lists.

Each scenario expands into named assertions, run one after another in
declaration order; the report lists them in that order with exact rational
values in the details.  Failures are reported per assertion, never thrown.
Randomized scenarios draw from a seed parameter (default 0) so every report
is reproducible; wall time is the only nondeterministic field.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .constructions import (
    TruncatedCone,
    approximate_any_f,
    approximate_fixed_f,
    cube_face_construction,
    inapprox_pyramid,
    lift_to_nplus1,
    segment_meets,
    shrink_epsilon,
    simplex_tower,
    split_along,
    truncated_cone_shrink,
)
from .cuts import f_metric, gauge, intersection_cut
from .errors import LatcutError, OutOfRange, ParseError, UnknownScenario
from .geometry import (
    Polyhedron,
    UnimodularMap,
    homothety,
    level_slice,
    transform,
)
from .lattice import flatness_bound, interior_lattice_point, point_denominator
from .linalg import ONE, ZERO, Vec, dot, vadd, vscale, vsub
from .strength import relative_strength, sandwich, find_covering_body

F = Fraction
F12 = (F(1, 2), F(1, 2))


class _Fail(Exception):
    """Carries a human-readable reason for a failed assertion."""


def _expect(cond: bool, msg: str):
    if not cond:
        raise _Fail(msg)


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    params: dict
    assertions: tuple
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_obj(self) -> dict:
        return {
            "scenario": self.scenario,
            "params": {k: (int(v) if v.denominator == 1 else la.format_frac(v))
                       for k, v in self.params.items()},
            "passed": self.passed,
            "assertions": [{"name": a.name, "pass": a.passed,
                            "detail": a.detail} for a in self.assertions],
            "wall_time_s": round(self.wall_time_s, 6),
        }

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"scenario {self.scenario}: {status} "
                 f"({len(self.assertions)} assertions, {self.wall_time_s:.3f}s)"]
        for a in self.assertions:
            mark = "ok  " if a.passed else "FAIL"
            lines.append(f"  [{mark}] {a.name}: {a.detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared generators


def base_triangle(t: int) -> Polyhedron:
    """Lattice-free triangle flattening onto the horizontal split as t grows."""
    return Polyhedron.from_generators(
        [(F(-t), ZERO), (F(t + 1), ZERO), (F(1, 2), 1 + F(1, 2 * t))])


def random_lattice_free_triangle(rng: random.Random, f: Vec) -> Polyhedron:
    for _ in range(300):
        a, b = rng.randint(0, 3), rng.randint(1, 4)
        apex = (F(rng.randint(-2, 4), rng.choice((1, 2, 3))),
                1 + F(1, rng.randint(1, 6)))
        cand = Polyhedron.from_generators([(F(-a), ZERO), (F(b), ZERO), apex])
        if (cand.fulldim and cand.contains_point(f, strict=True)
                and interior_lattice_point(cand) is None):
            return cand
    return base_triangle(rng.randint(1, 6))


def random_polytope_around(rng: random.Random, f: Vec, spread: int = 3) -> Polyhedron:
    """Bounded polytope with f strictly inside, rational data."""
    n = len(f)
    pts = []
    for i in range(n):
        e = tuple(F(int(i == j)) for j in range(n))
        d = F(rng.randint(1, 2 * spread), rng.randint(1, 3))
        pts.append(vadd(f, vscale(d, e)))
        pts.append(vsub(f, vscale(d, e)))
    for _ in range(rng.randint(1, 3)):
        pts.append(tuple(x + F(rng.randint(-3 * spread, 3 * spread),
                               rng.randint(1, 3)) for x in f))
    return Polyhedron.from_generators(pts)


def random_unimodular(rng: random.Random, n: int) -> UnimodularMap:
    """Product of mild integer shears with a small integer shift.

    Entries stay small so downstream lattice-point enumeration keeps its
    bounding boxes at desk scale.
    """
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = rng.choice((-1, 1))
        for c in range(n):
            m[i][c] += k * m[j][c]
    shift = tuple(F(rng.randint(-2, 2)) for _ in range(n))
    return UnimodularMap.make(tuple(tuple(F(x) for x in row) for row in m), shift)


def interior_point_of(rng: random.Random, p: Polyhedron) -> Vec:
    """A positive combination of p's vertices, one weight in 1..4 each,
    summed on p's int points over their common denominator."""
    weights = [rng.randint(1, 4) for _ in p.points]
    s = math.lcm(*(d for d, *_ in p.points))
    den = s * sum(weights)
    return tuple(F(sum(w * pt[k] * (s // pt[0]) for w, pt in zip(weights, p.points)), den)
                 for k in range(1, p.dim + 1))


def small_interior_point(rng: random.Random, p: Polyhedron) -> Vec:
    """Interior rational point snapped to a small denominator when possible."""
    anchor = (interior_point_of(rng, p) if p.is_bounded()
              else p.relative_interior_point())
    for d in (2, 3, 4, 6, 8, 12):
        cand = tuple(F(round(x * d), d) for x in anchor)
        if p.contains_point(cand, strict=True):
            return cand
    return anchor


def maximal_pool(n: int):
    # unit-scale seeds; shears and shifts supply the variety without
    # inflating the lattice enumeration boxes downstream
    if n == 2:
        return [cube_face_construction(2, i).body for i in (2, 3, 4)] + [
            base_triangle(1), base_triangle(2),
            simplex_tower(F12, F(2)).body]
    return [cube_face_construction(3, i).body for i in (2, 3, 4, 5, 6, 8)]


# ---------------------------------------------------------------------------
# scenario bodies


def _census_checks(params):
    ns = (2, 3) if params["n"] == 0 else (params["n"],)
    checks = []
    for n in ns:
        for i in range(2, 2 ** n + 1):
            def thunk(n=n, i=i):
                made = cube_face_construction(n, i)
                body, cert = made.body, made.cert
                _expect(len(body.rows) == i, f"facet count {len(body.rows)} != {i}")
                _expect(cert.lattice_free, "interior integer point found")
                _expect(cert.maximal, "an unwitnessed facet remains")
                return (f"certified maximal lattice-free, {i} facets, "
                        f"{len(body.points)} generators")
            checks.append((f"n{n}-i{i}", thunk))
    return checks


def _split_vs_triangles_checks(params):
    f = F12
    split = split_along((0, 1), 0)
    count, tmax = params["count"], params["tmax"]
    seedbits = params["seed"]
    triangle = functools.cache(base_triangle)  # base_triangle(t), built once

    def infinite_per_triangle():
        rng = random.Random(f"{seedbits}:triangles")
        horiz = {(ONE, ZERO), (-ONE, ZERO)}
        for k in range(count):
            tr = random_lattice_free_triangle(rng, f)
            rep = relative_strength(tr, split, f)
            _expect(rep.kind == "infinite",
                    f"triangle {k}: expected infinite, got {rep.kind}")
            _expect(rep.witness in horiz,
                    f"triangle {k}: witness {rep.witness} is not a split ray")
        return f"{count} lattice-free triangles, all infinite with ray witness"

    def distance_decreasing():
        dists = [f_metric(triangle(t), split, f).dist_sq
                 for t in range(1, tmax + 1)]
        for k in range(1, len(dists)):
            _expect(dists[k] < dists[k - 1],
                    f"d^2 not strictly decreasing at t={k + 1}")
        return (f"polar distance strictly decreasing over t=1..{tmax}, "
                f"last d^2 = {la.format_frac(dists[-1])}")

    def coefficients_converge():
        cols = ((ZERO, ONE), (ONE, ZERO), (-ONE, ZERO))
        target = intersection_cut(split, cols, f).coeffs
        _expect(target == (F(2), ZERO, ZERO), "unexpected split coefficients")
        prev = None
        last = None
        for t in range(1, tmax + 1):
            cs = intersection_cut(triangle(t), cols, f)
            dev = tuple(abs(c - g) for c, g in zip(cs.coeffs, target))
            if prev is not None:
                _expect(all(d <= p for d, p in zip(dev, prev)),
                        f"coordinate deviation grew at t={t}")
            prev = dev
            last = cs.coeffs
        _expect(max(prev) <= F(2, tmax),
                f"final deviation {tuple(map(str, prev))} too large")
        coeffs = ", ".join(map(la.format_frac, last))
        return (f"coefficients at t={tmax}: ({coeffs}) "
                f"vs split (2/1, 0/1, 0/1), deviations monotone")

    return [("rho-infinite-per-triangle", infinite_per_triangle),
            ("polar-distance-strictly-decreasing", distance_decreasing),
            ("cut-coefficients-converge", coefficients_converge)]


def _rho_closed_form_checks(params):
    trials, seedbits = params["trials"], params["seed"]

    def one_batch(n, count, tag):
        def thunk():
            rng = random.Random(f"{seedbits}:{tag}")
            for k in range(count):
                f = tuple(F(rng.randint(0, 6), 6) for _ in range(n))
                b = random_polytope_around(rng, f)
                l = random_polytope_around(rng, f)
                rep = relative_strength(b, l, f)
                _expect(rep.kind == "finite", f"trial {k}: {rep.kind}")
                value = rep.value
                # derivative-free search for the least covering inflation
                hi = ONE
                while not homothety(b, f, hi).contains(l):
                    hi *= 2
                    _expect(hi < 2 ** 40, f"trial {k}: no bracket")
                lo = ZERO
                while hi - lo > hi / 4000:
                    mid = (lo + hi) / 2
                    if homothety(b, f, mid).contains(l):
                        hi = mid
                    else:
                        lo = mid
                _expect(value <= hi and hi - value <= value / 1000,
                        f"trial {k}: formula {value} vs search {hi}")
                _expect(homothety(b, f, value).contains(l),
                        f"trial {k}: containment fails at the formula value")
                if value > 0:
                    shrunk = value * F(999, 1000)
                    _expect(not homothety(b, f, shrunk).contains(l),
                            f"trial {k}: formula value not minimal")
            return f"{count} random triples in dimension {n} agree"
        return thunk

    half = trials // 2
    return [("plane-formula-vs-search", one_batch(2, half, "n2")),
            ("space-formula-vs-search", one_batch(3, trials - half, "n3"))]


def _sandwich_checks(params):
    instances, seedbits = params["instances"], params["seed"]

    def thunk():
        rng = random.Random(f"{seedbits}:sandwich")
        for k in range(instances):
            n = rng.choice((2, 3))
            f = tuple(F(rng.randint(1, 5), rng.choice((2, 3, 4)))
                      for _ in range(n))
            l = random_polytope_around(rng, f)
            family = [random_polytope_around(rng, f)
                      for _ in range(rng.randint(1, 5))]
            rep = sandwich(family, l, f)
            _expect(rep.upper is not None and rep.lower is not None,
                    f"instance {k}: bracket degenerate")
            _expect(rep.lower <= rep.upper,
                    f"instance {k}: lower {rep.lower} > upper {rep.upper}")
            _expect(rep.upper <= rep.n_bound * rep.lower,
                    f"instance {k}: upper escapes N * lower")
            mu = ONE / rep.upper
            if mu < 1:
                covered = find_covering_body(family, l, f, mu) is not None
            else:
                covered = any(b.contains(homothety(l, f, mu)) for b in family)
            _expect(covered, f"instance {k}: upper not achieved by a member")
        return f"{instances} instances, bracket chain never violated"

    return [("bracket-chain", thunk)]


def _cone_shrink_checks(params):
    count, seedbits = params["count"], params["seed"]

    def thunk():
        rng = random.Random(f"{seedbits}:cones")
        done = 0
        while done < count:
            dim = rng.choice((2, 2, 3))
            if dim == 2:
                xs = sorted(rng.sample(range(-4, 6), 2))
                verts = [(F(xs[0]), ZERO), (F(xs[1]), ZERO)]
                shift = (F(rng.randint(-2, 2)), F(rng.choice((-2, -1, 1, 2))))
            else:
                verts = [(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), ZERO)
                         for _ in range(3)]
                if la.affine_rank(verts) != 2:
                    continue
                shift = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)),
                         F(rng.choice((-2, -1, 1, 2))))
            base = Polyhedron.from_generators(verts)
            alpha = rng.choice((ZERO, F(1, 2), ONE, F(3)))
            cone = TruncatedCone.make(base, alpha, shift)
            mu = rng.choice((F(1, 3), F(2, 5), F(1, 2), F(3, 4), ONE))
            anchor = interior_point_of(rng, base)
            fpt = vadd(tuple((1 + mu * alpha) * x for x in anchor),
                       vscale(mu, shift))
            out = truncated_cone_shrink(cone, fpt)
            _expect(cone.hull.contains(out), f"cone {done}: output escapes")
            _expect(out.contains(homothety(cone.hull, fpt, F(1, 4))),
                    f"cone {done}: quarter body escapes at mu={mu}")
            done += 1
        return f"{count} cones with mu >= 1/3, both containments exact"

    return [("shrink-sandwich", thunk)]


def _lift_instances():
    seg = Polyhedron.from_generators([(ZERO,), (ONE,)])
    triangles = [base_triangle(t) for t in (1, 2, 3)]
    cases = [(l, f, gamma, seg, 1) for l in triangles
             for f, gamma in (((F(1, 2), ONE), F(1, 2)),
                              ((F(1, 2), ONE), F(1, 3)),
                              ((F(1, 2), F(7, 8)), F(1, 2)),
                              ((F(1, 2), ONE), F(1, 4)))]
    d = triangles[0]
    half = homothety(d, F12, F(1, 2))
    l3 = Polyhedron.from_generators(
        [v + (ONE,) for v in d.vertices] + [v + (-ONE,) for v in half.vertices])
    for height in (ZERO, F(1, 8), F(1, 4), F(1, 2)):
        for gamma in (F(1, 2), F(1, 3)):
            cases.append((l3, (F(1, 2), F(1, 2), height), gamma, d, 0))
    return cases


def _lifting_checks(params):
    checks = []
    for k, (l, f, gamma, d, t) in enumerate(_lift_instances()):
        def thunk(l=l, f=f, gamma=gamma, d=d, t=t):
            out = lift_to_nplus1(l, f, gamma, d, t)
            m = len(d.rows)
            _expect(len(out.rows) <= m + 1, f"{len(out.rows)} facets exceed {m + 1}")
            _expect(interior_lattice_point(out) is None,
                    "output not lattice-free")
            _expect(out.contains(homothety(l, f, gamma / 4)),
                    "gamma/4 homothety escapes the lift")
            return (f"lattice-free, {len(out.rows)} <= {m + 1} facets, "
                    f"holds the {la.format_frac(gamma / 4)} homothety")
        checks.append((f"instance-{k:02d}-dim{l.dim}", thunk))
    return checks


def _approximation_checks(params):
    count, seedbits = params["count"], params["seed"]
    pool = functools.cache(maximal_pool)  # built when n is first drawn

    def run(mode):
        def thunk():
            rng = random.Random(f"{seedbits}:{mode}")
            done = 0
            while done < count:
                n = rng.choice((2, 3))
                l = transform(rng.choice(pool(n)), random_unimodular(rng, n))
                f = small_interior_point(rng, l)
                if mode == "any":
                    res = approximate_any_f(l, f)
                    cap = 2 ** (n - 1) + 1
                    bound = 4 * flatness_bound(n)
                else:
                    res = approximate_fixed_f(l, f)
                    cap = n + 1
                    bound = (flatness_bound(n) * 4 ** (n - 1)
                             * point_denominator(f))
                _expect(len(res.body.rows) <= cap,
                        f"instance {done}: facet cap {cap} exceeded")
                _expect(res.factor <= bound,
                        f"instance {done}: factor {res.factor} > {bound}")
                _expect(res.body.contains(homothety(l, f, 1 / res.factor)),
                        f"instance {done}: containment at the factor fails")
                done += 1
            return f"{count} bodies approximated within the advertised bounds"
        return thunk

    return [("any-f-pipeline", run("any")),
            ("fixed-f-pipeline", run("fixed"))]


def _inapprox_checks(params):
    alphas = (F(2), la.frac(params["alpha_hi"]))
    samples, seedbits = params["samples"], params["seed"]
    fs = (F12, (F(1, 3), F(2, 3)), (F(1, 2), F(1, 3), F(1, 5)))
    tower = functools.cache(simplex_tower)  # built when first asked for

    checks = []
    for f in fs:
        for alpha in alphas:
            def thunk(f=f, alpha=alpha):
                tw = tower(f, alpha)
                n = len(f)
                _expect(len(tw.body.rows) == n + 1, "facet count off")
                _expect(tw.cert.lattice_free and tw.cert.maximal,
                        "tower not certified maximal lattice-free")
                shrunk = homothety(tw.body, f, 1 / alpha)
                for zi, zj in itertools.combinations(tw.witnesses, 2):
                    _expect(segment_meets(shrunk, zi, zj),
                            f"segment {zi}-{zj} misses the 1/alpha copy")
                return (f"maximal with {n + 1} facets, all "
                        f"{n * (n + 1) // 2} witness segments meet the copy")
            fg = ":".join(la.format_frac(x) for x in f)
            tag = f"tower-f-{fg}-alpha-{la.format_frac(alpha)}"
            checks.append((tag, thunk))

    def sampled_bodies():
        rng = random.Random(f"{seedbits}:samples")
        done = 0
        while done < samples:
            f = fs[done % len(fs)]
            n = len(f)
            alpha = alphas[done % 2]
            tw = tower(f, alpha)
            u = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            level = dot(u, la.vec(f))
            if la.is_zero_vec(u) or level.denominator == 1:
                continue
            b = split_along(u, F(math.floor(level)))
            if not b.contains_point(f, strict=True):
                continue
            rep = relative_strength(b, tw.body, f)
            _expect(rep.kind == "infinite" or rep.value >= alpha,
                    f"sample {done}: split beats alpha={alpha}")
            done += 1
        return f"{samples} few-facet bodies all kept rho >= alpha"

    checks.append(("sampled-bodies-cannot-beat-alpha", sampled_bodies))

    def pyramid_identities():
        seg = Polyhedron.from_generators([(ZERO,), (ONE,)])
        diam = cube_face_construction(2, 4).body
        diam_zs = [(ZERO, ZERO), (ONE, ONE), (ONE, ZERO), (ZERO, ONE)]
        cases = [
            (seg, (F(1, 2),), [(ZERO,), (ONE,)]),
            (diam, F12, diam_zs),
        ]
        for l, c, zs in cases:
            eps = shrink_epsilon(l, c, zs)
            mu = F(1, 2)
            pw = inapprox_pyramid(l, c, zs, eps, mu)
            _expect(len(pw.body.rows) == len(l.rows) + 1,
                    "pyramid facet count off")
            _expect(level_slice(pw.body, 0) == l,
                    "level-zero cross-section is not the base body")
            em = eps * mu
            fb = homothety(l, c, 1 / em)
            p = Polyhedron.from_generators(
                [pw.f] + [v + (-ONE,) for v in fb.vertices])
            _expect(level_slice(p, 0) == homothety(l, c, 1 / (em + 1)),
                    "inner cross-section identity fails")
            _expect(pw.body.contains(p), "pyramid does not hold its core")
            inner = homothety(p, pw.f, em)
            e2m2 = em * em
            for z in zs:
                q = vadd(vscale(e2m2, zs[0] + (-ONE,)),
                         vscale(1 - e2m2, z + (ZERO,)))
                _expect(q[-1] == -e2m2 and l.contains_point(q[:-1]),
                        "q-point leaves the base slab")
                _expect(inner.contains_point(q), "q-point escapes the core")
        return "cross-section and q-point identities hold for both bases"

    checks.append(("pyramid-proof-identities", pyramid_identities))
    return checks


def _gauge_metric_checks(params):
    checks_n, seedbits = params["checks"], params["seed"]
    # the fixed bodies the four checks share, each built once per run: the
    # cube faces and triangles when first asked for
    cube_face = functools.cache(lambda n, i: cube_face_construction(n, i).body)
    triangle = functools.cache(base_triangle)
    split = split_along((0, 1), 0)
    box = Polyhedron.from_generators(
        [(ZERO, ZERO), (F(3), ZERO), (ZERO, F(2)), (F(3), F(2))])

    def body_pool(rng):
        return [
            (cube_face(2, 4), F12),
            (triangle(rng.randint(1, 3)), F12),
            (split, F12),
            (box, (ONE, ONE)),
            (cube_face(3, rng.choice((4, 6, 8))), (F(1, 2), F(1, 2), F(1, 2))),
        ]

    def rand_dir(rng, n):
        while True:
            r = tuple(F(rng.randint(-8, 8), rng.randint(1, 3))
                      for _ in range(n))
            if not la.is_zero_vec(r):
                return r

    def homogeneity():
        rng = random.Random(f"{seedbits}:hom")
        pool = body_pool(rng)
        for _ in range(checks_n):
            b, f = pool[rng.randrange(len(pool))]
            r = rand_dir(rng, b.dim)
            lam = F(rng.randint(0, 9), rng.randint(1, 4))
            _expect(gauge(b, f, vscale(lam, r)) == lam * gauge(b, f, r),
                    f"homogeneity fails at lam={lam}, r={r}")
        return f"{checks_n} exact checks"

    def subadditivity():
        rng = random.Random(f"{seedbits}:sub")
        pool = body_pool(rng)
        for _ in range(checks_n):
            b, f = pool[rng.randrange(len(pool))]
            r, s = rand_dir(rng, b.dim), rand_dir(rng, b.dim)
            _expect(gauge(b, f, vadd(r, s))
                    <= gauge(b, f, r) + gauge(b, f, s),
                    f"subadditivity fails at r={r}, s={s}")
        return f"{checks_n} exact checks"

    def membership():
        rng = random.Random(f"{seedbits}:mem")
        pool = body_pool(rng)
        for _ in range(checks_n):
            b, f = pool[rng.randrange(len(pool))]
            x = tuple(F(rng.randint(-9, 9), rng.randint(1, 3))
                      for _ in range(b.dim))
            inside = b.contains_point(x)
            _expect(inside == (gauge(b, f, vsub(x, f)) <= 1),
                    f"membership duality fails at x={x}")
        return f"{checks_n} exact checks"

    def metric_axioms():
        rng = random.Random(f"{seedbits}:met")
        bodies = [cube_face(2, 4), triangle(1), triangle(2), split, box,
                  simplex_tower(F12, F(2)).body]
        f = F12
        done = 0
        while done < checks_n:
            k = done % 3
            b1, b2, b3 = (bodies[rng.randrange(len(bodies))] for _ in range(3))
            if k == 0:
                d = f_metric(b1, b2, f)
                _expect(d.dist_sq == f_metric(b2, b1, f).dist_sq,
                        "symmetry fails")
                _expect(d.dist_sq >= 0, "negative distance")
                _expect((d.dist_sq == 0) == (b1 == b2),
                        "identity of indiscernibles fails")
            elif k == 1:
                _expect(f_metric(b1, b1, f).dist_sq == 0, "self distance")
            else:
                ab = f_metric(b1, b2, f).dist_sq
                bc = f_metric(b2, b3, f).dist_sq
                ac = f_metric(b1, b3, f).dist_sq
                # sqrt(ac) <= sqrt(ab) + sqrt(bc), squared twice to stay exact
                gap = ac - ab - bc
                _expect(gap <= 0 or gap * gap <= 4 * ab * bc,
                        "triangle inequality fails")
            done += 1
        return f"{checks_n} exact checks"

    return [("gauge-homogeneity", homogeneity),
            ("gauge-subadditivity", subadditivity),
            ("gauge-membership-duality", membership),
            ("polar-metric-axioms", metric_axioms)]


# ---------------------------------------------------------------------------
# registry and runner


@dataclass(frozen=True)
class _Spec:
    build: object
    defaults: dict
    description: str


SCENARIOS = {
    "cubeface-census": _Spec(
        _census_checks, {"n": 0},
        "certify the cube-face bodies for every facet count (n=0 runs 2 and 3)"),
    "split-vs-triangles": _Spec(
        _split_vs_triangles_checks, {"count": 20, "tmax": 64, "seed": 0},
        "infinite strength of triangles against the split, with convergence"),
    "rho-closed-form": _Spec(
        _rho_closed_form_checks, {"trials": 200, "seed": 0},
        "vertex-gauge formula equals the containment search threshold"),
    "one-for-all-sandwich": _Spec(
        _sandwich_checks, {"instances": 50, "seed": 0},
        "two-sided family strength bracket stays consistent"),
    "truncated-cone-shrink": _Spec(
        _cone_shrink_checks, {"count": 50, "seed": 0},
        "quarter-homothety sandwich for anchored cone shrinks"),
    "lifting-end-to-end": _Spec(
        _lifting_checks, {},
        "one-dimension-up covers on a catalogue of hypothesis-true instances"),
    "approximation-factors": _Spec(
        _approximation_checks, {"count": 30, "seed": 0},
        "facet caps and factor bounds for both approximation pipelines"),
    "inapprox-witnesses": _Spec(
        _inapprox_checks, {"alpha_hi": F(10), "samples": 20, "seed": 0},
        "towers and pyramids forcing facet counts, with proof identities"),
    "gauge-metric-properties": _Spec(
        _gauge_metric_checks, {"checks": 1000, "seed": 0},
        "randomized exact property suites for gauges and the polar metric"),
}


def list_scenarios():
    return [(name, spec.description) for name, spec in SCENARIOS.items()]


def _coerce(key, value, default):
    try:
        value = (int(value) if isinstance(default, int)
                 else la.parse_frac(str(value)))
    except (TypeError, ValueError, ParseError) as exc:
        raise ParseError(f"parameter {key}: bad value {value!r}") from exc
    if key != "seed" and value < (1 if key == "tmax" else 0):
        raise OutOfRange(f"parameter {key} = {value} out of range")
    return value


def run_scenario(name: str, overrides=None) -> ScenarioReport:
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise UnknownScenario(f"unknown scenario {name!r} (known: {known})")
    spec = SCENARIOS[name]
    params = dict(spec.defaults)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise OutOfRange(
                f"scenario {name} has no parameter {key!r} "
                f"(valid: {sorted(params) or 'none'})")
        params[key] = _coerce(key, value, params[key])
    start = time.perf_counter()
    checks = spec.build(params)

    results = []
    for cname, thunk in checks:
        try:
            results.append(Assertion(cname, True, thunk()))
        except _Fail as exc:
            results.append(Assertion(cname, False, str(exc)))
        except (LatcutError, ArithmeticError) as exc:
            results.append(Assertion(cname, False, f"{type(exc).__name__}: {exc}"))
    return ScenarioReport(name, params, tuple(results), time.perf_counter() - start)
