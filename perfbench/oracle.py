"""Exact geometry the benchmark uses to check the program's outputs.

Nothing here imports latcut: every value the benchmark checks is recomputed
from the input data with plain ``Fraction`` arithmetic, by methods that
differ from the library's (box enumeration instead of lattice search, a
barycentric subset scan instead of the library's containment test).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

F = Fraction


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def frac_str(x) -> str:
    x = F(x)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Body:
    """A polyhedron as the benchmark knows it: irredundant facets a.x <= b
    and generators (vertices, rays; a line appears as a +/- ray pair)."""

    dim: int
    facets: tuple      # ((a, b), ...) with a a tuple of Fractions
    vertices: tuple
    rays: tuple

    @property
    def bounded(self) -> bool:
        return not self.rays

    def to_json(self) -> str:
        return json.dumps({
            "dim": self.dim,
            "hrep": [{"a": [frac_str(x) for x in a], "b": frac_str(b)}
                     for a, b in self.facets],
            "vrep": {"vertices": [[frac_str(x) for x in v] for v in self.vertices],
                     "rays": [[frac_str(x) for x in r] for r in self.rays]},
        })


def body_from_obj(obj) -> Body:
    dim = obj["dim"]
    facets = tuple((tuple(F(x) for x in h["a"]), F(h["b"])) for h in obj["hrep"])
    vrep = obj["vrep"]
    return Body(dim, facets,
                tuple(tuple(F(x) for x in v) for v in vrep["vertices"]),
                tuple(tuple(F(x) for x in r) for r in vrep["rays"]))


def inverse(m):
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(m)
    rows = [list(map(F, m[i])) + [F(int(i == j)) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c][c]
        rows[c] = [x / piv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                k = rows[r][c]
                rows[r] = [x - k * y for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def affine_map(body: Body, m, shift) -> Body:
    """Image under x -> m x + shift for an invertible m."""
    inv = inverse(m)
    facets = []
    for a, b in body.facets:
        a2 = tuple(dot(a, [inv[i][j] for i in range(body.dim)])
                   for j in range(body.dim))
        facets.append((a2, b + dot(a2, shift)))
    return Body(body.dim, tuple(facets),
                tuple(tuple(x + s for x, s in zip(mat_vec(m, v), shift))
                      for v in body.vertices),
                tuple(mat_vec(m, r) for r in body.rays))


def translate(body: Body, t) -> Body:
    ident = tuple(tuple(F(int(i == j)) for j in range(body.dim))
                  for i in range(body.dim))
    return affine_map(body, ident, t)


def slacks(body: Body, x):
    return [b - dot(a, x) for a, b in body.facets]


def strictly_inside(body: Body, x) -> bool:
    return all(s > 0 for s in slacks(body, x))


def inside(body: Body, x) -> bool:
    return all(s >= 0 for s in slacks(body, x))


def gauge(body: Body, f, r) -> Fraction:
    """max(0, max_i a_i.r / (b_i - a_i.f)); f must be strictly inside."""
    best = F(0)
    for a, b in body.facets:
        best = max(best, dot(a, r) / (b - dot(a, f)))
    return best


def is_integral(x) -> bool:
    return all(F(c).denominator == 1 for c in x)


def primitive_direction(r):
    """Direction of r as a primitive integer vector."""
    den = math.lcm(*(F(c).denominator for c in r))
    ints = [int(c * den) for c in r]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def integer_points(body: Body):
    """Every integer point of the bounding box of a bounded body."""
    lo = [math.ceil(min(v[i] for v in body.vertices)) for i in range(body.dim)]
    hi = [math.floor(max(v[i] for v in body.vertices)) for i in range(body.dim)]
    return itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))


def _int_facets(body: Body):
    out = []
    for a, b in body.facets:
        den = math.lcm(*(x.denominator for x in a))
        out.append((tuple(int(x * den) for x in a), b * den))
    return out


def interior_lattice_points(body: Body):
    """Integer points strictly inside a bounded body, by box enumeration."""
    facets = _int_facets(body)
    return [z for z in integer_points(body)
            if all(dot(a, z) < b for a, b in facets)]


def facet_lattice_points(body: Body, j: int):
    """Integer points in the relative interior of facet j (bounded body)."""
    facets = _int_facets(body)
    aj, bj = facets[j]
    return [z for z in integer_points(body)
            if dot(aj, z) == bj
            and all(dot(a, z) < b for k, (a, b) in enumerate(facets) if k != j)]


def witnessed_facet(body: Body, z):
    """Index of the one facet z is tight on while strict on the others."""
    tight = [k for k, s in enumerate(slacks(body, z)) if s == 0]
    if len(tight) != 1 or not inside(body, z):
        return None
    return tight[0]


def _solve(m, rhs):
    """Solution of a nonsingular float system by elimination."""
    n = len(m)
    rows = [list(m[i]) + [rhs[i]] for i in range(n)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c]))
        if abs(rows[p][c]) < 1e-12:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c:
                k = rows[r][c] / rows[c][c]
                rows[r] = [x - k * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def sq_distance_to_hull(x, points) -> float:
    """Squared distance from x to conv(points), in floats.

    The nearest point lies in some simplex on affinely independent points,
    where it is the projection onto that simplex's hull with nonnegative
    barycentric weights; scanning every such simplex finds the optimum.
    """
    n = len(x)
    best = min(sum((a - b) ** 2 for a, b in zip(x, p)) for p in points)
    for size in range(2, min(len(points), n + 1) + 1):
        for sub in itertools.combinations(points, size):
            base = sub[0]
            dirs = [[a - b for a, b in zip(p, base)] for p in sub[1:]]
            gram = [[sum(a * b for a, b in zip(u, v)) for v in dirs] for u in dirs]
            rhs = [sum(a * (c - b) for a, c, b in zip(u, x, base)) for u in dirs]
            coef = _solve(gram, rhs)
            if coef is None or min(coef) < -1e-12 or sum(coef) > 1 + 1e-12:
                continue
            proj = [b + sum(c * d[i] for c, d in zip(coef, dirs))
                    for i, b in enumerate(base)]
            best = min(best, sum((a - b) ** 2 for a, b in zip(x, proj)))
    return best


def polar_points(body: Body, f):
    """Points whose hull is the polar of body - f: 0 and a_i / (b_i - a_i.f)."""
    pts = [tuple(0.0 for _ in range(body.dim))]
    for a, b in body.facets:
        c = b - dot(a, f)
        pts.append(tuple(float(x / c) for x in a))
    return pts


def polar_hausdorff_sq(b1: Body, b2: Body, f) -> float:
    p, q = polar_points(b1, f), polar_points(b2, f)
    return max(max(sq_distance_to_hull(x, q) for x in p),
               max(sq_distance_to_hull(x, p) for x in q))
