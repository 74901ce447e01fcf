"""Seeded CLI queries for the ``cli-queries`` workload, and their checks.

Bodies are the ``tests/fixtures`` shapes under random unimodular maps with
integer shifts (which keep lattice properties), and ``f`` is a random
interior point, so two queries almost never share an input.  Every query
carries a check that recomputes the answer with ``oracle`` alone.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from oracle import (
    Body,
    affine_map,
    body_from_obj,
    dot,
    facet_lattice_points,
    frac_str,
    gauge,
    interior_lattice_points,
    inside,
    is_integral,
    polar_hausdorff_sq,
    primitive_direction,
    strictly_inside,
    translate,
    witnessed_facet,
)

F = Fraction

KINDS = ("check", "width", "cut", "closure", "rho", "sandwich", "fmetric",
         "approx", "construct")

# tower_3d is left out: its lattice search alone runs for minutes.
BOUNDED = ("box_2d", "cubeface_2_3", "cubeface_3_5", "diamond",
           "interval_shifted", "octahedron", "pyramid_over_segment", "segment",
           "simplex_3d", "tower_2d", "triangle_t1", "triangle_t4")
LINEALITY = ("cylinder_over_diamond", "skew_cylinder_3d", "split_horizontal",
             "split_slanted")
POINTED = ("quadrant", "ray_1d", "wedge")
ALL = BOUNDED + LINEALITY + POINTED
LATTICE_FREE_BOUNDED = ("cubeface_2_3", "cubeface_3_5", "diamond",
                        "octahedron", "pyramid_over_segment", "simplex_3d",
                        "tower_2d", "triangle_t1", "triangle_t4")


def load_fixtures(fixture_dir: Path) -> dict:
    return {n: body_from_obj(json.loads((fixture_dir / f"{n}.json").read_text()))
            for n in ALL}


@dataclass
class Query:
    kind: str
    argv: list
    check: object       # (exit code, stdout) -> None when correct, else a reason


# ---------------------------------------------------------------------------
# random inputs


def random_unimodular(rng: random.Random, n: int):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.choice((-1, 1))
            for c in range(n):
                m[i][c] += k * m[j][c]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return (tuple(tuple(F(x) for x in row) for row in m),
            tuple(F(rng.randint(-2, 2)) for _ in range(n)))


def placed(rng, fixtures, name) -> Body:
    return affine_map(fixtures[name], *random_unimodular(rng, fixtures[name].dim))


def interior_point(rng, body: Body):
    ws = [F(rng.randint(1, 3)) for _ in body.vertices]
    tot = sum(ws)
    f = tuple(sum(w * v[k] for w, v in zip(ws, body.vertices)) / tot
              for k in range(body.dim))
    for r in body.rays:
        c = F(rng.randint(1, 2), 2)
        f = tuple(x + c * y for x, y in zip(f, r))
    assert strictly_inside(body, f)
    return f


def around(rng, fixtures, name, f) -> Body:
    """A placed copy of a fixture, translated so that f lies inside it."""
    body = placed(rng, fixtures, name)
    c = interior_point(rng, body)
    return translate(body, tuple(a - b for a, b in zip(f, c)))


def same_dim(fixtures, dim, names):
    return [n for n in names if fixtures[n].dim == dim]


def vec_arg(v) -> str:
    return ",".join(frac_str(x) for x in v)


def fracs(xs):
    return [frac_str(x) for x in xs]


# ---------------------------------------------------------------------------
# checks shared by several kinds


def check_certificate(body: Body, cert: dict, ordered: bool):
    """Re-derive a lattice-freeness certificate for body.

    ordered: the witnesses follow body.facets (true when the facets come
    from the output itself); otherwise each witness must pick out a
    distinct facet.
    """
    if not cert["lattice_free"]:
        z = tuple(F(x) for x in cert["interior_witness"])
        if not (is_integral(z) and strictly_inside(body, z)):
            return f"interior witness {cert['interior_witness']} is not an interior lattice point"
        return None
    if cert["interior_witness"] is not None:
        return "lattice-free body carries an interior witness"
    if body.bounded and interior_lattice_points(body):
        return "box enumeration finds an interior lattice point"
    ws = cert["facet_witnesses"]
    if len(ws) != len(body.facets):
        return f"{len(ws)} facet witnesses for {len(body.facets)} facets"
    hit = set()
    for j, w in enumerate(ws):
        if w is None:
            continue
        z = tuple(F(x) for x in w)
        k = witnessed_facet(body, z) if is_integral(z) else None
        if k is None or (ordered and k != j) or k in hit:
            return f"facet witness {w} is not in the relative interior of its own facet"
        hit.add(k)
    if cert["maximal"] != (len(hit) == len(body.facets)):
        return "maximal flag disagrees with the witnesses"
    if body.bounded:
        for k in range(len(body.facets)):
            if k not in hit and facet_lattice_points(body, k):
                return f"facet {k} has a lattice point but no witness"
    return None


def output_body(obj) -> tuple:
    """A body read from output JSON, with a consistency check of its data."""
    body = body_from_obj(obj)
    for v in body.vertices:
        if not inside(body, v):
            return body, f"vertex {fracs(v)} violates the emitted facets"
    for a, _ in body.facets:
        if any(dot(a, r) > 0 for r in body.rays):
            return body, "a ray leaves an emitted facet"
    return body, None


def expect_doc(out: str, code: int, want_code: int):
    if code != want_code:
        return None, f"exit code {code}, expected {want_code}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def strength(b: Body, l: Body, f):
    """(value, escaping ray) of the least inflation of b about f covering l,
    for f strictly inside l; value None means infinite."""
    if not strictly_inside(b, f):
        return None, None
    for r in l.rays:
        if gauge(b, f, r) > 0:
            return None, r
    return max(gauge(b, f, tuple(x - y for x, y in zip(v, f))) for v in l.vertices), None


# ---------------------------------------------------------------------------
# query builders: each writes its input files and returns a Query


def q_check(rng, fx, d: Path):
    name = rng.choice(ALL)
    body = placed(rng, fx, name)
    path = d / "body.json"
    path.write_text(body.to_json())

    def check(code, out):
        doc, err = expect_doc(out, code, 0 if code == 0 else 1)
        if err:
            return err
        if (code == 0) != doc["lattice_free"]:
            return "exit code disagrees with the verdict"
        return check_certificate(body, doc, ordered=False)
    return Query("check", ["check", str(path)], check)


def q_width(rng, fx, d):
    name = rng.choice(BOUNDED + LINEALITY)
    body = placed(rng, fx, name)
    path = d / "body.json"
    path.write_text(body.to_json())
    bound = F(rng.randint(1, 8), rng.choice((1, 2)))

    def spread(u):
        vals = [dot(u, v) for v in body.vertices]
        return max(vals) - min(vals)

    def check(code, out):
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        width = F(doc["width"])
        u = tuple(F(x) for x in doc["direction"])
        if not is_integral(u) or primitive_direction(u) != u:
            return f"direction {doc['direction']} is not primitive integral"
        if any(dot(u, r) != 0 for r in body.rays):
            return "direction is not orthogonal to the lineality"
        if spread(u) != width:
            return f"width {doc['width']} != spread over vertices {spread(u)}"
        for cand in _small_directions(body.dim):
            if all(dot(cand, r) == 0 for r in body.rays) and spread(cand) < width:
                return f"direction {cand} is thinner than the reported width"
        if doc["within_bound"] != (width <= bound) or code != (0 if width <= bound else 1):
            return "bound verdict or exit code is wrong"
        return None
    return Query("width", ["width", str(path), f"--bound={frac_str(bound)}"], check)


def _small_directions(n):
    for c in itertools.product(range(-2, 3), repeat=n):
        if any(c):
            yield tuple(F(x) for x in c)


def _columns(rng, n):
    cols = []
    while len(cols) < rng.randint(2, 4):
        c = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        if any(c):
            cols.append(c)
    return cols


def _cut_problem(body, cols, f, cut):
    if cut["f"] != fracs(f) or cut["columns"] != [fracs(c) for c in cols]:
        return "cut does not echo its f and columns"
    if strictly_inside(body, f):
        want = [frac_str(gauge(body, f, c)) for c in cols]
        if cut["trivial"] or cut["coeffs"] != want:
            return f"coefficients {cut['coeffs']} != gauges {want}"
    elif not cut["trivial"]:
        return "f is outside the body but the cut is not trivial"
    return None


def q_cut(rng, fx, d):
    name = rng.choice(ALL)
    body = placed(rng, fx, name)
    f = interior_point(rng, body)
    cols = _columns(rng, body.dim)
    (d / "body.json").write_text(body.to_json())
    (d / "cols.json").write_text(json.dumps([fracs(c) for c in cols]))

    def check(code, out):
        doc, err = expect_doc(out, code, 0)
        return err or _cut_problem(body, cols, f, doc)
    return Query("cut", ["cut", "--body", str(d / "body.json"), f"--f={vec_arg(f)}",
                         "--cols", str(d / "cols.json")], check)


def _family(rng, fx, d: Path, f, dim, count, always_inside):
    fam = d / "family"
    fam.mkdir()
    names = same_dim(fx, dim, ALL)
    bodies = []
    for k in range(count):
        name = rng.choice(names)
        body = (around(rng, fx, name, f) if always_inside or rng.random() < 0.7
                else placed(rng, fx, name))
        (fam / f"{k}.json").write_text(body.to_json())
        bodies.append(body)
    return fam, bodies


def q_closure(rng, fx, d):
    first = placed(rng, fx, rng.choice(ALL))
    f = interior_point(rng, first)
    fam, bodies = _family(rng, fx, d, f, first.dim, rng.randint(2, 3), False)
    cols = _columns(rng, first.dim)
    (d / "cols.json").write_text(json.dumps([fracs(c) for c in cols]))

    def check(code, out):
        doc, err = expect_doc(out, code, 0)
        if err:
            return err
        if doc["f"] != fracs(f) or doc["columns"] != [fracs(c) for c in cols]:
            return "closure does not echo its f and columns"
        if len(doc["cuts"]) != len(bodies):
            return "one cut per family member expected"
        for body, cut in zip(bodies, doc["cuts"]):
            err = _cut_problem(body, cols, f, cut)
            if err:
                return err
        return None
    return Query("closure", ["closure", "--family", str(fam), f"--f={vec_arg(f)}",
                             "--cols", str(d / "cols.json")], check)


def q_rho(rng, fx, d):
    l = placed(rng, fx, rng.choice(ALL))
    f = interior_point(rng, l)
    b = around(rng, fx, rng.choice(same_dim(fx, l.dim, ALL)), f)
    (d / "b.json").write_text(b.to_json())
    (d / "l.json").write_text(l.to_json())

    def check(code, out):
        doc, err = expect_doc(out, code, 0)
        if err:
            return err
        value, ray = strength(b, l, f)
        if value is None:
            if doc["value"] != "inf":
                return f"value {doc['value']}, expected inf"
            w = doc["witness"]
            if w is None or "ray" not in w:
                return "infinite value without a ray witness"
            wr = tuple(F(x) for x in w["ray"])
            if gauge(b, f, wr) <= 0 or primitive_direction(wr) not in {
                    primitive_direction(r) for r in l.rays}:
                return f"witness {w['ray']} is not an escaping ray of L"
            return None
        if doc["value"] != frac_str(value):
            return f"value {doc['value']} != {frac_str(value)}"
        v = tuple(F(x) for x in doc["witness"]["vertex"])
        if not inside(l, v) or gauge(b, f, tuple(x - y for x, y in zip(v, f))) != value:
            return f"witness {doc['witness']} does not attain the value"
        return None
    return Query("rho", ["rho", "--b", str(d / "b.json"), "--l", str(d / "l.json"),
                         f"--f={vec_arg(f)}"], check)


def q_sandwich(rng, fx, d):
    l = placed(rng, fx, rng.choice(BOUNDED))
    f = interior_point(rng, l)
    fam, bodies = _family(rng, fx, d, f, l.dim, rng.randint(1, 3), False)
    (d / "l.json").write_text(l.to_json())

    def check(code, out):
        doc, err = expect_doc(out, code, 0)
        if err:
            return err
        ups = [strength(b, l, f)[0] for b in bodies]
        finite = [u for u in ups if u is not None]
        upper = "inf" if not finite else frac_str(min(finite))
        dirs = [tuple(x - y for x, y in zip(v, f)) for v in l.vertices]
        ms = [max(gauge(b, f, r) for r in dirs) for b in bodies
              if strictly_inside(b, f)]
        lower = "inf" if not ms else frac_str(min(ms) / (len(l.vertices) + 1))
        want = {"lower": lower, "upper": upper, "n_bound": len(l.vertices) + 1}
        return None if doc == want else f"bracket {doc} != {want}"
    return Query("sandwich", ["sandwich", "--family", str(fam), "--l",
                              str(d / "l.json"), f"--f={vec_arg(f)}"], check)


def q_fmetric(rng, fx, d):
    b1 = placed(rng, fx, rng.choice(ALL))
    f = interior_point(rng, b1)
    b2 = around(rng, fx, rng.choice(same_dim(fx, b1.dim, ALL)), f)
    (d / "b1.json").write_text(b1.to_json())
    (d / "b2.json").write_text(b2.to_json())

    def check(code, out):
        doc, err = expect_doc(out, code, 0)
        if err:
            return err
        got = F(doc["dist_sq"])
        want = polar_hausdorff_sq(b1, b2, f)
        if got < 0 or abs(float(got) - want) > 1e-9 * max(1.0, want):
            return f"dist_sq {doc['dist_sq']} != {want!r} from the polar vertices"
        if abs(doc["dist"] - math.sqrt(float(got))) > 1e-9 * max(1.0, doc["dist"]):
            return "dist is not the square root of dist_sq"
        return None
    return Query("fmetric", ["fmetric", str(d / "b1.json"), str(d / "b2.json"),
                             f"--f={vec_arg(f)}"], check)


def q_approx(rng, fx, d):
    l = placed(rng, fx, rng.choice(LATTICE_FREE_BOUNDED))
    f = interior_point(rng, l)
    mode = rng.choice(("any", "fixed"))
    (d / "l.json").write_text(l.to_json())
    cap = 2 ** (l.dim - 1) + 1 if mode == "any" else l.dim + 1

    def check(code, out):
        doc, err = expect_doc(out, code, 0)
        if err:
            return err
        body, err = output_body(doc["body"])
        if err:
            return err
        if doc["facets"] != len(body.facets) or len(body.facets) > cap:
            return f"{doc['facets']} facets, cap {cap}"
        factor = F(doc["factor"])
        if factor <= 0:
            return "factor is not positive"
        for v in l.vertices:
            shrunk = tuple(c + (x - c) / factor for x, c in zip(v, f))
            if not inside(body, shrunk):
                return "the 1/factor copy of L escapes the cover"
        if not doc["certificate"]["lattice_free"]:
            return "cover is not certified lattice-free"
        return check_certificate(body, doc["certificate"], ordered=True)
    return Query("approx", ["approx", "--mode", mode, "--l", str(d / "l.json"),
                            f"--f={vec_arg(f)}"], check)


def q_construct(rng, fx, d):
    if rng.random() < 0.5:
        n = rng.choice((2, 3))
        i = rng.randint(2, 2 ** n)
        argv = ["construct", "cubeface", "--n", str(n), "--i", str(i)]
        facets = i
    else:
        n = 2
        f = tuple(F(rng.randint(1, q - 1), q) for q in (rng.choice((2, 3, 4, 5)),
                                                        rng.choice((2, 3, 4, 5))))
        alpha = F(rng.choice((2, 3, 5)), rng.choice((1, 2)))
        alpha = alpha if alpha > 1 else F(2)
        argv = ["construct", "tower", f"--f={vec_arg(f)}", f"--alpha={frac_str(alpha)}"]
        facets = n + 1

    def check(code, out):
        doc, err = expect_doc(out, code, 0)
        if err:
            return err
        body, err = output_body(doc["body"])
        if err:
            return err
        if body.dim != n or len(body.facets) != facets:
            return f"expected {facets} facets in dimension {n}"
        cert = doc["certificate"]
        if not (cert["lattice_free"] and cert["maximal"]):
            return "construction is not certified maximal lattice-free"
        if "witnesses" in doc:
            zs = [tuple(F(x) for x in z) for z in doc["witnesses"]]
            if sorted(witnessed_facet(body, z) for z in zs) != list(range(facets)):
                return "tower witnesses do not sit one per facet"
        return check_certificate(body, cert, ordered=True)
    return Query("construct", argv, check)


BUILDERS = {"check": q_check, "width": q_width, "cut": q_cut,
            "closure": q_closure, "rho": q_rho, "sandwich": q_sandwich,
            "fmetric": q_fmetric, "approx": q_approx, "construct": q_construct}


class Batches:
    """Query batches made on first use, in order, from one seeded stream.

    Each batch holds per_kind queries of every kind in a seeded order;
    its files go under work/.  Batch i is the same for a given seed however
    many batches a run uses, and no two batches share an input.
    """

    def __init__(self, seed: int, fixtures: dict, work: Path, per_kind: int):
        self._rng = random.Random(f"cli-queries:{seed}")
        self._fixtures = fixtures
        self._work = work
        self._per_kind = per_kind
        self._made = []

    def __getitem__(self, index: int) -> list:
        while len(self._made) <= index:
            b = len(self._made)
            batch = []
            for kind in KINDS:
                for k in range(self._per_kind):
                    d = self._work / f"b{b:04d}-{kind}-{k}"
                    d.mkdir(parents=True)
                    batch.append(BUILDERS[kind](self._rng, self._fixtures, d))
            self._rng.shuffle(batch)
            self._made.append(batch)
        return self._made[index]
