"""Checks that results depend on: no bare asserts in the package, the same
program under ``python -O``, and constructions certified exactly once."""

import ast
import contextlib
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
import random
import textwrap
from fractions import Fraction as F
from pathlib import Path

import latcut
from latcut import cli, constructions, geometry, lattice, scenarios
from latcut.scenarios import run_scenario

import simplex
from oracles import squared_distance_point

PACKAGE = Path(latcut.__file__).parent


def run_child(code: str, *flags: str) -> str:
    """Run code in a child Python on this session's sources; its stdout."""
    pythonpath = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    done = subprocess.run([sys.executable, *flags, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == [], f"{len(found)} assert statements: {found}"


def test_checks_raise_under_python_dash_o():
    out = run_child("""
        import dataclasses, sys
        from latcut import CertificateError, Polyhedron, constructions
        from latcut.scenarios import _lift_instances
        print(sys.flags.optimize)

        def raised(fn, *args):
            try:
                fn(*args)
            except CertificateError as exc:
                return str(exc)
            return None

        real = constructions.certify_lattice_free
        constructions.certify_lattice_free = (
            lambda p, witnesses=(): dataclasses.replace(real(p, witnesses),
                                                         maximal=False))
        print(raised(constructions.cube_face_construction, 2, 3))
        constructions.certify_lattice_free = real

        box = Polyhedron.from_generators(
            [(x, y) for x in (-10, 10) for y in (-10, 10)])
        constructions._lift_core = lambda lp0, f0, d: box
        print(raised(constructions.lift_to_nplus1, *_lift_instances()[0]))
    """, "-O")
    assert out.splitlines() == ["1",
                                "cube-face body is not maximal lattice-free",
                                "lifted body is not lattice-free"]


def test_a_wrong_stored_inverse_raises_under_python_dash_o():
    out = run_child("""
        import sys
        from fractions import Fraction as F
        from latcut import CertificateError, UnimodularMap
        print(sys.flags.optimize)
        m = ((F(1), F(1)), (F(0), F(1)))
        for inv in [((F(1), F(1)), (F(0), F(1))), ((F(1), F(-1)),)]:
            try:
                UnimodularMap(m, (F(0), F(0)), inv)
            except CertificateError as exc:
                print(exc)
        print(UnimodularMap(m, (F(0), F(0)), ((F(1), F(-1)), (F(0), F(1))))
              == UnimodularMap.make(m))
    """, "-O")
    assert out.splitlines() == [
        "1", *["stored inverse is not the integer inverse of the matrix"] * 2,
        "True"]


def test_scenario_reports_are_the_same_under_python_dash_o():
    code = """
        import json
        from latcut.scenarios import SCENARIOS, run_scenario
        sizes = {"rho-closed-form": {"trials": 2},
                 "one-for-all-sandwich": {"instances": 3},
                 "gauge-metric-properties": {"checks": 8},
                 "split-vs-triangles": {"count": 2, "tmax": 16},
                 "approximation-factors": {"count": 1},
                 "inapprox-witnesses": {"samples": 4},
                 "truncated-cone-shrink": {"count": 10}}
        for name in SCENARIOS:
            obj = run_scenario(name, sizes.get(name, {})).to_obj()
            obj.pop("wall_time_s")
            print(json.dumps(obj, sort_keys=True))
    """
    plain = run_child(code)
    assert len(plain.splitlines()) == 9
    assert all(json.loads(line)["passed"] for line in plain.splitlines())
    assert run_child(code, "-O") == plain


def counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_facet_searches_per_scenario(monkeypatch):
    # each construction certifies its body once, from the witnesses it
    # holds, and hands the certificate on: only a pyramid's base (one per
    # pyramid) and growth's facets that no kept witness covers are searched
    # (the search route searched 44 in cubeface-census, 32 in
    # inapprox-witnesses, 76 in approximation-factors and 19 in
    # gauge-metric-properties)
    calls = counting(monkeypatch, lattice, "facet_interior_lattice_point")
    counts = {}
    for name in scenarios.SCENARIOS:
        calls.clear()
        assert run_scenario(name).passed
        counts[name] = len(calls)
    assert counts == {
        "cubeface-census": 0, "split-vs-triangles": 0, "rho-closed-form": 0,
        "one-for-all-sandwich": 0, "truncated-cone-shrink": 0,
        "lifting-end-to-end": 0, "approximation-factors": 24,
        "inapprox-witnesses": 2, "gauge-metric-properties": 0}, counts


def test_constructions_search_no_facet_they_witness(monkeypatch):
    # cube faces and towers witness every facet themselves; a pyramid
    # witnesses its side facets by the base's witnesses and searches its base
    calls = counting(monkeypatch, lattice, "facet_interior_lattice_point")
    for n in (1, 2, 3):
        for i in range(2, 2 ** n + 1):
            constructions.cube_face_construction(n, i)
    for f in (F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(1, 2), F(1, 3), F(1, 5)):
        for alpha in (F(2), F(5, 2), F(3), F(10)):
            constructions.simplex_tower(f, alpha)
    counts = {"cube faces and towers": len(calls)}
    seg = geometry.Polyhedron.from_generators([(0,), (1,)])
    diam = constructions.cube_face_construction(2, 4).body
    for l, c, zs in ((seg, (F(1, 2),), [(0,), (1,)]),
                     (diam, (F(1, 2), F(1, 2)), [(0, 0), (1, 1), (1, 0), (0, 1)])):
        calls.clear()
        constructions.inapprox_pyramid(l, c, zs, constructions.shrink_epsilon(l, c, zs),
                                       F(1, 2))
        counts[l.dim + 1] = len(calls)
    # growth searches its input's facets once, then only the facets that no
    # kept witness and no push's end point covers: the sliver is dropped
    # twice and pushed twice, the triangle pushed once (15 and 6 searches
    # when each certificate searched every facet)
    for name, pts in (("sliver", [(0, F(1, 4)), (1, F(1, 4)), (0, F(1, 2)), (1, F(1, 2))]),
                      ("triangle", [(0, 0), (F(3, 2), 0), (0, F(3, 2))])):
        calls.clear()
        lattice.grow_to_maximal(geometry.Polyhedron.from_generators(pts))
        counts[name] = len(calls)
    assert counts == {"cube faces and towers": 0, 2: 1, 3: 1,
                      "sliver": 10, "triangle": 3}, counts


def test_bad_witnesses_raise_under_python_dash_o():
    # a given witness that is fractional, on its facet's plane but off the
    # facet, outside the body, strictly inside it, or tight on two rows is
    # refused with CertificateError, under python -O too; the good ones
    # pass and give the search route's decisions
    code = """
        import random, sys
        from fractions import Fraction as F
        from itertools import product
        from latcut import CertificateError, Polyhedron, constructions, lattice
        print(sys.flags.optimize)
        rng = random.Random(33)
        bodies = [constructions.cube_face_construction(n, i).body
                  for n, i in ((2, 3), (2, 4), (3, 5), (3, 8))]
        bodies += [constructions.simplex_tower(f, a).body for f, a in (
            ((F(1, 2), F(1, 3)), F(3)), ((F(1, 2), F(1, 3), F(1, 5)), F(5, 2)))]
        bodies.append(Polyhedron.from_generators(
            [(x, y) for x in (-1, 2) for y in (-1, 2)]))  # not lattice-free

        def kind(p, z):
            slacks = [z0 + sum(a * x for a, x in zip(row, z)) for z0, *row in p.rows]
            tight = slacks.count(0)
            if tight == 1:
                return "off-facet" if max(slacks) > 0 else "good"
            if tight > 1:
                return "two-rows" if max(slacks) == 0 else "off-facet"
            return "outside" if max(slacks) > 0 else "interior"

        refused = {}
        for p in bodies:
            lo = [min(v[i] for v in p.vertices) - 1 for i in range(p.dim)]
            hi = [max(v[i] for v in p.vertices) + 1 for i in range(p.dim)]
            by_kind = {}
            for z in product(*(range(int(a) - 1, int(b) + 2) for a, b in zip(lo, hi))):
                by_kind.setdefault(kind(p, z), []).append(z)
            good = by_kind.pop("good", [])
            search = lattice.certify_lattice_free(p)
            cert = lattice.certify_lattice_free(p, good)
            assert (cert.lattice_free, cert.maximal) == (
                search.lattice_free, search.maximal)
            bad = {k: rng.choice(zs) for k, zs in sorted(by_kind.items())}
            if good:
                z = rng.choice(good)
                bad["fractional"] = (z[0] + F(1, 2),) + z[1:]
            for k, z in sorted(bad.items()):
                given = good[:]
                given.insert(rng.randrange(len(given) + 1), z)
                try:
                    lattice.certify_lattice_free(p, given)
                except CertificateError:
                    refused[k] = refused.get(k, 0) + 1
                else:
                    print("accepted", k, z)
        print(sorted(refused.items()))
    """
    out = run_child(code, "-O")
    assert out.splitlines() == ["1", "[('fractional', 7), ('interior', 1), "
                                "('off-facet', 7), ('outside', 7), ('two-rows', 4)]"], out


def test_no_module_imports_the_simplex():
    # the lift separates and picks its Caratheodory subset in closed form:
    # the simplex is a test reference, and no module imports or defines an
    # LP or the LP separator
    assert not (PACKAGE / "simplex.py").exists()
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(a.name for a in node.names)]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name]
            else:
                continue
            if any(name.rsplit(".", 1)[-1] in ("simplex", "separate", "solve_ineq")
                   for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], found


def test_scan_candidates_and_lp_calls_per_scenario(monkeypatch):
    # exact work at default parameters, the same on any host: one _interval
    # call per lattice column scanned (and per planar facet line), and the
    # LPs solved by the reference simplex or by any solve_ineq a module
    # binds: the lift separates in closed form and solves none
    candidates = counting(monkeypatch, lattice, "_interval")
    lps = [counting(monkeypatch, module, "solve_ineq")
           for module in (simplex, *(m for n, m in sorted(sys.modules.items())
                                     if n.startswith("latcut.")
                                     and hasattr(m, "solve_ineq")))]
    counts = {}
    for name in ("cubeface-census", "lifting-end-to-end", "inapprox-witnesses",
                 "approximation-factors"):
        candidates.clear()
        for calls in lps:
            calls.clear()
        assert run_scenario(name).passed
        counts[name] = (len(candidates), sum(map(len, lps)))
    # constructions search no facet they witness (cubeface-census scanned
    # 118, inapprox-witnesses 1538 and approximation-factors 879 when every
    # facet was searched), so none of these scans a 3-d slab's facet
    assert counts == {"cubeface-census": (59, 0),
                      "lifting-end-to-end": (120, 0),
                      "inapprox-witnesses": (1447, 0),
                      "approximation-factors": (813, 0)}, counts


def test_width_runs_one_conversion_and_no_lp(monkeypatch):
    # a finite width converts the polar of its projection's difference body
    # once and reads both search bounds off its vertices; an infinite one
    # converts nothing, and no width builds an image of a body or solves an LP
    conversions = counting(monkeypatch, geometry, "cone_dd")
    lps = counting(monkeypatch, simplex, "solve_ineq")
    images = counting(monkeypatch, geometry, "_image")
    counts = {}
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.json")):
        p = latcut.parse_polyhedron(path.read_text())
        assert p.fulldim
        conversions.clear()
        finite = lattice.lattice_width(p).width is not None
        counts[path.stem] = (finite, len(conversions), len(images), len(lps))
    assert len(counts) == 20
    assert {name for name, c in counts.items() if not c[0]} == {
        "quadrant", "ray_1d", "wedge"}, counts
    assert all(c[1:] == (int(c[0]), 0, 0) for c in counts.values()), counts


def test_unbounded_interior_search_is_one_pass(monkeypatch):
    # every unbounded body is projected along its rays and scanned once: no
    # image, level slice, conversion, kernel or rank, and no recursion
    rng = random.Random(25)
    gens = [([(0, 0, 0), (0, 0, 2)], [(1, 2, 0), (-3, 1, 0)]),
            ([(F(1, 2), F(1, 3), F(1, 5))], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            ([(0, 0, F(1, 2)), (1, 3, F(1, 3)), (0, 1, 0)], [(2, 1, 0)]),
            ([(0, 0, 0), (0, 1, 1)], [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]),
            ([(F(7, 2),)], [(-1,)])]
    bodies = [geometry.Polyhedron.from_generators(v, r) for v, r in gens]
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.json")):
        bodies.append(latcut.parse_polyhedron(path.read_text()))
    bodies = [p for p in bodies if p.rays]
    bodies += [geometry.transform(p, scenarios.random_unimodular(rng, p.dim))
               for p in bodies]
    calls = {"_image": counting(monkeypatch, geometry, "_image"),
             "level_slice": counting(monkeypatch, geometry, "level_slice"),
             "cone_dd": counting(monkeypatch, geometry, "cone_dd"),
             "kernel_basis": counting(monkeypatch, latcut.linalg, "kernel_basis"),
             "rank": counting(monkeypatch, latcut.linalg, "rank")}
    searches = counting(monkeypatch, lattice, "interior_lattice_point")
    found = 0
    for p in bodies:
        found += lattice.interior_lattice_point(p) is not None
    counts = {name: len(c) for name, c in calls.items()}
    assert len(bodies) >= 20 and found >= 10, (len(bodies), found)
    assert len(searches) == len(bodies), len(searches)
    assert not any(counts.values()), counts


def test_lattice_keeps_one_int_frame():
    # the lattice searches turn int rows and points by alignment_int pairs:
    # no image of a body, no UnimodularMap, no quotient by the lineality;
    # and they bind no slice of their own, so the counts of
    # geometry.level_slice in the search tests see every slice they make
    for name in ("transform", "UnimodularMap", "_level_map", "_split_off_lineality",
                 "level_slice", "fix_last_axis"):
        assert not hasattr(lattice, name), name
    assert not hasattr(latcut.linalg, "alignment_unimodular")


def test_scalings_build_no_image(monkeypatch):
    # every scaling, flat or not, is one closed form on ints: no image under
    # a Fraction diagonal map, so truncated-cone-shrink, which rescales flat
    # bases level by level, builds none (a flat route through diagonal
    # images built 300)
    images = counting(monkeypatch, geometry, "_image")
    assert run_scenario("truncated-cone-shrink").passed
    counts = {"truncated-cone-shrink": len(images)}
    images.clear()
    eyes = counting(monkeypatch, latcut.linalg, "identity")
    flat = [geometry.Polyhedron.from_generators(v, r) for v, r in (
        ([(0, 1), (1, 1)], []),
        ([(1, F(1, 3))], [(2, 1)]),
        ([(F(7, 2),)], []),
        ([(0, 1, 2), (3, 1, 1)], []),
        ([(0, 0, F(1, 2)), (2, 1, F(1, 2)), (1, 3, F(1, 2))], []),
        ([(F(1, 2), 0, 1)], [(1, 1, 0), (-1, -1, 0)]),
        ([(0, 0, 0), (1, 0, 1)], [(0, 1, 0), (0, -1, 0), (1, 0, 1)]))]
    assert not any(p.fulldim for p in flat)
    for p in flat:
        shift = (F(-2, 3), 1, F(5, 2))[:p.dim]
        geometry.minkowski_scale_shift(p, F(5, 3), shift)
        geometry.homothety(p, shift, F(2, 7))
        geometry.translate(p, shift)
    counts["flat"] = (len(images), len(eyes))
    assert counts == {"truncated-cone-shrink": 0, "flat": (0, 0)}, counts


def test_one_canonical_form_pass_per_conversion(monkeypatch):
    # _assemble runs only on the output of a conversion, which hands it its
    # zero sets: the constructors are its only callers, and no facet search,
    # image, homothety or polar assembles a body, so over the nine scenarios
    # at default parameters it runs exactly as often as cone_dd; the lift's
    # separators are closed forms and convert no region beyond a facet, and
    # a scenario run converts each of its fixed bodies once (230, 79 and 20
    # when split-vs-triangles, the lift and the gauge checks rebuilt them)
    assembled = counting(monkeypatch, geometry.Polyhedron, "_assemble")
    conversions = counting(monkeypatch, geometry, "cone_dd")
    counts = {}
    for name in scenarios.SCENARIOS:
        assembled.clear()
        conversions.clear()
        assert run_scenario(name).passed
        counts[name] = (len(assembled), len(conversions))
    assert all(a == c for a, c in counts.values()), counts
    assert {name: a for name, (a, _) in counts.items()} == {
        "cubeface-census": 10, "split-vs-triangles": 166, "rho-closed-form": 400,
        "one-for-all-sandwich": 191, "truncated-cone-shrink": 150,
        "lifting-end-to-end": 69, "approximation-factors": 113,
        "inapprox-witnesses": 66, "gauge-metric-properties": 11}, counts


def test_scenarios_build_each_fixed_body_once(monkeypatch):
    # a scenario run builds each of its fixed bodies once: split-vs-triangles
    # shares base_triangle(t) between its distance and coefficient checks,
    # the lift instances build each t once and take d from t = 1, and the
    # four gauge checks share their triangles, split and 3 x 2 box (each
    # check built its own, and split-vs-triangles built every t twice)
    triangles = counting(monkeypatch, scenarios, "base_triangle")
    splits = counting(monkeypatch, scenarios, "split_along")
    gens = counting(monkeypatch, geometry.Polyhedron, "from_generators")
    box = [(0, 0), (3, 0), (0, 2), (3, 2)]
    runs = [(name, None) for name in (
        "split-vs-triangles", "lifting-end-to-end", "gauge-metric-properties")]
    # the polar-metric benchmark's shapes
    runs += [(name, dict(params, seed=seed)) for seed in (7, 13)
             for name, params in (("gauge-metric-properties", {"checks": 8}),
                                  ("split-vs-triangles", {"count": 2, "tmax": 16}))]
    for name, params in runs:
        for calls in (triangles, splits, gens):
            calls.clear()
        report = run_scenario(name, params)
        assert report.passed
        ts = [t for t, in triangles]
        if name == "split-vs-triangles":
            assert ts == list(range(1, report.params["tmax"] + 1)), (params, ts)
        elif name == "lifting-end-to-end":
            assert ts == [1, 2, 3], ts
        else:
            boxes = sum(args[0] == box for args in gens)
            assert len(ts) <= 3 and len(set(ts)) == len(ts), (params, ts)
            assert (len(splits), boxes) == (1, 1), (params, len(splits), boxes)


def test_pointed_conversions_take_no_basis_and_reduce_nothing(monkeypatch):
    # with no lineality and no implicit equality _reduce is the identity, so
    # _assemble skips both reductions and both canonical bases: over the 400
    # full-dimensional polytopes rho-closed-form converts, no _reduce and no
    # la.rref_int call is made inside a conversion
    reduces = counting(monkeypatch, geometry, "_reduce")
    rrefs = counting(monkeypatch, latcut.linalg, "rref_int")
    real = geometry.Polyhedron._assemble
    made = []

    def assemble(*args, **incidence):
        before = len(reduces), len(rrefs)
        p = real(*args, **incidence)
        made.append((p, len(reduces) - before[0], len(rrefs) - before[1]))
        return p

    monkeypatch.setattr(geometry.Polyhedron, "_assemble", staticmethod(assemble))
    assert run_scenario("rho-closed-form").passed
    assert len(made) == 400
    assert all(p.fulldim and p.is_bounded() for p, _, _ in made)
    assert [(r, k) for _, r, k in made if r or k] == []


def test_truncated_cone_shrink_reuses_the_far_base(monkeypatch):
    # TruncatedCone.make builds the far base for the hull and the cone keeps
    # it, so a cone and its shrink make one minkowski_scale_shift call
    # between them: 14 over the certify-construct benchmark load at seed 7
    # (10 truncated-cone-shrink cones and 4 lifts), 28 when each shrink
    # rebuilt it
    scalings = counting(monkeypatch, constructions, "minkowski_scale_shift")
    cones = counting(monkeypatch, constructions.TruncatedCone, "make")
    shrinks = []
    real = constructions.truncated_cone_shrink

    def shrink(cone, f):
        shrinks.append(cone)
        return real(cone, f)

    for module in (constructions, scenarios):
        monkeypatch.setattr(module, "truncated_cone_shrink", shrink)
    for name, params in (("cubeface-census", {}),
                         ("approximation-factors", {"count": 1, "seed": 7}),
                         ("lifting-end-to-end", {}),
                         ("inapprox-witnesses", {"samples": 4, "seed": 7}),
                         ("truncated-cone-shrink", {"count": 10, "seed": 7})):
        assert run_scenario(name, params).passed
    assert (len(scalings), len(cones), len(shrinks)) == (14, 14, 14)


def test_polars_and_frames_are_built_once_per_body(monkeypatch):
    # each body keeps its polar per center and its face frames, so the
    # polar metric builds each once: gauge-metric-properties measures 6
    # bodies 4,000 times at default parameters and builds 6 of each (it
    # built 4,000 when every f_metric call rebuilt both)
    polars = counting(monkeypatch, geometry, "_polar")
    frames = counting(monkeypatch, geometry, "_face_frames")
    runs = [(name, None) for name in scenarios.SCENARIOS]
    # the polar-metric benchmark's shapes
    runs += [(name, dict(params, seed=seed)) for seed in (7, 13)
             for name, params in (("gauge-metric-properties", {"checks": 8}),
                                  ("split-vs-triangles", {"count": 2, "tmax": 16}))]
    counts = {}
    for name, params in runs:
        polars.clear()
        frames.clear()
        assert run_scenario(name, params).passed
        counts[name if params is None else (name, params["seed"])] = (
            len(polars), len(frames))
    assert counts == {
        "cubeface-census": (0, 0), "split-vs-triangles": (65, 65),
        "rho-closed-form": (0, 0), "one-for-all-sandwich": (0, 0),
        "truncated-cone-shrink": (0, 0), "lifting-end-to-end": (0, 0),
        "approximation-factors": (0, 0), "inapprox-witnesses": (0, 0),
        "gauge-metric-properties": (6, 6),
        ("gauge-metric-properties", 7): (5, 5), ("split-vs-triangles", 7): (17, 17),
        ("gauge-metric-properties", 13): (5, 5), ("split-vs-triangles", 13): (17, 17),
    }, counts


def test_adjacency_scans_only_pairs_that_share_enough_rows(monkeypatch):
    # a pair of rays whose zero sets share fewer than d - l - 2 rows is not
    # adjacent and gets no scan for a third ray; on these bodies every pair
    # scanned is adjacent (without the bound: 422 scans)
    rng = random.Random(28)
    f = (F(1, 2), F(1, 3), F(1, 5))
    bodies = [scenarios.random_polytope_around(rng, f) for _ in range(10)]
    scans = []
    real = geometry._adjacent

    def recording(common, masks):
        scans.append(real(common, masks))
        return scans[-1]

    monkeypatch.setattr(geometry, "_adjacent", recording)
    for p in bodies:
        geometry.Polyhedron.from_generators(p.vertices, p.rays, 3)
        geometry.Polyhedron.from_halfspaces(p.halfspaces, 3)
    assert (len(scans), sum(scans)) == (202, 202)


def test_every_error_class_is_raised():
    # an error class that nothing in the package raises is dead API
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    errors = {"LatcutError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in errors for b in node.bases):
            errors.add(node.name)
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert len(errors) > 10
    assert sorted(errors - raised) == ["LatcutError"], errors - raised


def test_inversions_per_scenario(monkeypatch):
    # a unimodular map is inverted once, when it is made without its
    # inverse; transform, UnimodularMap.inverse and the lattice searches
    # read the stored one, the constructions hand their maps the inverse
    # they already hold, and the unimodular echelons track their own
    calls = counting(monkeypatch, latcut.linalg, "inverse")
    ceilings = {"cubeface-census": 0, "approximation-factors": 60,
                "lifting-end-to-end": 0, "inapprox-witnesses": 0,
                "truncated-cone-shrink": 0}
    counts = {}
    for name in ceilings:
        calls.clear()
        assert run_scenario(name).passed
        counts[name] = len(calls)
    assert all(counts[name] <= ceilings[name] for name in ceilings), counts


def test_transform_scales_nothing(monkeypatch):
    # a unimodular map builds its int pair once, from its integer fields,
    # and transform reads it: no _scaled call on any image, where each
    # transform scaled the map's Fraction matrices twice; the pair is no
    # field, so equality, hash and repr are the map's alone, and
    # affine_image, which scales its own matrix, gives the same image
    rng = random.Random(33)
    bodies = [latcut.parse_polyhedron(path.read_text())
              for path in sorted((Path(__file__).parent / "fixtures").glob("*.json"))]
    maps = [scenarios.random_unimodular(rng, p.dim) for p in bodies]
    shown = [(repr(t), hash(t)) for t in maps]
    scaled = counting(monkeypatch, geometry, "_scaled")
    images = [geometry.transform(p, t) for p, t in zip(bodies, maps) for _ in range(2)]
    assert len(scaled) == 0
    assert [(repr(t), hash(t)) for t in maps] == shown
    assert all(t == geometry.UnimodularMap(t.matrix, t.shift) for t in maps)
    assert images[::2] == [geometry.affine_image(p, t.matrix, t.shift)
                           for p, t in zip(bodies, maps)]
    assert len(scaled) == 2 * len(bodies)


def test_kernel_bases_per_scenario(monkeypatch):
    # the constructors read the lineality off the generators tight on every
    # row, the alignments read theirs off the rref table, and
    # _zero_combination reads its weights off one rref per subset
    calls = counting(monkeypatch, latcut.linalg, "kernel_basis")
    ceilings = {"cubeface-census": 0, "approximation-factors": 0,
                "lifting-end-to-end": 0, "inapprox-witnesses": 0,
                "truncated-cone-shrink": 0}
    counts = {}
    for name in ceilings:
        calls.clear()
        assert run_scenario(name).passed
        counts[name] = len(calls)
    assert all(counts[name] <= ceilings[name] for name in ceilings), str(counts)


def test_bounded_3d_facet_search_builds_no_sub_body(monkeypatch):
    # a bounded facet of a 3-d body is rotated, levelled and scanned on int
    # rows: no Fraction matrix work, no half-space normalisation, no level
    # fix and no assembled 2-d body
    rng = random.Random(24)
    f = (F(1, 2), F(1, 3), F(1, 5))
    bodies = [scenarios.random_polytope_around(rng, f) for _ in range(4)]
    bodies += [constructions.cube_face_construction(3, i).body for i in (4, 8)]
    calls = {name: counting(monkeypatch, latcut.linalg, name)
             for name in ("mat_vec", "inverse", "kernel_basis")}
    calls["make"] = counting(monkeypatch, geometry.HalfSpace, "make")
    calls["_assemble"] = counting(monkeypatch, geometry.Polyhedron, "_assemble")
    calls["level_slice"] = counting(monkeypatch, geometry, "level_slice")
    witnesses = 0
    for p in bodies:
        assert p.dim == 3 and p.is_bounded()
        for j in range(len(p.halfspaces)):
            witnesses += lattice.facet_interior_lattice_point(p, j) is not None
    counts = {name: len(c) for name, c in calls.items()}
    assert witnesses >= 15
    assert not any(counts.values()), counts


def test_construct_certifies_once(monkeypatch):
    calls = counting(monkeypatch, lattice, "certify_lattice_free")
    for module in (constructions, cli):
        monkeypatch.setattr(module, "certify_lattice_free",
                            lattice.certify_lattice_free)
    for argv in (["construct", "cubeface", "--n", "3", "--i", "5"],
                 ["construct", "tower", "--f", "1/2,1/3,1/5", "--alpha", "10"]):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert len(calls) == 1, argv


def test_census_and_interior_points_build_no_fraction_view(monkeypatch):
    # the census detail counts the int points, and interior_point_of sums
    # them over their common denominator: neither builds a vertices view,
    # and the point and the rng draws are those of the Fraction-weighted mean
    rng = random.Random(83)
    f = (F(1, 2), F(1, 3), F(1, 5))
    bodies = [scenarios.random_polytope_around(rng, f[:n])
              for n in (1, 2, 3, 3) for _ in range(3)]
    wanted = []
    for k, p in enumerate(bodies):
        draws = random.Random(k)
        weights = [F(draws.randint(1, 4)) for _ in p.vertices]
        wanted.append((tuple(sum(w * v[i] for w, v in zip(weights, p.vertices))
                             / sum(weights) for i in range(p.dim)),
                       draws.getstate()))
    views = counting(monkeypatch, vars(geometry.Polyhedron)["vertices"], "func")
    assert run_scenario("cubeface-census").passed
    for k, p in enumerate(bodies):
        draws = random.Random(k)
        x = scenarios.interior_point_of(draws, dataclasses.replace(p))
        assert (x, draws.getstate()) == wanted[k]
    assert not views, len(views)


def test_gauge_metric_builds_each_cube_face_body_once(monkeypatch):
    # the four checks share one body per (n, i): (2, 4) and up to three
    # 3-d bodies, where each check's pool used to build its own
    calls = counting(monkeypatch, scenarios, "cube_face_construction")
    for seed in (0, 7, 1007, 2007):
        calls.clear()
        assert run_scenario("gauge-metric-properties",
                            {"checks": 8, "seed": seed}).passed
        assert len(calls) <= 4 and len(calls) == len(set(calls)), (seed, calls)


def test_int_kernels_make_no_dot_or_mat_vec_calls(monkeypatch):
    # containment, homotheties, images and both constructors take their own
    # int copies: no linalg.dot or linalg.mat_vec on their Fraction values,
    # and no linalg.kernel_basis (the lineality is read off the generators)
    rng = random.Random(3)
    f = (F(1, 2), F(1, 3), F(1, 5))
    bodies = [scenarios.random_polytope_around(rng, f) for _ in range(4)]
    cylinder = geometry.Polyhedron.from_generators(
        [(0, 0, 0), (2, 1, 0), (1, 3, 0)], [(0, 0, 1), (0, 0, -1)])
    flat = geometry.Polyhedron.from_generators([(0, 1, 2), (3, 1, 1)])
    bodies += [cylinder, flat]
    maps = [scenarios.random_unimodular(rng, 3) for _ in bodies]
    dots = counting(monkeypatch, latcut.linalg, "dot")
    monkeypatch.setattr(geometry, "dot", latcut.linalg.dot)
    mat_vecs = counting(monkeypatch, latcut.linalg, "mat_vec")
    kernels = counting(monkeypatch, latcut.linalg, "kernel_basis")
    runs = {
        "contains": lambda p, q, t: p.contains(q),
        "contains_in_interior": lambda p, q, t: p.contains_in_interior(q),
        "minkowski_scale_shift":
            lambda p, q, t: geometry.minkowski_scale_shift(p, F(3, 2), f),
        "transform": lambda p, q, t: geometry.transform(p, t),
        "from_halfspaces":
            lambda p, q, t: geometry.Polyhedron.from_halfspaces(p.halfspaces, 3),
        "from_generators": lambda p, q, t: geometry.Polyhedron.from_generators(
            p.vertices, p.rays, 3),
    }
    counts = {}
    for name, run in runs.items():
        dots.clear()
        mat_vecs.clear()
        kernels.clear()
        for p, t in zip(bodies, maps):
            for q in bodies:
                run(p, q, t)
        counts[name] = (len(dots), len(mat_vecs), len(kernels))
    assert all(c == (0, 0, 0) for c in counts.values()), str(counts)


def test_distance_walks_make_no_fraction_vector_calls(monkeypatch):
    # the Hausdorff and point-distance walks take one int scale per call: no
    # linalg.dot or vsub and no HalfSpace.eval_slack on Fractions
    rng = random.Random(5)
    f = (F(1, 2), F(1, 3), F(1, 5))
    bodies = [scenarios.random_polytope_around(rng, f) for _ in range(3)]
    bodies.append(geometry.Polyhedron.from_generators(
        [(0, 0, 0), (2, 1, 0), (1, 3, 0)], [(0, 0, 1), (0, 0, -1)]))
    polars = [geometry.polar(b, f) for b in bodies[:3]]
    polars.append(geometry.polar(bodies[3], (1, F(4, 3), 7)))
    assert not polars[-1].fulldim
    points = [(F(1, 3), F(-2, 5), 1), (0, 0, 0), (F(7, 2), 1, F(-1, 6))]
    calls = {name: counting(monkeypatch, latcut.linalg, name)
             for name in ("dot", "vsub")}
    monkeypatch.setattr(geometry, "dot", latcut.linalg.dot)
    calls["eval_slack"] = counting(monkeypatch, geometry.HalfSpace, "eval_slack")
    runs = {
        "hausdorff_sq": lambda p: [geometry.hausdorff_sq(p, q) for q in polars],
        "squared_distance_point":
            lambda p: [squared_distance_point(x, p) for x in points],
    }
    counts = {}
    for name, run in runs.items():
        for c in calls.values():
            c.clear()
        for p in polars:
            run(p)
        counts[name] = {k: len(c) for k, c in calls.items()}
    assert all(not any(c.values()) for c in counts.values()), str(counts)


def test_hot_chain_builds_no_fraction_view(monkeypatch):
    # the strength and polar-metric chains read and write the stored int
    # form: no halfspaces, vertices, rays or lineality view is built, on the
    # inputs (fresh copies, so nothing is cached) or on any body in between
    rng = random.Random(26)
    f = (F(1, 2), F(1, 3), F(1, 5))
    bodies = [scenarios.random_polytope_around(rng, f) for _ in range(4)]
    bodies.append(geometry.Polyhedron.from_generators(
        [(0, 0, 0), (2, 1, 0), (1, 3, 0)], [(0, 0, 1), (0, 0, -1)]))
    maps = [scenarios.random_unimodular(rng, 3) for _ in bodies]
    views = {}
    for name in ("halfspaces", "vertices", "rays", "lineality"):
        prop = vars(geometry.Polyhedron)[name]
        views[name] = counting(monkeypatch, prop, "func")
    runs = {
        "homothety-contains": lambda b, l, t: geometry.homothety(
            b, f, F(7, 3)).contains(l),
        "translate": lambda b, l, t: geometry.translate(b, (1, F(-2, 3), 4)),
        "level_slice": lambda b, l, t: geometry.level_slice(b, f[-1]),
        "transform": lambda b, l, t: geometry.transform(b, t),
        "gauge": lambda b, l, t: latcut.cuts.gauge(b, f, (F(3, 2), -1, 2)),
        "relative_strength": lambda b, l, t: latcut.strength.relative_strength(
            b, l, f),
        "polar-hausdorff_sq": lambda b, l, t: geometry.hausdorff_sq(
            geometry.polar(b, f), geometry.polar(l, f)),
    }
    counts = {}
    for name, run in runs.items():
        for c in views.values():
            c.clear()
        for b, t in zip(bodies, maps):
            for l in bodies[:4]:
                fresh = [dataclasses.replace(p) for p in (b, l)]
                run(*fresh, t)
        counts[name] = {k: len(c) for k, c in views.items()}
    # the lattice searches read the int form too: the certificate, the width
    # and growth in the plane, each on a fresh copy of its input
    planar = [geometry.Polyhedron.from_generators(v, r) for v, r in (
        ([(0, 0), (F(3, 2), 0), (0, F(3, 2))], []),
        ([(0, 0), (1, 0), (2, 1)], []),
        ([(0, 0), (1, 0)], [(0, 1)]))]
    searches = {
        "certify_lattice_free": (bodies + planar, lattice.certify_lattice_free),
        "lattice_width": (bodies + planar, lattice.lattice_width),
        "grow_to_maximal": (planar, lattice.grow_to_maximal),
    }
    for name, (inputs, run) in searches.items():
        for c in views.values():
            c.clear()
        for p in inputs:
            run(dataclasses.replace(p))
        counts[name] = {k: len(c) for k, c in views.items()}
    assert all(not any(c.values()) for c in counts.values()), str(counts)


def test_constructions_build_no_fraction_view(monkeypatch):
    # the lift, truncated cones, towers, pyramids, cube faces and segment
    # tests read and write the stored int form: no halfspaces, vertices,
    # rays or lineality view is built on their inputs (fresh copies) or on
    # any body in between; segment_meets, _last_axis_range and the
    # TruncatedCone methods make no linalg.dot call
    shrinks = []
    real_shrink = scenarios.truncated_cone_shrink
    monkeypatch.setattr(scenarios, "truncated_cone_shrink",
                        lambda cone, f: shrinks.append((cone, f)) or real_shrink(cone, f))
    assert run_scenario("truncated-cone-shrink").passed
    monkeypatch.undo()
    views = {}
    for name in ("halfspaces", "vertices", "rays", "lineality"):
        views[name] = counting(monkeypatch, vars(geometry.Polyhedron)[name], "func")
    fresh = dataclasses.replace
    lifts = scenarios._lift_instances()
    fs = (F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(1, 2), F(1, 3), F(1, 5))
    towers = [(f, alpha, constructions.simplex_tower(f, alpha))
              for f in fs for alpha in (F(2), F(10))]
    seg = geometry.Polyhedron.from_generators([(0,), (1,)])
    diam = constructions.cube_face_construction(2, 4).body
    pyramids = [(seg, (F(1, 2),), [(F(0),), (F(1),)]),
                (diam, (F(1, 2), F(1, 2)), [(F(0), F(0)), (F(1), F(1)),
                                            (F(1), F(0)), (F(0), F(1))])]

    def pyramid(l, c, zs):
        l = fresh(l)
        constructions.inapprox_pyramid(
            l, c, zs, constructions.shrink_epsilon(l, c, zs), F(1, 2))

    def segments(f, alpha, tw):
        shrunk = geometry.homothety(fresh(tw.body), f, 1 / alpha)
        for zi, zj in itertools.combinations(tw.witnesses, 2):
            constructions.segment_meets(shrunk, zi, zj)

    runs = {
        "lift_to_nplus1": lambda: [
            constructions.lift_to_nplus1(fresh(l), f, g, fresh(d), t)
            for l, f, g, d, t in lifts],
        "truncated_cone": lambda: [constructions.truncated_cone_shrink(
            constructions.TruncatedCone.make(fresh(c.base), c.alpha, c.shift), f)
            for c, f in shrinks],
        "simplex_tower": lambda: [constructions.simplex_tower(f, alpha)
                                  for f in fs for alpha in (F(2), F(10))],
        "inapprox_pyramid": lambda: [pyramid(*case) for case in pyramids],
        "cube_face_construction": lambda: [
            constructions.cube_face_construction(n, i)
            for n in (1, 2, 3) for i in range(2, 2 ** n + 1)],
        "segment_meets": lambda: [segments(*tower) for tower in towers],
    }
    counts = {}
    for name, run in runs.items():
        for c in views.values():
            c.clear()
        run()
        counts[name] = {k: len(c) for k, c in views.items()}
    assert len(shrinks) == 50
    assert all(not any(c.values()) for c in counts.values()), str(counts)
    # the int kernels of the constructions make no linalg.dot call
    dots = counting(monkeypatch, latcut.linalg, "dot")
    monkeypatch.setattr(constructions, "dot", latcut.linalg.dot)
    for c, f in shrinks:
        cone = constructions.TruncatedCone.make(c.base, c.alpha, c.shift)
        cone.transverse_coordinate(f)
        cone.slice_at(F(1, 2))
    for l, f, g, d, t in lifts:
        constructions._last_axis_range(geometry.homothety(l, f, g))
    runs["segment_meets"]()
    assert not dots, len(dots)
