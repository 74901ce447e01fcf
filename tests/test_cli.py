"""Command-line interface: outputs, exit codes, seeds, and error paths."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import latcut
from latcut import constructions
from latcut.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def package_env():
    """The environment with the imported package first on PYTHONPATH, so a
    child Python runs the same sources as this session."""
    pythonpath = [str(Path(latcut.__file__).parents[1]),
                  os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_construct_cubeface_emits_body_and_certificate(capsys):
    code, doc = run_json(capsys, "construct", "cubeface", "--n", "2", "--i", "3")
    assert code == 0
    assert len(doc["body"]["hrep"]) == 3
    assert doc["certificate"]["lattice_free"] is True
    assert doc["certificate"]["maximal"] is True
    assert all(w is not None for w in doc["certificate"]["facet_witnesses"])


def test_construct_tower_emits_witnesses(capsys):
    code, doc = run_json(capsys, "construct", "tower",
                         "--f", "1/2,1/3", "--alpha", "3/1")
    assert code == 0
    assert len(doc["body"]["hrep"]) == 3
    assert len(doc["witnesses"]) == 3
    assert doc["certificate"]["maximal"] is True


def test_check_exit_codes_follow_the_verdict(capsys, tmp_path):
    code, doc = run_json(capsys, "check", str(FIXTURES / "diamond.json"))
    assert code == 0 and doc["lattice_free"] is True
    code, doc = run_json(capsys, "check", str(FIXTURES / "box_2d.json"))
    assert code == 1 and doc["lattice_free"] is False
    assert doc["interior_witness"] is not None


def test_check_witnesses_of_bodies_whose_rays_span_the_plane(capsys):
    # the rays span the plane, so the witness is t w for the ray sum w and the
    # least integer t that puts it strictly inside: w = (0, 1) + (1, 0) in
    # the quadrant, w = (-1, 2) + (1, 2) in the wedge, and t = 1 in both
    for name, witness in (("quadrant", ["1/1", "1/1"]), ("wedge", ["0/1", "4/1"])):
        code, doc = run_json(capsys, "check", str(FIXTURES / f"{name}.json"))
        assert code == 1 and doc["lattice_free"] is False, name
        assert doc["interior_witness"] == witness, name


def test_check_and_width_match_the_golden_outputs(capsys):
    # stdout and exit code of check and width on every fixture, byte for byte
    golden = json.loads((Path(__file__).parent / "golden" / "cli_outputs.json")
                        .read_text())
    got = {}
    for path in sorted(FIXTURES.glob("*.json")):
        for command in ("check", "width"):
            code, out, err = run(capsys, command, str(path))
            assert err == "", (command, path.stem)
            got[f"{command} {path.stem}"] = {"exit": code, "stdout": out}
    assert len(got) == 40
    assert got == golden


def test_width_bound_flag_drives_exit_code(capsys):
    code, doc = run_json(capsys, "width", str(FIXTURES / "diamond.json"),
                         "--bound", "4")
    assert code == 0 and doc["width"] == "2/1" and doc["within_bound"] is True
    code, doc = run_json(capsys, "width", str(FIXTURES / "diamond.json"),
                         "--bound", "3/2")
    assert code == 1 and doc["within_bound"] is False


def test_width_of_tower_3d_ends(capsys):
    # B = 338 here: a box scan over [-B, B]^3 would try 3.1e8 directions
    path = FIXTURES / "tower_3d.json"
    code, doc = run_json(capsys, "width", str(path))
    assert code == 0
    assert doc == {"width": "5/3", "direction": ["0/1", "3/1", "-5/1"],
                   "segment_bound": "1/9", "search_bound": 338}
    body = latcut.parse_polyhedron(path.read_text())

    def spread(u):
        vals = [sum(F(a) * x for a, x in zip(u, v)) for v in body.vertices]
        return max(vals) - min(vals)

    assert spread((0, 3, -5)) == F(5, 3)
    assert min(spread(u) for u in itertools.product(range(-2, 3), repeat=3)
               if any(u)) >= F(5, 3)


def test_width_is_infinite_when_the_rays_span_the_space(capsys):
    # quadrant, wedge and ray_1d hold balls of every radius
    infinite = {"width": "inf", "direction": None, "segment_bound": "inf",
                "search_bound": None}
    for name in ("quadrant", "wedge", "ray_1d"):
        path = str(FIXTURES / f"{name}.json")
        code, doc = run_json(capsys, "width", path)
        assert code == 0 and doc == infinite, name
        code, doc = run_json(capsys, "width", path, "--bound", "3/2")
        assert code == 1 and doc == {**infinite, "within_bound": False}, name


def test_cut_emits_exact_split_coefficients(capsys, tmp_path):
    cols = tmp_path / "cols.json"
    cols.write_text('[["0", "1"], ["1", "0"], ["-1", "0"]]')
    code, doc = run_json(capsys, "cut",
                         "--body", str(FIXTURES / "split_horizontal.json"),
                         "--f", "1/2,1/2", "--cols", str(cols))
    assert code == 0
    assert doc["coeffs"] == ["2/1", "0/1", "0/1"]
    assert doc["trivial"] is False


def test_rho_reports_infinite_with_ray_witness(capsys):
    code, doc = run_json(capsys, "rho",
                         "--b", str(FIXTURES / "triangle_t1.json"),
                         "--l", str(FIXTURES / "split_horizontal.json"),
                         "--f", "1/2,1/2")
    assert code == 0
    assert doc["value"] == "inf"
    assert doc["witness"]["ray"] in (["1/1", "0/1"], ["-1/1", "0/1"])


def test_fmetric_reports_exact_square_and_display_float(capsys):
    code, doc = run_json(capsys, "fmetric",
                         str(FIXTURES / "triangle_t1.json"),
                         str(FIXTURES / "split_horizontal.json"),
                         "--f", "1/2,1/2")
    assert code == 0
    assert doc["dist_sq"] == "1/1"
    assert doc["dist"] == 1.0


def test_closure_collects_one_cut_per_family_member(capsys, tmp_path):
    fam = tmp_path / "fam"
    fam.mkdir()
    for name in ("split_horizontal.json", "split_slanted.json"):
        (fam / name).write_text((FIXTURES / name).read_text())
    cols = tmp_path / "cols.json"
    cols.write_text('[["0", "1"], ["1", "0"], ["-1", "0"]]')
    code, doc = run_json(capsys, "closure", "--family", str(fam),
                         "--f", "1/2,1/2", "--cols", str(cols))
    assert code == 0
    assert len(doc["cuts"]) == 2
    assert doc["cuts"][0]["coeffs"] == ["2/1", "0/1", "0/1"]


def test_sandwich_brackets_the_family_strength(capsys, tmp_path):
    fam = tmp_path / "fam"
    fam.mkdir()
    (fam / "a.json").write_text((FIXTURES / "split_horizontal.json").read_text())
    (fam / "b.json").write_text((FIXTURES / "diamond.json").read_text())
    code, doc = run_json(capsys, "sandwich", "--family", str(fam),
                         "--l", str(FIXTURES / "diamond.json"),
                         "--f", "1/2,1/2")
    assert code == 0
    assert set(doc) == {"lower", "upper", "n_bound"}
    assert doc["upper"] == "1/1"  # the target body itself is in the family


def _hrep_file(path, dim, rows):
    path.write_text(json.dumps(
        {"dim": dim, "hrep": [{"a": a, "b": b} for a, b in rows]}))
    return path


def test_lift_certifies_its_output(capsys, tmp_path):
    # L = {x >= -4, 1/10 <= y <= 9/10, -2/5 <= z <= 2/5} over the half-strip
    # D = {x >= -5, 0 <= y <= 1}: the lift is pointed in 3-d with a bounded
    # last axis
    half_prism = _hrep_file(tmp_path / "half_prism.json", 3, [
        (["-1/1", "0/1", "0/1"], "4/1"),
        (["0/1", "-1/1", "0/1"], "-1/10"), (["0/1", "1/1", "0/1"], "9/10"),
        (["0/1", "0/1", "-1/1"], "2/5"), (["0/1", "0/1", "1/1"], "2/5")])
    half_strip = _hrep_file(tmp_path / "half_strip.json", 2, [
        (["-1/1", "0/1"], "5/1"),
        (["0/1", "-1/1"], "0/1"), (["0/1", "1/1"], "1/1")])
    cases = [(FIXTURES / "triangle_t1.json", "1/2,1", "1/2",
              FIXTURES / "segment.json", "1", 3),
             (half_prism, "0,1/2,0", "1", half_strip, "0", 4)]
    for l, f, gamma, d, t, cap in cases:
        code, doc = run_json(capsys, "lift", "--l", str(l), "--f", f,
                             "--gamma", gamma, "--d", str(d), "--t", t)
        assert code == 0
        assert len(doc["body"]["hrep"]) <= cap
        assert doc["certificate"]["lattice_free"] is True


def test_lift_searches_its_output_once(capsys, monkeypatch):
    # the lift finds its body lattice-free before mapping it back, so the
    # certificate runs no second interior search: one search for the base
    # and one for the lifted body (three when the CLI searched it again)
    calls = []
    real = latcut.lattice.interior_lattice_point

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(constructions, "interior_lattice_point", counted)
    monkeypatch.setattr(latcut.lattice, "interior_lattice_point", counted)
    code, doc = run_json(capsys, "lift", "--l", str(FIXTURES / "triangle_t1.json"),
                         "--f", "1/2,1", "--gamma", "1/2",
                         "--d", str(FIXTURES / "segment.json"), "--t", "1")
    assert code == 0 and doc["certificate"]["lattice_free"] is True
    assert len(calls) == 2


def test_approx_fixed_mode_respects_facet_cap(capsys):
    code, doc = run_json(capsys, "approx", "--mode", "fixed",
                         "--l", str(FIXTURES / "diamond.json"),
                         "--f", "1/2,1/3")
    assert code == 0
    assert doc["facets"] <= 3
    assert doc["certificate"]["lattice_free"] is True


def test_approx_covers_a_pointed_strip(capsys, tmp_path):
    # 1/8 <= y <= 7/8, x >= 0, x + 4y >= 1, -x + 4y <= 3: five facets and
    # the ray (1, 0); the pipelines rotate its width direction (0, 1) onto
    # an axis and cover it by the split 0 <= y <= 1
    strip = _hrep_file(tmp_path / "strip.json", 2, [
        (["0/1", "-1/1"], "-1/8"), (["0/1", "1/1"], "7/8"),
        (["-1/1", "0/1"], "0/1"), (["-1/1", "-4/1"], "-1/1"),
        (["-1/1", "4/1"], "3/1")])
    l = latcut.parse_polyhedron(strip.read_text())
    assert len(l.halfspaces) == 5 and l.rays == ((F(1), F(0)),)
    f = (F(1), F(1, 2))
    for mode, cap in (("any", 3), ("fixed", 3)):
        code, doc = run_json(capsys, "approx", "--mode", mode,
                             "--l", str(strip), "--f", "1,1/2")
        assert code == 0
        assert doc["facets"] == 2 <= cap
        assert doc["factor"] == "3/4"
        assert doc["certificate"]["lattice_free"] is True
        body = latcut.parse_polyhedron(json.dumps(doc["body"]))
        rep = latcut.relative_strength(body, l, f)
        assert rep.kind == "finite" and rep.value == F(3, 4)


def test_scenario_text_and_json_outputs(capsys):
    code, out, err = run(capsys, "scenario", "cubeface-census", "--param", "n=2")
    assert code == 0 and err == ""
    assert out.startswith("scenario cubeface-census: PASS")
    code, doc = run_json(capsys, "scenario", "cubeface-census",
                         "--param", "n=2", "--json")
    assert code == 0 and doc["passed"] is True


def test_seed_precedence_flag_env_default(capsys, monkeypatch):
    monkeypatch.setenv("LATCUT_SEED", "5")
    code, doc = run_json(capsys, "scenario", "truncated-cone-shrink",
                         "--param", "count=3", "--json")
    assert code == 0 and doc["params"]["seed"] == 5
    code, doc = run_json(capsys, "scenario", "truncated-cone-shrink",
                         "--param", "count=3", "--seed", "7", "--json")
    assert code == 0 and doc["params"]["seed"] == 7
    monkeypatch.delenv("LATCUT_SEED")
    code, doc = run_json(capsys, "scenario", "truncated-cone-shrink",
                         "--param", "count=3", "--json")
    assert code == 0 and doc["params"]["seed"] == 0


def test_env_seed_leaves_seedless_scenarios_alone(capsys, monkeypatch):
    monkeypatch.setenv("LATCUT_SEED", "9")
    code, doc = run_json(capsys, "scenario", "lifting-end-to-end", "--json")
    assert code == 0
    assert "seed" not in doc["params"]


def test_list_scenarios_names_all_nine(capsys):
    code, out, err = run(capsys, "list-scenarios")
    assert code == 0
    assert len(out.strip().splitlines()) == 9
    assert out.startswith("cubeface-census")


def test_usage_errors_exit_two(capsys, tmp_path):
    code, out, err = run(capsys, "scenario", "no-such-scenario")
    assert code == 2 and "unknown scenario" in err
    code, out, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2 and err.startswith("error:")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2 and "error:" in err
    code, out, err = run(capsys, "rho",
                         "--b", str(FIXTURES / "diamond.json"),
                         "--l", str(FIXTURES / "diamond.json"),
                         "--f", "1/0,1/2")
    assert code == 2 and "denominator" in err


def test_a_zero_normal_exits_two_not_one(capsys, tmp_path):
    # exit 1 from check means "not lattice-free", so bad data must exit 2
    body = tmp_path / "zero.json"
    body.write_text(json.dumps({"dim": 2, "hrep": [
        {"a": ["0/1", "0/1"], "b": "1/1"}, {"a": ["1/1", "0/1"], "b": "1/1"}]}))
    code, out, err = run(capsys, "check", str(body))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "half-space 0" in err


@pytest.mark.parametrize("argv", [
    ("rho-closed-form", "--param", "trials=abc"),
    ("rho-closed-form", "--seed", "x"),
    ("inapprox-witnesses", "--param", "alpha_hi=0.5"),
    ("rho-closed-form", "--param", "trials=-3"),
    ("split-vs-triangles", "--param", "tmax=0"),
    ("cubeface-census", "--param", "n=-1"),
    ("inapprox-witnesses", "--param", "samples=5/2"),
])
def test_bad_scenario_parameters_exit_two(capsys, argv):
    code, out, err = run(capsys, "scenario", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and argv[-1].partition("=")[0] in err


def test_alpha_hi_takes_a_rational(capsys):
    params = {}
    for alpha in ("5/2", "10"):
        code, out, err = run(capsys, "scenario", "inapprox-witnesses", "--json",
                             "--param", f"alpha_hi={alpha}",
                             "--param", "samples=2")
        assert (code, err) == (0, "")
        params[alpha] = json.loads(out)["params"]["alpha_hi"]
    # an integral ratio prints as the int the default prints as
    assert params == {"5/2": "5/2", "10": 10}


def test_failed_construction_check_exits_one(capsys, monkeypatch):
    real = constructions.certify_lattice_free
    monkeypatch.setattr(constructions, "certify_lattice_free",
                        lambda p, witnesses=(): dataclasses.replace(
                            real(p, witnesses), maximal=False))
    code, out, err = run(capsys, "construct", "cubeface", "--n", "2", "--i", "3")
    assert (code, out) == (1, "")
    assert err == "error: cube-face body is not maximal lattice-free\n"


def test_lenient_flag_admits_unreduced_rationals(capsys, tmp_path):
    body = tmp_path / "interval.json"
    body.write_text(json.dumps({
        "dim": 1,
        "vrep": {"vertices": [["0/1"], ["2/4"]], "rays": []},
    }))
    code, out, err = run(capsys, "check", str(body))
    assert code == 2 and "error:" in err
    code, doc = run_json(capsys, "check", "--lenient", str(body))
    assert code == 0 and doc["lattice_free"] is True


def test_console_script_is_installed(capsys, tmp_path):
    # Run the declared `latcut` entry point the way the wrapper that an
    # install generates would, against the package this session imported,
    # so neither an install nor PATH is needed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["latcut"]
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run([sys.executable, "-c", wrapper, "list-scenarios"],
                          capture_output=True, text=True, env=package_env(),
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 9
    code, out, err = run(capsys, "list-scenarios")
    assert code == 0
    assert proc.stdout == out


def test_python_dash_m_runs_the_cli(capsys, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "latcut", "list-scenarios"],
                          capture_output=True, text=True, env=package_env(),
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, out, err = run(capsys, "list-scenarios")
    assert code == 0
    assert proc.stdout == out
