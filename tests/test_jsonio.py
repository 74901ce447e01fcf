"""Wire format round-trips and strict-mode rejection cases."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from latcut import linalg as la
from latcut.cuts import CutSystem, intersection_cut
from latcut.errors import ParseError
from latcut.geometry import HalfSpace, Polyhedron
from latcut.jsonio import (
    emit_cut_system,
    emit_polyhedron,
    emit_strength_report,
    parse_cut_system,
    parse_polyhedron,
    parse_strength_report,
)
from latcut.strength import StrengthReport, relative_strength

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))


def test_fixture_corpus_is_the_expected_size():
    assert len(FIXTURES) == 20


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_round_trip_is_byte_identical(path):
    text = path.read_text()
    assert emit_polyhedron(parse_polyhedron(text)) == text


def test_parse_completes_a_missing_generator_representation():
    text = json.dumps({"dim": 2, "hrep": [
        {"a": ["0/1", "-1/1"], "b": "0/1"},
        {"a": ["0/1", "1/1"], "b": "1/1"}]})
    p = parse_polyhedron(text)
    assert p.vertices == ((F(0), F(0)), (F(0), F(1)))
    assert p.lineality == ((F(1), F(0)),)
    assert p.contains_point((F(7), F(1, 2)))


def test_parse_completes_a_missing_inequality_representation():
    text = json.dumps({"dim": 1, "vrep": {"vertices": [["0/1"], ["1/1"]],
                                          "rays": []}})
    p = parse_polyhedron(text)
    assert len(p.halfspaces) == 2
    assert p == Polyhedron.from_generators([(F(0),), (F(1),)])


def test_parse_rejects_mismatched_representations():
    text = json.dumps({"dim": 1,
                       "hrep": [{"a": ["-1/1"], "b": "0/1"},
                                {"a": ["1/1"], "b": "1/1"}],
                       "vrep": {"vertices": [["0/1"], ["2/1"]], "rays": []}})
    with pytest.raises(ParseError):
        parse_polyhedron(text)


def test_parse_rejects_zero_denominator_with_an_offset():
    text = json.dumps({"dim": 1, "vrep": {"vertices": [["1/0"]], "rays": []}})
    with pytest.raises(ParseError) as e:
        parse_polyhedron(text)
    assert e.value.offset == text.find('"1/0"') + 1


def test_parse_rejects_float_literals():
    text = '{"dim": 1, "vrep": {"vertices": [[0.5]], "rays": []}}'
    with pytest.raises(ParseError) as e:
        parse_polyhedron(text)
    assert e.value.offset == text.find("0.5")


def test_parse_rejects_bare_numbers_in_coordinates():
    text = '{"dim": 1, "vrep": {"vertices": [[1]], "rays": []}}'
    with pytest.raises(ParseError):
        parse_polyhedron(text)


def test_rationals_are_ascii_digits_without_underscores():
    # int() alone reads "1_0/3" as 10/3 and an Arabic-Indic three as 3
    for s in ("1_0/3", "3/1_0", "1_000", "\u0663/4", "3/\u0664", "\u0663"):
        for strict in (True, False):
            with pytest.raises(ParseError, match="ASCII"):
                la.parse_frac(s, strict=strict)
    assert la.parse_frac("3") == 3 and la.parse_frac("-1", strict=True) == -1
    assert la.parse_frac(" -10/3 ", strict=True) == F(-10, 3)
    text = json.dumps({"dim": 1, "vrep": {"vertices": [["1_0/3"]], "rays": []}})
    for strict in (True, False):
        with pytest.raises(ParseError) as e:
            parse_polyhedron(text, strict=strict)
        assert e.value.offset == text.find('"1_0/3"') + 1


def test_strict_mode_rejects_unreduced_fractions():
    text = json.dumps({"dim": 1, "vrep": {"vertices": [["2/4"], ["4/4"]],
                                          "rays": []}})
    with pytest.raises(ParseError):
        parse_polyhedron(text)
    p = parse_polyhedron(text, strict=False)
    assert p.vertices == ((F(1, 2),), (F(1),))


def test_strict_mode_rejects_unknown_keys():
    text = json.dumps({"dim": 1, "vrep": {"vertices": [["0/1"], ["1/1"]],
                                          "rays": []}, "comment": "hi"})
    with pytest.raises(ParseError):
        parse_polyhedron(text)
    assert parse_polyhedron(text, strict=False) is not None


def test_parse_rejects_structural_problems():
    for doc in (
            {"dim": 0, "hrep": []},
            {"dim": 2},
            {"dim": 2, "hrep": [{"a": ["1/1"], "b": "0/1"}]},  # short vector
            {"dim": 1, "hrep": [{"a": ["1/1"]}]},
            {"dim": 1, "vrep": {"vertices": [], "rays": []}},  # empty set
            {"dim": 1, "hrep": [{"a": ["-1/1"], "b": "-2/1"},
                                {"a": ["1/1"], "b": "1/1"}]},  # infeasible
    ):
        with pytest.raises(ParseError):
            parse_polyhedron(json.dumps(doc))


def test_parse_rejects_a_zero_normal_and_names_its_row():
    doc = {"dim": 2, "hrep": [{"a": ["1/1", "0/1"], "b": "1/1"},
                              {"a": ["0/1", "0/1"], "b": "1/1"}]}
    with pytest.raises(ParseError) as e:
        parse_polyhedron(json.dumps(doc))
    assert "half-space 1 of 'hrep' has a zero normal" in str(e.value)


def test_malformed_json_reports_the_offset():
    with pytest.raises(ParseError) as e:
        parse_polyhedron('{"dim": 2 "hrep"')
    assert e.value.offset is not None


def test_cut_system_round_trip():
    diam = Polyhedron.from_generators(
        [(F(0), F(0)), (F(2), F(0)), (F(1), F(1)), (F(1), F(-1))])
    cs = intersection_cut(diam, [(F(0), F(1)), (F(1), F(0)), (F(-1), F(0))],
                          (F(1), F(1, 2)))
    text = emit_cut_system(cs)
    assert parse_cut_system(text) == cs
    assert emit_cut_system(parse_cut_system(text)) == text


def test_cut_system_parse_validates_shape():
    good = {"f": ["1/2"], "columns": [["1/1"]], "coeffs": ["2/1"],
            "trivial": False}
    assert parse_cut_system(json.dumps(good)) == CutSystem(
        (F(1, 2),), ((F(1),),), (F(2),), False)
    for mutate in (
            lambda d: d.pop("trivial"),
            lambda d: d.update(trivial="no"),
            lambda d: d.update(coeffs=[]),
            lambda d: d.update(f=[]),
    ):
        doc = {k: (list(v) if isinstance(v, list) else v)
               for k, v in good.items()}
        mutate(doc)
        with pytest.raises(ParseError):
            parse_cut_system(json.dumps(doc))


def test_strength_report_round_trip_all_kinds():
    seg = Polyhedron.from_generators([(F(0),), (F(1),)])
    wedge = Polyhedron.from_generators([(F(0), F(0))],
                                       [(F(1), F(0)), (F(0), F(1))], 2)
    diam = Polyhedron.from_generators(
        [(F(0), F(0)), (F(2), F(0)), (F(1), F(1)), (F(1), F(-1))])
    split = Polyhedron.from_halfspaces(
        [HalfSpace.make((F(0), F(-1)), F(1)), HalfSpace.make((F(0), F(1)), F(0))], 2)
    reports = [
        relative_strength(diam, diam, (F(1), F(1, 2))),          # finite
        relative_strength(split, wedge, (F(1, 2), F(-1, 2))),    # infinite+ray
        relative_strength(diam, diam, (F(0), F(0))),             # zero
        StrengthReport("infinite", None, None),
    ]
    for rep in reports:
        text = emit_strength_report(rep)
        assert parse_strength_report(text) == rep


def test_strength_report_parse_rejects_mixed_up_witnesses():
    for doc in (
            {"value": "inf", "witness": {"vertex": ["1/1"]}},
            {"value": "3/2", "witness": {"ray": ["1/1"]}},
            {"value": "0", "witness": {"vertex": ["1/1"]}},
            {"value": 2, "witness": None},
            {"value": "3/2", "witness": {"vertex": ["1/1"], "ray": ["1/1"]}},
    ):
        with pytest.raises(ParseError):
            parse_strength_report(json.dumps(doc))
