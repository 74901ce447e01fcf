"""JSON wire format for polyhedra, cut systems, and strength reports.

Rationals travel as strings "p/q" (always with the slash, reduced, positive
denominator); numeric JSON floats are rejected outright since they cannot
carry exact values.  A polyhedron document holds "dim" plus one or both of
"hrep" and "vrep"; a missing representation is completed on load, and when
both are present they must describe the same set.

Parse errors carry a best-effort byte offset into the source text.
"""

from __future__ import annotations

import json

from . import linalg as la
from .cuts import CutSystem
from .errors import LatcutError, ParseError
from .geometry import HalfSpace, Polyhedron
from .strength import StrengthReport

POLY_KEYS = {"dim", "hrep", "vrep"}
VREP_KEYS = {"vertices", "rays"}
HS_KEYS = {"a", "b"}
CUT_KEYS = {"f", "columns", "coeffs", "trivial"}
STRENGTH_KEYS = {"value", "witness"}


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load(text: str):
    def no_floats(tok: str):
        raise ParseError("float literal breaks the exactness contract",
                         offset=text.find(tok))

    try:
        return json.loads(text, parse_float=no_floats)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", offset=exc.pos) from None


def _token_offset(text: str, tok) -> int | None:
    pos = text.find(json.dumps(tok))
    return pos + 1 if pos >= 0 else None


def _frac(text: str, tok, strict: bool):
    if not isinstance(tok, str):
        raise ParseError(f"rationals must be strings, got {tok!r}")
    try:
        return la.parse_frac(tok, strict=strict)
    except ParseError as exc:
        raise ParseError(exc.args[0], offset=_token_offset(text, tok)) from None


def _vec(text: str, tok, dim: int, strict: bool, what: str):
    if not isinstance(tok, list) or len(tok) != dim:
        raise ParseError(f"{what} must be a list of {dim} rationals")
    return tuple(_frac(text, x, strict) for x in tok)


def _check_keys(obj: dict, allowed: set, what: str, strict: bool):
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object")
    if strict:
        extra = set(obj) - allowed
        if extra:
            raise ParseError(f"unknown keys in {what}: {sorted(extra)}")


def vec_to_obj(v) -> list:
    return [la.format_frac(x) for x in v]


# ---------------------------------------------------------------------------
# polyhedra


def polyhedron_to_obj(p: Polyhedron) -> dict:
    # p.rays already lists lineality directions as +/- pairs
    return {
        "dim": p.dim,
        "hrep": [{"a": vec_to_obj(h.normal), "b": la.format_frac(h.offset)}
                 for h in p.halfspaces],
        "vrep": {"vertices": [vec_to_obj(v) for v in p.vertices],
                 "rays": [vec_to_obj(r) for r in p.rays]},
    }


def polyhedron_from_obj(obj, text: str = "", strict: bool = True) -> Polyhedron:
    _check_keys(obj, POLY_KEYS, "polyhedron", strict)
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("'dim' must be a positive integer")
    if "hrep" not in obj and "vrep" not in obj:
        raise ParseError("need at least one of 'hrep' and 'vrep'")

    from_h = from_v = None
    try:
        if "hrep" in obj:
            hrep = obj["hrep"]
            if not isinstance(hrep, list):
                raise ParseError("'hrep' must be a list")
            hs = []
            for k, item in enumerate(hrep):
                _check_keys(item, HS_KEYS, "half-space", strict)
                if "a" not in item or "b" not in item:
                    raise ParseError("half-space needs keys 'a' and 'b'")
                a = _vec(text, item["a"], dim, strict, "'a'")
                if not any(a):
                    raise ParseError(f"half-space {k} of 'hrep' has a zero normal")
                hs.append(HalfSpace.make(a, _frac(text, item["b"], strict)))
            from_h = Polyhedron.from_halfspaces(hs, dim)
        if "vrep" in obj:
            vrep = obj["vrep"]
            _check_keys(vrep, VREP_KEYS, "'vrep'", strict)
            verts = vrep.get("vertices", [])
            rays = vrep.get("rays", [])
            if not isinstance(verts, list) or not isinstance(rays, list):
                raise ParseError("'vertices' and 'rays' must be lists")
            from_v = Polyhedron.from_generators(
                [_vec(text, v, dim, strict, "vertex") for v in verts],
                [_vec(text, r, dim, strict, "ray") for r in rays], dim)
    except ParseError:
        raise
    except LatcutError as exc:
        raise ParseError(f"data does not denote a polyhedron: {exc}") from None

    if from_h is not None and from_v is not None and from_h != from_v:
        raise ParseError("'hrep' and 'vrep' describe different sets")
    return from_h if from_h is not None else from_v


def emit_polyhedron(p: Polyhedron) -> str:
    return _dump(polyhedron_to_obj(p))


def parse_polyhedron(text: str, strict: bool = True) -> Polyhedron:
    return polyhedron_from_obj(_load(text), text, strict)


# ---------------------------------------------------------------------------
# cut systems


def cut_to_obj(cs: CutSystem) -> dict:
    return {
        "f": vec_to_obj(cs.f),
        "columns": [vec_to_obj(r) for r in cs.columns],
        "coeffs": vec_to_obj(cs.coeffs),
        "trivial": cs.trivial,
    }


def cut_from_obj(obj, text: str = "", strict: bool = True) -> CutSystem:
    _check_keys(obj, CUT_KEYS, "cut system", strict)
    for key in CUT_KEYS:
        if key not in obj:
            raise ParseError(f"cut system needs key '{key}'")
    f = obj["f"]
    if not isinstance(f, list) or not f:
        raise ParseError("'f' must be a nonempty list of rationals")
    fv = tuple(_frac(text, x, strict) for x in f)
    cols_obj = obj["columns"]
    if not isinstance(cols_obj, list):
        raise ParseError("'columns' must be a list of vectors")
    cols = tuple(_vec(text, r, len(fv), strict, "column") for r in cols_obj)
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or len(coeffs) != len(cols):
        raise ParseError("'coeffs' must match 'columns' in length")
    if not isinstance(obj["trivial"], bool):
        raise ParseError("'trivial' must be a boolean")
    return CutSystem(fv, cols, tuple(_frac(text, x, strict) for x in coeffs),
                     obj["trivial"])


def emit_cut_system(cs: CutSystem) -> str:
    return _dump(cut_to_obj(cs))


def parse_cut_system(text: str, strict: bool = True) -> CutSystem:
    return cut_from_obj(_load(text), text, strict)


# ---------------------------------------------------------------------------
# bare column lists (cut column matrices on the command line)


def parse_columns(text: str, strict: bool = True) -> tuple:
    obj = _load(text)
    if not isinstance(obj, list) or not obj:
        raise ParseError("columns document must be a nonempty array of vectors")
    first = obj[0]
    if not isinstance(first, list) or not first:
        raise ParseError("columns must be nonempty rational vectors")
    return tuple(_vec(text, r, len(first), strict, "column") for r in obj)


# ---------------------------------------------------------------------------
# strength reports


def strength_to_obj(rep: StrengthReport) -> dict:
    if rep.kind == "zero":
        value = "0"
    elif rep.kind == "infinite":
        value = "inf"
    else:
        value = la.format_frac(rep.value)
    witness = None
    if rep.witness is not None:
        key = "ray" if rep.kind == "infinite" else "vertex"
        witness = {key: vec_to_obj(rep.witness)}
    return {"value": value, "witness": witness}


def strength_from_obj(obj, text: str = "", strict: bool = True) -> StrengthReport:
    _check_keys(obj, STRENGTH_KEYS, "strength report", strict)
    if "value" not in obj:
        raise ParseError("strength report needs key 'value'")
    raw = obj["value"]
    if not isinstance(raw, str):
        raise ParseError("'value' must be a string")
    witness_obj = obj.get("witness")
    witness = None
    kind_key = None
    if witness_obj is not None:
        _check_keys(witness_obj, {"ray", "vertex"}, "witness", strict)
        if len(witness_obj) != 1:
            raise ParseError("witness must carry exactly one of 'ray'/'vertex'")
        kind_key, payload = next(iter(witness_obj.items()))
        if not isinstance(payload, list) or not payload:
            raise ParseError("witness vector must be a nonempty list")
        witness = tuple(_frac(text, x, strict) for x in payload)
    if raw == "0":
        if witness is not None:
            raise ParseError("zero strength carries no witness")
        return StrengthReport("zero", la.frac(0), None)
    if raw == "inf":
        if kind_key == "vertex":
            raise ParseError("infinite strength witness must be a ray")
        return StrengthReport("infinite", None, witness)
    if kind_key == "ray":
        raise ParseError("finite strength witness must be a vertex")
    return StrengthReport("finite", _frac(text, raw, strict), witness)


def emit_strength_report(rep: StrengthReport) -> str:
    return _dump(strength_to_obj(rep))


def parse_strength_report(text: str, strict: bool = True) -> StrengthReport:
    return strength_from_obj(_load(text), text, strict)
