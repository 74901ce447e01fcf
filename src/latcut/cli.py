"""Command-line front-end.

Constructions are emitted as polyhedron JSON together with a certification
report; query commands print one JSON document on stdout with rationals as
"p/q" strings (floats appear only in display fields).  Exit status: 0 for a
passing run, 1 when a check, bound, or scenario assertion fails, 2 for
usage and input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import jsonio
from . import linalg as la
from .constructions import (
    approximate_any_f,
    approximate_fixed_f,
    cube_face_construction,
    lift_to_nplus1,
    simplex_tower,
)
from .cuts import closure, f_metric, intersection_cut
from .errors import CertificateError, LatcutError, ParseError
from .lattice import _certificate, certify_lattice_free, lattice_width
from .scenarios import SCENARIOS, list_scenarios, run_scenario
from .strength import relative_strength, sandwich


def _vec_arg(text: str):
    return tuple(la.parse_frac(tok) for tok in text.split(","))


def _frac_arg(text: str):
    return la.parse_frac(text)


def _read_poly(path: str, strict: bool):
    return jsonio.parse_polyhedron(Path(path).read_text(), strict=strict)


def _read_family(path: str, strict: bool):
    files = sorted(Path(path).glob("*.json"))
    if not files:
        raise ParseError(f"no .json bodies under {path!r}")
    return [jsonio.parse_polyhedron(f.read_text(), strict=strict)
            for f in files]


def _emit(obj) -> int:
    print(json.dumps(obj, indent=2))
    return 0


def _cert_obj(cert) -> dict:
    return {
        "lattice_free": cert.lattice_free,
        "maximal": cert.maximal,
        "interior_witness": (None if cert.interior_witness is None
                             else jsonio.vec_to_obj(cert.interior_witness)),
        "facet_witnesses": [None if w is None else jsonio.vec_to_obj(w)
                            for w in cert.facet_witnesses],
    }


# ---------------------------------------------------------------------------
# handlers


def _cmd_construct(args) -> int:
    if args.kind == "cubeface":
        made = cube_face_construction(args.n, args.i)
        doc = {"body": jsonio.polyhedron_to_obj(made.body),
               "certificate": _cert_obj(made.cert)}
    else:
        tw = simplex_tower(args.f, args.alpha)
        doc = {"body": jsonio.polyhedron_to_obj(tw.body),
               "witnesses": [jsonio.vec_to_obj(z) for z in tw.witnesses],
               "certificate": _cert_obj(tw.cert)}
    return _emit(doc)


def _cmd_check(args) -> int:
    doc = _cert_obj(certify_lattice_free(_read_poly(args.body, args.strict)))
    _emit(doc)
    return 0 if doc["lattice_free"] else 1


def _cmd_width(args) -> int:
    rep = lattice_width(_read_poly(args.body, args.strict))
    inf = rep.width is None  # then every field is None
    doc = {
        "width": "inf" if inf else la.format_frac(rep.width),
        "direction": None if inf else jsonio.vec_to_obj(rep.direction),
        "segment_bound": "inf" if inf else la.format_frac(rep.segment_bound),
        "search_bound": rep.search_bound,
    }
    if args.bound is not None:
        doc["within_bound"] = not inf and rep.width <= args.bound
    _emit(doc)
    return 0 if args.bound is None or doc["within_bound"] else 1


def _cmd_cut(args) -> int:
    b = _read_poly(args.body, args.strict)
    cols = jsonio.parse_columns(Path(args.cols).read_text(), strict=args.strict)
    print(jsonio.emit_cut_system(intersection_cut(b, cols, args.f)), end="")
    return 0


def _cmd_closure(args) -> int:
    family = _read_family(args.family, args.strict)
    cols = jsonio.parse_columns(Path(args.cols).read_text(), strict=args.strict)
    cl = closure(family, cols, args.f)
    return _emit({
        "f": jsonio.vec_to_obj(cl.f),
        "columns": [jsonio.vec_to_obj(r) for r in cl.columns],
        "cuts": [jsonio.cut_to_obj(c) for c in cl.cuts],
    })


def _cmd_rho(args) -> int:
    b = _read_poly(args.b, args.strict)
    l = _read_poly(args.l, args.strict)
    print(jsonio.emit_strength_report(relative_strength(b, l, args.f)), end="")
    return 0


def _cmd_sandwich(args) -> int:
    family = _read_family(args.family, args.strict)
    l = _read_poly(args.l, args.strict)
    rep = sandwich(family, l, args.f)
    return _emit({
        "lower": "inf" if rep.lower is None else la.format_frac(rep.lower),
        "upper": "inf" if rep.upper is None else la.format_frac(rep.upper),
        "n_bound": rep.n_bound,
    })


def _cmd_fmetric(args) -> int:
    b1 = _read_poly(args.body1, args.strict)
    b2 = _read_poly(args.body2, args.strict)
    pd = f_metric(b1, b2, args.f)
    return _emit({"dist_sq": la.format_frac(pd.dist_sq),
                  "dist": float(f"{pd.dist:.12g}")})


def _cmd_lift(args) -> int:
    l = _read_poly(args.l, args.strict)
    d = _read_poly(args.d, args.strict)
    body = lift_to_nplus1(l, args.f, args.gamma, d, args.t)
    # the lift found its body lattice-free before the unimodular map back,
    # which keeps that: only the facets are searched
    return _emit({"body": jsonio.polyhedron_to_obj(body),
                  "certificate": _cert_obj(_certificate(body, None, {}))})


def _cmd_approx(args) -> int:
    l = _read_poly(args.l, args.strict)
    fn = approximate_any_f if args.mode == "any" else approximate_fixed_f
    res = fn(l, args.f)
    return _emit({
        "body": jsonio.polyhedron_to_obj(res.body),
        "factor": la.format_frac(res.factor),
        "facets": len(res.body.rows),
        "certificate": _cert_obj(certify_lattice_free(res.body)),
    })


def _cmd_scenario(args) -> int:
    overrides = {}
    for kv in args.param:
        key, sep, value = kv.partition("=")
        if not sep:
            raise ParseError(f"--param wants key=value, got {kv!r}")
        overrides[key] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    elif "seed" not in overrides:
        env = os.environ.get("LATCUT_SEED")
        spec = SCENARIOS.get(args.name)
        if env is not None and spec is not None and "seed" in spec.defaults:
            overrides["seed"] = env
    report = run_scenario(args.name, overrides)
    if args.json:
        print(json.dumps(report.to_obj(), indent=2))
    else:
        print(report.render())
    return 0 if report.passed else 1


def _cmd_list_scenarios(args) -> int:
    for name, desc in list_scenarios():
        print(f"{name:26} {desc}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latcut",
        description="exact lattice-free bodies, intersection cuts, and "
                    "cut-strength experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    lenient = argparse.ArgumentParser(add_help=False)
    lenient.add_argument(
        "--lenient", dest="strict", action="store_false",
        help="accept unreduced rationals and unknown keys in input files")

    con = sub.add_parser("construct", help="build a certified body")
    kinds = con.add_subparsers(dest="kind", required=True)
    cf = kinds.add_parser("cubeface", help="maximal body with a given facet count")
    cf.add_argument("--n", type=int, required=True, help="ambient dimension")
    cf.add_argument("--i", type=int, required=True, help="facet count")
    cf.set_defaults(handler=_cmd_construct)
    tw = kinds.add_parser("tower", help="simplex defeating coarser covers")
    tw.add_argument("--f", type=_vec_arg, required=True,
                    help="fractional point, e.g. 1/2,1/3")
    tw.add_argument("--alpha", type=_frac_arg, required=True,
                    help="homothety ratio to defeat, e.g. 3/1")
    tw.set_defaults(handler=_cmd_construct)

    ck = sub.add_parser("check", parents=[lenient],
                        help="certify lattice-freeness (exit 0 iff free)")
    ck.add_argument("body", help="polyhedron JSON file")
    ck.set_defaults(handler=_cmd_check)

    wd = sub.add_parser("width", parents=[lenient], help="certified lattice width")
    wd.add_argument("body", help="polyhedron JSON file")
    wd.add_argument("--bound", type=_frac_arg,
                    help="also test width <= bound (exit 1 when exceeded)")
    wd.set_defaults(handler=_cmd_width)

    cut = sub.add_parser("cut", parents=[lenient], help="intersection cut")
    cut.add_argument("--body", required=True, help="generating body JSON")
    cut.add_argument("--f", type=_vec_arg, required=True)
    cut.add_argument("--cols", required=True, help="JSON array of column vectors")
    cut.set_defaults(handler=_cmd_cut)

    clo = sub.add_parser("closure", parents=[lenient],
                         help="simultaneous cuts from a family")
    clo.add_argument("--family", required=True, help="directory of body JSONs")
    clo.add_argument("--f", type=_vec_arg, required=True)
    clo.add_argument("--cols", required=True, help="JSON array of column vectors")
    clo.set_defaults(handler=_cmd_closure)

    rho = sub.add_parser("rho", parents=[lenient],
                         help="relative strength of one body against another")
    rho.add_argument("--b", required=True, help="cut-generating body JSON")
    rho.add_argument("--l", required=True, help="target body JSON")
    rho.add_argument("--f", type=_vec_arg, required=True)
    rho.set_defaults(handler=_cmd_rho)

    sw = sub.add_parser("sandwich", parents=[lenient],
                        help="two-sided family strength bracket")
    sw.add_argument("--family", required=True, help="directory of body JSONs")
    sw.add_argument("--l", required=True, help="target body JSON")
    sw.add_argument("--f", type=_vec_arg, required=True)
    sw.set_defaults(handler=_cmd_sandwich)

    fm = sub.add_parser("fmetric", parents=[lenient],
                        help="polar distance between two bodies")
    fm.add_argument("body1", help="polyhedron JSON file")
    fm.add_argument("body2", help="polyhedron JSON file")
    fm.add_argument("--f", type=_vec_arg, required=True)
    fm.set_defaults(handler=_cmd_fmetric)

    lf = sub.add_parser("lift", parents=[lenient],
                        help="one-dimension-up lattice-free cover")
    lf.add_argument("--l", required=True, help="body to cover, JSON")
    lf.add_argument("--f", type=_vec_arg, required=True)
    lf.add_argument("--gamma", type=_frac_arg, required=True,
                    help="shrink ratio in (0, 1]")
    lf.add_argument("--d", required=True, help="lattice-free base for the slice")
    lf.add_argument("--t", type=int, required=True, help="integer slice level")
    lf.set_defaults(handler=_cmd_lift)

    ax = sub.add_parser("approx", parents=[lenient],
                        help="few-facet lattice-free cover with factor bound")
    ax.add_argument("--mode", choices=("any", "fixed"), required=True)
    ax.add_argument("--l", required=True, help="body to approximate, JSON")
    ax.add_argument("--f", type=_vec_arg, required=True)
    ax.set_defaults(handler=_cmd_approx)

    sc = sub.add_parser("scenario", help="run a named experiment")
    sc.add_argument("name")
    sc.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                    help="override a scenario parameter (repeatable)")
    sc.add_argument("--seed", help="seed override (beats LATCUT_SEED)")
    sc.add_argument("--json", action="store_true",
                    help="emit the JSON report instead of the text summary")
    sc.set_defaults(handler=_cmd_scenario)

    ls = sub.add_parser("list-scenarios", help="names and descriptions")
    ls.set_defaults(handler=_cmd_list_scenarios)

    return ap


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (LatcutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, CertificateError) else 2


if __name__ == "__main__":
    sys.exit(main())
