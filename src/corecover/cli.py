"""Command line interface.

Commands operate on arrangement files (see :mod:`corecover.formats`) and
print JSON to standard output. Exit codes: 0 for success or a verified
positive result, 1 for a verified negative result (not smooth, unstable,
covering counterexample, density failure), 2 for input or usage errors.

The exhaustive sweeps are guarded by fixed hyperplane-count limits;
``--force`` lifts every guard.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arrangement import all_sign_vectors, is_regular, is_simple, torus_data
from .errors import ParseError
from .feasibility import enumerate_vertices
from .formats import (
    format_pattern,
    format_rational,
    format_sign_vector,
    parse_arrangement,
    parse_pattern,
    parse_sign_vector,
)
from .quotient import (
    BOUNDED,
    DEFAULT_MAX_COVER_D,
    EMPTY,
    _check_guard,
    chart_complement,
    extended_core,
    verify_covering,
    verify_density,
)
from .render import render_svg
from .stability import hk_semistable_numeric, pattern_realizable


def _load_arrangement(path):
    try:
        with open(path, "rb") as handle:
            return parse_arrangement(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _emit(payload):
    print(json.dumps(payload, indent=2))


def _point_json(point):
    return [format_rational(x) for x in point]


def _component_json(component):
    data = {
        "eps": format_sign_vector(component.eps),
        "classification": component.classification,
        "dimension": component.dimension,
    }
    if component.classification == BOUNDED:
        data["vertices"] = [_point_json(v) for v in enumerate_vertices(component.chamber)]
    return data


def _cmd_check(args):
    arr = _load_arrangement(args.file)
    regular = is_regular(arr)
    simple = is_simple(arr)
    _emit({"regular": regular, "simple": simple, "smooth": regular and simple})
    return 0 if (regular and simple) else 1


def _core_payload(arr, args):
    components = extended_core(arr, force=args.force)
    return {
        "components": [
            _component_json(c) for c in components if c.classification != EMPTY
        ],
        "theta_cpt_count": sum(
            1 for c in components if c.classification == BOUNDED and c.dimension == arr.n
        ),
    }


def _cover_payload(arr, args):
    report = verify_covering(arr, force=args.force)
    return {
        "covered": report.covered,
        "witness_count": len(report.witness),
        "counterexamples": [format_pattern(p) for p in report.counterexamples],
    }


def _density_results(arr):
    return {
        format_sign_vector(eps): verify_density(arr, eps)
        for eps in all_sign_vectors(arr.d)
    }


def _complement_payload(arr, args):
    eps = parse_sign_vector(args.chart, arr.d)
    report = chart_complement(arr, eps, force=args.force)
    return {
        "chart": format_sign_vector(eps),
        "excluded_patterns": [format_pattern(p) for p in report.excluded_patterns],
        "all_in_extended_core": report.all_in_extended_core,
        "max_state_dim": report.max_state_dim,
        "component_breakdown": {
            format_sign_vector(k): [format_pattern(p) for p in v]
            for k, v in report.component_breakdown.items()
        },
    }


def _cmd_core(args):
    arr = _load_arrangement(args.file)
    _emit(_core_payload(arr, args))
    return 0


def _cmd_stability(args):
    arr = _load_arrangement(args.file)
    pattern = parse_pattern(args.pattern, arr.d)
    td = torus_data(arr)
    realizable = pattern_realizable(td, pattern)
    verdict = hk_semistable_numeric(td, pattern)
    payload = {
        "pattern": format_pattern(pattern),
        "realizable": realizable,
        "semistable": verdict.semistable,
    }
    if verdict.semistable:
        payload["witness"] = _point_json(verdict.certificate.point)
    else:
        payload["farkas"] = _point_json(verdict.certificate.multipliers)
    _emit(payload)
    return 0 if verdict.semistable else 1


def _cmd_cover(args):
    arr = _load_arrangement(args.file)
    payload = _cover_payload(arr, args)
    _emit(payload)
    return 0 if payload["covered"] else 1


def _cmd_density(args):
    arr = _load_arrangement(args.file)
    _check_guard(arr, args.force, DEFAULT_MAX_COVER_D, "density sweep")
    results = _density_results(arr)
    payload = {"density": results, "all_hold": all(results.values())}
    _emit(payload)
    return 0 if payload["all_hold"] else 1


def _cmd_complement(args):
    arr = _load_arrangement(args.file)
    _emit(_complement_payload(arr, args))
    return 0


def _cmd_render(args):
    arr = _load_arrangement(args.file)
    svg = render_svg(arr, force=args.force)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(svg)
    return 0


def _cmd_report(args):
    arr = _load_arrangement(args.file)
    regular = is_regular(arr)
    simple = is_simple(arr)
    smooth = regular and simple
    td = torus_data(arr)
    payload = {
        "smooth": {"regular": regular, "simple": simple},
        "torus": {
            "m": td.m,
            "alpha": [format_rational(a) for a in td.alpha],
            "kernel_basis": [list(row) for row in td.basis],
        },
    }
    negative = not smooth
    if smooth:
        payload["core"] = _core_payload(arr, args)
        if payload["core"]["theta_cpt_count"]:
            payload["covering"] = _cover_payload(arr, args)
            negative = negative or not payload["covering"]["covered"]
        else:
            payload["covering"] = None
        payload["density"] = _density_results(arr)
        negative = negative or not all(payload["density"].values())
        if args.chart is not None:
            payload["complement"] = _complement_payload(arr, args)
    else:
        payload["core"] = None
        payload["covering"] = None
        payload["density"] = None
    _emit(payload)
    return 1 if negative else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="corecover",
        description="Exact stability, core and covering checks for oriented hyperplane arrangements.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--force", action="store_true", help="lift the exponential enumeration guards"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="smoothness report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("core", parents=[common], help="extended core and compact chambers")
    p.add_argument("file")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("stability", parents=[common], help="semistability of a support pattern")
    p.add_argument("file")
    p.add_argument("--pattern", required=True, help="d characters over z w 0 *")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("cover", parents=[common], help="verify the chart covering")
    p.add_argument("file")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("density", parents=[common], help="chart density dichotomy per sign vector")
    p.add_argument("file")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("complement", parents=[common], help="what one dense chart misses")
    p.add_argument("file")
    p.add_argument("--chart", required=True, help="d characters over + -")
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("render", parents=[common], help="deterministic SVG drawing")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("report", parents=[common], help="full JSON report")
    p.add_argument("file")
    p.add_argument("--chart", default=None, help="optionally include a chart complement")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
