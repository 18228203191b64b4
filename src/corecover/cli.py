"""Command line interface.

Commands operate on arrangement files (see :mod:`corecover.formats`) and
print JSON to standard output. Exit codes: 0 for success or a verified
positive result, 1 for a verified negative result (unstable, covering
counterexample, density failure, or a ``check`` or ``report`` of an
arrangement that is not smooth), 2 for input or usage errors, 3 when
standard output is closed before the JSON is written, whatever the verdict.
``core``, ``cover``, ``density`` and ``complement`` need a smooth
arrangement and reject any other as input: exit 2, ``error: arrangement is
not smooth``. ``stability`` and ``render`` run on any arrangement.

The exhaustive sweeps are guarded by fixed hyperplane-count limits;
``--force`` lifts every guard. Every input and guard is checked before any
sweep starts: ``report --chart`` parses the chart first, then checks the
complement guard and the chart's chamber before the core sweep.

``main`` reads a command name, one FILE, ``--force`` and the command's options
as ``--long=V``, ``--long V`` or ``-o V`` off the command table (FILE and a
separate V not starting with ``-``); argparse parses all else unchanged.
A path object in ``argv`` reads as its ``os.fspath``; any other token that
is not a str is a usage error: exit 2, one ``error:`` line.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .arrangement import all_sign_vectors, is_regular, is_simple, torus_data
from .errors import ParseError
from .formats import (
    _SIGN_CHARS,
    _decimal,
    format_pattern,
    format_rational,
    format_sign_vector,
    parse_arrangement,
    parse_pattern,
    parse_sign_vector,
)
from .quotient import BOUNDED, _check_guard, _covering_counts, _extended_core_cached
from .quotient import chart_complement, extended_core
from .render import render_svg
from .stability import _indices, hk_semistable_numeric, pattern_realizable


def _load_arrangement(path):
    try:
        with open(path, "rb") as handle:
            return parse_arrangement(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _dumps(value, newline="\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the types the
    commands build: dicts with str keys, lists, str, int, bool and None;
    any other type raises ``TypeError``. With ``indent`` set, ``json.dumps``
    encodes in pure Python, token by token; this builds each container with
    one ``str.join`` over its encoded items. ``newline`` is the line break
    and indentation of the container that holds ``value``. An int goes
    through ``formats._decimal``, so one over the interpreter's digit limit
    is written in full where ``json.dumps`` would raise."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return _decimal(value)
    inner = newline + "  "
    if type(value) is list:
        if not value:
            return "[]"
        items = [encode_basestring_ascii(x) if type(x) is str else _dumps(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is no str;
        # str items and bool values, the most common, are encoded inline
        items = [
            encode_basestring_ascii(k)
            + ((": true" if x else ": false") if type(x) is bool else ": " + _dumps(x, inner))
            for k, x in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"cannot encode {type(value).__name__} as JSON")


def _emit(payload):
    """One write and a flush: a closed standard output is met here, not at exit."""
    sys.stdout.write(_dumps(payload) + "\n")
    sys.stdout.flush()


def _point_json(point):
    return [format_rational(x) for x in point]


def _core(arr, args):
    """The extended core; each vertex is formatted once, and a bounded
    component lists those of its vertex mask, which the core walk keeps."""
    components = extended_core(arr, force=args.force)
    masks = iter(_extended_core_cached(arr).masks)
    points = [_point_json(p) for p, _ in arr._faces.vertices]
    listed = []
    for c in components:
        data = dict(eps=format_sign_vector(c.eps), classification=c.classification, dimension=arr.n)
        if c.classification == BOUNDED:
            mask = next(masks)
            data["vertices"] = [points[j] for j in _indices(mask)]
        listed.append(data)
    compact = sum(c["classification"] == BOUNDED for c in listed)
    return {"components": listed, "theta_cpt_count": compact}


def _check(arr, args):
    regular = is_regular(arr)
    simple = is_simple(arr)
    return {"regular": regular, "simple": simple, "smooth": regular and simple}


def _stability(arr, args):
    pattern = parse_pattern(args.pattern, arr.d)
    verdict = hk_semistable_numeric(torus_data(arr), pattern)
    payload = {
        "pattern": format_pattern(pattern),
        "realizable": pattern_realizable(arr, pattern),
        "semistable": verdict.semistable,
    }
    if verdict.semistable:
        payload["witness"] = _point_json(verdict.certificate.point)
    else:
        payload["farkas"] = _point_json(verdict.certificate.multipliers)
    return payload


def _cover(arr, args):
    """``verify_covering``'s verdict, counted: no witness dict is built."""
    witnessed, counterexamples = _covering_counts(arr, args.force)
    return {
        "covered": not counterexamples,
        "witness_count": witnessed,
        "counterexamples": [format_pattern(p) for p in counterexamples],
    }


def _density(arr, args):
    """The dichotomy on all 2^d sign vectors, as ``verify_density`` decides
    it, from two sets read once: the numerically semistable dense patterns,
    from the vertices of the numeric system of the torus data alone, and the
    nonempty chambers of the extended core, from the arrangement's vertices.
    Each entry compares two lookups; no LP. The guard stays because the
    section prints 2^d entries."""
    _check_guard(arr, args.force, "density sweep")
    chambers = {c.eps for c in extended_core(arr, force=args.force)}
    numeric = torus_data(arr)._numeric_chambers
    keys = map("".join, itertools.product(_SIGN_CHARS.values(), repeat=arr.d))
    results = {
        key: (e in numeric) == (e in chambers) for key, e in zip(keys, all_sign_vectors(arr.d))
    }
    return {"density": results, "all_hold": all(results.values())}


def _complement(arr, args):
    eps = parse_sign_vector(args.chart, arr.d)
    report = chart_complement(arr, eps, force=args.force)
    text = {p: format_pattern(p) for p in report.excluded_patterns}
    return {
        "chart": format_sign_vector(eps),
        "excluded_patterns": [text[p] for p in report.excluded_patterns],
        "all_in_extended_core": report.all_in_extended_core,
        "max_state_dim": report.max_state_dim,
        "component_breakdown": {
            format_sign_vector(k): [text[p] for p in v]
            for k, v in report.component_breakdown.items()
        },
    }


def _render(arr, args):
    svg = render_svg(arr, force=args.force)
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(svg)
    except OSError as exc:
        raise ParseError(f"cannot write {args.output}: {exc.strerror}") from None


def _report(arr, args):
    if args.chart is not None:
        # a malformed chart is an input error on a non-smooth file too
        parse_sign_vector(args.chart, arr.d)
    smooth = _check(arr, args)
    td = torus_data(arr)
    payload = {
        "smooth": {"regular": smooth["regular"], "simple": smooth["simple"]},
        "torus": {
            "m": td.m,
            "alpha": [format_rational(a) for a in td.alpha],
            "kernel_basis": [list(row) for row in td.basis],
        },
        "core": None,
        "covering": None,
        "density": None,
    }
    if smooth["smooth"]:
        # parsing the chart, the strictest guard and the chamber check come
        # before the first sweep; the complement key still comes last
        complement = _complement(arr, args) if args.chart is not None else None
        payload["core"] = _core(arr, args)
        if payload["core"]["theta_cpt_count"]:
            payload["covering"] = _cover(arr, args)
        payload["density"] = _density(arr, args)["density"]
        if complement is not None:
            payload["complement"] = complement
    return payload


def _report_positive(payload):
    if not all(payload["smooth"].values()):
        return False
    covering = payload["covering"]
    return (covering is None or covering["covered"]) and all(payload["density"].values())


# A command's builder maps (arr, args) to the payload to print (None prints
# nothing); ``positive`` tells a verified positive payload (exit 0) from a
# negative one (exit 1), and None means the command always exits 0.
_Command = namedtuple("_Command", "build positive help arguments", defaults=((),))

_COMMANDS = {
    "check": _Command(_check, lambda p: p["smooth"], "smoothness report"),
    "core": _Command(_core, None, "extended core and compact chambers"),
    "stability": _Command(
        _stability, lambda p: p["semistable"], "semistability of a support pattern",
        [("--pattern", {"required": True, "help": "d characters over z w 0 *"})],
    ),
    "cover": _Command(_cover, lambda p: p["covered"], "verify the chart covering"),
    "density": _Command(
        _density, lambda p: p["all_hold"], "chart density dichotomy per sign vector"
    ),
    "complement": _Command(
        _complement, None, "what one dense chart misses",
        [("--chart", {"required": True, "help": "d characters over + -"})],
    ),
    "render": _Command(
        _render, None, "deterministic SVG drawing", [("-o", "--output", {"required": True})]
    ),
    "report": _Command(
        _report, _report_positive, "full JSON report",
        [("--chart", {"default": None, "help": "optionally include a chart complement"})],
    ),
}


def build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="corecover",
        description="Exact stability, core and covering checks for oriented hyperplane arrangements.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--force", action="store_true", help="lift the exponential enumeration guards"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        p.add_argument("file")
        for *flags, keywords in command.arguments:
            p.add_argument(*flags, **keywords)
    return parser


def _read_argv(argv):
    """``build_parser().parse_args(argv)`` read off ``_COMMANDS`` for the spellings the
    module docstring lists, else None. Required options enter ``values`` only when given."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values, dests = {"command": argv[0], "force": False}, {}
    for *flags, keywords in _COMMANDS[argv[0]].arguments:
        dests.update(dict.fromkeys(flags, flags[-1][2:]))
        if not keywords.get("required"):
            values[flags[-1][2:]] = keywords.get("default")
    tokens = iter(argv[1:])
    for token in tokens:
        name, equals, value = token.partition("=")
        if token == "--force":
            values["force"] = True
        elif equals and name.startswith("--") and name in dests:
            values[dests[name]] = value
        elif not token.startswith("-") and "file" not in values:
            values["file"] = token
        elif token in dests and not (value := next(tokens, "-")).startswith("-"):
            values[dests[token]] = value
        else:
            return None
    return SimpleNamespace(**values) if values.keys() >= {"file", *dests.values()} else None


# Built for help and the command lines ``_read_argv`` declines; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else [
        os.fspath(token) if isinstance(token, os.PathLike) else token for token in argv
    ]
    for i, token in enumerate(argv, 1):
        if not isinstance(token, str):
            print(f"error: argument {i} is a {type(token).__name__}, not a string", file=sys.stderr)
            return 2
    try:
        args = _read_argv(argv) or _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    command = _COMMANDS[args.command]
    try:
        payload = command.build(_load_arrangement(args.file), args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if payload is not None:
        try:
            _emit(payload)
        except BrokenPipeError:
            # the reader is gone: the interpreter's final flush goes nowhere
            sys.stdout = open(os.devnull, "w")
            return 3
    return 0 if command.positive is None or command.positive(payload) else 1


if __name__ == "__main__":
    sys.exit(main())
