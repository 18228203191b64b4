"""Arrangement file format and string codecs.

The on-disk format is a small UTF-8 JSON document:

    {"dim": n, "normals": [[...d integer rows of length n...]],
     "lifts": ["p/q" or "p", ...], "name": "optional"}

Lifts are exact rationals written in lowest terms with positive denominator;
they are parsed strictly (a non-reduced or malformed entry is rejected with
the offending index). Pattern strings use one character per hyperplane over
the alphabet z / w / 0 / *; sign strings use + / -.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from .arrangement import Arrangement
from .errors import ParseError
from .stability import Status

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")

_PATTERN_CHARS = {
    "z": Status.Z,
    "w": Status.W,
    "0": Status.ZERO,
    "*": Status.BOTH,
}
# Each letter's character, read without the Enum ``value`` descriptor.
_STATUS_CHARS = {status: ch for ch, status in _PATTERN_CHARS.items()}


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" in lowest terms with q > 0."""
    if not isinstance(text, str):
        raise ParseError("rational values must be strings")
    match = _RATIONAL_RE.fullmatch(text)
    if not match:
        raise ParseError(f"malformed rational {text!r}")
    try:
        num = int(match.group(1))
        den = int(match.group(2)) if match.group(2) else 1
    except ValueError:
        # more digits than ``sys.get_int_max_str_digits`` allows
        raise ParseError("rational has too many digits") from None
    if den != 1 and gcd(abs(num), den) != 1:
        raise ParseError(f"rational {text!r} is not in lowest terms")
    return Fraction(num, den)


def format_rational(value) -> str:
    if type(value) is not Fraction:
        value = Fraction(value)
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


# Digits per piece of an integer too long for ``str``: fewer than 640, the
# least limit ``sys.set_int_max_str_digits`` accepts, so every piece
# converts whatever the limit is.
_PIECE_DIGITS = 600


def _decimal(value: int) -> str:
    """``str(value)``; an integer with more digits than
    ``sys.get_int_max_str_digits`` allows, on which ``str`` raises, is
    converted ``_PIECE_DIGITS`` digits at a time, and the process-wide limit
    is left as it is. An answer may have far more digits than its input:
    the level multiplies the lifts' denominators."""
    try:
        return str(value)
    except ValueError:
        pass
    head, pieces, unit = abs(value), [], 10**_PIECE_DIGITS
    while head >= unit:
        head, low = divmod(head, unit)
        pieces.append(f"{low:0{_PIECE_DIGITS}d}")
    sign = "-" if value < 0 else ""
    return sign + str(head) + "".join(reversed(pieces))


def parse_arrangement(data) -> Arrangement:
    """Parse arrangement file bytes or text, enforcing all invariants."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc.reason} at byte {exc.start}") from None
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer with more digits than
        # ``sys.get_int_max_str_digits`` allows, or nesting too deep
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    allowed = {"dim", "normals", "lifts", "name"}
    for key in doc:
        if key not in allowed:
            raise ParseError(f"unexpected key: {key}")
    for key in ("dim", "normals", "lifts"):
        if key not in doc:
            raise ParseError(f"missing key: {key}")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("dim must be a positive integer")
    normals = doc["normals"]
    if not isinstance(normals, list) or not normals:
        raise ParseError("normals must be a nonempty array")
    for i, row in enumerate(normals):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"normal {i + 1} must be an array of length {dim}")
    lifts_raw = doc["lifts"]
    if not isinstance(lifts_raw, list):
        raise ParseError("lifts must be an array")
    lifts = []
    for i, text in enumerate(lifts_raw):
        try:
            lifts.append(parse_rational(text))
        except ParseError:
            raise ParseError(f"bad lift {i + 1}") from None
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("name must be a string")
    try:
        return Arrangement(
            dim,
            tuple(tuple(row) for row in normals),
            tuple(lifts),
            name=name,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_arrangement(arr: Arrangement) -> str:
    """Canonical file form: fixed key order, lifts in lowest terms."""
    doc = {
        "dim": arr.n,
        "normals": [list(u) for u in arr.normals],
        "lifts": [format_rational(lift) for lift in arr.lifts],
    }
    if arr.name is not None:
        doc["name"] = arr.name
    return json.dumps(doc, indent=2) + "\n"


def parse_pattern(text: str, d: int):
    """One character per hyperplane: z, w, 0 or *."""
    if len(text) != d:
        raise ParseError(f"pattern has length {len(text)}, expected {d}")
    out = []
    for pos, ch in enumerate(text):
        status = _PATTERN_CHARS.get(ch)
        if status is None:
            raise ParseError(
                f"unknown pattern character {ch!r} at position {pos + 1}"
            )
        out.append(status)
    return tuple(out)


def format_pattern(pattern) -> str:
    return "".join(map(_STATUS_CHARS.__getitem__, pattern))


def parse_sign_vector(text: str, d: int) -> tuple:
    if len(text) != d:
        raise ParseError(f"sign string has length {len(text)}, expected {d}")
    out = []
    for pos, ch in enumerate(text):
        if ch == "+":
            out.append(1)
        elif ch == "-":
            out.append(-1)
        else:
            raise ParseError(f"unknown sign character {ch!r} at position {pos + 1}")
    return tuple(out)


# The character of each sign.
_SIGN_CHAR = {1: "+", -1: "-"}.__getitem__


def format_sign_vector(eps) -> str:
    """The + / - string of a sign vector, whose entries are 1 and -1."""
    return "".join(map(_SIGN_CHAR, eps))
