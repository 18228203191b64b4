"""Arrangement file format and string codecs.

The on-disk format is a small UTF-8 JSON document:

    {"dim": n, "normals": [[...d integer rows of length n...]],
     "lifts": ["p/q" or "p", ...], "name": "optional"}

Lifts are exact rationals written as ``format_rational`` writes them: "p"
for an integer and "p/q" otherwise, in lowest terms with q > 1, with no
leading zeros, no "+" and no "-0". They are parsed strictly: a lift is
accepted exactly when it is written that way, so every accepted lift
survives a parse and serialize round trip byte for byte, and any other
spelling is rejected with the offending index. Pattern strings use one
character per hyperplane over the alphabet z / w / 0 / *; sign strings use
+ / -. Each alphabet has one table, read one way to parse and the other to
format. A parser refuses text that is not a str with ``ParseError``; a
formatter names an entry outside its alphabet, and its position, in a
``ValueError``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from .arrangement import Arrangement
from .errors import ParseError
from .stability import Status

# format_rational's spellings: "0" or a nonzero integer with no leading
# zero, then possibly a denominator above 1 with no leading zero
_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/([2-9]|[1-9][0-9]+))?")

# Each letter's character is its value; the tables are read both ways, the
# characters without the Enum ``value`` descriptor.
_PATTERN_CHARS = {status.value: status for status in Status}
_STATUS_CHARS = {status: ch for ch, status in _PATTERN_CHARS.items()}
_SIGN_CHARS = {1: "+", -1: "-"}
_CHAR_SIGNS = {ch: s for s, ch in _SIGN_CHARS.items()}


def parse_rational(text: str) -> Fraction:
    """Parse "p", or "p/q" in lowest terms with q > 1, spelled as
    ``format_rational`` writes them: no leading zeros, no "+", no "-0"."""
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
    if gcd(num, den) != 1:
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
        if not isinstance(row, list):
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
    try:
        return Arrangement(dim, normals, lifts, name=doc.get("name"))
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


def _parse_chars(text, d: int, table: dict, name: str, kind: str) -> tuple:
    """One entry of ``table`` per character of a str ``text`` of length ``d``."""
    if not isinstance(text, str):
        raise ParseError(f"{name} must be a string")
    if len(text) != d:
        raise ParseError(f"{name} has length {len(text)}, expected {d}")
    out = []
    for pos, ch in enumerate(text):
        entry = table.get(ch)
        if entry is None:
            raise ParseError(f"unknown {kind} character {ch!r} at position {pos + 1}")
        out.append(entry)
    return tuple(out)


def _format_chars(entries, table: dict, name: str) -> str:
    """The character in ``table`` of each entry; an entry it lacks is named."""
    entries = tuple(entries)
    try:
        return "".join(map(table.__getitem__, entries))
    except KeyError as exc:
        bad = exc.args[0]
        raise ValueError(
            f"cannot format {name} entry {bad!r} at position {entries.index(bad) + 1}"
        ) from None


def parse_pattern(text: str, d: int):
    """One character per hyperplane: z, w, 0 or *."""
    return _parse_chars(text, d, _PATTERN_CHARS, "pattern", "pattern")


def format_pattern(pattern) -> str:
    return _format_chars(pattern, _STATUS_CHARS, "pattern")


def parse_sign_vector(text: str, d: int) -> tuple:
    return _parse_chars(text, d, _CHAR_SIGNS, "sign string", "sign")


def format_sign_vector(eps) -> str:
    """The + / - string of a sign vector, whose entries are 1 and -1."""
    return _format_chars(eps, _SIGN_CHARS, "sign vector")
