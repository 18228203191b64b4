"""Deterministic SVG rendering of 1-D and 2-D arrangements.

All geometry is computed in exact rationals; numbers are only rounded at the
final formatting step with a fixed-point integer rule, so identical input
yields byte-identical SVG on every platform. The viewport is the bounding box
of the pairwise intersection points padded by twenty percent (a drawing
heuristic with no mathematical content). Bounded two-dimensional chambers,
as the extended core classifies them, are shaded; that sweep shares the
``d <= 12`` guard of the quotient sweeps. Normals are drawn as arrows at the
line midpoints, hyperplanes are labeled H1..Hd.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import Arrangement
from .quotient import BOUNDED, _chamber_vertices, _check_guard, _extended_core_cached

SIZE = 560
MARGIN = 40
LINE_HEIGHT = 200

CHAMBER_FILL = "#c9d7f2"
LINE_COLOR = "#1a1a1a"
ARROW_COLOR = "#7a7a7a"
AXIS_COLOR = "#1a1a1a"


def _fmt(value) -> str:
    """Fixed-point decimal with two digits, round half away from zero."""
    v = Fraction(value)
    num, den = (v * 100).numerator, (v * 100).denominator
    if num >= 0:
        r = (2 * num + den) // (2 * den)
    else:
        r = -((2 * (-num) + den) // (2 * den))
    whole, frac = divmod(abs(r), 100)
    sign = "-" if r < 0 else ""
    if frac == 0:
        return f"{sign}{whole}"
    digits = f"{frac:02d}".rstrip("0")
    return f"{sign}{whole}.{digits}"


def render_svg(arr: Arrangement, force: bool = False) -> str:
    if arr.n == 1:
        return _render_line(arr)
    if arr.n == 2:
        _check_guard(arr, force, "rendering")
        return _render_plane(arr)
    raise ValueError("rendering supports n <= 2")


def _svg_header(width, height):
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]


def _line(start, end, color, width: str) -> str:
    return (
        f'<line x1="{_fmt(start[0])}" y1="{_fmt(start[1])}" x2="{_fmt(end[0])}" '
        f'y2="{_fmt(end[1])}" stroke="{color}" stroke-width="{width}"/>'
    )


def _polygon(points, fill, stroke=None) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    tail = f' stroke="{stroke}"' if stroke else ""
    return f'<polygon points="{coords}" fill="{fill}"{tail}/>'


def _text(x, y, size: int, label: str) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="{size}" fill="{LINE_COLOR}">{label}</text>'
    )


def _render_line(arr: Arrangement) -> str:
    points = [-lift / Fraction(u[0]) for u, lift in zip(arr.normals, arr.lifts)]
    lo, hi = min(points), max(points)
    span = hi - lo
    pad = span / 5 if span > 0 else Fraction(1)
    lo, hi = lo - pad, hi + pad
    scale = Fraction(SIZE - 2 * MARGIN, 1) / (hi - lo)
    axis_y = Fraction(LINE_HEIGHT, 2) + 30

    def sx(x):
        return MARGIN + (x - lo) * scale

    parts = _svg_header(SIZE, LINE_HEIGHT)
    parts.append(_line((MARGIN, axis_y), (SIZE - MARGIN, axis_y), AXIS_COLOR, "1"))
    for i, (point, u) in enumerate(zip(points, arr.normals)):
        px = sx(point)
        parts.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(axis_y)}" r="3.5" fill="{LINE_COLOR}"/>'
        )
        direction = 1 if u[0] > 0 else -1
        ay = axis_y - 16 - 14 * i
        tip = px + 18 * direction
        parts.append(_line((px, ay), (tip, ay), ARROW_COLOR, "1.2"))
        head = ((tip, ay - 3), (tip, ay + 3), (tip + 5 * direction, ay))
        parts.append(_polygon(head, ARROW_COLOR))
        parts.append(_text(px + 4, ay - 3, 11, f"H{i + 1}"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _line_anchor_direction(u, lift):
    """A rational point on the line and a direction vector along it."""
    norm_sq = Fraction(u[0] * u[0] + u[1] * u[1])
    anchor = (-lift * u[0] / norm_sq, -lift * u[1] / norm_sq)
    direction = (Fraction(-u[1]), Fraction(u[0]))
    return anchor, direction


def _clip_params(anchor, direction, box):
    """Parameter interval of the line inside an axis-aligned box, or None."""
    (x0, x1), (y0, y1) = box
    t_lo, t_hi = None, None
    for a, d, lo, hi in ((anchor[0], direction[0], x0, x1), (anchor[1], direction[1], y0, y1)):
        if d == 0:
            if not lo <= a <= hi:
                return None
            continue
        t_first, t_second = (lo - a) / d, (hi - a) / d
        if t_first > t_second:
            t_first, t_second = t_second, t_first
        t_lo = t_first if t_lo is None else max(t_lo, t_first)
        t_hi = t_second if t_hi is None else min(t_hi, t_second)
    if t_lo is None or t_lo > t_hi:
        return None
    return t_lo, t_hi


def _sort_polygon(points):
    """Order convex polygon vertices counterclockwise around their centroid,
    starting at the positive x axis, on an exact key.

    The key is the pseudo-angle on the unit diamond ``|x| + |y| = 1``: with
    ``x`` the first coordinate of the direction from the centroid scaled
    onto the diamond, it is ``1 - x`` for ``y >= 0`` and ``3 + x`` below.
    It runs over ``[0, 4)`` and grows strictly with the angle. No vertex of
    a polygon with 3 or more vertices is its centroid.
    """
    k = len(points)
    cx = sum(p[0] for p in points) / k
    cy = sum(p[1] for p in points) / k

    def key(p):
        dx, dy = p[0] - cx, p[1] - cy
        x = dx / (abs(dx) + abs(dy))
        return 1 - x if dy >= 0 else 3 + x

    return sorted(points, key=key)


def _render_plane(arr: Arrangement) -> str:
    # the crossing points of the lines that are not parallel: the vertices
    crossings = [point for point, _ in arr._faces.vertices]
    if crossings:
        xs = [p[0] for p in crossings]
        ys = [p[1] for p in crossings]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    else:
        x0 = x1 = y0 = y1 = Fraction(0)
    pad = max(x1 - x0, y1 - y0, Fraction(2)) / 5
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    extent = max(x1 - x0, y1 - y0)
    inner = Fraction(SIZE - 2 * MARGIN)
    scale = inner / extent
    ox = MARGIN + (inner - (x1 - x0) * scale) / 2
    oy = MARGIN + (inner - (y1 - y0) * scale) / 2

    def to_screen(p):
        return (ox + (p[0] - x0) * scale, SIZE - (oy + (p[1] - y0) * scale))

    parts = _svg_header(SIZE, SIZE)

    for component in _extended_core_cached(arr).core:
        if component.classification != BOUNDED:
            continue
        # the input need not be smooth, so a bounded chamber may be flat; a
        # bounded planar polyhedron is 2-dimensional iff it has 3+ vertices
        vertices = _chamber_vertices(arr, component.eps)
        if len(vertices) < 3:
            continue
        outline = map(to_screen, _sort_polygon(vertices))
        parts.append(_polygon(outline, CHAMBER_FILL, "none"))

    box = ((x0, x1), (y0, y1))
    arrow_len = extent / 18
    for i, (u, lift) in enumerate(zip(arr.normals, arr.lifts)):
        anchor, direction = _line_anchor_direction(u, lift)
        params = _clip_params(anchor, direction, box)
        if params is None:
            continue
        t_lo, t_hi = params
        p_start = (anchor[0] + t_lo * direction[0], anchor[1] + t_lo * direction[1])
        p_end = (anchor[0] + t_hi * direction[0], anchor[1] + t_hi * direction[1])
        s0, s1 = to_screen(p_start), to_screen(p_end)
        parts.append(_line(s0, s1, LINE_COLOR, "1.5"))
        t_mid = (t_lo + t_hi) / 2
        mid = (anchor[0] + t_mid * direction[0], anchor[1] + t_mid * direction[1])
        u_scale = arrow_len / max(abs(u[0]), abs(u[1]))
        tip = (mid[0] + u[0] * u_scale, mid[1] + u[1] * u_scale)
        base = (mid[0] + u[0] * u_scale * Fraction(7, 10), mid[1] + u[1] * u_scale * Fraction(7, 10))
        side = (direction[0] * u_scale * Fraction(15, 100), direction[1] * u_scale * Fraction(15, 100))
        sm, st = to_screen(mid), to_screen(tip)
        sb1 = to_screen((base[0] + side[0], base[1] + side[1]))
        sb2 = to_screen((base[0] - side[0], base[1] - side[1]))
        parts.append(_line(sm, st, ARROW_COLOR, "1.2"))
        parts.append(_polygon((sb1, sb2, st), ARROW_COLOR))
        parts.append(_text(s1[0] + 4, s1[1] - 4, 12, f"H{i + 1}"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
