import functools
import hashlib
import random

import pytest

from corecover import Arrangement, GuardError, is_simple, render_svg
from corecover.quotient import BOUNDED, _extended_core_cached
from corecover.render import _sort_polygon
from util import chamber_vertices, polygon_order_by_comparison


@functools.cache
def random_line_chambers() -> tuple:
    """150 seeded draws of small integer lines, many of them with three or
    more through a point: ``(arrangements, polygons)``, the draws the
    constructor accepts (149) and the vertices of each 2-dimensional
    bounded chamber, shuffled."""
    directions = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1))
    rng = random.Random(4)
    arrangements, polygons = [], []
    for _ in range(150):
        d = rng.randint(3, 7)
        normals = tuple(
            tuple(rng.choice((1, -1)) * x for x in rng.choice(directions)) for _ in range(d)
        )
        try:
            arr = Arrangement(2, normals, tuple(rng.randint(-2, 2) for _ in range(d)))
        except ValueError:
            continue
        arrangements.append(arr)
        for component in _extended_core_cached(arr).core:
            if component.classification != BOUNDED:
                continue
            vertices = chamber_vertices(arr, component.eps)
            if len(vertices) < 3:
                continue
            rng.shuffle(vertices)
            polygons.append(vertices)
    return tuple(arrangements), tuple(polygons)


class TestRenderPlane:
    def test_byte_deterministic(self, hirzebruch):
        assert render_svg(hirzebruch) == render_svg(hirzebruch)

    def test_trapezoid_content(self, hirzebruch):
        svg = render_svg(hirzebruch)
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        # four hyperplane lines and two shaded chambers
        assert svg.count('stroke-width="1.5"') == 4
        assert svg.count('fill="#c9d7f2"') == 2
        for label in ("H1", "H2", "H3", "H4"):
            assert f">{label}</text>" in svg

    def test_triangle_pair_two_chambers(self, triangle_pair):
        assert render_svg(triangle_pair).count('fill="#c9d7f2"') == 2

    def test_product_no_shading(self, trivial_product):
        assert render_svg(trivial_product).count('fill="#c9d7f2"') == 0

    def test_crossing_pair(self):
        arr = Arrangement(2, ((1, 0), (0, 1)), (0, 0))
        svg = render_svg(arr)
        assert svg.count('stroke-width="1.5"') == 2
        assert svg.count('fill="#c9d7f2"') == 0


class TestRenderLine:
    def test_a2_points(self, a2_resolution):
        svg = render_svg(a2_resolution)
        assert svg.count("<circle") == 3
        assert ">H1</text>" in svg and ">H3</text>" in svg
        assert render_svg(a2_resolution) == svg


class TestRenderErrors:
    def test_dimension_guard(self):
        arr = Arrangement(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))
        with pytest.raises(ValueError, match="n <= 2"):
            render_svg(arr)

    def test_hyperplane_count_guard(self):
        normals = tuple((1, k) for k in range(13))
        arr = Arrangement(2, normals, tuple(range(13)))
        with pytest.raises(GuardError, match="rendering"):
            render_svg(arr)


class TestPinnedSvg:
    # SHA-256 of render_svg over the 2-D fixtures and a non-smooth
    # arrangement (three lines through the origin cut by a fourth), recorded
    # before shading read the chamber classification of the quotient layer.
    DIGEST = "325242b43d114f9a839cc1826553cd252e14d2b35cbbea29764d6b308acd0a3d"

    def test_svg_digest(self, hirzebruch, triangle_pair, trivial_product):
        diagonal = Arrangement(2, ((1, 0), (0, 1), (-1, -1)), (1, 1, 1))
        triple_point = Arrangement(2, ((1, 0), (0, 1), (-1, -1), (1, -1)), (0, 0, 1, 0))
        digest = hashlib.sha256()
        for arr in (diagonal, hirzebruch, triangle_pair, trivial_product, triple_point):
            digest.update(render_svg(arr).encode())
        assert digest.hexdigest() == self.DIGEST

    # SHA-256 of render_svg over the seeded random integer lines, more than
    # 50 of them not simple, where a bounded chamber may be flat: the
    # shading reads the core walk's masks, each its chamber's
    # ``_chamber_mask``
    RANDOM_DIGEST = "310558bf79f29860443f513a2c8cb28ec2b0a41579888a509d529cf63c66c210"

    def test_svg_digest_on_lines_that_are_not_simple(self):
        digest = hashlib.sha256()
        for arr in random_line_chambers()[0]:
            digest.update(render_svg(arr).encode())
        assert digest.hexdigest() == self.RANDOM_DIGEST


class TestPolygonOrder:
    def test_matches_comparison_on_random_chambers(self):
        # every bounded chamber of the seeded random integer lines
        arrangements, polygons = random_line_chambers()
        for vertices in polygons:
            assert _sort_polygon(vertices) == polygon_order_by_comparison(vertices)
        not_simple = sum(not is_simple(arr) for arr in arrangements)
        assert len(polygons) > 600 and not_simple > 50
