import hashlib
import random

import pytest

from corecover import Arrangement, GuardError, is_simple, render_svg
from corecover.quotient import BOUNDED, _chamber_vertices, _extended_core_cached
from corecover.render import _sort_polygon
from util import polygon_order_by_comparison


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


class TestPolygonOrder:
    def test_matches_comparison_on_random_chambers(self):
        # every bounded chamber of seeded random arrangements of small
        # integer lines, many of them with three or more through a point
        directions = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1))
        rng = random.Random(4)
        polygons = not_simple = 0
        for _ in range(150):
            d = rng.randint(3, 7)
            normals = tuple(
                tuple(rng.choice((1, -1)) * x for x in rng.choice(directions)) for _ in range(d)
            )
            try:
                arr = Arrangement(2, normals, tuple(rng.randint(-2, 2) for _ in range(d)))
            except ValueError:
                continue
            not_simple += not is_simple(arr)
            for component in _extended_core_cached(arr).core:
                if component.classification != BOUNDED:
                    continue
                vertices = _chamber_vertices(arr, component.eps)
                if len(vertices) < 3:
                    continue
                rng.shuffle(vertices)
                assert _sort_polygon(vertices) == polygon_order_by_comparison(vertices)
                polygons += 1
        assert polygons > 600 and not_simple > 50
