import ast
import math
import random
import sys
from collections import Counter

import pytest

import morley.forward
from morley.forward import (
    _meet,
    apply_similarity,
    morley_triangle,
    side_spread,
    trisectors,
)
from morley.kernel import (
    DegenerateTriangle,
    GeometryError,
    NearParallel,
    Point,
    Triangle,
    angle_at,
    orientation,
)
from morley.verify import random_similarity, random_triangle

# Morley triangle of the right triangle (0,0), (4,0), (0,3), frozen
# from an independent implementation of the same trisection.
RIGHT_345_VERTICES = (
    (1.2336613474464739, 1.2653568789437701),
    (0.61683067372323719, 1.068382066555587),
    (1.0958312020186955, 0.63267843947188485),
)
RIGHT_345_SIDE = 0.64751768837709911

# Ratio of an equilateral triangle's side to its Morley triangle's,
# which equals sqrt(3) / (8 sin^3(pi/9)).
EQUILATERAL_RATIO = 5.4114741278097735


def unit_equilateral() -> Triangle:
    return Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, math.sqrt(3.0) / 2.0))


def _centroid(t: Triangle) -> Point:
    return Point((t.v1.x + t.v2.x + t.v3.x) / 3.0, (t.v1.y + t.v2.y + t.v3.y) / 3.0)


class TestTrisectors:
    def test_right_angle_splits_into_thirty_degree_rays(self):
        t = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0))
        first, second = trisectors(t, 1)
        assert first.distance_to(Point(math.cos(math.pi / 6.0), math.sin(math.pi / 6.0))) <= 1e-15
        assert second.distance_to(
            Point(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
        ) <= 1e-15

    def test_clockwise_triangle_turns_the_other_way(self):
        t = Triangle(Point(0.0, 0.0), Point(0.0, 1.0), Point(1.0, 0.0))
        assert orientation(*t.vertices) == -1
        first, _ = trisectors(t, 1)
        # Side toward the next vertex points up; the trisector must
        # turn toward the interior, which lies clockwise from it.
        assert first.x > 0.0

    def test_rays_divide_angle_in_thirds(self):
        rng = random.Random(21)
        for _ in range(100):
            t = random_triangle(rng)
            for index in (1, 2, 3):
                vertices = t.vertices
                v, nxt, prv = vertices[index - 1], vertices[index % 3], vertices[(index + 1) % 3]
                theta = angle_at(v, nxt, prv)
                first, second = trisectors(t, index)
                assert math.hypot(first.x, first.y) == pytest.approx(1.0, abs=1e-15)
                assert math.hypot(second.x, second.y) == pytest.approx(1.0, abs=1e-15)
                assert angle_at(v, nxt, v + first) == pytest.approx(
                    theta / 3.0, abs=1e-12
                )
                assert angle_at(v, nxt, v + second) == pytest.approx(
                    2.0 * theta / 3.0, abs=1e-12
                )
                assert angle_at(v, v + second, prv) == pytest.approx(
                    theta / 3.0, abs=1e-12
                )

    def test_index_validation(self):
        t = unit_equilateral()
        with pytest.raises(ValueError):
            trisectors(t, 0)
        with pytest.raises(ValueError):
            trisectors(t, 4)


class TestMorleyTriangle:
    def test_right_345_matches_frozen_vertices(self):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        m = morley_triangle(t)
        for vertex, (x, y) in zip(m.vertices, RIGHT_345_VERTICES):
            assert vertex.distance_to(Point(x, y)) <= 1e-12
        assert m.side_lengths()[0] == pytest.approx(RIGHT_345_SIDE, rel=1e-12)

    def test_equilateral_input_gives_concentric_equilateral(self):
        t = unit_equilateral()
        m = morley_triangle(t)
        assert side_spread(m) <= 1e-12
        assert _centroid(m).distance_to(_centroid(t)) <= 1e-12
        assert t.scale() / m.scale() == pytest.approx(EQUILATERAL_RATIO, rel=1e-12)

    def test_equilateral_input_shares_symmetry_axes(self):
        t = unit_equilateral()
        m = morley_triangle(t)
        center = _centroid(t)
        # The Morley vertex near a side lies on the median axis
        # through that side's midpoint.
        for vertex, (p, q) in zip(m.vertices, ((t.v2, t.v3), (t.v3, t.v1), (t.v1, t.v2))):
            mid = Point((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)
            assert angle_at(center, mid, vertex) <= 1e-9

    def test_first_vertex_is_nearest_to_first_side(self):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))
        m = morley_triangle(t)

        def dist_to_side(p: Point, a: Point, b: Point) -> float:
            d, w = b - a, p - a
            return abs(d.x * w.y - d.y * w.x) / math.hypot(d.x, d.y)

        # m.v1 sits closest to side v2-v3, m.v3 to side v1-v2.
        assert dist_to_side(m.v1, t.v2, t.v3) < dist_to_side(m.v2, t.v2, t.v3)
        assert dist_to_side(m.v1, t.v2, t.v3) < dist_to_side(m.v3, t.v2, t.v3)
        assert dist_to_side(m.v3, t.v1, t.v2) < dist_to_side(m.v1, t.v1, t.v2)

    def test_morley_triangle_inside_input(self):
        rng = random.Random(22)
        for _ in range(50):
            t = random_triangle(rng)
            m = morley_triangle(t)
            sign = orientation(*t.vertices)
            for p in m.vertices:
                assert orientation(t.v1, t.v2, p) == sign
                assert orientation(t.v2, t.v3, p) == sign
                assert orientation(t.v3, t.v1, p) == sign

    def test_equilateral_across_random_triangles(self):
        rng = random.Random(23)
        worst = 0.0
        for _ in range(300):
            worst = max(worst, side_spread(morley_triangle(random_triangle(rng))))
        assert worst <= 1e-9

    def test_collinear_input_raises(self):
        with pytest.raises(DegenerateTriangle):
            morley_triangle(Triangle(Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 2.0)))

    def test_needle_triangle_raises(self):
        t = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 1e-8))
        with pytest.raises(DegenerateTriangle):
            morley_triangle(t)

    def test_builds_only_the_three_meets(self, monkeypatch):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        calls = Counter()
        init = Point.__init__

        def counting(self, x, y):
            calls["Point"] += 1
            init(self, x, y)

        monkeypatch.setattr(Point, "__init__", counting)
        morley_triangle(t)
        # Trisector directions stay floats until the meets.
        assert calls["Point"] == 3

    def test_parallel_trisectors_message_names_sine_and_threshold(self):
        # Adjacent trisectors turn by B/3 and C/3 off their side, so only
        # rounding at extreme scales makes them parallel; _meet is the site.
        with pytest.raises(NearParallel, match=r"\|sin\| of their angle 0\.000e\+00 <= EPS_PARALLEL 1e-12"):
            _meet(Point(0.0, 0.0), (1.0, 0.0), Point(0.0, 1.0), (-1.0, 0.0), 1.0)


class TestApplySimilarity:
    def test_identity_map(self):
        t = unit_equilateral()
        assert apply_similarity(t, 0.0, 1.0, Point(0.0, 0.0)) == t

    def test_pure_translation(self):
        t = unit_equilateral()
        moved = apply_similarity(t, 0.0, 1.0, Point(3.0, -2.0))
        assert moved.v1 == t.v1 + Point(3.0, -2.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(GeometryError):
            apply_similarity(unit_equilateral(), 0.0, 0.0, Point(0.0, 0.0))

    def test_commutes_with_trisection(self):
        rng = random.Random(24)
        for _ in range(50):
            t = random_triangle(rng)
            theta, scale, shift = random_similarity(rng)
            direct = morley_triangle(apply_similarity(t, theta, scale, shift))
            pushed = apply_similarity(morley_triangle(t), theta, scale, shift)
            ref = scale * t.scale()
            worst = max(u.distance_to(v) for u, v in zip(direct.vertices, pushed.vertices))
            assert worst <= 1e-9 * ref

    def test_quarter_turn_exact_case(self):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        direct = morley_triangle(apply_similarity(t, math.pi / 2.0, 1.0, Point(0.0, 0.0)))
        pushed = apply_similarity(morley_triangle(t), math.pi / 2.0, 1.0, Point(0.0, 0.0))
        worst = max(u.distance_to(v) for u, v in zip(direct.vertices, pushed.vertices))
        assert worst <= 1e-12 * t.scale()


def _mapped(t: Triangle, sx: float, sy: float) -> Triangle:
    return Triangle(*(Point(sx * p.x, sy * p.y) for p in t.vertices))


def _hex(t: Triangle) -> list[str]:
    """Every vertex coordinate as hex, so that -0.0 and 0.0 differ."""
    return [v.hex() for p in t.vertices for v in (p.x, p.y)]


class TestExactReflections:
    """Negating a coordinate is exact in floating point, so trisecting
    commutes bit for bit with the mirror (x, y) -> (x, -y) and the point
    reflection (x, y) -> (-x, -y), at any power-of-two scale; where the
    original raises, its image raises the same error type.  Swapping x
    with y and the quarter turn do not commute yet."""

    @pytest.mark.parametrize("sx, sy", [(1.0, -1.0), (-1.0, -1.0)], ids=["mirror", "point-reflection"])
    def test_morley_triangle(self, sx, sy):
        rng = random.Random(29)
        needle = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 1e-8))
        for k in (-900, 0, 40, 50, 900):
            scale = math.ldexp(1.0, k)
            for t in [_mapped(needle, scale, scale), *(_mapped(random_triangle(rng), scale, scale) for _ in range(100))]:
                try:
                    want = _hex(_mapped(morley_triangle(t), sx, sy))
                except (GeometryError, ZeroDivisionError) as exc:
                    with pytest.raises((GeometryError, ZeroDivisionError)) as info:
                        morley_triangle(_mapped(t, sx, sy))
                    assert type(info.value) is type(exc)
                    continue
                assert _hex(morley_triangle(_mapped(t, sx, sy))) == want


def test_imports_only_the_kernel_and_the_stdlib():
    # The oracle is a witness for the construction only while it shares
    # none of morley.inverse's code.
    with open(morley.forward.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    package, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert package == {".kernel"}
    assert {name.split(".")[0] for name in absolute} <= sys.stdlib_module_names
