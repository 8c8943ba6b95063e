import dataclasses
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from morley.kernel import (
    Circle,
    DegenerateChord,
    DegenerateRay,
    DegenerateTriangle,
    FarPointOnLine,
    GeometryError,
    Line,
    NearParallel,
    Point,
    Triangle,
    angle_at,
    chord_arc_circle,
    cross_dot,
    intersect_lines,
    midpoint,
    orientation,
    rotate_about,
    signed_angle,
)

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coord, coord)


def _random_point(rng: random.Random, box: float) -> Point:
    return Point(rng.uniform(-box, box), rng.uniform(-box, box))


def _scaled(k: float, p: Point) -> Point:
    return Point(p.x * k, p.y * k)


def _distance_to_line(line: Line, r: Point) -> float:
    d, w = line.q - line.p, r - line.p
    return abs(d.x * w.y - d.y * w.x) / math.hypot(d.x, d.y)


def _is_equilateral(t: Triangle, rtol: float) -> bool:
    lengths = t.side_lengths()
    return (max(lengths) - min(lengths)) <= rtol * max(lengths)


def test_point_arithmetic():
    p = Point(1.0, 2.0)
    q = Point(3.0, -1.0)
    assert p + q == Point(4.0, 1.0)
    assert q - p == Point(2.0, -3.0)
    with pytest.raises(TypeError):
        2.0 * p
    cross, dot, k = cross_dot(p.x, p.y, q.x, q.y, p.distance_to(q))
    assert dot / k / k == 1.0
    assert cross / k / k == -7.0
    assert p.distance_to(q) == pytest.approx(math.sqrt(13.0), abs=0.0)


def test_point_rejects_non_finite():
    with pytest.raises(GeometryError):
        Point(math.nan, 0.0)
    with pytest.raises(GeometryError):
        Point(0.0, math.inf)


def test_point_coordinates_are_plain_floats():
    np = pytest.importorskip("numpy")
    p = Point(np.float64(1.5), np.int64(2))
    assert type(p.x) is float and type(p.y) is float


def test_point_int_coordinates_become_floats():
    p = Point(1, 2)
    assert type(p.x) is float and type(p.y) is float
    assert p == Point(1.0, 2.0) and hash(p) == hash(Point(1.0, 2.0))
    assert repr(p) == "Point(x=1.0, y=2.0)"


def test_point_is_frozen_and_slotted():
    p = Point(1.0, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.x = 3.0
    assert not hasattr(p, "__dict__")


def test_line_needs_distinct_points():
    from morley.kernel import DegenerateLine

    with pytest.raises(DegenerateLine):
        Line(Point(1.0, 1.0), Point(1.0, 1.0))


def test_circle_needs_positive_radius():
    with pytest.raises(GeometryError):
        Circle(Point(0.0, 0.0), 0.0)
    with pytest.raises(GeometryError):
        Circle(Point(0.0, 0.0), -1.0)


class TestIntersectLines:
    def test_unit_square_diagonals(self):
        d1 = Line(Point(0.0, 0.0), Point(1.0, 1.0))
        d2 = Line(Point(1.0, 0.0), Point(0.0, 1.0))
        hit = intersect_lines(d1, d2)
        assert hit.distance_to(Point(0.5, 0.5)) <= 1e-15

    def test_parallel_horizontals_raise(self):
        l1 = Line(Point(0.0, 0.0), Point(1.0, 0.0))
        l2 = Line(Point(0.0, 1.0), Point(1.0, 1.0))
        with pytest.raises(NearParallel):
            intersect_lines(l1, l2)

    def test_slope_difference_below_threshold_raises(self):
        l1 = Line(Point(0.0, 0.0), Point(1.0, 0.0))
        l2 = Line(Point(0.0, 1.0), Point(1.0, 1.0 + 1e-15))
        with pytest.raises(NearParallel):
            intersect_lines(l1, l2)

    def test_message_names_sine_and_threshold(self):
        l1 = Line(Point(0.0, 0.0), Point(1.0, 0.0))
        l2 = Line(Point(0.0, 1.0), Point(2.0, 1.0 + 1e-12))
        with pytest.raises(NearParallel, match=r"\|sin\| of their angle 5\.000e-13 <= EPS_PARALLEL 1e-12"):
            intersect_lines(l1, l2)

    def test_result_lies_on_both_lines(self):
        rng = random.Random(2)
        count = 0
        while count < 500:
            xs = [rng.uniform(-50.0, 50.0) for _ in range(8)]
            try:
                l1 = Line(Point(xs[0], xs[1]), Point(xs[2], xs[3]))
                l2 = Line(Point(xs[4], xs[5]), Point(xs[6], xs[7]))
                hit = intersect_lines(l1, l2)
            except GeometryError:
                continue
            scale = max(abs(x) for x in xs) + math.hypot(hit.x, hit.y)
            assert _distance_to_line(l1, hit) <= 1e-9 * scale
            assert _distance_to_line(l2, hit) <= 1e-9 * scale
            count += 1


class TestRotateAbout:
    def test_quarter_turn_about_origin(self):
        out = rotate_about(Point(1.0, 0.0), Point(0.0, 0.0), math.pi / 2.0)
        assert out.distance_to(Point(0.0, 1.0)) <= 1e-15

    def test_half_turn_about_offset_center(self):
        out = rotate_about(Point(2.0, 1.0), Point(1.0, 1.0), math.pi)
        assert out.distance_to(Point(0.0, 1.0)) <= 1e-15

    def test_full_turn_is_identity(self):
        p = Point(3.25, -4.5)
        out = rotate_about(p, Point(1.0, 2.0), 2.0 * math.pi)
        assert out.distance_to(p) <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(points, points, st.floats(min_value=-7.0, max_value=7.0))
    def test_preserves_distance_to_center(self, p, center, theta):
        out = rotate_about(p, center, theta)
        before = center.distance_to(p)
        after = center.distance_to(out)
        assert abs(after - before) <= 1e-9 * (1.0 + before)

    @settings(max_examples=200, deadline=None)
    @given(points, points, st.floats(min_value=-3.0, max_value=3.0))
    @example(Point(0.0, 17.0), Point(1e-6, 17.0), 0.25)
    def test_turns_by_requested_angle(self, p, center, theta):
        # Rounding the rotated coordinates moves the result by about an ulp
        # of the coordinates, so the arm must be long relative to them.
        d = p - center
        if math.hypot(d.x, d.y) < 1e-6 * max(1.0, math.hypot(p.x, p.y), math.hypot(center.x, center.y)):
            return
        out = rotate_about(p, center, theta)
        swept = signed_angle(center, p, out)
        expected = math.atan2(math.sin(theta), math.cos(theta))
        if abs(abs(expected) - math.pi) < 1e-9:
            assert abs(abs(swept) - math.pi) <= 1e-9
        else:
            assert abs(swept - expected) <= 1e-9


class TestOrientation:
    def test_left_turn(self):
        assert orientation(Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0)) == 1

    def test_right_turn(self):
        assert orientation(Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, -1.0)) == -1

    def test_collinear(self):
        assert orientation(Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)) == 0

    def test_tiny_deviation_counts_as_collinear(self):
        assert orientation(Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 1e-13)) == 0

    def test_scale_invariance(self):
        rng = random.Random(3)
        for _ in range(200):
            p, q, r = (_random_point(rng, 1.0) for _ in range(3))
            base = orientation(p, q, r)
            for k in (1e-6, 1e6):
                assert orientation(_scaled(k, p), _scaled(k, q), _scaled(k, r)) == base

    def test_angles_are_scale_invariant(self):
        # Powers of two near 1e+-150 and 1e+-301 scale coordinates exactly,
        # so the angles, turns and intersections must agree to the bit.
        rng = random.Random(3)
        for _ in range(200):
            p, q, r, s = (_random_point(rng, 1.0) for _ in range(4))
            hit = intersect_lines(Line(p, q), Line(r, s))
            for k in (2.0**-1000, 2.0**-500, 2.0**500, 2.0**1000):
                kp, kq, kr, ks = (_scaled(k, v) for v in (p, q, r, s))
                assert angle_at(kp, kq, kr) == angle_at(p, q, r)
                assert signed_angle(kp, kq, kr) == signed_angle(p, q, r)
                assert orientation(kp, kq, kr) == orientation(p, q, r)
                assert intersect_lines(Line(kp, kq), Line(kr, ks)) == _scaled(k, hit)


class TestAngleAt:
    def test_right_angle(self):
        assert angle_at(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)) == pytest.approx(
            math.pi / 2.0, abs=1e-15
        )

    def test_straight_angle(self):
        got = angle_at(Point(0.0, 0.0), Point(1.0, 0.0), Point(-1.0, 1e-300))
        assert got == pytest.approx(math.pi, abs=1e-15)

    def test_zero_angle(self):
        assert angle_at(Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)) == 0.0

    def test_coincident_ray_raises(self):
        with pytest.raises(DegenerateRay):
            angle_at(Point(0.0, 0.0), Point(0.0, 0.0), Point(1.0, 0.0))
        with pytest.raises(DegenerateRay):
            angle_at(Point(0.0, 0.0), Point(0.0, 0.0), Point(0.0, 0.0))


class TestSignedAngle:
    def test_counter_clockwise_is_positive(self):
        got = signed_angle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0))
        assert got == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_clockwise_is_negative(self):
        got = signed_angle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, -1.0))
        assert got == pytest.approx(-math.pi / 2.0, abs=1e-15)

    def test_straight_angle_maps_to_positive_pi(self):
        got = signed_angle(Point(0.0, 0.0), Point(1.0, 0.0), Point(-1.0, 0.0))
        assert got == math.pi
        got = signed_angle(Point(0.0, 0.0), Point(1.0, 0.0), Point(-1.0, -0.0))
        assert got == math.pi

    @settings(max_examples=300, deadline=None)
    @given(points, points, points)
    @example(Point(0.0, 2.225073858507203e-309), Point(0.0, 0.0), Point(0.0, 0.0))
    def test_magnitude_matches_unsigned(self, v, p, q):
        try:
            s = signed_angle(v, p, q)
            u = angle_at(v, p, q)
        except GeometryError:
            return
        assert abs(abs(s) - u) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(points, points, points, st.sampled_from([-1000, 1000]) | st.integers(-1000, 1000))
    def test_magnitude_is_unsigned_bit_for_bit(self, v, p, q, exponent):
        # The forward oracle measures each interior angle once, as a
        # signed angle, and takes its magnitude as the unsigned angle.
        # That is exact because atan2 is odd.
        k = math.ldexp(1.0, exponent)
        v, p, q = (Point(r.x * k, r.y * k) for r in (v, p, q))
        try:
            unsigned = angle_at(v, p, q)
        except DegenerateRay:
            assume(False)
        assert abs(signed_angle(v, p, q)) == unsigned

    @settings(max_examples=300, deadline=None)
    @given(points, points, points)
    def test_antisymmetric_away_from_pi(self, v, p, q):
        try:
            forward = signed_angle(v, p, q)
            backward = signed_angle(v, q, p)
        except GeometryError:
            return
        if abs(forward) == pytest.approx(math.pi, abs=1e-12):
            assert backward == pytest.approx(math.pi, abs=1e-12) or backward == pytest.approx(
                -math.pi, abs=1e-12
            )
        else:
            assert forward == pytest.approx(-backward, abs=1e-12)


class TestChordArcCircle:
    def test_half_central_of_thirty_degrees(self):
        circle = chord_arc_circle(Point(0.0, 0.0), Point(1.0, 0.0), math.pi / 6.0, Point(0.5, 5.0))
        assert circle.radius == pytest.approx(1.0, abs=1e-15)
        assert circle.center.distance_to(Point(0.5, -math.sqrt(3.0) / 2.0)) <= 1e-15

    def test_center_flips_with_far_point(self):
        above = chord_arc_circle(Point(0.0, 0.0), Point(1.0, 0.0), math.pi / 6.0, Point(0.5, -5.0))
        assert above.center.distance_to(Point(0.5, math.sqrt(3.0) / 2.0)) <= 1e-15

    def test_endpoints_lie_on_circle(self):
        p, q = Point(-2.0, 1.0), Point(3.0, 4.0)
        circle = chord_arc_circle(p, q, 0.7, Point(10.0, -10.0))
        for end in (p, q):
            assert abs(circle.center.distance_to(end) - circle.radius) <= 1e-12 * circle.radius

    def test_far_point_on_chord_line_raises(self):
        with pytest.raises(FarPointOnLine):
            chord_arc_circle(Point(0.0, 0.0), Point(1.0, 0.0), 0.5, Point(2.0, 0.0))

    def test_coincident_endpoints_raise(self):
        with pytest.raises(DegenerateChord):
            chord_arc_circle(Point(0.0, 0.0), Point(0.0, 0.0), 0.5, Point(0.0, 1.0))

    def test_half_central_domain(self):
        for bad in (0.0, -0.3, math.pi / 2.0, 2.0):
            with pytest.raises(GeometryError):
                chord_arc_circle(Point(0.0, 0.0), Point(1.0, 0.0), bad, Point(0.5, 1.0))

    def test_radius_scales_linearly(self):
        small = chord_arc_circle(Point(0.0, 0.0), Point(1.0, 0.0), 0.4, Point(0.5, 1.0))
        big = chord_arc_circle(Point(0.0, 0.0), Point(1000.0, 0.0), 0.4, Point(500.0, 1000.0))
        assert big.radius == pytest.approx(1000.0 * small.radius, rel=1e-12)

    def test_inscribed_angle_on_major_arc(self):
        # Any point of the major arc sees the chord under half_central.
        rng = random.Random(5)
        for _ in range(2000):
            p, q, far = (_random_point(rng, 10.0) for _ in range(3))
            half = rng.uniform(0.05, 1.5)
            try:
                circle = chord_arc_circle(p, q, half, far)
            except GeometryError:
                continue
            sample = _sample_major_arc(circle, p, q, rng.uniform(0.05, 0.95))
            assert abs(angle_at(sample, p, q) - half) <= 1e-10

    def test_center_opposite_far_point(self):
        rng = random.Random(6)
        for _ in range(500):
            p, q, far = (_random_point(rng, 10.0) for _ in range(3))
            half = rng.uniform(0.05, 1.5)
            try:
                circle = chord_arc_circle(p, q, half, far)
            except GeometryError:
                continue
            assert orientation(p, q, circle.center) == -orientation(p, q, far)


def _sample_major_arc(circle: Circle, p: Point, q: Point, fraction: float) -> Point:
    """A point on the major arc, at a parameter fraction in (0, 1)."""
    short_way = 1.0 if signed_angle(circle.center, p, q) > 0.0 else -1.0
    span = 2.0 * math.pi - abs(signed_angle(circle.center, p, q))
    return rotate_about(p, circle.center, -short_way * span * fraction)


class TestTriangle:
    def test_vertices_and_sides(self):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        assert t.side_lengths() == (4.0, 5.0, 3.0)
        assert t.scale() == 5.0
        assert orientation(*t.vertices) == 1
        assert t.vertices[0] == Point(0.0, 0.0)

    def test_interior_angles_sum_to_pi(self):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))
        total = sum(t.angles())
        assert total == pytest.approx(math.pi, abs=1e-12)

    def test_right_angle_measured(self):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        assert t.angles()[0] == pytest.approx(math.pi / 2.0, abs=1e-15)

    @pytest.mark.parametrize("scale", [2.0**-1000, 1.0, 2.0**1000])
    def test_angles_are_the_three_vertex_measures(self, scale):
        v1, v2, v3 = Point(0.0, 0.0), Point(4.0 * scale, 0.0), Point(1.0 * scale, 3.0 * scale)
        angles = Triangle(v1, v2, v3).angles()
        assert angles == (angle_at(v1, v2, v3), angle_at(v2, v3, v1), angle_at(v3, v1, v2))
        assert sum(angles) == pytest.approx(math.pi, abs=1e-12)

    def test_collinear_vertices_raise(self):
        with pytest.raises(DegenerateTriangle):
            Triangle(Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 2.0))

    def test_equilateral_predicate(self):
        h = math.sqrt(3.0) / 2.0
        good = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, h))
        assert _is_equilateral(good, rtol=1e-12)
        bad = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, h * 1.001))
        assert not _is_equilateral(bad, rtol=1e-12)

    def test_midpoint(self):
        assert midpoint(Point(0.0, 0.0), Point(2.0, 4.0)) == Point(1.0, 2.0)


LARGEST = 1.7976931348623157e308
wide_coord = st.floats(min_value=-LARGEST, max_value=LARGEST)


class TestWiderThanTheLargestFloat:
    """Points that span more than the largest float are refused with a
    plain GeometryError where they are measured: no verdict is read from
    an extent that has overflowed."""

    @pytest.mark.parametrize(
        "corners",
        [
            # The three vertices' own differences overflow.
            [(-1.5e308, 0.0), (1.5e308, 0.0), (0.0, 1e308)],
            # Accepted on an orientation read from a nan cross product.
            [
                (1.3630831861807834e308, -6.77653168869978e216),
                (-9.033894167731703e307, 3.4687698379391106e304),
                (2.1012625356640103e300, 3.9676929172371186e307),
            ],
        ],
    )
    def test_triangle_is_refused(self, corners):
        with pytest.raises(GeometryError, match="span more than the largest float") as info:
            Triangle(*(Point(x, y) for x, y in corners))
        assert type(info.value) is GeometryError

    def test_cross_dot_refuses_an_infinite_extent(self):
        with pytest.raises(GeometryError, match="span more than the largest float"):
            cross_dot(1.0, 0.0, 0.0, 1.0, math.inf)

    @settings(max_examples=300, deadline=None)
    @given(wide_coord, wide_coord, wide_coord, wide_coord, wide_coord, wide_coord)
    @example(-1.5e308, 0.0, 1.5e308, 0.0, 0.0, 1e308)
    @example(LARGEST, LARGEST, -LARGEST, -LARGEST, 0.0, 0.0)
    def test_no_predicate_judges_an_overflowed_extent(self, px, py, qx, qy, rx, ry):
        p, q, r = Point(px, py), Point(qx, qy), Point(rx, ry)
        overflowed = max(p.distance_to(q), q.distance_to(r), r.distance_to(p)) == math.inf
        measures = {
            "Triangle": Triangle,
            "orientation": orientation,
            "angle_at": angle_at,
            "signed_angle": signed_angle,
            "chord_arc_circle": lambda p, q, r: chord_arc_circle(p, q, 0.5, r),
        }
        for name, measure in measures.items():
            try:
                measure(p, q, r)
            except GeometryError as exc:
                assert type(exc) is GeometryError or not overflowed, (name, exc)
            else:
                assert not overflowed, name
