import math

import numpy as np
import pytest

from morley.forward import morley_triangle
from morley.inverse import (
    AngleTriple,
    InvalidAngles,
    MIN_ANGLE,
    NotEquilateral,
    construct,
    equilateral_triangle,
    place_arc_points,
)
from morley.kernel import (
    DegenerateLine,
    GeometryError,
    Point,
    Triangle,
    angle_at,
    chord_arc_circle,
    orientation,
)
from morley.verify import sample_angle_triples

THIRD = math.pi / 3.0

# Side ratio of the constructed triangle over its equilateral input for
# the all-equal triple, frozen from an independent trisection run; it
# also equals sqrt(3) / (8 sin^3(pi/9)).
EQUILATERAL_RATIO = 5.4114741278097762


class TestAngleTriple:
    def test_accepts_valid_triple(self):
        t = AngleTriple(0.1, 0.2, THIRD - 0.3)
        assert t.as_tuple() == (0.1, 0.2, THIRD - 0.3)

    def test_from_degrees(self):
        t = AngleTriple.from_degrees(20.0, 15.0, 25.0)
        assert t.a == pytest.approx(math.radians(20.0), abs=0.0)

    def test_rejects_wrong_sum(self):
        with pytest.raises(InvalidAngles, match="sum"):
            AngleTriple(0.2, 0.2, 0.2)

    def test_rejects_below_minimum(self):
        with pytest.raises(InvalidAngles, match="minimum"):
            AngleTriple(MIN_ANGLE / 2.0, 0.5, THIRD - 0.5 - MIN_ANGLE / 2.0)

    def test_rejects_negative(self):
        with pytest.raises(InvalidAngles):
            AngleTriple(-0.1, 0.3, THIRD - 0.2)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidAngles):
            AngleTriple(math.nan, 0.2, 0.2)

    def test_minimum_angle_is_constructible(self):
        rest = (THIRD - MIN_ANGLE) / 2.0
        cfg = construct(equilateral_triangle(), AngleTriple(MIN_ANGLE, rest, rest))
        assert cfg.outer.interior_angle(1) == pytest.approx(3.0 * MIN_ANGLE, abs=1e-9)


class TestEquilateralTriangle:
    def test_unit_sides_and_winding(self):
        t = equilateral_triangle()
        assert all(s == pytest.approx(1.0, abs=1e-15) for s in t.side_lengths())
        assert t.orientation_sign == 1
        assert t.labels == ("A'", "B'", "C'")

    def test_custom_side(self):
        t = equilateral_triangle(2.5)
        assert t.scale() == pytest.approx(2.5, abs=1e-12)

    def test_rejects_bad_side(self):
        with pytest.raises(GeometryError):
            equilateral_triangle(0.0)


class TestPlaceArcPoints:
    def setup_method(self):
        self.p = Point(0.0, 0.0)
        self.q = Point(1.0, 0.0)
        self.far = Point(0.5, 2.0)
        self.half = math.pi / 6.0
        self.circle = chord_arc_circle(self.p, self.q, self.half, self.far)

    def test_points_lie_on_circle(self):
        i_pt, j_pt = place_arc_points(self.p, self.q, self.circle, self.half)
        for pt in (i_pt, j_pt):
            gap = abs(self.circle.center.distance_to(pt) - self.circle.radius)
            assert gap <= 1e-12 * self.circle.radius

    def test_offsets_subtend_the_same_chord_length(self):
        # Each placed point sits 2 * half_central around the circle from
        # its chord endpoint, so it is exactly one chord length away.
        i_pt, j_pt = place_arc_points(self.p, self.q, self.circle, self.half)
        chord = self.p.distance_to(self.q)
        assert i_pt.distance_to(self.p) == pytest.approx(chord, rel=1e-12)
        assert j_pt.distance_to(self.q) == pytest.approx(chord, rel=1e-12)

    def test_points_sit_beyond_their_endpoints(self):
        i_pt, j_pt = place_arc_points(self.p, self.q, self.circle, self.half)
        # Beyond p means farther from q than p is, and vice versa.
        assert i_pt.distance_to(self.q) > self.p.distance_to(self.q)
        assert j_pt.distance_to(self.p) > self.p.distance_to(self.q)

    def test_points_on_major_arc_side(self):
        i_pt, j_pt = place_arc_points(self.p, self.q, self.circle, self.half)
        for pt in (i_pt, j_pt):
            assert orientation(self.p, self.q, pt) == -orientation(self.p, self.q, self.far)

    def test_rejects_point_off_circle(self):
        with pytest.raises(GeometryError, match="does not lie"):
            place_arc_points(self.p, Point(0.9, 0.4), self.circle, self.half)

    def test_rejects_bad_half_central(self):
        with pytest.raises(GeometryError):
            place_arc_points(self.p, self.q, self.circle, 0.0)


class TestConstructSymmetric:
    def setup_method(self):
        self.inner = equilateral_triangle()
        self.cfg = construct(self.inner, AngleTriple(THIRD / 3.0, THIRD / 3.0, THIRD / 3.0))

    def test_outer_is_equilateral(self):
        assert self.cfg.outer.is_equilateral(rtol=1e-12)

    def test_outer_angles_are_sixty_degrees(self):
        for i in (1, 2, 3):
            assert self.cfg.outer.interior_angle(i) == pytest.approx(THIRD, abs=1e-12)

    def test_side_ratio_matches_frozen_value(self):
        ratio = self.cfg.outer.scale() / self.inner.scale()
        assert ratio == pytest.approx(EQUILATERAL_RATIO, rel=1e-12)

    def test_concentric_with_input(self):
        gap = self.cfg.outer.centroid().distance_to(self.inner.centroid())
        assert gap <= 1e-12 * self.cfg.outer.scale()

    def test_mirror_symmetric_about_vertical_axis(self):
        # The whole figure is symmetric about x = 1/2: B and C mirror
        # each other, as do the point pairs on opposite arcs.
        b, c = self.cfg.outer.v2, self.cfg.outer.v3
        assert b.x == pytest.approx(1.0 - c.x, abs=1e-12)
        assert b.y == pytest.approx(c.y, abs=1e-12)
        pts = self.cfg.named_points()
        assert pts["I_a"].x == pytest.approx(1.0 - pts["J_a"].x, abs=1e-12)


class TestConstructAsymmetric:
    def setup_method(self):
        self.angles = AngleTriple.from_degrees(20.0, 15.0, 25.0)
        self.inner = equilateral_triangle()
        self.cfg = construct(self.inner, self.angles)

    def test_outer_angles_tripled(self):
        expected = [math.radians(60.0), math.radians(45.0), math.radians(75.0)]
        for i, want in zip((1, 2, 3), expected):
            assert self.cfg.outer.interior_angle(i) == pytest.approx(want, abs=1e-9)

    def test_placed_points_on_their_arcs(self):
        pts = self.cfg.named_points()
        arcs = self.cfg.arcs
        assert list(arcs) == ["a", "b", "c"]
        for key, circle in arcs.items():
            for pt in (pts["I_" + key], pts["J_" + key]):
                gap = abs(circle.center.distance_to(pt) - circle.radius)
                assert gap <= 1e-12 * circle.radius

    def test_vertices_on_their_side_lines(self):
        scale = self.cfg.outer.scale()
        a, b, c = self.cfg.outer.vertices
        lines = self.cfg.lines
        assert lines["AB"].distance_to_point(a) <= 1e-12 * scale
        assert lines["AB"].distance_to_point(b) <= 1e-12 * scale
        assert lines["BC"].distance_to_point(b) <= 1e-12 * scale
        assert lines["BC"].distance_to_point(c) <= 1e-12 * scale
        assert lines["CA"].distance_to_point(c) <= 1e-12 * scale
        assert lines["CA"].distance_to_point(a) <= 1e-12 * scale

    def test_inner_vertices_trisect_outer_angles(self):
        pts = self.cfg.named_points()
        for outer, near_next, near_prev, value in (
            ("A", "C'", "B'", self.angles.a),
            ("B", "A'", "C'", self.angles.b),
            ("C", "B'", "A'", self.angles.c),
        ):
            v = pts[outer]
            neighbors = {"A": ("B", "C"), "B": ("C", "A"), "C": ("A", "B")}
            nxt, prv = (pts[n] for n in neighbors[outer])
            sub1 = angle_at(v, nxt, pts[near_next])
            sub2 = angle_at(v, pts[near_next], pts[near_prev])
            sub3 = angle_at(v, pts[near_prev], prv)
            for sub in (sub1, sub2, sub3):
                assert sub == pytest.approx(value, abs=1e-9)

    def test_named_points_complete(self):
        names = set(self.cfg.named_points())
        assert names == {
            "A", "B", "C", "A'", "B'", "C'",
            "I_a", "J_a", "I_b", "J_b", "I_c", "J_c",
        }

    def test_inner_relabelled(self):
        assert self.cfg.inner.labels == ("A'", "B'", "C'")
        assert self.cfg.outer.labels == ("A", "B", "C")


class TestConstructValidation:
    def test_rejects_non_equilateral(self):
        scalene = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        with pytest.raises(NotEquilateral):
            construct(scalene, AngleTriple(0.3, 0.3, THIRD - 0.6))

    def test_rejects_degenerate_triple(self):
        # With one angle at pi/6 two placed points coincide and a side
        # line is undefined.
        bad = AngleTriple(math.pi / 6.0, math.radians(20.0), THIRD - math.pi / 6.0 - math.radians(20.0))
        with pytest.raises(DegenerateLine):
            construct(equilateral_triangle(), bad)


class TestConstructSweep:
    def test_roundtrip_and_angles_over_sweep(self):
        inner = equilateral_triangle()
        worst_roundtrip = 0.0
        worst_angle = 0.0
        for angles in sample_angle_triples(300, seed=11):
            cfg = construct(inner, angles)
            recovered = morley_triangle(cfg.outer)
            worst_roundtrip = max(
                worst_roundtrip,
                max(u.distance_to(v) for u, v in zip(inner.vertices, recovered.vertices)),
            )
            for i, value in zip((1, 2, 3), angles.as_tuple()):
                worst_angle = max(worst_angle, abs(cfg.outer.interior_angle(i) - 3.0 * value))
        assert worst_roundtrip <= 1e-9 * inner.scale()
        assert worst_angle <= 1e-9

    def test_outer_winding_matches_inner(self):
        inner = equilateral_triangle()
        for angles in sample_angle_triples(50, seed=12):
            cfg = construct(inner, angles)
            assert cfg.outer.orientation_sign == inner.orientation_sign

    def test_clockwise_inner_works(self):
        up = equilateral_triangle()
        down = Triangle(
            Point(up.v1.x, -up.v1.y), up.v2, up.v3, ("A'", "B'", "C'")
        )
        assert down.orientation_sign == -1
        for angles in sample_angle_triples(50, seed=13):
            cfg = construct(down, angles)
            assert cfg.outer.orientation_sign == -1
            recovered = morley_triangle(cfg.outer)
            worst = max(
                u.distance_to(v) for u, v in zip(down.vertices, recovered.vertices)
            )
            assert worst <= 1e-9 * down.scale()

    def test_translated_rotated_inner_works(self):
        h = math.sqrt(3.0) / 2.0
        base = [Point(0.5, h), Point(0.0, 0.0), Point(1.0, 0.0)]
        theta = 0.83
        c, s = math.cos(theta), math.sin(theta)
        moved = [
            Point(3.0 * (c * p.x - s * p.y) - 7.0, 3.0 * (s * p.x + c * p.y) + 2.0)
            for p in base
        ]
        inner = Triangle(moved[0], moved[1], moved[2], ("A'", "B'", "C'"))
        angles = AngleTriple.from_degrees(12.0, 31.0, 17.0)
        cfg = construct(inner, angles)
        recovered = morley_triangle(cfg.outer)
        worst = max(u.distance_to(v) for u, v in zip(inner.vertices, recovered.vertices))
        assert worst <= 1e-9 * inner.scale()
