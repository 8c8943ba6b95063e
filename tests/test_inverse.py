import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from morley.document import config_document, parse_config_document
from morley.forward import morley_triangle
from morley.inverse import (
    ARC_CHORD_NAMES,
    LINE_POINT_NAMES,
    POINT_NAMES,
    AngleTriple,
    InvalidAngles,
    MIN_ANGLE,
    NotEquilateral,
    construct,
    cyclic,
    equilateral_triangle,
    place_arc_points,
)
from morley.kernel import (
    GeometryError,
    Point,
    Line,
    Triangle,
    angle_at,
    chord_arc_circle,
    orientation,
)
from morley.render import render_svg
from morley.verify import _sample_triples, check_angle_identities

THIRD = math.pi / 3.0

# Side ratio of the constructed triangle over its equilateral input for
# the all-equal triple, frozen from an independent trisection run; it
# also equals sqrt(3) / (8 sin^3(pi/9)).
EQUILATERAL_RATIO = 5.4114741278097762


def _centroid(t: Triangle) -> Point:
    return Point((t.v1.x + t.v2.x + t.v3.x) / 3.0, (t.v1.y + t.v2.y + t.v3.y) / 3.0)


def _distance_to_line(line: Line, r: Point) -> float:
    d, w = line.q - line.p, r - line.p
    return abs(d.x * w.y - d.y * w.x) / math.hypot(d.x, d.y)


def _side_lines(points: dict[str, Point]) -> dict[str, Line]:
    return {key: Line(points[p], points[q]) for key, (p, q) in LINE_POINT_NAMES.items()}


def _is_equilateral(t: Triangle, rtol: float) -> bool:
    lengths = t.side_lengths()
    return (max(lengths) - min(lengths)) <= rtol * max(lengths)


class TestCyclic:
    LABELS = (*POINT_NAMES, "a", "b", "c", "AB", "BC", "CA")

    def test_three_steps_give_back_every_label(self):
        for label in self.LABELS:
            at_a, at_b, at_c = cyclic(label)
            assert at_a == label
            assert len({at_a, at_b, at_c}) == 3
            assert cyclic(at_c)[1] == label

    def test_maps_point_names_onto_themselves(self):
        at_a, at_b, at_c = cyclic(POINT_NAMES)
        assert at_a == POINT_NAMES
        assert sorted(at_b) == sorted(at_c) == sorted(POINT_NAMES)


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
        assert cfg.outer.angles()[0] == pytest.approx(3.0 * MIN_ANGLE, abs=1e-9)


class TestEquilateralTriangle:
    def test_unit_sides_and_winding(self):
        t = equilateral_triangle()
        assert all(s == pytest.approx(1.0, abs=1e-15) for s in t.side_lengths())
        assert orientation(*t.vertices) == 1

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
        assert _is_equilateral(self.cfg.outer, rtol=1e-12)

    def test_outer_angles_are_sixty_degrees(self):
        for angle in self.cfg.outer.angles():
            assert angle == pytest.approx(THIRD, abs=1e-12)

    def test_side_ratio_matches_frozen_value(self):
        ratio = self.cfg.outer.scale() / self.inner.scale()
        assert ratio == pytest.approx(EQUILATERAL_RATIO, rel=1e-12)

    def test_concentric_with_input(self):
        gap = _centroid(self.cfg.outer).distance_to(_centroid(self.inner))
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
        for angle, want in zip(self.cfg.outer.angles(), expected):
            assert angle == pytest.approx(want, abs=1e-9)

    def test_placed_points_on_their_arcs(self):
        pts = self.cfg.named_points()
        assert list(ARC_CHORD_NAMES) == ["a", "b", "c"]
        for key, circle in zip(ARC_CHORD_NAMES, self.cfg.circles):
            for pt in (pts["I_" + key], pts["J_" + key]):
                gap = abs(circle.center.distance_to(pt) - circle.radius)
                assert gap <= 1e-12 * circle.radius

    def test_vertices_on_their_side_lines(self):
        scale = self.cfg.outer.scale()
        a, b, c = self.cfg.outer.vertices
        lines = _side_lines(self.cfg.named_points())
        assert _distance_to_line(lines["AB"], a) <= 1e-12 * scale
        assert _distance_to_line(lines["AB"], b) <= 1e-12 * scale
        assert _distance_to_line(lines["BC"], b) <= 1e-12 * scale
        assert _distance_to_line(lines["BC"], c) <= 1e-12 * scale
        assert _distance_to_line(lines["CA"], c) <= 1e-12 * scale
        assert _distance_to_line(lines["CA"], a) <= 1e-12 * scale

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


class TestConstructValidation:
    def test_rejects_non_equilateral(self):
        scalene = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        with pytest.raises(NotEquilateral):
            construct(scalene, AngleTriple(0.3, 0.3, THIRD - 0.6))

    def test_constructs_a_thirty_degree_triple(self):
        angles = AngleTriple(math.pi / 6.0, math.radians(20.0), THIRD - math.pi / 6.0 - math.radians(20.0))
        cfg = construct(equilateral_triangle(), angles)
        for angle, want in zip(cfg.outer.angles(), (90.0, 60.0, 30.0)):
            assert angle == pytest.approx(math.radians(want), abs=1e-12)

    def test_coincident_arc_points_round_trip(self):
        # With c at pi/6, I_a and J_b land on the same float: the paper's
        # side line AB has no second point, yet the figure is whole.
        cfg = construct(equilateral_triangle(), AngleTriple.from_degrees(1.8, 28.2, 30.0))
        points = cfg.named_points()
        assert points["I_a"] == points["J_b"]
        parsed = parse_config_document(config_document(cfg))
        assert parsed == cfg
        assert render_svg(parsed).count('class="construction-line"') == 3


def _next_to_pi_over_six(rng: random.Random) -> AngleTriple:
    """A triple with one parameter pi/6 +- 10**U(-10, -2), in a random place."""
    near = math.pi / 6.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10.0, -2.0)
    other = rng.uniform(MIN_ANGLE, THIRD - near - MIN_ANGLE)
    triple = [near, other, THIRD - near - other]
    rng.shuffle(triple)
    return AngleTriple(*triple)


class TestConstructSweep:
    def test_angles_next_to_pi_over_six(self):
        # Where the paper's side lines close up, the outer angles hold to
        # 1e-12 and the 15 identities that tie the arc points to the
        # vertices hold at the battery's tolerance.
        rng = random.Random(12)
        worst = 0.0
        for _ in range(3000):
            angles = _next_to_pi_over_six(rng)
            cfg = construct(equilateral_triangle(), angles)
            for angle, value in zip(cfg.outer.angles(), angles.as_tuple()):
                worst = max(worst, abs(angle - 3.0 * value))
            assert check_angle_identities(cfg).all_pass, angles
        assert worst <= 1e-12

    def test_roundtrip_and_angles_over_sweep(self):
        inner = equilateral_triangle()
        worst_roundtrip = 0.0
        worst_angle = 0.0
        for angles in _sample_triples(random.Random(11), 300):
            cfg = construct(inner, angles)
            recovered = morley_triangle(cfg.outer)
            worst_roundtrip = max(
                worst_roundtrip,
                max(u.distance_to(v) for u, v in zip(inner.vertices, recovered.vertices)),
            )
            for angle, value in zip(cfg.outer.angles(), angles.as_tuple()):
                worst_angle = max(worst_angle, abs(angle - 3.0 * value))
        assert worst_roundtrip <= 1e-9 * inner.scale()
        assert worst_angle <= 1e-9

    def test_outer_winding_matches_inner(self):
        inner = equilateral_triangle()
        for angles in _sample_triples(random.Random(12), 50):
            cfg = construct(inner, angles)
            assert orientation(*cfg.outer.vertices) == orientation(*inner.vertices)

    def test_clockwise_inner_works(self):
        up = equilateral_triangle()
        down = Triangle(Point(up.v1.x, -up.v1.y), up.v2, up.v3)
        assert orientation(*down.vertices) == -1
        for angles in _sample_triples(random.Random(13), 50):
            cfg = construct(down, angles)
            assert orientation(*cfg.outer.vertices) == -1
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
        inner = Triangle(moved[0], moved[1], moved[2])
        angles = AngleTriple.from_degrees(12.0, 31.0, 17.0)
        cfg = construct(inner, angles)
        recovered = morley_triangle(cfg.outer)
        worst = max(u.distance_to(v) for u, v in zip(inner.vertices, recovered.vertices))
        assert worst <= 1e-9 * inner.scale()

    def test_inner_is_kept_as_given(self):
        # An equilateral triangle from its own vertices, not from
        # equilateral_triangle: the configuration holds exactly it.
        p, q, r = Point(2.0, 1.0), Point(5.0, 1.0), Point(3.5, 1.0 + 1.5 * math.sqrt(3.0))
        assert _is_equilateral(Triangle(p, q, r), rtol=1e-15)
        cfg = construct(Triangle(p, q, r), AngleTriple.from_degrees(12.0, 31.0, 17.0))
        assert cfg.inner == Triangle(p, q, r)
        assert cfg.named_points()["A'"] is p


def _image(g, x, y):
    """(x, y) under g = (sx, sy, swap): each coordinate multiplied by its
    sign, then the two swapped if ``swap``."""
    sx, sy, swap = g
    return (sy * y, sx * x) if swap else (sx * x, sy * y)


def _figure(cfg, g=(1.0, 1.0, False)):
    """Every coordinate of the named points, then each circle's center
    and radius, with each point and center mapped by ``_image(g, ...)``."""
    values = [v for p in cfg.named_points().values() for v in _image(g, p.x, p.y)]
    for circle in cfg.circles:
        values += (*_image(g, circle.center.x, circle.center.y), circle.radius)
    return values


# The eight maps (x, y) -> (+-x, +-y) and (+-y, +-x): negating and
# swapping coordinates are exact, and construct commutes with each bit
# for bit.
EXACT_MAPS = tuple((sx, sy, swap) for swap in (False, True) for sx in (1.0, -1.0) for sy in (1.0, -1.0))


class TestPowerOfTwoScaling:
    """Scaling the inner side by 2**k, and negating or swapping its
    coordinates, are exact in floating point, so the whole figure scales
    by exactly 2**k and is mapped as its input is."""

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(MIN_ANGLE, THIRD),
        b=st.floats(MIN_ANGLE, THIRD),
        k=st.integers(-1000, 1000),
        g=st.sampled_from(EXACT_MAPS),
    )
    @example(a=math.pi / 6.0, b=math.radians(20.0), k=-1000, g=(1.0, 1.0, False))
    @example(a=MIN_ANGLE, b=MIN_ANGLE, k=1000, g=(1.0, 1.0, False))
    @example(a=math.pi / 6.0 - 1e-12, b=math.radians(20.0), k=-1000, g=(1.0, -1.0, False))
    @example(a=math.pi / 6.0 + 1e-12, b=MIN_ANGLE, k=1000, g=(-1.0, -1.0, False))
    @example(a=MIN_ANGLE, b=MIN_ANGLE, k=0, g=(1.0, -1.0, False))
    @example(a=math.radians(12.0), b=math.radians(31.0), k=0, g=(1.0, 1.0, True))
    @example(a=math.radians(12.0), b=math.radians(31.0), k=0, g=(-1.0, 1.0, True))
    def test_construct(self, a, b, k, g):
        try:
            angles = AngleTriple(a, b, THIRD - a - b)
        except InvalidAngles:
            assume(False)
        scaled = Triangle(*(Point(*_image(g, p.x, p.y)) for p in equilateral_triangle(math.ldexp(1.0, k)).vertices))
        # Compared as hex, so that -0.0 and 0.0 differ.
        want = [math.ldexp(v, k).hex() for v in _figure(construct(equilateral_triangle(), angles), g)]
        assert [v.hex() for v in _figure(construct(scaled, angles))] == want
