"""Build a triangle from its Morley triangle.

Given an equilateral triangle A'B'C' and positive angles (a, b, c) with
a + b + c = pi/3, there is exactly one triangle ABC with interior
angles (3a, 3b, 3c) whose adjacent angle trisectors meet pairwise at
A', B', C'.  This module constructs it directly:

* Over each side of A'B'C' a circular arc is erected on which every
  point sees the chord under the matching angle (a over C'B', b over
  A'C', c over B'A'), with the arc bulging away from the third vertex.
* On each arc, two points are placed just beyond the chord endpoints,
  offset along the circle by twice the matching angle: I_a and J_a on
  arc a, and likewise for arcs b and c.
* The sides of ABC are the lines (I_a J_b), (I_b J_c), (I_c J_a), and
  the vertices are their pairwise intersections.

The resulting configuration carries every named point of the figure so
that it can be checked, serialized and drawn downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import (
    EPS_LENGTH,
    Circle,
    DegenerateLine,
    GeometryError,
    Line,
    Point,
    Triangle,
    chord_arc_circle,
    intersect_lines,
    rotate_about,
    signed_angle,
)

# Smallest admissible trisector angle, in radians.  Below this the
# construction is numerically meaningless (the outer triangle runs away
# to infinity); the limit diagnostics in morley.verify probe exactly
# down to this floor.
MIN_ANGLE = 1e-6

# |a + b + c - pi/3| must not exceed this.
SUM_TOL = 1e-12

# Relative side-length spread allowed for the input triangle.
EQUILATERAL_RTOL = 1e-9


# The twelve labelled points of the figure, in the order that
# named_points and the configuration document list them: the outer
# vertices, the inner (Morley) vertices, then the two points on each arc.
POINT_NAMES = ("A", "B", "C", "A'", "B'", "C'", "I_a", "J_a", "I_b", "J_b", "I_c", "J_c")
OUTER_NAMES, INNER_NAMES, ARC_POINT_NAMES = POINT_NAMES[:3], POINT_NAMES[3:6], POINT_NAMES[6:]

# Which named points span each arc's chord, which points define each
# outer side line, and which outer vertices that line carries.
ARC_CHORD_NAMES = {"a": ("C'", "B'"), "b": ("A'", "C'"), "c": ("B'", "A'")}
LINE_POINT_NAMES = {"AB": ("I_a", "J_b"), "BC": ("I_b", "J_c"), "CA": ("I_c", "J_a")}
LINE_VERTEX_NAMES = {"AB": ("A", "B"), "BC": ("B", "C"), "CA": ("C", "A")}


class InvalidAngles(GeometryError):
    """Angle triple violates positivity or the pi/3 sum constraint."""


class NotEquilateral(GeometryError):
    """The input triangle's sides differ by more than the tolerance."""


@dataclass(frozen=True, slots=True)
class AngleTriple:
    """Angles (a, b, c), each at least MIN_ANGLE, summing to pi/3."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not math.isfinite(value):
                raise InvalidAngles(f"angle {name} is not finite: {value}")
            if value < MIN_ANGLE:
                raise InvalidAngles(
                    f"angle {name} = {value} is below the minimum {MIN_ANGLE} rad"
                )
        total = self.a + self.b + self.c
        if abs(total - math.pi / 3.0) > SUM_TOL:
            raise InvalidAngles(
                f"angles must sum to pi/3, got {total} (off by {total - math.pi / 3.0:.3e})"
            )

    @classmethod
    def from_degrees(cls, a: float, b: float, c: float) -> AngleTriple:
        return cls(math.radians(a), math.radians(b), math.radians(c))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def equilateral_triangle(side: float = 1.0, labels: tuple[str, str, str] = ("A'", "B'", "C'")) -> Triangle:
    """Counter-clockwise equilateral triangle with base from origin.

    Vertices are (side/2, side*sqrt(3)/2), (0, 0), (side, 0) so the
    first vertex is the apex and the base lies on the x axis.
    """
    if not (math.isfinite(side) and side > 0.0):
        raise GeometryError(f"side must be finite and positive, got {side}")
    apex = Point(side / 2.0, side * math.sqrt(3.0) / 2.0)
    return Triangle(apex, Point(0.0, 0.0), Point(side, 0.0), labels)


@dataclass(frozen=True, slots=True)
class MorleyConfiguration:
    """Every named object produced by the construction.

    ``inner`` is the given equilateral triangle A'B'C', ``outer`` the
    constructed triangle ABC.  ``circles`` holds the three arcs in
    ARC_CHORD_NAMES order: arc a over chord C'B' (seen under angle a),
    arc b over A'C', arc c over B'A'.  ``arc_points`` holds I_a, J_a,
    I_b, J_b, I_c, J_c in POINT_NAMES order; I_a and J_a sit on arc a
    beyond C' and B' respectively, and cyclically for the others.  The
    outer side lines follow LINE_POINT_NAMES: AB = (I_a J_b), BC =
    (I_b J_c), CA = (I_c J_a).
    """

    angles: AngleTriple
    inner: Triangle
    outer: Triangle
    circles: tuple[Circle, Circle, Circle]
    arc_points: tuple[Point, Point, Point, Point, Point, Point]

    def named_points(self) -> dict[str, Point]:
        """All twelve labelled points of the figure, in POINT_NAMES order."""
        return dict(zip(POINT_NAMES, (*self.outer.vertices, *self.inner.vertices, *self.arc_points)))

    @property
    def arcs(self) -> dict[str, Circle]:
        return dict(zip(ARC_CHORD_NAMES, self.circles))

    @property
    def lines(self) -> dict[str, Line]:
        return _side_lines(self.named_points())


def _side_lines(points: dict[str, Point]) -> dict[str, Line]:
    return {key: Line(points[p], points[q]) for key, (p, q) in LINE_POINT_NAMES.items()}


def place_arc_points(p_near: Point, q_near: Point, circle: Circle, half_central: float) -> tuple[Point, Point]:
    """Points on the circle twice ``half_central`` beyond the chord ends.

    p_near and q_near must lie on the circle.  The first returned point
    is p_near rotated about the center by 2*half_central away from
    q_near (so the open major arc between it and q_near contains
    p_near), and the second is q_near rotated the same amount away
    from p_near.
    """
    if not 0.0 < half_central < math.pi / 2.0:
        raise GeometryError(
            f"half central angle must lie in (0, pi/2), got {half_central}"
        )
    for pt in (p_near, q_near):
        if abs(circle.center.distance_to(pt) - circle.radius) > 1e-6 * circle.radius:
            raise GeometryError(f"point {pt} does not lie on {circle}")
    # Sign of the short way around the circle from p_near to q_near.
    turn = 1.0 if signed_angle(circle.center, p_near, q_near) > 0.0 else -1.0
    i_point = rotate_about(p_near, circle.center, -turn * 2.0 * half_central)
    j_point = rotate_about(q_near, circle.center, turn * 2.0 * half_central)
    return i_point, j_point


def construct(inner: Triangle, angles: AngleTriple) -> MorleyConfiguration:
    """Construct the triangle whose Morley triangle is ``inner``.

    The outer triangle has interior angles (3a, 3b, 3c) at the vertices
    opposite inner.v1, inner.v2, inner.v3 respectively, meaning vertex
    A of the result sees side BC across inner vertex A', and so on.

    Raises NotEquilateral for an unsuitable inner triangle and
    DegenerateLine when the angle triple sits on the thin set where
    two of the placed points coincide (one parameter equal to pi/6),
    which leaves a side line undefined.
    """
    if not inner.is_equilateral(EQUILATERAL_RTOL):
        lengths = inner.side_lengths()
        raise NotEquilateral(
            f"side lengths {lengths} spread more than {EQUILATERAL_RTOL:g} relative"
        )
    inner = inner.with_labels(INNER_NAMES)
    vertices = dict(zip(INNER_NAMES, inner.vertices))
    circles: list[Circle] = []
    arc_points: list[Point] = []
    for (p_name, q_name), angle, far_point in zip(ARC_CHORD_NAMES.values(), angles.as_tuple(), inner.vertices):
        p, q = vertices[p_name], vertices[q_name]
        circle = chord_arc_circle(p, q, angle, far_point)
        circles.append(circle)
        arc_points.extend(place_arc_points(p, q, circle, angle))

    points = dict(zip(ARC_POINT_NAMES, arc_points))
    side = inner.scale()
    for name, (p_name, q_name) in LINE_POINT_NAMES.items():
        if points[p_name].distance_to(points[q_name]) <= EPS_LENGTH * side:
            raise DegenerateLine(
                f"points defining side line {name} coincide; the angle triple "
                f"lies on the degenerate set with one angle equal to pi/6"
            )
    # Each vertex is the meet of the side line it starts and the one
    # before it: A on AB and CA, B on BC and AB, C on CA and BC.
    lines = list(_side_lines(points).values())
    outer = Triangle(*(intersect_lines(lines[k], lines[k - 1]) for k in range(3)), OUTER_NAMES)
    return MorleyConfiguration(angles, inner, outer, tuple(circles), tuple(arc_points))
