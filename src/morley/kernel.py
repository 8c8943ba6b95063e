"""Scalar 2D geometry primitives: points, lines, circles, triangles.

Angles are radians everywhere.  Signed angles are counter-clockwise
positive and normalized to (-pi, pi]; unsigned angles live in [0, pi].
Every degeneracy test is relative to the extent of the operation's own
inputs, so predicates behave identically under uniform scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Degeneracy thresholds.  Each is applied relative to the largest
# pairwise distance among the inputs of the operation that uses it.
EPS_PARALLEL = 1e-12
EPS_ORIENT = 1e-12
EPS_LENGTH = 1e-12


class GeometryError(ValueError):
    """Base class for degenerate or invalid geometric input."""


class NearParallel(GeometryError):
    """Lines too close to parallel for a stable intersection."""


class DegenerateRay(GeometryError):
    """An angle measure was requested along a near-zero displacement."""


class DegenerateLine(GeometryError):
    """A line requires two distinct defining points."""


class DegenerateChord(GeometryError):
    """Chord endpoints (nearly) coincide."""


class FarPointOnLine(GeometryError):
    """The side-selection point lies on the chord's carrier line."""


class DegenerateTriangle(GeometryError):
    """Triangle vertices are collinear or coincident."""


# Bound once for Point.__init__, the package's most frequent call: the
# attribute lookups they save are about 15% of its time.
_isfinite = math.isfinite
_set_field = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Point:
    """A position in the plane; doubles as a displacement vector."""

    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        if not (_isfinite(x) and _isfinite(y)):
            raise GeometryError(f"non-finite coordinates ({x}, {y})")
        # Canonicalize ints and numpy scalars so equal points print
        # identically everywhere.
        _set_field(self, "x", float(x))
        _set_field(self, "y", float(y))

    def __add__(self, other: Point) -> Point:
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Point) -> Point:
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> Point:
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __neg__(self) -> Point:
        return Point(-self.x, -self.y)

    def dot(self, other: Point) -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: Point) -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: Point) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def unit_scale(extent: float) -> float:
    """The power of two that brings a positive finite extent into [0.5, 1).

    Multiplying coordinates by it is exact, so cross and dot products of
    the scaled displacements are the unscaled ones times an exact power
    of two, and they stay finite at any input scale.  Returns 1 for a
    zero extent.
    """
    # Capped so that the factor itself stays finite for a subnormal extent.
    return math.ldexp(1.0, min(-math.frexp(extent)[1], 1023))


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)


@dataclass(frozen=True, slots=True)
class Line:
    """An infinite line through two distinct points."""

    p: Point
    q: Point

    def __post_init__(self) -> None:
        if self.p == self.q:
            raise DegenerateLine(f"both defining points equal {self.p}")

    def direction(self) -> Point:
        return self.q - self.p

    def distance_to_point(self, r: Point) -> float:
        d = self.direction()
        return abs(d.cross(r - self.p)) / d.norm()


@dataclass(frozen=True, slots=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise GeometryError(f"radius must be finite and positive, got {self.radius}")

    def contains(self, p: Point, rtol: float = 1e-9) -> bool:
        """True when p lies on the circle within a relative tolerance."""
        return abs(self.center.distance_to(p) - self.radius) <= rtol * self.radius


@dataclass(frozen=True, slots=True)
class Triangle:
    """Three non-collinear vertices with display labels."""

    v1: Point
    v2: Point
    v3: Point
    labels: tuple[str, str, str] = ("A", "B", "C")

    def __post_init__(self) -> None:
        if len(self.labels) != 3:
            raise GeometryError(f"expected three labels, got {self.labels!r}")
        if orientation(self.v1, self.v2, self.v3) == 0:
            raise DegenerateTriangle(
                f"vertices {self.v1}, {self.v2}, {self.v3} are collinear"
            )

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.v1, self.v2, self.v3)

    def vertex(self, index: int) -> Point:
        """Vertex by 1-based index."""
        if index not in (1, 2, 3):
            raise ValueError(f"vertex index must be 1, 2 or 3, got {index}")
        return self.vertices[index - 1]

    def side_lengths(self) -> tuple[float, float, float]:
        """Lengths of (v1 v2), (v2 v3), (v3 v1)."""
        return (
            self.v1.distance_to(self.v2),
            self.v2.distance_to(self.v3),
            self.v3.distance_to(self.v1),
        )

    def scale(self) -> float:
        return max(self.side_lengths())

    @property
    def orientation_sign(self) -> int:
        """+1 for counter-clockwise vertex order, -1 for clockwise."""
        return orientation(self.v1, self.v2, self.v3)

    def interior_angle(self, index: int) -> float:
        """Interior angle at the 1-based vertex index."""
        v = self.vertex(index)
        nxt = self.vertex(index % 3 + 1)
        prv = self.vertex((index + 1) % 3 + 1)
        return angle_at(v, nxt, prv)

    def min_interior_angle(self) -> float:
        return min(self.interior_angle(i) for i in (1, 2, 3))

    def is_equilateral(self, rtol: float = 1e-12) -> bool:
        lengths = self.side_lengths()
        return (max(lengths) - min(lengths)) <= rtol * max(lengths)

    def with_labels(self, labels: tuple[str, str, str]) -> Triangle:
        return Triangle(self.v1, self.v2, self.v3, labels)

    def centroid(self) -> Point:
        return Point(
            (self.v1.x + self.v2.x + self.v3.x) / 3.0,
            (self.v1.y + self.v2.y + self.v3.y) / 3.0,
        )


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the turn p -> q -> r: +1 left, -1 right, 0 collinear.

    Collinearity is relative: the cross product is compared against
    EPS_ORIENT times the squared extent of the three points, both taken
    after multiplying by the extent's unit_scale.
    """
    extent = max(p.distance_to(q), q.distance_to(r), r.distance_to(p))
    k = unit_scale(extent)
    cross = ((q.x - p.x) * k) * ((r.y - p.y) * k) - ((q.y - p.y) * k) * ((r.x - p.x) * k)
    if abs(cross) <= EPS_ORIENT * (extent * k) * (extent * k):
        return 0
    return 1 if cross > 0.0 else -1


def intersect_lines(l1: Line, l2: Line) -> Point:
    """Intersection point of two lines.

    Raises NearParallel when the normalized direction cross product
    falls below EPS_PARALLEL.  The products are taken after multiplying
    by the unit_scale of the longer direction, which leaves the
    intersection parameter unchanged.
    """
    d1 = l1.direction()
    d2 = l2.direction()
    n1, n2 = d1.norm(), d2.norm()
    k = unit_scale(max(n1, n2))
    d1x, d1y, d2x, d2y = d1.x * k, d1.y * k, d2.x * k, d2.y * k
    denom = d1x * d2y - d1y * d2x
    if abs(denom) <= EPS_PARALLEL * (n1 * k) * (n2 * k):
        raise NearParallel(f"lines {l1} and {l2} are (nearly) parallel")
    wx, wy = (l2.p.x - l1.p.x) * k, (l2.p.y - l1.p.y) * k
    t = (wx * d2y - wy * d2x) / denom
    return l1.p + d1 * t


def rotate_about(p: Point, center: Point, theta: float) -> Point:
    """Rotate p about center by theta (counter-clockwise positive)."""
    c = math.cos(theta)
    s = math.sin(theta)
    d = p - center
    return Point(
        center.x + c * d.x - s * d.y,
        center.y + s * d.x + c * d.y,
    )


def _scaled_rays(vertex: Point, p: Point, q: Point) -> tuple[float, float, float, float]:
    """Rays vertex->p and vertex->q as (ux, uy, vx, vy), multiplied by the
    unit_scale of the extent of the three points, so the angle between
    them is unchanged and their cross and dot products stay finite.
    """
    to_p = vertex.distance_to(p)
    to_q = vertex.distance_to(q)
    scale = max(to_p, to_q, p.distance_to(q))
    if scale == 0.0:
        raise DegenerateRay("all three points coincide")
    for target, length in ((p, to_p), (q, to_q)):
        if length <= EPS_LENGTH * scale:
            raise DegenerateRay(f"point {target} coincides with vertex {vertex}")
    k = unit_scale(scale)
    return ((p.x - vertex.x) * k, (p.y - vertex.y) * k, (q.x - vertex.x) * k, (q.y - vertex.y) * k)


def angle_at(vertex: Point, p: Point, q: Point) -> float:
    """Unsigned angle p-vertex-q in [0, pi]."""
    ux, uy, vx, vy = _scaled_rays(vertex, p, q)
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def signed_angle(vertex: Point, p: Point, q: Point) -> float:
    """Rotation from ray vertex->p to ray vertex->q, ccw positive, in (-pi, pi]."""
    ux, uy, vx, vy = _scaled_rays(vertex, p, q)
    theta = math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)
    if theta <= -math.pi:
        theta = math.pi
    return theta


def chord_arc_circle(p: Point, q: Point, half_central: float, far_point: Point) -> Circle:
    """Circle through p and q whose major arc subtends ``half_central``.

    The chord pq spans a central angle of 2*half_central, so an
    inscribed angle on the major arc equals half_central.  Of the two
    candidate centers the one on the opposite side of line pq from
    far_point is chosen, which puts the major arc on the far side of
    the chord, away from far_point.

    half_central must lie in (0, pi/2).
    """
    if not 0.0 < half_central < math.pi / 2.0:
        raise GeometryError(
            f"half central angle must lie in (0, pi/2), got {half_central}"
        )
    chord = q - p
    length = chord.norm()
    scale = max(length, p.distance_to(far_point), q.distance_to(far_point))
    if length <= EPS_LENGTH * scale:
        raise DegenerateChord(f"chord endpoints {p} and {q} coincide")
    side = orientation(p, q, far_point)
    if side == 0:
        raise FarPointOnLine(f"far point {far_point} lies on the chord line")
    radius = length / (2.0 * math.sin(half_central))
    # Left unit normal of the chord; stepping from the midpoint by
    # (length/2) * cot(half_central) reaches the two candidate centers.
    normal = Point(-chord.y / length, chord.x / length)
    offset = (length / 2.0) * (math.cos(half_central) / math.sin(half_central))
    center = midpoint(p, q) + normal * (-side * offset)
    return Circle(center, radius)
