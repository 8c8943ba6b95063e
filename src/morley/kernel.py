"""Scalar 2D geometry primitives: points, lines, circles, triangles.

Angles are radians everywhere.  Signed angles are counter-clockwise
positive and normalized to (-pi, pi]; unsigned angles live in [0, pi].
Every degeneracy test is relative to the extent of the operation's own
inputs, so predicates behave identically under uniform scaling.  The
cross and dot products those tests and the angle measures rest on, and
those of the verification battery, all come from one function,
``cross_dot``, which takes them after an exact power-of-two prescale.

Overflow is refused by three rules: ``Point`` refuses a non-finite
coordinate, ``cross_dot`` refuses an extent past the largest float, and
each predicate measures through ``cross_dot`` before it compares
anything against its extent, so no verdict rests on an overflowed one.

Every value type of the package (``Point``, ``Line``, ``Circle`` and
``Triangle`` here, and the configuration, report and scene types of the
other modules) derives from ``Record``: an immutable, slotted value
compared, hashed and printed by its fields, as a frozen dataclass would
be.  Each type writes its own ``__init__``.  ``Record`` exists for the
cold start of the ``morley`` command: ``dataclasses`` imports
``inspect`` (with ``ast``, ``dis`` and ``tokenize``), then generates and
executes each decorated class's methods at every import, a cost no
bytecode cache saves.
"""

from __future__ import annotations

import math
from operator import attrgetter

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


class Record:
    """An immutable value whose fields are the subclass's ``__slots__``,
    typed by its ``__init__``, which sets each with ``_set_field``.

    Equality, hash and repr are a frozen dataclass's; pickling and
    copying rebuild the value through ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # A getattr loop in its place made construct 7% slower (Line.__init__ compares points).
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple]:
        return self.__class__, self._values(self)


class Point(Record):
    """A position in the plane; doubles as a displacement vector."""

    __slots__ = ("x", "y")

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

    def distance_to(self, other: Point) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def cross_dot(ux: float, uy: float, vx: float, vy: float, extent: float) -> tuple[float, float, float]:
    """Cross product u x v, dot product u . v, and the factor k they are
    taken at: both vectors are first multiplied by k, the power of two
    that brings a positive finite ``extent`` into [0.5, 1) (1 for a zero
    extent).

    Multiplying by k is exact, so the products are the unscaled ones times
    k*k.  With ``extent`` of the order of the longer vector's length they
    stay finite at any input scale.  An ``extent`` that is not finite
    raises GeometryError: the points measured span more than the largest
    float.
    """
    if not _isfinite(extent):
        raise GeometryError("the points span more than the largest float")
    # Capped so that the factor itself stays finite for a subnormal extent;
    # min() in place of the conditional costs a third of this function.
    shift = -math.frexp(extent)[1]
    k = math.ldexp(1.0, shift if shift < 1023 else 1023)
    ux, uy, vx, vy = ux * k, uy * k, vx * k, vy * k
    return ux * vy - uy * vx, ux * vx + uy * vy, k


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)


class Line(Record):
    """An infinite line through two distinct points."""

    __slots__ = ("p", "q")

    def __init__(self, p: Point, q: Point) -> None:
        _set_field(self, "p", p)
        _set_field(self, "q", q)
        if p == q:
            raise DegenerateLine(f"both defining points equal {p}")


class Circle(Record):
    __slots__ = ("center", "radius")

    def __init__(self, center: Point, radius: float) -> None:
        _set_field(self, "center", center)
        _set_field(self, "radius", radius)
        if not (_isfinite(radius) and radius > 0.0):
            raise GeometryError(f"radius must be finite and positive, got {radius}")


class Triangle(Record):
    """Three non-collinear vertices, named by position in ``morley.inverse``'s tables."""

    __slots__ = ("v1", "v2", "v3")

    def __init__(self, v1: Point, v2: Point, v3: Point) -> None:
        _set_field(self, "v1", v1)
        _set_field(self, "v2", v2)
        _set_field(self, "v3", v3)
        if orientation(v1, v2, v3) == 0:
            raise DegenerateTriangle(f"vertices {v1}, {v2}, {v3} are collinear")

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.v1, self.v2, self.v3)

    def side_lengths(self) -> tuple[float, float, float]:
        """Lengths of (v1 v2), (v2 v3), (v3 v1)."""
        return (
            self.v1.distance_to(self.v2),
            self.v2.distance_to(self.v3),
            self.v3.distance_to(self.v1),
        )

    def scale(self) -> float:
        return max(self.side_lengths())

    def angles(self) -> tuple[float, float, float]:
        """Interior angles at v1, v2 and v3."""
        v1, v2, v3 = self.v1, self.v2, self.v3
        return angle_at(v1, v2, v3), angle_at(v2, v3, v1), angle_at(v3, v1, v2)


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the turn p -> q -> r: +1 left, -1 right, 0 collinear.

    Collinearity is relative: the cross product is compared against
    EPS_ORIENT times the squared extent of the three points, both taken
    at the scale cross_dot gives that extent.
    """
    extent = max(p.distance_to(q), q.distance_to(r), r.distance_to(p))
    cross, _, k = cross_dot(q.x - p.x, q.y - p.y, r.x - p.x, r.y - p.y, extent)
    if abs(cross) <= EPS_ORIENT * (extent * k) * (extent * k):
        return 0
    return 1 if cross > 0.0 else -1


def intersect_lines(l1: Line, l2: Line) -> Point:
    """Intersection point of two lines.

    Raises NearParallel when the normalized direction cross product
    falls below EPS_PARALLEL.  cross_dot takes both cross products at the
    scale of the longer direction, which leaves the intersection
    parameter unchanged.
    """
    p1, p2 = l1.p, l2.p
    ux, uy = l1.q.x - p1.x, l1.q.y - p1.y
    vx, vy = l2.q.x - p2.x, l2.q.y - p2.y
    n1, n2 = math.hypot(ux, uy), math.hypot(vx, vy)
    extent = max(n1, n2)
    denom, _, k = cross_dot(ux, uy, vx, vy, extent)
    if abs(denom) <= EPS_PARALLEL * (n1 * k) * (n2 * k):
        # Only a zero cross product passes when the lengths underflow.
        sine = abs(denom) / ((n1 * k) * (n2 * k)) if denom else 0.0
        raise NearParallel(
            f"lines {l1} and {l2} are (nearly) parallel: "
            f"|sin| of their angle {sine:.3e} <= EPS_PARALLEL {EPS_PARALLEL:g}"
        )
    t = cross_dot(p2.x - p1.x, p2.y - p1.y, vx, vy, extent)[0] / denom
    return Point(p1.x + ux * t, p1.y + uy * t)


def rotate_about(p: Point, center: Point, theta: float) -> Point:
    """Rotate p about center by theta (counter-clockwise positive); each
    coordinate sums its products before the center, so the result commutes
    bit for bit with negating or swapping coordinates."""
    c = math.cos(theta)
    s = math.sin(theta)
    cx, cy = center.x, center.y
    dx, dy = p.x - cx, p.y - cy
    return Point(cx + (c * dx - s * dy), cy + (s * dx + c * dy))


def _ray_products(vertex: Point, p: Point, q: Point) -> tuple[float, float]:
    """Cross and dot product of the rays vertex->p and vertex->q, taken by
    cross_dot at the extent of the three points, so the angle between the
    rays is unchanged and the products stay finite.
    """
    to_p = vertex.distance_to(p)
    to_q = vertex.distance_to(q)
    scale = max(to_p, to_q, p.distance_to(q))
    cross, dot, _ = cross_dot(p.x - vertex.x, p.y - vertex.y, q.x - vertex.x, q.y - vertex.y, scale)
    if scale == 0.0:
        raise DegenerateRay("all three points coincide")
    for target, length in ((p, to_p), (q, to_q)):
        if length <= EPS_LENGTH * scale:
            raise DegenerateRay(f"point {target} coincides with vertex {vertex}")
    return cross, dot


def angle_at(vertex: Point, p: Point, q: Point) -> float:
    """Unsigned angle p-vertex-q in [0, pi]."""
    cross, dot = _ray_products(vertex, p, q)
    return math.atan2(abs(cross), dot)


def signed_angle(vertex: Point, p: Point, q: Point) -> float:
    """Rotation from ray vertex->p to ray vertex->q, ccw positive, in (-pi, pi]."""
    theta = math.atan2(*_ray_products(vertex, p, q))
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
    chord_x, chord_y = q.x - p.x, q.y - p.y
    length = math.hypot(chord_x, chord_y)
    side = orientation(p, q, far_point)
    scale = max(length, p.distance_to(far_point), q.distance_to(far_point))
    if length <= EPS_LENGTH * scale:
        raise DegenerateChord(f"chord endpoints {p} and {q} coincide")
    if side == 0:
        raise FarPointOnLine(f"far point {far_point} lies on the chord line")
    radius = length / (2.0 * math.sin(half_central))
    # Left unit normal of the chord; stepping from the midpoint by
    # (length/2) * cot(half_central) reaches the two candidate centers.
    normal_x, normal_y = -chord_y / length, chord_x / length
    offset = (length / 2.0) * (math.cos(half_central) / math.sin(half_central))
    mid = midpoint(p, q)
    toward = -side * offset
    return Circle(Point(mid.x + normal_x * toward, mid.y + normal_y * toward), radius)
