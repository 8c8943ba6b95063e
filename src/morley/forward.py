"""Forward trisector oracle: the Morley triangle of an arbitrary triangle.

This module never looks at the construction in morley.inverse.  It
trisects each interior angle directly and intersects adjacent
trisectors, so it serves as an independent witness that the inverse
construction really produces a triangle with the requested Morley
triangle.
"""

from __future__ import annotations

import math

from .kernel import (
    EPS_PARALLEL,
    DegenerateTriangle,
    GeometryError,
    NearParallel,
    Point,
    Triangle,
    signed_angle,
)

# Interior angles below this make trisector intersections unreliable.
MIN_TRIANGLE_ANGLE = 1e-6

# A trisector intersection must not fall behind either ray origin by
# more than this fraction of the triangle scale.
RAY_PARAM_SLACK = 1e-9


def trisectors(triangle: Triangle, vertex_index: int) -> tuple[Point, Point]:
    """Unit directions of the two interior angle trisectors at a vertex.

    The vertex index is 1-based.  The first direction makes an angle of
    one third of the interior angle with the side toward the next vertex
    (in the triangle's vertex order), the second two thirds.
    """
    if vertex_index not in (1, 2, 3):
        raise ValueError(f"vertex index must be 1, 2 or 3, got {vertex_index}")
    vertices = triangle.vertices
    v, nxt, prv = vertices[vertex_index - 1], vertices[vertex_index % 3], vertices[(vertex_index + 1) % 3]
    turn = signed_angle(v, nxt, prv)
    if abs(turn) < MIN_TRIANGLE_ANGLE:
        raise DegenerateTriangle(
            f"interior angle {abs(turn):.3e} at vertex {vertex_index} is too small"
        )
    first, second = _trisectors(v, nxt, turn)
    return Point(*first), Point(*second)


def _trisectors(v: Point, nxt: Point, turn: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Trisector directions at v, given ``turn = signed_angle(v, nxt, prv)``:
    its magnitude is the interior angle and its sign the way into the
    triangle from the side v->nxt."""
    theta = abs(turn)
    into = 1.0 if turn > 0.0 else -1.0
    bx, by = nxt.x - v.x, nxt.y - v.y
    inv = 1.0 / math.hypot(bx, by)
    bx, by = bx * inv, by * inv
    return _ray(v, bx, by, into * theta / 3.0), _ray(v, bx, by, into * 2.0 * theta / 3.0)


def _ray(v: Point, bx: float, by: float, angle: float) -> tuple[float, float]:
    """The unit vector (bx, by) turned by ``angle`` about v.

    This is rotate_about(base + v, v, angle) - v, renormalized, one float
    operation for each of the Point operations it stands for.  Against a
    vertex far from the origin the unit vector is lost in base + v, and
    the renormalization divides by zero.
    """
    c = math.cos(angle)
    s = math.sin(angle)
    vx, vy = v.x, v.y
    dx, dy = (bx + vx) - vx, (by + vy) - vy
    rx, ry = vx + c * dx - s * dy - vx, vy + s * dx + c * dy - vy
    n = math.hypot(rx, ry)
    return rx / n, ry / n


def _meet(o1: Point, d1: tuple[float, float], o2: Point, d2: tuple[float, float], scale: float) -> Point:
    """Meet of the trisectors from o1 along d1 and from o2 along d2."""
    (d1x, d1y), (d2x, d2y) = d1, d2
    denom = d1x * d2y - d1y * d2x
    if abs(denom) <= EPS_PARALLEL:
        raise NearParallel(
            f"trisectors from {o1} and {o2} are (nearly) parallel: "
            f"|sin| of their angle {abs(denom):.3e} <= EPS_PARALLEL {EPS_PARALLEL:g}"
        )
    wx, wy = o2.x - o1.x, o2.y - o1.y
    t1 = (wx * d2y - wy * d2x) / denom
    t2 = (wx * d1y - wy * d1x) / denom
    slack = RAY_PARAM_SLACK * scale
    if t1 < -slack or t2 < -slack:
        raise NearParallel(
            f"trisector rays meet behind an origin (t1={t1:.3e}, t2={t2:.3e})"
        )
    return Point(o1.x + d1x * t1, o1.y + d1y * t1)


def morley_triangle(triangle: Triangle) -> Triangle:
    """Morley triangle: pairwise meets of adjacent interior trisectors.

    For vertices (A, B, C) the result's first vertex is the meet of
    the trisectors of B and C adjacent to side BC, and cyclically: the
    points the figure names A', B' and C'.
    """
    v1, v2, v3 = triangle.v1, triangle.v2, triangle.v3
    turn_1, turn_2, turn_3 = signed_angle(v1, v2, v3), signed_angle(v2, v3, v1), signed_angle(v3, v1, v2)
    smallest = min(abs(turn_1), abs(turn_2), abs(turn_3))
    if smallest < MIN_TRIANGLE_ANGLE:
        raise DegenerateTriangle(f"smallest interior angle {smallest:.3e} is too small")
    scale = triangle.scale()
    first_1, second_1 = _trisectors(v1, v2, turn_1)
    first_2, second_2 = _trisectors(v2, v3, turn_2)
    first_3, second_3 = _trisectors(v3, v1, turn_3)
    # At each vertex, `first` hugs the side toward the next vertex and
    # `second` hugs the side toward the previous one.
    near_bc = _meet(v2, first_2, v3, second_3, scale)
    near_ca = _meet(v3, first_3, v1, second_1, scale)
    near_ab = _meet(v1, first_1, v2, second_2, scale)
    return Triangle(near_bc, near_ca, near_ab)


def side_spread(triangle: Triangle) -> float:
    """Relative spread of the side lengths: (max - min) / max."""
    lengths = triangle.side_lengths()
    return (max(lengths) - min(lengths)) / max(lengths)


def apply_similarity(triangle: Triangle, theta: float, scale: float, translation: Point) -> Triangle:
    """Rotate by theta about the origin, scale, then translate."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise GeometryError(f"scale must be finite and positive, got {scale}")
    c = math.cos(theta)
    s = math.sin(theta)

    def move(p: Point) -> Point:
        return Point(
            scale * (c * p.x - s * p.y) + translation.x,
            scale * (s * p.x + c * p.y) + translation.y,
        )

    return Triangle(move(triangle.v1), move(triangle.v2), move(triangle.v3))
