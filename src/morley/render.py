"""Deterministic SVG rendering of configurations and trisection scenes.

The same input always yields byte-identical output: element order is
fixed, coordinates are printed with 9 significant digits, and all
styling is inlined.  Scene coordinates keep the library's y-up
convention and are flipped only at emission, so figures appear in the
usual mathematical orientation.  A drawing builds no Point: positions
and the vectors derived from them are (x, y) float pairs.  Every number
of a drawing is printed by _f, which raises GeometryError for one that
is not finite, so no drawing holds an inf or a nan.

Style lengths (stroke width, point radius, font size) are fractions of
the scene extent, which makes drawings of any absolute size look the
same.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .forward import morley_triangle
from .inverse import ARC_CHORD_NAMES, INNER_NAMES, LINE_POINT_NAMES, LINE_VERTEX_NAMES, OUTER_NAMES, MorleyConfiguration
from .kernel import Circle, GeometryError, Point, Record, Triangle, _isfinite, _set_field, signed_angle

_COL_ARC = "#9aa0a6"
_COL_CONSTRUCTION = "#4878cf"
_COL_INNER = "#d1495b"
_COL_OUTER = "#30323d"
_COL_LABEL = "#30323d"
_COL_FILL = "#f2c14e"

# Style lengths as fractions of the scene extent.
STROKE_WIDTH = 0.008
POINT_RADIUS = 0.018
FONT_SIZE = 0.07

_XY = tuple[float, float]


class TrisectionScene(Record):
    """A triangle together with its trisector (Morley) triangle."""

    __slots__ = ("outer", "morley")

    def __init__(self, outer: Triangle, morley: Triangle) -> None:
        _set_field(self, "outer", outer)
        _set_field(self, "morley", morley)

    @classmethod
    def from_triangle(cls, triangle: Triangle) -> TrisectionScene:
        return cls(triangle, morley_triangle(triangle))

    def trisector_segments(self) -> tuple[tuple[Point, Point], ...]:
        """Vertex-to-Morley-vertex segments, two per outer vertex: from
        outer vertex i to the Morley vertices i + 2 and i + 1 (mod 3), the
        two that lie next to the sides at vertex i."""
        outer = self.outer.vertices
        inner = self.morley.vertices
        return tuple((outer[i], inner[(i + k) % 3]) for i in range(3) for k in (2, 1))


def _f(x: float) -> str:
    if x == 0.0:
        return "0"
    if not _isfinite(x):
        raise GeometryError(f"the drawing needs the non-finite number {x}")
    return "%.9g" % x


def _arc_extremes(circle: Circle, start: Point, end: Point, direction: float) -> list[_XY]:
    """The axis extremes covered by the arc from start to end that turns
    in ``direction`` (+1.0 counter-clockwise, -1.0 clockwise), as (x, y)
    pairs; its endpoints are named points, framed with the others."""
    cx, cy, r = circle.center.x, circle.center.y, circle.radius
    theta_s = math.atan2(start.y - cy, start.x - cx)
    theta_e = math.atan2(end.y - cy, end.x - cx)
    span = (direction * (theta_e - theta_s)) % (2.0 * math.pi)
    points = []
    for k in range(4):
        phi = k * math.pi / 2.0
        if (direction * (phi - theta_s)) % (2.0 * math.pi) <= span:
            points.append((cx + math.cos(phi) * r, cy + math.sin(phi) * r))
    return points


def _bbox(points: list[_XY]) -> tuple[float, float, float, float, float]:
    """Bounds in flipped coordinates, padded by 5% a side, plus the raw extent."""
    xs = [x for x, _ in points]
    ys = [-y for _, y in points]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    width = max_x - min_x
    height = max_y - min_y
    extent = max(width, height)
    if extent <= 0.0:
        raise GeometryError("scene has no extent")
    pad_x = 0.05 * (width if width > 0.0 else extent)
    pad_y = 0.05 * (height if height > 0.0 else extent)
    return (min_x - pad_x, min_y - pad_y, width + 2.0 * pad_x, height + 2.0 * pad_y, extent)


def _line_element(p: _XY, q: _XY, cls: str, stroke: str, width: str) -> str:
    (x1, y1), (x2, y2) = p, q
    return (
        f'<line class="{cls}" x1="{_f(x1)}" y1="{_f(-y1)}" x2="{_f(x2)}" y2="{_f(-y2)}"'
        f' stroke="{stroke}" stroke-width="{width}"/>'
    )


def _edges(triangle: Triangle, cls: str, stroke: str, width: float) -> list[str]:
    v, w = [(p.x, p.y) for p in triangle.vertices], _f(1.5 * width)
    return [_line_element(v[i], v[(i + 1) % 3], cls, stroke, w) for i in range(3)]


def _dots(points: tuple[Point, ...], cls: str, fill: str, radius: float) -> list[str]:
    r = _f(radius)
    return [f'<circle class="{cls}" cx="{_f(p.x)}" cy="{_f(-p.y)}" r="{r}" fill="{fill}"/>' for p in points]


def _label_positions(points: dict[str, _XY], offset: float) -> dict[str, _XY]:
    """Each point pushed ``offset`` away from the centroid of all of them
    (straight up for a point that sits on the centroid)."""
    n = len(points)
    # A coordinate whose sum passes the largest float is summed again at the
    # power of two k <= 1/n, where it cannot; scaling by k is exact.
    k = 0.5 ** n.bit_length()
    cx, cy = (t / n if _isfinite(t := sum(vs)) else sum(v * k for v in vs) / n / k for vs in zip(*points.values()))
    out = {}
    for name, (x, y) in points.items():
        dx, dy = x - cx, y - cy
        norm = math.hypot(dx, dy)
        ux, uy = (0.0, 1.0) if norm <= 1e-12 * offset else (dx / norm, dy / norm)
        out[name] = x + ux * offset, y + uy * offset
    return out


def _carrier_segment(p: _XY, q: _XY, through: list[_XY]) -> tuple[_XY, _XY]:
    """Segment along line pq covering pq and every projected point, with
    8% of that span added at each end."""
    (px, py), (qx, qy) = p, q
    dx, dy = qx - px, qy - py
    length = math.hypot(dx, dy)
    ux, uy = dx / length, dy / length
    ts = [0.0, length] + [ux * (rx - px) + uy * (ry - py) for rx, ry in through]
    lo, hi = min(ts), max(ts)
    span = hi - lo
    a, b = lo - 0.08 * span, hi + 0.08 * span
    return (px + ux * a, py + uy * a), (px + ux * b, py + uy * b)


def _svg(points: dict[str, _XY], extra: list[_XY], labels: bool, draw: Callable[[float, float], list[str]]) -> str:
    """A complete drawing framed around ``points`` and ``extra``: the
    scene's own elements from ``draw(stroke_width, point_radius)``, then,
    if ``labels``, the name of each of ``points``."""
    min_x, min_y, width, height, extent = _bbox([*points.values(), *extra])
    radius = POINT_RADIUS * extent
    elements = draw(STROKE_WIDTH * extent, radius)
    if labels:
        size = _f(FONT_SIZE * extent)
        for name, (x, y) in _label_positions(points, 2.4 * radius).items():
            elements.append(
                f'<text class="label" x="{_f(x)}" y="{_f(-y)}" font-size="{size}"'
                f' fill="{_COL_LABEL}" text-anchor="middle">{name}</text>'
            )
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_f(min_x)} {_f(min_y)} {_f(width)} {_f(height)}" '
        'font-family="sans-serif">'
    )
    return "\n".join([header, *elements, "</svg>"]) + "\n"


def _render_config(cfg: MorleyConfiguration, arcs: bool, labels: bool) -> str:
    named = cfg.named_points()
    points = {name: (p.x, p.y) for name, p in named.items()}
    paths: list[str] = []
    extremes: list[_XY] = []
    if arcs:
        for circle, (p_name, q_name) in zip(cfg.circles, ARC_CHORD_NAMES.values()):
            start, end = named[p_name], named[q_name]
            short_way = 1.0 if signed_angle(circle.center, start, end) > 0.0 else -1.0
            # The drawn arc is the major one: from start the long way round,
            # which passes through both placed points.  In emitted (y-down)
            # coordinates that traversal turns in the direction of
            # short_way, hence the sweep flag.
            sweep = 1 if short_way > 0.0 else 0
            r = _f(circle.radius)
            paths.append(f"M {_f(start.x)} {_f(-start.y)} A {r} {r} 0 1 {sweep} {_f(end.x)} {_f(-end.y)}")
            extremes.extend(_arc_extremes(circle, start, end, -short_way))
    carriers = [
        _carrier_segment(points[i_name], points[j_name], [points[name] for name in LINE_VERTEX_NAMES[key]])
        for key, (i_name, j_name) in LINE_POINT_NAMES.items()
    ]

    def draw(width: float, radius: float) -> list[str]:
        w = _f(width)
        dash = f"{_f(4.0 * width)} {_f(3.0 * width)}"
        return [
            *(
                f'<path class="arc" d="{path}" fill="none" stroke="{_COL_ARC}"'
                f' stroke-width="{w}" stroke-dasharray="{dash}"/>'
                for path in paths
            ),
            *(_line_element(lo, hi, "construction-line", _COL_CONSTRUCTION, w) for lo, hi in carriers),
            *_edges(cfg.inner, "edge-inner", _COL_INNER, width),
            *_edges(cfg.outer, "edge-outer", _COL_OUTER, width),
            *_dots(cfg.arc_points, "point-ij", _COL_CONSTRUCTION, radius),
            *_dots(cfg.inner.vertices, "point-vertex", _COL_INNER, radius),
            *_dots(cfg.outer.vertices, "point-vertex", _COL_OUTER, radius),
        ]

    return _svg(points, extremes, labels, draw)


def _render_trisection(scene: TrisectionScene, labels: bool) -> str:
    outer, inner = scene.outer, scene.morley
    points = {name: (p.x, p.y) for name, p in zip((*OUTER_NAMES, *INNER_NAMES), (*outer.vertices, *inner.vertices))}

    def draw(width: float, radius: float) -> list[str]:
        w, segments = _f(width), scene.trisector_segments()
        corners = " ".join(f"{_f(p.x)},{_f(-p.y)}" for p in inner.vertices)
        return [
            f'<polygon class="morley-fill" points="{corners}" fill="{_COL_FILL}" fill-opacity="0.45"/>',
            *(_line_element((p.x, p.y), (q.x, q.y), "trisector", _COL_CONSTRUCTION, w) for p, q in segments),
            *_edges(outer, "edge-outer", _COL_OUTER, width),
            *_edges(inner, "edge-inner", _COL_INNER, width),
            *_dots(outer.vertices, "point-vertex", _COL_OUTER, radius),
            *_dots(inner.vertices, "point-vertex", _COL_INNER, radius),
        ]

    return _svg(points, [], labels, draw)


def render_svg(scene: MorleyConfiguration | TrisectionScene, *, arcs: bool = True, labels: bool = True) -> str:
    """Render a scene to a complete, self-contained SVG string.

    ``arcs`` draws a configuration's three arcs (a trisection scene has
    none); ``labels`` names every vertex and, for a configuration, every
    arc point.
    """
    if isinstance(scene, MorleyConfiguration):
        return _render_config(scene, arcs, labels)
    if isinstance(scene, TrisectionScene):
        return _render_trisection(scene, labels)
    raise TypeError(f"cannot render {type(scene).__name__}")
