"""Deterministic SVG rendering of configurations and trisection scenes.

The same input always yields byte-identical output: element order is
fixed, coordinates are printed with 9 significant digits, and all
styling is inlined.  Scene coordinates keep the library's y-up
convention and are flipped only at emission, so figures appear in the
usual mathematical orientation.

Style lengths (stroke width, point radius, font size) are fractions of
the scene extent, which makes drawings of any absolute size look the
same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .forward import morley_triangle
from .inverse import ARC_CHORD_NAMES, LINE_POINT_NAMES, LINE_VERTEX_NAMES, MorleyConfiguration
from .kernel import Circle, GeometryError, Point, Triangle, signed_angle

_COL_ARC = "#9aa0a6"
_COL_CONSTRUCTION = "#4878cf"
_COL_INNER = "#d1495b"
_COL_OUTER = "#30323d"
_COL_LABEL = "#30323d"
_COL_FILL = "#f2c14e"


@dataclass(frozen=True, slots=True)
class RenderStyle:
    """Knobs for the SVG output; lengths are relative to scene extent."""

    stroke_width: float = 0.008
    point_radius: float = 0.018
    label_font_size: float = 0.07
    show_arcs: bool = True
    show_labels: bool = True

    def __post_init__(self) -> None:
        for name in ("stroke_width", "point_radius", "label_font_size"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True, slots=True)
class TrisectionScene:
    """A triangle together with its trisector (Morley) triangle."""

    outer: Triangle
    morley: Triangle

    @classmethod
    def from_triangle(cls, triangle: Triangle) -> TrisectionScene:
        return cls(triangle, morley_triangle(triangle))

    def trisector_segments(self) -> tuple[tuple[Point, Point], ...]:
        """Vertex-to-Morley-vertex segments, two per outer vertex."""
        outer = self.outer.vertices
        inner = self.morley.vertices
        return (
            (outer[0], inner[2]),
            (outer[0], inner[1]),
            (outer[1], inner[0]),
            (outer[1], inner[2]),
            (outer[2], inner[1]),
            (outer[2], inner[0]),
        )


def _f(x: float) -> str:
    if x == 0.0:
        return "0"
    return f"{x:.9g}"


def _flip(p: Point) -> tuple[float, float]:
    return (p.x, -p.y)


def _arc_extremes(circle: Circle, start: Point, end: Point, direction: float) -> list[Point]:
    """Points bounding the arc: endpoints plus covered axis extremes."""
    theta_s = math.atan2(start.y - circle.center.y, start.x - circle.center.x)
    theta_e = math.atan2(end.y - circle.center.y, end.x - circle.center.x)
    if direction > 0:
        span = (theta_e - theta_s) % (2.0 * math.pi)
    else:
        span = (theta_s - theta_e) % (2.0 * math.pi)
    points = [start, end]
    for k in range(4):
        phi = k * math.pi / 2.0
        offset = (phi - theta_s) % (2.0 * math.pi) if direction > 0 else (theta_s - phi) % (2.0 * math.pi)
        if offset <= span:
            points.append(
                circle.center + Point(math.cos(phi), math.sin(phi)) * circle.radius
            )
    return points


def _bbox(points: list[Point], pad_fraction: float = 0.05) -> tuple[float, float, float, float, float]:
    """Padded bounds in flipped coordinates plus the raw extent."""
    xs = [p.x for p in points]
    ys = [-p.y for p in points]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    width = max_x - min_x
    height = max_y - min_y
    extent = max(width, height)
    if extent <= 0.0:
        raise GeometryError("scene has no extent")
    pad_x = pad_fraction * width if width > 0.0 else pad_fraction * extent
    pad_y = pad_fraction * height if height > 0.0 else pad_fraction * extent
    return (min_x - pad_x, min_y - pad_y, width + 2.0 * pad_x, height + 2.0 * pad_y, extent)


def _line_element(p: Point, q: Point, cls: str, stroke: str, width: float, dash: str | None = None) -> str:
    (x1, y1), (x2, y2) = _flip(p), _flip(q)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line class="{cls}" x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}"'
        f' stroke="{stroke}" stroke-width="{_f(width)}"{dash_attr}/>'
    )


def _circle_element(p: Point, radius: float, cls: str, fill: str) -> str:
    x, y = _flip(p)
    return f'<circle class="{cls}" cx="{_f(x)}" cy="{_f(y)}" r="{_f(radius)}" fill="{fill}"/>'


def _text_element(pos: Point, content: str, size: float) -> str:
    x, y = _flip(pos)
    escaped = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (
        f'<text class="label" x="{_f(x)}" y="{_f(y)}" font-size="{_f(size)}"'
        f' fill="{_COL_LABEL}" text-anchor="middle">{escaped}</text>'
    )


def _label_positions(points: dict[str, Point], offset: float) -> dict[str, Point]:
    n = len(points)
    cx = sum(p.x for p in points.values()) / n
    cy = sum(p.y for p in points.values()) / n
    center = Point(cx, cy)
    out = {}
    for name, p in points.items():
        d = p - center
        norm = d.norm()
        direction = Point(0.0, 1.0) if norm <= 1e-12 * (1.0 + offset) else d * (1.0 / norm)
        out[name] = p + direction * offset
    return out


def _carrier_segment(p: Point, q: Point, through: list[Point], overhang: float = 0.08) -> tuple[Point, Point]:
    """Segment along line pq covering pq and every projected point."""
    d = q - p
    length = d.norm()
    u = d * (1.0 / length)
    ts = [0.0, length] + [u.dot(r - p) for r in through]
    lo, hi = min(ts), max(ts)
    span = hi - lo
    return p + u * (lo - overhang * span), p + u * (hi + overhang * span)


def _svg(view: tuple[float, float, float, float], elements: list[str]) -> str:
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_f(view[0])} {_f(view[1])} {_f(view[2])} {_f(view[3])}" '
        'font-family="sans-serif">'
    )
    return "\n".join([header, *elements, "</svg>"]) + "\n"


def _render_config(cfg: MorleyConfiguration, style: RenderStyle) -> str:
    points = cfg.named_points()
    scene_points = list(points.values())

    arcs = []
    for circle, (p_name, q_name) in zip(cfg.circles, ARC_CHORD_NAMES.values()):
        start, end = points[p_name], points[q_name]
        short_way = 1.0 if signed_angle(circle.center, start, end) > 0.0 else -1.0
        # The drawn arc is the major one: from start the long way round,
        # which passes through both placed points.  In emitted (y-down)
        # coordinates that traversal turns in the direction of
        # short_way, hence the sweep flag.
        sweep = 1 if short_way > 0.0 else 0
        arcs.append((circle, start, end, sweep))
        if style.show_arcs:
            scene_points.extend(_arc_extremes(circle, start, end, -short_way))

    min_x, min_y, width, height, extent = _bbox(scene_points)
    stroke = style.stroke_width * extent
    radius = style.point_radius * extent
    font = style.label_font_size * extent

    elements: list[str] = []
    if style.show_arcs:
        for circle, start, end, sweep in arcs:
            (x1, y1), (x2, y2) = _flip(start), _flip(end)
            r = _f(circle.radius)
            path = f"M {_f(x1)} {_f(y1)} A {r} {r} 0 1 {sweep} {_f(x2)} {_f(y2)}"
            elements.append(
                f'<path class="arc" d="{path}" fill="none" stroke="{_COL_ARC}"'
                f' stroke-width="{_f(stroke)}" stroke-dasharray="{_f(4.0 * stroke)} {_f(3.0 * stroke)}"/>'
            )
    for key, (i_name, j_name) in LINE_POINT_NAMES.items():
        carried = [points[name] for name in LINE_VERTEX_NAMES[key]]
        lo, hi = _carrier_segment(points[i_name], points[j_name], carried)
        elements.append(_line_element(lo, hi, "construction-line", _COL_CONSTRUCTION, stroke))
    inner = cfg.inner.vertices
    outer = cfg.outer.vertices
    for i in range(3):
        elements.append(
            _line_element(inner[i], inner[(i + 1) % 3], "edge-inner", _COL_INNER, 1.5 * stroke)
        )
    for i in range(3):
        elements.append(
            _line_element(outer[i], outer[(i + 1) % 3], "edge-outer", _COL_OUTER, 1.5 * stroke)
        )
    for p in cfg.arc_points:
        elements.append(_circle_element(p, radius, "point-ij", _COL_CONSTRUCTION))
    for p in inner:
        elements.append(_circle_element(p, radius, "point-vertex", _COL_INNER))
    for p in outer:
        elements.append(_circle_element(p, radius, "point-vertex", _COL_OUTER))
    if style.show_labels:
        positions = _label_positions(points, 2.4 * radius)
        for name in points:
            elements.append(_text_element(positions[name], name, font))
    return _svg((min_x, min_y, width, height), elements)


def _render_trisection(scene: TrisectionScene, style: RenderStyle) -> str:
    outer = scene.outer
    inner = scene.morley
    names = list(outer.labels) + list(inner.labels)
    points = dict(zip(names, list(outer.vertices) + list(inner.vertices)))

    min_x, min_y, width, height, extent = _bbox(list(points.values()))
    stroke = style.stroke_width * extent
    radius = style.point_radius * extent
    font = style.label_font_size * extent

    corners = " ".join(f"{_f(x)},{_f(y)}" for x, y in map(_flip, inner.vertices))
    elements = [
        f'<polygon class="morley-fill" points="{corners}" fill="{_COL_FILL}" fill-opacity="0.45"/>'
    ]
    for p, q in scene.trisector_segments():
        elements.append(_line_element(p, q, "trisector", _COL_CONSTRUCTION, stroke))
    for i in range(3):
        elements.append(
            _line_element(outer.vertices[i], outer.vertices[(i + 1) % 3], "edge-outer", _COL_OUTER, 1.5 * stroke)
        )
    for i in range(3):
        elements.append(
            _line_element(inner.vertices[i], inner.vertices[(i + 1) % 3], "edge-inner", _COL_INNER, 1.5 * stroke)
        )
    for label in outer.labels:
        elements.append(_circle_element(points[label], radius, "point-vertex", _COL_OUTER))
    for label in inner.labels:
        elements.append(_circle_element(points[label], radius, "point-vertex", _COL_INNER))
    if style.show_labels:
        positions = _label_positions(points, 2.4 * radius)
        for name in points:
            elements.append(_text_element(positions[name], name, font))
    return _svg((min_x, min_y, width, height), elements)


def render_svg(scene: MorleyConfiguration | TrisectionScene, style: RenderStyle | None = None) -> str:
    """Render a scene to a complete, self-contained SVG string."""
    if style is None:
        style = RenderStyle()
    if isinstance(scene, MorleyConfiguration):
        return _render_config(scene, style)
    if isinstance(scene, TrisectionScene):
        return _render_trisection(scene, style)
    raise TypeError(f"cannot render {type(scene).__name__}")
