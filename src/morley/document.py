"""JSON documents for configurations, verification runs and trisections.

Emission is deterministic: fixed key order, two-space indentation and
floats printed by ``repr``, the shortest text that parses back to the
identical double.  Documents are streamed through the standard library
encoder into one buffer, so a large verification report is never held
as a list of encoder chunks.  parse_config_document inverts
config_document exactly.
"""

from __future__ import annotations

import io
import json
from typing import Any

from .forward import side_spread
from .inverse import (
    ARC_CHORD_NAMES,
    ARC_POINT_NAMES,
    INNER_NAMES,
    LINE_POINT_NAMES,
    OUTER_NAMES,
    POINT_NAMES,
    AngleTriple,
    MorleyConfiguration,
)
from .kernel import Circle, Point, Triangle
from .verify import VerificationSummary


def _dump(doc: dict[str, Any]) -> str:
    # The encoder json.dump would use, with its chunks handed to the buffer
    # in one call instead of json.dump's Python-level write loop.
    out = io.StringIO()
    out.writelines(json.JSONEncoder(indent=2).iterencode(doc))
    out.write("\n")
    return out.getvalue()


def _point_pair(p: Point) -> list[float]:
    return [p.x, p.y]


def config_document(cfg: MorleyConfiguration) -> str:
    """Serialize a configuration; inverted exactly by parse_config_document."""
    doc = {
        "angles": dict(zip("abc", cfg.angles.as_tuple())),
        "points": {name: _point_pair(p) for name, p in cfg.named_points().items()},
        "arcs": {
            key: {"center": _point_pair(arc.center), "radius": arc.radius, "chord": list(chord)}
            for (key, chord), arc in zip(ARC_CHORD_NAMES.items(), cfg.circles)
        },
        "lines": {key: list(names) for key, names in LINE_POINT_NAMES.items()},
        "inner": list(INNER_NAMES),
        "outer": list(OUTER_NAMES),
    }
    return _dump(doc)


def parse_config_document(text: str) -> MorleyConfiguration:
    """Rebuild a MorleyConfiguration from config_document output.

    Arcs and side lines follow ARC_CHORD_NAMES and LINE_POINT_NAMES; the
    document's "chord", "lines", "inner" and "outer" entries only
    describe those tables to other readers.
    """
    data = json.loads(text)
    points = {name: Point(*data["points"][name]) for name in POINT_NAMES}
    arcs = data["arcs"]
    return MorleyConfiguration(
        angles=AngleTriple(*(data["angles"][key] for key in "abc")),
        inner=Triangle(*(points[name] for name in INNER_NAMES), INNER_NAMES),
        outer=Triangle(*(points[name] for name in OUTER_NAMES), OUTER_NAMES),
        circles=tuple(Circle(Point(*arcs[key]["center"]), arcs[key]["radius"]) for key in ARC_CHORD_NAMES),
        arc_points=tuple(points[name] for name in ARC_POINT_NAMES),
    )


def summary_document(summary: VerificationSummary) -> str:
    """Serialize a verification run, one entry per check."""
    doc = {
        "seed": summary.seed,
        "samples": summary.samples,
        "all_pass": summary.all_pass,
        "checks": [
            {
                "name": report.name,
                "mode": report.mode,
                "measured": report.measured,
                "expected": report.expected,
                "abs_error": report.abs_error,
                "tol": report.tol,
                "pass": report.passed,
            }
            for report in summary.checks
        ],
    }
    return _dump(doc)


def forward_document(outer: Triangle, morley: Triangle) -> str:
    """Serialize a triangle and its trisector triangle."""
    names = list(outer.labels) + list(morley.labels)
    points = list(outer.vertices) + list(morley.vertices)
    doc = {
        "points": {name: _point_pair(point) for name, point in zip(names, points)},
        "morley": list(morley.labels),
        "side_spread": side_spread(morley),
    }
    return _dump(doc)
