"""JSON documents for configurations, verification runs and trisections.

Emission is deterministic: fixed key order, two-space indentation and
floats printed by ``repr``, the shortest text that parses back to the
identical double.  The configuration and forward documents are streamed
through the standard library encoder into one buffer.  The verification
report writes each check from one fixed record template instead: with
``indent`` set the stdlib encoder runs in pure Python, which made it the
costliest step of a large battery.  The template prints strings with the
encoder's own ``encode_basestring_ascii`` and numbers by the encoder's
rule, so its output is byte for byte what ``json.JSONEncoder(indent=2)``
gives; tests/test_document.py pins that against the encoder on arbitrary
reports.  parse_config_document inverts config_document exactly.
"""

from __future__ import annotations

import io
import json
import math
from json.encoder import encode_basestring_ascii
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


# One check of the report, laid out as json.JSONEncoder(indent=2) lays
# out an element of the "checks" list.
_CHECK_RECORD = (
    "    {\n"
    '      "name": %s,\n'
    '      "mode": %s,\n'
    '      "measured": %s,\n'
    '      "expected": %s,\n'
    '      "abs_error": %s,\n'
    '      "tol": %s,\n'
    '      "pass": %s\n'
    "    }"
)


def _number(value: float) -> str:
    # The encoder's rule: float.__repr__ (so a float subclass prints as a
    # float), JavaScript names for the non-finite values, int.__repr__ for
    # an int.
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    return int.__repr__(value)


def summary_document(summary: VerificationSummary) -> str:
    """Serialize a verification run, one entry per check."""
    out = io.StringIO()
    out.write(
        '{\n  "seed": %s,\n  "samples": %s,\n  "all_pass": %s,\n  "checks": '
        % (_number(summary.seed), _number(summary.samples), "true" if summary.all_pass else "false")
    )
    records = (
        _CHECK_RECORD
        % (
            encode_basestring_ascii(report.name),
            encode_basestring_ascii(report.mode),
            _number(report.measured),
            _number(report.expected),
            _number(report.abs_error),
            _number(report.tol),
            "true" if report.passed else "false",
        )
        for report in summary.checks
    )
    first = next(records, None)
    if first is None:
        out.write("[]\n}\n")
    else:
        out.write("[\n")
        out.write(first)
        out.writelines(map(",\n".__add__, records))
        out.write("\n  ]\n}\n")
    return out.getvalue()


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
