"""JSON documents for configurations, verification runs and trisections.

Emission is deterministic: fixed key order, two-space indentation and
floats printed by ``repr``, the shortest text that parses back to the
identical double.  Every document fills ``%s`` slots in fixed text: with
``indent`` set the stdlib encoder runs in pure Python, the costliest step
of a large battery and of a single figure.  So the encoder lays out
every template once, at import: each document and each record of the
report's lists; nothing is laid out by hand.  The verification report
comes in two forms: by default each check family's counts and worst
check, and every failing check; with ``full=True`` every check.
Strings go through the encoder's own ``encode_basestring_ascii`` and
numbers through its rule, so each document is byte for byte what
``json.JSONEncoder(indent=2)`` gives; tests/test_document.py pins that
against the encoder.
parse_config_document inverts config_document exactly.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii

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
from .verify import CheckReport, VerificationSummary


# Stands for a value in a skeleton document; no key or label contains it.
_SLOT = "\0"


def _layout(skeleton: object) -> str:
    """What json.JSONEncoder(indent=2) writes for skeleton, with a %s slot for each _SLOT."""
    text = json.JSONEncoder(indent=2).encode(skeleton)
    return text.replace("%", "%%").replace(encode_basestring_ascii(_SLOT), "%s") + "\n"


def _element(skeleton: dict[str, object]) -> str:
    """The _layout of skeleton as an element of a list under a top-level key:
    the lines of [[skeleton]] less the two lists' brackets."""
    return "\n".join(_layout([[skeleton]]).splitlines()[2:-2])


# Slots: the angles, x and y of each point, then each arc's center and radius.
_CONFIG_TEMPLATE = _layout(
    {
        "angles": dict.fromkeys("abc", _SLOT),
        "points": dict.fromkeys(POINT_NAMES, [_SLOT, _SLOT]),
        "arcs": {
            key: {"center": [_SLOT, _SLOT], "radius": _SLOT, "chord": list(chord)}
            for key, chord in ARC_CHORD_NAMES.items()
        },
        "lines": {key: list(names) for key, names in LINE_POINT_NAMES.items()},
        "inner": list(INNER_NAMES),
        "outer": list(OUTER_NAMES),
    }
)


def config_document(cfg: MorleyConfiguration) -> str:
    """Serialize a configuration; inverted exactly by parse_config_document."""
    values = [*cfg.angles.as_tuple()]
    for p in cfg.named_points().values():
        values += (p.x, p.y)
    for arc in cfg.circles:
        values += (arc.center.x, arc.center.y, arc.radius)
    return _CONFIG_TEMPLATE % tuple(map(_number, values))


def parse_config_document(text: str) -> MorleyConfiguration:
    """Rebuild a MorleyConfiguration from config_document output.

    Arcs and side lines follow ARC_CHORD_NAMES and LINE_POINT_NAMES; the
    document's "chord", "lines", "inner" and "outer" entries only
    describe those tables to other readers.  An integer too large for a
    float raises ValueError naming where it is.
    """
    data = json.loads(text)
    try:
        points = {name: Point(*data["points"][name]) for name in POINT_NAMES}
        arcs = data["arcs"]
        return MorleyConfiguration(
            angles=AngleTriple(*(data["angles"][key] for key in "abc")),
            inner=Triangle(*(points[name] for name in INNER_NAMES)),
            outer=Triangle(*(points[name] for name in OUTER_NAMES)),
            circles=tuple(Circle(Point(*arcs[key]["center"]), arcs[key]["radius"]) for key in ARC_CHORD_NAMES),
            arc_points=tuple(points[name] for name in ARC_POINT_NAMES),
        )
    except OverflowError:
        # json.loads keeps integers exact; float() of a huge one overflows in the geometry.
        where = _oversized_int(data, "")
        if where is None:
            raise
        raise ValueError(f"{where} is an integer too large for a float") from None


def _oversized_int(value: object, path: str) -> str | None:
    """The path, as ["key"][index]..., of the first int in decoded JSON
    that no float can hold, or None."""
    if isinstance(value, (dict, list)):
        for key in value if isinstance(value, dict) else range(len(value)):
            found = _oversized_int(value[key], f"{path}[{json.dumps(key)}]")
            if found is not None:
                return found
    elif isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return path
    return None


# Slots: x and y of each outer, then each Morley vertex, then the side spread.
_FORWARD_TEMPLATE = _layout(
    {
        "points": dict.fromkeys((*OUTER_NAMES, *INNER_NAMES), [_SLOT, _SLOT]),
        "morley": list(INNER_NAMES),
        "side_spread": _SLOT,
    }
)

# A check of the report, with the slots _record_values fills.
_CHECK = dict.fromkeys(("name", "mode", "measured", "expected", "abs_error", "tol", "pass"), _SLOT)

# The elements of the report's lists: a check, and a check family (its
# name, count and failed count, then its worst check).
_CHECK_RECORD = _element(_CHECK)
_FAMILY_RECORD = _element({"family": _SLOT, "count": _SLOT, "failed": _SLOT, "worst": _CHECK})

# Each list slot is filled by _list.
_FULL_TEMPLATE = _layout(dict.fromkeys(("seed", "samples", "all_pass", "checks"), _SLOT))
_COMPACT_TEMPLATE = _layout(
    dict.fromkeys(("seed", "samples", "all_pass", "count", "failed", "families", "failures"), _SLOT)
)


def _number(value: object) -> str:
    # The encoder's rule: float.__repr__ (so a float subclass prints as a
    # float), JavaScript names for the non-finite values, true or false for
    # a bool, int.__repr__ for another int, and its error for other types.
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        if value != value:
            return "NaN"
        return "Infinity" if value > 0.0 else "-Infinity"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _record_values(report: CheckReport) -> tuple[str, ...]:
    """The slots of _CHECK_RECORD for ``report``."""
    return (
        encode_basestring_ascii(report.name),
        encode_basestring_ascii(report.mode),
        _number(report.measured),
        _number(report.expected),
        _number(report.abs_error),
        _number(report.tol),
        "true" if report.passed else "false",
    )


def _list(records: Iterable[str]) -> str:
    """The slot text of a report list whose elements are already laid out.

    Each record is joined as it is made, and the brackets added in one
    copy, so the full report holds at most two copies of its checks."""
    body = ",\n".join(records)
    return f"[\n{body}\n  ]" if body else "[]"


def summary_document(summary: VerificationSummary, *, full: bool = False) -> str:
    """Serialize a verification run.

    By default the report holds the check and failure counts, one entry
    per check family (``VerificationSummary.families``) with its count,
    failed count and worst check, and every failing check.  With
    ``full`` it holds every check instead.
    """
    seed, samples = _number(summary.seed), _number(summary.samples)
    if full:
        checks = _list(_CHECK_RECORD % _record_values(report) for report in summary.checks)
        return _FULL_TEMPLATE % (seed, samples, "true" if summary.all_pass else "false", checks)
    families = summary.families()
    failed = sum(entry[2] for entry in families)
    # The families' counts say whether there is a failure to look for.
    failures = summary.failures() if failed else ()
    return _COMPACT_TEMPLATE % (
        seed,
        samples,
        "false" if failed else "true",
        len(summary.checks),
        failed,
        _list(
            _FAMILY_RECORD % (encode_basestring_ascii(family), count, family_failed, *_record_values(worst))
            for family, count, family_failed, worst in families
        ),
        _list(_CHECK_RECORD % _record_values(report) for report in failures),
    )


def forward_document(outer: Triangle, morley: Triangle) -> str:
    """Serialize a triangle and its trisector triangle: the vertices of
    ``outer`` as A, B, C and those of ``morley`` as A', B', C'."""
    values = [xy for p in (*outer.vertices, *morley.vertices) for xy in (p.x, p.y)]
    return _FORWARD_TEMPLATE % (*map(_number, values), _number(side_spread(morley)))
