"""Numerical verification of the construction's angle identities.

Every check compares a measured quantity against a closed-form
expectation and produces a CheckReport.  Angle checks carry an absolute
tolerance in radians; length checks are relative to a natural scale of
the figure (inner side length, or the scale of a transformed triangle),
so reports are meaningful regardless of the units of the input.

The identity battery covers, at each outer vertex and its two arc
points (shown here for vertex A, with the two analogous groups obtained
by cyclic permutation):

* the angle I_c B' J_a opposite the figure equals pi/3 - 2b,
* the angles A J_a B' and A I_a C' equal 2pi/3 - b and 2pi/3 - c,
* the pentagon A I_a C' B' J_a has interior angle sum 3pi,
* the full angle I_a A J_a equals 3a, which trisected gives back a.

The first of these is reported in "signed" mode when the expectation
pi/3 - 2b is not positive (b at or above pi/6): the unsigned angle
cannot equal a negative number, so the measurement orients the angle
by the inner triangle's winding instead.  All other identities hold as
plain unsigned angles for every admissible triple.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .forward import apply_similarity, morley_triangle, side_spread
from .inverse import (
    AngleTriple,
    MorleyConfiguration,
    construct,
    equilateral_triangle,
)
from .kernel import (
    DegenerateTriangle,
    Point,
    Triangle,
    angle_at,
    signed_angle,
    unit_scale,
)

DEFAULT_SEED = 42

# Default tolerances.  Angles are absolute in radians, lengths are
# relative to the figure scale.
ANGLE_TOL = 1e-9
LENGTH_RTOL = 1e-9
ISOSCELES_RTOL = 1e-12

# The perpendicularity deviation in the small-angle probe shrinks like
# 1.5 * a, so a tolerance of 10 * a passes with a wide margin while
# still certifying the first-order rate.
LIMIT_TOL_FACTOR = 10.0
LIMIT_DEFAULT_VALUES = (1e-3, 1e-4, 1e-5)

# Sampled triples keep every angle at least one degree away from zero.
MIN_SAMPLE_ANGLE = math.radians(1.0)


@dataclass(frozen=True, slots=True)
class CheckReport:
    """One named measurement compared against its expected value."""

    name: str
    measured: float
    expected: float
    tol: float
    passed: bool
    mode: str = "unsigned"

    @property
    def abs_error(self) -> float:
        return abs(self.measured - self.expected)


def check(name: str, measured: float, expected: float, tol: float, mode: str = "unsigned") -> CheckReport:
    passed = abs(measured - expected) <= tol
    return CheckReport(name, measured, expected, tol, passed, mode)


@dataclass(frozen=True, slots=True)
class VerificationSummary:
    """A batch of check reports with the sweep parameters that made it."""

    checks: tuple[CheckReport, ...]
    seed: int
    samples: int
    all_pass: bool

    def failures(self) -> tuple[CheckReport, ...]:
        return tuple(c for c in self.checks if not c.passed)


def summarize(checks: Iterable[CheckReport], seed: int = 0, samples: int = 1) -> VerificationSummary:
    batch = tuple(checks)
    return VerificationSummary(batch, seed, samples, all(c.passed for c in batch))


def polygon_interior_angles(points: Sequence[Point]) -> list[float]:
    """Interior angles of a simple polygon, winding direction aware.

    The exterior turn at each vertex is signed; the polygon's overall
    winding decides which side counts as interior, so the result is
    independent of whether the vertices run clockwise or not.
    """
    n = len(points)
    if n < 3:
        raise ValueError(f"polygon needs at least three vertices, got {n}")
    turns = []
    for i in range(n):
        d0 = points[i] - points[i - 1]
        d1 = points[(i + 1) % n] - points[i]
        turns.append(math.atan2(d0.cross(d1), d0.dot(d1)))
    winding = 1.0 if sum(turns) > 0.0 else -1.0
    return [math.pi - winding * t for t in turns]


# Identity table.  Each group is tied to one outer vertex; entries name
# points from MorleyConfiguration.named_points() and angles by field.
# Within a group: "opposite" is the signed-capable identity at the far
# inner vertex, "at_j"/"at_i" sit at the arc points, "pentagon" lists
# the cycle whose interior angles sum to 3*pi, and "full" is the angle
# at the outer vertex spanning both of its arc points.
_IDENTITY_GROUPS = (
    {
        "opposite": ("B'", "I_c", "J_a", "b"),
        "at_j": ("J_a", "A", "B'", "b"),
        "at_i": ("I_a", "A", "C'", "c"),
        "pentagon": ("A", "I_a", "C'", "B'", "J_a"),
        "full": ("A", "I_a", "J_a", "a"),
    },
    {
        "opposite": ("C'", "I_a", "J_b", "c"),
        "at_j": ("J_b", "B", "C'", "c"),
        "at_i": ("I_b", "B", "A'", "a"),
        "pentagon": ("B", "I_b", "A'", "C'", "J_b"),
        "full": ("B", "I_b", "J_b", "b"),
    },
    {
        "opposite": ("A'", "I_b", "J_c", "a"),
        "at_j": ("J_c", "C", "A'", "a"),
        "at_i": ("I_c", "C", "B'", "b"),
        "pentagon": ("C", "I_c", "B'", "A'", "J_c"),
        "full": ("C", "I_c", "J_c", "c"),
    },
)


def _angle_name(vertex: str, p: str, q: str) -> str:
    return f"angle[{p} {vertex} {q}]"


def check_angle_identities(cfg: MorleyConfiguration, tol: float = ANGLE_TOL) -> VerificationSummary:
    """The fifteen per-vertex angle identities of the configuration."""
    pts = cfg.named_points()
    winding = float(cfg.inner.orientation_sign)
    checks: list[CheckReport] = []
    for group in _IDENTITY_GROUPS:
        vertex, p, q, param = group["opposite"]
        value = getattr(cfg.angles, param)
        expected = math.pi / 3.0 - 2.0 * value
        measured = winding * signed_angle(pts[vertex], pts[p], pts[q])
        mode = "unsigned" if value < math.pi / 6.0 else "signed"
        checks.append(check(_angle_name(vertex, p, q), measured, expected, tol, mode))

        for key in ("at_j", "at_i"):
            vertex, p, q, param = group[key]
            expected = 2.0 * math.pi / 3.0 - getattr(cfg.angles, param)
            measured = angle_at(pts[vertex], pts[p], pts[q])
            checks.append(check(_angle_name(vertex, p, q), measured, expected, tol))

        cycle = group["pentagon"]
        measured = sum(polygon_interior_angles([pts[name] for name in cycle]))
        checks.append(check(f"pentagon[{' '.join(cycle)}]", measured, 3.0 * math.pi, tol))

        vertex, p, q, param = group["full"]
        expected = 3.0 * getattr(cfg.angles, param)
        measured = angle_at(pts[vertex], pts[p], pts[q])
        checks.append(check(_angle_name(vertex, p, q), measured, expected, tol))
    return summarize(checks)


# The two chords from each arc's points to their shared inner vertex
# are equal: the arc points sit symmetrically beyond the chord ends.
_ISOSCELES_TRIPLES = (
    ("B'", "I_c", "J_a"),
    ("C'", "I_a", "J_b"),
    ("A'", "I_b", "J_c"),
)


def check_isosceles_arcs(cfg: MorleyConfiguration, rtol: float = ISOSCELES_RTOL) -> VerificationSummary:
    """|apex I| against |apex J| for the three chord pairs."""
    pts = cfg.named_points()
    checks = []
    for apex, i_name, j_name in _ISOSCELES_TRIPLES:
        left = pts[apex].distance_to(pts[i_name])
        right = pts[apex].distance_to(pts[j_name])
        ratio = left / right
        checks.append(check(f"isosceles[{apex}: {i_name} {j_name}]", ratio, 1.0, rtol))
    return summarize(checks)


def check_outer_angles(cfg: MorleyConfiguration, tol: float = ANGLE_TOL) -> VerificationSummary:
    """Interior angles of the constructed triangle against (3a, 3b, 3c)."""
    triples = zip((1, 2, 3), ("A", "B", "C"), cfg.angles.as_tuple())
    checks = []
    for index, label, angle in triples:
        measured = cfg.outer.interior_angle(index)
        checks.append(check(f"outer angle[{label}]", measured, 3.0 * angle, tol))
    return summarize(checks)


def check_roundtrip(inner: Triangle, angles: AngleTriple, rtol: float = LENGTH_RTOL) -> CheckReport:
    """Construct, trisect independently, and compare with the input.

    The configuration is built here from ``inner`` and ``angles``, not
    taken from the caller.  Measured value is the largest vertex
    mismatch between the input triangle and the Morley triangle of the
    constructed one, relative to the input's side length.
    """
    cfg = construct(inner, angles)
    recovered = morley_triangle(cfg.outer)
    scale = inner.scale()
    worst = max(
        u.distance_to(v)
        for u, v in zip(cfg.inner.vertices, recovered.vertices)
    )
    return check("roundtrip", worst / scale, 0.0, rtol)


def check_equilateral_forward(trisected: Triangle, rtol: float = LENGTH_RTOL) -> CheckReport:
    """Side spread of ``trisected``, the trisector triangle
    (``morley_triangle``) of an arbitrary triangle."""
    spread = side_spread(trisected)
    return check("forward equilateral", spread, 0.0, rtol)


def check_similarity_invariance(
    triangle: Triangle,
    trisected: Triangle,
    theta: float,
    scale: float,
    translation: Point,
    rtol: float = LENGTH_RTOL,
) -> CheckReport:
    """Trisecting commutes with rotating, scaling and translating.

    ``trisected`` is ``morley_triangle(triangle)``; the check trisects
    only the transformed triangle.  Measured value is the largest vertex
    distance between "transform then trisect" and "trisect then
    transform", relative to the transformed triangle's side length.
    """
    moved = apply_similarity(triangle, theta, scale, translation)
    direct = morley_triangle(moved)
    pushed = apply_similarity(trisected, theta, scale, translation)
    ref = moved.scale()
    worst = max(u.distance_to(v) for u, v in zip(direct.vertices, pushed.vertices))
    return check("similarity", worst / ref, 0.0, rtol)


def _limit_checks(a_small: float, inner: Triangle, tol: float | None) -> tuple[list[CheckReport], float]:
    """Checks for one small-angle probe; returns them and the deviation."""
    if not 1e-6 <= a_small <= 1e-2:
        raise ValueError(f"small angle must lie in [1e-6, 1e-2], got {a_small}")
    if tol is None:
        tol = LIMIT_TOL_FACTOR * a_small
    rest = (math.pi / 3.0 - a_small) / 2.0
    cfg = construct(inner, AngleTriple(a_small, rest, rest))
    pts = cfg.named_points()
    side = cfg.inner.scale()

    # As a -> 0 the line (I_a J_b) turns perpendicular to (C' B'), and
    # both points collapse onto S, the reflection of B' through C'.
    # Both directions are brought to unit scale so that their products
    # neither overflow nor underflow at any side length.
    k = unit_scale(side)
    u = (pts["J_b"] - pts["I_a"]) * k
    v = (pts["B'"] - pts["C'"]) * k
    between = math.atan2(abs(u.cross(v)), abs(u.dot(v)))
    s_point = pts["C'"] + (pts["C'"] - pts["B'"])
    tag = f"limit[a={a_small:g}]"
    checks = [
        check(f"{tag} perpendicular", between, math.pi / 2.0, tol),
        check(f"{tag} dist[I_a, S]", pts["I_a"].distance_to(s_point) / side, 0.0, tol),
        check(f"{tag} dist[J_b, S]", pts["J_b"].distance_to(s_point) / side, 0.0, tol),
    ]
    return checks, abs(between - math.pi / 2.0)


def check_limit_perpendicular(a_small: float, inner: Triangle | None = None, tol: float | None = None) -> VerificationSummary:
    """Small-angle probe at a single value of a (with b = c)."""
    if inner is None:
        inner = equilateral_triangle()
    checks, _ = _limit_checks(a_small, inner, tol)
    return summarize(checks)


def limit_sequence(inner: Triangle | None = None, a_values: Sequence[float] = LIMIT_DEFAULT_VALUES) -> VerificationSummary:
    """Small-angle probes over decreasing a, plus a monotonicity check.

    The deviation from a right angle must not grow as a shrinks; the
    monotonicity check reports the largest increase between consecutive
    probes (zero when the deviations are non-increasing).
    """
    if len(a_values) < 2:
        raise ValueError("need at least two probe values")
    if any(x <= y for x, y in zip(a_values, a_values[1:])):
        raise ValueError(f"probe values must be strictly decreasing, got {a_values}")
    if inner is None:
        inner = equilateral_triangle()
    checks: list[CheckReport] = []
    deviations: list[float] = []
    for a_small in a_values:
        batch, deviation = _limit_checks(a_small, inner, None)
        checks.extend(batch)
        deviations.append(deviation)
    worst_increase = max(
        later - earlier for earlier, later in zip(deviations, deviations[1:])
    )
    checks.append(check("limit monotone", max(0.0, worst_increase), 0.0, 0.0))
    return summarize(checks)


def sample_angle_triples(n: int, seed: int = DEFAULT_SEED, min_angle: float = MIN_SAMPLE_ANGLE) -> tuple[AngleTriple, ...]:
    """n angle triples drawn uniformly from the admissible simplex."""
    return _sample_triples(_seeded(seed), n, min_angle)


def _seeded(seed: int) -> random.Random:
    """The battery's generator; it draws only through ``uniform``, whose
    stream for a given seed is stable across Python versions."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return random.Random(seed)


def _sample_triples(rng: random.Random, n: int, min_angle: float) -> tuple[AngleTriple, ...]:
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    third = math.pi / 3.0
    out: list[AngleTriple] = []
    while len(out) < n:
        a = rng.uniform(min_angle, third)
        b = rng.uniform(min_angle, third)
        c = third - a - b
        if c >= min_angle:
            out.append(AngleTriple(a, b, c))
    return tuple(out)


def random_triangle(rng: random.Random, box: float = 10.0, min_angle: float = math.radians(3.0)) -> Triangle:
    """Uniform vertices in a square, rejecting thin triangles.

    Draws x then y of each vertex with ``rng.uniform``.
    """
    while True:
        try:
            candidate = Triangle(*(Point(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in range(3)))
        except DegenerateTriangle:
            continue
        if candidate.min_interior_angle() >= min_angle:
            return candidate


def random_similarity(rng: random.Random) -> tuple[float, float, Point]:
    """Rotation angle, scale factor and translation for a random map,
    drawn in that order with ``rng.uniform``."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    scale = rng.uniform(0.1, 10.0)
    shift = Point(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
    return theta, scale, shift


def _prefixed(report: CheckReport, prefix: str) -> CheckReport:
    return CheckReport(prefix + report.name, report.measured, report.expected, report.tol, report.passed, report.mode)


def run_battery(
    samples: int = 100,
    seed: int = DEFAULT_SEED,
    angle_tol: float = ANGLE_TOL,
    length_rtol: float = LENGTH_RTOL,
    isosceles_rtol: float = ISOSCELES_RTOL,
    side: float = 1.0,
) -> VerificationSummary:
    """The full sweep: per-sample identity batteries plus limit probes.

    Each sample constructs a configuration from a random angle triple
    on the unit equilateral triangle and runs every per-configuration
    check; it also trisects an unrelated random triangle once and checks
    that result for equilaterality and similarity commutation.  Check
    names are prefixed with the sample index.
    """
    inner = equilateral_triangle(side)
    rng = _seeded(seed)
    triples = _sample_triples(rng, samples, MIN_SAMPLE_ANGLE)
    checks: list[CheckReport] = []
    for index, angles in enumerate(triples):
        prefix = f"s{index:04d}/"
        cfg = construct(inner, angles)
        for summary in (
            check_angle_identities(cfg, angle_tol),
            check_isosceles_arcs(cfg, isosceles_rtol),
            check_outer_angles(cfg, angle_tol),
        ):
            checks.extend(_prefixed(report, prefix) for report in summary.checks)
        checks.append(_prefixed(check_roundtrip(inner, angles, length_rtol), prefix))

        triangle = random_triangle(rng)
        trisected = morley_triangle(triangle)
        checks.append(_prefixed(check_equilateral_forward(trisected, length_rtol), prefix))
        theta, scale, shift = random_similarity(rng)
        checks.append(
            _prefixed(check_similarity_invariance(triangle, trisected, theta, scale, shift, length_rtol), prefix)
        )
    checks.extend(limit_sequence(inner).checks)
    return summarize(checks, seed, samples)
