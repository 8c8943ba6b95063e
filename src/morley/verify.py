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
import re
from collections.abc import Iterable, Sequence

from .forward import apply_similarity, morley_triangle, side_spread
from .inverse import (
    MIN_ANGLE,
    OUTER_NAMES,
    AngleTriple,
    InvalidAngles,
    MorleyConfiguration,
    construct,
    cyclic,
    equilateral_triangle,
)
from .kernel import (
    DegenerateTriangle,
    Point,
    Record,
    Triangle,
    _set_field,
    angle_at,
    cross_dot,
    orientation,
    signed_angle,
)

DEFAULT_SEED = 42

# Default tolerance: absolute in radians for angles, relative to the
# figure scale for lengths.  Only bench/workloads.py imports LENGTH_RTOL.
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

# A leading sample prefix, as run_battery puts on each check's name.
_SAMPLE_PREFIX = re.compile(r"s[0-9]+/")


class CheckReport(Record):
    """One named measurement; it passes when within ``tol`` of its expected value."""

    __slots__ = ("name", "measured", "expected", "tol", "mode")

    def __init__(self, name: str, measured: float, expected: float, tol: float, mode: str = "unsigned") -> None:
        _set_field(self, "name", name)
        _set_field(self, "measured", measured)
        _set_field(self, "expected", expected)
        _set_field(self, "tol", tol)
        _set_field(self, "mode", mode)

    @property
    def abs_error(self) -> float:
        return abs(self.measured - self.expected)

    @property
    def passed(self) -> bool:
        return self.abs_error <= self.tol


class VerificationSummary(Record):
    """A batch of check reports with the sweep parameters that made it."""

    __slots__ = ("checks", "seed", "samples")

    def __init__(self, checks: Iterable[CheckReport], seed: int = 0, samples: int = 1) -> None:
        _set_field(self, "checks", tuple(checks))
        _set_field(self, "seed", seed)
        _set_field(self, "samples", samples)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckReport, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def families(self) -> tuple[tuple[str, int, int, CheckReport], ...]:
        """``(family, count, failed, worst)`` for each check family, in
        order of first appearance.

        A check's family is its name less a leading ``s<digits>/`` sample
        prefix; any other name is its own family.  ``worst`` is the check
        with the largest ``abs_error``, a failing check outranking every
        passing one and, among failing ones, a NaN error the largest; a
        tie goes to the first in report order.
        """
        # family -> [count, failed, worst, its rank]; a larger rank is worse.
        seen: dict[str, list] = {}
        for report in self.checks:
            name = report.name
            prefix = _SAMPLE_PREFIX.match(name)
            family = name[prefix.end():] if prefix else name
            error = report.abs_error
            failed = not report.passed
            rank = (failed, error != error, error)
            entry = seen.setdefault(family, [0, 0, report, rank])
            entry[0] += 1
            entry[1] += failed
            if rank > entry[3]:
                entry[2:] = report, rank
        return tuple((family, count, failed, worst) for family, (count, failed, worst, _) in seen.items())


def polygon_interior_angles(points: Sequence[Point]) -> list[float]:
    """Interior angles of a simple polygon, winding direction aware.

    The exterior turn at each vertex is signed; the polygon's overall
    winding decides which side counts as interior, so the result is
    independent of whether the vertices run clockwise or not.  Each turn
    is taken from its two edges by cross_dot, at any scale.
    """
    n = len(points)
    if n < 3:
        raise ValueError(f"polygon needs at least three vertices, got {n}")
    turns = []
    for i in range(n):
        prev, here, succ = points[i - 1], points[i], points[(i + 1) % n]
        ux, uy = here.x - prev.x, here.y - prev.y
        vx, vy = succ.x - here.x, succ.y - here.y
        cross, dot, _ = cross_dot(ux, uy, vx, vy, max(abs(ux), abs(uy), abs(vx), abs(vy)))
        turns.append(math.atan2(cross, dot))
    winding = 1.0 if sum(turns) > 0.0 else -1.0
    return [math.pi - winding * t for t in turns]


# Identity table, written for vertex A; cyclic gives the groups of B and
# C.  Entries name points from MorleyConfiguration.named_points() and
# angles by field.  A group is (opposite, at_j, at_i, pentagon, full):
# "opposite" is the signed-capable identity at the far inner vertex,
# "at_j"/"at_i" sit at the arc points, "pentagon" lists the cycle whose
# interior angles sum to 3*pi, and "full" is the angle at the outer
# vertex spanning both of its arc points.
_IDENTITY_GROUPS = cyclic((
    ("B'", "I_c", "J_a", "b"),
    ("J_a", "A", "B'", "b"),
    ("I_a", "A", "C'", "c"),
    ("A", "I_a", "C'", "B'", "J_a"),
    ("A", "I_a", "J_a", "a"),
))


def _angle_name(vertex: str, p: str, q: str) -> str:
    return f"angle[{p} {vertex} {q}]"


def check_angle_identities(
    cfg: MorleyConfiguration, tol: float = ANGLE_TOL, *, prefix: str = ""
) -> VerificationSummary:
    """The fifteen per-vertex angle identities of the configuration, each
    name led by ``prefix``."""
    pts = cfg.named_points()
    winding = float(orientation(*cfg.inner.vertices))
    checks: list[CheckReport] = []
    for opposite, at_j, at_i, pentagon, full in _IDENTITY_GROUPS:
        vertex, p, q, param = opposite
        value = getattr(cfg.angles, param)
        expected = math.pi / 3.0 - 2.0 * value
        measured = winding * signed_angle(pts[vertex], pts[p], pts[q])
        mode = "unsigned" if value < math.pi / 6.0 else "signed"
        checks.append(CheckReport(prefix + _angle_name(vertex, p, q), measured, expected, tol, mode))

        for vertex, p, q, param in (at_j, at_i):
            expected = 2.0 * math.pi / 3.0 - getattr(cfg.angles, param)
            measured = angle_at(pts[vertex], pts[p], pts[q])
            checks.append(CheckReport(prefix + _angle_name(vertex, p, q), measured, expected, tol))

        measured = math.fsum(polygon_interior_angles([pts[name] for name in pentagon]))
        checks.append(CheckReport(f"{prefix}pentagon[{' '.join(pentagon)}]", measured, 3.0 * math.pi, tol))

        vertex, p, q, param = full
        expected = 3.0 * getattr(cfg.angles, param)
        measured = angle_at(pts[vertex], pts[p], pts[q])
        checks.append(CheckReport(prefix + _angle_name(vertex, p, q), measured, expected, tol))
    return VerificationSummary(checks)


def check_isosceles_arcs(cfg: MorleyConfiguration, *, prefix: str = "") -> VerificationSummary:
    """|apex I| against |apex J| for the three chord pairs.

    The pairs are the points of each group's "opposite" identity: the two
    chords from those arc points to their shared inner vertex are equal,
    as the arc points sit symmetrically beyond the chord ends.
    """
    pts = cfg.named_points()
    checks = []
    for (apex, i_name, j_name, _), *_ in _IDENTITY_GROUPS:
        left = pts[apex].distance_to(pts[i_name])
        right = pts[apex].distance_to(pts[j_name])
        ratio = left / right
        checks.append(CheckReport(f"{prefix}isosceles[{apex}: {i_name} {j_name}]", ratio, 1.0, ISOSCELES_RTOL))
    return VerificationSummary(checks)


def check_outer_angles(cfg: MorleyConfiguration, tol: float = ANGLE_TOL, *, prefix: str = "") -> VerificationSummary:
    """Interior angles of the constructed triangle against (3a, 3b, 3c)."""
    triples = zip(OUTER_NAMES, cfg.outer.angles(), cfg.angles.as_tuple())
    checks = []
    for label, measured, angle in triples:
        checks.append(CheckReport(f"{prefix}outer angle[{label}]", measured, 3.0 * angle, tol))
    return VerificationSummary(checks)


def check_roundtrip(
    inner: Triangle, angles: AngleTriple, tol: float = ANGLE_TOL, *, prefix: str = ""
) -> CheckReport:
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
    return CheckReport(prefix + "roundtrip", worst / scale, 0.0, tol)


def check_equilateral_forward(trisected: Triangle, tol: float = ANGLE_TOL, *, prefix: str = "") -> CheckReport:
    """Side spread of ``trisected``, the trisector triangle
    (``morley_triangle``) of an arbitrary triangle."""
    spread = side_spread(trisected)
    return CheckReport(prefix + "forward equilateral", spread, 0.0, tol)


def check_similarity_invariance(
    triangle: Triangle,
    trisected: Triangle,
    theta: float,
    scale: float,
    translation: Point,
    tol: float = ANGLE_TOL,
    *,
    prefix: str = "",
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
    return CheckReport(prefix + "similarity", worst / ref, 0.0, tol)


def check_limit_perpendicular(a_small: float, inner: Triangle | None = None) -> VerificationSummary:
    """Small-angle probe at a single value of a (with b = c).

    Raises InvalidAngles unless a lies in [inverse.MIN_ANGLE, 1e-2].
    """
    if not MIN_ANGLE <= a_small <= 1e-2:
        raise InvalidAngles(f"small angle must lie in [{MIN_ANGLE:g}, 1e-2], got {a_small}")
    tol = LIMIT_TOL_FACTOR * a_small
    rest = (math.pi / 3.0 - a_small) / 2.0
    cfg = construct(inner or equilateral_triangle(), AngleTriple(a_small, rest, rest))
    pts = cfg.named_points()
    side = cfg.inner.scale()

    # As a -> 0 the line (I_a J_b) turns perpendicular to (C' B'), and
    # both points collapse onto S, the reflection of B' through C'.
    # cross_dot takes both directions at the side's scale, so their
    # products neither overflow nor underflow at any side length.
    u = pts["J_b"] - pts["I_a"]
    v = pts["B'"] - pts["C'"]
    cross, dot, _ = cross_dot(u.x, u.y, v.x, v.y, side)
    between = math.atan2(abs(cross), abs(dot))
    s_point = pts["C'"] + (pts["C'"] - pts["B'"])
    tag = f"limit[a={a_small:g}]"
    return VerificationSummary((
        CheckReport(f"{tag} perpendicular", between, math.pi / 2.0, tol),
        CheckReport(f"{tag} dist[I_a, S]", pts["I_a"].distance_to(s_point) / side, 0.0, tol),
        CheckReport(f"{tag} dist[J_b, S]", pts["J_b"].distance_to(s_point) / side, 0.0, tol),
    ))


def limit_sequence(inner: Triangle | None = None) -> VerificationSummary:
    """Small-angle probes over the decreasing LIMIT_DEFAULT_VALUES of a,
    plus a monotonicity check.

    The deviation from a right angle must not grow as a shrinks; the
    monotonicity check reports the largest increase between consecutive
    probes (zero when the deviations are non-increasing).
    """
    inner = inner or equilateral_triangle()
    checks: list[CheckReport] = []
    deviations: list[float] = []
    for a_small in LIMIT_DEFAULT_VALUES:
        batch = check_limit_perpendicular(a_small, inner).checks
        checks.extend(batch)
        # The perpendicular check's abs_error, |between - pi/2|.
        deviations.append(batch[0].abs_error)
    worst_increase = max(
        later - earlier for earlier, later in zip(deviations, deviations[1:])
    )
    checks.append(CheckReport("limit monotone", max(0.0, worst_increase), 0.0, 0.0))
    return VerificationSummary(checks)


def _seeded(seed: int) -> random.Random:
    """The battery's generator; it draws only through ``uniform``, whose
    stream for a given seed is stable across Python versions."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return random.Random(seed)


def _sample_triples(rng: random.Random, n: int) -> tuple[AngleTriple, ...]:
    """n angle triples drawn uniformly from the admissible simplex, each
    angle at least MIN_SAMPLE_ANGLE."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    third = math.pi / 3.0
    out: list[AngleTriple] = []
    while len(out) < n:
        a = rng.uniform(MIN_SAMPLE_ANGLE, third)
        b = rng.uniform(MIN_SAMPLE_ANGLE, third)
        c = third - a - b
        if c >= MIN_SAMPLE_ANGLE:
            out.append(AngleTriple(a, b, c))
    return tuple(out)


def random_triangle(rng: random.Random) -> Triangle:
    """Uniform vertices in the square [-10, 10]^2, rejecting triangles
    with an interior angle below three degrees.

    Draws x then y of each vertex with ``rng.uniform``.
    """
    while True:
        try:
            candidate = Triangle(*(Point(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(3)))
        except DegenerateTriangle:
            continue
        if min(candidate.angles()) >= math.radians(3.0):
            return candidate


def random_similarity(rng: random.Random) -> tuple[float, float, Point]:
    """Rotation angle, scale factor and translation for a random map,
    drawn in that order with ``rng.uniform``."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    scale = rng.uniform(0.1, 10.0)
    shift = Point(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
    return theta, scale, shift


def run_battery(samples: int = 100, seed: int = DEFAULT_SEED, tol: float = ANGLE_TOL) -> VerificationSummary:
    """The full sweep: per-sample identity batteries plus limit probes.

    Each sample constructs a configuration from a random angle triple
    on the unit equilateral triangle and runs every per-configuration
    check; it also trisects an unrelated random triangle once and checks
    that result for equilaterality and similarity commutation.  Each
    check is named, as it is built, with the sample index as a prefix.
    ``tol`` goes to every angle and length check: absolute in radians
    for the angles, relative to the figure's scale for the lengths.  The
    isosceles and limit checks keep their own tolerances.
    """
    inner = equilateral_triangle()
    rng = _seeded(seed)
    triples = _sample_triples(rng, samples)
    checks: list[CheckReport] = []
    for index, angles in enumerate(triples):
        prefix = f"s{index:04d}/"
        cfg = construct(inner, angles)
        checks += check_angle_identities(cfg, tol, prefix=prefix).checks
        checks += check_isosceles_arcs(cfg, prefix=prefix).checks
        checks += check_outer_angles(cfg, tol, prefix=prefix).checks
        checks.append(check_roundtrip(inner, angles, tol, prefix=prefix))

        triangle = random_triangle(rng)
        trisected = morley_triangle(triangle)
        checks.append(check_equilateral_forward(trisected, tol, prefix=prefix))
        theta, scale, shift = random_similarity(rng)
        checks.append(
            check_similarity_invariance(triangle, trisected, theta, scale, shift, tol, prefix=prefix)
        )
    checks.extend(limit_sequence(inner).checks)
    return VerificationSummary(checks, seed, samples)
