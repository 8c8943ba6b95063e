"""Numerical verification of the construction's angle identities.

Every check compares a measured quantity against a closed-form
expectation.  Angle checks carry an absolute tolerance in radians;
length checks are relative to a natural scale of the figure (inner side
length, or the scale of a transformed triangle), so reports are
meaningful regardless of the units of the input.

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
plain unsigned angles for every admissible triple.  A check of one
result returns a CheckReport; the others measure into rows, which a
summary folds into verdicts, building a CheckReport only when one is read.
A battery folds its samples in up to one forked process per available
CPU and merges the folds in sample order, so its verdicts and documents
are those of one process; reading its reports sweeps again in-process.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from operator import index

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

# A leading sample prefix, as run_battery puts on a check's name, else "".
_SAMPLE_PREFIX = re.compile(r"s[0-9]+/|")

# The fewest samples a battery gives each process that folds it.  Folding
# in two processes broke even at about 28 samples and won 12-22% at 64
# (run_battery and summary_document, medians of 40, Python 3.11, 2 vCPUs).
_MIN_CHUNK = 32


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
    """A batch of checks as the fold of their rows, which the verdicts read,
    and what makes the rows again: ``parts``, or, where it is None, the
    sweep run_battery(samples, seed, tol).  A row is (name, measured,
    expected, tol, mode) under its part's prefix, empty or a sample's
    ``s<digits>/``; each report passed in becomes a part of one row.
    Equality, hash, repr and copies read only what the summary keeps."""

    __slots__ = ("parts", "seed", "samples", "tol", "_fold")

    def __init__(self, checks: Iterable[CheckReport], seed: int = 0, samples: int = 1) -> None:
        self._set(tuple(map(_report_part, checks)), seed, samples)

    def _set(self, parts, seed=0, samples=1, tol=None, fold=None) -> VerificationSummary:
        for name, value in zip(self.__slots__, (parts, seed, samples, tol, fold or _fold(parts))):
            _set_field(self, name, value)
        return self

    def __reduce__(self) -> tuple:
        return _summary, (*self._values(self), self._fold)

    @property
    def count(self) -> int:
        return sum(entry[0] for entry in self._fold[0].values())

    @property
    def all_pass(self) -> bool:
        return not self._fold[1]

    def reports(self) -> Iterator[CheckReport]:
        """Each check, in report order; for a battery, each call sweeps once."""
        parts = _battery_parts(self.samples, self.seed, self.tol) if self.parts is None else self.parts
        return (_report(prefix, *row) for prefix, rows in parts for row in rows)

    def failures(self) -> tuple[CheckReport, ...]:
        return tuple(_report(prefix, *row) for prefix, row in self._fold[1])

    def families(self) -> tuple[tuple[str, int, int, CheckReport], ...]:
        """``(family, count, failed, worst)`` for each check family, in order
        of first appearance.  A family is a check's name less its sample
        prefix.  ``worst`` has the largest ``abs_error``, a failing check
        outranking every passing one and, among failing ones, a NaN error
        any number; a tie goes to the first in report order."""
        return tuple((family, count, failed, _report(prefix, *row))
                     for family, (count, failed, prefix, row, _) in self._fold[0].items())


def _summary(*fields) -> VerificationSummary:
    """The summary of (parts, seed, samples, tol, fold); without a fold, of the parts' fold."""
    return VerificationSummary.__new__(VerificationSummary)._set(*fields)


def _fold(parts: Iterable[tuple[str, Iterable[tuple]]]) -> tuple[dict, list]:
    """Each family's [count, failed, worst's prefix, worst row, its rank]
    and the failing (prefix, row) pairs of ``parts``, in order."""
    families, failing = {}, []
    for prefix, rows in parts:
        for row in rows:
            error = abs(row[1] - row[2])
            # CheckReport.passed, from the error already in hand.
            failed = not error <= row[3]
            rank = (failed, error != error, error)
            entry = families.setdefault(row[0], [0, 0, prefix, row, rank])
            entry[0] += 1
            entry[1] += failed
            if rank > entry[4]:
                entry[2:] = prefix, row, rank
            if failed:
                failing.append((prefix, row))
    return families, failing


def _merge(fold: tuple[dict, list], later: tuple[dict, list]) -> None:
    """Extend ``fold`` by ``later``, the fold of the parts after its own, as one _fold of both would."""
    for family, (count, failed, *worst) in later[0].items():
        entry = fold[0].setdefault(family, [0, 0, *worst])
        entry[0] += count
        entry[1] += failed
        if worst[2] > entry[4]:
            entry[2:] = worst
    fold[1].extend(later[1])


def _report(prefix: str, name: str, measured: float, expected: float, tol: float, mode: str) -> CheckReport:
    """A row as a CheckReport, its prefix joined to its name, its numbers floats."""
    return CheckReport(prefix + name, float(measured), float(expected), float(tol), mode)


def _report_part(report: CheckReport) -> tuple[str, tuple[tuple[str, float, float, float, str]]]:
    """A report as a part of one row: its sample prefix split off, its numbers floats as a float array makes them."""
    cut = _SAMPLE_PREFIX.match(report.name).end()
    return report.name[:cut], ((report.name[cut:], *array("d", CheckReport._values(report)[1:4]), report.mode),)


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

# Each group's six check names, made once and shared by every report:
# its identities in report order, then its isosceles pair.
_GROUP_NAMES = tuple(
    (*("angle[{1} {0} {2}]".format(*angle) for angle in (opposite, at_j, at_i)), f"pentagon[{' '.join(pentagon)}]",
     "angle[{1} {0} {2}]".format(*full), "isosceles[{0}: {1} {2}]".format(*opposite))
    for opposite, at_j, at_i, pentagon, full in _IDENTITY_GROUPS
)
_OUTER_ANGLE_NAMES = tuple(f"outer angle[{label}]" for label in OUTER_NAMES)


def check_angle_identities(cfg: MorleyConfiguration, tol: float = ANGLE_TOL) -> VerificationSummary:
    """The fifteen per-vertex angle identities of the configuration."""
    pts = cfg.named_points()
    winding = float(orientation(*cfg.inner.vertices))
    rows = []
    for (opposite, at_j, at_i, pentagon, full), names in zip(_IDENTITY_GROUPS, _GROUP_NAMES):
        vertex, p, q, param = opposite
        value = getattr(cfg.angles, param)
        expected = math.pi / 3.0 - 2.0 * value
        measured = winding * signed_angle(pts[vertex], pts[p], pts[q])
        mode = "unsigned" if value < math.pi / 6.0 else "signed"
        rows.append((names[0], measured, expected, tol, mode))

        for name, (vertex, p, q, param) in zip(names[1:3], (at_j, at_i)):
            expected = 2.0 * math.pi / 3.0 - getattr(cfg.angles, param)
            measured = angle_at(pts[vertex], pts[p], pts[q])
            rows.append((name, measured, expected, tol, "unsigned"))

        measured = math.fsum(polygon_interior_angles([pts[name] for name in pentagon]))
        rows.append((names[3], measured, 3.0 * math.pi, tol, "unsigned"))

        vertex, p, q, param = full
        expected = 3.0 * getattr(cfg.angles, param)
        measured = angle_at(pts[vertex], pts[p], pts[q])
        rows.append((names[4], measured, expected, tol, "unsigned"))
    return _summary((("", tuple(rows)),))


def check_isosceles_arcs(cfg: MorleyConfiguration) -> VerificationSummary:
    """|apex I| against |apex J| for the three chord pairs.

    The pairs are the points of each group's "opposite" identity: the two
    chords from those arc points to their shared inner vertex are equal,
    as the arc points sit symmetrically beyond the chord ends.
    """
    pts = cfg.named_points()
    rows = []
    for ((apex, i_name, j_name, _), *_), names in zip(_IDENTITY_GROUPS, _GROUP_NAMES):
        left = pts[apex].distance_to(pts[i_name])
        right = pts[apex].distance_to(pts[j_name])
        rows.append((names[5], left / right, 1.0, ISOSCELES_RTOL, "unsigned"))
    return _summary((("", tuple(rows)),))


def check_outer_angles(cfg: MorleyConfiguration, tol: float = ANGLE_TOL) -> VerificationSummary:
    """Interior angles of the constructed triangle against (3a, 3b, 3c)."""
    triples = zip(_OUTER_ANGLE_NAMES, cfg.outer.angles(), cfg.angles.as_tuple())
    rows = [(name, measured, 3.0 * angle, tol, "unsigned") for name, measured, angle in triples]
    return _summary((("", tuple(rows)),))


def check_roundtrip(inner: Triangle, angles: AngleTriple, tol: float = ANGLE_TOL) -> CheckReport:
    """Construct, trisect independently, and compare with the input.

    The configuration is built here from ``inner`` and ``angles``, not
    taken from the caller.  Measured value is the largest vertex
    mismatch between the input triangle and the Morley triangle of the
    constructed one, relative to the input's side length.
    """
    cfg = construct(inner, angles)
    recovered = morley_triangle(cfg.outer)
    worst = max(u.distance_to(v) for u, v in zip(cfg.inner.vertices, recovered.vertices))
    return CheckReport("roundtrip", worst / inner.scale(), 0.0, tol)


def check_equilateral_forward(trisected: Triangle, tol: float = ANGLE_TOL) -> CheckReport:
    """Side spread of ``trisected``, the trisector triangle
    (``morley_triangle``) of an arbitrary triangle."""
    return CheckReport("forward equilateral", side_spread(trisected), 0.0, tol)


def check_similarity_invariance(
    triangle: Triangle, trisected: Triangle, theta: float, scale: float, translation: Point, tol: float = ANGLE_TOL
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
    worst = max(u.distance_to(v) for u, v in zip(direct.vertices, pushed.vertices))
    return CheckReport("similarity", worst / moved.scale(), 0.0, tol)


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
    return _summary((("", (
        (f"{tag} perpendicular", between, math.pi / 2.0, tol, "unsigned"),
        (f"{tag} dist[I_a, S]", pts["I_a"].distance_to(s_point) / side, 0.0, tol, "unsigned"),
        (f"{tag} dist[J_b, S]", pts["J_b"].distance_to(s_point) / side, 0.0, tol, "unsigned"),
    )),))


def limit_sequence(inner: Triangle | None = None) -> VerificationSummary:
    """Small-angle probes over the decreasing LIMIT_DEFAULT_VALUES of a,
    plus a monotonicity check.

    The deviation from a right angle must not grow as a shrinks; the
    monotonicity check reports the largest increase between consecutive
    probes (zero when the deviations are non-increasing).
    """
    inner = inner or equilateral_triangle()
    # Each probe is one part, and its first row is its perpendicularity check.
    probes = [check_limit_perpendicular(a_small, inner).parts[0][1] for a_small in LIMIT_DEFAULT_VALUES]
    deviations = [abs(measured - expected) for (_, measured, expected, *_), *_ in probes]
    worst_increase = max(later - earlier for earlier, later in zip(deviations, deviations[1:]))
    monotone = ("limit monotone", max(0.0, worst_increase), 0.0, 0.0, "unsigned")
    return _summary((("", (*chain(*probes), monotone)),))


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


def _battery_parts(
    samples: int, seed: int, tol: float, start: int = 0, stop: int | None = None
) -> Iterable[tuple[str, Iterable[tuple]]]:
    """run_battery's parts: each sample's rows under its ``s<index>/`` prefix,
    then the limit probes'.  The same arguments give the same rows.  Given a
    chunk, samples ``start`` to ``stop - 1``, only theirs, and the limit
    probes' if it ends the battery; the earlier samples' draws are made and
    dropped, so each sample draws what it draws in the whole sweep."""
    inner = equilateral_triangle()
    # The battery draws only through ``uniform``, whose stream for a given
    # seed is stable across Python versions.
    rng = random.Random(seed)
    triples = _sample_triples(rng, samples)
    for _ in range(start):
        random_triangle(rng)
        random_similarity(rng)
    stop = samples if stop is None else stop
    for number in range(start, stop):
        angles = triples[number]
        cfg = construct(inner, angles)
        summaries = check_angle_identities(cfg, tol), check_isosceles_arcs(cfg), check_outer_angles(cfg, tol)
        triangle = random_triangle(rng)
        trisected = morley_triangle(triangle)
        theta, scale, shift = random_similarity(rng)
        singles = map(CheckReport._values, (
            check_roundtrip(inner, angles, tol),
            check_equilateral_forward(trisected, tol),
            check_similarity_invariance(triangle, trisected, theta, scale, shift, tol),
        ))
        yield f"s{number:04d}/", chain(*(rows for summary in summaries for _, rows in summary.parts), singles)
    if stop == samples:
        yield from limit_sequence(inner).parts


def _processes(samples: int) -> int:
    """How many processes fold a battery: one per available CPU, each given at
    least _MIN_CHUNK samples, if /proc/self/task shows one thread, else one
    (a forked child has one thread; Python 3.12 warns at a fork with more)."""
    alone = os.path.isdir("/proc/self/task") and len(os.listdir("/proc/self/task")) == 1
    return max(1, min(len(os.sched_getaffinity(0)), samples // _MIN_CHUNK)) if alone else 1


def _battery_fold(samples: int, seed: int, tol: float) -> tuple[dict, list]:
    """The fold of _battery_parts(samples, seed, tol) in _processes(samples)
    contiguous chunks: this process folds the first, and a forked child each
    other one, sent back as marshal bytes.  A chunk whose fork or child fails
    is folded here, in chunk order, so the earliest failing chunk raises.
    No child outlives the call."""
    processes = _processes(samples)
    chunks = [(samples * i // processes, samples * (i + 1) // processes) for i in range(processes)]
    children = {}  # chunk number -> (pid, the read end of its pipe), until reaped
    try:
        for number, chunk in enumerate(chunks[1:], 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # such as EAGAIN: no child, so the chunk is folded here
                os.close(read)
                os.close(write)
                continue
            if pid == 0:
                try:
                    with open(write, "wb") as pipe:
                        pipe.write(marshal.dumps(_fold(_battery_parts(samples, seed, tol, *chunk))))
                except BaseException:  # a child never returns into the caller's frames
                    os._exit(1)
                os._exit(0)
            children[number] = pid, open(read, "rb")
            os.close(write)
        fold = _fold(_battery_parts(samples, seed, tol, *chunks[0]))
        for number, chunk in enumerate(chunks[1:], 1):
            failed = number not in children
            if not failed:
                pid, pipe = children[number]
                with pipe:
                    sent = pipe.read()
                failed = os.waitpid(pid, 0)[1]
                del children[number]
            _merge(fold, _fold(_battery_parts(samples, seed, tol, *chunk)) if failed else marshal.loads(sent))
        return fold
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def run_battery(samples: int = 100, seed: int = DEFAULT_SEED, tol: float = ANGLE_TOL) -> VerificationSummary:
    """The full sweep: per-sample identity batteries plus limit probes.

    Each sample constructs a configuration from a random angle triple
    on the unit equilateral triangle and runs every per-configuration
    check; it also trisects an unrelated random triangle once and checks
    that result for equilaterality and similarity commutation.  A
    sample's 24 checks share one prefix, ``s<index>/``.  The samples are
    folded in up to one forked process per available CPU, with the
    verdicts of one process; the summary keeps the fold and these
    arguments, and each call of its ``reports()`` sweeps again, here.
    ``samples`` and ``seed`` are whole numbers.
    ``tol`` goes to every angle and length check: absolute in radians for
    the angles, relative to the figure's scale for the lengths.  The
    isosceles and limit checks keep their own tolerances.
    """
    samples, seed = index(samples), index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return _summary(None, seed, samples, tol, _battery_fold(samples, seed, tol))
