"""Seeded inputs for the benchmark workloads.

Everything here is plain numbers and strings made with ``random.Random``
from the workload seed, so one seed always gives the same inputs.  This
module never imports ``morley``: the set-up probe imports it before
starting its clock.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

# morley.inverse.MIN_ANGLE; a test checks that the two agree.
MIN_ANGLE = 1e-6
THIRD = math.pi / 3.0

# Input sizes.  BATTERY_SAMPLES is S, the samples per run_battery call.
BATTERY_SAMPLES = 1000
FIGURE_PAIRS = 4000
DOMAIN_PAIRS = 2000
CLI_SETS = 4
CLI_VERIFY_SAMPLES = 5

# Similarity scales and inner sides of the whole domain are log-uniform
# over 10**-SCALE_DECADES .. 10**SCALE_DECADES.
SCALE_DECADES = 100.0


@dataclass(frozen=True)
class Domain:
    """Where figure requests are drawn from.

    Trisected angles are at least ``min_angle``; the small ones of the
    corner triples are log-uniform up to ``small_angle``.  No trisected
    angle lies within ``off_degenerate`` of pi/6, where the inverse
    construction degenerates (one side's end points coincide).  Inner
    sides and similarity scales are log-uniform over 10**lo .. 10**hi,
    with ``(lo, hi) = scale_decades``.
    """

    min_angle: float
    small_angle: float
    scale_decades: tuple[float, float]
    off_degenerate: float = 0.0


# The whole domain the library advertises.  The domain probe draws from
# it, and its known defects show there as failures.
FULL = Domain(MIN_ANGLE, 1e-2, (-SCALE_DECADES, SCALE_DECADES))
# The timed figures loop draws from here: trisected angles of at least
# one degree and a milliradian away from pi/6, and scales up to 10, where
# every request is expected to succeed.  Larger scales, smaller angles and
# angles closer to pi/6 fail today (README.md).
NOMINAL = Domain(math.radians(1.0), 0.1, (-SCALE_DECADES, 1.0), off_degenerate=1e-3)


def sizes() -> dict:
    """The input-size parameters, as recorded in every result file."""
    return {
        "battery_samples": BATTERY_SAMPLES,
        "figure_pairs": FIGURE_PAIRS,
        "domain_pairs": DOMAIN_PAIRS,
        "cli_sets": CLI_SETS,
        "cli_verify_samples": CLI_VERIFY_SAMPLES,
        "full_domain": asdict(FULL),
        "nominal_domain": asdict(NOMINAL),
    }


def battery_seeds(seed: int, count: int = 4) -> tuple[int, ...]:
    """run_battery seeds; calls cycle through them so that every
    report is produced again and can be compared byte for byte."""
    rng = random.Random(seed)
    return tuple(rng.randrange(2**31) for _ in range(count))


def _small_angle(rng: random.Random, domain: Domain) -> float:
    low = math.log10(domain.min_angle)
    return max(domain.min_angle, 10.0 ** rng.uniform(low, math.log10(domain.small_angle)))


def angle_triple(rng: random.Random, domain: Domain, kind: int) -> tuple[float, float, float]:
    """(a, b, c) with a + b + c = pi/3, each at least ``domain.min_angle``.

    Kind 0 is uniform on the simplex, kind 1 has one small angle,
    log-uniform down to the minimum, and kind 2 has two, which are the
    corners where the forward oracle loses accuracy.
    """
    lowest = domain.min_angle
    while True:
        if kind == 0:
            a = rng.uniform(lowest, THIRD)
            b = rng.uniform(lowest, THIRD)
        elif kind == 1:
            a = _small_angle(rng, domain)
            b = rng.uniform(lowest, THIRD - a)
        else:
            a = _small_angle(rng, domain)
            b = _small_angle(rng, domain)
        c = THIRD - a - b
        if c >= lowest and all(abs(x - THIRD / 2.0) >= domain.off_degenerate for x in (a, b, c)):
            break
    triple = [a, b, c]
    rng.shuffle(triple)
    return triple[0], triple[1], triple[2]


def _log_scales(rng: random.Random, domain: Domain, n: int) -> list[float]:
    """n log-uniform scales, one in each of n equal strata of the decades,
    in random order.  Stratifying keeps the share of large scales, where
    the forward oracle fails, the same for every seed."""
    lo, hi = domain.scale_decades
    return [10.0 ** (lo + (hi - lo) * (k + rng.random()) / n) for k in rng.sample(range(n), n)]


def triangle_with_angles(angles: tuple[float, float, float]) -> list[tuple[float, float]]:
    """Counter-clockwise vertices with interior angles ``angles``, side AB = 1."""
    alpha, beta, gamma = angles
    ac = math.sin(beta) / math.sin(gamma)
    return [(0.0, 0.0), (1.0, 0.0), (ac * math.cos(alpha), ac * math.sin(alpha))]


def similar(vertices, theta: float, scale: float, shift: tuple[float, float]):
    c, s = math.cos(theta), math.sin(theta)
    return [
        (scale * (c * x - s * y) + shift[0], scale * (s * x + c * y) + shift[1])
        for x, y in vertices
    ]


def figure_requests(seed: int, pairs: int = FIGURE_PAIRS, domain: Domain = NOMINAL) -> list[tuple]:
    """Alternating inverse and forward requests drawn from ``domain``.

    An inverse request is ``("inverse", (a, b, c), side)``.  A forward
    request is ``("forward", vertices)``: a triangle with interior angles
    three times a sampled triple, rotated, scaled log-uniformly and
    shifted by up to ten times its scale.  Each request kind cycles
    through the three kinds of angle triple, and its sides or scales are
    stratified (_log_scales).
    """
    rng = random.Random(seed)
    sides, scales = _log_scales(rng, domain, pairs), _log_scales(rng, domain, pairs)
    requests: list[tuple] = []
    for i, side, scale in zip(range(pairs), sides, scales):
        requests.append(("inverse", angle_triple(rng, domain, i % 3), side))
        a, b, c = angle_triple(rng, domain, i % 3)
        shift = (scale * rng.uniform(-10.0, 10.0), scale * rng.uniform(-10.0, 10.0))
        base = triangle_with_angles((3.0 * a, 3.0 * b, 3.0 * c))
        requests.append(("forward", similar(base, rng.uniform(0.0, 2.0 * math.pi), scale, shift)))
    return requests


def cli_argvs(seed: int, sets: int = CLI_SETS) -> list[list[str]]:
    """Rotating ``morley`` argument lists with ``{dir}`` output placeholders.

    Each set is construct, forward, verify, render; the render call reads
    the document the construct call of its set wrote.  Angles stay at
    least a degree and triangles at least ten degrees per angle, the range
    a command-line user types.
    """
    rng = random.Random(seed)
    argvs = []
    for k in range(sets):
        a = rng.uniform(1.0, 58.0)
        b = rng.uniform(1.0, 59.0 - a)
        c = 60.0 - a - b
        angles = [repr(x) for x in (a, b, c)]
        tri = triangle_with_angles(tuple(math.radians(3.0 * x) for x in _degrees_triple(rng)))
        vertices = similar(tri, rng.uniform(0.0, 2.0 * math.pi), rng.uniform(1.0, 10.0),
                           (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)))
        points = [f"--p{i + 1}={x!r},{y!r}" for i, (x, y) in enumerate(vertices)]
        argvs += [
            ["construct", "--a", angles[0], "--b", angles[1], "--c", angles[2],
             "--json", f"{{dir}}/cfg{k}.json", "--svg", f"{{dir}}/cfg{k}.svg"],
            ["forward", *points, "--json", f"{{dir}}/fwd{k}.json"],
            ["verify", "--samples", str(CLI_VERIFY_SAMPLES), "--seed", str(rng.randrange(2**31)),
             "--json", f"{{dir}}/rep{k}.json"],
            ["render", "--json", f"{{dir}}/cfg{k}.json", "--svg", f"{{dir}}/ren{k}.svg"],
        ]
    return argvs


def _degrees_triple(rng: random.Random) -> tuple[float, float, float]:
    """Trisected angles in degrees, each at least 10/3, summing to 60."""
    while True:
        a = rng.uniform(10.0 / 3.0, 60.0)
        b = rng.uniform(10.0 / 3.0, 60.0)
        if 60.0 - a - b >= 10.0 / 3.0:
            return a, b, 60.0 - a - b


def output_paths(argv: list[str]) -> list[str]:
    """The files a command writes: the values of --json (except for render,
    which reads it) and --svg."""
    flags = ("--svg",) if argv[0] == "render" else ("--json", "--svg")
    return [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg in flags]
