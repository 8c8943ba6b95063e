"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line; tolerances are stated inline
and are not loosened anywhere else.
"""

import math
import random

import pytest

from morley.document import config_document, summary_document
from morley.forward import morley_triangle, side_spread
from morley.inverse import AngleTriple, construct, equilateral_triangle
from morley.kernel import (
    GeometryError,
    Point,
    angle_at,
    chord_arc_circle,
    orientation,
    rotate_about,
    signed_angle,
)
from morley.render import render_svg
from morley.verify import (
    _sample_triples,
    check_angle_identities,
    check_limit_perpendicular,
    check_similarity_invariance,
    limit_sequence,
    random_similarity,
    random_triangle,
    run_battery,
)

SWEEP_SIZE = 1000
SWEEP_SEED = 42


def report(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {description}")


@pytest.fixture(scope="module")
def sweep():
    inner = equilateral_triangle()
    triples = _sample_triples(random.Random(SWEEP_SEED), SWEEP_SIZE)
    configs = [construct(inner, angles) for angles in triples]
    return inner, triples, configs


def test_criterion_1_roundtrip(sweep):
    inner, _, configs = sweep
    side = inner.scale()
    worst = 0.0
    for cfg in configs:
        recovered = morley_triangle(cfg.outer)
        worst = max(
            worst,
            max(u.distance_to(v) for u, v in zip(inner.vertices, recovered.vertices)),
        )
    ok = worst <= 1e-9 * side
    report(1, ok, f"independent trisection recovers the input over {SWEEP_SIZE} "
                  f"sampled triples, worst vertex error {worst:.3e} <= 1e-9 * side")
    assert ok


def test_criterion_2_outer_angles(sweep):
    _, triples, configs = sweep
    worst = 0.0
    for angles, cfg in zip(triples, configs):
        for angle, value in zip(cfg.outer.angles(), angles.as_tuple()):
            worst = max(worst, abs(angle - 3.0 * value))
    ok = worst <= 1e-9
    report(2, ok, f"constructed interior angles equal (3a, 3b, 3c), worst error "
                  f"{worst:.3e} rad <= 1e-9")
    assert ok


def test_criterion_3_angle_identities(sweep):
    _, triples, configs = sweep
    sixth = math.pi / 6.0
    all_pass = True
    modes_correct = True
    unsigned_where_expected = True
    worst = 0.0
    for angles, cfg in zip(triples, configs):
        summary = check_angle_identities(cfg, tol=1e-9)
        all_pass = all_pass and summary.all_pass
        worst = max(worst, max(r.abs_error for r in summary.checks))
        for r in summary.checks:
            if r.name == "angle[I_c B' J_a]":
                modes_correct = modes_correct and (
                    (r.mode == "signed") == (angles.b >= sixth)
                )
            if r.name == "angle[I_a C' J_b]":
                modes_correct = modes_correct and (
                    (r.mode == "signed") == (angles.c >= sixth)
                )
            if r.name == "angle[I_b A' J_c]":
                modes_correct = modes_correct and (
                    (r.mode == "signed") == (angles.a >= sixth)
                )
        if angles.b < sixth and angles.c < sixth:
            group_a = (
                "angle[I_c B' J_a]",
                "angle[A J_a B']",
                "angle[A I_a C']",
                "pentagon[A I_a C' B' J_a]",
                "angle[I_a A J_a]",
            )
            for r in summary.checks:
                if r.name in group_a:
                    unsigned_where_expected = unsigned_where_expected and r.mode == "unsigned"
    ok = all_pass and modes_correct and unsigned_where_expected
    report(3, ok, f"all fifteen angle identities hold on every sweep sample, worst "
                  f"error {worst:.3e} rad <= 1e-9; plain angles where the triple "
                  f"stays below pi/6, signed-mode reports otherwise")
    assert ok


def test_criterion_4_forward_equilateral():
    rng = random.Random(SWEEP_SEED)
    worst = 0.0
    for _ in range(1000):
        triangle = random_triangle(rng)
        worst = max(worst, side_spread(morley_triangle(triangle)))
    ok = worst <= 1e-9
    report(4, ok, f"trisector triangles of 1000 random triangles are equilateral, "
                  f"worst relative side spread {worst:.3e} <= 1e-9")
    assert ok


def test_criterion_5_similarity():
    rng = random.Random(SWEEP_SEED)
    worst = 0.0
    for _ in range(100):
        triangle = random_triangle(rng)
        theta, scale, shift = random_similarity(rng)
        result = check_similarity_invariance(triangle, morley_triangle(triangle), theta, scale, shift, tol=1e-9)
        worst = max(worst, result.measured)
        if not result.passed:
            break
    ok = worst <= 1e-9
    report(5, ok, f"trisection commutes with 100 random similarity maps, worst "
                  f"relative vertex mismatch {worst:.3e} <= 1e-9")
    assert ok


def test_criterion_6_limit():
    probe = check_limit_perpendicular(1e-4)
    deviation = abs(
        probe.checks[0].measured - probe.checks[0].expected
    )
    within = deviation <= 1e-3
    sequence = limit_sequence()
    monotone = next(r for r in sequence.checks if r.name == "limit monotone")
    ok = within and probe.all_pass and sequence.all_pass and monotone.measured == 0.0
    report(6, ok, f"as one angle vanishes the side line turns perpendicular to the "
                  f"inner side: deviation {deviation:.3e} rad <= 1e-3 at a = 1e-4, "
                  f"decreasing monotonically over a = 1e-3, 1e-4, 1e-5")
    assert ok


def test_criterion_7_determinism():
    battery_one = summary_document(run_battery(samples=50, seed=SWEEP_SEED))
    battery_two = summary_document(run_battery(samples=50, seed=SWEEP_SEED))
    cfg_one = construct(equilateral_triangle(), AngleTriple.from_degrees(20.0, 15.0, 25.0))
    cfg_two = construct(equilateral_triangle(), AngleTriple.from_degrees(20.0, 15.0, 25.0))
    svg_one = render_svg(cfg_one)
    svg_two = render_svg(cfg_two)
    doc_one = config_document(cfg_one)
    doc_two = config_document(cfg_two)
    ok = (
        battery_one == battery_two
        and svg_one == svg_two
        and doc_one == doc_two
        and cfg_one == cfg_two
    )
    report(7, ok, "verification reports, configuration documents and drawings are "
                  "byte-identical across repeated runs")
    assert ok


def test_criterion_8_kernel_micro_suite():
    rng = random.Random(SWEEP_SEED)
    produced = 0
    worst_on_circle = 0.0
    worst_inscribed = 0.0
    sides_correct = True
    while produced < 10000:
        p, q, far = (Point(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(3))
        half = rng.uniform(0.05, 1.5)
        try:
            circle = chord_arc_circle(p, q, half, far)
        except GeometryError:
            continue
        produced += 1
        for end in (p, q):
            gap = abs(circle.center.distance_to(end) - circle.radius) / circle.radius
            worst_on_circle = max(worst_on_circle, gap)
        sides_correct = sides_correct and (
            orientation(p, q, circle.center) == -orientation(p, q, far)
        )
        short_way = 1.0 if signed_angle(circle.center, p, q) > 0.0 else -1.0
        span = 2.0 * math.pi - abs(signed_angle(circle.center, p, q))
        sample = rotate_about(p, circle.center, -short_way * span * rng.uniform(0.05, 0.95))
        worst_inscribed = max(worst_inscribed, abs(angle_at(sample, p, q) - half))
    ok = worst_on_circle <= 1e-12 and sides_correct and worst_inscribed <= 1e-10
    report(8, ok, f"chord arc invariants over 10000 random instances: endpoints on "
                  f"circle within {worst_on_circle:.3e} <= 1e-12 relative, center "
                  f"always opposite the far point, inscribed angle within "
                  f"{worst_inscribed:.3e} <= 1e-10 rad")
    assert ok
