import json
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

import morley.verify
from morley.document import summary_document
from morley.forward import apply_similarity, morley_triangle, side_spread
from morley.inverse import AngleTriple, construct, equilateral_triangle
from morley.kernel import Point, Triangle
from morley.verify import (
    ANGLE_TOL,
    ISOSCELES_RTOL,
    LENGTH_RTOL,
    MIN_SAMPLE_ANGLE,
    CheckReport,
    _sample_triples,
    check,
    check_angle_identities,
    check_equilateral_forward,
    check_isosceles_arcs,
    check_limit_perpendicular,
    check_outer_angles,
    check_roundtrip,
    check_similarity_invariance,
    limit_sequence,
    polygon_interior_angles,
    random_similarity,
    random_triangle,
    run_battery,
    sample_angle_triples,
    summarize,
)

THIRD = math.pi / 3.0


def named_config(a=20.0, b=15.0, c=25.0, side=1.0):
    return construct(equilateral_triangle(side), AngleTriple.from_degrees(a, b, c))


def by_name(summary, name):
    matches = [r for r in summary.checks if r.name == name]
    assert len(matches) == 1, f"{name} not found exactly once"
    return matches[0]


class TestCheckReport:
    def test_pass_and_fail(self):
        good = check("x", 1.0, 1.0 + 1e-12, 1e-9)
        assert good.passed and good.abs_error == pytest.approx(1e-12, rel=1e-3)
        bad = check("x", 1.0, 2.0, 1e-9)
        assert not bad.passed

    def test_summarize(self):
        reports = [check("a", 0.0, 0.0, 1.0), check("b", 5.0, 0.0, 1.0)]
        summary = summarize(reports, seed=9, samples=3)
        assert not summary.all_pass
        assert summary.failures() == (reports[1],)
        assert (summary.seed, summary.samples) == (9, 3)


class TestPolygonInteriorAngles:
    def test_unit_square(self):
        square = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]
        angles = polygon_interior_angles(square)
        assert all(x == pytest.approx(math.pi / 2.0, abs=1e-12) for x in angles)

    def test_winding_independent(self):
        square = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]
        reverse = polygon_interior_angles(list(reversed(square)))
        assert all(x == pytest.approx(math.pi / 2.0, abs=1e-12) for x in reverse)

    def test_triangle_sums_to_pi(self):
        tri = [Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0)]
        assert sum(polygon_interior_angles(tri)) == pytest.approx(math.pi, abs=1e-12)

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            polygon_interior_angles([Point(0.0, 0.0), Point(1.0, 0.0)])


class TestAngleIdentities:
    def test_all_pass_on_reference_triple(self):
        summary = check_angle_identities(named_config())
        assert summary.all_pass
        assert len(summary.checks) == 15

    def test_expected_values_on_reference_triple(self):
        # For (a, b, c) = (20, 15, 25) degrees the identities give
        # concrete numbers: pi/3 - 2b is 30 degrees, 2pi/3 - b is 105,
        # and the full angle at A is 3a = 60.
        summary = check_angle_identities(named_config())
        assert by_name(summary, "angle[I_c B' J_a]").measured == pytest.approx(
            math.radians(30.0), abs=1e-9
        )
        assert by_name(summary, "angle[A J_a B']").measured == pytest.approx(
            math.radians(105.0), abs=1e-9
        )
        assert by_name(summary, "angle[A I_a C']").measured == pytest.approx(
            math.radians(95.0), abs=1e-9
        )
        assert by_name(summary, "angle[I_a A J_a]").measured == pytest.approx(
            math.radians(60.0), abs=1e-9
        )

    def test_pentagon_sums(self):
        summary = check_angle_identities(named_config())
        for report in summary.checks:
            if report.name.startswith("pentagon["):
                assert report.expected == 3.0 * math.pi
                assert report.abs_error <= 1e-12

    def test_symmetric_triple(self):
        summary = check_angle_identities(named_config(20.0, 20.0, 20.0))
        for outer in ("A", "B", "C"):
            full = by_name(summary, f"angle[I_{outer.lower()} {outer} J_{outer.lower()}]")
            assert full.measured == pytest.approx(THIRD, abs=1e-12)

    def test_signed_mode_kicks_in_above_thirty_degrees(self):
        summary = check_angle_identities(named_config(5.0, 33.0, 22.0))
        assert summary.all_pass
        report = by_name(summary, "angle[I_c B' J_a]")
        assert report.mode == "signed"
        assert report.expected < 0.0
        others = [r for r in summary.checks if r.mode == "signed" and r.name != report.name]
        assert others == []

    def test_unsigned_mode_below_thirty_degrees(self):
        summary = check_angle_identities(named_config())
        assert all(r.mode == "unsigned" for r in summary.checks)

    def test_respects_tolerance_argument(self):
        summary = check_angle_identities(named_config(), tol=1e-16)
        assert not summary.all_pass


class TestIsoscelesArcs:
    def test_ratios_are_one(self):
        summary = check_isosceles_arcs(named_config())
        assert summary.all_pass
        for report in summary.checks:
            assert report.measured == pytest.approx(1.0, rel=1e-12)

    def test_chords_equal_inner_side(self):
        # Each placed point is exactly one inner side length from the
        # chord endpoint it extends, because it subtends the same
        # central angle as the chord itself.
        cfg = named_config(7.0, 29.0, 24.0)
        pts = cfg.named_points()
        side = cfg.inner.scale()
        for apex, i_name, j_name in (
            ("B'", "I_c", "J_a"),
            ("C'", "I_a", "J_b"),
            ("A'", "I_b", "J_c"),
        ):
            assert pts[apex].distance_to(pts[i_name]) == pytest.approx(side, rel=1e-12)
            assert pts[apex].distance_to(pts[j_name]) == pytest.approx(side, rel=1e-12)


class TestOuterAngles:
    def test_tripled_values(self):
        cfg = named_config()
        summary = check_outer_angles(cfg)
        assert summary.all_pass
        assert by_name(summary, "outer angle[A]").expected == pytest.approx(
            math.radians(60.0), abs=1e-15
        )
        assert by_name(summary, "outer angle[B]").expected == pytest.approx(
            math.radians(45.0), abs=1e-15
        )


class TestRoundtrip:
    def test_reference_triple(self):
        report = check_roundtrip(equilateral_triangle(), AngleTriple.from_degrees(20.0, 15.0, 25.0))
        assert report.name == "roundtrip"
        assert report.passed
        assert report.measured <= 1e-12

    def test_error_scales_with_figure(self):
        # The measured mismatch is relative, so two figures three
        # orders of magnitude apart in size report essentially the same
        # number; both must sit at the rounding floor, far below the
        # pass tolerance.
        angles = AngleTriple.from_degrees(20.0, 15.0, 25.0)
        small = check_roundtrip(equilateral_triangle(1.0), angles)
        large = check_roundtrip(equilateral_triangle(1000.0), angles)
        assert small.measured <= 1e-11
        assert large.measured <= 1e-11


class TestSimilarityInvariance:
    def test_identity_map_is_exact(self):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        report = check_similarity_invariance(t, morley_triangle(t), 0.0, 1.0, Point(0.0, 0.0))
        assert report.measured == 0.0

    def test_generic_map(self):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        report = check_similarity_invariance(t, morley_triangle(t), 0.7, 10.0, Point(5.0, -3.0))
        assert report.passed


class TestEquilateralForward:
    def test_random_triangle(self):
        rng = random.Random(31)
        report = check_equilateral_forward(morley_triangle(random_triangle(rng)))
        assert report.name == "forward equilateral"
        assert report.passed


class TestLimit:
    def test_probe_at_ten_to_minus_four(self):
        summary = check_limit_perpendicular(1e-4)
        assert summary.all_pass
        perp = by_name(summary, "limit[a=0.0001] perpendicular")
        assert perp.tol == pytest.approx(1e-3, abs=0.0)
        # The deviation from a right angle decays like 1.5 * a.
        assert perp.abs_error == pytest.approx(1.5e-4, rel=0.01)

    def test_collapse_distances_track_first_order_rates(self):
        summary = check_limit_perpendicular(1e-4)
        d_i = by_name(summary, "limit[a=0.0001] dist[I_a, S]")
        d_j = by_name(summary, "limit[a=0.0001] dist[J_b, S]")
        assert d_i.measured == pytest.approx(2e-4, rel=0.01)
        assert d_j.measured == pytest.approx(1e-4, rel=0.01)

    def test_probe_domain(self):
        with pytest.raises(ValueError):
            check_limit_perpendicular(0.5)
        with pytest.raises(ValueError):
            check_limit_perpendicular(1e-8)

    def test_sequence_is_monotone(self):
        # From side 1e150 up unscaled products of coordinates overflow, and
        # from 1e-200 down they underflow.
        for side in (1.0, 1e150, 1e200, 1e-200, 1e300, 1e-300):
            summary = limit_sequence(equilateral_triangle(side))
            assert summary.all_pass, side
            mono = by_name(summary, "limit monotone")
            assert mono.measured == 0.0 and mono.tol == 0.0
            assert len(summary.checks) == 10

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            limit_sequence(a_values=(1e-3,))
        with pytest.raises(ValueError):
            limit_sequence(a_values=(1e-4, 1e-3))


class TestSampling:
    def test_triples_are_valid_and_deterministic(self):
        first = sample_angle_triples(50, seed=42)
        second = sample_angle_triples(50, seed=42)
        assert first == second
        for triple in first:
            assert min(triple.as_tuple()) >= math.radians(1.0)
            assert sum(triple.as_tuple()) == pytest.approx(THIRD, abs=1e-12)

    def test_different_seeds_differ(self):
        assert sample_angle_triples(10, seed=1) != sample_angle_triples(10, seed=2)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            sample_angle_triples(0)

    def test_random_triangle_respects_minimum_angle(self):
        rng = random.Random(33)
        for _ in range(50):
            t = random_triangle(rng)
            assert t.min_interior_angle() >= math.radians(3.0)


class TestBattery:
    def test_default_battery_passes(self):
        summary = run_battery(samples=30, seed=7)
        assert summary.all_pass
        assert summary.samples == 30 and summary.seed == 7
        # 24 checks per sample plus the 10 limit probes.
        assert len(summary.checks) == 30 * 24 + 10

    def test_sample_prefixes_present(self):
        summary = run_battery(samples=3, seed=7)
        names = [r.name for r in summary.checks]
        for k in range(3):
            prefix = f"s{k:04d}/"
            assert sum(1 for n in names if n.startswith(prefix)) == 24
        assert len(set(names)) == len(names)

    def test_deterministic_report(self):
        one = run_battery(samples=10, seed=5)
        two = run_battery(samples=10, seed=5)
        assert summary_document(one) == summary_document(two)

    def test_impossible_tolerance_reports_failures(self):
        summary = run_battery(samples=3, seed=7, angle_tol=1e-17)
        assert not summary.all_pass
        assert len(summary.failures()) > 0

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            run_battery(samples=0)

    def test_trisects_each_triangle_once(self, monkeypatch):
        calls = Counter()

        def counted(name):
            fn = getattr(morley.verify, name)

            def counting(*args):
                calls[name] += 1
                return fn(*args)

            return counting

        for name in ("construct", "morley_triangle"):
            monkeypatch.setattr(morley.verify, name, counted(name))
        run_battery(samples=3, seed=7)
        # Per sample: the configuration, rebuilt once more by
        # check_roundtrip; then the three limit probes.
        assert calls["construct"] == 3 * 2 + 3
        # Per sample: the roundtrip, the random triangle, its moved copy.
        assert calls["morley_triangle"] == 3 * 3


def _reference_battery(samples, seed):
    """run_battery with every check recomputing what it needs, as before
    the battery shared each sample's trisection: the forward checks each
    trisect the random triangle, and reports are renamed with replace."""
    inner = equilateral_triangle()
    rng = random.Random(seed)
    checks = []
    for index, angles in enumerate(_sample_triples(rng, samples, MIN_SAMPLE_ANGLE)):
        prefix = f"s{index:04d}/"
        cfg = construct(inner, angles)
        batch = [
            *check_angle_identities(cfg, ANGLE_TOL).checks,
            *check_isosceles_arcs(cfg, ISOSCELES_RTOL).checks,
            *check_outer_angles(cfg, ANGLE_TOL).checks,
        ]
        rebuilt = construct(inner, angles)
        recovered = morley_triangle(rebuilt.outer)
        worst = max(u.distance_to(v) for u, v in zip(rebuilt.inner.vertices, recovered.vertices))
        batch.append(check("roundtrip", worst / inner.scale(), 0.0, LENGTH_RTOL))

        triangle = random_triangle(rng)
        batch.append(check("forward equilateral", side_spread(morley_triangle(triangle)), 0.0, LENGTH_RTOL))
        theta, scale, shift = random_similarity(rng)
        moved = apply_similarity(triangle, theta, scale, shift)
        direct = morley_triangle(moved)
        pushed = apply_similarity(morley_triangle(triangle), theta, scale, shift)
        worst = max(u.distance_to(v) for u, v in zip(direct.vertices, pushed.vertices))
        batch.append(check("similarity", worst / moved.scale(), 0.0, LENGTH_RTOL))
        checks.extend(replace(report, name=prefix + report.name) for report in batch)
    checks.extend(limit_sequence(inner).checks)
    return summarize(checks, seed, samples)


@pytest.mark.parametrize("seed", [0, 11, 2024])
def test_battery_matches_reference_sweep(seed):
    summary = run_battery(samples=20, seed=seed)
    reference = _reference_battery(20, seed)
    assert summary.checks == reference.checks
    assert summary_document(summary) == summary_document(reference)
