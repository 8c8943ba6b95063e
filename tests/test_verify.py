import copy
import errno
import gc
import json
import math
import os
import pickle
import random
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import morley.kernel
import morley.verify
from morley.document import summary_document
from morley.forward import apply_similarity, morley_triangle, side_spread
from morley.inverse import MIN_ANGLE, AngleTriple, InvalidAngles, MorleyConfiguration, construct, equilateral_triangle
from morley.kernel import Point, Triangle, cross_dot
from morley.verify import (
    ANGLE_TOL,
    CheckReport,
    VerificationSummary,
    _MIN_CHUNK,
    _processes,
    _sample_triples,
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
)

THIRD = math.pi / 3.0

_report_numbers = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-(10**6), 10**6) | st.booleans()


def named_config(a=20.0, b=15.0, c=25.0, side=1.0):
    return construct(equilateral_triangle(side), AngleTriple.from_degrees(a, b, c))


def by_name(summary, name):
    matches = [r for r in summary.reports() if r.name == name]
    assert len(matches) == 1, f"{name} not found exactly once"
    return matches[0]


class TestCheckReport:
    def test_pass_and_fail(self):
        good = CheckReport("x", 1.0, 1.0 + 1e-12, 1e-9)
        assert good.passed and good.abs_error == pytest.approx(1e-12, rel=1e-3)
        bad = CheckReport("x", 1.0, 2.0, 1e-9)
        assert not bad.passed

    def test_passed_is_not_a_field(self):
        assert CheckReport.__slots__ == ("name", "measured", "expected", "tol", "mode")
        assert "passed" not in repr(CheckReport("x", 0.0, 0.0, 1.0))

    @given(measured=_report_numbers, expected=_report_numbers, tol=_report_numbers)
    @example(measured=math.inf, expected=math.inf, tol=math.inf)
    @example(measured=math.nan, expected=0.0, tol=math.inf)
    @example(measured=3, expected=2.5, tol=1e-9)
    @example(measured=True, expected=1, tol=0)
    def test_passed_is_the_tolerance_rule(self, measured, expected, tol):
        report = CheckReport("x", measured, expected, tol)
        assert report.passed is (abs(measured - expected) <= tol)

    def test_summarize(self):
        reports = [CheckReport("a", 0.0, 0.0, 1.0), CheckReport("b", 5.0, 0.0, 1.0)]
        summary = VerificationSummary(reports, seed=9, samples=3)
        assert not summary.all_pass
        assert summary.failures() == (reports[1],)
        assert (summary.seed, summary.samples) == (9, 3)
        assert tuple(summary.reports()) == tuple(reports) and summary.count == 2

    def test_hand_built_summary_reads_floats(self):
        # A report's numbers become floats in a summary, and a report whose
        # numbers are not numbers fails when the summary is made.
        summary = VerificationSummary([CheckReport("x", 1, True, 0)])
        (report,) = summary.reports()
        assert (report.measured, report.expected, report.tol) == (1.0, 1.0, 0.0)
        assert all(type(value) is float for value in (report.measured, report.expected, report.tol))
        full = summary_document(summary, full=True)
        assert '"measured": 1.0,' in full and '"expected": 1.0,' in full and '"tol": 0.0,' in full
        with pytest.raises(TypeError):
            VerificationSummary([CheckReport("x", "1", 0.0, 0.0)])

    def test_all_pass_is_derived_from_checks(self):
        passing, failing = CheckReport("a", 0.0, 0.0, 1.0), CheckReport("b", 5.0, 0.0, 1.0)
        assert VerificationSummary.__slots__ == ("parts", "seed", "samples", "tol", "_fold")
        assert VerificationSummary([passing]).all_pass is True
        assert VerificationSummary([passing, failing]).all_pass is False
        assert VerificationSummary([]).all_pass is True


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

    @pytest.mark.parametrize("k", [2.0**-1000, 2.0**1000])
    def test_pentagon_and_its_products_keep_their_bits_at_any_scale(self, k):
        # The pentagon identity's cycle at vertex A.  A power of two scales
        # coordinates exactly, and cross_dot undoes it, so the turns and
        # the products they come from must agree to the bit, including
        # where the unscaled products would overflow or underflow.
        pts = named_config().named_points()
        cycle = [pts[name] for name in ("A", "I_a", "C'", "B'", "J_a")]
        scaled = [Point(p.x * k, p.y * k) for p in cycle]
        assert polygon_interior_angles(scaled) == polygon_interior_angles(cycle)
        for p, q, r in zip(cycle, cycle[1:] + cycle[:1], cycle[2:] + cycle[:2]):
            u, v = q - p, r - q
            extent = max(abs(u.x), abs(u.y), abs(v.x), abs(v.y))
            cross, dot, unit = cross_dot(u.x, u.y, v.x, v.y, extent)
            assert cross_dot(u.x * k, u.y * k, v.x * k, v.y * k, extent * k) == (cross, dot, unit / k)


class TestAngleIdentities:
    def test_all_pass_on_reference_triple(self):
        summary = check_angle_identities(named_config())
        assert summary.all_pass
        assert summary.count == 15

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
        for report in summary.reports():
            if report.name.startswith("pentagon["):
                assert report.expected == 3.0 * math.pi
                assert report.abs_error <= 1e-12

    @pytest.mark.parametrize("side", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
    def test_all_pass_at_extreme_scales(self, side):
        # Unscaled, the pentagon turns' products overflow to NaN or
        # underflow to a wrong winding at these sides.
        summary = check_angle_identities(named_config(side=side))
        assert [r.name for r in summary.reports() if not r.passed] == []

    def test_pentagon_sums_are_correctly_rounded(self):
        # math.fsum, not the built-in sum, whose float result changed in
        # Python 3.12: the battery report must not depend on the version.
        for angles in _sample_triples(random.Random(5), 20):
            cfg = construct(equilateral_triangle(), angles)
            pts = cfg.named_points()
            pentagons = [r for r in check_angle_identities(cfg).reports() if r.name.startswith("pentagon[")]
            assert len(pentagons) == 3
            for report in pentagons:
                cycle = report.name[len("pentagon["):-1].split()
                assert report.measured == math.fsum(polygon_interior_angles([pts[n] for n in cycle]))

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
        others = [r for r in summary.reports() if r.mode == "signed" and r.name != report.name]
        assert others == []

    def test_unsigned_mode_below_thirty_degrees(self):
        summary = check_angle_identities(named_config())
        assert all(r.mode == "unsigned" for r in summary.reports())

    def test_respects_tolerance_argument(self):
        summary = check_angle_identities(named_config(), tol=1e-16)
        assert not summary.all_pass


class TestIsoscelesArcs:
    def test_ratios_are_one(self):
        summary = check_isosceles_arcs(named_config())
        assert summary.all_pass
        for report in summary.reports():
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

    def test_triple_next_to_pi_over_six(self):
        # Sample s0468 of run_battery(1000, 1838334830).
        triple = AngleTriple(0.06019650577190387, 0.46340226108747773, 0.5235987843372161)
        assert check_outer_angles(construct(equilateral_triangle(), triple)).all_pass


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
        # InvalidAngles is what the CLI maps to exit 2.
        with pytest.raises(InvalidAngles):
            check_limit_perpendicular(0.5)
        with pytest.raises(InvalidAngles):
            check_limit_perpendicular(1e-8)
        assert check_limit_perpendicular(MIN_ANGLE).count == 3

    def test_sequence_is_monotone(self):
        # From side 1e150 up unscaled products of coordinates overflow, and
        # from 1e-200 down they underflow.
        for side in (1.0, 1e150, 1e200, 1e-200, 1e300, 1e-300):
            summary = limit_sequence(equilateral_triangle(side))
            assert summary.all_pass, side
            mono = by_name(summary, "limit monotone")
            assert mono.measured == 0.0 and mono.tol == 0.0
            assert summary.count == 10


class TestSampling:
    def test_triples_are_valid_and_deterministic(self):
        first = _sample_triples(random.Random(42), 50)
        second = _sample_triples(random.Random(42), 50)
        assert first == second
        for triple in first:
            assert min(triple.as_tuple()) >= math.radians(1.0)
            assert sum(triple.as_tuple()) == pytest.approx(THIRD, abs=1e-12)

    def test_different_seeds_differ(self):
        assert _sample_triples(random.Random(1), 10) != _sample_triples(random.Random(2), 10)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            _sample_triples(random.Random(42), 0)

    def test_random_triangle_respects_minimum_angle(self):
        rng = random.Random(33)
        for _ in range(50):
            t = random_triangle(rng)
            assert min(t.angles()) >= math.radians(3.0)


def _count_calls(monkeypatch, names):
    """Wrap each of ``names`` where morley.verify binds it; the Counter
    returned counts the calls by name."""
    calls = Counter()

    def counted(name, fn):
        def counting(*args):
            calls[name] += 1
            return fn(*args)

        return counting

    for name in names:
        monkeypatch.setattr(morley.verify, name, counted(name, getattr(morley.verify, name)))
    return calls


class TestBattery:
    def test_default_battery_passes(self):
        summary = run_battery(samples=30, seed=7)
        assert summary.all_pass
        assert summary.samples == 30 and summary.seed == 7
        # 24 checks per sample plus the 10 limit probes.
        assert summary.count == 30 * 24 + 10

    def test_sample_prefixes_present(self):
        summary = run_battery(samples=3, seed=7)
        names = [r.name for r in summary.reports()]
        for k in range(3):
            prefix = f"s{k:04d}/"
            assert sum(1 for n in names if n.startswith(prefix)) == 24
        assert len(set(names)) == len(names)

    def test_families_strip_the_sample_prefix(self):
        summary = run_battery(samples=3, seed=7)
        families = summary.families()
        assert sum(count for _, count, _, _ in families) == summary.count
        for family, count, failed, worst in families[:24]:
            assert (count, failed) == (3, 0)
            assert worst.name[:6] in ("s0000/", "s0001/", "s0002/") and worst.name[6:] == family
            assert worst.abs_error == max(r.abs_error for r in summary.reports() if r.name[6:] == family)
        assert [family for family, *_ in families[24:]] == [r.name for r in [*summary.reports()][-10:]]

    def test_deterministic_report(self):
        one = run_battery(samples=10, seed=5)
        two = run_battery(samples=10, seed=5)
        assert summary_document(one, full=True) == summary_document(two, full=True)

    def test_impossible_tolerance_reports_failures(self):
        summary = run_battery(samples=3, seed=7, tol=1e-17)
        assert not summary.all_pass
        # The one tolerance reaches both the angle and the length checks.
        failed = {r.name.split("/", 1)[1] for r in summary.failures()}
        assert any(name.startswith(("angle[", "outer angle[")) for name in failed)
        assert failed & {"roundtrip", "forward equilateral", "similarity"}

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            run_battery(samples=0)
        # Whole numbers only: a float is neither rounded up nor printed.
        with pytest.raises(TypeError):
            run_battery(samples=1.5, seed=3)
        with pytest.raises(TypeError):
            run_battery(samples=2, seed=2.5)

    def test_keeps_few_bytes_per_check(self):
        # A summary keeps a fold of its checks, not the checks: each
        # family's count and worst row, and the failing rows.
        def kept(samples):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                summary = run_battery(samples, 3)
                gc.collect()
                return tracemalloc.get_traced_memory()[0] - before, summary
            finally:
                tracemalloc.stop()

        (few, _), (many, summary) = kept(20), kept(200)
        assert summary.count == 200 * 24 + 10
        assert many - few <= 4096

    def test_reads_the_checks_in_one_sweep_each(self, monkeypatch):
        # A battery keeps a fold and its arguments, not its checks: its
        # verdicts, equality, hash, repr and copies run no sweep, and each
        # list of its reports runs one.
        summary, again = run_battery(samples=2, seed=7), run_battery(samples=2, seed=7)
        calls = _count_calls(monkeypatch, ("construct",))
        assert (summary.all_pass, summary.count, len(summary.families()), summary.failures()) == (True, 58, 34, ())
        assert summary == again and hash(summary) == hash(again)
        assert repr(summary) == "VerificationSummary(parts=None, seed=7, samples=2, tol=1e-09)"
        for copied in (copy.copy(summary), pickle.loads(pickle.dumps(summary))):
            assert copied == summary and copied.families() == summary.families()
        assert not calls
        reports = list(summary.reports())
        # Per sweep: two configurations per sample, then the three limit probes.
        assert calls["construct"] == 2 * 2 + 3
        assert len(reports) == 58 and list(summary.reports()) == reports
        assert calls["construct"] == 2 * (2 * 2 + 3)

    def test_equals_by_its_arguments(self):
        # Two batteries are equal when their arguments are, and a battery
        # is not a summary built by hand of the same reports.
        summary = run_battery(samples=2, seed=7)
        assert summary != run_battery(samples=2, seed=8) and summary != run_battery(samples=2, seed=7, tol=1e-8)
        by_hand = VerificationSummary(summary.reports(), 7, 2)
        assert by_hand != summary and by_hand.families() == summary.families()
        assert by_hand == VerificationSummary(summary.reports(), 7, 2)

    def test_trisects_each_triangle_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, ("construct", "morley_triangle"))
        run_battery(samples=3, seed=7)
        # Per sample: the configuration, rebuilt once more by
        # check_roundtrip; then the three limit probes.
        assert calls["construct"] == 3 * 2 + 3
        # Per sample: the roundtrip, the random triangle, its moved copy.
        assert calls["morley_triangle"] == 3 * 3

    def test_calls_each_check_once_per_sample(self, monkeypatch):
        # The battery calls each public check by its module name, so a
        # wrapper (such as the bench tracer's) sees every sample's call.
        names = ("check_angle_identities", "check_isosceles_arcs", "check_outer_angles",
                 "check_roundtrip", "check_equilateral_forward", "check_similarity_invariance")
        calls = _count_calls(monkeypatch, names)
        run_battery(samples=3, seed=7)
        assert calls == dict.fromkeys(names, 3)

    def test_measures_each_angle_once(self, monkeypatch):
        calls = Counter()
        ray_products = morley.kernel._ray_products

        def counting(*args):
            calls["_ray_products"] += 1
            return ray_products(*args)

        monkeypatch.setattr(morley.kernel, "_ray_products", counting)
        morley_triangle(Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0)))
        assert calls["_ray_products"] == 3

    def test_builds_few_points_per_sample(self, monkeypatch):
        calls = Counter()
        init = Point.__init__

        def counting(self, x, y):
            calls["Point"] += 1
            init(self, x, y)

        monkeypatch.setattr(Point, "__init__", counting)
        run_battery(samples=3, seed=7)
        # Intermediate vectors stay floats; the limit probes' points are
        # spread over only three samples here.
        assert calls["Point"] <= 3 * 120

    def test_builds_each_report_once(self, monkeypatch):
        # The checks of several results measure into rows, and only the
        # three that return a report build one; the prefixed names are
        # never built as reports, nor the limit probes, whose deviations
        # limit_sequence reads from their rows.
        calls = Counter()
        init = CheckReport.__init__

        def counting(self, *args, **kwargs):
            calls["CheckReport"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(CheckReport, "__init__", counting)
        summary = run_battery(samples=3, seed=7)
        # 3 reports per sample; the summary holds 24 checks per sample and
        # 10 limit checks.
        assert calls["CheckReport"] == 3 * 3
        assert summary.count == 3 * 24 + 10


def _reference_battery(samples, seed, tol):
    """run_battery with every check recomputing what it needs, as before
    the battery shared each sample's trisection: the forward checks each
    trisect the random triangle, and reports are renamed into new ones,
    whose sample prefixes the summary splits off into each row's part."""
    inner = equilateral_triangle()
    rng = random.Random(seed)
    checks = []
    for index, angles in enumerate(_sample_triples(rng, samples)):
        prefix = f"s{index:04d}/"
        cfg = construct(inner, angles)
        batch = [
            *check_angle_identities(cfg, tol).reports(),
            *check_isosceles_arcs(cfg).reports(),
            *check_outer_angles(cfg, tol).reports(),
        ]
        rebuilt = construct(inner, angles)
        recovered = morley_triangle(rebuilt.outer)
        worst = max(u.distance_to(v) for u, v in zip(rebuilt.inner.vertices, recovered.vertices))
        batch.append(CheckReport("roundtrip", worst / inner.scale(), 0.0, tol))

        triangle = random_triangle(rng)
        batch.append(CheckReport("forward equilateral", side_spread(morley_triangle(triangle)), 0.0, tol))
        theta, scale, shift = random_similarity(rng)
        moved = apply_similarity(triangle, theta, scale, shift)
        direct = morley_triangle(moved)
        pushed = apply_similarity(morley_triangle(triangle), theta, scale, shift)
        worst = max(u.distance_to(v) for u, v in zip(direct.vertices, pushed.vertices))
        batch.append(CheckReport("similarity", worst / moved.scale(), 0.0, tol))
        checks.extend(
            CheckReport(prefix + r.name, r.measured, r.expected, r.tol, r.mode) for r in batch
        )
    checks.extend(limit_sequence(inner).reports())
    return VerificationSummary(checks, seed, samples)


# An impossible tolerance puts failures in every family's worst check
# and in the compact report's failures list.
@pytest.mark.parametrize(
    "seed, tol",
    [pytest.param(0, ANGLE_TOL, id="0"), pytest.param(11, ANGLE_TOL, id="11"),
     pytest.param(2024, ANGLE_TOL, id="2024"), pytest.param(11, 1e-17, id="11-1e-17")],
)
def test_battery_matches_reference_sweep(seed, tol):
    summary = run_battery(samples=20, seed=seed, tol=tol)
    reference = _reference_battery(20, seed, tol)
    assert list(summary.reports()) == list(reference.reports())
    assert summary.count == reference.count
    assert summary_document(summary, full=True) == summary_document(reference, full=True)
    # Both summaries hold each sample prefix apart from the name and
    # fold each family by the name less its prefix.
    assert summary.families() == reference.families()
    assert summary_document(summary) == summary_document(reference)


def _fold_in(monkeypatch, processes):
    """Make run_battery fold in ``processes`` processes; the list returned
    gets the pid of each child it forks."""
    pids = []
    fork = os.fork

    def forking():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(morley.verify, "_processes", lambda samples: processes)
    monkeypatch.setattr(os, "fork", forking)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raising_at(monkeypatch, seed, samples, numbers):
    """Make check_outer_angles raise a ValueError naming the sample at each
    of ``numbers`` of run_battery(samples, seed), whichever process folds it."""
    triples = _sample_triples(random.Random(seed), samples)
    bad = {triples[number]: number for number in numbers}
    check = morley.verify.check_outer_angles

    def raising(cfg, tol=ANGLE_TOL):
        if cfg.angles in bad:
            raise ValueError(f"sample {bad[cfg.angles]}")
        return check(cfg, tol)

    monkeypatch.setattr(morley.verify, "check_outer_angles", raising)


def _documents(summary):
    return summary_document(summary), summary_document(summary, full=True), summary.families(), summary.failures()


# A test that asks for several processes forks even where the test session
# has a second thread (numpy's, were a test to import it), which _processes
# itself refuses; the children only fold rows.
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
class TestForkedFold:
    @pytest.mark.parametrize("samples", [_MIN_CHUNK - 1, 2 * _MIN_CHUNK + 5])
    @pytest.mark.parametrize("tol", [ANGLE_TOL, 1e-17])
    def test_documents_match_one_process(self, monkeypatch, samples, tol):
        # At 1e-17, 18 of the 24 per-sample families fail in every sample,
        # so the failing rows' order and each family's worst row come from
        # every chunk.
        _fold_in(monkeypatch, 1)
        one = _documents(run_battery(samples, 13, tol))
        for processes in (2, 3, 4):
            pids = _fold_in(monkeypatch, processes)
            assert _documents(run_battery(samples, 13, tol)) == one
            assert len(pids) == processes - 1
            _no_child_left()
        assert bool(one[3]) is (tol == 1e-17)

    def test_a_tolerance_marshal_cannot_send_is_folded_here(self, monkeypatch):
        tol = Fraction(1, 10**9)
        _fold_in(monkeypatch, 1)
        one = _documents(run_battery(40, 5, tol))
        pids = _fold_in(monkeypatch, 2)
        assert _documents(run_battery(40, 5, tol)) == one
        assert len(pids) == 1
        _no_child_left()

    @pytest.mark.parametrize("processes, numbers", [
        (2, [25]), (2, [5, 25]), (3, [15, 30]), (3, [30, 35]), (4, [35]), (4, [3, 12, 39]),
    ])
    def test_raises_what_one_process_raises(self, monkeypatch, processes, numbers):
        _raising_at(monkeypatch, 9, 40, numbers)
        _fold_in(monkeypatch, 1)
        with pytest.raises(ValueError) as one:
            run_battery(40, 9)
        assert str(one.value) == f"sample {numbers[0]}"
        pids = _fold_in(monkeypatch, processes)
        with pytest.raises(ValueError, match=f"^sample {numbers[0]}$"):
            run_battery(40, 9)
        assert len(pids) == processes - 1
        _no_child_left()

    @pytest.mark.parametrize("processes, failing", [(2, 1), (4, 2)])
    def test_a_fork_that_fails_is_folded_here(self, monkeypatch, processes, failing):
        # The fork numbered ``failing`` raises as at EAGAIN: its chunk is
        # folded in the caller, in chunk order, and its pipe is closed.
        samples = 2 * _MIN_CHUNK + 5
        _fold_in(monkeypatch, 1)
        one = _documents(run_battery(samples, 13, 1e-17))
        pids = _fold_in(monkeypatch, processes)
        fork, forks = os.fork, []

        def failing_fork():
            forks.append(None)
            if len(forks) == failing:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        descriptors = len(os.listdir("/proc/self/fd"))
        assert _documents(run_battery(samples, 13, 1e-17)) == one
        assert len(os.listdir("/proc/self/fd")) == descriptors
        assert (len(forks), len(pids)) == (processes - 1, processes - 2)
        _no_child_left()

    def test_an_interrupt_kills_every_child(self, monkeypatch):
        # The caller folds the first chunk; at its last sample a child's
        # fold of 100 failing samples is larger than a pipe holds, so the
        # child may be blocked writing it.
        caller = os.getpid()
        triples = _sample_triples(random.Random(4), 200)
        check = morley.verify.check_outer_angles

        def interrupted(cfg, tol=ANGLE_TOL):
            if os.getpid() == caller and cfg.angles == triples[99]:
                raise KeyboardInterrupt
            return check(cfg, tol)

        monkeypatch.setattr(morley.verify, "check_outer_angles", interrupted)
        pids = _fold_in(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            run_battery(200, 4, 1e-17)
        assert len(pids) == 1
        _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="the thread count is read from /proc/self/task")
def test_the_session_has_one_thread():
    # No earlier test leaves a thread in this process (importing numpy
    # would), so the batteries of the tests fold in forked processes.
    assert _processes(2 * _MIN_CHUNK) == min(2, len(os.sched_getaffinity(0)))


def test_processes_fold_only_large_batteries_in_one_thread():
    assert _processes(1) == _processes(_MIN_CHUNK - 1) == 1
    assert 1 <= _processes(10**6) <= len(os.sched_getaffinity(0))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _processes(10**6) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _census():
    """How many of a fixed set of mutants each check family catches.

    A mutant is the configuration of one of 40 triples, each angle at
    least 0.02 rad, with one of its 9 non-core points moved by 1e-6 of
    the inner side in a seeded direction.  A family, a check name up to
    its "[", catches a mutant when one of its checks fails at the
    default tolerances."""
    rng = random.Random(8)
    inner = equilateral_triangle()
    step = 1e-6 * inner.scale()
    caught, triples = Counter(), 0
    while triples < 40:
        a, b = rng.uniform(0.02, THIRD), rng.uniform(0.02, THIRD)
        if THIRD - a - b < 0.02:
            continue
        triples += 1
        cfg = construct(inner, AngleTriple(a, b, THIRD - a - b))
        points = [*cfg.outer.vertices, *cfg.arc_points]
        for moved in range(len(points)):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            mutant = points.copy()
            mutant[moved] += Point(step * math.cos(theta), step * math.sin(theta))
            mutated = MorleyConfiguration(cfg.angles, inner, Triangle(*mutant[:3]), cfg.circles, tuple(mutant[3:]))
            summaries = check_angle_identities(mutated), check_isosceles_arcs(mutated), check_outer_angles(mutated)
            caught.update({report.name.split("[")[0] for summary in summaries for report in summary.failures()})
    return caught


@pytest.fixture(scope="module")
def census():
    return _census()


@pytest.mark.parametrize("family", [
    "angle",
    "outer angle",
    "isosceles",
    pytest.param("pentagon", marks=pytest.mark.xfail(
        strict=True,
        reason="the interior angles of a pentagon that turns once sum to 3pi, however its points move; "
        "ROADMAP item 17 replaces the family with incidence checks",
    )),
])
def test_each_family_catches_a_mutant(census, family):
    assert census[family] > 0
