import hashlib
import json
import math

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from morley.document import (
    config_document,
    forward_document,
    parse_config_document,
    summary_document,
)
from morley.forward import morley_triangle, side_spread
from morley.inverse import (
    ARC_CHORD_NAMES,
    INNER_NAMES,
    LINE_POINT_NAMES,
    OUTER_NAMES,
    AngleTriple,
    construct,
    equilateral_triangle,
)
from morley.kernel import GeometryError, Point, Triangle
from morley.verify import CheckReport, VerificationSummary, run_battery


def configs():
    inner = equilateral_triangle()
    yield construct(inner, AngleTriple.from_degrees(20.0, 20.0, 20.0))
    yield construct(inner, AngleTriple.from_degrees(20.0, 15.0, 25.0))
    yield construct(inner, AngleTriple.from_degrees(5.0, 33.0, 22.0))
    yield construct(equilateral_triangle(250.0), AngleTriple.from_degrees(11.0, 19.5, 29.5))


class TestConfigDocument:
    def test_roundtrip_is_exact(self):
        for cfg in configs():
            assert parse_config_document(config_document(cfg)) == cfg

    def test_emission_is_deterministic(self):
        cfg = next(configs())
        assert config_document(cfg) == config_document(cfg)

    def test_is_valid_json_with_expected_shape(self):
        cfg = construct(equilateral_triangle(), AngleTriple.from_degrees(20.0, 15.0, 25.0))
        data = json.loads(config_document(cfg))
        assert set(data) == {"angles", "points", "arcs", "lines", "inner", "outer"}
        assert set(data["points"]) == {
            "A", "B", "C", "A'", "B'", "C'",
            "I_a", "J_a", "I_b", "J_b", "I_c", "J_c",
        }
        assert data["angles"]["a"] == cfg.angles.a
        assert data["arcs"]["a"]["chord"] == ["C'", "B'"]
        assert data["lines"]["AB"] == ["I_a", "J_b"]
        assert data["inner"] == ["A'", "B'", "C'"]
        assert data["outer"] == ["A", "B", "C"]

    def test_floats_are_printed_by_repr(self):
        cfg = construct(equilateral_triangle(), AngleTriple.from_degrees(20.0, 15.0, 25.0))
        text = config_document(cfg)
        assert f'"a": {cfg.angles.a!r},' in text
        assert f"{cfg.outer.v1.x!r}," in text

    def test_ends_with_newline(self):
        cfg = next(configs())
        assert config_document(cfg).endswith("}\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(json.JSONDecodeError):
            parse_config_document("not json")
        with pytest.raises(KeyError):
            parse_config_document("{}")


class TestSummaryDocument:
    def test_shape_and_fields(self):
        summary = run_battery(samples=2, seed=3)
        data = json.loads(summary_document(summary, full=True))
        assert data["seed"] == 3
        assert data["samples"] == 2
        assert data["all_pass"] is True
        assert len(data["checks"]) == len(summary.checks)
        first = data["checks"][0]
        assert set(first) == {"name", "mode", "measured", "expected", "abs_error", "tol", "pass"}
        assert first["pass"] is True
        assert first["abs_error"] == abs(first["measured"] - first["expected"])

    def test_deterministic(self):
        one = summary_document(run_battery(samples=2, seed=3), full=True)
        two = summary_document(run_battery(samples=2, seed=3), full=True)
        assert one == two


class _OwnReprFloat(float):
    """A float subclass whose repr is not JSON; the encoder ignores it."""

    def __repr__(self):
        return "OwnReprFloat()"


def _record(report):
    return {
        "name": report.name,
        "mode": report.mode,
        "measured": report.measured,
        "expected": report.expected,
        "abs_error": report.abs_error,
        "tol": report.tol,
        "pass": report.passed,
    }


def _encoder_summary(summary):
    """The full report as the stdlib encoder writes it: the emitter's oracle."""
    doc = {
        "seed": summary.seed,
        "samples": summary.samples,
        "all_pass": summary.all_pass,
        "checks": [_record(report) for report in summary.checks],
    }
    return "".join(json.JSONEncoder(indent=2).iterencode(doc)) + "\n"


def _family(name):
    """The name less a leading "s", one or more of 0-9, and "/"."""
    head, slash, rest = name.partition("/")
    sampled = slash and len(head) > 1 and head[0] == "s" and all(ch in "0123456789" for ch in head[1:])
    return rest if sampled else name


def _outranks(new, old):
    """Whether ``new`` is a worse check than ``old``: failing before
    passing, then NaN before any number, then the larger error."""
    if new.passed != old.passed:
        return old.passed
    new_nan, old_nan = math.isnan(new.abs_error), math.isnan(old.abs_error)
    if new_nan or old_nan:
        return not old_nan
    return new.abs_error > old.abs_error


def _encoder_compact(summary):
    """The default report as the stdlib encoder writes it, its families
    grouped here: the oracle of summary_document and families()."""
    families = {}
    for report in summary.checks:
        name = _family(report.name)
        if name not in families:
            families[name] = {"family": name, "count": 0, "failed": 0, "worst": report}
        entry = families[name]
        entry["count"] += 1
        if not report.passed:
            entry["failed"] += 1
        if _outranks(report, entry["worst"]):
            entry["worst"] = report
    for entry in families.values():
        entry["worst"] = _record(entry["worst"])
    failures = [_record(report) for report in summary.checks if not report.passed]
    doc = {
        "seed": summary.seed,
        "samples": summary.samples,
        "all_pass": summary.all_pass,
        "count": len(summary.checks),
        "failed": len(failures),
        "families": list(families.values()),
        "failures": failures,
    }
    return "".join(json.JSONEncoder(indent=2).iterencode(doc)) + "\n"


_names = st.text(st.characters(exclude_categories=()), max_size=12)
# Names that share families: a sample prefix, maybe malformed, on a few
# check names, some of which look like a prefix themselves.
_sampled_names = st.builds(
    "{}{}/{}".format,
    st.sampled_from(["s", "S", "s0", "s12", "s0042", "s1x", "s\u0661", "s/"]),
    st.sampled_from(["", "7"]),
    st.sampled_from(["roundtrip", "s3/similarity", "", "x/y"]) | _names,
)
_numbers = st.one_of(
    st.floats(),
    st.floats().map(_OwnReprFloat),
    st.integers(-(10**18), 10**18),
    st.booleans(),
)
_reports = st.builds(
    CheckReport,
    name=_names | _sampled_names,
    measured=_numbers,
    expected=_numbers,
    tol=_numbers,
    mode=st.sampled_from(["unsigned", "signed"]) | _names,
)


class TestSummaryMatchesStdlibEncoder:
    @given(
        reports=st.lists(_reports, max_size=6),
        seed=st.integers(0, 2**64),
        samples=st.integers(0, 10**6),
    )
    @example(reports=[], seed=0, samples=0)
    @example(
        reports=[
            CheckReport("nonfinite", math.nan, math.inf, -math.inf),
            CheckReport("extremes", -0.0, 5e-324, 1e308, "signed"),
            CheckReport("count", 3, 2.5, 1e-9),
        ],
        seed=2**40,
        samples=3,
    )
    @example(
        reports=[CheckReport('q"b\\s\x01\u00e9\ud800', 1.0, 1.0, 0.0, "\ud800")],
        seed=0,
        samples=1,
    )
    # Family x: a failing check outranks a larger passing error.  y: a NaN
    # outranks inf, and the first of two NaNs stays.  z: a tie keeps the
    # first.  "s/x", "s\u0661/x" and "s01/s2/x" are not in family x.
    @example(
        reports=[
            CheckReport("s0/x", 1.0, 0.0, 2.0),
            CheckReport("s1/x", 0.5, 0.0, 0.1),
            CheckReport("x", 0.2, 0.0, 0.1),
            CheckReport("s0/y", math.inf, 0.0, 1.0),
            CheckReport("s1/y", math.nan, 0.0, 1.0),
            CheckReport("s2/y", math.nan, 0.0, 1.0, "signed"),
            CheckReport("s0/z", 0.25, 0.0, 1.0),
            CheckReport("s1/z", 0.25, 0.0, 1.0, "signed"),
            CheckReport("s/x", 9.0, 0.0, 1.0),
            CheckReport("s\u0661/x", 9.0, 0.0, 1.0),
            CheckReport("s01/s2/x", 9.0, 0.0, 1.0),
        ],
        seed=1,
        samples=3,
    )
    # Text filled into a record is filled again into the report, so a
    # "%" in it must reach the document as written.
    @example(
        reports=[
            CheckReport("s0/%", 1.0, 0.0, 0.1, "%s"),
            CheckReport("s1/%", 0.0, 0.0, 0.1, "%%"),
            CheckReport("%(seed)s", 0.0, 0.0, 0.1, "%(seed)s"),
        ],
        seed=5,
        samples=2,
    )
    def test_bytes_equal_the_encoder(self, reports, seed, samples):
        summary = VerificationSummary(reports, seed, samples)
        assert summary_document(summary, full=True) == _encoder_summary(summary)
        assert summary_document(summary) == _encoder_compact(summary)


def _encode(doc):
    return "".join(json.JSONEncoder(indent=2).iterencode(doc)) + "\n"


def _encoder_config(cfg):
    """The configuration document as the stdlib encoder writes it."""
    return _encode(
        {
            "angles": dict(zip("abc", cfg.angles.as_tuple())),
            "points": {name: [p.x, p.y] for name, p in cfg.named_points().items()},
            "arcs": {
                key: {"center": [arc.center.x, arc.center.y], "radius": arc.radius, "chord": list(chord)}
                for (key, chord), arc in zip(ARC_CHORD_NAMES.items(), cfg.circles)
            },
            "lines": {key: list(names) for key, names in LINE_POINT_NAMES.items()},
            "inner": list(INNER_NAMES),
            "outer": list(OUTER_NAMES),
        }
    )


def _encoder_forward(outer, morley):
    """The forward document as the stdlib encoder writes it."""
    names = (*OUTER_NAMES, *INNER_NAMES)
    return _encode(
        {
            "points": {name: [p.x, p.y] for name, p in zip(names, (*outer.vertices, *morley.vertices))},
            "morley": list(INNER_NAMES),
            "side_spread": side_spread(morley),
        }
    )


@st.composite
def _configurations(draw):
    """Constructed at a log-uniform side in 1e-300..1e300."""
    side = 10.0 ** draw(st.floats(-300.0, 300.0))
    u, v = draw(st.floats(0.02, 0.98)), draw(st.floats(0.02, 0.98))
    a = u * math.pi / 3.0
    b = (1.0 - u) * v * math.pi / 3.0
    try:
        return construct(equilateral_triangle(side), AngleTriple(a, b, math.pi / 3.0 - a - b))
    except GeometryError:
        assume(False)


# Numbers json.loads can give where the document holds a radius or a
# coordinate, and that the configuration accepts there.
_parsed_numbers = st.one_of(st.just(True), st.integers(1, 10**300), st.floats(1e-300, 1e300))


class TestConfigMatchesStdlibEncoder:
    @given(cfg=_configurations())
    def test_constructed(self, cfg):
        assert config_document(cfg) == _encoder_config(cfg)

    @given(
        cfg=_configurations(),
        radius=_parsed_numbers,
        x=_parsed_numbers | st.just(False),
        angle=st.sampled_from([None, 1, True]),
    )
    def test_parsed(self, cfg, radius, x, angle):
        data = json.loads(config_document(cfg))
        data["arcs"]["b"]["radius"] = radius
        data["points"]["J_c"][0] = x
        if angle is not None:
            rest = math.pi / 3.0 - 1.0
            data["angles"] = {"a": angle, "b": rest / 2.0, "c": rest - rest / 2.0}
        try:
            parsed = parse_config_document(json.dumps(data))
        except GeometryError:
            assume(False)
        assert config_document(parsed) == _encoder_config(parsed)


@st.composite
def _triangles(draw):
    """A side of 1e-300..1e300, up to a million sides from the origin."""
    width = 10.0 ** draw(st.floats(-300.0, 300.0))
    x, y = width * draw(st.floats(-1e6, 1e6)), width * draw(st.floats(-1e6, 1e6))
    height = width * draw(st.floats(0.01, 100.0))
    lean = width * draw(st.floats(-2.0, 2.0))
    try:
        return Triangle(Point(x, y), Point(x + width, y), Point(x + lean, y + height))
    except GeometryError:
        assume(False)


class TestForwardMatchesStdlibEncoder:
    @given(outer=_triangles(), morley=_triangles())
    def test_bytes_equal_the_encoder(self, outer, morley):
        assert forward_document(outer, morley) == _encoder_forward(outer, morley)


def test_documents_run_no_encoder_per_call(monkeypatch):
    cfg = next(configs())
    t = right_triangle(1.0)
    m = morley_triangle(t)

    def refuse(*args, **kwargs):
        raise AssertionError("the encoder ran")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    config_document(cfg)
    forward_document(t, m)


class TestForwardDocument:
    def test_shape(self):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        m = morley_triangle(t)
        data = json.loads(forward_document(t, m))
        assert set(data) == {"points", "morley", "side_spread"}
        assert set(data["points"]) == {"A", "B", "C", "A'", "B'", "C'"}
        assert data["morley"] == ["A'", "B'", "C'"]
        assert data["side_spread"] <= 1e-12
        assert data["points"]["B"] == [4.0, 0.0]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def right_triangle(scale):
    return Triangle(Point(0.0, 0.0), Point(4.0 * scale, 0.0), Point(0.0, 3.0 * scale))


@pytest.fixture(scope="module")
def battery():
    return run_battery(1000, 42)


class TestGoldenBytes:
    """Documents are part of the byte contract: these digests change only
    with a deliberate change to the emitted bytes."""

    def test_battery_report(self, battery):
        digest = "2e0d704d6c2597ca25cba130e174f2e23dd01007ec311ad1f5b2b0035f527b6e"
        assert sha256(summary_document(battery, full=True)) == digest

    def test_battery_compact_report(self, battery):
        digest = "2ebe28e446573517909455f822fe148f7a5cee5ad67a6670c4598f40d2d70120"
        assert sha256(summary_document(battery)) == digest

    @pytest.mark.parametrize(
        "side, digest",
        [
            (1e-100, "001b97611bf0dc8bf8c23bbff43a70dd945fe2e91c0616ceb845168b4f0fae6f"),
            (1.0, "e778dd2b066a783846da9c5804d26938533822e68e7a5eaf699e1d9df51b9622"),
            (1e100, "35d3688428f1a03ba45d4f137a1f72a8b5ad03ef14f77db1db8a5cfbbe688546"),
        ],
    )
    def test_configuration(self, side, digest):
        cfg = construct(equilateral_triangle(side), AngleTriple.from_degrees(20.0, 15.0, 25.0))
        assert sha256(config_document(cfg)) == digest

    @pytest.mark.parametrize(
        "scale, digest",
        [
            (1e-100, "735651243b5713fcb6e0ae21deb3ce8daaff4fc09dae0ba18d776a87b619bf3e"),
            (1.0, "8ca75e54cc1547c651f13b11418f27908b04154e2cf7f5e8bb1311a1d737e250"),
            (1e12, "92125f3b6fe059d4ff35bdd428e0772ce1b5f7af8a485e7ae73371d5236471a4"),
        ],
    )
    def test_forward(self, scale, digest):
        t = right_triangle(scale)
        assert sha256(forward_document(t, morley_triangle(t))) == digest
