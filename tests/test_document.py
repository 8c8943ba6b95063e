import json
import math

import pytest

from morley.document import (
    config_document,
    forward_document,
    parse_config_document,
    summary_document,
)
from morley.forward import morley_triangle
from morley.inverse import AngleTriple, construct, equilateral_triangle
from morley.kernel import Point, Triangle
from morley.verify import run_battery


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
        data = json.loads(summary_document(summary))
        assert data["seed"] == 3
        assert data["samples"] == 2
        assert data["all_pass"] is True
        assert len(data["checks"]) == len(summary.checks)
        first = data["checks"][0]
        assert set(first) == {"name", "mode", "measured", "expected", "abs_error", "tol", "pass"}
        assert first["pass"] is True
        assert first["abs_error"] == abs(first["measured"] - first["expected"])

    def test_deterministic(self):
        one = summary_document(run_battery(samples=2, seed=3))
        two = summary_document(run_battery(samples=2, seed=3))
        assert one == two


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
