import json
import math

import pytest

from morley.cli import main
from morley.document import config_document, parse_config_document
from morley.inverse import AngleTriple, construct, equilateral_triangle
from morley.render import render_svg


class TestConstructCommand:
    def test_symmetric_triple(self, capsys):
        rc = main(["construct", "--a", "20", "--b", "20", "--c", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.strip() == "outer angles (deg): 60.000000, 60.000000, 60.000000"

    def test_writes_documents(self, tmp_path, capsys):
        json_path = tmp_path / "cfg.json"
        svg_path = tmp_path / "cfg.svg"
        rc = main([
            "construct", "--a", "20", "--b", "15", "--c", "25",
            "--json", str(json_path), "--svg", str(svg_path),
        ])
        assert rc == 0
        assert "60.000000, 45.000000, 75.000000" in capsys.readouterr().out
        cfg = construct(equilateral_triangle(), AngleTriple.from_degrees(20.0, 15.0, 25.0))
        assert parse_config_document(json_path.read_text()) == cfg
        assert svg_path.read_text() == render_svg(cfg)

    def test_radians_flag(self, capsys):
        third = math.pi / 9.0
        rc = main(["construct", "--radians", "--a", str(third), "--b", str(third), "--c", str(third)])
        assert rc == 0
        assert "60.000000, 60.000000, 60.000000" in capsys.readouterr().out

    def test_invalid_sum_exits_two(self, capsys):
        rc = main(["construct", "--a", "30", "--b", "30", "--c", "10"])
        assert rc == 2
        assert "sum to pi/3" in capsys.readouterr().err

    def test_degenerate_triple_exits_three(self, capsys):
        # 30 degrees is exactly pi/6: the triple is admissible but the
        # construction degenerates, which is a different failure class.
        rc = main(["construct", "--a", "30", "--b", "20", "--c", "10"])
        assert rc == 3
        assert "construction failed" in capsys.readouterr().err

    def test_missing_angle_exits_two(self, capsys):
        assert main(["construct", "--a", "20", "--b", "20"]) == 2

    def test_conflicting_units_exit_two(self, capsys):
        rc = main([
            "construct", "--degrees", "--radians",
            "--a", "20", "--b", "20", "--c", "20",
        ])
        assert rc == 2


class TestForwardCommand:
    def test_right_triangle(self, capsys, tmp_path):
        json_path = tmp_path / "fwd.json"
        rc = main([
            "forward", "--p1", "0,0", "--p2", "4,0", "--p3", "0,3",
            "--json", str(json_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "A' = (" in out and "side spread:" in out
        data = json.loads(json_path.read_text())
        assert data["side_spread"] <= 1e-12
        assert data["points"]["A'"][0] == pytest.approx(1.2336613474464739, abs=1e-12)

    def test_svg_output(self, tmp_path):
        svg_path = tmp_path / "fwd.svg"
        rc = main(["forward", "--p1", "0,0", "--p2", "4,0", "--p3", "0,3", "--svg", str(svg_path)])
        assert rc == 0
        svg = svg_path.read_text()
        assert svg.count('class="trisector"') == 6
        assert svg.count('class="morley-fill"') == 1

    def test_collinear_exits_two(self, capsys):
        rc = main(["forward", "--p1", "0,0", "--p2", "1,1", "--p3", "2,2"])
        assert rc == 2
        assert "collinear" in capsys.readouterr().err

    def test_malformed_point_exits_two(self, capsys):
        assert main(["forward", "--p1", "0;0", "--p2", "4,0", "--p3", "0,3"]) == 2


class TestVerifyCommand:
    def test_default_battery_passes(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        rc = main(["verify", "--samples", "20", "--seed", "7", "--json", str(json_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "failed: 0" in out and "seed: 7" in out
        data = json.loads(json_path.read_text())
        assert data["all_pass"] is True
        assert len(data["checks"]) == 20 * 24 + 10

    def test_reports_are_byte_identical(self, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert main(["verify", "--samples", "15", "--json", str(first)]) == 0
        assert main(["verify", "--samples", "15", "--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_impossible_tolerance_exits_one(self, capsys):
        rc = main(["verify", "--samples", "3", "--tol", "1e-17"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_zero_samples_exits_two(self, capsys):
        assert main(["verify", "--samples", "0"]) == 2

    def test_negative_seed_exits_two(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2


class TestLimitCommand:
    def test_default_sequence(self, capsys):
        rc = main(["limit"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 10
        assert "limit monotone" in out

    def test_single_probe(self, capsys):
        rc = main(["limit", "--a", "5e-4"])
        assert rc == 0
        assert capsys.readouterr().out.count("PASS") == 3

    def test_out_of_domain_exits_two(self, capsys):
        rc = main(["limit", "--a", "0.5"])
        assert rc == 2
        assert "must lie in" in capsys.readouterr().err


class TestRenderCommand:
    def test_from_document_matches_direct_render(self, tmp_path):
        doc = tmp_path / "cfg.json"
        direct = tmp_path / "direct.svg"
        via_doc = tmp_path / "via_doc.svg"
        assert main([
            "construct", "--a", "20", "--b", "15", "--c", "25",
            "--json", str(doc), "--svg", str(direct),
        ]) == 0
        assert main(["render", "--json", str(doc), "--svg", str(via_doc)]) == 0
        assert direct.read_bytes() == via_doc.read_bytes()

    def test_from_angles(self, tmp_path):
        svg_path = tmp_path / "out.svg"
        rc = main(["render", "--a", "20", "--b", "15", "--c", "25", "--svg", str(svg_path)])
        assert rc == 0
        assert svg_path.read_text().count('class="arc"') == 3

    def test_style_flags(self, tmp_path):
        svg_path = tmp_path / "out.svg"
        rc = main([
            "render", "--a", "20", "--b", "15", "--c", "25",
            "--no-arcs", "--no-labels", "--svg", str(svg_path),
        ])
        assert rc == 0
        svg = svg_path.read_text()
        assert svg.count('class="arc"') == 0
        assert svg.count('class="label"') == 0

    def test_missing_inputs_exit_two(self, capsys, tmp_path):
        rc = main(["render", "--svg", str(tmp_path / "x.svg")])
        assert rc == 2
        assert "need --json" in capsys.readouterr().err

    def test_both_inputs_exit_two(self, capsys, tmp_path):
        doc = tmp_path / "cfg.json"
        doc.write_text("{}")
        rc = main([
            "render", "--json", str(doc), "--a", "20", "--b", "20", "--c", "20",
            "--svg", str(tmp_path / "x.svg"),
        ])
        assert rc == 2

    def test_unparseable_document_exits_two(self, capsys, tmp_path):
        cfg = construct(equilateral_triangle(), AngleTriple.from_degrees(20.0, 15.0, 25.0))
        short_point = json.loads(config_document(cfg))
        short_point["points"]["A"] = [1.0]
        doc = tmp_path / "cfg.json"
        for text in ("{}", json.dumps(short_point)):
            doc.write_text(text)
            rc = main(["render", "--json", str(doc), "--svg", str(tmp_path / "x.svg")])
            assert rc == 2
            assert "cannot parse" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        rc = main(["render", "--json", str(tmp_path / "nope.json"), "--svg", str(tmp_path / "x.svg")])
        assert rc == 2


class TestTopLevel:
    def test_no_command_exits_two(self):
        assert main([]) == 2

    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "construct" in capsys.readouterr().out
