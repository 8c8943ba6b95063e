import hashlib
import json
import math
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morley.document import config_document, parse_config_document
from morley.forward import morley_triangle
from morley.inverse import ARC_CHORD_NAMES, POINT_NAMES, AngleTriple, construct, equilateral_triangle
from morley.kernel import GeometryError, Point, Triangle
from morley.render import TrisectionScene, render_svg


def reference_config(side=1.0):
    return construct(equilateral_triangle(side), AngleTriple.from_degrees(20.0, 15.0, 25.0))


def count(svg, cls):
    return svg.count(f'class="{cls}"')


def view_box(svg):
    match = re.search(r'viewBox="([^"]+)"', svg)
    return [float(x) for x in match.group(1).split()]


ARC_PATH = re.compile(
    r'<path class="arc" d="M (\S+) (\S+) A (\S+) \S+ 0 (\d) (\d) (\S+) (\S+)"'
)


class TestConfigRendering:
    def test_byte_identical_across_runs(self):
        one = render_svg(reference_config())
        two = render_svg(reference_config())
        assert one == two

    def test_element_counts(self):
        svg = render_svg(reference_config())
        assert count(svg, "arc") == 3
        assert count(svg, "construction-line") == 3
        assert count(svg, "edge-inner") == 3
        assert count(svg, "edge-outer") == 3
        assert count(svg, "point-ij") == 6
        assert count(svg, "point-vertex") == 6
        assert count(svg, "label") == 12

    def test_single_svg_root(self):
        svg = render_svg(reference_config())
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<svg ") == 1

    def test_style_toggles(self):
        cfg = reference_config()
        bare = render_svg(cfg, arcs=False, labels=False)
        assert count(bare, "arc") == 0
        assert count(bare, "label") == 0
        assert count(bare, "construction-line") == 3

    def test_y_axis_points_up(self):
        # The inner apex A' has the largest y of the inner triangle, so
        # flipped it must carry the smallest cy among the vertex dots.
        svg = render_svg(reference_config())
        vertex_cys = [
            float(m.group(1))
            for m in re.finditer(r'<circle class="point-vertex"[^>]* cy="([^"]+)"', svg)
        ]
        apex_flipped = -math.sqrt(3.0) / 2.0
        assert vertex_cys[0] == pytest.approx(apex_flipped, abs=1e-9)

    def test_symmetric_configuration_centers_view(self):
        cfg = construct(equilateral_triangle(), AngleTriple.from_degrees(20.0, 20.0, 20.0))
        x0, _, width, _ = view_box(render_svg(cfg))
        # Figure is mirror symmetric about x = 1/2.
        assert x0 + width / 2.0 == pytest.approx(0.5, abs=1e-6)

    def test_named_points_inside_view_box(self):
        cfg = reference_config()
        x0, y0, width, height = view_box(render_svg(cfg))
        for p in cfg.named_points().values():
            assert x0 <= p.x <= x0 + width
            assert y0 <= -p.y <= y0 + height

    def test_arc_paths_encode_their_circles(self):
        # Rebuild each arc's center from the emitted endpoint
        # parametrization and compare with the construction's circle.
        cfg = reference_config()
        svg = render_svg(cfg)
        paths = ARC_PATH.findall(svg)
        assert len(paths) == 3
        for key, circle, path in zip(ARC_CHORD_NAMES, cfg.circles, paths):
            x1, y1, r, large, sweep, x2, y2 = (float(v) for v in path)
            assert large == 1.0
            center = _center_from_endpoints(x1, y1, x2, y2, r, int(large), int(sweep))
            expected = (circle.center.x, -circle.center.y)
            gap = math.hypot(center[0] - expected[0], center[1] - expected[1])
            assert gap <= 1e-6 * r, f"arc {key} center off by {gap}"

    def test_stroke_width_tracks_scene_extent(self):
        small = render_svg(reference_config(side=1.0))
        large = render_svg(reference_config(side=1000.0))
        width_of = lambda svg: float(re.search(r'stroke-width="([^"]+)"', svg).group(1))
        ratio = width_of(large) / width_of(small)
        assert ratio == pytest.approx(1000.0, rel=1e-6)

    def test_no_negative_zero_artifacts(self):
        svg = render_svg(reference_config())
        assert '"-0"' not in svg and " -0 " not in svg


def _center_from_endpoints(x1, y1, x2, y2, r, large, sweep):
    """Circle center implied by an SVG arc's endpoint parametrization."""
    mx, my = (x1 + x2) / 2.0, (y1 + y2) / 2.0
    dx, dy = x2 - x1, y2 - y1
    d = math.hypot(dx, dy)
    h = math.sqrt(max(r * r - (d / 2.0) ** 2, 0.0))
    nx, ny = -dy / d, dx / d
    for sign in (1.0, -1.0):
        cx, cy = mx + sign * h * nx, my + sign * h * ny
        th1 = math.atan2(y1 - cy, x1 - cx)
        th2 = math.atan2(y2 - cy, x2 - cx)
        swept = (th2 - th1) % (2.0 * math.pi) if sweep == 1 else (th1 - th2) % (2.0 * math.pi)
        if (swept > math.pi) == (large == 1):
            return (cx, cy)
    raise AssertionError("no consistent center for arc flags")


class TestTrisectionRendering:
    def setup_method(self):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        self.scene = TrisectionScene.from_triangle(t)

    def test_element_counts(self):
        svg = render_svg(self.scene)
        assert count(svg, "morley-fill") == 1
        assert count(svg, "trisector") == 6
        assert count(svg, "edge-outer") == 3
        assert count(svg, "edge-inner") == 3
        assert count(svg, "point-vertex") == 6
        assert count(svg, "label") == 6

    def test_byte_identical_across_runs(self):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        assert render_svg(TrisectionScene.from_triangle(t)) == render_svg(self.scene)

    def test_trisector_segments_touch_morley_vertices(self):
        segments = self.scene.trisector_segments()
        assert len(segments) == 6
        hits = [q for _, q in segments]
        for vertex in self.scene.morley.vertices:
            assert sum(1 for q in hits if q == vertex) == 2

    def test_from_triangle_matches_direct_oracle(self):
        t = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        assert self.scene.morley == morley_triangle(t)


class TestRenderStyle:
    def test_unknown_scene_type(self):
        with pytest.raises(TypeError):
            render_svg("not a scene")


def right_triangle_scene(scale=1.0):
    return TrisectionScene.from_triangle(Triangle(Point(0.0, 0.0), Point(4.0 * scale, 0.0), Point(0.0, 3.0 * scale)))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenBytes:
    """Drawings are part of the byte contract: these digests change only
    with a deliberate change to the emitted SVG."""

    @pytest.mark.parametrize(
        "arcs, labels, digest",
        [
            (True, True, "501fc7ba4aaf87840d636bd3f87a4093ecf5bc4720b6eac8e5879af589009771"),
            (True, False, "efe954add36059a11e7aed5bb2e9d2ecd9ae066ea7c10e56c27ab61f384198e0"),
            (False, True, "fdc5253971205bf06aea4a498d677b213da0945c695c0113e7a75ab012aac717"),
            (False, False, "3826aa49bbbbe6299373e67e5a406fa416e9d0a1c3516a1a22ba1b672d05b3d0"),
        ],
    )
    def test_reference_configuration(self, arcs, labels, digest):
        assert sha256(render_svg(reference_config(), arcs=arcs, labels=labels)) == digest

    @pytest.mark.parametrize(
        "labels, digest",
        [
            (True, "bfa326ff8ecefbfb0e0debbebdbd0658bf4e702dc289f9c1399944071fa0e9a2"),
            (False, "4cfe0c42027f232558afe4710283ffc0578d464f3d3e5a73ac6f6dc884e165ed"),
        ],
    )
    def test_right_triangle_scene(self, labels, digest):
        assert sha256(render_svg(right_triangle_scene(), labels=labels)) == digest

    @pytest.mark.parametrize(
        "side, arcs, labels, digest",
        [
            (1e-300, True, True, "e1a2f6f84165d74f7fc42250377f174498372f470aaf4c4a22449a7e2f301b7a"),
            (1e-300, True, False, "a231a9c9908afea9fa825bc17992f047676fb33f1248912bcde54ba428d2ca45"),
            (1e-300, False, True, "3fa844f9175776918136b129d007c4e3b052c970a28b3035914607d49c0de371"),
            (1e-300, False, False, "85e52ab824ef1d6de83c4df6f0b4bd27c4827704cc0b6b6656593e011ea4d087"),
            (1e300, True, True, "83edc6c5e33fb705c3560ee4c8325d8b5340283e54a07f3f21bfdd06557450b6"),
            (1e300, True, False, "25785cc143a959d4f04b3fc4b36d897a1a0f6efe01a4a82fc7d816525003bd20"),
            (1e300, False, True, "1e68e421c8854fd5aba0156202d47814854150414ef67ccfb2d33b20a463511b"),
            (1e300, False, False, "b59538914b0c40a1eed59d2307ae058dcc53334dd00177d605ec7a58e35cfb1a"),
        ],
    )
    def test_configuration_at_extreme_sides(self, side, arcs, labels, digest):
        assert sha256(render_svg(reference_config(side), arcs=arcs, labels=labels)) == digest

    @pytest.mark.parametrize(
        "scale, labels, digest",
        [
            (1e-300, True, "012641288832b50cb2566039e274bf207248cd3f5f3a0165e0cad575fe2061f8"),
            (1e-300, False, "3860c4fd9dfca1582303d8e08d9d495bf8ca2c0e65edd833794a4e607f0237d2"),
            (1e300, True, "19c70076bf71c598e0bacc502b8e8a7f0b00d1882bf5f035d48f3295bb89335b"),
            (1e300, False, "cfa299d7b85e0fe536adc69b30be2ea2795af086a0c8459d19c60e75812e97d6"),
        ],
    )
    def test_scaled_right_triangle_scene(self, scale, labels, digest):
        # The unit scene with every vertex scaled: morley_triangle itself
        # fails on the 3-4-5 triangle at 1e300.
        scene = right_triangle_scene()
        scaled = [
            Triangle(*(Point(p.x * scale, p.y * scale) for p in t.vertices))
            for t in (scene.outer, scene.morley)
        ]
        assert sha256(render_svg(TrisectionScene(*scaled), labels=labels)) == digest


class TestBuildsNoPoints:
    """Intermediate vectors stay float pairs: a drawing builds no Point."""

    @pytest.fixture
    def point_calls(self, monkeypatch):
        calls = Counter()
        init = Point.__init__

        def counting(self, x, y):
            calls["Point"] += 1
            init(self, x, y)

        monkeypatch.setattr(Point, "__init__", counting)
        return calls

    def test_configuration(self, point_calls):
        cfg = reference_config()
        point_calls.clear()
        render_svg(cfg)
        assert point_calls["Point"] == 0

    def test_trisection_scene(self, point_calls):
        scene = right_triangle_scene()
        point_calls.clear()
        render_svg(scene)
        assert point_calls["Point"] == 0


def label_offsets(svg, points, scale):
    """Each label's offset from its point, in y-up coordinates, divided by scale."""
    texts = re.findall(r'<text class="label" x="([^"]+)" y="([^"]+)"', svg)
    assert len(texts) == len(points)
    return [((float(x) - p.x) / scale, (-float(y) - p.y) / scale) for (x, y), p in zip(texts, points)]


class TestLabelsAtAnyScale:
    # At 1e-310 the inner side is subnormal, and 1 / side would overflow.
    @pytest.mark.parametrize("scale", [1e-20, 1e-100, 1e-310])
    def test_configuration(self, scale):
        def offsets(side):
            cfg = reference_config(side)
            return label_offsets(render_svg(cfg), list(cfg.named_points().values()), side)

        for got, want in zip(offsets(scale), offsets(1.0)):
            assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("scale", [1e-20, 1e-100])
    def test_trisection_scene(self, scale):
        def offsets(size):
            scene = right_triangle_scene(size)
            return label_offsets(render_svg(scene), [*scene.outer.vertices, *scene.morley.vertices], size)

        for got, want in zip(offsets(scale), offsets(1.0)):
            assert got == pytest.approx(want, abs=1e-8)


# Coordinates and factors up to the largest finite float.
_far = st.floats(-1.8e308, 1.8e308)
NON_FINITE = re.compile(r"\b(?:inf|nan)\b")


def assert_drawn_finite_or_refused(scene):
    """Every drawing of ``scene`` raises GeometryError or holds no inf or nan."""
    for arcs in (True, False):
        for labels in (True, False):
            try:
                svg = render_svg(scene, arcs=arcs, labels=labels)
            except GeometryError:
                continue
            assert not NON_FINITE.search(svg), svg


def _document(triple, scale, dx, dy, radius, moved):
    """A configuration document mapped by x -> scale * x + d, its radii
    multiplied by scale * radius, and one point then moved, if given."""
    data = json.loads(config_document(construct(equilateral_triangle(), AngleTriple.from_degrees(*triple))))
    for xy in [*data["points"].values(), *(arc["center"] for arc in data["arcs"].values())]:
        xy[:] = [xy[0] * scale + dx, xy[1] * scale + dy]
    for arc in data["arcs"].values():
        arc["radius"] *= scale * radius
    if moved is not None:
        name, x, y = moved
        data["points"][name] = [x, y]
    return json.dumps(data)


class TestNoNonFiniteNumbers:
    """A drawing either raises GeometryError or prints only finite numbers."""

    @settings(max_examples=150, deadline=None)
    @given(
        triple=st.sampled_from([(20.0, 15.0, 25.0), (40.0, 10.0, 10.0), (2.0, 3.0, 55.0)]),
        scale=st.floats(1e-300, 1e308),
        dx=_far,
        dy=_far,
        radius=st.floats(1.0, 1e308),
        moved=st.none() | st.tuples(st.sampled_from(POINT_NAMES), _far, _far),
    )
    @example(triple=(20.0, 15.0, 25.0), scale=1.0, dx=0.0, dy=0.0, radius=9e307, moved=None)
    @example(triple=(20.0, 15.0, 25.0), scale=1.0, dx=0.0, dy=0.0, radius=1.0, moved=("I_a", 1e308, 0.0))
    def test_parsed_documents(self, triple, scale, dx, dy, radius, moved):
        try:
            cfg = parse_config_document(_document(triple, scale, dx, dy, radius, moved))
        except ValueError:
            return
        assert_drawn_finite_or_refused(cfg)

    @settings(max_examples=150, deadline=None)
    @given(corners=st.lists(st.tuples(_far, _far), min_size=6, max_size=6))
    @example(corners=[(-1e308, 0.0), (-9e307, 0.0), (-1e308, 1e307), (1e308, 0.0), (9e307, 0.0), (1e308, 1e307)])
    def test_scenes(self, corners):
        try:
            outer, morley = (Triangle(*(Point(x, y) for x, y in corners[i : i + 3])) for i in (0, 3))
        except GeometryError:
            return
        assert_drawn_finite_or_refused(TrisectionScene(outer, morley))


class TestPastTheLargestFloat:
    def test_document_wider_than_the_largest_float_is_refused(self):
        # Side AB is 1.95e308 long, though no coordinate difference overflows.
        with pytest.raises(GeometryError, match="span more than the largest float") as info:
            parse_config_document(_document((20.0, 15.0, 25.0), 3e307, 0.0, 0.0, 1.0, None))
        assert type(info.value) is GeometryError

    def test_labels_keep_the_plain_mean_where_the_sums_are_finite(self):
        # Averaging x / n in place of sum(x) / n would print x="0.49999889".
        svg = render_svg(construct(equilateral_triangle(), AngleTriple.from_degrees(0.001, 0.001, 59.998)))
        assert (
            '<text class="label" x="0.499998892" y="-4332.44566" font-size="7018.7633"'
            ' fill="#30323d" text-anchor="middle">A\'</text>'
        ) in svg.splitlines()

    def test_labels_of_a_scene_whose_coordinates_sum_past_it(self):
        # Every point lies near x = -1e308, so the twelve x coordinates sum past the largest float.
        cfg = parse_config_document(_document((20.0, 15.0, 25.0), 1e307, -1e308, 0.0, 1.0, None))
        svg = render_svg(cfg)
        assert not NON_FINITE.search(svg)
        reference = reference_config()
        want = label_offsets(render_svg(reference), list(reference.named_points().values()), 1.0)
        got = label_offsets(svg, list(cfg.named_points().values()), 1e307)
        for got_xy, want_xy in zip(got, want):
            assert got_xy == pytest.approx(want_xy, abs=1e-6)
