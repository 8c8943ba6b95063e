"""Command line interface.

Exit codes: 0 success (and every check passed, for verifying
commands), 1 at least one check failed, 2 bad usage or invalid input,
3 a numerically degenerate construction or a non-finite drawing.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence
from pathlib import Path

from .document import config_document, forward_document, parse_config_document, summary_document
from .forward import morley_triangle, side_spread
from .inverse import (
    INNER_NAMES,
    AngleTriple,
    InvalidAngles,
    NotEquilateral,
    construct,
    equilateral_triangle,
)
from .kernel import DegenerateTriangle, GeometryError, Point, Triangle
from .render import TrisectionScene, render_svg
from .verify import ANGLE_TOL, DEFAULT_SEED, check_limit_perpendicular, limit_sequence, run_battery


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    try:
        return Point(float(parts[0]), float(parts[1]))
    except (ValueError, GeometryError) as exc:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: {exc}")


def _add_angle_arguments(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--a", type=float, required=required, help="first trisector angle")
    parser.add_argument("--b", type=float, required=required, help="second trisector angle")
    parser.add_argument("--c", type=float, required=required, help="third trisector angle")
    units = parser.add_mutually_exclusive_group()
    units.add_argument("--degrees", action="store_true", help="angles are in degrees (default)")
    units.add_argument("--radians", action="store_true", help="angles are in radians")


def _angle_triple(args: argparse.Namespace) -> AngleTriple:
    if args.radians:
        return AngleTriple(args.a, args.b, args.c)
    return AngleTriple.from_degrees(args.a, args.b, args.c)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morley",
        description="Construct a triangle from its Morley triangle, trisect, verify, draw.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "construct",
        help="build the triangle for an angle triple (a+b+c = 60 degrees)",
    )
    _add_angle_arguments(p, required=True)
    p.add_argument("--side", type=_positive_float, default=1.0, help="inner triangle side length")
    p.add_argument("--json", metavar="PATH", help="write the configuration document here")
    p.add_argument("--svg", metavar="PATH", help="write a drawing here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("forward", help="Morley triangle of an arbitrary triangle")
    p.add_argument("--p1", type=_point, required=True, metavar="X,Y", help="first vertex")
    p.add_argument("--p2", type=_point, required=True, metavar="X,Y", help="second vertex")
    p.add_argument("--p3", type=_point, required=True, metavar="X,Y", help="third vertex")
    p.add_argument("--json", metavar="PATH", help="write the result document here")
    p.add_argument("--svg", metavar="PATH", help="write a drawing here")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("verify", help="run the randomized verification battery")
    p.add_argument("--samples", type=int, default=100, help="number of angle triples")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sweep seed")
    p.add_argument(
        "--tol",
        type=_positive_float,
        default=ANGLE_TOL,
        help="override the angle and relative length tolerances",
    )
    p.add_argument("--json", metavar="PATH", help="write the full report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("limit", help="probe the small-angle degeneration")
    p.add_argument(
        "--a",
        type=float,
        default=None,
        help="single small angle in radians (default: a decreasing sequence)",
    )
    p.add_argument("--side", type=_positive_float, default=1.0, help="inner triangle side length")
    p.add_argument("--json", metavar="PATH", help="write the report here")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("render", help="draw a configuration as SVG")
    _add_angle_arguments(p, required=False)
    p.add_argument("--side", type=_positive_float, default=1.0, help="inner triangle side length")
    p.add_argument("--json", metavar="PATH", help="read a configuration document instead of angles")
    p.add_argument("--svg", metavar="PATH", required=True, help="output path")
    p.add_argument("--no-arcs", action="store_true", help="omit the arcs")
    p.add_argument("--no-labels", action="store_true", help="omit the labels")
    p.set_defaults(func=cmd_render)

    return parser


def cmd_construct(args: argparse.Namespace) -> int:
    angles = _angle_triple(args)
    cfg = construct(equilateral_triangle(args.side), angles)
    measured = ", ".join(f"{math.degrees(angle):.6f}" for angle in cfg.outer.angles())
    print(f"outer angles (deg): {measured}")
    if args.json:
        Path(args.json).write_text(config_document(cfg))
    if args.svg:
        Path(args.svg).write_text(render_svg(cfg))
    return 0


def cmd_forward(args: argparse.Namespace) -> int:
    triangle = Triangle(args.p1, args.p2, args.p3)
    morley = morley_triangle(triangle)
    for label, vertex in zip(INNER_NAMES, morley.vertices):
        print(f"{label} = ({vertex.x:.17g}, {vertex.y:.17g})")
    print(f"side spread: {side_spread(morley):.3e}")
    if args.json:
        Path(args.json).write_text(forward_document(triangle, morley))
    if args.svg:
        Path(args.svg).write_text(render_svg(TrisectionScene(triangle, morley)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    summary = run_battery(samples=args.samples, seed=args.seed, tol=args.tol)
    if args.json:
        Path(args.json).write_text(summary_document(summary))
    failures = summary.failures()
    print(
        f"checks: {len(summary.checks)}, failed: {len(failures)}, "
        f"samples: {summary.samples}, seed: {summary.seed}"
    )
    shown = failures[:20]
    for report in shown:
        print(
            f"  FAIL {report.name}: measured {report.measured:.17g}, "
            f"expected {report.expected:.17g}, tol {report.tol:g}"
        )
    if len(failures) > len(shown):
        print(f"  ... and {len(failures) - len(shown)} more")
    return 0 if summary.all_pass else 1


def cmd_limit(args: argparse.Namespace) -> int:
    inner = equilateral_triangle(args.side)
    if args.a is not None:
        summary = check_limit_perpendicular(args.a, inner)
    else:
        summary = limit_sequence(inner)
    if args.json:
        Path(args.json).write_text(summary_document(summary))
    for report in summary.checks:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status} {report.name}: measured {report.measured:.6e}, "
            f"expected {report.expected:.6e}, tol {report.tol:.6e}"
        )
    return 0 if summary.all_pass else 1


def cmd_render(args: argparse.Namespace) -> int:
    have_angles = args.a is not None or args.b is not None or args.c is not None
    if args.json and have_angles:
        print("error: give either --json or an angle triple, not both", file=sys.stderr)
        return 2
    if args.json:
        # json.loads raises RecursionError for a deeply nested document.
        try:
            cfg = parse_config_document(Path(args.json).read_text())
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            print(f"error: cannot parse {args.json}: {exc}", file=sys.stderr)
            return 2
    elif args.a is not None and args.b is not None and args.c is not None:
        cfg = construct(equilateral_triangle(args.side), _angle_triple(args))
    else:
        print("error: need --json PATH or all of --a, --b, --c", file=sys.stderr)
        return 2
    Path(args.svg).write_text(render_svg(cfg, arcs=not args.no_arcs, labels=not args.no_labels))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (InvalidAngles, NotEquilateral, DegenerateTriangle) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 3
    # Last, as GeometryError is a ValueError: a bound the library checks, e.g. run_battery's.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
