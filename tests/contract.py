"""The command line's contract corpus, and the script that rewrites it.

Each case is one ``morley`` command line, the input files it reads
(each one of the corpus's configuration documents, named) and what it
did: its exit code (or the type of the exception that escaped ``main``,
as the forward ``ZeroDivisionError`` does), the sha256 of its standard
output and of each file it wrote, and the last line of its standard
error with the case's directory written as ``{dir}``.  argparse's usage
lines are not pinned, since they differ across Python versions.
tests/test_contract.py runs every case again, so a change to what the
command prints, writes or returns shows as a diff of tests/corpus.json.
To rewrite the corpus, from the repository root:

    PYTHONPATH=src python tests/contract.py
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

from morley.cli import main
from morley.document import config_document
from morley.inverse import AngleTriple, construct, equilateral_triangle

CORPUS = Path(__file__).with_name("corpus.json")

ANGLES = ["--a", "20", "--b", "15", "--c", "25"]
OUT = ["--json", "{dir}/out.json", "--svg", "{dir}/out.svg"]
MISSING = "{dir}/missing/out"
RIGHT = ["--p1", "0,0", "--p2", "4,0", "--p3", "0,3"]
DRAW_FLAGS = ([], ["--no-arcs"], ["--no-labels"], ["--no-arcs", "--no-labels"])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(case: dict, documents: dict[str, str], directory: Path) -> dict[str, object]:
    """Run ``main`` on the case's argv, each ``{dir}`` in it standing for
    ``directory``, after writing there the case's input files (file name
    to the name of one of ``documents``), and say what it did."""
    inputs = case["inputs"]
    for name, document in inputs.items():
        (directory / name).write_text(documents[document])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            outcome: dict[str, object] = {"exit": main([arg.replace("{dir}", str(directory)) for arg in case["argv"]])}
        except Exception as exc:
            outcome = {"raises": type(exc).__name__}
    lines = err.getvalue().splitlines()
    outcome["stdout"] = _sha(out.getvalue().encode())
    outcome["stderr"] = lines[-1].replace(str(directory), "{dir}") if lines else ""
    outcome["written"] = {
        path.name: _sha(path.read_bytes())
        for path in sorted(directory.iterdir())
        if path.is_file() and path.name not in inputs
    }
    return outcome


def _mapped(data: dict, scale: float, dx: float = 0.0, dy: float = 0.0, radius: float = 1.0) -> None:
    """Move each point and arc center of a decoded configuration document
    by (x, y) -> (scale * x + dx, scale * y + dy), and multiply each
    radius by scale * radius."""
    for xy in [*data["points"].values(), *(arc["center"] for arc in data["arcs"].values())]:
        xy[:] = [xy[0] * scale + dx, xy[1] * scale + dy]
    for arc in data["arcs"].values():
        arc["radius"] *= scale * radius


def _documents() -> dict[str, str]:
    """Configuration documents for ``render --json``: well formed,
    malformed, and moved or grown towards the largest float."""
    base = config_document(construct(equilateral_triangle(), AngleTriple.from_degrees(20.0, 15.0, 25.0)))
    points = json.loads(base)["points"]
    middle_ab = [(u + v) / 2 for u, v in zip(points["A"], points["B"])]
    docs = {"good": base, "empty": "{}", "not-json": "not json", "list": "[1, 2]"}
    edits = {
        "short-point": lambda d: d["points"].update(A=[1.0]),
        "string-point": lambda d: d["points"].update(A=["x", "y"]),
        "infinite-point": lambda d: d["points"].update(A=[math.inf, 0.0]),
        "coincident-side-line": lambda d: d["points"].update(J_b=d["points"]["I_a"]),
        "collinear-outer": lambda d: d["points"].update(C=middle_ab),
        "angle-sum": lambda d: d["angles"].update(a=0.5),
        "zero-radius": lambda d: d["arcs"]["a"].update(radius=0.0),
        "huge-int": lambda d: d["points"]["A"].__setitem__(0, 10**400),
        "huge-radius": lambda d: d["arcs"]["a"].update(radius=1.7e308),
        "far-arc-points": lambda d: d["points"].update(I_a=[1e308, 0.0], J_c=[-1e308, 0.0]),
        "scaled-1e307": lambda d: _mapped(d, 1e307),
        "scaled-3e307": lambda d: _mapped(d, 3e307),
        "scaled-5e307": lambda d: _mapped(d, 5e307),
        "scaled-1e308": lambda d: _mapped(d, 1e308),
        "scaled-1e307-shifted": lambda d: _mapped(d, 1e307, -1e308, 0.0),
        "scaled-1e306-shifted": lambda d: _mapped(d, 1e306, 1.7e308, -1.7e308),
        "scaled-1e300-shifted": lambda d: _mapped(d, 1e300, -1e308, 1e308),
        "shifted-1.7e308": lambda d: _mapped(d, 1.0, 1.7e308, 1.7e308),
        "scaled-1e-300": lambda d: _mapped(d, 1e-300),
        "radii-5e307": lambda d: _mapped(d, 1.0, radius=5e307),
        "radii-1e308": lambda d: _mapped(d, 1.0, radius=1e308),
    }
    for name, edit in edits.items():
        data = json.loads(base)
        edit(data)
        docs[name] = json.dumps(data, indent=2)
    return docs


def cases(documents: dict[str, str]) -> list[dict[str, object]]:
    """Every case's name, argv and input files, each naming one of ``documents``."""
    out: list[dict[str, object]] = []

    def add(name: str, *argv: str, inputs: dict[str, str] | None = None) -> None:
        out.append({"name": name, "argv": list(argv), "inputs": inputs or {}})

    add("no-command")
    add("construct", "construct", *ANGLES)
    add("construct/files", "construct", *ANGLES, *OUT)
    add("construct/radians", "construct", "--radians", "--a", "0.3", "--b", "0.4", "--c", repr(math.pi / 3 - 0.7))
    add("construct/equilateral-degrees", "construct", "--degrees", "--a", "20", "--b", "20", "--c", "20", *OUT)
    add("construct/sum", "construct", "--a", "30", "--b", "30", "--c", "10")
    add("construct/30-degrees", "construct", "--a", "30", "--b", "20", "--c", "10")
    add("construct/zero-angle", "construct", "--a", "0", "--b", "30", "--c", "30")
    add("construct/nan-angle", "construct", "--a", "nan", "--b", "30", "--c", "30")
    tiny = ["--a", "1e-6", "--b", "0.5", "--c", repr(math.pi / 3 - 0.5 - 1e-6)]
    add("construct/tiny-angle", "construct", "--radians", *tiny)
    add("construct/missing-c", "construct", "--a", "20", "--b", "20")
    add("construct/both-units", "construct", "--degrees", "--radians", *ANGLES)
    add("construct/bad-angle", "construct", "--a", "x", "--b", "20", "--c", "20")
    add("construct/unwritable", "construct", *ANGLES, "--json", MISSING)
    for side in ("0", "-1", "nan", "inf", "x"):
        add(f"construct/side={side}", "construct", *ANGLES, "--side", side)
    for side in ("1e-300", "1e-200", "1e-100", "1e100", "1e200", "1e300", "1e308"):
        add(f"construct/side={side}", "construct", *ANGLES, "--side", side, *OUT)

    add("forward", "forward", *RIGHT)
    add("forward/files", "forward", *RIGHT, *OUT)
    add("forward/thin", "forward", "--p1", "0,0", "--p2", "1,0", "--p3", "0.5,1e-9", *OUT)
    add("forward/collinear", "forward", "--p1", "0,0", "--p2", "1,1", "--p3", "2,2")
    add("forward/coincident", "forward", "--p1", "0,0", "--p2", "0,0", "--p3", "1,0")
    add("forward/one-number", "forward", "--p1", "1", "--p2", "4,0", "--p3", "0,3")
    add("forward/not-numbers", "forward", "--p1", "a,b", "--p2", "4,0", "--p3", "0,3")
    add("forward/infinite", "forward", "--p1", "inf,0", "--p2", "4,0", "--p3", "0,3")
    add("forward/missing-p3", "forward", "--p1", "0,0", "--p2", "4,0")
    add("forward/unwritable", "forward", *RIGHT, "--svg", MISSING)
    for scale in ("1e-300", "1e-100", "1e8", "1e100", "1e300"):
        s = float(scale)
        add(f"forward/scale={scale}", "forward", "--p1", "0,0", "--p2", f"{4 * s!r},0", "--p3", f"0,{3 * s!r}", *OUT)
    # Triangles whose points span more than the largest float, though each coordinate is finite.
    add("forward/wider-than-float", "forward", "--p1=-1.5e308,0", "--p2=1.5e308,0", "--p3=0,1e308")
    add(
        "forward/wider-than-float-skewed",
        "forward",
        "--p1=1.3630831861807834e308,-6.77653168869978e216",
        "--p2=-9.033894167731703e307,3.4687698379391106e304",
        "--p3=2.1012625356640103e300,3.9676929172371186e307",
    )

    add("verify", "verify", "--samples", "3", "--json", "{dir}/out.json")
    add("verify/seed=0", "verify", "--samples", "2", "--seed", "0")
    add("verify/huge-seed", "verify", "--samples", "2", "--seed", str(2**70))
    add("verify/loose-tol", "verify", "--samples", "2", "--tol", "1e-3")
    add("verify/impossible-tol", "verify", "--samples", "2", "--tol", "1e-17", "--json", "{dir}/out.json")
    add("verify/unwritable", "verify", "--samples", "1", "--json", MISSING)
    add("verify/samples=0-seed=-1", "verify", "--samples", "0", "--seed", "-1")
    bad = {"--samples": ("0", "-1", "x", "1.5"), "--seed": ("-1", "x", "1.5"), "--tol": ("0", "-1", "nan", "inf", "x")}
    for flag, values in bad.items():
        for value in values:
            add(f"verify/{flag[2:]}={value}", "verify", "--samples", "1", flag, value)

    add("limit", "limit", "--json", "{dir}/out.json")
    add("limit/unwritable", "limit", "--json", MISSING)
    for a in ("1e-6", "1e-5", "1e-4", "5e-4", "1e-3", "1e-2", "1e-7", "0.5", "0", "-1", "nan", "inf", "x"):
        add(f"limit/a={a}", "limit", "--a", a)
    for side in ("1e-300", "1e300", "1e308", "0"):
        add(f"limit/side={side}", "limit", "--side", side)
        add(f"limit/a=1e-3/side={side}", "limit", "--a", "1e-3", "--side", side)

    svg = ["--svg", "{dir}/out.svg"]
    add("render/angles", "render", *ANGLES, *svg)
    add("render/no-input", "render", *svg)
    add("render/two-angles", "render", "--a", "20", "--b", "20", *svg)
    add("render/no-svg", "render", *ANGLES)
    add("render/missing-document", "render", "--json", "{dir}/nope.json", *svg)
    add("render/unwritable", "render", *ANGLES, "--svg", MISSING)
    add("render/30-degrees", "render", "--a", "30", "--b", "20", "--c", "10", *svg)
    for side in ("1e-300", "1e300"):
        add(f"render/side={side}", "render", *ANGLES, "--side", side, *svg)
    document = ["--json", "{dir}/doc.json"]
    add("render/document-and-angles", "render", *document, *ANGLES, *svg, inputs={"doc.json": "good"})
    for name in documents:
        for flags in DRAW_FLAGS:
            label = "".join(f"/{flag[2:]}" for flag in flags)
            add(f"render/document={name}{label}", "render", *document, *svg, *flags, inputs={"doc.json": name})
    return out


def regenerate() -> None:
    documents = _documents()
    corpus = []
    for case in cases(documents):
        with TemporaryDirectory() as directory:
            corpus.append({**case, **run(case, documents, Path(directory))})
    CORPUS.write_text(json.dumps({"documents": documents, "cases": corpus}, indent=1) + "\n")
    print(f"{len(corpus)} cases written to {CORPUS}")


if __name__ == "__main__":
    regenerate()
