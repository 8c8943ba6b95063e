"""The benchmark's workloads: each op, its output check and the timed loop.

All three are closed loops with a single caller: an op starts only when
the previous one has finished and been checked.  The loop runs in a
fresh interpreter (see run.py), so what it reports is this process's
own cost.

An op either succeeds or fails; a failure is any exception, of any type,
or an output that misses its check.  Failures are tallied by type and
never stop the loop.  The loop cycles over the inputs, and a recurring input
must reproduce the outcome and the output bytes of its first run;
otherwise the op fails as ``Nondeterministic`` and the run is not
``correct``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import morley
from morley import (
    AngleTriple,
    Point,
    Triangle,
    TrisectionScene,
    config_document,
    construct,
    equilateral_triangle,
    forward_document,
    morley_triangle,
    parse_config_document,
    render_svg,
    run_battery,
    side_spread,
    summary_document,
)
from morley.cli import main as cli_main
from morley.verify import LENGTH_RTOL, check_outer_angles

import inputs
from tracing import Tracer, analyse

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = Path(morley.__file__).resolve().parent.parent
CLI_CHILD = BENCH_DIR / "cli_child.py"


def _digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        # Slices keep the check from holding a second copy of a large
        # output, which would show in the peak resident set.
        for i in range(0, len(part), 1 << 16):
            chunk = part[i:i + (1 << 16)]
            h.update(chunk.encode() if isinstance(chunk, str) else chunk)
    return h.hexdigest()


class Battery:
    """``run_battery(S, seed)`` then ``summary_document``; an op is one sample."""

    def __init__(self, seed: int, samples: int = inputs.BATTERY_SAMPLES) -> None:
        self.seeds = inputs.battery_seeds(seed)
        self.samples = samples
        self.keys = len(self.seeds)

    def ops(self, key: int) -> int:
        return self.samples

    def kind(self, key: int) -> str:
        return "battery"

    def warm_up(self) -> None:
        summary_document(run_battery(samples=1, seed=self.seeds[0]))

    def run(self, key: int):
        summary = run_battery(samples=self.samples, seed=self.seeds[key])
        return summary, summary_document(summary)

    def check(self, key: int, result) -> tuple[str, int, str]:
        summary, doc = result
        failed = {report.name.split("/")[0] for report in summary.failures()}
        return _digest(doc), min(len(failed), self.samples), "CheckFailed"


class Figures:
    """Single-figure requests, alternating inverse and forward; an op is one figure.

    inverse: construct, config_document, parse_config_document, render_svg.
    forward: morley_triangle, forward_document, render_svg(TrisectionScene).
    """

    def __init__(self, seed: int, pairs: int = inputs.FIGURE_PAIRS,
                 domain: inputs.Domain = inputs.NOMINAL) -> None:
        self.requests = inputs.figure_requests(seed, pairs, domain)
        self.keys = len(self.requests)

    def ops(self, key: int) -> int:
        return 1

    def kind(self, key: int) -> str:
        return self.requests[key][0]

    def warm_up(self) -> None:
        for key in range(2):
            with contextlib.suppress(Exception):
                self.run(key)

    def run(self, key: int):
        request = self.requests[key]
        if request[0] == "inverse":
            _, (a, b, c), side = request
            cfg = construct(equilateral_triangle(side), AngleTriple(a, b, c))
            text = config_document(cfg)
            parsed = parse_config_document(text)
            return cfg, text, parsed, render_svg(parsed)
        triangle = Triangle(*(Point(x, y) for x, y in request[1]))
        trisected = morley_triangle(triangle)
        return trisected, forward_document(triangle, trisected), render_svg(TrisectionScene(triangle, trisected))

    def check(self, key: int, result) -> tuple[str, int, str]:
        if self.requests[key][0] == "inverse":
            cfg, text, parsed, svg = result
            if not check_outer_angles(cfg).all_pass:
                return _digest(text, svg), 1, "AngleTolExceeded"
            if parsed.named_points() != cfg.named_points():
                return _digest(text, svg), 1, "ParseMismatch"
            return _digest(text, svg), 0, ""
        trisected, doc, svg = result
        failed = side_spread(trisected) > LENGTH_RTOL
        return _digest(doc, svg), int(failed), "LengthTolExceeded"


class Cli:
    """Cold ``morley`` processes, one at a time; an op is one process.

    The ``morley`` script need not be installed, so each process runs
    cli_child.py, which calls ``morley.cli.main``.  Exit code, standard
    output and every written file must equal what ``main`` produces
    in-process for the same arguments.
    """

    def __init__(self, seed: int, workdir: Path, sets: int = inputs.CLI_SETS, traced: bool = False) -> None:
        self.argvs = inputs.cli_argvs(seed, sets)
        self.keys = len(self.argvs)
        self.run_dir = workdir / "run"
        # A traced cold process writes its spans here.
        self.trace_out = workdir / "op-spans.npz" if traced else None
        self.env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
        self.expected = []
        ref_dir = workdir / "ref"
        for d in (self.run_dir, ref_dir):
            d.mkdir(parents=True, exist_ok=True)
        for argv in self.argvs:
            code, out = run_main(fill(argv, ref_dir))
            files = {path: Path(path.format(dir=ref_dir)).read_bytes() for path in inputs.output_paths(argv)}
            self.expected.append((code, out, files))

    def ops(self, key: int) -> int:
        return 1

    def kind(self, key: int) -> str:
        return "cli"

    def warm_up(self) -> None:
        self.run(0)
        if self.trace_out:
            self.trace_out.unlink()

    def run(self, key: int):
        trace = ["--trace-out", str(self.trace_out)] if self.trace_out else []
        command = [sys.executable, str(CLI_CHILD), *trace, *fill(self.argvs[key], self.run_dir)]
        return subprocess.run(command, env=self.env, capture_output=True, check=False)

    def check(self, key: int, proc) -> tuple[str, int, str]:
        code, out, files = self.expected[key]
        written = {p: Path(p.format(dir=self.run_dir)).read_bytes() for p in files}
        digest = _digest(str(proc.returncode), proc.stdout, *written.values())
        if proc.returncode != 0 or code != 0:
            return digest, 1, f"ExitCode{proc.returncode}"
        if proc.stdout.decode() != out or written != files:
            return digest, 1, "OutputMismatch"
        return digest, 0, ""


def fill(argv: list[str], directory: Path) -> list[str]:
    return [arg.format(dir=directory) for arg in argv]


def run_main(argv: list[str]) -> tuple[int, str]:
    """``morley.cli.main`` in this process; its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def make(workload: str, seed: int, workdir: Path, sizes: dict | None = None, traced: bool = False):
    sizes = sizes or {}
    if workload == "battery":
        return Battery(seed, sizes.get("battery_samples", inputs.BATTERY_SAMPLES))
    if workload == "figures":
        return Figures(seed, sizes.get("figure_pairs", inputs.FIGURE_PAIRS))
    if workload == "cli":
        return Cli(seed, workdir, sizes.get("cli_sets", inputs.CLI_SETS), traced)
    raise ValueError(f"unknown workload {workload!r}")


def peak_rss_mb(workload: str) -> float:
    """Peak resident set of the process doing the work, in MiB: this one,
    or for cli the largest of the cold processes it waited for."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, workdir: str, traced: bool = False,
            spans_path: str | None = None, sizes: dict | None = None) -> dict:
    """Run one workload's closed loop for ``seconds``, and at least once
    over every input, and return its tallies.

    With ``traced`` the layer wrappers are installed first and every op
    gets a root span; the spans are written to ``spans_path`` and their
    analysis is returned under "trace".
    """
    wl = make(workload, seed, Path(workdir), sizes, traced)
    wl.warm_up()
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install(sys.modules[__name__])

    first: dict[int, str] = {}
    tally: Counter[str] = Counter()
    latencies: dict[str, list[float]] = {}
    attempted = failed = calls = mismatches = 0
    busy = 0.0
    deadline = perf_counter() + seconds
    for op_id, key in enumerate(itertools.cycle(range(wl.keys))):
        n = wl.ops(key)
        with tracer.op_span(op_id) if tracer else contextlib.nullcontext() as root:
            t0 = perf_counter()
            try:
                result = wl.run(key)
                error = None
            except Exception as exc:
                error = type(exc).__name__
            t1 = perf_counter()
        spans_out = getattr(wl, "trace_out", None)
        if spans_out and spans_out.exists():
            tracer.merge(spans_out, root, op_id)
            spans_out.unlink()
        if error is None:
            digest, bad, kind = wl.check(key, result)
        else:
            digest, bad, kind = error, n, error
        if first.setdefault(key, digest) != digest:
            mismatches += 1
            bad, kind = n, "Nondeterministic"
        attempted += n
        failed += bad
        calls += 1
        busy += t1 - t0
        if bad:
            tally[kind] += bad
        if bad < n:
            latencies.setdefault(wl.kind(key), []).append(t1 - t0)
        # Let go of this op's output before the next op runs, so that the
        # peak resident set holds one output, not two.
        result = None
        if t1 >= deadline and calls >= wl.keys:
            break

    stats = {
        "attempted": attempted,
        "failed": failed,
        "calls": calls,
        "busy_s": busy,
        "latencies_s": latencies,
        "failures_by_type": dict(sorted(tally.items())),
        "mismatches": mismatches,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    if tracer:
        tracer.uninstall()
        if spans_path:
            tracer.dump(spans_path)
        stats["trace"] = analyse(tracer)
        stats["reach_probe"] = reach_probe()
    return stats


def domain_probe(seed: int, pairs: int = inputs.DOMAIN_PAIRS, traced: bool = False) -> dict:
    """One untimed pass of figure requests over the whole advertised domain.

    Each request is run and checked as in the figures workload; an
    exception of any type or a missed check counts as a failure, tallied
    by type.  The known robustness defects show here.  With ``traced``
    the layer wrappers are installed, so that the errors are also
    attributed to the function that raised them, under "names".
    """
    wl = Figures(seed, pairs, inputs.FULL)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install(sys.modules[__name__])
    tally: Counter[str] = Counter()
    try:
        for key in range(wl.keys):
            with tracer.op_span(key) if tracer else contextlib.nullcontext():
                try:
                    _, bad, kind = wl.check(key, wl.run(key))
                except Exception as exc:
                    bad, kind = 1, type(exc).__name__
            if bad:
                tally[f"{wl.kind(key)}.{kind}"] += 1
    finally:
        if tracer:
            tracer.uninstall()
    return {
        "attempted": wl.keys,
        "failed": sum(tally.values()),
        "failures_by_type": dict(sorted(tally.items())),
        "names": analyse(tracer)["names"] if tracer else None,
    }


def reach_probe(repeats: int = 5) -> dict:
    """Traced calls of every layer function on fixed nominal inputs.

    A workload does not reach every layer (the battery renders nothing);
    a per-call time that the workload never produced is read from here,
    so every time metric is a measurement.
    """
    tracer = Tracer()
    tracer.install(sys.modules[__name__])
    try:
        for op_id in range(repeats):
            with tracer.op_span(op_id):
                cfg = construct(equilateral_triangle(1.0), AngleTriple.from_degrees(20.0, 15.0, 25.0))
                render_svg(parse_config_document(config_document(cfg)))
                triangle = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
                trisected = morley_triangle(triangle)
                forward_document(triangle, trisected)
                render_svg(TrisectionScene(triangle, trisected))
                summary_document(run_battery(samples=2, seed=op_id))
    finally:
        tracer.uninstall()
    return analyse(tracer)["names"]


def cli_main_probe(seed: int, workdir: str, repeats: int = 5) -> dict[str, float]:
    """Warm in-process ``main`` per subcommand: median milliseconds of
    ``repeats`` calls after one untimed call."""
    out_dir = Path(workdir) / "main-probe"
    out_dir.mkdir(parents=True, exist_ok=True)
    timings = {}
    for argv in inputs.cli_argvs(seed, 1):
        filled = fill(argv, out_dir)
        run_main(filled)
        samples = []
        for _ in range(repeats):
            t0 = perf_counter()
            run_main(filled)
            samples.append(perf_counter() - t0)
        timings[argv[0]] = statistics.median(samples) * 1e3
    return timings


def first_op(workload: str, seed: int, workdir: str) -> None:
    """The first op of a workload, as the set-up probe times it."""
    if workload == "battery":
        summary_document(run_battery(samples=1, seed=inputs.battery_seeds(seed)[0]))
    elif workload == "figures":
        with contextlib.suppress(Exception):
            Figures(seed, 1).run(0)
    else:
        argv = inputs.cli_argvs(seed, 1)[0]
        run_main(fill(argv, Path(workdir)))

