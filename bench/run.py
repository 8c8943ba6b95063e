"""The morley benchmark.

    python3 bench/run.py --workload {battery,figures,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; morley is imported from ./src.  Inputs are
made from --seed.  With --trace 0 the workload runs untraced in a fresh
interpreter and the end-to-end metrics are printed.  With --trace 1 half
of the time goes to an untraced loop and half to a traced one, each in
its own fresh interpreter, and the per-layer metrics are printed.  The
last line of output is one JSON object: correct, attempted, failed,
metrics.  A result file with provenance goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs

WORKLOADS = ("battery", "figures", "cli")
# Set-up probes per group; a run takes three groups, spread over it.
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

BENCH_DIR = Path(__file__).resolve().parent
RESULTS = BENCH_DIR / "results"

# The set-up probe: a fresh interpreter times importing morley plus the
# workload's first op.  What the benchmark itself imports is loaded first.
SETUP_PROBE = """
import sys, time
import array, collections, contextlib, hashlib, io, itertools, resource, statistics, subprocess
import inputs
t0 = time.perf_counter()
import morley
import workloads
workloads.first_op(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - t0)
"""
IMPORT_PROBE = "import time\nt0 = time.perf_counter()\nimport {module}\nprint(time.perf_counter() - t0)"
# Calls a function of workloads.py with JSON arguments and prints its
# JSON result as the last line.
WORKER = "import json, sys, workloads\nprint(json.dumps(getattr(workloads, sys.argv[1])(*json.loads(sys.argv[2]))))"

# Workload-specific figures, printed and kept in the result file next to
# the shared metrics: (name, latency percentile or None for goodput,
# scale, unit).  They are not bounded metrics: on a shared host goodput
# and the tail swing too much between runs (README.md).  figure_p50_us and
# cli_p50_ms repeat latency_p50_ms under the names the issues use.
NAMED = {
    "battery": (("samples_per_s", None, 1.0, "1/s"),),
    "figures": (("figures_per_s", None, 1.0, "1/s"), ("figure_p50_us", 50, 1e6, "us"),
                ("figure_p99_us", 99, 1e6, "us")),
    "cli": (("cli_p50_ms", 50, 1e3, "ms"), ("cli_p90_ms", 90, 1e3, "ms")),
}

# Per-layer metrics.  Per-call times are inclusive: a span's duration,
# children included, averaged over its calls.
PER_CALL = {
    "kernel.point_ns": ("kernel.Point", 1e9, "ns"),
    "kernel.angle_at_ns": ("kernel.angle_at", 1e9, "ns"),
    "kernel.intersect_lines_ns": ("kernel.intersect_lines", 1e9, "ns"),
    "kernel.chord_arc_circle_ns": ("kernel.chord_arc_circle", 1e9, "ns"),
    "kernel.rotate_about_ns": ("kernel.rotate_about", 1e9, "ns"),
    "inverse.construct_us": ("inverse.construct", 1e6, "us"),
    "forward.morley_triangle_us": ("forward.morley_triangle", 1e6, "us"),
    "verify.angle_identities_us": ("verify.check_angle_identities", 1e6, "us"),
    "verify.isosceles_arcs_us": ("verify.check_isosceles_arcs", 1e6, "us"),
    "verify.outer_angles_us": ("verify.check_outer_angles", 1e6, "us"),
    "verify.roundtrip_us": ("verify.check_roundtrip", 1e6, "us"),
    "verify.equilateral_forward_us": ("verify.check_equilateral_forward", 1e6, "us"),
    "verify.similarity_invariance_us": ("verify.check_similarity_invariance", 1e6, "us"),
    "verify.limit_sequence_us": ("verify.limit_sequence", 1e6, "us"),
    "document.summary_document_s": ("document.summary_document", 1.0, "s"),
    "document.config_document_us": ("document.config_document", 1e6, "us"),
    "document.parse_config_document_us": ("document.parse_config_document", 1e6, "us"),
    "document.forward_document_us": ("document.forward_document", 1e6, "us"),
    "render.render_svg_config_us": ("render.render_svg_config", 1e6, "us"),
    "render.render_svg_scene_us": ("render.render_svg_scene", 1e6, "us"),
}
PER_OP = {
    "kernel.point_calls_per_sample": "kernel.Point",
    "inverse.construct_calls_per_sample": "inverse.construct",
    "forward.morley_triangle_calls_per_sample": "forward.morley_triangle",
    "verify.reports_per_sample": "verify.CheckReport",
}
CLI_SUBCOMMANDS = ("construct", "forward", "verify", "render")
SHARE_LAYERS = ("kernel", "inverse", "forward", "verify", "document", "render", "cli", "bench")


def child_env(*paths: Path) -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(str(p) for p in paths)}


def last_line(code: str, args: list[str], env: dict) -> str:
    """Run ``code`` in a fresh interpreter, wait for it to exit, and return
    the last line it printed."""
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return out.strip().splitlines()[-1]


def in_fresh_interpreter(src: Path, function: str, *args):
    """``workloads.<function>(*args)`` in a new interpreter."""
    return json.loads(last_line(WORKER, [function, json.dumps(args)], child_env(BENCH_DIR, src)))


def probe_seconds(code: str, args: list[str], env: dict) -> float:
    return float(last_line(code, args, env))


def median_of(repeats: int, measure) -> float:
    return statistics.median(measure() for _ in range(repeats))


def setup_probes(workload: str, seed: int, src: Path, workdir: Path) -> list[float]:
    env = child_env(BENCH_DIR, src)
    probe_dir = workdir / "setup"
    probe_dir.mkdir(parents=True, exist_ok=True)
    return [probe_seconds(SETUP_PROBE, [workload, str(seed), str(probe_dir)], env)
            for _ in range(SETUP_REPEATS)]


def interpreter_seconds() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_s(latencies: dict[str, list[float]], q: int) -> float:
    """The q-th percentile of successful call latencies, taken per request
    kind and averaged over the kinds (figures has two: inverse requests
    and forward ones that cost half as much), so that a slowdown of
    either kind moves it."""
    return statistics.fmean(percentile(v, q) for v in latencies.values())


def end_to_end(stats: dict, setup_s: float, domain: dict) -> dict:
    return {
        "latency_p50_ms": (latency_s(stats["latencies_s"], 50) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (stats["peak_rss_mb"], "MB"),
        "domain_ok_ratio": (1.0 - domain["failed"] / domain["attempted"], "ratio"),
    }


def named(workload: str, stats: dict, domain: dict) -> dict:
    ok = stats["attempted"] - stats["failed"]
    out = {}
    for name, q, scale, unit in NAMED[workload]:
        value = ok / stats["busy_s"] if q is None else latency_s(stats["latencies_s"], q)
        out[name] = (value * scale, unit)
    out["failed_ratio"] = (stats["failed"] / stats["attempted"], "ratio")
    out["domain_failed_ratio"] = (domain["failed"] / domain["attempted"], "ratio")
    return out


def per_layer(untraced: dict, traced: dict, cli_probes: dict, domain: dict) -> dict:
    names = traced["trace"]["names"]
    probe = traced["reach_probe"]
    ops = traced["attempted"]

    def entry(name: str, source: dict = names) -> dict:
        return source.get(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})

    def per_call(name: str, field: str = "inclusive_s") -> float:
        # A function this workload never calls is timed by the reach probe.
        e = entry(name) if entry(name)["calls"] else entry(name, probe)
        return e[field] / e["calls"]

    def errors(name: str, kind: str | None = None) -> int:
        # Raised on the whole domain, by the traced domain probe.
        by_type = entry(name, domain["names"]).get("errors", {})
        return sum(by_type.values()) if kind is None else by_type.get(kind, 0)

    metrics = {metric: (per_call(name) * scale, unit) for metric, (name, scale, unit) in PER_CALL.items()}
    metrics.update({metric: (entry(name)["calls"] / ops, "count") for metric, name in PER_OP.items()})
    svg = [entry(n) for n in ("render.render_svg_config", "render.render_svg_scene")]
    svg_calls = sum(e["calls"] for e in svg)
    metrics.update({
        "verify.run_battery_self_s": (per_call("verify.run_battery", "self_s"), "s"),
        "document.summary_bytes_per_sample": (entry("document.summary_document").get("bytes", 0) / ops, "bytes"),
        "render.svg_bytes": (sum(e.get("bytes", 0) for e in svg) / svg_calls if svg_calls else 0.0, "bytes"),
        "inverse.errors": (errors("inverse.construct"), "count"),
        "forward.errors": (errors("forward.morley_triangle"), "count"),
        "forward.errors.ZeroDivisionError": (errors("forward.morley_triangle", "ZeroDivisionError"), "count"),
        "forward.errors.NearParallel": (errors("forward.morley_triangle", "NearParallel"), "count"),
        "cli.interpreter_s": (cli_probes["interpreter_s"], "s"),
        "cli.import_numpy_s": (cli_probes["import_numpy_s"], "s"),
        "cli.import_morley_s": (cli_probes["import_morley_s"], "s"),
    })
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.main_ms.{sub}"] = (untraced["cli_main_ms"][sub], "ms")
    wall = sum(traced["trace"]["op_wall_s"])
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = (100.0 * traced["trace"]["layer_self_s"].get(layer, 0.0) / wall, "%")
    rate = lambda s: s["attempted"] / s["busy_s"]  # noqa: E731
    metrics["trace.overhead_ratio"] = (rate(untraced) / rate(traced), "ratio")
    return metrics


def provenance(root: Path, workload: str, seed: int, seconds: int, trace: int, sizes: dict | None) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": {**inputs.sizes(), **(sizes or {})},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int, root: Path,
                 sizes: dict | None = None) -> dict:
    """Measure one workload, print its metrics and write its result file.

    ``sizes`` overrides input sizes of inputs.sizes(); the tests use it.
    """
    src = root / "src"
    workdir = RESULTS / f"work-{workload}-{os.getpid()}"
    domain_pairs = (sizes or {}).get("domain_pairs", inputs.DOMAIN_PAIRS)
    try:
        if trace:
            domain = in_fresh_interpreter(src, "domain_probe", seed, domain_pairs, True)
            half = seconds / 2.0
            untraced = in_fresh_interpreter(src, "measure", workload, seed, half, str(workdir / "untraced"),
                                            False, None, sizes)
            untraced["cli_main_ms"] = in_fresh_interpreter(src, "cli_main_probe", seed, str(workdir))
            spans = RESULTS / f"{workload}.spans.npz"
            stats = in_fresh_interpreter(src, "measure", workload, seed, half, str(workdir / "traced"),
                                         True, str(spans), sizes)
            numpy_env, morley_env = child_env(), child_env(src)
            cli_probes = {
                "interpreter_s": median_of(IMPORT_REPEATS, interpreter_seconds),
                "import_numpy_s": median_of(IMPORT_REPEATS, lambda: probe_seconds(
                    IMPORT_PROBE.format(module="numpy"), [], numpy_env)),
                "import_morley_s": median_of(IMPORT_REPEATS, lambda: probe_seconds(
                    IMPORT_PROBE.format(module="morley"), [], morley_env)),
            }
            metrics = per_layer(untraced, stats, cli_probes, domain)
            also_reported = {}
        else:
            # The host's speed drifts over seconds, so the set-up probes
            # are taken in three groups spread over the run, not in one.
            setup = setup_probes(workload, seed, src, workdir)
            domain = in_fresh_interpreter(src, "domain_probe", seed, domain_pairs, False)
            setup += setup_probes(workload, seed, src, workdir)
            stats = in_fresh_interpreter(src, "measure", workload, seed, seconds, str(workdir / "untraced"),
                                         False, None, sizes)
            setup += setup_probes(workload, seed, src, workdir)
            metrics = end_to_end(stats, statistics.median(setup), domain)
            untraced = stats
            also_reported = named(workload, stats, domain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in {**metrics, **also_reported}.items():
        print(f"{workload}: {name} = {value:.6g} {unit}")
    print(f"{workload}: attempted {stats['attempted']}, failed {stats['failed']}, "
          f"failures by type {json.dumps(stats['failures_by_type'])}")
    print(f"{workload}: whole-domain probe: attempted {domain['attempted']}, failed {domain['failed']}, "
          f"failures by type {json.dumps(domain['failures_by_type'])}")
    result = {
        "correct": stats["mismatches"] == 0 and untraced["mismatches"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "provenance": provenance(root, workload, seed, seconds, trace, sizes),
        "result": result,
        "also_reported": {name: {"value": value, "unit": unit} for name, (value, unit) in also_reported.items()},
        "failures_by_type": stats["failures_by_type"],
        "domain_probe": {key: domain[key] for key in ("attempted", "failed", "failures_by_type")},
        "calls": stats["calls"],
        "busy_s": stats["busy_s"],
        "trace": stats.get("trace", {}).get("names"),
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "morley" / "__init__.py").is_file():
        print(f"error: no morley source tree at {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args.seed, args.seconds, args.trace, root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
