"""Tests of the benchmark itself, at tiny input sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, analyse  # noqa: E402

TINY = {"battery_samples": 3, "figure_pairs": 4, "domain_pairs": 4, "cli_sets": 1}
SEED = 90210


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, kind, capsys):
    result = run.run_workload(workload, SEED, 1, trace, ROOT, TINY)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == json.loads(json.dumps(result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared(kind)
    record = json.loads((run.RESULTS / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    assert record["provenance"]["seed"] == SEED
    assert record["provenance"]["sizes"]["figure_pairs"] == TINY["figure_pairs"]


def test_one_seed_regenerates_identical_inputs():
    for make in (inputs.figure_requests, inputs.cli_argvs, inputs.battery_seeds):
        assert make(7) == make(7)
        assert make(7) != make(8)


@pytest.mark.parametrize("domain", [inputs.FULL, inputs.NOMINAL])
def test_figure_inputs_are_admissible(domain):
    from morley.inverse import MIN_ANGLE, AngleTriple

    assert inputs.MIN_ANGLE == MIN_ANGLE
    requests = inputs.figure_requests(3, 300, domain)
    angles = [a for r in requests if r[0] == "inverse" for a in r[1]]
    assert domain.min_angle <= min(angles) < 2.0 * domain.small_angle
    assert min(abs(a - inputs.THIRD / 2.0) for a in angles) >= domain.off_degenerate
    sides = [r[2] for r in requests if r[0] == "inverse"]
    assert max(sides) <= 10.0 ** domain.scale_decades[1]
    for request in requests:
        if request[0] == "inverse":
            AngleTriple(*request[1])


def test_whole_domain_probe_shows_the_known_defects():
    probe = workloads.domain_probe(SEED, 40)
    assert probe["attempted"] == 80
    assert probe["failures_by_type"].get("forward.ZeroDivisionError", 0) > 0
    assert probe["failed"] == sum(probe["failures_by_type"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_add_up_to_each_op(workload, tmp_path):
    stats = workloads.measure(workload, SEED, 0.1, str(tmp_path), True, str(tmp_path / "spans.npz"), TINY)
    trace = stats["trace"]
    assert trace["ops"] == stats["calls"]
    layers = {n.split(".")[0] for n in trace["names"]}
    assert {"bench", "kernel", "inverse", "forward"} <= layers
    for wall, summed in zip(trace["op_wall_s"], trace["op_self_sum_s"]):
        assert summed == pytest.approx(wall, rel=1e-9)
    assert sum(trace["layer_self_s"].values()) == pytest.approx(sum(trace["op_wall_s"]), rel=1e-9)


def test_tracer_wraps_names_as_callers_bind_them():
    import morley.inverse
    import morley.verify

    original = morley.verify.construct
    tracer = Tracer()
    tracer.install()
    try:
        assert morley.verify.construct is morley.inverse.construct is not original
        with tracer.op_span(0):
            morley.verify.run_battery(samples=1, seed=1)
    finally:
        tracer.uninstall()
    assert morley.verify.construct is original
    names = analyse(tracer)["names"]
    assert names["inverse.construct"]["calls"] == 2 + 3  # sample + roundtrip, 3 limit probes
    assert names["verify.CheckReport"]["calls"] > 0
