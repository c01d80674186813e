"""Self-tests of the benchmark, at tiny input sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import hashlib
import json
import statistics
import subprocess
import sys
from time import perf_counter
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _tiny(workload, trace=False, seed=7):
    return run.run_workload(workload, seed, 0.2, trace, "tiny")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_passes_its_output_checks(workload):
    result = _tiny(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_of_one_seed_repeat_their_counts(workload):
    first, second = _tiny(workload, trace=True), _tiny(workload, trace=True)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.PER_LAYER)

    def counts(result):
        return {n: m["value"] for n, m in result["metrics"].items()
                if m["unit"] in ("count", "ratio")}

    assert counts(first) == counts(second)
    assert counts(first)["terms.unify_calls"] > 0


def test_sampler_times_the_kernel_during_work_and_scales_by_it():
    with pace.Sampler() as sampler:
        begin = sampler.mark()
        end = perf_counter() + 0.2
        while perf_counter() < end:
            pass
        end = sampler.mark()
    assert end[0] - begin[0] >= 5
    assert 0 < sampler.spent_since(begin) < 0.2
    around = sampler.samples[max(0, begin[0] - pace.NEIGHBOURS):end[0] + pace.NEIGHBOURS]
    assert sampler.scale_around(begin, end) == pace.REFERENCE_KERNEL_S / statistics.median(around)
    _, took, scaled = pace.bracket(lambda: sum(range(10000)))
    assert took > 0 and scaled > 0


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 3, "tiny") == workloads.make_inputs(workload, 3, "tiny")
    assert workloads.make_inputs("dense_plan", 3) != workloads.make_inputs("dense_plan", 4)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_story_batch_golden_digest_is_the_cli_output():
    golden = json.loads(run.GOLDEN.read_text())
    assert golden["seed"] == workloads.DEFAULT_SEED
    cli = subprocess.run(
        [sys.executable, "-m", "incidentgen", "generate", "--seed", str(golden["seed"]),
         "--count", str(workloads.SIZES["standard"]["incidents"])],
        capture_output=True, check=True, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert hashlib.sha256(cli.stdout).hexdigest() == golden["workloads"]["story_batch"]["text"]


def test_checks_reject_a_broken_plan_and_a_broken_trace():
    inputs = workloads.make_inputs("long_route", 5, "tiny")
    runner = workloads.Runner(inputs, workloads.parse_kbs(inputs["kbs"]))
    out = runner.run(0)
    assert workloads.problems(out, oracles) == []
    short = replace(out.plan, steps=out.plan.steps[:-1])
    assert workloads.problems(replace(out, plan=short), oracles)
    skipped = replace(out.trace, steps=out.trace.steps[:3] + out.trace.steps[4:])
    assert workloads.problems(replace(out, trace=skipped, explanations=()), oracles)
