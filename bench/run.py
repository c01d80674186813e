"""Benchmark of incidentgen, run from the root of a source checkout.

    python3 bench/run.py --workload story_batch --seed 42 --seconds 30 --trace 0

Builds the workload's inputs from the seed, times set-up in fresh
interpreters, runs the workload in a fresh interpreter of its own, checks
every output, and prints each metric by name with its unit. Times are
scaled to a reference machine speed measured alongside them (pace.py).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones. ``--workload all`` runs every workload in turn and
ends with one JSON object keyed by workload. See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
GOLDEN = BENCH / "golden.json"

# set-up samples per run: this many probe interpreters plus the workload's own,
# and as many reference interpreters, interleaved with the probes
SETUP_PROBES = 10
# set-up times are scaled to the speed at which the reference interpreters'
# fixed stdlib import (worker.REFERENCE_MODULES) takes this long, in s: a
# round value within the range of its median (40 to 49 ms) on the machine
# bench/README.md describes
REFERENCE_IMPORT_S = 0.045
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "dsl.parse_s": "s",
    "dsl.validate_s": "s",
    "planner.best_calls": "count",
    "planner.best_s": "s",
    "planner.best_p50_ms": "ms",
    "planner.enumerate_calls": "count",
    "planner.plans_enumerated": "count",
    "planner.best_per_enumerated": "ratio",
    "planner.plan_len_sum": "count",
    "planner.self_s": "s",
    "terms.unify_calls": "count",
    "kb.renames": "count",
    "simulator.self_s": "s",
    "simulator.steps": "count",
    "simulator.happenings": "count",
    "simulator.replans": "count",
    "simulator.applicable_calls": "count",
    "rng.draws": "count",
    "narrate.render_s": "s",
    "narrate.explain_s": "s",
    "narrate.lines": "count",
    "narrate.explain_links": "count",
    "search.self_s": "s",
    "search.forward_calls": "count",
    "search.evaluations": "count",
    "search.eval_hits": "count",
    "search.eval_hit_ratio": "ratio",
    "search.enumerations": "count",
    "trace.overhead_s": "s",
}


def _child(request: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # set-up is timed from cached bytecode, as an installed package has it;
    # the warm-up probe writes the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(request),
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _golden(workload: str, seed: int, size: str):
    if size != "standard":
        return None
    golden = json.loads(GOLDEN.read_text())
    return golden["workloads"].get(workload) if seed == golden["seed"] else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "standard") -> dict:
    import workloads

    inputs = workloads.make_inputs(workload, seed, size)
    probe = {"role": "setup", "inputs": {"kbs": inputs["kbs"]}}
    reference = {"role": "reference"}
    # the first interpreters may compile bytecode; they are not samples
    _child(probe)
    _child(reference)
    setups, references = [], []
    for _ in range(SETUP_PROBES):
        setups.append(_child(probe)["setup"])
        references.append(_child(reference)["reference_s"])
    result = _child({
        "role": "workload",
        "inputs": inputs,
        "seconds": seconds,
        "trace": trace,
        "golden": _golden(workload, seed, size),
    })
    setups.append(result["setup"])
    setup_scale = REFERENCE_IMPORT_S / statistics.median(references)
    metrics = result["metrics"]
    if trace:
        for name, key in (("cli.import_s", "import_s"), ("dsl.parse_s", "parse_s"),
                          ("dsl.validate_s", "validate_s")):
            metrics[name] = statistics.median(s[key] for s in setups) * setup_scale
        units = PER_LAYER
    else:
        raw_setup = statistics.median(s["import_s"] + s["parse_s"] + s["validate_s"]
                                      for s in setups)
        metrics["setup_s"] = raw_setup * setup_scale
        metrics["peak_rss_mib"] = result["peak_rss_mib"]
        result["raw"].update(setup_s=raw_setup, reference_s=REFERENCE_IMPORT_S / setup_scale)
        units = END_TO_END
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "digests": result["digests"],
        "raw": result["raw"],
    }


def _report(workload: str, seed: int, seconds: float, result: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"{workload}: seed {seed}, {seconds} s, "
          f"{result['attempted']} ops, {result['failed']} failed "
          f"(fail_ratio {ratio:.4g}), correct {result['correct']}")
    print(f"  first-batch digests: text {result['digests']['text']}, "
          f"explain {result['digests']['explain']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    if result["raw"]:
        print("  unscaled (as the clock read): "
              + ", ".join(f"{name} {value:.6g}" for name, value in result["raw"].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "incidentgen" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"error: run from a source checkout; {SRC / 'incidentgen'} or {ORACLES} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r} (choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all)")
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _report(name, args.seed, args.seconds, result)
        del result["digests"], result["raw"]
        results[name] = result
    last = results if args.workload == "all" else results[args.workload]
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
