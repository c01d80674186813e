"""One fresh interpreter per role: a set-up probe, or a whole workload run.

Reads a JSON request on stdin and prints a JSON result as its last line
of stdout. Nothing of the program is imported before the set-up clock
starts, so every run pays the import a CLI user pays.

Roles:
  reference time a fixed import of stdlib modules, the yardstick that
            set-up times are scaled by
  setup     time ``import incidentgen``, then parse and validate the
            workload's knowledge bases
  workload  the same set-up, then a timed run (trace 0) or the traced
            passes (trace 1)
"""

import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SHOWN_PROBLEMS = 5


# a fixed import of stdlib modules: what set-up is scaled by (see run.py)
REFERENCE_MODULES = ("argparse", "logging", "email.message", "http.client", "xml.dom.minidom",
                     "zipfile", "tarfile", "csv", "fractions", "ipaddress", "uuid")


def measure_reference():
    start = perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return perf_counter() - start


def measure_setup(texts):
    start = perf_counter()
    import incidentgen  # noqa: F401  (the import is what is timed)

    import_s = perf_counter() - start
    import workloads

    start = perf_counter()
    kbs = workloads.parse_kbs(texts)
    parse_s = perf_counter() - start
    start = perf_counter()
    workloads.validate_kbs(kbs)
    validate_s = perf_counter() - start
    return kbs, {"import_s": import_s, "parse_s": parse_s, "validate_s": validate_s}


class Batch:
    """Op times, failures and digests of one batch of operations.

    With a sampler, op times exclude its handler's time and are then
    scaled to reference speed, each by the kernel samples taken during
    the op and the two before and after it; ``raw_wall`` keeps the
    unscaled total.
    """

    def __init__(self, runner, start, oracles=None, observer=None, sampler=None):
        import workloads

        self.times = []
        self.failed = 0
        self.problems = []
        self.digest = workloads.Digest()
        marks = []
        for index in range(start, start + runner.batch):
            workloads.clear_caches()
            if observer is not None:
                observer.begin_op(index)
            mark = sampler.mark() if sampler else None
            began = perf_counter()
            try:
                out = runner.run(index)
            except Exception:  # a failing operation is counted, and the run goes on
                out = None
                self.failed += 1
                self.problems.append(f"op {index}: {traceback.format_exc()}")
            took = perf_counter() - began
            if sampler is not None:
                took -= sampler.spent_since(mark)
                marks.append((mark, sampler.mark()))
            self.times.append(took)
            if out is None:
                continue
            if observer is not None:
                observer.end_op()
            if oracles is not None:
                found = workloads.problems(out, oracles)
                if found:
                    self.failed += 1
                    self.problems.append(f"op {index}: " + "; ".join(found))
            self.digest.add(out)
        self.raw_wall = sum(self.times)
        if sampler is not None:
            self.times = [t * sampler.scale_around(begin, end)
                          for t, (begin, end) in zip(self.times, marks)]

    @property
    def wall(self):
        return sum(self.times)


def _p90(values):
    # nearest rank: the smallest value with at least 90% of values at or below it
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def _golden_problems(batch, golden):
    if golden is None or batch.digest.hexdigests() == golden:
        return 0, []
    got = batch.digest.hexdigests()
    return len(batch.times), [f"first batch digests {got} differ from the golden {golden}"]


def timed_run(new_runner, seconds, oracles, golden):
    """Whole batches, closed loop, until the ops have taken ``seconds``."""
    import pace

    runner = new_runner()
    batches = []
    with pace.Sampler() as sampler:
        while not batches or sum(b.raw_wall for b in batches) < seconds:
            batches.append(Batch(runner, len(batches) * runner.batch, oracles,
                                 sampler=sampler))
    extra_failed, notes = _golden_problems(batches[0], golden)
    op_s = [t for b in batches for t in b.times]
    raw_s = sum(b.raw_wall for b in batches)
    return {
        "attempted": len(op_s),
        "failed": min(len(op_s), sum(b.failed for b in batches) + extra_failed),
        "problems": notes + [p for b in batches for p in b.problems],
        "digests": batches[0].digest.hexdigests(),
        "raw": {"ops_per_s": len(op_s) / raw_s,
                "kernel_ms": statistics.median(sampler.samples) * 1e3},
        "metrics": {
            "wall_s": sum(op_s) / len(batches),
            "ops_per_s": len(op_s) / sum(op_s),
            "op_p50_ms": statistics.median(op_s) * 1e3,
            "op_p90_ms": _p90(op_s) * 1e3,
        },
    }


def traced_run(new_runner, seconds, oracles, golden):
    """Repeat (reference, span pass, count pass) over the first batch.

    Counts come from the first repetition and must repeat exactly in the
    others; times are medians over the repetitions, each scaled to
    reference speed by kernel runs right before and after its pass.
    """
    import pace
    import spans

    reps = []
    attempted = failed = 0
    notes = []
    began = perf_counter()
    while not reps or perf_counter() - began < seconds:
        base, took, scaled = pace.bracket(lambda: Batch(new_runner(), 0, oracles))
        base_factor = scaled / took
        with spans.SpanPass().active() as span_pass:
            traced, took, scaled = pace.bracket(
                lambda: Batch(new_runner(), 0, observer=span_pass))
        factor = scaled / took
        with spans.CountPass().active() as count_pass:
            counted = Batch(new_runner(), 0, observer=count_pass)
        for batch in (base, traced, counted):
            attempted += len(batch.times)
            failed += batch.failed
            notes += batch.problems
        for name, batch in (("span", traced), ("count", counted)):
            if batch.digest.hexdigests() != base.digest.hexdigests():
                failed += len(batch.times)
                notes.append(f"the {name} pass changed the outputs")
        times = {name: value * factor for name, value in span_pass.times().items()}
        times["trace.overhead_s"] = traced.wall * factor - base.wall * base_factor
        reps.append((spans.layer_counts(span_pass, count_pass), times))
        if len(reps) == 1:
            first = base
    extra, more = _golden_problems(first, golden)
    failed += extra
    notes += more
    counts = reps[0][0]
    if any(r[0] != counts for r in reps):
        failed += 1
        notes.append("per-layer counts differ between repetitions")
    metrics = dict(counts)
    for name in reps[0][1]:
        metrics[name] = statistics.median(r[1][name] for r in reps)
    return {
        "attempted": attempted,
        "failed": min(attempted, failed),
        "problems": notes,
        "digests": first.digest.hexdigests(),
        "raw": {},
        "metrics": metrics,
    }


def main():
    request = json.loads(sys.stdin.read())
    if request["role"] == "reference":
        print(json.dumps({"reference_s": measure_reference()}))
        return
    inputs = request["inputs"]
    kbs, setup = measure_setup(inputs["kbs"])
    # imported after the clock stops, by probes too, so that a checkout's
    # first workload run already finds their bytecode cached
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles
    import spans  # noqa: F401
    import workloads

    if request["role"] == "setup":
        print(json.dumps({"setup": setup}))
        return
    run = traced_run if request["trace"] else timed_run
    result = run(lambda: workloads.Runner(inputs, kbs), request["seconds"], oracles,
                 request.get("golden"))
    for note in result["problems"][:SHOWN_PROBLEMS]:
        print(f"{inputs['workload']}: {note}", file=sys.stderr)
    result["problems"] = len(result["problems"])
    result["setup"] = setup
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
