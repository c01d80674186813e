"""Per-layer spans and call counts, recorded from outside the program.

Layers call each other through module globals: the simulator reaches the
planner through ``simulator.make_best_plan``, the search through
``search.EVALUATIONS`` and ``search.enumerate_plans``, and so on. A pass
replaces those globals with wrappers and restores them afterwards.

The span pass records ``[layer, site, start, end, parent, op]`` for each
call that crosses into a layer; a layer's self time is its spans'
durations minus what their child spans cover. The count pass wraps the
hot calls (unify, renames, random draws) with bare counters, in a pass
of its own so that those wrappers do not inflate span self times.
Globals that a later version of the program no longer has are skipped.
"""

from __future__ import annotations

import inspect
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from incidentgen import kb, narrate, planner, search, simulator

import workloads

_EVALUATIONS = getattr(search, "EVALUATIONS", {})

# (namespace, name, layer): calls into a layer that get a span. The
# evaluator is looked up in search.EVALUATIONS, so the dict entry is
# wrapped as well as the module attribute.
SPANNED = (
    (simulator, "generate_incident", "simulator"),
    (simulator, "execute_plan", "simulator"),
    (simulator, "apply_event", "simulator"),
    (simulator, "applicable_happenings", "simulator"),
    (search, "apply_event", "simulator"),
    (simulator, "make_best_plan", "planner"),
    (planner, "make_best_plan", "planner"),
    (planner, "enumerate_plans", "planner"),
    (search, "enumerate_plans", "planner"),
    (simulator, "iter_satisfying", "planner"),
    (search, "iter_satisfying", "planner"),
    (narrate, "render_story", "narrate"),
    (narrate, "explain", "narrate"),
    (search, "forward_search", "search"),
    (search, "adversarial_story", "search"),
    (search, "plan_distance", "search"),
    (_EVALUATIONS, "plan_distance", "search"),
)

# (namespace, name, counter): hot calls that are only counted
COUNTED = (
    (kb, "unify", "terms.unify_calls"),
    (planner, "unify", "terms.unify_calls"),
    (simulator, "unify", "terms.unify_calls"),
    (planner, "fresh_event", "kb.renames"),
    (planner, "fresh_rule", "kb.renames"),
    (simulator, "fresh_event", "kb.renames"),
    (simulator, "fresh_revision", "kb.renames"),
    (search, "fresh_event", "kb.renames"),
    (simulator, "maybe", "rng.draws"),
    (simulator, "rnd_member", "rng.draws"),
)

COUNT_NAMES = (
    "planner.best_calls",
    "planner.enumerate_calls",
    "planner.plans_enumerated",
    "planner.plan_len_sum",
    "terms.unify_calls",
    "kb.renames",
    "simulator.steps",
    "simulator.happenings",
    "simulator.replans",
    "simulator.applicable_calls",
    "rng.draws",
    "narrate.lines",
    "narrate.explain_links",
    "search.forward_calls",
    "search.evaluations",
    "search.eval_hits",
    "search.enumerations",
)


def _site(namespace, name: str) -> str:
    module = "EVALUATIONS" if namespace is _EVALUATIONS else namespace.__name__.rsplit(".", 1)[-1]
    return f"{module}.{name}"


def _get(namespace, name: str):
    if isinstance(namespace, dict):
        return namespace.get(name)
    return getattr(namespace, name, None)


def _set(namespace, name: str, value) -> None:
    if isinstance(namespace, dict):
        namespace[name] = value
    else:
        setattr(namespace, name, value)


@contextmanager
def _patched(replacements):
    saved = []
    try:
        for namespace, name, make in replacements:
            original = _get(namespace, name)
            if original is None:
                continue
            saved.append((namespace, name, original))
            _set(namespace, name, make(original))
        yield
    finally:
        for namespace, name, original in reversed(saved):
            _set(namespace, name, original)


class SpanPass:
    """Spans around the calls in SPANNED, plus counts read off their results."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def patches(self):
        return [(ns, name, self._wrapper(_site(ns, name), layer)) for ns, name, layer in SPANNED]

    def _wrapper(self, site: str, layer: str):
        spans, stack, observe = self.spans, self._stack, self._observe

        def make(fn):
            if inspect.isgeneratorfunction(fn):
                # one span per resumption: the work happens in next()
                def generator(*args, **kwargs):
                    it = fn(*args, **kwargs)
                    while True:
                        index = len(spans)
                        spans.append([layer, site, 0.0, 0.0, stack[-1] if stack else -1, self.op])
                        stack.append(index)
                        spans[index][2] = perf_counter()
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        finally:
                            spans[index][3] = perf_counter()
                            stack.pop()
                        yield value

                return generator

            def call(*args, **kwargs):
                index = len(spans)
                spans.append([layer, site, 0.0, 0.0, stack[-1] if stack else -1, self.op])
                stack.append(index)
                spans[index][2] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[index][3] = perf_counter()
                    stack.pop()
                observe(site, result)
                return result

            return call

        return make

    def _observe(self, site: str, result) -> None:
        c = self.counts
        func = site.rsplit(".", 1)[-1]
        if func == "make_best_plan":
            c["planner.best_calls"] += 1
            c["planner.plan_len_sum"] += len(result.plan)
        elif func == "enumerate_plans":
            c["planner.enumerate_calls"] += 1
            c["planner.plans_enumerated"] += len(result)
            c["planner.useful"] += bool(result)
            if site == "search.enumerate_plans":
                c["search.enumerations"] += 1
        elif func == "apply_event":
            c["simulator.steps"] += 1
            c["simulator.happenings"] += result.kind == "happening"
        elif site == "simulator.execute_plan":
            c["simulator.replans"] += len(result.replans)
        elif site == "simulator.applicable_happenings":
            c["simulator.applicable_calls"] += 1
        elif site == "narrate.render_story":
            c["narrate.lines"] += result.count("\n")
        elif site == "narrate.explain":
            c["narrate.explain_links"] += len(result.chain)
        elif site == "search.forward_search":
            c["search.forward_calls"] += 1
        elif func == "plan_distance":
            c["search.evaluations"] += 1

    def begin_op(self, index: int) -> None:
        self.op = index

    def end_op(self) -> None:
        hits = workloads.evaluator_hits()
        self.counts["search.eval_hits"] += hits or 0

    @contextmanager
    def active(self):
        with _patched(self.patches()):
            yield self

    def times(self) -> dict:
        """Self time per layer and total time per spanned function, in s."""
        child = [0.0] * len(self.spans)
        for layer, site, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        best_ms = []
        for (layer, site, start, end, parent, op), inner in zip(self.spans, child):
            self_s[layer] += end - start - inner
            func = site.rsplit(".", 1)[-1]
            total_s[func] += end - start
            if func == "make_best_plan":
                best_ms.append((end - start) * 1e3)
        return {
            "planner.self_s": self_s["planner"],
            "planner.best_s": total_s["make_best_plan"],
            "planner.best_p50_ms": statistics.median(best_ms) if best_ms else 0.0,
            "simulator.self_s": self_s["simulator"],
            "narrate.render_s": total_s["render_story"],
            "narrate.explain_s": total_s["explain"],
            "search.self_s": self_s["search"],
        }


class CountPass:
    """Bare call counters on the hot calls in COUNTED."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def _counter(self, key: str):
        counts = self.counts

        def make(fn):
            def call(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return call

        return make

    def begin_op(self, index: int) -> None:
        pass

    def end_op(self) -> None:
        pass

    @contextmanager
    def active(self):
        with _patched([(ns, name, self._counter(key)) for ns, name, key in COUNTED]):
            yield self


def layer_counts(spans: SpanPass, counted: CountPass) -> dict:
    """Every per-layer count, with the two ratios derived from them."""
    c = spans.counts + counted.counts
    out = {name: c[name] for name in COUNT_NAMES}
    enumerated = c["planner.plans_enumerated"]
    out["planner.best_per_enumerated"] = c["planner.useful"] / enumerated if enumerated else 0.0
    evaluations = c["search.evaluations"]
    out["search.eval_hit_ratio"] = c["search.eval_hits"] / evaluations if evaluations else 0.0
    return out
