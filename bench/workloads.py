"""Seeded workload inputs, the operations that run on them, and output checks.

The generator builds each knowledge base with the library and hands the
program only its text (``serialize_kb``); operation inputs travel as term
text. Operations call the program through module attributes
(``planner.make_best_plan`` and so on) so that ``spans`` can wrap them.
Checks run outside the timed region and replay every plan and trace
through the independent interpreter in ``tests/oracles.py``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Optional

from incidentgen import dsl, narrate, planner, search, simulator
from incidentgen.kb import DerivationRule, KnowledgeBase, data_path
from incidentgen.rng import RngState
from incidentgen.terms import Atom, Compound, Term, format_term, term_key

WORKLOADS = ("story_batch", "dense_plan", "long_route", "search_duel")
DEFAULT_SEED = 42

# the CLI's separator between stories; batch digests join op texts with it
SEPARATOR = "----------\n"

# standard input sizes, and the tiny ones the self-tests use
SIZES = {
    "standard": {"incidents": 100, "cities": 5, "legs": 160, "starts": 2},
    "tiny": {"incidents": 5, "cities": 3, "legs": 6, "starts": 1},
}

# the CLI's `generate` defaults
HAPPENING_PROB = 0.3
# the default of 10 turns ends the saboteur duel in a stalemate
DUEL_DEPTH = 24
# distinct chains drawn for long_route, so no two routes in a run repeat
ROUTES = 8
# search_duel searches start after this many steps of the nominal route:
# the CLI's `forward` from the start, and a shorter one. They cost about
# 100 and 40 ms and the duel about 200 ms, so a batch's 90th percentile
# falls well inside the duel's times. With more, shorter searches it fell
# on the edge between two operations and jumped from run to run.
FORWARD_STARTS = (0, 4)

_AVIATION_CITIES = ("seattle", "chicago", "dallas")
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

# the plan_distance evaluator as the program defines it, captured before
# any wrapper replaces the module attribute
_EVALUATOR = getattr(search, "plan_distance", None)


def clear_caches() -> None:
    """Start an operation cold, as each CLI invocation does."""
    clear = getattr(_EVALUATOR, "cache_clear", None)
    if clear is not None:
        clear()


def evaluator_hits() -> Optional[int]:
    """Cache hits of the evaluator since the last clear, if it caches."""
    info = getattr(_EVALUATOR, "cache_info", None)
    return None if info is None else info().hits


# ------------------------------------------------------------------ inputs


def _reserved_names(*kbs: KnowledgeBase) -> set[str]:
    names = set(dsl.TOP_KEYWORDS) | {"when"}
    for kb in kbs:
        terms = [*kb.init, *([kb.goal] if kb.goal is not None else [])]
        for event in kb.events:
            terms += [event.head, *event.pcs, *event.dels, *event.adds]
        stack = list(terms)
        while stack:
            term = stack.pop()
            if isinstance(term, Atom):
                names.add(term.name)
            elif isinstance(term, Compound):
                names.add(term.functor)
                stack.extend(term.args)
    return names


def _city_names(rnd: random.Random, count: int, taken: set[str]) -> list[str]:
    names: list[str] = []
    while len(names) < count:
        name = "".join(rnd.choice(_CONSONANTS) + rnd.choice(_VOWELS) for _ in range(3))
        if name not in taken:
            taken.add(name)
            names.append(name)
    return names


def _rename_atoms(term: Term, mapping: dict[str, str]) -> Term:
    if isinstance(term, Atom):
        return Atom(mapping.get(term.name, term.name))
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_rename_atoms(a, mapping) for a in term.args))
    return term


def _rename_kb(kb: KnowledgeBase, mapping: dict[str, str]) -> KnowledgeBase:
    def terms(ts):
        return tuple(_rename_atoms(t, mapping) for t in ts)

    events = tuple(
        replace(e, head=_rename_atoms(e.head, mapping), pcs=terms(e.pcs),
                dels=terms(e.dels), adds=terms(e.adds))
        for e in kb.events
    )
    goal = None if kb.goal is None else _rename_atoms(kb.goal, mapping)
    return replace(kb, events=events, init=frozenset(terms(kb.init)), goal=goal)


def _located(base: frozenset, origin: str) -> frozenset:
    return base | {
        dsl.parse_term(f"plocation(passengers1, gate({origin}))"),
        dsl.parse_term(f"alocation(airplane1, gate({origin}))"),
    }


def _goal_at(city: str) -> Term:
    return dsl.parse_term(f"plocation(passengers1, gate({city}))")


def _spec(sitn: frozenset, goal: Term, **extra) -> dict:
    facts = [format_term(f) for f in sorted(sitn, key=term_key)]
    return {"init": facts, "goal": format_term(goal), **extra}


def _fleet() -> frozenset:
    return frozenset({dsl.parse_term("airplane(airplane1)"),
                      dsl.parse_term("passengers(passengers1)")})


def make_inputs(workload: str, seed: int, size: str = "standard") -> dict:
    """Everything one run of a workload needs, as JSON-able text.

    ``kbs`` are knowledge-base texts (the first one is the domain; a
    second one holds an adversary's actions). ``ops`` are operation
    specs, used in turn and cycled; ``batch`` ops make one batch.
    """
    sizes = SIZES[size]
    rnd = random.Random(seed)
    aviation = dsl.load_aviation()
    if workload == "story_batch":
        kbs = [aviation]
        ops = [{"kind": "incident"}]
        batch = sizes["incidents"]
    elif workload == "dense_plan":
        cities = _city_names(rnd, sizes["cities"], _reserved_names(aviation))
        pairs = [(a, b) for a in cities for b in cities if a != b]
        graph = _fleet() | {dsl.parse_term(f"flight_path({a}, {b})") for a, b in pairs}
        rnd.shuffle(pairs)
        ops = [
            _spec(_located(graph, a), _goal_at(b), kind="best_plan", expect_len=7)
            for a, b in pairs
        ]
        kbs = [replace(aviation, init=_located(graph, pairs[0][0]), goal=_goal_at(pairs[0][1]))]
        batch = 1
    elif workload == "long_route":
        legs = sizes["legs"]
        taken = _reserved_names(aviation)
        routes = []
        for _ in range(ROUTES):
            names = _city_names(rnd, legs + 1, taken)
            chain = _fleet() | {
                dsl.parse_term(f"flight_path({a}, {b})") for a, b in zip(names, names[1:])
            }
            routes.append((_located(chain, names[0]), _goal_at(names[-1])))
        ops = [_spec(sitn, goal, kind="route", max_length=legs + 6, expect_len=legs + 6)
               for sitn, goal in routes]
        kbs = [replace(aviation, init=routes[0][0], goal=routes[0][1])]
        batch = 1
    elif workload == "search_duel":
        saboteur = dsl.load_kb(data_path("saboteur.kb"), require_init_goal=False)
        mapping = dict(zip(_AVIATION_CITIES, _city_names(
            rnd, len(_AVIATION_CITIES), _reserved_names(aviation, saboteur))))
        world = _rename_kb(aviation, mapping)
        saboteur = _rename_kb(saboteur, mapping)
        nominal = planner.make_best_plan(world.goal, world.init, world)
        starts = [world.init]
        for action in nominal.plan.actions:
            starts.append(simulator.apply_event(action, "action", starts[-1], world).post_situation)
        chosen = [starts[k] for k in FORWARD_STARTS][-sizes["starts"]:]
        ops = [_spec(s, world.goal, kind="forward") for s in chosen]
        ops.append({"kind": "duel", "max_depth": DUEL_DEPTH})
        rnd.shuffle(ops)
        kbs = [world, saboteur]
        batch = len(ops)
    else:
        raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "kbs": [dsl.serialize_kb(kb) for kb in kbs],
        "ops": ops,
        "batch": batch,
    }


def parse_kbs(texts: list[str]) -> list[KnowledgeBase]:
    """Parse workload knowledge bases as the CLI reads one.

    The first text is a domain (init and goal required); later ones are
    adversary add-ons, which need neither.
    """
    return [dsl.parse_kb(text, require_init_goal=(i == 0)) for i, text in enumerate(texts)]


def validate_kbs(kbs: list[KnowledgeBase]) -> None:
    for kb in kbs:
        errors = [d for d in dsl.validate_kb(kb) if d.severity == "error"]
        if errors:
            raise ValueError("\n".join(str(d) for d in errors))


# -------------------------------------------------------------- operations


@dataclass
class Output:
    """What one operation produced, kept for its checks and digests."""

    text: str
    sitn: frozenset
    goal: Term
    kb: KnowledgeBase
    plan: Optional[planner.Plan] = None
    trace: Optional[simulator.Trace] = None
    explanations: tuple = ()
    expect_len: Optional[int] = None


def _plan_text(plan: planner.Plan) -> str:
    return "".join(format_term(a) + "\n" for a in plan.actions)


class Runner:
    """Runs one workload's operations against its parsed knowledge bases.

    A fresh runner restarts the random stream, so two runners over the
    same inputs produce the same outputs.
    """

    def __init__(self, inputs: dict, kbs: list[KnowledgeBase]) -> None:
        self.kb = kbs[0]
        self.batch = inputs["batch"]
        self.rng = RngState.seeded(inputs["seed"])
        self.sim = simulator.SimConfig(happening_prob=HAPPENING_PROB, rng=self.rng)
        self.ops = [self._prepare(spec, kbs) for spec in inputs["ops"]]

    def _prepare(self, spec: dict, kbs: list[KnowledgeBase]) -> dict:
        op = dict(spec)
        if "init" in spec:
            op["init"] = frozenset(dsl.parse_term(f) for f in spec["init"])
            op["goal"] = dsl.parse_term(spec["goal"])
        if "max_length" in spec:
            op["planner"] = planner.PlannerConfig(max_plan_length=spec["max_length"])
        if spec["kind"] == "duel":
            adversary = kbs[1]
            op["hero_kb"] = replace(self.kb, init=frozenset(self.kb.init | adversary.init))
            op["actions"] = adversary.actions
            op["story_kb"] = replace(self.kb, events=(*self.kb.events, *adversary.events))
            op["config"] = search.SearchConfig(max_depth=spec["max_depth"])
        return op

    def run(self, index: int) -> Output:
        """The program's work for operation ``index``; this is what is timed."""
        op = self.ops[index % len(self.ops)]
        kind, kb = op["kind"], self.kb
        if kind == "incident":
            trace = simulator.generate_incident(kb, replace(self.sim, rng=self.rng))
            self.rng = trace.rng_after
            return self._narrated(trace, kb.init, kb.goal, kb, None)
        if kind == "best_plan":
            scored = planner.make_best_plan(op["goal"], op["init"], kb)
            text = _plan_text(scored.plan) + f"quality: {scored.quality}\n"
            return Output(text, op["init"], op["goal"], kb, plan=scored.plan,
                          expect_len=op["expect_len"])
        if kind == "route":
            cfg = op["planner"]
            scored = planner.make_best_plan(op["goal"], op["init"], kb, cfg)
            sim = replace(self.sim, happening_prob=0.0, rng=self.rng, planner=cfg)
            trace = simulator.execute_plan(scored, op["init"], op["goal"], sim, kb)
            self.rng = trace.rng_after
            out = self._narrated(trace, op["init"], op["goal"], kb, scored.plan)
            out.expect_len = op["expect_len"]
            return out
        if kind == "forward":
            plan = search.forward_search(op["init"], op["goal"], kb)
            return Output(_plan_text(plan), op["init"], op["goal"], kb, plan=plan)
        if kind == "duel":
            hero = op["hero_kb"]
            trace = search.adversarial_story(hero, kb.goal, op["actions"], op["config"])
            story = narrate.render_story(trace, op["story_kb"])
            return Output(story, hero.init, kb.goal, op["story_kb"], trace=trace)
        raise ValueError(f"unknown operation kind {kind!r}")

    @staticmethod
    def _narrated(trace, sitn, goal, kb, plan) -> Output:
        story = narrate.render_story(trace, kb)
        explanations = tuple(narrate.explain(trace, i) for i in range(len(trace.steps)))
        return Output(story, sitn, goal, kb, plan=plan, trace=trace,
                      explanations=explanations)


# ------------------------------------------------------------------ checks

_REACHED = Atom("bench_reached")


def _reaching(kb: KnowledgeBase, sitn: frozenset) -> KnowledgeBase:
    # one extra rule whose head holds exactly when every fact of sitn does,
    # so the oracle's goal test checks a whole recorded situation
    body = tuple(sorted(sitn, key=term_key))
    return replace(kb, rules=(*kb.rules, DerivationRule(_REACHED, body)))


def _trace_problems(trace: simulator.Trace, kb: KnowledgeBase, oracles) -> list[str]:
    problems = []
    steps = trace.steps
    for prev, step in zip(steps, steps[1:]):
        if step.pre_situation != prev.post_situation:
            problems.append(f"step {step.index} does not start where step {prev.index} ended")
    # every run of actions between happenings replays, under the oracle,
    # from its recorded start to (at least) its recorded end
    segments: list[list] = [[]]
    for step in steps:
        if step.kind == "action":
            segments[-1].append(step)
        else:
            segments.append([])
    for seg in filter(None, segments):
        err = oracles.replay([s.event for s in seg], seg[0].pre_situation, _REACHED,
                             _reaching(kb, seg[-1].post_situation))
        if err is not None:
            problems.append(f"steps {seg[0].index}-{seg[-1].index}: {err}")
    final_goal = trace.goal_history[-1].goal
    err = oracles.replay((), trace.final_situation, final_goal, kb)
    if err is not None:
        problems.append(f"trace end: {err}")
    for rp in trace.replans:
        sitn = steps[rp.step_index - 1].post_situation
        goal = [g for g in trace.goal_history if g.step_index <= rp.step_index][-1].goal
        err = oracles.replay(rp.plan.plan.actions, sitn, goal, kb)
        if err is not None:
            problems.append(f"replan at step {rp.step_index}: {err}")
    return problems


def _explanation_problems(trace: simulator.Trace, explanations) -> list[str]:
    problems = []
    for step, expl in zip(trace.steps, explanations):
        roles = [link.role for link in expl.chain]
        if step.justification is None:
            ok = roles == ["exogenous"]
        else:
            ok = (bool(roles) and roles[-1] in ("top_goal", "revised_after")
                  and all(r == "precondition_of" for r in roles[:-1]))
        if expl.event != step.event or not ok:
            problems.append(f"step {step.index}: explanation roles {roles}")
    return problems


def problems(out: Output, oracles) -> list[str]:
    """Everything wrong with one operation's output; empty when correct."""
    found = []
    if out.plan is not None:
        if out.expect_len is not None and len(out.plan) != out.expect_len:
            found.append(f"plan has length {len(out.plan)}, expected {out.expect_len}")
        err = oracles.replay(out.plan.actions, out.sitn, out.goal, out.kb)
        if err is not None:
            found.append(f"plan: {err}")
    if out.trace is not None:
        if out.trace.initial_situation != out.sitn:
            found.append("trace does not start from the given situation")
        found += _trace_problems(out.trace, out.kb, oracles)
        if out.text.count("\n") != len(out.trace.steps):
            found.append("story does not have one line per step")
        if out.explanations:
            if len(out.explanations) != len(out.trace.steps):
                found.append("not every step was explained")
            found += _explanation_problems(out.trace, out.explanations)
    return found


class Digest:
    """SHA-256 of a batch's op texts joined as the CLI joins stories, and
    of the formatted why-chains of every explained step."""

    def __init__(self) -> None:
        self.text = hashlib.sha256()
        self.explain = hashlib.sha256()
        self.ops = 0

    def add(self, out: Output) -> None:
        if self.ops:
            self.text.update(SEPARATOR.encode())
        self.text.update(out.text.encode())
        for expl in out.explanations:
            self.explain.update(narrate.format_explanation(expl).encode())
        self.ops += 1

    def hexdigests(self) -> dict:
        return {"text": self.text.hexdigest(), "explain": self.explain.hexdigest()}
