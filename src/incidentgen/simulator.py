"""Step-wise plan execution with stochastic happening injection.

The simulator walks the current plan one action at a time. Before each
action it may inject a happening: either the injection schedule names
one for this step, or a probability draw fires and a random applicable
happening is chosen. After a happening the goal is reassessed against
the revision rules and a fresh best plan replaces the remainder of the
old one. Everything that occurs is recorded in a Trace.

A best plan is a pure function of its goal, situation and planner
config, and the stories of a run ask the same few of them over and
over, so the knowledge base keeps every plan the simulator asks for,
first plans and replans alike, for as long as it lives.

Randomness is threaded functionally (see :mod:`incidentgen.rng`), so a
given configuration always reproduces the same trace. Every question
about the knowledge base is asked of :mod:`incidentgen.planner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .kb import KnowledgeBase, Situation, UnknownEventError
from .planner import (
    NoPlanFoundError,
    PlannerConfig,
    PlanStep,
    ScoredPlan,
    applicable,
    apply_effects,
    first_application,
    iter_satisfying,
    make_best_plan,
    revise_goal,
)
from .rng import RngState, maybe, rnd_member
from .terms import (
    IncidentgenError,
    Substitution,
    Term,
    format_term,
    substitute,
    unify,
    variables,
)


class PreconditionViolationError(IncidentgenError):
    """A plan action's preconditions no longer hold (stale plan)."""

    def __init__(self, action: Term, missing: Term, steps: Sequence["TraceStep"] = ()):
        self.action = action
        self.missing = missing
        self.steps = tuple(steps)
        super().__init__(
            f"precondition {format_term(missing)} of {format_term(action)} "
            f"does not hold (after {len(self.steps)} executed steps)"
        )


class InvalidInjectionError(IncidentgenError):
    """An injection schedule entry names an inapplicable happening."""


@dataclass(frozen=True)
class SimConfig:
    happening_prob: float = 0.3
    max_happenings: int = 1
    rng: RngState = field(default_factory=RngState.table)
    injection_schedule: tuple[tuple[int, Term], ...] = ()
    planner: PlannerConfig = field(default_factory=PlannerConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.happening_prob <= 1.0:
            raise ValueError("happening_prob must lie in [0, 1]")
        if self.max_happenings < 0:
            raise ValueError("max_happenings must be nonnegative")


@dataclass(frozen=True)
class GoalEntry:
    step_index: int
    goal: Term
    reason: str  # "initial" or "revised"
    trigger: Optional[Term] = None


@dataclass(frozen=True)
class Replan:
    step_index: int
    plan: ScoredPlan


@dataclass(frozen=True)
class TraceStep:
    index: int
    event: Term
    kind: str  # "action" or "happening"
    pre_situation: Situation
    post_situation: Situation
    justification: Optional[PlanStep] = None
    bindings: Substitution = field(default_factory=Substitution)


@dataclass(frozen=True)
class Trace:
    steps: tuple[TraceStep, ...]
    goal_history: tuple[GoalEntry, ...]
    replans: tuple[Replan, ...]
    initial_situation: Situation
    rng_after: Optional[RngState] = None

    @property
    def final_situation(self) -> Situation:
        if self.steps:
            return self.steps[-1].post_situation
        return self.initial_situation


def applicable_happenings(sitn: Situation, kb: KnowledgeBase) -> list[Term]:
    """Happening instances that apply in ``sitn``: knowledge-base
    declaration order, then term order within one definition."""
    return [instance for instance, _, _ in applicable(kb.happenings, sitn, kb)]


def _first_missing(
    pcs: Sequence[Term], sitn: Situation, kb: KnowledgeBase, subst: Substitution
) -> Term:
    # greedy scan for the message only: the first precondition with no
    # solution under the bindings accumulated so far
    for pc in pcs:
        extended = next(iter_satisfying([pc], sitn, kb, subst), None)
        if extended is None:
            return substitute(pc, subst)
        subst = extended
    return substitute(pcs[-1], subst)


def apply_event(
    event: Term,
    kind: str,
    sitn: Situation,
    kb: KnowledgeBase,
    index: int = 0,
    justification: Optional[PlanStep] = None,
    steps: Sequence[TraceStep] = (),
) -> TraceStep:
    """Execute one ground event against a situation.

    Verifies the matching definition's preconditions (the solution from
    ``first_application`` binds any open variables, the one the planner
    chose if ``justification`` records it), applies its effects, and
    returns the finished trace step.
    """
    match = kb.match_event(event, kind=kind)
    if match is None:
        raise UnknownEventError(event)
    event_def, head_subst = match
    planned = justification.solution if justification is not None else None
    solution = first_application(event_def, sitn, kb, head_subst, planned)
    if solution is None:
        missing = _first_missing(event_def.pcs, sitn, kb, head_subst)
        raise PreconditionViolationError(event, missing, steps)
    dels = [substitute(d, solution) for d in event_def.dels]
    adds = [substitute(a, solution) for a in event_def.adds]
    post = apply_effects(dels, adds, sitn)
    bindings = Substitution()
    for v in {v for t in (event_def.head, *event_def.pcs) for v in variables(t)}:
        value = substitute(v, solution)
        if value != v:
            bindings = bindings.bind(v, value)
    return TraceStep(
        index=index,
        event=event,
        kind=kind,
        pre_situation=sitn,
        post_situation=post,
        justification=justification,
        bindings=bindings,
    )


# a knowledge base keeps at most this many plans. story_batch asks 16
# distinct queries per run, generate --seed 7 --count 200 --prob 0.6
# --max-happenings 3 asks 22; at 6.6-7.6 KB an aviation entry (each step
# keeps its solution), a full table holds about 2 MiB
_PLANS_MAX = 256


def _best_plan(goal: Term, sitn: Situation, kb: KnowledgeBase, cfg: PlannerConfig) -> ScoredPlan:
    # a query that finds no plan is not kept: it ends the run
    key = goal, frozenset(sitn), cfg
    scored = kb._plans.get(key)
    if scored is None:
        scored = make_best_plan(goal, sitn, kb, cfg)
        if len(kb._plans) < _PLANS_MAX:
            kb._plans[key] = scored
    return scored


def execute_plan(
    plan: ScoredPlan,
    sitn: Situation,
    goal: Term,
    cfg: Optional[SimConfig],
    kb: KnowledgeBase,
) -> Trace:
    """Run a plan to completion, injecting and reacting to happenings.

    Per step, in order: if happenings are still permitted and either
    the schedule names this step or a probability draw fires and some
    happening is applicable, that happening occurs, the goal is
    reassessed, and the plan is rebuilt; otherwise the next plan action
    executes after its preconditions are re-verified. A drawn happening
    fires only while the budget exceeds the schedule's entries for
    later steps, so it never takes one of theirs.
    """
    cfg = cfg or SimConfig()
    schedule: dict[int, Term] = {}
    for idx, term in cfg.injection_schedule:
        if idx in schedule:
            raise InvalidInjectionError(f"duplicate injection index {idx}")
        schedule[idx] = term
    rng = cfg.rng
    budget = cfg.max_happenings
    current_goal = goal
    queue = list(plan.plan.steps)
    steps: list[TraceStep] = []
    goal_history = [GoalEntry(0, goal, "initial")]
    replans: list[Replan] = []

    while queue:
        index = len(steps)
        happening: Optional[Term] = None
        if budget > 0:
            scheduled = schedule.pop(index, None)
            if scheduled is not None:
                candidates = [
                    h
                    for h in applicable_happenings(sitn, kb)
                    if unify(h, scheduled) is not None
                ]
                if not candidates:
                    raise InvalidInjectionError(
                        f"scheduled happening {format_term(scheduled)} is not "
                        f"applicable at step {index}"
                    )
                happening = candidates[0]
            else:
                drawn, rng = maybe(cfg.happening_prob, rng)
                if drawn and budget > sum(i > index for i in schedule):
                    candidates = applicable_happenings(sitn, kb)
                    if candidates:
                        happening, rng = rnd_member(candidates, rng)

        if happening is not None:
            step = apply_event(happening, "happening", sitn, kb, index, None, steps)
            steps.append(step)
            sitn = step.post_situation
            budget -= 1
            current_goal, trigger = revise_goal(sitn, current_goal, kb)
            if trigger is not None:
                goal_history.append(GoalEntry(len(steps), current_goal, "revised", trigger))
            try:
                scored = _best_plan(current_goal, sitn, kb, cfg.planner)
            except NoPlanFoundError as err:
                raise NoPlanFoundError(
                    current_goal,
                    f"unresolvable incident: no plan achieves "
                    f"{format_term(current_goal)} after {format_term(happening)}",
                ) from err
            replans.append(Replan(len(steps), scored))
            queue = list(scored.plan.steps)
            continue

        plan_step = queue.pop(0)
        step = apply_event(
            plan_step.action, "action", sitn, kb, index, plan_step, steps
        )
        steps.append(step)
        sitn = step.post_situation

    unfired = sorted(schedule)
    if unfired:
        raise InvalidInjectionError(
            f"injection schedule entries never fired at steps "
            f"{', '.join(map(str, unfired))}"
        )
    return Trace(
        steps=tuple(steps),
        goal_history=tuple(goal_history),
        replans=tuple(replans),
        initial_situation=steps[0].pre_situation if steps else sitn,
        rng_after=rng,
    )


def generate_incident(kb: KnowledgeBase, cfg: Optional[SimConfig] = None) -> Trace:
    """Plan for the knowledge base's goal from its initial situation
    and simulate the execution.

    That first plan is the same for every incident, so the knowledge
    base keeps it, as it keeps the replans (see ``_best_plan``).
    """
    if kb.goal is None:
        raise ValueError("knowledge base declares no goal")
    cfg = cfg or SimConfig()
    scored = _best_plan(kb.goal, kb.init, kb, cfg.planner)
    return execute_plan(scored, kb.init, kb.goal, cfg, kb)
