"""Forward search over action applications, solo and adversarial.

Where the backward planner reasons from the goal, these helpers reason
from the situation: apply every applicable action, score the results,
and chase the most promising one (best-first). Scoring delegates back
to the planner: its ``plan_distance`` rates a situation by the length
of the shortest remaining plan, which its bounded search finds without
building any plan; 0 means the goal holds. A story scores each
situation once, in one table keyed by situation, and lists the moves
that apply in each situation once, in another.

The adversarial loop plays a protagonist against an antagonist with a
private action repertoire. Turns alternate strictly, protagonist
first; the protagonist replans each turn toward its goal, and the
antagonist plays whichever of its applicable actions leaves the
protagonist worst off (the exact zero-sum counter). An antagonist
with nothing applicable passes. A move that keeps a variable is
renamed into the story's own scope of fresh names.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .kb import EventDef, KnowledgeBase, Situation
from .planner import (
    NoPlanFoundError,
    Plan,
    PlanStep,
    applicable,
    apply_effects,
    plan_distance,
)
from .simulator import GoalEntry, Trace, apply_event
from .terms import FreshNames, IncidentgenError, Term, fresh_floor, ground, substitute, term_key


class StalemateError(IncidentgenError):
    """The adversarial loop hit its turn bound with the goal unmet."""

    def __init__(self, turns: int):
        self.turns = turns
        super().__init__(f"stalemate: goal not reached after {turns} turns")


@dataclass(frozen=True)
class SearchConfig:
    """max_depth bounds plan length in forward_search and total turns
    in adversarial_story."""

    max_depth: int = 10

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


def _applicable_actions(
    sitn: Situation, kb: KnowledgeBase
) -> list[tuple[Term, Situation]]:
    """Action instances that apply in sitn with ground effects, with their
    results, in the order ``planner.applicable`` gives them. An instance
    may keep a head variable that no effect mentions."""
    out: list[tuple[Term, Situation]] = []
    for instance, fresh, solution in applicable(kb.actions, sitn, kb):
        dels = [substitute(d, solution) for d in fresh.dels]
        adds = [substitute(a, solution) for a in fresh.adds]
        if all(map(ground, dels + adds)):
            out.append((instance, apply_effects(dels, adds, sitn)))
    return out


def _score(scores: dict[Situation, int], sitn: Situation, goal: Term, kb: KnowledgeBase) -> int:
    # a story's goal and knowledge base are fixed, so its table of
    # plan_distance is keyed by situation
    if sitn not in scores:
        scores[sitn] = plan_distance(sitn, goal, kb)
    return scores[sitn]


def forward_search(
    sitn: Situation,
    goal: Term,
    kb: KnowledgeBase,
    cfg: Optional[SearchConfig] = None,
) -> Plan:
    """Best-first forward search for an action sequence reaching goal.

    The frontier is ordered by each situation's plan_distance, ties
    broken by insertion order, so results are deterministic. Sequences
    longer than max_depth are not expanded.
    """
    return _forward(sitn, goal, kb, (cfg or SearchConfig()).max_depth, {}, {})


def _forward(
    sitn: Situation, goal: Term, kb: KnowledgeBase, max_depth: int, scores: dict, moves: dict
) -> Plan:
    # a story's tables, keyed by situation: its scores, and its moves
    counter = itertools.count()
    heap: list[tuple[int, int, Situation, tuple[Term, ...]]] = [
        (-_score(scores, sitn, goal, kb), next(counter), sitn, ())
    ]
    visited = {sitn}
    while heap:
        priority, _, here, actions = heapq.heappop(heap)
        if priority == 0:
            return Plan(
                steps=tuple(PlanStep(action=a, achieves_goal=goal) for a in actions)
            )
        if len(actions) >= max_depth:
            continue
        if here not in moves:
            moves[here] = _applicable_actions(here, kb)
        for instance, post in moves[here]:
            if post in visited:
                continue
            visited.add(post)
            score = _score(scores, post, goal, kb)
            heapq.heappush(heap, (-score, next(counter), post, actions + (instance,)))
    raise NoPlanFoundError(goal, f"no plan within depth {max_depth}")


def adversarial_story(
    kb: KnowledgeBase,
    hero_goal: Term,
    antagonist_actions: Sequence[EventDef],
    cfg: Optional[SearchConfig] = None,
) -> Trace:
    """Two agents alternate from kb.init until hero_goal holds.

    The protagonist runs forward_search each turn and plays the first
    action of the found plan (raising NoPlanFoundError if there is
    none); the antagonist plays its applicable action minimizing the
    protagonist's plan_distance, term order breaking ties, or passes.
    Antagonist definitions must not collide with the knowledge base's
    own actions. Passes leave no trace step, so the returned trace
    holds actions only; antagonist steps carry no justification.
    """
    cfg = cfg or SearchConfig()
    antagonist_actions = tuple(antagonist_actions)
    own = {(e.name, e.arity) for e in kb.actions}
    clash = sorted(
        f"{e.name}/{e.arity}"
        for e in antagonist_actions
        if (e.name, e.arity) in own
    )
    if clash:
        raise ValueError(
            f"antagonist actions collide with the knowledge base's: {', '.join(clash)}"
        )
    # matching covers both repertoires; planning and scoring only the hero's
    full_kb = replace(kb, events=(*kb.events, *antagonist_actions))
    antag_kb = replace(kb, events=antagonist_actions)
    scores: dict[Situation, int] = {}
    moves: dict[Situation, list[tuple[Term, Situation]]] = {}
    # the story's open moves come from separate queries; each takes
    # names here, above every _G name the story starts from
    names = FreshNames(fresh_floor((*kb.init, hero_goal)))

    def renamed(move: Term) -> Term:
        return move if ground(move) else names.rename((move,))[0][0]

    sitn = kb.init
    steps = []
    turn = 0
    while _score(scores, sitn, hero_goal, kb) != 0:
        if turn >= cfg.max_depth:
            raise StalemateError(turn)
        move = why = None
        if turn % 2 == 0:
            why = _forward(sitn, hero_goal, kb, cfg.max_depth, scores, moves).steps[0]
            why = replace(why, action=renamed(why.action))
            move = why.action
        elif candidates := _applicable_actions(sitn, antag_kb):
            move, _ = min(
                candidates,
                key=lambda pair: (_score(scores, pair[1], hero_goal, kb), term_key(pair[0])),
            )
            move = renamed(move)
        if move is not None:
            rec = apply_event(
                move, "action", sitn, full_kb, index=len(steps), justification=why, steps=steps
            )
            steps.append(rec)
            sitn = rec.post_situation
        turn += 1
    return Trace(
        steps=tuple(steps),
        goal_history=(GoalEntry(0, hero_goal, "initial"),),
        replans=(),
        initial_situation=kb.init,
    )
