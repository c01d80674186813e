"""Forward best-first search and the adversarial story mode."""

from collections import Counter
from dataclasses import replace

import pytest

from incidentgen import (
    NoPlanFoundError,
    SearchConfig,
    StalemateError,
    adversarial_story,
    enumerate_plans,
    forward_search,
    load_kb,
    parse_kb,
    parse_term,
    plan_distance,
)
from incidentgen import search
from incidentgen.kb import data_path
from conftest import facts

NOMINAL_NAMES = [
    "load",
    "taxi_to_runway",
    "take_off",
    "cruise",
    "cruise",
    "land",
    "taxi_to_gate",
    "unload",
]


@pytest.fixture(scope="module")
def saboteur():
    return load_kb(str(data_path("saboteur.kb")), require_init_goal=False)


def names(steps):
    return [s.event.functor for s in steps]


# ---------------------------------------------------------------- distance


def test_plan_distance_counts_remaining_actions(kb, boarded):
    assert plan_distance(kb.init, kb.goal, kb) == -8
    assert plan_distance(boarded, kb.goal, kb) == -7


def test_plan_distance_zero_when_satisfied(kb):
    assert plan_distance(facts("plocation(passengers1, gate(dallas))"), kb.goal, kb) == 0


def test_plan_distance_sentinel_for_unreachable(kb):
    # evacuated into a field: nothing ever picks the passengers back up
    marooned = facts(
        "airplane(airplane1)",
        "passengers(passengers1)",
        "plocation(passengers1, on_ground_near(chicago))",
        "alocation(airplane1, on_ground_near(chicago))",
        "flight_path(seattle, chicago)",
        "flight_path(chicago, dallas)",
    )
    assert plan_distance(marooned, kb.goal, kb) == -(10**6)


# ------------------------------------------------------------------ search


def test_forward_search_finds_the_nominal_route(kb):
    plan = forward_search(kb.init, kb.goal, kb)
    assert [s.action.functor for s in plan.steps] == NOMINAL_NAMES


def test_forward_search_on_satisfied_goal_is_empty(kb):
    plan = forward_search(kb.init, parse_term("plocation(passengers1, gate(seattle))"), kb)
    assert plan.steps == ()


def test_forward_search_respects_depth(kb):
    with pytest.raises(NoPlanFoundError, match="within depth 2"):
        forward_search(kb.init, kb.goal, kb, SearchConfig(max_depth=2))


def test_forward_agrees_with_backward_planner_from_init(kb):
    backward = {tuple(p.actions) for p in enumerate_plans(kb.goal, kb.init, kb)}
    plan = forward_search(kb.init, kb.goal, kb)
    assert tuple(s.action for s in plan.steps) in backward


def test_forward_reaches_sequences_backward_chaining_misses(kb, forward_from_init):
    """The two regimes disagree on purpose: walking forward, evacuation
    at the dallas gate satisfies the location goal, while the backward
    chainer commits to the airplane's position before placing the load
    and never completes that branch."""
    backward = {tuple(p.actions) for p in enumerate_plans(kb.goal, kb.init, kb)}
    assert len(forward_from_init) == 2
    assert backward < forward_from_init
    extra = next(iter(forward_from_init - backward))
    assert extra[-1].functor == "evacuate"


def test_search_config_validation():
    with pytest.raises(ValueError, match="max_depth"):
        SearchConfig(max_depth=0)


# ------------------------------------------------------------- adversarial


def test_saboteur_forces_a_repeat_leg(kb, saboteur):
    hero_kb = replace(kb, init=kb.init | saboteur.init)
    story = adversarial_story(hero_kb, kb.goal, saboteur.actions, SearchConfig(max_depth=24))
    assert names(story.steps) == [
        "load",
        "taxi_to_runway",
        "take_off",
        "cruise",
        "sabotage",
        "cruise",
        "cruise",
        "land",
        "taxi_to_gate",
        "unload",
    ]
    # the same leg flown twice, before and after the sabotage
    assert story.steps[3].event == story.steps[5].event
    assert story.steps[4].justification is None
    assert all(
        story.steps[i].justification is not None for i in range(10) if i != 4
    )
    assert story.rng_after is None


def test_a_duel_asks_for_the_moves_of_each_situation_once(kb, saboteur, monkeypatch):
    # the hero's searches of successive turns expand many of the same
    # situations; the story keeps each one's moves, as it keeps its score
    calls = Counter()

    def counted(events, sitn, on, _call=search.applicable):
        calls[sitn, on.events] += 1
        return _call(events, sitn, on)

    monkeypatch.setattr(search, "applicable", counted)
    hero_kb = replace(kb, init=kb.init | saboteur.init)
    story = adversarial_story(hero_kb, kb.goal, saboteur.actions, SearchConfig(max_depth=24))
    assert len(story.steps) == 10
    assert sum(calls.values()) == len(calls) == 21


def test_adversarial_story_without_antagonist_matches_solo_search(kb):
    story = adversarial_story(kb, kb.goal, (), SearchConfig(max_depth=16))
    assert names(story.steps) == NOMINAL_NAMES


def test_adversarial_turn_budget(kb, saboteur):
    two_away = replace(
        kb,
        init=facts(
            "airplane(airplane1)",
            "passengers(passengers1)",
            "contains(airplane1, passengers1)",
            "alocation(airplane1, runway(dallas))",
            "flight_path(seattle, chicago)",
            "flight_path(chicago, dallas)",
        ),
    )
    with pytest.raises(StalemateError, match="after 2 turns"):
        adversarial_story(two_away, kb.goal, saboteur.actions, SearchConfig(max_depth=2))
    story = adversarial_story(two_away, kb.goal, saboteur.actions, SearchConfig(max_depth=4))
    assert names(story.steps) == ["taxi_to_gate", "unload"]


def test_open_moves_of_one_story_take_distinct_names():
    hero = parse_kb(
        'action a(X) {add: pa; text: "a {X}";}\n'
        'action b(Y) {pre: pa; add: done; text: "b {Y}";}\n'
        "init {s;}\n"
        "goal done.\n"
    )
    noise = parse_kb('action noise(Z) {add: loud; text: "noise {Z}";}\n', require_init_goal=False)
    story = adversarial_story(hero, hero.goal, noise.actions)
    moves = [parse_term(t) for t in ("a(_G1)", "noise(_G2)", "b(_G3)")]
    assert [s.event for s in story.steps] == moves
    # a protagonist step's justification names the move it made
    assert all(s.justification.action == s.event for s in story.steps if s.justification)


def test_antagonist_actions_must_not_collide(kb):
    with pytest.raises(ValueError, match="collide"):
        adversarial_story(kb, kb.goal, (kb.actions[0],))
