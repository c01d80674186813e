"""World simulation: injection, spontaneous happenings, goal revision."""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incidentgen import (
    IncidentgenError,
    InvalidInjectionError,
    NoPlanFoundError,
    Plan,
    PlannerConfig,
    PlanStep,
    PreconditionViolationError,
    RngState,
    ScoredPlan,
    SimConfig,
    UnknownEventError,
    applicable_happenings,
    apply_event,
    execute_plan,
    enumerate_plans,
    explain,
    format_explanation,
    generate_incident,
    iter_satisfying,
    make_best_plan,
    parse_kb,
    parse_term,
    plan_distance,
    render_story,
    revise_goal,
)
from incidentgen import simulator
from conftest import facts


def heads(trace):
    return [(s.kind, s.event) for s in trace.steps]


def events(trace):
    return [s.event for s in trace.steps]


def inject(*entries):
    return tuple((i, parse_term(t)) for i, t in entries)


# ------------------------------------------------------------- happenings


def test_applicable_happenings_at_the_gate(kb):
    assert applicable_happenings(kb.init, kb) == [parse_term("fire(engine)")]


def test_applicable_happenings_once_boarded(kb, boarded):
    assert applicable_happenings(boarded, kb) == [
        parse_term("fire(engine)"),
        parse_term("ill_passenger"),
    ]


# ------------------------------------------------------------ goal revision


def test_revision_rewrites_location_goal_on_fire(kb, boarded):
    goal, trigger = revise_goal(boarded | facts("on_fire(engine)"), kb.goal, kb)
    assert goal == parse_term("p_on_ground(passengers1)")
    assert trigger == parse_term("on_fire(engine)")


def test_revision_first_match_prefers_fire_over_illness(kb, boarded):
    both = boarded | facts("on_fire(engine)", "ill_passenger")
    goal, trigger = revise_goal(both, kb.goal, kb)
    assert goal == parse_term("p_on_ground(passengers1)")
    assert trigger == parse_term("on_fire(engine)")


def test_revision_on_illness_alone(kb, boarded):
    goal, trigger = revise_goal(boarded | facts("ill_passenger"), kb.goal, kb)
    assert goal == parse_term("medical_help(passengers1)")
    assert trigger == parse_term("ill_passenger")


def test_no_revision_without_trigger(kb, boarded):
    goal, trigger = revise_goal(boarded, kb.goal, kb)
    assert goal == kb.goal and trigger is None


def test_revision_ignores_non_location_goals(kb, boarded):
    goal, trigger = revise_goal(
        boarded | facts("on_fire(engine)"), parse_term("medical_help(passengers1)"), kb
    )
    assert goal == parse_term("medical_help(passengers1)") and trigger is None


# ------------------------------------------------------------- apply_event


def test_apply_event_steps_the_world(kb):
    step = apply_event(parse_term("load(passengers1, airplane1)"), "action", kb.init, kb)
    assert step.post_situation == (
        kb.init - facts("plocation(passengers1, gate(seattle))")
    ) | facts("contains(airplane1, passengers1)")
    assert step.kind == "action" and step.index == 0


def test_apply_event_rejects_unknown_event(kb):
    with pytest.raises(UnknownEventError):
        apply_event(parse_term("teleport(airplane1)"), "action", kb.init, kb)


def test_apply_event_rejects_unsatisfied_preconditions(kb):
    with pytest.raises(PreconditionViolationError):
        apply_event(parse_term("take_off(airplane1, seattle)"), "action", kb.init, kb)


# ------------------------------------------------- injected-incident traces


def test_illness_after_takeoff_turns_the_plane_around(kb):
    trace = generate_incident(
        kb, SimConfig(happening_prob=0.0, injection_schedule=inject((3, "ill_passenger")))
    )
    assert events(trace) == [
        parse_term(t)
        for t in (
            "load(passengers1, airplane1)",
            "taxi_to_runway(airplane1)",
            "take_off(airplane1, seattle)",
            "ill_passenger",
            "land(airplane1, seattle)",
            "taxi_to_gate(airplane1)",
            "unload(passengers1, airplane1)",
            "medical_help(passengers1)",
        )
    ]
    assert [s.kind for s in trace.steps] == ["action"] * 3 + ["happening"] + ["action"] * 4
    assert [
        (g.step_index, g.goal, g.reason, g.trigger) for g in trace.goal_history
    ] == [
        (0, kb.goal, "initial", None),
        (4, parse_term("medical_help(passengers1)"), "revised", parse_term("ill_passenger")),
    ]
    assert [(r.step_index, r.plan.quality) for r in trace.replans] == [(4, 60)]
    # three spontaneous checks before the injection, none after the budget is spent
    assert trace.rng_after == RngState.table(3)


def test_fire_enroute_forces_evacuation_at_dallas(kb):
    trace = generate_incident(
        kb, SimConfig(happening_prob=0.0, injection_schedule=inject((5, "fire(engine)")))
    )
    tail = events(trace)[5:]
    assert tail == [
        parse_term("fire(engine)"),
        parse_term("land(airplane1, dallas)"),
        parse_term("evacuate(airplane1)"),
    ]
    revised = trace.goal_history[-1]
    assert revised.goal == parse_term("p_on_ground(passengers1)")
    assert revised.trigger == parse_term("on_fire(engine)")


def test_unconditional_replan_even_when_goal_survives(kb):
    # the second happening does not revise the goal, yet planning reruns
    trace = generate_incident(
        kb,
        SimConfig(
            happening_prob=0.0,
            max_happenings=2,
            injection_schedule=inject((1, "ill_passenger"), (3, "fire(engine)")),
        ),
    )
    assert [s.functor if hasattr(s, "functor") else s.name for s in events(trace)] == [
        "load",
        "ill_passenger",
        "unload",
        "fire",
        "medical_help",
    ]
    assert len(trace.goal_history) == 2  # the fire revised nothing
    assert [(r.step_index, r.plan.quality) for r in trace.replans] == [(2, 80), (4, 90)]


def test_injection_entries_must_fire(kb):
    with pytest.raises(InvalidInjectionError, match="never fired at steps 99"):
        generate_incident(
            kb,
            SimConfig(happening_prob=0.0, injection_schedule=inject((99, "ill_passenger"))),
        )


def test_injection_must_be_applicable(kb):
    # nobody is aboard before load, so illness cannot strike at step 0
    with pytest.raises(InvalidInjectionError, match="not applicable at step 0"):
        generate_incident(
            kb,
            SimConfig(happening_prob=0.0, injection_schedule=inject((0, "ill_passenger"))),
        )


def test_duplicate_injection_indices_rejected(kb):
    with pytest.raises(InvalidInjectionError, match="duplicate injection index 3"):
        generate_incident(
            kb,
            SimConfig(
                happening_prob=0.0,
                injection_schedule=inject((3, "ill_passenger"), (3, "fire(engine)")),
            ),
        )


def test_a_drawn_happening_leaves_the_budget_to_a_scheduled_one(kb):
    # every draw fires, but the one happening allowed is the schedule's:
    # steps 0-2 draw and act, and no draw follows the illness
    trace = generate_incident(
        kb, SimConfig(happening_prob=1.0, injection_schedule=inject((3, "ill_passenger")))
    )
    assert heads(trace)[:4] == [
        ("action", parse_term("load(passengers1, airplane1)")),
        ("action", parse_term("taxi_to_runway(airplane1)")),
        ("action", parse_term("take_off(airplane1, seattle)")),
        ("happening", parse_term("ill_passenger")),
    ]
    assert trace.rng_after == RngState.table(3)


# ----------------------------------------------------------- random draws


def test_quiet_run_draws_once_per_action(kb):
    trace = generate_incident(kb, SimConfig(happening_prob=0.0))
    assert len(trace.steps) == 8
    assert trace.rng_after == RngState.table(8)


def test_no_draws_once_the_happening_budget_is_zero(kb):
    trace = generate_incident(kb, SimConfig(happening_prob=0.9, max_happenings=0))
    assert len(trace.steps) == 8
    assert all(s.kind == "action" for s in trace.steps)
    assert trace.rng_after == RngState.table(0)


def test_fresh_table_run_catches_fire_immediately(kb):
    # 0.174232 < 0.3 fires a happening; 0.186011 picks among one candidate
    trace = generate_incident(kb)
    assert heads(trace) == [("happening", parse_term("fire(engine)"))]
    assert trace.rng_after == RngState.table(2)
    # the revised goal holds at the gate, so the replan is empty
    assert [(r.step_index, r.plan.quality) for r in trace.replans] == [(1, 100)]
    assert trace.goal_history[-1].goal == parse_term("p_on_ground(passengers1)")


def test_no_choice_draw_when_no_happening_is_applicable():
    windy = parse_kb(
        """
action step1 { pre: at(start); del: at(start); add: at(middle); text: "Stepped once."; }
action step2 { pre: at(middle); del: at(middle); add: at(goal_spot); text: "Stepped twice."; }
happening gust { pre: windy; add: blown; }
init { at(start); }
goal at(goal_spot).
"""
    )
    trace = generate_incident(windy, SimConfig(happening_prob=1.0))
    assert [s.kind for s in trace.steps] == ["action", "action"]
    # one applicability check per step, no member choice
    assert trace.rng_after == RngState.table(2)


def test_seeded_run_is_reproducible(kb):
    cfg = SimConfig(rng=RngState.seeded(7))
    first = generate_incident(kb, cfg)
    again = generate_incident(kb, cfg)
    assert events(first) == [
        parse_term(t)
        for t in (
            "load(passengers1, airplane1)",
            "ill_passenger",
            "unload(passengers1, airplane1)",
            "medical_help(passengers1)",
        )
    ]
    assert events(again) == events(first)
    assert first.rng_after == again.rng_after
    assert first.rng_after.mode == "seeded"


# ------------------------------------------------------------- termination


def test_every_trace_ends_with_its_active_goal_satisfied(kb):
    rng = RngState.seeded(42)
    for _ in range(40):
        cfg = SimConfig(rng=rng)
        trace = generate_incident(kb, cfg)
        goal = trace.goal_history[-1].goal
        solutions = iter_satisfying([goal], trace.final_situation, kb)
        assert next(solutions, None) is not None
        rng = trace.rng_after


COLLAPSE_KB = """
action go { pre: at(start); del: at(start); add: at(finish); text: "Went."; }
happening collapse { pre: at(start); add: rubble; }
revise at(finish) when rubble => rescued.
init { at(start); }
goal at(finish).
"""
COLLAPSE = SimConfig(happening_prob=0.0, injection_schedule=inject((0, "collapse")))


def test_unresolvable_revision_raises():
    with pytest.raises(NoPlanFoundError, match="unresolvable incident"):
        generate_incident(parse_kb(COLLAPSE_KB), COLLAPSE)


def test_execute_plan_checks_preconditions(kb):
    doomed = ScoredPlan(
        Plan((PlanStep(parse_term("unload(passengers1, airplane1)"), kb.goal),)), 90
    )
    with pytest.raises(PreconditionViolationError, match="unload"):
        execute_plan(doomed, kb.init, kb.goal, SimConfig(happening_prob=0.0), kb)


def test_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SimConfig(happening_prob=1.5)
    with pytest.raises(ValueError):
        SimConfig(max_happenings=-1)


# ------------------------------------------------------------ kept plans


def _queries(trace):
    # the (goal, situation) of each replan: the goal in force once the
    # happening before it struck, and the situation it left
    for replan in trace.replans:
        goal = [e.goal for e in trace.goal_history if e.step_index <= replan.step_index][-1]
        yield goal, trace.steps[replan.step_index - 1].post_situation


def test_a_run_plans_the_knowledge_base_goal_once(kb, monkeypatch):
    # and every other query once: one planner call per distinct question
    calls = Counter()

    def counted(goal, sitn, on, cfg=None, _call=simulator.make_best_plan):
        calls[goal, sitn] += 1
        return _call(goal, sitn, on, cfg)

    monkeypatch.setattr(simulator, "make_best_plan", counted)
    fresh, rng, replans = replace(kb), RngState.seeded(42), []
    for _ in range(100):
        trace = generate_incident(fresh, SimConfig(rng=rng))
        replans += _queries(trace)
        rng = trace.rng_after
    asked = {(kb.goal, kb.init), *replans}
    assert (len(asked), len(replans)) == (15, 93)
    assert calls == Counter(asked)


_CONFIGS = (
    PlannerConfig(),
    PlannerConfig(scorer="constant"),
    PlannerConfig(max_plan_length=3),
    PlannerConfig(max_plan_length=9),
)


def _stories(kb, cfg, count=3):
    # each incident's trace, story and why-chains, or the error that ended the run
    told = []
    rng = cfg.rng
    for _ in range(count):
        try:
            trace = generate_incident(kb, replace(cfg, rng=rng))
        except IncidentgenError as err:
            return told + [(type(err), str(err))]
        whys = [format_explanation(explain(trace, i)) for i in range(len(trace.steps))]
        told.append((trace, render_story(trace, kb), whys))
        rng = trace.rng_after
    return told


# a drawn prob above 0 makes replans, and the explicit example always does
@settings(max_examples=30)
@example(7, 0.7, 2, PlannerConfig(), [])
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([0.0, 0.3, 0.7]),
    st.integers(0, 2),
    st.sampled_from(_CONFIGS),
    st.lists(st.sampled_from(_CONFIGS), max_size=3),
)
def test_a_warmed_knowledge_base_tells_the_stories_a_fresh_one_does(
    kb, seed, prob, max_happenings, planner, warmers
):
    cfg = SimConfig(
        happening_prob=prob,
        max_happenings=max_happenings,
        rng=RngState.seeded(seed),
        planner=planner,
    )
    warm = replace(kb)
    for other in (planner, *warmers):
        _stories(warm, replace(cfg, rng=RngState.seeded(seed + 1), planner=other), 2)
    assert _stories(warm, cfg) == _stories(replace(kb), cfg)


def test_a_kept_first_plan_serves_only_its_own_config(kb):
    # each config keeps its own plans, first plans and replans alike
    standard = SimConfig(happening_prob=0.6, max_happenings=3, rng=RngState.seeded(7))
    constant = replace(standard, planner=PlannerConfig(scorer="constant"))
    warm = replace(kb)
    _stories(warm, standard, 20)
    with pytest.raises(NoPlanFoundError):
        generate_incident(warm, replace(standard, planner=PlannerConfig(max_plan_length=3)))
    assert _stories(warm, constant, 20) == _stories(replace(kb), constant, 20)
    kept = {}
    for (goal, sitn, cfg), scored in warm._plans.items():
        assert scored == make_best_plan(goal, sitn, replace(kb), cfg)
        kept.setdefault(cfg, set()).add((goal, sitn))
    assert set(kept) == {standard.planner, constant.planner}
    for cfg in (standard, constant):
        alone = replace(kb)
        _stories(alone, cfg, 20)
        assert len(alone._plans) > 1
        assert kept[cfg.planner] == {(goal, sitn) for goal, sitn, _ in alone._plans}


def test_a_full_plan_table_changes_no_story(kb, monkeypatch):
    cfg = SimConfig(happening_prob=0.6, max_happenings=3, rng=RngState.seeded(7))
    told = _stories(replace(kb), cfg, 40)
    monkeypatch.setattr(simulator, "_PLANS_MAX", 1)
    small = replace(kb)
    assert _stories(small, cfg, 40) == told
    assert list(small._plans) == [(kb.goal, kb.init, cfg.planner)]


def test_the_planner_neither_reads_nor_fills_the_plan_table(kb):
    # only the simulator keeps plans: a caller that asks the planner the
    # same question again gets it worked out again
    fresh = replace(kb)
    best = make_best_plan(kb.goal, kb.init, fresh)
    fresh._plans[kb.goal, kb.init, PlannerConfig()] = ScoredPlan(Plan(()), 100)
    assert make_best_plan(kb.goal, kb.init, fresh) == best
    assert enumerate_plans(kb.goal, kb.init, fresh, PlannerConfig(max_plan_length=8))
    assert plan_distance(kb.init, kb.goal, fresh) == -len(best.plan)
    assert len(fresh._plans) == 1


def test_an_unresolvable_replan_fails_alike_on_a_warm_knowledge_base():
    warm = parse_kb(COLLAPSE_KB)
    generate_incident(warm, SimConfig(happening_prob=0.0))
    failures = []
    for collapse in (warm, warm, parse_kb(COLLAPSE_KB)):
        with pytest.raises(NoPlanFoundError) as err:
            generate_incident(collapse, COLLAPSE)
        failures.append(str(err.value))
    assert failures == [failures[0]] * 3
    assert "unresolvable incident" in failures[0]
    assert len(warm._plans) == 1  # the failed replan is not kept
