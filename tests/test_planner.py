"""Backward planner: satisfaction, achievement, enumeration, scoring."""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import backward_plan_set, replay

from incidentgen import (
    Compound,
    FreshNames,
    KnowledgeBase,
    MissingDeleteFactError,
    NoPlanFoundError,
    Plan,
    PlannerConfig,
    PlanStep,
    SimConfig,
    Substitution,
    UnknownScorerError,
    Variable,
    applicable_happenings,
    apply_effects,
    enumerate_plans,
    format_term,
    generate_incident,
    iter_satisfying,
    make_best_plan,
    parse_kb,
    parse_term,
    plan_quality,
    plan_sort_key,
    revise_goal,
    substitute,
    term_key,
    unify,
)
from incidentgen import planner, search, simulator
from incidentgen.planner import _achieves_iter
from incidentgen.terms import ground, signature
from conftest import facts, nonground_kbs

NOMINAL = tuple(
    parse_term(t)
    for t in (
        "load(passengers1, airplane1)",
        "taxi_to_runway(airplane1)",
        "take_off(airplane1, seattle)",
        "cruise(airplane1, seattle, chicago)",
        "cruise(airplane1, chicago, dallas)",
        "land(airplane1, dallas)",
        "taxi_to_gate(airplane1)",
        "unload(passengers1, airplane1)",
    )
)


def action_lists(plans):
    return [tuple(p.actions) for p in plans]


def names(actions):
    return [a.functor for a in actions]


# ------------------------------------------------------------- satisfaction


def test_satisfied_by_direct_membership():
    fact = parse_term("alocation(airplane1, gate(seattle))")
    assert list(iter_satisfying([fact], frozenset({fact}), KnowledgeBase())) == [Substitution()]


def test_satisfied_through_derivation_rule(kb, fire_on_runway):
    goal = parse_term("a_on_ground(airplane1)")
    assert goal not in fire_on_runway
    assert len(list(iter_satisfying([goal], fire_on_runway, kb))) == 1


def test_unsatisfied_returns_empty(kb):
    assert list(iter_satisfying([parse_term("on_fire(engine)")], kb.init, kb)) == []


def test_iter_satisfying_yields_bindings(kb):
    sols = list(
        iter_satisfying([parse_term("plocation(passengers1, Where)")], kb.init, kb)
    )
    assert [substitute(Variable("Where"), s) for s in sols] == [
        parse_term("gate(seattle)")
    ]


def test_iter_satisfying_threads_bindings_across_facts(kb):
    goals = [
        parse_term("airplane(Plane)"),
        parse_term("alocation(Plane, Where)"),
    ]
    sols = list(iter_satisfying(goals, kb.init, kb))
    assert len(sols) == 1
    assert substitute(parse_term("at(Plane, Where)"), sols[0]) == parse_term(
        "at(airplane1, gate(seattle))"
    )


@pytest.mark.parametrize(
    "loose",
    [(), ("W",), ("p(V, a)", "p(f(U), b)")],
    ids=["ground", "variable_fact", "open_arguments"],
)
@pytest.mark.parametrize(
    "goal", ["X", "a", "p(X)", "p(X, Y)", "q(X, a)", "s(X)", "p(c, Y)", "p(X, a)", "p(f(Z), Y)"]
)
def test_facts_are_tried_in_term_order(goal, loose):
    # atoms, one functor at two arities, and one arity under two functors;
    # p/2 is long enough to be keyed by argument
    sitn = facts(
        "b", "a", "p(b)", "p(a)", "p(c, a)", "p(a, b)", "p(b, a)", "p(c, c)", "q(b)",
        "q(a, a)", "r(c, a)", "pair(a, b, c)", *loose,
    )
    goal = parse_term(goal)
    expected = [
        substitute(goal, s)
        for s in (unify(goal, fact) for fact in sorted(sitn, key=term_key))
        if s is not None
    ]
    solutions = iter_satisfying([goal], sitn, KnowledgeBase())
    assert [substitute(goal, s) for s in solutions] == expected


# -------------------------------------------------------------- achievement


def achieving(event, goal, rules=()):
    kb = KnowledgeBase(rules=tuple(rules))
    return list(_achieves_iter(event, goal, kb, Substitution(), FreshNames()))


def test_achieves_via_add_list_binding(kb):
    unload = next(e for e in kb.actions if e.name == "unload")
    subs = achieving(unload, parse_term("plocation(passengers1, gate(dallas))"))
    assert len(subs) == 1
    assert substitute(Variable("Passengers"), subs[0]) == parse_term("passengers1")
    assert substitute(Variable("Airport"), subs[0]) == parse_term("dallas")


def test_achieves_through_rule_per_location_kind(kb):
    evacuate = next(e for e in kb.actions if e.name == "evacuate")
    subs = achieving(evacuate, parse_term("p_on_ground(passengers1)"), kb.rules)
    shapes = sorted(
        substitute(Variable("Loc"), s).functor for s in subs
    )
    assert shapes == ["gate", "on_ground_near", "runway"]
    assert all(
        substitute(Variable("Passengers"), s) == parse_term("passengers1") for s in subs
    )


def test_achieves_nothing_when_adds_are_unrelated(kb):
    take_off = next(e for e in kb.actions if e.name == "take_off")
    assert achieving(take_off, parse_term("medical_help(passengers1)"), kb.rules) == []


# ------------------------------------------------------------------ effects


def test_apply_effects_identity():
    sitn = facts("a", "b")
    assert apply_effects((), (), sitn) == sitn


def test_apply_effects_replaces_facts():
    sitn = facts("alocation(airplane1, gate(seattle))", "airplane(airplane1)")
    out = apply_effects(
        [parse_term("alocation(airplane1, gate(seattle))")],
        [parse_term("alocation(airplane1, runway(seattle))")],
        sitn,
    )
    assert out == facts("alocation(airplane1, runway(seattle))", "airplane(airplane1)")


def test_apply_effects_rejects_absent_delete():
    with pytest.raises(MissingDeleteFactError):
        apply_effects([parse_term("ghost")], (), facts("a"))


# ------------------------------------------------------------------ scoring


def test_quality_charges_ten_per_action_plus_evacuation():
    def plan_of(*heads):
        return Plan(tuple(PlanStep(parse_term(h), parse_term("g")) for h in heads))

    assert plan_quality(Plan(())) == 100
    assert plan_quality(plan_of(*["cruise(a, b, c)"] * 8)) == 20
    assert (
        plan_quality(plan_of(*(["cruise(a, b, c)"] * 7 + ["evacuate(airplane1)"]))) == 19
    )


def test_constant_scorer_ignores_shape():
    long = Plan(tuple(PlanStep(parse_term("cruise(a, b, c)"), parse_term("g")) for _ in range(5)))
    assert plan_quality(long, "constant") == plan_quality(Plan(()), "constant")


def test_unknown_scorer_is_rejected(kb):
    with pytest.raises(UnknownScorerError):
        plan_quality(Plan(()), "fancy")
    with pytest.raises(UnknownScorerError):
        make_best_plan(kb.goal, kb.init, kb, PlannerConfig(scorer="fancy"))


@pytest.mark.parametrize("goal", ["plocation(passengers1, gate(nowhere))", "plocation(passengers1, gate(dallas))"])
def test_an_unknown_scorer_is_rejected_before_any_search(kb, goal, monkeypatch):
    # an unreachable goal must not end as "no plan found" (exit 1), and a
    # reachable one must not run the exhaustive enumeration first
    monkeypatch.setattr(planner, "_plans", lambda *args, **kwargs: pytest.fail("searched"))
    with pytest.raises(UnknownScorerError):
        make_best_plan(parse_term(goal), kb.init, kb, PlannerConfig(scorer="fancy"))


# -------------------------------------------------------------- enumeration


def test_initial_situation_yields_exactly_the_nominal_plan(kb):
    plans = enumerate_plans(kb.goal, kb.init, kb)
    assert action_lists(plans) == [NOMINAL]
    assert plan_quality(plans[0]) == 20


def test_enumeration_respects_the_length_bound(kb):
    assert enumerate_plans(kb.goal, kb.init, kb, PlannerConfig(max_plan_length=7)) == []
    assert len(enumerate_plans(kb.goal, kb.init, kb, PlannerConfig(max_plan_length=8))) == 1


def test_boarded_situation_offers_unload_or_evacuate(kb, boarded):
    plans = enumerate_plans(kb.goal, boarded, kb)
    got = {(tuple(names(p.actions)), plan_quality(p)) for p in plans}
    assert got == {
        (
            ("taxi_to_runway", "take_off", "cruise", "cruise", "land", "taxi_to_gate", "unload"),
            30,
        ),
        (
            ("taxi_to_runway", "take_off", "cruise", "cruise", "land", "taxi_to_gate", "evacuate"),
            29,
        ),
    }


def test_fire_on_runway_enumeration(kb, fire_on_runway):
    plans = enumerate_plans(parse_term("p_on_ground(passengers1)"), fire_on_runway, kb)
    got = {(tuple(names(p.actions)), plan_quality(p)) for p in plans}
    assert got == {
        (("evacuate",), 89),
        (("taxi_to_gate", "unload"), 80),
        (("taxi_to_gate", "evacuate"), 79),
        (("take_off", "emergency_landing", "evacuate"), 69),
        (("take_off", "cruise", "emergency_landing", "evacuate"), 59),
        (("take_off", "cruise", "cruise", "emergency_landing", "evacuate"), 49),
    }


def test_enumeration_deduplicates_by_action_sequence(kb):
    plans = enumerate_plans(kb.goal, kb.init, kb)
    keys = [plan_sort_key(p) for p in plans]
    assert len(keys) == len(set(keys))


def test_goal_stack_blocks_circular_subgoaling():
    looping = parse_kb(
        """
action forge(X) { pre: token(X); add: token(next(X)); text: "forge"; }
init { seed; }
goal token(next(next(zero))).
"""
    )
    assert enumerate_plans(looping.goal, looping.init, looping) == []


def _plans_match_the_reference(kb, goal, expected, bound=20):
    got = enumerate_plans(goal, kb.init, kb, PlannerConfig(max_plan_length=bound))
    assert action_lists(got) == expected
    assert set(expected) == backward_plan_set(goal, kb.init, kb, bound)


def test_an_open_subgoal_meets_a_ground_pursued_goal():
    # make's precondition q(X) unifies with the pursued q(a), so it is a
    # dead end, though base could achieve it as q(b)
    kb = parse_kb(
        "action make(X) {pre: q(X); add: q(a);}\n"
        "action base {pre: s; add: q(b);}\n"
        "init {s;} goal q(a)."
    )
    _plans_match_the_reference(kb, kb.goal, [])


def test_a_pursued_goal_that_is_grounded_after_it_was_pushed():
    # the pursued q(Y) becomes q(a) once pick(Z) binds Z, so the later
    # subgoal q(a) of need(a) meets it on the stack
    kb = parse_kb(
        "action achieve(Z) {pre: pick(Z), need(Z); add: q(Z);}\n"
        "action needs(W) {pre: q(W); add: need(W);}\n"
        "action base {add: q(a);}\n"
        "init {pick(a);} goal q(a)."
    )
    _plans_match_the_reference(kb, parse_term("q(Y)"), [(parse_term("base"),)])


def test_a_forty_leg_chain_plans_like_the_reference():
    # every pursued at(c<n>) is ground, so each is screened by its key
    legs = 40
    kb = parse_kb(
        'action fly(X, Y) {pre: path(X, Y), at(X); del: at(X); add: at(Y); text: "fly";}\n'
        "init {at(c0); "
        + " ".join(f"path(c{n}, c{n + 1});" for n in range(legs))
        + f"}} goal at(c{legs})."
    )
    route = tuple(parse_term(f"fly(c{n}, c{n + 1})") for n in range(legs))
    _plans_match_the_reference(kb, kb.goal, [route], bound=legs)
    best = make_best_plan(kb.goal, kb.init, kb, PlannerConfig(max_plan_length=legs))
    assert best.plan.actions == route


def test_a_term_nested_too_deeply_stays_a_recursion_error(kb):
    # the overflow happens inside the plan search, in the occurs check, but
    # the term is at fault, not the plan's length: the command line's exit 2
    term = parse_term("x")
    for _ in range(600):
        term = Compound("f", (term,))
    goal = Compound("plocation", (parse_term("passengers1"), Compound("gate", (term,))))
    with pytest.raises(RecursionError):
        make_best_plan(goal, kb.init, kb)


def test_each_way_of_matching_a_delete_is_its_own_plan():
    dropper = parse_kb(
        """
action drop(X) { pre: holding; del: item(X); add: dropped; text: "Dropped {X}."; }
init { holding; item(a); item(b); }
goal dropped.
"""
    )
    plans = enumerate_plans(dropper.goal, dropper.init, dropper)
    expected = [(parse_term("drop(a)"),), (parse_term("drop(b)"),)]
    assert action_lists(plans) == expected
    assert set(expected) == backward_plan_set(dropper.goal, dropper.init, dropper, 20)
    best = make_best_plan(dropper.goal, dropper.init, dropper)
    assert best.plan.actions == (parse_term("drop(b)"),)


# ---------------------------------------------------------------- selection


def test_best_plan_from_init_is_nominal(kb):
    best = make_best_plan(kb.goal, kb.init, kb)
    assert tuple(best.plan.actions) == NOMINAL
    assert best.quality == 20


def test_best_plan_for_satisfied_goal_is_empty(kb):
    best = make_best_plan(parse_term("plocation(passengers1, gate(seattle))"), kb.init, kb)
    assert best.plan.actions == ()
    assert best.quality == 100


def test_best_plan_prefers_immediate_evacuation(kb, at_runway_loaded):
    best = make_best_plan(parse_term("p_on_ground(passengers1)"), at_runway_loaded, kb)
    assert names(best.plan.actions) == ["evacuate"]
    assert best.quality == 89


def test_constant_scorer_picks_the_longest_detour(kb, fire_on_runway):
    best = make_best_plan(
        parse_term("p_on_ground(passengers1)"),
        fire_on_runway,
        kb,
        PlannerConfig(scorer="constant"),
    )
    assert names(best.plan.actions) == [
        "take_off",
        "cruise",
        "cruise",
        "emergency_landing",
        "evacuate",
    ]
    assert plan_quality(best.plan) == 49


def test_best_plan_dominates_enumeration(kb, boarded, fire_on_runway):
    cases = [
        (kb.goal, kb.init),
        (kb.goal, boarded),
        (parse_term("p_on_ground(passengers1)"), fire_on_runway),
    ]
    for goal, sitn in cases:
        best = make_best_plan(goal, sitn, kb)
        qualities = [plan_quality(p) for p in enumerate_plans(goal, sitn, kb)]
        assert best.quality == max(qualities)


FOUR_CITIES = ("seattle", "chicago", "dallas", "boston")


@pytest.mark.parametrize("scorer", ["standard", "constant"])
@pytest.mark.parametrize(
    "paths",
    [
        # many detours around the direct flight
        [(a, b) for a in FOUR_CITIES for b in FOUR_CITIES if a != b],
        # two equally short routes: the one found second wins on term order
        [
            ("seattle", "chicago"),
            ("chicago", "dallas"),
            ("seattle", "boston"),
            ("boston", "dallas"),
        ],
    ],
    ids=["complete", "two_routes"],
)
def test_best_plan_on_flight_graphs_is_the_exhaustive_max(kb, scorer, paths):
    sitn = facts(
        "airplane(airplane1)",
        "passengers(passengers1)",
        "plocation(passengers1, gate(seattle))",
        "alocation(airplane1, gate(seattle))",
        *(f"flight_path({a}, {b})" for a, b in paths),
    )
    cfg = PlannerConfig(scorer=scorer)
    plans = enumerate_plans(kb.goal, sitn, kb, cfg)
    expected = max(plans, key=lambda p: (plan_quality(p, scorer), plan_sort_key(p)))
    assert make_best_plan(kb.goal, sitn, kb, cfg).plan == expected


def test_no_plan_raises(kb):
    from incidentgen import NoPlanFoundError

    with pytest.raises(NoPlanFoundError):
        make_best_plan(parse_term("plocation(passengers1, gate(paris))"), kb.init, kb)


# ----------------------------------------------------- reference comparison


@pytest.mark.parametrize("bound", [4, 8])
def test_matches_reference_planner_on_canned_situations(kb, boarded, fire_on_runway, bound):
    cases = [
        (kb.goal, kb.init),
        (kb.goal, boarded),
        (parse_term("p_on_ground(passengers1)"), fire_on_runway),
        (parse_term("a_on_ground(airplane1)"), boarded),
        (parse_term("contains(airplane1, passengers1)"), kb.init),
    ]
    for goal, sitn in cases:
        expected = backward_plan_set(goal, sitn, kb, bound)
        got = {
            tuple(p.actions)
            for p in enumerate_plans(goal, sitn, kb, PlannerConfig(max_plan_length=bound))
        }
        assert got == expected, f"disagreement for {goal}"


def test_every_enumerated_plan_replays_soundly(kb, boarded, fire_on_runway):
    cases = [
        (kb.goal, kb.init),
        (kb.goal, boarded),
        (parse_term("p_on_ground(passengers1)"), fire_on_runway),
    ]
    for goal, sitn in cases:
        for plan in enumerate_plans(goal, sitn, kb):
            assert replay(plan.actions, sitn, goal, kb) is None


# ------------------------------------------------------------- parent links


def _check_parent_links(plans, goal):
    # a step's parent is a later step of its plan, one of whose
    # preconditions the step achieves; a root step achieves the planned
    # goal. Each is read under the solution the planner chose for it.
    # Returns the number of steps that have a parent
    linked = 0
    for plan in plans:
        for i, step in enumerate(plan.steps):
            if step.parent is None:
                assert step.achieves_goal == substitute(goal, step.solution[1])
                continue
            linked += 1
            assert any(step.parent is later for later in plan.steps[i + 1 :])
            event, subst = step.parent.solution
            assert step.achieves_goal in [substitute(pc, subst) for pc in event.pcs]
    return linked


def test_each_step_links_to_the_later_step_that_needs_it(kb, boarded, fire_on_runway):
    four_cities = facts(
        "airplane(airplane1)",
        "passengers(passengers1)",
        "plocation(passengers1, gate(seattle))",
        "alocation(airplane1, gate(seattle))",
        *(f"flight_path({a}, {b})" for a in FOUR_CITIES for b in FOUR_CITIES if a != b),
    )
    cases = [
        (kb.goal, kb.init),
        (kb.goal, boarded),
        (parse_term("p_on_ground(passengers1)"), fire_on_runway),
        # an open goal: the root step achieves it as the plan bound it
        (parse_term("plocation(P, gate(dallas))"), kb.init),
        (kb.goal, four_cities),
    ]
    for goal, sitn in cases:
        plans = [*enumerate_plans(goal, sitn, kb), make_best_plan(goal, sitn, kb).plan]
        assert _check_parent_links(plans, goal) > 0


# ------------------------------------------------------------ work counts


def ill_passenger_story(kb):
    cfg = SimConfig(
        happening_prob=0.0, injection_schedule=((3, parse_term("ill_passenger")),)
    )
    return generate_incident(kb, cfg)


@pytest.mark.parametrize(
    "work, expected",
    [
        (
            lambda kb: make_best_plan(kb.goal, kb.init, kb),
            {"planner.fresh_event": 32, "planner.fresh_rule": 3, "planner.unify": 110},
        ),
        (
            ill_passenger_story,
            {
                "planner.fresh_event": 49,
                "planner.fresh_rule": 18,
                "planner.fresh_revision": 2,
                "planner.unify": 222,
                "simulator.unify": 2,
            },
        ),
    ],
    ids=["best_plan", "ill_passenger_story"],
)
def test_planner_renames_only_clauses_that_can_match(kb, monkeypatch, work, expected):
    # every rename goes through the planner; the simulator only unifies
    # a scheduled happening with the applicable ones
    counts = Counter()
    for module in (planner, simulator):
        for name in ("fresh_event", "fresh_rule", "fresh_revision", "unify"):
            if hasattr(module, name):
                key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

                def counted(*args, _call=getattr(module, name), _key=key):
                    counts[_key] += 1
                    return _call(*args)

                monkeypatch.setattr(module, name, counted)
    # a fresh copy: the session's knowledge base may already keep the
    # plans that earlier tests' stories asked for
    work(replace(kb))
    assert counts == expected


# ------------------------------------------------------------ fresh names


def test_the_same_query_gets_the_same_plan_every_time():
    # term order breaks the tie between b and c by their _G names, so
    # those must not depend on how many names earlier queries took
    kb1 = parse_kb(
        'action a(X) {pre: s; add: pa; text: "a";}'
        'action b(Y) {pre: pa; add: done; text: "b";}'
        'action c(Y) {pre: pa; add: done; text: "c";}'
        "init {s;} goal done."
    )
    for _ in range(25):
        plan = make_best_plan(kb1.goal, kb1.init, kb1).plan
        assert [format_term(a) for a in plan.actions] == ["a(_G4)", "c(_G3)"]


def test_fresh_names_never_capture_a_query_input():
    # each query's own names start above the _G names in its inputs; at
    # _G1 every case below would fail the occurs check instead
    kb = parse_kb(
        "action a(X) {pre: s; add: q(f(X));}"
        "happening h(Z) {pre: pa(f(Z));}"
        "happening g(Z, W) {pre: p(Z);}"
        "rule p(f(Y)) :- s."
        "revise q(f(X)) when s => r(X)."
        "init {s;} goal q(f(b))."
    )
    plan = make_best_plan(parse_term("q(_G2)"), kb.init, kb).plan
    assert plan.actions == (parse_term("a(_G3)"),)
    [solution] = iter_satisfying([parse_term("p(_G1)")], kb.init, kb)
    assert substitute(parse_term("_G1"), solution) == parse_term("f(_G2)")
    assert applicable_happenings(kb.init | facts("pa(_G1)"), kb) == [
        parse_term("h(_G2)"),
        parse_term("g(f(_G5), _G4)"),
    ]
    # one query, one scope: the rule proving g's precondition takes its
    # name after g's own, and W stays apart from the renamed rule's Y
    assert applicable_happenings(kb.init, kb) == [parse_term("g(f(_G4), _G3)")]
    assert revise_goal(kb.init, parse_term("q(_G1)"), kb) == (
        parse_term("r(_G2)"),
        parse_term("s"),
    )


def _outcome(query):
    try:
        return query()
    except NoPlanFoundError as err:
        return ("no plan", format_term(err.goal))


@given(nonground_kbs())
def test_a_query_asked_twice_gets_the_same_answer(kb):
    cfg = PlannerConfig(max_plan_length=4)
    for query in (
        lambda: make_best_plan(kb.goal, kb.init, kb, cfg),
        lambda: enumerate_plans(kb.goal, kb.init, kb, cfg),
    ):
        assert _outcome(query) == _outcome(query)


@settings(max_examples=200)
@given(nonground_kbs())
def test_plans_and_their_fresh_names_match_the_reference(kb):
    # the reference renames every action whose add or rule head shares the
    # goal's root; a planner that skips one must take the same names for it
    bound = 3
    got = enumerate_plans(kb.goal, kb.init, kb, PlannerConfig(max_plan_length=bound))
    assert {p.actions for p in got} == backward_plan_set(kb.goal, kb.init, kb, bound)


@settings(max_examples=100)
@given(nonground_kbs())
def test_each_step_links_to_the_later_step_that_needs_it_on_random_kbs(kb):
    # the knowledge bases the reference planner is checked on, whose
    # steps reach goals through rules and open head variables
    cfg = PlannerConfig(max_plan_length=4)
    plans = enumerate_plans(kb.goal, kb.init, kb, cfg)
    if plans:
        plans.append(make_best_plan(kb.goal, kb.init, kb, cfg).plan)
    _check_parent_links(plans, kb.goal)


# ---------------------------------------------------------- screen verdicts


# goals of one signature whose verdicts differ (an add p(f(X)) may meet
# p(f(k)) but not p(k)), and open ones, whose verdicts are not kept
_ASKED = ("done", "t", "p(k)", "p(f(k))", "p(V)", "q(f(k))", "r(k, k)", "r(f(k), V)")


@settings(max_examples=100)
@given(nonground_kbs(), st.permutations(_ASKED))
def test_a_knowledge_base_warmed_by_other_queries_plans_as_a_fresh_one(kb, asked):
    # the screen verdicts that queries left on the knowledge base change no
    # plan and no fresh name; replace(kb) is the same one with none kept
    cfg = PlannerConfig(max_plan_length=4)
    warm = replace(kb)
    for goal in asked:
        enumerate_plans(parse_term(goal), kb.init, warm, cfg)
    for goal in map(parse_term, _ASKED):
        for query in (make_best_plan, enumerate_plans):
            got = _outcome(lambda: query(goal, kb.init, warm, cfg))
            assert got == _outcome(lambda: query(goal, kb.init, replace(kb), cfg))


def test_a_recurring_ground_goal_is_screened_once(kb, monkeypatch):
    # on a complete flight graph, one best-plan query meets ground subgoals
    # such as alocation(airplane1, near(chicago)) on many branches; each
    # is screened against the actions' adds once
    sitn = facts(
        "airplane(airplane1)",
        "passengers(passengers1)",
        "plocation(passengers1, gate(seattle))",
        "alocation(airplane1, gate(seattle))",
        *(f"flight_path({a}, {b})" for a in FOUR_CITIES for b in FOUR_CITIES if a != b),
    )
    adds = {id(add) for event in kb.actions for add in event.adds}
    screened = Counter()

    def counted(goal, raw, subst, _call=planner._may_unify):
        walked = substitute(goal, subst)
        if id(raw) in adds and ground(walked):
            screened[format_term(walked), format_term(raw)] += 1
        return _call(goal, raw, subst)

    monkeypatch.setattr(planner, "_may_unify", counted)
    fresh = replace(kb)
    assert len(make_best_plan(kb.goal, sitn, fresh).plan) == 7
    assert screened and max(screened.values()) == 1


def test_the_screen_table_keeps_no_more_goals_than_its_bound(
    kb, boarded, fire_on_runway, monkeypatch
):
    cases = [(kb.goal, kb.init), (kb.goal, boarded), (kb.goal, fire_on_runway)]

    def answers(on):
        return [(make_best_plan(g, s, on), enumerate_plans(g, s, on)) for g, s in cases]

    expected = answers(replace(kb))
    monkeypatch.setattr(planner, "_SCREENS_MAX", 1)
    small = replace(kb)
    assert answers(small) == expected
    assert len(small._screens) == 1


@given(nonground_kbs(), st.data())
def test_a_derived_situation_index_equals_one_built_from_scratch(kb, data):
    # a search branch copies its parent's groups and rebuilds those its
    # step touches; after any steps, whatever groups are asked for and in
    # whatever order, each must be the group a fresh index of the same
    # facts has
    pool = [
        *kb.init,
        *(t for e in kb.events for t in (*e.dels, *e.adds)),
        Variable("V"),  # a variable fact heads every group
    ]
    sigs = sorted({None, ("absent", 0), *map(signature, pool)}, key=str)
    held = frozenset(kb.init)
    index = planner._Index.of(held)
    for _ in range(data.draw(st.integers(1, 4), label="steps")):
        ordered = sorted(held, key=term_key)
        drop = data.draw(st.lists(st.sampled_from(ordered), unique=True)) if held else []
        add = data.draw(st.lists(st.sampled_from(pool), max_size=3))
        index = index.after(drop, add)
        held = held.difference(drop) | frozenset(add)
        fresh = planner._Index.of(held)
        for sig in data.draw(st.lists(st.sampled_from(sigs)), label="asked"):
            assert index.group(sig) == fresh.group(sig)
    for sig in sigs:
        assert index.group(sig) == fresh.group(sig)
    # a variable goal meets every fact, sorted on demand from the groups
    assert type(index.group(None)) is tuple
    assert index.group(None) == tuple(sorted(held, key=term_key))


def test_a_derived_index_shares_the_keys_of_the_groups_its_step_leaves_alone():
    held = [parse_term(f"path({a}, {b})") for a in "abc" for b in "abc" if a != b]
    index = planner._Index.of([*held, parse_term("at(a)")])
    to_b = parse_term("path(X, b)")
    keyed = index.matching(to_b, Substitution())
    assert keyed == (parse_term("path(a, b)"), parse_term("path(c, b)"))
    moved = index.after([parse_term("at(a)")], [parse_term("at(b)")])
    assert moved.matching(to_b, Substitution()) is keyed
    assert moved.group(("at", 1)) == (parse_term("at(b)"),)
    # a step that touches the group rebuilds its keys, and the parent's stand
    cut = index.after([parse_term("path(a, b)")], [])
    assert cut.matching(to_b, Substitution()) == (parse_term("path(c, b)"),)
    assert index.matching(to_b, Substitution()) is keyed


_ATOMS = st.sampled_from([parse_term(t) for t in ("a", "b", "c")])
_VARS = st.sampled_from([Variable(n) for n in ("X", "Y", "U", "V")])
_ARGS = st.one_of(
    _ATOMS,
    _VARS,
    st.builds(lambda t: Compound("f", (t,)), st.one_of(_ATOMS, _VARS)),
    st.builds(lambda t, u: Compound("g", (t, u)), _ATOMS, _ATOMS),
)
_P = st.builds(lambda t, u: Compound("p", (t, u)), _ARGS, _ARGS)
# p facts, with arguments that are atoms, variables or compounds, mixed
# with facts of another signature and a variable fact
_FACTS = st.one_of(_P, _P, st.builds(lambda t: Compound("q", (t,)), _ARGS), st.just(Variable("W")))


@st.composite
def _substitutions(draw):
    # bindings made by unification, so they hold no cycle
    subst = Substitution()
    for var, value in draw(st.lists(st.tuples(_VARS, _ARGS), max_size=4)):
        subst = unify(var, value, subst) or subst
    return subst


def _check_matching(index, goal, subst):
    # the candidates are the facts of the goal's group that pass the root
    # check at the first argument where the walked goal has a root, and
    # they include every fact the goal unifies with
    seen = subst.walk(goal)
    group = index.group(signature(seen))
    roots = [signature(subst.walk(arg)) for arg in seen.args]
    keyed = [(pos, root) for pos, root in enumerate(roots) if root is not None]
    expected = list(group)
    if keyed and len(group) >= planner._KEYED_MIN:
        pos, root = keyed[0]
        expected = [
            fact
            for fact in group
            if type(fact) is Variable or signature(fact.args[pos]) in (None, root)
        ]
    got = list(index.matching(seen, subst))
    assert got == expected
    assert all(fact in got for fact in group if unify(goal, fact, subst) is not None)


@settings(max_examples=200)
@given(
    st.lists(_FACTS, max_size=12),
    st.lists(st.tuples(_P, _substitutions()), min_size=1, max_size=4),
    st.data(),
)
def test_argument_keys_pick_every_fact_that_may_unify(held, queries, data):
    held = frozenset(held)
    index = planner._Index.of(held)
    for goal, subst in queries:
        _check_matching(index, goal, subst)
    # a branch's index takes the parent's keyed lists for every signature
    # its step leaves alone and keys the others anew
    ordered = sorted(held, key=term_key)
    drop = data.draw(st.lists(st.sampled_from(ordered), unique=True)) if held else []
    add = data.draw(st.lists(_FACTS, max_size=3), label="add")
    derived = index.after(drop, add)
    asked = data.draw(st.lists(st.tuples(_P, _substitutions()), min_size=1), label="asked")
    for goal, subst in asked:
        _check_matching(derived, goal, subst)
        _check_matching(planner._Index.of(held.difference(drop) | frozenset(add)), goal, subst)


@settings(max_examples=200)
@given(nonground_kbs())
def test_applicable_actions_match_the_reference(kb):
    # an action applies under the first solution whose deletes are all
    # present, so an instance is kept if any solution qualifies. The
    # reference lists every move in term order, not by declaration
    got = search._applicable_actions(kb.init, kb)
    assert sorted(got, key=lambda move: term_key(move[0])) == oracles._ground_moves(kb.init, kb)
