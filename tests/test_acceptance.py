"""Whole-system acceptance checks.

Canonical flight scenarios are pinned character for character, batch
generation is checked for bit reproducibility across interpreter
processes, and the planner, goal revision, and explanation layers are
swept with randomized property suites against reference oracles.
"""

import hashlib
import os
import random
import subprocess
import sys

import pytest
from oracles import backward_plan_set, replay

from incidentgen import (
    Atom,
    ChainLink,
    NoPlanFoundError,
    Plan,
    PlannerConfig,
    PlanStep,
    RngState,
    SimConfig,
    Substitution,
    enumerate_expansions,
    enumerate_plans,
    explain,
    find_dead_ends,
    format_term,
    generate_incident,
    load_grammar,
    make_best_plan,
    next_unit,
    parse_kb,
    parse_term,
    plan_quality,
    plan_sort_key,
    render_story,
    revise_goal,
    serialize_kb,
    substitute,
    variables,
)
from incidentgen.cli import SEPARATOR
from incidentgen.kb import aviation_kb_path, data_path

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

CITIES = ("seattle", "chicago", "dallas")
GROUND = ("gate", "runway", "on_ground_near")
ROUTES = (("seattle", "chicago"), ("chicago", "dallas"), ("seattle", "dallas"))


def random_instances(count, seed=42):
    """Randomized (situation, goal) pairs over the flight domain.

    Positions, cargo, route availability, and active troubles all vary,
    so the batch covers satisfied goals, short recoveries, full trips,
    and unreachable goals alike.
    """
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        fs = {parse_term("airplane(airplane1)"), parse_term("passengers(passengers1)")}
        shape = rnd.choice(GROUND + ("near",))
        fs.add(parse_term(f"alocation(airplane1, {shape}({rnd.choice(CITIES)}))"))
        if rnd.random() < 0.5:
            fs.add(parse_term("contains(airplane1, passengers1)"))
        else:
            fs.add(parse_term(f"plocation(passengers1, {rnd.choice(GROUND)}({rnd.choice(CITIES)}))"))
        for path in rnd.sample(ROUTES, k=rnd.randint(0, 2)):
            fs.add(parse_term("flight_path(%s, %s)" % path))
        if rnd.random() < 0.3:
            fs.add(parse_term("on_fire(engine)"))
        if rnd.random() < 0.2:
            fs.add(parse_term("ill_passenger"))
        goal = parse_term(
            rnd.choice(
                (
                    f"plocation(passengers1, gate({rnd.choice(CITIES)}))",
                    "p_on_ground(passengers1)",
                    "medical_help(passengers1)",
                    "contains(airplane1, passengers1)",
                    "a_on_ground(airplane1)",
                )
            )
        )
        out.append((frozenset(fs), goal))
    return out


# --------------------------------------------------- 1. the standard trip


def test_best_plan_for_the_standard_trip(kb):
    best = make_best_plan(kb.goal, kb.init, kb)
    assert best.plan.actions == NOMINAL
    assert best.quality == 20


def test_no_forward_sequence_beats_the_standard_trip(kb, forward_from_init):
    def score(actions):
        steps = tuple(PlanStep(action=a, achieves_goal=a) for a in actions)
        return plan_quality(Plan(steps=steps))

    assert forward_from_init, "forward reference search found nothing"
    best = max(forward_from_init, key=score)
    assert score(best) == 20 and best == NOMINAL
    assert all(score(seq) < 20 for seq in forward_from_init if seq != NOMINAL)


# ------------------------------------------------- 2. the pinned stories


def story(kb, index, happening):
    cfg = SimConfig(
        happening_prob=0.0,
        injection_schedule=((index, parse_term(happening)),),
    )
    return render_story(generate_incident(kb, cfg), kb)


def test_story_passenger_falls_ill_aloft(kb):
    assert story(kb, 3, "ill_passenger") == (
        "The passengers boarded the plane.\n"
        "The plane taxiied to the runway.\n"
        "The plane took off from seattle.\n"
        "A passenger became very ill.\n"
        "The plane landed at seattle.\n"
        "The plane taxiied to the gate.\n"
        "The passengers disembarked.\n"
        "Medical help was provided.\n"
    )


def test_story_fire_on_approach_to_dallas(kb):
    assert story(kb, 5, "fire(engine)") == (
        "The passengers boarded the plane.\n"
        "The plane taxiied to the runway.\n"
        "The plane took off from seattle.\n"
        "The plane cruised towards chicago.\n"
        "The plane cruised towards dallas.\n"
        "The engine caught fire.\n"
        "The plane landed at dallas.\n"
        "The passengers were evacuated from the plane.\n"
    )


def test_story_passenger_falls_ill_before_taxi(kb):
    assert story(kb, 1, "ill_passenger") == (
        "The passengers boarded the plane.\n"
        "A passenger became very ill.\n"
        "The passengers disembarked.\n"
        "Medical help was provided.\n"
    )


def test_story_fire_after_the_first_cruise(kb):
    assert story(kb, 4, "fire(engine)") == (
        "The passengers boarded the plane.\n"
        "The plane taxiied to the runway.\n"
        "The plane took off from seattle.\n"
        "The plane cruised towards chicago.\n"
        "The engine caught fire.\n"
        "The plane landed at chicago.\n"
        "The passengers were evacuated from the plane.\n"
    )


# ------------------------------------- 3. degenerate plans stay unchosen


def names(actions):
    return tuple(a.functor if hasattr(a, "functor") else a.name for a in actions)


def test_scenic_detour_exists_but_loses(kb, fire_on_runway):
    goal = parse_term("p_on_ground(passengers1)")
    shapes = {names(p.actions) for p in enumerate_plans(goal, fire_on_runway, kb)}
    detour = ("take_off", "cruise", "cruise", "emergency_landing", "evacuate")
    assert detour in shapes

    flat = make_best_plan(goal, fire_on_runway, kb, PlannerConfig(scorer="constant"))
    assert names(flat.plan.actions) == detour

    best = make_best_plan(goal, fire_on_runway, kb)
    assert names(best.plan.actions) == ("evacuate",)


def test_needless_evacuation_exists_but_loses(kb, boarded):
    plans = enumerate_plans(kb.goal, boarded, kb)
    shapes = {names(p.actions) for p in plans}
    evacuation = (
        "taxi_to_runway",
        "take_off",
        "cruise",
        "cruise",
        "land",
        "taxi_to_gate",
        "evacuate",
    )
    assert evacuation in shapes

    best = make_best_plan(kb.goal, boarded, kb)
    assert names(best.plan.actions)[-1] == "unload"
    assert best.quality == 30


# --------------------------------------------------- 4. reproducibility


@pytest.mark.parametrize(
    "args, separators, digest",
    [
        pytest.param(
            ("generate", "--seed", "42", "--count", "100"),
            99,
            "bc4ef68c75872ac6f4a1b5a687a00adfd5e622a062ee0c152fb7e434a940f8a9",
            id="generate",
        ),
        pytest.param(
            ("generate", "--seed", "7", "--count", "200", "--prob", "0.6", "--max-happenings", "3"),
            199,
            "3e45723f92106ed3bc2f64e0b73564f0d4dc64069b7e1f14c92bb94cbb6acb46",
            id="replans",
        ),
        pytest.param(
            ("forward", "--adversary", str(data_path("saboteur.kb")), "--depth", "24"),
            0,
            "b2e197281b4612223175d76bd91b0158ecc8be5fdf7f0b68c4d44473521cd723",
            id="duel",
        ),
        pytest.param(
            ("plan", "--all"),
            0,
            "345663e4df3d8182dfb7f9263312be099acbbde75076b6bdb3882fcc9e179af1",
            id="plan_all",
        ),
    ],
)
def test_batches_are_bit_identical_across_processes(args, separators, digest):
    outputs = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        run = subprocess.run(
            [sys.executable, "-m", "incidentgen", *args], capture_output=True, text=True, env=env
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(SEPARATOR + "\n") == separators
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == digest


def test_table_mode_opening_draws():
    rng = RngState.table()
    got = []
    for _ in range(3):
        value, rng = next_unit(rng)
        got.append(value)
    assert got == [0.174232, 0.186011, 0.951800]


# ------------------------------------- 5. planner vs. reference oracle


@pytest.mark.parametrize(
    "actions, message",
    [
        (tuple(map(format_term, NOMINAL)), None),
        (("fly(airplane1)",), "no action definition matches fly(airplane1)"),
        (("load(passengers1)",), "no action definition matches load(passengers1)"),
        (
            ("load(passengers1, airplane1)", "take_off(airplane1, seattle)"),
            "preconditions of take_off(airplane1, seattle) unsatisfied",
        ),
        (("load(passengers1, airplane1)",), "final situation does not satisfy the goal"),
        ((), "final situation does not satisfy the goal"),
    ],
)
def test_the_replay_oracle_names_what_breaks_a_plan(kb, actions, message):
    plan = tuple(parse_term(a) for a in actions)
    assert replay(plan, kb.init, kb.goal, kb) == message


def test_the_replay_oracle_rejects_deleting_an_absent_fact():
    dropper = parse_kb(
        'action drop(X) { pre: holding; del: item(X); add: dropped; text: "Dropped {X}."; }\n'
        "init { holding; item(a); } goal dropped."
    )
    drop = (parse_term("drop(a)"),)
    assert replay(drop, dropper.init, dropper.goal, dropper) is None
    assert replay(drop, dropper.init - {parse_term("item(a)")}, dropper.goal, dropper) == (
        "delete list of drop(a) names an absent fact"
    )


def test_thousand_random_instances_match_the_oracle(kb):
    for sitn, goal in random_instances(1000):
        plans = enumerate_plans(goal, sitn, kb, PlannerConfig(max_plan_length=8))
        for scorer in ("standard", "constant"):
            cfg = PlannerConfig(max_plan_length=8, scorer=scorer)
            if not plans:
                with pytest.raises(NoPlanFoundError):
                    make_best_plan(goal, sitn, kb, cfg)
                continue
            # whole-plan equality: the justification chains must match too
            assert make_best_plan(goal, sitn, kb, cfg).plan == max(
                plans, key=lambda p: (plan_quality(p, scorer), plan_sort_key(p))
            ), f"best {scorer} plan differs for goal {format_term(goal)}"
        for plan in plans:
            failure = replay(plan.actions, sitn, goal, kb)
            assert failure is None, (
                f"plan {[format_term(a) for a in plan.actions]} for "
                f"{format_term(goal)}: {failure}"
            )
        assert {p.actions for p in plans} == backward_plan_set(goal, sitn, kb, 8), (
            f"enumeration mismatch for goal {format_term(goal)} from "
            f"{{{', '.join(sorted(format_term(f) for f in sitn))}}}"
        )


# ----------------------------------------------- 6. goal revision contract


def test_fire_always_rewrites_location_goals(kb):
    fire = parse_term("on_fire(engine)")
    ill = parse_term("ill_passenger")
    want = parse_term("p_on_ground(passengers1)")
    rnd = random.Random(7)
    for sitn, _ in random_instances(300, seed=7):
        burning = sitn | {fire}
        goal = parse_term(
            f"plocation(passengers1, {rnd.choice(GROUND)}({rnd.choice(CITIES)}))"
        )
        assert revise_goal(burning, goal, kb) == (want, fire)
        # an ill passenger on board never outranks the fire
        assert revise_goal(burning | {ill}, goal, kb) == (want, fire)


# ------------------------------------------------- 7. grammar baseline


def test_grammar_enumerates_three_self_resolving_incidents():
    grammar = load_grammar(str(data_path("incident.grammar")))
    start = parse_term("incident")
    got = [[format_term(t) for t in seq] for seq in enumerate_expansions(grammar, start)]
    assert got == [
        ["taxi", "transponder_broke", "land", "taxi_back"],
        ["taxi", "takeoff", "transponder_broke", "land", "taxi_back"],
        ["taxi", "takeoff", "cruise", "transponder_broke", "land", "taxi_back"],
    ]
    assert find_dead_ends(grammar, start) == [parse_term("response(bad_weather(stormy))")]


# ------------------------------------------- 8. knowledge base fidelity


def event_shape(kind, head, pcs, dels, adds):
    """Structural fingerprint with variables renamed by first occurrence."""
    ordered = []
    for term in (head, *pcs, *dels, *adds):
        for v in variables(term):
            if v not in ordered:
                ordered.append(v)
    sub = Substitution({v: Atom(f"v{i}") for i, v in enumerate(ordered)})

    def f(term):
        return format_term(substitute(term, sub))

    return (kind, f(head), tuple(map(f, pcs)), tuple(map(f, dels)), tuple(map(f, adds)))


def expected_shape(kind, head, pcs, dels, adds):
    return event_shape(
        kind,
        parse_term(head),
        tuple(map(parse_term, pcs)),
        tuple(map(parse_term, dels)),
        tuple(map(parse_term, adds)),
    )


EVENT_INVENTORY = [
    (
        "action",
        "load(Passengers, Airplane)",
        ["plocation(Passengers, gate(Airport))", "alocation(Airplane, gate(Airport))"],
        ["plocation(Passengers, gate(Airport))"],
        ["contains(Airplane, Passengers)"],
    ),
    (
        "action",
        "taxi_to_runway(Airplane)",
        ["alocation(Airplane, gate(Airport))"],
        ["alocation(Airplane, gate(Airport))"],
        ["alocation(Airplane, runway(Airport))"],
    ),
    (
        "action",
        "take_off(Airplane, Airport)",
        ["alocation(Airplane, runway(Airport))"],
        ["alocation(Airplane, runway(Airport))"],
        ["alocation(Airplane, near(Airport))"],
    ),
    (
        "action",
        "cruise(Airplane, Airport1, Airport2)",
        ["flight_path(Airport1, Airport2)", "alocation(Airplane, near(Airport1))"],
        ["alocation(Airplane, near(Airport1))"],
        ["alocation(Airplane, near(Airport2))"],
    ),
    (
        "action",
        "land(Airplane, Airport2)",
        ["alocation(Airplane, near(Airport2))"],
        ["alocation(Airplane, near(Airport2))"],
        ["alocation(Airplane, runway(Airport2))"],
    ),
    (
        "action",
        "taxi_to_gate(Airplane)",
        ["alocation(Airplane, runway(Airport))"],
        ["alocation(Airplane, runway(Airport))"],
        ["alocation(Airplane, gate(Airport))"],
    ),
    (
        "action",
        "unload(Passengers, Airplane)",
        ["contains(Airplane, Passengers)", "alocation(Airplane, gate(Airport))"],
        ["contains(Airplane, Passengers)"],
        ["plocation(Passengers, gate(Airport))"],
    ),
    (
        "action",
        "evacuate(Airplane)",
        [
            "a_on_ground(Airplane)",
            "alocation(Airplane, Loc)",
            "contains(Airplane, Passengers)",
        ],
        ["contains(Airplane, Passengers)"],
        ["plocation(Passengers, Loc)"],
    ),
    (
        "action",
        "emergency_landing(Airplane)",
        ["alocation(Airplane, near(Airport2))"],
        ["alocation(Airplane, near(Airport2))"],
        ["alocation(Airplane, on_ground_near(Airport2))"],
    ),
    (
        "action",
        "medical_help(Passengers)",
        ["plocation(Passengers, gate(_))"],
        [],
        ["medical_help(Passengers)"],
    ),
    ("happening", "fire(engine)", [], [], ["on_fire(engine)"]),
    (
        "happening",
        "ill_passenger",
        [
            "contains(Airplane, Passengers)",
            "passengers(Passengers)",
            "airplane(Airplane)",
        ],
        [],
        ["ill_passenger"],
    ),
]


def test_aviation_kb_round_trips_and_matches_inventory(kb):
    text = aviation_kb_path().read_text()
    first = parse_kb(text)
    serialized = serialize_kb(first)
    second = parse_kb(serialized)
    assert second == first
    assert serialize_kb(second) == serialized

    got = [event_shape(e.kind, e.head, e.pcs, e.dels, e.adds) for e in kb.events]
    want = [expected_shape(*entry) for entry in EVENT_INVENTORY]
    assert got == want


# --------------------------------------------- 9. explanation completeness


def test_every_action_step_explains_back_to_a_goal(kb):
    terminal = {"top_goal", "revised_after"}
    for seed in range(30):
        cfg = SimConfig(
            happening_prob=0.4,
            max_happenings=2,
            rng=RngState.seeded(seed),
        )
        trace = generate_incident(kb, cfg)
        for step in trace.steps:
            chain = explain(trace, step.index).chain
            assert chain, f"seed {seed} step {step.index} has no chain"
            if step.kind == "action":
                assert chain[-1].role in terminal
            else:
                assert chain == (ChainLink(step.event, "exogenous"),)


def test_diversion_explanation_ends_at_the_revised_goal(kb):
    cfg = SimConfig(
        happening_prob=0.0,
        injection_schedule=((3, parse_term("ill_passenger")),),
    )
    trace = generate_incident(kb, cfg)
    landing = explain(trace, 4)
    assert landing.event == parse_term("land(airplane1, seattle)")
    assert landing.chain[-1] == ChainLink(
        parse_term("medical_help(passengers1)"),
        "revised_after",
        parse_term("ill_passenger"),
    )
