"""Narration and why-explanations over generated traces."""

import pytest

from incidentgen import (
    ChainLink,
    GoalEntry,
    SimConfig,
    Trace,
    UnboundSlotError,
    UnknownEventError,
    explain,
    format_explanation,
    generate_incident,
    parse_kb,
    parse_term,
    render_event,
    render_story,
)

ILL_STORY = (
    "The passengers boarded the plane.\n"
    "The plane taxiied to the runway.\n"
    "The plane took off from seattle.\n"
    "A passenger became very ill.\n"
    "The plane landed at seattle.\n"
    "The plane taxiied to the gate.\n"
    "The passengers disembarked.\n"
    "Medical help was provided.\n"
)


@pytest.fixture(scope="module")
def ill_trace(kb):
    cfg = SimConfig(
        happening_prob=0.0, injection_schedule=((3, parse_term("ill_passenger")),)
    )
    return generate_incident(kb, cfg)


# ---------------------------------------------------------------- rendering


def test_render_event_fills_head_slots(kb):
    assert (
        render_event(parse_term("take_off(airplane1, seattle)"), kb)
        == "The plane took off from seattle."
    )
    assert (
        render_event(parse_term("cruise(airplane1, seattle, chicago)"), kb)
        == "The plane cruised towards chicago."
    )


def test_render_event_unknown(kb):
    with pytest.raises(UnknownEventError):
        render_event(parse_term("teleport(airplane1)"), kb)


def test_render_event_slot_bound_only_by_preconditions():
    courier = parse_kb(
        """
action deliver(Agent) { pre: agent(Agent), parcel(Parcel); del: parcel(Parcel);
  add: delivered(Parcel); text: "{Agent} delivered {Parcel}."; }
init { agent(robot); parcel(box1); }
goal delivered(box1).
"""
    )
    trace = generate_incident(courier, SimConfig(happening_prob=0.0))
    step = trace.steps[0]
    assert render_event(step.event, courier, step.bindings) == "robot delivered box1."
    # the template needs the execution-time bindings; without them it fails
    with pytest.raises(
        UnboundSlotError, match=r"^template slot \{Parcel\} is unbound for deliver\(robot\)$"
    ):
        render_event(step.event, courier)


def test_render_story_plain(kb, ill_trace):
    assert render_story(ill_trace, kb) == ILL_STORY


def test_render_story_storybook(kb, ill_trace):
    got = render_story(ill_trace, kb, style="storybook")
    lines = ["Once upon a time..."] + [
        " " * 7 + line for line in ILL_STORY.splitlines()
    ]
    assert got == "\n".join(lines) + "\n"


def test_render_story_rejects_unknown_style(kb, ill_trace):
    with pytest.raises(ValueError, match="unknown style"):
        render_story(ill_trace, kb, style="epic")


def test_render_story_empty_trace(kb):
    empty = Trace(
        steps=(),
        goal_history=(GoalEntry(0, kb.goal, "initial"),),
        replans=(),
        initial_situation=kb.init,
    )
    assert render_story(empty, kb) == ""
    assert render_story(empty, kb, style="storybook") == "Once upon a time...\n"


# -------------------------------------------------------------- explanation


def test_explain_action_before_revision(kb, ill_trace):
    expl = explain(ill_trace, 0)
    assert expl.event == parse_term("load(passengers1, airplane1)")
    assert expl.chain == (
        ChainLink(
            parse_term("contains(airplane1, passengers1)"),
            "precondition_of",
            parse_term("unload(passengers1, airplane1)"),
        ),
        ChainLink(parse_term("plocation(passengers1, gate(dallas))"), "top_goal"),
    )


def test_explain_chain_reaches_the_revised_goal(kb, ill_trace):
    expl = explain(ill_trace, 4)
    assert expl.event == parse_term("land(airplane1, seattle)")
    assert [link.role for link in expl.chain] == [
        "precondition_of",
        "precondition_of",
        "precondition_of",
        "revised_after",
    ]
    assert expl.chain[-1] == ChainLink(
        parse_term("medical_help(passengers1)"),
        "revised_after",
        parse_term("ill_passenger"),
    )


def test_explain_happening_is_exogenous(kb, ill_trace):
    expl = explain(ill_trace, 3)
    assert expl.chain == (
        ChainLink(parse_term("ill_passenger"), "exogenous"),
    )


def test_explain_rejects_bad_index(kb, ill_trace):
    with pytest.raises(IndexError, match="out of range"):
        explain(ill_trace, 99)


def test_format_explanation_texts(kb, ill_trace):
    assert format_explanation(explain(ill_trace, 3)) == (
        "why ill_passenger?\n  it happened on its own; nobody planned it\n"
    )
    assert format_explanation(explain(ill_trace, 0)) == (
        "why load(passengers1, airplane1)?\n"
        "  because contains(airplane1, passengers1) is a precondition of"
        " unload(passengers1, airplane1)\n"
        "  because plocation(passengers1, gate(dallas)) is the goal\n"
    )
    assert format_explanation(explain(ill_trace, 4)) == (
        "why land(airplane1, seattle)?\n"
        "  because alocation(airplane1, runway(seattle)) is a precondition of"
        " taxi_to_gate(airplane1)\n"
        "  because alocation(airplane1, gate(seattle)) is a precondition of"
        " unload(passengers1, airplane1)\n"
        "  because plocation(passengers1, gate(seattle)) is a precondition of"
        " medical_help(passengers1)\n"
        "  because medical_help(passengers1) became the goal after ill_passenger\n"
    )
