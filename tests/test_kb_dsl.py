"""Definition-language parsing, validation, and serialization."""

import pickle
import re
import subprocess
import sys

import pytest

from incidentgen import (
    KnowledgeBase,
    ParseError,
    TextTemplate,
    load_aviation,
    load_kb,
    parse_kb,
    parse_kb_with_diagnostics,
    parse_term,
    serialize_kb,
    validate_kb,
)
from incidentgen.kb import Literal, Slot, aviation_kb_path, data_path


def test_aviation_inventory(kb):
    assert [(e.kind, e.name, e.arity) for e in kb.events] == [
        ("action", "load", 2),
        ("action", "taxi_to_runway", 1),
        ("action", "take_off", 2),
        ("action", "cruise", 3),
        ("action", "land", 2),
        ("action", "taxi_to_gate", 1),
        ("action", "unload", 2),
        ("action", "evacuate", 1),
        ("action", "emergency_landing", 1),
        ("action", "medical_help", 1),
        ("happening", "fire", 1),
        ("happening", "ill_passenger", 0),
    ]
    assert len(kb.rules) == 6
    assert sorted({r.head.functor for r in kb.rules}) == ["a_on_ground", "p_on_ground"]
    assert len(kb.revisions) == 2
    assert len(kb.init) == 6
    assert kb.goal == parse_term("plocation(passengers1, gate(dallas))")


def test_aviation_validates_clean(kb):
    assert validate_kb(kb) == []


def test_round_trip_is_fixed_point(kb):
    text = serialize_kb(kb)
    again = parse_kb(text)
    assert again.events == kb.events
    assert again.rules == kb.rules
    assert again.revisions == kb.revisions
    assert again.init == kb.init
    assert again.goal == kb.goal
    assert serialize_kb(again) == text


def test_revision_order_fire_first(kb):
    assert kb.revisions[0].trigger == parse_term("on_fire(engine)")
    assert kb.revisions[1].trigger == parse_term("ill_passenger")


def test_anonymous_variables_are_distinct():
    t = parse_term("f(_, _)")
    assert t.args[0] != t.args[1]


def test_reserved_variable_names_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse_term("f(_12)")


def test_parse_recovers_and_reports_each_error():
    src = """
action one { pre }
rule a_on_ground(P) :- .
goal plocation(p, gate(g)).
"""
    kb, diags = parse_kb_with_diagnostics(src)
    errors = [d for d in diags if d.severity == "error"]
    assert kb is None
    assert len(errors) >= 2
    assert all(d.line > 0 for d in errors)


def test_parse_kb_raises_on_error():
    with pytest.raises(ParseError):
        parse_kb("action broken {")


def test_load_kb_requires_init_and_goal():
    path = str(data_path("saboteur.kb"))
    with pytest.raises(ParseError, match="goal"):
        load_kb(path)
    adv = load_kb(path, require_init_goal=False)
    assert [e.name for e in adv.actions] == ["sabotage"]
    assert adv.goal is None


def test_validate_flags_duplicate_definition():
    kb = parse_kb(
        """
action go { add: there; text: "go"; }
action go { add: there; text: "go"; }
init { here; }
goal there.
"""
    )
    messages = [d.message for d in validate_kb(kb) if d.severity == "error"]
    assert any("duplicate" in m for m in messages)


def test_validate_flags_unbound_effect_variable():
    kb = parse_kb(
        """
action go(A) { add: at(B); text: "go"; }
init { x; }
goal at(somewhere).
"""
    )
    messages = [d.message for d in validate_kb(kb) if d.severity == "error"]
    assert any("uninstantiated add" in m and "B" in m for m in messages)


def test_validate_flags_unbound_template_slot():
    kb = parse_kb(
        """
action go(A) { add: at(A); text: "went to {B}"; }
init { x; }
goal at(somewhere).
"""
    )
    messages = [d.message for d in validate_kb(kb) if d.severity == "error"]
    assert any("placeholder" in m and "{B}" in m for m in messages)


def test_validate_flags_unbound_revision_variable():
    kb = parse_kb(
        """
action go { add: there; text: "go"; }
revise there when trouble => safe(Where).
init { here; }
goal there.
"""
    )
    messages = [d.message for d in validate_kb(kb) if d.severity == "error"]
    assert any("revised goal variable Where" in m for m in messages)


def test_parser_rejects_nonground_init_fact():
    _, diags = parse_kb_with_diagnostics(
        """
action go { add: there; text: "go"; }
init { at(X); }
goal there.
"""
    )
    messages = [d.message for d in diags if d.severity == "error"]
    assert any("initial fact must be ground" in m for m in messages)


def test_validate_flags_nonground_init_and_goal():
    # constructed directly: the parser catches this on its own path
    kb = KnowledgeBase(
        init=frozenset({parse_term("at(X)")}), goal=parse_term("somewhere(Y)")
    )
    messages = [d.message for d in validate_kb(kb) if d.severity == "error"]
    assert any("initial fact must be ground" in m for m in messages)
    assert any("goal must be ground" in m for m in messages)


def test_validate_warns_on_missing_template_and_useless_add():
    kb = parse_kb(
        """
action decorate { add: tinsel; }
init { here; }
goal there.
"""
    )
    warnings = [d.message for d in validate_kb(kb) if d.severity == "warning"]
    assert any("no text template" in m for m in warnings)
    assert any("adds nothing" in m for m in warnings)


def test_validate_warns_on_unestablishable_happening_precondition():
    kb = parse_kb(
        """
action go { add: there; text: "go"; }
happening storm { pre: clouds(Sky); add: wet; }
init { here; }
goal there.
"""
    )
    warnings = [d.message for d in validate_kb(kb) if d.severity == "warning"]
    assert any("never established" in m for m in warnings)


def test_match_event_respects_kind(kb):
    hit = kb.match_event(parse_term("load(passengers1, airplane1)"))
    assert hit is not None and hit[0].name == "load"
    assert kb.match_event(parse_term("ill_passenger"), kind="action") is None
    assert kb.match_event(parse_term("ill_passenger"), kind="happening") is not None


def test_template_parsing():
    t = TextTemplate.parse("{Who} went to {Where}.")
    assert t.slot_names() == ["Who", "Where"]
    assert t.render({"Who": "x", "Where": "y"}) == "x went to y."
    with pytest.raises(ValueError):
        TextTemplate.parse("oops {")


def test_template_segments_equal_only_their_own_kind():
    assert TextTemplate.parse("to {Where}").segments == (Literal("to "), Slot("Where"))
    assert Literal("x") != Slot("x") and not Literal("x") == Slot("x")
    assert Literal("x") != ("x",) and ("x",) != Slot("x")
    assert hash(Literal("x")) == hash(Literal("x"))
    assert repr(Slot("x")) == "Slot(var='x')"


@pytest.mark.parametrize("name", ["aviation.kb", "saboteur.kb"])
def test_every_bundled_template_renders_its_text_with_each_slot_filled(name):
    # the reference: the raw text with each {Var} replaced by its value
    kb = load_kb(data_path(name), require_init_goal=False)
    templates = [e.template for e in kb.events if e.template is not None]
    assert templates
    for template in templates:
        values = {var: f"<{var.lower()}>" for var in template.slot_names()}
        expected = re.sub(r"\{\s*(\w+)\s*\}", lambda m: values[m[1]], template.raw)
        assert template.render(values) == expected


def test_bundled_data_paths():
    assert aviation_kb_path().exists()
    assert data_path("incident.grammar").exists()


def test_a_knowledge_base_hashes_by_value_and_pickles(kb):
    again = load_aviation()
    assert again is not kb and again == kb and hash(again) == hash(kb)
    copy = pickle.loads(pickle.dumps(kb))
    assert copy == kb and hash(copy) == hash(kb)
    # another interpreter hashes strings with another seed, so a copy
    # must hash as that interpreter's own knowledge base does
    script = (
        "import pickle, sys; from incidentgen import load_aviation; "
        "copy = pickle.loads(sys.stdin.buffer.read()); "
        "print(hash(copy) == hash(load_aviation()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps(kb),
        capture_output=True,
        env={"PYTHONPATH": ":".join(sys.path), "PYTHONHASHSEED": "1"},
        check=True,
    )
    assert done.stdout == b"True\n"
