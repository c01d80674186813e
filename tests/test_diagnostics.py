"""Every front-end diagnostic, pinned to its exact text, position and order.

Each case lists ``str(d)`` for every diagnostic the tokenizer, the
parser and the validator report, in the order they report them.
"""

from dataclasses import replace

import pytest

from incidentgen import (
    ParseError,
    parse_kb,
    parse_kb_with_diagnostics,
    parse_term,
    validate_kb,
)
from incidentgen.grammar import parse_grammar


def _kb(case_id, text, *expected):
    # one list serves both require_init_goal values unless two are given
    strict, lenient = expected if len(expected) == 2 else expected * 2
    return pytest.param(text, strict, lenient, id=case_id)


KB_CASES = [
    _kb(
        "tokenizer",
        'init { p; } @ goal p.\naction a { add: p; text: "unclosed;\n}\n',
        [
            "k.kb:1:13: error: unexpected character '@'",
            "k.kb:2:26: error: unterminated string",
            "k.kb:3:1: error: expected a string, got '}'",
        ],
    ),
    _kb(
        "not_a_declaration",
        "foo bar.\ninit { p; }\ngoal p.\n",
        [
            "k.kb:1:1: error: expected a declaration "
            "(action, happening, rule, revise, init, goal), got 'foo'",
        ],
    ),
    _kb(
        "event_head_variable",
        "action X { add: p; }\ninit { p; }\ngoal p.\n",
        ["k.kb:1:1: error: event head must be an atom or a compound term"],
    ),
    _kb(
        "unterminated_event_block",
        "init { p; }\ngoal p.\naction a { add: p;",
        ["k.kb:3:19: error: unterminated event block"],
    ),
    _kb(
        "unknown_section",
        "action a { post: p; }\ninit { p; }\ngoal p.\n",
        ["k.kb:1:12: error: expected pre, del, add, or text, got 'post'"],
    ),
    _kb(
        "section_syntax",
        "action a { text p; }\naction b { text: p; }\naction c { pre: , }\n"
        "action d { add: p }\ninit { p; }\ngoal p.\n",
        [
            "k.kb:1:17: error: expected ':', got 'p'",
            "k.kb:2:18: error: expected a string, got 'p'",
            "k.kb:3:17: error: expected a term, got ','",
            "k.kb:4:19: error: expected ';', got '}'",
        ],
    ),
    _kb(
        "duplicate_sections",
        'action a {\n  pre: p; pre: q;\n  add: r; add: s;\n  text: "a"; text: "b";\n}\n'
        "init { p; }\ngoal r.\n",
        [
            "k.kb:2:11: error: duplicate pre section",
            "k.kb:3:11: error: duplicate add section",
            "k.kb:4:20: error: duplicate text section",
        ],
    ),
    _kb(
        "bad_templates",
        'action a { add: p; text: "{"; }\naction b { add: p; text: "{ }"; }\n'
        'action c { add: p; text: "}"; }\ninit { p; }\ngoal p.\n',
        [
            "k.kb:1:26: error: unclosed '{' in template",
            "k.kb:2:26: error: empty placeholder in template",
            "k.kb:3:26: error: unmatched '}' in template",
        ],
    ),
    _kb(
        "rules",
        "rule X :- p.\nrule r :- .\nrule s p.\ninit { p; }\ngoal p.\n",
        [
            "k.kb:1:1: error: rule head must be an atom or a compound term",
            "k.kb:2:11: error: rule needs at least one body goal",
            "k.kb:3:8: error: expected ':-', got 'p'",
        ],
    ),
    _kb(
        "revisions",
        "revise p whenever q => r.\nrevise p when q r.\ninit { p; }\ngoal p.\n",
        [
            "k.kb:1:10: error: expected 'when', got 'whenever'",
            "k.kb:2:17: error: expected '=>', got 'r'",
        ],
    ),
    _kb(
        "init_block",
        "goal p.\ninit { p(X); q;\n",
        [
            "k.kb:2:8: error: initial fact must be ground: p(X)",
            "k.kb:3:1: error: unterminated init block",
        ],
    ),
    _kb(
        "goals",
        "init { p; }\ngoal p.\ngoal q.\ngoal r",
        [
            "k.kb:3:1: error: duplicate goal declaration",
            "k.kb:4:7: error: expected '.', got end of input",
        ],
    ),
    _kb(
        "reserved_variable",
        'action a(_1) { add: p; text: "a"; }\ninit { p; }\ngoal p.\n',
        ["k.kb:1:10: error: variable name '_1' is reserved for anonymous variables"],
    ),
    _kb(
        "empty",
        "",
        [
            "k.kb:1:1: error: missing goal declaration",
            "k.kb:1:1: error: missing or empty init block",
        ],
        [],
    ),
    _kb(
        "init_without_goal",
        "init { p; }\n",
        ["k.kb:2:1: error: missing goal declaration"],
        [],
    ),
    _kb(
        "goal_without_init",
        "goal p.\n",
        ["k.kb:2:1: error: missing or empty init block"],
    ),
    _kb(
        "validator",
        'action go(A) { pre: at(A); del: at(B); add: at(C); text: "go {D}"; }\n'
        'action go(A) { pre: at(A); add: here; text: "again"; }\n'
        "action silent { add: nowhere; }\n"
        'happening go(A) { pre: at(A), cloudy; add: wet; text: "wet"; }\n'
        "happening storm { pre: cloudy, P; add: wet; }\n"
        "revise at(X) when wet => at(Y).\n"
        "init { at(home); }\n"
        "goal at(P).\n",
        [
            "k.kb:1:1: error: uninstantiated delete: variable B of go/1 is bound by "
            "neither head nor preconditions",
            "k.kb:1:1: error: uninstantiated add: variable C of go/1 is bound by "
            "neither head nor preconditions",
            "k.kb:1:1: error: template placeholder {D} of go/1 is bound by neither "
            "head nor preconditions",
            "k.kb:2:1: error: duplicate definition of action go/1",
            "k.kb:3:1: warning: action silent/0 has no text template",
            "k.kb:4:1: warning: precondition cloudy/0 of happening go/1 is never "
            "established",
            "k.kb:5:1: warning: precondition cloudy/0 of happening storm/0 is never "
            "established",
            "k.kb:6:1: error: revised goal variable Y is bound by neither the pattern "
            "nor the trigger",
            "k.kb:0:0: error: goal must be ground: at(P)",
        ],
    ),
    _kb(
        "unusable_adds",
        'action go { add: here; text: "go"; }\naction stay { add: there; }\n'
        "init { there; }\ngoal there.\n",
        [
            "k.kb:1:1: warning: action go/0 adds nothing any goal, rule, or precondition can use",
            "k.kb:2:1: warning: action stay/0 has no text template",
        ],
    ),
]


@pytest.mark.parametrize("text, strict, lenient", KB_CASES)
def test_kb_diagnostics_are_pinned(text, strict, lenient):
    for require, expected in ((True, strict), (False, lenient)):
        kb, diags = parse_kb_with_diagnostics(text, "k.kb", require_init_goal=require)
        if kb is None:
            with pytest.raises(ParseError) as exc:
                parse_kb(text, "k.kb", require_init_goal=require)
            assert str(exc.value) == "\n".join(expected)
        else:
            diags = diags + validate_kb(kb, "k.kb")
        assert [str(d) for d in diags] == expected


def test_validator_diagnostics_for_a_library_built_kb_are_pinned():
    # the parser rejects open init facts; library code can still build them
    kb = parse_kb(
        "action go(A) { pre: at(A); add: at(B); }\ninit { at(home); }\n",
        require_init_goal=False,
    )
    kb = replace(
        kb,
        events=tuple(replace(e, pos=None) for e in kb.events),
        init=frozenset(map(parse_term, ("at(X)", "p(_)", "home"))),
        goal=parse_term("at(Y)"),
    )
    assert [str(d) for d in validate_kb(kb, "lib")] == [
        "lib:0:0: error: uninstantiated add: variable B of go/1 is bound by neither "
        "head nor preconditions",
        "lib:0:0: warning: action go/1 has no text template",
        "lib:0:0: error: initial fact must be ground: at(X)",
        "lib:0:0: error: initial fact must be ground: p(_1)",
        "lib:0:0: error: goal must be ground: at(Y)",
    ]


@pytest.mark.parametrize(
    "text, expected",
    [
        pytest.param("f(a) b", ["t:1:6: error: unexpected input after term: 'b'"], id="trailing"),
        pytest.param("", ["t:1:1: error: expected a term, got end of input"], id="empty"),
        pytest.param("f(a, ", ["t:1:6: error: expected a term, got end of input"], id="unclosed"),
        pytest.param(
            "f(_3, $)",
            [
                "t:1:7: error: unexpected character '$'",
                "t:1:3: error: variable name '_3' is reserved for anonymous variables",
                "t:1:8: error: expected a term, got ')'",
            ],
            id="reserved_and_character",
        ),
        pytest.param('"s"', ["t:1:1: error: expected a term, got a string"], id="string"),
        pytest.param(
            '"abc',
            [
                "t:1:1: error: unterminated string",
                "t:1:5: error: expected a term, got end of input",
            ],
            id="unterminated_string",
        ),
        pytest.param(
            "_7",
            ["t:1:1: error: variable name '_7' is reserved for anonymous variables"],
            id="reserved_variable",
        ),
    ],
)
def test_term_diagnostics_are_pinned(text, expected):
    with pytest.raises(ParseError) as exc:
        parse_term(text, "t")
    assert [str(d) for d in exc.value.diagnostics] == expected
    assert str(exc.value) == "\n".join(expected)


@pytest.mark.parametrize(
    "text, expected",
    [
        pytest.param(
            "X --> a.\ns --> [x].\n",
            ["g:1:1: error: production head must be an atom or a compound term"],
            id="head_variable",
        ),
        pytest.param(
            "a b.\ns --> [x, y.\nok --> [].\nt --> [x] @.\n",
            [
                "g:4:11: error: unexpected character '@'",
                "g:1:3: error: expected '-->', got 'b'",
                "g:2:12: error: expected ']', got '.'",
            ],
            id="recovery",
        ),
        pytest.param(
            'a b "." c d.\ns --> [x].\n',
            ["g:1:3: error: expected '-->', got 'b'"],
            id="recovery_past_a_dot_string",
        ),
        pytest.param(
            "s --> [x], ", ["g:1:12: error: expected a term, got end of input"], id="unterminated"
        ),
        pytest.param(
            "s --> [x,].\nu --> [(].\n",
            [
                "g:1:10: error: expected a term, got ']'",
                "g:2:8: error: expected a term, got '('",
            ],
            id="terminal_lists",
        ),
    ],
)
def test_grammar_diagnostics_are_pinned(text, expected):
    with pytest.raises(ParseError) as exc:
        parse_grammar(text, "g")
    assert [str(d) for d in exc.value.diagnostics] == expected
    assert str(exc.value) == "\n".join(expected)
