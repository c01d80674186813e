"""Fuzzing the definition-language and grammar parsers.

Random character strings almost never parse, so the inputs are built
from structure: knowledge bases and grammars generated as values, their
text, and that text with a few characters deleted, inserted or replaced.
Whatever the text, parsing either succeeds or raises ParseError; a
knowledge base that parses survives validation and a round trip through
its serialized text.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from incidentgen import (
    Atom,
    Compound,
    DerivationRule,
    EventDef,
    Grammar,
    KnowledgeBase,
    NonterminalRef,
    ParseError,
    RevisionRule,
    TerminalList,
    TextTemplate,
    Variable,
    parse_grammar,
    parse_kb,
    serialize_kb,
    validate_kb,
)
from incidentgen.dsl import _serialize_term
from incidentgen.grammar import Production

# keywords double as ordinary names inside terms
NAMES = ("a", "b", "p", "q", "fooBar", "r_1", "action", "when", "pre", "goal")
# "_" stands for an anonymous variable until a declaration numbers it
VARIABLES = ("X", "Y", "Who", "_G3", "_Tmp", "A1", "_")
CHARS = 'ab {}()[],;.:#"\\\n\t-->:-=>_XY'

names = st.sampled_from(NAMES)
atoms = names.map(Atom)


def terms(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.builds(
            Compound, names, st.lists(kids, min_size=1, max_size=3).map(tuple)
        ),
        max_leaves=6,
    )


open_terms = terms(atoms | st.sampled_from(VARIABLES).map(Variable))
ground_terms = terms(atoms)
heads = open_terms.filter(lambda t: not isinstance(t, Variable))


def numbered(*groups):
    """The groups of one declaration with each "_" numbered in reading
    order, the way the parser names anonymous variables."""
    count = iter(range(1, 1000))

    def number(term):
        if term == Variable("_"):
            return Variable(f"_{next(count)}")
        if isinstance(term, Compound):
            return Compound(term.functor, tuple(number(a) for a in term.args))
        return term

    return [tuple(number(t) for t in group) for group in groups]


slot_names = st.text("XYZab_ ", min_size=1, max_size=4).filter(str.strip)
template_parts = st.text('ab "\\\n\t#;', max_size=6) | slot_names.map(lambda s: "{" + s + "}")
templates = st.none() | st.lists(template_parts, max_size=4).map(
    lambda parts: TextTemplate.parse("".join(parts))
)


@st.composite
def events(draw):
    (head,), pcs, dels, adds = numbered(
        (draw(heads),), *(draw(st.lists(open_terms, max_size=2)) for _ in range(3))
    )
    kind = draw(st.sampled_from(("action", "happening")))
    return EventDef(kind, head, pcs, dels, adds, draw(templates))


@st.composite
def rules(draw):
    (head,), body = numbered((draw(heads),), draw(st.lists(open_terms, min_size=1, max_size=3)))
    return DerivationRule(head, body)


@st.composite
def revisions(draw):
    [(old, trigger, new)] = numbered(tuple(draw(open_terms) for _ in range(3)))
    return RevisionRule(old, trigger, new)


@st.composite
def knowledge_bases(draw):
    init = frozenset(draw(st.lists(ground_terms, max_size=3)))
    # a goal is planned from the init facts, so the parser wants both
    goal = draw(st.none() | open_terms.map(lambda g: numbered((g,))[0][0])) if init else None
    return KnowledgeBase(
        events=tuple(draw(st.lists(events(), max_size=3))),
        rules=tuple(draw(st.lists(rules(), max_size=2))),
        revisions=tuple(draw(st.lists(revisions(), max_size=2))),
        init=init,
        goal=goal,
    )


@st.composite
def productions(draw):
    head = draw(heads)
    items = draw(st.lists(st.lists(open_terms, max_size=2) | open_terms, min_size=1, max_size=3))
    groups = numbered((head,), *(i if isinstance(i, list) else (i,) for i in items))
    body = tuple(
        TerminalList(g) if isinstance(i, list) else NonterminalRef(g[0])
        for i, g in zip(items, groups[1:])
    )
    return Production(groups[0][0], body)


def grammar_text(grammar: Grammar) -> str:
    def item(i):
        if isinstance(i, TerminalList):
            return "[" + ", ".join(_serialize_term(t) for t in i.items) + "]"
        return _serialize_term(i.term)

    return "".join(
        f"{_serialize_term(p.head)} --> {', '.join(item(i) for i in p.body)}.\n"
        for p in grammar.productions
    )


@st.composite
def mutated(draw, text):
    """The text with up to three characters deleted, inserted or replaced."""
    chars = list(text)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(("delete", "insert", "replace")))
        if edit == "insert":
            chars.insert(at, draw(st.sampled_from(CHARS)))
        elif at < len(chars):
            if edit == "delete":
                del chars[at]
            else:
                chars[at] = draw(st.sampled_from(CHARS))
    return "".join(chars)


@given(knowledge_bases())
def test_a_knowledge_base_survives_its_own_text(kb):
    text = serialize_kb(kb)
    assert parse_kb(text, require_init_goal=False) == kb
    assert all(d.severity in ("error", "warning") for d in validate_kb(kb))


@given(st.data())
def test_kb_parsing_fails_only_with_parse_errors(data):
    text = data.draw(mutated(serialize_kb(data.draw(knowledge_bases()))))
    try:
        kb = parse_kb(text, require_init_goal=False)
    except ParseError:
        return
    validate_kb(kb)
    assert parse_kb(serialize_kb(kb), require_init_goal=False) == kb


@given(st.lists(productions(), min_size=1, max_size=4).map(lambda ps: Grammar(tuple(ps))))
def test_a_grammar_survives_its_own_text(grammar):
    assert parse_grammar(grammar_text(grammar)) == grammar


@given(st.data())
def test_grammar_parsing_fails_only_with_parse_errors(data):
    productions_ = data.draw(st.lists(productions(), min_size=1, max_size=4))
    text = data.draw(mutated(grammar_text(Grammar(tuple(productions_)))))
    try:
        parse_grammar(text)
    except ParseError:
        pass


@settings(max_examples=200)
@given(st.text(CHARS, max_size=40))
def test_token_soup_fails_only_with_parse_errors(text):
    for parse in (lambda: parse_kb(text, require_init_goal=False), lambda: parse_grammar(text)):
        try:
            parse()
        except ParseError:
            pass
