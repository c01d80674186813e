"""Term layer: unification, substitution, ordering, renaming."""

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incidentgen import (
    Atom,
    Compound,
    DerivationRule,
    EventDef,
    FreshNames,
    RevisionRule,
    Substitution,
    Variable,
    data_path,
    format_term,
    fresh_event,
    fresh_floor,
    fresh_revision,
    fresh_rule,
    ground,
    load_kb,
    occurs_in,
    parse_term,
    substitute,
    term_key,
    unify,
    variables,
)
from incidentgen.terms import _may_unify

atoms = st.sampled_from("a b c dallas engine".split()).map(Atom)
variables_ = st.sampled_from("X Y Z Who".split()).map(Variable)
terms = st.recursive(
    atoms | variables_,
    lambda kids: st.builds(
        Compound,
        st.sampled_from("f g pair".split()),
        st.tuples(kids) | st.tuples(kids, kids),
    ),
    max_leaves=6,
)


@st.composite
def substitutions(draw):
    """Bindings as unification leaves them: each binds a variable not yet
    bound to a term it does not occur in, so no chain is a cycle."""
    bindings = {}
    for var, value in draw(st.lists(st.tuples(variables_, terms), max_size=4)):
        if var not in bindings and not oracles.occurs(var, value, bindings):
            bindings[var] = value
    return bindings


def test_unify_binds_variable():
    s = unify(Variable("X"), Atom("dallas"))
    assert s is not None
    assert substitute(Variable("X"), s) == Atom("dallas")


def test_unify_mismatched_atoms():
    assert unify(Atom("a"), Atom("b")) is None


def test_unify_functor_and_arity_must_match():
    assert unify(parse_term("f(a)"), parse_term("g(a)")) is None
    assert unify(parse_term("f(a)"), parse_term("f(a, b)")) is None


def test_unify_compound_recurses():
    s = unify(parse_term("alocation(Plane, gate(City))"), parse_term("alocation(airplane1, gate(dallas))"))
    assert s is not None
    assert substitute(Variable("Plane"), s) == Atom("airplane1")
    assert substitute(Variable("City"), s) == Atom("dallas")


def test_unify_occurs_check():
    assert unify(Variable("X"), parse_term("f(X)")) is None
    assert occurs_in(Variable("X"), parse_term("g(f(X))"), Substitution())


def test_unify_threads_existing_bindings():
    s = unify(Variable("X"), Variable("Y"))
    s = unify(Variable("Y"), Atom("a"), s)
    assert s is not None
    assert substitute(Variable("X"), s) == Atom("a")
    assert unify(Variable("X"), Atom("b"), s) is None


def test_substitute_leaves_unbound_variables():
    term = parse_term("f(X, Y)")
    s = unify(Variable("X"), Atom("a"))
    assert substitute(term, s) == parse_term("f(a, Y)")


def test_ground_and_variables():
    assert ground(parse_term("f(a, g(b))"))
    assert not ground(parse_term("f(a, X)"))
    assert variables(parse_term("f(X, g(Y, X))")) == [Variable("X"), Variable("Y")]


def test_term_order_groups_kinds():
    v, a, c = Variable("Z"), Atom("a"), parse_term("f(a)")
    assert term_key(v) < term_key(a) < term_key(c)


def test_term_order_compounds_arity_major():
    # arity dominates the functor name
    assert term_key(parse_term("z(a)")) < term_key(parse_term("a(a, b)"))


def test_format_round_trip():
    for text in ("f(a, g(X, b))", "dallas", "Who", "flight_path(seattle, chicago)"):
        assert parse_term(format_term(parse_term(text))) == parse_term(text)


def test_fresh_names_are_consistent_within_a_term():
    [(renamed,)] = FreshNames().rename((parse_term("f(X, g(X, Y))"),))
    got = variables(renamed)
    assert len(set(got)) == 2
    assert renamed.args[0] == renamed.args[1].args[0]
    assert not set(got) & {Variable("X"), Variable("Y")}


def test_fresh_names_share_one_mapping_across_groups():
    names = FreshNames()
    (left,), (right,) = names.rename((parse_term("f(X)"),), (parse_term("g(X, Y)"),))
    assert left.args[0] == right.args[0]
    assert left.args[0] != right.args[1]
    [(again,)] = names.rename((parse_term("f(X)"),))
    assert again.args[0] not in variables(left) + variables(right)


def test_fresh_names_count_from_above_the_floor():
    inputs = [parse_term(t) for t in ("p(_G7, _G12x, _Gx)", "q(_G3)", "G99", "r(_G)")]
    assert fresh_floor(inputs) == 7
    assert fresh_floor([parse_term("p(X, a)")]) == 0
    names = FreshNames(fresh_floor(inputs))
    [(first,)] = names.rename((parse_term("f(X, Y)"),))
    names.reserve(3)
    [(second,)] = names.rename((parse_term("g(X)"),))
    assert format_term(first) == "f(_G8, _G9)"
    assert format_term(second) == "g(_G13)"


def test_substitution_is_immutable_mapping():
    s = unify(Variable("X"), Atom("a"))
    assert s[Variable("X")] == Atom("a")
    assert len(s) == 1 and list(s) == [Variable("X")]
    with pytest.raises(TypeError):
        s[Variable("Y")] = Atom("b")


@given(terms, terms)
def test_unify_soundness(a, b):
    s = unify(a, b)
    if s is not None:
        assert substitute(a, s) == substitute(b, s)


@settings(max_examples=300)
@given(terms, terms, terms, terms)
def test_match_screen_passes_every_pair_that_unifies(goal, clause, left, right):
    # the planner screens a clause term as written and unifies the goal
    # with the clause renamed apart, under bindings that unify made
    s = unify(left, right) or Substitution()
    for raw in (clause, goal):
        [(renamed,)] = FreshNames(fresh_floor([goal, left, right])).rename((raw,))
        if unify(goal, renamed, s) is not None:
            assert _may_unify(goal, raw, s)


@given(terms)
def test_unify_reflexive(t):
    assert unify(t, t) is not None


@given(terms, terms, terms)
def test_term_order_transitive(a, b, c):
    if term_key(a) <= term_key(b) <= term_key(c):
        assert term_key(a) <= term_key(c)


@given(terms)
def test_fresh_rename_preserves_shape(t):
    [(renamed,)] = FreshNames().rename((t,))
    assert ground(t) == ground(renamed)
    assert unify(t, renamed) is not None


# ------------------------------------------------ against the plain reference


def _as_dict(subst):
    return None if subst is None else dict(subst)


@st.composite
def alike(draw):
    """Two terms of one shape, which often unify: the second is the first
    with some subterms swapped for a variable or an atom."""

    def vary(t):
        if draw(st.integers(0, 3)) == 0:
            return draw(variables_ | atoms)
        if isinstance(t, Compound):
            return Compound(t.functor, tuple(vary(arg) for arg in t.args))
        return t

    first = draw(terms)
    return first, vary(first)


@given(st.tuples(terms, terms) | alike(), substitutions())
def test_unify_agrees_with_the_reference(pair, bindings):
    a, b = pair
    got = unify(a, b, Substitution(bindings))
    assert _as_dict(got) == oracles.unify_terms(a, b, bindings)


@given(variables_, terms, substitutions())
def test_the_occurs_check_agrees_with_the_reference(var, t, bindings):
    wrapped = Compound("f", (t, var))
    for a, b in ((var, wrapped), (wrapped, var), (Compound("g", (var,)), t)):
        got = unify(a, b, Substitution(bindings))
        assert _as_dict(got) == oracles.unify_terms(a, b, bindings)


@given(terms, substitutions())
def test_substitute_agrees_with_the_reference(t, bindings):
    assert substitute(t, Substitution(bindings)) == oracles.substitute_term(t, bindings)


@given(st.lists(st.lists(terms, max_size=3), max_size=4), st.integers(0, 40))
def test_rename_agrees_with_the_reference(groups, floor):
    names = FreshNames(floor)
    expected, after = oracles.rename_groups(groups, floor + 1)
    assert names.rename(*groups) == expected
    assert names.rename((Variable("Next"),)) == [(Variable(f"_G{after}"),)]


def test_a_renamed_clause_shares_its_ground_subterms():
    clause = parse_term("f(X, g(a, b), h(X, k(c)))")
    [(renamed,)] = FreshNames().rename((clause,))
    assert format_term(renamed) == "f(_G1, g(a, b), h(_G1, k(c)))"
    assert renamed.args[1] is clause.args[1]
    assert renamed.args[2].args[1] is clause.args[2].args[1]


def _clause_groups(clause):
    if isinstance(clause, EventDef):
        return ((clause.head,), clause.pcs, clause.dels, clause.adds)
    if isinstance(clause, DerivationRule):
        return ((clause.head,), clause.body)
    return ((clause.old, clause.trigger, clause.new),)


_FRESH = {EventDef: fresh_event, DerivationRule: fresh_rule, RevisionRule: fresh_revision}


@pytest.mark.parametrize("name", ["aviation.kb", "saboteur.kb"])
def test_fresh_width_is_the_names_each_clause_takes(name):
    kb = load_kb(data_path(name), require_init_goal=False)
    for clause in (*kb.events, *kb.rules, *kb.revisions):
        names = FreshNames(7)
        renamed = _FRESH[type(clause)](clause, names)
        expected, after = oracles.rename_groups(_clause_groups(clause), 8)
        assert list(_clause_groups(renamed)) == expected
        assert after == 8 + clause.fresh_width
        assert names.rename((Variable("Next"),)) == [(Variable(f"_G{after}"),)]
