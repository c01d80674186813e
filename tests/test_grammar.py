"""Story-grammar parsing, sampling, and exhaustive expansion."""

import pytest
from oracles import grammar_expansions

from incidentgen import (
    Atom,
    DeadEndError,
    DepthExceededError,
    NonterminalRef,
    ParseError,
    RngState,
    TerminalList,
    UnknownNonterminalError,
    enumerate_expansions,
    expand,
    find_dead_ends,
    load_grammar,
    parse_grammar,
    parse_term,
    unify,
)
from incidentgen.kb import data_path


@pytest.fixture(scope="module")
def incident_grammar():
    return load_grammar(str(data_path("incident.grammar")))


@pytest.fixture(scope="module")
def rumelhart_grammar():
    return load_grammar(str(data_path("rumelhart.grammar")))


def tokens(seq):
    return [t.name for t in seq]


# ------------------------------------------------------------------ parsing


def test_bundled_grammars_load(incident_grammar, rumelhart_grammar):
    assert len(incident_grammar.productions) == 10
    assert len(rumelhart_grammar.productions) == 9


def test_production_structure():
    g = parse_grammar("s --> [a, b], t(X).\nt(X) --> [].\n")
    head, body = g.productions[0].head, g.productions[0].body
    assert head == Atom("s")
    assert body == (
        TerminalList((Atom("a"), Atom("b"))),
        NonterminalRef(parse_term("t(X)")),
    )
    assert g.productions[1].body == (TerminalList(()),)


def test_parse_reports_every_error():
    with pytest.raises(ParseError) as exc:
        parse_grammar("s --> .\nt --> [ok].\nVar --> [x].\n")
    message = str(exc.value)
    assert message.count("error:") == 2
    assert "production head" in message


# ----------------------------------------------------------------- sampling


def test_expand_walks_the_short_path(incident_grammar):
    seq = expand(incident_grammar, parse_term("incident"), RngState.seeded(0))
    assert tokens(seq) == ["taxi", "takeoff", "transponder_broke", "land", "taxi_back"]


def test_expand_can_include_the_cruise(incident_grammar):
    seq = expand(incident_grammar, parse_term("incident"), RngState.seeded(5))
    assert tokens(seq) == [
        "taxi",
        "takeoff",
        "cruise",
        "transponder_broke",
        "land",
        "taxi_back",
    ]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 7])
def test_expand_dead_ends_on_the_weather_branch(incident_grammar, seed):
    # picking bad_weather is fatal: nothing rewrites its response
    with pytest.raises(DeadEndError, match="response"):
        expand(incident_grammar, parse_term("incident"), RngState.seeded(seed))


def test_expand_dead_ends_with_the_table_source(incident_grammar):
    with pytest.raises(DeadEndError):
        expand(incident_grammar, parse_term("incident"), RngState.table())


def test_expand_unknown_symbol(incident_grammar):
    with pytest.raises(UnknownNonterminalError):
        expand(incident_grammar, parse_term("nonexistent"), RngState.table())


def test_expand_depth_limit():
    loop = parse_grammar("a --> a.")
    with pytest.raises(DepthExceededError):
        expand(loop, parse_term("a"), RngState.table())


# -------------------------------------------------------------- enumeration


def test_enumerate_the_three_incidents(incident_grammar):
    got = [tokens(seq) for seq in enumerate_expansions(incident_grammar, parse_term("incident"))]
    assert got == [
        ["taxi", "transponder_broke", "land", "taxi_back"],
        ["taxi", "takeoff", "transponder_broke", "land", "taxi_back"],
        ["taxi", "takeoff", "cruise", "transponder_broke", "land", "taxi_back"],
    ]


def test_every_complete_incident_resolves_its_own_problem(incident_grammar):
    for seq in enumerate_expansions(incident_grammar, parse_term("incident")):
        names = tokens(seq)
        assert "transponder_broke" in names
        assert names[-2:] == ["land", "taxi_back"]
        assert "stormy" not in names


def test_dead_end_report_names_the_weather_response(incident_grammar):
    dead = find_dead_ends(incident_grammar, parse_term("incident"))
    assert dead == [parse_term("response(bad_weather(stormy))")]


def test_expansion_names_start_above_the_symbols_own():
    # the symbol's _G1 is an input; renamed to _G1 as well, the
    # production's X would fail the occurs check
    grammar = parse_grammar("start(f(X)) --> [x(X)].")
    symbol = parse_term("start(_G1)")
    assert enumerate_expansions(grammar, symbol) == [[parse_term("x(_G2)")]]
    assert expand(grammar, symbol, RngState.table()) == [parse_term("x(_G2)")]


def test_loops_prune_silently():
    loop = parse_grammar("a --> a.")
    assert enumerate_expansions(loop, parse_term("a")) == []
    assert find_dead_ends(loop, parse_term("a")) == []


def test_rumelhart_episode_counts_by_depth(rumelhart_grammar):
    start = parse_term("episode")
    for depth, count in ((4, 1), (5, 2), (6, 3), (8, 5)):
        assert len(enumerate_expansions(rumelhart_grammar, start, max_depth=depth)) == count


def test_rumelhart_episodes_nest_preactions(rumelhart_grammar):
    smallest = enumerate_expansions(rumelhart_grammar, parse_term("episode"), max_depth=4)
    assert tokens(smallest[0]) == ["event", "plan", "action"]
    deeper = enumerate_expansions(rumelhart_grammar, parse_term("episode"), max_depth=6)
    assert tokens(deeper[-1]) == ["event", "plan", "preaction", "preaction", "action"]


# ------------------------------------------------------------ cross-checks


def test_enumeration_matches_reference_recursion(incident_grammar, rumelhart_grammar):
    for grammar, start in (
        (incident_grammar, parse_term("incident")),
        (rumelhart_grammar, parse_term("episode")),
    ):
        expected = {tuple(seq) for seq in grammar_expansions(grammar, start, 16)}
        got = {tuple(seq) for seq in enumerate_expansions(grammar, start)}
        assert got == expected


def test_samples_come_from_the_enumerated_language(incident_grammar):
    language = {
        tuple(seq) for seq in enumerate_expansions(incident_grammar, parse_term("incident"))
    }
    hits = 0
    for seed in range(40):
        try:
            seq = expand(incident_grammar, parse_term("incident"), RngState.seeded(seed))
        except DeadEndError:
            continue
        hits += 1
        assert tuple(seq) in language
    assert hits > 0
