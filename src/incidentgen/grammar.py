"""Story grammars: productions expanded into event-token sequences.

A grammar file holds productions ``head --> item, item, ... .`` where
each item is either a nonterminal term or a bracketed terminal list:

    incident --> start_of_flight, problem(P), response(P).
    start_of_flight --> [taxi, takeoff].
    response(broken(transponder)) --> return_to_ground.

Alternatives are separate productions for the same head. Heads may
carry parameters; unification threads them across sibling items, so
problem(P) and response(P) agree on what went wrong. ``[]`` is an
empty terminal list and ``#`` starts a comment.

Expansion is leftmost depth-first. Sampling picks among the unifying
productions at random and fails hard on a dead end; enumeration
backtracks through every alternative and silently prunes dead or
too-deep branches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from .dsl import ParseError, _ParseFail, _read_head, _read_term, _read_terms, _TokenStream
from .kb import SourcePos
from .rng import RngState, rnd_member
from .terms import (
    FreshNames,
    IncidentgenError,
    Substitution,
    Term,
    Variable,
    format_term,
    fresh_floor,
    signature,
    substitute,
    term_key,
    unify,
)

DEFAULT_MAX_DEPTH = 16


class UnknownNonterminalError(IncidentgenError):
    """The requested start symbol has no productions at all."""

    exit_status = 2

    def __init__(self, symbol: Term):
        self.symbol = symbol
        super().__init__(f"no productions for {format_term(symbol)}")


class DeadEndError(IncidentgenError):
    """A nonterminal was reached that no production unifies with."""

    def __init__(self, symbol: Term):
        self.symbol = symbol
        super().__init__(f"dead end at {format_term(symbol)}: no production unifies")


class DepthExceededError(IncidentgenError):
    def __init__(self, symbol: Term, depth: int):
        self.symbol = symbol
        self.depth = depth
        super().__init__(
            f"expansion of {format_term(symbol)} exceeded depth {depth}"
        )


@dataclass(frozen=True)
class TerminalList:
    items: tuple[Term, ...]


@dataclass(frozen=True)
class NonterminalRef:
    term: Term


BodyItem = Union[TerminalList, NonterminalRef]


@dataclass(frozen=True)
class Production:
    head: Term
    body: tuple[BodyItem, ...]
    pos: Optional[SourcePos] = field(default=None, compare=False)


@dataclass(frozen=True)
class Grammar:
    productions: tuple[Production, ...]

    def has_symbol(self, symbol: Term) -> bool:
        sig = signature(symbol)
        return any(signature(p.head) == sig for p in self.productions)


def parse_grammar(text: str, filename: str = "<grammar>") -> Grammar:
    """Parse grammar text, reporting every problem found."""
    ts = _TokenStream(text, filename)
    productions: list[Production] = []
    while (start := ts.peek()).kind != "EOF":
        anon = itertools.count(1)
        try:
            head = _read_head(ts, anon, "production", start)
            ts.expect("-->")
            body = [_read_item(ts, anon)]
            while ts.accept(","):
                body.append(_read_item(ts, anon))
            ts.expect(".")
            productions.append(Production(head, tuple(body), pos=start.pos))
        except _ParseFail:
            # recover after the production's closing '.', not a string "."
            while ts.peek().kind != "EOF" and not ts.accept("."):
                ts.advance()
    ParseError.raise_errors(ts.diags)
    return Grammar(tuple(productions))


def _read_item(ts: _TokenStream, anon: Iterator[int]) -> BodyItem:
    if not ts.accept("["):
        return NonterminalRef(_read_term(ts, anon))
    items = () if ts.at("]") else _read_terms(ts, anon)
    ts.expect("]")
    return TerminalList(items)


def load_grammar(path) -> Grammar:
    path = Path(path)
    return parse_grammar(path.read_text(), filename=str(path))


def _matching(
    grammar: Grammar, symbol: Term, subst: Substitution, names: FreshNames
) -> Iterator[tuple[tuple[BodyItem, ...], Substitution]]:
    # each production, renamed apart in declaration order, whose head
    # unifies with symbol: its body and the extended substitution
    for p in grammar.productions:
        (head,), *items = names.rename(
            (p.head,), *(i.items if isinstance(i, TerminalList) else (i.term,) for i in p.body)
        )
        extended = unify(head, symbol, subst)
        if extended is not None:
            body = tuple(
                TerminalList(terms) if isinstance(i, TerminalList) else NonterminalRef(terms[0])
                for i, terms in zip(p.body, items)
            )
            yield body, extended


def _expand_once(
    grammar: Grammar,
    symbol: Term,
    rng: RngState,
    depth: int,
    subst: Substitution,
    names: FreshNames,
) -> tuple[list[Term], Substitution, RngState]:
    if depth <= 0:
        raise DepthExceededError(substitute(symbol, subst), depth)
    candidates = list(_matching(grammar, symbol, subst, names))
    if not candidates:
        raise DeadEndError(substitute(symbol, subst))
    (body, extended), rng = rnd_member(candidates, rng)
    tokens: list[Term] = []
    for item in body:
        if isinstance(item, TerminalList):
            tokens.extend(item.items)
        else:
            sub_tokens, extended, rng = _expand_once(
                grammar, item.term, rng, depth - 1, extended, names
            )
            tokens.extend(sub_tokens)
    return tokens, extended, rng


def expand(
    grammar: Grammar,
    symbol: Term,
    rng: RngState,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[Term]:
    """One random expansion of symbol into a terminal sequence.

    Leftmost depth-first; each nonterminal picks among its unifying
    productions with one random draw and never backtracks, so an
    elliptical grammar can raise DeadEndError.
    """
    if not grammar.has_symbol(symbol):
        raise UnknownNonterminalError(symbol)
    names = FreshNames(fresh_floor((symbol,)))
    tokens, subst, _ = _expand_once(grammar, symbol, rng, max_depth, Substitution(), names)
    return [substitute(t, subst) for t in tokens]


def _enumerate(
    grammar: Grammar,
    symbol: Term,
    depth: int,
    subst: Substitution,
    dead: set[Term],
    names: FreshNames,
) -> Iterator[tuple[list[Term], Substitution]]:
    # every expansion of symbol; the dead ends met on the way go into ``dead``
    if depth <= 0:
        return
    matched = False
    for body, extended in _matching(grammar, symbol, subst, names):
        matched = True
        yield from _enumerate_body(grammar, body, depth, extended, dead, names)
    if not matched:
        dead.add(substitute(symbol, subst))


def _enumerate_body(
    grammar: Grammar,
    items: tuple[BodyItem, ...],
    depth: int,
    subst: Substitution,
    dead: set[Term],
    names: FreshNames,
) -> Iterator[tuple[list[Term], Substitution]]:
    if not items:
        yield [], subst
        return
    first, rest = items[0], items[1:]
    if isinstance(first, TerminalList):
        for tokens, extended in _enumerate_body(grammar, rest, depth, subst, dead, names):
            yield [*first.items, *tokens], extended
    else:
        for tokens1, s1 in _enumerate(grammar, first.term, depth - 1, subst, dead, names):
            for tokens2, s2 in _enumerate_body(grammar, rest, depth, s1, dead, names):
                yield tokens1 + tokens2, s2


def _expansions_and_dead_ends(
    grammar: Grammar, symbol: Term, max_depth: int = DEFAULT_MAX_DEPTH
) -> tuple[list[list[Term]], list[Term]]:
    # one walk of the expansion tree serves both public wrappers below
    if not grammar.has_symbol(symbol):
        raise UnknownNonterminalError(symbol)
    out: dict[tuple, list[Term]] = {}
    dead: set[Term] = set()
    names = FreshNames(fresh_floor((symbol,)))
    for tokens, subst in _enumerate(grammar, symbol, max_depth, Substitution(), dead, names):
        resolved = [substitute(t, subst) for t in tokens]
        out.setdefault(tuple(term_key(t) for t in resolved), resolved)
    return list(out.values()), sorted(dead, key=term_key)


def enumerate_expansions(
    grammar: Grammar,
    symbol: Term,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[list[Term]]:
    """Every complete expansion of symbol within the depth bound.

    Dead and too-deep branches are pruned; the result is duplicate-free
    in a deterministic (production declaration) order.
    """
    return _expansions_and_dead_ends(grammar, symbol, max_depth)[0]


def find_dead_ends(
    grammar: Grammar,
    symbol: Term,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[Term]:
    """Nonterminal instances reachable from symbol that no production
    unifies with, in term order."""
    return _expansions_and_dead_ends(grammar, symbol, max_depth)[1]
