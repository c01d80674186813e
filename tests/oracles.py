"""Reference implementations used to cross-check the real ones.

Each oracle is written as plainly as possible, optimizing for being
obviously correct over speed, and shares only the term layer with the
code under test. That layer has references of its own at the top:
unification, substitution and renaming over plain dicts, walking terms
with ``isinstance`` and copying a clause term by term.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from incidentgen import (
    Atom,
    Compound,
    DerivationRule,
    EventDef,
    FreshNames,
    Grammar,
    KnowledgeBase,
    Situation,
    Substitution,
    Term,
    TerminalList,
    Variable,
    format_term,
    fresh_event,
    fresh_floor,
    fresh_rule,
    ground,
    substitute,
    term_key,
    unify,
)

_RULE_DEPTH = 16


# ----------------------------------------------------------- term layer


def walk(term: Term, subst: Mapping[Variable, Term]) -> Term:
    """Chase variable bindings at the top level, stopping on a cycle."""
    seen: set[Variable] = set()
    while isinstance(term, Variable) and term in subst and term not in seen:
        seen.add(term)
        term = subst[term]
    return term


def occurs(var: Variable, term: Term, subst: Mapping[Variable, Term]) -> bool:
    term = walk(term, subst)
    if isinstance(term, Variable):
        return term == var
    if isinstance(term, Compound):
        return any(occurs(var, arg, subst) for arg in term.args)
    return False


def unify_terms(
    a: Term, b: Term, subst: Mapping[Variable, Term]
) -> Optional[dict[Variable, Term]]:
    """Unification with the occurs check; a new dict, or None."""
    a, b = walk(a, subst), walk(b, subst)
    if isinstance(a, Variable):
        if isinstance(b, Variable) and a == b:
            return dict(subst)
        return None if occurs(a, b, subst) else {**subst, a: b}
    if isinstance(b, Variable):
        return None if occurs(b, a, subst) else {**subst, b: a}
    if isinstance(a, Atom) and isinstance(b, Atom):
        return dict(subst) if a.name == b.name else None
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        result: Optional[dict[Variable, Term]] = dict(subst)
        for x, y in zip(a.args, b.args):
            result = unify_terms(x, y, result)
            if result is None:
                return None
        return result
    return None


def substitute_term(term: Term, subst: Mapping[Variable, Term]) -> Term:
    term = walk(term, subst)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(substitute_term(a, subst) for a in term.args))
    return term


def rename_groups(
    groups: Sequence[Iterable[Term]], first: int
) -> tuple[list[tuple[Term, ...]], int]:
    """Copy groups of terms with one mapping, each new variable named
    ``_G<n>`` from ``first`` up; also the next unused n."""
    mapping: dict[Variable, Variable] = {}

    def copy(term: Term) -> Term:
        if isinstance(term, Variable):
            if term not in mapping:
                mapping[term] = Variable(f"_G{first + len(mapping)}")
            return mapping[term]
        if isinstance(term, Compound):
            return Compound(term.functor, tuple(copy(a) for a in term.args))
        return term

    return [tuple(copy(t) for t in group) for group in groups], first + len(mapping)


def _same_root(a: Term, b: Term) -> bool:
    """True unless the outermost shapes of a and b can never unify.

    Purely a speedup: skipping a rename when the roots clash cannot
    change any oracle answer, because unification would have failed.
    """
    ka, kb_ = term_key(a), term_key(b)
    if ka[0] == 0 or kb_[0] == 0:  # a variable root matches anything
        return True
    return ka[:-1] == kb_[:-1] if ka[0] == 2 == kb_[0] else ka == kb_


@lru_cache(maxsize=256)
def _in_order(sitn: Situation) -> tuple[Term, ...]:
    # a situation's facts in term order, sorted once: _holds reads them on
    # every goal, and a replay meets each situation many times
    return tuple(sorted(sitn, key=term_key))


def _holds(
    goal: Term,
    sitn: Situation,
    rules: Sequence[DerivationRule],
    subst: Substitution,
    names: FreshNames,
    depth: int = _RULE_DEPTH,
) -> Iterator[Substitution]:
    for fact in _in_order(sitn):
        s = unify(goal, fact, subst)
        if s is not None:
            yield s
    if depth <= 0:
        return
    goal_now = substitute(goal, subst)
    for rule in rules:
        if not _same_root(goal_now, rule.head):
            continue
        fresh = fresh_rule(rule, names)
        s = unify(goal, fresh.head, subst)
        if s is None:
            continue
        yield from _holds_all(fresh.body, sitn, rules, s, names, depth - 1)


def _holds_all(
    goals: Sequence[Term],
    sitn: Situation,
    rules: Sequence[DerivationRule],
    subst: Substitution,
    names: FreshNames,
    depth: int = _RULE_DEPTH,
) -> Iterator[Substitution]:
    if not goals:
        yield subst
        return
    for s in _holds(goals[0], sitn, rules, subst, names, depth):
        yield from _holds_all(goals[1:], sitn, rules, s, names, depth)


def _achievers(
    event: EventDef,
    goal: Term,
    rules: Sequence[DerivationRule],
    subst: Substitution,
    names: FreshNames,
) -> Iterator[Substitution]:
    for add in event.adds:
        s = unify(goal, add, subst)
        if s is not None:
            yield s
    goal_now = substitute(goal, subst)
    for rule in rules:
        if not _same_root(goal_now, rule.head):
            continue
        fresh = fresh_rule(rule, names)
        s = unify(goal, fresh.head, subst)
        if s is not None:
            yield from _pick_distinct(fresh.body, list(event.adds), s)


def _pick_distinct(
    facts: Sequence[Term], pool: list, subst: Substitution
) -> Iterator[Substitution]:
    if not facts:
        yield subst
        return
    for i, candidate in enumerate(pool):
        s = unify(facts[0], candidate, subst)
        if s is not None:
            yield from _pick_distinct(facts[1:], pool[:i] + pool[i + 1 :], s)


def _erase(
    dels: Sequence[Term], sitn: Situation, subst: Substitution
) -> Iterator[tuple[Situation, Substitution]]:
    if not dels:
        yield sitn, subst
        return
    for fact in sorted(sitn, key=term_key):
        s = unify(dels[0], fact, subst)
        if s is not None:
            yield from _erase(dels[1:], sitn - {fact}, s)


def _solve(
    goal: Term,
    sitn: Situation,
    stack: tuple[Term, ...],
    subst: Substitution,
    budget: int,
    kb: KnowledgeBase,
    names: FreshNames,
) -> Iterator[tuple[tuple[Term, ...], Situation, Substitution]]:
    held = False
    for s in _holds(goal, sitn, kb.rules, subst, names):
        held = True
        yield (), sitn, s
    if held or budget <= 0:
        return
    for pursued in stack:
        if unify(goal, pursued, subst) is not None:
            return
    goal_now = substitute(goal, subst)
    rule_heads = [r.head for r in kb.rules]
    for event in kb.actions:
        # same speedup as in _same_root's docstring: an event whose add
        # roots all clash with the goal, when no rule head matches it
        # either, contributes nothing but rename work
        if not any(_same_root(goal_now, a) for a in event.adds) and not any(
            _same_root(goal_now, h) for h in rule_heads
        ):
            continue
        fresh = fresh_event(event, names)
        for s0 in _achievers(fresh, goal, kb.rules, subst, names):
            for pre_actions, mid, s1 in _solve_all(
                fresh.pcs, sitn, (goal, *stack), s0, budget - 1, kb, names
            ):
                dels = [substitute(d, s1) for d in fresh.dels]
                for shrunk, s2 in _erase(dels, mid, s1):
                    adds = frozenset(substitute(a, s2) for a in fresh.adds)
                    yield (*pre_actions, fresh.head), shrunk | adds, s2


def _solve_all(
    goals: Sequence[Term],
    sitn: Situation,
    stack: tuple[Term, ...],
    subst: Substitution,
    budget: int,
    kb: KnowledgeBase,
    names: FreshNames,
) -> Iterator[tuple[tuple[Term, ...], Situation, Substitution]]:
    if not goals:
        yield (), sitn, subst
        return
    for actions1, sitn1, s1 in _solve(goals[0], sitn, stack, subst, budget, kb, names):
        for actions2, sitn2, s2 in _solve_all(
            goals[1:], sitn1, stack, s1, budget - len(actions1), kb, names
        ):
            yield actions1 + actions2, sitn2, s2


def backward_plan_set(
    goal: Term, sitn: Situation, kb: KnowledgeBase, bound: int
) -> set[tuple[Term, ...]]:
    """All action sequences the backward scheme derives, as a set."""
    names = FreshNames(fresh_floor([goal, *sitn]))
    out: set[tuple[Term, ...]] = set()
    for actions, _, subst in _solve(goal, sitn, (), Substitution(), bound, kb, names):
        out.add(tuple(substitute(a, subst) for a in actions))
    return out


def _ground_moves(
    sitn: Situation, kb: KnowledgeBase
) -> list[tuple[Term, Situation]]:
    # the moves whose effects are ground; a head may keep a variable. A
    # delete ground under a solution must be present; each that keeps a
    # variable unifies with a distinct other fact, one move per pairing
    moves = []
    names = FreshNames(fresh_floor(sitn))
    for event in kb.actions:
        fresh = fresh_event(event, names)
        for s in _holds_all(fresh.pcs, sitn, kb.rules, Substitution(), names):
            dels = [substitute(d, s) for d in fresh.dels]
            fixed = [d for d in dels if ground(d)]
            if any(d not in sitn for d in fixed):
                continue
            open_dels = [d for d in dels if not ground(d)]
            for _, s2 in _erase(open_dels, sitn - frozenset(fixed), s):
                instance = substitute(fresh.head, s2)
                dels2 = [substitute(d, s2) for d in fresh.dels]
                adds = [substitute(a, s2) for a in fresh.adds]
                moves.append((instance, dels2, adds))
    # an instance applies under its first qualifying solution, and is a
    # move only if that solution grounds every effect
    unique = {}
    for instance, dels, adds in moves:
        unique.setdefault(instance, (dels, adds))
    return sorted(
        (
            (instance, (sitn - frozenset(dels)) | frozenset(adds))
            for instance, (dels, adds) in unique.items()
            if all(ground(t) for t in dels + adds)
        ),
        key=lambda pair: term_key(pair[0]),
    )


def forward_sequence_set(
    sitn: Situation, goal: Term, kb: KnowledgeBase, bound: int
) -> set[tuple[Term, ...]]:
    """Action sequences up to the bound that first satisfy the goal at
    their final step, found by exhaustive forward application.

    Memoized on (situation, remaining budget): the set of goal-reaching
    suffixes from a state depends on nothing else.
    """
    memo: dict[tuple[Situation, int], frozenset] = {}

    def suffixes(here: Situation, budget: int) -> frozenset:
        names = FreshNames(fresh_floor([goal, *here]))
        if next(_holds(goal, here, kb.rules, Substitution(), names), None) is not None:
            return frozenset({()})
        if budget <= 0:
            return frozenset()
        key = (here, budget)
        if key not in memo:
            memo[key] = frozenset(
                (instance, *tail)
                for instance, post in _ground_moves(here, kb)
                for tail in suffixes(post, budget - 1)
            )
        return memo[key]

    return set(suffixes(sitn, bound))


def grammar_expansions(
    grammar: Grammar, symbol: Term, depth: int
) -> list[tuple[Term, ...]]:
    """All terminal sequences, by straightforward recursion."""
    names = FreshNames(fresh_floor([symbol]))

    def rewrite(sym: Term, d: int, subst: Substitution):
        if d <= 0:
            return
        for p in grammar.productions:
            items = [
                item.items if isinstance(item, TerminalList) else (item.term,)
                for item in p.body
            ]
            (head,), *groups = names.rename((p.head,), *items)
            body = [
                ("terminals", group)
                if isinstance(item, TerminalList)
                else ("symbol", group[0])
                for item, group in zip(p.body, groups)
            ]
            s = unify(head, sym, subst)
            if s is None:
                continue
            yield from sequence(body, d, s)

    def sequence(items, d: int, subst: Substitution):
        if not items:
            yield (), subst
            return
        kind, payload = items[0]
        if kind == "terminals":
            for tail, s in sequence(items[1:], d, subst):
                yield payload + tail, s
        else:
            for headseq, s1 in rewrite(payload, d - 1, subst):
                for tail, s2 in sequence(items[1:], d, s1):
                    yield headseq + tail, s2

    seen = set()
    out = []
    for seq, subst in rewrite(symbol, depth, Substitution()):
        resolved = tuple(substitute(t, subst) for t in seq)
        key = tuple(term_key(t) for t in resolved)
        if key not in seen:
            seen.add(key)
            out.append(resolved)
    return out


def replay(
    plan_actions: Sequence[Term],
    sitn: Situation,
    goal: Term,
    kb: KnowledgeBase,
) -> Optional[str]:
    """Step a plan through the world; None if sound, else what broke."""
    names = FreshNames(fresh_floor([*plan_actions, *sitn, goal]))
    here = sitn
    for action in plan_actions:
        matched = None
        for event in kb.actions:
            # as in _same_root's docstring: a clashing root never unifies
            if not _same_root(event.head, action):
                continue
            fresh = fresh_event(event, names)
            s = unify(fresh.head, action)
            if s is not None:
                matched = (fresh, s)
                break
        if matched is None:
            return f"no action definition matches {format_term(action)}"
        fresh, s = matched
        s2 = next(_holds_all(fresh.pcs, here, kb.rules, s, names), None)
        if s2 is None:
            return f"preconditions of {format_term(action)} unsatisfied"
        dels = [substitute(d, s2) for d in fresh.dels]
        if any(d not in here for d in dels):
            return f"delete list of {format_term(action)} names an absent fact"
        here = (here - frozenset(dels)) | frozenset(
            substitute(a, s2) for a in fresh.adds
        )
    if next(_holds(goal, here, kb.rules, Substitution(), names), None) is None:
        return "final situation does not satisfy the goal"
    return None
