"""Backward-chaining planner over STRIPS-style action definitions.

Plans are found by means-ends analysis: pick an action whose add-list
achieves the goal (directly or through a derivation rule), recursively
plan its preconditions left to right while threading a simulated
situation, and append the action. A goal stack blocks circular
subgoaling and a length bound guarantees termination on any knowledge
base. Enumeration is exhaustive within the bound; the best plan maximizes
(quality, term order), which is deterministic. Where shorter plans always
win, the best-plan search lowers the bound to each plan it finds.

The simulator and the forward search ask every question of a knowledge
base here: does a fact hold (``iter_satisfying``), which event instances
apply and under which solution (``applicable``, ``first_application``),
does a revision fire (``revise_goal``), and which plan reaches a goal.
An event applies under a solution of its preconditions whose ground
deletes are all present, and whose deletes that keep a variable pair
with distinct other facts, as in the search, one solution per pairing;
a plan step applies under the solution the planner chose for it.
Within the search, an action's additions and its delete patterns pair
with distinct facts, one branch per pairing.

Work that cannot succeed is skipped. The knowledge base lists, per goal
signature, the clauses whose root may meet it (``KnowledgeBase.rooted``).
A rule is renamed apart only if a deep screen finds that its head may
unify with the goal, and an action only if one of its adds may, or if
its adds may feed the body of such a rule. These verdicts depend only on
the knowledge base and the walked goal, so the knowledge base keeps a
ground goal's, for a bounded number of goals. A goal or a delete pattern
is tried only against the facts of its own signature and, in a group of
three facts or more, only against those whose argument at the first
position where the walked goal has a root (an atom's name, a compound's
functor and arity) has the same root or is a variable: argument keys,
which keep the facts' term order, so no answer or name changes. A
caller's situation is sorted into term order, grouped by signature and
scanned for its highest ``_G`` name once; each branch of the search
copies its parent's table of groups and rebuilds only those its step
touches, each with fresh keys, so no situation is hashed or compared.
The goal stack keeps a set of keys of the pursued goals that were
ground when pushed: a ground subgoal is looked up there and unified
only with the pursued goals that were not, so a long chain of ground
subgoals costs no scan of the stack.

Each query takes fresh names from its own scope, counted from above
those in its inputs. They are visible output: a clause whose root
matches but which the screen skips still takes its block of names, so
every name, and every tie-break by term order, is as if it had been
renamed.

Each plan step records the subgoal it was chosen to achieve and the
step that needed that subgoal, so a finished plan can be read backwards
as a justification chain.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .kb import DerivationRule, EventDef, KnowledgeBase, Situation
from .kb import fresh_event, fresh_revision, fresh_rule
from .terms import (
    Atom,
    Compound,
    FreshNames,
    IncidentgenError,
    Substitution,
    Term,
    Variable,
    _may_unify,
    format_term,
    fresh_floor,
    ground,
    signature,
    substitute,
    term_key,
    unify,
)

# rule chains deeper than this are treated as unprovable rather than
# recursed into forever (cyclic rule sets)
_MAX_RULE_DEPTH = 16


class NoPlanFoundError(IncidentgenError):
    """No plan within the length bound achieves the goal."""

    def __init__(self, goal: Term, message: Optional[str] = None):
        self.goal = goal
        super().__init__(message or f"no plan achieves {format_term(goal)}")


class MissingDeleteFactError(IncidentgenError):
    """An effect tried to delete a fact the situation does not contain."""

    def __init__(self, fact: Term):
        self.fact = fact
        super().__init__(f"cannot delete absent fact {format_term(fact)}")


class PlanTooDeepError(IncidentgenError):
    """The plan search recursed past Python's recursion limit."""

    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(
            f"a plan of up to {bound} steps needs more than Python's "
            f"{sys.getrecursionlimit()} stack frames"
        )


class UnknownScorerError(IncidentgenError, ValueError):
    exit_status = 2

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown scorer {name!r} (choose from {sorted(SCORERS)})")


@dataclass(frozen=True)
class PlannerConfig:
    max_plan_length: int = 20
    scorer: str = "standard"

    def __post_init__(self) -> None:
        if self.max_plan_length < 1:
            raise ValueError("max_plan_length must be at least 1")
        if self.scorer not in SCORERS:
            raise UnknownScorerError(self.scorer)


@dataclass(frozen=True)
class PlanStep:
    """One action plus the reason it is in the plan.

    ``achieves_goal`` is the subgoal this action was selected for, and
    ``parent`` the later step whose precondition the subgoal is; the
    root step (parent None) achieves the plan's top-level goal.
    ``solution`` is the renamed action and the plan's substitution,
    under which the planner chose it (None for a step built by hand).
    """

    action: Term
    achieves_goal: Term
    parent: Optional["PlanStep"] = field(default=None, repr=False)
    solution: Optional[tuple[EventDef, Substitution]] = field(
        default=None, compare=False, repr=False
    )


@dataclass(frozen=True)
class Plan:
    steps: tuple[PlanStep, ...]

    @property
    def actions(self) -> tuple[Term, ...]:
        return tuple(step.action for step in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ScoredPlan:
    plan: Plan
    quality: int


def _quality_standard(plan: Plan) -> int:
    cost = 1 if any(_functor(s.action) == "evacuate" for s in plan.steps) else 0
    return 100 - 10 * len(plan.steps) - cost


def _functor(term: Term) -> str:
    return term.functor if isinstance(term, Compound) else term.name


SCORERS = {
    "standard": _quality_standard,
    # ranks every plan the same; selection then falls through to the
    # term-order tie-break, which reproduces unranked-plan behaviour
    "constant": lambda plan: 0,
}

def plan_quality(plan: Plan, scorer: str = "standard") -> int:
    try:
        fn = SCORERS[scorer]
    except KeyError:
        raise UnknownScorerError(scorer) from None
    return fn(plan)


def plan_sort_key(plan: Plan) -> tuple:
    return tuple(term_key(action) for action in plan.actions)


# ---------------------------------------------------------------- satisfied


def _renamed_rules(
    seen: Term, kb: KnowledgeBase, subst: Substitution, names: FreshNames, live=None
) -> Iterator[DerivationRule]:
    # each rule whose head may unify with the walked goal (those ``live``
    # marks, if the caller screened them), renamed apart. One whose root
    # matches but whose head cannot unify only takes its block of names,
    # so the names, which are visible output, do not depend on how deep
    # the screen looks
    rules = kb.rooted(signature(seen)).rules
    for rule, meets in zip(rules, live or [_may_unify(seen, r.head, subst) for r in rules]):
        if meets:
            yield fresh_rule(rule, names)
        else:
            names.reserve(rule.fresh_width)


class _Index:
    """A situation as the search reads it. Under each signature are the
    facts a goal of that signature may unify with, in term order, and
    that group's argument keys; variable facts sort first and may match
    any goal, so they head every group. A long group is keyed by
    argument: under (position, root), for each one asked for, are the
    facts of the group whose argument there has that root or is a
    variable, a subsequence of the group. A search branch's index is a
    copy of its parent's table in which only the groups its step touches
    are rebuilt, each with fresh keys; every other group, with its keys,
    is the parent's own, so the search never hashes or compares a whole
    situation."""

    __slots__ = ("_groups", "_loose")

    def __init__(self, groups: dict, loose: tuple) -> None:
        # ``groups`` maps a signature to (its facts, its argument keys);
        # ``loose`` are the variable facts, the group of any other signature
        self._groups = groups
        self._loose = loose

    @classmethod
    def of(cls, facts: Iterable[Term]) -> "_Index":
        """A situation's index built from scratch."""
        groups: dict = {}
        loose: list[Term] = []
        for fact in sorted(facts, key=term_key):
            sig = signature(fact)
            if sig is None:
                loose.append(fact)
            else:
                groups.setdefault(sig, list(loose)).append(fact)
        return cls({sig: (tuple(group), {}) for sig, group in groups.items()}, tuple(loose))

    def group(self, sig: Optional[tuple[str, int]]) -> Sequence[Term]:
        """The facts that may unify with a goal of signature ``sig``; a
        variable goal (``sig`` None) may unify with every fact."""
        if sig is None:
            facts = {*self._loose, *(fact for group, _ in self._groups.values() for fact in group)}
            return tuple(sorted(facts, key=term_key))
        found = self._groups.get(sig)
        return self._loose if found is None else found[0]

    def matching(self, goal: Term, subst: Substitution) -> Sequence[Term]:
        """The facts that may unify with ``goal``, walked through
        ``subst``, in term order: those of its group whose argument at the
        first position where the walked goal has a root has that root or
        is a variable. A short group is not worth keying and comes whole."""
        sig = signature(goal)
        found = self._groups.get(sig)
        if found is None:
            return self.group(sig)
        group, keys = found
        if len(group) < _KEYED_MIN or type(goal) is not Compound:
            return group
        walk = subst.walk
        for pos, arg in enumerate(goal.args):
            root = signature(walk(arg))
            if root is not None:
                found = keys.get((pos, root))
                if found is None:
                    # a variable fact, or one whose argument at ``pos`` is
                    # a variable, meets any root
                    found = keys[pos, root] = tuple(
                        fact
                        for fact in group
                        if type(fact) is not Compound or signature(fact.args[pos]) in (None, root)
                    )
                return found
        return group

    def after(self, drop: Sequence[Term], add: Sequence[Term]) -> "_Index":
        """The index of this situation less ``drop`` (facts it holds) plus
        ``add``. Adding or dropping a variable fact changes every group,
        so that rare step indexes its situation anew."""
        touched = {*map(signature, drop), *map(signature, add)}
        if None in touched:
            return _Index.of(set(self.group(None)).difference(drop).union(add))
        groups = self._groups.copy()
        for sig in touched:
            groups[sig] = (_changed(self.group(sig), sig, drop, add), {})
        return _Index(groups, self._loose)


# a group shorter than this is scanned whole rather than keyed by
# argument. On a freshly derived index, a keyed lookup costs about as
# much as unifying with two facts, so keys pay from three; nearly every
# lookup in the benchmark's workloads meets a group of two facts or
# fewer, and keying those too made them 5-7% slower (BENCH_12.json)
_KEYED_MIN = 3


def _changed(
    group: Sequence[Term], sig: tuple[str, int], drop: Sequence[Term], add: Sequence[Term]
) -> tuple[Term, ...]:
    # a group in term order less the facts it holds in ``drop``, plus
    # those of signature ``sig`` in ``add`` that it does not already
    # hold, each at its place
    out = [fact for fact in group if fact not in drop]
    for fact in add:
        if signature(fact) == sig:
            i = bisect_left(out, term_key(fact), key=term_key) if out else 0
            if i == len(out) or out[i] != fact:
                out.insert(i, fact)
    return tuple(out)


@lru_cache(maxsize=128)
def _indexed(sitn: Situation) -> tuple[_Index, int]:
    # a caller's situation, indexed once, and its fresh-name floor. The
    # cache pays across incidents: in generate --seed 42 --count 100, 611
    # of its 640 lookups hit, 582 on a situation an earlier incident reached
    return _Index.of(sitn), fresh_floor(sitn)


def _scope(sitn: Situation, *terms: Term, floor: int = 0) -> tuple[_Index, FreshNames]:
    # one query's index of its situation, and its names, above every _G
    # name in that situation and in its terms, and above ``floor``
    index, sitn_floor = _indexed(frozenset(sitn))
    return index, FreshNames(max(fresh_floor(terms), sitn_floor, floor))


def _satisfied_iter(
    goal: Term,
    index: _Index,
    kb: KnowledgeBase,
    subst: Substitution,
    names: FreshNames,
    depth: int = _MAX_RULE_DEPTH,
) -> Iterator[Substitution]:
    seen = subst.walk(goal)
    for fact in index.matching(seen, subst):
        extended = unify(goal, fact, subst)
        if extended is not None:
            yield extended
    if depth <= 0 or not kb.rooted(signature(seen)).rules:
        return
    for fresh in _renamed_rules(seen, kb, subst, names):
        extended = unify(goal, fresh.head, subst)
        if extended is not None:
            yield from _satisfied_seq(fresh.body, index, kb, extended, names, depth - 1)


def _satisfied_seq(
    goals: Sequence[Term],
    index: _Index,
    kb: KnowledgeBase,
    subst: Substitution,
    names: FreshNames,
    depth: int = _MAX_RULE_DEPTH,
) -> Iterator[Substitution]:
    if not goals:
        yield subst
        return
    for extended in _satisfied_iter(goals[0], index, kb, subst, names, depth):
        yield from _satisfied_seq(goals[1:], index, kb, extended, names, depth)


def iter_satisfying(
    facts: Sequence[Term],
    sitn: Situation,
    kb: KnowledgeBase,
    subst: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """Substitutions satisfying every fact in sequence, lazily.

    A fact holds by direct membership or through one of the knowledge
    base's derivation rules whose body is recursively satisfied. The
    results are full working substitutions.
    """
    facts, subst = tuple(facts), subst or Substitution()
    index, names = _scope(sitn, *facts, *subst, *subst.values())
    yield from _satisfied_seq(facts, index, kb, subst, names)


def _applications(
    event: EventDef, index: _Index, sitn: Situation, subst: Substitution
) -> Iterator[Substitution]:
    # the solutions an event applies under, from one solution of its
    # preconditions. A delete left ground must be present; one that keeps
    # a variable pairs with a distinct other fact, as in the planner, and
    # each pairing extends the solution
    dels = [substitute(d, subst) for d in event.dels]
    fixed = tuple(d for d in dels if ground(d))
    if not all(d in sitn for d in fixed):
        return
    open_dels = [d for d in dels if d not in fixed]
    for solution, _ in _match_deletes(open_dels, index, subst, fixed):
        yield solution


def applicable(
    events: Sequence[EventDef], sitn: Situation, kb: KnowledgeBase
) -> list[tuple[Term, EventDef, Substitution]]:
    """The instances of ``events`` that apply in ``sitn``.

    Each event is renamed apart, in the order given, and its distinct
    instances follow in term order. Each comes with the renamed event and
    the first solution under which it applies: a solution of its
    preconditions, extended by a pairing of each delete that keeps a
    variable with a fact.
    """
    out: list[tuple[Term, EventDef, Substitution]] = []
    index, names = _scope(sitn)
    for event in events:
        fresh = fresh_event(event, names)
        found: dict[Term, Substitution] = {}
        for solution in _satisfied_seq(fresh.pcs, index, kb, Substitution(), names):
            for applied in _applications(fresh, index, sitn, solution):
                found.setdefault(substitute(fresh.head, applied), applied)
        out.extend((instance, fresh, found[instance]) for instance in sorted(found, key=term_key))
    return out


def _effects(event: EventDef, subst: Substitution) -> tuple[list[Term], list[Term]]:
    return [substitute(d, subst) for d in event.dels], [substitute(a, subst) for a in event.adds]


def first_application(
    event: EventDef,
    sitn: Situation,
    kb: KnowledgeBase,
    subst: Substitution,
    planned: Optional[tuple[EventDef, Substitution]] = None,
) -> Optional[tuple[Substitution, list[Term], list[Term]]]:
    """The solution ``event`` applies under, extending ``subst``, with
    its deletes and adds: the first with the deletes and adds of
    ``planned``, a plan step's solution, else the first that applies; if
    no solution applies, the first one of the preconditions, whose
    deletes then fail, or None."""
    first = applies = None
    wanted = None if planned is None else _effects(*planned)
    index, names = _scope(sitn, *subst, *subst.values(), floor=event.pcs_floor)
    for solution in _satisfied_seq(event.pcs, index, kb, subst, names):
        for applied in _applications(event, index, sitn, solution):
            effects = _effects(event, applied)
            if wanted is None or effects == wanted:
                return applied, *effects
            if applies is None:
                applies = applied, *effects
        if first is None:
            first = solution, *_effects(event, solution)
    return applies if applies is not None else first


def revise_goal(
    sitn: Situation, goal: Term, kb: KnowledgeBase
) -> tuple[Term, Optional[Term]]:
    """Reassess a goal after the situation changed unexpectedly.

    The first revision rule (in declared order) whose pattern unifies
    with the goal and whose trigger holds rewrites the goal; the ground
    trigger instance is returned alongside. No match returns the goal
    unchanged with None.
    """
    index, names = _scope(sitn, goal)
    for rule in kb.revisions:
        fresh = fresh_revision(rule, names)
        bound = unify(fresh.old, goal)
        if bound is None:
            continue
        solution = next(_satisfied_seq([fresh.trigger], index, kb, bound, names), None)
        if solution is None:
            continue
        return substitute(fresh.new, solution), substitute(fresh.trigger, solution)
    return goal, None


def _match_distinct(
    patterns: Sequence[Term], pool: Sequence[Term], subst: Substitution
) -> Iterator[Substitution]:
    # each pattern unifies with a distinct pool member, tried in pool
    # order; every pairing is a separate solution
    if not patterns:
        yield subst
        return
    for i, candidate in enumerate(pool):
        extended = unify(patterns[0], candidate, subst)
        if extended is not None:
            rest = (*pool[:i], *pool[i + 1 :])
            yield from _match_distinct(patterns[1:], rest, extended)


def _match_deletes(
    patterns: Sequence[Term], index: _Index, subst: Substitution, paired: tuple[Term, ...] = ()
) -> Iterator[tuple[Substitution, tuple[Term, ...]]]:
    # the same over a situation: each pattern is tried only against the
    # facts it may unify with, in term order, skipping those already
    # paired; every pairing comes with the facts it paired
    if not patterns:
        yield subst, paired
        return
    for fact in index.matching(subst.walk(patterns[0]), subst):
        if fact not in paired:
            extended = unify(patterns[0], fact, subst)
            if extended is not None:
                yield from _match_deletes(patterns[1:], index, extended, (*paired, fact))


# ----------------------------------------------------------------- achieves


def _achieves_iter(
    event: EventDef,
    goal: Term,
    kb: KnowledgeBase,
    subst: Substitution,
    names: FreshNames,
    live=None,
) -> Iterator[Substitution]:
    # either the goal unifies with an add-list member, or a rule's head
    # (one the caller's screen marks ``live``) unifies with the goal and
    # its body with distinct add-list members
    for add in event.adds:
        extended = unify(goal, add, subst)
        if extended is not None:
            yield extended
    if live == ():  # the caller's screen found no rule rooted at the goal
        return
    for fresh in _renamed_rules(subst.walk(goal), kb, subst, names, live):
        extended = unify(goal, fresh.head, subst)
        if extended is not None:
            yield from _match_distinct(fresh.body, event.adds, extended)


# ------------------------------------------------------------------ effects


def apply_effects(
    dels: Sequence[Term], adds: Sequence[Term], sitn: Situation
) -> Situation:
    """(sitn - dels) + adds over ground effect lists."""
    for fact in dels:
        if fact not in sitn:
            raise MissingDeleteFactError(fact)
    return frozenset(sitn - frozenset(dels)) | frozenset(adds)


# ----------------------------------------------------------------- planning


class _Search:
    """Per-search state: the length bound and the fresh names."""

    __slots__ = ("bound", "names")

    def __init__(self, bound: int, names: FreshNames):
        self.bound = bound
        self.names = names


class _Rec(NamedTuple):
    """Search-time record of one chosen action, shared by its branches: the
    renamed action, its goal, and the record it serves (None at the top)."""

    event: EventDef
    goal: Term
    parent: Optional["_Rec"]


# the goals a subgoal was chosen for: all of them, the keys of those
# that were ground when pushed, and those that were not
_Stack = tuple[tuple[Term, ...], frozenset, tuple[Term, ...]]
_NO_GOALS: _Stack = ((), frozenset(), ())


def _ground_key(term: Term, subst: Substitution):
    # the walked term as nested tuples of names, equal for equal ground
    # terms, or None if it holds an unbound variable; no term is built
    kind = type(term)
    if kind is Variable:
        term = subst.walk(term)
        kind = type(term)
        if kind is Variable:
            return None
    if kind is Atom:
        return term.name
    key = [term.functor]
    for arg in term.args:
        found = _ground_key(arg, subst)
        if found is None:
            return None
        key.append(found)
    return tuple(key)


# a knowledge base keeps the screen verdicts of at most this many ground
# goals. The benchmark's gated workloads meet 11-21 per knowledge base,
# and long_route about 480 per 160-leg route, 3865 over its 8 routes; at
# about 350 bytes an entry, a full table holds under 1.5 MiB
_SCREENS_MAX = 4096


def _plan(
    goal: Term,
    index: _Index,
    stack: _Stack,
    subst: Substitution,
    used: int,
    kb: KnowledgeBase,
    search: _Search,
    parent: Optional[_Rec],
) -> Iterator[tuple[tuple[_Rec, ...], _Index, Substitution]]:
    # ``used`` counts the plan's steps already chosen outside this subgoal,
    # and ``parent`` is the record of the step that needs the goal
    # already true: one empty plan per satisfying substitution, and the
    # action case is then blocked entirely
    satisfied_any = False
    for extended in _satisfied_iter(goal, index, kb, subst, search.names):
        satisfied_any = True
        yield (), index, extended
    if satisfied_any or used >= search.bound:
        return
    # a goal already being pursued further up is a dead end. A ground goal
    # meets a ground pursued goal only if their keys are equal, so it is
    # unified only with the pursued goals that were open when pushed
    pursued, keys, open_goals = stack
    key = _ground_key(goal, subst)
    if key is not None and key in keys:
        return
    for other in pursued if key is None else open_goals:
        if unify(goal, other, subst) is not None:
            return
    if key is None:
        new_stack = ((goal, *pursued), keys, (goal, *open_goals))
    else:
        new_stack = ((goal, *pursued), keys | {key}, open_goals)
    seen = subst.walk(goal)
    # renaming an action's variables is the hot path; skip any action
    # that can reach the goal neither by an add nor by feeding the body
    # of a rule whose head may unify with it. If an add or a rule head
    # shares the goal's root, a skipped action still takes the names
    # that renaming it and those rules would take. These verdicts depend
    # only on the knowledge base and the walked goal, so a ground goal's
    # are worked out once per knowledge base
    rooted = kb.rooted(signature(seen))
    screened = kb._screens.get(key)
    if screened is None:
        live = tuple(_may_unify(seen, r.head, subst) for r in rooted.rules)
        screened = live, tuple(
            any(live[i] for i in users) or any(_may_unify(seen, a, subst) for a in roots)
            for _, roots, users in rooted.actions
        )
        if key is not None and len(kb._screens) < _SCREENS_MAX:
            kb._screens[key] = screened
    live, meets = screened
    for (event, roots, _), meet in zip(rooted.actions, meets):
        if not meet:
            if rooted.rules or roots:
                search.names.reserve(event.fresh_width + rooted.width)
            continue
        fresh = fresh_event(event, search.names)
        for achieved in _achieves_iter(fresh, goal, kb, subst, search.names, live):
            rec = _Rec(fresh, goal, parent)
            for pre_recs, mid, mid_subst in _plan_seq(
                fresh.pcs, index, new_stack, achieved, used + 1, kb, search, rec
            ):
                # delete patterns unify against situation facts, and each
                # way of pairing them up is a separate branch
                dels = [substitute(d, mid_subst) for d in fresh.dels]
                for del_subst, paired in _match_deletes(dels, mid, mid_subst):
                    adds = [substitute(a, del_subst) for a in fresh.adds]
                    yield (*pre_recs, rec), mid.after(paired, adds), del_subst


def _plan_seq(
    goals: Sequence[Term],
    index: _Index,
    stack: _Stack,
    subst: Substitution,
    used: int,
    kb: KnowledgeBase,
    search: _Search,
    parent: Optional[_Rec],
) -> Iterator[tuple[tuple[_Rec, ...], _Index, Substitution]]:
    if not goals:
        yield (), index, subst
        return
    for recs1, index1, subst1 in _plan(goals[0], index, stack, subst, used, kb, search, parent):
        for recs2, index2, subst2 in _plan_seq(
            goals[1:], index1, stack, subst1, used + len(recs1), kb, search, parent
        ):
            yield recs1 + recs2, index2, subst2


def _too_deep(err: RecursionError, bound: int) -> Exception:
    # the search nests about three frames per plan step. When those fill
    # most of the traceback, the plan is too long; otherwise a deeply
    # nested term overflowed, and that stays bad input
    depth = searching = 0
    tb = err.__traceback__
    while tb is not None:
        depth += 1
        searching += tb.tb_frame.f_code in (_plan.__code__, _plan_seq.__code__)
        tb = tb.tb_next
    return PlanTooDeepError(bound) if 2 * searching > depth else err


def _finalize(recs: tuple[_Rec, ...], subst: Substitution) -> Plan:
    # steps by record identity; consumers sit after their precondition
    # steps, so walking the list backwards always finds the parent built
    steps: dict[int, PlanStep] = {}
    for rec in reversed(recs):
        steps[id(rec)] = PlanStep(
            action=substitute(rec.event.head, subst),
            achieves_goal=substitute(rec.goal, subst),
            parent=None if rec.parent is None else steps[id(rec.parent)],
            solution=(rec.event, subst),
        )
    return Plan(steps=tuple(steps[id(rec)] for rec in recs))


def _plans(
    goal: Term, sitn: Situation, kb: KnowledgeBase, cfg: PlannerConfig, shrink: bool
) -> list[Plan]:
    # distinct plans, each sequence's first derivation; with shrink each
    # plan lowers the bound to its own length, so ties are still found
    index, names = _scope(sitn, goal)
    search = _Search(cfg.max_plan_length, names)
    plans: dict[tuple, Plan] = {}
    try:
        for recs, _, subst in _plan(goal, index, _NO_GOALS, Substitution(), 0, kb, search, None):
            plan = _finalize(recs, subst)
            plans.setdefault(plan_sort_key(plan), plan)
            if shrink:
                search.bound = len(plan)
    except RecursionError as err:
        raise _too_deep(err, cfg.max_plan_length) from None
    return list(plans.values())


def enumerate_plans(
    goal: Term,
    sitn: Situation,
    kb: KnowledgeBase,
    cfg: Optional[PlannerConfig] = None,
) -> list[Plan]:
    """Every distinct plan achieving the goal, up to the length bound.

    Deterministic: knowledge-base declaration order drives action
    choice, term order drives fact matching, and duplicate action
    sequences are dropped keeping the first derivation.
    """
    return _plans(goal, sitn, kb, cfg or PlannerConfig(), shrink=False)


def make_best_plan(
    goal: Term,
    sitn: Situation,
    kb: KnowledgeBase,
    cfg: Optional[PlannerConfig] = None,
) -> ScoredPlan:
    """The enumerated plan maximizing (quality, term order).

    Where shorter plans always win, plans that cannot win are not built.
    """
    cfg = cfg or PlannerConfig()
    # under standard every plan outranks all longer ones (it charges 10
    # per action and at most 1 besides), so the search may shrink its bound
    plans = _plans(goal, sitn, kb, cfg, shrink=cfg.scorer == "standard")
    if not plans:
        raise NoPlanFoundError(goal)
    best = max(plans, key=lambda p: (plan_quality(p, cfg.scorer), plan_sort_key(p)))
    return ScoredPlan(plan=best, quality=plan_quality(best, cfg.scorer))


# the distance of a situation no plan within the bound reaches the goal
# from; any reachable situation must rank above it
_UNREACHABLE = -(10**6)


def plan_distance(sitn: Situation, goal: Term, kb: KnowledgeBase) -> int:
    """Negated length of the shortest plan from sitn to goal.

    0 when the goal already holds, a large negative sentinel when no
    plan exists within the planner's default length bound. Only the
    length is sought: a tie cannot change it, so each plan found lowers
    the bound below its own length, and no plan is finished or scored.
    """
    index, names = _scope(sitn, goal)
    search = _Search(PlannerConfig().max_plan_length, names)
    shortest = None
    for recs, _, _ in _plan(goal, index, _NO_GOALS, Substitution(), 0, kb, search, None):
        if shortest is None or len(recs) < shortest:
            shortest = len(recs)
            if not shortest:
                break
            search.bound = shortest - 1
    return _UNREACHABLE if shortest is None else -shortest
