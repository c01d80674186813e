"""Knowledge-base model: events, derivation rules, goal revisions.

A knowledge base bundles everything the planner and simulator need for
one domain: action and happening definitions with STRIPS-style effects,
Horn rules deriving facts from a situation, goal revision rules fired
by exogenous events, an initial situation, and a goal. Instances are
immutable; the DSL parser in :mod:`incidentgen.dsl` builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Union

from .terms import (
    CompiledClause,
    Compound,
    FreshNames,
    IncidentgenError,
    Substitution,
    Term,
    _may_unify,
    _strict_tuple,
    format_term,
    signature,
    unify,
)

Situation = frozenset  # of ground Term facts

SourcePos = tuple[int, int]  # line, column; 1-based


class UnknownEventError(IncidentgenError):
    """No event definition matches the given event term."""

    def __init__(self, event: Term, message: Optional[str] = None):
        self.event = event
        super().__init__(message or f"no event definition matches {format_term(event)}")


@_strict_tuple
class Literal(NamedTuple):
    text: str


@_strict_tuple
class Slot(NamedTuple):
    var: str


Segment = Union[Literal, Slot]


@dataclass(frozen=True)
class TextTemplate:
    """A narration template with ``{Var}`` placeholders."""

    raw: str
    segments: tuple[Segment, ...]

    @classmethod
    def parse(cls, raw: str) -> "TextTemplate":
        segments: list[Segment] = []
        buf: list[str] = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch == "{":
                end = raw.find("}", i + 1)
                if end < 0:
                    raise ValueError("unclosed '{' in template")
                name = raw[i + 1 : end].strip()
                if not name:
                    raise ValueError("empty placeholder in template")
                if buf:
                    segments.append(Literal("".join(buf)))
                    buf = []
                segments.append(Slot(name))
                i = end + 1
            elif ch == "}":
                raise ValueError("unmatched '}' in template")
            else:
                buf.append(ch)
                i += 1
        if buf:
            segments.append(Literal("".join(buf)))
        return cls(raw, tuple(segments))

    def slot_names(self) -> list[str]:
        return [seg.var for seg in self.segments if isinstance(seg, Slot)]

    def render(self, values: Mapping[str, str]) -> str:
        parts = []
        for seg in self.segments:
            parts.append(seg.text if isinstance(seg, Literal) else values[seg.var])
        return "".join(parts)


@dataclass(frozen=True)
class EventDef:
    """An action (planned) or happening (exogenous) definition."""

    kind: str  # "action" or "happening"
    head: Term
    pcs: tuple[Term, ...]
    dels: tuple[Term, ...]
    adds: tuple[Term, ...]
    template: Optional[TextTemplate] = None
    pos: Optional[SourcePos] = field(default=None, compare=False)

    @property
    def name(self) -> str:
        return self.head.functor if isinstance(self.head, Compound) else self.head.name

    @property
    def arity(self) -> int:
        return len(self.head.args) if isinstance(self.head, Compound) else 0

    @cached_property
    def compiled(self) -> CompiledClause:
        """The clause compiled once for ``fresh_event``."""
        return CompiledClause((self.head,), self.pcs, self.dels, self.adds)

    @property
    def fresh_width(self) -> int:
        """Fresh names ``fresh_event`` takes."""
        return self.compiled.width


@dataclass(frozen=True)
class DerivationRule:
    """Horn rule: head holds in a situation if every body goal does."""

    head: Term
    body: tuple[Term, ...]
    pos: Optional[SourcePos] = field(default=None, compare=False)

    @cached_property
    def compiled(self) -> CompiledClause:
        """The clause compiled once for ``fresh_rule``."""
        return CompiledClause((self.head,), self.body)

    @property
    def fresh_width(self) -> int:
        """Fresh names ``fresh_rule`` takes."""
        return self.compiled.width


@dataclass(frozen=True)
class RevisionRule:
    """Replaces a goal matching ``old`` with ``new`` when ``trigger`` holds."""

    old: Term
    trigger: Term
    new: Term
    pos: Optional[SourcePos] = field(default=None, compare=False)

    @cached_property
    def compiled(self) -> CompiledClause:
        """The clause compiled once for ``fresh_revision``."""
        return CompiledClause((self.old, self.trigger, self.new))

    @property
    def fresh_width(self) -> int:
        """Fresh names ``fresh_revision`` takes."""
        return self.compiled.width


class Rooted(NamedTuple):
    """What may meet a goal of one signature, in declaration order.

    ``rules`` are the rules whose head's root matches the goal's (a
    variable root matches any), and ``width`` the fresh names they take
    together. ``actions`` pairs each action with its root-matching adds
    and with the positions in ``rules`` of the rules whose every body
    literal may match one of its adds. ``events`` are the events whose
    head's root matches."""

    rules: tuple[DerivationRule, ...]
    width: int
    actions: tuple[tuple[EventDef, tuple[Term, ...], tuple[int, ...]], ...]
    events: tuple[EventDef, ...]


@dataclass(frozen=True)
class KnowledgeBase:
    events: tuple[EventDef, ...] = ()
    rules: tuple[DerivationRule, ...] = ()
    revisions: tuple[RevisionRule, ...] = ()
    init: Situation = frozenset()
    goal: Optional[Term] = None

    @cached_property
    def actions(self) -> tuple[EventDef, ...]:
        return tuple(e for e in self.events if e.kind == "action")

    @cached_property
    def happenings(self) -> tuple[EventDef, ...]:
        return tuple(e for e in self.events if e.kind == "happening")

    @cached_property
    def _rooted(self) -> dict[Optional[tuple[str, int]], Rooted]:
        return {}

    @cached_property
    def _screens(self) -> dict:  # the planner's verdicts per ground goal
        return {}

    @cached_property
    def _plans(self) -> dict:  # the simulator's best plans per query
        return {}

    def rooted(self, sig: Optional[tuple[str, int]]) -> Rooted:
        """The clauses that may meet a goal of signature ``sig`` (None for
        a variable goal), worked out on first use and kept."""
        found = self._rooted.get(sig)
        if found is not None:
            return found

        def meets(term: Term) -> bool:
            root = signature(term)
            return sig is None or root is None or root == sig

        anything = Substitution()  # leaves both sides' variables free
        rules = tuple(r for r in self.rules if meets(r.head))
        actions = tuple(
            (
                event,
                tuple(a for a in event.adds if meets(a)),
                tuple(
                    i
                    for i, rule in enumerate(rules)
                    if all(any(_may_unify(b, a, anything) for a in event.adds) for b in rule.body)
                ),
            )
            for event in self.actions
        )
        events = tuple(e for e in self.events if meets(e.head))
        found = Rooted(rules, sum(r.fresh_width for r in rules), actions, events)
        self._rooted[sig] = found
        return found

    def match_event(self, term: Term, kind: Optional[str] = None):
        """First event definition whose head unifies with ``term``.

        Returns ``(EventDef, Substitution)`` or None. The definition is
        returned as declared, variable names intact, so callers can tie
        template slot names to the bindings; pass a ground ``term`` to
        avoid capturing its variables.
        """
        for event in self.rooted(signature(term)).events:
            if kind is not None and event.kind != kind:
                continue
            subst = unify(event.head, term)
            if subst is not None:
                return event, subst
        return None


def fresh_event(event: EventDef, names: FreshNames) -> EventDef:
    """Copy an event with its variables renamed apart in ``names``."""
    (head,), pcs, dels, adds = event.compiled.instantiate(names)
    return EventDef(event.kind, head, pcs, dels, adds, event.template, event.pos)


def fresh_rule(rule: DerivationRule, names: FreshNames) -> DerivationRule:
    (head,), body = rule.compiled.instantiate(names)
    return DerivationRule(head, body, rule.pos)


def fresh_revision(rule: RevisionRule, names: FreshNames) -> RevisionRule:
    [(old, trigger, new)] = rule.compiled.instantiate(names)
    return RevisionRule(old, trigger, new, rule.pos)


def data_path(name: str) -> Path:
    """Path of a bundled data file (knowledge bases, grammars)."""
    import importlib.resources  # here, not at the top: most imports never need it

    return Path(str(importlib.resources.files(__package__) / "data" / name))


def aviation_kb_path() -> Path:
    return data_path("aviation.kb")
