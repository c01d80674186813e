"""Parser and serializer for the knowledge-base definition language.

The language declares everything a domain needs, in any order:

    action load(Passengers, Airplane) {
      pre: plocation(Passengers, gate(Airport)), alocation(Airplane, gate(Airport));
      del: plocation(Passengers, gate(Airport));
      add: contains(Passengers, Airplane);
      text: "The passengers boarded the plane.";
    }

    happening fire(engine) { add: on_fire(engine); }

    rule a_on_ground(Airplane) :- alocation(Airplane, gate(_)).

    revise plocation(Passengers, _) when on_fire(engine) => p_on_ground(Passengers).

    init { alocation(airplane1, gate(seattle)); }

    goal plocation(passengers1, gate(dallas)).

Comments run from ``#`` to end of line. Identifiers starting lowercase
are atoms or functors; identifiers starting uppercase or with an
underscore are variables, scoped to their declaration. Each bare ``_``
is a distinct variable: the parser canonicalises them per declaration
as ``_1``, ``_2``, ... in reading order and the serializer prints them
back as ``_``, so parsing a serialized knowledge base reproduces the
same terms.

Parsing recovers from errors at declaration boundaries and reports
every problem found, as ``file:line:col: severity: message``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Optional, Sequence

from .kb import (
    DerivationRule,
    EventDef,
    KnowledgeBase,
    RevisionRule,
    SourcePos,
    TextTemplate,
    aviation_kb_path,
)
from .terms import (
    Atom,
    Compound,
    FreshNames,
    IncidentgenError,
    Term,
    Variable,
    format_term,
    ground,
    signature,
    term_key,
    unify,
    variables,
)

TOP_KEYWORDS = ("action", "happening", "rule", "revise", "init", "goal")

_NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
_VAR_RE = re.compile(r"[_A-Z][A-Za-z0-9_]*")
_RESERVED_VAR_RE = re.compile(r"_[0-9]+\Z")

_ESCAPES = {"n": "\n", "t": "\t"}


@dataclass(frozen=True)
class Diagnostic:
    file: str
    line: int
    col: int
    severity: str  # "error" or "warning"
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.severity}: {self.message}"


class ParseError(IncidentgenError):
    """Input failed to parse or check; ``diagnostics`` holds its errors."""

    exit_status = 2

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))

    @classmethod
    def raise_errors(cls, diagnostics: Iterable[Diagnostic]) -> None:
        """Raise one holding the errors among ``diagnostics``, if there are any."""
        errors = [d for d in diagnostics if d.severity == "error"]
        if errors:
            raise cls(errors)

    def report(self) -> str:
        # each diagnostic already reads "file:line:col: severity: message"
        return str(self)


class Token(NamedTuple):
    kind: str  # NAME, VAR, STRING, PUNCT, EOF
    value: str
    pos: SourcePos


class _ParseFail(Exception):
    """Unwinds to the nearest recovery point; the problem is already recorded."""


def _describe(tok: Token) -> str:
    if tok.kind == "EOF":
        return "end of input"
    if tok.kind == "STRING":
        return "a string"
    return f"'{tok.value}'"


def _tokenize(text: str, error: Callable[[SourcePos, str], None]) -> list[Token]:
    tokens: list[Token] = []
    i, line, line_start = 0, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        at = (line, i - line_start + 1)
        if text.startswith("-->", i):
            tokens.append(Token("PUNCT", "-->", at))
            i += 3
            continue
        if text.startswith(":-", i) or text.startswith("=>", i):
            tokens.append(Token("PUNCT", text[i : i + 2], at))
            i += 2
            continue
        if ch == '"':
            j = i + 1
            buf: list[str] = []
            while j < n and text[j] not in '"\n':
                if text[j] == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    buf.append(_ESCAPES.get(esc, esc))
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n or text[j] != '"':
                error(at, "unterminated string")
                i = j
                continue
            tokens.append(Token("STRING", "".join(buf), at))
            i = j + 1
            continue
        m = _NAME_RE.match(text, i) or _VAR_RE.match(text, i)
        if m:
            tokens.append(Token("NAME" if m.re is _NAME_RE else "VAR", m.group(), at))
            i = m.end()
            continue
        if ch in "{}()[],;.|:":
            tokens.append(Token("PUNCT", ch, at))
            i += 1
            continue
        error(at, f"unexpected character {ch!r}")
        i += 1
    tokens.append(Token("EOF", "", (line, n - line_start + 1)))
    return tokens


class _TokenStream:
    """The tokens of one text, read in order, and every problem found in it.

    ``error`` records a problem and reading goes on; ``fail`` records one
    and raises ``_ParseFail`` to the caller's recovery point.
    """

    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.diags: list[Diagnostic] = []
        self.tokens = _tokenize(text, self.error)
        self.pos = 0

    def error(self, pos: SourcePos, message: str) -> None:
        self.diags.append(Diagnostic(self.filename, *pos, "error", message))

    def fail(self, tok: Token, message: str) -> NoReturn:
        self.error(tok.pos, message)
        raise _ParseFail

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, punct: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value == punct

    def accept(self, punct: str) -> bool:
        """Step past ``punct`` if it is next."""
        found = self.at(punct)
        if found:
            self.advance()
        return found

    def expect(self, value: Optional[str], kind: str = "PUNCT") -> Token:
        """The next token, which must be a ``kind`` token spelt ``value``;
        with ``value`` None, any string."""
        tok = self.peek()
        if tok.kind == kind and value in (None, tok.value):
            return self.advance()
        wanted = "a string" if value is None else f"'{value}'"
        self.fail(tok, f"expected {wanted}, got {_describe(tok)}")


def _read_term(ts: _TokenStream, anon: Iterator[int]) -> Term:
    tok = ts.peek()
    if tok.kind not in ("VAR", "NAME"):
        ts.fail(tok, f"expected a term, got {_describe(tok)}")
    ts.advance()
    if tok.kind == "NAME":
        if ts.accept("("):
            args = _read_terms(ts, anon)
            ts.expect(")")
            return Compound(tok.value, args)
        return Atom(tok.value)
    if tok.value == "_":
        return Variable(f"_{next(anon)}")
    if _RESERVED_VAR_RE.fullmatch(tok.value):
        ts.error(tok.pos, f"variable name '{tok.value}' is reserved for anonymous variables")
    return Variable(tok.value)


def _read_terms(ts: _TokenStream, anon: Iterator[int]) -> tuple[Term, ...]:
    """A non-empty comma-separated list of terms."""
    terms = [_read_term(ts, anon)]
    while ts.accept(","):
        terms.append(_read_term(ts, anon))
    return tuple(terms)


def _read_head(ts: _TokenStream, anon: Iterator[int], what: str, at: Token) -> Term:
    head = _read_term(ts, anon)
    if isinstance(head, Variable):
        ts.fail(at, f"{what} head must be an atom or a compound term")
    return head


class _KbParser:
    def __init__(self, ts: _TokenStream):
        self.ts = ts
        self.events: list[EventDef] = []
        self.rules: list[DerivationRule] = []
        self.revisions: list[RevisionRule] = []
        self.init_facts: list[Term] = []
        self.goal: Optional[Term] = None

    def parse(self) -> None:
        ts = self.ts
        while (tok := ts.peek()).kind != "EOF":
            try:
                if tok.kind == "NAME" and tok.value in TOP_KEYWORDS:
                    getattr(self, f"_parse_{tok.value}")()
                else:
                    ts.advance()  # recovery starts after the stray token
                    ts.fail(
                        tok,
                        f"expected a declaration ({', '.join(TOP_KEYWORDS)}), "
                        f"got {_describe(tok)}",
                    )
            except _ParseFail:
                self._sync()

    def _sync(self) -> None:
        # skip ahead to something that looks like a declaration boundary
        ts = self.ts
        depth = 0
        while True:
            tok = ts.peek()
            if tok.kind == "EOF":
                return
            if depth <= 0 and tok.kind == "NAME" and tok.value in TOP_KEYWORDS:
                return
            ts.advance()
            if tok.kind == "PUNCT":
                if tok.value == "{":
                    depth += 1
                elif tok.value == "}":
                    depth -= 1
                    if depth < 0:
                        return
                elif tok.value == "." and depth <= 0:
                    return

    def _parse_event(self) -> None:
        ts = self.ts
        kw = ts.advance()
        anon = itertools.count(1)
        head = _read_head(ts, anon, "event", kw)
        ts.expect("{")
        sections: dict = {}
        while not ts.accept("}"):
            tok = ts.peek()
            if tok.kind == "EOF":
                ts.fail(tok, "unterminated event block")
            if tok.kind != "NAME" or tok.value not in ("pre", "del", "add", "text"):
                ts.fail(tok, f"expected pre, del, add, or text, got {_describe(tok)}")
            name = ts.advance().value
            ts.expect(":")
            if name == "text":
                # a text section's problems are reported at its string
                tok = ts.expect(None, "STRING")
                value = tok.value
            else:
                value = () if ts.at(";") else _read_terms(ts, anon)
            ts.expect(";")
            if name in sections:
                ts.error(tok.pos, f"duplicate {name} section")
                continue
            if name == "text":
                try:
                    value = TextTemplate.parse(value)
                except ValueError as err:
                    ts.error(tok.pos, str(err))
                    value = None
            sections[name] = value
        self.events.append(
            EventDef(
                kind=kw.value,
                head=head,
                pcs=sections.get("pre", ()),
                dels=sections.get("del", ()),
                adds=sections.get("add", ()),
                template=sections.get("text"),
                pos=kw.pos,
            )
        )

    _parse_action = _parse_happening = _parse_event

    def _parse_rule(self) -> None:
        ts = self.ts
        kw = ts.advance()
        anon = itertools.count(1)
        head = _read_head(ts, anon, "rule", kw)
        ts.expect(":-")
        body = () if ts.at(".") else _read_terms(ts, anon)
        dot = ts.expect(".")
        if body:
            self.rules.append(DerivationRule(head, body, pos=kw.pos))
        else:
            ts.error(dot.pos, "rule needs at least one body goal")

    def _parse_revise(self) -> None:
        ts = self.ts
        kw = ts.advance()
        anon = itertools.count(1)
        old = _read_term(ts, anon)
        ts.expect("when", "NAME")
        trigger = _read_term(ts, anon)
        ts.expect("=>")
        new = _read_term(ts, anon)
        ts.expect(".")
        self.revisions.append(RevisionRule(old, trigger, new, pos=kw.pos))

    def _parse_init(self) -> None:
        ts = self.ts
        ts.advance()
        anon = itertools.count(1)
        ts.expect("{")
        while not ts.accept("}"):
            start = ts.peek()
            if start.kind == "EOF":
                ts.fail(start, "unterminated init block")
            fact = _read_term(ts, anon)
            ts.expect(";")
            if ground(fact):
                self.init_facts.append(fact)
            else:
                ts.error(start.pos, f"initial fact must be ground: {format_term(fact)}")

    def _parse_goal(self) -> None:
        ts = self.ts
        kw = ts.advance()
        goal = _read_term(ts, itertools.count(1))
        ts.expect(".")
        if self.goal is None:
            self.goal = goal
        else:
            ts.error(kw.pos, "duplicate goal declaration")


def parse_kb_with_diagnostics(
    text: str, filename: str = "<kb>", require_init_goal: bool = True
) -> tuple[Optional[KnowledgeBase], list[Diagnostic]]:
    """Parse, recovering from errors; returns (kb or None, diagnostics)."""
    ts = _TokenStream(text, filename)
    parser = _KbParser(ts)
    parser.parse()
    # a goal is planned from the init facts, so declaring one needs them
    eof = ts.tokens[-1].pos
    if require_init_goal and parser.goal is None:
        ts.error(eof, "missing goal declaration")
    if (require_init_goal or parser.goal is not None) and not parser.init_facts:
        ts.error(eof, "missing or empty init block")
    if ts.diags:  # the parser reports errors only
        return None, ts.diags
    kb = KnowledgeBase(
        events=tuple(parser.events),
        rules=tuple(parser.rules),
        revisions=tuple(parser.revisions),
        init=frozenset(parser.init_facts),
        goal=parser.goal,
    )
    return kb, ts.diags


def parse_kb(
    text: str, filename: str = "<kb>", require_init_goal: bool = True
) -> KnowledgeBase:
    kb, diags = parse_kb_with_diagnostics(text, filename, require_init_goal)
    ParseError.raise_errors(diags)
    return kb


def load_kb(path, require_init_goal: bool = True) -> KnowledgeBase:
    path = Path(path)
    return parse_kb(path.read_text(), filename=str(path), require_init_goal=require_init_goal)


def load_aviation() -> KnowledgeBase:
    """The bundled airline-travel domain."""
    return load_kb(aviation_kb_path())


def parse_term(text: str, filename: str = "<term>") -> Term:
    """Parse a single term, e.g. a goal or event given on a command line."""
    ts = _TokenStream(text, filename)
    try:
        term = _read_term(ts, itertools.count(1))
        trailing = ts.peek()
        if trailing.kind != "EOF":
            ts.fail(trailing, f"unexpected input after term: {_describe(trailing)}")
    except _ParseFail:
        pass
    ParseError.raise_errors(ts.diags)
    return term


def validate_kb(kb: KnowledgeBase, filename: str = "<kb>") -> list[Diagnostic]:
    """Semantic checks beyond what the grammar enforces.

    Errors: duplicate event definitions, delete/add/template variables
    not bound by head or preconditions, revised-goal variables not bound
    by pattern or trigger, non-ground init facts, non-ground goal.
    Warnings: actions without a text template, actions whose additions
    match no goal, rule body, or precondition anywhere in the knowledge
    base, and happening preconditions over functors nothing ever
    establishes.
    """
    diags: list[Diagnostic] = []

    def report(pos: Optional[SourcePos], severity: str, message: str) -> None:
        # library code may build clauses with no source position
        diags.append(Diagnostic(filename, *(pos or (0, 0)), severity, message))

    def unbound(terms: Iterable[Term], binders: Sequence[Term]) -> list[str]:
        # names of the variables of terms that no binder holds, in order
        bound = {v.name for t in binders for v in variables(t)}
        return [v.name for t in terms for v in variables(t) if v.name not in bound]

    # fact shapes some situation can contain
    establishable = {signature(fact) for fact in kb.init}
    establishable.update(signature(t) for e in kb.events for t in e.adds)
    establishable.update(signature(r.head) for r in kb.rules)

    # everything the planner or rule prover might chase
    wanted: list[Term] = [] if kb.goal is None else [kb.goal]
    wanted.extend(r.new for r in kb.revisions)
    wanted.extend(g for r in kb.rules for g in r.body)
    wanted.extend(p for e in kb.events for p in e.pcs)
    # renamed apart from every add list, in a scope used only for that
    names = FreshNames()
    [goals] = names.rename(wanted)

    seen: set[tuple[str, str]] = set()
    for event in kb.events:
        at, label = event.pos, f"{event.name}/{event.arity}"
        if (event.kind, label) in seen:
            report(at, "error", f"duplicate definition of {event.kind} {label}")
        seen.add((event.kind, label))
        binders = (event.head, *event.pcs)
        for effect, terms in (("delete", event.dels), ("add", event.adds)):
            for name in unbound(terms, binders):
                report(
                    at, "error", f"uninstantiated {effect}: variable {name} of {label} "
                    "is bound by neither head nor preconditions",
                )
        if event.template is not None:
            # a placeholder names a variable of the head or preconditions
            for slot in unbound(map(Variable, event.template.slot_names()), binders):
                report(
                    at, "error", f"template placeholder {{{slot}}} of {label} "
                    "is bound by neither head nor preconditions",
                )
        elif event.kind == "action":
            report(at, "warning", f"action {label} has no text template")
        if event.kind == "action":
            [adds] = names.rename(event.adds)
            if not any(unify(add, goal) is not None for add in adds for goal in goals):
                report(
                    at, "warning",
                    f"action {label} adds nothing any goal, rule, or precondition can use",
                )
        else:
            for sig in map(signature, event.pcs):
                if sig is not None and sig not in establishable:
                    report(
                        at, "warning", f"precondition {sig[0]}/{sig[1]} of happening "
                        f"{label} is never established",
                    )
    for revision in kb.revisions:
        for name in unbound((revision.new,), (revision.old, revision.trigger)):
            report(
                revision.pos, "error", f"revised goal variable {name} is bound by "
                "neither the pattern nor the trigger",
            )
    for fact in sorted(kb.init, key=term_key):
        if not ground(fact):
            report(None, "error", f"initial fact must be ground: {format_term(fact)}")
    if kb.goal is not None and not ground(kb.goal):
        report(None, "error", f"goal must be ground: {format_term(kb.goal)}")
    return diags


def _serialize_term(term: Term) -> str:
    if isinstance(term, Variable):
        return "_" if _RESERVED_VAR_RE.fullmatch(term.name) else term.name
    if isinstance(term, Atom):
        return term.name
    inner = ", ".join(_serialize_term(arg) for arg in term.args)
    return f"{term.functor}({inner})"


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )


def serialize_kb(kb: KnowledgeBase) -> str:
    """Canonical text form; parsing it back reproduces the same terms."""
    st = _serialize_term
    chunks: list[str] = []
    for event in kb.events:
        lines = [f"{event.kind} {st(event.head)} {{"]
        for label, terms in (("pre", event.pcs), ("del", event.dels), ("add", event.adds)):
            if terms:
                lines.append(f"  {label}: {', '.join(st(t) for t in terms)};")
        if event.template is not None:
            lines.append(f'  text: "{_escape(event.template.raw)}";')
        lines.append("}")
        chunks.append("\n".join(lines))
    for rule in kb.rules:
        body = ", ".join(st(g) for g in rule.body)
        chunks.append(f"rule {st(rule.head)} :- {body}.")
    for revision in kb.revisions:
        chunks.append(
            f"revise {st(revision.old)} when {st(revision.trigger)} "
            f"=> {st(revision.new)}."
        )
    if kb.init:
        lines = ["init {"]
        lines.extend(f"  {st(fact)};" for fact in sorted(kb.init, key=term_key))
        lines.append("}")
        chunks.append("\n".join(lines))
    if kb.goal is not None:
        chunks.append(f"goal {st(kb.goal)}.")
    return "\n\n".join(chunks) + "\n"
