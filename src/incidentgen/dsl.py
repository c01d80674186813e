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
from typing import Iterator, Optional, Sequence

from .kb import (
    DerivationRule,
    EventDef,
    KnowledgeBase,
    RevisionRule,
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
    """Parse failed; ``diagnostics`` holds everything that was found."""

    exit_status = 2

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))

    def report(self) -> str:
        # each diagnostic already reads "file:line:col: severity: message"
        return str(self)


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, VAR, STRING, PUNCT, EOF
    value: str
    line: int
    col: int


class _ParseFail(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


def _describe(tok: Token) -> str:
    if tok.kind == "EOF":
        return "end of input"
    if tok.kind == "STRING":
        return "a string"
    return f"'{tok.value}'"


def _tokenize(text: str, filename: str, diags: list[Diagnostic]) -> list[Token]:
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
        col = i - line_start + 1
        if text.startswith("-->", i):
            tokens.append(Token("PUNCT", "-->", line, col))
            i += 3
            continue
        if text.startswith(":-", i) or text.startswith("=>", i):
            tokens.append(Token("PUNCT", text[i : i + 2], line, col))
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
                diags.append(Diagnostic(filename, line, col, "error", "unterminated string"))
                i = j
                continue
            tokens.append(Token("STRING", "".join(buf), line, col))
            i = j + 1
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(Token("NAME", m.group(), line, col))
            i = m.end()
            continue
        m = _VAR_RE.match(text, i)
        if m:
            tokens.append(Token("VAR", m.group(), line, col))
            i = m.end()
            continue
        if ch in "{}()[],;.|:":
            tokens.append(Token("PUNCT", ch, line, col))
            i += 1
            continue
        diags.append(Diagnostic(filename, line, col, "error", f"unexpected character {ch!r}"))
        i += 1
    tokens.append(Token("EOF", "", line, n - line_start + 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, tok: Token, message: str) -> None:
        raise _ParseFail(Diagnostic(self.filename, tok.line, tok.col, "error", message))

    def expect_punct(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value == value:
            return self.advance()
        self.fail(tok, f"expected '{value}', got {_describe(tok)}")

    def expect_keyword(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind == "NAME" and tok.value == value:
            return self.advance()
        self.fail(tok, f"expected '{value}', got {_describe(tok)}")

    def expect_string(self) -> Token:
        tok = self.peek()
        if tok.kind == "STRING":
            return self.advance()
        self.fail(tok, f"expected a string, got {_describe(tok)}")

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value == value


def _read_term(
    ts: _TokenStream, anon: Iterator[int], diags: list[Diagnostic]
) -> Term:
    tok = ts.peek()
    if tok.kind == "VAR":
        ts.advance()
        if tok.value == "_":
            return Variable(f"_{next(anon)}")
        if _RESERVED_VAR_RE.fullmatch(tok.value):
            diags.append(
                Diagnostic(
                    ts.filename,
                    tok.line,
                    tok.col,
                    "error",
                    f"variable name '{tok.value}' is reserved for anonymous variables",
                )
            )
        return Variable(tok.value)
    if tok.kind == "NAME":
        ts.advance()
        if ts.at_punct("("):
            ts.advance()
            args = [_read_term(ts, anon, diags)]
            while ts.at_punct(","):
                ts.advance()
                args.append(_read_term(ts, anon, diags))
            ts.expect_punct(")")
            return Compound(tok.value, tuple(args))
        return Atom(tok.value)
    ts.fail(tok, f"expected a term, got {_describe(tok)}")


class _KbParser:
    def __init__(self, ts: _TokenStream, diags: list[Diagnostic]):
        self.ts = ts
        self.diags = diags
        self.events: list[EventDef] = []
        self.rules: list[DerivationRule] = []
        self.revisions: list[RevisionRule] = []
        self.init_facts: list[Term] = []
        self.goal: Optional[Term] = None

    def parse(self) -> None:
        ts = self.ts
        while ts.peek().kind != "EOF":
            tok = ts.peek()
            if tok.kind == "NAME" and tok.value in TOP_KEYWORDS:
                try:
                    getattr(self, f"_parse_{tok.value}")()
                except _ParseFail as err:
                    self.diags.append(err.diagnostic)
                    self._sync()
            else:
                self.diags.append(
                    Diagnostic(
                        ts.filename,
                        tok.line,
                        tok.col,
                        "error",
                        f"expected a declaration "
                        f"({', '.join(TOP_KEYWORDS)}), got {_describe(tok)}",
                    )
                )
                ts.advance()
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

    def _term_list(self, anon: Iterator[int], stop: str) -> list[Term]:
        ts = self.ts
        if ts.at_punct(stop):
            return []
        terms = [_read_term(ts, anon, self.diags)]
        while ts.at_punct(","):
            ts.advance()
            terms.append(_read_term(ts, anon, self.diags))
        return terms

    def _parse_action(self) -> None:
        self._event_decl("action")

    def _parse_happening(self) -> None:
        self._event_decl("happening")

    def _event_decl(self, kind: str) -> None:
        ts = self.ts
        kw = ts.advance()
        anon = itertools.count(1)
        head = _read_term(ts, anon, self.diags)
        if isinstance(head, Variable):
            ts.fail(kw, "event head must be an atom or a compound term")
        ts.expect_punct("{")
        sections: dict[str, tuple[Term, ...]] = {}
        template: Optional[TextTemplate] = None
        saw_text = False
        while True:
            tok = ts.peek()
            if tok.kind == "PUNCT" and tok.value == "}":
                ts.advance()
                break
            if tok.kind == "EOF":
                ts.fail(tok, "unterminated event block")
            if tok.kind != "NAME" or tok.value not in ("pre", "del", "add", "text"):
                ts.fail(tok, f"expected pre, del, add, or text, got {_describe(tok)}")
            ts.advance()
            ts.expect_punct(":")
            if tok.value == "text":
                stok = ts.expect_string()
                ts.expect_punct(";")
                if saw_text:
                    self.diags.append(
                        Diagnostic(
                            ts.filename, stok.line, stok.col, "error",
                            "duplicate text section",
                        )
                    )
                    continue
                saw_text = True
                try:
                    template = TextTemplate.parse(stok.value)
                except ValueError as err:
                    self.diags.append(
                        Diagnostic(ts.filename, stok.line, stok.col, "error", str(err))
                    )
            else:
                terms = self._term_list(anon, stop=";")
                ts.expect_punct(";")
                if tok.value in sections:
                    self.diags.append(
                        Diagnostic(
                            ts.filename, tok.line, tok.col, "error",
                            f"duplicate {tok.value} section",
                        )
                    )
                    continue
                sections[tok.value] = tuple(terms)
        self.events.append(
            EventDef(
                kind=kind,
                head=head,
                pcs=sections.get("pre", ()),
                dels=sections.get("del", ()),
                adds=sections.get("add", ()),
                template=template,
                pos=(kw.line, kw.col),
            )
        )

    def _parse_rule(self) -> None:
        ts = self.ts
        kw = ts.advance()
        anon = itertools.count(1)
        head = _read_term(ts, anon, self.diags)
        if isinstance(head, Variable):
            ts.fail(kw, "rule head must be an atom or a compound term")
        ts.expect_punct(":-")
        body = self._term_list(anon, stop=".")
        dot = ts.expect_punct(".")
        if not body:
            self.diags.append(
                Diagnostic(
                    ts.filename, dot.line, dot.col, "error",
                    "rule needs at least one body goal",
                )
            )
            return
        self.rules.append(DerivationRule(head, tuple(body), pos=(kw.line, kw.col)))

    def _parse_revise(self) -> None:
        ts = self.ts
        kw = ts.advance()
        anon = itertools.count(1)
        old = _read_term(ts, anon, self.diags)
        ts.expect_keyword("when")
        trigger = _read_term(ts, anon, self.diags)
        ts.expect_punct("=>")
        new = _read_term(ts, anon, self.diags)
        ts.expect_punct(".")
        self.revisions.append(RevisionRule(old, trigger, new, pos=(kw.line, kw.col)))

    def _parse_init(self) -> None:
        ts = self.ts
        ts.advance()
        anon = itertools.count(1)
        ts.expect_punct("{")
        while not ts.at_punct("}"):
            if ts.peek().kind == "EOF":
                ts.fail(ts.peek(), "unterminated init block")
            start = ts.peek()
            fact = _read_term(ts, anon, self.diags)
            ts.expect_punct(";")
            if not ground(fact):
                self.diags.append(
                    Diagnostic(
                        ts.filename, start.line, start.col, "error",
                        f"initial fact must be ground: {format_term(fact)}",
                    )
                )
                continue
            self.init_facts.append(fact)
        ts.advance()

    def _parse_goal(self) -> None:
        ts = self.ts
        kw = ts.advance()
        anon = itertools.count(1)
        goal = _read_term(ts, anon, self.diags)
        ts.expect_punct(".")
        if self.goal is not None:
            self.diags.append(
                Diagnostic(
                    ts.filename, kw.line, kw.col, "error", "duplicate goal declaration"
                )
            )
            return
        self.goal = goal


def parse_kb_with_diagnostics(
    text: str, filename: str = "<kb>", require_init_goal: bool = True
) -> tuple[Optional[KnowledgeBase], list[Diagnostic]]:
    """Parse, recovering from errors; returns (kb or None, diagnostics)."""
    diags: list[Diagnostic] = []
    tokens = _tokenize(text, filename, diags)
    parser = _KbParser(_TokenStream(tokens, filename), diags)
    parser.parse()
    # a goal is planned from the init facts, so declaring one needs them
    eof = tokens[-1]
    if require_init_goal and parser.goal is None:
        diags.append(
            Diagnostic(filename, eof.line, eof.col, "error", "missing goal declaration")
        )
    if (require_init_goal or parser.goal is not None) and not parser.init_facts:
        diags.append(
            Diagnostic(filename, eof.line, eof.col, "error", "missing or empty init block")
        )
    if any(d.severity == "error" for d in diags):
        return None, diags
    kb = KnowledgeBase(
        events=tuple(parser.events),
        rules=tuple(parser.rules),
        revisions=tuple(parser.revisions),
        init=frozenset(parser.init_facts),
        goal=parser.goal,
    )
    return kb, diags


def parse_kb(
    text: str, filename: str = "<kb>", require_init_goal: bool = True
) -> KnowledgeBase:
    kb, diags = parse_kb_with_diagnostics(text, filename, require_init_goal)
    if kb is None:
        raise ParseError(diags)
    return kb


def load_kb(path, require_init_goal: bool = True) -> KnowledgeBase:
    path = Path(path)
    return parse_kb(path.read_text(), filename=str(path), require_init_goal=require_init_goal)


def load_aviation() -> KnowledgeBase:
    """The bundled airline-travel domain."""
    return load_kb(aviation_kb_path())


def parse_term(text: str, filename: str = "<term>") -> Term:
    """Parse a single term, e.g. a goal or event given on a command line."""
    diags: list[Diagnostic] = []
    tokens = _tokenize(text, filename, diags)
    ts = _TokenStream(tokens, filename)
    term: Optional[Term] = None
    try:
        term = _read_term(ts, itertools.count(1), diags)
        trailing = ts.peek()
        if trailing.kind != "EOF":
            ts.fail(trailing, f"unexpected input after term: {_describe(trailing)}")
    except _ParseFail as err:
        diags.append(err.diagnostic)
    if any(d.severity == "error" for d in diags):
        raise ParseError(diags)
    assert term is not None
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

    def pos(p) -> tuple[int, int]:
        return p if p is not None else (0, 0)

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

    seen: set[tuple[str, str, int]] = set()
    for event in kb.events:
        key = (event.kind, event.name, event.arity)
        line, col = pos(event.pos)
        if key in seen:
            diags.append(
                Diagnostic(
                    filename, line, col, "error",
                    f"duplicate definition of {event.kind} {event.name}/{event.arity}",
                )
            )
        else:
            seen.add(key)
        bound = {
            v.name
            for t in (event.head, *event.pcs)
            for v in variables(t)
        }
        for label, terms in (("delete", event.dels), ("add", event.adds)):
            for t in terms:
                for v in variables(t):
                    if v.name not in bound:
                        diags.append(
                            Diagnostic(
                                filename, line, col, "error",
                                f"uninstantiated {label}: variable {v.name} of "
                                f"{event.name}/{event.arity} is bound by neither "
                                f"head nor preconditions",
                            )
                        )
        if event.template is not None:
            for slot in event.template.slot_names():
                if slot not in bound:
                    diags.append(
                        Diagnostic(
                            filename, line, col, "error",
                            f"template placeholder {{{slot}}} of {event.name}/"
                            f"{event.arity} is bound by neither head nor preconditions",
                        )
                    )
        elif event.kind == "action":
            diags.append(
                Diagnostic(
                    filename, line, col, "warning",
                    f"action {event.name}/{event.arity} has no text template",
                )
            )
        if event.kind == "action":
            [adds] = names.rename(event.adds)
            usable = any(unify(add, goal) is not None for add in adds for goal in goals)
            if not usable:
                diags.append(
                    Diagnostic(
                        filename, line, col, "warning",
                        f"action {event.name}/{event.arity} adds nothing any "
                        f"goal, rule, or precondition can use",
                    )
                )
        else:
            for pc in event.pcs:
                sig = signature(pc)
                if sig is not None and sig not in establishable:
                    diags.append(
                        Diagnostic(
                            filename, line, col, "warning",
                            f"precondition {sig[0]}/{sig[1]} of happening "
                            f"{event.name}/{event.arity} is never established",
                        )
                    )
    for revision in kb.revisions:
        line, col = pos(revision.pos)
        bound = {
            v.name
            for t in (revision.old, revision.trigger)
            for v in variables(t)
        }
        for v in variables(revision.new):
            if v.name not in bound:
                diags.append(
                    Diagnostic(
                        filename, line, col, "error",
                        f"revised goal variable {v.name} is bound by neither "
                        f"the pattern nor the trigger",
                    )
                )
    for fact in sorted(kb.init, key=term_key):
        if not ground(fact):
            diags.append(
                Diagnostic(
                    filename, 0, 0, "error",
                    f"initial fact must be ground: {format_term(fact)}",
                )
            )
    if kb.goal is not None and not ground(kb.goal):
        diags.append(
            Diagnostic(
                filename, 0, 0, "error",
                f"goal must be ground: {format_term(kb.goal)}",
            )
        )
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
