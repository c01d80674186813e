"""First-order terms, unification, and a deterministic total order.

Terms are immutable: variables, atoms, and compound terms built from a
functor plus argument terms. Everything downstream (knowledge bases,
planning, simulation) manipulates these values, so determinism starts
here: ``term_key`` defines one total order used whenever a set of terms
or plans must be traversed in a reproducible sequence, and each query
renames clauses apart in a ``FreshNames`` scope of its own, so no query
depends on how many names an earlier one took. A clause is renamed by a
``CompiledClause``, built once per clause, and the hot functions
(``unify``, ``substitute``, ``Substitution.walk``) dispatch on a term's
exact class, so the three term classes are not meant to be subclassed.

``IncidentgenError``, the base of every error the package raises on
purpose, lives here too: this is the lowest module, the one every
other module builds on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Union


class IncidentgenError(Exception):
    """Base of every failure the package raises on purpose.

    ``exit_status`` is the command line's exit status for the error:
    1 for a runtime failure (no plan, a stalemate, a stale plan), 2 for
    bad input (unparseable text, an unknown name).
    """

    exit_status = 1

    def report(self) -> str:
        """The error as the command line prints it to stderr."""
        return f"error: {self}"


@dataclass(frozen=True)
class Variable:
    name: str

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True)
class Atom:
    name: str

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple["Term", ...]

    def __post_init__(self) -> None:
        # zero-arity "compounds" are atoms; rejecting them keeps the
        # two cases structurally distinct
        if not self.args:
            raise ValueError("compound term needs at least one argument")

    def __repr__(self) -> str:
        return f"Compound({self.functor!r}, {self.args!r})"


Term = Union[Variable, Atom, Compound]


class Substitution(Mapping[Variable, Term]):
    """An immutable binding of variables to terms.

    ``bind`` returns a new substitution; existing ones are never
    mutated, so branches of a search can share a common prefix safely.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Optional[Mapping[Variable, Term]] = None) -> None:
        object.__setattr__(self, "_map", dict(mapping) if mapping else {})

    def __getitem__(self, var: Variable) -> Term:
        return self._map[var]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Substitution):
            return self._map == other._map
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{var.name}={format_term(value)}" for var, value in self._map.items()
        )
        return f"Substitution({{{inner}}})"

    def bind(self, var: Variable, value: Term) -> "Substitution":
        fresh = object.__new__(Substitution)
        mapping = self._map.copy()
        mapping[var] = value
        object.__setattr__(fresh, "_map", mapping)
        return fresh

    def walk(self, term: Term) -> Term:
        """Chase variable bindings at the top level only."""
        get = self._map.get
        value = get(term) if type(term) is Variable else None
        if value is None:
            return term
        if type(value) is not Variable:
            return value
        seen = {term}
        term = value
        while (value := get(term)) is not None:
            if term in seen:  # defensive; bind() never creates cycles
                break
            seen.add(term)
            term = value
            if type(term) is not Variable:
                break
        return term


def occurs_in(var: Variable, term: Term, subst: Substitution) -> bool:
    term = subst.walk(term)
    kind = type(term)
    if kind is Variable:
        return term == var
    if kind is Compound:
        return any(occurs_in(var, arg, subst) for arg in term.args)
    return False


def unify(left: Term, right: Term, subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """Unify two terms, returning the extended substitution or None.

    The occurs check is on: ``unify(X, f(X))`` fails rather than
    building an infinite term.
    """
    s = Substitution() if subst is None else subst
    return _unify(left, right, s)


def _unify(a: Term, b: Term, s: Substitution) -> Optional[Substitution]:
    # dispatch on the exact type, walking each side only if it is a bound
    # variable; an unbound variable never occurs in another one, so only
    # a compound needs the occurs check
    get = s._map.get
    ta = type(a)
    if ta is Variable and (bound := get(a)) is not None:
        a = bound if type(bound) is not Variable else s.walk(a)
        ta = type(a)
    tb = type(b)
    if tb is Variable and (bound := get(b)) is not None:
        b = bound if type(bound) is not Variable else s.walk(b)
        tb = type(b)
    if ta is Variable:
        if tb is Variable and a.name == b.name:
            return s
        if tb is Compound and occurs_in(a, b, s):
            return None
        return s.bind(a, b)
    if tb is Variable:
        if ta is Compound and occurs_in(b, a, s):
            return None
        return s.bind(b, a)
    if ta is Atom:
        return s if tb is Atom and a.name == b.name else None
    if tb is not Compound or a.functor != b.functor or len(a.args) != len(b.args):
        return None
    for x, y in zip(a.args, b.args):
        s = _unify(x, y, s)
        if s is None:
            return None
    return s


def substitute(term: Term, subst: Substitution) -> Term:
    """Apply a substitution throughout a term."""
    if type(term) is Variable:
        term = subst.walk(term)
    if type(term) is Compound:
        return Compound(term.functor, tuple([substitute(arg, subst) for arg in term.args]))
    return term


def _may_unify(goal: Term, raw: Term, subst: Substitution) -> bool:
    # deep screen before paying for a fresh rename: ``raw`` is a clause
    # term not yet renamed apart, so its variables match anything, and
    # the goal side is walked through ``subst`` (with an empty one, the
    # goal's variables match anything too). False means that no renaming
    # of ``raw`` unifies with the goal
    kind = type(raw)
    if kind is Variable:
        return True
    goal = subst.walk(goal)
    seen = type(goal)
    if seen is Variable:
        return True
    if seen is Atom:
        return kind is Atom and goal.name == raw.name
    if kind is not Compound or goal.functor != raw.functor or len(goal.args) != len(raw.args):
        return False
    for g, r in zip(goal.args, raw.args):
        if not _may_unify(g, r, subst):
            return False
    return True


def term_key(term: Term):
    """Sort key realising the total order on terms.

    Variables come first (by name), then atoms (by name), then compound
    terms by arity, then functor, then arguments left to right. Tuples
    of keys compare the way lists of terms do, so a sequence of plans
    can be ordered by mapping term_key over each plan.
    """
    kind = type(term)
    if kind is Variable:
        return (0, term.name)
    if kind is Atom:
        return (1, term.name)
    return (2, len(term.args), term.functor, tuple([term_key(arg) for arg in term.args]))


def format_term(term: Term) -> str:
    if isinstance(term, (Variable, Atom)):
        return term.name
    inner = ", ".join(format_term(arg) for arg in term.args)
    return f"{term.functor}({inner})"


def ground(term: Term) -> bool:
    if isinstance(term, Variable):
        return False
    if isinstance(term, Compound):
        return all(ground(arg) for arg in term.args)
    return True


def variables(term: Term) -> list[Variable]:
    """Distinct variables of a term in first-occurrence order."""
    found: list[Variable] = []
    seen: set[Variable] = set()

    def visit(t: Term) -> None:
        if isinstance(t, Variable):
            if t not in seen:
                seen.add(t)
                found.append(t)
        elif isinstance(t, Compound):
            for arg in t.args:
                visit(arg)

    visit(term)
    return found


def signature(term: Term) -> Optional[tuple[str, int]]:
    """(functor, arity) of a compound, (name, 0) of an atom, None for a
    variable. Non-variable terms whose signatures differ cannot unify."""
    kind = type(term)
    if kind is Compound:
        return term.functor, len(term.args)
    return (term.name, 0) if kind is Atom else None


def fresh_floor(terms: Iterable[Term]) -> int:
    """The highest n of a ``_G<n>`` variable among the terms, 0 if none."""
    found = [v.name[2:] for t in terms for v in variables(t) if v.name.startswith("_G")]
    return max((int(n) for n in found if n.isdecimal()), default=0)


class FreshNames:
    """One query's supply of fresh variable names, ``_G<n>``.

    A query opens one scope and passes it down. Its names count up from
    1 above ``floor``, the highest such name in the query's own inputs
    (``fresh_floor``), so a renamed clause never captures an input
    variable and the answer depends on the query's arguments alone."""

    def __init__(self, floor: int = 0) -> None:
        self._next = floor + 1

    def reserve(self, count: int) -> None:
        """Use up the next ``count`` names in place of a clause the caller
        skips renaming. Names are visible output: every later name is the
        one it would have been (the WAM's offset per call)."""
        self._next += count

    def take(self, count: int) -> list[Variable]:
        """The next ``count`` names, as variables."""
        first = self._next
        self._next = first + count
        return [Variable(f"_G{n}") for n in range(first, first + count)]

    def rename(self, *groups: Iterable[Term]) -> list[tuple[Term, ...]]:
        """Copy groups of terms with every variable renamed to a new name.
        The groups share one mapping, so a whole clause (head plus body
        lists) keeps its variable links; two calls share no variables."""
        return CompiledClause(*groups).instantiate(self)


def _gather(slots: list[int]):
    # a function from the registers to the tuple of those at ``slots``
    if len(slots) == 1:
        [slot] = slots
        return lambda registers: (registers[slot],)
    return itemgetter(*slots) if slots else lambda registers: ()


class CompiledClause:
    """Groups of terms compiled once, to be renamed apart many times.

    As in the WAM's compile-once clause code, a renamed copy is built by
    a fixed program rather than by walking the terms: the registers hold
    the fresh variables (numbered in first-occurrence order, as
    ``FreshNames.rename`` numbers them), then the ground subterms, which
    every copy shares, then each compound still to build, in post-order.
    """

    __slots__ = ("groups", "width", "_constants", "_code", "_outputs")

    def __init__(self, *groups: Iterable[Term]) -> None:
        self.groups = tuple(tuple(group) for group in groups)
        slots: dict[Term, int] = {}
        constants: list[Term] = []
        built: set[int] = set()  # ids of the compounds that hold a variable

        def scan(term: Term) -> bool:
            # number the variables and collect the largest ground
            # subterms; True if the term holds a variable
            if type(term) is Variable:
                slots.setdefault(term, len(slots))
                return True
            if type(term) is Atom:
                return False
            held = [scan(arg) for arg in term.args]
            if not any(held):
                return False
            built.add(id(term))
            constants.extend(arg for arg, var in zip(term.args, held) if not var)
            return True

        for group in self.groups:
            constants.extend(term for term in group if not scan(term))
        self.width = len(slots)
        for term in constants:
            slots.setdefault(term, len(slots))
        self._constants = list(slots)[self.width :]
        code: list[tuple[str, object]] = []

        def slot(term: Term) -> int:
            if id(term) not in built:
                return slots[term]
            code.append((term.functor, _gather([slot(arg) for arg in term.args])))
            return len(slots) + len(code) - 1

        self._outputs = [_gather([slot(term) for term in group]) for group in self.groups]
        self._code = tuple(code)

    def __reduce__(self):
        return CompiledClause, self.groups

    def instantiate(self, names: FreshNames) -> list[tuple[Term, ...]]:
        """The groups with their variables renamed to the next ``width``
        names of ``names``."""
        registers = names.take(self.width)
        registers += self._constants
        for functor, args in self._code:
            registers.append(Compound(functor, args(registers)))
        return [output(registers) for output in self._outputs]
