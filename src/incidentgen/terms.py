"""First-order terms, unification, and a deterministic total order.

Terms are immutable: variables, atoms, and compound terms built from a
functor plus argument terms. Everything downstream (knowledge bases,
planning, simulation) manipulates these values, so determinism starts
here: ``term_key`` defines one total order used whenever a set of terms
or plans must be traversed in a reproducible sequence.

``IncidentgenError``, the base of every error the package raises on
purpose, lives here too: this is the lowest module, the one every
other module builds on.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
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
        fresh = Substitution(self._map)
        fresh._map[var] = value
        return fresh

    def walk(self, term: Term) -> Term:
        """Chase variable bindings at the top level only."""
        seen = None
        while isinstance(term, Variable):
            value = self._map.get(term)
            if value is None:
                break
            if seen is None:
                seen = {term}
            elif term in seen:  # defensive; bind() never creates cycles
                break
            else:
                seen.add(term)
            term = value
        return term


def occurs_in(var: Variable, term: Term, subst: Substitution) -> bool:
    term = subst.walk(term)
    if isinstance(term, Variable):
        return term == var
    if isinstance(term, Compound):
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
    a = s.walk(a)
    b = s.walk(b)
    if isinstance(a, Variable):
        if isinstance(b, Variable) and a == b:
            return s
        if occurs_in(a, b, s):
            return None
        return s.bind(a, b)
    if isinstance(b, Variable):
        if occurs_in(b, a, s):
            return None
        return s.bind(b, a)
    if isinstance(a, Atom) and isinstance(b, Atom):
        return s if a.name == b.name else None
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        for x, y in zip(a.args, b.args):
            result = _unify(x, y, s)
            if result is None:
                return None
            s = result
        return s
    return None


def substitute(term: Term, subst: Substitution) -> Term:
    """Apply a substitution throughout a term."""
    term = subst.walk(term)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(substitute(arg, subst) for arg in term.args))
    return term


def term_key(term: Term):
    """Sort key realising the total order on terms.

    Variables come first (by name), then atoms (by name), then compound
    terms by arity, then functor, then arguments left to right. Tuples
    of keys compare the way lists of terms do, so a sequence of plans
    can be ordered by mapping term_key over each plan.
    """
    if isinstance(term, Variable):
        return (0, term.name)
    if isinstance(term, Atom):
        return (1, term.name)
    return (2, len(term.args), term.functor, tuple(term_key(arg) for arg in term.args))


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


_fresh_counter = itertools.count(1)


def reserve_fresh(count: int) -> None:
    """Use up the next ``count`` fresh names without making any term.

    Fresh names are visible output, so a caller that skips renaming a
    clause reserves the clause's block of names in its place (the WAM's
    offset per call): every later name is the one it would have been.
    """
    global _fresh_counter
    if count:
        _fresh_counter = itertools.count(next(_fresh_counter) + count)


def _rename(term: Term, mapping: dict[Variable, Variable]) -> Term:
    if isinstance(term, Variable):
        if term not in mapping:
            mapping[term] = Variable(f"_G{next(_fresh_counter)}")
        return mapping[term]
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_rename(arg, mapping) for arg in term.args))
    return term


def rename_fresh(term: Term) -> Term:
    """Copy a term with every variable renamed to a globally new one.

    Fresh names use the reserved ``_G`` prefix and never collide with
    source-level names, so two renamings share no variables.
    """
    return _rename(term, {})


def rename_fresh_all(terms: Iterable[Term]) -> list[Term]:
    """Rename variables across several terms with one shared mapping.

    Used to rename a whole clause (head plus body lists) while keeping
    its internal variable links intact.
    """
    mapping: dict[Variable, Variable] = {}
    return [_rename(t, mapping) for t in terms]


def count_variables(terms: Iterable[Term]) -> int:
    """Distinct variables across several terms: the fresh names that
    ``rename_fresh_all`` takes for them."""
    return len({v for t in terms for v in variables(t)})
