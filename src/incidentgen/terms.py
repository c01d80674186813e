"""First-order terms, unification, and a deterministic total order.

Terms are immutable: variables, atoms, and compound terms built from a
functor plus argument terms. Everything downstream (knowledge bases,
planning, simulation) manipulates these values, so determinism starts
here: ``term_key`` defines one total order used whenever a set of terms
or plans must be traversed in a reproducible sequence, and each query
renames clauses apart in a ``FreshNames`` scope of its own, so no query
depends on how many names an earlier one took.

``IncidentgenError``, the base of every error the package raises on
purpose, lives here too: this is the lowest module, the one every
other module builds on.
"""

from __future__ import annotations

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


def signature(term: Term) -> Optional[tuple[str, int]]:
    """(functor, arity) of a compound, (name, 0) of an atom, None for a
    variable. Non-variable terms whose signatures differ cannot unify."""
    if isinstance(term, Compound):
        return term.functor, len(term.args)
    return (term.name, 0) if isinstance(term, Atom) else None


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

    def rename(self, *groups: Iterable[Term]) -> list[tuple[Term, ...]]:
        """Copy groups of terms with every variable renamed to a new name.
        The groups share one mapping, so a whole clause (head plus body
        lists) keeps its variable links; two calls share no variables."""
        mapping: dict[Variable, Variable] = {}
        def copy(term: Term) -> Term:
            if isinstance(term, Variable):
                fresh = mapping.get(term)
                if fresh is None:
                    fresh = mapping[term] = Variable(f"_G{self._next}")
                    self._next += 1
                return fresh
            if isinstance(term, Compound):
                return Compound(term.functor, tuple([copy(a) for a in term.args]))
            return term

        return [tuple([copy(t) for t in group]) for group in groups]


def count_variables(terms: Iterable[Term]) -> int:
    """Distinct variables across several terms: the fresh names that
    ``FreshNames.rename`` takes for them."""
    return len({v for t in terms for v in variables(t)})
