"""Deterministic random sources for the simulator.

Two modes. Table mode cycles through a fixed list of 20 unit-interval
constants, so short runs are reproducible by hand. Seeded mode runs the
SplitMix64 recurrence, bit-exact across platforms, for bulk generation.
State is a frozen value; every draw returns the next state alongside
the value, so callers thread it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, TypeVar

from .terms import IncidentgenError

T = TypeVar("T")

TABLE: tuple[float, ...] = (
    0.174232,
    0.186011,
    0.951800,
    0.363587,
    0.108449,
    0.848878,
    0.309133,
    0.230964,
    0.639224,
    0.686739,
    0.781066,
    0.983691,
    0.704568,
    0.636376,
    0.881027,
    0.194111,
    0.449212,
    0.110336,
    0.572139,
    0.149503,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class EmptyListError(IncidentgenError, ValueError):
    """Asked to pick a random member of an empty list."""

    exit_status = 2


@dataclass(frozen=True)
class RngState:
    mode: str  # "table" or "seeded"
    table_index: int = 0
    state: int = 0

    @classmethod
    def table(cls, index: int = 0) -> "RngState":
        return cls(mode="table", table_index=index % len(TABLE))

    @classmethod
    def seeded(cls, seed: int) -> "RngState":
        return cls(mode="seeded", state=seed & _MASK64)


def next_unit(rng: RngState) -> tuple[float, RngState]:
    """Next value in [0, 1) and the advanced state."""
    if rng.mode == "table":
        value = TABLE[rng.table_index]
        return value, replace(rng, table_index=(rng.table_index + 1) % len(TABLE))
    state = (rng.state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return (z >> 11) / float(1 << 53), replace(rng, state=state)


def maybe(p: float, rng: RngState) -> tuple[bool, RngState]:
    """True with probability p; consumes one draw either way."""
    value, rng = next_unit(rng)
    return value < p, rng


def rnd_member(items: Sequence[T], rng: RngState) -> tuple[T, RngState]:
    """Uniform choice by one draw: items[floor(value * len(items))]."""
    if not items:
        raise EmptyListError("cannot choose from an empty list")
    value, rng = next_unit(rng)
    return items[int(value * len(items))], rng
