"""The machine's speed, sampled while the program runs, and times scaled by it.

On a shared machine, identical single-threaded Python work runs up to 1.5
times slower for stretches of seconds to minutes, CPU time as much as
wall time, as other tenants load the hardware the vCPUs run on. A raw
time then measures the neighbours as much as the program.

The benchmark therefore also times a fixed reference kernel, close in
time to the work it measures, and scales each time by
``REFERENCE_KERNEL_S / median kernel time``: what the work would have
taken at the speed at which the kernel takes ``REFERENCE_KERNEL_S``.
The kernel is a small term matcher written here, in the program's style
(tuple terms, dict bindings, sorting, frozenset updates), so contention
slows it about as much as it slows the program; it imports nothing of
the program, so a change to the program cannot change the kernel.

- ``Sampler`` runs the kernel from a timer signal every ``INTERVAL_S``
  during a timed run, and each operation is scaled by the speed during
  it and just around it. Time spent in the handler is subtracted from
  the operation it interrupted.
- ``bracket`` times the kernel right before and after a stretch of work,
  where a timer's handler would land inside the spans being measured:
  the traced passes use it.

Set-up is scaled differently, by a reference import (see run.py): a
fresh interpreter's import is slowed by other things than this kernel.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

# the kernel time that scaled times refer to: a round value within the
# range of its median in timed runs (0.55 to 0.9 ms) on the 2-vCPU Intel
# Xeon VM that bench/README.md describes
REFERENCE_KERNEL_S = 0.0008
INTERVAL_S = 0.01
BRACKET_RUNS = 9
# samples on each side of a stretch that also scale it: a 10-ms operation
# is scaled by about five samples, 50 ms of the machine's speed
NEIGHBOURS = 2

# facts at(p(i), city(j)) as int tuples, and -1 as the one variable: int
# hashes do not depend on PYTHONHASHSEED, so the kernel does the same work
# in every interpreter
_AT, _P, _CITY, _VAR = 1, 2, 3, -1
_FACTS = tuple((_AT, (_P, i % 7), (_CITY, i % 11)) for i in range(40))


def _unify(a, b, env):
    if a == _VAR:
        if a in env:
            return _unify(env[a], b, env)
        env = dict(env)
        env[a] = b
        return env
    if isinstance(a, tuple) and isinstance(b, tuple):
        if len(a) != len(b):
            return None
        for x, y in zip(a, b):
            env = _unify(x, y, env)
            if env is None:
                return None
        return env
    return env if a == b else None


def kernel() -> int:
    """The fixed reference work: match a pattern against a changing situation."""
    found = 0
    sitn = frozenset(_FACTS)
    for i in range(6):
        pattern = (_AT, (_P, i % 7), _VAR)
        found += sum(_unify(pattern, fact, {}) is not None for fact in sorted(sitn))
        sitn = (sitn - {_FACTS[i]}) | {(_AT, (_P, i), (_CITY, 99))}
    return found


def kernel_s() -> float:
    """One kernel run's time, with the collector held off, in s."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    kernel()
    took = perf_counter() - start
    if enabled:
        gc.enable()
    return took


def warm_up() -> None:
    """Run the kernel until the interpreter has specialised it."""
    for _ in range(3 * BRACKET_RUNS):
        kernel_s()


def scale(kernel_times) -> float:
    """The factor that turns a time at the sampled speed into reference time."""
    return REFERENCE_KERNEL_S / statistics.median(kernel_times)


def bracket(work):
    """Run ``work()``; return its result, its time, and its time scaled."""
    before = [kernel_s() for _ in range(BRACKET_RUNS)]
    start = perf_counter()
    result = work()
    took = perf_counter() - start
    after = [kernel_s() for _ in range(BRACKET_RUNS)]
    return result, took, took * scale(before + after)


class Sampler:
    """Kernel times sampled by a timer signal, and the time they took.

    ``mark()`` notes where a stretch of work begins or ends;
    ``spent_since`` and ``scale_around`` give the handler time to subtract
    from it and the factor to scale it by.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._saved = None

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        took = kernel_s()
        self.samples.append(took)
        self.spent += perf_counter() - start

    def __enter__(self) -> "Sampler":
        warm_up()
        self._saved = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def spent_since(self, mark) -> float:
        return self.spent - mark[1]

    def scale_around(self, begin, end) -> float:
        """The factor for a stretch between two marks, from the samples
        taken during it and the ``NEIGHBOURS`` before and after it."""
        got = self.samples[max(0, begin[0] - NEIGHBOURS):end[0] + NEIGHBOURS]
        return scale(got or [kernel_s()])
