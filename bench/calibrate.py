"""A fixed piece of pure-Python work that measures the host's speed.

A shared host's speed can drift by half over minutes: other tenants contend
for the cores and caches, and every timing moves with them.  So the timed
loop runs `kernel` after every program, for about SHARE of the program's own
time, and scales each of the program's times by REFERENCE_MS over the
kernel's median time around it, raised to ELASTICITY.  The times it reports
are those of a host that runs the kernel in REFERENCE_MS, and most of the
host's drift cancels out of them.

The kernel mixes integer arithmetic, small-object allocation, dictionary
updates, walks and comparisons of frozen-dataclass terms, and string work:
the kinds of work a tree-walking checker does.  It does not call guardlang,
so no change to guardlang moves it, and it runs with the garbage collector
off, so the size of guardlang's heap does not either.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

# The kernel's median time, in ms, on the host the baseline in README.md was
# measured on (2-core Intel Xeon VM at 2.1 GHz, Python 3.11.7), when quiet.
REFERENCE_MS = 5.0

# The kernel runs after each program until its runs add up to SHARE of the
# program's time, and at least once: the host's speed changes within a
# second, and one short run after a long program measures it poorly.
SHARE = 0.1

# Each time is scaled by the median of the kernel runs after its own program
# and after the WINDOW programs on either side.
WINDOW = 1

# When contention slows the kernel by a factor f, it slows guardlang by about
# f ** ELASTICITY: across runs on the baseline's host, the log of a run's
# unscaled median times rose by 0.6 to 1.1 (most often about 0.7) per unit
# of the log of its median kernel time.  With 1, the scaled times of the
# larger kway programs fell as the host got slower.
ELASTICITY = 0.8


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key, kids):
        self.key = key
        self.kids = kids


def _tree(n: int) -> _Node:
    if n < 2:
        return _Node(n, ())
    return _Node(n, (_tree(n - 1), _tree(n - 2)))


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _App:
    fn: object
    arg: object


def _walk(t):
    if isinstance(t, _App):
        yield from _walk(t.fn)
        yield from _walk(t.arg)
    yield t


def _work() -> int:
    acc = 0
    for i in range(13_000):
        acc += i * i % 7
    acc += _tree(14).key
    counts: dict[tuple[int, int], int] = {}
    for i in range(4_500):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    term: object = _Var("x")
    for i in range(90):
        term = _App(_Var("f"), term) if i % 50 else _Var("y")
    acc += isinstance(term, _App)
    small = _App(_App(_Var("a"), _Var("b")), _App(_Var("c"), _App(_Var("d"), _Var("e"))))
    for _ in range(9):
        acc += sum(1 for _ in _walk(small))
    for i in range(700):
        app = _App(_Var(str(i % 7)), _Var("z"))
        acc += hash(app) % 3 + (app == _App(_Var("1"), _Var("z")))
    words = [f"(c{i % 9} -> c{(i + 1) % 9}) /\\ {i}" for i in range(1_100)]
    return acc + len(" ".join(words).split(" ")) + len(counts)


def kernel() -> float:
    """Run the fixed work once and return its duration in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return (time.perf_counter() - t0) * 1000
    finally:
        if enabled:
            gc.enable()


def after(program_ms: float) -> list[float]:
    """The kernel's runs after a program that took `program_ms`."""
    runs = [kernel()]
    while sum(runs) < SHARE * program_ms:
        runs.append(kernel())
    return runs


def scale(kernel_ms: float) -> float:
    """The factor for times taken while the kernel ran in `kernel_ms`."""
    return (REFERENCE_MS / kernel_ms) ** ELASTICITY


def scales(runs: list[list[float]]) -> list[float]:
    """For each program, the factor for the median of the kernel runs after
    the programs within WINDOW of it."""
    return [
        scale(statistics.median(
            [ms for near in runs[max(0, i - WINDOW): i + WINDOW + 1] for ms in near]))
        for i in range(len(runs))
    ]
