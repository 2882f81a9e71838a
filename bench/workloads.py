"""Seeded input programs for the guardlang benchmark.

Every program carries its known verdict, and the expected result of
`guardlang eval`, by construction: each generator fixes the answer first and
writes the source text to match it.  Nothing in this module runs the checker.
The corpus table below was written by hand from reading `programs/`.

`search` sends every size of its range once.  For `kway`, the range is cut
into as many equal strata as the pool has programs of one variant, and each
size is the middle of its stratum.  Every seed thus sends the same sizes.
The cost of these programs grows steeply with size, so a seeded draw of
sizes moves the medians between runs by more than the bounds allow.  The
seed decides the order and the variable names.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

# `value` of an accepted program whose merge branches erase to different
# terms: `guardlang eval` stops with a merge-mismatch error instead of a value.
MERGE_MISMATCH = "merge-mismatch"

WORKLOADS = ("search", "annotations")


@dataclass(frozen=True)
class Case:
    """One program with its known answer.

    `value` is the erased value of `main` in surface syntax, or
    MERGE_MISMATCH; it is None for programs that must be rejected.
    `contextual` marks programs that use contextual annotations.
    """

    name: str
    source: str
    verdict: str  # "accept" | "reject"
    value: Optional[str]
    contextual: bool = False


# ---------------------------------------------------------------------------
# Families

PARITY_HEADER = (
    "datasort odd <: bits\n"
    "datasort even <: bits\n"
    "prim snoc1 : (odd -> even) /\\ (even -> odd)\n"
    "prim b1 : odd\n"
)


def snoc_chain(n: int) -> Case:
    """`snoc1 (... (snoc1 b1))`, n deep, on the parity header.

    `b1` is odd and each `snoc1` flips the parity, so the chain is odd for
    even n.  No workload sends chains (see README.md); the traced run checks
    its counts on one.
    """
    goal = "odd" if n % 2 == 0 else "even"
    body = "b1"
    for _ in range(n):
        body = f"snoc1 ({body})"
    source = PARITY_HEADER + f"val main : {goal} =\n  {body}\n"
    return Case(f"snoc-chain({n})", source, "accept", "b1" + "1" * n)


IDX_HEADER = (
    "indexcon list :: int\n"
    "prim idcast : (unit -> unit) /\\ (Pi c : int . list(c) -> list(c))\n"
)


def idx_chain(n: int, var: str = "x") -> Case:
    """`fn x => idcast (... (idcast x))`, n deep, against
    `Pi a : int . list(a*2) -> list(a*2)`.

    Each `idcast` has the Pi conjunct `list(c) -> list(c)` with c = a*2, so
    the program is well typed for every n; the `unit -> unit` conjunct is
    tried first at each level and fails, which is what makes the search
    backtrack.
    """
    body = var
    for _ in range(n):
        body = f"idcast ({body})"
    source = (
        IDX_HEADER
        + "val main : Pi a : int . list(a*2) -> list(a*2) =\n"
        + f"  fn {var} => {body}\n"
    )
    return Case(f"idx-chain({n})", source, "accept", f"fn {var} => {body}")


KWAY_VARIANTS = ("guarded", "plain", "ctxanno", "swapped")


def kway(k: int, variant: str, var: str = "x") -> Case:
    """k datasorts c0..c(k-1), `step : /\\_i (c_i -> c_(i+1 mod k))`, and
    `main = fn x => ...` checked against the same intersection.

    - guarded: a k-way merge whose branch i is
      `where x : c_i do (step x : c_(i+1))`: accept.
    - plain: `step x`: accept.
    - ctxanno: `(step x :: [x : c0 |- c1 ; ...])`: accept.
    - swapped: branch i guards on c_(i+1) but annotates c_(i+1).  Under the
      conjunct c_j -> c_(j+1) only the branch guarded on c_j passes its guard,
      and it claims `step x : c_j` where `step x` has type c_(j+1): reject.

    Every accepted variant erases to `fn x => step x`.
    """
    header = "".join(f"datasort c{i}\n" for i in range(k))
    ty = " /\\ ".join(f"(c{i} -> c{(i + 1) % k})" for i in range(k))
    header += f"prim step : {ty}\n"
    x = var
    if variant == "guarded":
        body = " ,, ".join(
            f"(where {x} : c{i} do (step {x} : c{(i + 1) % k}))" for i in range(k)
        )
    elif variant == "swapped":
        body = " ,, ".join(
            f"(where {x} : c{(i + 1) % k} do (step {x} : c{(i + 1) % k}))"
            for i in range(k)
        )
    elif variant == "plain":
        body = f"step {x}"
    elif variant == "ctxanno":
        typings = " ; ".join(f"{x} : c{i} |- c{(i + 1) % k}" for i in range(k))
        body = f"((step {x}) :: [{typings}])"
    else:
        raise ValueError(f"unknown kway variant {variant!r}")
    source = header + f"val main : {ty} =\n  fn {x} => {body}\n"
    name = f"kway-{variant}({k})"
    if variant == "swapped":
        return Case(name, source, "reject", None)
    return Case(
        name, source, "accept", f"fn {x} => step {x}", variant == "ctxanno"
    )


# ---------------------------------------------------------------------------
# The golden corpus in programs/, with answers written by hand.
# file -> (verdict, value of `guardlang eval`, uses contextual annotations)

CORPUS = {
    "ctxanno_indexed.gl": ("accept", "fn x => idcast x", True),
    "idxfn_merge.gl": ("accept", MERGE_MISMATCH, False),
    "loopy.gl": ("accept", "()", False),
    "parity.gl": ("accept", "fn x => snoc1 x", False),
    "parity_apply.gl": ("accept", "b11", False),
    "parity_badguard.gl": ("reject", None, False),
    "parity_ctxanno.gl": ("accept", "fn x => snoc1 x", True),
    "parity_plain.gl": ("accept", "fn x => snoc1 x", False),
    "parity_twice.gl": ("accept", "b111", False),
    "parity_unguarded.gl": ("accept", "fn x => snoc1 x", False),
    "some_bad.gl": ("reject", None, False),
    "some_expr.gl": ("accept", "fn x => idcast x", False),
    "some_guard.gl": ("accept", "fn x => idcast x", False),
    "unit.gl": ("accept", "()", False),
}


def corpus_cases(programs_dir: str) -> list[Case]:
    """The corpus programs; raises FileNotFoundError when one is missing."""
    out = []
    for name, (verdict, value, contextual) in sorted(CORPUS.items()):
        with open(os.path.join(programs_dir, name), encoding="utf-8") as fh:
            out.append(Case(f"corpus:{name}", fh.read(), verdict, value, contextual))
    return out


# ---------------------------------------------------------------------------
# Pools: the distinct programs of one workload, in the order they are sent.

VAR_NAMES = ("x", "y", "z", "v", "w", "u")

# search: idx-chain(n) for each n in SEARCH_SIZES.  The range is odd-sized so
# that the median falls inside one size, not between two.
SEARCH_SIZES = tuple(range(4, 11))

# annotations: KWAY_PER_VARIANT programs of each kway variant, k in
# [8, 21), plus the corpus.
KWAY_RANGE = (8, 21)
KWAY_PER_VARIANT = 6


def _strata(lo: int, hi: int, count: int) -> list[int]:
    """The middle of each of `count` equal strata of [lo, hi)."""
    return [lo + int((i + 0.5) * (hi - lo) / count) for i in range(count)]


def pool(workload: str, seed: int, programs_dir: str) -> list[Case]:
    """The seeded, ordered list of distinct programs for one workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search":
        cases = [idx_chain(n, rng.choice(VAR_NAMES)) for n in SEARCH_SIZES]
    elif workload == "annotations":
        cases = [
            kway(k, variant, rng.choice(VAR_NAMES))
            for variant in KWAY_VARIANTS
            for k in _strata(*KWAY_RANGE, KWAY_PER_VARIANT)
        ]
        cases += corpus_cases(programs_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases
