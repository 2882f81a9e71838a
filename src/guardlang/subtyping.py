"""Subtyping: decide `ctx |- A <= B`, producing a replayable derivation.

The search tries invertible rules first (intersection-right, Pi-right), then
reflexivity / declared atom order, the arrow rule, indexed-constructor
equality, a left projection per conjunct (sect-l), and finally Pi-left.
Pi-left introduces a metavariable for the instantiation witness and lets the
indexed-constructor equality solve it; a derivation that completes with the
witness unsolved fails.

Subgoals are memoized on `(a, b, context entries)`, zonked, under the entry
rule of the typechecker's checking memo: a query that holds no metavariable
has its result kept when it is a failure or when deciding it did not touch
the store, so every entry holds in every store state.  The typechecker
passes one memo to all the subtype queries of its run, so a query asked
again under another conjunct, merge branch or metavariable state is
answered from the memo.  Failure messages are rendered only when read (see
`Fail`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional, Union

from . import indices
# `entails` and `solve_meta` are imported for the benchmark's tracer, which
# wraps them here.
from .indices import NoSolution, entails, solve_meta
from .parser import pretty
from .replay import SubDerivation
from .syntax import (
    Context,
    IdxDecl,
    MetaStore,
    Span,
    TAtom,
    TArrow,
    TCon,
    TPi,
    TSect,
    Type,
    alpha_eq,
    bind_fresh,
    instantiate,
    meta_free,
    spine,
    zonk,
)


class Fail:
    """A failed goal, with the failed subgoals that explain it.

    The search throws most failures away, so a message is rendered only when
    it is read.  With `args`, `reason` is a format string: the first time
    `.reason` is read, each `{}` takes the next arg, pretty-printed (strings
    and numbers are used as they are), and the text is kept.  The
    pretty-printers do not read the metavariable store, so the text does not
    depend on when it is read; a message that shows solved metavariables
    zonks its args when the failure is built.
    """

    __slots__ = ("_reason", "_args", "span", "parts")

    def __init__(
        self,
        reason: str,
        span: Optional[Span] = None,
        parts: tuple["Fail", ...] = (),
        *,
        args: tuple = (),
    ) -> None:
        self._reason = reason
        self._args = args
        self.span = span
        self.parts = parts

    @property
    def reason(self) -> str:
        if self._args:
            self._reason = self._reason.format(
                *(a if isinstance(a, (str, int)) else pretty(a) for a in self._args)
            )
            self._args = ()
        return self._reason

    def walk(self) -> list["Fail"]:
        out: list[Fail] = [self]
        for p in self.parts:
            out.extend(p.walk())
        return out

    def messages(self) -> list[str]:
        seen: set[str] = set()
        out: list[str] = []
        for node in self.walk():
            if node.reason not in seen:
                seen.add(node.reason)
                out.append(node.reason)
        return out

    def __str__(self) -> str:
        return self.reason

    def __repr__(self) -> str:
        return f"Fail({self.reason!r}, {self.span!r}, {self.parts!r})"


class DepthExceeded(Exception):
    """A search ran out of its budget.  The checker's carries the
    `Exhausted` failure it reports."""


class Exhausted(Fail):
    """A search that ran out of its budget of rule applications: it shows
    no type error, and rules none out."""

    __slots__ = ()


@dataclass
class Stats:
    rule_applications: int = 0
    backtracks: int = 0
    subtype_queries: int = 0
    entailment_queries: int = 0
    # Lookups in the typechecker's checking-mode memo.
    memo_hits: int = 0
    memo_misses: int = 0
    # Lookups in the typechecker's memo of application candidates.
    synth_memo_hits: int = 0
    synth_memo_misses: int = 0
    # Lookups in the subtyping memo, one per `_Search.sub` call.
    sub_memo_hits: int = 0
    sub_memo_misses: int = 0
    # Alternatives skipped untried (`Checker._refute`): not backtracks.
    refuted: int = 0
    wall_ms: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self) | {"wall_ms": round(self.wall_ms, 3)}


def not_subsort(a: TAtom, b: TAtom) -> Fail:
    """The failure of the atom rule on `a <= b`."""
    return Fail(f"datasort {a.name} is not a subsort of {b.name}")


class _Search:
    def __init__(
        self,
        store: MetaStore,
        stats: Stats,
        budget: int,
        memo: dict,
    ) -> None:
        self.store = store
        self.stats = stats
        self.budget = budget
        self.memo = memo

    def tick(self) -> None:
        self.stats.rule_applications += 1
        self.budget -= 1
        if self.budget < 0:
            raise DepthExceeded()

    def sub(self, ctx: Context, a: Type, b: Type) -> Union[SubDerivation, Fail]:
        # A store that has created no metavariable has nothing to zonk.
        if self.store.any_created():
            a = zonk(self.store, a)
            b = zonk(self.store, b)
        key = (a, b, ctx.entries)
        hit = self.memo.get(key)
        if hit is not None:
            self.stats.sub_memo_hits += 1
            return hit
        self.stats.sub_memo_misses += 1
        stamp0 = self.store.stamp
        res = self._sub_dispatch(ctx, a, b)
        # The checking memo's entry rule (see `Checker._check`).
        if (isinstance(res, Fail) or self.store.stamp == stamp0) and (
            not self.store.any_created() or meta_free(key)
        ):
            self.memo[key] = res
        return res

    def _sub_dispatch(
        self, ctx: Context, a: Type, b: Type
    ) -> Union[SubDerivation, Fail]:
        fails: list[Fail] = []
        attempts = []
        # Right rules first: they are invertible in the declarative system,
        # though the search still falls back (the Pi-left witness strategy
        # can fail where plain reflexivity succeeds).
        if isinstance(b, TSect):
            attempts.append(self._sect_r)
        if isinstance(b, TPi):
            attempts.append(self._pi_r)
        if alpha_eq(a, b):
            attempts.append(self._refl)
        if isinstance(a, TAtom) and isinstance(b, TAtom):
            attempts.append(self._atom)
        if isinstance(a, TArrow) and isinstance(b, TArrow):
            attempts.append(self._arrow)
        if isinstance(a, TCon) and isinstance(b, TCon):
            attempts.append(self._con)
        if isinstance(a, TSect):
            attempts += (partial(self._sect_l, k, x) for k, x in enumerate(spine(a), 1))
        if isinstance(a, TPi):
            attempts.append(self._pi_l)

        for i, rule in enumerate(attempts):
            self.tick()
            mark = self.store.mark()
            res = rule(ctx, a, b)
            if not isinstance(res, Fail):
                return res
            self.store.undo(mark)
            fails.append(res)
            if i + 1 < len(attempts):
                self.stats.backtracks += 1
        if len(fails) == 1:
            return fails[0]
        return Fail(
            "{} is not a subtype of {}", None, tuple(fails), args=(a, b)
        )

    # -- individual rules ---------------------------------------------------

    def _refl(self, ctx, a, b):
        return SubDerivation("refl", ctx.entries, a, b)

    def _atom(self, ctx, a: TAtom, b: TAtom):
        if ctx.sig.atom_le(a.name, b.name):
            return SubDerivation("atom", ctx.entries, a, b)
        return not_subsort(a, b)

    def _arrow(self, ctx, a: TArrow, b: TArrow):
        p1 = self.sub(ctx, b.arg, a.arg)
        if isinstance(p1, Fail):
            return Fail("argument types (contravariant)", None, (p1,))
        p2 = self.sub(ctx, a.res, b.res)
        if isinstance(p2, Fail):
            return Fail("result types", None, (p2,))
        return SubDerivation("arrow", ctx.entries, a, b, (p1, p2))

    def _sect_r(self, ctx, a, b: TSect):
        p1 = self.sub(ctx, a, b.lhs)
        if isinstance(p1, Fail):
            return Fail("right intersection, left conjunct", None, (p1,))
        p2 = self.sub(ctx, a, b.rhs)
        if isinstance(p2, Fail):
            return Fail("right intersection, right conjunct", None, (p2,))
        return SubDerivation("sect-r", ctx.entries, a, b, (p1, p2))

    def _sect_l(self, k, conjunct, ctx, a: TSect, b):
        p = self.sub(ctx, conjunct, b)
        if isinstance(p, Fail):
            return Fail(f"left projection {k}", None, (p,))
        return SubDerivation("sect-l", ctx.entries, a, b, (p,), branch=k)

    def _con(self, ctx, a: TCon, b: TCon):
        if a.con != b.con:
            return Fail(f"distinct constructors {a.con} and {b.con}")
        try:
            if indices.match_indices(self.store, self.stats, a.index, b.index):
                return SubDerivation("ilr", ctx.entries, a, b)
        except NoSolution as ex:
            return Fail(str(ex))
        return Fail(
            "index equality {} = {} is not entailed",
            args=(zonk(self.store, a.index), zonk(self.store, b.index)),
        )

    def _pi_r(self, ctx, a, b: TPi):
        pi = bind_fresh(b, ctx.index_vars())
        ctx2 = ctx.extend(IdxDecl(pi.var, b.sort))
        p = self.sub(ctx2, a, pi.body)
        if isinstance(p, Fail):
            return Fail("right Pi body", None, (p,))
        return SubDerivation("pi-r", ctx.entries, a, b, (p,))

    def _pi_l(self, ctx, a: TPi, b):
        m, inst = instantiate(
            self.store, ctx.index_vars(), a.var, a.sort, a.body, a.span
        )
        p = self.sub(ctx, inst, b)
        if isinstance(p, Fail):
            return Fail("left Pi instantiation", None, (p,))
        if self.store.solution(m.uid) is None:
            return Fail(
                f"no instantiation determined for Pi-bound '{a.var}'"
            )
        return SubDerivation("pi-l", ctx.entries, a, b, (p,), witness=m)


def subtype(
    ctx: Context,
    a: Type,
    b: Type,
    *,
    store: Optional[MetaStore] = None,
    stats: Optional[Stats] = None,
    max_depth: int = 512,
    memo: Optional[dict] = None,
) -> Union[SubDerivation, Fail]:
    """Decide ctx |- a <= b.

    On success the returned derivation is fully zonked and any metavariable
    solutions remain recorded in the store; on failure the store is restored
    to its entry state.  Calls that pass the same `memo` dict share their
    decided subgoals (a checker passes one for its whole run); without one,
    the call starts from an empty memo.  Whether a query holds a
    metavariable is read from the bits its syntax carries (see
    `syntax.meta_free`), and the final zonk stops at ground syntax and derivations.
    """
    if store is None:
        store = ctx.metas if ctx.metas is not None else MetaStore()
    if stats is None:
        stats = Stats()
    stats.subtype_queries += 1
    search = _Search(store, stats, max_depth, {} if memo is None else memo)
    mark = store.mark()
    try:
        res = search.sub(ctx, a, b)
    except DepthExceeded:
        res = Exhausted(f"subtyping search exceeded {max_depth} rule applications")
    if isinstance(res, Fail):
        store.undo(mark)
        return res
    return zonk(store, res)
