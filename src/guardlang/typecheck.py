"""Bidirectional typechecking: `ctx |- e <= A` and `ctx |- e => A`.

The checker is a backtracking search over the rules, with a fixed order:
in checking mode the invertible rules come first (intersection introduction,
Pi introduction, arrow introduction, unit, `some`, guards), then merge
branches, and finally subsumption (synthesize, then subtype).  Elimination
positions instantiate synthesized Pi types with metavariables; the indexed
subtyping equalities solve them.

A `some` binder substitutes a fresh metavariable for its variable and
requires it solved by the end of that subterm's derivation.  Checking-mode
results are memoized per occurrence, which is where repeated checking under
intersection introduction would otherwise blow up.  A result is reused while
the metavariable store is unchanged since it was computed; a failure of a
query whose term, type and context hold no metavariables is reused always,
even when the call solved and undid metavariables of its own.

A third memo holds the synthesis candidates of applications.  Eliminating
an intersection checks the argument once per conjunct, and a check against
an instantiated Pi holds a fresh metavariable, which the checking memo never
answers; without this memo an elimination chain is derived again at every
enclosing level.  The stream of an application is stored, with the failures it appended in
between, when the enumeration ran to the end, moved the store's stamp,
and its term, its context and every candidate (zonked when it was yielded)
hold no metavariable; a hit yields the stored candidates and appends the
stored failures.  A miss yields the candidates it stores, zonked, as a hit
does.  What is known to hold no metavariable is kept in one table for the
run, so neither the test nor the zonk of a candidate walks a part already
known to be ground twice.

The memos, the ground table and the store belong to the `Checker`, not to
one program: `_check_program` runs one program on a given checker, and
`ctxanno.verify_encoding` checks a program and then its encoding on the
same one, so the second check re-derives only what the translation built.

Derivations share their terms and types with the program and with each
other: a node holds the very term object it was checked on, its premises
hold the subterms, and memoized results are shared by every parent that
uses them.  Zonking preserves identity (it rebuilds only the path down to a
solved metavariable), and the finalize pass visits each distinct object once
while it collects the unsolved metavariables, so finalize is linear in the
size of the shared structure.  A run that has created no metavariable skips
finalize: its derivation has nothing to zonk and nothing left unsolved.

The derivation types and their replay (`verify_typing`) live in `replay`,
which shares no code with this search.

The search rejects most of the alternatives it tries, so it does no work
that only a reader of the verdict would need.  A failure keeps the syntax
objects its message names and renders the message from them only when it
is read (see `Fail`); the types a message shows with solved metavariables
are zonked when the failure is built.  The subtyping memo lives for the run:
every subtype query of a `Checker` shares it, so a query asked again under
another conjunct or merge branch is decided once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .indices import UnboundIndexVariable, sort_of
from .parser import pretty_term  # for the benchmark's tracer, which wraps it here
from .replay import TypingDerivation, verify_typing  # the replay, for its callers
from .subtyping import DepthExceeded, Fail, Stats, subtype
from .syntax import (
    INDEX,
    TERM,
    Anno,
    App,
    Context,
    CtxAnno,
    Decl,
    Guard,
    IVar,
    IdxDecl,
    IdxLam,
    Lam,
    Merge,
    MetaStore,
    Prim,
    Program,
    Signature,
    Some,
    Span,
    TArrow,
    TAtom,
    TCon,
    TPi,
    TSect,
    TUnit,
    Term,
    Type,
    Unit,
    Var,
    VarDecl,
    Zonker,
    bind_fresh,
    free_vars,
    meta_free,
    subst,
    zonk_type,
)

CandidateStream = Iterator[tuple[Type, "TypingDerivation"]]


class IllFormedType(Exception):
    pass


def check_type_wf(ctx: Context, ty: Type) -> None:
    """Every atom and constructor declared, every index variable in scope."""
    match ty:
        case TUnit():
            return
        case TAtom(name):
            if name not in ctx.sig.atoms:
                raise IllFormedType(f"undeclared datasort '{name}'")
        case TArrow(a, b) | TSect(a, b):
            check_type_wf(ctx, a)
            check_type_wf(ctx, b)
        case TCon(con, idx):
            if con not in ctx.sig.cons:
                raise IllFormedType(f"undeclared indexed constructor '{con}'")
            try:
                got = sort_of(ctx, idx)
            except UnboundIndexVariable as ex:
                raise IllFormedType(str(ex)) from None
            if got != ctx.sig.cons[con]:
                raise IllFormedType(
                    f"index of '{con}' has sort {got}, expected {ctx.sig.cons[con]}"
                )
        case TPi():
            pi = bind_fresh(ty, ctx.index_vars())
            check_type_wf(ctx.extend(IdxDecl(pi.var, pi.sort)), pi.body)
        case _:
            raise IllFormedType(f"unexpected type {ty!r}")


class Checker:
    """One typechecking run: rule search, metavariable store, statistics."""

    def __init__(
        self,
        sig: Signature,
        *,
        max_depth: int = 512,
        ctx_anno: bool = True,
        memoize: bool = True,
    ) -> None:
        self.sig = sig
        self.max_depth = max_depth
        self.ctx_anno_enabled = ctx_anno
        self.memoize = memoize
        self.metas = MetaStore()
        self.stats = Stats()
        self._memo: dict[tuple, tuple] = {}
        # Candidates of metavariable-free applications, see `_synth`.
        self._synth_memo: dict[tuple, tuple] = {}
        # One subtyping memo for the run; None gives each query its own.
        self._sub_memo: Optional[dict] = {} if memoize else None
        # id -> object, for objects known to hold no metavariable (see
        # `syntax.meta_free`).  It keeps them alive for the run.
        self._ground: Optional[dict[int, object]] = {} if memoize else None
        self._budget = max_depth

    def fresh_ctx(self) -> Context:
        return Context(self.sig, (), self.metas)

    # -- public entry points -------------------------------------------------

    def check(self, ctx: Context, e: Term, ty: Type) -> Union[TypingDerivation, Fail]:
        """Top-level checking judgment; result derivations are ground."""
        self._budget = self.max_depth
        try:
            res = self._check(ctx, e, ty)
        except DepthExceeded:
            return Fail(
                f"typing search exceeded {self.max_depth} rule applications"
            )
        if isinstance(res, Fail):
            return res
        zonked, leftover = self._unsolved_in(res)
        if leftover:
            return Fail(
                "derivation left index metavariables unresolved: "
                + ", ".join(f"?{u}" for u in sorted(leftover)),
                e.span,
            )
        return zonked

    def synth(
        self, ctx: Context, e: Term
    ) -> Union[list[tuple[Type, TypingDerivation]], Fail]:
        """All ground synthesis candidates, intersection projections included."""
        self._budget = self.max_depth
        fails: list[Fail] = []
        out: list[tuple[Type, TypingDerivation]] = []
        try:
            for ty, d in self._synth(ctx, e, fails):
                zd, leftover = self._unsolved_in(d)
                if not leftover:
                    out.extend(self._projections(ctx, zd.ty, zd))
        except DepthExceeded:
            fails.append(
                Fail(f"typing search exceeded {self.max_depth} rule applications")
            )
        if out:
            return out
        return Fail("no type synthesized for {}", e.span, tuple(fails), args=(e,))

    def _projections(self, ctx, ty, d):
        yield ty, d
        if isinstance(ty, TSect):
            for rule, side in (("sect-e1", ty.lhs), ("sect-e2", ty.rhs)):
                node = TypingDerivation(
                    rule, "synth", ctx.entries, d.term, side, (d,)
                )
                yield from self._projections(ctx, side, node)

    def _unsolved_in(
        self, d: TypingDerivation
    ) -> tuple[TypingDerivation, set[int]]:
        """Finalize d: zonk it in one pass over its distinct objects, and
        collect the uids of the metavariables it leaves unsolved.  A run that
        has created no metavariable has nothing to zonk: d comes back as it
        is."""
        if not self.metas.any_created():
            return d, set()
        zonk = Zonker(self.metas, self._ground)
        return zonk.visit(d), zonk.unsolved

    def _grounded(
        self, ty: Type, d: TypingDerivation
    ) -> Optional[tuple[Type, TypingDerivation]]:
        """The candidate (ty, d) zonked, and recorded as known ground; None
        when it keeps an unsolved metavariable."""
        if not self.metas.any_created():
            return ty, d
        zonk = Zonker(self.metas, self._ground)
        zty, zd = zonk.visit(ty), zonk.visit(d)
        if zonk.unsolved:
            return None
        self._ground[id(zty)] = zty
        self._ground[id(zd)] = zd
        return zty, zd

    # -- search plumbing ------------------------------------------------------

    def _tick(self) -> None:
        self.stats.rule_applications += 1
        self._budget -= 1
        if self._budget < 0:
            raise DepthExceeded()

    def _wf(self, ctx: Context, ty: Type) -> Optional[Fail]:
        try:
            check_type_wf(ctx, ty)
        except IllFormedType as ex:
            return Fail(f"ill-formed annotation: {ex}", ty.span)
        return None

    def _subtype(self, ctx: Context, a: Type, b: Type):
        return subtype(
            ctx, a, b, store=self.metas, stats=self.stats,
            max_depth=self.max_depth, memo=self._sub_memo, ground=self._ground,
        )

    # -- checking -------------------------------------------------------------

    def _check(self, ctx: Context, e: Term, ty: Type) -> Union[TypingDerivation, Fail]:
        if not self.memoize:
            return self._check_dispatch(ctx, e, ty)
        # Spans are left out of term equality, so the key carries the
        # occurrence's span as well.  An entry is (stamp, result), valid
        # while the store is at that stamp, or at any stamp when it is None.
        key = (e, e.span, ty, ctx.entries)
        stamp0 = self.metas.stamp
        hit = self._memo.get(key)
        if hit is not None and (hit[0] is None or hit[0] == stamp0):
            self.stats.memo_hits += 1
            return hit[1]
        self.stats.memo_misses += 1
        res = self._check_dispatch(ctx, e, ty)
        if self.metas.stamp == stamp0:
            self._memo[key] = (stamp0, res)
        elif (
            isinstance(res, Fail)
            and meta_free(e, self._ground)
            and meta_free(ty, self._ground)
            and meta_free(ctx.entries, self._ground)
        ):
            # Every alternative was undone, and a query without
            # metavariables cannot read the store: the failure holds at
            # every stamp.
            self._memo[key] = (None, res)
        return res

    def _check_dispatch(self, ctx, e, ty) -> Union[TypingDerivation, Fail]:
        alts = []
        if isinstance(ty, TSect):
            alts.append(self._chk_sect_i)
        if isinstance(ty, TPi):
            alts.append(
                self._chk_pi_explicit if isinstance(e, IdxLam) else self._chk_pi_i
            )
        if isinstance(e, Lam) and isinstance(ty, TArrow):
            alts.append(self._chk_arrow_i)
        if isinstance(e, Unit) and isinstance(ty, TUnit):
            alts.append(self._chk_unit_i)
        if isinstance(e, Some):
            alts.append(self._chk_some)
        if isinstance(e, Guard):
            alts.append(self._chk_guard)
        if isinstance(e, Merge):
            alts.append(self._chk_merge)
        alts.append(self._chk_sub)

        fails: list[Fail] = []
        for i, rule in enumerate(alts):
            self._tick()
            mark = self.metas.mark()
            res = rule(ctx, e, ty)
            if not isinstance(res, Fail):
                return res
            self.metas.undo(mark)
            fails.append(res)
            if i + 1 < len(alts):
                self.stats.backtracks += 1
        if len(fails) == 1:
            return fails[0]
        return Fail(
            "{} does not check against {}", e.span, tuple(fails), args=(e, ty)
        )

    def _chk_sect_i(self, ctx, e, ty: TSect):
        d1 = self._check(ctx, e, ty.lhs)
        if isinstance(d1, Fail):
            return Fail("conjunct {} fails", e.span, (d1,), args=(ty.lhs,))
        d2 = self._check(ctx, e, ty.rhs)
        if isinstance(d2, Fail):
            return Fail("conjunct {} fails", e.span, (d2,), args=(ty.rhs,))
        return TypingDerivation("sect-i", "check", ctx.entries, e, ty, (d1, d2))

    def _chk_pi_i(self, ctx, e, ty: TPi):
        pi = bind_fresh(ty, ctx.index_vars())
        ctx2 = ctx.extend(IdxDecl(pi.var, ty.sort))
        d = self._check(ctx2, e, pi.body)
        if isinstance(d, Fail):
            return Fail(f"under Pi-bound {pi.var}", e.span, (d,))
        return TypingDerivation("pi-i", "check", ctx.entries, e, ty, (d,))

    def _chk_pi_explicit(self, ctx, e: IdxLam, ty: TPi):
        if e.sort != ty.sort:
            return Fail(
                f"idxfn binds sort {e.sort} but the type quantifies {ty.sort}",
                e.span,
            )
        # Renamed only on a clash with the context, but then away from the
        # type's variables too.
        lam = e
        if e.var in ctx.index_vars():
            lam = bind_fresh(e, ctx.index_vars() | free_vars(ty.body, INDEX))
        ctx2 = ctx.extend(IdxDecl(lam.var, ty.sort))
        d = self._check(ctx2, lam.body, subst(IVar(lam.var), ty.var, ty.body))
        if isinstance(d, Fail):
            return Fail(f"under idxfn-bound {lam.var}", e.span, (d,))
        return TypingDerivation("pi-i-explicit", "check", ctx.entries, e, ty, (d,))

    def _chk_arrow_i(self, ctx, e: Lam, ty: TArrow):
        lam = bind_fresh(e, ctx.term_vars())
        ctx2 = ctx.extend(VarDecl(lam.var, ty.arg))
        d = self._check(ctx2, lam.body, ty.res)
        if isinstance(d, Fail):
            return Fail(f"function body fails", e.span, (d,))
        return TypingDerivation("arrow-i", "check", ctx.entries, e, ty, (d,))

    def _chk_unit_i(self, ctx, e, ty):
        return TypingDerivation("unit-i", "check", ctx.entries, e, ty)

    def _chk_some(self, ctx, e: Some, ty):
        m = self.metas.fresh(e.sort, scope=ctx.index_vars())
        body = subst(m, e.var, e.body)
        d = self._check(ctx, body, ty)
        if isinstance(d, Fail):
            return Fail(f"under `some {e.var}`", e.span, (d,))
        if self.metas.solution(m.uid) is None:
            return Fail(
                f"no index expression determined for `some {e.var}`", e.span
            )
        return TypingDerivation(
            "some", "check", ctx.entries, e, ty, (d,), witness=m
        )

    def _chk_guard(self, ctx, e: Guard, ty):
        ev = self.check_guard(ctx, e.decl)
        if isinstance(ev, Fail):
            return Fail(
                "guard not satisfied: {}",
                e.span or e.decl.span,
                (ev,),
                args=(e.decl,),
            )
        d = self._check(ctx, e.body, ty)
        if isinstance(d, Fail):
            return Fail(f"guarded body fails", e.span, (d,))
        return TypingDerivation("guard-chk", "check", ctx.entries, e, ty, (ev, d))

    def _chk_merge(self, ctx, e: Merge, ty):
        fails = []
        for k, branch in ((1, e.lhs), (2, e.rhs)):
            mark = self.metas.mark()
            d = self._check(ctx, branch, ty)
            if not isinstance(d, Fail):
                return TypingDerivation(
                    "merge-chk", "check", ctx.entries, e, ty, (d,), branch=k
                )
            self.metas.undo(mark)
            self.stats.backtracks += 1
            fails.append(Fail(f"merge branch {k} fails", branch.span, (d,)))
        return Fail(
            "no merge branch checks against {}", e.span, tuple(fails), args=(ty,)
        )

    def _chk_sub(self, ctx, e, ty):
        fails: list[Fail] = []
        for sty, sd in self._synth(ctx, e, fails):
            mark = self.metas.mark()
            sub = self._subtype(ctx, sty, ty)
            if not isinstance(sub, Fail):
                return TypingDerivation(
                    "sub", "check", ctx.entries, e, ty, (sd, sub)
                )
            fails.append(
                Fail(
                    "synthesized {} is not a subtype of {}",
                    e.span,
                    (sub,),
                    args=(zonk_type(self.metas, sty), ty),
                )
            )
            self.metas.undo(mark)
            self.stats.backtracks += 1
        return Fail(
            "cannot check {} against {}", e.span, tuple(fails), args=(e, ty)
        )

    # -- guards ----------------------------------------------------------------

    def check_guard(self, ctx: Context, d: Decl) -> Union[TypingDerivation, Fail]:
        if isinstance(d, VarDecl):
            bad = self._wf(ctx, d.ty)
            if bad is not None:
                return bad
            got = ctx.lookup_var(d.name)
            if got is None:
                return Fail(f"guard subject '{d.name}' is not in scope", d.span)
            sd = self._subtype(ctx, got, d.ty)
            if isinstance(sd, Fail):
                return Fail(
                    "'{}' has type {}, which does not entail {}",
                    d.span,
                    (sd,),
                    args=(d.name, got, d.ty),
                )
            var_node = TypingDerivation(
                "var", "synth", ctx.entries, Var(d.name), got
            )
            return TypingDerivation(
                "sub", "check", ctx.entries, Var(d.name), d.ty, (var_node, sd)
            )
        got = ctx.lookup_index(d.name)
        if got != d.sort:
            return Fail(
                f"index variable '{d.name}' is not declared with sort {d.sort}",
                d.span,
            )
        return TypingDerivation("ivar", "check", ctx.entries, Var(d.name), None)

    # -- synthesis ---------------------------------------------------------------

    def _synth(self, ctx: Context, e: Term, fails: list[Fail]) -> CandidateStream:
        self._tick()
        match e:
            case Var(name):
                ty = ctx.lookup_var(name)
                if ty is None:
                    fails.append(Fail(f"unbound variable '{name}'", e.span))
                    return
                yield ty, TypingDerivation("var", "synth", ctx.entries, e, ty)
            case Prim(name):
                ty = self.sig.prims.get(name)
                if ty is None:
                    fails.append(Fail(f"undeclared primitive '{name}'", e.span))
                    return
                yield ty, TypingDerivation("prim", "synth", ctx.entries, e, ty)
            case Anno(body, ty):
                bad = self._wf(ctx, ty)
                if bad is not None:
                    fails.append(bad)
                    return
                mark = self.metas.mark()
                d = self._check(ctx, body, ty)
                if isinstance(d, Fail):
                    fails.append(
                        Fail(
                            "annotated term does not check against {}",
                            e.span,
                            (d,),
                            args=(ty,),
                        )
                    )
                    self.metas.undo(mark)
                    return
                yield ty, TypingDerivation(
                    "right-anno", "synth", ctx.entries, e, ty, (d,)
                )
                self.metas.undo(mark)
            case Guard(decl, body):
                mark = self.metas.mark()
                ev = self.check_guard(ctx, decl)
                if isinstance(ev, Fail):
                    fails.append(
                        Fail(
                            "guard not satisfied: {}",
                            e.span or decl.span,
                            (ev,),
                            args=(decl,),
                        )
                    )
                    self.metas.undo(mark)
                    return
                for ty, d in self._synth(ctx, body, fails):
                    yield ty, TypingDerivation(
                        "guard-syn", "synth", ctx.entries, e, ty, (ev, d)
                    )
                self.metas.undo(mark)
            case Merge(lhs, rhs):
                for k, branch in ((1, lhs), (2, rhs)):
                    mark = self.metas.mark()
                    for ty, d in self._synth(ctx, branch, fails):
                        yield ty, TypingDerivation(
                            "merge-syn", "synth", ctx.entries, e, ty, (d,), branch=k
                        )
                    self.metas.undo(mark)
                    self.stats.backtracks += 1
            case Some(var, sort, body):
                m = self.metas.fresh(sort, scope=ctx.index_vars())
                inner = subst(m, var, body)
                mark = self.metas.mark()
                produced_unsolved = False
                for ty, d in self._synth(ctx, inner, fails):
                    if self.metas.solution(m.uid) is None:
                        produced_unsolved = True
                        continue
                    yield ty, TypingDerivation(
                        "some", "synth", ctx.entries, e, ty, (d,), witness=m
                    )
                self.metas.undo(mark)
                if produced_unsolved:
                    fails.append(
                        Fail(
                            f"no index expression determined for `some {var}`",
                            e.span,
                        )
                    )
            case App(fn, arg):
                # The candidate memo.  It is written inline, not as a wrapper
                # generator, so that an application level costs no extra
                # frame.  An entry holds the events of one enumeration: the
                # zonked candidates and the failures it appended, in order;
                # the consumer's own appends between yields are left out.
                memo = self._synth_memo if self.memoize else None
                key = (e, e.span, ctx.entries)
                if memo:
                    hit = memo.get(key)
                    if hit is not None:
                        self.stats.synth_memo_hits += 1
                        for event in hit:
                            if type(event) is Fail:
                                fails.append(event)
                            else:
                                yield event
                        return
                if memo is not None:
                    self.stats.synth_memo_misses += 1
                events = [] if memo is not None else None
                stamp0 = self.metas.stamp
                start = len(fails)
                for fty, fd in self._synth(ctx, fn, fails):
                    for aty, rty, fd2 in self._elim_arrow(ctx, fty, fd, fails):
                        mark = self.metas.mark()
                        ad = self._check(ctx, arg, aty)
                        if isinstance(ad, Fail):
                            fails.append(
                                Fail(
                                    "argument does not check against {}",
                                    arg.span,
                                    (ad,),
                                    args=(zonk_type(self.metas, aty),),
                                )
                            )
                            self.metas.undo(mark)
                            continue
                        d = TypingDerivation(
                            "arrow-e", "synth", ctx.entries, e, rty, (fd2, ad)
                        )
                        if events is not None:
                            events.extend(fails[start:])
                            cand = self._grounded(rty, d)
                            if cand is None:
                                events = None
                            else:
                                # Yield what a hit yields: the enclosing
                                # level's zonk then stops at this candidate.
                                events.append(cand)
                                rty, d = cand
                        yield rty, d
                        start = len(fails)
                        self.metas.undo(mark)
                # Stored only when the stream is complete, its call moved
                # the stamp (else the checking memo covers the parent query)
                # and it cannot depend on the store.
                if (
                    events is not None
                    and self.metas.stamp != stamp0
                    and meta_free(e, self._ground)
                    and meta_free(ctx.entries, self._ground)
                ):
                    events.extend(fails[start:])
                    memo[key] = tuple(events)
            case CtxAnno(_, _):
                if not self.ctx_anno_enabled:
                    fails.append(
                        Fail("contextual annotations are disabled", e.span)
                    )
                    return
                from . import ctxanno

                yield from ctxanno.check_ctx_anno(self, ctx, e, fails)
            case _:
                fails.append(
                    Fail(
                        "{} does not synthesize a type (it can only be checked)",
                        e.span,
                        args=(e,),
                    )
                )

    def _elim_arrow(self, ctx, ty: Type, d: TypingDerivation, fails):
        """Arrow views of a synthesized type, via intersection projections
        and Pi instantiation."""
        ty = zonk_type(self.metas, ty)
        if isinstance(ty, TArrow):
            yield ty.arg, ty.res, d
            return
        if isinstance(ty, TSect):
            for rule, side in (("sect-e1", ty.lhs), ("sect-e2", ty.rhs)):
                node = TypingDerivation(
                    rule, "synth", ctx.entries, d.term, side, (d,)
                )
                yield from self._elim_arrow(ctx, side, node, fails)
            return
        if isinstance(ty, TPi):
            m = self.metas.fresh(ty.sort, scope=ctx.index_vars())
            inst = subst(m, ty.var, ty.body)
            node = TypingDerivation(
                "pi-e", "synth", ctx.entries, d.term, inst, (d,), witness=m
            )
            yield from self._elim_arrow(ctx, inst, node, fails)
            return
        fails.append(Fail("{} is not a function type", d.term.span, args=(ty,)))


# ---------------------------------------------------------------------------
# Whole-program checking


@dataclass
class Diagnostic:
    message: str
    span: Optional[Span] = None

    def as_dict(self) -> dict:
        d: dict = {"message": self.message}
        if self.span is not None:
            d.update(
                file=self.span.file,
                start_line=self.span.start_line,
                start_col=self.span.start_col,
                end_line=self.span.end_line,
                end_col=self.span.end_col,
            )
        return d


@dataclass
class Report:
    verdict: str  # "accept" | "reject"
    checked_type: Optional[Type] = None
    derivation: Optional[TypingDerivation] = None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    stats: Stats = field(default_factory=Stats)

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"


_MAX_DIAGNOSTICS = 24


def _diagnostics_from(f: Fail) -> list[Diagnostic]:
    """The failure tree in preorder, one diagnostic per distinct (message,
    span).  A failure without a span, such as a subtyping failure, takes the
    span of its nearest ancestor that has one."""
    out: list[Diagnostic] = []
    seen: set[tuple[str, Optional[Span]]] = set()
    stack: list[tuple[Fail, Optional[Span]]] = [(f, None)]
    while stack and len(out) < _MAX_DIAGNOSTICS:
        node, inherited = stack.pop()
        span = inherited if node.span is None else node.span
        if (node.reason, span) not in seen:
            seen.add((node.reason, span))
            out.append(Diagnostic(node.reason, span))
        stack.extend((p, span) for p in reversed(node.parts))
    return out


def validate_program(prog: Program) -> list[Diagnostic]:
    """Header and scope checks that precede typechecking proper."""
    diags: list[Diagnostic] = []
    try:
        prog.sig.validate()
    except Exception as ex:
        diags.append(Diagnostic(str(ex)))
        return diags
    ctx = Context(prog.sig)
    for name, ty in prog.sig.prims.items():
        try:
            check_type_wf(ctx, ty)
        except IllFormedType as ex:
            diags.append(Diagnostic(f"primitive '{name}': {ex}", ty.span))
        if free_vars(ty, INDEX):
            diags.append(
                Diagnostic(
                    f"primitive '{name}' must have a closed type", ty.span
                )
            )
    if prog.goal is not None:
        try:
            check_type_wf(ctx, prog.goal)
        except IllFormedType as ex:
            diags.append(Diagnostic(f"goal type: {ex}", prog.goal.span))
        if free_vars(prog.goal, INDEX):
            diags.append(
                Diagnostic("goal type must be closed", prog.goal.span)
            )
    unbound = free_vars(prog.main, TERM)
    for name in sorted(unbound):
        diags.append(Diagnostic(f"unbound variable '{name}'", prog.main.span))
    free_idx = free_vars(prog.main, INDEX)
    for name in sorted(free_idx):
        diags.append(
            Diagnostic(
                f"index variable '{name}' is not bound by a `some` or "
                "`idxfn` binder",
                prog.main.span,
            )
        )
    return diags


def typecheck_program(
    prog: Program,
    *,
    max_depth: int = 512,
    ctx_anno: bool = True,
    memoize: bool = True,
) -> Report:
    checker = Checker(
        prog.sig, max_depth=max_depth, ctx_anno=ctx_anno, memoize=memoize
    )
    return _check_program(checker, prog)


def _check_program(checker: Checker, prog: Program) -> Report:
    """Validate prog, then check it against its goal (or synthesize its
    type) on `checker`, whose signature is prog's.  The report gets Stats of
    its own; the checker's memos and store carry over to a later call."""
    t0 = time.perf_counter()
    stats = checker.stats = Stats()
    diags = validate_program(prog)
    if diags:
        report = Report("reject", diagnostics=diags, stats=stats)
    else:
        ctx = checker.fresh_ctx()
        if prog.goal is not None:
            res = checker.check(ctx, prog.main, prog.goal)
            found = res if isinstance(res, Fail) else (prog.goal, res)
        else:
            res = checker.synth(ctx, prog.main)
            found = res if isinstance(res, Fail) else res[0]
        if isinstance(found, Fail):
            report = Report(
                "reject", diagnostics=_diagnostics_from(found), stats=stats
            )
        else:
            ty, d = found
            report = Report("accept", checked_type=ty, derivation=d, stats=stats)
    stats.wall_ms = (time.perf_counter() - t0) * 1000
    return report
