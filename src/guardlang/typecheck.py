"""Bidirectional typechecking: `ctx |- e <= A` and `ctx |- e => A`.

The checker is a backtracking search over the rules, with a fixed order:
in checking mode the invertible rules come first (intersection introduction,
Pi introduction, arrow introduction, unit, `some`), then guard-chk or
merge-chk, and finally subsumption (synthesize, then subtype).  merge-chk,
merge-syn and sect-e pick leaf k of a right spine (`syntax.spine`): a
merge's branch k or an intersection's conjunct k.  A guard or a merge gets
no subsumption after its own rule: its body or branches end in subsumption,
which tries every type the guard or merge would synthesize.  `some` keeps
it, because its checking rule commits to the body's first derivation, while
its synthesis rule skips the candidates that leave its variable unsolved.
Elimination positions instantiate synthesized Pi types with metavariables;
the indexed subtyping equalities solve them.  Each rule tried takes one
unit of the typing budget, except the rules of annotation forms (right-hand
and contextual annotations, guards, merges, `some`): they only narrow the
search, and each leads to the rules of a smaller term.

The subsort order refutes a variable of declared datasort c against a
declared datasort d that c is not below (`_refute`).  Refuted conjuncts of a
function applied to the variable and guarded merge branches, the encoded
typings' branches of a contextual annotation among them, are skipped: each
keeps its rule's failure, but takes no rule, budget or backtrack.

A `some` binder instantiates its variable with a fresh metavariable
(`syntax.instantiate`) and requires it solved by the end of that subterm's
derivation.  Checking-mode results are memoized per occurrence, which is
where repeated checking under intersection introduction would otherwise
blow up.  The memo keeps only results that hold in every store state: those
of queries whose term, type and context hold no metavariable, when the
result is a failure (even one whose call solved and undid metavariables of
its own) or its call did not touch the store.

A third memo holds the synthesis candidates of applications.  Eliminating
an intersection checks the argument once per conjunct, and a check against
an instantiated Pi holds a fresh metavariable, which the checking memo never
answers; without this memo an elimination chain is derived again at every
enclosing level.  The stream of an application is stored, with the failures it appended in
between, when the enumeration ran to the end, moved the store's stamp,
and its term, its context and every candidate (zonked when it was yielded)
hold no metavariable; a hit yields the stored candidates and appends the
stored failures.  A miss yields the candidates it stores, zonked, as a hit
does.  Whether syntax or a derivation holds a metavariable is a bit its
constructor set, so the test reads one bit per part, and the zonk of a
candidate, like every later zonk that meets it, stops at ground syntax and
at ground derivations.

The memos and the store belong to the `Checker`, not to one program:
`_check_program` runs one program on a given checker, and
`ctxanno.verify_encoding` checks a program and then its encoding on the
same one, so the second check re-derives only what the translation built.

Derivations share their terms and types with the program and with each
other: a node holds the very term object it was checked on, its premises
hold the subterms, and memoized results are shared by every parent that
uses them.  Zonking preserves identity (it rebuilds only the path down to a
solved metavariable), and the finalize pass visits each distinct object once
while it collects the unsolved metavariables, so finalize is linear in the
size of the shared structure.  A ground derivation, which is every
derivation of a run that has created no metavariable, skips finalize: it
has nothing to zonk and nothing left unsolved.

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
from .parser import pretty as pretty_term  # the benchmark's tracer wraps this name
from .replay import TypingDerivation, verify_typing  # the replay, for its callers
from .subtyping import DepthExceeded, Exhausted, Fail, Stats, not_subsort, subtype
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
    children,
    free_names,
    free_vars,
    instantiate,
    meta_free,
    spine,
    subst,
    zonk,
)

CandidateStream = Iterator[tuple[Type, "TypingDerivation"]]


class IllFormedType(Exception):
    pass


class _Scope(dict):
    """The sorts of the index variables in scope, read by `sort_of` as it
    reads a context's."""

    __slots__ = ("metas",)
    lookup_index = dict.get


def check_type_wf(ctx: Context, ty: Type) -> None:
    """Every atom and constructor declared, every index variable in scope.

    One walk, left to right, keeps the sorts of the index variables in
    scope, where a Pi's variable hides an outer one of the same name."""
    todo: list = [ty]
    scope = ctx  # what `sort_of` reads the index variables in scope from
    while todo:
        ty = todo.pop()
        cls = type(ty)
        if cls is TAtom:
            if ty.name not in ctx.sig.atoms:
                raise IllFormedType(f"undeclared datasort '{ty.name}'")
        elif cls is TArrow or cls is TSect:
            todo += reversed(children(ty))
        elif cls is TCon:
            con = ty.con
            if con not in ctx.sig.cons:
                raise IllFormedType(f"undeclared indexed constructor '{con}'")
            try:
                got = sort_of(scope, ty.index)
            except UnboundIndexVariable as ex:
                raise IllFormedType(str(ex)) from None
            if got != ctx.sig.cons[con]:
                raise IllFormedType(
                    f"index of '{con}' has sort {got}, expected {ctx.sig.cons[con]}"
                )
        elif cls is TPi:
            inner = _Scope(scope if scope is not ctx else (
                (d.name, d.sort) for d in ctx.entries if type(d) is IdxDecl
            ))
            inner[ty.var], inner.metas = ty.sort, ctx.metas
            todo += (scope, ty.body)  # the scope comes back after the body
            scope = inner
        elif cls is _Scope or cls is Context:
            scope = ty
        elif cls is not TUnit:
            raise IllFormedType(f"unexpected type {ty!r}")


class Checker:
    """One typechecking run: rule search, metavariable store, statistics."""

    def __init__(
        self, sig: Signature, *, max_depth: int = 512, memoize: bool = True
    ) -> None:
        self.sig = sig
        self.max_depth = max_depth
        self.memoize = memoize
        self.metas = MetaStore()
        self.stats = Stats()
        self._memo: dict[tuple, Union[TypingDerivation, Fail]] = {}
        # Candidates of metavariable-free applications, see `_synth`.
        self._synth_memo: dict[tuple, tuple] = {}
        # One subtyping memo for the run; None gives each query its own.
        self._sub_memo: Optional[dict] = {} if memoize else None
        # The encoded branches of each contextual annotation occurrence.
        self._ctx_branches: dict[tuple, tuple] = {}
        self._budget = max_depth

    def fresh_ctx(self) -> Context:
        return Context(self.sig, (), self.metas)

    # -- public entry points -------------------------------------------------

    def check(self, ctx: Context, e: Term, ty: Type) -> Union[TypingDerivation, Fail]:
        """Top-level checking judgment; result derivations are ground."""
        self._budget = self.max_depth
        try:
            res = self._check(ctx, e, ty)
        except DepthExceeded as ex:
            return ex.args[0]
        if isinstance(res, Fail):
            return res
        zonked, leftover = self._unsolved_in(res)
        if leftover:
            return Fail(
                "derivation left index metavariables unresolved: "
                + self.metas.describe(leftover),
                e.span,
            )
        return zonked

    def synth(
        self, ctx: Context, e: Term
    ) -> Union[list[tuple[Type, TypingDerivation]], Fail]:
        """All ground synthesis candidates, intersections unprojected (see sect-l)."""
        self._budget = self.max_depth
        fails: list[Fail] = []
        out: list[tuple[Type, TypingDerivation]] = []
        try:
            for ty, d in self._synth(ctx, e, fails):
                zd, leftover = self._unsolved_in(d)
                if not leftover:
                    out.append((zd.ty, zd))
        except DepthExceeded as ex:
            fails.append(ex.args[0])
        if out:
            return out
        return Fail("no type synthesized for {}", e.span, tuple(fails), args=(e,))

    def _unsolved_in(
        self, d: TypingDerivation
    ) -> tuple[TypingDerivation, set[int]]:
        """Finalize d: zonk it in one pass over its distinct objects, and
        collect the uids of the metavariables it leaves unsolved.  A ground
        d, and any d of a run that has created no metavariable, comes back as
        it is."""
        if not d._metas:
            return d, set()
        zonker = Zonker(self.metas)
        return zonker.visit(d), zonker.unsolved

    def _grounded(self, d: TypingDerivation) -> Optional[TypingDerivation]:
        """d zonked, or None when it keeps an unsolved metavariable."""
        zd = zonk(self.metas, d)
        return None if zd._metas else zd

    # -- search plumbing ------------------------------------------------------

    def _tick(self) -> None:
        self.stats.rule_applications += 1
        self._budget -= 1
        if self._budget < 0:
            raise DepthExceeded(
                Exhausted(f"typing search exceeded {self.max_depth} rule applications")
            )

    def _count(self) -> None:
        """A rule of an annotation form: counted, but it takes no budget."""
        self.stats.rule_applications += 1

    def _wf(self, ctx: Context, ty: Type) -> Optional[Fail]:
        try:
            check_type_wf(ctx, ty)
        except IllFormedType as ex:
            return Fail(f"ill-formed annotation: {ex}", ty.span)
        return None

    def _subtype(self, ctx: Context, a: Type, b: Type):
        res = subtype(
            ctx, a, b, store=self.metas, stats=self.stats,
            max_depth=self.max_depth, memo=self._sub_memo,
        )
        if type(res) is Exhausted:
            # A query out of its budget ends the check, as the typing
            # search's own budget does.
            raise DepthExceeded(res)
        return res

    # -- checking -------------------------------------------------------------

    def _check(self, ctx: Context, e: Term, ty: Type) -> Union[TypingDerivation, Fail]:
        if not self.memoize:
            return self._check_dispatch(ctx, e, ty)
        # Spans are left out of term equality, so the key carries the
        # occurrence's span as well.
        key = (e, e.span, ty, ctx.entries)
        hit = self._memo.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        self.stats.memo_misses += 1
        stamp0 = self.metas.stamp
        res = self._check_dispatch(ctx, e, ty)
        # Only a result that holds in every store state is kept: that of a
        # query with no metavariable (none has one while the store has
        # created none) that is a failure, which read no solution and undid
        # every alternative, or whose deciding did not touch the store.
        # `_Search.sub` writes the same rule out: a shared function would
        # cost a call on every miss.
        if (isinstance(res, Fail) or self.metas.stamp == stamp0) and (
            not self.metas.any_created() or meta_free((e, ty, ctx.entries))
        ):
            self._memo[key] = res
        return res

    def _check_dispatch(self, ctx, e, ty) -> Union[TypingDerivation, Fail]:
        # (what applying the rule costs, the rule)
        tick, count = self._tick, self._count
        alts = []
        if isinstance(ty, TSect):
            alts.append((tick, self._chk_sect_i))
        if isinstance(ty, TPi):
            alts.append((tick, (
                self._chk_pi_explicit if isinstance(e, IdxLam) else self._chk_pi_i
            )))
        if isinstance(e, Lam) and isinstance(ty, TArrow):
            alts.append((tick, self._chk_arrow_i))
        if isinstance(e, Unit) and isinstance(ty, TUnit):
            alts.append((tick, self._chk_unit_i))
        if isinstance(e, Some):
            alts.append((count, self._chk_some))
        # Subsumption comes last, except after guard-chk and merge-chk: the
        # body or branch they check ends in subsumption of its own.
        if isinstance(e, Guard):
            alts.append((count, self._chk_guard))
        elif isinstance(e, Merge):
            alts.append((count, self._chk_merge))
        else:
            alts.append((tick, self._chk_sub))

        fails: list[Fail] = []
        for i, (cost, rule) in enumerate(alts):
            cost()
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
        m, body = instantiate(
            self.metas, ctx.index_vars(), e.var, e.sort, e.body, e.span
        )
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
            return _unsatisfied(e.decl, e.span, ev)
        d = self._check(ctx, e.body, ty)
        if isinstance(d, Fail):
            return Fail(f"guarded body fails", e.span, (d,))
        return TypingDerivation("guard-chk", "check", ctx.entries, e, ty, (ev, d))

    def _chk_merge(self, ctx, e: Merge, ty):
        fails = []
        # Unless ty is an intersection or a Pi, a guard has guard-chk only.
        decide = type(ty) is not TSect and type(ty) is not TPi
        for k, branch in enumerate(spine(e), 1):
            d = self._refuted_guard(ctx, branch) if decide else None
            if d is None:
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
            fails.append(_not_subtype(e, zonk(self.metas, sty), ty, sub))
            self.metas.undo(mark)
            self.stats.backtracks += 1
        return _cannot_check(e, ty, tuple(fails))

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
                return _not_entailed(d, got, sd)
            var = Var(d.name)
            node = TypingDerivation("var", "synth", ctx.entries, var, got)
            return TypingDerivation("sub", "check", ctx.entries, var, d.ty, (node, sd))
        got = ctx.lookup_index(d.name)
        if got != d.sort:
            return Fail(
                f"index variable '{d.name}' is not declared with sort {d.sort}",
                d.span,
            )
        return TypingDerivation("ivar", "check", ctx.entries, Var(d.name), None)

    # -- subsort refutation ------------------------------------------------------

    def _refute(self, ctx: Context, name: str, goal: Type) -> Optional[tuple]:
        """(c, the failure of `c <= goal`) when variable `name` has declared
        atom type c, and goal is a declared atom other than c and not above
        it; None when the subsort order does not decide `name` against goal."""
        if type(goal) is TAtom:
            got, atoms = ctx.lookup_var(name), self.sig.atoms
            if (
                type(got) is TAtom and got.name != goal.name
                and got.name in atoms and goal.name in atoms
                and not self.sig.atom_le(got.name, goal.name)
            ):
                self.stats.refuted += 1
                return got, not_subsort(got, goal)
        return None

    def _refuted_check(self, ctx: Context, e: Var, ty: Type) -> Optional[Fail]:
        """What `_check(ctx, e, ty)` returns when `_refute` decides it."""
        r = self._refute(ctx, e.name, ty)
        return r and _cannot_check(e, ty, (_not_subtype(e, r[0], ty, r[1]),))

    def _refuted_guard(self, ctx: Context, g: Term) -> Optional[Fail]:
        """The failure of g when g is a guard that `_refute` decides."""
        d = g.decl if type(g) is Guard else None
        r = self._refute(ctx, d.name, d.ty) if type(d) is VarDecl else None
        return r and _unsatisfied(d, g.span, _not_entailed(d, *r))

    # -- synthesis ---------------------------------------------------------------

    def _synth(self, ctx: Context, e: Term, fails: list[Fail]) -> CandidateStream:
        if type(e) in _ANNOTATION_FORMS:
            self._count()
        else:
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
                # Zonked: the body's check is memoizable once `some` is solved.
                ty = zonk(self.metas, ty)
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
                    fails.append(_unsatisfied(decl, e.span, ev))
                    self.metas.undo(mark)
                    return
                for ty, d in self._synth(ctx, body, fails):
                    yield ty, TypingDerivation(
                        "guard-syn", "synth", ctx.entries, e, ty, (ev, d)
                    )
                self.metas.undo(mark)
            case Merge(_, _):
                for k, ty, d in self._synth_branches(ctx, spine(e), fails):
                    yield ty, TypingDerivation(
                        "merge-syn", "synth", ctx.entries, e, ty, (d,), branch=k
                    )
            case Some(var, sort, body):
                m, inner = instantiate(
                    self.metas, ctx.index_vars(), var, sort, body, e.span
                )
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
                    for aty, rty, fd2 in self._elim_arrow(ctx, fty, fd, fails, arg):
                        mark = self.metas.mark()
                        ad = self._check(ctx, arg, aty)
                        if isinstance(ad, Fail):
                            fails.append(_bad_arg(arg, zonk(self.metas, aty), ad))
                            self.metas.undo(mark)
                            continue
                        d = TypingDerivation(
                            "arrow-e", "synth", ctx.entries, e, rty, (fd2, ad)
                        )
                        if events is not None:
                            events.extend(fails[start:])
                            zd = self._grounded(d)
                            if zd is None:
                                events = None
                            else:
                                # Yield what a hit yields: the enclosing
                                # level's zonk then stops at this ground
                                # candidate.
                                rty, d = zd.ty, zd
                                events.append((rty, d))
                        yield rty, d
                        start = len(fails)
                        self.metas.undo(mark)
                # Stored only when the stream is complete, its call moved
                # the stamp (else the checking memo covers the parent query)
                # and it cannot depend on the store.
                if (
                    events is not None
                    and self.metas.stamp != stamp0
                    and meta_free((e, ctx.entries))
                ):
                    events.extend(fails[start:])
                    memo[key] = tuple(events)
            case CtxAnno(_, _):
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

    def _synth_branches(self, ctx: Context, branches, fails: list[Fail]):
        """(k, type, derivation) for each type branch k synthesizes, in order:
        merge-syn's choice, and the contextual rule's.  guard-syn is a guard's
        only synthesis rule, so a refuted guard leaves its failure, untried."""
        for k, branch in enumerate(branches, 1):
            ev = self._refuted_guard(ctx, branch)
            if ev is not None:
                fails.append(ev)
                continue
            mark = self.metas.mark()
            for ty, d in self._synth(ctx, branch, fails):
                yield k, ty, d
            self.metas.undo(mark)
            self.stats.backtracks += 1

    def _elim_arrow(self, ctx, ty: Type, d: TypingDerivation, fails, arg: Term):
        """Arrow views of a synthesized type for an application to arg, depth
        first, by one sect-e node per conjunct and by Pi instantiation.  A
        conjunct `A -> B` that `_refute` decides the variable arg against is
        skipped: its failure is recorded, and it gets no node and no frame."""
        ty = zonk(self.metas, ty)
        if isinstance(ty, TArrow):
            yield ty.arg, ty.res, d
            return
        if isinstance(ty, TSect):
            for k, side in enumerate(spine(ty), 1):
                if type(side) is TArrow and type(arg) is Var:
                    ad = self._refuted_check(ctx, arg, side.arg)
                    if ad is not None:
                        fails.append(_bad_arg(arg, side.arg, ad))
                        continue
                node = TypingDerivation(
                    "sect-e", "synth", ctx.entries, d.term, side, (d,), branch=k
                )
                yield from self._elim_arrow(ctx, side, node, fails, arg)
            return
        if isinstance(ty, TPi):
            m, inst = instantiate(
                self.metas, ctx.index_vars(), ty.var, ty.sort, ty.body, d.term.span
            )
            node = TypingDerivation(
                "pi-e", "synth", ctx.entries, d.term, inst, (d,), witness=m
            )
            yield from self._elim_arrow(ctx, inst, node, fails, arg)
            return
        fails.append(Fail("{} is not a function type", d.term.span, args=(ty,)))


# The terms whose synthesis rule takes no budget (see `Checker._count`).
_ANNOTATION_FORMS = frozenset((Anno, Guard, Merge, Some, CtxAnno))


# The failures of rules, built here for the rules and for the alternatives
# that `Checker._refute` skips.
def _unsatisfied(decl: Decl, span: Optional[Span], ev: Fail) -> Fail:
    """The failure of a rule needing the guard on decl at span, decided ev."""
    return Fail("guard not satisfied: {}", span or decl.span, (ev,), args=(decl,))


def _not_entailed(d: VarDecl, got: Type, sd: Fail) -> Fail:
    args = (d.name, got, d.ty)
    return Fail("'{}' has type {}, which does not entail {}", d.span, (sd,), args=args)


def _not_subtype(e: Term, sty: Type, ty: Type, sub: Fail) -> Fail:
    return Fail("synthesized {} is not a subtype of {}", e.span, (sub,), args=(sty, ty))


def _cannot_check(e: Term, ty: Type, fails: tuple) -> Fail:
    return Fail("cannot check {} against {}", e.span, fails, args=(e, ty))


def _bad_arg(arg: Term, aty: Type, ad: Fail) -> Fail:
    return Fail("argument does not check against {}", arg.span, (ad,), args=(aty,))


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
    # Rejected only for running out of budget, in typing or in a subtype query.
    exhausted: bool = False

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
    """Header and scope checks that precede typechecking proper.  The types
    of the primitives and the goal are well formed in the empty context, so
    they are closed."""
    try:
        prog.sig.validate()
    except Exception as ex:
        return [Diagnostic(str(ex))]
    diags: list[Diagnostic] = []
    ctx = Context(prog.sig)
    for name, ty in prog.sig.prims.items():
        try:
            check_type_wf(ctx, ty)
        except IllFormedType as ex:
            diags.append(Diagnostic(f"primitive '{name}': {ex}", ty.span))
    if prog.goal is not None:
        try:
            check_type_wf(ctx, prog.goal)
        except IllFormedType as ex:
            diags.append(Diagnostic(f"goal type: {ex}", prog.goal.span))
    free = free_names(prog.main)
    for name in sorted(free[TERM]):
        diags.append(Diagnostic(f"unbound variable '{name}'", prog.main.span))
    for name in sorted(free[INDEX]):
        msg = f"index variable '{name}' is not bound by a `some` or `idxfn` binder"
        diags.append(Diagnostic(msg, prog.main.span))
    return diags


def typecheck_program(
    prog: Program, *, max_depth: int = 512, memoize: bool = True
) -> Report:
    checker = Checker(prog.sig, max_depth=max_depth, memoize=memoize)
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
                "reject", diagnostics=_diagnostics_from(found), stats=stats,
                exhausted=any(type(f) is Exhausted for f in (found, *found.parts)),
            )
        else:
            ty, d = found
            report = Report("accept", checked_type=ty, derivation=d, stats=stats)
    stats.wall_ms = (time.perf_counter() - t0) * 1000
    return report
