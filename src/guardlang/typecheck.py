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
the indexed subtyping equalities solve them.  A program check has one
budget of `max_depth` rules, which every typing rule tried and every rule of
its subtype queries takes a unit of (`subtyping.charge`), except the rules
of annotation forms (right-hand and contextual annotations, guards, merges,
`some`): they only narrow the search, and each leads to the rules of a
smaller term.

The subsort order refutes a variable of declared datasort c against a
declared datasort d that c is not below.  Refuted conjuncts of a function
applied to the variable and guarded merge branches, the encoded typings'
branches of a contextual annotation among them, are skipped: each keeps its
rule's failure, but takes no rule, budget or backtrack.  They are found
without a scan: each intersection type, merge and contextual annotation has
an index (`_Alternatives`) from the datasorts its alternatives need to
their positions, and the positions to try are those of the datasorts at or
above c (`_chosen`).  A run of refuted positions goes into the failure list
as one `Deferred` record, which builds their failures when a diagnostic
reads them, so an accepted check builds none.

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
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Union

from .indices import UnboundIndexVariable, sort_of
from .parser import pretty as pretty_term  # the benchmark's tracer wraps this name
from .replay import TypingDerivation, verify_typing  # the replay, for its callers
from .subtyping import (
    DepthExceeded, Deferred, Exhausted, Fail, Stats, charge, not_subsort, subtype,
)
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
            todo += (scope, ty.body)  # the scope comes back after the body
            decl = IdxDecl(ty.var, ty.sort)
            scope = Context(ctx.sig, scope.entries + (decl,), ctx.metas)
        elif cls is Context:
            scope = ty
        elif cls is not TUnit:
            raise IllFormedType(f"unexpected type {ty!r}")


class Checker:
    """One typechecking run: rule search, metavariable store, statistics.
    The budget runs over `self.stats`, which `_check_program` starts afresh."""

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
        # The indexed alternatives of each metavariable-free intersection
        # type, merge occurrence and contextual annotation occurrence.
        self._choices: dict = {}

    def fresh_ctx(self) -> Context:
        return Context(self.sig, (), self.metas)

    # -- public entry points -------------------------------------------------

    def check(self, ctx: Context, e: Term, ty: Type) -> Union[TypingDerivation, Fail]:
        """Top-level checking judgment; result derivations are ground."""
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
            # The budget is the check's: a query out of it ends the check.
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
        # (whether the rule is charged to the budget, the rule)
        alts = []
        if isinstance(ty, TSect):
            alts.append((True, self._chk_sect_i))
        if isinstance(ty, TPi):
            alts.append((True, (
                self._chk_pi_explicit if isinstance(e, IdxLam) else self._chk_pi_i
            )))
        if isinstance(e, Lam) and isinstance(ty, TArrow):
            alts.append((True, self._chk_arrow_i))
        if isinstance(e, Unit) and isinstance(ty, TUnit):
            alts.append((True, self._chk_unit_i))
        if isinstance(e, Some):
            alts.append((False, self._chk_some))
        # Subsumption comes last, except after guard-chk and merge-chk: the
        # body or branch they check ends in subsumption of its own.
        if isinstance(e, Guard):
            alts.append((False, self._chk_guard))
        elif isinstance(e, Merge):
            alts.append((False, self._chk_merge))
        else:
            alts.append((True, self._chk_sub))

        fails: list[Fail] = []
        for i, (charged, rule) in enumerate(alts):
            if charged:
                charge(self.stats, self.max_depth)
            else:
                self.stats.rule_applications += 1
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
        alts = self._alternatives((e, e.span), e, spine)
        branches, fails = alts.alts, []
        # Unless ty is an intersection or a Pi, a guard has guard-chk only.
        lookup = ctx.lookup_var if type(ty) is not TSect and type(ty) is not TPi else None
        for i in self._chosen(alts, lookup, fails, _refuted_branch, ctx, branches):
            mark = self.metas.mark()
            d = self._check(ctx, branches[i], ty)
            if not isinstance(d, Fail):
                return TypingDerivation(
                    "merge-chk", "check", ctx.entries, e, ty, (d,), branch=i + 1
                )
            self.metas.undo(mark)
            self.stats.backtracks += 1
            fails.append(_branch_fails(branches, i, d))
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

    # -- selection among alternatives ---------------------------------------------

    def _alternatives(self, key, x, build: Callable) -> _Alternatives:
        """The alternatives build(x) gives, indexed (`_Alternatives`): once
        per checker and key, which names x, when x holds no metavariable,
        else once per call."""
        alts = self._choices.get(key)
        if alts is None:
            alts = _Alternatives(build(x), self.sig)
            if meta_free(x):
                self._choices[key] = alts
        return alts

    def _up_closure(self, ty: Optional[Type]) -> Optional[set[str]]:
        """The datasorts at or above ty when ty is a declared datasort, else
        None.  Selection reads the subsort order through this method only."""
        if type(ty) is TAtom and ty.name in self.sig.atoms:
            return self.sig.up_closure(ty.name)
        return None

    def _chosen(
        self, alts: _Alternatives, lookup: Optional[Callable], fails: list,
        refuted: Callable[..., Fail], *args,
    ) -> Iterable[int]:
        """The positions of the alternatives to try, in order.  With lookup,
        which gives each subject's type, an alternative that needs its
        subject at a datasort not above that type is refuted and skipped.
        Each run of refuted positions goes to fails as one `Deferred` record
        of their failures, `refuted(*args, i)`, and into `stats.refuted`,
        when the iteration passes it: where and when a scan would have put
        them."""
        n = len(alts.alts)
        if lookup is None or not alts.subjects:
            return range(n)
        picked = list(alts.undecided)
        for subject, by_atom in alts.subjects.items():
            ups = self._up_closure(lookup(subject))
            for atom in by_atom if ups is None else by_atom.keys() & ups:
                picked += by_atom[atom]
        if len(picked) == n:
            return range(n)
        picked.sort()
        return self._passing(picked, n, fails, partial(refuted, *args))

    def _passing(self, picked: list[int], n: int, fails: list, build) -> Iterator[int]:
        """picked, a sorted list of positions below n, with the runs of the
        others recorded as `_chosen` says."""
        done = 0
        for i in (*picked, n):
            if i > done:
                fails.append(Deferred(build, done, i))
                self.stats.refuted += i - done
            if i < n:
                yield i
            done = i + 1

    # -- synthesis ---------------------------------------------------------------

    def _synth(self, ctx: Context, e: Term, fails: list[Fail]) -> CandidateStream:
        if type(e) in _ANNOTATION_FORMS:
            self.stats.rule_applications += 1
        else:
            charge(self.stats, self.max_depth)
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
                alts = self._alternatives((e, e.span), e, spine)
                for k, ty, d in self._synth_branches(ctx, alts, fails):
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
                # zonked candidates, as tuples, and the failures and
                # `Deferred` records it appended, in order;
                # the consumer's own appends between yields are left out.
                memo = self._synth_memo if self.memoize else None
                key = (e, e.span, ctx.entries)
                if memo:
                    hit = memo.get(key)
                    if hit is not None:
                        self.stats.synth_memo_hits += 1
                        for event in hit:
                            if type(event) is tuple:
                                yield event
                            else:
                                fails.append(event)
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

    def _synth_branches(self, ctx: Context, alts: _Alternatives, fails: list):
        """(k, type, derivation) for each type branch k synthesizes, in order:
        merge-syn's choice, and the contextual rule's.  guard-syn is a guard's
        only synthesis rule, so a refuted guard leaves its failure, untried."""
        branches = alts.alts
        for i in self._chosen(alts, ctx.lookup_var, fails, _refuted_guard, ctx, branches):
            mark = self.metas.mark()
            for ty, d in self._synth(ctx, branches[i], fails):
                yield i + 1, ty, d
            self.metas.undo(mark)
            self.stats.backtracks += 1

    def _elim_arrow(self, ctx, ty: Type, d: TypingDerivation, fails, arg: Term):
        """Arrow views of a synthesized type for an application to arg, depth
        first, by one sect-e node per conjunct and by Pi instantiation.  A
        conjunct `a -> B` that a variable arg's datasort refutes is skipped:
        its failure is recorded, and it gets no node and no frame."""
        ty = zonk(self.metas, ty)
        if isinstance(ty, TArrow):
            yield ty.arg, ty.res, d
            return
        if isinstance(ty, TSect):
            alts = self._alternatives(ty, ty, spine)
            sides, got, lookup = alts.alts, None, None
            if type(arg) is Var:  # the one subject, None, is arg
                got = ctx.lookup_var(arg.name)
                lookup = lambda _: got
            for i in self._chosen(alts, lookup, fails, _refuted_arg, arg, got, sides):
                node = TypingDerivation(
                    "sect-e", "synth", ctx.entries, d.term, sides[i], (d,), branch=i + 1
                )
                yield from self._elim_arrow(ctx, sides[i], node, fails, arg)
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


# The terms whose synthesis rule is counted but takes no budget.
_ANNOTATION_FORMS = frozenset((Anno, Guard, Merge, Some, CtxAnno))


class _Alternatives:
    """A sequence of alternatives (an intersection's conjuncts, a merge's
    branches, the encoded branches of a contextual annotation), indexed by
    the datasort each needs of a subject.  A conjunct `a -> B` needs the
    argument it is applied to (subject None) at a; a branch `where x : a do
    ...` needs x at a.  Where a is a declared datasort the alternative is
    decided by the subject's type; the others are undecided and always tried.
    The index holds for the signature it was built over, as the memos do."""

    __slots__ = ("alts", "undecided", "subjects")

    def __init__(self, alts, sig: Signature) -> None:
        self.alts = alts
        self.undecided: list[int] = []
        # subject -> datasort -> the positions that need the subject at it
        self.subjects: dict[Optional[str], dict[str, list[int]]] = {}
        for i, alt in enumerate(alts):
            subject = need = None
            if type(alt) is TArrow and type(alt.arg) is TAtom:
                need = alt.arg.name
            elif type(alt) is Guard and type(d := alt.decl) is VarDecl and type(d.ty) is TAtom:
                subject, need = d.name, d.ty.name
            if need is not None and need in sig.atoms:
                self.subjects.setdefault(subject, {}).setdefault(need, []).append(i)
            else:
                self.undecided.append(i)


# The failures of rules, built here for the rules and for the alternatives
# that `Checker._chosen` skips.
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


def _branch_fails(branches, i: int, d: Fail) -> Fail:
    return Fail("merge branch {} fails", branches[i].span, (d,), args=(i + 1,))


def _refuted_arg(arg: Var, got: TAtom, sides, i: int) -> Fail:
    """What applying conjunct i, `a -> B`, to arg of datasort got fails with
    when a is not above got."""
    goal = sides[i].arg
    sub = _not_subtype(arg, got, goal, not_subsort(got, goal))
    return _bad_arg(arg, goal, _cannot_check(arg, goal, (sub,)))


def _refuted_guard(ctx: Context, branches, i: int) -> Fail:
    """What guard-syn fails with on branch i, `where x : a do ...`, when a is
    not above the datasort of x."""
    g = branches[i]
    got = ctx.lookup_var(g.decl.name)
    ev = _not_entailed(g.decl, got, not_subsort(got, g.decl.ty))
    return _unsatisfied(g.decl, g.span, ev)


def _refuted_branch(ctx: Context, branches, i: int) -> Fail:
    """What merge-chk records of branch i when its guard is refuted."""
    return _branch_fails(branches, i, _refuted_guard(ctx, branches, i))


# ---------------------------------------------------------------------------
# Whole-program checking


@dataclass
class Diagnostic:
    message: str
    span: Optional[Span] = None

    def as_dict(self) -> dict:
        d: dict = {"message": self.message}
        if self.span is not None:
            d.update(self.span._asdict())
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
    """The search's verdict on prog.  An accept carries its derivation,
    which this does not replay: a caller certifies it with
    `replay.verify_typing(prog.sig, report.derivation)`, as the CLI does
    for every accept it reports."""
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
