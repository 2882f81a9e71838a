"""Contextual typing annotations and their translation into guards, merges,
right-hand annotations and `some` binders.

A contextual annotation carries typings `Gamma0 |- A0`, each a chain of
one node per entry (`syntax.CtxIdx`, `syntax.CtxVar`) ending in the goal
(`syntax.CtxGoal`).  Whether the ambient context satisfies `Gamma0` is
decided in one place, inside the synthesis rule `check_ctx_anno`:
program-variable typings by subtyping of the looked-up type, index-variable
sortings by instantiating a well-sorted index expression (found with the
same metavariable machinery as Pi-left).  The first typing that applies,
with every index instantiation solved, gives the type the term synthesizes.
Each instantiation renames the later sortings that its witness could be
captured by (`syntax.instantiate`), so every step of the subsumption
derivation carries the rest of the chain as it is, and `replay` checks each
step on its own.

`encode` removes every contextual annotation: each typing becomes a branch
of a right-nested merge, its variable typings become guards, its index
sortings become `some` binders (the sorting behaves existentially, exactly
like the instantiation rule), around a right-hand annotation of the subject.
A `some` binder wraps the subject, so a sorting named like an index variable
free in the subject is renamed (`syntax.bind_fresh`) rather than capture it.
`verify_encoding` checks the translation end to end: whatever the
annotation-enabled checker accepts, the encoded program must pass with the
contextual rule disabled, on the same checker (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

# `entails`, `solve_meta` and `subtype` are imported for the benchmark's
# tracer, which wraps them here.
from .indices import entails, solve_meta
from .replay import CtxSubDerivation
from .subtyping import Fail, subtype
from .syntax import (
    INDEX,
    Anno,
    Context,
    CtxAnno,
    CtxGoal,
    CtxIdx,
    CtxTyping,
    CtxVar,
    Guard,
    IMeta,
    Merge,
    Program,
    Some,
    Term,
    Type,
    alpha_eq,
    bind_fresh,
    free_vars,
    instantiate,
    rewrite,
    subterms,
    zonk,
)
from .typecheck import (
    Checker,
    IllFormedType,
    Report,
    TypingDerivation,
    _check_program,
    check_type_wf,
    typecheck_program,
)


def _match_entries(
    checker: Checker, ctx: Context, typing: CtxTyping
) -> Union[tuple[CtxSubDerivation, list[IMeta]], Fail]:
    """Match the entries of `typing` against ctx left to right: a variable
    typing by subtyping its looked-up type, an index sorting by instantiating
    it with a fresh metavariable.  Returns the subsumption derivation, whose
    goal may still mention the metavariables, and those metavariables."""
    steps = []  # (rule, telescope, premises before the rest's, witness)
    tel = typing
    while type(tel) is not CtxGoal:
        rest = tel.body
        if type(tel) is CtxVar:
            d0 = tel.decl
            got = ctx.lookup_var(d0.name)
            if got is None:
                return Fail(
                    f"contextual typing requires '{d0.name}', which is not in scope",
                    d0.span,
                )
            sd = checker._subtype(ctx, got, d0.ty)
            if isinstance(sd, Fail):
                return Fail(
                    "context does not entail {} : {}",
                    d0.span,
                    (sd,),
                    args=(d0.name, d0.ty),
                )
            steps.append(("pvar", tel, (sd,), None))
        else:
            m, rest = instantiate(
                checker.metas, ctx.index_vars(), tel.var, tel.sort, rest, tel.span
            )
            steps.append(("ivar", tel, (), m))
        tel = rest
    node = CtxSubDerivation("empty", tel, ctx.entries, tel.ty)
    for rule, inner, ps, w in reversed(steps):
        node = CtxSubDerivation(
            rule, inner, ctx.entries, tel.ty, ps + (node,), witness=w
        )
    return node, [w for *_, w in steps if w is not None]


def check_ctx_anno(
    checker: Checker, ctx: Context, e: CtxAnno, fails: list[Fail]
) -> Iterator[tuple[Type, TypingDerivation]]:
    """Synthesis rule for contextual annotations.

    Typings are tried in order; the first whose subsumption holds (with all
    index instantiations solved) is committed, and the subject must then
    check against the substituted goal.
    """
    store = checker.metas
    reasons: list[Fail] = []
    for k, typing in enumerate(e.typings, 1):
        try:
            check_type_wf(ctx, typing)
        except IllFormedType as ex:
            reasons.append(
                Fail(f"typing {k} is ill-formed: {ex}", typing.span)
            )
            continue
        mark = store.mark()
        res = _match_entries(checker, ctx, typing)
        if isinstance(res, Fail):
            reasons.append(Fail(f"typing {k} does not apply", typing.span, (res,)))
            store.undo(mark)
            checker.stats.backtracks += 1
            continue
        node, witnesses = res
        if any(store.solution(w.uid) is None for w in witnesses):
            reasons.append(
                Fail(
                    f"typing {k}: index instantiation undetermined",
                    typing.span,
                )
            )
            store.undo(mark)
            checker.stats.backtracks += 1
            continue
        goal = zonk(store, node.goal)
        d = checker._check(ctx, e.body, goal)
        if isinstance(d, Fail):
            fails.append(
                Fail(
                    "contextual typing {} applies, but the term does not "
                    "check against {}",
                    e.span,
                    tuple(reasons) + (d,),
                    args=(k, goal),
                )
            )
            store.undo(mark)
            return
        yield goal, TypingDerivation(
            "ctx-anno", "synth", ctx.entries, e, goal, (node, d), branch=k
        )
        store.undo(mark)
        return
    fails.append(
        Fail("no contextual typing applies", e.span, tuple(reasons))
    )


# ---------------------------------------------------------------------------
# Translation into the elementary mechanisms


def encode(e: Term) -> Term:
    """Remove every contextual annotation; all other forms map homomorphically."""
    return rewrite(e, _encode_hook, None)


def _encode_hook(e, state):
    if type(e) is CtxAnno:
        subject = rewrite(e.body, _encode_hook, state)
        branches = [_encode_typing(t, subject) for t in e.typings]
        out = branches[-1]
        for b in reversed(branches[:-1]):
            out = Merge(b, out)
        return out
    return state if isinstance(e, Term) else e


def _encode_typing(t: CtxTyping, subject: Term) -> Term:
    avoid = free_vars(subject, INDEX)
    entries = []
    while type(t) is not CtxGoal:
        t = bind_fresh(t, avoid) if type(t) is CtxIdx else t
        entries.append(t)
        t = t.body
    out: Term = Anno(subject, t.ty)
    for d in reversed(entries):
        out = Guard(d.decl, out) if type(d) is CtxVar else Some(d.var, d.sort, out)
    return out


def encode_program(prog: Program) -> Program:
    return Program(prog.sig, encode(prog.main), prog.goal, path=prog.path)


@dataclass
class EncodingCheck:
    original: Report
    encoded_program: Optional[Program]
    encoded: Optional[Report]

    @property
    def gap(self) -> bool:
        return (
            self.original.accepted
            and self.encoded is not None
            and not self.encoded.accepted
        )

    @property
    def sizes(self) -> tuple[int, int]:
        a = self.original.derivation.size() if self.original.derivation else 0
        b = (
            self.encoded.derivation.size()
            if self.encoded is not None and self.encoded.derivation
            else 0
        )
        return a, b


class EncodingGapError(Exception):
    """The encoded program failed where the contextual-annotation rule
    succeeded; this contradicts the translation's typing preservation and is
    always a bug."""

    def __init__(self, check: EncodingCheck) -> None:
        diags = check.encoded.diagnostics if check.encoded else []
        detail = "; ".join(d.message for d in diags[:4])
        super().__init__(f"encoding gap: {detail}")
        self.check = check


class EncodingBudgetError(Exception):
    """A check ran out of budget: no gap is shown, none ruled out."""

    def __init__(self, check: EncodingCheck, max_depth: int) -> None:
        which = "original" if check.encoded is None else "encoded"
        super().__init__(f"encoding not verified: checking the {which} program exceeded "
                         f"its budget of {max_depth} rule applications (--max-depth)")
        self.check = check


def verify_encoding(prog: Program, *, max_depth: int = 512) -> EncodingCheck:
    """Typecheck with contextual annotations, translate, re-check without.

    Both checks run on one `Checker`, so the second reuses what the first
    decided: the checking, candidate and subtyping memos and the
    metavariable store.  `encode` returns every subterm outside a `CtxAnno`
    as the same object, so for the encoded program only what the
    translation built is derived again.  This is sound because the checker
    reads its contextual-annotation switch only at a `CtxAnno` node, and the
    encoded program holds none: no memo entry that a query of the second
    check can match depends on the switch.  An encoded program that still
    holds a `CtxAnno` (a bug of the translation) is checked on a fresh
    checker instead, which rejects the annotation.

    Raises EncodingGapError when the original is accepted but the encoded
    program is not (or, for goal-free programs, synthesizes a different type);
    EncodingBudgetError instead when either check ran out of budget.
    """
    checker = Checker(prog.sig, max_depth=max_depth, ctx_anno=True)
    original = _check_program(checker, prog)
    if not original.accepted:
        if original.exhausted:
            raise EncodingBudgetError(EncodingCheck(original, None, None), max_depth)
        return EncodingCheck(original, None, None)
    enc = encode_program(prog)
    if any(type(e) is CtxAnno for e in subterms(enc.main)):
        encoded = typecheck_program(enc, max_depth=max_depth, ctx_anno=False)
    else:
        checker.ctx_anno_enabled = False
        encoded = _check_program(checker, enc)
    check = EncodingCheck(original, enc, encoded)
    if not encoded.accepted:
        if encoded.exhausted:
            raise EncodingBudgetError(check, max_depth)
        raise EncodingGapError(check)
    if prog.goal is None and not alpha_eq(
        original.checked_type, encoded.checked_type
    ):
        raise EncodingGapError(check)
    return check
