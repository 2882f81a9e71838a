"""Contextual typing annotations and their translation into guards, merges,
right-hand annotations and `some` binders.

A contextual annotation carries typings `Gamma0 |- A0`.  Whether the ambient
context satisfies `Gamma0` is decided in one place, inside the synthesis
rule `check_ctx_anno`: program-variable typings by subtyping of the
looked-up type, index-variable sortings by instantiating a well-sorted index
expression (found with the same metavariable machinery as Pi-left).  The
first typing that applies, with every index instantiation solved, gives the
type the term synthesizes.  Replaying a ctx-anno node (`replay`)
substitutes the recorded witnesses into the typing and compares the result
with the node's type by `alpha_eq`.

`encode` removes every contextual annotation: each typing becomes a branch
of a right-nested merge, its variable typings become guards, its index
sortings become `some` binders (the sorting behaves existentially, exactly
like the instantiation rule), around a right-hand annotation of the subject.
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
# `verify_ctx_anno` (the replay) is kept here for its callers.
from .replay import CtxSubDerivation, verify_typing as verify_ctx_anno
from .subtyping import Fail, subtype
from .syntax import (
    Anno,
    Context,
    CtxAnno,
    CtxTyping,
    Guard,
    IMeta,
    IdxDecl,
    Merge,
    Program,
    Some,
    TArrow,
    TPi,
    Term,
    Type,
    VarDecl,
    alpha_eq,
    rewrite,
    subst,
    subterms,
    zonk_type,
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


def _wf_typing(ctx: Context, typing: CtxTyping) -> None:
    """Well-formedness of one contextual typing `d1, ..., dn |- A`: that of
    the type which reads each `a : s` as `Pi a : s .` and each `x : B` as
    `B ->`, so each sorting is in scope for the later entries and the goal."""
    ty = typing.goal
    for d in reversed(typing.entries):
        ty = TPi(d.name, d.sort, ty) if isinstance(d, IdxDecl) else TArrow(d.ty, ty)
    check_type_wf(ctx, ty)


def _match_entries(
    checker: Checker, ctx: Context, typing: CtxTyping
) -> Union[tuple[CtxSubDerivation, Type], Fail]:
    """Process the inner context left to right, yielding the derivation and
    the substituted goal type (which may still mention the introduced
    metavariables until they are solved)."""
    if not typing.entries:
        node = CtxSubDerivation("empty", typing, ctx.entries, typing.goal)
        return node, typing.goal
    d0 = typing.entries[0]
    rest = CtxTyping(typing.entries[1:], typing.goal)
    if isinstance(d0, VarDecl):
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
        res = _match_entries(checker, ctx, rest)
        if isinstance(res, Fail):
            return res
        subnode, goal = res
        return (
            CtxSubDerivation("pvar", typing, ctx.entries, goal, (sd, subnode)),
            goal,
        )
    assert isinstance(d0, IdxDecl)
    m = checker.metas.fresh(d0.sort, scope=ctx.index_vars())
    rest = subst(m, d0.name, rest)
    res = _match_entries(checker, ctx, rest)
    if isinstance(res, Fail):
        return res
    subnode, goal = res
    return (
        CtxSubDerivation("ivar", typing, ctx.entries, goal, (subnode,), witness=m),
        goal,
    )


def _ivar_witnesses(node: CtxSubDerivation) -> list[IMeta]:
    out = []
    cur = node
    while True:
        if cur.rule == "ivar":
            assert isinstance(cur.witness, IMeta)
            out.append(cur.witness)
            cur = cur.premises[0]
        elif cur.rule == "pvar":
            cur = cur.premises[1]
        else:
            return out


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
            _wf_typing(ctx, typing)
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
        node, goal = res
        unsolved = [
            w for w in _ivar_witnesses(node) if store.solution(w.uid) is None
        ]
        if unsolved:
            reasons.append(
                Fail(
                    f"typing {k}: index instantiation undetermined",
                    typing.span,
                )
            )
            store.undo(mark)
            checker.stats.backtracks += 1
            continue
        goal = zonk_type(store, goal)
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
    out: Term = Anno(subject, t.goal)
    for d in reversed(t.entries):
        if isinstance(d, VarDecl):
            out = Guard(d, out)
        else:
            out = Some(d.name, d.sort, out)
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


def verify_encoding(prog: Program, *, max_depth: int = 512) -> EncodingCheck:
    """Typecheck with contextual annotations, translate, re-check without.

    Both checks run on one `Checker`, so the second reuses what the first
    decided: the checking, candidate and subtyping memos, the table of
    ground objects and the metavariable store.  `encode` returns every
    subterm outside a `CtxAnno` as the same object, so for the encoded
    program only what the translation built is derived again.  This is
    sound because the checker reads its contextual-annotation switch only at
    a `CtxAnno` node, and the encoded program holds none: no memo entry that
    a query of the second check can match depends on the switch.  The store
    carries over with its stamp, so an entry kept for one store state is
    reused only in that very state.  An encoded program that still holds a
    `CtxAnno` (a bug of the translation) is checked on a fresh checker
    instead, which rejects the annotation.

    Raises EncodingGapError when the original is accepted but the encoded
    program is not (or, for goal-free programs, synthesizes a different type).
    """
    checker = Checker(prog.sig, max_depth=max_depth, ctx_anno=True)
    original = _check_program(checker, prog)
    if not original.accepted:
        return EncodingCheck(original, None, None)
    enc = encode_program(prog)
    if any(type(e) is CtxAnno for e in subterms(enc.main)):
        encoded = typecheck_program(enc, max_depth=max_depth, ctx_anno=False)
    else:
        checker.ctx_anno_enabled = False
        encoded = _check_program(checker, enc)
    check = EncodingCheck(original, enc, encoded)
    if not encoded.accepted:
        raise EncodingGapError(check)
    if prog.goal is None and not alpha_eq(
        original.checked_type, encoded.checked_type
    ):
        raise EncodingGapError(check)
    return check
