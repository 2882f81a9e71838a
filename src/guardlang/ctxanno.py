"""Contextual typing annotations and their translation into guards, merges,
right-hand annotations and `some` binders.

A contextual annotation carries typings `Gamma0 |- A0`, each a chain of
one node per entry (`syntax.CtxIdx`, `syntax.CtxVar`) ending in the goal
(`syntax.CtxGoal`).  Each typing is a branch of the annotation's encoding,
a right-nested merge (`syntax.encode_typing`): its variable typings become
guards and its sortings `some` binders, around a right-hand annotation of
the subject, and a sorting named like an index variable free in the
subject is renamed rather than capture it.

`check_ctx_anno`, the synthesis rule, picks among the typings' branches
with merge-syn's own loop, so no typing is committed to; its derivation is
its branch's under a `ctx-anno` node, which `replay` checks against
`encode_typing`.  `encode` removes every contextual annotation, and
`verify_encoding` checks the translation end to end, in both directions, on
one checker (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

# `entails`, `solve_meta`, `subtype` and `typecheck_program` are imported
# for the benchmark's tracer, which wraps them here.
from .indices import entails, solve_meta
from .subtyping import Fail, subtype
from .syntax import (
    Context,
    CtxAnno,
    Merge,
    Program,
    Term,
    Type,
    alpha_eq,
    encode_typing,
    rewrite,
    subterms,
)
from .typecheck import (
    Checker,
    Report,
    TypingDerivation,
    _check_program,
    typecheck_program,
)


def check_ctx_anno(
    checker: Checker, ctx: Context, e: CtxAnno, fails: list[Fail]
) -> Iterator[tuple[Type, TypingDerivation]]:
    """Synthesis rule for contextual annotations: merge-syn's loop
    (`Checker._synth_branches`) over the typings' encoded branches, built
    once per occurrence and checker.  Each type branch k gives, the
    annotation gives by a `ctx-anno` node with `branch=k`; when none gives
    one, one failure at the annotation holds the branches' failures."""
    alts = checker._alternatives((e, e.span), e, _encoded_branches)
    reasons: list = []
    d = None
    for k, ty, d in checker._synth_branches(ctx, alts, reasons):
        yield ty, TypingDerivation("ctx-anno", "synth", ctx.entries, e, ty, (d,), branch=k)
    if d is None:
        reasons = [Fail("no contextual typing applies", e.span, tuple(reasons))]
    fails.extend(reasons)


def _encoded_branches(e: CtxAnno) -> tuple[Term, ...]:
    return tuple(encode_typing(t, e.body) for t in e.typings)


# ---------------------------------------------------------------------------
# Translation into the elementary mechanisms


def encode(e: Term) -> Term:
    """Remove every contextual annotation; all other forms map homomorphically."""
    return rewrite(e, _encode_hook, None)


def _encode_hook(e, state):
    if type(e) is CtxAnno:
        subject = rewrite(e.body, _encode_hook, state)
        out, *rest = reversed([encode_typing(t, subject) for t in e.typings])
        for b in rest:
            out = Merge(b, out)
        return out
    return state if isinstance(e, Term) else e


def encode_program(prog: Program) -> Program:
    return Program(prog.sig, encode(prog.main), prog.goal, path=prog.path)


@dataclass
class EncodingCheck:
    original: Report
    encoded_program: Optional[Program]
    encoded: Optional[Report]

    @property
    def gap(self) -> bool:
        return self.encoded is not None and self.original.accepted != self.encoded.accepted

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
    """The encoding keeps a contextual annotation, or the original program
    and its encoding got different verdicts or synthesize different types.
    Where the encoding is checked, the goal may determine an encoded `some`
    binder, while the contextual rule, a synthesis rule, has no goal: a
    program that only its encoding accepts for that reason shows the one
    known difference of the two.  Any other gap is a bug."""

    def __init__(self, check: EncodingCheck) -> None:
        original, encoded = check.original, check.encoded
        if encoded is None:
            detail = "the encoded program keeps a contextual annotation"
        elif original.accepted == encoded.accepted:
            detail = "the encoded program synthesizes another type"
        else:
            rejected = encoded if original.accepted else original
            detail = (
                f"only the {'original' if original.accepted else 'encoded'} program "
                "is accepted: " + "; ".join(d.message for d in rejected.diagnostics[:4])
            )
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
    """Typecheck, translate, check the translation, and compare the verdicts.

    Both checks run on one `Checker`, so the second reuses what the first
    decided: the checking, candidate and subtyping memos and the
    metavariable store.  `encode` returns every subterm outside a `CtxAnno`
    as the same object, so for the encoded program only what the
    translation built is derived again.  This is sound because memo entries
    hold for any program over the same signature.

    Raises EncodingGapError, before the encoded program is checked, when it
    keeps a contextual annotation (a bug of the translation); after, when
    one of the two programs is accepted and the other rejected for a type
    error, or when goal-free programs synthesize different types.  Raises
    EncodingBudgetError instead when either check ran out of budget.
    """
    checker = Checker(prog.sig, max_depth=max_depth)
    original = _check_program(checker, prog)
    if original.exhausted:
        raise EncodingBudgetError(EncodingCheck(original, None, None), max_depth)
    enc = encode_program(prog)
    if any(type(e) is CtxAnno for e in subterms(enc.main)):
        raise EncodingGapError(EncodingCheck(original, enc, None))
    encoded = _check_program(checker, enc)
    check = EncodingCheck(original, enc, encoded)
    if encoded.exhausted:
        raise EncodingBudgetError(check, max_depth)
    if check.gap or original.accepted and prog.goal is None and not alpha_eq(
        original.checked_type, encoded.checked_type
    ):
        raise EncodingGapError(check)
    return check
