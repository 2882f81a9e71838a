"""Contextual typing annotations and their translation into guards, merges,
right-hand annotations and `some` binders.

A contextual annotation carries typings `Gamma0 |- A0`, each a chain of
one node per entry (`syntax.CtxIdx`, `syntax.CtxVar`) ending in the goal
(`syntax.CtxGoal`).  Whether the ambient context satisfies `Gamma0` is
decided in one place, inside the synthesis rule `check_ctx_anno`:
program-variable typings by subtyping of the looked-up type, index-variable
sortings by instantiating them with metavariables, which the variable
typings must solve (as Pi-left does).  Each typing that applies, and whose
goal the subject checks against, gives a type the term synthesizes; no
typing is committed to, so a later one is tried when an earlier one fails.

`encode` removes every contextual annotation: each typing becomes a branch
of a right-nested merge (`syntax.encode_typing`), its variable typings
become guards, its index sortings become `some` binders, around a
right-hand annotation of the subject.  A `some` binder wraps the subject,
so a sorting named like an index variable free in the subject is renamed
rather than capture it.  The derivation of a contextual annotation is that
of the chosen typing's branch, under a `ctx-anno` node: `replay` checks that
the branch is the encoding of that typing and knows no other judgment for
it.  `verify_encoding` checks the translation end to end, in both
directions, on one checker (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

# `entails`, `solve_meta` and `subtype` are imported for the benchmark's
# tracer, which wraps them here.
from .indices import entails, solve_meta
from .subtyping import Fail, subtype
from .syntax import (
    Context,
    CtxAnno,
    CtxGoal,
    CtxIdx,
    IMeta,
    Merge,
    Program,
    Term,
    Type,
    alpha_eq,
    encode_typing,
    instantiate,
    rewrite,
    subst_meta,
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
    var_evidence,
)


def check_ctx_anno(
    checker: Checker, ctx: Context, e: CtxAnno, fails: list[Fail]
) -> Iterator[tuple[Type, TypingDerivation]]:
    """Synthesis rule for contextual annotations.

    Typings are tried in order, as the branches of a merge are.  A typing
    applies when its variable typings hold and determine every index
    instantiation; each that applies, and whose goal the subject checks
    against, yields that goal.
    """
    store = checker.metas
    reasons: list[Fail] = []
    applied = False
    for k, typing in enumerate(e.typings, 1):
        try:
            check_type_wf(ctx, typing)
        except IllFormedType as ex:
            reasons.append(Fail(f"typing {k} is ill-formed: {ex}", typing.span))
            continue
        mark = store.mark()
        # Per entry: the evidence of a variable typing, or the metavariable
        # that instantiates a sorting in the rest of the typing.
        steps: list = []
        tel, unmet = typing, None
        while type(tel) is not CtxGoal and unmet is None:
            if type(tel) is CtxIdx:
                m, tel = instantiate(
                    store, ctx.index_vars(), tel.var, tel.sort, tel.body, tel.span
                )
                steps.append(m)
                continue
            d0, tel = tel.decl, tel.body
            got = ctx.lookup_var(d0.name)
            if got is None:
                unmet = Fail(
                    f"contextual typing requires '{d0.name}', which is not in scope",
                    d0.span,
                )
            elif isinstance(sd := checker._subtype(ctx, got, d0.ty), Fail):
                unmet = Fail(
                    "context does not entail {} : {}", d0.span, (sd,), args=(d0.name, d0.ty)
                )
            else:
                steps.append(var_evidence(ctx, d0, got, sd))
        if unmet is not None:
            reasons.append(Fail(f"typing {k} does not apply", typing.span, (unmet,)))
        elif any(type(s) is IMeta and store.solution(s.uid) is None for s in steps):
            reasons.append(
                Fail(f"typing {k}: index instantiation undetermined", typing.span)
            )
        else:
            applied = True
            goal = zonk(store, tel.ty)
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
            else:
                branch = _branch_derivation(store, ctx, e, typing, steps, goal, d)
                yield goal, TypingDerivation(
                    "ctx-anno", "synth", ctx.entries, e, goal, (branch,), branch=k
                )
        store.undo(mark)
        checker.stats.backtracks += 1
    if not applied:
        fails.append(Fail("no contextual typing applies", e.span, tuple(reasons)))


def _branch_derivation(store, ctx, e, typing, steps, goal, d) -> TypingDerivation:
    """The derivation that typing's branch of the encoding synthesizes goal:
    a `some` node per sorting, whose witness is its metavariable, a
    `guard-syn` node per variable typing, holding its evidence, and
    `right-anno` over d, the subject's check."""
    terms = [encode_typing(typing, e.body)]
    for s in steps:
        t = terms[-1]
        terms.append(subst_meta(store, s, t.var, t.body) if type(s) is IMeta else t.body)
    out = TypingDerivation("right-anno", "synth", ctx.entries, terms[-1], goal, (d,))
    for t, s in zip(reversed(terms[:-1]), reversed(steps)):
        if type(s) is IMeta:
            out = TypingDerivation("some", "synth", ctx.entries, t, goal, (out,), witness=s)
        else:
            out = TypingDerivation("guard-syn", "synth", ctx.entries, t, goal, (s, out))
    return out


# ---------------------------------------------------------------------------
# Translation into the elementary mechanisms


def encode(e: Term) -> Term:
    """Remove every contextual annotation; all other forms map homomorphically."""
    return rewrite(e, _encode_hook, None)


def _encode_hook(e, state):
    if type(e) is CtxAnno:
        subject = rewrite(e.body, _encode_hook, state)
        branches = [encode_typing(t, subject) for t in e.typings]
        out = branches[-1]
        for b in reversed(branches[:-1]):
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
    """The original program and its encoding got different verdicts, or
    synthesize different types.  An encoded `some` binder may be determined
    by the subject, where the contextual rule needs its sorting determined by
    the typing's own variable typings: a program that only its encoding
    accepts for that reason shows the one known difference of the two.
    Any other gap is a bug."""

    def __init__(self, check: EncodingCheck) -> None:
        original, encoded = check.original, check.encoded
        if original.accepted == encoded.accepted:
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
    """Typecheck with contextual annotations, translate, re-check without,
    and compare the verdicts.

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

    Raises EncodingGapError when one of the two programs is accepted and the
    other rejected for a type error, or when goal-free programs synthesize
    different types; EncodingBudgetError instead when either check ran out
    of budget.
    """
    checker = Checker(prog.sig, max_depth=max_depth, ctx_anno=True)
    original = _check_program(checker, prog)
    if original.exhausted:
        raise EncodingBudgetError(EncodingCheck(original, None, None), max_depth)
    enc = encode_program(prog)
    if any(type(e) is CtxAnno for e in subterms(enc.main)):
        encoded = typecheck_program(enc, max_depth=max_depth, ctx_anno=False)
    else:
        checker.ctx_anno_enabled = False
        encoded = _check_program(checker, enc)
    check = EncodingCheck(original, enc, encoded)
    if encoded.exhausted:
        raise EncodingBudgetError(check, max_depth)
    if check.gap or original.accepted and prog.goal is None and not alpha_eq(
        original.checked_type, encoded.checked_type
    ):
        raise EncodingGapError(check)
    return check
