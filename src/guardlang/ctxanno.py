"""Contextual typing annotations and their translation into guards, merges,
right-hand annotations and `some` binders.

A contextual annotation carries typings `Gamma0 |- A0`; the subsumption
relation holds when the ambient context satisfies every declaration of
Gamma0: program-variable typings via subtyping of the looked-up type,
index-variable sortings by instantiating a well-sorted index expression
(found with the same metavariable machinery as Pi-left).

`encode` removes every contextual annotation: each typing becomes a branch
of a right-nested merge, its variable typings become guards, its index
sortings become `some` binders (the sorting behaves existentially, exactly
like the instantiation rule), around a right-hand annotation of the subject.
`verify_encoding` checks the translation end to end: whatever the
annotation-enabled checker accepts, the encoded program must pass with the
contextual rule disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

# `entails` and `solve_meta` are imported for the benchmark's tracer, which
# wraps them here.
from .indices import (
    NoSolution,
    entails,
    match_indices,
    solve_meta,
    sort_of,
)
from .subtyping import (
    Fail,
    Stats,
    SubDerivation,
    VerifyError,
    subtype,
    verify_subtyping,
)
from .syntax import (
    INDEX,
    Anno,
    Context,
    CtxAnno,
    CtxTyping,
    Decl,
    Guard,
    IMeta,
    IVar,
    IdxDecl,
    IndexExpr,
    Merge,
    MetaStore,
    Program,
    Signature,
    Some,
    TArrow,
    TAtom,
    TCon,
    TPi,
    TSect,
    TUnit,
    Term,
    Type,
    VarDecl,
    Zonker,
    alpha_eq,
    fresh_name,
    free_vars,
    rewrite,
    subst,
    zonk_type,
)
from .typecheck import (
    Checker,
    IllFormedType,
    Report,
    TypingDerivation,
    check_type_wf,
    typecheck_program,
)


@dataclass(frozen=True)
class CtxSubDerivation:
    """One node of a `(Gamma0 |- A0) <~ (Gamma |- A)` derivation."""

    rule: str  # "empty" | "ivar" | "pvar"
    inner: CtxTyping
    ctx_entries: tuple[Decl, ...]
    goal: Type  # the right-hand side's type A
    premises: tuple = ()
    witness: Optional[IndexExpr] = None

    def size(self) -> int:
        return 1 + sum(p.size() for p in self.premises)


def _wf_typing(ctx: Context, typing: CtxTyping) -> None:
    """Well-formedness of one contextual typing, with its own index
    sortings in scope for the later entries and the goal."""
    if not typing.entries:
        check_type_wf(ctx, typing.goal)
        return
    d0 = typing.entries[0]
    rest = CtxTyping(typing.entries[1:], typing.goal)
    if isinstance(d0, VarDecl):
        check_type_wf(ctx, d0.ty)
        _wf_typing(ctx, rest)
        return
    assert isinstance(d0, IdxDecl)
    name = d0.name
    if name in ctx.index_vars():
        name2 = fresh_name(name, ctx.index_vars() | free_vars(rest, INDEX))
        rest = subst(IVar(name2), name, rest)
        name = name2
    _wf_typing(ctx.extend(IdxDecl(name, d0.sort)), rest)


def _match_entries(
    ctx: Context,
    typing: CtxTyping,
    store: MetaStore,
    stats: Stats,
    max_depth: int,
    memo: Optional[dict] = None,
    ground: Optional[dict] = None,
) -> Union[tuple[CtxSubDerivation, Type], Fail]:
    """Process the inner context left to right, yielding the derivation and
    the substituted goal type (which may still mention the introduced
    metavariables until they are solved).  `memo` and `ground` are the
    subtyping memo and the table of metavariable-free objects to share, as
    in `subtype`."""
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
        sd = subtype(
            ctx, got, d0.ty, store=store, stats=stats, max_depth=max_depth,
            memo=memo, ground=ground,
        )
        if isinstance(sd, Fail):
            return Fail(
                "context does not entail {} : {}",
                d0.span,
                (sd,),
                args=(d0.name, d0.ty),
            )
        res = _match_entries(ctx, rest, store, stats, max_depth, memo, ground)
        if isinstance(res, Fail):
            return res
        subnode, goal = res
        return (
            CtxSubDerivation("pvar", typing, ctx.entries, goal, (sd, subnode)),
            goal,
        )
    assert isinstance(d0, IdxDecl)
    m = store.fresh(d0.sort, scope=ctx.index_vars())
    rest = subst(m, d0.name, rest)
    res = _match_entries(ctx, rest, store, stats, max_depth, memo, ground)
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


def _types_match(ctx, store, stats, a: Type, b: Type) -> bool:
    """Structural match up to index entailment on constructor indices."""
    a = zonk_type(store, a)
    b = zonk_type(store, b)
    match a, b:
        case TUnit(), TUnit():
            return True
        case TAtom(x), TAtom(y):
            return x == y
        case (TArrow(a1, b1), TArrow(a2, b2)) | (TSect(a1, b1), TSect(a2, b2)):
            return _types_match(ctx, store, stats, a1, a2) and _types_match(
                ctx, store, stats, b1, b2
            )
        case TCon(c1, i1), TCon(c2, i2):
            if c1 != c2:
                return False
            try:
                return match_indices(ctx, store, stats, i1, i2)
            except NoSolution:
                return False
        case TPi(v1, s1, b1), TPi(v2, s2, b2):
            if s1 != s2:
                return False
            fresh = fresh_name(
                v1,
                ctx.index_vars() | free_vars(b1, INDEX) | free_vars(b2, INDEX),
            )
            ctx2 = ctx.extend(IdxDecl(fresh, s1))
            return _types_match(
                ctx2,
                store,
                stats,
                subst(IVar(fresh), v1, b1),
                subst(IVar(fresh), v2, b2),
            )
    return False


def ctx_subsumes(
    inner: CtxTyping,
    ctx: Context,
    outer_goal: Type,
    *,
    store: Optional[MetaStore] = None,
    stats: Optional[Stats] = None,
    max_depth: int = 512,
) -> Union[CtxSubDerivation, Fail]:
    """Decide `(inner.entries |- inner.goal) <~ (ctx |- outer_goal)`."""
    if store is None:
        store = ctx.metas if ctx.metas is not None else MetaStore()
    if ctx.metas is not store:
        ctx = Context(ctx.sig, ctx.entries, store)
    if stats is None:
        stats = Stats()
    try:
        _wf_typing(ctx, inner)
    except IllFormedType as ex:
        return Fail(f"ill-formed contextual typing: {ex}", inner.span)
    mark = store.mark()
    res = _match_entries(ctx, inner, store, stats, max_depth)
    if isinstance(res, Fail):
        store.undo(mark)
        return res
    node, goal = res
    if not _types_match(ctx, store, stats, goal, outer_goal):
        store.undo(mark)
        return Fail(
            "contextual typing concludes {}, which does not match {}",
            inner.span,
            args=(zonk_type(store, goal), outer_goal),
        )
    unsolved = [
        w for w in _ivar_witnesses(node) if store.solution(w.uid) is None
    ]
    if unsolved:
        store.undo(mark)
        return Fail(
            "index instantiation of the contextual typing is undetermined",
            inner.span,
        )
    return Zonker(store).visit(node)


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
        res = _match_entries(
            ctx, typing, store, checker.stats, checker.max_depth,
            checker._sub_memo, checker._ground,
        )
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

    Raises EncodingGapError when the original is accepted but the encoded
    program is not (or, for goal-free programs, synthesizes a different type).
    """
    original = typecheck_program(prog, max_depth=max_depth, ctx_anno=True)
    if not original.accepted:
        return EncodingCheck(original, None, None)
    enc = encode_program(prog)
    encoded = typecheck_program(enc, max_depth=max_depth, ctx_anno=False)
    check = EncodingCheck(original, enc, encoded)
    if not encoded.accepted:
        raise EncodingGapError(check)
    if prog.goal is None and not alpha_eq(
        original.checked_type, encoded.checked_type
    ):
        raise EncodingGapError(check)
    return check


# ---------------------------------------------------------------------------
# Replay of ctx-anno derivation nodes (used by the independent verifier)


def verify_ctx_anno(sig: Signature, d: TypingDerivation) -> None:
    if not isinstance(d.term, CtxAnno) or d.branch is None:
        raise VerifyError("[ctx-anno] malformed node")
    node, chk = d.premises
    if not isinstance(node, CtxSubDerivation) or not isinstance(
        chk, TypingDerivation
    ):
        raise VerifyError("[ctx-anno] premises must be subsumption + checking")
    typing = d.term.typings[d.branch - 1]
    ctx = Context(sig, d.ctx_entries)
    goal = _replay_subsumption(sig, ctx, typing, node)
    if not _types_match(ctx, MetaStore(), Stats(), goal, d.ty):
        raise VerifyError("[ctx-anno] substituted goal differs from conclusion")
    if not (
        chk.mode == "check"
        and alpha_eq(chk.term, d.term.body)
        and alpha_eq(chk.ty, d.ty)
    ):
        raise VerifyError("[ctx-anno] checking premise mismatch")


def _replay_subsumption(
    sig: Signature, ctx: Context, typing: CtxTyping, node: CtxSubDerivation
) -> Type:
    cur = typing
    n = node
    while True:
        if n.rule == "empty":
            if cur.entries:
                raise VerifyError("[<~ empty] entries remain")
            return cur.goal
        if not cur.entries:
            raise VerifyError(f"[<~ {n.rule}] no entries remain")
        d0 = cur.entries[0]
        rest = CtxTyping(cur.entries[1:], cur.goal)
        if n.rule == "pvar":
            if not isinstance(d0, VarDecl):
                raise VerifyError("[<~ pvar] entry is not a variable typing")
            sd = n.premises[0]
            if not isinstance(sd, SubDerivation):
                raise VerifyError("[<~ pvar] missing subtyping premise")
            looked = ctx.lookup_var(d0.name)
            if looked is None or not (
                alpha_eq(sd.lhs, looked) and alpha_eq(sd.rhs, d0.ty)
            ):
                raise VerifyError("[<~ pvar] subtyping premise mismatch")
            verify_subtyping(sig, sd)
            cur = rest
            n = n.premises[1]
        elif n.rule == "ivar":
            if not isinstance(d0, IdxDecl):
                raise VerifyError("[<~ ivar] entry is not an index sorting")
            if n.witness is None:
                raise VerifyError("[<~ ivar] missing witness")
            if sort_of(ctx, n.witness) != d0.sort:
                raise VerifyError("[<~ ivar] witness sort mismatch")
            cur = subst(n.witness, d0.name, rest)
            n = n.premises[0]
        else:
            raise VerifyError(f"unknown subsumption rule {n.rule!r}")
