"""Independent replay of derivations: the trusted base of `check --certify`.

A program is accepted when the checker returns a derivation that
`verify_typing` replays.  This module holds the two kinds of derivation
node and one checker for both; it imports the syntax, the index domain and
the printer, and nothing of the search.  A node is checked by one function
per rule, picked by the rule's name, after its premises.  A derivation is a
DAG (memoized results are shared), and each distinct node is replayed once
per pass.  Nodes are slotted records (`syntax.record`), never mutated after
construction, that carry the metavariable bit of their fields, as syntax
does: zonking stops at a ground one without walking it.

- Typing (`TypingDerivation`): var, prim, unit-i, arrow-i, arrow-e, sect-i,
  sect-e, sub, merge-chk, merge-syn, right-anno, guard-chk, guard-syn, ivar
  (the evidence of an index guard), pi-i, pi-i-explicit, pi-e, some and
  ctx-anno.  The branch k of a merge or sect-e node, as of a sect-l node,
  is leaf k of a right spine (`syntax.spine`).  A contextual annotation is
  derived through its encoding: the one premise of ctx-anno synthesizes the
  node's type for the branch that `syntax.encode_typing` builds from the
  chosen typing.
- Subtyping (`SubDerivation`): refl, atom, arrow, sect-r, sect-l, ilr, pi-r
  and pi-l.

The context invariant: a premise is derived in its conclusion's context,
except that of a binding rule (arrow-i, pi-i, pi-i-explicit, pi-r), whose
context adds exactly the declaration the rule binds, under a new name.

The instance of a Pi body (pi-e, pi-i, pi-i-explicit, pi-r, pi-l) is
matched by `inst_eq` without being built; term-level premises (arrow-i,
pi-i-explicit, some) build the substitution and use `alpha_eq`.
An `ilr` equation holds at once when its sides are equal, else when their
linear normal forms are.
"""

from __future__ import annotations

from typing import Optional

from .indices import UnboundIndexVariable, entails, sort_of
from .parser import pretty
from .syntax import (
    _ATOMIC, _FIELDS, INDEX, Anno, App, Context, CtxAnno, Decl, Guard, IVar, IdxDecl,
    IdxLam, IndexExpr, Lam, Merge, MetaStore, Prim, Signature, Some, TArrow, TAtom,
    TCon, TPi, TSect, TUnit, Term, Type, Unit, Var, VarDecl, _aeq, _bind, alpha_eq,
    encode_typing, record, subst, zonk,
)


class VerifyError(Exception):
    pass


class _Node:
    __slots__ = ("_metas",)  # the metavariable bit, set by the constructor

    def size(self) -> int:
        return 1 + sum(p.size() for p in self.premises)


@record
class TypingDerivation(_Node):
    """One node of a typing derivation: `ctx_entries |- term <= ty` or
    `=> ty` by `rule`, from its premises.  Nodes share their terms, types
    and context tuples with the program and each other, and a premise may
    be shared by several parents; `zonked` keeps that sharing."""

    rule: str
    mode: str  # "check" | "synth"
    ctx_entries: tuple[Decl, ...]
    term: Term
    ty: Optional[Type]
    premises: tuple = ()
    witness: Optional[IndexExpr] = None
    branch: Optional[int] = None

    def zonked(self, store: MetaStore) -> "TypingDerivation":
        """This derivation with the solved metavariables replaced."""
        return zonk(store, self)


@record
class SubDerivation(_Node):
    rule: str
    ctx_entries: tuple[Decl, ...]
    lhs: Type
    rhs: Type
    premises: tuple["SubDerivation", ...] = ()
    witness: Optional[IndexExpr] = None
    branch: Optional[int] = None


def verify_typing(sig: Signature, d) -> None:
    """Replay d, a ground derivation node of either kind, and its premises;
    raises VerifyError at the first node that does not replay."""
    if not isinstance(d, _Node):
        raise VerifyError(f"not a derivation: {d!r}")
    _replay(sig, d, set())


def _replay(sig: Signature, d, seen: set) -> None:
    # One frame per derivation level.  The premises are replayed before the
    # node's rule is checked, once their kinds and contexts are.
    seen.add(id(d))
    rule = _RULES.get((type(d), d.rule))
    if rule is None:
        raise VerifyError(f"unknown rule {d.rule!r}")
    check, kinds, binds = rule
    ps, ctx, msg = d.premises, d.ctx_entries, None
    if tuple(map(type, ps)) != kinds:
        msg = "premises of the wrong kind"
    elif binds:
        pctx = ps[0].ctx_entries
        if len(pctx) != len(ctx) + 1 or pctx[:-1] != ctx:
            msg = "premise context is not one declaration more"
        elif any(type(x) is type(pctx[-1]) and x.name == pctx[-1].name for x in ctx):
            msg = "the bound variable is already declared"
    else:
        for p in ps:
            if p.ctx_entries is not ctx and p.ctx_entries != ctx:
                msg = "premise context differs"
    if msg is None:
        for p in ps:
            if id(p) not in seen:
                _replay(sig, p, seen)
        msg = check(sig, d)
    if msg is not None:
        where = f": {pretty(d.term)}" if type(d) is TypingDerivation else ""
        raise VerifyError(f"[{d.rule}] {msg}{where}")


_NONE: dict = {}  # no variable bound; never written to


def _lookup(ctx: tuple, cls: type, name: str):
    for d in ctx:
        if type(d) is cls and d.name == name:
            return d
    return None


def _bad_witness(sig: Signature, d, sort) -> Optional[str]:
    try:
        if sort_of(Context(sig, d.ctx_entries), d.witness) == sort:
            return None
    except (UnboundIndexVariable, TypeError):  # a free variable, or no index
        pass
    return f"the witness is not an index of sort {sort} here"


def inst_eq(x, y, var: str, w: IndexExpr, lmap=_NONE, rmap=_NONE, depth=0) -> bool:
    """Whether y is alpha-equivalent to `subst(w, var, x)`, for a type x,
    walking the two with the binder maps of `syntax._aeq` instead of building
    the substitution.  No binder of y may capture a free variable of w, and
    no part of x is taken to be equal to itself."""
    cls = type(x)
    if cls is IVar:
        if x.name == var and (INDEX, var) not in lmap:
            return _aeq(w, y, rmap if not rmap else _NONE, rmap, depth)
        return _aeq(x, y, lmap, rmap, depth)
    if cls is not type(y):
        return False
    if cls is TPi:
        if x.sort != y.sort:
            return False
        lmap, rmap = _bind(lmap, rmap, INDEX, x.var, y.var, depth)
        if x.var == var:  # var is shadowed: the body is left as it is
            return _aeq(x.body, y.body, lmap, rmap, depth + 1)
        return inst_eq(x.body, y.body, var, w, lmap, rmap, depth + 1)
    for name in _FIELDS[cls]:
        a, b = getattr(x, name), getattr(y, name)
        if isinstance(a, _ATOMIC):
            if a != b:
                return False
        elif not inst_eq(a, b, var, w, lmap, rmap, depth):
            return False
    return True


# The rules.  Each returns None when its node replays, else the reason.


def _sides(d) -> tuple:
    """The subject and the object of d's judgment: its term and its type, or
    the two sides of its subtyping."""
    return (d.lhs, d.rhs) if type(d) is SubDerivation else (d.term, d.ty)


def _is(p, x, y) -> bool:
    """Whether the sides of premise p are x and y."""
    if type(p) is SubDerivation:
        return alpha_eq(p.lhs, x) and alpha_eq(p.rhs, y)
    return alpha_eq(p.term, x) and alpha_eq(p.ty, y)


def _var(sig, d):
    got = _lookup(d.ctx_entries, VarDecl, d.term.name) if type(d.term) is Var else None
    if d.mode != "synth" or got is None or (got.ty is not d.ty and got.ty != d.ty):
        return "context lookup differs"


def _prim(sig, d):
    got = sig.prims.get(d.term.name) if type(d.term) is Prim else None
    if d.mode != "synth" or got is None or (got is not d.ty and got != d.ty):
        return "declared primitive type differs"


def _unit_i(sig, d):
    if type(d.term) is not Unit or type(d.ty) is not TUnit:
        return "shape"


def _arrow_i(sig, d):
    e, ty, (p,) = d.term, d.ty, d.premises
    last = p.ctx_entries[-1]
    if type(e) is not Lam or type(ty) is not TArrow or type(last) is not VarDecl:
        return "shape"
    body = subst(Var(last.name), e.var, e.body)
    if not (alpha_eq(last.ty, ty.arg) and _is(p, body, ty.res)):
        return "bound variable type or premise"


def _sect_right(sig, d):
    # sect-i and sect-r: the object is an intersection, split by the premises.
    (x, t), (p1, p2) = _sides(d), d.premises
    if type(t) is not TSect or not (_is(p1, x, t.lhs) and _is(p2, x, t.rhs)):
        return "premises are not the conjuncts"


def _leaf(x, k):
    """Leaf k of x's right spine (`syntax.spine`), or None; builds no list."""
    cls, i = type(x), 1
    while type(x) is cls:
        if i == k:
            return x.lhs
        x, i = x.rhs, i + 1
    return x if i == k else None


def _sect_e(sig, d):
    (p,) = d.premises
    if type(p.ty) is not TSect or not alpha_eq(p.term, d.term):
        return "premise"
    x = _leaf(p.ty, d.branch)
    if x is None or not alpha_eq(d.ty, x):
        return "projection differs"


def _sub(sig, d):
    p, s = d.premises
    if p.mode != "synth" or not (alpha_eq(p.term, d.term) and _is(s, p.ty, d.ty)):
        return "synthesis premise or subtyping premise"


def _merge(sig, d):
    e, (p,) = d.term, d.premises
    x = _leaf(e, d.branch) if type(e) is Merge else None
    if x is None or not _is(p, x, d.ty):
        return "premise is not the branch"


def _right_anno(sig, d):
    e, (p,) = d.term, d.premises
    if d.mode != "synth" or p.mode != "check" or type(e) is not Anno or not (
        alpha_eq(d.ty, e.ty) and _is(p, e.body, e.ty)
    ):
        return "synthesized type or premise is not the annotation"


def _guard(sig, d):
    e, (ev, p) = d.term, d.premises
    if type(e) is not Guard or not _is(p, e.body, d.ty):
        return "body premise"
    decl = e.decl
    if type(ev.term) is not Var or ev.term.name != decl.name:
        return "guard evidence is about another variable"
    if not (
        ev.rule == "sub" and alpha_eq(ev.ty, decl.ty) if type(decl) is VarDecl
        else ev.rule == "ivar" and _lookup(d.ctx_entries, IdxDecl, decl.name) == decl
    ):
        return "guard evidence does not check the subject"


def _ivar(sig, d):
    e = d.term
    got = _lookup(d.ctx_entries, IdxDecl, e.name) if type(e) is Var else None
    if got is None or d.ty is not None:
        return "index variable not in context"


def _pi_right(sig, d):
    # pi-i and pi-r: the object is a Pi, instantiated by the bound variable.
    (x, t), (p,) = _sides(d), d.premises
    (y, u), last = _sides(p), p.ctx_entries[-1]
    if type(t) is not TPi or type(last) is not IdxDecl or last.sort != t.sort:
        return "bound sort"
    if not (alpha_eq(y, x) and inst_eq(t.body, u, t.var, IVar(last.name))):
        return "premise"


def _pi_i_explicit(sig, d):
    e, ty, (p,) = d.term, d.ty, d.premises
    last = p.ctx_entries[-1]
    if type(e) is not IdxLam or type(ty) is not TPi or type(last) is not IdxDecl:
        return "shape"
    if not e.sort == ty.sort == last.sort:
        return "bound sort"
    a = IVar(last.name)
    body = subst(a, e.var, e.body)
    if not (alpha_eq(p.term, body) and inst_eq(ty.body, p.ty, ty.var, a)):
        return "premise"


def _pi_e(sig, d):
    (p,) = d.premises
    pi = p.ty
    if type(pi) is not TPi or not alpha_eq(p.term, d.term):
        return "premise not a Pi on the term"
    bad = _bad_witness(sig, d, pi.sort)
    if bad is None and not inst_eq(pi.body, d.ty, pi.var, d.witness):
        return "instantiation differs"
    return bad


def _some(sig, d):
    e, (p,) = d.term, d.premises
    if type(e) is not Some:
        return "shape"
    bad = _bad_witness(sig, d, e.sort)
    if bad is None and not _is(p, subst(d.witness, e.var, e.body), d.ty):
        return "premise is not the substituted body"
    return bad


def _arrow_e(sig, d):
    e, (p1, p2) = d.term, d.premises
    fty = p1.ty
    if type(e) is not App or type(fty) is not TArrow or not alpha_eq(p1.term, e.fn):
        return "function premise"
    if p2.mode != "check" or not (_is(p2, e.arg, fty.arg) and alpha_eq(d.ty, fty.res)):
        return "argument premise or result type"


def _ctx_anno(sig, d):
    e, (p,) = d.term, d.premises
    if type(e) is not CtxAnno or d.branch not in range(1, len(e.typings) + 1):
        return "malformed node"
    branch = encode_typing(e.typings[d.branch - 1], e.body)
    if p.mode != "synth" or not _is(p, branch, d.ty):
        return "premise does not synthesize the chosen typing's encoding"


def _refl(sig, d):
    if not alpha_eq(d.lhs, d.rhs):
        return "refl on unequal types"


def _atom(sig, d):
    a, b = d.lhs, d.rhs
    if not (type(a) is TAtom and type(b) is TAtom and sig.atom_le(a.name, b.name)):
        return "atom order does not hold"


def _sub_arrow(sig, d):
    a, b, (p1, p2) = d.lhs, d.rhs, d.premises
    if type(a) is not TArrow or type(b) is not TArrow:
        return "not arrows"
    if not (_is(p1, b.arg, a.arg) and _is(p2, a.res, b.res)):
        return "arrow premise mismatch"


def _sect_l(sig, d):
    a, (p,) = d.lhs, d.premises
    if type(a) is not TSect:
        return "sect-l on non-intersection"
    x = _leaf(a, d.branch)
    if x is None or not _is(p, x, d.rhs):
        return "sect-l premise"


def _ilr(sig, d):
    a, b = d.lhs, d.rhs
    if not (type(a) is TCon and type(b) is TCon and a.con == b.con) or (
        a.index is not b.index and a.index != b.index and not entails(a.index, b.index)
    ):
        return "ilr index equality not entailed"


def _pi_l(sig, d):
    a, (p,) = d.lhs, d.premises
    if type(a) is not TPi or not alpha_eq(p.rhs, d.rhs):
        return "pi-l premise"
    bad = _bad_witness(sig, d, a.sort)
    if bad is None and not inst_eq(a.body, p.lhs, a.var, d.witness):
        return "pi-l instantiation differs"
    return bad


# (kind of node, rule) -> (check, the kinds of the premises, whether the
# premise's context adds a declaration).
_T, _S = TypingDerivation, SubDerivation
_RULES: dict[tuple[type, str], tuple] = {
    (_T, "var"): (_var, (), False),
    (_T, "prim"): (_prim, (), False),
    (_T, "unit-i"): (_unit_i, (), False),
    (_T, "arrow-i"): (_arrow_i, (_T,), True),
    (_T, "arrow-e"): (_arrow_e, (_T, _T), False),
    (_T, "sect-i"): (_sect_right, (_T, _T), False),
    (_T, "sect-e"): (_sect_e, (_T,), False),
    (_T, "sub"): (_sub, (_T, _S), False),
    (_T, "merge-chk"): (_merge, (_T,), False),
    (_T, "merge-syn"): (_merge, (_T,), False),
    (_T, "right-anno"): (_right_anno, (_T,), False),
    (_T, "guard-chk"): (_guard, (_T, _T), False),
    (_T, "guard-syn"): (_guard, (_T, _T), False),
    (_T, "ivar"): (_ivar, (), False),
    (_T, "pi-i"): (_pi_right, (_T,), True),
    (_T, "pi-i-explicit"): (_pi_i_explicit, (_T,), True),
    (_T, "pi-e"): (_pi_e, (_T,), False),
    (_T, "some"): (_some, (_T,), False),
    (_T, "ctx-anno"): (_ctx_anno, (_T,), False),
    (_S, "refl"): (_refl, (), False),
    (_S, "atom"): (_atom, (), False),
    (_S, "arrow"): (_sub_arrow, (_S, _S), False),
    (_S, "sect-r"): (_sect_right, (_S, _S), False),
    (_S, "sect-l"): (_sect_l, (_S,), False),
    (_S, "ilr"): (_ilr, (), False),
    (_S, "pi-r"): (_pi_right, (_S,), True),
    (_S, "pi-l"): (_pi_l, (_S,), False),
}
