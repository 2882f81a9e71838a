"""Hypothesis strategies for randomized syntax."""

from __future__ import annotations

from hypothesis import strategies as st

from guardlang.syntax import (
    Anno,
    App,
    CtxAnno,
    CtxTyping,
    Guard,
    INDEX,
    IAdd,
    ILit,
    IMul,
    INT,
    ISub,
    IVar,
    IdxDecl,
    IdxLam,
    Lam,
    Merge,
    Prim,
    Some,
    TAtom,
    TArrow,
    TCon,
    TPi,
    TSect,
    TUnit,
    Unit,
    Var,
    VarDecl,
    free_vars,
    subst,
)
from helpers import naive_subst, rename_all_binders

IDX_NAMES = st.sampled_from(["a", "b", "c", "n"])
TERM_NAMES = st.sampled_from(["x", "y", "z", "f"])
ATOM_NAMES = st.sampled_from(["odd", "even", "bits"])
PRIM_NAMES = st.sampled_from(["snoc1", "idcast"])


def index_exprs(max_depth: int = 3):
    base = st.one_of(
        st.integers(-6, 6).map(ILit),
        IDX_NAMES.map(IVar),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: IAdd(*p)),
            st.tuples(children, children).map(lambda p: ISub(*p)),
            # products keep a variable factor; literal*literal would be
            # constant-folded by the parser
            st.tuples(st.integers(-3, 3), IDX_NAMES.map(IVar)).map(
                lambda p: IMul(*p)
            ),
        )

    return st.recursive(base, extend, max_leaves=max_depth * 2)


def types(max_depth: int = 3):
    base = st.one_of(
        st.just(TUnit()),
        ATOM_NAMES.map(TAtom),
        index_exprs(2).map(lambda i: TCon("list", i)),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: TArrow(*p)),
            st.tuples(children, children).map(lambda p: TSect(*p)),
            st.tuples(IDX_NAMES, children).map(lambda p: TPi(p[0], INT, p[1])),
        )

    return st.recursive(base, extend, max_leaves=max_depth * 2)


def decls():
    return st.one_of(
        st.tuples(TERM_NAMES, types(2)).map(lambda p: VarDecl(*p)),
        IDX_NAMES.map(lambda n: IdxDecl(n, INT)),
    )


def ctx_typings():
    return st.tuples(st.lists(decls(), max_size=2), types(2)).map(
        lambda p: CtxTyping(tuple(p[0]), p[1])
    )


def terms(max_depth: int = 4):
    base = st.one_of(
        st.just(Unit()),
        TERM_NAMES.map(Var),
        PRIM_NAMES.map(Prim),
    )

    def extend(children):
        return st.one_of(
            st.tuples(TERM_NAMES, children).map(lambda p: Lam(*p)),
            st.tuples(children, children).map(lambda p: App(*p)),
            st.tuples(children, types(2)).map(lambda p: Anno(*p)),
            st.tuples(decls(), children).map(lambda p: Guard(*p)),
            st.tuples(children, children).map(lambda p: Merge(*p)),
            st.tuples(IDX_NAMES, children).map(lambda p: Some(p[0], INT, p[1])),
            st.tuples(IDX_NAMES, children).map(lambda p: IdxLam(p[0], INT, p[1])),
            st.tuples(children, st.lists(ctx_typings(), min_size=1, max_size=2)).map(
                lambda p: CtxAnno(p[0], tuple(p[1]))
            ),
        )

    return st.recursive(base, extend, max_leaves=max_depth * 2)


@st.composite
def pi_instances(draw):
    """(body, var, w, t): a type body, the variable a Pi binds in it, an
    index witness, and a type t that is either the instance
    `subst(w, var, body)` (sometimes with its binders renamed), the naive
    substitution that lets a binder capture a variable of w, the instance at
    another witness, or an unrelated type.  Often the body binds a free
    variable of w."""
    var = draw(IDX_NAMES)
    w = draw(index_exprs(2))
    body = draw(types())
    captured = sorted(free_vars(w, INDEX))
    if captured and draw(st.booleans()):
        # Pi c . (body -> list(var + c)) with c free in w.
        c = draw(st.sampled_from(captured))
        body = TPi(c, INT, TArrow(body, TCon("list", IAdd(IVar(var), IVar(c)))))
    choice = draw(
        st.sampled_from(["instance", "renamed", "captured", "other-witness", "other"])
    )
    if choice == "instance":
        t = subst(w, var, body)
    elif choice == "renamed":
        t = rename_all_binders(subst(w, var, body))
    elif choice == "captured":
        t = naive_subst(w, var, body)
    elif choice == "other-witness":
        t = subst(draw(index_exprs(2)), var, body)
    else:
        t = draw(types())
    return body, var, w, t
