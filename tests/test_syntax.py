import copy
import os
import pickle
import subprocess
import sys
from dataclasses import fields, replace
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guardlang
import strategies
from helpers import oracle_subst_type
from guardlang.ctxanno import encode
from guardlang.interp import erase
from guardlang.parser import (
    parse_term,
    parse_type,
    pretty_decl,
    pretty_term,
    pretty_type,
    resolve_prims,
)
from guardlang.syntax import (
    BINDERS,
    INDEX,
    TERM,
    Anno,
    App,
    CtxAnno,
    CtxTyping,
    Decl,
    Guard,
    IAdd,
    ILit,
    IMul,
    INT,
    IVar,
    IdxDecl,
    IndexExpr,
    IndexSort,
    Lam,
    MetaStore,
    Node,
    Prim,
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
    alpha_eq,
    free_vars,
    fresh_name,
    meta_free,
    rewrite,
    subst,
    subterms,
    zonk_index,
    zonk_type,
)


class TestSubstIndexInType:
    def test_direct_replacement(self):
        ty = TCon("list", IMul(2, IVar("a")))
        assert subst(ILit(3), "a", ty) == TCon(
            "list", IMul(2, ILit(3))
        )

    def test_no_occurrence(self):
        assert subst(IVar("i"), "a", TUnit()) == TUnit()

    def test_capture_avoided(self):
        # [b/a](Pi b:int. list(a+b)) must rename the binder; the oracle does
        # a global fresh-renaming first and then substitutes naively.
        from guardlang.syntax import IAdd

        ty = TPi("b", INT, TCon("list", IAdd(IVar("a"), IVar("b"))))
        got = subst(IVar("b"), "a", ty)
        want = oracle_subst_type(IVar("b"), "a", ty)
        assert alpha_eq(got, want)
        assert isinstance(got, TPi) and got.var != "b"

    @given(repl=strategies.index_exprs(), ty=strategies.types())
    @settings(max_examples=150)
    def test_matches_oracle(self, repl, ty):
        got = subst(repl, "a", ty)
        want = oracle_subst_type(repl, "a", ty)
        assert alpha_eq(got, want)

    @given(ty=strategies.types())
    def test_identity_substitution(self, ty):
        assert alpha_eq(subst(IVar("a"), "a", ty), ty)

    @given(repl=strategies.index_exprs(), ty=strategies.types())
    def test_free_vars_bound(self, repl, ty):
        got = free_vars(subst(repl, "a", ty), INDEX)
        bound = (free_vars(ty, INDEX) - {"a"}) | (
            free_vars(repl, INDEX) if "a" in free_vars(ty, INDEX) else set()
        )
        assert got <= (free_vars(ty, INDEX) - {"a"}) | free_vars(repl, INDEX)
        del bound

    @given(repl=strategies.index_exprs(), a=strategies.types(), b=strategies.types())
    @settings(max_examples=100)
    def test_respects_alpha(self, repl, a, b):
        if alpha_eq(a, b):
            assert alpha_eq(
                subst(repl, "a", a),
                subst(repl, "a", b),
            )


class TestSubstIndexInTerm:
    def test_descends_into_guard_annotations(self):
        # Choosing the index to be a*2 rewrites the guard's type.
        e = Guard(VarDecl("x", TCon("list", IVar("b"))), Var("x"))
        got = subst(IMul(2, IVar("a")), "b", e)
        assert got == Guard(
            VarDecl("x", TCon("list", IMul(2, IVar("a")))), Var("x")
        )

    def test_unit_untouched(self):
        assert subst(IVar("i"), "b", Unit()) == Unit()

    def test_shadowed_binder(self):
        e = Some("b", INT, Guard(VarDecl("x", TCon("list", IVar("b"))), Var("x")))
        assert subst(ILit(5), "b", e) == e

    @given(e=strategies.terms())
    @settings(max_examples=100)
    def test_identity_substitution(self, e):
        assert alpha_eq(subst(IVar("a"), "a", e), e)

    @given(repl=strategies.index_exprs(), e=strategies.terms())
    @settings(max_examples=150)
    def test_free_vars_bound(self, e, repl):
        got = free_vars(subst(repl, "a", e), INDEX)
        assert got <= (free_vars(e, INDEX) - {"a"}) | free_vars(repl, INDEX)


class TestAlphaEq:
    def test_pi_binders(self):
        x = TPi("a", INT, TCon("list", IVar("a")))
        y = TPi("b", INT, TCon("list", IVar("b")))
        assert alpha_eq(x, y)

    def test_lambdas(self):
        assert alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))

    def test_free_vars_differ(self):
        assert not alpha_eq(TCon("list", IVar("a")), TCon("list", IVar("b")))

    def test_bound_vs_free(self):
        assert not alpha_eq(Lam("x", Var("x")), Lam("y", Var("x")))

    @given(e=strategies.terms())
    def test_reflexive(self, e):
        assert alpha_eq(e, e)

    # The identity shortcut gives the answer the structural walk gives.
    @given(e=strategies.terms())
    def test_identity_agrees_with_a_copy_for_terms(self, e):
        assert alpha_eq(e, e) == alpha_eq(e, copy.deepcopy(e))

    @given(ty=strategies.types())
    def test_identity_agrees_with_a_copy_for_types(self, ty):
        assert alpha_eq(ty, ty) == alpha_eq(ty, copy.deepcopy(ty))


def _two_metas():
    store = MetaStore()
    return store, store.fresh(INT, frozenset()), store.fresh(INT, frozenset())


class TestZonk:
    """Zonking returns its argument when no metavariable in it is solved,
    and rebuilds only the path down to a solved one."""

    def test_unsolved_returns_the_argument(self):
        store, m, other = _two_metas()
        store.assign(other.uid, ILit(7))  # something is solved, elsewhere
        i = IAdd(m, IVar("a"))
        ty = TArrow(TCon("list", i), TUnit())
        e = Anno(Lam("x", Var("x")), ty)
        assert zonk_index(store, i) is i
        assert zonk_type(store, ty) is ty
        assert Zonker(store).visit(e) is e

    def test_solved_rebuilds_the_path(self):
        store, m, _ = _two_metas()
        i = IAdd(m, IVar("a"))
        ty = TArrow(TCon("list", i), TUnit())
        e = Anno(Lam("x", Var("x")), ty)
        store.assign(m.uid, ILit(3))
        zi = zonk_index(store, i)
        assert zi == IAdd(ILit(3), IVar("a")) and zi is not i
        assert zi.rhs is i.rhs
        zty = zonk_type(store, ty)
        assert zty == TArrow(TCon("list", zi), TUnit()) and zty is not ty
        assert zty.res is ty.res
        ze = Zonker(store).visit(e)
        assert ze == Anno(Lam("x", Var("x")), zty) and ze is not e
        assert ze.body is e.body

    def test_one_pass_shares_and_collects_unsolved(self):
        store, m, other = _two_metas()
        t = TCon("list", m)
        pair = (TArrow(t, t), t)
        store.assign(m.uid, IAdd(other, ILit(1)))
        zonk = Zonker(store)
        out = zonk.visit(pair)
        assert out[0].arg is out[0].res is out[1]
        assert out[1] == TCon("list", IAdd(other, ILit(1)))
        assert zonk.unsolved == {other.uid}

    def test_known_objects_are_not_entered(self):
        store, m, _ = _two_metas()
        store.assign(m.uid, ILit(3))
        t = TCon("list", m)
        # A table entry is trusted: the pass returns it as it is.
        assert Zonker(store, {id(t): t}).visit((t,))[0] is t
        assert Zonker(store).visit((t,))[0] == TCon("list", ILit(3))


class TestMetaFree:
    def test_answers_and_extends_the_table(self):
        store, m, _ = _two_metas()
        ground = TArrow(TCon("list", IVar("a")), TUnit())
        known: dict = {}
        assert not meta_free(TArrow(ground, TCon("list", m)), known)
        assert known == {}
        entries = (VarDecl("x", ground),)
        assert meta_free(entries, known)
        assert known[id(entries)] is entries and known[id(ground)] is ground

    def test_does_not_enter_known_objects(self):
        _, m, _ = _two_metas()
        t = TCon("list", m)
        assert meta_free(TArrow(t, TUnit()), {id(t): t})


class TestFreeIndexVars:
    def test_compound_index(self):
        from guardlang.syntax import IAdd

        assert free_vars(TCon("list", IAdd(IVar("a"), IVar("b"))), INDEX) == {
            "a",
            "b",
        }

    def test_pi_binds(self):
        assert free_vars(TPi("a", INT, TCon("list", IVar("a"))), INDEX) == set()

    def test_guard_annotation_counts(self):
        e = Guard(VarDecl("x", TCon("list", IVar("c"))), Unit())
        assert free_vars(e, INDEX) == {"c"}

    def test_idx_guard_subject_counts(self):
        assert free_vars(Guard(IdxDecl("a", INT), Unit()), INDEX) == {"a"}


class TestTermSubstitution:
    def test_beta_renames_captured_binder(self):
        # [y/x](fn y => x y) must not capture y.
        e = Lam("y", Var("x"))
        got = subst(Var("y"), "x", e)
        assert alpha_eq(got, Lam("z", Var("y")))

    def test_guard_subject_renamed(self):
        e = Guard(VarDecl("x", TUnit()), Var("x"))
        got = subst(Var("y"), "x", e)
        assert got == Guard(VarDecl("y", TUnit()), Var("y"))

    def test_guard_discharged_by_value(self):
        e = Guard(VarDecl("x", TUnit()), Var("x"))
        got = subst(Unit(), "x", e)
        assert got == Unit()


def test_fresh_name_deterministic():
    avoid = {"a", "a1", "a2"}
    assert fresh_name("a", avoid) == "a3"
    assert fresh_name("b", avoid) == "b"


# ---------------------------------------------------------------------------
# The binding table and the traversals derived from it


def _list(i):
    return TCon("list", i)


class TestTelescope:
    def test_shadowing_entry_stops_substitution(self):
        # [5/a](x : list(a), a : int, y : list(a) |- list(a)): the IdxDecl
        # rebinds a for the later entries and the goal.
        t = CtxTyping(
            (
                VarDecl("x", _list(IVar("a"))),
                IdxDecl("a", INT),
                VarDecl("y", _list(IVar("a"))),
            ),
            _list(IVar("a")),
        )
        got = subst(ILit(5), "a", t)
        assert got == CtxTyping(
            (VarDecl("x", _list(ILit(5))),) + t.entries[1:], t.goal
        )
        assert got.entries[1:] == t.entries[1:] and got.goal is t.goal

    def test_bound_from_the_start_is_untouched(self):
        t = CtxTyping((IdxDecl("a", INT),), _list(IVar("a")))
        assert subst(ILit(5), "a", t) is t

    def test_capture_renames_the_entry(self):
        # [a/b](a : int, x : list(a + b) |- list(a)) renames the bound a.
        t = CtxTyping(
            (IdxDecl("a", INT), VarDecl("x", _list(IAdd(IVar("a"), IVar("b"))))),
            _list(IVar("a")),
        )
        assert subst(IVar("a"), "b", t) == CtxTyping(
            (
                IdxDecl("a1", INT),
                VarDecl("x", _list(IAdd(IVar("a1"), IVar("a")))),
            ),
            _list(IVar("a1")),
        )

    def test_free_vars_respect_the_telescope(self):
        t = CtxTyping(
            (VarDecl("x", _list(IVar("c"))), IdxDecl("a", INT)),
            _list(IAdd(IVar("a"), IVar("b"))),
        )
        assert free_vars(t, INDEX) == {"b", "c"}
        assert free_vars(CtxAnno(Unit(), (t,)), TERM) == {"x"}


class TestGuardSubjects:
    def test_index_subject_renamed_by_a_variable(self):
        e = Guard(IdxDecl("a", INT), Unit())
        assert subst(IVar("c"), "a", e) == Guard(IdxDecl("c", INT), Unit())

    def test_index_subject_discharged_by_an_expression(self):
        e = Guard(IdxDecl("a", INT), Unit())
        assert subst(IAdd(IVar("c"), ILit(1)), "a", e) == Unit()

    def test_entry_renamed_by_a_variable(self):
        e = CtxAnno(Var("x"), (CtxTyping((VarDecl("x", TUnit()),), TUnit()),))
        assert subst(Var("y"), "x", e) == CtxAnno(
            Var("y"), (CtxTyping((VarDecl("y", TUnit()),), TUnit()),)
        )

    def test_entry_discharged_by_a_value(self):
        e = CtxAnno(Var("x"), (CtxTyping((VarDecl("x", TUnit()),), TUnit()),))
        assert subst(Unit(), "x", e) == CtxAnno(Unit(), (CtxTyping((), TUnit()),))


def _binder(cls, var, body_var):
    """A binder of class cls on `var` whose body mentions `body_var`."""
    if BINDERS[cls] == TERM:
        return cls(var, Var(body_var))
    if cls is TPi:
        return TPi(var, INT, _list(IVar(body_var)))
    return cls(var, INT, Guard(IdxDecl(body_var, INT), Unit()))


@pytest.mark.parametrize("cls", list(BINDERS), ids=lambda c: c.__name__)
class TestAlphaEqPerBinder:
    def test_renamed_binders_are_equal(self, cls):
        assert alpha_eq(_binder(cls, "a", "a"), _binder(cls, "b", "b"))

    def test_bound_and_free_differ(self, cls):
        assert not alpha_eq(_binder(cls, "a", "a"), _binder(cls, "b", "a"))

    def test_shared_body_under_different_binders(self, cls):
        # The two sides bound different names, so the shared body object
        # must be compared, not taken as equal to itself.
        x = _binder(cls, "x", "x")
        assert not alpha_eq(x, replace(x, var="y"))


def test_identity_shortcut_needs_the_same_binders():
    b = Var("x")
    assert not alpha_eq(Lam("x", b), Lam("y", b))
    assert alpha_eq(Lam("x", b), Lam("x", b))


def test_alpha_eq_through_a_telescope():
    def typing(a):
        return CtxTyping(
            (IdxDecl(a, INT), VarDecl("x", _list(IVar(a)))), _list(IVar(a))
        )

    assert alpha_eq(typing("a"), typing("b"))
    assert not alpha_eq(
        typing("a"), CtxTyping(typing("b").entries, _list(IVar("a")))
    )


def _chain(n, leaf):
    e = leaf
    for _ in range(n):
        e = Anno(App(Prim("f"), e), TAtom("bits"))
    return e


def _type_chain(n):
    ty = TUnit()
    for _ in range(n):
        ty = TArrow(TAtom("bits"), TSect(ty, TUnit()))
    return ty


DEEP = 400
TRAVERSALS = {
    "hash-term": lambda: hash(_chain(DEEP, Var("x"))),
    "hash-type": lambda: hash(_type_chain(DEEP)),
    "free_index_vars": lambda: free_vars(_chain(DEEP, Var("x")), INDEX),
    "free_term_vars": lambda: free_vars(_chain(DEEP, Var("x")), TERM),
    "meta_free": lambda: meta_free(_chain(DEEP, Var("x")), {}),
    "subterms": lambda: list(subterms(_chain(DEEP, Var("x")))),
    "subst-term": lambda: subst(Var("y"), "x", _chain(DEEP, Var("x"))),
    "subst-index": lambda: subst(
        IVar("b"), "a", _chain(DEEP, Guard(IdxDecl("a", INT), Unit()))
    ),
    "alpha_eq": lambda: alpha_eq(_chain(DEEP, Var("x")), _chain(DEEP, Var("x"))),
    "erase": lambda: erase(_chain(DEEP, Var("x"))),
    "encode": lambda: encode(_chain(DEEP, Var("x"))),
    "resolve_prims": lambda: resolve_prims(
        _chain(DEEP, Var("f")), frozenset({"f"})
    ),
}


@pytest.mark.parametrize("name", sorted(TRAVERSALS))
def test_traversal_handles_deep_terms(name):
    # One Python frame per syntax level: 400 levels (800 nodes deep) fit in
    # the default recursion limit, and an extra frame per level would not.
    assert sys.getrecursionlimit() == 1000
    TRAVERSALS[name]()


def _sample(hint):
    samples = {
        str: "a",
        int: 1,
        IndexSort: INT,
        IndexExpr: IVar("a"),
        Type: TUnit(),
        Term: Var("a"),
        Decl: VarDecl("a", TUnit()),
        tuple[Decl, ...]: (IdxDecl("a", INT), VarDecl("x", TUnit())),
        tuple[CtxTyping, ...]: (CtxTyping((), TUnit()),),
    }
    return samples[hint]


def _concrete_node_classes():
    out, todo = [], [Node]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "__dataclass_params__" in cls.__dict__ and cls is not Node:
            out.append(cls)
    return out


@pytest.mark.parametrize(
    "cls", _concrete_node_classes(), ids=lambda c: c.__name__
)
def test_every_syntax_form_is_traversed(cls):
    # A new form whose fields the traversal cannot walk, or that binds
    # without an entry in the binding table, fails here.
    hints = get_type_hints(cls)
    x = cls(*(_sample(hints[f.name]) for f in fields(cls) if f.compare))
    assert rewrite(x, lambda y, s: s if y is x else y, None) is x
    assert rewrite(x, lambda y, s: s if y is x else copy.copy(y), None) == x
    if "var" in hints:
        assert cls in BINDERS


# Equal nodes hash equal however they were made, and a node built with a
# changed field is hashed afresh.  A node computes its hash once, when it is
# built, so these are the ways a stale or process-local hash could leak.


def _reparsed(x, prefix):
    if isinstance(x, Term):
        prims = frozenset(y.name for y in subterms(x) if type(y) is Prim)
        return parse_term(prefix + pretty_term(x), prims=prims)
    if isinstance(x, Type):
        return parse_type(prefix + pretty_type(x))
    return parse_term(f"{prefix}where {pretty_decl(x)} do ()").decl


SYNTAX = st.one_of(strategies.terms(), strategies.types(), strategies.decls())


@given(x=SYNTAX)
@settings(max_examples=150)
def test_reparse_with_other_spans_hashes_equal(x):
    a, b = _reparsed(x, ""), _reparsed(x, "\n  ")
    assert a.span != b.span
    assert a == b and hash(a) == hash(b)


@given(x=SYNTAX)
@settings(max_examples=150)
def test_copies_hash_equal(x):
    x = replace(x, span=Span("f.gl", 2, 3, 2, 9))
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and hash(y) == hash(x) and y.span == x.span


@given(x=SYNTAX)
def test_replace_rehashes(x):
    hints = get_type_hints(type(x))
    for name in (f.name for f in fields(x) if f.compare):
        same = replace(x, **{name: getattr(x, name)})
        assert same == x and hash(same) == hash(x)
        changed = replace(x, **{name: _sample(hints[name])})
        if changed != x:
            assert hash(changed) != hash(x)


def test_unpickled_node_hashes_as_built_here():
    # String hashes differ between processes, so a node pickled by another
    # process must not bring its hash along.
    src = "where x : odd do fn y => (f (y ,, x) : odd -> even)"
    code = (
        "import pickle, sys\n"
        "from guardlang.parser import parse_term\n"
        f"sys.stdout.buffer.write(pickle.dumps(parse_term({src!r})))\n"
    )
    src_dir = os.path.dirname(os.path.dirname(guardlang.__file__))
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": src_dir}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True
    ).stdout
    there, here = pickle.loads(out), parse_term(src)
    assert there == here and hash(there) == hash(here)
