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
from guardlang.parser import parse_term, parse_type, pretty
from guardlang.replay import SubDerivation, TypingDerivation
from guardlang.syntax import (
    BINDERS,
    INDEX,
    TERM,
    Anno,
    App,
    CtxAnno,
    CtxGoal,
    CtxIdx,
    CtxTyping,
    CtxVar,
    Decl,
    Guard,
    IAdd,
    ILit,
    IMeta,
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
    children,
    free_vars,
    fresh_name,
    instantiate,
    meta_free,
    rewrite,
    subst,
    subterms,
    zonk,
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
        assert zonk(store, i) is i
        assert zonk(store, ty) is ty
        assert zonk(store, e) is e

    def test_solved_rebuilds_the_path(self):
        store, m, _ = _two_metas()
        i = IAdd(m, IVar("a"))
        ty = TArrow(TCon("list", i), TUnit())
        e = Anno(Lam("x", Var("x")), ty)
        store.assign(m.uid, ILit(3))
        zi = zonk(store, i)
        assert zi == IAdd(ILit(3), IVar("a")) and zi is not i
        assert zi.rhs is i.rhs
        zty = zonk(store, ty)
        assert zty == TArrow(TCon("list", zi), TUnit()) and zty is not ty
        assert zty.res is ty.res
        ze = zonk(store, e)
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

    def test_ground_derivation_is_returned_unentered(self):
        store, m, _ = _two_metas()
        store.assign(m.uid, ILit(3))
        entries = (VarDecl("x", TUnit()),)
        var = TypingDerivation("var", "synth", entries, Var("x"), TUnit())
        refl = SubDerivation("refl", entries, TUnit(), TUnit())
        ground = TypingDerivation(
            "sub", "check", entries, Var("x"), TUnit(), (var, refl)
        )
        assert not ground._metas
        zonk = Zonker(store)
        assert zonk.visit(ground) is ground and zonk.visit((ground,))[0] is ground
        assert zonk._memo == {}  # nothing was entered
        # The pass reads the bit and nothing below it.
        t = TCon("list", m)
        d = TypingDerivation("var", "synth", (VarDecl("x", t),), Var("x"), t)
        assert d._metas and Zonker(store).visit(d).ty == TCon("list", ILit(3))
        d._metas = False
        assert Zonker(store).visit(d) is d


class TestSpan:
    """A span is a named tuple, so building, hashing and comparing one run
    in C; nodes leave it out of their equality and hash."""

    def test_equality_hash_pickle_and_replace(self):
        a, b = Span("f.gl", 1, 2, 3, 4), Span("f.gl", 1, 2, 3, 4)
        assert a == b and hash(a) == hash(b) and a != Span("f.gl", 1, 2, 3, 5)
        assert Span.__hash__ is tuple.__hash__ and Span.__eq__ is tuple.__eq__
        for y in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(y) is Span and y == a
        c = a._replace(start_line=7, start_col=8)
        assert c == Span("f.gl", 7, 8, 3, 4) and a == Span("f.gl", 1, 2, 3, 4)
        assert str(c) == "f.gl:7:8" and (c.end_line, c.end_col) == (3, 4)
        assert repr(a) == (
            "Span(file='f.gl', start_line=1, start_col=2, end_line=3, end_col=4)"
        )

    def test_a_typing_entry_spans_to_the_end_of_the_typing(self):
        (typing,) = parse_term("(x :: [a : int, x : list(a) |- list(a)])").typings
        assert typing.span == Span("<string>", 1, 8, 1, 39)
        assert typing.body.span == typing.span._replace(start_col=17)


class TestMetaFree:
    """`meta_free` reads the bits that the constructors set: it walks no
    node and keeps no table."""

    def test_answers_from_the_bits(self):
        store, m, _ = _two_metas()
        ground = TArrow(TCon("list", IVar("a")), TUnit())
        assert meta_free(ground)
        assert not meta_free(TArrow(ground, TCon("list", m)))
        entries = (VarDecl("x", ground),)
        assert meta_free(entries) and meta_free((ground, entries))
        assert not meta_free((ground, (VarDecl("y", TCon("list", m)),)))

    def test_does_not_enter_children(self):
        # The answer is the bit of the root, set when it was built from its
        # children's bits: a child is not looked into again.
        _, m, _ = _two_metas()
        t = TCon("list", m)
        object.__setattr__(t, "_metas", False)
        assert meta_free(TArrow(t, TUnit()))


class TestInstantiate:
    """A bound variable is instantiated with a fresh metavariable, and every
    binder named in the metavariable's scope is renamed, so the solution it
    gets later is not captured when it is zonked."""

    def _solved(self, body, var="a"):
        store = MetaStore()
        m, out = instantiate(store, frozenset({"b"}), var, INT, body)
        assert store.sort_of(m.uid) == INT and store.scope_of(m.uid) == {"b"}
        store.assign(m.uid, IVar("b"))
        return Zonker(store).visit(out)

    def test_pi_body(self):
        # [b/a](Pi b . list(a) -> list(b)), with the b bound.
        body = TPi("b", INT, TArrow(_list(IVar("a")), _list(IVar("b"))))
        assert self._solved(body) == TPi(
            "b1", INT, TArrow(_list(IVar("b")), _list(IVar("b1")))
        )

    def test_term_body(self):
        body = parse_term("(fn y => () : Pi b : int . list(a) -> list(b) -> unit)")
        assert self._solved(body) == parse_term(
            "(fn y => () : Pi b1 : int . list(b) -> list(b1) -> unit)"
        )

    def test_telescope(self):
        t = CtxIdx("b", INT, CtxVar(
            VarDecl("x", _list(IVar("b"))), CtxGoal(_list(IAdd(IVar("a"), IVar("b"))))
        ))
        assert self._solved(t) == CtxIdx("b1", INT, CtxVar(
            VarDecl("x", _list(IVar("b1"))), CtxGoal(_list(IAdd(IVar("b"), IVar("b1"))))
        ))

    def test_shadowing_binder_is_left_alone(self):
        body = TPi("a", INT, _list(IVar("a")))
        store = MetaStore()
        _, out = instantiate(store, frozenset({"b"}), "a", INT, body)
        assert out is body

    def test_a_long_run_of_renamed_binders(self):
        # Each binder is renamed in the same pass, in one Python frame: 900
        # nested binders named in the scope fit in the default recursion
        # limit.  Each shadows the one above it, so each becomes c1.
        assert sys.getrecursionlimit() == 1000
        body = _list(IVar("a"))
        for _ in range(900):
            body = TPi("c", INT, body)
        m, out = instantiate(MetaStore(), frozenset({"c"}), "a", INT, body)
        for _ in range(900):
            assert type(out) is TPi and out.var == "c1"
            out = out.body
        assert out == _list(m)


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
        # [5/a](x : list(a), a : int, y : list(a) |- list(a)): the sorting
        # rebinds a for the later entries and the goal.
        rest = CtxIdx(
            "a", INT, CtxVar(VarDecl("y", _list(IVar("a"))), CtxGoal(_list(IVar("a"))))
        )
        t = CtxVar(VarDecl("x", _list(IVar("a"))), rest)
        got = subst(ILit(5), "a", t)
        assert got == CtxVar(VarDecl("x", _list(ILit(5))), rest)
        assert got.body is rest

    def test_bound_from_the_start_is_untouched(self):
        t = CtxIdx("a", INT, CtxGoal(_list(IVar("a"))))
        assert subst(ILit(5), "a", t) is t

    def test_capture_renames_the_entry(self):
        # [a/b](a : int, x : list(a + b) |- list(a)) renames the bound a.
        t = CtxIdx("a", INT, CtxVar(
            VarDecl("x", _list(IAdd(IVar("a"), IVar("b")))), CtxGoal(_list(IVar("a")))
        ))
        assert subst(IVar("a"), "b", t) == CtxIdx("a1", INT, CtxVar(
            VarDecl("x", _list(IAdd(IVar("a1"), IVar("a")))), CtxGoal(_list(IVar("a1")))
        ))

    def test_free_vars_respect_the_telescope(self):
        t = CtxVar(
            VarDecl("x", _list(IVar("c"))),
            CtxIdx("a", INT, CtxGoal(_list(IAdd(IVar("a"), IVar("b"))))),
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
        e = CtxAnno(Var("x"), (CtxVar(VarDecl("x", TUnit()), CtxGoal(TUnit())),))
        assert subst(Var("y"), "x", e) == CtxAnno(
            Var("y"), (CtxVar(VarDecl("y", TUnit()), CtxGoal(TUnit())),)
        )

    def test_entry_discharged_by_a_value(self):
        e = CtxAnno(Var("x"), (CtxVar(VarDecl("x", TUnit()), CtxGoal(TUnit())),))
        assert subst(Unit(), "x", e) == CtxAnno(Unit(), (CtxGoal(TUnit()),))


def _binder(cls, var, body_var):
    """A binder of class cls on `var` whose body mentions `body_var`."""
    if BINDERS[cls] == TERM:
        return cls(var, Var(body_var))
    if cls is TPi:
        return TPi(var, INT, _list(IVar(body_var)))
    if cls is CtxIdx:
        return CtxIdx(var, INT, CtxGoal(_list(IVar(body_var))))
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
    def typing(a, goal):
        return CtxIdx(a, INT, CtxVar(VarDecl("x", _list(IVar(a))), CtxGoal(goal)))

    assert alpha_eq(typing("a", _list(IVar("a"))), typing("b", _list(IVar("b"))))
    assert not alpha_eq(typing("a", _list(IVar("a"))), typing("b", _list(IVar("a"))))


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


def _typing_chain(n):
    t = CtxGoal(_list(IVar("a")))
    for _ in range(n):
        t = CtxIdx("b", INT, CtxVar(VarDecl("x", _list(IVar("a"))), t))
    return t


DEEP = 400
TRAVERSALS = {
    "hash-term": lambda: hash(_chain(DEEP, Var("x"))),
    "hash-type": lambda: hash(_type_chain(DEEP)),
    "free_index_vars": lambda: free_vars(_chain(DEEP, Var("x")), INDEX),
    "free_term_vars": lambda: free_vars(_chain(DEEP, Var("x")), TERM),
    "meta_free": lambda: meta_free(_chain(DEEP, Var("x"))),
    "eq": lambda: _chain(DEEP, Var("x")) == _chain(DEEP, Var("x")),
    "subterms": lambda: list(subterms(_chain(DEEP, Var("x")))),
    "subst-term": lambda: subst(Var("y"), "x", _chain(DEEP, Var("x"))),
    "subst-index": lambda: subst(
        IVar("b"), "a", _chain(DEEP, Guard(IdxDecl("a", INT), Unit()))
    ),
    "alpha_eq": lambda: alpha_eq(_chain(DEEP, Var("x")), _chain(DEEP, Var("x"))),
    "subst-typing": lambda: subst(IVar("c"), "a", _typing_chain(DEEP)),
    "alpha_eq-typing": lambda: alpha_eq(_typing_chain(DEEP), _typing_chain(DEEP)),
    "erase": lambda: erase(_chain(DEEP, Var("x"))),
    "encode": lambda: encode(_chain(DEEP, Var("x"))),
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
        VarDecl: VarDecl("a", TUnit()),
        CtxTyping: CtxGoal(TUnit()),
        tuple[CtxTyping, ...]: (CtxGoal(TUnit()),),
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
        return parse_term(prefix + pretty(x), prims=prims)
    if isinstance(x, Type):
        return parse_type(prefix + pretty(x))
    return parse_term(f"{prefix}where {pretty(x)} do ()").decl


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


# The metavariable bit of every node is "an IMeta occurs below", however
# the node was made: by a constructor, the parser, substitution,
# instantiation, a rewrite, zonking, a copy or pickling.


def _holds_meta(x) -> bool:
    """The reference: a plain walk that looks for an IMeta."""
    return type(x) is IMeta or any(_holds_meta(c) for c in children(x))


def _wrong_bits(x) -> list:
    """The nodes of x whose bit disagrees with the reference."""
    stack, out = [x], []
    while stack:
        y = stack.pop()
        if y._metas != _holds_meta(y):
            out.append(y)
        stack.extend(children(y))
    return out


def _made_with_metas(x, a, b, solve):
    """Syntax derived from x in every way a node is made, with metavariables
    brought in by instantiating the index variable a and substituting for b."""
    store = MetaStore()
    m, y = instantiate(store, frozenset({"n"}), a, INT, x)
    k = store.fresh(INT, frozenset())
    y = subst(IAdd(k, ILit(1)), b, y)
    # A rewrite that brings metavariables into the literals, and one that
    # takes them out of the index variables.
    r1 = rewrite(y, lambda v, s: IAdd(v, m) if type(v) is ILit else s, None)
    r2 = rewrite(y, lambda v, s: ILit(0) if type(v) is IMeta else s, None)
    if solve:
        store.assign(m.uid, IAdd(IVar("n"), k))
        store.assign(k.uid, ILit(2))
    made = [x, y, r1, r2, zonk(store, r1)]
    made += [copy.copy(r1), copy.deepcopy(r1), pickle.loads(pickle.dumps(r1))]
    return made


@given(
    x=SYNTAX,
    a=strategies.IDX_NAMES,
    b=strategies.IDX_NAMES,
    solve=st.booleans(),
)
@settings(max_examples=150)
def test_metavariable_bit_is_an_occurrence_below(x, a, b, solve):
    for y in (_reparsed(x, ""), *_made_with_metas(x, a, b, solve)):
        assert _wrong_bits(y) == []


def test_metavariable_bits_of_nodes_unpickled_in_another_process():
    # The bits are recomputed by the constructor, so a node unpickled under
    # another string hash seed carries the right ones.
    made = [
        y
        for src in ("Pi a : int . list(a*2) -> list(a + b)", "(c -> c) /\\ list(a)")
        for y in _made_with_metas(parse_type(src), "a", "b", False)
    ]
    assert any(y._metas for y in made) and not all(y._metas for y in made)
    code = (
        "import pickle, sys\n"
        "from guardlang.syntax import IMeta, children\n"
        "def holds(x):\n"
        "    return type(x) is IMeta or any(holds(c) for c in children(x))\n"
        "def wrong(x):\n"
        "    return x._metas != holds(x) or any(wrong(c) for c in children(x))\n"
        "made = pickle.loads(sys.stdin.buffer.read())\n"
        "print(sum(map(wrong, made)), sum(y._metas for y in made))\n"
    )
    src_dir = os.path.dirname(os.path.dirname(guardlang.__file__))
    env = {**os.environ, "PYTHONHASHSEED": "54321", "PYTHONPATH": src_dir}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, input=pickle.dumps(made),
        capture_output=True, check=True,
    ).stdout
    assert out.split() == [b"0", str(sum(y._metas for y in made)).encode()]


class TestEquality:
    """`==` compares the stored hashes first, then walks both trees with an
    explicit stack."""

    def test_structural_and_span_blind(self):
        a = parse_term("fn x => (f x : odd)", prims=frozenset({"f"}))
        b = parse_term("fn x =>\n  (f x : odd)", prims=frozenset({"f"}))
        assert a == b and a is not b and a.span != b.span
        assert a != parse_term("fn x => (f x : even)", prims=frozenset({"f"}))
        one = (CtxGoal(TUnit()),)
        assert CtxAnno(Unit(), one * 2) != CtxAnno(Unit(), one)

    def test_other_classes_are_not_equal(self):
        assert TAtom("odd") != Var("odd") and TUnit() != Unit()
        assert TUnit().__eq__(()) is NotImplemented and TUnit() != None

    def test_equal_hashes_are_not_enough(self):
        for x, y in (
            (TAtom("odd"), TAtom("even")),
            (CtxAnno(Unit(), (CtxGoal(TUnit()),) * 2),
             CtxAnno(Unit(), (CtxGoal(TUnit()),))),
        ):
            object.__setattr__(y, "_hash", x._hash)
            assert x != y
