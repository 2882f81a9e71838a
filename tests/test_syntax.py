import copy

from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from helpers import oracle_subst_type
from guardlang.syntax import (
    Anno,
    Guard,
    IAdd,
    ILit,
    IMul,
    INT,
    IVar,
    IdxDecl,
    Lam,
    MetaStore,
    Some,
    TArrow,
    TCon,
    TPi,
    TUnit,
    Unit,
    Var,
    VarDecl,
    Zonker,
    alpha_eq,
    free_index_vars,
    fresh_name,
    subst_index_in_term,
    subst_index_in_type,
    subst_term_var,
    zonk_index,
    zonk_term,
    zonk_type,
)


class TestSubstIndexInType:
    def test_direct_replacement(self):
        ty = TCon("list", IMul(2, IVar("a")))
        assert subst_index_in_type(ILit(3), "a", ty) == TCon(
            "list", IMul(2, ILit(3))
        )

    def test_no_occurrence(self):
        assert subst_index_in_type(IVar("i"), "a", TUnit()) == TUnit()

    def test_capture_avoided(self):
        # [b/a](Pi b:int. list(a+b)) must rename the binder; the oracle does
        # a global fresh-renaming first and then substitutes naively.
        from guardlang.syntax import IAdd

        ty = TPi("b", INT, TCon("list", IAdd(IVar("a"), IVar("b"))))
        got = subst_index_in_type(IVar("b"), "a", ty)
        want = oracle_subst_type(IVar("b"), "a", ty)
        assert alpha_eq(got, want)
        assert isinstance(got, TPi) and got.var != "b"

    @given(repl=strategies.index_exprs(), ty=strategies.types())
    @settings(max_examples=150)
    def test_matches_oracle(self, repl, ty):
        got = subst_index_in_type(repl, "a", ty)
        want = oracle_subst_type(repl, "a", ty)
        assert alpha_eq(got, want)

    @given(ty=strategies.types())
    def test_identity_substitution(self, ty):
        assert alpha_eq(subst_index_in_type(IVar("a"), "a", ty), ty)

    @given(repl=strategies.index_exprs(), ty=strategies.types())
    def test_free_vars_bound(self, repl, ty):
        got = free_index_vars(subst_index_in_type(repl, "a", ty))
        bound = (free_index_vars(ty) - {"a"}) | (
            free_index_vars(repl) if "a" in free_index_vars(ty) else set()
        )
        assert got <= (free_index_vars(ty) - {"a"}) | free_index_vars(repl)
        del bound

    @given(repl=strategies.index_exprs(), a=strategies.types(), b=strategies.types())
    @settings(max_examples=100)
    def test_respects_alpha(self, repl, a, b):
        if alpha_eq(a, b):
            assert alpha_eq(
                subst_index_in_type(repl, "a", a),
                subst_index_in_type(repl, "a", b),
            )


class TestSubstIndexInTerm:
    def test_descends_into_guard_annotations(self):
        # Choosing the index to be a*2 rewrites the guard's type.
        e = Guard(VarDecl("x", TCon("list", IVar("b"))), Var("x"))
        got = subst_index_in_term(IMul(2, IVar("a")), "b", e)
        assert got == Guard(
            VarDecl("x", TCon("list", IMul(2, IVar("a")))), Var("x")
        )

    def test_unit_untouched(self):
        assert subst_index_in_term(IVar("i"), "b", Unit()) == Unit()

    def test_shadowed_binder(self):
        e = Some("b", INT, Guard(VarDecl("x", TCon("list", IVar("b"))), Var("x")))
        assert subst_index_in_term(ILit(5), "b", e) == e

    @given(e=strategies.terms())
    @settings(max_examples=100)
    def test_identity_substitution(self, e):
        assert alpha_eq(subst_index_in_term(IVar("a"), "a", e), e)

    @given(repl=strategies.index_exprs(), e=strategies.terms())
    @settings(max_examples=150)
    def test_free_vars_bound(self, e, repl):
        got = free_index_vars(subst_index_in_term(repl, "a", e))
        assert got <= (free_index_vars(e) - {"a"}) | free_index_vars(repl)


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
        assert zonk_term(store, e) is e

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
        ze = zonk_term(store, e)
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


class TestFreeIndexVars:
    def test_compound_index(self):
        from guardlang.syntax import IAdd

        assert free_index_vars(TCon("list", IAdd(IVar("a"), IVar("b")))) == {
            "a",
            "b",
        }

    def test_pi_binds(self):
        assert free_index_vars(TPi("a", INT, TCon("list", IVar("a")))) == set()

    def test_guard_annotation_counts(self):
        e = Guard(VarDecl("x", TCon("list", IVar("c"))), Unit())
        assert free_index_vars(e) == {"c"}

    def test_idx_guard_subject_counts(self):
        assert free_index_vars(Guard(IdxDecl("a", INT), Unit())) == {"a"}


class TestTermSubstitution:
    def test_beta_renames_captured_binder(self):
        # [y/x](fn y => x y) must not capture y.
        e = Lam("y", Var("x"))
        got = subst_term_var(Var("y"), "x", e)
        assert alpha_eq(got, Lam("z", Var("y")))

    def test_guard_subject_renamed(self):
        e = Guard(VarDecl("x", TUnit()), Var("x"))
        got = subst_term_var(Var("y"), "x", e)
        assert got == Guard(VarDecl("y", TUnit()), Var("y"))

    def test_guard_discharged_by_value(self):
        e = Guard(VarDecl("x", TUnit()), Var("x"))
        got = subst_term_var(Unit(), "x", e)
        assert got == Unit()


def test_fresh_name_deterministic():
    avoid = {"a", "a1", "a2"}
    assert fresh_name("a", avoid) == "a3"
    assert fresh_name("b", avoid) == "b"
