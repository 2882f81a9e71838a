import random

import pytest

from helpers import box_counterexample, gen_eq, gen_index
from guardlang.indices import (
    LinearForm,
    NoSolution,
    UnboundIndexVariable,
    entails,
    eval_index,
    linear_to_expr,
    normalize,
    solve_meta,
    sort_of,
)
from guardlang.syntax import (
    Context,
    Eq,
    IAdd,
    ILit,
    IMul,
    INT,
    IVar,
    IdxDecl,
    MetaStore,
    Signature,
)
from guardlang.parser import parse_index


def ctx_with(*names: str) -> Context:
    return Context(Signature(), tuple(IdxDecl(n, INT) for n in names))


class TestSortOf:
    def test_declared_variables(self):
        assert sort_of(ctx_with("a"), parse_index("a*2 + 1")) == INT

    def test_literal(self):
        assert sort_of(ctx_with(), ILit(7)) == INT

    def test_unbound(self):
        with pytest.raises(UnboundIndexVariable):
            sort_of(ctx_with(), IVar("a"))

    def test_registered_metavariable(self):
        store = MetaStore()
        m = store.fresh(INT, frozenset())
        ctx = Context(Signature(), (), store)
        assert sort_of(ctx, m) == INT


class TestNormalize:
    def test_cancellation(self):
        lf = normalize(parse_index("a*2 + 1 - a"))
        assert lf == LinearForm(((("v", "a"), 1),), 1)

    def test_constant(self):
        assert normalize(ILit(3)) == LinearForm((), 3)

    def test_full_cancellation(self):
        lf = normalize(parse_index("(a+b) - (b+a)"))
        assert lf == LinearForm((), 0)

    def test_idempotent_via_rebuild(self):
        rng = random.Random(7)
        for _ in range(200):
            i = gen_index(rng, ("a", "b", "c"))
            lf = normalize(i)
            assert normalize(linear_to_expr(lf)) == lf

    def test_meaning_preserved(self):
        rng = random.Random(11)
        for _ in range(200):
            i = gen_index(rng, ("a", "b"))
            rebuilt = linear_to_expr(normalize(i))
            for _ in range(10):
                env = {
                    "a": rng.randint(-10, 10),
                    "b": rng.randint(-10, 10),
                }
                assert eval_index(i, env) == eval_index(rebuilt, env)


class TestEntails:
    def test_algebraic_identity(self):
        assert entails(parse_index("a*2"), parse_index("a+a"))

    def test_not_universal(self):
        assert entails(IVar("a"), ILit(3)) is False

    def test_sound_against_brute_force(self):
        # Exact for linear sides: the box holds 0 and 1 for each variable.
        rng = random.Random(31)
        entailed = 0
        refuted = 0
        for _ in range(300):
            names = ("a", "b", "c")[: rng.randint(1, 3)]
            goal = gen_eq(rng, names)
            verdict = entails(goal.lhs, goal.rhs)
            cex = box_counterexample(goal)
            assert verdict == (cex is None), f"{goal}: {verdict}, box {cex}"
            if verdict:
                entailed += 1
            else:
                refuted += 1
        assert entailed > 10 and refuted > 10


class TestSolveMeta:
    def _ctx(self):
        store = MetaStore()
        ctx = Context(Signature(), (IdxDecl("a", INT),), store)
        return ctx, store

    def test_coefficients_cancel(self):
        # 2m = 2a solves to m := a.
        ctx, store = self._ctx()
        m = store.fresh(INT, frozenset({"a"}))
        uid, sol = solve_meta(ctx, Eq(IMul(2, m), IMul(2, IVar("a"))))
        assert uid == m.uid and sol == IVar("a")

    def test_non_variable_solution(self):
        # m = a*2 solves to the expression itself.
        ctx, store = self._ctx()
        m = store.fresh(INT, frozenset({"a"}))
        uid, sol = solve_meta(ctx, Eq(m, IMul(2, IVar("a"))))
        assert uid == m.uid
        assert normalize(sol) == normalize(IMul(2, IVar("a")))

    def test_divisibility_failure(self):
        ctx, store = self._ctx()
        m = store.fresh(INT, frozenset({"a"}))
        with pytest.raises(NoSolution):
            solve_meta(ctx, Eq(IMul(2, m), IVar("a")))

    def test_scope_violation(self):
        ctx, store = self._ctx()
        m = store.fresh(INT, frozenset())  # introduced before `a`
        with pytest.raises(NoSolution):
            solve_meta(ctx, Eq(m, IVar("a")))

    def test_solution_satisfies_constraint(self):
        rng = random.Random(37)
        solved = 0
        for _ in range(300):
            store = MetaStore()
            names = ("a", "b")
            ctx = Context(
                Signature(), tuple(IdxDecl(n, INT) for n in names), store
            )
            m = store.fresh(INT, frozenset(names))
            coeff = rng.randint(-3, 3)
            if coeff == 0:
                continue
            lhs = IAdd(IMul(coeff, m), gen_index(rng, names))
            rhs = gen_index(rng, names)
            try:
                uid, sol = solve_meta(ctx, Eq(lhs, rhs))
            except NoSolution:
                continue
            solved += 1
            store.assign(uid, sol)
            from guardlang.syntax import zonk_index

            assert entails(zonk_index(store, lhs), zonk_index(store, rhs))
        assert solved > 30
