import random

import pytest

from helpers import box_counterexample, gen_eq, gen_index
from guardlang.indices import (
    match_indices,
    NoSolution,
    UnboundIndexVariable,
    _linear,
    entails,
    eval_index,
    linear_to_expr,
    solve_meta,
    sort_of,
)
from guardlang.subtyping import Stats
from guardlang.syntax import (
    Context,
    Eq,
    IAdd,
    ILit,
    IMeta,
    IMul,
    INT,
    ISub,
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


def normalize(i):
    """The canonical linear form of i: its (key, coefficient) pairs, sorted
    by key, and its constant."""
    coeffs, const = _linear(i)
    return tuple(sorted(coeffs.items())), const


class TestNormalize:
    def test_cancellation(self):
        lf = normalize(parse_index("a*2 + 1 - a"))
        assert lf == (((("v", "a"), 1),), 1)

    def test_constant(self):
        assert normalize(ILit(3)) == ((), 3)

    def test_full_cancellation(self):
        lf = normalize(parse_index("(a+b) - (b+a)"))
        assert lf == ((), 0)

    def test_idempotent_via_rebuild(self):
        rng = random.Random(7)
        for _ in range(200):
            i = gen_index(rng, ("a", "b", "c"))
            lf = normalize(i)
            assert normalize(linear_to_expr(*lf)) == lf

    def test_meaning_preserved(self):
        rng = random.Random(11)
        for _ in range(200):
            i = gen_index(rng, ("a", "b"))
            rebuilt = linear_to_expr(*normalize(i))
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
            from guardlang.syntax import zonk

            assert entails(zonk(store, lhs), zonk(store, rhs))
        assert solved > 30


# The reference for `match_indices`: the path it replaced, which zonks both
# sides, normalizes each apart and subtracts, then builds an equation that
# `solve_meta` normalizes again.  Forms are (coefficients, constant) pairs.


def _ref_zonk(store, i):
    if type(i) is IMeta:
        sol = store.solution(i.uid)
        return i if sol is None else _ref_zonk(store, sol)
    if type(i) in (IAdd, ISub):
        return type(i)(_ref_zonk(store, i.lhs), _ref_zonk(store, i.rhs))
    if type(i) is IMul:
        return IMul(i.coeff, _ref_zonk(store, i.factor))
    return i


def _ref_norm(i):
    if type(i) is IVar:
        return {("v", i.name): 1}, 0
    if type(i) is IMeta:
        return {("m", i.uid): 1}, 0
    if type(i) is ILit:
        return {}, i.value
    if type(i) is IMul:
        coeffs, const = _ref_norm(i.factor)
        return {k: c * i.coeff for k, c in coeffs.items() if c * i.coeff}, const * i.coeff
    return _ref_sub(_ref_norm(i.lhs), _ref_norm(i.rhs), 1 if type(i) is IAdd else -1)


def _ref_sub(x, y, sign=-1):
    acc = dict(x[0])
    for k, c in y[0].items():
        acc[k] = acc.get(k, 0) + sign * c
    return {k: c for k, c in acc.items() if c}, x[1] + sign * y[1]


def _ref_solve_meta(store, lhs, rhs):
    coeffs, const = _ref_sub(_ref_norm(lhs), _ref_norm(rhs))
    metas = [k for k in coeffs if k[0] == "m" and store.solution(k[1]) is None]
    if len(metas) != 1:
        raise NoSolution(f"expected exactly one unsolved metavariable, found {len(metas)}")
    c = coeffs.pop(metas[0])
    solved = {}
    for k, v in sorted(coeffs.items()):
        if v % c != 0:
            raise NoSolution(f"coefficient {c} does not divide {v} symbolically")
        solved[k] = -(v // c)
    if const % c != 0:
        raise NoSolution(f"coefficient {c} does not divide constant {const}")
    if any(k[0] == "m" for k in solved):
        raise NoSolution("solution still mentions a metavariable")
    out = {k[1] for k in solved if k[0] == "v"} - store.scope_of(metas[0][1])
    if out:
        raise NoSolution(
            "solution mentions variables bound after the metavariable: "
            + ", ".join(sorted(out))
        )
    return metas[0][1], linear_to_expr(sorted(solved.items()), -(const // c))


def _ref_match_indices(store, stats, i, j):
    i, j = _ref_zonk(store, i), _ref_zonk(store, j)
    coeffs, _ = _ref_sub(_ref_norm(i), _ref_norm(j))
    unsolved = [k for k in coeffs if k[0] == "m" and store.solution(k[1]) is None]
    if len(unsolved) > 1:
        raise NoSolution("index constraint with several unsolved metavariables")
    if unsolved:
        try:
            uid, solution = _ref_solve_meta(store, i, j)
        except NoSolution as ex:
            raise NoSolution(f"index constraint has no solution: {ex}") from None
        store.assign(uid, solution)
        return True
    stats.entailment_queries += 1
    return _ref_norm(i) == _ref_norm(j)


def _random_equation(rng):
    """A store whose metavariables have random scopes, some of them solved
    (a solution may name an older metavariable), and two sides over index
    variables, metavariables and literals."""
    names = ("a", "b", "c")
    store = MetaStore()
    metas = []
    for _ in range(rng.randint(1, 3)):
        scope = frozenset(n for n in names if rng.random() < 0.6)
        m = store.fresh(INT, scope)
        if rng.random() < 0.3:
            store.assign(m.uid, _random_side(rng, names, metas, 1))
        metas.append(m)

    return store, _random_side(rng, names, metas, 3), _random_side(rng, names, metas, 3)


def _random_side(rng, names, metas, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        pick = rng.random()
        if pick < 0.3:
            return ILit(rng.randint(-4, 4))
        if pick < 0.6 and metas:
            return rng.choice(metas)
        return IVar(rng.choice(names))
    if roll < 0.5:
        return IMul(rng.randint(-3, 3), _random_side(rng, names, metas, depth - 1))
    cls = IAdd if rng.random() < 0.5 else ISub
    return cls(_random_side(rng, names, metas, depth - 1), _random_side(rng, names, metas, depth - 1))


def _outcome(run, store):
    stats = Stats()
    try:
        res = ("holds", run(stats))
    except NoSolution as ex:
        res = ("no solution", str(ex))
    solutions = {u: store.solution(u) for u in range(1, store._next)}
    return res, solutions, stats.entailment_queries


# A word of each NoSolution message that match_indices can raise.
REASONS = ("several", "symbolically", "constant", "bound after")


def test_match_indices_agrees_with_the_normalize_twice_path():
    rng = random.Random(20261019)
    kinds = set()
    for _ in range(600):
        store, i, j = _random_equation(rng)
        mirror = MetaStore()
        for u in range(1, store._next):
            mirror.fresh(INT, store.scope_of(u))
            if store.solution(u) is not None:
                mirror.assign(u, store.solution(u))
        got = _outcome(lambda stats: match_indices(store, stats, i, j), store)
        want = _outcome(lambda stats: _ref_match_indices(mirror, stats, i, j), mirror)
        assert got == want, (i, j)
        tag, value = got[0]
        kinds.add(value if tag == "holds" else next(w for w in REASONS if w in value))
        try:
            alone = solve_meta(Context(Signature(), (), mirror), Eq(i, j))
        except NoSolution as ex:
            alone = str(ex)
        try:
            ref = _ref_solve_meta(mirror, i, j)
        except NoSolution as ex:
            ref = str(ex)
        assert alone == ref, (i, j)
    assert kinds == {True, False, *REASONS}
