import random

from helpers import (
    brute_subtype,
    gen_type,
    lattice_closure,
    weaken,
)
from guardlang.parser import parse_type, pretty
from guardlang.replay import verify_typing
from guardlang.subtyping import Fail, Stats, subtype
from guardlang.syntax import (
    Context,
    ILit,
    INT,
    IdxDecl,
    MetaStore,
    TAtom,
    TPi,
)


def sub(sig, a, b, entries=()):
    return subtype(Context(sig, entries), parse_type(a), parse_type(b))


def ok(result) -> bool:
    return not isinstance(result, Fail)


class TestExamples:
    def test_left_projection(self, isig):
        d = sub(isig, "(odd -> even) /\\ (even -> odd)", "odd -> even")
        assert ok(d)
        assert d.rule == "sect-l" and d.branch == 1

    def test_contravariant_argument(self, isig):
        # Confirmed against the exhaustive derivation search at depth 4.
        a = parse_type("odd -> even")
        b = parse_type("(odd /\\ even) -> even")
        assert brute_subtype(isig, a, b, depth=4)
        d = subtype(Context(isig), a, b)
        assert ok(d)
        assert d.rule == "arrow"

    def test_index_identity(self, isig):
        d = sub(
            isig,
            "list(a*2)",
            "list(a+a)",
            entries=(IdxDecl("a", INT),),
        )
        assert ok(d)
        assert d.rule == "ilr"

    def test_pi_left_instantiation(self, isig):
        # The metavariable must come back solved as 3.
        d = sub(isig, "Pi a : int . list(a)", "list(3)")
        assert ok(d)
        assert d.rule == "pi-l"
        assert d.witness == ILit(3)

    def test_unrelated_atoms(self, isig):
        assert isinstance(sub(isig, "even", "odd"), Fail)

    def test_atom_lattice(self, isig):
        closure = lattice_closure(isig.atoms)
        for s in ("odd", "even", "bits"):
            for t in ("odd", "even", "bits"):
                want = t in closure[s]
                assert ok(sub(isig, s, t)) == want

    def test_depth_bound_reported(self, isig):
        a = parse_type("odd")
        deep = a
        for _ in range(60):
            deep = parse_type(f"({pretty(deep)}) /\\ odd")
        res = subtype(Context(isig), deep, parse_type("even"), max_depth=20)
        assert isinstance(res, Fail)
        assert "exceeded" in res.reason

    def test_distinct_constructors(self, isig):
        isig.declare_con("vec", INT)
        res = subtype(Context(isig), parse_type("list(1)"), parse_type("vec(1)"))
        assert isinstance(res, Fail)
        assert res.reason == "distinct constructors list and vec"

    def test_pi_without_constraint_fails(self, isig):
        # No equality ever pins the instantiation down, so the search
        # reports the unsolved witness rather than guessing.
        res = sub(isig, "Pi a : int . unit -> unit", "unit -> unit")
        assert isinstance(res, Fail)


class TestLatticeLaws:
    def test_laws_on_generated_triples(self, isig):
        rng = random.Random(101)
        ctx = Context(isig)
        pi_trans_failures = 0
        checked_trans = 0
        for n in range(400):
            a = gen_type(rng, depth=3)
            if rng.random() < 0.5:
                b = weaken(rng, isig, a)
                c = weaken(rng, isig, b)
            else:
                b = gen_type(rng, depth=3)
                c = gen_type(rng, depth=3)
            # Reflexivity
            assert ok(subtype(ctx, a, a)), pretty(a)
            # Meet laws
            meet = parse_type(f"({pretty(a)}) /\\ ({pretty(b)})")
            assert ok(subtype(ctx, meet, a))
            assert ok(subtype(ctx, meet, b))
            # Greatest lower bound
            if ok(subtype(ctx, c, a)) and ok(subtype(ctx, c, b)):
                assert ok(subtype(ctx, c, meet))
            # Transitivity (asserted on Pi-free triples; Pi cases reported)
            if ok(subtype(ctx, a, b)) and ok(subtype(ctx, b, c)):
                checked_trans += 1
                pi_free = not any(
                    _mentions_pi(t) for t in (a, b, c)
                )
                holds = ok(subtype(ctx, a, c))
                if pi_free:
                    assert holds, (
                        f"transitivity: {pretty(a)} <= {pretty(b)}"
                        f" <= {pretty(c)}"
                    )
                elif not holds:
                    pi_trans_failures += 1
        assert checked_trans > 40
        # Informational: Pi-involving transitivity gaps are possible in
        # principle with the metavariable strategy; report, never assert.
        print(f"pi-transitivity gaps observed: {pi_trans_failures}")


def _mentions_pi(ty) -> bool:
    from guardlang.syntax import TArrow, TSect

    match ty:
        case TPi(_, _, _):
            return True
        case TArrow(a, b) | TSect(a, b):
            return _mentions_pi(a) or _mentions_pi(b)
        case _:
            return False


class TestDerivationReplay:
    def test_every_derivation_replays(self, isig):
        rng = random.Random(202)
        replayed = 0
        for _ in range(300):
            a = gen_type(rng, depth=3)
            b = weaken(rng, isig, a) if rng.random() < 0.6 else gen_type(rng, 3)
            d = subtype(Context(isig), a, b)
            if ok(d):
                verify_typing(isig, d)
                replayed += 1
        assert replayed > 60

    def test_agrees_with_brute_force(self, isig):
        rng = random.Random(203)
        agreements = 0
        for _ in range(200):
            a = gen_type(rng, depth=2, allow_pi=False)
            b = gen_type(rng, depth=2, allow_pi=False)
            got = ok(subtype(Context(isig), a, b))
            want = brute_subtype(isig, a, b, depth=6)
            assert got == want, f"{pretty(a)} <= {pretty(b)}"
            agreements += 1
        assert agreements == 200

    def test_failure_restores_store(self, isig):
        from guardlang.syntax import MetaStore

        store = MetaStore()
        ctx = Context(isig, (), store)
        res = subtype(ctx, parse_type("Pi a : int . list(a)"), parse_type("even"))
        assert isinstance(res, Fail)
        assert store.mark() == 0


class TestMemo:
    def test_metavariable_free_success_outlives_the_stamp(self, isig):
        # A success that holds no metavariable and solved none holds in every
        # store state: a later query is answered from the memo.
        store, memo, stats = MetaStore(), {}, Stats()
        ctx = Context(isig, (), store)
        m = store.fresh(INT, frozenset())
        query = (ctx, TAtom("odd"), TAtom("bits"))
        assert ok(subtype(*query, store=store, stats=stats, memo=memo))
        assert (stats.sub_memo_hits, stats.sub_memo_misses) == (0, 1)
        store.assign(m.uid, ILit(0))
        d = subtype(*query, store=store, stats=stats, memo=memo)
        assert ok(d) and d.rule == "atom"
        assert (stats.sub_memo_hits, stats.sub_memo_misses) == (1, 1)
