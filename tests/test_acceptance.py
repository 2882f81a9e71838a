"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold, so a verbose
run reads as a checklist.  Tolerances and corpus sizes are fixed here, not
configurable.
"""

import random
import time

from conftest import ACCEPTED_PROGRAMS, program_path
from helpers import (
    box_counterexample,
    gen_ctxanno_program,
    gen_eq,
    gen_type,
    indexed_sig,
    load_program,
    reannotate_with_guard,
    reannotate_with_type,
    duplicate_with_merge,
    walk_nodes,
    weaken,
)
from guardlang.ctxanno import verify_encoding
from guardlang.indices import entails
from guardlang.interp import Stepped, erase, evaluate, step, step_all
from guardlang.parser import parse_index, parse_program, pretty
from guardlang.subtyping import Fail, subtype
from guardlang.syntax import (
    Context,
    IdxDecl,
    Prim,
    Program,
    TPi,
    TSect,
    alpha_eq,
    subterms,
)
from guardlang.typecheck import TypingDerivation, typecheck_program


def ok(x) -> bool:
    return not isinstance(x, Fail)


PARITY_HEADER = (
    "datasort odd <: bits\n"
    "datasort even <: bits\n"
    "prim snoc1 : (odd -> even) /\\ (even -> odd)\n"
)
PARITY_GOAL = "(odd -> even) /\\ (even -> odd)"


def test_criterion_1_parity_examples():
    guarded = (
        "fn x => ((where x : odd do (snoc1 x : even)) ,, "
        "(where x : even do (snoc1 x : odd)))"
    )
    unguarded = "fn x => ((snoc1 x : even) ,, (snoc1 x : odd))"
    plain = "fn x => snoc1 x"
    swapped = (
        "fn x => ((where x : even do (snoc1 x : even)) ,, "
        "(where x : odd do (snoc1 x : odd)))"
    )
    cases = [
        (guarded, True),
        (unguarded, True),
        (plain, True),
        (swapped, False),
    ]
    t0 = time.perf_counter()
    for body, want in cases:
        prog = parse_program(PARITY_HEADER + f"val main : {PARITY_GOAL} = {body}")
        report = typecheck_program(prog)
        assert report.accepted == want, body
    elapsed_ms = (time.perf_counter() - t0) * 1000
    assert elapsed_ms < 100, f"parity golden tests took {elapsed_ms:.1f} ms"
    print(f"\nACCEPTANCE 1 (parity examples, {elapsed_ms:.1f} ms): PASS")


def test_criterion_2_some_binder_examples():
    header = (
        "indexcon list :: int\n"
        "prim idcast : Pi c : int . list(c) -> list(c)\n"
    )
    goal = "Pi a : int . list(a*2) -> list(a*2)"

    def some_witness(d):
        if isinstance(d, TypingDerivation):
            if d.rule == "some":
                return d.witness
            for p in d.premises:
                got = some_witness(p)
                if got is not None:
                    return got
        return None

    # Variant 1: guard x : list(b*2); the checker must choose b := a.
    prog = parse_program(
        header
        + f"val main : {goal} = fn x => some b : int in "
        "(where x : list(b*2) do (idcast x))"
    )
    report = typecheck_program(prog)
    assert report.accepted
    assert alpha_eq(some_witness(report.derivation), parse_index("a"))

    # Variant 2: guard x : list(b); the chosen index is a*2.
    prog = parse_program(
        header
        + f"val main : {goal} = fn x => some b : int in "
        "(where x : list(b) do (idcast x))"
    )
    report = typecheck_program(prog)
    assert report.accepted
    assert entails(some_witness(report.derivation), parse_index("2*a"))

    # Unsolvable divisibility 2b = a is rejected.
    prog = parse_program(
        header
        + "val main : Pi a : int . list(a) -> list(a) = "
        "fn x => some b : int in (where x : list(b*2) do (idcast x))"
    )
    report = typecheck_program(prog)
    assert not report.accepted
    blob = " ".join(d.message for d in report.diagnostics)
    assert "no solution" in blob or "guard" in blob
    print("\nACCEPTANCE 2 (some-binder examples): PASS")


def test_criterion_3_explicit_pi_introduction():
    header = (
        "indexcon list :: int\n"
        "prim idcast : Pi c : int . list(c) -> list(c)\n"
    )
    goal = "(Pi a : int . list(a) -> list(a)) /\\ (unit -> unit)"
    merged = (
        f"val main : {goal} = "
        "(idxfn a : int => fn x => (idcast x : list(a))) ,, (fn u => u)"
    )
    with_binder = (
        f"val main : {goal} = idxfn a : int => fn x => (idcast x : list(a))"
    )
    without_binder = f"val main : {goal} = fn x => (idcast x : list(a))"
    assert typecheck_program(parse_program(header + merged)).accepted
    assert not typecheck_program(parse_program(header + with_binder)).accepted
    assert not typecheck_program(parse_program(header + without_binder)).accepted
    print("\nACCEPTANCE 3 (explicit Pi introduction): PASS")


def test_criterion_4_encoding_theorem_corpus():
    rng = random.Random(20260808)
    t0 = time.perf_counter()
    total = 220
    accepted = 0
    for _ in range(total):
        prog = gen_ctxanno_program(rng)
        assert any(
            type(s).__name__ == "CtxAnno" for s in subterms(prog.main)
        ), "generator must produce contextual annotations"
        check = verify_encoding(prog)  # raises EncodingGapError on any gap
        assert not check.gap
        if check.original.accepted:
            accepted += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"corpus run took {elapsed:.1f} s"
    assert accepted >= 100, f"only {accepted} of {total} programs accepted"
    print(
        f"\nACCEPTANCE 4 (encoding theorem, {total} programs, "
        f"{accepted} accepted, {elapsed:.1f} s): PASS"
    )


def test_criterion_5_subtyping_lattice_laws():
    sig = indexed_sig()
    ctx = Context(sig)
    rng = random.Random(5150)
    checked_trans = 0
    for n in range(1000):
        a = gen_type(rng, depth=4)
        if rng.random() < 0.5:
            b = weaken(rng, sig, a)
            c = weaken(rng, sig, b)
        else:
            b = gen_type(rng, depth=4)
            c = gen_type(rng, depth=4)
        assert ok(subtype(ctx, a, a)), pretty(a)
        meet = TSect(a, b)
        assert ok(subtype(ctx, meet, a))
        assert ok(subtype(ctx, meet, b))
        if ok(subtype(ctx, c, a)) and ok(subtype(ctx, c, b)):
            assert ok(subtype(ctx, c, meet))
        if (
            not any(_has_pi(t) for t in (a, b, c))
            and ok(subtype(ctx, a, b))
            and ok(subtype(ctx, b, c))
        ):
            checked_trans += 1
            assert ok(subtype(ctx, a, c)), (
                pretty(a),
                pretty(b),
                pretty(c),
            )
    assert checked_trans >= 100
    print(
        f"\nACCEPTANCE 5 (lattice laws on 1000 triples, "
        f"{checked_trans} transitive chains): PASS"
    )


def _has_pi(ty) -> bool:
    from guardlang.syntax import TArrow, TSect as _TSect

    match ty:
        case TPi(_, _, _):
            return True
        case TArrow(a, b) | _TSect(a, b):
            return _has_pi(a) or _has_pi(b)
        case _:
            return False


def test_criterion_6_entailment_vs_brute_force():
    # The verdict must equal "no counterexample in the box", which is exact
    # for linear sides: the box holds 0 and 1 for each variable.
    rng = random.Random(606)
    entailed = 0
    refuted = 0
    for _ in range(500):
        names = ("a", "b", "c")[: rng.randint(1, 3)]
        goal = gen_eq(rng, names)
        verdict = entails(goal.lhs, goal.rhs)
        cex = box_counterexample(goal)
        assert verdict == (cex is None), f"{goal}: {verdict}, box {cex}"
        if verdict:
            entailed += 1
        else:
            refuted += 1
    assert entailed >= 25 and refuted >= 100
    print(
        f"\nACCEPTANCE 6 (entailment vs brute force: {entailed} entailed, "
        f"{refuted} refuted in-box): PASS"
    )


ERASABLE = [n for n in ACCEPTED_PROGRAMS if n != "idxfn_merge.gl"]


def test_criterion_7_semantics_agreement():
    for name in ERASABLE:
        prog = load_program(program_path(name))
        report = typecheck_program(prog)
        assert report.accepted, name

        erased = evaluate(erase(prog.main))
        annotated = evaluate(prog.main)
        assert erased.outcome == "value" and annotated.outcome == "value", name
        assert alpha_eq(erase(annotated.term), erased.term), name

        values = step_all(prog.main)
        assert len(values) == 1, name

        if prog.goal is not None:
            declared = frozenset(prog.sig.prims)
            cur = prog.main
            for _ in range(200):
                res = step(cur)
                if not isinstance(res, Stepped):
                    break
                cur = res.term
                if res.rule in ("beta", "delta"):
                    continue
                if any(
                    isinstance(s, Prim) and s.name not in declared
                    for s in subterms(cur)
                ):
                    break
                assert typecheck_program(
                    Program(prog.sig, cur, prog.goal)
                ).accepted, (name, res.rule)
    print(f"\nACCEPTANCE 7 (semantics agreement on {len(ERASABLE)} programs): PASS")


REANNOTATION_CORPUS = [
    "parity.gl",
    "parity_unguarded.gl",
    "parity_plain.gl",
    "parity_apply.gl",
    "parity_ctxanno.gl",
    "parity_twice.gl",
    "ctxanno_indexed.gl",
    "some_guard.gl",
    "some_expr.gl",
    "idxfn_merge.gl",
]


def test_criterion_8_annotation_freedom():
    # A position visited by several judgments (intersection introduction
    # re-checks the same term) cannot carry a single annotation; there the
    # annotated copy is merged with the original, which is the language's
    # own mechanism for exactly this situation.
    wrapped = 0
    for name in REANNOTATION_CORPUS:
        prog = load_program(program_path(name))
        report = typecheck_program(prog)
        assert report.accepted, name
        nodes = list(walk_nodes(report.derivation))
        visits: dict = {}
        for info in nodes:
            visits[info.path] = visits.get(info.path, 0) + 1
        for info in nodes:
            multi = visits[info.path] > 1
            with_anno = reannotate_with_type(prog, info, multi=multi)
            assert typecheck_program(with_anno).accepted, (
                name,
                "anno",
                info.path,
                pretty(info.ty),
            )
            wrapped += 1
            doubled = duplicate_with_merge(prog, info)
            assert typecheck_program(doubled).accepted, (name, "merge", info.path)
            wrapped += 1
            for decl in info.ctx_entries:
                if isinstance(decl, IdxDecl) and decl.name not in info.bound_idx:
                    continue  # not nameable without a term-level binder
                with_guard = reannotate_with_guard(prog, info, decl, multi=multi)
                assert typecheck_program(with_guard).accepted, (
                    name,
                    "guard",
                    info.path,
                    decl,
                )
                wrapped += 1
    assert wrapped > 100
    print(f"\nACCEPTANCE 8 (annotation freedom, {wrapped} re-annotations): PASS")
