import gc
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings

import strategies
from conftest import ACCEPTED_PROGRAMS, REJECTED_PROGRAMS, program_path
from helpers import (
    ENCODED_COSTS_MORE,
    GOAL_ONLY,
    gen_ctxanno_program,
    idx_chain_program,
    kway_program,
    load_program,
)
from guardlang import ctxanno
from guardlang.ctxanno import (
    EncodingBudgetError,
    EncodingGapError,
    encode,
    encode_program,
    verify_encoding,
)
from guardlang.interp import MergeMismatchError, erase
from guardlang.parser import parse_program, parse_term, parse_type, pretty_program
from guardlang.replay import VerifyError, verify_typing
from guardlang.subtyping import Fail
from guardlang.syntax import (
    Anno,
    CtxAnno,
    CtxGoal,
    CtxIdx,
    CtxVar,
    Guard,
    ILit,
    INT,
    IVar,
    IdxDecl,
    Merge,
    Some,
    TAtom,
    TUnit,
    Unit,
    Var,
    VarDecl,
    alpha_eq,
    spine,
)
from guardlang.typecheck import (
    Checker,
    TypingDerivation,
    typecheck_program,
    verify_typing,
)


def ok(x) -> bool:
    return not isinstance(x, Fail)


SNOC_ANNO = "((snoc1 x) :: [x : odd |- even ; x : even |- odd])"

# A sorting named {s}, whose `some` binder in the encoding wraps a subject
# that mentions the idxfn-bound a.
CAPTURE = (
    "indexcon list :: int\n"
    "val main : Pi a : int . list(a) -> list(a) =\n"
    "  idxfn a : int => fn x =>\n"
    "    ((x : list(a)) :: [{s} : int, x : list({s}+1) |- list({s}+1)])\n"
)


class TestCheckCtxAnno:
    def _synth(self, sig, have: str, src: str = SNOC_ANNO):
        checker = Checker(sig)
        ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom(have)))
        term = parse_term(src, prims=frozenset(sig.prims))
        return checker.synth(ctx, term)

    def test_first_typing_under_odd(self, psig):
        res = self._synth(psig, "odd")
        assert ok(res)
        ty, d = res[0]
        assert ty == TAtom("even")
        assert d.branch == 1

    def test_second_typing_under_even(self, psig):
        res = self._synth(psig, "even")
        assert ok(res)
        ty, d = res[0]
        assert ty == TAtom("odd")
        assert d.branch == 2

    def test_no_typing_under_bits(self, psig):
        res = self._synth(psig, "bits")
        assert isinstance(res, Fail)

    def test_empty_typing_applies(self, psig):
        res = self._synth(psig, "odd", "((snoc1 x) :: [|- even])")
        assert ok(res)
        ty, d = res[0]
        assert ty == TAtom("even")
        assert _chain(d.premises[0]) == [("right-anno", None)]

    def test_pvar_reflexive(self, psig):
        res = self._synth(psig, "odd", "((snoc1 x) :: [x : odd |- even])")
        assert ok(res)
        ty, d = res[0]
        assert ty == TAtom("even")
        assert _chain(d.premises[0]) == [("guard-syn", None), ("right-anno", None)]

    def test_ivar_witness_from_later_pvar(self, isig):
        # Instantiating a := b satisfies x's typing and turns the goal
        # list(a*2) into list(b*2).
        checker = Checker(isig)
        ctx = (
            checker.fresh_ctx()
            .extend(IdxDecl("b", INT))
            .extend(VarDecl("x", parse_type("list(b*2)")))
        )
        term = parse_term(
            "((idcast x) :: [a : int, x : list(a*2) |- list(a*2)])",
            prims=frozenset(isig.prims),
        )
        res = checker.synth(ctx, term)
        assert ok(res)
        ty, d = res[0]
        assert alpha_eq(ty, parse_type("list(b*2)"))
        chain = _chain(d.premises[0])
        assert [rule for rule, _ in chain] == ["some", "guard-syn", "right-anno"]
        assert alpha_eq(chain[0][1], IVar("b"))
        assert chain[1][1] is None and chain[2][1] is None

    def test_unsatisfied_pvar(self, psig):
        term = "((snoc1 x) :: [x : odd |- odd])"
        res = self._synth(psig, "even", term)
        assert isinstance(res, Fail)
        assert "no contextual typing applies" in res.messages()
        entry = parse_term(term, prims=frozenset(psig.prims)).typings[0]
        (guard,) = [f for f in res.walk() if f.reason == "guard not satisfied: x : odd"]
        assert guard.span == entry.span
        (unmet,) = [
            f for f in res.walk() if f.reason == "'x' has type even, which does not entail odd"
        ]
        assert unmet.span == entry.decl.span

    def test_a_later_typing_is_tried(self, psig):
        # Typing 1 applies under x : odd, but snoc1 x is not odd: typing 2,
        # which checks, is used, as the second branch of the encoding is.
        res = self._synth(
            psig, "odd", "((snoc1 x) :: [x : odd |- odd ; x : odd |- even])"
        )
        assert ok(res)
        ty, d = res[0]
        assert ty == TAtom("even") and d.branch == 2
        verify_typing(psig, d)

    def test_disabled(self, psig):
        checker = Checker(psig, ctx_anno=False)
        ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom("odd")))
        term = parse_term(SNOC_ANNO, prims=frozenset(psig.prims))
        res = checker.synth(ctx, term)
        assert isinstance(res, Fail)
        assert any("disabled" in m for m in res.messages())


def _chain(node: TypingDerivation) -> list:
    """The (rule, witness) pairs of the derivation of an encoded branch,
    outermost first, down to its right-hand annotation."""
    out = []
    while True:
        out.append((node.rule, node.witness))
        if node.rule == "right-anno":
            return out
        node = node.premises[-1]


def _idcast_program(var: str, typing: str) -> str:
    """`fn x => ((idcast x) :: [typing])` checked against
    `Pi var : int . list(var*2) -> list(var*2)`; the typing starts at
    line 5, column 27."""
    return (
        "datasort odd\n"
        "indexcon list :: int\n"
        "prim idcast : Pi c : int . list(c) -> list(c)\n"
        f"val main : Pi {var} : int . list({var}*2) -> list({var}*2) =\n"
        f"  fn x => ((idcast x) :: [{typing}])\n"
    )


def _diagnostics(typing: str):
    prog = parse_program(_idcast_program("a", typing), "m.gl")
    report = typecheck_program(prog)
    assert not report.accepted
    return [
        (d.message, d.span.start_line, d.span.start_col,
         d.span.end_line, d.span.end_col)
        for d in report.diagnostics
    ]


class TestIllFormedTyping:
    """An ill-formed entry or goal fails its typing, at the type's span."""

    def test_undeclared_datasort_in_entry(self):
        diags = _diagnostics("b : int, x : nope |- list(b*2)")
        assert ("no contextual typing applies", 5, 11, 5, 59) in diags
        assert ("guard not satisfied: x : nope", 5, 36, 5, 57) in diags
        assert (
            "ill-formed annotation: undeclared datasort 'nope'", 5, 40, 5, 44
        ) in diags

    def test_undeclared_datasort_in_goal(self):
        assert (
            "ill-formed annotation: undeclared datasort 'nope'", 5, 53, 5, 57
        ) in _diagnostics("b : int, x : list(b*2) |- nope")

    def test_datasort_used_as_indexed_constructor(self):
        assert (
            "ill-formed annotation: undeclared indexed constructor 'odd'",
            5, 40, 5, 46,
        ) in _diagnostics("b : int, x : odd(3) |- list(b*2)")

    def test_sorting_may_reuse_an_ambient_index_variable(self):
        src = _idcast_program("b", "b : int, x : list(b*2) |- list(b*2)")
        prog = parse_program(src, "m.gl")
        report = typecheck_program(prog)
        assert report.accepted
        verify_typing(prog.sig, report.derivation)


class TestTypingDiagnostics:
    """A typing fails as its branch of the encoding does, at the entry or
    sorting that fails; each failing typing leaves its branch's failure,
    and the annotation one over all of them when none applies."""

    def test_an_unmet_entry_at_its_span(self):
        diags = _diagnostics("b : int, x : odd |- list(b*2)")
        assert ("'x' has type list(2*a), which does not entail odd", 5, 36, 5, 43) in diags

    def test_an_unresolved_sorting_at_its_span(self):
        diags = _diagnostics("c : int, b : int, x : list(b*2) |- list(b*2)")
        assert ("no index expression determined for `some c`", 5, 27, 5, 71) in diags

    def test_one_failure_per_typing(self):
        prog = parse_program(
            _idcast_program("a", "x : odd |- list(a*2) ; b : int, x : nope |- list(b*2)")
        )
        checker = Checker(prog.sig)
        fails: list = []
        anno = prog.main.body
        ctx = (
            checker.fresh_ctx()
            .extend(IdxDecl("a", INT))
            .extend(VarDecl("x", parse_type("list(a*2)")))
        )
        assert list(ctxanno.check_ctx_anno(checker, ctx, anno, fails)) == []
        (top,) = fails
        assert top.reason == "no contextual typing applies" and top.span == anno.span
        assert [(f.reason, f.span) for f in top.parts] == [
            ("guard not satisfied: x : odd", anno.typings[0].span),
            ("guard not satisfied: x : nope", anno.typings[1].body.span),
        ]


class TestVerifyCtxAnno:
    def _node(self):
        prog = load_program(program_path("ctxanno_indexed.gl"))
        report = typecheck_program(prog)
        assert report.accepted
        (node,) = _rule_nodes(report.derivation, "ctx-anno")
        return prog.sig, node

    def test_untampered_node_replays(self):
        sig, node = self._node()
        verify_typing(sig, node)

    def test_premise_of_another_typing(self, psig):
        # Under x : odd both typings apply; each candidate's premise derives
        # its own typing's branch, not the other's.
        checker = Checker(psig)
        ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom("odd")))
        term = parse_term(
            "((snoc1 x) :: [x : odd |- even ; x : odd |- bits])",
            prims=frozenset(psig.prims),
        )
        first, second = (d for ty, d in checker.synth(ctx, term) if d.rule == "ctx-anno")
        verify_typing(psig, first)
        verify_typing(psig, second)
        for bad in (
            replace(first, premises=second.premises),
            replace(first, premises=second.premises, ty=second.ty),
        ):
            with pytest.raises(VerifyError, match="chosen typing's encoding"):
                verify_typing(psig, bad)

    def test_witness_of_the_wrong_sort(self):
        sig, node = self._node()
        (some,) = node.premises
        assert some.rule == "some"
        bad = replace(node, premises=(replace(some, witness=IVar("nosuch")),))
        with pytest.raises(VerifyError, match="not an index of sort int"):
            verify_typing(sig, bad)

    def test_premise_in_check_mode(self):
        sig, node = self._node()
        (some,) = node.premises
        bad = replace(node, premises=(replace(some, mode="check"),))
        with pytest.raises(VerifyError, match="chosen typing's encoding"):
            verify_typing(sig, bad)


class TestEncode:
    def test_homomorphic_on_unit(self):
        assert encode(Unit()) == Unit()

    def test_two_typings_become_guarded_merge(self, psig):
        term = parse_term(SNOC_ANNO, prims=frozenset(psig.prims))
        got = encode(term)
        want = parse_term(
            "((where x : odd do (snoc1 x : even)) ,, "
            "(where x : even do (snoc1 x : odd)))",
            prims=frozenset(psig.prims),
        )
        assert alpha_eq(got, want)

    def test_single_empty_typing_is_bare_annotation(self):
        term = CtxAnno(Unit(), (CtxGoal(TUnit()),))
        assert encode(term) == Anno(Unit(), TUnit())

    def test_index_sortings_become_some_binders(self, isig):
        term = CtxAnno(
            Var("x"),
            (
                CtxIdx("a", INT, CtxVar(
                    VarDecl("x", parse_type("list(a)")), CtxGoal(parse_type("list(a)"))
                )),
            ),
        )
        got = encode(term)
        assert isinstance(got, Some)
        assert isinstance(got.body, Guard)
        assert isinstance(got.body.body, Anno)

    def test_right_nested_merges(self):
        typings = tuple(
            CtxGoal(TAtom(name)) for name in ("odd", "even", "bits")
        )
        got = encode(CtxAnno(Var("x"), typings))
        assert isinstance(got, Merge)
        assert isinstance(got.rhs, Merge)
        assert not isinstance(got.lhs, Merge)

    @given(e=strategies.terms())
    @settings(max_examples=200)
    def test_idempotent(self, e):
        once = encode(e)
        assert _no_ctx_anno(once)
        assert encode(once) == once

    @given(e=strategies.terms())
    @settings(max_examples=200)
    def test_erasure_preserved(self, e):
        try:
            before = erase(e)
        except MergeMismatchError:
            assume(False)
        assert alpha_eq(erase(encode(e)), before)


def _no_ctx_anno(e) -> bool:
    from guardlang.syntax import subterms

    return not any(isinstance(s, CtxAnno) for s in subterms(e))


class TestVerifyEncoding:
    def test_parity_ctxanno(self):
        prog = load_program(program_path("parity_ctxanno.gl"))
        check = verify_encoding(prog)
        assert not check.gap
        assert check.encoded is not None and check.encoded.accepted
        a, b = check.sizes
        assert a > 0 and b > 0

    def test_kway_encoding_derives_as_many_nodes(self):
        # The encoding of kway(k, ctxanno) is the guarded k-way merge, whose
        # one merge-chk node per conjunct stands where the original has its
        # ctx-anno node.
        for k, size in ((4, 71), (8, 143), (16, 287)):
            assert verify_encoding(kway_program(k, "ctxanno")).sizes == (size, size), k

    def test_annotation_free_program_trivial(self):
        prog = load_program(program_path("parity.gl"))
        assert alpha_eq(encode_program(prog).main, prog.main)
        check = verify_encoding(prog)
        assert not check.gap

    def test_branch_correspondence_on_golden(self, psig):
        prog = load_program(program_path("parity_ctxanno.gl"))
        report = typecheck_program(prog)
        encoded = typecheck_program(encode_program(prog), ctx_anno=False)
        pairs = list(
            zip(
                _rule_branches(report.derivation, "ctx-anno"),
                _rule_branches(encoded.derivation, "merge-chk"),
            )
        )
        assert pairs, "expected at least one annotation/merge pair"
        for k_anno, k_merge in pairs:
            assert k_anno == k_merge

    def test_generated_corpus_smoke(self):
        from guardlang.typecheck import verify_typing

        rng = random.Random(404)
        accepted = 0
        for _ in range(40):
            prog = gen_ctxanno_program(rng)
            check = verify_encoding(prog)  # raises EncodingGapError on a gap
            if check.original.accepted:
                accepted += 1
                verify_typing(prog.sig, check.original.derivation)
                verify_typing(prog.sig, check.encoded.derivation)
        assert accepted >= 15

    def test_branch_correspondence_on_generated_corpus(self):
        # The typing the annotation selected is the branch the encoded
        # right-nested merge settles on.
        rng = random.Random(505)
        exact = 0
        for _ in range(120):
            prog = gen_ctxanno_program(rng)
            check = verify_encoding(prog)
            if not check.original.accepted:
                continue
            anno_nodes = _rule_nodes(check.original.derivation, "ctx-anno")
            if len(anno_nodes) != 1:
                continue
            node = anno_nodes[0]
            n_typings = len(node.term.typings)
            if n_typings < 2:
                continue
            selected = _merge_leaf_index(check.encoded.derivation, n_typings)
            assert selected == node.branch, (node.branch, selected)
            exact += 1
        assert exact >= 15

    @pytest.mark.parametrize("s", ["a", "b"])
    def test_a_sorting_does_not_capture_the_subject(self, s):
        check = verify_encoding(parse_program(CAPTURE.format(s=s)))
        assert check.original.accepted and check.encoded.accepted
        enc = check.encoded_program
        other = encode_program(parse_program(CAPTURE.format(s="b")))
        assert alpha_eq(enc.main, other.main)
        text = pretty_program(enc)
        assert ("some a1 : int in" in text) == (s == "a")
        again = parse_program(text)
        assert alpha_eq(again.main, enc.main)
        assert typecheck_program(again).verdict == check.original.verdict


PARITY = (
    "datasort odd <: bits\n"
    "datasort even <: bits\n"
    "prim snoc1 : (odd -> even) /\\ (even -> odd)\n"
)
# Typing 1 applies in both, but does not give the program its type: the
# goal bits is not even, or the subject does not check against odd.
LATER_TYPING = [
    "val main : odd -> even = fn x => ((snoc1 x) :: [x : bits |- bits ; x : odd |- even])",
    "val main : odd -> bits = fn x => ((snoc1 x) :: [x : bits |- odd ; x : odd |- even])",
]
# The sorting a is determined by the subject only, as a `some` binder's may be.
SUBJECT_ONLY = (
    "indexcon list :: int\nprim p : list(3)\n"
    "val main : list(3) = (p :: [a : int |- list(a)])\n"
)


class TestTypingsAreNotCommitted:
    @pytest.mark.parametrize("main", LATER_TYPING)
    def test_a_later_typing_gives_the_type(self, main):
        prog = parse_program(PARITY + main)
        check = verify_encoding(prog)
        assert check.original.accepted and check.encoded.accepted
        verify_typing(prog.sig, check.original.derivation)
        (node,) = _rule_nodes(check.original.derivation, "ctx-anno")
        assert node.branch == 2

    def test_a_sorting_only_the_subject_determines(self):
        prog = parse_program(SUBJECT_ONLY)
        check = verify_encoding(prog)
        assert check.original.accepted and check.encoded.accepted
        verify_typing(prog.sig, check.original.derivation)
        (node,) = _rule_nodes(check.original.derivation, "ctx-anno")
        assert node.premises[0].witness == ILit(3)

    def test_a_program_only_the_encoding_accepts_is_a_gap(self):
        with pytest.raises(EncodingGapError, match="only the encoded program") as info:
            verify_encoding(parse_program(GOAL_ONLY))
        check = info.value.check
        assert not check.original.accepted and not check.original.exhausted
        assert check.encoded.accepted
        assert [d.message for d in check.original.diagnostics][-2:] == [
            "no contextual typing applies", "no index expression determined for `some a`",
        ]

    def test_a_program_both_reject_is_no_gap(self):
        # Under x : even, typing 1 gives bits, which is not even, and
        # typing 2 does not apply; the encoded merge's branches fail alike.
        main = LATER_TYPING[0].replace("odd -> even", "even -> even")
        check = verify_encoding(parse_program(PARITY + main))
        assert not check.original.accepted and not check.encoded.accepted
        assert not check.gap


def _shared_checker_cases():
    for name in ACCEPTED_PROGRAMS + REJECTED_PROGRAMS:
        yield name, load_program(program_path(name))
    for k in (2, 5, 8):
        for variant in ("guarded", "plain", "ctxanno", "swapped"):
            yield f"kway({k}, {variant})", kway_program(k, variant)
    for n in range(1, 11):
        yield f"idx-chain({n})", idx_chain_program(n)
    rng = random.Random(20260808)
    for i in range(220):
        yield f"generated {i}", gen_ctxanno_program(rng)


def _same_report(a, b) -> bool:
    return (
        a.verdict == b.verdict
        and a.derivation == b.derivation
        and a.checked_type == b.checked_type
        and [d.message for d in a.diagnostics] == [d.message for d in b.diagnostics]
    )


class TestSharedChecker:
    """`verify_encoding` checks the encoded program on the checker that
    checked the original; the results must be those of a fresh check."""

    def test_reports_equal_fresh_checks(self):
        encoded_runs = 0
        for name, prog in _shared_checker_cases():
            check = verify_encoding(prog)
            assert _same_report(check.original, typecheck_program(prog)), name
            assert check.encoded.verdict == check.original.verdict, name
            fresh = typecheck_program(encode_program(prog), ctx_anno=False)
            assert _same_report(check.encoded, fresh), name
            if check.encoded.accepted:
                verify_typing(prog.sig, check.encoded.derivation)
                encoded_runs += 1
        assert encoded_runs >= 100

    def test_reports_keep_their_own_stats(self):
        check = verify_encoding(kway_program(5, "plain"))
        fresh = typecheck_program(kway_program(5, "plain"))
        assert check.original.stats.as_dict() | {"wall_ms": 0} == (
            fresh.stats.as_dict() | {"wall_ms": 0}
        )
        assert check.encoded.stats is not check.original.stats
        # The encoded program is the original: one memo hit decides it.
        assert check.encoded.stats.rule_applications == 0
        assert check.encoded.stats.memo_hits == 1

    def test_leftover_ctx_anno_is_checked_afresh(self, monkeypatch):
        # A translation that leaves a contextual annotation behind must not
        # reach the memos filled with the contextual rule switched on.
        monkeypatch.setattr(ctxanno, "encode_program", lambda prog: prog)
        with pytest.raises(EncodingGapError):
            verify_encoding(load_program(program_path("parity_ctxanno.gl")))

    def test_check_does_not_keep_the_checker_alive(self, monkeypatch):
        made = []

        def tracked(*args, **kwargs):
            checker = Checker(*args, **kwargs)
            made.append(weakref.ref(checker))
            return checker

        monkeypatch.setattr(ctxanno, "Checker", tracked)
        check = verify_encoding(load_program(program_path("parity_ctxanno.gl")))
        gc.collect()
        assert check.encoded.accepted
        assert made and all(ref() is None for ref in made)


def _rule_nodes(d, rule):
    out = []
    if isinstance(d, TypingDerivation):
        if d.rule == rule:
            out.append(d)
        for p in d.premises:
            out.extend(_rule_nodes(p, rule))
    return out


def _rule_branches(d, rule):
    return [n.branch for n in _rule_nodes(d, rule) if n.branch is not None]


def _merge_leaf_index(d, n_typings):
    """The 1-based index of the branch that the encoded merge of
    n_typings branches selected: its one merge node records it."""
    (node,) = [
        n for n in _rule_nodes(d, "merge-chk") + _rule_nodes(d, "merge-syn")
        if len(spine(n.term)) == n_typings
    ]
    return node.branch


class TestEncodingBudget:
    """An encoded check that runs out of its budget shows no encoding gap:
    it raises EncodingBudgetError, which is not an EncodingGapError."""

    def test_kway_budget_sweep_finds_no_gap(self):
        for k in (4, 8, 12, 16):
            prog = kway_program(k, "ctxanno")
            for depth in range(10, 700, 5):
                try:
                    verify_encoding(prog, max_depth=depth)
                except EncodingBudgetError:
                    pass

    def test_exhausted_encoded_check_names_the_budget(self):
        prog = parse_program(ENCODED_COSTS_MORE)
        with pytest.raises(EncodingBudgetError, match="budget of 18 rule") as info:
            verify_encoding(prog, max_depth=18)
        assert not isinstance(info.value, EncodingGapError)
        check = info.value.check
        assert check.original.accepted and not check.original.exhausted
        assert check.encoded.exhausted
