import gc
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings

import strategies
from conftest import ACCEPTED_PROGRAMS, REJECTED_PROGRAMS, program_path
from helpers import (
    gen_ctxanno_program,
    idx_chain_program,
    kway_program,
    load_program,
)
from guardlang import ctxanno
from guardlang.ctxanno import (
    CtxSubDerivation,
    EncodingGapError,
    encode,
    encode_program,
    verify_ctx_anno,
    verify_encoding,
)
from guardlang.interp import MergeMismatchError, erase
from guardlang.parser import parse_program, parse_term, parse_type
from guardlang.subtyping import Fail, VerifyError
from guardlang.syntax import (
    Anno,
    CtxAnno,
    CtxTyping,
    Guard,
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
        assert _chain(d.premises[0]) == [("empty", None)]

    def test_pvar_reflexive(self, psig):
        res = self._synth(psig, "odd", "((snoc1 x) :: [x : odd |- even])")
        assert ok(res)
        ty, d = res[0]
        assert ty == TAtom("even")
        assert _chain(d.premises[0]) == [("pvar", None), ("empty", None)]

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
        assert [rule for rule, _ in chain] == ["ivar", "pvar", "empty"]
        assert alpha_eq(chain[0][1], IVar("b"))
        assert chain[1][1] is None and chain[2][1] is None

    def test_unsatisfied_pvar(self, psig):
        res = self._synth(psig, "even", "((snoc1 x) :: [x : odd |- odd])")
        assert isinstance(res, Fail)
        messages = res.messages()
        assert "typing 1 does not apply" in messages
        assert "context does not entail x : odd" in messages

    def test_disabled(self, psig):
        checker = Checker(psig, ctx_anno=False)
        ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom("odd")))
        term = parse_term(SNOC_ANNO, prims=frozenset(psig.prims))
        res = checker.synth(ctx, term)
        assert isinstance(res, Fail)
        assert any("disabled" in m for m in res.messages())


def _chain(node: CtxSubDerivation) -> list:
    """The (rule, witness) pairs of a subsumption derivation, outermost
    first."""
    out = []
    while True:
        assert isinstance(node, CtxSubDerivation)
        out.append((node.rule, node.witness))
        if node.rule == "empty":
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


class TestIllFormedTyping:
    """Each typing is checked for well-formedness before it is tried; the
    sortings are in scope for the later entries and the goal."""

    def _diagnostics(self, typing: str):
        prog = parse_program(_idcast_program("a", typing), "m.gl")
        report = typecheck_program(prog)
        assert not report.accepted
        return [
            (d.message, d.span.start_line, d.span.start_col,
             d.span.end_line, d.span.end_col)
            for d in report.diagnostics
        ]

    def test_undeclared_datasort_in_entry(self):
        diags = self._diagnostics("b : int, x : nope |- list(b*2)")
        assert (
            "typing 1 is ill-formed: undeclared datasort 'nope'", 5, 27, 5, 57
        ) in diags
        assert ("no contextual typing applies", 5, 11, 5, 59) in diags

    def test_undeclared_datasort_in_goal(self):
        assert (
            "typing 1 is ill-formed: undeclared datasort 'nope'", 5, 27, 5, 57
        ) in self._diagnostics("b : int, x : list(b*2) |- nope")

    def test_datasort_used_as_indexed_constructor(self):
        assert (
            "typing 1 is ill-formed: undeclared indexed constructor 'odd'",
            5, 27, 5, 59,
        ) in self._diagnostics("b : int, x : odd(3) |- list(b*2)")

    def test_sorting_may_reuse_an_ambient_index_variable(self):
        src = _idcast_program("b", "b : int, x : list(b*2) |- list(b*2)")
        prog = parse_program(src, "m.gl")
        report = typecheck_program(prog)
        assert report.accepted
        verify_typing(prog.sig, report.derivation)


class TestVerifyCtxAnno:
    def _node(self):
        prog = load_program(program_path("ctxanno_indexed.gl"))
        report = typecheck_program(prog)
        assert report.accepted
        (node,) = _rule_nodes(report.derivation, "ctx-anno")
        return prog.sig, node

    def test_untampered_node_replays(self):
        sig, node = self._node()
        verify_ctx_anno(sig, node)

    def test_changed_conclusion_type(self):
        sig, node = self._node()
        bad = replace(node, ty=parse_type("list(a)"))
        with pytest.raises(VerifyError, match="substituted goal differs"):
            verify_ctx_anno(sig, bad)

    def test_swapped_checking_premise(self):
        sig, node = self._node()
        sub, chk = node.premises
        # The checking premise's own premise synthesizes the same term.
        bad = replace(node, premises=(sub, chk.premises[0]))
        with pytest.raises(VerifyError, match="checking premise mismatch"):
            verify_ctx_anno(sig, bad)


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
        term = CtxAnno(Unit(), (CtxTyping((), TUnit()),))
        assert encode(term) == Anno(Unit(), TUnit())

    def test_index_sortings_become_some_binders(self, isig):
        term = CtxAnno(
            Var("x"),
            (
                CtxTyping(
                    (IdxDecl("a", INT), VarDecl("x", parse_type("list(a)"))),
                    parse_type("list(a)"),
                ),
            ),
        )
        got = encode(term)
        assert isinstance(got, Some)
        assert isinstance(got.body, Guard)
        assert isinstance(got.body.body, Anno)

    def test_right_nested_merges(self):
        typings = tuple(
            CtxTyping((), TAtom(name)) for name in ("odd", "even", "bits")
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
        # right-nested merge settles on - exactly, unless an earlier typing
        # has an index sorting that its own entries leave undetermined.  The
        # annotation rule rejects such a typing (its goal never becomes
        # ground), but the encoded some-binder may determine the index from
        # the subject instead and legitimately take that earlier branch.
        rng = random.Random(505)
        exact = relaxed = 0
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
            earlier = node.term.typings[: node.branch - 1]
            if any(_entry_unconstrained_ivar(t) for t in earlier):
                assert selected <= node.branch, (node.branch, selected)
                relaxed += 1
            else:
                assert selected == node.branch, (node.branch, selected)
                exact += 1
        assert exact >= 15 and relaxed >= 3


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
            if check.encoded is None:
                assert not check.original.accepted, name
                continue
            fresh = typecheck_program(encode_program(prog), ctx_anno=False)
            assert _same_report(check.encoded, fresh), name
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


def _entry_unconstrained_ivar(typing) -> bool:
    from guardlang.syntax import INDEX, free_vars

    constrained: set = set()
    for d in typing.entries:
        if isinstance(d, VarDecl):
            constrained |= free_vars(d.ty, INDEX)
    return any(
        isinstance(d, IdxDecl) and d.name not in constrained
        for d in typing.entries
    )


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
    """Decode the chain of merge choices in the encoded derivation back to
    the 1-based index of the selected branch of a right-nested merge."""
    chain = _rule_nodes(d, "merge-chk") + _rule_nodes(d, "merge-syn")
    index = 1
    for node in chain:
        if node.branch == 1:
            return index
        index += 1
    # Every choice went right: the last branch was selected.
    assert index == n_typings, (index, n_typings)
    return index
