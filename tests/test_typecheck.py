import os
import tracemalloc

from conftest import ACCEPTED_PROGRAMS, REJECTED_PROGRAMS, program_path
from helpers import (
    KWAY_VARIANTS,
    brute_check,
    duplicate_with_merge,
    idx_chain_program,
    kway_program,
    kway_source,
    lattice_closure,
    load_program,
    rewrap,
    snoc_chain_program,
    walk_nodes,
)
from guardlang.parser import format_derivation, parse_program, parse_term, parse_type
from guardlang.subtyping import Fail
from guardlang.syntax import (
    INT,
    Anno,
    Context,
    IdxDecl,
    ILit,
    IVar,
    MetaStore,
    Signature,
    TAtom,
    TCon,
    Unit,
    Var,
    VarDecl,
    Zonker,
    alpha_eq,
    meta_free,
    spine,
    subst,
)
from guardlang.replay import SubDerivation
from guardlang.typecheck import (
    Checker,
    IllFormedType,
    TypingDerivation,
    _check_program,
    check_type_wf,
    typecheck_program,
    validate_program,
    verify_typing,
)
from guardlang.indices import entails


def ok(result) -> bool:
    return not isinstance(result, Fail)


def check_text(sig, term_text, type_text, **kw):
    checker = Checker(sig, **kw)
    term = parse_term(term_text, prims=frozenset(sig.prims))
    ty = parse_type(type_text)
    return checker, checker.check(checker.fresh_ctx(), term, ty)


IDCAST_HEADER = (
    "indexcon list :: int\n"
    "prim idcast : (unit -> unit) /\\ (Pi c : int . list(c) -> list(c))\n"
)
PARITY_GOAL = "(odd -> even) /\\ (even -> odd)"
GUARDED = (
    "fn x => ((where x : odd do (snoc1 x : even)) ,, "
    "(where x : even do (snoc1 x : odd)))"
)
UNGUARDED = "fn x => ((snoc1 x : even) ,, (snoc1 x : odd))"


class TestCheck:
    def test_guarded_merge(self, psig):
        checker, d = check_text(psig, GUARDED, PARITY_GOAL)
        assert ok(d)
        assert d.rule == "sect-i"
        verify_typing(psig, d)

    def test_unit(self, psig):
        _, d = check_text(psig, "()", "unit")
        assert ok(d)
        assert d.rule == "unit-i"

    def test_unguarded_merge_backtracks(self, psig):
        checker, d = check_text(psig, UNGUARDED, PARITY_GOAL)
        assert ok(d)
        assert checker.stats.backtracks > 0
        verify_typing(psig, d)

    def test_wrong_guard_rejected(self, psig):
        # The exhaustive rule search (depth 6) also rejects this.
        term = parse_term(
            "fn x => (where x : even do (snoc1 x : even))",
            prims=frozenset(psig.prims),
        )
        assert not brute_check(psig, {}, term, parse_type("odd -> even"))
        _, d = check_text(
            psig, "fn x => (where x : even do (snoc1 x : even))", "odd -> even"
        )
        assert isinstance(d, Fail)
        assert any("guard" in m for m in d.messages())

    def test_some_with_idcast(self, isig):
        # Hand replay: the guard forces 2b = 2a, so b solves to a.
        checker, d = check_text(
            isig,
            "fn x => some b : int in (where x : list(b*2) do (idcast x))",
            "Pi a : int . list(a*2) -> list(a*2)",
        )
        assert ok(d)
        some = _find_rule(d, "some")
        assert some is not None
        assert alpha_eq(some.witness, IVar("a"))
        verify_typing(isig, d)

    def test_some_expression_witness(self, isig):
        # Variant where the chosen index is a*2, not a bare variable.
        from guardlang.parser import parse_index

        checker, d = check_text(
            isig,
            "fn x => some b : int in (where x : list(b) do (idcast x))",
            "Pi a : int . list(a*2) -> list(a*2)",
        )
        assert ok(d)
        some = _find_rule(d, "some")
        assert entails(some.witness, parse_index("2*a"))

    def test_unsolvable_divisibility(self, isig):
        _, d = check_text(
            isig,
            "fn x => some b : int in (where x : list(b*2) do (idcast x))",
            "Pi a : int . list(a) -> list(a)",
        )
        assert isinstance(d, Fail)

    def test_depth_bound(self, psig):
        _, d = check_text(psig, GUARDED, PARITY_GOAL, max_depth=3)
        assert isinstance(d, Fail)
        assert "exceeded" in d.reason


def _find_rule(d, rule):
    if isinstance(d, TypingDerivation):
        if d.rule == rule:
            return d
        for p in d.premises:
            got = _find_rule(p, rule)
            if got is not None:
                return got
    return None


class TestSynth:
    def test_variable(self, psig):
        checker = Checker(psig)
        ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom("odd")))
        res = checker.synth(ctx, Var("x"))
        assert ok(res)
        assert [t for t, _ in res] == [TAtom("odd")]

    def test_bare_lambda_fails(self, psig):
        checker = Checker(psig)
        res = checker.synth(checker.fresh_ctx(), parse_term("fn x => x"))
        assert isinstance(res, Fail)

    def test_synth_check_agreement(self, psig, isig):
        for name in ACCEPTED_PROGRAMS:
            prog = load_program(program_path(name))
            if prog.goal is None:
                continue
            term = Anno(prog.main, prog.goal)
            checker = Checker(prog.sig)
            res = checker.synth(checker.fresh_ctx(), term)
            assert ok(res), name
            for ty, _ in res:
                checker2 = Checker(prog.sig)
                assert ok(checker2.check(checker2.fresh_ctx(), term, ty)), (
                    name,
                    ty,
                )


class TestCheckGuard:
    def test_exact(self, psig):
        checker = Checker(psig)
        ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom("odd")))
        assert ok(checker.check_guard(ctx, VarDecl("x", TAtom("odd"))))

    def test_lattice(self, psig):
        # Oracle: independent reflexive-transitive closure of the edges.
        closure = lattice_closure(psig.atoms)
        checker = Checker(psig)
        for have in ("odd", "even", "bits"):
            ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom(have)))
            for want in ("odd", "even", "bits"):
                got = ok(checker.check_guard(ctx, VarDecl("x", TAtom(want))))
                assert got == (want in closure[have])

    def test_unsatisfied(self, psig):
        checker = Checker(psig)
        ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom("even")))
        res = checker.check_guard(ctx, VarDecl("x", TAtom("odd")))
        assert isinstance(res, Fail)


class TestPrograms:
    def test_accepted_corpus(self):
        for name in ACCEPTED_PROGRAMS:
            report = typecheck_program(load_program(program_path(name)))
            assert report.accepted, (name, [d.message for d in report.diagnostics])

    def test_rejected_corpus(self):
        for name in REJECTED_PROGRAMS:
            report = typecheck_program(load_program(program_path(name)))
            assert not report.accepted, name

    def test_wrong_goal_lists_both_branches(self, psig):
        text = (
            "datasort odd <: bits\ndatasort even <: bits\n"
            "prim snoc1 : (odd -> even) /\\ (even -> odd)\n"
            f"val main : odd -> odd = {GUARDED}"
        )
        prog = parse_program(text)
        term = prog.main
        assert not brute_check(prog.sig, {}, term, parse_type("odd -> odd"))
        report = typecheck_program(prog)
        assert not report.accepted
        blob = " ".join(d.message for d in report.diagnostics)
        assert "branch 1" in blob and "branch 2" in blob

    def test_unit_does_not_synthesize(self):
        report = typecheck_program(parse_program("val main = ()"))
        assert not report.accepted
        blob = " ".join(d.message for d in report.diagnostics)
        assert "synthesize" in blob

    def test_determinism(self):
        a = typecheck_program(load_program(program_path("parity.gl")))
        b = typecheck_program(load_program(program_path("parity.gl")))
        assert a.verdict == b.verdict
        assert a.stats.rule_applications == b.stats.rule_applications
        assert a.stats.backtracks == b.stats.backtracks
        assert a.derivation == b.derivation

    def test_cyclic_datasorts_rejected(self):
        text = (
            "datasort a <: b\ndatasort b <: a\n"
            "val main : unit = ()"
        )
        report = typecheck_program(parse_program(text))
        assert not report.accepted
        assert any("cycle" in d.message for d in report.diagnostics)

    @staticmethod
    def _subsort_chain(n, child_first):
        order = reversed(range(n)) if child_first else range(n)
        decls = "".join(f"datasort d{i + 1} <: d{i}\n" for i in order)
        return parse_program(decls + f"prim b : d{n}\nval main : d0 = b\n")

    def test_subsort_chain_of_any_length(self):
        # The order is walked with an explicit stack: declared child-first,
        # the chain does not meet the recursion limit.
        report = typecheck_program(self._subsort_chain(1500, child_first=True))
        assert report.accepted, report.diagnostics

    def test_subsort_chain_stores_no_closure(self):
        prog = self._subsort_chain(2000, child_first=False)
        tracemalloc.start()
        try:
            report = typecheck_program(prog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.accepted
        assert peak < 10 * 2**20


class TestModeSoundness:
    def test_corpus_derivations_replay(self):
        for name in ACCEPTED_PROGRAMS:
            prog = load_program(program_path(name))
            report = typecheck_program(prog)
            assert report.derivation is not None, name
            verify_typing(prog.sig, report.derivation)

    def test_encoding_free_baseline(self):
        # Accepted programs without contextual annotations never exercise
        # the ctx-anno rule.
        from guardlang.syntax import CtxAnno, subterms

        for name in ACCEPTED_PROGRAMS:
            prog = load_program(program_path(name))
            if any(isinstance(s, CtxAnno) for s in subterms(prog.main)):
                continue
            report = typecheck_program(prog)
            assert _find_rule(report.derivation, "ctx-anno") is None, name


class TestPiExplicit:
    HEADER = (
        "indexcon list :: int\n"
        "prim idcast : Pi c : int . list(c) -> list(c)\n"
    )
    GOAL = "(Pi a : int . list(a) -> list(a)) /\\ (unit -> unit)"

    def test_merge_of_binder_and_plain(self):
        text = self.HEADER + (
            f"val main : {self.GOAL} = "
            "(idxfn a : int => fn x => (idcast x : list(a))) ,, (fn u => u)"
        )
        report = typecheck_program(parse_program(text))
        assert report.accepted

    def test_single_with_binder_rejected(self):
        text = self.HEADER + (
            f"val main : {self.GOAL} = "
            "idxfn a : int => fn x => (idcast x : list(a))"
        )
        assert not typecheck_program(parse_program(text)).accepted

    def test_single_without_binder_rejected(self):
        text = self.HEADER + (
            f"val main : {self.GOAL} = fn x => (idcast x : list(a))"
        )
        report = typecheck_program(parse_program(text))
        assert not report.accepted
        blob = " ".join(d.message for d in report.diagnostics)
        assert "not bound" in blob

    def test_idxfn_against_arrow_rejected(self):
        text = self.HEADER + (
            "val main : unit -> unit = idxfn a : int => fn u => u"
        )
        assert not typecheck_program(parse_program(text)).accepted

    def test_idxfn_shadowing_an_index_variable_is_renamed(self):
        # The inner binder reuses `a`, which the outer one put in scope; it
        # is renamed, so its annotation means the type's second variable.
        text = self.HEADER + (
            "val main : Pi a : int . Pi b : int . list(b) -> list(b) = "
            "idxfn a : int => idxfn a : int => fn x => (x : list(a))"
        )
        prog = parse_program(text)
        report = typecheck_program(prog)
        assert report.accepted
        verify_typing(prog.sig, report.derivation)

    def test_idxfn_body_failure(self):
        text = self.HEADER + (
            "val main : Pi a : int . list(a) -> list(a) = "
            "idxfn a : int => fn x => ()"
        )
        report = typecheck_program(parse_program(text))
        assert not report.accepted and not report.exhausted
        assert "under idxfn-bound a" in [d.message for d in report.diagnostics]


class TestMergeAsAnnotation:
    def test_duplicating_subterms_preserves_acceptance(self):
        for name in ("parity.gl", "some_guard.gl", "idxfn_merge.gl"):
            prog = load_program(program_path(name))
            report = typecheck_program(prog)
            assert report.accepted
            for info in walk_nodes(report.derivation):
                doubled = duplicate_with_merge(prog, info)
                assert typecheck_program(doubled).accepted, (name, info.path)

    def test_paths_reach_each_branch_of_an_n_ary_merge(self):
        # Branch k of a k-way merge is k - 1 steps down its right spine.
        prog = kway_program(3, "guarded")
        report = typecheck_program(prog)
        reached = []
        for info in walk_nodes(report.derivation):
            rewrap(prog.main, info.path, lambda t: reached.append(t) or t)
        for branch in spine(prog.main.body):
            assert any(t is branch for t in reached), branch
            assert any(t is branch.body for t in reached), branch


class TestBindersAndShadowing:
    def test_lambda_shadowing(self, psig):
        _, d = check_text(
            psig, "fn x => fn x => snoc1 x", "odd -> even -> odd"
        )
        assert ok(d)
        verify_typing(psig, d)

    def test_pi_shadowing_in_type(self, isig):
        _, d = check_text(
            isig,
            "fn x => fn y => (idcast y)",
            "Pi a : int . list(a) -> (Pi a : int . list(a) -> list(a))",
        )
        assert ok(d)
        verify_typing(isig, d)

    def test_index_sorting_guard(self, isig):
        checker, d = check_text(
            isig,
            "idxfn a : int => where a : int do fn x => (idcast x : list(a))",
            "Pi a : int . list(a) -> list(a)",
        )
        assert ok(d)
        verify_typing(isig, d)

    def test_index_sorting_guard_unbound(self, isig):
        _, d = check_text(
            isig,
            "where a : int do fn u => u",
            "unit -> unit",
        )
        assert isinstance(d, Fail)


class TestWellFormedness:
    """`check_type_wf` walks a type once, left to right, keeping the sorts
    of the index variables in scope."""

    def _error(self, sig, ty, *decls):
        try:
            check_type_wf(Context(sig, decls), ty)
        except IllFormedType as ex:
            return str(ex)
        return None

    def test_a_binder_may_shadow(self, isig):
        ty = parse_type("Pi a : int . list(a) -> Pi a : int . list(a)")
        assert self._error(isig, ty, IdxDecl("a", INT)) is None

    def test_the_first_error_from_the_left(self, isig):
        for text, want in [
            ("list(b) -> nope", "unbound index variable 'b'"),
            ("nope -> list(b)", "undeclared datasort 'nope'"),
            ("(Pi b : int . list(b)) -> list(b)", "unbound index variable 'b'"),
            ("list(1) /\\ odd(1)", "undeclared indexed constructor 'odd'"),
        ]:
            assert self._error(isig, parse_type(text)) == want, text


class TestValidateProgram:
    def test_one_diagnostic_per_open_type(self):
        # A free index variable makes a primitive's or the goal's type
        # ill-formed in the empty context: one fault, reported once.
        prog = parse_program(
            "indexcon list :: int\nprim p : list(a)\nval main : list(b) = p\n"
        )
        want = [
            ("primitive 'p': unbound index variable 'a'", prog.sig.prims["p"].span),
            ("goal type: unbound index variable 'b'", prog.goal.span),
        ]
        assert [(d.message, d.span) for d in validate_program(prog)] == want
        report = typecheck_program(prog)
        assert [(d.message, d.span) for d in report.diagnostics] == want


class TestSynthDirections:
    def test_guard_synthesizes(self, psig):
        checker = Checker(psig)
        ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom("odd")))
        term = parse_term(
            "where x : odd do (snoc1 x : even)", prims=frozenset(psig.prims)
        )
        res = checker.synth(ctx, term)
        assert ok(res)
        assert res[0][0] == TAtom("even")
        assert res[0][1].rule == "guard-syn"

    def test_some_synthesizes(self, isig):
        checker = Checker(isig)
        ctx = checker.fresh_ctx().extend(
            VarDecl("x", parse_type("list(3)"))
        )
        term = parse_term(
            "some b : int in (idcast (x : list(b)))",
            prims=frozenset(isig.prims),
        )
        res = checker.synth(ctx, term)
        assert ok(res)
        ty, d = res[0]
        assert alpha_eq(ty, parse_type("list(3)"))
        assert _find_rule(d, "some").witness is not None

    def test_goalless_program_synthesizes(self):
        report = typecheck_program(parse_program("val main = ((() : unit))"))
        assert report.accepted
        assert report.checked_type == parse_type("unit")


class TestMemoEquivalence:
    def test_memo_does_not_change_results(self):
        for name in ACCEPTED_PROGRAMS + REJECTED_PROGRAMS:
            prog = load_program(program_path(name))
            with_memo = typecheck_program(prog, memoize=True)
            without = typecheck_program(prog, memoize=False)
            assert with_memo.verdict == without.verdict, name
            assert with_memo.derivation == without.derivation, name

    @staticmethod
    def _agree(prog, verdict):
        with_memo = typecheck_program(prog, max_depth=10**6, memoize=True)
        without = typecheck_program(prog, max_depth=10**6, memoize=False)
        assert with_memo.verdict == without.verdict == verdict
        assert with_memo.derivation == without.derivation
        assert with_memo.diagnostics == without.diagnostics

    def test_idx_chains(self):
        for n in range(1, 11):
            self._agree(idx_chain_program(n), "accept")

    def test_kway(self):
        for k in (2, 3, 5, 8):
            for variant in KWAY_VARIANTS:
                verdict = "reject" if variant == "swapped" else "accept"
                self._agree(kway_program(k, variant), verdict)

    def test_guarded_and_swapped_kway_failure_trees(self):
        for k in range(1, 9):
            for variant in ("guarded", "swapped"):
                prog = kway_program(k, variant)
                verdict = "reject" if variant == "swapped" and k > 1 else "accept"
                self._agree(prog, verdict)
                trees = []
                for memoize in (True, False):
                    checker = Checker(prog.sig, memoize=memoize)
                    res = checker.check(checker.fresh_ctx(), prog.main, prog.goal)
                    trees.append(_tree_lines(res))
                assert trees[0] == trees[1], (k, variant)

    def test_snoc_chains(self):
        for n in range(1, 10):
            self._agree(snoc_chain_program(n), "accept")

    # Candidate memo: the programs below exercise its replay, chains under a
    # `some` or a contextual annotation, whose metavariable a stored stream
    # must not outlive (in `(x : list(b*2))` it is in the term itself), and a
    # candidate it must not store (its witness stays unsolved).

    def test_second_conjunct_replays_the_candidates(self):
        prog = parse_program(
            IDCAST_HEADER
            + "prim z : list(0)\n"
            "val main : list(0) /\\ list(0) =\n  idcast (idcast (idcast z))\n"
        )
        self._agree(prog, "accept")
        assert typecheck_program(prog).stats.synth_memo_hits > 0

    def test_chains_under_some_and_contextual_annotations(self):
        goal = "Pi a : int . list(a*2) -> list(a*2)"
        for body in (
            "fn x => some b : int in where x : list(b*2) do idcast (idcast x)",
            "fn x => some b : int in idcast (idcast ((x : list(b*2))))",
            "fn x => ((idcast (idcast x)) :: "
            "[b : int, x : list(b*2) |- list(b*2)])",
        ):
            prog = parse_program(IDCAST_HEADER + f"val main : {goal} =\n  {body}\n")
            self._agree(prog, "accept")

    def test_rejected_chain(self):
        prog = parse_program(
            IDCAST_HEADER
            + "val main : Pi a : int . list(a) -> list(a+1) =\n"
            "  fn x => idcast (idcast (idcast x))\n"
        )
        self._agree(prog, "reject")

    def test_replayed_failures_keep_their_place(self):
        # Intersection introduction fails at `unit` after enumerating the
        # chain; subsumption then replays it, failures and candidate in the
        # order the enumeration made them.
        prog = parse_program(
            IDCAST_HEADER
            + "val main : Pi a : int . list(a) -> unit /\\ list(a+1) =\n"
            "  fn x => idcast (idcast (idcast x))\n"
        )
        self._agree(prog, "reject")
        trees, hits = [], []
        for memoize in (True, False):
            checker = Checker(prog.sig, memoize=memoize)
            res = checker.check(checker.fresh_ctx(), prog.main, prog.goal)
            trees.append([(f.reason, f.span) for f in res.walk()])
            hits.append(checker.stats.synth_memo_hits)
        assert trees[0] == trees[1]
        assert hits[0] > 0

    def test_unsolved_witness_is_not_stored(self):
        prog = parse_program(
            "prim k : Pi c : int . unit -> unit\nval main : unit =\n  k (k ())\n"
        )
        self._agree(prog, "reject")
        report = typecheck_program(prog)
        assert [d.message for d in report.diagnostics] == [
            "derivation left index metavariables unresolved: "
            "c at <string>:3:3, c at <string>:3:6"
        ]
        assert report.stats.synth_memo_hits == 0

    def test_unresolved_metavariables_read_the_same_without_the_memo(self):
        # Without the memo the search instantiates each `k` more than once;
        # the leftovers are named by binder and instantiation site, not uid.
        prog = parse_program(
            "prim k : Pi c : int . unit -> unit\n"
            "val main : unit /\\ unit = k (k ())\n",
            "m.gl",
        )
        messages = []
        for memoize in (True, False):
            checker = Checker(prog.sig, memoize=memoize)
            res = checker.check(checker.fresh_ctx(), prog.main, prog.goal)
            messages.append(res.reason)
        assert messages == [
            "derivation left index metavariables unresolved: "
            "c at m.gl:2:27, c at m.gl:2:30"
        ] * 2


# Two structurally equal occurrences of `(b1 : even)`, on lines 4 and 5,
# that fail for the same reason.
TWIN_FAILURES = (
    "datasort odd <: bits\n"
    "datasort even <: bits\n"
    "prim b1 : odd\n"
    "val main : (even -> even) /\\ (even -> even) = fn x => (b1 : even) ,,\n"
    "  (b1 : even)\n"
)
TWIN_REASON = "cannot check (b1 : even) against even"


class TestMemoEntries:
    """Every memo entry holds in every store state: the memos keep plain
    results of metavariable-free queries, and only ground candidates."""

    def test_keys_hold_no_metavariable(self):
        # some_bad.gl solves and undoes metavariables of `some b` and of the
        # instantiated Pi of idcast, under queries that hold them.
        prog = load_program(program_path("some_bad.gl"))
        checker = Checker(prog.sig)
        assert not _check_program(checker, prog).accepted
        assert checker.metas.any_created() and checker._memo
        for (e, _span, ty, entries), res in checker._memo.items():
            assert meta_free((e, ty, entries))
            assert isinstance(res, (TypingDerivation, Fail))
        for key, res in checker._sub_memo.items():
            assert meta_free(key) and isinstance(res, (SubDerivation, Fail))

    def test_grounded_keeps_only_ground_derivations(self):
        checker = Checker(Signature())
        m = checker.metas.fresh(INT, frozenset())

        def var_node(t):
            return TypingDerivation("var", "synth", (VarDecl("x", t),), Var("x"), t)

        d = var_node(TCon("list", m))
        assert checker._grounded(d) is None
        checker.metas.assign(m.uid, ILit(3))
        zd = checker._grounded(d)
        assert zd == var_node(TCon("list", ILit(3))) and not zd._metas
        assert checker._grounded(zd) is zd


class TestFailureLocations:
    def test_memo_hit_keeps_the_occurrence_span(self):
        prog = parse_program(TWIN_FAILURES, "twins.gl")
        for memoize in (True, False):
            checker = Checker(prog.sig, memoize=memoize)
            res = checker.check(checker.fresh_ctx(), prog.main, prog.goal)
            lines = {
                node.span.start_line
                for node in res.walk()
                if node.reason == TWIN_REASON
            }
            assert lines == {4, 5}, memoize

    def test_diagnostics_keep_repeated_reasons_at_each_location(self):
        report = typecheck_program(parse_program(TWIN_FAILURES, "twins.gl"))
        lines = [
            d.span.start_line
            for d in report.diagnostics
            if d.message == TWIN_REASON
        ]
        assert lines == [4, 5]


class TestSpanlessDiagnostics:
    """A failure without a span is reported at its nearest ancestor's."""

    def test_subsort_failure_at_the_subsumed_term(self):
        prog = parse_program(
            "datasort a\ndatasort b\nprim p : a\nval main : b =\n  p\n", "m.gl"
        )
        report = typecheck_program(prog)
        where = {
            d.message: (d.span.start_line, d.span.start_col)
            for d in report.diagnostics
        }
        assert where["datasort a is not a subsort of b"] == (5, 3)

    def test_badguard_subsort_failure_at_the_guard(self):
        report = typecheck_program(load_program(program_path("parity_badguard.gl")))
        spans = [
            (d.span.start_line, d.span.start_col)
            for d in report.diagnostics
            if d.message == "datasort odd is not a subsort of even"
        ]
        assert spans[0] == (6, 19)

    def test_every_corpus_diagnostic_has_a_span(self):
        for name in REJECTED_PROGRAMS:
            report = typecheck_program(load_program(program_path(name)))
            assert all(d.span is not None for d in report.diagnostics), name


def _sect_i_nodes(d):
    if isinstance(d, TypingDerivation):
        if d.rule == "sect-i":
            yield d
        for p in d.premises:
            yield from _sect_i_nodes(p)


class TestSharing:
    """Finalize keeps the checker's objects where nothing was solved, so
    derivations share their terms with the program and with each other."""

    def test_sect_i_premises_share_the_term(self):
        progs = [kway_program(5, "guarded"), load_program(program_path("parity.gl"))]
        for prog in progs:
            report = typecheck_program(prog)
            nodes = list(_sect_i_nodes(report.derivation))
            assert nodes
            for node in nodes:
                for p in node.premises:
                    assert p.term is node.term
            assert report.derivation.term is prog.main

    def test_solved_metavariables_are_zonked_out(self):
        # The search solves a metavariable at every idcast; none is left in
        # the finalized derivation (a fresh store counts every one).
        prog = idx_chain_program(3)
        report = typecheck_program(prog)
        zonk = Zonker(MetaStore())
        assert zonk.visit(report.derivation) is report.derivation
        assert zonk.unsolved == set()
        verify_typing(prog.sig, report.derivation)

    def test_unresolved_metavariable_rejections_keep_their_messages(self):
        header = "prim f : Pi a : int . unit -> unit\n"
        checked = typecheck_program(
            parse_program(header + "val main : unit =\n  f ()\n", "m.gl")
        )
        assert [d.message for d in checked.diagnostics] == [
            "derivation left index metavariables unresolved: a at m.gl:3:3"
        ]
        synthesized = typecheck_program(
            parse_program(header + "val main =\n  f ()\n", "m.gl")
        )
        assert [d.message for d in synthesized.diagnostics] == [
            "no type synthesized for f ()"
        ]

    def test_unresolved_metavariables_point_at_the_checked_term(self):
        report = typecheck_program(
            parse_program(
                "prim k : Pi c : int . unit -> unit\n"
                "val main : unit /\\ unit =\n  k (k ())\n",
                "m.gl",
            )
        )
        (diag,) = report.diagnostics
        assert diag.message.startswith(
            "derivation left index metavariables unresolved: "
        )
        assert str(diag.span) == "m.gl:3:3"


class TestWorkNotRead:
    """Failure messages are rendered only when read, and finalize does not
    run when the run created no metavariable."""

    def test_accepted_kway_calls_no_pretty_printer(self, monkeypatch):
        import guardlang.ctxanno
        import guardlang.parser
        import guardlang.subtyping
        import guardlang.typecheck

        calls = []
        for module in (
            guardlang.parser,
            guardlang.typecheck,
            guardlang.subtyping,
            guardlang.ctxanno,
        ):
            for name in dir(module):
                if name.startswith("pretty") or name == "format_derivation":
                    fn = getattr(module, name)

                    def counted(*args, _fn=fn, _name=name, **kwargs):
                        calls.append(_name)
                        return _fn(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        for variant in ("guarded", "plain"):
            prog = kway_program(8, variant)
            report = typecheck_program(prog, max_depth=10**6)
            assert report.accepted, variant
            # Failures were recorded: the conjuncts and branches the
            # subsort order refutes.
            assert report.stats.refuted > 0, variant
        assert calls == []

    def test_message_renders_after_the_store_is_undone(self):
        # The failure solves the Pi-bound c to a and undoes it; the messages
        # keep the types as they were zonked at the failure.
        prog = parse_program(
            "indexcon list :: int\n"
            "prim idcast : (unit -> unit) /\\ (Pi c : int . list(c) -> list(c))\n"
            "val main : Pi a : int . list(a) -> list(a+1) =\n"
            "  fn x => idcast x\n"
        )
        checker = Checker(prog.sig)
        res = checker.check(checker.fresh_ctx(), prog.main, prog.goal)
        assert isinstance(res, Fail)
        assert checker.metas.any_created() and not checker.metas.any_solved()
        messages = res.messages()
        assert "synthesized list(a) is not a subtype of list(a + 1)" in messages
        assert "index equality a = a + 1 is not entailed" in messages
        assert res.messages() == messages

    def test_plain_string_reason(self):
        f = Fail("no {} here", None, (Fail("inner {}", args=(TAtom("odd"),)),))
        assert f.reason == "no {} here"
        assert f.messages() == ["no {} here", "inner odd"]
        assert str(f.parts[0]) == "inner odd"

    def test_finalize_returns_the_search_result_without_metavariables(
        self, monkeypatch
    ):
        import guardlang.typecheck

        prog = kway_program(5, "guarded")
        checker = Checker(prog.sig)
        d = checker._check(checker.fresh_ctx(), prog.main, prog.goal)
        assert isinstance(d, TypingDerivation)
        assert not checker.metas.any_created()

        def no_zonk(store):
            raise AssertionError("finalize ran a Zonker pass")

        monkeypatch.setattr(guardlang.typecheck, "Zonker", no_zonk)
        zd, leftover = checker._unsolved_in(d)
        assert zd is d
        assert leftover == set()

    def test_subtyping_memo_lives_for_the_run(self):
        report = typecheck_program(kway_program(8, "guarded"))
        stats = report.stats
        assert stats.sub_memo_hits > 0
        unshared = typecheck_program(kway_program(8, "guarded"), memoize=False)
        assert unshared.stats.sub_memo_hits < stats.sub_memo_hits
        assert unshared.stats.subtype_queries == stats.subtype_queries


class TestSearchGrowth:
    """Failures of metavariable-free queries stay memoized across the
    metavariables their own subgoals solve and undo, and so do the candidate
    streams of metavariable-free applications, so the search on an
    idx-chain derives each level once."""

    def test_idx_chains_fit_the_default_budget(self):
        for n in (7, 8, 9, 10, 20, 64):
            assert typecheck_program(idx_chain_program(n)).accepted, n

    def test_idx_chain_rules_grow_slowly(self):
        report = typecheck_program(idx_chain_program(20), max_depth=10**6)
        assert report.accepted
        assert report.stats.rule_applications < 2000
        # Every checking-mode query on the chain is distinct; the candidate
        # memo answers the repeated ones.
        assert report.stats.synth_memo_hits > 0

    def test_idx_chain_rules_grow_linearly(self):
        rules = [
            typecheck_program(
                idx_chain_program(n), max_depth=10**6
            ).stats.rule_applications
            for n in range(2, 65)
        ]
        steps = {b - a for a, b in zip(rules, rules[1:])}
        assert len(steps) == 1, steps

    def test_memos_hit_on_idx_chain(self):
        stats = typecheck_program(idx_chain_program(8), max_depth=10**6).stats
        assert stats.synth_memo_hits > 0
        assert stats.sub_memo_hits > 0


def _counts(prog) -> tuple[int, int, int]:
    stats = typecheck_program(prog, max_depth=10**6).stats
    return stats.rule_applications, stats.backtracks, stats.subtype_queries


def _tree_lines(res, depth=0):
    """A failure tree in preorder, one line per node: its depth, its span
    and its message.  An accepted check gives its derivation instead."""
    if not isinstance(res, Fail):
        return format_derivation(res).splitlines()
    sp = res.span
    at = "-" if sp is None else (
        f"{sp.start_line}:{sp.start_col}-{sp.end_line}:{sp.end_col}"
    )
    lines = [f"{depth} {at} {res.reason}"]
    for part in res.parts:
        lines += _tree_lines(part, depth + 1)
    return lines


GUARD_VS_SECT = (
    "datasort odd <: bits\n"
    "datasort even <: bits\n"
    "prim snoc1 : (odd -> even) /\\ (even -> odd)\n"
    "val main : even -> even /\\ bits =\n"
    "  fn x => where x : odd do snoc1 x\n"
)
GUARD_VS_PI = (
    "indexcon list :: int\n"
    "prim idcast : Pi c : int . list(c) -> list(c)\n"
    "val main : list(1) -> (Pi a : int . list(a) -> list(a)) =\n"
    "  fn y => where y : list(2) do idcast\n"
)


def failure_trees(memoize: bool = True) -> str:
    """The full failure trees of programs whose guards fail against atom,
    arrow, intersection and Pi goals.  `tests/golden/guard_failure_trees.txt`
    was written by
    `PYTHONPATH=src:tests python -c 'import test_typecheck as t;
    print(t.failure_trees(), end="")'` once guards and merges were checked
    by their own rules only, with no subsumption after them."""
    sources = [(f"kway{k}_swapped", kway_source(k, "swapped")) for k in range(1, 9)]
    for name in ("parity_badguard", "some_bad"):
        with open(program_path(f"{name}.gl"), encoding="utf-8") as fh:
            sources.append((name, fh.read()))
    sources += [("guard_vs_sect", GUARD_VS_SECT), ("guard_vs_pi", GUARD_VS_PI)]
    out = []
    for name, text in sources:
        prog = parse_program(text, f"{name}.gl")
        checker = Checker(prog.sig, memoize=memoize)
        res = checker.check(checker.fresh_ctx(), prog.main, prog.goal)
        out += [f"== {name}"] + _tree_lines(res)
    return "\n".join(out) + "\n"


class TestGuardDecidedOnce:
    """A guard checked against a goal that is neither an intersection nor a
    Pi has guard-chk as its only rule, so it is decided once."""

    def test_failure_trees_match_golden(self):
        path = os.path.join(os.path.dirname(__file__), "golden", "guard_failure_trees.txt")
        with open(path, encoding="utf-8") as fh:
            golden = fh.read()
        assert failure_trees(memoize=True) == golden
        assert failure_trees(memoize=False) == golden

    def test_failed_guard_is_decided_by_guard_chk_alone(self, psig):
        # The check costs guard-chk's rule and what deciding the guard
        # costs: its one subtype query and that query's rule.
        term = parse_term("where x : odd do snoc1 x", prims=frozenset(psig.prims))

        def run(judge):
            checker = Checker(psig)
            res = judge(checker, checker.fresh_ctx().extend(VarDecl("x", TAtom("even"))))
            stats = checker.stats
            return res, (stats.rule_applications, stats.backtracks, stats.subtype_queries)

        res, counts = run(lambda c, ctx: c.check(ctx, term, TAtom("even")))
        ev, guard_counts = run(lambda c, ctx: c.check_guard(ctx, term.decl))
        assert isinstance(ev, Fail)
        assert guard_counts == (1, 0, 1)
        assert counts == (2, 0, 1)
        assert [f.reason for f in res.walk()] == [
            "guard not satisfied: x : odd",
            "'x' has type even, which does not entail odd",
            "datasort even is not a subsort of odd",
        ]

    def test_failed_check_undoes_what_the_guard_solved(self, isig):
        # The guard holds by solving ?m, then the body fails: the store
        # must be left as the check found it.
        checker = Checker(isig)
        m = checker.metas.fresh(INT, scope=frozenset())
        term = subst(m, "b", parse_term("where x : list(b) do ()"))
        ctx = checker.fresh_ctx().extend(VarDecl("x", parse_type("list(3)")))
        assert isinstance(checker.check(ctx, term, parse_type("list(3)")), Fail)
        assert checker.metas.solution(m.uid) is None

    def test_guarded_kway_fits_the_default_budget(self):
        for k in (9, 11, 13, 15):
            assert typecheck_program(kway_program(k, "guarded")).accepted, k


# Accepted only through `some`'s subsumption: checking commits to merge
# branch 1, which leaves `a` unsolved, while synthesis skips that candidate
# for branch 2, which solves it.
SOME_NEEDS_SUBSUMPTION = (
    "indexcon list :: int\n"
    "prim p : list(3)\n"
    "val main : list(3) = some a : int in ((p : list(3)) ,, (p : list(a)))\n"
)


class TestSomeKeepsSubsumption:
    def test_accepted_by_subsumption_over_a_synthesized_some(self):
        prog = parse_program(SOME_NEEDS_SUBSUMPTION)
        report = typecheck_program(prog)
        assert report.accepted
        root = report.derivation
        assert (root.rule, root.mode) == ("sub", "check")
        some = root.premises[0]
        assert (some.rule, some.mode, some.witness) == ("some", "synth", ILit(3))
        assert some.premises[0].branch == 2
        verify_typing(prog.sig, root)


class TestFailureTreesGrowLinearly:
    """A failing guard or merge nests the failure of its own rule only, so
    the failure tree of a k-way merge of failing guards grows with k."""

    def test_swapped_kway_tree_sizes(self):
        for k, nodes in ((4, 40), (8, 72), (16, 136)):
            prog = kway_program(k, "swapped")
            for memoize in (True, False):
                checker = Checker(prog.sig, memoize=memoize)
                res = checker.check(checker.fresh_ctx(), prog.main, prog.goal)
                assert isinstance(res, Fail)
                assert len(res.walk()) == nodes, (k, memoize)


def _min_depth(prog) -> int:
    """The least --max-depth that accepts prog; a check that fits a budget
    fits every larger one."""
    lo, hi = 0, 4096
    while lo < hi:
        mid = (lo + hi) // 2
        if typecheck_program(prog, max_depth=mid).accepted:
            hi = mid
        else:
            lo = mid + 1
    assert typecheck_program(prog, max_depth=lo).accepted
    return lo


class TestAnnotationRulesAreFree:
    """The rules of annotation forms take no budget: guards, merges and
    contextual typings cost what the checks under them cost."""

    def test_guarded_and_ctxanno_kway_need_the_same_budget(self):
        for k in (2, 4, 8, 16):
            guarded = _min_depth(kway_program(k, "guarded"))
            assert _min_depth(kway_program(k, "ctxanno")) == guarded, k

    def test_kway_variants_agree_at_the_default_budget(self):
        # The refuted alternatives take no budget, so the default budget
        # holds plain up to k = 73 and guarded and ctxanno up to 64.
        for k in (*range(2, 23), 63, 64, 65, 73, 74):
            verdicts = {
                v: typecheck_program(kway_program(k, v)).verdict
                for v in ("plain", "guarded", "ctxanno")
            }
            assert verdicts == {
                v: "accept" if k <= (73 if v == "plain" else 64) else "reject"
                for v in verdicts
            }, k


class TestBudgetExhaustion:
    WIDE = (
        "".join(f"datasort a{i}\n" for i in range(30))
        + "prim f : " + " /\\ ".join(f"a{i}" for i in range(30)) + "\n"
        + "val main : a29 = f\n"
    )

    def test_subtype_query_out_of_budget_is_exhausted(self):
        # Projecting a29 out of the 30-way intersection takes 60 subtyping
        # rules: one sect-l attempt per conjunct, then the atom rule on each
        # of a0..a28 and refl on a29.  With a budget of 59 there is no type
        # error: the budget ran out.
        prog = parse_program(self.WIDE)
        report = typecheck_program(prog, max_depth=59)
        assert not report.accepted and report.exhausted
        assert [d.message for d in report.diagnostics] == [
            "subtyping search exceeded 59 rule applications"
        ]
        assert typecheck_program(prog, max_depth=60).accepted

    def test_synth_out_of_budget(self, psig):
        checker = Checker(psig, max_depth=2)
        ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom("odd")))
        term = parse_term("snoc1 (snoc1 x)", prims=frozenset(psig.prims))
        res = checker.synth(ctx, term)
        assert isinstance(res, Fail)
        assert "typing search exceeded 2 rule applications" in res.messages()

    def test_goal_free_program_out_of_budget_is_exhausted(self):
        text = (
            "datasort odd <: bits\ndatasort even <: bits\n"
            "prim snoc1 : (odd -> even) /\\ (even -> odd)\nprim b1 : odd\n"
            "val main = snoc1 (snoc1 b1)\n"
        )
        report = typecheck_program(parse_program(text), max_depth=2)
        assert not report.accepted and report.exhausted
        assert typecheck_program(parse_program(text)).accepted


class TestSearchCounts:
    """Rules, backtracks and subtype queries of the benchmark families, so
    that a change in the work the search does shows up here."""

    def test_reference_counts(self):
        got = {
            "idx-chain(8)": _counts(idx_chain_program(8)),
            "snoc-chain(128)": _counts(snoc_chain_program(128)),
        }
        for variant in KWAY_VARIANTS:
            got[f"kway-{variant}(16)"] = _counts(kway_program(16, variant))
        assert got == {
            "idx-chain(8)": (53, 8, 17),
            "snoc-chain(128)": (773, 128, 257),
            "kway-guarded(16)": (207, 0, 64),
            "kway-plain(16)": (143, 0, 32),
            "kway-ctxanno(16)": (207, 0, 64),
            "kway-swapped(16)": (17, 4, 3),
        }

    def test_kway_counts_are_linear(self):
        # Plain costs 9k - 1 rules and 2k subtype queries; guarded and
        # ctxanno, its encoding, cost 13k - 1 and 4k.  The subsort order
        # refutes every conjunct and branch that does not match, so none is
        # tried.  The derivations are linear too, 10k - 1 and 18k - 1 nodes:
        # each application projects its conjunct by one sect-e node.
        for k in (8, 16, 32):
            assert _counts(kway_program(k, "plain")) == (9 * k - 1, 0, 2 * k), k
            assert _counts(kway_program(k, "ctxanno")) == (13 * k - 1, 0, 4 * k), k
            assert _counts(kway_program(k, "guarded")) == (13 * k - 1, 0, 4 * k), k
            for variant, size in (
                ("plain", 10 * k - 1), ("ctxanno", 18 * k - 1), ("guarded", 18 * k - 1)
            ):
                report = typecheck_program(kway_program(k, variant), max_depth=10**6)
                assert report.derivation.size() == size, (k, variant)

    def test_one_merge_chk_node_per_conjunct(self):
        # A merge is checked by one rule over all its branches, so each of
        # the k conjuncts of guarded kway(k) takes one merge-chk node.
        for k in (2, 4, 8, 16):
            prog = kway_program(k, "guarded")
            root = typecheck_program(prog).derivation
            nodes, todo = {}, [root]
            while todo:
                d = todo.pop()
                if id(d) not in nodes:
                    nodes[id(d)] = d
                    todo += d.premises
            merges = [d for d in nodes.values() if d.rule == "merge-chk"]
            assert len(merges) == k, k
            assert sorted(d.branch for d in merges) == list(range(1, k + 1)), k
            verify_typing(prog.sig, root)

    def test_refuted_alternatives_of_kway(self):
        # Skipped untried: one argument check per unmatched conjunct, and
        # in guarded and ctxanno one guard per unmatched branch or typing.
        got = {
            v: typecheck_program(kway_program(16, v), max_depth=10**6).stats.refuted
            for v in ("plain", "guarded", "ctxanno")
        }
        assert got == {"plain": 120, "guarded": 240, "ctxanno": 240}


class TestEliminationPaths:
    def test_merge_in_function_position(self, psig):
        psig.declare_prim("b1", TAtom("odd"))
        checker = Checker(psig)
        term = parse_term(
            "((fn x => snoc1 x : odd -> even) ,, (fn x => snoc1 x : even -> odd)) b1",
            prims=frozenset(psig.prims),
        )
        res = checker.synth(checker.fresh_ctx(), term)
        assert ok(res)
        assert res[0][0] == TAtom("even")

    def test_pi_instantiation_in_application(self, isig):
        checker = Checker(isig)
        ctx = checker.fresh_ctx().extend(VarDecl("x", parse_type("list(3)")))
        term = parse_term("idcast (x : list(3))", prims=frozenset(isig.prims))
        res = checker.synth(ctx, term)
        assert ok(res)
        ty, d = res[0]
        assert alpha_eq(ty, parse_type("list(3)"))
        pi_e = _find_rule(d, "pi-e")
        assert pi_e is not None and pi_e.witness is not None
        verify_typing(isig, d)

    def test_ill_formed_guard_type(self, psig):
        _, d = check_text(
            psig, "fn x => (where x : nosuch do x)", "odd -> odd"
        )
        assert isinstance(d, Fail)
        assert any("undeclared" in m for m in d.messages())

    def test_ill_formed_annotation(self, psig):
        _, d = check_text(psig, "(() : nosuch)", "unit")
        assert isinstance(d, Fail)
        assert any("undeclared" in m for m in d.messages())


class TestReportInvariants:
    def test_reject_implies_diagnostics(self):
        for name in REJECTED_PROGRAMS:
            report = typecheck_program(load_program(program_path(name)))
            assert not report.accepted
            assert report.diagnostics

    def test_corpus_programs_round_trip_through_pretty(self):
        from guardlang.parser import parse_program, pretty_program

        for name in ACCEPTED_PROGRAMS + REJECTED_PROGRAMS:
            prog = load_program(program_path(name))
            again = parse_program(pretty_program(prog))
            assert (
                typecheck_program(again).verdict
                == typecheck_program(prog).verdict
            ), name


class TestDifferentialOracle:
    """The checker against the exhaustive search oracle on small closed
    terms of the index-free fragment."""

    def test_agreement_on_random_terms(self, psig):
        import random

        from helpers import brute_check, gen_index_free_term, gen_type
        from guardlang.syntax import TERM, free_vars

        psig.declare_prim("b1", TAtom("odd"))
        rng = random.Random(999)
        accepted = 0
        for _ in range(800):
            e = gen_index_free_term(rng, 3, frozenset())
            if free_vars(e, TERM):
                continue
            ty = gen_type(rng, 2, (), allow_pi=False)
            checker = Checker(psig, max_depth=2000)
            got = ok(checker.check(checker.fresh_ctx(), e, ty))
            want = brute_check(psig, {}, e, ty, depth=9)
            assert got == want, (e, ty)
            accepted += got
        assert accepted > 20


class TestNoSubsumptionAfterGuardOrMerge:
    """A guard or a merge is checked by its own rule, with no subsumption
    after it.  That loses nothing: a type it synthesizes its body or branch
    synthesizes too, and checking that body or branch ends in subsumption."""

    def test_a_synthesized_subtype_of_the_goal_checks(self, isig):
        import random

        from helpers import gen_index_free_term, gen_type, weaken
        from guardlang.subtyping import subtype
        from guardlang.syntax import Guard, Merge

        rng = random.Random(7)
        premises = {Merge: 0, Guard: 0}
        for _ in range(3000):
            x_ty = gen_type(rng, 2, (), allow_pi=False)
            body = gen_index_free_term(rng, 3, frozenset({"x"}))
            if rng.random() < 0.5:
                e = Merge(body, gen_index_free_term(rng, 3, frozenset({"x"})))
            else:
                guard = (
                    weaken(rng, isig, x_ty) if rng.random() < 0.7
                    else gen_type(rng, 1, (), allow_pi=False)
                )
                e = Guard(VarDecl("x", guard), body)
            checker = Checker(isig, max_depth=10**4)
            ctx = checker.fresh_ctx().extend(VarDecl("x", x_ty))
            cands = checker.synth(ctx, e)
            if isinstance(cands, Fail):
                continue
            goal = (
                weaken(rng, isig, rng.choice(cands)[0]) if rng.random() < 0.7
                else gen_type(rng, 2, (), allow_pi=False)
            )
            if any(ok(subtype(ctx, a, goal)) for a, _ in cands):
                premises[type(e)] += 1
                checker = Checker(isig, max_depth=10**4)
                assert ok(checker.check(ctx, e, goal)), (e, goal)
        assert premises[Merge] > 600 and premises[Guard] > 250


class TestIndexedDifferentialOracle:
    """The checker against witness enumeration on structured some/guard
    programs over Pi-quantified list types.

    The only permitted divergence is the documented one: the enumeration
    oracle may pick an arbitrary witness for a `some` whose variable is
    never constrained, while the checker requires the index to be
    determined and rejects.  Anything else is a bug.
    """

    def test_agreement_up_to_unresolved_some(self):
        import random

        from helpers import brute_check_idx, gen_indexed_program

        rng = random.Random(77)
        agreed_accepts = 0
        unresolved_gaps = 0
        for _ in range(400):
            prog = gen_indexed_program(rng)
            checker = Checker(prog.sig, max_depth=4000)
            res = checker.check(checker.fresh_ctx(), prog.main, prog.goal)
            got = ok(res)
            want = brute_check_idx(prog.sig, {}, (), prog.main, prog.goal, depth=9)
            if got:
                assert want, "checker accepted a program the oracle refutes"
                agreed_accepts += 1
            elif want:
                assert any(
                    "no index expression determined" in m
                    for m in res.messages()
                ), res.messages()[:4]
                unresolved_gaps += 1
        assert agreed_accepts > 80
        assert unresolved_gaps > 20  # the carve-out is actually exercised


def _walk_keys(f: Fail) -> list:
    return [(node.reason, node.span) for node in f.walk()]


class TestSubsortRefutation:
    """A variable whose type is a declared atom c checks against no
    declared atom d that c is not below, and passes no guard on d.  The
    checker skips such alternatives (`Checker._refute`) and records the
    failure the rule would have given; here the rule runs on every pair of
    atoms of random lattices, and the two are compared."""

    def test_refutation_matches_the_rules(self):
        import random

        rng = random.Random(20261020)
        refuted = 0
        for _ in range(40):
            names = ["odd", "even", "bits"] + [f"s{i}" for i in range(rng.randint(0, 4))]
            rng.shuffle(names)
            sig, edges = Signature(), {n: frozenset() for n in names}
            for n in names:
                sig.declare_atom(n)
            # Edges go to later names only, so the order stays acyclic; the
            # order is queried between declarations, so a stale up-closure
            # would show.
            for i, n in enumerate(names):
                later = names[i + 1:]
                for up in rng.sample(later, min(len(later), rng.randint(0, 2))):
                    sig.declare_atom(n, up)
                    edges[n] |= {up}
                    below = lattice_closure(edges)
                    for c in names:
                        for d in names:
                            assert sig.atom_le(c, d) == (d in below[c]), (c, d)
            below = lattice_closure(edges)
            var = parse_term("x")
            for c in names:
                for d in names:
                    checker = Checker(sig)
                    ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom(c)))
                    recorded = checker._refuted_check(ctx, var, TAtom(d))
                    assert (recorded is not None) == (d not in below[c]), (c, d)
                    guard = parse_term(f"where x : {d} do x")
                    skipped = checker._refuted_guard(ctx, guard)
                    assert (skipped is None) == (recorded is None)
                    if recorded is None:
                        continue
                    refuted += 1
                    res = Checker(sig).check(ctx, var, TAtom(d))
                    assert isinstance(res, Fail)
                    assert _walk_keys(res) == _walk_keys(recorded)
                    res = Checker(sig).check(ctx, guard, TAtom(c))
                    assert isinstance(res, Fail)
                    assert _walk_keys(res) == _walk_keys(skipped)
        assert refuted > 300

    def test_undeclared_and_non_atom_types_are_tried(self, psig):
        checker = Checker(psig)
        ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom("odd")))
        ctx = ctx.extend(VarDecl("y", TAtom("nosuch")))
        ctx = ctx.extend(VarDecl("z", parse_type("odd /\\ bits")))
        for name, goal in (("x", "nosuch"), ("y", "odd"), ("z", "even"), ("x", "unit")):
            assert checker._refute(ctx, name, parse_type(goal)) is None, (name, goal)
        assert checker._refute(ctx, "x", TAtom("bits")) is None
        assert checker._refute(ctx, "x", TAtom("even")) is not None
        assert checker.stats.refuted == 1


def _bench_pools() -> list:
    """The programs of both benchmark workloads, seed 1, read from
    `bench/workloads.py` without importing the benchmark's runner."""
    import importlib.util
    import sys

    root = os.path.join(os.path.dirname(__file__), os.pardir)
    spec = importlib.util.spec_from_file_location(
        "guardlang_bench_workloads", os.path.join(root, "bench", "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
        return [
            (case.name, parse_program(case.source))
            for w in ("search", "annotations")
            for case in workloads.pool(w, 1, os.path.join(root, "programs"))
        ]
    finally:
        del sys.modules[spec.name]


class TestSelectionDifferential:
    """Selection by the subsort order changes no verdict, derivation or
    diagnostic: with `Checker._refute` switched off, every alternative is
    tried, and the reports agree, apart from what running out of budget
    without selection hides.  Derivations are compared field by field,
    which decides their `format_derivation` text as well."""

    def test_reports_agree_with_selection_off(self, monkeypatch):
        import random

        from helpers import gen_ctxanno_program, gen_indexed_program

        progs = [(n, load_program(program_path(n))) for n in ACCEPTED_PROGRAMS + REJECTED_PROGRAMS]
        # Guarded branches that fail against an intersection or a Pi goal,
        # where guard-chk is not a guard's only rule: none is skipped there.
        header = "datasort odd <: bits\ndatasort even <: bits\nindexcon list :: int\n"
        progs += [
            (goal, parse_program(
                header + f"prim f : {goal}\nval main : even -> {goal} =\n"
                "  fn x => ((where x : odd do f) ,, (where x : odd do f))\n"
            ))
            for goal in ("even /\\ bits", "Pi a : int . list(a) -> list(a)")
        ]
        # Guarded merges in synthesis position, where merge-syn skips the
        # refuted branches: in function position, under a goal and in a
        # goal-less main, accepted and rejected.
        merge = (
            "((where x : even do snoc1) ,, (where x : bits do snoc1)"
            " ,, (where x : odd do snoc1)) x"
        )
        header += "prim snoc1 : (odd -> even) /\\ (even -> odd)\n"
        progs += [
            (main, parse_program(header + f"val main {main}\n"))
            for main in (
                f": odd -> even = fn x => {merge}",
                f": odd -> odd = fn x => {merge}",
                f"= ((fn x => {merge}) : (odd -> even) /\\ (even -> odd))",
                f"= ((fn x => {merge}) : odd -> odd)",
            )
        ]
        progs += _bench_pools()
        progs += [
            (f"kway({k}, {v})", kway_program(k, v))
            for k in range(2, 23) for v in KWAY_VARIANTS
        ]
        for seed, gen in ((20260808, gen_ctxanno_program), (20260809, gen_indexed_program)):
            rng = random.Random(seed)
            progs += [(f"{gen.__name__} {i}", gen(rng)) for i in range(100)]

        def reports():
            out = {}
            for name, prog in progs:
                for memoize in (True, False):
                    r = typecheck_program(prog, memoize=memoize)
                    out[name, memoize] = (
                        r.verdict, r.exhausted, r.derivation,
                        [(d.message, d.span) for d in r.diagnostics],
                    )
            return out

        on = reports()
        monkeypatch.setattr(Checker, "_refute", lambda self, ctx, name, goal: None)
        off = reports()
        hidden = set()
        for key, got in on.items():
            if off[key][1] and not got[1]:
                hidden.add(key)
            else:
                assert got == off[key], key
        # Out of budget without selection only: the wide kway programs.
        assert hidden == {
            (f"kway({k}, {v})", memoize)
            for k in (20, 21, 22) for v in ("guarded", "plain", "ctxanno")
            for memoize in (True, False)
        }
