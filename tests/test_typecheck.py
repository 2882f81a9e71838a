from conftest import ACCEPTED_PROGRAMS, REJECTED_PROGRAMS, program_path
from helpers import (
    KWAY_VARIANTS,
    brute_check,
    duplicate_with_merge,
    idx_chain_program,
    kway_program,
    lattice_closure,
    load_program,
    snoc_chain_program,
    walk_nodes,
)
from guardlang.parser import parse_program, parse_term, parse_type
from guardlang.subtyping import Fail
from guardlang.syntax import (
    Anno,
    IVar,
    MetaStore,
    TAtom,
    Unit,
    Var,
    VarDecl,
    Zonker,
    alpha_eq,
)
from guardlang.typecheck import (
    Checker,
    TypingDerivation,
    typecheck_program,
    verify_typing,
)
from guardlang.indices import normalize


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
        assert normalize(some.witness) == normalize(parse_index("2*a"))

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

    def test_annotation_offers_projections(self, psig):
        checker = Checker(psig)
        term = parse_term(
            f"(fn x => snoc1 x : {PARITY_GOAL})", prims=frozenset(psig.prims)
        )
        res = checker.synth(checker.fresh_ctx(), term)
        assert ok(res)
        types = [t for t, _ in res]
        assert types[0] == parse_type(PARITY_GOAL)
        assert parse_type("odd -> even") in types
        assert parse_type("even -> odd") in types

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


class TestMergeAsAnnotation:
    def test_duplicating_subterms_preserves_acceptance(self):
        for name in ("parity.gl", "some_guard.gl", "idxfn_merge.gl"):
            prog = load_program(program_path(name))
            report = typecheck_program(prog)
            assert report.accepted
            for info in walk_nodes(report.derivation):
                doubled = duplicate_with_merge(prog, info)
                assert typecheck_program(doubled).accepted, (name, info.path)


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
            "derivation left index metavariables unresolved: ?1, ?2"
        ]
        assert report.stats.synth_memo_hits == 0


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
            "derivation left index metavariables unresolved: ?1"
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
            assert report.stats.backtracks > 0, variant
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
            "kway-guarded(16)": (1046, 360, 424),
            "kway-plain(16)": (503, 120, 152),
            "kway-ctxanno(16)": (535, 240, 304),
            "kway-swapped(16)": (409, 319, 184),
        }


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

    def _gen_term(self, rng, depth, bound):
        from guardlang.syntax import Anno, App, Guard, Lam, Merge, Prim

        from helpers import gen_type

        if depth <= 0 or rng.random() < 0.35:
            opts = [Unit(), Prim("snoc1"), Prim("b1")]
            opts += [Var(x) for x in bound]
            return rng.choice(opts)
        roll = rng.random()
        if roll < 0.25:
            x = rng.choice(["x", "y"])
            return Lam(x, self._gen_term(rng, depth - 1, bound | {x}))
        if roll < 0.45:
            return App(
                self._gen_term(rng, depth - 1, bound),
                self._gen_term(rng, depth - 1, bound),
            )
        if roll < 0.6:
            return Anno(
                self._gen_term(rng, depth - 1, bound),
                gen_type(rng, 2, (), allow_pi=False),
            )
        if roll < 0.75 and bound:
            x = rng.choice(sorted(bound))
            return Guard(
                VarDecl(x, gen_type(rng, 1, (), allow_pi=False)),
                self._gen_term(rng, depth - 1, bound),
            )
        return Merge(
            self._gen_term(rng, depth - 1, bound),
            self._gen_term(rng, depth - 1, bound),
        )

    def test_agreement_on_random_terms(self, psig):
        import random

        from helpers import brute_check, gen_type
        from guardlang.syntax import TERM, free_vars

        psig.declare_prim("b1", TAtom("odd"))
        rng = random.Random(999)
        accepted = 0
        for _ in range(800):
            e = self._gen_term(rng, 3, frozenset())
            if free_vars(e, TERM):
                continue
            ty = gen_type(rng, 2, (), allow_pi=False)
            checker = Checker(psig, max_depth=2000)
            got = ok(checker.check(checker.fresh_ctx(), e, ty))
            want = brute_check(psig, {}, e, ty, depth=9)
            assert got == want, (e, ty)
            accepted += got
        assert accepted > 20


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
