import pytest

from conftest import ACCEPTED_PROGRAMS, program_path
from helpers import load_program, snoc_chain_program
from guardlang import interp
from guardlang.interp import (
    BoundExceeded,
    MergeMismatchError,
    Stepped,
    Stuck,
    Value,
    erase,
    evaluate,
    is_value,
    step,
    step_all,
)
from guardlang.parser import parse_term, pretty
from guardlang.syntax import (
    Anno,
    App,
    Lam,
    Merge,
    Prim,
    Program,
    TUnit,
    Unit,
    Var,
    alpha_eq,
    subterms,
)
from guardlang.typecheck import typecheck_program

# Programs whose merges are annotation-only, so erasure is defined.
ERASABLE = [n for n in ACCEPTED_PROGRAMS if n != "idxfn_merge.gl"]

SNOC = frozenset({"snoc1", "b1", "idcast"})


class TestErase:
    def test_guard_dropped(self):
        e = parse_term("where x : odd do (snoc1 x : even)", prims=SNOC)
        assert erase(e) == App(Prim("snoc1"), Var("x"))

    def test_annotation_merge_collapses(self):
        e = parse_term(
            "(where x : odd do (snoc1 x : even)) ,, "
            "(where x : even do (snoc1 x : odd))",
            prims=SNOC,
        )
        assert erase(e) == App(Prim("snoc1"), Var("x"))

    def test_mismatched_merge_rejected(self):
        e = Merge(Anno(Unit(), TUnit()), Lam("x", Var("x")))
        with pytest.raises(MergeMismatchError):
            erase(e)

    def test_binders_vanish(self):
        e = parse_term("some b : int in (idcast x : list(b))", prims=SNOC)
        assert erase(e) == App(Prim("idcast"), Var("x"))
        e2 = parse_term("idxfn a : int => fn x => (idcast x : list(a))", prims=SNOC)
        assert erase(e2) == Lam("x", App(Prim("idcast"), Var("x")))

    def test_output_has_no_annotations(self):
        for name in ERASABLE:
            prog = load_program(program_path(name))
            for sub in subterms(erase(prog.main)):
                assert isinstance(sub, (Var, Unit, Lam, App, Prim)), name


class TestStep:
    def test_annotation_drop(self):
        res = step(parse_term("((() : unit))"))
        # (() : unit) is already a value: the annotation wraps a value.
        assert isinstance(res, Value)
        res = step(Anno(App(Lam("x", Var("x")), Unit()), TUnit()))
        assert isinstance(res, Stepped) and res.rule == "anno-drop"

    def test_beta(self):
        res = step(parse_term("(fn x => x) ()"))
        assert res == Stepped(Unit(), "beta")

    def test_merge_takes_first_branch(self):
        e = Merge(Unit(), Lam("x", Var("x")))
        res = step(e)
        assert res == Stepped(Unit(), "merge")

    def test_value(self):
        assert isinstance(step(Unit()), Value)
        assert isinstance(step(parse_term("fn x => x")), Value)

    def test_stuck_on_applied_unit(self):
        res = step(App(Unit(), Unit()))
        assert isinstance(res, Stuck)

    def test_beta_through_annotation(self):
        e = parse_term("((fn x => x) : unit -> unit) ()")
        res = step(e)
        assert res == Stepped(Unit(), "beta")

    @pytest.mark.parametrize(
        "src, rule, reduct",
        [
            ("where x : odd do ((fn y => y) x)", "guard-drop", "(fn y => y) x"),
            ("some b : int in (idcast x : list(b))", "some-drop", "(idcast x : list(b))"),
            ("idxfn a : int => fn x => x", "idxfn-drop", "fn x => x"),
            ("((fn y => y) :: [|- unit -> unit])", "ctxanno-drop", "fn y => y"),
        ],
    )
    def test_annotation_binder_drops(self, src, rule, reduct):
        # `some`, `idxfn` and contextual annotations are dropped even around
        # a value; a guard only around a term that is not one.
        res = step(parse_term(src, prims=SNOC))
        assert res == Stepped(parse_term(reduct, prims=SNOC), rule)

    def test_guarded_value_is_a_value(self):
        assert isinstance(step(parse_term("where x : odd do (fn y => y)")), Value)

    def test_step_in_function_position(self):
        e = parse_term("((fn x => x) (fn y => y)) ()")
        assert step(e) == Stepped(App(Lam("y", Var("y")), Unit()), "beta")

    def test_stuck_function_position_propagates(self):
        inner = App(Unit(), Unit())
        res = step(App(inner, Unit()))
        assert res == Stuck("cannot apply ()", inner)


class TestEvaluate:
    def test_simple_application(self):
        res = evaluate(parse_term("(fn x => (x : unit)) ()"))
        assert res.outcome == "value"
        assert erase(res.term) == Unit()

    def test_parity_application_hand_trace(self):
        # Erased program: (fn x => snoc1 x) b1 -> snoc1 b1 -> b11.
        prog = load_program(program_path("parity_apply.gl"))
        erased = erase(prog.main)
        res = evaluate(erased)
        assert res.outcome == "value"
        assert res.term == Prim("b11")
        assert res.steps == 2

    def test_lambda_is_a_value(self):
        res = evaluate(parse_term("fn x => x"))
        assert res.outcome == "value" and res.steps == 0

    def test_out_of_fuel(self):
        prog = load_program(program_path("loopy.gl"))
        res = evaluate(erase(prog.main), fuel=1)
        assert res.outcome == "fuel"

    def test_stuck_after_a_step(self):
        res = evaluate(parse_term("(fn x => x ()) ()"))
        assert res.outcome == "stuck"
        assert res.term == App(Unit(), Unit())
        assert res.steps == 1
        assert res.reason == "cannot apply ()"

    @pytest.mark.parametrize("prim", ["id", "idcast"])
    def test_identity_prims_step_by_delta_to_their_argument(self, prim):
        arg = Lam("y", Var("y"))
        assert step(App(Prim(prim), arg)) == Stepped(arg, "delta")
        res = evaluate(App(Prim(prim), App(Prim(prim), Unit())))
        assert (res.outcome, res.term, res.steps) == ("value", Unit(), 2)

    def test_inert_prim_spine(self):
        # snoc1 applied to a non-bitstring value has no reduction rule and
        # is treated as an inert constant application.
        e = App(Prim("snoc1"), Lam("x", Var("x")))
        assert is_value(e)
        assert evaluate(e).outcome == "value"


class TestEvaluationGrowth:
    def _walks(self, monkeypatch, n: int) -> int:
        calls = 0
        walk = interp._reduce

        def counted(e):
            nonlocal calls
            calls += 1
            return walk(e)

        monkeypatch.setattr(interp, "_reduce", counted)
        res = evaluate(erase(snoc_chain_program(n).main))
        monkeypatch.undo()
        assert res.outcome == "value" and res.steps == n
        return calls

    def test_snoc_chain_walks_grow_quadratically(self, monkeypatch):
        # Each step is one walk from the root, so doubling the chain at most
        # quadruples the walk's calls (3.92x from 50 to 100).  A step that
        # re-decided value-hood at every application level gave 7.46x.
        small = self._walks(monkeypatch, 50)
        large = self._walks(monkeypatch, 100)
        assert large <= 4.5 * small


class TestReductsOfTheStepTaken:
    """An annotation asks only whether its body is a value: the redex below
    is contracted once, by the step that takes it."""

    def _substs(self, monkeypatch, run) -> int:
        calls = []
        subst = interp.subst
        monkeypatch.setattr(interp, "subst", lambda *a: calls.append(a) or subst(*a))
        run()
        monkeypatch.undo()
        return len(calls)

    def test_nested_annotations_contract_the_redex_once(self, monkeypatch):
        e = parse_term("(((fn x => x) () : unit) : unit)")
        res = []
        assert self._substs(monkeypatch, lambda: res.append(evaluate(e))) == 1
        assert (res[0].outcome, res[0].steps, res[0].term) == ("value", 3, Unit())

    def test_asking_for_a_value_contracts_nothing(self, monkeypatch):
        e = parse_term("((fn x => x) () : unit)")
        assert self._substs(monkeypatch, lambda: is_value(e)) == 0
        assert self._substs(monkeypatch, lambda: step(e)) == 0
        assert step(e) == Stepped(e.body, "anno-drop")

    def test_only_the_returned_stuck_reason_is_rendered(self, monkeypatch):
        # Each annotation asks whether its stuck body is a value; the reason
        # is rendered once, for the result that `evaluate` returns.
        calls = []
        monkeypatch.setattr(interp, "pretty", lambda e: calls.append(e) or pretty(e))
        res = evaluate(parse_term("(((() ()) : unit) : unit)"))
        assert (res.outcome, res.steps, res.reason) == ("stuck", 2, "cannot apply ()")
        assert len(calls) == 1


class TestStepAll:
    def test_guarded_merge_single_value(self):
        prog = load_program(program_path("parity_apply.gl"))
        values = step_all(prog.main)
        assert len(values) == 1
        assert values[0] == Prim("b11")

    def test_nested_annotation_merges_singleton(self):
        inner = parse_term("(() : unit) ,, ()")
        e = Merge(inner, parse_term("()"))
        values = step_all(e)
        assert len(values) == 1
        assert values[0] == Unit()

    def test_mismatched_merge_two_values(self):
        e = Merge(Anno(Unit(), TUnit()), Lam("x", Var("x")))
        with pytest.raises(MergeMismatchError):
            erase(e)  # the precondition is violated and flagged
        values = step_all(e)
        assert len(values) == 2

    def test_bound(self):
        prog = load_program(program_path("parity_apply.gl"))
        with pytest.raises(BoundExceeded):
            step_all(prog.main, max_states=2)


class TestCorpusProperties:
    def test_erasure_annotated_agreement(self):
        for name in ERASABLE:
            prog = load_program(program_path(name))
            erased = evaluate(erase(prog.main))
            annotated = evaluate(prog.main)
            assert erased.outcome == "value", name
            assert annotated.outcome == "value", name
            assert alpha_eq(erase(annotated.term), erased.term), name

    def test_progress(self):
        for name in ERASABLE:
            prog = load_program(program_path(name))
            for term in (prog.main, erase(prog.main)):
                assert evaluate(term).outcome == "value", name

    def test_merge_confluence(self):
        for name in ERASABLE:
            prog = load_program(program_path(name))
            values = step_all(prog.main)
            assert len(values) == 1, (name, [pretty(v) for v in values])

    def test_annotation_drop_steps_preserve_checking(self):
        for name in ERASABLE:
            prog = load_program(program_path(name))
            if prog.goal is None:
                continue
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
                    break  # a runtime-created constant is not re-checkable
                report = typecheck_program(
                    Program(prog.sig, cur, prog.goal)
                )
                assert report.accepted, (name, res.rule, pretty(cur))
