import json
import os
import subprocess
import sys

import pytest

from conftest import ACCEPTED_PROGRAMS, PROGRAMS_DIR, program_path
from helpers import ENCODED_COSTS_MORE, GOAL_ONLY, kway_source, no_ctx_anno
from guardlang.cli import main
from guardlang.parser import parse_program
from guardlang.typecheck import typecheck_program


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_accept_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check", program_path("parity.gl"))
        assert code == 0
        assert out.startswith("accepted")

    def test_reject_exit_one_with_guard_diagnostic(self, capsys):
        code, _, err = run_cli(
            capsys, "check", program_path("parity_badguard.gl")
        )
        assert code == 1
        assert "guard" in err
        assert "parity_badguard.gl:" in err  # span is reported

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "does_not_exist.gl")
        assert code == 2
        assert "cannot read" in err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.gl"
        bad.write_text("val main = fn x =>")
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 2

    def test_value_not_named_main_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "foo.gl").write_text("val foo = ()\n")
        code, out, err = run_cli(capsys, "check", "foo.gl")
        assert (code, out) == (2, "")
        assert err == "error: foo.gl:1:5: expected 'main', found 'foo'\n"

    def test_non_utf8_file_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.gl").write_bytes(b"val main = \xff()\n")
        code, _, err = run_cli(capsys, "check", "bad.gl")
        assert code == 2
        assert err == (
            "error: cannot read bad.gl: not valid UTF-8 "
            "(byte 0xff at offset 11)\n"
        )

    def test_superscript_digit_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sup.gl").write_text(
            "indexcon list :: int\nprim p : list(²)\nval main = p\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "check", "sup.gl")
        assert code == 2
        assert err == "error: sup.gl:2:15: unexpected character '²'\n"

    def test_keyword_int_as_an_index_exit_two(self, tmp_path, capsys, monkeypatch):
        # The keyword `int` is not a numeral: no ValueError traceback.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kw.gl").write_text(
            "indexcon list :: int\nprim p : list(int)\nval main = p\n"
        )
        code, out, err = run_cli(capsys, "check", "kw.gl")
        assert (code, out) == (2, "")
        assert err == (
            "error: kw.gl:2:15: expected an index expression, found 'int'\n"
        )

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--json", program_path("parity.gl")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "accept"
        assert doc["diagnostics"] == []
        stats = doc["statistics"]
        for key in (
            "rule_applications",
            "backtracks",
            "subtype_queries",
            "entailment_queries",
            "memo_hits",
            "memo_misses",
            "synth_memo_hits",
            "synth_memo_misses",
            "sub_memo_hits",
            "sub_memo_misses",
            "refuted",
            "budget_used",
            "wall_ms",
        ):
            assert key in stats
        # Deterministic apart from wall-clock time.
        code2, out2, _ = run_cli(
            capsys, "check", "--json", program_path("parity.gl")
        )
        doc2 = json.loads(out2)
        doc["statistics"].pop("wall_ms")
        doc2["statistics"].pop("wall_ms")
        assert doc == doc2

    def test_json_trace_puts_the_derivation_in_the_report(self, capsys):
        _, traced, _ = run_cli(capsys, "check", "--trace", program_path("parity.gl"))
        code, out, _ = run_cli(capsys, "check", "--json", "--trace", program_path("parity.gl"))
        assert code == 0
        derivation = json.loads(out)["derivation"]
        assert derivation.startswith("[sect-i]")
        assert traced == f"accepted : {json.loads(out)['type']}\n{derivation}\n"
        _, out, _ = run_cli(capsys, "check", "--json", program_path("parity.gl"))
        assert "derivation" not in json.loads(out)

    def test_json_reject_has_diagnostics(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--json", program_path("some_bad.gl")
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "reject"
        assert doc["diagnostics"]

    def test_trace_prints_rules(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--trace", program_path("parity.gl")
        )
        assert code == 0
        assert "[sect-i]" in out and "[arrow-i]" in out

    def test_trace_sub_prints_subtyping(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--trace-sub", program_path("parity.gl")
        )
        assert code == 0
        assert "<=" in out

    def test_trace_sub_prints_the_projected_conjunct(self, tmp_path, capsys):
        src = tmp_path / "wide30.gl"
        src.write_text(
            "".join(f"datasort a{i}\n" for i in range(30))
            + "prim f : " + " /\\ ".join(f"a{i}" for i in range(30))
            + "\nval main : a29 = f\n"
        )
        code, out, _ = run_cli(capsys, "check", "--trace-sub", str(src))
        lines = out.splitlines()
        assert code == 0 and lines[0] == "accepted : a29"
        assert lines[1].startswith("[sect-l 30] . |- a0 /\\ a1 /\\ ")
        assert lines[2] == "  [refl] . |- a29 <= a29"

    def test_max_depth_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--max-depth", "3", program_path("parity.gl")
        )
        assert code == 1
        assert "exceeded" in err


@pytest.mark.parametrize(
    "argv",
    [("check", "--max-depth", "-1"), ("eval", "--fuel", "-1"), ("eval", "--fuel", "x")],
    ids=["max-depth-negative", "fuel-negative", "fuel-not-an-int"],
)
def test_a_budget_that_is_not_a_count_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, program_path("parity_apply.gl"))
    assert code == 2 and out == ""
    assert f"argument {argv[1]}: " in err


def test_a_budget_of_zero_is_a_budget(capsys):
    code, _, err = run_cli(capsys, "eval", "--fuel", "0", program_path("parity_apply.gl"))
    assert code == 1 and "no value within 0 steps" in err


class TestEval:
    def test_prints_value_and_steps(self, capsys):
        code, out, _ = run_cli(capsys, "eval", program_path("parity_apply.gl"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "b11"
        assert lines[1].startswith("steps:")

    def test_annotated_mode_agrees(self, capsys):
        _, out_erase, _ = run_cli(capsys, "eval", program_path("parity_apply.gl"))
        _, out_anno, _ = run_cli(
            capsys, "eval", "--mode", "annotated", program_path("parity_apply.gl")
        )
        assert out_erase.splitlines()[0] == out_anno.splitlines()[0]

    def test_fuel_exhaustion(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--fuel", "1", program_path("loopy.gl")
        )
        assert code == 1
        assert "fuel" in err

    def test_reject_before_eval(self, capsys):
        code, _, err = run_cli(capsys, "eval", program_path("some_bad.gl"))
        assert code == 1
        assert "rejected" in err

    def test_unsafe_eval_skips_checking(self, tmp_path, capsys):
        src = tmp_path / "untyped.gl"
        src.write_text("val main = (fn x => x) ()")
        code, out, _ = run_cli(capsys, "eval", "--unsafe-eval", str(src))
        assert code == 0
        assert out.splitlines()[0] == "()"


class TestDesugar:
    def test_emits_reparseable_source(self, capsys):
        code, out, _ = run_cli(capsys, "desugar", program_path("parity_ctxanno.gl"))
        assert code == 0
        prog = parse_program(out)
        assert no_ctx_anno(prog.main)
        assert typecheck_program(prog).accepted
        assert ",," in out and "where" in out

    def test_annotation_free_output_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, "desugar", program_path("parity.gl"))
        assert code == 0
        original = parse_program(open(program_path("parity.gl")).read())
        again = parse_program(out)
        from guardlang.syntax import alpha_eq

        assert alpha_eq(again.main, original.main)

    def test_verify_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "desugar", "--verify", program_path("parity_ctxanno.gl")
        )
        assert code == 0
        assert "verified" in err

    @pytest.mark.parametrize("command", ["check", "eval", "desugar"])
    def test_no_ctx_anno_is_not_an_option(self, capsys, command):
        # The contextual rule is always on.
        code, _, err = run_cli(
            capsys, command, "--no-ctx-anno", program_path("parity_ctxanno.gl")
        )
        assert code == 2
        assert "unrecognized arguments: --no-ctx-anno" in err

    def test_verify_original_out_of_budget(self, capsys):
        # parity_ctxanno.gl is well typed and verifies from --max-depth 15.
        code, _, err = run_cli(
            capsys, "desugar", "--verify", "--max-depth", "14",
            program_path("parity_ctxanno.gl"),
        )
        assert code == 1
        assert err == (
            "error: encoding not verified: checking the original program "
            "exceeded its budget of 14 rule applications (--max-depth)\n"
        )

    def test_a_sorting_only_the_subject_determines_verifies(self, capsys, tmp_path):
        # The sorting a is determined by the subject, not by a variable
        # typing: the contextual rule and the encoding both accept.
        path = tmp_path / "subject.gl"
        path.write_text(
            "indexcon list :: int\nprim p : list(3)\n"
            "val main : list(3) = (p :: [a : int |- list(a)])\n"
        )
        code, _, err = run_cli(capsys, "check", str(path))
        assert (code, err) == (0, "")
        code, _, err = run_cli(capsys, "desugar", "--verify", str(path))
        assert code == 0
        assert err.startswith("-- verified: derivation sizes")

    def test_verify_finds_a_program_only_the_encoding_accepts(self, capsys, tmp_path):
        # The sorting a is determined by the goal only: the encoding's `some`
        # binder, checked against it, is; the contextual rule, which
        # synthesizes, is not.
        path = tmp_path / "goal.gl"
        path.write_text(GOAL_ONLY)
        code, _, err = run_cli(capsys, "desugar", "--verify", str(path))
        assert code == 1
        assert err.startswith("error: encoding gap: only the encoded program is accepted: ")
        assert "no index expression determined for `some a`" in err

    def test_verify_out_of_budget_is_no_gap(self, capsys, tmp_path):
        # The original fits 22 rule applications, its encoding does not:
        # typing 1's branch fails in checking mode, so the encoded merge
        # checks it again through subsumption, and the metavariable of `a`
        # in the context of x keeps the memo from answering.
        path = tmp_path / "idcast.gl"
        path.write_text(ENCODED_COSTS_MORE)
        code, _, err = run_cli(capsys, "desugar", "--verify", "--max-depth", "22", str(path))
        assert code == 1
        assert err == (
            "error: encoding not verified: checking the encoded program "
            "exceeded its budget of 22 rule applications (--max-depth)\n"
        )
        code, _, _ = run_cli(capsys, "check", "--max-depth", "22", str(path))
        assert code == 0

    def test_verify_both_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "desugar", "--verify", program_path("parity_badguard.gl")
        )
        assert code == 0
        assert err == "-- verified: the original and the encoded program are both rejected\n"


def test_console_entry_point():
    env = dict(os.environ)
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env["PYTHONPATH"] = os.path.join(root, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "guardlang.cli", "check", program_path("unit.gl")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "accepted" in proc.stdout


class TestCertify:
    # Every accept is replayed: exit 0 means the derivation replays, and no
    # "certified" line is printed.
    def test_every_accepted_program_certifies(self, capsys):
        for name in ACCEPTED_PROGRAMS:
            code, out, err = run_cli(capsys, "check", program_path(name))
            assert code == 0, name
            assert out.startswith("accepted"), name
            assert err == "", name

    def test_rejected_program_is_not_certified(self, capsys):
        code, _, err = run_cli(capsys, "check", program_path("parity_badguard.gl"))
        assert code == 1
        assert "certified" not in err

    def test_replay_failure_exits_three(self, capsys, monkeypatch):
        from guardlang import cli
        from guardlang.replay import VerifyError

        def broken(sig, d):
            raise VerifyError("[sub] synthesis premise")

        monkeypatch.setattr(cli, "verify_typing", broken)
        code, _, err = run_cli(capsys, "check", program_path("parity.gl"))
        assert code == 3
        assert "error: derivation does not replay: [sub] synthesis premise" in err

    def test_certify_is_not_an_option(self, capsys):
        code, _, err = run_cli(capsys, "check", "--certify", program_path("parity.gl"))
        assert code == 2
        assert "unrecognized arguments: --certify" in err

    def test_every_accepted_program_evaluates(self, capsys):
        # In annotated mode: idxfn_merge.gl's merge branches erase
        # differently, which erase mode reports with exit 1.  The goldens of
        # `desugar --verify` cover its replay of every corpus program.
        for name in ACCEPTED_PROGRAMS:
            code, _, err = run_cli(capsys, "eval", "--mode", "annotated", program_path(name))
            assert (code, err) == (0, ""), name

    @pytest.mark.parametrize("argv", [
        ("check",), ("check", "--json"), ("eval",), ("desugar", "--verify"),
    ], ids=["check", "check-json", "eval", "desugar-verify"])
    def test_every_command_replays_its_accepts(self, capsys, monkeypatch, argv):
        # A derivation that does not replay is no accept: exit 3, and check
        # and eval print nothing on stdout.  desugar has already printed
        # the encoding when it verifies.
        from guardlang import cli
        from guardlang.replay import VerifyError

        def broken(sig, d):
            raise VerifyError("[sub] synthesis premise")

        monkeypatch.setattr(cli, "verify_typing", broken)
        code, out, err = run_cli(capsys, *argv, program_path("parity_ctxanno.gl"))
        assert code == 3
        assert err == "error: derivation does not replay: [sub] synthesis premise\n"
        assert (out == "") == (argv[0] != "desugar")

    @pytest.mark.parametrize("argv", [("check",), ("eval",), ("desugar", "--verify")],
                             ids=["check", "eval", "desugar-verify"])
    def test_a_rejected_program_never_reaches_the_kernel(self, capsys, monkeypatch, argv):
        from guardlang import cli

        calls = []
        monkeypatch.setattr(cli, "verify_typing", lambda sig, d: calls.append(d))
        code, _, _ = run_cli(capsys, *argv, program_path("parity_badguard.gl"))
        assert (code, calls) == (0 if argv[0] == "desugar" else 1, [])
        run_cli(capsys, *argv, program_path("parity_ctxanno.gl"))
        assert len(calls) == (2 if argv[0] == "desugar" else 1)


# A bound index variable is instantiated with a metavariable whose solution
# may name any index variable in scope; a binder of the same name inside the
# instantiated body must not capture it.
CAPTURE_F = (
    "indexcon list :: int\n"
    "prim f : Pi a : int . Pi b : int . list(a) -> list(b) -> unit\n"
)
CAPTURE_SOME = (
    "indexcon list :: int\n"
    "val main : Pi b : int . list(b) -> {} =\n"
    "  fn x => some a : int in where x : list(a) do {}\n"
)


class TestCaptureSafeInstantiation:
    def _check(self, capsys, tmp_path, source, *flags):
        path = tmp_path / "capture.gl"
        path.write_text(source)
        return run_cli(capsys, "check", *flags, str(path))

    @pytest.mark.parametrize("source", [
        # pi-l: the witness b of `a` lands under f's own `Pi b`.
        CAPTURE_F + "val main : Pi b : int . list(b) -> list(b) -> unit = f",
        # pi-e: the same, instantiating f in an application.
        CAPTURE_F + "val main : Pi b : int . list(b) -> unit = fn x => f x x",
        # some: the witness b of `a` lands under the annotation's `Pi b`.
        CAPTURE_SOME.format(
            "(Pi c : int . list(c) -> list(b) -> unit)",
            "((fn y => fn z => ()) : Pi b : int . list(b) -> list(a) -> unit)",
        ),
    ], ids=["pi-l", "pi-e", "some"])
    def test_accepted_and_certified(self, capsys, tmp_path, source):
        code, out, err = self._check(capsys, tmp_path, source)
        assert code == 0, err
        assert out.startswith("accepted")
        assert err == ""

    def test_captured_witness_does_not_satisfy_the_annotation(self, capsys, tmp_path):
        # `Pi b : int . list(a) -> unit` with a := b is not `list(b) -> unit`:
        # its own b cannot be instantiated.
        source = CAPTURE_SOME.format(
            "list(b) -> unit", "((fn y => ()) : Pi b : int . list(a) -> unit)"
        )
        code, out, err = self._check(capsys, tmp_path, source)
        assert code == 1
        assert out == "rejected\n"
        assert "no instantiation determined for Pi-bound 'b1'" in err

    def test_subsumption_step_carries_the_renamed_telescope(self, capsys, tmp_path):
        source = (
            "indexcon list :: int\n"
            "prim f : Pi c : int . Pi d : int . list(c) -> list(d) -> list(c + d)\n"
            "val main : Pi b : int . Pi e : int . list(b) -> list(e) -> list(b + e) =\n"
            "  fn y => fn x => ((f y x) :: "
            "[a : int, y : list(a), b : int, x : list(b) |- list(a + b)])\n"
        )
        code, out, err = self._check(capsys, tmp_path, source, "--trace")
        assert code == 0, err
        assert err == ""
        assert (
            "|- some b1 : int in where x : list(b1) do (f y x : list(b + b1)) "
            "=> list(b + e)   with e"
        ) in out
        assert "list(b + b)" not in out

    def test_a_long_run_of_renamed_sortings_gets_a_verdict(self, capsys, tmp_path):
        # The witness of `a` may name c, so each of the 900 sortings named c
        # that follow it is renamed, in one frame each: the check ends in a
        # verdict (no index is determined for the last sorting), not in exit 4.
        source = (
            "val main : Pi c : int . unit = idxfn c : int => (() :: [a : int"
            + ", c : int" * 900 + " |- unit])\n"
        )
        code, out, err = self._check(capsys, tmp_path, source)
        assert code == 1, err
        assert out == "rejected\n"
        assert "no index expression determined for `some c1`" in err


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
CORPUS = sorted(n for n in os.listdir(PROGRAMS_DIR) if n.endswith(".gl"))


@pytest.mark.parametrize("flag", ["--trace", "--trace-sub"])
@pytest.mark.parametrize("name", CORPUS)
def test_trace_output_matches_golden(capsys, name, flag):
    """Standard output of `check --trace` and `check --trace-sub` on each
    corpus program, byte for byte.  A golden is written from the root of a
    checkout by `python -m guardlang check --trace programs/NAME.gl >
    tests/golden/NAME.trace.out`, and likewise for `--trace-sub`; rewrite
    one only for an intended change of the derivations."""
    _, out, _ = run_cli(capsys, "check", flag, program_path(name))
    golden = os.path.join(GOLDEN_DIR, f"{name[:-3]}.{flag[2:]}.out")
    with open(golden, "rb") as fh:
        assert out.encode() == fh.read()


@pytest.mark.parametrize("name", CORPUS)
def test_desugar_verify_matches_golden(capsys, name):
    """Standard error of `desugar --verify` on each corpus program, byte for
    byte: the derivation sizes of the contextual and the encoded program, or
    that the original is rejected.  A golden is written from the root of a
    checkout by `python -m guardlang desugar --verify programs/NAME.gl
    2> tests/golden/NAME.desugar-verify.err`."""
    code, _, err = run_cli(capsys, "desugar", "--verify", program_path(name))
    assert code == 0
    golden = os.path.join(GOLDEN_DIR, f"{name[:-3]}.desugar-verify.err")
    with open(golden, "rb") as fh:
        assert err.encode() == fh.read()


# Rejected programs whose `check --json` diagnostics are pinned.  In
# `idcast_offset` two messages show types zonked when the failure happened:
# `synthesized list(a) is not a subtype of list(a + 1)` and `index equality
# a = a + 1 is not entailed` (zonked later they would show `?1`).
IDCAST_OFFSET = (
    "indexcon list :: int\n"
    "prim idcast : (unit -> unit) /\\ (Pi c : int . list(c) -> list(c))\n"
    "val main : Pi a : int . list(a) -> list(a+1) =\n"
    "  fn x => idcast x\n"
)


def _corpus_source(name: str) -> str:
    with open(program_path(name)) as fh:
        return fh.read()


DIAGNOSTIC_SOURCES = {
    "parity_badguard": lambda: _corpus_source("parity_badguard.gl"),
    "some_bad": lambda: _corpus_source("some_bad.gl"),
    "kway5_swapped": lambda: kway_source(5, "swapped"),
    "idcast_offset": lambda: IDCAST_OFFSET,
}


@pytest.mark.parametrize("name", sorted(DIAGNOSTIC_SOURCES))
def test_diagnostics_match_golden(capsys, tmp_path, monkeypatch, name):
    """The `diagnostics` array of `check --json`, message and span, exactly.
    The program is written to NAME.gl in an empty directory and checked from
    there, so the file named in the spans is NAME.gl; the golden
    `tests/golden/NAME.diagnostics.json` is that array (`json.dump` with
    `indent=1`).  Rewrite one only for an intended change of the messages."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.gl").write_text(DIAGNOSTIC_SOURCES[name]())
    code, out, _ = run_cli(capsys, "check", "--json", f"{name}.gl")
    assert code == 1
    with open(os.path.join(GOLDEN_DIR, f"{name}.diagnostics.json")) as fh:
        assert json.loads(out)["diagnostics"] == json.load(fh)


class TestTraceAllCorpus:
    def test_trace_runs_on_every_accepted_program(self, capsys):
        # Derivation printing must cover every node kind, including
        # contextual-subsumption nodes.
        from conftest import ACCEPTED_PROGRAMS

        for name in ACCEPTED_PROGRAMS:
            code, out, _ = run_cli(
                capsys, "check", "--trace", program_path(name)
            )
            assert code == 0, name
            assert "[" in out, name


class TestEvalMergeMismatch:
    def test_erase_mode_reports_mismatched_merge(self, tmp_path, capsys):
        src = tmp_path / "mismatch.gl"
        src.write_text("val main = () ,, fn y => y")
        code, _, err = run_cli(capsys, "eval", "--unsafe-eval", str(src))
        # () ,, fn y => y erases two different terms
        assert code == 1
        assert "erase differently" in err

    def test_annotated_mode_reports_mismatch_under_lambda(self, tmp_path, capsys):
        src = tmp_path / "mismatch_lam.gl"
        src.write_text("val main = fn x => (() ,, fn y => y)")
        code, out, err = run_cli(
            capsys, "eval", "--unsafe-eval", "--mode", "annotated", str(src)
        )
        assert code == 1
        assert "erase differently" in err


def _snoc_source(n: int) -> str:
    body = "b1"
    for _ in range(n):
        body = f"snoc1 ({body})"
    return (
        "datasort odd <: bits\ndatasort even <: bits\n"
        "prim snoc1 : (odd -> even) /\\ (even -> odd)\nprim b1 : odd\n"
        f"val main : odd =\n  {body}\n"
    )


DEEP_SOURCES = {"snoc": _snoc_source(2000)}
DEEP_PARENS = (
    "datasort bits\nprim b : bits\nval main = " + "(" * 3000 + "b" + ")" * 3000 + "\n"
)


@pytest.mark.parametrize("shape", sorted(DEEP_SOURCES))
@pytest.mark.parametrize(
    "command",
    [("check", "--max-depth", "1000000"), ("eval", "--unsafe-eval"), ("desugar",)],
    ids=["check-max-depth", "eval", "desugar"],
)
def test_deep_input_exits_four(tmp_path, capsys, monkeypatch, shape, command):
    # No traceback and no type-error verdict: exit 4 means no verdict.  The
    # parser reads any depth; the checker, `erase` and `encode` still recurse.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.gl").write_text(DEEP_SOURCES[shape])
    code, out, err = run_cli(capsys, *command, "deep.gl")
    assert code == 4
    assert out == ""
    assert err == "error: deep.gl: input nests too deeply for this checker\n"


def test_deep_snoc_runs_out_of_the_default_budget(tmp_path, capsys):
    src = tmp_path / "deep.gl"
    src.write_text(DEEP_SOURCES["snoc"])
    code, out, err = run_cli(capsys, "check", str(src))
    assert (code, out) == (1, "rejected\n")
    assert "search exceeded 512 rule applications" in err


@pytest.mark.parametrize(
    "command",
    [("check",), ("check", "--max-depth", "1000000"), ("eval",), ("desugar",)],
    ids=["check", "check-max-depth", "eval", "desugar"],
)
def test_deep_parens_are_accepted(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.gl").write_text(DEEP_PARENS)
    code, out, err = run_cli(capsys, *command, "deep.gl")
    assert (code, err) == (0, "")
    assert "b" in out
