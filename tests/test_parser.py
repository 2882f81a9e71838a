import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from guardlang.parser import (
    ParseError,
    parse_index,
    parse_program,
    parse_term,
    parse_type,
    pretty,
    pretty_program,
)
from guardlang.syntax import (
    Anno,
    App,
    CtxAnno,
    Guard,
    IMul,
    INT,
    IVar,
    Lam,
    Merge,
    Prim,
    TArrow,
    TAtom,
    TCon,
    TPi,
    TSect,
    TUnit,
    Unit,
    Var,
    VarDecl,
    alpha_eq,
    subterms,
)

PARITY_TEXT = (
    "datasort odd <: bits  datasort even <: bits  "
    "prim snoc1 : (odd -> even) /\\ (even -> odd)  "
    "val main = fn x => ((where x : odd do (snoc1 x : even)) ,, "
    "(where x : even do (snoc1 x : odd)))"
)


class TestParseProgram:
    def test_unit_program(self):
        prog = parse_program("val main : unit = ()")
        assert prog.main == Unit()
        assert prog.goal == TUnit()

    def test_guarded_merge_program(self):
        prog = parse_program(PARITY_TEXT)
        want = Lam(
            "x",
            Merge(
                Guard(
                    VarDecl("x", TAtom("odd")),
                    Anno(App(Prim("snoc1"), Var("x")), TAtom("even")),
                ),
                Guard(
                    VarDecl("x", TAtom("even")),
                    Anno(App(Prim("snoc1"), Var("x")), TAtom("odd")),
                ),
            ),
        )
        assert alpha_eq(prog.main, want)
        assert prog.goal is None
        assert set(prog.sig.atoms) == {"odd", "even", "bits"}
        assert prog.sig.atom_le("odd", "bits")

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            parse_program("val main = fn x =>")

    def test_error_has_span(self):
        try:
            parse_program("val main : unit = (")
        except ParseError as ex:
            assert ex.span is not None
        else:
            pytest.fail("expected a parse error")


class TestParseType:
    def test_intersection_of_arrows(self):
        got = parse_type("(odd -> even) /\\ (even -> odd)")
        assert got == TSect(
            TArrow(TAtom("odd"), TAtom("even")),
            TArrow(TAtom("even"), TAtom("odd")),
        )

    def test_pi_over_arrow(self):
        got = parse_type("Pi a : int . list(a*2) -> list(a)")
        assert got == TPi(
            "a",
            INT,
            TArrow(TCon("list", IMul(2, IVar("a"))), TCon("list", IVar("a"))),
        )

    def test_sect_binds_tighter_than_arrow(self):
        got = parse_type("odd /\\ even -> bits")
        assert got == TArrow(TSect(TAtom("odd"), TAtom("even")), TAtom("bits"))

    def test_truncated(self):
        with pytest.raises(ParseError):
            parse_type("unit ->")

    def test_nonlinear_rejected(self):
        with pytest.raises(ParseError):
            parse_type("list(a*b)")


class TestParseTerm:
    def test_ctx_anno(self):
        got = parse_term(
            "((snoc1 x) :: [x : odd |- even ; x : even |- odd])",
            prims=frozenset({"snoc1"}),
        )
        assert isinstance(got, CtxAnno)
        assert len(got.typings) == 2
        assert got.typings[0].entries[0] == VarDecl("x", TAtom("odd"))
        assert got.typings[1].goal == TAtom("odd")

    def test_empty_context_typing(self):
        got = parse_term("(() :: [|- unit])")
        assert isinstance(got, CtxAnno)
        assert got.typings[0].entries == ()

    def test_application_left_assoc(self):
        got = parse_term("f x y")
        assert got == App(App(Var("f"), Var("x")), Var("y"))

    def test_binders_extend_right(self):
        got = parse_term("fn x => x ,, ()")
        assert got == Lam("x", Merge(Var("x"), Unit()))

    def test_comments(self):
        got = parse_term("-- nothing to see\n() -- trailing")
        assert got == Unit()


class TestPretty:
    def test_unit_type(self):
        assert pretty(TUnit()) == "unit"

    def test_merge(self):
        assert pretty(Merge(Unit(), Unit())) == "() ,, ()"

    def test_guard(self):
        got = pretty(Guard(VarDecl("x", TAtom("odd")), Var("e")))
        assert got == "where x : odd do e"

    @given(e=strategies.terms())
    @settings(max_examples=300)
    def test_term_round_trip(self, e):
        text = pretty(e)
        back = parse_term(text, prims=frozenset({"snoc1", "idcast"}))
        assert alpha_eq(back, e), text

    @given(ty=strategies.types())
    @settings(max_examples=300)
    def test_type_round_trip(self, ty):
        assert alpha_eq(parse_type(pretty(ty)), ty)

    @given(i=strategies.index_exprs())
    @settings(max_examples=200)
    def test_index_round_trip(self, i):
        assert alpha_eq(parse_index(pretty(i)), i)

    def test_parse_deterministic(self):
        a = parse_program(PARITY_TEXT)
        b = parse_program(PARITY_TEXT)
        assert a.main == b.main and a.goal == b.goal

    def test_program_round_trip(self):
        prog = parse_program(PARITY_TEXT)
        again = parse_program(pretty_program(prog))
        assert alpha_eq(again.main, prog.main)
        assert again.sig.prims == prog.sig.prims
        assert again.sig.atom_le("even", "bits")


class TestRobustness:
    @given(text=st.text(max_size=60))
    @settings(max_examples=100)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_program(text)
        except ParseError:
            pass

    @given(
        text=st.text(
            alphabet=" ()[]:;,|-=>fnwheredosomeinidxfnPiunitvalmainprim*+123ab\n",
            max_size=100,
        )
    )
    @settings(max_examples=150)
    def test_grammar_soup_never_crashes(self, text):
        try:
            parse_program(text)
        except ParseError:
            pass

    def test_superscript_digit_is_an_unexpected_character(self):
        # `²` is a digit to str.isdigit but not a decimal that int() reads.
        text = "indexcon list :: int\nprim p : list(²)\nval main = p\n"
        with pytest.raises(ParseError) as info:
            parse_program(text, "sup.gl")
        assert info.value.message == "unexpected character '²'"
        span = info.value.span
        assert (span.start_line, span.start_col, span.end_col) == (2, 15, 16)

    def test_decimal_digits_of_other_scripts_are_literals(self):
        ty = parse_type("list(٣)")  # ARABIC-INDIC DIGIT THREE
        assert isinstance(ty, TCon) and ty.index.value == 3

    def test_keyword_int_is_not_an_index(self):
        text = "indexcon list :: int\nprim p : list(int)\nval main = p\n"
        with pytest.raises(ParseError) as info:
            parse_program(text, "kw.gl")
        assert info.value.message == "expected an index expression, found 'int'"
        assert str(info.value.span) == "kw.gl:2:15"

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "val main : Pi a : 7 . unit = idxfn b : 42 => ()",
                "expected an index sort, found '7'",
            ),
            ("indexcon list :: 5\nval main = ()", "expected an index sort, found '5'"),
            ("val main = some a : 3 in ()", "expected an index sort, found '3'"),
            ("val main = where x : 7 do ()", "expected a type, found '7'"),
        ],
    )
    def test_numeral_is_not_a_sort(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_program(text)
        assert info.value.message == message

    def test_superscript_digit_continues_an_identifier(self):
        term = parse_term("fn x² => x²")
        assert isinstance(term, Lam) and term.var == "x²"
        assert term.body == Var("x²")


DEPTH = 10_000
SNOC_HEADER = (
    "datasort odd <: bits\ndatasort even <: bits\n"
    "prim snoc1 : (odd -> even) /\\ (even -> odd)\nprim b1 : odd\n"
)
# Each deep program and its printed form.
DEEP = {
    "snoc": (
        SNOC_HEADER + "val main : odd =\n  " + "snoc1 (" * DEPTH + "b1" + ")" * DEPTH,
        f"datasort bits\n{SNOC_HEADER}val main : odd = "
        + "snoc1 (" * (DEPTH - 1) + "snoc1 b1" + ")" * (DEPTH - 1),
    ),
    "fn": ("val main = " + "fn x => " * DEPTH + "x",) * 2,
    "parens": (
        "datasort bits\nprim b : bits\nval main = " + "(" * DEPTH + "b" + ")" * DEPTH,
        "datasort bits\nprim b : bits\nval main = b",
    ),
    "arrows": ("val main : " + "unit -> " * DEPTH + "unit = ()",) * 2,
}


def _frames() -> int:
    n, frame = 0, sys._getframe()
    while frame is not None:
        n, frame = n + 1, frame.f_back
    return n


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deep_input_parses_prints_and_reparses(shape):
    # Neither the parser nor the printer takes a Python frame per level.
    # Compared by text: `==` on nodes still recurses.
    source, printed = DEEP[shape]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 100)
    try:
        prog = parse_program(source)
        text = pretty_program(prog)
        again = pretty_program(parse_program(text))
    finally:
        sys.setrecursionlimit(limit)
    assert text == printed + "\n"
    assert again == text
    apps = [e for e in subterms(prog.main) if type(e) is App]
    assert len(apps) == (DEPTH if shape == "snoc" else 0)
    assert all(type(e.fn) is Prim for e in apps)
