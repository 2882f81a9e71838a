import hashlib
import os
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from conftest import PROGRAMS_DIR
from helpers import KWAY_VARIANTS, idx_chain_source, kway_source
from guardlang.parser import (
    KEYWORDS,
    ParseError,
    parse_index,
    parse_program,
    parse_term,
    parse_type,
    pretty,
    pretty_program,
    tokenize,
)
from guardlang.syntax import (
    Anno,
    App,
    CtxAnno,
    CtxGoal,
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

    def test_the_value_must_be_main(self):
        with pytest.raises(ParseError, match="expected 'main', found 'foo'"):
            parse_program("val foo = ()")

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

    @pytest.mark.parametrize("text, coeff", [("list(-a)", -1), ("list(-(2*a))", -2)])
    def test_negated_factor(self, text, coeff):
        got = parse_type(text)
        assert got == TCon("list", IMul(coeff, IVar("a")))
        assert parse_type(pretty(got)) == got

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
        assert got.typings[0].decl == VarDecl("x", TAtom("odd"))
        assert got.typings[1].body.ty == TAtom("odd")

    def test_empty_context_typing(self):
        got = parse_term("(() :: [|- unit])")
        assert isinstance(got, CtxAnno)
        assert got.typings[0] == CtxGoal(TUnit())

    def test_each_entry_spans_to_the_end_of_its_typing(self):
        t = parse_term("(() :: [a : int, x : odd |- odd ; |- unit])").typings[0]
        starts = []
        while True:
            assert (t.span.end_line, t.span.end_col) == (1, 32)
            starts.append(t.span.start_col)
            if type(t) is CtxGoal:
                break
            t = t.body
        assert starts == [9, 18, 26]

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
    # Neither the parser, the printer nor `==` on nodes takes a Python
    # frame per level.
    source, printed = DEEP[shape]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 100)
    try:
        prog = parse_program(source)
        text = pretty_program(prog)
        again = parse_program(text)
        same = again.main == prog.main and again.goal == prog.goal
    finally:
        sys.setrecursionlimit(limit)
    assert text == printed + "\n"
    assert same and again.main is not prog.main
    apps = [e for e in subterms(prog.main) if type(e) is App]
    assert len(apps) == (DEPTH if shape == "snoc" else 0)
    assert all(type(e.fn) is Prim for e in apps)


# The token stream, pinned: kind, text, file, line and columns of every
# token, as (count, sha256 prefix) per source.
TOKEN_STREAMS = {
    "ctxanno_indexed.gl": (75, '02b3efb92f745ad0'),
    "idxfn_merge.gl": (74, 'dc4b8c5ca4c3825f'),
    "loopy.gl": (42, '7fb68d4100ab6e62'),
    "parity.gl": (70, '64e11c84a6cdba76'),
    "parity_apply.gl": (81, '5d1f6a9ae6f80570'),
    "parity_badguard.gl": (70, '9869cb992fd31c22'),
    "parity_ctxanno.gl": (61, '140943b94de2471d'),
    "parity_plain.gl": (43, '4c4f98feda6a2a8e'),
    "parity_twice.gl": (37, 'c00e370992709916'),
    "parity_unguarded.gl": (56, '9ab06fcedb044d75'),
    "some_bad.gl": (60, '69026f2f0ed2b65f'),
    "some_expr.gl": (62, '757d542725be2de0'),
    "some_guard.gl": (64, 'ccaddc8d7661a27f'),
    "unit.gl": (8, 'c551de353d16f2c1'),
    "kway(8, guarded)": (232, '0c02e3c727e8475f'),
    "kway(8, plain)": (123, '1bd0c776f3d57d9b'),
    "kway(8, ctxanno)": (177, '767cd99b48e25985'),
    "kway(8, swapped)": (232, '9eefa474107df4dd'),
    "idx-chain(8)": (80, 'd8b316b3905c4e30'),
}


def _token_sources():
    for name in sorted(os.listdir(PROGRAMS_DIR)):
        with open(os.path.join(PROGRAMS_DIR, name)) as f:
            yield name, f.read(), name
    for v in KWAY_VARIANTS:
        yield f"kway(8, {v})", kway_source(8, v), "kway.gl"
    yield "idx-chain(8)", idx_chain_source(8), "idx.gl"


def _digest(tokens):
    h = hashlib.sha256()
    for t in tokens:
        h.update(f"{t.kind}\x1f{t.text}\x1f{t.file}\x1f{t.line}\x1f{t.col}\x1f{t.end_col}\n".encode())
    return len(tokens), h.hexdigest()[:16]


def test_token_streams_are_pinned():
    got = {name: _digest(tokenize(text, path)) for name, text, path in _token_sources()}
    assert got == TOKEN_STREAMS


# The reference: one regex match per token and per run of trivia.
_REFERENCE = re.compile(
    r"""
      (?P<nl>\n)
    | (?P<skip>[ \t\r]+|--[^\n]*)
    | (?P<word>[^\W\d][\w']*)
    | (?P<num>\d+)
    | (?P<punct>,,|::|\|-|->|=>|/\\|<:|[()\[\],:;.*+\-=])
    """,
    re.VERBOSE,
)


def _reference_tokens(text):
    out, line, line_start, pos = [], 1, 0, 0
    while pos < len(text):
        m = _REFERENCE.match(text, pos)
        kind = m and m.lastgroup
        col = pos - line_start + 1
        if kind is None or kind == "word" and not (text[pos].isalpha() or text[pos] == "_"):
            return out, ("error", text[pos], line, col)
        if kind == "nl":
            line, line_start = line + 1, m.end()
        elif kind != "skip":
            word = m.group()
            kind = {"word": word if word in KEYWORDS else "ident", "punct": word}.get(kind, kind)
            out.append((kind, word, line, col, col + len(word)))
        pos = m.end()
    col = pos - line_start + 1
    return out, ("eof", line, col)


def _tokens(text):
    try:
        toks = tokenize(text)
    except ParseError as ex:
        s = ex.span
        assert (s.end_line, s.end_col) == (s.start_line, s.start_col + 1)
        return None, ex.message, (s.start_line, s.start_col)
    *toks, eof = [(t.kind, t.text, t.line, t.col, t.end_col) for t in toks]
    return toks, (eof[0], eof[2], eof[3])


@given(
    st.lists(
        st.sampled_from(
            ["fn", "x", "_y'", "where", "12", " ", "\t", "\r", "\n", "--", "-- c\n",
             "-", ">", "/", "\\", "|", ":", ",", "(", ")", "[", "=", "<", "*", "+",
             "é", "²", "§", "\x0b"]
        ),
        max_size=24,
    ).map("".join)
)
@settings(max_examples=400)
def test_tokenize_agrees_with_one_match_per_trivia_run(text):
    toks, end = _reference_tokens(text)
    if end[0] == "error":
        _, char, line, col = end
        assert _tokens(text) == (None, f"unexpected character {char!r}", (line, col))
    else:
        assert _tokens(text) == (toks, end)
