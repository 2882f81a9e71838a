"""Concrete syntax for `.gl` programs: lexer, parser and pretty-printer.

Grammar (EBNF, whitespace-insensitive, `--` starts a line comment):

    program  = header* "val" "main" [":" type] "=" term
    header   = "datasort" IDENT ["<:" IDENT]
             | "indexcon" IDENT "::" sort
             | "prim" IDENT ":" type

    type     = "Pi" IDENT ":" sort "." type | arrow
    arrow    = sect ["->" type]                      -- right associative
    sect     = typeatom ["/\\" sect]                 -- binds tighter than ->
    typeatom = "unit" | IDENT ["(" index ")"] | "(" type ")"
    sort     = "int"

    term     = "fn" IDENT "=>" term
             | "where" decl "do" term
             | "some" IDENT ":" sort "in" term
             | "idxfn" IDENT ":" sort "=>" term
             | merge
    merge    = app [",," term]                       -- lowest precedence
    app      = termatom termatom*                    -- left associative
    termatom = "(" ")" | "(" term ")" | "(" term ":" type ")"
             | "(" term "::" "[" ctyp (";" ctyp)* "]" ")" | IDENT
    ctyp     = [decl ("," decl)*] "|-" type
    decl     = IDENT ":" ("int" | type)              -- index sorting | typing

    index    = iterm (("+" | "-") iterm)*            -- left associative
    iterm    = ifactor ("*" ifactor)*                -- at most one non-literal
    ifactor  = INT | IDENT | "(" index ")" | "-" ifactor

Binders (`fn`, `where`, `some`, `idxfn`) extend as far right as possible, so
a merge under a binder belongs to the binder's body; parenthesize the binder
to merge it.  Identifiers match [A-Za-z_][A-Za-z0-9_']*.
"""

from __future__ import annotations

import re
from typing import Optional

from .syntax import (
    Anno,
    App,
    CtxAnno,
    CtxTyping,
    Decl,
    Guard,
    IAdd,
    ILit,
    IMeta,
    IMul,
    ISub,
    IVar,
    IdxDecl,
    IdxLam,
    IndexExpr,
    IndexSort,
    Lam,
    Merge,
    Prim,
    Program,
    Signature,
    Some,
    Span,
    TAtom,
    TArrow,
    TCon,
    TPi,
    TSect,
    TUnit,
    Term,
    Type,
    Unit,
    Var,
    VarDecl,
    SORTS,
    rewrite,
)

KEYWORDS = {
    "fn",
    "where",
    "do",
    "some",
    "in",
    "idxfn",
    "Pi",
    "unit",
    "int",
    "datasort",
    "indexcon",
    "prim",
    "val",
}

# One alternative per token class, tried in order at each position; longer
# punctuation comes before its prefixes.  `word` admits any `\w` start but
# identifiers must start with a letter or `_`, which `tokenize` checks.
_TOKEN = re.compile(
    r"""
      (?P<nl>\n)
    | (?P<skip>[ \t\r]+|--[^\n]*)
    | (?P<word>[^\W\d][\w']*)
    | (?P<int>\d+)
    | (?P<punct>,,|::|\|-|->|=>|/\\|<:|[()\[\],:;.*+\-=])
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    def __init__(
        self,
        message: str,
        span: Optional[Span] = None,
        expected: tuple[str, ...] = (),
        found: str = "",
    ) -> None:
        where = f"{span}: " if span else ""
        super().__init__(f"{where}{message}")
        self.message = message
        self.span = span
        self.expected = expected
        self.found = found


class Token:
    """One token, which lies on one line.  Its `Span` is built only where a
    node or an error takes one: most tokens never need theirs."""

    __slots__ = ("kind", "text", "file", "line", "col", "end_col")

    def __init__(
        self, kind: str, text: str, file: str, line: int, col: int, end_col: int
    ) -> None:
        self.kind = kind  # punctuation/keyword text, or "ident", "int", "eof"
        self.text = text
        self.file = file
        self.line = line
        self.col = col
        self.end_col = end_col

    @property
    def span(self) -> Span:
        return Span(self.file, self.line, self.col, self.line, self.end_col)


def tokenize(text: str, path: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    pos, n = 0, len(text)
    match = _TOKEN.match
    while pos < n:
        m = match(text, pos)
        kind = m and m.lastgroup
        col = pos - line_start + 1
        if kind == "word" and not (text[pos].isalpha() or text[pos] == "_"):
            kind = None
        if kind is None:
            c = text[pos]
            raise ParseError(
                f"unexpected character {c!r}",
                Span(path, line, col, line, col + 1),
                found=c,
            )
        end = m.end()
        if kind == "nl":
            line, line_start = line + 1, end
        elif kind != "skip":
            word = m.group()
            if kind == "word":
                kind = word if word in KEYWORDS else "ident"
            elif kind == "punct":
                kind = word
            tokens.append(Token(kind, word, path, line, col, col + end - pos))
        pos = end
    col = n - line_start + 1
    tokens.append(Token("eof", "", path, line, col, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token machinery ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise ParseError(
                f"expected {kind!r}, found {found!r}",
                tok.span,
                expected=(kind,),
                found=found,
            )
        return self.advance()

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.peek()
        found = tok.text or "end of input"
        return ParseError(
            f"{message}, found {found!r}", tok.span, expected=expected, found=found
        )

    def span_from(self, start: Token) -> Span:
        prev = self.tokens[max(self.pos - 1, 0)]
        return Span(start.file, start.line, start.col, prev.line, prev.end_col)

    # -- sorts and index expressions ----------------------------------------

    def sort(self) -> IndexSort:
        tok = self.peek()
        if tok.kind in SORTS:
            self.advance()
            return SORTS[tok.kind]
        raise self.fail("expected an index sort", expected=tuple(SORTS))

    def index(self) -> IndexExpr:
        start = self.peek()
        expr = self.index_term()
        while self.at("+") or self.at("-"):
            op = self.advance().kind
            rhs = self.index_term()
            cls = IAdd if op == "+" else ISub
            expr = cls(expr, rhs, span=self.span_from(start))
        return expr

    def index_term(self) -> IndexExpr:
        start = self.peek()
        factors = [self.index_factor()]
        while self.at("*"):
            self.advance()
            factors.append(self.index_factor())
        literals = [f for f in factors if isinstance(f, ILit)]
        others = [f for f in factors if not isinstance(f, ILit)]
        if len(others) > 1:
            raise ParseError(
                "nonlinear index expression: at most one non-literal factor "
                "per product",
                self.span_from(start),
            )
        coeff = 1
        for lit in literals:
            coeff *= lit.value
        if not others:
            return ILit(coeff, span=self.span_from(start))
        if coeff == 1 and len(factors) == 1:
            return others[0]
        return IMul(coeff, others[0], span=self.span_from(start))

    def index_factor(self) -> IndexExpr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return ILit(int(tok.text), span=tok.span)
        if tok.kind == "ident":
            self.advance()
            return IVar(tok.text, span=tok.span)
        if tok.kind == "(":
            self.advance()
            expr = self.index()
            self.expect(")")
            return expr
        if tok.kind == "-":
            self.advance()
            inner = self.index_factor()
            if isinstance(inner, ILit):
                return ILit(-inner.value, span=tok.span)
            if isinstance(inner, IMul):
                return IMul(-inner.coeff, inner.factor, span=tok.span)
            return IMul(-1, inner, span=tok.span)
        raise self.fail("expected an index expression")

    # -- types ---------------------------------------------------------------

    def type_(self) -> Type:
        start = self.peek()
        if self.at("Pi"):
            self.advance()
            name = self.expect("ident").text
            self.expect(":")
            sort = self.sort()
            self.expect(".")
            body = self.type_()
            return TPi(name, sort, body, span=self.span_from(start))
        lhs = self.sect_type()
        if self.at("->"):
            self.advance()
            rhs = self.type_()
            return TArrow(lhs, rhs, span=self.span_from(start))
        return lhs

    def sect_type(self) -> Type:
        start = self.peek()
        lhs = self.type_atom()
        if self.at("/\\"):
            self.advance()
            rhs = self.sect_type()
            return TSect(lhs, rhs, span=self.span_from(start))
        return lhs

    def type_atom(self) -> Type:
        tok = self.peek()
        if tok.kind == "unit":
            self.advance()
            return TUnit(span=tok.span)
        if tok.kind == "ident":
            self.advance()
            if self.at("("):
                self.advance()
                idx = self.index()
                self.expect(")")
                return TCon(tok.text, idx, span=self.span_from(tok))
            return TAtom(tok.text, span=tok.span)
        if tok.kind == "(":
            self.advance()
            ty = self.type_()
            self.expect(")")
            return ty
        raise self.fail("expected a type")

    # -- declarations --------------------------------------------------------

    def decl(self) -> Decl:
        start = self.expect("ident")
        self.expect(":")
        if self.peek().kind in SORTS:
            sort = self.sort()
            return IdxDecl(start.text, sort, span=self.span_from(start))
        ty = self.type_()
        return VarDecl(start.text, ty, span=self.span_from(start))

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        start = self.peek()
        if self.at("fn"):
            self.advance()
            name = self.expect("ident").text
            self.expect("=>")
            body = self.term()
            return Lam(name, body, span=self.span_from(start))
        if self.at("where"):
            self.advance()
            d = self.decl()
            self.expect("do")
            body = self.term()
            return Guard(d, body, span=self.span_from(start))
        if self.at("some"):
            self.advance()
            name = self.expect("ident").text
            self.expect(":")
            sort = self.sort()
            self.expect("in")
            body = self.term()
            return Some(name, sort, body, span=self.span_from(start))
        if self.at("idxfn"):
            self.advance()
            name = self.expect("ident").text
            self.expect(":")
            sort = self.sort()
            self.expect("=>")
            body = self.term()
            return IdxLam(name, sort, body, span=self.span_from(start))
        return self.merge_term()

    def merge_term(self) -> Term:
        start = self.peek()
        lhs = self.app_term()
        if self.at(",,"):
            self.advance()
            rhs = self.term()
            return Merge(lhs, rhs, span=self.span_from(start))
        return lhs

    def app_term(self) -> Term:
        start = self.peek()
        expr = self.atom_term()
        while self.peek().kind in ("(", "ident"):
            arg = self.atom_term()
            expr = App(expr, arg, span=self.span_from(start))
        return expr

    def atom_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text, span=tok.span)
        if tok.kind == "(":
            self.advance()
            if self.at(")"):
                self.advance()
                return Unit(span=self.span_from(tok))
            body = self.term()
            if self.at(":"):
                self.advance()
                ty = self.type_()
                self.expect(")")
                return Anno(body, ty, span=self.span_from(tok))
            if self.at("::"):
                self.advance()
                self.expect("[")
                typings = [self.ctx_typing()]
                while self.at(";"):
                    self.advance()
                    typings.append(self.ctx_typing())
                self.expect("]")
                self.expect(")")
                return CtxAnno(body, tuple(typings), span=self.span_from(tok))
            self.expect(")")
            return body
        raise self.fail("expected a term")

    def ctx_typing(self) -> CtxTyping:
        start = self.peek()
        entries: list[Decl] = []
        if not self.at("|-"):
            entries.append(self.decl())
            while self.at(","):
                self.advance()
                entries.append(self.decl())
        self.expect("|-")
        goal = self.type_()
        return CtxTyping(tuple(entries), goal, span=self.span_from(start))

    # -- programs ------------------------------------------------------------

    def program(self, path: str) -> Program:
        sig = Signature()
        while True:
            if self.at("datasort"):
                self.advance()
                name = self.expect("ident").text
                parent = None
                if self.at("<:"):
                    self.advance()
                    parent = self.expect("ident").text
                sig.declare_atom(name, parent)
            elif self.at("indexcon"):
                self.advance()
                name = self.expect("ident").text
                self.expect("::")
                sig.declare_con(name, self.sort())
            elif self.at("prim"):
                self.advance()
                name = self.expect("ident").text
                self.expect(":")
                sig.declare_prim(name, self.type_())
            else:
                break
        self.expect("val")
        name_tok = self.expect("ident")
        if name_tok.text != "main":
            raise ParseError(
                f"expected 'main', found {name_tok.text!r}", name_tok.span
            )
        goal = None
        if self.at(":"):
            self.advance()
            goal = self.type_()
        self.expect("=")
        main = self.term()
        self.expect("eof")
        main = resolve_prims(main, frozenset(sig.prims))
        return Program(sig, main, goal, path=path)


def resolve_prims(e: Term, prims: frozenset[str]) -> Term:
    """Rewrite free variables naming declared primitives into Prim nodes."""
    return rewrite(e, _resolve_hook, (prims, frozenset()))


def _resolve_hook(e, state):
    prims, bound = state
    if type(e) is Var:
        if e.name in prims and e.name not in bound:
            return Prim(e.name, span=e.span)
        return e
    if type(e) is Lam:
        return prims, bound | {e.var}
    return state if isinstance(e, Term) else e


def parse_program(text: str, path: str = "<string>") -> Program:
    return _Parser(tokenize(text, path)).program(path)


def parse_type(text: str, path: str = "<string>") -> Type:
    parser = _Parser(tokenize(text, path))
    ty = parser.type_()
    parser.expect("eof")
    return ty


def parse_term(
    text: str, path: str = "<string>", prims: frozenset[str] = frozenset()
) -> Term:
    parser = _Parser(tokenize(text, path))
    e = parser.term()
    parser.expect("eof")
    return resolve_prims(e, prims)


def parse_index(text: str, path: str = "<string>") -> IndexExpr:
    parser = _Parser(tokenize(text, path))
    i = parser.index()
    parser.expect("eof")
    return i


# ---------------------------------------------------------------------------
# Pretty-printing.  parse(pretty(x)) is alpha-equivalent to x for terms and
# types; derivations print as an indented rule tree.


def pretty(x) -> str:
    if isinstance(x, Term):
        return pretty_term(x)
    if isinstance(x, Type):
        return pretty_type(x)
    if isinstance(x, IndexExpr):
        return pretty_index(x)
    if isinstance(x, Decl):
        return pretty_decl(x)
    if isinstance(x, CtxTyping):
        return pretty_ctx_typing(x)
    if hasattr(x, "rule") and hasattr(x, "premises"):
        return format_derivation(x)
    raise TypeError(f"pretty: unexpected {x!r}")


def pretty_index(i: IndexExpr, level: int = 0) -> str:
    match i:
        case IVar(name):
            return name
        case IMeta(uid):
            return f"?{uid}"
        case ILit(value):
            return str(value)
        case IAdd(l, r):
            s = f"{pretty_index(l, 0)} + {pretty_index(r, 1)}"
            return f"({s})" if level > 0 else s
        case ISub(l, r):
            s = f"{pretty_index(l, 0)} - {pretty_index(r, 1)}"
            return f"({s})" if level > 0 else s
        case IMul(c, f):
            s = f"{c}*{pretty_index(f, 2)}"
            return f"({s})" if level > 1 else s
    raise TypeError(f"pretty_index: unexpected {i!r}")


def pretty_type(ty: Type, level: int = 0) -> str:
    match ty:
        case TUnit():
            return "unit"
        case TAtom(name):
            return name
        case TCon(con, idx):
            return f"{con}({pretty_index(idx)})"
        case TArrow(a, b):
            s = f"{pretty_type(a, 1)} -> {pretty_type(b, 0)}"
            return f"({s})" if level > 0 else s
        case TSect(l, r):
            s = f"{pretty_type(l, 2)} /\\ {pretty_type(r, 1)}"
            return f"({s})" if level > 1 else s
        case TPi(a, sort, body):
            s = f"Pi {a} : {sort} . {pretty_type(body, 0)}"
            return f"({s})" if level > 0 else s
    raise TypeError(f"pretty_type: unexpected {ty!r}")


def pretty_decl(d: Decl) -> str:
    if isinstance(d, VarDecl):
        return f"{d.name} : {pretty_type(d.ty)}"
    return f"{d.name} : {d.sort}"


def pretty_ctx_typing(t: CtxTyping) -> str:
    if t.entries:
        decls = ", ".join(pretty_decl(d) for d in t.entries)
        return f"{decls} |- {pretty_type(t.goal)}"
    return f"|- {pretty_type(t.goal)}"


def pretty_term(e: Term, level: int = 0) -> str:
    match e:
        case Var(name) | Prim(name):
            return name
        case Unit():
            return "()"
        case Anno(body, ty):
            return f"({pretty_term(body, 0)} : {pretty_type(ty)})"
        case CtxAnno(body, typings):
            inner = " ; ".join(pretty_ctx_typing(t) for t in typings)
            return f"({pretty_term(body, 0)} :: [{inner}])"
        case App(f, a):
            s = f"{pretty_term(f, 1)} {pretty_term(a, 2)}"
            return f"({s})" if level > 1 else s
        case Merge(l, r):
            s = f"{pretty_term(l, 1)} ,, {pretty_term(r, 0)}"
            return f"({s})" if level > 0 else s
        case Lam(x, body):
            s = f"fn {x} => {pretty_term(body, 0)}"
            return f"({s})" if level > 0 else s
        case Guard(d, body):
            s = f"where {pretty_decl(d)} do {pretty_term(body, 0)}"
            return f"({s})" if level > 0 else s
        case Some(a, sort, body):
            s = f"some {a} : {sort} in {pretty_term(body, 0)}"
            return f"({s})" if level > 0 else s
        case IdxLam(a, sort, body):
            s = f"idxfn {a} : {sort} => {pretty_term(body, 0)}"
            return f"({s})" if level > 0 else s
    raise TypeError(f"pretty_term: unexpected {e!r}")


def pretty_context(entries) -> str:
    if not entries:
        return "."
    return ", ".join(pretty_decl(d) for d in entries)


def pretty_program(prog: Program) -> str:
    lines: list[str] = []
    for name, parents in prog.sig.atoms.items():
        if not parents:
            lines.append(f"datasort {name}")
        for parent in sorted(parents):
            lines.append(f"datasort {name} <: {parent}")
    for name, sort in prog.sig.cons.items():
        lines.append(f"indexcon {name} :: {sort}")
    for name, ty in prog.sig.prims.items():
        lines.append(f"prim {name} : {pretty_type(ty)}")
    goal = f" : {pretty_type(prog.goal)}" if prog.goal is not None else ""
    lines.append(f"val main{goal} = {pretty_term(prog.main)}")
    return "\n".join(lines) + "\n"


def format_derivation(d, indent: int = 0) -> str:
    """Indented rule tree for typing, subtyping and contextual-subsumption
    derivations."""
    pad = "  " * indent
    if hasattr(d, "mode"):  # typing node
        arrow = "<=" if d.mode == "check" else "=>"
        ty = pretty_type(d.ty) if d.ty is not None else "-"
        head = (
            f"{pad}[{d.rule}] {pretty_context(d.ctx_entries)} |- "
            f"{pretty_term(d.term)} {arrow} {ty}"
        )
    elif hasattr(d, "inner"):  # contextual subsumption node
        head = (
            f"{pad}[<~ {d.rule}] ({pretty_ctx_typing(d.inner)}) <~ "
            f"({pretty_context(d.ctx_entries)} |- {pretty_type(d.goal)})"
        )
    else:  # subtyping node
        head = (
            f"{pad}[{d.rule}] {pretty_context(d.ctx_entries)} |- "
            f"{pretty_type(d.lhs)} <= {pretty_type(d.rhs)}"
        )
    if getattr(d, "witness", None) is not None:
        head += f"   with {pretty_index(d.witness)}"
    lines = [head]
    for p in d.premises:
        lines.append(format_derivation(p, indent + 1))
    return "\n".join(lines)
