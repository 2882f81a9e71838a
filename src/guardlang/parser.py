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

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    Anno,
    App,
    CtxAnno,
    CtxTyping,
    Decl,
    Eq,
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
    IndexProp,
    IndexSort,
    Lam,
    Le,
    Lt,
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

_PUNCT = [
    ",,",
    "::",
    "|-",
    "->",
    "=>",
    "/\\",
    "<:",
    "(",
    ")",
    "[",
    "]",
    ",",
    ":",
    ";",
    ".",
    "*",
    "+",
    "-",
    "=",
]


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


@dataclass(frozen=True)
class Token:
    kind: str  # punctuation/keyword text, or "ident", "int", "eof"
    text: str
    span: Span


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c in "_'"


def tokenize(text: str, path: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def span(l0: int, c0: int) -> Span:
        return Span(path, l0, c0, line, col)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        l0, c0 = line, col
        if _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            col += j - i
            i = j
            kind = word if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, span(l0, c0)))
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            word = text[i:j]
            col += j - i
            i = j
            tokens.append(Token("int", word, span(l0, c0)))
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                i += len(p)
                col += len(p)
                tokens.append(Token(p, p, span(l0, c0)))
                break
        else:
            raise ParseError(
                f"unexpected character {c!r}",
                Span(path, l0, c0, l0, c0 + 1),
                found=c,
            )
    tokens.append(Token("eof", "", Span(path, line, col, line, col)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token machinery ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

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
        return Span(
            start.span.file,
            start.span.start_line,
            start.span.start_col,
            prev.span.end_line,
            prev.span.end_col,
        )

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

    def prop(self) -> IndexProp:
        lhs = self.index()
        tok = self.peek()
        if tok.kind == "=":
            self.advance()
            return Eq(lhs, self.index())
        raise self.fail("expected '=' in index proposition", expected=("=",))

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


def resolve_prims(e: Term, prims: frozenset[str], bound: frozenset[str] = frozenset()) -> Term:
    """Rewrite free variables naming declared primitives into Prim nodes."""
    match e:
        case Var(name):
            if name in prims and name not in bound:
                return Prim(name, span=e.span)
            return e
        case Unit() | Prim(_):
            return e
        case Lam(x, body):
            return Lam(x, resolve_prims(body, prims, bound | {x}), span=e.span)
        case App(f, a):
            return App(
                resolve_prims(f, prims, bound),
                resolve_prims(a, prims, bound),
                span=e.span,
            )
        case Anno(body, ty):
            return Anno(resolve_prims(body, prims, bound), ty, span=e.span)
        case Guard(d, body):
            return Guard(d, resolve_prims(body, prims, bound), span=e.span)
        case Merge(l, r):
            return Merge(
                resolve_prims(l, prims, bound),
                resolve_prims(r, prims, bound),
                span=e.span,
            )
        case Some(a, s, body):
            return Some(a, s, resolve_prims(body, prims, bound), span=e.span)
        case IdxLam(a, s, body):
            return IdxLam(a, s, resolve_prims(body, prims, bound), span=e.span)
        case CtxAnno(body, typings):
            return CtxAnno(
                resolve_prims(body, prims, bound), typings, span=e.span
            )
    raise TypeError(f"resolve_prims: unexpected {e!r}")


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
    if isinstance(x, IndexProp):
        return pretty_prop(x)
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


def pretty_prop(p: IndexProp) -> str:
    ops = {Eq: "=", Le: "<=", Lt: "<"}
    return f"{pretty_index(p.lhs)} {ops[type(p)]} {pretty_index(p.rhs)}"


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
