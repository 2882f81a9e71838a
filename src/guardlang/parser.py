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
    ifactor  = NUM | IDENT | "(" index ")" | "-" ifactor

Binders (`fn`, `where`, `some`, `idxfn`) extend as far right as possible, so
a merge under a binder belongs to the binder's body; parenthesize the binder
to merge it.  Identifiers match [A-Za-z_][A-Za-z0-9_']*; a numeral NUM is a
run of decimal digits, and `int` is a keyword, not a numeral.

The precedences, associativities and binder headers above are written once,
in the grammar table (`INFIX`, `PRODUCT` and `PREFIX`), which the parser and
`pretty` both read.  Neither recurses per syntax level: operator chains and
binders go on an explicit stack, one shunting-yard loop per expression, and
bracketed nesting runs as generators on the stack of a trampoline (`_run`).
So input of any depth parses and prints within Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import fields
from math import prod
from types import GeneratorType
from typing import Optional

from .syntax import (
    Anno,
    App,
    CtxAnno,
    CtxGoal,
    CtxIdx,
    CtxVar,
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
    Node,
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

# One match per token: the whitespace, newlines and `--` comments before it,
# then one alternative per token class, tried in order.  Longer punctuation
# comes before its prefixes, `eof` matches at the end of the text and `bad`
# at any other character.  So some alternative matches wherever the trivia
# ends, and the trivia is never backtracked into: a comment cannot end early
# and let a token be read inside it.  `word` admits any `\w` start but
# identifiers must start with a letter or `_`, which `tokenize` checks.
_TOKEN = re.compile(
    r"""
      (?:[ \t\r\n]+|--[^\n]*)*
      (?:
        (?P<word>[^\W\d][\w']*)
      | (?P<num>\d+)
      | (?P<punct>,,|::|\|-|->|=>|/\\|<:|[()\[\],:;.*+\-=])
      | (?P<eof>\Z)
      | (?P<bad>.)
      )
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    def __init__(self, message: str, span: Optional[Span] = None) -> None:
        where = f"{span}: " if span else ""
        super().__init__(f"{where}{message}")
        self.message = message
        self.span = span


class Token:
    """One token, which lies on one line.  Its `Span` is built only where a
    node or an error takes one: most tokens never need theirs."""

    __slots__ = ("kind", "text", "file", "line", "col", "end_col")

    def __init__(
        self, kind: str, text: str, file: str, line: int, col: int, end_col: int
    ) -> None:
        self.kind = kind  # punctuation/keyword text, or "ident", "num", "eof"
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
    nl = text.find("\n")  # the first newline not yet counted, or -1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start, end = m.span(kind)
        if -1 < nl < start:
            line += text.count("\n", nl, start)
            line_start = text.rindex("\n", nl, start) + 1
            nl = text.find("\n", start)
        col = start - line_start + 1
        word = text[start:end]
        if kind == "word":
            if not (word[0].isalpha() or word[0] == "_"):
                kind = "bad"
            else:
                kind = word if word in KEYWORDS else "ident"
        elif kind == "punct":
            kind = word
        if kind == "bad":
            raise ParseError(
                f"unexpected character {word[0]!r}",
                Span(path, line, col, line, col + 1),
            )
        tokens.append(Token(kind, word, path, line, col, col + end - start))
        if kind == "eof":
            break
    return tokens


# ---------------------------------------------------------------------------
# The grammar table.  A higher precedence binds tighter.  An operand slot has
# a level, and a form whose precedence is below the level of its slot needs
# parentheses there.

# Infix forms: class -> (token, precedence, right associative).  Application
# is juxtaposition and has no token.
INFIX: dict[type, tuple[Optional[str], int, bool]] = {
    Merge: (",,", 0, True),
    App: (None, 1, False),
    TArrow: ("->", 0, True),
    TSect: ("/\\", 1, True),
    IAdd: ("+", 0, False),
    ISub: ("-", 0, False),
}

# A product `c*i` binds tighter than `+` and `-`; its factor is an atom.
PRODUCT = 1

# Prefix binders: class -> header, its tokens and, in braces, the fields
# before the body, in field order.  A binder's body extends as far right as
# it can, so a binder has precedence 0: it starts only in a slot of level 0,
# where a full expression may.
PREFIX: dict[type, str] = {
    Lam: "fn {var} =>",
    Guard: "where {decl} do",
    Some: "some {var} : {sort} in",
    IdxLam: "idxfn {var} : {sort} =>",
    TPi: "Pi {var} : {sort} .",
}

KEYWORDS = {w for head in PREFIX.values() for w in head.split() if w.isalpha()} | {
    "unit", "int", "datasort", "indexcon", "prim", "val"
}


# Per syntax class, the table's infix tokens and binder keywords.
_SYNTAX = {
    base: (
        {tok: (cls, prec, right) for cls, (tok, prec, right) in INFIX.items()
         if issubclass(cls, base)},
        {head.split()[0]: (cls, head.split()[1:]) for cls, head in PREFIX.items()
         if issubclass(cls, base)},
    )
    for base in (Term, Type, IndexExpr)
}
# The tokens that start an argument, so a juxtaposition (no-token) infix.
_ARGUMENT = ("(", "ident")


def _run(gen):
    """Run the generator `gen` to its return value.  A generator it yields
    runs first, and its return value is sent back: nesting costs one
    generator on this loop's stack, and no Python frame."""
    stack, value = [], None
    while True:
        try:
            sub = gen.send(value)
        except StopIteration as done:
            if not stack:
                return done.value
            gen, value = stack.pop(), done.value
        else:
            stack.append(gen)
            gen, value = sub, None


class _Parser:
    def __init__(
        self, tokens: list[Token], prims: frozenset[str] = frozenset()
    ) -> None:
        self.tokens = tokens
        self.pos = 0
        # Free occurrences of these names are primitives; `bound` counts the
        # enclosing `fn` binders of each name, which shadow them.
        self.prims = prims
        self.bound: dict[str, int] = {}

    # -- token machinery ----------------------------------------------------

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def accept(self, kind: str) -> bool:
        """Read the current token if it is of `kind`."""
        if self.tokens[self.pos].kind != kind:
            return False
        self.pos += 1
        return True

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        if self.tokens[self.pos].kind != kind:
            raise self.fail(f"expected {kind!r}")
        return self.advance()

    def fail(self, message: str) -> ParseError:
        tok = self.tokens[self.pos]
        return ParseError(f"{message}, found {tok.text or 'end of input'!r}", tok.span)

    def span_from(self, start: Token) -> Span:
        prev = self.tokens[max(self.pos - 1, 0)]
        return Span(start.file, start.line, start.col, prev.line, prev.end_col)

    # -- expressions ----------------------------------------------------------

    def expr(self, base: type):
        """One term, type or index expression (`base`), as a generator for
        `_run`.  Operands go on `args` with their first token, operators
        and binders on `ops` with their precedence; an operator pops the
        entries that bind at least as tightly as it, and the end pops all."""
        infix, binders = _SYNTAX[base]
        operand = self.OPERAND[base]
        args: list[tuple[Node, Token]] = []
        ops: list[tuple] = []
        full = True  # whether this operand slot has level 0
        while True:
            tok = self.tokens[self.pos]
            binder = full and binders.get(tok.kind)
            if binder:
                cls, header = binder
                self.pos += 1
                values = []
                for word in header:
                    if word == "{decl}":
                        values.append((yield self.decl()))
                    elif word == "{sort}":
                        values.append(self.sort())
                    elif word == "{var}":
                        values.append(self.expect("ident").text)
                    else:
                        self.expect(word)
                if cls is Lam:
                    self.bound[values[0]] = self.bound.get(values[0], 0) + 1
                ops.append((-1, cls, values, tok))  # only the end pops it
                continue
            x = operand(self, tok)
            if type(x) is GeneratorType:
                x = yield x
            args.append((x, tok))
            kind = self.tokens[self.pos].kind
            entry = infix.get(kind)
            if entry is None and (None not in infix or kind not in _ARGUMENT):
                break
            cls, prec, right = entry or infix[None]
            if ops and ops[-1][0] >= prec + right:
                self.reduce(args, ops, prec + right)
            if entry:
                self.pos += 1
            ops.append((prec, cls, None, None))
            full = prec + (not right) == 0  # the level of the right operand
        self.reduce(args, ops, -1)
        return args[0][0]

    def reduce(self, args: list, ops: list, level: int) -> None:
        """Pop the entries of `ops` of precedence `level` or more, building
        their nodes, which end at the token before the current one."""
        last = self.tokens[self.pos - 1]
        while ops and ops[-1][0] >= level:
            _, cls, values, start = ops.pop()
            x = args.pop()[0]
            if values is None:
                lhs, start = args.pop()
                values = (lhs,)
            elif cls is Lam:
                self.bound[values[0]] -= 1
            span = Span(start.file, start.line, start.col, last.line, last.end_col)
            args.append((cls(*values, x, span=span), start))

    def term_operand(self, tok: Token):
        kind = tok.kind
        if kind == "ident":
            self.pos += 1
            if tok.text in self.prims and not self.bound.get(tok.text):
                return Prim(tok.text, span=tok.span)
            return Var(tok.text, span=tok.span)
        if kind == "(":
            self.pos += 1
            return self.paren(tok)
        raise self.fail("expected a term")

    def type_operand(self, tok: Token):
        kind = tok.kind
        if kind == "unit":
            self.pos += 1
            return TUnit(span=tok.span)
        if kind == "ident":
            self.pos += 1
            if self.accept("("):
                return self.group(IndexExpr, tok)
            return TAtom(tok.text, span=tok.span)
        if kind == "(":
            self.pos += 1
            return self.group(Type)
        raise self.fail("expected a type")

    # -- bracketed forms, run by `_run` ----------------------------------------

    def group(self, base: type, con: Optional[Token] = None):
        """`(` expression `)` with its `(` read, or `con(index)`."""
        x = yield self.expr(base)
        self.expect(")")
        return x if con is None else TCon(con.text, x, span=self.span_from(con))

    def paren(self, start: Token):
        """`(` term `)`, `(` term `:` type `)` or `(` term `::` `[` ctyps `]`
        `)`, or `()`, with its `(` read."""
        if self.accept(")"):
            return Unit(span=self.span_from(start))
        body = yield self.expr(Term)
        if self.accept(":"):
            ty = yield self.expr(Type)
            self.expect(")")
            return Anno(body, ty, span=self.span_from(start))
        if self.accept("::"):
            self.expect("[")
            typings = []
            while not typings or self.accept(";"):
                entries = []
                if not self.at("|-"):
                    entries.append((yield self.decl()))
                    while self.accept(","):
                        entries.append((yield self.decl()))
                bar = self.expect("|-")
                t = CtxGoal((yield self.expr(Type)), span=self.span_from(bar))
                for d in reversed(entries):
                    span = t.span._replace(start_line=d.span.start_line,
                                           start_col=d.span.start_col)
                    t = (CtxVar(d, t, span=span) if type(d) is VarDecl
                         else CtxIdx(d.name, d.sort, t, span=span))
                typings.append(t)
            self.expect("]")
            self.expect(")")
            return CtxAnno(body, tuple(typings), span=self.span_from(start))
        self.expect(")")
        return body

    def decl(self):
        start = self.expect("ident")
        self.expect(":")
        if self.tokens[self.pos].kind in SORTS:
            return IdxDecl(start.text, self.sort(), span=self.span_from(start))
        ty = yield self.expr(Type)
        return VarDecl(start.text, ty, span=self.span_from(start))

    def product(self, start: Token):
        """iterm: linear, so at most one of its factors is not a literal."""
        factors = []
        while True:
            signs = []
            while self.at("-"):
                signs.append(self.advance())
            tok = self.tokens[self.pos]
            if tok.kind == "num":
                self.advance()
                factor = ILit(int(tok.text), span=tok.span)
            elif tok.kind == "ident":
                self.advance()
                factor = IVar(tok.text, span=tok.span)
            elif tok.kind == "(":
                self.advance()
                factor = yield self.expr(IndexExpr)
                self.expect(")")
            else:
                raise self.fail("expected an index expression")
            for sign in reversed(signs):
                if isinstance(factor, ILit):
                    factor = ILit(-factor.value, span=sign.span)
                elif isinstance(factor, IMul):
                    factor = IMul(-factor.coeff, factor.factor, span=sign.span)
                else:
                    factor = IMul(-1, factor, span=sign.span)
            factors.append(factor)
            if not self.accept("*"):
                break
        others = [f for f in factors if not isinstance(f, ILit)]
        if len(others) > 1:
            raise ParseError(
                "nonlinear index expression: at most one non-literal factor "
                "per product",
                self.span_from(start),
            )
        coeff = prod(f.value for f in factors if isinstance(f, ILit))
        if not others:
            return ILit(coeff, span=self.span_from(start))
        if coeff == 1 and len(factors) == 1:
            return others[0]
        return IMul(coeff, others[0], span=self.span_from(start))

    def sort(self) -> IndexSort:
        tok = self.tokens[self.pos]
        if tok.kind in SORTS:
            self.advance()
            return SORTS[tok.kind]
        raise self.fail("expected an index sort")

    # -- programs ------------------------------------------------------------

    def program(self, path: str):
        sig = Signature()
        while self.tokens[self.pos].kind in ("datasort", "indexcon", "prim"):
            kind = self.advance().kind
            name = self.expect("ident").text
            if kind == "datasort":
                parent = None
                if self.accept("<:"):
                    parent = self.expect("ident").text
                sig.declare_atom(name, parent)
            elif kind == "indexcon":
                self.expect("::")
                sig.declare_con(name, self.sort())
            else:
                self.expect(":")
                sig.declare_prim(name, (yield self.expr(Type)))
        self.expect("val")
        name_tok = self.expect("ident")
        if name_tok.text != "main":
            raise ParseError(
                f"expected 'main', found {name_tok.text!r}", name_tok.span
            )
        goal = None
        if self.accept(":"):
            goal = yield self.expr(Type)
        self.expect("=")
        self.prims = frozenset(sig.prims)
        main = yield self.expr(Term)
        self.expect("eof")
        return Program(sig, main, goal, path=path)

    OPERAND = {Term: term_operand, Type: type_operand, IndexExpr: product}


def parse_program(text: str, path: str = "<string>") -> Program:
    return _run(_Parser(tokenize(text, path)).program(path))


def _parse(base: type, text: str, path: str, prims: frozenset[str] = frozenset()):
    parser = _Parser(tokenize(text, path), prims)
    x = _run(parser.expr(base))
    parser.expect("eof")
    return x


def parse_type(text: str, path: str = "<string>") -> Type:
    return _parse(Type, text, path)


def parse_term(
    text: str, path: str = "<string>", prims: frozenset[str] = frozenset()
) -> Term:
    """A term; free occurrences of the names in `prims` are primitives."""
    return _parse(Term, text, path, prims)


def parse_index(text: str, path: str = "<string>") -> IndexExpr:
    return _parse(IndexExpr, text, path)


# ---------------------------------------------------------------------------
# Pretty-printing.  parse(pretty(x)) is alpha-equivalent to x for terms and
# types; derivations print as an indented rule tree.


def _layouts() -> dict[type, tuple[Optional[int], tuple]]:
    """Each form's precedence (None: it needs no parentheses) and parts:
    text, formatted with its fields, and (field, level) slots."""
    out = {
        **dict.fromkeys((Var, Prim, IVar, TAtom), (None, ("{name}",))),
        Unit: (None, ("()",)),
        TUnit: (None, ("unit",)),
        ILit: (None, ("{value}",)),
        IMeta: (None, ("?{uid}",)),
        IdxDecl: (None, ("{name} : {sort}",)),
        CtxGoal: (None, ("|- ", ("ty", 0))),
        VarDecl: (None, ("{name} : ", ("ty", 0))),
        TCon: (None, ("{con}(", ("index", 0), ")")),
        Anno: (None, ("(", ("body", 0), " : ", ("ty", 0), ")")),
        IMul: (PRODUCT, ("{coeff}*", ("factor", PRODUCT + 1))),
    }
    for cls, (tok, prec, right) in INFIX.items():
        lhs, rhs = (f.name for f in fields(cls) if f.compare)
        sep = " " if tok is None else f" {tok} "
        out[cls] = (prec, ((lhs, prec + right), sep, (rhs, prec + (not right))))
    for cls, head in PREFIX.items():
        before, decl, after = (head + " ").partition("{decl}")
        parts = (before, ("decl", 0), after) if decl else (before,)
        out[cls] = (0, (*parts, ("body", 0)))
    return out


_LAYOUT = _layouts()
# The forms with no slot, printed in place of their slot.
_LEAF = {cls: parts[0] for cls, (_, parts) in _LAYOUT.items() if len(parts) == 1}


def pretty(x) -> str:
    """The text of a term, type, index expression, declaration, contextual
    typing or derivation."""
    if not isinstance(x, Node):
        if hasattr(x, "rule") and hasattr(x, "premises"):
            return format_derivation(x)
        raise TypeError(f"pretty: unexpected {x!r}")
    out: list[str] = []
    todo: list = [(x, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        x, level = item
        cls = type(x)
        if cls is CtxAnno:
            prec, parts = None, ["(", (x.body, 0), " :: ["]
            for k, t in enumerate(x.typings):
                parts += [" ; ", (t, 0)] if k else [(t, 0)]
            parts.append("])")
        elif cls is CtxIdx or cls is CtxVar:
            head = f"{x.var} : {x.sort}" if cls is CtxIdx else (x.decl, 0)
            sep = " " if type(x.body) is CtxGoal else ", "
            prec, parts = None, [head, sep, (x.body, 0)]
        elif cls in _LAYOUT:
            prec, layout = _LAYOUT[cls]
            values = x.__dict__
            parts = []
            for p in layout:
                if type(p) is str:
                    parts.append(p.format_map(values))
                    continue
                y = values[p[0]]
                leaf = _LEAF.get(type(y))
                parts.append(leaf.format_map(y.__dict__) if leaf else (y, p[1]))
        else:
            raise TypeError(f"pretty: unexpected {x!r}")
        if prec is not None and prec < level:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(out)


def _context(entries) -> str:
    return ", ".join(pretty(d) for d in entries) if entries else "."


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
        lines.append(f"prim {name} : {pretty(ty)}")
    goal = f" : {pretty(prog.goal)}" if prog.goal is not None else ""
    lines.append(f"val main{goal} = {pretty(prog.main)}")
    return "\n".join(lines) + "\n"


def format_derivation(d) -> str:
    """Indented rule tree for typing and subtyping derivations, in
    preorder.  A contextual annotation shows as its `ctx-anno` node over the
    derivation of the chosen typing's encoded branch."""
    lines: list[str] = []
    todo = [(d, 0)]
    while todo:
        d, depth = todo.pop()
        ctx = _context(d.ctx_entries)
        if hasattr(d, "mode"):  # typing node
            arrow = "<=" if d.mode == "check" else "=>"
            ty = pretty(d.ty) if d.ty is not None else "-"
            head = f"[{d.rule}] {ctx} |- {pretty(d.term)} {arrow} {ty}"
        else:  # subtyping node
            head = f"[{d.rule}] {ctx} |- {pretty(d.lhs)} <= {pretty(d.rhs)}"
        if getattr(d, "witness", None) is not None:
            head += f"   with {pretty(d.witness)}"
        lines.append("  " * depth + head)
        todo.extend((p, depth + 1) for p in reversed(d.premises))
    return "\n".join(lines)
