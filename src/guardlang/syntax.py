"""Abstract syntax for guardlang: types, terms, declarations, contexts.

Everything here is immutable (frozen dataclasses), so values can be shared
freely and used as dict keys.  Source spans are carried on every node but
excluded from equality and hashing: two terms are equal iff they are
structurally equal, regardless of where they were parsed.

Index variables are bound by `Pi` in types and by `some`/`idxfn` binders in
terms; term variables are bound only by `fn`.  Substitution is
capture-avoiding, with fresh names chosen deterministically from the set of
names to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Optional, Union


# ---------------------------------------------------------------------------
# Source positions


@dataclass(frozen=True)
class Span:
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


@dataclass(frozen=True)
class Node:
    span: Optional[Span] = field(
        default=None, compare=False, repr=False, kw_only=True
    )


# ---------------------------------------------------------------------------
# Index-level syntax


@dataclass(frozen=True)
class IndexSort:
    name: str

    def __str__(self) -> str:
        return self.name


INT = IndexSort("int")

SORTS = {"int": INT}


class IndexExpr(Node):
    pass


@dataclass(frozen=True)
class IVar(IndexExpr):
    name: str


@dataclass(frozen=True)
class ILit(IndexExpr):
    value: int


@dataclass(frozen=True)
class IAdd(IndexExpr):
    lhs: IndexExpr
    rhs: IndexExpr


@dataclass(frozen=True)
class ISub(IndexExpr):
    lhs: IndexExpr
    rhs: IndexExpr


@dataclass(frozen=True)
class IMul(IndexExpr):
    # The coefficient is a literal integer; the index language is linear.
    coeff: int
    factor: IndexExpr


@dataclass(frozen=True)
class IMeta(IndexExpr):
    """Checker-internal placeholder for an index expression to be solved."""

    uid: int


class IndexProp(Node):
    pass


@dataclass(frozen=True)
class Eq(IndexProp):
    lhs: IndexExpr
    rhs: IndexExpr


@dataclass(frozen=True)
class Le(IndexProp):
    lhs: IndexExpr
    rhs: IndexExpr


@dataclass(frozen=True)
class Lt(IndexProp):
    lhs: IndexExpr
    rhs: IndexExpr


# ---------------------------------------------------------------------------
# Types


class Type(Node):
    pass


@dataclass(frozen=True)
class TUnit(Type):
    pass


@dataclass(frozen=True)
class TAtom(Type):
    name: str


@dataclass(frozen=True)
class TArrow(Type):
    arg: Type
    res: Type


@dataclass(frozen=True)
class TSect(Type):
    lhs: Type
    rhs: Type


@dataclass(frozen=True)
class TCon(Type):
    con: str
    index: IndexExpr


@dataclass(frozen=True)
class TPi(Type):
    var: str
    sort: IndexSort
    body: Type


# ---------------------------------------------------------------------------
# Declarations and contextual typings


class Decl(Node):
    pass


@dataclass(frozen=True)
class VarDecl(Decl):
    name: str
    ty: Type


@dataclass(frozen=True)
class IdxDecl(Decl):
    name: str
    sort: IndexSort


@dataclass(frozen=True)
class CtxTyping(Node):
    """One `Gamma |- A` entry of a contextual annotation.

    IdxDecl entries bind their variable in the remaining entries and in the
    goal; VarDecl entries refer to program variables of the outer scope.
    """

    entries: tuple[Decl, ...]
    goal: Type


# ---------------------------------------------------------------------------
# Terms


class Term(Node):
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Unit(Term):
    pass


@dataclass(frozen=True)
class Lam(Term):
    var: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Anno(Term):
    """Right-hand annotation `(e : A)`."""

    body: Term
    ty: Type


@dataclass(frozen=True)
class Guard(Term):
    """Left-hand annotation `where d do e`: the context must support d."""

    decl: Decl
    body: Term


@dataclass(frozen=True)
class Merge(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Some(Term):
    """`some a : sort in e` binds a to an index chosen by the checker."""

    var: str
    sort: IndexSort
    body: Term


@dataclass(frozen=True)
class IdxLam(Term):
    """`idxfn a : sort => e`, the explicit introduction form for Pi types."""

    var: str
    sort: IndexSort
    body: Term


@dataclass(frozen=True)
class CtxAnno(Term):
    """Contextual annotation `(e :: [G1 |- A1 ; ... ; Gn |- An])`."""

    body: Term
    typings: tuple[CtxTyping, ...]


@dataclass(frozen=True)
class Prim(Term):
    """Reference to a primitive constant declared in the program header."""

    name: str


# ---------------------------------------------------------------------------
# Programs


class SignatureError(Exception):
    pass


class Signature:
    """Declared atoms (with their subsort order), indexed constructors and
    primitive constants of one program."""

    def __init__(
        self,
        atoms: Optional[dict[str, frozenset[str]]] = None,
        cons: Optional[dict[str, IndexSort]] = None,
        prims: Optional[dict[str, Type]] = None,
    ) -> None:
        self.atoms: dict[str, frozenset[str]] = dict(atoms or {})
        self.cons: dict[str, IndexSort] = dict(cons or {})
        self.prims: dict[str, Type] = dict(prims or {})
        self._closure: Optional[dict[str, frozenset[str]]] = None

    def declare_atom(self, name: str, supersort: Optional[str] = None) -> None:
        ups = set(self.atoms.get(name, frozenset()))
        if supersort is not None:
            if supersort not in self.atoms:
                self.atoms.setdefault(supersort, frozenset())
            ups.add(supersort)
        self.atoms[name] = frozenset(ups)
        self._closure = None

    def declare_con(self, name: str, sort: IndexSort) -> None:
        self.cons[name] = sort
        self._closure = None

    def declare_prim(self, name: str, ty: Type) -> None:
        self.prims[name] = ty

    def _closed(self) -> dict[str, frozenset[str]]:
        # Reflexive-transitive closure of the declared edges; rejects cycles
        # so the declared relation is a partial order.
        if self._closure is not None:
            return self._closure
        closure: dict[str, frozenset[str]] = {}
        visiting: set[str] = set()

        def walk(name: str) -> frozenset[str]:
            if name in closure:
                return closure[name]
            if name in visiting:
                raise SignatureError(f"datasort cycle through '{name}'")
            visiting.add(name)
            ups: set[str] = set()
            for parent in self.atoms.get(name, frozenset()):
                ups.add(parent)
                ups |= walk(parent)
            visiting.discard(name)
            closure[name] = frozenset(ups)
            return closure[name]

        for name in self.atoms:
            walk(name)
        self._closure = closure
        return closure

    def validate(self) -> None:
        self._closed()

    def atom_le(self, sub: str, sup: str) -> bool:
        if sub == sup:
            return True
        return sup in self._closed().get(sub, frozenset())


@dataclass
class Program:
    sig: Signature
    main: Term
    goal: Optional[Type] = None
    path: str = "<input>"


# ---------------------------------------------------------------------------
# Metavariable store


class MetaInfo:
    __slots__ = ("sort", "scope", "solution")

    def __init__(self, sort: IndexSort, scope: frozenset[str]) -> None:
        self.sort = sort
        self.scope = scope
        self.solution: Optional[IndexExpr] = None


class MetaStore:
    """Run-local store of index metavariables.

    Solutions are recorded on a trail so that backtracking search can undo
    them; `mark`/`undo` bracket every choice point.  The `stamp` increases on
    every assignment and every undo, so equal stamps imply identical states.
    """

    def __init__(self) -> None:
        self._info: dict[int, MetaInfo] = {}
        self._trail: list[int] = []
        self._next = 1
        self.stamp = 0

    def fresh(self, sort: IndexSort, scope: frozenset[str]) -> IMeta:
        uid = self._next
        self._next += 1
        self._info[uid] = MetaInfo(sort, scope)
        return IMeta(uid)

    def __contains__(self, uid: int) -> bool:
        return uid in self._info

    def sort_of(self, uid: int) -> IndexSort:
        return self._info[uid].sort

    def scope_of(self, uid: int) -> frozenset[str]:
        return self._info[uid].scope

    def solution(self, uid: int) -> Optional[IndexExpr]:
        return self._info[uid].solution

    def assign(self, uid: int, expr: IndexExpr) -> None:
        info = self._info[uid]
        assert info.solution is None, f"metavariable ?{uid} already solved"
        info.solution = expr
        self._trail.append(uid)
        self.stamp += 1

    def any_solved(self) -> bool:
        return bool(self._trail)

    def any_created(self) -> bool:
        return self._next > 1

    def mark(self) -> int:
        return len(self._trail)

    def undo(self, mark: int) -> None:
        while len(self._trail) > mark:
            uid = self._trail.pop()
            self._info[uid].solution = None
            self.stamp += 1


# ---------------------------------------------------------------------------
# Typing contexts


class Context:
    """Ordered sequence of declarations, plus the run's metavariable store.

    Program-variable names are unique (callers alpha-rename before extending);
    index-variable shadowing is likewise resolved by the caller renaming the
    newly bound variable.
    """

    __slots__ = ("sig", "entries", "metas")

    def __init__(
        self,
        sig: Signature,
        entries: tuple[Decl, ...] = (),
        metas: Optional[MetaStore] = None,
    ) -> None:
        self.sig = sig
        self.entries = entries
        self.metas = metas

    def extend(self, decl: Decl) -> Context:
        if isinstance(decl, VarDecl) and decl.name in self.term_vars():
            raise ValueError(f"duplicate program variable '{decl.name}'")
        if isinstance(decl, IdxDecl) and decl.name in self.index_vars():
            raise ValueError(f"duplicate index variable '{decl.name}'")
        return Context(self.sig, self.entries + (decl,), self.metas)

    def lookup_var(self, name: str) -> Optional[Type]:
        for d in self.entries:
            if isinstance(d, VarDecl) and d.name == name:
                return d.ty
        return None

    def lookup_index(self, name: str) -> Optional[IndexSort]:
        for d in self.entries:
            if isinstance(d, IdxDecl) and d.name == name:
                return d.sort
        return None

    def term_vars(self) -> frozenset[str]:
        return frozenset(
            d.name for d in self.entries if isinstance(d, VarDecl)
        )

    def index_vars(self) -> frozenset[str]:
        return frozenset(
            d.name for d in self.entries if isinstance(d, IdxDecl)
        )

    def key(self) -> tuple[Decl, ...]:
        return self.entries

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{d.name}:{d.ty}" if isinstance(d, VarDecl) else f"{d.name}:{d.sort}"
            for d in self.entries
        )
        return f"Context({inner})"


# ---------------------------------------------------------------------------
# Fresh names


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    if base not in avoid:
        return base
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


# ---------------------------------------------------------------------------
# Free variables

Syntax = Union[IndexExpr, IndexProp, Type, Term, Decl, CtxTyping]


def free_index_vars(x: Syntax) -> frozenset[str]:
    match x:
        case IVar(name):
            return frozenset({name})
        case ILit(_) | IMeta(_):
            return frozenset()
        case IAdd(l, r) | ISub(l, r) | Eq(l, r) | Le(l, r) | Lt(l, r):
            return free_index_vars(l) | free_index_vars(r)
        case IMul(_, f):
            return free_index_vars(f)
        case TUnit() | TAtom(_):
            return frozenset()
        case TArrow(a, b) | TSect(a, b):
            return free_index_vars(a) | free_index_vars(b)
        case TCon(_, i):
            return free_index_vars(i)
        case TPi(a, _, body):
            return free_index_vars(body) - {a}
        case VarDecl(_, ty):
            return free_index_vars(ty)
        case IdxDecl(name, _):
            # As a guard subject the declared name is a reference, not a
            # binder; CtxTyping handles its own binding structure below.
            return frozenset({name})
        case CtxTyping(entries, goal):
            acc = free_index_vars(goal)
            for d in reversed(entries):
                if isinstance(d, IdxDecl):
                    acc = acc - {d.name}
                else:
                    acc = acc | free_index_vars(d)
            return acc
        case Var(_) | Unit() | Prim(_):
            return frozenset()
        case Lam(_, body):
            return free_index_vars(body)
        case App(f, a):
            return free_index_vars(f) | free_index_vars(a)
        case Anno(body, ty):
            return free_index_vars(body) | free_index_vars(ty)
        case Guard(decl, body):
            return free_index_vars(decl) | free_index_vars(body)
        case Merge(l, r):
            return free_index_vars(l) | free_index_vars(r)
        case Some(a, _, body) | IdxLam(a, _, body):
            return free_index_vars(body) - {a}
        case CtxAnno(body, typings):
            acc = free_index_vars(body)
            for t in typings:
                acc |= free_index_vars(t)
            return acc
    raise TypeError(f"free_index_vars: unexpected {x!r}")


def free_term_vars(e: Term) -> frozenset[str]:
    match e:
        case Var(name):
            return frozenset({name})
        case Unit() | Prim(_):
            return frozenset()
        case Lam(x, body):
            return free_term_vars(body) - {x}
        case App(f, a):
            return free_term_vars(f) | free_term_vars(a)
        case Anno(body, _):
            return free_term_vars(body)
        case Guard(decl, body):
            subject = frozenset({decl.name}) if isinstance(decl, VarDecl) else frozenset()
            return subject | free_term_vars(body)
        case Merge(l, r):
            return free_term_vars(l) | free_term_vars(r)
        case Some(_, _, body) | IdxLam(_, _, body):
            return free_term_vars(body)
        case CtxAnno(body, typings):
            acc = free_term_vars(body)
            for t in typings:
                for d in t.entries:
                    if isinstance(d, VarDecl):
                        acc |= {d.name}
            return acc
    raise TypeError(f"free_term_vars: unexpected {e!r}")


def metas_of(x: Syntax) -> frozenset[int]:
    """Uids of all metavariables occurring in x."""
    acc: set[int] = set()

    def walk(y: Syntax) -> None:
        match y:
            case IMeta(uid):
                acc.add(uid)
            case IVar(_) | ILit(_) | TUnit() | TAtom(_) | Var(_) | Unit() | Prim(_):
                pass
            case IAdd(l, r) | ISub(l, r) | Eq(l, r) | Le(l, r) | Lt(l, r):
                walk(l)
                walk(r)
            case IMul(_, f):
                walk(f)
            case TArrow(a, b) | TSect(a, b):
                walk(a)
                walk(b)
            case TCon(_, i):
                walk(i)
            case TPi(_, _, body):
                walk(body)
            case VarDecl(_, ty):
                walk(ty)
            case IdxDecl(_, _):
                pass
            case CtxTyping(entries, goal):
                for d in entries:
                    walk(d)
                walk(goal)
            case Lam(_, body):
                walk(body)
            case App(f, a):
                walk(f)
                walk(a)
            case Anno(body, ty):
                walk(body)
                walk(ty)
            case Guard(decl, body):
                walk(decl)
                walk(body)
            case Merge(l, r):
                walk(l)
                walk(r)
            case Some(_, _, body) | IdxLam(_, _, body):
                walk(body)
            case CtxAnno(body, typings):
                walk(body)
                for t in typings:
                    walk(t)
            case _:
                raise TypeError(f"metas_of: unexpected {y!r}")

    walk(x)
    return frozenset(acc)


# ---------------------------------------------------------------------------
# Substitution of index expressions


def subst_index_in_index(repl: IndexExpr, var: str, i: IndexExpr) -> IndexExpr:
    match i:
        case IVar(name):
            return repl if name == var else i
        case ILit(_) | IMeta(_):
            return i
        case IAdd(l, r):
            return IAdd(
                subst_index_in_index(repl, var, l),
                subst_index_in_index(repl, var, r),
                span=i.span,
            )
        case ISub(l, r):
            return ISub(
                subst_index_in_index(repl, var, l),
                subst_index_in_index(repl, var, r),
                span=i.span,
            )
        case IMul(c, f):
            return IMul(c, subst_index_in_index(repl, var, f), span=i.span)
    raise TypeError(f"subst_index_in_index: unexpected {i!r}")


def subst_index_in_type(repl: IndexExpr, var: str, ty: Type) -> Type:
    match ty:
        case TUnit() | TAtom(_):
            return ty
        case TArrow(a, b):
            return TArrow(
                subst_index_in_type(repl, var, a),
                subst_index_in_type(repl, var, b),
                span=ty.span,
            )
        case TSect(a, b):
            return TSect(
                subst_index_in_type(repl, var, a),
                subst_index_in_type(repl, var, b),
                span=ty.span,
            )
        case TCon(c, i):
            return TCon(c, subst_index_in_index(repl, var, i), span=ty.span)
        case TPi(a, sort, body):
            if a == var:
                return ty
            if a in free_index_vars(repl):
                a2 = fresh_name(
                    a, free_index_vars(repl) | free_index_vars(body) | {var}
                )
                body = subst_index_in_type(IVar(a2), a, body)
                return TPi(a2, sort, subst_index_in_type(repl, var, body), span=ty.span)
            return TPi(a, sort, subst_index_in_type(repl, var, body), span=ty.span)
    raise TypeError(f"subst_index_in_type: unexpected {ty!r}")


def subst_index_in_prop(repl: IndexExpr, var: str, p: IndexProp) -> IndexProp:
    cls = type(p)
    return cls(
        subst_index_in_index(repl, var, p.lhs),
        subst_index_in_index(repl, var, p.rhs),
    )


def subst_index_in_ctx_typing(repl: IndexExpr, var: str, ct: CtxTyping) -> CtxTyping:
    out: list[Decl] = []
    entries = list(ct.entries)
    i = 0
    while i < len(entries):
        d = entries[i]
        if isinstance(d, VarDecl):
            out.append(VarDecl(d.name, subst_index_in_type(repl, var, d.ty), span=d.span))
            i += 1
            continue
        assert isinstance(d, IdxDecl)
        if d.name == var:
            # Shadowed from here on.
            out.extend(entries[i:])
            return CtxTyping(tuple(out), ct.goal, span=ct.span)
        if d.name in free_index_vars(repl):
            rest = CtxTyping(tuple(entries[i + 1 :]), ct.goal)
            avoid = (
                free_index_vars(repl)
                | free_index_vars(rest)
                | {var, d.name}
            )
            d2 = fresh_name(d.name, avoid)
            rest = subst_index_in_ctx_typing(IVar(d2), d.name, rest)
            entries = [IdxDecl(d2, d.sort, span=d.span)] + list(rest.entries)
            ct = CtxTyping(tuple(entries), rest.goal, span=ct.span)
            i = 0
            continue
        out.append(d)
        i += 1
    return CtxTyping(tuple(out), subst_index_in_type(repl, var, ct.goal), span=ct.span)


def subst_index_in_decl(repl: IndexExpr, var: str, d: Decl) -> Decl:
    if isinstance(d, VarDecl):
        return VarDecl(d.name, subst_index_in_type(repl, var, d.ty), span=d.span)
    return d


def subst_index_in_term(repl: IndexExpr, var: str, e: Term) -> Term:
    match e:
        case Var(_) | Unit() | Prim(_):
            return e
        case Lam(x, body):
            return Lam(x, subst_index_in_term(repl, var, body), span=e.span)
        case App(f, a):
            return App(
                subst_index_in_term(repl, var, f),
                subst_index_in_term(repl, var, a),
                span=e.span,
            )
        case Anno(body, ty):
            return Anno(
                subst_index_in_term(repl, var, body),
                subst_index_in_type(repl, var, ty),
                span=e.span,
            )
        case Guard(decl, body):
            if isinstance(decl, IdxDecl) and decl.name == var:
                # The guard names the substituted variable.  A variable
                # replacement renames the subject; any other index expression
                # discharges the guard (its well-sortedness is the
                # substituting rule's premise).
                if isinstance(repl, IVar):
                    decl2: Decl = IdxDecl(repl.name, decl.sort, span=decl.span)
                    return Guard(decl2, subst_index_in_term(repl, var, body), span=e.span)
                return subst_index_in_term(repl, var, body)
            return Guard(
                subst_index_in_decl(repl, var, decl),
                subst_index_in_term(repl, var, body),
                span=e.span,
            )
        case Merge(l, r):
            return Merge(
                subst_index_in_term(repl, var, l),
                subst_index_in_term(repl, var, r),
                span=e.span,
            )
        case Some(a, sort, body):
            if a == var:
                return e
            if a in free_index_vars(repl):
                a2 = fresh_name(a, free_index_vars(repl) | free_index_vars(body) | {var})
                body = subst_index_in_term(IVar(a2), a, body)
                return Some(a2, sort, subst_index_in_term(repl, var, body), span=e.span)
            return Some(a, sort, subst_index_in_term(repl, var, body), span=e.span)
        case IdxLam(a, sort, body):
            if a == var:
                return e
            if a in free_index_vars(repl):
                a2 = fresh_name(a, free_index_vars(repl) | free_index_vars(body) | {var})
                body = subst_index_in_term(IVar(a2), a, body)
                return IdxLam(a2, sort, subst_index_in_term(repl, var, body), span=e.span)
            return IdxLam(a, sort, subst_index_in_term(repl, var, body), span=e.span)
        case CtxAnno(body, typings):
            return CtxAnno(
                subst_index_in_term(repl, var, body),
                tuple(subst_index_in_ctx_typing(repl, var, t) for t in typings),
                span=e.span,
            )
    raise TypeError(f"subst_index_in_term: unexpected {e!r}")


# ---------------------------------------------------------------------------
# Substitution of terms for term variables (used by beta reduction and
# alpha renaming)


def subst_term_var(repl: Term, var: str, e: Term) -> Term:
    match e:
        case Var(name):
            return repl if name == var else e
        case Unit() | Prim(_):
            return e
        case Lam(x, body):
            if x == var:
                return e
            if x in free_term_vars(repl):
                x2 = fresh_name(x, free_term_vars(repl) | free_term_vars(body) | {var})
                body = subst_term_var(Var(x2), x, body)
                return Lam(x2, subst_term_var(repl, var, body), span=e.span)
            return Lam(x, subst_term_var(repl, var, body), span=e.span)
        case App(f, a):
            return App(
                subst_term_var(repl, var, f),
                subst_term_var(repl, var, a),
                span=e.span,
            )
        case Anno(body, ty):
            return Anno(subst_term_var(repl, var, body), ty, span=e.span)
        case Guard(decl, body):
            if isinstance(decl, VarDecl) and decl.name == var:
                # Guard subjects must stay variables: renamings rename the
                # subject, substituting a non-variable value discharges the
                # statically checked guard.
                if isinstance(repl, Var):
                    decl2 = VarDecl(repl.name, decl.ty, span=decl.span)
                    return Guard(decl2, subst_term_var(repl, var, body), span=e.span)
                return subst_term_var(repl, var, body)
            return Guard(decl, subst_term_var(repl, var, body), span=e.span)
        case Merge(l, r):
            return Merge(
                subst_term_var(repl, var, l),
                subst_term_var(repl, var, r),
                span=e.span,
            )
        case Some(a, sort, body):
            return Some(a, sort, subst_term_var(repl, var, body), span=e.span)
        case IdxLam(a, sort, body):
            return IdxLam(a, sort, subst_term_var(repl, var, body), span=e.span)
        case CtxAnno(body, typings):
            new_typings = []
            for t in typings:
                entries = []
                for d in t.entries:
                    if isinstance(d, VarDecl) and d.name == var:
                        if isinstance(repl, Var):
                            entries.append(VarDecl(repl.name, d.ty, span=d.span))
                        # else: entry discharged, same as guards
                    else:
                        entries.append(d)
                new_typings.append(CtxTyping(tuple(entries), t.goal, span=t.span))
            return CtxAnno(
                subst_term_var(repl, var, body), tuple(new_typings), span=e.span
            )
    raise TypeError(f"subst_term_var: unexpected {e!r}")


# ---------------------------------------------------------------------------
# Alpha equivalence


def alpha_eq(x: Syntax, y: Syntax) -> bool:
    """Equality up to consistent renaming of bound term and index variables.

    An object is equal to itself; `_aeq` cannot take that shortcut below
    the top, where the two sides' binder maps can differ."""
    return x is y or _aeq(x, y, {}, {}, {}, {}, 0)


def _aeq(
    x: Syntax,
    y: Syntax,
    tl: dict[str, int],
    tr: dict[str, int],
    il: dict[str, int],
    ir: dict[str, int],
    depth: int,
) -> bool:
    if type(x) is not type(y):
        return False
    match x, y:
        case IVar(a), IVar(b):
            if a in il or b in ir:
                return il.get(a) == ir.get(b) and il.get(a) is not None
            return a == b
        case ILit(a), ILit(b):
            return a == b
        case IMeta(a), IMeta(b):
            return a == b
        case (IAdd(l1, r1), IAdd(l2, r2)) | (ISub(l1, r1), ISub(l2, r2)):
            return _aeq(l1, l2, tl, tr, il, ir, depth) and _aeq(
                r1, r2, tl, tr, il, ir, depth
            )
        case IMul(c1, f1), IMul(c2, f2):
            return c1 == c2 and _aeq(f1, f2, tl, tr, il, ir, depth)
        case (Eq(l1, r1), Eq(l2, r2)) | (Le(l1, r1), Le(l2, r2)) | (
            Lt(l1, r1),
            Lt(l2, r2),
        ):
            return _aeq(l1, l2, tl, tr, il, ir, depth) and _aeq(
                r1, r2, tl, tr, il, ir, depth
            )
        case TUnit(), TUnit():
            return True
        case TAtom(a), TAtom(b):
            return a == b
        case (TArrow(a1, b1), TArrow(a2, b2)) | (TSect(a1, b1), TSect(a2, b2)):
            return _aeq(a1, a2, tl, tr, il, ir, depth) and _aeq(
                b1, b2, tl, tr, il, ir, depth
            )
        case TCon(c1, i1), TCon(c2, i2):
            return c1 == c2 and _aeq(i1, i2, tl, tr, il, ir, depth)
        case TPi(a, s1, b1), TPi(b, s2, b2):
            if s1 != s2:
                return False
            il2 = {**il, a: depth}
            ir2 = {**ir, b: depth}
            return _aeq(b1, b2, tl, tr, il2, ir2, depth + 1)
        case VarDecl(n1, t1), VarDecl(n2, t2):
            if n1 in tl or n2 in tr:
                if tl.get(n1) != tr.get(n2) or tl.get(n1) is None:
                    return False
            elif n1 != n2:
                return False
            return _aeq(t1, t2, tl, tr, il, ir, depth)
        case IdxDecl(n1, s1), IdxDecl(n2, s2):
            if s1 != s2:
                return False
            if n1 in il or n2 in ir:
                return il.get(n1) == ir.get(n2) and il.get(n1) is not None
            return n1 == n2
        case CtxTyping(e1, g1), CtxTyping(e2, g2):
            if len(e1) != len(e2):
                return False
            il2, ir2, d = dict(il), dict(ir), depth
            for d1, d2 in zip(e1, e2):
                if type(d1) is not type(d2):
                    return False
                if isinstance(d1, VarDecl):
                    if not _aeq(d1, d2, tl, tr, il2, ir2, d):
                        return False
                else:
                    assert isinstance(d2, IdxDecl)
                    if d1.sort != d2.sort:
                        return False
                    il2[d1.name] = d
                    ir2[d2.name] = d
                    d += 1
            return _aeq(g1, g2, tl, tr, il2, ir2, d)
        case Var(a), Var(b):
            if a in tl or b in tr:
                return tl.get(a) == tr.get(b) and tl.get(a) is not None
            return a == b
        case Unit(), Unit():
            return True
        case Prim(a), Prim(b):
            return a == b
        case Lam(x1, b1), Lam(x2, b2):
            tl2 = {**tl, x1: depth}
            tr2 = {**tr, x2: depth}
            return _aeq(b1, b2, tl2, tr2, il, ir, depth + 1)
        case App(f1, a1), App(f2, a2):
            return _aeq(f1, f2, tl, tr, il, ir, depth) and _aeq(
                a1, a2, tl, tr, il, ir, depth
            )
        case Anno(b1, t1), Anno(b2, t2):
            return _aeq(b1, b2, tl, tr, il, ir, depth) and _aeq(
                t1, t2, tl, tr, il, ir, depth
            )
        case Guard(d1, b1), Guard(d2, b2):
            if type(d1) is not type(d2):
                return False
            if not _aeq(d1, d2, tl, tr, il, ir, depth):
                return False
            return _aeq(b1, b2, tl, tr, il, ir, depth)
        case Merge(l1, r1), Merge(l2, r2):
            return _aeq(l1, l2, tl, tr, il, ir, depth) and _aeq(
                r1, r2, tl, tr, il, ir, depth
            )
        case (Some(a, s1, b1), Some(b, s2, b2)) | (
            IdxLam(a, s1, b1),
            IdxLam(b, s2, b2),
        ):
            if s1 != s2:
                return False
            il2 = {**il, a: depth}
            ir2 = {**ir, b: depth}
            return _aeq(b1, b2, tl, tr, il2, ir2, depth + 1)
        case CtxAnno(b1, t1), CtxAnno(b2, t2):
            if len(t1) != len(t2):
                return False
            if not _aeq(b1, b2, tl, tr, il, ir, depth):
                return False
            return all(
                _aeq(u, v, tl, tr, il, ir, depth) for u, v in zip(t1, t2)
            )
    return False


# ---------------------------------------------------------------------------
# Zonking: replacing solved metavariables by their solutions
#
# Zonking preserves identity: an object in which no metavariable is solved
# comes back as the same object, and only the path down to a solved one is
# rebuilt.  Derivations share their terms and types with the program and with
# each other, so that sharing survives zonking and replay can see that two
# sides are the same object.


# With nothing solved in the store every object is already zonked, so the
# search's frequent zonks of metavariable-free types cost nothing.
def zonk_index(store: MetaStore, i: IndexExpr) -> IndexExpr:
    return _zonk_index(store, i) if store.any_solved() else i


def zonk_type(store: MetaStore, ty: Type) -> Type:
    return _zonk_type(store, ty) if store.any_solved() else ty


def _zonk_index(store: MetaStore, i: IndexExpr) -> IndexExpr:
    match i:
        case IMeta(uid):
            sol = store.solution(uid) if uid in store else None
            return i if sol is None else _zonk_index(store, sol)
        case IVar(_) | ILit(_):
            return i
        case IAdd(l, r) | ISub(l, r):
            l2, r2 = _zonk_index(store, l), _zonk_index(store, r)
            return i if l2 is l and r2 is r else type(i)(l2, r2, span=i.span)
        case IMul(c, f):
            f2 = _zonk_index(store, f)
            return i if f2 is f else IMul(c, f2, span=i.span)
    raise TypeError(f"zonk_index: unexpected {i!r}")


def _zonk_type(store: MetaStore, ty: Type) -> Type:
    match ty:
        case TUnit() | TAtom(_):
            return ty
        case TArrow(a, b) | TSect(a, b):
            a2, b2 = _zonk_type(store, a), _zonk_type(store, b)
            return ty if a2 is a and b2 is b else type(ty)(a2, b2, span=ty.span)
        case TCon(c, i):
            i2 = _zonk_index(store, i)
            return ty if i2 is i else TCon(c, i2, span=ty.span)
        case TPi(a, s, body):
            body2 = _zonk_type(store, body)
            return ty if body2 is body else TPi(a, s, body2, span=ty.span)
    raise TypeError(f"zonk_type: unexpected {ty!r}")


def zonk_term(store: MetaStore, e: Term) -> Term:
    return Zonker(store).visit(e)


# Leaves of the syntax: names, numbers, sorts and absent fields.
_ATOMIC = (str, int, IndexSort, type(None))
# Per dataclass, the fields that take part in equality (spans do not).
_FIELDS: dict[type, tuple[str, ...]] = {}


class Zonker:
    """One zonking pass over syntax and over anything built from it out of
    frozen dataclasses and tuples, derivations included.

    Each distinct object is visited once: results are memoized on `id` for
    the life of the pass, and the memo keeps every visited object alive so
    that no id is reused meanwhile.  Drop the pass when done with it.  The
    uids of the metavariables left unsolved are collected in `unsolved` as
    the pass goes.
    """

    def __init__(self, store: MetaStore) -> None:
        self.store = store
        self.unsolved: set[int] = set()
        self._memo: dict[int, tuple[object, object]] = {}

    def visit(self, x):
        hit = self._memo.get(id(x))
        if hit is not None:
            return hit[1]
        # Atomic fields are skipped before the call, and plain loops are
        # used, not comprehensions or map: each derivation level then costs
        # two Python frames, which keeps deep chains inside the default
        # recursion limit.
        if isinstance(x, IMeta):
            sol = self.store.solution(x.uid) if x.uid in self.store else None
            if sol is None:
                self.unsolved.add(x.uid)
                out = x
            else:
                out = self.visit(sol)
        elif isinstance(x, tuple):
            items = None
            for k, old in enumerate(x):
                if isinstance(old, _ATOMIC):
                    continue
                new = self.visit(old)
                if new is not old:
                    if items is None:
                        items = list(x)
                    items[k] = new
            out = x if items is None else tuple(items)
        else:
            cls = type(x)
            names = _FIELDS.get(cls)
            if names is None:
                names = _FIELDS[cls] = tuple(f.name for f in fields(cls) if f.compare)
            changed = {}
            for name in names:
                old = getattr(x, name)
                if isinstance(old, _ATOMIC):
                    continue
                new = self.visit(old)
                if new is not old:
                    changed[name] = new
            out = replace(x, **changed) if changed else x
        self._memo[id(x)] = (x, out)
        return out


# ---------------------------------------------------------------------------
# Iteration helper used by tests and the desugarer


def term_children(e: Term) -> tuple[Term, ...]:
    match e:
        case Var(_) | Unit() | Prim(_):
            return ()
        case Lam(_, body) | Anno(body, _) | Guard(_, body):
            return (body,)
        case Some(_, _, body) | IdxLam(_, _, body) | CtxAnno(body, _):
            return (body,)
        case App(f, a):
            return (f, a)
        case Merge(l, r):
            return (l, r)
    raise TypeError(f"term_children: unexpected {e!r}")


def subterms(e: Term) -> Iterator[Term]:
    yield e
    for c in term_children(e):
        yield from subterms(c)
