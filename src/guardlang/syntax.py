"""Abstract syntax for guardlang: types, terms, declarations, contexts.

Everything here is immutable (frozen dataclasses, and spans are named
tuples), so values can be shared freely and used as dict keys.  Source spans
are carried on every node but excluded from equality and hashing: two terms
are equal iff they are structurally equal, regardless of where they were
parsed.

Each node class's constructor is generated from its fields (`_register`).
It computes two facts once, from the node's atomic fields and from what its
child nodes stored when they were built: the node's hash, and its
metavariable bit `_metas`, which is true for an `IMeta` and for a node with
a child whose bit is true.  Hashing a node then costs one Python frame that
reads a slot, whatever the node's size, and works at any depth; a memo key
holding a whole term, its type and its context hashes in time linear in the
number of context entries, not in the size of the term.  The bit lets
zonking and `meta_free` return ground syntax without walking it.  Equality
compares the stored hashes first and walks both trees with an explicit
stack.  The price is paid once per node built.  Copies and unpickled nodes
are rebuilt by the constructor, because string hashes differ between
processes.  A `record`, such as a derivation node, gets its constructor and
its bit the same way, and is never mutated after construction.

The binding structure is declared once, in `BINDERS` and `OCCURRENCES`,
and every traversal (children, free variables, substitution, renaming,
alpha-equivalence) is derived from it and from one field table:

- `Lam` binds a term variable; `TPi`, `Some`, `IdxLam` and `CtxIdx` each
  bind an index variable.  In all five the `var` field names the variable
  and `body` is its scope.  So the index sortings of a contextual typing
  bind in the later entries and in the goal.
- `Var`, `IVar` and declarations are occurrences, not binders: the
  declaration of a guard subject or of a contextual variable typing.

Substitution is capture-avoiding, with fresh names chosen deterministically
from the set of names to avoid.  A recursive traversal spends exactly one
Python frame per syntax level, with no helper, lambda or closure between
the levels, so that deep terms stay inside the default recursion limit.  A
new syntax form needs only its dataclass and, if it binds or names a
variable, an entry in `BINDERS` or `OCCURRENCES`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from operator import attrgetter
from typing import (
    Iterator, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints,
)


# ---------------------------------------------------------------------------
# Source positions


class Span(NamedTuple):
    # A tuple, so that building, hashing and comparing one runs in C.
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


# A syntax class is a frozen dataclass whose constructor `_register`
# generates, and whose equality and hash are Node's.
_syntax = dataclass(frozen=True, init=False, eq=False)


@_syntax
class Node:
    # The structural hash and the metavariable bit, set once by the
    # constructor that `_register` generates.
    __slots__ = ("_hash", "_metas")

    span: Optional[Span] = field(
        default=None, compare=False, repr=False, kw_only=True
    )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            cls = type(x)
            if cls is not type(y) or x._hash != y._hash:
                return False
            for name in _FIELDS[cls]:
                a, b = getattr(x, name), getattr(y, name)
                if a is b:
                    continue
                if type(a) is tuple:
                    if len(a) != len(b):
                        return False
                    stack.extend(zip(a, b))
                elif isinstance(a, Node):
                    stack.append((a, b))
                elif a != b:
                    return False
        return True

    def __reduce__(self):
        # Copies and unpickled nodes go through the constructor, which
        # hashes them afresh: string hashes differ between processes.
        cls = type(self)
        return _build, (cls, self.span, *[getattr(self, n) for n in _FIELDS[cls]])


def _build(cls: type, span: Optional[Span], *values) -> Node:
    return cls(*values, span=span)


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


@_syntax
class IVar(IndexExpr):
    name: str


@_syntax
class ILit(IndexExpr):
    value: int


@_syntax
class IAdd(IndexExpr):
    lhs: IndexExpr
    rhs: IndexExpr


@_syntax
class ISub(IndexExpr):
    lhs: IndexExpr
    rhs: IndexExpr


@_syntax
class IMul(IndexExpr):
    # The coefficient is a literal integer; the index language is linear.
    coeff: int
    factor: IndexExpr


@_syntax
class IMeta(IndexExpr):
    """Checker-internal placeholder for an index expression to be solved."""

    uid: int


@_syntax
class Eq(Node):
    """The index equation `lhs = rhs`."""

    lhs: IndexExpr
    rhs: IndexExpr


# ---------------------------------------------------------------------------
# Types


class Type(Node):
    pass


@_syntax
class TUnit(Type):
    pass


@_syntax
class TAtom(Type):
    name: str


@_syntax
class TArrow(Type):
    arg: Type
    res: Type


@_syntax
class TSect(Type):
    lhs: Type
    rhs: Type


@_syntax
class TCon(Type):
    con: str
    index: IndexExpr


@_syntax
class TPi(Type):
    var: str
    sort: IndexSort
    body: Type


# ---------------------------------------------------------------------------
# Declarations and contextual typings


class Decl(Node):
    pass


@_syntax
class VarDecl(Decl):
    name: str
    ty: Type


@_syntax
class IdxDecl(Decl):
    name: str
    sort: IndexSort


class CtxTyping(Node):
    """One `Gamma |- A` of a contextual annotation: a chain of one node per
    entry of Gamma, ending in the goal A.  Each node's span runs from its
    first token to the end of the typing."""


@_syntax
class CtxIdx(CtxTyping):
    """`a : sort, ...`: binds the index variable a in the rest, like `TPi`."""

    var: str
    sort: IndexSort
    body: CtxTyping


@_syntax
class CtxVar(CtxTyping):
    """`x : A, ...`: the context must give the program variable x a subtype
    of A.  Its declaration is an occurrence of x, as a guard subject is."""

    decl: VarDecl
    body: CtxTyping


@_syntax
class CtxGoal(CtxTyping):
    """`|- A`, the type the annotated term is checked against."""

    ty: Type


# ---------------------------------------------------------------------------
# Terms


class Term(Node):
    pass


@_syntax
class Var(Term):
    name: str


@_syntax
class Unit(Term):
    pass


@_syntax
class Lam(Term):
    var: str
    body: Term


@_syntax
class App(Term):
    fn: Term
    arg: Term


@_syntax
class Anno(Term):
    """Right-hand annotation `(e : A)`."""

    body: Term
    ty: Type


@_syntax
class Guard(Term):
    """Left-hand annotation `where d do e`: the context must support d."""

    decl: Decl
    body: Term


@_syntax
class Merge(Term):
    lhs: Term
    rhs: Term


@_syntax
class Some(Term):
    """`some a : sort in e` binds a to an index chosen by the checker."""

    var: str
    sort: IndexSort
    body: Term


@_syntax
class IdxLam(Term):
    """`idxfn a : sort => e`, the explicit introduction form for Pi types."""

    var: str
    sort: IndexSort
    body: Term


@_syntax
class CtxAnno(Term):
    """Contextual annotation `(e :: [G1 |- A1 ; ... ; Gn |- An])`."""

    body: Term
    typings: tuple[CtxTyping, ...]


@_syntax
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
        # The up-closures `atom_le` has found, until the next declaration.
        self._ups: dict[str, set[str]] = {}

    def declare_atom(self, name: str, supersort: Optional[str] = None) -> None:
        ups = set(self.atoms.get(name, frozenset()))
        if supersort is not None:
            if supersort not in self.atoms:
                self.atoms.setdefault(supersort, frozenset())
            ups.add(supersort)
        self.atoms[name] = frozenset(ups)
        self._ups.clear()

    def declare_con(self, name: str, sort: IndexSort) -> None:
        self.cons[name] = sort

    def declare_prim(self, name: str, ty: Type) -> None:
        self.prims[name] = ty

    def validate(self) -> None:
        """Reject a cycle of declared supersort edges, so that the subsort
        order is a partial order: a depth-first walk, on an explicit stack."""
        done: set[str] = set()
        for root in self.atoms:
            stack, path = [(root, iter(self.atoms[root]))], {root}
            while stack:
                name, ups = stack[-1]
                parent = next(ups, None)
                if parent is None:
                    stack.pop()
                    path.discard(name)
                    done.add(name)
                elif parent in path:
                    raise SignatureError(f"datasort cycle through '{parent}'")
                elif parent not in done:
                    path.add(parent)
                    stack.append((parent, iter(self.atoms.get(parent, ()))))

    def atom_le(self, sub: str, sup: str) -> bool:
        """Whether the declared supersort edges lead from sub to sup, or sub
        is sup.  sub's up-closure is found by a walk on an explicit stack,
        and kept: only the atoms asked about have one stored."""
        seen = self._ups.get(sub)
        if seen is None:
            seen, stack = {sub}, [sub]
            while stack:
                ups = self.atoms.get(stack.pop(), frozenset()) - seen
                seen |= ups
                stack.extend(ups)
            self._ups[sub] = seen
        return sup in seen


@dataclass
class Program:
    sig: Signature
    main: Term
    goal: Optional[Type] = None
    path: str = "<input>"


# ---------------------------------------------------------------------------
# Metavariable store


@dataclass(slots=True)
class MetaInfo:
    sort: IndexSort
    scope: frozenset[str]
    name: str  # the bound variable it stands for
    origin: Optional[Span]  # the syntax that instantiated it
    solution: Optional[IndexExpr] = None


class MetaStore:
    """Run-local store of index metavariables.

    Solutions are recorded on a trail so that backtracking search can undo
    them; `mark`/`undo` bracket every choice point.  The `stamp` increases on
    every assignment and every undo, so it tells whether a call touched the
    store, which decides what the search's memos keep.
    """

    def __init__(self) -> None:
        self._info: dict[int, MetaInfo] = {}
        self._trail: list[int] = []
        self._next = 1
        self.stamp = 0

    def fresh(
        self,
        sort: IndexSort,
        scope: frozenset[str],
        var: Optional[str] = None,
        origin: Optional[Span] = None,
    ) -> IMeta:
        uid = self._next
        self._next += 1
        self._info[uid] = MetaInfo(sort, scope, var or f"?{uid}", origin)
        return IMeta(uid)

    def describe(self, uids) -> str:
        """The metavariables `uids`, each named by its variable and origin,
        once per pair and in source order: so the text does not depend on
        how many times a search instantiated the same binder."""
        named = {(self._info[u].name, self._info[u].origin) for u in uids}
        return ", ".join(
            f"{name} at {o}" if o else name
            for name, o in sorted(named, key=lambda p: (
                p[1] is None, p[1] and (p[1].start_line, p[1].start_col), p[0]
            ))
        )

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
# Binding structure, declared once; every traversal below derives from it.

TERM = "term"
INDEX = "index"

# Binders: the `var` field names a variable of the namespace, bound in `body`.
BINDERS: dict[type, str] = {
    Lam: TERM, TPi: INDEX, Some: INDEX, IdxLam: INDEX, CtxIdx: INDEX
}
# Occurrences: the `name` field refers to a variable of the namespace.  A
# declaration occurs as the subject of a `Guard` or of a `CtxVar`.
OCCURRENCES: dict[type, str] = {
    Var: TERM,
    VarDecl: TERM,
    IVar: INDEX,
    IdxDecl: INDEX,
}
# The variable of each namespace, which a renaming substitutes.
_VARIABLE: dict[str, type] = {TERM: Var, INDEX: IVar}

Syntax = Union[IndexExpr, Type, Term, Decl, CtxTyping]

# Leaves of the syntax: names, numbers, sorts and absent fields.
_ATOMIC = (str, int, IndexSort, type(None))
# Per dataclass, the fields that take part in equality (spans do not).
_FIELDS: dict[type, tuple[str, ...]] = {}
# Per registered class, (position in _FIELDS, name) of each field that holds
# syntax or derivations: a node, one that may be absent, or a tuple of nodes.
_KIDS: dict[type, tuple[tuple[int, str], ...]] = {}
_bit = attrgetter("_metas")  # the metavariable bit of a node or a derivation


def _bit_of(name: str, hint) -> Optional[str]:
    """Source for the bit of the field `name` of type `hint`, or None."""
    optional = get_origin(hint) is Union  # Optional[X]
    hint = get_args(hint)[0] if optional else hint
    if hint in _ATOMIC:
        return None
    if hint is tuple or get_origin(hint) is tuple:
        return f"any(map(_bit, {name}))"
    return f"({name} is not None and {name}._metas)" if optional else f"{name}._metas"


def _register(cls: type) -> None:
    """Generate the constructor of cls, a syntax class or a `record`: it
    sets the bit `_metas`, true for an `IMeta`, else the `or` of the bits of
    the nodes the fields hold.  A frozen syntax node also stores its hash,
    reading a child node's stored hash, and sets its fields through
    `object.__setattr__`; a record's are plain assignments."""
    hints = get_type_hints(cls, localns={cls.__name__: cls})
    names = _FIELDS[cls] = tuple(f.name for f in fields(cls) if f.compare)
    bits = {n: _bit_of(n, hints[n]) for n in names}
    _KIDS[cls] = kids = tuple((k, n) for k, n in enumerate(names) if bits[n])
    bit = "True" if cls is IMeta else " or ".join(bits[n] for _, n in kids) or "False"
    env = {"cls": cls, "_bit": _bit}
    if issubclass(cls, Node):
        key = ", ".join(f"{n}._hash" if bits[n] == f"{n}._metas" else n for n in names)
        src = (
            f"def __init__(self, {''.join(n + ', ' for n in names)}*, span=None):\n"
            + "".join(f"    _set(self, {n!r}, {n})\n" for n in (*names, "span"))
            + f"    _set_hash(self, hash((cls, {key})))\n"
            + f"    _set_metas(self, {bit})\n"
        )
        env.update(_set=object.__setattr__, _set_hash=Node._hash.__set__,
                   _set_metas=Node._metas.__set__)
    else:
        src = (
            f"def __init__(self, {', '.join(names)}):\n"
            + "".join(f"    self.{n} = {n}\n" for n in names)
            + f"    self._metas = {bit}\n"
        )
        defaults = [f.default for f in fields(cls) if f.default is not MISSING]
        env["defaults"] = tuple(defaults)
    exec(src, env)
    cls.__init__ = env["__init__"]
    cls.__init__.__defaults__ = env.get("defaults")  # a record's, by position
    for sub in cls.__subclasses__():
        _register(sub)


def record(cls: type) -> type:
    """cls as a slotted dataclass, compared and hashed by its fields, built
    by `_register`.  A base of cls declares the `_metas` slot."""
    cls = dataclass(slots=True, init=False, unsafe_hash=True)(cls)
    _register(cls)
    return cls


_register(Node)


# ---------------------------------------------------------------------------
# Generic traversal
#
# A recursive walk spends one Python frame per syntax level and nothing
# more: no helper, lambda or closure runs between a node and its children.
# That keeps deep terms inside the default recursion limit.  Walks that only
# read (free variables, metavariables, subterms) use an explicit stack.


def children(x: Syntax) -> tuple[Syntax, ...]:
    """The syntax directly inside x, in field order, tuples flattened."""
    out: list = []
    for _, name in _KIDS[type(x)]:
        v = getattr(x, name)
        if type(v) is tuple:
            out.extend(v)
        else:
            out.append(v)
    return tuple(out)


class Rename(NamedTuple):
    """A `rewrite` hook's answer: rebuild the binder with `var`."""

    var: str
    state: object  # to walk the binder's children with


def rewrite(x: Syntax, hook, state) -> Syntax:
    """x rebuilt through `hook`, sharing every part that does not change.

    `hook(y, state)` runs on each node before its children.  It returns a
    node to put in y's place, which is not walked further, the state to walk
    y's children with, or, for a binder y, a `Rename` of its variable and
    that state.  A node none of whose children changed, and that is not
    renamed, comes back as the same object.
    """
    state = hook(x, state)
    if isinstance(state, Node):
        return state
    cls = type(x)
    values = None
    if type(state) is Rename:
        values = [getattr(x, n) for n in _FIELDS[cls]]
        values[_FIELDS[cls].index("var")], state = state
    for k, name in _KIDS[cls]:
        old = getattr(x, name)
        if type(old) is tuple:
            items = None
            for j, item in enumerate(old):
                new = rewrite(item, hook, state)
                if new is not item:
                    if items is None:
                        items = list(old)
                    items[j] = new
            new = old if items is None else tuple(items)
        else:
            new = rewrite(old, hook, state)
        if new is not old:
            if values is None:
                values = [getattr(x, n) for n in _FIELDS[cls]]
            values[k] = new
    return x if values is None else cls(*values, span=x.span)


def subterms(e: Term) -> Iterator[Term]:
    """e and every term inside it, in preorder."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(c for c in reversed(children(x)) if isinstance(c, Term))


# ---------------------------------------------------------------------------
# Free variables and metavariables


def free_vars(x: Syntax, ns: str) -> frozenset[str]:
    """Names of the variables of namespace `ns` that occur free in x."""
    out: set[str] = set()
    stack: list[tuple[Syntax, frozenset[str]]] = [(x, frozenset())]
    while stack:
        y, bound = stack.pop()
        cls = type(y)
        if OCCURRENCES.get(cls) == ns and y.name not in bound:
            out.add(y.name)
        if BINDERS.get(cls) == ns:
            bound = bound | {y.var}
        for z in children(y):
            stack.append((z, bound))
    return frozenset(out)


def meta_free(x) -> bool:
    """Whether x, a syntax object or a tuple of them, holds no metavariable:
    read from the bits its constructors set, without walking it."""
    if type(x) is tuple:
        return all(map(meta_free, x))
    return not x._metas


# ---------------------------------------------------------------------------
# Substitution


def subst(repl: Union[Term, IndexExpr], var: str, x: Syntax) -> Syntax:
    """x with `repl` for the free occurrences of the variable `var`, renaming
    the binders that would capture a variable of repl.

    The namespace is repl's kind: a term replaces a term variable, an index
    expression an index variable.  The subject of a guard or of a
    contextual variable typing named `var` is renamed when repl is a
    variable; otherwise it is discharged, the node dropped for its body.
    Renaming `var` to itself returns x, so that replay can compare by
    identity.  A metavariable is substituted by `instantiate`, which renames
    the binders its solution could be captured by.
    """
    ns = TERM if isinstance(repl, Term) else INDEX
    cls = type(repl)
    if cls is IVar or cls is Var:
        if repl.name == var:
            return x
        free = frozenset((repl.name,))
    else:
        free = free_vars(repl, ns)
    return rewrite(x, _subst_hook, ({var: (repl, free)}, ns))


def instantiate(
    store: MetaStore,
    scope: frozenset[str],
    var: str,
    sort: IndexSort,
    body: Syntax,
    origin: Optional[Span] = None,
) -> tuple[IMeta, Syntax]:
    """A fresh metavariable of `sort` and `scope`, and body (a Pi body, a
    term or the rest of a contextual typing) with it for the index variable
    `var`.  Its solution may name any variable of `scope` and is zonked in
    without renaming, so every binder of body named in `scope` is renamed
    here.  The metavariable records `var` and `origin`, the span of the
    instantiating syntax."""
    m = store.fresh(sort, scope, var, origin)
    return m, rewrite(body, _subst_hook, ({var: (m, scope)}, INDEX))


def _subst_hook(x, state):
    # The state is a simultaneous substitution, {variable: (replacement,
    # the names it may hold free)}, and its namespace.  A binder that would
    # capture one of those names is renamed in the same pass, as `bind_fresh`
    # would name it, and its body gets the renaming as one more entry: one
    # Python frame per binder, however long a run of renamed binders.
    subs, ns = state
    cls = type(x)
    if cls is Var or cls is IVar:
        return subs[x.name][0] if x.name in subs and OCCURRENCES[cls] is ns else x
    if ns is TERM and isinstance(x, (Type, IndexExpr, Decl)):
        return x  # types, indices and declarations hold no term variables
    if BINDERS.get(cls) is ns:
        v = x.var
        if v in subs:  # shadowed below
            if len(subs) == 1:
                return x
            subs = {k: s for k, s in subs.items() if k != v}
            state = subs, ns
        frees = [free for _, free in subs.values()]
        if any(v in free for free in frees):
            name = fresh_name(v, free_vars(x.body, ns).union(subs, *frees))
            new = (_VARIABLE[ns](name), frozenset((name,)))
            return Rename(name, ({**subs, v: new}, ns))
    elif cls is Guard or cls is CtxVar:
        d = x.decl
        hit = subs.get(d.name) if OCCURRENCES[type(d)] is ns else None
        if hit is not None:
            body = rewrite(x.body, _subst_hook, state)
            if type(hit[0]) is not _VARIABLE[ns]:
                return body
            return cls(replace(d, name=hit[0].name), body, span=x.span)
    return state


def bind_fresh(x: Syntax, avoid: frozenset[str]) -> Syntax:
    """Binder x with its variable renamed when `avoid` holds it, else x.

    The new name avoids `avoid` and the free variables of x's body."""
    if x.var not in avoid:
        return x
    ns = BINDERS[type(x)]
    name = fresh_name(x.var, avoid | free_vars(x.body, ns))
    return replace(x, var=name, body=subst(_VARIABLE[ns](name), x.var, x.body))


def spine(x: Syntax) -> list[Syntax]:
    """The leaves of x's right spine: a merge's branches, an intersection's
    conjuncts.  `a ,, b ,, c`, that is `a ,, (b ,, c)`, has three branches."""
    cls, out = type(x), []
    while type(x) is cls:
        out.append(x.lhs)
        x = x.rhs
    return out + [x]


def encode_typing(t: CtxTyping, subject: Term) -> Term:
    """The branch that encodes the contextual typing t of `subject`: a
    `some` binder per sorting and a guard per variable typing, in t's order,
    around `(subject : goal)`.  A sorting named like an index variable free
    in the subject is renamed rather than capture it.  Each node built has
    the span of the entry, or the goal, it encodes."""
    avoid = None
    entries = []
    while type(t) is not CtxGoal:
        if type(t) is CtxIdx:
            avoid = free_vars(subject, INDEX) if avoid is None else avoid
            t = bind_fresh(t, avoid)
        entries.append(t)
        t = t.body
    out: Term = Anno(subject, t.ty, span=t.span)
    for d in reversed(entries):
        if type(d) is CtxVar:
            out = Guard(d.decl, out, span=d.span)
        else:
            out = Some(d.var, d.sort, out, span=d.span)
    return out


# ---------------------------------------------------------------------------
# Alpha equivalence


def alpha_eq(x: Syntax, y: Syntax) -> bool:
    """Equality up to consistent renaming of bound term and index variables."""
    binders: dict = {}
    return _aeq(x, y, binders, binders, 0)


def _aeq(x, y, lmap: dict, rmap: dict, depth: int) -> bool:
    # Each side maps its bound variables, keyed (namespace, name), to the
    # depth of their binder.  While the two sides share one map they have
    # bound the same names, so there an object is equal to itself.
    if x is y and lmap is rmap:
        return True
    cls = type(x)
    if cls is not type(y):
        return False
    skip = None
    ns = OCCURRENCES.get(cls)
    if ns is not None:
        i, j = lmap.get((ns, x.name)), rmap.get((ns, y.name))
        if i != j or (i is None and x.name != y.name):
            return False
        skip = "name"
    elif cls in BINDERS:
        lmap, rmap = _bind(lmap, rmap, BINDERS[cls], x.var, y.var, depth)
        depth += 1
        skip = "var"
    for name in _FIELDS[cls]:
        a, b = getattr(x, name), getattr(y, name)
        if type(a) is tuple:
            if len(a) != len(b):
                return False
            for u, v in zip(a, b):
                if not _aeq(u, v, lmap, rmap, depth):
                    return False
        elif isinstance(a, _ATOMIC):
            if a != b and name != skip:
                return False
        elif not _aeq(a, b, lmap, rmap, depth):
            return False
    return True


def _bind(lmap, rmap, ns, a, b, depth):
    """The maps with a bound on the left and b on the right at `depth`: one
    shared map while the sides share one and bind the same name."""
    if lmap is rmap and a == b:
        shared = {**lmap, (ns, a): depth}
        return shared, shared
    return {**lmap, (ns, a): depth}, {**rmap, (ns, b): depth}


# ---------------------------------------------------------------------------
# Zonking: replacing solved metavariables by their solutions
#
# Zonking preserves identity: an object in which no metavariable is solved
# comes back as the same object, and only the path down to a solved one is
# rebuilt.  Derivations share their terms and types with the program and with
# each other, so that sharing survives zonking and replay can see that two
# sides are the same object.


def zonk(store: MetaStore, x):
    """x, syntax or a derivation, with the solved metavariables of `store`
    replaced, in one `Zonker` pass.  When x holds no metavariable, or nothing
    in the store is solved, x is already zonked and comes back without a walk."""
    return Zonker(store).visit(x) if x._metas and store.any_solved() else x


class Zonker:
    """One zonking pass over syntax, derivations and tuples of them.

    Syntax and derivations (slotted records, see `replay`) are never mutated
    after construction and carry the metavariable bit of their fields: one
    whose bit is false is returned as it is, without a walk, and a tuple
    that is empty or all ground is skipped before the call.  Each other
    distinct object is visited once: results are memoized on `id` for the
    life of the pass, and the memo keeps every visited object alive so that
    no id is reused meanwhile.  Drop the pass when done with it.  The uids of
    the metavariables left unsolved are collected in `unsolved` as it goes.
    """

    def __init__(self, store: MetaStore) -> None:
        self.store = store
        self.unsolved: set[int] = set()
        self._memo: dict[int, tuple[object, object]] = {}

    def visit(self, x):
        if not (any(map(_bit, x)) if type(x) is tuple else x._metas):
            return x
        hit = self._memo.get(id(x))
        if hit is not None:
            return hit[1]
        # Ground fields and items are skipped before the call, and plain
        # loops are used, not comprehensions: each derivation level then
        # costs two Python frames, which keeps deep chains inside the default
        # recursion limit.
        cls = type(x)
        if cls is IMeta:
            sol = self.store.solution(x.uid) if x.uid in self.store else None
            if sol is None:
                self.unsolved.add(x.uid)
                out = x
            else:
                out = self.visit(sol)
        elif cls is tuple:
            items = None
            for k, old in enumerate(x):
                if not old._metas:
                    continue
                new = self.visit(old)
                if new is not old:
                    if items is None:
                        items = list(x)
                    items[k] = new
            out = x if items is None else tuple(items)
        else:
            values = None
            for k, name in _KIDS[cls]:
                old = getattr(x, name)
                if not (any(map(_bit, old)) if type(old) is tuple
                        else old is not None and old._metas):
                    continue
                new = self.visit(old)
                if new is not old:
                    if values is None:
                        values = [getattr(x, n) for n in _FIELDS[cls]]
                    values[k] = new
            if values is None:
                out = x
            elif isinstance(x, Node):
                out = cls(*values, span=x.span)
            else:
                out = cls(*values)
        self._memo[id(x)] = (x, out)
        return out
