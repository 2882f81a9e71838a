"""Abstract syntax for guardlang: types, terms, declarations, contexts.

Everything here is immutable (frozen dataclasses), so values can be shared
freely and used as dict keys.  Source spans are carried on every node but
excluded from equality and hashing: two terms are equal iff they are
structurally equal, regardless of where they were parsed.

A node's hash is computed once, by its constructor, from its class, its
atomic fields and the hashes its child nodes stored when they were built.
Hashing a node then costs one Python frame that reads a slot, whatever the
node's size: it never descends into the children, so it takes no frame per
syntax level and works at any depth.  A memo key holding a whole term, its
type and its context hashes in time linear in the number of context
entries, not in the size of the term.  The price is paid once per node
built, hashed or not.  Copies and unpickled nodes are rebuilt by the
constructor, because string hashes differ between processes.

The binding structure is declared once, in `BINDERS` and `OCCURRENCES`,
and every traversal (children, free variables, substitution, renaming,
alpha-equivalence) is derived from it and from one field table:

- `Lam` binds a term variable; `TPi`, `Some` and `IdxLam` each bind an
  index variable.  In all four the `var` field names the variable and
  `body` is its scope.
- A `CtxTyping` is a telescope: each `IdxDecl` entry binds its variable in
  the later entries and in the goal.
- `Var`, `IVar`, guard subjects and the `VarDecl` entries of a contextual
  typing are occurrences, not binders.

Substitution is capture-avoiding, with fresh names chosen deterministically
from the set of names to avoid.  A recursive traversal spends exactly one
Python frame per syntax level, with no helper, lambda or closure between
the levels, so that deep terms stay inside the default recursion limit.  A
new syntax form needs only its dataclass and, if it binds or names a
variable, an entry in `BINDERS` or `OCCURRENCES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Iterator, Optional, Union, get_type_hints


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
    # The structural hash, set once by the constructor; see `__post_init__`.
    __slots__ = ("_hash",)

    span: Optional[Span] = field(
        default=None, compare=False, repr=False, kw_only=True
    )

    def __post_init__(self) -> None:
        # The children were built first and hold their hashes already, so
        # hashing a new node takes no recursion at any depth.
        _set_hash(self, hash(_HASH_KEY[type(self)](self)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Copies and unpickled nodes go through the constructor, which
        # hashes them afresh: string hashes differ between processes.
        cls = type(self)
        return _build, (cls, self.span, *[getattr(self, n) for n in _FIELDS[cls]])


def _build(cls: type, span: Optional[Span], *values) -> Node:
    return cls(*values, span=span)


_set_hash = Node._hash.__set__


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


@dataclass(frozen=True)
class Eq(Node):
    """The index equation `lhs = rhs`."""

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
BINDERS: dict[type, str] = {Lam: TERM, TPi: INDEX, Some: INDEX, IdxLam: INDEX}
# Occurrences: the `name` field refers to a variable of the namespace.  A
# declaration occurs as a guard subject or as an entry of a CtxTyping, whose
# IdxDecl entries are the one exception: they bind (see `_subst_telescope`).
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
# Per syntax class, (position in _FIELDS, name) of each field that holds
# syntax: a node, or a tuple of nodes.
_KIDS: dict[type, tuple[tuple[int, str], ...]] = {}
# Per syntax class, a function from a node to the value its hash is taken
# of: the class and the fields of _FIELDS, a field that holds one node read
# as that node's stored hash, without a call.
_HASH_KEY: dict[type, attrgetter] = {}


def _register(cls: type) -> None:
    hints = get_type_hints(cls)
    names = _FIELDS[cls] = tuple(f.name for f in fields(cls) if f.compare)
    _KIDS[cls] = tuple(
        (k, n) for k, n in enumerate(names) if hints[n] not in _ATOMIC
    )
    _HASH_KEY[cls] = attrgetter("__class__", *(
        f"{n}._hash" if isinstance(hints[n], type) and issubclass(hints[n], Node)
        else n
        for n in names
    ))
    if cls is not Node and "__hash__" in vars(cls):
        # The dataclass decorator's `__hash__` hashes every field on each
        # call; the cached one of Node takes its place.
        del cls.__hash__
    for sub in cls.__subclasses__():
        _register(sub)


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


def rewrite(x: Syntax, hook, state) -> Syntax:
    """x rebuilt through `hook`, sharing every part that does not change.

    `hook(y, state)` runs on each node before its children.  It returns a
    node to put in y's place, which is not walked further, or the state to
    walk y's children with.  A node none of whose children changed comes
    back as the same object.
    """
    state = hook(x, state)
    if isinstance(state, Node):
        return state
    cls = type(x)
    values = None
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
        if cls is CtxTyping and ns == INDEX:
            for d in y.entries:
                if type(d) is IdxDecl:
                    bound = bound | {d.name}
                else:
                    stack.append((d, bound))
            stack.append((y.goal, bound))
            continue
        if OCCURRENCES.get(cls) == ns and y.name not in bound:
            out.add(y.name)
        if BINDERS.get(cls) == ns:
            bound = bound | {y.var}
        for z in children(y):
            stack.append((z, bound))
    return frozenset(out)


def meta_free(x, known: dict[int, object]) -> bool:
    """Whether x, a syntax object or a tuple of them, holds no metavariable.

    `known` maps `id` to object for objects already known to hold none; the
    walk does not enter them.  When the answer is yes, every object the walk
    visited is added, so a later walk over a larger object that contains x
    stops at x.  The table keeps its objects alive, so no id is reused while
    it is in use.
    """
    seen = []
    stack = [x]
    while stack:
        y = stack.pop()
        if id(y) in known:
            continue
        if type(y) is IMeta:
            return False
        seen.append(y)
        stack.extend(y if type(y) is tuple else children(y))
    for y in seen:
        known[id(y)] = y
    return True


# ---------------------------------------------------------------------------
# Substitution


def subst(repl: Union[Term, IndexExpr], var: str, x: Syntax) -> Syntax:
    """x with `repl` for the free occurrences of the variable `var`, renaming
    the binders that would capture a variable of repl.

    The namespace is repl's kind: a term replaces a term variable, an index
    expression an index variable.  A guard subject or a contextual-typing
    entry named `var` is renamed when repl is a variable; otherwise it is
    discharged, the guard dropped for its body and the entry removed.
    Renaming `var` to itself returns x, so that replay can compare by
    identity.
    """
    ns = TERM if isinstance(repl, Term) else INDEX
    cls = type(repl)
    if cls is IVar or cls is Var:
        if repl.name == var:
            return x
        free = frozenset((repl.name,))
    elif cls is IMeta:
        free = frozenset()
    else:
        free = free_vars(repl, ns)
    return rewrite(x, _subst_hook, (repl, var, ns, free))


def _subst_hook(x, state):
    repl, var, ns, free = state
    cls = type(x)
    if cls is Var or cls is IVar:
        return repl if x.name == var and OCCURRENCES[cls] is ns else x
    if cls is CtxTyping:
        return _subst_telescope(x, state)
    if ns is TERM and not isinstance(x, Term):
        return x  # types and indices hold no term variables
    if BINDERS.get(cls) is ns:
        if x.var == var:
            return x
        if x.var in free:
            return rewrite(bind_fresh(x, free | {var}), _subst_hook, state)
    elif cls is Guard:
        d = x.decl
        if d.name == var and OCCURRENCES[type(d)] is ns:
            body = rewrite(x.body, _subst_hook, state)
            if type(repl) is not _VARIABLE[ns]:
                return body
            return Guard(replace(d, name=repl.name), body, span=x.span)
    return state


def _subst_telescope(t: CtxTyping, state) -> CtxTyping:
    """Substitution into a telescope: each IdxDecl entry binds its variable
    in the later entries and in the goal; VarDecl entries are occurrences."""
    repl, var, ns, free = state
    entries, goal = t.entries, t.goal
    out: list[Decl] = []
    k = 0
    while k < len(entries):
        d = entries[k]
        k += 1
        if ns is INDEX and type(d) is IdxDecl:
            if d.name == var:
                out.extend(entries[k - 1 :])
                break
            if d.name in free:
                rest = CtxTyping(entries[k:], goal)
                name = fresh_name(d.name, free | {var} | free_vars(rest, INDEX))
                rest = subst(IVar(name), d.name, rest)
                d = replace(d, name=name)
                entries, goal, k = rest.entries, rest.goal, 0
            out.append(d)
        elif ns is TERM and type(d) is VarDecl and d.name == var:
            if type(repl) is Var:
                out.append(replace(d, name=repl.name))
        else:
            out.append(rewrite(d, _subst_hook, state))
    else:
        goal = rewrite(goal, _subst_hook, state)
    if goal is t.goal and len(out) == len(t.entries) and all(
        a is b for a, b in zip(out, t.entries)
    ):
        return t
    return CtxTyping(tuple(out), goal, span=t.span)


def bind_fresh(x: Syntax, avoid: frozenset[str]) -> Syntax:
    """Binder x with its variable renamed when `avoid` holds it, else x.

    The new name avoids `avoid` and the free variables of x's body."""
    if x.var not in avoid:
        return x
    ns = BINDERS[type(x)]
    name = fresh_name(x.var, avoid | free_vars(x.body, ns))
    return replace(x, var=name, body=subst(_VARIABLE[ns](name), x.var, x.body))


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
    elif cls is CtxTyping:
        if len(x.entries) != len(y.entries):
            return False
        for d, e in zip(x.entries, y.entries):
            if type(d) is IdxDecl and type(e) is IdxDecl:
                if d.sort != e.sort:
                    return False
                lmap, rmap = _bind(lmap, rmap, INDEX, d.name, e.name, depth)
                depth += 1
            elif type(d) is IdxDecl or not _aeq(d, e, lmap, rmap, depth):
                return False
        return _aeq(x.goal, y.goal, lmap, rmap, depth)
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


# With nothing solved in the store every object is already zonked, so the
# search's frequent zonks of metavariable-free types cost nothing.
def zonk_index(store: MetaStore, i: IndexExpr) -> IndexExpr:
    return rewrite(i, _zonk_hook, store) if store.any_solved() else i


def zonk_type(store: MetaStore, ty: Type) -> Type:
    return rewrite(ty, _zonk_hook, store) if store.any_solved() else ty


def _zonk_hook(x, store: MetaStore):
    if type(x) is IMeta:
        sol = store.solution(x.uid) if x.uid in store else None
        return x if sol is None else rewrite(sol, _zonk_hook, store)
    return store


class Zonker:
    """One zonking pass over syntax and over anything built from it out of
    frozen dataclasses and tuples, derivations included.

    Each distinct object is visited once: results are memoized on `id` for
    the life of the pass, and the memo keeps every visited object alive so
    that no id is reused meanwhile.  Drop the pass when done with it.  The
    uids of the metavariables left unsolved are collected in `unsolved` as
    the pass goes.

    `known`, a table of objects known to hold no metavariable (see
    `meta_free`), is only read: the pass returns each of them unchanged
    without entering it.
    """

    def __init__(self, store: MetaStore, known: Optional[dict] = None) -> None:
        self.store = store
        self.unsolved: set[int] = set()
        self._memo: dict[int, tuple[object, object]] = {}
        self._known = {} if known is None else known

    def visit(self, x):
        hit = self._memo.get(id(x))
        if hit is not None:
            return hit[1]
        if id(x) in self._known:
            return x
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
