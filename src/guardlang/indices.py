"""The index constraint domain: linear integer expressions over `int`.

Provides sorting of index expressions under a context, entailment of index
equations, isolation of a single metavariable from an equation, and
`match_indices`, which does whichever of the two an equation of the search
calls for.

The checker only asks whether `i = j` holds for every assignment of the
index variables, with no hypotheses.  Two linear forms denote the same
function exactly when their canonical forms are equal, so entailment is a
comparison of normal forms: sound and complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .syntax import (
    Context,
    Eq,
    IAdd,
    ILit,
    IMeta,
    IMul,
    INT,
    ISub,
    IVar,
    IndexExpr,
    IndexSort,
    MetaStore,
    zonk_index,
)

# Keys of a linear form: ("v", name) for index variables, ("m", uid) for
# metavariables.  Tuples keep the two namespaces apart and order canonically.
Key = tuple[str, Union[str, int]]


class UnboundIndexVariable(Exception):
    def __init__(self, name: str) -> None:
        super().__init__(f"unbound index variable '{name}'")
        self.name = name


@dataclass(frozen=True)
class LinearForm:
    """Canonical sum of coefficient * variable plus a constant.

    Terms are sorted by key and never carry zero coefficients, so two forms
    denote the same function iff they are equal.
    """

    terms: tuple[tuple[Key, int], ...]
    const: int

    @staticmethod
    def from_dict(coeffs: dict[Key, int], const: int) -> LinearForm:
        items = tuple(sorted((k, c) for k, c in coeffs.items() if c != 0))
        return LinearForm(items, const)

    def coeffs(self) -> dict[Key, int]:
        return dict(self.terms)

    def add(self, other: LinearForm) -> LinearForm:
        acc = self.coeffs()
        for k, c in other.terms:
            acc[k] = acc.get(k, 0) + c
        return LinearForm.from_dict(acc, self.const + other.const)

    def scale(self, factor: int) -> LinearForm:
        if factor == 0:
            return LinearForm((), 0)
        return LinearForm(
            tuple((k, c * factor) for k, c in self.terms), self.const * factor
        )

    def sub(self, other: LinearForm) -> LinearForm:
        return self.add(other.scale(-1))

    def keys(self) -> frozenset[Key]:
        return frozenset(k for k, _ in self.terms)


def normalize(i: IndexExpr) -> LinearForm:
    """Semantics-preserving canonical form of a linear index expression."""
    match i:
        case IVar(name):
            return LinearForm.from_dict({("v", name): 1}, 0)
        case IMeta(uid):
            return LinearForm.from_dict({("m", uid): 1}, 0)
        case ILit(value):
            return LinearForm((), value)
        case IAdd(l, r):
            return normalize(l).add(normalize(r))
        case ISub(l, r):
            return normalize(l).sub(normalize(r))
        case IMul(c, f):
            return normalize(f).scale(c)
    raise TypeError(f"normalize: unexpected {i!r}")


def linear_to_expr(lf: LinearForm) -> IndexExpr:
    """Rebuild an index expression from a linear form (canonical shape)."""
    expr: Optional[IndexExpr] = None
    for key, coeff in lf.terms:
        base: IndexExpr = IVar(key[1]) if key[0] == "v" else IMeta(key[1])
        part = base if coeff == 1 else IMul(coeff, base)
        expr = part if expr is None else IAdd(expr, part)
    if lf.const != 0 or expr is None:
        lit = ILit(lf.const)
        expr = lit if expr is None else IAdd(expr, lit)
    return expr


def eval_index(i: IndexExpr, env: dict[str, int]) -> int:
    """Evaluate a metavariable-free index expression under an assignment."""
    match i:
        case IVar(name):
            return env[name]
        case ILit(value):
            return value
        case IAdd(l, r):
            return eval_index(l, env) + eval_index(r, env)
        case ISub(l, r):
            return eval_index(l, env) - eval_index(r, env)
        case IMul(c, f):
            return c * eval_index(f, env)
        case IMeta(uid):
            raise ValueError(f"eval_index: unsolved metavariable ?{uid}")
    raise TypeError(f"eval_index: unexpected {i!r}")


def sort_of(ctx: Context, i: IndexExpr) -> IndexSort:
    """Sort of an index expression; every variable must be declared in ctx."""
    match i:
        case IVar(name):
            sort = ctx.lookup_index(name)
            if sort is None:
                raise UnboundIndexVariable(name)
            return sort
        case IMeta(uid):
            if ctx.metas is None or uid not in ctx.metas:
                raise UnboundIndexVariable(f"?{uid}")
            return ctx.metas.sort_of(uid)
        case ILit(_):
            return INT
        case IAdd(l, r) | ISub(l, r):
            sort_of(ctx, l)
            sort_of(ctx, r)
            return INT
        case IMul(_, f):
            sort_of(ctx, f)
            return INT
    raise TypeError(f"sort_of: unexpected {i!r}")


# ---------------------------------------------------------------------------
# Entailment


def entails(i: IndexExpr, j: IndexExpr) -> bool:
    """Does `i = j` hold for every assignment of its variables?"""
    return normalize(i) == normalize(j)


# ---------------------------------------------------------------------------
# Metavariable solving


class NoSolution(Exception):
    pass


def solve_meta(ctx: Context, constraint: Eq) -> tuple[int, IndexExpr]:
    """Isolate the single unsolved metavariable of an equality constraint.

    Returns (uid, solution).  The solution exists when the metavariable's
    coefficient divides every other coefficient and the constant, and it must
    mention only index variables that were in scope when the metavariable was
    introduced.  Raises NoSolution otherwise.
    """
    lf = normalize(constraint.lhs).sub(normalize(constraint.rhs))
    store = ctx.metas
    meta_keys = [
        k
        for k in lf.keys()
        if k[0] == "m"
        and (store is None or store.solution(k[1]) is None)
    ]
    if len(meta_keys) != 1:
        raise NoSolution(
            f"expected exactly one unsolved metavariable, found {len(meta_keys)}"
        )
    mkey = meta_keys[0]
    uid = mkey[1]
    assert isinstance(uid, int)
    coeffs = lf.coeffs()
    c = coeffs.pop(mkey)
    # c * m + rest + const = 0  =>  m = -(rest + const) / c
    solved: dict[Key, int] = {}
    for k, v in coeffs.items():
        if v % c != 0:
            raise NoSolution(
                f"coefficient {c} does not divide {v} symbolically"
            )
        solved[k] = -(v // c)
    if lf.const % c != 0:
        raise NoSolution(
            f"coefficient {c} does not divide constant {lf.const}"
        )
    const = -(lf.const // c)
    solution_lf = LinearForm.from_dict(solved, const)
    if any(k[0] == "m" for k in solution_lf.keys()):
        raise NoSolution("solution still mentions a metavariable")
    if store is not None:
        scope = store.scope_of(uid)
        out = {k[1] for k in solution_lf.keys() if k[0] == "v"} - scope
        if out:
            raise NoSolution(
                "solution mentions variables bound after the metavariable: "
                + ", ".join(sorted(str(v) for v in out))
            )
    return uid, linear_to_expr(solution_lf)


def match_indices(
    ctx: Context, store: MetaStore, stats, i: IndexExpr, j: IndexExpr
) -> bool:
    """Make the equation `i = j` of a search hold, in the current state of
    `store`.

    With one unsolved metavariable on the two sides, it is solved for and
    the solution recorded in the store; with none, the equation must be
    entailed, which counts one `stats.entailment_queries`.  Returns whether
    the equation holds.  Raises NoSolution when several metavariables are
    unsolved, or the one there is has no solution.
    """
    i = zonk_index(store, i)
    j = zonk_index(store, j)
    unsolved = [
        k
        for k in normalize(i).sub(normalize(j)).keys()
        if k[0] == "m" and store.solution(k[1]) is None
    ]
    if len(unsolved) > 1:
        raise NoSolution("index constraint with several unsolved metavariables")
    if unsolved:
        try:
            uid, solution = solve_meta(ctx, Eq(i, j))
        except NoSolution as ex:
            raise NoSolution(f"index constraint has no solution: {ex}") from None
        store.assign(uid, solution)
        return True
    stats.entailment_queries += 1
    return entails(i, j)
