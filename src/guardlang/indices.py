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

from typing import Iterable, Optional, Union

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
)

# Keys of a linear form: ("v", name) for index variables, ("m", uid) for
# metavariables.  Tuples keep the two namespaces apart and order canonically.
Key = tuple[str, Union[str, int]]


class UnboundIndexVariable(Exception):
    def __init__(self, name: str) -> None:
        super().__init__(f"unbound index variable '{name}'")
        self.name = name


def _linear(
    i: IndexExpr, j: Optional[IndexExpr] = None, store: Optional[MetaStore] = None
) -> tuple[dict[Key, int], int]:
    """The coefficients, none of them zero, and the constant of `i - j` (of
    i alone without j), in one walk.  With a store, a solved metavariable
    reads as its solution."""
    coeffs: dict[Key, int] = {}
    const = 0
    stack = [(i, 1)] if j is None else [(j, -1), (i, 1)]
    while stack:
        x, k = stack.pop()
        cls = type(x)
        if cls is IVar:
            key: Key = ("v", x.name)
        elif cls is IMeta:
            sol = None if store is None else store.solution(x.uid)
            if sol is not None:
                stack.append((sol, k))
                continue
            key = ("m", x.uid)
        elif cls is ILit:
            const += k * x.value
            continue
        elif cls is IAdd or cls is ISub:
            stack.append((x.rhs, k if cls is IAdd else -k))
            stack.append((x.lhs, k))
            continue
        elif cls is IMul:
            stack.append((x.factor, k * x.coeff))
            continue
        else:
            raise TypeError(f"linear form: unexpected {x!r}")
        coeffs[key] = coeffs.get(key, 0) + k
    return {key: c for key, c in coeffs.items() if c}, const


def linear_to_expr(terms: Iterable[tuple[Key, int]], const: int) -> IndexExpr:
    """The index expression, in canonical shape, of the linear form with
    `terms`, (key, coefficient) pairs sorted by key, and `const`."""
    expr: Optional[IndexExpr] = None
    for key, coeff in terms:
        base: IndexExpr = IVar(key[1]) if key[0] == "v" else IMeta(key[1])
        part = base if coeff == 1 else IMul(coeff, base)
        expr = part if expr is None else IAdd(expr, part)
    if const != 0 or expr is None:
        lit = ILit(const)
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
    return _linear(i, j) == ({}, 0)


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
    coeffs, const = _linear(constraint.lhs, constraint.rhs)
    store = ctx.metas
    unsolved = [
        k for k in coeffs
        if k[0] == "m" and (store is None or store.solution(k[1]) is None)
    ]
    if len(unsolved) != 1:
        raise NoSolution(
            f"expected exactly one unsolved metavariable, found {len(unsolved)}"
        )
    return _solve(coeffs, const, unsolved[0], store)


def _solve(
    coeffs: dict[Key, int], const: int, mkey: Key, store: Optional[MetaStore]
) -> tuple[int, IndexExpr]:
    """Solve `coeffs . keys + const = 0`, a form of `_linear`, for the
    metavariable `mkey`: see `solve_meta`."""
    uid = mkey[1]
    c = coeffs.pop(mkey)
    # c * m + rest + const = 0  =>  m = -(rest + const) / c
    solved: dict[Key, int] = {}
    for k, v in sorted(coeffs.items()):
        if v % c != 0:
            raise NoSolution(
                f"coefficient {c} does not divide {v} symbolically"
            )
        solved[k] = -(v // c)
    if const % c != 0:
        raise NoSolution(
            f"coefficient {c} does not divide constant {const}"
        )
    if any(k[0] == "m" for k in solved):
        raise NoSolution("solution still mentions a metavariable")
    if store is not None:
        out = {k[1] for k in solved if k[0] == "v"} - store.scope_of(uid)
        if out:
            raise NoSolution(
                "solution mentions variables bound after the metavariable: "
                + ", ".join(sorted(str(v) for v in out))
            )
    return uid, linear_to_expr(solved.items(), -(const // c))


def match_indices(store: MetaStore, stats, i: IndexExpr, j: IndexExpr) -> bool:
    """Make the equation `i = j` of a search hold, in the current state of
    `store`.

    With one unsolved metavariable on the two sides, it is solved for and
    the solution recorded in the store; with none, the equation must be
    entailed, which counts one `stats.entailment_queries`.  Returns whether
    the equation holds.  Raises NoSolution when several metavariables are
    unsolved, or the one there is has no solution.  Both sides are read in
    one walk, solved metavariables through their solutions.
    """
    coeffs, const = _linear(i, j, store)
    unsolved = [k for k in coeffs if k[0] == "m"]
    if len(unsolved) > 1:
        raise NoSolution("index constraint with several unsolved metavariables")
    if unsolved:
        try:
            uid, solution = _solve(coeffs, const, unsolved[0], store)
        except NoSolution as ex:
            raise NoSolution(f"index constraint has no solution: {ex}") from None
        store.assign(uid, solution)
        return True
    stats.entailment_queries += 1
    return not coeffs and const == 0
