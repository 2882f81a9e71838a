"""Shared test machinery: independent oracles, random generators, and the
derivation walker used for mechanical re-annotation.

The oracles deliberately re-derive results by brute force (exhaustive
enumeration, naive substitution after global renaming, depth-bounded rule
search) so they stay independent of the code paths they check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from guardlang.indices import eval_index
from guardlang.parser import parse_program
from guardlang.syntax import (
    Anno,
    App,
    CtxAnno,
    CtxGoal,
    CtxIdx,
    CtxVar,
    Eq,
    Guard,
    IAdd,
    ILit,
    IMul,
    ISub,
    IVar,
    IdxDecl,
    IdxLam,
    IndexExpr,
    INDEX,
    INT,
    Lam,
    Merge,
    Prim,
    Program,
    Signature,
    Some,
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
    free_vars,
    fresh_name,
    spine,
    subst,
)
from guardlang.typecheck import TypingDerivation


# ---------------------------------------------------------------------------
# Standard signatures and programs


def parity_sig() -> Signature:
    sig = Signature()
    sig.declare_atom("odd", "bits")
    sig.declare_atom("even", "bits")
    sig.declare_prim(
        "snoc1",
        TSect(
            TArrow(TAtom("odd"), TAtom("even")),
            TArrow(TAtom("even"), TAtom("odd")),
        ),
    )
    return sig


def indexed_sig() -> Signature:
    sig = parity_sig()
    sig.declare_con("list", INT)
    sig.declare_prim(
        "idcast",
        TPi("c", INT, TArrow(TCon("list", IVar("c")), TCon("list", IVar("c")))),
    )
    sig.declare_prim("b1", TAtom("odd"))
    return sig


def load_program(path: str) -> Program:
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read(), path)


# Accepted from --max-depth 18, where its encoding is out of budget: typing
# 1's sorting is determined by the subject only, and its branch fails.
ENCODED_COSTS_MORE = (
    "indexcon list :: int\n"
    "prim idcast : Pi c : int . list(c) -> list(c)\n"
    "val main : list(3) -> list(3) =\n"
    "  (fn x => idcast x :: [a : int |- (list(a) -> list(a)) /\\ unit ;"
    " |- list(3) -> list(3)])\n"
)


# The sorting a is determined by the goal only: the encoding is accepted,
# the contextual rule, a synthesis rule, rejects.
GOAL_ONLY = (
    "indexcon list :: int\n"
    "val main : list(3) -> list(3) = ((fn x => x) :: [a : int |- list(a) -> list(a)])\n"
)


def ctx_typing(entries, goal: Type):
    """The chain of the contextual typing `entries |- goal`: a `CtxIdx` per
    IdxDecl entry and a `CtxVar` per VarDecl entry, ending in a `CtxGoal`."""
    t = CtxGoal(goal)
    for d in reversed(entries):
        t = CtxVar(d, t) if type(d) is VarDecl else CtxIdx(d.name, d.sort, t)
    return t


# ---------------------------------------------------------------------------
# Oracle: naive substitution after globally freshening every binder


def rename_all_binders(ty: Type, counter: Optional[itertools.count] = None) -> Type:
    if counter is None:
        counter = itertools.count(1)
    match ty:
        case TUnit() | TAtom(_) | TCon(_, _):
            return ty
        case TArrow(a, b):
            return TArrow(
                rename_all_binders(a, counter), rename_all_binders(b, counter)
            )
        case TSect(a, b):
            return TSect(
                rename_all_binders(a, counter), rename_all_binders(b, counter)
            )
        case TPi(a, s, body):
            fresh = f"_r{next(counter)}"
            body = naive_subst(IVar(fresh), a, body)
            return TPi(fresh, s, rename_all_binders(body, counter))
    raise TypeError(ty)


def naive_subst(repl: IndexExpr, var: str, ty: Type) -> Type:
    """Substitution with no capture avoidance whatsoever."""

    def in_index(i: IndexExpr) -> IndexExpr:
        match i:
            case IVar(name):
                return repl if name == var else i
            case ILit(_):
                return i
            case IAdd(l, r):
                return IAdd(in_index(l), in_index(r))
            case ISub(l, r):
                return ISub(in_index(l), in_index(r))
            case IMul(c, f):
                return IMul(c, in_index(f))
        raise TypeError(i)

    match ty:
        case TUnit() | TAtom(_):
            return ty
        case TCon(c, i):
            return TCon(c, in_index(i))
        case TArrow(a, b):
            return TArrow(naive_subst(repl, var, a), naive_subst(repl, var, b))
        case TSect(a, b):
            return TSect(naive_subst(repl, var, a), naive_subst(repl, var, b))
        case TPi(a, s, body):
            if a == var:
                return ty
            return TPi(a, s, naive_subst(repl, var, body))
    raise TypeError(ty)


def oracle_subst_type(repl: IndexExpr, var: str, ty: Type) -> Type:
    """Capture-avoiding substitution done the slow way: rename every binder
    in the whole type to a globally fresh name, then substitute naively."""
    return naive_subst(repl, var, rename_all_binders(ty))


# ---------------------------------------------------------------------------
# Oracle: exhaustive integer evaluation of entailment queries


def box_counterexample(
    goal: Eq, lo: int = -4, hi: int = 4
) -> Optional[dict[str, int]]:
    """An assignment in the box [lo, hi]^n under which the two sides of goal
    differ, or None.  For linear sides a box that holds 0 and 1 finds a
    counterexample whenever the equation is not an identity."""
    names = sorted(free_vars(goal, INDEX))
    for values in itertools.product(range(lo, hi + 1), repeat=len(names)):
        env = dict(zip(names, values))
        if eval_index(goal.lhs, env) != eval_index(goal.rhs, env):
            return env
    return None


# ---------------------------------------------------------------------------
# Oracle: depth-bounded exhaustive subtyping search (no metavariables;
# Pi-left witnesses drawn from a small candidate set)


def brute_subtype(
    sig: Signature,
    a: Type,
    b: Type,
    depth: int = 4,
    idx_env: tuple[str, ...] = (),
) -> bool:
    if depth < 0:
        return False
    if a == b:
        return True
    if isinstance(a, TAtom) and isinstance(b, TAtom):
        return sig.atom_le(a.name, b.name)
    if isinstance(b, TSect):
        if brute_subtype(sig, a, b.lhs, depth - 1, idx_env) and brute_subtype(
            sig, a, b.rhs, depth - 1, idx_env
        ):
            return True
    if isinstance(b, TPi):
        fresh = fresh_name(b.var, set(idx_env))
        body = subst(IVar(fresh), b.var, b.body)
        if brute_subtype(sig, a, body, depth - 1, idx_env + (fresh,)):
            return True
    if isinstance(a, TArrow) and isinstance(b, TArrow):
        if brute_subtype(sig, b.arg, a.arg, depth - 1, idx_env) and brute_subtype(
            sig, a.res, b.res, depth - 1, idx_env
        ):
            return True
    if isinstance(a, TCon) and isinstance(b, TCon) and a.con == b.con:
        from guardlang.indices import entails

        if entails(a.index, b.index):
            return True
    if isinstance(a, TSect):
        if brute_subtype(sig, a.lhs, b, depth - 1, idx_env) or brute_subtype(
            sig, a.rhs, b, depth - 1, idx_env
        ):
            return True
    if isinstance(a, TPi):
        candidates: list[IndexExpr] = [ILit(n) for n in range(-2, 5)]
        candidates += [IVar(v) for v in idx_env]
        for w in candidates:
            inst = subst(w, a.var, a.body)
            if brute_subtype(sig, inst, b, depth - 1, idx_env):
                return True
    return False


# ---------------------------------------------------------------------------
# Oracle: depth-bounded exhaustive bidirectional search for the
# index-free fragment (variables, unit, lambdas, applications, annotations,
# guards, merges, primitives)


def brute_check(
    sig: Signature, env: dict[str, Type], e: Term, ty: Type, depth: int = 6
) -> bool:
    if depth < 0:
        return False
    if isinstance(ty, TSect):
        if brute_check(sig, env, e, ty.lhs, depth - 1) and brute_check(
            sig, env, e, ty.rhs, depth - 1
        ):
            return True
    if isinstance(e, Unit) and isinstance(ty, TUnit):
        return True
    if isinstance(e, Lam) and isinstance(ty, TArrow):
        if brute_check(
            sig, {**env, e.var: ty.arg}, e.body, ty.res, depth - 1
        ):
            return True
    if isinstance(e, Guard):
        d = e.decl
        if (
            isinstance(d, VarDecl)
            and d.name in env
            and brute_subtype(sig, env[d.name], d.ty, depth)
            and brute_check(sig, env, e.body, ty, depth - 1)
        ):
            return True
    if isinstance(e, Merge):
        if brute_check(sig, env, e.lhs, ty, depth - 1) or brute_check(
            sig, env, e.rhs, ty, depth - 1
        ):
            return True
    for got in brute_synth(sig, env, e, depth - 1):
        if brute_subtype(sig, got, ty, depth):
            return True
    return False


def brute_synth(
    sig: Signature, env: dict[str, Type], e: Term, depth: int = 6
) -> set[Type]:
    if depth < 0:
        return set()
    out: set[Type] = set()
    if isinstance(e, Var) and e.name in env:
        out.add(env[e.name])
    if isinstance(e, Prim) and e.name in sig.prims:
        out.add(sig.prims[e.name])
    if isinstance(e, Anno):
        if brute_check(sig, env, e.body, e.ty, depth - 1):
            out.add(e.ty)
    if isinstance(e, Guard):
        d = e.decl
        if (
            isinstance(d, VarDecl)
            and d.name in env
            and brute_subtype(sig, env[d.name], d.ty, depth)
        ):
            out |= brute_synth(sig, env, e.body, depth - 1)
    if isinstance(e, Merge):
        out |= brute_synth(sig, env, e.lhs, depth - 1)
        out |= brute_synth(sig, env, e.rhs, depth - 1)
    if isinstance(e, App):
        for fty in _projections(brute_synth(sig, env, e.fn, depth - 1)):
            if isinstance(fty, TArrow) and brute_check(
                sig, env, e.arg, fty.arg, depth - 1
            ):
                out.add(fty.res)
    return out


def _projections(tys: set[Type]) -> set[Type]:
    out = set(tys)
    frontier = list(tys)
    while frontier:
        t = frontier.pop()
        if isinstance(t, TSect):
            for side in (t.lhs, t.rhs):
                if side not in out:
                    out.add(side)
                    frontier.append(side)
    return out


def lattice_closure(edges: dict[str, frozenset[str]]) -> dict[str, set[str]]:
    """Reflexive-transitive closure of the datasort order, independently."""
    names = set(edges)
    for ups in edges.values():
        names |= ups
    closure = {n: {n} for n in names}
    changed = True
    while changed:
        changed = False
        for n in names:
            for parent in edges.get(n, frozenset()):
                add = closure[parent] - closure[n]
                if add:
                    closure[n] |= add
                    changed = True
    return closure


# ---------------------------------------------------------------------------
# Seeded random generators (plain random.Random so counts are reproducible)

ATOMS = ("odd", "even", "bits")


def gen_index(rng: random.Random, idx_vars: tuple[str, ...]) -> IndexExpr:
    roll = rng.random()
    if roll < 0.35 or not idx_vars:
        return ILit(rng.randint(-3, 4))
    if roll < 0.7:
        return IVar(rng.choice(idx_vars))
    if roll < 0.85:
        return IMul(rng.randint(-2, 3), IVar(rng.choice(idx_vars)))
    lhs = gen_index(rng, idx_vars)
    rhs = gen_index(rng, idx_vars)
    return IAdd(lhs, rhs) if rng.random() < 0.5 else ISub(lhs, rhs)


def gen_type(
    rng: random.Random,
    depth: int = 4,
    idx_vars: tuple[str, ...] = (),
    allow_pi: bool = True,
) -> Type:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.2:
            return TUnit()
        if roll < 0.7:
            return TAtom(rng.choice(ATOMS))
        return TCon("list", gen_index(rng, idx_vars))
    roll = rng.random()
    if roll < 0.45:
        return TArrow(
            gen_type(rng, depth - 1, idx_vars, allow_pi),
            gen_type(rng, depth - 1, idx_vars, allow_pi),
        )
    if roll < 0.85 or not allow_pi:
        return TSect(
            gen_type(rng, depth - 1, idx_vars, allow_pi),
            gen_type(rng, depth - 1, idx_vars, allow_pi),
        )
    var = fresh_name("a", set(idx_vars))
    return TPi(var, INT, gen_type(rng, depth - 1, idx_vars + (var,), allow_pi))


def gen_index_free_term(
    rng: random.Random, depth: int, bound: frozenset[str]
) -> Term:
    """A random term of the index-free fragment over `snoc1` and `b1`: its
    variables are drawn from `bound` and the binders it adds."""
    if depth <= 0 or rng.random() < 0.35:
        opts = [Unit(), Prim("snoc1"), Prim("b1")]
        opts += [Var(x) for x in sorted(bound)]
        return rng.choice(opts)
    roll = rng.random()
    if roll < 0.25:
        x = rng.choice(["x", "y"])
        return Lam(x, gen_index_free_term(rng, depth - 1, bound | {x}))
    if roll < 0.45:
        return App(
            gen_index_free_term(rng, depth - 1, bound),
            gen_index_free_term(rng, depth - 1, bound),
        )
    if roll < 0.6:
        return Anno(
            gen_index_free_term(rng, depth - 1, bound),
            gen_type(rng, 2, (), allow_pi=False),
        )
    if roll < 0.75 and bound:
        x = rng.choice(sorted(bound))
        return Guard(
            VarDecl(x, gen_type(rng, 1, (), allow_pi=False)),
            gen_index_free_term(rng, depth - 1, bound),
        )
    return Merge(
        gen_index_free_term(rng, depth - 1, bound),
        gen_index_free_term(rng, depth - 1, bound),
    )


def gen_eq(rng: random.Random, names: tuple[str, ...]) -> Eq:
    """A random equation; in about 2 of 5 the right side is the left side
    rearranged, so that it holds identically."""
    lhs = gen_index(rng, names)
    if rng.random() < 0.4:
        extra = gen_index(rng, names)
        return Eq(lhs, ISub(IAdd(extra, lhs), extra))
    return Eq(lhs, gen_index(rng, names))


def weaken(rng: random.Random, sig: Signature, t: Type, depth: int = 2) -> Type:
    """A type that should be a supertype of t (never introduces Pi)."""
    if depth <= 0:
        return t
    match t:
        case TAtom(name):
            ups = [name] + sorted(
                s for s in ("odd", "even", "bits") if sig.atom_le(name, s)
            )
            return TAtom(rng.choice(ups))
        case TSect(l, r):
            roll = rng.random()
            if roll < 0.35:
                return weaken(rng, sig, l, depth - 1)
            if roll < 0.7:
                return weaken(rng, sig, r, depth - 1)
            return TSect(weaken(rng, sig, l, depth - 1), weaken(rng, sig, r, depth - 1))
        case TArrow(a, b):
            return TArrow(strengthen(rng, sig, a, depth - 1), weaken(rng, sig, b, depth - 1))
        case TCon(c, i):
            return TCon(c, _rewrite_index(rng, i))
        case _:
            return t


def strengthen(rng: random.Random, sig: Signature, t: Type, depth: int = 2) -> Type:
    """A type that should be a subtype of t (never introduces Pi)."""
    if depth <= 0:
        return t
    match t:
        case TAtom(name):
            downs = [name] + sorted(
                s for s in ("odd", "even", "bits") if sig.atom_le(s, name)
            )
            return TAtom(rng.choice(downs))
        case TSect(l, r):
            return TSect(
                strengthen(rng, sig, l, depth - 1), strengthen(rng, sig, r, depth - 1)
            )
        case TArrow(a, b):
            return TArrow(weaken(rng, sig, a, depth - 1), strengthen(rng, sig, b, depth - 1))
        case TCon(c, i):
            return TCon(c, _rewrite_index(rng, i))
        case _:
            if rng.random() < 0.4:
                return TSect(t, gen_type(rng, depth - 1, (), allow_pi=False))
            return t


def _rewrite_index(rng: random.Random, i: IndexExpr) -> IndexExpr:
    roll = rng.random()
    if roll < 0.4:
        return i
    if roll < 0.7:
        return IAdd(i, ILit(0))
    return ISub(IMul(2, i), i)


# ---------------------------------------------------------------------------
# Generator for programs carrying contextual annotations

_CORPUS_HEADER = """\
datasort odd <: bits
datasort even <: bits
indexcon list :: int
prim snoc1 : (odd -> even) /\\ (even -> odd)
prim idcast : Pi c : int . list(c) -> list(c)
prim b1 : odd
"""


def gen_ctxanno_program(rng: random.Random) -> Program:
    flavor = rng.random()
    if flavor < 0.45:
        text = _gen_datasort_ctxanno(rng)
    elif flavor < 0.85:
        text = _gen_indexed_ctxanno(rng)
    else:
        text = _gen_closed_ctxanno(rng)
    return parse_program(text, "<generated>")


def _maybe_distractor(rng: random.Random) -> list[str]:
    # Typings whose subsumption cannot hold, so selection skips them.
    opts = [
        "y : odd |- even",          # unbound subject
        "x : list(1) |- even",      # undeclared shape for x
        "b : int |- list(b)",       # instantiation never determined
    ]
    if rng.random() < 0.4:
        return [rng.choice(opts)]
    return []


def _gen_datasort_ctxanno(rng: random.Random) -> str:
    both = rng.random() < 0.7
    typings = ["x : odd |- even", "x : even |- odd"]
    rng.shuffle(typings)
    if not both:
        typings = typings[:1]
        goal = (
            "odd -> even" if typings[0].startswith("x : odd") else "even -> odd"
        )
    else:
        goal = "(odd -> even) /\\ (even -> odd)"
    typings = _maybe_distractor(rng) + typings
    anno = " ; ".join(typings)
    body = f"((snoc1 x) :: [{anno}])"
    if rng.random() < 0.3:
        body = f"(where x : bits do {body})"
    return _CORPUS_HEADER + f"val main : {goal} = fn x => {body}\n"


def _gen_indexed_ctxanno(rng: random.Random) -> str:
    k = rng.choice((1, 2, 3))
    form = f"b*{k}" if k != 1 else "b"
    goalidx = f"a*{k}" if k != 1 else "a"
    extra = rng.random() < 0.35
    entries = [f"b : int", f"x : list({form})"]
    if extra:
        entries.append("x : list(b*1)" if k == 1 else f"x : list({form})")
    typing = ", ".join(entries) + f" |- list({form})"
    typings = _maybe_distractor(rng) + [typing]
    anno = " ; ".join(typings)
    goal = f"Pi a : int . list({goalidx}) -> list({goalidx})"
    return _CORPUS_HEADER + (
        f"val main : {goal} = fn x => ((idcast x) :: [{anno}])\n"
    )


def _gen_closed_ctxanno(rng: random.Random) -> str:
    n = rng.randint(1, 3)
    typings = " ; ".join(["|- unit"] * n)
    shape = rng.random()
    if shape < 0.5:
        return _CORPUS_HEADER + f"val main : unit = (() :: [{typings}])\n"
    return _CORPUS_HEADER + (
        f"val main : unit -> unit = fn u => ((u :: [{typings}]))\n"
    )


# ---------------------------------------------------------------------------
# Derivation walker: positions of typing nodes in the original term


@dataclass
class NodeInfo:
    path: tuple[int, ...]
    mode: str
    ty: Type
    ctx_entries: tuple
    bound_idx: frozenset[str]  # index vars bound by idxfn along the path


def walk_nodes(d: TypingDerivation) -> Iterator[NodeInfo]:
    yield from _walk(d, (), frozenset())


def _walk(
    d: TypingDerivation, path: tuple[int, ...], bound: frozenset[str]
) -> Iterator[NodeInfo]:
    if d.ty is not None:
        yield NodeInfo(path, d.mode, d.ty, d.ctx_entries, bound)
    rule = d.rule
    if rule in ("var", "prim", "unit-i", "ivar"):
        return
    if rule == "arrow-i":
        yield from _walk(d.premises[0], path + (0,), bound)
    elif rule == "sect-i":
        yield from _walk(d.premises[0], path, bound)
        yield from _walk(d.premises[1], path, bound)
    elif rule == "sub":
        yield from _walk(d.premises[0], path, bound)
    elif rule in ("merge-chk", "merge-syn"):
        # Branch k of n: k - 1 steps down the right spine, then to the left
        # unless k is the last.
        k, n = d.branch, len(spine(d.term))
        step = (1,) * (k - 1) + ((0,) if k < n else ())
        yield from _walk(d.premises[0], path + step, bound)
    elif rule == "right-anno":
        yield from _walk(d.premises[0], path + (0,), bound)
    elif rule in ("guard-chk", "guard-syn"):
        yield from _walk(d.premises[1], path + (0,), bound)
    elif rule == "pi-i":
        yield from _walk(d.premises[0], path, bound)
    elif rule == "pi-i-explicit":
        last = d.premises[0].ctx_entries[-1]
        yield from _walk(d.premises[0], path + (0,), bound | {last.name})
    elif rule in ("pi-e", "sect-e"):
        yield from _walk(d.premises[0], path, bound)
    elif rule == "some":
        yield from _walk(d.premises[0], path + (0,), bound)
    elif rule == "ctx-anno":
        while d.rule != "right-anno":  # down the encoded branch
            d = d.premises[-1]
        yield from _walk(d.premises[0], path + (0,), bound)
    elif rule == "arrow-e":
        yield from _walk(d.premises[0], path + (0,), bound)
        yield from _walk(d.premises[1], path + (1,), bound)
    else:
        raise AssertionError(f"walker: unhandled rule {rule}")


def rewrap(e: Term, path: tuple[int, ...], f) -> Term:
    """Rebuild e with f applied to the subterm at path."""
    if not path:
        return f(e)
    i, rest = path[0], path[1:]
    match e:
        case Lam(x, body):
            assert i == 0
            return Lam(x, rewrap(body, rest, f), span=e.span)
        case Anno(body, ty):
            assert i == 0
            return Anno(rewrap(body, rest, f), ty, span=e.span)
        case Guard(d, body):
            assert i == 0
            return Guard(d, rewrap(body, rest, f), span=e.span)
        case Some(a, s, body):
            assert i == 0
            return Some(a, s, rewrap(body, rest, f), span=e.span)
        case IdxLam(a, s, body):
            assert i == 0
            return IdxLam(a, s, rewrap(body, rest, f), span=e.span)
        case CtxAnno(body, typings):
            assert i == 0
            return CtxAnno(rewrap(body, rest, f), typings, span=e.span)
        case App(fn, arg):
            if i == 0:
                return App(rewrap(fn, rest, f), arg, span=e.span)
            return App(fn, rewrap(arg, rest, f), span=e.span)
        case Merge(l, r):
            if i == 0:
                return Merge(rewrap(l, rest, f), r, span=e.span)
            return Merge(l, rewrap(r, rest, f), span=e.span)
    raise AssertionError(f"rewrap: no child {i} in {e!r}")


def wrap_somes(vars_needed: list[str], inner: Term) -> Term:
    out = inner
    for v in reversed(vars_needed):
        out = Some(v, INT, out)
    return out


def reannotate_with_type(
    prog: Program, info: NodeInfo, multi: bool = False
) -> Program:
    """Wrap the subterm at info.path with a right-hand annotation of its
    derived type, adding `some` binders for index variables the term does
    not already bind.

    When the position is checked several times (under intersection
    introduction), a single annotation cannot serve every judgment; the
    annotated copy is then merged with the original, which is the prescribed
    way to annotate one branch of a replicated check."""
    needs = sorted(free_vars(info.ty, INDEX) - info.bound_idx)

    def wrap(e0: Term) -> Term:
        wrapped = wrap_somes(needs, Anno(e0, info.ty))
        return Merge(wrapped, e0) if multi else wrapped

    return Program(prog.sig, rewrap(prog.main, info.path, wrap), prog.goal)


def reannotate_with_guard(
    prog: Program, info: NodeInfo, decl, multi: bool = False
) -> Program:
    if isinstance(decl, VarDecl):
        needs = sorted(free_vars(decl.ty, INDEX) - info.bound_idx)
    else:
        needs = []

    def wrap(e0: Term) -> Term:
        wrapped = wrap_somes(needs, Guard(decl, e0))
        return Merge(wrapped, e0) if multi else wrapped

    return Program(prog.sig, rewrap(prog.main, info.path, wrap), prog.goal)


def duplicate_with_merge(prog: Program, info: NodeInfo) -> Program:
    def wrap(e0: Term) -> Term:
        return Merge(e0, e0)

    return Program(prog.sig, rewrap(prog.main, info.path, wrap), prog.goal)


# ---------------------------------------------------------------------------
# Oracle: witness enumeration for the indexed fragment.  Where the checker
# solves `some`/Pi instantiations through metavariables, this oracle tries
# every candidate index expression from a small closed set, which covers all
# solutions expressible in the generated program family.


def witness_candidates(idx_env: tuple[str, ...]) -> list[IndexExpr]:
    out: list[IndexExpr] = [ILit(n) for n in range(-2, 5)]
    for v in idx_env:
        out.append(IVar(v))
        out.append(IMul(2, IVar(v)))
    return out


def brute_check_idx(
    sig: Signature,
    env: dict[str, Type],
    idx_env: tuple[str, ...],
    e: Term,
    ty: Type,
    depth: int = 8,
) -> bool:
    if depth < 0:
        return False
    if isinstance(ty, TSect):
        if brute_check_idx(
            sig, env, idx_env, e, ty.lhs, depth - 1
        ) and brute_check_idx(sig, env, idx_env, e, ty.rhs, depth - 1):
            return True
    if isinstance(ty, TPi):
        if isinstance(e, IdxLam):
            if e.sort == ty.sort:
                fresh = fresh_name(e.var, set(idx_env))
                body = subst(IVar(fresh), e.var, e.body)
                tbody = subst(IVar(fresh), ty.var, ty.body)
                if brute_check_idx(
                    sig, env, idx_env + (fresh,), body, tbody, depth - 1
                ):
                    return True
        else:
            fresh = fresh_name(ty.var, set(idx_env))
            tbody = subst(IVar(fresh), ty.var, ty.body)
            if brute_check_idx(
                sig, env, idx_env + (fresh,), e, tbody, depth - 1
            ):
                return True
    if isinstance(e, Unit) and isinstance(ty, TUnit):
        return True
    if isinstance(e, Lam) and isinstance(ty, TArrow):
        if brute_check_idx(
            sig, {**env, e.var: ty.arg}, idx_env, e.body, ty.res, depth - 1
        ):
            return True
    if isinstance(e, Some):
        for w in witness_candidates(idx_env):
            body = subst(w, e.var, e.body)
            if brute_check_idx(sig, env, idx_env, body, ty, depth - 1):
                return True
    if isinstance(e, Guard):
        d = e.decl
        if isinstance(d, VarDecl):
            if (
                d.name in env
                and brute_subtype(sig, env[d.name], d.ty, depth, idx_env)
                and brute_check_idx(sig, env, idx_env, e.body, ty, depth - 1)
            ):
                return True
        elif d.name in idx_env and brute_check_idx(
            sig, env, idx_env, e.body, ty, depth - 1
        ):
            return True
    if isinstance(e, Merge):
        if brute_check_idx(
            sig, env, idx_env, e.lhs, ty, depth - 1
        ) or brute_check_idx(sig, env, idx_env, e.rhs, ty, depth - 1):
            return True
    for got in brute_synth_idx(sig, env, idx_env, e, depth - 1):
        if brute_subtype(sig, got, ty, depth, idx_env):
            return True
    return False


def brute_synth_idx(
    sig: Signature,
    env: dict[str, Type],
    idx_env: tuple[str, ...],
    e: Term,
    depth: int = 8,
) -> set[Type]:
    if depth < 0:
        return set()
    out: set[Type] = set()
    if isinstance(e, Var) and e.name in env:
        out.add(env[e.name])
    if isinstance(e, Prim) and e.name in sig.prims:
        out.add(sig.prims[e.name])
    if isinstance(e, Anno):
        if brute_check_idx(sig, env, idx_env, e.body, e.ty, depth - 1):
            out.add(e.ty)
    if isinstance(e, Guard):
        d = e.decl
        supported = (
            isinstance(d, VarDecl)
            and d.name in env
            and brute_subtype(sig, env[d.name], d.ty, depth, idx_env)
        ) or (isinstance(d, IdxDecl) and d.name in idx_env)
        if supported:
            out |= brute_synth_idx(sig, env, idx_env, e.body, depth - 1)
    if isinstance(e, Merge):
        out |= brute_synth_idx(sig, env, idx_env, e.lhs, depth - 1)
        out |= brute_synth_idx(sig, env, idx_env, e.rhs, depth - 1)
    if isinstance(e, Some):
        for w in witness_candidates(idx_env):
            body = subst(w, e.var, e.body)
            out |= brute_synth_idx(sig, env, idx_env, body, depth - 1)
    if isinstance(e, App):
        for fty in _arrow_views(brute_synth_idx(sig, env, idx_env, e.fn, depth - 1), idx_env):
            if isinstance(fty, TArrow) and brute_check_idx(
                sig, env, idx_env, e.arg, fty.arg, depth - 1
            ):
                out.add(fty.res)
    return out


def _arrow_views(tys: set[Type], idx_env: tuple[str, ...]) -> set[Type]:
    out: set[Type] = set()
    frontier = list(tys)
    seen: set[Type] = set(tys)
    while frontier:
        t = frontier.pop()
        out.add(t)
        children: list[Type] = []
        if isinstance(t, TSect):
            children = [t.lhs, t.rhs]
        elif isinstance(t, TPi):
            children = [
                subst(w, t.var, t.body)
                for w in witness_candidates(idx_env)
            ]
        for c in children:
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return out


# ---------------------------------------------------------------------------
# Structured generator for indexed some/guard programs.  Every `some` is
# constrained through its guard, and all index shapes keep witnesses inside
# the enumeration oracle's candidate set, so the oracle decides this family
# exactly.

_IDX_SHAPES = ("v", "2v", "lit")


def _shape(rng: random.Random, var: str) -> IndexExpr:
    kind = rng.choice(_IDX_SHAPES)
    if kind == "v":
        return IVar(var)
    if kind == "2v":
        return IMul(2, IVar(var))
    return ILit(rng.randint(0, 3))


def gen_indexed_program(rng: random.Random) -> Program:
    sig = indexed_sig()
    goal_arg = _shape(rng, "a")
    goal_res = goal_arg if rng.random() < 0.7 else _shape(rng, "a")
    guard_idx = _shape(rng, "b")
    body: Term = App(Prim("idcast"), Var("x"))
    if rng.random() < 0.4:
        body = Anno(body, TCon("list", _shape(rng, "b")))
    inner: Term = Guard(VarDecl("x", TCon("list", guard_idx)), body)
    if rng.random() < 0.3:
        inner = Merge(inner, App(Prim("idcast"), Var("x")))
    main: Term = Lam("x", Some("b", INT, inner))
    goal = TPi(
        "a", INT, TArrow(TCon("list", goal_arg), TCon("list", goal_res))
    )
    return Program(sig, main, goal)


# ---------------------------------------------------------------------------
# Scaling families: programs whose verdict is known by construction


def snoc_chain_program(n: int) -> Program:
    """`snoc1 (... (snoc1 b1))`, n deep, against the parity its length
    gives: `b1` is odd and each `snoc1` flips the parity.  Well typed."""
    body = "b1"
    for _ in range(n):
        body = f"snoc1 ({body})"
    goal = "odd" if n % 2 == 0 else "even"
    return parse_program(
        "datasort odd <: bits\n"
        "datasort even <: bits\n"
        "prim snoc1 : (odd -> even) /\\ (even -> odd)\n"
        "prim b1 : odd\n"
        f"val main : {goal} =\n  {body}\n"
    )


def idx_chain_program(n: int) -> Program:
    """`fn x => idcast (... (idcast x))`, n deep, against
    `Pi a : int . list(a*2) -> list(a*2)`.  Well typed through the Pi
    conjunct of `idcast`; the `unit -> unit` conjunct is tried first at
    every level and fails."""
    return parse_program(idx_chain_source(n))


def idx_chain_source(n: int) -> str:
    body = "x"
    for _ in range(n):
        body = f"idcast ({body})"
    return (
        "indexcon list :: int\n"
        "prim idcast : (unit -> unit) /\\ (Pi c : int . list(c) -> list(c))\n"
        "val main : Pi a : int . list(a*2) -> list(a*2) =\n"
        f"  fn x => {body}\n"
    )


KWAY_VARIANTS = ("guarded", "plain", "ctxanno", "swapped")


def kway_program(k: int, variant: str) -> Program:
    return parse_program(kway_source(k, variant))


def kway_source(k: int, variant: str) -> str:
    """The source text of a kway program: k datasorts c0..c(k-1),
    `step : /\\_i (c_i -> c_(i+1 mod k))`, and `main = fn x => ...` checked
    against that intersection.  The body is a k-way merge of
    `where x : c_i do (step x : c_(i+1))` ("guarded"), plain `step x`, or
    one contextual annotation ("ctxanno"); all three are well typed.
    "swapped" guards branch i on c_(i+1) instead, so for k >= 2 the only
    branch whose guard passes claims the wrong result type: ill typed.  For
    k = 1 the shift is 0 mod 1, so swapped is guarded, and well typed."""
    ty = " /\\ ".join(f"(c{i} -> c{(i + 1) % k})" for i in range(k))
    if variant in ("guarded", "swapped"):
        shift = 0 if variant == "guarded" else 1
        body = " ,, ".join(
            f"(where x : c{(i + shift) % k} do (step x : c{(i + 1) % k}))"
            for i in range(k)
        )
    elif variant == "plain":
        body = "step x"
    elif variant == "ctxanno":
        typings = " ; ".join(f"x : c{i} |- c{(i + 1) % k}" for i in range(k))
        body = f"((step x) :: [{typings}])"
    else:
        raise ValueError(f"unknown kway variant {variant!r}")
    header = "".join(f"datasort c{i}\n" for i in range(k))
    return header + f"prim step : {ty}\nval main : {ty} =\n  fn x => {body}\n"
