"""Operational semantics: erasure, annotated small-step, merge exploration.

Two interchangeable views of annotations at runtime.  `erase` strips every
annotation form (right-hand annotations, guards, `some`/`idxfn` binders,
contextual annotations) and collapses merges whose branches erase equally.
`step` keeps annotations in the term and drops them with dedicated reduction
rules, extending values so that annotated values stay values; beta reduction
looks through value annotations on the function.

Merges reduce to their first branch under `step`; `step_all` explores both
merge rules exhaustively and reports every reachable value modulo erasure,
which for annotation-only merges is a single value.

The relation is written once, in `_reduce`: one walk of a term finds that it
is a value, that it is stuck, or the reducts of its redex.  `is_value`,
`step`, `evaluate` and `step_all` all read that walk, so a step of
`evaluate` walks the term once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .parser import pretty
from .syntax import (
    Anno,
    App,
    CtxAnno,
    Guard,
    IdxLam,
    Lam,
    Merge,
    Prim,
    Some,
    Term,
    Unit,
    Var,
    alpha_eq,
    subst,
)


class MergeMismatchError(Exception):
    """A merge whose branches do not erase to the same term: the merge is
    not being used purely as an annotation mechanism."""

    def __init__(self, term: Merge, lhs: Term, rhs: Term) -> None:
        super().__init__(
            f"merge branches erase differently: {pretty(lhs)} vs {pretty(rhs)}"
        )
        self.term = term


def erase(e: Term) -> Term:
    """e without annotations; a subterm that holds none comes back as the
    same object."""
    match e:
        case Var(_) | Unit() | Prim(_):
            return e
        case Lam(x, body):
            b = erase(body)
            return e if b is body else Lam(x, b, span=e.span)
        case App(f, a):
            f2, a2 = erase(f), erase(a)
            return e if f2 is f and a2 is a else App(f2, a2, span=e.span)
        case Anno(body, _) | Guard(_, body) | CtxAnno(body, _):
            return erase(body)
        case Some(_, _, body) | IdxLam(_, _, body):
            # Index binders vanish at runtime.
            return erase(body)
        case Merge(l, r):
            le = erase(l)
            re_ = erase(r)
            if not alpha_eq(le, re_):
                raise MergeMismatchError(e, le, re_)
            return le
    raise TypeError(f"erase: unexpected {e!r}")


# ---------------------------------------------------------------------------
# Primitive denotations.  Bitstring constants are primitives named `b`
# followed by binary digits; prims without an entry here are inert constants.

_BITSTRING = re.compile(r"^b[01]*$")


def apply_prim(name: str, args: list[Term]) -> Optional[Term]:
    if name in ("snoc0", "snoc1") and len(args) == 1:
        (a,) = args
        if isinstance(a, Prim) and _BITSTRING.match(a.name):
            return Prim(a.name + name[-1])
        return None
    if name in ("id", "idcast") and len(args) == 1:
        return args[0]
    return None


def _strip(e: Term) -> Term:
    while isinstance(e, (Anno, Guard)):
        e = e.body
    return e


def _spine(e: Term) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    cur = _strip(e)
    while isinstance(cur, App):
        args.append(cur.arg)
        cur = _strip(cur.fn)
    return cur, list(reversed(args))


# ---------------------------------------------------------------------------
# Small-step reduction


@dataclass(frozen=True)
class Stepped:
    term: Term
    rule: str


@dataclass(frozen=True)
class Value:
    pass


@dataclass(frozen=True)
class Stuck:
    reason: str
    at: Term


StepResult = Union[Stepped, Value, Stuck]

_VALUE = Value()

_DROP = {
    Anno: "anno-drop",
    Guard: "guard-drop",
    Some: "some-drop",
    IdxLam: "idxfn-drop",
    CtxAnno: "ctxanno-drop",
}


def _reduce(e: Term) -> Union[Value, Term, tuple[str, Term, list]]:
    """The reduction relation, in one walk of e: `Value()` for a value of
    the extended grammar (variables, lambdas, unit, annotated and guarded
    values, inert primitive application spines), the stuck term, or the
    rule of the leftmost-innermost call-by-value redex, the redex (for
    delta, its result, which tells an inert spine from a redex), and its
    context: the applications from the redex up to e, each with the side of
    its hole (0 the function, 1 the argument).  No beta redex is contracted
    here: `_reducts` builds the reducts of the step that is taken, so an
    annotation that only asks whether its body is a value builds none."""
    match e:
        case Var(_) | Lam(_, _) | Unit() | Prim(_):
            return _VALUE
        case Anno(body, _) | Guard(_, body):
            if _reduce(body) is _VALUE:
                return _VALUE
            return _DROP[type(e)], e, []
        case Some(_, _, body) | IdxLam(_, _, body) | CtxAnno(body, _):
            return _DROP[type(e)], e, []
        case Merge(l, r):
            return "merge", e, []
        case App(f, a):
            inner = _reduce(f)
            if inner is not _VALUE:
                if type(inner) is tuple:
                    inner[2].append((e, 0))
                return inner
            inner = _reduce(a)
            if inner is not _VALUE:
                if type(inner) is tuple:
                    inner[2].append((e, 1))
                return inner
            if isinstance(_strip(f), Lam):
                return "beta", e, []
            head, args = _spine(e)
            if not isinstance(head, Prim):
                return e
            result = apply_prim(head.name, [_strip(x) for x in args])
            return _VALUE if result is None else ("delta", result, [])
    return e


def _stuck(e: Term) -> Stuck:
    """Why e, a stuck term that `_reduce` returned, is stuck: rendered only
    for a result that `step` or `evaluate` returns."""
    if type(e) is App:
        return Stuck(f"cannot apply {pretty(e.fn)}", e)
    return Stuck(f"no rule applies to {pretty(e)}", e)


def _reducts(res: tuple[str, Term, list]) -> list[Term]:
    """The reducts of the redex that `_reduce` found, in its context: a
    merge has two, its branches, and `step` takes the first; every other
    redex has one."""
    rule, redex, path = res
    if rule == "beta":
        core = _strip(redex.fn)
        out = [subst(redex.arg, core.var, core.body)]
    elif rule == "delta":
        out = [redex]
    elif rule == "merge":
        out = [redex.lhs, redex.rhs]
    else:
        out = [redex.body]
    for app, side in path:
        out = [
            App(app.fn, s, span=app.span) if side else App(s, app.arg, span=app.span)
            for s in out
        ]
    return out


def is_value(e: Term) -> bool:
    """Whether e is a value of the extended grammar (see `_reduce`)."""
    return _reduce(e) is _VALUE


def step(e: Term) -> StepResult:
    """One deterministic leftmost-innermost call-by-value step."""
    res = _reduce(e)
    if type(res) is tuple:
        return Stepped(_reducts(res)[0], res[0])
    return res if res is _VALUE else _stuck(res)


@dataclass(frozen=True)
class EvalResult:
    outcome: str  # "value" | "stuck" | "fuel"
    term: Term
    steps: int
    reason: str = ""


def evaluate(e: Term, fuel: int = 100_000) -> EvalResult:
    """Iterate `step` until a value, a stuck term, or fuel exhaustion."""
    steps = 0
    cur = e
    while True:
        res = _reduce(cur)
        if res is _VALUE:
            return EvalResult("value", cur, steps)
        if type(res) is not tuple:
            return EvalResult("stuck", cur, steps, _stuck(res).reason)
        if steps >= fuel:
            return EvalResult("fuel", cur, steps, f"no value within {fuel} steps")
        cur = _reducts(res)[0]
        steps += 1


# ---------------------------------------------------------------------------
# Exhaustive exploration of both merge reduction rules


class BoundExceeded(Exception):
    pass


def step_all(e: Term, max_states: int = 5000) -> list[Term]:
    """Values reachable through every merge interleaving, modulo erasure."""
    seen: set[Term] = {e}
    frontier: list[Term] = [e]
    values: list[Term] = []
    while frontier:
        cur = frontier.pop()
        res = _reduce(cur)
        if res is _VALUE:
            v = erase(cur)
            if not any(alpha_eq(v, u) for u in values):
                values.append(v)
            continue
        for nxt in _reducts(res) if isinstance(res, tuple) else ():
            if nxt in seen:
                continue
            if len(seen) >= max_states:
                raise BoundExceeded(
                    f"merge exploration exceeded {max_states} states"
                )
            seen.add(nxt)
            frontier.append(nxt)
    return values
