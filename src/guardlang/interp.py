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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .parser import pretty_term
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
            f"merge branches erase differently: {pretty_term(lhs)} vs "
            f"{pretty_term(rhs)}"
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


def _delta(e: App) -> Optional[Term]:
    head, args = _spine(e)
    if isinstance(head, Prim):
        return apply_prim(head.name, [_strip(a) for a in args])
    return None


def is_value(e: Term) -> bool:
    """The extended value grammar: variables, lambdas, unit, annotated and
    guarded values, and inert primitive application spines."""
    match e:
        case Var(_) | Lam(_, _) | Unit() | Prim(_):
            return True
        case Anno(body, _) | Guard(_, body):
            return is_value(body)
        case App(f, a):
            if not (is_value(f) and is_value(a)):
                return False
            head, _ = _spine(e)
            return isinstance(head, Prim) and _delta(e) is None
        case _:
            return False


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


def step(e: Term) -> StepResult:
    """One deterministic leftmost-innermost call-by-value step."""
    if is_value(e):
        return Value()
    return _step(e)


def _step(e: Term) -> Union[Stepped, Stuck]:
    match e:
        case Anno(body, _):
            return Stepped(body, "anno-drop")
        case Guard(_, body):
            return Stepped(body, "guard-drop")
        case Some(_, _, body):
            return Stepped(body, "some-drop")
        case IdxLam(_, _, body):
            return Stepped(body, "idxfn-drop")
        case CtxAnno(body, _):
            return Stepped(body, "ctxanno-drop")
        case Merge(l, _):
            return Stepped(l, "merge")
        case App(f, a):
            if not is_value(f):
                inner = _step(f)
                if isinstance(inner, Stuck):
                    return inner
                return Stepped(App(inner.term, a, span=e.span), inner.rule)
            if not is_value(a):
                inner = _step(a)
                if isinstance(inner, Stuck):
                    return inner
                return Stepped(App(f, inner.term, span=e.span), inner.rule)
            core = _strip(f)
            if isinstance(core, Lam):
                return Stepped(subst(a, core.var, core.body), "beta")
            result = _delta(e)
            if result is not None:
                return Stepped(result, "delta")
            return Stuck(f"cannot apply {pretty_term(f)}", e)
        case _:
            return Stuck(f"no rule applies to {pretty_term(e)}", e)


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
        res = step(cur)
        if isinstance(res, Value):
            return EvalResult("value", cur, steps)
        if isinstance(res, Stuck):
            return EvalResult("stuck", cur, steps, res.reason)
        if steps >= fuel:
            return EvalResult("fuel", cur, steps, f"no value within {fuel} steps")
        cur = res.term
        steps += 1


# ---------------------------------------------------------------------------
# Exhaustive exploration of both merge reduction rules


class BoundExceeded(Exception):
    pass


def _successors(e: Term) -> list[Term]:
    """All one-step successors: deterministic redex position, both merge
    rules.  Empty for values and stuck terms."""
    if is_value(e):
        return []
    match e:
        case Anno(body, _) | Guard(_, body) | Some(_, _, body) | IdxLam(
            _, _, body
        ) | CtxAnno(body, _):
            return [body]
        case Merge(l, r):
            return [l, r]
        case App(f, a):
            if not is_value(f):
                return [App(s, a, span=e.span) for s in _successors(f)]
            if not is_value(a):
                return [App(f, s, span=e.span) for s in _successors(a)]
            core = _strip(f)
            if isinstance(core, Lam):
                return [subst(a, core.var, core.body)]
            result = _delta(e)
            return [result] if result is not None else []
        case _:
            return []


def step_all(e: Term, max_states: int = 5000) -> list[Term]:
    """Values reachable through every merge interleaving, modulo erasure."""
    seen: set[Term] = {e}
    frontier: list[Term] = [e]
    values: list[Term] = []
    while frontier:
        cur = frontier.pop()
        if is_value(cur):
            v = erase(cur)
            if not any(alpha_eq(v, u) for u in values):
                values.append(v)
            continue
        for nxt in _successors(cur):
            if nxt in seen:
                continue
            if len(seen) >= max_states:
                raise BoundExceeded(
                    f"merge exploration exceeded {max_states} states"
                )
            seen.add(nxt)
            frontier.append(nxt)
    return values
