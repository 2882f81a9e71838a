"""The replay kernel (`guardlang.replay`): it accepts every derivation the
checker builds, rejects each derivation with one node tampered with, matches
Pi instances as `subst` plus `alpha_eq` would, and imports nothing of the
search."""

import ast
import functools
import os
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings

import strategies
from conftest import ACCEPTED_PROGRAMS, program_path
from helpers import (
    KWAY_VARIANTS,
    gen_ctxanno_program,
    idx_chain_program,
    kway_program,
    load_program,
)
from guardlang import replay
from guardlang.ctxanno import encode_program
from guardlang.parser import parse_program, parse_type
from guardlang.replay import (
    CtxSubDerivation,
    SubDerivation,
    TypingDerivation,
    VerifyError,
    inst_eq,
    verify_typing,
)
from guardlang.subtyping import subtype
from guardlang.syntax import (
    INDEX,
    CtxTyping,
    IAdd,
    IdxDecl,
    ILit,
    TAtom,
    TUnit,
    Unit,
    Var,
    VarDecl,
    alpha_eq,
    free_vars,
    subst,
)
from guardlang.typecheck import Checker, typecheck_program

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "guardlang")

PARITY = (
    "datasort odd <: bits\n"
    "datasort even <: bits\n"
    "prim snoc1 : (odd -> even) /\\ (even -> odd)\n"
)
IDCAST = "indexcon list :: int\nprim idcast : Pi c : int . list(c) -> list(c)\n"
LIST_ID = "Pi a : int . list(a) -> list(a)"

# Programs for the rules the families below never use.
EXTRA_PROGRAMS = [
    # pi-i-explicit, and ivar: the evidence of an index guard
    IDCAST
    + f"val main : {LIST_ID} = idxfn a : int => fn x => where a : int do idcast x",
    # guard-syn
    PARITY + "val main : odd -> even = fn x => (where x : odd do snoc1) x",
    # merge-syn
    PARITY + "val main : odd -> even = fn x => ((snoc1 : odd -> even) ,, snoc1) x",
]

# (signature header, A, B) of subtyping queries A <= B for the subtyping
# rules the typing search never asks: arrow, sect-r, sect-l1, sect-l2, pi-r
# and pi-l.
EXTRA_SUBTYPINGS = [
    (PARITY, "(odd -> even) /\\ (even -> odd)", "(odd -> bits) /\\ (even -> bits)"),
    (IDCAST, LIST_ID, "Pi b : int . list(b*2) -> list(b*2)"),
]


def _nodes(root):
    """Each distinct node of a derivation once, with whether a typing node
    holds it as a premise."""
    seen: dict = {}
    stack = [(root, False)]
    while stack:
        d, under_typing = stack.pop()
        if id(d) in seen:
            seen[id(d)] = (d, seen[id(d)][1] or under_typing)
            continue
        seen[id(d)] = (d, under_typing)
        stack.extend((p, type(d) is TypingDerivation) for p in d.premises)
    return list(seen.values())


@functools.lru_cache(maxsize=None)
def _roots() -> tuple:
    """(signature, derivation) of every accepted program of the corpus, of
    kway(k, variant) for k in 2, 5, 8, of idx-chain(1..10), of the generated
    contextual-annotation corpus and its encodings, and of the extra
    programs and subtyping queries."""
    progs = [load_program(program_path(n)) for n in ACCEPTED_PROGRAMS]
    progs += [kway_program(k, v) for k in (2, 5, 8) for v in KWAY_VARIANTS]
    progs += [idx_chain_program(n) for n in range(1, 11)]
    rng = random.Random(20260808)
    generated = [gen_ctxanno_program(rng) for _ in range(220)]
    progs += generated + [encode_program(p) for p in generated]
    progs += [parse_program(text) for text in EXTRA_PROGRAMS]
    out = []
    for prog in progs:
        report = typecheck_program(prog)
        if report.accepted:
            out.append((prog.sig, report.derivation))
    for header, a, b in EXTRA_SUBTYPINGS:
        sig = parse_program(header + "val main = ()").sig
        checker = Checker(sig)
        d = subtype(checker.fresh_ctx(), parse_type(a), parse_type(b))
        assert isinstance(d, SubDerivation)
        out.append((sig, d))
    return tuple(out)


def _key(d) -> tuple:
    return (type(d).__name__, d.rule)


def test_every_derivation_of_the_checker_replays():
    roots = _roots()
    assert len(roots) > 300
    for sig, d in roots:
        verify_typing(sig, d)


def test_the_families_reach_every_rule_of_the_kernel():
    occurring = {_key(d) for _, root in _roots() for d, _ in _nodes(root)}
    assert occurring == {(kind.__name__, rule) for kind, rule in replay._RULES}


# ---------------------------------------------------------------------------
# Forged derivations


def test_forged_context_is_rejected():
    # The second arrow-i node of parity_plain.gl concludes
    # `fn x => snoc1 x : even -> odd`.  Retyped `odd -> odd`, with its body
    # premise claimed in `x : odd`, it would prove a program the checker
    # rejects: the premises of the body still read `x : even`.
    prog = load_program(program_path("parity_plain.gl"))
    root = typecheck_program(prog).derivation
    node = root.premises[1]
    assert node.rule == "arrow-i" and node.ty == parse_type("even -> odd")
    (body,) = node.premises
    odd = TAtom("odd")
    forged = replace(
        node,
        ty=parse_type("odd -> odd"),
        premises=(replace(body, ctx_entries=(VarDecl("x", odd),)),),
    )
    with pytest.raises(VerifyError, match="premise context differs"):
        verify_typing(prog.sig, forged)
    ill_typed = parse_program(PARITY + "val main : odd -> odd = fn x => snoc1 x")
    assert not typecheck_program(ill_typed).accepted


def test_a_bound_variable_must_be_new():
    # An arrow-i node in the context `x : even` may not bind x again: a
    # lookup of x in its body would find the outer declaration.
    prog = load_program(program_path("parity_plain.gl"))
    node = typecheck_program(prog).derivation.premises[1]
    outer = (VarDecl("x", TAtom("even")),)
    ctx2 = outer + node.premises[0].ctx_entries

    def moved(d):
        return replace(
            d, ctx_entries=outer + d.ctx_entries, premises=tuple(map(moved, d.premises))
        )

    forged = replace(moved(node), ctx_entries=outer)
    assert forged.premises[0].ctx_entries == ctx2
    with pytest.raises(VerifyError, match="already declared"):
        verify_typing(prog.sig, forged)


# ---------------------------------------------------------------------------
# The tamper suite: one field of one node changed at a time


def _swap(d, target, new, memo):
    """d with every occurrence of the node `target` replaced by `new`."""
    if d is target:
        return new
    if id(d) not in memo:
        ps = tuple(_swap(p, target, new, memo) for p in d.premises)
        changed = any(a is not b for a, b in zip(ps, d.premises))
        memo[id(d)] = replace(d, premises=ps) if changed else d
    return memo[id(d)]


def _mutants(d):
    """(field, node) for each one-field change of node d: its term, its
    type, one context entry, its witness and its branch.  The term and the
    type of a subtyping node are its two sides; those of a subsumption step
    are the telescope it carries and its goal."""
    zz = TAtom("zz")
    if type(d) is TypingDerivation:
        yield "term", replace(d, term=Var("zz") if type(d.term) is Unit else Unit())
        yield "type", replace(d, ty=zz if d.ty is not None else TUnit())
    elif type(d) is SubDerivation:
        yield "term", replace(d, lhs=zz)
        yield "type", replace(d, rhs=zz)
    else:
        yield "term", replace(d, inner=CtxTyping((), zz))
        yield "type", replace(d, goal=zz)
    ctx = d.ctx_entries
    if not ctx:
        entries = (VarDecl("zz", TUnit()),)
    elif type(ctx[-1]) is VarDecl:
        entries = ctx[:-1] + (VarDecl(ctx[-1].name, zz),)
    else:
        entries = ctx[:-1] + (IdxDecl(ctx[-1].name + "_", ctx[-1].sort),)
    yield "context", replace(d, ctx_entries=entries)
    if d.witness is not None:
        yield "witness", replace(d, witness=IAdd(d.witness, ILit(1)))
    if getattr(d, "branch", None) is not None:
        n = len(d.term.typings) if d.rule == "ctx-anno" else 2
        yield "branch", replace(d, branch=d.branch - 1 if d.branch == n else d.branch + 1)


def _still_valid(d, field: str, is_root: bool, under_typing: bool):
    """Why the change of `field` leaves node d a valid derivation, or None
    when it should not."""
    if field == "witness":
        if d.rule == "pi-e":
            var, body = d.premises[0].ty.var, d.premises[0].ty.body
        elif d.rule == "some":
            var, body = d.term.var, d.term.body
        elif d.rule == "pi-l":
            var, body = d.lhs.var, d.lhs.body
        else:  # an ivar step of a subsumption chain
            var = d.inner.entries[0].name
            body = CtxTyping(d.inner.entries[1:], d.inner.goal)
        if var not in free_vars(body, INDEX):
            return "the bound variable does not occur, so any witness instantiates it"
    if field == "branch":
        e = d.term
        same = alpha_eq(e.lhs, e.rhs) if d.rule != "ctx-anno" else all(
            alpha_eq(t, e.typings[0]) for t in e.typings
        )
        if same:
            return "the branches are the same, so either one derives the node"
    if field == "term" and type(d) is CtxSubDerivation and not under_typing:
        return (
            "a later step of a subsumption chain carries the rest of the telescope "
            "for display only: replay substitutes into the annotation's own typing"
        )
    if field == "context" and is_root and not d.premises:
        return "a rule without premises holds in a larger context"
    return None


def test_tamper_suite_rejects_every_changed_node():
    per_rule = 10
    sampled: dict = {}
    for sig, root in _roots():
        taken = set()
        for d, under_typing in _nodes(root):
            key = _key(d)
            if key in taken or len(sampled.setdefault(key, [])) >= per_rule:
                continue
            taken.add(key)
            sampled[key].append((sig, root, d, under_typing))
    rejected, skipped, wrong, n_rejected = {}, [], [], 0
    for key, cases in sampled.items():
        for sig, root, d, under_typing in cases:
            for field, bad in _mutants(d):
                try:
                    verify_typing(sig, _swap(root, d, bad, {}))
                except VerifyError:
                    rejected.setdefault(key, set()).add(field)
                    n_rejected += 1
                    continue
                reason = _still_valid(d, field, d is root, under_typing)
                if reason is None:
                    wrong.append((key, field))
                else:
                    skipped.append((key, field, reason))
    assert wrong == []
    # Every rule that occurs is covered: some change of one of its nodes is
    # rejected, and each change it survives is a valid derivation.
    assert set(rejected) == set(sampled)
    for key in sampled:
        assert {"term", "type", "context"} & rejected[key], key
    # The changes that leave a valid derivation are few, each with its reason.
    assert len(skipped) * 20 < n_rejected


# ---------------------------------------------------------------------------
# The instance matcher


@given(case=strategies.pi_instances())
@settings(max_examples=150)
def test_matcher_agrees_with_subst_and_alpha_eq(case):
    body, var, w, t = case
    assert inst_eq(body, t, var, w) == alpha_eq(subst(w, var, body), t)


def test_matcher_does_not_capture_the_witness():
    # [b/a](Pi b . list(a + b)) is Pi b1 . list(b + b1), not Pi b . list(b + b).
    body = parse_type("Pi b : int . list(a + b)")
    w = parse_type("list(b)").index
    assert inst_eq(body, parse_type("Pi c : int . list(b + c)"), "a", w)
    assert not inst_eq(body, parse_type("Pi b : int . list(b + b)"), "a", w)
    # A binder that shadows a stops the substitution.
    body = parse_type("Pi a : int . list(a)")
    assert inst_eq(body, body, "a", w)
    assert not inst_eq(body, parse_type("Pi a : int . list(b)"), "a", w)


# ---------------------------------------------------------------------------
# Layering


def _tree(name: str) -> ast.Module:
    with open(os.path.join(SRC, name)) as f:
        return ast.parse(f.read())


def test_replay_imports_only_syntax_indices_and_the_printer():
    internal, external = set(), set()
    for node in ast.walk(_tree("replay.py")):
        if isinstance(node, ast.ImportFrom):
            (internal if node.level else external).add(node.module)
        elif isinstance(node, ast.Import):
            external.update(a.name for a in node.names)
    assert internal == {"syntax", "indices", "parser"}
    assert external <= {"__future__", "dataclasses", "typing"}


def test_typecheck_imports_ctxanno_locally_only_in_synth():
    # The one function-local import left is the `case CtxAnno` of
    # `Checker._synth`.
    functions = []
    for top in _tree("typecheck.py").body:
        if isinstance(top, ast.FunctionDef):
            functions.append((None, top))
        elif isinstance(top, ast.ClassDef):
            functions += [(top.name, f) for f in top.body if isinstance(f, ast.FunctionDef)]
    found = [
        (owner, fn.name)
        for owner, fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom)
        and "ctxanno" in [node.module] + [a.name for a in node.names]
    ]
    assert found == [("Checker", "_synth")]
