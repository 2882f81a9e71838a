"""The replay kernel (`guardlang.replay`): it accepts every derivation the
checker builds, rejects each derivation with one node tampered with, matches
Pi instances as `subst` plus `alpha_eq` would, and imports nothing of the
search."""

import ast
import copy
import functools
import os
import pickle
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings

import strategies
from conftest import ACCEPTED_PROGRAMS, REJECTED_PROGRAMS, program_path
from helpers import (
    KWAY_VARIANTS,
    gen_ctxanno_program,
    idx_chain_program,
    kway_program,
    load_program,
)
from guardlang import replay
from guardlang.ctxanno import encode_program
from guardlang.parser import parse_program, parse_term, parse_type
from guardlang.replay import (
    SubDerivation,
    TypingDerivation,
    VerifyError,
    inst_eq,
    verify_typing,
)
from guardlang.subtyping import subtype
from guardlang.syntax import (
    INDEX,
    INT,
    IAdd,
    IMeta,
    IdxDecl,
    ILit,
    IndexSort,
    MetaStore,
    Node,
    TAtom,
    TCon,
    TUnit,
    Unit,
    Var,
    VarDecl,
    alpha_eq,
    children,
    free_vars,
    spine,
    subst,
)
from guardlang.typecheck import Checker, _check_program, typecheck_program

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
# rules the typing search never asks (arrow, sect-r, pi-r and pi-l), and for
# sect-l beyond conjunct 1, up to conjunct 3 of a 3-ary intersection.
EXTRA_SUBTYPINGS = [
    (PARITY, "(odd -> even) /\\ (even -> odd)", "(odd -> bits) /\\ (even -> bits)"),
    (PARITY, "even /\\ bits /\\ odd", "odd"),
    (IDCAST, LIST_ID, "Pi b : int . list(b*2) -> list(b*2)"),
]


def _nodes(root):
    """Each distinct node of a derivation once."""
    seen: dict = {}
    stack = [root]
    while stack:
        d = stack.pop()
        if id(d) not in seen:
            seen[id(d)] = d
            stack.extend(d.premises)
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
    occurring = {_key(d) for _, root in _roots() for d in _nodes(root)}
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
    type, one context entry, its witness, its branch, its premises reversed
    and its rule renamed.  The term and the type of a subtyping node are its
    two sides.  The new rule is the first other rule of the kernel for the
    same kind of node and of premises, so that its check runs."""
    zz = TAtom("zz")
    if type(d) is TypingDerivation:
        yield "term", replace(d, term=Var("zz") if type(d.term) is Unit else Unit())
        yield "type", replace(d, ty=zz if d.ty is not None else TUnit())
    else:
        yield "term", replace(d, lhs=zz)
        yield "type", replace(d, rhs=zz)
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
        n = len(_branches(d))
        yield "branch", replace(d, branch=d.branch - 1 if d.branch == n else d.branch + 1)
    if len(d.premises) > 1:
        yield "premises", replace(d, premises=d.premises[::-1])
    kinds = tuple(map(type, d.premises))
    for kind, rule in replay._RULES:
        if kind is type(d) and rule != d.rule and replay._RULES[kind, rule][1] == kinds:
            yield "rule", replace(d, rule=rule)
            break


def _branches(d) -> list:
    """The alternatives that d's `branch` indexes: its typings, its merge's
    branches, or the conjuncts of the intersection it projects."""
    if d.rule == "ctx-anno":
        return list(d.term.typings)
    if d.rule == "sect-e":
        return spine(d.premises[0].ty)
    return spine(d.lhs if d.rule == "sect-l" else d.term)


def _still_valid(d, field: str, is_root: bool):
    """Why the change of `field` leaves node d a valid derivation, or None
    when it should not."""
    if field == "witness":
        if d.rule == "pi-e":
            var, body = d.premises[0].ty.var, d.premises[0].ty.body
        elif d.rule == "some":
            var, body = d.term.var, d.term.body
        else:  # pi-l
            var, body = d.lhs.var, d.lhs.body
        if var not in free_vars(body, INDEX):
            return "the bound variable does not occur, so any witness instantiates it"
    if field == "branch":
        n, k = len(_branches(d)), d.branch
        alt = _branches(d)[k - 2 if k == n else k]
        if alpha_eq(alt, _branches(d)[k - 1]):
            return "the branches are the same, so either one derives the node"
    if field == "context" and is_root and not d.premises:
        return "a rule without premises holds in a larger context"
    if field == "premises":
        (a, b), (c, e) = map(replay._sides, d.premises)
        if alpha_eq(a, c) and alpha_eq(b, e):
            return "the premises conclude the same judgment"
    if field == "rule" and not d.premises and alpha_eq(*replay._sides(d)):
        return "equal sides hold by refl, and by atom and ilr where those apply"
    return None


def test_tamper_suite_rejects_every_changed_node():
    per_rule = 10
    sampled: dict = {}
    for sig, root in _roots():
        taken = set()
        for d in _nodes(root):
            key = _key(d)
            if key in taken or len(sampled.setdefault(key, [])) >= per_rule:
                continue
            taken.add(key)
            sampled[key].append((sig, root, d))
    rejected, skipped, wrong, n_rejected = {}, [], [], 0
    for key, cases in sampled.items():
        for sig, root, d in cases:
            for field, bad in _mutants(d):
                try:
                    verify_typing(sig, _swap(root, d, bad, {}))
                except VerifyError:
                    rejected.setdefault(key, set()).add(field)
                    n_rejected += 1
                    continue
                reason = _still_valid(d, field, d is root)
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


# Rejections the tamper suite does not reach, each by its own message.


def _guard_case(evidence: str, goal: str):
    """The guard-chk node of `where x : odd do y` checked against odd under
    x : odd, y : odd, with its evidence replaced by a derivation of
    `evidence <= goal`."""
    sig = parse_program(PARITY + "val main = ()").sig
    checker = Checker(sig)
    odd = TAtom("odd")
    ctx = checker.fresh_ctx().extend(VarDecl("x", odd)).extend(VarDecl("y", odd))
    d = checker.check(ctx, parse_term("where x : odd do y"), odd)
    ev = checker.check(ctx, Var(evidence), TAtom(goal))
    assert d.rule == "guard-chk" and ev.rule == "sub"
    return sig, replace(d, premises=(ev, d.premises[1]))


def _changed(text: str, **fields):
    """(signature, the root of text's derivation with `fields` changed); each
    new value is a function of the root."""
    prog = parse_program(text)
    d = typecheck_program(prog).derivation
    return prog.sig, replace(d, **{k: f(d) for k, f in fields.items()})


def _arrow_sub_case():
    header, a, b = EXTRA_SUBTYPINGS[0]
    sig = parse_program(header + "val main = ()").sig
    d = subtype(Checker(sig).fresh_ctx(), parse_type(a), parse_type(b))
    (node,) = [n for n in _nodes(d) if n.rule == "arrow" and n.lhs.res == TAtom("even")]
    return sig, replace(node, rhs=parse_type("odd -> odd"))


TARGETED = {
    "not-a-derivation": (lambda: (None, Unit()), r"^not a derivation: Unit\(\)$"),
    "unknown-rule": (
        lambda: _changed(PARITY + "val main : odd -> even = snoc1", rule=lambda d: "zz"),
        r"^unknown rule 'zz'$",
    ),
    "premises-of-the-wrong-kind": (
        lambda: _changed(
            PARITY + "val main : odd -> bits = snoc1", premises=lambda d: d.premises[::-1]
        ),
        r"^\[sub\] premises of the wrong kind: snoc1$",
    ),
    "var-not-in-context": (
        lambda: (None, TypingDerivation("var", "synth", (), Var("x"), TAtom("odd"))),
        r"^\[var\] context lookup differs: x$",
    ),
    "arrow-i-bound-type": (
        lambda: _changed(
            PARITY + "val main : even -> even = fn x => x",
            ty=lambda d: parse_type("odd -> even"),
        ),
        r"^\[arrow-i\] bound variable type or premise: ",
    ),
    "guard-evidence-about-another-variable": (
        lambda: _guard_case("y", "odd"),
        r"^\[guard-chk\] guard evidence is about another variable: ",
    ),
    "guard-evidence-of-another-type": (
        lambda: _guard_case("x", "bits"),
        r"^\[guard-chk\] guard evidence does not check the subject: ",
    ),
    "pi-i-explicit-sort": (
        lambda: _changed(
            EXTRA_PROGRAMS[0], term=lambda d: replace(d.term, sort=IndexSort("nat"))
        ),
        r"^\[pi-i-explicit\] bound sort: idxfn a : nat => ",
    ),
    "pi-i-explicit-premise": (
        lambda: _changed(
            EXTRA_PROGRAMS[0], ty=lambda d: parse_type("Pi a : int . list(a) -> list(a+1)")
        ),
        r"^\[pi-i-explicit\] premise: ",
    ),
    "arrow-sub-premises": (_arrow_sub_case, r"^\[arrow\] arrow premise mismatch$"),
}


@pytest.mark.parametrize("case", sorted(TARGETED))
def test_targeted_rejection(case):
    build, message = TARGETED[case]
    sig, d = build()
    with pytest.raises(VerifyError, match=message):
        verify_typing(sig, d)


@pytest.mark.parametrize("n", [3, 4])
def test_n_ary_merge_replays_at_every_branch(psig, n):
    # Under x : odd, goal k checks first by branch k of the merge
    # `(() : unit) ,, (fn y => y) ,, x ,, snoc1` cut to n branches, and
    # synthesis gives its branches 1, 3 and 4.  Each node replays at its
    # own branch and at no other index, 0 and n + 1 included.
    branches = ["(() : unit)", "(fn y => y)", "x", "snoc1"][:n]
    term = parse_term(" ,, ".join(branches), prims=frozenset(psig.prims))
    checker = Checker(psig)
    ctx = checker.fresh_ctx().extend(VarDecl("x", TAtom("odd")))
    goals = ["unit", "odd -> odd", "odd", "odd -> even"][:n]
    nodes = [checker.check(ctx, term, parse_type(g)) for g in goals]
    nodes += [d for _, d in checker.synth(ctx, term) if d.rule == "merge-syn"]
    assert [(d.rule, d.branch) for d in nodes] == (
        [("merge-chk", k) for k in range(1, n + 1)]
        + [("merge-syn", k) for k in (1, 3, 4)[: n - 1]]
    )
    for d in nodes:
        verify_typing(psig, d)
        for k in range(n + 2):
            if k != d.branch:
                with pytest.raises(VerifyError, match="premise is not the branch"):
                    verify_typing(psig, replace(d, branch=k))


@pytest.mark.parametrize("n", [3, 4])
def test_n_ary_intersection_replays_at_every_conjunct(n):
    # step : /\_i (c_i -> c_{i+1 mod n}) of kway(n).  Applied to x : c_{k-1},
    # it is eliminated at conjunct k by one sect-e node, and it is a subtype
    # of conjunct k by one sect-l node.  Each node replays at its own
    # conjunct and at no other index, 0 and n + 1 included.
    wrong = "projection differs|sect-l premise"  # the two rules' messages
    sig = kway_program(n, "plain").sig
    step = sig.prims["step"]
    app = parse_term("step x", prims=frozenset(sig.prims))
    checker = Checker(sig)
    nodes = []
    for conjunct in spine(step):
        ctx = checker.fresh_ctx().extend(VarDecl("x", conjunct.arg))
        ((_, d),) = checker.synth(ctx, app)
        nodes += [d.premises[0], subtype(ctx, step, conjunct)]
    assert [(d.rule, d.branch) for d in nodes] == [
        (rule, k) for k in range(1, n + 1) for rule in ("sect-e", "sect-l")
    ]
    for d in nodes:
        verify_typing(sig, d)
        for k in range(n + 2):
            if k != d.branch:
                with pytest.raises(VerifyError, match=wrong):
                    verify_typing(sig, replace(d, branch=k))


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
# Derivation records and their metavariable bit


def _reaches_meta(x, memo: dict) -> bool:
    """The reference: whether an IMeta is reachable from x, by a walk of
    every field of every derivation and every syntax node below it."""
    if id(x) not in memo:
        if type(x) is tuple:
            out = any(_reaches_meta(y, memo) for y in x)
        elif isinstance(x, Node):
            out = type(x) is IMeta or any(_reaches_meta(c, memo) for c in children(x))
        elif isinstance(x, DERIVATIONS):
            out = any(_reaches_meta(getattr(x, f.name), memo) for f in fields(x))
        else:
            out = False  # names, sorts, numbers, absent fields
        memo[id(x)] = (x, out)  # x is kept alive while its id is a key
    return memo[id(x)][1]


DERIVATIONS = (TypingDerivation, SubDerivation)


class _Recording(Checker):
    """A checker that keeps every derivation its search returns: checked
    results, and synthesized candidates as they are yielded."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.returned = []

    def _check(self, ctx, e, ty):
        res = super()._check(ctx, e, ty)
        if isinstance(res, DERIVATIONS):
            self.returned.append(res)
        return res

    def _synth(self, ctx, e, fails):
        for ty, d in super()._synth(ctx, e, fails):
            self.returned.append(d)
            yield ty, d


def _bit_programs():
    progs = [load_program(program_path(n)) for n in ACCEPTED_PROGRAMS + REJECTED_PROGRAMS]
    progs += [kway_program(k, v) for k in (2, 5) for v in KWAY_VARIANTS]
    progs += [idx_chain_program(n) for n in range(1, 7)]
    return progs + [parse_program(text) for text in EXTRA_PROGRAMS]


def test_the_bit_of_every_derivation_is_an_occurrence_below():
    stored, bits = 0, {True: 0, False: 0}
    for prog in _bit_programs():
        checker = _Recording(prog.sig, max_depth=10**5)
        report = _check_program(checker, prog)
        roots = checker.returned + [report.derivation] * report.accepted
        for events in checker._synth_memo.values():
            cands = [ev[1] for ev in events if type(ev) is tuple]
            assert not any(d._metas for d in cands)  # stored only when ground
            roots += cands
            stored += len(cands)
        memo: dict = {}
        for root in roots:
            for d in _nodes(root):
                assert d._metas == _reaches_meta(d, memo), (d.rule, prog.path)
                bits[d._metas] += 1
        if report.accepted:
            assert not report.derivation._metas
    # The candidate memo was used, and both values of the bit occur.
    assert stored and bits[True] and bits[False]


def test_replace_recomputes_the_bit():
    store = MetaStore()
    m = store.fresh(INT, frozenset())
    ground = TypingDerivation("unit-i", "check", (), Unit(), TUnit())
    some = TypingDerivation("some", "check", (), Unit(), TUnit(), (ground,), witness=m)
    assert not ground._metas and some._metas
    assert not replace(some, witness=ILit(1))._metas
    assert replace(ground, ty=TCon("list", m))._metas
    assert replace(ground, ctx_entries=(VarDecl("x", TCon("list", m)),))._metas
    assert replace(ground, premises=(some,))._metas
    sub = SubDerivation("ilr", (), TCon("list", m), TCon("list", ILit(1)))
    assert sub._metas and not replace(sub, lhs=TCon("list", ILit(1)))._metas


def test_records_are_slotted_and_compare_by_their_fields():
    d = TypingDerivation("unit-i", "check", (), Unit(), TUnit())
    assert not hasattr(d, "__dict__")
    assert d == TypingDerivation("unit-i", "check", (), Unit(), TUnit())
    assert d != replace(d, mode="synth") and hash(d) == hash(replace(d))
    for y in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert y == d and y._metas == d._metas


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
