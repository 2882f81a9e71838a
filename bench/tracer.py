"""A span tracer that wraps guardlang's functions from outside the package.

`Tracer.install` replaces each function in WRAPPED with a wrapper that
records a span (name, start, end, parent) or only counts calls, at the place
where guardlang looks the name up: a module global, or a class attribute for
methods.  Spans stay in memory, in flat arrays, until the run ends; self time
is a span's duration minus the time its child spans cover.  The calls and
counts made inside each of the benchmark's own spans (`Tracer.span`) are also
added up under that span's name, so that a metric can be taken from one step
of the pipeline, such as time-to-verdict, alone.  A wrapped name
that no longer exists is recorded in `missing`, and every metric that
depends on it is left out instead of failing.
"""

from __future__ import annotations

import importlib
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

SPAN = "span"  # one span per call
OUTERMOST = "outermost"  # recursive: one span for the outermost call only
GENERATOR = "generator"  # one span per resumption: the spans cover the whole
#                          iteration but not the consumer's work between items
COUNT = "count"  # calls counted, no span


@dataclass(frozen=True)
class Wrap:
    owner: str  # "module" or "module:Class"
    attr: str
    span: str  # span name; the patch points of one function share it
    layer: str
    kind: str = SPAN


P, T, S, C, I = (
    f"guardlang.{m}" for m in ("parser", "typecheck", "subtyping", "ctxanno", "interp")
)
CHECKER = T + ":Checker"
SEARCH = "typecheck.search"

WRAPPED = (
    Wrap(P, "parse_program", "parser.parse_program", "parser"),
    Wrap(T, "typecheck_program", "typecheck.typecheck_program", SEARCH),
    Wrap(C, "typecheck_program", "typecheck.typecheck_program", SEARCH),
    Wrap(T, "validate_program", "typecheck.validate_program", "typecheck.validate"),
    Wrap(CHECKER, "check", "typecheck.Checker.check", SEARCH),
    Wrap(CHECKER, "synth", "typecheck.Checker.synth", SEARCH),
    Wrap(CHECKER, "_check", "typecheck.Checker._check", SEARCH),
    Wrap(CHECKER, "_check_dispatch", "typecheck.Checker._check_dispatch", SEARCH, COUNT),
    Wrap(CHECKER, "_synth", "typecheck.Checker._synth", SEARCH, GENERATOR),
    Wrap(T, "pretty_term", "typecheck.pretty_term", "typecheck.fail_messages"),
    Wrap(T + ":TypingDerivation", "zonked", "typecheck.TypingDerivation.zonked",
         "typecheck.finalize", OUTERMOST),
    Wrap(CHECKER, "_unsolved_in", "typecheck.Checker._unsolved_in", "typecheck.finalize"),
    Wrap(T, "verify_typing", "typecheck.verify_typing", "typecheck.replay", OUTERMOST),
    Wrap(T, "subtype", "subtyping.subtype", "subtyping"),
    Wrap(C, "subtype", "subtyping.subtype", "subtyping"),
    Wrap(S + ":_Search", "sub", "subtyping._Search.sub", "subtyping", COUNT),
    Wrap(S + ":_Search", "_sub_dispatch", "subtyping._Search._sub_dispatch", "subtyping", COUNT),
    Wrap(S, "solve_meta", "indices.solve_meta", "indices"),
    Wrap(C, "solve_meta", "indices.solve_meta", "indices"),
    Wrap(S, "entails", "indices.entails", "indices"),
    Wrap(C, "entails", "indices.entails", "indices"),
    Wrap(C, "check_ctx_anno", "ctxanno.check_ctx_anno", "ctxanno", GENERATOR),
    Wrap(C, "encode_program", "ctxanno.encode_program", "ctxanno"),
    Wrap(C, "verify_encoding", "ctxanno.verify_encoding", "ctxanno"),
    Wrap(I, "erase", "interp.erase", "interp", OUTERMOST),
    Wrap(I, "evaluate", "interp.evaluate", "interp"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        # Counts read from guardlang's own result objects by the hooks below.
        self.counts: dict[str, float] = {}
        # Calls and counts made inside the benchmark's own spans, by span name.
        self.scoped: dict[str, tuple[dict[str, int], dict[str, float]]] = {}
        self.found: list[str] = []
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call fn inside a span; the benchmark's own calls use this.  The
        calls and counts made inside it are added up under `scoped[name]`."""
        calls0, counts0 = dict(self.calls), dict(self.counts)
        idx = self.open(self.name_id(name, layer))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)
            calls, counts = self.scoped.setdefault(name, ({}, {}))
            for total, now, before in ((calls, self.calls, calls0),
                                       (counts, self.counts, counts0)):
                for key, value in now.items():
                    total[key] = total.get(key, 0) + value - before.get(key, 0)

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrappers ---------------------------------------------------------------

    def _wrapper(self, w: Wrap, fn):
        nid = self.name_id(w.span, w.layer)
        name = w.span
        calls = self.calls
        calls.setdefault(name, 0)

        if w.kind == COUNT:

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        if w.kind == GENERATOR:

            def generator(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self.open(nid)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self.close(idx)
                        yield item
                finally:
                    it.close()

            return generator

        hook = _HOOKS.get(name)
        depth = self._depth
        depth.setdefault(name, 0)
        outermost = w.kind == OUTERMOST

        def spanned(*args, **kwargs):
            calls[name] += 1
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            done = hook(self, kwargs) if hook else None
            depth[name] += 1
            idx = self.open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(idx)
                depth[name] -= 1
            if done is not None:
                done(res)
            return res

        return spanned

    def install(self) -> None:
        for w in WRAPPED:
            owner = _resolve(w.owner)
            fn = getattr(owner, w.attr, None) if owner is not None else None
            label = f"{w.owner}.{w.attr}"
            if fn is None:
                self.missing.append(label)
                continue
            self.found.append(label)
            self._patches.append((owner, w.attr, fn))
            setattr(owner, w.attr, self._wrapper(w, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def has(self, span: str) -> bool:
        """Whether a patch point of this span name was found."""
        return any(
            f"{w.owner}.{w.attr}" in self.found for w in WRAPPED if w.span == span
        )

    # -- aggregation ------------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def _under(self, root: Optional[str]) -> list[bool]:
        """Which spans lie under a root span of the given name (all if None)."""
        n = len(self.start)
        if root is None:
            return [True] * n
        rid = self._ids.get(root)
        keep = [False] * n
        for i in range(n):  # a parent precedes its children
            p = self.parent[i]
            keep[i] = self.name_of[i] == rid or (p >= 0 and keep[p])
        return keep

    def durations(self, name: str) -> list[float]:
        """Seconds of each span of the given name, in the order they opened."""
        nid = self._ids.get(name)
        return [self.end[i] - self.start[i]
                for i in range(len(self.start)) if self.name_of[i] == nid]

    def inclusive(self, root: Optional[str] = None) -> dict[str, float]:
        """Seconds by span name, children included, over all spans or only
        over the spans under root spans of the given name."""
        keep = self._under(root)
        out: dict[str, float] = {}
        for i in range(len(self.start)):
            if keep[i]:
                name = self.names[self.name_of[i]]
                out[name] = out.get(name, 0.0) + self.end[i] - self.start[i]
        return out

    def self_by_layer(self, root: Optional[str] = None) -> dict[str, float]:
        """Self seconds by layer, over all spans or only over the spans under
        root spans of the given name."""
        selfs = self.self_times()
        keep = self._under(root)
        out: dict[str, float] = {}
        for i, s in enumerate(selfs):
            if keep[i]:
                layer = self.layers[self.name_of[i]]
                out[layer] = out.get(layer, 0.0) + s
        return out


# ---------------------------------------------------------------------------
# Counts read from guardlang's own objects.  A hook runs before the call and
# returns a function that takes the call's result, or None.


def _subtype_hook(tr: Tracer, kwargs):
    stats = kwargs.get("stats")
    if stats is None:
        return None
    rules, backtracks = stats.rule_applications, stats.backtracks

    def done(res):
        tr.count("subtyping.rules", stats.rule_applications - rules)
        tr.count("subtyping.backtracks", stats.backtracks - backtracks)
        if type(res).__name__ == "Fail":
            tr.count("subtyping.fails", 1)

    return done


def _typecheck_program_hook(tr: Tracer, kwargs):
    def done(report):
        st = report.stats
        tr.count("rules", st.rule_applications)
        tr.count("backtracks", st.backtracks)
        tr.count("subtype_queries", st.subtype_queries)

    return done


def _evaluate_hook(tr: Tracer, kwargs):
    return lambda res: tr.count("interp.steps", res.steps)


_HOOKS = {
    "subtyping.subtype": _subtype_hook,
    "typecheck.typecheck_program": _typecheck_program_hook,
    "interp.evaluate": _evaluate_hook,
}


# The benchmark's own spans, one per step of the pipeline (see run.py).
VERDICT, CERTIFY, RUN, DESUGAR = (
    f"bench.{step}" for step in ("verdict", "certify", "run", "desugar")
)


def layer_metrics(
    tr: Tracer, programs: int, extra: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; sums are divided by the number of programs.

    Each metric is taken from the step whose end-to-end metric it explains:
    the parser, checker, subtyping and indices metrics from time-to-verdict
    only, so that the checks that `verify_encoding` repeats are not counted,
    the replay metric from certify, the `ctxanno` encoding metrics from
    desugar and the `interp` metrics from run.  `extra` holds what only the
    benchmark loop knows: bytes parsed, derivation nodes and the derivation
    sizes of contextual programs before and after encoding.  A metric is
    left out when a wrapped name it needs was not found.
    """
    incl = {step: tr.inclusive(step) for step in (VERDICT, CERTIFY, RUN, DESUGAR)}
    c, k = tr.scoped.get(VERDICT, ({}, {}))
    steps = tr.scoped.get(RUN, ({}, {}))[1].get("interp.steps", 0)
    n = max(programs, 1)

    def ms(step: str, *spans: str) -> float:
        return sum(incl[step].get(s, 0.0) for s in spans) * 1000 / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_program(key: str, table: dict) -> float:
        return table.get(key, 0) / n

    parse, validate = "parser.parse_program", "typecheck.validate_program"
    tcp, sub = "typecheck.typecheck_program", "subtyping.subtype"
    check, dispatch = "typecheck.Checker._check", "typecheck.Checker._check_dispatch"
    zonked, unsolved = "typecheck.TypingDerivation.zonked", "typecheck.Checker._unsolved_in"
    search_sub, sub_dispatch = "subtyping._Search.sub", "subtyping._Search._sub_dispatch"
    fail_msg, replay = "typecheck.pretty_term", "typecheck.verify_typing"
    solve, entails = "indices.solve_meta", "indices.entails"
    ctx, encode = "ctxanno.check_ctx_anno", "ctxanno.encode_program"
    verify = "ctxanno.verify_encoding"
    erase, evaluate = "interp.erase", "interp.evaluate"
    rows = [
        # name, value, unit, wrapped span names the value needs
        (parse + ".ms", ms(VERDICT, parse), "ms", [parse]),
        ("parser.bytes_per_ms", ratio(extra.get("bytes_parsed", 0), ms(VERDICT, parse) * n),
         "bytes/ms", [parse]),
        (validate + ".ms", ms(VERDICT, validate), "ms", [validate]),
        ("typecheck.search.self_ms", tr.self_by_layer(VERDICT).get(SEARCH, 0.0) * 1000 / n,
         "ms", [tcp, check, "typecheck.Checker._synth", sub, fail_msg, ctx, zonked, unsolved]),
        ("typecheck.typing_rules", per_program("rules", k) - per_program("subtyping.rules", k),
         "count", [tcp, sub]),
        ("typecheck.backtracks",
         per_program("backtracks", k) - per_program("subtyping.backtracks", k),
         "count", [tcp, sub]),
        ("typecheck.memo_hit_ratio", 1 - ratio(c.get(dispatch, 0), c.get(check, 0)),
         "ratio", [check, dispatch]),
        ("typecheck.fail_messages.calls", per_program(fail_msg, c), "count", [fail_msg]),
        ("typecheck.fail_messages.ms", ms(VERDICT, fail_msg), "ms", [fail_msg]),
        ("typecheck.finalize.ms", ms(VERDICT, zonked, unsolved), "ms", [zonked, unsolved]),
        ("typecheck.derivation_nodes", per_program("derivation_nodes", extra), "count", [tcp]),
        (replay + ".ms", ms(CERTIFY, replay), "ms", [replay]),
        (sub + ".ms", ms(VERDICT, sub), "ms", [sub]),
        (sub + ".calls", per_program(sub, c), "count", [sub]),
        ("subtyping.rules", per_program("subtyping.rules", k), "count", [sub]),
        ("subtyping.fail_ratio", ratio(k.get("subtyping.fails", 0), c.get(sub, 0)),
         "ratio", [sub]),
        ("subtyping.memo_hit_ratio", 1 - ratio(c.get(sub_dispatch, 0), c.get(search_sub, 0)),
         "ratio", [search_sub, sub_dispatch]),
        (solve + ".calls", per_program(solve, c), "count", [solve]),
        (solve + ".ms", ms(VERDICT, solve), "ms", [solve]),
        (entails + ".calls", per_program(entails, c), "count", [entails]),
        (ctx + ".ms", ms(VERDICT, ctx), "ms", [ctx]),
        (encode + ".ms", ms(DESUGAR, encode), "ms", [encode]),
        (verify + ".ms", ms(DESUGAR, verify), "ms", [verify]),
        ("ctxanno.size_ratio",
         ratio(extra.get("encoded_nodes", 0), extra.get("contextual_nodes", 0)),
         "ratio", [verify]),
        (erase + ".ms", ms(RUN, erase), "ms", [erase]),
        (evaluate + ".ms", ms(RUN, evaluate), "ms", [evaluate]),
        ("interp.steps", steps / n, "count", [evaluate]),
        ("interp.ms_per_step", ratio(ms(RUN, evaluate) * n, steps), "ms", [evaluate]),
    ]
    return {
        name: (value, unit)
        for name, value, unit, needs in rows
        if all(tr.has(s) for s in needs)
    }
