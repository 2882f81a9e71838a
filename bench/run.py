"""The guardlang benchmark: time to verdict, certify, run and desugar.

Run from the root of a checkout:

    python3 bench/run.py --workload search --seed 1 --seconds 22 --trace 0

One process, one client, closed loop: the next program is sent when the
previous one has finished.  Between programs the loop runs a fixed
calibration kernel (`calibrate.py`) and scales every timing to one fixed host
speed, because the host's own speed drifts.  Each program goes through the
entry points a user calls: `parse_program` + `typecheck_program`
(`guardlang check`), then, if accepted, `verify_typing` (certify),
`erase` + `evaluate` (`guardlang eval`) and `encode_program` +
`verify_encoding` (`guardlang desugar --verify`).  Every output is checked against the
program's known answer.  With `--trace 0` the end-to-end metrics are
printed; with `--trace 1` the same loop runs with guardlang's functions
wrapped by the tracer, and the per-layer metrics are printed.  The last line
of standard output is one JSON object; the exit code is 1 when any check
failed and 2 when guardlang cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import calibrate
import workloads
from tracer import CERTIFY, DESUGAR, RUN, VERDICT, Tracer, layer_metrics

# Search budget (`max_depth`) of the timed runs: no generated well-typed
# program comes near it (idx-chain(10), the largest, needs about 6k).
TIMING_BUDGET = 1_000_000
EVAL_FUEL = 100_000
# Set-ups per run, half at each end of it: the host's speed drifts.
SETUP_REPEATS = 20
# A timed run begins no pass that would end after WALL_CAP * --seconds of
# wall time, so that a very slow host cannot stretch a run without bound.
WALL_CAP = 2.5
MODULES = ("syntax", "parser", "typecheck", "ctxanno", "interp")


class SetupError(Exception):
    pass


def load_guardlang(src: str):
    """Import guardlang from src afresh, so that each call pays the import."""
    for name in [m for m in sys.modules if m == "guardlang" or m.startswith("guardlang.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    gl = importlib.import_module("guardlang")
    if os.path.dirname(os.path.abspath(gl.__file__)) != os.path.join(src, "guardlang"):
        raise SetupError(f"guardlang was imported from {gl.__file__}, not {src}")
    return {m: importlib.import_module(f"guardlang.{m}") for m in MODULES}


def setup(root: str, workload: str, seed: int):
    """Import guardlang and generate the inputs; the benchmark's set-up."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "guardlang", "__init__.py")):
        raise SetupError(f"no guardlang package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    mods = load_guardlang(src)
    try:
        pool = workloads.pool(workload, seed, os.path.join(root, "programs"))
    except OSError as ex:
        raise SetupError(f"cannot read the corpus: {ex}") from None
    return mods, pool


# ---------------------------------------------------------------------------
# One program through the pipeline


@dataclass
class Sample:
    case: workloads.Case
    verdict_ms: float = 0.0
    total_ms: float = 0.0  # every step and check of this program
    certify_ms: Optional[float] = None
    run_ms: Optional[float] = None
    desugar_ms: Optional[float] = None
    problems: list[str] = field(default_factory=list)
    # derivation sizes (contextual, encoded) from verify_encoding
    sizes: Optional[tuple[int, int]] = None


def _expected_value(mods, prog, text: str):
    bits = frozenset(re.findall(r"\bb[01]+\b", text))
    return mods["parser"].parse_term(text, prims=frozenset(prog.sig.prims) | bits)


def run_case(mods, case: workloads.Case, span) -> Sample:
    """Send one program through every entry point that applies and check
    each result.  `span(name, fn, *args)` calls fn, traced or not."""
    syntax, parser, typecheck, ctxanno, interp = (mods[m] for m in MODULES)
    clock = time.perf_counter
    s = Sample(case)
    start = clock()
    try:
        t0 = clock()
        prog, report = span(VERDICT, _verdict, parser, typecheck, case.source, case.name)
        s.verdict_ms = (clock() - t0) * 1000
        if report.verdict != case.verdict:
            s.problems.append(f"verdict {report.verdict}, expected {case.verdict}")
        if not report.accepted:
            return s
        t0 = clock()
        span(CERTIFY, typecheck.verify_typing, prog.sig, report.derivation)
        s.certify_ms = (clock() - t0) * 1000

        t0 = clock()
        try:
            result = span(RUN, _run, interp, prog.main)
        except interp.MergeMismatchError:
            result = None
        s.run_ms = (clock() - t0) * 1000
        if case.value == workloads.MERGE_MISMATCH:
            if result is not None:
                s.problems.append("eval: expected a merge mismatch")
        elif result is None or result.outcome != "value":
            s.problems.append(f"eval: {result.outcome if result else 'merge mismatch'}")
        elif not syntax.alpha_eq(result.term, _expected_value(mods, prog, case.value)):
            s.problems.append(f"eval: value differs from {case.value}")

        t0 = clock()
        check = span(DESUGAR, _desugar, ctxanno, prog)
        s.desugar_ms = (clock() - t0) * 1000
        if check.encoded is None:
            s.problems.append("desugar: original program rejected")
        else:
            s.sizes = check.sizes
    except Exception as ex:  # any exception is a failed program, not a crash
        s.problems.append(f"{type(ex).__name__}: {ex}")
        s.problems.append(traceback.format_exc(limit=-3))
    s.total_ms = (clock() - start) * 1000
    return s


def _verdict(parser, typecheck, source: str, name: str):
    prog = parser.parse_program(source, name)
    return prog, typecheck.typecheck_program(prog, max_depth=TIMING_BUDGET)


def _run(interp, main):
    return interp.evaluate(interp.erase(main), fuel=EVAL_FUEL)


def _desugar(ctxanno, prog):
    ctxanno.encode_program(prog)
    return ctxanno.verify_encoding(prog, max_depth=TIMING_BUDGET)


def _untraced(name, fn, *args):
    return fn(*args)


def closed_loop(mods, pool, seconds: float, span, kernel_ms=None):
    """Whole passes over the pool; a partial pass would over-weight the
    programs at the front of the order.

    Without `kernel_ms`, the passes go on until `seconds` have gone by.  With
    a `kernel_ms` list, the calibration kernel runs after every program, the
    list of its times is appended there, and the passes go on until the
    programs' own time, scaled to the reference speed, adds up to `seconds`.
    So the number of passes does not depend on the host's speed.  A pass is
    not begun if it would end after WALL_CAP * `seconds`.
    Returns the samples and the wall time in seconds."""
    samples: list[Sample] = []
    busy = 0.0
    gc.collect()
    t0 = pass_start = time.perf_counter()
    while True:
        for case in pool:
            s = run_case(mods, case, span)
            samples.append(s)
            if kernel_ms is not None:
                runs = calibrate.after(s.total_ms)
                kernel_ms.append(runs)
                busy += s.total_ms / 1000 * calibrate.scale(statistics.median(runs))
        now = time.perf_counter()
        wall, last_pass, pass_start = now - t0, now - pass_start, now
        if (busy if kernel_ms is not None else wall) >= seconds:
            return samples, wall
        if wall + last_pass > WALL_CAP * seconds:
            return samples, wall


def default_budget_correct(mods, pool) -> float:
    """Share of distinct programs whose verdict at the default budget is the
    known answer.  Budget exhaustion is reported as reject today, so the
    large well-typed programs count as wrong."""
    parser, typecheck = mods["parser"], mods["typecheck"]
    good = 0
    distinct = {c.source: c for c in pool}
    for case in distinct.values():
        report = typecheck.typecheck_program(parser.parse_program(case.source, case.name))
        good += report.verdict == case.verdict
    return good / len(distinct)


# ---------------------------------------------------------------------------
# Statistics


def tail(values: list[float]) -> tuple[float, str]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), and its name."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], "max"
    p = 99
    while n - math.ceil(p * n / 100) < 10:
        p -= 1
    return xs[math.ceil(p * n / 100) - 1], f"p{p}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()

    def timed_setups(count: int) -> list[float]:
        """Set-up times in s, each scaled by the kernel run around it."""
        out = []
        for _ in range(count):
            before = calibrate.kernel()
            t0 = time.perf_counter()
            setup(root, args.workload, args.seed)
            sec = time.perf_counter() - t0
            near = statistics.median([before, calibrate.kernel(), calibrate.kernel()])
            out.append(sec * calibrate.scale(near))
        return out

    try:
        setups = timed_setups(SETUP_REPEATS // 2)
        mods, pool = setup(root, args.workload, args.seed)
    except (SetupError, ImportError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, samples = traced(mods, pool, args.seconds)
    else:
        budget_frac = default_budget_correct(mods, pool)  # also warms up
        kernel_ms: list[list[float]] = []
        samples, _ = closed_loop(mods, pool, args.seconds, _untraced, kernel_ms)
        metrics = end_to_end(samples, calibrate.scales(kernel_ms), budget_frac)
        runs = [ms for near in kernel_ms for ms in near]
        print(f"host speed: calibration kernel median {statistics.median(runs):.3f} ms "
              f"over {len(runs)} runs (reference {calibrate.REFERENCE_MS} ms; quartiles "
              + ", ".join(f"{q:.3f}" for q in statistics.quantiles(runs, n=4)) + ")")
        setups += timed_setups(SETUP_REPEATS - len(setups))
        metrics["setup_s"] = (statistics.median(setups), "s")
        print(f"setup_s = {metrics['setup_s'][0]:.4f} s (median of {len(setups)})")

    failed = [s for s in samples if s.problems]
    print(f"workload {args.workload}, seed {args.seed}: {len(pool)} distinct programs, "
          f"{len(samples)} attempted, budget max_depth={TIMING_BUDGET}, fuel={EVAL_FUEL}")
    print(f"failed_frac = {len(failed) / len(samples):.4f} ({len(failed)} of {len(samples)})")
    for s in failed[:10]:
        print(f"FAILED {s.case.name}: {s.problems[0]}", file=sys.stderr)
        for p in s.problems[1:]:
            print(p, file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failed else 0


def end_to_end(samples: list[Sample], scales: list[float], budget_frac: float):
    """The timed metrics, each program's times multiplied by its scale
    (`calibrate.scales`).  The lines for a human reader give the unscaled
    median too."""
    def times(attr, scaled=True):
        return [getattr(s, attr) * (k if scaled else 1.0)
                for s, k in zip(samples, scales) if getattr(s, attr) is not None]

    verdict = times("verdict_ms")
    tail_ms, tail_name = tail(verdict)
    busy_s = sum(times("total_ms")) / 1000
    out = {
        "verdict_ms.p50": (statistics.median(verdict), "ms"),
        "verdict_ms.tail": (tail_ms, "ms"),
        "programs_per_s": (len(samples) / busy_s, "1/s"),
    }
    print(f"programs_per_s = {out['programs_per_s'][0]:.4f} 1/s "
          f"({len(samples)} programs in {busy_s:.2f} s at the reference speed, "
          f"{sum(times('total_ms', False)) / 1000:.2f} s measured)")
    for key, attr in (("verdict_ms.p50", "verdict_ms"), ("certify_ms.p50", "certify_ms"),
                      ("run_ms.p50", "run_ms"), ("desugar_ms.p50", "desugar_ms")):
        xs = times(attr)
        out[key] = (statistics.median(xs), "ms")
        print(f"{key} = {out[key][0]:.4f} ms (n={len(xs)}; "
              f"{statistics.median(times(attr, False)):.4f} ms measured)")
        if key == "verdict_ms.p50":
            print(f"verdict_ms.tail = {tail_ms:.4f} ms ({tail_name} of n={len(verdict)})")
    out["default_budget_correct_frac"] = (budget_frac, "ratio")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    for key in ("default_budget_correct_frac", "peak_rss_mb"):
        print(f"{key} = {out[key][0]:.4f} {out[key][1]}")
    return out


def traced(mods, pool, seconds: float):
    """Untraced verdicts for the overhead baseline, then traced passes."""
    plain: dict[str, list[float]] = {}
    for rep in range(3):  # the first pass only warms up
        for case in pool:
            t0 = time.perf_counter()
            _verdict(mods["parser"], mods["typecheck"], case.source, case.name)
            if rep:
                plain.setdefault(case.name, []).append(time.perf_counter() - t0)
    tr = Tracer()
    tr.install()
    # Each wrapper adds a Python frame under guardlang's recursive calls.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(3 * limit)
    try:
        nodes = 0

        def span(name, fn, *args):
            nonlocal nodes
            res = tr.span(name, "bench", fn, *args)
            if name == VERDICT and res[1].derivation is not None:
                nodes += res[1].derivation.size()  # after the verdict's span
            return res

        samples, wall = closed_loop(mods, pool, seconds, span)
        ctx = [s.sizes for s in samples if s.case.contextual and s.sizes]
        extra = {
            "bytes_parsed": sum(len(s.case.source.encode()) for s in samples),
            "derivation_nodes": nodes,
            "contextual_nodes": sum(a for a, _ in ctx),
            "encoded_nodes": sum(b for _, b in ctx),
        }
        metrics = layer_metrics(tr, len(samples), extra)
        split = tr.self_by_layer()
        verdict = tr.self_by_layer(VERDICT)
        reference = reference_counts(mods, tr)
    finally:
        sys.setrecursionlimit(limit)
        tr.uninstall()

    # One verdict span per sample, in the same order.
    by_case: dict[str, list[float]] = {}
    for s, sec in zip(samples, tr.durations(VERDICT)):
        by_case.setdefault(s.case.name, []).append(sec)
    overhead = statistics.median(
        statistics.median(ts) / statistics.median(plain[name])
        for name, ts in by_case.items()
    )
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    print(f"wrapped names found: {len(tr.found)}; missing: {', '.join(tr.missing) or 'none'}")
    print(f"tracing overhead: traced verdict_ms / untraced verdict_ms = {overhead:.3f} "
          "(median over programs)")
    total = sum(split.values())
    print(f"self time by layer over {len(samples)} programs "
          f"({total:.3f} s of {wall:.3f} s traced wall time):")
    for layer, sec in sorted(split.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:28s} {sec * 1000:10.2f} ms  {100 * sec / total:5.1f}%")
    vt = sum(verdict.values())
    print("self time by layer within time-to-verdict:")
    for layer, sec in sorted(verdict.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:28s} {sec * 1000:10.2f} ms  {100 * sec / vt:5.1f}%")
    for line in reference:
        print(line)
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    return metrics, samples


# Programs whose counts are recorded in README.md; a traced run prints them
# for comparison.
REFERENCE = (
    workloads.idx_chain(8),
    workloads.snoc_chain(128),
    workloads.kway(16, "guarded"),
    workloads.kway(16, "plain"),
)


def reference_counts(mods, tr: Tracer) -> list[str]:
    """Rule, backtrack and subtype-query counts of the reference programs,
    as the traced wrappers see them."""
    lines = []
    for case in REFERENCE:
        before = dict(tr.counts)
        _verdict(mods["parser"], mods["typecheck"], case.source, case.name)
        got = {k: tr.counts.get(k, 0) - before.get(k, 0)
               for k in ("rules", "backtracks", "subtype_queries")}
        lines.append(f"reference {case.name}: {got['rules']} rules, "
                     f"{got['backtracks']} backtracks, {got['subtype_queries']} subtype queries")
    return lines


if __name__ == "__main__":
    sys.exit(main())
