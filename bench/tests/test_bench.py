"""Tests of the benchmark's own code: generators, checks and tracer.

Run from the repository root with `python3 -m pytest bench/tests`.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import calibrate
import run
import tracer
import workloads
from conftest import BENCH, ROOT
from guardlang import parser, typecheck

MODS = {m: importlib.import_module(f"guardlang.{m}") for m in run.MODULES}
PROGRAMS = os.path.join(ROOT, "programs")


def small_cases():
    """Small instances of every generator, all within the default budget."""
    cases = [
        workloads.snoc_chain(3),
        workloads.snoc_chain(4),
        workloads.idx_chain(1),
        workloads.idx_chain(4, var="v"),
    ]
    for variant in workloads.KWAY_VARIANTS:
        cases += [workloads.kway(3, variant), workloads.kway(5, variant, var="y")]
    return cases + workloads.corpus_cases(PROGRAMS)


SMALL = small_cases()


@pytest.mark.parametrize("case", SMALL, ids=lambda c: c.name)
def test_small_instances_parse(case):
    parser.parse_program(case.source, case.name)


@pytest.mark.parametrize("case", SMALL, ids=lambda c: c.name)
def test_known_verdict_at_default_budget(case):
    report = typecheck.typecheck_program(parser.parse_program(case.source, case.name))
    assert report.verdict == case.verdict


@pytest.mark.parametrize("case", SMALL, ids=lambda c: c.name)
def test_pipeline_checks_pass(case):
    sample = run.run_case(MODS, case, run._untraced)
    assert sample.problems == []
    if case.verdict == "accept":
        assert None not in (sample.certify_ms, sample.run_ms, sample.desugar_ms)


def test_pipeline_reports_a_wrong_answer():
    good = workloads.snoc_chain(4)
    for bad in (
        workloads.Case(good.name, good.source, "reject", None),
        workloads.Case(good.name, good.source, "accept", "b111"),
    ):
        assert run.run_case(MODS, bad, run._untraced).problems


def test_pools_are_seeded():
    for w in workloads.WORKLOADS:
        a = workloads.pool(w, 7, PROGRAMS)
        assert a == workloads.pool(w, 7, PROGRAMS)
        assert len({c.source for c in a}) == len(a)
    for w in workloads.WORKLOADS:
        assert workloads.pool(w, 1, PROGRAMS) != workloads.pool(w, 2, PROGRAMS)


def test_annotations_pool_shape():
    cases = workloads.pool("annotations", 3, PROGRAMS)
    assert len(cases) == 4 * workloads.KWAY_PER_VARIANT + len(workloads.CORPUS)
    assert sum(c.verdict == "reject" for c in cases) == workloads.KWAY_PER_VARIANT + 2
    assert sum(c.contextual for c in cases) == workloads.KWAY_PER_VARIANT + 2


def test_scales_follow_the_kernel_median_nearby():
    ref = calibrate.REFERENCE_MS
    runs = [[ref], [ref, ref], [2 * ref], [2 * ref, 2 * ref, ref]]
    half = 0.5 ** calibrate.ELASTICITY
    assert calibrate.scales(runs) == pytest.approx(
        [1.0, 1.0, (2 / 3) ** calibrate.ELASTICITY, half])
    assert calibrate.kernel() > 0


def test_kernel_runs_for_a_share_of_the_program():
    assert len(calibrate.after(0.0)) == 1
    runs = calibrate.after(100.0)
    assert sum(runs) >= calibrate.SHARE * 100.0
    assert sum(runs[:-1]) < calibrate.SHARE * 100.0


def test_tail_percentile():
    assert run.tail(list(range(100))) == (89, "p90")
    assert run.tail(list(range(5))) == (4, "max")


def _traced(cases):
    tr = tracer.Tracer()
    tr.install()
    try:
        t0 = time.perf_counter()
        samples = [
            run.run_case(MODS, c, lambda name, fn, *a: tr.span(name, "bench", fn, *a))
            for c in cases
        ]
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    return tr, samples, wall


def test_self_times_within_wall_time():
    cases = [workloads.snoc_chain(12), workloads.idx_chain(4),
             workloads.kway(4, "guarded"), workloads.kway(4, "ctxanno"),
             workloads.kway(4, "swapped")]
    tr, samples, wall = _traced(cases)
    assert all(not s.problems for s in samples)
    selfs = tr.self_times()
    assert min(selfs) >= 0
    assert sum(selfs) <= wall
    assert not tr.missing
    metrics = tracer.layer_metrics(tr, len(samples), {})
    assert set(metrics) == {m["name"] for m in _declared()["per_layer"]} - {"trace.overhead_ratio"}


def test_layer_counts_come_from_the_verdict_only():
    case = workloads.kway(4, "ctxanno")
    report = typecheck.typecheck_program(parser.parse_program(case.source, case.name))
    tr, samples, _ = _traced([case])
    assert not samples[0].problems
    assert tr.scoped[tracer.VERDICT][1]["rules"] == report.stats.rule_applications
    # desugar --verify checks the program again, outside the verdict
    assert tr.counts["rules"] > report.stats.rule_applications


def test_generator_spans_cover_the_iteration():
    tr, _, _ = _traced([workloads.kway(4, "ctxanno")])
    incl = tr.inclusive()
    assert tr.calls["ctxanno.check_ctx_anno"] > 0
    assert incl["ctxanno.check_ctx_anno"] > 0
    assert tr.calls["typecheck.Checker._synth"] > 0


def test_uninstall_restores_guardlang():
    before = typecheck.Checker._check
    tr = tracer.Tracer()
    tr.install()
    assert typecheck.Checker._check is not before
    tr.uninstall()
    assert typecheck.Checker._check is before


def test_missing_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(typecheck.Checker, "_unsolved_in")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == ["guardlang.typecheck:Checker._unsolved_in"]
    metrics = tracer.layer_metrics(tr, 1, {})
    assert "typecheck.finalize.ms" not in metrics
    assert "typecheck.search.self_ms" not in metrics
    assert "typecheck.verify_typing.ms" in metrics


def test_reference_counts():
    tr = tracer.Tracer()
    tr.install()
    try:
        lines = run.reference_counts(MODS, tr)
    finally:
        tr.uninstall()
    assert lines == [
        "reference idx-chain(8): 1535 rules, 255 backtracks, 511 subtype queries",
        "reference snoc-chain(128): 1026 rules, 128 backtracks, 257 subtype queries",
        "reference kway-guarded(16): 1318 rules, 360 backtracks, 424 subtype queries",
        "reference kway-plain(16): 503 rules, 120 backtracks, 152 subtype queries",
    ]


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_end_to_end_output():
    out = _bench(ROOT, "--workload", "search", "--seed", "1", "--seconds", "0.01", "--trace", "0")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench(tmp_path, "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
