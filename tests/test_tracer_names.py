"""The benchmark's tracer wraps guardlang functions by name (`WRAPPED` in
`bench/tracer.py`); a name it cannot find silently drops the metrics that
depend on it.  This test reads that table, without installing the tracer, and
checks that every owner and attribute still exists."""

import importlib
import importlib.util
import os
import sys

TRACER_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "bench", "tracer.py"
)


def _load_tracer():
    name = "guardlang_bench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up while building the class.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_every_wrapped_name_resolves():
    wrapped = _load_tracer().WRAPPED
    assert wrapped
    missing = []
    for w in wrapped:
        module, _, cls = w.owner.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls, None)
        if owner is None or not hasattr(owner, w.attr):
            missing.append(f"{w.owner}.{w.attr}")
    assert missing == []
