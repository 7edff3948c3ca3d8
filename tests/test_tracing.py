"""The traced bench wraps cqcount functions by name: every name it wraps must
resolve, or `bench/run.py --trace 1` fails with an AttributeError."""

import importlib
import importlib.util
import os

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(BENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPS
    for module, attr, _, _ in tracing.WRAPS:
        mod = importlib.import_module("cqcount." + module)
        assert callable(getattr(mod, attr, None)), "%s.%s" % (module, attr)
