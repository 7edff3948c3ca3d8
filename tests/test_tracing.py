"""The traced bench wraps cqcount functions by name and reads numbers off
their arguments and results: every name it wraps must resolve, or
`bench/run.py --trace 1` fails with an AttributeError, and the layer metrics
must still read what the program builds."""

import importlib
import importlib.util
import os
from types import SimpleNamespace

from cqcount import decomposition as dec
from cqcount import homs
from cqcount.model import Query, graph
from cqcount.parser import parse_formula

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
LAYERS = ("parser", "expansion", "quantum", "homs", "decomposition", "model",
          "gadgets")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(BENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
    assert tracing.WRAPS
    for module, attr, _, _ in tracing.WRAPS:
        mod = importlib.import_module("cqcount." + module)
        assert callable(getattr(mod, attr, None)), "%s.%s" % (module, attr)


def test_traced_layer_metrics_read_the_program():
    m = SimpleNamespace(**{name: importlib.import_module("cqcount." + name)
                           for name in LAYERS})
    # free 0, 1, 2 on a path; 3 sees all three, so the derived query is a
    # triangle of width 2; 4 and 5 hang off 0 as a second component
    q = Query(graph(6, [(0, 1), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4),
                        (4, 5)]), (0, 1, 2))
    t = graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 2), (0, 3)])
    f = parse_formula("formula\nfree x1 x2\nexists y\n"
                      "body E(x1,y) & E(x2,y)\nineq x1 x2\n")
    k = 2
    dec._plan.cache_clear()  # so the count plans under the tracer
    tracer = load_tracing().Tracer(m)
    tracer.install()
    try:
        value = m.decomposition.count_answers_dss(q, t)
        counted = tracer.layer_metrics()
        tracer.reset()
        compiled = m.expansion.compile(f)
        compile_metrics = tracer.layer_metrics()
        tracer.reset()
        m.gadgets.domset_via_star_oracle(t, k)
        domset = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert value == homs.count_answers(q, t)
    plan = dec._plan(q)
    trees = [plan.tree()] + [part.tree() for part in plan.parts]
    assert counted["decomposition.width_max"] == plan.tree().width == 2
    assert counted["decomposition.width_max"] == max(td.width for td in trees)
    assert counted["decomposition.plan_calls"] == len(trees)
    assert counted["decomposition.component_rows"] == sum(
        len(part.root_table(t)) for part in plan.parts if part.boundary)
    assert counted["decomposition.component_rows"] > 0
    assert compile_metrics["quantum.normalize_calls"] > 0
    assert compile_metrics["quantum.terms_out"] == len(compiled.terms)
    # one star count for t and one per padding of it
    assert domset["gadgets.oracle_calls"] == domset["homs.count_cp_calls"] == k
    assert domset["decomposition.plan_calls"] > 0
