"""Spans around calls into cqcount, recorded from outside the program.

Tracer.install replaces each function in WRAPS, under the name its callers
resolve, with a wrapper that records one span: (name, start, end, parent,
a, b), where a and b are two numbers read off the arguments and the result
(bytes parsed, rows built, terms in and out, ...).  Some names are bound at
import (expansion.normalize, quantum.complement_structure), so those bindings
are wrapped as well as the defining module's; functions looked up as module
globals (homs.exists_extension, decomposition.count_homs_dp) are wrapped once
in their own module, which covers the calls from inside it.

Spans stay in memory until write(); layer_metrics() turns one pass of spans
into the per-layer metrics.  A layer's time counts only spans without an
ancestor of the same name, so nested calls (parse_quantum calling
parse_query) are not counted twice; self time is a span's duration minus its
direct children's.
"""

import gzip
import time


def _text_bytes(args, result):
    return len(args[0]), 0


def _component_tables(args, result):
    """Rows and cells of the extendability relations added to the target:
    one fresh relation per quantified component with a nonempty boundary."""
    if result is None:
        return 0, 0
    q = args[0]
    _, target = result
    rows = cells = 0
    for name, arity in target.signature.symbols:
        if name not in q.structure.signature.arity:
            rows += len(target.relations[name])
            cells += target.n ** arity
    return rows, cells


def _width(args, result):
    return result[0], 0


def _truth(args, result):
    return int(bool(result)), 0


def _shrunk(args, result):
    return int(result.structure.n < args[0].structure.n), 0


def _terms(args, result):
    return len(args[0].terms), len(result.terms)


def _tuples(args, result):
    return result.total_tuples(), 0


# (module, attribute, span name, reader of a and b)
WRAPS = [
    ("parser", "parse_formula", "parser.parse", _text_bytes),
    ("parser", "parse_query", "parser.parse", _text_bytes),
    ("parser", "parse_structure", "parser.parse", _text_bytes),
    ("parser", "parse_quantum", "parser.parse", _text_bytes),
    ("parser", "parse_coloring", "parser.parse", _text_bytes),
    ("expansion", "compile", "expansion.compile", None),
    ("expansion", "normalize", "quantum.normalize", _terms),
    ("quantum", "normalize", "quantum.normalize", _terms),
    ("quantum", "evaluate", "quantum.evaluate", None),
    ("quantum", "extract_constituent_counts", "quantum.extract", None),
    ("quantum", "complement_structure", "model.complement", _tuples),
    ("model", "complement_structure", "model.complement", _tuples),
    ("quantum", "tensor_product", "model.tensor", None),
    ("model", "tensor_product", "model.tensor", None),
    ("quantum", "clone_by_multiplicity", "model.clone", None),
    ("model", "clone_by_multiplicity", "model.clone", None),
    ("gadgets", "clone_vertices", "model.clone", None),
    ("homs", "count_answers", "homs.count_answers", None),
    ("homs", "count_cp_answers", "homs.count_cp", None),
    ("homs", "exists_extension", "homs.extension", _truth),
    ("homs", "augmented_core", "homs.core", _shrunk),
    ("homs", "are_equivalent", "homs.equiv", _truth),
    ("decomposition", "derived_free_query", "decomposition.components",
     _component_tables),
    ("decomposition", "count_homs_dp", "decomposition.final_dp", None),
    ("decomposition", "decompose_graph", "decomposition.plan", _width),
    ("gadgets", "domset_via_star_oracle", "gadgets.domset", None),
    ("gadgets", "cf_count_via_uncolored", "gadgets.cf_interp", None),
]

ROOT_SPAN = "op"

# (metric, unit, better) in the order they are printed; BENCHMARK.json's
# per_layer list holds the same entries.
LAYER_METRICS = [
    ("decomposition.components_s", "s", "lower"),
    ("decomposition.component_rows", "count", "lower"),
    ("decomposition.component_cells", "count", "lower"),
    ("decomposition.component_fill_frac", "frac", "higher"),
    ("decomposition.final_dp_s", "s", "lower"),
    ("decomposition.dp_calls", "count", "lower"),
    ("decomposition.plan_s", "s", "lower"),
    ("decomposition.plan_calls", "count", "lower"),
    ("decomposition.width_max", "count", "lower"),
    ("homs.count_answers_s", "s", "lower"),
    ("homs.count_answers_calls", "count", "lower"),
    ("homs.extension_calls", "count", "lower"),
    ("homs.extension_s", "s", "lower"),
    ("homs.extension_hit_frac", "frac", "higher"),
    ("homs.count_cp_s", "s", "lower"),
    ("homs.count_cp_calls", "count", "lower"),
    ("homs.core_calls", "count", "lower"),
    ("homs.core_s", "s", "lower"),
    ("homs.core_shrunk_frac", "frac", "higher"),
    ("homs.equiv_calls", "count", "lower"),
    ("homs.equiv_s", "s", "lower"),
    ("homs.equiv_true_frac", "frac", "higher"),
    ("quantum.normalize_calls", "count", "lower"),
    ("quantum.normalize_s", "s", "lower"),
    ("quantum.terms_in", "count", "lower"),
    ("quantum.terms_out", "count", "lower"),
    ("quantum.evaluate_s", "s", "lower"),
    ("quantum.extract_s", "s", "lower"),
    ("quantum.extract_self_s", "s", "lower"),
    ("expansion.compile_s", "s", "lower"),
    ("expansion.compile_self_s", "s", "lower"),
    ("parser.parse_s", "s", "lower"),
    ("parser.bytes", "bytes", "lower"),
    ("model.complement_s", "s", "lower"),
    ("model.complement_tuples", "count", "lower"),
    ("model.tensor_s", "s", "lower"),
    ("model.clone_s", "s", "lower"),
    ("gadgets.domset_s", "s", "lower"),
    ("gadgets.oracle_calls", "count", "lower"),
    ("gadgets.cf_interp_s", "s", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
]


class Tracer:
    def __init__(self, m):
        self.m = m
        self.names = [ROOT_SPAN]
        self.spans = []
        self.stack = [-1]
        self.saved = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name_id, reader):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name_id, start, clock(), parent, 0, 0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            a, b = reader(args, result) if reader else (0, 0)
            spans[index] = (name_id, start, end, parent, a, b)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name, reader in WRAPS:
            mod = getattr(self.m, module)
            fn = getattr(mod, attr)
            self.saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, self._name_id(name), reader))

    def uninstall(self):
        while self.saved:
            mod, attr, fn = self.saved.pop()
            setattr(mod, attr, fn)

    def root(self, op_index, fn, *args):
        """Run one op under a root span whose a field is the op's index."""
        return self._wrap(fn, 0, lambda _args, _result: (op_index, 0))(*args)

    def reset(self):
        del self.spans[:]

    def write(self, path, origin):
        """Spans as gzipped tab-separated lines, times in seconds from origin."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\ta\tb\n")
            for i, (name_id, start, end, parent, a, b) in enumerate(self.spans):
                out.write("%d\t%d\t%s\t%.9f\t%.9f\t%s\t%s\n" % (
                    i, parent, self.names[name_id], start - origin,
                    end - origin, a, b))

    def layer_metrics(self):
        """Per-layer metrics of the spans recorded since the last reset,
        except trace_overhead_frac, which needs an untraced pass."""
        spans, names = self.spans, self.names
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0.0)
        sum_a = dict.fromkeys(names, 0)
        sum_b = dict.fromkeys(names, 0)
        max_a = dict.fromkeys(names, 0)
        child_time = [0.0] * len(spans)
        self_time = dict.fromkeys(names, 0.0)
        oracle_calls = 0
        domset = self._name_id("gadgets.domset")
        count_cp = self._name_id("homs.count_cp")
        for name_id, start, end, parent, a, b in spans:
            if parent >= 0:
                child_time[parent] += end - start
            ancestor, outermost, under_domset = parent, True, False
            while ancestor >= 0:
                above = spans[ancestor]
                outermost = outermost and above[0] != name_id
                under_domset = under_domset or above[0] == domset
                ancestor = above[3]
            oracle_calls += name_id == count_cp and under_domset
            name = names[name_id]
            calls[name] += 1
            if calls[name] == 1 or a > max_a[name]:
                max_a[name] = a
            if outermost:
                total[name] += end - start
                sum_a[name] += a
                sum_b[name] += b
        for i, (name_id, start, end, _, _, _) in enumerate(spans):
            self_time[names[name_id]] += end - start - child_time[i]

        def frac(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        c = "decomposition.components"
        return {
            "decomposition.components_s": total[c],
            "decomposition.component_rows": sum_a[c],
            "decomposition.component_cells": sum_b[c],
            "decomposition.component_fill_frac": frac(sum_a[c], sum_b[c]),
            "decomposition.final_dp_s": total["decomposition.final_dp"],
            "decomposition.dp_calls": calls["decomposition.final_dp"],
            "decomposition.plan_s": total["decomposition.plan"],
            "decomposition.plan_calls": calls["decomposition.plan"],
            "decomposition.width_max": max_a["decomposition.plan"],
            "homs.count_answers_s": total["homs.count_answers"],
            "homs.count_answers_calls": calls["homs.count_answers"],
            "homs.extension_calls": calls["homs.extension"],
            "homs.extension_s": total["homs.extension"],
            "homs.extension_hit_frac": frac(sum_a["homs.extension"],
                                            calls["homs.extension"]),
            "homs.count_cp_s": total["homs.count_cp"],
            "homs.count_cp_calls": calls["homs.count_cp"],
            "homs.core_calls": calls["homs.core"],
            "homs.core_s": total["homs.core"],
            "homs.core_shrunk_frac": frac(sum_a["homs.core"], calls["homs.core"]),
            "homs.equiv_calls": calls["homs.equiv"],
            "homs.equiv_s": total["homs.equiv"],
            "homs.equiv_true_frac": frac(sum_a["homs.equiv"], calls["homs.equiv"]),
            "quantum.normalize_calls": calls["quantum.normalize"],
            "quantum.normalize_s": total["quantum.normalize"],
            "quantum.terms_in": sum_a["quantum.normalize"],
            "quantum.terms_out": sum_b["quantum.normalize"],
            "quantum.evaluate_s": total["quantum.evaluate"],
            "quantum.extract_s": total["quantum.extract"],
            "quantum.extract_self_s": self_time["quantum.extract"],
            "expansion.compile_s": total["expansion.compile"],
            "expansion.compile_self_s": self_time["expansion.compile"],
            "parser.parse_s": total["parser.parse"],
            "parser.bytes": sum_a["parser.parse"],
            "model.complement_s": total["model.complement"],
            "model.complement_tuples": sum_a["model.complement"],
            "model.tensor_s": total["model.tensor"],
            "model.clone_s": total["model.clone"],
            "gadgets.domset_s": total["gadgets.domset"],
            "gadgets.oracle_calls": oracle_calls,
            "gadgets.cf_interp_s": total["gadgets.cf_interp"],
        }
