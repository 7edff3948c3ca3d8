"""The benchmark's workloads.

Each workload builds a pool of ops from a seed.  An op is one user-level call,
timed from its input texts to the exact result; the program only ever sees
those texts.  Every op is checked, outside the timed region, against a
reference that does not run the timed layer's code (see refs.py).

The pool is a sequence of cycles.  A cycle runs each entry of the workload's
template list once, each time on a fresh seeded instance, so a run averages
over many distinct inputs and every run has the same mix.

A workload is a Workload record:
  build(m, rng, cycles, smoke) -> list of op dicts, made from the seed
  run(m, op)           -> the op's result (the timed call)
  canonical(m, result) -> a comparable form, so repeats can be checked cheaply
  check(m, op, result) -> True when the result matches the reference
where m is the namespace of cqcount modules loaded by run.py.
"""

from collections import namedtuple

import refs

Workload = namedtuple("Workload", "build run canonical check")


# ---------------------------------------------------------------------------
# seeded targets

def gnm_edges(rng, n, m):
    """Uniform random graph with exactly m edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, m))


def _relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def path_edges(rng, n):
    return _relabel(rng, n, [(i, i + 1) for i in range(n - 1)])


def grid_edges(rng, rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return _relabel(rng, rows * cols, edges)


def _size(rng, size):
    return rng.randint(*size) if isinstance(size, tuple) else size


def make_target(rng, shape):
    """shape is ("gnm", n, density), ("path", n) or ("grid", rows, cols).  A
    size given as a (low, high) pair is drawn per instance, so latencies
    spread out instead of clustering by template and the percentiles do not
    jump between clusters from one seed to the next."""
    kind = shape[0]
    if kind == "gnm":
        n = _size(rng, shape[1])
        return n, gnm_edges(rng, n, round(shape[2] * n * (n - 1) / 2))
    if kind == "path":
        n = _size(rng, shape[1])
        return n, path_edges(rng, n)
    if kind == "grid":
        rows, cols = _size(rng, shape[1]), _size(rng, shape[2])
        return rows * cols, grid_edges(rng, rows, cols)
    raise ValueError("unknown target shape %r" % (shape,))


def graph_text(n, edges):
    return "graph\ndomain %d\n" % n + "".join("E %d %d\n" % e for e in edges)


def _as_is(m, result):
    return result


# ---------------------------------------------------------------------------
# dss_count: the fast counter on the paper's query families

# (family, k, target shape).  Sized so that no op takes more than about half a
# second: psi_3 at n=80 and omega_3 at n=24 blow up.
DSS_POOL = [
    ("psi", 2, ("gnm", (16, 24), 0.5)), ("psi", 2, ("gnm", (16, 24), 0.5)),
    ("psi", 2, ("path", (18, 30))), ("psi", 2, ("grid", 4, (4, 6))),
    ("psi", 3, ("gnm", (8, 12), 0.5)), ("psi", 3, ("gnm", (8, 12), 0.5)),
    ("psi", 3, ("grid", 3, (3, 4))),
    ("gamma", 2, ("gnm", (10, 14), 0.5)), ("gamma", 2, ("gnm", (10, 14), 0.5)),
    ("gamma", 2, ("path", (12, 20))),
    ("gamma", 3, ("gnm", (6, 7), 0.5)),
    ("omega", 2, ("gnm", (8, 10), 0.5)), ("omega", 2, ("gnm", (8, 10), 0.5)),
    ("omega", 2, ("path", (8, 12))),
    ("poly", 3, ("gnm", (16, 24), 0.5)), ("poly", 3, ("gnm", (16, 24), 0.5)),
    ("poly", 3, ("path", (18, 30))),
    ("poly", 4, ("gnm", (12, 16), 0.5)), ("poly", 4, ("gnm", (12, 16), 0.5)),
    ("subdivided", 3, ("gnm", (12, 16), 0.5)),
    ("subdivided", 3, ("gnm", (12, 16), 0.5)),
    ("subdivided", 3, ("grid", 4, (3, 5))),
]

DSS_SMOKE = [
    ("psi", 2, ("gnm", 6, 0.5)), ("gamma", 2, ("path", 5)),
    ("omega", 2, ("grid", 2, 3)), ("poly", 3, ("gnm", 6, 0.5)),
    ("subdivided", 3, ("gnm", 5, 0.5)),
]


def build_dss(m, rng, cycles, smoke):
    ops = []
    for kind, k, shape in (DSS_SMOKE if smoke else DSS_POOL) * cycles:
        n, edges = make_target(rng, shape)
        query = m.gadgets.family_query(kind, k)
        ops.append({"kind": "%s_%d" % (kind, k), "family": (kind, k),
                    "graph": (n, edges),
                    "query": m.parser.serialize_query(query),
                    "target": graph_text(n, edges)})
    return ops


def run_dss(m, op):
    q = m.parser.parse_query(op["query"])
    t = m.parser.parse_structure(op["target"])
    return m.decomposition.count_answers_dss(q, t)


def check_dss(m, op, result):
    kind, k = op["family"]
    n, edges = op["graph"]
    return result == refs.family_answers(kind, k, n, edges)


DSS_COUNT = Workload(build_dss, run_dss, _as_is, check_dss)


# ---------------------------------------------------------------------------
# brute_eval: the brute-force enumerator and the code built on it

# Queries the fast counter rejects: free inequalities and negated free atoms.
# (free, quantified, edges, negated edges, inequalities, target shape)
COUNT_QUERIES = [
    (("x1", "x2", "x3"), ("y",), (("x1", "y"), ("x2", "y"), ("x3", "y")),
     (("x1", "x2"),), (("x1", "x3"),), ("gnm", (10, 14), 0.4)),
    (("x1", "x2"), ("y1", "y2"), (("x1", "y1"), ("y1", "y2"), ("y2", "x2")),
     (("x1", "x2"),), (("x1", "x2"),), ("gnm", (20, 28), 0.3)),
    (("x1", "x2", "x3"), ("y",), (("x1", "x2"), ("x2", "y"), ("y", "x3")),
     (("x1", "x3"),), (("x1", "x3"),), ("grid", 4, (4, 6))),
]


def count_query_text(free, quantified, edges, negated, distinct):
    body = ["E(%s,%s)" % e for e in edges] + ["!E(%s,%s)" % e for e in negated]
    return "formula\nfree %s\nexists %s\nbody %s\n%s" % (
        " ".join(free), " ".join(quantified), " & ".join(body),
        "".join("ineq %s %s\n" % pair for pair in distinct))


# Formulas compiled during set-up; the op evaluates the compiled text.  The
# universal ones carry the complement transform and run on larger sparse
# targets, so the n^2 complement is materialized.  The last one's complement,
# of a 300-vertex path, holds about 90,000 tuples: it is most of brute_eval's
# peak_rss_mb, while its count needs only one extension per vertex.
EVAL_FORMULAS = [
    ("formula\nfree x1 x2\nexists y\nbody (E(x1,y) & E(y,x2)) | E(x1,x2)\n"
     "ineq x1 x2\n", ("gnm", (14, 18), 0.3)),
    ("formula\nfree x1 x2\nforall y\nbody (E(x1,y) & E(x2,y)) | E(x1,x2)\n",
     ("path", (40, 60))),
    ("formula\nfree x1 x2\nforall y\nbody E(x1,y) | E(x2,y) | E(x1,x2)\n",
     ("grid", 6, (6, 8))),
    ("formula\nfree x1\nforall y\nbody E(x1,y)\n", ("path", 300)),
]

# (op kind, pattern family, k, vertices per colour class, edge probability).
# Colourful counts search all free classes at once, and interpolation clones
# the target once per grid point, so those instances are kept smaller.
COLOURED = [
    ("cp", "psi", 3, (9, 11), 0.5), ("cp", "poly", 3, (8, 10), 0.5),
    ("cp", "gamma", 2, (14, 18), 0.5),
    ("cf", "psi", 3, (3, 4), 0.5), ("cf", "poly", 3, (3, 4), 0.5),
    ("cf", "gamma", 2, (8, 10), 0.5),
    ("cf_interp", "psi", 2, 2, 0.7), ("cf_interp", "poly", 2, 2, 0.7),
]

# (n, density, k) of dominating-set instances
DOMSET = [((9, 11), 0.33, 2), ((7, 9), 0.36, 3)]

# Tiny targets: extraction and interpolation cost grows fast with n.
EXTRACT_FORMULAS = [
    ("formula\nfree x1 x2\nexists y\nbody E(x1,y) & E(x2,y)\nineq x1 x2\n",
     ("gnm", (5, 7), 0.5)),
    ("formula\nfree x1 x2\nforall y\nbody E(x1,y) | E(x2,y) | E(x1,x2)\n",
     ("gnm", (4, 6), 0.6)),
]

BRUTE_SMOKE_SHAPE = ("gnm", 5, 0.5)


def coloured_instance(rng, q_edges, q_n, per_class, p):
    """Each query vertex gets per_class target vertices; target edges join
    classes adjacent in the query, so the colouring is a homomorphism."""
    per_class = _size(rng, per_class)
    colours = [v for v in range(q_n) for _ in range(per_class)]
    adjacent = set(q_edges)
    edges = [(a, b) for a in range(len(colours)) for b in range(a + 1, len(colours))
             if tuple(sorted((colours[a], colours[b]))) in adjacent
             and rng.random() < p]
    return len(colours), edges, colours


def _coloured_op(m, rng, kind, family, k, per_class, p):
    query = m.gadgets.family_query(family, k)
    q_edges = m.model.graph_edges(query.structure)
    n, edges, colours = coloured_instance(rng, q_edges, query.structure.n,
                                          per_class, p)
    return {"kind": kind, "family": (family, k),
            "pattern": (query.structure.n, q_edges, query.free),
            "graph": (n, edges), "colours": colours,
            "query": m.parser.serialize_query(query),
            "target": graph_text(n, edges),
            "coloring": "".join("color %d %d\n" % (v, c)
                                for v, c in enumerate(colours))}


def build_brute(m, rng, cycles, smoke):
    def shape(s):
        return BRUTE_SMOKE_SHAPE if smoke else s

    compiled = {formula: m.parser.serialize_quantum(
        m.expansion.compile(m.parser.parse_formula(formula)))
        for formula, _ in EVAL_FORMULAS + EXTRACT_FORMULAS}
    ops = []
    for _ in range(cycles):
        for free, quantified, q_edges, negated, distinct, s in COUNT_QUERIES:
            n, edges = make_target(rng, shape(s))
            ops.append({"kind": "count",
                        "formula": count_query_text(free, quantified, q_edges,
                                                    negated, distinct),
                        "query": (free, quantified, q_edges, negated, distinct),
                        "graph": (n, edges),
                        "target": graph_text(n, edges)})
        for formula, s in EVAL_FORMULAS:
            n, edges = make_target(rng, shape(s))
            ops.append({"kind": "eval", "formula": formula,
                        "quantum": compiled[formula],
                        "target": graph_text(n, edges)})
        for kind, family, k, per_class, p in COLOURED:
            ops.append(_coloured_op(m, rng, kind, family, k,
                                    1 if smoke else per_class, p))
        for size, density, k in [(5, 0.4, 2)] if smoke else DOMSET:
            n, edges = make_target(rng, ("gnm", size, density))
            ops.append({"kind": "domset", "k": k, "graph": (n, edges),
                        "target": graph_text(n, edges)})
        for formula, s in EXTRACT_FORMULAS:
            n, edges = make_target(rng, ("gnm", 4, 0.5) if smoke else s)
            ops.append({"kind": "extract", "graph": (n, edges),
                        "quantum": compiled[formula],
                        "target": graph_text(n, edges)})
    return ops


def _coloured_inputs(m, op):
    q = m.parser.parse_query(op["query"])
    t = m.parser.parse_structure(op["target"])
    c = m.parser.parse_coloring(op["coloring"])
    return q, t, m.model.Coloring(c.colors, t, q.structure)


def run_brute(m, op):
    kind = op["kind"]
    if kind == "count":
        q = m.parser.parse_query(op["formula"])
        return m.homs.count_answers(q, m.parser.parse_structure(op["target"]))
    if kind == "eval":
        qq = m.parser.parse_quantum(op["quantum"])
        return m.quantum.evaluate(qq, m.parser.parse_structure(op["target"]))
    if kind == "cp":
        return m.homs.count_cp_answers(*_coloured_inputs(m, op))
    if kind == "cf":
        return m.homs.count_cf_answers(*_coloured_inputs(m, op))
    if kind == "cf_interp":
        return m.gadgets.cf_count_via_uncolored(*_coloured_inputs(m, op))
    if kind == "domset":
        g = m.parser.parse_structure(op["target"])
        return m.gadgets.domset_via_star_oracle(g, op["k"])
    if kind == "extract":
        qq = m.parser.parse_quantum(op["quantum"])
        t = m.parser.parse_structure(op["target"])
        return m.quantum.extract_constituent_counts(qq, t)
    raise ValueError("unknown op kind %r" % kind)


def canonical_brute(m, result):
    if isinstance(result, dict):
        return sorted((m.parser.serialize_query(q), v) for q, v in result.items())
    return result


def _colour_prescribed(op):
    q_n, q_edges, free = op["pattern"]
    n, edges = op["graph"]
    classes = [[w for w, c in enumerate(op["colours"]) if c == v]
               for v in range(q_n)]
    return refs.count_answers(q_n, q_edges, free, n, edges, domains=classes)


def _count_reference(op):
    free, quantified, q_edges, negated, distinct = op["query"]
    index = {v: i for i, v in enumerate(free + quantified)}

    def pairs(named):
        return [(index[a], index[b]) for a, b in named]

    n, edges = op["graph"]
    return refs.count_answers(len(index), pairs(q_edges),
                              [index[v] for v in free], n, edges,
                              distinct=pairs(distinct), non_edges=pairs(negated))


def _colourful(op):
    q_n, q_edges, free = op["pattern"]
    return refs.partial_automorphisms(q_n, q_edges, free) * _colour_prescribed(op)


def check_brute(m, op, result):
    kind = op["kind"]
    if kind == "count":
        return result == _count_reference(op)
    if kind == "eval":
        t = m.parser.parse_structure(op["target"])
        f = m.parser.parse_formula(op["formula"])
        return result == m.expansion.count_formula_answers(f, t)
    if kind == "cp":
        return result == _colour_prescribed(op)
    if kind in ("cf", "cf_interp"):
        return result == _colourful(op)
    if kind == "domset":
        n, edges = op["graph"]
        return result == refs.dominating_set_counts(n, edges, op["k"])
    if kind == "extract":
        qq = m.parser.parse_quantum(op["quantum"])
        n, edges = op["graph"]
        text = op["target"] if qq.transform == "identity" else \
            refs.reflexive_complement_text(n, edges)
        t = m.parser.parse_structure(text)
        want = {m.parser.serialize_query(q): m.homs.count_answers(q, t)
                for _, q in qq.terms}
        return dict(canonical_brute(m, result)) == want
    raise ValueError("unknown op kind %r" % kind)


BRUTE_EVAL = Workload(build_brute, run_brute, canonical_brute, check_brute)


# ---------------------------------------------------------------------------
# compile_formulas: parse_formula then expansion.compile, as `cqcount expand`

# (free, quantified, disjuncts, quantifier, max atoms per disjunct).  Universal
# bodies are kept to two quantified variables and two disjuncts: their dual
# expands to a DNF whose inclusion-exclusion grows doubly exponentially, and
# one three-disjunct universal formula took minutes to compile.
COMPILE_SHAPES = [
    (2, 0, 1, None, 2), (2, 0, 2, None, 2), (3, 0, 2, None, 2), (4, 0, 3, None, 2),
    (2, 1, 1, "exists", 3), (2, 1, 2, "exists", 3), (3, 1, 3, "exists", 2),
    (2, 2, 1, "exists", 3), (3, 2, 2, "exists", 3), (4, 2, 2, "exists", 2),
    (2, 3, 2, "exists", 3), (3, 3, 1, "exists", 3), (4, 3, 3, "exists", 2),
    (2, 4, 1, "exists", 3), (3, 4, 2, "exists", 2),
    (2, 1, 1, "forall", 2), (2, 1, 2, "forall", 2), (3, 1, 2, "forall", 2),
    (2, 2, 1, "forall", 2), (2, 2, 2, "forall", 2), (3, 2, 1, "forall", 2),
]
COMPILE_REPEATS = 3
COMPILE_CHECK_TARGETS = [("gnm", 3, 0.67), ("gnm", 4, 0.5)]


def random_formula(rng, n_free, n_quant, n_disj, quantifier, max_atoms):
    free = ["x%d" % i for i in range(1, n_free + 1)]
    quant = ["y%d" % i for i in range(1, n_quant + 1)]
    names = free + quant

    def atom():
        return "E(%s,%s)" % tuple(rng.sample(names, 2))

    disjuncts = ["(%s)" % " & ".join(atom() for _ in range(rng.randint(1, max_atoms)))
                 for _ in range(n_disj)]
    text = "formula\nfree %s\n" % " ".join(free)
    if quant:
        text += "%s %s\n" % (quantifier, " ".join(quant))
    negation = ""
    if rng.random() < 0.5:
        negation = " & !E(%s,%s)" % tuple(rng.sample(free, 2))
    text += "body (%s)%s\n" % (" | ".join(disjuncts), negation)
    if rng.random() < 0.5:
        text += "ineq %s %s\n" % tuple(rng.sample(free, 2))
    return text


def build_compile(m, rng, cycles, smoke):
    shapes = COMPILE_SHAPES[:4] + COMPILE_SHAPES[15:17] if smoke else \
        COMPILE_SHAPES * COMPILE_REPEATS
    shapes *= cycles
    checks = [graph_text(*make_target(rng, s)) for s in COMPILE_CHECK_TARGETS]
    return [{"kind": "%s_%dq" % (quantifier or "free", n_quant),
             "formula": random_formula(rng, n_free, n_quant, n_disj, quantifier,
                                       max_atoms),
             "checks": checks}
            for n_free, n_quant, n_disj, quantifier, max_atoms in shapes]


def run_compile(m, op):
    return m.expansion.compile(m.parser.parse_formula(op["formula"]))


def canonical_compile(m, result):
    return m.parser.serialize_quantum(result)


def check_compile(m, op, result):
    f = m.parser.parse_formula(op["formula"])
    for text in op["checks"]:
        t = m.parser.parse_structure(text)
        if m.quantum.evaluate(result, t) != m.expansion.count_formula_answers(f, t):
            return False
    return True


COMPILE_FORMULAS = Workload(build_compile, run_compile, canonical_compile,
                            check_compile)

WORKLOADS = {"dss_count": DSS_COUNT, "brute_eval": BRUTE_EVAL,
             "compile_formulas": COMPILE_FORMULAS}
