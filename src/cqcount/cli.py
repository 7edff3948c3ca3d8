"""Command line interface: counting, parameter reports, minimization,
expansion to linear combinations, gadget construction and the randomized
self-check suite.
"""

import argparse
import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

from . import decomposition as dec
from . import expansion, gadgets, homs, params, quantum
from .model import (Coloring, Query, Structure, clone_by_multiplicity,
                    complement_structure, gaifman_graph, graph, graph_edges,
                    induced_substructure, is_undirected, tensor_product,
                    unmatched_pair)
from .parser import (ZeroWitness, parse_coloring, parse_formula,
                     parse_quantum, parse_query_and_names, parse_structure,
                     serialize_coloring, serialize_query, serialize_quantum,
                     serialize_structure)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


class InputError(Exception):
    pass


@contextmanager
def _blame(where):
    """Turns a ValueError from the library, a ParseError or BudgetError among
    them, into the InputError "<where>: <reason>"."""
    try:
        yield
    except ValueError as e:
        raise InputError("%s: %s" % (where, e))


def _read(path, what):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise InputError("cannot read %s file %s: %s" % (what, path, e))


def _load_query(path):
    """Returns (query-or-zero-witness, name_to_index)."""
    with _blame(path):
        return parse_query_and_names(_read(path, "query"))


def _load_satisfiable_query(path):
    """A query for the commands that report on or rewrite the query itself,
    where an unsatisfiable one has no answer to give."""
    q, _ = _load_query(path)
    if isinstance(q, ZeroWitness):
        raise InputError("%s: query is unsatisfiable: %s" % (path, q.reason))
    return q


def _load_structure(path):
    with _blame(path):
        return parse_structure(_read(path, "target"))


def _load_graph(path):
    """A target that must be a graph: a loopless symmetric E/2 relation."""
    t = _load_structure(path)
    if not t.is_graph():
        raise InputError("%s: the target is not a graph (a loopless "
                         "symmetric E/2 relation)" % path)
    return t


def _check_signature(patterns, t, target_path):
    """Every symbol of every query structure or formula must exist in the
    target with the same arity; otherwise the counters would look up a
    relation that is not there.  A query over E/2 alone reads its E atoms as
    undirected, so the target's E must then be symmetric."""
    for pattern in patterns:
        for name, arity in pattern.signature.symbols:
            have = t.signature.arity.get(name)
            if have is None:
                raise InputError("%s: the target has no symbol %s, which the "
                                 "query uses as %s/%d"
                                 % (target_path, name, name, arity))
            if have != arity:
                raise InputError("%s: symbol %s has arity %d in the target "
                                 "but %d in the query"
                                 % (target_path, name, have, arity))
    if any(is_undirected(pattern.signature) for pattern in patterns):
        pair = unmatched_pair(t.relations["E"])
        if pair is not None:
            raise InputError("%s: the query's E atoms are undirected, but the "
                             "target's E holds %r and not its reverse"
                             % (target_path, pair))


def _load_coloring(args, t, s, name_to_index=None):
    """The --coloring file as a coloring of the --target t by the structure
    s, or for s None, an unsatisfiable query, checked against t's length
    and each colour against the query's declared variables, name_to_index.
    A coloring that is not a homomorphism t -> s names both files."""
    with _blame(args.coloring):
        c = parse_coloring(_read(args.coloring, "coloring"), name_to_index)
    try:
        c = Coloring(c.colors, t, s)
        for color in c.colors if s is None else ():
            if not 0 <= color < len(name_to_index):
                raise ValueError("color out of range: %d" % color)
        return c
    except ValueError as e:
        raise InputError("%s: %s (target %s)" % (args.coloring, e,
                                                 args.target))


def _emit(args, pairs, text_lines=None):
    if args.machine:
        for key, value in pairs:
            print("%s=%s" % (key, value))
    else:
        for line in (text_lines if text_lines is not None
                     else ["%s: %s" % kv for kv in pairs]):
            print(line)


def _count(args, q, t, domains=None):
    """decomposition.count_and_method under --method: the value and the
    method that produced it.  The DP's refusals exit 1, naming the file
    they measure: the query's (--query, or eval's --quantum) for a query
    that is not plain, the target's for TABLE_ROWS_CAP."""
    if args.method == "dp" and not q.is_plain():
        raise InputError("%s: --method dp supports plain queries only"
                         % (args.query if "query" in args else args.quantum))
    try:
        return dec.count_and_method(q, t, domains, args.method)
    except dec.BudgetError as e:
        raise InputError("%s: dp method not applicable: %s"
                         % (args.target, e))


def cmd_count(args, coloring=None):
    """count, and with coloring "cp" or "cf" count-cp and count-cf: the
    answers of --query on --target; for cp with each query vertex kept in
    its --coloring class, under --method; for cf the colorful answers,
    #PartAut times the cp count under auto."""
    q, index = _load_query(args.query)
    t = _load_structure(args.target)
    zero = isinstance(q, ZeroWitness)
    # an unsatisfiable query still has its target and coloring checked
    _check_signature([q.formula if zero else q.structure], t, args.target)
    if coloring is not None:
        c = _load_coloring(args, t, None if zero else q.structure, index)
    if zero:
        _emit(args, [("count", 0), ("method", "zero-witness")])
        return EXIT_OK
    if coloring is None:
        value, method = _count(args, q, t)
        _emit(args, [("count", value), ("method", method)])
        return EXIT_OK
    if coloring == "cf":
        value = homs.count_cf_answers(q, t, c)
    else:
        value, _ = _count(args, q, t,
                          dict(enumerate(c.classes(q.structure.n))))
    _emit(args, [("count", value)])
    return EXIT_OK


def _emit_report(args, report):
    pairs = [("tw", report.tw), ("tw_contract", report.tw_contract),
             ("dss", report.dss),
             ("lmn", report.lmn if report.lmn is not None else "unknown")]
    lines = ["treewidth: %s" % report.tw,
             "contract treewidth: %s" % report.tw_contract,
             "dominating star size: %s" % report.dss,
             "linked matching number: %s"
             % (report.lmn if report.lmn is not None else "unknown")]
    for i, (comp, boundary) in enumerate(report.components):
        pairs.append(("component%d" % i, "%s|boundary=%s"
                      % (",".join(map(str, comp)),
                         ",".join(map(str, boundary)))))
        lines.append("component %d: {%s}, boundary {%s}"
                     % (i, ",".join(map(str, comp)),
                        ",".join(map(str, boundary))))
    for i, note in enumerate(report.notes):
        pairs.append(("note%d" % i, note))
        lines.append("note: %s" % note)
    _emit(args, pairs, lines)


def cmd_params(args):
    _emit_report(args, params.analyze(_load_satisfiable_query(args.query)))
    return EXIT_OK


def cmd_classify(args):
    queries = [_load_satisfiable_query(path) for path in args.query]
    if len(queries) == 1:
        _emit_report(args, params.analyze(queries[0]))
        return EXIT_OK
    out = params.classify(queries)
    pairs = [("regime", out["regime"])]
    lines = ["regime: %s" % out["regime"]]
    for key in ("tw", "tw_contract", "dss", "lmn"):
        pairs.append(("trend_%s" % key, out["trends"][key]))
        lines.append("%s trend: %s" % (key, out["trends"][key]))
    for i, note in enumerate(out["notes"]):
        pairs.append(("note%d" % i, note))
        lines.append("note: %s" % note)
    _emit(args, pairs, lines)
    return EXIT_OK


def cmd_minimize(args):
    q = _load_satisfiable_query(args.query)
    if not q.is_plain():
        raise InputError("%s: minimize supports plain queries only"
                         % args.query)
    sys.stdout.write(serialize_query(homs.augmented_core(q)))
    return EXIT_OK


def cmd_expand(args):
    with _blame(args.formula):
        qq = expansion.compile(parse_formula(_read(args.formula, "formula")))
    sys.stdout.write(serialize_quantum(qq))
    return EXIT_OK


def cmd_eval(args):
    with _blame(args.quantum):
        qq = parse_quantum(_read(args.quantum, "quantum query"))
    t = _load_structure(args.target)
    _check_signature([q.structure for _, q in qq.terms], t, args.target)
    value = quantum.evaluate(
        qq, t,
        counter=lambda q, target: _count(args, q, target)[0])
    if isinstance(value, Fraction):
        shown = "%d/%d" % (value.numerator, value.denominator)
    else:
        shown = str(value)
    _emit(args, [("value", shown)])
    return EXIT_OK


def _print_gadget(args, out):
    pairs = [("relation", out.relation), ("zero", "yes" if out.zero else "no")]
    _emit(args, pairs, ["relation: %s" % out.relation]
          + (["count: 0"] if out.zero else []))
    if out.zero:
        return
    print("--- structure")
    sys.stdout.write(serialize_structure(out.structure))
    if out.coloring is not None:
        print("--- coloring")
        sys.stdout.write(serialize_coloring(out.coloring))


_GADGET_NEEDS = {
    "family": (),
    "minor": ("query", "op"),
    "uncolored-to-cp": ("query", "target"),
    "gamma-to-grate": ("target", "coloring"),
    "gaifman-expand": ("query", "target", "coloring"),
    "domset": ("target",),
}


def cmd_gadget(args):
    name = args.name
    for needed in _GADGET_NEEDS[name]:
        if getattr(args, needed) is None:
            raise InputError("gadget %s needs --%s" % (name, needed))
    if name == "family":
        with _blame("gadget family"):
            q = gadgets.family_query(args.kind, args.k)
        sys.stdout.write(serialize_query(q))
        return EXIT_OK
    if name == "minor":
        q = _load_satisfiable_query(args.query)
        kind = args.op
        spots = args.vertices or []
        if kind == "delete-vertex":
            if len(spots) != 1:
                raise InputError("gadget minor: delete-vertex needs one "
                                 "vertex")
            op = (kind, spots[0])
        else:
            if len(spots) != 2:
                raise InputError("gadget minor: %s needs two vertices"
                                 % kind)
            op = (kind, (spots[0], spots[1]))
        with _blame(args.query):
            minor = gadgets.query_minor_with_map(q, op)[0]
        if args.target is None:
            sys.stdout.write(serialize_query(minor))
            return EXIT_OK
        if args.coloring is None:
            raise InputError("gadget minor: --target needs --coloring")
        t = _load_structure(args.target)
        _check_signature([q.structure], t, args.target)
        c = _load_coloring(args, t, minor.structure)
        with _blame(args.target):  # a target that is not a graph
            out = gadgets.minor_instance_gadget(q, op, t, c)
        _print_gadget(args, out)
        return EXIT_OK
    if name == "uncolored-to-cp":
        q = _load_satisfiable_query(args.query)
        t = _load_graph(args.target)
        _check_signature([q.structure], t, args.target)
        with _blame(args.query):
            out = gadgets.uncolored_to_cp_gadget(q, t)
        _print_gadget(args, out)
        return EXIT_OK
    if name == "gamma-to-grate":
        t = _load_graph(args.target)
        with _blame("gadget gamma-to-grate"):
            gamma = gadgets.family_query("gamma", args.k)
        c = _load_coloring(args, t, gamma.structure)
        _print_gadget(args, gadgets.gamma_to_grate_gadget(args.k, t, c))
        return EXIT_OK
    if name == "gaifman-expand":
        q = _load_satisfiable_query(args.query)
        t = _load_structure(args.target)
        # the target is colored by the query's Gaifman graph, not the query
        _check_signature([gaifman_graph(q.structure)], t, args.target)
        c = _load_coloring(args, t, gaifman_graph(q.structure))
        with _blame(args.target):  # a target that is not a graph
            out = gadgets.gaifman_expand_gadget(q, t, c)
        _print_gadget(args, out)
        return EXIT_OK
    # domset, the last of argparse's choices
    t = _load_graph(args.target)
    with _blame("gadget domset"):
        counts = gadgets.domset_via_star_oracle(t, args.k)
    pairs = [("D%d" % (i + 1), v) for i, v in enumerate(counts)]
    _emit(args, pairs, ["dominating sets of size %d: %d" % (i + 1, v)
                        for i, v in enumerate(counts)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# self-check suite

def _random_graph(rng, n, p=0.5):
    edges = [e for e in [(i, j) for i in range(n) for j in range(i + 1, n)]
             if rng.random() < p]
    return graph(n, edges)


def _random_query(rng, max_n):
    n = rng.randint(1, max_n)
    s = _random_graph(rng, n, 0.6)
    nf = rng.randint(0, n)
    free = tuple(sorted(rng.sample(range(n), nf)))
    return Query(s, free)


def _random_instance(rng, max_n):
    """A query over R/3 holding R(x,x,y), or over U/1 and E/2 holding U(x),
    plus up to four random atoms, and a random target over its signature."""
    signature, (name, atom) = rng.choice([
        ((("R", 3),), ("R", (0, 0, 1))), ((("U", 1), ("E", 2)), ("U", (0,)))])
    n, m = rng.randint(2, max(2, max_n)), rng.randint(0, max_n)
    rels = {name: [atom]}
    for sym, arity in rng.choices(signature, k=rng.randint(0, 4)):
        rels.setdefault(sym, []).append(
            tuple(rng.randrange(n) for _ in range(arity)))
    target = {sym: [tup for tup in product(range(m), repeat=arity)
                    if rng.random() < 0.5 ** (arity - 1)]
              for sym, arity in signature}
    free = sorted(rng.sample(range(n), rng.randint(0, n)))
    return (Query(Structure(signature, n, rels), free),
            Structure(signature, m, target))


def _random_wide_instance(rng, max_n):
    """A query with one or two 3- or 4-ary atoms on the quantified c and d
    and one or two free vertices, and two pendant quantified vertices that
    each link c to a part of the first such atom, plus a few random edges;
    and a sparse target over its signature: the images of a few random maps
    of the query and up to one random tuple per target vertex and symbol.
    d has the smallest quantified id and c the next, so the exact
    elimination tree mostly eliminates the pendants first, and each hands c
    its mask.  c reads a pendant's table keyed by one column as an atom and
    joins the wider ones, so the wide atom is mostly checked at a bind; a
    join checks it in about one draw in 300 (_check_dp's dense queries
    reach that check more often)."""
    signature = (("E", 2), ("T", 3), ("Q", 4))
    nf = rng.randint(2, 3)
    n = nf + 4
    ids = rng.sample(range(n), n)
    free = sorted(ids[:nf])
    d, c, *pendants = sorted(ids[nf:])
    rels = {name: [] for name, _ in signature}
    for _ in range(rng.randint(1, 2)):
        name, arity = rng.choice(signature[1:])
        tup = [c, d] + rng.sample(free, rng.randint(1, arity - 2))
        tup += [rng.choice(tup) for _ in range(arity - len(tup))]
        rng.shuffle(tup)
        rels[name].append(tuple(tup))
    wide = sorted(set((rels["T"] or rels["Q"])[0]) - {c})
    rng.shuffle(wide)
    cut = rng.randint(1, len(wide) - 1)
    for p, part in zip(pendants, (wide[:cut], wide[cut:])):
        for u in [c] + part:
            rels["E"].append((p, u) if rng.random() < 0.5 else (u, p))
    for _ in range(rng.randint(0, 2)):
        rels["E"].append((rng.randrange(n), rng.randrange(n)))
    m = rng.randint(1, max_n)
    target = {name: set() for name, _ in signature}
    for _ in range(rng.randint(1, 3)):
        image = [rng.randrange(m) for _ in range(n)]
        for name, tuples in rels.items():
            target[name].update(tuple(image[v] for v in tup)
                                for tup in tuples)
    for name, arity in signature:
        target[name].update(tuple(rng.randrange(m) for _ in range(arity))
                            for _ in range(rng.randint(0, m)))
    return (Query(Structure(signature, n, rels), free),
            Structure(signature, m, target))


def _random_chain_query(rng):
    """The free 0 and 1 joined by a quantified path of 2-4 vertices, each
    path vertex with a pendant half the time: every vertex of the path
    hands its mask to the next, a pendant's table is read at its vertex,
    and the part's root hands its mask to a free vertex."""
    chain = list(range(2, 2 + rng.randint(2, 4)))
    edges = list(zip([0] + chain, chain + [1]))
    n = 2 + len(chain)
    for v in chain:
        if rng.random() < 0.5:
            edges.append((v, n))
            n += 1
    return Query(graph(n, edges), (0, 1))


# Each _check_* function below is one trial of a check: it draws an instance
# from rng and returns a description of the counterexample it found, or None.

def _check_dp(rng, args):
    draw = rng.random()
    if draw < 0.1:
        q = _random_query(rng, min(args.max_n, 5))
        g = _random_graph(rng, rng.randint(0, args.max_n))
    elif draw < 0.25:
        # a dense query of 7 or 8 vertices, at most 4 of them free: its
        # parts' trees join tables with an atom in neither, which the join
        # checks
        n = rng.randint(7, 8)
        q = Query(_random_graph(rng, n, 0.6),
                  tuple(sorted(rng.sample(range(n), rng.randint(0, 4)))))
        g = _random_graph(rng, rng.randint(0, args.max_n))
    elif draw < 0.4:
        q, g = _random_instance(rng, min(args.max_n, 5))
    elif draw < 0.5:
        # a chain-shaped component between two free vertices
        q = _random_chain_query(rng)
        g = _random_graph(rng, rng.randint(0, args.max_n))
    elif draw < 0.65:
        # wide atoms lie in no single table of their component, so a join
        # checks them
        q, g = _random_wide_instance(rng, args.max_n)
    elif draw < 0.8:
        # repeated components, which share one table when their domains
        # agree: poly's y_i, subdivided's midpoints
        q = gadgets.family_query(rng.choice(["poly", "subdivided"]),
                                 rng.randint(3, 4))
        g = _random_graph(rng, rng.randint(0, args.max_n))
    else:
        # one part whose boundary is every free vertex, counted by its keys;
        # a free-only edge lies in that part, so its table checks it
        q = gadgets.family_query(rng.choice(["psi", "gamma", "omega"]),
                                 rng.randint(2, 3))
        if rng.random() < 0.5:
            q = Query(graph(q.structure.n, graph_edges(q.structure)
                            + [tuple(rng.sample(q.free, 2))]), q.free)
        g = _random_graph(rng, rng.randint(0, args.max_n))
    # counted as read from a file, so a graph arrives with E's index; a
    # complement or clone of it arrives with the index derived from its own
    g = parse_structure(serialize_structure(g))
    transform = rng.choice(["identity", "complement"])
    t = complement_structure(g) if transform == "complement" else g
    if rng.random() < 0.4:
        multiplicity = [rng.randint(0, 2) for _ in t.vertices()]
        t, _ = clone_by_multiplicity(t, multiplicity)
        transform += ", cloned %r" % multiplicity
    domains = None
    draw = rng.random()
    if draw < 0.4:
        domains = {v: rng.sample(range(t.n), rng.randint(0, t.n))
                   for v in q.structure.vertices() if rng.random() < 0.7}
    elif draw < 0.6:
        domain = rng.sample(range(t.n), rng.randint(0, t.n))
        domains = dict.fromkeys(q.structure.vertices(), domain)
    try:
        fast = dec.count(q, t, domains, method="dp")
    except dec.BudgetError:
        return None
    slow = homs.count_answers(q, t, domains)
    if fast != slow:
        return ("dp=%d brute=%d query=%r target=%r (%s) domains=%r"
                % (fast, slow, serialize_query(q), serialize_structure(g),
                   transform, domains))


def _check_surjective_sum(rng, args):
    q = _random_query(rng, 3)
    t = _random_graph(rng, rng.randint(0, 3))
    total = homs.count_answers(q, t)
    acc = 0
    for size in range(0, len(q.free) + 1):
        for z in combinations(range(t.n), size):
            acc += homs.count_surjective_answers(q, t, z)
    if acc != total:
        return "sum=%d total=%d query=%r" % (acc, total, serialize_query(q))


def _random_colored_target(rng, s, p):
    """A graph with one or two vertices per vertex of the graph s, each
    colored by its vertex of s, and an edge between vertices of adjacent
    colors with probability p.  Returns the graph and its coloring."""
    colors = [v for v in s.vertices() for _ in range(rng.randint(1, 2))]
    t = graph(len(colors), [
        (a, b) for a in range(len(colors)) for b in range(a + 1, len(colors))
        if (colors[a], colors[b]) in s.relations["E"] and rng.random() < p])
    return t, Coloring(colors, t, s)


def _check_cf_identity(rng, args):
    """cf = #PartAut * cp, with cp counted by brute force (count_answers
    within the color classes), on a random query, which may not be a core,
    and on its augmented core, where interpolation through uncolored counts
    gives cf too."""
    raw = _random_query(rng, 3)
    for core, q in enumerate((raw, homs.augmented_core(raw))):
        t, c = _random_colored_target(rng, q.structure, 0.7)
        cf = homs.count_cf_answers(q, t, c)
        aut = homs.count_partial_automorphisms(q)
        classes = dict(enumerate(c.classes(q.structure.n)))
        cp = homs.count_answers(q, t, classes)
        interpolated = gadgets.cf_count_via_uncolored(q, t, c) if core else cf
        if cf != aut * cp or interpolated != cf:
            return "cf=%d aut=%d cp=%d interpolated=%d query=%r" % (
                cf, aut, cp, interpolated, serialize_query(q))


def _check_cp(rng, args):
    q = _random_query(rng, 4)
    g, c = _random_colored_target(rng, q.structure, 0.7)
    transform = rng.choice(["identity", "complement"])
    t = complement_structure(g) if transform == "complement" else g
    classes = dict(enumerate(c.classes(q.structure.n)))
    cp = homs.count_cp_answers(q, t, c)
    slow = homs.count_answers(q, t, classes)
    if cp != slow:
        return ("cp=%d brute=%d query=%r target=%r (%s) colors=%r"
                % (cp, slow, serialize_query(q), serialize_structure(g),
                   transform, c.colors))


def _check_tensor(rng, args):
    q = _random_query(rng, 3)
    t1 = _random_graph(rng, rng.randint(1, 3))
    t2 = _random_graph(rng, rng.randint(1, 3))
    lhs = homs.count_answers(q, tensor_product(t1, t2))
    rhs = homs.count_answers(q, t1) * homs.count_answers(q, t2)
    if lhs != rhs:
        return "tensor=%d product=%d query=%r" % (lhs, rhs,
                                                  serialize_query(q))


def _retractable(q, v):
    """True when q maps into its deletion of the quantified vertex v with the
    free set sent onto itself: one fresh search for a map onto the free
    set's image, so a bijection, with no free vertex pinned or map reused."""
    sub, old_to_new = induced_substructure(
        q.structure, [u for u in q.structure.vertices() if u != v])
    return homs.count_surjective_answers(
        q, sub, [old_to_new[x] for x in q.free], first=True) > 0


def _check_core(rng, args):
    q = _random_query(rng, 4)
    core = homs.augmented_core(q)
    t = _random_graph(rng, rng.randint(0, 4))
    if homs.count_answers(q, t) != homs.count_answers(core, t):
        return "core disagrees on query=%r" % serialize_query(q)
    if any(_retractable(core, v) for v in core.quantified()):
        return "core not minimal on query=%r" % serialize_query(q)


def _check_normalize(rng, args):
    n = rng.randint(1, 6)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, rng.randint(0, len(pairs)))
    bases = [edges, rng.sample(pairs, len(edges))]
    if len(edges) >= 2:
        # a double edge swap keeps every degree, so with the same free set
        # the swapped query shares the isomorphism key, equivalent or not
        (a, b), (c, d) = rng.sample(edges, 2)
        swapped = set(map(frozenset, edges)) - {
            frozenset((a, b)), frozenset((c, d))}
        swapped |= {frozenset((a, c)), frozenset((b, d))}
        if len({a, b, c, d}) == 4 and len(swapped) == len(edges):
            bases[1] = [tuple(e) for e in swapped]
    # many free vertices keep the cores large
    free = rng.sample(range(n), rng.randint(n // 2, n))
    terms = []
    for base in bases:
        for _ in range(rng.randint(1, 3)):
            # a relabelled copy, its free tuple shuffled
            perm = rng.sample(range(n), n)
            copy = Query(graph(n, [(perm[u], perm[v]) for u, v in base]),
                         rng.sample([perm[x] for x in free], len(free)))
            terms.append((rng.choice([-2, -1, 1, 2]), copy))
    qq = quantum.QuantumQuery(terms)
    normal = quantum.normalize(qq)
    for _ in range(3):
        t = _random_graph(rng, rng.randint(0, 4))
        got = quantum.evaluate(normal, t)
        want = sum(c * homs.count_answers(q, t) for c, q in qq.terms)
        if got != want:
            return "normalized=%s terms=%s on %d-vertex target" % (
                got, want, t.n)


def _check_compile(rng, args):
    pairs = [("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x1", "x2"),
             ("y1", "y2")]
    m = rng.randint(1, 2)
    disj = [rng.sample(pairs, rng.randint(1, 2)) for _ in range(m)]
    quant = rng.choice(["forall", "exists"])
    negated = rng.random() < 0.5
    text = "formula\nfree x1 x2\n%s y1 y2\nbody (%s)%s\n" % (
        quant, " | ".join("(%s)" % " & ".join("E(%s,%s)" % p for p in d)
                          for d in disj),
        " & !E(x1,x2)" if negated else "")
    if rng.random() < 0.5:
        text += "ineq x1 x2\n"
    if rng.random() < 0.5:
        # merging the variables of one of its atoms makes that atom
        # diagonal: a loop, which only a reflexive complement holds
        text += "eq %s %s\n" % rng.choice(
            [p for d in disj for p in d] + [("x1", "x2")] * negated)
    f = parse_formula(text)
    qq = expansion.compile(f)
    g = _random_graph(rng, rng.randint(1, 4))
    transform = rng.choice(["identity", "complement"])
    t = complement_structure(g) if transform == "complement" else g
    a = quantum.evaluate(qq, t)
    b = expansion.count_formula_answers(f, t)
    if a != b:
        return "compiled=%s brute=%s formula=%r target=%r (%s)" % (
            a, b, text, serialize_structure(g), transform)


def _check_extraction(rng, args):
    support = []
    while len(support) < 2:
        q = homs.augmented_core(_random_query(rng, 3))
        if q.free and all(not homs.are_equivalent(q, q2) for q2 in support):
            support.append(q)
    transform = rng.choice(["identity", "complement"])
    qq = quantum.QuantumQuery(
        [(rng.choice([-2, -1, 1, 2]), q) for q in support], transform)
    t = _random_graph(rng, rng.randint(1, 4))
    got = quantum.extract_constituent_counts(qq, t)
    if transform == "complement":
        # every absent pair stored, apart from model's implicit complement
        t = Structure(t.signature, t.n, {"E": [
            (a, b) for a in range(t.n) for b in range(t.n)
            if (a, b) not in t.relations["E"]]})
    want = {q: homs.count_answers(q, t) for q in support}
    if got != want:
        return "extraction mismatch (%s) on %d-vertex target" % (
            transform, t.n)


def _check_minor_gadgets(rng, args):
    q = _random_query(rng, 4)
    edges = graph_edges(q.structure)
    if not edges:
        return None
    e = rng.choice(edges)
    op = (rng.choice(["delete-edge", "contract-edge"]), e)
    minor, _ = gadgets.query_minor_with_map(q, op)
    t, c = _random_colored_target(rng, minor.structure, 0.6)
    out = gadgets.minor_instance_gadget(q, op, t, c)
    lhs = homs.count_cp_answers(minor, t, c)
    rhs = homs.count_cp_answers(q, out.structure, out.coloring)
    if lhs != rhs:
        return "minor %r: source=%d gadget=%d" % (op, lhs, rhs)


def _check_domset(rng, args):
    g = _random_graph(rng, rng.randint(1, 5))
    k = rng.randint(1, 2)
    got = gadgets.domset_via_star_oracle(g, k)
    want = [gadgets._brute_dominating_sets(g, ell) for ell in range(1, k + 1)]
    if got != want:
        return "domset got=%r want=%r edges=%r" % (got, want, graph_edges(g))


# (name, trial, share): cmd_check runs max(1, trials // share) trials of
# each check on a random stream of its own and stops at the first
# counterexample.
CHECKS = [
    ("dp-counter-vs-brute", _check_dp, 1),
    ("surjective-partition", _check_surjective_sum, 5),
    ("colorful-automorphism-identity", _check_cf_identity, 5),
    ("cp-vs-brute", _check_cp, 5),
    ("tensor-multiplicativity", _check_tensor, 5),
    ("core-preserves-counts", _check_core, 5),
    ("normalize-preserves-counts", _check_normalize, 5),
    ("compile-vs-formula-semantics", _check_compile, 5),
    ("constituent-extraction", _check_extraction, 10),
    ("minor-gadget-counts", _check_minor_gadgets, 5),
    ("dominating-set-pipeline", _check_domset, 10),
]


def cmd_check(args):
    for flag, value in (("--trials", args.trials), ("--max-n", args.max_n)):
        if value < 1:
            raise InputError("check: %s must be at least 1" % flag)
    failures = 0
    for name, trial, share in CHECKS:
        rng = random.Random("%d:%s" % (args.seed, name))
        counterexample = None
        for _ in range(max(1, args.trials // share)):
            try:
                counterexample = trial(rng, args)
            except Exception as e:
                # a crash is a failed check; the checks after it still run
                counterexample = "%s: %s" % (type(e).__name__, e)
            if counterexample is not None:
                break
        if counterexample is None:
            _emit(args, [(name, "pass")])
            continue
        failures += 1
        _emit(args, [(name, "fail"), (name + ".counterexample",
                                      counterexample)],
              ["%s: fail" % name, "  counterexample: %s" % counterexample])
    return EXIT_OK if failures == 0 else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, like any other bad input: argparse's own 2
    is the code of a failed self-check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError("%s: %s" % (self.prog, message))


class _Once(argparse.Action):
    """An option that may be given once, where a repeat would silently
    replace the first value."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error("%s given more than once" % option_string)
        setattr(namespace, self.dest, values)


def build_parser():
    p = _Parser(
        prog="cqcount",
        description="Exact answer counting for conjunctive queries and "
                    "extensions, structural parameters, and reductions.")
    sub = p.add_subparsers(dest="command", required=True)

    def files(sp, *names, required=True):
        for name in names:
            sp.add_argument("--" + name, required=required, action=_Once)
        sp.add_argument("--machine", action="store_true")

    def method(sp):
        sp.add_argument("--method", choices=["brute", "dp", "auto"],
                        default="auto",
                        help="dp: the tree-decomposition counter; brute: "
                             "the backtracking search; auto (default): dp "
                             "for a plain query, brute otherwise or once a "
                             "stored dp table passes TABLE_ROWS_CAP (a "
                             "component's relation is stored as bitmasks "
                             "over one boundary column, and when its "
                             "boundary is every free vertex its answers "
                             "are counted from those masks, not stored)")

    sp = sub.add_parser("count", help="count answers of a query on a target")
    files(sp, "query", "target")
    method(sp)

    sp = sub.add_parser("count-cp", help="color-prescribed answer count")
    files(sp, "query", "target", "coloring")
    method(sp)

    sp = sub.add_parser("count-cf",
                        help="colorful answer count: #PartAut times the "
                             "color-prescribed count under auto")
    files(sp, "query", "target", "coloring")

    sp = sub.add_parser("params", help="structural parameters of one query")
    files(sp, "query")

    sp = sub.add_parser("classify",
                        help="boundedness trends and the complexity regime "
                             "of a family (repeat --query)")
    sp.add_argument("--query", action="append", required=True)
    sp.add_argument("--machine", action="store_true")

    sp = sub.add_parser("minimize", help="vertex-minimal equivalent query")
    files(sp, "query")

    sp = sub.add_parser("expand",
                        help="compile a formula to a linear combination "
                             "of plain queries")
    files(sp, "formula")

    sp = sub.add_parser("eval", help="evaluate a quantum query on a target")
    files(sp, "quantum", "target")
    method(sp)

    sp = sub.add_parser("gadget", help="run a reduction gadget")
    sp.add_argument("name", choices=list(_GADGET_NEEDS))
    files(sp, "query", "target", "coloring", required=False)
    sp.add_argument("--kind", default="psi")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--op", choices=["delete-vertex", "delete-edge",
                                     "contract-edge"])
    sp.add_argument("--vertices", type=int, nargs="*")

    sp = sub.add_parser("check", help="randomized cross-validation suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--max-n", dest="max_n", type=int, default=5)
    sp.add_argument("--machine", action="store_true")

    return p


COMMANDS = {
    "count": cmd_count,
    "count-cp": lambda args: cmd_count(args, "cp"),
    "count-cf": lambda args: cmd_count(args, "cf"),
    "params": cmd_params,
    "classify": cmd_classify,
    "minimize": cmd_minimize,
    "expand": cmd_expand,
    "eval": cmd_eval,
    "gadget": cmd_gadget,
    "check": cmd_check,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except InputError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader closed stdout early (cqcount check | head -1): point
        # stdout at devnull so the flush at exit cannot fail again, and exit
        # 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
