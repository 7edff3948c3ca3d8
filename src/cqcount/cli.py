"""Command line interface: counting, parameter reports, minimization,
expansion to linear combinations, gadget construction and the randomized
self-check suite.
"""

import argparse
import os
import random
import sys
from fractions import Fraction
from itertools import product

from . import decomposition as dec
from . import expansion, gadgets, homs, params, quantum
from .model import (Coloring, Query, Structure, complement_structure,
                    gaifman_graph, graph, graph_edges, induced_substructure,
                    tensor_product)
from .parser import (ParseError, ZeroWitness, eliminate_equalities,
                     formula_to_query, parse_coloring, parse_formula,
                     parse_quantum, parse_structure, serialize_coloring,
                     serialize_query, serialize_quantum, serialize_structure)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


class InputError(Exception):
    pass


def _read(path, what):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise InputError("cannot read %s file %s: %s" % (what, path, e))


def _load_query(path):
    """Returns (query-or-zero-witness, name_to_index)."""
    text = _read(path, "query")
    try:
        ast = eliminate_equalities(parse_formula(text))
        if isinstance(ast, ZeroWitness):
            return ast, {}
        return formula_to_query(ast)
    except (ParseError, ValueError) as e:
        raise InputError("%s: %s" % (path, e))


def _load_satisfiable_query(path):
    """A query for the commands that report on or rewrite the query itself,
    where an unsatisfiable one has no answer to give."""
    q, _ = _load_query(path)
    if isinstance(q, ZeroWitness):
        raise InputError("%s: query is unsatisfiable: %s" % (path, q.reason))
    return q


def _load_structure(path):
    try:
        return parse_structure(_read(path, "target"))
    except ParseError as e:
        raise InputError("%s: %s" % (path, e))


def _load_graph(path):
    """A target that must be a graph: a loopless symmetric E/2 relation."""
    t = _load_structure(path)
    if not t.is_graph():
        raise InputError("%s: the target is not a graph (a loopless "
                         "symmetric E/2 relation)" % path)
    return t


def _check_signature(queries, t, target_path):
    """Every symbol of every query must exist in the target with the same
    arity; otherwise the counters would look up a relation that is not
    there."""
    for q in queries:
        for name, arity in q.structure.signature.symbols:
            have = t.signature.arity.get(name)
            if have is None:
                raise InputError("%s: the target has no symbol %s, which the "
                                 "query uses as %s/%d"
                                 % (target_path, name, name, arity))
            if have != arity:
                raise InputError("%s: symbol %s has arity %d in the target "
                                 "but %d in the query"
                                 % (target_path, name, have, arity))


def _load_coloring(path, name_to_index):
    try:
        return parse_coloring(_read(path, "coloring"), name_to_index)
    except ParseError as e:
        raise InputError("%s: %s" % (path, e))


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
    method that produced it.  The DP's refusals exit 1."""
    if args.method == "dp" and not q.is_plain():
        raise InputError("--method dp supports plain queries only")
    try:
        return dec.count_and_method(q, t, domains, args.method)
    except dec.BudgetError as e:
        raise InputError("%s: dp method not applicable: %s"
                         % (args.target, e))


def cmd_count(args):
    q, _ = _load_query(args.query)
    t = _load_structure(args.target)
    if isinstance(q, ZeroWitness):
        _emit(args, [("count", 0), ("method", "zero-witness")])
        return EXIT_OK
    _check_signature([q], t, args.target)
    value, method = _count(args, q, t)
    _emit(args, [("count", value), ("method", method)])
    return EXIT_OK


def cmd_count_colored(args, colorful):
    q, index = _load_query(args.query)
    t = _load_structure(args.target)
    if isinstance(q, ZeroWitness):
        _emit(args, [("count", 0), ("method", "zero-witness")])
        return EXIT_OK
    _check_signature([q], t, args.target)
    c = _load_coloring(args.coloring, index)
    try:
        c = Coloring(c.colors, t, q.structure)
    except ValueError as e:
        raise InputError("%s: %s" % (args.coloring, e))
    if colorful:
        value = homs.count_cf_answers(q, t, c)
    else:
        classes = c.classes(q.structure.n)
        value, _ = _count(args, q, t, dict(enumerate(classes)))
    _emit(args, [("count", value)])
    return EXIT_OK


def _format_report(report):
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
    return pairs, lines


def cmd_params(args):
    q = _load_satisfiable_query(args.query[0])
    report = params.analyze(q)
    pairs, lines = _format_report(report)
    _emit(args, pairs, lines)
    return EXIT_OK


def cmd_classify(args):
    queries = [_load_satisfiable_query(path) for path in args.query]
    if len(queries) == 1:
        return cmd_params(args)
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
        raise InputError("minimize supports plain queries only")
    try:
        core = homs.augmented_core(q)
    except ValueError as e:
        raise InputError("%s: %s" % (args.query, e))
    sys.stdout.write(serialize_query(core))
    return EXIT_OK


def cmd_expand(args):
    text = _read(args.formula, "formula")
    try:
        ast = parse_formula(text)
        qq = expansion.compile(ast)
    except (ParseError, ValueError) as e:
        raise InputError("%s: %s" % (args.formula, e))
    sys.stdout.write(serialize_quantum(qq))
    return EXIT_OK


def cmd_eval(args):
    try:
        qq = parse_quantum(_read(args.quantum, "quantum query"))
    except ParseError as e:
        raise InputError("%s: %s" % (args.quantum, e))
    t = _load_structure(args.target)
    _check_signature([q for _, q in qq.terms], t, args.target)
    value = quantum.evaluate(
        qq, t,
        counter=lambda q, target: _count(args, q, target)[0])
    if isinstance(value, Fraction):
        shown = "%d/%d" % (value.numerator, value.denominator)
    else:
        shown = str(value)
    _emit(args, [("value", shown)])
    return EXIT_OK


def _print_gadget(args, out, extra_pairs=()):
    pairs = list(extra_pairs) + [("relation", out.relation),
                                 ("zero", "yes" if out.zero else "no")]
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
    "minor": ("query",),
    "uncolored-to-cp": ("query", "target"),
    "gamma-to-grate": ("target", "coloring"),
    "gaifman-expand": ("query", "target", "coloring"),
    "domset": ("target",),
}


def cmd_gadget(args):
    name = args.name
    for needed in _GADGET_NEEDS.get(name, ()):
        if getattr(args, needed) is None:
            raise InputError("gadget %s needs --%s" % (name, needed))
    if name == "family":
        try:
            q = gadgets.family_query(args.kind, args.k)
        except ValueError as e:
            raise InputError("gadget family: %s" % e)
        sys.stdout.write(serialize_query(q))
        return EXIT_OK
    if name == "minor":
        q = _load_satisfiable_query(args.query)
        kind = args.op
        spots = args.vertices or []
        if kind == "delete-vertex":
            if len(spots) != 1:
                raise InputError("delete-vertex needs one vertex")
            op = (kind, spots[0])
        else:
            if len(spots) != 2:
                raise InputError("%s needs two vertices" % kind)
            op = (kind, (spots[0], spots[1]))
        try:
            minor = gadgets.query_minor_with_map(q, op)[0]
        except ValueError as e:
            raise InputError(str(e))
        if args.target is None:
            sys.stdout.write(serialize_query(minor))
            return EXIT_OK
        if args.coloring is None:
            raise InputError("the instance gadget needs --coloring")
        t = _load_structure(args.target)
        _check_signature([q], t, args.target)
        c = _load_coloring(args.coloring, {})
        try:
            out = gadgets.minor_instance_gadget(q, op, t, c)
        except ValueError as e:
            raise InputError(str(e))
        _print_gadget(args, out)
        return EXIT_OK
    if name == "uncolored-to-cp":
        q = _load_satisfiable_query(args.query)
        t = _load_graph(args.target)
        _check_signature([q], t, args.target)
        try:
            out = gadgets.uncolored_to_cp_gadget(q, t)
        except ValueError as e:
            raise InputError("%s: %s" % (args.query, e))
        _print_gadget(args, out)
        return EXIT_OK
    if name == "gamma-to-grate":
        t = _load_structure(args.target)
        c = _load_coloring(args.coloring, {})
        try:
            out = gadgets.gamma_to_grate_gadget(args.k, t, c)
        except ValueError as e:
            raise InputError(str(e))
        _print_gadget(args, out)
        return EXIT_OK
    if name == "gaifman-expand":
        q = _load_satisfiable_query(args.query)
        t = _load_structure(args.target)
        # the target is colored by the query's Gaifman graph, not the query
        _check_signature([Query(gaifman_graph(q.structure), ())], t,
                         args.target)
        c = _load_coloring(args.coloring, {})
        try:
            out = gadgets.gaifman_expand_gadget(q, t, c)
        except ValueError as e:
            raise InputError(str(e))
        _print_gadget(args, out)
        return EXIT_OK
    if name == "domset":
        t = _load_graph(args.target)
        try:
            counts = gadgets.domset_via_star_oracle(t, args.k)
        except ValueError as e:
            raise InputError(str(e))
        pairs = [("D%d" % (i + 1), v) for i, v in enumerate(counts)]
        _emit(args, pairs, ["dominating sets of size %d: %d" % (i + 1, v)
                           for i, v in enumerate(counts)])
        return EXIT_OK
    raise InputError("unknown gadget %r" % name)


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
    elimination tree mostly eliminates c after the pendants and joins their
    tables at c, where the wide atom lies in neither table alone."""
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


def _check_dp(rng, args):
    for _ in range(args.trials):
        draw = rng.random()
        if draw < 0.3:
            q = _random_query(rng, min(args.max_n, 5))
            g = _random_graph(rng, rng.randint(0, args.max_n))
        elif draw < 0.5:
            q, g = _random_instance(rng, min(args.max_n, 5))
        elif draw < 0.65:
            # wide atoms lie in no single table of their component, so a
            # join checks them
            q, g = _random_wide_instance(rng, args.max_n)
        elif draw < 0.8:
            # repeated components, which share one table when their
            # domains agree: poly's y_i, subdivided's midpoints
            q = gadgets.family_query(rng.choice(["poly", "subdivided"]),
                                     rng.randint(3, 4))
            g = _random_graph(rng, rng.randint(0, args.max_n))
        else:
            # one part whose boundary is every free vertex, counted by its
            # keys; a free-only edge lies in that part, so its table checks
            # it
            q = gadgets.family_query(rng.choice(["psi", "gamma", "omega"]),
                                     rng.randint(2, 3))
            if rng.random() < 0.5:
                q = Query(graph(q.structure.n, graph_edges(q.structure)
                                + [tuple(rng.sample(q.free, 2))]), q.free)
            g = _random_graph(rng, rng.randint(0, args.max_n))
        transform = rng.choice(["identity", "complement"])
        t = complement_structure(g) if transform == "complement" else g
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
            continue
        slow = homs.count_answers(q, t, domains)
        if fast != slow:
            return ("dp=%d brute=%d query=%r target=%r (%s) domains=%r"
                    % (fast, slow, serialize_query(q), serialize_structure(g),
                       transform, domains))
    return None


def _check_surjective_sum(rng, args):
    from itertools import combinations
    for _ in range(max(1, args.trials // 5)):
        q = _random_query(rng, 3)
        t = _random_graph(rng, rng.randint(0, 3))
        total = homs.count_answers(q, t)
        acc = 0
        for size in range(0, len(q.free) + 1):
            for z in combinations(range(t.n), size):
                acc += homs.count_surjective_answers(q, t, z)
        if acc != total:
            return "sum=%d total=%d query=%r" % (acc, total,
                                                 serialize_query(q))
    return None


def _random_colored_target(rng, s, p):
    """A graph with one or two vertices per vertex of the graph s, each
    colored by its vertex of s, and an edge between vertices of adjacent
    colors with probability p.  Returns the graph and its coloring."""
    colors = [v for v in s.vertices() for _ in range(rng.randint(1, 2))]
    edges = set(graph_edges(s))
    t = graph(len(colors), [
        (a, b) for a in range(len(colors)) for b in range(a + 1, len(colors))
        if tuple(sorted((colors[a], colors[b]))) in edges
        and rng.random() < p])
    return t, Coloring(colors, t, s)


def _check_cf_identity(rng, args):
    """The colorful count is #Aut times the color-prescribed one, and the
    interpolation through uncolored counts gives it too."""
    for _ in range(max(1, args.trials // 5)):
        q = homs.augmented_core(_random_query(rng, 3))
        t, c = _random_colored_target(rng, q.structure, 0.7)
        cf = homs.count_cf_answers(q, t, c)
        cp = homs.count_cp_answers(q, t, c)
        aut = homs.count_partial_automorphisms(q)
        interpolated = gadgets.cf_count_via_uncolored(q, t, c)
        if cf != aut * cp or interpolated != cf:
            return "cf=%d interpolated=%d aut=%d cp=%d query=%r" % (
                cf, interpolated, aut, cp, serialize_query(q))
    return None


def _check_cp(rng, args):
    for _ in range(max(1, args.trials // 5)):
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
    return None


def _check_tensor(rng, args):
    for _ in range(max(1, args.trials // 5)):
        q = _random_query(rng, 3)
        t1 = _random_graph(rng, rng.randint(1, 3))
        t2 = _random_graph(rng, rng.randint(1, 3))
        lhs = homs.count_answers(q, tensor_product(t1, t2))
        rhs = homs.count_answers(q, t1) * homs.count_answers(q, t2)
        if lhs != rhs:
            return "tensor=%d product=%d query=%r" % (lhs, rhs,
                                                      serialize_query(q))
    return None


def _retractable(q, v):
    """True when q maps into its deletion of the quantified vertex v with the
    free set sent onto itself: one fresh search into the induced
    substructure, independent of the maps augmented_core reuses."""
    aug = homs._augment(q)
    sub, old_to_new = induced_substructure(
        aug, [u for u in aug.vertices() if u != v])
    sub_free = [old_to_new[x] for x in q.free]
    return homs.exists_extension(aug, sub, {x: sub_free for x in q.free})


def _check_core(rng, args):
    for _ in range(max(1, args.trials // 5)):
        q = _random_query(rng, 4)
        core = homs.augmented_core(q)
        t = _random_graph(rng, rng.randint(0, 4))
        if homs.count_answers(q, t) != homs.count_answers(core, t):
            return "core disagrees on query=%r" % serialize_query(q)
        if any(_retractable(core, v) for v in core.quantified()):
            return "core not minimal on query=%r" % serialize_query(q)
    return None


def _check_normalize(rng, args):
    for _ in range(max(1, args.trials // 5)):
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
    return None


def _check_compile(rng, args):
    atoms = ["E(x1,y1)", "E(x1,y2)", "E(x2,y1)", "E(x1,x2)", "E(y1,y2)"]
    for _ in range(max(1, args.trials // 5)):
        m = rng.randint(1, 2)
        disj = ["(" + " & ".join(rng.sample(atoms, rng.randint(1, 2))) + ")"
                for _ in range(m)]
        quant = rng.choice(["forall", "exists"])
        text = "formula\nfree x1 x2\n%s y1 y2\nbody (%s)%s\n" % (
            quant, " | ".join(disj),
            " & !E(x1,x2)" if rng.random() < 0.5 else "")
        if rng.random() < 0.5:
            text += "ineq x1 x2\n"
        f = parse_formula(text)
        qq = expansion.compile(f)
        t = _random_graph(rng, rng.randint(1, 4))
        a = quantum.evaluate(qq, t)
        b = expansion.count_formula_answers(f, t)
        if a != b:
            return "compiled=%s brute=%s formula=%r" % (a, b, text)
    return None


def _check_extraction(rng, args):
    for _ in range(max(1, args.trials // 10)):
        support = []
        while len(support) < 2:
            q = homs.augmented_core(_random_query(rng, 3))
            if q.free and all(not homs.are_equivalent(q, q2)
                              for q2 in support):
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
    return None


def _check_minor_gadgets(rng, args):
    for _ in range(max(1, args.trials // 5)):
        q = _random_query(rng, 4)
        edges = graph_edges(q.structure)
        if not edges:
            continue
        e = rng.choice(edges)
        op = (rng.choice(["delete-edge", "contract-edge"]), e)
        minor, _ = gadgets.query_minor_with_map(q, op)
        t, c = _random_colored_target(rng, minor.structure, 0.6)
        out = gadgets.minor_instance_gadget(q, op, t, c)
        lhs = homs.count_cp_answers(minor, t, c)
        rhs = homs.count_cp_answers(q, out.structure, out.coloring)
        if lhs != rhs:
            return "minor %r: source=%d gadget=%d" % (op, lhs, rhs)
    return None


def _check_domset(rng, args):
    for _ in range(max(1, args.trials // 10)):
        g = _random_graph(rng, rng.randint(1, 5))
        k = rng.randint(1, 2)
        got = gadgets.domset_via_star_oracle(g, k)
        want = [gadgets._brute_dominating_sets(g, ell)
                for ell in range(1, k + 1)]
        if got != want:
            return "domset got=%r want=%r edges=%r" % (got, want,
                                                       graph_edges(g))
    return None


CHECKS = [
    ("dp-counter-vs-brute", _check_dp),
    ("surjective-partition", _check_surjective_sum),
    ("colorful-automorphism-identity", _check_cf_identity),
    ("cp-vs-brute", _check_cp),
    ("tensor-multiplicativity", _check_tensor),
    ("core-preserves-counts", _check_core),
    ("normalize-preserves-counts", _check_normalize),
    ("compile-vs-formula-semantics", _check_compile),
    ("constituent-extraction", _check_extraction),
    ("minor-gadget-counts", _check_minor_gadgets),
    ("dominating-set-pipeline", _check_domset),
]


def cmd_check(args):
    failures = 0
    for name, fn in CHECKS:
        rng = random.Random("%d:%s" % (args.seed, name))
        counterexample = fn(rng, args)
        status = "pass" if counterexample is None else "fail"
        if args.machine:
            print("%s=%s" % (name, status))
        else:
            print("%s: %s" % (name, status))
        if counterexample is not None:
            failures += 1
            print("  counterexample: %s" % counterexample)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def build_parser():
    p = argparse.ArgumentParser(
        prog="cqcount",
        description="Exact answer counting for conjunctive queries and "
                    "extensions, structural parameters, and reductions.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, query=False, target=False, coloring=False):
        if query:
            sp.add_argument("--query", required=True)
        if target:
            sp.add_argument("--target", required=True)
        if coloring:
            sp.add_argument("--coloring", required=True)
        sp.add_argument("--machine", action="store_true")

    def method(sp):
        sp.add_argument("--method", choices=["brute", "dp", "auto"],
                        default="auto",
                        help="dp: the tree-decomposition counter; brute: "
                             "the backtracking search; auto (default): dp "
                             "for a plain query within DSS_CAP and the exact "
                             "treewidth limit, brute otherwise or once a dp "
                             "table passes TABLE_ROWS_CAP")

    sp = sub.add_parser("count", help="count answers of a query on a target")
    common(sp, query=True, target=True)
    method(sp)

    sp = sub.add_parser("count-cp", help="color-prescribed answer count")
    common(sp, query=True, target=True, coloring=True)
    method(sp)

    sp = sub.add_parser("count-cf",
                        help="colorful answer count (brute force only: "
                             "its colorful-image condition is not a "
                             "per-vertex domain, so the dp cannot run it)")
    common(sp, query=True, target=True, coloring=True)

    sp = sub.add_parser("params", help="structural parameters of one query")
    sp.add_argument("--query", action="append", required=True)
    sp.add_argument("--machine", action="store_true")

    sp = sub.add_parser("classify",
                        help="boundedness trends and the complexity regime "
                             "of a family (repeat --query)")
    sp.add_argument("--query", action="append", required=True)
    sp.add_argument("--machine", action="store_true")

    sp = sub.add_parser("minimize", help="vertex-minimal equivalent query")
    sp.add_argument("--query", required=True)
    sp.add_argument("--machine", action="store_true")

    sp = sub.add_parser("expand",
                        help="compile a formula to a linear combination "
                             "of plain queries")
    sp.add_argument("--formula", required=True)
    sp.add_argument("--machine", action="store_true")

    sp = sub.add_parser("eval", help="evaluate a quantum query on a target")
    sp.add_argument("--quantum", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--machine", action="store_true")
    method(sp)

    sp = sub.add_parser("gadget", help="run a reduction gadget")
    sp.add_argument("name", choices=["family", "minor", "uncolored-to-cp",
                                     "gamma-to-grate", "gaifman-expand",
                                     "domset"])
    sp.add_argument("--query")
    sp.add_argument("--target")
    sp.add_argument("--coloring")
    sp.add_argument("--kind", default="psi")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--op", choices=["delete-vertex", "delete-edge",
                                     "contract-edge"])
    sp.add_argument("--vertices", type=int, nargs="*")
    sp.add_argument("--machine", action="store_true")

    sp = sub.add_parser("check", help="randomized cross-validation suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--max-n", dest="max_n", type=int, default=5)
    sp.add_argument("--machine", action="store_true")

    return p


COMMANDS = {
    "count": cmd_count,
    "count-cp": lambda args: cmd_count_colored(args, colorful=False),
    "count-cf": lambda args: cmd_count_colored(args, colorful=True),
    "params": cmd_params,
    "classify": cmd_classify,
    "minimize": cmd_minimize,
    "expand": cmd_expand,
    "eval": cmd_eval,
    "gadget": cmd_gadget,
    "check": cmd_check,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
