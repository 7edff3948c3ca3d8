"""Acceptance suite: one test per criterion, so the verbose pytest report
shows exactly one pass or fail line for each.  All comparisons are exact."""

import random
from fractions import Fraction
from itertools import combinations

from cqcount import decomposition as dec
from cqcount import expansion, gadgets, homs, params, quantum
from cqcount.model import (Coloring, Query, Signature, Structure,
                           gaifman_graph, graph, graph_edges, tensor_product)
from cqcount.parser import parse_formula

from helpers import (cp_count_via_uncolored, decompose,
                     graph_representatives, query_representatives,
                     random_colored_instance,
                     random_graph, random_query, sorted_support,
                     surjective_map_matrix)


def small_targets(max_n):
    return [graph(n, e) for n, e in graph_representatives(max_n, min_n=0)]


def test_criterion_01_fast_counter_matches_brute_force():
    # exhaustive: one representative per isomorphism class of (query, free
    # set) pairs with <= 5 vertices, against every target class <= 4 vertices
    targets = small_targets(4)
    queries = query_representatives(5, min_n=0)
    assert len(queries) == 663 and len(targets) == 19
    for q in queries:
        for t in targets:
            assert dec.count_answers_dss(q, t) == homs.count_answers(q, t)
    # randomized: larger instances; the enumeration oracle needs the answer
    # set itself to stay small, so the free set is capped while the total
    # number of query vertices goes up to 8
    rng = random.Random(101)
    for _ in range(500):
        q = random_query(rng, 8, max_free=4)
        t = random_graph(rng, rng.randint(0, 10))
        assert dec.count_answers_dss(q, t) == homs.count_answers(q, t)


def _fragment_formulas():
    """Every fragment formula over <= 3 variables, modulo variable naming:
    all free/quantified splits, conjunctions of up to two binary atoms and
    disjunctions of two, both quantifiers, and free-variable inequality and
    negation constraints in every combination."""
    vars_all = ["a", "b", "c"]
    for nv in (1, 2, 3):
        vs = vars_all[:nv]
        pool = ["E(%s,%s)" % (u, v) for u in vs for v in vs if u != v]
        bodies = []
        for r in (1, 2):
            bodies += [" & ".join(c) for c in combinations(pool, r)]
        bodies += ["%s | %s" % p for p in combinations(pool, 2)]
        for mask in range(1, 1 << nv):
            free = [v for i, v in enumerate(vs) if mask >> i & 1]
            quant = [v for v in vs if v not in free]
            quants = ["exists", "forall"] if quant else [None]
            cons = [("", "")]
            if len(free) >= 2:
                f1, f2 = free[0], free[1]
                cons = [("", ""),
                        ("", "ineq %s %s\n" % (f1, f2)),
                        (" & !E(%s,%s)" % (f1, f2), ""),
                        (" & !E(%s,%s)" % (f1, f2),
                         "ineq %s %s\n" % (f1, f2))]
            for body in bodies:
                for quantifier in quants:
                    for neg, ineq in cons:
                        head = "formula\nfree %s\n" % " ".join(free)
                        if quantifier:
                            head += "%s %s\n" % (quantifier, " ".join(quant))
                        yield head + "body (%s)%s\n%s" % (body, neg, ineq)


def test_criterion_02_compiler_soundness():
    targets = small_targets(3)
    count = 0
    for text in _fragment_formulas():
        f = parse_formula(text)
        qq = expansion.compile(f)
        for t in targets:
            assert quantum.evaluate(qq, t) == \
                expansion.count_formula_answers(f, t), text
        count += 1
    assert count >= 1000
    # randomized larger instances: four variables, bigger targets
    rng = random.Random(103)
    atoms = ["E(x1,y1)", "E(x1,y2)", "E(x2,y1)", "E(x2,y2)", "E(x1,x2)",
             "E(y1,y2)"]
    for _ in range(300):
        disj = ["(" + " & ".join(rng.sample(atoms, rng.randint(1, 3))) + ")"
                for _ in range(rng.randint(1, 2))]
        quantifier = rng.choice(["forall", "exists"])
        text = "formula\nfree x1 x2\n%s y1 y2\nbody (%s)%s\n%s" % (
            quantifier, " | ".join(disj),
            " & !E(x1,x2)" if rng.random() < 0.5 else "",
            "ineq x1 x2\n" if rng.random() < 0.5 else "")
        f = parse_formula(text)
        qq = expansion.compile(f)
        t = random_graph(rng, rng.randint(1, 5))
        assert quantum.evaluate(qq, t) == \
            expansion.count_formula_answers(f, t), text


def test_criterion_03_inequality_expansion():
    rng = random.Random(105)
    for _ in range(300):
        n = rng.randint(1, 4)
        s = random_graph(rng, n, 0.6)
        free = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        pairs = [(a, b) for a in free for b in free if a < b]
        ineqs = [frozenset(p) for p in
                 rng.sample(pairs, min(rng.randint(0, 3), len(pairs)))]
        q = Query(s, free, inequalities=ineqs)
        qq = expansion.expand_inequalities(q)
        t = random_graph(rng, rng.randint(0, 5))
        assert quantum.evaluate(qq, t) == homs.count_answers(q, t)
    # the top flat of the inequality triangle carries coefficient +2
    lat = expansion.matroid_flats_mobius(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert lat.mu[(("a", "b", "c"),)] == 2
    # Rota sign check over every inequality set on four variables; these
    # cover all sizes up to 6
    ground = ["a", "b", "c", "d"]
    pairs = [(u, v) for i, u in enumerate(ground) for v in ground[i + 1:]]
    for r in range(len(pairs) + 1):
        for chosen in combinations(pairs, r):
            lat = expansion.matroid_flats_mobius(ground, list(chosen))
            for rho in lat.flats:
                mu = lat.mu[rho]
                assert mu != 0 and (mu > 0) == (lat.rank[rho] % 2 == 0)


def test_criterion_04_homomorphism_identities():
    rng = random.Random(107)
    for _ in range(200):
        q = random_query(rng, 4)
        t = random_graph(rng, rng.randint(1, 4))
        total = 0
        for mask in range(1 << t.n):
            z = frozenset(v for v in range(t.n) if mask >> v & 1)
            total += homs.count_surjective_answers(q, t, z)
        assert total == homs.count_answers(q, t)
    for _ in range(200):
        pattern = random_graph(rng, rng.randint(1, 4))
        free = tuple(sorted(rng.sample(range(pattern.n),
                                       rng.randint(0, pattern.n))))
        q = Query(pattern, free)
        t, c = random_colored_instance(rng, pattern)
        assert homs.count_cf_answers(q, t, c) == \
            homs.count_partial_automorphisms(q) * homs.count_cp_answers(q, t, c)
    for _ in range(200):
        q = random_query(rng, 3)
        a = random_graph(rng, rng.randint(1, 3))
        b = random_graph(rng, rng.randint(1, 3))
        assert homs.count_answers(q, tensor_product(a, b)) == \
            homs.count_answers(q, a) * homs.count_answers(q, b)


def test_criterion_05_monotonicity_extraction():
    rng = random.Random(109)

    def minimal(max_n):
        # probe targets are tensor products, so the answer sets the oracle
        # enumerates grow like n^|free|; capping the free set keeps the
        # hundred cases fast without shrinking the query size
        n = rng.randint(1, max_n)
        g = random_graph(rng, n, 0.6)
        nf = rng.randint(1, min(n, 3))
        free = tuple(sorted(rng.sample(range(n), nf)))
        return homs.augmented_core(Query(g, free))

    done = 0
    while done < 100:
        size = 2 + done % 2
        support = []
        while len(support) < size:
            q = minimal(4)
            if all(not homs.are_equivalent(q, q2) for q2 in support):
                support.append(q)
        coeffs = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                  for _ in support]
        qq = quantum.normalize(quantum.QuantumQuery(list(zip(coeffs, support))))
        if len(qq.terms) != size:
            continue
        t = random_graph(rng, rng.randint(1, 5))
        got = quantum.extract_constituent_counts(qq, t)
        want = {q: homs.count_answers(q, t) for _, q in qq.terms}
        assert got == want
        done += 1


def _colored_pattern_instance(rng, pattern, max_per_class=2, p=0.6):
    return random_colored_instance(rng, pattern, max_per_class, p)


def test_criterion_06_gadget_preservation():
    rng = random.Random(111)

    def rand_edge_query():
        n = rng.randint(2, 5)
        g = random_graph(rng, n, 0.6)
        if not graph_edges(g):
            g = graph(n, [(0, 1)])
        free = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        return Query(g, free)

    # the three minor gadgets, one hundred instances each
    for op_kind in ("delete-edge", "contract-edge"):
        for _ in range(100):
            q = rand_edge_query()
            op = (op_kind, rng.choice(graph_edges(q.structure)))
            minor, _ = gadgets.query_minor_with_map(q, op)
            t, c = _colored_pattern_instance(rng, minor.structure)
            out = gadgets.minor_instance_gadget(q, op, t, c)
            assert homs.count_cp_answers(minor, t, c) == \
                homs.count_cp_answers(q, out.structure, out.coloring)
    for _ in range(100):
        base = rand_edge_query()
        # append an isolated vertex so delete-vertex applies
        n = base.structure.n
        g = graph(n + 1, graph_edges(base.structure))
        q = Query(g, base.free)
        op = ("delete-vertex", n)
        minor, _ = gadgets.query_minor_with_map(q, op)
        t, c = _colored_pattern_instance(rng, minor.structure)
        out = gadgets.minor_instance_gadget(q, op, t, c)
        assert homs.count_cp_answers(minor, t, c) == \
            homs.count_cp_answers(q, out.structure, out.coloring)
    # uncolored to color-prescribed
    for _ in range(100):
        q = rand_edge_query()
        t = random_graph(rng, rng.randint(0, 5))
        out = gadgets.uncolored_to_cp_gadget(q, t)
        assert homs.count_answers(q, t) == \
            homs.count_cp_answers(q, out.structure, out.coloring)
    # colorful and color-prescribed counts from the uncolored oracle
    for _ in range(100):
        kind = rng.choice(["psi", "gamma", "poly"])
        q = gadgets.family_query(kind, 2)
        t, c = _colored_pattern_instance(rng, q.structure)
        assert gadgets.cf_count_via_uncolored(q, t, c) == \
            homs.count_cf_answers(q, t, c)
        assert cp_count_via_uncolored(q, t, c) == \
            homs.count_cp_answers(q, t, c)
    # matched-clique query to grate
    for k in (2, 3):
        gamma = gadgets.family_query("gamma", k)
        omega = gadgets.family_query("omega", k)
        for _ in range(100):
            t, c = _colored_pattern_instance(rng, gamma.structure, p=0.7)
            out = gadgets.gamma_to_grate_gadget(k, t, c)
            assert homs.count_cp_answers(gamma, t, c) == \
                homs.count_cp_answers(omega, out.structure, out.coloring)
    # Gaifman expansion for a ternary signature
    sig = Signature((("R", 3), ("E", 2)))
    for _ in range(100):
        n = rng.randint(2, 4)
        rels = {"R": set(), "E": set()}
        for _ in range(rng.randint(1, 3)):
            rels["R"].add(tuple(rng.randrange(n) for _ in range(3)))
        for _ in range(rng.randint(0, 3)):
            rels["E"].add((rng.randrange(n), rng.randrange(n)))
        s = Structure(sig, n, rels)
        free = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        q = Query(s, free)
        gg = gaifman_graph(s)
        t, c = _colored_pattern_instance(rng, gg, p=0.7)
        out = gadgets.gaifman_expand_gadget(q, t, c)
        lhs = homs.count_cp_answers(Query(gg, free), t, c)
        if out.zero:
            assert lhs == 0
        else:
            assert lhs == homs.count_cp_answers(q, out.structure, out.coloring)


def test_criterion_07_dominating_set_pipeline():
    c4 = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert gadgets.domset_via_star_oracle(c4, 2)[1] == 6
    k13 = graph(4, [(0, 1), (0, 2), (0, 3)])
    assert gadgets.domset_via_star_oracle(k13, 1) == [1]
    for n, edges in graph_representatives(7, min_n=1):
        g = graph(n, edges)
        k = min(3, n)
        assert gadgets.domset_via_star_oracle(g, k) == \
            [gadgets._brute_dominating_sets(g, ell)
             for ell in range(1, k + 1)]


def test_criterion_08_parameter_values():
    psi4 = gadgets.family_query("psi", 4)
    assert params.dominating_star_size(psi4) == 4
    assert params.dominating_star_size(gadgets.family_query("subdivided", 4)) == 2
    cg = params.contract_graph(psi4)
    assert cg.n == 4 and sorted(graph_edges(cg)) == \
        [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert params.contract_graph(gadgets.family_query("w1", 4)).n == 0
    k4 = graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    width, _ = decompose(k4)
    assert width == 3
    expected = {"poly": "P", "w1": "W[1]-eq.", "subdivided": "#W[1]-eq.",
                "psi": "#W[2]-hard", "gamma": "#A[2]-eq."}
    for kind, label in expected.items():
        family = [gadgets.family_query(kind, k) for k in (2, 3, 4)]
        assert params.classify(family)["regime"] == label, kind


def test_criterion_09_non_maximal_clique_identity():
    # ordered k-cliques extendable by one extra adjacent vertex, which is
    # k! times the number of non-maximal k-cliques
    def phi(k):
        xs = ["x%d" % i for i in range(1, k + 1)]
        atoms = ["E(%s,%s)" % p for p in combinations(xs, 2)]
        atoms += ["E(%s,y)" % x for x in xs]
        return parse_formula("formula\nfree %s\nexists y\nbody %s\n"
                             % (" ".join(xs), " & ".join(atoms)))

    tpp = graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    phi2 = phi(2)
    qq2 = expansion.compile(phi2)
    # the only non-maximal edges of the triangle-plus-pendant are the three
    # triangle edges, each counted with 2! orders
    assert quantum.evaluate(qq2, tpp) == 6
    assert expansion.count_formula_answers(phi2, tpp) == 6
    k4 = graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    phi3 = phi(3)
    qq3 = expansion.compile(phi3)
    # every one of the four triangles of the complete graph extends, so the
    # extendable count is 3! * 4 and the maximal-clique remainder is zero
    assert quantum.evaluate(qq3, k4) == 24
    assert expansion.count_formula_answers(phi3, k4) == 24
    triangle_query = Query(graph(3, [(0, 1), (1, 2), (0, 2)]), (0, 1, 2))
    ordered_triangles = homs.count_answers(triangle_query, k4)
    assert ordered_triangles - quantum.evaluate(qq3, k4) == 0


def test_criterion_10_linear_independence_structure():
    # all minimal graph queries with <= 3 vertices, pairwise non-equivalent
    minimal = []
    for q in query_representatives(3, min_n=0):
        core = homs.augmented_core(q)
        if core.structure.n != q.structure.n:
            continue
        if any(homs.are_equivalent(core, other) for other in minimal):
            continue
        minimal.append(core)
    assert len(minimal) >= 10
    support = sorted_support(minimal)
    mat = surjective_map_matrix(support)
    for i in range(len(support)):
        assert mat[i][i] > 0
        for j in range(i + 1, len(support)):
            assert mat[i][j] == 0
    family = quantum.build_test_family(support)
    assert len(family) == len(support)
    rows = [[homs.count_answers(q, f) for f in family] for q in support]
    assert len(quantum.row_reduce(rows)[1]) == len(support)
