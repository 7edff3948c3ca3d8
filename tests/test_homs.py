import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from cqcount import homs, quantum
from cqcount.expansion import ep_to_quantum
from cqcount.gadgets import family_query
from cqcount.model import (BudgetError, Coloring, Complement, Query,
                           Signature, Structure, complement_structure, graph)
from cqcount.parser import parse_formula, parse_query, serialize_query

from helpers import (count_surjective_extendable_maps, explicit_complement,
                     min_retract_size, naive_normalize, one_vertex_core,
                     random_colored_instance, random_graph, random_query,
                     relabelled)


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def brute_answers(q, t, domains=None):
    """Reference count by full enumeration over all free assignments, each
    vertex v kept in domains[v] when given."""
    total = 0
    free = list(q.free)
    quantified = q.quantified()
    order = free + quantified
    pools = [range(t.n) if domains is None or domains.get(v) is None
             else domains[v] for v in order]
    for values in product(*pools):
        a = dict(zip(order, values))
        if any(a[u] == a[v] for block in q.inequalities
               for u in block for v in block if u < v):
            continue
        if any(tuple(a[v] for v in args) in t.relations[sym]
               for sym, args in q.negated_atoms):
            continue
        if all(tuple(a[v] for v in args) in t.relations[sym]
               for sym in q.structure.relations
               for args in q.structure.relations[sym]):
            total += 1
    if quantified:
        seen = set()
        total = 0
        for values in product(*pools):
            a = dict(zip(order, values))
            if any(a[u] == a[v] for block in q.inequalities
                   for u in block for v in block if u < v):
                continue
            if any(tuple(a[v] for v in args) in t.relations[sym]
                   for sym, args in q.negated_atoms):
                continue
            if all(tuple(a[v] for v in args) in t.relations[sym]
                   for sym in q.structure.relations
                   for args in q.structure.relations[sym]):
                seen.add(tuple(a[v] for v in free))
        total = len(seen)
    return total


def test_known_counts_on_paths_and_cliques():
    psi2 = Query(path(3), (0, 2))
    assert homs.count_answers(psi2, path(3)) == 5
    assert homs.count_answers(psi2, clique(4)) == 16
    edge = Query(graph(2, [(0, 1)]), (0, 1))
    assert homs.count_answers(edge, clique(4)) == 12
    assert homs.count_answers(edge, graph(3, [])) == 0
    empty_query = Query(graph(0, []), ())
    assert homs.count_answers(empty_query, path(3)) == 1
    assert homs.count_answers(Query(graph(1, []), ()), graph(0, [])) == 0


def test_count_answers_matches_brute_reference():
    rng = random.Random(7)
    for _ in range(150):
        q = random_query(rng, 4)
        t = random_graph(rng, rng.randint(0, 5))
        assert homs.count_answers(q, t) == brute_answers(q, t)


def test_side_constraints_against_brute_reference():
    rng = random.Random(11)
    for _ in range(150):
        q0 = random_query(rng, 4)
        free = list(q0.free)
        ineqs = set()
        negs = set()
        for u in free:
            for v in free:
                if u < v and rng.random() < 0.3:
                    ineqs.add(frozenset((u, v)))
                if u != v and rng.random() < 0.2:
                    negs.add(("E", (u, v)))
        q = Query(q0.structure, q0.free, inequalities=ineqs,
                  negated_atoms=negs)
        t = random_graph(rng, rng.randint(0, 5))
        assert homs.count_answers(q, t) == brute_answers(q, t)


def random_structure(rng, symbols, n, p):
    """Random structure over symbols [(name, arity)]: each tuple of each
    relation is present with probability p."""
    rels = {name: [tup for tup in product(range(n), repeat=arity)
                   if rng.random() < p]
            for name, arity in symbols}
    return Structure(Signature(symbols), n, rels)


def random_free(rng, n):
    return tuple(sorted(rng.sample(range(n), rng.randint(0, n))))


def test_ternary_relation_with_a_repeated_variable():
    rng = random.Random(31)
    sig = [("R", 3)]
    for _ in range(60):
        n = rng.randint(2, 4)
        s = random_structure(rng, sig, n, 0.08)
        rels = {"R": set(s.relations["R"]) | {(0, 0, 1)}}
        q = Query(Structure(Signature(sig), n, rels), random_free(rng, n))
        t = random_structure(rng, sig, rng.randint(1, 3), 0.4)
        assert homs.count_answers(q, t) == brute_answers(q, t)


def test_unary_and_directed_relations():
    rng = random.Random(37)
    sig = [("U", 1), ("E", 2)]
    for _ in range(80):
        n = rng.randint(1, 4)
        q = Query(random_structure(rng, sig, n, 0.25), random_free(rng, n))
        t = random_structure(rng, sig, rng.randint(0, 4), 0.4)
        assert homs.count_answers(q, t) == brute_answers(q, t)


def random_side_constraints(rng, q, symbols):
    """q with random inequalities and negated atoms on its free vertices."""
    free = list(q.free)
    ineqs = {frozenset(pair) for pair in product(free, free)
             if pair[0] < pair[1] and rng.random() < 0.3}
    negs = {(name, args) for name, arity in symbols
            for args in product(free, repeat=arity) if rng.random() < 0.15}
    return Query(q.structure, q.free, inequalities=ineqs, negated_atoms=negs)


def test_search_on_complement_targets_never_walks_a_view(monkeypatch):
    # a Complement view is only ever tested by membership: the positions
    # whose atoms lie on views scan, the others may switch to an index
    def walk(view):
        raise AssertionError("the search iterated a Complement view")

    monkeypatch.setattr(Complement, "__iter__", walk)
    built = counted_indexes(monkeypatch)
    rng = random.Random(59)
    sig = [("U", 1), ("E", 2)]
    for _ in range(80):
        n = rng.randint(1, 4)
        q = random_side_constraints(rng, Query(
            random_structure(rng, sig, n, 0.3), random_free(rng, n)), sig)
        s = random_structure(rng, sig, rng.randint(1, 6), 0.4)
        views, stored = complement_structure(s), explicit_complement(s)
        mixed = Structure(Signature(sig), s.n, {"U": s.relations["U"],
                                                "E": views.relations["E"]})
        mixed_ref = Structure(Signature(sig), s.n, {
            "U": s.relations["U"], "E": stored.relations["E"]})
        domains = {v: sorted(rng.sample(range(s.n), rng.randint(0, s.n)))
                   for v in range(n) if rng.random() < 0.4}
        for target, ref in ((views, stored), (mixed, mixed_ref)):
            assert homs.count_answers(q, target, domains) == \
                brute_answers(q, ref, domains)
    assert built and not any(isinstance(rel, Complement) for rel in built)


def counted_indexes(monkeypatch):
    """The relations whose index a search builds, recorded as it builds."""
    built = []
    index = homs._index

    def counted(rel, *args):
        built.append(rel)
        return index(rel, *args)

    monkeypatch.setattr(homs, "_index", counted)
    return built


def test_positions_switch_to_an_index_and_keep_their_counts(monkeypatch):
    # U(0), E(0,1), R(1,2,1), E(2,3) on G(10, 0.3) with ternary facts, many
    # of them repeating their first value last: over the free choices, some
    # position scans past each relation's size and switches to its index
    built = counted_indexes(monkeypatch)
    rng = random.Random(61)
    sig = Signature([("E", 2), ("R", 3), ("U", 1)])
    n = 10
    q_rels = {"U": [(0,)], "E": [(0, 1), (2, 3)], "R": [(1, 2, 1)]}
    for _ in range(2):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        t = Structure(sig, n, {
            "E": [p for p in pairs if rng.random() < 0.3],
            "R": [tup for tup in product(range(n), repeat=3)
                  if rng.random() < (0.25 if tup[0] == tup[2] else 0.04)],
            "U": [(v,) for v in range(n) if rng.random() < 0.5]})
        # a repeated domain value counts once, scanned or indexed
        doubled = {v: list(range(n)) * 2 for v in range(4)}
        for free in [(), (0,), (3, 0), (2, 1), (1, 0, 3), (0, 1, 2, 3)]:
            q = Query(Structure(sig, 4, q_rels), free)
            want = brute_answers(q, t)
            assert homs.count_answers(q, t) == want
            assert homs.count_answers(q, t, doubled) == want
        for name in ("E", "R", "U"):
            assert any(rel is t.relations[name] for rel in built)
        built.clear()


def colorful_answers(q, t, c):
    """cf answers by enumerating every map of q.structure into t, and testing
    its colors, inequalities and negated atoms only once the map is
    complete."""
    nq = q.structure.n
    atoms = [(t.relations[name], tup)
             for name, rel in q.structure.relations.items() for tup in rel]
    negated = [(t.relations[name], args) for name, args in q.negated_atoms]
    unequal = [tuple(pair) for pair in q.inequalities]
    seen = set()
    for values in product(range(t.n), repeat=nq):
        if ({c[w] for w in values} == set(range(nq))
                and {c[values[x]] for x in q.free} == set(q.free)
                and all(tuple(values[v] for v in tup) in rel
                        for rel, tup in atoms)
                and all(values[u] != values[v] for u, v in unequal)
                and not any(tuple(values[v] for v in args) in rel
                            for rel, args in negated)):
            seen.add(tuple(values[x] for x in q.free))
    return len(seen)


def test_colorful_counts_against_a_leaf_test(monkeypatch):
    # half the queries carry inequalities and negated atoms, on which cf is
    # still #PartAut times a (brute) cp count
    built = counted_indexes(monkeypatch)
    rng = random.Random(67)
    for i in range(40):
        pattern = random_graph(rng, rng.randint(1, 4))
        q = Query(pattern, random_free(rng, pattern.n))
        if i % 2:
            q = random_side_constraints(rng, q, [("E", 2)])
        t, c = random_colored_instance(rng, pattern, max_per_class=4, p=0.7)
        assert homs.count_cf_answers(q, t, c) == colorful_answers(q, t, c)
    assert built


def test_colorful_count_on_a_star_with_nine_quantified_leaves():
    # 9! permutations of the leaves are past PERMUTATION_CAP, which cf does
    # not apply; its automorphism search stops at the first extension, so
    # this takes milliseconds.  Only the identity fixes the free centre, so
    # cf is the cp count, here by brute force
    star = Query(graph(10, [(0, v) for v in range(1, 10)]), (0,))
    rng = random.Random(0)
    counts = []
    for _ in range(4):
        t, c = random_colored_instance(rng, star.structure, max_per_class=3,
                                       p=0.95)
        classes = dict(enumerate(c.classes(10)))
        counts.append(homs.count_cf_answers(star, t, c))
        assert counts[-1] == homs.count_answers(star, t, classes)
    assert any(counts)


def test_color_prescribed_counts_against_brute_reference():
    # a color-prescribed count is a plain count once every query vertex v
    # and its color class get a unary symbol C<v> of their own
    rng = random.Random(41)
    for _ in range(60):
        pattern = random_graph(rng, rng.randint(1, 4))
        q = Query(pattern, random_free(rng, pattern.n))
        t, c = random_colored_instance(rng, pattern)
        classes = c.classes(pattern.n)
        sig = [("E", 2)] + [("C%d" % v, 1) for v in pattern.vertices()]
        marks = {"C%d" % v: [(v,)] for v in pattern.vertices()}
        marked_q = Query(Structure(sig, pattern.n,
                                   dict(marks, E=pattern.relations["E"])),
                         q.free)
        marked_t = Structure(sig, t.n, dict(
            {"C%d" % v: [(w,) for w in classes[v]]
             for v in pattern.vertices()}, E=t.relations["E"]))
        assert homs.count_cp_answers(q, t, c) == \
            brute_answers(marked_q, marked_t)


def test_color_prescribed_counts_equal_counts_within_the_classes():
    # count_cp_answers counts on the DP; count_answers with the color
    # classes as domains is its oracle, on targets and their complements
    rng = random.Random(47)
    for i in range(80):
        pattern = random_graph(rng, rng.randint(1, 5))
        free = () if i % 3 == 0 else random_free(rng, pattern.n)
        q = Query(pattern, free)
        t, c = random_colored_instance(rng, pattern)
        classes = dict(enumerate(c.classes(pattern.n)))
        for target in (t, complement_structure(t)):
            assert homs.count_cp_answers(q, target, c) == \
                homs.count_answers(q, target, classes)


def test_surjective_extendable_maps_against_enumeration():
    rng = random.Random(43)
    sig = [("E", 2)]
    for _ in range(80):
        h1 = random_structure(rng, sig, rng.randint(1, 4), 0.3)
        h2 = random_structure(rng, sig, rng.randint(1, 4), 0.4)
        x1, x2 = random_free(rng, h1.n), random_free(rng, h2.n)
        extendable = set()
        for values in product(range(h2.n), repeat=h1.n):
            image = tuple(values[x] for x in x1)
            if set(image) == set(x2) and all(
                    tuple(values[v] for v in tup) in h2.relations["E"]
                    for tup in h1.relations["E"]):
                extendable.add(image)
        assert count_surjective_extendable_maps(
            Query(h1, x1), Query(h2, x2)) == len(extendable)


def test_surjective_counts_sum_to_the_total():
    rng = random.Random(13)
    for _ in range(60):
        q = random_query(rng, 4)
        t = random_graph(rng, rng.randint(1, 4))
        total = 0
        for mask in range(1 << t.n):
            z = frozenset(v for v in range(t.n) if mask >> v & 1)
            total += homs.count_surjective_answers(q, t, z)
        assert total == homs.count_answers(q, t)


def test_colorful_identity():
    rng = random.Random(17)
    for _ in range(60):
        pattern = random_graph(rng, rng.randint(1, 4))
        nf = rng.randint(0, pattern.n)
        free = tuple(sorted(rng.sample(range(pattern.n), nf)))
        q = Query(pattern, free)
        t, c = random_colored_instance(rng, pattern)
        assert homs.count_cf_answers(q, t, c) == colorful_answers(q, t, c)


def test_tensor_multiplicativity():
    from cqcount.model import tensor_product
    rng = random.Random(19)
    for _ in range(40):
        q = random_query(rng, 3)
        a = random_graph(rng, rng.randint(1, 3))
        b = random_graph(rng, rng.randint(1, 3))
        assert homs.count_answers(q, tensor_product(a, b)) == \
            homs.count_answers(q, a) * homs.count_answers(q, b)


def test_core_preserves_counts_and_is_minimal():
    rng = random.Random(23)
    for _ in range(60):
        q = random_query(rng, 4)
        core = homs.augmented_core(q)
        assert core.structure.n <= q.structure.n
        assert homs.are_equivalent(q, core)
        for t in [random_graph(rng, rng.randint(0, 4)) for _ in range(3)]:
            assert homs.count_answers(q, t) == homs.count_answers(core, t)
        # a core deletes nothing, so it comes back as the same object
        assert homs.augmented_core(core) is core


def test_core_size_matches_a_plain_retract_search():
    rng = random.Random(31)
    for _ in range(80):
        q = random_query(rng, 5)
        assert homs.augmented_core(q).structure.n == min_retract_size(q)


def test_core_keeps_single_free_vertex_attached():
    # a path with one free endpoint must shrink to a pendant edge, not to
    # a disconnected pair; the free vertex may not drift off its image
    q = parse_query("query\nfree a\nexists b c d\n"
                    "body E(a,b) & E(b,c) & E(c,d)\n")
    core = homs.augmented_core(q)
    assert core.structure.n == 2
    assert homs.count_answers(core, path(2)) == \
        homs.count_answers(q, path(2)) == 2


def test_clique_core_of_redundant_pattern():
    # two triangles sharing all-quantified vertices fold onto one triangle
    g = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    q = Query(g, (0,))
    core = homs.augmented_core(q)
    assert core.structure.n == 3


def test_core_matches_the_one_vertex_pass():
    rng = random.Random(37)
    # sparse queries with few free vertices shrink the most
    queries = [random_query(rng, 10, max_free=3,
                            p=rng.choice([0.15, 0.25, 0.35, 0.5]))
               for _ in range(200)]
    for _ in range(200):
        s = random_structure(rng, [("E", 2), ("R", 3), ("U", 1)],
                             rng.randint(1, 7), rng.choice([0.02, 0.04, 0.08]))
        free = rng.sample(range(s.n), rng.randint(0, min(3, s.n)))
        queries.append(Query(s, free))
    for q in queries:
        assert serialize_query(homs.augmented_core(q)) == \
            serialize_query(one_vertex_core(q))


# bases whose free set has automorphisms that move it: C4 with two opposite
# or all four vertices free, K_{2,3} with either side free
SYMMETRIC_FREE = [
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], (0, 2)),
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], (0, 1, 2, 3)),
    (5, [(a, b) for a in (0, 1) for b in (2, 3, 4)], (0, 1)),
    (5, [(a, b) for a in (0, 1) for b in (2, 3, 4)], (2, 3, 4)),
]


def pinned_core_cases(rng):
    """Seeded queries with 2-4 free vertices: the SYMMETRIC_FREE bases with
    1-4 quantified vertices hung on them, relabelled, and R/3 with U/1."""
    queries = []
    for n, edges, free in SYMMETRIC_FREE:
        for _ in range(40):
            size = n + rng.randint(1, 4)
            more = edges + [(u, y) for y in range(n, size) for u in range(y)
                            if rng.random() < 0.4]
            queries.append(relabelled(rng, Query(graph(size, more), free)))
    for _ in range(160):
        s = random_structure(rng, [("R", 3), ("U", 1)], rng.randint(2, 7),
                             rng.choice([0.03, 0.06, 0.1]))
        queries.append(Query(s, rng.sample(range(s.n),
                                           rng.randint(2, min(4, s.n)))))
    return queries


def test_pinned_cores_match_the_free_set_permuting_pass():
    shrunk = kept = 0
    for q in pinned_core_cases(random.Random(47)):
        core = homs.augmented_core(q)
        assert serialize_query(core) == serialize_query(one_vertex_core(q))
        shrunk += core.structure.n < q.structure.n
        kept += core is q
    assert shrunk and kept


def test_every_core_search_pins_the_free_vertices(monkeypatch):
    calls = []
    search = homs.exists_extension

    def spy(structure, target, domains=None, witness=None):
        calls.append((structure, target, domains))
        return search(structure, target, domains, witness)

    monkeypatch.setattr(homs, "exists_extension", spy)
    searched = 0
    for q in pinned_core_cases(random.Random(53)):
        del calls[:]
        homs.augmented_core(q)
        searched += len(calls)
        for structure, target, domains in calls:
            assert structure is target is q.structure
            assert sorted(domains) == list(q.structure.vertices())
            for x in q.free:
                assert domains[x] == (x,)
    assert searched


def core_searches(monkeypatch, q):
    """q's augmented core and the results of the searches it ran."""
    found = []
    search = homs.exists_extension

    def spy(structure, target, domains=None, witness=None):
        found.append(search(structure, target, domains, witness))
        return found[-1]

    monkeypatch.setattr(homs, "exists_extension", spy)
    return homs.augmented_core(q), found


def test_a_covered_vertex_folds_without_a_search(monkeypatch):
    # psi_2 with its center y doubled: y' (vertex 3) folds onto y, and only
    # y's deletion, which fails, is searched
    psi = family_query("psi", 2)
    doubled = Query(graph(4, [(0, 2), (1, 2), (0, 3), (1, 3)]), psi.free)
    core, found = core_searches(monkeypatch, doubled)
    assert found == [False]
    assert serialize_query(core) == serialize_query(psi)


def test_a_cycle_that_no_fold_retracts_is_searched(monkeypatch):
    # a quantified 6-cycle hung on the free vertex 0: no vertex of the cycle
    # covers another, so the first deletion is searched; its witness folds
    # the cycle onto an edge, and the core is the edge from the free vertex
    q = Query(graph(7, [(i, i % 6 + 1) for i in range(1, 7)] + [(0, 1)]),
              (0,))
    core, found = core_searches(monkeypatch, q)
    assert found == [True, False]
    assert serialize_query(core) == serialize_query(
        Query(graph(2, [(0, 1)]), (0,)))


def intersection_terms(rng):
    """ep_to_quantum's terms for seeded positive formulas of 2-3 disjuncts
    over 2-3 free and 1-3 quantified variables: each intersection term
    holds a copy of the quantified variables per disjunct in it."""
    terms = []
    for _ in range(40):
        free = ["x%d" % i for i in range(rng.randint(2, 3))]
        quantified = ["y%d" % i for i in range(rng.randint(1, 3))]
        names = free + quantified
        disjuncts = [" & ".join("E(%s,%s)" % tuple(rng.sample(names, 2))
                                for _ in range(rng.randint(1, 3)))
                     for _ in range(rng.randint(2, 3))]
        text = "formula\nfree %s\nexists %s\nbody (%s)\n" % (
            " ".join(free), " ".join(quantified), ") | (".join(disjuncts))
        terms += ep_to_quantum(parse_formula(text)).terms
    return terms


def test_intersection_terms_core_as_the_one_vertex_pass():
    terms = intersection_terms(random.Random(59))
    assert max(q.structure.n for _, q in terms) >= 9
    for _, q in terms:
        assert serialize_query(homs.augmented_core(q)) == \
            serialize_query(one_vertex_core(q))


def test_intersection_terms_normalize_as_pairwise_merging():
    terms = intersection_terms(random.Random(61))
    assert all(type(c) is Fraction for c, _ in terms)
    for start in range(0, len(terms), 12):
        chunk = terms[start:start + 12]
        got = quantum.normalize(quantum.QuantumQuery(chunk)).terms
        assert all(type(c) is Fraction for c, _ in got)
        want = naive_normalize(chunk)
        assert len(got) == len(want)
        for c, q in got:
            assert [c2 for c2, q2 in want if homs.are_equivalent(q, q2)] == [c]


def test_extension_witness_is_a_homomorphism_within_the_domains():
    rng = random.Random(41)
    sig = [("E", 2), ("U", 1)]
    found = missed = 0
    for _ in range(150):
        s = random_structure(rng, sig, rng.randint(1, 4), 0.3)
        t = random_structure(rng, sig, rng.randint(1, 4), 0.5)
        domains = {v: rng.sample(range(t.n), rng.randint(1, t.n))
                   for v in s.vertices() if rng.random() < 0.5}
        witness = {}
        if homs.exists_extension(s, t, domains, witness):
            found += 1
            assert sorted(witness) == list(s.vertices())
            for name, rel in s.relations.items():
                for tup in rel:
                    assert tuple(witness[v] for v in tup) in t.relations[name]
            for v, allowed in domains.items():
                assert witness[v] in allowed
        else:
            missed += 1
            assert witness == {}
    assert found and missed


def test_core_reuses_one_witness_for_pendant_leaves(monkeypatch):
    # the first search folds every leaf onto one leaf; the later leaves lie
    # outside its image, and only that leaf needs a second, failing search
    calls = []
    search = homs.exists_extension

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(homs, "exists_extension", counted)
    star = Query(graph(9, [(0, leaf) for leaf in range(1, 9)]), (0,))
    core = homs.augmented_core(star)
    assert core.structure.n == 2
    assert len(calls) <= 2


def test_domination_and_equivalence():
    edge = Query(graph(2, [(0, 1)]), (0,))
    wedge = Query(path(3), (0,))
    assert homs.dominates(edge, wedge) and homs.dominates(wedge, edge)
    assert homs.are_equivalent(edge, wedge)
    tri = Query(clique(3), (0,))
    assert homs.dominates(edge, tri)
    assert not homs.dominates(tri, edge)


def test_surjective_extendable_maps_diagonal_positive():
    rng = random.Random(29)
    pool = [random_query(rng, 3) for _ in range(10)]
    for q in pool:
        core = homs.augmented_core(q)
        assert count_surjective_extendable_maps(core, core) >= 1


def test_partial_automorphism_counts():
    assert homs.count_partial_automorphisms(Query(clique(3), (0, 1, 2))) == 6
    assert homs.count_partial_automorphisms(Query(path(3), (0, 2))) == 2
    assert homs.count_partial_automorphisms(Query(path(3), (0,))) == 1


def partial_automorphisms_by_permutations(q):
    """#PartAut by listing every permutation of the vertices: the free
    tuples of those that keep the free set and every relation."""
    from itertools import permutations
    s, free = q.structure, set(q.free)
    atoms = [(rel, tup) for rel in s.relations.values() for tup in rel]
    return len({tuple(perm[x] for x in q.free)
                for perm in permutations(s.vertices())
                if all(perm[x] in free for x in free)
                and all(tuple(perm[v] for v in tup) in rel
                        for rel, tup in atoms)})


def test_partial_automorphisms_match_all_permutations():
    rng = random.Random(43)
    for _ in range(60):
        q = random_query(rng, 6, p=rng.choice([0.3, 0.6]))
        assert homs.count_partial_automorphisms(q) == \
            partial_automorphisms_by_permutations(q)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["psi", "gamma", "omega", "poly", "w1",
                                    "subdivided"])
def test_partial_automorphisms_of_the_families(family, k):
    # psi, gamma and subdivided permute their k free vertices freely; omega
    # and poly only reverse them (k >= 2); w1 has none.  Past 8 vertices
    # listing permutations is too slow, and omega_4 (4! * 10!) is past the cap
    q = family_query(family, k)
    want = {"psi": factorial(k), "gamma": factorial(k),
            "subdivided": factorial(k), "omega": min(k, 2),
            "poly": min(k, 2), "w1": 1}[family]
    if q.structure.n <= 8:
        assert partial_automorphisms_by_permutations(q) == want
    if (family, k) == ("omega", 4):
        with pytest.raises(BudgetError):
            homs.count_partial_automorphisms(q)
        assert homs.count_partial_automorphisms(q, None) == want
    else:
        assert homs.count_partial_automorphisms(q) == want


def test_partial_automorphisms_refuse_past_the_permutation_cap():
    # 4! * 5! = 2880 free-preserving permutations pass; 9! do not
    homs.count_partial_automorphisms(Query(path(9), (0, 2, 4, 6)))
    with pytest.raises(BudgetError) as err:
        homs.count_partial_automorphisms(Query(path(9), ()))
    assert err.value.value == 362880
    assert err.value.cap == homs.PERMUTATION_CAP


def test_domination_agrees_with_the_surjective_map_count():
    rng = random.Random(47)
    for _ in range(150):
        q1, q2 = random_query(rng, 4), random_query(rng, 4)
        assert homs.dominates(q1, q2) == \
            (count_surjective_extendable_maps(q1, q2) > 0)
