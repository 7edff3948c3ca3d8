import random
import time
import tracemalloc
from itertools import permutations, product

import pytest

from cqcount import decomposition as dec
from cqcount import homs
from cqcount.gadgets import family_query
from cqcount.model import (GRAPH_SIGNATURE, Complement, Query, Structure,
                           complement_structure, gaifman_adjacency, graph,
                           graph_edges)
from cqcount.parser import parse_structure

from helpers import (count_answers_dp, decompose, extendability_relation,
                     min_fill_tree, random_colored_instance, random_graph,
                     random_query, validate_decomposition)


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def tw(g):
    width, _ = decompose(g)
    return width


def test_exact_treewidth_values():
    assert tw(graph(0, [])) == -1
    assert tw(graph(3, [])) == 0
    assert tw(path(5)) == 1
    assert tw(cycle(4)) == 2
    assert tw(clique(4)) == 3
    assert tw(clique(6)) == 5


def test_past_the_exact_limit_decomposes_by_min_fill(monkeypatch):
    # past EXACT_TREEWIDTH_LIMIT vertices no subset DP runs: the tree is
    # min-fill's, valid and of least width on a clique and a path
    def refuse(adj, vertices):
        raise AssertionError("subset DP on %d vertices" % len(vertices))

    monkeypatch.setattr(dec, "_elimination_width", refuse)
    for g, width in ((clique(dec.EXACT_TREEWIDTH_LIMIT + 1), 20),
                     (path(40), 1)):
        start = time.perf_counter()
        got, td = decompose(g)
        assert time.perf_counter() - start < 1
        check_elimination_tree(td, g)
        assert got == td.width == width


def check_elimination_tree(td, g):
    """Each vertex is eliminated once, each up[i] lies in its parent's bag,
    the width is the largest up and the bags decompose g."""
    assert sorted(td.order) == list(g.vertices())
    bags = [set(up) | {v} for v, up in zip(td.order, td.up)]
    # every vertex is a root, with an empty up, or the child of one vertex
    assert sorted(c for kids in td.children for c in kids) == \
        [i for i, up in enumerate(td.up) if up]
    for p, kids in enumerate(td.children):
        for c in kids:
            assert c < p and set(td.up[c]) <= bags[p]
    assert td.width == max(map(len, td.up), default=-1)
    assert validate_decomposition(td, g)


def least_elimination_width(g):
    """The treewidth of g as the least width over every elimination order."""
    adj = gaifman_adjacency(g)
    vertices = list(g.vertices())
    return min((max(map(len, dec._eliminate(adj, vertices, order)[1]),
                    default=-1) for order in permutations(vertices)))


def test_exact_elimination_trees_are_valid_and_of_least_width():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        width, td = decompose(g)
        check_elimination_tree(td, g)
        assert td.width == width == least_elimination_width(g)


def test_heuristic_decomposition_is_still_valid():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        adj = {v: set(ns) for v, ns in gaifman_adjacency(g).items()}
        width, td = min_fill_tree(adj, list(g.vertices()))
        assert validate_decomposition(td, g)
        assert width >= tw(g)


def test_exact_and_min_fill_elimination_trees_are_valid():
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        adj = {v: set(ns) for v, ns in gaifman_adjacency(g).items()}
        vertices = list(g.vertices())
        trees = (dec.decompose_graph((adj, vertices)),
                 min_fill_tree(adj, vertices))
        for exact, (width, td) in zip((True, False), trees):
            check_elimination_tree(td, g)
            assert width == td.width
            assert width == tw(g) if exact else width >= tw(g)


def test_dp_hom_count_matches_brute_force():
    rng = random.Random(7)
    for _ in range(80):
        s = random_graph(rng, rng.randint(1, 5))
        t = random_graph(rng, rng.randint(0, 5))
        _, td = decompose(s)
        q = Query(s, tuple(range(s.n)))
        assert dec.count_homs_dp(s, t, td) == homs.count_answers(q, t)


def test_dp_answer_count_matches_brute_force():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 5)
        s = random_graph(rng, n)
        q = Query(s, tuple(range(n)))
        t = random_graph(rng, rng.randint(0, 5))
        _, td = decompose(s)
        assert count_answers_dp(q, t, td) == homs.count_answers(q, t)


def test_dp_answer_count_rejects_quantified_or_constrained_queries():
    s = path(3)
    _, td = decompose(s)
    with pytest.raises(ValueError):
        count_answers_dp(Query(s, (0, 2)), path(3), td)
    q = Query(s, (0, 1, 2), inequalities=[frozenset((0, 2))])
    with pytest.raises(ValueError):
        count_answers_dp(q, path(3), td)


def test_extendability_relation_on_the_wedge():
    q = Query(path(3), (0, 2))
    rel = extendability_relation(q, path(3), 0)
    assert len(rel) == homs.count_answers(q, path(3)) == 5
    assert all(len(tup) == 2 for tup in rel)


def test_dss_count_matches_brute_force():
    rng = random.Random(13)
    for _ in range(120):
        q = random_query(rng, 5)
        t = random_graph(rng, rng.randint(0, 5))
        assert dec.count_answers_dss(q, t) == homs.count_answers(q, t)


def test_dense_complement_term_stays_small():
    # the compiled forall y E(x1,y) | E(x2,y) is this term on the reflexive
    # complement: without fusing the introduce and forget of v2 its table
    # holds n**3 rows, over 400 MB at n = 150
    q = Query(Structure(GRAPH_SIGNATURE, 3, {"E": [(0, 2), (1, 2)]}), (0, 1))
    t = complement_structure(path(40))
    assert dec.count_answers_dss(q, t) == homs.count_answers(q, t) == 40 ** 2
    t = complement_structure(path(150))
    tracemalloc.start()
    try:
        value = dec.count_answers_dss(q, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 150 ** 2
    assert peak < 50 * 2 ** 20


def test_dss_rejects_side_constraints():
    q = Query(path(3), (0, 2), inequalities=[frozenset((0, 2))])
    with pytest.raises(ValueError):
        dec.count_answers_dss(q, path(3))


def test_derived_free_query_has_only_free_variables():
    rng = random.Random(19)
    for _ in range(40):
        q = random_query(rng, 5)
        t = random_graph(rng, rng.randint(1, 4))
        derived = dec.derived_free_query(q, t)
        if derived is None:
            assert homs.count_answers(q, t) == 0
            continue
        dq, dt = derived
        assert dq.quantified() == []
        assert homs.count_answers(dq, dt) == homs.count_answers(q, t)


# (signature, atoms every query holds, symbols empty in every target)
INDEX_CASES = {
    "ternary-repeated-variable": ([("R", 3)], [("R", (0, 0, 1))], ()),
    "unary": ([("U", 1), ("E", 2)], [("U", (0,))], ()),
    "directed": ([("D", 2)], [("D", (0, 1))], ()),
    "empty-target-relation": ([("E", 2), ("Z", 2)], [], ("Z",)),
}


def random_instance(rng, case):
    """A random query structure over the case's signature, holding its
    forced atoms plus a few random ones, and a random target."""
    signature, forced, empty = INDEX_CASES[case]
    n = rng.randint(2, 5)
    rels = {name: set() for name, _ in signature}
    for name, tup in forced:
        rels[name].add(tup)
    for _ in range(rng.randint(0, 4)):
        name, arity = rng.choice(signature)
        rels[name].add(tuple(rng.randrange(n) for _ in range(arity)))
    s = Structure(signature, n, rels)
    m = rng.randint(0, 4)
    target = {name: [tup for tup in product(range(m), repeat=arity)
                     if name not in empty and rng.random() < 0.5 ** (arity - 1)]
              for name, arity in signature}
    return s, Structure(signature, m, target)


def brute_table(s, t, keep, domains):
    """The homomorphisms of s to t with every vertex in its domain, counted
    per assignment of keep, by enumerating every map into the domains."""
    table = {}
    for image in product(*(domains.get(v, range(t.n)) for v in s.vertices())):
        if all(tuple(image[v] for v in tup) in t.relations[name]
               for name, rel in s.relations.items() for tup in rel):
            key = tuple(image[v] for v in keep)
            table[key] = table.get(key, 0) + 1
    return table


def check_existence_table(s, t, td, keep, domains):
    """dp_tables' existence table over the sorted keep, and its size,
    against brute_table's keys when td is one tree whose root's up+ is
    keep: it has one root and every keep vertex shares an atom with one of
    its vertices.  Otherwise dp_tables refuses with ValueError.  Returns
    whether td qualified."""
    adj = gaifman_adjacency(s)
    touched = {u for v in td.order for u in adj[v] if u in keep}
    if sum(not up for up in td.up) != 1 or touched != set(keep):
        for size in (False, True):
            with pytest.raises(ValueError):
                dec.dp_tables(s, t, td, keep, domains, size)
        return False
    want = brute_table(s, t, keep, domains or {})
    table = dec.dp_tables(s, t, td, keep, domains)
    assert set(table) == set(want) and len(table) == len(want)
    assert all(tup in table for tup in want)
    assert 0 not in getattr(table, "index", {}).values()
    assert dec.dp_tables(s, t, td, keep, domains, size=True) == len(want)
    return True


def check_count(s, t, td, domains):
    """count_homs_dp over td, a tree of every vertex of s, against brute
    force."""
    assert dec.count_homs_dp(s, t, td, domains) == \
        brute_table(s, t, (), domains or {}).get((), 0)


def keep_last(s, td, keep):
    """An elimination tree of every vertex of s: td's order, then keep."""
    order, up = dec._eliminate(gaifman_adjacency(s), list(s.vertices()),
                               list(td.order) + list(keep))
    return dec.TreeDecomposition(order, up, max(map(len, up), default=-1))


@pytest.mark.parametrize("case", sorted(INDEX_CASES))
def test_dp_and_dss_match_brute_force_beyond_graphs(case):
    rng = random.Random(case)
    for _ in range(60):
        s, t = random_instance(rng, case)
        _, td = decompose(s)
        assert dec.count_homs_dp(s, t, td) == \
            homs.count_answers(Query(s, tuple(s.vertices())), t)
        free = tuple(sorted(rng.sample(range(s.n), rng.randint(0, s.n))))
        q = Query(s, free)
        assert dec.count_answers_dss(q, t) == homs.count_answers(q, t)


def test_dp_tables_with_keep_and_domains_matches_brute_force():
    # the existence table over keep where the rest is one tree whose root
    # meets keep, and the count over a tree of every vertex that eliminates
    # keep last
    rng = random.Random(23)
    covered = 0
    for case in sorted(INDEX_CASES) * 15:
        s, t = random_instance(rng, case)
        keep = sorted(rng.sample(range(s.n), rng.randint(1, 2)))
        rest = [v for v in s.vertices() if v not in keep]
        adj = {v: set(ns) for v, ns in gaifman_adjacency(s).items()}
        _, td = dec.decompose_graph((adj, rest))
        domains = {v: rng.sample(range(t.n), rng.randint(0, t.n))
                   for v in s.vertices() if rng.random() < 0.7}
        covered += check_existence_table(s, t, td, keep, domains)
        check_count(s, t, keep_last(s, td, keep), domains)
    assert covered


def random_domains(rng, q, t):
    return {v: rng.sample(range(t.n), rng.randint(0, t.n))
            for v in q.structure.vertices() if rng.random() < 0.7}


def test_count_with_domains_matches_brute_force():
    rng = random.Random(31)
    for _ in range(150):
        q = random_query(rng, 5)
        t = random_graph(rng, rng.randint(0, 5))
        domains = random_domains(rng, q, t)
        want = homs.count_answers(q, t, domains)
        assert dec.count(q, t, domains, method="dp") == want
        assert dec.count(q, t, domains) == want


def test_auto_leaves_the_dp_only_for_a_non_plain_query_or_a_budget():
    psi2 = Query(path(3), (0, 2))
    t = path(4)
    assert dec.count_and_method(psi2, t) == \
        (homs.count_answers(psi2, t), "dp")
    side = Query(path(3), (0, 2), inequalities=[frozenset((0, 2))])
    assert dec.count_and_method(side, t) == \
        (homs.count_answers(side, t), "brute")
    co = complement_structure(t)
    assert dec.count_and_method(psi2, co) == \
        (homs.count_answers(psi2, co), "dp")
    # a component that touches 7 free vertices counts on the DP while its
    # tables fit
    star = family_query("psi", 7)
    want = homs.count_answers(star, path(3))
    assert dec.count_and_method(star, path(3)) == (want, "dp")
    assert dec.count(star, path(3), method="dp") == want
    # the DP refuses only by the rows it stores, with a typed error
    with pytest.raises(dec.BudgetError) as err:
        dec.count(star, clique(9), method="dp")
    assert (err.value.parameter, err.value.cap) == \
        ("table rows", dec.TABLE_ROWS_CAP)
    assert err.value.value > dec.TABLE_ROWS_CAP


@pytest.mark.parametrize("k, n", [(7, 8), (7, 10), (8, 8), (8, 10)])
def test_psi_k_on_a_cycle_counts_its_closed_form_on_the_dp(k, n):
    # each of the n centres reaches 2**k tuples of its two neighbours, and
    # only the n constant tuples have two centres; brute force takes up to
    # a minute here
    assert dec.count(family_query("psi", k), cycle(n), method="dp") == \
        n * 2 ** k - n


@pytest.mark.parametrize("kind", ["psi", "gamma"])
def test_a_wide_boundary_counts_within_colour_classes(kind):
    # seven free vertices in one component's boundary, each kept in its
    # colour class, against the search within the same classes
    q = family_query(kind, 7)
    rng = random.Random("cp:" + kind)
    found = 0
    for _ in range(6):
        t, c = random_colored_instance(rng, q.structure, 3,
                                       0.6 if kind == "psi" else 0.95)
        classes = dict(enumerate(c.classes(q.structure.n)))
        want = homs.count_answers(q, t, classes)
        assert dec.count_and_method(q, t, classes) == (want, "dp")
        assert homs.count_cp_answers(q, t, c) == want
        found += want
    assert found


def wide_keep_instance(rng):
    """A structure over E/2 and T/3 whose keep, 5 to 8 vertices, touches a
    quantified path of 1-3 vertices, with a few random atoms anywhere, and
    a target of 2-3 vertices.  Returns (structure, keep, target)."""
    signature = [("E", 2), ("T", 3)]
    keep = list(range(rng.randint(5, 8)))
    chain = list(range(len(keep), len(keep) + rng.randint(1, 3)))
    n = chain[-1] + 1
    rels = {"E": set(zip(chain, chain[1:])), "T": set()}
    rels["E"].update((v, rng.choice(chain)) for v in keep)
    for _ in range(rng.randint(0, 4)):
        name, arity = rng.choice(signature)
        rels[name].add(tuple(rng.randrange(n) for _ in range(arity)))
    m = rng.randint(2, 3)
    t = Structure(signature, m, {
        name: [tup for tup in product(range(m), repeat=arity)
               if rng.random() < (0.7 if arity == 2 else 0.5)]
        for name, arity in signature})
    return Structure(signature, n, rels), keep, t


def test_wide_existence_tables_match_the_extendability_relation():
    # keeps of 5 to 8 columns: dp_tables over the whole structure, the
    # fast counter's part relation and a brute projection agree
    rng = random.Random(43)
    widths = set()
    for _ in range(24):
        s, keep, t = wide_keep_instance(rng)
        rest = [v for v in s.vertices() if v not in keep]
        _, td = dec.decompose_graph((gaifman_adjacency(s), rest))
        table = dec.dp_tables(s, t, td, keep)
        q = Query(s, tuple(keep))
        part = dec._Plan(q).parts[0]
        assert part.boundary == keep
        want = brute_projection(part, t, None)
        assert set(table) == extendability_relation(q, t, 0) == want
        assert len(table) == len(want)
        assert dec.dp_tables(s, t, td, keep, size=True) == len(want)
        widths.add(len(keep))
    assert widths == {5, 6, 7, 8}


def walk_pairs(g, length):
    """The pairs (a, b) of vertices of the graph g joined by a walk of the
    given length: the nonzero entries of the Boolean power A^length."""
    adj = [[False] * g.n for _ in range(g.n)]
    for a, b in g.relations["E"]:
        adj[a][b] = True
    reach = [[a == b for b in range(g.n)] for a in range(g.n)]
    for _ in range(length):
        reach = [[any(row[c] and adj[c][b] for c in range(g.n))
                  for b in range(g.n)] for row in reach]
    return sum(map(sum, reach))


def test_a_chain_past_the_exact_limit_counts_on_the_dp():
    # 24 quantified vertices between two free ones: the part is planned by
    # min-fill, so neither auto nor dp leaves the DP
    n = 24
    chain = [0] + list(range(2, n + 2)) + [1]
    q = Query(graph(n + 2, list(zip(chain, chain[1:]))), (0, 1))
    assert len(dec._plan(q).parts[0].vertices) > dec.EXACT_TREEWIDTH_LIMIT
    rng = random.Random(43)
    for t in (cycle(5), path(4), random_graph(rng, 8, 0.3),
              random_graph(rng, 40, 0.1)):
        want = walk_pairs(t, n + 1)
        for method in ("auto", "dp"):
            assert dec.count_and_method(q, t, method=method) == (want, "dp")


def test_a_covering_count_builds_no_derived_tree():
    # a covering count never runs the final DP, so its plan never
    # decomposes the derived query
    dec._plan.cache_clear()
    rng = random.Random(47)
    for kind in ("psi", "gamma", "omega"):
        for k in range(1, 5):
            q = family_query(kind, k)
            t = random_graph(rng, 6)
            assert dec.count(q, t) == homs.count_answers(q, t)
            plan = dec._plan(q)
            assert plan.covering is not None and plan._td is None


def test_count_plans_each_query_once(monkeypatch):
    rng = random.Random(37)
    calls = []
    build = dec.decompose_graph

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(dec, "decompose_graph", counting)
    dec._plan.cache_clear()
    # two quantified components, so three decompositions per plan
    q = Query(path(5), (0, 2))
    for _ in range(20):
        t = random_graph(rng, rng.randint(0, 6))
        domains = random_domains(rng, q, t) if rng.random() < 0.5 else None
        assert dec.count(q, t, domains) == homs.count_answers(q, t, domains)
    assert len(calls) == 3


def plan_trees(q):
    """The distinct elimination trees of q's plan: the derived query's and
    one per group of repeated parts."""
    plan = dec._plan(q)
    trees = [plan.tree()] + [part.tree() for part in plan.parts]
    return list({id(td): td for td in trees}.values())


def test_count_schedules_each_tree_once(monkeypatch):
    # each part tree is scheduled once for its existence table, the derived
    # query's tree once for the count
    rng = random.Random(53)
    calls = []
    schedule = dec._schedule

    def counting(structure, td, keep):
        calls.append((id(td), keep is None))
        return schedule(structure, td, keep)

    monkeypatch.setattr(dec, "_schedule", counting)
    # two different components; poly_4's three y_i share one tree
    for q in (Query(path(5), (0, 2)), family_query("poly", 4)):
        dec._plan.cache_clear()
        calls.clear()
        for _ in range(20):
            t = random_graph(rng, rng.randint(0, 6))
            domains = (random_domains(rng, q, t) if rng.random() < 0.5
                       else None)
            assert dec.count(q, t, domains) == \
                homs.count_answers(q, t, domains)
        trees = plan_trees(q)
        assert len(trees) == (3 if q.free == (0, 2) else 2)
        derived = dec._plan(q).tree()
        assert sorted(calls) == sorted((id(td), td is derived)
                                       for td in trees)


def test_part_trees_hold_only_existence_steps():
    rng = random.Random(83)
    for kind in FAMILY_KEYS:
        for k in (1, 2, 3, 4):
            q = family_query(kind, k)
            dec._plan.cache_clear()
            plan = dec._plan(q)
            for _ in range(3):
                t = random_graph(rng, rng.randint(1, 5))
                assert dec.count(q, t, method="dp") == \
                    homs.count_answers(q, t)
            for part in plan.parts:
                assert part.tree().schedules
                assert all(keep is not None
                           for _, keep in part.tree().schedules)
            assert all(keep is None for _, keep in plan.tree().schedules)


def component_tables(monkeypatch):
    """A list that gains the keep columns of every component table built."""
    built = []
    dp_tables = dec.dp_tables

    def counting(structure, target, td, keep=None, domains=None,
                 size=False):
        if keep:
            built.append(keep)
        return dp_tables(structure, target, td, keep, domains, size)

    monkeypatch.setattr(dec, "dp_tables", counting)
    return built


@pytest.mark.parametrize("family", [("poly", 4), ("subdivided", 3)])
def test_repeated_components_share_one_table(monkeypatch, family):
    q = family_query(*family)
    parts = len(dec._plan(q).parts)
    assert parts == 3
    built = component_tables(monkeypatch)
    rng = random.Random("shared:%s" % (family,))
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 6))
        for t in (g, complement_structure(g)):
            free_only = dict.fromkeys(
                q.free, rng.sample(range(t.n), rng.randint(1, t.n)))
            same = rng.sample(range(t.n), rng.randint(1, t.n))
            # the i-th quantified vertex avoids value i, so no two parts
            # see the same local domains
            apart = {y: [w for w in range(t.n) if w != i]
                     for i, y in enumerate(q.quantified())}
            for domains, tables in ((None, 1), (free_only, 1),
                                    (dict.fromkeys(range(q.structure.n),
                                                   same), 1),
                                    (apart, parts)):
                built.clear()
                assert dec.count(q, t, domains, method="dp") == \
                    homs.count_answers(q, t, domains)
                assert len(built) == tables


def test_repeated_components_count_as_brute_force_under_random_domains():
    rng = random.Random(59)
    for _ in range(40):
        q = family_query(rng.choice(["poly", "subdivided"]), rng.randint(2, 4))
        g = random_graph(rng, rng.randint(0, 5))
        t = complement_structure(g) if rng.random() < 0.5 else g
        domains = random_domains(rng, q, t) if rng.random() < 0.7 else None
        assert dec.count(q, t, domains, method="dp") == \
            homs.count_answers(q, t, domains)


@pytest.mark.parametrize("family", [("poly", 4), ("subdivided", 3)])
def test_a_lead_group_indexes_each_relation_object_once(family):
    # the parts of one lead group share a relation object under three
    # names; a symmetric relation's one index serves every name and position
    q = family_query(*family)
    plan = dec._plan(q)
    names = [name for name in plan.names if name]
    rng = random.Random("indexes:%s" % (family,))
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 6))
        for t in (g, complement_structure(g)):
            apart = {y: [w for w in range(t.n) if w != i]
                     for i, y in enumerate(q.quantified())}
            for domains, relations in ((None, 1), (apart, 3)):
                dq, dt = dec.derived_free_query(q, t, domains)
                dec.count_homs_dp(dq.structure, dt, plan.tree())
                assert len({id(dt.relations[name]) for name in names}) == \
                    relations
                indexes = {id(pair[0]) for (name, _), pair in dt.masks.items()
                           if name in names}
                assert len(indexes) == relations


def family_schedules(q):
    """The schedules of every tree of q's plan, as the fast counter runs
    them: the derived query's count and each part's existence table."""
    plan = dec._plan(q)
    yield dec._schedule(plan.query.structure, plan.tree(), None)
    for part in plan.parts:
        yield dec._schedule(part.sub, part.tree(), part.keep)


def test_single_child_sum_outs_fold_into_the_grow_before_them():
    # no step only sums out: a join joins two or more tables and every
    # sum-out is folded into a grow or a join; the counts over trees of
    # every vertex that eliminate keep last, and the existence tables over
    # keep, match brute force
    rng = random.Random(61)
    schedules = [steps for kind in ("psi", "gamma", "omega", "poly",
                                    "subdivided")
                 for k in (2, 3, 4) for steps in
                 family_schedules(family_query(kind, k))]
    covered = 0
    for _ in range(80):
        s = random_graph(rng, rng.randint(1, 6))
        keep = tuple(sorted(rng.sample(range(s.n),
                                       rng.randint(0, min(2, s.n)))))
        rest = [v for v in s.vertices() if v not in keep]
        adj = gaifman_adjacency(s)
        _, td = (dec.decompose_graph((adj, rest)) if rng.random() < 0.5
                 else min_fill_tree(adj, rest))
        whole = keep_last(s, td, keep)
        schedules.append(dec._schedule(s, whole, None))
        t = random_graph(rng, rng.randint(0, 4))
        domains = random_domains(rng, Query(s, ()), t)
        check_count(s, t, whole, domains)
        if check_existence_table(s, t, td, keep, domains):
            schedules.append(td.schedules[s, keep])
            covered += 1
    assert covered
    for steps in schedules:
        for step in steps:
            assert step[0] == "grow" or (step[0] == "join" and step[1] >= 2)
    assert any(step[0] == "grow" and len(step) == 6 and step[5] is not None
               for steps in schedules for step in steps)


def widest_key(steps):
    """The most columns of a row that a schedule stores: a grow's rows
    after each bind, and the table that each step leaves.  A count's last
    bind stores the columns its folded sum-out keeps; the vertex that an
    existence step's carried vertex hands its mask to at its last bind is
    a mask, not a column."""
    widest = 0
    for step in steps:
        if step[0] == "join":
            widths = [len(step[3][0])]
        else:
            binds, last = step[4], step[5]
            widths = [width for _, _, _, width, _, _ in binds]
            if last == "bind":
                widths[-1] -= 1
            elif len(step) == 6 and last:
                widths[-1] = len(last[0])
        widest = max([widest] + widths)
    return widest


def plan_keys(q):
    """(keep plus the widest up over the parts' trees, widest_key over
    their existence steps, widest_key over the derived query's count
    steps) of q's plan."""
    plan = dec._plan(q)
    old = max((len(part.keep) + len(up) for part in plan.parts
               for up in part.tree().up), default=0)
    new = max((widest_key(dec._schedule(part.sub, part.tree(), part.keep))
               for part in plan.parts), default=0)
    derived = widest_key(dec._schedule(plan.query.structure, plan.tree(),
                                       None))
    return old, new, derived


# plan_keys of each family at k = 1..4.  A part's existence steps never
# store the column its root hands its mask to, so psi_k's store k - 1
# columns; omega_4's part alone stores as many as its keep plus widest up
FAMILY_KEYS = {
    "psi": [(1, 0, 0), (2, 1, 0), (3, 2, 1), (4, 3, 2)],
    "gamma": [(1, 0, 0), (3, 1, 0), (5, 3, 1), (7, 4, 2)],
    "omega": [(1, 0, 0), (3, 1, 0), (5, 4, 1), (6, 6, 2)],
    "poly": [(0, 0, 0), (2, 1, 0), (2, 1, 1), (2, 1, 1)],
    "subdivided": [(0, 0, 0), (2, 1, 0), (2, 1, 1), (2, 1, 2)],
    "w1": [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 2, 0)],
}


def test_no_plan_key_grows():
    for kind, keys in FAMILY_KEYS.items():
        assert [plan_keys(family_query(kind, k)) for k in (1, 2, 3, 4)] == \
            keys
    rng = random.Random(73)
    for _ in range(200):
        q = random_query(rng, 7)
        old, new, derived = plan_keys(q)
        assert new <= old
        assert derived <= max(map(len, dec._plan(q).tree().up), default=0)


def test_dp_tables_with_keep_isolated_from_a_disconnected_rest():
    # the rest splits into pieces, each a root of its own tree, and some
    # keep vertices touch no piece, so the existence table over keep
    # refuses unless one piece is empty and the other meets every keep
    # vertex; the count over a tree of every vertex that eliminates keep
    # last joins the pieces' tables below keep, or beside it
    rng = random.Random(79)
    signature = [("E", 2), ("T", 3)]
    for _ in range(120):
        n = rng.randint(3, 7)
        keep = sorted(rng.sample(range(n), rng.randint(1, 3)))
        rest = [v for v in range(n) if v not in keep]
        cut = rng.randint(0, len(rest))
        pieces = [rest[:cut], rest[cut:]]
        near = rng.sample(keep, rng.randint(0, len(keep)))
        rels = {"E": set(), "T": set()}
        for group in pieces + [keep]:
            for _ in range(rng.randint(0, 3)):
                rels["E"].add((rng.choice(group + near), rng.choice(group))
                              if group else (keep[0], keep[0]))
        for _ in range(rng.randint(0, 2)):
            rels["T"].add(tuple(rng.choice(keep) for _ in range(3)))
        s = Structure(signature, n, rels)
        m = rng.randint(0, 4)
        g = Structure(signature, m, {
            name: [tup for tup in product(range(m), repeat=arity)
                   if rng.random() < 0.5 ** (arity - 1)]
            for name, arity in signature})
        adj = gaifman_adjacency(s)
        for _, td in (dec.decompose_graph((adj, rest)),
                      min_fill_tree(adj, rest)):
            whole = keep_last(s, td, keep)
            for t in (g, complement_structure(g)):
                domains = random_domains(rng, Query(s, ()), t)
                for doms in (None, domains):
                    check_existence_table(s, t, td, keep, doms)
                    check_count(s, t, whole, doms)


def test_an_existence_table_needs_one_tree_whose_root_meets_keep():
    # on the path 0 - 1 - 2 - 3: {0, 2} is a forest, {1} misses keep 3, and
    # a tree of no vertex has no root; {1, 2} meets 0 and 3
    s, t = path(4), cycle(5)
    adj = gaifman_adjacency(s)
    for rest, keep in (([0, 2], (1, 3)), ([1], (0, 3)), ([], (0, 1, 2, 3))):
        _, td = dec.decompose_graph((adj, rest))
        for size in (False, True):
            with pytest.raises(ValueError):
                dec.dp_tables(s, t, td, keep, size=size)
        assert not td.schedules
        assert not check_existence_table(s, t, td, keep, None)
    _, td = dec.decompose_graph((adj, [1, 2]))
    assert check_existence_table(s, t, td, (0, 3), None)


def test_a_domain_value_outside_the_target_is_refused():
    # psi_2 on P3: an atom vertex, a free vertex without atoms and a
    # negative value, under every method, before either method runs
    psi2 = Query(path(3), (0, 2))
    lone = Query(graph(2, []), (0, 1))
    t = path(3)
    for q, domains, named in ((psi2, {0: [5]}, "0"), (psi2, {1: [-1]}, "1"),
                              (lone, {1: [0, 5]}, "1")):
        for method in ("dp", "brute", "auto"):
            with pytest.raises(ValueError) as err:
                dec.count(q, t, domains, method=method)
            assert "vertex " + named in str(err.value)
            assert str(domains[int(named)][-1]) in str(err.value)
    assert dec.count(psi2, t, {0: [2], 1: None}) == \
        homs.count_answers(psi2, t, {0: [2]})


COVERING = [(kind, k) for kind in ("psi", "gamma", "omega") for k in (1, 2, 3)]


@pytest.mark.parametrize("family", COVERING)
def test_a_covering_part_is_counted_by_its_keys(monkeypatch, family):
    q = family_query(*family)

    def final_dp(*args, **kwargs):
        raise AssertionError("the final DP ran")

    monkeypatch.setattr(dec, "count_homs_dp", final_dp)
    rng = random.Random("covering:%s" % (family,))
    for _ in range(8):
        g = random_graph(rng, rng.randint(0, 5))
        for t in (g, complement_structure(g)):
            for domains in (None, random_domains(rng, q, t)):
                assert dec.count_answers_dss(q, t, domains) == \
                    homs.count_answers(q, t, domains)


@pytest.mark.parametrize("family", [(kind, k) for kind in ("psi", "gamma",
                                                          "omega")
                                    for k in (2, 3)])
def test_a_covering_part_checks_its_free_only_atoms(monkeypatch, family):
    # a free-only edge lies in the covering part's substructure, so the
    # part's table checks it and its keys are still the answers
    base = family_query(*family)
    edges = graph_edges(base.structure)
    q = Query(graph(base.structure.n, edges + [(0, 1)]), base.free)
    assert dec._plan(q).covering is not None

    def final_dp(*args, **kwargs):
        raise AssertionError("the final DP ran")

    monkeypatch.setattr(dec, "count_homs_dp", final_dp)
    rng = random.Random("free-only:%s" % (family,))
    for _ in range(10):
        g = random_graph(rng, rng.randint(0, 6))
        for t in (g, complement_structure(g)):
            for domains in (None, random_domains(rng, q, t)):
                assert dec.count_answers_dss(q, t, domains) == \
                    homs.count_answers(q, t, domains)


@pytest.mark.parametrize("family", COVERING)
def test_a_covering_count_builds_no_derived_query(monkeypatch, family):
    # a covering count reads the part's table alone: psi_k counts its keys
    # at the last bind, gamma_2 stores them after a folded sum-out and
    # omega_2 after a join, and none of them builds the derived query
    q = family_query(*family)

    def stored(*args, **kwargs):
        raise AssertionError("the derived query was built")

    monkeypatch.setattr(dec, "derived_free_query", stored)
    monkeypatch.setattr(dec, "count_homs_dp", stored)
    rng = random.Random("counted:%s" % (family,))
    for _ in range(8):
        g = random_graph(rng, rng.randint(0, 6))
        for t in (g, complement_structure(g)):
            for domains in (None, random_domains(rng, q, t)):
                assert dec.count_answers_dss(q, t, domains) == \
                    homs.count_answers(q, t, domains)


def test_a_covering_count_is_zero_when_a_boundary_free_part_is_empty():
    # psi_2 beside a quantified triangle that touches no free vertex: the
    # count is psi_2's on a target with a triangle and 0 on one without
    psi2 = family_query("psi", 2)
    q = Query(graph(6, graph_edges(psi2.structure)
                    + [(3, 4), (4, 5), (3, 5)]), psi2.free)
    plan = dec._plan(q)
    assert plan.covering is not None and len(plan.parts) == 2
    rng = random.Random(67)
    paw = graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    for t, triangle in ((path(6), False), (cycle(8), False),
                        (clique(3), True), (paw, True)):
        want = homs.count_answers(psi2, t) if triangle else 0
        assert dec.count_answers_dss(q, t) == homs.count_answers(q, t) == want
        domains = random_domains(rng, q, t)
        assert dec.count_answers_dss(q, t, domains) == \
            homs.count_answers(q, t, domains)
        co = complement_structure(t)
        assert dec.count_answers_dss(q, co) == homs.count_answers(q, co)


def test_root_tables_hold_no_zero_counts():
    # a row whose candidate mask is 0 is dropped, whatever empties it: a
    # target without vertices, an empty domain, or a domain disjoint from
    # every candidate of its vertex
    s = path(3)
    adj = gaifman_adjacency(s)
    _, rest = dec.decompose_graph((adj, [1, 2]))
    _, whole = decompose(s)
    lonely = graph(4, [(0, 1), (1, 2)])
    for t, domains in [(graph(0, []), None), (path(3), {1: []}),
                       (path(3), {0: []}), (lonely, {1: [3]}),
                       (lonely, {0: [3]})]:
        assert check_existence_table(s, t, rest, (0,), domains)
        check_count(s, t, whole, domains)
    rng = random.Random(41)
    for case in sorted(INDEX_CASES):
        s, t = random_instance(rng, case)
        _, td = decompose(s)
        assert dec.count_homs_dp(s, Structure(t.signature, 0, {}), td) == 0


def test_a_target_builds_each_index_once():
    q = Query(path(5), (0, 2))  # two components, so R0 and R1
    t = cycle(7)
    first = dec.count(q, t, method="dp")
    built = dict(t.masks)
    assert built
    assert dec.count(q, t, method="dp") == first
    assert t.masks.keys() == built.keys()
    assert all(t.masks[key] is found for key, found in built.items())
    # the derived target shares t's entries; its fresh relations are
    # indexed in its own memo only
    dq, dt = dec.derived_free_query(q, t)
    assert all(dt.masks[key] is found for key, found in built.items())
    dec.count_homs_dp(dq.structure, dt, dec._plan(q).tree())
    fresh = {name for name, _ in dt.masks} - set(t.signature.arity)
    assert fresh == {"R0", "R1"}
    assert {name for name, _ in t.masks} <= set(t.signature.arity)


@pytest.mark.parametrize("case", sorted(INDEX_CASES))
def test_dp_on_complement_targets_matches_brute_force(case):
    rng = random.Random("complement:" + case)
    for _ in range(40):
        s, t = random_instance(rng, case)
        free = tuple(sorted(rng.sample(range(s.n), rng.randint(0, s.n))))
        q = Query(s, free)
        co = complement_structure(t)
        domains = random_domains(rng, q, co) if rng.random() < 0.5 else None
        assert dec.count(q, co, domains, method="dp") == \
            homs.count_answers(q, co, domains)


def test_complement_index_reads_only_present_tuples(monkeypatch):
    # the co-masks come from the 3,998 present tuples of the path; the view's
    # 4,000,000 tuples are never walked
    q = Query(Structure(GRAPH_SIGNATURE, 2, {"E": [(0, 1)]}), (0,))
    t = complement_structure(path(2000))

    def walk(view):
        raise AssertionError("a complement view was iterated")

    monkeypatch.setattr(Complement, "__iter__", walk)
    tracemalloc.start()
    try:
        value = dec.count(q, t, method="dp")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 2000
    assert peak < 16 * 2 ** 20


def test_a_symmetric_relation_keeps_one_index_for_both_positions():
    psi3 = Query(graph(4, [(i, 3) for i in range(3)]), (0, 1, 2))
    t = cycle(7)
    assert dec.count(psi3, t, method="dp") == homs.count_answers(psi3, t)
    assert t.masks["E", (0,)] is t.masks["E", (1,)]
    # R(0,3), R(3,1): the quantified vertex sits at both positions of R
    signature = [("R", 2)]
    q = Query(Structure(signature, 4, {"R": [(0, 3), (3, 1), (2, 3)]}),
              (0, 1, 2))
    for tuples, shared in (([(0, 1), (1, 2), (2, 3), (3, 3)], False),
                           ([(0, 1), (1, 0), (1, 2), (2, 1), (3, 3)], True)):
        t = Structure(signature, 4, {"R": tuples})
        assert dec.count(q, t, method="dp") == homs.count_answers(q, t)
        assert (t.masks["R", (0,)] is t.masks["R", (1,)]) == shared


def graph_file(rng, n):
    """A graph file on n vertices, the last ones isolated, with duplicate
    and reversed edge lines and comments; returns (text, edges)."""
    used = rng.randint(0, n)
    edges = [(u, v) for u in range(used) for v in range(u + 1, used)
             if rng.random() < 0.5]
    lines = [(u, v) if rng.random() < 0.5 else (v, u)
             for u, v in edges + rng.sample(edges, len(edges) // 3)]
    rng.shuffle(lines)
    text = "# a graph file\ngraph\ndomain %d  # vertices\n" % n + "".join(
        "E %d %d%s\n" % (u, v, "  # again" if rng.random() < 0.2 else "")
        for u, v in lines)
    return text, edges


def test_a_parsed_graph_arrives_with_one_index_for_e(monkeypatch):
    rng = random.Random("parsed graph")
    calls = []
    build = dec._candidate_masks

    def spy(t, name, tup, v):
        calls.append(name)
        return build(t, name, tup, v)

    queries = [family_query(kind, k)
               for kind in ("psi", "gamma", "omega", "poly", "subdivided")
               for k in (2, 3)]
    for _ in range(12):
        text, edges = graph_file(rng, rng.randint(1, 7))
        t = parse_structure(text)
        g = graph(t.n, edges)
        assert t == g
        pair = t.masks["E", (0,)]
        assert t.masks["E", (1,)] is pair
        for v in (0, 1):
            assert pair == build(g, "E", (0, 1), v)
        monkeypatch.setattr(dec, "_candidate_masks", spy)
        for q in queries:
            assert dec.count(q, t, method="dp") == homs.count_answers(q, t)
        monkeypatch.undo()
        assert "E" not in calls


def test_a_symmetric_part_indexes_its_relation_once_for_both_columns():
    rng = random.Random("symmetric parts")
    for kind in ("poly", "subdivided"):
        q = family_query(kind, 3)
        plan = dec._plan(q)
        assert all(part.symmetric for part in plan.parts)
        for _ in range(4):
            t = parse_structure(graph_file(rng, rng.randint(3, 7))[0])
            _, dt = dec.derived_free_query(q, t)
            for name in plan.names:
                # an empty relation ends its DP before any index is made
                if dt.relations[name]:
                    assert dt.masks[name, (0,)] is dt.masks[name, (1,)]
            assert dec.count(q, t, method="dp") == homs.count_answers(q, t)
    # x0 - y0 - y1 - x1 with a pendant y2 on y0: swapping x0 and x1 with
    # the y's fixed is no automorphism; and poly_3 with unequal domains on
    # its first two free vertices
    pendant = Query(graph(5, [(0, 2), (2, 3), (3, 1), (2, 4)]), (0, 1))
    poly3 = family_query("poly", 3)
    assert not any(part.symmetric for part in dec._plan(pendant).parts)
    for _ in range(12):
        t = parse_structure(graph_file(rng, rng.randint(2, 7))[0])
        x = rng.sample(range(t.n), rng.randint(1, t.n))
        y = [w for w in range(t.n) if w != x[0]]
        for q, domains in ((pendant, None), (poly3, {0: x, 1: y})):
            derived = dec.derived_free_query(q, t, domains)
            if derived is not None:
                dt = derived[1]
                for name in filter(None, dec._plan(q).names):
                    assert sum(key[0] == name for key in dt.masks) <= 1
            assert dec.count(q, t, domains, method="dp") == \
                homs.count_answers(q, t, domains)


def test_a_sparse_component_table_follows_its_output():
    # psi_3 on an 80-vertex path: binding the free vertices with the
    # quantified vertex's mask carried drops every prefix without a common
    # neighbour, where the full boundary product holds 80**3 = 512,000 rows
    class Counting(dict):
        lookups = 0

        def get(self, key, default=None):
            Counting.lookups += 1
            return dict.get(self, key, default)

    psi3 = Query(graph(4, [(i, 3) for i in range(3)]), (0, 1, 2))
    dec.count(psi3, path(4), method="dp")  # plan outside the measurement
    t = path(80)
    index, default = dec._candidate_masks(t, "E", (0, 1), 1)
    assert dec._candidate_masks(t, "E", (0, 1), 0)[0] is index
    t.masks["E", (0,)] = t.masks["E", (1,)] = (Counting(index), default)
    tracemalloc.start()
    try:
        value = dec.count(psi3, t, method="dp")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbrs = gaifman_adjacency(t)
    answers = {(a, b, c) for y in range(80)
               for a in nbrs[y] for b in nbrs[y] for c in nbrs[y]}
    assert value == len(answers) == 548
    assert Counting.lookups < 20000
    assert peak < 2 * 2 ** 20


# (vertices, keep, elimination order of every vertex with keep last and
# each one's later neighbours, bags).  In the first, 1 is carried at its
# leaf through 0, and 3 is carried over the binds of 0 and of 2, which is
# summed out in the same step; the root 0 joins their tables.  In the
# second, 5 joins its children 1 and 4, each carried at its leaf through 0
# and 5, and 2 is as in the first.  In the third, 2 and 3 are each carried
# at their leaf through both keep columns and joined at 0.  In the last, 3
# and 4 are each carried at their leaf through 2 and joined there, 2 binds
# 1 above that join and is summed out, and 1 binds 0 above that summed
# table.  Without keep, the first three are forests, and the last is one
# tree.
CARRIED_TREES = [
    (4, (0,), ([1, 3, 2, 0], [(0,), (0, 2), (0,), ()]), [(0, 1), (0, 2, 3)]),
    (6, (0,), ([1, 4, 5, 3, 2, 0], [(0, 5), (0, 5), (0,), (0, 2), (0,), ()]),
     [(0, 1, 5), (0, 4, 5), (0, 2, 3)]),
    (4, (0, 1), ([2, 3, 0, 1], [(0, 1), (0, 1), (1,), ()]),
     [(0, 1, 2), (0, 1, 3)]),
    (5, (0,), ([3, 4, 2, 1, 0], [(2,), (2,), (1,), (0,), ()]),
     [(2, 3), (2, 4), (1, 2), (0, 1)]),
]


def random_carried_instance(rng, vertices, bags):
    """Random R/2 atoms inside the bags, the carried vertex 3 looped half
    the time, and a random R/2 target with loops, symmetric half the time."""
    signature = [("R", 2)]
    pairs = sorted({(a, b) for bag in bags for a in bag for b in bag})
    atoms = {pair for pair in pairs if rng.random() < 0.4}
    if rng.random() < 0.5:
        atoms.add((3, 3))
    s = Structure(signature, vertices, {"R": atoms})
    m = rng.randint(0, 5)
    tuples = {(a, b) for a in range(m) for b in range(m)
              if rng.random() < 0.4}
    if rng.random() < 0.5:
        tuples |= {(b, a) for a, b in tuples}
    return s, Structure(signature, m, {"R": tuples})


@pytest.mark.parametrize("shape", range(len(CARRIED_TREES)))
def test_carried_mask_matches_brute_force(shape):
    # loops on the carried vertex, keep columns it has no atom with, binds
    # above a sum-out or a join, empty and disjoint domains, and complement
    # targets, whose co-masks default to full
    vertices, keep, (order, up), bags = CARRIED_TREES[shape]
    td = dec.TreeDecomposition(order, up, None)
    rest = dec.TreeDecomposition(
        [v for v in order if v not in keep],
        [tuple(u for u in later if u not in keep)
         for v, later in zip(order, up) if v not in keep], None)
    rng = random.Random("carried:%d" % shape)
    for _ in range(60):
        s, t = random_carried_instance(rng, vertices, bags)
        for target in (t, complement_structure(t)):
            domains = {v: rng.sample(range(t.n), rng.randint(0, t.n))
                       for v in s.vertices() if rng.random() < 0.5}
            if t.n and rng.random() < 0.3:
                # values on no edge between two distinct values: often
                # disjoint from the carried vertex's candidates on t
                linked = {w for tup in t.relations["R"] if tup[0] != tup[1]
                          for w in tup}
                domains[3] = [w for w in range(t.n) if w not in linked]
            for doms in (None, domains):
                check_count(s, target, td, doms)
                check_existence_table(s, target, rest, keep, doms)
            q = Query(s, keep)
            assert dec.count(q, target, domains, method="dp") == \
                homs.count_answers(q, target, domains)


def test_carried_mask_reads_ternary_atoms_keyed_by_keep_columns():
    # R(0,1,2) is completed by keep column 1 under a two-column key, and
    # R(1,1,2) by keep column 1 alone under the key (w, w), in the
    # existence table over keep and in the count that eliminates keep last
    signature, _, _ = INDEX_CASES["ternary-repeated-variable"]
    td = dec.TreeDecomposition([2], [()], None)
    whole = dec.TreeDecomposition([2, 0, 1], [(0, 1), (1,), ()], None)
    rng = random.Random(43)
    shapes = [(0, 1, 2), (1, 1, 2), (2, 1, 0), (2, 2, 1), (1, 0, 0)]
    for _ in range(80):
        atoms = {tup for tup in shapes if rng.random() < 0.6} | {(0, 1, 2)}
        s = Structure(signature, 3, {"R": atoms})
        m = rng.randint(0, 4)
        t = Structure(signature, m, {"R": [
            tup for tup in product(range(m), repeat=3) if rng.random() < 0.3]})
        for target in (t, complement_structure(t)):
            domains = random_domains(rng, Query(s, (0, 1)), target)
            assert check_existence_table(s, target, td, (0, 1), domains)
            check_count(s, target, whole, domains)
            q = Query(s, (0, 1))
            assert dec.count(q, target, domains, method="dp") == \
                homs.count_answers(q, target, domains)


# the compiled forall y E(x1,y) | E(x2,y) counts this term on the reflexive
# complement; its component table holds a row per pair (x1, x2)
DENSE_TERM = Query(Structure(GRAPH_SIGNATURE, 3, {"E": [(0, 2), (1, 2)]}),
                   (0, 1))
# x1 and x2 joined through a quantified K4: the first vertex of the K4 that
# the DP eliminates has a table keyed by two other K4 vertices, about n**2
# rows on a dense target, while every part's relation has at most n keys
WIDE_TERM = Query(graph(6, [(0, 2), (1, 3)] + [
    (a, b) for a in range(2, 6) for b in range(a + 1, 6)]), (0, 1))


def test_a_table_past_the_row_cap_raises_a_budget_error():
    t = complement_structure(path(600))  # 360,000 rows, past 2**18
    with pytest.raises(dec.BudgetError) as err:
        dec.count(WIDE_TERM, t, method="dp")
    assert (err.value.parameter, err.value.cap) == \
        ("table rows", dec.TABLE_ROWS_CAP)
    assert err.value.value > dec.TABLE_ROWS_CAP
    assert "TABLE_ROWS_CAP" in str(err.value)


def test_auto_falls_back_to_brute_force_past_the_row_cap(monkeypatch):
    monkeypatch.setattr(dec, "TABLE_ROWS_CAP", 1000)
    t = complement_structure(path(200))
    # the fallback is the row cap's: the DP itself runs and passes it
    with pytest.raises(dec.BudgetError, match="TABLE_ROWS_CAP"):
        dec.count(WIDE_TERM, t, method="dp")
    tracemalloc.start()
    try:
        value, method = dec.count_and_method(WIDE_TERM, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (value, method) == (homs.count_answers(WIDE_TERM, t), "brute")
    assert value == 200 ** 2
    # the DP's 40,000-row table would take several MB
    assert peak < 2 ** 20
    assert dec.count(WIDE_TERM, t) == value


def test_a_covering_count_past_the_row_cap_stores_no_key():
    # DENSE_TERM's 360,000 answers would pass TABLE_ROWS_CAP if stored; its
    # last bind counts them, so only x1's 600 rows are kept
    t = complement_structure(path(600))
    assert dec._plan(DENSE_TERM).covering is not None
    tracemalloc.start()
    try:
        value, method = dec.count_and_method(DENSE_TERM, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (value, method) == (600 ** 2, "dp")
    assert peak < 2 ** 20
    assert dec.count(DENSE_TERM, t, method="dp") == value


def test_a_join_past_the_row_cap_raises_a_budget_error(monkeypatch):
    # the free 0, 1 and 1, 2 each reach the quantified 3 through a pendant
    # of its own, so the pendants' tables, keyed by two free vertices with
    # a mask over 3, are joined at 3.  On path(40) each pendant's table
    # holds fewer than 300 rows and the join 340.
    q = Query(graph(6, [(3, 4), (3, 5), (4, 0), (4, 1), (5, 1), (5, 2)]),
              (0, 1, 2))
    t = path(40)
    want = homs.count_answers(q, t)
    assert dec.count(q, t, method="dp") == want == 340
    monkeypatch.setattr(dec, "TABLE_ROWS_CAP", 300)
    with pytest.raises(dec.BudgetError) as err:
        dec.count(q, t, method="dp")
    assert err.traceback[-1].name == "join"
    assert "TABLE_ROWS_CAP" in str(err.value)
    assert dec.count_and_method(q, t) == (want, "brute")


def test_a_count_grow_past_the_row_cap_raises_a_budget_error(monkeypatch):
    # on K_12 a grow step of subdivided_4's final DP passes 50 rows before
    # any existence table or join does.  Any two vertices of K_12, equal or
    # not, share a neighbour, so every free tuple is an answer.
    q = family_query("subdivided", 4)
    t = graph(12, [(a, b) for a in range(12) for b in range(a + 1, 12)])
    want = 12 ** 4
    assert dec.count(q, t, method="dp") == want
    monkeypatch.setattr(dec, "TABLE_ROWS_CAP", 50)
    with pytest.raises(dec.BudgetError) as err:
        dec.count(q, t, method="dp")
    assert err.traceback[-1].name == "grow"
    assert "TABLE_ROWS_CAP" in str(err.value)
    assert dec.count_and_method(q, t) == (want, "brute")


def test_a_derived_symbol_steps_past_a_name_the_query_uses():
    # y's part over the free 0 and 1 would be R0, which the free-only atom
    # R0(1, 2) already names
    sig = (("R0", 2),)
    q = Query(Structure(sig, 4, {"R0": [(0, 3), (3, 1), (1, 2)]}), (0, 1, 2))
    plan = dec._plan(q)
    assert plan.names == ["R0_"] and plan.covering is None
    assert plan.query.structure.relations == {"R0": {(1, 2)},
                                              "R0_": {(0, 1)}}
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        t = Structure(sig, n, {"R0": [(a, b) for a in range(n)
                                      for b in range(n)
                                      if rng.random() < 0.4]})
        assert dec.count(q, t, method="dp") == homs.count_answers(q, t)


def test_a_sparse_table_stays_on_the_dp_below_its_boundary_product(
        monkeypatch):
    # psi_3 on path(80): the boundary product has 512,000 rows, the
    # component table 548
    monkeypatch.setattr(dec, "TABLE_ROWS_CAP", 2 ** 12)
    psi3 = Query(graph(4, [(i, 3) for i in range(3)]), (0, 1, 2))
    t = path(80)
    nbrs = [[u for u in (v - 1, v + 1) if 0 <= u < 80] for v in range(80)]
    want = len({a for y in range(80) for a in product(nbrs[y], repeat=3)})
    assert want == 548
    assert dec.count_and_method(psi3, t) == (want, "dp")


WIDE_SIGNATURE = [("E", 2), ("T", 3), ("Q", 4)]


def hand_off_shape(rng, kind):
    """A query whose first quantified component exercises one hand-off
    shape: "path", a quantified path of 1-4 vertices between the free 0 and
    1 with pendant trees; "cycle", gamma_k or omega_k; "wide", a path of
    1-2 vertices between free vertices, with a T/3 or Q/4 atom on it and
    loops; "join", a quantified vertex 3 whose two pendants each reach two
    of the free 0, 1, 2, so their tables are keyed by two columns and
    joined at 3.  Returns the query over E/2, T/3 and Q/4."""
    if kind == "join":
        edges = [(3, 4), (3, 5), (4, 0), (4, 1), (5, 1), (5, 2)]
        edges += rng.sample([(3, 0), (3, 1), (3, 2), (3, 3)],
                            rng.randint(0, 2))
        rels = {"E": {(a, b) for e in edges for a, b in (e, e[::-1])},
                "T": set(), "Q": set()}
        if rng.random() < 0.5:
            rels["T"].add((4, 3, 5))
        return Query(Structure(WIDE_SIGNATURE, 6, rels), (0, 1, 2))
    if kind == "cycle":
        base = family_query(rng.choice(["gamma", "omega"]), rng.randint(2, 3))
        rels = {"E": set(base.structure.relations["E"]), "T": set(),
                "Q": set()}
        return Query(Structure(WIDE_SIGNATURE, base.structure.n, rels),
                     base.free)
    length = rng.randint(1, 4 if kind == "path" else 2)
    chain = list(range(2, 2 + length))
    edges = list(zip([0] + chain, chain + [1]))
    n = 2 + length
    for _ in range(rng.randint(0, 2)):
        # a pendant tree: each new vertex hangs off an earlier one
        edges.append((rng.randrange(2, n), n))
        n += 1
    rels = {"E": {(a, b) for e in edges for a, b in (e, e[::-1])},
            "T": set(), "Q": set()}
    free = (0, 1)
    if kind == "wide":
        # half the time a third free vertex, which only the wide atom can
        # bring into the boundary
        if rng.random() < 0.5:
            free, n = free + (n,), n + 1
        name, arity = rng.choice([("T", 3), ("Q", 4)])
        tup = [rng.choice(chain)] + rng.sample(chain + list(free), arity - 1)
        rng.shuffle(tup)
        rels[name].add(tuple(tup))
        for v in rng.sample(chain, rng.randint(0, len(chain))):
            rels["E"].add((v, v))
    return Query(Structure(WIDE_SIGNATURE, n, rels), free)


def brute_projection(part, t, domains):
    """The boundary tuples of part that extend: each tested by
    homs.exists_extension on the part's substructure, with each boundary
    vertex pinned to its value and the component kept in its domains."""
    local = part.local_domains(domains) or {}
    found = set()
    for values in product(range(t.n), repeat=len(part.keep)):
        pinned = dict(local)
        for u, w in zip(part.keep, values):
            if w not in local.get(u, [w]):
                break
            pinned[u] = [w]
        else:
            if homs.exists_extension(part.sub, t, pinned):
                found.add(values)
    return found


@pytest.mark.parametrize("kind", ["path", "cycle", "wide", "join"])
def test_root_tables_match_a_brute_projection(kind):
    # every hand-off shape: a parent bound last or already a column, a
    # child table read as an atom or joined, a part's root handing its
    # mask to a keep column; on exact and min-fill trees
    rng = random.Random("projection:" + kind)
    for _ in range(25):
        q = hand_off_shape(rng, kind)
        m = rng.randint(1, 5)
        g = Structure(WIDE_SIGNATURE, m, {
            name: [tup for tup in product(range(m), repeat=arity)
                   if rng.random() < (0.5 if arity == 2 else 0.3)]
            for name, arity in WIDE_SIGNATURE})
        for exact in (True, False):
            plan = dec._Plan(q)
            part = plan.parts[0]
            assert part.boundary
            if not exact:
                part._td = min_fill_tree(
                    gaifman_adjacency(part.sub),
                    [part.local[v] for v in part.vertices])[1]
            for t in (g, complement_structure(g)):
                for domains in (None, random_domains(rng, q, t)):
                    want = brute_projection(part, t, domains)
                    table = part.root_table(t, domains)
                    assert set(table) == want and len(table) == len(want)
                    assert all(tup in table for tup in want)
                    assert part.root_table(t, domains, size=True) == \
                        len(want)


@pytest.mark.parametrize("family", [("poly", 3), ("subdivided", 3)])
def test_the_final_dp_reads_a_part_relation_as_its_index(monkeypatch,
                                                         family):
    # a part's relation is already the final DP's index at the column its
    # root hands its mask to, and these parts are symmetric, so at the
    # other column too: no index is built for them
    q = family_query(*family)
    plan = dec._plan(q)
    calls = []
    build = dec._candidate_masks

    def spy(t, name, tup, v):
        calls.append((name, tuple(i for i, u in enumerate(tup) if u == v)))
        return build(t, name, tup, v)

    monkeypatch.setattr(dec, "_candidate_masks", spy)
    rng = random.Random("covered:%s" % (family,))
    for _ in range(6):
        g = random_graph(rng, rng.randint(3, 8))
        for t in (g, complement_structure(g)):
            dq, dt = dec.derived_free_query(q, t)
            covered = {key for key in dt.masks if key[0] in plan.names}
            assert covered == {(name, (i,)) for name in plan.names
                               for i in (0, 1)}
            calls.clear()
            assert dec.count_homs_dp(dq.structure, dt, plan.tree()) == \
                homs.count_answers(q, t)
            assert not covered & set(calls)
