import random
import tracemalloc
from itertools import permutations, product

import pytest

from cqcount import decomposition as dec
from cqcount import homs
from cqcount.gadgets import family_query
from cqcount.model import (GRAPH_SIGNATURE, Complement, Query, Structure,
                           complement_structure, gaifman_adjacency, graph,
                           graph_edges)

from helpers import (count_answers_dp, extendability_relation,
                     random_graph, random_query, validate_decomposition)


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def tw(g):
    width, _ = dec.exact_treewidth(g)
    return width


def test_exact_treewidth_values():
    assert tw(graph(0, [])) == -1
    assert tw(graph(3, [])) == 0
    assert tw(path(5)) == 1
    assert tw(cycle(4)) == 2
    assert tw(clique(4)) == 3
    assert tw(clique(6)) == 5


def test_treewidth_limit_raises():
    # the size check runs before any subset DP, so this returns at once
    with pytest.raises(dec.TreewidthLimitError):
        dec.exact_treewidth(clique(dec.EXACT_TREEWIDTH_LIMIT + 1))


def check_elimination_tree(td, g):
    """Each vertex is eliminated once, each up[i] lies in its parent's bag,
    the width is the largest up and the bags decompose g."""
    assert sorted(td.order) == list(g.vertices())
    bags = [set(up) | {v} for v, up in zip(td.order, td.up)]
    # every vertex but the last, the root, is the child of one vertex
    assert sorted(c for kids in td.children for c in kids) == \
        list(range(len(bags) - 1))
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
        width, td = dec.exact_treewidth(g)
        check_elimination_tree(td, g)
        assert td.width == width == least_elimination_width(g)


def test_heuristic_decomposition_is_still_valid():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        adj = {v: set(ns) for v, ns in gaifman_adjacency(g).items()}
        width, td = dec.decompose_graph((adj, list(g.vertices())), exact=False)
        assert validate_decomposition(td, g)
        assert width >= tw(g)


def test_exact_and_min_fill_elimination_trees_are_valid():
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        adj = {v: set(ns) for v, ns in gaifman_adjacency(g).items()}
        for exact in (True, False):
            width, td = dec.decompose_graph((adj, list(g.vertices())),
                                            exact=exact)
            check_elimination_tree(td, g)
            assert width == td.width
            assert width == tw(g) if exact else width >= tw(g)


def test_dp_hom_count_matches_brute_force():
    rng = random.Random(7)
    for _ in range(80):
        s = random_graph(rng, rng.randint(1, 5))
        t = random_graph(rng, rng.randint(0, 5))
        _, td = dec.exact_treewidth(s)
        q = Query(s, tuple(range(s.n)))
        assert dec.count_homs_dp(s, t, td) == homs.count_answers(q, t)


def test_dp_answer_count_matches_brute_force():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 5)
        s = random_graph(rng, n)
        q = Query(s, tuple(range(n)))
        t = random_graph(rng, rng.randint(0, 5))
        _, td = dec.exact_treewidth(s)
        assert count_answers_dp(q, t, td) == homs.count_answers(q, t)


def test_dp_answer_count_rejects_quantified_or_constrained_queries():
    s = path(3)
    _, td = dec.exact_treewidth(s)
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
    """Root table of dp_tables by enumerating every map into the domains."""
    table = {}
    for image in product(*(domains.get(v, range(t.n)) for v in s.vertices())):
        if all(tuple(image[v] for v in tup) in t.relations[name]
               for name, rel in s.relations.items() for tup in rel):
            key = tuple(image[v] for v in keep)
            table[key] = table.get(key, 0) + 1
    return table


@pytest.mark.parametrize("case", sorted(INDEX_CASES))
def test_dp_and_dss_match_brute_force_beyond_graphs(case):
    rng = random.Random(case)
    for _ in range(60):
        s, t = random_instance(rng, case)
        _, td = dec.exact_treewidth(s)
        assert dec.count_homs_dp(s, t, td) == \
            homs.count_answers(Query(s, tuple(s.vertices())), t)
        free = tuple(sorted(rng.sample(range(s.n), rng.randint(0, s.n))))
        q = Query(s, free)
        assert dec.count_answers_dss(q, t) == homs.count_answers(q, t)


def test_dp_tables_with_keep_and_domains_matches_brute_force():
    rng = random.Random(23)
    for case in sorted(INDEX_CASES) * 15:
        s, t = random_instance(rng, case)
        keep = sorted(rng.sample(range(s.n), rng.randint(1, 2)))
        rest = [v for v in s.vertices() if v not in keep]
        adj = {v: set(ns) for v, ns in gaifman_adjacency(s).items()}
        _, td = dec.decompose_graph((adj, rest))
        domains = {v: rng.sample(range(t.n), rng.randint(0, t.n))
                   for v in s.vertices() if rng.random() < 0.7}
        got = dec.dp_tables(s, t, td, keep=keep, domains=domains)
        assert got == brute_table(s, t, keep, domains)


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


def test_pick_method_names_the_reason_for_brute():
    psi2 = Query(path(3), (0, 2))
    assert dec.pick_method(psi2) == ("dp", None)
    side = Query(path(3), (0, 2), inequalities=[frozenset((0, 2))])
    method, reason = dec.pick_method(side)
    assert method == "brute" and "inequalities" in reason
    co = complement_structure(path(4))
    assert dec.count_and_method(psi2, co) == \
        (homs.count_answers(psi2, co), "dp")
    k = dec.DSS_CAP + 1
    star = Query(graph(k + 1, [(i, k) for i in range(k)]), tuple(range(k)))
    method, reason = dec.pick_method(star)
    assert method == "brute" and "DSS_CAP" in reason
    # auto falls back; the DP itself refuses with a typed error
    assert dec.count(star, path(3)) == homs.count_answers(star, path(3))
    with pytest.raises(dec.BudgetError) as err:
        dec.count(star, path(3), method="dp")
    assert (err.value.parameter, err.value.value, err.value.cap) == \
        ("dss", k, dec.DSS_CAP)
    assert issubclass(dec.TreewidthLimitError, dec.BudgetError)


def test_count_plans_each_query_once(monkeypatch):
    rng = random.Random(37)
    calls = []
    decompose = dec.decompose_graph

    def counting(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

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
    rng = random.Random(53)
    calls = []
    schedule = dec._schedule

    def counting(structure, td, keep):
        calls.append(td)
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
        assert sorted(map(id, calls)) == sorted(map(id, trees))


def component_tables(monkeypatch):
    """A list that gains the keep columns of every component table built."""
    built = []
    dp_tables = dec.dp_tables

    def counting(structure, target, td, keep=(), domains=None):
        if keep:
            built.append(keep)
        return dp_tables(structure, target, td, keep, domains)

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
    """The schedules of every tree of q's plan, as dp_tables runs them."""
    plan = dec._plan(q)
    yield dec._schedule(plan.query.structure, plan.tree(), ())
    for part in plan.parts:
        yield dec._schedule(part.sub, part.tree(), part.keep)


def test_single_child_sum_outs_fold_into_the_grow_before_them():
    # no step only sums out: a join joins two or more tables and every
    # sum-out is folded into a grow or a join; the folded tables match brute
    # force
    rng = random.Random(61)
    schedules = [steps for kind in ("psi", "gamma", "omega", "poly",
                                    "subdivided")
                 for k in (2, 3, 4) for steps in
                 family_schedules(family_query(kind, k))]
    for _ in range(80):
        s = random_graph(rng, rng.randint(1, 6))
        keep = tuple(sorted(rng.sample(range(s.n),
                                       rng.randint(0, min(2, s.n)))))
        rest = [v for v in s.vertices() if v not in keep]
        _, td = dec.decompose_graph((gaifman_adjacency(s), rest),
                                    exact=rng.random() < 0.5)
        schedules.append(dec._schedule(s, td, keep))
        t = random_graph(rng, rng.randint(0, 4))
        domains = random_domains(rng, Query(s, ()), t)
        assert dec.dp_tables(s, t, td, keep, domains) == \
            brute_table(s, t, keep, domains)
    for steps in schedules:
        for step in steps:
            assert step[0] == "grow" or (step[0] == "join" and step[1] >= 2)
    assert any(step[0] == "grow" and step[5] is not None
               for steps in schedules for step in steps)


def widest_key(steps):
    """The most columns of a row that a schedule stores: a grow's rows
    after each bind but the last, and the table that each step leaves."""
    widest = 0
    for step in steps:
        if step[0] == "join":
            widths = [len(step[3][0])]
        else:
            binds, folded = step[4], step[5]
            widths = [width for _, _, _, width, _, _ in binds[:-1]]
            widths.append(len(folded[0]) if folded
                          else binds[-1][3] if binds else 0)
        widest = max(widest, *widths)
    return widest


def plan_keys(q):
    """(keep plus the widest up, widest_key) over the component tables of
    q's plan."""
    parts = dec._plan(q).parts
    old = max((len(part.keep) + len(up) for part in parts
               for up in part.tree().up), default=0)
    new = max((widest_key(dec._schedule(part.sub, part.tree(), part.keep))
               for part in parts), default=0)
    return old, new


# (keep plus the widest up, the widest key) of each family's component
# tables at k = 1..4: only gamma and omega narrow
FAMILY_KEYS = {
    "psi": [(1, 1), (2, 2), (3, 3), (4, 4)],
    "gamma": [(1, 1), (3, 2), (5, 3), (7, 4)],
    "omega": [(1, 1), (3, 2), (5, 4), (6, 6)],
    "poly": [(0, 0), (2, 2), (2, 2), (2, 2)],
    "subdivided": [(0, 0), (2, 2), (2, 2), (2, 2)],
    "w1": [(0, 0), (1, 0), (2, 1), (3, 2)],
}


def test_no_plan_key_grows():
    for kind, keys in FAMILY_KEYS.items():
        assert [plan_keys(family_query(kind, k)) for k in (1, 2, 3, 4)] == \
            keys
    rng = random.Random(73)
    for _ in range(200):
        q = random_query(rng, 7)
        old, new = plan_keys(q)
        assert new <= old
        plan = dec._plan(q)
        td = plan.tree()
        assert widest_key(dec._schedule(plan.query.structure, td, ())) <= \
            max(map(len, td.up), default=0)


def test_dp_tables_with_keep_isolated_from_a_disconnected_rest():
    # the rest splits into pieces, each a root of its own tree; some keep
    # vertices touch no piece, so the top binds them, and atoms among keep
    # columns that no single root holds are checked at the top
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
        for exact in (True, False):
            _, td = dec.decompose_graph((gaifman_adjacency(s), rest), exact)
            for t in (g, complement_structure(g)):
                domains = random_domains(rng, Query(s, ()), t)
                for doms in (None, domains):
                    assert dec.dp_tables(s, t, td, keep, doms) == \
                        brute_table(s, t, keep, doms or {})


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


def test_root_tables_hold_no_zero_counts():
    # a row whose candidate mask is 0 is dropped, whatever empties it: a
    # target without vertices, an empty domain, or a domain disjoint from
    # every candidate of its vertex
    s = path(3)
    adj = gaifman_adjacency(s)
    _, rest = dec.decompose_graph((adj, [1, 2]))
    _, whole = dec.exact_treewidth(s)
    lonely = graph(4, [(0, 1), (1, 2)])
    for t, domains in [(graph(0, []), None), (path(3), {1: []}),
                       (path(3), {0: []}), (lonely, {1: [3]}),
                       (lonely, {0: [3]})]:
        for td, keep in ((rest, [0]), (whole, [])):
            table = dec.dp_tables(s, t, td, keep=keep, domains=domains)
            assert 0 not in table.values()
            assert table == brute_table(s, t, keep, domains or {})
    rng = random.Random(41)
    for case in sorted(INDEX_CASES):
        s, t = random_instance(rng, case)
        _, td = dec.exact_treewidth(s)
        assert dec.dp_tables(s, Structure(t.signature, 0, {}), td) == {}


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


# (vertices, keep, elimination order and later neighbours of the others,
# bags with keep added).  In the first, 3 is carried over the bind of 2 on
# top of the child 1, summed out at its leaf; in the second, over the bind of
# 2 on top of 5, which joins the children 1 and 4; in the last, 2 is carried
# at its leaf through two keep columns and 3 over the sum-out of 2.
CARRIED_TREES = [
    (4, (0,), ([1, 3, 2], [(), (2,), ()]), [(0, 1), (0, 2, 3)]),
    (6, (0,), ([1, 4, 5, 3, 2], [(5,), (5,), (), (2,), ()]),
     [(0, 1, 5), (0, 4, 5), (0, 2, 3)]),
    (4, (0, 1), ([2, 3], [(), ()]), [(0, 1, 2), (0, 1, 3)]),
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
                table = dec.dp_tables(s, target, td, keep=keep, domains=doms)
                assert 0 not in table.values()
                assert table == brute_table(s, target, keep, doms or {})
            q = Query(s, keep)
            assert dec.count(q, target, domains, method="dp") == \
                homs.count_answers(q, target, domains)


def test_carried_mask_reads_ternary_atoms_keyed_by_keep_columns():
    # R(0,1,2) is completed by keep column 1 under a two-column key, and
    # R(1,1,2) by keep column 1 alone under the key (w, w)
    signature, _, _ = INDEX_CASES["ternary-repeated-variable"]
    td = dec.TreeDecomposition([2], [()], None)
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
            table = dec.dp_tables(s, target, td, keep=(0, 1), domains=domains)
            assert 0 not in table.values()
            assert table == brute_table(s, target, (0, 1), domains)
            q = Query(s, (0, 1))
            assert dec.count(q, target, domains, method="dp") == \
                homs.count_answers(q, target, domains)


# the compiled forall y E(x1,y) | E(x2,y) counts this term on the reflexive
# complement; its component table holds a row per pair (x1, x2)
DENSE_TERM = Query(Structure(GRAPH_SIGNATURE, 3, {"E": [(0, 2), (1, 2)]}),
                   (0, 1))


def test_a_table_past_the_row_cap_raises_a_budget_error():
    t = complement_structure(path(600))  # 360,000 rows, past 2**18
    with pytest.raises(dec.BudgetError) as err:
        dec.count(DENSE_TERM, t, method="dp")
    assert (err.value.parameter, err.value.cap) == \
        ("table rows", dec.TABLE_ROWS_CAP)
    assert err.value.value > dec.TABLE_ROWS_CAP
    assert "TABLE_ROWS_CAP" in str(err.value)


def test_auto_falls_back_to_brute_force_past_the_row_cap(monkeypatch):
    monkeypatch.setattr(dec, "TABLE_ROWS_CAP", 1000)
    t = complement_structure(path(200))
    assert dec.pick_method(DENSE_TERM) == ("dp", None)
    tracemalloc.start()
    try:
        value, method = dec.count_and_method(DENSE_TERM, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (value, method) == (homs.count_answers(DENSE_TERM, t), "brute")
    assert value == 200 ** 2
    # the DP's 40,000-row table would take several MB
    assert peak < 2 ** 20
    assert dec.count(DENSE_TERM, t) == value


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
