import random

import pytest

from cqcount import gadgets, homs
from cqcount.model import (Coloring, Query, Signature, Structure,
                           gaifman_graph, graph, graph_edges)

from helpers import (cp_count_via_uncolored, random_colored_instance,
                     random_graph)


def test_family_query_shapes():
    psi = gadgets.family_query("psi", 3)
    assert psi.free == (0, 1, 2) and psi.structure.n == 4
    assert sorted(graph_edges(psi.structure)) == [(0, 3), (1, 3), (2, 3)]
    gamma = gadgets.family_query("gamma", 3)
    assert gamma.free == (0, 1, 2) and gamma.structure.n == 6
    w1 = gadgets.family_query("w1", 4)
    assert w1.free == () and len(graph_edges(w1.structure)) == 6
    sub = gadgets.family_query("subdivided", 4)
    assert sub.structure.n == 4 + 6
    poly = gadgets.family_query("poly", 4)
    assert poly.free == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        gadgets.family_query("nope", 2)


def test_omega_positions_cover_the_staircase():
    pos = gadgets.omega_positions(3)
    assert pos["free"] == {(0, 2): 0, (1, 1): 1, (2, 0): 2}
    omega = gadgets.family_query("omega", 3)
    assert omega.structure.n == len(pos["free"]) + len(pos["grid"])


def test_query_minor_operations():
    q = Query(graph(3, [(0, 1), (1, 2)]), (0, 2))
    deleted, vmap = gadgets.query_minor_with_map(q, ("delete-edge", (0, 1)))
    assert graph_edges(deleted.structure) == [(1, 2)]
    contracted, vmap = gadgets.query_minor_with_map(q, ("contract-edge", (0, 1)))
    assert contracted.structure.n == 2
    assert vmap[0] == vmap[1]
    iso = Query(graph(2, []), (0,))
    removed, _ = gadgets.query_minor_with_map(iso, ("delete-vertex", 1))
    assert removed.structure.n == 1
    with pytest.raises(ValueError):
        gadgets.query_minor_with_map(q, ("delete-vertex", 1))


def rand_query(rng):
    n = rng.randint(2, 5)
    g = random_graph(rng, n, 0.6)
    if not graph_edges(g):
        g = graph(n, [(0, 1)])
    free = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
    return Query(g, free)


def test_minor_instance_gadgets_preserve_prescribed_counts():
    rng = random.Random(7)
    done = 0
    while done < 120:
        q = rand_query(rng)
        edges = graph_edges(q.structure)
        ops = [("delete-edge", e) for e in edges]
        ops += [("contract-edge", e) for e in edges]
        ops += [("delete-vertex", v) for v in q.structure.vertices()
                if all(v not in e for e in edges)]
        if not ops:
            continue
        op = rng.choice(ops)
        minor, _ = gadgets.query_minor_with_map(q, op)
        t, c = random_colored_instance(rng, minor.structure)
        out = gadgets.minor_instance_gadget(q, op, t, c)
        assert homs.count_cp_answers(minor, t, c) == \
            homs.count_cp_answers(q, out.structure, out.coloring)
        done += 1


def test_uncolored_to_cp_gadget():
    rng = random.Random(11)
    for _ in range(80):
        q = rand_query(rng)
        t = random_graph(rng, rng.randint(0, 5))
        out = gadgets.uncolored_to_cp_gadget(q, t)
        assert homs.count_answers(q, t) == \
            homs.count_cp_answers(q, out.structure, out.coloring)


def test_colorful_count_via_uncolored_oracle():
    rng = random.Random(13)
    cases = [("psi", 2), ("gamma", 2), ("poly", 2)]
    for _ in range(6):
        kind, k = rng.choice(cases)
        q = gadgets.family_query(kind, k)
        t, c = random_colored_instance(rng, q.structure, max_per_class=2)
        assert gadgets.cf_count_via_uncolored(q, t, c) == \
            homs.count_cf_answers(q, t, c)
        assert cp_count_via_uncolored(q, t, c) == \
            homs.count_cp_answers(q, t, c)
    q = gadgets.family_query("psi", 3)
    t, c = random_colored_instance(rng, q.structure, max_per_class=1)
    assert gadgets.cf_count_via_uncolored(q, t, c) == \
        homs.count_cf_answers(q, t, c)


def test_cf_via_uncolored_counts_the_oracle_calls():
    calls = []
    q = gadgets.family_query("psi", 2)
    t, c = random_colored_instance(random.Random(1), q.structure,
                                   max_per_class=2)

    def counter(query, target):
        calls.append(target.n)
        return homs.count_answers(query, target)

    got = gadgets.cf_count_via_uncolored(q, t, c, counter=counter)
    assert got == homs.count_cf_answers(q, t, c)
    assert calls


def test_count_surjections():
    assert gadgets.count_surjections(3, 2) == 6
    assert gadgets.count_surjections(4, 4) == 24
    assert gadgets.count_surjections(2, 3) == 0
    assert gadgets.count_surjections(0, 0) == 1


def test_star_instance_shape():
    g = graph(3, [(0, 1)])
    inst, coloring = gadgets.star_instance(g, 2)
    assert inst.n == 3 * g.n
    # layer vertices connect only to non-adjacent distinct base vertices
    assert coloring.colors[:3] == (2, 2, 2)


def test_star_instance_matches_the_per_layer_construction():
    # the construction that tests each pair's adjacency once per layer
    def layered(g, k):
        n, adjacent = g.n, set(graph_edges(g))
        edges = [tuple(sorted((u, i * n + v))) for i in range(1, k + 1)
                 for u in range(n) for v in range(n)
                 if u != v and tuple(sorted((u, v))) not in adjacent]
        return graph((k + 1) * n, sorted(set(edges)))

    rng = random.Random(53)
    for _ in range(10):
        g = random_graph(rng, rng.randint(0, 6))
        for k in range(1, 4):
            inst, coloring = gadgets.star_instance(g, k)
            want = layered(g, k)
            assert inst.n == want.n
            assert inst.relations == want.relations
            assert coloring.colors == tuple([k] * g.n + [
                i for i in range(k) for _ in range(g.n)])


def test_dominating_set_counts_on_named_graphs():
    c4 = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert gadgets.domset_via_star_oracle(c4, 2) == [0, 6]
    star = graph(4, [(0, 1), (0, 2), (0, 3)])
    assert gadgets.domset_via_star_oracle(star, 3)[0] == 1
    k3 = graph(3, [(0, 1), (1, 2), (0, 2)])
    assert gadgets.domset_via_star_oracle(k3, 1) == [3]


def test_dominating_set_pipeline_matches_enumeration():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 6)
        g = random_graph(rng, n)
        k = rng.randint(1, min(3, n))
        got = gadgets.domset_via_star_oracle(g, k)
        want = [gadgets._brute_dominating_sets(g, ell)
                for ell in range(1, k + 1)]
        assert got == want


def test_gamma_to_grate_gadget_preserves_prescribed_counts():
    rng = random.Random(23)
    for k, trials in ((2, 10), (3, 4)):
        gamma = gadgets.family_query("gamma", k)
        omega = gadgets.family_query("omega", k)
        for _ in range(trials):
            t, c = random_colored_instance(rng, gamma.structure,
                                           max_per_class=2, p=0.7)
            out = gadgets.gamma_to_grate_gadget(k, t, c)
            assert homs.count_cp_answers(gamma, t, c) == \
                homs.count_cp_answers(omega, out.structure, out.coloring)


def test_gaifman_expand_gadget_on_ternary_patterns():
    rng = random.Random(29)
    sig = Signature((("R", 3), ("E", 2)))
    for _ in range(30):
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
        t, c = random_colored_instance(rng, gg, max_per_class=2, p=0.7)
        out = gadgets.gaifman_expand_gadget(q, t, c)
        lhs = homs.count_cp_answers(Query(gg, free), t, c)
        if out.zero:
            assert lhs == 0
            continue
        assert lhs == homs.count_cp_answers(q, out.structure, out.coloring)


def test_graph_gadgets_refuse_an_asymmetric_target():
    # each target is colored validly, but holds one orientation of an edge
    sig = Signature((("E", 2),))
    psi = gadgets.family_query("psi", 2)
    t = Structure(sig, 3, {"E": {(0, 2)}})
    with pytest.raises(ValueError, match="graph-mode targets only"):
        gadgets.minor_instance_gadget(psi, ("delete-edge", (1, 2)), t,
                                      Coloring([0, 1, 2]))
    with pytest.raises(ValueError, match="graph-mode targets only"):
        gadgets.gaifman_expand_gadget(psi, t, Coloring([0, 1, 2]))
    t = Structure(sig, 4, {"E": {(0, 2), (1, 3), (3, 1), (2, 3)}})
    with pytest.raises(ValueError, match="graph-mode targets only"):
        gadgets.gamma_to_grate_gadget(2, t, Coloring([0, 1, 2, 3]))
