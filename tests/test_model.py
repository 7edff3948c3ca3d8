import random
import tracemalloc

import pytest

from cqcount import expansion, quantum
from cqcount.model import (Coloring, Complement, Query, Signature, Structure,
                           clone_by_multiplicity, clone_vertices,
                           complement_structure, gaifman_adjacency,
                           gaifman_graph, graph, graph_edges,
                           induced_substructure, query_structure,
                           tensor_product, unmatched_pair)
from cqcount.parser import parse_formula

from helpers import (disjoint_union, explicit_complement, random_graph,
                     random_structure)


def test_graph_builder_rejects_loops():
    with pytest.raises(ValueError):
        graph(2, [(0, 0)])


def test_query_structures_store_e_atoms_undirected_over_e2_alone():
    atoms = [("E", (0, 1)), ("E", (2, 2))]
    s = query_structure(Signature((("E", 2),)), 3, atoms)
    assert s.relations["E"] == {(0, 1), (1, 0), (2, 2)}
    assert unmatched_pair(s.relations["E"]) is None and not s.is_graph()
    # beside another symbol, E is one binary relation among others
    wide = query_structure(Signature((("E", 2), ("U", 1))), 3,
                           atoms + [("U", (1,))])
    assert wide.relations["E"] == {(0, 1), (2, 2)}
    assert unmatched_pair(wide.relations["E"]) == (0, 1)
    assert query_structure(Signature((("E", 2),)), 2, [("E", (0, 1))]) == \
        graph(2, [(0, 1)])


def test_graph_stores_both_orientations():
    g = graph(3, [(0, 1)])
    assert (0, 1) in g.relations["E"] and (1, 0) in g.relations["E"]
    assert graph_edges(g) == [(0, 1)]


def test_gaifman_adjacency_of_ternary_atom():
    sig = Signature((("R", 3),))
    s = Structure(sig, 3, {"R": {(0, 1, 2)}})
    adj = gaifman_adjacency(s)
    assert adj[0] == {1, 2} and adj[1] == {0, 2}
    gg = gaifman_graph(s)
    assert sorted(graph_edges(gg)) == [(0, 1), (0, 2), (1, 2)]


def test_complement_is_reflexive_and_involutive():
    g = graph(4, [(0, 1), (2, 3)])
    c = complement_structure(g)
    assert (0, 0) in c.relations["E"]
    assert (0, 1) not in c.relations["E"]
    assert (0, 2) in c.relations["E"]
    back = complement_structure(c)
    assert back.relations["E"] == g.relations["E"]


def test_complement_view_contract():
    sig = Signature((("U", 1), ("E", 2), ("R", 3)))
    rng = random.Random(5)
    for n in range(5):
        s = random_structure(rng, sig, n, 0.4)
        c = complement_structure(s)
        explicit = explicit_complement(s)
        for name, arity in sig.symbols:
            view, want = c.relations[name], explicit.relations[name]
            assert isinstance(view, Complement)
            assert sorted(view) == sorted(want) and len(view) == len(want)
            assert view == want and want == view
            for outside in [(n,) * arity, (-1,) * arity,
                            (0,) * (arity - 1) + (n,), (0,) * (arity - 1),
                            (0,) * (arity + 1)]:
                assert outside not in view
            assert complement_structure(c).relations[name] is s.relations[name]
        assert c == explicit and explicit == c
        assert hash(c) == hash(explicit)
        assert c.total_tuples() == explicit.total_tuples()


def test_equal_structures_hash_equal_however_built():
    sig = Signature((("U", 1), ("E", 2), ("R", 3)))
    rng = random.Random(11)
    for n in range(1, 5):
        s = random_structure(rng, sig, n, 0.4)
        built = [s, Structure(sig, n, {name: list(rel) for name, rel
                                       in s.relations.items()}),
                 Structure._trusted(sig, n, dict(s.relations)),
                 complement_structure(complement_structure(s))]
        want = hash(s)
        for other in built:
            assert other == s
            assert hash(other) == want and hash(other) == want  # cached


def test_universal_evaluation_stores_no_complement():
    # the stored complement of a 1,000-vertex path would hold ~10^6 tuples,
    # about 150 MB under tracemalloc; the implicit one needs only the path
    qq = expansion.compile(parse_formula(
        "formula\nfree x1\nforall y\nbody E(x1,y)\n"))
    t = graph(1000, [(v, v + 1) for v in range(999)])
    tracemalloc.start()
    try:
        value = quantum.evaluate(qq, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 0
    assert peak < 10 * 2 ** 20


def test_tensor_product_sizes_and_projection():
    rng = random.Random(1)
    for _ in range(20):
        a = random_graph(rng, rng.randint(1, 4))
        b = random_graph(rng, rng.randint(1, 4))
        t = tensor_product(a, b)
        assert t.n == a.n * b.n


def test_clone_by_multiplicity_counts():
    g = graph(2, [(0, 1)])
    cloned, origin = clone_by_multiplicity(g, [2, 3])
    assert cloned.n == 5
    assert sorted(origin) == [0, 0, 1, 1, 1]
    assert len(graph_edges(cloned)) == 6


def test_clone_by_multiplicity_equals_the_checked_constructor():
    # clones are built without the per-tuple check; multiplicity 0 deletes
    # a vertex and every tuple through it
    rng = random.Random(71)
    signature = Signature([("U", 1), ("E", 2), ("R", 3)])
    for _ in range(40):
        s = random_structure(rng, signature, rng.randint(0, 4), p=0.4)
        multiplicity = [rng.randint(0, 2) for _ in s.vertices()]
        cloned, origin = clone_by_multiplicity(s, multiplicity)
        checked = Structure(signature, len(origin), cloned.relations)
        assert cloned == checked and hash(cloned) == hash(checked)
        assert all(isinstance(rel, frozenset)
                   for rel in cloned.relations.values())
        assert sorted(origin) == [v for v in s.vertices()
                                  for _ in range(multiplicity[v])]
        for name, rel in cloned.relations.items():
            assert {tuple(origin[v] for v in tup) for tup in rel} == {
                tup for tup in s.relations[name]
                if all(multiplicity[v] for v in tup)}


def test_clone_vertices_demands_positive_multiplicity():
    g = graph(2, [(0, 1)])
    c = Coloring([0, 1], g, g)
    with pytest.raises(ValueError):
        clone_vertices(g, c, {0: 0, 1: 1})


def test_coloring_validates_the_hom_property():
    pattern = graph(2, [(0, 1)])
    bad = graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        Coloring([0, 0], bad, pattern)
    Coloring([0, 1], bad, pattern)


def test_coloring_names_the_first_tuple_it_does_not_map():
    rng = random.Random(4)
    signature = Signature((("E", 2), ("T", 3)))
    for _ in range(60):
        pattern = random_structure(rng, signature, 3, 0.6)
        target = random_structure(rng, signature, 6, 0.5)
        colors = [rng.randrange(3) for _ in range(6)]
        first = next(((name, tup) for name, rel in target.relations.items()
                      for tup in rel if tuple(colors[v] for v in tup)
                      not in pattern.relations[name]), None)
        if first is None:
            assert Coloring(colors, target, pattern).colors == tuple(colors)
            continue
        with pytest.raises(ValueError) as e:
            Coloring(colors, target, pattern)
        assert str(e.value) == "coloring is not a homomorphism on %s%r" % first


class CountingComplement(Complement):
    """A Complement that counts the tuples its iteration has handed out."""

    __slots__ = ("taken",)

    def __iter__(self):
        self.taken = 0
        for tup in super().__iter__():
            self.taken += 1
            yield tup


def test_coloring_reads_a_complement_lazily():
    # 4,000,000 absent pairs: the check stops at the first unmapped one
    n = 2000
    rel = CountingComplement(frozenset({(0, 0)}), n, 2)
    target = Structure(Signature((("E", 2),)), n, {"E": rel})
    pattern = Structure(Signature((("E", 2),)), 2, {"E": {(0, 0), (1, 0)}})
    with pytest.raises(ValueError) as e:
        Coloring([0] * (n - 1) + [1], target, pattern)
    assert str(e.value) == ("coloring is not a homomorphism on E(%d, %d)"
                            % (0, n - 1))
    assert rel.taken == n - 1


def test_query_side_constraints_must_be_free():
    g = graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Query(g, (0,), inequalities=[frozenset((0, 1))])
    with pytest.raises(ValueError):
        Query(g, (0,), negated_atoms=[("E", (0, 2))])
    q = Query(g, (0, 1), inequalities=[frozenset((0, 1))])
    assert not q.is_plain()
    assert q.quantified() == [2]


def test_induced_substructure_and_union():
    g = graph(3, [(0, 1), (1, 2)])
    sub, old_to_new = induced_substructure(g, (1, 2))
    assert sub.n == 2 and len(graph_edges(sub)) == 1
    assert old_to_new[1] == 0 and old_to_new[2] == 1
    u = disjoint_union(g, sub)
    assert u.n == 5 and len(graph_edges(u)) == 3
