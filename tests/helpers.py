"""Shared helpers for the test suite: enumeration of small graphs and
(graph, free-set) pairs up to isomorphism, random instance builders and
reference implementations."""

from fractions import Fraction
from itertools import combinations, permutations, product

from cqcount import decomposition as dec
from cqcount import gadgets, homs, quantum
from cqcount.model import (Coloring, Query, Structure, gaifman_adjacency,
                           graph, graph_edges, induced_substructure)


def _refine_classes(n, adj):
    """Iterative degree refinement; returns a class label per vertex."""
    labels = [len(adj[v]) for v in range(n)]
    while True:
        signatures = [(labels[v], tuple(sorted(labels[w] for w in adj[v])))
                      for v in range(n)]
        order = {s: i for i, s in enumerate(sorted(set(signatures)))}
        new = [order[signatures[v]] for v in range(n)]
        if new == labels:
            return labels
        labels = new


def _class_permutations(n, labels):
    """All permutations of 0..n-1 preserving the class labels."""
    classes = {}
    for v in range(n):
        classes.setdefault(labels[v], []).append(v)
    keys = sorted(classes)
    pools = [list(permutations(classes[k])) for k in keys]
    slots = [v for k in keys for v in classes[k]]
    for combo in product(*pools):
        images = [v for block in combo for v in block]
        perm = [0] * n
        for slot, image in zip(slots, images):
            perm[slot] = image
        yield perm


def _normalizing_permutations(n, labels):
    """Relabelings sending each refinement class to a contiguous block of
    positions (in class order), in every within-class arrangement."""
    classes = {}
    for v in range(n):
        classes.setdefault(labels[v], []).append(v)
    keys = sorted(classes)
    pools = [list(permutations(classes[k])) for k in keys]
    for combo in product(*pools):
        perm = [0] * n
        pos = 0
        for block in combo:
            for v in block:
                perm[v] = pos
                pos += 1
        yield perm


def canonical_graph(n, edges):
    """Minimal relabeling of the edge set over invariant-preserving
    permutations; a canonical form for isomorphism testing."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    labels = _refine_classes(n, adj)
    best = None
    for perm in _normalizing_permutations(n, labels):
        mapped = tuple(sorted(tuple(sorted((perm[u], perm[v])))
                              for u, v in edges))
        if best is None or mapped < best:
            best = mapped
    return (n, best)


def graph_representatives(max_n, min_n=0):
    """One representative per isomorphism class of simple graphs, built by
    vertex augmentation."""
    reps = {0: [(0, ())]}
    for n in range(1, max_n + 1):
        seen = {}
        for _, edges in reps[n - 1]:
            for attach in range(1 << (n - 1)):
                new_edges = tuple(edges) + tuple(
                    (u, n - 1) for u in range(n - 1) if attach >> u & 1)
                key = canonical_graph(n, new_edges)
                if key not in seen:
                    seen[key] = key[1]
        reps[n] = sorted(seen.items())
        reps[n] = [(n, edges) for _, edges in reps[n]]
    out = []
    for n in range(min_n, max_n + 1):
        out.extend(reps[n])
    return out


def automorphisms(n, edges):
    adj = {v: set() for v in range(n)}
    eset = set(tuple(sorted(e)) for e in edges)
    for u, v in eset:
        adj[u].add(v)
        adj[v].add(u)
    labels = _refine_classes(n, adj)
    out = []
    for perm in _class_permutations(n, labels):
        if all(tuple(sorted((perm[u], perm[v]))) in eset for u, v in eset):
            out.append(perm)
    return out


def query_representatives(max_n, min_n=1):
    """(graph, free-set) pairs up to isomorphism, as Query objects."""
    out = []
    for n, edges in graph_representatives(max_n, min_n=min_n):
        auts = automorphisms(n, edges)
        seen = set()
        for size in range(n + 1):
            for free in combinations(range(n), size):
                orbit = min(tuple(sorted(p[v] for v in free)) for p in auts)
                if (size, orbit) in seen:
                    continue
                seen.add((size, orbit))
                out.append(Query(graph(n, edges), free))
    return out


def random_graph(rng, n, p=0.5):
    edges = [e for e in [(i, j) for i in range(n) for j in range(i + 1, n)]
             if rng.random() < p]
    return graph(n, edges)


def random_structure(rng, signature, n, p=0.5):
    """Each tuple of each relation is present with probability p."""
    return Structure(signature, n, {
        name: [t for t in product(range(n), repeat=arity) if rng.random() < p]
        for name, arity in signature.symbols})


def explicit_complement(structure):
    """The reflexive complement with every absent tuple stored, built by
    plain enumeration and none of cqcount's complement code: the reference
    the implicit complement is checked against."""
    return Structure(structure.signature, structure.n, {
        name: [t for t in product(range(structure.n), repeat=arity)
               if t not in structure.relations[name]]
        for name, arity in structure.signature.symbols})


def random_query(rng, max_n, max_free=None, p=0.6):
    n = rng.randint(1, max_n)
    s = random_graph(rng, n, p)
    top = n if max_free is None else min(max_free, n)
    nf = rng.randint(0, top)
    free = tuple(sorted(rng.sample(range(n), nf)))
    return Query(s, free)


def random_colored_instance(rng, pattern, max_per_class=3, p=0.6):
    """Random structure colored by the graph-mode pattern structure; the
    coloring is a homomorphism by construction."""
    sizes = [rng.randint(1, max_per_class) for _ in range(pattern.n)]
    colors = []
    for v in range(pattern.n):
        colors += [v] * sizes[v]
    n = len(colors)
    pedges = set(graph_edges(pattern))
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if tuple(sorted((colors[a], colors[b]))) in pedges and \
                    rng.random() < p:
                edges.append((a, b))
    g = graph(n, edges)
    return g, Coloring(colors, g, pattern)


def min_retract_size(q):
    """Fewest vertices in a set S containing the free set such that some map
    V -> S is a homomorphism into the substructure induced on S and permutes
    the free set: the size of q's augmented core, by plain enumeration of
    S^V.  Meant for n <= 5."""
    s = q.structure
    assert s.n <= 5
    free = set(q.free)
    rest = [v for v in s.vertices() if v not in free]
    atoms = [(rel, tup) for rel in s.relations.values() for tup in rel]
    for extra in range(len(rest) + 1):
        for chosen in combinations(rest, extra):
            keep = sorted(free.union(chosen))
            for h in product(keep, repeat=s.n):
                if {h[x] for x in free} == free and all(
                        tuple(h[v] for v in tup) in rel for rel, tup in atoms):
                    return len(keep)


def one_vertex_core(q):
    """The augmented core by the plain one-vertex pass: per quantified vertex
    v, top down, a fresh search into the induced substructure without v that
    sends the free set onto itself, with no map reused and no free vertex
    pinned.  The reference homs.augmented_core is checked against."""
    s, free = q.structure, list(q.free)
    for v in range(s.n - 1, -1, -1):
        if v in q.free:
            continue
        sub, old_to_new = induced_substructure(
            s, [u for u in range(s.n) if u != v])
        sub_free = [old_to_new[x] for x in free]
        # onto the free set's image, which has as many vertices: a bijection
        if homs.count_surjective_answers(Query(s, free), sub, sub_free,
                                         first=True):
            s, free = sub, sub_free
    return Query(s, free)


def relabelled(rng, q):
    """q under a random vertex permutation, its free tuple shuffled."""
    s = q.structure
    perm = rng.sample(range(s.n), s.n)
    rels = {name: [tuple(perm[v] for v in tup) for tup in rel]
            for name, rel in s.relations.items()}
    free = [perm[x] for x in q.free]
    rng.shuffle(free)
    return Query(Structure(s.signature, s.n, rels), free)


def naive_normalize(terms):
    """(coefficient, query) pairs: every term cored, then merged pairwise with
    the first equivalent kept term, zero sums dropped.  No hashing: the
    reference quantum.normalize is checked against."""
    merged = []
    for coeff, q in terms:
        core = homs.augmented_core(q)
        for term in merged:
            if homs.are_equivalent(core, term[1]):
                term[0] += Fraction(coeff)
                break
        else:
            merged.append([Fraction(coeff), core])
    return [(c, q) for c, q in merged if c != 0]


def validate_decomposition(td, structure):
    """Check an elimination tree's bags, order[i] with up[i]: they cover the
    vertices, some bag holds each atom, and each vertex's bags form one
    subtree, so exactly one of them has no parent or a parent without it."""
    bags = [set(up) | {v} for v, up in zip(td.order, td.up)]
    parent = {c: p for p, kids in enumerate(td.children) for c in kids}
    covered = set().union(*bags)
    if set(structure.vertices()) - covered:
        return False
    if not all(any(set(tup) <= bag for bag in bags)
               for rel in structure.relations.values() for tup in rel):
        return False
    return all(sum(v in bag and (i not in parent or v not in bags[parent[i]])
                   for i, bag in enumerate(bags)) == 1 for v in covered)


def decompose(g):
    """decompose_graph on the Gaifman graph of a structure: (width, tree),
    the width exact up to EXACT_TREEWIDTH_LIMIT vertices."""
    return dec.decompose_graph((gaifman_adjacency(g), list(g.vertices())))


def min_fill_tree(adj, vertices):
    """The min-fill elimination tree of the graph adj over vertices, at any
    size: (width, tree)."""
    order, up = dec._eliminate(adj, vertices)
    width = max(map(len, up), default=-1)
    return width, dec.TreeDecomposition(order, up, width)


def count_answers_dp(q, t, td):
    """All-free counting over a supplied decomposition of the Gaifman graph."""
    if set(q.free) != set(q.structure.vertices()):
        raise ValueError("count_answers_dp requires all variables free")
    if not q.is_plain():
        raise ValueError("plain CQs only")
    if not validate_decomposition(td, q.structure):
        raise ValueError("invalid tree decomposition")
    return dec.count_homs_dp(q.structure, t, td)


def extendability_relation(q, t, component_index):
    """The relation R of boundary tuples of one quantified component that admit
    an extension into the component's pattern."""
    return set(dec._plan(q).parts[component_index].root_table(t))


def disjoint_union(s, t):
    """Disjoint union of two structures over the same signature; t is shifted by s.n."""
    if s.signature != t.signature:
        raise ValueError("signature mismatch")
    rels = {}
    for name, _ in s.signature.symbols:
        rels[name] = set(s.relations[name]) | set(
            tuple(v + s.n for v in tup) for tup in t.relations[name])
    return Structure(s.signature, s.n + t.n, rels)


def count_surjective_extendable_maps(q1, q2):
    """Number of surjections s: X1 ->> X2 extendable to a homomorphism H1 -> H2:
    the answers of (H1, X1) on H2 whose free image is exactly X2."""
    if q1.structure.signature != q2.structure.signature:
        raise ValueError("signature mismatch")
    return homs.count_surjective_answers(Query(q1.structure, q1.free),
                                         q2.structure, q2.free)


def sorted_support(support):
    """Support sorted consistently with the surjective-extendable-map order:
    whenever q_j admits such a map from q_i, q_j comes no later than q_i."""
    items = sorted(support, key=quantum._term_key)
    remaining = list(items)
    out = []
    while remaining:
        for q in remaining:
            if all(q2 is q or not homs.dominates(q, q2) or
                   homs.are_equivalent(q, q2) for q2 in remaining):
                out.append(q)
                remaining.remove(q)
                break
        else:
            raise AssertionError("cycle of non-equivalent dominations")
    return out


def surjective_map_matrix(support):
    """L[i][j] = number of surjective extendable maps from support[i] onto
    support[j]; lower-triangular with positive diagonal on a sorted minimal
    support."""
    return [[count_surjective_extendable_maps(qi, qj) for qj in support]
            for qi in support]


def cp_count_via_uncolored(q, t, c, counter=None):
    """Color-prescribed count from the interpolated colorful count, divided by
    the number of partial automorphisms."""
    cf = gadgets.cf_count_via_uncolored(q, t, c, counter=counter)
    aut = homs.count_partial_automorphisms(q)
    if cf % aut:
        raise AssertionError("colorful count not divisible by #Aut")
    return cf // aut
