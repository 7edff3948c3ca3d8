"""Executable reductions: query minors and their instance gadgets, the
colored/uncolored bridges, the dominating-set pipeline, named query families,
the matching-to-grate gadget and the Gaifman clique expansion.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

from .model import (Coloring, Query, Structure, clone_vertices,
                    gaifman_adjacency, gaifman_graph, graph)
from . import decomposition, homs
from .quantum import row_reduce


class GadgetOutput:
    """A transformed instance together with the exact count relation it
    preserves (verified by brute force in the tests)."""

    def __init__(self, structure, coloring, relation, zero=False):
        self.structure = structure
        self.coloring = coloring
        self.relation = relation
        self.zero = zero

    def __repr__(self):
        return "GadgetOutput(%r, zero=%r)" % (self.relation, self.zero)


# ---------------------------------------------------------------------------
# named query families

def family_query(kind, k):
    if k < 1:
        raise ValueError("k must be positive")
    if kind == "psi":
        # k free leaves attached to one quantified center
        return Query(graph(k + 1, [(i, k) for i in range(k)]), tuple(range(k)))
    if kind == "gamma":
        # free x_i matched to y_i, the y's forming a clique
        edges = [(i, k + i) for i in range(k)]
        edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
        return Query(graph(2 * k, edges), tuple(range(k)))
    if kind == "omega":
        pos = omega_positions(k)
        edges = []
        for (i, j), v in pos["grid"].items():
            if i + j == k - 1:
                edges.append((pos["free"][(i, j)], v))
            if (i, j + 1) in pos["grid"]:
                edges.append((v, pos["grid"][(i, j + 1)]))
            if (i + 1, j) in pos["grid"]:
                edges.append((v, pos["grid"][(i + 1, j)]))
        n = k + len(pos["grid"])
        return Query(graph(n, edges), tuple(range(k)))
    if kind == "poly":
        # chain x_1 y_1 x_2 y_2 ... x_k
        edges = []
        for i in range(k - 1):
            edges.append((i, k + i))
            edges.append((k + i, i + 1))
        return Query(graph(2 * k - 1, edges), tuple(range(k)))
    if kind == "w1":
        # Boolean clique query, everything quantified
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        return Query(graph(k, edges), ())
    if kind == "subdivided":
        # free clique vertices, every pair joined through its own midpoint
        pairs = list(combinations(range(k), 2))
        edges = []
        for m, (i, j) in enumerate(pairs):
            edges.append((i, k + m))
            edges.append((j, k + m))
        return Query(graph(k + len(pairs), edges), tuple(range(k)))
    raise ValueError("unknown family kind %r" % kind)


def omega_positions(k):
    """Vertex layout of the grate: free vertices 0..k-1 sit on the diagonal
    positions (i, k-1-i); quantified grid positions (i, j) with i+j <= k-1
    take the subsequent indices in sorted order."""
    free = {(i, k - 1 - i): i for i in range(k)}
    grid = {}
    nxt = k
    for i in range(k):
        for j in range(k - i):
            grid[(i, j)] = nxt
            nxt += 1
    return {"free": free, "grid": grid}


# ---------------------------------------------------------------------------
# query minors

def query_minor_with_map(q, op):
    """Apply one minor operation (delete-vertex v, delete-edge (u,v),
    contract-edge (u,v)) to a graph-mode query.  Returns the minor and the
    old-to-new vertex map (contracted pairs map to the merged vertex)."""
    if not q.structure.is_graph():
        raise ValueError("minor operations need a graph-mode query")
    kind, arg = op
    s = q.structure
    rel = s.relations["E"]
    cut = ()  # the pairs the minor drops
    if kind == "delete-vertex":
        if not 0 <= arg < s.n:
            raise ValueError("vertex %d out of range" % arg)
        if any(arg in e for e in rel):
            raise ValueError("vertex %d is not isolated" % arg)
        gone = arg
    elif kind in ("delete-edge", "contract-edge"):
        u, v = sorted(arg)
        if (u, v) not in rel:
            raise ValueError("edge %r not present"
                             % ((u, v) if kind == "delete-edge" else arg,))
        if kind == "delete-edge":
            gone, cut = None, ((u, v), (v, u))
        else:
            gone = v
    else:
        raise ValueError("unknown minor operation %r" % (kind,))
    order = [w for w in s.vertices() if w != gone]
    new = {w: i for i, w in enumerate(order)}
    if kind == "contract-edge":
        new[v] = new[u]  # the merged vertex takes u's place
    g2 = graph(len(order), [(new[a], new[b]) for a, b in rel
                            if (a, b) not in cut and new[a] != new[b]])
    # the free order keeps the first of a merged pair in place
    free = tuple(dict.fromkeys(new[x] for x in q.free if x in new))
    return Query(g2, free), new


def minor_instance_gadget(q, op, t, c):
    """Given an instance colored by the minor of q, produce an instance colored
    by q itself with the same color-prescribed answer count.  t must be a
    graph."""
    minor, vmap = query_minor_with_map(q, op)
    Coloring(c.colors, t, minor.structure)  # validate against the minor
    if not t.is_graph():
        raise ValueError("graph-mode targets only")
    inverse = {}
    for old, new in vmap.items():
        inverse.setdefault(new, []).append(old)
    kind, arg = op
    rel = t.relations["E"]
    if kind == "delete-edge":
        u, v = sorted(arg)
        class_u = [x for x in t.vertices() if inverse[c[x]] == [u]]
        class_v = [x for x in t.vertices() if inverse[c[x]] == [v]]
        g2 = graph(t.n, list(rel) + list(product(class_u, class_v)))
        colors = [inverse[c[x]][0] for x in t.vertices()]
    elif kind == "delete-vertex":
        g2 = graph(t.n + 1, rel)
        colors = [inverse[c[x]][0] for x in t.vertices()] + [arg]
    else:
        u, v = sorted(arg)
        qrel = q.structure.relations["E"]
        # a vertex of the merged color splits into a u copy, itself, and a
        # v copy appended after the others
        colors = [u if c[x] == vmap[u] else inverse[c[x]][0]
                  for x in t.vertices()]
        split = [x for x in t.vertices() if c[x] == vmap[u]]
        mate = {x: t.n + i for i, x in enumerate(split)}
        colors += [v] * len(split)
        edges = list(mate.items())
        for a, b in rel:
            # rebuild each original edge, routing ends through the copies
            for ea in (a, mate.get(a, a)):
                for eb in (b, mate.get(b, b)):
                    if (colors[ea], colors[eb]) in qrel:
                        edges.append((ea, eb))
        g2 = graph(len(colors), edges)
    return GadgetOutput(g2, Coloring(colors, g2, q.structure),
                        "count_cp_answers equal")


# ---------------------------------------------------------------------------
# colored / uncolored bridges

def uncolored_to_cp_gadget(q, t):
    """Layered instance on which the color-prescribed count of q equals the
    uncolored answer count of q on t."""
    if not q.structure.is_graph():
        raise ValueError("graph-mode queries only")
    if not t.is_graph():
        raise ValueError("graph-mode targets only")
    m = q.structure.n
    n = t.n

    def vid(u, a):
        return u * n + a

    g2 = graph(m * n, [(vid(u, a), vid(v, b))
                       for u, v in q.structure.relations["E"]
                       for a, b in t.relations["E"]])
    colors = [u for u in range(m) for _ in range(n)]
    return GadgetOutput(g2, Coloring(colors, g2, q.structure),
                        "count_answers(q,t) = count_cp_answers(q,gadget)")


def cf_count_via_uncolored(q, t, c, counter=None):
    """Colorful answer count through cloning and exact interpolation, using an
    uncolored counter only (decomposition.count by default).  q must be
    minimal."""
    if counter is None:
        counter = decomposition.count
    core = homs.augmented_core(q)
    if core.structure.n != q.structure.n:
        raise ValueError("query is not minimal")
    Coloring(c.colors, t, q.structure)
    k = q.structure.n
    ell = len(q.free)
    if ell == 0:
        return 1 if counter(q, t) else 0
    nodes = list(range(1, ell + 2))
    # rows 0 and 1 of the inverse of V[i][j] = nodes[i]**j: row r solves
    # V^T x = e_r, read off one reduction of [V^T | e_0 e_1]
    d = len(nodes)
    rref, _ = row_reduce([[node ** j for node in nodes]
                          + [int(j == 0), int(j == 1)] for j in range(d)])
    inv = [[row[d + r] for row in rref] for r in (0, 1)]
    want = [1 if v in set(q.free) else 0 for v in range(k)]
    total = Fraction(0)
    for grid in product(range(len(nodes)), repeat=k):
        z = {v: nodes[grid[v]] for v in range(k)}
        cloned, _ = clone_vertices(t, c, z)
        value = counter(q, cloned)
        weight = Fraction(1)
        for v in range(k):
            weight *= inv[want[v]][grid[v]]
        total += weight * value
    if total.denominator != 1:
        raise AssertionError("interpolation did not land on an integer")
    return int(total)


# ---------------------------------------------------------------------------
# dominating sets via the star query

def count_surjections(i, j):
    if i < 0 or j < 0:
        raise ValueError("arguments must be nonnegative")
    return sum((-1) ** s * comb(j, s) * (j - s) ** i for s in range(j + 1))


def _dominates(g, image):
    adj = gaifman_adjacency(g)
    s = set(image)
    return all(v in s or adj[v] & s for v in g.vertices())


def _brute_dominating_sets(g, ell):
    return sum(1 for s in combinations(range(g.n), ell) if _dominates(g, s))


def star_instance(g, k):
    """The layered instance whose psi_k color-prescribed count complements the
    dominating-tuple count: layer 0 carries the center color, layers 1..k the
    leaves, with an edge exactly between copies of distinct non-adjacent
    primal vertices."""
    n = g.n
    adjacent = g.relations["E"]
    apart = [(u, v) for u in range(n) for v in range(n)
             if u != v and (u, v) not in adjacent]
    # layer 0 holds the center copies 0..n-1, layer i the leaf copies
    # i*n..i*n+n-1, so every edge is already ordered
    g2 = graph((k + 1) * n, [(u, i * n + v) for i in range(1, k + 1)
                             for u, v in apart])
    psi = family_query("psi", k)
    colors = [k] * n + [i for i in range(k) for _ in range(n)]
    return g2, Coloring(colors, g2, psi.structure)


def domset_via_star_oracle(g, k):
    """Counts of dominating sets D_1..D_k of g, using only an oracle for the
    color-prescribed star count: homs.count_cp_answers of the star query
    psi_k."""
    if not g.is_graph():
        raise ValueError("graph-mode input only")
    psi = family_query("psi", k)

    def padded(j):
        return graph(g.n + j, g.relations["E"])

    def dom_tuples_k(target):
        inst, coloring = star_instance(target, k)
        return target.n ** k - homs.count_cp_answers(psi, inst, coloring)

    dom = {0: 1 if g.n == 0 else 0, k: dom_tuples_k(g)}
    for j in range(k - 1, 0, -1):
        value = dom_tuples_k(padded(j))
        acc = value
        for i in range(j + 1, k + 1):
            acc -= comb(k, i) * count_surjections(i, j) * dom[k - i]
        coeff = comb(k, j) * count_surjections(j, j)
        if acc % coeff:
            raise AssertionError("padding system is not integral")
        dom[k - j] = acc // coeff
    counts = []
    d = {}
    for ell in range(1, k + 1):
        acc = dom[ell]
        for i in range(1, ell):
            acc -= d[i] * count_surjections(ell, i)
        s = count_surjections(ell, ell)
        if acc % s:
            raise AssertionError("dominating-set recursion is not integral")
        d[ell] = acc // s
        counts.append(d[ell])
    return counts


# ---------------------------------------------------------------------------
# matching-to-grate gadget

def gamma_to_grate_gadget(k, t, c):
    """Rebuild a gamma_k-colored instance as an omega_k-colored one with the
    same color-prescribed answer count.  t must be a graph."""
    gamma = family_query("gamma", k)
    Coloring(c.colors, t, gamma.structure)
    if not t.is_graph():
        raise ValueError("graph-mode targets only")
    omega = family_query("omega", k)
    grid = omega_positions(k)["grid"]
    rel = t.relations["E"]
    colors = []  # the omega color of each new vertex
    # omega color -> [(payload, new vertex)], payload (x,) or a pair (u, u2)
    bucket = {color: [] for color in omega.structure.vertices()}

    def add(color, payload):
        bucket[color].append((payload, len(colors)))
        colors.append(color)
        return len(colors) - 1

    # free classes carry over; free x_m sits at diagonal position (m, k-1-m)
    free = {x: add(c[x], (x,)) for x in t.vertices() if c[x] < k}
    matched = [(a, b) for a, b in sorted(rel) if c[a] >= k and c[b] >= k]
    diagonal = {}
    for (i, j), color in grid.items():
        if i + j == k - 1:
            # the copies (u,u) of the matching class of the position
            for u in t.vertices():
                if c[u] == k + i:
                    diagonal[u] = add(color, (u, u))
        else:
            for pair in matched:
                add(color, pair)
    # pendant edges: an original x-y edge joins x to the diagonal copy (u,u)
    edges = [(free[x], diagonal[u]) for x, u in rel if c[x] < k <= c[u]]
    # grid edges: a step in j keeps the first coordinate, a step in i the
    # second
    for (i, j), color in grid.items():
        for step, same in (((i, j + 1), 0), ((i + 1, j), 1)):
            if step not in grid:
                continue
            ends = {}
            for payload, b in bucket[grid[step]]:
                ends.setdefault(payload[same], []).append(b)
            edges += [(a, b) for payload, a in bucket[color]
                      for b in ends.get(payload[same], ())]
    g2 = graph(len(colors), edges)
    return GadgetOutput(g2, Coloring(colors, g2, omega.structure),
                        "count_cp_answers(gamma_k,t) = count_cp_answers(omega_k,gadget)")


# ---------------------------------------------------------------------------
# Gaifman clique expansion

def gaifman_expand_gadget(q, t, c):
    """Instantiate each hyperedge pattern of q by the color-consistent cliques
    of the Gaifman-colored graph t."""
    gaif = gaifman_graph(q.structure)
    Coloring(c.colors, t, gaif)
    if not t.is_graph():
        raise ValueError("graph-mode targets only")
    rel = t.relations["E"]
    classes = c.classes(gaif.n)
    rels = {}
    for name, arity in q.structure.signature.symbols:
        rels[name] = set()
        for tup in q.structure.relations[name]:
            distinct = list(dict.fromkeys(tup))
            found = False
            for combo in product(*(classes[d] for d in distinct)):
                if all((a, b) in rel for a, b in combinations(combo, 2)):
                    found = True
                    assign = dict(zip(distinct, combo))
                    rels[name].add(tuple(assign[v] for v in tup))
            if not found:
                return GadgetOutput(None, None,
                                    "no clique realizes %s%r" % (name, tup),
                                    zero=True)
    g2 = Structure(q.structure.signature, t.n, rels)
    return GadgetOutput(g2, Coloring(c.colors, g2, q.structure),
                        "count_cp_answers(gaifman(q),t) = count_cp_answers(q,gadget)")
