"""Brute-force counting of homomorphism variants, query minimization and
equivalence.  This module is the ground truth the faster counters are checked
against; everything here enumerates with pruning but no clever algorithmics,
apart from count_cp_answers, which counts through decomposition.count.  Its
oracle is count_answers with the color classes as domains.

Every count runs one search, planned once per call: the free vertices are
assigned first, each answer candidate passes one accept test, and then the
quantified vertices are searched until the first extension is found.  A
search for one extension can hand back the map it found; augmented_core
searches into the query itself and reuses each found retraction's image to
answer the later deletion tests without searching.
"""

from itertools import permutations
from math import factorial

from .model import (BudgetError, Query, Signature, Structure,
                    gaifman_adjacency, induced_substructure)

AUX_SYMBOL = "Xaux"
# The most permutations _automorphism_restrictions may walk: |X|! * |Y|! for
# X the free and Y the quantified vertices.  Each costs a pass over the atoms
# in Python, a few microseconds, so the cap keeps one call under a second.
PERMUTATION_CAP = 40320


def _plan(structure, free):
    """The search order and, per position, the atoms completed there.

    The free vertices come first in the given order, then the quantified
    vertices by descending Gaifman degree, index as tie-break.  Each atom is
    checked at the position of its last vertex, written as a tuple of
    positions, so atoms among free vertices prune the free prefix."""
    adj = gaifman_adjacency(structure)
    fset = set(free)
    rest = sorted((v for v in structure.vertices() if v not in fset),
                  key=lambda v: (-len(adj[v]), v))
    order = list(free) + rest
    pos = {v: i for i, v in enumerate(order)}
    checks = [[] for _ in order]
    for name, rel in structure.relations.items():
        for tup in rel:
            at = tuple(pos[v] for v in tup)
            checks[max(at)].append((name, at))
    return order, checks


def _search(q, t, domains=None, accept=None, colors=None, first=False,
            witness=None):
    """Number of answers of q on t: assignments of q.free that satisfy the
    inequalities and negated atoms, pass accept (called with the values in
    q.free order) and extend to a homomorphism of q.structure into t.

    domains[v], when given, restricts vertex v's candidates.  With colors (a
    color per target vertex), only extensions whose image meets every color
    0..n-1 of q.structure count.  With first, the search stops at the first
    answer, so it returns 1 when one exists and 0 otherwise.

    witness, a dict, receives the homomorphism found (vertex of q to vertex
    of t) when the search ends at its first extension, that is with first or
    without free vertices, and stays as it was when there is none.  rec
    returns as soon as an extension is complete, so a[] then holds it."""
    order, checks = _plan(q.structure, q.free)
    k = len(q.free)
    rels = t.relations
    cands = [range(t.n) if domains is None or domains.get(v) is None
             else domains[v] for v in order]
    ineqs = [tuple(q.free.index(x) for x in pair) for pair in q.inequalities]
    negs = [(rels[sym], tuple(q.free.index(x) for x in args))
            for sym, args in q.negated_atoms]
    every_color = set(range(q.structure.n))
    a = [None] * len(order)  # a[i] is the image of order[i]

    def accepted(vals):
        return (all(vals[i] != vals[j] for i, j in ineqs)
                and not any(tuple(vals[i] for i in args) in rel
                            for rel, args in negs)
                and (accept is None or accept(vals)))

    def rec(i):
        if i == k and not accepted(a[:k]):
            return 0
        if i == len(order):
            return int(colors is None or
                       {colors[w] for w in a} == every_color)
        total = 0
        for w in cands[i]:
            a[i] = w
            for name, at in checks[i]:
                if tuple(a[p] for p in at) not in rels[name]:
                    break
            else:
                found = rec(i + 1)
                # one extension decides a quantified suffix; with first,
                # one answer decides the whole search
                if found and (i >= k or first):
                    return 1
                total += found
        return total

    count = rec(0)
    rec = None  # rec's closure holds rec: break the cycle so t is freed now
    if count and witness is not None:
        witness.update(zip(order, a))
    return count


def exists_extension(structure, target, domains=None, witness=None):
    """True when some homomorphism structure -> target takes each vertex v
    into domains[v] when given.  witness, a dict, receives that homomorphism
    when there is one and is left untouched otherwise."""
    return _search(Query(structure, ()), target, domains,
                   witness=witness) > 0


def count_answers(q, t, domains=None):
    """Number of assignments on the free vertices that extend to a homomorphism,
    honoring inequalities and negated atoms, with each vertex v kept in
    domains[v] when given.  Boolean queries give 0 or 1."""
    return _search(q, t, domains)


def count_cp_answers(q, t, c):
    """Answers a with c(a(x)) = x that extend to a color-prescribed
    homomorphism: a count with each vertex kept in its color class, on the
    counter decomposition.count picks."""
    from .decomposition import count  # decomposition imports this module
    classes = c.classes(q.structure.n)
    return count(q, t, dict(enumerate(classes)))


def count_cf_answers(q, t, c):
    """Answers a into the free color classes with c(a(X)) = X that extend to a
    homomorphism whose image meets every color class."""
    classes = c.classes(q.structure.n)
    free_pool = sorted(set(v for x in q.free for v in classes[x]))
    fset = set(q.free)
    return _search(q, t, {v: free_pool for v in q.free},
                   accept=lambda vals: {c[w] for w in vals} == fset,
                   colors=c.colors)


def count_surjective_answers(q, t, z, first=False):
    """Answers whose image on the free vertices is exactly the set z.  With
    first, the search stops at the first such answer."""
    zset = set(z)
    if len(zset) > len(q.free):
        return 0
    zl = sorted(zset)
    return _search(q, t, {v: zl for v in q.free},
                   accept=lambda vals: set(vals) == zset, first=first)


def _automorphism_restrictions(q):
    """Distinct restrictions to X of automorphisms of H that fix X setwise.
    Only permutations mapping X onto X and Y onto Y are walked, and a
    restriction, once found, skips the rest of its Y arrangements.  Raises
    BudgetError when |X|! * |Y|! exceeds PERMUTATION_CAP."""
    free, rest = q.free, q.quantified()
    size = factorial(len(free)) * factorial(len(rest))
    if size > PERMUTATION_CAP:
        raise BudgetError("free-preserving permutations", size,
                          PERMUTATION_CAP, "PERMUTATION_CAP")
    atoms = [(rel, tup) for rel in q.structure.relations.values()
             for tup in rel]
    perm = list(q.structure.vertices())
    seen = set()
    for free_image in permutations(free):
        for x, w in zip(free, free_image):
            perm[x] = w
        for rest_image in permutations(rest):
            for y, w in zip(rest, rest_image):
                perm[y] = w
            if all(tuple(perm[v] for v in tup) in rel for rel, tup in atoms):
                seen.add(free_image)
                break
    return seen


def count_partial_automorphisms(q):
    """Number of bijections X -> X extendable to an automorphism of H."""
    return len(_automorphism_restrictions(q))


def _augment(q):
    """Add the all-ordered-pairs auxiliary relation on the free set."""
    s = q.structure
    if AUX_SYMBOL in s.signature.arity:
        raise ValueError("reserved symbol %s in use" % AUX_SYMBOL)
    sig = Signature(s.signature.symbols + ((AUX_SYMBOL, 2),))
    rels = {name: set(rel) for name, rel in s.relations.items()}
    rels[AUX_SYMBOL] = set((a, b) for a in q.free for b in q.free if a != b)
    return Structure(sig, s.n, rels)


def _strip_aux(structure):
    sig = Signature([sym for sym in structure.signature.symbols
                     if sym[0] != AUX_SYMBOL])
    rels = {name: set(rel) for name, rel in structure.relations.items()
            if name != AUX_SYMBOL}
    return Structure(sig, structure.n, rels)


def augmented_core(q):
    """The vertex-minimal query equivalent to q, via the core of the structure
    augmented with an all-pairs relation on the free set.  One downward pass
    drops each quantified vertex v whose deletion the structure maps into; a
    vertex kept once stays kept, since an equivalent substructure mapping into
    its own deletion of v would give the structure such a map too.

    The pass keeps the augmented structure A whole and the set S of vertices
    not yet deleted.  A maps into S - v exactly when the substructure on S
    does, since A and S are equivalent, so each test searches A into A with
    the free vertices kept in the free set, which the auxiliary relation
    makes a bijection, and the others in S - v.  Every deletion since the
    last found map (the witness) lies outside its image, so that map still
    sends A into S - v for each later v outside its image: such a v is
    deleted without a search, as a fresh search would have deleted it."""
    if not q.is_plain():
        raise ValueError("augmented core is defined for plain CQs")
    aug = _augment(q)
    free = list(q.free)
    fset = set(q.free)
    alive = set(aug.vertices())
    image = range(aug.n)  # the last witness's image; the identity's at first
    for v in range(aug.n - 1, -1, -1):
        if v in fset:
            continue
        if v in image:
            rest = sorted(alive - {v})
            domains = {u: free if u in fset else rest for u in aug.vertices()}
            witness = {}
            if not exists_extension(aug, aug, domains, witness):
                continue
            image = set(witness.values())
        alive.discard(v)
    core, old_to_new = induced_substructure(aug, alive)
    return Query(_strip_aux(core), [old_to_new[x] for x in free])


def dominates(q1, q2):
    """True when some surjection from q1's free set onto q2's free set extends
    to a homomorphism between the structures."""
    if q1.structure.signature != q2.structure.signature:
        raise ValueError("signature mismatch")
    # one accepted answer decides, so the search stops at the first
    return count_surjective_answers(Query(q1.structure, q1.free),
                                    q2.structure, q2.free, first=True) > 0


def are_equivalent(q1, q2):
    """Counting equivalence: surjective extendable maps exist in both directions."""
    return dominates(q1, q2) and dominates(q2, q1)
