"""Brute-force counting of homomorphism variants, query minimization and
equivalence.  This module is the ground truth the faster counters are checked
against; everything here enumerates with pruning but no clever algorithmics,
apart from count_cp_answers, which counts through decomposition.count (its
oracle is count_answers with the color classes as domains), and
count_cf_answers, #PartAut times that count.

Every count, core and equivalence test runs one search, _search, planned
once per call by _plan: the free vertices first, then the quantified ones
until the first extension.  augmented_core reuses the maps it finds, and
folds a covered vertex without a search.
"""

from itertools import permutations
from math import factorial

from .model import (BudgetError, Coloring, Complement, Query, Signature,
                    Structure, gaifman_adjacency, induced_substructure,
                    tuple_getter)

# The most free-preserving permutations, |X|! * |Y|! for X the free and Y the
# quantified vertices, that count_partial_automorphisms may have to search:
# its search into the query meets each of them as a leaf at worst, so the
# cap bounds one call.
PERMUTATION_CAP = 40320


def _plan(q, t):
    """The search order and, per position: the tests a candidate there must
    pass, as (getter of the positions' values, target relation, whether the
    values must lie in it), first the atoms whose last vertex it is, then
    the negated atoms whose last free vertex it is; the getter of the
    earlier positions it must differ from by an inequality, or None; and its
    lead, the first of those atoms on a stored relation (not a Complement
    view), as (place in the tests, relation, positions), or None.

    The free vertices come first in the given order, then the quantified
    vertices by descending Gaifman degree, index as tie-break.  So atoms,
    inequalities and negated atoms among free vertices all prune the free
    prefix."""
    adj = gaifman_adjacency(q.structure)
    fset = set(q.free)
    rest = sorted((v for v in q.structure.vertices() if v not in fset),
                  key=lambda v: (-len(adj[v]), v))
    order = list(q.free) + rest
    pos = {v: i for i, v in enumerate(order)}
    atoms = [[] for _ in order]
    for name, rel in q.structure.relations.items():
        for tup in rel:
            at = tuple(pos[v] for v in tup)
            atoms[max(at)].append((t.relations[name], at))
    tests = [[(tuple_getter(at), rel, True) for rel, at in here]
             for here in atoms]
    for sym, args in q.negated_atoms:
        at = tuple(pos[v] for v in args)
        tests[max(at)].append((tuple_getter(at), t.relations[sym], False))
    earlier = [[] for _ in order]
    for pair in q.inequalities:
        i, j = sorted(pos[v] for v in pair)
        earlier[j].append(i)
    unequal = [tuple_getter(ps) if ps else None for ps in earlier]
    lead = [next(((j, rel, at) for j, (rel, at) in enumerate(here)
                  if not isinstance(rel, Complement)), None)
            for here in atoms]
    return order, tests, unequal, lead


def _index(rel, at, i, cands):
    """Position i's candidates that complete a fact of rel on the atom at,
    under the values at the atom's earlier positions.  Returns the index and
    the getter of its key from the search's values.  Where a position
    repeats in at, a fact whose values there disagree completes nothing.
    Each list keeps the order of cands, which the scan would take, so a
    search finds the same first witness either way."""
    places = {}  # position -> its first place in the atom
    for j, p in enumerate(at):
        places.setdefault(p, j)
    same = [(j, places[p]) for j, p in enumerate(at) if places[p] != j]
    earlier = [p for p in places if p != i]
    key = tuple_getter([places[p] for p in earlier])
    here = places[i]
    rank = {w: r for r, w in enumerate(cands)}
    index = {}
    for fact in rel:
        w = fact[here]
        if w in rank and (not same or all(fact[j] == fact[f]
                                           for j, f in same)):
            index.setdefault(key(fact), []).append(w)
    for ws in index.values():
        ws.sort(key=rank.__getitem__)
    return index, tuple_getter(earlier)


def _search(q, t, domains=None, accept=None, first=False, witness=None):
    """Number of answers of q on t: assignments of q.free that satisfy the
    inequalities and negated atoms, pass accept (called with the values in
    q.free order) and extend to a homomorphism of q.structure into t.

    domains[v], when given, restricts vertex v's candidates.  With first,
    the search stops at the first answer, so it returns 1 when one exists
    and 0 otherwise.

    The search binds one position at a time (see _plan) and rejects a
    candidate as soon as one of its tests fails: an atom at its last vertex,
    an inequality or a negated atom at its later free vertex.  accept runs
    once per free prefix that passed them.  No test is left at the leaf.

    A position draws its candidates from its domain, or from range(t.n).
    When it has a lead atom (one on a stored relation: a Complement view is
    only ever tested by membership), it counts the candidates it is handed
    to scan, and once that count passes the size of the lead's relation, it
    builds the lead's index (see _index) and from then on reads its
    candidates from the index under the earlier values.  So an index never
    costs more than the scans it replaces, and a search into a small
    structure, such as the compiler's, mostly keeps scanning.  The index
    lives for this call only.

    witness, a dict, receives the homomorphism found (vertex of q to vertex
    of t) when the search ends at its first extension, that is with first or
    without free vertices, and stays as it was when there is none.  rec
    returns as soon as an extension is complete, so a[] then holds it."""
    order, tests, unequal, lead = _plan(q, t)
    k = len(q.free)
    last = len(order)
    # a domain is a set of candidates: a repeated one counts once, as it
    # does in an index
    cands = [range(t.n) if domains is None or domains.get(v) is None
             else list(dict.fromkeys(domains[v])) for v in order]
    # per position: the candidates scanned so far and, once it switched,
    # (its lead's index, the index's key getter, the tests left beside it)
    scanned = [0] * last
    indexed = [None] * last
    a = [None] * last  # a[i] is the image of order[i]

    def rec(i):
        if i == k and accept is not None and not accept(a[:k]):
            return 0
        if i == last:
            return 1
        if (indexed[i] is None and lead[i] is not None
                and scanned[i] > len(lead[i][1])):
            j, rel, at = lead[i]
            indexed[i] = (_index(rel, at, i, cands[i])
                          + (tests[i][:j] + tests[i][j + 1:],))
        if indexed[i] is not None:
            index, key, checks = indexed[i]
            pool = index.get(key(a), ())
        else:
            pool, checks = cands[i], tests[i]
            scanned[i] += len(pool)
        differ = unequal[i]
        total = 0
        for w in pool:
            if differ is not None and w in differ(a):
                continue
            a[i] = w
            for get, rel, want in checks:
                if (get(a) in rel) is not want:
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
    return count(q, t, dict(enumerate(c.classes(q.structure.n))))


def count_cf_answers(q, t, c):
    """Answers a into the free color classes with c(a(X)) = X that extend to
    a homomorphism h whose image meets every color class.  c is checked to
    be a homomorphism t -> H = q.structure, so c h is an automorphism s of H
    and h s^-1 is color-prescribed: the count is #PartAut(q) times the cp
    count.  Both kinds of h are injective, and h(x) in R puts s(x), so x, in
    R: every inequality holds, and a negated atom R(x) fails for every h or
    for none, as R(x) is a fact of H or not.  No PERMUTATION_CAP applies."""
    Coloring(c.colors, t, q.structure)
    cp = count_cp_answers(q, t, c)
    return cp * count_partial_automorphisms(q, None) if cp else 0


def count_surjective_answers(q, t, z, first=False):
    """Answers whose image on the free vertices is exactly the set z.  With
    first, the search stops at the first such answer."""
    zset = set(z)
    if len(zset) > len(q.free):
        return 0
    zl = sorted(zset)
    return _search(q, t, {v: zl for v in q.free},
                   accept=lambda vals: set(vals) == zset, first=first)


def count_partial_automorphisms(q, cap=PERMUTATION_CAP):
    """#PartAut(q), the bijections X -> X that extend to an automorphism of
    H = q.structure: one search of H+ into itself with X kept in X and Y in
    Y, H+ being H plus a relation "!=" (which the parser's IDENT cannot
    name) on every ordered pair of distinct vertices.  An endomorphism of H+
    is injective, and an injective endomorphism of a finite structure is an
    automorphism.  Raises BudgetError when |X|! * |Y|! exceeds cap, unless
    cap is None."""
    free, rest = q.free, q.quantified()
    size = factorial(len(free)) * factorial(len(rest))
    if cap is not None and size > cap:
        raise BudgetError("free-preserving permutations", size, cap,
                          "PERMUTATION_CAP")
    s = q.structure
    pairs = frozenset(permutations(s.vertices(), 2))
    plus = Structure._trusted(Signature(s.signature.symbols + (("!=", 2),)),
                              s.n, {**s.relations, "!=": pairs})
    domains = dict.fromkeys(rest, rest) | dict.fromkeys(free, free)
    return _search(Query(plus, free), plus, domains)


def augmented_core(q):
    """The vertex-minimal query equivalent to q: the core of q.structure with
    its free vertices fixed pointwise.  One downward pass drops each
    quantified vertex v whose deletion the structure maps into, with the
    free set sent onto itself; a vertex kept once stays kept, since an
    equivalent substructure mapping into its own deletion of v would give
    the structure such a map too.

    Pinning each free vertex asks no more: if h maps q.structure into S - v
    and permutes the free set by a permutation of order k, then h^k maps it
    into S - v too and fixes every free vertex.  So each test searches
    q.structure, which is equivalent to the substructure on the set S of
    vertices not yet deleted, into itself with each free vertex x kept in
    (x,) and the others in S - v.  Every deletion since the last found map
    (the witness) lies outside its image, so that map still sends the
    structure into S - v for each later v outside its image: such a v is
    deleted without a search.  Before searching for a v in that image, the
    pass looks for a live u != v that covers v: each live fact through v,
    with v read as u, is a fact.  Then v -> u, identity elsewhere, maps the
    substructure on S into S - v, so after the witness it sends the
    structure into S - v: v is folded onto u with no search, and the image
    loses v and gains u.  Each deletion is still decided by whether such a
    map exists, so the pass deletes the same vertices either way.  When the
    pass deletes nothing, q is its own core and is returned."""
    if not q.is_plain():
        raise ValueError("augmented core is defined for plain CQs")
    s = q.structure
    fset = set(q.free)
    alive = set(s.vertices())
    # the facts through each vertex, a fact that repeats it once per place
    through = [[] for _ in s.vertices()]
    for rel in s.relations.values():
        for tup in rel:
            for w in tup:
                through[w].append((rel, tup))
    image = range(s.n)  # the last witness's image; the identity's at first
    for v in range(s.n - 1, -1, -1):
        if v in fset:
            continue
        if v in image:
            live = [(rel, tup) for rel, tup in through[v]
                    if alive.issuperset(tup)]
            # a cover of v shares a fact with each other vertex of v's facts
            nb = next((w for _, tup in live for w in tup if w != v), None)
            near = alive if nb is None else {w for _, t in through[nb]
                                             for w in t}
            u = next((u for u in near if u != v and u in alive and all(
                tuple(u if w == v else w for w in tup) in rel
                for rel, tup in live)), None)
            if u is not None:
                image = (set(image) - {v}) | {u}
            else:
                rest = sorted(alive - {v})
                domains = {u: (u,) if u in fset else rest
                           for u in s.vertices()}
                witness = {}
                if not exists_extension(s, s, domains, witness):
                    continue
                image = set(witness.values())
        alive.discard(v)
    if len(alive) == s.n:
        return q
    core, old_to_new = induced_substructure(s, alive)
    return Query(core, [old_to_new[x] for x in q.free])


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
