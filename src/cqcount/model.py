"""Core data types: relational structures, queries, colorings.

Vertices are dense integers 0..n-1.  A "graph" is a structure over the single
binary symbol E whose relation is symmetric and loopless; both orientations of
every edge are stored.  A query over E/2 alone reads its E atoms as undirected,
loops included (is_undirected, query_structure), and is counted on symmetric
targets.
"""

from collections.abc import Set
from itertools import filterfalse, product
from operator import itemgetter

GRAPH_SIGNATURE = (("E", 2),)
# a target of at most this many vertices arrives indexed when it is read from
# a graph file or cloned, complemented or made a star instance (see
# Structure), at most n masks of n bits (2 MB) per position; past it the fast
# counter builds the index on first use, so a command that never counts on
# it never pays for it
INDEXED_GRAPH_LIMIT = 2 ** 12


class BudgetError(ValueError):
    """A cost past its documented budget: carries the parameter that measures
    the cost, its value, and the cap it exceeds with the cap's name."""

    def __init__(self, parameter, value, cap, cap_name):
        super().__init__("%s = %d exceeds %s = %d"
                         % (parameter, value, cap_name, cap))
        self.parameter = parameter
        self.value = value
        self.cap = cap


class Signature:
    """An ordered list of relation symbols with arities."""

    def __init__(self, symbols):
        symbols = tuple((str(name), int(arity)) for name, arity in symbols)
        names = [name for name, _ in symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate relation symbol")
        for name, arity in symbols:
            if arity < 1:
                raise ValueError("arity must be positive: %s/%d" % (name, arity))
        self.symbols = symbols
        self.arity = dict(symbols)

    def __eq__(self, other):
        return isinstance(other, Signature) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return "Signature(%r)" % (self.symbols,)


GRAPH = Signature(GRAPH_SIGNATURE)  # shared: a Signature is never changed


class Structure:
    """A finite relational structure with domain {0..n-1}.

    masks is the fast counter's index, memoized per structure since the
    relations are immutable: (symbol, positions of v) -> (index, default)
    for an atom of that symbol whose vertex v sits at those positions.
    index maps the values at the other positions (a bare value for one, a
    tuple for several, () for none) to the bitmask of v's values that
    complete a fact; a value missing from index reads default, 0 or, for a
    Complement view's co-masks, the full mask.  Two keys may share one pair
    object: a symmetric binary relation is indexed alike at both positions.
    A target of at most INDEXED_GRAPH_LIMIT vertices arrives with the pairs
    at both single positions of E, or of each binary relation, when
    parser.parse_structure reads it from a graph file or when
    clone_by_multiplicity (so clone_vertices), complement_structure or
    gadgets.star_instance derives it from its source's pairs; otherwise
    index_pair builds each pair on first use."""

    def __init__(self, signature, n, relations):
        if not isinstance(signature, Signature):
            signature = Signature(signature)
        if n < 0:
            raise ValueError("negative domain size")
        self.signature = signature
        self.n = n
        rels = {}
        for name, arity in signature.symbols:
            given = relations.get(name, ())
            if (isinstance(given, Complement) and given.n == n
                    and given.arity == arity):
                rels[name] = given  # a view over an already checked relation
                continue
            tuples = set()
            for tup in given:
                tup = tuple(tup)
                if len(tup) != arity:
                    raise ValueError("arity mismatch in %s: %r" % (name, tup))
                for v in tup:
                    if not (0 <= v < n):
                        raise ValueError("vertex out of range in %s: %r" % (name, tup))
                tuples.add(tup)
            # relations are immutable, so a frozenset of checked tuples is shared
            rels[name] = (given if isinstance(given, frozenset) and given == tuples
                          else frozenset(tuples))
        for name in relations:
            if name not in rels:
                raise ValueError("unknown relation symbol %s" % name)
        self.relations = rels
        self.masks = {}
        self._hash = None  # computed on first use; relations are immutable

    @classmethod
    def _trusted(cls, signature, n, relations):
        """The constructor minus its per-tuple pass, for valid relations."""
        s = cls.__new__(cls)
        s.signature, s.n, s.relations, s.masks = signature, n, relations, {}
        s._hash = None
        return s

    def __eq__(self, other):
        return (isinstance(other, Structure) and self.signature == other.signature
                and self.n == other.n and self.relations == other.relations)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.signature, self.n, tuple(sorted(
                (k, tuple(sorted(v))) for k, v in self.relations.items()))))
        return self._hash

    def __repr__(self):
        sizes = {k: len(v) for k, v in self.relations.items()}
        return "Structure(n=%d, %r)" % (self.n, sizes)

    def vertices(self):
        return range(self.n)

    def is_graph(self):
        """True when this is a loopless symmetric graph over the symbol E/2."""
        if not is_undirected(self.signature):
            return False
        rel = self.relations["E"]
        return unmatched_pair(rel) is None and all(u != v for u, v in rel)

    def total_tuples(self):
        return sum(len(r) for r in self.relations.values())


def key_getter(positions):
    """A function giving a sequence's values at positions as an index key of
    Structure.masks: a bare value for one position, a tuple for several, ()
    for none."""
    return itemgetter(*positions) if positions else (lambda row: ())


def index_pair(structure, name, at):
    """The (index, default) pair of structure.masks under (name, at), for a
    vertex at the positions at of an atom of name: built from the facts on
    first use and memoized there.  A Complement view is indexed from its
    present tuples as co-masks.  A symmetric binary relation indexes alike
    at both positions: when the second single position is first asked for,
    the relation is tested for symmetry once and, if it holds, the key
    shares the first one's object."""
    pair = structure.masks.get((name, at))
    if pair is not None:
        return pair
    rel = structure.relations[name]
    co = isinstance(rel, Complement)
    facts = rel.present if co else rel
    arity = structure.signature.arity[name]
    first, single = at[0], len(at) == 1
    twin = (structure.masks.get((name, (1 - first,)))
            if single and arity == 2 else None)
    if twin is not None and facts.issuperset(map(itemgetter(1, 0), facts)):
        pair = twin
    else:
        bound_of = key_getter([i for i in range(arity) if i not in at])
        index = {}
        for fact in facts:
            w = fact[first]
            if single or all(fact[i] == w for i in at):
                key = bound_of(fact)
                index[key] = index.get(key, 0) | 1 << w
        full = (1 << structure.n) - 1
        pair = (({key: full & ~m for key, m in index.items()}, full)
                if co else (index, 0))
    structure.masks[name, at] = pair
    return pair


def _derive_pairs(source, target, derive):
    """Install in target.masks, when target has at most INDEXED_GRAPH_LIMIT
    vertices, derive(pair) for the pair of source at each single position
    of each binary relation, source's pairs built first where missing; one
    object at both positions when the two are equal, as they are when
    source's two are one."""
    if target.n > INDEXED_GRAPH_LIMIT:
        return
    for name, arity in source.signature.symbols:
        if arity != 2:
            continue
        first = index_pair(source, name, (0,))
        second = index_pair(source, name, (1,))
        pair = derive(first)
        other = pair if second is first else derive(second)
        target.masks[name, (0,)] = pair
        target.masks[name, (1,)] = pair if other == pair else other


def unmatched_pair(rel):
    """A pair of the binary relation rel whose reverse rel lacks, or None
    when rel is symmetric."""
    return next(((u, v) for u, v in rel if (v, u) not in rel), None)


def is_undirected(signature):
    """True when a query over signature reads its E atoms as undirected:
    over the graph signature E/2 alone.  Its target's E must then be
    symmetric for the counts to mean what the query says."""
    return signature.symbols == GRAPH_SIGNATURE


def query_relations(signature, atoms):
    """The relations holding atoms, (symbol, vertex tuple) pairs, as a dict
    of sets.  When is_undirected(signature), both orientations of each E
    atom are stored, as in a graph."""
    rels = {}
    for sym, args in atoms:
        rels.setdefault(sym, set()).add(tuple(args))
    if is_undirected(signature):
        for rel in rels.values():
            rel.update([tup[::-1] for tup in rel])
    return rels


def query_structure(signature, n, atoms):
    """The structure on n vertices holding atoms (see query_relations),
    each atom checked against the signature and n."""
    return Structure(signature, n, query_relations(signature, atoms))


def graph(n, edges):
    """Build a graph structure from an undirected edge list."""
    atoms = [("E", e) for e in edges]
    for _, (u, v) in atoms:
        if u == v:
            raise ValueError("loop %d in graph" % u)
    return query_structure(GRAPH, n, atoms)


def graph_edges(structure):
    """Undirected edge set of a graph structure, each edge once as (u, v) with u < v."""
    return sorted(set(tuple(sorted(t)) for t in structure.relations["E"]))


class Query:
    """A conjunctive query: a structure plus an ordered tuple of free vertices.

    Optional extensions: pairwise inequality constraints and negated atoms,
    both restricted to free vertices.
    """

    def __init__(self, structure, free, inequalities=(), negated_atoms=()):
        free = tuple(free)
        if len(set(free)) != len(free):
            raise ValueError("repeated free vertex")
        for v in free:
            if not (0 <= v < structure.n):
                raise ValueError("free vertex out of range: %d" % v)
        fset = set(free)
        ineqs = set()
        for pair in inequalities:
            a, b = tuple(pair)
            if a == b:
                raise ValueError("inequality between a vertex and itself")
            if a not in fset or b not in fset:
                raise ValueError("inequality on quantified vertex")
            ineqs.add(frozenset((a, b)))
        negs = set()
        for sym, args in negated_atoms:
            args = tuple(args)
            if sym not in structure.signature.arity:
                raise ValueError("unknown symbol in negated atom: %s" % sym)
            if len(args) != structure.signature.arity[sym]:
                raise ValueError("arity mismatch in negated atom %s%r" % (sym, args))
            for v in args:
                if v not in fset:
                    raise ValueError("negated atom on quantified vertex")
            negs.add((sym, args))
        self.structure = structure
        self.free = free
        self.inequalities = frozenset(ineqs)
        self.negated_atoms = frozenset(negs)

    def __eq__(self, other):
        return (isinstance(other, Query) and self.structure == other.structure
                and self.free == other.free
                and self.inequalities == other.inequalities
                and self.negated_atoms == other.negated_atoms)

    def __hash__(self):
        return hash((self.structure, self.free, self.inequalities, self.negated_atoms))

    def __repr__(self):
        return "Query(%r, free=%r)" % (self.structure, self.free)

    def quantified(self):
        fset = set(self.free)
        return [v for v in self.structure.vertices() if v not in fset]

    def is_plain(self):
        return not self.inequalities and not self.negated_atoms


class Coloring:
    """A map from target vertices to query vertices, itself a homomorphism."""

    def __init__(self, colors, target=None, query_structure=None):
        colors = tuple(colors)
        if target is not None and len(colors) != target.n:
            raise ValueError("coloring has wrong length")
        if query_structure is not None:
            for c in colors:
                if not (0 <= c < query_structure.n):
                    raise ValueError("color out of range: %d" % c)
        if target is not None and query_structure is not None:
            get = colors.__getitem__
            for name, rel in target.relations.items():
                qrel = query_structure.relations.get(name, frozenset())
                # a binary relation is checked whole, as one set of colour
                # pairs; a Complement view is never listed
                if (target.signature.arity[name] == 2
                        and not isinstance(rel, Complement)
                        and {(colors[u], colors[v]) for u, v in rel} <= qrel):
                    continue
                for tup in rel:
                    if tuple(map(get, tup)) not in qrel:
                        raise ValueError(
                            "coloring is not a homomorphism on %s%r" % (name, tup))
        self.colors = colors

    def __getitem__(self, v):
        return self.colors[v]

    def classes(self, nq):
        out = [[] for _ in range(nq)]
        for v, c in enumerate(self.colors):
            out[c].append(v)
        return out


def gaifman_adjacency(structure):
    """Adjacency sets of the Gaifman (primal) graph: vertices co-occurring in a tuple."""
    adj = {v: set() for v in structure.vertices()}
    for rel in structure.relations.values():
        for tup in rel:
            for a in tup:
                for b in tup:
                    if a != b:
                        adj[a].add(b)
    return adj


def gaifman_graph(structure):
    """The Gaifman (primal) graph as a graph-mode structure."""
    adj = gaifman_adjacency(structure)
    edges = [(u, v) for u in adj for v in adj[u] if u < v]
    return graph(structure.n, edges)


def partition(members, pairs):
    """The blocks of members that the pairs merge, by union-find: each block
    lists its members in input order, the blocks by their first member."""
    parent = {v: v for v in members}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        parent[find(a)] = find(b)
    blocks = {}
    for v in members:
        blocks.setdefault(find(v), []).append(v)
    return list(blocks.values())


def tuple_getter(places):
    """A function giving a sequence's values at places, always as a tuple:
    itemgetter, which gives a bare value for a single place, wrapped."""
    if len(places) == 1:
        p, = places
        return lambda s: (s[p],)
    return itemgetter(*places) if places else lambda s: ()


class Complement(Set):
    """The tuples of one arity over range(n) that are absent from present: a
    relation of a reflexive complement, held implicitly.  Membership is a
    lookup in present plus a bounds check, the length is arithmetic, and
    iteration walks range(n)**arity lazily."""

    __slots__ = ("present", "n", "arity")

    def __init__(self, present, n, arity):
        self.present = present
        self.n = n
        self.arity = arity

    def __contains__(self, tup):
        # searches call this per atom check: the cheap rejections come first
        if tup in self.present or len(tup) != self.arity:
            return False
        n = self.n
        for v in tup:
            if not 0 <= v < n:
                return False
        return True

    def __iter__(self):
        return filterfalse(self.present.__contains__,
                           product(range(self.n), repeat=self.arity))

    def __len__(self):
        return self.n ** self.arity - len(self.present)


def complement_structure(structure):
    """Reflexive complement: each relation becomes all tuples (diagonal
    included) that are absent from it.  The complement is implicit: each
    relation is a Complement view over the original, so no absent tuple is
    stored.  Complementing twice returns the original relation objects.  A
    binary relation's pairs are the complements of the source's (see
    Structure): co-masks, or for a Complement view the masks again."""
    rels = {}
    for name, arity in structure.signature.symbols:
        rel = structure.relations[name]
        rels[name] = (rel.present if isinstance(rel, Complement)
                      else Complement(rel, structure.n, arity))
    out = Structure(structure.signature, structure.n, rels)
    full = (1 << structure.n) - 1
    _derive_pairs(structure, out, lambda pair: (
        {key: full & ~m for key, m in pair[0].items()}, full & ~pair[1]))
    return out


def tensor_product(s, t):
    """Categorical product; vertex (a, b) is encoded as a * t.n + b."""
    if s.signature != t.signature:
        raise ValueError("signature mismatch in tensor product")
    rels = {}
    for name, arity in s.signature.symbols:
        out = set()
        for ts_ in s.relations[name]:
            for tt in t.relations[name]:
                out.add(tuple(a * t.n + b for a, b in zip(ts_, tt)))
        rels[name] = out
    return Structure(s.signature, s.n * t.n, rels)


def clone_by_multiplicity(structure, multiplicity):
    """Replace vertex v by multiplicity[v] fresh copies, expanding every tuple
    over all combinations of copies.  Returns (structure, origin) where
    origin[new_vertex] = old_vertex.  A binary relation's mask at a copy of
    u is the OR of the copy blocks (the bits of a vertex's copies) of the
    members of the source's mask at u (see Structure)."""
    if len(multiplicity) != structure.n:
        raise ValueError("multiplicity vector has wrong length")
    copies = {}
    origin = []
    block = []
    for v in structure.vertices():
        m = multiplicity[v]
        if m < 0:
            raise ValueError("negative multiplicity")
        copies[v] = range(len(origin), len(origin) + m)
        block.append(((1 << m) - 1) << len(origin))
        origin.extend([v] * m)
    # relabelled copies of a checked structure's tuples need no second check
    rels = {name: frozenset(combo for tup in rel
                            for combo in product(*(copies[v] for v in tup)))
            for name, rel in structure.relations.items()}
    cloned = Structure._trusted(structure.signature, len(origin), rels)

    def derive(pair):
        index = {}
        for u in structure.vertices():
            m, out = pair[0].get(u, pair[1]), 0
            while m:
                low = m & -m
                out |= block[low.bit_length() - 1]
                m ^= low
            if out:
                index.update(dict.fromkeys(copies[u], out))
        return index, 0

    _derive_pairs(structure, cloned, derive)
    return cloned, origin


def clone_vertices(structure, coloring, z):
    """Replace every vertex of color v by z[v] copies with identical relational
    neighborhoods.  Returns the cloned structure and its coloring."""
    multiplicity = []
    for v in structure.vertices():
        color = coloring[v]
        if color not in z:
            raise ValueError("multiplicity missing for color %d" % color)
        if z[color] < 1:
            raise ValueError("multiplicity must be positive")
        multiplicity.append(z[color])
    cloned, origin = clone_by_multiplicity(structure, multiplicity)
    return cloned, Coloring([coloring[v] for v in origin])


def induced_substructure(structure, vertices):
    """Substructure induced on a vertex subset.  Returns (structure, old_to_new)."""
    keep = sorted(set(vertices))
    old_to_new = {v: i for i, v in enumerate(keep)}
    rels = {}
    for name, rel in structure.relations.items():
        rels[name] = frozenset(tuple(old_to_new[v] for v in tup) for tup in rel
                               if all(v in old_to_new for v in tup))
    # renumbered tuples of a checked structure need no second check
    return Structure._trusted(structure.signature, len(keep), rels), old_to_new
