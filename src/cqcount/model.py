"""Core data types: relational structures, queries, colorings.

Vertices are dense integers 0..n-1.  A "graph" is a structure over the single
binary symbol E whose relation is symmetric and loopless; both orientations of
every edge are stored.
"""

from collections.abc import Set
from itertools import filterfalse, product

GRAPH_SIGNATURE = (("E", 2),)


class BudgetError(ValueError):
    """A cost past its documented budget: carries the parameter that measures
    the cost, its value, and the cap it exceeds with the cap's name."""

    def __init__(self, parameter, value, cap, cap_name):
        super().__init__("%s = %d exceeds %s = %d"
                         % (parameter, value, cap_name, cap))
        self.parameter = parameter
        self.value = value
        self.cap = cap


class TreewidthLimitError(BudgetError):
    pass


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

    def names(self):
        return [name for name, _ in self.symbols]


class Structure:
    """A finite relational structure with domain {0..n-1}."""

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
        self.masks = {}  # the fast counter's index; relations are immutable
        self._hash = None  # computed on first use, for the same reason

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
        if self.signature.symbols != GRAPH_SIGNATURE:
            return False
        rel = self.relations["E"]
        for (u, v) in rel:
            if u == v or (v, u) not in rel:
                return False
        return True

    def total_tuples(self):
        return sum(len(r) for r in self.relations.values())


def graph(n, edges):
    """Build a graph structure from an undirected edge list."""
    rel = set()
    for (u, v) in edges:
        if u == v:
            raise ValueError("loop %d in graph" % u)
        rel.add((u, v))
        rel.add((v, u))
    return Structure(Signature(GRAPH_SIGNATURE), n, {"E": rel})


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
            for name, rel in target.relations.items():
                qrel = query_structure.relations.get(name, frozenset())
                for tup in rel:
                    if tuple(colors[v] for v in tup) not in qrel:
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
    stored.  Complementing twice returns the original relation objects."""
    rels = {}
    for name, arity in structure.signature.symbols:
        rel = structure.relations[name]
        rels[name] = (rel.present if isinstance(rel, Complement)
                      else Complement(rel, structure.n, arity))
    return Structure(structure.signature, structure.n, rels)


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
    origin[new_vertex] = old_vertex."""
    if len(multiplicity) != structure.n:
        raise ValueError("multiplicity vector has wrong length")
    copies = {}
    origin = []
    for v in structure.vertices():
        m = multiplicity[v]
        if m < 0:
            raise ValueError("negative multiplicity")
        copies[v] = list(range(len(origin), len(origin) + m))
        origin.extend([v] * m)
    # relabelled copies of a checked structure's tuples need no second check
    rels = {name: frozenset(combo for tup in rel
                            for combo in product(*(copies[v] for v in tup)))
            for name, rel in structure.relations.items()}
    return Structure._trusted(structure.signature, len(origin), rels), origin


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
