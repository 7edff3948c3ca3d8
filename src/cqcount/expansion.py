"""Compiling extended queries (inequalities, negated free atoms, existential
and universal positive bodies) down to linear combinations of plain queries.

compile runs one order on queries.  Equalities are substituted away first.
The quantifier step then turns the formula into queries: disjunctions by
inclusion-exclusion over disjunct subsets, a universal body through the
complement transform (its outer negated atoms become positive atoms on the
reflexive complement).  Every resulting query then loses its negated atoms by
inclusion-exclusion and its inequalities by Moebius inversion over the
partition flats they span, and the sum is normalized once.
"""

from functools import lru_cache
from itertools import combinations, product

from .model import BudgetError, Query, Structure, partition, query_structure
from .parser import (FormulaAST, ZeroWitness, _conjuncts,
                     eliminate_equalities, formula_to_query,
                     to_disjunctive_normal_form)
from .quantum import QuantumQuery, normalize

MAX_INEQUALITIES = 16


class FlatLattice:
    """Partitions of the free set induced by subsets of the inequality edges,
    with their ranks and Moebius values."""

    def __init__(self, flats, rank, mu):
        self.flats = flats
        self.rank = rank
        self.mu = mu


def _partition_key(members, pairs):
    """Canonical partition of members induced by the given merge pairs."""
    return tuple(sorted(tuple(sorted(b)) for b in partition(members, pairs)))


def matroid_flats_mobius(free, inequalities):
    """Enumerate the distinct partitions induced by subsets of the inequality
    set and compute each one's Moebius value by the subset-sign sum."""
    members = list(free)
    ground = [tuple(sorted(p)) for p in
              set(frozenset(p) for p in inequalities)]
    for a, b in ground:
        if a == b or a not in members or b not in members:
            raise ValueError("inequalities must pair distinct free variables")
    if len(ground) > MAX_INEQUALITIES:
        raise BudgetError("inequalities", len(ground), MAX_INEQUALITIES,
                          "MAX_INEQUALITIES")
    mu = {}
    for size in range(len(ground) + 1):
        for sigma in combinations(ground, size):
            key = _partition_key(members, sigma)
            mu[key] = mu.get(key, 0) + (-1) ** size
    flats = sorted(mu)
    rank = {rho: len(members) - len(rho) for rho in flats}
    for rho in flats:
        if mu[rho] == 0 or (mu[rho] < 0) != (rank[rho] % 2 == 1):
            raise AssertionError("Moebius sign violates the rank parity")
    return FlatLattice(flats, rank, mu)


def contract_query(q, rho):
    """Merge the free vertices inside each block of rho.  Duplicate atoms are
    dropped, diagonal atoms are kept."""
    rep = {v: v for v in q.structure.vertices()}
    fset = set(q.free)
    for block in rho:
        block = sorted(block)
        for v in block:
            if v not in fset:
                raise ValueError("contraction of a non-free vertex %r" % (v,))
            rep[v] = block[0]
    order = [v for v in q.structure.vertices() if rep[v] == v]
    new = {v: order.index(rep[v]) for v in q.structure.vertices()}
    rels = {}
    for name, rel in q.structure.relations.items():
        rels[name] = set(tuple(new[v] for v in tup) for tup in rel)
    structure = Structure(q.structure.signature, len(order), rels)
    free = tuple(dict.fromkeys(new[x] for x in q.free))
    ineqs = []
    for pair in q.inequalities:
        a, b = tuple(pair)
        if new[a] == new[b]:
            raise ValueError("contraction collapses an inequality")
        ineqs.append(frozenset((new[a], new[b])))
    negs = list(dict.fromkeys((sym, tuple(new[v] for v in args))
                              for sym, args in q.negated_atoms))
    return Query(structure, free, ineqs, negs)


@lru_cache(maxsize=8)
def _flat_lattice(free, inequalities):
    # every term of one compile shares its free tuple and inequality set, so
    # the lattice (up to 2^MAX_INEQUALITIES subsets) is built once for all
    return matroid_flats_mobius(free, inequalities)


def expand_inequalities(q):
    """Replace injectivity constraints by a signed sum of contracted queries.
    The combination is unnormalized; compile normalizes once, at the end."""
    if not q.inequalities:
        return QuantumQuery([(1, q)])
    lattice = _flat_lattice(q.free, q.inequalities)
    base = Query(q.structure, q.free, (), q.negated_atoms)
    terms = []
    for rho in lattice.flats:
        blocks = [b for b in rho if len(b) > 1]
        terms.append((lattice.mu[rho], contract_query(base, blocks)))
    return QuantumQuery(terms)


def expand_negations(q):
    """Replace negated free atoms by inclusion-exclusion over the subsets
    forced positive.  The combination is unnormalized; compile normalizes
    once, at the end."""
    negs = sorted(q.negated_atoms)
    if not negs:
        return QuantumQuery([(1, q)])
    s = q.structure
    atoms = [(sym, tup) for sym, rel in s.relations.items() for tup in rel]
    terms = []
    for size in range(len(negs) + 1):
        for j in combinations(negs, size):
            structure = query_structure(s.signature, s.n, atoms + list(j))
            terms.append(((-1) ** size,
                          Query(structure, q.free, q.inequalities, ())))
    return QuantumQuery(terms)


_FALSE = ("false",)


def _dual(node):
    """DeMorgan dual: the negation of a positive body, with every atom read on
    the complemented structure."""
    if node[0] == "true":
        return _FALSE
    if node[0] == "atom":
        return node
    if node[0] == "and":
        parts = [_dual(c) for c in node[1]]
        parts = [p for p in parts if p != _FALSE]
        if not parts:
            return _FALSE
        return parts[0] if len(parts) == 1 else ("or", tuple(parts))
    if node[0] == "or":
        parts = []
        for c in node[1]:
            d = _dual(c)
            if d == _FALSE:
                return _FALSE
            parts.append(d)
        return parts[0] if len(parts) == 1 else ("and", tuple(parts))
    raise ValueError("non-positive body node %r" % (node[0],))


def universal_to_existential(f):
    """The existential dual of a universal positive formula, or None when the
    dual is false: with k free variables, the count on t is n^k minus the
    dual's count on the reflexive complement of t."""
    if f.quantifier != "forall":
        raise ValueError("formula is not universally quantified")
    if f.negated_atoms:
        raise ValueError("universal body must be positive")
    dual = _dual(f.body)
    return None if dual == _FALSE else f.replace(quantifier="exists",
                                                 body=dual)


def _disjuncts(node):
    if node[0] == "or":
        return list(node[1])
    return [node]


def _conjunction(nodes):
    if not nodes:
        return ("true",)
    return nodes[0] if len(nodes) == 1 else ("and", tuple(nodes))


def ep_to_quantum(f):
    """Inclusion-exclusion over nonempty disjunct subsets; intersections share
    the free variables and rename quantified variables apart per disjunct.
    The combination is unnormalized; compile normalizes once, at the end."""
    if f.quantifier == "forall":
        raise ValueError("universal formulas need the complement transform")
    f = to_disjunctive_normal_form(f)
    disjuncts = _disjuncts(f.body)
    taken = set(f.variables())

    def renamed(v, i):
        if v not in f.quantified:
            return v
        name = "%s__%d" % (v, i)
        while name in taken:
            name += "_"
        return name

    terms = []
    for size in range(1, len(disjuncts) + 1):
        for subset in combinations(range(len(disjuncts)), size):
            atoms = []
            quantified = []
            for i in subset:
                for leaf in _conjuncts(disjuncts[i]):
                    if leaf[0] == "atom":
                        atoms.append(("atom", leaf[1],
                                      tuple(renamed(v, i) for v in leaf[2])))
                    elif leaf[0] != "true":
                        raise ValueError(
                            "disjunct is not a conjunction of atoms")
                for v in f.quantified:
                    name = renamed(v, i)
                    if name not in quantified:
                        quantified.append(name)
            g = FormulaAST(f.signature, f.free, "exists", quantified,
                           _conjunction(atoms),
                           inequalities=f.inequalities,
                           negated_atoms=f.negated_atoms)
            query, _ = formula_to_query(g)
            terms.append(((-1) ** (size + 1), query))
    return QuantumQuery(terms)


# ---------------------------------------------------------------------------
# brute-force formula semantics, the oracle the compiler is checked against

def count_formula_answers(f, t):
    """Number of free assignments satisfying the side constraints whose body
    holds under the formula's quantifier, by enumeration.  Each equality is
    a constraint, not a substitution, so this shares nothing with
    eliminate_equalities: the free values must agree along every chain of
    equalities (so free variables an equality joins count as one), and a
    quantified assignment that breaks one is skipped by exists and satisfies
    forall."""
    fset = set(f.free)
    joined = {v: {v} for v in f.variables()}  # v's class under the equalities
    for x, y in f.equalities:
        merged = joined[x] | joined[y]
        for v in merged:
            joined[v] = merged

    def holds(node, a):
        if node[0] == "true":
            return True
        if node[0] == "atom":
            return tuple(a[v] for v in node[2]) in t.relations[node[1]]
        if node[0] == "and":
            return all(holds(c, a) for c in node[1])
        if node[0] == "or":
            return any(holds(c, a) for c in node[1])
        raise ValueError("unexpected node %r" % (node[0],))

    def matrix(a):
        if any(a[x] != a[y] for x, y in f.equalities):
            return f.quantifier == "forall"
        return holds(f.body, a)

    count = 0
    for values in product(range(t.n), repeat=len(f.free)):
        a = dict(zip(f.free, values))
        if (any(a[x] != a[u] for x in f.free for u in joined[x] & fset)
                or any(a[x] == a[y] for x, y in map(tuple, f.inequalities))
                or any(tuple(a[v] for v in args) in t.relations[sym]
                       for sym, args in f.negated_atoms)):
            continue
        results = (matrix({**a, **dict(zip(f.quantified, ys))})
                   for ys in product(range(t.n), repeat=len(f.quantified)))
        count += all(results) if f.quantifier == "forall" else any(results)
    return count


# ---------------------------------------------------------------------------
# the full compiler

def _universal_terms(f):
    """A universal formula as a combination of plain-body queries to evaluate
    on the reflexive complement of the target.  The outer negated atoms N
    hold on the complement as positive atoms, so the count is that of the
    free variables under N and the inequalities, minus the existential dual
    of the body conjoined with N."""
    negs = [("atom", sym, args) for sym, args in sorted(f.negated_atoms)]
    bare = f.replace(quantifier="exists", quantified=[],
                     body=_conjunction(negs), negated_atoms=())
    terms = [(1, formula_to_query(bare)[0])]
    dual = universal_to_existential(f.replace(negated_atoms=()))
    if dual is not None:
        dual = dual.replace(body=_conjunction([dual.body] + negs))
        terms += [(-c, q) for c, q in ep_to_quantum(dual).terms]
    return terms


def compile(f):
    """Full pipeline from a fragment formula to a normalized linear
    combination of plain queries: equality elimination, then the quantifier
    step (inclusion-exclusion over disjuncts, through the complement
    transform for a universal body), then on every term negated atoms by
    inclusion-exclusion and inequalities by Moebius inversion, and one
    normalize.  Evaluating the result (on the target, or on its reflexive
    complement when the transform flag says so) matches the brute-force
    formula semantics.

    Over the signature E/2 alone the queries read their E atoms as
    undirected (model.query_structure), while count_formula_answers reads
    each atom as written: the two agree on targets whose E is symmetric,
    loops allowed, and a caller must evaluate on such targets only."""
    f = eliminate_equalities(f)
    if isinstance(f, ZeroWitness):
        return QuantumQuery([])
    if f.quantifier == "forall" and f.quantified:
        raw, transform = _universal_terms(f), "complement"
    else:
        raw = ep_to_quantum(f.replace(quantifier="exists")).terms
        transform = "identity"
    # every coefficient so far is an integer, a sign or a Moebius value:
    # multiply them as ints, and QuantumQuery makes each product a Fraction
    terms = [(c1.numerator * c2.numerator * c3.numerator, q3)
             for c1, q1 in raw
             for c2, q2 in expand_negations(q1).terms
             for c3, q3 in expand_inequalities(q2).terms]
    return normalize(QuantumQuery(terms, transform=transform))
