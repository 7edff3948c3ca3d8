"""Compiling extended queries (inequalities, negated free atoms, existential
and universal positive bodies) down to linear combinations of plain queries.

Inequalities go through Moebius inversion over the partition flats they span,
negated atoms through inclusion-exclusion, universal bodies through the
complement transform, and disjunctions through inclusion-exclusion over
disjunct subsets.
"""

from fractions import Fraction
from itertools import combinations

from .model import (GRAPH_SIGNATURE, Query, Signature, Structure,
                    complement_symbol)
from .parser import (FormulaAST, ZeroWitness, eliminate_equalities,
                     formula_to_query, to_disjunctive_normal_form)
from .quantum import QuantumQuery, normalize
from . import homs

MAX_INEQUALITIES = 16


class FlatLattice:
    """Partitions of the free set induced by subsets of the inequality edges,
    with their ranks and Moebius values."""

    def __init__(self, ground, flats, rank, mu):
        self.ground = ground
        self.flats = flats
        self.rank = rank
        self.mu = mu


def _partition_key(members, pairs):
    """Canonical partition of members induced by the given merge pairs."""
    parent = {v: v for v in members}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    blocks = {}
    for v in members:
        blocks.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


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
        raise ValueError("too many inequalities (%d, cap %d)"
                         % (len(ground), MAX_INEQUALITIES))
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
    return FlatLattice(ground, flats, rank, mu)


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


def expand_inequalities(q):
    """Replace injectivity constraints by a signed sum of contracted queries.
    The combination is unnormalized; compile normalizes once, at the end."""
    if not q.inequalities:
        return QuantumQuery([(1, q)])
    lattice = matroid_flats_mobius(q.free, q.inequalities)
    base = Query(q.structure, q.free, (), q.negated_atoms)
    terms = []
    for rho in lattice.flats:
        blocks = [b for b in rho if len(b) > 1]
        terms.append((Fraction(lattice.mu[rho]), contract_query(base, blocks)))
    return QuantumQuery(terms)


def _with_atoms(structure, atoms, graph_mode):
    rels = {name: set(rel) for name, rel in structure.relations.items()}
    for sym, args in atoms:
        rels[sym].add(tuple(args))
        if graph_mode and sym == "E" and args[0] != args[1]:
            rels[sym].add((args[1], args[0]))
    return Structure(structure.signature, structure.n, rels)


def expand_negations(q):
    """Replace negated free atoms by inclusion-exclusion over the subsets
    forced positive.  The combination is unnormalized; compile normalizes
    once, at the end."""
    negs = sorted(q.negated_atoms)
    if not negs:
        return QuantumQuery([(1, q)])
    graph_mode = q.structure.signature.symbols == GRAPH_SIGNATURE
    terms = []
    for size in range(len(negs) + 1):
        for j in combinations(negs, size):
            structure = _with_atoms(q.structure, j, graph_mode)
            terms.append((Fraction((-1) ** size),
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
    """Rewrite a universal positive formula as (existential dual, complement
    flag, number of free variables): the count on t is n^k minus the dual's
    count on the reflexive complement of t."""
    if f.quantifier != "forall":
        raise ValueError("formula is not universally quantified")
    if f.negated_atoms:
        raise ValueError("universal body must be positive")
    dual = _dual(f.body)
    if dual == _FALSE:
        dual_formula = None
    else:
        dual_formula = f.replace(quantifier="exists", body=dual)
    return dual_formula, "complement", len(f.free)


def _disjuncts(node):
    if node[0] == "or":
        return list(node[1])
    return [node]


def _conjunct_atoms(node):
    if node[0] == "true":
        return []
    if node[0] == "atom":
        return [node]
    if node[0] == "and":
        out = []
        for c in node[1]:
            out.extend(_conjunct_atoms(c))
        return out
    raise ValueError("disjunct is not a conjunction of atoms")


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
                for _, sym, args in _conjunct_atoms(disjuncts[i]):
                    atoms.append(("atom", sym,
                                  tuple(renamed(v, i) for v in args)))
                for v in f.quantified:
                    name = renamed(v, i)
                    if name not in quantified:
                        quantified.append(name)
            body = ("true",) if not atoms else (
                atoms[0] if len(atoms) == 1 else ("and", tuple(atoms)))
            g = FormulaAST(f.signature, f.free, "exists", quantified, body,
                           inequalities=f.inequalities,
                           negated_atoms=f.negated_atoms)
            query, _ = formula_to_query(g)
            terms.append((Fraction((-1) ** (size + 1)), query))
    return QuantumQuery(terms)


# ---------------------------------------------------------------------------
# brute-force formula semantics, the oracle the compiler is checked against

def count_formula_answers(f, t):
    """Number of free assignments satisfying the side constraints whose body
    holds under the formula's quantifier."""
    f = eliminate_equalities(f)
    if isinstance(f, ZeroWitness):
        return 0
    variables = f.variables()

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

    def quantify(i, a):
        if i == len(variables):
            return holds(f.body, a)
        v = variables[i]
        results = (quantify(i + 1, dict(a, **{v: w})) for w in range(t.n))
        if f.quantifier == "forall":
            return all(results)
        return any(results)

    count = 0
    free = f.free
    fsets = [range(t.n)] * len(free)

    def outer(i, a):
        nonlocal count
        if i == len(free):
            for pair in f.inequalities:
                x, y = tuple(pair)
                if a[x] == a[y]:
                    return
            for sym, args in f.negated_atoms:
                if tuple(a[v] for v in args) in t.relations[sym]:
                    return
            if quantify(len(free), a):
                count += 1
            return
        for w in fsets[i]:
            a[free[i]] = w
            outer(i + 1, a)
        a.pop(free[i], None)

    if not free:
        return 1 if quantify(0, {}) else 0
    outer(0, {})
    return count


# ---------------------------------------------------------------------------
# the full compiler

def _lift_formula(f):
    """Turn the outer negated atoms into positive atoms over fresh complement
    symbols, conjoined into the body."""
    negs = sorted(f.negated_atoms)
    if not negs:
        return f, {}
    used = sorted(set(sym for sym, _ in negs))
    lifted = {}
    symbols = list(f.signature.symbols)
    for sym in used:
        nsym = complement_symbol(sym)
        if nsym in f.signature.arity:
            raise ValueError("symbol %s collides with a complement name" % nsym)
        symbols.append((nsym, f.signature.arity[sym]))
        lifted[nsym] = sym
    atoms = [("atom", complement_symbol(sym), tuple(args))
             for sym, args in negs]
    if f.body == ("true",):
        body = atoms[0] if len(atoms) == 1 else ("and", tuple(atoms))
    else:
        body = ("and", tuple([f.body] + atoms))
    g = FormulaAST(Signature(symbols), f.free, f.quantifier, f.quantified,
                   body, inequalities=f.inequalities, negated_atoms=(),
                   equalities=())
    return g, lifted


def _contract_formula(f, block_pairs):
    """Substitute free variables along the merge pairs of one flat."""
    rep = {}
    key = _partition_key(f.free, block_pairs)
    for block in key:
        for v in block:
            rep[v] = block[0]
    for v in f.quantified:
        rep[v] = v

    def sub(node):
        if node[0] == "atom":
            return ("atom", node[1], tuple(rep[v] for v in node[2]))
        if node[0] in ("and", "or"):
            return (node[0], tuple(sub(c) for c in node[1]))
        return node

    free = list(dict.fromkeys(rep[v] for v in f.free))
    return f.replace(free=free, body=sub(f.body), inequalities=())


def _lower_term(q, lifted, graph_mode):
    """Move complement-symbol atoms back into the negated-atom list over the
    original signature."""
    if not lifted:
        return q
    keep_symbols = [sym for sym in q.structure.signature.symbols
                    if sym[0] not in lifted]
    fset = set(q.free)
    negs = list(q.negated_atoms)
    rels = {}
    for name, rel in q.structure.relations.items():
        if name in lifted:
            for tup in rel:
                if any(v not in fset for v in tup):
                    raise AssertionError(
                        "complement atom on a quantified variable")
                if graph_mode:
                    tup = tuple(sorted(tup))
                negs.append((lifted[name], tup))
        else:
            rels[name] = set(rel)
            if graph_mode and name == "E":
                rels[name] |= set((b, a) for a, b in rel)
    structure = Structure(Signature(keep_symbols), q.structure.n, rels)
    negs = list(dict.fromkeys(negs))
    return Query(structure, q.free, q.inequalities, negs)


def compile(f):
    """Full pipeline from a fragment formula to a normalized linear
    combination of plain queries.  Evaluating the result (on the target, or on
    its reflexive complement when the transform flag says so) matches the
    brute-force formula semantics."""
    f = eliminate_equalities(f)
    if isinstance(f, ZeroWitness):
        return QuantumQuery([])
    graph_mode = f.is_graph_signature()
    universal = f.quantifier == "forall" and bool(f.quantified)
    if f.quantifier == "forall" and not f.quantified:
        f = f.replace(quantifier=None, quantified=[])

    lifted_f, lifted = _lift_formula(f)

    if lifted_f.inequalities:
        lattice = matroid_flats_mobius(
            lifted_f.free, [tuple(sorted(p)) for p in lifted_f.inequalities])
        contracted = []
        for rho in lattice.flats:
            pairs = [(b[0], v) for b in rho for v in b[1:]]
            contracted.append((Fraction(lattice.mu[rho]),
                               _contract_formula(lifted_f, pairs)))
    else:
        contracted = [(Fraction(1), lifted_f.replace(inequalities=()))]

    raw_terms = []
    transform = "complement" if universal else "identity"
    for coeff, g in contracted:
        if universal:
            dual, _, k = universal_to_existential(
                g.replace(quantifier="forall"))
            const_sig = g.signature
            edgeless = Structure(const_sig, k,
                                 {name: set() for name, _ in const_sig.symbols})
            raw_terms.append((coeff, Query(edgeless, tuple(range(k)))))
            if dual is not None:
                inner = ep_to_quantum(dual)
                for c2, q2 in inner.terms:
                    raw_terms.append((-coeff * c2, q2))
        else:
            inner = ep_to_quantum(g.replace(quantifier="exists"))
            for c2, q2 in inner.terms:
                raw_terms.append((coeff * c2, q2))

    expanded = []
    for coeff, q in raw_terms:
        q = _lower_term(q, lifted, graph_mode)
        if q.negated_atoms:
            inner = expand_negations(q)
            for c2, q2 in inner.terms:
                expanded.append((coeff * c2, q2))
        else:
            expanded.append((coeff, q))

    return normalize(QuantumQuery(expanded, transform=transform))
