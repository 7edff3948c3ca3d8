"""Formal linear combinations of queries: normalization to minimal pairwise
non-equivalent supports, linear evaluation, and constituent-count extraction
through tensor products with a cloning test family.
"""

from fractions import Fraction
from itertools import product

from .model import (Query, clone_by_multiplicity, complement_structure,
                    tensor_product)
from . import decomposition, homs


class QuantumQuery:
    """terms: list of (nonzero Fraction, Query).  transform selects whether
    evaluation runs on the target itself or on its reflexive complement."""

    def __init__(self, terms, transform="identity"):
        if transform not in ("identity", "complement"):
            raise ValueError("unknown transform %r" % transform)
        self.terms = [(Fraction(c), q) for c, q in terms]
        self.transform = transform

    def __repr__(self):
        return "QuantumQuery(%d terms, transform=%s)" % (len(self.terms),
                                                         self.transform)


def _term_key(q):
    from .parser import serialize_query
    return (q.structure.n, serialize_query(q))


def _sum_identical(terms):
    """Coefficients summed per structurally identical query, zeros dropped."""
    sums = {}
    for coeff, q in terms:
        sums[q] = sums.get(q, 0) + Fraction(coeff)
    return {q: c for q, c in sums.items() if c != 0}


def _iso_key(q):
    """An isomorphism invariant of a query: the domain size, the number of
    free vertices, the tuple count per symbol and the sorted multiset over
    vertices of (is free, sorted (symbol, position) incidences).  It ignores
    vertex numbering and the order of the free tuple, so queries isomorphic by
    a map that keeps the free set share it."""
    s = q.structure
    fset = set(q.free)
    incidences = [[] for _ in range(s.n)]
    for name, rel in s.relations.items():
        for tup in rel:
            for i, v in enumerate(tup):
                incidences[v].append((name, i))
    return (s.n, len(fset),
            tuple(sorted((name, len(rel)) for name, rel in s.relations.items())),
            tuple(sorted((v in fset, tuple(sorted(incidences[v])))
                         for v in range(s.n))))


def normalize(qq):
    """Replace every term by its augmented core, merge equivalent terms, drop
    zero coefficients, and order terms canonically.

    Three hash-keyed passes: structurally identical raw terms are merged
    before coring, so each distinct raw term is cored once; identical cores
    are merged; then each core is tested for equivalence only against the
    kept cores with the same isomorphism key.  Equivalent cores are
    isomorphic by a map that keeps the free set (an endomorphism of an
    augmented core that maps the free set onto itself is an automorphism), so
    they always share a key; are_equivalent still decides every merge."""
    cores = _sum_identical((c, homs.augmented_core(q))
                           for q, c in _sum_identical(qq.terms).items())
    buckets = {}
    for q, coeff in cores.items():
        bucket = buckets.setdefault(_iso_key(q), [])
        for term in bucket:
            if homs.are_equivalent(q, term[1]):
                term[0] += coeff
                break
        else:
            bucket.append([coeff, q])
    terms = [(c, q) for bucket in buckets.values() for c, q in bucket if c != 0]
    terms.sort(key=lambda term: _term_key(term[1]))
    return QuantumQuery(terms, transform=qq.transform)


def evaluate(qq, t, counter=None):
    """Sum of coefficient times answer count over the terms, on t or on its
    reflexive complement per the transform flag.  counter defaults to
    decomposition.count."""
    if counter is None:
        counter = decomposition.count
    target = t if qq.transform == "identity" else complement_structure(t)
    total = Fraction(0)
    for coeff, q in qq.terms:
        total += coeff * counter(q, target)
    if total.denominator == 1:
        return int(total)
    return total


def sorted_support(support):
    """Support sorted consistently with the surjective-extendable-map order:
    whenever q_j admits such a map from q_i, q_j comes no later than q_i."""
    items = sorted(support, key=_term_key)
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
    return [[homs.count_surjective_extendable_maps(qi, qj) for qj in support]
            for qi in support]


def _rank_and_basis(columns, rows):
    """Greedy column selection to full row rank, by rational elimination."""
    chosen = []
    basis = []
    for idx, col in enumerate(columns):
        vec = [Fraction(x) for x in col]
        for b in basis:
            pivot = next(i for i, x in enumerate(b) if x != 0)
            if vec[pivot] != 0:
                f = vec[pivot] / b[pivot]
                vec = [x - f * y for x, y in zip(vec, b)]
        if any(x != 0 for x in vec):
            basis.append(vec)
            chosen.append(idx)
        if len(chosen) == rows:
            break
    return chosen


def build_test_family(support, counter=None):
    """Cloned structures on which the per-query answer counts form a square
    invertible matrix over the support."""
    if counter is None:
        counter = decomposition.count
    candidates = []
    seen = set()
    for q in support:
        ell = len(q.free)
        for z in product(range(1, ell + 2), repeat=ell):
            mult = [1] * q.structure.n
            for x, zv in zip(q.free, z):
                mult[x] = zv
            cloned, _ = clone_by_multiplicity(q.structure, mult)
            if cloned not in seen:
                seen.add(cloned)
                candidates.append(cloned)
    columns = [[counter(q, f) for q in support] for f in candidates]
    chosen = _rank_and_basis(columns, len(support))
    if len(chosen) < len(support):
        raise AssertionError("cloning family does not reach full rank; "
                             "support is not minimal and non-equivalent")
    return [candidates[i] for i in chosen]


def solve_rational(a, b):
    """Solve the square system a x = b exactly; raises on a singular matrix."""
    d = len(b)
    mat = [[Fraction(x) for x in row] + [Fraction(b[i])]
           for i, row in enumerate(a)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if mat[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system; invalid or non-minimal support")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        f = mat[col][col]
        mat[col] = [x / f for x in mat[col]]
        for r in range(d):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return [mat[i][d] for i in range(d)]


def extract_constituent_counts(qq, t, oracle=None, counter=None):
    """Per-term answer counts on the evaluation target (the target itself, or
    its reflexive complement when the transform says so), recovered from oracle
    values on tensor products with the test family."""
    if counter is None:
        counter = decomposition.count
    if oracle is None:
        oracle = lambda g: evaluate(qq, g, counter=counter)
    support = [q for _, q in qq.terms]
    if not support:
        return {}
    family = build_test_family(support, counter=counter)
    teval = t if qq.transform == "identity" else complement_structure(t)
    a = []
    b = []
    for f in family:
        row = [coeff * counter(q, f) for coeff, q in qq.terms]
        probe = tensor_product(teval, f)
        if qq.transform == "complement":
            probe = complement_structure(probe)
        a.append(row)
        b.append(Fraction(oracle(probe)))
    x = solve_rational(a, b)
    out = {}
    for (coeff, q), value in zip(qq.terms, x):
        if value.denominator != 1:
            raise ValueError("non-integer constituent count; oracle and "
                             "support disagree")
        out[q] = int(value)
    return out
