"""Formal linear combinations of queries: normalization to minimal pairwise
non-equivalent supports, linear evaluation, and constituent-count extraction
through tensor products with a cloning test family.
"""

from fractions import Fraction
from itertools import product

from .model import clone_by_multiplicity, complement_structure, tensor_product
from . import decomposition, homs


class QuantumQuery:
    """terms: list of (nonzero Fraction, Query); a coefficient handed over as
    another number is converted once.  transform selects whether evaluation
    runs on the target itself or on its reflexive complement."""

    def __init__(self, terms, transform="identity"):
        if transform not in ("identity", "complement"):
            raise ValueError("unknown transform %r" % transform)
        self.terms = [(c if isinstance(c, Fraction) else Fraction(c), q)
                      for c, q in terms]
        self.transform = transform

    def __repr__(self):
        return "QuantumQuery(%d terms, transform=%s)" % (len(self.terms),
                                                         self.transform)


def _term_key(q):
    from .parser import serialize_query
    return (q.structure.n, serialize_query(q))


def _sum_identical(terms):
    """Fraction coefficients summed per structurally identical query, zeros
    dropped."""
    sums = {}
    for coeff, q in terms:
        sums[q] = sums[q] + coeff if q in sums else coeff
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


def row_reduce(matrix):
    """Reduced row-echelon form of matrix over the rationals, and its pivot
    columns: the greedy left-to-right independent set of columns.  The pass
    stops once the rank equals the row count."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        f = rows[r][col]
        rows[r] = [x / f for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                f = row[col]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    return rows, pivots


def build_test_family(support):
    """Cloned structures on which the per-query answer counts form a square
    invertible matrix over the support."""
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
    _, chosen = row_reduce([[decomposition.count(q, f) for f in candidates]
                            for q in support])
    if len(chosen) < len(support):
        raise AssertionError("cloning family does not reach full rank; "
                             "support is not minimal and non-equivalent")
    return [candidates[i] for i in chosen]


def solve_rational(a, b):
    """Solve the square system a x = b exactly; raises on a singular matrix."""
    d = len(b)
    rref, pivots = row_reduce([list(row) + [b[i]] for i, row in enumerate(a)])
    if pivots != list(range(d)):
        raise ValueError("singular system; invalid or non-minimal support")
    return [row[d] for row in rref]


def extract_constituent_counts(qq, t, oracle=None):
    """Per-term answer counts on the evaluation target (the target itself, or
    its reflexive complement when the transform says so), recovered from oracle
    values on tensor products with the test family.  The oracle defaults to
    evaluate."""
    if oracle is None:
        oracle = lambda g: evaluate(qq, g)
    support = [q for _, q in qq.terms]
    if not support:
        return {}
    family = build_test_family(support)
    teval = t if qq.transform == "identity" else complement_structure(t)
    a = []
    b = []
    for f in family:
        row = [coeff * decomposition.count(q, f) for coeff, q in qq.terms]
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
