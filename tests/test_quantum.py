import random
from fractions import Fraction

import pytest

from cqcount import homs, quantum
from cqcount.model import Query, Signature, complement_structure, graph

from helpers import (explicit_complement, naive_normalize, random_graph,
                     random_query, random_structure, relabelled,
                     sorted_support, surjective_map_matrix)


def triangle():
    return graph(3, [(0, 1), (1, 2), (0, 2)])


VERTEX = Query(graph(1, []), (0,))
EDGE = Query(graph(2, [(0, 1)]), (0, 1))


def minimal_query(rng, max_n=3):
    n = rng.randint(1, max_n)
    g = random_graph(rng, n, 0.6)
    free = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
    return homs.augmented_core(Query(g, free))


def distinct_support(rng, size, max_n=3):
    support = []
    while len(support) < size:
        q = minimal_query(rng, max_n)
        if all(not homs.are_equivalent(q, q2) for q2 in support):
            support.append(q)
    return support


def test_normalize_merges_equal_terms():
    qq = quantum.QuantumQuery([(1, VERTEX), (1, VERTEX)])
    n = quantum.normalize(qq)
    assert len(n.terms) == 1 and n.terms[0][0] == 2


def test_normalize_cancels_equivalent_cores():
    # a loose quantified vertex never changes counts, so the padded query is
    # equivalent to a single free vertex and the coefficients cancel
    padded = Query(graph(2, []), (0,))
    qq = quantum.QuantumQuery([(2, padded), (-2, VERTEX)])
    assert quantum.normalize(qq).terms == []


def test_iso_key_ignores_numbering_and_free_order():
    rng = random.Random(11)
    ternary_unary = Signature((("R", 3), ("U", 1)))
    for trial in range(200):
        if trial % 2:
            n = rng.randint(1, 4)
            s = random_structure(rng, ternary_unary, n, 0.2)
            q = Query(s, rng.sample(range(n), rng.randint(0, n)))
        else:
            q = random_query(rng, 6)
        assert quantum._iso_key(relabelled(rng, q)) == quantum._iso_key(q)


# all five vertices free, one degree sequence: the same isomorphism key, but
# not equivalent, so the bucket must keep both
P5 = Query(graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), range(5))
K3_K2 = Query(graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]), range(5))


def test_normalize_matches_pairwise_merging():
    assert quantum._iso_key(P5) == quantum._iso_key(K3_K2)
    assert not homs.are_equivalent(P5, K3_K2)
    rng = random.Random(13)
    for trial in range(60):
        bases = [random_query(rng, 5) for _ in range(rng.randint(1, 3))]
        if trial % 3 == 0:
            bases += [P5, K3_K2]
        terms = []
        for q in bases:
            c = Fraction(rng.choice([-2, -1, 1, 3]))
            terms.append((c, q))
            terms.append((rng.choice([c, -c]), q))  # a duplicate
            for _ in range(rng.randint(1, 2)):
                terms.append((rng.choice([c, -c, 1]), relabelled(rng, q)))
        rng.shuffle(terms)
        got = quantum.normalize(quantum.QuantumQuery(terms)).terms
        want = naive_normalize(terms)
        assert len(got) == len(want)
        for c, q in got:
            assert [c2 for c2, q2 in want if homs.are_equivalent(q, q2)] == [c]


def test_evaluate_sums_term_counts():
    qq = quantum.QuantumQuery([(1, VERTEX), (1, EDGE)])
    assert quantum.evaluate(qq, triangle()) == 9
    assert quantum.evaluate(quantum.QuantumQuery([]), triangle()) == 0
    half = quantum.QuantumQuery([(Fraction(1, 2), VERTEX)])
    assert quantum.evaluate(half, graph(2, [])) == 1


def test_evaluate_complement_transform():
    is2 = Query(graph(2, []), (0, 1))
    qq = quantum.QuantumQuery([(1, is2)], transform="complement")
    # the complement is reflexive, so the edgeless pattern counts all pairs
    assert quantum.evaluate(qq, graph(4, [(0, 1), (2, 3)])) == 16


def test_surjective_map_matrix_is_lower_triangular():
    rng = random.Random(3)
    for _ in range(30):
        support = distinct_support(rng, rng.randint(1, 3))
        s = sorted_support(support)
        assert sorted(map(id, s)) == sorted(map(id, support))
        mat = surjective_map_matrix(s)
        for i in range(len(s)):
            assert mat[i][i] > 0
            for j in range(i + 1, len(s)):
                assert mat[i][j] == 0


def test_build_test_family_is_square_and_invertible():
    rng = random.Random(5)
    for _ in range(10):
        support = sorted_support(distinct_support(rng, 2))
        family = quantum.build_test_family(support)
        assert len(family) == len(support)
        rows = [[homs.count_answers(q, f) for f in family] for q in support]
        # the family certifies independence: the count matrix is invertible
        assert len(quantum.row_reduce(rows)[1]) == len(support)


def test_row_reduce_skips_a_dependent_column():
    # the middle column is twice the first, so the pivots skip it
    rref, pivots = quantum.row_reduce([[1, 2, 0], [3, 6, 1]])
    assert pivots == [0, 2]
    assert rref == [[1, 2, 0], [0, 0, 1]]


def test_solve_rational_solves_and_rejects_a_singular_matrix():
    assert quantum.solve_rational([[2, 1], [1, 3]], [3, 4]) == [1, 1]
    with pytest.raises(ValueError, match="singular"):
        quantum.solve_rational([[1, 2], [2, 4]], [1, 3])
    with pytest.raises(ValueError, match="singular"):
        quantum.solve_rational([[1, 2], [2, 4]], [1, 2])


def test_extraction_known_values():
    qq = quantum.QuantumQuery([(1, VERTEX), (1, EDGE)])
    got = quantum.extract_constituent_counts(qq, triangle())
    assert got == {VERTEX: 3, EDGE: 6}


def test_extraction_matches_direct_counts():
    rng = random.Random(7)
    for trial in range(25):
        support = distinct_support(rng, 2)
        coeffs = [Fraction(rng.choice([-2, -1, 1, 2, 3])) for _ in support]
        transform = rng.choice(["identity", "complement"])
        qq = quantum.QuantumQuery(list(zip(coeffs, support)),
                                  transform=transform)
        t = random_graph(rng, rng.randint(1, 5))
        got = quantum.extract_constituent_counts(qq, t)
        teval = t if transform == "identity" else complement_structure(t)
        assert got == {q: homs.count_answers(q, teval) for q in support}


def test_complement_transform_matches_an_explicit_complement():
    ternary_unary = Signature((("R", 3), ("U", 1)))

    def minimal_ternary_query(rng):
        n = rng.randint(1, 3)
        free = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        s = random_structure(rng, ternary_unary, n, 0.3)
        return homs.augmented_core(Query(s, free))

    rng = random.Random(29)
    for trial in range(20):
        if trial % 2:
            support = []
            while len(support) < 2:
                q = minimal_ternary_query(rng)
                if all(not homs.are_equivalent(q, q2) for q2 in support):
                    support.append(q)
            t = random_structure(rng, ternary_unary, rng.randint(2, 3), 0.4)
        else:
            support = distinct_support(rng, 2)
            t = random_graph(rng, rng.randint(1, 5))
        coeffs = [Fraction(rng.choice([-2, -1, 1, 3])) for _ in support]
        qq = quantum.QuantumQuery(list(zip(coeffs, support)),
                                  transform="complement")
        explicit = explicit_complement(t)
        want = {q: homs.count_answers(q, explicit) for q in support}
        assert quantum.evaluate(qq, t) == sum(c * want[q] for c, q in qq.terms)
        assert quantum.extract_constituent_counts(qq, t) == want


def test_extraction_uses_only_the_oracle():
    calls = []
    qq = quantum.QuantumQuery([(1, VERTEX), (1, EDGE)])

    def oracle(structure):
        calls.append(structure.n)
        return quantum.evaluate(qq, structure)

    got = quantum.extract_constituent_counts(qq, triangle(), oracle=oracle)
    assert got == {VERTEX: 3, EDGE: 6}
    assert calls
