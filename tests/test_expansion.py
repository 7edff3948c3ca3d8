import random

import pytest

from cqcount import expansion, homs, quantum
from cqcount.decomposition import BudgetError
from cqcount.model import Query, Structure, complement_structure, graph
from cqcount.parser import parse_formula

from helpers import random_graph, random_structure


def test_flat_lattice_of_the_inequality_triangle():
    lat = expansion.matroid_flats_mobius(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    top = (("a", "b", "c"),)
    bottom = (("a",), ("b",), ("c",))
    assert lat.mu[bottom] == 1 and lat.rank[bottom] == 0
    assert lat.mu[top] == 2 and lat.rank[top] == 2
    # the three one-merge flats sit in between with sign -1
    middles = [rho for rho in lat.flats if rho not in (top, bottom)]
    assert len(middles) == 3
    assert all(lat.mu[rho] == -1 and lat.rank[rho] == 1 for rho in middles)


def test_mobius_signs_alternate_with_rank():
    rng = random.Random(3)
    ground = ["a", "b", "c", "d"]
    pairs = [(u, v) for i, u in enumerate(ground) for v in ground[i + 1:]]
    for _ in range(20):
        chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
        lat = expansion.matroid_flats_mobius(ground, chosen)
        for rho in lat.flats:
            mu = lat.mu[rho]
            assert mu != 0
            assert (mu > 0) == (lat.rank[rho] % 2 == 0)


def test_inequality_cap_raises_a_budget_error():
    # seven pairwise-distinct free variables span 21 inequalities
    free = list(range(7))
    pairs = [(u, v) for i, u in enumerate(free) for v in free[i + 1:]]
    with pytest.raises(BudgetError) as err:
        expansion.matroid_flats_mobius(free, pairs)
    assert (err.value.parameter, err.value.value, err.value.cap) == \
        ("inequalities", 21, expansion.MAX_INEQUALITIES)


def test_contract_query_keeps_loops_and_merges():
    q = Query(graph(3, [(0, 1), (1, 2)]), (0, 1, 2))
    c = expansion.contract_query(q, [(0, 1)])
    assert c.structure.n == 2
    assert (0, 0) in c.structure.relations["E"]
    c2 = expansion.contract_query(q, [(0, 1, 2)])
    assert c2.structure.n == 1


def test_expand_inequalities_example():
    q = Query(graph(2, []), (0, 1), inequalities=[frozenset((0, 1))])
    qq = expansion.expand_inequalities(q)
    for n in range(5):
        assert quantum.evaluate(qq, graph(n, [])) == n * n - n


def test_expand_inequalities_randomized():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 4)
        s = random_graph(rng, n, 0.6)
        free = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        pairs = [(a, b) for a in free for b in free if a < b]
        ineqs = [frozenset(p) for p in
                 rng.sample(pairs, min(rng.randint(0, 3), len(pairs)))]
        q = Query(s, free, inequalities=ineqs)
        qq = expansion.expand_inequalities(q)
        t = random_graph(rng, rng.randint(0, 5))
        assert quantum.evaluate(qq, t) == homs.count_answers(q, t)


def test_expand_negations_example():
    q = Query(graph(2, []), (0, 1), negated_atoms=[("E", (0, 1))])
    qq = expansion.expand_negations(q)
    assert quantum.evaluate(qq, graph(2, [(0, 1)])) == 2


def test_expand_negations_randomized():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randint(1, 4)
        s = random_graph(rng, n, 0.6)
        free = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        negs = set()
        for _ in range(rng.randint(0, 2)):
            a, b = rng.choice(free), rng.choice(free)
            if a != b:
                negs.add(("E", (a, b)))
        q = Query(s, free, negated_atoms=negs)
        qq = expansion.expand_negations(q)
        t = random_graph(rng, rng.randint(0, 5))
        assert quantum.evaluate(qq, t) == homs.count_answers(q, t)


def test_an_equality_that_leaves_an_inequality_standing():
    # eq x2 x3 merges x3 into x2, and ineq x1 x2 keeps its two classes
    # apart, so the compiled query is psi_2 with x1 != x2
    f = parse_formula("formula\nfree x1 x2 x3\nexists y\n"
                      "body E(x1,y) & E(x2,y)\neq x2 x3\nineq x1 x2\n")
    qq = expansion.compile(f)
    rng = random.Random(29)
    for _ in range(20):
        t = random_graph(rng, rng.randint(1, 6))
        assert quantum.evaluate(qq, t) == \
            expansion.count_formula_answers(f, t)
    # on K_3 each x1 has two others sharing a neighbour
    assert quantum.evaluate(qq, graph(3, [(0, 1), (1, 2), (0, 2)])) == 6


def test_formula_counter_on_small_examples():
    f = parse_formula("formula\nfree x\nforall y\nbody E(x,y)\n")
    # only a vertex adjacent to everything (including itself) qualifies
    assert expansion.count_formula_answers(f, graph(2, [(0, 1)])) == 0
    g = parse_formula("formula\nfree x\nexists y\nbody E(x,y)\n")
    assert expansion.count_formula_answers(g, graph(3, [(0, 1)])) == 2


def test_formula_counter_reads_equalities_as_constraints(monkeypatch):
    # hand counts, met by the compiler and by the oracle with the
    # compiler's substitution patched out of reach
    loops = complement_structure(graph(3, [(0, 1)]))  # every vertex looped
    cases = [
        # a diagonal atom: some looped y, any x1 and x2
        ("exists y1 y2\nbody E(y1,y2)\neq y1 y2", graph(2, [(0, 1)]), 0),
        ("exists y1 y2\nbody E(y1,y2)\neq y1 y2",
         complement_structure(graph(2, [(0, 1)])), 4),
        # forall y with y = x1 is the body at y = x1: E(x2,x1) on a loopless
        # graph
        ("forall y\nbody E(x1,y) | E(x2,y)\neq x1 y", graph(3, [(0, 1)]), 2),
        # x1 = y = x2 joins the free variables: no vacuous x1 != x2 answers
        ("forall y\nbody E(x1,y)\neq x1 y\neq y x2", loops, 3),
        ("exists y\nbody E(x1,y)\neq x1 y\neq y x2\nineq x1 x2", loops, 0),
    ]
    compiled = []
    for text, t, count in cases:
        f = parse_formula("formula\nfree x1 x2\n%s\n" % text)
        compiled.append(quantum.evaluate(expansion.compile(f), t))

    def refuse(f):
        raise AssertionError("the oracle substituted")

    monkeypatch.setattr(expansion, "eliminate_equalities", refuse)
    for (text, t, count), value in zip(cases, compiled):
        f = parse_formula("formula\nfree x1 x2\n%s\n" % text)
        assert expansion.count_formula_answers(f, t) == value == count, text


def test_ep_to_quantum_matches_formula_counts():
    rng = random.Random(9)
    atoms = ["E(x1,y1)", "E(x1,y2)", "E(x2,y1)", "E(x1,x2)", "E(y1,y2)",
             "E(x2,y2)"]
    for _ in range(80):
        disj = []
        for _ in range(rng.randint(1, 3)):
            conj = rng.sample(atoms, rng.randint(1, 3))
            disj.append("(" + " & ".join(conj) + ")")
        text = ("formula\nfree x1 x2\nexists y1 y2\nbody "
                + " | ".join(disj) + "\n")
        f = parse_formula(text)
        qq = expansion.ep_to_quantum(f)
        t = random_graph(rng, rng.randint(1, 4))
        assert quantum.evaluate(qq, t) == expansion.count_formula_answers(f, t)


def test_compile_handles_both_quantifiers_and_constraints():
    rng = random.Random(11)
    atoms = ["E(x1,y1)", "E(x1,y2)", "E(x2,y1)", "E(x1,x2)", "E(y1,y2)",
             "E(x2,y2)"]
    for _ in range(120):
        disj = []
        for _ in range(rng.randint(1, 2)):
            conj = rng.sample(atoms, rng.randint(1, 2))
            disj.append("(" + " & ".join(conj) + ")")
        quant = rng.choice(["forall", "exists"])
        extras = "ineq x1 x2\n" if rng.random() < 0.5 else ""
        negpart = " & !E(x1,x2)" if rng.random() < 0.5 else ""
        text = ("formula\nfree x1 x2\n%s y1 y2\nbody (%s)%s\n%s"
                % (quant, " | ".join(disj), negpart, extras))
        f = parse_formula(text)
        qq = expansion.compile(f)
        t = random_graph(rng, rng.randint(1, 4))
        assert quantum.evaluate(qq, t) == expansion.count_formula_answers(f, t)
        # the output is normalized: cores, pairwise inequivalent, nonzero
        for i, (c, q) in enumerate(qq.terms):
            assert c != 0
            assert homs.augmented_core(q).structure.n == q.structure.n
            assert not any(homs.are_equivalent(q, q2)
                           for _, q2 in qq.terms[i + 1:])


def test_compile_over_a_signature_with_an_N_prefixed_symbol():
    # NE is an ordinary symbol here, next to the negated atom !E(x1,x2)
    rng = random.Random(13)
    for quantifier in ("exists", "forall"):
        f = parse_formula("formula\nsignature E/2 NE/2\nfree x1 x2\n%s y\n"
                          "body E(x1,y) & NE(y,x2) & !E(x1,x2)\n" % quantifier)
        qq = expansion.compile(f)
        for n in range(1, 4):
            for _ in range(5):
                t = random_structure(rng, f.signature, n)
                assert quantum.evaluate(qq, t) == \
                    expansion.count_formula_answers(f, t)


def test_compile_of_a_plain_cq_is_a_single_core_term():
    f = parse_formula("query\nfree x\nexists y z\nbody E(x,y) & E(y,z)\n")
    qq = expansion.compile(f)
    assert qq.transform == "identity"
    assert len(qq.terms) == 1 and qq.terms[0][0] == 1
    assert qq.terms[0][1].structure.n == 2


def test_compiled_diagonal_atoms_match_the_oracle_on_looped_targets():
    # merged variables give loops and negated loops, which only a target
    # with loops tells apart: a reflexive complement, or random E/2 loops
    texts = ["formula\nfree x y\nbody true & !E(x,y)\neq x y\n",
             "formula\nfree x y\nexists z\nbody E(x,z) & E(z,y)\neq x y\n",
             "formula\nfree x y\nforall z\nbody E(x,z) | E(y,z)\n"
             "eq y z\n",
             "formula\nfree x1 x2\nexists y\nbody E(x1,y) & E(x2,y) "
             "& !E(x1,x2)\neq x2 y\n"]
    rng = random.Random(61)
    for text in texts:
        f = parse_formula(text)
        qq = expansion.compile(f)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 4))
            loops = [(v, v) for v in g.vertices() if rng.random() < 0.5]
            for t in (complement_structure(g),
                      Structure(g.signature, g.n,
                                {"E": set(g.relations["E"]) | set(loops)})):
                assert quantum.evaluate(qq, t) == \
                    expansion.count_formula_answers(f, t), text


def test_compile_of_an_unsatisfiable_formula_is_empty():
    f = parse_formula("formula\nfree x y\nbody E(x,y)\nineq x y\neq x y\n")
    qq = expansion.compile(f)
    assert qq.terms == []
    assert quantum.evaluate(qq, graph(3, [(0, 1)])) == 0


def test_non_maximal_clique_count_on_triangle_with_pendant():
    phi2 = parse_formula("formula\nfree x1 x2\nexists y\n"
                         "body E(x1,x2) & E(x1,y) & E(x2,y)\n")
    tpp = graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    qq = expansion.compile(phi2)
    assert quantum.evaluate(qq, tpp) == 6
    assert expansion.count_formula_answers(phi2, tpp) == 6


def test_universal_to_existential_complements_the_body():
    f = parse_formula("formula\nfree x\nforall y\nbody E(x,y)\n")
    dual = expansion.universal_to_existential(f)
    assert dual.quantifier == "exists"
    assert (dual.free, dual.quantified) == (f.free, f.quantified)
    assert dual.body == ("atom", "E", ("x", "y"))
    # a body that always holds has a false dual
    f = parse_formula("formula\nfree x\nforall y\nbody E(x,y) | true\n")
    assert expansion.universal_to_existential(f) is None
