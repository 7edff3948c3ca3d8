import pytest

from cqcount.model import graph_edges
from cqcount.parser import (ParseError, ZeroWitness, eliminate_equalities,
                            formula_to_query, parse_coloring, parse_formula,
                            parse_query, parse_quantum, parse_structure,
                            serialize_coloring, serialize_query,
                            serialize_structure, to_disjunctive_normal_form)


def test_graph_round_trip():
    text = "graph\ndomain 3\nE 0 1\nE 1 2\n"
    s = parse_structure(text)
    assert s.n == 3 and graph_edges(s) == [(0, 1), (1, 2)]
    assert serialize_structure(s) == text


def test_structure_round_trip():
    text = "structure\nsignature R/3 E/2\ndomain 2\nR 0 0 1\nE 1 0\n"
    s = parse_structure(text)
    assert s.relations["R"] == frozenset({(0, 0, 1)})
    assert parse_structure(serialize_structure(s)).relations == s.relations


def test_graph_mode_rejects_loops():
    with pytest.raises(ParseError):
        parse_structure("graph\ndomain 2\nE 1 1\n")


def test_structure_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_structure("graph\ndomain 2\nE 0 5\n")
    assert "line 3" in str(e.value)


def test_repeated_domain_line_rejected():
    # the tuple was range-checked against the first domain size
    with pytest.raises(ParseError) as e:
        parse_structure("graph\ndomain 5\nE 3 4\ndomain 2\n")
    assert "duplicate domain line" in str(e.value) and "line 4" in str(e.value)


def test_query_round_trip_is_a_fixpoint():
    text = "query\nfree v0 v1\nexists v2\nbody E(v0,v2) & E(v1,v2)\n"
    q = parse_query(text)
    assert serialize_query(q) == text
    assert serialize_query(parse_query(serialize_query(q))) == text


def test_query_with_side_constraints():
    text = ("query\nfree x y\nexists z\nbody E(x,z) & E(y,z) & !E(x,y)\n"
            "ineq x y\n")
    q = parse_query(text)
    assert q.inequalities == frozenset({frozenset({0, 1})})
    assert ("E", (0, 1)) in q.negated_atoms
    back = parse_query(serialize_query(q))
    assert serialize_query(back) == serialize_query(q)


def test_negation_on_quantified_variable_rejected():
    with pytest.raises(ParseError):
        parse_formula("formula\nfree x\nexists y\nbody E(x,y) & !E(x,y) | true\n")
    with pytest.raises(ParseError):
        parse_formula("formula\nfree x\nexists y\nbody !E(x,y)\n")


def test_inequality_on_quantified_variable_rejected():
    with pytest.raises(ParseError):
        parse_formula("formula\nfree x\nexists y\nbody E(x,y)\nineq x y\n")


def test_unbound_variable_rejected():
    with pytest.raises(ParseError):
        parse_formula("formula\nfree x\nbody E(x,z)\n")


def test_equality_elimination_keeps_diagonal_atoms():
    f = parse_formula("formula\nfree x y\nbody E(x,y) & !E(y,x)\neq x y\n")
    g = eliminate_equalities(f)
    assert g.body == ("atom", "E", ("x", "x"))
    assert g.negated_atoms == {("E", ("x", "x"))}
    q = parse_query("query\nfree x y\nbody E(x,y)\neq x y\n")
    assert q.structure.relations["E"] == {(0, 0)}


def test_equality_elimination_prefers_free_representatives():
    f = parse_formula("formula\nfree x\nexists y z\nbody E(y,z)\neq x y\n")
    g = eliminate_equalities(f)
    assert g.free == ["x"]
    assert g.quantified == ["z"]


def test_equality_collapse_gives_zero_witness():
    f = parse_formula("formula\nfree x y\nbody E(x,y)\nineq x y\neq x y\n")
    assert isinstance(eliminate_equalities(f), ZeroWitness)
    f = parse_formula("formula\nfree x y\nbody true\nineq x y\neq x y\n")
    assert isinstance(eliminate_equalities(f), ZeroWitness)


def test_dnf_distributes_and_dedupes():
    f = parse_formula(
        "formula\nfree x y\nbody (E(x,y) | E(y,x)) & (E(x,y) | E(y,x))\n")
    g = to_disjunctive_normal_form(f)
    assert g.body[0] == "or"
    assert len(g.body[1]) <= 4


def test_coloring_round_trip():
    c = parse_coloring("color 0 1\ncolor 1 0\n")
    assert c.colors == (1, 0)
    assert serialize_coloring(c) == "color 0 1\ncolor 1 0\n"
    with pytest.raises(ParseError):
        parse_coloring("color 0 1\ncolor 2 0\n")


def test_formula_to_query_orders_free_first():
    f = parse_formula("formula\nfree a\nexists b\nbody E(a,b)\n")
    q, index = formula_to_query(f)
    assert index == {"a": 0, "b": 1}
    assert q.free == (0,)


def test_quantum_text_round_trip():
    text = ("transform complement\ncoeff 3/2\nquery\nfree v0\nbody true\n"
            "---\ncoeff -1/1\nquery\nfree v0 v1\nbody E(v0,v1)\n")
    qq = parse_quantum(text)
    assert qq.transform == "complement"
    assert len(qq.terms) == 2
    from cqcount.parser import serialize_quantum
    assert parse_quantum(serialize_quantum(qq)).terms[0][0] == qq.terms[0][0]
    assert serialize_quantum(parse_quantum(serialize_quantum(qq))) == \
        serialize_quantum(qq)


TWO_BLOCKS = ("transform identity\ncoeff 1/1\nquery\nfree x y\nbody E(x,y)\n"
              "---\ncoeff -1/1\nquery\n# the free line\nfree x\n\n"
              "body E(x,z)\n")


def test_quantum_block_errors_name_the_file_line():
    # the second block's body is on file line 12, its third query line
    with pytest.raises(ParseError) as e:
        parse_quantum(TWO_BLOCKS)
    assert e.value.line == 12
    assert str(e.value) == "unbound variable 'z' (line 12)"
    # an error without a line inside the block names the block's coeff line
    with pytest.raises(ParseError) as e:
        parse_quantum("coeff 1/1\nquery\nfree x\nbody E(x,x)\n---\n"
                      "coeff 2/1\nquery\nfree x\n")
    assert str(e.value) == "missing body line (line 6)"


@pytest.mark.parametrize("block", [
    "formula\nfree x\nforall y\nbody E(x,y)\n",
    "formula\nfree x y\nbody E(x,y) | E(y,x)\n",
])
def test_quantum_block_that_is_not_a_conjunctive_query_rejected(block):
    text = "transform identity\ncoeff 1/1\n" + block
    with pytest.raises(ParseError) as e:
        parse_quantum(text)
    assert "line 2" in str(e.value)
