import pytest

from cqcount import parser
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


# (text, message, line) for every error parse_structure raises; blank lines
# and comment-only lines count toward the line number
STRUCTURE_ERRORS = [
    ("", "empty structure file", None),
    ("\n# only a comment\n  \t\n", "empty structure file", None),
    ("graf\n", "expected 'structure' or 'graph' header, got 'graf'", 1),
    ("\n# c\n graph  x # y\n",
     "expected 'structure' or 'graph' header, got 'graph  x'", 3),
    ("graph\tx\n", "expected 'structure' or 'graph' header, got 'graph\\tx'",
     1),
    ("graph\n", "missing domain line", None),
    ("structure\ndomain 2\n", "missing signature", None),
    ("structure\nsignature E/2\n", "missing domain line", None),
    ("graph\ndomain 2\ndomain 2\n", "duplicate domain line", 3),
    ("graph\ndomain 5\nE 3 4\ndomain 2\n", "duplicate domain line", 4),
    ("graph\ndomain x\n", "bad domain size 'x'", 2),
    ("graph\ndomain 0x3\n", "bad domain size '0x3'", 2),
    ("graph\ndomain\n", "expected 'domain <n>'", 2),
    ("graph\ndomain 1 2\n", "expected 'domain <n>'", 2),
    ("graph\ndomain -1\n", "negative domain size", 2),
    ("structure\nE 0 1\n", "tuple line before signature", 2),
    ("graph\nE 0 1\n", "tuple line before domain", 2),
    ("structure\nsignature E/2\nE 0 1\n", "tuple line before domain", 3),
    ("graph\ndomain 2\nF 0 1\n", "unknown relation symbol 'F'", 3),
    ("graph\ndomain 2\ngraph\n", "unknown relation symbol 'graph'", 3),
    ("graph\ndomain 2\nE 0 a\n", "vertices must be integers", 3),
    ("graph\ndomain 2\nE 0 1.0\n", "vertices must be integers", 3),
    ("graph\ndomain 2\nE 0\n", "arity mismatch for E", 3),
    ("graph\ndomain 2\nE 0 1 1\n", "arity mismatch for E", 3),
    ("graph\ndomain 2\nE 0 -1\n", "vertex -1 out of range", 3),
    ("graph\ndomain 2\nE 7 9\n", "vertex 7 out of range", 3),
    ("graph\ndomain 2\nE 1 5\n", "vertex 5 out of range", 3),
    ("structure\nsignature R/3\ndomain 3\nR 0 3 -1\n",
     "vertex 3 out of range", 4),
    ("graph\ndomain 0\nE 0 0\n", "vertex 0 out of range", 3),
    ("graph\ndomain 2\nE 1 1\n", "loop 1 in graph mode", 3),
    ("structure\ndomain 2\nsignature E/2\n",
     "signature must come before domain and tuples", 3),
    ("structure\nsignature E/2\nsignature E/2\ndomain 1\n",
     "signature must come before domain and tuples", 3),
    ("graph\ndomain 2\nsignature E/2\n",
     "signature must come before domain and tuples", 3),
    ("graph\nsignature R/2\n", "graph mode requires the signature E/2", 2),
    ("graph\nsignature E/2 F/1\n", "graph mode requires the signature E/2",
     2),
    ("structure\nsignature E\n", "expected <name>/<arity>: 'E'", 2),
    ("structure\nsignature 1E/2\n", "bad symbol name '1E'", 2),
    ("structure\nsignature E/x\n", "bad arity in 'E/x'", 2),
    ("structure\nsignature E/0\n", "arity must be positive: E/0", 2),
    ("structure\nsignature E/2 E/1\n", "duplicate relation symbol", 2),
    # a line whose first token is a keyword is that keyword, never a tuple
    ("structure\nsignature domain/1\ndomain 1\ndomain 0\n",
     "duplicate domain line", 4),
    ("\n\n# header next\ngraph # a graph\n\n  domain\t3  # size\n"
     "# an edge\nE\t0   1 # ok\n\tE 2\t2\n", "loop 2 in graph mode", 9),
]


@pytest.mark.parametrize("text, message, line", STRUCTURE_ERRORS)
def test_structure_errors_are_pinned(text, message, line):
    with pytest.raises(ParseError) as e:
        parse_structure(text)
    assert (e.value.message, e.value.line, e.value.col) == \
        (message, line, None)


def test_comments_blank_lines_and_tabs_are_skipped():
    s = parse_structure("\n# c\n  graph # g\n\n\tdomain\t4 # n\n"
                        "E 0\t1  # e\n\n  E 2 1\nE 1 0\n")
    assert s.n == 4 and graph_edges(s) == [(0, 1), (1, 2)]
    s = parse_structure("structure # s\n signature\tR/1 T/2\n\ndomain 2\n"
                        "# none\nR\t1\nT 1 1 # loop\nT 0 1\n")
    assert s.relations == {"R": frozenset({(1,)}),
                           "T": frozenset({(1, 1), (0, 1)})}


def test_a_domain_past_max_domain_is_refused_at_its_line():
    cap = parser.MAX_DOMAIN
    assert parse_structure("graph\ndomain %d\n" % cap).n == cap
    with pytest.raises(ParseError) as e:
        parse_structure("graph\n\ndomain %d\n" % (cap + 1))
    assert (e.value.message, e.value.line) == (
        "domain size 16777217 exceeds MAX_DOMAIN = 16777216", 3)


def test_a_small_graph_file_arrives_with_e_indexed():
    s = parse_structure("graph\ndomain %d\nE 0 2\nE 2 1\nE 0 2\n"
                        % parser.INDEXED_GRAPH_LIMIT)
    assert s.masks == {("E", (0,)): ({0: 4, 1: 4, 2: 3}, 0),
                       ("E", (1,)): ({0: 4, 1: 4, 2: 3}, 0)}
    assert s.masks["E", (0,)] is s.masks["E", (1,)]
    # a larger one, and any other structure, is indexed on first use
    assert not parse_structure("graph\ndomain %d\nE 0 2\n"
                               % (parser.INDEXED_GRAPH_LIMIT + 1)).masks
    assert not parse_structure("structure\nsignature E/2\ndomain 3\n"
                               "E 0 2\nE 2 0\n").masks
