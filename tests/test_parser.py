import random

import pytest

from cqcount import parser
from cqcount.cli import _random_query
from cqcount.gadgets import family_query
from cqcount.model import Query, Structure, graph_edges
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


def test_quantum_text_skips_empty_blocks():
    block = "coeff 1/1\nquery\nfree x\nbody true\n"
    # no terms serialize as the transform line alone
    qq = parse_quantum("transform complement\n")
    assert (qq.transform, qq.terms) == ("complement", [])
    # a header alone in its block, a leading --- and an empty block between
    # two terms are skipped; the first block that holds a line reads the
    # header
    for text, transform, terms in [
            ("transform complement\n---\n" + block, "complement", 1),
            ("---\n" + block, "identity", 1),
            ("---\ntransform complement\n" + block, "complement", 1),
            (block + "---\n---\n" + block, "identity", 2)]:
        qq = parse_quantum(text)
        assert (qq.transform, len(qq.terms)) == (transform, terms), text
        assert all(q.free == (0,) for _, q in qq.terms)


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
    # an integer is an optional '-' and ASCII digits, never another
    # spelling that int() reads
    ("graph\ndomain 12\nE 0 1_1\n", "vertices must be integers", 3),
    ("graph\ndomain 3\nE 0 +2\n", "vertices must be integers", 3),
    ("graph\ndomain 3\nE 0 \u0662\n", "vertices must be integers", 3),
    ("structure\nsignature my_R/2 T/3 # +\ndomain 3\nmy_R 0 1\nT 0 1 +2\n",
     "vertices must be integers", 5),
    ("structure\nsignature T/3\ndomain 3\nT 0 1 2\nT 0 1 2_0\n",
     "vertices must be integers", 5),
    ("graph\ndomain 1_0\n", "bad domain size '1_0'", 2),
    ("graph\ndomain +3\n", "bad domain size '+3'", 2),
    ("graph\ndomain \u0663\n", "bad domain size '\u0663'", 2),
    ("structure\nsignature E/+2\n", "bad arity in 'E/+2'", 2),
    # tokens are split by ASCII whitespace only: a no-break space or an em
    # space joins what it stands between
    ("graph\ndomain 3\nE 0\u00a02\n", "non-ASCII whitespace", 3),
    ("graph # \u00e9\ndomain\u20033\n", "non-ASCII whitespace", 2),
    # a line ends at "\n" or "\r\n" only, so every line number is the one an
    # editor shows, and an ASCII control character but tab is refused
    ("graph\r\ndomain 3\r\nE 0 1\r\nE 1 1\r\n", "loop 1 in graph mode", 4),
    ("graph\ndomain 3\x1cE 0 1\nE 1 1\n", "control character U+001C", 2),
    ("graph\ndomain 3\nE 0\x0b2\n", "control character U+000B", 3),
    ("graph\ndomain 3\nE 0\x1f2\n", "control character U+001F", 3),
    ("graph\ndomain 3\nE 0 1\x0c\n", "control character U+000C", 3),
    ("graph\ndomain 3\nE 0 1 # \x00\n", "control character U+0000", 3),
    ("graph\ndomain 3\nE 0 2\x7f\n", "control character U+007F", 3),
    ("graph\rdomain 3\n", "control character U+000D", 1),
    ("graph\ndomain 3\nE 0 1\r\r\n", "control character U+000D", 3),
    ("graph\ndomain 3\x85E 0 1\nE 1 1\n", "non-ASCII whitespace", 2),
    ("graph\ndomain 3\u2028E 0 1\nE 1 1\n", "non-ASCII whitespace", 2),
]


@pytest.mark.parametrize("text, message, line", STRUCTURE_ERRORS)
def test_structure_errors_are_pinned(text, message, line):
    with pytest.raises(ParseError) as e:
        parse_structure(text)
    assert (e.value.message, e.value.line, e.value.col) == \
        (message, line, None)


def test_crlf_lines_read_as_lf_lines_in_every_format():
    lf = "graph\ndomain 3\nE 0 1\nE 1 2\n"
    assert parse_structure(lf.replace("\n", "\r\n")) == parse_structure(lf)
    text = "color 0 1 # c\ncolor 1 0\n"
    assert parse_coloring(text.replace("\n", "\r\n")).colors == (1, 0)
    text = "formula\nfree x y\nexists z\nbody E(x,z) & E(z,y)\nineq x y\n"
    assert serialize_query(parse_query(text.replace("\n", "\r\n"))) == \
        serialize_query(parse_query(text))


@pytest.mark.parametrize("parse, text, line", [
    (parse_coloring, "color 0 0\ncolor 1\x0c 0\n", 2),
    (parse_formula, "formula\nfree x\x1dy\nbody E(x,y)\n", 2),
    (parse_formula, "formula\rfree x\nbody E(x,x)\n", 1),
    (parse_quantum, "coeff 1/1\nquery\n\x1ebody true\n", 3),
])
def test_other_formats_refuse_control_characters_at_their_line(parse, text,
                                                               line):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert e.value.message.startswith("control character U+00")
    assert e.value.line == line


def test_a_file_with_underscores_and_plus_signs_elsewhere_is_read():
    # '_' in a symbol name and '+' or a non-ASCII letter in a comment leave
    # each tuple line to be checked on its own
    s = parse_structure("structure # R+T, \u00e9\nsignature my_R/2 T/1\n"
                        "domain 3\nmy_R 0 -0 # +\nT 2\nmy_R 2 1\n")
    assert s.relations == {"my_R": frozenset({(0, 0), (2, 1)}),
                           "T": frozenset({(2,)})}


@pytest.mark.parametrize("text, message", [
    ("color 0 1_0\n", "unknown query variable '1_0'"),
    ("color 0 +1\n", "unknown query variable '+1'"),
    ("color 0 \u0661\n", "unknown query variable '\u0661'"),
    ("color 1_0 0\n", "target vertex must be an integer"),
    ("color +0 0\n", "target vertex must be an integer"),
    ("color -1 0\n", "target vertex must be non-negative"),
    ("color 0\u00a01\n", "non-ASCII whitespace"),
])
def test_coloring_integers_are_ascii_decimals(text, message):
    with pytest.raises(ParseError) as e:
        parse_coloring(text, {"x": 0})
    assert (e.value.message, e.value.line) == (message, 1)
    assert parse_coloring("color 0 x\ncolor 1 1\n", {"x": 0}).colors == (0, 1)


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


# (function, text, message, line, col) for every error parse_formula,
# parse_query and parse_quantum raise; a column counts within the file's line
HEAD = "formula\nfree x y\nexists z\n"
FORMULA_ERRORS = [
    ("formula", "", "empty formula file", None, None),
    ("formula", "# c\n\n", "empty formula file", None, None),
    ("formula", "formul\n",
     "expected 'formula' or 'query' header, got 'formul'", 1, None),
    ("formula", "  query  x\n",
     "expected 'formula' or 'query' header, got 'query  x'", 1, None),
    # tokens
    ("formula", HEAD + "body E(x,y) & %\n", "bad token '%'", 4, 15),
    ("formula", HEAD + "body E(x,y) & %", "bad token '%'", 4, 15),
    ("formula", "formula\nfree x y\nbody E(x,x) & %\n", "bad token '%'", 3, 15),
    ("formula", "formula\nfree x y\n   body   E(x,x) & %\n",
     "bad token '%'", 3, 20),
    ("formula", HEAD + "body\tE(x,\ty) & 1\n", "bad token '1'", 4, 16),
    ("formula", HEAD + "body E(x,1y)\n", "bad token '1'", 4, 10),
    ("formula", HEAD + "body E(x,_y) # (\n", "bad token '_'", 4, 10),
    ("formula", HEAD + "body E(x,é)\n", "bad token 'é'", 4, 10),
    ("formula", HEAD + "body E(x,y) E(y,x)\n", "trailing token 'E'", 4, 13),
    # str.split() would read these as ASCII spaces; a comment may hold them
    ("formula", "formula\nfree x1\u00a0x2\nbody E(x1,x2)\n",
     "non-ASCII whitespace", 2, None),
    ("formula", HEAD + "body E(x,\u00a0y) # \u3000\n", "non-ASCII whitespace",
     4, None),
    ("formula", "formula # \u00a0\nfree\u2003x\nbody E(x,x)\n",
     "non-ASCII whitespace", 2, None),
    ("query", "query\nfree x y\nbody E(x,y)\nineq\u2009x y\n",
     "non-ASCII whitespace", 4, None),
    ("formula", HEAD + "body E(x,y))\n", "trailing token ')'", 4, 12),
    ("formula", HEAD + "body E(x,y) &\n", "unexpected end of expression", 4,
     None),
    ("formula", HEAD + "body\n", "unexpected end of expression", 4, None),
    ("formula", HEAD + "body E(x,y\n", "unexpected end of expression", 4, None),
    ("formula", HEAD + "body E(x,\n", "unexpected end of expression", 4, None),
    ("formula", HEAD + "body E\n", "unexpected end of expression", 4, None),
    ("formula", HEAD + "body !\n", "unexpected end of expression", 4, None),
    ("formula", HEAD + "body (E(x,y)\n", "unexpected end of expression", 4,
     None),
    ("formula", HEAD + "body (E(x,y) x\n", "expected ')', got 'x'", 4, 14),
    ("formula", HEAD + "body E x\n", "expected '(', got 'x'", 4, 8),
    ("formula", HEAD + "body E(x,,y)\n", "bad variable ','", 4, 10),
    ("formula", HEAD + "body E()\n", "bad variable ')'", 4, 8),
    ("formula", HEAD + "body E(x,)\n", "bad variable ')'", 4, 10),
    ("formula", HEAD + "body E(x,|)\n", "bad variable '|'", 4, 10),
    ("formula", HEAD + "body E(x y)\n", "expected ',' or ')'", 4, None),
    ("formula", HEAD + "body !!E(x,y)\n", "'!' applies to single atoms only",
     4, 6),
    ("formula", HEAD + "body !true\n", "'!' applies to single atoms only", 4,
     6),
    ("formula", HEAD + "body E(x,y) & !(E(x,y) | E(y,x))\n",
     "'!' applies to single atoms only", 4, 15),
    ("formula", HEAD + "body E(x,y) & & E(y,x)\n",
     "expected an atom, got '&'", 4, 15),
    ("formula", HEAD + "body | E(x,y)\n", "expected an atom, got '|'", 4, 6),
    ("formula", HEAD + "body true(x)\n", "trailing token '('", 4, 10),
    # atoms
    ("formula", HEAD + "body F(x,y)\n", "unknown relation symbol 'F'", 4,
     None),
    ("formula", "formula\nsignature R/1\nfree x\nbody R(x) & E(x,x)\n",
     "unknown relation symbol 'E'", 4, None),
    ("formula", HEAD + "body E(x,y,z)\n", "arity mismatch for E", 4, None),
    ("formula", HEAD + "body E(x,w)\n", "unbound variable 'w'", 4, None),
    ("formula", HEAD + "body E(x,y) | E(w,true)\n", "unbound variable 'w'", 4,
     None),
    # negations
    ("formula", HEAD + "body E(x,y) | !E(x,y)\n",
     "negation outside the top-level conjunction", 4, None),
    ("formula", HEAD + "body E(x,y) & (E(y,x) | !E(x,y))\n",
     "negation outside the top-level conjunction", 4, None),
    ("formula", HEAD + "body !E(x,z)\n",
     "negated atom on quantified variable 'z'", 4, None),
    ("formula", HEAD + "body (E(x,y) & !E(z,x))\n",
     "negated atom on quantified variable 'z'", 4, None),
    ("formula", HEAD + "body !F(x)\n", "unknown relation symbol 'F'", 4, None),
    ("formula", HEAD + "body !E(x,y,x)\n", "arity mismatch for E", 4, None),
    ("formula", HEAD + "body !E(x,w)\n", "unbound variable 'w'", 4, None),
    # a negated atom is checked before the other atoms, and a nested '!'
    # is refused before them too
    ("formula", HEAD + "body E(x,w) & !F(x)\n", "unknown relation symbol 'F'",
     4, None),
    ("formula", HEAD + "body E(x,w) & (E(x,y) | !E(x,y))\n",
     "negation outside the top-level conjunction", 4, None),
    # statements
    ("formula", HEAD + "signature E/2\nsignature E/2\nbody E(x,y)\n",
     "duplicate signature line", 5, None),
    ("formula", HEAD + "free x\nbody E(x,y)\n", "duplicate free line", 4, None),
    ("formula", HEAD + "free x\n", "duplicate free line", 4, None),
    ("formula", HEAD + "exists w\nbody E(x,y)\n",
     "only one quantifier block is allowed", 4, None),
    ("formula", HEAD + "forall w\nbody E(x,y)\n",
     "only one quantifier block is allowed", 4, None),
    ("formula", HEAD + "body E(x,y)\nbody E(x,y)\n", "duplicate body line", 5,
     None),
    ("formula", HEAD + "body E(x,y) & %\nbody E(x,y)\n", "bad token '%'", 4,
     15),
    ("formula", HEAD + "foo x\nbody E(x,y)\n", "unknown statement 'foo'", 4,
     None),
    ("formula", HEAD + "body E(x,y)\nineq x\n", "expected 'ineq <v> <v>'", 5,
     None),
    ("formula", HEAD + "body E(x,y)\nineq x y z\n",
     "expected 'ineq <v> <v>'", 5, None),
    ("formula", HEAD + "body E(x,y)\nineq x x\n",
     "inequality between a variable and itself", 5, None),
    ("formula", HEAD + "body E(x,y)\nineq x w\n",
     "unbound variable 'w' in inequality", 5, None),
    ("formula", HEAD + "body E(x,y)\nineq x z\n",
     "inequality on quantified variable 'z'", 5, None),
    ("formula", HEAD + "body E(x,y)\neq x\n", "expected 'eq <v> <v>'", 5,
     None),
    ("formula", HEAD + "body E(x,y)\neq x w\n",
     "unbound variable 'w' in equality", 5, None),
    ("formula", "formula\nfree x\n", "missing body line", None, None),
    ("formula", "formula\nfree x x\nbody true\n", "variable declared twice",
     None, None),
    ("formula", "formula\nfree x\nexists x\nbody true\n",
     "variable declared twice", None, None),
    ("formula", "formula\nfree x 1x\nbody true\n", "bad variable name '1x'",
     None, None),
    ("formula", "formula\nsignature E\nbody true\n",
     "expected <name>/<arity>: 'E'", 2, None),
    ("formula", "formula\nsignature 1E/2\nbody true\n", "bad symbol name '1E'",
     2, None),
    ("formula", "formula\nsignature E/x\nbody true\n", "bad arity in 'E/x'", 2,
     None),
    ("formula", "formula\nsignature E/0\nbody true\n",
     "arity must be positive: E/0", 2, None),
    ("formula", "formula\nsignature E/2 E/1\nbody true\n",
     "duplicate relation symbol", 2, None),
    # queries
    ("query", "query\nfree x\nforall y\nbody E(x,y)\n",
     "a query cannot be universally quantified", None, None),
    ("query", "query\nfree x y\nbody E(x,y) | E(y,x)\n",
     "query bodies must be conjunctions of atoms", None, None),
    ("query", "query\nfree x y\nbody E(x,y) & (E(y,x) | true)\n",
     "query bodies must be conjunctions of atoms", None, None),
    ("query", "query\nfree x y\nbody E(x,y) & @\n", "bad token '@'", 3, 15),
    # quantum blocks: a block's error names the file's line
    ("quantum", "transform both\ncoeff 1/1\nquery\nbody true\n",
     "bad transform line", 1, None),
    ("quantum", "transform\ncoeff 1/1\nquery\nbody true\n",
     "bad transform line", 1, None),
    ("quantum", "coef 1/1\nquery\nbody true\n", "expected 'coeff <p>/<q>'", 1,
     None),
    ("quantum", "coeff 1/x\nquery\nbody true\n", "bad coefficient '1/x'", 1,
     None),
    ("quantum", "coeff 1/0\nquery\nbody true\n", "bad coefficient '1/0'", 1,
     None),
    ("quantum", "coeff 0/1\nquery\nbody true\n", "zero coefficient", 1, None),
    # a coefficient is an optional '-', ASCII digits, '/' and ASCII digits,
    # never another spelling that Fraction() reads
    ("quantum", "coeff \u0662/1\nquery\nbody true\n",
     "bad coefficient '\u0662/1'", 1, None),
    ("quantum", "coeff 1_0/1\nquery\nbody true\n",
     "bad coefficient '1_0/1'", 1, None),
    ("quantum", "coeff +2/1\nquery\nbody true\n",
     "bad coefficient '+2/1'", 1, None),
    ("quantum", "coeff 1e2\nquery\nbody true\n", "bad coefficient '1e2'", 1,
     None),
    ("quantum", "coeff 1.5\nquery\nbody true\n", "bad coefficient '1.5'", 1,
     None),
    ("quantum", "coeff 2\nquery\nbody true\n", "bad coefficient '2'", 1,
     None),
    ("quantum", "coeff\u00a01/1\nquery\nbody true\n", "non-ASCII whitespace",
     1, None),
    ("quantum", "coeff 1/1\nquery\nfree x\nbody E(x,x)\n---\ncoeff 2/1\n"
     "query\nfree\u00a0x\nbody E(x,x)\n", "non-ASCII whitespace", 8, None),
    ("quantum", "coeff 1/1\nquery\nfree x y\nbody E(x,y)\nineq x y\neq x y\n",
     "unsatisfiable constituent", 1, None),
    ("quantum", "coeff 1/1\nformula\nfree x\nforall y\nbody E(x,y)\n",
     "universal formulas are not conjunctive queries", 1, None),
    ("quantum", "coeff 1/1\nformula\nfree x y\nbody E(x,y) | E(y,x)\n",
     "body is not a conjunction", 1, None),
    ("quantum", "coeff 1/1\nquery\nfree x\n---\n", "missing body line", 1,
     None),
    ("quantum", "coeff 1/1\nquery\nfree x\nbody E(x,y)\n",
     "unbound variable 'y'", 4, None),
    ("quantum", "coeff 1/1\nquery\nfree x\nbody E(x,x)\n---\ncoeff 2/1\n"
     "query\nfree x\nbody E(x,x)\nfree x\n", "duplicate free line", 10, None),
    ("quantum", "coeff 1/1\nquery\nfree x\nbody E(x,x)\n---\ncoeff 2/1\n"
     "  query # q\n\n free x\n  body  E(x,x) & %\n", "bad token '%'", 10, 18),
]


@pytest.mark.parametrize("function, text, message, line, col", FORMULA_ERRORS)
def test_formula_errors_are_pinned(function, text, message, line, col):
    parse = {"formula": parse_formula, "query": parse_query,
             "quantum": parse_quantum}[function]
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


def random_formula_text(rng):
    """A formula file with a random body, and the fields parse_formula must
    give for it, built alongside the text by this generator alone: the
    top-level conjunction flattened, its negated atoms and true dropped."""
    symbols = rng.choice([(("E", 2),), (("E", 2), ("U", 1), ("T", 3))])
    quantified = ["y%d" % i for i in range(rng.randint(0, 2))]
    free = ["x%d" % i for i in range(rng.randint(0 if quantified else 1, 3))]
    variables = free + quantified

    def gap():
        return rng.choice(["", "", " ", "\t", "  "])

    def atom(names):
        sym, arity = rng.choice(symbols)
        args = tuple(rng.choice(names) for _ in range(arity))
        return (sym + gap() + "(" + ",".join(gap() + v + gap() for v in args)
                + ")", ("atom", sym, args))

    def node(depth, parent):
        """A subformula's text and tree, below an operator `parent`."""
        r = rng.random()
        if depth == 0 or r < 0.4:
            text, tree = (("true", ("true",)) if rng.random() < 0.15
                          else atom(variables))
        else:
            kind = "or" if r < 0.75 else "and"
            parts = [node(depth - 1, kind) for _ in range(rng.randint(2, 3))]
            op = gap() + {"or": "|", "and": "&"}[kind] + gap()
            text = op.join(t for t, _ in parts)
            tree = (kind, tuple(t for _, t in parts))
        # parentheses group an operator at or below its parent's precedence
        if (tree[0] == "or" or tree[0] == parent == "and"
                or rng.random() < 0.2):
            text = "(" + gap() + text + gap() + ")"
        return text, tree

    def leaves(tree):
        if tree[0] == "and":
            return [leaf for child in tree[1] for leaf in leaves(child)]
        return [tree]

    texts, positive, negated = [], [], set()
    for _ in range(rng.randint(1, 4)):
        if free and rng.random() < 0.25:
            text, tree = atom(free)
            negated.add(tree[1:])
            texts.append("!" + gap() + (text if rng.random() < 0.7
                                         else "(" + text + ")"))
        else:
            text, tree = node(3, "and")
            texts.append(text)
            positive += [leaf for leaf in leaves(tree) if leaf[0] != "true"]
    body = (("and", tuple(positive)) if len(positive) > 1
            else positive[0] if positive else ("true",))
    quantifier = rng.choice(["exists", "forall"]) if quantified else None
    pairs = [(a, b) for a in free for b in free if a < b]
    ineqs = rng.sample(pairs, rng.randint(0, len(pairs)))
    everything = free + quantified
    eqs = [tuple(rng.sample(everything, 2))
           for _ in range(rng.randint(0, 2) if len(everything) > 1 else 0)]

    statements = ["free\t" + "  ".join(free) if rng.random() < 0.5
                  else "free " + " ".join(free),
                  "body" + rng.choice([" ", "\t", "   "])
                  + (gap() + "&" + gap()).join(texts)]
    if symbols != (("E", 2),):
        statements.append("signature " + " ".join("%s/%d" % s for s in symbols))
    if quantifier:
        statements.append(quantifier + " " + " ".join(quantified))
    statements += ["ineq %s %s" % p for p in ineqs]
    # (line, equality) pairs: the equalities keep the order of their lines
    statements = [(st, None) for st in statements]
    statements += [("eq %s %s" % p, p) for p in eqs]
    rng.shuffle(statements)
    eqs = [p for _, p in statements if p]
    lines = ["# a random formula", "formula"]
    for statement, _ in statements:
        lines.append(rng.choice(["", "  ", "\t"]) + statement
                     + rng.choice(["", "", " # (a | !b) & %", "\t#"]))
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "  # note", "\t"]))
    expected = (symbols, free, quantifier, quantified, body,
                frozenset(frozenset(p) for p in ineqs), frozenset(negated),
                tuple(eqs))
    return "\n".join(lines) + "\n", expected


@pytest.mark.parametrize("seed", range(4))
def test_parse_formula_gives_the_tree_a_generator_printed(seed):
    rng = random.Random(seed)
    for _ in range(150):
        text, expected = random_formula_text(rng)
        f = parse_formula(text)
        assert (f.signature.symbols, f.free, f.quantifier, f.quantified,
                f.body, f.inequalities, f.negated_atoms,
                f.equalities) == expected, text


@pytest.mark.parametrize("kind", ["psi", "gamma", "omega", "poly", "w1",
                                  "subdivided"])
def test_family_queries_survive_a_text_round_trip(kind):
    for k in range(1, 5):
        q = family_query(kind, k)
        assert parse_query(serialize_query(q)) == q


def test_random_queries_survive_a_text_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        q = _random_query(rng, 7)
        # the text numbers the free vertices first, the rest in order
        order = list(q.free) + q.quantified()
        new = {v: i for i, v in enumerate(order)}
        canonical = Query(Structure(q.structure.signature, q.structure.n, {
            "E": {(new[u], new[v]) for u, v in q.structure.relations["E"]}}),
            range(len(q.free)))
        assert parse_query(serialize_query(q)) == canonical
