"""Text formats for structures, colorings, formulas and quantum queries, plus
formula normalization (equality elimination, disjunctive normal form).

One statement per line, a line ending at "\n" or "\r\n"; no other ASCII
control character than tab may appear.  `#` starts a comment, identifiers match
[A-Za-z][A-Za-z0-9_]*, and a vertex, domain size, colour or arity is an
optional '-' and ASCII digits; a coefficient p/q is one such and '/' and
ASCII digits.  A structure file's tokens are split by ASCII whitespace
only.  A body's tokens are identifiers (`true` one of them) and the
characters ( ) , & | !, spaces between them optional.
Precedence: ! > & > |.  An error's column counts within its line.
"""

import re
from fractions import Fraction

from .model import (GRAPH, GRAPH_SIGNATURE, Coloring, Query, Structure,
                    Signature, graph_edges, is_undirected, partition,
                    query_relations)

IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")
_COEFF = re.compile(r"-?[0-9]+/[0-9]+")  # ASCII digits only, unlike \d


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = " (line %d%s)" % (line, ", col %d" % col if col is not None else "")
        super().__init__(message + where)


class ZeroWitness:
    """Marker meaning: the formula is unsatisfiable, the count is 0."""

    def __init__(self, reason, formula):
        self.reason = reason
        self.formula = formula

    def __repr__(self):
        return "ZeroWitness(%r)" % (self.reason,)


class FormulaAST:
    """A single-quantifier-block formula with side constraints on free variables.

    body is a tree of ("atom", symbol, vars), ("and", children),
    ("or", children) and ("true",) nodes.  Inequalities and negated atoms are
    outer constraints on the free assignment.
    """

    def __init__(self, signature, free, quantifier, quantified, body,
                 inequalities=(), negated_atoms=(), equalities=()):
        self.signature = signature
        self.free = list(free)
        self.quantifier = quantifier
        self.quantified = list(quantified)
        self.body = body
        self.inequalities = frozenset(frozenset(p) for p in inequalities)
        self.negated_atoms = frozenset((s, tuple(a)) for s, a in negated_atoms)
        self.equalities = tuple(tuple(p) for p in equalities)

    def variables(self):
        return self.free + self.quantified

    def replace(self, **kw):
        return FormulaAST(**{**vars(self), **kw})  # the fields are the arguments


# an ASCII control character but tab and newline, once "\r\n" reads as "\n"
_CONTROL = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")


def _lines(text):
    """text cut at each "\n", a "\r\n" read as one; any other ASCII control
    character but tab is a ParseError naming its line."""
    text = text.replace("\r\n", "\n")
    bad = _CONTROL.search(text)
    if bad is not None:
        raise ParseError("control character U+%04X" % ord(bad.group()),
                         text.count("\n", 0, bad.start()) + 1)
    return text.split("\n")


def _logical_lines(text):
    """(line number, line) for each line with more than a comment, cut there."""
    out = []
    for lineno, line in enumerate(_lines(text), 1):
        if "#" in line:
            line = line[:line.index("#")]
        if line and not line.isspace():
            out.append((lineno, line))
    return out


def _strict(text):
    """False when text holds '+', '_' or a non-ASCII character, all of which
    int() reads in an integer (other scripts' digits among them)."""
    return text.isascii() and "+" not in text and "_" not in text


def _int(tok):
    """int(tok) for an optional '-' and ASCII digits, else a ValueError."""
    if not _strict(tok):
        raise ValueError(tok)
    return int(tok)


def _parse_signature_tokens(tokens, lineno):
    symbols = []
    for tok in tokens:
        if "/" not in tok:
            raise ParseError("expected <name>/<arity>: %r" % tok, lineno)
        name, _, arity = tok.partition("/")
        if not IDENT.match(name):
            raise ParseError("bad symbol name %r" % name, lineno)
        try:
            arity = _int(arity)
        except ValueError:
            raise ParseError("bad arity in %r" % tok, lineno)
        symbols.append((name, arity))
    try:
        return Signature(symbols)
    except ValueError as e:
        raise ParseError(str(e), lineno)


# the largest domain a structure file may declare: one n-bit candidate mask
# of the fast counter is then 2 MB
MAX_DOMAIN = 2 ** 24
# a graph file of at most this many vertices arrives with E's index, at most
# n masks of n bits (2 MB); past it the fast counter builds the index on
# first use, so a command that never counts on it never pays for it
INDEXED_GRAPH_LIMIT = 2 ** 12


def parse_structure(text):
    """The structure of a `structure` or `graph` file, read in one pass over
    its lines.  A graph file of at most INDEXED_GRAPH_LIMIT vertices arrives
    indexed: each edge line ORs its two ends into an adjacency-mask dict,
    installed in the structure's masks as E's index at both positions, one
    object (see Structure), so the fast counter neither builds that index
    nor tests E for symmetry."""
    header = sig = n = index = None
    tuples = {}
    arity_of = {}  # the tuple lines' symbols, once signature and domain are read
    strict = _strict(text)  # if so, no tuple line needs its own check
    for lineno, line in enumerate(_lines(text), 1):
        if "#" in line:
            line = line[:line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        if not (strict or line.isascii()) and any(
                c.isspace() for c in line if not c.isascii()):
            raise ParseError("non-ASCII whitespace", lineno)
        head = tokens[0]
        arity = arity_of.get(head)
        if arity is not None:
            try:
                if not (strict or _strict("".join(tokens[1:]))):
                    raise ValueError
                if arity == 2 and len(tokens) == 3:
                    u, v = int(tokens[1]), int(tokens[2])
                else:  # another arity, or a line of the wrong length
                    tup = tuple(map(int, tokens[1:]))
            except ValueError:
                raise ParseError("vertices must be integers", lineno)
            if arity != 2 or len(tokens) != 3:
                if len(tup) != arity:
                    raise ParseError("arity mismatch for %s" % head, lineno)
                for v in tup:
                    if not 0 <= v < n:
                        raise ParseError("vertex %d out of range" % v, lineno)
                tuples[head].add(tup)
            elif not 0 <= u < n > v >= 0:
                raise ParseError("vertex %d out of range"
                                 % (v if 0 <= u < n else u), lineno)
            elif not graph_mode:
                tuples[head].add((u, v))
            elif u == v:
                raise ParseError("loop %d in graph mode" % u, lineno)
            else:
                edges.add((u, v))
                edges.add((v, u))
                if index is not None:
                    index[u] = index.get(u, 0) | 1 << v
                    index[v] = index.get(v, 0) | 1 << u
        elif header is None:
            header = line.strip()
            if header not in ("structure", "graph"):
                raise ParseError("expected 'structure' or 'graph' header, "
                                 "got %r" % header, lineno)
            graph_mode = header == "graph"
        elif head == "signature":
            # a tuple line needs the domain, so none was read yet
            if sig is not None or n is not None:
                raise ParseError("signature must come before domain and tuples", lineno)
            sig = _parse_signature_tokens(tokens[1:], lineno)
            if graph_mode and sig.symbols != GRAPH_SIGNATURE:
                raise ParseError("graph mode requires the signature E/2", lineno)
        elif head == "domain":
            if n is not None:
                raise ParseError("duplicate domain line", lineno)
            if len(tokens) != 2:
                raise ParseError("expected 'domain <n>'", lineno)
            try:
                n = _int(tokens[1])
            except ValueError:
                raise ParseError("bad domain size %r" % tokens[1], lineno)
            if n < 0:
                raise ParseError("negative domain size", lineno)
            if n > MAX_DOMAIN:
                raise ParseError("domain size %d exceeds MAX_DOMAIN = %d"
                                 % (n, MAX_DOMAIN), lineno)
            if graph_mode:
                sig, index = GRAPH, {} if n <= INDEXED_GRAPH_LIMIT else None
            if sig is not None:
                tuples = {name: set() for name in sig.arity}
                edges = tuples.get("E")
                # a line headed by a keyword is that keyword
                arity_of = {name: k for name, k in sig.symbols
                            if name not in ("signature", "domain")}
        elif sig is None and not graph_mode:
            raise ParseError("tuple line before signature", lineno)
        elif n is None:
            raise ParseError("tuple line before domain", lineno)
        else:
            raise ParseError("unknown relation symbol %r" % head, lineno)
    if header is None:
        raise ParseError("empty structure file")
    if sig is None:
        if not graph_mode:
            raise ParseError("missing signature")
        sig = GRAPH
    if n is None:
        raise ParseError("missing domain line")
    # every tuple was checked for arity and range as it was read
    s = Structure._trusted(sig, n, {name: frozenset(tuples.get(name, ()))
                                    for name in sig.arity})
    if index is not None:
        s.masks["E", (0,)] = s.masks["E", (1,)] = (index, 0)
    return s


def serialize_structure(s):
    lines = []
    if s.is_graph():
        lines.append("graph")
        lines.append("domain %d" % s.n)
        for (u, v) in graph_edges(s):
            lines.append("E %d %d" % (u, v))
    else:
        lines.append("structure")
        lines.append("signature " + " ".join(
            "%s/%d" % sym for sym in s.signature.symbols))
        lines.append("domain %d" % s.n)
        for name, _ in s.signature.symbols:
            for tup in sorted(s.relations[name]):
                lines.append(name + " " + " ".join(str(v) for v in tup))
    return "\n".join(lines) + "\n"


def parse_coloring(text, name_to_index=None):
    """Parse `color <target-vertex> <query-variable>` lines.  Query variables
    may be numeric vertex indices or names resolved via name_to_index."""
    assignments = {}
    for lineno, line in _logical_lines(text):
        tokens = line.split()
        if tokens[0] != "color" or len(tokens) != 3:
            raise ParseError("expected 'color <vertex> <variable>'", lineno)
        try:
            v = _int(tokens[1])
        except ValueError:
            raise ParseError("target vertex must be an integer", lineno)
        if v < 0:
            raise ParseError("target vertex must be non-negative", lineno)
        tok = tokens[2]
        try:
            c = _int(tok)
        except ValueError:
            if name_to_index is None or tok not in name_to_index:
                raise ParseError("unknown query variable %r" % tok, lineno)
            c = name_to_index[tok]
        if v in assignments:
            raise ParseError("vertex %d colored twice" % v, lineno)
        assignments[v] = c
    max_vertex = max(assignments, default=-1)
    if set(assignments) != set(range(max_vertex + 1)):
        raise ParseError("coloring must cover vertices 0..%d" % max_vertex)
    return Coloring([assignments[v] for v in range(max_vertex + 1)])


def serialize_coloring(c):
    return "".join("color %d %d\n" % (v, col) for v, col in enumerate(c.colors))


# ---------------------------------------------------------------------------
# body expressions

# a body token: an identifier, or any other single non-space character
_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\S")
_OPERATORS = frozenset("(),&|!")
# identifiers separated by single spaces, or none
_NAMES = re.compile(r"(?:[A-Za-z][A-Za-z0-9_]*(?: [A-Za-z][A-Za-z0-9_]*)*)?")
_NOT_ATOM = _OPERATORS | {"true", None}  # None is the end


class _ExprParser:
    """Recursive descent over the tokens of a body, line[start:], split after
    spacing out the operators; a column is found only for an error."""

    def __init__(self, line, start, lineno):
        self.line, self.start, self.lineno = line, start, lineno
        self.tokens = tokens = line[start:].replace("(", " ( ").replace(
            ")", " ) ").replace(",", " , ").replace("&", " & ").replace(
            "|", " | ").replace("!", " ! ").split()
        if not _NAMES.fullmatch(" ".join(set(tokens).difference(_OPERATORS))):
            for i, tok in enumerate(_TOKEN.findall(line, start)):
                if tok not in _OPERATORS and not IDENT.match(tok):
                    self.fail("bad token %r" % tok, i)
        tokens += [None, None]  # the end
        self.pos = 0

    def fail(self, message, i=None):
        """Raise message, at the column of token i when one is given."""
        raise ParseError(message, self.lineno, None if i is None else [
            m.start() + 1 for m in _TOKEN.finditer(self.line, self.start)][i])

    def expect(self, tok):
        found = self.tokens[self.pos]
        if found != tok:
            if found is None:
                self.fail("unexpected end of expression")
            self.fail("expected %r, got %r" % (tok, found), self.pos)
        self.pos += 1

    def parse(self):
        node = self.parse_or()
        if self.tokens[self.pos] is not None:
            self.fail("trailing token %r" % self.tokens[self.pos], self.pos)
        return node

    def parse_or(self):
        parts = [self.parse_and()]
        while self.tokens[self.pos] == "|":
            self.pos += 1
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else ("or", tuple(parts))

    def parse_and(self):
        parts = [self.parse_unary()]
        while self.tokens[self.pos] == "&":
            self.pos += 1
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else ("and", tuple(parts))

    def parse_unary(self):
        tokens = self.tokens
        i = self.pos
        tok = tokens[i]
        if tok not in _NOT_ATOM:  # tok(a, ..., z)
            j = i + 1
            if tokens[j] != "(":
                self.pos = j
                self.expect("(")
            args = []
            while True:
                arg, sep = tokens[j + 1], tokens[j + 2]
                if arg in _OPERATORS:
                    self.fail("bad variable %r" % arg, j + 1)
                if arg is None or sep is None:
                    self.fail("unexpected end of expression")
                args.append(arg)
                j += 2
                if sep == ")":
                    self.pos = j + 1
                    return ("atom", tok, tuple(args))
                if sep != ",":
                    self.fail("expected ',' or ')'")
        if tok == "!":
            self.pos = i + 1
            inner = self.parse_unary()
            if inner[0] != "atom":
                self.fail("'!' applies to single atoms only", i)
            return ("not", inner)
        if tok == "(":
            self.pos = i + 1
            node = self.parse_or()
            self.expect(")")
            return node
        if tok is None:
            self.fail("unexpected end of expression")
        if tok == "true":
            self.pos = i + 1
            return ("true",)
        self.fail("expected an atom, got %r" % tok, i)


def _conjuncts(node):
    """The leaves of the top "and" tree of a body expression; the callers
    check which leaf kinds they allow."""
    if node[0] == "and":
        return [leaf for child in node[1] for leaf in _conjuncts(child)]
    return [node]


def parse_formula(text):
    lines = _logical_lines(text)
    if not lines:
        raise ParseError("empty formula file")
    lineno, header = lines[0]
    header = header.strip()
    if header not in ("formula", "query"):
        raise ParseError("expected 'formula' or 'query' header, got %r" % header,
                         lineno)
    is_query = header == "query"
    sig = None
    free = None
    quantifier = None
    quantified = []
    body = None
    body_line = None
    inequalities = []
    equalities = []
    for lineno, line in lines[1:]:
        tokens = line.split(None, 1)
        head = tokens[0]
        rest = tokens[1] if len(tokens) > 1 else ""
        if head == "signature":
            if sig is not None:
                raise ParseError("duplicate signature line", lineno)
            sig = _parse_signature_tokens(rest.split(), lineno)
        elif head == "free":
            if free is not None:
                raise ParseError("duplicate free line", lineno)
            free = rest.split()
        elif head in ("exists", "forall"):
            if quantifier is not None:
                raise ParseError("only one quantifier block is allowed", lineno)
            quantifier = head
            quantified = rest.split()
        elif head == "body":
            if body is not None:
                raise ParseError("duplicate body line", lineno)
            # rest is the line's tail
            body = _ExprParser(line, len(line) - len(rest), lineno).parse()
            body_line = lineno
        elif head == "ineq":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError("expected 'ineq <v> <v>'", lineno)
            if parts[0] == parts[1]:
                raise ParseError("inequality between a variable and itself", lineno)
            inequalities.append((parts[0], parts[1], lineno))
        elif head == "eq":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError("expected 'eq <v> <v>'", lineno)
            equalities.append((parts[0], parts[1], lineno))
        else:
            raise ParseError("unknown statement %r" % head, lineno)
    if sig is None:
        sig = GRAPH
    if free is None:
        free = []
    if body is None:
        raise ParseError("missing body line")
    declared = free + quantified
    declared_set = set(declared)
    if len(declared_set) != len(declared):
        raise ParseError("variable declared twice")
    if not _NAMES.fullmatch(" ".join(declared)):
        v = next(v for v in declared if not IDENT.match(v))
        raise ParseError("bad variable name %r" % v)
    fset = set(free)
    arity = sig.arity

    def check_atom(sym, args):
        if sym not in arity:
            raise ParseError("unknown relation symbol %r" % sym, body_line)
        if len(args) != arity[sym]:
            raise ParseError("arity mismatch for %s" % sym, body_line)
        for v in args:
            if v not in declared_set:
                raise ParseError("unbound variable %r" % v, body_line)

    # one walk: the top-level conjunction's negated atoms and other
    # conjuncts but true, every other atom, and any '!' below an '|'
    negated, positive, atoms, nested_not = [], [], [], []

    def walk(node, top):
        kind = node[0]
        if kind == "atom":
            atoms.append(node)
        elif kind == "not":
            (negated if top else nested_not).append(node[1][1:])
        elif kind == "and":
            for child in node[1]:
                walk(child, top)
        elif kind == "or":
            for child in node[1]:
                walk(child, False)
        if top and kind in ("atom", "or"):
            positive.append(node)
    walk(body, True)
    # negations must touch only free vars, and are checked first
    for sym, args in negated:
        check_atom(sym, args)
        for v in args:
            if v not in fset:
                raise ParseError(
                    "negated atom on quantified variable %r" % v, body_line)
    if nested_not:
        raise ParseError("negation outside the top-level conjunction", body_line)
    for _, sym, args in atoms:
        if len(args) != arity.get(sym) or not declared_set.issuperset(args):
            check_atom(sym, args)
    body = (("and", tuple(positive)) if len(positive) > 1
            else positive[0] if positive else ("true",))

    for a, b, lineno in inequalities:
        for v in (a, b):
            if v not in declared_set:
                raise ParseError("unbound variable %r in inequality" % v, lineno)
            if v not in fset:
                raise ParseError("inequality on quantified variable %r" % v, lineno)
    for a, b, lineno in equalities:
        for v in (a, b):
            if v not in declared_set:
                raise ParseError("unbound variable %r in equality" % v, lineno)

    if is_query:
        if quantifier == "forall":
            raise ParseError("a query cannot be universally quantified")
        if any(node[0] == "or" for node in positive):
            raise ParseError("query bodies must be conjunctions of atoms")

    return FormulaAST(sig, free, quantifier, quantified, body,
                      inequalities=[p[:2] for p in inequalities],
                      negated_atoms=negated,
                      equalities=[p[:2] for p in equalities])


def eliminate_equalities(f):
    """Substitute equal variables by a single representative.  Returns a
    ZeroWitness when an inequality collapses; an atom whose variables merge
    stays, as a diagonal atom (a loop in the query)."""
    if not f.equalities:
        return f
    fset = set(f.free)
    # pick a free representative whenever the class contains one
    rep = {}
    for members in partition(f.variables(), f.equalities):
        free_members = [v for v in members if v in fset]
        choice = free_members[0] if free_members else members[0]
        for v in members:
            rep[v] = choice

    def sub_tree(node):
        if node[0] == "atom":
            return ("atom", node[1], tuple(rep[v] for v in node[2]))
        if node[0] in ("and", "or"):
            return (node[0], tuple(sub_tree(c) for c in node[1]))
        return node

    body = sub_tree(node=f.body)
    new_free = list(dict.fromkeys(rep[v] for v in f.free))
    new_quant = list(dict.fromkeys(
        rep[v] for v in f.quantified if rep[v] not in fset))
    ineqs = set()
    for pair in f.inequalities:
        a, b = tuple(pair)
        if rep[a] == rep[b]:
            return ZeroWitness("inequality %s != %s collapsed" % (a, b), f)
        ineqs.add((rep[a], rep[b]))
    negs = [(sym, tuple(rep[v] for v in args))
            for sym, args in f.negated_atoms]
    return FormulaAST(f.signature, new_free, f.quantifier, new_quant, body,
                      inequalities=ineqs, negated_atoms=negs, equalities=())


def to_disjunctive_normal_form(f):
    """Distribute the body into an OR of ANDs of atoms."""

    def dnf(node):
        if node[0] in ("atom", "true"):
            return [[node]]
        if node[0] == "or":
            out = []
            for child in node[1]:
                out.extend(dnf(child))
            return out
        if node[0] == "and":
            out = [[]]
            for child in node[1]:
                out = [left + right for left in out for right in dnf(child)]
            return out
        raise ValueError("unexpected node %r" % (node[0],))

    disjuncts = []
    for conj in dnf(f.body):
        atoms = tuple(dict.fromkeys(a for a in conj if a[0] == "atom"))
        disjuncts.append(("and", atoms) if len(atoms) != 1 else atoms[0])
    disjuncts = [d if d != ("and", ()) else ("true",) for d in disjuncts]
    disjuncts = list(dict.fromkeys(disjuncts))
    body = disjuncts[0] if len(disjuncts) == 1 else ("or", tuple(disjuncts))
    return f.replace(body=body)


def formula_to_query(f):
    """Convert a normalized pure-conjunctive AST, its atoms checked as
    parse_formula checks them, to a Query.  Returns (query, name_to_index);
    free variables take the leading indices."""
    if f.equalities:
        raise ValueError("eliminate equalities first")
    if f.quantifier == "forall":
        raise ValueError("universal formulas are not conjunctive queries")
    conjuncts = _conjuncts(f.body)
    if any(node[0] not in ("atom", "true") for node in conjuncts):
        raise ValueError("body is not a conjunction")
    order = f.free + f.quantified
    index = {v: i for i, v in enumerate(order)}
    get = index.__getitem__
    rels = query_relations(f.signature, [(node[1], tuple(map(get, node[2])))
                                         for node in conjuncts if node[0] == "atom"])
    structure = Structure._trusted(f.signature, len(order), {
        name: frozenset(rels.get(name, ())) for name in f.signature.arity})
    ineqs = [frozenset(map(get, p)) for p in f.inequalities]
    negs = [(sym, tuple(map(get, args))) for sym, args in f.negated_atoms]
    return Query(structure, map(get, f.free), ineqs, negs), index


def serialize_query(q):
    """Canonical text form: variables v0.., free variables first."""
    order = list(q.free) + sorted(q.quantified())
    name = {v: "v%d" % i for i, v in enumerate(order)}
    s = q.structure
    # query_structure stored each undirected E atom both ways: print it once
    undirected = is_undirected(s.signature)
    lines = ["query"]
    if not undirected:
        lines.append("signature " + " ".join("%s/%d" % sym
                                             for sym in s.signature.symbols))
    if q.free:
        lines.append("free " + " ".join(name[v] for v in q.free))
    quant = sorted(q.quantified())
    if quant:
        lines.append("exists " + " ".join(name[v] for v in quant))
    atoms = []
    for sym, _ in s.signature.symbols:
        atoms.extend("%s(%s)" % (sym, ",".join(name[v] for v in tup))
                     for tup in s.relations[sym]
                     if not undirected or tup[0] <= tup[1])
    atoms.sort()
    negs = sorted("!%s(%s)" % (sym, ",".join(name[v] for v in args))
                  for sym, args in q.negated_atoms)
    body = " & ".join(atoms + negs) if (atoms or negs) else "true"
    lines.append("body " + body)
    for pair in sorted(tuple(sorted(name[v] for v in p)) for p in q.inequalities):
        lines.append("ineq %s %s" % pair)
    return "\n".join(lines) + "\n"


def parse_query_and_names(text):
    """A query file's Query (equalities eliminated) and the vertex of each
    variable name, or a ZeroWitness and each declared name's position when
    an inequality collapses."""
    ast = eliminate_equalities(parse_formula(text))
    if isinstance(ast, ZeroWitness):
        return ast, {v: i for i, v in enumerate(ast.formula.variables())}
    return formula_to_query(ast)


def parse_query(text):
    """Parse a query file directly to a Query (equalities eliminated)."""
    return parse_query_and_names(text)[0]


def serialize_quantum(qq):
    lines = ["transform %s" % qq.transform]
    blocks = []
    for coeff, q in qq.terms:
        coeff = Fraction(coeff)
        block = "coeff %d/%d\n" % (coeff.numerator, coeff.denominator)
        block += serialize_query(q)
        blocks.append(block)
    return "\n".join(lines) + "\n" + "---\n".join(blocks)


def parse_quantum(text):
    from .quantum import QuantumQuery
    # split on --- lines, keeping the transform header with the first block
    transform = "identity"
    chunks = [[]]
    for lineno, line in _logical_lines(text):
        if line.strip() == "---":
            chunks.append([])
        else:
            chunks[-1].append((lineno, line))
    terms = []
    first = True
    for chunk in chunks:
        if not chunk:
            continue
        body = list(chunk)
        if first and body and body[0][1].split()[0] == "transform":
            tokens = body[0][1].split()
            if len(tokens) != 2 or tokens[1] not in ("identity", "complement"):
                raise ParseError("bad transform line", body[0][0])
            transform = tokens[1]
            body = body[1:]
        first = False
        if not body:
            continue
        lineno, line = body[0]
        tokens = line.split()
        if tokens[0] != "coeff" or len(tokens) != 2:
            raise ParseError("expected 'coeff <p>/<q>'", lineno)
        try:
            if not _COEFF.fullmatch(tokens[1]):
                raise ValueError
            coeff = Fraction(tokens[1])
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad coefficient %r" % tokens[1], lineno)
        if coeff == 0:
            raise ParseError("zero coefficient", lineno)
        qtext = "\n".join(text_line for _, text_line in body[1:])
        try:
            q = parse_query(qtext)
        except ParseError as e:
            # e.line counts the block's query lines: name the file's line,
            # or the block's coeff line where e names none
            line = lineno if e.line is None else body[e.line][0]
            raise ParseError(e.message, line, e.col) from None
        except ValueError as e:
            # a formula block that is not a conjunctive query
            raise ParseError(str(e), lineno)
        if isinstance(q, ZeroWitness):
            raise ParseError("unsatisfiable constituent", lineno)
        terms.append((coeff, q))
    return QuantumQuery(terms, transform=transform)
