"""Text formats for structures, colorings, formulas and quantum queries, plus
formula normalization (equality elimination, disjunctive normal form).

One statement per line, `#` starts a comment, identifiers match
[A-Za-z][A-Za-z0-9_]*.  Operator precedence in bodies: ! > & > |.
"""

import re
from fractions import Fraction

from .model import (GRAPH_SIGNATURE, Coloring, Query, Signature, Structure,
                    graph_edges, is_undirected, partition, query_structure)

IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


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
    """Marker meaning: the construct is unsatisfiable, the count is 0."""

    def __init__(self, reason):
        self.reason = reason

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
        fields = dict(signature=self.signature, free=self.free,
                      quantifier=self.quantifier, quantified=self.quantified,
                      body=self.body, inequalities=self.inequalities,
                      negated_atoms=self.negated_atoms, equalities=self.equalities)
        fields.update(kw)
        return FormulaAST(**fields)


def _logical_lines(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_signature_tokens(tokens, lineno):
    symbols = []
    for tok in tokens:
        if "/" not in tok:
            raise ParseError("expected <name>/<arity>: %r" % tok, lineno)
        name, _, arity = tok.partition("/")
        if not IDENT.match(name):
            raise ParseError("bad symbol name %r" % name, lineno)
        try:
            arity = int(arity)
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
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if header is None:
            header = line.strip()
            if header not in ("structure", "graph"):
                raise ParseError("expected 'structure' or 'graph' header, "
                                 "got %r" % header, lineno)
            graph_mode = header == "graph"
            edges = tuples["E"] = set()
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
                n = int(tokens[1])
            except ValueError:
                raise ParseError("bad domain size %r" % tokens[1], lineno)
            if n < 0:
                raise ParseError("negative domain size", lineno)
            if n > MAX_DOMAIN:
                raise ParseError("domain size %d exceeds MAX_DOMAIN = %d"
                                 % (n, MAX_DOMAIN), lineno)
            if graph_mode and n <= INDEXED_GRAPH_LIMIT:
                index = {}
        else:
            if sig is None:
                if not graph_mode:
                    raise ParseError("tuple line before signature", lineno)
                sig = Signature(GRAPH_SIGNATURE)
            if n is None:
                raise ParseError("tuple line before domain", lineno)
            arity = sig.arity.get(head)
            if arity is None:
                raise ParseError("unknown relation symbol %r" % head, lineno)
            try:
                tup = tuple(map(int, tokens[1:]))
            except ValueError:
                raise ParseError("vertices must be integers", lineno)
            if len(tup) != arity:
                raise ParseError("arity mismatch for %s" % head, lineno)
            if min(tup) < 0 or max(tup) >= n:
                v = next(v for v in tup if not 0 <= v < n)
                raise ParseError("vertex %d out of range" % v, lineno)
            if not graph_mode:
                tuples.setdefault(head, set()).add(tup)
                continue
            u, v = tup
            if u == v:
                raise ParseError("loop %d in graph mode" % u, lineno)
            edges.add(tup)
            edges.add((v, u))
            if index is not None:
                index[u] = index.get(u, 0) | 1 << v
                index[v] = index.get(v, 0) | 1 << u
    if header is None:
        raise ParseError("empty structure file")
    if sig is None:
        if not graph_mode:
            raise ParseError("missing signature")
        sig = Signature(GRAPH_SIGNATURE)
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
    max_vertex = -1
    for lineno, line in _logical_lines(text):
        tokens = line.split()
        if tokens[0] != "color" or len(tokens) != 3:
            raise ParseError("expected 'color <vertex> <variable>'", lineno)
        try:
            v = int(tokens[1])
        except ValueError:
            raise ParseError("target vertex must be an integer", lineno)
        if v < 0:
            raise ParseError("target vertex must be non-negative", lineno)
        tok = tokens[2]
        try:
            c = int(tok)
        except ValueError:
            if name_to_index is None or tok not in name_to_index:
                raise ParseError("unknown query variable %r" % tok, lineno)
            c = name_to_index[tok]
        if v in assignments:
            raise ParseError("vertex %d colored twice" % v, lineno)
        assignments[v] = c
        max_vertex = max(max_vertex, v)
    if set(assignments) != set(range(max_vertex + 1)):
        raise ParseError("coloring must cover vertices 0..%d" % max_vertex)
    return Coloring([assignments[v] for v in range(max_vertex + 1)])


def serialize_coloring(c):
    return "".join("color %d %d\n" % (v, col) for v, col in enumerate(c.colors))


# ---------------------------------------------------------------------------
# body expressions

_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|[(),&|!]|\S)")


def _tokenize_expr(text, lineno):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        tok = m.group(1)
        if tok not in "(),&|!" and not IDENT.match(tok) and tok != "true":
            raise ParseError("bad token %r" % tok, lineno, m.start(1) + 1)
        tokens.append((tok, m.start(1) + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of expression", self.lineno)
        tok, col = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise ParseError("expected %r, got %r" % (expected, tok),
                             self.lineno, col)
        self.pos += 1
        return tok, col

    def parse(self):
        node = self.parse_or()
        if self.pos != len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise ParseError("trailing token %r" % tok, self.lineno, col)
        return node

    def parse_or(self):
        parts = [self.parse_and()]
        while self.peek() == "|":
            self.take()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else ("or", tuple(parts))

    def parse_and(self):
        parts = [self.parse_unary()]
        while self.peek() == "&":
            self.take()
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else ("and", tuple(parts))

    def parse_unary(self):
        if self.peek() == "!":
            _, col = self.take()
            inner = self.parse_unary()
            if inner[0] != "atom":
                raise ParseError("'!' applies to single atoms only", self.lineno, col)
            return ("not", inner)
        if self.peek() == "(":
            self.take()
            node = self.parse_or()
            self.take(")")
            return node
        tok, col = self.take()
        if tok == "true":
            return ("true",)
        if not IDENT.match(tok):
            raise ParseError("expected an atom, got %r" % tok, self.lineno, col)
        self.take("(")
        args = []
        while True:
            arg, acol = self.take()
            if not IDENT.match(arg):
                raise ParseError("bad variable %r" % arg, self.lineno, acol)
            args.append(arg)
            nxt, _ = self.take()
            if nxt == ")":
                break
            if nxt != ",":
                raise ParseError("expected ',' or ')'", self.lineno)
        return ("atom", tok, tuple(args))


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
    negated = []
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
            body = _ExprParser(_tokenize_expr(rest, lineno), lineno).parse()
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
            equalities.append((parts[0], parts[1]))
        else:
            raise ParseError("unknown statement %r" % head, lineno)
    if sig is None:
        sig = Signature(GRAPH_SIGNATURE)
    if free is None:
        free = []
    if body is None:
        raise ParseError("missing body line")
    declared = free + quantified
    if len(set(declared)) != len(declared):
        raise ParseError("variable declared twice")
    for v in declared:
        if not IDENT.match(v):
            raise ParseError("bad variable name %r" % v)
    fset = set(free)
    declared_set = set(declared)

    def check_atom(sym, args):
        if sym not in sig.arity:
            raise ParseError("unknown relation symbol %r" % sym, body_line)
        if len(args) != sig.arity[sym]:
            raise ParseError("arity mismatch for %s" % sym, body_line)
        for v in args:
            if v not in declared_set:
                raise ParseError("unbound variable %r" % v, body_line)

    # negations must sit in the top-level conjunction and touch only free vars
    positive = []
    for node in _conjuncts(body):
        if node[0] == "not":
            _, sym, args = node[1]
            check_atom(sym, args)
            for v in args:
                if v not in fset:
                    raise ParseError(
                        "negated atom on quantified variable %r" % v, body_line)
            negated.append((sym, args))
        else:
            positive.append(node)

    def reject_not(node):
        if node[0] == "not":
            raise ParseError(
                "negation outside the top-level conjunction", body_line)
        if node[0] in ("and", "or"):
            for child in node[1]:
                reject_not(child)
    for node in positive:
        reject_not(node)
    positive = [p for p in positive if p[0] != "true"] or [("true",)]
    body = positive[0] if len(positive) == 1 else ("and", tuple(positive))

    def check_tree(node):
        if node[0] == "atom":
            check_atom(node[1], node[2])
        elif node[0] in ("and", "or"):
            for child in node[1]:
                check_tree(child)
    check_tree(body)

    ineqs = []
    for a, b, lineno in inequalities:
        for v in (a, b):
            if v not in declared_set:
                raise ParseError("unbound variable %r in inequality" % v, lineno)
            if v not in fset:
                raise ParseError("inequality on quantified variable %r" % v, lineno)
        ineqs.append((a, b))
    for a, b in equalities:
        for v in (a, b):
            if v not in declared_set:
                raise ParseError("unbound variable %r in equality" % v)

    if is_query:
        if quantifier == "forall":
            raise ParseError("a query cannot be universally quantified")
        if any(node[0] not in ("atom", "true") for node in _conjuncts(body)):
            raise ParseError("query bodies must be conjunctions of atoms")

    return FormulaAST(sig, free, quantifier, quantified, body,
                      inequalities=ineqs, negated_atoms=negated,
                      equalities=equalities)


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
            return ZeroWitness("inequality %s != %s collapsed" % (a, b))
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
    """Convert a normalized pure-conjunctive AST to a Query.  Returns
    (query, name_to_index); free variables take the leading indices."""
    if f.equalities:
        raise ValueError("eliminate equalities first")
    if f.quantifier == "forall":
        raise ValueError("universal formulas are not conjunctive queries")
    conjuncts = _conjuncts(f.body)
    if any(node[0] not in ("atom", "true") for node in conjuncts):
        raise ValueError("body is not a conjunction")
    order = f.free + f.quantified
    index = {v: i for i, v in enumerate(order)}
    structure = query_structure(f.signature, len(order), [
        (node[1], [index[v] for v in node[2]])
        for node in conjuncts if node[0] == "atom"])
    free_idx = tuple(index[v] for v in f.free)
    ineqs = [frozenset((index[a], index[b])) for a, b in
             (tuple(p) for p in f.inequalities)]
    negs = [(sym, tuple(index[v] for v in args)) for sym, args in f.negated_atoms]
    return Query(structure, free_idx, ineqs, negs), index


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
    variable name, or a ZeroWitness and {} when an inequality collapses."""
    ast = eliminate_equalities(parse_formula(text))
    if isinstance(ast, ZeroWitness):
        return ast, {}
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
