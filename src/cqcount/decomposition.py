"""Exact treewidth, nice tree decompositions, and the tree-decomposition based
counters: the all-free DP and the fast counter that splits off quantified
components and materializes their extendability relations.
"""

from functools import lru_cache
from operator import itemgetter

from . import homs
# BudgetError and TreewidthLimitError live in model, so homs can raise them
# without an import cycle; callers also name them as dec.BudgetError
from .model import (BudgetError, Complement, Query, Signature, Structure,
                    TreewidthLimitError, gaifman_adjacency,
                    induced_substructure)

EXACT_TREEWIDTH_LIMIT = 20
DSS_CAP = 6
# The most rows one DP table may hold while it is built.  A row carries up to
# an n-bit mask, so a table of boundary 2 on a dense target (about n**2 rows)
# would cost about n**3/8 bytes; past the cap dp_tables raises BudgetError
# and count, under "auto", counts on the brute search instead.
TABLE_ROWS_CAP = 2 ** 18


class TreeDecomposition:
    """A nice rooted tree decomposition.

    Nodes are dicts with kind in {leaf, introduce, forget, join}, a sorted bag
    tuple, the introduced/forgotten vertex where applicable, and children.
    The root bag is empty.  Joins appear only where the elimination tree
    branches, so each vertex has one forget node and one introduce node, plus
    one more introduce for each join whose bag holds it (both branches of a
    join hold its bag).
    """

    def __init__(self, root, width):
        self.root = root
        self.width = width

    def bags(self):
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node["bag"])
            stack.extend(node["children"])
        return out


def _components(adj, vertices):
    seen = set()
    comps = []
    for v in sorted(vertices):
        if v in seen:
            continue
        comp = []
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w in vertices and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _elimination_width(adj, vertices):
    """Exact treewidth by DP over subsets of an elimination prefix.

    Q(S, v) counts the vertices outside S + {v} adjacent to the component of v
    in the graph induced on S + {v}; eliminating v right after the prefix S
    creates a clique of that size.
    """
    vertices = sorted(vertices)
    n = len(vertices)
    if n == 0:
        return -1, []
    index = {v: i for i, v in enumerate(vertices)}

    def q_value(prefix, v):
        seen = {v}
        stack = [v]
        boundary = set()
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in index or w in seen:
                    continue
                if w in prefix:
                    seen.add(w)
                    stack.append(w)
                else:
                    boundary.add(w)
        boundary.discard(v)
        return len(boundary)

    @lru_cache(maxsize=None)
    def best(prefix_key):
        prefix = set(prefix_key)
        if not prefix:
            return -1
        out = None
        for v in prefix_key:
            rest = prefix - {v}
            rest_key = tuple(sorted(rest))
            width = max(best(rest_key), q_value(rest, v))
            if out is None or width < out:
                out = width
        return out

    full = tuple(vertices)
    width = best(full)
    # reconstruct a witnessing elimination order back to front,
    # lexicographically smallest at every step
    order = []
    remaining = list(vertices)
    while remaining:
        for v in remaining:
            rest = [u for u in remaining if u != v]
            if max(best(tuple(rest)), q_value(set(rest), v)) <= width:
                order.append(v)
                remaining = rest
                break
    order.reverse()
    best.cache_clear()
    return width, order


def _min_fill_order(adj, vertices):
    work = {v: set(adj[v] & set(vertices)) for v in vertices}
    order = []
    remaining = set(vertices)
    while remaining:
        def fill(v):
            nbrs = [u for u in work[v] if u in remaining]
            missing = 0
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1:]:
                    if b not in work[a]:
                        missing += 1
            return (missing, len(nbrs), v)
        v = min(remaining, key=fill)
        nbrs = [u for u in work[v] if u in remaining]
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    work[a].add(b)
        order.append(v)
        remaining.discard(v)
    return order


def _bags_from_order(adj, vertices, order):
    """Simulate the elimination, producing one bag per vertex plus tree edges."""
    work = {v: set(adj[v] & set(vertices)) for v in vertices}
    position = {v: i for i, v in enumerate(order)}
    bags = []
    parent_vertex = []
    remaining = set(vertices)
    for v in order:
        nbrs = sorted(u for u in work[v] if u in remaining and u != v)
        bags.append(tuple(sorted([v] + nbrs)))
        parent_vertex.append(min(nbrs, key=lambda u: position[u]) if nbrs else None)
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    work[a].add(b)
        remaining.discard(v)
    # tree edges: bag of v attaches to the bag of its first-eliminated neighbor
    edges = []
    for i, v in enumerate(order):
        if parent_vertex[i] is not None:
            edges.append((i, position[parent_vertex[i]]))
        elif i + 1 < len(order):
            edges.append((i, i + 1))  # chain disconnected pieces
    return bags, edges


def _nice_from_bags(bags, edges):
    """A nice decomposition of the elimination tree rooted at the last bag.
    A childless bag introduces its vertices from a leaf, those its parent
    lacks last; a bag with one child adapts that child up to it; only a bag
    with two or more children joins them.  Adapting forgets in reverse
    sorted order, so the first forget above a childless bag meets the
    introduce of the same vertex, which dp_tables fuses."""
    def leaf():
        return {"kind": "leaf", "bag": (), "children": []}

    if not bags:
        return leaf()
    adj = {i: [] for i in range(len(bags))}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    def adapt(node, from_bag, to_bag):
        cur = list(from_bag)
        for v in sorted(set(from_bag) - set(to_bag), reverse=True):
            cur.remove(v)
            node = {"kind": "forget", "vertex": v, "bag": tuple(sorted(cur)),
                    "children": [node]}
        for v in sorted(set(to_bag) - set(from_bag)):
            cur = sorted(cur + [v])
            node = {"kind": "introduce", "vertex": v, "bag": tuple(cur),
                    "children": [node]}
        return node

    def rec(i, parent):
        bag = bags[i]
        subs = [adapt(rec(j, i), bags[j], bag)
                for j in sorted(adj[i]) if j != parent]
        if not subs:
            shared = set(bag) & set(bags[parent]) if parent is not None else ()
            return adapt(adapt(leaf(), (), shared), shared, bag)
        node = subs[0]
        for sub in subs[1:]:
            node = {"kind": "join", "bag": bag, "children": [node, sub]}
        return node

    root = len(bags) - 1
    return adapt(rec(root, None), bags[root], ())


def decompose_graph(g, exact=True):
    """Tree-decompose an adjacency map over a vertex set: exactly, or by the
    min-fill heuristic when exact is false.  Returns (width,
    TreeDecomposition).  Raises TreewidthLimitError, before decomposing, for
    an exact decomposition of more than EXACT_TREEWIDTH_LIMIT vertices."""
    adj, vertices = g
    if exact and len(vertices) > EXACT_TREEWIDTH_LIMIT:
        raise TreewidthLimitError("vertices", len(vertices),
                                  EXACT_TREEWIDTH_LIMIT,
                                  "the exact treewidth limit")
    if exact:
        width, order = _elimination_width(adj, vertices)
    else:
        order = _min_fill_order(adj, vertices)
        width = None
    bags, edges = _bags_from_order(adj, vertices, order)
    if width is None:
        width = max((len(b) - 1 for b in bags), default=-1)
    root = _nice_from_bags(bags, edges)
    return width, TreeDecomposition(root, width)


def exact_treewidth(g):
    """Exact treewidth of a graph-mode structure with a valid nice decomposition."""
    return decompose_graph((gaifman_adjacency(g), list(g.vertices())))


def validate_decomposition(td, structure):
    """Check coverage, atom containment and connectedness of occurrences."""
    bags = td.bags()
    covered = set()
    for bag in bags:
        covered.update(bag)
    if set(structure.vertices()) - covered:
        return False
    for rel in structure.relations.values():
        for tup in rel:
            need = set(tup)
            if not any(need <= set(bag) for bag in bags):
                return False
    # connectedness: occurrences of each vertex form one subtree, i.e. at most
    # one node contains the vertex while its parent does not
    def occurrence_roots(v):
        roots = 0
        stack = [(td.root, False)]
        while stack:
            node, parent_has = stack.pop()
            here = v in node["bag"]
            if here and not parent_has:
                roots += 1
            for child in node["children"]:
                stack.append((child, here))
        return roots

    return all(occurrence_roots(v) <= 1 for v in covered)


def _key_getter(positions):
    return itemgetter(*positions) if positions else (lambda row: ())


def _candidate_masks(t, name, tup, v):
    """The (index, default) pair that dp_tables reads for an atom name(tup)
    of v, built on first use and memoized in t.masks under (name, positions
    of v).  A Complement view is indexed from its present tuples as
    co-masks.  A symmetric binary relation indexes alike at both positions:
    when the second position is first asked for, the relation is tested for
    symmetry once and, if it holds, the key shares the first one's object."""
    at_v = tuple(i for i, u in enumerate(tup) if u == v)
    found = t.masks.get((name, at_v))
    if found is None:
        rel = t.relations[name]
        co = isinstance(rel, Complement)
        facts = rel.present if co else rel
        first, single = at_v[0], len(at_v) == 1
        twin = t.masks.get((name, (1 - first,))) if (
            single and len(tup) == 2) else None
        if twin is not None and all((b, a) in facts for a, b in facts):
            found = twin
        else:
            bound_of = _key_getter([i for i, u in enumerate(tup) if u != v])
            index = {}
            for fact in facts:
                w = fact[first]
                if single or all(fact[i] == w for i in at_v):
                    key = bound_of(fact)
                    index[key] = index.get(key, 0) | 1 << w
            full = (1 << t.n) - 1
            found = (({key: full & ~m for key, m in index.items()}, full)
                     if co else (index, 0))
        t.masks[name, at_v] = found
    return found


def dp_tables(structure, target, td, keep=(), domains=None):
    """Run the counting DP over a nice decomposition of the non-keep vertices.

    Vertices in keep appear implicitly in every bag; the returned root table
    maps assignments of sorted(keep) to the number of homomorphisms of the
    remaining vertices consistent with that boundary assignment.

    A row holds the keep columns, then the bag in sorted order.  Rows grow
    one vertex at a time: the keep vertices at each leaf, then the vertex of
    each introduce node.  Each atom is checked once, where its last vertex
    enters a row.  A vertex's candidates are a bitmask over range(target.n):
    the AND of domains[v] (when given) and, per atom the vertex completes,
    the mask that the target's index for (symbol, positions of the vertex)
    holds under the atom's bound values (see _candidate_masks); a missing
    key means 0, or full for a Complement view's co-masks.  Each (key
    columns, index) pair is checked once per step, so the two orientations
    of an undirected edge cost one check.
    A forget of v right above the introduce of v carries v as a mask: each
    row below it, down the introduce chain to the first node that is not an
    introduce (and through the keep vertices at a leaf), holds a count and
    v's candidates.  The mask starts as v's domain ANDed with v's atoms
    already bound there, loops included; each vertex bound after that ANDs
    in the atoms of v it completes, and a row is dropped as soon as its mask
    is 0.  The forget maps each row to its count times the popcount of its
    mask, so v is never stored and the rows follow the prefixes that can
    still extend.  The keys of every table, the root's included, are
    exactly the assignments that extend.  The last vertex bound under a
    fused forget stores its row's count times that popcount at once.
    A table that passes TABLE_ROWS_CAP rows while it is built raises
    BudgetError; the size is checked once per row of the table below.
    """
    keep = tuple(sorted(keep))
    atoms_of = {}
    for name, rel in structure.relations.items():
        for tup in rel:
            for v in set(tup):
                atoms_of.setdefault(v, []).append((name, tup))
    full = (1 << target.n) - 1
    members = lru_cache(maxsize=None)(lambda m: [
        w for w, bit in enumerate(bin(m)[:1:-1]) if bit == "1"])

    def allowed(v):
        domain = None if domains is None else domains.get(v)
        return full if domain is None else sum(1 << w for w in set(domain))

    def checks(v, cols, last=None):
        """{(key columns, id of index): (key getter, index, default)} over
        the atoms of v whose other vertices all lie in cols and, when last
        is given, include it."""
        found = {}
        for name, tup in atoms_of.get(v, ()):
            others = [u for u in tup if u != v]
            if all(u in cols for u in others) and (last is None
                                                   or last in others):
                columns = tuple(cols.index(u) for u in others)
                index, default = _candidate_masks(target, name, tup, v)
                found[columns, id(index)] = (_key_getter(columns), index,
                                             default)
        return found

    def narrow(m, row, found):
        for key, index, default in found:
            m &= index.get(key(row), default)
            if not m:
                break
        return m

    def grow(node, v=None):
        """The table of node: its introduce chain bound vertex by vertex over
        the first node below that is not an introduce.  With v, each row
        carries v's mask and the table is that of the fused forget of v."""
        chain = []
        while node["kind"] == "introduce":
            u = node["vertex"]
            chain.append((u, len(keep) + node["bag"].index(u)))
            node = node["children"][0]
        if node["kind"] == "leaf":
            table, cols, binds = {(): 1}, (), list(zip(keep, range(len(keep))))
        else:
            table, cols, binds = rec(node), keep + node["bag"], []
        binds.extend(reversed(chain))
        start, carried = (1, ()) if v is None else (
            allowed(v), checks(v, cols).values())
        rows = {}
        for row, cnt in table.items():
            m = narrow(start, row, carried)
            if m:
                rows[row] = (cnt, m) if binds else cnt * m.bit_count()
        for i, (u, at) in enumerate(binds, 1):
            last = i == len(binds)
            own = checks(u, cols).values()
            cols = cols[:at] + (u,) + cols[at:]
            candidates = allowed(u)
            # v's atoms that u completes: those keyed by u alone are read
            # once per candidate w of u, on a row holding w in every column;
            # the others once per row
            by_value, rest = [-1] * target.n, []
            for (columns, _), check in ({} if v is None else
                                        checks(v, cols, u)).items():
                if set(columns) != {at}:
                    rest.append(check)
                    continue
                key, index, default = check
                for w in members(candidates):
                    by_value[w] &= index.get(key((w,) * len(cols)), default)
            out = {}
            for row, (cnt, m) in rows.items():
                mu = narrow(candidates, row, own)
                if not mu:
                    continue
                head, tail = row[:at], row[at:]
                for w in members(mu):
                    mv = m & by_value[w]
                    if mv:
                        new = head + (w,) + tail
                        for key, index, default in rest:
                            mv &= index.get(key(new), default)
                            if not mv:
                                break
                        if mv:
                            out[new] = (cnt * mv.bit_count() if last
                                        else (cnt, mv))
                if len(out) > TABLE_ROWS_CAP:
                    raise BudgetError("table rows", len(out), TABLE_ROWS_CAP,
                                      "TABLE_ROWS_CAP")
            rows = out
        return rows

    def rec(node):
        kind = node["kind"]
        if kind in ("leaf", "introduce"):
            return grow(node)
        child = node["children"][0]
        if kind == "forget":
            v = node["vertex"]
            if child["kind"] == "introduce" and child["vertex"] == v:
                return grow(child["children"][0], v)
            at = (keep + child["bag"]).index(v)
            table = {}
            for row, cnt in rec(child).items():
                key = row[:at] + row[at + 1:]
                table[key] = table.get(key, 0) + cnt
            return table
        if kind == "join":
            small, large = rec(child), rec(node["children"][1])
            if len(small) > len(large):
                small, large = large, small
            table = {}
            for key, cnt in small.items():
                other = large.get(key)
                if other:
                    table[key] = cnt * other
            return table
        raise ValueError("unknown node kind %r" % kind)

    return rec(td.root)


def count_homs_dp(structure, target, td, domains=None):
    return dp_tables(structure, target, td, domains=domains).get((), 0)


class _Part:
    """One quantified component as the fast counter plans it: its vertices,
    its boundary (the free neighbors, sorted), the substructure induced on
    both, the local id of each vertex, and the local boundary, which are the
    DP's keep columns in boundary order (induced_substructure keeps the
    vertex order)."""

    def __init__(self, q, adj, component):
        self.vertices = component
        self.boundary = sorted(
            set().union(*(adj[v] for v in component)).intersection(q.free))
        self.sub, self.local = induced_substructure(q.structure,
                                                    component + self.boundary)
        self.keep = [self.local[v] for v in self.boundary]
        self._td = None

    def tree(self):
        """A nice decomposition of the component's own vertices, built on
        first use.  Raises BudgetError, before decomposing, when the
        boundary exceeds DSS_CAP."""
        if len(self.boundary) > DSS_CAP:
            raise BudgetError("dss", len(self.boundary), DSS_CAP, "DSS_CAP")
        if self._td is None:
            vertices = [self.local[v] for v in self.vertices]
            _, self._td = decompose_graph((gaifman_adjacency(self.sub),
                                           vertices))
        return self._td

    def root_table(self, t, domains=None):
        """The map from boundary assignments (keys in boundary order) to
        extension counts, each vertex v of q kept in domains[v] when given.
        Raises BudgetError when the boundary exceeds DSS_CAP."""
        local = None if domains is None else {
            self.local[v]: d for v, d in domains.items() if v in self.local}
        return dp_tables(self.sub, t, self.tree(), keep=self.keep,
                         domains=local)


class _Plan:
    """Everything the fast counter takes from the query alone: the parts,
    one per quantified component ordered by smallest vertex, and the derived
    free-only query, which keeps the free-only atoms and gives each part
    with a boundary a fresh symbol over it (names[i], None for a
    boundary-free part).  index maps a free vertex to its derived id.  The
    derived query's Gaifman graph is the contract of q (Chen and Mengel,
    ICDT 2015), so params reads the contract and the boundaries from here."""

    def __init__(self, q):
        adj = gaifman_adjacency(q.structure)
        self.parts = [_Part(q, adj, component)
                      for component in _components(adj, set(q.quantified()))]
        self.index = {v: i for i, v in enumerate(q.free)}
        symbols = list(q.structure.signature.symbols)
        rels = {name: set(tuple(self.index[v] for v in tup) for tup in rel
                          if all(v in self.index for v in tup))
                for name, rel in q.structure.relations.items()}
        self.names = []
        for i, part in enumerate(self.parts):
            if not part.boundary:
                self.names.append(None)
                continue
            name = "R%d" % i
            while name in dict(symbols):
                name = name + "_"
            symbols.append((name, len(part.boundary)))
            rels[name] = {tuple(self.index[v] for v in part.boundary)}
            self.names.append(name)
        free = tuple(range(len(q.free)))
        self.query = Query(Structure(Signature(symbols), len(free), rels),
                           free)
        self._td = None

    def tree(self):
        """A nice decomposition of the derived query, built on first use."""
        if self._td is None:
            s = self.query.structure
            _, self._td = decompose_graph((gaifman_adjacency(s),
                                           list(s.vertices())))
        return self._td


@lru_cache(maxsize=256)
def _plan(q):
    # a Query hashes and compares structurally, so the clones of an
    # interpolation grid or the terms of one quantum query share one plan;
    # a plan holds no target state
    return _Plan(q)


def derived_free_query(q, t, domains=None):
    """The X-only query and enriched target realizing the fast counter: keeps
    the free-only atoms and adds one fresh relation per quantified component
    holding its extendability tuples, each vertex v kept in domains[v] when
    given.  Returns (query, target) or None when some boundary-free
    component is unsatisfiable."""
    if not q.is_plain():
        raise ValueError("plain CQs only")
    plan = _plan(q)
    passed = q.structure.signature.arity
    rels_t = {name: t.relations[name] for name in passed}
    for part, name in zip(plan.parts, plan.names):
        table = part.root_table(t, domains)
        if name is None:
            if not table:
                return None
            continue
        rels_t[name] = frozenset(table)
    dt = Structure._trusted(plan.query.structure.signature, t.n, rels_t)
    # only the fresh relations are indexed per count, and only in dt's memo
    dt.masks.update(item for item in t.masks.items() if item[0][0] in passed)
    return plan.query, dt


def count_answers_dss(q, t, domains=None):
    """The fast counter: component extendability relations plus a DP over a
    decomposition of the contracted free-only query, each vertex v kept in
    domains[v] when given."""
    derived = derived_free_query(q, t, domains=domains)
    if derived is None:
        return 0
    dq, dt = derived
    plan = _plan(q)
    free_domains = None if domains is None else {
        i: domains.get(v) for v, i in plan.index.items()}
    return count_homs_dp(dq.structure, dt, plan.tree(), domains=free_domains)


def pick_method(q, t):
    """The counter that count tries first under "auto", and the reason when
    it is not the DP: ("dp", None) or ("brute", reason).  The DP needs a plain
    query and a plan within DSS_CAP and the exact treewidth limit; it counts
    on Complement views by co-masks.  Whether its tables stay within
    TABLE_ROWS_CAP shows only while they are built, so count falls back on
    that budget itself.
    The plan is memoized, so the DP reuses the decompositions built here."""
    if not q.is_plain():
        return "brute", "the query has inequalities or negated atoms"
    plan = _plan(q)
    try:
        for part in plan.parts:
            part.tree()
        plan.tree()
    except BudgetError as e:
        return "brute", str(e)
    return "dp", None


def count(q, t, domains=None, method="auto"):
    """Number of answers of q on t, each vertex v kept in domains[v] when
    given.  method "dp" runs count_answers_dss, "brute" the homs search and
    "auto" the one pick_method names, falling back to brute force when a DP
    table passes TABLE_ROWS_CAP.  Under "dp" a passed budget raises
    BudgetError."""
    return count_and_method(q, t, domains, method)[0]


def count_and_method(q, t, domains=None, method="auto"):
    """count's value and the method that produced it: "dp" or "brute"."""
    if method == "auto":
        method, _ = pick_method(q, t)
        if method == "dp":
            try:
                return count_answers_dss(q, t, domains=domains), "dp"
            except BudgetError:
                method = "brute"
    if method == "dp":
        return count_answers_dss(q, t, domains=domains), "dp"
    if method == "brute":
        return homs.count_answers(q, t, domains), "brute"
    raise ValueError("unknown counting method %r" % (method,))
