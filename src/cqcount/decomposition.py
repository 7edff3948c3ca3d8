"""Exact treewidth, elimination trees, and the tree-decomposition based
counters: the all-free DP and the fast counter that splits off quantified
components and materializes their extendability relations.  The
decomposition is the elimination tree of an exact or min-fill order: each
vertex's bag is the vertex with its later neighbours, and the DP runs once
per eliminated vertex.  A component's DP keeps its boundary in the graph
but never eliminates it, so each table holds only the boundary columns
that its vertex's atoms or fill edges bring.
"""

from bisect import bisect
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
    """An elimination tree.  order lists the vertices as they are eliminated
    and up[i] the later neighbours of order[i] at its elimination, sorted,
    so its bag is order[i] with up[i].  Its parent is the first-eliminated
    vertex of up[i], or the next position when up[i] is empty, which chains
    disconnected pieces; children[i] lists the positions whose parent is i,
    ascending.  The last vertex is the root."""

    def __init__(self, order, up, width):
        self.order = list(order)
        self.up = [tuple(sorted(later)) for later in up]
        self.width = width
        # dp_tables' schedules over this tree, by (structure, keep)
        self.schedules = {}
        position = {v: i for i, v in enumerate(self.order)}
        self.children = [[] for _ in self.order]
        for i, later in enumerate(self.up[:-1]):
            parent = min(map(position.get, later)) if later else i + 1
            self.children[parent].append(i)


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


def _eliminate(adj, vertices, order=None):
    """Eliminate the vertices one at a time, in the given order or else the
    vertex of least fill first (then fewest neighbours, then the smallest),
    joining each one's later neighbours into a clique.  Returns the order
    and each vertex's later neighbours, sorted."""
    among = set(vertices)
    work = {v: adj[v] & among for v in vertices}

    def fill(v):
        nbrs = list(work[v])
        return (sum(b not in work[a] for i, a in enumerate(nbrs)
                    for b in nbrs[i + 1:]), len(nbrs), v)

    eliminated, up = [], []
    while work:
        v = order[len(eliminated)] if order else min(work, key=fill)
        nbrs = work.pop(v)
        for a in nbrs:
            work[a] |= nbrs
            work[a] -= {a, v}
        eliminated.append(v)
        up.append(tuple(sorted(nbrs)))
    return eliminated, up


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
    order = _elimination_width(adj, vertices)[1] if exact else None
    order, up = _eliminate(adj, vertices, order)
    width = max(map(len, up), default=-1)
    return width, TreeDecomposition(order, up, width)


def exact_treewidth(g):
    """Exact treewidth of a graph-mode structure with an elimination tree of
    that width."""
    return decompose_graph((gaifman_adjacency(g), list(g.vertices())))


def _key_getter(positions):
    return itemgetter(*positions) if positions else (lambda row: ())


def _row_getter(positions):
    """The tuple of a row's values at positions, a tuple even for one."""
    if len(positions) == 1:
        at, = positions
        return lambda row: (row[at],)
    return _key_getter(positions)


def _candidate_masks(t, name, tup, v):
    """The (index, default) pair that dp_tables reads for an atom name(tup)
    of v, built on first use and memoized in t.masks under (name, positions
    of v) and shared by every name of t over the same relation object, as
    the parts of one lead group are.  A Complement view is indexed from its
    present tuples as co-masks.  A symmetric binary relation indexes alike
    at both positions: when the second position is first asked for, the
    relation is tested for symmetry once and, if it holds, the key shares
    the first one's object."""
    at_v = tuple(i for i, u in enumerate(tup) if u == v)
    found = t.masks.get((name, at_v))
    if found is not None:
        return found
    rel = t.relations[name]
    # the parts of one lead group share one relation object under several
    # names, so an index is looked up by that object
    built = {at: pair for (other, at), pair in t.masks.items()
             if t.relations[other] is rel}
    found = built.get(at_v)
    if found is None:
        co = isinstance(rel, Complement)
        facts = rel.present if co else rel
        first, single = at_v[0], len(at_v) == 1
        twin = built.get((1 - first,)) if single and len(tup) == 2 else None
        if twin is not None and facts.issuperset(map(itemgetter(1, 0),
                                                     facts)):
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


def _schedule(structure, td, keep):
    """The target-free steps of dp_tables over td with the sorted keep
    columns, in the order they run.  A table's columns are its vertices in
    sorted order.  ("grow", fresh, v, carried, binds, sum_out) grows the
    table on top of the stack (or {(): 1} when fresh), with v carried when
    given; ("join", kids, stages, out) joins the top kids tables.

    A grow step lists v's checks on the incoming columns and, per bound
    vertex u, (u, u's checks, its insertion column, the row width after it,
    v's checks keyed by u alone, v's other checks that u completes).  A
    check is (columns, key getter, mask key, atom, vertex): the mask key
    (symbol, positions of the vertex) names the target index that
    _candidate_masks builds for the atom; checks that share columns and a
    mask key are listed once.  sum_out is None or (kept, key, collapsed):
    the columns of the last bind's row that stay, the getter of those
    columns from that row, and, when the last bind's own column is summed
    out and no check of v needs the new row, the getter of the same columns
    from the row before the bind, else None.

    A join step's row is the first table's row followed, per later table,
    by that table's columns that the row lacks.  stages holds per later
    table (key getter on the row so far, the same key on that table's row,
    getter of its new columns, checks of the atoms that the stage completes
    and no single table holds); a join check is a check plus the row column
    of its vertex.  out is (kept, key): the row columns that stay, in
    sorted vertex order, and their getter.

    A sum-out never stands alone: it folds into the step that leaves the
    summed table, so no table is keyed by a whole bag."""
    atoms_of = {}
    atoms = []
    for name, rel in structure.relations.items():
        for tup in rel:
            atoms.append((name, tup))
            for v in set(tup):
                atoms_of.setdefault(v, []).append((name, tup))
    kept = set(keep)
    # a vertex with an empty up roots its own tree of the forest
    below = [[c for c in kids if td.up[c]] for kids in td.children]
    parent = {c: p for p, kids in enumerate(below) for c in kids}
    roots = [i for i, up in enumerate(td.up) if not up]
    # up+ of each vertex: its later neighbours once keep joins the graph and
    # is never eliminated, which adds to up the keep neighbours of the
    # vertex and of every vertex below it
    near = [set() for _ in td.order]
    plus = []
    for i, v in enumerate(td.order):
        near[i].update(u for _, tup in atoms_of.get(v, ()) for u in tup
                       if u in kept)
        plus.append(tuple(sorted(near[i].union(td.up[i]))))
        if i in parent:
            near[parent[i]] |= near[i]
    steps = []

    def bind_order(vertices):
        return sorted(vertices, key=lambda u: (u not in kept, u))

    def check(name, tup, v, cols):
        """The check of the atom name(tup) on v, keyed by the columns of its
        other vertices in cols."""
        columns = tuple(cols.index(u) for u in tup if u != v)
        mask_key = (name, tuple(i for i, u in enumerate(tup) if u == v))
        return columns, _key_getter(columns), mask_key, tup, v

    def checks(v, cols, last=None):
        """The checks of v's atoms whose other vertices all lie in cols and,
        when last is given, include it."""
        found = {}
        for name, tup in atoms_of.get(v, ()):
            others = [u for u in tup if u != v]
            if all(u in cols for u in others) and (last is None
                                                   or last in others):
                made = check(name, tup, v, cols)
                found[made[0], made[2]] = made
        return list(found.values())

    def grow(fresh, cols, binds, v=None):
        """Bind each vertex of binds in turn at its sorted column; with v,
        each row carries v's mask and v is summed out.  Returns the
        columns."""
        carried = [] if v is None else checks(v, cols)
        steps_of_binds = []
        for u in binds:
            own = checks(u, cols)
            at = bisect(cols, u)
            cols = cols[:at] + (u,) + cols[at:]
            # v's atoms that u completes: those keyed by u alone are read
            # once per candidate w of u, on a row holding w in every column;
            # the others once per row
            by_value, rest = [], []
            for check in ([] if v is None else checks(v, cols, u)):
                (by_value if set(check[0]) == {at} else rest).append(check)
            steps_of_binds.append((u, own, at, len(cols), by_value, rest))
        steps.append(("grow", fresh, v, carried, steps_of_binds, None))
        return cols

    def join(parts):
        """Join the tables over the column tuples parts, the last on top of
        the stack.  Returns the columns."""
        row = parts[0]
        stages = []
        for cols in parts[1:]:
            shared = [u for u in cols if u in row]
            extra = [u for u in cols if u not in row]
            before, row = set(row), row + tuple(extra)
            found = []
            for name, tup in atoms:
                within = set(tup)
                if (within.issubset(row) and not within <= before
                        and not within <= set(cols)):
                    found.append(check(name, tup, tup[0], row)
                                 + (row.index(tup[0]),))
            stages.append((_key_getter([row.index(u) for u in shared]),
                           _key_getter([cols.index(u) for u in shared]),
                           _row_getter([cols.index(u) for u in extra]),
                           found))
        out = [row.index(u) for u in sorted(row)]
        steps.append(("join", len(parts), stages,
                      (tuple(out), _row_getter(out))))
        return tuple(sorted(row))

    def sum_out(cols, v):
        """Fold the sum-out of v into the step that leaves the table over
        cols.  Returns the columns that stay."""
        at = cols.index(v)
        last = steps[-1]
        if last[0] == "join":
            _, kids, stages, (out, _) = last
            out = out[:at] + out[at + 1:]
            steps[-1] = ("join", kids, stages, (out, _row_getter(out)))
        else:
            _, fresh, carried_v, carried, binds, folded = last
            _, _, bound_at, width, _, rest = binds[-1]
            out = list(folded[0] if folded else range(width))
            del out[at]
            collapsed = None
            if bound_at not in out and not rest:
                collapsed = _row_getter([c - (c > bound_at) for c in out])
            steps[-1] = ("grow", fresh, carried_v, carried, binds,
                         (tuple(out), _row_getter(out), collapsed))
        return cols[:at] + cols[at + 1:]

    def next_sum_out(i):
        """The vertex whose sum-out folds into the step that leaves the
        table of the i-th eliminated vertex: its parent, when the parent
        has no other child and lacks no column of that table; else None."""
        p = parent.get(i)
        if p is not None and below[p] == [i] and \
                set(plus[i]) == set(plus[p]).union((td.order[p],)):
            return td.order[p]
        return None

    def build(i):
        """Steps leaving the table of the i-th eliminated vertex, keyed by
        its up+, on top of the stack, or with i None the root table over
        keep.  Returns the columns."""
        if i is None:
            v, kids, bag = None, roots, keep
        else:
            v, kids = td.order[i], below[i]
            bag = tuple(sorted(plus[i] + (v,)))
        if not kids:
            return grow(True, (), bind_order(u for u in bag if u != v), v)
        lack = bind_order(u for u in bag
                          if all(u not in plus[c] for c in kids))
        # a lacked vertex that the next sum-out removes is bound last, so
        # that sum-out collapses; otherwise a single leaf child binds the
        # whole bag with v last, so v's sum-out collapses
        after = None if i is None else next_sum_out(i)
        if len(kids) == 1 and not below[kids[0]] and after not in lack:
            c = kids[0]
            first = [u for u in bind_order(plus[c]) if u != v]
            last = [] if v is None else [v]
            cols = grow(True, (), first + lack + last, td.order[c])
        else:
            tables = [build(c) for c in kids]
            cols = join(tables) if len(tables) > 1 else tables[0]
            if lack:
                cols = grow(False, cols, sorted(lack,
                                                key=lambda u: u == after))
        return cols if v is None else sum_out(cols, v)

    build(None)
    return steps


def dp_tables(structure, target, td, keep=(), domains=None):
    """Run the counting DP over an elimination tree of the non-keep vertices;
    the returned root table maps assignments of sorted(keep) to the number
    of homomorphisms of the remaining vertices consistent with that boundary
    assignment.

    The plan is bucket elimination over the tree's vertices together with
    keep, where keep is never eliminated.  Each eliminated vertex v has a
    table keyed by its up+ in sorted order: its later neighbours once keep
    joins the graph, which are its up plus the keep columns that its atoms
    or a fill edge bring.  It counts the extensions over v and the vertices
    below it.  A childless v binds up+, keep columns first, one vertex at a
    time.  Otherwise the children's tables are joined on their shared
    columns, the bag vertices that no child holds are bound, and v is
    summed out.  A vertex whose up is empty roots a tree of the forest; at
    the top the roots' tables are joined and the keep columns that none of
    them holds are bound.  An atom is checked where its last vertex enters
    a row, and an atom that a join completes and no single joined table
    holds is checked on the joined row.  A vertex's candidates are a
    bitmask over range(target.n): the AND of domains[v] (when given) and,
    per atom the vertex completes, the mask that the target's index for
    (symbol, positions of the vertex) holds under the atom's bound values
    (see _candidate_masks); a missing key means 0, or full for a Complement
    view's co-masks.  Each (key columns, index) pair is checked once per
    step, so the two orientations of an undirected edge cost one check.

    A childless v is carried as a mask: each row holds a count and v's
    candidates.  The mask starts as v's domain ANDed with v's atoms already
    bound, loops included; each vertex bound after that ANDs in the atoms
    of v it completes, and a row is dropped as soon as its mask is 0.  The
    last bind stores each row's count times the popcount of its mask, so v
    is never stored and the rows follow the prefixes that can still extend.
    A single childless child binds its parent's whole bag with the parent
    bound last, so the parent's sum-out collapses: a row's candidates w
    become one count, the sum of cnt * popcount(mask & v's checks on w),
    with no row built per candidate.  Every other sum-out is folded into
    the join or the last bind that leaves the table, which adds each row's
    count under its key without the summed column; when that bind's own
    vertex is the one summed out, it collapses to cnt * popcount(candidates)
    per row.  So when v's parent is summed out in v's own step and v's
    children lack the parent, the parent is bound last there, and a single
    childless child keeps its own table rather than binding the bag.  The
    keys of every table, the root's included, are exactly the assignments
    that extend, so an empty table ends the DP with {}.  A table that passes
    TABLE_ROWS_CAP rows while it is built raises BudgetError; the size is
    checked once per row of the table below.

    Everything above that the target does not decide (the steps, bind
    order, insertion and sum-out columns, join keys and each check's key
    getter and mask key) is the schedule of (structure, td, keep), built by
    _schedule once and kept in td.schedules, so it lives as long as the
    tree: the fast counter's trees live in its memoized plan.  A call
    resolves the checks against target.masks, computes each vertex's
    domain mask once and runs the steps.
    """
    keep = tuple(sorted(keep))
    steps = td.schedules.get((structure, keep))
    if steps is None:
        steps = td.schedules[structure, keep] = _schedule(structure, td, keep)
    n, masks = target.n, target.masks
    full = (1 << n) - 1
    allowed = {} if domains is None else {
        v: sum(1 << w for w in set(domain))
        for v, domain in domains.items() if domain is not None}
    bits = {}

    def members(m):
        found = bits.get(m)
        if found is None:
            found = bits[m] = [w for w, bit in enumerate(bin(m)[:1:-1])
                               if bit == "1"]
        return found

    def index_of(mask_key, tup, v):
        pair = masks.get(mask_key)
        return pair if pair is not None else _candidate_masks(
            target, mask_key[0], tup, v)

    def resolve(checks):
        """(key getter, index, default) per check, once per (key columns,
        index), building a missing index."""
        found = {}
        for columns, key, mask_key, tup, v in checks:
            pair = index_of(mask_key, tup, v)
            found[columns, id(pair[0])] = (key,) + pair
        return found.values()

    def narrow(m, row, found):
        for key, index, default in found:
            m &= index.get(key(row), default)
            if not m:
                break
        return m

    def grow(table, v, carried, binds, sum_out):
        start = 1 if v is None else allowed.get(v, full)
        carried = resolve(carried)
        rows = {}
        for row, cnt in table.items():
            m = narrow(start, row, carried)
            if m:
                rows[row] = (cnt, m) if binds else cnt * m.bit_count()
        summed, collapsed = sum_out[1:] if sum_out else (None, None)
        for i, (u, own, at, width, by_key, rest) in enumerate(binds, 1):
            last = i == len(binds)
            own, rest, by_key = resolve(own), resolve(rest), resolve(by_key)
            candidates = allowed.get(u, full)
            by_value = [-1] * n
            for key, index, default in by_key:
                for w in members(candidates):
                    by_value[w] &= index.get(key((w,) * width), default)
            out = {}
            for row, (cnt, m) in rows.items():
                mu = narrow(candidates, row, own)
                if not mu:
                    continue
                if last and collapsed:
                    # every candidate lands on one key: count, build no row
                    if by_key:
                        cnt *= sum((m & by_value[w]).bit_count()
                                   for w in members(mu))
                    else:
                        cnt *= m.bit_count() * mu.bit_count()
                    if cnt:
                        row = collapsed(row)
                        out[row] = out.get(row, 0) + cnt
                else:
                    head, tail = row[:at], row[at:]
                    for w in members(mu):
                        mv = m & by_value[w]
                        if not mv:
                            continue
                        new = head + (w,) + tail
                        for key, index, default in rest:
                            mv &= index.get(key(new), default)
                            if not mv:
                                break
                        if not mv:
                            continue
                        if not last:
                            out[new] = (cnt, mv)
                        elif summed:
                            new = summed(new)
                            out[new] = out.get(new, 0) + cnt * mv.bit_count()
                        else:
                            out[new] = cnt * mv.bit_count()
                if len(out) > TABLE_ROWS_CAP:
                    raise BudgetError("table rows", len(out), TABLE_ROWS_CAP,
                                      "TABLE_ROWS_CAP")
            rows = out
        return rows

    def join(tables, stages, out):
        probes = []
        for table, (key, own_key, extra, checks) in zip(tables[1:], stages):
            index = {}
            for row, cnt in table.items():
                index.setdefault(own_key(row), []).append((extra(row), cnt))
            probes.append((key, index, [
                (check,) + index_of(mask_key, tup, u) + (at,)
                for _, check, mask_key, tup, u, at in checks]))
        result = {}
        for row, cnt in tables[0].items():
            partial = [(row, cnt)]
            for key, index, checks in probes:
                partial = [(head + tail, c * more) for head, c in partial
                           for tail, more in index.get(key(head), ())]
                for check, found, default, at in checks:
                    partial = [(new, c) for new, c in partial
                               if found.get(check(new), default) >> new[at]
                               & 1]
            for new, c in partial:
                new = out(new)
                result[new] = result.get(new, 0) + c
            if len(result) > TABLE_ROWS_CAP:
                raise BudgetError("table rows", len(result), TABLE_ROWS_CAP,
                                  "TABLE_ROWS_CAP")
        return result

    stack = []
    for step in steps:
        if step[0] == "join":
            _, kids, stages, (_, out) = step
            tables = stack[-kids:]
            del stack[-kids:]
            stack.append(join(tables, stages, out))
        else:
            _, fresh, v, carried, binds, sum_out = step
            table = {(): 1} if fresh else stack.pop()
            stack.append(grow(table, v, carried, binds, sum_out))
        if not stack[-1]:
            return {}
    return stack.pop()


def count_homs_dp(structure, target, td, domains=None):
    return dp_tables(structure, target, td, domains=domains).get((), 0)


class _Part:
    """One quantified component as the fast counter plans it: its vertices,
    its boundary (the free neighbors, sorted), the substructure induced on
    both, the local id of each vertex, and the local boundary, which are the
    DP's keep columns in boundary order (induced_substructure keeps the
    vertex order).  lead is the first part of the plan with an equal
    substructure and keep, itself if none: such parts are one component
    repeated (the y_i of poly_k), so they share the lead's substructure
    object, its elimination tree and the tree's schedule, and a count
    builds one table for all of them whose local domains agree."""

    def __init__(self, q, adj, component, leads):
        self.vertices = component
        self.boundary = sorted(
            set().union(*(adj[v] for v in component)).intersection(q.free))
        self.sub, self.local = induced_substructure(q.structure,
                                                    component + self.boundary)
        self.keep = tuple(self.local[v] for v in self.boundary)
        self.lead = leads.setdefault((self.sub, self.keep), self)
        self.sub = self.lead.sub
        self._td = None

    def tree(self):
        """An elimination tree of the component's own vertices, built on
        first use and shared with the lead.  Raises BudgetError, before
        decomposing, when the boundary exceeds DSS_CAP."""
        if len(self.boundary) > DSS_CAP:
            raise BudgetError("dss", len(self.boundary), DSS_CAP, "DSS_CAP")
        if self.lead is not self:
            return self.lead.tree()
        if self._td is None:
            vertices = [self.local[v] for v in self.vertices]
            _, self._td = decompose_graph((gaifman_adjacency(self.sub),
                                           vertices))
        return self._td

    def local_domains(self, domains):
        """domains, given per vertex of q, restricted to the part and keyed
        by local id; None for None."""
        return None if domains is None else {
            self.local[v]: d for v, d in domains.items() if v in self.local}

    def root_table(self, t, domains=None):
        """The map from boundary assignments (keys in boundary order) to
        extension counts, each vertex v of q kept in domains[v] when given.
        Raises BudgetError when the boundary exceeds DSS_CAP."""
        return dp_tables(self.sub, t, self.tree(), keep=self.keep,
                         domains=self.local_domains(domains))


class _Plan:
    """Everything the fast counter takes from the query alone: the parts,
    one per quantified component ordered by smallest vertex, and the derived
    free-only query, which keeps the free-only atoms and gives each part
    with a boundary a fresh symbol over it (names[i], None for a
    boundary-free part).  index maps a free vertex to its derived id.  The
    derived query's Gaifman graph is the contract of q (Chen and Mengel,
    ICDT 2015), so params reads the contract and the boundaries from here.
    The plan owns the target-free half of every DP it runs: the derived
    query's tree and each lead part's tree keep their schedules (see
    dp_tables), so they live and go with the plan in _plan's cache.  Parts
    that share a lead share one table per count (see derived_free_query).
    covering names the derived symbol when exactly one part has a boundary
    and that boundary is every free vertex: the part's substructure then
    holds every free-only atom, so its table checks them, and the answers
    are the relation's keys.  Otherwise covering is None."""

    def __init__(self, q):
        adj = gaifman_adjacency(q.structure)
        leads = {}
        self.parts = [_Part(q, adj, component, leads)
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
        bounded = [(part, name) for part, name in zip(self.parts, self.names)
                   if name is not None]
        self.covering = None
        if len(bounded) == 1 and len(bounded[0][0].boundary) == len(free):
            self.covering = bounded[0][1]
        self._td = None

    def tree(self):
        """An elimination tree of the derived query, built on first use."""
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
    given.  Parts with one lead whose local domains agree, as they always
    do when domains is None, get one table built once and one relation
    object.  Returns (query, target) or None when some boundary-free
    component is unsatisfiable."""
    if not q.is_plain():
        raise ValueError("plain CQs only")
    plan = _plan(q)
    passed = q.structure.signature.arity
    rels_t = {name: t.relations[name] for name in passed}
    built = {}  # lead part -> [(local domains, relation)]
    for part, name in zip(plan.parts, plan.names):
        local = part.local_domains(domains)
        made = built.setdefault(part.lead, [])
        rel = next((rel for other, rel in made if other == local), None)
        if rel is None:
            rel = frozenset(part.root_table(t, domains))
            made.append((local, rel))
        if name is None:
            if not rel:
                return None
            continue
        rels_t[name] = rel
    dt = Structure._trusted(plan.query.structure.signature, t.n, rels_t)
    # only the fresh relations are indexed per count, and only in dt's memo
    dt.masks.update(item for item in t.masks.items() if item[0][0] in passed)
    return plan.query, dt


def count_answers_dss(q, t, domains=None):
    """The fast counter: component extendability relations plus a DP over a
    decomposition of the contracted free-only query, each vertex v kept in
    domains[v] when given.  When the plan has a covering part the count is
    the size of its relation, whose keys are the answers (the free
    vertices' domains already narrowed its boundary columns), and no final
    DP runs."""
    derived = derived_free_query(q, t, domains=domains)
    if derived is None:
        return 0
    dq, dt = derived
    plan = _plan(q)
    if plan.covering:
        return len(dt.relations[plan.covering])
    free_domains = None if domains is None else {
        i: domains.get(v) for v, i in plan.index.items()}
    return count_homs_dp(dq.structure, dt, plan.tree(), domains=free_domains)


def pick_method(q):
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
        method, _ = pick_method(q)
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
