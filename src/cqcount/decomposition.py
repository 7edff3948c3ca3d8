"""Exact treewidth, elimination trees, and the tree-decomposition based
counters: the all-free DP and the fast counter that splits off quantified
components and builds their extendability relations, or only counts the
relation of a component whose boundary is every free vertex.  The
decomposition is the elimination tree of an exact order, or of a min-fill
order past EXACT_TREEWIDTH_LIMIT vertices: each vertex's bag is the vertex
with its later neighbours, and the DP runs once per eliminated vertex.  A
component's DP keeps its boundary in the graph but never eliminates it, so
each table holds only the boundary columns that its vertex's atoms or fill
edges bring.  A component's DP asks only which boundary assignments
extend, so each vertex hands its parent a bitmask of the parent's values,
and the relation comes out as a bitmask index over one boundary column,
which the final DP reads as it is.
"""

from bisect import bisect
from collections.abc import Set
from functools import lru_cache

from . import homs
# BudgetError lives in model, so homs can raise it without an import cycle;
# callers also name it as dec.BudgetError
from .model import (BudgetError, Query, Signature, Structure,
                    gaifman_adjacency, index_pair, induced_substructure,
                    key_getter, partition, tuple_getter)

EXACT_TREEWIDTH_LIMIT = 20
# The most rows one DP table may hold while it is built.  A row carries up to
# an n-bit mask, so a table of boundary 2 on a dense target (about n**2 rows)
# would cost about n**3/8 bytes; past the cap dp_tables raises BudgetError
# and count, under "auto", counts on the brute search instead.
TABLE_ROWS_CAP = 2 ** 18


class TreeDecomposition:
    """An elimination forest.  order lists the vertices as they are
    eliminated and up[i] the later neighbours of order[i] at its
    elimination, sorted, so its bag is order[i] with up[i].  Its parent is
    the first-eliminated vertex of up[i]; a vertex whose up is empty is a
    root, one per connected piece.  children[i] lists the positions whose
    parent is i, ascending."""

    def __init__(self, order, up, width):
        self.order = list(order)
        self.up = [tuple(sorted(later)) for later in up]
        self.width = width
        # dp_tables' schedules over this tree, by (structure, keep), with
        # keep None for the count
        self.schedules = {}
        position = {v: i for i, v in enumerate(self.order)}
        self.children = [[] for _ in self.order]
        for i, later in enumerate(self.up):
            if later:
                self.children[min(map(position.get, later))].append(i)


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


def decompose_graph(g):
    """Tree-decompose an adjacency map over a vertex set by an elimination
    order: an exact one up to EXACT_TREEWIDTH_LIMIT vertices, where the
    subset DP still fits, and the min-fill heuristic's past it.  Returns
    (width, TreeDecomposition)."""
    adj, vertices = g
    order = (_elimination_width(adj, vertices)[1]
             if len(vertices) <= EXACT_TREEWIDTH_LIMIT else None)
    order, up = _eliminate(adj, vertices, order)
    width = max(map(len, up), default=-1)
    return width, TreeDecomposition(order, up, width)


class _Extends(Set):
    """The relation of a part, as dp_tables' existence table leaves it: the
    tuples of arity values whose value at position at is a member of
    index[key], for key the values at the other positions as key_getter
    reads them.  So index is already the one that _candidate_masks would
    build for position at, and len, iteration and membership are those of
    the frozenset of the tuples."""

    __slots__ = ("index", "at", "arity", "_key", "_len")

    def __init__(self, index, at, arity):
        self.index = index
        self.at = at
        self.arity = arity
        self._key = key_getter([i for i in range(arity) if i != at])
        self._len = None

    def __contains__(self, tup):
        if len(tup) != self.arity or not 0 <= tup[self.at]:
            return False
        return self.index.get(self._key(tup), 0) >> tup[self.at] & 1 == 1

    def __iter__(self):
        at, arity = self.at, self.arity
        for key, m in self.index.items():
            head = key if arity > 2 else (key,) if arity == 2 else ()
            for w, bit in enumerate(bin(m)[:1:-1]):
                if bit == "1":
                    yield head[:at] + (w,) + head[at:]

    def __len__(self):
        if self._len is None:
            self._len = sum(m.bit_count() for m in self.index.values())
        return self._len


def _candidate_masks(t, name, tup, v):
    """The (index, default) pair that dp_tables reads for an atom name(tup)
    of v (the format of Structure.masks), built when dp_tables finds none
    in t.masks under (name, positions of v) and memoized there, under that
    name only: the parts of one lead group share a relation object, and
    derived_free_query installs its index under each part's name, so only a
    column it did not install is indexed once per name.  A graph file that
    parser.parse_structure indexes, a clone, reflexive complement or star
    instance that model.clone_by_multiplicity, model.complement_structure
    or gadgets.star_instance derives from its source, and a part whose
    boundary swap fixes it (see derived_free_query) arrive with both single
    positions indexed.  A binary _Extends is indexed at its other position
    by transposing its own index; any other relation by model.index_pair."""
    at_v = tuple(i for i, u in enumerate(tup) if u == v)
    rel = t.relations[name]
    if len(at_v) > 1 or not isinstance(rel, _Extends) or rel.arity != 2:
        return index_pair(t, name, at_v)
    index = rel.index
    if rel.at != at_v[0]:
        index = {}
        for key, m in rel.index.items():
            bit = 1 << key
            while m:
                low = m & -m
                w = low.bit_length() - 1
                index[w] = index.get(w, 0) | bit
                m ^= low
        if index == rel.index:
            index = rel.index
    found = t.masks[name, at_v] = (index, 0)
    return found


def _schedule(structure, td, keep):
    """The target-free steps of one dp_tables job over td, in the order they
    run, kept in td.schedules under (structure, keep) and returned: with
    keep None the count's, else the existence table's over the sorted keep
    columns, which needs td to be one tree whose root's up+ is exactly keep
    and raises ValueError otherwise.  A table's columns are its vertices in
    sorted order.  A grow step grows the table on top of the stack (or a
    single empty row when fresh), with v carried when given: the count's is
    ("grow", fresh, v, carried, binds, sum_out), the existence table's
    ("grow", fresh, v, carried, binds, hand, reads), reading the reads
    tables below it as atoms of v.  ("join", kids, stages, out) joins the
    top kids tables.

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
    from the row before the bind, else None.  hand says what becomes of
    v's mask (see dp_tables): "bind" when the last bind is the vertex v
    hands its mask to, ("fold", column, key getter) when that vertex is
    already a column, and None at the root of a part without boundary.  A
    child table read as an atom of v is checked like one, under the mask
    key (its place among the tables read, positions of v).

    A join step's row is the first table's row followed, per later table,
    by that table's columns that the row lacks.  stages holds per later
    table (key getter on the row so far, the same key on that table's row,
    getter of its new columns, checks of the atoms that the stage completes
    and no single table holds); a join check is a check plus the row column
    of its vertex.  out is (kept, key): the row columns that stay, in
    sorted vertex order, and their getter.

    A count sum-out never stands alone: it folds into the step that leaves
    the summed table, so no table is keyed by a whole bag."""
    atoms_of = {}
    atoms = []
    for name, rel in structure.relations.items():
        for tup in rel:
            atoms.append((name, tup))
            for v in set(tup):
                atoms_of.setdefault(v, []).append((name, tup))
    kept = set(keep or ())
    parent = {c: p for p, kids in enumerate(td.children) for c in kids}
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
    if keep is not None and (len(roots) != 1 or set(plus[roots[0]]) != kept):
        raise ValueError("an existence table needs one tree whose root's "
                         "up+ is its keep %r" % (keep,))
    steps = []

    def bind_order(vertices):
        return sorted(vertices, key=lambda u: (u not in kept, u))

    def check(name, tup, v, cols):
        """The check of the atom name(tup) on v, keyed by the columns of its
        other vertices in cols.  A child's table read as an atom of v is
        named by its place among the tables that v's step reads, and keyed
        by a tuple, as the table's rows are."""
        columns = tuple(cols.index(u) for u in tup if u != v)
        mask_key = (name, tuple(i for i, u in enumerate(tup) if u == v))
        key = (tuple_getter if isinstance(name, int) else key_getter)(columns)
        return columns, key, mask_key, tup, v

    def checks(v, cols, last=None, read=()):
        """The checks of v's atoms, and of the child tables read, whose
        other vertices all lie in cols and, when last is given, include
        it."""
        found = {}
        for name, tup in atoms_of.get(v, []) + list(read):
            others = [u for u in tup if u != v]
            if all(u in cols for u in others) and (last is None
                                                   or last in others):
                made = check(name, tup, v, cols)
                found[made[0], made[2]] = made
        return list(found.values())

    def grow(fresh, cols, binds, v=None, hand=None, read=()):
        """Bind each vertex of binds in turn at its sorted column; with v,
        each row carries v's mask, checked also against the child tables
        read.  Returns the columns."""
        carried = [] if v is None else checks(v, cols, read=read)
        steps_of_binds = []
        for u in binds:
            own = checks(u, cols)
            at = bisect(cols, u)
            cols = cols[:at] + (u,) + cols[at:]
            # v's atoms that u completes: those keyed by u alone are read
            # once per candidate w of u, on a row holding w in every column;
            # the others once per row
            by_value, rest = [], []
            for check in ([] if v is None else checks(v, cols, u, read)):
                (by_value if set(check[0]) == {at} else rest).append(check)
            steps_of_binds.append((u, own, at, len(cols), by_value, rest))
        steps.append(("grow", fresh, v, carried, steps_of_binds)
                     + ((None,) if keep is None else (hand, len(read))))
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
            stages.append((key_getter([row.index(u) for u in shared]),
                           key_getter([cols.index(u) for u in shared]),
                           tuple_getter([cols.index(u) for u in extra]),
                           found))
        out = [row.index(u) for u in sorted(row)]
        steps.append(("join", len(parts), stages,
                      (tuple(out), tuple_getter(out))))
        return tuple(sorted(row))

    def sum_out(cols, v):
        """Fold the sum-out of v into the step that leaves the table over
        cols.  Returns the columns that stay."""
        at = cols.index(v)
        last = steps[-1]
        if last[0] == "join":
            _, kids, stages, (out, _) = last
            out = out[:at] + out[at + 1:]
            steps[-1] = ("join", kids, stages, (out, tuple_getter(out)))
        else:
            binds, folded = last[4:]
            _, _, bound_at, width, _, rest = binds[-1]
            out = list(folded[0] if folded else range(width))
            del out[at]
            collapsed = None
            if bound_at not in out and not rest:
                collapsed = tuple_getter([c - (c > bound_at) for c in out])
            steps[-1] = last[:5] + ((tuple(out), tuple_getter(out),
                                     collapsed),)
        return cols[:at] + cols[at + 1:]

    def next_sum_out(i):
        """The vertex whose sum-out folds into the step that leaves the
        table of the i-th eliminated vertex: its parent, when the parent
        has no other child and lacks no column of that table; else None."""
        p = parent.get(i)
        if p is not None and td.children[p] == [i] and \
                set(plus[i]) == set(plus[p]).union((td.order[p],)):
            return td.order[p]
        return None

    def count(i):
        """Count steps leaving the table of the i-th eliminated vertex,
        keyed by its up, on top of the stack.  Returns the columns."""
        v, kids = td.order[i], td.children[i]
        if not kids:
            return grow(True, (), plus[i], v)
        lack = sorted(u for u in plus[i] + (v,)
                      if all(u not in plus[c] for c in kids))
        # a lacked vertex that the next sum-out removes is bound last, so
        # that sum-out collapses; otherwise a single leaf child binds the
        # whole bag with v last, so v's sum-out collapses
        after = next_sum_out(i)
        if len(kids) == 1 and not td.children[kids[0]] and after not in lack:
            c = kids[0]
            first = [u for u in plus[c] if u != v]
            cols = grow(True, (), first + lack + [v], td.order[c])
        else:
            tables = [count(c) for c in kids]
            cols = join(tables) if len(tables) > 1 else tables[0]
            if lack:
                cols = grow(False, cols, sorted(lack,
                                                key=lambda u: u == after))
        return sum_out(cols, v)

    def hand(i, h=None):
        """Existence steps leaving the table of the i-th eliminated vertex
        v: v is carried over the AND of its children's masks and hands its
        own mask to h, its parent or, for the root of a part, a keep column
        (h is keep then); the table is keyed by v's up+ without h.  With h
        None, at the root of a part without boundary, v hands nothing.
        The children's tables keyed by one column or none are read as atoms
        of v, all but the first when they are all such; the others are
        joined.  Returns the key columns."""
        v = td.order[i]
        joined = [c for c in td.children[i] if len(plus[c]) > 2]
        narrow = [c for c in td.children[i] if len(plus[c]) <= 2]
        if narrow and not joined:
            joined.append(narrow.pop(0))
        read = [(j, hand(c, v) + (v,)) for j, c in enumerate(narrow)]
        tables = [hand(c, v) for c in joined]
        cols = join(tables) if len(tables) > 1 else tables[0] if tables else ()
        if h is keep:
            # a keep column that no child holds is bound last, not folded
            h = max(keep, key=lambda u: (u not in cols, u))
        binds = bind_order(u for u in plus[i] if u not in cols and u != h)
        if h is None:
            how = None
        elif h in cols:
            at = sorted(cols + tuple(binds)).index(h)
            how = ("fold", at, tuple_getter([c for c in range(len(cols)
                                                              + len(binds))
                                             if c != at]))
        else:
            binds.append(h)
            how = "bind"
        cols = grow(not tables, cols, binds, v, how, read)
        return tuple(u for u in cols if u != h)

    if keep is not None:
        hand(roots[0], keep or None)
    else:
        tables = [count(r) for r in roots]
        if len(tables) > 1:
            join(tables)
        elif not tables:
            grow(True, (), [])
    td.schedules[structure, keep] = steps
    return steps


def dp_tables(structure, target, td, keep=None, domains=None, size=False):
    """Run the DP over the elimination tree td, each vertex v kept in
    domains[v] when given, for one of two jobs.  With keep None it returns
    the number of homomorphisms of structure to target, td being a tree or
    forest of every vertex.  With keep it returns the Set of assignments of
    sorted(keep) that extend to td's vertices, or with size their number;
    td must be one tree whose root's up+ is exactly keep, as a part's is,
    else ValueError is raised.

    The plan is bucket elimination with keep never eliminated.  Each
    eliminated vertex v has a table keyed by its up+ in sorted order: its
    up plus the keep columns that its atoms or a fill edge bring.  An atom
    is checked where its last vertex enters a row, and an atom that a join
    completes and no single joined table holds is checked on the joined
    row.  A vertex's candidates are a bitmask over range(target.n): the AND
    of domains[v] (when given) and, per atom the vertex completes, the mask
    that the target's index for (symbol, positions of the vertex) holds
    under the atom's bound values (see _candidate_masks); a missing key
    means 0, or full for a Complement view's co-masks.  Each (key columns,
    index) pair is checked once per step, so the two orientations of an
    undirected edge cost one check.  A row is dropped as soon as the mask
    it carries is 0, so every table's keys are exactly the assignments that
    extend and an empty table ends the DP.  A table that passes
    TABLE_ROWS_CAP rows while it is built raises BudgetError; the size is
    checked once per row of the table below.

    In the count, v's table counts the extensions over v and the vertices
    below it.  A childless v is carried as a mask while its up is bound,
    each row holding a count and v's candidates, ANDed with each atom of v
    as it is completed; the last bind stores count times popcount, so v is
    never stored.  Otherwise the children's tables are joined on their
    shared columns, the bag vertices that no child holds are bound, and v's
    sum-out folds into that join or last bind; when that bind's own vertex
    is the one summed out, it collapses to cnt * popcount(candidates) per
    row.  A single childless child binds its parent's whole bag with the
    parent last, so the parent's sum-out collapses too: a row's candidates
    w become one count, the sum of cnt * popcount(mask & v's checks on w).
    So when v's parent is summed out in v's own step and v's children lack
    the parent, the parent is bound last there, and a single childless
    child keeps its own table rather than binding the bag.  The roots of a
    forest are joined at the top; a structure without vertices has one
    homomorphism.

    The existence table asks only which assignments extend, so every
    eliminated vertex is carried and hands its parent p a bitmask: v's
    table is keyed by its up+ without p, and each row holds the mask of p's
    values that some candidate of v left by the row reaches.  v's mask
    starts as its domain ANDed with its children's masks.  A child's table
    keyed by one column or none is read like an atom of v; the others, or
    the first child's when all are such, are joined on their shared
    columns, ANDing the masks.  The up+ columns that no joined child holds
    are bound, keep columns first, and p last.  That bind builds no row per
    candidate: it ORs the index of v's one binary atom with p over v's mask
    when the mask has fewer members than p has candidates, and otherwise
    tests each candidate of p; the result is ANDed with p's candidates and
    atoms on the row.  When p is a joined child's column, its value is
    folded into the row's mask instead.  The root hands its mask to a keep
    column the same way, one that no joined child holds when there is one,
    so the relation comes out as a dict from the other keep columns to a
    mask over that one, behind an _Extends view; size sums the popcounts
    without storing that table.  With keep empty the root hands nothing:
    the result is frozenset({()}) or empty.

    Everything above that the target does not decide (the steps, bind
    order, insertion and sum-out columns, join keys and each check's key
    getter and mask key) is the schedule of (structure, td, keep), built by
    _schedule once and kept in td.schedules, so it lives as long as the
    tree: the fast counter's trees live in its memoized plan.  A call
    resolves the checks against target.masks, computes each vertex's domain
    mask once and runs the steps.
    """
    counting = keep is None
    if not counting:
        keep = tuple(sorted(keep))
    steps = td.schedules.get((structure, keep))
    if steps is None:
        steps = _schedule(structure, td, keep)
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

    read = []  # the child tables that the running step reads as atoms

    def index_of(mask_key, tup, v):
        if isinstance(mask_key[0], int):
            return read[mask_key[0]], 0
        pair = masks.get(mask_key)
        return pair if pair is not None else _candidate_masks(
            target, mask_key[0], tup, v)

    def resolve(checks):
        """(key getter, index, default) per check, once per (key columns,
        index), building a missing index."""
        if not checks:
            return ()
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

    def per_value(candidates, width, by_key):
        """Per candidate w, the AND of the resolved indexes by_key at w."""
        found = [-1] * n
        for key, index, default in by_key:
            for w in members(candidates):
                found[w] &= index.get(key((w,) * width), default)
        return found

    def past_cap(table):
        return BudgetError("table rows", len(table), TABLE_ROWS_CAP,
                           "TABLE_ROWS_CAP")

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
            by_value = per_value(candidates, width, by_key)
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
                    continue
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
                    raise past_cap(out)
            rows = out
        return rows

    def carry(table, v, carried, binds, how, final):
        """An existence grow step: table's rows hold v's masks, and so do
        the returned rows, which hold the masks v hands on unless how is
        None.  With final, under size, the number of (row, value) pairs
        that the returned table would hold."""
        start = allowed.get(v, full)
        carried = resolve(carried)
        rows = {}
        for row, m in table.items():
            m &= start
            if m and carried:
                m = narrow(m, row, carried)
            if m:
                rows[row] = m
        for i, (u, own, at, width, by_key, rest) in enumerate(binds, 1):
            if how == "bind" and i == len(binds):
                return hand_off(rows, u, own, at, width, by_key, rest, final)
            candidates = allowed.get(u, full)
            own, rest = resolve(own), resolve(rest)
            by_value = per_value(candidates, width, resolve(by_key))
            out = {}
            for row, m in rows.items():
                mu = narrow(candidates, row, own) if own else candidates
                head, tail = row[:at], row[at:]
                for w in members(mu):
                    mv = m & by_value[w]
                    if mv:
                        new = head + (w,) + tail
                        if rest:
                            mv = narrow(mv, new, rest)
                        if mv:
                            out[new] = mv
                if len(out) > TABLE_ROWS_CAP:
                    raise past_cap(out)
            rows = out
        if final:
            return len(rows)
        if how is None:
            # the root hands nothing: its rows are the answer's keys
            return rows
        _, at, key = how
        out = {}
        for row in rows:
            new = key(row)
            out[new] = out.get(new, 0) | 1 << row[at]
        return out

    def hand_off(rows, u, own, at, width, by_key, rest, final):
        """The bind of the vertex u that the carried vertex hands its mask
        to: per row, the mask of u's candidates that some member of the
        row's mask reaches through their atoms, or with final their total
        popcount.  It ORs the index of one binary atom over the mask's
        members when they are fewer than u's candidates, and otherwise
        tests each candidate."""
        candidates = allowed.get(u, full)
        own, rest, found = resolve(own), resolve(rest), resolve(by_key)
        flip = by_value = None
        if not rest and len(found) == 1:
            # every check keyed by u alone reads one index, so the first
            # one's atom serves; its index at u is read by v's value
            _, _, (name, at_v), tup, _ = by_key[0]
            if isinstance(name, str) and len(tup) == 2 and len(at_v) == 1:
                flip = index_of((name, (1 - at_v[0],)), tup, u)
        out = {}
        total = 0
        for row, m in rows.items():
            mu = narrow(candidates, row, own) if own else candidates
            if not mu:
                continue
            if not (found or rest):
                reach = mu
            elif flip and m.bit_count() < mu.bit_count():
                # read one bit of m at a time, not by members(m): on a
                # dense target a few members cover mu
                index, default = flip
                miss = mu
                while m and miss:
                    low = m & -m
                    miss &= ~index.get(low.bit_length() - 1, default)
                    m ^= low
                reach = mu & ~miss
            else:
                if by_value is None:
                    by_value = per_value(candidates, width, found)
                reach = 0
                head, tail = row[:at], row[at:]
                for w in members(mu):
                    mv = m & by_value[w]
                    if mv and (not rest or
                               narrow(mv, head + (w,) + tail, rest)):
                        reach |= 1 << w
            if not reach:
                continue
            if final:
                total += reach.bit_count()
            else:
                out[row] = reach
        return total if final else out

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
                # counts multiply; masks of one carried vertex AND
                if counting:
                    partial = [(head + tail, c * more) for head, c in partial
                               for tail, more in index.get(key(head), ())]
                else:
                    partial = [(head + tail, m) for head, c in partial
                               for tail, more in index.get(key(head), ())
                               if (m := c & more)]
                for check, found, default, at in checks:
                    partial = [(new, c) for new, c in partial
                               if found.get(check(new), default) >> new[at]
                               & 1]
            for new, c in partial:
                new = out(new)
                result[new] = result.get(new, 0) + c if counting else c
            if len(result) > TABLE_ROWS_CAP:
                raise past_cap(result)
        return result

    stack = []
    for step in steps:
        if step[0] == "join":
            _, kids, stages, (_, out) = step
            tables = stack[-kids:]
            del stack[-kids:]
            stack.append(join(tables, stages, out))
        elif counting:
            _, fresh, v, carried, binds, sum_out = step
            table = {(): 1} if fresh else stack.pop()
            stack.append(grow(table, v, carried, binds, sum_out))
        else:
            _, fresh, v, carried, binds, how, reads = step
            table = {(): full} if fresh else stack.pop()
            read[:] = stack[len(stack) - reads:]
            del stack[len(stack) - reads:]
            final = size and step is steps[-1]
            stack.append(carry(table, v, carried, binds, how, final))
            if final:
                return stack.pop()
        if not stack[-1]:
            return 0 if counting or size else frozenset()
    table = stack.pop()
    if counting:
        return table.get((), 0)
    how = steps[-1][5]
    if how is None:
        return frozenset(table)
    at = steps[-1][4][-1][2] if how == "bind" else how[1]
    if len(keep) == 2:
        # key_getter reads a single column as a bare value
        table = {row[0]: m for row, m in table.items()}
    return _Extends(table, at, len(keep))


def count_homs_dp(structure, target, td, domains=None):
    """The number of homomorphisms of structure to target over the
    elimination tree td of all its vertices, each vertex v kept in
    domains[v] when given: dp_tables' count."""
    return dp_tables(structure, target, td, domains=domains)


class _Part:
    """One quantified component as the fast counter plans it: its vertices,
    its boundary (the free neighbors, sorted), the substructure induced on
    both, the local id of each vertex, and the local boundary, which are the
    DP's keep columns in boundary order (induced_substructure keeps the
    vertex order).  lead is the first part of the plan with an equal
    substructure and keep, itself if none: such parts are one component
    repeated (the y_i of poly_k), so they share the lead's substructure
    object, its elimination tree and the tree's schedule, and a count
    builds one table for all of them whose local domains agree.  symmetric
    is True when the part has two boundary vertices and swapping them, with
    every other vertex fixed, is an automorphism of the substructure, as
    for poly_k's y_i and subdivided_k's midpoints: its relation is then
    symmetric whenever the two boundary domains agree."""

    def __init__(self, q, adj, component, leads):
        self.vertices = component
        self.boundary = sorted(
            set().union(*(adj[v] for v in component)).intersection(q.free))
        self.sub, self.local = induced_substructure(q.structure,
                                                    component + self.boundary)
        self.keep = tuple(self.local[v] for v in self.boundary)
        self.lead = leads.setdefault((self.sub, self.keep), self)
        self.sub = self.lead.sub
        self.symmetric = False
        if len(self.keep) == 2:
            a, b = self.keep
            swap = {a: b, b: a}
            self.symmetric = all(
                rel == {tuple(swap.get(u, u) for u in tup) for tup in rel}
                for rel in self.sub.relations.values())
        self._td = None

    def tree(self):
        """An elimination tree of the component's own vertices, built on
        first use and shared with the lead."""
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

    def root_table(self, t, domains=None, size=False):
        """The Set of boundary assignments (in boundary order) that extend
        to the component, each vertex v of q kept in domains[v] when given:
        dp_tables' existence table over the component's tree, whose one
        root has the whole boundary as its up+, since the component is
        connected and every boundary vertex touches it.  It is an _Extends,
        a bitmask index over the boundary column that the root hands its
        mask to, or for a part without boundary frozenset({()}) or empty.
        With size, their number, summed without storing the last table.
        Raises BudgetError when a table passes TABLE_ROWS_CAP."""
        return dp_tables(self.sub, t, self.tree(), keep=self.keep,
                         domains=self.local_domains(domains), size=size)


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
    covering is the part when exactly one part has a boundary and that
    boundary is every free vertex: the part's substructure then holds every
    free-only atom, so its table checks them, and the answers are the
    relation's tuples.  Otherwise covering is None."""

    def __init__(self, q):
        adj = gaifman_adjacency(q.structure)
        leads = {}
        quantified = q.quantified()
        self.parts = [_Part(q, adj, component, leads)
                      for component in partition(quantified, [
                          (u, v) for u in quantified for v in adj[u]
                          if v not in q.free])]
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
        bounded = [part for part in self.parts if part.boundary]
        self.covering = None
        if len(bounded) == 1 and len(bounded[0].boundary) == len(free):
            self.covering = bounded[0]
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
    object.  A part's relation is its _Extends, whose index is installed in
    the target's memo as the final DP's index at the column it covers, and
    at the other column too when the part is symmetric and its two boundary
    vertices' domains agree (or both are None), so the relation is then
    indexed once for both columns; the final DP indexes a part's relation
    again only at a column not installed.  Returns (query, target) or None
    when some boundary-free component is unsatisfiable."""
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
            rel = part.root_table(t, domains)
            made.append((local, rel))
        if name is None:
            if not rel:
                return None
            continue
        rels_t[name] = rel
    dt = Structure._trusted(plan.query.structure.signature, t.n, rels_t)
    # only the fresh relations are indexed per count, and only in dt's memo;
    # a part's _Extends is its own index at the column it hands its mask to
    dt.masks.update(item for item in t.masks.items() if item[0][0] in passed)
    for part, name in zip(plan.parts, plan.names):
        rel = rels_t.get(name)
        if not isinstance(rel, _Extends):
            continue
        pair = dt.masks[name, (rel.at,)] = (rel.index, 0)
        if part.symmetric and (domains is None or domains.get(
                part.boundary[0]) == domains.get(part.boundary[1])):
            dt.masks[name, (1 - rel.at,)] = pair
    return plan.query, dt


def count_answers_dss(q, t, domains=None):
    """The fast counter: component extendability relations plus a DP over a
    decomposition of the contracted free-only query, each vertex v kept in
    domains[v] when given.  When the plan has a covering part, the answers
    are its relation's tuples (the free vertices' domains already narrowed
    its boundary columns), so the count is their number, the popcounts of
    its masks summed without storing them (see dp_tables), or 0 when a
    boundary-free part does not extend; no derived query or final DP is
    built."""
    if not q.is_plain():
        raise ValueError("plain CQs only")
    plan = _plan(q)
    part = plan.covering
    if part is not None:
        if not all(p.root_table(t, domains) for p in plan.parts
                   if not p.boundary):
            return 0
        return part.root_table(t, domains, size=True)
    derived = derived_free_query(q, t, domains=domains)
    if derived is None:
        return 0
    dq, dt = derived
    free_domains = None if domains is None else {
        i: domains.get(v) for v, i in plan.index.items()}
    return count_homs_dp(dq.structure, dt, plan.tree(), domains=free_domains)


def count(q, t, domains=None, method="auto"):
    """Number of answers of q on t, each vertex v kept in domains[v] when
    given.  method "dp" runs count_answers_dss, "brute" the homs search and
    "auto" the DP for a plain query and the search otherwise, also once a
    table the DP stores passes TABLE_ROWS_CAP.  Under "dp" that raises
    BudgetError.  A domain value that is not a vertex of t raises
    ValueError, under every method."""
    return count_and_method(q, t, domains, method)[0]


def count_and_method(q, t, domains=None, method="auto"):
    """count's value and the method that produced it: "dp" or "brute"."""
    for v, domain in (domains or {}).items():
        if domain and (min(domain) < 0 or max(domain) >= t.n):
            w = next(w for w in domain if not 0 <= w < t.n)
            raise ValueError("the domain of vertex %r holds %r, not a vertex "
                             "of the %d-vertex target" % (v, w, t.n))
    if method == "auto":
        if q.is_plain():
            try:
                return count_answers_dss(q, t, domains=domains), "dp"
            except BudgetError:
                pass
        method = "brute"
    if method == "dp":
        return count_answers_dss(q, t, domains=domains), "dp"
    if method == "brute":
        return homs.count_answers(q, t, domains), "brute"
    raise ValueError("unknown counting method %r" % (method,))
