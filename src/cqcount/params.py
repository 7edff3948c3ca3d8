"""Structural parameters of queries (contract, dominating star size, linked
matching number) and the advisory five-regime classifier.
"""

from itertools import combinations

from .model import gaifman_adjacency, gaifman_graph, induced_substructure
from . import decomposition as dec
from . import homs

LMN_CAP = 16

REGIME_P = "P"
REGIME_W1 = "W[1]-eq."
REGIME_SHARP_W1 = "#W[1]-eq."
REGIME_SHARP_W2 = "#W[2]-hard"
REGIME_SHARP_A2 = "#A[2]-eq."


class ParameterReport:
    def __init__(self, tw, tw_contract, dss, lmn, components, exact, notes):
        self.tw = tw
        self.tw_contract = tw_contract
        self.dss = dss
        self.lmn = lmn
        self.components = components
        self.exact = exact
        self.notes = notes

    def __repr__(self):
        return ("ParameterReport(tw=%r, tw_contract=%r, dss=%r, lmn=%r)"
                % (self.tw, self.tw_contract, self.dss, self.lmn))


def contract_graph(q):
    """Graph on the free vertices: u,v adjacent when they share a Gaifman edge
    or some quantified component is adjacent to both.  Vertices are renumbered
    by position in q.free.  This is the Gaifman graph of the fast counter's
    derived free-only query, which has one atom per component boundary."""
    return gaifman_graph(dec._plan(q).query.structure)


def dominating_star_size(q):
    """Largest number of free neighbors of a single quantified component."""
    return max((len(part.boundary) for part in dec._plan(q).parts), default=0)


def _max_vertex_disjoint_paths(adj, vertices, sources, sinks):
    """Menger via unit-capacity max flow on the node-split digraph."""
    # node v splits into ("in", v) -> ("out", v); edges go out -> in
    cap = {}

    def add(a, b):
        cap[(a, b)] = cap.get((a, b), 0) + 1
        cap.setdefault((b, a), 0)

    for v in vertices:
        add(("in", v), ("out", v))
    for v in vertices:
        for w in adj.get(v, ()):
            if w in vertices:
                add(("out", v), ("in", w))
    source, sink = ("s", None), ("t", None)
    for v in sources:
        add(source, ("in", v))
    for v in sinks:
        add(("out", v), sink)

    succ = {}
    for (a, b) in cap:
        succ.setdefault(a, []).append(b)
    flow = 0
    while True:
        # BFS for an augmenting path
        prev = {source: None}
        queue = [source]
        while queue and sink not in prev:
            a = queue.pop(0)
            for b in succ.get(a, ()):
                if b not in prev and cap.get((a, b), 0) > 0:
                    prev[b] = a
                    queue.append(b)
        if sink not in prev:
            return flow
        b = sink
        while prev[b] is not None:
            a = prev[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1


def is_node_well_linked(g, s):
    """True when every two disjoint equal-size subsets of s are joined by that
    many fully vertex-disjoint paths."""
    s = sorted(set(s))
    if len(s) <= 1:
        return True
    adj = gaifman_adjacency(g)
    vertices = set(g.vertices())
    for size in range(1, len(s) // 2 + 1):
        for a in combinations(s, size):
            rest = [v for v in s if v not in a]
            for b in combinations(rest, size):
                if b < a:
                    continue  # flow is symmetric in A and B
                if _max_vertex_disjoint_paths(adj, vertices, a, b) < size:
                    return False
    return True


def linked_matching_number(q):
    """Largest X-to-Y matching whose quantified endpoints are node-well-linked
    within the quantified part of the Gaifman graph.  Raises BudgetError when
    the quantified part exceeds LMN_CAP vertices, since the search runs over
    its subsets."""
    y = sorted(q.quantified())
    x = set(q.free)
    if not y or not x:
        return 0
    if len(y) > LMN_CAP:
        raise dec.BudgetError("quantified vertices", len(y), LMN_CAP,
                              "LMN_CAP")
    adj = gaifman_adjacency(q.structure)
    hy, old_to_new = induced_substructure(q.structure, y)
    x_nbrs = {v: sorted(adj[v] & x) for v in y}
    for size in range(min(len(x), len(y)), 0, -1):
        for s in combinations(y, size):
            # a matching saturates s when |s| vertex-disjoint one-edge
            # paths lead from s into x
            if _max_vertex_disjoint_paths(x_nbrs, x | set(s), s, x) < size:
                continue
            if is_node_well_linked(hy, [old_to_new[v] for v in s]):
                return size
    return 0


def analyze(q):
    """Compute every structural parameter of one query."""
    exact = {"tw": True, "tw_contract": True, "lmn": True}
    notes = []

    def treewidth(g, key, note):
        """Exact up to the exact treewidth limit, past it a heuristic upper
        bound and a note."""
        if g.n > dec.EXACT_TREEWIDTH_LIMIT:
            exact[key] = False
            notes.append(note)
        return dec.decompose_graph((gaifman_adjacency(g),
                                    list(g.vertices())))[0]

    tw = treewidth(gaifman_graph(q.structure), "tw",
                   "treewidth is a heuristic upper bound (instance above "
                   "the exact limit)")
    twc = treewidth(contract_graph(q), "tw_contract",
                    "contract treewidth is a heuristic upper bound")
    dss = dominating_star_size(q)
    try:
        lmn = linked_matching_number(q)
    except dec.BudgetError:
        lmn = None
        exact["lmn"] = False
        notes.append("linked matching number not computed (quantified part "
                     "above the enumeration cap)")
    components = [(tuple(part.vertices), tuple(part.boundary))
                  for part in dec._plan(q).parts]
    if dss >= 3:
        notes.append("no O(n^{%d-eps}) algorithm under SETH (class-level "
                     "evidence; dss >= 3)" % dss)
    if q.is_plain() and q.structure.n <= 8:
        core = homs.augmented_core(q)
        if core.structure.n < q.structure.n:
            notes.append("query is not minimal; minimize first, parameters "
                         "refer to the query as written")
    return ParameterReport(tw, twc, dss, lmn, components, exact, notes)


def _trend(values):
    values = [v for v in values if v is not None]
    if not values:
        return "unknown"
    return "growing" if max(values) > min(values) else "bounded"


def classify(queries):
    """Advisory classification.  For a single query: its ParameterReport.  For
    a list, boundedness trends and the matching complexity regime, reported as
    class-level evidence only."""
    if not isinstance(queries, (list, tuple)):
        return analyze(queries)
    reports = [analyze(q) for q in queries]
    trends = {
        "tw": _trend([r.tw for r in reports]),
        "tw_contract": _trend([r.tw_contract for r in reports]),
        "dss": _trend([r.dss for r in reports]),
        "lmn": _trend([r.lmn for r in reports]),
    }
    notes = ["regime label is class-level evidence from the sampled queries, "
             "not a proof about the class"]
    if trends["lmn"] == "growing":
        regime = REGIME_SHARP_A2
    elif trends["dss"] == "growing":
        regime = REGIME_SHARP_W2
        notes.append("#W[2]-hard; #A[2] status open (dss unbounded, lmn bounded)")
    elif trends["tw_contract"] == "growing":
        regime = REGIME_SHARP_W1
    elif trends["tw"] == "growing":
        regime = REGIME_W1
    else:
        regime = REGIME_P
    return {"reports": reports, "trends": trends, "regime": regime,
            "notes": notes}
