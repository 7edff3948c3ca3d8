import pytest

from cqcount import decomposition as dec
from cqcount import params
from cqcount.gadgets import family_query
from cqcount.model import Query, Signature, Structure, graph, graph_edges


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def clique_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def test_contract_graph_of_star_patterns():
    # k free leaves around one quantified center contract to a k-clique
    psi4 = family_query("psi", 4)
    cg = params.contract_graph(psi4)
    assert cg.n == 4
    assert sorted(graph_edges(cg)) == clique_edges(4)
    # subdividing every clique edge with its own quantified midpoint keeps
    # the contract a clique as well
    sub3 = family_query("subdivided", 3)
    cg2 = params.contract_graph(sub3)
    assert sorted(graph_edges(cg2)) == clique_edges(3)
    # no free vertices leaves an empty contract
    w13 = family_query("w1", 3)
    assert params.contract_graph(w13).n == 0


def test_contract_of_higher_arity_atoms():
    # R(x1,x2,y) & R(y,x3,x3): y's component has boundary {x1,x2,x3}
    sig = Signature([("R", 3)])
    x1, x2, x3, y = 0, 1, 2, 3
    s = Structure(sig, 4, {"R": {(x1, x2, y), (y, x3, x3)}})
    q = Query(s, (x1, x2, x3))
    assert sorted(graph_edges(params.contract_graph(q))) == clique_edges(3)
    assert params.dominating_star_size(q) == 3
    # a free-only R(x1,x2,x3) gives the same triangle and no component
    q2 = Query(Structure(sig, 3, {"R": {(0, 1, 2)}}), (0, 1, 2))
    assert sorted(graph_edges(params.contract_graph(q2))) == clique_edges(3)
    assert params.dominating_star_size(q2) == 0


def test_quantified_components_and_boundaries():
    # two free endpoints joined through one quantified center
    assert params.analyze(Query(path(3), (0, 2))).components == [((1,), (0, 2))]
    # a loose quantified vertex has an empty boundary
    assert params.analyze(Query(graph(2, []), (0,))).components == [((1,), ())]
    # two separate quantified pendants give two components
    assert params.analyze(Query(path(3), (1,))).components == \
        [((0,), (1,)), ((2,), (1,))]


def test_dominating_star_size_values():
    assert params.dominating_star_size(family_query("psi", 4)) == 4
    assert params.dominating_star_size(family_query("psi", 7)) == 7
    assert params.dominating_star_size(family_query("subdivided", 4)) == 2
    assert params.dominating_star_size(Query(path(3), (0, 1, 2))) == 0


def test_node_well_linkedness():
    assert params.is_node_well_linked(path(3), [0, 2])
    # all pairs of star leaves route through the center, so singleton subsets
    # are fine but two-vs-two subsets are not
    star3 = graph(4, [(0, 1), (0, 2), (0, 3)])
    assert params.is_node_well_linked(star3, [1, 2, 3])
    star4 = graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert not params.is_node_well_linked(star4, [1, 2, 3, 4])
    assert params.is_node_well_linked(graph(4, clique_edges(4)), [0, 1, 2, 3])
    assert params.is_node_well_linked(graph(1, []), [0])


def test_linked_matching_number_values():
    assert params.linked_matching_number(family_query("gamma", 3)) == 3
    assert params.linked_matching_number(family_query("gamma", 4)) == 4
    assert params.linked_matching_number(family_query("psi", 4)) == 1
    assert params.linked_matching_number(Query(path(3), (0, 1, 2))) == 0


def test_linked_matching_number_cap_raises_a_budget_error():
    q = Query(path(18), (0,))
    with pytest.raises(dec.BudgetError) as err:
        params.linked_matching_number(q)
    assert (err.value.parameter, err.value.value, err.value.cap) == \
        ("quantified vertices", 17, params.LMN_CAP)
    r = params.analyze(q)
    assert r.lmn is None and not r.exact["lmn"]
    assert any("linked matching number not computed" in note
               for note in r.notes)


def test_analyze_reports_exact_small_parameters():
    r = params.analyze(family_query("psi", 4))
    assert r.tw == 1 and r.tw_contract == 3 and r.dss == 4 and r.lmn == 1
    assert r.exact["tw"] and r.exact["lmn"]
    assert len(r.components) == 1


def test_analyze_flags_non_minimal_queries():
    # a second loose quantified vertex never changes the count
    g = graph(3, [(0, 1)])
    r = params.analyze(Query(g, (0,)))
    assert any("not minimal" in note for note in r.notes)


def test_classifier_regimes():
    def fam(kind, ks):
        return [family_query(kind, k) for k in ks]

    assert params.classify(fam("gamma", [1, 2, 3]))["regime"] == "#A[2]-eq."
    assert params.classify(fam("psi", [1, 2, 3]))["regime"] == "#W[2]-hard"
    assert params.classify(fam("subdivided", [2, 3, 4]))["regime"] == "#W[1]-eq."
    assert params.classify(fam("w1", [2, 3, 4]))["regime"] == "W[1]-eq."
    paths = [Query(path(k), tuple(range(k))) for k in (2, 3, 4)]
    assert params.classify(paths)["regime"] == "P"


def test_analyze_past_the_exact_treewidth_limit_reports_a_heuristic_bound():
    n = dec.EXACT_TREEWIDTH_LIMIT + 2
    # the endpoints free: the contract is one edge, so only the query's own
    # treewidth passes the limit
    ends = params.analyze(Query(path(n), (0, n - 1)))
    assert (ends.tw, ends.tw_contract) == (1, 1)
    assert not ends.exact["tw"] and ends.exact["tw_contract"]
    assert ("treewidth is a heuristic upper bound (instance above the exact "
            "limit)") in ends.notes
    # every vertex free: the contract is the path itself
    whole = params.analyze(Query(path(n), tuple(range(n))))
    assert (whole.tw, whole.tw_contract) == (1, 1)
    assert not whole.exact["tw"] and not whole.exact["tw_contract"]
    assert "contract treewidth is a heuristic upper bound" in whole.notes
