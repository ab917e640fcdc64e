"""Host-class enumeration and candidate edge subsets of a host."""

import itertools
from math import comb

import networkx as nx
import pytest

import hifam.enumeration
from hifam import (
    Graph,
    canonical_key,
    christofides_host,
    complete,
    connected_graphs,
    from_edges,
    is_connected,
    path,
)
from hifam.enumeration import _class_keys
from hifam.graphs import UserError, edge_index, pair_count, submasks

import oracles
from oracles import all_children_class_keys, every_host, labeled_classes

# regression constants, cross-checked below against the networkx atlas
CONNECTED_6_7 = 19
CONNECTED_6_8 = 22
CONNECTED_6_TOTAL = 112


def test_is_connected_basics():
    assert is_connected(path(4))
    assert not is_connected(Graph(4, complete(3).edges))  # K3 plus isolated vertex
    assert is_connected(christofides_host())
    assert is_connected(Graph(1, 0))
    assert not is_connected(Graph(2, 0))


def test_single_edge_class():
    assert len(connected_graphs(2, 1, True)) == 1


def test_two_trees_on_four_vertices():
    reps = connected_graphs(4, 3, True)
    assert len(reps) == 2
    keys = {canonical_key(g) for g in reps}
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert keys == {canonical_key(path(4)), canonical_key(star)}


def test_six_vertex_regression_counts():
    assert len(connected_graphs(6, 7, True)) == CONNECTED_6_7
    assert len(connected_graphs(6, 8, True)) == CONNECTED_6_8
    total = sum(
        len(connected_graphs(6, m, True)) for m in range(0, 16)
    )
    assert total == CONNECTED_6_TOTAL


def test_counts_match_networkx_atlas():
    atlas = nx.generators.atlas.graph_atlas_g()
    counts: dict[tuple[int, int], int] = {}
    for G in atlas:
        n, m = G.number_of_nodes(), G.number_of_edges()
        if 2 <= n <= 7 and nx.is_connected(G):
            counts[(n, m)] = counts.get((n, m), 0) + 1
    for n in range(2, 8):
        for m in range(0, pair_count(n) + 1):
            ours = len(connected_graphs(n, m, True))
            assert ours == counts.get((n, m), 0), (n, m)


def test_representatives_cover_every_labeled_graph():
    # at n <= 5: each connected labeled graph is isomorphic to exactly one
    # representative, and representatives are pairwise non-isomorphic
    for n in range(2, 6):
        slots = pair_count(n)
        for m in range(n - 1, slots + 1):
            reps = connected_graphs(n, m, True)
            keys = [canonical_key(g).edges for g in reps]
            assert len(set(keys)) == len(keys)
            assert keys == sorted(keys)  # ascending output order
            key_set = set(keys)
            for combo in itertools.combinations(range(slots), m):
                edges = 0
                for b in combo:
                    edges |= 1 << b
                g = Graph(n, edges)
                if is_connected(g):
                    assert canonical_key(g).edges in key_set


def test_classes_match_labeled_oracle():
    # the same representatives, in the same order, as keying every labeled
    # edge set by the exhaustive canonical key
    specs = [(n, m, connected)
             for n in range(1, 6) for m in range(pair_count(n) + 1)
             for connected in (True, False)]
    specs += [(6, 7, True), (6, 8, True), (6, 11, True)]
    for spec in specs:
        assert list(connected_graphs(*spec)) == list(labeled_classes(*spec)), spec


# (n, edge counts asked for in turn, canonical keys computed by the
# enumerator and by the all-children oracle) from cold caches
KEY_CALLS = [((6, [8]), 281, 526), ((6, [7, 8]), 281, 526), ((6, [11]), 40, 121)]


def _counting_key_calls(spy, module=hifam.enumeration):
    """Record every graph module passes to canonical_key, from cold caches."""
    calls = spy(module, "canonical_key")
    connected_graphs.cache_clear()
    _class_keys.cache_clear()
    return calls


def test_augmentation_key_calls(spy):
    # one canonical key per distinct child of each level up to half the 15
    # pairs, not one per labeled edge set (C(15, 8) = 6435), plus one per
    # complement above half, so m = 7 comes free with m = 8.  The oracle
    # adds every missing edge: m = 8 takes the 502 distinct children of
    # levels 1..7 and the 24 complements of level 7, m = 11 the 112
    # children of levels 1..4 and the 9 complements of level 4.  The
    # enumerator adds one edge per orbit of twin swaps, which leaves 257
    # and 31 children.
    calls = _counting_key_calls(spy)
    oracle_calls = _counting_key_calls(spy, oracles)
    try:
        for (n, edge_counts), expected, oracle_expected in KEY_CALLS:
            calls.clear()
            oracle_calls.clear()
            connected_graphs.cache_clear()
            _class_keys.cache_clear()
            all_children_class_keys.cache_clear()
            for m in edge_counts:
                connected_graphs(n, m, True)
                all_children_class_keys(n, m)
            assert len(calls) == expected, (n, edge_counts)
            assert len(oracle_calls) == oracle_expected, (n, edge_counts)
    finally:
        connected_graphs.cache_clear()
        _class_keys.cache_clear()
        all_children_class_keys.cache_clear()


def test_levels_match_all_children_oracle():
    # every level of every n <= 7, class by class; n = 8 is
    # test_every_eight_vertex_class's
    for n in range(1, 8):
        for m in range(pair_count(n) + 1):
            assert _class_keys(n, m) == all_children_class_keys(n, m), (n, m)


def test_no_labeled_graph_is_keyed_twice(spy):
    # duplicate children within a level are merged before keying, so no
    # canonical key is computed twice in one enumeration
    calls = _counting_key_calls(spy)
    try:
        every_host(range(1, 7))
        assert calls and len(set(calls)) == len(calls)
    finally:
        connected_graphs.cache_clear()
        _class_keys.cache_clear()


def test_every_eight_vertex_class(request):
    """All 12,346 graphs and 11,117 connected graphs on 8 vertices (OEIS
    A000088 and A001349), summed over m = 0..28, and each level equal to
    the all-children oracle's, class by class (seconds)."""
    if not request.config.getoption("--run-large-verify"):
        pytest.skip("needs --run-large-verify")
    levels = range(pair_count(8) + 1)
    assert sum(len(connected_graphs(8, m, False)) for m in levels) == 12_346
    assert sum(len(connected_graphs(8, m, True)) for m in levels) == 11_117
    for m in levels:
        assert _class_keys(8, m) == all_children_class_keys(8, m), m


def test_representatives_have_requested_shape():
    for g in connected_graphs(6, 7, True):
        assert g.n == 6 and g.edge_count == 7 and is_connected(g)


def test_infeasible_classes_are_empty():
    assert connected_graphs(4, 2, True) == ()  # below n-1
    assert len(connected_graphs(4, 2, False)) > 0


def test_enumeration_size_cap():
    with pytest.raises(ValueError):
        connected_graphs(9, 8, True)
    for m in (-1, 7):  # edge counts that no 4-vertex graph has
        with pytest.raises(UserError, match=f"^edge count {m} outside 0..6 for n=4$"):
            connected_graphs(4, m, False)


# ---------------------------------------------------------------------------
# candidate edge subsets: graphs.submasks over the host's edges
# ---------------------------------------------------------------------------


def _subsets(host: Graph, min_edges: int) -> list[int]:
    return [s for s in submasks(host.edges) if s.bit_count() >= min_edges]


def test_candidate_counts_on_seven_and_eight_edges():
    host7 = christofides_host()
    assert len(_subsets(host7, 3)) == 99  # sum_{i>=3} C(7,i)
    host8 = Graph(6, host7.edges | 1 << edge_index(0, 2, 6))
    assert len(_subsets(host8, 3)) == 219  # sum_{i>=3} C(8,i)


def test_candidate_full_power_set():
    host = path(3)
    assert len(_subsets(host, 0)) == 1 << host.edge_count


def test_candidate_counts_match_binomials():
    for host in (path(5), complete(4), christofides_host()):
        e = host.edge_count
        for lo in range(e + 2):
            got = len(_subsets(host, lo))
            assert got == sum(comb(e, i) for i in range(lo, e + 1))


def test_candidates_are_ascending_subsets():
    host = christofides_host()
    subs = _subsets(host, 2)
    assert subs == sorted(subs)
    assert all(s & ~host.edges == 0 for s in subs)
    assert all(s.bit_count() >= 2 for s in subs)
