"""For which small patterns is the trivial bound sharp?

The supergraphs of one copy of H in a host with m edges are an
H-intersecting family of 2^(m - e(H)) members: density 1/2^e(H).  Over
every connected host with 4 or 5 vertices, each of the 10 patterns with at
most 4 vertices and no isolated vertex peaks at exactly that density,
except P3 = K_{1,2}, which reaches 5/2^4 on 5 vertices.  Whether a host
holds the pattern at all is read off networkx, not off the solver.
"""

from fractions import Fraction
from math import comb

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from hifam import (
    Graph,
    build_compatibility,
    canonical_key,
    christofides_host,
    complete,
    complete_multipartite,
    connected_graphs,
    cycle,
    emit_graph6,
    from_edges,
    max_clique,
    parse_graph6,
    path,
    search_hosts,
)
from hifam.graphs import edge_index, pair_count

PAW = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])  # a triangle with a pendant edge

PATTERNS = {
    "K2": complete(2),
    "P3": path(3),
    "K3": complete(3),
    "2K2": from_edges(4, [(0, 1), (2, 3)]),
    "P4": path(4),
    "K_{1,3}": complete_multipartite((1, 3)),
    "C4": cycle(4),
    "paw": PAW,
    "diamond": complete_multipartite((1, 1, 2)),
    "K4": complete(4),
}

# (pattern, n): the connected hosts that hold the pattern, and the best density
TABLE = {
    ("K2", 4): (6, Fraction(1, 2)), ("K2", 5): (21, Fraction(1, 2)),
    ("P3", 4): (6, Fraction(1, 4)), ("P3", 5): (21, Fraction(5, 16)),
    ("K3", 4): (3, Fraction(1, 8)), ("K3", 5): (15, Fraction(1, 8)),
    ("2K2", 4): (5, Fraction(1, 4)), ("2K2", 5): (20, Fraction(1, 4)),
    ("P4", 4): (5, Fraction(1, 8)), ("P4", 5): (20, Fraction(1, 8)),
    ("K_{1,3}", 4): (4, Fraction(1, 8)), ("K_{1,3}", 5): (19, Fraction(1, 8)),
    ("C4", 4): (3, Fraction(1, 16)), ("C4", 5): (13, Fraction(1, 16)),
    ("paw", 4): (3, Fraction(1, 16)), ("paw", 5): (15, Fraction(1, 16)),
    ("diamond", 4): (2, Fraction(1, 32)), ("diamond", 5): (10, Fraction(1, 32)),
    ("K4", 4): (1, Fraction(1, 64)), ("K4", 5): (4, Fraction(1, 64)),
}

# the P3 optima above the trivial count on 5 vertices: every host with a
# vertex of degree 4 (the star K_{1,4}'s 5 sets of at least 3 leaves, times
# the other edges' subsets), and D^o
P3_BEATEN = {
    "Ds_": 5, "D{_": 10, "D}_": 20, "Dto": 20, "D~_": 40, "D}o": 40, "D|o": 40,
    "D^o": 33, "D~o": 80, "Dvw": 80, "D~w": 160, "D~{": 320,
}


def _holds(host_graph6, pattern):
    host = nx.from_graph6_bytes(host_graph6.encode())
    return GraphMatcher(host, nx.Graph(pattern.edge_pairs())).subgraph_is_monomorphic()


def _check(records, name):
    """Assert the trivial count on every host that holds the pattern, apart
    from P3_BEATEN for P3, and 0 on every other; return the records."""
    pattern = PATTERNS[name]
    beaten = P3_BEATEN if name == "P3" else {}
    for record in records:
        if not _holds(record.host_graph6, pattern):
            assert record.clique_size == 0, record.host_graph6
        else:
            trivial = 1 << (record.m - pattern.edge_count)
            assert record.clique_size == beaten.get(record.host_graph6, trivial), record.host_graph6
    return records


@pytest.mark.parametrize("name,n", list(TABLE), ids=[f"{name}-n{n}" for name, n in TABLE])
def test_trivial_bound_table(name, n):
    # P3 on K5 takes about 10 s: test_p3_on_k5_beats_the_trivial_bound
    top = comb(n, 2) - (name == "P3" and n == 5)
    hosts = [g for m in range(n - 1, top + 1) for g in connected_graphs(n, m)]
    records = _check(search_hosts(hosts, PATTERNS[name]), name)
    holding, best = TABLE[name, n]
    assert sum(r.clique_size > 0 for r in records) == holding - (top < comb(n, 2))
    assert max(Fraction(r.clique_size, 1 << r.m) for r in records) == best


def test_p3_on_k5_beats_the_trivial_bound(request):
    if not request.config.getoption("--run-large-verify"):
        pytest.skip("needs --run-large-verify")
    [record] = _check(search_hosts([complete(5)], PATTERNS["P3"]), "P3")
    assert (record.host_graph6, record.clique_size) == ("D~{", 320)


# (P4 host, paw host, P4 candidates, paw candidates, optimum): the paw
# host is the P4 host plus one edge e; only where the counts agree does
# S -> S | e map the P4 candidates onto the paw candidates
PAW_LIFTS = [
    (emit_graph6(christofides_host()), "E}q?", 71, 71, 17),
    ("F]qC?", "F}qC?", 145, 145, 34),
    ("F]pC?", "F}pC?", 145, 145, 34),
    ("FlhC?", "F|hC?", 166, 143, 34),
    ("FbXc?", "FjXc?", 161, 142, 34),
]


@pytest.mark.parametrize("p4_host,paw_host,p4_count,paw_count,optimum", PAW_LIFTS,
                         ids=["christofides", "F]qC?", "F]pC?", "FlhC?", "FbXc?"])
def test_an_added_edge_lifts_p4_to_the_paw(p4_host, paw_host, p4_count, paw_count, optimum):
    """Each P4 host (the Christofides host and the four 7-vertex, 8-edge P4
    argmax hosts) plus exactly one edge e is the paw host, whose paw
    optimum equals the P4 optimum.  On the Christofides host e is the chord
    (1, 2) across the small side of its K_{2,3}; the host has no triangle,
    so every paw of the new host uses the chord, and a set S of host edges
    holds a P4 exactly when S | e holds a paw.  The same map works on F]qC?
    and F]pC?; on FlhC? and FbXc? the candidate counts differ, so it fails
    there, though the optima still agree."""
    host = parse_graph6(p4_host)
    key = parse_graph6(paw_host)
    lifts = [Graph(host.n, host.edges | 1 << b) for b in range(pair_count(host.n))
             if not host.edges >> b & 1]
    [lifted] = [g for g in lifts if canonical_key(g) == key]
    e = lifted.edges ^ host.edges
    if host == christofides_host():
        assert e == 1 << edge_index(1, 2, host.n)
    p4 = build_compatibility(host, path(4))
    paw = build_compatibility(lifted, PAW)
    assert (len(p4.labels), len(paw.labels)) == (p4_count, paw_count)
    maps = sorted(label | e for label in p4.labels) == sorted(paw.labels)
    assert maps == (p4_count == paw_count)
    assert max_clique(p4).size == max_clique(paw).size == optimum
