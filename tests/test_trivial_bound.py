"""For which small patterns is the trivial bound sharp?

The supergraphs of one copy of H in a host with m edges are an
H-intersecting family of 2^(m - e(H)) members: density 1/2^e(H).  Over
every connected host with 4 or 5 vertices, each of the 10 patterns with at
most 4 vertices and no isolated vertex peaks at exactly that density,
except P3 = K_{1,2}, which reaches 5/2^4 on 5 vertices.  On 6 vertices
P3, K_{1,3} and the paw beat it, reaching 5/2^4, 3/2^4 and 17/2^8, and
2K2, C4 and the diamond do not.  Whether a host holds the pattern at all is
read off networkx, not off the solver.
"""

from fractions import Fraction
from math import comb

import pytest

from hifam import (
    Graph,
    build_compatibility,
    canonical_key,
    christofides_host,
    complete,
    connected_graphs,
    emit_graph6,
    max_clique,
    parse_graph6,
    path,
    search_hosts,
)
from hifam.graphs import edge_index, pair_count

from oracles import PATTERNS, PAW, check_trivial_bound

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

# pattern: on the connected 6-vertex hosts with 5 to top edges, the hosts,
# the holders, the best density, the hosts at it and the hosts above the
# trivial count.  K2, K3 and K4 are pinned at n = 6 by the closed forms,
# and P4 by test_clique.
TABLE_N6 = {
    "P3": (9, 80, 80, Fraction(5, 16), 51, 52),
    "2K2": (9, 80, 79, Fraction(1, 4), 79, 0),
    "K_{1,3}": (11, 103, 101, Fraction(3, 16), 26, 26),
    "C4": (11, 103, 84, Fraction(1, 16), 84, 0),
    "paw": (10, 94, 75, Fraction(17, 256), 9, 9),
    "diamond": (11, 103, 64, Fraction(1, 32), 64, 0),
}


@pytest.mark.parametrize("name,n", list(TABLE), ids=[f"{name}-n{n}" for name, n in TABLE])
def test_trivial_bound_table(name, n):
    # P3 on K5 takes about 10 s: test_p3_on_k5_beats_the_trivial_bound
    top = comb(n, 2) - (name == "P3" and n == 5)
    hosts = [g for m in range(n - 1, top + 1) for g in connected_graphs(n, m)]
    records = search_hosts(hosts, PATTERNS[name])
    holders, above = check_trivial_bound(records, PATTERNS[name])
    beaten = P3_BEATEN if name == "P3" else {}
    assert above == {r.host_graph6: beaten[r.host_graph6]
                     for r in records if r.host_graph6 in beaten}
    holding, best = TABLE[name, n]
    assert holders == holding - (top < comb(n, 2))
    assert max(Fraction(r.clique_size, 1 << r.m) for r in records) == best


def test_p3_on_k5_beats_the_trivial_bound(request):
    if not request.config.getoption("--run-large-verify"):
        pytest.skip("needs --run-large-verify")
    records = search_hosts([complete(5)], PATTERNS["P3"])
    assert check_trivial_bound(records, PATTERNS["P3"]) == (1, {"D~{": 320})


@pytest.mark.parametrize("name", list(TABLE_N6), ids=[f"{name}-n6" for name in TABLE_N6])
def test_trivial_bound_table_on_six_vertices(name):
    # 2K2 and P3 with 10 edges take about a minute each, and the paw with 11
    # edges several seconds: test_paw_on_six_vertices_and_eleven_edges
    top, *row = TABLE_N6[name]
    hosts = [g for m in range(5, top + 1) for g in connected_graphs(6, m)]
    records = search_hosts(hosts, PATTERNS[name])
    holders, above = check_trivial_bound(records, PATTERNS[name])
    best = max(Fraction(r.clique_size, 1 << r.m) for r in records)
    at_best = sum(Fraction(r.clique_size, 1 << r.m) == best for r in records)
    assert [len(hosts), holders, best, at_best, len(above)] == row


def test_paw_on_six_vertices_and_eleven_edges(request):
    """Six of the nine hosts reach the paw's best density 17/2^8 again."""
    if not request.config.getoption("--run-large-verify"):
        pytest.skip("needs --run-large-verify")
    records = search_hosts(connected_graphs(6, 11), PAW)
    assert check_trivial_bound(records, PAW) == (
        9, dict.fromkeys(["Evz_", "E|v_", "E}v_", "E~n?", "E~z?", "E~}?"], 136))


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
