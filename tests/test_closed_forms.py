"""Exact optima against closed forms from the literature.

Each formula is written out here and shares no code with the compatibility
builder, the containment tests or the clique solver.
"""

from math import comb

import networkx as nx
import pytest

from hifam import complete, complete_multipartite, connected_graphs, search_hosts


def every_host(max_n, max_m):
    """Every host class, connected or not, with at most max_n vertices and
    max_m edges."""
    return [g for n in range(1, max_n + 1) for m in range(min(comb(n, 2), max_m) + 1)
            for g in connected_graphs(n, m, False)]


def katona(n, t):
    """Size of the largest t-intersecting family of subsets of an n-set
    (Katona, "Intersection theorems for systems of finite sets", 1964): the
    sets of size at least l when n + t = 2l, plus C(n - 1, l - 1) sets of
    size l - 1 when n + t = 2l - 1."""
    l = (n + t + 1) // 2
    size = sum(comb(n, k) for k in range(l, n + 1))
    return size + comb(n - 1, l - 1) if (n + t) % 2 else size


@pytest.mark.parametrize("n,t", [(n, t) for n in range(1, 9) for t in range(1, n + 1)]
                         + [(12, 1)])
def test_stars_meet_katona_bound(n, t):
    """Two edge sets of a star share a K_{1,t} exactly when they share t
    leaves, so the K_{1,t}-intersecting optimum on K_{1,n} is Katona's.
    K_{1,1} on K_{1,12} has optimum 2^11 = 2048, about a thousand up-sets
    deep for a search that recursed once per up-set taken."""
    [record] = search_hosts([complete_multipartite((1, n))], complete_multipartite((1, t)))
    assert record.clique_size == katona(n, t)


def test_triangle_records_meet_the_ellis_filmus_friedgut_bound():
    """A triangle-intersecting family has density at most 1/8 (Ellis, Filmus
    and Friedgut, "Triangle-intersecting families of graphs", 2012), and the
    supergraphs of one triangle reach it: every host with a triangle has
    optimum 2^(m-3), and a triangle-free host has none.  Every host with at
    most 5 vertices, and every 6-vertex host with at most 12 edges."""
    hosts = every_host(6, 12)
    with_triangle = 0
    for record in search_hosts(hosts, complete(3)):
        host = nx.from_graph6_bytes(record.host_graph6.encode())
        if any(nx.triangles(host).values()):
            with_triangle += 1
            assert record.clique_size == 1 << (record.m - 3), record.host_graph6
        else:
            assert record.clique_size == 0, record.host_graph6
    assert (len(hosts), with_triangle) == (204, 139)


def test_edge_records_are_half_of_every_host():
    """A set of edges and its complement in the host share no edge, so an
    edge-intersecting family holds at most one of each pair: density at most
    1/2, reached by the supergraphs of one edge.  Every host with an edge has
    optimum 2^(m-1), and the edgeless hosts have none.  Every host with at
    most 6 vertices and at most 10 edges."""
    hosts = every_host(6, 10)
    with_edge = 0
    for record in search_hosts(hosts, complete(2)):
        if record.m:
            with_edge += 1
            assert record.clique_size == 1 << (record.m - 1), record.host_graph6
        else:
            assert record.clique_size == 0, record.host_graph6
    assert (len(hosts), with_edge) == (190, 184)


def test_k4_records_meet_the_berger_zhao_bound():
    """A K4-intersecting family has density at most 2^-6 (Berger and Zhao,
    "K4-intersecting families of graphs", JCTB 2023), a bound that lifts
    from any host as the triangle bound does, and the supergraphs of one K4
    reach it: every host with a K4 has optimum 2^(m-6), and any other host
    has none.  Every host with at most 7 vertices and at most 16 edges."""
    hosts = every_host(7, 16)
    with_k4 = 0
    for record in search_hosts(hosts, complete(4)):
        host = nx.from_graph6_bytes(record.host_graph6.encode())
        if any(len(clique) >= 4 for clique in nx.find_cliques(host)):
            with_k4 += 1
            assert record.clique_size == 1 << (record.m - 6), record.host_graph6
        else:
            assert record.clique_size == 0, record.host_graph6
    assert (len(hosts), with_k4) == (1233, 382)
