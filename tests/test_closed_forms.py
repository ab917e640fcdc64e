"""Exact optima against closed forms from the literature.

Each formula is written out here and shares no code with the compatibility
builder, the containment tests or the clique solver.
"""

from math import comb

import networkx as nx
import pytest

from hifam import complete, complete_multipartite, search_hosts

from oracles import check_trivial_bound, every_host


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
    hosts = every_host(range(1, 7), 12)
    records = search_hosts(hosts, complete(3))
    holders, above = check_trivial_bound(
        records, complete(3), lambda host: any(nx.triangles(host).values()))
    assert (len(hosts), holders, above) == (204, 139, {})


def test_edge_records_are_half_of_every_host():
    """A set of edges and its complement in the host share no edge, so an
    edge-intersecting family holds at most one of each pair: density at most
    1/2, reached by the supergraphs of one edge.  Every host with an edge has
    optimum 2^(m-1), and the edgeless hosts have none.  Every host with at
    most 6 vertices and at most 10 edges."""
    hosts = every_host(range(1, 7), 10)
    records = search_hosts(hosts, complete(2))
    holders, above = check_trivial_bound(
        records, complete(2), lambda host: host.number_of_edges() > 0)
    assert (len(hosts), holders, above) == (190, 184, {})


def test_k4_records_meet_the_berger_zhao_bound():
    """A K4-intersecting family has density at most 2^-6 (Berger and Zhao,
    "K4-intersecting families of graphs", JCTB 2023), a bound that lifts
    from any host as the triangle bound does, and the supergraphs of one K4
    reach it: every host with a K4 has optimum 2^(m-6), and any other host
    has none.  Every host with at most 7 vertices and at most 16 edges."""
    hosts = every_host(range(1, 8), 16)
    records = search_hosts(hosts, complete(4))
    holders, above = check_trivial_bound(
        records, complete(4), lambda host: any(len(c) >= 4 for c in nx.find_cliques(host)))
    assert (len(hosts), holders, above) == (1233, 382, {})
