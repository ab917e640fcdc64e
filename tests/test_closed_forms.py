"""Exact optima against closed forms from the literature.

Each formula is written out here and shares no code with the compatibility
builder, the containment tests or the clique solver.
"""

from math import comb

import networkx as nx
import pytest

from hifam import complete, complete_multipartite, connected_graphs, search_hosts


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
    hosts = [g for n in range(1, 7) for m in range(min(comb(n, 2), 12) + 1)
             for g in connected_graphs(n, m, False)]
    with_triangle = 0
    for record in search_hosts(hosts, complete(3)):
        host = nx.from_graph6_bytes(record.host_graph6.encode())
        if any(nx.triangles(host).values()):
            with_triangle += 1
            assert record.clique_size == 1 << (record.m - 3), record.host_graph6
        else:
            assert record.clique_size == 0, record.host_graph6
    assert (len(hosts), with_triangle) == (204, 139)
