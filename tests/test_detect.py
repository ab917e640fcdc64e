"""Containment engines: the one backtracking search, run for generic
targets, complete multipartite patterns and P4."""

import random

import pytest

from hifam import (
    Graph,
    UserError,
    build_compatibility,
    canonical_key,
    complete,
    complete_multipartite,
    connected_graphs,
    contains_multipartite,
    contains_p4,
    contains_subgraph,
    containment_check,
    cycle,
    from_edges,
    multipartite_family,
    path,
)
from hifam import detect
from hifam.graphs import pair_count

from oracles import (
    GENERIC_TARGETS,
    PAW,
    apply_permutation,
    check_engines_exhaustively,
    construction_seeds,
    degree_ordered_subgraph,
    largest_first_multipartite,
    nx_contains,
    nx_graph,
    p4_column_scan,
    random_graph,
    rows_edges,
)


# ---------------------------------------------------------------------------
# generic containment
# ---------------------------------------------------------------------------


def test_containment_basics():
    assert contains_subgraph(complete(4).adjacency(), path(4))
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not contains_subgraph(star.adjacency(), path(4))
    assert contains_subgraph(cycle(6).adjacency(), complete_multipartite([1, 2]))


def test_isolated_target_vertices_are_ignored():
    # one edge plus three isolated vertices fits in a 2-vertex graph
    target = from_edges(5, [(0, 1)])
    assert contains_subgraph(complete(2).adjacency(), target)
    assert contains_subgraph(Graph(2, 0).adjacency(), Graph(5, 0))
    assert not contains_subgraph(Graph(2, 0).adjacency(), target)


def test_containment_monotone_under_edge_addition():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, 0.4)
        extra = random_graph(rng, n, 0.3)
        bigger = Graph(n, g.edges | extra.edges)
        h = random_graph(rng, rng.randint(2, 4), 0.5)
        if contains_subgraph(g.adjacency(), h):
            assert contains_subgraph(bigger.adjacency(), h)


def test_containment_is_isomorphism_invariant():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, 0.5)
        h = random_graph(rng, rng.randint(2, 4), 0.5)
        pg = list(range(g.n))
        ph = list(range(h.n))
        rng.shuffle(pg)
        rng.shuffle(ph)
        assert contains_subgraph(g.adjacency(), h) == contains_subgraph(
            apply_permutation(g, pg).adjacency(), apply_permutation(h, ph)
        )


# ---------------------------------------------------------------------------
# P4
# ---------------------------------------------------------------------------


def test_p4_basics():
    assert contains_p4(path(4).adjacency())
    assert not contains_p4(complete(3).adjacency())
    from hifam import christofides_host

    assert contains_p4(christofides_host().adjacency())
    # P4-free graphs, where the search places most before it gives up:
    # disjoint triangles and stars; one more edge, joining two triangles or
    # two leaves, makes a P4
    p4 = path(4)
    for n in (30, 63):
        triangles = [(v, v + d) for v in range(0, n, 3) for d in (1, 2)] + [
            (v + 1, v + 2) for v in range(0, n, 3)]
        star = [(0, v) for v in range(1, n)]
        for edges, joining in ((triangles, (0, 3)), (star, (1, 2))):
            for extra, found in (([], False), ([joining], True)):
                adj = from_edges(n, edges + extra).adjacency()
                assert degree_ordered_subgraph(adj, p4) == found
                assert contains_p4(adj) == p4_column_scan(adj) == found


def test_p4_plans_its_target_once(spy):
    """contains_p4 plans P4 at import, never per call: over the rows of every
    graph on 5 vertices it builds no plan and decodes no graph."""
    rows = [Graph(5, edges).adjacency() for edges in range(1 << pair_count(5))]
    plans, decodes = spy(detect, "_plan"), spy(Graph, "adjacency")
    hits = sum(contains_p4(r) for r in rows)
    assert hits == sum(p4_column_scan(r) for r in rows) > 0
    assert plans == decodes == []


# ---------------------------------------------------------------------------
# multipartite search
# ---------------------------------------------------------------------------


def test_multipartite_basics():
    assert contains_multipartite(complete_multipartite([2, 6]).adjacency(), [2, 4])
    matching = from_edges(6, [(0, 1), (2, 3), (4, 5)])
    assert not contains_multipartite(matching.adjacency(), [1, 2])


def test_deleted_vertex_overlap_in_small_star_host():
    # host K_{1,4}; removing the edges at two different leaves leaves K_{1,2}
    built = multipartite_family((1,), 2)
    n = built.host.n
    seeds = construction_seeds(built)
    common = Graph(n, seeds[0] & seeds[1])
    expected = from_edges(n, [(0, 3), (0, 4)])  # K_{1,2} plus isolates
    assert canonical_key(common) == canonical_key(expected)


def test_deleted_vertex_overlap_contains_shrunk_pattern():
    built = multipartite_family((2,), 4)  # host K_{2,6}
    a, b = construction_seeds(built)[:2]
    common = Graph(built.host.n, a & b)
    assert contains_multipartite(common.adjacency(), [4, 2])


def test_single_part_target_is_edgeless():
    assert contains_multipartite(Graph(2, 0).adjacency(), [5])
    assert contains_multipartite(Graph(2, 0).adjacency(), [])


def test_pattern_larger_than_the_graph_is_absent_unbuilt():
    # K_{40,40} has 80 vertices, past the 64-vertex cap of any built pattern
    rows = complete_multipartite([4, 24]).adjacency()
    assert not contains_multipartite(rows, [40, 40])
    assert not contains_multipartite(rows, [1, 28])


def test_part_size_below_one_is_refused():
    isolated = Graph(2, 0).adjacency()
    assert contains_multipartite(isolated, [3]) and contains_multipartite(isolated, [])
    for parts in ([0], [-1], [0, 3], [3, 0], [-1, 1], [0, 1, 1]):
        with pytest.raises(UserError, match="part sizes must all be >= 1"):
            contains_multipartite(isolated, parts)
    with pytest.raises(UserError, match=r"^part sizes must all be >= 1, got \[3, 0\]$"):
        contains_multipartite(isolated, [3, 0])


def test_multipartite_matches_largest_first_oracle_on_random_graphs():
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.choice([0.3, 0.6, 0.9]))
        parts = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        found = contains_multipartite(g.adjacency(), parts)
        assert found == largest_first_multipartite(g, parts)


def test_multipartite_matches_largest_first_oracle_on_seed_intersections():
    # construct --parts 4 --t 24: host K_{4,26}, 26 seeds, 351 pairs i <= j
    built = multipartite_family((4,), 24)
    n = built.host.n
    seeds = construction_seeds(built)
    hits = {}
    for parts in ((4, 24), (4, 25), (3, 26), (1, 1, 2)):
        hits[parts] = 0
        for i, a in enumerate(seeds):
            for b in seeds[i:]:
                g = Graph(n, a & b)
                found = contains_multipartite(g.adjacency(), parts)
                assert found == largest_first_multipartite(g, parts)
                hits[parts] += found
    # a pair of distinct seeds misses two vertices of the 26-part, one seed one
    assert hits == {(4, 24): 351, (4, 25): 26, (3, 26): 0, (1, 1, 2): 0}


def test_intersection_rows_are_the_rowwise_and():
    # the builder and the verifier hand the tests rows they build without
    # decoding the edge set: an intersection's rows are its parts' rows ANDed
    rng = random.Random(41)
    pairs = []
    for _ in range(300):
        n = rng.randint(1, 30)
        p = rng.choice([0.3, 0.6, 0.9])
        pairs.append((n, random_graph(rng, n, p).edges, random_graph(rng, n, p).edges))
    built = multipartite_family((4,), 24)
    seeds = construction_seeds(built)
    pairs += [(built.host.n, a, b) for i, a in enumerate(seeds) for b in seeds[i:]]
    for n, x, y in pairs:
        rows = [a & b for a, b in zip(Graph(n, x).adjacency(), Graph(n, y).adjacency())]
        assert Graph(n, x & y).adjacency() == rows
        assert rows_edges(rows) == x & y


# ---------------------------------------------------------------------------
# oracle equivalence: the engines vs the searches they replaced, and networkx
# ---------------------------------------------------------------------------


def test_specialized_engines_match_generic_exhaustively():
    """Every graph on at most 5 vertices: the P4 test, the multipartite test
    and the generic test agree with the column scan, the degree-ordered
    backtracking and the smallest-first part search that the one
    twin-ordered search replaced."""
    assert 0 < check_engines_exhaustively() < 6 * 1099


def test_containment_matches_networkx_on_random_graphs():
    rng = random.Random(43)
    outcomes = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7, 0.9]))
        adj = g.adjacency()
        h = rng.choice(GENERIC_TARGETS + [random_graph(rng, rng.randint(2, 5), 0.6)])
        found = contains_subgraph(adj, h)
        assert found == nx_contains(nx_graph(g), h), (g, h)
        outcomes.add(found)
        parts = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        if sum(parts) <= g.n:
            pattern = complete_multipartite(parts)
            assert contains_multipartite(adj, parts) == nx_contains(nx_graph(g), pattern)
    assert outcomes == {True, False}


def test_predicate_plans_its_target_once(spy):
    """A predicate decodes its target a fixed number of times, however many
    rows it tests: the paw over the rows of the 61 builds of a paw search."""
    tested = spy(detect, "contains_subgraph")  # the paw's test
    for m in (7, 8, 9):
        for host in connected_graphs(6, m):
            build_compatibility(host, PAW)
    rows = [args[0] for args in tested]  # a copy: the test below runs the spy again
    decodes = spy(Graph, "adjacency")
    check = containment_check(from_edges(4, [(3, 1), (3, 2), (1, 2), (2, 0)]))
    decodes.clear()
    hits = sum(check(r) for r in rows)
    assert (len(rows), hits) == (745, 581)
    assert len(decodes) <= 1


def test_containment_check_dispatch():
    # P4 in any labeling takes contains_p4; the other 4-vertex 3-edge graphs do not
    for perm in ([0, 1, 2, 3], [2, 0, 3, 1], [3, 1, 0, 2]):
        assert containment_check(apply_permutation(path(4), perm)) is contains_p4
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    triangle_plus_isolated = from_edges(4, [(0, 1), (0, 2), (1, 2)])
    rng = random.Random(7)
    for target in (star, triangle_plus_isolated, complete(3), path(5)):
        check = containment_check(target)
        assert check is not contains_p4
        for _ in range(50):
            g = random_graph(rng, 5)
            assert check(g.adjacency()) == contains_subgraph(g.adjacency(), target)
    check = containment_check(complete_multipartite([1, 2]))
    assert check(path(3).adjacency()) and not check(Graph(3, 1).adjacency())


ROUTES = ("contains_multipartite", "contains_p4", "contains_subgraph")


@pytest.fixture
def routes(spy):
    """The calls of each containment test through detect's module globals,
    by test name."""
    return {name: spy(detect, name) for name in ROUTES}


@pytest.mark.parametrize("target, route, parts", [
    (complete(3), "contains_multipartite", [1, 1, 1]),
    (cycle(4), "contains_multipartite", [2, 2]),  # K_{2,2}
    (from_edges(4, [(3, 0), (3, 1), (3, 2)]), "contains_multipartite", [1, 3]),
    (complete(2), "contains_multipartite", [1, 1]),
    (complete_multipartite([1, 1, 2]), "contains_multipartite", [1, 1, 2]),
    (from_edges(4, [(1, 2), (1, 3), (2, 3)]), "contains_multipartite", [1, 1, 1]),
    (path(4), "contains_p4", None),
    (from_edges(5, [(4, 2), (2, 0), (0, 3)]), "contains_p4", None),
    (cycle(5), "contains_subgraph", None),
    (path(5), "contains_subgraph", None),
    (PAW, "contains_subgraph", None),
], ids=["k3", "k22", "k13", "k11", "k112", "k3+isolated", "p4", "p4+isolated", "c5", "p5",
        "paw"])
def test_containment_check_route(routes, target, route, parts):
    check = containment_check(target)
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, 6)
        assert check(g.adjacency()) == contains_subgraph(g.adjacency(), target)
    assert {name for name, calls in routes.items() if calls} == {route}
    if parts is not None:
        assert all(sorted(args[1]) == parts for args in routes[route])


def _core_key(g):
    """Canonical key of g's core, its non-isolated vertices; None without edges."""
    adj = g.adjacency()
    core = [v for v in range(g.n) if adj[v]]
    if not core:
        return None
    index = {v: k for k, v in enumerate(core)}
    return canonical_key(from_edges(len(core), [(index[i], index[j]) for i, j in g.edge_pairs()]))


def _partitions(n, low=1):
    """Every ascending tuple of part sizes >= low summing to n."""
    if n == 0:
        yield ()
    for first in range(low, n + 1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_containment_check_agrees_with_generic_on_every_small_target(routes):
    """Every labeled target on at most 5 vertices: the dispatched predicate
    agrees with the degree-ordered backtracking, and the multipartite route
    is taken exactly when the target's core is complete multipartite."""
    multipartite = {_core_key(complete_multipartite(parts))
                    for n in range(1, 6) for parts in _partitions(n)}
    p4 = _core_key(path(4))
    rng = random.Random(5)
    hosts = [random_graph(rng, 6, p) for p in (0.3, 0.5, 0.7, 0.9) for _ in range(4)]
    targets = 0
    outcomes = set()
    for n in range(1, 6):
        for edges in range(1 << pair_count(n)):
            target = Graph(n, edges)
            key = _core_key(target)
            for calls in routes.values():
                calls.clear()
            check = containment_check(target)
            for g in hosts:
                found = check(g.adjacency())
                assert found == degree_ordered_subgraph(g.adjacency(), target), (target, g)
                outcomes.add(found)
            expected = ("contains_p4" if key == p4 else
                        "contains_multipartite" if key in multipartite else "contains_subgraph")
            assert {name for name, calls in routes.items() if calls} == {expected}, target
            targets += 1
    assert targets == 1099 and outcomes == {True, False}
