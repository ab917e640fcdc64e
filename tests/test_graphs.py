"""Graph core: edge indexing, permutations, canonicalization, formats."""

import random

import networkx as nx
import pytest

from hifam import (
    Graph,
    Graph6Error,
    apply_permutation,
    canonical_key,
    christofides_host,
    complete,
    complete_multipartite,
    contains_subgraph,
    cycle,
    emit_graph6,
    from_edges,
    parse_edge_list,
    parse_graph6,
    path,
)
from hifam.graphs import _canonical_edges, edge_index, edge_pair, pair_count, submasks

from oracles import (
    canonical_edges,
    compact_subsets,
    incident_edge_mask_by_edges,
    pairwise_adjacency,
    tied_state_canonical_edges,
)


def _random_graph(rng, n, p=0.5):
    mask = 0
    for b in range(pair_count(n)):
        if rng.random() < p:
            mask |= 1 << b
    return Graph(n, mask)


# ---------------------------------------------------------------------------
# edge indexing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("i,j,n,expected", [
    (0, 1, 4, 0),
    (2, 3, 4, 5),
    (0, 3, 6, 3),
])
def test_edge_index_examples(i, j, n, expected):
    assert edge_index(i, j, n) == expected
    assert edge_index(j, i, n) == expected  # order-insensitive


def test_edge_index_rejects_bad_pairs():
    with pytest.raises(ValueError):
        edge_index(2, 2, 5)
    with pytest.raises(ValueError):
        edge_index(0, 5, 5)
    with pytest.raises(ValueError):
        edge_index(-1, 2, 5)


@pytest.mark.parametrize("n", range(2, 11))
def test_edge_index_bijection(n):
    image = sorted(edge_index(i, j, n) for i in range(n) for j in range(i + 1, n))
    assert image == list(range(pair_count(n)))


def test_edge_pair_inverts_edge_index():
    for n in range(2, 9):
        for b in range(pair_count(n)):
            i, j = edge_pair(b, n)
            assert edge_index(i, j, n) == b


def test_submasks_match_compact_expansion():
    rng = random.Random(113)
    masks = [0, 1 << 9, (1 << pair_count(5)) - 1]
    for _ in range(60):
        bits = rng.sample(range(pair_count(12)), rng.randint(0, 12))
        masks.append(sum(1 << b for b in bits))
    for mask in masks:
        assert list(submasks(mask)) == compact_subsets(mask), hex(mask)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, 0)
    with pytest.raises(ValueError):
        Graph(65, 0)
    with pytest.raises(ValueError):
        Graph(3, 1 << 3)  # only 3 pair slots on 3 vertices


@pytest.mark.parametrize("n", [1, 2, 6, 30, 63, 64])
def test_adjacency_matches_pairwise_oracle(n):
    rng = random.Random(n)
    graphs = [Graph(n, 0), complete(n)]
    graphs += [_random_graph(rng, n, p) for p in (0.1, 0.5, 0.9) for _ in range(5)]
    for g in graphs:
        assert g.adjacency() == pairwise_adjacency(g)


@pytest.mark.parametrize("n", [1, 2, 6, 30, 64])
def test_incident_edge_mask_matches_per_edge_oracle(n):
    rng = random.Random(n)
    graphs = [Graph(n, 0), complete(n)]
    graphs += [_random_graph(rng, n, p) for p in (0.1, 0.5, 0.9) for _ in range(3)]
    for g in graphs:
        for v in range(n):
            assert g.incident_edge_mask(v) == incident_edge_mask_by_edges(g, v), (g, v)


# ---------------------------------------------------------------------------
# permutation action
# ---------------------------------------------------------------------------


def test_identity_permutation_is_noop():
    g = christofides_host()
    assert apply_permutation(g, list(range(6))) == g


def test_swap_moves_single_edge():
    g = from_edges(3, [(0, 1)])
    assert apply_permutation(g, [0, 2, 1]) == from_edges(3, [(0, 2)])


def test_path_rotation_preserves_canonical_key():
    g = path(3)
    rotated = apply_permutation(g, [1, 2, 0])
    assert rotated != g
    assert canonical_key(rotated) == canonical_key(g)


def test_non_bijective_permutation_rejected():
    with pytest.raises(ValueError):
        apply_permutation(path(3), [0, 0, 1])


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def test_isomorphic_paths_share_key():
    a = path(4)
    b = from_edges(4, [(2, 0), (0, 3), (3, 1)])  # path 2-0-3-1
    assert canonical_key(a) == canonical_key(b)


def test_path_and_star_differ():
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_key(path(4)) != canonical_key(star)


def test_christofides_key_is_permutation_invariant():
    g = christofides_host()
    key = canonical_key(g)
    rng = random.Random(7)
    for _ in range(50):
        perm = list(range(6))
        rng.shuffle(perm)
        assert canonical_key(apply_permutation(g, perm)) == key


def test_key_invariance_small_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 6)
        g = _random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_key(apply_permutation(g, perm)) == canonical_key(g)


def test_canonical_key_matches_exhaustive_oracle():
    # every labeled graph up to 5 vertices
    for n in range(1, 6):
        for edges in range(1 << pair_count(n)):
            assert canonical_key(Graph(n, edges)).edges == canonical_edges(n, edges), (n, edges)
    # empty, complete and regular graphs (large automorphism groups)
    special = [Graph(6, 0), complete(6), cycle(6), complete_multipartite([3, 3]),
               complete_multipartite([2, 2, 2]), Graph(6, complete(3).edges),
               from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
               from_edges(6, [(0, 1), (2, 3), (4, 5)]),
               from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                              (0, 3), (1, 4), (2, 5)]),
               Graph(7, 0), complete(7), cycle(7),
               from_edges(7, [(v, (v + d) % 7) for v in range(7) for d in (1, 2)])]
    # seeded random graphs at every density
    rng = random.Random(20261018)
    randoms = [_random_graph(rng, 6, rng.random()) for _ in range(2000)]
    randoms += [_random_graph(rng, 7, rng.random()) for _ in range(200)]
    for g in special + randoms:
        assert canonical_key(g).edges == canonical_edges(g.n, g.edges), (g.n, g.edges)


def test_column_first_key_matches_tied_state_oracle():
    # the column-first routine against the one that refines every tried
    # vertex: every labeled graph up to 6 vertices, then seeded random 7-
    # and 8-vertex graphs at low, middle and high edge density
    for n in range(1, 7):
        for edges in range(1 << pair_count(n)):
            assert _canonical_edges(n, edges) == tied_state_canonical_edges(n, edges), (n, edges)
    rng = random.Random(20261019)
    for n, count in ((7, 300), (8, 150)):
        for p in (0.15, 0.5, 0.85):
            for _ in range(count):
                g = _random_graph(rng, n, p)
                assert _canonical_edges(n, g.edges) == tied_state_canonical_edges(n, g.edges), (
                    n, g.edges)


def test_canonical_key_size_cap():
    with pytest.raises(ValueError):
        canonical_key(Graph(9, 0))


# ---------------------------------------------------------------------------
# complete multipartite
# ---------------------------------------------------------------------------


def test_multipartite_examples():
    g = complete_multipartite([2, 6])
    assert (g.n, g.edge_count) == (8, 12)
    g = complete_multipartite([1, 1, 1, 10])
    assert (g.n, g.edge_count) == (13, 33)
    g = complete_multipartite([5])
    assert (g.n, g.edge_count) == (5, 0)
    g = complete_multipartite([2, 2, 16])
    assert (g.n, g.edge_count) == (20, 68)


def test_multipartite_rejects_bad_parts():
    with pytest.raises(ValueError):
        complete_multipartite([])
    with pytest.raises(ValueError):
        complete_multipartite([2, 0])


def test_bipartite_edge_count_and_triangle_freeness():
    triangle = complete(3)
    for s in range(1, 9):
        for t in range(1, 9):
            g = complete_multipartite([s, t])
            assert g.edge_count == s * t
            assert not contains_subgraph(g, triangle)


def test_multipartite_layout_is_consecutive():
    # parts {0, 1} and {2, 3, 4}: no edge inside a part, every edge across
    assert complete_multipartite([2, 3]) == from_edges(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)])


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def test_triangle_encodes_to_Bw():
    # size byte chr(63+3)='B'; bits 111 padded to 111000 -> 56 -> 'w'
    assert emit_graph6(complete(3)) == "Bw"
    assert parse_graph6("Bw") == complete(3)


def test_christofides_round_trip():
    g = christofides_host()
    assert parse_graph6(emit_graph6(g)) == g


def test_header_is_stripped():
    assert parse_graph6(">>graph6<<Bw") == complete(3)


@pytest.mark.parametrize("bad", ["", "B", "Bww", "\x1c", "~~"])
def test_parse_errors(bad):
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_round_trip_random():
    rng = random.Random(3)
    for _ in range(300):
        g = _random_graph(rng, rng.randint(1, 16))
        assert parse_graph6(emit_graph6(g)) == g


def test_emit_agrees_with_networkx():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 12)
        g = _random_graph(rng, n)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edge_pairs())
        expected = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert emit_graph6(g) == expected


def test_emit_four_byte_size_form_round_trips():
    # n = 63 and n = 64 need the '~' + 3-byte size form
    rng = random.Random(63)
    for n in (63, 64):
        for g in (Graph(n, 0), complete(n), _random_graph(rng, n)):
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(g.edge_pairs())
            text = emit_graph6(g)
            assert text == nx.to_graph6_bytes(G, header=False).decode().strip()
            assert text.startswith("~") and parse_graph6(text) == g


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------


def test_edge_list_round_trip():
    text = "6 7\n0 1\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n"  # 'n m', then 'i j' per edge
    assert parse_edge_list(text) == christofides_host()


def test_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # declares 2 edges, has 1
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n0 1\n")  # duplicate edge


# ---------------------------------------------------------------------------
# the fixed host
# ---------------------------------------------------------------------------


def test_christofides_host_shape():
    g = christofides_host()
    assert (g.n, g.edge_count) == (6, 7)
    assert g.degree_sequence() == [1, 2, 2, 2, 3, 4]
    assert contains_subgraph(g, path(4))
