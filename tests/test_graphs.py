"""Graph core: edge indexing, permutations, canonicalization, formats."""

import random
import tracemalloc

import networkx as nx
import pytest

from hifam import (
    Graph,
    UserError,
    canonical_key,
    christofides_host,
    complete,
    complete_multipartite,
    connected_graphs,
    contains_subgraph,
    cycle,
    emit_graph6,
    from_edges,
    parse_edge_list,
    parse_graph6,
    path,
)
from hifam.graphs import edge_index, iter_bits, pair_count, submasks

from oracles import (
    apply_permutation,
    bitwise_emit_graph6,
    bitwise_parse_graph6,
    canonical_edges,
    compact_subsets,
    edge_pair,
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
    with pytest.raises(UserError, match=r"^self-pair \(2, 2\) is not an edge$"):
        edge_index(2, 2, 5)
    with pytest.raises(UserError, match=r"^vertex pair \(0, 5\) out of range for n=5$"):
        edge_index(0, 5, 5)
    with pytest.raises(UserError, match=r"^vertex pair \(-1, 2\) out of range for n=5$"):
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
    with pytest.raises(UserError, match=r"^vertex count 0 outside \[1, 64\]$"):
        Graph(0, 0)
    with pytest.raises(UserError, match=r"^vertex count 65 outside \[1, 64\]$"):
        Graph(65, 0)
    # only a caller's bug sets a bit past the pairs: not a user error
    with pytest.raises(ValueError) as info:
        Graph(3, 1 << 3)  # only 3 pair slots on 3 vertices
    assert not isinstance(info.value, UserError)


def test_from_edges_refuses_the_vertex_count_before_reading_a_pair():
    def pairs():
        raise AssertionError("a pair was read")
        yield

    with pytest.raises(UserError, match=r"^vertex count 65 outside \[1, 64\]$"):
        from_edges(65, pairs())


@pytest.mark.parametrize("build", [
    lambda: path(2000),
    lambda: cycle(2000),
    lambda: complete(2000),
    lambda: parse_edge_list("2000 1\n0 1999"),
], ids=["path", "cycle", "complete", "edge-list"])
def test_a_size_past_the_cap_is_refused_before_the_build(build):
    # 2,000 vertices' pairs, or a mask over their 1,999,000 slots, would take
    # half a MiB or more before Graph saw the vertex count
    tracemalloc.start()
    try:
        with pytest.raises(UserError, match=r"^vertex count 2000 outside \[1, 64\]$"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_shape_builders_up_to_the_cap():
    for n in range(1, 65):
        assert complete(n).edges == (1 << pair_count(n)) - 1
        assert path(n).edges == sum(1 << edge_index(v, v + 1, n) for v in range(n - 1))
        if n >= 3:
            assert cycle(n).edges == path(n).edges | 1 << edge_index(0, n - 1, n)
    with pytest.raises(UserError, match="^cycle needs at least 3 vertices$"):
        cycle(2)


@pytest.mark.parametrize("n", [1, 2, 6, 30, 63, 64])
def test_adjacency_matches_pairwise_oracle(n):
    rng = random.Random(n)
    graphs = [Graph(n, 0), complete(n)]
    graphs += [_random_graph(rng, n, p) for p in (0.1, 0.5, 0.9) for _ in range(5)]
    for g in graphs:
        assert g.adjacency() == pairwise_adjacency(g)
        assert g.edge_pairs() == [edge_pair(b, n) for b in iter_bits(g.edges)]


@pytest.mark.parametrize("n", [1, 2, 6, 30, 64])
def test_incident_edge_mask_matches_per_edge_oracle(n):
    # the edges at v as the construction builds them: v's adjacency row
    # encoded back by from_edges
    rng = random.Random(n)
    graphs = [Graph(n, 0), complete(n)]
    graphs += [_random_graph(rng, n, p) for p in (0.1, 0.5, 0.9) for _ in range(3)]
    for g in graphs:
        adj = g.adjacency()
        for v in range(n):
            star = from_edges(n, ((u, v) for u in iter_bits(adj[v])))
            assert star.edges == incident_edge_mask_by_edges(g, v), (g, v)


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
            key = canonical_key(Graph(n, edges)).edges
            assert key == tied_state_canonical_edges(n, edges), (n, edges)
    rng = random.Random(20261019)
    for n, count in ((7, 300), (8, 150)):
        for p in (0.15, 0.5, 0.85):
            for _ in range(count):
                g = _random_graph(rng, n, p)
                assert canonical_key(g).edges == tied_state_canonical_edges(n, g.edges), (
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
    with pytest.raises(UserError, match=r"^part sizes must all be >= 1, got \[\]$"):
        complete_multipartite([])
    with pytest.raises(UserError, match=r"^part sizes must all be >= 1, got \[2, 0\]$"):
        complete_multipartite([2, 0])
    # the part sizes are checked before the vertex cap
    with pytest.raises(UserError, match=r"^part sizes must all be >= 1, got \[70, 0\]$"):
        complete_multipartite([70, 0])
    with pytest.raises(UserError, match=r"^65 vertices exceeds the 64-vertex cap$"):
        complete_multipartite([60, 5])


def test_bipartite_edge_count_and_triangle_freeness():
    triangle = complete(3)
    for s in range(1, 9):
        for t in range(1, 9):
            g = complete_multipartite([s, t])
            assert g.edge_count == s * t
            assert not contains_subgraph(g.adjacency(), triangle)


@pytest.mark.parametrize("parts", [(1,), (2, 3), (1, 1, 1, 10), (3, 1, 4, 1, 5), (32, 32), (1,) * 64])
def test_multipartite_matches_the_part_by_part_pairs(parts):
    """Every pair of vertices in different consecutive blocks, listed block
    pair by block pair."""
    starts = [sum(parts[:k]) for k in range(len(parts))]
    pairs = [(i, j) for a in range(len(parts)) for b in range(a + 1, len(parts))
             for i in range(starts[a], starts[a] + parts[a])
             for j in range(starts[b], starts[b] + parts[b])]
    assert complete_multipartite(parts) == from_edges(sum(parts), pairs)


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


GRAPH6_REFUSALS = {
    "": "empty graph6 string",
    "\x1c": "empty graph6 string",  # str.strip() takes it for whitespace
    "B\x7f": "byte outside graph6 range in 'B\\x7f'",
    "~~": "unsupported graph6 size form",
    "?": "vertex count 0 outside [1, 64]",
    "~?A?": "vertex count 128 outside [1, 64]",
    "B": "expected 1 data bytes for n=3, got 0",
    "Bww": "expected 1 data bytes for n=3, got 2",
    "Bx": "nonzero padding bits",  # 'x' is 111001: the 3 pair bits, then 001
}


@pytest.mark.parametrize("bad", list(GRAPH6_REFUSALS))
def test_parse_errors(bad):
    with pytest.raises(UserError) as err:
        parse_graph6(bad)
    assert str(err.value) == GRAPH6_REFUSALS[bad]


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


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except UserError as exc:
        return str(exc)


def test_codec_matches_the_bitwise_oracle():
    """The bit-string codec against the per-bit loops it replaced: the same
    string for every class on up to 7 vertices and for random graphs on
    1..64 vertices, and the same graph or the same message for every string,
    the ones emitted with one to three random edits and random ones over the
    graph6 alphabet plus a space, \\x1c and \\x7f."""
    graphs = [g for n in range(1, 8) for m in range(pair_count(n) + 1)
              for g in connected_graphs(n, m, False)]
    rng = random.Random(6)
    graphs += [g for n in range(1, 65) for g in (Graph(n, 0), complete(n), _random_graph(rng, n))]
    assert len(graphs) == 1252 + 3 * 64  # every class on 1..7 vertices, then 3 graphs per n
    strings = [emit_graph6(g) for g in graphs]
    assert strings == [bitwise_emit_graph6(g) for g in graphs]
    assert [parse_graph6(text) for text in strings] == graphs
    alphabet = [chr(c) for c in range(63, 127)] + [" ", "\x1c", "\x7f"]
    tried = list(strings)
    for _ in range(5000):
        if rng.random() < 0.5:
            chars = list(rng.choice(strings))
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(chars) + 1)
                edit = rng.randrange(3)
                if edit == 0 or at == len(chars):
                    chars.insert(at, rng.choice(alphabet))
                elif edit == 1:
                    chars[at] = rng.choice(alphabet)
                else:
                    del chars[at]
            tried.append("".join(chars))
        else:
            tried.append("".join(rng.choices(alphabet, k=rng.choice([1, 2, 3, 4, 5, 12]))))
    for text in tried:
        assert _parse_outcome(parse_graph6, text) == _parse_outcome(bitwise_parse_graph6, text)


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


EDGE_LIST_ERRORS = [
    ("", "empty edge-list text"),
    ("3\n", "bad edge-list header '3'"),
    ("3 2\n0 1\n", "header declares 2 edges, found 1 lines"),
    ("3 2\n0 1\n0 1\n", "duplicate edges in edge list"),
    ("3 2\n0 x\n0 3\n", "bad edge line '0 x'"),  # the first fault in line order
    ("3 2\n0 3\n0 x\n", "vertex pair (0, 3) out of range for n=3"),
    ("3 2\n1 1\n0 x\n", "self-pair (1, 1) is not an edge"),
    ("65 1\n0 70\n", "vertex count 65 outside [1, 64]"),  # before any line
    ("65 2\n0 70\n", "header declares 2 edges, found 1 lines"),
]


def test_edge_list_errors():
    for text, message in EDGE_LIST_ERRORS:
        with pytest.raises(UserError) as info:
            parse_edge_list(text)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# the fixed host
# ---------------------------------------------------------------------------


def test_christofides_host_shape():
    g = christofides_host()
    assert (g.n, g.edge_count) == (6, 7)
    assert sorted(row.bit_count() for row in g.adjacency()) == [1, 2, 2, 2, 3, 4]
    assert contains_subgraph(g.adjacency(), path(4))
