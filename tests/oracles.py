"""Independent oracles that the library's fast paths are pinned against.

Each one is the plain, slow way to compute something the library computes
another way; tests compare the two.
"""

import itertools
from functools import lru_cache

from hifam import CompatibilityGraph, Graph, HostClass, is_connected
from hifam.graphs import edge_index, edge_pair, iter_bits, pair_count


def brute_force_clique(cg: CompatibilityGraph) -> int:
    """Independent oracle: maximum clique size by enumerating every clique.

    Plain depth-first extension in index order with no vertex ordering and
    no bounding; shares nothing with the branch-and-bound path beyond the
    adjacency representation.  Capped at 25 vertices.
    """
    if cg.size > 25:
        raise ValueError(f"brute-force oracle capped at 25 vertices, got {cg.size}")
    adjacency = cg.adjacency
    best = 0

    def grow(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            low = cand & -cand
            cand ^= low
            grow(cand & adjacency[low.bit_length() - 1], size + 1)

    grow((1 << cg.size) - 1, 0)
    return best


def compact_subsets(mask: int) -> list[int]:
    """Every subset of mask, listed by compact index.

    Bit i of the compact index selects the i-th set bit of mask, so index c
    maps to a subset and indices run 0 .. 2^popcount - 1.  This is the
    expansion the compatibility builder and the multipartite construction
    used before graphs.submasks.
    """
    positions = list(iter_bits(mask))
    out = []
    for compact in range(1 << len(positions)):
        subset = 0
        for i in iter_bits(compact):
            subset |= 1 << positions[i]
        out.append(subset)
    return out


@lru_cache(maxsize=None)
def _edge_slot_maps(n: int) -> list[tuple[int, ...]]:
    """For each permutation of [0, n), the induced permutation of edge slots."""
    pairs = [edge_pair(b, n) for b in range(pair_count(n))]
    maps = []
    for perm in itertools.permutations(range(n)):
        maps.append(tuple(edge_index(perm[i], perm[j], n) for i, j in pairs))
    return maps


@lru_cache(maxsize=1 << 16)
def canonical_edges(n: int, edges: int) -> int:
    """The canonical key by exhaustive minimization over all n! relabelings.

    This is how graphs.canonical_key computed it before it pruned the
    relabelings by degree.
    """
    bits = list(iter_bits(edges))
    best = edges
    for slot_map in _edge_slot_maps(n):
        permuted = 0
        for b in bits:
            permuted |= 1 << slot_map[b]
        if permuted < best:
            best = permuted
    return best


def labeled_classes(spec: HostClass) -> tuple[Graph, ...]:
    """Host classes by brute force over every labeled edge set.

    Each edge set with the requested edge count (and connectivity) is keyed
    by canonical_edges; the sorted distinct keys are the representatives.
    This is how enumeration.connected_graphs worked before it grew classes
    one edge at a time.
    """
    slots = pair_count(spec.n)
    if spec.m < 0 or spec.m > slots:
        return ()
    if spec.connected_only and spec.m < spec.n - 1:
        return ()
    keys = set()
    for combo in itertools.combinations(range(slots), spec.m):
        edges = 0
        for b in combo:
            edges |= 1 << b
        g = Graph(spec.n, edges)
        if spec.connected_only and not is_connected(g):
            continue
        keys.add(canonical_edges(spec.n, g.edges))
    return tuple(Graph(spec.n, key) for key in sorted(keys))
