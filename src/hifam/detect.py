"""Non-induced subgraph containment tests.

These decide whether a graph contains a copy of a target pattern -- the
primitive behind intersecting-family verification.  Containment is always
non-induced (extra edges never hurt), and isolated target vertices are
ignored: families here are edge subsets of a shared host, so only edges
matter.  Each test takes the tested graph as its adjacency rows, one
neighbour bitmask per vertex as Graph.adjacency() gives them, n being
their count, so a caller can build them from edges or rows it holds.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .graphs import Graph, iter_bits


def contains_subgraph(adj: list[int], h: Graph) -> bool:
    """True iff the graph with these adjacency rows contains a (not
    necessarily induced) copy of h.

    Backtracking over injective vertex maps, target vertices in descending
    degree order, pruned by degree and by adjacency to already-placed
    neighbors.  Isolated vertices of h are ignored.
    """
    hadj = h.adjacency()
    core = sorted(
        (v for v in range(h.n) if hadj[v]),
        key=lambda v: (-hadj[v].bit_count(), v),
    )
    if not core:
        return True
    if len(core) > len(adj):
        return False
    gdeg = [a.bit_count() for a in adj]

    position = {v: p for p, v in enumerate(core)}
    # for each position: g-vertices with enough degree, and the already-placed
    # h-neighbors it must attach to
    base = []
    placed_neighbors: list[list[int]] = []
    for p, v in enumerate(core):
        need = hadj[v].bit_count()
        base.append(sum(1 << u for u, d in enumerate(gdeg) if d >= need))
        placed_neighbors.append(
            [position[w] for w in iter_bits(hadj[v]) if position[w] < p]
        )

    return _place(0, 0, [0] * len(core), base, placed_neighbors, adj)


def _place(
    p: int, used: int, mapping: list[int], base: list[int], placed: list[list[int]], adj: list[int]
) -> bool:
    """Map core positions p.. to unused g-vertices, given mapping[:p]; one
    call per position, so the depth is at most the target's core size."""
    if p == len(mapping):
        return True
    allowed = base[p] & ~used
    for q in placed[p]:
        allowed &= adj[mapping[q]]
    for u in iter_bits(allowed):
        mapping[p] = u
        if _place(p + 1, used | 1 << u, mapping, base, placed, adj):
            return True
    return False


def contains_p4(adj: list[int]) -> bool:
    """True iff the graph with these adjacency rows contains a path on 4 vertices.

    Scan each edge {i, j}, i < j, column j's lower neighbours i in turn, for
    a neighbor of i besides j and a neighbor of j besides i that are not the
    same single vertex; equivalent to the generic backtracking test on the
    3-edge path.
    """
    for j, row in enumerate(adj):
        for i in iter_bits(row & ((1 << j) - 1)):
            a = adj[i] ^ 1 << j
            b = row ^ 1 << i
            if a and b and (a | b).bit_count() >= 2:
                return True
    return False


def contains_multipartite(adj: list[int], parts: Sequence[int]) -> bool:
    """True iff the graph with these adjacency rows contains the complete
    multipartite pattern with these part sizes.

    The sizes may come in any order; one part, or none, is an edgeless
    pattern, which every graph contains.  Recurses part by part, smallest
    first; every later part is restricted to the common neighborhood of all
    vertices chosen so far.  Within a part, vertices are taken in ascending
    order, so each placement is tried once.  The last part, the largest, needs no search: the pattern is
    there exactly when the common neighborhood holds at least that many
    vertices, since any of them will do.
    """
    sizes = sorted(parts)
    if len(sizes) <= 1:
        return True  # edgeless pattern
    if sum(sizes) > len(adj):
        return False
    rest_after = [sum(sizes[k + 1:]) for k in range(len(sizes) - 1)]
    full = (1 << len(adj)) - 1
    return _pick(0, sizes[0], full, full, sizes, rest_after, adj)


def _pick(
    k: int, count: int, cand: int, common: int, sizes: list[int], rest_after: list[int],
    adj: list[int],
) -> bool:
    """Place count more vertices of part k from cand, every later one in
    common; one call per placed vertex, so at most the core size deep."""
    if count == 0:
        k += 1
        count = sizes[k]
        cand = common
        if k == len(sizes) - 1:
            return cand.bit_count() >= count
    rest = rest_after[k]
    while cand:
        if cand.bit_count() < count:
            return False
        low = cand & -cand
        cand ^= low
        narrowed = common & adj[low.bit_length() - 1]
        if narrowed.bit_count() >= rest and _pick(
            k, count - 1, cand, narrowed, sizes, rest_after, adj
        ):
            return True
    return False


def containment_check(target: Graph) -> Callable[[list[int]], bool]:
    """Containment predicate for one target over a graph's adjacency rows:
    the one dispatch to the tests above.

    Only the target's core, its non-isolated vertices, counts.  A core with
    degrees 1, 1, 2, 2 (only P4 has them) goes to the contains_p4 scan.  A
    core in which each vertex's part, itself plus its non-neighbours, is
    also the part of every vertex in it is complete multipartite with those
    parts: any such target (K3, K_{2,4}, a star, an edgeless graph) goes to
    contains_multipartite.  Any other target goes to the generic
    backtracking test.  The tests are looked up in this module's globals,
    so one replaced there (as perfbench's tracer does) is the one that runs.
    """
    adj = target.adjacency()
    core = [v for v in range(target.n) if adj[v]]
    if sorted(adj[v].bit_count() for v in core) == [1, 1, 2, 2]:
        return contains_p4
    core_mask = sum(1 << v for v in core)
    part = {v: core_mask & ~adj[v] for v in core}
    if all(part[u] == part[v] for v in core for u in iter_bits(part[v])):
        sizes = sorted(p.bit_count() for p in set(part.values()))
        return lambda rows: contains_multipartite(rows, sizes)
    return lambda rows: contains_subgraph(rows, target)
