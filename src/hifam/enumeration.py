"""Host-class enumeration: one representative per isomorphism class.

The classes of n-vertex graphs with m edges are grown in one direction
only: add below half, complement above half.  Up to half the vertex pairs,
each level is grown from the level one edge below (McKay, "Isomorph-free
exhaustive generation", 1998) by adding missing edges to each (m-1)-edge
representative, one per orbit of its twin swaps.  Twins are as
graphs.twin_representatives defines them (N(u) - {v} = N(v) - {u}), and
swapping two twins is an automorphism, so two missing edges whose
endpoints lie in the same two twin classes (or both in one) give
isomorphic children, and only the first of them is added.  Each distinct
labeled child is keyed by the exact canonical key, so a set of keys
removes the remaining isomorphic duplicates and no canonical-parent test
is needed.  Above half, complement is a bijection between the classes
with m edges and those with slots - m, so each representative there is
the canonical key of one complement.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import (
    CANONICAL_MAX_VERTICES,
    Graph,
    UserError,
    canonical_key,
    iter_bits,
    pair_count,
    twin_representatives,
)


def is_connected(g: Graph) -> bool:
    """True iff all n vertices lie in one component.

    Connectivity is over the full vertex set: an isolated vertex makes the
    graph disconnected (unless n == 1).
    """
    adj = g.adjacency()
    seen = 1
    frontier = 1
    while frontier:
        reach = 0
        for v in iter_bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


@lru_cache(maxsize=None)
def _class_keys(n: int, m: int) -> tuple[int, ...]:
    """Canonical edge bitsets of all n-vertex graphs with m edges, ascending.

    Add below half, complement above half: up to half the pairs, each
    (m-1)-edge class gets the lowest missing edge of each orbit, keyed by
    the unordered pair of its endpoints' twin-class representatives, and
    each distinct labeled child is keyed once; above half, the classes are
    the complements of the (slots - m)-edge classes, one key each.
    Recurses on itself, not on connected_graphs, so that one call of
    connected_graphs stays one call however many levels it builds.
    """
    if m == 0:
        return (0,)
    slots = pair_count(n)
    full = (1 << slots) - 1
    if 2 * m > slots:
        labeled = [full ^ p for p in _class_keys(n, slots - m)]
    else:
        labeled = set()
        for p in _class_keys(n, m - 1):
            rep = twin_representatives(Graph(n, p).adjacency())
            missing = full ^ p
            orbits = {}  # the representatives' pair as a bitset -> the orbit's lowest edge
            for b, (i, j) in zip(iter_bits(missing), Graph(n, missing).edge_pairs()):
                orbits.setdefault(1 << rep[i] | 1 << rep[j], b)
            labeled.update(p | 1 << b for b in orbits.values())
    return tuple(sorted({canonical_key(Graph(n, edges)).edges for edges in labeled}))


@lru_cache(maxsize=None)
def connected_graphs(n: int, m: int, connected: bool = True) -> tuple[Graph, ...]:
    """One canonical representative per class of n-vertex graphs with m edges.

    With connected set, only the connected classes.  Representatives are
    the canonical forms themselves, in ascending order of edge bitset.  An
    edge count outside 0..C(n, 2) raises UserError, after n's own check; a
    connected class with too few edges is empty.
    """
    if not 1 <= n <= CANONICAL_MAX_VERTICES:
        raise UserError(
            f"host enumeration supports 1 <= n <= {CANONICAL_MAX_VERTICES}, got n={n}"
        )
    if not 0 <= m <= pair_count(n):
        raise UserError(f"edge count {m} outside 0..{pair_count(n)} for n={n}")
    if connected and m < n - 1:
        return ()
    graphs = (Graph(n, key) for key in _class_keys(n, m))
    return tuple(g for g in graphs if not connected or is_connected(g))
