"""Host-class enumeration: one representative per isomorphism class.

The classes of n-vertex graphs with m edges are grown from the classes one
edge away (McKay, "Isomorph-free exhaustive generation", 1998): below half
the vertex pairs, by adding each missing edge to each (m-1)-edge
representative; above half, by removing each edge from each (m+1)-edge
representative, starting from K_n.  Every child is keyed by the exact
canonical key, so a set of keys removes the duplicates and no
canonical-parent test is needed.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import (
    CANONICAL_MAX_VERTICES,
    FrozenRecord,
    Graph,
    canonical_key,
    iter_bits,
    pair_count,
)


class HostClass(FrozenRecord):
    """A family of host graphs: vertex count, edge count, connectivity flag."""

    __slots__ = ("n", "m", "connected_only")
    n: int
    m: int
    connected_only: bool

    def __init__(self, n: int, m: int, connected_only: bool = True) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "connected_only", connected_only)


def is_connected(g: Graph) -> bool:
    """True iff all n vertices lie in one component.

    Connectivity is over the full vertex set: an isolated vertex makes the
    graph disconnected (unless n == 1).
    """
    if g.n == 1:
        return True
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
    """Canonical keys of all n-vertex graphs with m edges, ascending.

    Recurses on itself, not on connected_graphs, so that one call of
    connected_graphs stays one call however many levels it builds.
    """
    slots = pair_count(n)
    full = (1 << slots) - 1
    if m == 0 or m == slots:
        return (full if m else 0,)
    if 2 * m <= slots:
        children = (p | 1 << b for p in _class_keys(n, m - 1) for b in iter_bits(full ^ p))
    else:
        children = (p ^ 1 << b for p in _class_keys(n, m + 1) for b in iter_bits(p))
    return tuple(sorted({canonical_key(Graph(n, child)).key for child in children}))


@lru_cache(maxsize=None)
def connected_graphs(spec: HostClass) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class in the host class.

    Representatives are the canonical forms themselves, in ascending order
    of canonical key.  Infeasible (n, m) combinations yield an empty tuple.
    """
    if spec.n > CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"host enumeration supports n <= {CANONICAL_MAX_VERTICES}, got n={spec.n}"
        )
    if spec.m < 0 or spec.m > pair_count(spec.n):
        return ()
    if spec.connected_only and spec.m < spec.n - 1:
        return ()
    graphs = (Graph(spec.n, key) for key in _class_keys(spec.n, spec.m))
    return tuple(g for g in graphs if not spec.connected_only or is_connected(g))
