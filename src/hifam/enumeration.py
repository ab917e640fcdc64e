"""Host-class enumeration: one representative per isomorphism class.

Host classes are enumerated by brute force over all labeled edge sets with
the requested edge count, deduplicated by canonical key.  At the sizes this
toolkit targets (n <= 8, realistically n = 6) that is a few thousand edge
sets and simplicity beats cleverness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graphs import CANONICAL_MAX_VERTICES, Graph, canonical_key, iter_bits, pair_count


@dataclass(frozen=True)
class HostClass:
    """A family of host graphs: vertex count, edge count, connectivity flag."""

    n: int
    m: int
    connected_only: bool = True


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
def connected_graphs(spec: HostClass) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class in the host class.

    Representatives are the canonical forms themselves, in ascending order
    of canonical key.  Infeasible (n, m) combinations yield an empty tuple.
    """
    if spec.n > CANONICAL_MAX_VERTICES:
        raise ValueError(
            f"host enumeration supports n <= {CANONICAL_MAX_VERTICES}, got n={spec.n}"
        )
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
        keys.add(canonical_key(g).key)
    return tuple(Graph(spec.n, key) for key in sorted(keys))

