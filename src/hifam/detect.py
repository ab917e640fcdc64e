"""Non-induced subgraph containment tests.

These decide whether a graph contains a copy of a target pattern -- the
primitive behind intersecting-family verification.  Containment is always
non-induced (extra edges never hurt), and isolated target vertices are
ignored: families here are edge subsets of a shared host, so only edges
matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .graphs import Graph, iter_bits


@dataclass(frozen=True)
class MultipartiteTarget:
    """A complete multipartite pattern given by its part sizes."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"part sizes must all be >= 1, got {list(parts)}")
        object.__setattr__(self, "parts", tuple(parts))

    @property
    def vertex_count(self) -> int:
        return sum(self.parts)

    @property
    def edge_count(self) -> int:
        total = self.vertex_count
        return (total * total - sum(p * p for p in self.parts)) // 2


TargetLike = Union[Graph, MultipartiteTarget]


def intersection(f: Graph, f2: Graph) -> Graph:
    """Edge intersection of two graphs on the same labeled vertex set."""
    if f.n != f2.n:
        raise ValueError(f"vertex counts differ: {f.n} vs {f2.n}")
    return Graph(f.n, f.edges & f2.edges)


def contains_subgraph(g: Graph, h: Graph) -> bool:
    """True iff g contains a (not necessarily induced) copy of h.

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
    if len(core) > g.n:
        return False
    gadj = g.adjacency()
    gdeg = [a.bit_count() for a in gadj]

    position = {v: p for p, v in enumerate(core)}
    # for each position: g-vertices with enough degree, and the already-placed
    # h-neighbors it must attach to
    base = []
    placed_neighbors: list[list[int]] = []
    for p, v in enumerate(core):
        need = hadj[v].bit_count()
        base.append(sum(1 << u for u in range(g.n) if gdeg[u] >= need))
        placed_neighbors.append(
            [position[w] for w in iter_bits(hadj[v]) if position[w] < p]
        )

    mapping = [0] * len(core)

    def place(p: int, used: int) -> bool:
        if p == len(core):
            return True
        allowed = base[p] & ~used
        for q in placed_neighbors[p]:
            allowed &= gadj[mapping[q]]
        for u in iter_bits(allowed):
            mapping[p] = u
            if place(p + 1, used | 1 << u):
                return True
        return False

    try:
        return place(0, 0)
    finally:
        del place  # break the closure's reference to itself


def contains_p4(g: Graph) -> bool:
    """True iff g contains a path on 4 vertices.

    Scan each edge {u, v} for a neighbor of u besides v and a neighbor of v
    besides u that are not the same single vertex; equivalent to the generic
    backtracking test on the 3-edge path.
    """
    adj = g.adjacency()
    for i, j in g.edge_pairs():
        a = adj[i] & ~(1 << j)
        b = adj[j] & ~(1 << i)
        if a and b and (a | b).bit_count() >= 2:
            return True
    return False


def contains_multipartite(g: Graph, target: MultipartiteTarget) -> bool:
    """True iff g contains a complete multipartite pattern of the given sizes.

    Recurses part by part (largest first); every later part is restricted to
    the common neighborhood of all vertices chosen so far.  Within a part,
    vertices are taken in ascending order, so each placement is tried once.
    """
    sizes = sorted(target.parts, reverse=True)
    if len(sizes) == 1:
        return True  # edgeless pattern
    if sum(sizes) > g.n:
        return False
    adj = g.adjacency()
    rest_after = [sum(sizes[k + 1:]) for k in range(len(sizes))]

    def pick(k: int, count: int, cand: int, common: int) -> bool:
        """Place count more vertices of part k from cand; every vertex
        placed later must lie in common."""
        if count == 0:
            k += 1
            if k == len(sizes):
                return True
            count = sizes[k]
            cand = common
        rest = rest_after[k]
        while cand:
            if cand.bit_count() < count:
                return False
            low = cand & -cand
            cand ^= low
            narrowed = common & adj[low.bit_length() - 1]
            if narrowed.bit_count() >= rest and pick(k, count - 1, cand, narrowed):
                return True
        return False

    full = (1 << g.n) - 1
    try:
        return pick(0, sizes[0], full, full)
    finally:
        del pick  # break the closure's reference to itself


def containment_check(target: TargetLike) -> Callable[[Graph], bool]:
    """Containment predicate for one target: the one dispatch to the tests above.

    Complete multipartite patterns go to contains_multipartite; a 4-vertex
    3-edge graph with degrees 1, 1, 2, 2 (only P4 has them) goes to the
    contains_p4 scan; any other graph to the generic backtracking test.
    """
    if isinstance(target, MultipartiteTarget):
        return lambda g: contains_multipartite(g, target)
    if target.n == 4 and target.edge_count == 3 and target.degree_sequence() == [1, 1, 2, 2]:
        return contains_p4
    return lambda g: contains_subgraph(g, target)
