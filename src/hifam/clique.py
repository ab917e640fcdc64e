"""Compatibility graphs over candidate subgraphs, and exact maximum clique.

For a host graph and a target pattern, the compatibility graph has one
vertex per edge subset of the host that itself contains the target, with an
edge between two subsets whenever their intersection contains the target.
A maximum clique is then a maximum intersecting family supported by the
host, and the solver must be exact: the point is an optimality statement,
so a heuristic proves nothing.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .density import DyadicDensity
from .detect import TargetLike, containment_check
from .graphs import Graph, iter_bits, submasks

MAX_HOST_EDGES = 16


@dataclass
class CompatibilityGraph:
    """Auxiliary graph: candidate edge subsets plus adjacency bitsets.

    ``labels[i]`` is the i-th candidate as a bitset over the host's edge
    indexing; ``adjacency[i]`` is a bitset over candidate indices;
    ``host_edges`` is the host's edge count, the density exponent.
    Synthetic instances (e.g. solver tests) may leave it 0.
    """

    labels: list[int]
    adjacency: list[int]
    host_edges: int = 0

    @property
    def size(self) -> int:
        return len(self.labels)

    def validate(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("candidate labels are not pairwise distinct")
        for i, row in enumerate(self.adjacency):
            if row >> i & 1:
                raise ValueError(f"adjacency row {i} is reflexive")
            for j in iter_bits(row):
                if not self.adjacency[j] >> i & 1:
                    raise ValueError(f"adjacency not symmetric at ({i}, {j})")


@dataclass
class CliqueResult:
    """An exact maximum clique with its family density on the host."""

    size: int
    witness: list[int] = field(default_factory=list)
    density: DyadicDensity = DyadicDensity(0, 0)


def build_compatibility(host: Graph, target: TargetLike) -> CompatibilityGraph:
    """Compatibility graph of all target-containing edge subsets of the host.

    Candidates are the edge subsets that contain the target themselves (any
    clique of size >= 2 satisfies that automatically), in ascending order of
    their bitsets; two candidates are adjacent when their intersection
    contains the target.  Subsets are addressed by compact index, their
    position in ascending order: bit i picks the host's i-th edge, so every
    subset of an index comes before it and the AND of two indices is the
    index of the intersection.

    Containment is monotone, so the predicate runs only on a subset none of
    whose one-edge-smaller subsets holds the target; any other subset holds
    it.  Two sweeps over the lattice then give the adjacency.  A superset
    sweep sets ``up[c]`` to the candidates that contain c; a subset sweep,
    in place, ORs into it ``up[t]`` for every candidate t inside c.
    Candidates a and b are adjacent exactly when some candidate t lies
    inside both (take t = a & b), so row a is a's swept entry without its
    own bit.  Only candidates' entries are ever set: a superset of a
    candidate is one, and a subset with no candidate inside it keeps 0.
    Hosts with more than MAX_HOST_EDGES edges raise ValueError at once:
    their 2^e lattice is out of reach.
    """
    e = host.edge_count
    if e > MAX_HOST_EDGES:
        raise ValueError(f"compatibility graphs capped at {MAX_HOST_EDGES} host edges, got {e}")
    check = containment_check(target)
    subsets = list(submasks(host.edges))
    table = bytearray(len(subsets))
    for c, s in enumerate(subsets):
        if any(table[c ^ (1 << i)] for i in iter_bits(c)) or check(Graph(host.n, s)):
            table[c] = 1
    cands = [c for c in range(len(subsets)) if table[c]]
    up = [0] * len(subsets)
    for i, c in enumerate(cands):
        up[c] = 1 << i
    bits = [1 << i for i in range(e)]
    for bit in bits:
        for c in cands:
            if not c & bit:
                up[c] |= up[c | bit]
    for bit in bits:
        for c in cands:
            if c & bit:
                up[c] |= up[c ^ bit]
    adjacency = [up[c] & ~(1 << i) for i, c in enumerate(cands)]
    return CompatibilityGraph([subsets[c] for c in cands], adjacency, e)


# ---------------------------------------------------------------------------
# exact solver: branch and bound with a greedy coloring bound
# ---------------------------------------------------------------------------


def _color_sort(p_mask: int, adj: list[int]) -> list[tuple[int, int]]:
    """Greedy-color the candidate set; returns (vertex, color) ascending by color.

    Each color class is filled from the highest vertex down, so in a
    compatibility graph every superset, compatible with all that its
    subsets are compatible with, is colored before them.  The last color,
    the color count, bounds the clique size within p_mask: a clique meets
    each color class at most once.
    """
    out = []
    color = 0
    rest = p_mask
    while rest:
        color += 1
        avail = rest
        while avail:
            v = avail.bit_length() - 1
            top = 1 << v
            avail = (avail ^ top) & ~adj[v]
            rest ^= top
            out.append((v, color))
    return out


def max_clique(cg: CompatibilityGraph) -> CliqueResult:
    """Exact maximum clique; witness is the lexicographically smallest one.

    Phase 1 finds the optimum size by branch and bound on bitset candidate
    sets in the given vertex order, with no reordering, and the top-first
    greedy-coloring upper bound at every node.  Phase 2 re-searches in
    ascending vertex order, pruned by the same bound, so the first clique of
    optimum size it meets is the lexicographically smallest witness.
    """
    n = cg.size
    if n == 0:
        return CliqueResult(0, [], DyadicDensity(0, cg.host_edges))
    adj = cg.adjacency

    best = 0

    def expand(p_mask: int, size: int) -> None:
        nonlocal best
        if not p_mask:
            if size > best:
                best = size
            return
        colored = _color_sort(p_mask, adj)
        for v, color in reversed(colored):
            if size + color <= best:
                return
            expand(p_mask & adj[v], size + 1)
            p_mask &= ~(1 << v)

    # both phases recurse once per clique vertex; the old limit comes back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * n + 1000))
    try:
        expand((1 << n) - 1, 0)
        witness = _lex_min_clique(cg.adjacency, n, best)
    finally:
        sys.setrecursionlimit(limit)
    return CliqueResult(best, witness, DyadicDensity(best, cg.host_edges))


def _lex_min_clique(adjacency: list[int], n: int, k: int) -> list[int]:
    """First clique of size k in lexicographic order of sorted vertex lists."""
    if k == 0:
        return []
    chosen: list[int] = []

    def search(p_mask: int, need: int) -> bool:
        if need == 0:
            return True
        if p_mask.bit_count() < need or _color_sort(p_mask, adjacency)[-1][1] < need:
            return False
        q = p_mask
        while q:
            low = q & -q
            q ^= low
            v = low.bit_length() - 1
            chosen.append(v)
            if search(p_mask & adjacency[v] & -(low << 1), need - 1):
                return True
            chosen.pop()
        return False

    if not search((1 << n) - 1, k):
        raise AssertionError("no clique of the optimum size found")
    return chosen
