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
from .detect import containment_check
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


def build_compatibility(host: Graph, target: Graph) -> CompatibilityGraph:
    """Compatibility graph of all target-containing edge subsets of the host.

    Candidates are the edge subsets that contain the target themselves (any
    clique of size >= 2 satisfies that automatically), in ascending order of
    their bitsets; two candidates are adjacent when their intersection
    contains the target.  Each of the host's 2^e edge subsets gets one
    containment test, stored in a table by compact index: the subset's
    position in ascending order, whose bit i picks the host's i-th edge, so
    the AND of two indices is the index of the intersection and every pair
    test is a table lookup.  Hosts with more than MAX_HOST_EDGES edges raise
    ValueError: the pair loop over up to 2^e candidates would not finish.
    """
    e = host.edge_count
    if e > MAX_HOST_EDGES:
        raise ValueError(f"compatibility graphs capped at {MAX_HOST_EDGES} host edges, got {e}")
    check = containment_check(target)
    subsets = list(submasks(host.edges))
    table = bytes(check(Graph(host.n, s)) for s in subsets)
    cands = [c for c in range(len(subsets)) if table[c]]
    adjacency = [0] * len(cands)
    for a, ca in enumerate(cands):
        for b in range(a + 1, len(cands)):
            if table[ca & cands[b]]:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
    return CompatibilityGraph([subsets[c] for c in cands], adjacency, e)


# ---------------------------------------------------------------------------
# exact solver: branch and bound with a greedy coloring bound
# ---------------------------------------------------------------------------


def _color_sort(p_mask: int, adj: list[int]) -> list[tuple[int, int]]:
    """Greedy-color the candidate set; returns (vertex, color) ascending by color.

    The last color, the color count, bounds the clique size within p_mask:
    a clique meets each color class at most once.
    """
    out = []
    color = 0
    rest = p_mask
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail = (avail ^ low) & ~adj[v]
            rest ^= low
            out.append((v, color))
    return out


def max_clique(cg: CompatibilityGraph) -> CliqueResult:
    """Exact maximum clique; witness is the lexicographically smallest one.

    Phase 1 finds the optimum size by branch and bound on bitset candidate
    sets (vertices pre-ordered by descending degree, greedy-coloring upper
    bound at every node).  Phase 2 re-searches in ascending vertex order,
    pruned by the same bound, so the first clique of optimum size it meets
    is the lexicographically smallest witness.
    """
    n = cg.size
    if n == 0:
        return CliqueResult(0, [], DyadicDensity(0, cg.host_edges))
    order = sorted(range(n), key=lambda v: (-cg.adjacency[v].bit_count(), v))
    rank = {v: r for r, v in enumerate(order)}
    adj = [0] * n
    for v in range(n):
        row = 0
        for w in iter_bits(cg.adjacency[v]):
            row |= 1 << rank[w]
        adj[rank[v]] = row

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
