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
from .graphs import Graph, iter_bits

PAIR_TABLE_MAX_EDGES = 16


@dataclass
class CompatibilityGraph:
    """Auxiliary graph: candidate edge subsets plus adjacency bitsets.

    ``labels[i]`` is the i-th candidate as a bitset over the host's edge
    indexing; ``adjacency[i]`` is a bitset over candidate indices.  The
    host/target are kept for density bookkeeping and witness verification;
    synthetic instances (e.g. solver tests) may leave them None.
    """

    labels: list[int]
    adjacency: list[int]
    host: Graph | None = None
    target: Graph | None = None
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

    Candidates are the edge subsets that contain the target themselves (a
    strictly stronger filter than the minimum edge count, and one that any
    clique of size >= 2 satisfies automatically); two candidates are
    adjacent when their intersection contains the target.
    """
    e = host.edge_count
    if e > 20:
        raise ValueError(f"compatibility graphs capped at 20 host edges, got {e}")
    check = containment_check(target)
    positions = list(iter_bits(host.edges))

    def expand(compact: int) -> int:
        full = 0
        for i in iter_bits(compact):
            full |= 1 << positions[i]
        return full

    min_edges = target.edge_count
    if e <= PAIR_TABLE_MAX_EDGES:
        # one containment test per subset; pair tests become table lookups
        table = bytearray(1 << e)
        for compact in range(1 << e):
            table[compact] = check(Graph(host.n, expand(compact)))
        cands = [c for c in range(1 << e) if c.bit_count() >= min_edges and table[c]]
        adjacency = [0] * len(cands)
        for a in range(len(cands)):
            for b in range(a + 1, len(cands)):
                if table[cands[a] & cands[b]]:
                    adjacency[a] |= 1 << b
                    adjacency[b] |= 1 << a
    else:
        cands = [
            c for c in range(1 << e)
            if c.bit_count() >= min_edges and check(Graph(host.n, expand(c)))
        ]
        adjacency = [0] * len(cands)
        for a in range(len(cands)):
            for b in range(a + 1, len(cands)):
                if check(Graph(host.n, expand(cands[a] & cands[b]))):
                    adjacency[a] |= 1 << b
                    adjacency[b] |= 1 << a
    labels = [expand(c) for c in cands]
    return CompatibilityGraph(labels, adjacency, host, target, e)


# ---------------------------------------------------------------------------
# exact solver: branch and bound with a greedy coloring bound
# ---------------------------------------------------------------------------


def _color_sort(p_mask: int, adj: list[int]) -> list[tuple[int, int]]:
    """Greedy-color the candidate set; returns (vertex, color) ascending by color.

    The color count bounds the clique size within p_mask: a clique meets
    each color class at most once.
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


def _color_count(p_mask: int, adj: list[int]) -> int:
    count = 0
    rest = p_mask
    while rest:
        count += 1
        avail = rest
        while avail:
            low = avail & -avail
            avail = (avail ^ low) & ~adj[low.bit_length() - 1]
            rest ^= low
    return count


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
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 1000))

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

    expand((1 << n) - 1, 0)

    witness = _lex_min_clique(cg.adjacency, n, best)
    return CliqueResult(best, witness, DyadicDensity(best, cg.host_edges))


def _lex_min_clique(adjacency: list[int], n: int, k: int) -> list[int]:
    """First clique of size k in lexicographic order of sorted vertex lists."""
    if k == 0:
        return []
    chosen: list[int] = []

    def search(p_mask: int, need: int) -> bool:
        if need == 0:
            return True
        if p_mask.bit_count() < need or _color_count(p_mask, adjacency) < need:
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
