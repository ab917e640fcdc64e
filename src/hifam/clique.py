"""Compatibility graphs over candidate subgraphs, and exact maximum clique.

For a host graph and a target pattern, the compatibility graph has one
vertex per edge subset of the host that itself contains the target, with an
edge between two subsets whenever their intersection contains the target.
A maximum clique is then a maximum intersecting family supported by the
host, and the solver must be exact: the point is an optimality statement,
so a heuristic proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .density import DyadicDensity
from .detect import MultipartiteTarget, TargetLike, containment_check
from .graphs import Graph, submasks

MAX_HOST_EDGES = 16


@dataclass
class CompatibilityGraph:
    """Auxiliary graph: candidate edge subsets plus adjacency bitsets.

    ``labels[i]`` is the i-th candidate as a bitset over the host's edge
    indexing; ``adjacency[i]`` is a bitset over candidate indices;
    ``host_edges`` is the host's edge count, the density exponent.
    ``sup[i]`` and ``sub[i]`` are bitsets over candidate indices too: the
    candidates whose labels contain ``labels[i]``, and those it contains,
    i itself in both.  Synthetic instances (e.g. solver tests) may leave
    host_edges 0 and sup and sub None; the solver then takes every
    candidate to contain only itself.
    """

    labels: list[int]
    adjacency: list[int]
    host_edges: int = 0
    sup: list[int] | None = None
    sub: list[int] | None = None

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass
class CliqueResult:
    """An exact maximum clique with its family density on the host."""

    size: int
    witness: list[int] = field(default_factory=list)
    density: DyadicDensity = DyadicDensity(0, 0)
    # search nodes of phase 1 (the optimum) and of phase 2's feasibility
    # searches (the witness); machine-independent work counters
    phase1_nodes: int = 0
    phase2_nodes: int = 0


def _copy_vertex_count(target: TargetLike) -> int:
    """Vertices a copy of the target touches: its non-isolated ones."""
    if isinstance(target, MultipartiteTarget):
        return target.vertex_count if len(target.parts) > 1 else 0
    return sum(1 for row in target.adjacency() if row)


@lru_cache(maxsize=None)
def _clear_masks(e: int) -> tuple[int, ...]:
    """Per edge bit i < e, the compact indices below 2^e whose bit i is 0.

    That is a block of 2^i ones repeated every 2^(i+1) bits: the 2^e-bit
    all-ones number divided by 2^(2^(i+1)) - 1 has a one at the start of
    each period, and the product spreads it over the block.
    """
    full = (1 << (1 << e)) - 1
    return tuple(full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(e))


def build_compatibility(host: Graph, target: TargetLike) -> CompatibilityGraph:
    """Compatibility graph of all target-containing edge subsets of the host.

    Candidates are the edge subsets that contain the target themselves (any
    clique of size >= 2 satisfies that automatically), in ascending order of
    their bitsets; two candidates are adjacent when their intersection
    contains the target.  Subsets are addressed by compact index, their
    position in ascending order: bit i picks the host's i-th edge, so every
    subset of an index comes before it and the AND of two indices is the
    index of the intersection.

    Every subset that holds the target contains a copy of it: a subset with
    the target's k edges that holds it, and whose edges therefore touch
    exactly as many vertices as the target has non-isolated ones.  So the
    containment predicate runs only on the k-edge subsets that touch that
    many vertices; the others cannot hold the target.  The copies, as set
    bits of one 2^e-bit table, are then closed upward by one shift per edge
    bit i, which passes each index with bit i clear on to the index with
    bit i set.  With k = 0 the empty set is the one copy and every subset a
    candidate; with k > e there is no copy and no candidate.

    Two sweeps over the lattice then give the adjacency.  A superset
    sweep sets ``up[c]`` to the candidates that contain c, which is also
    c's ``sup`` row; a subset sweep, in place, ORs into it ``up[t]`` for
    every candidate t inside c, and in the same pass fills ``down[c]``, the
    candidates inside c, which is c's ``sub`` row.  Candidates a and b are
    adjacent exactly when some candidate t lies inside both (take
    t = a & b), so row a is a's swept entry without its own bit.  Only
    candidates' entries are ever set: a superset of a candidate is one, and
    a subset with no candidate inside it keeps 0.  Hosts with more than
    MAX_HOST_EDGES edges raise ValueError at once: their 2^e lattice is out
    of reach.
    """
    e = host.edge_count
    if e > MAX_HOST_EDGES:
        raise ValueError(f"compatibility graphs capped at {MAX_HOST_EDGES} host edges, got {e}")
    check = containment_check(target)
    subsets = list(submasks(host.edges))
    ends = [1 << i | 1 << j for i, j in host.edge_pairs()]
    cover = _copy_vertex_count(target)
    table = 0
    for edges in combinations(range(e), target.edge_count):
        c = touched = 0
        for i in edges:
            c |= 1 << i
            touched |= ends[i]
        if touched.bit_count() == cover and check(Graph(host.n, subsets[c])):
            table |= 1 << c
    for i, clear in enumerate(_clear_masks(e)):
        table |= (table & clear) << (1 << i)
    # the table's set bits, read from its binary string: iter_bits would
    # copy the whole 2^e-bit table once per candidate
    cands = [c for c, bit in enumerate(bin(table)[:1:-1]) if bit == "1"]
    up = [0] * len(subsets)
    for i, c in enumerate(cands):
        up[c] = 1 << i
    down = up[:]
    bits = [1 << i for i in range(e)]
    for bit in bits:
        for c in cands:
            if not c & bit:
                up[c] |= up[c | bit]
    sup = [up[c] for c in cands]
    for bit in bits:
        for c in cands:
            if c & bit:
                up[c] |= up[c ^ bit]
                down[c] |= down[c ^ bit]
    adjacency = [up[c] & ~(1 << i) for i, c in enumerate(cands)]
    sub = [down[c] for c in cands]
    return CompatibilityGraph([subsets[c] for c in cands], adjacency, e, sup, sub)


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

    Some maximum clique of a compatibility graph is up-closed: the
    candidates containing a member of a clique form a clique, with the
    same intersections or larger ones.  Phase 1 finds the optimum with
    _upset_search over all candidates, which searches up-closed cliques
    only.  Phase 2 builds the witness one vertex at a time in ascending
    order, taking the first vertex whose remaining candidate set still
    holds a clique of the needed size; see _lex_min_clique.  Without sup
    and sub every candidate contains only itself, and both phases search
    every clique.
    """
    n = cg.size
    adj = cg.adjacency
    sup, sub = cg.sup, cg.sub
    if sup is None or sub is None:
        sup = sub = [1 << v for v in range(n)]
    best, clique, phase1_nodes = _upset_search((1 << n) - 1, 0, n + 1, adj, sup, sub)
    witness, phase2_nodes = _lex_min_clique(adj, sup, sub, n, best, clique)
    return CliqueResult(best, witness, DyadicDensity(best, cg.host_edges),
                        phase1_nodes, phase2_nodes)


def _upset_search(
    p_mask: int, floor: int, stop: int, adj: list[int], sup: list[int], sub: list[int]
) -> tuple[int, int, int]:
    """Largest up-closed clique inside p_mask, if it beats floor.

    p_mask must be up-closed: a candidate in it brings every candidate
    containing it.  Branch and bound over the candidates in top-first color
    order, pruned when size + color cannot beat the best so far.  Taking v
    takes all of ``sup[v] & p_mask``, a clique compatible with everything v
    is; the rest of the node's set then holds only v's neighbours outside
    it, so every set searched stays up-closed apart from the clique built
    so far.  Leaving v out drops ``sub[v]``, since an up-closed clique
    without v holds none of v's subsets; that can empty the set before a
    leaf, so a node's own clique counts when its loop ends.  The search
    stops at the first clique of size stop or more.  Returns (size, clique
    mask, nodes): size stays floor, with mask 0, when no clique beats it.
    """
    best = floor
    found = 0
    nodes = 0

    def expand(p_mask: int, size: int, clique: int) -> bool:
        nonlocal best, found, nodes
        nodes += 1
        if size < stop:
            for v, color in reversed(_color_sort(p_mask, adj)):
                if size + color <= best:
                    return False
                if not p_mask >> v & 1:
                    continue
                u = sup[v] & p_mask
                if expand(p_mask & adj[v] & ~u, size + u.bit_count(), clique | u):
                    return True
                p_mask &= ~sub[v]
        if size > best:
            best = size
            found = clique
            return size >= stop
        return False

    try:
        expand(p_mask, 0, 0)
    finally:
        # expand refers to itself; unbound here, it and the rows it holds
        # go with this call instead of waiting for the cycle collector
        del expand
    return best, found, nodes


def _lex_min_clique(
    adj: list[int], sup: list[int], sub: list[int], n: int, k: int, clique: int
) -> tuple[list[int], int]:
    """First clique of size k in lexicographic order of sorted vertex lists.

    ``clique`` is a known clique of size k (or 0).  Each step takes the
    lowest vertex v of the remaining set P such that P_v, the part of P
    above v and adjacent to it, still holds a clique of the needed size,
    and keeps a clique of that size inside P.  When v is that clique's
    lowest vertex, the rest of it proves P_v feasible; any other v is
    tested by _upset_search, which is exact here because every P_v is
    up-closed (a candidate's supersets come after it), and a hit is the
    next known clique.  Every step is proven before it is taken, so the
    loop never backtracks.  Returns (witness, feasibility-search nodes).
    """
    chosen: list[int] = []
    nodes = 0
    p_mask = (1 << n) - 1
    for need in range(k, 0, -1):
        q = p_mask
        while True:
            if not q:
                raise AssertionError("no clique of the optimum size found")
            low = q & -q
            v = low.bit_length() - 1
            rest = p_mask & adj[v] & -(low << 1)
            if low == clique & -clique:
                clique ^= low
                break
            size, found, count = _upset_search(rest, need - 2, need - 1, adj, sup, sub)
            nodes += count
            if size >= need - 1:
                clique = found
                break
            q ^= low
        chosen.append(v)
        p_mask = rest
    return chosen, nodes
