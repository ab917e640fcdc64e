"""Compatibility graphs over candidate subgraphs, and exact maximum clique.

For a host graph and a target pattern, the compatibility graph has one
vertex per edge subset of the host that itself contains the target, with an
edge between two subsets whenever their intersection contains the target.
A maximum clique is then a maximum intersecting family supported by the
host, and the solver must be exact: the point is an optimality statement,
so a heuristic proves nothing.
"""

from __future__ import annotations

from itertools import combinations

from .detect import containment_check
from .graphs import Graph, Record, UserError, iter_bits

MAX_HOST_EDGES = 16
MAX_CANDIDATES = 1 << 14


class CompatibilityGraph(Record):
    """Auxiliary graph: candidate edge subsets plus adjacency bitsets.

    ``labels[i]`` is the i-th candidate as a bitset over the host's edge
    indexing; ``adjacency[i]`` is a bitset over candidate indices.
    ``sup[i]`` and ``sub[i]`` are bitsets over candidate indices too: the
    candidates whose labels contain ``labels[i]``, and those it contains,
    i itself in both.  The host is not kept: a family's density is the
    caller's to render from the host (see search.solve_host).
    """

    __slots__ = ("labels", "adjacency", "sup", "sub")
    labels: list[int]
    adjacency: list[int]
    sup: list[int]
    sub: list[int]

    def __init__(
        self, labels: list[int], adjacency: list[int], sup: list[int], sub: list[int]
    ) -> None:
        super().__init__(labels, adjacency, sup, sub)

    @property
    def size(self) -> int:
        return len(self.labels)


class CliqueResult(Record):
    """An exact maximum clique: its candidate indices, ascending.

    ``phase1_nodes`` and ``phase2_nodes`` count the search nodes of phase 1
    (the optimum) and of phase 2's feasibility searches (the witness);
    they are machine-independent work counters.
    """

    __slots__ = ("witness", "phase1_nodes", "phase2_nodes")
    witness: list[int]
    phase1_nodes: int
    phase2_nodes: int

    def __init__(self, witness: list[int], phase1_nodes: int = 0, phase2_nodes: int = 0) -> None:
        super().__init__(witness, phase1_nodes, phase2_nodes)

    @property
    def size(self) -> int:
        return len(self.witness)


def build_compatibility(host: Graph, target: Graph) -> CompatibilityGraph:
    """Compatibility graph of all target-containing edge subsets of the host.

    Candidates are the edge subsets that contain the target themselves (any
    clique of size >= 2 satisfies that automatically), in ascending order of
    their bitsets; two candidates are adjacent when their intersection
    contains the target.  Subsets are addressed by compact index: bit i
    picks the host's i-th edge, so indices order subsets as their bitsets
    do, and the AND of two indices is the index of the intersection.

    Every subset that holds the target contains a copy of it: a k-edge
    subset that holds it, whose edges touch exactly as many vertices as the
    target has non-isolated ones.  detect.containment_check's predicate
    runs only on those k-edge subsets, on rows built from their edges'
    endpoints, and the copies it accepts are closed upward in a set, one
    host edge at a time.  With k = 0 the empty set is the one copy; with
    k > e there is none.

    ``has[b]`` is the candidates holding edge b; c's ``sup`` row is the AND
    of ``has[b]`` over c's edges and its ``sub`` row the AND of their
    complements over the edges c lacks.  Each AND, and each label (the OR
    of c's host edge bits), splits over the low and high halves of the edge
    bits: one entry from each half's table of 2^(e/2) entries (one table of
    2^e would triple the peak at 16 edges).  Candidates a and b are
    adjacent exactly when a & b holds a copy, so row a is the OR of
    ``sup[t]`` over the copies t inside a, without a's own bit: each copy's
    row is ORed into the entry of t | s for every subset s of the edges t
    lacks, 2^(e-k) ORs per copy.

    More than MAX_HOST_EDGES host edges raise UserError at once, and so do
    more than MAX_CANDIDATES candidates, as soon as the set is closed: the
    rows grow with the square of the count (2^14 rows of 2^14 bits are
    32 MB a list; ``hifam clique --host k1,14 --target k2``, 16,383
    candidates, takes about 0.16 s and 140 MB RSS under CPython 3.11).
    """
    e = host.edge_count
    if e > MAX_HOST_EDGES:
        raise UserError(f"compatibility graphs capped at {MAX_HOST_EDGES} host edges, got {e}")
    check = containment_check(target)
    pairs = host.edge_pairs()
    ends = [1 << i | 1 << j for i, j in pairs]
    cover = sum(1 for row in target.adjacency() if row)
    copies = []
    for edges in combinations(range(e), target.edge_count):
        c = touched = 0
        for i in edges:
            c |= 1 << i
            touched |= ends[i]
        if touched.bit_count() == cover:
            rows = [0] * host.n
            for i in edges:
                a, b = pairs[i]
                rows[a] |= 1 << b
                rows[b] |= 1 << a
            if check(rows):
                copies.append(c)
    cands = set(copies)
    for bit in [1 << i for i in range(e)]:
        cands.update([c | bit for c in cands])
    if len(cands) > MAX_CANDIDATES:
        raise UserError(
            f"compatibility graphs capped at {MAX_CANDIDATES} candidates, got {len(cands)}"
        )
    cands = sorted(cands)
    everyone = (1 << len(cands)) - 1
    # bit b of every candidate, last candidate first, is a strided slice of
    # their e-bit strings; leading zeros make a number of an empty slice
    bits = "0" * e + (f"{{:0{e}b}}" * len(cands)).format(*cands)[::-1]
    has = [int(bits[b::e], 2) for b in range(e)]
    marks = [1 << b for b in iter_bits(host.edges)]
    half = e // 2
    tables = []
    for lo, hi in (0, half), (half, e):
        sup, sub, label = [everyone], [everyone], [0]  # doubled by each bit: entry x for subset x
        for row, mark in zip(has[lo:hi], marks[lo:hi]):
            sup, sub = sup + [r & row for r in sup], [r & ~row for r in sub] + sub
            label += [x | mark for x in label]
        tables += sup, sub, label
    lo_sup, lo_sub, lo_label, hi_sup, hi_sub, hi_label = tables
    low = (1 << half) - 1
    sup = [lo_sup[c & low] & hi_sup[c >> half] for c in cands]
    sub = [lo_sub[c & low] & hi_sub[c >> half] for c in cands]
    up = [0] * (1 << e)
    for t in copies:
        row = lo_sup[t & low] & hi_sup[t >> half]
        rest = s = (1 << e) - 1 ^ t
        while True:  # every subset s of rest, descending
            up[t | s] |= row
            if not s:
                break
            s = (s - 1) & rest
    adjacency = [up[c] ^ 1 << i for i, c in enumerate(cands)]
    labels = [lo_label[c & low] | hi_label[c >> half] for c in cands]
    return CompatibilityGraph(labels, adjacency, sup, sub)


# ---------------------------------------------------------------------------
# exact solver: branch and bound with a greedy coloring bound
# ---------------------------------------------------------------------------


def _color_sort(p_mask: int, excl: list[int], kmin: int) -> list[tuple[int, int]]:
    """Greedy-color the candidate set; returns (vertex, color) ascending by
    color, for the vertices whose color exceeds kmin only.

    ``excl[v]`` is every vertex but v and its neighbours.  Each color class
    is filled from the highest vertex down, so in a compatibility graph
    every superset, compatible with all that its subsets are compatible
    with, is colored before them.  A clique meets each color class at most
    once, so a vertex's color bounds the clique it can finish within the
    vertices colored up to it.  Every vertex is colored, so the classes do
    not depend on kmin; the caller's branch and bound would stop at the
    first vertex of color kmin or less, and those are not listed.
    """
    out = []
    color = 0
    rest = p_mask
    while rest:
        color += 1
        avail = rest
        while avail:
            v = avail.bit_length() - 1
            avail &= excl[v]
            rest ^= 1 << v
            if color > kmin:
                out.append((v, color))
    return out


def max_clique(cg: CompatibilityGraph) -> CliqueResult:
    """Exact maximum clique; witness is the lexicographically smallest one.

    The up-closure of a clique in a compatibility graph, the candidates
    containing one of its members, is a clique too: its intersections hold
    its members' intersections.  So every maximal clique, and every maximum
    one, is up-closed.  Phase 1 finds the optimum with _upset_search over
    all candidates, which searches up-closed cliques only.  It starts from
    ``sup[0]``, the up-set of the smallest candidate, and looks only for a
    larger clique: that candidate is a copy of the target, since a copy
    inside it comes no later, so its up-set is the trivial family.  Phase 2
    walks from the clique phase 1 found (or the trivial family) to the
    witness one vertex at a time in ascending order: the known clique's
    lowest vertex is always a feasible step, so only the vertices below it
    are tested, and a vertex whose remaining set still holds a clique of
    the size needed brings that clique along as the next known one; see
    _lex_min_clique.  Both phases read the ``sup`` and ``sub`` rows; with
    rows that hold only their own candidate (a plain graph, not a lattice)
    they search every clique, and phase 1 starts from vertex 0 alone.
    Both read adjacency only through the ``excl`` rows, each vertex's
    complement of its closed neighbourhood, built here once.
    """
    n = cg.size
    everyone = (1 << n) - 1
    excl = [everyone ^ (row | 1 << v) for v, row in enumerate(cg.adjacency)]
    sup, sub = cg.sup, cg.sub
    trivial = sup[0] if n else 0
    _, clique, phase1_nodes = _upset_search(everyone, trivial.bit_count(), n + 1, excl, sup, sub)
    witness, phase2_nodes = _lex_min_clique(excl, sup, sub, n, clique or trivial)
    return CliqueResult(witness, phase1_nodes, phase2_nodes)


def _upset_search(
    p_mask: int,
    floor: int,
    stop: int,
    excl: list[int],
    sup: list[int],
    sub: list[int],
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
    leaf, so a node's own clique counts when its order runs out.

    One loop over a stack of frames (set, size, clique, order), with no
    recursion: a node's order, an iterator over its coloring made when it
    is first popped, also holds the position reached.  The coloring lists
    only the vertices of color above best - size: best only grows while
    the order is alive, so the bound would stop at any other, and a node
    whose listing runs out instead has size below best.  Taking v pushes
    the frame that leaves v out, then v's child.  The search stops at the
    first clique of size stop or more.  Returns (size, clique mask, nodes):
    size stays floor, with mask 0, when no clique beats it.
    """
    best, found, nodes = floor, 0, 0
    stack = [(p_mask, 0, 0, None)]
    while stack:
        p_mask, size, clique, order = stack.pop()
        if order is None:
            nodes += 1
            order = reversed(_color_sort(p_mask, excl, best - size) if size < stop else [])
        for v, color in order:
            if size + color <= best:
                break
            if p_mask >> v & 1:
                u = sup[v] & p_mask
                stack.append((p_mask & ~sub[v], size, clique, order))
                stack.append((p_mask & ~(excl[v] | u), size + u.bit_count(), clique | u, None))
                break
        else:
            if size > best:
                best, found = size, clique
                if size >= stop:
                    break
    return best, found, nodes


def _lex_min_clique(
    excl: list[int],
    sup: list[int],
    sub: list[int],
    n: int,
    clique: int,
) -> tuple[list[int], int]:
    """First clique as large as ``clique``, a maximum clique (or 0), in
    lexicographic order of sorted vertex lists.

    Each step takes the lowest vertex v of the remaining set P such that
    P_v, the part of P above v and adjacent to it, still holds a clique one
    smaller than the known clique, and keeps such a clique inside P.  The
    known clique's lowest vertex w always qualifies, the rest of the clique
    lying in P_w, so only the vertices of P below w are tested, lowest
    first, by _upset_search, which is exact here because every P_v is
    up-closed (a candidate's supersets come after it).  A hit is the next
    known clique; with none, w is taken.  Every step is proven before it is
    taken, so the loop never backtracks, and once P is the known clique its
    vertices end the witness.  Returns (witness, feasibility-search nodes).
    """
    chosen: list[int] = []
    nodes = 0
    p_mask = (1 << n) - 1
    while clique and p_mask != clique:
        w = clique & -clique
        need = clique.bit_count() - 1
        for v in iter_bits(p_mask & (w - 1)):
            rest = p_mask & ~excl[v] & -(2 << v)
            size, found, count = _upset_search(rest, need - 1, need, excl, sup, sub)
            nodes += count
            if size >= need:
                clique = found
                break
        else:
            v = w.bit_length() - 1
            clique ^= w
        chosen.append(v)
        p_mask &= ~excl[v] & -(2 << v)
    return chosen + list(iter_bits(clique)), nodes
