"""Independent oracles that the library's fast paths are pinned against.

Each one is the plain, slow way to compute something the library computes
another way; tests compare the two.  This module also holds checks that no
command runs (relabeling a graph, the general seed recipe's conditions),
which tests use to state what the library's results mean.
"""

import itertools
import math
from collections.abc import Sequence
from functools import lru_cache

from hifam import (
    CliqueResult,
    CompatibilityGraph,
    Graph,
    MultipartiteFamily,
    SubgraphFamily,
    canonical_key,
    containment_check,
    is_connected,
    verify_intersecting,
)
from hifam.clique import MAX_CANDIDATES, MAX_HOST_EDGES, _upset_search
from hifam.graphs import (
    GRAPH6_HEADER,
    MAX_VERTICES,
    Record,
    UserError,
    edge_index,
    iter_bits,
    pair_count,
    submasks,
)


def plain_instance(adjacency: list[int], labels: list[int] | None = None) -> CompatibilityGraph:
    """A plain graph as a solver input: every candidate contains only
    itself (identity sup and sub rows), so the solver searches every clique.

    Labels default to the vertex indices.
    """
    rows = [1 << v for v in range(len(adjacency))]
    if labels is None:
        labels = list(range(len(adjacency)))
    return CompatibilityGraph(labels, adjacency, rows, rows)


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


def pairwise_compatibility(host: Graph, target: Graph) -> CompatibilityGraph:
    """The compatibility graph by a containment test on every edge subset
    and a loop over every pair of candidates.

    This is how clique.build_compatibility worked before it swept the
    subset lattice.  Its sup and sub rows are plain_instance's: it computes
    no containment rows (containment_rows does).
    """
    check = containment_check(target)
    subsets = list(submasks(host.edges))
    table = bytes(check(Graph(host.n, s).adjacency()) for s in subsets)
    cands = [c for c in range(len(subsets)) if table[c]]
    adjacency = [0] * len(cands)
    for a, ca in enumerate(cands):
        for b in range(a + 1, len(cands)):
            if table[ca & cands[b]]:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
    return plain_instance(adjacency, [subsets[c] for c in cands])


@lru_cache(maxsize=None)
def _clear_masks(e: int) -> tuple[int, ...]:
    """Per edge bit i < e, the compact indices below 2^e whose bit i is 0.

    That is a block of 2^i ones repeated every 2^(i+1) bits: the 2^e-bit
    all-ones number divided by 2^(2^(i+1)) - 1 has a one at the start of
    each period, and the product spreads it over the block.
    """
    full = (1 << (1 << e)) - 1
    return tuple(full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(e))


def sweep_compatibility(host: Graph, target: Graph) -> CompatibilityGraph:
    """The compatibility graph, sup and sub rows by two sweeps over the
    subset lattice, with the caps and messages of clique.build_compatibility.

    This is how build_compatibility worked before it read sup and sub off
    per-edge candidate masks, and before it closed the copies upward in a
    set: here the copies are set bits of one 2^e-bit table, closed by one
    shift per edge bit i, which passes each index with bit i clear on to
    the index with bit i set, and read back from the table's binary
    string.  A superset sweep sets ``up[c]`` to the candidates containing
    c (its sup row); a subset sweep ORs into it ``up[t]`` for every
    candidate t inside c (a candidate inside both ends of a pair is what
    makes them adjacent) and fills ``down[c]``, the candidates inside c
    (its sub row).
    """
    e = host.edge_count
    if e > MAX_HOST_EDGES:
        raise UserError(f"compatibility graphs capped at {MAX_HOST_EDGES} host edges, got {e}")
    check = containment_check(target)
    subsets = list(submasks(host.edges))
    ends = [1 << i | 1 << j for i, j in host.edge_pairs()]
    cover = sum(1 for row in target.adjacency() if row)
    table = 0
    for edges in itertools.combinations(range(e), target.edge_count):
        c = touched = 0
        for i in edges:
            c |= 1 << i
            touched |= ends[i]
        if touched.bit_count() == cover and check(Graph(host.n, subsets[c]).adjacency()):
            table |= 1 << c
    for i, clear in enumerate(_clear_masks(e)):
        table |= (table & clear) << (1 << i)
    count = table.bit_count()
    if count > MAX_CANDIDATES:
        raise UserError(
            f"compatibility graphs capped at {MAX_CANDIDATES} candidates, got {count}"
        )
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
    adjacency = [up[c] ^ 1 << i for i, c in enumerate(cands)]
    sub = [down[c] for c in cands]
    return CompatibilityGraph([subsets[c] for c in cands], adjacency, sup, sub)


def lattice_sweep_compatibility(host: Graph, target: Graph) -> CompatibilityGraph:
    """The compatibility graph with its adjacency rows from one subset
    sweep over the edge-subset lattice, with the caps and messages of
    clique.build_compatibility.

    This is how build_compatibility worked before it ORed each copy's sup
    row into the entries of the copy's supersets: it finds the copies the
    same way and closes them upward in a set; ``has[b]``, the candidates
    holding edge b, gives the sup and sub rows as the AND of one entry from
    each of two half-tables over the edge bits.  A list of all 2^e subsets
    gives the labels.  The sweep seeds ``up[c]`` with c's sup row, then, one
    edge bit at a time, ORs ``up[c ^ bit]`` into ``up[c]`` for every
    candidate c holding the bit, so ``up[c]`` ends as the OR of the sup rows
    of every candidate inside c, and row a is a's entry without its own
    bit.  Each of its e passes walks every candidate.
    """
    e = host.edge_count
    if e > MAX_HOST_EDGES:
        raise UserError(f"compatibility graphs capped at {MAX_HOST_EDGES} host edges, got {e}")
    check = containment_check(target)
    subsets = list(submasks(host.edges))
    pairs = host.edge_pairs()
    ends = [1 << i | 1 << j for i, j in pairs]
    cover = sum(1 for row in target.adjacency() if row)
    cands = set()
    for edges in itertools.combinations(range(e), target.edge_count):
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
                cands.add(c)
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
    half = e // 2
    tables = []
    for part in has[:half], has[half:]:
        sup = sub = [everyone]  # doubled by each bit: entry x for subset x
        for row in part:
            sup, sub = sup + [r & row for r in sup], [r & ~row for r in sub] + sub
        tables += sup, sub
    lo_sup, lo_sub, hi_sup, hi_sub = tables
    low = (1 << half) - 1
    sup = [lo_sup[c & low] & hi_sup[c >> half] for c in cands]
    sub = [lo_sub[c & low] & hi_sub[c >> half] for c in cands]
    up = [0] * len(subsets)
    for c, row in zip(cands, sup):
        up[c] = row
    for bit in [1 << b for b in range(e)]:
        for c in cands:
            if c & bit:
                up[c] |= up[c ^ bit]
    adjacency = [up[c] ^ 1 << i for i, c in enumerate(cands)]
    return CompatibilityGraph([subsets[c] for c in cands], adjacency, sup, sub)


def degree_ordered_clique_size(cg: CompatibilityGraph) -> int:
    """Maximum clique size by branch and bound over vertices relabeled in
    descending degree order, each color class filled from its lowest vertex.

    This is how phase 1 of clique.max_clique worked before it searched the
    given vertex order with a top-first coloring.
    """
    n = cg.size
    order = sorted(range(n), key=lambda v: (-cg.adjacency[v].bit_count(), v))
    rank = {v: r for r, v in enumerate(order)}
    adj = [0] * n
    for v in range(n):
        row = 0
        for w in iter_bits(cg.adjacency[v]):
            row |= 1 << rank[w]
        adj[rank[v]] = row

    def color_sort(p_mask: int) -> list[tuple[int, int]]:
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

    best = 0

    def expand(p_mask: int, size: int) -> None:
        nonlocal best
        if not p_mask:
            best = max(best, size)
            return
        for v, color in reversed(color_sort(p_mask)):
            if size + color <= best:
                return
            expand(p_mask & adj[v], size + 1)
            p_mask &= ~(1 << v)

    expand((1 << n) - 1, 0)
    return best


def certify_clique_bound(cg: CompatibilityGraph, claim: int) -> tuple[int, int]:
    """Branch and bound over every clique in the given vertex order, pruned
    by the top-first coloring bound, with claim as its incumbent
    (coloring_max_clique's phase 1 starts from 0): it looks only for
    cliques larger than claim, so a search that finds none proves that
    claim is an upper bound on the clique size.

    Returns (best, nodes): best is claim when no larger clique exists and
    the size of the largest clique otherwise; nodes counts the search's
    calls.  Like coloring_max_clique it ignores sup and sub, so it takes on
    trust neither the up-closure lemma nor the solver's branching.
    """
    adj = cg.adjacency
    best, nodes = claim, 0

    def expand(p_mask: int, size: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if not p_mask:
            if size > best:
                best = size
            return
        colored = _top_first_coloring(p_mask, adj)
        for v, color in reversed(colored):
            if size + color <= best:
                return
            expand(p_mask & adj[v], size + 1)
            p_mask &= ~(1 << v)

    expand((1 << cg.size) - 1, 0)
    return best, nodes


def coloring_max_clique(cg: CompatibilityGraph) -> CliqueResult:
    """Exact maximum clique and its lexicographically smallest witness by
    plain branch and bound over every clique, ignoring sup and sub.

    Phase 1 (certify_clique_bound from 0) searches the given vertex order
    with the top-first coloring bound at every node; phase 2 re-searches in
    ascending vertex order, pruned by the same bound, and backtracks on
    failure.  This is how clique.max_clique worked before it searched
    up-closed cliques only.  Both phases recurse once per clique vertex,
    so hosts whose optimum nears the interpreter's recursion limit are out
    of its reach.
    """
    if cg.size == 0:
        return CliqueResult([])
    best, _ = certify_clique_bound(cg, 0)
    return CliqueResult(_lex_min_clique(cg.adjacency, cg.size, best))


def recursive_upset_search(
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

    This is how clique._upset_search searched before it became one loop
    over a stack of frames and its coloring came to list only the vertices
    above best - size; it colors with its own _top_first_coloring and walks
    every listed vertex down to the bound.  It recurses once per up-set
    taken, so an optimum of about twice the interpreter's recursion limit
    is out of its reach.
    """
    best = floor
    found = 0
    nodes = 0

    def expand(p_mask: int, size: int, clique: int) -> bool:
        nonlocal best, found, nodes
        nodes += 1
        if size < stop:
            for v, color in reversed(_top_first_coloring(p_mask, adj)):
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


def stepwise_lex_min_clique(
    excl: list[int],
    sup: list[int],
    sub: list[int],
    n: int,
    k: int,
    clique: int,
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

    This is how clique._lex_min_clique worked before it stopped once the
    remaining set is the known clique: it takes that clique's vertices one
    step at a time, each step a few bigint operations over all candidates.
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
            rest = p_mask & ~excl[v] & -(low << 1)
            if low == clique & -clique:
                clique ^= low
                break
            size, found, count = _upset_search(rest, need - 2, need - 1, excl, sup, sub)
            nodes += count
            if size >= need - 1:
                clique = found
                break
            q ^= low
        chosen.append(v)
        p_mask = rest
    return chosen, nodes


def _top_first_coloring(p_mask: int, adj: list[int]) -> list[tuple[int, int]]:
    """Greedy coloring, each class filled from the highest vertex down;
    (vertex, color) pairs ascending by color."""
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


def _lex_min_clique(adjacency: list[int], n: int, k: int) -> list[int]:
    """First clique of size k in lexicographic order of sorted vertex lists."""
    if k == 0:
        return []
    chosen: list[int] = []

    def search(p_mask: int, need: int) -> bool:
        if need == 0:
            return True
        if p_mask.bit_count() < need or _top_first_coloring(p_mask, adjacency)[-1][1] < need:
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


def validate_compatibility(cg: CompatibilityGraph) -> None:
    """Raise ValueError unless cg is well formed: distinct labels, an
    irreflexive symmetric adjacency, and, when present, sup and sub rows
    that hold their own vertex and mirror each other (w in sup[v] exactly
    when v in sub[w])."""
    if len(set(cg.labels)) != len(cg.labels):
        raise ValueError("candidate labels are not pairwise distinct")
    for i, row in enumerate(cg.adjacency):
        if row >> i & 1:
            raise ValueError(f"adjacency row {i} is reflexive")
        for j in iter_bits(row):
            if not cg.adjacency[j] >> i & 1:
                raise ValueError(f"adjacency not symmetric at ({i}, {j})")
    if cg.sup is None and cg.sub is None:
        return
    if cg.sup is None or cg.sub is None or not len(cg.sup) == len(cg.sub) == cg.size:
        raise ValueError("sup and sub need one row per candidate each")
    for v in range(cg.size):
        if not cg.sup[v] >> v & cg.sub[v] >> v & 1:
            raise ValueError(f"candidate {v} missing from its own sup or sub row")
        for w in iter_bits(cg.sup[v]):
            if not cg.sub[w] >> v & 1:
                raise ValueError(f"{w} in sup[{v}] but {v} not in sub[{w}]")
    # every sup pair is a sub pair; equal counts make that a bijection
    if sum(row.bit_count() for row in cg.sup) != sum(row.bit_count() for row in cg.sub):
        raise ValueError("sub holds a pair that sup does not")


def containment_rows(cg: CompatibilityGraph) -> tuple[list[int], list[int]]:
    """sup and sub rows straight from the definition of containment.

    ``have[x]`` is the set of candidates whose label has edge x.  labels[j]
    contains labels[i] when j is in have[x] for every edge x of labels[i]
    (sup[i]), and lies inside it when j is outside have[x] for every other
    edge x (sub[i]).  No lattice sweep and no loop over pairs.
    """
    everyone = (1 << cg.size) - 1
    edges = 0
    for label in cg.labels:
        edges |= label
    have = {x: sum(1 << j for j, b in enumerate(cg.labels) if b >> x & 1) for x in iter_bits(edges)}
    sup, sub = [], []
    for label in cg.labels:
        above = below = everyone
        for x, column in have.items():
            if label >> x & 1:
                above &= column
            else:
                below &= ~column
        sup.append(above)
        sub.append(below)
    return sup, sub


def compact_subsets(mask: int) -> list[int]:
    """Every subset of mask, listed by compact index.

    Bit i of the compact index selects the i-th set bit of mask, so index c
    maps to a subset and indices run 0 .. 2^popcount - 1.  This is the
    expansion the compatibility builder and the multipartite construction
    used before graphs.submasks.
    """
    positions = list(iter_bits(mask))
    out = []
    for compact in range(1 << len(positions)):
        subset = 0
        for i in iter_bits(compact):
            subset |= 1 << positions[i]
        out.append(subset)
    return out


@lru_cache(maxsize=None)
def _edge_slot_maps(n: int) -> list[tuple[int, ...]]:
    """For each permutation of [0, n), the induced permutation of edge slots."""
    pairs = [edge_pair(b, n) for b in range(pair_count(n))]
    maps = []
    for perm in itertools.permutations(range(n)):
        maps.append(tuple(edge_index(perm[i], perm[j], n) for i, j in pairs))
    return maps


@lru_cache(maxsize=1 << 16)
def canonical_edges(n: int, edges: int) -> int:
    """The canonical key by exhaustive minimization over all n! relabelings.

    This is how graphs.canonical_key computed it before it pruned the
    relabelings by degree.
    """
    bits = list(iter_bits(edges))
    best = edges
    for slot_map in _edge_slot_maps(n):
        permuted = 0
        for b in bits:
            permuted |= 1 << slot_map[b]
        if permuted < best:
            best = permuted
    return best


def tied_state_canonical_edges(n: int, edges: int) -> int:
    """Minimum edge bitset over all relabelings, built one column at a time.

    This is how graphs.canonical_key computed it before it found each tried
    vertex's column first: every tried vertex builds its refined cells.

    Column k (bits of the pairs (i, k), i < k) outranks every lower column,
    so positions are filled from n - 1 down.  A state is an ordered
    partition of the unplaced vertices into cells that fill positions 0, 1,
    ... in order.  The vertex w placed at position k comes from the last
    cell; its column is smallest when its neighbours come first in every
    cell, which splits each cell in two.  Only the states whose column ties
    the minimum survive to the next position.  Lower columns see only the
    unplaced vertices, so equal states have equal futures and are kept once;
    that bounds the work on graphs with many automorphisms (for the empty
    graph, one state per set of placed vertices, not one per ordering).
    """
    adj = Graph(n, edges).adjacency()
    key = 0
    states = {((1 << n) - 1,)}
    for k in range(n - 1, 0, -1):
        best, survivors = -1, set()
        for cells in states:
            last = cells[-1]
            for w in iter_bits(last):
                column, start, refined = 0, 0, []
                for cell in cells[:-1] + (last ^ 1 << w,):
                    inside = cell & adj[w]
                    column |= ((1 << inside.bit_count()) - 1) << start
                    start += cell.bit_count()
                    refined.extend(part for part in (inside, cell ^ inside) if part)
                if best < 0 or column < best:
                    best, survivors = column, {tuple(refined)}
                elif column == best:
                    survivors.add(tuple(refined))
        key |= best << pair_count(k)
        states = survivors
    return key


def labeled_classes(n: int, m: int, connected: bool) -> tuple[Graph, ...]:
    """Host classes by brute force over every labeled edge set.

    Each edge set with the requested edge count (and connectivity) is keyed
    by canonical_edges; the sorted distinct keys are the representatives.
    This is how enumeration.connected_graphs worked before it grew classes
    one edge at a time.
    """
    slots = pair_count(n)
    if m < 0 or m > slots:
        return ()
    if connected and m < n - 1:
        return ()
    keys = set()
    for combo in itertools.combinations(range(slots), m):
        edges = 0
        for b in combo:
            edges |= 1 << b
        g = Graph(n, edges)
        if connected and not is_connected(g):
            continue
        keys.add(canonical_edges(n, g.edges))
    return tuple(Graph(n, key) for key in sorted(keys))


@lru_cache(maxsize=None)
def all_children_class_keys(n: int, m: int) -> tuple[int, ...]:
    """Canonical edge bitsets of all n-vertex graphs with m edges, ascending,
    growing every child of every class.

    Up to half the pairs, each missing edge is added to each (m-1)-edge
    class and each distinct labeled child is keyed by canonical_key; above
    half, the classes are the complements of the (slots - m)-edge classes.
    This is how enumeration._class_keys worked before it added one missing
    edge per orbit of each class's twin swaps.
    """
    if m == 0:
        return (0,)
    slots = pair_count(n)
    full = (1 << slots) - 1
    if 2 * m > slots:
        labeled = [full ^ p for p in all_children_class_keys(n, slots - m)]
    else:
        labeled = {p | 1 << b for p in all_children_class_keys(n, m - 1)
                   for b in iter_bits(full ^ p)}
    return tuple(sorted({canonical_key(Graph(n, edges)).edges for edges in labeled}))


def edge_pair(index: int, n: int) -> tuple[int, int]:
    """Inverse of edge_index: the pair (i, j), i < j, at a bit position.

    Column j starts at bit j(j-1)/2, so j is the largest integer with
    j(j-1)/2 <= index, read off a square root.  The library has no inverse:
    it decodes whole columns in Graph.adjacency.
    """
    if not 0 <= index < pair_count(n):
        raise ValueError(f"edge index {index} out of range for n={n}")
    j = (1 + math.isqrt(1 + 8 * index)) // 2
    i = index - j * (j - 1) // 2
    return i, j


def pairwise_adjacency(g: Graph) -> list[int]:
    """Per-vertex neighbor bitmasks, one edge at a time.

    Each set bit of the edge bitset is mapped back to its pair by
    edge_pair; this is how Graph.adjacency worked before it read whole
    columns of the bitset.
    """
    adj = [0] * g.n
    for b in iter_bits(g.edges):
        i, j = edge_pair(b, g.n)
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def rows_edges(rows: list[int]) -> int:
    """The edge bitset of the graph with these adjacency rows, one pair at
    a time: the inverse of Graph.adjacency, for reading back the rows a
    containment test is given."""
    edges = 0
    for j, row in enumerate(rows):
        for i in iter_bits(row & ((1 << j) - 1)):
            edges |= 1 << edge_index(i, j, len(rows))
    return edges


def incident_edge_mask_by_edges(g: Graph, v: int) -> int:
    """Bitset of g's edges at v, one edge at a time.

    Each set bit of the edge bitset is mapped back to its pair by
    edge_pair; the construction's seeds, the host minus the edges at one
    vertex, are pinned to it.
    """
    mask = 0
    for b in iter_bits(g.edges):
        i, j = edge_pair(b, g.n)
        if v in (i, j):
            mask |= 1 << b
    return mask


def bitwise_emit_graph6(g: Graph) -> str:
    """graph6 one bit at a time: each body byte gathers six pair bits, the
    ones past the last pair reading 0.  This is how emit_graph6 worked
    before it copied the bitset as one bit string.
    """
    k = pair_count(g.n)
    if g.n <= 62:
        out = [chr(63 + g.n)]
    else:
        out = ["~"] + [chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)]
    for start in range(0, k, 6):
        value = 0
        for offset in range(6):
            b = start + offset
            bit = (g.edges >> b) & 1 if b < k else 0
            value = value << 1 | bit
        out.append(chr(63 + value))
    return "".join(out)


def bitwise_parse_graph6(text: str) -> Graph:
    """graph6 read back one bit at a time, refusing as parse_graph6 does
    (same messages, same order), with its own copy of the vertex-count
    check.  This is how parse_graph6 worked before it read the body as one
    bit string.
    """
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    if not s:
        raise UserError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(v < 0 or v > 63 for v in data):
        raise UserError(f"byte outside graph6 range in {s!r}")
    if data[0] == 63:
        if len(data) < 4 or data[1] == 63:
            raise UserError("unsupported graph6 size form")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise UserError(f"vertex count {n} outside [1, {MAX_VERTICES}]")
    k = pair_count(n)
    if len(body) != (k + 5) // 6:
        raise UserError(f"expected {(k + 5) // 6} data bytes for n={n}, got {len(body)}")
    edges = 0
    for group, value in enumerate(body):
        for offset in range(6):
            if value >> (5 - offset) & 1:
                b = 6 * group + offset
                if b >= k:
                    raise UserError("nonzero padding bits")
                edges |= 1 << b
    return Graph(n, edges)


def verify_pairwise(
    family: SubgraphFamily, target: Graph, require_self: bool = False
) -> tuple[int, int] | None:
    """The quadratic scan over every pair of members, rows first.

    Distinct pairs are always checked; with require_self each member is
    also checked on its own, just before its row.  This is how
    verify_intersecting scanned before "intersecting" came to mean every
    pair i <= j; with require_self it gives the same verdicts, and names
    the first failing pair in row order, where verify_intersecting names
    first_failing_minimal_pair's.
    """
    check = containment_check(target)
    members = family.members
    n = family.host.n
    for i in range(len(members)):
        if require_self and not check(Graph(n, members[i]).adjacency()):
            return (i, i)
        for j in range(i + 1, len(members)):
            if not check(Graph(n, members[i] & members[j]).adjacency()):
                return (i, j)
    return None


def one_edge_minimal_members(family: SubgraphFamily) -> list[int]:
    """Members from which no one edge can be removed within the family, in
    member order.

    Every minimal member is among them, and on an up-closed family they
    are exactly the minimal members.  This is how verify_intersecting
    chose the members whose pairs decide a family before it kept the
    minimal members only.
    """
    present = set(family.members)
    return [x for x in family.members if all(x ^ 1 << b not in present for b in iter_bits(x))]


def quadratic_minimal_members(family: SubgraphFamily) -> list[int]:
    """The members that no other member is a proper subset of, in member
    order, each tested against every other member."""
    members = family.members
    return [x for x in members if not any(y != x and x & y == y for y in members)]


def first_failing_minimal_pair(
    family: SubgraphFamily, target: Graph
) -> tuple[int, int] | None:
    """The pair verify_intersecting names: the quadratic rule's minimal
    members, taken by edge count, ties in member order, each checked with
    itself and then with each one before it; the first pair whose
    intersection lacks the target, as member indices i <= j."""
    check = containment_check(target)
    members = family.members
    minimal = sorted(quadratic_minimal_members(family), key=int.bit_count)
    for b, y in enumerate(minimal):
        for x in [y] + minimal[:b]:
            if not check(Graph(family.host.n, x & y).adjacency()):
                i, j = sorted((members.index(x), members.index(y)))
                return (i, j)
    return None


def largest_first_multipartite(g: Graph, parts: list[int]) -> bool:
    """True iff g contains the complete multipartite pattern with these part sizes.

    Recurses part by part (largest first); every later part is restricted to
    the common neighborhood of all vertices chosen so far.  Within a part,
    vertices are taken in ascending order, so each placement is tried once.
    This is how detect.contains_multipartite worked before it took parts
    smallest first and closed the last one by a count.
    """
    sizes = sorted(parts, reverse=True)
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


def degree_ordered_subgraph(adj: list[int], h: Graph) -> bool:
    """True iff the graph with these adjacency rows contains a (not
    necessarily induced) copy of h.

    Backtracking over injective vertex maps, target vertices in descending
    degree order, pruned by degree and by adjacency to already-placed
    neighbors.  Isolated vertices of h are ignored.  This is how
    detect.contains_subgraph worked before it planned each target once,
    placed twins in order and counted a last run of non-adjacent twins.
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


def p4_column_scan(adj: list[int]) -> bool:
    """True iff the graph with these adjacency rows contains a path on 4 vertices.

    Scan each edge {i, j}, i < j, column j's lower neighbours i in turn, for
    a neighbor of i besides j and a neighbor of j besides i that are not the
    same single vertex; equivalent to the generic backtracking test on the
    3-edge path.  This is how detect.contains_p4 worked before it became the
    search on P4's plan.
    """
    for j, row in enumerate(adj):
        for i in iter_bits(row & ((1 << j) - 1)):
            a = adj[i] ^ 1 << j
            b = row ^ 1 << i
            if a and b and (a | b).bit_count() >= 2:
                return True
    return False


def smallest_first_multipartite(adj: list[int], parts: Sequence[int]) -> bool:
    """True iff the graph with these adjacency rows contains the complete
    multipartite pattern with these part sizes.

    The sizes may come in any order; one part, or none, is an edgeless
    pattern, which every graph contains.  Recurses part by part, smallest
    first; every later part is restricted to the common neighborhood of all
    vertices chosen so far.  Within a part, vertices are taken in ascending
    order, so each placement is tried once.  The last part, the largest, needs no search: the pattern is
    there exactly when the common neighborhood holds at least that many
    vertices, since any of them will do.  This is how
    detect.contains_multipartite worked before it became a case of the
    generic search.
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


def construction_counts(parts: Sequence[int], t: int) -> tuple[int, int]:
    """The closed form of the multipartite construction on its host.

    Returns ((t+2)(2^m - 1) + 1, 2^(2m)) with m = sum(parts): the family's
    member count, and the trivial family's (all supergraphs of one target
    copy), which on the host K_{parts,t+2} is 2^(e(host) - e(target)) with
    e(host) - e(target) = 2m.  The construction beats the trivial family
    exactly when the first is the larger, and t >= 2^m gives it
    2^(2m) + 2^m - 1.
    """
    m = sum(parts)
    return (t + 2) * ((1 << m) - 1) + 1, 1 << (2 * m)


def construction_seeds(built: MultipartiteFamily) -> list[int]:
    """The built family's minimal members, in member order, by the
    quadratic rule (quadratic_minimal_members).  On the construction these
    are its seeds, the host minus the edges at one final-part vertex.
    """
    return quadratic_minimal_members(built.family)


def apply_permutation(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertices: edge {i, j} maps to {perm[i], perm[j]}."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError(f"{list(perm)} is not a bijection on [0, {g.n})")
    mask = 0
    for i, j in g.edge_pairs():
        mask |= 1 << edge_index(perm[i], perm[j], g.n)
    return Graph(g.n, mask)


class SeedCheck(Record):
    """Report on a proposed seed set for the general gluing recipe."""

    __slots__ = ("intersection_property", "disjoint_complement", "family_size")
    intersection_property: bool
    disjoint_complement: bool
    family_size: int

    def __init__(
        self, intersection_property: bool, disjoint_complement: bool, family_size: int
    ) -> None:
        super().__init__(intersection_property, disjoint_complement, family_size)


def check_seeds(host: Graph, seeds: Sequence[int], target: Graph) -> SeedCheck:
    """Check the two conditions that make a seed set glue into a family.

    Condition 1 (intersection property) quantifies over ALL pairs including
    i = j, so every seed must contain the target itself: it is
    verify_intersecting on the seeds as a family, and SubgraphFamily's
    ValueError rejects a seed outside the host or a repeated one.
    Condition 2 (disjoint complement) asks that distinct seeds union to the
    full host edge set.  The reported family size
    1 + sum(2^(e(host)-e(seed)) - 1) is meaningful only when both
    conditions hold.
    """
    family = SubgraphFamily(host, seeds)
    seeds = family.members
    intersection_property = verify_intersecting(family, target) is None
    disjoint_complement = all(
        seeds[i] | seeds[j] == host.edges
        for i in range(len(seeds))
        for j in range(i + 1, len(seeds))
    )
    e_host = host.edge_count
    family_size = 1 + sum((1 << (e_host - s.bit_count())) - 1 for s in seeds)
    return SeedCheck(intersection_property, disjoint_complement, family_size)
