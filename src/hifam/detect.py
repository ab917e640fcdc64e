"""Non-induced subgraph containment tests.

These decide whether a graph contains a copy of a target pattern -- the
primitive behind intersecting-family verification.  Containment is always
non-induced (extra edges never hurt), and isolated target vertices are
ignored: families here are edge subsets of a shared host, so only edges
matter.  Each test takes the tested graph as its adjacency rows, one
neighbour bitmask per vertex as Graph.adjacency() gives them, n being
their count, so a caller can build them from edges or rows it holds.

One backtracking search serves all three tests: the generic one, the
multipartite one and P4's, whose plan is built at import.  It places the
target's core, its non-isolated vertices, in an order planned once per
target, each twin (graphs.twin_representatives) above the twin placed
before it, since swapping twins is an automorphism.  A last run of
pairwise non-adjacent twins, such as a multipartite target's largest part,
is counted, not placed: any vertices adjacent to all its neighbours will do.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache

from .graphs import Graph, UserError, complete_multipartite, iter_bits, path, twin_representatives


def contains_subgraph(adj: list[int], h: Graph) -> bool:
    """True iff the graph with these adjacency rows contains a (not
    necessarily induced) copy of h; isolated vertices of h are ignored."""
    return _contains(adj, _plan(h))


def contains_multipartite(adj: list[int], parts: Sequence[int]) -> bool:
    """True iff the graph with these adjacency rows contains the complete
    multipartite pattern with these part sizes.

    The sizes may come in any order; one part, or none, is an edgeless
    pattern, which every graph contains.  A pattern larger than the graph
    is absent unbuilt; a part size below 1 is a UserError naming the sizes
    in the order given.
    """
    if any(p < 1 for p in parts):
        raise UserError(f"part sizes must all be >= 1, got {list(parts)}")
    sizes = tuple(sorted(parts))
    if len(sizes) <= 1:
        return True  # edgeless pattern
    if sum(sizes) > len(adj):
        return False
    return _contains(adj, _multipartite_plan(sizes))


def contains_p4(adj: list[int]) -> bool:
    """True iff the graph with these adjacency rows contains a path on 4
    vertices: the search on P4's plan, built once at import."""
    return _contains(adj, _P4)


@lru_cache(maxsize=None)
def _multipartite_plan(sizes: tuple[int, ...]) -> tuple:
    """_plan of the pattern with these part sizes, built once."""
    return _plan(complete_multipartite(sizes))


@lru_cache(maxsize=None)
def _plan(h: Graph) -> tuple[tuple[tuple[int, ...], int, bool], ...]:
    """The search's steps for target h, one per core position: the earlier
    positions of its neighbours, its degree and whether its twin has the
    position before it.  The core is ordered by descending degree, then by
    twin class, so twins are consecutive.  The last step stands for the
    run of pairwise non-adjacent twins the core ends in (at least its last
    vertex; none for an edgeless core), its degree replaced by the run's
    length.
    """
    hadj = h.adjacency()
    rep = twin_representatives(hadj)
    core = sorted((v for v in range(h.n) if hadj[v]),
                  key=lambda v: (-hadj[v].bit_count(), rep[v], v))
    position = {v: p for p, v in enumerate(core)}
    steps = [(tuple(position[w] for w in iter_bits(hadj[v]) if position[w] < p),
              hadj[v].bit_count(), p > 0 and rep[core[p - 1]] == rep[v])
             for p, v in enumerate(core)]
    run = 1
    while run < len(core) and steps[-run][2] and not hadj[core[-run]] >> core[-run - 1] & 1:
        run += 1
    return (*steps[:len(core) - run], (steps[-1][0], run, False)) if core else (((), 0, False),)


_P4 = _plan(path(4))


def _contains(adj: list[int], steps: tuple[tuple[tuple[int, ...], int, bool], ...]) -> bool:
    """Whether _plan's steps place in the graph with these rows; a core
    with more vertices than the graph is absent unsearched."""
    size, n = len(steps) - 1 + steps[-1][1], len(adj)
    return size <= n and _place(0, (1 << n) - 1, [0] * len(steps), steps, adj)


def _place(p: int, free: int, mapping: list[int], steps: tuple, adj: list[int]) -> bool:
    """Map core positions p.. to free vertices, given mapping[:p]; one call
    per position, so the depth is at most the target's core size."""
    placed, need, twin = steps[p]
    allowed = free
    for q in placed:
        allowed &= adj[mapping[q]]
    if p == len(steps) - 1:
        return allowed.bit_count() >= need  # the counted run
    if twin:
        allowed &= -2 << mapping[p - 1]
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        u = mapping[p] = low.bit_length() - 1
        if adj[u].bit_count() >= need and _place(p + 1, free ^ low, mapping, steps, adj):
            return True
    return False


def containment_check(target: Graph) -> Callable[[list[int]], bool]:
    """Containment predicate for one target over a graph's adjacency rows:
    the one dispatch to the tests above.

    Only the target's core, its non-isolated vertices, counts.  A core with
    degrees 1, 1, 2, 2 (only P4 has them) goes to contains_p4, the search on
    P4's plan.  A core in which each vertex's part, itself plus its
    non-neighbours, is also the part of every vertex in it is complete
    multipartite with those parts: any such target (K3, K_{2,4}, a star, an
    edgeless graph) goes to contains_multipartite.  Any other target goes to
    contains_subgraph.
    The tests are looked up in this module's globals, so one replaced there
    (as perfbench's tracer does) is the one that runs.
    """
    adj = target.adjacency()
    core = [v for v in range(target.n) if adj[v]]
    if sorted(adj[v].bit_count() for v in core) == [1, 1, 2, 2]:
        return contains_p4
    core_mask = sum(1 << v for v in core)
    part = {v: core_mask & ~adj[v] for v in core}
    if all(part[u] == part[v] for v in core for u in iter_bits(part[v])):
        sizes = sorted(p.bit_count() for p in set(part.values()))
        return lambda rows: contains_multipartite(rows, sizes)
    return lambda rows: contains_subgraph(rows, target)
