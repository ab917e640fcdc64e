"""Multipartite constructions of intersecting families.

The central recipe: host the complete multipartite graph whose final part
has two spare vertices, seed one subgraph per final-part vertex w (the host
minus every edge at w), and take each seed and every supergraph of it, the
host shared by all.  Any two members then intersect in some seed or a pair
intersection of seeds, which still holds a complete multipartite pattern
one part-step smaller.

verify_intersecting checks such a statement for any family in one pass
over its members by edge count: only the minimal members, which contain
no other member, are paired, and a failure names the first pair of them
in that order.
"""

from __future__ import annotations

from collections.abc import Sequence

from .detect import containment_check
from .graphs import (
    Graph,
    Record,
    UserError,
    complete_multipartite,
    from_edges,
    iter_bits,
    pair_count,
    submasks,
)

MAX_MEMBERS = 1 << 22  # a member costs 300-400 B at peak and 3-5 µs to build (CPython 3.11)


class SubgraphFamily(Record):
    """A host graph plus distinct member edge subsets of it."""

    __slots__ = ("host", "members")
    host: Graph
    members: tuple[int, ...]

    def __init__(self, host: Graph, members: Sequence[int]):
        members = tuple(members)
        seen = set()
        for m in members:
            if m & ~host.edges:
                raise ValueError(f"member {m:#x} is not an edge subset of the host")
            if m in seen:
                raise ValueError(f"duplicate member {m:#x}")
            seen.add(m)
        super().__init__(host, members)

    def __len__(self) -> int:
        return len(self.members)


class MultipartiteFamily(Record):
    """Built construction: the fixed part sizes, the final part size t and
    the family on the host K_{parts,t+2}."""

    __slots__ = ("parts", "t", "family")
    parts: tuple[int, ...]
    t: int
    family: SubgraphFamily

    def __init__(self, parts: tuple[int, ...], t: int, family: SubgraphFamily) -> None:
        super().__init__(parts, t, family)

    @property
    def host(self) -> Graph:
        return self.family.host

    @property
    def target(self) -> Graph:
        return complete_multipartite(self.parts + (self.t,))

    @property
    def host_parts(self) -> tuple[int, ...]:
        return self.parts + (self.t + 2,)


def multipartite_family(parts: Sequence[int], t: int) -> MultipartiteFamily:
    """Build the family: each seed and every supergraph of it, the host shared.

    Seeds are the host minus all edges at one final-part vertex; each seed
    misses exactly m = sum(parts) edges, so it and its supergraphs other
    than the host are 2^m - 1 members, and with the host the family has
    (t+2)(2^m - 1) + 1 members, a count checked against MAX_MEMBERS
    before any member is built.  Part sizes
    below 1 and a host past the caps raise UserError.
    """
    parts = tuple(parts)
    if not parts or any(p < 1 for p in parts):
        raise UserError(f"fixed part sizes must all be >= 1, got {list(parts)}")
    if t < 1:
        raise UserError(f"final part size must be >= 1, got {t}")
    m = sum(parts)
    host = complete_multipartite(parts + (t + 2,))  # raises past the vertex cap
    size = (t + 2) * ((1 << m) - 1) + 1
    if size > MAX_MEMBERS:
        raise UserError(f"the family would have {size} members; cap is {MAX_MEMBERS}")
    adj = host.adjacency()
    seeds = [host.edges ^ from_edges(host.n, ((v, w) for v in iter_bits(adj[w]))).edges
             for w in range(m, host.n)]
    # every supergraph of every seed; the full extension is the host itself
    members = {seed | added for seed in seeds for added in submasks(host.edges ^ seed)}
    return MultipartiteFamily(parts, t, SubgraphFamily(host, sorted(members)))


def verify_intersecting(family: SubgraphFamily, target: Graph) -> tuple[int, int] | None:
    """Check that every pair i <= j of members holds the target; None means all do.

    A member paired with itself must hold the target on its own.  The
    minimal members, which contain no other member, decide the family:
    every member contains one, and containment of the target is monotone,
    so a pair holds it whenever the pair of minimal members inside holds it.

    One pass takes the members by edge count, ties in member order, and
    skips each that contains a member kept before it.  Any other is
    minimal (a member inside it has fewer edges, so came earlier and is or
    contains a kept one); it is checked with itself, then with each kept
    member in kept order, and kept.  Each kept member is decoded once: the
    rows of an intersection x & y are the rowwise AND of x's and y's rows,
    so a pair is tested on those.  The first pair lacking the target, a
    pair of minimal members, is returned as member indices (i, j), i <= j;
    a family that passes costs one test per pair of minimal members.
    """
    check = containment_check(target)
    n = family.host.n
    kept: list[tuple[int, list[int]]] = []
    for x in sorted(family.members, key=int.bit_count):
        for low, _ in kept:
            if x & low == low:
                break
        else:
            rows = Graph(n, x).adjacency()
            for other, other_rows in ((x, rows), *kept):
                if not check([a & b for a, b in zip(rows, other_rows)]):
                    i, j = sorted((family.members.index(other), family.members.index(x)))
                    return (i, j)
            kept.append((x, rows))
    return None


def lifted_count_string(family_size: int, host_edges: int, n: int) -> str:
    """Render the family size after lifting the host family to n vertices.

    Every member extends to all graphs on n vertices whose restriction to
    the host's edges equals it, so the count is family_size * 2^(C(n,2) -
    host_edges); the exact integer is appended while C(n,2) <= 128.
    """
    slots = pair_count(n)
    if slots < host_edges:
        raise ValueError(f"n={n} gives only {slots} pairs; host has {host_edges} edges")
    exp = slots - host_edges
    text = f"2^{exp}" if family_size == 1 else f"{family_size} · 2^{exp}"
    if slots <= 128:
        text += f" = {family_size << exp}"
    return text
