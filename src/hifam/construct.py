"""Multipartite constructions of intersecting families.

The central recipe: host the complete multipartite graph whose final part
has two spare vertices, seed one subgraph per final-part vertex w (the host
minus every edge at w), and take all proper supergraphs of every seed plus
the host itself.  Any two members then intersect in some seed or a pair
intersection of seeds, which still holds a complete multipartite pattern
one part-step smaller.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .detect import containment_check
from .graphs import (
    Graph,
    Record,
    UserError,
    complete_multipartite,
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
    """Build the family: the host plus all proper supergraphs of every seed.

    Seeds are the host minus all edges at one final-part vertex; each seed
    misses exactly m = sum(parts) edges, so it contributes 2^m - 1 proper
    supergraphs and the family has (t+2)(2^m - 1) + 1 members, a count
    checked against MAX_MEMBERS before any member is built.  Part sizes
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
    seeds = [host.edges & ~host.incident_edge_mask(w) for w in range(m, host.n)]
    # every supergraph of every seed; the full extension is the host itself
    members = {seed | added for seed in seeds for added in submasks(host.edges ^ seed)}
    return MultipartiteFamily(parts, t, SubgraphFamily(host, sorted(members)))


def _first_pair_lacking(
    n: int, masks: Sequence[int], check: Callable[[Graph], bool]
) -> tuple[int, int] | None:
    """First pair i <= j of masks, in row order, whose intersection fails check."""
    for i in range(len(masks)):
        for j in range(i, len(masks)):
            if not check(Graph(n, masks[i] & masks[j])):
                return (i, j)
    return None


def _minimal_members(family: SubgraphFamily) -> list[int]:
    """The members that contain no other member, in member order.

    Members are taken by edge count, and one is kept unless it contains a
    member kept before it: a member inside it has fewer edges and contains
    a kept one itself.  Each member is tested against the kept ones only,
    so the cost is at most that of checking their pairs, which follows.
    """
    kept: list[int] = []
    for x in sorted(family.members, key=int.bit_count):
        for low in kept:
            if x & low == low:
                break
        else:
            kept.append(x)
    minimal = set(kept)
    return [x for x in family.members if x in minimal]


def verify_intersecting(family: SubgraphFamily, target: Graph) -> tuple[int, int] | None:
    """Check every pair i <= j of members for the target; None means all pass.

    A member paired with itself must hold the target on its own.  Returns
    the first failing index pair in member order, rows first.

    The minimal members, those that contain no other member, decide the
    family: each member contains a minimal one and containment is monotone,
    so every pair of members holds the target exactly when every pair
    i <= j of minimal members does.  Only when those fail are all members
    scanned, to name the first failing pair.
    """
    check = containment_check(target)
    n = family.host.n
    if _first_pair_lacking(n, _minimal_members(family), check) is None:
        return None
    return _first_pair_lacking(n, family.members, check)


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
