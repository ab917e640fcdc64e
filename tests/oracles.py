"""Independent oracles that the library's fast paths are pinned against.

Each one is the plain, slow way to compute something the library computes
another way; tests compare the two.
"""

from hifam import CompatibilityGraph
from hifam.graphs import iter_bits


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
