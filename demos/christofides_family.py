#!/usr/bin/env python3
"""Reproduce the 17-member family on the classic 6-vertex, 7-edge host.

The host is a K_{2,3} with a pendant vertex.  Among its edge subsets with a
4-vertex path, we build the compatibility graph (adjacent = the two subsets
share a path in their intersection) and solve exact maximum clique.  The
answer is 17, which beats the 16 = 2^(7-3) that the trivial
all-supergraphs-of-one-path family achieves on any 7-edge host.
"""

from hifam import (
    Graph,
    SubgraphFamily,
    build_compatibility,
    christofides_host,
    density_string,
    emit_graph6,
    lifted_count_string,
    max_clique,
    path,
    verify_intersecting,
)


def main() -> None:
    host = christofides_host()
    target = path(4)
    print(f"host: {emit_graph6(host)}  (n={host.n}, m={host.edge_count})")
    print(f"edges: {host.edge_pairs()}")
    degrees = sorted(row.bit_count() for row in host.adjacency())
    print(f"degree sequence: {degrees}")
    print()

    cg = build_compatibility(host, target)
    print(f"candidate subgraphs containing the path: {cg.size}")

    result = max_clique(cg)
    print(f"maximum family size: {result.size}")
    density = density_string(result.size, host.edge_count)
    print(f"density: {density}  (trivial bound: 1/2^{target.edge_count})")
    print()

    print("the family, one member per line (edge subsets of the host):")
    members = [cg.labels[i] for i in result.witness]
    for mask in members:
        print(f"  {mask:#06x}  {Graph(host.n, mask).edge_pairs()}")

    family = SubgraphFamily(host, members)
    failure = verify_intersecting(family, target)
    print()
    print(f"pairwise verification: {'ok' if failure is None else failure}")
    print(f"lifted to 6 labeled vertices: {lifted_count_string(result.size, host.edge_count, 6)}")
    print(f"lifted to 10 labeled vertices: {lifted_count_string(result.size, host.edge_count, 10)}")


if __name__ == "__main__":
    main()
