#!/usr/bin/env python3
"""Exhaustive search over small connected hosts for path-intersecting families.

For every connected 6-vertex host with 7 or 8 edges (one representative per
isomorphism class), build the compatibility graph of its path-containing
edge subsets and solve exact maximum clique.  The best density over all 41
hosts is 17/2^7, reached only by the pendant-plus-K_{2,3} host at 7 edges
and by its one-extra-edge extensions at 8.

Run with an output path to keep the per-host JSONL records:

    python demos/host_search.py [records.jsonl]
"""

import sys

from hifam import (
    connected_graphs,
    parse_graph6,
    path,
    search_hosts,
    summarize,
    verify_records,
    write_records,
)


def main() -> None:
    target = path(4)
    hosts = [g for m in (7, 8) for g in connected_graphs(6, m, True)]
    records = search_hosts(hosts, target, jobs=2)
    summary = summarize(records)

    print(f"hosts solved: {len(records)}")
    print(f"best density: {summary.max_density}")
    print(f"best family size: {summary.max_clique_size}")
    print(f"attained by: {' '.join(summary.argmax_hosts)}")
    print()

    print(f"{'host':>8} {'m':>3} {'family':>7} {'density':>9}")
    for rec in records:
        print(f"{rec.host_graph6:>8} {rec.m:>3} {rec.clique_size:>7} {rec.density:>9}")

    for g6 in summary.argmax_hosts:
        g = parse_graph6(g6)
        degrees = sorted(row.bit_count() for row in g.adjacency())
        print(f"\nbest host {g6}: degree sequence {degrees}, "
              f"edges {g.edge_pairs()}")

    problems = verify_records(records, target)
    print(f"\nwitness re-verification: {len(problems)} violations")

    if len(sys.argv) > 1:
        write_records(records, sys.argv[1])
        print(f"records written to {sys.argv[1]}")


if __name__ == "__main__":
    main()
