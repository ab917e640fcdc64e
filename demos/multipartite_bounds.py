#!/usr/bin/env python3
"""Density table for the multipartite family construction.

For a complete multipartite pattern K_{s_1,...,s_{k-1},t}, hosting the
family on K_{s_1,...,s_{k-1},t+2} and taking each of the t+2
vertex-deleted seeds and every supergraph of it, the host shared, gives
(t+2)(2^m - 1) + 1 members with m = s_1 + ... + s_{k-1}.  At t >= 2^m
this beats the trivial 1/2^e(pattern) density; the table below uses the
smallest such t.
"""

from hifam import density_string, multipartite_family, verify_intersecting

CASES = [
    (1,),
    (2,),
    (3,),
    (4,),
    (5,),
    (1, 1),
    (1, 2),
    (2, 2),
    (1, 1, 1),
]


def main() -> None:
    header = f"{'pattern':>14} {'host':>16} {'family':>8} {'density':>12} {'trivial':>14} verdict"
    print(header)
    print("-" * len(header))
    for parts in CASES:
        t = 1 << sum(parts)
        built = multipartite_family(parts, t)
        e_host = built.host.edge_count
        size = len(built.family)
        trivial = 1 << (e_host - built.target.edge_count)
        pattern = "K_{" + ",".join(map(str, parts + (t,))) + "}"
        host = "K_{" + ",".join(map(str, built.host_parts)) + "}"
        verdict = "improved" if size > trivial else "not improved"
        print(f"{pattern:>14} {host:>16} {size:>8} {density_string(size, e_host):>12} "
              f"{density_string(trivial, e_host):>14} {verdict}  ({size} vs {trivial})")

    # the smallest instance is cheap enough to verify pair by pair right here
    built = multipartite_family((1,), 2)
    failure = verify_intersecting(built.family, built.target)
    print()
    print(f"full pairwise check of the K_{{1,2}} instance "
          f"({len(built.family)} members): {'ok' if failure is None else failure}")


if __name__ == "__main__":
    main()
