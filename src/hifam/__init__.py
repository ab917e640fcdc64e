"""Toolkit for pattern-intersecting families of graph edge sets.

Small immutable graphs on edge bitsets, non-induced containment tests,
host-class enumeration, exact maximum clique over compatibility graphs,
multipartite family constructions, and a search driver with JSONL
persistence; a density is a count over 2^(host edge count), two integers.
"""

from .clique import (
    CliqueResult,
    CompatibilityGraph,
    build_compatibility,
    max_clique,
)
from .construct import (
    ConstructionSpec,
    MultipartiteFamily,
    SeedCheck,
    SubgraphFamily,
    check_seeds,
    lifted_count_string,
    multipartite_family,
    verify_intersecting,
)
from .detect import (
    contains_multipartite,
    contains_p4,
    contains_subgraph,
    containment_check,
)
from .enumeration import connected_graphs, is_connected
from .graphs import (
    Graph,
    Graph6Error,
    apply_permutation,
    canonical_key,
    christofides_host,
    complete,
    complete_multipartite,
    cycle,
    edge_index,
    edge_pair,
    emit_graph6,
    from_edges,
    parse_edge_list,
    parse_graph6,
    path,
)
from .search import (
    SearchRecord,
    SearchSummary,
    density_string,
    load_records,
    search_hosts,
    solve_host,
    summarize,
    verify_records,
    write_records,
)
