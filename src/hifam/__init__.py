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
    emit_edge_list,
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

__all__ = [
    "CliqueResult",
    "CompatibilityGraph",
    "ConstructionSpec",
    "Graph",
    "Graph6Error",
    "MultipartiteFamily",
    "SearchRecord",
    "SearchSummary",
    "SeedCheck",
    "SubgraphFamily",
    "apply_permutation",
    "build_compatibility",
    "canonical_key",
    "check_seeds",
    "christofides_host",
    "complete",
    "complete_multipartite",
    "connected_graphs",
    "contains_multipartite",
    "contains_p4",
    "contains_subgraph",
    "containment_check",
    "cycle",
    "density_string",
    "edge_index",
    "edge_pair",
    "emit_edge_list",
    "emit_graph6",
    "from_edges",
    "is_connected",
    "lifted_count_string",
    "load_records",
    "max_clique",
    "multipartite_family",
    "parse_edge_list",
    "parse_graph6",
    "path",
    "search_hosts",
    "solve_host",
    "summarize",
    "verify_intersecting",
    "verify_records",
    "write_records",
]

__version__ = "0.1.0"
