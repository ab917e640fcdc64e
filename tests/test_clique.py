"""Compatibility graph construction and the exact clique solver."""

import gc
import hashlib
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from hifam import (
    CompatibilityGraph,
    Graph,
    SubgraphFamily,
    build_compatibility,
    canonical_key,
    christofides_host,
    complete,
    complete_multipartite,
    connected_graphs,
    containment_check,
    contains_subgraph,
    cycle,
    emit_graph6,
    from_edges,
    is_connected,
    max_clique,
    parse_graph6,
    path,
    search_hosts,
    solve_host,
    summarize,
)
from hifam import clique, detect
from hifam.clique import MAX_CANDIDATES, MAX_HOST_EDGES, _color_sort, _lex_min_clique
from hifam.graphs import UserError, iter_bits, submasks

from oracles import (
    PAW,
    TWO_K2,
    brute_force_clique,
    certify_clique_bound,
    coloring_max_clique,
    containment_rows,
    degree_ordered_clique_size,
    every_host,
    lattice_sweep_compatibility,
    pairs_instance,
    pairwise_compatibility,
    plain_instance,
    random_instance,
    recursive_upset_search,
    rows_edges,
    stepwise_lex_min_clique,
    sweep_compatibility,
    _top_first_coloring,
    validate_compatibility,
    verify_pairwise,
)


def _random_upset_instance(rng, e):
    """Candidates: an up-set T of e-bit masks, generated by a few random
    masks; a and b adjacent when a & b is in T.  A compatibility graph for
    an arbitrary monotone target property, with its sup and sub rows."""
    gens = [rng.getrandbits(e) for _ in range(rng.randint(1, 4))]
    labels = [s for s in range(1 << e) if any(s & g == g for g in gens)]
    holds = set(labels)
    adjacency = [
        sum(1 << j for j, b in enumerate(labels) if j != i and a & b in holds)
        for i, a in enumerate(labels)
    ]
    sup, sub = containment_rows(plain_instance(adjacency, labels))
    return CompatibilityGraph(labels, adjacency, sup, sub)


def _excl(adjacency):
    """Each vertex's complement of its closed neighbourhood, as max_clique
    builds it for the coloring."""
    everyone = (1 << len(adjacency)) - 1
    return [everyone ^ (row | 1 << v) for v, row in enumerate(adjacency)]


def _oracle_args(args):
    """_upset_search's arguments with the adjacency rows the recursion
    takes in place of the excl rows: everyone ^ excl[v] is v's closed
    neighbourhood."""
    p_mask, floor, stop, excl, sup, sub = args
    everyone = (1 << len(excl)) - 1
    return p_mask, floor, stop, [everyone ^ row ^ 1 << v for v, row in enumerate(excl)], sup, sub


# ---------------------------------------------------------------------------
# compatibility graph construction
# ---------------------------------------------------------------------------


def test_path_host_has_single_candidate():
    cg = build_compatibility(path(4), path(4))
    assert cg.size == 1
    assert cg.labels == [path(4).edges]
    assert cg.adjacency == [0]
    assert cg.sup == cg.sub == [1]
    validate_compatibility(cg)


def test_triangle_host_has_no_candidates():
    cg = build_compatibility(complete(3), path(4))
    assert cg.size == 0


def test_christofides_compatibility_structure():
    cg = build_compatibility(christofides_host(), path(4))
    validate_compatibility(cg)
    target = path(4)
    host = christofides_host()
    # every candidate contains the target itself
    for label in cg.labels:
        assert contains_subgraph(Graph(host.n, label).adjacency(), target)
    # adjacency means target-containing intersection
    for i in range(cg.size):
        for j in range(i + 1, cg.size):
            expected = contains_subgraph(
                Graph(host.n, cg.labels[i] & cg.labels[j]).adjacency(), target
            )
            assert bool(cg.adjacency[i] >> j & 1) == expected


@pytest.mark.parametrize("hosts, target", [
    (lambda: connected_graphs(6, 7, True), path(4)),
    (lambda: connected_graphs(6, 8, True), path(4)),
    (lambda: connected_graphs(6, 11, True), complete(3)),
    (lambda: connected_graphs(7, 6, True), path(4)),
    (lambda: connected_graphs(7, 7, True), path(4)),
    (lambda: connected_graphs(7, 8, True), path(4)),
    (lambda: [christofides_host()], path(4)),
    (lambda: [christofides_host(), complete(4), complete_multipartite([2, 3])],
     complete_multipartite([1, 2])),
    # K5 has 893 P4 candidates: minutes for the old solver
    (lambda: every_host([5], 9), path(4)),
    (lambda: every_host([5]), complete(3)),
], ids=["p4-m7", "p4-m8", "k3-m11", "p4-n7-m6", "p4-n7-m7", "p4-n7-m8", "christofides", "k12",
        "p4-n5", "k3-n5"])
def test_builder_and_solver_match_oracles(hosts, target):
    for host in hosts():
        cg = build_compatibility(host, target)
        old = pairwise_compatibility(host, target)
        assert cg.labels == old.labels
        assert cg.adjacency == old.adjacency
        assert (cg.sup, cg.sub) == containment_rows(cg)
        result = max_clique(cg)
        expected = coloring_max_clique(cg)
        assert (result.size, result.witness) == (expected.size, expected.witness)
        assert result.size == degree_ordered_clique_size(cg)


def test_large_hosts_match_oracles(request):
    """Every connected host with 6 or 7 vertices and 9 edges against the old
    solver, and K5's optimum against the degree-ordered one (about 40 s)."""
    if not request.config.getoption("--run-large-verify"):
        pytest.skip("needs --run-large-verify")
    cg = build_compatibility(complete(5), path(4))
    result = max_clique(cg)
    assert result.size == degree_ordered_clique_size(cg) == 128
    members = {cg.labels[i] for i in result.witness}
    assert len(members) == 128
    assert all(contains_subgraph(Graph(5, a & b).adjacency(), path(4))
               for a in members for b in members)
    for host in connected_graphs(6, 9, True) + connected_graphs(7, 9, True):
        cg = build_compatibility(host, path(4))
        assert (cg.sup, cg.sub) == containment_rows(cg)
        result = max_clique(cg)
        expected = coloring_max_clique(cg)
        assert (result.size, result.witness) == (expected.size, expected.witness)


@pytest.fixture(scope="module")
def ten_edge_records(request):
    """P4 records of every connected host with 6 or 7 vertices and 10 edges,
    keyed by n; solved once for the tests below (about 3 minutes)."""
    if not request.config.getoption("--run-large-verify"):
        pytest.skip("needs --run-large-verify")
    return {n: search_hosts(connected_graphs(n, 10), path(4)) for n in (6, 7)}


def test_ten_edge_hosts_reach_the_paper_density(ten_edge_records):
    """17/2^7 is the best P4 density over connected 6-vertex hosts with 10
    edges: 13 of the 14 classes reach 136 and Etv_ reaches 128."""
    records = ten_edge_records[6]
    summary = summarize(records)
    assert str(summary.max_density) == "17/2^7"
    assert summary.max_clique_size == 136
    assert len(summary.argmax_hosts) == 13
    assert {r.host_graph6: r.clique_size for r in records
            if r.clique_size != 136} == {"Etv_": 128}


@pytest.fixture(scope="module")
def p4_records():
    """P4 records of every connected host with 6 or 7 vertices and 6 to 9
    edges, keyed by (n, m); solved once for the tests below (a few seconds)."""
    return {(n, m): search_hosts(connected_graphs(n, m), path(4))
            for n in (6, 7) for m in range(6, 10)}


@pytest.mark.parametrize("n, m, sizes, best", [
    (6, 7, {16: 18, 17: 1}, "17/2^7"),
    (6, 8, {32: 18, 34: 4}, "17/2^7"),
    (6, 9, {64: 12, 68: 8}, "17/2^7"),
    (7, 6, {0: 1, 8: 10}, "1/2^3"),
    (7, 7, {16: 33}, "1/2^3"),
    (7, 8, {32: 63, 34: 4}, "17/2^7"),
    (7, 9, {64: 87, 68: 20}, "17/2^7"),
])
def test_p4_rows(p4_records, n, m, sizes, best):
    """Hosts per P4 clique size over the connected hosts with n vertices and
    m edges: 17/2^7 stays the best density, and 1/2^3 is best on 7 vertices
    below 8 edges."""
    records = p4_records[n, m]
    assert Counter(r.clique_size for r in records) == sizes
    summary = summarize(records)
    assert str(summary.max_density) == best
    if (n, m) == (7, 8):
        assert summary.argmax_hosts == ["F]qC?", "F]pC?", "FlhC?", "FbXc?"]


P4_HOSTS = [g for m in (7, 8, 9) for g in connected_graphs(6, m)]


@pytest.mark.parametrize("host", P4_HOSTS, ids=[emit_graph6(g) for g in P4_HOSTS])
def test_p4_optimum_is_certified_without_the_solver(host):
    """The solver's P4 optimum on each connected 6-vertex host with 7 to 9
    edges, checked by oracles only: its witness is a family (the lower
    bound), and the every-clique search seeded with the optimum finds
    nothing larger (the upper bound), on the pairwise-built graph."""
    cg = pairwise_compatibility(host, path(4))
    result = max_clique(cg)
    family = SubgraphFamily(host, [cg.labels[i] for i in result.witness])
    assert verify_pairwise(family, path(4), require_self=True) is None
    assert certify_clique_bound(cg, result.size)[0] == result.size


@pytest.mark.parametrize("m, hosts, nodes", [(8, 67, 2_877), (9, 107, 191_266)])
def test_seven_vertex_p4_rows_are_certified_without_the_solver(p4_records, m, hosts, nodes):
    """The recorded P4 optimum on each connected 7-vertex host with m edges,
    checked by oracles only: its witness is a family (the lower bound), and
    the every-clique search seeded with the optimum finds nothing larger on
    the built graph (the upper bound).  The m = 9 row takes about 5 s."""
    records = p4_records[7, m]
    total = 0
    for record in records:
        host = parse_graph6(record.host_graph6)
        family = SubgraphFamily(host, [int(h, 16) for h in record.witness_hex])
        assert len(family.members) == record.clique_size
        assert verify_pairwise(family, path(4), require_self=True) is None
        cg = build_compatibility(host, path(4))
        best, count = certify_clique_bound(cg, record.clique_size)
        assert best == record.clique_size, record.host_graph6
        total += count
    assert (len(records), total) == (hosts, nodes)


def test_seven_vertex_ten_edge_p4_row(ten_edge_records):
    """The connected 7-vertex hosts with 10 edges: 60 of the 132 classes
    reach 17/2^7, and F~LC? lies strictly between 1/8 and 17/2^7."""
    records = ten_edge_records[7]
    assert Counter(r.clique_size for r in records) == {128: 71, 132: 1, 136: 60}
    assert [r.host_graph6 for r in records if r.clique_size == 132] == ["F~LC?"]


@pytest.mark.parametrize("host, target, calls", [
    (christofides_host(), path(4), 20),  # of 35 three-edge subsets
    (complete(4), complete(3), 4),  # of 20 three-edge subsets
])
def test_containment_calls_only_on_copies(spy, host, target, calls):
    tests = [spy(detect, name)
             for name in ("contains_p4", "contains_multipartite", "contains_subgraph")]
    cg = build_compatibility(host, target)
    made = [rows_edges(args[0]) for called in tests for args in called]
    # only subsets with the target's edge and non-isolated vertex counts
    assert len(made) == len(set(made)) == calls
    assert all(s.bit_count() == target.edge_count for s in made)
    # the candidates are exactly the holders of the full per-subset table
    check = containment_check(target)
    assert cg.labels == [s for s in submasks(host.edges) if check(Graph(host.n, s).adjacency())]


@pytest.mark.parametrize("target", [
    Graph(3, 0),
    complete_multipartite([6]),  # more isolated vertices than the host has
    from_edges(5, [(0, 1), (2, 3)]),  # 2K2 with an isolated vertex
    cycle(4),
    complete_multipartite([1, 3]),
    complete_multipartite([1, 1, 1]),
    complete_multipartite([2, 2]),
    complete(5),
], ids=["edgeless", "one-part", "2k2", "c4", "k13", "k111", "k22", "k5"])
def test_builder_matches_oracle_on_edge_case_targets(target):
    """Edgeless targets (every subset a candidate), isolated target vertices,
    targets sharing P4's vertex or edge count and more edges than most hosts,
    against the per-subset table on every 5-vertex host."""
    for host in every_host([5]):
        cg = build_compatibility(host, target)
        old = pairwise_compatibility(host, target)
        assert (cg.labels, cg.adjacency) == (old.labels, old.adjacency)
        assert (cg.sup, cg.sub) == containment_rows(cg)


def _built_or_refused(build, host, target):
    try:
        return build(host, target)
    except UserError as error:
        return str(error)


def test_builder_matches_the_sweeps_it_replaced():
    """Labels, adjacency, sup and sub rows, or the refusal, as the lattice
    sweeps gave them: one subset sweep over the copies' closure and, before
    it, the table's shift closure and two sweeps.  Every host with at most
    6 vertices against nine targets: K2, P3 = K_{1,2}, P4, K3, C4, 2K2, the
    paw, the edgeless target (k = 0: one copy, every subset a candidate)
    and K5 (more edges than every host but K5 and K6); K6 passes the
    candidate cap with K5 alone.  And three large instances: K5 with P4,
    whose 60 copies overlap, K_{1,12} with K2 and K_{2,7} with K_{2,3}."""
    targets = [complete(2), path(3), path(4), complete(3), cycle(4), TWO_K2, PAW, Graph(3, 0),
               complete(5)]
    pairs = [(host, target) for host in every_host(range(1, 7)) for target in targets]
    pairs += [
        (complete(5), path(4)),
        (complete_multipartite([1, 12]), complete(2)),
        (complete_multipartite([2, 7]), complete_multipartite([2, 3])),
    ]
    refused = 0
    for host, target in pairs:
        new = _built_or_refused(build_compatibility, host, target)
        assert new == _built_or_refused(lattice_sweep_compatibility, host, target), (host, target)
        assert new == _built_or_refused(sweep_compatibility, host, target), (host, target)
        refused += isinstance(new, str)
    assert (len(pairs), refused) == (1875, 8)
    k5 = build_compatibility(complete(5), path(4))
    assert (k5.size, sum(label.bit_count() == 3 for label in k5.labels)) == (893, 60)


def _digest(cg):
    """One hash of the labels and the three lists of rows, so that two
    builds of a large host need not be held at once."""
    digest = hashlib.sha256()
    for rows in cg.labels, cg.adjacency, cg.sup, cg.sub:
        width = (max(rows, default=0).bit_length() + 7) // 8
        digest.update(b"%d %d;" % (len(rows), width))
        for row in rows:
            digest.update(row.to_bytes(width, "little"))
    return digest.digest()


def test_builder_matches_the_lattice_sweep_on_the_largest_star():
    """K_{1,14} with K2: 14 one-edge copies, each ORed into 2^13 entries,
    and 16,383 candidates, just under the cap."""
    host = complete_multipartite([1, 14])
    digests = [_digest(build(host, complete(2)))
               for build in (build_compatibility, lattice_sweep_compatibility)]
    assert digests[0] == digests[1]


def test_builder_peak_memory_stays_at_the_sweeps():
    """The half-tables cost next to nothing beside the rows: on K_{2,7}
    with K_{2,3} (3,991 candidates) the builder's tracemalloc peak stays
    within 10% of the sweeps' (one table of 2^14 sup rows, dropped before
    the adjacency sweep, took 1.13 times it)."""
    host, target = complete_multipartite([2, 7]), complete_multipartite([2, 3])
    peaks = []
    tracemalloc.start()
    try:
        for build in (sweep_compatibility, build_compatibility):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert build(host, target).size == 3991
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_phase_one_starts_from_the_trivial_family():
    """K_{1,12} with K2: the trivial family, the 2,048 supersets of one
    edge, is optimal, so phase 1 proves it at its first node, and the solve
    allocates less than the build.  A phase 1 that started from nothing
    dived 1,025 nodes deep, each frame keeping its colour listing: 220 MB
    at its peak, and about 4 GB on K_{1,14}."""
    tracemalloc.start()
    try:
        cg = build_compatibility(complete_multipartite([1, 12]), complete(2))
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = max_clique(cg)
        solve_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (result.size, result.phase1_nodes) == (2048, 1)
    assert solve_peak < build_peak


@pytest.mark.parametrize("target, size", [
    (complete(3), 256),  # contains_multipartite
    (PAW, 128),  # contains_subgraph
], ids=["k3", "paw"])
def test_solving_a_host_leaves_no_reference_cycles(target, size):
    """The recursive closures of the solver and the containment tests must
    not keep a host's rows alive until the cycle collector runs."""
    host = connected_graphs(6, 11, True)[-1]
    gc.collect()
    gc.disable()
    try:
        result = max_clique(build_compatibility(host, target))
        assert result.size == size
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("host", [
    Graph(7, (1 << 17) - 1),  # 17 edges
    complete_multipartite([2, 9]),  # K_{2,9}: 18 edges
])
def test_compatibility_cap(host):
    assert host.edge_count > MAX_HOST_EDGES == 16
    with pytest.raises(ValueError, match=f"capped at {MAX_HOST_EDGES} host edges"):
        build_compatibility(host, path(4))


@pytest.mark.parametrize("host,count", [
    (complete(6), 32_056),
    (complete_multipartite([2, 8]), 58_967),
])
def test_candidate_cap(host, count):
    assert host.edge_count <= MAX_HOST_EDGES
    with pytest.raises(ValueError, match=f"capped at {MAX_CANDIDATES} candidates, got {count}"):
        build_compatibility(host, path(4))


def test_candidate_cap_admits_every_connected_six_vertex_host():
    # K6 minus an edge, the one class with m = 14, has the most P4 candidates
    host = Graph(6, complete(6).edges & ~1)
    assert build_compatibility(host, path(4)).size == 15_832 <= MAX_CANDIDATES == 1 << 14


def test_christofides_maximum_family_size():
    host = christofides_host()
    cg = build_compatibility(host, path(4))
    assert max_clique(cg).size == 17
    assert solve_host(host, cg).density == "17/2^7"


def test_witness_is_valid_intersecting_family():
    host = christofides_host()
    target = path(4)
    cg = build_compatibility(host, target)
    result = max_clique(cg)
    members = [Graph(host.n, cg.labels[i]) for i in result.witness]
    assert len(members) == result.size
    for a in range(len(members)):
        assert contains_subgraph(members[a].adjacency(), target)
        for b in range(a + 1, len(members)):
            common = Graph(host.n, members[a].edges & members[b].edges)
            assert contains_subgraph(common.adjacency(), target)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_empty_instance():
    result = max_clique(plain_instance([]))
    assert result.size == 0 and result.witness == []


def test_complete_instance():
    k = 6
    adjacency = [((1 << k) - 1) & ~(1 << v) for v in range(k)]
    result = max_clique(plain_instance(adjacency))
    assert result.size == k
    assert result.witness == list(range(k))


def test_five_cycle_instance():
    cg = pairs_instance(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert max_clique(cg).size == 2
    assert brute_force_clique(cg) == 2


def test_solver_agrees_with_brute_force():
    rng = random.Random(97)
    for trial in range(100):
        size = rng.randint(1, 20)
        p = rng.choice([0.2, 0.5, 0.8])
        cg = random_instance(rng, size, p)
        assert max_clique(cg).size == brute_force_clique(cg), (trial, size, p)


def test_solver_matches_degree_ordered_oracle():
    rng = random.Random(109)
    for trial in range(100):
        size = rng.randint(1, 60)
        p = rng.choice([0.2, 0.5, 0.8, 0.9])
        cg = random_instance(rng, size, p)
        result = max_clique(cg)
        assert result.size == degree_ordered_clique_size(cg), (trial, size, p)
        expected = coloring_max_clique(cg)
        assert (result.size, result.witness) == (expected.size, expected.witness)


def test_solver_matches_oracle_on_random_upset_instances():
    rng = random.Random(113)
    for trial in range(60):
        cg = _random_upset_instance(rng, rng.randint(2, 7))
        validate_compatibility(cg)
        result = max_clique(cg)
        expected = coloring_max_clique(cg)
        assert (result.size, result.witness) == (expected.size, expected.witness), trial
        if cg.size <= 25:
            assert result.size == brute_force_clique(cg), trial


def test_upset_loop_matches_the_recursion_it_replaced(spy):
    """The stack loop returns what the recursive search returned, (size,
    mask, nodes), on random up-set instances with phase 1's and phase 2's
    floor and stop, and on every call both phases make for the connected
    6-vertex P4 hosts with 7 to 9 edges."""
    rng = random.Random(113)
    for trial in range(60):
        cg = _random_upset_instance(rng, rng.randint(2, 7))
        rows = _excl(cg.adjacency), cg.sup, cg.sub
        full = (1 << cg.size) - 1
        best = clique._upset_search(full, 0, cg.size + 1, *rows)[0]
        for floor, stop in ((0, cg.size + 1), (best - 2, best - 1), (best, best + 1)):
            args = (full, floor, stop, *rows)
            expected = recursive_upset_search(*_oracle_args(args))
            assert clique._upset_search(*args) == expected, trial

    loop = clique._upset_search
    calls = spy(clique, "_upset_search")
    for m in (7, 8, 9):
        for host in connected_graphs(6, m, True):
            max_clique(build_compatibility(host, path(4)))
    assert len(calls) == 796  # one phase-1 call per host (61), 735 from phase 2
    for args in calls:
        assert loop(*args) == recursive_upset_search(*_oracle_args(args))


def test_adding_edges_never_shrinks_clique():
    rng = random.Random(101)
    for _ in range(30):
        size = rng.randint(3, 14)
        cg = random_instance(rng, size, 0.4)
        before = max_clique(cg).size
        missing = [
            (i, j)
            for i in range(size)
            for j in range(i + 1, size)
            if not cg.adjacency[i] >> j & 1
        ]
        if not missing:
            continue
        i, j = rng.choice(missing)
        cg.adjacency[i] |= 1 << j
        cg.adjacency[j] |= 1 << i
        assert max_clique(cg).size >= before


def test_root_coloring_bound_is_sound():
    rng = random.Random(103)
    for _ in range(20):
        size = rng.randint(2, 16)
        cg = random_instance(rng, size, 0.5)
        bound = _color_sort((1 << size) - 1, _excl(cg.adjacency), 0)[-1][1]
        assert bound >= max_clique(cg).size


def test_coloring_fills_each_class_from_the_top():
    # path 0 - 1 - 2 and an isolated 3: both orders find two classes,
    # but the top-first one places 3 and 2 before 0
    cg = pairs_instance(4, [(0, 1), (1, 2)])
    assert _color_sort(0b1111, _excl(cg.adjacency), 0) == [(3, 1), (2, 1), (0, 1), (1, 2)]


def test_coloring_lists_exactly_the_classes_above_the_cut_off():
    """On random sets of random graphs, and for every cut-off from below 0
    to past the last color, the listing is the oracle coloring's (vertex,
    color) pairs with color above the cut-off, in the same order."""
    rng = random.Random(109)
    for trial in range(200):
        size = rng.randint(1, 24)
        adjacency = random_instance(rng, size, rng.random()).adjacency
        excl = _excl(adjacency)
        p_mask = rng.getrandbits(size)
        full = _top_first_coloring(p_mask, adjacency)
        colors = full[-1][1] if full else 0
        for kmin in range(-1, colors + 2):
            expected = [(v, color) for v, color in full if color > kmin]
            assert _color_sort(p_mask, excl, kmin) == expected, (trial, kmin)


def test_witness_is_lexicographically_smallest():
    rng = random.Random(107)
    for _ in range(40):
        size = rng.randint(2, 12)
        cg = random_instance(rng, size, 0.5)
        result = max_clique(cg)
        # enumerate every maximum clique independently
        best: list[list[int]] = []

        def grow(chosen, cand):
            if len(chosen) == result.size:
                best.append(list(chosen))
                return
            for v in range(size):
                if cand >> v & 1:
                    grow(chosen + [v], cand & cg.adjacency[v] & ~((1 << (v + 1)) - 1))

        grow([], (1 << size) - 1)
        assert best, "solver size not reachable by enumeration"
        assert result.witness == min(sorted(w) for w in best)


def test_solver_restores_recursion_limit(monkeypatch):
    """The solver leaves the interpreter's recursion limit alone: both
    phases are loops, and neither recurses once per up-set taken."""
    def refuse(limit):
        raise AssertionError(f"solver called sys.setrecursionlimit({limit})")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert max_clique(build_compatibility(christofides_host(), path(4))).size == 17
    dense = connected_graphs(6, 11, True)[-1]
    assert max_clique(build_compatibility(dense, complete(3))).size == 256
    assert max_clique(plain_instance([0] * 300)).witness == [0]


def test_phase_two_walks_from_the_known_clique(spy):
    """Phase 2 tests only the vertices below the known clique's lowest: on
    the 5-cycle, from {2, 3} one feasibility search (P_0 = {1, 4} holds a
    vertex) reaches [0, 1]; from {0, 1} there is nothing below to test."""
    cg = pairs_instance(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    own = [1 << v for v in range(5)]
    excl = _excl(cg.adjacency)
    search = clique._upset_search
    searched = spy(clique, "_upset_search")
    witness, nodes = _lex_min_clique(excl, own, own, 5, 0b01100)
    assert (witness, [args[0] for args in searched]) == ([0, 1], [0b10010])
    assert nodes == search(0b10010, 0, 1, excl, own, own)[2]
    searched.clear()
    assert _lex_min_clique(excl, own, own, 5, 0b00011) == ([0, 1], 0)
    assert searched == []


def _stepwise_phase_two(cg):
    """max_clique's phase 1, then the stepwise oracle's phase 2: (witness,
    phase-2 nodes)."""
    n = cg.size
    excl = _excl(cg.adjacency)
    trivial = cg.sup[0] if n else 0
    best, found, _ = clique._upset_search(
        (1 << n) - 1, trivial.bit_count(), n + 1, excl, cg.sup, cg.sub
    )
    return stepwise_lex_min_clique(excl, cg.sup, cg.sub, n, best, found or trivial)


def _stop_step(cg, witness):
    """The first step of phase 2 at which the remaining set is exactly as
    large as the clique still needed, so is that clique, or None."""
    everyone = (1 << cg.size) - 1
    p_mask = everyone
    for step, v in enumerate(witness):
        if p_mask.bit_count() == len(witness) - step:
            return step
        p_mask &= cg.adjacency[v] & everyone << v + 1
    return None


def test_phase_two_matches_the_stepwise_oracle():
    """Witnesses and phase-2 node counts as the loop that took the known
    clique one vertex at a time gave them: every host of the P4 and the
    triangle searches the benchmark runs, where the stop comes at step 1
    on every triangle host, whose optimum is the trivial 256; and three
    optima that beat the trivial family, where it comes partway."""
    stops = Counter()
    for hosts, target in ([g for m in (7, 8) for g in connected_graphs(6, m, True)], path(4)), \
            (connected_graphs(6, 11, True), complete(3)):
        for host in hosts:
            cg = build_compatibility(host, target)
            result = max_clique(cg)
            assert (result.witness, result.phase2_nodes) == _stepwise_phase_two(cg), host
            stops[target.edge_count, _stop_step(cg, result.witness), result.size] += 1
    assert stops[3, 1, 256] == 9
    assert sum(stops.values()) == 50
    for host, target, step, size, trivial in [
        (christofides_host(), path(4), 4, 17, 16),
        (complete_multipartite([1, 1, 4]), complete_multipartite([1, 2]), 7, 160, 128),
        (parse_graph6("E}q?"), PAW, 5, 17, 16),
        (complete(5), complete(3), 1, 128, 128),
    ]:
        cg = build_compatibility(host, target)
        result = max_clique(cg)
        assert (result.witness, result.phase2_nodes) == _stepwise_phase_two(cg)
        assert (_stop_step(cg, result.witness), result.size) == (step, size)
        assert cg.sup[0].bit_count() == trivial


def test_phase_two_matches_the_stepwise_oracle_on_plain_instances():
    rng = random.Random(331)
    stopped = 0
    for trial in range(300):
        cg = random_instance(rng, rng.randint(0, 16), rng.choice([0.2, 0.5, 0.8]))
        result = max_clique(cg)
        assert (result.witness, result.phase2_nodes) == _stepwise_phase_two(cg), trial
        stopped += 0 < (_stop_step(cg, result.witness) or 0)
    assert stopped > 100


def test_node_counters():
    def totals(*ms):
        results = [max_clique(build_compatibility(host, path(4)))
                   for m in ms for host in connected_graphs(6, m, True)]
        return sum(r.phase1_nodes for r in results), sum(r.phase2_nodes for r in results)

    christofides = max_clique(build_compatibility(christofides_host(), path(4)))
    assert (christofides.phase1_nodes, christofides.phase2_nodes) == (11, 29)
    assert totals(7, 8) == (1227, 261)
    assert totals(9) == (9447, 1484)
    k114 = max_clique(build_compatibility(complete_multipartite([1, 1, 4]),
                                          complete_multipartite([1, 2])))
    assert (k114.size, k114.phase1_nodes, k114.phase2_nodes) == (160, 3871, 27)


def _lifting_pairs(records, below):
    """Check opt(G) >= 2 opt(G - e) for each record's host G and each edge e
    whose removal leaves G connected, opt(G - e) taken from the records one
    edge below; returns the number of pairs checked.

    A family on G - e and its members with e added form a family on G,
    twice as large and still intersecting, so an undercounting builder or
    solver breaks the inequality.
    """
    opt = {canonical_key(parse_graph6(r.host_graph6)): r.clique_size for r in below}
    pairs = 0
    for record in records:
        host = parse_graph6(record.host_graph6)
        for b in iter_bits(host.edges):
            child = Graph(host.n, host.edges ^ 1 << b)
            if is_connected(child):
                assert record.clique_size >= 2 * opt[canonical_key(child)], record.host_graph6
                pairs += 1
    return pairs


def test_lifting_inequality_over_one_edge_pairs(p4_records):
    """Every connected host with 6 or 7 vertices and 7 to 9 edges against
    the records one edge below it."""
    pairs = {n: sum(_lifting_pairs(p4_records[n, m], p4_records[n, m - 1]) for m in (7, 8, 9))
             for n in (6, 7)}
    assert pairs == {6: 448, 7: 1374}


def test_lifting_inequality_on_the_ten_edge_rows(p4_records, ten_edge_records):
    """Every connected host with 6 or 7 vertices and 10 edges against the
    9-edge records."""
    pairs = {n: _lifting_pairs(ten_edge_records[n], p4_records[n, 9]) for n in (6, 7)}
    assert pairs == {6: 138, 7: 1232}


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force_clique(plain_instance([0] * 26))


def test_validate_rejects_broken_adjacency():
    bad = plain_instance([0b10, 0b00])
    with pytest.raises(ValueError):
        validate_compatibility(bad)
    reflexive = plain_instance([0b1])
    with pytest.raises(ValueError):
        validate_compatibility(reflexive)
    duplicates = plain_instance([0, 0], [5, 5])
    with pytest.raises(ValueError):
        validate_compatibility(duplicates)
    # labels 1 and 3: candidate 1 contains candidate 0
    validate_compatibility(CompatibilityGraph([1, 3], [0b10, 0b01], [0b11, 0b10], [0b01, 0b11]))
    for sup, sub in [
        ([0b10, 0b10], [0b01, 0b11]),  # 0 missing from sup[0]
        ([0b11, 0b10], [0b01, 0b10]),  # 0 in sup[0]... but not in sub[1]
        ([0b01, 0b10], [0b01, 0b11]),  # sub[1] holds 0, sup[0] lacks 1
        ([0b11, 0b10], None),
    ]:
        with pytest.raises(ValueError):
            validate_compatibility(CompatibilityGraph([1, 3], [0b10, 0b01], sup, sub))
