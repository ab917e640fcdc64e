"""Compatibility graph construction and the exact clique solver."""

import gc
import random
import sys

import pytest

from hifam import (
    CompatibilityGraph,
    Graph,
    HostClass,
    MultipartiteTarget,
    build_compatibility,
    canonical_key,
    christofides_host,
    complete,
    complete_multipartite,
    connected_graphs,
    containment_check,
    contains_subgraph,
    cycle,
    from_edges,
    intersection,
    is_connected,
    max_clique,
    parse_graph6,
    path,
    search_hosts,
)
from hifam import clique
from hifam.clique import MAX_HOST_EDGES, _color_sort, _lex_min_clique
from hifam.graphs import iter_bits, submasks

from oracles import (
    brute_force_clique,
    coloring_max_clique,
    containment_rows,
    degree_ordered_clique_size,
    pairwise_compatibility,
    validate_compatibility,
)


def _instance(adjacency: list[int]) -> CompatibilityGraph:
    return CompatibilityGraph(labels=list(range(len(adjacency))), adjacency=adjacency)


def _random_instance(rng, size, p):
    adjacency = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < p:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return _instance(adjacency)


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
    cg = CompatibilityGraph(labels, adjacency, e)
    cg.sup, cg.sub = containment_rows(cg)
    return cg


def _from_pairs(size, pairs):
    adjacency = [0] * size
    for i, j in pairs:
        adjacency[i] |= 1 << j
        adjacency[j] |= 1 << i
    return _instance(adjacency)


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
        assert contains_subgraph(Graph(host.n, label), target)
    # adjacency means target-containing intersection
    for i in range(cg.size):
        for j in range(i + 1, cg.size):
            expected = contains_subgraph(
                Graph(host.n, cg.labels[i] & cg.labels[j]), target
            )
            assert bool(cg.adjacency[i] >> j & 1) == expected


def _all_hosts(n):
    return [g for m in range(n * (n - 1) // 2 + 1) for g in connected_graphs(HostClass(n, m, False))]


@pytest.mark.parametrize("hosts, target", [
    (lambda: connected_graphs(HostClass(6, 7, True)), path(4)),
    (lambda: connected_graphs(HostClass(6, 8, True)), path(4)),
    (lambda: connected_graphs(HostClass(6, 11, True)), complete(3)),
    (lambda: [christofides_host()], path(4)),
    (lambda: [christofides_host(), complete(4), complete_multipartite([2, 3])],
     MultipartiteTarget((1, 2))),
    # K5 has 893 P4 candidates: minutes for the old solver
    (lambda: [g for g in _all_hosts(5) if g.edge_count < 10], path(4)),
    (lambda: _all_hosts(5), complete(3)),
], ids=["p4-m7", "p4-m8", "k3-m11", "christofides", "k12", "p4-n5", "k3-n5"])
def test_builder_and_solver_match_oracles(hosts, target):
    for host in hosts():
        cg = build_compatibility(host, target)
        old = pairwise_compatibility(host, target)
        assert cg.labels == old.labels
        assert cg.adjacency == old.adjacency
        assert cg.host_edges == old.host_edges
        assert (cg.sup, cg.sub) == containment_rows(cg)
        result = max_clique(cg)
        expected = coloring_max_clique(cg)
        assert (result.size, result.witness) == (expected.size, expected.witness)
        assert result.size == degree_ordered_clique_size(cg)


def test_large_hosts_match_oracles(request):
    """Every connected 6-vertex host with 9 edges against the old solver, and
    K5's optimum against the degree-ordered one (seconds)."""
    if not request.config.getoption("--run-large-verify"):
        pytest.skip("needs --run-large-verify")
    cg = build_compatibility(complete(5), path(4))
    result = max_clique(cg)
    assert result.size == degree_ordered_clique_size(cg) == 128
    members = {cg.labels[i] for i in result.witness}
    assert len(members) == 128
    assert all(contains_subgraph(Graph(5, a & b), path(4)) for a in members for b in members)
    for host in connected_graphs(HostClass(6, 9, True)):
        cg = build_compatibility(host, path(4))
        assert (cg.sup, cg.sub) == containment_rows(cg)
        result = max_clique(cg)
        expected = coloring_max_clique(cg)
        assert (result.size, result.witness) == (expected.size, expected.witness)


def test_ten_edge_hosts_reach_the_paper_density(request):
    """17/2^7 is the best P4 density over connected 6-vertex hosts with 10
    edges: 13 of the 14 classes reach 136 and Etv_ reaches 128 (tens of
    seconds)."""
    if not request.config.getoption("--run-large-verify"):
        pytest.skip("needs --run-large-verify")
    records, summary = search_hosts(6, [10], path(4))
    assert str(summary.max_density) == "17/2^7"
    assert summary.max_clique_size == 136
    assert len(summary.argmax_hosts) == 13
    assert {r.host_graph6: r.clique_size for r in records
            if r.clique_size != 136} == {"Etv_": 128}


@pytest.mark.parametrize("host, target, calls", [
    (christofides_host(), path(4), 20),  # of 35 three-edge subsets
    (complete(4), complete(3), 4),  # of 20 three-edge subsets
])
def test_containment_calls_only_on_copies(monkeypatch, host, target, calls):
    made = []

    def counting_check(pattern):
        check = containment_check(pattern)

        def counted(g):
            made.append(g.edges)
            return check(g)

        return counted

    monkeypatch.setattr(clique, "containment_check", counting_check)
    cg = build_compatibility(host, target)
    # only subsets with the target's edge and non-isolated vertex counts
    assert len(made) == len(set(made)) == calls
    assert all(s.bit_count() == target.edge_count for s in made)
    # the candidates are exactly the holders of the full per-subset table
    check = containment_check(target)
    assert cg.labels == [s for s in submasks(host.edges) if check(Graph(host.n, s))]


@pytest.mark.parametrize("target", [
    Graph(3, 0),
    MultipartiteTarget((3,)),
    from_edges(5, [(0, 1), (2, 3)]),  # 2K2 with an isolated vertex
    cycle(4),
    complete_multipartite([1, 3]),
    MultipartiteTarget((1, 1, 1)),
    MultipartiteTarget((2, 2)),
    complete(5),
], ids=["edgeless", "one-part", "2k2", "c4", "k13", "k111", "k22", "k5"])
def test_builder_matches_oracle_on_edge_case_targets(target):
    """Edgeless targets (every subset a candidate), isolated target vertices,
    targets sharing P4's vertex or edge count and more edges than most hosts,
    against the per-subset table on every 5-vertex host."""
    for host in _all_hosts(5):
        cg = build_compatibility(host, target)
        old = pairwise_compatibility(host, target)
        assert (cg.labels, cg.adjacency, cg.host_edges) == (old.labels, old.adjacency, old.host_edges)
        assert (cg.sup, cg.sub) == containment_rows(cg)


@pytest.mark.parametrize("target", [complete(3), MultipartiteTarget((1, 1, 1))], ids=["k3", "k111"])
def test_solving_a_host_leaves_no_reference_cycles(target):
    """The recursive closures of the solver and the containment tests must
    not keep a host's rows alive until the cycle collector runs."""
    host = connected_graphs(HostClass(6, 11, True))[-1]
    gc.collect()
    gc.disable()
    try:
        result = max_clique(build_compatibility(host, target))
        assert result.size == 256
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


def test_christofides_maximum_family_size():
    cg = build_compatibility(christofides_host(), path(4))
    result = max_clique(cg)
    assert result.size == 17
    assert str(result.density) == "17/2^7"


def test_witness_is_valid_intersecting_family():
    host = christofides_host()
    target = path(4)
    cg = build_compatibility(host, target)
    result = max_clique(cg)
    members = [Graph(host.n, cg.labels[i]) for i in result.witness]
    assert len(members) == result.size
    for a in range(len(members)):
        assert contains_subgraph(members[a], target)
        for b in range(a + 1, len(members)):
            assert contains_subgraph(intersection(members[a], members[b]), target)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_empty_instance():
    result = max_clique(_instance([]))
    assert result.size == 0 and result.witness == []


def test_complete_instance():
    k = 6
    adjacency = [((1 << k) - 1) & ~(1 << v) for v in range(k)]
    result = max_clique(_instance(adjacency))
    assert result.size == k
    assert result.witness == list(range(k))


def test_five_cycle_instance():
    cg = _from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert max_clique(cg).size == 2
    assert brute_force_clique(cg) == 2


def test_solver_agrees_with_brute_force():
    rng = random.Random(97)
    for trial in range(100):
        size = rng.randint(1, 20)
        p = rng.choice([0.2, 0.5, 0.8])
        cg = _random_instance(rng, size, p)
        assert max_clique(cg).size == brute_force_clique(cg), (trial, size, p)


def test_solver_matches_degree_ordered_oracle():
    rng = random.Random(109)
    for trial in range(100):
        size = rng.randint(1, 60)
        p = rng.choice([0.2, 0.5, 0.8, 0.9])
        cg = _random_instance(rng, size, p)
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


def test_adding_edges_never_shrinks_clique():
    rng = random.Random(101)
    for _ in range(30):
        size = rng.randint(3, 14)
        cg = _random_instance(rng, size, 0.4)
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
        cg = _random_instance(rng, size, 0.5)
        bound = _color_sort((1 << size) - 1, cg.adjacency)[-1][1]
        assert bound >= max_clique(cg).size


def test_coloring_fills_each_class_from_the_top():
    # path 0 - 1 - 2 and an isolated 3: both orders find two classes,
    # but the top-first one places 3 and 2 before 0
    cg = _from_pairs(4, [(0, 1), (1, 2)])
    assert _color_sort(0b1111, cg.adjacency) == [(3, 1), (2, 1), (0, 1), (1, 2)]


def test_witness_is_lexicographically_smallest():
    rng = random.Random(107)
    for _ in range(40):
        size = rng.randint(2, 12)
        cg = _random_instance(rng, size, 0.5)
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
    """The solver leaves the interpreter's recursion limit alone: phase 2 is
    a loop, and phase 1 recurses once per up-set taken."""
    def refuse(limit):
        raise AssertionError(f"solver called sys.setrecursionlimit({limit})")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert max_clique(build_compatibility(christofides_host(), path(4))).size == 17
    dense = connected_graphs(HostClass(6, 11, True))[-1]
    assert max_clique(build_compatibility(dense, complete(3))).size == 256
    assert max_clique(_instance([0] * 300)).witness == [0]


def test_phase_two_fails_loudly_without_a_clique():
    cg = _from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    own = [1 << v for v in range(5)]
    assert _lex_min_clique(cg.adjacency, own, own, 5, 2, 0)[0] == [0, 1]
    with pytest.raises(AssertionError, match="no clique of the optimum size"):
        _lex_min_clique(cg.adjacency, own, own, 5, 3, 0)


def test_node_counters():
    christofides = max_clique(build_compatibility(christofides_host(), path(4)))
    assert (christofides.phase1_nodes, christofides.phase2_nodes) == (11, 29)
    phase1 = phase2 = 0
    for m in (7, 8):
        for host in connected_graphs(HostClass(6, m, True)):
            result = max_clique(build_compatibility(host, path(4)))
            phase1 += result.phase1_nodes
            phase2 += result.phase2_nodes
    assert (phase1, phase2) == (1294, 416)


def test_lifting_inequality_over_one_edge_pairs():
    """opt(G) >= 2 opt(G - e): a family on G - e and its members with e
    added form a family on G, twice as large and still intersecting.  Every
    connected 6-vertex host with 7 to 9 edges against the records one edge
    below it; an undercounting builder or solver breaks the inequality."""
    records, _ = search_hosts(6, range(6, 10), path(4))
    opt = {canonical_key(parse_graph6(r.host_graph6)): r.clique_size for r in records}
    pairs = 0
    for record in records:
        host = parse_graph6(record.host_graph6)
        for b in iter_bits(host.edges):
            child = Graph(host.n, host.edges ^ 1 << b)
            if record.m > 6 and is_connected(child):
                assert record.clique_size >= 2 * opt[canonical_key(child)], record.host_graph6
                pairs += 1
    assert pairs == 448


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force_clique(_instance([0] * 26))


def test_validate_rejects_broken_adjacency():
    bad = CompatibilityGraph(labels=[0, 1], adjacency=[0b10, 0b00])
    with pytest.raises(ValueError):
        validate_compatibility(bad)
    reflexive = CompatibilityGraph(labels=[0], adjacency=[0b1])
    with pytest.raises(ValueError):
        validate_compatibility(reflexive)
    duplicates = CompatibilityGraph(labels=[5, 5], adjacency=[0, 0])
    with pytest.raises(ValueError):
        validate_compatibility(duplicates)
    # labels 1 and 3: candidate 1 contains candidate 0
    validate_compatibility(CompatibilityGraph([1, 3], [0b10, 0b01], 2, [0b11, 0b10], [0b01, 0b11]))
    for sup, sub in [
        ([0b10, 0b10], [0b01, 0b11]),  # 0 missing from sup[0]
        ([0b11, 0b10], [0b01, 0b10]),  # 0 in sup[0]... but not in sub[1]
        ([0b01, 0b10], [0b01, 0b11]),  # sub[1] holds 0, sup[0] lacks 1
        ([0b11, 0b10], None),
    ]:
        with pytest.raises(ValueError):
            validate_compatibility(CompatibilityGraph([1, 3], [0b10, 0b01], 2, sup, sub))
