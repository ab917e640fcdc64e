"""Compatibility graph construction and the exact clique solver."""

import random
import sys

import pytest

from hifam import (
    CompatibilityGraph,
    Graph,
    HostClass,
    MultipartiteTarget,
    build_compatibility,
    christofides_host,
    complete,
    complete_multipartite,
    connected_graphs,
    containment_check,
    contains_subgraph,
    intersection,
    max_clique,
    path,
)
from hifam import clique
from hifam.clique import MAX_HOST_EDGES, _color_sort
from hifam.graphs import submasks

from oracles import brute_force_clique, degree_ordered_clique_size, pairwise_compatibility


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
    cg.validate()


def test_triangle_host_has_no_candidates():
    cg = build_compatibility(complete(3), path(4))
    assert cg.size == 0


def test_christofides_compatibility_structure():
    cg = build_compatibility(christofides_host(), path(4))
    cg.validate()
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


@pytest.mark.parametrize("hosts, target", [
    (lambda: connected_graphs(HostClass(6, 7, True)), path(4)),
    (lambda: connected_graphs(HostClass(6, 8, True)), path(4)),
    (lambda: connected_graphs(HostClass(6, 11, True)), complete(3)),
    (lambda: [christofides_host()], path(4)),
    (lambda: [christofides_host(), complete(4), complete_multipartite([2, 3])],
     MultipartiteTarget((1, 2))),
], ids=["p4-m7", "p4-m8", "k3-m11", "christofides", "k12"])
def test_builder_and_solver_match_oracles(hosts, target):
    for host in hosts():
        cg = build_compatibility(host, target)
        old = pairwise_compatibility(host, target)
        assert cg.labels == old.labels
        assert cg.adjacency == old.adjacency
        assert cg.host_edges == old.host_edges
        assert max_clique(cg).size == degree_ordered_clique_size(cg)


@pytest.mark.parametrize("host, target, calls", [
    (christofides_host(), path(4), 72),  # of 128 subsets
    (complete(4), complete(3), 45),  # of 64 subsets
])
def test_containment_calls_skip_supersets_of_holders(monkeypatch, host, target, calls):
    made = []

    def counting_check(pattern):
        check = containment_check(pattern)

        def counted(g):
            made.append(g.edges)
            return check(g)

        return counted

    monkeypatch.setattr(clique, "containment_check", counting_check)
    cg = build_compatibility(host, target)
    assert len(made) == len(set(made)) == calls
    # the candidates are exactly the holders of the full per-subset table
    check = containment_check(target)
    assert cg.labels == [s for s in submasks(host.edges) if check(Graph(host.n, s))]


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
        assert max_clique(cg).size == degree_ordered_clique_size(cg), (trial, size, p)


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
    before = sys.getrecursionlimit()
    real = build_compatibility(christofides_host(), path(4))
    synthetic = _instance([0] * 300)
    assert 4 * synthetic.size + 1000 > before  # the solver does raise the limit
    assert max_clique(real).size == 17
    assert sys.getrecursionlimit() == before
    assert max_clique(synthetic).witness == [0]
    assert sys.getrecursionlimit() == before

    def broken(adjacency, n, k):
        raise AssertionError("phase 2 failed")

    monkeypatch.setattr(clique, "_lex_min_clique", broken)
    with pytest.raises(AssertionError, match="phase 2 failed"):
        max_clique(synthetic)
    assert sys.getrecursionlimit() == before


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force_clique(_instance([0] * 26))


def test_validate_rejects_broken_adjacency():
    bad = CompatibilityGraph(labels=[0, 1], adjacency=[0b10, 0b00])
    with pytest.raises(ValueError):
        bad.validate()
    reflexive = CompatibilityGraph(labels=[0], adjacency=[0b1])
    with pytest.raises(ValueError):
        reflexive.validate()
    duplicates = CompatibilityGraph(labels=[5, 5], adjacency=[0, 0])
    with pytest.raises(ValueError):
        duplicates.validate()
