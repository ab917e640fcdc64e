"""Family constructions, seed checks, and exact density arithmetic."""

import itertools
import random
from fractions import Fraction

import pytest

from hifam import (
    ConstructionSpec,
    DyadicDensity,
    Graph,
    SubgraphFamily,
    check_seeds,
    complete,
    complete_multipartite,
    contains_multipartite,
    from_edges,
    improvement_margin,
    lifted_count_string,
    multipartite_family,
    path,
    search_hosts,
    trivial_density,
    verify_intersecting,
)
from hifam import detect
from hifam.clique import MAX_HOST_EDGES
from hifam.construct import _minimal_members
from hifam.graphs import edge_index, iter_bits

from oracles import verify_pairwise


# ---------------------------------------------------------------------------
# dyadic densities
# ---------------------------------------------------------------------------


def test_density_normalization():
    assert DyadicDensity(34, 8) == DyadicDensity(17, 7)
    assert DyadicDensity(34, 8).numerator == 17
    d = DyadicDensity(0, 9)
    assert (d.numerator, d.exponent) == (0, 0)
    assert DyadicDensity(12, 0) == DyadicDensity(12, 0)  # exponent floor at 0


def test_density_validation():
    with pytest.raises(ValueError):
        DyadicDensity(-1, 3)
    with pytest.raises(ValueError):
        DyadicDensity(1, -3)


def test_density_strings():
    assert str(DyadicDensity(17, 7)) == "17/2^7"
    assert str(DyadicDensity(1, 0)) == "1"
    assert str(DyadicDensity(0, 5)) == "0"


def test_density_rescaling():
    assert DyadicDensity(1, 8).scaled_numerator(12) == 16
    with pytest.raises(ValueError):
        DyadicDensity(17, 7).scaled_numerator(3)


def test_density_order_matches_fractions():
    def fraction(d):
        return Fraction(d.numerator, 1 << d.exponent)

    rng = random.Random(13)
    for _ in range(500):
        a = DyadicDensity(rng.randint(0, 1 << 20), rng.randint(0, 40))
        b = DyadicDensity(rng.randint(0, 1 << 20), rng.randint(0, 40))
        assert (a < b) == (fraction(a) < fraction(b))
        assert (a == b) == (fraction(a) == fraction(b))
        assert (a > b) == (fraction(a) > fraction(b))


# ---------------------------------------------------------------------------
# the multipartite construction
# ---------------------------------------------------------------------------

BIPARTITE_TABLE = [
    # parts, t, family size, host edges
    ((2,), 4, 19, 12),
    ((3,), 8, 71, 30),
    ((4,), 16, 271, 72),
    ((5,), 32, 1055, 170),
]

MULTIPARTITE_TABLE = [
    ((1, 1), 4, 19, 13),
    ((1, 2), 8, 71, 32),
    ((2, 2), 16, 271, 76),
    ((1, 1, 1), 8, 71, 33),
]


@pytest.mark.parametrize("parts,t,size,host_edges", BIPARTITE_TABLE + MULTIPARTITE_TABLE)
def test_construction_table(parts, t, size, host_edges):
    built = multipartite_family(ConstructionSpec(parts, t))
    assert len(built.family) == size
    assert built.host.edge_count == host_edges
    assert built.density == DyadicDensity(size, host_edges)
    assert len(built.seeds) == t + 2


# every (fixed parts, t) whose host K_{parts,t+2} is within the solver's edge
# cap; every other part tuple has more than 16 host edges already at t = 1
SOLVABLE_CONSTRUCTIONS = [
    (parts, t)
    for parts in [(1,), (2,), (3,), (4,), (5,), (1, 1), (1, 2), (1, 3), (2, 2), (1, 1, 1)]
    for t in range(1, 15)
    if complete_multipartite(parts + (t + 2,)).edge_count <= MAX_HOST_EDGES
]


@pytest.mark.parametrize("parts,t", SOLVABLE_CONSTRUCTIONS,
                         ids=[f"{','.join(map(str, p))}-{t}" for p, t in SOLVABLE_CONSTRUCTIONS])
def test_exact_optimum_is_the_construction_or_the_trivial_family(parts, t):
    """On its own host the construction is optimal from t = 2^m on; below
    that the trivial family of one copy's supergraphs is, and the two tie at
    t = 2^m - 1, where (2^m + 1)(2^m - 1) + 1 = 2^(2m)."""
    spec = ConstructionSpec(parts, t)
    built = multipartite_family(spec)
    [record] = search_hosts([built.host], spec.target)
    construction = len(built.family)
    trivial = 1 << (built.host.edge_count - spec.target.edge_count)
    assert record.clique_size == max(construction, trivial)
    threshold = 1 << spec.m
    assert (construction > trivial, construction == trivial) == (t >= threshold, t == threshold - 1)


def test_smallest_instance_fully_verified():
    built = multipartite_family(ConstructionSpec((1,), 2))
    assert built.host.n == 5 and built.host.edge_count == 4  # K_{1,4}
    assert len(built.family) == 5
    assert built.density == DyadicDensity(5, 4)
    assert verify_intersecting(built.family, complete_multipartite([1, 2])) is None


def test_family_members_are_distinct_host_subsets():
    built = multipartite_family(ConstructionSpec((2,), 4))
    members = built.family.members
    assert len(set(members)) == len(members)
    assert all(m & ~built.host.edges == 0 for m in members)
    assert built.host.edges in members


def _part_lists_up_to_total(total):
    out = []
    for k in range(1, total + 1):
        for combo in itertools.combinations_with_replacement(range(1, total + 1), k):
            if sum(combo) <= total:
                out.append(combo)
    return out


def test_size_formula_over_small_grid():
    # set-based generation never loses members: the per-seed supergraph
    # collections are pairwise disjoint
    for parts in _part_lists_up_to_total(4):
        m = sum(parts)
        for t in range(1, (1 << m) + 3):
            built = multipartite_family(ConstructionSpec(parts, t))
            assert len(built.family) == (t + 2) * ((1 << m) - 1) + 1, (parts, t)


def test_seed_check_agrees_with_size_formula():
    for parts in _part_lists_up_to_total(3):
        m = sum(parts)
        for t in (1, 1 << m, (1 << m) + 2):
            spec = ConstructionSpec(parts, t)
            built = multipartite_family(spec)
            report = check_seeds(built.host, built.seeds, complete_multipartite(parts + (t,)))
            assert report.intersection_property
            assert report.disjoint_complement
            assert report.family_size == len(built.family)


@pytest.mark.parametrize("parts,t,target_parts", [
    ((1,), 2, (1, 2)),
    ((2,), 4, (2, 4)),
    ((1, 1), 4, (1, 1, 4)),
    ((3,), 8, (3, 8)),
    ((1, 1, 1), 8, (1, 1, 1, 8)),
])
def test_intersecting_property_on_hosts_up_to_14_vertices(parts, t, target_parts):
    built = multipartite_family(ConstructionSpec(parts, t))
    assert built.host.n <= 14
    failure = verify_intersecting(built.family, complete_multipartite(target_parts))
    assert failure is None


@pytest.mark.parametrize("parts,t", [((4,), 16), ((5,), 32)])
def test_intersecting_property_on_large_hosts(request, parts, t):
    built = multipartite_family(ConstructionSpec(parts, t))
    target = complete_multipartite(parts + (t,))
    failure = verify_intersecting(built.family, target)
    assert failure is None
    if request.config.getoption("--run-large-verify"):
        assert verify_pairwise(built.family, target, require_self=True) == failure


def test_up_closed_verification_checks_only_minimal_pairs(monkeypatch):
    # the t + 2 seeds are the minimal members: (t+2)(t+3)/2 pairs i <= j
    calls = []

    def counting(g, parts):
        calls.append(g)
        return contains_multipartite(g, parts)

    monkeypatch.setattr(detect, "contains_multipartite", counting)
    built = multipartite_family(ConstructionSpec((4,), 16))
    assert verify_intersecting(built.family, complete_multipartite((4, 16))) is None
    assert len(calls) == 18 * 19 // 2


def test_construction_caps():
    with pytest.raises(ValueError):
        multipartite_family(ConstructionSpec((5,), 60))  # 67 vertices
    with pytest.raises(ValueError):
        ConstructionSpec((), 4)
    with pytest.raises(ValueError):
        ConstructionSpec((2,), 0)


# ---------------------------------------------------------------------------
# seed checks on hand-built inputs
# ---------------------------------------------------------------------------


def test_seed_check_triangle_host():
    host = complete(3)
    seeds = [0b011, 0b101]  # two distinct 2-edge subsets
    report = check_seeds(host, seeds, path(2))
    assert report.intersection_property
    assert report.disjoint_complement
    assert report.family_size == 3  # 1 + (2-1) + (2-1)


def test_seed_check_detects_missing_intersection():
    host = path(4)
    middle = 1 << 2  # edge {1,2} sits at slot 2
    seeds = [host.edges, host.edges & ~middle]
    report = check_seeds(host, seeds, path(4))
    assert not report.intersection_property


def test_seed_check_rejects_duplicates_and_non_subsets():
    host = complete(3)
    with pytest.raises(ValueError, match="^duplicate member 0x3$"):
        check_seeds(host, [0b011, 0b011], path(2))
    with pytest.raises(ValueError, match="^member 0x2 is not an edge subset of the host$"):
        check_seeds(path(3), [0b010], path(2))  # slot 1 is not a P3 edge


# ---------------------------------------------------------------------------
# pairwise verification
# ---------------------------------------------------------------------------


def test_verify_reports_first_failing_pair():
    host = complete(4)
    triangle = from_edges(4, [(0, 1), (0, 2), (1, 2)])
    lone_edge = from_edges(4, [(0, 3)])
    family = SubgraphFamily(host, [triangle.edges, lone_edge.edges])
    assert verify_intersecting(family, path(2)) == (0, 1)


def test_family_that_is_not_up_closed_is_decided_by_its_minimal_pairs(monkeypatch):
    calls = []

    def counting(g, parts):
        calls.append(g)
        return contains_multipartite(g, parts)

    # path(2), one edge, is K_{1,1}: the multipartite test decides it
    monkeypatch.setattr(detect, "contains_multipartite", counting)
    host = complete(4)
    triangle = from_edges(4, [(0, 1), (0, 2), (1, 2)]).edges
    matching = from_edges(4, [(0, 1), (2, 3)]).edges
    e03, e13, e02 = (1 << edge_index(i, j, 4) for i, j in ((0, 3), (1, 3), (0, 2)))
    # triangle | e23 is missing, so the family is not up-closed
    family = SubgraphFamily(host, [triangle, triangle | e03, matching, triangle | e13,
                                   matching | e02])
    assert _minimal_members(family) == [triangle, matching]
    assert verify_intersecting(family, path(2)) is None
    # the three pairs i <= j of the two minimal members, not all 15 pairs
    assert len(calls) == 3
    assert verify_pairwise(family, path(2), require_self=True) is None

    calls.clear()
    lone_edge = from_edges(4, [(0, 3)]).edges
    assert verify_intersecting(SubgraphFamily(host, [triangle, lone_edge]), path(2)) == (0, 1)
    # both members are minimal: (0, 0) holds and (0, 1) fails, then the scan
    # of all members names that pair
    assert len(calls) == 4


def test_verify_self_check_catches_weak_members():
    host = path(4)  # edge slots {0, 2, 5}
    short = 0b101  # edges (0,1) and (1,2): contains P3, not P4
    family = SubgraphFamily(host, [host.edges, short])
    assert verify_intersecting(family, path(4)) == (0, 1)
    assert verify_intersecting(SubgraphFamily(host, [short, host.edges]), path(4)) == (0, 0)
    # a member paired with itself must hold the target, even when it is alone
    assert verify_intersecting(SubgraphFamily(host, [short]), path(4)) == (0, 0)
    assert verify_intersecting(SubgraphFamily(host, [host.edges]), path(4)) is None


def _host_subsets(host):
    positions = list(iter_bits(host.edges))
    return [sum(1 << positions[i] for i in iter_bits(c)) for c in range(1 << len(positions))]


def _random_family(rng, host, kind):
    subsets = _host_subsets(host)
    if kind == "up-closed":
        gens = rng.sample(subsets, rng.randint(1, 3))
        members = [x for x in subsets if any(x & g == g for g in gens)]
    elif kind == "above-core":  # supersets of one core, usually not up-closed
        core = rng.choice(subsets)
        members = [x for x in subsets if x & core == core and rng.random() < 0.5]
    else:
        most = min(len(subsets), 2 if kind == "tiny" else 12)
        members = rng.sample(subsets, rng.randint(0, most))
    rng.shuffle(members)
    return SubgraphFamily(host, members)


def _is_up_closed(family):
    present = set(family.members)
    return all(x | 1 << b in present
               for x in family.members for b in iter_bits(family.host.edges & ~x))


def test_up_closure_path_matches_quadratic_oracle():
    rng = random.Random(2024)
    targets = [path(2), path(3), path(4), complete(3), complete_multipartite([1, 2])]
    seen = set()
    for _ in range(600):
        n = rng.randint(3, 6)
        host = Graph(n, 0)
        while not 2 <= host.edge_count <= 7:
            host = Graph(n, rng.getrandbits(n * (n - 1) // 2))
        family = _random_family(rng, host, rng.choice(["up-closed", "above-core", "tiny", "any"]))
        target = rng.choice(targets)
        got = verify_intersecting(family, target)
        assert got == verify_pairwise(family, target, require_self=True), (family, target)
        up_closed = _is_up_closed(family)
        seen.add((up_closed, got is None, min(len(family), 3)))
    # every size (3 standing for "3 or more") up-closed or not, passing or failing;
    # the empty family is up-closed and passes
    cases = {(u, ok, size) for u in (True, False) for ok in (True, False) for size in (1, 2, 3)}
    assert seen == cases | {(True, True, 0)}


def test_family_validation():
    host = path(3)  # edge slots {0, 2}
    with pytest.raises(ValueError):
        SubgraphFamily(host, [0b010])  # slot 1 is not a host edge
    with pytest.raises(ValueError):
        SubgraphFamily(host, [0b1, 0b1])


# ---------------------------------------------------------------------------
# trivial bound, margin, lifting
# ---------------------------------------------------------------------------


def test_trivial_densities():
    assert trivial_density(path(4)) == DyadicDensity(1, 3)
    k24 = complete_multipartite([2, 4])
    assert trivial_density(k24) == DyadicDensity(1, 8)
    assert trivial_density(k24).scaled_numerator(12) == 16
    assert trivial_density(Graph(4, 0)) == DyadicDensity(1, 0)


@pytest.mark.parametrize("parts,t,lhs,rhs", [
    ((1,), 2, 5, 4),
    ((2,), 4, 19, 16),
    ((5,), 32, 1055, 1024),
])
def test_margin_examples(parts, t, lhs, rhs):
    assert improvement_margin(ConstructionSpec(parts, t)) == (lhs, rhs)


def test_margin_chain_at_threshold():
    for m in range(1, 11):
        lhs, rhs = improvement_margin(ConstructionSpec((m,), 1 << m))
        assert lhs == (1 << (2 * m)) + (1 << m) - 1
        assert lhs > rhs == 1 << (2 * m)


def test_density_beats_trivial_iff_margin_does():
    for parts in _part_lists_up_to_total(3):
        m = sum(parts)
        for t in range(1, (1 << m) + 3):
            spec = ConstructionSpec(parts, t)
            built = multipartite_family(spec)
            target = complete_multipartite(parts + (t,))
            lhs, rhs = improvement_margin(spec)
            assert (built.density > trivial_density(target)) == (lhs > rhs)


def test_lifted_count_strings():
    assert lifted_count_string(17, 7, 6) == "17 · 2^8 = 4352"
    assert lifted_count_string(19, 12, 8) == "19 · 2^16 = 1245184"
    assert lifted_count_string(1, 5, 4) == "2^1 = 2"
    assert lifted_count_string(19, 12, 40) == "19 · 2^768"
    with pytest.raises(ValueError):
        lifted_count_string(17, 7, 3)
