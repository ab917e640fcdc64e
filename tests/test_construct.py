"""Family constructions, seed checks, and exact density arithmetic on counts."""

import itertools
import random
from fractions import Fraction

import pytest

from hifam import (
    ConstructionSpec,
    Graph,
    SearchRecord,
    SubgraphFamily,
    check_seeds,
    complete,
    complete_multipartite,
    contains_multipartite,
    density_string,
    from_edges,
    lifted_count_string,
    multipartite_family,
    path,
    search_hosts,
    summarize,
    verify_intersecting,
)
from hifam import detect
from hifam.clique import MAX_HOST_EDGES
from hifam.construct import _minimal_members
from hifam.graphs import UserError, edge_index, iter_bits

from oracles import construction_counts, verify_pairwise


# ---------------------------------------------------------------------------
# dyadic densities
# ---------------------------------------------------------------------------


def _summary_of(densities):
    """Summarize one record per (count, exponent) pair, its host named by its index."""
    return summarize([SearchRecord(str(i), 1, m, k, density_string(k, m), [])
                      for i, (k, m) in enumerate(densities)])


def test_density_normalization():
    # records keep k/2^m as solved; the summary reduces its best density by
    # one shift, never past 2^0, and writes a zero count as 0/2^0
    for k, m, reduced in [(34, 8, "17/2^7"), (17, 7, "17/2^7"), (0, 9, "0/2^0"),
                          (12, 0, "12/2^0"), (8, 2, "2/2^0"), (1 << 40, 40, "1/2^0")]:
        assert _summary_of([(k, m)]).max_density == reduced
    assert summarize([]).max_density == "0/2^0"


def test_density_strings():
    assert density_string(17, 7) == "17/2^7"
    assert density_string(34, 8) == "34/2^8"  # unreduced, as a record writes it
    assert density_string(0, 5) == "0/2^5"
    assert density_string(1, 0) == "1/2^0"


def test_density_order_matches_fractions():
    """summarize against Fraction arithmetic: the best density in lowest
    terms, every host at it in record order, and their largest count."""
    rng = random.Random(13)
    for trial in range(500):
        densities = [(rng.randint(0, 1 << 20), rng.randint(0, 40))
                     for _ in range(rng.randint(1, 6))]
        if trial % 5 == 0:  # the same value over another exponent: 17/2^7 and 34/2^8
            k, m = rng.choice(densities)
            densities.insert(rng.randint(0, len(densities)), (k << 1, m + 1))
        values = [Fraction(k, 1 << m) for k, m in densities]
        best = max(values)
        argmax = [i for i, v in enumerate(values) if v == best]
        summary = _summary_of(densities)
        assert summary.max_density == density_string(best.numerator,
                                                      best.denominator.bit_length() - 1)
        assert summary.argmax_hosts == [str(i) for i in argmax]
        assert summary.max_clique_size == max(densities[i][0] for i in argmax)
    summary = _summary_of([(1, 3), (17, 7), (2, 4), (34, 8), (16, 7)])
    assert (summary.max_density, summary.argmax_hosts, summary.max_clique_size) == (
        "17/2^7", ["1", "3"], 34)


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
    spec = ConstructionSpec(parts, t)
    built = multipartite_family(spec)
    assert len(built.family) == size
    assert built.host.edge_count == host_edges
    assert (size, 1 << (host_edges - spec.target.edge_count)) == construction_counts(spec)
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


# the same (parts, t) on the host one vertex larger in the last part,
# K_{parts,t+3}, where that host is within the caps; K_{4,1} on K_{4,4} has
# 24,033 candidates, over MAX_CANDIDATES
LARGER_HOSTS = [
    (parts, t) for parts, t in SOLVABLE_CONSTRUCTIONS
    if complete_multipartite(parts + (t + 3,)).edge_count <= MAX_HOST_EDGES
    and (parts, t) != ((4,), 1)
]


@pytest.mark.parametrize("parts,t", LARGER_HOSTS,
                         ids=[f"{','.join(map(str, p))}-{t}" for p, t in LARGER_HOSTS])
def test_one_vertex_larger_host_keeps_the_optimum_density(parts, t):
    """One more vertex adds m = sum(parts) host edges and keeps the best
    density of K_{parts,t+2}, so the optimum is max(construction, trivial)
    times 2^m; the one exception is K_{2,1} on K_{2,4}, where 80/2^8 = 5/2^4
    beats the trivial 1/2^2 of K_{2,3}."""
    spec = ConstructionSpec(parts, t)
    host = complete_multipartite(parts + (t + 3,))
    [record] = search_hosts([host], spec.target)
    expected = 80 if (parts, t) == ((2,), 1) else max(construction_counts(spec)) << spec.m
    assert record.clique_size == expected


def test_k41_on_k44_is_over_the_candidate_cap():
    with pytest.raises(UserError, match="capped at 16384 candidates, got 24033"):
        search_hosts([complete_multipartite((4, 4))], complete_multipartite((4, 1)))


def test_smallest_instance_fully_verified():
    built = multipartite_family(ConstructionSpec((1,), 2))
    assert built.host.n == 5 and built.host.edge_count == 4  # K_{1,4}
    assert len(built.family) == 5
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
            spec = ConstructionSpec(parts, t)
            size, _ = construction_counts(spec)
            assert len(multipartite_family(spec).family) == size, (parts, t)


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


def test_member_cap_is_checked_on_the_closed_form(monkeypatch):
    from hifam import construct

    # --parts 20 --t 2 is the largest single part under the cap, 21 is over it
    assert construction_counts(ConstructionSpec((20,), 2))[0] <= construct.MAX_MEMBERS
    assert construction_counts(ConstructionSpec((21,), 2))[0] > construct.MAX_MEMBERS
    spec = ConstructionSpec((2,), 4)  # 19 members
    monkeypatch.setattr(construct, "MAX_MEMBERS", 19)
    assert len(multipartite_family(spec).family) == 19
    monkeypatch.setattr(construct, "MAX_MEMBERS", 18)
    with pytest.raises(UserError, match="^the family would have 19 members; cap is 18$"):
        multipartite_family(spec)


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


def _trivial_count(built, target):
    """The trivial family's count over the host: 2^(e(host) - e(target))."""
    return 1 << (built.host.edge_count - target.edge_count)


def test_trivial_densities():
    k24 = complete_multipartite([2, 4])
    built = multipartite_family(ConstructionSpec((2,), 4))  # on K_{2,6}, 12 edges
    assert (k24.edge_count, _trivial_count(built, k24)) == (8, 16)  # 1/2^8 = 16/2^12
    for parts, t in [((1,), 2), ((2,), 4), ((1, 2), 3), ((3,), 1)]:
        spec = ConstructionSpec(parts, t)
        built = multipartite_family(spec)
        assert _trivial_count(built, spec.target) == construction_counts(spec)[1]


@pytest.mark.parametrize("parts,t,lhs,rhs", [
    ((1,), 2, 5, 4),
    ((2,), 4, 19, 16),
    ((5,), 32, 1055, 1024),
])
def test_margin_examples(parts, t, lhs, rhs):
    spec = ConstructionSpec(parts, t)
    assert construction_counts(spec) == (lhs, rhs)
    built = multipartite_family(spec)
    assert (len(built.family), _trivial_count(built, spec.target)) == (lhs, rhs)


def test_margin_chain_at_threshold():
    for m in range(1, 11):
        lhs, rhs = construction_counts(ConstructionSpec((m,), 1 << m))
        assert lhs == (1 << (2 * m)) + (1 << m) - 1
        assert lhs > rhs == 1 << (2 * m)


def test_density_beats_trivial_iff_margin_does():
    """The counts cmd_construct compares are the closed form's two sides."""
    for parts in _part_lists_up_to_total(3):
        m = sum(parts)
        for t in range(1, (1 << m) + 3):
            spec = ConstructionSpec(parts, t)
            built = multipartite_family(spec)
            counts = (len(built.family), _trivial_count(built, spec.target))
            assert counts == construction_counts(spec), (parts, t)


def test_lifted_count_strings():
    assert lifted_count_string(17, 7, 6) == "17 · 2^8 = 4352"
    assert lifted_count_string(19, 12, 8) == "19 · 2^16 = 1245184"
    assert lifted_count_string(1, 5, 4) == "2^1 = 2"
    assert lifted_count_string(19, 12, 40) == "19 · 2^768"
    with pytest.raises(ValueError):
        lifted_count_string(17, 7, 3)
