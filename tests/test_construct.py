"""Family constructions, seed checks, and exact density arithmetic on counts."""

import itertools
import random
from fractions import Fraction

import pytest

from hifam import (
    Graph,
    SearchRecord,
    SubgraphFamily,
    build_compatibility,
    complete,
    complete_multipartite,
    connected_graphs,
    density_string,
    from_edges,
    lifted_count_string,
    max_clique,
    multipartite_family,
    path,
    search_hosts,
    summarize,
    verify_intersecting,
)
from hifam import construct, detect
from hifam.clique import MAX_HOST_EDGES
from hifam.graphs import UserError, edge_index, iter_bits

from oracles import (
    certify_clique_bound,
    check_seeds,
    compact_subsets,
    construction_counts,
    construction_seeds,
    first_failing_minimal_pair,
    incident_edge_mask_by_edges,
    one_edge_minimal_members,
    quadratic_minimal_members,
    rows_edges,
    verify_pairwise,
)


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
    built = multipartite_family(parts, t)
    assert (built.parts, built.t, built.host_parts) == (parts, t, parts + (t + 2,))
    assert len(built.family) == size
    assert built.host.edge_count == host_edges
    assert (size, 1 << (host_edges - built.target.edge_count)) == construction_counts(parts, t)
    # the minimal members are the t + 2 seeds: the host minus the edges at
    # one final-part vertex
    host = built.host
    seeds = {host.edges & ~incident_edge_mask_by_edges(host, w)
             for w in range(sum(parts), host.n)}
    assert len(seeds) == t + 2
    assert construction_seeds(built) == sorted(seeds)


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
    built = multipartite_family(parts, t)
    [record] = search_hosts([built.host], built.target)
    construction = len(built.family)
    trivial = 1 << (built.host.edge_count - built.target.edge_count)
    assert record.clique_size == max(construction, trivial)
    threshold = 1 << sum(parts)
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
    host = complete_multipartite(parts + (t + 3,))
    [record] = search_hosts([host], complete_multipartite(parts + (t,)))
    expected = 80 if (parts, t) == ((2,), 1) else max(construction_counts(parts, t)) << sum(parts)
    assert record.clique_size == expected


# (parts, t, extra vertices in the last part): each instance of the two
# tables above, the host K_{parts,t+extra} and the pattern K_{parts,t}
CERTIFIED = [(parts, t, 2) for parts, t in SOLVABLE_CONSTRUCTIONS]
CERTIFIED += [(parts, t, 3) for parts, t in LARGER_HOSTS]
# over 2 s each (CPython 3.11): the quadratic witness check of K_{5,1}'s
# 1,024 members and the 1,603-node search for K_{3,2} on K_{3,5}
SLOW_CERTIFIED = {((5,), 1, 2), ((3,), 2, 3)}


@pytest.mark.parametrize("parts,t,extra", CERTIFIED, ids=[
    f"{','.join(map(str, p))}-{t}-on-{t + x}" for p, t, x in CERTIFIED])
def test_table_optimum_is_certified_without_the_solver(request, parts, t, extra):
    """The optima of both tables above, checked by oracles only: the
    solver's witness is a family of the table's size (the lower bound), and
    the every-clique search seeded with that size finds nothing larger (the
    upper bound)."""
    if (parts, t, extra) in SLOW_CERTIFIED and not request.config.getoption(
            "--run-large-verify"):
        pytest.skip("needs --run-large-verify")
    host = complete_multipartite(parts + (t + extra,))
    target = complete_multipartite(parts + (t,))
    claim = max(construction_counts(parts, t))
    if extra == 3:
        claim = 80 if (parts, t) == ((2,), 1) else claim << sum(parts)
    cg = build_compatibility(host, target)
    result = max_clique(cg)
    family = SubgraphFamily(host, [cg.labels[i] for i in result.witness])
    assert len(family) == claim
    assert verify_pairwise(family, target, require_self=True) is None
    assert certify_clique_bound(cg, claim)[0] == claim


def test_k41_on_k44_is_over_the_candidate_cap():
    with pytest.raises(UserError, match="capped at 16384 candidates, got 24033"):
        search_hosts([complete_multipartite((4, 4))], complete_multipartite((4, 1)))


def test_smallest_instance_fully_verified():
    built = multipartite_family((1,), 2)
    assert built.host.n == 5 and built.host.edge_count == 4  # K_{1,4}
    assert len(built.family) == 5
    assert verify_intersecting(built.family, complete_multipartite([1, 2])) is None


def test_family_members_are_distinct_host_subsets():
    built = multipartite_family((2,), 4)
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
            size, _ = construction_counts(parts, t)
            assert len(multipartite_family(parts, t).family) == size, (parts, t)


def test_seed_check_agrees_with_size_formula():
    for parts in _part_lists_up_to_total(3):
        m = sum(parts)
        for t in (1, 1 << m, (1 << m) + 2):
            built = multipartite_family(parts, t)
            report = check_seeds(built.host, construction_seeds(built),
                                 complete_multipartite(parts + (t,)))
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
    built = multipartite_family(parts, t)
    assert built.host.n <= 14
    failure = verify_intersecting(built.family, complete_multipartite(target_parts))
    assert failure is None


@pytest.mark.parametrize("parts,t", [((4,), 16), ((5,), 32)])
def test_intersecting_property_on_large_hosts(request, parts, t):
    built = multipartite_family(parts, t)
    target = complete_multipartite(parts + (t,))
    failure = verify_intersecting(built.family, target)
    assert failure is None
    if request.config.getoption("--run-large-verify"):
        assert verify_pairwise(built.family, target, require_self=True) == failure


def test_up_closed_verification_checks_only_minimal_pairs(spy):
    # the t + 2 seeds are the minimal members: (t+2)(t+3)/2 pairs i <= j
    calls = spy(detect, "contains_multipartite")
    built = multipartite_family((4,), 16)
    assert verify_intersecting(built.family, complete_multipartite((4, 16))) is None
    assert len(calls) == 18 * 19 // 2


def test_construction_caps():
    with pytest.raises(UserError, match="^67 vertices exceeds the 64-vertex cap$"):
        multipartite_family((5,), 60)
    with pytest.raises(UserError, match=r"^fixed part sizes must all be >= 1, got \[\]$"):
        multipartite_family((), 4)
    with pytest.raises(UserError, match=r"^fixed part sizes must all be >= 1, got \[2, 0\]$"):
        multipartite_family((2, 0), 0)  # the parts are checked first
    with pytest.raises(UserError, match="^final part size must be >= 1, got 0$"):
        multipartite_family((2,), 0)


def test_member_cap_is_checked_on_the_closed_form(monkeypatch):
    # --parts 20 --t 2 is the largest single part under the cap, 21 is over it
    assert construction_counts((20,), 2)[0] <= construct.MAX_MEMBERS
    assert construction_counts((21,), 2)[0] > construct.MAX_MEMBERS
    monkeypatch.setattr(construct, "MAX_MEMBERS", 19)
    assert len(multipartite_family((2,), 4).family) == 19
    monkeypatch.setattr(construct, "MAX_MEMBERS", 18)
    with pytest.raises(UserError, match="^the family would have 19 members; cap is 18$"):
        multipartite_family((2,), 4)


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


def test_family_that_is_not_up_closed_is_decided_by_its_minimal_pairs(spy):
    # path(2), one edge, is K_{1,1}: the multipartite test decides it
    calls = spy(detect, "contains_multipartite")
    host = complete(4)
    triangle = from_edges(4, [(0, 1), (0, 2), (1, 2)]).edges
    matching = from_edges(4, [(0, 1), (2, 3)]).edges
    e03, e13, e02 = (1 << edge_index(i, j, 4) for i, j in ((0, 3), (1, 3), (0, 2)))
    # triangle | e23 is missing, so the family is not up-closed
    family = SubgraphFamily(host, [triangle, triangle | e03, matching, triangle | e13,
                                   matching | e02])
    assert quadratic_minimal_members(family) == [triangle, matching]
    assert verify_intersecting(family, path(2)) is None
    # the three pairs i <= j of the two minimal members, not all 15 pairs
    assert len(calls) == 3
    assert verify_pairwise(family, path(2), require_self=True) is None

    calls.clear()
    lone_edge = from_edges(4, [(0, 3)]).edges
    family = SubgraphFamily(host, [triangle, lone_edge])
    assert verify_intersecting(family, path(2)) == (0, 1)
    # both members are minimal: the lone edge, with fewer edges, holds K2 on
    # its own, then the triangle does, and the two together fail; the loop
    # stops there
    assert len(calls) == 3
    assert first_failing_minimal_pair(family, path(2)) == (0, 1)
    assert verify_pairwise(family, path(2), require_self=True) is not None


def test_verify_self_check_catches_weak_members():
    host = path(4)  # edge slots {0, 2, 5}
    short = 0b101  # edges (0,1) and (1,2): contains P3, not P4
    # the member with fewer edges comes first, and it lacks P4 on its own
    cases = [([host.edges, short], (1, 1)), ([short, host.edges], (0, 0)),
             # a member paired with itself must hold the target, even when it is alone
             ([short], (0, 0)), ([host.edges], None)]
    for members, pair in cases:
        family = SubgraphFamily(host, members)
        assert verify_intersecting(family, path(4)) == pair, members
        assert first_failing_minimal_pair(family, path(4)) == pair, members
        assert (verify_pairwise(family, path(4), require_self=True) is None) == (pair is None)


def _random_host(rng):
    """A host on 3 to 6 vertices with 2 to 7 edges."""
    n = rng.randint(3, 6)
    host = Graph(n, 0)
    while not 2 <= host.edge_count <= 7:
        host = Graph(n, rng.getrandbits(n * (n - 1) // 2))
    return host


def _random_family(rng, host, kind):
    subsets = compact_subsets(host.edges)
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
        host = _random_host(rng)
        family = _random_family(rng, host, rng.choice(["up-closed", "above-core", "tiny", "any"]))
        target = rng.choice(targets)
        got = verify_intersecting(family, target)
        assert (got is None) == (verify_pairwise(family, target, require_self=True) is None), (
            family, target)
        assert got == first_failing_minimal_pair(family, target), (family, target)
        up_closed = _is_up_closed(family)
        seen.add((up_closed, got is None, min(len(family), 3)))
    # every size (3 standing for "3 or more") up-closed or not, passing or failing;
    # the empty family is up-closed and passes
    cases = {(u, ok, size) for u in (True, False) for ok in (True, False) for size in (1, 2, 3)}
    assert seen == cases | {(True, True, 0)}


def _spy_containment_tests(spy):
    """Spies on the three containment tests the verifier's predicate runs."""
    return [spy(detect, name)
            for name in ("contains_p4", "contains_multipartite", "contains_subgraph")]


def _assert_checks_minimal_pairs(tests, family, target):
    """A passing family costs one containment test per pair i <= j of its
    minimal members by the quadratic rule, and no other."""
    for called in tests:
        called.clear()
    assert verify_intersecting(family, target) is None
    checked = [rows_edges(args[0]) for called in tests for args in called]
    minimal = quadratic_minimal_members(family)
    pairs = [a & b for i, a in enumerate(minimal) for b in minimal[i:]]
    assert sorted(checked) == sorted(pairs), family
    return len(pairs)


def test_minimal_members_are_kept_by_the_one_edge_rule(spy):
    """On random families, up-closed or not, the minimal members come in
    member order, each has no member one edge smaller, and every member
    contains one of them; on up-closed families the two rules agree.  On
    those that pass, the verifier checks exactly the pairs of them."""
    rng = random.Random(2025)
    targets = [path(2), path(3), complete(3), complete_multipartite([1, 2])]
    passing = []
    for _ in range(400):
        host = _random_host(rng)
        family = _random_family(rng, host, rng.choice(["up-closed", "above-core", "tiny", "any"]))
        minimal = quadratic_minimal_members(family)
        oracle = one_edge_minimal_members(family)
        assert set(minimal) <= set(oracle), family
        assert minimal == [x for x in family.members if x in minimal], family
        assert all(any(x & low == low for low in minimal) for x in family.members), family
        if _is_up_closed(family):
            assert minimal == oracle, family
        target = rng.choice(targets)
        if verify_pairwise(family, target, require_self=True) is None:
            passing.append((family, target))
    assert len(passing) >= 100
    assert not all(_is_up_closed(family) for family, _ in passing)

    tests = _spy_containment_tests(spy)
    for family, target in passing:
        _assert_checks_minimal_pairs(tests, family, target)


def test_minimal_members_match_the_one_edge_rule_on_witnesses_and_the_construction(spy):
    """Search witnesses and the construction are up-closed, so there the
    two rules keep the same members, in the same order; K_{4,24}'s are its
    26 seeds.  The verifier checks exactly the pairs of them."""
    families = []
    for m, target in ((7, path(4)), (8, path(4)), (11, complete(3))):
        hosts = connected_graphs(6, m, True)
        for host, record in zip(hosts, search_hosts(hosts, target)):
            families.append((SubgraphFamily(host, [int(h, 16) for h in record.witness_hex]),
                             target))
    assert len(families) == 50
    built = multipartite_family([4], 24)
    families.append((built.family, built.target))
    host = built.host
    seeds = [host.edges & ~incident_edge_mask_by_edges(host, w) for w in range(4, host.n)]
    assert quadratic_minimal_members(built.family) == sorted(seeds)
    for family, _ in families:
        assert _is_up_closed(family)
        assert quadratic_minimal_members(family) == one_edge_minimal_members(family)

    tests = _spy_containment_tests(spy)
    counts = [_assert_checks_minimal_pairs(tests, family, target)
              for family, target in families]
    assert counts[50] == 351  # K_{4,24}'s 26 seeds


def test_verifier_answers_as_before_on_families_that_are_not_up_closed():
    """The same verdict as the quadratic scan, and the first failing pair
    of minimal members that the oracle names."""
    rng = random.Random(2026)
    targets = [path(2), path(3), path(4), complete(3), complete_multipartite([1, 2])]
    cases = []
    while len(cases) < 300:
        host = _random_host(rng)
        family = _random_family(rng, host, rng.choice(["above-core", "tiny", "any"]))
        if not _is_up_closed(family):
            cases.append((family, rng.choice(targets)))
    got = [verify_intersecting(family, target) for family, target in cases]
    assert [answer is None for answer in got] == [
        verify_pairwise(f, target, require_self=True) is None for f, target in cases]
    assert got == [first_failing_minimal_pair(f, target) for f, target in cases]
    assert {answer is None for answer in got} == {True, False}


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
    built = multipartite_family((2,), 4)  # on K_{2,6}, 12 edges
    assert (k24.edge_count, _trivial_count(built, k24)) == (8, 16)  # 1/2^8 = 16/2^12
    for parts, t in [((1,), 2), ((2,), 4), ((1, 2), 3), ((3,), 1)]:
        built = multipartite_family(parts, t)
        assert _trivial_count(built, built.target) == construction_counts(parts, t)[1]


@pytest.mark.parametrize("parts,t,lhs,rhs", [
    ((1,), 2, 5, 4),
    ((2,), 4, 19, 16),
    ((5,), 32, 1055, 1024),
])
def test_margin_examples(parts, t, lhs, rhs):
    assert construction_counts(parts, t) == (lhs, rhs)
    built = multipartite_family(parts, t)
    assert (len(built.family), _trivial_count(built, built.target)) == (lhs, rhs)


def test_margin_chain_at_threshold():
    for m in range(1, 11):
        lhs, rhs = construction_counts((m,), 1 << m)
        assert lhs == (1 << (2 * m)) + (1 << m) - 1
        assert lhs > rhs == 1 << (2 * m)


def test_density_beats_trivial_iff_margin_does():
    """The counts cmd_construct compares are the closed form's two sides."""
    for parts in _part_lists_up_to_total(3):
        m = sum(parts)
        for t in range(1, (1 << m) + 3):
            built = multipartite_family(parts, t)
            counts = (len(built.family), _trivial_count(built, built.target))
            assert counts == construction_counts(parts, t), (parts, t)


def test_lifted_count_strings():
    assert lifted_count_string(17, 7, 6) == "17 · 2^8 = 4352"
    assert lifted_count_string(19, 12, 8) == "19 · 2^16 = 1245184"
    assert lifted_count_string(1, 5, 4) == "2^1 = 2"
    assert lifted_count_string(19, 12, 40) == "19 · 2^768"
    with pytest.raises(ValueError):
        lifted_count_string(17, 7, 3)
