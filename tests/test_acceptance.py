"""Acceptance suite: one test per release criterion, all exact.

Every criterion prints its own pass/fail line (also collected into the
pytest terminal summary by conftest), so a plain `pytest -v` run shows one
verdict per criterion.
"""

import json
import multiprocessing
import os
import random
from contextlib import contextmanager

import pytest

from hifam import (
    canonical_key,
    christofides_host,
    complete_multipartite,
    emit_graph6,
    max_clique,
    multipartite_family,
    parse_graph6,
    path,
    verify_intersecting,
    verify_records,
    load_records,
)
import hifam.search
from hifam.cli import main

from conftest import record_acceptance
from oracles import (
    apply_permutation,
    brute_force_clique,
    check_engines_exhaustively,
    check_seeds,
    construction_counts,
    construction_seeds,
    random_graph,
    random_instance,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        record_acceptance(number, description, "FAIL")
        print(f"[FAIL] criterion {number}: {description}")
        raise
    record_acceptance(number, description, "PASS")
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_christofides_fixture(capsys):
    with criterion(1, "christofides host: clique exactly 17, density 17/128"):
        assert main(["clique", "--host", "christofides", "--target", "p4", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["size"] == 17
        assert obj["density"] == "17/2^7"


def test_criterion_2_seven_edge_optimality(tmp_path, capsys):
    with criterion(2, "7-edge hosts: max density exactly 17/128, attained by the "
                      "christofides class"):
        out = tmp_path / "search7.jsonl"
        assert main([
            "search", "-n", "6", "-m", "7", "--target", "p4",
            "--connected", "--out", str(out), "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["hosts"] == 19
        assert summary["max_density"] == "17/2^7"
        ch_key = canonical_key(christofides_host())
        argmax_keys = {canonical_key(parse_graph6(g6)) for g6 in summary["argmax_hosts"]}
        assert ch_key in argmax_keys
        records = load_records(str(out))
        assert all(r.clique_size <= 17 for r in records)
        assert verify_records(records, path(4)) == []


def test_criterion_3_eight_edge_bound(tmp_path, capsys):
    with criterion(3, "8-edge hosts: every maximum clique is <= 34"):
        out = tmp_path / "search8.jsonl"
        assert main([
            "search", "-n", "6", "-m", "8", "--target", "p4",
            "--connected", "--out", str(out), "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["hosts"] == 22
        records = load_records(str(out))
        assert all(r.clique_size <= 34 for r in records)
        attained = sorted({r.clique_size for r in records})
        # attainment of 34 is reported, not asserted
        print(f"  note: 8-edge clique sizes observed: {attained}; "
              f"34 attained: {34 in attained}")


BIPARTITE_TABLE = [
    ((2,), 4, 19, 12),
    ((3,), 8, 71, 30),
    ((4,), 16, 271, 72),
    ((5,), 32, 1055, 170),
]


def test_criterion_4_bipartite_bound_table():
    with criterion(4, "bipartite constructions give (19,2^12) (71,2^30) "
                      "(271,2^72) (1055,2^170)"):
        for parts, t, size, host_edges in BIPARTITE_TABLE:
            built = multipartite_family(parts, t)
            assert len(built.family) == size, (parts, t)
            assert built.host.edge_count == host_edges, (parts, t)


MULTIPARTITE_TABLE = [
    ((1, 2), 8, 71, 32),
    ((2, 2), 16, 271, 76),
    ((1, 1, 1), 8, 71, 33),
]


def test_criterion_5_multipartite_bound_table():
    with criterion(5, "multipartite constructions give (71,2^32) (271,2^76) "
                      "(71,2^33); the two-singleton case computes to (19,2^13)"):
        for parts, t, size, host_edges in MULTIPARTITE_TABLE:
            built = multipartite_family(parts, t)
            assert len(built.family) == size, (parts, t)
            assert built.host.edge_count == host_edges, (parts, t)
        built = multipartite_family((1, 1), 4)
        assert len(built.family) == 19
        assert built.host.edge_count == 13
        print("  note: the (1,1,4) instance is asserted at the computed exponent "
              "2^13 -- its host K_{1,1,6} has 13 edges (and the pattern itself "
              "has 9), so any other printed exponent for it does not match this "
              "construction")


def test_criterion_6_intersecting_property_of_19_member_families():
    with criterion(6, "both 19-member families pass full pairwise+self verification"):
        for parts, t in (((2,), 4), ((1, 1), 4)):
            built = multipartite_family(parts, t)
            assert len(built.family) == 19
            failure = verify_intersecting(built.family, complete_multipartite(parts + (t,)))
            assert failure is None, (parts, t, failure)


def test_criterion_7_margin_chain():
    with criterion(7, "at t=2^m the family size is 2^(2m)+2^m-1 > 2^(2m) for m=1..10"):
        for m in range(1, 11):
            lhs, rhs = construction_counts((m,), 1 << m)
            assert lhs == (1 << (2 * m)) + (1 << m) - 1
            assert rhs == 1 << (2 * m)
            assert lhs > rhs


def test_criterion_8_seed_check_consistency():
    with criterion(8, "seed checks agree with the closed-form family size (m <= 3)"):
        part_lists = [(1,), (2,), (3,), (1, 1), (1, 2), (1, 1, 1)]
        for parts in part_lists:
            m = sum(parts)
            for t in (1, 2, 1 << m, (1 << m) + 2):
                built = multipartite_family(parts, t)
                report = check_seeds(
                    built.host, construction_seeds(built), complete_multipartite(parts + (t,))
                )
                assert report.intersection_property, (parts, t)
                assert report.disjoint_complement, (parts, t)
                assert report.family_size == (t + 2) * ((1 << m) - 1) + 1, (parts, t)
                assert report.family_size == len(built.family), (parts, t)


def test_criterion_9_property_suites():
    with criterion(9, "oracle property suites (clique, containment, canonical "
                      "key, graph6) all exact"):
        # exact solver vs independent clique enumeration, 100 random instances
        rng = random.Random(20250808)
        for _ in range(100):
            cg = random_instance(rng, rng.randint(1, 20), rng.choice([0.2, 0.5, 0.8]))
            assert max_clique(cg).size == brute_force_clique(cg)

        # containment engines vs the searches they replaced, exhaustively
        assert check_engines_exhaustively() > 0

        # canonical key permutation invariance, 1000 randomized cases
        for _ in range(1000):
            n = rng.randint(2, 6)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(apply_permutation(g, perm)) == canonical_key(g)

        # graph6 round trip, 1000 randomized cases
        for _ in range(1000):
            g = random_graph(rng, rng.randint(1, 16))
            assert parse_graph6(emit_graph6(g)) == g


def test_criterion_10_output_determinism(tmp_path, monkeypatch, spy):
    # a 19-host search solves in milliseconds, under the pool's hand-off;
    # forcing the hand-off after the first host makes --jobs 4 start a
    # real pool of four workers
    started = spy(multiprocessing, "Pool")
    monkeypatch.setattr(hifam.search, "POOL_COST_S", 0.0)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with criterion(10, "search output files are byte-identical across jobs 1 and 4"):
        paths = []
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}.jsonl"
            assert main([
                "search", "-n", "6", "-m", "7", "--target", "p4",
                "--connected", "--jobs", str(jobs), "--out", str(out),
            ]) == 0
            paths.append(out)
        assert started == [(4,)]
        assert paths[0].read_bytes() == paths[1].read_bytes()
