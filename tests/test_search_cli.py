"""Search driver, JSONL persistence, and the command-line surface."""

import errno
import importlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hifam import (
    MultipartiteFamily,
    SearchRecord,
    SubgraphFamily,
    christofides_host,
    complete,
    complete_multipartite,
    connected_graphs,
    emit_graph6,
    load_records,
    multipartite_family,
    parse_graph6,
    path,
    search_hosts,
    summarize,
    verify_records,
    write_records,
)
import hifam.cli
import hifam.construct
import hifam.graphs
import hifam.search
from hifam.cli import main, resolve_graph
from hifam.graphs import UserError

from oracles import construction_counts


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def test_record_json_round_trip():
    rec = SearchRecord("Bw", 3, 3, 2, "2/2^3", ["0x1", "0x3"])
    line = rec.to_json()
    assert line == ('{"host_graph6":"Bw","n":3,"m":3,"clique_size":2,"density":"2/2^3",'
                    '"witness_hex":["0x1","0x3"]}')
    assert SearchRecord.from_json(line) == rec
    # keys outside the field table, such as an old elapsed_ms, are ignored
    timed = json.dumps({**json.loads(line), "elapsed_ms": 42})
    assert SearchRecord.from_json(timed) == rec


def test_small_search_matches_hand_results(tmp_path):
    records = search_hosts(connected_graphs(4, 3), path(4), jobs=1)
    summary = summarize(records)
    assert len(records) == 2
    assert summary.max_clique_size == 1
    assert summary.max_density == "1/2^3"
    by_size = sorted(r.clique_size for r in records)
    assert by_size == [0, 1]  # the star supports nothing, the path only itself
    out = tmp_path / "records.jsonl"
    write_records(records, str(out))
    reloaded = load_records(str(out))
    assert [r.to_json() for r in reloaded] == [r.to_json() for r in records]


def test_search_starts_no_more_workers_than_hosts(monkeypatch, spy):
    started = spy(multiprocessing, "Pool")
    solved = spy(hifam.search, "solve_host")  # in this process
    monkeypatch.setattr(hifam.search, "POOL_COST_S", 0.0)  # hand off after the first host
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # more CPUs than hosts left
    hosts = [g for m in (3, 4) for g in connected_graphs(4, m)]
    records = search_hosts(hosts, path(4), jobs=8)
    # one host solved here, then three workers for the three hosts left
    assert (len(solved), started) == (1, [(3,)])
    assert records == search_hosts(hosts, path(4), jobs=1)


def test_search_starts_no_more_workers_than_cpus(monkeypatch, spy):
    """--jobs 5000 starts one worker per CPU, and none with one CPU or an
    unknown count."""
    started = spy(multiprocessing, "Pool")
    monkeypatch.setattr(hifam.search, "POOL_COST_S", 0.0)  # hand off after the first host
    hosts = connected_graphs(5, 5)
    serial = search_hosts(hosts, path(4), jobs=1)
    assert len(hosts) == 5
    for cpus, pools in (3, [(3,)]), (8, [(4,)]), (1, []), (None, []):
        started.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert search_hosts(hosts, path(4), jobs=5000) == serial
        assert started == pools, cpus


def test_search_starts_no_pool_that_cannot_pay_for_itself(monkeypatch, spy):
    started = spy(multiprocessing, "Pool")
    monkeypatch.setattr(hifam.search, "POOL_COST_S", float("inf"))
    hosts = [g for m in (3, 4) for g in connected_graphs(4, m)]
    assert search_hosts(hosts, path(4), jobs=8) == search_hosts(hosts, path(4), jobs=1)
    # one host left never goes to a pool, whatever the cost
    monkeypatch.setattr(hifam.search, "POOL_COST_S", 0.0)
    assert len(search_hosts(connected_graphs(4, 3), path(4), jobs=8)) == 2
    assert started == []


def test_search_returns_records_in_the_order_given():
    hosts = [g for m in (3, 4) for g in connected_graphs(4, m)]
    records = search_hosts(iter(hosts), path(4))  # a one-shot iterator is read once
    assert [r.host_graph6 for r in records] == [emit_graph6(g) for g in hosts]
    assert search_hosts(reversed(hosts), path(4)) == records[::-1]


def test_verify_records_round_trip(tmp_path):
    records = search_hosts([g for m in (3, 4) for g in connected_graphs(4, m)], path(4), jobs=1)
    assert verify_records(records, path(4)) == []


def test_verify_records_flags_corruption():
    records = search_hosts(connected_graphs(4, 4), path(4), jobs=1)
    rec = next(r for r in records if r.clique_size >= 1)
    broken = SearchRecord(
        rec.host_graph6, rec.n, rec.m, rec.clique_size,
        rec.density, ["0x5"] * rec.clique_size,  # 2-edge member, no P4
    )
    problems = verify_records([broken], path(4))
    assert problems
    assert "target" in problems[0] or "witness" in problems[0]

    wrong_density = SearchRecord(
        rec.host_graph6, rec.n, rec.m, rec.clique_size,
        "9/2^9", rec.witness_hex,
    )
    assert any("density" in p for p in verify_records([wrong_density], path(4)))


def test_verify_records_names_each_fault():
    """Each check that stops a record's verification, with its message; the
    density strings agree with the fields, so each record has one fault."""
    records = [
        SearchRecord("Bx", 3, 3, 0, "0/2^3", []),  # 'x' sets a padding bit
        SearchRecord("Bw", 4, 3, 0, "0/2^3", []),  # the triangle has 3 vertices
        SearchRecord("C~", 4, 6, 1, "1/2^6", []),  # one member claimed, none given
    ]
    assert verify_records(records, path(4)) == [
        "record Bx: bad host graph6 (nonzero padding bits)",
        "record Bw: n/m fields disagree with the host",
        "record C~: witness length != clique_size",
    ]


def test_summary_collects_all_argmax_hosts():
    recs = [
        SearchRecord("A?", 2, 1, 1, "1/2^1", ["0x1"]),
        SearchRecord("A_", 2, 1, 1, "1/2^1", ["0x1"]),
    ]
    summary = summarize(recs)
    assert summary.argmax_hosts == ["A?", "A_"]


# ---------------------------------------------------------------------------
# graph argument resolution
# ---------------------------------------------------------------------------


def test_resolve_builtin_and_shapes():
    assert resolve_graph("christofides") == christofides_host()
    assert resolve_graph("p4") == path(4)
    assert resolve_graph("k4") == complete(4)
    assert resolve_graph("K2,4").edge_count == 8
    assert resolve_graph("c5").edge_count == 5
    # leading zeros are no part of a size, however many int() would refuse
    assert resolve_graph("p" + "0" * 5000 + "4") == path(4)
    assert resolve_graph("k" + "0" * 5000 + "2,04") == complete_multipartite([2, 4])


def test_resolve_graph6_and_edge_list(tmp_path):
    g = christofides_host()
    assert resolve_graph(emit_graph6(g)) == g
    edge_list = "6 7\n0 1\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n"
    assert resolve_graph(edge_list) == g
    f = tmp_path / "host.txt"
    f.write_text(edge_list)
    assert resolve_graph(f"@{f}") == g
    f6 = tmp_path / "host.g6"
    f6.write_text(emit_graph6(g) + "\n")
    assert resolve_graph(f"@{f6}") == g


def test_resolve_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_graph6(path(4)) + "\n"))
    assert resolve_graph("-") == path(4)


def test_resolve_rejects_junk():
    with pytest.raises(UserError):
        resolve_graph("not a graph :: at all")
    with pytest.raises(UserError):
        resolve_graph("@/no/such/file")


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------


def test_cli_enumerate(capsys):
    assert main(["enumerate", "--vertices", "4", "--edges", "3", "--connected"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert all(parse_graph6(line).edge_count == 3 for line in out)


def test_cli_enumerate_json(capsys):
    assert main(["enumerate", "-n", "6", "-m", "7", "--connected", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["count"] == 19 and len(obj["graphs"]) == 19


def test_cli_enumerate_seven_vertices(capsys):
    assert main(["enumerate", "-n", "7", "-m", "10", "--connected", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["count"] == 132 and len(set(obj["graphs"])) == 132


def test_cli_clique_christofides(capsys):
    assert main(["clique", "--host", "christofides", "--target", "p4", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["size"] == 17
    assert obj["density"] == "17/2^7"
    assert len(obj["witness_hex"]) == 17


def test_cli_clique_trivial_hosts(capsys):
    assert main(["clique", "--host", "k3", "--target", "p4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 0
    assert main(["clique", "--host", "p4", "--target", "p4", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["size"] == 1 and obj["density"] == "1/2^3"


def test_cli_clique_deep_optimum(capsys):
    """K_{1,12} with target K_2 has optimum 2^11; the solver's call depth
    does not grow with it."""
    assert main(["clique", "--host", "k1,12", "--target", "k2"]) == 0
    assert "size: 2048" in capsys.readouterr().out.splitlines()


def test_cli_clique_bad_host_exits_2(capsys):
    assert main(["clique", "--host", "definitely not valid", "--target", "p4"]) == 2


def test_cli_clique_host_over_the_edge_cap_fails_fast(capsys):
    start = time.perf_counter()
    assert main(["clique", "--host", "k2,9"]) == 2  # 18 host edges
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: compatibility graphs capped at 16 host edges, got 18\n"


@pytest.mark.parametrize("host,count", [("k6", 32_056), ("k2,8", 58_967)])
def test_cli_clique_over_the_candidate_cap_fails_fast(capsys, host, count):
    start = time.perf_counter()
    assert main(["clique", "--host", host]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: compatibility graphs capped at 16384 candidates, got {count}\n"


def test_cli_construct_verdict_lines(capsys):
    assert main(["construct", "--parts", "2", "--t", "4"]) == 0
    out = capsys.readouterr().out
    assert "19/2^12 > 16/2^12: improved" in out
    assert main(["construct", "--parts", "2,2", "--t", "16"]) == 0
    assert "271/2^76 > 256/2^76: improved" in capsys.readouterr().out


@pytest.mark.parametrize("parts,t,op", [
    ((2,), 2, "<"), ((2,), 3, "="), ((2,), 4, ">"), ((1, 1), 1, "<"), ((1, 2), 7, "="),
    ((1,), 5, ">"),
])
def test_cli_construct_reads_its_verdict_off_the_counts(capsys, parts, t, op):
    argv = ["construct", "--parts", ",".join(map(str, parts)), "--t", str(t)]
    assert main(argv + ["--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    size, trivial = construction_counts(parts, t)
    assert obj["margin"] == [obj["family_size"], trivial] == [size, trivial]
    assert obj["density"] == f"{size}/2^{obj['m']}"
    assert obj["trivial_density"] == f"{trivial}/2^{obj['m']}"
    assert obj["improved"] == (op == ">")
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    e_target = complete_multipartite(parts + (t,)).edge_count
    assert lines[3] == f"trivial density: 1/2^{e_target} = {obj['trivial_density']}"
    verdict = "improved" if op == ">" else "not improved"
    assert lines[-1] == f"{obj['density']} {op} {obj['trivial_density']}: {verdict}"


def test_cli_construct_verify(capsys):
    assert main(["construct", "--parts", "1", "--t", "2", "--verify", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verified"] is True
    assert obj["family_size"] == 5


def test_cli_construct_reports_a_violation(monkeypatch, capsys):
    # no input reaches a failing family, so hand the command one whose first
    # member, the empty edge set, lacks the target
    def broken(parts, t):
        built = multipartite_family(parts, t)
        family = SubgraphFamily(built.host, (0,) + built.family.members)
        return MultipartiteFamily(built.parts, built.t, family)

    monkeypatch.setattr(hifam.cli, "multipartite_family", broken)
    argv = ["construct", "--parts", "2", "--t", "4", "--verify"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "VIOLATION: members (0, 0) lack a K_{2,4} intersection"
    assert captured.err == ""
    assert main(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out)["verified"] is False


@pytest.mark.parametrize("argv", [
    ["search", "-n", "4", "-m", "3", "--out", "OUT", "--timings"],
    ["verify", "--records", "OUT", "--no-self"],
    ["construct", "--parts", "2", "--t", "4", "--verify", "--target-t", "3"],
])
def test_cli_removed_flags_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "records.jsonl"
    with pytest.raises(SystemExit) as err:
        main([str(out) if a == "OUT" else a for a in argv])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


GOOD_RECORD = {"host_graph6": emit_graph6(path(4)), "n": 4, "m": 3, "clique_size": 1,
               "density": "1/2^3", "witness_hex": [hex(path(4).edges)]}


@pytest.mark.parametrize("bad", [
    "{}",
    "[1,2]",
    json.dumps({**GOOD_RECORD, "witness_hex": [7]}),
    json.dumps({**GOOD_RECORD, "host_graph6": 5}),
    json.dumps({**GOOD_RECORD, "witness_hex": "0x7"}),
    json.dumps({**GOOD_RECORD, "clique_size": True}),
    "not json",
])
def test_cli_verify_malformed_record_exits_2(tmp_path, capsys, bad):
    out = tmp_path / "records.jsonl"
    out.write_text(json.dumps(GOOD_RECORD) + "\n" + bad + "\n")
    with pytest.raises(ValueError) as err:
        load_records(str(out))
    assert str(err.value).startswith(f"{out}:2: ")
    assert main(["verify", "--records", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {out}:2: ")


def test_cli_verify_ignores_unknown_record_keys(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    out.write_text(json.dumps({**GOOD_RECORD, "elapsed_ms": 42}) + "\n")
    assert load_records(str(out)) == [SearchRecord(*GOOD_RECORD.values())]
    assert main(["verify", "--records", str(out)]) == 0
    assert capsys.readouterr().out == "ok: 1 records, 0 violations\n"


def test_cli_search_and_verify(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    assert main([
        "search", "-n", "4", "-m", "3,4", "--target", "p4",
        "--connected", "--out", str(out), "--json",
    ]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["hosts"] == 4  # 2 classes with 3 edges, 2 with 4
    assert main(["verify", "--records", str(out), "--target", "p4"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_verify_flags_bad_records(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    rec = SearchRecord(emit_graph6(path(4)), 4, 3, 1, "1/2^3", ["0x5"])
    write_records([rec], str(out))  # 0x5 = two edges, lacks the path
    assert main(["verify", "--records", str(out), "--target", "p4"]) == 1
    # the triangle search's witnesses hold K3 but not P4: on each host the
    # first member, one with the fewest edges, lacks P4 on its own
    argv = ["search", "-n", "6", "-m", "11", "--connected", "--target", "k3", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["verify", "--records", str(out), "--target", "k3"]) == 0
    assert capsys.readouterr().out == "ok: 9 records, 0 violations\n"
    assert main(["verify", "--records", str(out)]) == 1
    *problems, last = capsys.readouterr().out.splitlines()
    assert last == "FAIL: 9 records, 9 violations"
    assert len(problems) == 9
    assert all(p.endswith(": members (0, 0) lack the target intersection") for p in problems)
    assert main(["verify", "--records", str(out), "--target", "k3", "--json"]) == 0
    assert capsys.readouterr().out == '{"records": 9, "violations": []}\n'
    assert main(["verify", "--records", str(out), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"records": 9, "violations": problems}


@pytest.mark.parametrize("entry", ["3f", "0x3_f", "0X3F", " 0x3f"])
def test_cli_verify_accepts_only_the_hex_that_search_writes(tmp_path, capsys, entry):
    """int(h, 16) reads all of these as 0x3f, the whole of K4, which holds a
    P4; only hex()'s own spelling is a witness entry."""
    out = tmp_path / "records.jsonl"
    record = {"host_graph6": "C~", "n": 4, "m": 6, "clique_size": 1, "density": "1/2^6"}
    out.write_text(json.dumps({**record, "witness_hex": ["0x3f"]}) + "\n")
    assert main(["verify", "--records", str(out)]) == 0
    assert capsys.readouterr().out == "ok: 1 records, 0 violations\n"
    out.write_text(json.dumps({**record, "witness_hex": [entry]}) + "\n")
    assert main(["verify", "--records", str(out)]) == 1
    assert capsys.readouterr().out == (
        f"record C~: bad witness (entry {entry!r} should read '0x3f')\n"
        "FAIL: 1 records, 1 violations\n"
    )


def test_cli_search_determinism_across_jobs(monkeypatch, spy, tmp_path):
    # the hand-off forced after the first host, --jobs 2 solves the other
    # seven hosts on a real pool of two workers
    started = spy(multiprocessing, "Pool")
    monkeypatch.setattr(hifam.search, "POOL_COST_S", 0.0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out, jobs in ((a, "1"), (b, "2")):
        assert main([
            "search", "-n", "5", "-m", "4,5", "--target", "p4",
            "--connected", "--jobs", jobs, "--out", str(out), "--json",
        ]) == 0
    assert started == [(2,)]
    assert a.read_bytes() == b.read_bytes()


def test_cli_search_ignores_jobs_env(monkeypatch, tmp_path):
    # the worker count comes from --jobs alone, default 1
    monkeypatch.setenv("HIFAM_JOBS", "abc")
    out = tmp_path / "records.jsonl"
    assert main(["search", "-n", "4", "-m", "3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3  # P4, the star, K3 plus a vertex


@pytest.mark.parametrize("bad", ["0", "-5"])
def test_cli_search_rejects_bad_jobs_flag(tmp_path, capsys, bad):
    out = tmp_path / "records.jsonl"
    assert main(["search", "-n", "4", "-m", "3", "--jobs", bad, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --jobs must be a positive integer, got {bad}\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_a_plain_value_error_is_a_bug_not_exit_2(monkeypatch):
    # exit 2 is for user errors; a ValueError from inside the solver
    # propagates with its traceback
    def broken(host, cg):
        raise ValueError("solver bug")

    monkeypatch.setattr(hifam.cli, "solve_host", broken)
    with pytest.raises(ValueError, match="solver bug"):
        main(["clique", "--host", "p4"])

    # nor from inside the member build of construct
    def broken_build(mask):
        raise ValueError("build bug")

    monkeypatch.setattr(hifam.construct, "submasks", broken_build)
    with pytest.raises(ValueError, match="build bug"):
        main(["construct", "--parts", "2", "--t", "4"])

    # nor from inside a graph builder, a shape's or an edge list's
    def broken_index(i, j, n):
        raise ValueError("bug")

    monkeypatch.setattr(hifam.graphs, "edge_index", broken_index)
    for host in ["p4", "3 1\n0 1"]:
        with pytest.raises(ValueError, match="^bug$"):
            main(["clique", "--host", host])


def test_user_errors_share_one_class():
    """UserError is the one exception class the package defines."""
    assert issubclass(UserError, ValueError)
    package = Path(hifam.cli.__file__).parent
    modules = [importlib.import_module(f"hifam.{p.stem}")
               for p in package.glob("*.py") if p.stem not in ("__init__", "__main__")]
    defined = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__ == module.__name__}
    assert defined == {UserError}


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "-n", "9", "-m", "8"], "host enumeration supports 1 <= n <= 8, got n=9"),
    (["enumerate", "-n", "0", "-m", "1"], "host enumeration supports 1 <= n <= 8, got n=0"),
    (["search", "-n", "7", "-m", "21", "--out", "OUT"],
     "compatibility graphs capped at 16 host edges, got 21"),
    (["construct", "--parts", "0", "--t", "2"], "fixed part sizes must all be >= 1, got [0]"),
    (["construct", "--parts", "2", "--t", "0"], "final part size must be >= 1, got 0"),
    (["construct", "--parts", "21", "--t", "2"],
     "the family would have 8388605 members; cap is 4194304"),
    (["construct", "--parts", "2", "--t", "70"], "74 vertices exceeds the 64-vertex cap"),
    (["search", "-n", "6", "-m", "", "--out", "OUT"],
     "--edges needs at least one edge count, got ''"),
    (["search", "-n", "6", "-m", ",", "--out", "OUT"],
     "--edges needs at least one edge count, got ','"),
    (["search", "-n", "6", "-m", "-3", "--out", "OUT"], "edge count -3 outside 0..15 for n=6"),
    (["search", "-n", "6", "-m", "16", "--out", "OUT"], "edge count 16 outside 0..15 for n=6"),
    (["search", "-n", "6", "-m", "99", "--out", "OUT"], "edge count 99 outside 0..15 for n=6"),
    (["search", "-n", "6", "-m", "7,99", "--out", "OUT"], "edge count 99 outside 0..15 for n=6"),
    (["enumerate", "-n", "6", "-m", "99"], "edge count 99 outside 0..15 for n=6"),
    (["construct", "--parts", "18", "--t", "44"],  # 64 vertices, 12,058,579 members
     "the family would have 12058579 members; cap is 4194304"),
    (["clique", "--host", "k0"], "vertex count 0 outside [1, 64]"),
    (["clique", "--host", "p65"], "vertex count 65 outside [1, 64]"),
    (["clique", "--host", "c2"], "cycle needs at least 3 vertices"),
    (["clique", "--host", "p4", "--target", "k65"], "vertex count 65 outside [1, 64]"),
    (["clique", "--host", "3 1\n0 3"], "bad edge list: vertex pair (0, 3) out of range for n=3"),
    # the vertex count is refused before any edge line is read
    (["clique", "--host", "65 1\n0 70"], "bad edge list: vertex count 65 outside [1, 64]"),
    # more digits than int() reads, and than str() would write back
    (["clique", "--host", "p" + "9" * 5000], "5000-digit size exceeds the 64-vertex cap"),
    (["clique", "--host", "k1," + "9" * 5000], "5000-digit size exceeds the 64-vertex cap"),
    (["search", "-n", "6", "-m", "7,x", "--out", "OUT"],
     "expected comma-separated integers, got '7,x'"),
    (["construct", "--parts", "2,x", "--t", "4"], "expected comma-separated integers, got '2,x'"),
    # refused before any of the 107 nine-edge hosts is solved
    (["search", "-n", "7", "-m", "9,17", "--connected", "--out", "OUT"],
     "compatibility graphs capped at 16 host edges, got 17"),
])
def test_cli_caps_and_bad_sizes_exit_2(tmp_path, monkeypatch, spy, capsys, argv, message):
    # a cap that let a construction through would build its members here and
    # fail at once, not exhaust memory
    def no_members(mask):
        raise AssertionError("a member was built past the caps")

    monkeypatch.setattr(hifam.construct, "submasks", no_members)
    solved = spy(hifam.search, "solve_host")
    out = tmp_path / "records.jsonl"
    assert main([str(out) if a == "OUT" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []  # neither the records nor a partial file
    assert solved == []


CLASSES_6_7 = "".join(emit_graph6(g) + "\n" for g in connected_graphs(6, 7, True))


@pytest.mark.parametrize("host,data,message", [
    ("Bx", None, "bad graph6: nonzero padding bits"),
    ("@", b"", "empty graph input"),
    # a graph6 argument, file or stdin holds one graph: not the first of
    # `hifam enumerate -n 6 -m 7 --connected`'s 19 lines, nor E}q? and junk
    ("@", CLASSES_6_7.encode(), "bad graph6: expected one line, got 19"),
    ("-", b"E}q?\nnot a graph\n", "bad graph6: expected one line, got 2"),
    ("-", b"\xff\n", "cannot read the graph on stdin: 'ascii' codec can't decode byte 0xff "
                    "in position 0: ordinal not in range(128)"),
], ids=["padding", "empty-file", "19-line-file", "2-line-stdin", "undecodable-stdin"])
def test_cli_graph_text_refusals_exit_2(tmp_path, monkeypatch, capsys, host, data, message):
    """The graph read from an argument, an @file (data) or stdin (data,
    read as ASCII) is refused with exit 2."""
    if host == "@":
        graph = tmp_path / "graph.txt"
        graph.write_bytes(data)
        host += str(graph)
    elif host == "-":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))
    assert main(["clique", "--host", host]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("where,reason", [
    ("missing/records.jsonl", "No such file or directory"),
    ("", "Is a directory"),
])
def test_cli_search_checks_its_output_before_solving(tmp_path, monkeypatch, capsys,
                                                     where, reason):
    def no_solving(*args, **kwargs):
        raise AssertionError("a host was solved")

    monkeypatch.setattr(hifam.cli, "search_hosts", no_solving)
    out = tmp_path / where
    assert main(["search", "-n", "6", "-m", "9", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {reason}\n"
    assert os.listdir(tmp_path) == []
    assert [p.name for p in tmp_path.parent.iterdir() if p.name.endswith(".tmp")] == []


def test_cli_search_refuses_an_output_that_is_not_a_regular_file(tmp_path, monkeypatch,
                                                                 capsys):
    def no_solving(*args, **kwargs):
        raise AssertionError("a host was solved")

    monkeypatch.setattr(hifam.cli, "search_hosts", no_solving)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    link = tmp_path / "link.jsonl"
    link.symlink_to(pipe)
    for out in (pipe, link):
        assert main(["search", "-n", "6", "-m", "9", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: not a regular file\n"
    assert pipe.is_fifo() and link.is_symlink()
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "pipe"]


def test_cli_search_refuses_an_existing_output_it_cannot_write(tmp_path, monkeypatch, capsys,
                                                               spy):
    # the refusal a user without write permission meets, injected, since
    # root ignores the mode
    out = tmp_path / "records.jsonl"
    out.write_text("old\n")
    out.chmod(0o444)
    real_open = os.open

    def refuse(path, flags, *args):
        if path == os.path.realpath(out) and flags & os.O_WRONLY:
            raise PermissionError(errno.EACCES, "Permission denied", path)
        return real_open(path, flags, *args)

    monkeypatch.setattr(os, "open", refuse)
    solved = spy(hifam.search, "solve_host")
    assert main(["search", "-n", "4", "-m", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: Permission denied\n"
    assert solved == []
    assert os.listdir(tmp_path) == ["records.jsonl"] and out.read_text() == "old\n"


def test_cli_search_writes_through_a_symlink(tmp_path, capsys):
    # as open(out, "w") would: the link stays a link and its target gets
    # the records, a dangling link's target made new
    real, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
    real.write_text("old\n")
    link.symlink_to(real.name)
    assert main(["search", "-n", "4", "-m", "3", "--out", str(link)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote 3 records to {link}\n")
    assert link.is_symlink() and os.readlink(link) == real.name
    assert len(load_records(str(real))) == 3
    real.unlink()
    assert main(["search", "-n", "4", "-m", "3", "--out", str(link)]) == 0
    assert len(load_records(str(real))) == 3
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "real.jsonl"]


def test_cli_search_replaces_its_output_only_when_done(tmp_path, monkeypatch, capsys):
    out = tmp_path / "records.jsonl"
    out.write_text("old\n")

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(hifam.cli, "search_hosts", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["search", "-n", "4", "-m", "3", "--out", str(out)])
    assert os.listdir(tmp_path) == ["records.jsonl"] and out.read_text() == "old\n"
    monkeypatch.undo()

    def failing_write(records, path):
        with open(path, "w") as fh:
            fh.write("half a record")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(hifam.cli, "write_records", failing_write)
    assert main(["search", "-n", "4", "-m", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert os.listdir(tmp_path) == ["records.jsonl"] and out.read_text() == "old\n"
    monkeypatch.undo()

    os.chmod(out, 0o600)
    assert main(["search", "-n", "4", "-m", "3", "--out", str(out)]) == 0
    assert os.listdir(tmp_path) == ["records.jsonl"]
    assert len(load_records(str(out))) == 3
    # the mode open(path, "w") leaves: an existing file's own, and for a new
    # file the one a plain open gives
    assert os.stat(out).st_mode & 0o777 == 0o600
    new, plain = tmp_path / "new.jsonl", tmp_path / "plain.txt"
    assert main(["search", "-n", "4", "-m", "3", "--out", str(new)]) == 0
    open(plain, "w").close()
    assert os.stat(new).st_mode == os.stat(plain).st_mode


def test_cli_non_ascii_files_exit_2(tmp_path, capsys):
    text = tmp_path / "text.txt"
    text.write_bytes(b"caf\xc3\xa9\n")
    assert main(["clique", "--host", f"@{text}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read graph file '{text}': ")
    records = tmp_path / "records.jsonl"
    records.write_bytes(json.dumps(GOOD_RECORD).encode() + b"\n" + text.read_bytes())
    assert main(["verify", "--records", str(records)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {records}:2: 'ascii' codec")


def _hifam(argv, env_updates):
    """Start `python -m hifam argv` with both output streams piped."""
    env = {**os.environ, "PYTHONPATH": str(Path(hifam.cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    env.update(env_updates)
    return subprocess.Popen([sys.executable, "-m", "hifam", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("env_updates", [{}, {"PYTHONUNBUFFERED": "1"}])
def test_cli_stops_quietly_when_the_reader_closes_stdout(tmp_path, env_updates):
    """`hifam verify ... | head -1`: the reader takes a line and closes the
    pipe while the command still has most of its output to write.  That is no
    user error: exit 141, as a shell reports a process SIGPIPE ended, with no
    `error:` line and no "Exception ignored" at shutdown."""
    records = tmp_path / "records.jsonl"
    bad = json.dumps({**GOOD_RECORD, "host_graph6": "Bx"})
    records.write_text((bad + "\n") * 30000)  # 1.5 MB of violations, past any pipe buffer
    with _hifam(["verify", "--records", str(records)], env_updates) as proc:
        assert proc.stdout.readline() == b"record Bx: bad host graph6 (nonzero padding bits)\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_cli_stops_quietly_when_stdout_is_closed_before_it_writes():
    """With stdout block-buffered, a short answer is written by main's own
    flush, the one write that fails here."""
    with _hifam(["clique", "--host", "christofides"], {}) as proc:
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["clique"])  # missing required --host
    assert err.value.code == 2
