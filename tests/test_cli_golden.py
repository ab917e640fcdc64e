"""Each subcommand's full stdout and exit code, byte for byte, as text and
as --json.

The other CLI tests read the JSON back through json.loads and check text
lines one at a time, so these are what pin the key order, the ", " and
": " separators, the trailing newline and the empty cases (no graphs,
no argmax hosts, no witness).  ``{out}`` stands for a records path under
tmp_path; each verify case first writes the K4 host's K3 records there.
"""

from __future__ import annotations

import pytest

from hifam.cli import main

RECORDS = ["search", "-n", "4", "-m", "6", "--connected", "--target", "k3", "--out", "{out}"]

GOLDEN = [
    (["enumerate", "-n", "4", "-m", "4", "--connected"], 0,
     "C{\nC]\n"),
    (["enumerate", "-n", "4", "-m", "4", "--connected", "--json"], 0,
     '{"n": 4, "m": 4, "connected": true, "count": 2, "graphs": ["C{", "C]"]}\n'),
    (["enumerate", "-n", "6", "-m", "3", "--connected"], 0,
     ""),
    (["enumerate", "-n", "6", "-m", "3", "--connected", "--json"], 0,
     '{"n": 6, "m": 3, "connected": true, "count": 0, "graphs": []}\n'),
    (["clique", "--host", "christofides"], 0,
     "host: EbX_ (n=6, m=7)\ncandidates: 71\nsize: 17\ndensity: 17/2^7\n"
     "witness: 0x1b1 0x9b0 0x9b1 0x11b0 0x11b1 0x1831 0x18b0 0x18b1 0x1930 0x1931"
     " 0x1981 0x1990 0x1991 0x19a0 0x19a1 0x19b0 0x19b1\n"),
    (["clique", "--host", "christofides", "--json"], 0,
     '{"host_graph6": "EbX_", "n": 6, "m": 7, "candidates": 71, "size": 17, '
     '"density": "17/2^7", "witness_hex": ["0x1b1", "0x9b0", "0x9b1", "0x11b0", '
     '"0x11b1", "0x1831", "0x18b0", "0x18b1", "0x1930", "0x1931", "0x1981", "0x1990", '
     '"0x1991", "0x19a0", "0x19a1", "0x19b0", "0x19b1"]}\n'),
    (["clique", "--host", "k3"], 0,
     "host: Bw (n=3, m=3)\ncandidates: 0\nsize: 0\ndensity: 0/2^3\nwitness: \n"),
    (["clique", "--host", "k3", "--json"], 0,
     '{"host_graph6": "Bw", "n": 3, "m": 3, "candidates": 0, "size": 0, '
     '"density": "0/2^3", "witness_hex": []}\n'),
    (["search", "-n", "5", "-m", "5", "--connected", "--out", "{out}"], 0,
     "hosts: 5\nmax clique: 4\nmax density: 1/2^3\n"
     "argmax hosts: D{_ Dy_ D]_ Dj_ DLo\nwrote 5 records to {out}\n"),
    (["search", "-n", "5", "-m", "5", "--connected", "--out", "{out}", "--json"], 0,
     '{"hosts": 5, "max_clique": 4, "max_density": "1/2^3", '
     '"argmax_hosts": ["D{_", "Dy_", "D]_", "Dj_", "DLo"], "out": "{out}"}\n'),
    (["search", "-n", "6", "-m", "3", "--connected", "--out", "{out}"], 0,
     "hosts: 0\nmax clique: 0\nmax density: 0/2^0\nargmax hosts: -\n"
     "wrote 0 records to {out}\n"),
    (["search", "-n", "6", "-m", "3", "--connected", "--out", "{out}", "--json"], 0,
     '{"hosts": 0, "max_clique": 0, "max_density": "0/2^0", "argmax_hosts": [], '
     '"out": "{out}"}\n'),
    (["construct", "--parts", "1", "--t", "1"], 0,
     "host: K_{1,3} = Cs (n=4, m=3)\nfamily size: 4\ndensity: 4/2^3\n"
     "trivial density: 1/2^1 = 4/2^3\nlifted count at n=4: 4 · 2^3 = 32\n"
     "4/2^3 = 4/2^3: not improved\n"),
    (["construct", "--parts", "1", "--t", "1", "--json"], 0,
     '{"parts": [1], "t": 1, "host_parts": [1, 3], "host_graph6": "Cs", "n": 4, '
     '"m": 3, "family_size": 4, "density": "4/2^3", "trivial_density": "4/2^3", '
     '"margin": [4, 4], "improved": false, "lifted": "4 \\u00b7 2^3 = 32"}\n'),
    (["construct", "--parts", "2", "--t", "4", "--verify"], 0,
     "host: K_{2,6} = G]rEE? (n=8, m=12)\nfamily size: 19\ndensity: 19/2^12\n"
     "trivial density: 1/2^8 = 16/2^12\nlifted count at n=8: 19 · 2^16 = 1245184\n"
     "19/2^12 > 16/2^12: improved\n"
     "verified: every pair intersection contains K_{2,4}\n"),
    (["construct", "--parts", "2", "--t", "4", "--verify", "--json"], 0,
     '{"parts": [2], "t": 4, "host_parts": [2, 6], "host_graph6": "G]rEE?", "n": 8, '
     '"m": 12, "family_size": 19, "density": "19/2^12", "trivial_density": "16/2^12", '
     '"margin": [19, 16], "improved": true, "lifted": "19 \\u00b7 2^16 = 1245184", '
     '"verified": true}\n'),
    (["verify", "--records", "{out}", "--target", "k3"], 0,
     "ok: 1 records, 0 violations\n"),
    (["verify", "--records", "{out}", "--target", "k3", "--json"], 0,
     '{"records": 1, "violations": []}\n'),
    (["verify", "--records", "{out}"], 1,
     "record C~: members (0, 0) lack the target intersection\n"
     "FAIL: 1 records, 1 violations\n"),
    (["verify", "--records", "{out}", "--json"], 1,
     '{"records": 1, "violations": ["record C~: members (0, 0) lack the target '
     'intersection"]}\n'),
]


@pytest.mark.parametrize("argv, status, stdout", GOLDEN,
                         ids=["-".join(a.lstrip("-") for a in argv) for argv, _, _ in GOLDEN])
def test_golden_stdout(tmp_path, capsys, argv, status, stdout):
    out = str(tmp_path / "r.jsonl")
    if argv[0] == "verify":
        assert main([a.replace("{out}", out) for a in RECORDS]) == 0
        capsys.readouterr()
    assert main([a.replace("{out}", out) for a in argv]) == status
    assert capsys.readouterr().out == stdout.replace("{out}", out)
