"""Workload table and output checks for the hifam benchmark.

Each workload is a fixed sequence of ``hifam`` CLI commands.  The inputs are
exhaustive and deterministic, so they do not depend on the seed.  Every
command's exit code and output are checked against ``expected.json``, which
records the known answers up to host isomorphism: a host is compared by a
canonical form computed here, independently of hifam, so a change to hifam's
canonical labeling or record layout is still measurable.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# Placeholder in a command template for the pass's private output directory.
DIR = "{dir}"


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload and the check applied to its result."""

    name: str
    argv: tuple[str, ...]
    check: Callable[["StepResult"], list[str]]

    def args(self, out_dir: str, jobs: int | None = None) -> list[str]:
        """The argv for one pass; ``jobs`` overrides a ``--jobs`` value."""
        out = [a.replace(DIR, out_dir) for a in self.argv]
        if jobs is not None and "--jobs" in out:
            out[out.index("--jobs") + 1] = str(jobs)
        return out


@dataclass
class StepResult:
    """What one executed command produced."""

    step: str
    code: int
    stdout: str
    seconds: float
    files: dict[str, bytes] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A command sequence; ``pool_jobs`` > 1 adds a worker-pool pass when traced."""

    name: str
    why: str
    steps: tuple[Step, ...]
    pool_jobs: int = 1


# ---------------------------------------------------------------------------
# independent host canonical form (graph6 decode + brute-force relabeling)
# ---------------------------------------------------------------------------


def graph6_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode a single-byte-size graph6 string into (n, edge pairs)."""
    data = [ord(c) - 63 for c in text.strip()]
    if not data or any(not 0 <= d < 64 for d in data) or data[0] > 62:
        raise ValueError(f"unsupported graph6 {text!r}")
    n = data[0]
    bits = [(d >> (5 - k)) & 1 for d in data[1:] for k in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs):
        raise ValueError(f"graph6 {text!r} is too short for n={n}")
    return n, [p for p, b in zip(pairs, bits) if b]


def canonical_form(graph6: str) -> str:
    """Lexicographically least sorted edge list over all vertex relabelings."""
    n, edges = graph6_edges(graph6)
    if n > 7:
        raise ValueError(f"canonical_form is for hosts of at most 7 vertices, got {n}")
    best = None
    for perm in itertools.permutations(range(n)):
        relabeled = sorted(
            (perm[i], perm[j]) if perm[i] < perm[j] else (perm[j], perm[i])
            for i, j in edges
        )
        if best is None or relabeled < best:
            best = relabeled
    return f"{n}:" + ",".join(f"{i}-{j}" for i, j in best or [])


def parse_density(text: str) -> Fraction:
    """Parse 'k/2^e' into an exact fraction."""
    match = re.fullmatch(r"\s*(\d+)/2\^(\d+)\s*", text)
    if not match:
        raise ValueError(f"not a dyadic density: {text!r}")
    return Fraction(int(match.group(1)), 1 << int(match.group(2)))


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="ascii") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------


def _exit_problem(res: StepResult, want: int = 0) -> list[str]:
    if res.code != want:
        return [f"{res.step}: exit code {res.code}, expected {want}"]
    return []


def _summary_field(stdout: str, label: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(label + ":"):
            return line[len(label) + 1:].strip()
    return None


def record_problems(lines: list[str], expected: dict) -> list[str]:
    """Compare records by (host class, m, clique_size, density), not bytes."""
    problems = []
    got = []
    for k, line in enumerate(lines):
        try:
            rec = json.loads(line)
            n, edges = graph6_edges(rec["host_graph6"])
            clique = int(rec["clique_size"])
            m = int(rec["m"])
            if rec["n"] != n or m != len(edges):
                problems.append(f"record {k}: n/m disagree with host {rec['host_graph6']}")
            if parse_density(rec["density"]) != Fraction(clique, 1 << m):
                problems.append(f"record {k}: density {rec['density']} is not {clique}/2^{m}")
            if len(rec["witness_hex"]) != clique:
                problems.append(f"record {k}: {len(rec['witness_hex'])} witness members, "
                                f"clique_size {clique}")
            got.append([canonical_form(rec["host_graph6"]), m, clique])
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"record {k}: unreadable ({exc})")
    want = sorted(expected["records"])
    if sorted(got) != want:
        missing = [r for r in want if r not in got]
        extra = [r for r in got if r not in want]
        problems.append(f"records differ from the known answer: missing {missing[:3]}, "
                        f"unexpected {extra[:3]} ({len(got)} records, expected {len(want)})")
    return problems


def check_search(expected: dict) -> Callable[[StepResult], list[str]]:
    def check(res: StepResult) -> list[str]:
        problems = _exit_problem(res)
        if problems:
            return problems
        hosts = _summary_field(res.stdout, "hosts")
        if hosts != str(len(expected["records"])):
            problems.append(f"search: 'hosts: {hosts}', expected {len(expected['records'])}")
        density = _summary_field(res.stdout, "max density")
        try:
            if parse_density(density or "") != parse_density(expected["max_density"]):
                problems.append(f"search: max density {density}, expected "
                                f"{expected['max_density']}")
        except ValueError as exc:
            problems.append(f"search: {exc}")
        argmax = (_summary_field(res.stdout, "argmax hosts") or "").split()
        try:
            if sorted(canonical_form(h) for h in argmax) != sorted(expected["argmax"]):
                problems.append(f"search: argmax hosts {argmax} are not the known "
                                f"{len(expected['argmax'])} hosts")
        except ValueError as exc:
            problems.append(f"search: bad argmax host ({exc})")
        data = res.files.get("records.jsonl")
        if data is None:
            return problems + ["search: no records file written"]
        lines = [ln for ln in data.decode("ascii").splitlines() if ln.strip()]
        return problems + record_problems(lines, expected)
    return check


def check_verify(record_count: int) -> Callable[[StepResult], list[str]]:
    def check(res: StepResult) -> list[str]:
        problems = _exit_problem(res)
        want = f"ok: {record_count} records, 0 violations"
        if want not in res.stdout.splitlines():
            problems.append(f"verify: output lacks {want!r}")
        return problems
    return check


def check_lines(lines: list[str]) -> Callable[[StepResult], list[str]]:
    def check(res: StepResult) -> list[str]:
        problems = _exit_problem(res)
        have = res.stdout.splitlines()
        problems += [f"{res.step}: output lacks {line!r}" for line in lines if line not in have]
        return problems
    return check


def check_help(res: StepResult) -> list[str]:
    problems = _exit_problem(res)
    if not res.stdout.startswith("usage: hifam"):
        problems.append("setup: --help printed no usage line")
    return problems


# ---------------------------------------------------------------------------
# the workload table
# ---------------------------------------------------------------------------

RECORDS = f"{DIR}/records.jsonl"


def _search_steps(n: int, edges: str, target: str, expected: dict) -> tuple[Step, ...]:
    verify_argv = ("verify", "--records", RECORDS)
    if target != "p4":
        verify_argv += ("--target", target)
    return (
        Step("search",
             ("search", "-n", str(n), "-m", edges, "--connected", "--target", target,
              "--jobs", "1", "--out", RECORDS),
             check_search(expected)),
        Step("verify", verify_argv, check_verify(len(expected["records"]))),
    )


def _construct_steps(parts: str, t: int, expected: dict) -> tuple[Step, ...]:
    return (
        Step("construct", ("construct", "--parts", parts, "--t", str(t), "--verify"),
             check_lines(expected["lines"])),
    )


def build_workloads() -> dict[str, Workload]:
    exp = load_expected()
    table = [
        Workload(
            "p4-sparse",
            "the paper's headline search; host enumeration (canonical keys) dominates, "
            "the clique solver is minor, and nothing runs the multipartite verifier",
            _search_steps(6, "7,8", "p4", exp["p4-sparse"])),
        # The triangle search and the K_{4,24} construction share one workload
        # so that each run can be long enough to average out a shared host's
        # speed swings; cli.search_s, cli.verify_s and cli.construct_s still
        # split it by command.
        Workload(
            "k3-dense-kst",
            "triangle search on 9 dense hosts and a generic verify of its witnesses, "
            "then the K_{4,24} construction on a K_{4,26} host, verified: "
            "compatibility build, clique and both verifier paths; little enumeration",
            _search_steps(6, "11", "k3", exp["k3-dense"])
            + _construct_steps("4", 24, exp["kst-construct"]),
            pool_jobs=2),
        # tiny instances for the benchmark's own tests; not in BENCHMARK.json
        Workload(
            "smoke-search", "tiny search, with a worker-pool pass when traced",
            _search_steps(5, "7,8", "p4", exp["smoke-search"]), pool_jobs=2),
        Workload(
            "smoke-construct", "tiny construction with verification",
            _construct_steps("2", 4, exp["smoke-construct"])),
    ]
    return {w.name: w for w in table}
