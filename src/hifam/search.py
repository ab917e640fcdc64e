"""Host search driver with JSONL persistence.

Each host graph is an independent job: build its compatibility graph, solve
exact maximum clique, record the result.  The caller picks the hosts, and
records come back in the order the hosts were given, however many worker
processes solved them; ``hifam search`` orders its hosts by edge count and
then canonical key, so its output files are byte-identical across --jobs.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterable, Sequence

from .clique import CompatibilityGraph, build_compatibility, max_clique
from .construct import SubgraphFamily, verify_intersecting
from .graphs import Graph, Record, UserError, emit_graph6, parse_graph6

# A record's fields in file order, each with the JSON type its value must have.
RECORD_TYPES = {"host_graph6": str, "n": int, "m": int, "clique_size": int,
                "density": str, "witness_hex": list}
RECORD_FIELDS = tuple(RECORD_TYPES)

# What a worker pool costs a search, from medians of 21 alternating CLI runs of
# `--jobs 1` and `--jobs 2` (hand-off forced after the first host) on a shared
# 2-vCPU Linux machine under Python 3.11: the last 8 of the 9 hosts of
# `search -n 6 -m 11 --connected --target k3` (about 10 ms of solving) ran 16 ms
# slower on 2 workers, the last 19 of the 20 of `search -n 6 -m 9 --connected`
# (about 122 ms) 33 to 40 ms faster: a 20 ms start-up, a 1.8x to 2x speed-up and
# a 45 ms break-even.  The constant keeps an earlier fit's 2 * 60 ms: at 2 * 20 ms,
# `search -n 7 -m 8 --connected --jobs 2` pooled and ran slower in 14 of 20
# alternating runs, and the k3 search pooled in 7 of 10, its first host (a fifth
# of its solving) making the hosts left look longer.
POOL_COST_S = 0.06


class SearchRecord(Record):
    """One result row per host graph."""

    __slots__ = RECORD_FIELDS
    host_graph6: str
    n: int
    m: int
    clique_size: int
    density: str
    witness_hex: list[str]

    def __init__(
        self,
        host_graph6: str,
        n: int,
        m: int,
        clique_size: int,
        density: str,
        witness_hex: list[str],
    ) -> None:
        super().__init__(host_graph6, n, m, clique_size, density, witness_hex)

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in RECORD_FIELDS},
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "SearchRecord":
        """Parse one record line; ValueError unless every field has its type.

        Keys outside the field table are ignored.  Ints exclude bools, and
        witness_hex must be a list of strings.
        """
        obj = json.loads(line)
        if type(obj) is not dict:
            raise ValueError("a record must be a JSON object")
        for name, kind in RECORD_TYPES.items():
            if name not in obj:
                raise ValueError(f"record lacks the field {name!r}")
            value = obj[name]
            if type(value) is not kind or kind is list and any(type(h) is not str for h in value):
                want = "a list of strings" if kind is list else kind.__name__
                raise ValueError(f"field {name!r} must be {want}, got {value!r}")
        return cls(*[obj[name] for name in RECORD_FIELDS])


def density_string(count: int, exponent: int) -> str:
    """The density count/2^exponent as a record writes it: 'k/2^e', unreduced."""
    return f"{count}/2^{exponent}"


class SearchSummary(Record):
    """The best density over the records, in lowest terms, and the hosts at it."""

    __slots__ = ("max_clique_size", "max_density", "argmax_hosts")
    max_clique_size: int
    max_density: str
    argmax_hosts: list[str]

    def __init__(
        self,
        max_clique_size: int,
        max_density: str,
        argmax_hosts: list[str],
    ) -> None:
        super().__init__(max_clique_size, max_density, argmax_hosts)


def solve_host(host: Graph, cg: CompatibilityGraph) -> SearchRecord:
    """Solve one host's compatibility graph exactly and record the result."""
    result = max_clique(cg)
    return SearchRecord(
        host_graph6=emit_graph6(host),
        n=host.n,
        m=host.edge_count,
        clique_size=result.size,
        density=density_string(result.size, host.edge_count),
        witness_hex=[hex(cg.labels[i]) for i in result.witness],
    )


def _solve_host(host: Graph, target: Graph) -> SearchRecord:
    return solve_host(host, build_compatibility(host, target))


def search_hosts(hosts: Iterable[Graph], target: Graph, jobs: int = 1) -> list[SearchRecord]:
    """Solve each host exactly; one record per host, in the order given.

    Hosts are solved in order in this process.  With ``jobs`` > 1 the hosts
    left, two or more, go to a pool of min(jobs, hosts left, CPUs) workers
    once, at their mean time so far, they would take more than twice
    ``POOL_COST_S`` (120 ms): a pool pays only for long searches.
    """
    hosts = list(hosts)
    jobs = min(jobs, os.cpu_count() or 1)
    records: list[SearchRecord] = []
    start = time.perf_counter()
    for done, host in enumerate(hosts):
        left = len(hosts) - done
        if (jobs > 1 and left > 1 and done
                and (time.perf_counter() - start) / done * left > 2 * POOL_COST_S):
            from multiprocessing import Pool  # only a parallel run pays for its import

            with Pool(processes=min(jobs, left)) as pool:
                return records + pool.starmap(_solve_host, [(h, target) for h in hosts[done:]])
        records.append(_solve_host(host, target))
    return records


def summarize(records: Iterable[SearchRecord]) -> SearchSummary:
    """The best density (k/2^m against k'/2^m' as k << m' against k' << m), reduced."""
    count = exponent = best_clique = 0
    argmax: list[str] = []
    for rec in records:
        k, m = rec.clique_size, rec.m
        if not argmax or k << exponent > count << m:
            count, exponent, best_clique = k, m, k
            argmax = [rec.host_graph6]
        elif k << exponent == count << m:
            argmax.append(rec.host_graph6)
            best_clique = max(best_clique, k)
    shift = min(exponent, (count & -count).bit_length() - 1) if count else exponent
    return SearchSummary(best_clique, density_string(count >> shift, exponent - shift), argmax)


def write_records(records: Sequence[SearchRecord], path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def load_records(path: str) -> list[SearchRecord]:
    """Read a JSONL records file; UserError naming path:line on a bad line.

    Lines end at a newline and must be ASCII; a line that is not is bad too.
    """
    out = []
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                line = raw.decode("ascii").strip()
                if line:
                    out.append(SearchRecord.from_json(line))
            except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError included
                raise UserError(f"{path}:{number}: {exc}") from None
    return out


def verify_records(records: Sequence[SearchRecord], target: Graph) -> list[str]:
    """Re-verify persisted records; returns one message per violation."""
    problems = []
    for rec in records:
        where = f"record {rec.host_graph6}"
        try:
            host = parse_graph6(rec.host_graph6)
        except UserError as exc:
            problems.append(f"{where}: bad host graph6 ({exc})")
            continue
        if host.n != rec.n or host.edge_count != rec.m:
            problems.append(f"{where}: n/m fields disagree with the host")
            continue
        if rec.density != density_string(rec.clique_size, rec.m):
            problems.append(f"{where}: density string is not clique_size/2^m")
        if len(rec.witness_hex) != rec.clique_size:
            problems.append(f"{where}: witness length != clique_size")
            continue
        try:
            members = [int(h, 16) for h in rec.witness_hex]
            for h, member in zip(rec.witness_hex, members):
                if h != hex(member):  # the one spelling solve_host writes
                    raise ValueError(f"entry {h!r} should read {hex(member)!r}")
            family = SubgraphFamily(host, members)
        except ValueError as exc:
            problems.append(f"{where}: bad witness ({exc})")
            continue
        failure = verify_intersecting(family, target)
        if failure is not None:
            problems.append(f"{where}: members {failure} lack the target intersection")
    return problems
