"""Command-line front end.

Subcommands: enumerate (host classes as graph6 lines), clique (one host,
exact solve), search (a whole host class, JSONL records plus summary),
construct (multipartite family with density comparison), verify (re-check
persisted search records).  Exit codes: 0 success, 1 property violation,
2 usage, parse or cap error (a ``UserError``, or an ``OSError`` on a file);
any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .clique import build_compatibility
from .construct import (
    ConstructionSpec,
    lifted_count_string,
    multipartite_family,
    verify_intersecting,
)
from .enumeration import connected_graphs
from .graphs import (
    Graph,
    Graph6Error,
    UserError,
    christofides_host,
    complete,
    complete_multipartite,
    cycle,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
    path,
)
from .search import (
    density_string,
    load_records,
    search_hosts,
    solve_host,
    summarize,
    verify_records,
    write_records,
)

_SHAPE_RE = re.compile(r"^([pck])(\d+)$", re.IGNORECASE)
_PARTS_RE = re.compile(r"^k(\d+(?:,\d+)+)$", re.IGNORECASE)


def resolve_graph(text: str) -> Graph:
    """Interpret a graph argument.

    Accepted forms: '-' (read stdin), '@path' (read file), a builtin name
    ('christofides'), a shape name ('p4', 'c5', 'k6', 'k2,4'), a graph6
    string, or inline edge-list text ('n m\\ni j\\n...').  Shape names win
    over graph6 when both would parse.
    """
    s = text.strip()
    if s == "-":
        try:
            return _graph_from_text(sys.stdin.read())
        except UnicodeDecodeError as exc:
            raise UserError(f"cannot read the graph on stdin: {exc}") from exc
    if s.startswith("@"):
        try:
            with open(s[1:], "r", encoding="ascii") as fh:
                return _graph_from_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise UserError(f"cannot read graph file {s[1:]!r}: {exc}") from exc
    if s.lower() == "christofides":
        return christofides_host()
    match = _SHAPE_RE.match(s)
    if match:
        kind, size = match.group(1).lower(), int(match.group(2))
        try:
            if kind == "p":
                return path(size)
            if kind == "c":
                return cycle(size)
            return complete(size)
        except ValueError as exc:
            raise UserError(str(exc)) from exc
    match = _PARTS_RE.match(s)
    if match:
        parts = [int(tok) for tok in match.group(1).split(",")]
        try:
            return complete_multipartite(parts)
        except ValueError as exc:
            raise UserError(str(exc)) from exc
    return _graph_from_text(s)


def _graph_from_text(text: str) -> Graph:
    stripped = text.strip()
    if not stripped:
        raise UserError("empty graph input")
    first = stripped.splitlines()[0].strip()
    if " " in first or "\t" in first:
        try:
            return parse_edge_list(stripped)
        except ValueError as exc:
            raise UserError(f"bad edge list: {exc}") from exc
    try:
        return parse_graph6(first)
    except Graph6Error as exc:
        raise UserError(f"bad graph6: {exc}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UserError(f"expected comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    graphs = connected_graphs(args.vertices, args.edges, args.connected)
    if args.json:
        print(json.dumps({
            "n": args.vertices,
            "m": args.edges,
            "connected": args.connected,
            "count": len(graphs),
            "graphs": [emit_graph6(g) for g in graphs],
        }))
    else:
        for g in graphs:
            print(emit_graph6(g))
    return 0


def cmd_clique(args: argparse.Namespace) -> int:
    host = resolve_graph(args.host)
    target = resolve_graph(args.target)
    cg = build_compatibility(host, target)
    rec = solve_host(host, cg)
    if args.json:
        print(json.dumps({
            "host_graph6": rec.host_graph6,
            "n": rec.n,
            "m": rec.m,
            "candidates": cg.size,
            "size": rec.clique_size,
            "density": rec.density,
            "witness_hex": rec.witness_hex,
        }))
    else:
        print(f"host: {rec.host_graph6} (n={rec.n}, m={rec.m})")
        print(f"candidates: {cg.size}")
        print(f"size: {rec.clique_size}")
        print(f"density: {rec.density}")
        print(f"witness: {' '.join(rec.witness_hex)}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UserError(f"--jobs must be a positive integer, got {args.jobs}")
    target = resolve_graph(args.target)
    edge_counts = _parse_int_list(args.edges)
    if not edge_counts:
        raise UserError(f"--edges needs at least one edge count, got {args.edges!r}")
    hosts = (g for m in sorted(set(edge_counts))
             for g in connected_graphs(args.vertices, m, args.connected))
    # made before any host is solved, with open(args.out, "w")'s mode, and
    # renamed onto --out once every record is in it
    partial = f"{args.out}.{os.getpid()}.tmp"
    if os.path.isdir(args.out):
        raise UserError(f"cannot write {args.out}: Is a directory")
    try:
        os.close(os.open(partial, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666))
    except OSError as exc:
        raise UserError(f"cannot write {args.out}: {exc.strerror}") from exc
    try:
        if os.path.exists(args.out):  # whose mode open(args.out, "w") keeps
            os.chmod(partial, os.stat(args.out).st_mode)
        records = search_hosts(hosts, target, jobs=args.jobs)
        write_records(records, partial)
        os.replace(partial, args.out)
    except BaseException:
        os.remove(partial)
        raise
    summary = summarize(records)
    if args.json:
        print(json.dumps({
            "hosts": len(records),
            "max_clique": summary.max_clique_size,
            "max_density": summary.max_density,
            "argmax_hosts": summary.argmax_hosts,
            "out": args.out,
        }))
    else:
        print(f"hosts: {len(records)}")
        print(f"max clique: {summary.max_clique_size}")
        print(f"max density: {summary.max_density}")
        print(f"argmax hosts: {' '.join(summary.argmax_hosts) if summary.argmax_hosts else '-'}")
        print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    parts = tuple(_parse_int_list(args.parts))
    try:  # part sizes below 1, or a host past its caps
        spec = ConstructionSpec(parts, args.t)
        built = multipartite_family(spec)
    except ValueError as exc:
        raise UserError(str(exc)) from exc
    target = spec.target
    host = built.host
    e_host = host.edge_count
    # over 2^e_host: the family's count, and the trivial family's (one target copy's supergraphs)
    size = len(built.family)
    trivial = 1 << (e_host - target.edge_count)
    family_str = density_string(size, e_host)
    trivial_str = density_string(trivial, e_host)
    improved = size > trivial
    op = ">" if improved else ("=" if size == trivial else "<")
    verdict = f"{family_str} {op} {trivial_str}: {'improved' if improved else 'not improved'}"

    verify_failure = None
    if args.verify:
        verify_failure = verify_intersecting(built.family, target)

    if args.json:
        obj = {
            "parts": list(spec.parts),
            "t": spec.t,
            "host_parts": list(spec.host_parts),
            "host_graph6": emit_graph6(host),
            "n": host.n,
            "m": e_host,
            "family_size": size,
            "density": family_str,
            "trivial_density": trivial_str,
            "margin": [size, trivial],
            "improved": improved,
            "lifted": lifted_count_string(size, e_host, host.n),
        }
        if args.verify:
            obj["verified"] = verify_failure is None
        print(json.dumps(obj))
    else:
        host_name = "K_{" + ",".join(str(p) for p in spec.host_parts) + "}"
        print(f"host: {host_name} = {emit_graph6(host)} (n={host.n}, m={e_host})")
        print(f"family size: {size}")
        print(f"density: {family_str}")
        print(f"trivial density: 1/2^{target.edge_count} = {trivial_str}")
        print(f"lifted count at n={host.n}: {lifted_count_string(size, e_host, host.n)}")
        print(verdict)
        if args.verify:
            target_name = "K_{" + ",".join(str(p) for p in spec.parts + (spec.t,)) + "}"
            if verify_failure is None:
                print(f"verified: every pair intersection contains {target_name}")
            else:
                print(f"VIOLATION: members {verify_failure} lack a {target_name} intersection")
    return 1 if args.verify and verify_failure is not None else 0


def cmd_verify(args: argparse.Namespace) -> int:
    target = resolve_graph(args.target)
    records = load_records(args.records)
    problems = verify_records(records, target)
    if args.json:
        print(json.dumps({
            "records": len(records),
            "violations": problems,
        }))
    else:
        if problems:
            for p in problems:
                print(p)
        print(f"{'FAIL' if problems else 'ok'}: {len(records)} records, {len(problems)} violations")
    return 1 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hifam",
        description="Search and construction toolkit for pattern-intersecting "
                    "families of graph edge sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="host classes as graph6 lines")
    p_enum.add_argument("--vertices", "-n", type=int, required=True)
    p_enum.add_argument("--edges", "-m", type=int, required=True)
    p_enum.add_argument("--connected", action="store_true",
                        help="keep only connected hosts")
    p_enum.add_argument("--json", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_clique = sub.add_parser("clique", help="exact maximum clique on one host")
    p_clique.add_argument("--host", required=True,
                          help="builtin name, shape (p4/c5/k6/k2,4), graph6, @file, or -")
    p_clique.add_argument("--target", default="p4", help="target pattern (default p4)")
    p_clique.add_argument("--json", action="store_true")
    p_clique.set_defaults(func=cmd_clique)

    p_search = sub.add_parser("search", help="solve every host in a class")
    p_search.add_argument("--vertices", "-n", type=int, required=True)
    p_search.add_argument("--edges", "-m", required=True,
                          help="comma-separated edge counts, e.g. 7,8")
    p_search.add_argument("--target", default="p4")
    p_search.add_argument("--connected", action="store_true")
    p_search.add_argument("--jobs", "-j", type=int, default=1,
                          help="at most this many worker processes, started once a "
                               "search is long enough to pay for them (default 1)")
    p_search.add_argument("--out", "-o", required=True, help="JSONL output path")
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=cmd_search)

    p_construct = sub.add_parser("construct", help="multipartite family and density")
    p_construct.add_argument("--parts", required=True,
                             help="comma-separated fixed part sizes, e.g. 2,2")
    p_construct.add_argument("--t", type=int, required=True, help="final part size")
    p_construct.add_argument("--verify", action="store_true",
                             help="check that every pair intersection contains the "
                                  "target (pairs of minimal members)")
    p_construct.add_argument("--json", action="store_true")
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser("verify", help="re-check persisted search records")
    p_verify.add_argument("--records", required=True, help="JSONL file from search")
    p_verify.add_argument("--target", default="p4")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UserError, OSError) as exc:  # Graph6Error is a UserError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
