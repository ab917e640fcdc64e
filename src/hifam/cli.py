"""Command-line front end.

Subcommands: enumerate (host classes as graph6 lines), clique (one host,
exact solve), search (a whole host class, JSONL records plus summary),
construct (multipartite family with density comparison), verify (re-check
persisted search records); each prints its text lines, or with --json one
JSON object line instead.  Exit codes: 0 success, 1 property violation,
2 usage, parse or cap error (a ``UserError``, or an ``OSError`` on a file),
141 stdout closed early; any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .clique import build_compatibility
from .construct import lifted_count_string, multipartite_family, verify_intersecting
from .enumeration import connected_graphs
from .graphs import (
    MAX_VERTICES,
    Graph,
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
        kind, size = match.group(1).lower(), _size(match.group(2))
        return {"p": path, "c": cycle, "k": complete}[kind](size)
    match = _PARTS_RE.match(s)
    if match:
        return complete_multipartite([_size(tok) for tok in match.group(1).split(",")])
    return _graph_from_text(s)


def _size(digits: str) -> int:
    try:  # int() reads at most 4,300 digits by default, leading zeros included
        return int(digits.lstrip("0") or "0")
    except ValueError:
        raise UserError(f"{len(digits)}-digit size exceeds the {MAX_VERTICES}-vertex cap") from None


def _graph_from_text(text: str) -> Graph:
    stripped = text.strip()
    if not stripped:
        raise UserError("empty graph input")
    lines = stripped.splitlines()
    first = lines[0].strip()
    if " " in first or "\t" in first:
        try:
            return parse_edge_list(stripped)
        except UserError as exc:
            raise UserError(f"bad edge list: {exc}") from exc
    if len(lines) > 1:
        raise UserError(f"bad graph6: expected one line, got {len(lines)}")
    try:
        return parse_graph6(first)
    except UserError as exc:
        raise UserError(f"bad graph6: {exc}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UserError(f"expected comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _emit(args: argparse.Namespace, obj: dict, lines: list[str]) -> None:
    """Print a subcommand's result: obj as one JSON line under --json, else
    each text line (none for an empty list)."""
    if args.json:
        print(json.dumps(obj))
    else:
        for line in lines:
            print(line)


def cmd_enumerate(args: argparse.Namespace) -> int:
    graphs = [emit_graph6(g) for g in connected_graphs(args.vertices, args.edges, args.connected)]
    _emit(args, {"n": args.vertices, "m": args.edges, "connected": args.connected,
                 "count": len(graphs), "graphs": graphs}, graphs)
    return 0


def cmd_clique(args: argparse.Namespace) -> int:
    host = resolve_graph(args.host)
    target = resolve_graph(args.target)
    cg = build_compatibility(host, target)
    rec = solve_host(host, cg)
    _emit(args, {"host_graph6": rec.host_graph6, "n": rec.n, "m": rec.m, "candidates": cg.size,
                 "size": rec.clique_size, "density": rec.density, "witness_hex": rec.witness_hex}, [
        f"host: {rec.host_graph6} (n={rec.n}, m={rec.m})",
        f"candidates: {cg.size}",
        f"size: {rec.clique_size}",
        f"density: {rec.density}",
        "witness: " + " ".join(rec.witness_hex),
    ])
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
    # the file open(args.out, "w") would write: a symlink's target, so the
    # link stays a link; it must be a regular file or not exist yet
    out = os.path.realpath(args.out)
    if os.path.isdir(out):
        raise UserError(f"cannot write {args.out}: Is a directory")
    if os.path.exists(out) and not os.path.isfile(out):  # a FIFO or a device
        raise UserError(f"cannot write {args.out}: not a regular file")
    # made before any host is solved, with open(args.out, "w")'s mode, and
    # renamed onto out once every record is in it
    partial = f"{out}.{os.getpid()}.tmp"
    try:
        if os.path.exists(out):  # refused as open(args.out, "w") would refuse it
            os.close(os.open(out, os.O_WRONLY))
        os.close(os.open(partial, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666))
    except OSError as exc:
        raise UserError(f"cannot write {args.out}: {exc.strerror}") from exc
    try:
        records = search_hosts(hosts, target, jobs=args.jobs)
        write_records(records, partial)
        if os.path.exists(out):  # whose mode open(args.out, "w") keeps
            os.chmod(partial, os.stat(out).st_mode)
        os.replace(partial, out)
    except BaseException:
        os.remove(partial)
        raise
    summary = summarize(records)
    _emit(args, {"hosts": len(records), "max_clique": summary.max_clique_size,
                 "max_density": summary.max_density, "argmax_hosts": summary.argmax_hosts,
                 "out": args.out}, [
        f"hosts: {len(records)}",
        f"max clique: {summary.max_clique_size}",
        f"max density: {summary.max_density}",
        "argmax hosts: " + (" ".join(summary.argmax_hosts) or "-"),
        f"wrote {len(records)} records to {args.out}",
    ])
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    built = multipartite_family(_parse_int_list(args.parts), args.t)
    target, host = built.target, built.host
    e_host = host.edge_count
    # over 2^e_host: the family's count, and the trivial family's (one target copy's supergraphs)
    size = len(built.family)
    trivial = 1 << (e_host - target.edge_count)
    family_str = density_string(size, e_host)
    trivial_str = density_string(trivial, e_host)
    improved = size > trivial
    op = ">" if improved else ("=" if size == trivial else "<")
    lifted = lifted_count_string(size, e_host, host.n)
    obj = {"parts": list(built.parts), "t": built.t, "host_parts": list(built.host_parts),
           "host_graph6": emit_graph6(host), "n": host.n, "m": e_host, "family_size": size,
           "density": family_str, "trivial_density": trivial_str, "margin": [size, trivial],
           "improved": improved, "lifted": lifted}
    host_name = "K_{" + ",".join(str(p) for p in built.host_parts) + "}"
    lines = [
        f"host: {host_name} = {obj['host_graph6']} (n={host.n}, m={e_host})",
        f"family size: {size}",
        f"density: {family_str}",
        f"trivial density: 1/2^{target.edge_count} = {trivial_str}",
        f"lifted count at n={host.n}: {lifted}",
        f"{family_str} {op} {trivial_str}: {'improved' if improved else 'not improved'}",
    ]
    failure = None
    if args.verify:
        failure = verify_intersecting(built.family, target)
        obj["verified"] = failure is None
        target_name = "K_{" + ",".join(str(p) for p in built.parts + (built.t,)) + "}"
        lines.append(f"verified: every pair intersection contains {target_name}" if failure is None
                     else f"VIOLATION: members {failure} lack a {target_name} intersection")
    _emit(args, obj, lines)
    return 0 if failure is None else 1


def cmd_verify(args: argparse.Namespace) -> int:
    target = resolve_graph(args.target)
    records = load_records(args.records)
    problems = verify_records(records, target)
    _emit(args, {"records": len(records), "violations": problems}, [
        *problems,
        f"{'FAIL' if problems else 'ok'}: {len(records)} records, {len(problems)} violations",
    ])
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
    p_enum.set_defaults(func=cmd_enumerate)

    p_clique = sub.add_parser("clique", help="exact maximum clique on one host")
    p_clique.add_argument("--host", required=True,
                          help="builtin name, shape (p4/c5/k6/k2,4), graph6, @file, or -")
    p_clique.add_argument("--target", default="p4", help="target pattern (default p4)")
    p_clique.set_defaults(func=cmd_clique)

    p_search = sub.add_parser("search", help="solve every host in a class")
    p_search.add_argument("--vertices", "-n", type=int, required=True)
    p_search.add_argument("--edges", "-m", required=True,
                          help="comma-separated edge counts, e.g. 7,8")
    p_search.add_argument("--target", default="p4")
    p_search.add_argument("--connected", action="store_true")
    p_search.add_argument("--jobs", "-j", type=int, default=1,
                          help="at most this many worker processes, one per CPU at most, "
                               "started once a search is long enough to pay for them (default 1)")
    p_search.add_argument("--out", "-o", required=True, help="JSONL output path")
    p_search.set_defaults(func=cmd_search)

    p_construct = sub.add_parser("construct", help="multipartite family and density")
    p_construct.add_argument("--parts", required=True,
                             help="comma-separated fixed part sizes, e.g. 2,2")
    p_construct.add_argument("--t", type=int, required=True, help="final part size")
    p_construct.add_argument("--verify", action="store_true",
                             help="check that every pair intersection contains the "
                                  "target (pairs of minimal members)")
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser("verify", help="re-check persisted search records")
    p_verify.add_argument("--records", required=True, help="JSONL file from search")
    p_verify.add_argument("--target", default="p4")
    p_verify.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader gone shows here, not at shutdown
    except BrokenPipeError:  # the signal docs' recipe: shutdown's flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UserError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
