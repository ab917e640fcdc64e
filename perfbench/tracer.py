"""In-process pass of one workload, optionally traced at hifam's public calls.

Run as a child of ``run.py``::

    python3 perfbench/tracer.py --workload k3-dense-kst --mode full --jobs 1 \\
        --dir OUT_DIR --out PASS.json

The pass imports hifam from the checkout, clears the host-enumeration cache,
and runs the workload's CLI commands through ``hifam.cli.main`` in this
process.  Spans are recorded from outside the package: every public function
listed in ``LAYERS`` is replaced, in every hifam module that resolves it
(``hifam.clique.contains_p4``, ``hifam.construct.contains_multipartite``,
...), by a wrapper that times and counts the call.

A span records name, start, end, parent span and workload id.  The hot
containment tests and canonical keys run up to a million times a pass, so
those leaf calls are kept as per-(parent span, name) aggregates of calls,
seconds and hits instead of one span each.  Everything stays in memory and
is written as JSON when the pass ends.

Modes: ``full`` wraps every layer; ``light`` wraps only ``search_hosts`` and
``connected_graphs`` (two calls a search), which gives the untraced reference
and the worker-pool timing at no measurable cost.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import build_workloads  # noqa: E402

SPAN = "span"
LEAF = "leaf"


def _hosts(args, kwargs, result):
    return {"hosts": len(result)}


def _compat(args, kwargs, result):
    return {
        "candidates": result.size,
        "compat_edges": sum(row.bit_count() for row in result.adjacency) // 2,
    }


def _members(args, kwargs, result):
    return {"members": len(result.family)}


def _bytes_written(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


def _records(args, kwargs, result):
    return {"records": len(result)}


# (module, function, kind, counters taken from the call's arguments and result)
LAYERS = [
    ("graphs", "canonical_key", LEAF, None),
    ("detect", "contains_p4", LEAF, None),
    ("detect", "contains_subgraph", LEAF, None),
    ("detect", "contains_multipartite", LEAF, None),
    ("enumeration", "connected_graphs", SPAN, _hosts),
    ("clique", "build_compatibility", SPAN, _compat),
    ("clique", "max_clique", SPAN, None),
    ("construct", "multipartite_family", SPAN, _members),
    ("construct", "verify_intersecting", SPAN, None),
    ("search", "search_hosts", SPAN, None),
    ("search", "write_records", SPAN, _bytes_written),
    ("search", "load_records", SPAN, _records),
    ("search", "verify_records", SPAN, None),
]
LIGHT = {"search.search_hosts", "enumeration.connected_graphs"}


class Tracer:
    """Spans and leaf aggregates of one pass; patches and restores hifam."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # [id, name, start, end, parent, counters]
        self.aggregates: dict[tuple[int, str], list] = {}  # -> [calls, seconds, hits]
        self.stack = [0]
        self._patched: list[tuple[object, str, object]] = []

    def _leaf(self, name, fn):
        aggregates, stack, clock = self.aggregates, self.stack, time.perf_counter

        def leaf(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            key = (stack[-1], name)
            agg = aggregates.get(key)
            if agg is None:
                aggregates[key] = [1, dt, 1 if result else 0]
            else:
                agg[0] += 1
                agg[1] += dt
                if result:
                    agg[2] += 1
            return result

        return leaf

    def _span(self, name, fn, counters):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def span(*args, **kwargs):
            rec = [len(spans) + 1, name, 0.0, 0.0, stack[-1], {}]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counters is not None:
                rec[5] = counters(args, kwargs, result)
            return result

        return span

    def install(self, mode: str) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "hifam" or key.startswith("hifam.")]
        for mod_name, fn_name, kind, counters in LAYERS:
            name = f"{mod_name}.{fn_name}"
            if mode == "light" and name not in LIGHT:
                continue
            original = getattr(importlib.import_module(f"hifam.{mod_name}"), fn_name)
            wrapper = (self._leaf(name, original) if kind == LEAF
                       else self._span(name, original, counters))
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._patched.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4],
                 "workload": self.workload, "counters": s[5]}
                for s in self.spans
            ],
            "aggregates": [
                {"parent": parent, "name": name, "calls": a[0], "seconds": a[1],
                 "hits": a[2]}
                for (parent, name), a in sorted(self.aggregates.items())
            ],
        }


def run_pass(workload_name: str, mode: str, jobs: int, out_dir: str,
             steps: list[str] | None = None) -> dict:
    """Run the workload's commands in this process; returns the pass record."""
    import hifam
    import hifam.cli
    import hifam.enumeration

    root = Path(__file__).resolve().parent.parent
    if Path(hifam.__file__).resolve().parent != root / "src" / "hifam":
        raise RuntimeError(f"imported hifam from {hifam.__file__}, not the checkout")
    workload = build_workloads()[workload_name]
    hifam.enumeration.connected_graphs.cache_clear()
    tracer = Tracer(workload_name)
    tracer.install(mode)
    results = []
    start = time.perf_counter()
    try:
        for step in workload.steps:
            if steps is not None and step.name not in steps:
                continue
            argv = step.args(out_dir, jobs)
            buf = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(buf):
                try:
                    code = hifam.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            results.append({"step": step.name, "code": code,
                            "stdout": buf.getvalue(),
                            "seconds": time.perf_counter() - t0})
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return {"workload": workload_name, "mode": mode, "jobs": jobs, "wall_s": wall,
            "steps": results, **tracer.dump()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("full", "light"), required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--dir", required=True, help="output directory of the pass")
    parser.add_argument("--out", required=True, help="pass record (JSON)")
    parser.add_argument("--steps", default=None, help="comma-separated step names")
    args = parser.parse_args(argv)
    steps = args.steps.split(",") if args.steps else None
    record = run_pass(args.workload, args.mode, args.jobs, args.dir, steps)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
