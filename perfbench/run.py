"""hifam benchmark: CLI workloads with exact output checks and traced layers.

    python3 perfbench/run.py --workload p4-sparse --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; hifam is imported from its ``src``.  The
workloads (``workloads.py``) are exhaustive and deterministic, so ``--seed``
is recorded but does not change the inputs.

``--trace 0`` measures the end-to-end metrics.  Every CLI call runs in a
fresh ``python3 -m hifam`` process, as users meet it, so no ``lru_cache``
survives between calls.  Whole passes of the workload's command sequence
repeat for about ``--seconds`` (at least one).  Before each pass come a few
calls that do no work (``--help``: interpreter start, ``import hifam``,
argument parsing); ``setup_s`` is their median.  ``wall_s`` is the mean pass:
a shared machine's speed swings for tens of seconds at a time, and the mean
averages it over the whole run, where the median of two to five long passes
keeps the luck of one of them.  Searches run with ``--jobs 1``: on a shared
two-core machine the wall time of a two-worker pool spreads by a third from
run to run, more than any bound this benchmark could hold it to.

``--trace 1`` measures the per-layer metrics from in-process passes
(``tracer.py``), each in its own child process with a cold enumeration cache:

* pool pass, only for a workload with ``pool_jobs`` > 1: the search command
  with that many workers, timing just ``search_hosts`` and
  ``connected_graphs``;
* traced pass A and untraced pass U, run side by side over the same time
  window; A gives the layer times and counts, A - U the tracing overhead
  (on a shared machine it carries that machine's noise, and can be < 0);
* traced pass B, whose counts must equal A's exactly.

Every pass's records and outputs must be byte-identical to pass A's, so the
pool pass also checks that records do not depend on ``--jobs``.

Every command's exit code and output are checked; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``, where
``failed`` counts commands with a wrong exit code or output plus failed
determinism checks (the ``ops_failed`` of the human-readable report).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    DIR,
    Step,
    StepResult,
    Workload,
    build_workloads,
    check_help,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_CALLS_PER_PASS = 5
BUDGET_S = 170.0  # every run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.search_s": "s",
    "cli.verify_s": "s",
    "cli.construct_s": "s",
    "graphs.canonical_key.calls": "count",
    "graphs.canonical_key.s": "s",
    "enumeration.connected_graphs.s": "s",
    "enumeration.connected_graphs.self_s": "s",
    "enumeration.hosts": "count",
    "enumeration.classes_per_key_call": "ratio",
    "clique.build_compatibility.s": "s",
    "clique.build_compatibility.self_s": "s",
    "clique.candidates": "count",
    "clique.compat_edges": "count",
    "clique.max_clique.s": "s",
    "clique.max_clique.host_p50_ms": "ms",
    "clique.max_clique.host_max_ms": "ms",
    "detect.contains_p4.calls": "count",
    "detect.contains_p4.s": "s",
    "detect.contains_p4.hit_ratio": "ratio",
    "detect.contains_subgraph.calls": "count",
    "detect.contains_subgraph.s": "s",
    "detect.contains_subgraph.hit_ratio": "ratio",
    "detect.contains_multipartite.calls": "count",
    "detect.contains_multipartite.s": "s",
    "detect.contains_multipartite.hit_ratio": "ratio",
    "construct.verify_intersecting.s": "s",
    "construct.verify_intersecting.self_s": "s",
    "construct.pairs_checked": "count",
    "construct.multipartite_family.s": "s",
    "construct.members": "count",
    "search.search_hosts.s": "s",
    "search.solve_serial_s": "s",
    "search.parallel_efficiency": "ratio",
    "search.write_records.s": "s",
    "search.records_bytes": "bytes",
    "search.load_records.s": "s",
    "search.verify_records.s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Ops:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append("; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.problems)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("HIFAM_JOBS", None)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise TimeoutError("benchmark time budget exhausted")
    return left


def out_files(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def run_cli(step: Step, out_dir: Path, deadline: float) -> StepResult:
    """Run one command in a fresh ``python3 -m hifam`` process and time it."""
    argv = step.args(str(out_dir))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hifam", *argv], cwd=ROOT, env=child_env(),
        capture_output=True, encoding="utf-8", timeout=remaining(deadline),
    )
    seconds = time.perf_counter() - t0
    return StepResult(step.name, proc.returncode, proc.stdout, seconds, out_files(out_dir))


def fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    path.mkdir()
    return path


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def measure_end_to_end(workload: Workload, seconds: float, work: Path,
                       deadline: float, ops: Ops) -> dict[str, float]:
    setup_step = Step("setup", ("--help",), check_help)
    setup_dir = fresh_dir(work, "setup")
    setup_times, walls = [], []
    start = time.perf_counter()
    while True:
        for _ in range(SETUP_CALLS_PER_PASS):
            res = run_cli(setup_step, setup_dir, deadline)
            ops.record(setup_step.check(res))
            setup_times.append(res.seconds)
        out_dir = fresh_dir(work, f"pass{len(walls)}")
        wall = 0.0
        for step in workload.steps:
            res = run_cli(step, out_dir, deadline)
            ops.record(step.check(res))
            wall += res.seconds
        walls.append(wall)
        shutil.rmtree(out_dir)
        # Another pass starts only while half of one (at the mean so far) still
        # fits, so a run ends within about half a pass of --seconds either way.
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(walls) >= seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(walls),
        "peak_rss_mb": peak_kb / 1024.0,
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


def start_pass(workload: Workload, mode: str, jobs: int, work: Path, label: str,
               steps: str | None = None) -> tuple[subprocess.Popen, Path, Path]:
    out_dir = fresh_dir(work, label)
    record = work / f"{label}.json"
    cmd = [sys.executable, str(TRACER), "--workload", workload.name, "--mode", mode,
           "--jobs", str(jobs), "--dir", str(out_dir), "--out", str(record)]
    if steps:
        cmd += ["--steps", steps]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env())
    return proc, out_dir, record


def finish_passes(started: list, deadline: float) -> list[dict]:
    """Wait for child passes; kill every one still running on any failure."""
    records = []
    try:
        for proc, out_dir, record in started:
            code = proc.wait(timeout=remaining(deadline))
            if code != 0:
                raise RuntimeError(f"in-process pass exited with {code}")
            with open(record, encoding="ascii") as fh:
                rec = json.load(fh)
            rec["dir"] = str(out_dir)
            rec["files"] = out_files(out_dir)
            records.append(rec)
    finally:
        for proc, _, _ in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return records


def check_pass(workload: Workload, rec: dict, ops: Ops) -> None:
    steps = {s.name: s for s in workload.steps}
    for r in rec["steps"]:
        res = StepResult(r["step"], r["code"], r["stdout"], r["seconds"], rec["files"])
        ops.record(steps[r["step"]].check(res))


def outputs(rec: dict) -> dict:
    """What a pass produced, with its private directory name taken out."""
    return {
        "stdout": {r["step"]: r["stdout"].replace(rec["dir"], DIR) for r in rec["steps"]},
        "files": rec["files"],
    }


def counts(rec: dict) -> dict:
    """Every deterministic count of a traced pass."""
    out: dict[str, int] = {}
    for agg in rec["aggregates"]:
        for key in ("calls", "hits"):
            out[f"{agg['name']}.{key}"] = out.get(f"{agg['name']}.{key}", 0) + agg[key]
    for span in rec["spans"]:
        out[f"{span['name']}.spans"] = out.get(f"{span['name']}.spans", 0) + 1
        for key, value in span["counters"].items():
            out[f"{span['name']}.{key}"] = out.get(f"{span['name']}.{key}", 0) + value
    return out


def span_seconds(rec: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in rec["spans"] if s["name"] == name)


def layer_metrics(workload: Workload, traced: dict, untraced: dict,
                  pool: dict | None) -> dict[str, float]:
    spans = traced["spans"]
    child_s: dict[int, float] = {}
    for s in spans:
        child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
    for agg in traced["aggregates"]:
        child_s[agg["parent"]] = child_s.get(agg["parent"], 0.0) + agg["seconds"]

    def self_s(name: str) -> float:
        return sum(s["end"] - s["start"] - child_s.get(s["id"], 0.0)
                   for s in spans if s["name"] == name)

    def leaf(name: str) -> tuple[int, float, int]:
        aggs = [a for a in traced["aggregates"] if a["name"] == name]
        return (sum(a["calls"] for a in aggs), sum(a["seconds"] for a in aggs),
                sum(a["hits"] for a in aggs))

    c = counts(traced)
    m: dict[str, float] = {f"cli.{name}_s": 0.0 for name in ("search", "verify", "construct")}
    for step in untraced["steps"]:
        m[f"cli.{step['step']}_s"] = step["seconds"]
    key_calls, m["graphs.canonical_key.s"], _ = leaf("graphs.canonical_key")
    m["graphs.canonical_key.calls"] = key_calls
    for name in ("enumeration.connected_graphs", "clique.build_compatibility",
                 "clique.max_clique", "construct.verify_intersecting",
                 "construct.multipartite_family", "search.search_hosts",
                 "search.write_records", "search.load_records", "search.verify_records"):
        m[f"{name}.s"] = span_seconds(traced, name)
    for name in ("enumeration.connected_graphs", "clique.build_compatibility",
                 "construct.verify_intersecting"):
        m[f"{name}.self_s"] = self_s(name)
    m["enumeration.hosts"] = c.get("enumeration.connected_graphs.hosts", 0)
    m["enumeration.classes_per_key_call"] = m["enumeration.hosts"] / key_calls if key_calls else 0.0
    m["clique.candidates"] = c.get("clique.build_compatibility.candidates", 0)
    m["clique.compat_edges"] = c.get("clique.build_compatibility.compat_edges", 0)
    per_host_ms = [1000.0 * (s["end"] - s["start"]) for s in spans
                   if s["name"] == "clique.max_clique"]
    m["clique.max_clique.host_p50_ms"] = statistics.median(per_host_ms) if per_host_ms else 0.0
    m["clique.max_clique.host_max_ms"] = max(per_host_ms, default=0.0)
    for name in ("contains_p4", "contains_subgraph", "contains_multipartite"):
        calls, secs, hits = leaf(f"detect.{name}")
        m[f"detect.{name}.calls"] = calls
        m[f"detect.{name}.s"] = secs
        m[f"detect.{name}.hit_ratio"] = hits / calls if calls else 0.0
    verify_ids = {s["id"] for s in spans if s["name"] == "construct.verify_intersecting"}
    m["construct.pairs_checked"] = sum(a["calls"] for a in traced["aggregates"]
                                       if a["parent"] in verify_ids)
    m["construct.members"] = c.get("construct.multipartite_family.members", 0)
    m["search.records_bytes"] = c.get("search.write_records.bytes", 0)

    def solve_s(rec: dict) -> float:
        return (span_seconds(rec, "search.search_hosts")
                - span_seconds(rec, "enumeration.connected_graphs"))

    serial = solve_s(untraced)
    parallel = solve_s(pool) if pool is not None else serial
    jobs = workload.pool_jobs if pool is not None else 1
    m["search.solve_serial_s"] = serial
    m["search.parallel_efficiency"] = serial / (jobs * parallel) if parallel > 0 else 0.0
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.untraced_wall_s"] = untraced["wall_s"]
    m["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return m


def measure_layers(workload: Workload, work: Path, deadline: float,
                   ops: Ops) -> dict[str, float]:
    pool = None
    if workload.pool_jobs > 1:
        pool_steps = ",".join(s.name for s in workload.steps if "--jobs" in s.argv)
        [pool] = finish_passes(
            [start_pass(workload, "light", workload.pool_jobs, work, "pool", pool_steps)],
            deadline)
    traced_a, untraced = finish_passes(
        [start_pass(workload, "full", 1, work, "traced_a"),
         start_pass(workload, "light", 1, work, "untraced")], deadline)
    [traced_b] = finish_passes([start_pass(workload, "full", 1, work, "traced_b")],
                               deadline)

    for rec in (traced_a, untraced, traced_b):
        check_pass(workload, rec, ops)
    reference = outputs(traced_a)
    for rec in [untraced, traced_b] + ([pool] if pool else []):
        got = outputs(rec)
        same = (got["files"] == reference["files"] and all(
            reference["stdout"][step] == text for step, text in got["stdout"].items()))
        ops.record([] if same else [f"{rec['mode']} pass with --jobs {rec['jobs']}: "
                                    f"outputs differ from traced pass A"])
    ca, cb = counts(traced_a), counts(traced_b)
    ops.record([] if ca == cb else [
        "traced counts differ between passes: "
        + ", ".join(f"{k}: {ca.get(k)} vs {cb.get(k)}"
                    for k in sorted(set(ca) | set(cb)) if ca.get(k) != cb.get(k))])
    return layer_metrics(workload, traced_a, untraced, pool)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(workload: Workload, seconds: float, trace: bool) -> tuple[dict, Ops]:
    deadline = time.perf_counter() + BUDGET_S
    ops = Ops()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if trace:
            values, units = measure_layers(workload, work, deadline, ops), PER_LAYER
        else:
            values, units = (measure_end_to_end(workload, seconds, work, deadline, ops),
                             END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, ops


def main(argv: list[str] | None = None) -> int:
    workloads = build_workloads()
    parser = argparse.ArgumentParser(description="hifam benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded; the exhaustive inputs do not depend on it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "hifam" / "__init__.py").is_file():
        print(f"error: no hifam sources under {SRC}", file=sys.stderr)
        return 2

    workload = workloads[args.workload]
    print(f"workload {workload.name} (seed {args.seed}, trace {args.trace}): {workload.why}")
    metrics, ops = run(workload, args.seconds, bool(args.trace))
    for problem in ops.problems:
        print(f"FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'ops_failed':<42} {ops.failed / ops.attempted:>14.6g} share "
          f"({ops.failed} of {ops.attempted})")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
