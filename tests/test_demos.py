"""The README's quick demos run to completion and print their headlines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


HEADLINES = {
    "christofides_family.py": ["density: 17/2^7  (trivial bound: 1/2^3)"],
    "host_search.py": ["hosts solved: 41", "best density: 17/2^7"],
    "multipartite_bounds.py": ["full pairwise check of the K_{1,2} instance (5 members): ok"],
}


@pytest.mark.parametrize("script", sorted(HEADLINES))
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(line in lines for line in HEADLINES[script])
