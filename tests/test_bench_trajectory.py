"""``BENCH_1.json``: the recorded benchmark trajectory, one entry per change
that claimed or recorded a performance figure.

Each entry names a workload and end-to-end metrics of ``BENCHMARK.json``
with the parent's and the change's medians, so the file stays readable
against the benchmark that produced it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_trajectory_entries_name_benchmark_workloads_and_metrics():
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    trajectory = json.loads((REPO / "BENCH_1.json").read_text())
    entries = trajectory["entries"]
    assert entries
    for entry in entries:
        assert entry["workload"] in workloads
        assert set(entry["env"]) == {"python", "numpy", "scipy", "nproc", "cpu"}
        assert entry["metrics"]
        for name, figures in entry["metrics"].items():
            assert name in units
            assert figures["unit"] == units[name]
            assert all(math.isfinite(figures[side]) and figures[side] > 0 for side in ("parent", "change"))
