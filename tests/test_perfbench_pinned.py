"""Full-size benchmark subjects against their pinned bundle digests.

``perfbench/pinned.json`` holds the content digest of every benchmark
bundle. Running one canonical-grid subject of a workload through the
benchmark's own set-up and checks makes any change to an output byte fail
here, not only in the benchmark. ``ensemble`` covers five candidates,
simple fusion and metrics; ``synthesis-native`` the trilinear image warp to
the native grid; ``single-native`` the nearest-neighbour mask warp.
"""

from __future__ import annotations

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _check_variant_0(workload_name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import check
    import scenario
    import worker

    workload = scenario.WORKLOADS[workload_name]
    subject = scenario.write_subject(tmp_path / "subjects", workload, 0)
    doc = {
        "subject_id": subject.subject_id,
        "directory": str(subject.directory),
        "outputs": [str(p) for p in subject.outputs],
    }
    plan = {
        "task": workload.task,
        "native": workload.native,
        "algorithm_ids": workload.algorithm_ids,
        "warmup": doc,
        "subjects": [],
    }
    _, run_subject = worker._setup(plan)
    _, _, bundle = run_subject(doc, tmp_path / "out")

    pinned = check.load_pins()[workload_name]["0"]
    digest, problems = check.check_bundle(Path(bundle), workload, subject.outputs, pinned)
    assert problems == []
    assert digest == pinned


def test_ensemble_variant_0_matches_its_pinned_digest(tmp_path, monkeypatch):
    _check_variant_0("ensemble", tmp_path, monkeypatch)


@pytest.mark.parametrize("workload_name", ["synthesis-native", "single-native"])
def test_native_variant_0_matches_its_pinned_digest(workload_name, tmp_path, monkeypatch):
    _check_variant_0(workload_name, tmp_path, monkeypatch)
