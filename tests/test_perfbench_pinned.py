"""One full-size benchmark subject against its pinned bundle digest.

``perfbench/pinned.json`` holds the content digest of every benchmark
bundle. Running one canonical-grid ``ensemble`` subject (five candidates,
simple fusion, metrics) through the benchmark's own set-up and checks makes
any change to an output byte fail here, not only in the benchmark.
"""

from __future__ import annotations

from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_ensemble_variant_0_matches_its_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import check
    import scenario
    import worker

    workload = scenario.WORKLOADS["ensemble"]
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

    pinned = check.load_pins()["ensemble"]["0"]
    digest, problems = check.check_bundle(Path(bundle), workload, subject.outputs, pinned)
    assert problems == []
    assert digest == pinned
