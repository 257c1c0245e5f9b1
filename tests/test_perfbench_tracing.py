"""The benchmark's traced run wraps names the pipeline looks up at call time.

``perfbench/tracing.py`` replaces module globals of ``brainorch.pipeline``
and ``brainorch.validation`` with traced calls. The wrapping is global to a
process, so it runs in a subprocess here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_SCRIPT = """
import collections, json, sys, tempfile
from pathlib import Path

import tracing
from brainorch.pipeline import PipelineConfig, discover_subject_inputs, run_inference, run_synthesis
from brainorch.registry import TaskId, load_catalog
from fixtures_e2e import build_mock_engine, write_catalog_override, write_subject
from test_pipeline import add_native_context, inpaint_config

engine = build_mock_engine(max_concurrent_jobs=2)
tracer = tracing.Tracer()
tracer.install(engine)
if sys.argv[1] == "install":
    sys.exit(0)
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    subj = write_subject(tmp, "sub-01", task=TaskId.GLI_PRE)
    add_native_context(subj, "sub-01")
    run_inference(
        discover_subject_inputs(subj, TaskId.GLI_PRE),
        PipelineConfig(
            task=TaskId.GLI_PRE,
            engine=engine,
            output_dir=tmp / "seg",
            algorithm_selectors=("mock-gli-1", "mock-gli-2", "mock-gli-3"),
            catalog=load_catalog(write_catalog_override(tmp / "catalog.json")),
            native_space_output=True,
        ),
    )
    synth = write_subject(tmp, "sub-02", task=TaskId.INPAINT)
    add_native_context(synth, "sub-02")
    run_synthesis(
        discover_subject_inputs(synth, TaskId.INPAINT),
        inpaint_config(tmp, native_space_output=True),
    )
print(json.dumps(collections.Counter(span["name"] for span in tracer.spans)))
"""


def _run(mode: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(str(REPO / d) for d in ("perfbench", "src", "tests"))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", _SCRIPT, mode],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_tracer_installs_on_the_pipeline_names():
    proc = _run("install")
    assert proc.returncode == 0, proc.stderr


def test_traced_runs_record_every_layer():
    proc = _run("run")
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    assert calls["geometry.inverse_warp"] == 2  # one mask, one image
    assert calls["nifti.write_volume"] == 3  # consensus, native mask, native image
    assert calls["validation.validate_subject"] == 2
    # 4 + 2 inputs once each, 3 masks, 1 image; the native reference of each
    # run is read for its grid only (nifti.read_grid), never decoded
    assert calls["nifti.read_volume"] == 10
    for name in ("fusion.CandidateSet", "fusion.fuse", "metrics.compute_metric_report",
                 "metrics.label", "runtime.pull_image", "runtime.run_job"):
        assert calls.get(name, 0) > 0, name
    # Surface distances come from KD queries; the consensus is labelled once
    # and each of the 3 candidates once.
    assert calls.get("metrics.edt", 0) == 0
    assert calls["metrics.label"] == 1 + 3
