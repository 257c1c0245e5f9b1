"""End-to-end orchestration against the scripted engine: bundle layout,
fusion wiring, failure degradation, and the synthesis flow."""

from __future__ import annotations

import errno
import gzip
import hashlib
import itertools
import json
import os
import re
import struct
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from brainorch import pipeline, validation
from brainorch.errors import (
    AllJobsFailed,
    EngineUnreachable,
    GridMismatch,
    IoFailure,
    OutputCollision,
    UnknownTask,
    ValidationFailed,
)
from brainorch.fusion import METHOD_SIMPLE, CandidateSet
from brainorch.geometry import GridSpec, inverse_warp_image_to_native, inverse_warp_to_native
from brainorch.nifti import Volume, read_volume, write_mask, write_volume
from brainorch.pipeline import (
    PipelineConfig,
    canonical_json,
    discover_subject_inputs,
    manifest_digest,
    run_inference,
    run_synthesis,
)
from brainorch.registry import TaskId, get_task_spec, load_catalog
from brainorch.runtime import JobResult, MockBehavior, MockEngine

from fixtures_e2e import (
    E2E_ALGOS,
    E2E_SHAPE,
    UNDECODABLE_SIDECARS,
    add_native_context,
    behaviors_payload,
    catalog_override_payload,
    e2e_affine,
    expected_candidate_masks,
    fail_first_copy_into,
    fake_digest,
    set_vox_offset,
    write_catalog_override,
    write_subject,
)
from oracles import brute_dice, brute_majority, shift_mask
from test_geometry import WARP_CASES, warp_case
from test_nifti import draw_damage

ALGO_IDS = tuple(algo_id for algo_id, _, _ in E2E_ALGOS)
GLI_CODES = (3, 1, 2)  # ET, NETC, SNFH in priority order


def engine_with(overrides: dict | None = None, max_concurrent_jobs: int = 4, **engine_kw) -> MockEngine:
    """Stock scripted engine with per-image behavior field overrides."""
    overrides = overrides or {}
    engine = MockEngine(max_concurrent_jobs=max_concurrent_jobs, **engine_kw)
    for image, raw in behaviors_payload()["images"].items():
        fields = {"content_digest": raw["content_digest"], "outputs": tuple(raw["outputs"])}
        fields.update(overrides.get(image, {}))
        engine.register(image, MockBehavior(**fields))
    return engine


def gli_config(tmp_path, engine, catalog, **kw) -> PipelineConfig:
    kw.setdefault("algorithm_selectors", ALGO_IDS)
    return PipelineConfig(
        task=TaskId.GLI_PRE,
        engine=engine,
        output_dir=tmp_path / "bundles",
        catalog=catalog,
        **kw,
    )


def expected_majority() -> np.ndarray:
    masks = [expected_candidate_masks()[a] for a in ALGO_IDS]
    return brute_majority(masks, GLI_CODES, GLI_CODES)


# -- segmentation happy path -----------------------------------------------------


def test_golden_run_matches_majority_oracle(tmp_path, gli_subject, mock_engine, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, mock_engine, override_catalog))

    consensus = read_volume(bundle.consensus_path)
    np.testing.assert_array_equal(consensus.data, expected_majority())
    np.testing.assert_allclose(consensus.affine, e2e_affine())
    assert consensus.data.dtype == np.uint8

    # every candidate is preserved verbatim under its algorithm id
    assert set(bundle.per_algorithm_paths) == set(ALGO_IDS)
    for algo_id, path in bundle.per_algorithm_paths.items():
        assert path.name == f"{algo_id}.nii.gz"
        np.testing.assert_array_equal(
            read_volume(path).data, expected_candidate_masks()[algo_id]
        )

    assert bundle.bundle_dir == tmp_path / "bundles" / "sub-01" / "gli-pre"
    assert bundle.fusion_metadata_path.is_file()
    assert bundle.metrics_path.is_file()
    assert bundle.manifest_path.is_file()
    assert not (bundle.bundle_dir / "work").exists()


def test_manifest_contents(tmp_path, gli_subject, mock_engine, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, mock_engine, override_catalog))
    manifest = json.loads(bundle.manifest_path.read_text())

    assert manifest["schema_version"] == 1
    assert manifest["subject"] == "sub-01"
    assert manifest["task"] == "gli-pre"
    assert manifest["fusion"]["method"] == "majority"
    assert sorted(manifest["inputs"]) == ["FLA", "T1c", "T1n", "T2w"]

    # staged input hashes match the source files byte for byte
    t1c_src = gli_subject / "sub-01-t1c.nii.gz"
    assert manifest["inputs"]["T1c"]["sha256"] == hashlib.sha256(t1c_src.read_bytes()).hexdigest()

    rows = {row["id"]: row for row in manifest["algorithms"]}
    assert set(rows) == set(ALGO_IDS)
    assert all(rows[a]["status"] == "succeeded" and rows[a]["candidate"] for a in ALGO_IDS)

    # the content digest restates the file hash map and skips the manifest itself
    files = {}
    for path in sorted(bundle.bundle_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            rel = path.relative_to(bundle.bundle_dir).as_posix()
            files[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert manifest["files"] == files
    assert manifest["content_digest"] == hashlib.sha256(
        json.dumps(files, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert manifest["content_digest"] == manifest_digest(files)

    # desk-scale grids are flagged but never fatal
    assert manifest["validation"]["verdict"] == "pass"
    assert any(w.startswith("ATLAS_GRID_DEVIATION") for w in manifest["warnings"])


def test_metrics_report_per_candidate(tmp_path, gli_subject, mock_engine, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, mock_engine, override_catalog))
    doc = json.loads(bundle.metrics_path.read_text())
    assert doc["reference"] == "consensus"
    assert set(doc["per_candidate"]) == set(ALGO_IDS)
    consensus = expected_majority()
    for algo_id in ALGO_IDS:
        report = doc["per_candidate"][algo_id]
        assert set(report["per_label"]) == {"ET", "NETC", "SNFH"}
        got = report["per_label"]["ET"]["dsc"]
        want = brute_dice(consensus == 3, expected_candidate_masks()[algo_id] == 3)
        assert got == pytest.approx(want, abs=1e-12)


def test_bundle_digest_is_parallelism_invariant(tmp_path, gli_subject, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    digests = []
    consensus_bytes = []
    for jobs in (1, 3):
        out = tmp_path / f"run{jobs}"
        bundle = run_inference(
            inputs,
            gli_config(out, engine_with(), override_catalog, parallel_jobs=jobs),
        )
        digests.append(bundle.manifest["content_digest"])
        consensus_bytes.append(bundle.consensus_path.read_bytes())
    assert digests[0] == digests[1]
    assert consensus_bytes[0] == consensus_bytes[1]


def test_a_manifest_with_every_kind_of_rejection_is_parallelism_invariant(tmp_path, gli_subject):
    # Five outputs that each end differently, between the three good ones.
    def unreadable(spec):
        (Path(spec.output_dir) / "seg.nii.gz").write_bytes(b"not a NIfTI file")

    def off_grid(spec):
        write_mask(Volume(data=np.ones((8, 8, 8), dtype=np.uint8), affine=np.eye(4)), Path(spec.output_dir) / "seg.nii.gz")

    stray_label = {
        "path": "seg.nii.gz",
        "generator": "label_blobs",
        "like": "*-t1c.nii*",
        "blobs": [{"label": 9, "center": [16, 16, 10], "radius": 4}],
    }
    odd = {
        "mock-failed": {"exit_code": 1, "stderr": "out of memory"},
        "mock-crash": {"fail_engine": True},
        "mock-stray": {"outputs": (stray_label,)},
        "mock-off-grid": {"outputs": (off_grid,)},
        "mock-unreadable": {"outputs": (unreadable,)},
    }
    payload = catalog_override_payload()
    for rank, algo_id in enumerate(odd, start=4):
        payload["algorithms"].append(
            {**payload["algorithms"][0], "id": algo_id, "rank": rank, "team_reference": f"{algo_id} stub",
             "image_reference": f"example/{algo_id}@sha256:{fake_digest(algo_id)}"}
        )
    (tmp_path / "catalog.json").write_text(json.dumps(payload))
    catalog = load_catalog(tmp_path / "catalog.json")
    selectors = ("mock-failed", "mock-gli-1", "mock-crash", "mock-stray", "mock-gli-2", "mock-off-grid",
                 "mock-unreadable", "mock-gli-3")
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    manifests = []
    for jobs in (1, 3):
        engine = engine_with()
        for algo_id, fields in odd.items():
            engine.register(f"example/{algo_id}", MockBehavior(content_digest="sha256:" + fake_digest(algo_id), **fields))
        config = gli_config(tmp_path / f"run{jobs}", engine, catalog, algorithm_selectors=selectors, parallel_jobs=jobs)
        manifest = run_inference(inputs, config).manifest
        assert manifest["parallel_jobs"] == jobs
        del manifest["created_at"], manifest["parallel_jobs"]
        manifests.append(manifest)
    assert [row["id"] for row in manifests[0]["algorithms"]] == list(selectors)
    assert [w.split(":")[0] for w in manifests[0]["warnings"] if w.startswith("mock-")] == list(odd)
    assert manifests[0] == manifests[1]


def test_a_finished_job_is_vetted_while_the_next_container_runs(tmp_path, gli_subject, override_catalog, monkeypatch):
    # One container at a time and two threads: the thread whose job ended
    # vets its candidate while the other thread's job runs.
    first_mask = expected_candidate_masks()["mock-gli-1"]
    first_vetted = threading.Event()
    real_vet = pipeline.vet_candidate

    def vet(data, *args):
        if np.array_equal(data, first_mask):
            first_vetted.set()
        return real_vet(data, *args)

    monkeypatch.setattr(pipeline, "vet_candidate", vet)
    engine = engine_with(max_concurrent_jobs=1)
    real_run_job = engine.run_job
    seen_by_job_2 = []

    def run_job(spec):
        result = real_run_job(spec)
        if spec.image_reference.startswith("example/mock-gli-2@"):
            seen_by_job_2.append(first_vetted.wait(timeout=10))
        return result

    engine.run_job = run_job
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    overlapped = run_inference(inputs, gli_config(tmp_path / "run2", engine, override_catalog, parallel_jobs=2))
    assert seen_by_job_2 == [True], "candidate 1 was not vetted before job 2 ended"
    assert engine.max_concurrent_observed == 1
    serial = run_inference(inputs, gli_config(tmp_path / "run1", engine_with(), override_catalog, parallel_jobs=1))
    assert overlapped.manifest["content_digest"] == serial.manifest["content_digest"]


def test_a_candidate_declaring_another_grid_is_refused_before_its_voxels_are_read(tmp_path):
    # A 2³ mask's header declaring n³ uint8, over a level-1 gzip stream of
    # that many zeros: 600³ (216 MB, under 1 MB on disk), and 400³ (64 MB,
    # 0.28 MB) with a NaN in srow_x, an affine the reader refuses.
    small = write_mask(Volume(data=np.zeros((2, 2, 2), dtype=np.uint8), affine=e2e_affine()), tmp_path / "small.nii")
    grid = GridSpec((96, 96, 60), e2e_affine())
    one_input_volume = 96 * 96 * 60  # bytes of a uint8 mask on the input grid
    entry = SimpleNamespace(id="mock-huge", image_reference="example/mock-huge", requires_gpu=False, shm_bytes=0,
                            timeout_seconds=60.0, input_mount_path="/in", output_mount_path="/out")
    for n, srow_x, warning in [
        (600, (1.0, 0.0, 0.0, -16.0),
         "mock-huge: rejected candidate: shape (600, 600, 600) does not match the input grid (96, 96, 60)"),
        (400, (float("nan"), 0.0, 0.0, -16.0),
         "mock-huge: unreadable mask seg.nii.gz: work/jobs/mock-huge/seg.nii.gz: header affine must be finite"),
    ]:
        out_dir = tmp_path / f"bundle-{n}" / "work" / "jobs" / "mock-huge"
        out_dir.mkdir(parents=True)
        header = bytearray(small.read_bytes()[:352])
        struct.pack_into("<3h", header, 42, n, n, n)  # dim[1..3]
        struct.pack_into("<4f", header, 280, *srow_x)
        path = out_dir / "seg.nii.gz"
        with gzip.GzipFile(path, "wb", compresslevel=1, mtime=0) as gz:
            gz.write(header)
            zeros = bytes(1 << 20)
            for _ in range(n**3 >> 20):
                gz.write(zeros)
            gz.write(bytes(n**3 % (1 << 20)))
        result = JobResult("example/mock-huge", "succeeded", 0, 0.0, "", (path,))
        engine = SimpleNamespace(pull_image=lambda image: None, run_job=lambda spec: result)
        run = pipeline._Run(SimpleNamespace(subject_id="sub-01"), SimpleNamespace(task_id=TaskId.GLI_PRE),
                            SimpleNamespace(engine=engine), tmp_path / f"bundle-{n}", tmp_path, grid, [], None, map)
        tracemalloc.start()
        try:
            with pytest.raises(AllJobsFailed):
                pipeline._run_and_read(run, [entry], "seg", "mask", None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(run.warnings) == 1 and run.warnings[0].startswith(warning), run.warnings
        assert peak <= one_input_volume, f"{n}³: peak {peak} bytes"


def test_the_run_grid_is_the_grid_validation_compares_against(tmp_path, override_catalog, mock_engine):
    # FLA's origin sits 0.0008 mm from T1c's, inside the grid tolerance.
    subj = write_subject(tmp_path, "sub-01")
    inputs = discover_subject_inputs(subj, TaskId.GLI_PRE)
    nudged = e2e_affine()
    nudged[0, 3] += 0.0008
    fla = read_volume(inputs.files["FLA"])
    write_volume(Volume(data=fla.data, affine=nudged), inputs.files["FLA"])
    bundle = run_inference(inputs, gli_config(tmp_path, mock_engine, override_catalog))
    np.testing.assert_array_equal(read_volume(bundle.consensus_path).affine, read_volume(inputs.files["T1c"]).affine)


def test_a_job_whose_only_nifti_has_another_name_gives_the_candidate(tmp_path, gli_subject, override_catalog):
    mask = expected_candidate_masks()["mock-gli-1"]

    def renamed(spec):
        write_mask(Volume(data=mask, affine=e2e_affine()), Path(spec.output_dir) / "prediction.nii.gz")
        (Path(spec.output_dir) / "log.txt").write_text("done\n")

    engine = engine_with({"example/mock-gli-1": {"outputs": (renamed,)}})
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, engine, override_catalog))
    assert set(bundle.per_algorithm_paths) == set(ALGO_IDS)
    np.testing.assert_array_equal(read_volume(bundle.per_algorithm_paths["mock-gli-1"]).data, mask)
    assert not any(w.startswith("mock-gli-1") for w in bundle.manifest["warnings"])


def test_single_algorithm_skips_fusion_and_metrics(tmp_path, gli_subject, mock_engine, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    config = gli_config(
        tmp_path, mock_engine, override_catalog, algorithm_selectors=("mock-gli-2",)
    )
    bundle = run_inference(inputs, config)
    np.testing.assert_array_equal(
        read_volume(bundle.consensus_path).data, expected_candidate_masks()["mock-gli-2"]
    )
    assert bundle.metrics_path is None
    assert bundle.manifest["fusion"]["method"] == "identity"
    fusion_doc = json.loads(bundle.fusion_metadata_path.read_text())
    assert fusion_doc["candidates"] == ["mock-gli-2"]


def test_simple_fusion_method_is_wired_through(tmp_path, gli_subject, mock_engine, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    config = gli_config(tmp_path, mock_engine, override_catalog, fusion_method=METHOD_SIMPLE)
    bundle = run_inference(inputs, config)
    assert bundle.manifest["fusion"]["method"] == "simple"
    assert bundle.manifest["fusion"]["iterations_run"] >= 1
    assert read_volume(bundle.consensus_path).data.any()


def test_latest_winner_default_selector(tmp_path, gli_subject, mock_engine, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    config = PipelineConfig(
        task="gli-pre",
        engine=mock_engine,
        output_dir=tmp_path / "bundles",
        catalog=override_catalog,
    )
    bundle = run_inference(inputs, config)
    # rank 1 of the newest year in the override catalog
    assert list(bundle.per_algorithm_paths) == ["mock-gli-1"]


def test_duplicate_selectors_collapse(tmp_path, gli_subject, mock_engine, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    config = gli_config(
        tmp_path,
        mock_engine,
        override_catalog,
        algorithm_selectors=("mock-gli-1", "latest-winner", "mock-gli-1"),
    )
    bundle = run_inference(inputs, config)
    assert list(bundle.per_algorithm_paths) == ["mock-gli-1"]


def test_parallel_jobs_bound_the_engine_load(tmp_path, gli_subject, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    slow = {f"example/{a}": {"sleep_s": 0.05} for a in ALGO_IDS}
    engine = engine_with(slow)
    run_inference(inputs, gli_config(tmp_path, engine, override_catalog, parallel_jobs=2))
    assert engine.containers_created == 3
    assert engine.max_concurrent_observed <= 2
    assert engine.live_containers == 0


def test_keep_intermediate_retains_work_tree(tmp_path, gli_subject, mock_engine, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    config = gli_config(tmp_path, mock_engine, override_catalog, keep_intermediate=True)
    bundle = run_inference(inputs, config)
    assert (bundle.bundle_dir / "work" / "input" / "sub-01-t1c.nii.gz").is_file()
    for algo_id in ALGO_IDS:
        assert (bundle.bundle_dir / "work" / "jobs" / algo_id / "seg.nii.gz").is_file()


# -- segmentation failure handling -------------------------------------------------


def test_validation_failure_aborts_before_any_job(tmp_path, override_catalog):
    subj = write_subject(tmp_path, "sub-02", drop=("T2w",))
    inputs = discover_subject_inputs(subj, TaskId.GLI_PRE)
    engine = engine_with()
    with pytest.raises(ValidationFailed) as excinfo:
        run_inference(inputs, gli_config(tmp_path, engine, override_catalog))
    assert any(f.code == "MISSING_MODALITY" for f in excinfo.value.report.findings)
    assert engine.containers_created == 0
    assert not (tmp_path / "bundles" / "sub-02").exists()


def test_an_input_without_a_nifti_suffix_fails_validation_unread(tmp_path, gli_subject, override_catalog, monkeypatch):
    # A valid NIfTI under another name: staging could not name it for the
    # containers, so validation refuses it without decoding it.
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    renamed = gli_subject / "t1c-copy.img"
    inputs.files["T1c"].rename(renamed)
    inputs.files["T1c"] = renamed
    decoded = []
    real_read = validation.read_volume
    monkeypatch.setattr(validation, "read_volume", lambda path: decoded.append(Path(path).name) or real_read(path))
    engine = engine_with()
    with pytest.raises(ValidationFailed) as excinfo:
        run_inference(inputs, gli_config(tmp_path, engine, override_catalog))
    errors = [f for f in excinfo.value.report.findings if f.severity == "error"]
    assert [(f.code, f.message) for f in errors] == [
        ("UNREADABLE_INPUT", "T1c (t1c-copy.img): not a .nii or .nii.gz file")
    ]
    assert "t1c-copy.img" not in decoded and len(decoded) == 3
    assert engine.containers_created == 0
    assert not (tmp_path / "bundles" / "sub-01").exists()


def test_one_failed_job_degrades_to_a_warning(tmp_path, gli_subject, override_catalog):
    engine = engine_with({"example/mock-gli-2": {"exit_code": 1, "outputs": ()}})
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, engine, override_catalog))

    assert set(bundle.per_algorithm_paths) == {"mock-gli-1", "mock-gli-3"}
    survivors = [expected_candidate_masks()[a] for a in ("mock-gli-1", "mock-gli-3")]
    np.testing.assert_array_equal(
        read_volume(bundle.consensus_path).data,
        brute_majority(survivors, GLI_CODES, GLI_CODES),
    )
    assert any("mock-gli-2" in w and "nonzero_exit" in w for w in bundle.manifest["warnings"])
    rows = {row["id"]: row for row in bundle.manifest["algorithms"]}
    assert rows["mock-gli-2"]["status"] == "nonzero_exit"
    assert "candidate" not in rows["mock-gli-2"]


def test_crashed_engine_for_one_job_degrades(tmp_path, gli_subject, override_catalog):
    engine = engine_with({"example/mock-gli-3": {"fail_engine": True}})
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, engine, override_catalog))
    assert set(bundle.per_algorithm_paths) == {"mock-gli-1", "mock-gli-2"}
    assert any("mock-gli-3" in w and "crashed" in w for w in bundle.manifest["warnings"])


def test_stray_label_candidate_is_rejected(tmp_path, gli_subject, override_catalog):
    bad_blob = {
        "outputs": (
            {
                "path": "seg.nii.gz",
                "generator": "label_blobs",
                "like": "*-t1c.nii*",
                "blobs": [{"label": 9, "center": [16, 16, 10], "radius": 4}],
            },
        )
    }
    engine = engine_with({"example/mock-gli-1": bad_blob})
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, engine, override_catalog))
    assert set(bundle.per_algorithm_paths) == {"mock-gli-2", "mock-gli-3"}
    assert any("outside the task's set" in w for w in bundle.manifest["warnings"])


def test_a_manifest_with_rejected_candidates_does_not_depend_on_the_output_directory(
    tmp_path, gli_subject, override_catalog
):
    def unreadable(spec):
        (Path(spec.output_dir) / "seg.nii.gz").write_bytes(b"not a NIfTI file")

    stray_label = {
        "path": "seg.nii.gz",
        "generator": "label_blobs",
        "like": "*-t1c.nii*",
        "blobs": [{"label": 9, "center": [16, 16, 10], "radius": 4}],
    }
    texts = []
    for name in ("run-a", "elsewhere/run-b"):
        engine = engine_with(
            {"example/mock-gli-1": {"outputs": (unreadable,)}, "example/mock-gli-2": {"outputs": (stray_label,)}}
        )
        config = gli_config(tmp_path / name, engine, override_catalog)
        bundle = run_inference(discover_subject_inputs(gli_subject, TaskId.GLI_PRE), config)
        text = bundle.manifest_path.read_text()
        assert str(config.output_dir) not in text
        assert "mock-gli-1: unreadable mask seg.nii.gz: work/jobs/mock-gli-1/seg.nii.gz: " in text
        assert set(bundle.per_algorithm_paths) == {"mock-gli-3"}
        manifest = json.loads(text)
        del manifest["created_at"]
        texts.append(json.dumps(manifest, indent=2, sort_keys=True))
    assert texts[0] == texts[1]


def test_off_grid_candidate_is_rejected(tmp_path, gli_subject, override_catalog):
    def tiny_mask(spec):
        vol = Volume(data=np.ones((8, 8, 8), dtype=np.uint8), affine=np.eye(4))
        write_mask(vol, Path(spec.output_dir) / "seg.nii.gz")

    engine = engine_with({"example/mock-gli-1": {"outputs": (tiny_mask,)}})
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, engine, override_catalog))
    assert set(bundle.per_algorithm_paths) == {"mock-gli-2", "mock-gli-3"}
    assert any("does not match the input grid" in w for w in bundle.manifest["warnings"])


def test_an_oblique_spacing_drift_is_refused_by_every_grid_check(tmp_path, override_catalog):
    affine = e2e_affine()
    affine[:3, :3] = np.column_stack(
        [np.ones(3) / np.sqrt(3), np.array([1, -1, 0]) / np.sqrt(2), np.array([1, 1, -2]) / np.sqrt(6)]
    )
    drifted = affine.copy()
    # Every entry moves by less than GRID_ATOL_MM; the column's length, the
    # spacing, moves by 0.00099 * sqrt(3) = 0.0017 mm.
    drifted[:3, 0] += 0.00099
    mask = np.zeros(E2E_SHAPE, dtype=np.uint8)
    mask[12:18, 12:18, 8:12] = 3

    with pytest.raises(GridMismatch, match=r"spacing \[1.0017, 1.0, 1.0\] does not match the set's grid"):
        CandidateSet.from_volumes([Volume(data=mask, affine=affine), Volume(data=mask, affine=drifted)])

    def drifted_mask(spec):
        write_mask(Volume(data=mask, affine=drifted), Path(spec.output_dir) / "seg.nii.gz")

    subj = write_subject(tmp_path, "sub-01", affine=affine)
    engine = engine_with({"example/mock-gli-1": {"outputs": (drifted_mask,)}})
    inputs = discover_subject_inputs(subj, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, engine, override_catalog))
    assert set(bundle.per_algorithm_paths) == {"mock-gli-2", "mock-gli-3"}
    assert (
        "mock-gli-1: rejected candidate: spacing [1.0017, 1.0, 1.0] does not match the input grid"
        in bundle.manifest["warnings"]
    )

    image = np.arange(np.prod(E2E_SHAPE), dtype=np.float32).reshape(E2E_SHAPE)
    write_volume(Volume(data=image, affine=drifted), inputs.files["FLA"])
    report = validation.validate_subject(inputs, get_task_spec(TaskId.GLI_PRE))
    assert [(f.code, f.message) for f in report.errors] == [
        (validation.SPACING_MISMATCH, "FLA spacing [1.0017, 1.0, 1.0] != T1c spacing [1.0, 1.0, 1.0]")
    ]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_candidate_with_a_non_finite_vox_offset_is_rejected(tmp_path, gli_subject, override_catalog, value):
    def bad_offset(spec):
        path = Path(spec.output_dir) / "seg.nii.gz"
        write_mask(Volume(data=expected_candidate_masks()["mock-gli-1"], affine=e2e_affine()), path)
        set_vox_offset(path, value)

    engine = engine_with({"example/mock-gli-1": {"outputs": (bad_offset,)}})
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, engine, override_catalog))
    assert set(bundle.per_algorithm_paths) == {"mock-gli-2", "mock-gli-3"}
    warnings = [w for w in bundle.manifest["warnings"] if w.startswith("mock-gli-1: unreadable")]
    assert len(warnings) == 1 and "vox_offset" in warnings[0] and "not finite" in warnings[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 while scaling a hostile slope
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_damaged_candidate_is_published_verbatim_or_warned_about_once(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("damaged")
    valid = write_mask(Volume(data=expected_candidate_masks()["mock-gli-1"], affine=e2e_affine()), tmp / "seg.nii.gz")
    blob = draw_damage(data.draw, gzip.decompress(valid.read_bytes()))

    def write_damaged(spec):
        (Path(spec.output_dir) / "seg.nii.gz").write_bytes(blob)

    engine = engine_with({"example/mock-gli-1": {"outputs": (write_damaged,)}})
    inputs = discover_subject_inputs(write_subject(tmp, "sub-01"), TaskId.GLI_PRE)
    catalog = load_catalog(write_catalog_override(tmp / "catalog.json"))
    bundle = run_inference(inputs, gli_config(tmp, engine, catalog))
    warnings = [w for w in bundle.manifest["warnings"] if w.startswith("mock-gli-1:")]
    if "mock-gli-1" in bundle.per_algorithm_paths:
        assert bundle.per_algorithm_paths["mock-gli-1"].read_bytes() == blob
        assert not warnings
    else:
        assert len(warnings) == 1, warnings
        assert set(bundle.per_algorithm_paths) == {"mock-gli-2", "mock-gli-3"}


def test_symlinked_output_is_rejected_and_never_copied(tmp_path, gli_subject, override_catalog):
    # A valid mask on the input grid, so only the link itself can reject it.
    host_file = tmp_path / "host" / "private.nii.gz"
    host_file.parent.mkdir()
    write_mask(Volume(data=expected_candidate_masks()["mock-gli-1"], affine=e2e_affine()), host_file)

    def plant_link(spec):
        (Path(spec.output_dir) / "seg.nii.gz").symlink_to(host_file)

    engine = engine_with({"example/mock-gli-1": {"outputs": (plant_link,)}})
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, engine, override_catalog))
    assert set(bundle.per_algorithm_paths) == {"mock-gli-2", "mock-gli-3"}
    assert "mock-gli-1: rejected candidate: seg.nii.gz is not a regular file" in bundle.manifest["warnings"]
    private = host_file.read_bytes()
    for path in bundle.bundle_dir.rglob("*"):
        assert not path.is_symlink()
        assert not path.is_file() or path.read_bytes() != private


def test_kept_work_tree_publishes_no_link_and_reads_no_target(tmp_path, gli_subject, override_catalog, monkeypatch):
    host_file = tmp_path / "host" / "private.nii.gz"
    host_file.parent.mkdir()
    write_mask(Volume(data=expected_candidate_masks()["mock-gli-1"], affine=e2e_affine()), host_file)

    def plant_link(spec):
        (Path(spec.output_dir) / "seg.nii.gz").symlink_to(host_file)

    opened = []
    real_open = open

    def recording_open(file, *args, **kwargs):
        if not isinstance(file, int):
            opened.append(Path(file).resolve())  # through any link, while it exists
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    engine = engine_with({"example/mock-gli-1": {"outputs": (plant_link,)}})
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, engine, override_catalog, keep_intermediate=True))
    monkeypatch.undo()

    assert host_file.resolve() not in opened
    assert "work/jobs/mock-gli-1/seg.nii.gz: not a regular file; left out of the bundle" in bundle.manifest["warnings"]
    assert "work/jobs/mock-gli-1/seg.nii.gz" not in bundle.manifest["files"]
    assert (bundle.bundle_dir / "work" / "jobs" / "mock-gli-2" / "seg.nii.gz").is_file()
    for path in bundle.bundle_dir.rglob("*"):
        assert not path.is_symlink()


def test_candidates_on_opposite_sides_of_the_grid_tolerance_fuse(tmp_path, gli_subject, override_catalog):
    def skewed(algo_id, scale):
        def write(spec):
            affine = e2e_affine()
            affine[0, 0] = scale  # within 1e-3 of the input grid, 1.8e-3 from the other
            vol = Volume(data=expected_candidate_masks()[algo_id], affine=affine)
            write_mask(vol, Path(spec.output_dir) / "seg.nii.gz")

        return write

    engine = engine_with(
        {
            "example/mock-gli-1": {"outputs": (skewed("mock-gli-1", 1.0009),)},
            "example/mock-gli-2": {"outputs": (skewed("mock-gli-2", 0.9991),)},
        }
    )
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, engine, override_catalog))
    assert set(bundle.per_algorithm_paths) == set(ALGO_IDS)
    consensus = read_volume(bundle.consensus_path)
    np.testing.assert_array_equal(consensus.data, expected_majority())
    np.testing.assert_array_equal(consensus.affine, e2e_affine())  # the input grid


def test_all_jobs_failed_leaves_no_bundle(tmp_path, gli_subject, override_catalog):
    overrides = {f"example/{a}": {"exit_code": 1, "outputs": ()} for a in ALGO_IDS}
    engine = engine_with(overrides)
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    with pytest.raises(AllJobsFailed, match="no algorithm produced"):
        run_inference(inputs, gli_config(tmp_path, engine, override_catalog))
    out = tmp_path / "bundles"
    assert not (out / "sub-01").exists()
    assert not list(out.glob(".staging-*"))  # staging cleaned up on abort


def test_unreachable_engine_propagates(tmp_path, gli_subject, override_catalog):
    overrides = {f"example/{a}": {"fail_engine": True} for a in ALGO_IDS}
    engine = engine_with(overrides)
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    with pytest.raises(EngineUnreachable):
        run_inference(inputs, gli_config(tmp_path, engine, override_catalog))


@pytest.mark.parametrize("parallel_jobs", [1, 2])
@pytest.mark.parametrize("selectors", [("mock-gli-1", "mock-gli-2"), ("mock-gli-2", "mock-gli-1")])
def test_jobs_that_all_fail_for_mixed_reasons_are_all_jobs_failed(
    tmp_path, gli_subject, override_catalog, selectors, parallel_jobs
):
    # Only a run whose every job found the engine unreachable re-raises that.
    engine = engine_with({
        "example/mock-gli-1": {"fail_engine": True},
        "example/mock-gli-2": {"exit_code": 1, "outputs": ()},
    })
    warnings = {
        "mock-gli-1": "mock-gli-1: engine crashed while running 'example/mock-gli-1' (scripted)",
        "mock-gli-2": "mock-gli-2: job nonzero_exit",
    }
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    config = gli_config(tmp_path, engine, override_catalog, algorithm_selectors=selectors, parallel_jobs=parallel_jobs)
    with pytest.raises(AllJobsFailed, match="no algorithm produced") as caught:
        run_inference(inputs, config)
    message = str(caught.value)
    assert message.index(warnings[selectors[0]]) < message.index(warnings[selectors[1]]), message
    assert not list((tmp_path / "bundles").glob(".staging-*"))


def test_output_collision_and_force(tmp_path, gli_subject, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    first = run_inference(inputs, gli_config(tmp_path, engine_with(), override_catalog))

    blocked = engine_with()
    with pytest.raises(OutputCollision, match="use force"):
        run_inference(inputs, gli_config(tmp_path, blocked, override_catalog))
    assert blocked.containers_created == 0  # collision detected before any work

    replaced = run_inference(
        inputs, gli_config(tmp_path, engine_with(), override_catalog, force=True)
    )
    assert replaced.bundle_dir == first.bundle_dir
    assert replaced.consensus_path.is_file()


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("blocker", ["sub-01/gli-pre", "sub-01"])
def test_a_file_on_the_bundle_path_is_a_collision(tmp_path, gli_subject, override_catalog, blocker, force):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    blocking = tmp_path / "bundles" / blocker
    blocking.parent.mkdir(parents=True)
    blocking.write_text("not a bundle")
    engine = engine_with()
    target = tmp_path / "bundles" / "sub-01" / "gli-pre"
    with pytest.raises(OutputCollision, match=f"output bundle {target}: {blocking} is not a directory"):
        run_inference(inputs, gli_config(tmp_path, engine, override_catalog, force=force))
    assert engine.containers_created == 0
    assert blocking.read_text() == "not a bundle"


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("blocker", ["sub-01/gli-pre", "sub-01"])
def test_a_dangling_link_on_the_bundle_path_is_a_collision(tmp_path, gli_subject, override_catalog, blocker, force):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    link = tmp_path / "bundles" / blocker
    link.parent.mkdir(parents=True)
    link.symlink_to(tmp_path / "missing")
    engine = engine_with()
    target = tmp_path / "bundles" / "sub-01" / "gli-pre"
    with pytest.raises(OutputCollision, match=re.escape(f"output bundle {target}: {link} is not a directory")):
        run_inference(inputs, gli_config(tmp_path, engine, override_catalog, force=force))
    assert engine.containers_created == 0
    assert link.is_symlink() and not (tmp_path / "missing").exists()
    assert not list((tmp_path / "bundles").glob(".staging-*"))


def fail_swap(monkeypatch, before):
    """Run ``before(target)`` just before a staged bundle is renamed onto
    its target, as another run would in the meantime."""
    real_replace = Path.replace

    def replace(self, target):
        if self.name == "bundle" and self.parent.name.startswith(".staging-"):
            before(Path(target))
        return real_replace(self, target)

    monkeypatch.setattr(Path, "replace", replace)


def fail_first_call(monkeypatch, method: str, name: str, error: int) -> list[Path]:
    """Make the first ``Path.<method>`` on a path named ``name`` raise
    ``error`` naming that path; the returned list gets the path."""
    real, failed = getattr(Path, method), []

    def failing(self, *args, **kwargs):
        if self.name == name and not failed:
            failed.append(self)
            raise OSError(error, os.strerror(error), str(self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, method, failing)
    return failed


# Every persistence point of a native segmentation run but the copies (see
# the copy tests below) and the rmtree calls, which ignore errors.
RUN_WRITES = {
    "fusion.json": ("write_text", "fusion.json", errno.ENOSPC),
    "metrics.json": ("write_text", "metrics.json", errno.ENOSPC),
    "manifest.json": ("write_text", "manifest.json", errno.ENOSPC),
    "output-dir": ("mkdir", "bundles", errno.ENOSPC),
    "work-input": ("mkdir", "input", errno.ENOSPC),
    "job-dir": ("mkdir", ALGO_IDS[0], errno.ENOSPC),
    "candidates": ("mkdir", "candidates", errno.ENOSPC),
    "native": ("mkdir", "native", errno.ENOSPC),
    "bundle-parent": ("mkdir", "sub-01", errno.ENOSPC),
    "swap": ("replace", "bundle", errno.EIO),
}


@pytest.mark.parametrize("parallel_jobs", [1, 2])
@pytest.mark.parametrize("force", [False, True], ids=["new", "force"])
@pytest.mark.parametrize("point", sorted(RUN_WRITES))
def test_a_failed_write_of_a_run_is_an_io_failure_naming_the_path(
    tmp_path, gli_subject, override_catalog, monkeypatch, point, force, parallel_jobs
):
    add_native_context(gli_subject, "sub-01")
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    # The second job is still running when the first one's directory fails.
    engine = engine_with({f"example/{ALGO_IDS[1]}": {"sleep_s": 0.05 if point == "job-dir" else 0.0}})
    config = gli_config(
        tmp_path, engine, override_catalog, native_space_output=True, force=force, parallel_jobs=parallel_jobs
    )
    old = {}
    if force:
        first = run_inference(inputs, config)
        old = {p: p.read_bytes() for p in first.bundle_dir.rglob("*") if p.is_file()}
    failed = fail_first_call(monkeypatch, *RUN_WRITES[point])
    with pytest.raises(IoFailure, match=os.strerror(RUN_WRITES[point][2])) as excinfo:
        within(60, lambda: run_inference(inputs, config))
    assert str(failed[0]) in str(excinfo.value)
    target = config.output_dir / "sub-01" / "gli-pre"
    assert {p: p.read_bytes() for p in target.rglob("*") if p.is_file()} == old
    assert not list(config.output_dir.glob(".staging-*"))


def test_bundle_published_concurrently_is_an_output_collision(tmp_path, gli_subject, override_catalog, monkeypatch):
    def other_run_publishes(target):
        target.mkdir(parents=True)
        (target / "manifest.json").write_text("{}\n")

    fail_swap(monkeypatch, before=other_run_publishes)
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    with pytest.raises(OutputCollision, match="another run"):
        run_inference(inputs, gli_config(tmp_path, engine_with(), override_catalog))
    target = tmp_path / "bundles" / "sub-01" / "gli-pre"
    assert [p.name for p in target.iterdir()] == ["manifest.json"]
    assert not list((tmp_path / "bundles").glob(".staging-*"))


def test_a_forced_publish_whose_swap_and_restore_fail_keeps_the_old_bundle(
    tmp_path, gli_subject, override_catalog, monkeypatch
):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    target = run_inference(inputs, gli_config(tmp_path, engine_with(), override_catalog)).bundle_dir
    old = {p.relative_to(target): p.read_bytes() for p in target.rglob("*") if p.is_file()}
    real_replace = Path.replace

    def replace(self, to):
        if self.name in ("bundle", "replaced"):  # the swap, then the restore
            raise OSError(errno.EIO, os.strerror(errno.EIO), str(self))
        return real_replace(self, to)

    monkeypatch.setattr(Path, "replace", replace)
    with pytest.raises(IoFailure, match=os.strerror(errno.EIO)) as excinfo:
        run_inference(inputs, gli_config(tmp_path, engine_with(), override_catalog, force=True))
    kept = target
    if not target.exists():
        [kept] = (tmp_path / "bundles").glob(".staging-*/replaced")
        assert str(kept) in str(excinfo.value)
    assert {p.relative_to(kept): p.read_bytes() for p in kept.rglob("*") if p.is_file()} == old


# -- native-space output -----------------------------------------------------------


@pytest.mark.parametrize("parallel_jobs", [1, 2])
@pytest.mark.parametrize("folder", ["input", "candidates"])  # the first staged input, the first candidate copy
def test_a_failed_copy_into_the_run_is_an_io_failure_naming_the_file(
    tmp_path, gli_subject, override_catalog, monkeypatch, folder, parallel_jobs
):
    config = gli_config(tmp_path, engine_with(), override_catalog, parallel_jobs=parallel_jobs)
    failed = fail_first_copy_into(monkeypatch, folder)
    with pytest.raises(IoFailure, match="No space left on device") as excinfo:
        run_inference(discover_subject_inputs(gli_subject, TaskId.GLI_PRE), config)
    assert str(failed[0]) in str(excinfo.value)
    assert_nothing_published(config, "sub-01")


def test_a_failed_copy_of_the_synthesized_image_is_an_io_failure(tmp_path, monkeypatch):
    inputs = discover_subject_inputs(write_subject(tmp_path, "sub-08", task=TaskId.INPAINT), TaskId.INPAINT)
    config = inpaint_config(tmp_path)
    failed = fail_first_copy_into(monkeypatch, "bundle")
    with pytest.raises(IoFailure, match="No space left on device") as excinfo:
        run_synthesis(inputs, config)
    assert failed[0].name == "synthesis.nii.gz" and str(failed[0]) in str(excinfo.value)
    assert_nothing_published(config)


def test_native_space_output_round_trips(tmp_path, gli_subject, mock_engine, override_catalog):
    add_native_context(gli_subject, "sub-01")
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    assert inputs.native_reference is not None
    assert len(inputs.transform_sidecars) == 1

    config = gli_config(tmp_path, mock_engine, override_catalog, native_space_output=True)
    bundle = run_inference(inputs, config)
    native_path = bundle.native_space_paths["consensus"]
    assert native_path.name == "consensus-native.nii.gz"
    native = read_volume(native_path)
    # native origin sits +2mm along x, so content slides two voxels back
    np.testing.assert_array_equal(native.data, shift_mask(expected_majority(), (-2, 0, 0)))


def test_native_space_needs_transform_and_reference(tmp_path, gli_subject, mock_engine, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    config = gli_config(tmp_path, mock_engine, override_catalog, native_space_output=True)
    with pytest.raises(ValidationFailed) as excinfo:
        run_inference(inputs, config)
    codes = [f.code for f in excinfo.value.report.findings if f.severity == "error"]
    assert codes.count("MISSING_TRANSFORM") == 2  # no sidecar and no reference grid


@pytest.mark.parametrize("damage", ["not_numbers", "nan_translation", *sorted(UNDECODABLE_SIDECARS)])
def test_unusable_sidecar_is_a_missing_transform(tmp_path, gli_subject, mock_engine, override_catalog, damage):
    add_native_context(gli_subject, "sub-01")
    sidecar = gli_subject / "sub-01_native2SRI24.json"
    doc = json.loads(sidecar.read_text())
    if damage == "not_numbers":
        doc["matrix"] = "abc"
    elif damage == "nan_translation":
        doc["matrix"][3] = float("nan")
    sidecar.write_bytes(UNDECODABLE_SIDECARS.get(damage, json.dumps(doc).encode()))
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    config = gli_config(tmp_path, mock_engine, override_catalog, native_space_output=True)
    with pytest.raises(ValidationFailed) as excinfo:
        run_inference(inputs, config)
    codes = [f.code for f in excinfo.value.report.findings if f.severity == "error"]
    assert codes == ["MISSING_TRANSFORM"]  # the sidecar is skipped; the reference grid is there
    assert mock_engine.containers_created == 0


def test_a_damaged_native_reference_fails_validation_before_any_container_runs(tmp_path, gli_subject, override_catalog):
    add_native_context(gli_subject, "sub-01")
    reference = gli_subject / "sub-01-native.nii.gz"
    reference.write_bytes(reference.read_bytes()[:40])
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    for parallel_jobs in (1, 2):  # the reference is read beside the input decodes
        engine = engine_with()
        config = gli_config(tmp_path, engine, override_catalog, native_space_output=True, parallel_jobs=parallel_jobs)
        with pytest.raises(ValidationFailed) as excinfo:
            run_inference(inputs, config)
        assert engine.containers_created == 0
        report = excinfo.value.report
        assert [f.code for f in report.errors] == ["UNREADABLE_INPUT"]
        assert report.findings[-1] == report.errors[0]
        assert report.errors[0].message.startswith("native reference (sub-01-native.nii.gz): ")


def test_a_native_run_reads_each_sidecar_and_the_reference_grid_once(
    tmp_path, gli_subject, mock_engine, override_catalog, monkeypatch
):
    add_native_context(gli_subject, "sub-01")
    reads = Counter()

    def counted(name, real):
        def call(path):
            reads[(name, Path(path).name)] += 1
            return real(path)

        return call

    monkeypatch.setattr(validation, "read_transform", counted("transform", validation.read_transform))
    monkeypatch.setattr(validation, "read_grid", counted("grid", validation.read_grid))
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    bundle = run_inference(inputs, gli_config(tmp_path, mock_engine, override_catalog, native_space_output=True))
    assert set(bundle.native_space_paths) == {"consensus"}
    assert reads == {("transform", "sub-01_native2SRI24.json"): 1, ("grid", "sub-01-native.nii.gz"): 1}


# -- synthesis ---------------------------------------------------------------------


def synthesis_catalog(tmp_path, task_id: str, algo_id: str):
    doc = {
        "schema_version": 1,
        "algorithms": [
            {
                "id": f"{algo_id}-2025-1",
                "task_id": task_id,
                "year": 2025,
                "rank": 1,
                "team_reference": f"{algo_id} stub",
                "image_reference": f"example/{algo_id}@sha256:{fake_digest(algo_id)}",
                "requires_gpu": False,
            }
        ],
    }
    path = tmp_path / f"{algo_id}-catalog.json"
    path.write_text(json.dumps(doc))
    return load_catalog(path)


def synthesis_engine(algo_id: str, outputs) -> MockEngine:
    engine = MockEngine(max_concurrent_jobs=2)
    engine.register(
        f"example/{algo_id}",
        MockBehavior(content_digest="sha256:" + fake_digest(algo_id), outputs=outputs),
    )
    return engine


def test_inpaint_fills_the_voided_region(tmp_path):
    subj = write_subject(tmp_path, "sub-03", task=TaskId.INPAINT)
    inputs = discover_subject_inputs(subj, TaskId.INPAINT)
    engine = synthesis_engine(
        "mock-inpaint",
        (
            {
                "path": "synthesis.nii.gz",
                "generator": "mean_fill",
                "image": "*-t1n.nii*",
                "mask": "*-mask.nii*",
            },
        ),
    )
    config = PipelineConfig(
        task=TaskId.INPAINT,
        engine=engine,
        output_dir=tmp_path / "bundles",
        algorithm_selectors=("mock-inpaint-2025-1",),
        catalog=synthesis_catalog(tmp_path, "inpaint", "mock-inpaint"),
    )
    bundle = run_synthesis(inputs, config)

    assert bundle.consensus_path.name == "synthesis.nii.gz"
    assert bundle.fusion_metadata_path is None
    assert bundle.metrics_path is None
    assert bundle.manifest["synthesized_modality"] == "T1n"
    assert bundle.manifest["synthesis_output"] == "synthesis.nii.gz"

    t1n = read_volume(subj / "sub-03-t1n.nii.gz").data
    hole = read_volume(subj / "sub-03-mask.nii.gz").data != 0
    out = read_volume(bundle.consensus_path)
    assert out.data.dtype == np.float32
    np.testing.assert_allclose(out.data[hole], np.float32(float(t1n[~hole].mean())))
    np.testing.assert_allclose(out.data[~hole], t1n[~hole])


def inpaint_config(tmp_path, **kw) -> PipelineConfig:
    engine = synthesis_engine(
        "mock-inpaint",
        ({"path": "synthesis.nii.gz", "generator": "mean_fill", "image": "*-t1n.nii*", "mask": "*-mask.nii*"},),
    )
    return PipelineConfig(
        task=TaskId.INPAINT,
        engine=engine,
        output_dir=tmp_path / "bundles",
        algorithm_selectors=("mock-inpaint-2025-1",),
        catalog=synthesis_catalog(tmp_path, "inpaint", "mock-inpaint"),
        **kw,
    )


def test_inpaint_native_bundle_is_byte_stable(tmp_path):
    subj = write_subject(tmp_path, "sub-08", task=TaskId.INPAINT)
    add_native_context(subj, "sub-08")
    inputs = discover_subject_inputs(subj, TaskId.INPAINT)
    bundle = run_synthesis(inputs, inpaint_config(tmp_path, native_space_output=True))
    assert sorted(bundle.manifest["files"]) == ["native/synthesis-native.nii.gz", "synthesis.nii.gz"]
    assert bundle.native_space_paths == {"synthesis": bundle.bundle_dir / "native/synthesis-native.nii.gz"}
    # pins the synthesis bundle's bytes, as the golden manifest pins segmentation's
    assert bundle.manifest["content_digest"] == (
        "c3f019a047934b51fb0d2d57dcb112eb40fc228c31ed6d1be0d267df2e8cc79d"
    )


# -- the native write deflates each plane while the warp fills the next ----------


@pytest.mark.parametrize("parallel_jobs", [1, 2])
@pytest.mark.parametrize("name", WARP_CASES)
def test_a_streamed_native_write_gives_the_bytes_of_warp_then_write(tmp_path, name, parallel_jobs):
    labels, image, forward, native = warp_case(name)
    kinds = {
        "mask": (lambda sink: inverse_warp_to_native(labels, forward, native, sink=sink), write_mask),
        "image": (
            lambda sink: inverse_warp_image_to_native(image, forward, native, sink=sink),
            lambda vol, path, **kw: write_volume(vol, path, dtype=np.float32, **kw),
        ),
    }
    with ThreadPoolExecutor(max_workers=parallel_jobs) as pool:
        for kind, (warp, write) in kinds.items():
            whole = write(warp(lambda column: None), tmp_path / f"{kind}-whole.nii.gz")
            streamed = tmp_path / f"{kind}-streamed.nii.gz"
            pipeline._write_while_warping(
                SimpleNamespace(map=pool.map), warp, lambda planes: write(native, streamed, planes=planes)
            )
            assert streamed.read_bytes() == whole.read_bytes(), kind


def test_concurrent_hand_offs_keep_their_planes_in_order_under_frequent_thread_switches(tmp_path):
    _, image, forward, native = warp_case("rotated-anisotropic")

    def warp(sink):
        return inverse_warp_image_to_native(image, forward, native, sink=sink)

    whole = write_volume(warp(lambda column: None), tmp_path / "whole.nii", dtype=np.float32).read_bytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as writers, ThreadPoolExecutor(max_workers=4) as callers:

            def hand_off(n):
                path = tmp_path / f"streamed-{n}.nii"

                def write(planes):
                    return write_volume(native, path, dtype=np.float32, planes=planes)

                pipeline._write_while_warping(SimpleNamespace(map=writers.map), warp, write)
                return path.read_bytes()

            streamed = within(60, lambda: list(callers.map(hand_off, range(24))))
    finally:
        sys.setswitchinterval(interval)
    assert all(blob == whole for blob in streamed)


def within(seconds, call):
    """``call()``, on a daemon thread; fails the test if it has not returned
    or raised after ``seconds``."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def native_synthesis_run(tmp_path, monkeypatch, parallel_jobs):
    """A native INPAINT run to call, its config, and the list that gets
    ``(error, file left)`` for each write of the pipeline's that raises."""
    subj = write_subject(tmp_path, "sub-08", task=TaskId.INPAINT)
    add_native_context(subj, "sub-08")
    inputs = discover_subject_inputs(subj, TaskId.INPAINT)
    config = inpaint_config(tmp_path, native_space_output=True, parallel_jobs=parallel_jobs)
    failed_writes = []
    real = pipeline.write_volume

    def recording(vol, path, **kw):
        try:
            return real(vol, path, **kw)
        except BaseException as exc:
            failed_writes.append((exc, Path(path).exists()))
            raise

    monkeypatch.setattr(pipeline, "write_volume", recording)
    return (lambda: run_synthesis(inputs, config)), config, failed_writes


def assert_nothing_published(config, subject="sub-08"):
    assert not [p.name for p in config.output_dir.iterdir() if p.name.startswith(".staging-")]
    assert not (config.output_dir / subject / config.task.value).exists()


@pytest.mark.parametrize("parallel_jobs", [1, 2])
def test_a_warp_error_in_a_native_run_reaches_the_caller_and_the_writer(tmp_path, monkeypatch, parallel_jobs):
    run, config, failed_writes = native_synthesis_run(tmp_path, monkeypatch, parallel_jobs)
    error = RuntimeError("plane failed")
    real = ndimage.map_coordinates
    calls = itertools.count()

    def failing(*args, **kwargs):
        if next(calls) == 2:  # the third plane sampled
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(ndimage, "map_coordinates", failing)
    with pytest.raises(RuntimeError) as excinfo:
        within(60, run)
    assert excinfo.value is error
    assert failed_writes == [(error, False)]  # the writer raised it too, and removed its partial file
    assert_nothing_published(config)


@pytest.mark.parametrize("parallel_jobs", [1, 2])
def test_a_writer_error_in_a_native_run_reaches_the_caller(tmp_path, monkeypatch, parallel_jobs):
    run, config, failed_writes = native_synthesis_run(tmp_path, monkeypatch, parallel_jobs)
    real = gzip.GzipFile.write
    calls = itertools.count()

    def disk_full(self, data):
        if self.fileobj.name.endswith("-native.nii.gz") and next(calls) == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(self, data)

    monkeypatch.setattr(gzip.GzipFile, "write", disk_full)
    with pytest.raises(IoFailure, match="synthesis-native.nii.gz") as excinfo:
        within(60, run)
    assert failed_writes == [(excinfo.value, False)]
    assert_nothing_published(config)


# -- scoring on the run's pool ---------------------------------------------------

# Candidates as blob tuples (code, center, radius). The two tied ones have
# the same voxel count and differ only in one blob's label.
SCORED = {
    "mock-big": [(3, (16, 16, 10), 6), (2, (22, 20, 12), 3)],
    "mock-tie-a": [(3, (16, 16, 10), 4), (1, (8, 8, 8), 2)],
    "mock-tie-b": [(3, (16, 16, 10), 4), (2, (8, 8, 8), 2)],
    "mock-small": [(3, (16, 16, 10), 3)],
}
# Input orders with the largest candidate first, in the middle and last,
# each with the order its reports are scored in: heaviest first, ties in
# input order.
PLACEMENTS = {
    "first": (("mock-big", "mock-tie-a", "mock-small", "mock-tie-b"),
              ("mock-big", "mock-tie-a", "mock-tie-b", "mock-small")),
    "middle": (("mock-tie-b", "mock-small", "mock-big", "mock-tie-a"),
               ("mock-big", "mock-tie-b", "mock-tie-a", "mock-small")),
    "last": (("mock-tie-a", "mock-small", "mock-tie-b", "mock-big"),
             ("mock-big", "mock-tie-a", "mock-tie-b", "mock-small")),
}


def scored_run(root, selectors, parallel_jobs):
    """``(inputs, config)`` of a gli-pre run over the ``SCORED`` candidates
    that ``selectors`` name, in that order."""
    root.mkdir(parents=True, exist_ok=True)
    payload = catalog_override_payload()
    for rank, algo_id in enumerate(SCORED, start=4):
        payload["algorithms"].append(
            {**payload["algorithms"][0], "id": algo_id, "rank": rank, "team_reference": f"{algo_id} stub",
             "image_reference": f"example/{algo_id}@sha256:{fake_digest(algo_id)}"}
        )
    (root / "catalog.json").write_text(json.dumps(payload))
    engine = MockEngine(max_concurrent_jobs=2)
    for algo_id, blobs in SCORED.items():
        output = {"path": "seg.nii.gz", "generator": "label_blobs", "like": "*-t1c.nii*",
                  "blobs": [{"label": code, "center": list(center), "radius": radius} for code, center, radius in blobs]}
        engine.register(f"example/{algo_id}", MockBehavior(content_digest="sha256:" + fake_digest(algo_id), outputs=(output,)))
    inputs = discover_subject_inputs(write_subject(root, "sub-01"), TaskId.GLI_PRE)
    config = gli_config(root, engine, load_catalog(root / "catalog.json"), algorithm_selectors=selectors,
                        parallel_jobs=parallel_jobs)
    return inputs, config


def label_counts(data: np.ndarray) -> tuple[int, ...]:
    return tuple(np.bincount(data.ravel(), minlength=4)[1:].tolist())


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_reports_are_scored_heaviest_first_with_ties_in_input_order(tmp_path, monkeypatch, placement):
    selectors, scored_order = PLACEMENTS[placement]
    calls = []
    real = pipeline.compute_metric_report

    def recording(reference, prediction, *args, **kwargs):
        calls.append((np.count_nonzero(prediction), label_counts(prediction)))
        return real(reference, prediction, *args, **kwargs)

    monkeypatch.setattr(pipeline, "compute_metric_report", recording)
    bundle = run_inference(*scored_run(tmp_path, selectors, parallel_jobs=1))
    # Outside the scored box every candidate is background, so its label
    # counts there are those of its whole mask and tell the candidates apart.
    by_counts = {label_counts(read_volume(path).data): algo_id for algo_id, path in bundle.per_algorithm_paths.items()}
    assert len(by_counts) == len(SCORED)
    voxels = [count for count, _ in calls]
    assert voxels == sorted(voxels, reverse=True)
    assert [by_counts[counts] for _, counts in calls] == list(scored_order)


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_a_scored_bundle_does_not_depend_on_the_thread_count(tmp_path, placement):
    selectors, _ = PLACEMENTS[placement]
    one, two = (run_inference(*scored_run(tmp_path / f"jobs{jobs}", selectors, jobs)) for jobs in (1, 2))
    for name in ("metrics.json", pipeline.CONSENSUS_NAME):
        assert (one.bundle_dir / name).read_bytes() == (two.bundle_dir / name).read_bytes()
    assert one.manifest["content_digest"] == two.manifest["content_digest"]


@pytest.mark.parametrize("parallel_jobs", [1, 2])
def test_a_consensus_write_error_on_the_pool_reaches_the_caller(tmp_path, monkeypatch, parallel_jobs):
    inputs, config = scored_run(tmp_path, PLACEMENTS["first"][0], parallel_jobs)
    failed_writes = []
    real_write, real_deflate = pipeline.write_mask, gzip.GzipFile.write

    def recording(vol, path, **kw):
        try:
            return real_write(vol, path, **kw)
        except BaseException as exc:
            failed_writes.append((exc, Path(path).exists()))
            raise

    def disk_full(self, data):
        if self.fileobj.name.endswith(pipeline.CONSENSUS_NAME):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_deflate(self, data)

    monkeypatch.setattr(pipeline, "write_mask", recording)
    monkeypatch.setattr(gzip.GzipFile, "write", disk_full)
    with pytest.raises(IoFailure, match=pipeline.CONSENSUS_NAME) as excinfo:
        within(60, lambda: run_inference(inputs, config))
    assert failed_writes == [(excinfo.value, False)]
    assert_nothing_published(config, "sub-01")


@pytest.mark.parametrize("parallel_jobs", [1, 2])
def test_a_reference_preparation_error_on_the_pool_reaches_the_caller(tmp_path, monkeypatch, parallel_jobs):
    inputs, config = scored_run(tmp_path, PLACEMENTS["first"][0], parallel_jobs)
    error = ValueError("reference refused")

    def refusing(*args, **kwargs):
        raise error

    monkeypatch.setattr(pipeline, "prepare_reference", refusing)
    with pytest.raises(ValueError) as excinfo:
        within(60, lambda: run_inference(inputs, config))
    assert excinfo.value is error
    assert_nothing_published(config, "sub-01")


@pytest.mark.parametrize("parallel_jobs", [1, 2])
def test_a_one_candidate_run_writes_its_consensus_and_scores_nothing(tmp_path, monkeypatch, parallel_jobs):
    inputs, config = scored_run(tmp_path, ("mock-small",), parallel_jobs)
    calls = []
    monkeypatch.setattr(pipeline, "prepare_reference", lambda *args, **kw: calls.append("prepare_reference"))
    monkeypatch.setattr(pipeline, "compute_metric_report", lambda *args, **kw: calls.append("compute_metric_report"))
    bundle = run_inference(inputs, config)
    assert calls == []
    assert bundle.consensus_path == bundle.bundle_dir / pipeline.CONSENSUS_NAME
    np.testing.assert_array_equal(
        read_volume(bundle.consensus_path).data, read_volume(bundle.per_algorithm_paths["mock-small"]).data
    )
    assert bundle.metrics_path is None
    assert not (bundle.bundle_dir / "metrics.json").exists()
    assert pipeline.CONSENSUS_NAME in bundle.manifest["files"] and "metrics.json" not in bundle.manifest["files"]


def test_missing_mri_names_the_absent_modality(tmp_path):
    subj = write_subject(tmp_path, "sub-04", task=TaskId.MISSING_MRI, drop=("T2w",))
    inputs = discover_subject_inputs(subj, TaskId.MISSING_MRI)
    engine = synthesis_engine(
        "mock-synth",
        ({"path": "synthesis.nii.gz", "generator": "copy_input", "source": "*-t1c.nii*"},),
    )
    config = PipelineConfig(
        task="missing-mri",
        engine=engine,
        output_dir=tmp_path / "bundles",
        algorithm_selectors=("mock-synth-2025-1",),
        catalog=synthesis_catalog(tmp_path, "missing-mri", "mock-synth"),
    )
    bundle = run_synthesis(inputs, config)
    assert bundle.manifest["synthesized_modality"] == "T2w"
    np.testing.assert_array_equal(
        read_volume(bundle.consensus_path).data,
        read_volume(subj / "sub-04-t1c.nii.gz").data,
    )


def test_synthesis_runs_exactly_one_algorithm(tmp_path):
    subj = write_subject(tmp_path, "sub-05", task=TaskId.INPAINT)
    inputs = discover_subject_inputs(subj, TaskId.INPAINT)
    config = PipelineConfig(
        task=TaskId.INPAINT,
        engine=synthesis_engine("mock-inpaint", ()),
        output_dir=tmp_path / "bundles",
        algorithm_selectors=("mock-inpaint-2025-1", "mock-inpaint-2025-1"),
        catalog=synthesis_catalog(tmp_path, "inpaint", "mock-inpaint"),
    )
    # duplicate selectors collapse to one entry, so this still runs
    bundle_or_error = pytest.raises(AllJobsFailed, run_synthesis, inputs, config)
    assert "no unambiguous volume" in str(bundle_or_error.value)


def test_synthesis_job_failure_aborts(tmp_path):
    subj = write_subject(tmp_path, "sub-06", task=TaskId.INPAINT)
    inputs = discover_subject_inputs(subj, TaskId.INPAINT)
    engine = MockEngine()
    engine.register(
        "example/mock-inpaint",
        MockBehavior(content_digest="sha256:" + fake_digest("mock-inpaint"), exit_code=2),
    )
    config = PipelineConfig(
        task=TaskId.INPAINT,
        engine=engine,
        output_dir=tmp_path / "bundles",
        algorithm_selectors=("mock-inpaint-2025-1",),
        catalog=synthesis_catalog(tmp_path, "inpaint", "mock-inpaint"),
    )
    with pytest.raises(AllJobsFailed, match="nonzero_exit"):
        run_synthesis(inputs, config)
    assert not (tmp_path / "bundles" / "sub-06").exists()


def test_kind_guards(tmp_path, gli_subject, mock_engine, override_catalog):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    seg_config = gli_config(tmp_path, mock_engine, override_catalog)
    with pytest.raises(ValueError, match="use run_inference"):
        run_synthesis(inputs, seg_config)

    synth_config = PipelineConfig(
        task=TaskId.INPAINT,
        engine=mock_engine,
        output_dir=tmp_path / "bundles",
        algorithm_selectors=("x",),
        catalog=synthesis_catalog(tmp_path, "inpaint", "mock-inpaint"),
    )
    with pytest.raises(ValueError, match="use run_synthesis"):
        run_inference(inputs, synth_config)


# -- decoding ----------------------------------------------------------------------


@pytest.fixture
def decodes(monkeypatch):
    """Counts ``read_volume`` calls per file name in validation and the pipeline."""
    import brainorch.pipeline
    import brainorch.validation

    counts: Counter = Counter()

    def counting(path, *args, **kwargs):
        counts[Path(path).name] += 1
        return read_volume(path, *args, **kwargs)

    for module in (brainorch.pipeline, brainorch.validation):
        monkeypatch.setattr(module, "read_volume", counting)
    return counts


def test_segmentation_decodes_each_input_once(tmp_path, gli_subject, mock_engine, override_catalog, decodes):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    run_inference(inputs, gli_config(tmp_path, mock_engine, override_catalog))
    names = [p.name for p in inputs.files.values()]
    assert len(names) == 4
    assert {name: decodes[name] for name in names} == dict.fromkeys(names, 1)


def test_synthesis_decodes_each_input_once(tmp_path, decodes):
    subj = write_subject(tmp_path, "sub-09", task=TaskId.INPAINT)
    add_native_context(subj, "sub-09")
    inputs = discover_subject_inputs(subj, TaskId.INPAINT)
    run_synthesis(inputs, inpaint_config(tmp_path, native_space_output=True))
    names = [p.name for p in inputs.files.values()]
    assert len(names) == 2
    assert {name: decodes[name] for name in names} == dict.fromkeys(names, 1)


# -- configuration and discovery -----------------------------------------------------


def test_config_validation(tmp_path, mock_engine):
    with pytest.raises(ValueError, match="selectors"):
        PipelineConfig(
            task="gli-pre", engine=mock_engine, output_dir=tmp_path, algorithm_selectors=()
        )
    with pytest.raises(ValueError, match="parallel_jobs"):
        PipelineConfig(task="gli-pre", engine=mock_engine, output_dir=tmp_path, parallel_jobs=0)
    with pytest.raises(UnknownTask):
        PipelineConfig(task="made-up", engine=mock_engine, output_dir=tmp_path)


def test_unknown_fusion_method_fails_before_any_job(tmp_path, gli_subject, override_catalog):
    engine = engine_with()
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    with pytest.raises(ValueError, match="unknown fusion method 'majorty'"):
        run_inference(inputs, gli_config(tmp_path, engine, override_catalog, fusion_method="majorty"))
    assert engine.containers_created == 0


def test_discover_subject_inputs_conventions(tmp_path):
    subj = write_subject(tmp_path, "sub-07")
    add_native_context(subj, "sub-07")
    (subj / "notes.txt").write_text("clinical notes")
    (subj / "unrelated.nii.gz").write_bytes(b"not a real volume")

    inputs = discover_subject_inputs(subj, "gli-pre")
    assert inputs.subject_id == "sub-07"
    assert sorted(inputs.files) == ["FLA", "T1c", "T1n", "T2w"]
    assert inputs.files["T1c"].name == "sub-07-t1c.nii.gz"
    assert inputs.native_reference.name == "sub-07-native.nii.gz"
    assert [p.name for p in inputs.transform_sidecars] == ["sub-07_native2SRI24.json"]
    assert {p.name for p in inputs.extra_files} == {"notes.txt", "unrelated.nii.gz"}


def test_discover_prefers_compressed_files(tmp_path):
    subj = write_subject(tmp_path, "sub-08")
    write_subject(tmp_path, "sub-08", compress=False)  # same tags, bare .nii
    inputs = discover_subject_inputs(subj, "gli-pre")
    assert inputs.files["T1c"].name == "sub-08-t1c.nii.gz"
    # the uncompressed twins ride along as extras for validation to flag
    assert any(p.name == "sub-08-t1c.nii" for p in inputs.extra_files)


def test_discover_rejects_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        discover_subject_inputs(tmp_path / "absent", "gli-pre")
    with pytest.raises(UnknownTask):
        discover_subject_inputs(tmp_path, "not-a-task")


def test_relative_paths_work_end_to_end(tmp_path, monkeypatch, mock_engine, override_catalog):
    # job dirs under output_dir flow into mounts that demand absolute paths,
    # so a relative -o must be resolved up front
    subj = write_subject(tmp_path, "sub-01")
    monkeypatch.chdir(tmp_path)

    inputs = discover_subject_inputs(Path("sub-01"), TaskId.GLI_PRE)
    assert inputs.subject_id == "sub-01"
    assert inputs.files["T1c"].is_absolute()

    config = PipelineConfig(
        task=TaskId.GLI_PRE,
        engine=mock_engine,
        output_dir=Path("bundles"),
        algorithm_selectors=ALGO_IDS,
        catalog=override_catalog,
    )
    assert config.output_dir.is_absolute()
    bundle = run_inference(inputs, config)
    assert bundle.bundle_dir == tmp_path / "bundles" / "sub-01" / "gli-pre"

    # "." resolves to the directory's real name instead of an empty subject id
    monkeypatch.chdir(subj)
    assert discover_subject_inputs(Path("."), TaskId.GLI_PRE).subject_id == "sub-01"


def test_canonical_json_is_stable():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
