"""End-to-end orchestration against the scripted engine: bundle layout,
fusion wiring, failure degradation, and the synthesis flow."""

from __future__ import annotations

import errno
import gzip
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainorch import pipeline
from brainorch.errors import (
    AllJobsFailed,
    EngineUnreachable,
    OutputCollision,
    UnknownTask,
    ValidationFailed,
)
from brainorch.fusion import METHOD_SIMPLE
from brainorch.nifti import Volume, read_volume, write_mask
from brainorch.pipeline import (
    PipelineConfig,
    canonical_json,
    discover_subject_inputs,
    manifest_digest,
    run_inference,
    run_synthesis,
)
from brainorch.registry import TaskId, load_catalog
from brainorch.runtime import MockBehavior, MockEngine

from fixtures_e2e import (
    E2E_ALGOS,
    add_native_context,
    behaviors_payload,
    e2e_affine,
    expected_candidate_masks,
    fake_digest,
    set_vox_offset,
    write_catalog_override,
    write_subject,
)
from oracles import brute_dice, brute_majority, shift_mask
from test_nifti import draw_damage

ALGO_IDS = tuple(algo_id for algo_id, _, _ in E2E_ALGOS)
GLI_CODES = (3, 1, 2)  # ET, NETC, SNFH in priority order


def engine_with(overrides: dict | None = None, **engine_kw) -> MockEngine:
    """Stock scripted engine with per-image behavior field overrides."""
    overrides = overrides or {}
    engine = MockEngine(max_concurrent_jobs=4, **engine_kw)
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


def fail_swap(monkeypatch, before=None, error=errno.EIO):
    """Make the rename of a staged bundle onto its target fail.

    ``before(target)`` runs first, as another run would in the meantime.
    """
    real_replace = Path.replace

    def replace(self, target):
        if self.name == "bundle" and self.parent.name.startswith(".staging-"):
            if before is not None:
                before(Path(target))
                return real_replace(self, target)
            raise OSError(error, "injected failure", str(target))
        return real_replace(self, target)

    monkeypatch.setattr(Path, "replace", replace)


def test_forced_publish_that_fails_keeps_the_old_bundle(tmp_path, gli_subject, override_catalog, monkeypatch):
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    first = run_inference(inputs, gli_config(tmp_path, engine_with(), override_catalog))
    before = {p: p.read_bytes() for p in first.bundle_dir.rglob("*") if p.is_file()}

    fail_swap(monkeypatch)
    with pytest.raises(OSError, match="injected failure"):
        run_inference(inputs, gli_config(tmp_path, engine_with(), override_catalog, force=True))
    assert {p: p.read_bytes() for p in first.bundle_dir.rglob("*") if p.is_file()} == before
    assert not list((tmp_path / "bundles").glob(".staging-*"))


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


# -- native-space output -----------------------------------------------------------


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


@pytest.mark.parametrize("damage", ["not_numbers", "nan_translation"])
def test_unusable_sidecar_is_a_missing_transform(tmp_path, gli_subject, mock_engine, override_catalog, damage):
    add_native_context(gli_subject, "sub-01")
    sidecar = gli_subject / "sub-01_native2SRI24.json"
    doc = json.loads(sidecar.read_text())
    if damage == "not_numbers":
        doc["matrix"] = "abc"
    else:
        doc["matrix"][3] = float("nan")
    sidecar.write_text(json.dumps(doc))
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    config = gli_config(tmp_path, mock_engine, override_catalog, native_space_output=True)
    with pytest.raises(ValidationFailed) as excinfo:
        run_inference(inputs, config)
    codes = [f.code for f in excinfo.value.report.findings if f.severity == "error"]
    assert codes == ["MISSING_TRANSFORM"]  # the sidecar is skipped; the reference grid is there


def test_a_damaged_native_reference_fails_validation_before_any_container_runs(tmp_path, gli_subject, override_catalog):
    add_native_context(gli_subject, "sub-01")
    reference = gli_subject / "sub-01-native.nii.gz"
    reference.write_bytes(reference.read_bytes()[:40])
    engine = engine_with()
    inputs = discover_subject_inputs(gli_subject, TaskId.GLI_PRE)
    with pytest.raises(ValidationFailed) as excinfo:
        run_inference(inputs, gli_config(tmp_path, engine, override_catalog, native_space_output=True))
    assert engine.containers_created == 0
    errors = [f for f in excinfo.value.report.findings if f.severity == "error"]
    assert [f.code for f in errors] == ["UNREADABLE_INPUT"]
    assert errors[0].message.startswith("native reference (sub-01-native.nii.gz): ")


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

    monkeypatch.setattr(pipeline, "read_transform", counted("transform", pipeline.read_transform))
    monkeypatch.setattr(pipeline, "read_grid", counted("grid", pipeline.read_grid))
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
