"""Input validation: policy findings, grid consistency, verdict rules."""

from __future__ import annotations

import json
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from brainorch.geometry import GridSpec, read_transform
from brainorch.nifti import Volume, read_grid, read_volume, write_volume
from brainorch.registry import TaskId, get_task_spec
from brainorch.validation import (
    AFFINE_MISMATCH,
    ATLAS_GRID_DEVIATION,
    INTENSITY_SUSPECT,
    MASK_NOT_BINARY,
    MISSING_MODALITY,
    MISSING_TRANSFORM,
    SEVERITY_ERROR,
    SHAPE_MISMATCH,
    SPACE_MISMATCH,
    SPACING_MISMATCH,
    SYNTHESIS_INPUT_COUNT,
    UNEXPECTED_FILE,
    UNREADABLE_INPUT,
    SubjectInputs,
    ValidationReport,
    check_grid_consistency,
    validate_subject,
)

from fixtures_e2e import add_native_context, e2e_affine, set_vox_offset, write_subject, zero_srow_x


def inputs_for(subj_dir, subject="sub-01", task=TaskId.GLI_PRE, **kw):
    spec = get_task_spec(task)
    files = {}
    for tag in spec.required_inputs:
        path = subj_dir / f"{subject}-{tag.lower()}.nii.gz"
        if path.exists():
            files[tag] = path
    return SubjectInputs(subject_id=subject, files=files, **kw)


def codes_of(report, severity=None):
    found = report.findings
    if severity:
        found = [f for f in found if f.severity == severity]
    return [f.code for f in found]


def assert_verdict_consistent(report: ValidationReport):
    has_errors = any(f.severity == SEVERITY_ERROR for f in report.findings)
    assert report.passed == (not has_errors)
    assert report.verdict == ("fail" if has_errors else "pass")


# -- golden subject -----------------------------------------------------------


def test_golden_subject_passes(tmp_path):
    subj = write_subject(tmp_path, "sub-01")
    report = validate_subject(inputs_for(subj), get_task_spec("gli-pre"))
    assert report.passed
    # desk-scale grid is not the canonical atlas grid: warning, not error
    assert codes_of(report) == [ATLAS_GRID_DEVIATION]
    assert set(report.per_modality_geometry) == {"T1c", "T1n", "T2w", "FLA"}
    assert_verdict_consistent(report)


def test_report_json_round_trip(tmp_path):
    subj = write_subject(tmp_path, "sub-01")
    report = validate_subject(inputs_for(subj), get_task_spec("gli-pre"))
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["subject"] == "sub-01"
    assert doc["task"] == "gli-pre"
    assert doc["verdict"] == "pass"
    assert doc["per_modality_geometry"]["T1c"]["shape"] == [32, 32, 20]


# -- missing inputs -----------------------------------------------------------


@pytest.mark.parametrize("missing", ["T1c", "T1n", "T2w", "FLA"])
def test_each_missing_modality_is_one_error(tmp_path, missing):
    subj = write_subject(tmp_path, "sub-01", drop=(missing,))
    report = validate_subject(inputs_for(subj), get_task_spec("gli-pre"))
    errors = [f for f in report.errors if f.code == MISSING_MODALITY]
    assert len(errors) == 1
    assert missing in errors[0].message
    assert not report.passed
    assert_verdict_consistent(report)


def test_men_rt_needs_only_t1c(tmp_path):
    subj = write_subject(tmp_path, "sub-02", task=TaskId.MEN_RT)
    report = validate_subject(
        inputs_for(subj, "sub-02", TaskId.MEN_RT), get_task_spec("men-rt")
    )
    assert report.passed
    # native-space task: no atlas grid expectation
    assert codes_of(report) == []


def test_men_rt_flags_unused_modalities(tmp_path):
    subj = write_subject(tmp_path, "sub-03", task=TaskId.GLI_PRE)  # all four written
    spec = get_task_spec("men-rt")
    files = {
        tag: subj / f"sub-03-{tag.lower()}.nii.gz" for tag in ("T1c", "T1n", "T2w", "FLA")
    }
    report = validate_subject(SubjectInputs(subject_id="sub-03", files=files), spec)
    assert report.passed
    unexpected = [f for f in report.warnings if f.code == UNEXPECTED_FILE]
    assert len(unexpected) == 3  # T1n, T2w, FLA are legal but unused


def test_unknown_tag_flagged(tmp_path):
    subj = write_subject(tmp_path, "sub-04")
    inputs = inputs_for(subj, "sub-04")
    files = dict(inputs.files)
    files["DWI"] = files["T1c"]
    report = validate_subject(
        SubjectInputs(subject_id="sub-04", files=files), get_task_spec("gli-pre")
    )
    messages = [f.message for f in report.warnings if f.code == UNEXPECTED_FILE]
    assert any("unknown tag" in m for m in messages)
    assert report.passed


def test_extra_files_flagged(tmp_path):
    subj = write_subject(tmp_path, "sub-05")
    stray = subj / "notes.txt"
    stray.write_text("scratch")
    report = validate_subject(
        inputs_for(subj, "sub-05", extra_files=(stray,)), get_task_spec("gli-pre")
    )
    assert any(
        f.code == UNEXPECTED_FILE and "notes.txt" in f.message for f in report.warnings
    )
    assert report.passed


# -- synthesis input policies ---------------------------------------------------


def test_missing_mri_accepts_exactly_three(tmp_path):
    subj = write_subject(tmp_path, "sub-06", task=TaskId.MISSING_MRI, drop=("T2w",))
    report = validate_subject(
        inputs_for(subj, "sub-06", TaskId.MISSING_MRI), get_task_spec("missing-mri")
    )
    assert report.passed
    assert SYNTHESIS_INPUT_COUNT not in codes_of(report)


@pytest.mark.parametrize("drop", [(), ("T2w", "FLA")])
def test_missing_mri_rejects_wrong_count(tmp_path, drop):
    subj = write_subject(tmp_path, "sub-07", task=TaskId.MISSING_MRI, drop=drop)
    report = validate_subject(
        inputs_for(subj, "sub-07", TaskId.MISSING_MRI), get_task_spec("missing-mri")
    )
    assert SYNTHESIS_INPUT_COUNT in codes_of(report, SEVERITY_ERROR)
    assert not report.passed
    assert_verdict_consistent(report)


def test_inpaint_binary_mask_passes(tmp_path):
    subj = write_subject(tmp_path, "sub-08", task=TaskId.INPAINT)
    report = validate_subject(
        inputs_for(subj, "sub-08", TaskId.INPAINT), get_task_spec("inpaint")
    )
    assert report.passed


def test_inpaint_nonbinary_mask_fails(tmp_path):
    subj = write_subject(tmp_path, "sub-09", task=TaskId.INPAINT)
    mask_path = subj / "sub-09-mask.nii.gz"
    data = np.zeros((32, 32, 20), dtype=np.uint8)
    data[4:8, 4:8, 4:8] = 2
    write_volume(Volume(data=data, affine=e2e_affine()), mask_path)
    report = validate_subject(
        inputs_for(subj, "sub-09", TaskId.INPAINT), get_task_spec("inpaint")
    )
    errors = [f for f in report.errors if f.code == MASK_NOT_BINARY]
    assert len(errors) == 1
    assert "[2]" in errors[0].message
    assert not report.passed


@pytest.mark.parametrize("dtype, stray", [(np.uint8, 7), (np.float32, 0.5)])
def test_inpaint_mask_values_are_read_inside_its_box(tmp_path, monkeypatch, dtype, stray):
    subj = write_subject(tmp_path, "sub-21", task=TaskId.INPAINT)
    data = np.zeros((32, 32, 20), dtype=dtype)
    data[8:14, 8:14, 6:12] = 1
    data[0, 0, 0] = stray  # at the grid's corner
    write_volume(Volume(data=data, affine=e2e_affine()), subj / "sub-21-mask.nii.gz")
    sizes = []
    real_unique = np.unique

    def recording_unique(ar, *args, **kwargs):
        sizes.append(np.asarray(ar).size)
        return real_unique(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", recording_unique)
    report = validate_subject(inputs_for(subj, "sub-21", TaskId.INPAINT), get_task_spec("inpaint"))
    monkeypatch.undo()
    assert sizes and max(sizes) < data.size
    whole_grid = sorted(set(np.unique(data).tolist()) - {0, 1})
    assert [f.message for f in report.errors] == [f"MASK holds values {whole_grid} outside {{0, 1}}"]


# -- grid consistency ---------------------------------------------------------


def replace_modality(subj_dir, subject, tag, shape=(32, 32, 20), affine=None, seed=5):
    rng = np.random.default_rng(seed)
    data = rng.gamma(2.0, 50.0, size=shape).astype(np.float32)
    path = subj_dir / f"{subject}-{tag.lower()}.nii.gz"
    write_volume(Volume(data=data, affine=affine if affine is not None else e2e_affine()), path)


def test_shape_mismatch_detected(tmp_path):
    subj = write_subject(tmp_path, "sub-10")
    replace_modality(subj, "sub-10", "T2w", shape=(32, 32, 21))
    report = validate_subject(inputs_for(subj, "sub-10"), get_task_spec("gli-pre"))
    errors = [f for f in report.errors if f.code == SHAPE_MISMATCH]
    assert len(errors) == 1
    assert "T2w" in errors[0].message
    assert not report.passed


def test_spacing_mismatch_detected(tmp_path):
    subj = write_subject(tmp_path, "sub-11")
    affine = e2e_affine()
    affine[0, 0] = 1.5
    replace_modality(subj, "sub-11", "FLA", affine=affine)
    report = validate_subject(inputs_for(subj, "sub-11"), get_task_spec("gli-pre"))
    assert SPACING_MISMATCH in codes_of(report, SEVERITY_ERROR)
    assert SHAPE_MISMATCH not in codes_of(report)


def test_half_voxel_translation_is_affine_mismatch(tmp_path):
    subj = write_subject(tmp_path, "sub-12")
    affine = e2e_affine()
    affine[0, 3] += 0.5  # same shape, same spacing, shifted origin
    replace_modality(subj, "sub-12", "T1n", affine=affine)
    report = validate_subject(inputs_for(subj, "sub-12"), get_task_spec("gli-pre"))
    assert AFFINE_MISMATCH in codes_of(report, SEVERITY_ERROR)
    assert SPACING_MISMATCH not in codes_of(report)
    assert SHAPE_MISMATCH not in codes_of(report)


def test_findings_keep_their_order_unreadable_then_grid_then_content(tmp_path):
    subj = write_subject(tmp_path, "sub-19")
    (subj / "sub-19-t1c.nii.gz").write_bytes(b"not a volume at all")
    write_volume(
        Volume(data=np.full((32, 32, 20), -1.0, dtype=np.float32), affine=e2e_affine()),
        subj / "sub-19-t1n.nii.gz",
    )
    replace_modality(subj, "sub-19", "T2w", shape=(32, 32, 21))
    write_volume(
        Volume(data=np.full((32, 32, 20), 7.0, dtype=np.float32), affine=e2e_affine()),
        subj / "sub-19-fla.nii.gz",
    )
    report = validate_subject(inputs_for(subj, "sub-19"), get_task_spec("gli-pre"))
    assert [(f.code, f.message.split()[0]) for f in report.findings] == [
        (UNREADABLE_INPUT, "T1c"),
        (SHAPE_MISMATCH, "T2w"),
        (INTENSITY_SUSPECT, "T1n"),
        (INTENSITY_SUSPECT, "FLA"),
        (ATLAS_GRID_DEVIATION, "grid"),
    ]
    assert set(report.grids) == set(report.per_modality_geometry) == {"T1n", "T2w", "FLA"}
    assert report.grids["T2w"].shape == (32, 32, 21)


def test_validation_holds_one_decoded_input_at_a_time(tmp_path):
    shape = (64, 64, 40)
    rng = np.random.default_rng(3)
    files = {}
    for tag in ("T1c", "T1n", "T2w", "FLA"):
        data = rng.gamma(2.0, 50.0, size=shape).astype(np.float32)
        files[tag] = write_volume(Volume(data=data, affine=e2e_affine()), tmp_path / f"{tag}.nii")
    one_input = 4 * shape[0] * shape[1] * shape[2]
    inputs = SubjectInputs(subject_id="sub-20", files=files)
    spec = get_task_spec("gli-pre")
    tracemalloc.start()
    try:
        report = validate_subject(inputs, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2 * one_input, f"peak {peak / one_input:.2f}x one input"


def test_a_two_thread_map_finds_what_the_serial_one_finds_holding_two_inputs(tmp_path):
    shape = (64, 64, 40)
    rng = np.random.default_rng(3)
    files = {}
    for tag in ("T1c", "T1n", "T2w", "FLA"):
        data = rng.gamma(2.0, 50.0, size=shape).astype(np.float32)
        files[tag] = write_volume(Volume(data=data, affine=e2e_affine()), tmp_path / f"{tag}.nii")
    one_input = 4 * shape[0] * shape[1] * shape[2]
    spec = get_task_spec("gli-pre")
    good = SubjectInputs(subject_id="sub-21", files=files)
    # An unreadable input and a non-NIfTI one between good ones.
    (tmp_path / "T1n-bad.nii").write_bytes(b"not a NIfTI file")
    damaged = SubjectInputs(
        subject_id="sub-21", files={**files, "T1n": tmp_path / "T1n-bad.nii", "T2w": tmp_path / "T2w.img"}
    )
    with ThreadPoolExecutor(max_workers=2) as pool:
        tracemalloc.start()
        try:
            report = validate_subject(good, spec, map=pool.map)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report == validate_subject(good, spec)
        assert peak < 2.5 * one_input, f"peak {peak / one_input:.2f}x one input"

        threaded = validate_subject(damaged, spec, map=pool.map)
    serial = validate_subject(damaged, spec)
    assert [f.code for f in serial.errors] == [UNREADABLE_INPUT, UNREADABLE_INPUT]
    assert threaded == serial
    assert {t: (g.shape, g.affine.tolist()) for t, g in threaded.grids.items()} == {
        t: (g.shape, g.affine.tolist()) for t, g in serial.grids.items()
    }


def test_check_grid_consistency_trivial_cases():
    assert check_grid_consistency({}) == []
    vol = Volume(data=np.zeros((4, 4, 4), dtype=np.uint8), affine=np.eye(4))
    assert check_grid_consistency({"T1c": vol}) == []


def test_check_grid_consistency_one_finding_per_volume():
    ref = Volume(data=np.zeros((4, 4, 4), dtype=np.uint8), affine=np.eye(4))
    bad_shape = Volume(data=np.zeros((4, 4, 5), dtype=np.uint8), affine=np.eye(4))
    shifted = np.eye(4)
    shifted[1, 3] = 2.0
    bad_affine = Volume(data=np.zeros((4, 4, 4), dtype=np.uint8), affine=shifted)
    findings = check_grid_consistency({"a": ref, "b": bad_shape, "c": bad_affine})
    assert [f.code for f in findings] == [SHAPE_MISMATCH, AFFINE_MISMATCH]


# -- other findings -----------------------------------------------------------


def test_declared_space_mismatch(tmp_path):
    subj = write_subject(tmp_path, "sub-13")
    report = validate_subject(
        inputs_for(subj, "sub-13", declared_space="MNI152"), get_task_spec("gli-pre")
    )
    assert SPACE_MISMATCH in codes_of(report, SEVERITY_ERROR)
    assert not report.passed


def test_matching_declared_space_accepted(tmp_path):
    subj = write_subject(tmp_path, "sub-14")
    report = validate_subject(
        inputs_for(subj, "sub-14", declared_space="SRI24"), get_task_spec("gli-pre")
    )
    assert SPACE_MISMATCH not in codes_of(report)
    assert report.passed


def test_unreadable_input_degrades_to_finding(tmp_path):
    subj = write_subject(tmp_path, "sub-15")
    (subj / "sub-15-t1c.nii.gz").write_bytes(b"not a volume at all")
    report = validate_subject(inputs_for(subj, "sub-15"), get_task_spec("gli-pre"))
    errors = [f for f in report.errors if f.code == UNREADABLE_INPUT]
    assert len(errors) == 1
    assert "T1c" in errors[0].message
    assert not report.passed
    # the other three still validated
    assert set(report.per_modality_geometry) == {"T1n", "T2w", "FLA"}


def test_singular_header_affine_degrades_to_finding(tmp_path):
    subj = write_subject(tmp_path, "sub-16")
    zero_srow_x(subj / "sub-16-t1c.nii.gz")
    report = validate_subject(inputs_for(subj, "sub-16"), get_task_spec("gli-pre"))
    errors = [f for f in report.errors if f.code == UNREADABLE_INPUT]
    assert len(errors) == 1
    assert "T1c" in errors[0].message and "singular" in errors[0].message
    assert not report.passed
    assert set(report.per_modality_geometry) == {"T1n", "T2w", "FLA"}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_vox_offset_degrades_to_finding(tmp_path, value):
    subj = write_subject(tmp_path, "sub-17")
    set_vox_offset(subj / "sub-17-t1c.nii.gz", value)
    report = validate_subject(inputs_for(subj, "sub-17"), get_task_spec("gli-pre"))
    errors = [f for f in report.errors if f.code == UNREADABLE_INPUT]
    assert len(errors) == 1
    assert "T1c" in errors[0].message and "vox_offset" in errors[0].message
    assert not report.passed
    assert set(report.per_modality_geometry) == {"T1n", "T2w", "FLA"}


def test_constant_image_warns(tmp_path):
    subj = write_subject(tmp_path, "sub-16")
    data = np.full((32, 32, 20), 7.0, dtype=np.float32)
    write_volume(Volume(data=data, affine=e2e_affine()), subj / "sub-16-t2w.nii.gz")
    report = validate_subject(inputs_for(subj, "sub-16"), get_task_spec("gli-pre"))
    suspect = [f for f in report.warnings if f.code == INTENSITY_SUSPECT]
    assert len(suspect) == 1
    assert "T2w" in suspect[0].message
    assert report.passed  # warning only


def test_negative_intensities_warn(tmp_path):
    subj = write_subject(tmp_path, "sub-17")
    rng = np.random.default_rng(0)
    data = rng.normal(-10.0, 5.0, size=(32, 32, 20)).astype(np.float32)
    write_volume(Volume(data=data, affine=e2e_affine()), subj / "sub-17-fla.nii.gz")
    report = validate_subject(inputs_for(subj, "sub-17"), get_task_spec("gli-pre"))
    assert any(
        f.code == INTENSITY_SUSPECT and "negative" in f.message for f in report.warnings
    )
    assert report.passed


def test_nan_intensities_warn(tmp_path):
    subj = write_subject(tmp_path, "sub-18")
    t2w = subj / "sub-18-t2w.nii.gz"
    data = np.array(read_volume(t2w).data, dtype=np.float32)
    data[3, 4, 5] = np.nan
    write_volume(Volume(data=data, affine=e2e_affine()), t2w)
    report = validate_subject(inputs_for(subj, "sub-18"), get_task_spec("gli-pre"))
    suspect = [f.message for f in report.warnings if f.code == INTENSITY_SUSPECT]
    assert suspect == ["T2w holds NaN intensities"]
    assert report.passed  # warning only


def test_subject_id_validation():
    with pytest.raises(ValueError, match="subject id"):
        SubjectInputs(subject_id="bad id!", files={})


def test_missing_everything_fails_loudly():
    report = validate_subject(
        SubjectInputs(subject_id="sub-18", files={}), get_task_spec("gli-pre")
    )
    assert len([f for f in report.errors if f.code == MISSING_MODALITY]) == 4
    assert not report.passed
    assert_verdict_consistent(report)


# -- native-space context -----------------------------------------------------


def native_inputs(tmp_path, subject="sub-01", task=TaskId.GLI_PRE):
    """A subject with an identity native->SRI24 sidecar and a native reference."""
    subj = write_subject(tmp_path, subject, task=task)
    add_native_context(subj, subject)
    return inputs_for(
        subj,
        subject,
        task,
        transform_sidecars=(subj / f"{subject}_native2SRI24.json",),
        native_reference=subj / f"{subject}-native.nii.gz",
    )


def test_native_context_rides_on_a_passing_report(tmp_path):
    inputs = native_inputs(tmp_path)
    report = validate_subject(inputs, get_task_spec("gli-pre"), native_space_output=True)
    assert report.passed
    assert codes_of(report) == [ATLAS_GRID_DEVIATION]
    forward, grid = report.native
    expected_forward = read_transform(inputs.transform_sidecars[0])
    expected_grid = GridSpec(*read_grid(inputs.native_reference))
    assert np.array_equal(forward.matrix, expected_forward.matrix)
    assert (forward.source_space, forward.target_space) == ("native", "SRI24")
    assert grid.shape == expected_grid.shape
    assert np.array_equal(grid.affine, expected_grid.affine)


def test_missing_sidecar_is_a_missing_transform(tmp_path):
    inputs = native_inputs(tmp_path)
    inputs.transform_sidecars[0].unlink()
    report = validate_subject(inputs, get_task_spec("gli-pre"), native_space_output=True)
    assert codes_of(report, SEVERITY_ERROR) == [MISSING_TRANSFORM]
    assert report.findings[-1].code == MISSING_TRANSFORM  # after every other finding
    assert report.native is None
    assert_verdict_consistent(report)


def test_a_sidecar_of_numeric_strings_is_skipped_as_unreadable(tmp_path):
    inputs = native_inputs(tmp_path)
    sidecar = inputs.transform_sidecars[0]
    doc = json.loads(sidecar.read_text())
    doc["matrix"] = [str(v) for v in doc["matrix"]]
    sidecar.write_text(json.dumps(doc))
    report = validate_subject(inputs, get_task_spec("gli-pre"), native_space_output=True)
    assert codes_of(report, SEVERITY_ERROR) == [MISSING_TRANSFORM]
    assert report.native is None


def test_cut_native_reference_is_one_unreadable_input(tmp_path):
    inputs = native_inputs(tmp_path)
    reference = inputs.native_reference
    reference.write_bytes(reference.read_bytes()[:40])
    report = validate_subject(inputs, get_task_spec("gli-pre"), native_space_output=True)
    errors = report.errors
    assert [f.code for f in errors] == [UNREADABLE_INPUT]
    assert errors[0].message.startswith("native reference (")
    assert not report.passed
    assert report.native is None


@pytest.mark.parametrize("damage", [None, "cut_reference", "no_sidecar"])
def test_the_native_context_is_one_more_item_of_the_decode_map(tmp_path, damage):
    inputs = native_inputs(tmp_path)
    # A constant input gives a content finding, which stays before the native ones.
    write_volume(
        Volume(data=np.full((32, 32, 20), 7.0, dtype=np.float32), affine=e2e_affine()), inputs.files["T1n"]
    )
    if damage == "cut_reference":
        inputs.native_reference.write_bytes(inputs.native_reference.read_bytes()[:40])
    elif damage == "no_sidecar":
        inputs.transform_sidecars[0].unlink()
    task = get_task_spec("gli-pre")
    items = []
    with ThreadPoolExecutor(max_workers=2) as pool:

        def recording_map(fn, *iterables):
            iterables = [list(it) for it in iterables]
            items.append(len(iterables[0]))
            return pool.map(fn, *iterables)

        report = validate_subject(inputs, task, native_space_output=True, map=recording_map)
    assert items == [len(inputs.files) + 1]
    assert report == validate_subject(inputs, task, native_space_output=True)
    found = [(f.code, f.message.split()[0]) for f in report.findings]
    head = [(INTENSITY_SUSPECT, "T1n"), (ATLAS_GRID_DEVIATION, "grid")]
    if damage is None:
        assert found == head
        assert report.passed and report.native is not None
    else:
        last = (UNREADABLE_INPUT, "native") if damage == "cut_reference" else (MISSING_TRANSFORM, "native-space")
        assert found == [*head, last]
        assert not report.passed and report.native is None


def test_native_space_task_needs_no_native_context(tmp_path):
    inputs = native_inputs(tmp_path, "sub-03", TaskId.PED)
    task = get_task_spec("ped")
    report = validate_subject(inputs, task, native_space_output=True)
    assert report.findings == validate_subject(inputs, task).findings
    assert report.native is None


def test_native_context_stays_out_of_the_json_report(tmp_path):
    inputs = native_inputs(tmp_path)
    task = get_task_spec("gli-pre")
    with_native = validate_subject(inputs, task, native_space_output=True)
    assert with_native.native is not None
    assert with_native.to_json_dict() == validate_subject(inputs, task).to_json_dict()
