"""Command-line interface: subcommand wiring, exit codes, JSON output,
and environment overrides. Everything runs in-process through main()."""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from brainorch import cli as cli_module
from brainorch import pipeline
from brainorch.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main
from brainorch.geometry import AffineTransform, write_transform
from brainorch.nifti import Volume, read_volume, write_mask, write_volume
from brainorch.registry import TaskId

from fixtures_e2e import (
    E2E_ALGOS,
    UNDECODABLE_SIDECARS,
    add_native_context,
    behaviors_payload,
    catalog_override_payload,
    e2e_affine,
    expected_candidate_masks,
    fail_first_copy_into,
    fake_digest,
    write_subject,
    zero_srow_x,
)
from oracles import brute_majority, shift_mask
from readme_quickstart import write_quick_start

ALGO_IDS = tuple(algo_id for algo_id, _, _ in E2E_ALGOS)


@pytest.fixture
def workspace(tmp_path):
    """Subject dirs plus behavior and catalog files covering gli-pre and inpaint."""
    subj = write_subject(tmp_path, "sub-01")
    inpaint_subj = write_subject(tmp_path, "sub-09", task=TaskId.INPAINT)

    behaviors = behaviors_payload()
    behaviors["images"]["example/mock-inpaint"] = {
        "content_digest": "sha256:" + fake_digest("mock-inpaint"),
        "outputs": [
            {
                "path": "synthesis.nii.gz",
                "generator": "mean_fill",
                "image": "*-t1n.nii*",
                "mask": "*-mask.nii*",
            }
        ],
    }
    behaviors_path = tmp_path / "behaviors.json"
    behaviors_path.write_text(json.dumps(behaviors))

    catalog = catalog_override_payload()
    catalog["algorithms"].append(
        {
            "id": "mock-inpaint-2025-1",
            "task_id": "inpaint",
            "year": 2025,
            "rank": 1,
            "team_reference": "mock-inpaint stub",
            "image_reference": f"example/mock-inpaint@sha256:{fake_digest('mock-inpaint')}",
            "requires_gpu": False,
        }
    )
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(json.dumps(catalog))

    return {
        "root": tmp_path,
        "subject": subj,
        "inpaint_subject": inpaint_subj,
        "behaviors": behaviors_path,
        "catalog": catalog_path,
        "output": tmp_path / "bundles",
    }


def mock_args(ws, *extra):
    # engine flags belong to the subcommand, so they go after it
    return [
        *extra,
        "--engine",
        "mock",
        "--mock-behaviors",
        str(ws["behaviors"]),
        "--catalog",
        str(ws["catalog"]),
    ]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- segment -------------------------------------------------------------------


def test_segment_golden_run_with_json(capsys, workspace):
    argv = [
        "segment",
        "--task",
        "gli-pre",
        "-i",
        str(workspace["subject"]),
        "-o",
        str(workspace["output"]),
        "--parallel",
        "2",
        "--json",
    ]
    for algo_id in ALGO_IDS:
        argv += ["--algo", algo_id]
    code, out, err = run(capsys, mock_args(workspace, *argv))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "segment"
    assert payload["manifest"]["subject"] == "sub-01"
    assert "bundle written to" in err

    consensus = read_volume(workspace["output"] / "sub-01" / "gli-pre" / "consensus.nii.gz")
    masks = [expected_candidate_masks()[a] for a in ALGO_IDS]
    np.testing.assert_array_equal(consensus.data, brute_majority(masks, (3, 1, 2), (3, 1, 2)))


def test_segment_defaults_to_latest_winner(capsys, workspace):
    code, out, _ = run(
        capsys,
        mock_args(
            workspace,
            "segment",
            "--task",
            "gli-pre",
            "-i",
            str(workspace["subject"]),
            "-o",
            str(workspace["output"]),
            "--json",
        ),
    )
    assert code == EXIT_OK
    manifest = json.loads(out)["manifest"]
    assert [row["id"] for row in manifest["algorithms"]] == ["mock-gli-1"]


def test_segment_fusion_flags_reach_the_run(capsys, workspace):
    argv = mock_args(
        workspace,
        "segment",
        "--task",
        "gli-pre",
        "-i",
        str(workspace["subject"]),
        "-o",
        str(workspace["output"]),
        "--fusion",
        "simple",
        "--max-iterations",
        "5",
        "--json",
    )
    for algo_id in ALGO_IDS:
        argv += ["--algo", algo_id]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    fusion = json.loads(out)["manifest"]["fusion"]
    assert fusion["method"] == "simple"
    assert fusion["params"]["max_iterations"] == 5


def test_segment_validation_failure_exits_1(capsys, workspace):
    broken = write_subject(workspace["root"], "sub-02", drop=("FLA",))
    code, out, err = run(
        capsys,
        mock_args(
            workspace,
            "segment",
            "--task",
            "gli-pre",
            "-i",
            str(broken),
            "-o",
            str(workspace["output"]),
            "--json",
        ),
    )
    assert code == EXIT_VALIDATION
    payload = json.loads(out)
    assert payload["error"]["type"] == "ValidationFailed"
    codes = [f["code"] for f in payload["report"]["findings"]]
    assert "MISSING_MODALITY" in codes
    assert "validation failed" in err


def test_segment_input_without_a_nifti_suffix_exits_1(capsys, workspace, monkeypatch):
    subject = workspace["subject"]
    renamed = subject / "t1c-copy.img"
    (subject / "sub-01-t1c.nii.gz").rename(renamed)
    real_discover = cli_module.discover_subject_inputs

    def discover(directory, task):
        inputs = real_discover(directory, task)
        return dataclasses.replace(inputs, files={**inputs.files, "T1c": renamed})

    monkeypatch.setattr(cli_module, "discover_subject_inputs", discover)
    argv = ["segment", "--task", "gli-pre", "-i", str(subject), "-o", str(workspace["output"]), "--json"]
    code, out, err = run(capsys, mock_args(workspace, *argv))
    assert code == EXIT_VALIDATION
    findings = json.loads(out)["report"]["findings"]
    assert [(f["code"], f["message"]) for f in findings if f["severity"] == "error"] == [
        ("UNREADABLE_INPUT", "T1c (t1c-copy.img): not a .nii or .nii.gz file")
    ]
    assert "validation failed" in err
    assert not (workspace["output"] / "sub-01").exists()


def test_segment_native_with_a_damaged_reference_exits_1(capsys, workspace):
    add_native_context(workspace["subject"], "sub-01")
    reference = workspace["subject"] / "sub-01-native.nii.gz"
    reference.write_bytes(reference.read_bytes()[:40])
    argv = ["segment", "--task", "gli-pre", "-i", str(workspace["subject"]), "-o", str(workspace["output"])]
    code, out, err = run(capsys, mock_args(workspace, *argv, "--native", "--json"))
    assert code == EXIT_VALIDATION
    findings = json.loads(out)["report"]["findings"]
    assert [f["code"] for f in findings if f["severity"] == "error"] == ["UNREADABLE_INPUT"]
    assert "native reference (sub-01-native.nii.gz)" in err
    assert not (workspace["output"] / "sub-01").exists()


@pytest.mark.parametrize("damage", sorted(UNDECODABLE_SIDECARS))
def test_segment_native_with_an_undecodable_sidecar_exits_1(capsys, workspace, damage):
    add_native_context(workspace["subject"], "sub-01")
    (workspace["subject"] / "sub-01_native2SRI24.json").write_bytes(UNDECODABLE_SIDECARS[damage])
    argv = ["segment", "--task", "gli-pre", "-i", str(workspace["subject"]), "-o", str(workspace["output"])]
    code, out, _ = run(capsys, mock_args(workspace, *argv, "--native", "--json"))
    assert code == EXIT_VALIDATION
    findings = json.loads(out)["report"]["findings"]
    assert [f["code"] for f in findings if f["severity"] == "error"] == ["MISSING_TRANSFORM"]
    assert not (workspace["output"] / "sub-01").exists()


def test_segment_unknown_algorithm_exits_2(capsys, workspace):
    code, out, _ = run(
        capsys,
        mock_args(
            workspace,
            "segment",
            "--task",
            "gli-pre",
            "-i",
            str(workspace["subject"]),
            "-o",
            str(workspace["output"]),
            "--algo",
            "ghost-algo",
            "--json",
        ),
    )
    assert code == EXIT_USAGE
    assert json.loads(out)["error"]["type"] == "UnknownAlgorithm"


def test_a_bad_behaviors_file_exits_2_before_any_job_runs(capsys, workspace, tmp_path):
    doc = behaviors_payload()
    doc["images"]["example/mock-gli-1"]["outputs"][0]["generator"] = "no_such_generator"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = ["segment", "--task", "gli-pre", "-i", str(workspace["subject"]), "-o", str(workspace["output"]),
            "--engine", "mock", "--mock-behaviors", str(bad), "--catalog", str(workspace["catalog"]), "--json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_USAGE
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"{bad}: image 'example/mock-gli-1': 'outputs' item 0: 'generator' must be")
    assert not workspace["output"].exists()


def test_a_behaviors_output_path_leaving_the_job_directory_exits_2(capsys, workspace, tmp_path):
    doc = behaviors_payload()
    doc["images"]["example/mock-gli-2"]["outputs"].append({"path": "../escape.txt", "generator": "write_text"})
    bad = tmp_path / "escape.json"
    bad.write_text(json.dumps(doc))
    argv = ["segment", "--task", "gli-pre", "-i", str(workspace["subject"]), "-o", str(workspace["output"]),
            "--engine", "mock", "--mock-behaviors", str(bad), "--catalog", str(workspace["catalog"]), "--json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_USAGE
    message = json.loads(out)["error"]["message"]
    assert message.startswith(f"{bad}: image 'example/mock-gli-2': 'outputs' item 1: 'path' must be")
    assert not workspace["output"].exists()
    assert not list(tmp_path.rglob("escape.txt"))


@pytest.mark.parametrize("pattern", ["../outside.nii.gz", "<absolute>"], ids=["parent", "absolute"])
def test_a_behaviors_input_pattern_leaving_the_job_directory_exits_2(capsys, workspace, tmp_path, pattern):
    if pattern == "<absolute>":  # a real volume, which the generator would read
        pattern = str(next(workspace["subject"].glob("*-t1c.nii*")))
    doc = behaviors_payload()
    doc["images"]["example/mock-gli-2"]["outputs"][0]["like"] = pattern
    bad = tmp_path / "outside.json"
    bad.write_text(json.dumps(doc))
    argv = ["segment", "--task", "gli-pre", "-i", str(workspace["subject"]), "-o", str(workspace["output"]),
            "--engine", "mock", "--mock-behaviors", str(bad), "--catalog", str(workspace["catalog"]), "--json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_USAGE
    message = json.loads(out)["error"]["message"]
    assert message.startswith(f"{bad}: image 'example/mock-gli-2': 'outputs' item 0: 'like' must be a string pattern")
    assert not workspace["output"].exists()


def test_a_missing_behaviors_file_exits_3_naming_it(capsys, workspace, tmp_path):
    missing = tmp_path / "no-such-behaviors.json"
    argv = ["segment", "--task", "gli-pre", "-i", str(workspace["subject"]), "-o", str(workspace["output"]),
            "--engine", "mock", "--mock-behaviors", str(missing), "--catalog", str(workspace["catalog"]), "--json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_RUNTIME
    error = json.loads(out)["error"]
    assert (error["type"], str(missing) in error["message"]) == ("IoFailure", True)
    assert not workspace["output"].exists()


def test_segment_all_jobs_failed_exits_3(capsys, workspace, tmp_path):
    doc = behaviors_payload()
    for image in doc["images"].values():
        image["exit_code"] = 1
        image["outputs"] = []
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys,
        [
            "segment",
            "--task",
            "gli-pre",
            "-i",
            str(workspace["subject"]),
            "-o",
            str(workspace["output"]),
            "--engine",
            "mock",
            "--mock-behaviors",
            str(failing),
            "--catalog",
            str(workspace["catalog"]),
            "--json",
        ],
    )
    assert code == EXIT_RUNTIME
    assert json.loads(out)["error"]["type"] == "AllJobsFailed"


def test_segment_collision_exits_3(capsys, workspace):
    argv = mock_args(
        workspace,
        "segment",
        "--task",
        "gli-pre",
        "-i",
        str(workspace["subject"]),
        "-o",
        str(workspace["output"]),
        "--json",
    )
    assert run(capsys, argv)[0] == EXIT_OK
    code, out, _ = run(capsys, argv)
    assert code == EXIT_RUNTIME
    assert json.loads(out)["error"]["type"] == "OutputCollision"
    assert run(capsys, argv + ["--force"])[0] == EXIT_OK


@pytest.mark.parametrize("force", [[], ["--force"]])
def test_segment_onto_a_file_at_the_bundle_path_exits_3(capsys, workspace, force):
    target = workspace["output"] / "sub-01" / "gli-pre"
    target.parent.mkdir(parents=True)
    target.write_text("not a bundle")
    argv = ["segment", "--task", "gli-pre", "-i", str(workspace["subject"]), "-o", str(workspace["output"]), *force]
    code, _, err = run(capsys, mock_args(workspace, *argv))
    assert code == EXIT_RUNTIME
    assert err.startswith(f"error: output bundle {target}: {target} is not a directory"), err


def test_segment_onto_a_dangling_link_at_the_bundle_path_exits_3_before_any_job(capsys, workspace):
    link = workspace["output"] / "sub-01"
    link.parent.mkdir(parents=True)
    link.symlink_to(workspace["output"] / "missing")
    argv = ["segment", "--task", "gli-pre", "-i", str(workspace["subject"]), "-o", str(workspace["output"]), "--json"]
    code, out, err = run(capsys, mock_args(workspace, *argv))
    assert code == EXIT_RUNTIME
    target = link / "gli-pre"
    assert err.startswith(f"error: output bundle {target}: {link} is not a directory"), err
    assert json.loads(out)["error"]["type"] == "OutputCollision"
    assert sorted(p.name for p in workspace["output"].iterdir()) == ["sub-01"]


@pytest.mark.parametrize("parallel", ["1", "2"])
@pytest.mark.parametrize("folder", ["input", "candidates"])  # the first staged input, the first candidate copy
def test_segment_with_a_failed_copy_into_the_run_exits_3_naming_the_file(capsys, workspace, monkeypatch, folder, parallel):
    failed = fail_first_copy_into(monkeypatch, folder)
    argv = ["segment", "--task", "gli-pre", "-i", str(workspace["subject"]), "-o", str(workspace["output"]),
            "--parallel", parallel, "--json"]
    code, out, err = run(capsys, mock_args(workspace, *argv))
    assert code == EXIT_RUNTIME
    assert err.startswith("error: cannot copy "), err
    assert str(failed[0]) in err
    assert json.loads(out)["error"]["type"] == "IoFailure"
    assert list(workspace["output"].iterdir()) == []  # no bundle, no staging directory


def test_segment_whose_input_vanishes_after_validation_exits_3(capsys, workspace, monkeypatch):
    validate = pipeline.validate_subject
    victim = workspace["subject"] / "sub-01-t1c.nii.gz"

    def validate_then_remove(*args, **kwargs):
        report = validate(*args, **kwargs)
        victim.unlink()
        return report

    monkeypatch.setattr(pipeline, "validate_subject", validate_then_remove)
    argv = ["segment", "--task", "gli-pre", "-i", str(workspace["subject"]), "-o", str(workspace["output"]), "--json"]
    code, out, err = run(capsys, mock_args(workspace, *argv))
    assert code == EXIT_RUNTIME
    assert err.startswith(f"error: cannot copy {victim} "), err
    assert json.loads(out)["error"]["type"] == "IoFailure"


def test_docker_engine_unreachable_exits_3(capsys, workspace):
    code, out, _ = run(
        capsys,
        [
            "segment",
            "--task",
            "gli-pre",
            "-i",
            str(workspace["subject"]),
            "-o",
            str(workspace["output"]),
            "--engine",
            "docker",
            "--endpoint",
            "http://127.0.0.1:1",
            "--catalog",
            str(workspace["catalog"]),
            "--json",
        ],
    )
    assert code == EXIT_RUNTIME
    assert json.loads(out)["error"]["type"] == "EngineUnreachable"


# -- synthesize ----------------------------------------------------------------


def test_synthesize_inpaint(capsys, workspace):
    code, out, _ = run(
        capsys,
        mock_args(
            workspace,
            "synthesize",
            "--task",
            "inpaint",
            "-i",
            str(workspace["inpaint_subject"]),
            "-o",
            str(workspace["output"]),
            "--algo",
            "mock-inpaint-2025-1",
            "--json",
        ),
    )
    assert code == EXIT_OK
    manifest = json.loads(out)["manifest"]
    assert manifest["synthesized_modality"] == "T1n"
    assert (workspace["output"] / "sub-09" / "inpaint" / "synthesis.nii.gz").is_file()


def test_synthesize_shows_the_manifest_warnings(capsys, workspace):
    code, out, err = run(
        capsys,
        mock_args(
            workspace,
            "synthesize",
            "--task",
            "inpaint",
            "-i",
            str(workspace["inpaint_subject"]),
            "-o",
            str(workspace["output"]),
            "--algo",
            "mock-inpaint-2025-1",
        ),
    )
    assert code == EXIT_OK
    bundle = workspace["output"] / "sub-09" / "inpaint"
    warnings = json.loads((bundle / "manifest.json").read_text())["warnings"]
    assert any(w.startswith("ATLAS_GRID_DEVIATION") for w in warnings)
    for warning in warnings:
        assert f"  warning: {warning}" in err.splitlines()
    assert out == ""


def test_synthesize_refuses_a_second_algorithm_before_any_container(capsys, monkeypatch, workspace):
    catalog = json.loads(workspace["catalog"].read_text())
    second = dict(catalog["algorithms"][-1], id="mock-inpaint-2025-2", rank=2)
    catalog["algorithms"].append(second)
    workspace["catalog"].write_text(json.dumps(catalog))
    engines = []
    build_engine = cli_module._build_engine
    monkeypatch.setattr(cli_module, "_build_engine", lambda args: engines.append(build_engine(args)) or engines[-1])
    argv = ["synthesize", "--task", "inpaint", "-i", str(workspace["inpaint_subject"]), "-o", str(workspace["output"]),
            "--algo", "mock-inpaint-2025-1", "--algo", "mock-inpaint-2025-2", "--json"]
    code, out, err = run(capsys, mock_args(workspace, *argv))
    assert code == EXIT_USAGE
    assert err.startswith("error: synthesis runs exactly one algorithm"), err
    assert json.loads(out)["error"]["type"] == "ValueError"
    assert [engine.containers_created for engine in engines] == [0]
    assert not workspace["output"].exists()


# -- validate ------------------------------------------------------------------


def test_validate_pass(capsys, workspace):
    code, out, err = run(
        capsys,
        ["validate", "--task", "gli-pre", "-i", str(workspace["subject"]), "--json"],
    )
    assert code == EXIT_OK
    report = json.loads(out)["report"]
    assert report["verdict"] == "pass"
    assert "sub-01 / gli-pre: pass" in err


def test_validate_failure_is_a_report_not_an_exception(capsys, workspace):
    broken = write_subject(workspace["root"], "sub-03", drop=("T1c",))
    code, out, err = run(
        capsys, ["validate", "--task", "gli-pre", "-i", str(broken), "--json"]
    )
    assert code == EXIT_VALIDATION
    payload = json.loads(out)
    assert payload["command"] == "validate"
    assert payload["report"]["verdict"] == "fail"
    assert "MISSING_MODALITY" in err


def test_validate_reports_a_singular_header_affine(capsys, workspace):
    subj = write_subject(workspace["root"], "sub-04")
    zero_srow_x(subj / "sub-04-t1c.nii.gz")
    code, out, err = run(capsys, ["validate", "--task", "gli-pre", "-i", str(subj), "--json"])
    assert code == EXIT_VALIDATION
    assert "error:" not in err
    assert "UNREADABLE_INPUT" in err
    assert json.loads(out)["report"]["verdict"] == "fail"


def test_validate_declared_space_mismatch(capsys, workspace):
    code, out, _ = run(
        capsys,
        [
            "validate",
            "--task",
            "gli-pre",
            "-i",
            str(workspace["subject"]),
            "--declared-space",
            "native",
            "--json",
        ],
    )
    assert code == EXIT_VALIDATION
    codes = [f["code"] for f in json.loads(out)["report"]["findings"]]
    assert "SPACE_MISMATCH" in codes


# -- fuse ----------------------------------------------------------------------


def test_fuse_files_from_disk(capsys, tmp_path):
    paths = []
    for algo_id in ALGO_IDS:
        path = tmp_path / f"{algo_id}.nii.gz"
        write_mask(Volume(data=expected_candidate_masks()[algo_id], affine=e2e_affine()), path)
        paths.append(str(path))
    out_dir = tmp_path / "fused"
    code, out, _ = run(
        capsys,
        ["fuse", *paths, "-o", str(out_dir), "--task", "gli-pre", "--json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["fusion"]["candidates"] == list(ALGO_IDS)
    masks = [expected_candidate_masks()[a] for a in ALGO_IDS]
    np.testing.assert_array_equal(
        read_volume(out_dir / "consensus.nii.gz").data,
        brute_majority(masks, (3, 1, 2), (3, 1, 2)),
    )
    assert (out_dir / "fusion.json").is_file()


@pytest.mark.parametrize("failure", ["disk-full", "output-below-a-file"])
def test_fuse_that_cannot_write_exits_3_without_a_traceback(capsys, caplog, monkeypatch, tmp_path, failure):
    mask = write_mask(Volume(data=expected_candidate_masks()[ALGO_IDS[0]], affine=e2e_affine()), tmp_path / "m.nii.gz")
    out_dir = tmp_path / "fused"
    if failure == "disk-full":
        real = Path.write_text

        def write_text(self, *args, **kwargs):
            if self.name == "fusion.json":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write_text)
    else:
        (tmp_path / "afile").write_text("not a directory")
        out_dir = tmp_path / "afile" / "out"
    code, out, err = run(capsys, ["fuse", str(mask), "-o", str(out_dir), "--json"])
    assert code == EXIT_RUNTIME
    assert err.startswith("error: "), err
    assert "Traceback" not in err and not [r for r in caplog.records if r.exc_info]
    assert json.loads(out)["exit_code"] == EXIT_RUNTIME


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fuse_non_finite_simple_params_exit_2(capsys, tmp_path, value):
    paths = []
    for algo_id in ALGO_IDS:
        path = tmp_path / f"{algo_id}.nii.gz"
        write_mask(Volume(data=expected_candidate_masks()[algo_id], affine=e2e_affine()), path)
        paths.append(str(path))
    out_dir = tmp_path / "fused"
    argv = ["fuse", *paths, "-o", str(out_dir), "--fusion", "simple", "--drop-factor", value, "--epsilon", value]
    code, _, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert "must be finite" in err
    assert not out_dir.exists()


def test_fuse_task_takes_segmentation_tasks_only(capsys, tmp_path):
    # A synthesis task has no label set: its all-zero fuse used to succeed.
    path = write_mask(Volume(data=np.zeros((4, 4, 4), dtype=np.uint8), affine=np.eye(4)), tmp_path / "m.nii.gz")
    code, _, err = run(capsys, ["fuse", str(path), "-o", str(tmp_path / "out"), "--task", "inpaint"])
    assert code == EXIT_USAGE
    assert "invalid choice: 'inpaint'" in err
    assert not (tmp_path / "out").exists()


def test_fuse_disambiguates_identical_basenames(capsys, tmp_path):
    mask = np.zeros((4, 4, 4), dtype=np.uint8)
    mask[1:3, 1:3, 1:3] = 1
    paths = []
    for sub in ("a", "b"):
        path = tmp_path / sub / "seg.nii.gz"
        path.parent.mkdir()
        write_mask(Volume(data=mask, affine=np.eye(4)), path)
        paths.append(str(path))
    code, out, _ = run(capsys, ["fuse", *paths, "-o", str(tmp_path / "out"), "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["fusion"]["candidates"] == ["seg", "seg-2"]


@pytest.mark.parametrize("task", [[], ["--task", "gli-pre"]])
def test_fuse_float_mask_with_nan_is_non_integer_dtype(capsys, tmp_path, task):
    good = np.zeros((4, 4, 4), dtype=np.uint8)
    good[1:3, 1:3, 1:3] = 1
    bad = good.astype(np.float32)
    bad[0, 0, 0] = np.nan
    write_volume(Volume(data=bad, affine=np.eye(4)), tmp_path / "a.nii.gz")
    write_mask(Volume(data=good, affine=np.eye(4)), tmp_path / "b.nii.gz")
    argv = ["fuse", str(tmp_path / "a.nii.gz"), str(tmp_path / "b.nii.gz"), "-o", str(tmp_path / "out"), *task]
    code, _, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert "candidate 'a' has non-integer dtype float32" in err


def test_fuse_more_than_64_masks_exits_2(capsys, tmp_path):
    mask = np.zeros((2, 2, 2), dtype=np.uint8)
    mask[0, 0, 0] = 1
    paths = []
    for i in range(65):
        paths.append(tmp_path / f"m{i}.nii.gz")
        write_mask(Volume(data=mask, affine=np.eye(4)), paths[-1])
    code, _, err = run(capsys, ["fuse", *map(str, paths), "-o", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "65 candidate masks; fusion takes at most 64" in err
    assert not (tmp_path / "out").exists()


def test_fuse_single_mask_is_identity(capsys, tmp_path):
    mask = np.zeros((4, 4, 4), dtype=np.uint8)
    mask[0, 0, 0] = 1
    path = tmp_path / "only.nii.gz"
    write_mask(Volume(data=mask, affine=np.eye(4)), path)
    code, out, _ = run(capsys, ["fuse", str(path), "-o", str(tmp_path / "out"), "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["fusion"]["method"] == "identity"


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("code", [300, -2])
def test_fuse_label_code_outside_uint8_exits_2(capsys, tmp_path, code, count):
    # uint8 holds the consensus: 300 would be written as 44, -2 as 254.
    mask = np.zeros((4, 4, 4), dtype=np.int16)
    mask[1, 1, 1] = 1
    mask[2, 2, 2] = code
    paths = [
        str(write_volume(Volume(data=mask, affine=np.eye(4)), tmp_path / f"m{i}.nii.gz"))
        for i in range(count)
    ]
    code_, out, _ = run(capsys, ["fuse", *paths, "-o", str(tmp_path / "out"), "--json"])
    assert code_ == EXIT_USAGE
    assert json.loads(out)["error"] == {
        "type": "ValueError", "message": f"label 'L{code}' has code {code}, outside 1..255"
    }
    assert not (tmp_path / "out" / "consensus.nii.gz").exists()


@pytest.mark.parametrize("fusion", ["majority", "simple"])
def test_fuse_and_warp_re_derive_a_bundle(capsys, workspace, fusion):
    subject = workspace["subject"]
    add_native_context(subject, "sub-01")
    argv = ["segment", "--task", "gli-pre", "-i", str(subject), "-o", str(workspace["output"]), "--native"]
    for algo_id in ALGO_IDS:
        argv += ["--algo", algo_id]
    assert run(capsys, mock_args(workspace, *argv, "--fusion", fusion))[0] == EXIT_OK
    bundle = workspace["output"] / "sub-01" / "gli-pre"
    candidates = json.loads((bundle / "fusion.json").read_text())["candidates"]
    assert len(candidates) == 3
    masks = [str(bundle / "candidates" / f"{sid}.nii.gz") for sid in candidates]

    again = workspace["root"] / "refused"
    argv = ["fuse", *masks, "-o", str(again), "--task", "gli-pre", "--fusion", fusion]
    assert run(capsys, argv)[0] == EXIT_OK
    for name in ("consensus.nii.gz", "fusion.json"):
        assert (again / name).read_bytes() == (bundle / name).read_bytes(), name

    native = workspace["root"] / "consensus-native.nii.gz"
    argv = [
        "warp", "-i", str(again / "consensus.nii.gz"), "-t", str(subject / "sub-01_native2SRI24.json"),
        "--invert", "--like", str(subject / "sub-01-native.nii.gz"), "--interp", "nearest", "-o", str(native),
    ]
    assert run(capsys, argv)[0] == EXIT_OK
    assert native.read_bytes() == (bundle / "native" / "consensus-native.nii.gz").read_bytes()


# -- warp ----------------------------------------------------------------------


def test_warp_and_inverse_round_trip(capsys, tmp_path):
    data = np.zeros((10, 10, 10), dtype=np.uint8)
    data[3:6, 3:6, 3:6] = 1
    src = tmp_path / "mask.nii.gz"
    write_mask(Volume(data=data, affine=np.eye(4)), src)
    matrix = np.eye(4)
    matrix[:3, 3] = (2.0, 0.0, -1.0)
    sidecar = tmp_path / "sub_native2SRI24.json"
    write_transform(
        AffineTransform(matrix=matrix, source_space="native", target_space="SRI24"), sidecar
    )

    warped_path = tmp_path / "warped.nii.gz"
    code, out, _ = run(
        capsys,
        [
            "warp",
            "-i",
            str(src),
            "-t",
            str(sidecar),
            "-o",
            str(warped_path),
            "--json",
        ],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["source_space"] == "native"
    assert payload["target_space"] == "SRI24"
    np.testing.assert_array_equal(
        read_volume(warped_path).data, shift_mask(data, (2, 0, -1))
    )

    back_path = tmp_path / "back.nii.gz"
    code, _, _ = run(
        capsys,
        [
            "warp",
            "-i",
            str(warped_path),
            "-t",
            str(sidecar),
            "--invert",
            "-o",
            str(back_path),
        ],
    )
    assert code == EXIT_OK
    np.testing.assert_array_equal(read_volume(back_path).data, data)


def test_warp_trilinear_writes_float(capsys, tmp_path):
    vol = Volume(data=np.random.default_rng(7).normal(size=(6, 6, 6)).astype(np.float32), affine=np.eye(4))
    src = tmp_path / "img.nii.gz"
    from brainorch.nifti import write_volume

    write_volume(vol, src)
    sidecar = tmp_path / "sub_native2SRI24.json"
    write_transform(
        AffineTransform(matrix=np.eye(4), source_space="native", target_space="SRI24"), sidecar
    )
    out_path = tmp_path / "smooth.nii.gz"
    code, _, _ = run(
        capsys,
        ["warp", "-i", str(src), "-t", str(sidecar), "--interp", "trilinear", "-o", str(out_path)],
    )
    assert code == EXIT_OK
    got = read_volume(out_path)
    assert got.data.dtype == np.float32
    np.testing.assert_allclose(got.data, vol.data, atol=1e-6)


def test_warp_like_takes_the_target_grid_from_a_reference_file(capsys, tmp_path):
    data = np.zeros((10, 10, 10), dtype=np.uint8)
    data[3:6, 3:6, 3:6] = 1
    src = write_mask(Volume(data=data, affine=np.eye(4)), tmp_path / "mask.nii.gz")
    ref_affine = np.eye(4)
    ref_affine[:3, 3] = (2.0, 0.0, -1.0)
    ref = write_volume(Volume(data=np.zeros((6, 8, 12), dtype=np.float32), affine=ref_affine), tmp_path / "ref.nii")
    sidecar = tmp_path / "sub_native2SRI24.json"
    write_transform(AffineTransform(matrix=np.eye(4), source_space="native", target_space="SRI24"), sidecar)
    out_path = tmp_path / "warped.nii.gz"
    code, _, _ = run(capsys, ["warp", "-i", str(src), "-t", str(sidecar), "--like", str(ref), "-o", str(out_path)])
    assert code == EXIT_OK
    warped = read_volume(out_path)
    np.testing.assert_array_equal(warped.affine, ref_affine)
    # Reference voxel (i, j, k) sits on source voxel (i + 2, j, k - 1).
    expected = np.zeros((6, 8, 12), dtype=np.uint8)
    expected[:, :, 1:11] = data[2:8, 0:8, :]
    np.testing.assert_array_equal(warped.data, expected)


@pytest.mark.parametrize("matrix", ["abc", [[1, 2], [3]]], ids=["str", "ragged"])
def test_warp_with_a_malformed_sidecar_exits_3(capsys, tmp_path, matrix):
    src = write_mask(Volume(data=np.ones((4, 4, 4), dtype=np.uint8), affine=np.eye(4)), tmp_path / "m.nii.gz")
    sidecar = tmp_path / "sub_native2SRI24.json"
    write_transform(AffineTransform(matrix=np.eye(4), source_space="native", target_space="SRI24"), sidecar)
    doc = json.loads(sidecar.read_text())
    doc["matrix"] = matrix
    sidecar.write_text(json.dumps(doc))
    argv = ["warp", "-i", str(src), "-t", str(sidecar), "-o", str(tmp_path / "o.nii.gz"), "--json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_RUNTIME
    assert json.loads(out)["error"]["type"] == "MalformedTransform"
    assert not (tmp_path / "o.nii.gz").exists()


@pytest.mark.parametrize("damage", sorted(UNDECODABLE_SIDECARS))
def test_warp_with_an_undecodable_sidecar_exits_3(capsys, tmp_path, damage):
    src = write_mask(Volume(data=np.ones((4, 4, 4), dtype=np.uint8), affine=np.eye(4)), tmp_path / "m.nii.gz")
    sidecar = tmp_path / "sub_native2SRI24.json"
    sidecar.write_bytes(UNDECODABLE_SIDECARS[damage])
    argv = ["warp", "-i", str(src), "-t", str(sidecar), "-o", str(tmp_path / "o.nii.gz"), "--json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_RUNTIME
    error = json.loads(out)["error"]
    assert error["type"] == "MalformedTransform"
    assert error["message"].startswith(f"{sidecar}: not valid JSON")
    assert not (tmp_path / "o.nii.gz").exists()


# -- catalog -------------------------------------------------------------------


def test_catalog_list_json_with_env_override(capsys, monkeypatch, workspace):
    monkeypatch.setenv("ORCH_CATALOG_OVERRIDE", str(workspace["catalog"]))
    code, out, _ = run(capsys, ["catalog", "list", "--task", "gli-pre", "--json"])
    assert code == EXIT_OK
    rows = json.loads(out)["algorithms"]
    ids = [r["id"] for r in rows]
    assert set(ALGO_IDS) <= set(ids)  # the override rides on top of the builtins
    assert any(r["year"] == 2023 for r in rows)

    code, out, _ = run(
        capsys, ["catalog", "list", "--task", "gli-pre", "--year", "2025", "--json"]
    )
    assert [r["id"] for r in json.loads(out)["algorithms"]] == list(ALGO_IDS)


def test_catalog_list_human_readable(capsys, workspace):
    code, out, _ = run(
        capsys,
        ["catalog", "list", "--task", "gli-pre", "--catalog", str(workspace["catalog"])],
    )
    assert code == EXIT_OK
    assert "mock-gli-1: gli-pre 2025 rank 1, mock-gli-1 stub" in out


def test_catalog_bad_override_exits_2(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("not json at all")
    code, out, _ = run(capsys, ["catalog", "list", "--catalog", str(bad), "--json"])
    assert code == EXIT_USAGE
    assert json.loads(out)["error"]["type"] == "CatalogError"


@pytest.mark.parametrize("content", [b'{"schema_version": 1, "algorithms": ["\xff"]}', b"[" * 100_000],
                         ids=["non_utf8", "deep"])
def test_catalog_override_that_does_not_decode_exits_2_naming_the_file(capsys, tmp_path, content):
    bad = tmp_path / "undecodable.json"
    bad.write_bytes(content)
    code, _, err = run(capsys, ["catalog", "list", "--catalog", str(bad)])
    assert code == EXIT_USAGE
    assert f"error: {bad}: not valid JSON" in err
    assert "unexpected" not in err


@pytest.mark.parametrize(
    "key, value",
    [("requires_gpu", "false"), ("architecture_tags", "nnU-Net"), ("timeout_seconds", "abc"),
     ("shm_bytes", -5), ("input_mount_path", 7)],
)
def test_catalog_override_of_the_wrong_type_exits_2_before_any_container(capsys, monkeypatch, workspace, key, value):
    catalog = json.loads(workspace["catalog"].read_text())
    catalog["algorithms"][0][key] = value
    workspace["catalog"].write_text(json.dumps(catalog))
    code, out, _ = run(capsys, ["catalog", "list", "--catalog", str(workspace["catalog"]), "--json"])
    assert code == EXIT_USAGE
    error = json.loads(out)["error"]
    assert error["type"] == "CatalogError"
    assert str(workspace["catalog"]) in error["message"] and repr(key) in error["message"]

    engines = []
    build_engine = cli_module._build_engine
    monkeypatch.setattr(cli_module, "_build_engine", lambda args: engines.append(build_engine(args)) or engines[-1])
    argv = ["segment", "--task", "gli-pre", "-i", str(workspace["subject"]), "-o", str(workspace["output"]), "--json"]
    for algo_id in ALGO_IDS:
        argv += ["--algo", algo_id]
    code, out, _ = run(capsys, mock_args(workspace, *argv))
    assert code == EXIT_USAGE
    assert json.loads(out)["error"]["type"] == "CatalogError"
    assert [engine.containers_created for engine in engines] == [0]
    assert not workspace["output"].exists()


# -- parser behavior -----------------------------------------------------------


RUN_FLAGS = ["-i", "subj", "-o", "out", "--algo", "a", "--native", "--keep-intermediate", "--force", "--json",
             "--engine", "mock", "--endpoint", "e", "--mock-behaviors", "b", "--gpu", "--catalog", "c", "--parallel", "3"]


@pytest.mark.parametrize("flags", [RUN_FLAGS[:4], RUN_FLAGS], ids=["defaults", "all"])
def test_segment_and_synthesize_parse_the_same_run_flags(flags):
    parser = cli_module.build_parser()
    segment = vars(parser.parse_args(["segment", "--task", "gli-pre", *flags]))
    synthesize = vars(parser.parse_args(["synthesize", "--task", "inpaint", *flags]))
    shared = set(synthesize) - {"command", "task", "handler"}
    assert shared == {"input", "output", "algo", "native", "keep_intermediate", "force", "json",
                      "engine", "endpoint", "mock_behaviors", "gpu", "catalog", "parallel"}
    assert {k: segment[k] for k in shared} == {k: synthesize[k] for k in shared}


def test_usage_errors_exit_2(capsys):
    assert run(capsys, ["segment"])[0] == EXIT_USAGE  # missing required flags
    assert run(capsys, ["not-a-command"])[0] == EXIT_USAGE
    code, _, err = run(capsys, ["segment", "--task", "nope", "-i", "x", "-o", "y"])
    assert code == EXIT_USAGE
    assert "invalid choice" in err


def test_version_flag(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert out.startswith("orch ")


def test_missing_input_directory_exits_2(capsys, workspace):
    code, out, _ = run(
        capsys,
        mock_args(
            workspace,
            "segment",
            "--task",
            "gli-pre",
            "-i",
            str(workspace["root"] / "nowhere"),
            "-o",
            str(workspace["output"]),
            "--json",
        ),
    )
    assert code == EXIT_USAGE
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"


# -- the README quick start ----------------------------------------------------


def test_the_readme_quick_start_runs_as_written(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(write_quick_start(Path(__file__).resolve().parent.parent / "README.md"))
    assert argv[:2] == ["orch", "segment"]
    code, out, _ = run(capsys, argv[1:])
    assert code == EXIT_OK
    consensus = read_volume(Path(json.loads(out)["bundle_dir"]) / "consensus.nii.gz")
    assert (consensus.data == 3).any()
