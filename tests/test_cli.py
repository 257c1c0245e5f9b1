"""Command-line interface: subcommand wiring, exit codes, JSON output,
and environment overrides. Everything runs in-process through main()."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from brainorch.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main
from brainorch.geometry import AffineTransform, write_transform
from brainorch.nifti import Volume, read_volume, write_mask, write_volume
from brainorch.registry import TaskId

from fixtures_e2e import (
    E2E_ALGOS,
    add_native_context,
    behaviors_payload,
    catalog_override_payload,
    e2e_affine,
    expected_candidate_masks,
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


def test_fuse_single_mask_is_identity(capsys, tmp_path):
    mask = np.zeros((4, 4, 4), dtype=np.uint8)
    mask[0, 0, 0] = 1
    path = tmp_path / "only.nii.gz"
    write_mask(Volume(data=mask, affine=np.eye(4)), path)
    code, out, _ = run(capsys, ["fuse", str(path), "-o", str(tmp_path / "out"), "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["fusion"]["method"] == "identity"


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


# -- parser behavior -----------------------------------------------------------


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
