"""Output checks applied to every published bundle.

A bundle passes when:

- every file hashes to what ``manifest.json`` lists, and the content digest
  recomputed from that list matches both the manifest and the digest pinned
  for the subject's variant (``pinned.json``), so outputs stay
  byte-identical;
- with metrics, each candidate's per-label Dice in ``metrics.json`` equals
  the Dice computed here from the candidate the mock container wrote and
  the published consensus;
- native-space and synthesis outputs sit on the expected grid with the
  expected dtype.

The bundle is read with the benchmark's own NIfTI reader, not the program's.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import niftiio
import scenario

MANIFEST = "manifest.json"
PINNED = Path(__file__).with_name("pinned.json")


def load_pins() -> dict:
    return json.loads(PINNED.read_text()) if PINNED.is_file() else {}


def bundle_files(bundle: Path) -> dict[str, Path]:
    return {p.relative_to(bundle).as_posix(): p for p in sorted(bundle.rglob("*")) if p.is_file()}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dice(a: np.ndarray, b: np.ndarray) -> float:
    """Same convention as the challenge: two empty masks score 1."""
    total = int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * int(np.logical_and(a, b).sum()) / total


def _expect_grid(path: Path, shape, affine, dtype) -> list[str]:
    if not path.is_file():
        return [f"{path.name} is missing"]
    found_shape, found_dtype, found = niftiio.read_header(path)
    problems = []
    if found_shape != tuple(shape):
        problems.append(f"{path.name}: shape {found_shape}, expected {tuple(shape)}")
    if found_dtype != np.dtype(dtype):
        problems.append(f"{path.name}: dtype {found_dtype}, expected {np.dtype(dtype)}")
    if not np.allclose(found, affine, atol=1e-4):
        problems.append(f"{path.name}: affine differs from the expected grid")
    return problems


def check_bundle(bundle: Path, workload: scenario.Workload, outputs, pinned: str | None) -> tuple[str, list[str]]:
    """``(content digest, problems)`` of one published bundle."""
    manifest = json.loads((bundle / MANIFEST).read_text())
    files = {rel: _sha256(p) for rel, p in bundle_files(bundle).items() if rel != MANIFEST}
    digest = hashlib.sha256(json.dumps(files, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    problems = []
    if files != manifest.get("files"):
        problems.append("file hashes differ from the manifest")
    if digest != manifest.get("content_digest"):
        problems.append("content_digest does not match the bundle's files")
    if pinned is not None and digest != pinned:
        problems.append(f"content_digest {digest[:12]} differs from the pinned {pinned[:12]}")

    atlas_shape = scenario.ATLAS_SHAPE
    atlas = scenario.atlas_affine(atlas_shape)
    native = scenario.native_affine(scenario.NATIVE_SHAPE, atlas_shape)
    if workload.task == "inpaint":
        problems += _expect_grid(bundle / "synthesis.nii.gz", atlas_shape, atlas, np.float32)
        if workload.native:
            problems += _expect_grid(bundle / "native" / "synthesis-native.nii.gz", scenario.NATIVE_SHAPE, native, np.float32)
        return digest, problems

    problems += _expect_grid(bundle / "consensus.nii.gz", atlas_shape, atlas, np.uint8)
    if workload.native:
        problems += _expect_grid(bundle / "native" / "consensus-native.nii.gz", scenario.NATIVE_SHAPE, native, np.uint8)
    if workload.algorithms > 1:
        consensus, _ = niftiio.read(bundle / "consensus.nii.gz")
        scores = json.loads((bundle / "metrics.json").read_text())["per_candidate"]
        for algo_id, output in zip(workload.algorithm_ids, outputs):
            candidate, _ = niftiio.read(Path(output))
            for name, code in scenario.GLI_LABELS.items():
                reported = scores[algo_id]["per_label"][name]["dsc"]
                expected = _dice(consensus == code, candidate == code)
                if reported != expected:
                    problems.append(f"{algo_id} {name}: metrics.json Dice {reported!r}, computed {expected!r}")
    return digest, problems
