"""Shared builders for the end-to-end fixtures.

The glioma pre-op scenario here is frozen: grid, affine, RNG seed, stub
algorithm entries, and blob geometry must not change, because expected
manifests and acceptance thresholds were derived from them.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from brainorch.geometry import AffineTransform, write_transform
from brainorch.nifti import Volume, write_volume
from brainorch.registry import TaskId, get_task_spec
from brainorch.runtime import MockBehavior, MockEngine

E2E_SHAPE = (32, 32, 20)
E2E_SEED = 20240801

# Three stub algorithms for gli-pre. Blob tuples are (code, center, radius);
# later entries overwrite earlier ones where spheres overlap.
E2E_ALGOS = (
    ("mock-gli-1", 1, [(3, (16, 16, 10), 4), (1, (10, 10, 8), 3)]),
    ("mock-gli-2", 2, [(3, (16, 15, 10), 4), (1, (10, 10, 8), 3), (2, (22, 20, 12), 3)]),
    ("mock-gli-3", 3, [(3, (16, 16, 10), 3), (1, (11, 10, 8), 3), (2, (22, 20, 12), 3)]),
)


def e2e_affine() -> np.ndarray:
    affine = np.eye(4)
    affine[:3, 3] = (-16.0, -16.0, -10.0)
    return affine


def fake_digest(name: str) -> str:
    return hashlib.sha256(name.encode()).hexdigest()


def write_subject(
    root: Path,
    subject: str,
    task=TaskId.GLI_PRE,
    shape=E2E_SHAPE,
    affine: np.ndarray | None = None,
    seed: int = E2E_SEED,
    drop: tuple = (),
    compress: bool = True,
) -> Path:
    """Write a synthetic subject directory with every input the task needs.

    ``drop`` lists input tags to leave out (for validation failure tests).
    """
    spec = get_task_spec(task)
    if affine is None:
        affine = e2e_affine()
    subj_dir = root / subject
    subj_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    suffix = ".nii.gz" if compress else ".nii"
    for tag in spec.required_inputs:
        if tag in drop:
            continue
        if tag == "MASK":
            data = np.zeros(shape, dtype=np.uint8)
            data[8:14, 8:14, 6:12] = 1
        else:
            data = rng.gamma(2.0, 50.0, size=shape).astype(np.float32)
        vol = Volume(data=data, affine=affine)
        write_volume(vol, subj_dir / f"{subject}-{tag.lower()}{suffix}")
    return subj_dir


def add_native_context(subj_dir: Path, subject: str, offset=(2.0, 0.0, 0.0)) -> None:
    """Identity registration plus a native grid whose origin is shifted."""
    write_transform(
        AffineTransform(matrix=np.eye(4), source_space="native", target_space="SRI24"),
        subj_dir / f"{subject}_native2SRI24.json",
    )
    native_affine = e2e_affine()
    native_affine[:3, 3] += np.asarray(offset)
    ref = Volume(data=np.zeros((32, 32, 20), dtype=np.float32), affine=native_affine)
    write_volume(ref, subj_dir / f"{subject}-native.nii.gz")


def zero_srow_x(path):
    """Zero the first sform row of a written .nii.gz (its sform_code is 1),
    which makes the header affine singular."""
    blob = bytearray(gzip.decompress(path.read_bytes()))
    blob[280:296] = bytes(16)  # srow_x: four float32 at byte 280
    path.write_bytes(gzip.compress(bytes(blob), mtime=0))


def set_vox_offset(path, value: float):
    """Overwrite the vox_offset field (float32 at byte 108) of a written
    .nii.gz, e.g. with NaN."""
    blob = bytearray(gzip.decompress(path.read_bytes()))
    struct.pack_into("<f", blob, 108, value)
    path.write_bytes(gzip.compress(bytes(blob), mtime=0))


def catalog_override_payload(requires_gpu: bool = False) -> dict:
    entries = []
    for algo_id, rank, _ in E2E_ALGOS:
        entries.append(
            {
                "id": algo_id,
                "task_id": "gli-pre",
                "year": 2025,
                "rank": rank,
                "team_reference": f"{algo_id} stub",
                "image_reference": f"example/{algo_id}@sha256:{fake_digest(algo_id)}",
                "requires_gpu": requires_gpu,
            }
        )
    return {"schema_version": 1, "algorithms": entries}


def write_catalog_override(path: Path, requires_gpu: bool = False) -> Path:
    path.write_text(json.dumps(catalog_override_payload(requires_gpu)))
    return path


def behaviors_payload() -> dict:
    images = {}
    for algo_id, _, blobs in E2E_ALGOS:
        images[f"example/{algo_id}"] = {
            # must match the full pinned suffix, prefix included
            "content_digest": "sha256:" + fake_digest(algo_id),
            "outputs": [
                {
                    "path": "seg.nii.gz",
                    "generator": "label_blobs",
                    "like": "*-t1c.nii*",
                    "blobs": [
                        {"label": code, "center": list(center), "radius": radius}
                        for code, center, radius in blobs
                    ],
                }
            ],
        }
    return {"schema_version": 1, "images": images}


def write_behaviors(path: Path) -> Path:
    path.write_text(json.dumps(behaviors_payload()))
    return path


def build_mock_engine(max_concurrent_jobs: int = 4, supports_gpu: bool = False) -> MockEngine:
    engine = MockEngine(supports_gpu=supports_gpu, max_concurrent_jobs=max_concurrent_jobs)
    for image, raw in behaviors_payload()["images"].items():
        engine.register(
            image,
            MockBehavior(content_digest=raw["content_digest"], outputs=tuple(raw["outputs"])),
        )
    return engine


def expected_candidate_masks(shape=E2E_SHAPE) -> dict:
    """Recompute the stub outputs directly (same sphere rule as the engine)."""
    out = {}
    for algo_id, _, blobs in E2E_ALGOS:
        data = np.zeros(shape, dtype=np.uint8)
        grid = np.indices(shape).astype(np.float64)
        for code, center, radius in blobs:
            dist2 = sum((grid[ax] - center[ax]) ** 2 for ax in range(3))
            data[dist2 <= radius**2] = code
        out[algo_id] = data
    return out
