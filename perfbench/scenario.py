"""Seeded generator for the benchmark's subjects.

A subject is a skull-stripped brain on the canonical BraTS grid
(240x240x155 at 1 mm): an ellipsoidal support holding about 15% of the
voxels, filled with gamma-distributed intensities. The tumour nests
SNFH > NETC > ET and comes with one small satellite lesion, so lesion-wise
Dice always sees two lesions; together they stay well under 5% of the grid.
Their positions, radii and axis ratios vary per subject within fixed ranges.

Everything a mock container returns is encoded here once, at set-up:
candidate masks (four close to the truth, one shifted and enlarged outlier)
or the inpainted T1n of the synthesis task. The mock engine then only
copies those bytes.

A subject is a pure function of its variant number, so the bundle digest of
every variant can be pinned (see ``pinned.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import niftiio

ATLAS_SHAPE = (240, 240, 155)
NATIVE_SHAPE = (220, 230, 140)
NATIVE_SPACING = (1.1, 1.1, 1.2)
# A warm-up subject that would outlast a run is replaced by one on a grid
# scaled by this factor: it runs the same code paths.
WARMUP_SCALE = 0.2

MODALITIES = ("t1c", "t1n", "t2w", "fla")
# Gamma shape and scale of healthy tissue, and the factor applied inside the
# tumour, per modality.
_INTENSITY = {"t1c": (2.0, 50.0, 1.8), "t1n": (2.5, 40.0, 0.8), "t2w": (2.0, 60.0, 1.4), "fla": (3.0, 30.0, 1.6)}

# Candidate errors are drawn from this seed, not the subject's: every subject
# gets the same segmentation errors, so simple fusion takes the same path
# (iterations, drops, memory peak) whatever the seed.
CANDIDATE_ERRORS_SEED = 20250617

# Subject inputs are written at nibabel's default gzip level, which keeps
# set-up short; container outputs use level 6. Inputs are not part of the
# bundle, so their level does not change a pinned digest.
INPUT_GZIP_LEVEL = 1

# Label codes of the gli-pre task, painted outermost first.
SNFH, NETC, ET = 2, 1, 3
GLI_LABELS = {"ET": ET, "NETC": NETC, "SNFH": SNFH}


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    algorithms: int  # mock containers; more than one means fusion and metrics
    native: bool
    compress_inputs: bool
    pool: int  # distinct subjects cycled by the closed loop
    # 1.0 warms up on the first subject of the pool itself, which also faults
    # in full-size buffers (the first full-size subject of a run is slower).
    warmup_scale: float = 1.0

    @property
    def algorithm_ids(self) -> list[str]:
        return [f"perfbench-{self.task}-{i + 1}" for i in range(self.algorithms)]


WORKLOADS = {
    w.name: w
    for w in (
        # Bypasses fusion and metrics: I/O, validation, staging and hashing of
        # 143 MB of uncompressed inputs, and the mask warp.
        Workload("single-native", "gli-pre", algorithms=1, native=True, compress_inputs=False, pool=3),
        # The synthesis path: float32 output, image warp, float gzip writes.
        Workload("synthesis-native", "inpaint", algorithms=1, native=True, compress_inputs=True, pool=3),
        # Fusion and metrics run only here, and take over 80% of a subject. A
        # subject outlasts a run, so the pool holds one.
        Workload("ensemble", "gli-pre", algorithms=5, native=False, compress_inputs=True, pool=1, warmup_scale=WARMUP_SCALE),
    )
}


@dataclass(frozen=True)
class Subject:
    subject_id: str
    directory: Path  # what the pipeline is pointed at
    inputs: tuple[Path, ...]  # the files the task stages
    outputs: tuple[Path, ...]  # pre-encoded container outputs, one per algorithm


def atlas_affine(shape) -> np.ndarray:
    """BraTS-style LPS sform: x and y flipped, 1 mm voxels."""
    affine = np.diag([-1.0, -1.0, 1.0, 1.0])
    affine[1, 3] = shape[1] - 1
    return affine


def native_affine(shape, atlas_shape) -> np.ndarray:
    """Native grid centred on the same world point as the atlas grid."""
    affine = np.diag([-NATIVE_SPACING[0], -NATIVE_SPACING[1], NATIVE_SPACING[2], 1.0])
    atlas_center = atlas_affine(atlas_shape) @ np.append((np.asarray(atlas_shape) - 1) / 2.0, 1.0)
    affine[:3, 3] = atlas_center[:3] - affine[:3, :3] @ ((np.asarray(shape) - 1) / 2.0)
    return affine


def _ellipsoid(shape, center, axes) -> np.ndarray:
    grids = np.ogrid[tuple(slice(0, n) for n in shape)]
    dist = sum(((g - c) / a) ** 2 for g, c, a in zip(grids, center, axes))
    return dist <= 1.0


def _paint(labels: np.ndarray, center, axes, code: int) -> None:
    """Paint an axis-aligned ellipsoid inside its bounding box only."""
    lo = [max(0, int(np.floor(c - a))) for c, a in zip(center, axes)]
    hi = [min(n, int(np.ceil(c + a)) + 1) for n, c, a in zip(labels.shape, center, axes)]
    if any(h <= l for l, h in zip(lo, hi)):
        return
    box = tuple(slice(l, h) for l, h in zip(lo, hi))
    local = [c - l for c, l in zip(center, lo)]
    labels[box][_ellipsoid([h - l for l, h in zip(lo, hi)], local, axes)] = code


def _shape_axes(rng, radius: float) -> np.ndarray:
    """Volume-preserving axis ratios around ``radius``."""
    u = rng.uniform(-0.15, 0.15, size=3)
    return radius * np.exp(u - u.mean())


@dataclass(frozen=True)
class _Lesion:
    center: np.ndarray
    axes: dict  # label code -> axes, outermost first


def _tumour(rng, shape, scale: float) -> tuple[_Lesion, _Lesion]:
    """The main tumour and its satellite, in voxel coordinates."""
    mid = (np.asarray(shape) - 1) / 2.0
    radius = 30.0 * scale * rng.uniform(0.97, 1.03)
    main_center = mid + rng.uniform(-1, 1, size=3) * np.array([12, 12, 8]) * scale
    main = _Lesion(
        main_center,
        {SNFH: _shape_axes(rng, radius), NETC: _shape_axes(rng, 0.55 * radius), ET: _shape_axes(rng, 0.3 * radius)},
    )
    sat_radius = 7.0 * scale
    direction = rng.normal(size=3) * np.array([1.0, 1.0, 0.3])
    direction /= np.linalg.norm(direction)
    sat_center = main_center + direction * (radius * 1.15 + sat_radius + 8.0 * scale)
    satellite = _Lesion(sat_center, {SNFH: _shape_axes(rng, sat_radius), ET: _shape_axes(rng, 0.4 * sat_radius)})
    return main, satellite


def _label_map(shape, lesions, rng=None, jitter: float = 0.0, shift=0.0, grow: float = 1.0) -> np.ndarray:
    """Paint lesions; ``jitter`` perturbs centres (voxels) and radii (share)."""
    labels = np.zeros(shape, dtype=np.uint8)
    for lesion in lesions:
        center = lesion.center + shift
        if jitter:
            center = center + rng.normal(0.0, jitter, size=3)
        for code, axes in lesion.axes.items():
            if jitter:
                axes = axes * (1.0 + rng.normal(0.0, 0.05, size=3))
            _paint(labels, center, axes * grow, code)
    return labels


def _brain(rng, shape, scale: float) -> np.ndarray:
    axes = np.array([68.0, 84.0, 56.0]) * scale * rng.uniform(0.98, 1.02, size=3)
    return _ellipsoid(shape, (np.asarray(shape) - 1) / 2.0, axes)


def _forward_transform(rng, atlas_shape) -> np.ndarray:
    """Native->atlas registration: a small rotation about the grid centre plus a shift."""
    theta = np.deg2rad(rng.uniform(-4.0, 4.0))
    rot = np.eye(4)
    rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    center = atlas_affine(atlas_shape) @ np.append((np.asarray(atlas_shape) - 1) / 2.0, 1.0)
    to_center, back = np.eye(4), np.eye(4)
    to_center[:3, 3], back[:3, 3] = -center[:3], center[:3]
    shift = np.eye(4)
    shift[:3, 3] = rng.uniform(-3.0, 3.0, size=3)
    return shift @ back @ rot @ to_center


def write_subject(root: Path, workload: Workload, variant: int, scale: float = 1.0) -> Subject:
    """Write the inputs and the pre-encoded container outputs of one subject.

    ``root/<id>/`` is the subject directory the pipeline reads;
    ``root/<id>.outputs/`` holds what the mock containers return.
    """
    shape = tuple(max(8, int(round(n * scale))) for n in ATLAS_SHAPE)
    rng = np.random.default_rng(variant)
    subject_id = f"sub-{variant:03d}" if scale == 1.0 else f"warm-{variant:03d}"
    subj_dir = root / subject_id
    out_dir = root / f"{subject_id}.outputs"
    subj_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    affine = atlas_affine(shape)
    suffix = ".nii.gz" if workload.compress_inputs else ".nii"

    brain = _brain(rng, shape, scale)
    main, satellite = _tumour(rng, shape, scale)
    tumour = _label_map(shape, (main, satellite)) != 0
    n_brain = int(brain.sum())
    images = {}
    inputs: list[Path] = []
    tags = ("t1n",) if workload.task == "inpaint" else MODALITIES
    for tag in tags:
        k, theta, boost = _INTENSITY[tag]
        image = np.zeros(shape, dtype=np.float32)
        image[brain] = rng.gamma(k, theta, size=n_brain)
        image[tumour] *= boost
        images[tag] = image
        inputs.append(niftiio.write(subj_dir / f"{subject_id}-{tag}{suffix}", image, affine, INPUT_GZIP_LEVEL))

    outputs: list[Path] = []
    if workload.task == "inpaint":
        hole = _label_map(shape, (main,)) != 0
        inputs.append(niftiio.write(subj_dir / f"{subject_id}-mask{suffix}", hole.astype(np.uint8), affine, INPUT_GZIP_LEVEL))
        k, theta, _ = _INTENSITY["t1n"]
        filled = images["t1n"].copy()
        filled[hole] = rng.gamma(k, theta, size=int(hole.sum()))
        outputs.append(niftiio.write(out_dir / "synthesis.nii.gz", filled, affine))
    else:
        errors = np.random.default_rng(CANDIDATE_ERRORS_SEED)
        outlier = workload.algorithms - 1 if workload.algorithms > 1 else None
        for i in range(workload.algorithms):
            if i == outlier:
                shift = np.array([0.35, -0.35, 0.2]) * 30.0 * scale
                labels = _label_map(shape, (main, satellite), shift=shift, grow=1.3)
            else:
                labels = _label_map(shape, (main, satellite), rng=errors, jitter=1.2 * scale)
            outputs.append(niftiio.write(out_dir / f"seg-{i + 1}.nii.gz", labels, affine))

    if workload.native:
        native_shape = tuple(max(8, int(round(n * scale))) for n in NATIVE_SHAPE)
        forward = _forward_transform(rng, shape)
        sidecar = {
            "matrix": [float(v) for v in forward.reshape(-1)],
            "source_space": "native",
            "target_space": "SRI24",
            "units": "mm",
        }
        (subj_dir / f"{subject_id}_native2SRI24.json").write_text(json.dumps(sidecar, indent=2) + "\n")
        native_brain = _brain(rng, native_shape, scale)
        reference = np.zeros(native_shape, dtype=np.int16)
        reference[native_brain] = np.minimum(rng.gamma(2.5, 40.0, size=int(native_brain.sum())), 32767)
        niftiio.write(subj_dir / f"{subject_id}-native.nii.gz", reference, native_affine(native_shape, shape), INPUT_GZIP_LEVEL)
    return Subject(subject_id, subj_dir, tuple(inputs), tuple(outputs))
