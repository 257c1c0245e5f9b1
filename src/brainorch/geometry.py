"""Affine transforms between coordinate spaces, grid resampling, sidecars.

World coordinates are millimeters. Every transform carries source and target
space tags (``native``, ``SRI24``, ``MNI152``) so compositions and warps can
be checked instead of trusted. Transform sidecars are JSON files holding a
row-major 4x4 matrix plus the two tags; units are always mm.

Masks resample with nearest-neighbor lookup (labels never blend, voxels that
map outside the source grid become background), images with trilinear
interpolation.

Resampling evaluates the target grid one plane at a time along its last
axis, the slowest axis of the Fortran order in which NIfTI stores voxels
and :func:`brainorch.nifti.read_volume` returns them. It is exact: each
plane's source coordinates come from the same BLAS matmul, column by
column, as a full-grid (3, N) coordinate map, so the output is
byte-identical to one made from such a map. Memory holds the output, a
Fortran-order copy of the source only when it is not in that order
already (a NIfTI read never needs one), and a few (3, X·Y) float64 planes
of coordinates and indices. Lookups within a plane then walk the source's
memory forward, and on grids of BraTS size one plane keeps each matmul
small enough that OpenBLAS runs it on the calling thread.

Only the target voxels whose source neighbours can be nonzero are looked
up or interpolated; every other voxel of the output stays 0. Within a
plane, a voxel is evaluated when its source coordinates lie within one
voxel of the source's :func:`brainorch.metrics.foreground_box` on every
axis (``[box.start - 1, box.stop]``). This tests the very coordinates the
lookup would use, so it is exact without a rounding margin:

- a nearest lookup outside that range reads a voxel that is 0, or none;
- a trilinear sample there reads 8 neighbours that are 0 or -0.0, or off
  the grid, and scipy's weighted sum of zeros is +0.0, as is its value
  off the grid (``cval``);
- NaN != 0, so a NaN voxel is foreground and inside the box.

Images are interpolated in float64, as from a float64 copy of the source,
and scipy rounds each sample to the float32 output once: the result is
bit-identical to a float64 map rounded to float32.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import (
    DegenerateGrid,
    IoFailure,
    MalformedTransform,
    SingularTransform,
    SpaceMismatch,
)
from .metrics import foreground_box
from .nifti import Volume, checked_affine

SPACES = ("native", "SRI24", "MNI152")
ATLAS_SPACES = ("SRI24", "MNI152")


@dataclass(frozen=True)
class AffineTransform:
    """A 4x4 voxel-world affine map between two tagged spaces."""

    matrix: np.ndarray
    source_space: str
    target_space: str

    def __post_init__(self):
        for tag in (self.source_space, self.target_space):
            if tag not in SPACES:
                raise SpaceMismatch(f"unknown space tag {tag!r}; expected one of {SPACES}")
        matrix = checked_affine(self.matrix, "transform matrix", MalformedTransform, SingularTransform)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def invert_affine(transform: AffineTransform) -> AffineTransform:
    """Inverse map with the space tags swapped."""
    try:
        inv = np.linalg.inv(transform.matrix)
    except np.linalg.LinAlgError as exc:  # constructor should have caught this
        raise SingularTransform(str(exc)) from exc
    return AffineTransform(
        matrix=inv,
        source_space=transform.target_space,
        target_space=transform.source_space,
    )


def compose(outer: AffineTransform, inner: AffineTransform) -> AffineTransform:
    """The map "apply ``inner``, then ``outer``".

    Requires ``outer.source_space == inner.target_space``; the result maps
    ``inner.source_space`` to ``outer.target_space``.
    """
    if outer.source_space != inner.target_space:
        raise SpaceMismatch(
            f"cannot compose: outer consumes {outer.source_space!r} but inner "
            f"produces {inner.target_space!r}"
        )
    return AffineTransform(
        matrix=outer.matrix @ inner.matrix,
        source_space=inner.source_space,
        target_space=outer.target_space,
    )


# Two grids' spacings and affine entries that differ by at most this many mm
# count as equal.
GRID_ATOL_MM = 1e-3


@dataclass(frozen=True)
class GridSpec:
    """A sampling grid: integer extents plus a voxel-to-world affine."""

    shape: tuple[int, int, int]
    affine: np.ndarray

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        if len(shape) != 3:
            raise DegenerateGrid(f"grid shape must have 3 extents, got {shape}")
        if any(n < 1 for n in shape):
            raise DegenerateGrid(f"grid extents must be positive, got {shape}")
        affine = checked_affine(self.affine, "grid affine", DegenerateGrid, DegenerateGrid)
        affine.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "affine", affine)

    @property
    def spacing(self) -> np.ndarray:
        return np.sqrt((self.affine[:3, :3] ** 2).sum(axis=0))

    @classmethod
    def from_volume(cls, vol: Volume) -> "GridSpec":
        return cls(shape=vol.shape, affine=vol.affine)


def _foreground_samples(data: np.ndarray, source_affine: np.ndarray, world_map: np.ndarray, target: GridSpec):
    """The target voxels whose source neighbours can be nonzero, one
    last-axis plane at a time.

    Yields ``(k, coords, idx)`` for each target plane ``[:, :, k]`` that
    has such voxels: ``idx`` holds their columns in the plane's Fortran
    order and ``coords`` (3, len(idx)) their source voxel coordinates. A
    target index v maps through target voxel->world, then the inverse world
    map, then world->source voxel; every column of a plane is computed by
    the same matmul as in a full-grid (3, N) map, so the values are
    identical. A column is kept when its coordinates lie within
    ``[box.start - 1, box.stop]`` on every axis, where ``box`` is the
    :func:`metrics.foreground_box` of the source ``data``. Every other
    target voxel resamples to 0 (see the module docstring).
    """
    box = foreground_box([data])
    if any(s.stop == s.start for s in box):
        return
    lo = np.array([s.start - 1 for s in box], dtype=np.float64)[:, None]
    hi = np.array([s.stop for s in box], dtype=np.float64)[:, None]
    m = np.linalg.inv(source_affine) @ np.linalg.inv(world_map) @ target.affine
    nx, ny, nz = target.shape
    plane = np.empty((3, nx * ny))
    plane[0] = np.tile(np.arange(nx), ny)
    plane[1] = np.repeat(np.arange(ny), nx)
    for k in range(nz):
        plane[2] = k
        coords = m[:3, :3] @ plane + m[:3, 3:4]
        idx = np.flatnonzero(((coords >= lo) & (coords <= hi)).all(axis=0))
        if idx.size:
            yield k, coords[:, idx], idx


def resample_mask(mask: Volume, world_map: AffineTransform, target: GridSpec) -> Volume:
    """Nearest-neighbor resample of a label mask onto ``target``.

    ``world_map`` maps the mask's world coordinates into the target grid's
    world coordinates. Voxels that land outside the source grid become 0.
    The output label set is always a subset of the input's plus background.
    Only target voxels near the mask's nonzero box are looked up, plane by
    plane (see the module docstring): beside the output and a
    Fortran-order copy of a source not already in that order, memory holds
    a few planes of coordinates, never a full-grid map.
    """
    data = mask.data
    if not np.issubdtype(data.dtype, np.integer):
        raise ValueError(f"mask resampling needs integer labels, got dtype {data.dtype}")
    data = np.asfortranarray(data)
    out = np.zeros(target.shape, dtype=data.dtype, order="F")
    planes = out.reshape(-1, target.shape[2], order="F")  # a view: column k is plane k
    for k, coords, idx in _foreground_samples(data, mask.affine, world_map.matrix, target):
        nearest = np.rint(coords).astype(np.int64)
        inside = np.ones(nearest.shape[1], dtype=bool)
        for axis in range(3):
            inside &= (nearest[axis] >= 0) & (nearest[axis] < data.shape[axis])
        planes[idx[inside], k] = data[nearest[0, inside], nearest[1, inside], nearest[2, inside]]
    out.setflags(write=False)
    return Volume(data=out, affine=target.affine)


def resample_image(image: Volume, world_map: AffineTransform, target: GridSpec) -> Volume:
    """Trilinear resample of an intensity image onto ``target``.

    Out-of-grid samples read as 0. Output is float32: each sample is
    interpolated in float64 from the source in its own dtype, as from a
    float64 copy of it, and rounded to float32 once. Only target voxels
    near the image's nonzero box are interpolated, plane by plane like
    :func:`resample_mask`; the rest stay +0.0.
    """
    data = np.asfortranarray(image.data)
    out = np.zeros(target.shape, dtype=np.float32, order="F")
    planes = out.reshape(-1, target.shape[2], order="F")  # a view: column k is plane k
    for k, coords, idx in _foreground_samples(data, image.affine, world_map.matrix, target):
        planes[idx, k] = ndimage.map_coordinates(
            data, coords, output=np.float32, order=1, mode="constant", cval=0.0
        )
    out.setflags(write=False)
    return Volume(data=out, affine=target.affine)


def _check_forward(forward: AffineTransform) -> None:
    if forward.source_space != "native" or forward.target_space not in ATLAS_SPACES:
        raise SpaceMismatch(
            f"expected a forward native->atlas transform, got "
            f"{forward.source_space!r}->{forward.target_space!r}"
        )


def inverse_warp_to_native(mask: Volume, forward: AffineTransform, native_grid: GridSpec) -> Volume:
    """Carry an atlas-space mask back to the subject's native grid.

    ``forward`` is the stored native->atlas registration; the warp applies
    its inverse with nearest-neighbor lookup.
    """
    _check_forward(forward)
    return resample_mask(mask, invert_affine(forward), native_grid)


def inverse_warp_image_to_native(
    image: Volume, forward: AffineTransform, native_grid: GridSpec
) -> Volume:
    """Trilinear counterpart of :func:`inverse_warp_to_native` for images."""
    _check_forward(forward)
    return resample_image(image, invert_affine(forward), native_grid)


def write_transform(transform: AffineTransform, path: str | Path) -> Path:
    """Write a transform sidecar (JSON, row-major matrix, mm units)."""
    path = Path(path)
    doc = {
        "matrix": [float(v) for v in np.asarray(transform.matrix).reshape(-1)],
        "source_space": transform.source_space,
        "target_space": transform.target_space,
        "units": "mm",
    }
    try:
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def read_transform(path: str | Path) -> AffineTransform:
    """Read a transform sidecar, rejecting non-affine or non-mm content."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedTransform(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedTransform(f"{path}: sidecar must be a JSON object")
    for key in ("matrix", "source_space", "target_space", "units"):
        if key not in doc:
            raise MalformedTransform(f"{path}: missing key {key!r}")
    if doc["units"] != "mm":
        raise MalformedTransform(f"{path}: units must be 'mm', got {doc['units']!r}")
    try:
        matrix = np.asarray(doc["matrix"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MalformedTransform(f"{path}: matrix must hold 16 numbers: {exc}") from exc
    if matrix.size != 16:
        raise MalformedTransform(f"{path}: matrix must hold 16 numbers, got {matrix.size}")
    try:
        return AffineTransform(
            matrix=matrix.reshape(4, 4),
            source_space=str(doc["source_space"]),
            target_space=str(doc["target_space"]),
        )
    except (SpaceMismatch, MalformedTransform) as exc:
        raise MalformedTransform(f"{path}: {exc}") from exc


def transform_sidecar_name(subject_id: str, source_space: str, target_space: str) -> str:
    """Conventional sidecar filename, e.g. ``sub-01_native2SRI24.json``."""
    return f"{subject_id}_{source_space}2{target_space}.json"
