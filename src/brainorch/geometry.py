"""Affine transforms between coordinate spaces, grid resampling, sidecars.

World coordinates are millimeters. Every transform carries source and target
space tags (``native``, ``SRI24``, ``MNI152``) so compositions and warps can
be checked instead of trusted. Transform sidecars are JSON files holding a
row-major 4x4 matrix (16 numbers, flat or as 4 rows of 4) plus the two tags,
read and checked by :mod:`brainorch.jsondoc`; units are always mm, and other
keys are allowed.

Two grids agree by one rule, :func:`grid_difference`: shapes exactly, then
spacings, then affine entries, each within ``GRID_ATOL_MM``. Validation and
the pipeline's candidate checks only phrase its answer.

Masks resample with nearest-neighbor lookup (labels never blend, voxels that
map outside the source grid become background), images with trilinear
interpolation.

Resampling fills the target grid one plane at a time, in order, along its
last axis, the slowest axis of the Fortran order in which NIfTI stores
voxels and :func:`brainorch.nifti.read_volume` returns them. Each plane is
its own column of the output, and each finished column goes to the
caller's ``sink``, so a writer can take it as soon as it is final. A target
voxel (i, j, k) maps to the source coordinates ``m[:, 0] * i + m[:, 1] * j
+ m[:, 2] * k + m[:, 3]`` of the voxel-to-voxel matrix ``m`` (target voxel
to world, the inverse world map, then world to source voxel), summed
elementwise left to right: the same IEEE operations on every CPU, with no
BLAS kernel to pick a summation order, so a sample at a rounding boundary
does not depend on the machine's kernel. Memory holds the output, a
Fortran-order copy of the source only when it is not in that order already
(a NIfTI read never needs one), a boolean cell map of the source's
foreground box, and the coordinates and indices of one plane's rows at a
time.

Only the target voxels whose source cell holds foreground are looked up or
interpolated; every other voxel of the output stays 0. A voxel's cell is
the 2x2x2 source voxels its sample can read: ``floor(c)`` and ``floor(c) +
1`` on each axis, except at an axis's last voxel ``n - 1``, where it is
``n - 2`` and ``n - 1`` (scipy samples the coordinate ``n - 1`` from those
two, the first with weight 0). The cell map, built once per warp over
:func:`brainorch.metrics.foreground_box`, says which cells hold a voxel
``!= 0``: NaN is foreground and -0.0 is not. The test uses the very
coordinates the lookup would use, so it is exact without a rounding margin:

- a nearest lookup in any other cell reads a voxel that is 0, or none;
- a trilinear sample there reads only voxels that are 0 or -0.0, or off the
  grid, and scipy's weighted sum of zeros is +0.0, as is its value off the
  grid (``cval``).

The voxels to test are found row by row. Along a target row (j, k) each
source coordinate is monotone in i, in floating point too, so the i whose
coordinates lie within one voxel of the box on every axis (``[box.start -
1, box.stop]``, at least half a voxel beyond any coordinate that reads a
voxel of the box) are one range. It is solved in real arithmetic and
widened by one voxel, and coordinates are computed only inside it: a plane
whose rows all miss the box, like every plane of an all-zero source,
computes none.

Images are interpolated in float64, as from a float64 copy of the source,
and scipy rounds each sample to the float32 output once: the result is
bit-identical to a float64 map rounded to float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import jsondoc
from .errors import (
    DegenerateGrid,
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
    """A 4x4 voxel-world affine map between two tagged spaces. Equal
    transforms have the same tags and the same matrix."""

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

    def __eq__(self, other):
        if not isinstance(other, AffineTransform):
            return NotImplemented
        same_tags = (self.source_space, self.target_space) == (other.source_space, other.target_space)
        return same_tags and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash((self.source_space, self.target_space))


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
    """A sampling grid: integer extents plus a voxel-to-world affine. Equal
    grids have the same extents and the same affine (exactly; see
    :func:`grid_difference` for agreement within a tolerance)."""

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

    def __eq__(self, other):
        if not isinstance(other, GridSpec):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.affine, other.affine)

    def __hash__(self):
        return hash(self.shape)

    @property
    def spacing(self) -> np.ndarray:
        return np.sqrt((self.affine[:3, :3] ** 2).sum(axis=0))

    @classmethod
    def from_volume(cls, vol: Volume) -> "GridSpec":
        return cls(shape=vol.shape, affine=vol.affine)


def grid_difference(grid, ref) -> str | None:
    """The first way ``grid`` differs from ``ref``: ``"shape"``,
    ``"spacing"`` or ``"affine"``, in that order; None when they agree.

    Both have ``shape``, ``spacing`` and ``affine`` (:class:`GridSpec` or
    :class:`Volume`). Shapes must match exactly, spacings and affine entries
    within ``GRID_ATOL_MM``. Spacing is compared on its own: an oblique
    column can move by less than the tolerance in every entry and still
    change its length by more.
    """
    if grid.shape != ref.shape:
        return "shape"
    if not np.allclose(grid.spacing, ref.spacing, atol=GRID_ATOL_MM):
        return "spacing"
    if not np.allclose(grid.affine, ref.affine, atol=GRID_ATOL_MM):
        return "affine"
    return None


def _ignore(column) -> None:
    """The default ``sink``: the returned volume holds every plane."""


def _cells(data: np.ndarray, box) -> np.ndarray:
    """The cell map of ``data`` over its nonempty foreground ``box``, in
    Fortran order: entry ``floor(c) - (box.start - 2)`` is True when the source
    cell at the coordinates ``c`` holds a nonzero voxel (NaN is nonzero, -0.0
    is not). It spans the floors ``box.start - 1`` to ``box.stop - 1`` plus one
    all-False floor on each side."""
    cells = np.zeros(tuple(s.stop - s.start + 3 for s in box), dtype=bool, order="F")
    np.not_equal(data[box], 0, out=cells[1:-2, 1:-2, 1:-2])
    for axis, (span, n) in enumerate(zip(box, data.shape)):
        lines = np.moveaxis(cells, axis, 0)
        lines[1:] |= lines[:-1]  # floor f holds voxels f and f + 1
        if span.stop == n > 1:
            lines[-2] = lines[-3]  # floor n - 1 holds voxels n - 2 and n - 1
    return cells


def _row_windows(m: np.ndarray, box, shape) -> tuple[np.ndarray, np.ndarray]:
    """``(first, stop)``, each (Y, Z) int64: target row (j, k) evaluates
    only ``i`` in ``range(first[j, k], stop[j, k])``, the voxels whose source
    coordinates under ``m`` lie in ``[box.start - 1, box.stop]`` on every axis,
    widened by one voxel.

    Along a row each coordinate is monotone in ``i``, in floating point too,
    so the range is solved in real arithmetic. Its bounds lie at least half a
    source voxel beyond any coordinate whose sample can read a voxel of the
    box, far more than the rounding of the sums."""
    nx, ny, nz = shape
    j = np.arange(ny, dtype=np.float64)[:, None]
    k = np.arange(nz, dtype=np.float64)[None, :]
    first, last = np.zeros((ny, nz)), np.full((ny, nz), nx - 1.0)
    for axis, span in enumerate(box):
        slope, row = m[axis, 0], m[axis, 1] * j + m[axis, 2] * k + m[axis, 3]
        lo, hi = span.start - 1 - row, span.stop - row
        if slope == 0:  # the coordinate is ``row`` all along the row
            inside = (lo <= 0) & (hi >= 0)
            lo, hi = np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf)
        else:
            lo, hi = lo / slope, hi / slope
            if slope < 0:
                lo, hi = hi, lo
        np.maximum(first, np.ceil(lo) - 1, out=first)
        np.minimum(last, np.floor(hi) + 1, out=last)
    np.minimum(first, nx, out=first)  # +inf where a constant coordinate misses the box
    return first.astype(np.int64), np.maximum(first, last + 1).astype(np.int64)


def _resample(data: np.ndarray, affine: np.ndarray, world_map: AffineTransform, target: GridSpec, dtype, fill, sink):
    """``target`` filled with ``dtype`` samples of the Fortran-order source
    ``data`` on ``affine``, one target plane at a time, in order.

    ``fill(column, coords, idx)`` writes the samples at the source voxel
    coordinates ``coords`` (3, len(idx)) into ``column[idx]``, the plane's
    own column of the Fortran-order output; ``idx`` holds, in Fortran order,
    the plane's voxels whose source cell holds foreground. A plane with no
    such voxel calls no ``fill``. ``sink(column)`` then gets the finished
    column.
    """
    out = np.zeros(target.shape, dtype=dtype, order="F")
    nx, ny, nz = target.shape
    planes = out.reshape(-1, nz, order="F")  # a view: column k is plane k
    box = foreground_box([data])
    if all(s.stop > s.start for s in box):
        m = np.linalg.inv(affine) @ np.linalg.inv(world_map.matrix) @ target.affine
        cells = _cells(data, box)
        low = np.array([s.start - 2 for s in box], dtype=np.float64)[:, None]
        high = low + np.array(cells.shape, dtype=np.float64)[:, None] - 1
        strides = np.array([1, cells.shape[0], cells.shape[0] * cells.shape[1]], dtype=np.float64)
        offset = strides @ low[:, 0]
        cells = cells.reshape(-1, order="F")
        first, stop = _row_windows(m, box, target.shape)
    else:  # an all-zero source: no row has a window
        first = stop = np.zeros((ny, nz), dtype=np.int64)
    for k in range(nz):
        column = planes[:, k]
        rows = np.flatnonzero(stop[:, k] > first[:, k])
        if rows.size:
            starts, lengths = first[rows, k], stop[rows, k] - first[rows, k]
            ends = np.cumsum(lengths)
            i = np.repeat((starts - ends + lengths).astype(np.float64), lengths)
            i += np.arange(ends[-1], dtype=np.float64)
            j = np.repeat(rows.astype(np.float64), lengths)
            coords = m[:3, 0:1] * i
            coords += m[:3, 1:2] * j
            coords += m[:3, 2:3] * k
            coords += m[:3, 3:4]
            floors = np.floor(coords)
            np.clip(floors, low, high, out=floors)  # floors off the map land on its all-False border
            flat = strides @ floors
            flat -= offset
            hit = np.flatnonzero(cells[flat.astype(np.intp)])
            del floors, flat
            if hit.size:
                fill(column, coords.take(hit, axis=1), (i.take(hit) + nx * j.take(hit)).astype(np.intp))
        sink(column)
    out.setflags(write=False)
    return Volume(data=out, affine=target.affine)


def resample_mask(mask: Volume, world_map: AffineTransform, target: GridSpec, sink=_ignore) -> Volume:
    """Nearest-neighbor resample of a label mask onto ``target``, handing
    each finished plane to ``sink`` in order.

    ``world_map`` maps the mask's world coordinates into the target grid's
    world coordinates. Voxels that land outside the source grid become 0.
    The output label set is always a subset of the input's plus background.
    """
    data = mask.data
    if not np.issubdtype(data.dtype, np.integer):
        raise ValueError(f"mask resampling needs integer labels, got dtype {data.dtype}")
    data = np.asfortranarray(data)

    def fill(column, coords, idx):
        nearest = np.rint(coords).astype(np.int64)
        inside = np.ones(nearest.shape[1], dtype=bool)
        for axis in range(3):
            inside &= (nearest[axis] >= 0) & (nearest[axis] < data.shape[axis])
        column[idx[inside]] = data[nearest[0, inside], nearest[1, inside], nearest[2, inside]]

    return _resample(data, mask.affine, world_map, target, data.dtype, fill, sink)


def resample_image(image: Volume, world_map: AffineTransform, target: GridSpec, sink=_ignore) -> Volume:
    """Trilinear resample of an intensity image onto ``target``, handing
    each finished plane to ``sink`` like :func:`resample_mask`.

    Out-of-grid samples read as 0. Output is float32: each sample is
    interpolated in float64 from the source in its own dtype, as from a
    float64 copy of it, and rounded to float32 once.
    """
    data = np.asfortranarray(image.data)

    def fill(column, coords, idx):
        column[idx] = ndimage.map_coordinates(data, coords, output=np.float32, order=1, mode="constant", cval=0.0)

    return _resample(data, image.affine, world_map, target, np.float32, fill, sink)


def _check_forward(forward: AffineTransform) -> None:
    if forward.source_space != "native" or forward.target_space not in ATLAS_SPACES:
        raise SpaceMismatch(
            f"expected a forward native->atlas transform, got "
            f"{forward.source_space!r}->{forward.target_space!r}"
        )


def inverse_warp_to_native(mask: Volume, forward: AffineTransform, native_grid: GridSpec, sink=_ignore) -> Volume:
    """Carry an atlas-space mask back to the subject's native grid.

    ``forward`` is the stored native->atlas registration; the warp applies
    its inverse with nearest-neighbor lookup, each finished plane to ``sink``.
    """
    _check_forward(forward)
    return resample_mask(mask, invert_affine(forward), native_grid, sink)


def inverse_warp_image_to_native(
    image: Volume, forward: AffineTransform, native_grid: GridSpec, sink=_ignore
) -> Volume:
    """Trilinear counterpart of :func:`inverse_warp_to_native` for images."""
    _check_forward(forward)
    return resample_image(image, invert_affine(forward), native_grid, sink)


def write_transform(transform: AffineTransform, path: str | Path) -> Path:
    """Write a transform sidecar (JSON, row-major matrix, mm units)."""
    return jsondoc.dump(path, {
        "matrix": [float(v) for v in np.asarray(transform.matrix).reshape(-1)],
        "source_space": transform.source_space,
        "target_space": transform.target_space,
        "units": "mm",
    })


# Sidecars from registration tools may carry keys of their own. Matrix entries
# may be NaN or infinite here: the affine rule then says they must be finite.
_SIDECAR = jsondoc.obj(
    {
        "matrix": jsondoc.must(
            "16 numbers, flat or as 4 rows of 4",
            lambda v: jsondoc.is_numbers(v, 16, jsondoc.is_number)
            or isinstance(v, list) and len(v) == 4 and all(jsondoc.is_numbers(r, 4, jsondoc.is_number) for r in v),
        ),
        "source_space": jsondoc.STRING,
        "target_space": jsondoc.STRING,
        "units": jsondoc.must("'mm'", lambda v: v == "mm"),
    },
    open=True,
)


def read_transform(path: str | Path) -> AffineTransform:
    """Read a transform sidecar, rejecting non-affine or non-mm content."""
    doc = jsondoc.load(path, MalformedTransform, _SIDECAR)
    try:
        matrix = np.array(doc["matrix"], dtype=np.float64).reshape(4, 4)
        return AffineTransform(matrix, doc["source_space"], doc["target_space"])
    except (SpaceMismatch, MalformedTransform, SingularTransform) as exc:
        raise MalformedTransform(f"{path}: {exc}") from exc
