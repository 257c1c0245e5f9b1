"""Segmentation metrics: Dice, percentile Hausdorff, NSD, lesion-wise Dice.

All functions take binary numpy arrays on a shared voxel grid plus, where
physical distances matter, the voxel spacing in mm. Conventions are pinned
here once and shared by every caller:

- Two empty masks agree perfectly: DSC and NSD are 1.0. Hausdorff is
  undefined when either mask is empty and returns ``None``. Every Dice is
  ``dice_from_counts`` of integer voxel counts.
- A surface voxel is a foreground voxel with at least one background
  6-neighbor; positions outside the grid count as background, so foreground
  touching the grid edge is surface. ``surface_voxels`` finds the interior
  as the mask ANDed with its six shifted slices, the grid border background.
- Hausdorff and NSD reduce the same two directed surface-distance arrays;
  ``_surface_scores`` alone applies their conventions. A mask's surface is
  a point set (``LabelSurface``): its surface voxels in C scan order and a
  ``cKDTree`` over their mm positions. A surface voxel's distance is the
  distance to the nearest surface voxel of the other mask, computed from
  the integer offset as sqrt(sum((offset * spacing)**2)), summed over the
  axes in order: the formula of the EDT and of the test suite's oracles.
  When every spacing is an integer and the squared mm extent of the scored
  box is below 2**53, every mm position, offset, square and sum is an
  exact integer in float64, so the KD nearest distance is the sqrt of the
  same exact sum, and each voxel asks the tree for its nearest alone.
  Elsewhere KD distances come from scaled coordinates, so two voxels at
  one true distance can come back in either order while their exact
  values differ in the last bit (at 1.2 mm, the offsets (3, 0, 0) and
  (2, 2, 1) give 3.5999999999999996 and 3.6). So every surface voxel
  within the nearest KD distance plus a relative ``_TIE_RTOL`` is
  gathered, and the smallest exact value is the distance. The trees use
  sliding-midpoint splits and leaves of 64 points (``_kd_tree``). A voxel
  on both surfaces is at 0 and is not queried. A spacing at which the
  grid's squared mm extent overflows is refused.
- ``prepare_reference`` builds the reference side once: per label its
  mask, voxel count, surface points and tree, and the connected components
  of its foreground. ``compute_metric_report`` scores any number of
  predictions against it, each at the cost of its own surfaces and of KD
  queries from the two surface point sets. A plain reference mask is
  prepared on the spot, so there is one path.
- Connected-component ids follow first-voxel scan order (lexicographic
  (i, j, k)): ``scipy.ndimage.label`` numbers components that way for any
  memory layout, so its labels are used as they come.
- Work runs inside the foreground box (``foreground_box``): the union
  bounding box of the masks' nonzero voxels, widened by 1 voxel and clipped
  to the grid. ``compute_metric_report`` crops a plain reference and the
  prediction to it; the pipeline crops the consensus and every candidate
  to the candidates' box. This is exact: every surface voxel lies inside
  the box; the 1-voxel pad leaves background around foreground away from
  the grid edge, so only the grid edge is background by the border rule,
  as on the full grid; cropping keeps the scan order that sets
  component ids and shifts every point alike; and the voxels cut away are
  background in every mask, so they add nothing to Dice or to lesion-wise
  counts. That last step needs every scored label to have a nonzero code,
  so a label with code 0 (background), or outside the uint8 consensus's
  1..255, raises ``ValueError`` (``check_label_codes``). The box of several
  masks is the union (``box_union``) of their single-mask boxes, so a
  caller that kept each mask's box, as fusion does from vetting, gets it
  without a scan.
- Lesion-wise Dice reads lesion sizes, overlapping prediction components,
  union sizes and intersections from one sparse contingency table of the two
  component maps. A prepared reference hands over its component map, so it
  is labelled once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy import ndimage

from .errors import GridMismatch

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

CONNECTIVITIES = (6, 18, 26)
_STRUCT_RANK = {6: 1, 18: 2, 26: 3}

DEFAULT_HAUSDORFF_PERCENTILE = 95.0
DEFAULT_NSD_TOLERANCE_MM = 1.0
DEFAULT_CONNECTIVITY = 26


def _as_bool(mask: np.ndarray, name: str) -> np.ndarray:
    return _check_mask(mask, name).astype(bool, copy=False)


def _check_same_grid(a: np.ndarray | PreparedReference, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise GridMismatch(f"masks live on different grids: {a.shape} vs {b.shape}")


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """Dice-Sorensen coefficient of two binary masks.

    2|A n B| / (|A| + |B|); two empty masks score 1.0.
    """
    a = _as_bool(a, "a")
    b = _as_bool(b, "b")
    _check_same_grid(a, b)
    return dice_from_counts(int(np.logical_and(a, b).sum()), int(a.sum()), int(b.sum()))


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Boolean map of foreground voxels with a background 6-neighbor, the
    grid border counting as background. An F-order mask is worked on as its
    C-order transpose."""
    mask = _as_bool(mask, "mask")
    if mask.flags.f_contiguous and not mask.flags.c_contiguous:
        return surface_voxels(mask.T).T
    core = (slice(1, -1),) * 3
    interior = mask[core].copy()
    for axis in range(3):
        for shift in (slice(None, -2), slice(2, None)):
            interior &= mask[core[:axis] + (shift,) + core[axis + 1 :]]
    surface = mask.copy()
    surface[core] &= ~interior
    return surface


def _padded_box(mask) -> tuple[slice, ...]:
    """One mask's nonzero bounding box widened by 1 voxel and clipped to the
    grid; size 0 when the mask is empty.

    One pass in memory order: the mask is walked plane by plane along its
    slowest axis (the largest stride: the last axis of a Fortran-order
    array, the first of a C-order one), holding one plane's ``!= 0`` at a
    time, and each plane with a hit adds its projections onto the other
    axes to the box's."""
    arr = np.asarray(mask)
    slow = int(np.argmax(np.abs(arr.strides)))
    others = [axis for axis in range(arr.ndim) if axis != slow]
    hits = [np.zeros(n, dtype=bool) for n in arr.shape]
    for i, plane in enumerate(np.moveaxis(arr, slow, 0)):
        nonzero = plane != 0
        if nonzero.any():
            hits[slow][i] = True
            for j, axis in enumerate(others):
                hits[axis] |= nonzero.any(axis=tuple(a for a in range(nonzero.ndim) if a != j))
    box = []
    for axis, axis_hits in enumerate(hits):
        where = np.flatnonzero(axis_hits)
        if not where.size:
            return (slice(0, 0),) * arr.ndim
        box.append(slice(max(int(where[0]) - 1, 0), min(int(where[-1]) + 2, arr.shape[axis])))
    return tuple(box)


def box_union(boxes) -> tuple[slice, ...]:
    """The smallest box holding every box of nonzero size in ``boxes``.

    There is at least one box, and all have one rank. When every box has
    size 0 the union has size 0. The union of the boxes ``foreground_box``
    finds for single masks is the box it finds for all of them: padding and
    clipping commute with taking the union, and empty masks add nothing.
    """
    boxes = list(boxes)
    full = [box for box in boxes if all(s.stop > s.start for s in box)]
    if not full:
        return (slice(0, 0),) * len(boxes[0])
    return tuple(slice(min(s.start for s in axis), max(s.stop for s in axis)) for axis in zip(*full))


def foreground_box(masks) -> tuple[slice, ...]:
    """Slices of the union bounding box of the masks' nonzero voxels,
    widened by 1 voxel on each side and clipped to the grid.

    There is at least one mask, and all share one shape. When every mask is
    empty the box has size 0.
    """
    return box_union(_padded_box(mask) for mask in masks)


def foreground_values(mask) -> tuple[tuple[slice, ...], np.ndarray]:
    """The mask's :func:`foreground_box` and ``np.unique`` of the box: every
    nonzero value of the mask, and 0 unless the box holds none (every voxel
    outside the box is 0)."""
    box = foreground_box([mask])
    return box, np.unique(np.asarray(mask)[box])


def check_label_codes(labels) -> tuple:
    """``labels`` as a tuple; ``ValueError`` if a code is outside 1..255.

    Code 0 is background. Metrics and fusion work inside the foreground box,
    which is exact only because nothing is scored or voted outside it. The
    consensus is uint8, so a larger or negative code would wrap.
    """
    labels = tuple(labels)
    for label in labels:
        if not 1 <= label.code <= 255:
            raise ValueError(f"label {label.name!r} has code {label.code}, outside 1..255")
    return labels


def _squared_extent(shape, sp: np.ndarray) -> float:
    """sum((shape * spacing)**2): no squared mm offset on the grid exceeds it."""
    with np.errstate(over="ignore"):
        return float(np.sum((np.array(shape) * sp) ** 2))


def _spacing_array(spacing, shape) -> np.ndarray:
    """``spacing`` as float64; ``ValueError`` unless it is 3 positive finite
    numbers at which the grid's squared mm extent is finite, so no squared
    distance overflows."""
    arr = np.asarray(spacing, dtype=np.float64)
    if arr.shape != (3,) or not np.all((arr > 0) & np.isfinite(arr)):
        raise ValueError(f"spacing must be 3 positive finite numbers, got {spacing!r}")
    if not np.isfinite(_squared_extent(shape, arr)):
        raise ValueError(f"spacing {spacing!r} is too large: the squared mm extent of a {shape} grid overflows")
    return arr


def dice_from_counts(intersection: int, size_a: int, size_b: int) -> float:
    """Dice of two masks from integer voxel counts: 2|A n B| / (|A| + |B|),
    and 1.0 when both are empty. Every Dice in the package is this one
    expression, so equal counts give equal floats."""
    total = size_a + size_b
    if total == 0:
        return 1.0
    return 2.0 * intersection / total


@dataclass(frozen=True, eq=False)
class LabelSurface:
    """One binary mask, ready for scoring: the mask, its voxel count, its
    surface map, the surface voxels in C scan order, and a KD-tree over
    their mm positions (``None`` when the mask is empty)."""

    mask: np.ndarray
    count: int
    surface: np.ndarray
    points: np.ndarray
    tree: cKDTree | None


def _kd_tree(positions: np.ndarray) -> cKDTree:
    """A ``cKDTree`` over ``positions``: sliding-midpoint splits and leaves
    of 64 points, which build faster than balanced leaves of 16 and query as
    fast. The shape cannot change a distance: the nearest one is unique.
    ``scipy.spatial`` is imported on first use: it adds about 0.1 s to every
    process that imports the package, and only scoring needs it."""
    from scipy.spatial import cKDTree

    return cKDTree(positions, leafsize=64, balanced_tree=False)


def _label_surface(mask: np.ndarray, sp: np.ndarray) -> LabelSurface:
    """The :class:`LabelSurface` of a boolean mask at spacing ``sp``."""
    surface = surface_voxels(mask)
    points = np.argwhere(surface)
    tree = _kd_tree(points * sp) if len(points) else None
    count = int(np.count_nonzero(mask))
    return LabelSurface(mask=mask, count=count, surface=surface, points=points, tree=tree)


# Surface voxels whose KD distance lies within this relative margin of the
# nearest are near-ties: their exact distances may round either way.
_TIE_RTOL = 1e-9
# Neighbours fetched per query. On a grid most nearest distances are shared
# by at most this many surface voxels; a point whose every fetched neighbour
# is a near-tie gathers the rest by a ball query.
_NEIGHBOURS = 4


def _exact_distances(points: np.ndarray, targets: np.ndarray, sp: np.ndarray) -> np.ndarray:
    """sqrt(sum((offset * spacing)**2)) of each integer offset between
    ``points`` and ``targets``, summed over the axes in order."""
    offset = (points - targets) * sp
    return np.sqrt(offset[..., 0] ** 2 + offset[..., 1] ** 2 + offset[..., 2] ** 2)


def _directed_distances(points: np.ndarray, target: LabelSurface, sp: np.ndarray) -> np.ndarray:
    """The mm distance from each of ``points`` to the nearest surface voxel
    of ``target``: 0 for a voxel on both surfaces. Where KD arithmetic is
    exact (integral spacings, see the module docstring) it is the KD
    nearest distance; elsewhere it is the smallest exact distance
    (:func:`_exact_distances`) over every surface voxel whose KD distance
    is within ``_TIE_RTOL`` of the nearest (the tie rule)."""
    out = np.zeros(len(points))
    away = np.flatnonzero(~target.surface[tuple(points.T)])
    if not away.size:
        return out
    if np.all(sp % 1 == 0) and _squared_extent(target.surface.shape, sp) < 2.0**53:
        out[away] = target.tree.query(points[away] * sp, k=1)[0]
        return out
    k = min(_NEIGHBOURS, len(target.points))
    dist, idx = target.tree.query(points[away] * sp, k=k)
    dist, idx = dist.reshape(away.size, k), idx.reshape(away.size, k)
    near = dist <= dist[:, :1] * (1.0 + _TIE_RTOL)
    exact = _exact_distances(points[away, None, :], target.points[idx], sp)
    out[away] = np.where(near, exact, np.inf).min(axis=1)
    crowded = np.flatnonzero(near[:, -1]) if k == _NEIGHBOURS else ()
    if len(crowded):
        rows = away[crowded]
        hits = target.tree.query_ball_point(points[rows] * sp, dist[crowded, 0] * (1.0 + _TIE_RTOL))
        for row, found in zip(rows, hits):
            out[row] = _exact_distances(points[row], target.points[found], sp).min()
    return out


def _surface_scores(
    a: LabelSurface, b: LabelSurface, sp: np.ndarray, percentile: float, tolerance_mm: float
) -> tuple[float | None, float]:
    """(Hausdorff, NSD) of two surfaces from the two directed distance arrays."""
    if not (a.count and b.count):
        return None, 1.0 if a.count == b.count else 0.0
    d_ab = _directed_distances(a.points, b, sp)
    d_ba = _directed_distances(b.points, a, sp)
    hd = float(max(np.percentile(d_ab, percentile), np.percentile(d_ba, percentile)))
    frac_ab = float(np.mean(d_ab <= tolerance_mm))
    frac_ba = float(np.mean(d_ba <= tolerance_mm))
    return hd, (frac_ab + frac_ba) / 2.0


def _pair_scores(a, b, spacing, percentile: float, tolerance_mm: float) -> tuple[float | None, float]:
    """(Hausdorff, NSD) of two binary masks, inside their foreground box."""
    a = _as_bool(a, "a")
    b = _as_bool(b, "b")
    _check_same_grid(a, b)
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    if tolerance_mm < 0:
        raise ValueError(f"tolerance_mm must be >= 0, got {tolerance_mm}")
    sp = _spacing_array(spacing, a.shape)
    box = foreground_box((a, b))
    return _surface_scores(_label_surface(a[box], sp), _label_surface(b[box], sp), sp, percentile, tolerance_mm)


def hausdorff(
    a: np.ndarray,
    b: np.ndarray,
    spacing,
    percentile: float = DEFAULT_HAUSDORFF_PERCENTILE,
) -> float | None:
    """Symmetric percentile Hausdorff distance between mask surfaces, in mm.

    Returns ``None`` when either mask is empty (the distance is undefined).
    ``percentile=100`` is the classic maximum Hausdorff distance.
    """
    return _pair_scores(a, b, spacing, percentile, DEFAULT_NSD_TOLERANCE_MM)[0]


def nsd(
    a: np.ndarray,
    b: np.ndarray,
    spacing,
    tolerance_mm: float = DEFAULT_NSD_TOLERANCE_MM,
) -> float:
    """Normalized surface distance: fraction of surface within tolerance.

    Computed in both directions and averaged. Two empty masks score 1.0; one
    empty mask scores 0.0.
    """
    return _pair_scores(a, b, spacing, DEFAULT_HAUSDORFF_PERCENTILE, tolerance_mm)[1]


@dataclass(frozen=True, eq=False)
class ComponentLabeling:
    """Connected components with deterministic ids 1..count."""

    component_map: np.ndarray
    count: int
    connectivity: int


def connected_components(mask: np.ndarray, connectivity: int = DEFAULT_CONNECTIVITY) -> ComponentLabeling:
    """Label 3-D connected components under 6, 18, or 26 connectivity.

    Component 1 contains the first foreground voxel in scan order,
    component 2 the first voxel not in component 1, and so on.
    """
    mask = _as_bool(mask, "mask")
    if connectivity not in CONNECTIVITIES:
        raise ValueError(f"connectivity must be one of {CONNECTIVITIES}, got {connectivity}")
    struct = ndimage.generate_binary_structure(3, _STRUCT_RANK[connectivity])
    labeled, count = ndimage.label(mask, structure=struct)
    labeled.setflags(write=False)
    return ComponentLabeling(component_map=labeled, count=int(count), connectivity=connectivity)


@dataclass(frozen=True)
class LesionMatch:
    """Per-reference-lesion outcome of lesion-wise matching."""

    lesion_id: int
    size_voxels: int
    dsc: float
    matched: bool


@dataclass(frozen=True)
class LesionwiseReport:
    entries: tuple[LesionMatch, ...]
    false_positive_components: int
    connectivity: int
    min_lesion_voxels: int

    @property
    def mean_dsc(self) -> float | None:
        if not self.entries:
            return None
        return float(np.mean([e.dsc for e in self.entries]))

    def to_json_dict(self) -> dict:
        return {
            "connectivity": self.connectivity,
            "min_lesion_voxels": self.min_lesion_voxels,
            "lesions": [
                {
                    "lesion_id": e.lesion_id,
                    "size_voxels": e.size_voxels,
                    "dsc": e.dsc,
                    "matched": e.matched,
                }
                for e in self.entries
            ],
            "false_positive_components": self.false_positive_components,
            "mean_dsc": self.mean_dsc,
        }


def lesionwise_dice(
    reference: np.ndarray | ComponentLabeling,
    prediction: np.ndarray,
    connectivity: int = DEFAULT_CONNECTIVITY,
    min_lesion_voxels: int = 0,
) -> LesionwiseReport:
    """Per-lesion Dice with overlap-union matching.

    Each reference lesion (connected component) is scored against the union
    of all prediction components that overlap it; an unmatched lesion scores
    0. Prediction components overlapping no counted lesion are tallied as
    false positives. Reference lesions below ``min_lesion_voxels`` are
    ignored entirely.

    ``reference`` may be labelled already (:func:`connected_components` at
    ``connectivity``), so one reference is labelled once for any number of
    predictions.
    """
    prediction = _as_bool(prediction, "prediction")
    if isinstance(reference, ComponentLabeling):
        if reference.connectivity != connectivity:
            raise ValueError(
                f"reference is labelled at connectivity {reference.connectivity}, not {connectivity}"
            )
        ref_cc = reference
    else:
        ref_cc = connected_components(_as_bool(reference, "reference"), connectivity)
    _check_same_grid(ref_cc.component_map, prediction)
    pred_cc = connected_components(prediction, connectivity)
    ref_ids, pred_ids = ref_cc.component_map, pred_cc.component_map

    # A sparse contingency table of lesions against prediction components.
    # A lesion's intersection with the union of the components overlapping
    # it is its voxels under any prediction, and that union's size is the sum
    # of their sizes. The dense (lesions x components) table would grow with
    # the product of the two counts, which a speckled mask makes huge.
    lesion_sizes = np.bincount(ref_ids.ravel(), minlength=ref_cc.count + 1)
    pred_sizes = np.bincount(pred_ids.ravel(), minlength=pred_cc.count + 1)
    both = (ref_ids != 0) & (pred_ids != 0)
    ref_hit, pred_hit = ref_ids[both], pred_ids[both]
    intersections = np.bincount(ref_hit, minlength=ref_cc.count + 1)
    pairs = np.unique(ref_hit.astype(np.int64) * (pred_cc.count + 1) + pred_hit)
    pair_lesion, pair_pred = np.divmod(pairs, pred_cc.count + 1)
    # Pairs sort by lesion; lesion i owns pairs starts[i]:starts[i + 1].
    starts = np.searchsorted(pair_lesion, np.arange(ref_cc.count + 2))

    entries: list[LesionMatch] = []
    matched_pred_ids: set[int] = set()
    for lesion_id in range(1, ref_cc.count + 1):
        size = int(lesion_sizes[lesion_id])
        if size < min_lesion_voxels:
            continue
        overlapping = pair_pred[starts[lesion_id] : starts[lesion_id + 1]]
        matched_pred_ids.update(overlapping.tolist())
        if overlapping.size:
            union = int(pred_sizes[overlapping].sum())
            dsc = dice_from_counts(int(intersections[lesion_id]), size, union)
            entries.append(LesionMatch(lesion_id=lesion_id, size_voxels=size, dsc=dsc, matched=True))
        else:
            entries.append(LesionMatch(lesion_id=lesion_id, size_voxels=size, dsc=0.0, matched=False))

    false_positives = pred_cc.count - len(matched_pred_ids)
    return LesionwiseReport(
        entries=tuple(entries),
        false_positive_components=false_positives,
        connectivity=connectivity,
        min_lesion_voxels=min_lesion_voxels,
    )


@dataclass(frozen=True)
class LabelMetrics:
    dsc: float
    hd_mm: float | None
    nsd: float

    def to_json_dict(self) -> dict:
        return {"dsc": self.dsc, "hd95_mm": self.hd_mm, "nsd": self.nsd}


@dataclass(frozen=True)
class MetricReport:
    """Per-label overlap/surface metrics plus lesion-wise Dice on the
    whole-foreground masks."""

    per_label: dict[str, LabelMetrics] = field(default_factory=dict)
    lesionwise: LesionwiseReport | None = None
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def to_json_dict(self) -> dict:
        return {
            "spacing_mm": list(self.spacing_mm),
            "per_label": {name: m.to_json_dict() for name, m in self.per_label.items()},
            "lesionwise": self.lesionwise.to_json_dict() if self.lesionwise else None,
        }


@dataclass(frozen=True, eq=False)
class PreparedReference:
    """A reference mask made ready to score predictions against: per label
    code its :class:`LabelSurface`, and the lesions of its foreground."""

    shape: tuple[int, ...]
    spacing: tuple[float, float, float]
    labels: dict[int, LabelSurface]
    lesions: ComponentLabeling


def _check_mask(mask: np.ndarray, name: str) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.ndim != 3:
        raise ValueError(f"{name} must be a 3-D array, got shape {mask.shape}")
    return mask


def prepare_reference(mask: np.ndarray, labels, spacing) -> PreparedReference:
    """The reference side of :func:`compute_metric_report`, built once.

    ``labels`` as for :func:`compute_metric_report`. The foreground is
    labelled at ``DEFAULT_CONNECTIVITY`` for lesion-wise Dice.
    """
    mask = _check_mask(mask, "reference")
    labels = check_label_codes(labels)
    sp = _spacing_array(spacing, mask.shape)
    return PreparedReference(
        shape=mask.shape,
        spacing=(float(sp[0]), float(sp[1]), float(sp[2])),
        labels={label.code: _label_surface(mask == label.code, sp) for label in labels},
        lesions=connected_components(mask != 0),
    )


def compute_metric_report(
    reference: np.ndarray | PreparedReference,
    prediction: np.ndarray,
    labels,
    spacing,
) -> MetricReport:
    """Score a multi-label prediction against a reference mask.

    ``labels`` is an iterable of objects with ``code`` and ``name`` (the
    registry's label type); a code outside 1..255 raises ``ValueError``.
    Per-label metrics binarize on the code and report HD95 and NSD at
    1 mm (the ``DEFAULT_*`` constants); the lesion-wise report runs on
    any-foreground masks with 26-connectivity and counts every lesion.

    ``reference`` is a mask or a :class:`PreparedReference` of one, prepared
    for every code of ``labels`` at ``spacing``; a caller scoring several
    predictions against one reference prepares it once. A plain mask is
    cropped with the prediction to their foreground box and prepared here.
    """
    prediction = np.asarray(prediction)
    if not isinstance(reference, PreparedReference):
        reference = np.asarray(reference)
    _check_same_grid(reference, prediction)
    sp = _spacing_array(spacing, _check_mask(prediction, "prediction").shape)
    if isinstance(reference, np.ndarray):
        box = foreground_box((_check_mask(reference, "reference"), prediction))
        reference, prediction = prepare_reference(reference[box], labels, spacing), prediction[box]
    labels = check_label_codes(labels)
    if tuple(sp) != reference.spacing:
        raise ValueError(f"spacing {tuple(sp)} is not the reference's {reference.spacing}")
    per_label: dict[str, LabelMetrics] = {}
    for label in labels:
        if label.code not in reference.labels:
            raise ValueError(f"label {label.name!r} (code {label.code}) was not prepared in the reference")
        ref = reference.labels[label.code]
        pred = _label_surface(prediction == label.code, sp)
        hd_mm, surface_dice = _surface_scores(
            ref, pred, sp, DEFAULT_HAUSDORFF_PERCENTILE, DEFAULT_NSD_TOLERANCE_MM
        )
        dsc = dice_from_counts(int(np.count_nonzero(ref.mask & pred.mask)), ref.count, pred.count)
        per_label[label.name] = LabelMetrics(dsc=dsc, hd_mm=hd_mm, nsd=surface_dice)
    return MetricReport(
        per_label=per_label,
        lesionwise=lesionwise_dice(reference.lesions, prediction != 0),
        spacing_mm=reference.spacing,
    )
