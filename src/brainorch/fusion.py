"""Consensus fusion of candidate segmentations.

Two methods over per-label binary decompositions:

- ``majority``: a voxel keeps a label iff strictly more than half of the
  candidates assign it. An even split is not a majority, so the voxel stays
  background.
- ``simple``: iterative performance weighting. Start from the majority
  consensus, score each candidate's label mask against it with Dice, drop
  candidates scoring below mean - drop_factor * std (never the top scorer;
  nobody when the scores have zero variance), then re-vote with Dice weights
  until the consensus changes by less than ``convergence_epsilon`` (fraction
  of the old-union-new foreground) or the iteration cap is hit.

Every label is fused independently; voxels claimed by several labels resolve
by fixed priority (ET > NETC > RC > SNFH / ED > CC, see the registry). Labels
outside the named set rank below all named ones, lowest code first.

Each candidate mask is vetted once (:func:`vet_candidate`), and the vet
reads codes only inside the mask's own foreground box
(:func:`metrics.foreground_box`: the bounding box of its nonzero voxels,
padded by 1 voxel). This is exact: every voxel outside the box is 0, which is
always allowed. ``CandidateSet`` keeps each mask's box, and the union of the
kept boxes is the candidates' foreground box, so nothing scans the masks
again. Both methods run inside that box and paste the consensus into a zero
grid. This is exact too: outside the box every candidate is background, so
no label gets a vote there, and the Dice scores and convergence counts of
SIMPLE only count voxels inside it. The consensus is background outside the
box as well, so the pipeline scores each candidate against it inside the
box. Label code 0 is background, so ``CandidateSet`` rejects a label with
code 0 (``ValueError``); such a label would be voted outside the box.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import EmptyCandidateSet, GridMismatch, UnknownLabel
from .geometry import GRID_ATOL_MM
from .metrics import box_union, check_label_codes, dice, foreground_box
from .nifti import Volume
from .registry import LABEL_PRIORITY, Label

METHOD_MAJORITY = "majority"
METHOD_SIMPLE = "simple"
FUSION_METHODS = (METHOD_MAJORITY, METHOD_SIMPLE)


def check_fusion_method(method: str) -> None:
    """Raise ``ValueError`` unless ``method`` names a fusion method."""
    if method not in FUSION_METHODS:
        raise ValueError(f"unknown fusion method {method!r}; expected one of {FUSION_METHODS}")


@dataclass(frozen=True)
class SimpleParams:
    """Tuning knobs for iterative performance-weighted fusion."""

    max_iterations: int = 25
    drop_factor: float = 1.0
    convergence_epsilon: float = 1e-4

    def __post_init__(self):
        # A float or a bool would reach range() or the JSON record only after
        # every container has run.
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, int):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        # NaN fails every comparison, so it would pass the range checks below
        # and be written to fusion.json as a bare NaN token, which is not JSON.
        for name in ("drop_factor", "convergence_epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.drop_factor < 0:
            raise ValueError(f"drop_factor must be >= 0, got {self.drop_factor}")
        if self.convergence_epsilon < 0:
            raise ValueError(
                f"convergence_epsilon must be >= 0, got {self.convergence_epsilon}"
            )

    def to_json_dict(self) -> dict:
        return {
            "max_iterations": self.max_iterations,
            "drop_factor": self.drop_factor,
            "convergence_epsilon": self.convergence_epsilon,
        }


def infer_label_set(masks) -> tuple[Label, ...]:
    """Label objects for every nonzero code present in the masks.

    Used when no task context names the labels; codes get generic names.
    """
    codes: set[int] = set()
    for mask in masks:
        data = mask.data if isinstance(mask, Volume) else np.asarray(mask)
        codes |= {int(v) for v in np.unique(data[foreground_box([data])])}
    codes.discard(0)
    return tuple(Label(code, f"L{code}") for code in sorted(codes))


def label_priority_order(labels) -> tuple[Label, ...]:
    """Labels sorted highest priority first; unnamed labels rank last."""

    def key(label: Label):
        try:
            return (LABEL_PRIORITY.index(label.name), label.code)
        except ValueError:
            return (len(LABEL_PRIORITY), label.code)

    return tuple(sorted(labels, key=key))


def grid_mismatch(vol: Volume, shape, affine, grid: str) -> str | None:
    """Why ``vol`` does not sit on the grid ``(shape, affine)``, or None.

    Shapes must match exactly, affine entries within ``GRID_ATOL_MM``;
    ``grid`` names the grid in the reason.
    """
    if vol.shape != tuple(shape):
        return f"shape {vol.shape} does not match {grid} {tuple(shape)}"
    if not np.allclose(vol.affine, affine, atol=GRID_ATOL_MM):
        return f"affine does not match {grid}"
    return None


def _check_integer_dtype(data: np.ndarray, name: str) -> None:
    if not np.issubdtype(data.dtype, np.integer):
        raise ValueError(f"{name} has non-integer dtype {data.dtype}")


def vet_candidate(data: np.ndarray, labels, name: str) -> tuple[slice, ...]:
    """Check the rule every candidate mask obeys and return the mask's
    foreground box (:func:`metrics.foreground_box`).

    The rule: an integer dtype holding only background and the codes of
    ``labels``. Raises ``ValueError`` for a non-integer dtype and
    :class:`UnknownLabel` for stray codes; ``name`` opens the message. Only
    the box is searched for codes: outside it every voxel is 0.
    """
    _check_integer_dtype(data, name)
    box = foreground_box([data])
    allowed = {lb.code for lb in labels} | {0}
    stray = {int(v) for v in np.unique(data[box])} - allowed
    if stray:
        raise UnknownLabel(
            f"{name} holds label codes {sorted(stray)} outside the task's set "
            f"{sorted(allowed - {0})}"
        )
    return box


@dataclass(frozen=True)
class CandidateSet:
    """Candidate masks on one shared grid with a declared label set.

    Each mask is vetted (:func:`vet_candidate`) and its foreground box kept
    in ``boxes``. A caller that has vetted every mask against ``labels``
    already passes the boxes as ``_vetted_boxes``, and no mask is scanned
    again; the grid and id checks run either way.
    """

    masks: tuple[Volume, ...]
    source_ids: tuple[str, ...]
    labels: tuple[Label, ...]
    boxes: tuple[tuple[slice, ...], ...] = field(init=False, repr=False, compare=False)
    _vetted_boxes: InitVar[tuple | None] = None

    def __post_init__(self, _vetted_boxes):
        masks = tuple(self.masks)
        source_ids = tuple(str(s) for s in self.source_ids)
        labels = check_label_codes(self.labels)
        if not masks:
            raise EmptyCandidateSet("candidate set holds no masks")
        if len(source_ids) != len(masks):
            raise ValueError(
                f"{len(masks)} masks but {len(source_ids)} source ids"
            )
        if len(set(source_ids)) != len(source_ids):
            raise ValueError(f"duplicate source ids in {source_ids}")
        if _vetted_boxes is not None and len(_vetted_boxes) != len(masks):
            raise ValueError(f"{len(masks)} masks but {len(_vetted_boxes)} vetted boxes")
        ref = masks[0]
        boxes = []
        for sid, mask in zip(source_ids, masks):
            problem = grid_mismatch(mask, ref.shape, ref.affine, "the set's grid")
            if problem is not None:
                raise GridMismatch(f"candidate {sid!r} {problem}")
            if _vetted_boxes is None:
                boxes.append(vet_candidate(mask.data, labels, f"candidate {sid!r}"))
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "source_ids", source_ids)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "boxes", tuple(boxes if _vetted_boxes is None else _vetted_boxes))

    @classmethod
    def from_volumes(cls, masks, source_ids=None, labels=None) -> "CandidateSet":
        masks = tuple(masks)
        if source_ids is None:
            source_ids = tuple(f"candidate-{i}" for i in range(len(masks)))
        if labels is None:
            # Check the dtype before codes are read: int(NaN) raises untyped.
            for sid, mask in zip(source_ids, masks):
                _check_integer_dtype(mask.data, f"candidate {str(sid)!r}")
            labels = infer_label_set(masks)
        return cls(masks=masks, source_ids=tuple(source_ids), labels=tuple(labels))

    @property
    def grid_affine(self) -> np.ndarray:
        return self.masks[0].affine

    @property
    def box(self) -> tuple[slice, ...]:
        """The candidates' foreground box: the union of ``boxes``, which is
        ``foreground_box`` of all the masks. Every candidate, and so every
        consensus, is background outside it."""
        return box_union(self.boxes)


@dataclass(frozen=True)
class FusionResult:
    """Consensus mask plus everything needed to audit how it was reached."""

    consensus: Volume
    method: str
    per_candidate_weights: dict[str, dict[str, float]]
    iterations_run: int
    dropped: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # Active candidate count per iteration, per label; never increases.
    iteration_log: dict[str, tuple[int, ...]] = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "params": self.params,
            "iterations_run": self.iterations_run,
            "per_candidate_weights": {
                sid: dict(sorted(weights.items()))
                for sid, weights in sorted(self.per_candidate_weights.items())
            },
            "dropped": {name: sorted(ids) for name, ids in sorted(self.dropped.items())},
            "iteration_log": {name: list(log) for name, log in sorted(self.iteration_log.items())},
        }


def _boxed_stack(candidates: CandidateSet) -> tuple[np.ndarray, tuple[slice, ...]]:
    """The candidates' data stacked inside their foreground box, and the box.

    All-empty candidates give a zero-size box.
    """
    box = candidates.box
    return np.stack([m.data[box] for m in candidates.masks]), box


def _overlay(per_label_masks: dict[int, np.ndarray], candidates: CandidateSet, box) -> np.ndarray:
    """Merge per-label binaries computed inside ``box`` into one read-only
    mask on the candidates' grid, highest priority winning."""
    out = np.zeros(candidates.masks[0].shape, dtype=np.uint8)
    inside = out[box]  # a view: writes land in ``out``
    for label in reversed(label_priority_order(candidates.labels)):
        inside[per_label_masks[label.code]] = label.code
    out.setflags(write=False)
    return out


def _strict_majority(binary_stack: np.ndarray) -> np.ndarray:
    votes = binary_stack.sum(axis=0, dtype=np.int64)
    return votes * 2 > binary_stack.shape[0]


def majority_vote(candidates: CandidateSet) -> Volume:
    """Per-label strict-majority consensus."""
    stack, box = _boxed_stack(candidates)
    per_label = {lb.code: _strict_majority(stack == lb.code) for lb in candidates.labels}
    return Volume(data=_overlay(per_label, candidates, box), affine=candidates.grid_affine)


def _simple_one_label(binary_stack: np.ndarray, params: SimpleParams):
    """Iterative fusion of one label; returns (consensus, weights, dropped
    index set, iterations, active-count trace)."""
    n = binary_stack.shape[0]
    active = list(range(n))
    consensus = _strict_majority(binary_stack)
    scores = np.zeros(n, dtype=np.float64)
    dropped: set[int] = set()
    trace: list[int] = []
    iterations = 0
    for _ in range(params.max_iterations):
        iterations += 1
        for i in active:
            scores[i] = dice(binary_stack[i], consensus)
        if len(active) > 1:
            vals = scores[active]
            std = float(vals.std())
            # Zero variance means no outlier to drop; the threshold would
            # remove everyone or no one anyway.
            if std > 0:
                threshold = float(vals.mean()) - params.drop_factor * std
                best = active[int(np.argmax(vals))]
                surviving = [i for i in active if i == best or scores[i] >= threshold]
                dropped |= set(active) - set(surviving)
                active = surviving
        trace.append(len(active))
        weights = scores[active]
        total = float(weights.sum())
        if total == 0:
            new_consensus = np.zeros_like(consensus)
        else:
            affirm = np.tensordot(weights, binary_stack[active].astype(np.float64), axes=1)
            new_consensus = affirm > total / 2.0
        changed = int(np.logical_xor(new_consensus, consensus).sum())
        union = int(np.logical_or(new_consensus, consensus).sum())
        fraction = changed / max(1, union)
        consensus = new_consensus
        if fraction < params.convergence_epsilon:
            break
    weights_out = np.zeros(n, dtype=np.float64)
    for i in active:
        weights_out[i] = scores[i]
    return consensus, weights_out, dropped, iterations, tuple(trace)


def simple_fuse(candidates: CandidateSet, params: SimpleParams | None = None) -> FusionResult:
    """Iterative performance-weighted fusion over all labels."""
    params = params or SimpleParams()
    stack, box = _boxed_stack(candidates)
    per_label_masks: dict[int, np.ndarray] = {}
    weights: dict[str, dict[str, float]] = {sid: {} for sid in candidates.source_ids}
    dropped: dict[str, tuple[str, ...]] = {}
    iteration_log: dict[str, tuple[int, ...]] = {}
    iterations_run = 0
    for label in candidates.labels:
        consensus, w, dropped_idx, iters, trace = _simple_one_label(stack == label.code, params)
        per_label_masks[label.code] = consensus
        for i, sid in enumerate(candidates.source_ids):
            weights[sid][label.name] = float(w[i])
        if dropped_idx:
            dropped[label.name] = tuple(candidates.source_ids[i] for i in sorted(dropped_idx))
        iteration_log[label.name] = trace
        iterations_run = max(iterations_run, iters)
    return FusionResult(
        consensus=Volume(data=_overlay(per_label_masks, candidates, box), affine=candidates.grid_affine),
        method=METHOD_SIMPLE,
        per_candidate_weights=weights,
        iterations_run=max(iterations_run, 1) if candidates.labels else 1,
        dropped=dropped,
        iteration_log=iteration_log,
        params=params.to_json_dict(),
    )


def fuse(
    candidates: CandidateSet,
    method: str = METHOD_MAJORITY,
    params: SimpleParams | None = None,
) -> FusionResult:
    """Dispatch to a fusion method.

    A set of one mask is its own consensus (:func:`identity_result`) under
    either method. Majority voting reports uniform weight 1.0 and a single
    iteration, so downstream consumers see one result shape regardless of
    method.
    """
    check_fusion_method(method)
    if len(candidates.masks) == 1:
        return identity_result(candidates)
    if method == METHOD_MAJORITY:
        consensus = majority_vote(candidates)
        n = len(candidates.masks)
        return FusionResult(
            consensus=consensus,
            method=METHOD_MAJORITY,
            per_candidate_weights={
                sid: {lb.name: 1.0 for lb in candidates.labels} for sid in candidates.source_ids
            },
            iterations_run=1,
            iteration_log={lb.name: (n,) for lb in candidates.labels},
            params={},
        )
    return simple_fuse(candidates, params)


def identity_result(candidates: CandidateSet) -> FusionResult:
    """Single-candidate passthrough: the mask is its own consensus."""
    if len(candidates.masks) != 1:
        raise ValueError(f"identity fusion needs exactly 1 candidate, got {len(candidates.masks)}")
    data = candidates.masks[0].data.astype(np.uint8, copy=True)
    data.setflags(write=False)
    sid = candidates.source_ids[0]
    return FusionResult(
        consensus=Volume(data=data, affine=candidates.grid_affine),
        method="identity",
        per_candidate_weights={sid: {lb.name: 1.0 for lb in candidates.labels}},
        iterations_run=1,
        iteration_log={lb.name: (1,) for lb in candidates.labels},
        params={},
    )
