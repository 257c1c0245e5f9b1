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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCandidateSet, GridMismatch, UnknownLabel
from .nifti import Volume
from .registry import LABEL_PRIORITY, Label

GRID_ATOL_MM = 1e-3

METHOD_MAJORITY = "majority"
METHOD_SIMPLE = "simple"
FUSION_METHODS = (METHOD_MAJORITY, METHOD_SIMPLE)


@dataclass(frozen=True)
class SimpleParams:
    """Tuning knobs for iterative performance-weighted fusion."""

    max_iterations: int = 25
    drop_factor: float = 1.0
    convergence_epsilon: float = 1e-4

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
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
        codes |= {int(v) for v in np.unique(data)}
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


def check_candidate_codes(data: np.ndarray, labels, name: str) -> None:
    """The rule every candidate mask obeys: an integer dtype holding only
    background and the codes of ``labels``.

    Raises ``ValueError`` for a non-integer dtype and :class:`UnknownLabel`
    for stray codes; ``name`` opens the message.
    """
    if not np.issubdtype(data.dtype, np.integer):
        raise ValueError(f"{name} has non-integer dtype {data.dtype}")
    allowed = {lb.code for lb in labels} | {0}
    stray = {int(v) for v in np.unique(data)} - allowed
    if stray:
        raise UnknownLabel(
            f"{name} holds label codes {sorted(stray)} outside the task's set "
            f"{sorted(allowed - {0})}"
        )


@dataclass(frozen=True)
class CandidateSet:
    """Candidate masks on one shared grid with a declared label set."""

    masks: tuple[Volume, ...]
    source_ids: tuple[str, ...]
    labels: tuple[Label, ...]

    def __post_init__(self):
        masks = tuple(self.masks)
        source_ids = tuple(str(s) for s in self.source_ids)
        labels = tuple(self.labels)
        if not masks:
            raise EmptyCandidateSet("candidate set holds no masks")
        if len(source_ids) != len(masks):
            raise ValueError(
                f"{len(masks)} masks but {len(source_ids)} source ids"
            )
        if len(set(source_ids)) != len(source_ids):
            raise ValueError(f"duplicate source ids in {source_ids}")
        ref = masks[0]
        for sid, mask in zip(source_ids, masks):
            problem = grid_mismatch(mask, ref.shape, ref.affine, "the set's grid")
            if problem is not None:
                raise GridMismatch(f"candidate {sid!r} {problem}")
            check_candidate_codes(mask.data, labels, f"candidate {sid!r}")
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "source_ids", source_ids)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_volumes(cls, masks, source_ids=None, labels=None) -> "CandidateSet":
        masks = tuple(masks)
        if source_ids is None:
            source_ids = tuple(f"candidate-{i}" for i in range(len(masks)))
        if labels is None:
            labels = infer_label_set(masks)
        return cls(masks=masks, source_ids=tuple(source_ids), labels=tuple(labels))

    @property
    def grid_affine(self) -> np.ndarray:
        return self.masks[0].affine

    def stacked(self) -> np.ndarray:
        return np.stack([m.data for m in self.masks])


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


def binarize(mask: "Volume | np.ndarray", label: Label, labels=None) -> np.ndarray:
    """Boolean map of voxels carrying ``label``'s code.

    When ``labels`` is given, asks for a label outside it raise
    :class:`UnknownLabel` instead of silently returning all-background.
    """
    if labels is not None and label.code not in {lb.code for lb in labels}:
        raise UnknownLabel(f"label {label.name!r} (code {label.code}) not in the declared set")
    data = mask.data if isinstance(mask, Volume) else np.asarray(mask)
    return data == label.code


def _overlay(per_label_masks: dict[int, np.ndarray], labels, shape) -> np.ndarray:
    """Merge per-label binaries into one mask, highest priority winning."""
    out = np.zeros(shape, dtype=np.uint8)
    for label in reversed(label_priority_order(labels)):
        out[per_label_masks[label.code]] = label.code
    return out


def _strict_majority(binary_stack: np.ndarray) -> np.ndarray:
    votes = binary_stack.sum(axis=0, dtype=np.int64)
    return votes * 2 > binary_stack.shape[0]


def majority_vote(candidates: CandidateSet) -> Volume:
    """Per-label strict-majority consensus."""
    stack = candidates.stacked()
    per_label = {lb.code: _strict_majority(stack == lb.code) for lb in candidates.labels}
    out = _overlay(per_label, candidates.labels, stack.shape[1:])
    out.setflags(write=False)
    return Volume(data=out, affine=candidates.grid_affine)


def _dice_bool(a: np.ndarray, b: np.ndarray) -> float:
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int(np.logical_and(a, b).sum()) / total


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
            scores[i] = _dice_bool(binary_stack[i], consensus)
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
    stack = candidates.stacked()
    n = len(candidates.masks)
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
    out = _overlay(per_label_masks, candidates.labels, stack.shape[1:])
    out.setflags(write=False)
    return FusionResult(
        consensus=Volume(data=out, affine=candidates.grid_affine),
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

    Majority voting reports uniform weight 1.0 and a single iteration, so
    downstream consumers see one result shape regardless of method.
    """
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
    if method == METHOD_SIMPLE:
        return simple_fuse(candidates, params)
    raise ValueError(f"unknown fusion method {method!r}; expected one of {FUSION_METHODS}")


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
