"""Consensus fusion of candidate segmentations.

Two methods over per-label binary decompositions, run by one per-label
vote loop over the candidates' vote patterns:

- ``majority``: a voxel keeps a label iff strictly more than half of the
  candidates assign it. An even split is not a majority, so the voxel stays
  background. Every candidate reports weight 1.0 and one iteration.
- ``simple`` (SIMPLE: Langerak et al., IEEE TMI 2010): iterative
  performance weighting. Start from the majority consensus, score each
  candidate's label mask against it with Dice, drop candidates scoring
  below mean - drop_factor * std (never the top scorer; nobody when the
  scores have zero variance), then re-vote with Dice weights until the
  consensus changes by less than ``convergence_epsilon`` (fraction of the
  old-union-new foreground) or the iteration cap is hit.

:func:`fuse` gives a set of one mask its majority vote under either
method, reported as method ``identity``: the vote of one mask is the mask.

Every label is fused independently; voxels claimed by several labels resolve
by fixed priority (ET > NETC > RC > SNFH / ED > CC, see the registry). Labels
outside the named set rank below all named ones, lowest code first.

Each label is voted on a table of vote patterns. A voxel's pattern sets
bit i when candidate i holds the label there, in the smallest unsigned
dtype with a bit per candidate (so at most ``MAX_CANDIDATES`` = 64 masks).
The distinct patterns are counted once, by one ``np.unique`` over the
voxels where some candidate votes, with the silent voxels counted as
pattern 0: the table of ``np.unique(pattern, return_counts=True)`` for any
number of candidates. Every step then runs on the pattern table with
exact integer counts: the strict-majority start, SIMPLE's Dice scores (the
voxel counts of :func:`metrics.dice`, through the same
``dice_from_counts``) and the convergence counts. SIMPLE's re-vote adds
each active candidate's weight to the patterns it votes in, in candidate
order, so a pattern's flag follows from its own votes and the weights
alone, wherever it sits in the table. A label is pasted where a voxel's
pattern is one the consensus flags (``np.isin``); no voxel-sized index
into the table is built.

Each candidate mask is scanned once (:func:`metrics.foreground_values`:
the distinct values inside the mask's foreground box, the bounding box of
its nonzero voxels padded by 1 voxel). The scan vets the mask
(:func:`vet_candidate`) or, when no task names the labels, finds them
(``CandidateSet.from_volumes``). This is exact: every voxel outside the box
is 0, which is always allowed. ``CandidateSet`` keeps each mask's box, and
the union of the kept boxes is the candidates' foreground box, so nothing
scans the masks again. The patterns are taken inside that box and the
consensus is pasted into a zero grid. This is exact too: outside the box
every candidate is background, so no label gets a vote there. The grid and
the patterns take the first mask's memory order (Fortran for a NIfTI
read), so the vote, the writer and the warp walk them forward. The
consensus is background outside the box as well, so the pipeline scores
each candidate against it inside the box. ``CandidateSet`` rejects a label
code outside 1..255 (``ValueError``): code 0 is background and would be
voted outside the box, and the consensus is uint8.

A candidate sits on the set's grid by :func:`geometry.grid_difference`, the
rule validation applies to the inputs; :func:`grid_mismatch` phrases it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import EmptyCandidateSet, GridMismatch, UnknownLabel
from .geometry import grid_difference
from .metrics import box_union, check_label_codes, dice_from_counts, foreground_values
from .nifti import Volume
from .registry import LABEL_PRIORITY, Label

METHOD_MAJORITY = "majority"
METHOD_SIMPLE = "simple"
FUSION_METHODS = (METHOD_MAJORITY, METHOD_SIMPLE)
# A voxel's votes for a label are one bit per candidate in an unsigned word.
MAX_CANDIDATES = 64


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


def label_priority_order(labels) -> tuple[Label, ...]:
    """Labels sorted highest priority first; unnamed labels rank last."""

    def key(label: Label):
        try:
            return (LABEL_PRIORITY.index(label.name), label.code)
        except ValueError:
            return (len(LABEL_PRIORITY), label.code)

    return tuple(sorted(labels, key=key))


def grid_mismatch(vol: Volume, ref, grid: str) -> str | None:
    """Why ``vol`` does not sit on the grid ``ref``, or None: the answer of
    :func:`geometry.grid_difference`, phrased with ``grid`` naming the grid."""
    difference = grid_difference(vol, ref)
    if difference == "shape":
        return f"shape {vol.shape} does not match {grid} {ref.shape}"
    if difference == "spacing":
        return f"spacing {np.round(vol.spacing, 4).tolist()} does not match {grid}"
    if difference == "affine":
        return f"affine does not match {grid}"
    return None


def _foreground_codes(data: np.ndarray, name: str) -> tuple[tuple[slice, ...], set[int]]:
    """The mask's :func:`metrics.foreground_values` as (box, code set).
    ``ValueError`` first for a non-integer dtype: ``int(NaN)`` is untyped."""
    if not np.issubdtype(data.dtype, np.integer):
        raise ValueError(f"{name} has non-integer dtype {data.dtype}")
    box, values = foreground_values(data)
    return box, {int(v) for v in values}


def vet_candidate(data: np.ndarray, labels, name: str) -> tuple[slice, ...]:
    """Check the rule every candidate mask obeys and return the mask's
    foreground box (:func:`metrics.foreground_box`).

    The rule: an integer dtype holding only background and the codes of
    ``labels``. Raises ``ValueError`` for a non-integer dtype and
    :class:`UnknownLabel` for stray codes; ``name`` opens the message. Only
    the box is searched for codes: outside it every voxel is 0.
    """
    box, codes = _foreground_codes(data, name)
    allowed = {lb.code for lb in labels} | {0}
    stray = codes - allowed
    if stray:
        raise UnknownLabel(
            f"{name} holds label codes {sorted(stray)} outside the task's set "
            f"{sorted(allowed - {0})}"
        )
    return box


@dataclass(frozen=True, eq=False)
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
    boxes: tuple[tuple[slice, ...], ...] = field(init=False, repr=False)
    _vetted_boxes: InitVar[tuple | None] = None

    def __post_init__(self, _vetted_boxes):
        masks = tuple(self.masks)
        source_ids = tuple(str(s) for s in self.source_ids)
        labels = check_label_codes(self.labels)
        if not masks:
            raise EmptyCandidateSet("candidate set holds no masks")
        if len(masks) > MAX_CANDIDATES:
            raise ValueError(f"{len(masks)} candidate masks; fusion takes at most {MAX_CANDIDATES}")
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
            problem = grid_mismatch(mask, ref, "the set's grid")
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
        """A set of ``masks``. Without ``labels``, every code found is a
        label named ``L<code>``, and the one scan that found the codes also
        vets each mask."""
        masks = tuple(masks)
        if source_ids is None:
            source_ids = tuple(f"candidate-{i}" for i in range(len(masks)))
        vetted = None
        if labels is None:
            scans = [
                _foreground_codes(mask.data, f"candidate {str(sid)!r}")
                for sid, mask in zip(source_ids, masks)
            ]
            codes = set().union(*(found for _, found in scans)) - {0}
            labels = tuple(Label(code, f"L{code}") for code in sorted(codes))
            vetted = tuple(box for box, _ in scans)
        return cls(
            masks=masks, source_ids=tuple(source_ids), labels=tuple(labels), _vetted_boxes=vetted
        )

    @property
    def grid_affine(self) -> np.ndarray:
        return self.masks[0].affine

    @property
    def box(self) -> tuple[slice, ...]:
        """The candidates' foreground box: the union of ``boxes``, which is
        ``foreground_box`` of all the masks. Every candidate, and so every
        consensus, is background outside it."""
        return box_union(self.boxes)


@dataclass(frozen=True, eq=False)
class FusionResult:
    """Consensus mask plus everything needed to audit how it was reached."""

    consensus: Volume
    method: str
    # The voted set's source ids and labels, in the set's order.
    candidates: tuple[str, ...]
    labels: tuple[Label, ...]
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
            "candidates": list(self.candidates),
            "labels": [{"code": label.code, "name": label.name} for label in self.labels],
            "iterations_run": self.iterations_run,
            "per_candidate_weights": {
                sid: dict(sorted(weights.items()))
                for sid, weights in sorted(self.per_candidate_weights.items())
            },
            "dropped": {name: sorted(ids) for name, ids in sorted(self.dropped.items())},
            "iteration_log": {name: list(log) for name, log in sorted(self.iteration_log.items())},
        }


def _pattern_dtype(n: int) -> np.dtype:
    """The smallest unsigned dtype with a bit for each of ``n`` <= 64 candidates."""
    dtypes = (np.uint8, np.uint16, np.uint32, np.uint64)
    return next(np.dtype(t) for t in dtypes if n <= 8 * np.dtype(t).itemsize)


def _pattern_table(pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(pattern, return_counts=True)``: the distinct patterns in
    ascending order and their voxel counts. Only the voting voxels are
    sorted; the silent ones, usually most of the box, are counted as
    pattern 0. The voxels are read in memory order."""
    flat = pattern.ravel(order="K")
    patterns, counts = np.unique(flat[flat != 0], return_counts=True)
    silent = flat.size - int(counts.sum())
    if silent:
        patterns = np.concatenate([np.zeros(1, dtype=pattern.dtype), patterns])
        counts = np.concatenate([[silent], counts])
    return patterns, counts


def _simple_one_label(votes: np.ndarray, counts: np.ndarray, consensus: np.ndarray, params: SimpleParams):
    """Iterative fusion of one label over its vote-pattern table, from the
    majority ``consensus`` (one flag per pattern). ``votes[i, p]`` says
    whether candidate i votes for the label in pattern p, and ``counts[p]``
    is the number of voxels with pattern p. Returns (consensus, weights,
    dropped index set, iterations, active-count trace)."""
    n = votes.shape[0]
    int_votes = votes.astype(np.int64)
    sizes = int_votes @ counts
    active = list(range(n))
    scores = np.zeros(n, dtype=np.float64)
    dropped: set[int] = set()
    trace: list[int] = []
    iterations = 0
    for _ in range(params.max_iterations):
        iterations += 1
        agree = int_votes @ np.where(consensus, counts, 0)
        size = int(counts[consensus].sum())
        for i in active:
            scores[i] = dice_from_counts(int(agree[i]), int(sizes[i]), size)
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
        # In candidate order per pattern, so no flag depends on the layout.
        affirm = np.zeros(counts.size, dtype=np.float64)
        for i in active:
            affirm[votes[i]] += scores[i]
        new_consensus = affirm > float(scores[active].sum()) / 2.0
        changed = int(counts[new_consensus != consensus].sum())
        union = int(counts[new_consensus | consensus].sum())
        fraction = changed / max(1, union)
        consensus = new_consensus
        if fraction < params.convergence_epsilon:
            break
    weights_out = np.zeros(n, dtype=np.float64)
    weights_out[active] = scores[active]
    return consensus, weights_out, dropped, iterations, tuple(trace)


def _vote(candidates: CandidateSet, method: str, params: SimpleParams | None = None) -> FusionResult:
    """The one per-label vote over the candidates' masks inside their box.

    Per label, each voxel's vote pattern sets bit i when candidate i votes
    for the label; the vote runs on the table of distinct patterns and
    their voxel counts. Each label starts from its strict majority, every
    candidate weighted 1.0 in one iteration; with ``params`` (SIMPLE) it
    iterates from there. Labels are voted lowest priority first and pasted
    into one read-only uint8 grid, so the highest priority wins. ``method``
    names the result.
    """
    box = candidates.box
    crops = [m.data[box] for m in candidates.masks]
    n = len(crops)
    dtype = _pattern_dtype(n)
    out = np.zeros_like(candidates.masks[0].data, dtype=np.uint8)
    inside = out[box]  # a view: writes land in ``out``
    weights: dict[str, dict[str, float]] = {sid: {} for sid in candidates.source_ids}
    dropped: dict[str, tuple[str, ...]] = {}
    iteration_log: dict[str, tuple[int, ...]] = {}
    iterations_run = 1
    bits = np.arange(n, dtype=dtype)
    flags = np.left_shift(1, bits, dtype=dtype)
    for label in reversed(label_priority_order(candidates.labels)):
        pattern = np.zeros_like(inside, dtype=dtype)
        for flag, crop in zip(flags, crops):
            np.bitwise_or(pattern, flag, out=pattern, where=crop == label.code)
        patterns, counts = _pattern_table(pattern)
        votes = (patterns >> bits[:, None]) & 1 == 1
        consensus = votes.sum(axis=0) * 2 > n
        w, dropped_idx, iters, trace = np.ones(n), set(), 1, (n,)
        if params is not None:
            consensus, w, dropped_idx, iters, trace = _simple_one_label(votes, counts, consensus, params)
        inside[np.isin(pattern, patterns[consensus])] = label.code
        for i, sid in enumerate(candidates.source_ids):
            weights[sid][label.name] = float(w[i])
        if dropped_idx:
            dropped[label.name] = tuple(candidates.source_ids[i] for i in sorted(dropped_idx))
        iteration_log[label.name] = trace
        iterations_run = max(iterations_run, iters)
    out.setflags(write=False)
    return FusionResult(
        consensus=Volume(data=out, affine=candidates.grid_affine),
        method=method,
        candidates=candidates.source_ids,
        labels=candidates.labels,
        per_candidate_weights=weights,
        iterations_run=iterations_run,
        dropped=dropped,
        iteration_log=iteration_log,
        params={} if params is None else params.to_json_dict(),
    )


def majority_vote(candidates: CandidateSet) -> Volume:
    """Per-label strict-majority consensus."""
    return _vote(candidates, METHOD_MAJORITY).consensus


def simple_fuse(candidates: CandidateSet, params: SimpleParams | None = None) -> FusionResult:
    """Iterative performance-weighted fusion over all labels."""
    return _vote(candidates, METHOD_SIMPLE, params or SimpleParams())


def fuse(
    candidates: CandidateSet,
    method: str = METHOD_MAJORITY,
    params: SimpleParams | None = None,
) -> FusionResult:
    """Dispatch to a fusion method.

    A set of one mask is its own consensus under either method: its
    majority vote, reported as method ``"identity"``. Majority voting
    reports uniform weight 1.0 and a single iteration, so downstream
    consumers see one result shape regardless of method.
    """
    check_fusion_method(method)
    if len(candidates.masks) == 1:
        return _vote(candidates, "identity")
    if method == METHOD_MAJORITY:
        return _vote(candidates, METHOD_MAJORITY)
    return simple_fuse(candidates, params)
