"""Pre-flight validation of subject inputs against a task's contract.

Validation never raises on bad content: every problem becomes a finding with
a severity, and the report's verdict is ``fail`` iff any finding is an
error. Warnings (odd grids, suspicious intensities, stray files) leave the
verdict at ``pass`` so desk-scale experiments are not blocked by data that
is merely unusual.

Each expected input is read once, by the ``map`` the caller hands in: its
grid is kept, its content is checked and its voxels are dropped, so a map
over n threads holds at most n decoded inputs, and findings keep the
inputs' order. The grids are then compared and handed on in the report, so
a run need not decode any input again. An input whose name has no
``.nii``/``.nii.gz`` suffix is an error and is not read: staging names
each input by its suffix.

When native-space output is asked for and the task works in an atlas space,
validation also reads the stored ``native-><atlas>`` transform and the
native reference's grid, once and before any container runs, as one more
item of the same map after the inputs; its findings come last. A missing or
unreadable one is an error like any other, and a passing report hands both
on, so the warp reads nothing again.

Grid agreement is :func:`geometry.grid_difference`, which the pipeline
applies to candidates too; validation only phrases its answer. The
inpainting mask's values come from :func:`metrics.foreground_values`, the
scan that vets candidate masks, so no whole grid is sorted.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import BrainorchError
from .geometry import GRID_ATOL_MM, AffineTransform, GridSpec, grid_difference, read_transform
from .metrics import foreground_values
from .nifti import nifti_suffix, read_grid, read_volume
from .registry import (
    CANONICAL_ATLAS_SHAPE,
    CANONICAL_ATLAS_SPACING,
    INPAINT_MASK,
    MODALITIES,
    TaskId,
    TaskSpec,
)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

# Finding codes. Stable identifiers: tests and downstream tooling key on them.
MISSING_MODALITY = "MISSING_MODALITY"
UNREADABLE_INPUT = "UNREADABLE_INPUT"
SHAPE_MISMATCH = "SHAPE_MISMATCH"
SPACING_MISMATCH = "SPACING_MISMATCH"
AFFINE_MISMATCH = "AFFINE_MISMATCH"
SPACE_MISMATCH = "SPACE_MISMATCH"
SYNTHESIS_INPUT_COUNT = "SYNTHESIS_INPUT_COUNT"
MASK_NOT_BINARY = "MASK_NOT_BINARY"
MISSING_TRANSFORM = "MISSING_TRANSFORM"
ATLAS_GRID_DEVIATION = "ATLAS_GRID_DEVIATION"
UNEXPECTED_FILE = "UNEXPECTED_FILE"
INTENSITY_SUSPECT = "INTENSITY_SUSPECT"

_SUBJECT_ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")
_KNOWN_TAGS = set(MODALITIES) | {INPAINT_MASK}
_CANONICAL_ATLAS_GRID = GridSpec(CANONICAL_ATLAS_SHAPE, np.diag([*CANONICAL_ATLAS_SPACING, 1.0]))


@dataclass(frozen=True)
class SubjectInputs:
    """One subject's files as handed to the orchestrator.

    ``files`` maps modality tags (``T1c``, ``T1n``, ``T2w``, ``FLA``,
    ``MASK``) to paths. ``transform_sidecars`` lists forward-registration
    sidecar files; ``native_reference`` points at a native-space volume that
    provides the target grid when warping results back.
    """

    subject_id: str
    files: dict[str, Path]
    transform_sidecars: tuple[Path, ...] = ()
    declared_space: str | None = None
    native_reference: Path | None = None
    extra_files: tuple[Path, ...] = ()

    def __post_init__(self):
        if not _SUBJECT_ID_RE.match(self.subject_id):
            raise ValueError(
                f"subject id {self.subject_id!r} must match [A-Za-z0-9_-]+"
            )
        object.__setattr__(
            self, "files", {str(k): Path(v) for k, v in self.files.items()}
        )
        object.__setattr__(
            self, "transform_sidecars", tuple(Path(p) for p in self.transform_sidecars)
        )
        object.__setattr__(self, "extra_files", tuple(Path(p) for p in self.extra_files))


@dataclass(frozen=True)
class Finding:
    severity: str
    code: str
    message: str

    def to_json_dict(self) -> dict:
        return {"severity": self.severity, "code": self.code, "message": self.message}


@dataclass(frozen=True)
class ValidationReport:
    subject_id: str
    task_id: TaskId
    verdict: str
    findings: tuple[Finding, ...]
    per_modality_geometry: dict[str, dict] = field(default_factory=dict)
    # The grid of every input decoded here, so a run need not decode it again.
    # Not part of the JSON report.
    grids: dict[str, GridSpec] = field(default_factory=dict, repr=False, compare=False)
    # (forward transform, native grid) for a native-space output, else None.
    # Not part of the JSON report.
    native: tuple[AffineTransform, GridSpec] | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == SEVERITY_ERROR)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == SEVERITY_WARNING)

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject_id,
            "task": self.task_id.value,
            "verdict": self.verdict,
            "findings": [f.to_json_dict() for f in self.findings],
            "per_modality_geometry": self.per_modality_geometry,
        }


def _affine_digest(affine: np.ndarray) -> str:
    rounded = np.round(np.asarray(affine, dtype=np.float64), 6)
    return hashlib.sha256(rounded.tobytes()).hexdigest()[:16]


def _geometry_record(grid: GridSpec) -> dict:
    return {
        "shape": list(grid.shape),
        "spacing_mm": [float(s) for s in np.round(grid.spacing, 6)],
        "affine_digest": _affine_digest(grid.affine),
    }


def check_grid_consistency(volumes: dict) -> list[Finding]:
    """Compare every grid against the first; one finding per deviation.

    ``volumes`` maps tags to objects with ``shape``, ``spacing`` and
    ``affine``: :class:`GridSpec` or :class:`Volume`. Each grid gets the
    first difference :func:`geometry.grid_difference` finds: shape, then
    spacing, then the full affine.
    """
    findings: list[Finding] = []
    items = list(volumes.items())
    if len(items) < 2:
        return findings
    ref_tag, ref = items[0]
    for tag, vol in items[1:]:
        difference = grid_difference(vol, ref)
        if difference == "shape":
            code, message = SHAPE_MISMATCH, f"{tag} shape {vol.shape} != {ref_tag} shape {ref.shape}"
        elif difference == "spacing":
            code, message = SPACING_MISMATCH, (
                f"{tag} spacing {np.round(vol.spacing, 4).tolist()} != "
                f"{ref_tag} spacing {np.round(ref.spacing, 4).tolist()}"
            )
        elif difference == "affine":
            code, message = AFFINE_MISMATCH, (
                f"{tag} affine deviates from {ref_tag} affine by more than {GRID_ATOL_MM}"
            )
        else:
            continue
        findings.append(Finding(SEVERITY_ERROR, code, message))
    return findings


def _content_finding(tag: str, data: np.ndarray) -> Finding | None:
    """The inpainting mask must be binary; an image should vary and hold
    no NaN and no negative intensity. Outside its foreground box the mask is 0."""
    if tag == INPAINT_MASK:
        stray = set(foreground_values(data)[1].tolist()) - {0, 1}
        if stray:
            return Finding(
                SEVERITY_ERROR,
                MASK_NOT_BINARY,
                f"MASK holds values {sorted(stray)} outside {{0, 1}}",
            )
        return None
    lo = float(data.min())
    hi = float(data.max())
    if np.isnan(lo):  # min propagates NaN
        return Finding(SEVERITY_WARNING, INTENSITY_SUSPECT, f"{tag} holds NaN intensities")
    if lo == hi:
        return Finding(SEVERITY_WARNING, INTENSITY_SUSPECT, f"{tag} is constant (value {lo})")
    if lo < 0:
        return Finding(
            SEVERITY_WARNING, INTENSITY_SUSPECT, f"{tag} holds negative intensities (min {lo})"
        )
    return None


def _decode(tag: str, path: Path) -> tuple[GridSpec | None, Finding | None]:
    """``(grid, content finding or None)`` of one input, or ``(None, the
    UNREADABLE_INPUT error)``. The decoded voxels do not outlive the call."""
    if not nifti_suffix(path):
        return None, Finding(SEVERITY_ERROR, UNREADABLE_INPUT, f"{tag} ({path.name}): not a .nii or .nii.gz file")
    try:
        vol = read_volume(path)
    except BrainorchError as exc:
        return None, Finding(SEVERITY_ERROR, UNREADABLE_INPUT, f"{tag} ({path.name}): {exc}")
    return GridSpec.from_volume(vol), _content_finding(tag, vol.data)


def _required_tags(task: TaskSpec, inputs: SubjectInputs) -> tuple[list[str], list[Finding]]:
    """Resolve which tags this run needs, applying the task's input policy."""
    findings: list[Finding] = []
    if task.input_policy == "any-three-of-four":
        present = [m for m in MODALITIES if m in inputs.files]
        if len(present) != 3:
            findings.append(
                Finding(
                    SEVERITY_ERROR,
                    SYNTHESIS_INPUT_COUNT,
                    f"task {task.task_id.value} needs exactly 3 of {list(MODALITIES)}, "
                    f"got {len(present)} ({present})",
                )
            )
        return present, findings
    required = list(task.required_inputs)
    for tag in required:
        if tag not in inputs.files:
            findings.append(
                Finding(
                    SEVERITY_ERROR,
                    MISSING_MODALITY,
                    f"required input {tag} is missing for task {task.task_id.value}",
                )
            )
    return [t for t in required if t in inputs.files], findings


def _forward_transform(inputs: SubjectInputs, task: TaskSpec) -> AffineTransform | None:
    """The stored native->task-space registration, if any sidecar matches;
    an unreadable sidecar is skipped."""
    for path in inputs.transform_sidecars:
        try:
            transform = read_transform(path)
        except BrainorchError:
            continue
        if transform.source_space == "native" and transform.target_space == task.spatial_space:
            return transform
    return None


def _native_context(
    inputs: SubjectInputs, task: TaskSpec
) -> tuple[list[Finding], tuple[AffineTransform, GridSpec] | None]:
    """The errors against a native-space output, and what the warp needs:
    ``(forward transform, native grid)``, or None when anything is missing."""
    findings: list[Finding] = []
    forward = _forward_transform(inputs, task)
    if forward is None:
        findings.append(
            Finding(
                SEVERITY_ERROR,
                MISSING_TRANSFORM,
                f"native-space output needs a native->{task.spatial_space} transform sidecar",
            )
        )
    reference = inputs.native_reference
    if reference is None:
        findings.append(
            Finding(
                SEVERITY_ERROR,
                MISSING_TRANSFORM,
                "native-space output needs a native reference volume for the target grid",
            )
        )
    else:
        try:
            native_grid = GridSpec(*read_grid(reference))
        except BrainorchError as exc:
            findings.append(
                Finding(SEVERITY_ERROR, UNREADABLE_INPUT, f"native reference ({reference.name}): {exc}")
            )
    return findings, (None if findings else (forward, native_grid))


def validate_subject(
    inputs: SubjectInputs, task: TaskSpec, native_space_output: bool = False, map=map
) -> ValidationReport:
    """Validate one subject's inputs against a task contract.

    Always returns a report; the verdict is ``fail`` iff any finding has
    error severity. With ``native_space_output`` and an atlas-space task,
    the native context is checked and, when whole, rides on the report's
    ``native``; its findings come last. ``map`` decodes the inputs and
    reads the native context, one item each (the built-in one, or an
    executor's ordered map); its results are folded in input order.
    """
    findings: list[Finding] = []

    if inputs.declared_space is not None and inputs.declared_space != task.spatial_space:
        findings.append(
            Finding(
                SEVERITY_ERROR,
                SPACE_MISMATCH,
                f"inputs declare space {inputs.declared_space!r} but task "
                f"{task.task_id.value} expects {task.spatial_space!r}",
            )
        )

    expected_tags, policy_findings = _required_tags(task, inputs)
    findings.extend(policy_findings)

    # Anything beyond what the task consumes is allowed but flagged.
    consumed = set(expected_tags)
    for tag in inputs.files:
        if tag not in consumed:
            detail = "unknown tag" if tag not in _KNOWN_TAGS else "not used by this task"
            findings.append(
                Finding(
                    SEVERITY_WARNING,
                    UNEXPECTED_FILE,
                    f"input {tag} ({detail} for task {task.task_id.value})",
                )
            )
    for path in inputs.extra_files:
        findings.append(
            Finding(SEVERITY_WARNING, UNEXPECTED_FILE, f"unrecognized file {path.name}")
        )

    # Each input's decode, then the native context's reads, as items of one map.
    reads = [partial(_decode, tag, inputs.files[tag]) for tag in expected_tags]
    wants_native = native_space_output and task.spatial_space != "native"
    if wants_native:
        reads.append(partial(_native_context, inputs, task))
    results = list(map(lambda read: read(), reads))
    native_findings, native = results.pop() if wants_native else ([], None)

    grids: dict[str, GridSpec] = {}
    content_findings: list[Finding | None] = []
    for tag, (grid, finding) in zip(expected_tags, results):
        if grid is None:
            findings.append(finding)
        else:
            grids[tag] = grid
            content_findings.append(finding)

    findings.extend(check_grid_consistency(grids))
    findings.extend(f for f in content_findings if f is not None)

    if task.spatial_space in ("SRI24", "MNI152") and grids:
        ref = next(iter(grids.values()))
        # The canonical grid fixes extents and spacing, not orientation.
        if grid_difference(ref, _CANONICAL_ATLAS_GRID) in ("shape", "spacing"):
            findings.append(
                Finding(
                    SEVERITY_WARNING,
                    ATLAS_GRID_DEVIATION,
                    f"grid {ref.shape} @ {np.round(ref.spacing, 3).tolist()} mm deviates "
                    f"from the canonical atlas grid {CANONICAL_ATLAS_SHAPE} @ 1 mm",
                )
            )

    findings.extend(native_findings)

    verdict = "fail" if any(f.severity == SEVERITY_ERROR for f in findings) else "pass"
    return ValidationReport(
        subject_id=inputs.subject_id,
        task_id=task.task_id,
        verdict=verdict,
        findings=tuple(findings),
        per_modality_geometry={tag: _geometry_record(grid) for tag, grid in grids.items()},
        grids=grids,
        native=native,
    )
