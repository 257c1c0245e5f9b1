"""Pre-flight validation of subject inputs against a task's contract.

Validation never raises on bad content: every problem becomes a finding with
a severity, and the report's verdict is ``fail`` iff any finding is an
error. Warnings (odd grids, suspicious intensities, stray files) leave the
verdict at ``pass`` so desk-scale experiments are not blocked by data that
is merely unusual.

Grid agreement tolerances: shapes exact, spacing within 1e-3 mm, affine
entries within 1e-3.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BrainorchError
from .geometry import GridSpec
from .nifti import Volume, read_volume
from .registry import (
    CANONICAL_ATLAS_SHAPE,
    CANONICAL_ATLAS_SPACING,
    INPAINT_MASK,
    MODALITIES,
    TaskId,
    TaskSpec,
)

SPACING_ATOL_MM = 1e-3
AFFINE_ATOL = 1e-3

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


def _geometry_record(vol: Volume) -> dict:
    return {
        "shape": list(vol.shape),
        "spacing_mm": [float(s) for s in np.round(vol.spacing, 6)],
        "affine_digest": _affine_digest(vol.affine),
    }


def check_grid_consistency(volumes: dict[str, Volume]) -> list[Finding]:
    """Compare every volume against the first; one finding per deviation.

    The most specific mismatch wins per volume: shape, then spacing, then
    the full affine.
    """
    findings: list[Finding] = []
    items = list(volumes.items())
    if len(items) < 2:
        return findings
    ref_tag, ref = items[0]
    for tag, vol in items[1:]:
        if vol.shape != ref.shape:
            findings.append(
                Finding(
                    SEVERITY_ERROR,
                    SHAPE_MISMATCH,
                    f"{tag} shape {vol.shape} != {ref_tag} shape {ref.shape}",
                )
            )
        elif not np.allclose(vol.spacing, ref.spacing, atol=SPACING_ATOL_MM):
            findings.append(
                Finding(
                    SEVERITY_ERROR,
                    SPACING_MISMATCH,
                    f"{tag} spacing {np.round(vol.spacing, 4).tolist()} != "
                    f"{ref_tag} spacing {np.round(ref.spacing, 4).tolist()}",
                )
            )
        elif not np.allclose(vol.affine, ref.affine, atol=AFFINE_ATOL):
            findings.append(
                Finding(
                    SEVERITY_ERROR,
                    AFFINE_MISMATCH,
                    f"{tag} affine deviates from {ref_tag} affine by more than {AFFINE_ATOL}",
                )
            )
    return findings


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


def validate_subject(inputs: SubjectInputs, task: TaskSpec) -> ValidationReport:
    """Validate one subject's inputs against a task contract.

    Always returns a report; the verdict is ``fail`` iff any finding has
    error severity.
    """
    findings: list[Finding] = []
    geometry: dict[str, dict] = {}
    grids: dict[str, GridSpec] = {}

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

    volumes: dict[str, Volume] = {}
    for tag in expected_tags:
        path = inputs.files[tag]
        try:
            vol = read_volume(path)
        except BrainorchError as exc:
            findings.append(
                Finding(SEVERITY_ERROR, UNREADABLE_INPUT, f"{tag} ({path.name}): {exc}")
            )
            continue
        volumes[tag] = vol
        geometry[tag] = _geometry_record(vol)
        grids[tag] = GridSpec.from_volume(vol)

    findings.extend(check_grid_consistency(volumes))

    for tag, vol in volumes.items():
        if tag == INPAINT_MASK:
            stray = set(np.unique(vol.data).tolist()) - {0, 1}
            if stray:
                findings.append(
                    Finding(
                        SEVERITY_ERROR,
                        MASK_NOT_BINARY,
                        f"MASK holds values {sorted(stray)} outside {{0, 1}}",
                    )
                )
            continue
        data = vol.data
        lo = float(data.min())
        hi = float(data.max())
        if lo == hi:
            findings.append(
                Finding(
                    SEVERITY_WARNING,
                    INTENSITY_SUSPECT,
                    f"{tag} is constant (value {lo})",
                )
            )
        elif lo < 0:
            findings.append(
                Finding(
                    SEVERITY_WARNING,
                    INTENSITY_SUSPECT,
                    f"{tag} holds negative intensities (min {lo})",
                )
            )

    if task.spatial_space in ("SRI24", "MNI152") and volumes:
        ref = next(iter(volumes.values()))
        if ref.shape != CANONICAL_ATLAS_SHAPE or not np.allclose(
            ref.spacing, CANONICAL_ATLAS_SPACING, atol=SPACING_ATOL_MM
        ):
            findings.append(
                Finding(
                    SEVERITY_WARNING,
                    ATLAS_GRID_DEVIATION,
                    f"grid {ref.shape} @ {np.round(ref.spacing, 3).tolist()} mm deviates "
                    f"from the canonical atlas grid {CANONICAL_ATLAS_SHAPE} @ 1 mm",
                )
            )

    verdict = "fail" if any(f.severity == SEVERITY_ERROR for f in findings) else "pass"
    return ValidationReport(
        subject_id=inputs.subject_id,
        task_id=task.task_id,
        verdict=verdict,
        findings=tuple(findings),
        per_modality_geometry=geometry,
        grids=grids,
    )
