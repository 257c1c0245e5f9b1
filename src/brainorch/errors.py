"""Exception taxonomy shared by every module in the package.

Callers that want a single catch-all can trap :class:`BrainorchError`;
everything raised deliberately by this package derives from it. Programming
mistakes (wrong argument types, invariant violations at construction time)
raise plain ``ValueError``/``TypeError`` instead.
"""

from __future__ import annotations


class BrainorchError(Exception):
    """Base class for all errors raised by this package."""


# --- volume I/O ---------------------------------------------------------


class MalformedHeader(BrainorchError):
    """Header bytes violate the NIfTI-1 layout or carry inconsistent fields."""


class UnsupportedDatatype(BrainorchError):
    """The file is recognizable but uses a feature outside the supported set.

    Raised for unsupported datatype codes, NIfTI-2 files, and volumes with a
    real fourth dimension.
    """


class TruncatedData(BrainorchError):
    """The file ends before ``vox_offset`` plus the declared voxel payload."""


class IoFailure(BrainorchError):
    """The operating system or compression layer refused the read/write."""


class UnrepresentableData(BrainorchError):
    """Voxel values cannot be stored losslessly in the requested datatype."""


# --- geometry -----------------------------------------------------------


class SingularTransform(BrainorchError):
    """The transform's linear part is not invertible."""


class SpaceMismatch(BrainorchError):
    """Space tags do not line up for the requested composition or warp."""


class DegenerateGrid(BrainorchError):
    """A target grid has a non-positive extent."""


class MalformedTransform(BrainorchError):
    """A transform sidecar is unreadable, non-affine, or not in millimeters."""


# --- registry -----------------------------------------------------------


class UnknownTask(BrainorchError):
    """No task with that identifier exists in the registry."""


class UnknownAlgorithm(BrainorchError):
    """No catalog entry matches the requested algorithm id."""


class NoAlgorithmForTask(BrainorchError):
    """The catalog holds no entry at all for the requested task."""


class CatalogError(BrainorchError):
    """A catalog override file is malformed or breaks catalog invariants."""


# --- fusion and metrics -------------------------------------------------


class UnknownLabel(BrainorchError):
    """A mask carries a voxel value outside the declared label set."""


class EmptyCandidateSet(BrainorchError):
    """Fusion was asked to run over zero candidate masks."""


class GridMismatch(BrainorchError):
    """Arrays that must share a voxel grid do not."""


# --- container runtime --------------------------------------------------


class EngineError(BrainorchError):
    """Base class for container-engine failures."""


class ImageNotFound(EngineError):
    """The engine cannot provide the requested image reference."""


class DigestMismatch(EngineError):
    """The pulled image content does not match the pinned digest."""


class EngineUnreachable(EngineError):
    """The engine endpoint cannot be reached or the connection broke."""


class MountFailure(EngineError):
    """A job mount is not an absolute path to an existing directory."""


# --- orchestrator -------------------------------------------------------


class ValidationFailed(BrainorchError):
    """Subject inputs failed validation; carries the full report."""

    def __init__(self, report):
        self.report = report
        summary = "; ".join(f"{f.code}: {f.message}" for f in report.errors) or "validation failed"
        super().__init__(summary)


class AllJobsFailed(BrainorchError):
    """Every algorithm job failed; no candidate mask was produced."""


class OutputCollision(BrainorchError):
    """The output bundle directory already exists and is not empty."""
