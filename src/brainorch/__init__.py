"""Desk-scale orchestration of containerized brain-tumor segmentation.

Validate a subject's MRI inputs against a challenge task contract, run the
published top algorithms as containers, fuse their masks into a consensus,
score the candidates, optionally warp results back to native space, and
publish everything as one audited, atomically-written bundle.
"""

__version__ = "0.1.0"

from .errors import BrainorchError
from .fusion import CandidateSet, FusionResult, SimpleParams, fuse, majority_vote, simple_fuse
from .geometry import (
    AffineTransform,
    GridSpec,
    compose,
    inverse_warp_to_native,
    invert_affine,
    read_transform,
    resample_image,
    resample_mask,
    write_transform,
)
from .metrics import (
    MetricReport,
    compute_metric_report,
    connected_components,
    dice,
    hausdorff,
    lesionwise_dice,
    nsd,
    prepare_reference,
)
from .nifti import Volume, read_volume, write_mask, write_volume
from .pipeline import (
    OutputBundle,
    PipelineConfig,
    discover_subject_inputs,
    run_inference,
    run_synthesis,
)
from .registry import (
    AlgorithmEntry,
    Catalog,
    Label,
    TaskId,
    TaskSpec,
    builtin_catalog,
    get_task_spec,
    list_algorithms,
    load_catalog,
    resolve_algorithm,
)
from .runtime import DockerEngine, JobResult, JobSpec, MockEngine
from .validation import SubjectInputs, ValidationReport, validate_subject

__all__ = [
    "__version__",
    "AffineTransform",
    "AlgorithmEntry",
    "BrainorchError",
    "CandidateSet",
    "Catalog",
    "DockerEngine",
    "FusionResult",
    "GridSpec",
    "JobResult",
    "JobSpec",
    "Label",
    "MetricReport",
    "MockEngine",
    "OutputBundle",
    "PipelineConfig",
    "SimpleParams",
    "SubjectInputs",
    "TaskId",
    "TaskSpec",
    "ValidationReport",
    "Volume",
    "builtin_catalog",
    "compose",
    "compute_metric_report",
    "connected_components",
    "dice",
    "discover_subject_inputs",
    "fuse",
    "get_task_spec",
    "hausdorff",
    "inverse_warp_to_native",
    "invert_affine",
    "lesionwise_dice",
    "list_algorithms",
    "load_catalog",
    "majority_vote",
    "nsd",
    "prepare_reference",
    "read_transform",
    "read_volume",
    "resample_image",
    "resample_mask",
    "resolve_algorithm",
    "run_inference",
    "run_synthesis",
    "simple_fuse",
    "validate_subject",
    "write_mask",
    "write_transform",
    "write_volume",
]
