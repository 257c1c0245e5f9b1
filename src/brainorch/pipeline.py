"""End-to-end orchestration: validate, stage, run containers, fuse, bundle.

A run produces one bundle directory per subject and task:

    <output_dir>/<subject>/<task>/
        candidates/<algorithm-id>.nii.gz   exactly what each container wrote
        consensus.nii.gz                   fused mask (or the single mask)
        fusion.json                        method, weights, drops, iterations
        metrics.json                       per-candidate scores vs consensus
        native/consensus-native.nii.gz     optional inverse-warped mask
        manifest.json                      hashes of every file, job summary
        work/                              staged inputs and raw job output,
                                           only with keep_intermediate; only
                                           regular files and directories

Bundles are written to a staging directory and published with one atomic
rename, so a crashed run never leaves a partial bundle at the target path;
a bundle replaced with ``force`` is renamed aside first and deleted only
after the swap.
Partial algorithm failures degrade to warnings as long as at least one
candidate survives; zero survivors abort the run. The manifest's content
digest covers the file hash map only, never the timestamp, so identical
inputs with the mock engine produce identical digests.

Segmentation (:func:`run_inference`) and synthesis (:func:`run_synthesis`,
INPAINT and MISSING_MRI) run through one staged-run skeleton: validate,
refuse a collision, stage, run the jobs, produce, warp to native space,
hash and publish. Each kind adds only a produce step. Segmentation vets
and fuses candidate masks and scores them against the consensus; synthesis
runs exactly one algorithm and keeps its image. Validation decodes every
input once and hands its grids on, so the run decodes no input again; for
native-space output it also reads the native reference's grid and the
forward transform once, before any container runs, and the warp reuses them.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import logging
import os
import shutil
import stat
import uuid
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    AllJobsFailed,
    BrainorchError,
    EngineUnreachable,
    OutputCollision,
    UnknownLabel,
    ValidationFailed,
)
from .fusion import (
    METHOD_MAJORITY,
    CandidateSet,
    SimpleParams,
    check_fusion_method,
    fuse,
    grid_mismatch,
    vet_candidate,
)
from .geometry import (
    AffineTransform,
    GridSpec,
    inverse_warp_image_to_native,
    inverse_warp_to_native,
    read_transform,
)
from .metrics import compute_metric_report
from .nifti import Volume, read_grid, read_volume, write_mask, write_volume
from .registry import (
    LATEST_WINNER,
    MODALITIES,
    SEGMENTATION,
    SYNTHESIS,
    AlgorithmEntry,
    Catalog,
    TaskId,
    TaskSpec,
    builtin_catalog,
    get_task_spec,
    normalize_task_id,
)
from .runtime import JobResult, JobSpec
from .validation import (
    MISSING_TRANSFORM,
    SEVERITY_ERROR,
    UNREADABLE_INPUT,
    Finding,
    SubjectInputs,
    ValidationReport,
    validate_subject,
)

logger = logging.getLogger("brainorch.pipeline")

MANIFEST_SCHEMA_VERSION = 1
CONSENSUS_NAME = "consensus.nii.gz"
SYNTHESIS_STEM = "synthesis"
_NIFTI_SUFFIXES = (".nii.gz", ".nii")


@dataclass
class PipelineConfig:
    """Knobs for one orchestrated run."""

    task: TaskId | str
    engine: object
    output_dir: Path
    algorithm_selectors: tuple[str, ...] = (LATEST_WINNER,)
    fusion_method: str = METHOD_MAJORITY
    fusion_params: SimpleParams | None = None
    parallel_jobs: int = 1
    native_space_output: bool = False
    keep_intermediate: bool = False
    force: bool = False
    catalog: Catalog | None = None

    def __post_init__(self):
        self.task = normalize_task_id(self.task)
        # engines mount job dirs and reject relative paths, so resolve now
        self.output_dir = Path(self.output_dir).resolve()
        self.algorithm_selectors = tuple(self.algorithm_selectors)
        if not self.algorithm_selectors:
            raise ValueError("algorithm_selectors must not be empty")
        if self.parallel_jobs < 1:
            raise ValueError(f"parallel_jobs must be >= 1, got {self.parallel_jobs}")
        check_fusion_method(self.fusion_method)


@dataclass(frozen=True)
class OutputBundle:
    """Published bundle locations plus the parsed manifest."""

    bundle_dir: Path
    consensus_path: Path
    per_algorithm_paths: dict[str, Path]
    fusion_metadata_path: Path | None
    metrics_path: Path | None
    native_space_paths: dict[str, Path]
    manifest_path: Path
    manifest: dict


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def manifest_digest(files: dict[str, str]) -> str:
    """Content digest over the bundle's file hash map (timestamp-free)."""
    return hashlib.sha256(canonical_json(files).encode()).hexdigest()


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _drop_non_regular(root: Path) -> list[str]:
    """Delete every entry under ``root`` that is neither a regular file nor a
    directory, without following links; returns a warning for each.

    Kept job directories hold untrusted container output: a symlink
    published with them would point outside the bundle, and hashing it
    would read its target.
    """
    dropped = []
    for dirpath, dirnames, filenames in os.walk(root):
        for name in (*dirnames, *filenames):
            path = Path(dirpath, name)
            mode = path.lstat().st_mode
            if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
                path.unlink()
                rel = path.relative_to(root.parent).as_posix()
                dropped.append(f"{rel}: not a regular file; left out of the bundle")
        dirnames[:] = [d for d in dirnames if Path(dirpath, d).is_dir()]
    return dropped


def _hash_tree(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): _sha256_file(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _nifti_suffix(path: Path) -> str:
    name = path.name
    for suffix in _NIFTI_SUFFIXES:
        if name.endswith(suffix):
            return suffix
    raise ValueError(f"{path} is not a .nii or .nii.gz file")


def discover_subject_inputs(directory: str | Path, task: TaskId | str) -> SubjectInputs:
    """Build :class:`SubjectInputs` from a conventional subject directory.

    The directory name is the subject id; files are matched as
    ``<subject>-<tag>.nii[.gz]`` with lowercase tags (t1c, t1n, t2w, fla,
    mask), transform sidecars as ``<subject>_<from>2<to>.json``, and an
    optional native reference as ``<subject>-native.nii[.gz]``. Anything
    else rides along as an extra file for validation to flag.
    """
    # abspath, not resolve: "." gets a real name, symlinked dirs keep theirs
    directory = Path(os.path.abspath(directory))
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    get_task_spec(task)  # validate the task id early
    subject = directory.name
    files: dict[str, Path] = {}
    consumed: set[Path] = set()
    for tag in (*MODALITIES, "MASK"):
        for suffix in _NIFTI_SUFFIXES:
            candidate = directory / f"{subject}-{tag.lower()}{suffix}"
            if candidate.is_file():
                files[tag] = candidate
                consumed.add(candidate)
                break
    native_reference = None
    for suffix in _NIFTI_SUFFIXES:
        candidate = directory / f"{subject}-native{suffix}"
        if candidate.is_file():
            native_reference = candidate
            consumed.add(candidate)
            break
    sidecars = tuple(sorted(directory.glob(f"{subject}_*2*.json")))
    consumed |= set(sidecars)
    extras = tuple(
        p for p in sorted(directory.iterdir()) if p.is_file() and p not in consumed
    )
    return SubjectInputs(
        subject_id=subject,
        files=files,
        transform_sidecars=sidecars,
        native_reference=native_reference,
        extra_files=extras,
    )


def _resolve_entries(config: PipelineConfig, task: TaskSpec) -> list[AlgorithmEntry]:
    catalog = config.catalog or builtin_catalog()
    entries: list[AlgorithmEntry] = []
    seen: set[str] = set()
    for selector in config.algorithm_selectors:
        entry = catalog.resolve(task.task_id, selector)
        if entry.id in seen:
            logger.warning("selector %r resolves to %s again; skipping duplicate", selector, entry.id)
            continue
        seen.add(entry.id)
        entries.append(entry)
    return entries


def _find_forward_transform(inputs: SubjectInputs, task: TaskSpec):
    """The stored native->task-space registration, if any sidecar matches."""
    for path in inputs.transform_sidecars:
        try:
            transform = read_transform(path)
        except BrainorchError:
            continue
        if transform.source_space == "native" and transform.target_space == task.spatial_space:
            return transform
    return None


def _native_preflight(
    inputs: SubjectInputs, task: TaskSpec
) -> tuple[list[Finding], tuple[AffineTransform, GridSpec] | None]:
    """The findings against a native-space output, and what the warp needs:
    ``(forward transform, native grid)``, or None when anything is missing."""
    findings: list[Finding] = []
    if task.spatial_space == "native":
        return findings, None
    forward = _find_forward_transform(inputs, task)
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


def _validate(
    inputs: SubjectInputs, task: TaskSpec, config: PipelineConfig
) -> tuple[ValidationReport, tuple[AffineTransform, GridSpec] | None]:
    """The passing report and what a native-space warp needs (None when no
    warp is asked for); raises :class:`ValidationFailed` otherwise."""
    report = validate_subject(inputs, task)
    extra, native = _native_preflight(inputs, task) if config.native_space_output else ([], None)
    if extra:  # preflight findings are all errors
        report = dataclasses.replace(report, findings=report.findings + tuple(extra), verdict="fail")
    if not report.passed:
        raise ValidationFailed(report)
    return report, native


def _stage_inputs(
    inputs: SubjectInputs, tags, stage_dir: Path
) -> dict[str, Path]:
    """Copy inputs under the container naming contract:
    ``<subject>-<tag>.nii[.gz]``, lowercase tags."""
    stage_dir.mkdir(parents=True, exist_ok=True)
    staged: dict[str, Path] = {}
    for tag in tags:
        source = inputs.files[tag]
        target = stage_dir / f"{inputs.subject_id}-{tag.lower()}{_nifti_suffix(source)}"
        shutil.copyfile(source, target)
        staged[tag] = target
    return staged


@dataclass
class _Run:
    """One staged run in progress, as a produce step sees it."""

    inputs: SubjectInputs
    task: TaskSpec
    config: PipelineConfig
    bundle: Path  # the bundle being assembled in the staging directory
    grid: GridSpec  # every accepted output sits on this input grid
    warnings: list[str]
    # (forward transform, native grid) when native-space output is asked for
    native: tuple[AffineTransform, GridSpec] | None


@dataclass(frozen=True)
class _Product:
    """What a produce step made. Paths are relative to the bundle."""

    job_rows: list[dict]
    primary: str
    per_algorithm: dict[str, str]
    manifest: dict  # the fields only this kind of run records
    native_name: str
    # (forward transform, native grid, path): warp the result and write it
    write_native: Callable[[AffineTransform, GridSpec, Path], None]
    fusion_metadata: str | None = None
    metrics: str | None = None


def _run_jobs(
    run: _Run, entries: list[AlgorithmEntry], stage_dir: Path
) -> list[tuple[AlgorithmEntry, "JobResult | Exception", Path]]:
    """Pull and run every entry with bounded parallelism.

    Engine exceptions are captured per job so one bad image cannot abort the
    survivors.
    """
    engine = run.config.engine
    jobs_root = run.bundle / "work" / "jobs"

    def run_one(entry: AlgorithmEntry):
        out_dir = jobs_root / entry.id
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            engine.pull_image(entry.image_reference)
            spec = JobSpec(
                image_reference=entry.image_reference,
                input_dir=stage_dir,
                output_dir=out_dir,
                env={
                    "ORCH_SUBJECT": run.inputs.subject_id,
                    "ORCH_TASK": run.task.task_id.value,
                },
                requires_gpu=entry.requires_gpu,
                shm_bytes=entry.shm_bytes,
                timeout_seconds=entry.timeout_seconds,
                container_input_path=entry.input_mount_path,
                container_output_path=entry.output_mount_path,
            )
            return engine.run_job(spec)
        except Exception as exc:  # captured per job, reported in the manifest
            return exc

    with ThreadPoolExecutor(max_workers=run.config.parallel_jobs) as pool:
        outcomes = list(pool.map(run_one, entries))
    return [
        (entry, outcome, jobs_root / entry.id)
        for entry, outcome in zip(entries, outcomes)
    ]


def _pick_output_file(result: JobResult, preferred_stems: tuple[str, ...]) -> Path | None:
    """The mask/volume a job produced: a preferred name, else the only NIfTI.

    The engine lists symlinks among the produced files, so a symlink with a
    NIfTI name is picked and :func:`_unsafe_output` rejects it, rather than
    another file standing in.
    """
    produced = [p for p in result.produced_files if p.name.endswith(_NIFTI_SUFFIXES)]
    for stem in preferred_stems:
        for suffix in _NIFTI_SUFFIXES:
            for p in produced:
                if p.name == stem + suffix:
                    return p
    if len(produced) == 1:
        return produced[0]
    return None


def _unsafe_output(path: Path, out_dir: Path) -> str | None:
    """Why a job's output file may not be read, or None.

    Container output is untrusted: only a regular file, not a symlink, that
    resolves inside the job's output directory is read and copied, so a
    link to a host file never reaches the bundle.
    """
    if path.is_symlink() or not path.is_file():
        return f"{path.name} is not a regular file"
    if not path.resolve().is_relative_to(out_dir.resolve()):
        return f"{path.name} resolves outside the job's output directory"
    return None


def _collect(run: _Run, outcomes, stem: str, noun: str, vet=None):
    """Read and vet each job's output; failures degrade to warnings.

    ``vet(volume)`` raises ``ValueError`` or :class:`UnknownLabel` to reject
    an output; what it returns is kept with the accepted output (None
    without ``vet``). Raises when no output is accepted.
    """
    job_rows: list[dict] = []
    accepted: list[tuple[AlgorithmEntry, Volume, Path, object]] = []
    for entry, outcome, out_dir in outcomes:
        row = {"id": entry.id, "image_reference": entry.image_reference}
        job_rows.append(row)
        if isinstance(outcome, Exception):
            row.update(status="engine_error", exit_code=None, duration_seconds=0.0, error=str(outcome))
            run.warnings.append(f"{entry.id}: {outcome}")
            continue
        row.update(
            status=outcome.status,
            exit_code=outcome.exit_code,
            duration_seconds=outcome.duration_seconds,
            error=outcome.error,
        )
        if not outcome.ok:
            tail = outcome.log_excerpt.strip().splitlines()
            detail = f" ({tail[-1]})" if tail else ""
            run.warnings.append(f"{entry.id}: job {outcome.status}{detail}")
            continue
        path = _pick_output_file(outcome, preferred_stems=(stem,))
        if path is None:
            run.warnings.append(f"{entry.id}: job succeeded but produced no unambiguous {noun}")
            continue
        unsafe = _unsafe_output(path, out_dir)
        if unsafe is not None:
            run.warnings.append(f"{entry.id}: rejected candidate: {unsafe}")
            continue
        try:
            vol = read_volume(path)
        except BrainorchError as exc:
            # Name the file within the bundle: the staging path is the host's and new each run.
            reason = str(exc).replace(str(path), path.relative_to(run.bundle).as_posix())
            run.warnings.append(f"{entry.id}: unreadable {noun} {path.name}: {reason}")
            continue
        problem = grid_mismatch(vol, run.grid.shape, run.grid.affine, "the input grid")
        vetted = None
        if problem is None and vet is not None:
            try:
                vetted = vet(vol)
            except (ValueError, UnknownLabel) as exc:
                problem = str(exc)
        if problem is not None:
            run.warnings.append(f"{entry.id}: rejected candidate: {problem}")
            continue
        row["candidate"] = True
        accepted.append((entry, vol, path, vetted))
    if not accepted:
        exceptions = [o for _, o, _ in outcomes if isinstance(o, Exception)]
        if exceptions and len(exceptions) == len(outcomes) and all(
            isinstance(e, EngineUnreachable) for e in exceptions
        ):
            raise exceptions[0]
        raise AllJobsFailed(
            f"no algorithm produced a usable candidate {noun}: " + "; ".join(run.warnings)
        )
    return job_rows, accepted


def _refuse_collision(target: Path, force: bool) -> None:
    if target.exists() and any(target.iterdir()) and not force:
        raise OutputCollision(f"output bundle {target} already exists; use force to replace")


def _atomic_publish(bundle_staging: Path, target: Path, force: bool) -> None:
    """Move the staged bundle to ``target``.

    An existing bundle (``force``) is renamed aside next to the staged one
    first and deleted with the staging directory after the swap, so a crash
    at any point leaves one bundle whole: the new one at ``target``, or the
    old one there or, between the two renames, beside the staged one. If
    the swap fails, the old bundle goes back. A bundle that another run
    published at ``target`` in the meantime is an :class:`OutputCollision`.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    _refuse_collision(target, force)
    aside = bundle_staging.with_name("replaced")
    try:
        if target.exists():
            target.replace(aside)
        bundle_staging.replace(target)
    except OSError as exc:
        if aside.exists() and not target.exists():
            aside.replace(target)
        if exc.errno in (errno.EEXIST, errno.ENOTEMPTY):
            raise OutputCollision(f"output bundle {target} was published by another run") from exc
        raise


def _warp_to_native(run: _Run, product: _Product) -> str:
    """Write the native-space derivative next to the atlas-space output."""
    rel = f"native/{product.native_name}-native.nii.gz"
    (run.bundle / "native").mkdir(parents=True, exist_ok=True)
    product.write_native(*run.native, run.bundle / rel)
    return rel


def _staged_run(
    inputs: SubjectInputs,
    config: PipelineConfig,
    task: TaskSpec,
    entries: list[AlgorithmEntry],
    produce: Callable[[_Run, list], _Product],
) -> OutputBundle:
    """Validate, stage, run the jobs, let ``produce`` make the outputs, warp
    them to native space on request, and publish one hashed bundle."""
    report, native = _validate(inputs, task, config)
    target = config.output_dir / inputs.subject_id / task.task_id.value
    _refuse_collision(target, config.force)  # before any container runs

    config.output_dir.mkdir(parents=True, exist_ok=True)
    staging_root = config.output_dir / f".staging-{inputs.subject_id}-{task.task_id.value}-{uuid.uuid4().hex[:8]}"
    bundle = staging_root / "bundle"
    warnings = [f"{f.code}: {f.message}" for f in report.warnings]
    try:
        stage_dir = bundle / "work" / "input"
        # A passing report decoded exactly the inputs this task consumes.
        staged = _stage_inputs(inputs, report.grids, stage_dir)
        run = _Run(inputs, task, config, bundle, report.grids[min(staged)], warnings, native)

        logger.info(
            "running %d algorithm(s) for %s/%s", len(entries), inputs.subject_id, task.task_id.value
        )
        product = produce(run, _run_jobs(run, entries, stage_dir))

        native_rel: dict[str, str] = {}
        if native is not None:
            native_rel[product.native_name] = _warp_to_native(run, product)

        if config.keep_intermediate:
            warnings.extend(_drop_non_regular(bundle / "work"))
        manifest = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "tool": "brainorch",
            "tool_version": __version__,
            "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "subject": inputs.subject_id,
            "task": task.task_id.value,
            "inputs": {
                tag: {"file": staged[tag].name, "sha256": _sha256_file(staged[tag])}
                for tag in sorted(staged)
            },
            "parallel_jobs": config.parallel_jobs,
            "native_space_output": config.native_space_output,
            **product.manifest,
            "algorithms": product.job_rows,
            "validation": report.to_json_dict(),
            "warnings": warnings,
        }
        if not config.keep_intermediate:
            shutil.rmtree(bundle / "work", ignore_errors=True)
        manifest["files"] = _hash_tree(bundle)
        manifest["content_digest"] = manifest_digest(manifest["files"])
        (bundle / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        _atomic_publish(bundle, target, config.force)
    finally:
        shutil.rmtree(staging_root, ignore_errors=True)

    return OutputBundle(
        bundle_dir=target,
        consensus_path=target / product.primary,
        per_algorithm_paths={k: target / v for k, v in product.per_algorithm.items()},
        fusion_metadata_path=(target / product.fusion_metadata) if product.fusion_metadata else None,
        metrics_path=(target / product.metrics) if product.metrics else None,
        native_space_paths={k: target / v for k, v in native_rel.items()},
        manifest_path=target / "manifest.json",
        manifest=manifest,
    )


def _task_of_kind(config: PipelineConfig, kind: str) -> TaskSpec:
    task = get_task_spec(config.task)
    if task.kind != kind:
        entry_point = "run_inference" if task.kind == SEGMENTATION else "run_synthesis"
        raise ValueError(f"task {task.task_id.value!r} is a {task.kind} task; use {entry_point}")
    return task


def _produce_segmentation(run: _Run, outcomes) -> _Product:
    """Keep each accepted mask, fuse them, and score each against the consensus.

    Each mask is vetted once, in :func:`_collect`, which finds its
    foreground box; fusion and scoring work inside the union of those boxes.
    """
    task, bundle = run.task, run.bundle
    job_rows, collected = _collect(
        run, outcomes, "seg", "mask", vet=lambda vol: vet_candidate(vol.data, task.labels, "mask")
    )
    candidates_dir = bundle / "candidates"
    candidates_dir.mkdir(parents=True, exist_ok=True)
    per_algorithm: dict[str, str] = {}
    for entry, _, mask_path, _ in collected:
        dest = candidates_dir / f"{entry.id}{_nifti_suffix(mask_path)}"
        shutil.copyfile(mask_path, dest, follow_symlinks=False)
        per_algorithm[entry.id] = dest.relative_to(bundle).as_posix()
    ids = [entry.id for entry, _, _, _ in collected]
    # Each accepted mask matched the input grid within tolerance, so the set
    # takes that grid exactly: two masks on opposite sides of it still agree.
    volumes = [Volume(data=vol.data, affine=run.grid.affine) for _, vol, _, _ in collected]

    candidate_set = CandidateSet(
        masks=tuple(volumes),
        source_ids=tuple(ids),
        labels=task.labels,
        _vetted_boxes=tuple(box for _, _, _, box in collected),
    )
    result = fuse(candidate_set, run.config.fusion_method, run.config.fusion_params)
    write_mask(result.consensus, bundle / CONSENSUS_NAME)

    fusion_doc = result.to_json_dict()
    fusion_doc["labels"] = [{"code": lb.code, "name": lb.name} for lb in task.labels]
    fusion_doc["candidates"] = ids
    (bundle / "fusion.json").write_text(json.dumps(fusion_doc, indent=2, sort_keys=True) + "\n")

    metrics_rel = None
    if len(volumes) > 1:
        # Outside the candidates' box every candidate and the consensus are
        # background (see the fusion module), so scoring inside it is exact.
        box = candidate_set.box
        scores = {
            algo_id: compute_metric_report(
                result.consensus.data[box], vol.data[box], task.labels, result.consensus.spacing
            ).to_json_dict()
            for algo_id, vol in zip(ids, volumes)
        }
        (bundle / "metrics.json").write_text(
            json.dumps({"reference": "consensus", "per_candidate": scores}, indent=2, sort_keys=True)
            + "\n"
        )
        metrics_rel = "metrics.json"

    def write_native(forward, native_grid, path):
        write_mask(inverse_warp_to_native(result.consensus, forward, native_grid), path)

    return _Product(
        job_rows=job_rows,
        primary=CONSENSUS_NAME,
        per_algorithm=per_algorithm,
        manifest={
            "fusion": {
                "method": result.method,
                "iterations_run": result.iterations_run,
                "params": result.params,
            }
        },
        native_name="consensus",
        write_native=write_native,
        fusion_metadata="fusion.json",
        metrics=metrics_rel,
    )


def run_inference(inputs: SubjectInputs, config: PipelineConfig) -> OutputBundle:
    """Run a segmentation task end to end and publish the bundle."""
    task = _task_of_kind(config, SEGMENTATION)
    return _staged_run(inputs, config, task, _resolve_entries(config, task), _produce_segmentation)


def _produce_synthesis(run: _Run, outcomes) -> _Product:
    """Keep the one synthesized image."""
    job_rows, [(entry, image, produced, _)] = _collect(run, outcomes, SYNTHESIS_STEM, "volume")
    out_name = f"{SYNTHESIS_STEM}{_nifti_suffix(produced)}"
    shutil.copyfile(produced, run.bundle / out_name, follow_symlinks=False)
    if run.task.task_id == TaskId.INPAINT:
        synthesized = "T1n"
    else:  # validation guarantees exactly one absent modality
        synthesized = next(m for m in MODALITIES if m not in run.inputs.files)

    def write_native(forward, native_grid, path):
        warped = inverse_warp_image_to_native(image, forward, native_grid)
        write_volume(warped, path, dtype=np.float32)

    return _Product(
        job_rows=job_rows,
        primary=out_name,
        per_algorithm={entry.id: out_name},
        manifest={"synthesized_modality": synthesized, "synthesis_output": out_name},
        native_name=SYNTHESIS_STEM,
        write_native=write_native,
    )


def run_synthesis(inputs: SubjectInputs, config: PipelineConfig) -> OutputBundle:
    """Run a synthesis task (INPAINT or MISSING_MRI) with one algorithm."""
    task = _task_of_kind(config, SYNTHESIS)
    entries = _resolve_entries(config, task)
    if len(entries) != 1:
        raise ValueError(
            f"synthesis runs exactly one algorithm, got {len(entries)} selectors"
        )
    return _staged_run(inputs, config, task, entries, _produce_synthesis)
