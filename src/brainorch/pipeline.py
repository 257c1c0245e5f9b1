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

A run works in ``.staging-*/`` beside the target. The staged inputs and
each job's output sit in its ``work/`` (``input/``, ``jobs/<id>/``), beside
the bundle being assembled, so nothing is deleted from the bundle before it
is hashed; keep_intermediate moves ``work/`` into it with one rename first.
The bundle is published with one atomic rename, so a crashed run never
leaves a partial bundle at the target path; a bundle replaced with ``force``
is renamed aside first and deleted only after the swap. A write that the
operating system refuses (a directory, a copy, a JSON record, a rename) is
an ``IoFailure`` naming the path. The run's one cleanup removes the staging
directory once its pool is done, all but an old bundle that could not be
put back, which the ``IoFailure`` names; a warning names what else is left.
Partial algorithm failures degrade to warnings as long as at least one
candidate survives; zero survivors abort the run. The manifest's content
digest covers the file hash map only, never the timestamp, so identical
inputs with the mock engine produce identical digests.

Segmentation (:func:`run_inference`) and synthesis (:func:`run_synthesis`,
INPAINT and MISSING_MRI) run through one staged-run skeleton: validate,
refuse a collision, stage, run the jobs and produce, warp to native space,
hash and publish. Each kind adds only a produce step, which runs the jobs.
Segmentation vets and fuses candidate masks and scores them against the
consensus; synthesis runs exactly one algorithm and keeps its image.
Validation decodes every input once and hands its grids on, so the run
decodes no input again.

One pool of ``parallel_jobs`` threads per run decodes the inputs; pulls,
runs, reads and vets each job as one item, so a finished job's output is
vetted while the next container runs; writes the consensus beside the
preparation of the scoring reference, scores each candidate, heaviest
first, and hashes the files. Results fold back by input, so no bundle
byte depends on the thread count. The native-space output is written
while it is warped: the calling thread fills its planes in order and the
warp's sink hands each one to the writer, one item of the pool, which
deflates it while the next plane is filled. The small JSON files and the
candidate copies are written on the calling thread.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import logging
import os
import queue
import shutil
import stat
import uuid
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, jsondoc
from .errors import (
    AllJobsFailed,
    BrainorchError,
    EngineUnreachable,
    GridMismatch,
    IoFailure,
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
)
from .metrics import compute_metric_report, prepare_reference
from .nifti import NIFTI_SUFFIXES, Volume, nifti_suffix, read_volume, write_mask, write_volume
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
from .runtime import STATUS_ENGINE_ERROR, JobResult, JobSpec
from .validation import SubjectInputs, validate_subject

logger = logging.getLogger("brainorch.pipeline")

MANIFEST_SCHEMA_VERSION = 1
CONSENSUS_NAME = "consensus.nii.gz"
SYNTHESIS_STEM = "synthesis"


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


def _copy_file(source: Path, target: Path, follow_symlinks: bool = True) -> None:
    """``shutil.copyfile``, with an ``OSError`` raised as an ``IoFailure``
    that names both files."""
    try:
        shutil.copyfile(source, target, follow_symlinks=follow_symlinks)
    except OSError as exc:
        raise IoFailure(f"cannot copy {source} to {target}: {exc}") from exc


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


def _hash_tree(root: Path, map) -> dict[str, str]:
    files = [p for p in sorted(root.rglob("*")) if p.is_file()]
    return dict(zip((p.relative_to(root).as_posix() for p in files), map(_sha256_file, files)))


def _nifti_by_stem(directory: Path, stem: str) -> Path | None:
    """The first of ``<stem>.nii.gz`` and ``<stem>.nii`` in ``directory`` that is a file, or None."""
    return next((p for p in (directory / f"{stem}{s}" for s in NIFTI_SUFFIXES) if p.is_file()), None)


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
    found = {tag: _nifti_by_stem(directory, f"{subject}-{tag.lower()}") for tag in (*MODALITIES, "MASK")}
    files = {tag: path for tag, path in found.items() if path is not None}
    native_reference = _nifti_by_stem(directory, f"{subject}-native")
    sidecars = tuple(sorted(directory.glob(f"{subject}_*2*.json")))
    consumed = {*files.values(), native_reference, *sidecars}
    extras = tuple(p for p in sorted(directory.iterdir()) if p.is_file() and p not in consumed)
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


def _stage_inputs(
    inputs: SubjectInputs, tags, stage_dir: Path
) -> dict[str, Path]:
    """Copy inputs under the container naming contract:
    ``<subject>-<tag>.nii[.gz]``, lowercase tags. Validation has checked
    every input's suffix."""
    stage_dir.mkdir(parents=True, exist_ok=True)
    staged: dict[str, Path] = {}
    for tag in tags:
        source = inputs.files[tag]
        target = stage_dir / f"{inputs.subject_id}-{tag.lower()}{nifti_suffix(source)}"
        _copy_file(source, target)
        staged[tag] = target
    return staged


@dataclass
class _Run:
    """One staged run in progress, as a produce step sees it."""

    inputs: SubjectInputs
    task: TaskSpec
    config: PipelineConfig
    bundle: Path  # the bundle being assembled in the staging directory
    work: Path  # beside the bundle: input/ every job reads, jobs/<id>/ each job writes
    grid: GridSpec  # every accepted output sits on this input grid
    warnings: list[str]
    # (forward transform, native grid) when native-space output is asked for
    native: tuple[AffineTransform, GridSpec] | None
    map: Callable  # the run's pool's ordered map, for independent items


@dataclass(frozen=True)
class _Product:
    """What a produce step made. Paths are relative to the bundle."""

    job_rows: list[dict]
    primary: str
    per_algorithm: dict[str, str]
    manifest: dict  # the fields only this kind of run records
    native_name: str
    # warp(forward, native grid, sink=) feeds write(native grid, path, planes=)
    warp: Callable[..., Volume]
    write: Callable[..., Path]
    fusion_metadata: str | None = None
    metrics: str | None = None


def _pick_output_file(result: JobResult, stem: str) -> Path | None:
    """The mask/volume a job produced: ``<stem>.nii.gz``, ``<stem>.nii``, else the only NIfTI.

    The engine lists symlinks among the produced files, so a symlink with a
    NIfTI name is picked and :func:`_unsafe_output` rejects it, rather than
    another file standing in.
    """
    produced = [p for p in result.produced_files if nifti_suffix(p)]
    for suffix in NIFTI_SUFFIXES:
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


def _run_and_read(run: _Run, entries: list[AlgorithmEntry], stem: str, noun: str, vet):
    """Pull, run, read and vet each job as one item of the run's pool, so a
    finished job's output is vetted while the next container runs.

    Engine exceptions and rejected outputs degrade to warnings, so one bad
    job cannot abort the survivors. ``vet(volume)``, unless None, raises
    ``ValueError`` or :class:`UnknownLabel` to reject an output; what it
    returns is kept with the accepted output. An output whose header
    declares another grid than the input grid is rejected before its
    voxels are read. Results fold back in input order. Raises when no
    output is accepted.
    """
    engine = run.config.engine

    def on_input_grid(shape, affine):
        problem = grid_mismatch(GridSpec(shape, affine), run.grid, "the input grid")
        if problem is not None:
            raise GridMismatch(problem)

    def one(entry: AlgorithmEntry):
        """``(job row, warning or None, accepted output or None, captured exception or None)``."""
        out_dir = run.work / "jobs" / entry.id
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            engine.pull_image(entry.image_reference)
            result = engine.run_job(JobSpec(
                image_reference=entry.image_reference,
                input_dir=run.work / "input",
                output_dir=out_dir,
                env={"ORCH_SUBJECT": run.inputs.subject_id, "ORCH_TASK": run.task.task_id.value},
                requires_gpu=entry.requires_gpu,
                shm_bytes=entry.shm_bytes,
                timeout_seconds=entry.timeout_seconds,
                container_input_path=entry.input_mount_path,
                container_output_path=entry.output_mount_path,
            ))
        except Exception as exc:  # captured per job, reported in the manifest
            row = dict(id=entry.id, image_reference=entry.image_reference, status=STATUS_ENGINE_ERROR,
                       exit_code=None, duration_seconds=0.0, error=str(exc))
            return row, f"{entry.id}: {exc}", None, exc
        row = {"id": entry.id, **result.to_json_dict()}
        if not result.ok:
            tail = result.log_excerpt.strip().splitlines()
            detail = f" ({tail[-1]})" if tail else ""
            return row, f"{entry.id}: job {result.status}{detail}", None, None
        path = _pick_output_file(result, stem)
        if path is None:
            return row, f"{entry.id}: job succeeded but produced no unambiguous {noun}", None, None
        problem = _unsafe_output(path, out_dir)
        if problem is None:
            try:
                vol = read_volume(path, check_grid=on_input_grid)
            except GridMismatch as exc:
                problem = str(exc)
            except BrainorchError as exc:
                # Name the file as work/jobs/...: the staging path is the host's and new each run.
                reason = str(exc).replace(str(path), path.relative_to(run.work.parent).as_posix())
                return row, f"{entry.id}: unreadable {noun} {path.name}: {reason}", None, None
        vetted = None
        if problem is None and vet is not None:
            try:
                vetted = vet(vol)
            except (ValueError, UnknownLabel) as exc:
                problem = str(exc)
        if problem is not None:
            return row, f"{entry.id}: rejected candidate: {problem}", None, None
        row["candidate"] = True
        return row, None, (entry, vol, path, vetted), None

    job_rows: list[dict] = []
    accepted: list[tuple[AlgorithmEntry, Volume, Path, object]] = []
    raised: list[Exception | None] = []
    for row, warning, kept, exc in run.map(one, entries):
        job_rows.append(row)
        raised.append(exc)
        if warning is not None:
            run.warnings.append(warning)
        if kept is not None:
            accepted.append(kept)
    if not accepted:
        if all(isinstance(exc, EngineUnreachable) for exc in raised):
            raise raised[0]
        raise AllJobsFailed(
            f"no algorithm produced a usable candidate {noun}: " + "; ".join(run.warnings)
        )
    return job_rows, accepted


def _refuse_collision(target: Path, force: bool) -> None:
    # A path below a file does not exist, so this finds the file in the way,
    # a dangling link included.
    existing = next(path for path in (target, *target.parents) if os.path.lexists(path))
    if not existing.is_dir():
        raise OutputCollision(f"output bundle {target}: {existing} is not a directory; force does not replace it")
    if target.exists() and any(target.iterdir()) and not force:
        raise OutputCollision(f"output bundle {target} already exists; use force to replace")


# Where a forced publish parks the old bundle, beside the staged one.
_PARKED = "replaced"


def _atomic_publish(bundle_staging: Path, target: Path, force: bool) -> None:
    """Move the staged bundle to ``target``.

    An existing bundle (``force``) is renamed aside next to the staged one
    first and deleted with the staging directory after the swap, so a crash
    at any point leaves one bundle whole: the new one at ``target``, or the
    old one there or, between the two renames, beside the staged one. If
    the swap fails, the old bundle goes back; if that fails too, it stays
    parked beside the staged one and the :class:`IoFailure` names it. A
    bundle that another run published at ``target`` in the meantime is an
    :class:`OutputCollision`.
    """
    _refuse_collision(target, force)
    target.parent.mkdir(parents=True, exist_ok=True)
    aside = bundle_staging.with_name(_PARKED)
    try:
        if target.exists():
            target.replace(aside)
        bundle_staging.replace(target)
    except OSError as exc:
        if aside.exists() and not target.exists():
            try:
                aside.replace(target)
            except OSError as stuck:
                raise IoFailure(f"cannot publish {target}: {exc}; the old bundle is kept at {aside}: {stuck}") from exc
        if exc.errno in (errno.EEXIST, errno.ENOTEMPTY):
            raise OutputCollision(f"output bundle {target} was published by another run") from exc
        raise


def _write_while_warping(run: _Run, warp: Callable, write: Callable) -> None:
    """Run ``warp(sink)`` on this thread while ``write(planes)``, one item of
    the run's pool, writes each plane the warp hands to ``sink``, in order.

    A warp error is handed to the writer, which raises it and so removes its
    partial file; the caller then gets the warp error. A writer error
    reaches the caller once the warp is done.
    """
    feed = queue.SimpleQueue()
    done = object()

    def planes():
        while (plane := feed.get()) is not done:
            if isinstance(plane, BaseException):
                raise plane
            yield plane

    written = run.map(write, [planes()])
    try:
        warp(feed.put)
    except BaseException as exc:
        feed.put(exc)
        with contextlib.suppress(BaseException):
            next(written)  # the writer is done with the file before the caller hears of it
        raise
    feed.put(done)
    next(written)


def _staged_run(
    inputs: SubjectInputs,
    config: PipelineConfig,
    task: TaskSpec,
    entries: list[AlgorithmEntry],
    produce: Callable[[_Run, list[AlgorithmEntry]], _Product],
) -> OutputBundle:
    """Validate, stage, let ``produce`` run the jobs and make the outputs,
    warp them to native space on request, and publish one hashed bundle.
    An ``OSError`` on the way is an :class:`IoFailure`."""
    target = config.output_dir / inputs.subject_id / task.task_id.value
    staging_root = config.output_dir / f".staging-{inputs.subject_id}-{task.task_id.value}-{uuid.uuid4().hex[:8]}"
    bundle, work = staging_root / "bundle", staging_root / "work"
    # The staging directory goes once the pool is shut down, so no job still
    # running after an error writes into it again.
    try:
        with ThreadPoolExecutor(max_workers=config.parallel_jobs) as pool:
            report = validate_subject(inputs, task, config.native_space_output, map=pool.map)
            if not report.passed:
                raise ValidationFailed(report)
            _refuse_collision(target, config.force)  # before any container runs

            config.output_dir.mkdir(parents=True, exist_ok=True)
            warnings = [f"{f.code}: {f.message}" for f in report.warnings]
            # A passing report decoded exactly the inputs this task consumes.
            staged = _stage_inputs(inputs, report.grids, work / "input")
            bundle.mkdir()
            # The run's grid is the one validation compared every input against: the first.
            grid = next(iter(report.grids.values()))
            run = _Run(inputs, task, config, bundle, work, grid, warnings, report.native, pool.map)

            logger.info(
                "running %d algorithm(s) for %s/%s", len(entries), inputs.subject_id, task.task_id.value
            )
            product = produce(run, entries)

            native_rel: dict[str, str] = {}
            if run.native is not None:
                forward, native_grid = run.native
                rel = native_rel[product.native_name] = f"native/{product.native_name}-native.nii.gz"
                (bundle / "native").mkdir()
                _write_while_warping(
                    run,
                    lambda sink: product.warp(forward, native_grid, sink=sink),
                    lambda planes: product.write(native_grid, bundle / rel, planes=planes),
                )

            if config.keep_intermediate:
                warnings.extend(_drop_non_regular(work))
            input_digests = dict(zip(staged, pool.map(_sha256_file, staged.values())))
            manifest = {
                "schema_version": MANIFEST_SCHEMA_VERSION,
                "tool": "brainorch",
                "tool_version": __version__,
                "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "subject": inputs.subject_id,
                "task": task.task_id.value,
                "inputs": {
                    tag: {"file": staged[tag].name, "sha256": input_digests[tag]}
                    for tag in sorted(staged)
                },
                "parallel_jobs": config.parallel_jobs,
                "native_space_output": config.native_space_output,
                **product.manifest,
                "algorithms": product.job_rows,
                "validation": report.to_json_dict(),
                "warnings": warnings,
            }
            if config.keep_intermediate:
                work.replace(bundle / "work")
            manifest["files"] = _hash_tree(bundle, pool.map)
            manifest["content_digest"] = manifest_digest(manifest["files"])
            jsondoc.dump(bundle / "manifest.json", manifest)
            _atomic_publish(bundle, target, config.force)
    except OSError as exc:
        raise IoFailure(f"cannot write the bundle {target}: {exc}") from exc
    finally:
        # The run's one cleanup. An old bundle the swap could not put back stays parked where the IoFailure names it.
        parked = (staging_root / _PARKED).exists() and not target.exists()
        for path in [p for p in staging_root.iterdir() if p.name != _PARKED] if parked else [staging_root]:
            shutil.rmtree(path, ignore_errors=True)
        if staging_root.exists() and not parked:
            logger.warning("could not remove all of the staging directory %s", staging_root)

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


def _produce_segmentation(run: _Run, entries: list[AlgorithmEntry]) -> _Product:
    """Run the jobs, keep each accepted mask, fuse them, and score each
    against the consensus.

    Each mask is vetted once, on its job's item, which finds its
    foreground box; fusion and scoring work inside the union of those boxes.
    The consensus is written on the run's pool beside the preparation of
    the scoring reference; the reports then go to the pool heaviest first
    (most foreground voxels), so the longest one does not start last.
    """
    task, bundle = run.task, run.bundle
    job_rows, collected = _run_and_read(
        run, entries, "seg", "mask", lambda vol: vet_candidate(vol.data, task.labels, "mask")
    )
    candidates_dir = bundle / "candidates"
    candidates_dir.mkdir()
    per_algorithm: dict[str, str] = {}
    for entry, _, mask_path, _ in collected:
        dest = candidates_dir / f"{entry.id}{nifti_suffix(mask_path)}"
        _copy_file(mask_path, dest, follow_symlinks=False)
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
    jsondoc.dump(bundle / "fusion.json", result.to_json_dict())

    # Outside the candidates' box every candidate and the consensus are
    # background (see the fusion module), so scoring inside it is exact.
    # The consensus side is prepared once, beside the consensus write, and
    # shared by every candidate.
    box, spacing = candidate_set.box, result.consensus.spacing
    steps = [partial(write_mask, result.consensus, bundle / CONSENSUS_NAME)]
    if len(volumes) > 1:
        steps.append(partial(prepare_reference, result.consensus.data[box], task.labels, spacing))
    _, *reference = run.map(lambda step: step(), steps)

    metrics_rel = None
    if reference:
        # Heaviest first, ties in input order: the longest report must not
        # start last and leave the other threads idle.
        order = sorted(range(len(volumes)), key=lambda i: -np.count_nonzero(volumes[i].data[box]))
        reports = run.map(
            lambda i: compute_metric_report(reference[0], volumes[i].data[box], task.labels, spacing).to_json_dict(),
            order,
        )
        scores = dict(zip((ids[i] for i in order), reports))
        jsondoc.dump(bundle / "metrics.json", {"reference": "consensus", "per_candidate": scores})
        metrics_rel = "metrics.json"

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
        warp=partial(inverse_warp_to_native, result.consensus),
        write=write_mask,
        fusion_metadata="fusion.json",
        metrics=metrics_rel,
    )


def run_inference(inputs: SubjectInputs, config: PipelineConfig) -> OutputBundle:
    """Run a segmentation task end to end and publish the bundle."""
    task = _task_of_kind(config, SEGMENTATION)
    return _staged_run(inputs, config, task, _resolve_entries(config, task), _produce_segmentation)


def _produce_synthesis(run: _Run, entries: list[AlgorithmEntry]) -> _Product:
    """Run the one job and keep its synthesized image."""
    job_rows, [(entry, image, produced, _)] = _run_and_read(run, entries, SYNTHESIS_STEM, "volume", None)
    out_name = f"{SYNTHESIS_STEM}{nifti_suffix(produced)}"
    _copy_file(produced, run.bundle / out_name, follow_symlinks=False)
    if run.task.task_id == TaskId.INPAINT:
        synthesized = "T1n"
    else:  # validation guarantees exactly one absent modality
        synthesized = next(m for m in MODALITIES if m not in run.inputs.files)

    return _Product(
        job_rows=job_rows,
        primary=out_name,
        per_algorithm={entry.id: out_name},
        manifest={"synthesized_modality": synthesized, "synthesis_output": out_name},
        native_name=SYNTHESIS_STEM,
        warp=partial(inverse_warp_image_to_native, image),
        write=partial(write_volume, dtype=np.float32),
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
