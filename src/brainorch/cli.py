"""Command-line front end: ``orch``.

Subcommands: ``segment``, ``synthesize``, ``fuse``, ``warp``, ``validate``,
``catalog``. Exit codes are part of the contract:

    0  success
    1  validation failed (the inputs, not the tool)
    2  usage or configuration error
    3  engine or runtime failure

``--json`` prints a machine-readable summary to stdout; human-readable
progress goes to stderr. Environment: ``ORCH_ENGINE_ENDPOINT`` overrides the
Docker endpoint, ``ORCH_CATALOG_OVERRIDE`` points at a catalog override file
used when ``--catalog`` is absent.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    BrainorchError,
    CatalogError,
    NoAlgorithmForTask,
    UnknownAlgorithm,
    UnknownTask,
    ValidationFailed,
)
from .fusion import FUSION_METHODS, METHOD_MAJORITY, CandidateSet, SimpleParams, fuse
from .geometry import GridSpec, invert_affine, read_transform, resample_image, resample_mask
from .nifti import read_grid, read_volume, write_mask, write_volume
from .pipeline import PipelineConfig, discover_subject_inputs, run_inference, run_synthesis
from .registry import (
    LATEST_WINNER,
    SEGMENTATION,
    SYNTHESIS,
    get_task_spec,
    list_tasks,
    load_catalog,
)
from .runtime import DockerEngine, MockEngine
from .validation import validate_subject

logger = logging.getLogger("brainorch.cli")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

CATALOG_OVERRIDE_ENV = "ORCH_CATALOG_OVERRIDE"

_SEGMENTATION_TASKS = tuple(t.task_id.value for t in list_tasks() if t.kind == SEGMENTATION)
_SYNTHESIS_TASKS = tuple(t.task_id.value for t in list_tasks() if t.kind == SYNTHESIS)
_ALL_TASKS = tuple(t.task_id.value for t in list_tasks())


def _emit(args, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _load_cli_catalog(args):
    override = getattr(args, "catalog", None) or os.environ.get(CATALOG_OVERRIDE_ENV)
    return load_catalog(override)


def _build_engine(args):
    if args.engine == "mock":
        if args.mock_behaviors:
            return MockEngine.from_behaviors_file(
                args.mock_behaviors, supports_gpu=args.gpu, max_concurrent_jobs=args.parallel
            )
        return MockEngine(supports_gpu=args.gpu, max_concurrent_jobs=args.parallel)
    return DockerEngine(
        endpoint=args.endpoint, max_concurrent_jobs=args.parallel, supports_gpu=args.gpu
    )


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--engine", choices=("docker", "mock"), default="docker", help="container engine backend"
    )
    sub.add_argument(
        "--endpoint", default=None, help="engine endpoint (unix:///... or http://host:port)"
    )
    sub.add_argument(
        "--mock-behaviors", default=None, help="behavior table JSON for the mock engine"
    )
    sub.add_argument(
        "--gpu", action="store_true", help="declare that the engine can satisfy GPU jobs"
    )
    sub.add_argument("--catalog", default=None, help="catalog override JSON file")
    sub.add_argument("--parallel", type=int, default=1, help="max concurrent algorithm jobs")


def _add_fusion_flags(sub: argparse.ArgumentParser) -> None:
    defaults = SimpleParams()
    sub.add_argument("--fusion", choices=FUSION_METHODS, default=METHOD_MAJORITY, help="fusion method")
    sub.add_argument(
        "--max-iterations", type=int, default=defaults.max_iterations, help="iteration cap (simple)"
    )
    sub.add_argument(
        "--drop-factor",
        type=float,
        default=defaults.drop_factor,
        help="drop below mean - factor*std (simple)",
    )
    sub.add_argument(
        "--epsilon",
        type=float,
        default=defaults.convergence_epsilon,
        help="convergence change fraction (simple)",
    )


def _fusion_params(args) -> SimpleParams:
    return SimpleParams(
        max_iterations=args.max_iterations,
        drop_factor=args.drop_factor,
        convergence_epsilon=args.epsilon,
    )


def _print_findings(report) -> None:
    for finding in report.findings:
        _say(f"  [{finding.severity}] {finding.code}: {finding.message}")


def _report_bundle(args, command: str, bundle) -> int:
    """Say where a published bundle went and what its manifest warns about."""
    _say(f"bundle written to {bundle.bundle_dir}")
    for warning in bundle.manifest.get("warnings", []):
        _say(f"  warning: {warning}")
    _emit(
        args,
        {
            "command": command,
            "exit_code": EXIT_OK,
            "bundle_dir": str(bundle.bundle_dir),
            "manifest": bundle.manifest,
        },
    )
    return EXIT_OK


def _cmd_segment(args) -> int:
    inputs = discover_subject_inputs(args.input, args.task)
    if args.declared_space:
        import dataclasses

        inputs = dataclasses.replace(inputs, declared_space=args.declared_space)
    config = PipelineConfig(
        task=args.task,
        engine=_build_engine(args),
        output_dir=Path(args.output),
        algorithm_selectors=tuple(args.algo or [LATEST_WINNER]),
        fusion_method=args.fusion,
        fusion_params=_fusion_params(args),
        parallel_jobs=args.parallel,
        native_space_output=args.native,
        keep_intermediate=args.keep_intermediate,
        force=args.force,
        catalog=_load_cli_catalog(args),
    )
    return _report_bundle(args, "segment", run_inference(inputs, config))


def _cmd_synthesize(args) -> int:
    inputs = discover_subject_inputs(args.input, args.task)
    config = PipelineConfig(
        task=args.task,
        engine=_build_engine(args),
        output_dir=Path(args.output),
        algorithm_selectors=(args.algo,),
        parallel_jobs=args.parallel,
        native_space_output=args.native,
        keep_intermediate=args.keep_intermediate,
        force=args.force,
        catalog=_load_cli_catalog(args),
    )
    return _report_bundle(args, "synthesize", run_synthesis(inputs, config))


def _candidate_id(path: Path, seen: set[str]) -> str:
    stem = path.name
    for suffix in (".nii.gz", ".nii"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    candidate = stem
    bump = 1
    while candidate in seen:
        bump += 1
        candidate = f"{stem}-{bump}"
    seen.add(candidate)
    return candidate


def _cmd_fuse(args) -> int:
    volumes = [read_volume(p) for p in args.masks]
    seen: set[str] = set()
    ids = [_candidate_id(Path(p), seen) for p in args.masks]
    labels = get_task_spec(args.task).labels if args.task else None
    candidates = CandidateSet.from_volumes(volumes, source_ids=ids, labels=labels)
    result = fuse(candidates, args.fusion, _fusion_params(args))
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    consensus_path = out_dir / "consensus.nii.gz"
    write_mask(result.consensus, consensus_path)
    fusion_doc = result.to_json_dict()
    fusion_doc["candidates"] = ids
    (out_dir / "fusion.json").write_text(json.dumps(fusion_doc, indent=2, sort_keys=True) + "\n")
    _say(f"consensus written to {consensus_path}")
    _emit(
        args,
        {
            "command": "fuse",
            "exit_code": EXIT_OK,
            "consensus": str(consensus_path),
            "fusion": fusion_doc,
        },
    )
    return EXIT_OK


def _cmd_warp(args) -> int:
    volume = read_volume(args.input)
    transform = read_transform(args.transform)
    if args.invert:
        transform = invert_affine(transform)
    if args.like:
        grid = GridSpec(*read_grid(args.like))
    else:
        grid = GridSpec.from_volume(volume)
    out_path = Path(args.output)
    if args.interp == "nearest":
        warped = resample_mask(volume, transform, grid)
        write_mask(warped, out_path)
    else:
        warped = resample_image(volume, transform, grid)
        write_volume(warped, out_path, dtype=np.float32)
    _say(f"warped volume written to {out_path}")
    _emit(
        args,
        {
            "command": "warp",
            "exit_code": EXIT_OK,
            "output": str(out_path),
            "source_space": transform.source_space,
            "target_space": transform.target_space,
        },
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    inputs = discover_subject_inputs(args.input, args.task)
    if args.declared_space:
        import dataclasses

        inputs = dataclasses.replace(inputs, declared_space=args.declared_space)
    report = validate_subject(inputs, get_task_spec(args.task))
    _say(f"{report.subject_id} / {report.task_id.value}: {report.verdict}")
    _print_findings(report)
    code = EXIT_OK if report.passed else EXIT_VALIDATION
    _emit(args, {"command": "validate", "exit_code": code, "report": report.to_json_dict()})
    return code


def _cmd_catalog_list(args) -> int:
    catalog = _load_cli_catalog(args)
    if args.task:
        entries = catalog.list_algorithms(args.task, year=args.year)
    else:
        entries = tuple(
            e
            for t in list_tasks()
            for e in catalog.list_algorithms(t.task_id, year=args.year)
        )
    rows = [
        {
            "id": e.id,
            "task": e.task_id.value,
            "year": e.year,
            "rank": e.rank,
            "team_reference": e.team_reference,
            "architecture_tags": list(e.architecture_tags),
            "image_reference": e.image_reference,
        }
        for e in entries
    ]
    if args.json:
        print(json.dumps({"command": "catalog-list", "algorithms": rows}, indent=2, sort_keys=True))
    else:
        for row in rows:
            tags = f" [{', '.join(row['architecture_tags'])}]" if row["architecture_tags"] else ""
            print(
                f"{row['id']}: {row['task']} {row['year']} rank {row['rank']}, "
                f"{row['team_reference']}{tags}"
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orch",
        description="Orchestrate containerized brain-tumor segmentation and synthesis.",
    )
    parser.add_argument("--version", action="version", version=f"orch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    segment = sub.add_parser("segment", help="run segmentation algorithms and fuse their masks")
    segment.add_argument("--task", required=True, choices=_SEGMENTATION_TASKS)
    segment.add_argument("-i", "--input", required=True, help="subject input directory")
    segment.add_argument("-o", "--output", required=True, help="output root directory")
    segment.add_argument(
        "--algo",
        action="append",
        default=None,
        help=f"algorithm id or '{LATEST_WINNER}' (repeatable; default {LATEST_WINNER})",
    )
    segment.add_argument("--native", action="store_true", help="also write native-space outputs")
    segment.add_argument("--keep-intermediate", action="store_true")
    segment.add_argument("--force", action="store_true", help="replace an existing bundle")
    segment.add_argument("--declared-space", default=None)
    segment.add_argument("--json", action="store_true")
    _add_fusion_flags(segment)
    _add_engine_flags(segment)
    segment.set_defaults(handler=_cmd_segment)

    synthesize = sub.add_parser("synthesize", help="run a synthesis algorithm (inpaint, missing-mri)")
    synthesize.add_argument("--task", required=True, choices=_SYNTHESIS_TASKS)
    synthesize.add_argument("-i", "--input", required=True)
    synthesize.add_argument("-o", "--output", required=True)
    synthesize.add_argument("--algo", default=LATEST_WINNER, help="algorithm id (exactly one)")
    synthesize.add_argument("--native", action="store_true")
    synthesize.add_argument("--keep-intermediate", action="store_true")
    synthesize.add_argument("--force", action="store_true")
    synthesize.add_argument("--json", action="store_true")
    _add_engine_flags(synthesize)
    synthesize.set_defaults(handler=_cmd_synthesize)

    fuse_cmd = sub.add_parser("fuse", help="fuse existing mask files into a consensus")
    fuse_cmd.add_argument("masks", nargs="+", help="candidate mask files (.nii/.nii.gz)")
    fuse_cmd.add_argument("-o", "--output", required=True, help="output directory")
    fuse_cmd.add_argument("--task", default=None, choices=_ALL_TASKS, help="names the label set")
    fuse_cmd.add_argument("--json", action="store_true")
    _add_fusion_flags(fuse_cmd)
    fuse_cmd.set_defaults(handler=_cmd_fuse)

    warp = sub.add_parser("warp", help="resample a volume through a transform sidecar")
    warp.add_argument("-i", "--input", required=True, help="volume to warp")
    warp.add_argument("-t", "--transform", required=True, help="transform sidecar JSON")
    warp.add_argument("--like", default=None, help="volume providing the target grid")
    warp.add_argument("--invert", action="store_true", help="apply the inverse transform")
    warp.add_argument("--interp", choices=("nearest", "trilinear"), default="nearest")
    warp.add_argument("-o", "--output", required=True)
    warp.add_argument("--json", action="store_true")
    warp.set_defaults(handler=_cmd_warp)

    validate = sub.add_parser("validate", help="validate a subject directory against a task")
    validate.add_argument("--task", required=True, choices=_ALL_TASKS)
    validate.add_argument("-i", "--input", required=True)
    validate.add_argument("--declared-space", default=None)
    validate.add_argument("--json", action="store_true")
    validate.set_defaults(handler=_cmd_validate)

    catalog = sub.add_parser("catalog", help="inspect the algorithm catalog")
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)
    catalog_list = catalog_sub.add_parser("list", help="list catalog entries")
    catalog_list.add_argument("--task", default=None, choices=_ALL_TASKS)
    catalog_list.add_argument("--year", type=int, default=None)
    catalog_list.add_argument("--catalog", default=None, help="catalog override JSON file")
    catalog_list.add_argument("--json", action="store_true")
    catalog_list.set_defaults(handler=_cmd_catalog_list)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; fold its exit status into ours.
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_USAGE if code == 2 else code
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        return args.handler(args)
    except ValidationFailed as exc:
        _say("validation failed:")
        _print_findings(exc.report)
        _emit(
            args,
            {"exit_code": EXIT_VALIDATION, "error": {"type": "ValidationFailed"},
             "report": exc.report.to_json_dict()},
        )
        return EXIT_VALIDATION
    except (UnknownTask, UnknownAlgorithm, NoAlgorithmForTask, CatalogError) as exc:
        _say(f"error: {exc}")
        _emit(args, {"exit_code": EXIT_USAGE, "error": {"type": type(exc).__name__, "message": str(exc)}})
        return EXIT_USAGE
    except (FileNotFoundError, ValueError) as exc:
        _say(f"error: {exc}")
        _emit(args, {"exit_code": EXIT_USAGE, "error": {"type": type(exc).__name__, "message": str(exc)}})
        return EXIT_USAGE
    except BrainorchError as exc:
        _say(f"error: {exc}")
        _emit(args, {"exit_code": EXIT_RUNTIME, "error": {"type": type(exc).__name__, "message": str(exc)}})
        return EXIT_RUNTIME
    except Exception as exc:  # the CLI reports, it does not crash
        logger.exception("unexpected failure")
        _say(f"unexpected error: {exc!r}")
        _emit(args, {"exit_code": EXIT_RUNTIME, "error": {"type": type(exc).__name__, "message": str(exc)}})
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
