"""Closed-loop worker: runs subjects one after another in a fresh process.

Started by ``run.py`` after the inputs exist, so the peak RSS this process
reports covers the library, the warm-up subject and the measured subjects,
and not input generation. Usage::

    python3 perfbench/worker.py PLAN.json

The plan names the workload, the subjects, the run length and whether to
trace. The worker writes its timings (and spans, when tracing) to the plan's
``result`` path and prints nothing.
"""

from __future__ import annotations

import contextlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import tracing


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _import_brainorch(src: Path) -> None:
    """Import the program from the checkout, never from an installed copy."""
    sys.path.insert(0, str(src))
    import brainorch

    if Path(brainorch.__file__).resolve().parent != (src / "brainorch").resolve():
        raise ImportError(f"brainorch imported from {brainorch.__file__}, not from {src}")


class _CopyOutput:
    """Mock container body: write the pre-encoded output of this subject."""

    def __init__(self, outputs: dict[str, str], name: str):
        self.outputs = outputs  # subject id -> encoded file
        self.name = name

    def __call__(self, spec) -> None:
        shutil.copyfile(self.outputs[spec.env["ORCH_SUBJECT"]], spec.output_dir / self.name)


def _setup(plan: dict):
    from brainorch.pipeline import PipelineConfig, discover_subject_inputs, run_inference, run_synthesis
    from brainorch.registry import AlgorithmEntry, Catalog, TaskId
    from brainorch.runtime import MockBehavior, MockEngine

    task = TaskId(plan["task"])
    subjects = [plan["warmup"], *plan["subjects"]]
    engine = MockEngine(max_concurrent_jobs=2)
    entries = []
    out_name = "synthesis.nii.gz" if plan["task"] == "inpaint" else "seg.nii.gz"
    for i, algo_id in enumerate(plan["algorithm_ids"]):
        digest = f"{i + 1:064x}"
        image = f"perfbench/{algo_id}"
        outputs = {s["subject_id"]: s["outputs"][i] for s in subjects}
        engine.register(image, MockBehavior(content_digest="sha256:" + digest, outputs=(_CopyOutput(outputs, out_name),)))
        entries.append(
            AlgorithmEntry(
                id=algo_id, task_id=task, year=2025, rank=i + 1, team_reference="perfbench mock",
                image_reference=f"{image}@sha256:{digest}", requires_gpu=False,
            )
        )
    catalog = Catalog(entries=tuple(entries))
    run = run_synthesis if plan["task"] == "inpaint" else run_inference

    def run_subject(subject: dict, output_dir: Path, span=None):
        """Wall and CPU seconds of one pipeline call, and the published bundle."""
        inputs = discover_subject_inputs(subject["directory"], task)
        config = PipelineConfig(
            task=task,
            engine=engine,
            output_dir=output_dir,
            algorithm_selectors=tuple(plan["algorithm_ids"]),
            fusion_method="simple",
            parallel_jobs=2,
            native_space_output=plan["native"],
            catalog=catalog,
        )
        with span or contextlib.nullcontext():
            start_wall, start_cpu = time.perf_counter(), _cpu_seconds()
            bundle = run(inputs, config)
            wall, cpu = time.perf_counter() - start_wall, _cpu_seconds() - start_cpu
        return wall, cpu, str(bundle.bundle_dir)

    return engine, run_subject


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    _import_brainorch(Path(plan["src"]))
    engine, run_subject = _setup(plan)
    out_root = Path(plan["out"])
    tracer = tracing.Tracer() if plan["trace"] else None

    # Warm-up: imports are done; one small subject fills lazy state (and
    # runs the tracing wrappers once).
    if tracer:
        tracer.install(engine)
    run_subject(plan["warmup"], out_root / "warmup")
    if tracer:
        tracer.spans.clear()
    warm_done = time.monotonic()

    # Whole passes over the pool until the run length is used, so a run's
    # counts do not depend on where the time ran out.
    runs = []
    start = time.perf_counter()
    while True:
        for pool_index, subject in enumerate(plan["subjects"]):
            record = {"index": len(runs), "pool_index": pool_index}
            try:
                span = tracer.subject(run=record["index"]) if tracer else None
                wall, cpu, bundle = run_subject(subject, out_root / f"{len(runs):04d}", span)
                record.update(wall_s=wall, cpu_s=cpu, bundle=bundle)
            except Exception as exc:  # a failed subject is counted, the loop goes on
                traceback.print_exc()
                record["error"] = f"{type(exc).__name__}: {exc}"
            runs.append(record)
        if time.perf_counter() - start >= plan["seconds"]:
            break

    result = {
        "warm_done": warm_done,
        "measured_s": time.perf_counter() - start,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "runs": runs,
        "spans": tracer.spans if tracer else [],
    }
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
