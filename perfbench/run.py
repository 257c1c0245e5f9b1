"""Subject-level benchmark of brainorch on the canonical BraTS grid.

Run from the repository root::

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --pin      # rewrite pinned.json

Each workload is a closed loop: one worker process runs subjects one after
another through ``run_inference`` / ``run_synthesis`` with
``parallel_jobs=2`` and ``MockEngine(max_concurrent_jobs=2)``. Inputs are
generated from ``--seed`` before the worker starts (see ``scenario.py``);
every published bundle is then checked (see ``check.py``).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` every subject is traced and the run reports per-layer figures
from spans recorded around the calls into each module (see ``tracing.py``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import scenario
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Subjects are variants 0..VARIANTS-1; seed s runs variants s, s+1, ...
# modulo VARIANTS, so every subject has a pinned bundle digest.
VARIANTS = 8
# Set-up is timed per generated subject and reported as a median; a run
# generates at least this many (a one-subject pool is regenerated).
SETUP_REPEATS = 3
# A run must end within 180 s; the worker is stopped at this mark.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "subject_s_p50": "s",
    "subject_cpu_s_p50": "s",
    "peak_rss_mb": "MB",
    "bundle_mb": "MB",
    "setup_s": "s",
}


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def _run_worker(plan: dict, work: Path, deadline: float | None) -> dict:
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path)], cwd=ROOT)
    try:
        proc.wait(timeout=None if deadline is None else max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(Path(plan["result"]).read_text())


def run_workload(workload, seed: int, seconds: float, trace: bool, deadline: float | None, variants=None) -> dict:
    """Generate, run and check one workload; returns figures and digests.

    ``variants`` overrides the seed's pool; the digests are then checked
    against each other instead of ``pinned.json`` (used to pin them).
    """
    work = ROOT / ".perfbench" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        pool = variants or [(seed + i) % VARIANTS for i in range(workload.pool)]
        subjects, setup = {}, []
        for r in range(max(SETUP_REPEATS, len(pool))):
            variant = pool[r % len(pool)]
            start = time.perf_counter()
            subjects[variant] = scenario.write_subject(work / "subjects", workload, variant)
            setup.append(time.perf_counter() - start)

        warm_start = time.monotonic()
        if workload.warmup_scale == 1.0:
            warm = subjects[pool[0]]
        else:
            warm = scenario.write_subject(work / "warmup", workload, pool[0], scale=workload.warmup_scale)

        def doc(subject):
            return {"subject_id": subject.subject_id, "directory": str(subject.directory), "outputs": [str(p) for p in subject.outputs]}

        plan = {
            "src": str(ROOT / "src"),
            "task": workload.task,
            "native": workload.native,
            "algorithm_ids": workload.algorithm_ids,
            "warmup": doc(warm),
            "subjects": [doc(subjects[v]) for v in pool],
            "seconds": seconds,
            "trace": trace,
            "out": str(work / "out"),
            "result": str(work / "result.json"),
        }
        result = _run_worker(plan, work, deadline)
        warmup_s = result["warm_done"] - warm_start

        pins = check.load_pins().get(workload.name, {})
        digests: dict[int, str] = {}
        problems: list[str] = []
        for run in result["runs"]:
            variant = pool[run["pool_index"]]
            subject = subjects[variant]
            found = [run["error"]] if "error" in run else []
            if not found:
                bundle = Path(run["bundle"])
                pinned = pins.get(str(variant)) if variants is None else digests.get(variant)
                if pinned is None and variants is None:
                    found.append(f"no pinned digest for variant {variant}")
                digest, more = check.check_bundle(bundle, workload, subject.outputs, pinned)
                found += more
                digests[variant] = digest
                files = check.bundle_files(bundle)
                run["bundle_bytes"] = sum(p.stat().st_size for p in files.values())
                run["hashed_bundle_bytes"] = sum(p.stat().st_size for rel, p in files.items() if rel != check.MANIFEST)
            run["problems"] = found
            problems += [f"run {run['index']} ({subject.subject_id}): {p}" for p in found]

        timed = [r for r in result["runs"] if "wall_s" in r]
        figures, counts, layers, account_line = {}, {}, {}, ""
        if trace:
            layers, more, account_line = _layer_figures(result, subjects, pool)
            problems += more
        else:
            figures = {
                "subject_s_p50": _median(r["wall_s"] for r in timed),
                "subject_cpu_s_p50": _median(r["cpu_s"] for r in timed),
                "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
                "bundle_mb": _median(r["bundle_bytes"] / 1e6 for r in timed if "bundle_bytes" in r),
                "setup_s": _median(setup) + warmup_s,
            }
            counts = {
                "subject_s_p50": len(timed),
                "subject_cpu_s_p50": len(timed),
                "peak_rss_mb": 1,
                "bundle_mb": sum("bundle_bytes" in r for r in timed),
                "setup_s": len(setup),
            }
        attempted = len(result["runs"])
        failed = sum(bool(r["problems"]) for r in result["runs"])
        return {
            "workload": workload.name,
            "pool": pool,
            "figures": figures,
            "counts": counts,
            "layers": layers,
            "account": account_line,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "digests": digests,
            "measured_s": result["measured_s"],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left while another run uses it
            work.parent.rmdir()


def _layer_figures(result: dict, subjects: dict, pool: list[int]):
    """Median per-layer figures over the traced subjects, the problems found,
    and the time account of the first subject."""
    roots = {s["attrs"]["run"]: s for s in result["spans"] if s["name"] == "subject"}
    per_subject, problems, account_line = [], [], ""
    for run in result["runs"]:
        if run["problems"]:
            continue
        subject = subjects[pool[run["pool_index"]]]
        account = tracing.subject_account(result["spans"], roots[run["index"]])
        # Self times of the layer spans plus pipeline.self_s, less the time
        # concurrent job spans overlap, must give the subject's time.
        layer_self = sum(v for k, v in account["self_s"].items() if k != "subject")
        residue = layer_self + account["self_s"]["subject"] - account["concurrent_s"] - account["subject_s"]
        if abs(residue) > 1e-6:
            problems.append(f"run {run['index']}: self times miss the subject time by {residue:.9f} s")
        if not account_line:
            account_line = (
                f"account of run {run['index']}: layer self times {layer_self:.4f} s + pipeline.self_s "
                f"{account['self_s']['subject']:.4f} s - concurrent {account['concurrent_s']:.4f} s "
                f"= subject {account['subject_s']:.4f} s (residue {residue:.1e} s)"
            )
        staged = sum(p.stat().st_size for p in subject.inputs)
        inputs = {p.name for p in subject.inputs}
        per_subject.append(tracing.layer_metrics(account, inputs, staged, run["hashed_bundle_bytes"]))
    if not per_subject:
        return {}, problems + ["no traced subject completed"], account_line
    return tracing.median_metrics(per_subject), problems, account_line


def _print_report(report: dict, seed: int, trace: bool) -> None:
    print(f"perfbench {report['workload']}: seed {seed}, variants {report['pool']}, "
          f"{report['attempted']} subject run(s) in {report['measured_s']:.1f} s, trace {'on' if trace else 'off'}")
    for name, value in report["figures"].items():
        print(f"  {name:<22} {value:>12.4f} {END_TO_END_UNITS[name]:<3} n={report['counts'][name]}")
    print(f"  {'fail_ratio':<22} {report['failed'] / report['attempted']:>12.4f} -   n={report['attempted']}")
    if report["layers"]:
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            print(f"  {name:<38} {report['layers'][name]:>12.4f} {unit}")
        print(f"  {report['account']}")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")


def _metrics(report: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        # A run whose traced subjects all failed still names every metric.
        layers = report["layers"]
        return {prefix + k: {"value": layers.get(k, 0.0), "unit": unit} for k, (unit, _) in tracing.LAYER_METRICS.items()}
    return {prefix + k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in report["figures"].items()}


def _pin(names: list[str]) -> int:
    pins = check.load_pins()
    for name in names:
        report = run_workload(scenario.WORKLOADS[name], 0, 0.0, False, None, variants=list(range(VARIANTS)))
        _print_report(report, 0, False)
        if report["failed"]:
            return 1
        pins[name] = {str(v): d for v, d in sorted(report["digests"].items())}
    check.PINNED.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {check.PINNED}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*scenario.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="run every variant once and rewrite pinned.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "brainorch" / "__init__.py").is_file():
        print(f"perfbench: no brainorch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(scenario.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.pin:
        return _pin(names)

    env = environment()
    print("env " + json.dumps(env))
    deadline = time.monotonic() + RUN_LIMIT_S if len(names) == 1 else None
    reports = []
    for name in names:
        report = run_workload(scenario.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline)
        _print_report(report, args.seed, bool(args.trace))
        reports.append(report)
    metrics = {}
    for report in reports:
        metrics.update(_metrics(report, bool(args.trace), f"{report['workload']}." if len(reports) > 1 else ""))
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    problems = sum(len(r["problems"]) for r in reports)
    print(json.dumps({"correct": failed == 0 and problems == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
