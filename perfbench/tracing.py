"""Spans recorded from the benchmark's side of each layer boundary.

The worker wraps the public names the pipeline calls (``brainorch.pipeline``
and ``brainorch.validation`` imports, the engine's methods, and scipy's EDT
and labeling as ``brainorch.metrics`` sees them). Each call becomes a span:
name, start, end, parent and a few counts. Spans stay in memory and are
handed to the parent process once, at the end of the run.

A span opened on a thread with no open span of its own (the job threads of
the pipeline's pool) is a child of the subject span.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
import tracemalloc
from contextlib import contextmanager


class _Namespace:
    """Forwards attribute reads to a module; set attributes shadow it."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _open(self, name: str, attrs: dict) -> dict:
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"id": next(self._ids), "parent": stack[-1] if stack else self._root, "name": name, "attrs": attrs}
        stack.append(record["id"])
        return record

    def _close(self, record: dict) -> None:
        self._local.stack.pop()
        self.spans.append(record)

    @contextmanager
    def subject(self, **attrs):
        """The root span of one subject; job threads attach to it."""
        record = self._open("subject", attrs)
        self._root = record["id"]
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._root = None
            self._close(record)

    def wrap(self, owner, attr: str, name: str, measure=None, memory: bool = False) -> None:
        """Replace ``owner.attr`` with a traced call for the rest of the process.

        The span covers the wrapped call only. The time the tracing code
        itself takes around it is kept as the span's ``overhead``.
        ``measure(args, result)`` returns counts to attach to the span;
        ``memory`` records the tracemalloc peak of the call.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            record = self._open(name, {})
            if memory:
                tracemalloc.start()
            record["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                record["attrs"]["failed"] = True
                raise
            finally:
                record["end"] = time.perf_counter()
                if memory:
                    record["attrs"]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(record)
            if measure is not None:
                record["attrs"].update(measure(args, result))
            record["overhead"] = record["start"] - entered + time.perf_counter() - record["end"]
            return result

        setattr(owner, attr, traced)

    def install(self, engine) -> None:
        from brainorch import metrics, pipeline, validation

        def read(args, vol):
            return {"file": os.path.basename(str(args[0])), "bytes": vol.data.nbytes}

        def written(args, path):
            return {"bytes": os.path.getsize(path)}

        def fused(args, result):
            return {"iterations": result.iterations_run, "dropped": sum(len(v) for v in result.dropped.values())}

        self.wrap(pipeline, "read_volume", "nifti.read_volume", read)
        self.wrap(validation, "read_volume", "nifti.read_volume", read)
        self.wrap(pipeline, "write_mask", "nifti.write_volume", written)
        self.wrap(pipeline, "write_volume", "nifti.write_volume", written)
        self.wrap(pipeline, "validate_subject", "validation.validate_subject")
        self.wrap(pipeline, "CandidateSet", "fusion.CandidateSet")
        self.wrap(pipeline, "fuse", "fusion.fuse", fused)
        self.wrap(pipeline, "compute_metric_report", "metrics.compute_metric_report")
        self.wrap(pipeline, "inverse_warp_to_native", "geometry.inverse_warp", memory=True)
        self.wrap(pipeline, "inverse_warp_image_to_native", "geometry.inverse_warp", memory=True)
        self.wrap(engine, "pull_image", "runtime.pull_image")
        self.wrap(engine, "run_job", "runtime.run_job", lambda args, result: {"failed": not result.ok})
        metrics.ndimage = ndimage = _Namespace(metrics.ndimage)
        self.wrap(ndimage, "distance_transform_edt", "metrics.edt", lambda args, _: {"voxels": args[0].size})
        self.wrap(ndimage, "label", "metrics.label")


# --- analysis, in the parent process ---------------------------------------


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def subject_account(spans: list[dict], root: dict) -> dict:
    """Per-subject layer figures from the spans under one subject span.

    Self time is a span's duration minus the union of its children. Summed
    over the tree it exceeds the subject's duration by exactly the time
    that sibling spans on different threads overlap (``concurrent_s``).
    """
    children: dict[int, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    tree, todo = [], [root]
    while todo:
        span = todo.pop()
        tree.append(span)
        todo.extend(children.get(span["id"], ()))

    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, dict[str, float]] = {}
    concurrent = overhead = 0.0
    for span in tree:
        overhead += span.get("overhead", 0.0)
        kids = children.get(span["id"], ())
        covered = _covered((k["start"], k["end"]) for k in kids)
        concurrent += sum(k["end"] - k["start"] for k in kids) - covered
        name = span["name"]
        self_s[name] = self_s.get(name, 0.0) + (span["end"] - span["start"]) - covered
        total_s[name] = total_s.get(name, 0.0) + span["end"] - span["start"]
        calls[name] = calls.get(name, 0) + 1
        bucket = attrs.setdefault(name, {})
        for key, value in span["attrs"].items():
            if key == "file":
                bucket.setdefault("files", []).append(value)
            elif key == "peak_bytes":
                bucket[key] = max(bucket.get(key, 0), value)
            else:
                bucket[key] = bucket.get(key, 0) + value
    return {
        "subject_s": root["end"] - root["start"],
        "self_s": self_s,
        "total_s": total_s,
        "calls": calls,
        "attrs": attrs,
        "concurrent_s": concurrent,
        "overhead_s": overhead,
    }


# Per-layer metrics of a traced subject: name -> (unit, better). Times are
# inclusive (a layer's time contains the layers it calls); ``pipeline.self_s``
# is the subject's time outside every wrapped call.
LAYER_METRICS = {
    "metrics.compute_metric_report.s": ("s", "lower"),
    "metrics.compute_metric_report.calls": ("count", "lower"),
    "metrics.edt.calls": ("count", "lower"),
    "metrics.edt.mvoxels": ("Mvoxel", "lower"),
    "metrics.label.calls": ("count", "lower"),
    "fusion.CandidateSet.s": ("s", "lower"),
    "fusion.fuse.s": ("s", "lower"),
    "fusion.iterations": ("count", "lower"),
    "fusion.dropped": ("count", "lower"),
    "geometry.inverse_warp.s": ("s", "lower"),
    "geometry.inverse_warp.peak_mb": ("MB", "lower"),
    "nifti.read_volume.calls": ("count", "lower"),
    "nifti.read_volume.s": ("s", "lower"),
    "nifti.read_volume.decoded_mb": ("MB", "lower"),
    "nifti.decodes_per_input": ("reads/input", "lower"),
    "nifti.write_volume.calls": ("count", "lower"),
    "nifti.write_volume.s": ("s", "lower"),
    "nifti.write_volume.written_mb": ("MB", "lower"),
    "validation.validate_subject.s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "pipeline.staged_mb": ("MB", "lower"),
    "pipeline.hashed_mb": ("MB", "lower"),
    "runtime.pull_image.s": ("s", "lower"),
    "runtime.run_job.s": ("s", "lower"),
    "runtime.jobs": ("count", "lower"),
    "runtime.jobs_failed": ("count", "lower"),
    "trace.subject_s": ("s", "lower"),
    "trace.concurrent_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Layer time and call counts come straight from spans of these names.
_TIMED = ("metrics.compute_metric_report", "fusion.CandidateSet", "fusion.fuse", "geometry.inverse_warp",
          "nifti.read_volume", "nifti.write_volume", "validation.validate_subject", "runtime.pull_image",
          "runtime.run_job")
_COUNTED = ("metrics.compute_metric_report", "metrics.edt", "metrics.label", "nifti.read_volume", "nifti.write_volume")


def layer_metrics(account: dict, input_files: set[str], staged_bytes: int, bundle_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced subject.

    ``input_files`` are the names of the staged inputs: a read of an input
    or of its staged copy counts as a decode of that input.
    """
    total, calls, attrs = account["total_s"], account["calls"], account["attrs"]

    def attr(name, key):
        return attrs.get(name, {}).get(key, 0)

    out = {f"{name}.s": total.get(name, 0.0) for name in _TIMED}
    out |= {f"{name}.calls": calls.get(name, 0) for name in _COUNTED}
    reads = attrs.get("nifti.read_volume", {}).get("files", [])
    out |= {
        "metrics.edt.mvoxels": attr("metrics.edt", "voxels") / 1e6,
        "fusion.iterations": attr("fusion.fuse", "iterations"),
        "fusion.dropped": attr("fusion.fuse", "dropped"),
        "geometry.inverse_warp.peak_mb": attr("geometry.inverse_warp", "peak_bytes") / 1e6,
        "nifti.read_volume.decoded_mb": attr("nifti.read_volume", "bytes") / 1e6,
        "nifti.decodes_per_input": sum(f in input_files for f in reads) / len(input_files),
        "nifti.write_volume.written_mb": attr("nifti.write_volume", "bytes") / 1e6,
        "pipeline.self_s": account["self_s"]["subject"],
        "pipeline.staged_mb": staged_bytes / 1e6,
        "pipeline.hashed_mb": (staged_bytes + bundle_bytes) / 1e6,
        "runtime.jobs": calls.get("runtime.run_job", 0),
        "runtime.jobs_failed": attr("runtime.run_job", "failed"),
        "trace.subject_s": account["subject_s"],
        "trace.concurrent_s": account["concurrent_s"],
        "trace.overhead_s": account["overhead_s"],
    }
    return out


def median_metrics(per_subject: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_subject) for key in per_subject[0]}
