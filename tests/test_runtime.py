"""Engines: scripted mock semantics, container hygiene, and the Docker HTTP
client exercised against an in-process API stub."""

from __future__ import annotations

import io
import itertools
import json
import random
import socketserver
import threading
import time
import tracemalloc
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainorch import runtime
from brainorch.errors import (
    DigestMismatch,
    EngineUnreachable,
    ImageNotFound,
    IoFailure,
    MountFailure,
)
from brainorch.nifti import Volume, read_volume, write_mask, write_volume
from brainorch.runtime import (
    LOG_EXCERPT_BYTES,
    STATUS_ENGINE_ERROR,
    STATUS_NONZERO_EXIT,
    STATUS_SUCCEEDED,
    STATUS_TIMED_OUT,
    DockerEngine,
    JobSpec,
    MockBehavior,
    MockEngine,
    load_behaviors,
)

from fixtures_e2e import (
    E2E_ALGOS,
    expected_candidate_masks,
    fake_digest,
    write_behaviors,
    write_subject,
)


def job_dirs(tmp_path):
    input_dir = tmp_path / "in"
    output_dir = tmp_path / "out"
    input_dir.mkdir(exist_ok=True)
    output_dir.mkdir(exist_ok=True)
    return input_dir, output_dir


def make_spec(tmp_path, image="example/algo", **kw):
    input_dir, output_dir = job_dirs(tmp_path)
    return JobSpec(image_reference=image, input_dir=input_dir, output_dir=output_dir, **kw)


# -- job spec ----------------------------------------------------------------


def test_jobspec_requires_existing_dirs(tmp_path):
    with pytest.raises(MountFailure, match="existing directory"):
        JobSpec(
            image_reference="x",
            input_dir=tmp_path / "nope",
            output_dir=tmp_path,
        )


def test_jobspec_requires_absolute_paths(tmp_path):
    with pytest.raises(MountFailure, match="absolute"):
        JobSpec(image_reference="x", input_dir="relative/dir", output_dir=tmp_path)


def test_jobspec_validates_resources(tmp_path):
    for timeout in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="timeout_seconds must be a finite number > 0"):
            make_spec(tmp_path, timeout_seconds=timeout)
    with pytest.raises(ValueError, match="shm"):
        make_spec(tmp_path, shm_bytes=-1)


def test_jobspec_defaults(tmp_path):
    spec = make_spec(tmp_path)
    assert spec.container_input_path == "/mlcube_io0"
    assert spec.container_output_path == "/mlcube_io1"
    assert spec.requires_gpu is False


# -- mock engine: pulls -------------------------------------------------------


def test_pull_unknown_image():
    engine = MockEngine()
    with pytest.raises(ImageNotFound):
        engine.pull_image("example/ghost")


def test_pull_verifies_pinned_digest():
    engine = MockEngine()
    engine.register("example/algo", MockBehavior(content_digest="sha256:" + "a" * 64))
    with pytest.raises(DigestMismatch):
        engine.pull_image("example/algo@sha256:" + "b" * 64)
    engine.pull_image("example/algo@sha256:" + "a" * 64)
    assert "example/algo@sha256:" + "a" * 64 in engine.pulled


def test_unpinned_pull_skips_digest_check():
    engine = MockEngine()
    engine.register("example/algo", MockBehavior(content_digest="sha256:" + "a" * 64))
    engine.pull_image("example/algo")  # no pin, nothing to verify


def test_register_rejects_digest_qualified_name():
    engine = MockEngine()
    with pytest.raises(ValueError, match="without digest"):
        engine.register("example/algo@sha256:" + "c" * 64, MockBehavior())


def test_run_requires_prior_pull(tmp_path):
    engine = MockEngine()
    engine.register("example/algo", MockBehavior())
    with pytest.raises(ImageNotFound, match="not pulled"):
        engine.run_job(make_spec(tmp_path))


# -- mock engine: runs ---------------------------------------------------------


def pulled_engine(behavior, image="example/algo", **engine_kw):
    engine = MockEngine(**engine_kw)
    engine.register(image, behavior)
    engine.pull_image(image)
    return engine


def test_successful_run_reports_outputs(tmp_path):
    behavior = MockBehavior(
        stdout="hello\n",
        outputs=({"path": "sub/result.txt", "generator": "write_text", "text": "done"},),
    )
    engine = pulled_engine(behavior)
    result = engine.run_job(make_spec(tmp_path))
    assert result.ok
    assert result.status == STATUS_SUCCEEDED
    assert result.exit_code == 0
    assert result.log_excerpt == "hello\n"
    assert [p.name for p in result.produced_files] == ["result.txt"]
    assert (tmp_path / "out" / "sub" / "result.txt").read_text() == "done"


def test_nonzero_exit_is_a_result_not_an_exception(tmp_path):
    engine = pulled_engine(MockBehavior(exit_code=3, stderr="boom"))
    result = engine.run_job(make_spec(tmp_path))
    assert not result.ok
    assert result.status == STATUS_NONZERO_EXIT
    assert result.exit_code == 3
    assert "3" in result.error
    assert "boom" in result.log_excerpt


def test_scripted_sleep_beyond_timeout_times_out(tmp_path):
    engine = pulled_engine(MockBehavior(sleep_s=10.0))
    result = engine.run_job(make_spec(tmp_path, timeout_seconds=0.05))
    assert result.status == STATUS_TIMED_OUT
    assert result.exit_code is None
    assert result.duration_seconds == 0.05
    assert result.produced_files == ()


def test_scripted_duration_is_deterministic(tmp_path):
    engine = pulled_engine(MockBehavior(sleep_s=0.01))
    result = engine.run_job(make_spec(tmp_path))
    assert result.duration_seconds == 0.01


def test_log_excerpt_keeps_the_tail(tmp_path):
    engine = pulled_engine(MockBehavior(stdout="A" * 70_000 + "TAIL"))
    result = engine.run_job(make_spec(tmp_path))
    assert len(result.log_excerpt.encode()) <= LOG_EXCERPT_BYTES
    assert result.log_excerpt.endswith("TAIL")
    assert len(result.log_excerpt) < 70_004


def test_gpu_job_fails_fast_without_gpu_support(tmp_path):
    engine = pulled_engine(MockBehavior())
    result = engine.run_job(make_spec(tmp_path, requires_gpu=True))
    assert result.status == STATUS_ENGINE_ERROR
    assert "GPU" in result.error
    assert engine.containers_created == 0  # never admitted


def test_gpu_job_runs_when_supported(tmp_path):
    engine = pulled_engine(MockBehavior(), supports_gpu=True)
    result = engine.run_job(make_spec(tmp_path, requires_gpu=True))
    assert result.ok


def test_engine_failure_raises_but_cleans_up(tmp_path):
    engine = pulled_engine(MockBehavior(fail_engine=True))
    with pytest.raises(EngineUnreachable):
        engine.run_job(make_spec(tmp_path))
    assert engine.containers_created == 1
    assert engine.containers_removed == 1
    assert engine.live_containers == 0


def test_callable_output_script(tmp_path):
    def fabricate(spec):
        (spec.output_dir / "made.txt").write_text("by callable")

    engine = pulled_engine(MockBehavior(outputs=(fabricate,)))
    result = engine.run_job(make_spec(tmp_path))
    assert [p.name for p in result.produced_files] == ["made.txt"]


def test_result_json_shape(tmp_path):
    engine = pulled_engine(MockBehavior())
    result = engine.run_job(make_spec(tmp_path))
    doc = json.loads(json.dumps(result.to_json_dict()))
    assert doc["status"] == "succeeded"
    assert doc["image_reference"] == "example/algo"
    assert doc["error"] is None


# -- mock engine: concurrency and hygiene ----------------------------------------


def run_many(engine, tmp_path, n, timeout=5.0):
    specs = []
    for i in range(n):
        base = tmp_path / f"job{i}"
        base.mkdir()
        specs.append(make_spec(base, timeout_seconds=timeout))
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(engine.run_job, specs))


def test_admission_respects_cap_of_one(tmp_path):
    engine = pulled_engine(MockBehavior(sleep_s=0.05), max_concurrent_jobs=1)
    results = run_many(engine, tmp_path, 3)
    assert all(r.ok for r in results)
    assert engine.max_concurrent_observed == 1
    assert engine.containers_created == 3
    assert engine.containers_removed == 3
    assert engine.live_containers == 0


def test_admission_allows_parallelism_up_to_cap(tmp_path):
    engine = pulled_engine(MockBehavior(sleep_s=0.15), max_concurrent_jobs=2)
    results = run_many(engine, tmp_path, 4)
    assert all(r.ok for r in results)
    assert engine.max_concurrent_observed == 2


def test_invalid_concurrency_rejected():
    with pytest.raises(ValueError):
        MockEngine(max_concurrent_jobs=0)


# -- mock engine: generators and behavior files ----------------------------------


def test_copy_input_generator(tmp_path):
    input_dir, output_dir = job_dirs(tmp_path)
    (input_dir / "sub-a-t1c.nii").write_bytes(b"payload")
    behavior = MockBehavior(
        outputs=({"path": "copy.nii", "generator": "copy_input", "source": "*-t1c.nii"},)
    )
    engine = pulled_engine(behavior)
    engine.run_job(make_spec(tmp_path))
    assert (output_dir / "copy.nii").read_bytes() == b"payload"


def test_label_blobs_generator_matches_sphere_oracle(tmp_path):
    subj = write_subject(tmp_path / "subjects", "sub-01")
    input_dir, output_dir = job_dirs(tmp_path)
    for f in subj.iterdir():
        (input_dir / f.name).write_bytes(f.read_bytes())
    algo_id, _, blobs = E2E_ALGOS[1]
    behavior = MockBehavior(
        outputs=(
            {
                "path": "seg.nii.gz",
                "generator": "label_blobs",
                "like": "*-t1c.nii*",
                "blobs": [
                    {"label": code, "center": list(center), "radius": radius}
                    for code, center, radius in blobs
                ],
            },
        )
    )
    engine = pulled_engine(behavior)
    engine.run_job(make_spec(tmp_path))
    seg = read_volume(output_dir / "seg.nii.gz")
    np.testing.assert_array_equal(seg.data, expected_candidate_masks()[algo_id])
    assert seg.data.dtype == np.uint8


def index_grid_label_blobs(shape, blobs):
    """The generator's formula over full-grid index arrays: the reference."""
    data = np.zeros(shape, dtype=np.uint8)
    idx = np.indices(shape)
    for blob in blobs:
        center = np.asarray(blob["center"], dtype=np.float64).reshape(3, 1, 1, 1)
        radius = float(blob["radius"])
        data[((idx - center) ** 2).sum(axis=0) <= radius * radius] = int(blob["label"])
    return data


def test_label_blobs_generator_equals_full_index_grids_in_less_memory(tmp_path):
    shape = (96, 90, 60)
    rng = np.random.default_rng(3)
    blobs = [
        {"label": 2, "center": [40, 45, 30], "radius": 13},  # integer spheres: exact-boundary voxels
        {"label": 3, "center": [95, 0, 59], "radius": 20},  # mostly off the grid
        *({"label": int(rng.integers(1, 5)), "center": rng.uniform(-5, 100, 3).tolist(),
           "radius": float(rng.uniform(0.5, 25))} for _ in range(6)),
    ]
    spec = make_spec(tmp_path)
    write_volume(Volume(data=np.zeros(shape, dtype=np.uint8), affine=np.eye(4)), spec.input_dir / "s-t1c.nii")
    out_path = spec.output_dir / "seg.nii.gz"
    tracemalloc.start()
    try:
        runtime._generate_label_blobs(spec, out_path, {"like": "*-t1c.nii", "blobs": blobs})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(read_volume(out_path).data, index_grid_label_blobs(shape, blobs))
    # Two float64 grids' worth; three int64 index grids alone would be 24
    # bytes per voxel (the reference peaks near 59).
    assert peak <= 16 * np.prod(shape), peak


def test_mean_fill_generator(tmp_path):
    input_dir, output_dir = job_dirs(tmp_path)
    image = np.full((6, 6, 6), 10.0, dtype=np.float32)
    image[0, 0, 0] = 100.0  # pull the mean off 10 to make the fill visible
    mask = np.zeros((6, 6, 6), dtype=np.uint8)
    mask[2:4, 2:4, 2:4] = 1
    write_volume(Volume(data=image, affine=np.eye(4)), input_dir / "s-t1n.nii.gz")
    write_mask(Volume(data=mask, affine=np.eye(4)), input_dir / "s-mask.nii.gz")
    behavior = MockBehavior(
        outputs=(
            {
                "path": "synthesis.nii.gz",
                "generator": "mean_fill",
                "image": "*-t1n.nii*",
                "mask": "*-mask.nii*",
            },
        )
    )
    engine = pulled_engine(behavior)
    engine.run_job(make_spec(tmp_path))
    out = read_volume(output_dir / "synthesis.nii.gz")
    hole = mask != 0
    expected_fill = float(image[~hole].mean())
    np.testing.assert_allclose(out.data[hole], np.float32(expected_fill))
    np.testing.assert_allclose(out.data[~hole], image[~hole])


def test_behaviors_file_round_trip(tmp_path):
    path = write_behaviors(tmp_path / "behaviors.json")
    behaviors = load_behaviors(path)
    assert set(behaviors) == {f"example/{algo_id}" for algo_id, _, _ in E2E_ALGOS}
    assert behaviors["example/mock-gli-1"].content_digest == "sha256:" + fake_digest("mock-gli-1")
    engine = MockEngine.from_behaviors_file(path)
    engine.pull_image("example/mock-gli-2")  # registered and pullable


@pytest.mark.parametrize(
    "doc",
    [
        {"schema_version": 2, "images": {}},
        {"images": {}},
        {"schema_version": 1, "images": []},
        [],
        {"schema_version": True, "images": {}},
        {"schema_version": 1.0, "images": {}},
    ],
)
def test_bad_behaviors_file_rejected(tmp_path, doc):
    path = tmp_path / "behaviors.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_behaviors(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("exit_code", True),
        ("exit_code", 1.9),
        ("sleep_s", "0.5"),
        ("stdout", 5),
        ("outputs", "abc"),
        ("outputs", [{"path": "seg.nii.gz", "generator": "no_such_generator"}]),
        ("exitcode", 1),
    ],
    ids=["exit_code-true", "exit_code-1.9", "sleep_s-str", "stdout-int", "outputs-str", "generator-unknown", "unknown"],
)
def test_a_behavior_field_is_checked_not_coerced(tmp_path, key, value):
    path = tmp_path / "behaviors.json"
    path.write_text(json.dumps({"schema_version": 1, "images": {"example/algo": {key: value}}}))
    with pytest.raises(ValueError) as excinfo:
        load_behaviors(path)
    assert str(excinfo.value).startswith(f"{path}: image 'example/algo': ")
    assert repr(key) in str(excinfo.value)


def write_outputs(tmp_path, *outputs) -> Path:
    """A behaviors file whose one image writes ``outputs``."""
    path = tmp_path / "behaviors.json"
    path.write_text(json.dumps({"schema_version": 1, "images": {"example/algo": {"outputs": list(outputs)}}}))
    return path


@pytest.mark.parametrize(
    "out_path", ["<absolute>", "../escape.txt", "sub/../../escape.txt", "sub/..", "", "."],
    ids=["absolute", "parent", "parent-after-a-part", "dotdot-last", "empty", "dot"],
)
def test_an_output_path_must_stay_inside_the_job_output_directory(tmp_path, out_path):
    if out_path == "<absolute>":
        out_path = str(tmp_path / "escape.txt")
    path = write_outputs(tmp_path, {"path": out_path, "generator": "write_text", "text": "out"})
    with pytest.raises(ValueError) as excinfo:
        engine = MockEngine.from_behaviors_file(path)
        engine.pull_image("example/algo")
        engine.run_job(make_spec(tmp_path))  # only if the file loads
    assert str(excinfo.value).startswith(f"{path}: image 'example/algo': 'outputs' item 0: 'path' must be")
    assert [p for p in tmp_path.rglob("*") if p.is_file() and p != path] == []


PATTERN_OUTPUTS = {
    "source": {"path": "seg.nii.gz", "generator": "copy_input"},
    "like": {"path": "seg.nii.gz", "generator": "label_blobs", "blobs": [{"label": 1, "center": [1, 1, 1], "radius": 1}]},
    "image": {"path": "seg.nii.gz", "generator": "mean_fill", "mask": "*-mask.nii*"},
    "mask": {"path": "seg.nii.gz", "generator": "mean_fill", "image": "*-t1n.nii*"},
}


@pytest.mark.parametrize("key", sorted(PATTERN_OUTPUTS))
@pytest.mark.parametrize("pattern", ["../outside.nii.gz", "<absolute>"], ids=["parent", "absolute"])
def test_an_input_pattern_must_stay_inside_the_job_input_directory(tmp_path, key, pattern):
    input_dir, output_dir = job_dirs(tmp_path)
    for name in ("outside.nii.gz", "in/sub-t1n.nii.gz", "in/sub-mask.nii.gz"):  # all readable volumes
        write_mask(Volume(data=np.ones((4, 4, 4), dtype=np.uint8), affine=np.eye(4)), tmp_path / name)
    if pattern == "<absolute>":
        pattern = str(tmp_path / "outside.nii.gz")
    path = write_outputs(tmp_path, {**PATTERN_OUTPUTS[key], key: pattern})
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(ValueError) as excinfo:
        engine = MockEngine.from_behaviors_file(path)
        engine.pull_image("example/algo")
        engine.run_job(make_spec(tmp_path))  # only if the file loads
    assert str(excinfo.value).startswith(
        f"{path}: image 'example/algo': 'outputs' item 0: '{key}' must be a string pattern relative to the job's input"
    )
    assert sorted(tmp_path.rglob("*")) == before


def test_a_behaviors_file_that_cannot_be_read_is_an_io_failure(tmp_path):
    with pytest.raises(IoFailure, match="no-such.json"):
        load_behaviors(tmp_path / "no-such.json")


@pytest.mark.parametrize(
    "output, problem",
    [
        ({"path": "seg.nii.gz", "generator": "copy_input"}, "'source' is missing"),
        ({"path": "seg.nii.gz", "generator": "copy_input", "source": ["*-t1c.nii*"]}, "'source' must be a string"),
        ({"path": "seg.nii.gz", "generator": "label_blobs", "blobs": []}, "'like' is missing"),
        ({"path": "seg.nii.gz", "generator": "label_blobs", "like": "*-t1c.nii*"}, "'blobs' is missing"),
        ({"path": "seg.nii.gz", "generator": "label_blobs", "like": "*", "blobs": {}}, "'blobs' must be an array"),
        ({"path": "seg.nii.gz", "generator": "label_blobs", "like": "*",
          "blobs": [{"label": 1, "center": [1, 2, 3], "radius": 2}, {"label": 1, "center": [1, 2], "radius": 2}]},
         "'blobs' item 1: 'center' must be an array of 3 numbers"),
        ({"path": "seg.nii.gz", "generator": "label_blobs", "like": "*",
          "blobs": [{"label": True, "center": [1, 2, 3], "radius": 2}]}, "'blobs' item 0: 'label' must be an integer"),
        ({"path": "seg.nii.gz", "generator": "label_blobs", "like": "*",
          "blobs": [{"label": 300, "center": [1, 2, 3], "radius": 2}]}, "'blobs' item 0: 'label' must be an integer"),
        ({"path": "seg.nii.gz", "generator": "label_blobs", "like": "*",
          "blobs": [{"label": 1, "center": [1, 2, 3], "radius": "2"}]}, "'blobs' item 0: 'radius' must be a number"),
        ({"path": "seg.nii.gz", "generator": "label_blobs", "like": "*",
          "blobs": [{"label": 1, "center": [1, 2, 3]}]}, "'blobs' item 0: 'radius' is missing"),
        ({"path": "seg.nii.gz", "generator": "mean_fill", "image": "*-t1n.nii*"}, "'mask' is missing"),
        ({"path": "seg.nii.gz", "generator": "mean_fill", "image": 1, "mask": "*"}, "'image' must be a string"),
        ({"path": "out.txt", "generator": "write_text", "text": 5}, "'text' must be a string"),
        ({"path": "out.txt", "generator": "write_text", "txt": "typo"}, "unknown keys ['txt']"),
    ],
    ids=["copy_input-no-source", "copy_input-source-list", "label_blobs-no-like", "label_blobs-no-blobs",
         "label_blobs-blobs-object", "label_blobs-2d-center", "label_blobs-label-true", "label_blobs-label-300",
         "label_blobs-radius-str", "label_blobs-no-radius", "mean_fill-no-mask", "mean_fill-image-int",
         "write_text-text-int", "write_text-unknown-key"],
)
def test_each_generator_output_is_checked_for_its_own_keys_at_load(tmp_path, output, problem):
    path = write_outputs(tmp_path, {"path": "ok.txt", "generator": "write_text"}, output)
    with pytest.raises(ValueError) as excinfo:
        load_behaviors(path)
    assert str(excinfo.value).startswith(f"{path}: image 'example/algo': 'outputs' item 1: {problem}")


def test_every_generator_output_with_its_own_keys_loads(tmp_path):
    outputs = [
        {"path": "copy.nii.gz", "generator": "copy_input", "source": "*-t1c.nii*"},
        {"path": "seg.nii.gz", "generator": "label_blobs", "like": "*-t1c.nii*",
         "blobs": [{"label": 3, "center": [1, 2.5, 3], "radius": 2}]},
        {"path": "sub/synthesis.nii.gz", "generator": "mean_fill", "image": "*-t1n.nii*", "mask": "*-mask.nii*"},
        {"path": "./a/b.txt", "generator": "write_text"},
        {"path": "c.txt", "generator": "write_text", "text": "done"},
    ]
    assert load_behaviors(write_outputs(tmp_path, *outputs))["example/algo"].outputs == tuple(outputs)


# -- log demultiplexing --------------------------------------------------------


def frame(stream: int, payload: bytes) -> bytes:
    return bytes([stream, 0, 0, 0]) + len(payload).to_bytes(4, "big") + payload


def demux_whole(raw: bytes) -> str:
    """The log reader over a whole log, keeping all of it."""
    return runtime._log_tail(io.BytesIO(raw), keep=len(raw))


def test_demux_interleaved_streams():
    raw = frame(1, b"out1 ") + frame(2, b"err1 ") + frame(1, b"out2")
    assert demux_whole(raw) == "out1 err1 out2"


def test_demux_tty_fallback():
    assert demux_whole(b"plain tty text") == "plain tty text"


def test_demux_empty():
    assert demux_whole(b"") == ""


def test_demux_truncated_final_frame():
    raw = frame(1, b"whole") + bytes([1, 0, 0, 0]) + (10).to_bytes(4, "big") + b"cut"
    assert demux_whole(raw) == "wholecut"


# -- docker engine vs stub server ---------------------------------------------


class DockerStub:
    """Tiny in-process Docker API endpoint recording every request, served
    over TCP or, given ``socket_path``, over a Unix socket as the daemon is.
    With ``log_chunks``, ``/logs`` is sent chunked, in chunks of those sizes
    in turn."""

    def __init__(
        self,
        wait_status_code=0,
        wait_delay=0.0,
        repo_digests=None,
        image_missing=False,
        logs_raw=None,
        log_chunks=None,
        replies=None,
        statuses=None,
        socket_path=None,
    ):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _read_body(self):
                length = int(self.headers.get("Content-Length") or 0)
                return self.rfile.read(length) if length else b""

            def _reply(self, status, payload=b"", content_type="application/json"):
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                if payload:  # over a Unix socket, even an empty write fails once the client has read and gone
                    self.wfile.write(payload)

            def _reply_chunked(self, payload, sizes):
                self.protocol_version = "HTTP/1.1"  # chunked transfer coding is HTTP/1.1's
                self.send_response(200)
                self.send_header("Content-Type", "application/octet-stream")
                self.send_header("Transfer-Encoding", "chunked")
                self.send_header("Connection", "close")
                self.end_headers()
                start, sizes = 0, itertools.cycle(sizes)
                while start < len(payload):
                    chunk = payload[start : start + next(sizes)]
                    self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
                    start += len(chunk)
                self.wfile.write(b"0\r\n\r\n")

            def _handle(self, method):
                body = self._read_body()
                stub.requests.append((method, self.path, body))
                path = urllib.parse.urlparse(self.path).path
                status = next((code for end, code in stub.statuses.items() if path.endswith(end)), None)
                raw = next((reply for end, reply in stub.replies.items() if path.endswith(end)), None)
                if status == 0:  # hang up without a reply
                    return
                if status is not None:  # a scripted error in place of the daemon's reply
                    self._reply(status, json.dumps({"message": f"stub status {status}"}).encode())
                elif raw is not None:  # a scripted body in place of the daemon's
                    if path.endswith("/containers/create"):
                        stub.create_bodies.append(json.loads(body))
                    self._reply(201 if path.endswith("/containers/create") else 200, raw)
                elif path.endswith("/images/create"):
                    if stub.image_missing:
                        self._reply(404, b'{"message": "manifest unknown"}')
                    else:
                        self._reply(200, b"{}")
                elif path.startswith("/v1.41/images/") and path.endswith("/json"):
                    doc = {"RepoDigests": stub.repo_digests or []}
                    self._reply(200, json.dumps(doc).encode())
                elif path.endswith("/containers/create"):
                    stub.create_bodies.append(json.loads(body))
                    self._reply(201, b'{"Id": "cid123"}')
                elif path.endswith("/start"):
                    self._reply(204)
                elif path.endswith("/wait"):
                    time.sleep(stub.wait_delay)
                    self._reply(200, json.dumps({"StatusCode": stub.wait_status_code}).encode())
                elif path.endswith("/kill"):
                    stub.killed.set()
                    self._reply(204)
                elif "/logs" in path:
                    payload = stub.logs_raw if stub.logs_raw is not None else frame(1, b"stub log")
                    if stub.log_chunks:
                        self._reply_chunked(payload, stub.log_chunks)
                    else:
                        self._reply(200, payload, content_type="application/octet-stream")
                elif method == "DELETE" and "/containers/" in path:
                    stub.deleted.set()
                    self._reply(204)
                else:
                    self._reply(500, b'{"message": "unexpected path"}')

            def do_GET(self):
                self._handle("GET")

            def do_POST(self):
                self._handle("POST")

            def do_DELETE(self):
                self._handle("DELETE")

        self.requests: list[tuple[str, str, bytes]] = []
        self.create_bodies: list[dict] = []
        self.killed = threading.Event()
        self.deleted = threading.Event()
        self.wait_status_code = wait_status_code
        self.wait_delay = wait_delay
        self.repo_digests = repo_digests
        self.image_missing = image_missing
        self.logs_raw = logs_raw
        self.log_chunks = log_chunks
        self.replies = replies or {}  # path ending -> raw reply body
        self.statuses = statuses or {}  # path ending -> HTTP status of an error reply; 0 hangs up
        if socket_path is None:
            self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
            self.endpoint = f"http://127.0.0.1:{self.server.server_address[1]}"
        else:
            self.server = socketserver.ThreadingUnixStreamServer(str(socket_path), Handler)
            self.endpoint = f"unix://{socket_path}"
        self.server.daemon_threads = True
        # shutdown() waits for serve_forever's next poll; the default 0.5 s
        # poll would add half a second to every test's teardown.
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()

    def stop(self):
        self.server.shutdown()
        self.server.server_close()

    def paths(self):
        return [f"{m} {urllib.parse.urlparse(p).path}" for m, p, _ in self.requests]


@pytest.fixture
def docker_stub():
    stubs = []

    def factory(**kw):
        stub = DockerStub(**kw)
        stubs.append(stub)
        return stub

    yield factory
    for stub in stubs:
        stub.stop()


def test_docker_happy_path_lifecycle(tmp_path, docker_stub):
    stub = docker_stub()
    engine = DockerEngine(endpoint=stub.endpoint)
    engine.pull_image("example/algo")
    result = engine.run_job(make_spec(tmp_path))
    assert result.ok
    assert result.exit_code == 0
    assert result.log_excerpt == "stub log"
    assert stub.paths() == [
        "POST /v1.41/images/create",
        "POST /v1.41/containers/create",
        "POST /v1.41/containers/cid123/start",
        "POST /v1.41/containers/cid123/wait",
        "GET /v1.41/containers/cid123/logs",
        "DELETE /v1.41/containers/cid123",
    ]
    # removal must force and drop anonymous volumes
    delete = next(p for m, p, _ in stub.requests if m == "DELETE")
    assert "force=1" in delete and "v=1" in delete


def test_docker_happy_path_lifecycle_over_a_unix_socket(tmp_path, docker_stub):
    sock = tmp_path / "d.sock"  # short: an AF_UNIX path holds at most 107 bytes
    stub = docker_stub(socket_path=sock)
    engine = DockerEngine(endpoint=f"unix://{sock}")
    engine.pull_image("example/algo")
    result = engine.run_job(make_spec(tmp_path))
    assert result.ok
    assert result.log_excerpt == "stub log"
    assert stub.paths() == [
        "POST /v1.41/images/create",
        "POST /v1.41/containers/create",
        "POST /v1.41/containers/cid123/start",
        "POST /v1.41/containers/cid123/wait",
        "GET /v1.41/containers/cid123/logs",
        "DELETE /v1.41/containers/cid123",
    ]


def test_docker_mounts_and_resources(tmp_path, docker_stub):
    stub = docker_stub()
    engine = DockerEngine(endpoint=stub.endpoint)
    engine.pull_image("example/algo")
    spec = make_spec(tmp_path, shm_bytes=512, env={"B": "2", "A": "1"})
    engine.run_job(spec)
    body = stub.create_bodies[0]
    host = body["HostConfig"]
    assert host["Binds"] == [
        f"{spec.input_dir}:/mlcube_io0:ro",
        f"{spec.output_dir}:/mlcube_io1:rw",
    ]
    assert host["ShmSize"] == 512
    assert "DeviceRequests" not in host
    assert body["Env"] == ["A=1", "B=2"]  # deterministic order
    assert body["Labels"] == {"brainorch.managed": "1"}


def test_docker_gpu_device_request(tmp_path, docker_stub):
    stub = docker_stub()
    engine = DockerEngine(endpoint=stub.endpoint, supports_gpu=True)
    engine.pull_image("example/algo")
    engine.run_job(make_spec(tmp_path, requires_gpu=True))
    host = stub.create_bodies[0]["HostConfig"]
    assert host["DeviceRequests"] == [
        {"Driver": "nvidia", "Count": -1, "Capabilities": [["gpu"]]}
    ]


def test_docker_gpu_fail_fast_creates_nothing(tmp_path, docker_stub):
    stub = docker_stub()
    engine = DockerEngine(endpoint=stub.endpoint, supports_gpu=False)
    result = engine.run_job(make_spec(tmp_path, requires_gpu=True))
    assert result.status == STATUS_ENGINE_ERROR
    assert stub.requests == []


def test_gpu_fail_fast_is_one_result_on_both_engines(tmp_path, docker_stub):
    stub = docker_stub()
    spec = make_spec(tmp_path, requires_gpu=True)
    docker = DockerEngine(endpoint=stub.endpoint, supports_gpu=False).run_job(spec)
    mock = pulled_engine(MockBehavior()).run_job(spec)
    assert docker == mock
    assert docker.status == STATUS_ENGINE_ERROR
    assert "GPU" in docker.error
    assert stub.requests == []


def test_docker_nonzero_exit(tmp_path, docker_stub):
    stub = docker_stub(wait_status_code=7)
    engine = DockerEngine(endpoint=stub.endpoint)
    engine.pull_image("example/algo")
    result = engine.run_job(make_spec(tmp_path))
    assert result.status == STATUS_NONZERO_EXIT
    assert result.exit_code == 7
    assert stub.deleted.is_set()


def test_docker_pull_verifies_digest(docker_stub):
    digest = "sha256:" + "d" * 64
    good = docker_stub(repo_digests=[f"example/algo@{digest}"])
    DockerEngine(endpoint=good.endpoint).pull_image(f"example/algo@{digest}")

    bad = docker_stub(repo_digests=["example/algo@sha256:" + "e" * 64])
    with pytest.raises(DigestMismatch):
        DockerEngine(endpoint=bad.endpoint).pull_image(f"example/algo@{digest}")


def test_docker_pull_unknown_image(docker_stub):
    stub = docker_stub(image_missing=True)
    with pytest.raises(ImageNotFound):
        DockerEngine(endpoint=stub.endpoint).pull_image("example/ghost")


# A 2xx pull reply whose JSON progress stream ends in an error line.
RATE_LIMITED = b"".join(
    json.dumps(line).encode() + b"\r\n"
    for line in (
        {"status": "Pulling from example/algo", "id": "latest"},
        {"errorDetail": {"message": "toomanyrequests: pull rate limit"}, "error": "toomanyrequests: pull rate limit"},
    )
)


@pytest.mark.parametrize("image", ["example/algo:latest", "example/algo@sha256:" + "d" * 64], ids=["tag", "digest"])
def test_docker_pull_names_the_error_a_successful_reply_reports(docker_stub, image):
    stub = docker_stub(repo_digests=["example/algo@sha256:" + "d" * 64], replies={"/images/create": RATE_LIMITED})
    with pytest.raises(ImageNotFound, match=r"registry cannot provide .*: toomanyrequests: pull rate limit$"):
        DockerEngine(endpoint=stub.endpoint).pull_image(image)
    assert stub.paths() == ["POST /v1.41/images/create"]  # no inspect after a failed pull


def test_docker_pull_progress_without_an_error_line_succeeds(docker_stub):
    progress = b'{"status": "Pulling fs layer"}\nnot json\n[1]\n{"error": ""}\n{"status": "Downloaded"}\n'
    stub = docker_stub(replies={"/images/create": progress})
    DockerEngine(endpoint=stub.endpoint).pull_image("example/algo")


def test_docker_wait_timeout_kills_and_reports(tmp_path, docker_stub, monkeypatch):
    # the client allows timeout_seconds + the wait slack for /wait, so the
    # stub must stall longer than that; a short slack keeps the test fast
    monkeypatch.setattr(runtime, "_WAIT_SLACK_S", 0.2)
    stub = docker_stub(wait_delay=0.8)
    engine = DockerEngine(endpoint=stub.endpoint)
    engine.pull_image("example/algo")
    result = engine.run_job(make_spec(tmp_path, timeout_seconds=0.05))
    assert result.status == STATUS_TIMED_OUT
    assert result.exit_code is None
    assert stub.killed.is_set()
    assert stub.deleted.is_set()


@pytest.mark.parametrize(
    "reply", [b"{}", b'{"Id": 7}', b"not json", b'["cid123"]'], ids=["empty", "int-id", "not-json", "array"]
)
def test_docker_create_reply_without_a_string_id_is_engine_unreachable(tmp_path, docker_stub, reply):
    stub = docker_stub(replies={"/containers/create": reply})
    engine = DockerEngine(endpoint=stub.endpoint)
    engine.pull_image("example/algo")
    with pytest.raises(EngineUnreachable, match="^container create reply: "):
        engine.run_job(make_spec(tmp_path))


@pytest.mark.parametrize(
    "reply",
    [b'{"StatusCode": "0"}', b'{"StatusCode": true}', b"{}", b"[0]", b"\xff"],
    ids=["str-status", "bool-status", "no-status", "array", "not-utf8"],
)
def test_docker_wait_reply_without_an_integer_status_is_engine_unreachable(tmp_path, docker_stub, reply):
    stub = docker_stub(replies={"/wait": reply})
    engine = DockerEngine(endpoint=stub.endpoint)
    engine.pull_image("example/algo")
    with pytest.raises(EngineUnreachable, match="^container wait reply: "):
        engine.run_job(make_spec(tmp_path))
    assert stub.deleted.is_set()  # the container is still removed


DIGEST = "sha256:" + "d" * 64


@pytest.mark.parametrize(
    "reply",
    [json.dumps({"RepoDigests": f"example/algo@{DIGEST}"}).encode(), b'{"RepoDigests": [7]}', b"[]", b"nope"],
    ids=["str-digests", "int-digest", "array", "not-json"],
)
def test_docker_inspect_reply_with_malformed_digests_is_engine_unreachable(docker_stub, reply):
    stub = docker_stub(replies={"/json": reply})
    with pytest.raises(EngineUnreachable, match="^image inspect reply: "):
        DockerEngine(endpoint=stub.endpoint).pull_image(f"example/algo@{DIGEST}")


@pytest.mark.parametrize("reply", [b'{"RepoDigests": null}', b'{"Id": "sha256:1"}'], ids=["null", "absent"])
def test_docker_inspect_reply_without_digests_is_a_digest_mismatch(docker_stub, reply):
    stub = docker_stub(replies={"/json": reply})
    with pytest.raises(DigestMismatch):
        DockerEngine(endpoint=stub.endpoint).pull_image(f"example/algo@{DIGEST}")


# Path ending -> the status the stub replies with there (0: it hangs up), and
# how a pinned pull and one job end: a typed error or the job's log excerpt.
DOCKER_ERRORS = {
    "pull-500": ("/images/create", 500, EngineUnreachable),
    "inspect-404": ("/json", 404, ImageNotFound),
    "inspect-500": ("/json", 500, EngineUnreachable),
    "create-404": ("/containers/create", 404, ImageNotFound),
    "create-500": ("/containers/create", 500, EngineUnreachable),
    "start-500": ("/start", 500, EngineUnreachable),
    "wait-500": ("/wait", 500, EngineUnreachable),
    "logs-500": ("/logs", 500, "<logs unavailable: HTTP 500>"),
    "logs-raises": ("/logs", 0, "<logs unavailable: cannot reach engine at "),
}


@pytest.mark.parametrize("case", DOCKER_ERRORS)
def test_docker_error_replies_end_in_their_typed_outcome_and_remove_a_created_container(tmp_path, docker_stub, case):
    end, status, outcome = DOCKER_ERRORS[case]
    image = f"example/algo@{DIGEST}"
    stub = docker_stub(repo_digests=[image], statuses={end: status})
    engine = DockerEngine(endpoint=stub.endpoint)

    def lifecycle():
        engine.pull_image(image)
        return engine.run_job(make_spec(tmp_path, image=image))

    if isinstance(outcome, str):
        result = lifecycle()
        assert result.ok and result.log_excerpt.startswith(outcome), result.log_excerpt
    else:
        with pytest.raises(outcome):
            lifecycle()
    assert stub.deleted.is_set() is (end in ("/start", "/wait", "/logs"))  # a created container is removed


def test_docker_unreachable_endpoint(tmp_path):
    engine = DockerEngine(endpoint="http://127.0.0.1:1", connect_timeout=0.5)
    with pytest.raises(EngineUnreachable):
        engine.pull_image("example/algo")


def test_docker_unsupported_scheme():
    engine = DockerEngine(endpoint="ftp://example")
    with pytest.raises(EngineUnreachable, match="endpoint"):
        engine.pull_image("example/algo")


def test_docker_endpoint_from_environment(monkeypatch, docker_stub):
    stub = docker_stub()
    monkeypatch.setenv("ORCH_ENGINE_ENDPOINT", stub.endpoint)
    engine = DockerEngine()
    assert engine.endpoint == stub.endpoint
    engine.pull_image("example/algo")
    assert stub.paths() == ["POST /v1.41/images/create"]


# -- one lifecycle for both engines ---------------------------------------------


@pytest.mark.parametrize("outcome", [STATUS_SUCCEEDED, STATUS_NONZERO_EXIT, STATUS_TIMED_OUT, "no_gpu"])
def test_both_engines_report_one_result_per_outcome(tmp_path, docker_stub, monkeypatch, outcome):
    monkeypatch.setattr(runtime, "_WAIT_SLACK_S", 0.2)
    timed_out, exit_code = outcome == STATUS_TIMED_OUT, 7 if outcome == STATUS_NONZERO_EXIT else 0
    spec = make_spec(tmp_path, timeout_seconds=0.05 if timed_out else 5.0, requires_gpu=outcome == "no_gpu")
    (spec.output_dir / "partial.txt").write_text("left by an earlier step")

    def write_outputs(spec):
        (spec.output_dir / "sub").mkdir()
        (spec.output_dir / "sub" / "seg.nii.gz").write_bytes(b"mask")
        (spec.output_dir / "link.nii.gz").symlink_to(tmp_path / "host.nii.gz")

    behavior = MockBehavior(exit_code=exit_code, sleep_s=10.0 if timed_out else 0.0, outputs=(write_outputs,))
    mock = pulled_engine(behavior).run_job(spec)
    stub = docker_stub(wait_status_code=exit_code, wait_delay=0.8 if timed_out else 0.0)
    engine = DockerEngine(endpoint=stub.endpoint)
    engine.pull_image("example/algo")
    docker = engine.run_job(spec)  # the same output directory the mock job wrote to
    fields = ("status", "exit_code", "error", "produced_files")
    assert [getattr(docker, f) for f in fields] == [getattr(mock, f) for f in fields]
    assert mock.status == (STATUS_ENGINE_ERROR if outcome == "no_gpu" else outcome)
    if outcome in (STATUS_SUCCEEDED, STATUS_NONZERO_EXIT):
        assert [p.relative_to(spec.output_dir).as_posix() for p in mock.produced_files] == [
            "link.nii.gz",
            "partial.txt",
            "sub/seg.nii.gz",
        ]
    else:
        assert mock.produced_files == ()


def test_produced_files_list_symlinks_without_following_them(tmp_path):
    def plant(spec):
        (spec.output_dir / "seg.nii.gz").symlink_to(tmp_path / "missing.nii.gz")  # dangling
        (spec.output_dir / "linked_dir").symlink_to(tmp_path, target_is_directory=True)
        (spec.output_dir / "real.txt").write_text("x")
        (spec.output_dir / "empty_dir").mkdir()

    result = pulled_engine(MockBehavior(outputs=(plant,))).run_job(make_spec(tmp_path))
    assert [p.name for p in result.produced_files] == ["linked_dir", "real.txt", "seg.nii.gz"]


# -- streamed, bounded log tail ------------------------------------------------


def reference_excerpt(raw: bytes) -> str:
    """The excerpt of a whole log body decoded in one go: the one-shot
    demultiplexer and the 64 KiB bound, written out independently."""
    if not raw:
        text = ""
    elif raw[0] not in (0, 1, 2) or raw[1:4] != b"\x00\x00\x00":
        text = raw.decode("utf-8", errors="replace")
    else:
        chunks, i = [], 0
        while i + 8 <= len(raw):
            size = int.from_bytes(raw[i + 4 : i + 8], "big")
            chunks.append(raw[i + 8 : i + 8 + size])
            i += 8 + size
        text = b"".join(chunks).decode("utf-8", errors="replace")
    encoded = text.encode("utf-8", errors="replace")
    if len(encoded) <= LOG_EXCERPT_BYTES:
        return text
    return encoded[-LOG_EXCERPT_BYTES:].decode("utf-8", errors="replace")


def bound(text: str) -> str:
    encoded = text.encode("utf-8")
    return text if len(encoded) <= LOG_EXCERPT_BYTES else encoded[-LOG_EXCERPT_BYTES:].decode("utf-8", errors="replace")


def filler(unit: str, size: int) -> bytes:
    """``size`` bytes of a repeated character, cut wherever ``size`` falls."""
    encoded = unit.encode()
    return (encoded * (size // len(encoded) + 1))[:size]


@st.composite
def log_bodies(draw):
    unit = draw(st.sampled_from(["a", "é", "€", "😀"]))
    size = draw(
        st.sampled_from([0, 1, 3, 100])
        | st.integers(LOG_EXCERPT_BYTES - 8, LOG_EXCERPT_BYTES + 16)
        | st.integers(2 * LOG_EXCERPT_BYTES - 4, 2 * LOG_EXCERPT_BYTES + 4)
    )
    payload = draw(st.binary(max_size=6)) + filler(unit, size) + draw(st.binary(max_size=6))
    if draw(st.booleans()):  # a TTY stream (framed after all if it opens like a header)
        return payload
    cuts = sorted(draw(st.lists(st.integers(0, len(payload)), max_size=4)))
    parts = [payload[a:b] for a, b in zip([0, *cuts], [*cuts, len(payload)])]
    raw = b"".join(frame(draw(st.sampled_from([1, 2])), part) for part in parts)
    ending = draw(st.sampled_from(["whole", "cut frame", "cut header"]))
    if ending == "cut frame":
        raw += bytes([1, 0, 0, 0]) + (10).to_bytes(4, "big") + b"cut"
    elif ending == "cut header":
        raw += bytes([2, 0, 0, 0, 0])
    return raw


@settings(max_examples=150, deadline=None)
@given(raw=log_bodies())
def test_streamed_tail_gives_the_excerpt_of_the_whole_log(raw):
    assert bound(runtime._log_tail(io.BytesIO(raw), keep=LOG_EXCERPT_BYTES + 3)) == reference_excerpt(raw)
    assert bound(demux_whole(raw)) == reference_excerpt(raw)


# Bodies the stub serves with a Content-Length and chunked; the engine reads
# each frame's payload in pieces of at most 64 KiB.
_PIECE = 1 << 16
LOG_CASES = {
    "framed streams": frame(1, b"out1 ") + frame(2, b"err1 ") + frame(1, b"out2"),
    "zero-length frame": frame(1, b""),
    "zero-length frame between two": frame(1, b"before ") + frame(2, b"") + frame(1, b"after"),
    "empty": b"",
    "short tty": b"ok",
    "long tty": filler("€", 3 * LOG_EXCERPT_BYTES + 1),
    "header across a piece boundary": frame(1, b"a" * (_PIECE - 12)) + frame(2, "é".encode() * 40_000),
    "cut final frame": frame(1, b"x" * 70_000) + bytes([1, 0, 0, 0]) + (99).to_bytes(4, "big") + b"cut",
    "cut final header": frame(1, b"y" * 70_000) + bytes([1, 0, 0]),
    "emoji split at the cut": frame(1, b"z" * 10 + "😀".encode() + b"w" * (LOG_EXCERPT_BYTES - 2)),
    "stray bytes at the cut": frame(1, b"\xff\x80\xbf" * 30_000 + "😀".encode()[:3]),
    "tty emoji split at the cut": b"q" * 5 + "😀".encode() + b"r" * (LOG_EXCERPT_BYTES - 1),
}


# Chunk sizes for the chunked replies, drawn after five that end at bytes 3,
# 4, 6, 13 and 18: they split both the first and the second frame header of
# "framed streams" (bytes 0-8 and 13-21).
_rng = random.Random(5)
LOG_CHUNKS = (3, 1, 2, 7, 5, *(_rng.randint(1, 9) if _rng.random() < 0.3 else _rng.randint(10, 5000) for _ in range(60)))


def test_docker_log_excerpt_matches_the_whole_log(tmp_path, docker_stub):
    spec = make_spec(tmp_path)
    wrong = []
    for mode, chunks in (("content-length", None), ("chunked", LOG_CHUNKS)):
        stub = docker_stub(log_chunks=chunks)
        engine = DockerEngine(endpoint=stub.endpoint)
        engine.pull_image("example/algo")
        for name, raw in LOG_CASES.items():
            stub.logs_raw = raw
            expected = reference_excerpt(raw)
            if engine.run_job(spec).log_excerpt != expected or bound(demux_whole(raw)) != expected:
                wrong.append((mode, name))
    assert wrong == []


def test_a_64_mib_log_is_read_in_bounded_memory(tmp_path, docker_stub):
    payload = b"0123456789abcdef" * (1 << 16)  # 1 MiB
    raw = b"".join(frame(1 + i % 2, payload) for i in range(63)) + frame(1, payload[:-4] + b"TAIL")
    stub = docker_stub(logs_raw=raw)
    engine = DockerEngine(endpoint=stub.endpoint)
    engine.pull_image("example/algo")
    tracemalloc.start()
    try:
        result = engine.run_job(make_spec(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.log_excerpt == (payload[:-4] + b"TAIL")[-LOG_EXCERPT_BYTES:].decode()
    assert peak < 4 * 1024 * 1024, f"peak {peak / 2**20:.1f} MiB"
