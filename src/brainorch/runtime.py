"""Container execution: one job in, one result out, no leaked containers.

Two engines share one job lifecycle, ``run_job``: a GPU job on an engine
without GPU support fails fast with a distinct result before any container
exists, a semaphore caps concurrent admissions, and the result, its log
bounded to the last 64 KiB, is built in one place. Each engine adds only
its container step:

- :class:`MockEngine` runs scripted behaviors in-process. Tests and offline
  runs use it; durations come from the script, not the wall clock, so
  results are deterministic. A behaviors file is checked when it loads
  (:mod:`brainorch.jsondoc`): input patterns and output paths stay inside
  the job's two directories.
- :class:`DockerEngine` speaks the Docker HTTP API (v1.41+) over a unix
  socket or TCP endpoint, touching only create/start/wait/logs/remove and
  images/create; the endpoint comes from the constructor or the
  ``ORCH_ENGINE_ENDPOINT`` environment variable. It removes its container
  in a ``finally`` block, reads the log frame by frame from the response,
  keeping a bounded tail, and names the daemon's reason for a failed pull.
  Its replies are checked the same way; a wrong one is EngineUnreachable.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import jsondoc
from .errors import (
    DigestMismatch,
    EngineUnreachable,
    ImageNotFound,
    MountFailure,
)
from .nifti import Volume, read_grid, read_volume, write_mask, write_volume
from .registry import DEFAULT_INPUT_MOUNT, DEFAULT_OUTPUT_MOUNT, DEFAULT_SHM_BYTES, DEFAULT_TIMEOUT_S

LOG_EXCERPT_BYTES = 64 * 1024

STATUS_SUCCEEDED = "succeeded"
STATUS_NONZERO_EXIT = "nonzero_exit"
STATUS_TIMED_OUT = "timed_out"
STATUS_ENGINE_ERROR = "engine_error"

_CONTAINER_LABEL = "brainorch.managed"
# Seconds /wait may run past the job's timeout before the client kills it.
_WAIT_SLACK_S = 5.0


@dataclass(frozen=True)
class JobSpec:
    """One containerized run: image, two mounts, env, resources."""

    image_reference: str
    input_dir: Path
    output_dir: Path
    env: dict[str, str] = field(default_factory=dict)
    requires_gpu: bool = False
    shm_bytes: int = DEFAULT_SHM_BYTES
    timeout_seconds: float = DEFAULT_TIMEOUT_S
    container_input_path: str = DEFAULT_INPUT_MOUNT
    container_output_path: str = DEFAULT_OUTPUT_MOUNT

    def __post_init__(self):
        object.__setattr__(self, "input_dir", Path(self.input_dir))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        for name, path in (("input_dir", self.input_dir), ("output_dir", self.output_dir)):
            if not path.is_absolute():
                raise MountFailure(f"{name} must be absolute, got {path}")
            if not path.is_dir():
                raise MountFailure(f"{name} {path} is not an existing directory")
        if not (math.isfinite(self.timeout_seconds) and self.timeout_seconds > 0):
            raise ValueError(f"timeout_seconds must be a finite number > 0, got {self.timeout_seconds}")
        if self.shm_bytes < 0:
            raise ValueError(f"shm_bytes must be >= 0, got {self.shm_bytes}")


@dataclass(frozen=True)
class JobResult:
    """Terminal outcome of one job; the engine never half-reports.

    ``produced_files`` lists the regular files and symlinks (never followed)
    under the job's output directory; it is empty unless the job exited.
    """

    image_reference: str
    status: str
    exit_code: int | None
    duration_seconds: float
    log_excerpt: str
    produced_files: tuple[Path, ...]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCEEDED

    def to_json_dict(self) -> dict:
        return {
            "image_reference": self.image_reference,
            "status": self.status,
            "exit_code": self.exit_code,
            "duration_seconds": self.duration_seconds,
            "error": self.error,
        }


class _Engine:
    """The job lifecycle both engines share. Each engine adds its container
    step, ``_run_container(spec)``: run one admitted job and return its exit
    code (None on timeout), its duration in seconds and its log text."""

    def __init__(self, supports_gpu: bool, max_concurrent_jobs: int):
        if max_concurrent_jobs < 1:
            raise ValueError(f"max_concurrent_jobs must be >= 1, got {max_concurrent_jobs}")
        self.supports_gpu = supports_gpu
        self.max_concurrent_jobs = max_concurrent_jobs
        self._admission = threading.Semaphore(max_concurrent_jobs)

    def run_job(self, spec: JobSpec) -> JobResult:
        """Run one job. See the module docstring for guarantees."""
        exit_code, duration, log, produced = None, 0.0, "", ()
        if spec.requires_gpu and not self.supports_gpu:
            status, error = STATUS_ENGINE_ERROR, "job requires a GPU but the engine has no GPU support"
        else:
            with self._admission:
                exit_code, duration, log = self._run_container(spec)
            if exit_code is None:
                status, error = STATUS_TIMED_OUT, f"timed out after {spec.timeout_seconds}s"
            else:
                status = STATUS_SUCCEEDED if exit_code == 0 else STATUS_NONZERO_EXIT
                error = None if exit_code == 0 else f"exit code {exit_code}"
                produced = tuple(
                    sorted(p for p in spec.output_dir.rglob("*") if p.is_symlink() or p.is_file())
                )
        raw = log.encode("utf-8", errors="replace")  # the log is bounded to its last 64 KiB
        if len(raw) > LOG_EXCERPT_BYTES:
            log = raw[-LOG_EXCERPT_BYTES:].decode("utf-8", errors="replace")
        return JobResult(
            image_reference=spec.image_reference,
            status=status,
            exit_code=exit_code,
            duration_seconds=float(duration),
            log_excerpt=log,
            produced_files=produced,
            error=error,
        )


def _split_image_reference(ref: str) -> tuple[str, str | None]:
    """Split ``repo[:tag][@sha256:digest]`` into (name, digest-or-None)."""
    if "@" in ref:
        name, _, digest = ref.partition("@")
        return name, digest
    return ref, None


# --- mock engine ----------------------------------------------------------


def _glob_one(base: Path, pattern: str) -> Path:
    matches = sorted(base.rglob(pattern)) if "*" in pattern or "?" in pattern else [base / pattern]
    matches = [m for m in matches if m.is_file()]
    if not matches:
        raise FileNotFoundError(f"no file matching {pattern!r} under {base}")
    return matches[0]


def _generate_copy_input(spec: JobSpec, out_path: Path, script: dict) -> None:
    src = _glob_one(spec.input_dir, script["source"])
    out_path.write_bytes(src.read_bytes())


def _generate_write_text(spec: JobSpec, out_path: Path, script: dict) -> None:
    out_path.write_text(script.get("text", ""))


def _generate_label_blobs(spec: JobSpec, out_path: Path, script: dict) -> None:
    """Paint spheres of label codes onto the grid of a reference input.

    Blob order matters: later blobs overwrite earlier ones where they
    overlap. Squared distances are summed over the axes in order from
    per-axis ranges, so no full-grid index array is built.
    """
    shape, affine = read_grid(_glob_one(spec.input_dir, script["like"]))
    data = np.zeros(shape, dtype=np.uint8)
    i, j, k = np.ogrid[tuple(slice(0, n) for n in shape)]
    for blob in script["blobs"]:
        ci, cj, ck = np.asarray(blob["center"], dtype=np.float64)
        radius = float(blob["radius"])
        inside = (i - ci) ** 2 + (j - cj) ** 2 + (k - ck) ** 2 <= radius * radius
        data[inside] = int(blob["label"])
    write_mask(Volume(data=data, affine=affine), out_path)


def _generate_mean_fill(spec: JobSpec, out_path: Path, script: dict) -> None:
    """Inpainting stub: replace masked voxels with the unmasked mean."""
    image = read_volume(_glob_one(spec.input_dir, script["image"]))
    mask = read_volume(_glob_one(spec.input_dir, script["mask"]))
    data = image.data.astype(np.float64, copy=True)
    hole = mask.data != 0
    fill = float(data[~hole].mean()) if (~hole).any() else 0.0
    data[hole] = fill
    write_volume(Volume(data=data, affine=image.affine), out_path, dtype=np.float32)


_GENERATORS = {
    "copy_input": _generate_copy_input,
    "write_text": _generate_write_text,
    "label_blobs": _generate_label_blobs,
    "mean_fill": _generate_mean_fill,
}


@dataclass(frozen=True)
class MockBehavior:
    """Scripted outcome for one image reference.

    ``outputs`` entries are generator dicts (``{"path": ..., "generator":
    ..., ...}``) or callables taking ``(spec)``. ``content_digest`` is what
    the fake registry would serve; pulls pinned to a different digest raise.
    """

    content_digest: str | None = None
    exit_code: int = 0
    sleep_s: float = 0.0
    stdout: str = ""
    stderr: str = ""
    outputs: tuple = ()
    fail_engine: bool = False


def _stays_inside(path) -> bool:
    """Whether ``path`` joined to a directory names a file inside it: a
    string, relative, with at least one part and no '..' part."""
    parts = Path(path).parts if isinstance(path, str) else ()
    return bool(parts) and not Path(path).is_absolute() and ".." not in parts


_PATTERN = jsondoc.must("a string pattern relative to the job's input directory, with no '..' part", _stays_inside)
_BLOB = jsondoc.obj({
    "label": jsondoc.must("an integer from 0 to 255", lambda v: jsondoc.is_int(v) and 0 <= v <= 255),
    "center": jsondoc.must("an array of 3 numbers", lambda v: jsondoc.is_numbers(v, 3)),
    "radius": jsondoc.must("a number", jsondoc.is_finite),
})
_OUTPUT = {
    "generator": jsondoc.STRING,
    "path": jsondoc.must("a relative path inside the job's output directory, with no '..' part", _stays_inside),
}
# Each generator's outputs: 'generator', 'path' and the generator's own keys.
_OUTPUTS = {
    "copy_input": jsondoc.obj({**_OUTPUT, "source": _PATTERN}),
    "label_blobs": jsondoc.obj({**_OUTPUT, "like": _PATTERN, "blobs": jsondoc.array(_BLOB)}),
    "mean_fill": jsondoc.obj({**_OUTPUT, "image": _PATTERN, "mask": _PATTERN}),
    "write_text": jsondoc.obj(_OUTPUT, {"text": jsondoc.STRING}),
}
_GENERATOR = jsondoc.obj(
    {"generator": jsondoc.must(f"one of {sorted(_OUTPUTS)}", lambda v: isinstance(v, str) and v in _OUTPUTS)}, open=True
)
# Each image of a behaviors file. Not coerced: a string of outputs iterates by character.
_BEHAVIOR = jsondoc.obj({}, {
    "content_digest": jsondoc.must("a string or null", lambda v: v is None or isinstance(v, str)),
    "exit_code": jsondoc.INTEGER,
    "sleep_s": jsondoc.must("a finite number >= 0", lambda v: jsondoc.is_finite(v) and v >= 0),
    "stdout": jsondoc.STRING,
    "stderr": jsondoc.STRING,
    "outputs": jsondoc.array(lambda output: _GENERATOR(output) or _OUTPUTS[output["generator"]](output)),
})
_BEHAVIORS_FILE = jsondoc.obj({"schema_version": jsondoc.SCHEMA_1, "images": jsondoc.OBJECT}, open=True)


def load_behaviors(path: str | Path) -> dict[str, MockBehavior]:
    """Load a behavior table from JSON (keyed by image name, digest-free).

    A bad or unknown field, or an input pattern or output path that leaves
    the job's directories, raises ``ValueError`` naming the file, the image
    and the key, before any job runs; an unreadable file ``IoFailure``.
    """
    behaviors: dict[str, MockBehavior] = {}
    for name, raw in jsondoc.load(path, ValueError, _BEHAVIORS_FILE)["images"].items():
        if (problem := _BEHAVIOR(raw)) is not None:
            raise ValueError(f"{path}: image {name!r}: {problem}")
        behaviors[name] = MockBehavior(**{**raw, "outputs": tuple(raw.get("outputs", ()))})
    return behaviors


class MockEngine(_Engine):
    """In-process engine driven by a behavior table.

    Instrumentation counters (created, removed, live, peak concurrency) let
    tests assert resource hygiene without racing the scheduler.
    """

    def __init__(self, supports_gpu: bool = False, max_concurrent_jobs: int = 1):
        super().__init__(supports_gpu, max_concurrent_jobs)
        self._behaviors: dict[str, MockBehavior] = {}
        self._pulled: set[str] = set()
        self._lock = threading.Lock()
        self.containers_created = 0
        self.containers_removed = 0
        self.live_containers = 0
        self.max_concurrent_observed = 0

    @classmethod
    def from_behaviors_file(
        cls, path: str | Path, supports_gpu: bool = False, max_concurrent_jobs: int = 1
    ) -> "MockEngine":
        engine = cls(supports_gpu=supports_gpu, max_concurrent_jobs=max_concurrent_jobs)
        for name, behavior in load_behaviors(path).items():
            engine.register(name, behavior)
        return engine

    def register(self, image_name: str, behavior: MockBehavior) -> None:
        """Register a behavior under a digest-free image name."""
        name, digest = _split_image_reference(image_name)
        if digest is not None:
            raise ValueError(f"register by name without digest, got {image_name!r}")
        self._behaviors[name] = behavior

    @property
    def pulled(self) -> frozenset[str]:
        return frozenset(self._pulled)

    def pull_image(self, image_reference: str) -> None:
        """Make an image available; idempotent; digest-pinned pulls verify."""
        name, digest = _split_image_reference(image_reference)
        behavior = self._behaviors.get(name)
        if behavior is None:
            raise ImageNotFound(f"no such image {image_reference!r}")
        if digest is not None and behavior.content_digest is not None:
            if digest != behavior.content_digest:
                raise DigestMismatch(
                    f"image {name!r} content is {behavior.content_digest}, "
                    f"reference pins {digest}"
                )
        self._pulled.add(image_reference)

    def _run_container(self, spec: JobSpec) -> tuple[int | None, float, str]:
        """Play the scripted behavior; its durations are scripted, not
        measured, which keeps bundles byte-stable."""
        if spec.image_reference not in self._pulled:
            raise ImageNotFound(f"image {spec.image_reference!r} was not pulled")
        name, _ = _split_image_reference(spec.image_reference)
        behavior = self._behaviors[name]
        log = behavior.stdout + behavior.stderr
        with self._lock:
            self.containers_created += 1
            self.live_containers += 1
            self.max_concurrent_observed = max(self.max_concurrent_observed, self.live_containers)
        try:
            if behavior.fail_engine:
                raise EngineUnreachable(f"engine crashed while running {name!r} (scripted)")
            if behavior.sleep_s >= spec.timeout_seconds:
                time.sleep(spec.timeout_seconds)
                return None, spec.timeout_seconds, log
            if behavior.sleep_s:
                time.sleep(behavior.sleep_s)
            for script in behavior.outputs:
                if callable(script):
                    script(spec)
                    continue
                out_path = spec.output_dir / script["path"]
                out_path.parent.mkdir(parents=True, exist_ok=True)
                _GENERATORS[script["generator"]](spec, out_path, script)
            return behavior.exit_code, behavior.sleep_s, log
        finally:
            with self._lock:
                self.live_containers -= 1
                self.containers_removed += 1


# --- docker engine --------------------------------------------------------


class _UnixHTTPConnection(http.client.HTTPConnection):
    def __init__(self, socket_path: str, timeout: float):
        super().__init__("localhost", timeout=timeout)
        self._socket_path = socket_path

    def connect(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self._socket_path)
        self.sock = sock


def _log_tail(response, keep: int) -> str:
    """The last ``keep`` bytes the container wrote, pulled from Docker's log
    stream frame by frame: ``response.read(n)`` gives n bytes until the end.

    A stream that does not open with a frame header (stream byte 0, 1 or 2,
    three zero bytes, u32 size) is a TTY stream: one endless frame. A cut
    final frame keeps what arrived, a cut final header is dropped.
    """
    tail = bytearray()

    def copy(due: float) -> None:
        while due and (piece := response.read(int(min(due, 1 << 16)))):
            tail.extend(piece)
            due -= len(piece)
            if len(tail) > 2 * keep:  # trimmed in batches: each byte moves about once
                del tail[:-keep]

    header = response.read(8)
    # Fewer than four bytes never make a frame header: a TTY stream.
    if len(header) < 4 or header[0] not in (0, 1, 2) or header[1:4] != b"\x00\x00\x00":
        tail.extend(header)
        copy(math.inf)
    else:
        while len(header) == 8:
            copy(int.from_bytes(header[4:], "big"))
            header = response.read(8)
    return tail[max(len(tail) - keep, 0) :].decode("utf-8", errors="replace")


def _pull_reply(response) -> str:
    """An error reply's body, or the last ``error`` a pull's JSON progress
    stream reports ("" if none), read one line at a time."""
    if response.status >= 400:
        return response.read().decode("utf-8", errors="replace")
    error = ""
    for line in response:
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and doc.get("error"):
            error = str(doc["error"])
    return error


# What the daemon's replies must hold; any other reply is an EngineUnreachable.
_CREATE_REPLY = jsondoc.obj({"Id": jsondoc.STRING}, open=True)
_WAIT_REPLY = jsondoc.obj({"StatusCode": jsondoc.INTEGER}, open=True)
_INSPECT_REPLY = jsondoc.obj({}, {"RepoDigests": lambda v: None if v is None else jsondoc.STRINGS(v)}, open=True)

ENGINE_ENDPOINT_ENV = "ORCH_ENGINE_ENDPOINT"
DEFAULT_ENGINE_ENDPOINT = "unix:///var/run/docker.sock"
_API = "/v1.41"


class DockerEngine(_Engine):
    """Minimal Docker HTTP API client: pull, create, start, wait, logs,
    remove. Nothing else, so the whole surface stays mockable."""

    def __init__(
        self,
        endpoint: str | None = None,
        max_concurrent_jobs: int = 1,
        supports_gpu: bool = False,
        connect_timeout: float = 10.0,
    ):
        super().__init__(supports_gpu, max_concurrent_jobs)
        self.endpoint = endpoint or os.environ.get(ENGINE_ENDPOINT_ENV) or DEFAULT_ENGINE_ENDPOINT
        self._connect_timeout = connect_timeout

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        url = urllib.parse.urlparse(self.endpoint)
        if url.scheme == "unix":
            return _UnixHTTPConnection(url.path, timeout)
        if url.scheme in ("http", "tcp"):
            return http.client.HTTPConnection(url.hostname, url.port or 2375, timeout=timeout)
        raise EngineUnreachable(f"unsupported engine endpoint {self.endpoint!r}")

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        read_timeout: float | None = None,
        timeout_ok: bool = False,
        read=http.client.HTTPResponse.read,
    ) -> tuple[int | None, object]:
        """The response's status and ``read(response)``, by default its
        body, or ``(None, b"")`` on a read timeout with ``timeout_ok``."""
        timeout = read_timeout if read_timeout is not None else self._connect_timeout
        conn = self._connection(timeout)
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            conn.request(method, _API + path, body=payload, headers=headers)
            response = conn.getresponse()
            result = read(response)
            if response.length:  # the body was cut short
                raise http.client.IncompleteRead(b"", response.length)
            return response.status, result
        except socket.timeout as exc:
            if timeout_ok:
                return None, b""
            raise EngineUnreachable(f"engine timed out on {method} {path}: {exc}") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise EngineUnreachable(f"cannot reach engine at {self.endpoint}: {exc}") from exc
        finally:
            conn.close()

    def pull_image(self, image_reference: str) -> None:
        """Pull and, for digest-pinned references, verify the digest."""
        quoted = urllib.parse.quote(image_reference, safe="")
        status, text = self._request("POST", f"/images/create?fromImage={quoted}", read_timeout=600, read=_pull_reply)
        reason = text.lower()  # a 2xx reply's text is the error its progress stream reported
        if status == 404 or (status < 400 and text) or "no such image" in reason or "manifest unknown" in reason:
            raise ImageNotFound(f"registry cannot provide {image_reference!r}: {text[:200]}")
        if status >= 400:
            raise EngineUnreachable(f"pull failed with HTTP {status}: {text[:200]}")
        name, digest = _split_image_reference(image_reference)
        if digest is not None:
            status, body = self._request("GET", f"/images/{quoted}/json")
            if status == 404:
                raise ImageNotFound(f"image {image_reference!r} absent after pull")
            if status >= 400:
                raise EngineUnreachable(f"image inspect failed with HTTP {status}")
            info = jsondoc.parse(body, "image inspect reply", EngineUnreachable, _INSPECT_REPLY)
            repo_digests = info.get("RepoDigests") or []
            if not any(d.endswith("@" + digest) for d in repo_digests):
                raise DigestMismatch(
                    f"pulled {name!r} does not carry digest {digest} "
                    f"(engine reports {repo_digests})"
                )

    def _create_container(self, spec: JobSpec) -> str:
        host_config: dict = {
            "Binds": [
                f"{spec.input_dir}:{spec.container_input_path}:ro",
                f"{spec.output_dir}:{spec.container_output_path}:rw",
            ],
            "ShmSize": spec.shm_bytes,
        }
        if spec.requires_gpu:
            host_config["DeviceRequests"] = [
                {"Driver": "nvidia", "Count": -1, "Capabilities": [["gpu"]]}
            ]
        body = {
            "Image": spec.image_reference,
            "Env": [f"{k}={v}" for k, v in sorted(spec.env.items())],
            "Labels": {_CONTAINER_LABEL: "1"},
            "HostConfig": host_config,
        }
        status, payload = self._request("POST", "/containers/create", body=body)
        if status == 404:
            raise ImageNotFound(f"engine has no image {spec.image_reference!r}")
        if status not in (200, 201):
            raise EngineUnreachable(
                f"container create failed with HTTP {status}: {payload[:200]!r}"
            )
        return jsondoc.parse(payload, "container create reply", EngineUnreachable, _CREATE_REPLY)["Id"]

    def _best_effort(self, method: str, path: str) -> None:
        try:
            self._request(method, path)
        except EngineUnreachable:
            # Kill and removal are best-effort on an engine that just vanished.
            pass

    def _run_container(self, spec: JobSpec) -> tuple[int | None, float, str]:
        """Create, start, wait (bounded), kill on timeout, log, always remove."""
        started = time.monotonic()
        container_id = self._create_container(spec)
        try:
            status, payload = self._request("POST", f"/containers/{container_id}/start")
            if status not in (204, 304):
                raise EngineUnreachable(
                    f"container start failed with HTTP {status}: {payload[:200]!r}"
                )
            status, payload = self._request(
                "POST",
                f"/containers/{container_id}/wait",
                read_timeout=spec.timeout_seconds + _WAIT_SLACK_S,
                timeout_ok=True,
            )
            exit_code = None
            if status is None:  # the job outlived its timeout
                self._best_effort("POST", f"/containers/{container_id}/kill")
            elif status != 200:
                raise EngineUnreachable(f"container wait failed with HTTP {status}")
            else:
                exit_code = jsondoc.parse(payload, "container wait reply", EngineUnreachable, _WAIT_REPLY)["StatusCode"]
            # A tail 3 bytes longer than the excerpt gives the excerpt of the
            # whole log: UTF-8 decoding resynchronizes within 3 bytes, and no
            # byte re-encodes to fewer than one.
            try:
                path = f"/containers/{container_id}/logs?stdout=1&stderr=1"
                status, logs = self._request("GET", path, read=lambda r: _log_tail(r, LOG_EXCERPT_BYTES + 3))
                if status >= 400:
                    logs = f"<logs unavailable: HTTP {status}>"
            except EngineUnreachable as exc:
                logs = f"<logs unavailable: {exc}>"
            return exit_code, time.monotonic() - started, logs
        finally:
            self._best_effort("DELETE", f"/containers/{container_id}?force=1&v=1")
