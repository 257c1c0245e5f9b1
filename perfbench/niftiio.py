"""Minimal single-file NIfTI-1 writer and reader for the benchmark.

The benchmark writes its inputs and the mock containers' outputs, and reads
back the published bundle for its checks, without going through
``brainorch.nifti``: a change to the program's codec must neither change the
inputs it is measured on nor grade its own outputs.

Only what the benchmark needs is supported: 3-D volumes, little-endian,
sform affines, uint8 / int16 / float32 voxels, optional gzip with a zeroed
mtime so identical arrays give identical files.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

HEADER_SIZE = 348
VOX_OFFSET = 352
_CODES = {np.dtype(np.uint8): 2, np.dtype(np.int16): 4, np.dtype(np.float32): 16}
_DTYPES = {code: dtype for dtype, code in _CODES.items()}


def write(path: Path, data: np.ndarray, affine: np.ndarray, level: int = 6) -> Path:
    """Write ``data`` on the grid ``affine``; gzip iff the name ends in ``.gz``."""
    dtype = np.dtype(data.dtype)
    code = _CODES[dtype]
    header = bytearray(VOX_OFFSET)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into("<hh", header, 70, code, dtype.itemsize * 8)
    spacing = np.sqrt((np.asarray(affine)[:3, :3] ** 2).sum(axis=0))
    struct.pack_into("<8f", header, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<fff", header, 108, float(VOX_OFFSET), 1.0, 0.0)  # offset, slope, inter
    header[123] = 2  # xyzt_units: mm
    struct.pack_into("<hh", header, 252, 0, 1)  # qform_code 0, sform_code 1
    for row in range(3):
        struct.pack_into("<4f", header, 280 + 16 * row, *np.asarray(affine)[row])
    header[344:348] = b"n+1\x00"
    blob = bytes(header) + data.astype(dtype.newbyteorder("<"), copy=False).tobytes(order="F")
    if path.name.endswith(".gz"):
        blob = gzip.compress(blob, compresslevel=level, mtime=0)
    path.write_bytes(blob)
    return path


def _header(blob: bytes, path: Path) -> tuple[tuple[int, ...], np.dtype, int, np.ndarray]:
    if struct.unpack_from("<i", blob, 0)[0] != HEADER_SIZE:
        raise ValueError(f"{path}: not a little-endian NIfTI-1 file")
    dim = struct.unpack_from("<8h", blob, 40)
    shape = tuple(dim[1 : dim[0] + 1])
    dtype = _DTYPES[struct.unpack_from("<h", blob, 70)[0]].newbyteorder("<")
    offset = int(struct.unpack_from("<f", blob, 108)[0])
    affine = np.eye(4)
    for row in range(3):
        affine[row] = struct.unpack_from("<4f", blob, 280 + 16 * row)
    return shape, dtype, offset, affine


def read_header(path: Path) -> tuple[tuple[int, ...], np.dtype, np.ndarray]:
    """``(shape, dtype, affine)``, decompressing no more than the header."""
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        stream = gzip.GzipFile(fileobj=fh) if head == b"\x1f\x8b" else fh
        shape, dtype, _, affine = _header(stream.read(HEADER_SIZE), path)
    return shape, dtype, affine


def read(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """``(data, affine)`` of a little-endian NIfTI-1 file with an sform."""
    blob = path.read_bytes()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    shape, dtype, offset, affine = _header(blob, path)
    data = np.frombuffer(blob, dtype=dtype, count=int(np.prod(shape)), offset=offset).reshape(shape, order="F")
    return data, affine
