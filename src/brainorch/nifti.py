"""Single-file NIfTI-1 volume reading and writing.

Supports ``.nii`` and ``.nii.gz`` files holding 3-D volumes in the five
datatypes used by the pipeline (uint8, int16, int32, float32, float64).
Little- and big-endian files are detected automatically via ``sizeof_hdr``:
a native read yields 348, a byte-swapped one yields 1543569408.

A read volume is its voxels and its affine: the reader skips the extension
block and keeps no header. Every write gets a fresh little-endian header
with ``vox_offset`` 352, an empty extension block and the affine as sform.

Both readers make one pass over one stream, at most 1 MiB at a time: a
gzip envelope (found by magic bytes, not by extension) inflated by
:func:`_inflated` from 64 KiB reads into pieces of at most 256 KiB, any
other file as it is. The header is parsed first; the extension block is
skipped with one seek; the payload goes straight into its array; the rest
of a gzip stream is inflated and counted, so every member's CRC is checked.
Where the system has libdeflate (loaded through ctypes at the first gzip
read, not at import), :func:`read_volume` first hands a canonical one-member
file (see :func:`_inflate_whole`) to one libdeflate gzip call, which checks the
member's CRC-32 and ISIZE and inflates it into one buffer whose payload it
returns as a view; any other file, and a failed call, goes as above.
Before anything is allocated, one parse checks the header in this order:
its fields, ``vox_offset`` at least 352, the declared payload at most
``MAX_PAYLOAD_BYTES``, then the affine (sform, else qform, else pixdim)
through :func:`checked_affine`. Then ``vox_offset`` plus the payload must
fit in what the file can decode to: its size, or 1032 times it for gzip
(deflate's ceiling). Every error names the file. :func:`read_grid` keeps no
voxels; of an uncompressed file it reads only the header.

The writer mirrors the readers: it opens the target once (through one
:class:`gzip.GzipFile` when the name ends in ``.gz``) and writes the header,
the empty extension block, then the payload in Fortran order, one last-axis
plane at a time, each plane checked and converted to the stored dtype and
byte order as it goes, so no full-size copy of the payload is made. The
planes come from a finished volume or, as a warp fills them, from any
iterable; a write that fails removes its partial file. The gzip header carries
no file name (``filename=""``; given a named file object, GzipFile would
store its name) and a zeroed mtime, so identical volumes produce identical
files whatever they are called.
"""

from __future__ import annotations

import ctypes
import functools
import gzip
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    IoFailure,
    MalformedHeader,
    TruncatedData,
    UnrepresentableData,
    UnsupportedDatatype,
)

HEADER_SIZE = 348
# Single-file layout: header + 4-byte extender is the minimum data offset.
MIN_VOX_OFFSET = 352
GZIP_MAGIC = b"\x1f\x8b"
_NIFTI2_SIZEOF_HDR = 540
# File-name suffixes of a NIfTI file, the longer first.
NIFTI_SUFFIXES = (".nii.gz", ".nii")

# NIfTI-1 header, in field order. Numpy keeps structured dtypes packed, so
# the offsets land exactly on the layout published with the format (dim at
# byte 40, datatype at 70, pixdim at 76, vox_offset at 108, srow_x at 280,
# magic at 344).
_HEADER_FIELDS = [
    ("sizeof_hdr", "i4"),
    ("data_type", "S10"),
    ("db_name", "S18"),
    ("extents", "i4"),
    ("session_error", "i2"),
    ("regular", "S1"),
    ("dim_info", "u1"),
    ("dim", "i2", (8,)),
    ("intent_p1", "f4"),
    ("intent_p2", "f4"),
    ("intent_p3", "f4"),
    ("intent_code", "i2"),
    ("datatype", "i2"),
    ("bitpix", "i2"),
    ("slice_start", "i2"),
    ("pixdim", "f4", (8,)),
    ("vox_offset", "f4"),
    ("scl_slope", "f4"),
    ("scl_inter", "f4"),
    ("slice_end", "i2"),
    ("slice_code", "u1"),
    ("xyzt_units", "u1"),
    ("cal_max", "f4"),
    ("cal_min", "f4"),
    ("slice_duration", "f4"),
    ("toffset", "f4"),
    ("glmax", "i4"),
    ("glmin", "i4"),
    ("descrip", "S80"),
    ("aux_file", "S24"),
    ("qform_code", "i2"),
    ("sform_code", "i2"),
    ("quatern_b", "f4"),
    ("quatern_c", "f4"),
    ("quatern_d", "f4"),
    ("qoffset_x", "f4"),
    ("qoffset_y", "f4"),
    ("qoffset_z", "f4"),
    ("srow_x", "f4", (4,)),
    ("srow_y", "f4", (4,)),
    ("srow_z", "f4", (4,)),
    ("intent_name", "S16"),
    ("magic", "S4"),
]

DT_UINT8 = 2
DT_INT16 = 4
DT_INT32 = 8
DT_FLOAT32 = 16
DT_FLOAT64 = 64

SUPPORTED_DATATYPES = {
    DT_UINT8: np.uint8,
    DT_INT16: np.int16,
    DT_INT32: np.int32,
    DT_FLOAT32: np.float32,
    DT_FLOAT64: np.float64,
}
_DTYPE_TO_CODE = {np.dtype(v): k for k, v in SUPPORTED_DATATYPES.items()}

# numpy S-fields strip trailing nulls on read and pad on write, so the
# stripped forms compare and store correctly ("n+1\0" on disk).
MAGIC_SINGLE = b"n+1"
MAGIC_PAIR = b"ni1"


def _header_dtype(byte_order: str) -> np.dtype:
    dt = np.dtype(_HEADER_FIELDS)
    assert dt.itemsize == HEADER_SIZE
    return dt.newbyteorder(byte_order)


def checked_affine(matrix, what: str, malformed: type, singular: type) -> np.ndarray:
    """A float64 copy of ``matrix`` if it is a voxel-to-world affine.

    The rule: 4x4, every entry finite, bottom row (0,0,0,1) within 1e-9
    (stored exactly), and an invertible upper-left 3x3. ``what`` opens each
    message; a wrong shape, a non-finite entry or a wrong bottom row raises
    ``malformed``, a singular part ``singular``.
    """
    affine = np.array(matrix, dtype=np.float64, copy=True)
    if affine.shape != (4, 4):
        raise malformed(f"{what} must be 4x4, got {affine.shape}")
    if not np.isfinite(affine).all():
        raise malformed(f"{what} must be finite, got {affine.tolist()}")
    if not np.allclose(affine[3], (0.0, 0.0, 0.0, 1.0), atol=1e-9):
        raise malformed(f"{what} bottom row must be (0,0,0,1), got {affine[3].tolist()}")
    affine[3] = (0.0, 0.0, 0.0, 1.0)
    if abs(np.linalg.det(affine[:3, :3])) <= 1e-12:
        raise singular(f"{what} linear part is singular (not invertible)")
    return affine


@dataclass(frozen=True, eq=False)
class Volume:
    """A 3-D array bound to a voxel-to-world affine.

    Treat instances as immutable after construction: build a new volume
    instead of mutating ``data`` in place. Volumes compare by identity.
    """

    data: np.ndarray
    affine: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ValueError(f"volume data must be 3-D, got shape {data.shape}")
        affine = checked_affine(self.affine, "affine", ValueError, ValueError)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "affine", affine)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(int(n) for n in self.data.shape)  # type: ignore[return-value]

    @property
    def spacing(self) -> np.ndarray:
        """Voxel spacing in mm, derived from the affine column norms."""
        return np.sqrt((self.affine[:3, :3] ** 2).sum(axis=0))


# Largest piece a read fills at once; the gzip reader's file reads and inflated pieces.
_CHUNK, _GZIP_READ, _GZIP_PIECE = 1 << 20, 1 << 16, 1 << 18
# Deflate's ceiling: no gzip file decodes to more than this many times its
# own size (1028.7 measured for a stream of zeros).
_GZIP_MAX_RATIO = 1032
# Largest voxel payload a read allocates.
MAX_PAYLOAD_BYTES = 1 << 31


def nifti_suffix(path: str | Path) -> str:
    """The suffix of :data:`NIFTI_SUFFIXES` that ends ``path``'s name, or
    "" when none does."""
    name = Path(path).name
    return next((suffix for suffix in NIFTI_SUFFIXES if name.endswith(suffix)), "")


def _fill(stream, buf) -> int:
    """Read ``stream`` into ``buf`` until it is full or the stream ends, at
    most ``_CHUNK`` bytes at a time; the number of bytes read."""
    view = memoryview(buf).cast("B")
    got = 0
    while got < len(view) and (n := stream.readinto(view[got : got + _CHUNK])):
        got += n
    return got


def _inflated(f):
    """Yield the inflated bytes of every gzip member of binary file ``f`` in
    non-empty pieces: of at most 8 KiB until the NIfTI header is out, as from
    ``gzip.GzipFile``'s buffer, then of at most _GZIP_PIECE. Like Python's ``gzip``
    reader, it skips optional header fields, ignores reserved flag bits and the
    header CRC, checks each member's CRC-32 and ISIZE and skips NUL padding."""
    data, out = b"", 0  # data: read from the file, not yet parsed or inflated

    def exact(n: int) -> bytes:
        nonlocal data
        while len(data) < n:
            if not (more := f.read(_GZIP_READ)):
                raise EOFError("Compressed file ended before the end-of-stream marker was reached")
            data += more
        got, data = data[:n], data[n:]
        return got

    while True:
        while len(data := data.lstrip(b"\0")) < 2 and (more := f.read(_GZIP_READ)):
            data += more
        if not data:
            return
        if data[:2] != GZIP_MAGIC:
            raise OSError(f"Not a gzipped file ({data[:2]!r})")
        method, flags = exact(10)[2:4]
        if method != 8:
            raise OSError("Unknown compression method")
        if flags & 4:  # FEXTRA (FLG bits: RFC 1952, 2.3.1)
            exact(int.from_bytes(exact(2), "little"))
        for _ in range(bool(flags & 8) + bool(flags & 16)):  # FNAME, FCOMMENT: NUL-ended, or the rest of the file
            while (end := data.find(b"\0")) < 0 and (more := f.read(_GZIP_READ)):
                data = more
            data = data[end + 1 :] if end >= 0 else b""
        if flags & 2:  # FHCRC
            exact(2)
        inflate, crc, size = zlib.decompressobj(-zlib.MAX_WBITS), 0, 0
        while not inflate.eof:
            if not data and not (data := f.read(_GZIP_READ)):
                raise EOFError("Compressed file ended before the end-of-stream marker was reached")
            piece = inflate.decompress(data, _GZIP_PIECE if out >= HEADER_SIZE else 8192)
            data = inflate.unused_data if inflate.eof else inflate.unconsumed_tail
            if piece:
                crc, size, out = zlib.crc32(piece, crc), size + len(piece), out + len(piece)
                yield piece
        stored_crc, stored_size = (int(n) for n in np.frombuffer(exact(8), "<u4"))
        if stored_crc != crc:
            raise OSError(f"CRC check failed {hex(stored_crc)} != {hex(crc)}")
        if stored_size != size & 0xFFFFFFFF:
            raise OSError("Incorrect length of data produced")


class _GzipStream:
    """``readinto`` and a forward ``seek`` over the pieces of :func:`_inflated`."""

    def __init__(self, f):
        self._pieces, self._piece, self._pos = _inflated(f), memoryview(b""), 0

    def readinto(self, view) -> int:
        if not self._piece:
            self._piece = memoryview(next(self._pieces, b""))
        n = min(len(view), len(self._piece))
        view[:n], self._piece = self._piece[:n], self._piece[n:]
        self._pos += n
        return n

    def seek(self, offset: int) -> int:
        while self._pos < offset and self.readinto(bytearray(min(offset - self._pos, _GZIP_PIECE))):
            pass
        return self._pos


class _Header(NamedTuple):
    """What a read takes from a checked header. ``dtype`` is the payload's,
    in the file's byte order."""

    shape: tuple[int, int, int]
    dtype: np.dtype
    vox_offset: int
    slope: float
    inter: float
    affine: np.ndarray


def _header_affine(h: np.void, path: Path) -> np.ndarray:
    """The voxel-to-world matrix header record ``h`` declares: sform wins,
    then qform, then pixdim."""
    out = np.eye(4, dtype=np.float64)
    if h["sform_code"] > 0:
        for i, row in enumerate(("srow_x", "srow_y", "srow_z")):
            out[i, :] = np.asarray(h[row], dtype=np.float64)
        return out
    pd = np.asarray(h["pixdim"], dtype=np.float64)
    if h["qform_code"] <= 0:
        out[0, 0], out[1, 1], out[2, 2] = pd[1], pd[2], pd[3]
        return out
    b, c, d = float(h["quatern_b"]), float(h["quatern_c"]), float(h["quatern_d"])
    # a is recoverable because the stored quaternion has a >= 0.
    a_sq = 1.0 - (b * b + c * c + d * d)
    a = np.sqrt(a_sq) if a_sq > 0 else 0.0
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ],
        dtype=np.float64,
    )
    qfac = 1.0 if pd[0] == 0.0 else pd[0]
    if qfac not in (-1.0, 1.0):
        raise MalformedHeader(f"{path}: qform pixdim[0] must be -1, 0 or 1, got {pd[0]}")
    out[:3, :3] = rot @ np.diag([pd[1], pd[2], pd[3] * qfac])
    out[:3, 3] = float(h["qoffset_x"]), float(h["qoffset_y"]), float(h["qoffset_z"])
    return out


def _parse_header(blob: bytes, path: Path) -> _Header:
    """The checked header whose bytes are ``blob``: its ``HEADER_SIZE``
    bytes, or every byte of a shorter file. Checks run in this order: the
    header fields, the ``vox_offset`` minimum, the payload ceiling, the
    affine."""
    if len(blob) < HEADER_SIZE:
        raise MalformedHeader(f"{path}: file holds {len(blob)} bytes, header needs {HEADER_SIZE}")
    size_le = int.from_bytes(blob[:4], "little", signed=True)
    size_be = int.from_bytes(blob[:4], "big", signed=True)
    if size_le == HEADER_SIZE:
        order = "<"
    elif size_be == HEADER_SIZE:
        order = ">"
    elif _NIFTI2_SIZEOF_HDR in (size_le, size_be):
        raise UnsupportedDatatype(f"{path}: NIfTI-2 file (sizeof_hdr 540); only NIfTI-1 is supported")
    else:
        raise MalformedHeader(f"{path}: sizeof_hdr is {size_le}, expected {HEADER_SIZE}")
    h = np.frombuffer(blob, dtype=_header_dtype(order), count=1)[0]

    magic = bytes(h["magic"])
    if magic == MAGIC_PAIR:
        raise MalformedHeader(f"{path}: header/data pair (.hdr/.img) files are not supported")
    if magic != MAGIC_SINGLE:
        raise MalformedHeader(f"{path}: bad magic {magic!r}")

    dim = np.asarray(h["dim"], dtype=np.int64)
    rank = int(dim[0])
    if not 1 <= rank <= 7:
        raise MalformedHeader(f"{path}: dim[0] must be in 1..7, got {rank}")
    if any(dim[i] < 1 for i in range(1, rank + 1)):
        raise MalformedHeader(f"{path}: non-positive extent in dim {dim[1:rank + 1]}")
    if rank > 3 and any(dim[i] != 1 for i in range(4, rank + 1)):
        raise UnsupportedDatatype(f"{path}: {rank}-D volume; only 3-D volumes are supported")
    shape = tuple(int(dim[i]) if i <= rank else 1 for i in (1, 2, 3))

    code = int(h["datatype"])
    if code not in SUPPORTED_DATATYPES:
        raise UnsupportedDatatype(f"{path}: datatype code {code} is not supported")
    dtype = np.dtype(SUPPORTED_DATATYPES[code]).newbyteorder(order)
    bitpix = int(h["bitpix"])
    if bitpix != 8 * dtype.itemsize:
        raise MalformedHeader(
            f"{path}: bitpix {bitpix} inconsistent with datatype {code} (expected {8 * dtype.itemsize})"
        )

    if not np.isfinite(h["vox_offset"]):
        raise MalformedHeader(f"{path}: vox_offset {h['vox_offset']} is not finite")
    vox_offset = int(round(float(h["vox_offset"])))
    if vox_offset < MIN_VOX_OFFSET:
        raise MalformedHeader(f"{path}: vox_offset {vox_offset} below minimum {MIN_VOX_OFFSET}")

    need = int(np.prod(shape)) * dtype.itemsize
    if need > MAX_PAYLOAD_BYTES:
        raise UnsupportedDatatype(f"{path}: {need}-byte payload exceeds {MAX_PAYLOAD_BYTES} bytes")
    affine = checked_affine(_header_affine(h, path), f"{path}: header affine", MalformedHeader, MalformedHeader)
    return _Header(shape, dtype, vox_offset, float(h["scl_slope"]), float(h["scl_inter"]), affine)


def _check_extent(vox_offset: int, need: int, size: int, path: Path, holds: str = "holds") -> None:
    """Raise :class:`TruncatedData` unless ``size`` decoded bytes reach past
    ``vox_offset`` and the ``need``-byte voxel payload that starts there."""
    if size < vox_offset:
        raise TruncatedData(f"{path}: file ends before vox_offset {vox_offset}")
    if size < vox_offset + need:
        raise TruncatedData(f"{path}: voxel payload needs {need} bytes at offset {vox_offset}, file {holds} {size}")


@functools.cache
def _libdeflate():
    """The system's libdeflate, loaded by soname at the first call, or None
    when it cannot load or lacks a function the reader calls."""
    void_p, size_t = ctypes.c_void_p, ctypes.c_size_t
    try:
        lib = ctypes.CDLL("libdeflate.so.0")
        lib.libdeflate_alloc_decompressor.restype = void_p
        lib.libdeflate_alloc_decompressor.argtypes = []
        lib.libdeflate_free_decompressor.restype = None
        lib.libdeflate_free_decompressor.argtypes = [void_p]
        lib.libdeflate_gzip_decompress_ex.restype = ctypes.c_int
        lib.libdeflate_gzip_decompress_ex.argtypes = [void_p] + [void_p, size_t] * 2 + [ctypes.POINTER(size_t)] * 2
    except (OSError, AttributeError):
        return None
    return lib


def _inflate_whole(f, size: int, header: _Header, need: int) -> np.ndarray | None:
    """The flat payload of the ``size``-byte gzip file ``f``, a view into all of
    it inflated by one libdeflate call, which checks the member's CRC-32 and
    ISIZE; None, ``f`` unmoved, unless the library loads, ``f`` is no larger than
    its payload, the payload is aligned after at most _GZIP_READ extension bytes,
    the file's last 4 bytes hold its ISIZE, and the call reads one member that
    fills the file and makes exactly that many bytes."""
    lib, offset, total = _libdeflate(), header.vox_offset, header.vox_offset + need
    if lib is None or size > need or offset > MIN_VOX_OFFSET + _GZIP_READ or offset % header.dtype.itemsize:
        return None
    if int.from_bytes(os.pread(f.fileno(), 4, size - 4), "little") != total:
        return None
    member = os.pread(f.fileno(), size, 0)
    buf, used, made = np.empty(total, np.uint8), ctypes.c_size_t(), ctypes.c_size_t()
    if not (decompressor := lib.libdeflate_alloc_decompressor()):
        return None
    try:  # ctypes releases the GIL for this call
        status = lib.libdeflate_gzip_decompress_ex(
            decompressor, member, len(member), buf.ctypes.data, total, ctypes.byref(used), ctypes.byref(made)
        )
    finally:
        lib.libdeflate_free_decompressor(decompressor)
    if status or (used.value, made.value) != (size, total):
        return None
    return buf[offset:].view(header.dtype)


def _read(path: str | Path, voxels: bool, check_grid=None) -> tuple[_Header, np.ndarray | None]:
    """The checked header and, with ``voxels``, the flat native-order payload
    of a single-file NIfTI-1 volume. One parse checks the header (see
    :func:`_parse_header` for its order); then come ``vox_offset`` against
    what the file can decode to, ``check_grid``, and the payload length."""
    path = Path(path)
    gz = False
    try:
        with path.open("rb") as f:
            size = os.fstat(f.fileno()).st_size
            gz = f.peek(2)[:2] == GZIP_MAGIC
            stream = _GzipStream(f) if gz else f
            head = bytearray(HEADER_SIZE)
            header = _parse_header(head[: _fill(stream, head)], path)
            count = int(np.prod(header.shape))
            need = count * header.dtype.itemsize
            # Before any allocation: the most the file can decode to.
            most, holds = (_GZIP_MAX_RATIO * size, "can decode to at most") if gz else (size, "holds")
            _check_extent(header.vox_offset, need, most, path, holds)
            if check_grid is not None:
                check_grid(header.shape, header.affine)
            decoded = HEADER_SIZE if gz else size
            flat = _inflate_whole(f, size, header, need) if voxels and gz else None
            if flat is not None:  # the whole file is inflated and checked
                decoded = header.vox_offset + need
            else:
                if voxels:
                    # Skip the extension block. A gzip seek returns the position it reached;
                    # a raw file's size has passed _check_extent.
                    decoded = stream.seek(header.vox_offset)
                    flat = np.empty(count, header.dtype)
                    decoded += _fill(stream, flat.view(np.uint8))
                if gz:  # inflate the rest, so every member's checksum is checked
                    scratch = bytearray(_CHUNK)
                    while n := _fill(stream, scratch):
                        decoded += n
    except (OSError, EOFError, zlib.error) as exc:
        raise IoFailure(f"cannot {'decompress' if gz else 'read'} {path}: {exc}") from exc
    _check_extent(header.vox_offset, need, decoded, path)
    if flat is not None and not header.dtype.isnative:
        flat = flat.byteswap(inplace=True).view(header.dtype.newbyteorder("="))
    return header, flat


def read_grid(path: str | Path) -> tuple[tuple[int, int, int], np.ndarray]:
    """The ``(shape, affine)`` of a single-file NIfTI-1 volume, without
    keeping its voxels. Raises what :func:`read_volume` raises for the same
    file."""
    header, _ = _read(path, voxels=False)
    return header.shape, header.affine


def read_volume(path: str | Path, check_grid=None) -> Volume:
    """Read a single-file NIfTI-1 volume.

    Returns a :class:`Volume` whose data has intensity scaling applied
    whenever the header carries a real transform (slope outside {0, 1}, or
    slope 1 with a nonzero intercept); scaled data comes back as float64.
    The data is read-only; the header and the extension block are not kept.
    ``check_grid(shape, affine)``, when given, sees the header's grid before
    any voxel is allocated or read; what it raises propagates.
    """
    header, flat = _read(path, voxels=True, check_grid=check_grid)
    data = flat.reshape(header.shape, order="F")
    slope, inter = header.slope, header.inter
    if slope not in (0.0, 1.0):
        data = data.astype(np.float64) * slope + inter
    elif slope == 1.0 and inter != 0.0:
        data = data.astype(np.float64) + inter
    data.setflags(write=False)
    return Volume(data=data, affine=header.affine)


def _check_representable(data: np.ndarray, target: np.dtype) -> None:
    if np.issubdtype(target, np.integer):
        if np.issubdtype(data.dtype, np.floating):
            if not np.all(np.isfinite(data)):
                raise UnrepresentableData("non-finite values cannot be stored as integers")
            if not np.array_equal(data, np.rint(data)):
                raise UnrepresentableData(
                    f"non-integral values cannot be stored as {target.name}"
                )
        if data.size:
            info = np.iinfo(target)
            lo, hi = data.min(), data.max()
            if lo < info.min or hi > info.max:
                raise UnrepresentableData(
                    f"values span [{lo}, {hi}], outside {target.name} range "
                    f"[{info.min}, {info.max}]"
                )


def _build_header(vol, code: int) -> bytes:
    """The little-endian header and empty extender that precede a payload
    on ``vol``'s grid (its shape, spacing and affine) stored as datatype
    ``code``."""
    shape = vol.shape
    if max(shape) > np.iinfo(np.int16).max:
        raise UnrepresentableData(f"extent {max(shape)} exceeds the int16 dim field")
    raw = np.zeros((), dtype=_header_dtype("<"))
    raw["sizeof_hdr"] = HEADER_SIZE
    raw["magic"] = MAGIC_SINGLE
    raw["dim"] = [3, shape[0], shape[1], shape[2], 1, 1, 1, 1]
    raw["datatype"] = code
    raw["bitpix"] = 8 * np.dtype(SUPPORTED_DATATYPES[code]).itemsize
    raw["pixdim"] = [0.0, *vol.spacing, 0.0, 0.0, 0.0, 0.0]
    raw["vox_offset"] = float(MIN_VOX_OFFSET)
    # Values are stored fully resolved; no read-time scaling is wanted.
    raw["scl_slope"] = 1.0
    raw["sform_code"] = 1
    raw["srow_x"] = vol.affine[0]
    raw["srow_y"] = vol.affine[1]
    raw["srow_z"] = vol.affine[2]
    return raw.tobytes() + bytes(MIN_VOX_OFFSET - HEADER_SIZE)


def write_volume(vol, path: str | Path, *, dtype: np.dtype | type | None = None, planes=None) -> Path:
    """Write a volume as single-file NIfTI-1, gzipped when ``path`` ends in
    ``.gz``.

    ``vol`` is a :class:`Volume`; with ``planes`` it is only the grid (a
    shape, a spacing and an affine, as a :class:`~brainorch.geometry.GridSpec`
    has), ``dtype`` is required, and the payload is the arrays ``planes``
    yields, one last-axis plane each in order, each flat in Fortran order or
    2-D: a warp can feed them as it fills them.

    ``dtype`` overrides the stored datatype; values that cannot be represented
    losslessly in an integer target raise :class:`UnrepresentableData`. A
    write that fails, whatever raised (``planes`` too), removes its file.
    The header is always fresh and little-endian (see the module docstring);
    integer round trips are bit-exact.
    """
    path = Path(path)
    if planes is not None and dtype is None:
        raise ValueError(f"{path}: writing planes needs a dtype")
    target = np.dtype(dtype) if dtype is not None else vol.data.dtype
    if target not in _DTYPE_TO_CODE:
        raise UnsupportedDatatype(
            f"dtype {target} is not writable; supported: "
            f"{sorted(d.name for d in _DTYPE_TO_CODE)}"
        )
    head = _build_header(vol, _DTYPE_TO_CODE[target])
    if planes is None:
        planes = (vol.data[:, :, k] for k in range(vol.shape[2]))
    stored = target.newbyteorder("<")
    gz = path.name.endswith(".gz")
    try:
        with path.open("wb") as f:
            try:
                # filename="": given a named file object, GzipFile writes its name into the gzip header.
                with gzip.GzipFile(filename="", fileobj=f, mode="wb", compresslevel=6, mtime=0) if gz else f as out:
                    out.write(head)
                    voxels, need = 0, int(np.prod(vol.shape))
                    for plane in planes:  # Fortran order: one last-axis plane at a time
                        _check_representable(plane, target)
                        out.write(plane.astype(stored, copy=False).tobytes(order="F"))
                        voxels += plane.size
                    if voxels != need:
                        raise ValueError(f"{path}: the planes hold {voxels} voxels, the grid {vol.shape} {need}")
            except BaseException:
                path.unlink(missing_ok=True)
                raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def write_mask(vol, path: str | Path, *, planes=None) -> Path:
    """Write a label mask: always uint8, slope 1, intercept 0. ``vol`` and
    ``planes`` are as for :func:`write_volume`."""
    return write_volume(vol, path, dtype=np.uint8, planes=planes)
