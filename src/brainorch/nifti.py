"""Single-file NIfTI-1 volume reading and writing.

Supports ``.nii`` and ``.nii.gz`` files holding 3-D volumes in the five
datatypes used by the pipeline (uint8, int16, int32, float32, float64).
Little- and big-endian files are detected automatically via ``sizeof_hdr``:
a native read yields 348, a byte-swapped one yields 1543569408.

Reading keeps the raw header around so that a subsequent write preserves
fields this package does not own (descrip, intent, quaternion, extensions)
byte-for-byte, along with the source byte order. Fresh volumes are written
little-endian with ``vox_offset`` 352 and an empty extension block.

Both readers make one pass over one stream, at most 1 MiB at a time: a
gzip envelope (found by magic bytes, not by extension) through one
:class:`gzip.GzipFile`, any other file as it is. The header is parsed first;
the extension block and the payload go straight into their buffers; the rest
of a gzip stream is inflated and counted, so every member's CRC is checked.
Before anything is allocated, the declared payload must be at most
``MAX_PAYLOAD_BYTES`` and ``vox_offset`` plus the payload must fit in what
the file can decode to: its size, or 1032 times it for gzip (deflate's
ceiling). :func:`read_grid` keeps no voxels; of an uncompressed file it
reads only the header.

The writer mirrors the readers: it opens the target once (through one
:class:`gzip.GzipFile` when the name ends in ``.gz``) and writes the header,
the extension block, then the payload in Fortran order, one last-axis plane
at a time, each plane converted to the stored dtype and byte order as it
goes, so no full-size copy of the payload is made. The gzip header carries
no file name (``filename=""``; given a named file object, GzipFile would
store its name) and a zeroed mtime, so identical volumes produce identical
files whatever they are called.
"""

from __future__ import annotations

import gzip
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

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
_BITPIX = {DT_UINT8: 8, DT_INT16: 16, DT_INT32: 32, DT_FLOAT32: 32, DT_FLOAT64: 64}

# numpy S-fields strip trailing nulls on read and pad on write, so the
# stripped forms compare and store correctly ("n+1\0" on disk).
MAGIC_SINGLE = b"n+1"
MAGIC_PAIR = b"ni1"


def _header_dtype(byte_order: str) -> np.dtype:
    dt = np.dtype(_HEADER_FIELDS)
    assert dt.itemsize == HEADER_SIZE
    return dt.newbyteorder(byte_order)


@dataclass
class NiftiHeader:
    """Parsed header plus the raw bytes needed for faithful rewrites.

    ``raw`` is a zero-dimensional structured array kept in the file's byte
    order; ``extension_bytes`` holds everything between the header and the
    voxel data (at minimum the 4-byte extender), read from disk into one
    ``bytearray`` that is not copied again.
    """

    raw: np.ndarray
    byte_order: str
    extension_bytes: bytes | bytearray

    def _get(self, name: str):
        return self.raw[name][()]

    @property
    def sizeof_hdr(self) -> int:
        return int(self._get("sizeof_hdr"))

    @property
    def dim(self) -> np.ndarray:
        return np.asarray(self._get("dim"), dtype=np.int64)

    @property
    def datatype_code(self) -> int:
        return int(self._get("datatype"))

    @property
    def bitpix(self) -> int:
        return int(self._get("bitpix"))

    @property
    def pixdim(self) -> np.ndarray:
        return np.asarray(self._get("pixdim"), dtype=np.float64)

    @property
    def vox_offset(self) -> int:
        return int(round(float(self._get("vox_offset"))))

    @property
    def scl_slope(self) -> float:
        return float(self._get("scl_slope"))

    @property
    def scl_inter(self) -> float:
        return float(self._get("scl_inter"))

    @property
    def qform_code(self) -> int:
        return int(self._get("qform_code"))

    @property
    def sform_code(self) -> int:
        return int(self._get("sform_code"))

    @property
    def descrip(self) -> bytes:
        return bytes(self._get("descrip"))

    @property
    def magic(self) -> bytes:
        return bytes(self._get("magic"))

    def shape3(self) -> tuple[int, int, int]:
        d = self.dim
        rank = int(d[0])
        dims = [int(d[i]) if i <= rank else 1 for i in (1, 2, 3)]
        return (dims[0], dims[1], dims[2])

    def data_dtype(self) -> np.dtype:
        return np.dtype(SUPPORTED_DATATYPES[self.datatype_code]).newbyteorder(self.byte_order)

    def affine(self) -> np.ndarray:
        """Voxel-to-world matrix: sform wins, then qform, then pixdim."""
        if self.sform_code > 0:
            return self._affine_from_sform()
        if self.qform_code > 0:
            return self._affine_from_qform()
        return self._affine_from_pixdim()

    def _affine_from_sform(self) -> np.ndarray:
        out = np.eye(4, dtype=np.float64)
        for i, row in enumerate(("srow_x", "srow_y", "srow_z")):
            out[i, :] = np.asarray(self._get(row), dtype=np.float64)
        return out

    def _affine_from_qform(self) -> np.ndarray:
        b = float(self._get("quatern_b"))
        c = float(self._get("quatern_c"))
        d = float(self._get("quatern_d"))
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
        pd = self.pixdim
        qfac = pd[0]
        if qfac == 0.0:
            qfac = 1.0
        if qfac not in (-1.0, 1.0):
            raise MalformedHeader(f"qform pixdim[0] must be -1, 0 or 1, got {pd[0]}")
        out = np.eye(4, dtype=np.float64)
        out[:3, :3] = rot @ np.diag([pd[1], pd[2], pd[3] * qfac])
        out[0, 3] = float(self._get("qoffset_x"))
        out[1, 3] = float(self._get("qoffset_y"))
        out[2, 3] = float(self._get("qoffset_z"))
        return out

    def _affine_from_pixdim(self) -> np.ndarray:
        pd = self.pixdim
        out = np.eye(4, dtype=np.float64)
        out[0, 0], out[1, 1], out[2, 2] = pd[1], pd[2], pd[3]
        return out

    def copy(self) -> "NiftiHeader":
        return NiftiHeader(self.raw.copy(), self.byte_order, self.extension_bytes)


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


@dataclass(frozen=True)
class Volume:
    """A 3-D array bound to a voxel-to-world affine.

    Treat instances as immutable after construction; derive new volumes via
    :meth:`with_data` instead of mutating ``data`` in place. ``header`` is
    present only on volumes read from disk and carries the original bytes so
    rewrites retain fields this package does not own.
    """

    data: np.ndarray
    affine: np.ndarray
    header: NiftiHeader | None = None

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

    def with_data(self, data: np.ndarray) -> "Volume":
        """Same grid, new voxels. Drops the retained header: the new array
        need not match the original on-disk datatype."""
        return Volume(data=data, affine=self.affine)


# Largest piece read at once, from the file or out of the inflater.
_CHUNK = 1 << 20
# Deflate's ceiling: no gzip file decodes to more than this many times its
# own size (1028.7 measured for a stream of zeros).
_GZIP_MAX_RATIO = 1032
# Largest voxel payload a read allocates.
MAX_PAYLOAD_BYTES = 1 << 31


def _fill(stream, buf) -> int:
    """Read ``stream`` into ``buf`` until it is full or the stream ends, at
    most ``_CHUNK`` bytes at a time; the number of bytes read."""
    view = memoryview(buf).cast("B")
    got = 0
    while got < len(view) and (n := stream.readinto(view[got : got + _CHUNK])):
        got += n
    return got


def _parse_header(blob: bytes, path: Path) -> NiftiHeader:
    """The header whose bytes are ``blob``: its ``HEADER_SIZE`` bytes, or
    every byte of a shorter file. ``extension_bytes`` is left empty."""
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
    # Kept as a 0-d structured array: field reads and writes work uniformly
    # and tobytes() reproduces the exact 348-byte block.
    raw = np.frombuffer(blob, dtype=_header_dtype(order), count=1).copy().reshape(())
    header = NiftiHeader(raw=raw, byte_order=order, extension_bytes=b"")

    magic = header.magic
    if magic == MAGIC_PAIR:
        raise MalformedHeader(f"{path}: header/data pair (.hdr/.img) files are not supported")
    if magic != MAGIC_SINGLE:
        raise MalformedHeader(f"{path}: bad magic {magic!r}")

    dim = header.dim
    rank = int(dim[0])
    if not 1 <= rank <= 7:
        raise MalformedHeader(f"{path}: dim[0] must be in 1..7, got {rank}")
    if any(dim[i] < 1 for i in range(1, rank + 1)):
        raise MalformedHeader(f"{path}: non-positive extent in dim {dim[1:rank + 1]}")
    if rank > 3 and any(dim[i] != 1 for i in range(4, rank + 1)):
        raise UnsupportedDatatype(f"{path}: {rank}-D volume; only 3-D volumes are supported")

    code = header.datatype_code
    if code not in SUPPORTED_DATATYPES:
        raise UnsupportedDatatype(f"{path}: datatype code {code} is not supported")
    if header.bitpix != _BITPIX[code]:
        raise MalformedHeader(
            f"{path}: bitpix {header.bitpix} inconsistent with datatype {code} "
            f"(expected {_BITPIX[code]})"
        )

    if not np.isfinite(header._get("vox_offset")):
        raise MalformedHeader(f"{path}: vox_offset {header._get('vox_offset')} is not finite")
    if header.vox_offset < MIN_VOX_OFFSET:
        raise MalformedHeader(f"{path}: vox_offset {header.vox_offset} below minimum {MIN_VOX_OFFSET}")
    return header


def _check_extent(header: NiftiHeader, need: int, size: int, path: Path, holds: str = "holds") -> None:
    """Raise :class:`TruncatedData` unless ``size`` decoded bytes reach past
    ``vox_offset`` and the ``need``-byte voxel payload that starts there."""
    if size < header.vox_offset:
        raise TruncatedData(f"{path}: file ends before vox_offset {header.vox_offset}")
    if size < header.vox_offset + need:
        raise TruncatedData(
            f"{path}: voxel payload needs {need} bytes at offset {header.vox_offset}, file {holds} {size}"
        )


def _read(path: str | Path, voxels: bool) -> tuple[NiftiHeader, np.ndarray, np.ndarray | None]:
    """The header, checked affine and, with ``voxels``, flat native-order
    payload of a single-file NIfTI-1 volume. Errors come in this order:
    header fields, payload ceiling, ``vox_offset``, payload length, affine."""
    path = Path(path)
    gz = False
    try:
        with path.open("rb") as f:
            size = os.fstat(f.fileno()).st_size
            gz = f.read(2) == GZIP_MAGIC
            f.seek(0)
            with gzip.GzipFile(fileobj=f) if gz else f as stream:
                head = bytearray(HEADER_SIZE)
                header = _parse_header(head[: _fill(stream, head)], path)
                count, dtype = int(np.prod(header.shape3())), header.data_dtype()
                need = count * dtype.itemsize
                if need > MAX_PAYLOAD_BYTES:
                    raise UnsupportedDatatype(f"{path}: {need}-byte payload exceeds {MAX_PAYLOAD_BYTES} bytes")
                # Before any allocation: the most the file can decode to.
                most, holds = (_GZIP_MAX_RATIO * size, "can decode to at most") if gz else (size, "holds")
                _check_extent(header, need, most, path, holds)
                decoded, flat = (HEADER_SIZE if gz or voxels else size), None
                if voxels:  # the extension block is kept in the buffer it is read into
                    header.extension_bytes = bytearray(header.vox_offset - HEADER_SIZE)
                    flat = np.empty(count, dtype)
                    decoded += _fill(stream, header.extension_bytes) + _fill(stream, flat.view(np.uint8))
                if gz:  # inflate the rest, so every member's checksum is checked
                    scratch = bytearray(_CHUNK)
                    while n := _fill(stream, scratch):
                        decoded += n
    except (OSError, EOFError, zlib.error) as exc:
        raise IoFailure(f"cannot {'decompress' if gz else 'read'} {path}: {exc}") from exc
    _check_extent(header, need, decoded, path)
    affine = checked_affine(header.affine(), f"{path}: header affine", MalformedHeader, MalformedHeader)
    if flat is not None and not dtype.isnative:
        flat = flat.byteswap(inplace=True).view(dtype.newbyteorder("="))
    return header, affine, flat


def read_grid(path: str | Path) -> tuple[tuple[int, int, int], np.ndarray]:
    """The ``(shape, affine)`` of a single-file NIfTI-1 volume, without
    keeping its voxels. Raises what :func:`read_volume` raises for the same
    file."""
    header, affine, _ = _read(path, voxels=False)
    return header.shape3(), affine


def read_volume(path: str | Path) -> Volume:
    """Read a single-file NIfTI-1 volume.

    Returns a :class:`Volume` whose data has intensity scaling applied
    whenever the header carries a real transform (slope outside {0, 1}, or
    slope 1 with a nonzero intercept); scaled data comes back as float64.
    The data is read-only; the parsed header rides along for rewrites.
    """
    header, affine, flat = _read(path, voxels=True)
    data = flat.reshape(header.shape3(), order="F")
    slope, inter = header.scl_slope, header.scl_inter
    if slope not in (0.0, 1.0):
        data = data.astype(np.float64) * slope + inter
    elif slope == 1.0 and inter != 0.0:
        data = data.astype(np.float64) + inter
    data.setflags(write=False)
    return Volume(data=data, affine=affine, header=header)


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


def _build_header(vol: Volume, code: int, byte_order: str) -> tuple[np.ndarray, bytes]:
    if vol.header is not None:
        raw = vol.header.raw.copy()
        ext = vol.header.extension_bytes
    else:
        raw = np.zeros((), dtype=_header_dtype(byte_order))
        ext = b"\x00\x00\x00\x00"

    shape = vol.shape
    if max(shape) > np.iinfo(np.int16).max:
        raise UnrepresentableData(f"extent {max(shape)} exceeds the int16 dim field")

    raw["sizeof_hdr"] = HEADER_SIZE
    raw["magic"] = MAGIC_SINGLE
    raw["dim"] = [3, shape[0], shape[1], shape[2], 1, 1, 1, 1]
    raw["datatype"] = code
    raw["bitpix"] = _BITPIX[code]
    pixdim = np.asarray(raw["pixdim"], dtype=np.float64).copy()
    pixdim[1:4] = vol.spacing
    pixdim[4:] = 0.0
    if vol.header is None or vol.header.qform_code <= 0:
        pixdim[0] = 0.0
    raw["pixdim"] = pixdim
    raw["vox_offset"] = float(HEADER_SIZE + len(ext))
    # Values are stored fully resolved; no read-time scaling is wanted.
    raw["scl_slope"] = 1.0
    raw["scl_inter"] = 0.0
    sform_code = vol.header.sform_code if vol.header is not None else 0
    raw["sform_code"] = sform_code if sform_code > 0 else 1
    raw["srow_x"] = vol.affine[0]
    raw["srow_y"] = vol.affine[1]
    raw["srow_z"] = vol.affine[2]
    return raw, ext


def write_volume(vol: Volume, path: str | Path, *, dtype: np.dtype | type | None = None) -> Path:
    """Write a volume as single-file NIfTI-1, gzipped when ``path`` ends in
    ``.gz``.

    ``dtype`` overrides the stored datatype; values that cannot be represented
    losslessly in an integer target raise :class:`UnrepresentableData`, and
    no file is written. Volumes read from disk are written back in their
    source byte order with unowned header fields and extension bytes intact;
    integer round trips are bit-exact.
    """
    path = Path(path)
    target = np.dtype(dtype) if dtype is not None else vol.data.dtype
    if target not in _DTYPE_TO_CODE:
        raise UnsupportedDatatype(
            f"dtype {target} is not writable; supported: "
            f"{sorted(d.name for d in _DTYPE_TO_CODE)}"
        )
    _check_representable(vol.data, target)
    byte_order = vol.header.byte_order if vol.header is not None else "<"
    raw, ext = _build_header(vol, _DTYPE_TO_CODE[target], byte_order)
    stored = target.newbyteorder(byte_order)
    gz = path.name.endswith(".gz")
    try:
        with path.open("wb") as f:
            # filename="": given a named file object, GzipFile writes its name into the gzip header.
            with gzip.GzipFile(filename="", fileobj=f, mode="wb", compresslevel=6, mtime=0) if gz else f as out:
                out.write(raw.tobytes())
                out.write(ext)
                for k in range(vol.shape[2]):  # Fortran order: one last-axis plane at a time
                    out.write(vol.data[:, :, k].astype(stored).tobytes(order="F"))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def write_mask(vol: Volume, path: str | Path) -> Path:
    """Write a label mask: always uint8, slope 1, intercept 0."""
    return write_volume(vol, path, dtype=np.uint8)
