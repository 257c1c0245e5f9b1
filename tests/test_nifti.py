"""Volume IO: round trips, crafted headers, scaling, failure modes.

Crafted files are assembled with struct.pack at the published byte offsets
(dim at 40, datatype at 70, pixdim at 76, vox_offset at 108, scl at 112/116,
codes at 252/254, srows at 280, magic at 344) so the tests stay independent
of the reader's own header layout.
"""

from __future__ import annotations

import contextlib
import ctypes
import gzip
import io
import os
import struct
import subprocess
import sys
import time
import tracemalloc
import zlib
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from brainorch import nifti
from brainorch.errors import (
    BrainorchError,
    IoFailure,
    MalformedHeader,
    TruncatedData,
    UnrepresentableData,
    UnsupportedDatatype,
)
from brainorch.nifti import MAX_PAYLOAD_BYTES, Volume, read_grid, read_volume, write_mask, write_volume

OFF_SIZEOF_HDR = 0
OFF_DIM = 40
OFF_DATATYPE = 70
OFF_BITPIX = 72
OFF_PIXDIM = 76
OFF_VOX_OFFSET = 108
OFF_SCL_SLOPE = 112
OFF_SCL_INTER = 116
OFF_QFORM_CODE = 252
OFF_SFORM_CODE = 254
OFF_QUATERN_B = 256
OFF_QOFFSET_X = 268
OFF_SROW_X = 280
OFF_MAGIC = 344


def simple_volume(dtype=np.int16, shape=(3, 4, 5), origin=(0.0, 0.0, 0.0)):
    n = int(np.prod(shape))
    if np.issubdtype(np.dtype(dtype), np.integer):
        data = (np.arange(n) % 120).astype(dtype).reshape(shape)
    else:
        data = (np.arange(n, dtype=np.float64) / 7.0).astype(dtype).reshape(shape)
    affine = np.eye(4)
    affine[:3, 3] = origin
    return Volume(data=data, affine=affine)


def patch(path, offset, fmt, *values):
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, *values)
    path.write_bytes(bytes(blob))


# -- round trips -------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32, np.float64])
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_round_trip_preserves_data_and_affine(tmp_path, dtype, suffix):
    vol = simple_volume(dtype, origin=(-12.5, 3.0, 7.25))
    path = write_volume(vol, tmp_path / f"vol{suffix}")
    back = read_volume(path)
    assert back.data.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(back.data, vol.data)
    np.testing.assert_array_equal(back.affine, vol.affine)
    assert back.shape == (3, 4, 5)


def test_integer_round_trip_is_bit_exact(tmp_path):
    vol = simple_volume(np.int16)
    first = write_volume(vol, tmp_path / "a.nii")
    second = write_volume(read_volume(first), tmp_path / "b.nii")
    assert first.read_bytes() == second.read_bytes()


def test_gzip_output_is_byte_stable(tmp_path):
    vol = simple_volume(np.float32)
    a = write_volume(vol, tmp_path / "a.nii.gz")
    b = write_volume(vol, tmp_path / "b.nii.gz")
    assert a.read_bytes() == b.read_bytes()


def test_gzip_detected_by_magic_not_extension(tmp_path):
    vol = simple_volume(np.uint8)
    path = tmp_path / "misnamed.nii"
    path.write_bytes(gzip.compress(write_volume(vol, tmp_path / "plain.nii").read_bytes(), mtime=0))
    assert path.read_bytes()[:2] == b"\x1f\x8b"
    np.testing.assert_array_equal(read_volume(path).data, vol.data)


def test_fortran_order_on_disk(tmp_path):
    data = np.arange(24, dtype=np.int16).reshape((2, 3, 4))
    path = write_volume(Volume(data=data, affine=np.eye(4)), tmp_path / "f.nii")
    payload = path.read_bytes()[352:]
    expected = np.asfortranarray(data).tobytes(order="F")
    assert payload == expected
    # fastest-varying index is the first axis
    flat = np.frombuffer(payload, dtype="<i2")
    assert flat[1] == data[1, 0, 0]


def test_written_mask_is_uint8_unscaled(tmp_path):
    data = np.zeros((4, 4, 4), dtype=np.int32)
    data[1:3, 1:3, 1:3] = 2
    path = write_mask(Volume(data=data, affine=np.eye(4)), tmp_path / "m.nii.gz")
    back = read_volume(path)
    assert back.data.dtype == np.uint8
    np.testing.assert_array_equal(back.data, data.astype(np.uint8))
    blob = gzip.decompress(path.read_bytes())
    slope, inter = struct.unpack_from("<2f", blob, OFF_SCL_SLOPE)
    assert (slope, inter) == (1.0, 0.0)


# -- intensity scaling -------------------------------------------------------


def test_scl_slope_applies_on_read(tmp_path):
    vol = simple_volume(np.int16)
    path = write_volume(vol, tmp_path / "scaled.nii")
    patch(path, OFF_SCL_SLOPE, "<2f", 2.0, 3.0)
    back = read_volume(path)
    assert back.data.dtype == np.float64
    # stored value 2 -> 2*2 + 3
    assert back.data.flat[2] == 7.0
    np.testing.assert_allclose(back.data, vol.data.astype(np.float64) * 2.0 + 3.0)


def test_scl_slope_one_with_offset_applies_intercept(tmp_path):
    vol = simple_volume(np.int16)
    path = write_volume(vol, tmp_path / "inter.nii")
    patch(path, OFF_SCL_SLOPE, "<2f", 1.0, -5.0)
    back = read_volume(path)
    assert back.data.dtype == np.float64
    np.testing.assert_allclose(back.data, vol.data.astype(np.float64) - 5.0)


@pytest.mark.parametrize("slope,inter", [(0.0, 9.0), (1.0, 0.0)])
def test_scl_noop_forms_leave_data_untouched(tmp_path, slope, inter):
    vol = simple_volume(np.int16)
    path = write_volume(vol, tmp_path / "noop.nii")
    patch(path, OFF_SCL_SLOPE, "<2f", slope, inter)
    back = read_volume(path)
    assert back.data.dtype == np.int16
    np.testing.assert_array_equal(back.data, vol.data)


# -- crafted big-endian file -------------------------------------------------


def crafted_bytes(order):
    """A 2x2x2 int16 volume holding 0..7, in byte order ``order``."""
    blob = bytearray(352)
    struct.pack_into(order + "i", blob, OFF_SIZEOF_HDR, 348)
    struct.pack_into(order + "8h", blob, OFF_DIM, 3, 2, 2, 2, 1, 1, 1, 1)
    struct.pack_into(order + "2h", blob, OFF_DATATYPE, 4, 16)  # int16
    struct.pack_into(order + "8f", blob, OFF_PIXDIM, 0, 1, 1, 1, 0, 0, 0, 0)
    struct.pack_into(order + "f", blob, OFF_VOX_OFFSET, 352.0)
    struct.pack_into(order + "h", blob, OFF_SFORM_CODE, 1)
    struct.pack_into(order + "4f", blob, OFF_SROW_X, 1, 0, 0, 0)
    struct.pack_into(order + "4f", blob, OFF_SROW_X + 16, 0, 1, 0, 0)
    struct.pack_into(order + "4f", blob, OFF_SROW_X + 32, 0, 0, 1, 0)
    blob[OFF_MAGIC : OFF_MAGIC + 4] = b"n+1\x00"
    return bytes(blob) + np.arange(8, dtype=order + "i2").tobytes()


def craft_big_endian(path):
    path.write_bytes(crafted_bytes(">"))
    return path


def test_big_endian_file_reads_correctly(tmp_path):
    path = craft_big_endian(tmp_path / "be.nii")
    vol = read_volume(path)
    expected = np.arange(8, dtype=np.int16).reshape((2, 2, 2), order="F")
    np.testing.assert_array_equal(vol.data, expected)
    assert vol.data[1, 0, 1] == 5


# -- affine precedence -------------------------------------------------------


def test_qform_identity_rotation(tmp_path):
    path = write_volume(simple_volume(np.int16), tmp_path / "q.nii")
    patch(path, OFF_SFORM_CODE, "<h", 0)
    patch(path, OFF_QFORM_CODE, "<h", 1)
    patch(path, OFF_QUATERN_B, "<3f", 0.0, 0.0, 0.0)
    patch(path, OFF_QOFFSET_X, "<3f", 10.0, -4.0, 2.5)
    patch(path, OFF_PIXDIM, "<4f", 1.0, 2.0, 2.0, 3.0)
    affine = read_volume(path).affine
    expected = np.diag([2.0, 2.0, 3.0, 1.0])
    expected[:3, 3] = (10.0, -4.0, 2.5)
    np.testing.assert_allclose(affine, expected, atol=1e-6)


def test_qform_z_rotation_90_degrees(tmp_path):
    path = write_volume(simple_volume(np.int16), tmp_path / "qz.nii")
    patch(path, OFF_SFORM_CODE, "<h", 0)
    patch(path, OFF_QFORM_CODE, "<h", 1)
    half = np.sqrt(0.5)
    patch(path, OFF_QUATERN_B, "<3f", 0.0, 0.0, half)  # b, c, d
    patch(path, OFF_QOFFSET_X, "<3f", 0.0, 0.0, 0.0)
    patch(path, OFF_PIXDIM, "<4f", 1.0, 1.0, 1.0, 1.0)
    affine = read_volume(path).affine
    expected = np.array(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float
    )
    np.testing.assert_allclose(affine, expected, atol=1e-6)


def test_qform_qfac_flips_third_axis(tmp_path):
    path = write_volume(simple_volume(np.int16), tmp_path / "qf.nii")
    patch(path, OFF_SFORM_CODE, "<h", 0)
    patch(path, OFF_QFORM_CODE, "<h", 1)
    patch(path, OFF_QUATERN_B, "<3f", 0.0, 0.0, 0.0)
    patch(path, OFF_QOFFSET_X, "<3f", 0.0, 0.0, 0.0)
    patch(path, OFF_PIXDIM, "<4f", -1.0, 1.0, 1.0, 2.0)
    affine = read_volume(path).affine
    np.testing.assert_allclose(affine[:3, :3], np.diag([1.0, 1.0, -2.0]), atol=1e-6)


def test_qform_bad_qfac_rejected(tmp_path):
    path = write_volume(simple_volume(np.int16), tmp_path / "qbad.nii")
    patch(path, OFF_SFORM_CODE, "<h", 0)
    patch(path, OFF_QFORM_CODE, "<h", 1)
    patch(path, OFF_PIXDIM, "<f", 0.5)
    with pytest.raises(MalformedHeader):
        read_volume(path).affine


def test_pixdim_fallback_when_no_codes(tmp_path):
    path = write_volume(simple_volume(np.int16), tmp_path / "pd.nii")
    patch(path, OFF_SFORM_CODE, "<h", 0)
    patch(path, OFF_QFORM_CODE, "<h", 0)
    patch(path, OFF_PIXDIM, "<4f", 0.0, 0.9, 1.1, 2.4)
    affine = read_volume(path).affine
    np.testing.assert_allclose(np.diag(affine), [0.9, 1.1, 2.4, 1.0], atol=1e-6)


def test_sform_wins_over_qform(tmp_path):
    path = write_volume(simple_volume(np.int16, origin=(5.0, 6.0, 7.0)), tmp_path / "sq.nii")
    patch(path, OFF_QFORM_CODE, "<h", 1)
    patch(path, OFF_QOFFSET_X, "<3f", -99.0, -99.0, -99.0)
    affine = read_volume(path).affine
    np.testing.assert_allclose(affine[:3, 3], (5.0, 6.0, 7.0))


# -- malformed inputs --------------------------------------------------------


def test_bad_sizeof_hdr_rejected(tmp_path):
    path = write_volume(simple_volume(), tmp_path / "bad.nii")
    patch(path, OFF_SIZEOF_HDR, "<i", 300)
    with pytest.raises(MalformedHeader, match="sizeof_hdr"):
        read_volume(path)


def test_nifti2_rejected_by_name(tmp_path):
    path = write_volume(simple_volume(), tmp_path / "n2.nii")
    patch(path, OFF_SIZEOF_HDR, "<i", 540)
    with pytest.raises(UnsupportedDatatype, match="NIfTI-2"):
        read_volume(path)


def test_pair_magic_rejected(tmp_path):
    path = write_volume(simple_volume(), tmp_path / "pair.nii")
    blob = bytearray(path.read_bytes())
    blob[OFF_MAGIC : OFF_MAGIC + 4] = b"ni1\x00"
    path.write_bytes(bytes(blob))
    with pytest.raises(MalformedHeader, match="pair"):
        read_volume(path)


def test_garbage_magic_rejected(tmp_path):
    path = write_volume(simple_volume(), tmp_path / "gm.nii")
    blob = bytearray(path.read_bytes())
    blob[OFF_MAGIC : OFF_MAGIC + 4] = b"xyz\x00"
    path.write_bytes(bytes(blob))
    with pytest.raises(MalformedHeader, match="magic"):
        read_volume(path)


def test_unsupported_datatype_code(tmp_path):
    path = write_volume(simple_volume(), tmp_path / "dt.nii")
    patch(path, OFF_DATATYPE, "<h", 256)  # int8, outside the supported set
    with pytest.raises(UnsupportedDatatype, match="256"):
        read_volume(path)


def test_bitpix_mismatch_rejected(tmp_path):
    path = write_volume(simple_volume(np.int16), tmp_path / "bp.nii")
    patch(path, OFF_BITPIX, "<h", 8)
    with pytest.raises(MalformedHeader, match="bitpix"):
        read_volume(path)


def test_vox_offset_below_minimum_rejected(tmp_path):
    path = write_volume(simple_volume(), tmp_path / "vo.nii")
    patch(path, OFF_VOX_OFFSET, "<f", 348.0)
    with pytest.raises(MalformedHeader, match="vox_offset"):
        read_volume(path)


def test_truncated_payload(tmp_path):
    path = write_volume(simple_volume(np.int16), tmp_path / "tr.nii")
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(TruncatedData):
        read_volume(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "short.nii"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(MalformedHeader):
        read_volume(path)


def test_nonpositive_extent_rejected(tmp_path):
    path = write_volume(simple_volume(), tmp_path / "dim0.nii")
    patch(path, OFF_DIM, "<8h", 3, 0, 4, 5, 1, 1, 1, 1)
    with pytest.raises(MalformedHeader, match="extent"):
        read_volume(path)


def test_bad_rank_rejected(tmp_path):
    path = write_volume(simple_volume(), tmp_path / "rank.nii")
    patch(path, OFF_DIM, "<h", 0)
    with pytest.raises(MalformedHeader, match="dim"):
        read_volume(path)


def test_corrupt_gzip_reported_as_io_failure(tmp_path):
    good = write_volume(simple_volume(), tmp_path / "g.nii.gz")
    blob = good.read_bytes()
    bad = tmp_path / "bad.nii.gz"
    bad.write_bytes(blob[:40])
    with pytest.raises(IoFailure):
        read_volume(bad)


def test_missing_file_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_volume(tmp_path / "absent.nii")


def _singular_sform(path):
    patch(path, OFF_SFORM_CODE, "<h", 1)
    patch(path, OFF_SROW_X, "<4f", 0.0, 0.0, 0.0, 0.0)


def test_singular_header_affine_is_a_malformed_header(tmp_path):
    path = write_volume(simple_volume(), tmp_path / "sing.nii")
    _singular_sform(path)
    with pytest.raises(MalformedHeader, match="singular") as info:
        read_volume(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("read", [read_volume, read_grid])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_vox_offset_is_a_malformed_header(tmp_path, read, value):
    path = write_volume(simple_volume(), tmp_path / "vo.nii")
    patch(path, OFF_VOX_OFFSET, "<f", value)
    with pytest.raises(MalformedHeader, match="vox_offset .* is not finite"):
        read(path)


@pytest.mark.parametrize("read", [read_volume, read_grid])
def test_non_finite_header_affine_is_a_malformed_header(tmp_path, read):
    path = write_volume(simple_volume(), tmp_path / "nan.nii")
    patch(path, OFF_SROW_X + 12, "<f", float("nan"))  # srow_x[3], the x offset
    with pytest.raises(MalformedHeader, match="header affine must be finite") as info:
        read(path)
    assert str(path) in str(info.value)


# -- grid-only reads -----------------------------------------------------------


def _nifti_bytes(tmp_path, mutate=None):
    """The bytes of a written volume after ``mutate(path)`` edits the file."""
    path = write_volume(simple_volume(np.int16), tmp_path / "src.nii")
    if mutate is not None:
        mutate(path)
    return path.read_bytes()


def _patched(offset, fmt, *values):
    return lambda path: patch(path, offset, fmt, *values)


def _replace_magic(magic):
    def mutate(path):
        blob = bytearray(path.read_bytes())
        blob[OFF_MAGIC : OFF_MAGIC + 4] = magic
        path.write_bytes(bytes(blob))

    return mutate


def _bad_qfac(path):
    patch(path, OFF_SFORM_CODE, "<h", 0)
    patch(path, OFF_QFORM_CODE, "<h", 1)
    patch(path, OFF_PIXDIM, "<f", 0.5)


# Every malformed-file case above, as the decoded bytes of the file.
MALFORMED_FILES = {
    "sizeof_hdr": lambda tmp: _nifti_bytes(tmp, _patched(OFF_SIZEOF_HDR, "<i", 300)),
    "nifti2": lambda tmp: _nifti_bytes(tmp, _patched(OFF_SIZEOF_HDR, "<i", 540)),
    "pair_magic": lambda tmp: _nifti_bytes(tmp, _replace_magic(b"ni1\x00")),
    "garbage_magic": lambda tmp: _nifti_bytes(tmp, _replace_magic(b"xyz\x00")),
    "datatype": lambda tmp: _nifti_bytes(tmp, _patched(OFF_DATATYPE, "<h", 256)),
    "bitpix": lambda tmp: _nifti_bytes(tmp, _patched(OFF_BITPIX, "<h", 8)),
    "vox_offset_low": lambda tmp: _nifti_bytes(tmp, _patched(OFF_VOX_OFFSET, "<f", 348.0)),
    "vox_offset_past_end": lambda tmp: _nifti_bytes(tmp, _patched(OFF_VOX_OFFSET, "<f", 4096.0)),
    "truncated_payload": lambda tmp: _nifti_bytes(tmp)[:-10],
    "truncated_header": lambda tmp: b"\x00" * 100,
    "empty": lambda tmp: b"",
    "nonpositive_extent": lambda tmp: _nifti_bytes(tmp, _patched(OFF_DIM, "<8h", 3, 0, 4, 5, 1, 1, 1, 1)),
    "rank": lambda tmp: _nifti_bytes(tmp, _patched(OFF_DIM, "<h", 0)),
    "four_d": lambda tmp: _nifti_bytes(tmp, _patched(OFF_DIM, "<8h", 4, 3, 4, 5, 2, 1, 1, 1)),
    "bad_qfac": lambda tmp: _nifti_bytes(tmp, _bad_qfac),
    "singular_sform": lambda tmp: _nifti_bytes(tmp, _singular_sform),
    "vox_offset_nan": lambda tmp: _nifti_bytes(tmp, _patched(OFF_VOX_OFFSET, "<f", float("nan"))),
    "vox_offset_inf": lambda tmp: _nifti_bytes(tmp, _patched(OFF_VOX_OFFSET, "<f", float("inf"))),
    "nan_sform_offset": lambda tmp: _nifti_bytes(tmp, _patched(OFF_SROW_X + 12, "<f", float("nan"))),
}


def _outcome(read, path):
    try:
        read(path)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return None, None


@pytest.mark.parametrize("compress", [False, True], ids=["nii", "gz"])
@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_grid_read_raises_what_the_volume_read_raises(tmp_path, case, compress):
    blob = MALFORMED_FILES[case](tmp_path)
    path = tmp_path / ("case.nii.gz" if compress else "case.nii")
    path.write_bytes(gzip.compress(blob, mtime=0) if compress else blob)
    expected = _outcome(read_volume, path)
    assert expected[0] is not None
    assert _outcome(read_grid, path) == expected


@pytest.mark.parametrize("read", [read_volume, read_grid])
@pytest.mark.parametrize("compress", [False, True], ids=["nii", "gz"])
@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_every_malformed_file_error_names_the_file(tmp_path, case, compress, read):
    blob = MALFORMED_FILES[case](tmp_path)
    path = tmp_path / ("case.nii.gz" if compress else "case.nii")
    path.write_bytes(gzip.compress(blob, mtime=0) if compress else blob)
    kind, message = _outcome(read, path)
    assert kind is not None
    assert str(path) in message


def _hook_raising(error):
    seen = []

    def check_grid(shape, affine):
        seen.append(shape)
        raise error

    return check_grid, seen


# Two faults in one file: the one the documented error order puts first wins.
def test_a_payload_over_the_ceiling_is_reported_before_a_bad_qfac(tmp_path):
    def mutate(path):
        _bad_qfac(path)
        patch(path, OFF_DIM, "<8h", 3, 2048, 1024, 1025, 1, 1, 1, 1)

    path = tmp_path / "huge-qfac.nii"
    path.write_bytes(_nifti_bytes(tmp_path, mutate))
    for read in (read_volume, read_grid):
        with pytest.raises(UnsupportedDatatype, match="payload exceeds"):
            read(path)


def test_a_bad_header_affine_is_reported_before_a_vox_offset_past_the_end(tmp_path):
    def mutate(path):
        patch(path, OFF_SROW_X, "<f", float("nan"))
        patch(path, OFF_VOX_OFFSET, "<f", 4096.0)

    path = tmp_path / "nan-far.nii"
    path.write_bytes(_nifti_bytes(tmp_path, mutate))
    for read in (read_volume, read_grid):
        with pytest.raises(MalformedHeader, match="header affine must be finite"):
            read(path)


def test_a_vox_offset_past_the_end_is_reported_before_the_grid_hook_runs(tmp_path):
    path = tmp_path / "far.nii"
    path.write_bytes(_nifti_bytes(tmp_path, _patched(OFF_VOX_OFFSET, "<f", 4096.0)))
    check_grid, seen = _hook_raising(RuntimeError("hook"))
    with pytest.raises(TruncatedData, match="vox_offset 4096"):
        read_volume(path, check_grid=check_grid)
    assert seen == []


def test_the_grid_hook_runs_before_a_gzip_payload_is_found_short(tmp_path):
    path = tmp_path / "short.nii.gz"
    path.write_bytes(gzip.compress(_nifti_bytes(tmp_path)[:-10], mtime=0))
    with pytest.raises(TruncatedData):
        read_volume(path)
    check_grid, seen = _hook_raising(RuntimeError("hook"))
    with pytest.raises(RuntimeError, match="hook"):
        read_volume(path, check_grid=check_grid)
    assert seen == [(3, 4, 5)]


# Ways to damage a good gzip file, each refused by gzip.decompress.
GZIP_DAMAGE = {
    "cut_in_header": lambda good: good[:40],
    "cut_in_payload": lambda good: good[: len(good) // 2],
    "cut_in_trailer": lambda good: good[:-3],
    "bad_crc": lambda good: good[:-8] + bytes([good[-8] ^ 0xFF]) + good[-7:],
    "bad_size": lambda good: good[:-4] + bytes([good[-4] ^ 0x01]) + good[-3:],
    "bad_method": lambda good: good[:2] + b"\x07" + good[3:],
    "trailing_garbage": lambda good: good + b"not gzip",
    "trailing_magic_byte": lambda good: good + b"\x1f",
    "second_member_cut": lambda good: good + good[:30],
}


@pytest.mark.parametrize("case", sorted(GZIP_DAMAGE))
def test_grid_read_refuses_a_damaged_gzip_stream_as_the_volume_read_does(tmp_path, case):
    path = tmp_path / "damaged.nii.gz"
    path.write_bytes(GZIP_DAMAGE[case](gzip.compress(_nifti_bytes(tmp_path), mtime=0)))
    with pytest.raises(IoFailure, match="cannot decompress"):
        read_volume(path)
    with pytest.raises(IoFailure, match="cannot decompress") as info:
        read_grid(path)
    assert str(path) in str(info.value)


def test_grid_read_of_a_missing_file_or_a_directory_is_an_io_failure(tmp_path):
    for path in (tmp_path / "absent.nii.gz", tmp_path):
        with pytest.raises(IoFailure, match="cannot read"):
            read_volume(path)
        with pytest.raises(IoFailure, match="cannot read"):
            read_grid(path)


def _assert_same_grid(path):
    vol = read_volume(path)
    shape, affine = read_grid(path)
    assert shape == vol.shape
    assert np.array_equal(affine, vol.affine)


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_grid_read_matches_the_volume_read(tmp_path, suffix):
    rng = np.random.default_rng(3)
    affine = np.eye(4)
    affine[:3, :3] = np.diag([0.9, 1.1, 2.5])
    affine[:3, 3] = (-10.0, 4.0, 7.5)
    # A noisy float64 payload spans several 1 MiB pieces of input and output;
    # a constant uint8 one inflates to many output pieces per input piece.
    for name, data in (
        ("noise", rng.normal(size=(64, 64, 40))),
        ("flat", np.ones((160, 160, 120), dtype=np.uint8)),
        ("tiny", np.zeros((1, 1, 1), dtype=np.int16)),
    ):
        _assert_same_grid(write_volume(Volume(data=data, affine=affine), tmp_path / f"{name}{suffix}"))
    _assert_same_grid(craft_big_endian(tmp_path / "be.nii"))
    path = write_volume(simple_volume(np.int16), tmp_path / "qform.nii")
    _bad_qfac(path)
    patch(path, OFF_PIXDIM, "<f", -1.0)
    _assert_same_grid(path)


def test_grid_read_reads_every_gzip_member_as_the_volume_read_does(tmp_path):
    blob = _nifti_bytes(tmp_path)
    # Two members with NUL padding between and after them, as gzip allows.
    split = 400  # inside the 120-byte payload that starts at byte 352
    parts = gzip.compress(blob[:split], mtime=0) + b"\x00" * 3 + gzip.compress(blob[split:], mtime=0) + b"\x00"
    path = tmp_path / "members.nii.gz"
    path.write_bytes(parts)
    assert np.array_equal(read_volume(path).data, simple_volume(np.int16).data)
    _assert_same_grid(path)
    # Cut after the first member, the payload is short for both readers.
    path.write_bytes(gzip.compress(blob[:split], mtime=0))
    assert _outcome(read_grid, path) == _outcome(read_volume, path)
    assert _outcome(read_grid, path)[0] is TruncatedData


@pytest.mark.parametrize("quirk", ["reserved_flag_bits", "wrong_header_crc"])
def test_grid_read_accepts_the_gzip_headers_the_volume_read_accepts(tmp_path, quirk):
    # Python's gzip reader ignores reserved FLG bits and does not check the
    # optional header CRC; zlib's own gzip mode refuses both.
    member = bytearray(gzip.compress(_nifti_bytes(tmp_path), mtime=0))
    if quirk == "reserved_flag_bits":
        member[3] |= 0x20
    else:
        member[3] |= 0x02  # FHCRC: a 2-byte CRC follows the 10-byte header
        member[10:10] = b"\x00\x00"
    path = tmp_path / "quirk.nii.gz"
    path.write_bytes(bytes(member))
    assert np.array_equal(read_volume(path).data, simple_volume(np.int16).data)
    _assert_same_grid(path)


def test_a_bad_header_in_a_damaged_stream_is_reported_as_the_header_error(tmp_path):
    # The header is parsed before the rest of the stream is inflated.
    noise = np.random.default_rng(0).integers(0, 256, size=(64, 64, 16), dtype=np.uint8)
    path = write_volume(Volume(data=noise, affine=np.eye(4)), tmp_path / "noise.nii")
    _replace_magic(b"xyz\x00")(path)
    member = gzip.compress(path.read_bytes(), mtime=0)
    path.write_bytes(member[: len(member) // 2])
    for read in (read_volume, read_grid):
        with pytest.raises(MalformedHeader, match="magic"):
            read(path)


# -- gzip members ----------------------------------------------------------------

FHCRC, FEXTRA, FNAME, FCOMMENT = 0x02, 0x04, 0x08, 0x10


def _gzip_member(data, level=6, flags=0, extra=b"", name=b"", comment=b"", header_crc=b"\0\0"):
    """One gzip member of ``data`` (RFC 1952), framed by hand: ``flags`` may
    hold any FLG bit, and each optional field is written when its bit is set."""
    head = bytearray(b"\x1f\x8b\x08" + bytes([flags]) + bytes(4) + b"\x00\xff")
    if flags & FEXTRA:
        head += struct.pack("<H", len(extra)) + extra
    head += (name + b"\0") * bool(flags & FNAME) + (comment + b"\0") * bool(flags & FCOMMENT)
    head += header_crc * bool(flags & FHCRC)
    deflate = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
    body = deflate.compress(data) + deflate.flush()
    return bytes(head) + body + struct.pack("<II", zlib.crc32(data), len(data) & 0xFFFFFFFF)


def _draw_framing(draw, blob):
    """``blob`` as one to three gzip members split at random points, each
    with random header fields, flag bits (reserved ones too) and NUL padding
    after it, then maybe cut or with one byte flipped past the magic."""
    cuts = sorted(draw(st.lists(st.integers(0, len(blob)), max_size=2)))
    no_nul = st.binary(max_size=12).map(lambda b: b.replace(b"\0", b"n"))
    stream = b""
    for start, stop in zip([0, *cuts], [*cuts, len(blob)]):
        stream += _gzip_member(
            blob[start:stop],
            level=draw(st.integers(0, 9)),
            flags=sum(draw(st.sets(st.sampled_from([0x01, FHCRC, FEXTRA, FNAME, FCOMMENT, 0x20, 0x40, 0x80])))),
            extra=draw(st.binary(max_size=12)),
            name=draw(no_nul),
            comment=draw(no_nul),
            header_crc=draw(st.binary(min_size=2, max_size=2)),
        ) + bytes(draw(st.integers(0, 3)))
    damage = draw(st.sampled_from(["none", "none", "cut", "flip"]))
    at = draw(st.integers(2, len(stream) - 1))
    if damage == "cut":
        stream = stream[:at]
    elif damage == "flip":
        stream = stream[:at] + bytes([stream[at] ^ draw(st.integers(1, 255))]) + stream[at + 1 :]
    return stream


# No explain phase, as for the hostile-file test below.
@settings(max_examples=150, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(data=st.data())
def test_gzip_reads_agree_with_gzip_decompress(tmp_path_factory, data):
    _assert_gzip_reads_agree(tmp_path_factory.getbasetemp(), data)


# The same examples with libdeflate forced off, inside the body: Hypothesis
# refuses a function-scoped fixture that would do it.
@settings(max_examples=150, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(data=st.data())
def test_gzip_reads_agree_with_gzip_decompress_on_zlib_alone(tmp_path_factory, data):
    with _zlib_only():
        _assert_gzip_reads_agree(tmp_path_factory.getbasetemp(), data)


def _zlib_only():
    """A context in which every gzip read goes through the zlib member reader."""
    return mock.patch.object(nifti, "_libdeflate", lambda: None)


def _assert_gzip_reads_agree(tmp, data):
    """Both readers of a drawn gzip stream end as ``gzip.decompress`` of it
    says: the volume of what it inflates to, or a refusal."""
    if data.draw(st.booleans(), label="flat"):  # inflates to several pieces
        voxels = np.ones((data.draw(st.integers(1, 96)), 96, 80), dtype=np.uint8)
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        voxels = rng.integers(-999, 999, size=data.draw(st.tuples(*[st.integers(1, 12)] * 3)), dtype=np.int16)
    blob = write_volume(Volume(data=voxels, affine=np.eye(4)), tmp / "agree-source.nii").read_bytes()
    stream = _draw_framing(data.draw, blob)
    path, oracle = tmp / "agree.nii.gz", tmp / "agree-oracle.nii"
    path.write_bytes(stream)
    found = [_outcome(read, path)[0] for read in (read_volume, read_grid)]
    try:
        oracle.write_bytes(gzip.decompress(stream))
    except (OSError, EOFError, zlib.error):
        # Refused: as an IoFailure or, when the header inflates cleanly in the
        # first 8 KiB piece (GzipFile's buffer), as that header is.
        allowed = {IoFailure}
        with contextlib.suppress(OSError, EOFError, zlib.error):
            oracle.write_bytes(gzip.GzipFile(fileobj=io.BytesIO(stream)).read(348))
            allowed.add(_outcome(read_grid, oracle)[0])
        assert set(found) <= allowed, (found, allowed)
        return
    assert found == [_outcome(read, oracle)[0] for read in (read_volume, read_grid)]
    if found[0] is None:
        vol, expected = read_volume(path), read_volume(oracle)
        np.testing.assert_array_equal(vol.data, expected.data)
        np.testing.assert_array_equal(vol.affine, expected.affine)


@pytest.mark.parametrize("field", ["name_to_the_end", "long_comment"])
def test_a_long_gzip_header_string_is_skipped_in_pieces(tmp_path, field):
    text = b"n" * (8 << 20)
    if field == "name_to_the_end":  # no NUL: the name runs to the end of the file
        stream = b"\x1f\x8b\x08" + bytes([FNAME]) + bytes(4) + b"\x00\xff" + text
    else:
        stream = _gzip_member(_nifti_bytes(tmp_path), flags=FCOMMENT, comment=text)
    path = tmp_path / "long.nii.gz"
    path.write_bytes(stream)
    try:
        plain = gzip.decompress(stream)
    except EOFError:
        plain = None
    for read in (read_volume, read_grid):
        start = time.perf_counter()
        kind, message = _outcome(read, path)
        assert time.perf_counter() - start < 1.0
        assert kind is (None if plain is not None else IoFailure), message
        _, peak = _traced_peak(lambda: _outcome(read, path))
        assert peak < 2 << 20
    if plain is not None:
        np.testing.assert_array_equal(read_volume(path).data, simple_volume(np.int16).data)


# -- the libdeflate fast path -----------------------------------------------------


@pytest.fixture
def deflate_calls(monkeypatch):
    """The libdeflate inflate calls made during the test; skips it where the
    system has no libdeflate."""
    if (lib := nifti._libdeflate()) is None:
        pytest.skip("libdeflate is not installed")
    calls, real = [], lib.libdeflate_gzip_decompress_ex

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lib, "libdeflate_gzip_decompress_ex", spy)
    return calls


def _compressible(shape=(64, 64, 16), dtype=np.uint8):
    """A volume whose gzip file is far smaller than its payload."""
    return Volume(data=(np.arange(int(np.prod(shape))) % 251).astype(dtype).reshape(shape), affine=np.eye(4))


def _bits(*fields: str) -> bytes:
    """Deflate bits, given in stream order as '0'/'1' strings, packed from
    the lowest bit of each byte up (RFC 1951, 3.1.1)."""
    bits = "".join(fields)
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i : i + 8][::-1], 2) for i in range(0, len(bits), 8))


def _num(value: int, width: int) -> str:
    """A deflate number field: least significant bit first."""
    return f"{value:0{width}b}"[::-1]


def _code(value: int, width: int) -> str:
    """A Huffman code: most significant bit first."""
    return f"{value:0{width}b}"


def _fixed_literal(byte: int) -> str:
    return _code(0x30 + byte, 8) if byte < 144 else _code(0x190 + byte - 144, 9)


def _dynamic_literals(data: bytes) -> str:
    """A final dynamic block of ``data`` as literals, with one distance code
    length, and that one 0: an empty distance code. Literals 0-254 take 8-bit
    codes, 255 and end-of-block 9-bit ones; the code-length code gives length
    8 code 0, length 0 code 10 and length 9 code 11."""
    head = "1" + _num(2, 2) + _num(0, 5) + _num(0, 5) + _num(3, 4)
    head += "".join(_num(n, 3) for n in (0, 0, 0, 2, 1, 0, 2))  # for lengths 16, 17, 18, 0, 8, 7, 9
    lengths = "0" * 255 + "11" * 2 + "10"
    body = "".join(_code(b, 8) if b < 255 else _code(510, 9) for b in data)
    return head + lengths + body + _code(511, 9)


def _flushed(data: bytes) -> bytes:
    """A non-final deflate of ``data`` that ends on a byte boundary."""
    deflate = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
    return deflate.compress(data) + deflate.flush(zlib.Z_SYNC_FLUSH)


def _framed(body: bytes, crc: int, size: int) -> bytes:
    return b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff" + body + struct.pack("<II", crc & 0xFFFFFFFF, size & 0xFFFFFFFF)


def _hand_built(case: str, blob: bytes) -> bytes:
    """A gzip file of ``blob`` whose deflate stream is built as ``case`` says;
    each stream but a name's without a NUL inflates its first 20,000 bytes
    cleanly, past the header."""
    crc, cut = zlib.crc32(blob), 20_000
    whole = _gzip_member(blob)
    tail = blob[-300:]
    body = {
        "stored_block": lambda: _flushed(blob[:-300]) + b"\x01" + struct.pack("<HH", 300, 0xFFFF ^ 300) + tail,
        "fixed_block": lambda: _flushed(blob[:-300])
        + _bits("1", _num(1, 2), *map(_fixed_literal, tail), _code(0, 7)),
        "dynamic_block_empty_distance_code": lambda: _flushed(blob[:-300]) + _bits(_dynamic_literals(tail)),
        # Length 3 (code 257) at distance 32768 (code 29, 13 extra bits) with 20,000 bytes out.
        "distance_too_far_back": lambda: _flushed(blob[:cut])
        + _bits("1", _num(1, 2), _code(1, 7), _code(29, 5), _num(32768 - 24577, 13), _code(0, 7)),
        "one_byte_short": lambda: whole[10:-9],
        "bytes_between_stream_and_trailer": lambda: whole[10:-8] + b"junk",
    }
    if case in body:
        return _framed(body[case](), crc, len(blob))
    if case == "isize_off_by_one":
        return whole[:-4] + struct.pack("<I", len(blob) + 1)
    if case == "crc_off_by_one":
        return whole[:-8] + struct.pack("<I", (crc + 1) & 0xFFFFFFFF) + whole[-4:]
    if case == "name_without_nul":  # the name runs to the end of the file, trailer and all
        return whole[:3] + bytes([FNAME]) + whole[4:10] + whole[10:].replace(b"\0", b"n")
    if case == "isize_repeated_after_the_member":  # the file's last 4 bytes are still the ISIZE
        return whole + whole[-4:]
    # Two members whose last trailer speaks for the whole file.
    assert case == "two_members_posing_as_one"
    return _gzip_member(blob[:cut]) + _gzip_member(blob[cut:])[:-8] + struct.pack("<II", crc, len(blob))


HAND_BUILT = [
    "stored_block",
    "fixed_block",
    "dynamic_block_empty_distance_code",
    "distance_too_far_back",
    "one_byte_short",
    "bytes_between_stream_and_trailer",
    "isize_off_by_one",
    "crc_off_by_one",
    "two_members_posing_as_one",
    "name_without_nul",
    "isize_repeated_after_the_member",
]


@pytest.mark.parametrize("case", HAND_BUILT)
def test_both_inflate_engines_end_a_hand_built_stream_alike(tmp_path, case):
    vol = _compressible()
    blob = write_volume(vol, tmp_path / "plain.nii").read_bytes()
    path = tmp_path / "hand.nii.gz"
    path.write_bytes(_hand_built(case, blob))
    assert path.stat().st_size <= vol.data.nbytes
    fast = [_outcome(read, path) for read in (read_volume, read_grid)]
    with _zlib_only():
        assert [_outcome(read, path) for read in (read_volume, read_grid)] == fast
    valid = case in ("stored_block", "fixed_block", "dynamic_block_empty_distance_code")
    assert (fast[0][0] is None) is valid, fast
    if valid:
        np.testing.assert_array_equal(read_volume(path).data, vol.data)
    else:
        assert fast[0][0] is IoFailure and "cannot decompress" in fast[0][1]


@pytest.mark.parametrize("case", [c for c in HAND_BUILT if c not in ("isize_off_by_one", "name_without_nul")])
def test_libdeflate_sees_every_hand_built_stream_whose_trailer_fits(tmp_path, case, deflate_calls):
    blob = write_volume(_compressible(), tmp_path / "plain.nii").read_bytes()
    path = tmp_path / "hand.nii.gz"
    path.write_bytes(_hand_built(case, blob))
    _outcome(read_volume, path)
    assert len(deflate_calls) == 1


def _canonical_files(tmp_path):
    """Gzip files of one compressible volume that the fast path hands to
    libdeflate, by name. It refuses reserved flag bits, which the zlib reader
    ignores; a 64 KiB extra field crosses the zlib reader's first file read."""
    vol = _compressible((48, 40, 30), np.int16)
    blob = write_volume(vol, tmp_path / "plain.nii").read_bytes()
    files = {"write_volume": write_volume(vol, tmp_path / "written.nii.gz")}
    with gzip.GzipFile(tmp_path / "named.nii.gz", "wb") as gz:  # stores the file name (FNAME)
        gz.write(blob)
    files["gzip_file_name"] = tmp_path / "named.nii.gz"
    members = {
        name: _gzip_member(blob, flags=flags, extra=b"ab", name=b"n", comment=b"c")
        for name, flags in (("extra", FEXTRA), ("comment", FCOMMENT), ("header_crc", FHCRC), ("all", 0x1E))
    }
    members["reserved_flag_bits"] = _gzip_member(blob, flags=0xE0)
    members["wrong_header_crc"] = _gzip_member(blob, flags=FHCRC, header_crc=b"\xff\xff")
    members["extra_across_the_first_read"] = _gzip_member(blob, flags=FEXTRA, extra=b"e" * 0xFFFF)
    for name, member in members.items():
        files[name] = tmp_path / f"{name}.nii.gz"
        files[name].write_bytes(member)
    return vol, files


def test_the_fast_path_takes_every_canonical_member(tmp_path, deflate_calls):
    vol, files = _canonical_files(tmp_path)
    for name, path in files.items():
        deflate_calls.clear()
        np.testing.assert_array_equal(read_volume(path).data, vol.data, err_msg=name)
        assert len(deflate_calls) == 1, name
    deflate_calls.clear()
    read_grid(files["write_volume"])
    assert deflate_calls == []


def _not_canonical(tmp_path):
    """Gzip files the fast path leaves to the zlib reader, by name, each with
    the volume it reads as."""
    vol = _compressible()
    blob = write_volume(vol, tmp_path / "plain.nii").read_bytes()
    one = _gzip_member(blob)
    noise = Volume(data=np.random.default_rng(4).integers(0, 256, (32, 32, 8), dtype=np.uint8), affine=np.eye(4))
    big_extension = bytearray(blob[:348] + bytes(4 + (64 << 10) + 4) + blob[352:])
    struct.pack_into("<f", big_extension, OFF_VOX_OFFSET, 352.0 + (64 << 10) + 4)
    wide = _compressible(dtype=np.int16)
    unaligned = bytearray(write_volume(wide, tmp_path / "wide.nii").read_bytes())
    unaligned[352:352] = b"\0"  # a 1-byte extension block puts the payload at an odd offset
    struct.pack_into("<f", unaligned, OFF_VOX_OFFSET, 353.0)
    return {
        "two_members": (vol, _gzip_member(blob[:5000]) + _gzip_member(blob[5000:])),
        "nul_padding": (vol, one + b"\0" * 4),
        "trailing_member_of_zeros": (vol, one + _gzip_member(bytes(4096))),
        "extension_over_the_limit": (vol, _gzip_member(bytes(big_extension))),
        "larger_than_the_payload": (noise, gzip.compress(write_volume(noise, tmp_path / "n.nii").read_bytes())),
        "unaligned_payload": (wide, _gzip_member(bytes(unaligned))),
    }


@pytest.mark.parametrize("case", ["two_members", "nul_padding", "trailing_member_of_zeros",
                                  "extension_over_the_limit", "larger_than_the_payload", "unaligned_payload"])
def test_the_fast_path_leaves_other_files_to_the_zlib_reader(tmp_path, case, deflate_calls):
    vol, stream = _not_canonical(tmp_path)[case]
    path = tmp_path / "other.nii.gz"
    path.write_bytes(stream)
    np.testing.assert_array_equal(read_volume(path).data, vol.data)
    assert deflate_calls == []


def test_the_fast_path_peaks_at_the_payload_plus_the_compressed_file(tmp_path, deflate_calls):
    data = np.zeros((128, 128, 80), dtype=np.float32)
    data[32:96, 32:96, 16:64] = np.random.default_rng(2).normal(100.0, 20.0, size=(64, 64, 48))
    path = write_volume(Volume(data=data, affine=np.eye(4)), tmp_path / "c.nii.gz")
    back, peak = _traced_peak(lambda: read_volume(path))
    np.testing.assert_array_equal(back.data, data)
    assert len(deflate_calls) == 1
    assert peak <= data.nbytes + path.stat().st_size + (1 << 20)


def test_a_failed_decompressor_allocation_leaves_the_file_to_the_zlib_reader(tmp_path, deflate_calls, monkeypatch):
    vol, files = _canonical_files(tmp_path)
    monkeypatch.setattr(nifti._libdeflate(), "libdeflate_alloc_decompressor", lambda: None)  # NULL
    np.testing.assert_array_equal(read_volume(files["write_volume"]).data, vol.data)
    assert deflate_calls == []


@pytest.mark.parametrize("failure", ["library_missing", "function_missing"])
def test_without_libdeflate_the_zlib_reader_reads_every_file_after_one_try(tmp_path, failure):
    vol, files = _canonical_files(tmp_path)
    expected = {name: read_volume(path).data for name, path in files.items()}
    real, tries = ctypes.CDLL, []

    def load(name, *args, **kwargs):
        tries.append(name)
        if failure == "library_missing":
            raise OSError(f"{name}: cannot open shared object file: No such file or directory")
        lib = real(name, *args, **kwargs)  # the library, less libdeflate_gzip_decompress_ex
        kept = ("libdeflate_alloc_decompressor", "libdeflate_free_decompressor")
        return SimpleNamespace(**{function: getattr(lib, function) for function in kept})

    nifti._libdeflate.cache_clear()
    try:
        with mock.patch.object(ctypes, "CDLL", load):
            for _ in range(2):
                for name, path in files.items():
                    np.testing.assert_array_equal(read_volume(path).data, expected[name], err_msg=name)
            assert nifti._libdeflate() is None
    finally:
        nifti._libdeflate.cache_clear()
    assert tries == ["libdeflate.so.0"]


def test_importing_the_package_loads_no_inflate_library(tmp_path):
    # In a fresh interpreter: nothing before the first gzip read, the library
    # (where it loads) after it.
    code = (
        "import sys, numpy as np, brainorch\n"
        "from brainorch import nifti\n"
        "def mapped():\n"
        "    try:\n"
        "        return 'libdeflate' in open('/proc/self/maps').read()\n"
        "    except OSError:\n"
        "        return False\n"
        "before = nifti._libdeflate.cache_info().currsize, mapped()\n"
        "nifti.read_volume(nifti.write_volume(nifti.Volume(np.zeros((8, 8, 8)), np.eye(4)), sys.argv[1]))\n"
        "print(*before, nifti._libdeflate() is not None, mapped())\n"
    )
    src = str(Path(nifti.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "z.nii.gz")], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    loads_before, mapped_before, loaded, mapped = run.stdout.split()
    assert (loads_before, mapped_before) == ("0", "False")
    assert loaded == str(nifti._libdeflate() is not None)
    if Path("/proc/self/maps").exists():
        assert mapped == loaded


# -- hostile inputs ------------------------------------------------------------


def _traced_peak(call):
    """What ``call()`` returns and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_small_gzip_declaring_a_large_payload_fails_before_allocating(tmp_path):
    # A 240x240x155 float64 header over 10 MB of zeros, 9.8 KB of gzip: the
    # 71 MB payload cannot fit in what the file can inflate to.
    header = bytearray(_nifti_bytes(tmp_path, _patched(OFF_DIM, "<8h", 3, 240, 240, 155, 1, 1, 1, 1))[:352])
    struct.pack_into("<2h", header, OFF_DATATYPE, 64, 64)
    path = tmp_path / "bomb.nii.gz"
    path.write_bytes(gzip.compress(bytes(header) + bytes(10_000_000), mtime=0))
    assert 9_000 < path.stat().st_size < 10_000
    for read in (read_volume, read_grid):
        (kind, message), peak = _traced_peak(lambda: _outcome(read, path))
        assert kind is TruncatedData
        assert peak < 1 << 20
        assert "needs 71424000 bytes" in message and "can decode to at most" in message


def _gzip_member_of_zeros(mib: int) -> bytes:
    """A gzip member that inflates to ``mib`` MiB of zeros: one compressed
    MiB, ended by a full flush so it references nothing before it, repeated,
    then an empty last block and the trailer."""
    zeros = bytes(1 << 20)
    deflate = zlib.compressobj(9, zlib.DEFLATED, -15)
    block = deflate.compress(zeros) + deflate.flush(zlib.Z_FULL_FLUSH)
    crc = 0
    for _ in range(mib):
        crc = zlib.crc32(zeros, crc)
    last = zlib.compressobj(9, zlib.DEFLATED, -15).flush()
    header = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\xff"
    return header + block * mib + last + struct.pack("<II", crc, (mib << 20) & 0xFFFFFFFF)


def test_trailing_zeros_after_the_payload_are_inflated_in_bounded_pieces(tmp_path):
    # 1 MB of gzip: a valid 4 KB volume, then a member holding 1 GiB of zeros.
    vol = Volume(data=np.arange(1024, dtype=np.float32).reshape((16, 16, 4)), affine=np.eye(4))
    path = tmp_path / "trailing.nii.gz"
    member = gzip.compress(write_volume(vol, tmp_path / "v.nii").read_bytes(), mtime=0)
    path.write_bytes(member + _gzip_member_of_zeros(1024))
    assert path.stat().st_size < 1_100_000
    back, peak = _traced_peak(lambda: read_volume(path))
    np.testing.assert_array_equal(back.data, vol.data)
    assert peak < 8_000_000


def test_gzip_read_peaks_at_the_payload_plus_a_few_pieces(tmp_path):
    data = np.zeros((128, 128, 80), dtype=np.float32)
    data[32:96, 32:96, 16:64] = np.random.default_rng(2).normal(100.0, 20.0, size=(64, 64, 48))
    path = write_volume(Volume(data=data, affine=np.eye(4)), tmp_path / "c.nii.gz")
    back, peak = _traced_peak(lambda: read_volume(path))
    np.testing.assert_array_equal(back.data, data)
    assert peak <= data.nbytes + (4 << 20)


@pytest.mark.parametrize("compress", [False, True], ids=["nii", "gz"])
def test_payload_over_the_ceiling_is_refused_before_allocating(tmp_path, compress):
    blob = _nifti_bytes(tmp_path, _patched(OFF_DIM, "<8h", 3, 2048, 1024, 1025, 1, 1, 1, 1))
    assert 2048 * 1024 * 1025 * 2 > MAX_PAYLOAD_BYTES  # int16 voxels
    path = tmp_path / "huge.nii"
    path.write_bytes(gzip.compress(blob, mtime=0) if compress else blob)
    for read in (read_volume, read_grid):
        (kind, message), peak = _traced_peak(lambda: _outcome(read, path))
        assert kind is UnsupportedDatatype
        assert f"exceeds {MAX_PAYLOAD_BYTES} bytes" in message
        assert peak < 1 << 20


def test_the_payload_ceiling_is_inclusive(tmp_path, monkeypatch):
    path = write_volume(simple_volume(np.int16), tmp_path / "v.nii")  # 120-byte payload
    monkeypatch.setattr(nifti, "MAX_PAYLOAD_BYTES", 120)
    np.testing.assert_array_equal(read_volume(path).data, simple_volume(np.int16).data)
    monkeypatch.setattr(nifti, "MAX_PAYLOAD_BYTES", 119)
    with pytest.raises(UnsupportedDatatype, match="120-byte payload exceeds 119 bytes"):
        read_volume(path)


_F32 = st.floats(width=32)
_I16 = st.integers(-(2**15), 2**15 - 1)
_HEADER_FIELDS = {  # offset, format, strategy of the values
    "dim": (OFF_DIM, "<8h", st.tuples(st.integers(-1, 8), *[st.integers(1, 4) | _I16] * 7)),
    "datatype_bitpix": (
        OFF_DATATYPE,
        "<2h",
        st.sampled_from([(2, 8), (4, 16), (8, 32), (16, 32), (64, 64)]) | st.tuples(_I16, _I16),
    ),
    "pixdim": (OFF_PIXDIM, "<8f", st.tuples(*[_F32] * 8)),
    "vox_offset": (
        OFF_VOX_OFFSET, "<f", st.sampled_from([348.0, 352.0, 356.0, 1e9, np.nan, np.inf, -np.inf]) | _F32
    ),
    "scl": (OFF_SCL_SLOPE, "<2f", st.tuples(_F32, _F32)),
    "codes": (OFF_QFORM_CODE, "<2h", st.tuples(st.integers(-1, 3), st.integers(-1, 3))),
    "quatern": (OFF_QUATERN_B, "<6f", st.tuples(*[_F32] * 6)),
    "srow": (OFF_SROW_X, "<12f", st.tuples(*[_F32] * 12)),
}


def draw_damage(draw, blob: bytes) -> bytes:
    """``blob``, the bytes of an uncompressed volume, with some header fields
    redrawn, then maybe gzipped, and maybe cut short or with one byte
    flipped. ``draw`` is Hypothesis's draw function."""
    blob = bytearray(blob)
    for name in draw(st.sets(st.sampled_from(sorted(_HEADER_FIELDS)), max_size=3)):
        offset, fmt, values = _HEADER_FIELDS[name]
        value = draw(values)
        struct.pack_into(fmt, blob, offset, *(value if isinstance(value, tuple) else (value,)))
    if draw(st.booleans()):
        blob = bytearray(gzip.compress(bytes(blob), mtime=0))
    damage = draw(st.sampled_from(["none", "none", "cut", "flip"]))
    at = draw(st.integers(0, len(blob) - 1))
    if damage == "cut":
        blob = blob[:at]
    elif damage == "flip":
        blob[at] ^= draw(st.integers(1, 255))
    return bytes(blob)


@st.composite
def hostile_files(draw):
    """A small valid volume, damaged by :func:`draw_damage`."""
    return draw_damage(draw, crafted_bytes("<"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 while scaling a hostile slope
# No explain phase: explaining a failure of this test takes minutes.
@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(blob=hostile_files())
def test_hostile_files_raise_a_typed_error_or_read_a_valid_volume(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "hostile.nii"
    path.write_bytes(blob)
    expected = _outcome(read_volume, path)
    assert expected[0] is None or issubclass(expected[0], BrainorchError), expected
    assert _outcome(read_grid, path) == expected
    if expected[0] is None:
        vol = read_volume(path)
        shape, affine = read_grid(path)
        assert vol.shape == shape and np.array_equal(vol.affine, affine)
        assert np.isfinite(affine).all() and not vol.data.flags.writeable


# -- rank handling -----------------------------------------------------------


def test_four_d_with_singleton_trailing_dim_reads(tmp_path):
    path = write_volume(simple_volume(np.int16), tmp_path / "4d.nii")
    patch(path, OFF_DIM, "<8h", 4, 3, 4, 5, 1, 1, 1, 1)
    vol = read_volume(path)
    assert vol.shape == (3, 4, 5)


def test_four_d_with_real_fourth_dim_rejected(tmp_path):
    path = write_volume(simple_volume(np.int16), tmp_path / "4dbad.nii")
    patch(path, OFF_DIM, "<8h", 4, 3, 4, 5, 2, 1, 1, 1)
    with pytest.raises(UnsupportedDatatype, match="4-D"):
        read_volume(path)


def test_rank_two_file_fills_singleton_axes(tmp_path):
    path = write_volume(simple_volume(np.int16, shape=(5, 4, 1)), tmp_path / "2d.nii")
    patch(path, OFF_DIM, "<8h", 2, 5, 4, 1, 1, 1, 1, 1)
    assert read_volume(path).shape == (5, 4, 1)


# -- extension blocks and rewrites -------------------------------------------


def test_a_large_extension_block_is_skipped_not_held(tmp_path):
    # A 64 MiB extension block in a gzip of about 66 KB; real blocks are a few KB.
    size = (64 << 20) + 4  # keeps vox_offset exact in float32
    crafted = bytearray(crafted_bytes("<"))
    struct.pack_into("<f", crafted, OFF_VOX_OFFSET, 348.0 + size)
    extension = bytearray(size)
    extension[:20] = b"\x01\x00\x00\x00" + struct.pack("<2i", 16, 4) + b"payload!"
    extension[-4:] = b"tail"
    path = tmp_path / "ext.nii.gz"
    with gzip.GzipFile(path, "wb", mtime=0) as gz:
        gz.write(crafted[:348])
        gz.write(extension)
        gz.write(crafted[352:])
    assert path.stat().st_size < 100_000
    tracemalloc.start()
    try:
        vol = read_volume(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= vol.data.nbytes + (4 << 20)
    # What the returned volume keeps: its voxels, its affine and a few Python objects.
    assert held <= vol.data.nbytes + (64 << 10), f"{held} bytes held"
    np.testing.assert_array_equal(vol.data, np.arange(8, dtype=np.int16).reshape((2, 2, 2), order="F"))


def test_a_rewrite_writes_the_fresh_header_of_its_voxels_and_affine(tmp_path):
    # Big-endian, with an extension block and a descrip note (at byte 148):
    # none of it reaches a rewrite.
    blob = bytearray(crafted_bytes(">"))
    extension = b"\x01\x00\x00\x00" + struct.pack(">2i", 16, 4) + b"payload!"
    struct.pack_into(">f", blob, OFF_VOX_OFFSET, 348.0 + len(extension))
    note = b"scanner xyz protocol 7"
    blob[148 : 148 + len(note)] = note
    path = tmp_path / "be-ext.nii"
    path.write_bytes(bytes(blob[:348]) + extension + bytes(blob[352:]))
    vol = read_volume(path)
    fresh = Volume(data=np.arange(8, dtype=np.int16).reshape((2, 2, 2), order="F"), affine=np.eye(4))
    for suffix in (".nii", ".nii.gz"):
        rewritten = write_volume(vol, tmp_path / f"rewritten{suffix}")
        assert rewritten.read_bytes() == write_volume(fresh, tmp_path / f"fresh{suffix}").read_bytes()
    written = (tmp_path / "rewritten.nii").read_bytes()
    assert struct.unpack_from("<i", written, 0)[0] == 348 and note not in written


# -- streaming writes ----------------------------------------------------------


def _one_shot(vol, path, dtype=None):
    """What :func:`write_volume` must write to ``path``: header, extender and
    the whole payload in one piece, gzipped in one call for a ``.gz`` name."""
    target = np.dtype(dtype) if dtype is not None else vol.data.dtype
    payload = vol.data.astype(target.newbyteorder("<")).tobytes(order="F")
    blob = nifti._build_header(vol, nifti._DTYPE_TO_CODE[target]) + payload
    if not path.name.endswith(".gz"):
        return blob
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", compresslevel=6, mtime=0) as gz:
        gz.write(blob)
    return buf.getvalue()


_NOISE = np.random.default_rng(5).normal(100.0, 20.0, size=(40, 30, 12))
_LABELS = np.random.default_rng(6).integers(0, 4, size=(40, 30, 12), dtype=np.uint8)
# (volume, dtype override) to write.
WRITE_CASES = {
    "float32_c_order": (Volume(data=_NOISE.astype(np.float32), affine=np.eye(4)), None),
    "float32_f_order": (Volume(data=np.asfortranarray(_NOISE, dtype=np.float32), affine=np.eye(4)), None),
    "float64_as_float32": (Volume(data=_NOISE, affine=np.eye(4)), np.float32),
    "uint8_mask_c_order": (Volume(data=_LABELS, affine=np.eye(4)), np.uint8),
    "int16_strided_view": (Volume(data=_LABELS.astype(np.int16)[::2, ::-1, 1::3], affine=np.eye(4)), None),
}


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("case", sorted(WRITE_CASES))
def test_streamed_write_equals_the_one_shot_bytes(tmp_path, case, suffix):
    vol, dtype = WRITE_CASES[case]
    path = write_volume(vol, tmp_path / f"out{suffix}", dtype=dtype)
    assert path.read_bytes() == _one_shot(vol, path, dtype)
    np.testing.assert_array_equal(read_volume(path).data, vol.data.astype(dtype or vol.data.dtype))


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_a_canonical_float32_write_peaks_below_4_mib(tmp_path, suffix):
    data = np.zeros((240, 240, 155), dtype=np.float32)
    data[60:180, 60:180, 40:120] = np.random.default_rng(4).normal(100.0, 20.0, size=(120, 120, 80))
    vol = Volume(data=data, affine=np.eye(4))
    path, peak = _traced_peak(lambda: write_volume(vol, tmp_path / f"big{suffix}"))
    assert peak <= 4 << 20
    np.testing.assert_array_equal(read_volume(path).data, data)


def test_a_refused_write_leaves_no_file(tmp_path):
    vol = Volume(data=np.full((2, 2, 2), 0.5), affine=np.eye(4))
    for name in ("x.nii", "x.nii.gz"):
        with pytest.raises(UnrepresentableData):
            write_volume(vol, tmp_path / name, dtype=np.uint8)
        assert not (tmp_path / name).exists()
    with pytest.raises(IoFailure, match="cannot write"):
        write_volume(vol, tmp_path / "absent" / "x.nii.gz")


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("case", sorted(WRITE_CASES))
def test_planes_fed_one_by_one_give_the_bytes_of_the_volume(tmp_path, case, suffix):
    vol, dtype = WRITE_CASES[case]
    dtype = dtype or vol.data.dtype
    grid = SimpleNamespace(shape=vol.shape, spacing=vol.spacing, affine=vol.affine)
    columns = (vol.data[:, :, k].reshape(-1, order="F") for k in range(vol.shape[2]))
    path = write_volume(grid, tmp_path / f"out{suffix}", dtype=dtype, planes=columns)
    assert path.read_bytes() == _one_shot(vol, path, dtype)


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_planes_that_fail_or_fall_short_leave_no_file(tmp_path, suffix):
    vol = Volume(data=np.ones((4, 3, 5), dtype=np.float32), affine=np.eye(4))
    error = RuntimeError("warp failed")

    def failing():
        yield vol.data[:, :, 0]
        raise error

    path = tmp_path / f"x{suffix}"
    with pytest.raises(RuntimeError) as excinfo:
        write_volume(vol, path, dtype=np.float32, planes=failing())
    assert excinfo.value is error
    assert not path.exists()
    with pytest.raises(ValueError, match=r"hold 48 voxels, the grid \(4, 3, 5\) 60"):
        write_volume(vol, path, dtype=np.float32, planes=iter([vol.data[:, :, 0]] * 4))
    assert not path.exists()


def test_planes_without_a_dtype_are_refused_before_the_file_is_opened(tmp_path):
    grid = SimpleNamespace(shape=(4, 3, 5), spacing=np.ones(3), affine=np.eye(4))
    path = tmp_path / "x.nii.gz"
    with pytest.raises(ValueError, match="needs a dtype"):
        write_volume(grid, path, planes=iter([np.ones((4, 3), dtype=np.float32)] * 5))
    assert not path.exists()


# -- unrepresentable writes --------------------------------------------------


def test_fractional_values_rejected_for_integer_target(tmp_path):
    vol = Volume(data=np.full((2, 2, 2), 0.5), affine=np.eye(4))
    with pytest.raises(UnrepresentableData, match="non-integral"):
        write_volume(vol, tmp_path / "x.nii", dtype=np.uint8)


def test_out_of_range_values_rejected_for_integer_target(tmp_path):
    vol = Volume(data=np.full((2, 2, 2), 300.0), affine=np.eye(4))
    with pytest.raises(UnrepresentableData, match="range"):
        write_volume(vol, tmp_path / "x.nii", dtype=np.uint8)


def test_negative_values_rejected_for_uint8(tmp_path):
    vol = Volume(data=np.full((2, 2, 2), -1, dtype=np.int32), affine=np.eye(4))
    with pytest.raises(UnrepresentableData):
        write_mask(vol, tmp_path / "x.nii")


def test_nonfinite_values_rejected_for_integer_target(tmp_path):
    vol = Volume(data=np.full((2, 2, 2), np.nan), affine=np.eye(4))
    with pytest.raises(UnrepresentableData, match="non-finite"):
        write_volume(vol, tmp_path / "x.nii", dtype=np.int32)


def test_integral_floats_accepted_for_integer_target(tmp_path):
    vol = Volume(data=np.full((2, 2, 2), 3.0), affine=np.eye(4))
    path = write_volume(vol, tmp_path / "ok.nii", dtype=np.uint8)
    back = read_volume(path)
    assert back.data.dtype == np.uint8
    assert back.data.max() == 3


def test_unsupported_write_dtype_rejected(tmp_path):
    vol = Volume(data=np.zeros((2, 2, 2), dtype=np.int64), affine=np.eye(4))
    with pytest.raises(UnsupportedDatatype):
        write_volume(vol, tmp_path / "x.nii")


def test_extent_beyond_int16_rejected(tmp_path):
    vol = Volume(data=np.zeros((40000, 1, 1), dtype=np.uint8), affine=np.eye(4))
    with pytest.raises(UnrepresentableData, match="extent"):
        write_volume(vol, tmp_path / "big.nii")


# -- Volume construction guards ----------------------------------------------


def test_volume_requires_3d():
    with pytest.raises(ValueError, match="3-D"):
        Volume(data=np.zeros((2, 2)), affine=np.eye(4))


def test_volume_requires_4x4_affine():
    with pytest.raises(ValueError, match="4x4"):
        Volume(data=np.zeros((2, 2, 2)), affine=np.eye(3))


def test_volume_rejects_bad_bottom_row():
    affine = np.eye(4)
    affine[3, 0] = 0.5
    with pytest.raises(ValueError, match="bottom row"):
        Volume(data=np.zeros((2, 2, 2)), affine=affine)


def test_volume_rejects_singular_affine():
    affine = np.eye(4)
    affine[0, 0] = 0.0
    with pytest.raises(ValueError, match="invertible"):
        Volume(data=np.zeros((2, 2, 2)), affine=affine)


@pytest.mark.parametrize("entry", [(0, 3), (2, 2), (3, 3)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_volume_rejects_non_finite_affine(entry, value):
    affine = np.eye(4)
    affine[entry] = value
    with pytest.raises(ValueError, match="affine must be finite"):
        Volume(data=np.zeros((2, 2, 2)), affine=affine)


# -- property: write/read is the identity ------------------------------------


@st.composite
def volume_strategy(draw):
    shape = draw(
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    )
    dtype = draw(st.sampled_from([np.uint8, np.int16, np.int32, np.float32, np.float64]))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.integer):
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, size=shape, endpoint=True).astype(dtype)
    else:
        data = rng.normal(0.0, 1e3, size=shape).astype(dtype)
    # srow fields are float32 on disk, so draw the affine there too
    spacing = draw(st.sampled_from([0.5, 1.0, 2.0]))
    origin = np.asarray(
        draw(st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))),
        dtype=np.float32,
    )
    affine = np.diag([spacing, spacing, spacing, 1.0])
    affine[:3, 3] = origin
    return Volume(data=data, affine=affine)


@settings(max_examples=30, deadline=None)
@given(vol=volume_strategy(), compress=st.booleans())
def test_round_trip_property(tmp_path_factory, vol, compress):
    tmp = tmp_path_factory.mktemp("prop")
    suffix = ".nii.gz" if compress else ".nii"
    back = read_volume(write_volume(vol, tmp / f"v{suffix}"))
    assert back.data.dtype == vol.data.dtype
    np.testing.assert_array_equal(back.data, vol.data)
    np.testing.assert_array_equal(back.affine, vol.affine)
