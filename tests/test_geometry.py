"""Transforms, grids, and resampling against brute-force oracles."""

from __future__ import annotations

import copy
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from brainorch.errors import (
    DegenerateGrid,
    MalformedTransform,
    SingularTransform,
    SpaceMismatch,
)
from brainorch.geometry import (
    AffineTransform,
    GridSpec,
    _resample,
    compose,
    invert_affine,
    inverse_warp_image_to_native,
    inverse_warp_to_native,
    read_transform,
    resample_image,
    resample_mask,
    write_transform,
)
from brainorch.fusion import CandidateSet, fuse
from brainorch.metrics import connected_components, prepare_reference
from brainorch.nifti import Volume
from brainorch.registry import Label

import oracles


def identity_transform(source="native", target="SRI24", matrix=None):
    return AffineTransform(
        matrix=np.eye(4) if matrix is None else matrix,
        source_space=source,
        target_space=target,
    )


def translation(t, source="native", target="SRI24"):
    m = np.eye(4)
    m[:3, 3] = t
    return AffineTransform(matrix=m, source_space=source, target_space=target)


def cube_mask(shape=(8, 8, 8), lo=2, hi=5):
    data = np.zeros(shape, dtype=np.uint8)
    data[lo:hi, lo:hi, lo:hi] = 1
    return data


# -- transform algebra -------------------------------------------------------


def test_unknown_space_tag_rejected():
    with pytest.raises(SpaceMismatch, match="space tag"):
        identity_transform(source="talairach")


def test_bad_matrix_shape_rejected():
    with pytest.raises(MalformedTransform, match="4x4"):
        AffineTransform(matrix=np.eye(3), source_space="native", target_space="SRI24")


def test_bad_bottom_row_rejected():
    m = np.eye(4)
    m[3, 1] = 0.25
    with pytest.raises(MalformedTransform, match="bottom row"):
        AffineTransform(matrix=m, source_space="native", target_space="SRI24")


def test_singular_matrix_rejected():
    m = np.eye(4)
    m[1, 1] = 0.0
    with pytest.raises(SingularTransform):
        AffineTransform(matrix=m, source_space="native", target_space="SRI24")


def test_invert_swaps_tags_and_inverts_matrix():
    fwd = translation((3.0, -2.0, 1.0), source="native", target="MNI152")
    inv = invert_affine(fwd)
    assert (inv.source_space, inv.target_space) == ("MNI152", "native")
    np.testing.assert_allclose(inv.matrix @ fwd.matrix, np.eye(4), atol=1e-12)


def test_compose_chains_tags_and_matrices():
    a = translation((1.0, 0.0, 0.0), source="native", target="SRI24")
    b = translation((0.0, 2.0, 0.0), source="SRI24", target="MNI152")
    c = compose(b, a)
    assert (c.source_space, c.target_space) == ("native", "MNI152")
    np.testing.assert_allclose(c.matrix, b.matrix @ a.matrix)


def test_compose_tag_mismatch_rejected():
    a = translation((1.0, 0.0, 0.0), source="native", target="SRI24")
    b = translation((0.0, 2.0, 0.0), source="MNI152", target="native")
    with pytest.raises(SpaceMismatch, match="compose"):
        compose(b, a)


def test_transform_matrix_is_frozen():
    t = identity_transform()
    with pytest.raises((ValueError, RuntimeError)):
        t.matrix[0, 0] = 5.0


# -- grids ---------------------------------------------------------------


def test_grid_spacing_from_affine():
    affine = np.diag([0.5, 2.0, 3.0, 1.0])
    grid = GridSpec(shape=(4, 4, 4), affine=affine)
    np.testing.assert_allclose(grid.spacing, [0.5, 2.0, 3.0])


def test_grid_rejects_bad_extents():
    with pytest.raises(DegenerateGrid, match="positive"):
        GridSpec(shape=(4, 0, 4), affine=np.eye(4))
    with pytest.raises(DegenerateGrid, match="3 extents"):
        GridSpec(shape=(4, 4), affine=np.eye(4))


def test_grid_rejects_singular_affine():
    affine = np.eye(4)
    affine[2, 2] = 0.0
    with pytest.raises(DegenerateGrid, match="singular"):
        GridSpec(shape=(4, 4, 4), affine=affine)


@pytest.mark.parametrize("entry", [(0, 3), (1, 1), (2, 0)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_grid_and_transform_reject_non_finite_affines(entry, value):
    affine = np.eye(4)
    affine[entry] = value
    with pytest.raises(DegenerateGrid, match="grid affine must be finite"):
        GridSpec(shape=(4, 4, 4), affine=affine)
    with pytest.raises(MalformedTransform, match="transform matrix must be finite"):
        identity_transform(matrix=affine)


def test_grid_from_volume():
    vol = Volume(data=np.zeros((3, 4, 5), dtype=np.uint8), affine=np.diag([2.0, 2.0, 2.0, 1.0]))
    grid = GridSpec.from_volume(vol)
    assert grid.shape == (3, 4, 5)
    np.testing.assert_array_equal(grid.affine, vol.affine)


def test_no_public_type_raises_on_equality():
    affine = np.diag([1.0, 1.0, 2.0, 1.0])
    assert GridSpec((3, 4, 5), affine) == GridSpec((3, 4, 5), affine.copy())
    assert GridSpec((3, 4, 5), affine) != GridSpec((3, 4, 6), affine)
    assert GridSpec((3, 4, 5), affine) != GridSpec((3, 4, 5), np.eye(4))
    assert identity_transform(matrix=affine) == identity_transform(matrix=affine.copy())
    assert identity_transform(matrix=affine) != identity_transform()
    assert identity_transform() != identity_transform(source="SRI24", target="native")
    assert GridSpec((4, 4, 4), np.eye(4)) != identity_transform()

    mask = np.zeros((4, 4, 4), dtype=np.uint8)
    mask[1:3, 1:3, 1:3] = 1
    vol = Volume(data=mask, affine=affine)
    candidates = CandidateSet.from_volumes([vol, Volume(data=mask.copy(), affine=affine)])
    records = [
        vol,
        candidates,
        fuse(candidates),
        connected_components(mask),
        prepare_reference(mask, (Label(1, "L1"),), (1.0, 1.0, 2.0)),
    ]
    for record in records:  # records holding arrays compare by identity
        assert record == record
        assert record != copy.copy(record)


def test_equal_grids_and_transforms_hash_equal():
    affine = np.diag([1.0, 1.0, 2.0, 1.0])
    grid, same = GridSpec((3, 4, 5), affine), GridSpec((3, 4, 5), affine.copy())
    assert hash(grid) == hash(same)
    assert len({grid, same, GridSpec((3, 4, 5), np.eye(4))}) == 2
    transform, twin = identity_transform(matrix=affine), identity_transform(matrix=affine.copy())
    assert hash(transform) == hash(twin)
    assert len({transform, twin, identity_transform()}) == 2
    assert {grid: "grid"}[same] == "grid"


# -- mask resampling ---------------------------------------------------------


def test_identity_resample_is_identity():
    mask = cube_mask()
    vol = Volume(data=mask, affine=np.eye(4))
    out = resample_mask(vol, identity_transform(), GridSpec.from_volume(vol))
    np.testing.assert_array_equal(out.data, mask)


def test_integer_translation_matches_shift_oracle():
    mask = cube_mask()
    vol = Volume(data=mask, affine=np.eye(4))
    out = resample_mask(vol, translation((2.0, -1.0, 3.0)), GridSpec.from_volume(vol))
    np.testing.assert_array_equal(out.data, oracles.shift_mask(mask, (2, -1, 3)))


def test_translation_in_anisotropic_spacing():
    # 2 mm world shift along x is exactly one voxel on a 2 mm grid
    mask = cube_mask()
    affine = np.diag([2.0, 2.0, 2.0, 1.0])
    vol = Volume(data=mask, affine=affine)
    out = resample_mask(vol, translation((2.0, 0.0, 0.0)), GridSpec.from_volume(vol))
    np.testing.assert_array_equal(out.data, oracles.shift_mask(mask, (1, 0, 0)))


def test_rotation_about_center_moves_single_voxel():
    data = np.zeros((9, 9, 9), dtype=np.uint8)
    data[6, 4, 4] = 1
    vol = Volume(data=data, affine=np.eye(4))
    # 90 degree z rotation about world point (4,4,4)
    world = np.array(
        [
            [0.0, -1.0, 0.0, 8.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    out = resample_mask(vol, identity_transform(matrix=world), GridSpec.from_volume(vol))
    expected = np.zeros_like(data)
    expected[4, 6, 4] = 1
    np.testing.assert_array_equal(out.data, expected)


def test_out_of_grid_content_becomes_background():
    mask = np.ones((4, 4, 4), dtype=np.uint8)
    vol = Volume(data=mask, affine=np.eye(4))
    out = resample_mask(vol, translation((3.0, 0.0, 0.0)), GridSpec.from_volume(vol))
    assert out.data[:3].sum() == 0
    assert (out.data[3:] == 1).all()


def test_resample_mask_rejects_float_data():
    vol = Volume(data=np.zeros((4, 4, 4), dtype=np.float32), affine=np.eye(4))
    with pytest.raises(ValueError, match="integer"):
        resample_mask(vol, identity_transform(), GridSpec.from_volume(vol))


def test_resample_output_rides_target_grid():
    mask = cube_mask()
    vol = Volume(data=mask, affine=np.eye(4))
    target_affine = np.eye(4)
    target_affine[:3, 3] = (-4.0, 0.0, 0.0)
    target = GridSpec(shape=(12, 8, 8), affine=target_affine)
    out = resample_mask(vol, identity_transform(), target)
    assert out.shape == (12, 8, 8)
    np.testing.assert_array_equal(out.affine, target.affine)
    # grid origin moved -4 in x, so content appears 4 voxels later
    np.testing.assert_array_equal(out.data[6:9, 2:5, 2:5], 1)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shift=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
)
def test_integer_shift_property(seed, shift):
    rng = np.random.default_rng(seed)
    mask = (rng.random((6, 6, 6)) < 0.4).astype(np.uint8) * rng.integers(1, 4)
    vol = Volume(data=mask, affine=np.eye(4))
    out = resample_mask(vol, translation(tuple(float(s) for s in shift)), GridSpec.from_volume(vol))
    np.testing.assert_array_equal(out.data, oracles.shift_mask(mask, shift))
    assert set(np.unique(out.data)) <= set(np.unique(mask)) | {0}


# -- image resampling --------------------------------------------------------


def test_trilinear_half_voxel_shift_averages():
    data = np.tile(np.arange(6, dtype=np.float64)[:, None, None], (1, 4, 4))
    vol = Volume(data=data, affine=np.eye(4))
    out = resample_image(vol, translation((0.5, 0.0, 0.0)), GridSpec.from_volume(vol))
    # interior voxel x=2 samples the ramp at 1.5
    np.testing.assert_allclose(out.data[2, 1:3, 1:3], 1.5)
    assert out.data.dtype == np.float32


def test_trilinear_identity_preserves_values():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(5, 5, 5))
    vol = Volume(data=data, affine=np.eye(4))
    out = resample_image(vol, identity_transform(), GridSpec.from_volume(vol))
    np.testing.assert_allclose(out.data, data, atol=1e-12)


# -- plane-wise evaluation against the full-grid coordinate map ---------------


def full_map_coords(source_affine, world_map, target):
    """Source coordinates of every target voxel at once, shape (3, N), by
    the elementwise rule summed left to right."""
    m = np.linalg.inv(source_affine) @ np.linalg.inv(world_map) @ target.affine
    i, j, k = np.indices(target.shape, dtype=np.float64).reshape(3, -1)
    return m[:3, 0:1] * i + m[:3, 1:2] * j + m[:3, 2:3] * k + m[:3, 3:4]


def full_map_mask(mask, world_map, target):
    """Nearest-neighbour resampling through one full-grid coordinate map."""
    data = mask.data
    nearest = np.rint(full_map_coords(mask.affine, world_map.matrix, target)).astype(np.int64)
    inside = np.ones(nearest.shape[1], dtype=bool)
    for axis in range(3):
        inside &= (nearest[axis] >= 0) & (nearest[axis] < data.shape[axis])
    out = np.zeros(int(np.prod(target.shape)), dtype=data.dtype)
    out[inside] = data[nearest[0, inside], nearest[1, inside], nearest[2, inside]]
    return out.reshape(target.shape)


def full_map_image(image, world_map, target):
    """Trilinear resampling of a float64 copy through one full-grid map, in
    float64."""
    coords = full_map_coords(image.affine, world_map.matrix, target)
    data = image.data.astype(np.float64, copy=False)
    sampled = ndimage.map_coordinates(data, coords, order=1, mode="constant", cval=0.0)
    return sampled.reshape(target.shape)


def random_affine(rng, spacing_range, shape=(1, 1, 1)):
    """A rotation about all three axes and anisotropic scaling that puts the
    centre of a grid of ``shape`` within 1 mm of the world origin."""
    a, b, c = rng.uniform(-np.pi, np.pi, size=3)
    rx = np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])
    ry = np.array([[np.cos(b), 0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0, np.cos(b)]])
    rz = np.array([[np.cos(c), -np.sin(c), 0], [np.sin(c), np.cos(c), 0], [0, 0, 1]])
    affine = np.eye(4)
    affine[:3, :3] = rx @ ry @ rz @ np.diag(rng.uniform(*spacing_range, size=3))
    affine[:3, 3] = rng.uniform(-1.0, 1.0, size=3) - affine[:3, :3] @ ((np.asarray(shape) - 1) / 2.0)
    return affine


extent = st.integers(1, 7)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    source_shape=st.tuples(extent, extent, extent),
    target_shape=st.tuples(extent, extent, extent),
    dtype=st.sampled_from(["u1", "i2", ">i2", ">f4", "<f8"]),
    order=st.sampled_from("CF"),
)
@example(seed=0, source_shape=(5, 6, 7), target_shape=(1, 6, 7), dtype="u1", order="F")
@example(seed=1, source_shape=(5, 6, 7), target_shape=(6, 7, 1), dtype=">i2", order="C")
@example(seed=2, source_shape=(5, 6, 7), target_shape=(1, 1, 7), dtype=">f4", order="F")
@example(seed=3, source_shape=(1, 1, 1), target_shape=(7, 7, 7), dtype="<f8", order="C")
def test_plane_wise_resampling_equals_the_full_grid_map(seed, source_shape, target_shape, dtype, order):
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        values = rng.normal(0.0, 100.0, size=source_shape)
    else:
        values = rng.integers(0, 6, size=source_shape)
    data = np.asarray(values.astype(dtype), order=order)
    assert data.dtype == dtype
    source = Volume(data=data, affine=random_affine(rng, (0.5, 3.0), source_shape))
    world_map = identity_transform(matrix=random_affine(rng, (0.8, 1.25)))
    target = GridSpec(shape=target_shape, affine=random_affine(rng, (0.5, 3.0), target_shape))

    assert_resampled_like_the_full_grid_map(source, world_map, target)


def assert_resampled_like_the_full_grid_map(source, world_map, target):
    """The image resamples to the full-grid map rounded once to float32, bit
    for bit; an integer source also resamples as a mask to the full-grid
    nearest-neighbour map."""
    image = resample_image(source, world_map, target)
    assert image.data.dtype == np.float32
    expected = full_map_image(source, world_map, target).astype(np.float32)
    assert np.array_equal(image.data.view(np.uint32), expected.view(np.uint32))
    if source.data.dtype.kind != "f":
        mask = resample_mask(source, world_map, target)
        expected = full_map_mask(source, world_map, target)
        assert mask.data.dtype == expected.dtype
        assert np.array_equal(mask.data, expected)


@st.composite
def sparse_sources(draw):
    """A source that is background but for a drawn sub-box of random values:
    empty, a single voxel on a grid face, or a box reaching any face, in a
    float background of +0.0 or -0.0 with an optional NaN inside the box."""
    shape = draw(st.tuples(extent, extent, extent))
    dtype = np.dtype(draw(st.sampled_from(["u1", ">i2", "<f4", ">f4", "<f8"])))
    background = -0.0 if dtype.kind == "f" and draw(st.booleans()) else 0.0
    data = np.full(shape, background)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["empty", "face", "box"]))
    if kind == "face":
        voxel = [draw(st.integers(0, n - 1)) for n in shape]
        axis = draw(st.integers(0, 2))
        voxel[axis] = draw(st.sampled_from([0, shape[axis] - 1]))
        data[tuple(voxel)] = draw(st.sampled_from([1.0, 3.0]))
    elif kind == "box":
        starts = [draw(st.integers(0, n - 1)) for n in shape]
        box = tuple(slice(lo, draw(st.integers(lo + 1, n))) for lo, n in zip(starts, shape))
        part = data[box]
        part[...] = rng.normal(0.0, 100.0, part.shape) if dtype.kind == "f" else rng.integers(0, 6, part.shape)
        if dtype.kind == "f" and draw(st.booleans()):
            part[tuple(draw(st.integers(0, n - 1)) for n in part.shape)] = np.nan
    data = np.asarray(data.astype(dtype), order=draw(st.sampled_from("CF")))
    return Volume(data=data, affine=random_affine(rng, (0.5, 3.0), shape)), rng


@settings(max_examples=150, deadline=None)
@given(case=sparse_sources(), target_shape=st.tuples(extent, extent, extent))
def test_foreground_bounded_resampling_of_sparse_sources_equals_the_full_grid_map(case, target_shape):
    # Only target voxels near the source's nonzero box are evaluated; the
    # rest must be exactly what the full-grid map gives there: +0.0 or 0.
    source, rng = case
    world_map = identity_transform(matrix=random_affine(rng, (0.8, 1.25)))
    target = GridSpec(shape=target_shape, affine=random_affine(rng, (0.5, 3.0), target_shape))
    assert_resampled_like_the_full_grid_map(source, world_map, target)
    if not np.any(source.data):
        assert not resample_image(source, world_map, target).data.view(np.uint32).any()


def test_warp_coordinates_follow_the_elementwise_rule_on_a_brats_plane():
    # A BLAS matmul picks its summation order by CPU kernel, and on planes
    # of this size it gives other last bits than the rule for part of them.
    shape = (220, 230, 3)
    rng = np.random.default_rng(11)
    target = GridSpec(shape=shape, affine=random_affine(rng, (0.8, 1.3), shape))
    world_map = random_affine(rng, (0.9, 1.1))
    source_affine = np.diag([50.0, 50.0, 50.0, 1.0])
    source_affine[:3, 3] = -275.0  # voxels -1..12 span -325..325 mm
    data = np.ones((12, 12, 12), dtype=np.uint8)
    m = np.linalg.inv(source_affine) @ np.linalg.inv(world_map) @ target.affine
    planes = {}
    sunk = []

    def fill(column, coords, idx):
        planes[len(sunk)] = coords, idx  # the plane the sink gets next

    _resample(data, source_affine, identity_transform(matrix=world_map), target, np.uint8, fill, sunk.append)
    seen = 0
    for k in range(shape[2]):
        coords, idx = planes[k]
        i, j = idx % shape[0], idx // shape[0]
        rule = m[:3, 0:1] * i + m[:3, 1:2] * j + m[:3, 2:3] * k + m[:3, 3:4]
        differ = np.count_nonzero(coords.view(np.uint64) != rule.view(np.uint64))
        assert differ == 0, f"plane {k}: {differ} of {coords.size} coordinates differ"
        seen += idx.size
    assert seen == np.prod(shape)


@pytest.mark.parametrize(
    "resample, dtype",
    [
        pytest.param(resample_mask, np.uint8, id="resample_mask-uint8"),
        pytest.param(resample_image, np.float32, id="resample_image-float32"),
    ],
)
def test_resampling_holds_the_output_and_a_few_planes(resample, dtype):
    rng = np.random.default_rng(5)
    data = np.asfortranarray(rng.integers(0, 4, size=(48, 48, 32)).astype(dtype))
    source = Volume(data=data, affine=np.eye(4))
    target = GridSpec(shape=(44, 46, 30), affine=random_affine(rng, (0.9, 1.1)))
    tracemalloc.start()
    try:
        out = resample(source, identity_transform(), target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A Fortran-ordered source is read in place; a (3, N) float64
    # coordinate map alone would be 3 * 44 * 46 * 30 * 8 bytes (1.46 MB).
    plane = 3 * 44 * 46 * 8
    assert peak <= out.data.nbytes + 8 * plane, peak


# -- each finished plane goes to the sink --------------------------------------


WARP_CASES = ("empty", "edge", "rotated-anisotropic", "mostly-missed")


def warp_case(name):
    """``(labels, image, forward native->SRI24, native target grid)``."""
    rng = np.random.default_rng(WARP_CASES.index(name))
    shape = (24, 20, 14)
    labels = np.zeros(shape, dtype=np.uint8)
    if name == "edge":
        labels[0, :, 3] = 1
        labels[5:9, 0, 0] = 2
        labels[-1, -1, -1] = 4
    elif name != "empty":
        labels[6:15, 5:12, 4:10] = rng.integers(0, 4, size=(9, 7, 6))
    image = labels * rng.normal(100.0, 30.0, size=shape).astype(np.float32)
    source_affine = random_affine(rng, (0.8, 1.5), shape)
    forward = identity_transform(matrix=random_affine(rng, (0.9, 1.1)))
    if name == "mostly-missed":
        # 120 planes of 1 mm along z, centred on the origin like the
        # source, which spans at most about 21 mm.
        affine = np.eye(4)
        affine[:3, 3] = -(np.array([30, 28, 120]) - 1) / 2.0
        native = GridSpec(shape=(30, 28, 120), affine=affine)
    elif name == "rotated-anisotropic":
        native = GridSpec(shape=(26, 22, 17), affine=random_affine(rng, (0.6, 2.5), (26, 22, 17)))
    else:
        native = GridSpec(shape=(26, 22, 17), affine=random_affine(rng, (0.9, 1.2), (26, 22, 17)))
    return (Volume(data=labels, affine=source_affine), Volume(data=image, affine=source_affine), forward, native)


@pytest.mark.parametrize("name", WARP_CASES)
def test_the_sink_gets_every_plane_in_order(name):
    labels, image, forward, native = warp_case(name)
    calls = [
        lambda sink: resample_mask(labels, invert_affine(forward), native, sink=sink),
        lambda sink: resample_image(image, invert_affine(forward), native, sink=sink),
        lambda sink: inverse_warp_to_native(labels, forward, native, sink=sink),
        lambda sink: inverse_warp_image_to_native(image, forward, native, sink=sink),
    ]
    for call in calls:
        sunk = []
        out = call(lambda column: sunk.append(column.copy()))  # the column as it was handed on
        assert len(sunk) == native.shape[2]
        for k, column in enumerate(sunk):
            assert column.dtype == out.data.dtype
            assert column.tobytes() == out.data[:, :, k].tobytes(order="F")
        assert out.data.any() == (name != "empty")
        if name == "mostly-missed":
            assert np.count_nonzero(out.data.any(axis=(0, 1))) < native.shape[2] // 4


def test_an_error_in_one_plane_reaches_the_caller_unchanged(monkeypatch):
    _, image, forward, native = warp_case("rotated-anisotropic")
    error = RuntimeError("plane failed")
    real = ndimage.map_coordinates
    calls = None

    def failing(*args, **kwargs):
        if next(calls) == 2:  # the third plane sampled
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(ndimage, "map_coordinates", failing)
    for warp in (
        lambda: resample_image(image, invert_affine(forward), native),
        lambda: inverse_warp_image_to_native(image, forward, native),
    ):
        calls = itertools.count()
        with pytest.raises(RuntimeError) as excinfo:
            warp()
        assert excinfo.value is error


# -- inverse warps -----------------------------------------------------------


def test_inverse_warp_round_trip_for_integer_translation():
    mask = cube_mask()
    native = Volume(data=mask, affine=np.eye(4))
    forward = translation((2.0, 1.0, 0.0), source="native", target="SRI24")
    atlas = resample_mask(native, forward, GridSpec.from_volume(native))
    back = inverse_warp_to_native(atlas, forward, GridSpec.from_volume(native))
    np.testing.assert_array_equal(back.data, mask)


def test_inverse_warp_requires_forward_orientation():
    mask = Volume(data=cube_mask(), affine=np.eye(4))
    grid = GridSpec.from_volume(mask)
    backward = translation((1.0, 0.0, 0.0), source="SRI24", target="native")
    with pytest.raises(SpaceMismatch, match="native"):
        inverse_warp_to_native(mask, backward, grid)
    sideways = translation((1.0, 0.0, 0.0), source="native", target="native")
    with pytest.raises(SpaceMismatch):
        inverse_warp_to_native(mask, sideways, grid)


def test_inverse_warp_image_round_trip():
    data = np.zeros((8, 8, 8))
    data[3:5, 3:5, 3:5] = 100.0
    native = Volume(data=data, affine=np.eye(4))
    forward = translation((1.0, 0.0, 0.0), source="native", target="MNI152")
    atlas = resample_image(native, forward, GridSpec.from_volume(native))
    back = inverse_warp_image_to_native(atlas, forward, GridSpec.from_volume(native))
    np.testing.assert_allclose(back.data[3:5, 3:5, 3:5], 100.0, atol=1e-9)


# -- sidecars ----------------------------------------------------------------


def test_sidecar_round_trip(tmp_path):
    fwd = translation((2.5, -1.0, 4.0), source="native", target="MNI152")
    path = write_transform(fwd, tmp_path / "t.json")
    back = read_transform(path)
    np.testing.assert_array_equal(back.matrix, fwd.matrix)
    assert back.source_space == "native"
    assert back.target_space == "MNI152"


def test_sidecar_layout_is_row_major_mm(tmp_path):
    fwd = translation((7.0, 0.0, 0.0))
    doc = json.loads(write_transform(fwd, tmp_path / "t.json").read_text())
    assert doc["units"] == "mm"
    assert len(doc["matrix"]) == 16
    assert doc["matrix"][3] == 7.0  # row-major: [0,3] is the 4th element


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("units"), "units"),
        (lambda d: d.update(units="inches"), "units"),
        (lambda d: d.update(matrix=d["matrix"][:15]), "16 numbers"),
        (lambda d: d.pop("source_space"), "source_space"),
        (lambda d: d.update(source_space="talairach"), "space tag"),
        (lambda d: d.update(matrix=[*d["matrix"][:12], 1.0, 0.0, 0.0, 1.0]), "bottom row"),
    ],
)
def test_malformed_sidecars_rejected(tmp_path, mutate, fragment):
    fwd = translation((1.0, 2.0, 3.0))
    path = write_transform(fwd, tmp_path / "t.json")
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedTransform, match=fragment) as info:
        read_transform(path)
    assert str(path) in str(info.value)


def test_sidecar_with_a_nan_translation_is_rejected(tmp_path):
    path = write_transform(translation((1.0, 2.0, 3.0)), tmp_path / "t.json")
    doc = json.loads(path.read_text())
    doc["matrix"][3] = float("nan")
    path.write_text(json.dumps(doc))  # written as the bare NaN token json.loads accepts
    assert "NaN" in path.read_text()
    with pytest.raises(MalformedTransform, match="must be finite") as info:
        read_transform(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "matrix",
    [
        "abc", ["a"] * 16, [[1, 2], [3]], {"x": 1},
        # an identity that float64 would coerce: "1"/"0" and true/false
        [f"{v:g}" for v in np.eye(4).ravel()], [bool(v) for v in np.eye(4).ravel()],
    ],
    ids=["str", "strs", "ragged", "dict", "numeric-strs", "bools"],
)
def test_sidecar_matrix_that_is_not_numbers_is_rejected(tmp_path, matrix):
    path = write_transform(translation((1.0, 2.0, 3.0)), tmp_path / "t.json")
    doc = json.loads(path.read_text())
    doc["matrix"] = matrix
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedTransform, match="'matrix' must be 16 numbers, flat or as 4 rows of 4") as info:
        read_transform(path)
    assert str(path) in str(info.value)


def test_non_json_sidecar_rejected(tmp_path):
    path = tmp_path / "t.json"
    path.write_text("not json {")
    with pytest.raises(MalformedTransform, match="JSON"):
        read_transform(path)


def test_json_array_sidecar_rejected(tmp_path):
    path = tmp_path / "t.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(MalformedTransform, match="object"):
        read_transform(path)
