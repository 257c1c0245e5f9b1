"""Overlap and surface metrics pinned to hand-computed fixtures and checked
against the pairwise/BFS oracles on random small grids."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from brainorch import metrics as metrics_module
from brainorch.errors import GridMismatch
from brainorch.metrics import (
    compute_metric_report,
    connected_components,
    dice,
    hausdorff,
    lesionwise_dice,
    nsd,
    surface_voxels,
)
from brainorch.registry import Label

import oracles


def cube(shape, lo, hi):
    out = np.zeros(shape, dtype=bool)
    out[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = True
    return out


def random_mask(seed, shape=(6, 6, 6), density=0.35):
    rng = np.random.default_rng(seed)
    return rng.random(shape) < density


# -- dice ---------------------------------------------------------------------


def test_dice_half_overlap_fixture():
    a = cube((6, 6, 6), (0, 0, 0), (2, 2, 2))  # 8 voxels
    b = cube((6, 6, 6), (1, 0, 0), (3, 2, 2))  # 8 voxels, 4 shared
    assert dice(a, b) == 0.5


def test_dice_identical_masks():
    a = cube((5, 5, 5), (1, 1, 1), (4, 4, 4))
    assert dice(a, a) == 1.0


def test_dice_empty_conventions():
    empty = np.zeros((4, 4, 4), dtype=bool)
    full = cube((4, 4, 4), (0, 0, 0), (2, 2, 2))
    assert dice(empty, empty) == 1.0
    assert dice(empty, full) == 0.0
    assert dice(full, empty) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_dice_matches_counting_oracle(seed):
    a = random_mask(seed)
    b = random_mask(seed + 100)
    assert dice(a, b) == pytest.approx(oracles.brute_dice(a, b), abs=1e-12)


# -- surfaces -------------------------------------------------------------


def test_surface_of_solid_cube():
    mask = cube((8, 8, 8), (2, 2, 2), (6, 6, 6))  # 4^3 cube
    surf = surface_voxels(mask)
    assert surf.sum() == 64 - 8  # all but the 2^3 interior


def test_grid_edge_counts_as_surface():
    mask = np.ones((3, 3, 3), dtype=bool)
    surf = surface_voxels(mask)
    assert surf.sum() == 26  # only the very center voxel is interior


def surface_inputs(seed):
    """The random mask of ``seed`` in C and F order, as strided and
    transposed views of a larger one, and as slabs with an extent of 1 or 2."""
    base = random_mask(seed, shape=(9, 8, 7))
    yield random_mask(seed)
    yield np.asfortranarray(random_mask(seed))
    yield base[::2, 1::2, ::3]
    yield base.transpose(2, 0, 1)
    yield base.T[1:6]
    yield base[:1]
    yield base[:, 3:5]
    yield np.asfortranarray(base[:2, :1])


@pytest.mark.parametrize("seed", range(6))
def test_surface_matches_oracle(seed):
    for mask in surface_inputs(seed):
        expected = np.zeros(mask.shape, dtype=bool)
        for idx in oracles.brute_surface(mask):
            expected[idx] = True
        np.testing.assert_array_equal(surface_voxels(mask), expected)


# -- hausdorff ------------------------------------------------------------


def test_hausdorff_two_points_three_apart():
    a = np.zeros((8, 4, 4), dtype=bool)
    b = np.zeros((8, 4, 4), dtype=bool)
    a[1, 1, 1] = True
    b[4, 1, 1] = True
    assert hausdorff(a, b, (1.0, 1.0, 1.0)) == pytest.approx(3.0)
    assert hausdorff(a, b, (1.0, 1.0, 1.0), percentile=100) == pytest.approx(3.0)


def test_hausdorff_respects_anisotropic_spacing():
    a = np.zeros((8, 4, 4), dtype=bool)
    b = np.zeros((8, 4, 4), dtype=bool)
    a[1, 1, 1] = True
    b[4, 1, 1] = True
    assert hausdorff(a, b, (2.0, 1.0, 1.0)) == pytest.approx(6.0)


def test_hausdorff_identical_masks_is_zero():
    a = cube((6, 6, 6), (1, 1, 1), (4, 4, 4))
    assert hausdorff(a, a, (1.0, 1.0, 1.0)) == 0.0


def test_hausdorff_empty_is_undefined():
    empty = np.zeros((4, 4, 4), dtype=bool)
    full = cube((4, 4, 4), (0, 0, 0), (2, 2, 2))
    assert hausdorff(empty, full, (1, 1, 1)) is None
    assert hausdorff(full, empty, (1, 1, 1)) is None
    assert hausdorff(empty, empty, (1, 1, 1)) is None


def test_hausdorff_percentile_bounds():
    a = cube((4, 4, 4), (0, 0, 0), (2, 2, 2))
    with pytest.raises(ValueError):
        hausdorff(a, a, (1, 1, 1), percentile=0)
    with pytest.raises(ValueError):
        hausdorff(a, a, (1, 1, 1), percentile=101)


@pytest.mark.parametrize("seed", range(5))
def test_hausdorff_nondecreasing_in_percentile(seed):
    a = random_mask(seed) | cube((6, 6, 6), (0, 0, 0), (1, 1, 1))
    b = random_mask(seed + 50) | cube((6, 6, 6), (5, 5, 5), (6, 6, 6))
    values = [hausdorff(a, b, (1, 1, 1), percentile=p) for p in (25, 50, 75, 95, 100)]
    assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("percentile", [50.0, 95.0, 100.0])
def test_hausdorff_matches_pairwise_oracle(seed, percentile):
    a = random_mask(seed)
    b = random_mask(seed + 31)
    if not a.any() or not b.any():
        pytest.skip("degenerate draw")
    spacing = (1.0, 0.8, 1.5)
    got = hausdorff(a, b, spacing, percentile=percentile)
    want = oracles.brute_hausdorff(a, b, spacing, percentile)
    assert got == want


# -- nsd -------------------------------------------------------------------


def test_nsd_fixture_offset_cubes():
    a = cube((6, 6, 6), (0, 0, 0), (2, 2, 2))
    b = cube((6, 6, 6), (1, 0, 0), (3, 2, 2))
    assert nsd(a, b, (1, 1, 1), tolerance_mm=1.0) == pytest.approx(1.0)
    assert nsd(a, b, (1, 1, 1), tolerance_mm=0.5) == pytest.approx(0.5)


def test_nsd_empty_conventions():
    empty = np.zeros((4, 4, 4), dtype=bool)
    full = cube((4, 4, 4), (0, 0, 0), (2, 2, 2))
    assert nsd(empty, empty, (1, 1, 1)) == 1.0
    assert nsd(empty, full, (1, 1, 1)) == 0.0
    assert nsd(full, empty, (1, 1, 1)) == 0.0


def test_nsd_rejects_negative_tolerance():
    a = cube((4, 4, 4), (0, 0, 0), (2, 2, 2))
    with pytest.raises(ValueError):
        nsd(a, a, (1, 1, 1), tolerance_mm=-0.1)


@pytest.mark.parametrize("seed", range(5))
def test_nsd_nondecreasing_in_tolerance(seed):
    a = random_mask(seed) | cube((6, 6, 6), (0, 0, 0), (1, 1, 1))
    b = random_mask(seed + 77) | cube((6, 6, 6), (5, 5, 5), (6, 6, 6))
    values = [nsd(a, b, (1, 1, 1), tolerance_mm=t) for t in (0.0, 0.5, 1.0, 2.0, 10.0)]
    assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0)  # every distance fits eventually


@pytest.mark.parametrize("seed", range(4))
def test_nsd_matches_pairwise_oracle(seed):
    a = random_mask(seed)
    b = random_mask(seed + 13)
    spacing = (1.0, 1.2, 0.7)
    got = nsd(a, b, spacing, tolerance_mm=1.0)
    want = oracles.brute_nsd(a, b, spacing, 1.0)
    assert got == want


# -- connected components ---------------------------------------------------


def test_component_ids_follow_scan_order():
    mask = np.zeros((7, 7, 7), dtype=bool)
    mask[5, 5, 5] = True  # last in scan order despite being set first
    mask[0, 0, 0] = True
    mask[0, 0, 3] = True
    cc = connected_components(mask, connectivity=6)
    assert cc.count == 3
    assert cc.component_map[0, 0, 0] == 1
    assert cc.component_map[0, 0, 3] == 2
    assert cc.component_map[5, 5, 5] == 3


def test_connectivity_semantics():
    plane_diag = np.zeros((3, 3, 3), dtype=bool)
    plane_diag[0, 0, 0] = plane_diag[1, 1, 0] = True  # share an edge
    assert connected_components(plane_diag, 6).count == 2
    assert connected_components(plane_diag, 18).count == 1
    assert connected_components(plane_diag, 26).count == 1

    corner_diag = np.zeros((3, 3, 3), dtype=bool)
    corner_diag[0, 0, 0] = corner_diag[1, 1, 1] = True  # share a corner only
    assert connected_components(corner_diag, 6).count == 2
    assert connected_components(corner_diag, 18).count == 2
    assert connected_components(corner_diag, 26).count == 1


def test_component_sizes_and_masks():
    mask = np.zeros((6, 6, 6), dtype=bool)
    mask[0:2, 0:2, 0:2] = True
    mask[4, 4, 4] = True
    cc = connected_components(mask)
    assert np.bincount(cc.component_map.ravel())[1:].tolist() == [8, 1]


def test_empty_mask_has_no_components():
    cc = connected_components(np.zeros((4, 4, 4), dtype=bool))
    assert cc.count == 0
    assert np.bincount(cc.component_map.ravel())[1:].tolist() == []


def test_invalid_connectivity_rejected():
    with pytest.raises(ValueError, match="connectivity"):
        connected_components(np.zeros((4, 4, 4), dtype=bool), connectivity=4)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_components_match_bfs_oracle(seed, connectivity):
    mask = random_mask(seed, density=0.4)
    cc = connected_components(mask, connectivity)
    expected = oracles.brute_components(mask, connectivity)
    assert cc.count == len(expected)
    for comp_id, voxels in enumerate(expected, start=1):
        got = {tuple(v) for v in np.argwhere(cc.component_map == comp_id)}
        assert got == voxels


# -- lesion-wise dice --------------------------------------------------------


def test_lesionwise_fixture_exact_match_plus_false_positive():
    ref = np.zeros((10, 10, 10), dtype=bool)
    ref[0:2, 0:2, 0:2] = True  # lesion 1, 8 voxels
    ref[7, 7, 7] = True  # lesion 2, 1 voxel
    pred = np.zeros_like(ref)
    pred[0:2, 0:2, 0:2] = True  # covers lesion 1 exactly
    pred[4, 9, 0] = True  # overlaps nothing
    report = lesionwise_dice(ref, pred)
    assert [e.dsc for e in report.entries] == [1.0, 0.0]
    assert [e.matched for e in report.entries] == [True, False]
    assert [e.size_voxels for e in report.entries] == [8, 1]
    assert report.false_positive_components == 1
    assert report.mean_dsc == pytest.approx(0.5)


def test_lesionwise_union_matching():
    ref = np.zeros((8, 8, 8), dtype=bool)
    ref[0:4, 0, 0] = True  # one 4-voxel lesion
    pred = np.zeros_like(ref)
    pred[0, 0, 0] = True
    pred[2, 0, 0] = True  # two separate components, both overlap the lesion
    report = lesionwise_dice(ref, pred, connectivity=6)
    assert len(report.entries) == 1
    assert report.entries[0].dsc == pytest.approx(2 * 2 / (4 + 2))
    assert report.false_positive_components == 0


def test_lesionwise_min_size_filter():
    ref = np.zeros((8, 8, 8), dtype=bool)
    ref[0:2, 0:2, 0:2] = True  # 8 voxels, kept
    ref[6, 6, 6] = True  # 1 voxel, filtered out
    pred = np.zeros_like(ref)
    pred[6, 6, 6] = True  # overlaps only the filtered lesion
    report = lesionwise_dice(ref, pred, min_lesion_voxels=2)
    assert len(report.entries) == 1
    assert report.entries[0].size_voxels == 8
    # the prediction component matched nothing that counts
    assert report.false_positive_components == 1


def test_lesionwise_empty_reference():
    ref = np.zeros((6, 6, 6), dtype=bool)
    pred = np.zeros_like(ref)
    pred[1, 1, 1] = True
    report = lesionwise_dice(ref, pred)
    assert report.entries == ()
    assert report.mean_dsc is None
    assert report.false_positive_components == 1


def _assert_lesionwise_equals_oracle(seed, connectivity, min_lesion_voxels=0):
    ref = random_mask(seed, density=0.2)
    pred = random_mask(seed + 500, density=0.2)
    report = lesionwise_dice(ref, pred, connectivity=connectivity, min_lesion_voxels=min_lesion_voxels)
    rows, fps = oracles.brute_lesionwise(ref, pred, connectivity, min_lesion_voxels)
    assert [(e.size_voxels, e.dsc, e.matched) for e in report.entries] == rows
    assert report.false_positive_components == fps


@pytest.mark.parametrize("seed", range(4))
def test_lesionwise_matches_oracle(seed):
    _assert_lesionwise_equals_oracle(seed, 26)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("connectivity, min_lesion_voxels", [(18, 0), (6, 0), (26, 2), (6, 3)])
def test_lesionwise_matches_oracle_at_each_connectivity_and_size_filter(seed, connectivity, min_lesion_voxels):
    _assert_lesionwise_equals_oracle(seed, connectivity, min_lesion_voxels)


def test_lesionwise_memory_follows_the_grid_not_the_component_counts():
    # A 6-connected checkerboard is all one-voxel lesions: 2048 on this
    # grid, so a dense lesion-by-component table would hold 2049**2 cells.
    ref = np.indices((16, 16, 16)).sum(axis=0) % 2 == 0
    pred = ref.copy()
    pred[0, 0, 0] = False
    tracemalloc.start()
    try:
        report = lesionwise_dice(ref, pred, connectivity=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.entries) == 2048
    assert [e.dsc for e in report.entries] == [0.0] + [1.0] * 2047
    assert report.false_positive_components == 0
    # The dense table alone would take 33.6 MB; the report's own entries
    # take about 0.4 MB of the bound.
    assert peak < 512 * ref.size


# -- report assembly -----------------------------------------------------------


def test_metric_report_shape_and_json():
    labels = (Label(1, "NETC"), Label(3, "ET"))
    ref = np.zeros((8, 8, 8), dtype=np.uint8)
    pred = np.zeros_like(ref)
    ref[0:2, 0:2, 0:2] = 1
    pred[0:2, 0:2, 0:2] = 1
    ref[5:7, 5:7, 5:7] = 3
    pred[5:7, 5:7, 6:8] = 3
    report = compute_metric_report(ref, pred, labels, spacing=(1.0, 1.0, 1.0))
    assert set(report.per_label) == {"NETC", "ET"}
    assert report.per_label["NETC"].dsc == 1.0
    assert report.per_label["NETC"].hd_mm == 0.0
    assert report.per_label["ET"].dsc == pytest.approx(0.5)
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["per_label"]["ET"]["hd95_mm"] is not None
    assert "hd95_mm" in doc["per_label"]["NETC"]
    assert doc["lesionwise"]["false_positive_components"] == 0
    assert doc["spacing_mm"] == [1.0, 1.0, 1.0]


def test_metric_report_absent_label_conventions():
    labels = (Label(2, "SNFH"),)
    ref = np.zeros((6, 6, 6), dtype=np.uint8)
    pred = np.zeros_like(ref)
    report = compute_metric_report(ref, pred, labels, spacing=(1.0, 1.0, 1.0))
    metrics = report.per_label["SNFH"]
    assert metrics.dsc == 1.0
    assert metrics.hd_mm is None
    assert metrics.nsd == 1.0


def test_metric_report_grid_mismatch():
    with pytest.raises(GridMismatch, match=r"^masks live on different grids: \(4, 4, 4\) vs \(4, 4, 5\)$"):
        compute_metric_report(
            np.zeros((4, 4, 4), dtype=np.uint8),
            np.zeros((4, 4, 5), dtype=np.uint8),
            (Label(1, "NETC"),),
            spacing=(1, 1, 1),
        )


def test_scoring_against_one_prepared_reference_labels_and_builds_its_side_once(monkeypatch):
    calls = {"label": 0}
    label = metrics_module.ndimage.label

    def counting_label(*args, **kwargs):
        calls["label"] += 1
        return label(*args, **kwargs)

    def no_edt(*args, **kwargs):
        raise AssertionError("distance_transform_edt called")

    trees = []
    real_tree = metrics_module._kd_tree

    def recording_tree(positions):
        trees.append(positions)
        return real_tree(positions)

    monkeypatch.setattr(metrics_module.ndimage, "label", counting_label)
    monkeypatch.setattr(metrics_module.ndimage, "distance_transform_edt", no_edt)
    monkeypatch.setattr(metrics_module, "_kd_tree", recording_tree)
    labels = (Label(1, "NETC"), Label(2, "SNFH"), Label(3, "ET"), Label(4, "RC"))
    spacing = (1.0, 1.2, 0.8)
    ref = np.zeros((8, 8, 8), dtype=np.uint8)
    ref[0:3, 0:3, 0:3] = 1
    ref[5:7, 5:7, 5:7] = 2
    ref[5:7, 0:2, 0:2] = 3  # RC in no mask
    preds = [np.roll(ref, shift, axis=0) for shift in (0, 1, 2)]
    prepared = metrics_module.prepare_reference(ref, labels, spacing)
    assert calls["label"] == 1
    assert len(trees) == 3  # one per label present in the reference
    reports = [compute_metric_report(prepared, pred, labels, spacing) for pred in preds]
    assert calls["label"] == 1 + len(preds)
    # Each report builds one tree per label of its prediction, none for the
    # reference: the prepared trees are shared.
    assert len(trees) == 3 + 3 * len(preds)
    # The prepared side gives the reports a plain mask gets.
    for pred, report in zip(preds, reports):
        assert report == compute_metric_report(ref, pred, labels, spacing)


def test_a_prepared_reference_refuses_another_spacing_or_an_unprepared_label():
    ref = np.zeros((5, 5, 5), dtype=np.uint8)
    ref[1:3, 1:3, 1:3] = 1
    prepared = metrics_module.prepare_reference(ref, (Label(1, "NETC"),), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="spacing"):
        compute_metric_report(prepared, ref, (Label(1, "NETC"),), (1.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="'ET' \\(code 3\\) was not prepared"):
        compute_metric_report(prepared, ref, (Label(1, "NETC"), Label(3, "ET")), (1.0, 1.0, 1.0))
    with pytest.raises(GridMismatch, match=r"^masks live on different grids: \(5, 5, 5\) vs \(4, 5, 5\)$"):
        compute_metric_report(prepared, ref[:4], (Label(1, "NETC"),), (1.0, 1.0, 1.0))


def _report_case(case):
    """Labelled (reference, prediction, spacing) pairs the report path must
    score exactly like the pairwise oracles."""
    shape = (7, 6, 5)
    ref = np.zeros(shape, dtype=np.uint8)
    pred = np.zeros_like(ref)
    spacing = (1.0, 1.0, 1.0)
    if case == "grid-edge":
        ref[0:3, 0:3, :] = 1  # spans the whole third axis
        pred[0:4, 1:6, 2:5] = 1
        ref[5:7, 4:6, 0:2] = 3
        pred[6:7, 3:6, 0:3] = 3
    elif case == "one-mask-only":
        ref[1:4, 1:4, 1:4] = 1
        pred[2:5, 1:4, 1:3] = 1
        ref[5:7, 0:2, 3:5] = 2  # SNFH only in the reference
        pred[0:2, 4:6, 0:2] = 3  # ET only in the prediction
    else:  # anisotropic
        rng = np.random.default_rng(5)
        ref = rng.choice(np.array([0, 1, 2, 3], dtype=np.uint8), size=shape, p=[0.55, 0.15, 0.15, 0.15])
        pred = rng.choice(np.array([0, 1, 2, 3], dtype=np.uint8), size=shape, p=[0.55, 0.15, 0.15, 0.15])
        spacing = (0.8, 1.0, 2.5)
    return ref, pred, spacing


@pytest.mark.parametrize("case", ["grid-edge", "one-mask-only", "anisotropic"])
def test_metric_report_surface_metrics_match_oracles(case):
    labels = (Label(1, "NETC"), Label(2, "SNFH"), Label(3, "ET"))
    ref, pred, spacing = _report_case(case)
    report = compute_metric_report(ref, pred, labels, spacing=spacing)
    for label in labels:
        a, b = ref == label.code, pred == label.code
        got = report.per_label[label.name]
        want_hd = oracles.brute_hausdorff(a, b, spacing, 95.0)
        if want_hd is None:
            assert got.hd_mm is None
        else:
            assert got.hd_mm == want_hd
        assert got.nsd == oracles.brute_nsd(a, b, spacing, 1.0)


# -- exactness at near-ties ------------------------------------------------------

# Two offsets at the same true distance whose computed distances differ in
# the last bit: at 1.2 mm, (3, 0, 0) gives 3.5999999999999996 and (2, 2, 1)
# gives 3.6. The nearest surface voxel is the one with the smaller value.
NEAR_TIES = [
    ((1.2, 1.2, 1.2), (3, 0, 0), (2, 2, 1)),
    ((1.1, 1.1, 1.1), (1, 1, 2), (2, 1, 1)),
    ((0.7, 1.4, 2.1), (0, 0, 1), (3, 0, 0)),
    ((1.2, 0.9, 1.5), (0, 4, 0), (3, 0, 0)),
]


@pytest.mark.parametrize("neighbours", [1, 4])  # 1: every point takes the ball query
@pytest.mark.parametrize("spacing, first, second", NEAR_TIES)
def test_near_ties_resolve_to_the_oracles_distance(monkeypatch, neighbours, spacing, first, second):
    monkeypatch.setattr(metrics_module, "_NEIGHBOURS", neighbours)
    exact = [oracles._pairwise_min_distances([offset], [(0, 0, 0)], spacing)[0] for offset in (first, second)]
    true = [sum((o * Fraction(str(s))) ** 2 for o, s in zip(offset, spacing)) for offset in (first, second)]
    assert true[0] == true[1] and exact[0] != exact[1]  # a real near-tie
    origin = np.array([1, 1, 1])
    a = np.zeros((7, 7, 7), dtype=bool)
    a[tuple(origin)] = True
    b = np.zeros_like(a)
    b[tuple(origin + first)] = b[tuple(origin + second)] = True
    for percentile in (50.0, 95.0, 100.0):
        assert hausdorff(a, b, spacing, percentile) == oracles.brute_hausdorff(a, b, spacing, percentile)
    for tolerance in (min(exact), max(exact)):
        assert nsd(a, b, spacing, tolerance) == oracles.brute_nsd(a, b, spacing, tolerance)
    # At the smaller distance as tolerance, a's one point is within it.
    assert nsd(a, b, spacing, min(exact)) == 0.75
    report = compute_metric_report(a.astype(np.uint8), b.astype(np.uint8), (Label(1, "NETC"),), spacing)
    assert report.per_label["NETC"].hd_mm == oracles.brute_hausdorff(a, b, spacing, 95.0)


_SPACINGS = (0.5, 0.7, 1.0, 1.1, 1.2, 1.4, 2.0, 2.1, 2.5, 3.0)


@st.composite
def labelled_pairs(draw):
    """Two small label maps with codes 1 and 2, and an isotropic or
    anisotropic spacing."""
    shape = draw(st.tuples(*[st.integers(1, 6)] * 3))
    codes = st.sampled_from((0, 0, 1, 2))
    ref, pred = (draw(arrays(np.uint8, shape, elements=codes)) for _ in range(2))
    if draw(st.booleans()):
        spacing = (draw(st.sampled_from(_SPACINGS)),) * 3
    else:
        spacing = draw(st.tuples(*[st.sampled_from(_SPACINGS)] * 3))
    return ref, pred, spacing


@settings(max_examples=60, deadline=None)
@given(case=labelled_pairs())
def test_surface_metrics_equal_the_oracles_on_random_masks(case):
    ref, pred, spacing = case
    labels = (Label(1, "NETC"), Label(2, "SNFH"))
    report = compute_metric_report(ref, pred, labels, spacing)
    for label in labels:
        a, b = ref == label.code, pred == label.code
        assert report.per_label[label.name].hd_mm == oracles.brute_hausdorff(a, b, spacing, 95.0)
        assert report.per_label[label.name].nsd == oracles.brute_nsd(a, b, spacing, 1.0)
        assert hausdorff(a, b, spacing, 100.0) == oracles.brute_hausdorff(a, b, spacing, 100.0)
        assert nsd(a, b, spacing, 2.2) == oracles.brute_nsd(a, b, spacing, 2.2)


# -- nearest-only queries on integral grids ----------------------------------------


@pytest.mark.parametrize("spacing", [(1, 1, 1), (1, 1, 2), (3, 1, 2)])
def test_kd_nearest_distances_are_the_exact_formula_on_integral_grids(spacing):
    """On integral spacings the tree's k=1 distance is bit for bit the
    exact formula, so the nearest alone is the distance."""
    sp = np.array(spacing, dtype=np.float64)
    rng = np.random.default_rng(28)
    points = rng.integers(0, 200, size=(4000, 3))
    queries = np.concatenate([rng.integers(0, 200, size=(8000, 3)), points[:4000] + rng.integers(-3, 4, size=(4000, 3))])
    dist, idx = metrics_module._kd_tree(points * sp).query(queries * sp, k=1)
    np.testing.assert_array_equal(dist, metrics_module._exact_distances(queries, points[idx], sp))


def recording_trees(monkeypatch) -> list[int]:
    """Route every scoring tree through a wrapper that records the ``k`` of
    each ``query``, and make ``binary_erosion`` an error."""
    ks: list[int] = []
    real_tree = metrics_module._kd_tree

    class Recording:
        def __init__(self, tree):
            self.tree = tree

        def query(self, x, k):
            ks.append(k)
            return self.tree.query(x, k=k)

        def query_ball_point(self, *args, **kwargs):
            return self.tree.query_ball_point(*args, **kwargs)

    def no_erosion(*args, **kwargs):
        raise AssertionError("binary_erosion called")

    monkeypatch.setattr(metrics_module, "_kd_tree", lambda positions: Recording(real_tree(positions)))
    monkeypatch.setattr(metrics_module.ndimage, "binary_erosion", no_erosion)
    return ks


@pytest.mark.parametrize("spacing, k", [((1.0, 1.0, 1.0), 1), ((1.0, 1.0, 2.0), 1), ((1.2, 1.2, 1.2), 4)])
def test_integral_grids_query_the_nearest_alone_and_others_keep_the_tie_rule(monkeypatch, spacing, k):
    ks = recording_trees(monkeypatch)
    a = cube((9, 9, 9), (1, 1, 1), (6, 6, 5))
    b = cube((9, 9, 9), (3, 2, 2), (8, 7, 8))
    report = compute_metric_report(a.astype(np.uint8), b.astype(np.uint8), (Label(1, "NETC"),), spacing)
    assert report.per_label["NETC"].hd_mm == oracles.brute_hausdorff(a, b, spacing, 95.0)
    assert report.per_label["NETC"].nsd == oracles.brute_nsd(a, b, spacing, 1.0)
    assert hausdorff(a, b, spacing, 100.0) == oracles.brute_hausdorff(a, b, spacing, 100.0)
    assert ks and set(ks) == {k}


_HUGE_OR_NON_FINITE = [(1e300, 1.0, 1.0), (1.0, 1.0, 1e160), (float("inf"), 1.0, 1.0), (1.0, float("nan"), 1.0)]


@pytest.mark.parametrize("spacing", _HUGE_OR_NON_FINITE)
def test_a_spacing_whose_squared_extent_is_not_finite_is_refused_naming_it(spacing):
    a = cube((6, 6, 6), (1, 1, 1), (3, 3, 3))
    b = cube((6, 6, 6), (2, 2, 2), (5, 5, 5))
    labels = (Label(1, "NETC"),)
    calls = [
        lambda: hausdorff(a, b, spacing),
        lambda: nsd(a, b, spacing),
        lambda: metrics_module.prepare_reference(a.astype(np.uint8), labels, spacing),
        lambda: compute_metric_report(a.astype(np.uint8), b.astype(np.uint8), labels, spacing),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(repr(spacing))):
            call()


def test_importing_the_cli_loads_no_kd_tree_module():
    code = "import sys, brainorch.cli; print('scipy.spatial' in sys.modules)"
    src = Path(metrics_module.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"
