"""The foreground box that vetting, metrics and fusion crop to.

Cropping must not change a single output byte. Embedding the masks into a
larger all-background grid moves every voxel outside the original box, so
the reports, distances and consensus of the embedded masks must equal those
of the originals exactly. A candidate is vetted inside its own box, which
must accept and reject exactly what a scan of the whole grid does.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import brainorch.fusion
import brainorch.metrics
import brainorch.pipeline
from brainorch.errors import GridMismatch, UnknownLabel
from brainorch.fusion import CandidateSet, fuse, vet_candidate
from brainorch.metrics import compute_metric_report, foreground_box, hausdorff, nsd
from brainorch.nifti import Volume
from brainorch.pipeline import PipelineConfig, discover_subject_inputs, run_inference
from brainorch.registry import LABEL_ET, LABEL_NETC, LABEL_SNFH, Label, TaskId, load_catalog
from brainorch.runtime import MockBehavior, MockEngine

from fixtures_e2e import E2E_SHAPE, behaviors_payload, catalog_override_payload, fake_digest

GLI_LABELS = (LABEL_ET, LABEL_NETC, LABEL_SNFH)


def test_foreground_box_is_the_padded_union_clipped_to_the_grid():
    a = np.zeros((6, 7, 8), dtype=np.uint8)
    b = np.zeros_like(a)
    a[0, 3, 4] = 2  # on the first face of axis 0
    b[2, 6, 5] = 1  # on the last face of axis 1
    assert foreground_box([a, b]) == (slice(0, 4), slice(2, 7), slice(3, 7))


def test_foreground_box_skips_empty_masks_and_has_size_zero_when_all_are():
    empty = np.zeros((4, 4, 4), dtype=bool)
    one = empty.copy()
    one[1, 2, 3] = True
    assert foreground_box([empty, one, empty]) == (slice(0, 3), slice(1, 4), slice(2, 4))
    assert foreground_box([empty, empty]) == (slice(0, 0),) * 3


def _full_grid_box(mask):
    """The box from one full-grid ``!= 0`` and a projection onto each axis."""
    nonzero = np.asarray(mask) != 0
    if not nonzero.any():
        return (slice(0, 0),) * nonzero.ndim
    axes = range(nonzero.ndim)
    box = []
    for axis in axes:
        hits = np.flatnonzero(nonzero.any(axis=tuple(a for a in axes if a != axis)))
        box.append(slice(max(int(hits[0]) - 1, 0), min(int(hits[-1]) + 2, nonzero.shape[axis])))
    return tuple(box)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 9)] * 3),
    density=st.sampled_from((0.0, 0.01, 0.05, 0.3)),
    dtype=st.sampled_from(("u1", ">i2", "<f4", ">f8")),
    layout=st.sampled_from(("C", "F", "C-crop", "F-crop")),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_box_equals_the_full_grid_projections(shape, density, dtype, layout, seed):
    # The box is found plane by plane along the slowest axis in memory
    # order; it must be the box of the full-grid projections in every layout.
    rng = np.random.default_rng(seed)
    values = np.where(rng.random(shape) < density, rng.integers(1, 4, shape), 0)
    if dtype[-2] == "f":
        values = np.where(rng.random(shape) < 0.5, -0.0, values.astype(float))  # -0.0 is background
        values[rng.random(shape) < density / 4] = np.nan  # NaN is foreground
    mask = np.asarray(values.astype(dtype), order=layout[0])
    if layout.endswith("crop"):
        mask = mask[::2, 1:, :-1] if min(shape[1:]) > 1 else mask[::2]
    assert foreground_box([mask]) == _full_grid_box(mask)


def test_a_label_with_the_background_code_is_rejected():
    # Outside the box every mask is background, so only nonzero codes may be
    # scored or voted.
    mask = np.zeros((4, 4, 4), dtype=np.uint8)
    mask[1:3, 1:3, 1:3] = 1
    labels = (LABEL_NETC, Label(0, "BG"))
    with pytest.raises(ValueError, match="code 0"):
        compute_metric_report(mask, mask, labels, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="code 0"):
        CandidateSet.from_volumes([Volume(data=mask, affine=np.eye(4))] * 2, labels=labels)


def test_metric_report_names_the_callers_shape_for_a_non_3d_mask():
    empty = np.zeros((4, 5), dtype=np.uint8)
    with pytest.raises(ValueError, match=r"3-D array, got shape \(4, 5\)"):
        compute_metric_report(empty, empty, GLI_LABELS, (1.0, 1.0, 1.0))


@st.composite
def embedded_cases(draw):
    """Label masks on a small grid, a spacing, and the zero margins to add
    before and after each axis; a zero margin keeps that grid edge."""
    shape = draw(st.tuples(*[st.integers(1, 6)] * 3))
    codes = st.sampled_from((0, 0, 0, LABEL_NETC.code, LABEL_SNFH.code, LABEL_ET.code))
    masks = [draw(arrays(np.uint8, shape, elements=codes)) for _ in range(draw(st.integers(2, 4)))]
    spacing = draw(st.tuples(*[st.sampled_from((0.5, 1.0, 1.5, 3.0))] * 3))
    margins = draw(st.tuples(*[st.tuples(st.integers(0, 3), st.integers(0, 3))] * 3))
    return masks, spacing, margins


def _case(shape, *filled, n=2, spacing=(1.0, 1.0, 1.0), margins=((2, 1),) * 3):
    """An explicit case: ``filled`` is ``(candidate, index, code)`` triples."""
    masks = [np.zeros(shape, dtype=np.uint8) for _ in range(n)]
    for i, index, code in filled:
        masks[i][index] = code
    return masks, spacing, margins


def _embed(mask: np.ndarray, margins) -> tuple[np.ndarray, tuple[slice, ...]]:
    big = np.pad(mask, margins)
    return big, tuple(slice(before, before + n) for (before, _), n in zip(margins, mask.shape))


def _candidates(masks, spacing) -> CandidateSet:
    affine = np.diag([*spacing, 1.0])
    return CandidateSet.from_volumes(
        [Volume(data=m, affine=affine) for m in masks], labels=GLI_LABELS
    )


@settings(max_examples=60, deadline=None)
@given(case=embedded_cases())
@example(case=_case((3, 3, 3)))  # every mask empty
@example(case=_case((3, 4, 5), (0, np.s_[1:3, 1:3, 1:4], 1), n=3))  # two empty candidates
@example(case=_case((4, 4, 4), (0, np.s_[0:2, :, 0:1], 2), (1, np.s_[:, 3:, 1:], 2)))  # grid edges
@example(case=_case((5, 4, 3), (0, np.s_[0:3, 1:3, :], 3), (1, np.s_[1:5, 0:2, 0:2], 3),
                    spacing=(0.5, 1.5, 3.0), margins=((0, 2), (3, 0), (0, 0))))  # anisotropic
def test_embedding_in_a_larger_grid_changes_no_output(case):
    masks, spacing, margins = case
    embedded = [_embed(m, margins)[0] for m in masks]
    _, inner = _embed(masks[0], margins)

    for pred, big_pred in zip(masks[1:], embedded[1:]):
        small = compute_metric_report(masks[0], pred, GLI_LABELS, spacing).to_json_dict()
        big = compute_metric_report(embedded[0], big_pred, GLI_LABELS, spacing).to_json_dict()
        assert big == small
    a, b = masks[0] != 0, masks[1] != 0
    big_a, big_b = embedded[0] != 0, embedded[1] != 0
    assert hausdorff(big_a, big_b, spacing) == hausdorff(a, b, spacing)
    assert nsd(big_a, big_b, spacing) == nsd(a, b, spacing)

    for method in ("majority", "simple"):
        small = fuse(_candidates(masks, spacing), method)
        big = fuse(_candidates(embedded, spacing), method)
        assert big.consensus.data[inner].tobytes() == small.consensus.data.tobytes()
        assert np.count_nonzero(big.consensus.data) == np.count_nonzero(small.consensus.data)
        assert big.to_json_dict() == small.to_json_dict()


# -- vetting a candidate inside its own box -------------------------------------


def _full_grid_vet(data, labels, name):
    """The vet as it ran before boxes: one ``np.unique`` over every voxel."""
    if not np.issubdtype(data.dtype, np.integer):
        raise ValueError(f"{name} has non-integer dtype {data.dtype}")
    allowed = {lb.code for lb in labels} | {0}
    stray = {int(v) for v in np.unique(data)} - allowed
    if stray:
        raise UnknownLabel(
            f"{name} holds label codes {sorted(stray)} outside the task's set "
            f"{sorted(allowed - {0})}"
        )


def _outcome(vet, data):
    try:
        return "accepted", vet(data, GLI_LABELS, "mask")
    except (ValueError, UnknownLabel) as exc:
        return type(exc), str(exc)


_VET_DTYPES = (np.uint8, np.int16, np.dtype(">i2"), np.int32, np.uint16)


@st.composite
def vet_cases(draw):
    """Small masks of integer dtypes, mostly background and task codes, with
    an occasional stray code (negative ones only where the dtype is signed)."""
    dtype = np.dtype(draw(st.sampled_from(_VET_DTYPES)))
    shape = draw(st.tuples(*[st.integers(1, 6)] * 3))
    stray = [5, 9, 200] + ([-1, -300] if dtype.kind == "i" else [])
    codes = st.sampled_from([0] * 6 + [LABEL_NETC.code, LABEL_SNFH.code, LABEL_ET.code] + stray)
    return draw(arrays(dtype, shape, elements=codes))


def _vet_case(dtype, shape, *filled):
    data = np.zeros(shape, dtype=dtype)
    for index, code in filled:
        data[index] = code
    return data


@settings(max_examples=150, deadline=None)
@given(data=vet_cases())
@example(data=_vet_case(np.uint8, (5, 6, 7)))  # all background
@example(data=_vet_case(np.uint8, (5, 6, 7), ((1, 2, 3), 2), ((4, 5, 6), 7)))  # stray code at a grid corner
@example(data=_vet_case(np.uint8, (5, 6, 7), ((0, 0, 0), 9), ((2, 2, 2), 1)))  # stray code at the origin
@example(data=_vet_case(np.int16, (4, 4, 4), ((1, 1, 1), 3), ((3, 0, 3), -2)))  # negative code
@example(data=_vet_case(np.dtype(">i2"), (4, 3, 2), ((1, 1, 1), 2), ((0, 2, 1), 300)))  # big-endian
@example(data=_vet_case(np.dtype(">i2"), (4, 3, 2), ((1, 1, 1), 2)))
@example(data=_vet_case(np.float32, (3, 3, 3), ((1, 1, 1), 1)))  # non-integer dtype
@example(data=_vet_case(np.float64, (3, 3, 3)))
def test_boxed_vet_accepts_and_rejects_what_a_full_grid_scan_does(data):
    want = _outcome(_full_grid_vet, data)
    got = _outcome(vet_candidate, data)
    if want[0] == "accepted":
        assert got == ("accepted", foreground_box([data]))
    else:
        assert got == want


def test_vetted_boxes_skip_only_the_code_scan():
    mask = np.zeros((4, 4, 4), dtype=np.uint8)
    mask[1, 2, 3] = LABEL_ET.code
    box = vet_candidate(mask, GLI_LABELS, "mask")
    public = CandidateSet(masks=(Volume(data=mask, affine=np.eye(4)),) * 2, source_ids=("a", "b"), labels=GLI_LABELS)
    trusted = CandidateSet(
        masks=(Volume(data=mask, affine=np.eye(4)),) * 2, source_ids=("a", "b"), labels=GLI_LABELS,
        _vetted_boxes=(box, box),
    )
    assert public.boxes == trusted.boxes == (box, box)
    off_grid = Volume(data=np.zeros((4, 4, 5), dtype=np.uint8), affine=np.eye(4))
    with pytest.raises(GridMismatch):
        CandidateSet(masks=(Volume(data=mask, affine=np.eye(4)), off_grid), source_ids=("a", "b"),
                     labels=GLI_LABELS, _vetted_boxes=(box, box))
    with pytest.raises(ValueError, match="duplicate source ids"):
        CandidateSet(masks=(Volume(data=mask, affine=np.eye(4)),) * 2, source_ids=("a", "a"),
                     labels=GLI_LABELS, _vetted_boxes=(box, box))
    with pytest.raises(ValueError, match="2 masks but 1 vetted boxes"):
        CandidateSet(masks=(Volume(data=mask, affine=np.eye(4)),) * 2, source_ids=("a", "b"),
                     labels=GLI_LABELS, _vetted_boxes=(box,))


def test_from_volumes_without_labels_scans_each_mask_once(monkeypatch):
    scanned = Counter()
    real_padded_box = brainorch.metrics._padded_box

    def counting_padded_box(mask):
        scanned[id(mask)] += 1
        return real_padded_box(mask)

    masks = [np.zeros((5, 6, 7), dtype=np.uint8) for _ in range(3)]
    for i, mask in enumerate(masks):
        mask[i, 2, 3] = i + 1
    monkeypatch.setattr(brainorch.metrics, "_padded_box", counting_padded_box)
    candidates = CandidateSet.from_volumes([Volume(data=m, affine=np.eye(4)) for m in masks])
    assert [lb.code for lb in candidates.labels] == [1, 2, 3]
    assert candidates.boxes == tuple(real_padded_box(m) for m in masks)
    assert sorted(scanned.values()) == [1, 1, 1]
    assert set(scanned) == {id(m) for m in masks}


def _five_candidate_run(tmp_path):
    """A gli-pre run over the three stock mock algorithms plus a fourth and a
    fifth whose mask holds a stray code, so the vet rejects it."""
    catalog = catalog_override_payload()
    behaviors = behaviors_payload()["images"]
    extra = {
        "mock-gli-4": [(3, (15, 16, 10), 4), (1, (10, 11, 8), 3), (2, (22, 20, 11), 3)],
        "mock-gli-5": [(3, (16, 16, 10), 4), (9, (10, 10, 8), 2)],
    }
    for rank, (algo_id, blobs) in enumerate(extra.items(), start=4):
        catalog["algorithms"].append(
            dict(catalog["algorithms"][0], id=algo_id, rank=rank, team_reference=f"{algo_id} stub",
                 image_reference=f"example/{algo_id}@sha256:{fake_digest(algo_id)}")
        )
        behaviors[f"example/{algo_id}"] = dict(
            behaviors["example/mock-gli-1"],
            content_digest="sha256:" + fake_digest(algo_id),
            outputs=[dict(behaviors["example/mock-gli-1"]["outputs"][0],
                          blobs=[{"label": c, "center": list(x), "radius": r} for c, x, r in blobs])],
        )
    engine = MockEngine(max_concurrent_jobs=2)
    for image, raw in behaviors.items():
        engine.register(image, MockBehavior(content_digest=raw["content_digest"], outputs=tuple(raw["outputs"])))
    catalog_path = tmp_path / "catalog5.json"
    catalog_path.write_text(json.dumps(catalog))
    return engine, load_catalog(catalog_path), tuple(a["id"] for a in catalog["algorithms"])


def test_each_candidate_is_vetted_once_and_never_over_the_full_grid(tmp_path, gli_subject, monkeypatch):
    engine, catalog, algo_ids = _five_candidate_run(tmp_path)
    vetted = Counter()
    held = []  # keeps every vetted array alive, so no two share an id()

    def counting_vet(data, labels, name):
        held.append(data)
        vetted[id(data)] += 1
        return vet_candidate(data, labels, name)

    unique_sizes = []
    real_unique = np.unique

    def recording_unique(ar, *args, **kwargs):
        unique_sizes.append(np.asarray(ar).size)
        return real_unique(ar, *args, **kwargs)

    monkeypatch.setattr(brainorch.pipeline, "vet_candidate", counting_vet)
    monkeypatch.setattr(brainorch.fusion, "vet_candidate", counting_vet)
    monkeypatch.setattr(np, "unique", recording_unique)
    bundle = run_inference(
        discover_subject_inputs(gli_subject, TaskId.GLI_PRE),
        PipelineConfig(task=TaskId.GLI_PRE, engine=engine, output_dir=tmp_path / "out",
                       algorithm_selectors=algo_ids, fusion_method="simple", catalog=catalog),
    )
    assert len(algo_ids) == 5
    assert set(bundle.per_algorithm_paths) == set(algo_ids) - {"mock-gli-5"}
    assert any("mock-gli-5: rejected candidate: mask holds label codes [9]" in w for w in bundle.manifest["warnings"])
    assert sorted(vetted.values()) == [1] * 5  # every mask reached the vet, and once
    assert unique_sizes and max(unique_sizes) < np.prod(E2E_SHAPE)
