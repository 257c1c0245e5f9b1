"""The foreground box that metrics and fusion crop to.

Cropping must not change a single output byte. Embedding the masks into a
larger all-background grid moves every voxel outside the original box, so
the reports, distances and consensus of the embedded masks must equal those
of the originals exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from brainorch.fusion import CandidateSet, fuse
from brainorch.metrics import compute_metric_report, foreground_box, hausdorff, nsd
from brainorch.nifti import Volume
from brainorch.registry import LABEL_ET, LABEL_NETC, LABEL_SNFH, Label

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
