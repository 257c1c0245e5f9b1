"""Consensus fusion: majority against the per-voxel oracle, iterative
weighting against hand-traced fixtures."""

from __future__ import annotations

import json

import numpy as np
import pytest

from brainorch.errors import EmptyCandidateSet, GridMismatch, UnknownLabel
from brainorch.fusion import (
    CandidateSet,
    FUSION_METHODS,
    SimpleParams,
    _pattern_dtype,
    _pattern_table,
    _simple_one_label,
    fuse,
    label_priority_order,
    majority_vote,
    simple_fuse,
)
from brainorch.metrics import dice
from brainorch.nifti import Volume
from brainorch.registry import (
    LABEL_CC,
    LABEL_ED,
    LABEL_ET,
    LABEL_NETC,
    LABEL_RC,
    LABEL_SNFH,
    Label,
)

import oracles

GLI_LABELS = (LABEL_ET, LABEL_NETC, LABEL_SNFH)


def vol(data):
    return Volume(data=np.asarray(data, dtype=np.uint8), affine=np.eye(4))


def candidate_set(arrays, labels=GLI_LABELS, ids=None):
    return CandidateSet.from_volumes([vol(a) for a in arrays], source_ids=ids, labels=labels)


def random_candidates(seed, n, shape=(6, 6, 6)):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 4, size=shape).astype(np.uint8) for _ in range(n)]


# -- candidate set validation --------------------------------------------------


def test_empty_candidate_set_rejected():
    with pytest.raises(EmptyCandidateSet):
        CandidateSet.from_volumes([])


def test_duplicate_source_ids_rejected():
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="duplicate"):
        candidate_set([a, a], ids=["x", "x"])


def test_shape_mismatch_rejected():
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    b = np.zeros((4, 4, 5), dtype=np.uint8)
    with pytest.raises(GridMismatch, match="shape"):
        candidate_set([a, b])


def test_affine_mismatch_rejected():
    a = vol(np.zeros((4, 4, 4)))
    shifted = np.eye(4)
    shifted[0, 3] = 0.5
    b = Volume(data=np.zeros((4, 4, 4), dtype=np.uint8), affine=shifted)
    with pytest.raises(GridMismatch, match="affine"):
        CandidateSet.from_volumes([a, b], labels=GLI_LABELS)


def test_non_integer_candidate_rejected():
    a = Volume(data=np.zeros((4, 4, 4), dtype=np.float32), affine=np.eye(4))
    with pytest.raises(ValueError, match="non-integer"):
        CandidateSet.from_volumes([a], labels=GLI_LABELS)


def test_stray_label_code_rejected():
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    a[0, 0, 0] = 7
    with pytest.raises(UnknownLabel, match=r"\[7\]"):
        candidate_set([a])


def test_default_source_ids():
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    cs = candidate_set([a, a.copy()], ids=None)
    assert cs.source_ids == ("candidate-0", "candidate-1")


# -- label plumbing ---------------------------------------------------------


def test_from_volumes_names_found_codes_generically():
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    a[0, 0, 0] = 3
    a[1, 0, 0] = 1
    assert CandidateSet.from_volumes([vol(a)]).labels == (Label(1, "L1"), Label(3, "L3"))


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("code", [300, -2])
def test_label_codes_must_fit_the_uint8_consensus(code, count):
    mask = np.zeros((4, 4, 4), dtype=np.int16)
    mask[1, 1, 1] = 1
    mask[2, 2, 2] = code
    volumes = [Volume(data=mask, affine=np.eye(4))] * count
    with pytest.raises(ValueError, match=f"code {code}, outside 1..255"):
        CandidateSet.from_volumes(volumes)
    with pytest.raises(ValueError, match=f"code {code}, outside 1..255"):
        CandidateSet.from_volumes(volumes, labels=(LABEL_NETC, Label(code, "X")))


def test_priority_order_named_labels():
    shuffled = (LABEL_CC, LABEL_SNFH, LABEL_ET, LABEL_RC, LABEL_NETC, LABEL_ED)
    ordered = label_priority_order(shuffled)
    assert [lb.name for lb in ordered] == ["ET", "NETC", "RC", "SNFH", "ED", "CC"]


def test_priority_order_unnamed_labels_rank_last():
    ordered = label_priority_order((Label(9, "L9"), LABEL_ET, Label(5, "L5")))
    assert [lb.name for lb in ordered] == ["ET", "L5", "L9"]


# -- majority voting ----------------------------------------------------------


def test_even_split_stays_background():
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    b = np.zeros_like(a)
    a[1, 1, 1] = 3
    cs = candidate_set([a, b])
    assert majority_vote(cs).data[1, 1, 1] == 0

    four = candidate_set([a, a, b, b])
    assert majority_vote(four).data[1, 1, 1] == 0


def test_three_of_five_is_a_majority():
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    a[1, 1, 1] = 2
    b = np.zeros_like(a)
    cs = candidate_set([a, a, a, b, b])
    assert majority_vote(cs).data[1, 1, 1] == 2


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [2, 3, 5])
def test_majority_matches_per_voxel_oracle(seed, n):
    arrays = random_candidates(seed * 10 + n, n)
    cs = candidate_set(arrays)
    got = majority_vote(cs)
    codes = [lb.code for lb in GLI_LABELS]
    priority_codes = [lb.code for lb in label_priority_order(GLI_LABELS)]
    want = oracles.brute_majority(arrays, codes, priority_codes)
    np.testing.assert_array_equal(got.data, want)
    assert got.data.dtype == np.uint8


def test_majority_result_metadata():
    arrays = random_candidates(3, 3)
    cs = candidate_set(arrays, ids=["a", "b", "c"])
    result = fuse(cs, method="majority")
    assert result.method == "majority"
    assert result.iterations_run == 1
    assert result.per_candidate_weights["b"]["ET"] == 1.0
    assert result.iteration_log["NETC"] == (3,)
    assert result.dropped == {}
    np.testing.assert_array_equal(result.consensus.affine, cs.grid_affine)


# -- iterative fusion: hand-traced fixtures -------------------------------------


def test_outlier_dropped_within_two_iterations():
    agreed = np.zeros((8, 8, 8), dtype=np.uint8)
    agreed[2:5, 2:5, 2:5] = 3
    outlier = np.zeros_like(agreed)
    outlier[6:8, 6:8, 6:8] = 3
    cs = candidate_set([agreed] * 4 + [outlier], ids=["a", "b", "c", "d", "weird"])
    result = simple_fuse(cs)
    np.testing.assert_array_equal(result.consensus.data, agreed)
    assert result.dropped == {"ET": ("weird",)}
    assert result.iterations_run <= 2
    assert result.per_candidate_weights["weird"]["ET"] == 0.0
    assert result.per_candidate_weights["a"]["ET"] == 1.0


def test_unanimous_candidates_never_drop():
    mask = np.zeros((6, 6, 6), dtype=np.uint8)
    mask[1:4, 1:4, 1:4] = 1
    cs = candidate_set([mask] * 3)
    result = simple_fuse(cs)
    np.testing.assert_array_equal(result.consensus.data, mask)
    assert result.dropped == {}
    assert result.iterations_run == 1
    assert all(w["NETC"] == 1.0 for w in result.per_candidate_weights.values())


def test_priority_overlay_resolves_per_label_conflict():
    # Five candidates over two voxels v=(1,1,1) and w=(3,3,3). ET (code 3)
    # and NETC (code 1) evolve different active sets, and both end up
    # claiming v; priority says ET wins there.
    shape = (6, 6, 6)
    v = (1, 1, 1)
    w = (3, 3, 3)
    c1 = np.zeros(shape, dtype=np.uint8)
    c1[v] = 3
    c1[w] = 1
    c2 = np.zeros(shape, dtype=np.uint8)
    c2[v] = 3
    c3 = c2.copy()
    c4 = np.zeros(shape, dtype=np.uint8)
    c4[v] = 1
    c4[w] = 1
    c5 = c4.copy()
    cs = candidate_set([c1, c2, c3, c4, c5], ids=["c1", "c2", "c3", "c4", "c5"])
    result = simple_fuse(cs)

    assert result.consensus.data[v] == 3  # ET outranks NETC
    assert result.consensus.data[w] == 1
    assert int((result.consensus.data != 0).sum()) == 2
    assert result.dropped["ET"] == ("c4", "c5")
    assert result.dropped["NETC"] == ("c1", "c2", "c3")
    assert result.iteration_log["ET"] == (3,)
    assert result.iteration_log["NETC"] == (3, 2)
    assert result.iterations_run == 2
    assert result.per_candidate_weights["c4"]["NETC"] == 1.0
    assert result.per_candidate_weights["c1"]["NETC"] == 0.0
    assert result.per_candidate_weights["c1"]["ET"] == 1.0


def test_all_empty_candidates_fuse_to_empty():
    empty = np.zeros((5, 5, 5), dtype=np.uint8)
    cs = candidate_set([empty] * 3)
    result = simple_fuse(cs)
    assert result.consensus.data.sum() == 0
    assert result.iterations_run == 1


def test_iteration_log_counts_never_increase():
    for seed in range(5):
        arrays = random_candidates(seed + 900, 5)
        result = simple_fuse(candidate_set(arrays))
        for trace in result.iteration_log.values():
            assert all(a >= b for a, b in zip(trace, trace[1:]))
            assert all(1 <= count <= 5 for count in trace)


def test_simple_respects_iteration_cap():
    arrays = random_candidates(42, 5)
    params = SimpleParams(max_iterations=1, convergence_epsilon=0.0)
    result = simple_fuse(candidate_set(arrays), params)
    assert result.iterations_run == 1
    assert result.params["max_iterations"] == 1


# -- invariances --------------------------------------------------------------


@pytest.mark.parametrize("method", FUSION_METHODS)
def test_permutation_invariance(method):
    arrays = random_candidates(7, 4)
    ids = ["p", "q", "r", "s"]
    base = fuse(candidate_set(arrays, ids=ids), method=method)
    perm = [2, 0, 3, 1]
    shuffled = fuse(
        candidate_set([arrays[i] for i in perm], ids=[ids[i] for i in perm]), method=method
    )
    np.testing.assert_array_equal(base.consensus.data, shuffled.consensus.data)
    assert base.per_candidate_weights == shuffled.per_candidate_weights


@pytest.mark.parametrize("method", FUSION_METHODS)
def test_idempotence_on_consensus(method):
    arrays = random_candidates(11, 3)
    consensus = fuse(candidate_set(arrays), method=method).consensus
    again = fuse(
        CandidateSet.from_volumes([consensus] * 3, labels=GLI_LABELS), method=method
    )
    np.testing.assert_array_equal(again.consensus.data, consensus.data)


# -- identity -----------------------------------------------------------------


def test_identity_result_passthrough():
    mask = np.zeros((5, 5, 5), dtype=np.uint8)
    mask[2, 2, 2] = 3
    cs = candidate_set([mask], ids=["only"])
    for method in FUSION_METHODS:
        result = fuse(cs, method=method)
        assert result.method == "identity"
        np.testing.assert_array_equal(result.consensus.data, mask)
        assert result.per_candidate_weights == {"only": {"ET": 1.0, "NETC": 1.0, "SNFH": 1.0}}
        assert result.iterations_run == 1
        assert result.iteration_log == {"ET": (1,), "NETC": (1,), "SNFH": (1,)}
        assert result.params == {} and result.dropped == {}


# -- parameters and dispatch --------------------------------------------------


def test_simple_params_validation():
    with pytest.raises(ValueError):
        SimpleParams(max_iterations=0)
    with pytest.raises(ValueError):
        SimpleParams(drop_factor=-0.5)
    with pytest.raises(ValueError):
        SimpleParams(convergence_epsilon=-1e-9)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"drop_factor": float("nan")},
        {"drop_factor": float("inf")},
        {"convergence_epsilon": float("nan")},
        {"convergence_epsilon": float("inf")},
        {"convergence_epsilon": float("-inf")},
        {"max_iterations": 2.5},
        {"max_iterations": 3.0},
        {"max_iterations": True},
        {"max_iterations": "3"},
    ],
    ids=repr,
)
def test_simple_params_reject_non_finite_and_non_integer_values(kwargs):
    # NaN passes every range check and reaches fusion.json as a bare NaN
    # token; a float cap fails in range() only after the containers ran.
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SimpleParams(**kwargs)


def test_simple_params_defaults():
    params = SimpleParams()
    assert params.max_iterations == 25
    assert params.drop_factor == 1.0
    assert params.convergence_epsilon == 1e-4


def test_unknown_method_rejected():
    arrays = random_candidates(1, 2)
    with pytest.raises(ValueError, match="staple"):
        fuse(candidate_set(arrays), method="staple")


def test_fusion_result_json_round_trip():
    arrays = random_candidates(21, 3)
    result = fuse(candidate_set(arrays, ids=["m1", "m2", "m3"]), method="simple")
    doc = json.loads(json.dumps(result.to_json_dict()))
    assert doc["method"] == "simple"
    assert set(doc["per_candidate_weights"]) == {"m1", "m2", "m3"}
    assert doc["params"]["drop_factor"] == 1.0
    assert isinstance(doc["iterations_run"], int)


# -- the vote-pattern table against the per-voxel vote -----------------------------


def _voxel_simple_one_label(binary_stack: np.ndarray, consensus: np.ndarray, params: SimpleParams):
    """SIMPLE over one label's stacked per-voxel votes, as fusion ran it
    before the vote-pattern table, with the re-vote summed in candidate
    order: the reference the table must equal."""
    n = binary_stack.shape[0]
    active = list(range(n))
    scores = np.zeros(n, dtype=np.float64)
    dropped: set[int] = set()
    trace: list[int] = []
    iterations = 0
    for _ in range(params.max_iterations):
        iterations += 1
        for i in active:
            scores[i] = dice(binary_stack[i], consensus)
        if len(active) > 1:
            vals = scores[active]
            std = float(vals.std())
            # Zero variance means no outlier to drop; the threshold would
            # remove everyone or no one anyway.
            if std > 0:
                threshold = float(vals.mean()) - params.drop_factor * std
                best = active[int(np.argmax(vals))]
                surviving = [i for i in active if i == best or scores[i] >= threshold]
                dropped |= set(active) - set(surviving)
                active = surviving
        trace.append(len(active))
        affirm = np.zeros(consensus.shape, dtype=np.float64)
        for i in active:
            affirm[binary_stack[i]] += scores[i]
        new_consensus = affirm > float(scores[active].sum()) / 2.0
        changed = int(np.logical_xor(new_consensus, consensus).sum())
        union = int(np.logical_or(new_consensus, consensus).sum())
        fraction = changed / max(1, union)
        consensus = new_consensus
        if fraction < params.convergence_epsilon:
            break
    weights_out = np.zeros(n, dtype=np.float64)
    for i in active:
        weights_out[i] = scores[i]
    return consensus, weights_out, dropped, iterations, tuple(trace)


def _voxel_simple(arrays, labels=GLI_LABELS, params=SimpleParams()):
    """Per label: the voxel stack's (consensus, weights, dropped, iterations,
    trace) from the strict majority start."""
    stack = np.stack(arrays)
    out = {}
    for label in labels:
        binary_stack = stack == label.code
        majority = binary_stack.sum(axis=0, dtype=np.int64) * 2 > len(arrays)
        out[label.name] = _voxel_simple_one_label(binary_stack, majority, params)
    return out


def _assert_table_equals_voxel_vote(arrays, labels=GLI_LABELS):
    ids = [f"c{i}" for i in range(len(arrays))]
    result = simple_fuse(candidate_set(arrays, labels=labels, ids=ids))
    want = _voxel_simple(arrays, labels)
    expected = np.zeros(arrays[0].shape, dtype=np.uint8)
    for label in reversed(label_priority_order(labels)):
        consensus, weights, dropped, iterations, trace = want[label.name]
        expected[consensus] = label.code
        assert [result.per_candidate_weights[sid][label.name] for sid in ids] == weights.tolist()
        assert result.dropped.get(label.name, ()) == tuple(ids[i] for i in sorted(dropped))
        assert result.iteration_log[label.name] == trace
    assert result.iterations_run == max(1, *(w[3] for w in want.values()))
    assert result.consensus.data.tobytes() == expected.tobytes()


def _noisy_copies(seed, n, shape=(9, 8, 7)):
    """``n`` candidates: one truth with a different share of voxels redrawn
    in each, so SIMPLE has outliers to weigh and drop."""
    rng = np.random.default_rng(seed)
    truth = rng.choice(np.array([0, 1, 2, 3], dtype=np.uint8), size=shape, p=[0.5, 0.15, 0.2, 0.15])
    arrays = []
    for _ in range(n):
        noisy = truth.copy()
        flip = rng.random(shape) < rng.uniform(0.0, 0.5)
        noisy[flip] = rng.integers(0, 4, size=int(flip.sum()))
        arrays.append(noisy)
    return arrays


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", range(1, 11))  # 9 and 10 need a uint16 pattern
def test_vote_pattern_table_equals_the_voxel_vote(seed, n):
    _assert_table_equals_voxel_vote(_noisy_copies(seed * 100 + n, n))


@pytest.mark.parametrize("n", [2, 4, 6, 10])
def test_vote_pattern_table_equals_the_voxel_vote_on_duplicates(n):
    # Two masks, each repeated: equal weights, so affirm == total / 2 ties.
    first, second = _noisy_copies(7, 2)
    _assert_table_equals_voxel_vote([first if i % 2 else second for i in range(n)])


@pytest.mark.parametrize("n", [17, 33])  # uint32 and uint64 patterns
def test_vote_pattern_table_equals_the_voxel_vote_in_wide_patterns(n):
    copies = _noisy_copies(17, 4, shape=(6, 5, 4))
    _assert_table_equals_voxel_vote([copies[i % 4] for i in range(n)])


def _assert_unique_table(pattern):
    patterns, counts = _pattern_table(pattern)
    want = np.unique(pattern, return_counts=True)
    assert patterns.dtype == want[0].dtype and counts.dtype == want[1].dtype
    assert np.array_equal(patterns, want[0]) and np.array_equal(counts, want[1])


@pytest.mark.parametrize("n", [1, 5, 16, 17, 33, 64])
def test_counted_pattern_table_is_the_unique_table(n):
    dtype = _pattern_dtype(n)
    rng = np.random.default_rng(n)
    # A few voting patterns over mostly silent voxels, as in a label's box.
    drawn = rng.integers(0, np.iinfo(dtype).max, size=(7, 6, 5), dtype=dtype, endpoint=True) >> (
        8 * dtype.itemsize - n
    )
    pattern = np.where(rng.random(drawn.shape) < 0.6, 0, drawn).astype(dtype)
    pattern[0, 0, 0] = 0
    _assert_unique_table(pattern)
    _assert_unique_table(np.asfortranarray(pattern))  # the order of a NIfTI read
    pattern[pattern == 0] = 1  # no silent voxel
    _assert_unique_table(pattern)
    _assert_unique_table(np.zeros_like(pattern))  # every voxel silent
    _assert_unique_table(pattern[:0])  # an empty box


def _seeded_vote_table(rng, twins: bool):
    """A label's (votes, counts, majority consensus) table, 2-16 candidates
    by 1-64 columns. With ``twins`` the candidates come in pairs that swap
    the votes of twin columns (equal counts), so each pair scores an equal
    weight at every iteration; in a column where one side of every pair
    votes and the other does not, the affirming sum is exactly half the
    total, and only its rounding decides the flag."""
    if twins:
        k, m = int(rng.integers(1, 9)), int(rng.integers(1, 33))
        v, u = (rng.random((k, m)) < rng.uniform(0.2, 0.8) for _ in range(2))
        split = rng.random(m) < 0.5
        v[:, split], u[:, split] = True, False
        votes = np.block([[v, u], [u, v]])
        counts = np.tile(rng.integers(1, 5000, size=m), 2)
    else:
        n, width = int(rng.integers(2, 17)), int(rng.integers(1, 65))
        rows = rng.random((int(rng.integers(1, n + 1)), width)) < rng.uniform(0.2, 0.8)
        votes = rows[rng.integers(0, rows.shape[0], size=n)]
        counts = rng.integers(0, 50, size=width)
    return votes, counts, votes.sum(axis=0) * 2 > votes.shape[0]


@pytest.mark.parametrize("seed", range(40))
def test_simple_vote_ignores_the_table_layout(seed):
    # The flag of a pattern must follow from its votes and the weights
    # alone: not from its column's place in the table, nor from columns
    # no voxel has.
    rng = np.random.default_rng(seed)
    for twins in (False, True) * 4:
        votes, counts, consensus = _seeded_vote_table(rng, twins)
        n, width = votes.shape
        params = SimpleParams(drop_factor=float(rng.choice([0.0, 0.5, 1.0, 2.0])))
        want = _simple_one_label(votes, counts, consensus, params)
        perm = rng.permutation(width)
        extra = rng.random((n, int(rng.integers(1, 9)))) < 0.5
        for table in (
            (votes[:, perm], counts[perm], consensus[perm]),
            (
                np.concatenate([votes[:, perm], extra], axis=1),
                np.concatenate([counts[perm], np.zeros(extra.shape[1], dtype=counts.dtype)]),
                np.concatenate([consensus[perm], extra.sum(axis=0) * 2 > n]),
            ),
        ):
            got = _simple_one_label(*table, params)
            assert np.array_equal(got[0][:width], want[0][perm])
            assert got[1].tolist() == want[1].tolist()
            assert got[2:] == want[2:]


def test_vote_pattern_table_equals_the_voxel_vote_with_an_empty_label():
    arrays = [np.where(a == LABEL_ET.code, 0, a).astype(np.uint8) for a in _noisy_copies(11, 5)]
    _assert_table_equals_voxel_vote(arrays)
    assert not np.any(simple_fuse(candidate_set(arrays)).consensus.data == LABEL_ET.code)


def test_vote_pattern_table_equals_the_voxel_vote_for_one_candidate():
    [mask] = _noisy_copies(13, 1)
    _assert_table_equals_voxel_vote([mask])
    assert fuse(candidate_set([mask]), "simple").consensus.data.tobytes() == mask.tobytes()


def test_more_than_64_candidates_are_refused():
    mask = np.zeros((2, 2, 2), dtype=np.uint8)
    candidate_set([mask] * 64)
    with pytest.raises(ValueError, match="65 candidate masks; fusion takes at most 64"):
        candidate_set([mask] * 65)
