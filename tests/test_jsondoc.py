"""The one JSON reader and checker: its phrasing, and the three documents a
user writes (catalog override, behaviors file, transform sidecar) fed
hostile JSON. Each loader returns a value or raises only its documented
error type, and every message names the file."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainorch import jsondoc
from brainorch.errors import CatalogError, IoFailure, MalformedTransform
from brainorch.geometry import read_transform
from brainorch.registry import load_catalog
from brainorch.runtime import load_behaviors


def catalog_doc() -> dict:
    entry = {
        "id": "custom-1", "task_id": "gli-pre", "year": 2025, "rank": 1, "team_reference": "in-house",
        "image_reference": "example/custom", "architecture_tags": ["nnU-Net"], "requires_gpu": False,
        "shm_bytes": 0, "timeout_seconds": 1.5, "input_mount_path": "/in", "output_mount_path": "/out",
    }
    return {"schema_version": 1, "algorithms": [entry]}


def behaviors_doc() -> dict:
    outputs = [
        {"path": "a.nii.gz", "generator": "copy_input", "source": "*-t1c.nii*"},
        {"path": "b.nii.gz", "generator": "label_blobs", "like": "*",
         "blobs": [{"label": 1, "center": [1, 2.5, 3], "radius": 2}]},
        {"path": "c.nii.gz", "generator": "mean_fill", "image": "*-t1n.nii*", "mask": "*-mask.nii*"},
        {"path": "d.txt", "generator": "write_text", "text": "done"},
    ]
    image = {"content_digest": None, "exit_code": 0, "sleep_s": 0, "stdout": "", "stderr": "", "outputs": outputs}
    return {"schema_version": 1, "images": {"example/algo": image}}


def sidecar_doc() -> dict:
    return {"matrix": np.eye(4).ravel().tolist(), "source_space": "native", "target_space": "SRI24", "units": "mm"}


# loader, the only errors it may raise, a document it loads
LOADERS = {
    "catalog": (load_catalog, (IoFailure, CatalogError), catalog_doc),
    "behaviors": (load_behaviors, (IoFailure, ValueError), behaviors_doc),
    "sidecar": (read_transform, (IoFailure, MalformedTransform), sidecar_doc),
}


def positions(value, at=()) -> list[tuple]:
    """Every place a value sits in ``value``, the whole document included,
    plus one new key in each object."""
    found = [at]
    if isinstance(value, dict):
        found.append((*at, "extra"))
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        found += positions(item, (*at, key))
    return found


def placed(doc, at: tuple, value):
    if not at:
        return value
    *parents, last = at
    parent = doc
    for key in parents:
        parent = parent[key]
    parent[last] = value
    return doc


def loads_or_raises_its_own_error(name: str, path: Path) -> None:
    loader, errors, _ = LOADERS[name]
    try:
        loader(path)
    except errors as exc:
        assert str(path) in str(exc), exc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_json_value_at_any_position_loads_or_raises_the_documented_error(tmp_path_factory, name, data):
    doc = LOADERS[name][2]()
    at = data.draw(st.sampled_from(positions(doc)), label="position")
    path = tmp_path_factory.mktemp(name) / "doc.json"
    path.write_text(json.dumps(placed(doc, at, data.draw(JSON_VALUES, label="value"))))
    loads_or_raises_its_own_error(name, path)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_and_non_utf8_bytes_raise_the_documented_error(tmp_path_factory, name, data):
    good = json.dumps(LOADERS[name][2]()).encode()
    cut = data.draw(st.integers(0, len(good)), label="cut")
    raw = data.draw(st.binary(max_size=40) | st.just(good[:cut] + b"\xff" + good[cut:]), label="bytes")
    path = tmp_path_factory.mktemp(name) / "doc.json"
    path.write_bytes(raw)
    loads_or_raises_its_own_error(name, path)


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize("opening", [b"[", b'{"a": '], ids=["arrays", "objects"])
def test_json_nested_100000_deep_raises_the_documented_error(tmp_path, name, opening):
    path = tmp_path / "deep.json"
    path.write_bytes(opening * 100_000)
    _, errors, _ = LOADERS[name]
    with pytest.raises(errors[1:], match="not valid JSON") as info:
        LOADERS[name][0](path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_an_integer_beyond_float64_at_any_position_loads_or_raises_the_documented_error(tmp_path, name):
    doc = LOADERS[name][2]()
    for i, at in enumerate(positions(doc)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(placed(LOADERS[name][2](), at, "HUGE")).replace('"HUGE"', "1" + "0" * 400))
        loads_or_raises_its_own_error(name, path)


@pytest.mark.parametrize("entry", [10**400, -(10**400)], ids=["positive", "negative"])
def test_a_sidecar_entry_beyond_float64_is_malformed(tmp_path, entry):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({**sidecar_doc(), "matrix": [entry, *sidecar_doc()["matrix"][1:]]}))
    with pytest.raises(MalformedTransform, match=r"'matrix' must be 16 numbers"):
        read_transform(path)


@pytest.mark.parametrize("matrix", [np.eye(4).tolist(), np.eye(4).ravel().tolist()], ids=["rows", "flat"])
def test_a_sidecar_matrix_may_be_flat_or_four_rows_and_carry_extra_keys(tmp_path, matrix):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({**sidecar_doc(), "matrix": matrix, "tool": "ants", "version": [2, 5]}))
    np.testing.assert_array_equal(read_transform(path).matrix, np.eye(4))


def test_a_sidecar_matrix_of_another_nesting_is_malformed(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({**sidecar_doc(), "matrix": np.eye(4).reshape(2, 2, 4).tolist()}))
    with pytest.raises(MalformedTransform, match=r"'matrix' must be 16 numbers, flat or as 4 rows of 4"):
        read_transform(path)


@pytest.mark.parametrize("key", ["source_space", "target_space"])
def test_a_sidecar_space_tag_is_a_string_not_coerced(tmp_path, key):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({**sidecar_doc(), key: ["native"]}))
    with pytest.raises(MalformedTransform, match=f"'{key}' must be a string, got"):
        read_transform(path)


def test_a_singular_sidecar_is_malformed_naming_the_file(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({**sidecar_doc(), "matrix": np.diag([1.0, 1.0, 0.0, 1.0]).ravel().tolist()}))
    with pytest.raises(MalformedTransform, match="singular") as info:
        read_transform(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "entry, problem",
    [
        ({"rank": 0}, "custom-1: rank must be >= 1"),
        ({"task_id": "no-such-task"}, "unknown task 'no-such-task'"),
        ({"id": "gli-pre-2023-2", "year": 2023}, "duplicate (task, year, rank) slot"),
        ({"timeout_seconds": 10**400}, "entry 'custom-1': 'timeout_seconds' must be a finite number > 0"),
    ],
    ids=["rank-0", "unknown-task", "slot-clash", "timeout-beyond-float64"],
)
def test_every_catalog_override_error_is_a_catalog_error_naming_the_file(tmp_path, entry, problem):
    doc = catalog_doc()
    doc["algorithms"][0].update(entry)
    path = tmp_path / "o.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError) as info:
        load_catalog(path)
    assert str(info.value).startswith(f"{path}: ")
    assert problem in str(info.value)


# -- the checker's phrasing ------------------------------------------------------


POINT = jsondoc.obj({"x": jsondoc.INTEGER}, {"tags": jsondoc.array(jsondoc.STRING)})


@pytest.mark.parametrize(
    "value, problem",
    [
        ({"x": 1}, None),
        ({"x": 1, "tags": ["a", "b"]}, None),
        ([], "must be an object, got []"),
        ({}, "'x' is missing"),
        ({"x": 1, "y": 2, "a": 3}, "unknown keys ['a', 'y']"),
        ({"x": True}, "'x' must be an integer, got True"),
        ({"x": 1, "tags": "a"}, "'tags' must be an array, got 'a'"),
        ({"x": 1, "tags": ["a", 2]}, "'tags' item 1: must be a string, got 2"),
    ],
)
def test_a_check_returns_none_or_its_first_problem(value, problem):
    assert POINT(value) == problem


def test_an_open_object_allows_other_keys():
    assert jsondoc.obj({"x": jsondoc.INTEGER}, open=True)({"x": 1, "y": "any"}) is None


@pytest.mark.parametrize(
    "value, ok",
    [(1, True), (1.5, True), (float("nan"), True), (float("inf"), True), (10**400, False), (True, False), ("1", False)],
)
def test_a_json_number_is_one_float64_holds(value, ok):
    assert jsondoc.is_number(value) is ok
    assert jsondoc.is_finite(value) is (ok and math.isfinite(value))


class ReplyError(Exception):
    pass


@pytest.mark.parametrize("raw", [b"\xff", b"\xef\xbb\xbf1", "1".encode("utf-16")], ids=["not-utf8", "bom", "utf16"])
def test_only_utf8_json_parses(raw):
    with pytest.raises(ReplyError, match="^reply: not valid JSON"):
        jsondoc.parse(raw, "reply", ReplyError, jsondoc.SCHEMA_1)


def test_parse_names_the_document_in_its_error():
    with pytest.raises(ReplyError, match="^reply: must be the integer 1, got 2"):
        jsondoc.parse(b"2", "reply", ReplyError, jsondoc.SCHEMA_1)
    assert jsondoc.parse(b"1", "reply", ReplyError, jsondoc.SCHEMA_1) == 1
