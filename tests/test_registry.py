"""Task table and algorithm catalog checked against the data fixture.

tests/data/task_table.json restates the whole table by hand; the tests here
compare both directions so neither side can drift silently.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from brainorch.errors import (
    CatalogError,
    NoAlgorithmForTask,
    UnknownAlgorithm,
    UnknownTask,
)
from brainorch.registry import (
    CANONICAL_ATLAS_SHAPE,
    CANONICAL_ATLAS_SPACING,
    LABEL_PRIORITY,
    LATEST_WINNER,
    AlgorithmEntry,
    Catalog,
    TaskId,
    builtin_catalog,
    get_task_spec,
    list_algorithms,
    list_tasks,
    load_catalog,
    normalize_task_id,
    resolve_algorithm,
)

FIXTURE = json.loads((Path(__file__).parent / "data" / "task_table.json").read_text())


# -- task table vs fixture -----------------------------------------------------


def test_task_ids_match_fixture_exactly():
    assert {spec.task_id.value for spec in list_tasks()} == set(FIXTURE["tasks"])


@pytest.mark.parametrize("task_name", sorted(FIXTURE["tasks"]))
def test_task_fields_match_fixture(task_name):
    expected = FIXTURE["tasks"][task_name]
    spec = get_task_spec(task_name)
    assert spec.kind == expected["kind"]
    assert list(spec.years) == expected["years"]
    assert list(spec.required_inputs) == expected["required_inputs"]
    assert list(spec.preprocessing) == expected["preprocessing"]
    assert spec.spatial_space == expected["spatial_space"]
    assert [[lb.name, lb.code] for lb in spec.labels] == expected["labels"]
    assert spec.input_policy == expected["input_policy"]


def test_label_codes_property():
    def codes(task):
        return tuple(lb.code for lb in get_task_spec(task).labels)

    assert codes("gli-post") == (3, 1, 2, 4)
    assert codes("men-rt") == (1,)
    assert codes("inpaint") == ()


def test_label_priority_covers_every_label_name():
    names = {lb.name for spec in list_tasks() for lb in spec.labels}
    assert names <= set(LABEL_PRIORITY)
    assert LABEL_PRIORITY.index("ET") == 0


def test_canonical_atlas_grid():
    assert CANONICAL_ATLAS_SHAPE == (240, 240, 155)
    assert CANONICAL_ATLAS_SPACING == (1.0, 1.0, 1.0)


# -- task id normalization -----------------------------------------------------


@pytest.mark.parametrize("raw", ["gli-pre", "GLI-PRE", "gli_pre", "GLI_PRE", TaskId.GLI_PRE])
def test_normalize_accepts_all_spellings(raw):
    assert normalize_task_id(raw) is TaskId.GLI_PRE


def test_unknown_task_lists_valid_names():
    with pytest.raises(UnknownTask, match="gli-pre"):
        normalize_task_id("brats-everything")


# -- catalog vs fixture ----------------------------------------------------


def test_builtin_catalog_matches_fixture_exactly():
    expected = {
        row[0]: (row[1], row[2], row[3], row[4]) for row in FIXTURE["algorithms"]
    }
    actual = {
        e.id: (e.task_id.value, e.year, e.rank, e.team_reference)
        for e in builtin_catalog().entries
    }
    assert actual == expected


def test_builtin_image_references_are_pinned_by_digest():
    for entry in builtin_catalog().entries:
        digest = hashlib.sha256(entry.id.encode()).hexdigest()
        assert entry.image_reference == f"brainles/brats-{entry.id}@sha256:{digest}"


def test_builtin_resource_defaults():
    entry = resolve_algorithm("gli-pre", "gli-pre-2023-1")
    assert entry.requires_gpu is True
    assert entry.shm_bytes == 2 * 1024**3
    assert entry.timeout_seconds == 1800
    assert entry.input_mount_path == "/mlcube_io0"
    assert entry.output_mount_path == "/mlcube_io1"


# -- lookup rules ----------------------------------------------------------


def test_latest_winner_prefers_newest_year():
    assert resolve_algorithm("ped", LATEST_WINNER).id == "ped-2024-1"
    assert resolve_algorithm("ssa", "latest_winner").id == "ssa-2024-1"
    assert resolve_algorithm("gli-pre", LATEST_WINNER).id == "gli-pre-2023-1"


def test_list_algorithms_orders_newest_then_rank():
    ids = [e.id for e in list_algorithms("ssa")]
    assert ids == ["ssa-2024-1", "ssa-2024-2", "ssa-2024-3", "ssa-2023-1", "ssa-2023-2", "ssa-2023-3"]
    assert [e.id for e in list_algorithms("ssa", year=2023)] == [
        "ssa-2023-1",
        "ssa-2023-2",
        "ssa-2023-3",
    ]


def test_single_entry_task():
    assert [e.id for e in list_algorithms("goat")] == ["goat-2024-1"]


def test_explicit_id_resolution():
    assert resolve_algorithm("men-rt", "men-rt-2024-2").team_reference == "Astaraki et al., 2024"


def test_id_for_wrong_task_rejected():
    with pytest.raises(UnknownAlgorithm, match="belongs to task"):
        resolve_algorithm("gli-pre", "ped-2024-1")


def test_unknown_id_rejected():
    with pytest.raises(UnknownAlgorithm, match="nonesuch"):
        resolve_algorithm("gli-pre", "nonesuch")


def test_synthesis_tasks_have_no_builtin_entries():
    for task in ("inpaint", "missing-mri"):
        assert list_algorithms(task) == ()
        with pytest.raises(NoAlgorithmForTask):
            resolve_algorithm(task, LATEST_WINNER)


# -- catalog invariants ------------------------------------------------------


def entry(algo_id="x-1", task=TaskId.GLI_PRE, year=2025, rank=1):
    return AlgorithmEntry(
        id=algo_id,
        task_id=task,
        year=year,
        rank=rank,
        team_reference="t",
        image_reference="example/x@sha256:" + "0" * 64,
    )


def test_duplicate_id_rejected():
    with pytest.raises(CatalogError, match="duplicate algorithm id"):
        Catalog(entries=(entry(), entry(rank=2)))


def test_duplicate_slot_rejected():
    with pytest.raises(CatalogError, match="slot"):
        Catalog(entries=(entry("a"), entry("b")))


def test_nonpositive_rank_rejected():
    with pytest.raises(CatalogError, match="rank"):
        Catalog(entries=(entry(rank=0),))


# -- override loading --------------------------------------------------------


def override_doc(entries):
    return {"schema_version": 1, "algorithms": entries}


def raw_entry(**kw):
    base = {
        "id": "custom-1",
        "task_id": "gli-pre",
        "year": 2025,
        "rank": 1,
        "team_reference": "in-house",
        "image_reference": "example/custom@sha256:" + "1" * 64,
    }
    base.update(kw)
    return base


def test_override_appends_new_entry(tmp_path):
    path = tmp_path / "o.json"
    path.write_text(json.dumps(override_doc([raw_entry()])))
    cat = load_catalog(path)
    got = cat.resolve("gli-pre", "custom-1")
    assert got.year == 2025
    # every optional field falls back to its default
    assert got.architecture_tags == ()
    assert got.requires_gpu is True
    assert got.shm_bytes == 2 * 1024**3
    assert got.timeout_seconds == 1800
    assert got.input_mount_path == "/mlcube_io0"
    assert got.output_mount_path == "/mlcube_io1"
    # built-ins still present
    assert cat.resolve("gli-pre", "gli-pre-2023-1").team_reference == "Ferreira et al., 2024"


def test_override_replaces_entry_with_same_id(tmp_path):
    path = tmp_path / "o.json"
    replacement = raw_entry(
        id="gli-pre-2023-1",
        year=2023,
        rank=1,
        image_reference="example/patched@sha256:" + "2" * 64,
    )
    path.write_text(json.dumps(override_doc([replacement])))
    cat = load_catalog(path)
    assert cat.resolve("gli-pre", "gli-pre-2023-1").image_reference.startswith("example/patched")
    assert len(cat.entries) == len(builtin_catalog().entries)


def test_override_changes_latest_winner(tmp_path):
    path = tmp_path / "o.json"
    path.write_text(json.dumps(override_doc([raw_entry()])))
    assert load_catalog(path).resolve("gli-pre", LATEST_WINNER).id == "custom-1"


def test_override_slot_collision_fails_loudly(tmp_path):
    path = tmp_path / "o.json"
    clash = raw_entry(id="other-id", year=2023, rank=1)  # slot taken by gli-pre-2023-1
    path.write_text(json.dumps(override_doc([clash])))
    with pytest.raises(CatalogError, match="slot"):
        load_catalog(path)


def test_override_gives_synthesis_tasks_entries(tmp_path):
    path = tmp_path / "o.json"
    path.write_text(
        json.dumps(override_doc([raw_entry(id="paint-1", task_id="inpaint", requires_gpu=False)]))
    )
    cat = load_catalog(path)
    assert cat.resolve("inpaint", LATEST_WINNER).id == "paint-1"


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"schema_version": 2, "algorithms": []}, "schema_version"),
        ({"schema_version": 1, "algorithms": {}}, "list"),
        pytest.param({"schema_version": 1}, "'algorithms' is missing", id="doc2-list"),
        pytest.param([], "must be an object", id="doc3-schema_version"),
        ({"schema_version": True, "algorithms": []}, "schema_version"),
        ({"schema_version": 1.0, "algorithms": []}, "schema_version"),
    ],
)
def test_bad_override_envelope_rejected(tmp_path, doc, fragment):
    path = tmp_path / "o.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match=fragment):
        load_catalog(path)


def test_override_entry_missing_keys_rejected(tmp_path):
    path = tmp_path / "o.json"
    bad = raw_entry()
    del bad["image_reference"]
    path.write_text(json.dumps(override_doc([bad])))
    with pytest.raises(CatalogError, match="image_reference"):
        load_catalog(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("requires_gpu", "false"),
        ("requires_gpu", 0),
        ("architecture_tags", "nnU-Net"),
        ("architecture_tags", ["nnU-Net", 3]),
        ("shm_bytes", -5),
        ("shm_bytes", 1.5),
        ("shm_bytes", True),
        ("timeout_seconds", "abc"),
        ("timeout_seconds", 0),
        ("timeout_seconds", -1.0),
        ("timeout_seconds", float("inf")),
        ("timeout_seconds", float("nan")),
        ("timeout_seconds", True),
        ("input_mount_path", 7),
        ("input_mount_path", "mlcube_io0"),
        ("output_mount_path", None),
    ],
)
def test_override_optional_field_of_the_wrong_type_rejected(tmp_path, key, value):
    path = tmp_path / "o.json"
    path.write_text(json.dumps(override_doc([raw_entry(**{key: value})])))
    with pytest.raises(CatalogError, match=rf"o\.json: entry 'custom-1': '{key}' must be"):
        load_catalog(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("rank", True),
        ("rank", 1.9),
        ("year", "2025"),
        ("id", 7),
        ("team_reference", 5),
    ],
)
def test_override_required_field_of_the_wrong_type_rejected_not_coerced(tmp_path, key, value):
    path = tmp_path / "o.json"
    path.write_text(json.dumps(override_doc([raw_entry(**{key: value})])))
    with pytest.raises(CatalogError, match=rf"o\.json: entry .+: '{key}' must be an? (integer|string), got"):
        load_catalog(path)


def test_override_optional_fields_at_their_bounds_load(tmp_path):
    path = tmp_path / "o.json"
    entry = raw_entry(
        requires_gpu=False,
        architecture_tags=["nnU-Net", "MedNeXt"],
        shm_bytes=0,
        timeout_seconds=0.5,
        input_mount_path="/in",
        output_mount_path="/out",
    )
    path.write_text(json.dumps(override_doc([entry, raw_entry(id="custom-2", rank=2, timeout_seconds=30)])))
    cat = load_catalog(path)
    got = cat.resolve("gli-pre", "custom-1")
    assert (got.requires_gpu, got.architecture_tags, got.shm_bytes, got.timeout_seconds) == (
        False, ("nnU-Net", "MedNeXt"), 0, 0.5
    )
    assert (got.input_mount_path, got.output_mount_path) == ("/in", "/out")
    assert cat.resolve("gli-pre", "custom-2").timeout_seconds == 30


def test_override_entry_unknown_keys_rejected(tmp_path):
    path = tmp_path / "o.json"
    path.write_text(json.dumps(override_doc([raw_entry(gpu_count=4)])))
    with pytest.raises(CatalogError, match="gpu_count"):
        load_catalog(path)


def test_override_invalid_json_rejected(tmp_path):
    path = tmp_path / "o.json"
    path.write_text("{nope")
    with pytest.raises(CatalogError, match="JSON"):
        load_catalog(path)


def test_no_override_returns_builtin():
    assert load_catalog(None) is builtin_catalog()
