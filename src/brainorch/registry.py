"""Task registry and algorithm catalog for the BraTS 2023-2024 cluster.

The task table pins, per challenge task: required input modalities, the
preprocessing its data went through, the coordinate space masks live in, and
the label set with integer codes. The algorithm catalog pins the published
top-3 entries per task and year (a single entry where only a winner was
announced) with container image references and resource defaults.

Both are data, not behavior: tests compare them against checked-in fixtures.
A catalog override file can replace or extend entries without code changes,
which is also how synthesis tasks get runnable entries; the published
rankings cover segmentation only, so the built-in catalog has none for
INPAINT or MISSING_MRI. The override is read and each entry checked by
:mod:`brainorch.jsondoc`; a bad one is a CatalogError naming the file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import jsondoc
from .errors import CatalogError, NoAlgorithmForTask, UnknownAlgorithm, UnknownTask


class TaskId(str, Enum):
    """Challenge tasks; values double as CLI names."""

    GLI_PRE = "gli-pre"
    GLI_POST = "gli-post"
    SSA = "ssa"
    MEN_PRE = "men-pre"
    METS = "mets"
    PED = "ped"
    GOAT = "goat"
    MEN_RT = "men-rt"
    INPAINT = "inpaint"
    MISSING_MRI = "missing-mri"


@dataclass(frozen=True)
class Label:
    """A segmentation label: integer code on disk plus its challenge name."""

    code: int
    name: str


# Integer codes follow the post-2023 challenge convention. ED and SNFH share
# code 2 (ED is the pediatric name for the same region); CC and RC share 4.
LABEL_NETC = Label(1, "NETC")
LABEL_SNFH = Label(2, "SNFH")
LABEL_ED = Label(2, "ED")
LABEL_ET = Label(3, "ET")
LABEL_RC = Label(4, "RC")
LABEL_CC = Label(4, "CC")
LABEL_GTV = Label(1, "GTV")

# Multi-label voxel conflicts resolve to the earliest name in this tuple.
LABEL_PRIORITY = ("ET", "NETC", "RC", "SNFH", "ED", "CC", "GTV")

MODALITIES = ("T1c", "T1n", "T2w", "FLA")
INPAINT_MASK = "MASK"

SEGMENTATION = "segmentation"
SYNTHESIS = "synthesis"

# Atlas grid the challenge distributes registered data on: 240x240x155 at
# 1 mm isotropic. Other grids are legal (a warning, not an error).
CANONICAL_ATLAS_SHAPE = (240, 240, 155)
CANONICAL_ATLAS_SPACING = (1.0, 1.0, 1.0)

PREP_COREG = "co-registration"
PREP_SKULL_STRIP = "skull-stripping"
PREP_ATLAS_REG = "atlas-registration"
PREP_DEFACE = "defacing"


@dataclass(frozen=True)
class TaskSpec:
    """Everything the orchestrator must know about one challenge task."""

    task_id: TaskId
    kind: str
    years: tuple[int, ...]
    required_inputs: tuple[str, ...]
    preprocessing: tuple[str, ...]
    spatial_space: str
    labels: tuple[Label, ...]
    # "all" = every required input present; "any-three-of-four" = exactly
    # three of the four modalities (MISSING_MRI synthesizes the fourth).
    input_policy: str = "all"


_FULL_PREP = (PREP_COREG, PREP_SKULL_STRIP, PREP_ATLAS_REG)

_TASKS: dict[TaskId, TaskSpec] = {
    spec.task_id: spec
    for spec in (
        TaskSpec(
            task_id=TaskId.GLI_PRE,
            kind=SEGMENTATION,
            years=(2023,),
            required_inputs=MODALITIES,
            preprocessing=_FULL_PREP,
            spatial_space="SRI24",
            labels=(LABEL_ET, LABEL_NETC, LABEL_SNFH),
        ),
        TaskSpec(
            task_id=TaskId.GLI_POST,
            kind=SEGMENTATION,
            years=(2024,),
            required_inputs=MODALITIES,
            preprocessing=_FULL_PREP,
            spatial_space="MNI152",
            labels=(LABEL_ET, LABEL_NETC, LABEL_SNFH, LABEL_RC),
        ),
        TaskSpec(
            task_id=TaskId.SSA,
            kind=SEGMENTATION,
            years=(2023, 2024),
            required_inputs=MODALITIES,
            preprocessing=_FULL_PREP,
            spatial_space="SRI24",
            labels=(LABEL_ET, LABEL_NETC, LABEL_SNFH),
        ),
        TaskSpec(
            task_id=TaskId.MEN_PRE,
            kind=SEGMENTATION,
            years=(2023,),
            required_inputs=MODALITIES,
            preprocessing=_FULL_PREP,
            spatial_space="SRI24",
            labels=(LABEL_ET, LABEL_NETC, LABEL_SNFH),
        ),
        TaskSpec(
            task_id=TaskId.METS,
            kind=SEGMENTATION,
            years=(2023,),
            required_inputs=MODALITIES,
            preprocessing=_FULL_PREP,
            spatial_space="SRI24",
            labels=(LABEL_ET, LABEL_NETC, LABEL_SNFH),
        ),
        TaskSpec(
            task_id=TaskId.PED,
            kind=SEGMENTATION,
            years=(2023, 2024),
            required_inputs=MODALITIES,
            preprocessing=(PREP_COREG, PREP_DEFACE),
            spatial_space="native",
            labels=(LABEL_ET, LABEL_NETC, LABEL_CC, LABEL_ED),
        ),
        TaskSpec(
            task_id=TaskId.GOAT,
            kind=SEGMENTATION,
            years=(2024,),
            required_inputs=MODALITIES,
            preprocessing=_FULL_PREP,
            spatial_space="SRI24",
            labels=(LABEL_ET, LABEL_NETC, LABEL_SNFH),
        ),
        TaskSpec(
            task_id=TaskId.MEN_RT,
            kind=SEGMENTATION,
            years=(2024,),
            required_inputs=("T1c",),
            preprocessing=(PREP_DEFACE,),
            spatial_space="native",
            labels=(LABEL_GTV,),
        ),
        TaskSpec(
            task_id=TaskId.INPAINT,
            kind=SYNTHESIS,
            years=(2023, 2024),
            required_inputs=("T1n", INPAINT_MASK),
            preprocessing=_FULL_PREP,
            spatial_space="SRI24",
            labels=(),
        ),
        TaskSpec(
            task_id=TaskId.MISSING_MRI,
            kind=SYNTHESIS,
            years=(2023, 2024),
            required_inputs=MODALITIES,
            preprocessing=_FULL_PREP,
            spatial_space="SRI24",
            labels=(),
            input_policy="any-three-of-four",
        ),
    )
}


def normalize_task_id(task: "TaskId | str") -> TaskId:
    """Accept the enum, its value (``gli-pre``), or its name (``GLI_PRE``)."""
    if isinstance(task, TaskId):
        return task
    text = str(task)
    try:
        return TaskId(text.lower().replace("_", "-"))
    except ValueError:
        raise UnknownTask(
            f"unknown task {task!r}; valid tasks: {', '.join(t.value for t in TaskId)}"
        ) from None


def get_task_spec(task: "TaskId | str") -> TaskSpec:
    return _TASKS[normalize_task_id(task)]


def list_tasks() -> tuple[TaskSpec, ...]:
    return tuple(_TASKS.values())


@dataclass(frozen=True)
class AlgorithmEntry:
    """One ranked challenge entry, runnable as a container."""

    id: str
    task_id: TaskId
    year: int
    rank: int
    team_reference: str
    image_reference: str
    architecture_tags: tuple[str, ...] = ()
    requires_gpu: bool = True
    shm_bytes: int = 2 * 1024**3
    timeout_seconds: float = 1800
    input_mount_path: str = "/mlcube_io0"
    output_mount_path: str = "/mlcube_io1"


def _synthetic_digest(algo_id: str) -> str:
    # Placeholder digests: deterministic, clearly not registry content.
    return hashlib.sha256(algo_id.encode()).hexdigest()


def _entry(task: TaskId, year: int, rank: int, team: str, tags: tuple[str, ...]) -> AlgorithmEntry:
    algo_id = f"{task.value}-{year}-{rank}"
    return AlgorithmEntry(
        id=algo_id,
        task_id=task,
        year=year,
        rank=rank,
        team_reference=team,
        image_reference=f"brainles/brats-{algo_id}@sha256:{_synthetic_digest(algo_id)}",
        architecture_tags=tags,
    )


_BUILTIN_ENTRIES: tuple[AlgorithmEntry, ...] = (
    # 2023 rankings.
    _entry(TaskId.GLI_PRE, 2023, 1, "Ferreira et al., 2024", ("nnU-Net", "Swin UNETR")),
    _entry(TaskId.GLI_PRE, 2023, 2, "Myronenko et al., 2023", ()),
    _entry(TaskId.GLI_PRE, 2023, 3, "Maani et al., 2023", ("MedNeXt", "SegResNet")),
    _entry(TaskId.MEN_PRE, 2023, 1, "Myronenko et al., 2023", ()),
    _entry(TaskId.MEN_PRE, 2023, 2, "Huang et al., 2023", ("STU-Net",)),
    _entry(TaskId.MEN_PRE, 2023, 3, "Capellan-Martin et al., 2024", ("nnU-Net", "Swin UNETR")),
    _entry(TaskId.METS, 2023, 1, "Myronenko et al., 2023", ()),
    _entry(TaskId.METS, 2023, 2, "Yang et al., 2023", ("3D-TransUNet",)),
    _entry(TaskId.METS, 2023, 3, "Huang et al., 2023", ("STU-Net",)),
    _entry(TaskId.SSA, 2023, 1, "Myronenko et al., 2023", ()),
    _entry(TaskId.SSA, 2023, 2, "Amod et al., 2023", ("Optimized U-Net",)),
    _entry(TaskId.SSA, 2023, 3, "Huang et al., 2023", ("STU-Net",)),
    _entry(TaskId.PED, 2023, 1, "Capellan-Martin et al., 2024", ("nnU-Net", "Swin UNETR")),
    _entry(TaskId.PED, 2023, 2, "Myronenko et al., 2023", ()),
    _entry(TaskId.PED, 2023, 3, "Zhou et al., 2023", ("nnU-Net",)),
    # 2024 rankings.
    _entry(TaskId.GLI_POST, 2024, 1, "Ferreira et al., 2024", ("nnU-Net", "MedNeXt", "Swin UNETR")),
    _entry(TaskId.GLI_POST, 2024, 2, "Kim et al., 2024", ("nnU-Net", "SegResNet")),
    _entry(TaskId.GLI_POST, 2024, 3, "Celaya et al., 2024", ("nnU-Net",)),
    _entry(TaskId.MEN_RT, 2024, 1, "Abramova et al., 2024", ("nnU-Net",)),
    _entry(TaskId.MEN_RT, 2024, 2, "Astaraki et al., 2024", ("nnU-Net", "MedNeXt", "SegResNet")),
    _entry(TaskId.MEN_RT, 2024, 3, "Ferreira et al., 2024", ("nnU-Net", "MedNeXt")),
    _entry(TaskId.SSA, 2024, 1, "Parida et al., 2024", ("nnU-Net", "MedNeXt")),
    _entry(TaskId.SSA, 2024, 2, "Zhao et al., 2024", ("nnU-Net",)),
    _entry(TaskId.SSA, 2024, 3, "Hashmi et al., 2024", ("MedNeXt",)),
    _entry(TaskId.PED, 2024, 1, "Astaraki et al., 2024", ("nnU-Net", "MedNeXt", "SegResNet")),
    _entry(TaskId.PED, 2024, 2, "Mulvany et al., 2024", ("nnU-Net",)),
    _entry(TaskId.PED, 2024, 3, "Hashmi et al., 2024", ("MedNeXt",)),
    _entry(TaskId.GOAT, 2024, 1, "Niu et al., 2024", ("nnU-Net",)),
)

LATEST_WINNER = "latest-winner"


@dataclass(frozen=True)
class Catalog:
    """An immutable set of algorithm entries with lookup rules."""

    entries: tuple[AlgorithmEntry, ...]

    def __post_init__(self):
        seen_ids: set[str] = set()
        seen_slots: set[tuple[TaskId, int, int]] = set()
        for entry in self.entries:
            if entry.id in seen_ids:
                raise CatalogError(f"duplicate algorithm id {entry.id!r}")
            slot = (entry.task_id, entry.year, entry.rank)
            if slot in seen_slots:
                raise CatalogError(
                    f"duplicate (task, year, rank) slot {entry.task_id.value, entry.year, entry.rank}"
                )
            if entry.rank < 1:
                raise CatalogError(f"{entry.id}: rank must be >= 1")
            seen_ids.add(entry.id)
            seen_slots.add(slot)

    def list_algorithms(self, task: "TaskId | str", year: int | None = None) -> tuple[AlgorithmEntry, ...]:
        """Entries for a task, newest year first, best rank first within a year."""
        task_id = normalize_task_id(task)
        found = [
            e
            for e in self.entries
            if e.task_id == task_id and (year is None or e.year == year)
        ]
        found.sort(key=lambda e: (-e.year, e.rank))
        return tuple(found)

    def resolve(self, task: "TaskId | str", selector: str) -> AlgorithmEntry:
        """Resolve ``latest-winner`` or an explicit algorithm id for a task."""
        task_id = normalize_task_id(task)
        if selector in (LATEST_WINNER, "latest_winner"):
            ranked = self.list_algorithms(task_id)
            if not ranked:
                raise NoAlgorithmForTask(f"catalog has no entries for task {task_id.value!r}")
            winners = [e for e in ranked if e.rank == 1]
            if not winners:
                raise NoAlgorithmForTask(
                    f"catalog has no rank-1 entry for task {task_id.value!r}"
                )
            return winners[0]
        for entry in self.entries:
            if entry.id == selector:
                if entry.task_id != task_id:
                    raise UnknownAlgorithm(
                        f"algorithm {selector!r} belongs to task {entry.task_id.value!r}, "
                        f"not {task_id.value!r}"
                    )
                return entry
        raise UnknownAlgorithm(f"no algorithm {selector!r} in the catalog")


_BUILTIN_CATALOG = Catalog(entries=_BUILTIN_ENTRIES)


def builtin_catalog() -> Catalog:
    return _BUILTIN_CATALOG


def list_algorithms(
    task: "TaskId | str", year: int | None = None, catalog: Catalog | None = None
) -> tuple[AlgorithmEntry, ...]:
    """:meth:`Catalog.list_algorithms` on the built-in catalog unless one is
    given: a one-call shortcut for tutorial users."""
    return (catalog or _BUILTIN_CATALOG).list_algorithms(task, year)


def resolve_algorithm(
    task: "TaskId | str", selector: str, catalog: Catalog | None = None
) -> AlgorithmEntry:
    """:meth:`Catalog.resolve` on the built-in catalog unless one is given:
    a one-call shortcut for tutorial users."""
    return (catalog or _BUILTIN_CATALOG).resolve(task, selector)


_MOUNT_PATH = jsondoc.must("a path starting with '/'", lambda v: isinstance(v, str) and v.startswith("/"))
# What each override field must be, checked before any job sees it: a quoted
# "false" is truthy, and a string of tags iterates by character.
_OVERRIDE_ENTRY = jsondoc.obj(
    {
        "id": jsondoc.STRING,
        "task_id": jsondoc.STRING,
        "year": jsondoc.INTEGER,
        "rank": jsondoc.INTEGER,
        "team_reference": jsondoc.STRING,
        "image_reference": jsondoc.STRING,
    },
    {
        "architecture_tags": jsondoc.STRINGS,
        "requires_gpu": jsondoc.must("a JSON boolean", lambda v: isinstance(v, bool)),
        "shm_bytes": jsondoc.must("an integer >= 0", lambda v: jsondoc.is_int(v) and v >= 0),
        "timeout_seconds": jsondoc.must("a finite number > 0", lambda v: jsondoc.is_finite(v) and v > 0),
        "input_mount_path": _MOUNT_PATH,
        "output_mount_path": _MOUNT_PATH,
    },
)
_OVERRIDE = jsondoc.obj(
    {"schema_version": jsondoc.SCHEMA_1, "algorithms": jsondoc.must("a list", lambda v: isinstance(v, list))}, open=True
)


def load_catalog(override_path: "str | Path | None" = None) -> Catalog:
    """Built-in catalog, optionally merged with an override file.

    Override entries replace built-ins that share an id and are appended
    otherwise. The merged catalog must still satisfy the uniqueness
    invariants, so a bad override fails loudly, with a CatalogError naming
    the file (an unreadable one is an IoFailure), not by shadowing quietly.
    """
    if override_path is None:
        return _BUILTIN_CATALOG
    doc = jsondoc.load(override_path, CatalogError, _OVERRIDE)
    by_id = {e.id: e for e in _BUILTIN_ENTRIES}
    appended: list[AlgorithmEntry] = []
    try:
        for i, raw in enumerate(doc["algorithms"]):
            if (problem := _OVERRIDE_ENTRY(raw)) is not None:
                name = raw.get("id", i) if isinstance(raw, dict) else i
                raise CatalogError(f"entry {name!r}: {problem}")
            tags = tuple(raw.get("architecture_tags", ()))
            entry = AlgorithmEntry(**{**raw, "task_id": normalize_task_id(raw["task_id"]), "architecture_tags": tags})
            if entry.id in by_id:
                by_id[entry.id] = entry
            else:
                appended.append(entry)
        return Catalog(entries=tuple(by_id[e.id] for e in _BUILTIN_ENTRIES) + tuple(appended))
    except (CatalogError, UnknownTask) as exc:
        raise CatalogError(f"{override_path}: {exc}") from exc
