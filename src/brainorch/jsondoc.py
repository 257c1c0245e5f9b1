"""The one JSON reader, checker and writer. :func:`load` reads the catalog
override, the behaviors file and transform sidecars, :func:`parse` the
Docker replies. Bytes that are not JSON (bad syntax, not UTF-8, nested too
deep) raise the caller's error naming the document. A check returns None or
its first problem, ``must be …, got …``, naming a key as ``'key' …`` and an
item as ``item i: …``; :func:`must`, :func:`obj` and :func:`array` follow
JSON Schema's ``type``, ``required`` and ``additionalProperties`` (draft
2020-12). Values are checked, never coerced: int() takes true as 1.
:func:`dumps` is the one form of every ``--json`` print and, through
:func:`dump`, of every JSON file the package writes.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from .errors import IoFailure


def parse(raw: bytes, where, error: type, check):
    """The JSON value in ``raw`` that passes ``check``, else ``error``."""
    try:
        value = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: not valid JSON: {exc}") from exc
    if (problem := check(value)) is not None:
        raise error(f"{where}: {problem}")
    return value


def load(path: "str | Path", error: type, check):
    """:func:`parse` of the file at ``path``, or :class:`IoFailure`."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return parse(raw, path, error, check)


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def dump(path: "str | Path", doc) -> Path:
    """Write :func:`dumps` of ``doc`` and a newline to ``path``, or raise
    :class:`IoFailure` naming it."""
    path = Path(path)
    try:
        path.write_text(dumps(doc) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def must(expected: str, valid):
    return lambda value: None if valid(value) else f"must be {expected}, got {value!r}"


def obj(required: dict, optional: dict = {}, open: bool = False):
    """An object with every key of ``required`` and any of ``optional``,
    each passing its check; other keys are allowed only when ``open``."""

    def check(value):
        if not isinstance(value, dict):
            return f"must be an object, got {value!r}"
        if missing := [key for key in required if key not in value]:
            return f"{missing[0]!r} is missing"
        if (unknown := sorted(set(value) - set(required) - set(optional))) and not open:
            return f"unknown keys {unknown}"
        checks = {**required, **optional}
        return next((f"{k!r} {p}" for k, v in value.items() if k in checks and (p := checks[k](v))), None)

    return check


def array(item):
    def check(value):
        if not isinstance(value, list):
            return f"must be an array, got {value!r}"
        return next((f"item {i}: {p}" for i, v in enumerate(value) if (p := item(v)) is not None), None)

    return check


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A JSON number float64 holds, NaN and the infinities included."""
    return isinstance(value, float) or is_int(value) and abs(value) <= sys.float_info.max


def is_finite(value) -> bool:
    return is_number(value) and math.isfinite(value)


def is_numbers(value, n: int, valid=is_finite) -> bool:
    return isinstance(value, list) and len(value) == n and all(map(valid, value))


STRING = must("a string", lambda v: isinstance(v, str))
OBJECT = must("an object", lambda v: isinstance(v, dict))
STRINGS = must("an array of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v))
INTEGER = must("an integer", is_int)
SCHEMA_1 = must("the integer 1", lambda v: is_int(v) and v == 1)
