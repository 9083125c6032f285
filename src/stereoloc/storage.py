"""Every file the toolkit writes: manifests, raw blobs, JSON and CSV.

Every on-disk artifact (checkpoint, dataset, map) is a directory holding a
`manifest.json` plus raw little-endian float32 tensor blobs. A blob file is
the row-major array data with no header; its shape lives in the manifest
entry that references it. Run directories add JSON and CSV side files.
Each write goes to a temporary file beside its target, which is then
renamed over the target, so a reader, or a run killed mid-write, finds the
old file or the new one and never a partial one (nothing is fsynced, so
this does not extend to a machine crash). Writers put the manifest last,
so a directory with a manifest is complete. Every JSON file read is checked
against its kind's schema (`check`) before any value of it is used, so a
malformed one is a ValueError naming the file and the key; a file name in
a manifest must stay inside its directory.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from pathlib import Path, PurePath

import numpy as np

MANIFEST_NAME = "manifest.json"


def _write_atomic(path: Path, data) -> None:
    """Write `data` (any bytes-like object) to a temporary file beside
    `path`, then rename it over `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_blob(path: Path, arr: np.ndarray) -> None:
    _write_atomic(path, np.ascontiguousarray(arr, dtype="<f4").data)


def read_blob(path: Path, shape, dtype=np.float64) -> np.ndarray:
    data = np.fromfile(path, dtype="<f4")
    expected = int(np.prod(shape))
    if data.size != expected:
        raise ValueError(f"{path}: expected {expected} float32 values, found {data.size}")
    return data.reshape(shape).astype(dtype, copy=False)


def write_json(path: Path, obj) -> None:
    _write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def read_json(path: Path, schema) -> dict:
    """The JSON file at `path`, checked against `schema`."""
    path = Path(path)
    try:
        value = json.loads(path.read_text())
    except (RecursionError, ValueError) as e:  # too deeply nested, or not JSON or UTF-8
        raise ValueError(f"{path}: {e}") from None
    check(value, schema, path)
    return value


def write_csv(path: Path, header: list, rows) -> None:
    out = io.StringIO()
    csv.writer(out).writerows([header, *rows])
    _write_atomic(path, out.getvalue().encode())


def write_manifest(directory: Path, manifest: dict) -> None:
    write_json(Path(directory) / MANIFEST_NAME, manifest)


def read_manifest(directory: Path, schema: dict) -> dict:
    """The directory's manifest; its kind's schema holds the `kind` as a literal."""
    return read_json(Path(directory) / MANIFEST_NAME, schema)


def check(value, rule, where, at: str = "") -> None:
    """Check a JSON value read from the file `where` against a schema rule,
    or raise a ValueError naming the file and the key path (`vertices[0].n`)
    of the first violation. A rule is a dict (an object holding each of its
    keys, whose values pass the keys' rules; a key ending in `?` may be
    absent, and other keys pass unchecked), `[rule]` (a non-empty list of
    items that pass `rule`), `[rule, n]` (exactly n such items), a predicate
    (its docstring says what it accepts), or a literal the value must equal
    as JSON (a tuple is a list)."""
    head = f"{where}: {at} " if at else f"{where}: "
    if isinstance(rule, dict):
        ok, what = isinstance(value, dict), "an object"
    elif isinstance(rule, list):
        n = rule[1] if len(rule) == 2 else None
        ok = isinstance(value, list) and (len(value) == n if n else bool(value))
        what = f"a list of {n or 'one or more'} items"
    elif callable(rule):
        ok, what = rule(value), rule.__doc__
    else:
        ok, what = json.dumps(value) == json.dumps(rule), repr(rule)
    if not ok:
        raise ValueError(f"{head}{value!r} is not {what}")
    if isinstance(rule, dict):
        for key, sub in rule.items():
            name = key.removesuffix("?")
            if name in value:
                check(value[name], sub, where, f"{at}.{name}" if at else name)
            elif name == key:
                raise ValueError(f"{head}lacks key {name!r}")
    elif isinstance(rule, list):
        for i, item in enumerate(value):
            check(item, rule[0], where, f"{at}[{i}]")


def _predicate(doc: str, test):
    test.__doc__ = doc
    return test


number = _predicate("a number", lambda x: type(x) in (int, float))
# an int too large for a float is not finite: math.isfinite would raise on it
finite = _predicate("a finite number", lambda x: number(x) and abs(x) <= sys.float_info.max)
count = _predicate("an int >= 0", lambda x: type(x) is int and x >= 0)
size = _predicate("an int >= 1", lambda x: count(x) and x > 0)
text = _predicate("a non-empty string", lambda x: isinstance(x, str) and x != "")


def within(lo: float, hi: float):
    """The predicate that accepts the numbers in [lo, hi]."""
    return _predicate(f"a number in [{lo:g}, {hi:g}]", lambda x: number(x) and lo <= x <= hi)


def file_name(x) -> bool:
    """a file name inside its directory: relative, non-empty, no `..` part"""
    rel = PurePath(x if isinstance(x, str) else "")
    return bool(rel.parts) and not rel.is_absolute() and ".." not in rel.parts
