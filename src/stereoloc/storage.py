"""Every file the toolkit writes: manifests, raw blobs, JSON and CSV.

Every on-disk artifact (checkpoint, dataset, map) is a directory holding a
`manifest.json` plus raw little-endian float32 tensor blobs. A blob file is
the row-major array data with no header; its shape lives in the manifest
entry that references it. Run directories add JSON and CSV side files.
Each write goes to a temporary file beside its target, which is then
renamed over the target, so a reader, or a run killed mid-write, finds the
old file or the new one and never a partial one (nothing is fsynced, so
this does not extend to a machine crash). Writers put the manifest last,
so a directory with a manifest is complete. All paths in manifests are
relative to the directory, and a reader refuses one that is not (`member`).
"""

from __future__ import annotations

import csv
import io
import json
import os
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


class _Manifest(dict):
    """A JSON object read from disk: a missing key is a data error."""

    def __missing__(self, key):
        raise ValueError(f"manifest entry lacks key {key!r}")


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(), object_hook=_Manifest)


def write_csv(path: Path, header: list, rows) -> None:
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    _write_atomic(path, text.getvalue().encode())


def member(directory: Path, name) -> Path:
    """The file a manifest names in its directory; a name that is absolute,
    empty or has a `..` part is a data error, raised before any read."""
    rel = PurePath(name if isinstance(name, str) else "")
    if not rel.parts or rel.is_absolute() or ".." in rel.parts:
        raise ValueError(f"{directory}: file name {name!r} is not inside the directory")
    return Path(directory) / rel


def write_manifest(directory: Path, manifest: dict) -> None:
    write_json(Path(directory) / MANIFEST_NAME, manifest)


def read_manifest(directory: Path, kind: str) -> dict:
    """The directory's manifest, which must be of the given kind."""
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    manifest = read_json(path)
    found = manifest.get("kind")
    if found != kind:
        raise ValueError(f"{directory} holds a {found!r} manifest, not {kind!r}")
    return manifest
