"""Manifest + raw-blob persistence.

Every on-disk artifact (checkpoint, dataset, map) is a directory holding a
`manifest.json` plus raw little-endian float32 tensor blobs. A blob file is
the row-major array data with no header; its shape lives in the manifest
entry that references it. Writes are atomic enough for our purposes (full
rewrite); all paths in manifests are relative to the directory.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MANIFEST_NAME = "manifest.json"


def write_blob(path: Path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    path.parent.mkdir(parents=True, exist_ok=True)
    arr.tofile(path)


def read_blob(path: Path, shape) -> np.ndarray:
    data = np.fromfile(path, dtype="<f4")
    expected = int(np.prod(shape))
    if data.size != expected:
        raise ValueError(f"{path}: expected {expected} float32 values, found {data.size}")
    return data.reshape(shape).astype(float)


def write_manifest(directory: Path, manifest: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    text = json.dumps(manifest, indent=2, sort_keys=True)
    (directory / MANIFEST_NAME).write_text(text + "\n")


class _Manifest(dict):
    """A JSON object of a manifest: a missing key is a data error."""

    def __missing__(self, key):
        raise ValueError(f"manifest entry lacks key {key!r}")


def read_manifest(directory: Path) -> dict:
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    return json.loads(path.read_text(), object_hook=_Manifest)
