"""Paths, thread settings and provenance shared by the benchmark scripts.

Importing this module pins the BLAS thread count through the environment,
so it must be imported before numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHECKPOINT_DIR = BENCH_DIR / "checkpoint"
CHECKPOINT_RECORD = BENCH_DIR / "checkpoint.json"

# One caller, one BLAS thread (never more than nproc): the benchmark
# measures a closed loop from a single process, and a second BLAS thread on
# 2-core machines mostly adds scheduling noise at these matrix sizes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, str(ROOT / "src"))

# The acceptance recipe (tests/test_acceptance.py, trained_rig fixture).
SCENE_SEED = 3
TRAIN_SIZE = (24, 32)
TRAIN_CHANNELS = (8, 16, 32)
TRAIN_WINDOW = 8
TRAIN_LR = 2e-3
TRAIN_BATCH = 4
CHECKPOINT_RECIPE = {
    "scene_seed": SCENE_SEED,
    "data_seed": 11,
    "pairs": 250,
    "size": list(TRAIN_SIZE),
    "val_fraction": 0.2,
    "channels": list(TRAIN_CHANNELS),
    "window": TRAIN_WINDOW,
    "extractor_seed": 5,
    "lr": TRAIN_LR,
    "batch_size": TRAIN_BATCH,
    "epochs": 20,
    "early_stop_patience": 20,
    "train_seed": 0,
}


def git_sha(root: Path = ROOT) -> str:
    """HEAD commit read from the .git directory, or "unknown" outside a
    git checkout. Reads files only, so nothing outside `root` is touched."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def checkpoint_digest(directory: Path = CHECKPOINT_DIR) -> str:
    """SHA-256 over every checkpoint file, in name order, names included."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def verify_checkpoint() -> None:
    """Raise unless the committed checkpoint matches its recorded digest."""
    expected = json.loads(CHECKPOINT_RECORD.read_text())["sha256"]
    actual = checkpoint_digest()
    if actual != expected:
        raise RuntimeError(
            f"checkpoint digest {actual} does not match the recorded {expected}"
        )
