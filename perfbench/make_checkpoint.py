#!/usr/bin/env python3
"""Regenerate the fixed extractor used by the repeat workloads.

Trains once with the acceptance recipe (scene 3, data seed 11, 250 pairs at
32x24, extractor seed 5, 20 epochs without early stopping) and writes the
best-validation weights to perfbench/checkpoint/, plus checkpoint.json with
the recipe, the git SHA of the code that trained it and the files' SHA-256.
Takes about 2.5 minutes on one core:

    python3 perfbench/make_checkpoint.py
"""

from __future__ import annotations

import json
import shutil
import tempfile

import common  # noqa: F401  (sets BLAS threads and sys.path before numpy)
from common import CHECKPOINT_DIR, CHECKPOINT_RECIPE, CHECKPOINT_RECORD, checkpoint_digest, git_sha

from stereoloc import features, synth, training


def main() -> None:
    r = CHECKPOINT_RECIPE
    scene = synth.generate_scene(r["scene_seed"])
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=common.ROOT) as tmp:
        data_dir = synth.make_dataset(f"{tmp}/pairs", scene, count=r["pairs"],
                                      seed=r["data_seed"], size=tuple(r["size"]))
        samples, manifest = synth.load_dataset(data_dir)
    K = synth.camera_from_dict(manifest["camera"])
    train_samples, val_samples = training.split_dataset(samples, r["val_fraction"])
    cfg = features.ExtractorConfig(channels=tuple(r["channels"]), window=r["window"],
                                   seed=r["extractor_seed"])
    tcfg = training.TrainConfig(learning_rate=r["lr"], batch_size=r["batch_size"],
                                max_epochs=r["epochs"],
                                early_stop_patience=r["early_stop_patience"],
                                seed=r["train_seed"])
    lcfg = training.LossConfig()
    result = training.train(train_samples, val_samples, features.init_weights(cfg),
                            tcfg, lcfg, K, log=print)

    if CHECKPOINT_DIR.exists():
        shutil.rmtree(CHECKPOINT_DIR)
    features.save_checkpoint(CHECKPOINT_DIR, result.weights,
                             extra={"tau": lcfg.tau, "best_epoch": result.best_epoch,
                                    "seed": tcfg.seed})
    record = {
        "recipe": r,
        "git_sha": git_sha(),
        "best_epoch": result.best_epoch,
        "sha256": checkpoint_digest(),
    }
    CHECKPOINT_RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
