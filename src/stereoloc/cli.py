"""Command-line entry point.

Subcommands compose into the full experiment with no manual file edits:

    synth -> train -> teach -> repeat -> report

Configuration comes from an optional flat dotted-key config file
(`key = value` lines) overridden by command-line flags; every run directory
gets a manifest recording the fully resolved configuration and seeds. Exit
codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import estimator, features, harness, storage, synth, training
from .errors import ConfigError, ImageSizeError, StereolocError

RUN_DIR_ENV = "STEREOLOC_RUN_DIR"


def _default_out(name: str) -> Path:
    return Path(os.environ.get(RUN_DIR_ENV, "runs")) / name


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat dotted-key config: `section.key = value` lines, `#` comments."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _config_defaults(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """The config file's values for this subcommand, typed like the flags
    they stand in for and checked against their `choices`. They become the
    subcommand's defaults, so a flag given on the command line, in any form
    argparse accepts, wins (argparse checks no default against `choices`)."""
    choices = {a.dest: a.choices for a in parser._actions if a.choices is not None}
    prefix = args.command + "."
    defaults = {}
    for key, value in read_config_file(args.config).items():
        if not key.startswith(prefix):
            continue
        dest = key[len(prefix) :].replace("-", "_")
        if dest not in vars(args) or dest in ("command", "func"):
            raise ConfigError(f"unknown config key {key}")
        current = getattr(args, dest)
        typed = value if current is None else type(current)(value)
        if dest in choices and typed not in choices[dest]:
            raise ConfigError(f"config key {key}: {value!r} is not one of "
                              + ", ".join(map(str, choices[dest])))
        defaults[dest] = typed
    return defaults


def _write_run_manifest(out_dir: Path, args: argparse.Namespace) -> None:
    resolved = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k != "func"
    }
    storage.write_json(out_dir / "run_manifest.json",
                       {"command": args.command, "config": resolved})


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = (int(p) for p in text.lower().split("x"))
    except ValueError as e:
        raise ConfigError(f"bad --size {text!r}, expected WxH") from e
    if min(w, h) < 1:
        raise ConfigError(f"bad --size {text!r}: each side must be at least 1 pixel")
    return h, w


def _init_weights(args) -> features.ExtractorWeights:
    """Fresh extractor weights from the --channels, --window and --seed flags."""
    try:
        channels = tuple(int(p) for p in args.channels.split(","))
    except ValueError as e:
        raise ConfigError(f"bad --channels {args.channels!r}") from e
    return features.init_weights(
        features.ExtractorConfig(channels=channels, window=args.window, seed=args.seed))


def _load_extractor(args) -> harness.LearnedExtractor | harness.AnalyticExtractor:
    if args.features == "analytic":
        return harness.AnalyticExtractor(window=args.window)
    if not args.ckpt:
        raise ConfigError("--ckpt required unless --features analytic")
    weights, _ = features.load_checkpoint(args.ckpt)
    args.window = weights.config.window  # the run manifest records the window in use
    return harness.LearnedExtractor(weights)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    out = Path(args.out) if args.out else _default_out(f"synth-{args.seed}")
    scene = synth.generate_scene(args.scene_seed)
    size = _parse_size(args.size)
    h, w = size
    K = synth.default_intrinsics(w, h)
    if args.kind == "pairs":
        synth.make_dataset(out, scene, count=args.count, seed=args.seed, size=size)
    else:  # a sequence along the path, or offset from the --of sequence's poses
        if args.kind == "path":
            poses = synth.path_poses(args.count)
        elif not args.of:
            raise ConfigError("--of TEACH_DIR required for --kind repeat")
        else:
            _, manifest = synth.load_sequence(args.of)
            poses, _ = synth.offset_poses(np.array([e["pose"] for e in manifest["frames"]]),
                                          seed=args.seed)
        frames = synth.render_sequence(scene, poses, args.condition, K, size, args.seed)
        synth.save_sequence(out, frames, K, args.condition, args.seed)
    _write_run_manifest(out, args)
    print(f"wrote {args.kind} data to {out}")
    return 0


def cmd_train(args) -> int:
    out = Path(args.out) if args.out else _default_out(f"train-{args.seed}")
    samples, manifest = synth.load_dataset(args.data)
    K = synth.camera_from_dict(manifest["camera"])
    train_samples, val_samples = training.split_dataset(samples, args.val_fraction)
    weights = _init_weights(args)
    tcfg = training.TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        early_stop_patience=args.patience,
        seed=args.seed,
    )
    lcfg = training.LossConfig(
        lam=args.lam,
        keypoint_weight=args.keypoint_weight,
        gate_threshold=args.gate_threshold,
        tau=args.tau,
    )
    _write_run_manifest(out, args)
    result = training.train(
        train_samples, val_samples, weights, tcfg, lcfg, K, out_dir=out,
        log=lambda msg: print(msg),
    )
    print(f"best epoch {result.best_epoch}; checkpoint in {out / 'checkpoint'}")
    return 0


def cmd_eval_grad(args) -> int:
    """Cross-check the analytic pipeline gradient against central
    differences on a small synthetic pair."""
    size = _parse_size(args.size)
    h, w = size
    scene = synth.generate_scene(args.scene_seed)
    K = synth.default_intrinsics(w, h)
    with tempfile.TemporaryDirectory() as tmp:
        synth.make_dataset(tmp, scene, count=1, seed=args.seed, size=size)
        samples, _ = synth.load_dataset(tmp)
    weights = _init_weights(args)
    lcfg = training.LossConfig()
    rel = gradient_cross_check(samples, weights, lcfg, K)
    print(f"gradient relative error: {rel:.3e} (tolerance {args.tolerance:.1e})")
    if not rel < args.tolerance:
        print(f"error: numeric: gradient check failed ({rel:.3e})", file=sys.stderr)
        return 4
    return 0


def gradient_cross_check(samples, weights, lcfg, K) -> float:
    """Norm-relative disagreement between backward() and finite differences
    over every extractor weight, both on float64 tapes: central differences
    need float64's precision. Each tensor is differenced in turn, in name
    order, with the others held."""
    from . import autodiff as ad

    names = sorted(weights.tensors)
    _, grads, _ = training.total_loss(samples, weights, lcfg, K, dtype=np.float64)
    analytic = np.concatenate([np.ravel(grads[n]) for n in names])

    def loss_with(name, t):
        w = features.ExtractorWeights(weights.config, {**weights.tensors, name: t})
        mean, _, _ = training.total_loss(samples, w, lcfg, K, compute_grads=False,
                                         dtype=np.float64)
        return mean

    numeric = np.concatenate([
        np.ravel(ad.finite_diff(lambda t: loss_with(n, t), weights.tensors[n])) for n in names])
    return float(
        np.linalg.norm(analytic - numeric)
        / max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-300)
    )


def cmd_teach(args) -> int:
    out = Path(args.out) if args.out else _default_out("map")
    frames, manifest = synth.load_sequence(args.frames)
    K = synth.camera_from_dict(manifest["camera"])
    extractor = _load_extractor(args)
    teach_map = harness.teach(frames, extractor, K, disparity_source=args.disparity)
    harness.save_map(out, teach_map)
    args.teach_condition = manifest["condition"]  # `repeat` labels its runs by it
    _write_run_manifest(out, args)
    print(f"taught {len(teach_map.vertices)} vertices into {out}")
    return 0


# The run files `report` reads from a repeat's output directory: its run manifest, whose
# config holds the run's two condition labels, and summary.json, the RunReport fields named here.
RUN_MANIFEST_SCHEMA = {"command": "repeat", "config": {
    "teach_condition": storage.text, "repeat_condition": storage.text}}
# A map directory's run manifest names the condition `teach` taught; without it, `teach`.
TEACH_MANIFEST_SCHEMA = {"command": "teach", "config": {"teach_condition?": storage.text}}
SUMMARY_SCHEMA = {key: storage.number for key in (
    "mean_inliers", "failure_count", "failure_fraction", "pose_rmse", "heading_rmse")}


def cmd_repeat(args) -> int:
    out = Path(args.out) if args.out else _default_out("repeat")
    frames, manifest = synth.load_sequence(args.frames)
    teach_map = harness.load_map(args.map)
    extractor = _load_extractor(args)
    params = harness.LocalizeParams(
        ransac=estimator.RansacParams(
            iterations=args.iterations,
            inlier_threshold=args.inlier_threshold,
            min_inliers=args.min_inliers,
            seed=args.seed,
        ),
        tau=args.tau,
        mode=args.mode,
        failure_inliers=args.failure_inliers,
        disparity=args.disparity,
    )
    report = harness.repeat(frames, teach_map, extractor, params, teach_map.K)
    # the run manifest records both labels of the run's condition matrix cell
    teach_run = Path(args.map) / "run_manifest.json"
    taught = (storage.read_json(teach_run, TEACH_MANIFEST_SCHEMA)["config"]
              if teach_run.is_file() else {})
    args.teach_condition = taught.get("teach_condition", "teach")
    args.repeat_condition = manifest["condition"]
    name = args.name or args.repeat_condition
    harness.write_run_csv(report, out / f"run_{name}.csv")
    harness.write_condition_matrix(
        {(args.teach_condition, args.repeat_condition): report.mean_inliers},
        out / "condition_matrix.csv")
    storage.write_json(out / "summary.json", {k: getattr(report, k) for k in SUMMARY_SCHEMA})
    _write_run_manifest(out, args)
    print(f"repeat {name}: mean inliers {report.mean_inliers:.1f}, "
          f"failures {report.failure_count}/{len(frames)}")
    return 0


def cmd_report(args) -> int:
    """aggregate.csv, one row per run, and the condition matrix over the
    runs, which must each fill a different (teach, repeat) cell."""
    out = Path(args.out) if args.out else _default_out("report")
    rows, cells, cell_runs = [], {}, {}
    for run_dir in map(Path, args.runs):
        config = storage.read_json(run_dir / "run_manifest.json", RUN_MANIFEST_SCHEMA)["config"]
        summary = storage.read_json(run_dir / "summary.json", SUMMARY_SCHEMA)
        cell = (config["teach_condition"], config["repeat_condition"])
        if cell in cell_runs:
            raise ConfigError(f"runs {cell_runs[cell]} and {run_dir} both fill the condition "
                              f"matrix cell teach {cell[0]!r}, repeat {cell[1]!r}")
        cell_runs[cell], cells[cell] = run_dir, summary["mean_inliers"]
        rows.append({"run": run_dir.name, **summary, "condition": config.get("name") or "unknown"})
    table, matrix = out / "aggregate.csv", out / "condition_matrix.csv"
    header = list(rows[0])
    storage.write_csv(table, header, [[row.get(k, "") for k in header] for row in rows])
    harness.write_condition_matrix(cells, matrix)
    _write_run_manifest(out, args)
    print(f"aggregated {len(rows)} runs into {table} and {matrix}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and, by name, each subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="stereoloc",
        description="Differentiable stereo localization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    loc = harness.LocalizeParams()

    def extractor(p):  # teach and repeat
        p.add_argument("--ckpt")
        p.add_argument("--features", choices=["learned", "analytic"], default="learned")
        p.add_argument("--window", type=int, default=8,
                       help="keypoint window of --features analytic; a checkpoint brings its own")
        p.add_argument("--disparity", choices=harness.DISPARITY_SOURCES, default=loc.disparity)

    p = sub.add_parser("synth", help="generate synthetic data")
    p.add_argument("--kind", choices=["pairs", "path", "repeat"], default="pairs")
    p.add_argument("--count", type=int, default=250)
    p.add_argument("--size", default="64x48")
    p.add_argument("--scene-seed", type=int, default=3)
    p.add_argument("--condition", default="noon", choices=sorted(synth.CONDITIONS))
    p.add_argument("--of", help="teach sequence to align a repeat to")
    p.set_defaults(func=cmd_synth)

    tcfg, lcfg = training.TrainConfig(), training.LossConfig()
    p = sub.add_parser("train", help="train the extractor")
    p.add_argument("--data", required=True)
    p.add_argument("--lr", type=float, default=tcfg.learning_rate)
    p.add_argument("--batch-size", type=int, default=tcfg.batch_size)
    p.add_argument("--epochs", type=int, default=tcfg.max_epochs)
    p.add_argument("--patience", type=int, default=tcfg.early_stop_patience)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--channels", default="8,16,32")
    p.add_argument("--tau", type=float, default=lcfg.tau)
    p.add_argument("--lam", type=float, default=lcfg.lam)
    p.add_argument("--keypoint-weight", type=float, default=lcfg.keypoint_weight)
    p.add_argument("--gate-threshold", type=float, default=lcfg.gate_threshold)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-grad", help="finite-difference gradient cross-check")
    p.add_argument("--size", default="32x24")
    p.add_argument("--channels", default="2,3,4")
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--scene-seed", type=int, default=3)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_eval_grad)

    p = sub.add_parser("teach", help="build a map from a taught sequence")
    p.add_argument("--frames", required=True)
    extractor(p)
    p.set_defaults(func=cmd_teach)

    p = sub.add_parser("repeat", help="localize a sequence against a map")
    p.add_argument("--map", required=True)
    p.add_argument("--frames", required=True)
    extractor(p)
    p.add_argument("--mode", choices=harness.MODES, default=loc.mode)
    p.add_argument("--tau", type=float, default=loc.tau)
    p.add_argument("--iterations", type=int, default=loc.ransac.iterations)
    p.add_argument("--inlier-threshold", type=float, default=loc.ransac.inlier_threshold)
    p.add_argument("--min-inliers", type=int, default=loc.ransac.min_inliers)
    p.add_argument("--failure-inliers", type=int, default=loc.failure_inliers)
    p.add_argument("--name", help="run name for reports")
    p.set_defaults(func=cmd_repeat)

    p = sub.add_parser("report", help="aggregate repeat runs")
    p.add_argument("--runs", nargs="+", required=True)
    p.set_defaults(func=cmd_report)

    # the flags several subcommands share, each on the subcommands that read it
    for name, p in sub.choices.items():
        p.add_argument("--config", help="flat dotted-key config file")
        if name in ("synth", "train", "teach", "repeat", "report"):
            p.add_argument("--out", help="output directory")
        if name in ("synth", "train", "eval-grad", "repeat"):
            p.add_argument("--seed", type=int, default=0)
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, subcommands = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            subparser = subcommands[args.command]
            subparser.set_defaults(**_config_defaults(args, subparser))
            args = parser.parse_args(argv)
        return args.func(args)
    # an image size the configured extractor cannot take is a data error, and
    # so is any filesystem fault (OSError), reading or writing
    except (ConfigError, OSError, ValueError, ImageSizeError) as e:
        print(f"error: data: {e}", file=sys.stderr)
        return 3
    except StereolocError as e:
        print(f"error: numeric: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
