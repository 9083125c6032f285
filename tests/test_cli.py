import errno
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from stereoloc import harness, storage, synth
from stereoloc.cli import build_parser, main, read_config_file

from oracles import render_one


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


class TestStorage:
    def test_blob_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
        storage.write_blob(tmp_path / "b.f32", arr)
        back = storage.read_blob(tmp_path / "b.f32", (3, 4))
        assert np.array_equal(back, arr.astype(float))

    def test_blob_size_mismatch(self, tmp_path):
        storage.write_blob(tmp_path / "b.f32", np.zeros(5))
        with pytest.raises(ValueError):
            storage.read_blob(tmp_path / "b.f32", (6,))

    def test_manifest_roundtrip(self, tmp_path):
        storage.write_manifest(tmp_path, {"kind": "test", "value": 3})
        schema = {"kind": "test", "value": storage.count}
        assert storage.read_manifest(tmp_path, schema) == {"kind": "test", "value": 3}

    def test_manifest_of_another_kind_is_refused(self, tmp_path):
        storage.write_manifest(tmp_path, {"kind": "pairs"})
        with pytest.raises(ValueError, match="kind 'pairs' is not 'map'"):
            storage.read_manifest(tmp_path, harness.MAP_SCHEMA)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            storage.read_manifest(tmp_path / "nope", synth.PAIRS_SCHEMA)

    def test_a_directory_named_as_the_manifest_is_3(self, tmp_path, capsys):
        (tmp_path / "seq" / storage.MANIFEST_NAME).mkdir(parents=True)
        capsys.readouterr()
        assert main(["teach", "--frames", str(tmp_path / "seq"), "--features", "analytic",
                     "--out", str(tmp_path / "map")]) == 3
        err = capsys.readouterr().err
        manifest = tmp_path / "seq" / storage.MANIFEST_NAME
        assert err == f"error: data: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{manifest}'\n"

    @pytest.mark.parametrize("write", [
        lambda path: storage.write_blob(path, np.ones(3)),
        lambda path: storage.write_json(path, {"a": 1}),
        lambda path: storage.write_csv(path, ["a"], [[1]]),
    ], ids=["blob", "json", "csv"])
    @pytest.mark.parametrize("existed", [True, False], ids=["replace", "create"])
    def test_failed_rename_keeps_target_and_leaves_no_temp_file(
        self, tmp_path, monkeypatch, write, existed
    ):
        target = tmp_path / "target"
        if existed:
            target.write_bytes(b"old bytes")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write(target)
        assert [p.name for p in tmp_path.iterdir()] == (["target"] if existed else [])
        if existed:
            assert target.read_bytes() == b"old bytes"

    @pytest.mark.parametrize("name", ["a.f32", "sub/a.f32", "./a.f32"])
    def test_file_name_accepts_a_name_inside_the_directory(self, tmp_path, name):
        assert storage.file_name(name)
        storage.write_manifest(tmp_path, {"kind": "test", "file": name})
        assert storage.read_manifest(tmp_path, {"kind": "test", "file": storage.file_name})

    @pytest.mark.parametrize("name", ["", ".", "..", "../a.f32", "sub/../../a.f32",
                                      "/etc/passwd", 5, None])
    def test_file_name_refuses_a_name_outside_the_directory(self, tmp_path, name):
        assert not storage.file_name(name)
        storage.write_manifest(tmp_path, {"kind": "test", "files": [{"file": name}]})
        manifest = tmp_path / storage.MANIFEST_NAME
        with pytest.raises(ValueError, match=re.escape(
                f"{manifest}: files[0].file {name!r} is not a file name inside its directory")):
            storage.read_manifest(tmp_path, {"kind": "test", "files": [{"file": storage.file_name}]})

    def test_blob_byte_layouts(self, tmp_path):
        """Raw file bytes, little-endian float32: a sequence frame is left |
        right | disparity, a pairs sample is its source frame then its
        target frame, and a map vertex's blob is its frame | coords |
        descriptors | scores | points3d | the parts of its dense stack."""

        def f32(*arrays):
            return np.concatenate([np.ravel(a) for a in arrays]).astype("<f4").tobytes()

        def manifest(directory):
            return json.loads((directory / "manifest.json").read_text())

        scene = synth.generate_scene(3)
        size = (48, 64)
        K = synth.default_intrinsics(64, 48)
        frames = synth.render_sequence(scene, synth.path_poses(2), "noon", K, size, seed=1)
        seq = synth.save_sequence(tmp_path / "seq", frames, K, "noon", 1)
        entries = manifest(seq)["frames"]
        for frame, entry in zip(frames, entries):
            raw = (seq / entry["file"]).read_bytes()
            assert raw == f32(frame.left, frame.right, frame.disparity)

        # frame j of the pairs is a fresh render at its recorded pose and
        # condition, with noise seed `seed * 1000003 + j`
        pairs = synth.make_dataset(tmp_path / "pairs", scene, count=2, seed=5, size=size)
        for i, entry in enumerate(manifest(pairs)["samples"]):
            src, tgt = (render_one(scene, entry[f"{side}_pose"], K,
                                   synth.CONDITIONS[entry[f"{side}_condition"]], size,
                                   noise_seed=5 * 1000003 + 2 * i + j)
                        for j, side in enumerate(("src", "tgt")))
            assert (pairs / entry["file"]).read_bytes() == f32(
                src.left, src.right, src.disparity, tgt.left, tgt.right, tgt.disparity
            )

        teach_map = harness.teach(frames, harness.AnalyticExtractor(window=8), K)
        harness.save_map(tmp_path / "map", teach_map)
        entries = manifest(tmp_path / "map")["vertices"]
        for v, entry in zip(teach_map.vertices, entries):
            raw = (tmp_path / "map" / entry["file"]).read_bytes()
            assert raw == f32(v.frame.left, v.frame.right, v.frame.disparity, v.coords,
                              v.descriptors, v.scores, v.points3d, *v.parts)


class TestFilesystemFaults:
    """A filesystem fault on any path the CLI reads or writes is a data
    error (exit 3) whose message names the path, never a traceback."""

    @pytest.fixture(scope="class")
    def taught(self, tmp_path_factory):
        """A 2-frame analytic map and its sequence, taught through the CLI."""
        root = tmp_path_factory.mktemp("faults")
        assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(root / "seq")]) == 0
        assert main(["teach", "--frames", str(root / "seq"), "--features", "analytic",
                     "--out", str(root / "map")]) == 0
        return root

    @staticmethod
    def copy_with_a_directory_for(source: Path, name: str, to: Path) -> Path:
        shutil.copytree(source, to)
        (to / name).unlink()
        (to / name).mkdir()
        return to

    @staticmethod
    def assert_3_naming(argv, path, capsys):
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and str(path) in err

    def test_config_naming_a_directory_is_3(self, tmp_path, capsys):
        self.assert_3_naming(["synth", "--config", str(tmp_path), "--out",
                              str(tmp_path / "x")], tmp_path, capsys)

    def test_a_map_blob_replaced_by_a_directory_is_3(self, taught, tmp_path, capsys):
        map_dir = self.copy_with_a_directory_for(taught / "map", "vertex_00001.f32",
                                                 tmp_path / "map")
        self.assert_3_naming(["repeat", "--map", str(map_dir), "--frames", str(taught / "seq"),
                              "--features", "analytic", "--out", str(tmp_path / "rep")],
                             map_dir / "vertex_00001.f32", capsys)

    def test_a_sequence_blob_replaced_by_a_directory_is_3(self, taught, tmp_path, capsys):
        seq = self.copy_with_a_directory_for(taught / "seq", "frame_00001.f32",
                                             tmp_path / "seq")
        self.assert_3_naming(["teach", "--frames", str(seq), "--features", "analytic",
                              "--out", str(tmp_path / "map")], seq / "frame_00001.f32", capsys)

    def test_out_naming_an_existing_file_is_3(self, tmp_path, capsys):
        (tmp_path / "taken").write_bytes(b"")
        self.assert_3_naming(["synth", "--kind", "path", "--count", "2",
                              "--out", str(tmp_path / "taken")], tmp_path / "taken", capsys)

    def test_out_under_an_existing_file_is_3(self, tmp_path, capsys):
        (tmp_path / "taken").write_bytes(b"")
        self.assert_3_naming(["synth", "--kind", "path", "--count", "2",
                              "--out", str(tmp_path / "taken" / "sub")],
                             tmp_path / "taken", capsys)

    def test_a_deeply_nested_manifest_is_3(self, taught, tmp_path, capsys):
        seq = shutil.copytree(taught / "seq", tmp_path / "seq")
        (seq / storage.MANIFEST_NAME).write_text("[" * 200000 + "]" * 200000)
        self.assert_3_naming(["teach", "--frames", str(seq), "--features", "analytic",
                              "--out", str(tmp_path / "map")], seq / storage.MANIFEST_NAME,
                             capsys)

    def test_read_json_refuses_deep_nesting_as_a_value_error_naming_the_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        with pytest.raises(ValueError, match=re.escape(f"{path}: maximum recursion depth")):
            storage.read_json(path, [storage.number])


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "train.lr = 0.001\n"
            "train.epochs = 3  # inline comment\n"
            "synth.count = 9\n"
        )
        values = read_config_file(cfg)
        assert values == {"train.lr": "0.001", "train.epochs": "3", "synth.count": "9"}

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a key value line\n")
        from stereoloc.errors import ConfigError

        with pytest.raises(ConfigError):
            read_config_file(cfg)


class TestSubcommands:
    def test_synth_pairs_smoke(self, workdir):
        out = workdir / "data"
        assert main(["synth", "--kind", "pairs", "--count", "4", "--size", "32x24",
                     "--seed", "7", "--scene-seed", "3", "--out", str(out)]) == 0
        manifest = storage.read_manifest(out, synth.PAIRS_SCHEMA)
        assert manifest["kind"] == "pairs"
        assert len(manifest["samples"]) == 4
        assert (out / "run_manifest.json").is_file()

    def test_full_chain(self, workdir):
        data = workdir / "data"  # written by the smoke test above
        teach_seq = workdir / "teach_seq"
        night_seq = workdir / "night_seq"
        run = workdir / "train_run"
        map_dir = workdir / "map"
        rep = workdir / "rep"
        rpt = workdir / "rpt"

        assert main(["synth", "--kind", "path", "--count", "4", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(teach_seq)]) == 0
        assert main(["synth", "--kind", "repeat", "--of", str(teach_seq), "--condition",
                     "night", "--seed", "9", "--scene-seed", "3", "--out", str(night_seq)]) == 0
        assert main(["train", "--data", str(data), "--lr", "1e-3", "--epochs", "1",
                     "--patience", "2", "--val-fraction", "0.25", "--channels", "2,3,4",
                     "--out", str(run)]) == 0
        assert (run / "loss_curves.csv").is_file()
        assert (run / "checkpoint" / "manifest.json").is_file()

        assert main(["teach", "--frames", str(teach_seq), "--ckpt",
                     str(run / "checkpoint"), "--out", str(map_dir)]) == 0
        assert storage.read_manifest(map_dir, harness.MAP_SCHEMA)["kind"] == "map"

        # localization failures are data, not errors: exit 0 regardless
        assert main(["repeat", "--map", str(map_dir), "--frames", str(night_seq),
                     "--ckpt", str(run / "checkpoint"), "--mode", "sparse",
                     "--name", "night", "--out", str(rep)]) == 0
        assert (rep / "run_night.csv").is_file()
        assert (rep / "summary.json").is_file()
        matrix = (rep / "condition_matrix.csv").read_text().splitlines()
        assert matrix[1].split(",")[0] == "noon"

        assert main(["report", "--runs", str(rep), "--out", str(rpt)]) == 0
        table = (rpt / "aggregate.csv").read_text().splitlines()
        assert len(table) == 2  # header + one run

    def test_the_teach_label_is_the_maps(self, tmp_path, capsys):
        """A live sequence rendered --of a noon teach sequence and repeated
        against a map taught on dusk fills the dusk row: `teach` records its
        sequence's condition in the map directory's run manifest, and
        `repeat` reads it there. A map directory without that manifest
        labels the run `teach`; a malformed label is a data error."""
        make = ["synth", "--count", "2", "--seed", "7", "--scene-seed", "3"]
        noon, dusk, live = tmp_path / "noon", tmp_path / "dusk", tmp_path / "live"
        map_dir, rep = tmp_path / "map", tmp_path / "rep"
        for seq in (noon, dusk):
            assert main([*make, "--kind", "path", "--condition", seq.name, "--out", str(seq)]) == 0
        assert main([*make, "--kind", "repeat", "--of", str(noon), "--condition", "noon",
                     "--out", str(live)]) == 0
        assert main(["teach", "--frames", str(dusk), "--features", "analytic",
                     "--out", str(map_dir)]) == 0
        repeat = ["repeat", "--map", str(map_dir), "--frames", str(live),
                  "--features", "analytic", "--out", str(rep)]

        def labels():
            config = json.loads((rep / "run_manifest.json").read_text())["config"]
            rows = (rep / "condition_matrix.csv").read_text().splitlines()
            return config["teach_condition"], config["repeat_condition"], rows[1].split(",")[0]

        assert main(repeat) == 0
        assert labels() == ("dusk", "noon", "dusk")
        teach_run = map_dir / "run_manifest.json"
        manifest = json.loads(teach_run.read_text())
        manifest["config"]["teach_condition"] = 3
        storage.write_json(teach_run, manifest)
        capsys.readouterr()
        assert main(repeat) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "teach_condition" in err
        teach_run.unlink()
        assert main(repeat) == 0
        assert labels() == ("teach", "noon", "teach")

    def test_analytic_features_need_no_checkpoint(self, workdir):
        teach_seq = workdir / "teach_seq"
        map_dir = workdir / "map_analytic"
        assert main(["teach", "--frames", str(teach_seq), "--features", "analytic",
                     "--out", str(map_dir)]) == 0

    def test_run_manifest_records_the_checkpoint_window(self, tmp_path):
        from stereoloc import features

        seq = tmp_path / "seq"
        assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(seq)]) == 0
        ckpt = tmp_path / "ckpt"
        cfg = features.ExtractorConfig(channels=(2, 3, 4), window=16, seed=3)
        features.save_checkpoint(ckpt, features.init_weights(cfg))
        map_dir, rep = tmp_path / "map", tmp_path / "rep"
        assert main(["teach", "--frames", str(seq), "--ckpt", str(ckpt),
                     "--out", str(map_dir)]) == 0
        assert main(["repeat", "--map", str(map_dir), "--frames", str(seq),
                     "--ckpt", str(ckpt), "--out", str(rep)]) == 0
        for out in (map_dir, rep):
            assert json.loads((out / "run_manifest.json").read_text())["config"]["window"] == 16

    def test_nan_validation_says_how_many_samples_were_skipped(self, tmp_path, capsys):
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["synth", "--kind", "pairs", "--count", "8", "--size", "32x24",
                     "--seed", "7", "--scene-seed", "3", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--lr", "1e-3", "--epochs", "2",
                     "--patience", "3", "--channels", "2,3,4", "--seed", "3",
                     "--out", str(run)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for epoch, line in enumerate(lines[:2], start=1):
            assert line.startswith(f"epoch {epoch}: ")
            assert line.endswith("val nan pose nan (2 of 2 validation samples skipped)")
        assert lines[2].startswith("best epoch 0;")
        curves = (run / "loss_curves.csv").read_text().splitlines()
        assert curves[0] == "epoch,train_loss,val_loss,val_pose_err"
        assert [row.split(",")[2:] for row in curves[2:]] == [["nan", "nan"]] * 2

    def test_config_file_merging(self, workdir, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "cfgdata"
        cfg.write_text("synth.count = 2\nsynth.size = 32x24\n")
        assert main(["synth", "--config", str(cfg), "--scene-seed", "3",
                     "--out", str(out)]) == 0
        manifest = storage.read_manifest(out, synth.PAIRS_SCHEMA)
        assert len(manifest["samples"]) == 2  # file value applied

    def test_flag_overrides_config_file(self, workdir, tmp_path):
        cfg = tmp_path / "exp2.cfg"
        out = tmp_path / "cfgdata2"
        cfg.write_text("synth.count = 2\nsynth.size = 32x24\n")
        assert main(["synth", "--config", str(cfg), "--count", "3", "--scene-seed", "3",
                     "--out", str(out)]) == 0
        assert len(storage.read_manifest(out, synth.PAIRS_SCHEMA)["samples"]) == 3

    @pytest.mark.parametrize("flag", [["--count=3"], ["--coun", "3"], ["--coun=3"]],
                             ids=["equals", "prefix", "prefix-equals"])
    def test_flag_in_any_form_overrides_config_file(self, tmp_path, flag):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "data"
        cfg.write_text("synth.count = 2\nsynth.size = 32x24\n")
        assert main(["synth", "--config", str(cfg), *flag, "--scene-seed", "3",
                     "--out", str(out)]) == 0
        assert len(json.loads((out / "manifest.json").read_text())["samples"]) == 3
        config = json.loads((out / "run_manifest.json").read_text())["config"]
        assert (config["count"], config["size"]) == (3, "32x24")

    @pytest.mark.parametrize("line, message", [
        ("synth.count = many", "invalid literal for int()"),
        ("synth.func = cmd_train", "unknown config key synth.func"),
    ], ids=["unconvertible-value", "internal-key"])
    def test_bad_config_entry_is_3(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        capsys.readouterr()
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert "error: data: " + message in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", [
        (["synth", "--kind", "path", "--count", "2"], "synth.condition = nite"),
        (["teach", "--frames", "seq"], "teach.disparity = sgm"),
    ], ids=["synth-condition", "teach-disparity"])
    def test_config_value_outside_choices_is_3(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        capsys.readouterr()
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        key, _, value = line.partition(" = ")
        assert f"error: data: config key {key}: {value!r} is not one of" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synth.bogus = 1\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as e:
            main(["train"])  # missing required --data
        assert e.value.code == 2
        with pytest.raises(SystemExit) as e:
            main(["bogus"])
        assert e.value.code == 2

    def test_missing_input_is_3(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("flags, setting", [
        (["--window", "0"], "window"),
        (["--channels", "0"], "channels"),
        (["--batch-size", "0"], "batch_size"),
        # a NaN or inf setting is refused before any epoch runs
        (["--lr", "nan"], "learning_rate"),
        (["--lr", "inf"], "learning_rate"),
        (["--epochs", "-1"], "max_epochs"),
        (["--tau", "nan"], "tau"),
        (["--lam", "inf"], "lam"),
        (["--gate-threshold", "nan"], "gate_threshold"),
        (["--keypoint-weight", "nan"], "keypoint_weight"),
    ])
    def test_bad_training_setting_is_3(self, tmp_path, capsys, flags, setting):
        data = tmp_path / "data"
        assert main(["synth", "--kind", "pairs", "--count", "4", "--size", "32x24",
                     "--seed", "7", "--scene-seed", "3", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--channels", "2,3,4", "--epochs", "1",
                     *flags, "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert "error: data: " in err and setting in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("size", ["64x0", "0x48", "64x-48", "-64x48"])
    @pytest.mark.parametrize("command", ["path", "pairs", "eval-grad"])
    def test_a_size_without_pixels_is_3(self, tmp_path, capsys, command, size):
        out = tmp_path / "out"
        argv = (["eval-grad", "--channels", "1,2,2"] if command == "eval-grad" else
                ["synth", "--kind", command, "--count", "2", "--out", str(out)])
        assert main([*argv, f"--size={size}"]) == 3  # one token: "-64x48" is no flag
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and f"--size {size!r}" in err
        assert not out.exists()

    def test_analytic_window_of_zero_is_3(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(seq)]) == 0
        capsys.readouterr()
        assert main(["teach", "--frames", str(seq), "--features", "analytic",
                     "--window", "0", "--out", str(tmp_path / "map")]) == 3
        err = capsys.readouterr().err
        assert "error: data: " in err and "window" in err

    def test_teach_without_checkpoint_is_3(self, tmp_path):
        assert main(["teach", "--frames", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_teach_with_non_finite_checkpoint_is_3(self, tmp_path, capsys):
        from stereoloc import features

        seq = tmp_path / "seq"
        assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(seq)]) == 0
        ckpt = tmp_path / "ckpt"
        features.save_checkpoint(
            ckpt, features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8))
        )
        blob = ckpt / "enc1.weight.f32"
        values = np.fromfile(blob, dtype="<f4")
        values[0] = np.inf
        values.tofile(blob)
        capsys.readouterr()
        assert main(["teach", "--frames", str(seq), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "map")]) == 3
        err = capsys.readouterr().err
        assert "error: data: " in err and "layer enc1.weight has non-finite values" in err

    def test_teach_with_unknown_activation_is_3(self, tmp_path, capsys):
        import json

        from stereoloc import features

        seq = tmp_path / "seq"
        assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(seq)]) == 0
        ckpt = tmp_path / "ckpt"
        features.save_checkpoint(
            ckpt, features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8))
        )
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["activation"] = "relu"
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["teach", "--frames", str(seq), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "map")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "activation 'relu' is not 'tanh'" in err

    def test_checkpoint_without_activation_is_3(self, tmp_path, capsys):
        from stereoloc import features

        seq = tmp_path / "seq"
        assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(seq)]) == 0
        ckpt = tmp_path / "ckpt"
        features.save_checkpoint(
            ckpt, features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8))
        )
        manifest = storage.read_manifest(ckpt, features.CHECKPOINT_SCHEMA)
        del manifest["activation"]
        storage.write_manifest(ckpt, manifest)
        capsys.readouterr()
        assert main(["teach", "--frames", str(seq), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "map")]) == 3
        err = capsys.readouterr().err
        assert "error: data: " in err and "'activation'" in err

    def test_sequence_without_camera_is_3(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(seq)]) == 0
        manifest = storage.read_manifest(seq, synth.SEQUENCE_SCHEMA)
        del manifest["camera"]
        storage.write_manifest(seq, manifest)
        capsys.readouterr()
        assert main(["teach", "--frames", str(seq), "--features", "analytic",
                     "--out", str(tmp_path / "map")]) == 3
        err = capsys.readouterr().err
        assert "error: data: " in err and "'camera'" in err

    def test_synth_path_of_zero_frames_is_3(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["synth", "--kind", "path", "--count", "0",
                     "--out", str(tmp_path / "seq")]) == 3
        assert "error: data: no frames to save" in capsys.readouterr().err

    def test_repeat_of_zero_frames_is_3(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(seq)]) == 0
        map_dir = tmp_path / "map"
        assert main(["teach", "--frames", str(seq), "--features", "analytic",
                     "--out", str(map_dir)]) == 0
        manifest = storage.read_manifest(seq, synth.SEQUENCE_SCHEMA)
        manifest["frames"] = []
        storage.write_manifest(seq, manifest)
        capsys.readouterr()
        assert main(["repeat", "--map", str(map_dir), "--frames", str(seq),
                     "--features", "analytic", "--out", str(tmp_path / "rep")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "frames [] is not a list of one or more" in err

    def test_repeat_with_another_extractor_is_3(self, tmp_path, capsys):
        from stereoloc import features

        seq = tmp_path / "seq"
        assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(seq)]) == 0
        map_dir = tmp_path / "map"
        assert main(["teach", "--frames", str(seq), "--features", "analytic",
                     "--out", str(map_dir)]) == 0
        weights = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8))
        features.save_checkpoint(tmp_path / "ckpt", weights)
        repeat = ["repeat", "--map", str(map_dir), "--frames", str(seq),
                  "--ckpt", str(tmp_path / "ckpt")]
        ident = harness.LearnedExtractor(weights).ident
        for mode in ("sparse", "dense"):  # the map keeps the teaching extractor's features
            capsys.readouterr()
            assert main([*repeat, "--mode", mode, "--out", str(tmp_path / "rep")]) == 3
            err = capsys.readouterr().err
            assert "error: data: " in err and "analytic" in err and ident in err

    def test_repeat_of_frames_of_another_size_is_3(self, tmp_path, capsys):
        teach_seq, live_seq, map_dir = tmp_path / "teach", tmp_path / "live", tmp_path / "map"
        scene = ["--condition", "noon", "--scene-seed", "3"]
        assert main(["synth", "--kind", "path", "--count", "2", *scene, "--seed", "7",
                     "--out", str(teach_seq)]) == 0
        assert main(["synth", "--kind", "repeat", "--of", str(teach_seq), "--size", "32x24",
                     *scene, "--seed", "8", "--out", str(live_seq)]) == 0
        assert main(["teach", "--frames", str(teach_seq), "--features", "analytic",
                     "--out", str(map_dir)]) == 0
        for mode in ("dense", "sparse"):
            capsys.readouterr()
            assert main(["repeat", "--map", str(map_dir), "--frames", str(live_seq),
                         "--features", "analytic", "--mode", mode,
                         "--out", str(tmp_path / "rep")]) == 3
            err = capsys.readouterr().err
            assert err == ("error: data: map was taught on 64x48 frames; repeat cannot "
                           "localize 32x24 frames against it\n")
        assert not (tmp_path / "rep").exists()

    def test_a_pair_with_a_nan_patch_trains(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--kind", "pairs", "--count", "10", "--size", "32x24",
                     "--seed", "7", "--scene-seed", "3", "--out", str(data)]) == 0
        blob = data / "sample_00002.f32"
        pair = storage.read_blob(blob, (2, 3, 24, 32))
        pair[0, 0, 4:12, 8:16] = np.nan  # the source's left image
        storage.write_blob(blob, pair)
        assert main(["train", "--data", str(data), "--epochs", "1", "--channels", "2,3,4",
                     "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "checkpoint" / storage.MANIFEST_NAME).is_file()

    @pytest.mark.parametrize("flags, message", [
        (["--window", "7"], "window 7 does not divide 24x32"),
        (["--channels", "2,3,4,5"], "image 24x32 not divisible by 2^4"),
    ], ids=["window", "channels"])
    def test_training_config_that_does_not_fit_the_pairs_is_3(self, tmp_path, capsys, flags,
                                                               message):
        data = tmp_path / "data"
        assert main(["synth", "--kind", "pairs", "--count", "4", "--size", "32x24",
                     "--seed", "7", "--scene-seed", "3", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--channels", "2,3,4", "--epochs", "1",
                     *flags, "--out", str(tmp_path / "run")]) == 3
        assert f"error: data: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("outside", ["relative", "absolute"])
    @pytest.mark.parametrize("artifact", ["map", "sequence", "checkpoint", "pairs"])
    def test_manifest_file_outside_its_directory_is_3_and_unread(
        self, tmp_path, capsys, monkeypatch, artifact, outside
    ):
        # the named file is a valid blob of the right size, copied out of the directory
        from stereoloc import features

        seq = tmp_path / "seq"
        assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(seq)]) == 0
        directory = tmp_path / "artifact"
        ckpt = ["--features", "analytic"]
        if artifact == "map":
            assert main(["teach", *ckpt, "--frames", str(seq), "--out", str(directory)]) == 0
            command = ["repeat", "--map", str(directory), "--frames", str(seq), *ckpt]
            schema, path = harness.MAP_SCHEMA, ("vertices", 0)
        elif artifact == "sequence":
            assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                         "--seed", "7", "--scene-seed", "3", "--out", str(directory)]) == 0
            command = ["teach", "--frames", str(directory), *ckpt]
            schema, path = synth.SEQUENCE_SCHEMA, ("frames", 0)
        elif artifact == "checkpoint":
            cfg = features.ExtractorConfig(channels=(2, 3, 4), window=8)
            features.save_checkpoint(directory, features.init_weights(cfg))
            command = ["teach", "--frames", str(seq), "--ckpt", str(directory)]
            schema, path = features.CHECKPOINT_SCHEMA, ("layers", "enc1.weight")
        else:
            assert main(["synth", "--kind", "pairs", "--count", "2", "--size", "32x24",
                         "--seed", "7", "--scene-seed", "3", "--out", str(directory)]) == 0
            command = ["train", "--data", str(directory), "--channels", "2,3,4"]
            schema, path = synth.PAIRS_SCHEMA, ("samples", 0)
        manifest = storage.read_manifest(directory, schema)
        entry = manifest[path[0]][path[1]]
        target = tmp_path / "outside" / entry["file"]
        target.parent.mkdir()
        target.write_bytes((directory / entry["file"]).read_bytes())
        entry["file"] = f"../outside/{entry['file']}" if outside == "relative" else str(target)
        storage.write_manifest(directory, manifest)

        read = []
        read_blob = storage.read_blob

        def recorded(path, *args):
            read.append(Path(path).resolve())
            return read_blob(path, *args)

        monkeypatch.setattr(storage, "read_blob", recorded)
        capsys.readouterr()
        assert main([*command, "--out", str(tmp_path / "out")]) == 3
        key = f"{path[0]}.{path[1]}" if isinstance(path[1], str) else f"{path[0]}[{path[1]}]"
        assert capsys.readouterr().err == (
            f"error: data: {directory / storage.MANIFEST_NAME}: {key}.file {entry['file']!r} "
            "is not a file name inside its directory: relative, non-empty, no `..` part\n")
        assert target.resolve() not in read

    @pytest.fixture(scope="class")
    def taught(self, tmp_path_factory):
        """A 2-frame analytic map and its sequence, taught through the CLI."""
        root = tmp_path_factory.mktemp("taught")
        assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(root / "seq")]) == 0
        assert main(["teach", "--frames", str(root / "seq"), "--features", "analytic",
                     "--out", str(root / "map")]) == 0
        return root

    @pytest.mark.parametrize("flags, setting", [
        (["--tau", "nan"], "tau"),
        (["--tau", "inf"], "tau"),
        (["--tau", "0"], "tau"),
        (["--inlier-threshold", "nan"], "inlier_threshold"),
        (["--inlier-threshold", "inf"], "inlier_threshold"),
        (["--failure-inliers", "-1"], "failure_inliers"),
    ])
    def test_bad_localize_setting_is_3(self, taught, tmp_path, capsys, flags, setting):
        """Refused before any frame is localized, not a run of failed frames."""
        capsys.readouterr()
        assert main(["repeat", "--map", str(taught / "map"), "--frames", str(taught / "seq"),
                     "--features", "analytic", *flags, "--out", str(tmp_path / "rep")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and setting in err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("command, option, values", [
        ("teach", "disparity", harness.DISPARITY_SOURCES),
        ("repeat", "disparity", harness.DISPARITY_SOURCES),
        ("repeat", "mode", harness.MODES),
    ])
    def test_choices_are_the_harness_constants(self, command, option, values):
        _, commands = build_parser()
        (action,) = [a for a in commands[command]._actions if a.dest == option]
        assert action.choices is values

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("part_shapes"), "lacks key 'part_shapes'"),
        (lambda m: m.update(part_shapes=[[9, 48, 0], [1, 48, 64]]), "part_shapes[0][2] 0 "),
        (lambda m: m.update(part_shapes="10x48x64"), "part_shapes "),
        (lambda m: m.update(part_shapes=[]), "part_shapes "),
        (lambda m: m.update(part_shapes=[[10, 64, 48]]), "part_shapes "),
        (lambda m: m.update(part_shapes=[[10, 24, 64]]), "part_shapes "),
        (lambda m: m.update(part_shapes=[[40, 24, 32]]), "part_shapes "),
        (lambda m: m.update(image_size="48x64"), "image_size "),
        (lambda m: m.update(vertices=4), "vertices 4 "),
        (lambda m: m.update(vertices=[]), "vertices [] "),
        (lambda m: m["vertices"][1].update(n="48"), "n '48' "),
        (lambda m: m["vertices"][0].update(n=-1), "n -1 "),
        (lambda m: m["vertices"][0].update(d="9"), "d '9' "),
        (lambda m: m["vertices"][1].update(d=-9), "d -9 "),
        (lambda m: m["vertices"][0].update(world_pose=[0.0, 0.0]), "world_pose "),
        (lambda m: m["vertices"][0].update(world_pose=[0.0, "0", 0.0]), "world_pose[1] '0' "),
        (lambda m: m["vertices"][0].update(world_pose=[0.0, 0.0, float("nan")]),
         "world_pose[2] nan "),
        (lambda m: m["vertices"][0].update(n=m["vertices"][0]["n"] - 1), "float32 values"),
        (lambda m: m.update(part_shapes=[[9, 48, 64]]), "float32 values"),
    ], ids=["no-part-shapes", "zero-part-size", "part-shapes-string", "no-parts",
            "part-transposed", "part-scaled-on-one-axis", "last-part-below-image-size",
            "image-size-string", "vertices-int", "vertices-empty", "n-string", "n-negative",
            "d-string", "d-negative", "pose-two", "pose-string", "pose-nan", "n-off-by-one",
            "parts-too-small"])
    def test_malformed_map_manifest_is_3_and_names_the_key(self, taught, tmp_path, capsys,
                                                            edit, message):
        """A map manifest whose values have the wrong type or size, or
        disagree with the blob sizes or the image grid, is a data error; a
        map saved before the manifest listed its part shapes is one too.
        The transposed part, and the last part below image size, hold as
        many values as the stored one."""
        map_dir = tmp_path / "map"
        map_dir.mkdir()
        for path in (taught / "map").iterdir():
            (map_dir / path.name).write_bytes(path.read_bytes())
        manifest = storage.read_manifest(map_dir, harness.MAP_SCHEMA)
        edit(manifest)
        storage.write_manifest(map_dir, manifest)
        capsys.readouterr()
        assert main(["repeat", "--map", str(map_dir), "--frames", str(taught / "seq"),
                     "--features", "analytic", "--out", str(tmp_path / "rep")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and message in err

    def test_teach_on_non_finite_frame_is_4(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        assert main(["synth", "--kind", "path", "--count", "3", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(seq)]) == 0
        frames, manifest = synth.load_sequence(seq)
        frames[1].left[10:20, 20:30] = np.nan
        synth.save_sequence(seq, frames, synth.camera_from_dict(manifest["camera"]),
                            manifest["condition"], manifest["seed"])
        capsys.readouterr()
        assert main(["teach", "--frames", str(seq), "--features", "analytic",
                     "--out", str(tmp_path / "map")]) == 4
        assert "error: numeric: TeachFailure: frame 1: " in capsys.readouterr().err

    def test_run_dir_env_default(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("STEREOLOC_RUN_DIR", str(tmp_path / "envruns"))
        assert main(["synth", "--kind", "pairs", "--count", "1", "--size", "32x24",
                     "--seed", "1", "--scene-seed", "3"]) == 0
        assert (tmp_path / "envruns" / "synth-1" / "manifest.json").is_file()


class TestEvalGrad:
    def test_gradient_check_passes(self):
        assert main(["eval-grad", "--size", "32x24", "--channels", "1,2,2"]) == 0
