import numpy as np
import pytest

from stereoloc import storage, synth
from stereoloc.cli import main, read_config_file


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
        assert storage.read_manifest(tmp_path) == {"kind": "test", "value": 3}

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            storage.read_manifest(tmp_path / "nope")


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
        manifest = storage.read_manifest(out)
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
        assert storage.read_manifest(map_dir)["kind"] == "map"

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

    def test_analytic_features_need_no_checkpoint(self, workdir):
        teach_seq = workdir / "teach_seq"
        map_dir = workdir / "map_analytic"
        assert main(["teach", "--frames", str(teach_seq), "--features", "analytic",
                     "--out", str(map_dir)]) == 0

    def test_config_file_merging(self, workdir, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "cfgdata"
        cfg.write_text("synth.count = 2\nsynth.size = 32x24\n")
        assert main(["synth", "--config", str(cfg), "--scene-seed", "3",
                     "--out", str(out)]) == 0
        manifest = storage.read_manifest(out)
        assert len(manifest["samples"]) == 2  # file value applied

    def test_flag_overrides_config_file(self, workdir, tmp_path):
        cfg = tmp_path / "exp2.cfg"
        out = tmp_path / "cfgdata2"
        cfg.write_text("synth.count = 2\nsynth.size = 32x24\n")
        assert main(["synth", "--config", str(cfg), "--count", "3", "--scene-seed", "3",
                     "--out", str(out)]) == 0
        assert len(storage.read_manifest(out)["samples"]) == 3

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
        assert "error: data: unsupported activation 'relu'" in capsys.readouterr().err

    def test_checkpoint_without_activation_is_3(self, tmp_path, capsys):
        from stereoloc import features

        seq = tmp_path / "seq"
        assert main(["synth", "--kind", "path", "--count", "2", "--condition", "noon",
                     "--seed", "7", "--scene-seed", "3", "--out", str(seq)]) == 0
        ckpt = tmp_path / "ckpt"
        features.save_checkpoint(
            ckpt, features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8))
        )
        manifest = storage.read_manifest(ckpt)
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
        manifest = storage.read_manifest(seq)
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
        manifest = storage.read_manifest(seq)
        manifest["frames"] = []
        storage.write_manifest(seq, manifest)
        capsys.readouterr()
        assert main(["repeat", "--map", str(map_dir), "--frames", str(seq),
                     "--features", "analytic", "--out", str(tmp_path / "rep")]) == 3
        assert "error: data: empty repeat sequence" in capsys.readouterr().err

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
    def test_gradient_check_passes(self, tmp_path):
        assert main(["eval-grad", "--size", "32x24", "--channels", "1,2,2",
                     "--out", str(tmp_path / "g")]) == 0
