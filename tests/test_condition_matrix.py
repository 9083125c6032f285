"""Smoke test of scripts/condition_matrix.py: analytic features, two
conditions, two frames."""

import csv
import importlib.util
from pathlib import Path

from stereoloc import synth

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "condition_matrix.py"


def test_renders_each_sequence_once_and_writes_a_square_matrix(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("condition_matrix", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cast, casts = synth._cast, []

    def counted(scene, poses, K, size):  # each pose of the stack is a cast
        casts.extend(poses)
        return cast(scene, poses, K, size)

    monkeypatch.setattr(synth, "_cast", counted)
    frames, conditions = 2, ["noon", "dusk"]
    out = tmp_path / "matrix"
    assert script.run(["--out", str(out), "--frames", str(frames),
                       "--conditions", *conditions]) == 0
    # the live path once and the teach path once, each under every condition
    assert len(casts) == 2 * frames
    assert len(capsys.readouterr().out.splitlines()) == len(conditions) ** 2 + 2
    with open(out / "condition_matrix.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["teach\\repeat", *sorted(conditions)]
    assert [r[0] for r in rows[1:]] == sorted(conditions)
    assert all(len(r) == len(conditions) + 1 for r in rows[1:])
