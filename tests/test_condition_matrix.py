"""scripts/condition_matrix.py as a CLI chain: noon and dusk maps, each
repeated under both conditions, analytic features, two frames; and the
condition matrix `report` writes over those runs."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from stereoloc import synth
from stereoloc.cli import main
from stereoloc.harness import write_condition_matrix

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "condition_matrix.py"
CONDITIONS = ["noon", "dusk"]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("condition_matrix", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path_factory.mktemp("sweep")
    assert script.run(["--out", str(out), "--frames", "2", "--conditions", *CONDITIONS]) == 0
    runs = sorted(out.glob("repeat_*"))
    assert len(runs) == len(CONDITIONS) ** 2
    return out, runs


def labels(run: Path) -> tuple[str, str]:
    config = json.loads((run / "run_manifest.json").read_text())["config"]
    return config["teach_condition"], config["repeat_condition"]


def test_the_matrix_is_the_writers_over_the_runs(sweep, tmp_path):
    out, runs = sweep
    cells = {labels(run): json.loads((run / "summary.json").read_text())["mean_inliers"]
             for run in runs}
    assert set(cells) == {(tc, rc) for tc in CONDITIONS for rc in CONDITIONS}
    write_condition_matrix(cells, tmp_path / "expected.csv")
    matrix = (out / "report" / "condition_matrix.csv").read_bytes()
    assert matrix == (tmp_path / "expected.csv").read_bytes()
    assert matrix.decode().splitlines()[0] == "teach\\repeat,dusk,noon"


def test_each_cell_is_its_runs_own_cell(sweep):
    out, runs = sweep
    rows = [line.split(",") for line in
            (out / "report" / "condition_matrix.csv").read_text().splitlines()]
    column = {rc: i for i, rc in enumerate(rows[0])}
    row = {r[0]: r for r in rows[1:]}
    for run in runs:
        tc, rc = labels(run)
        own = (run / "condition_matrix.csv").read_text().splitlines()
        assert own[0] == f"teach\\repeat,{rc}"
        assert row[tc][column[rc]] == own[1].split(",")[1]


def test_report_over_one_run_writes_its_own_matrix(sweep, tmp_path):
    _, runs = sweep
    for run in runs:
        assert main(["report", "--runs", str(run), "--out", str(tmp_path / run.name)]) == 0
        assert ((tmp_path / run.name / "condition_matrix.csv").read_bytes()
                == (run / "condition_matrix.csv").read_bytes())


def test_each_repeat_condition_is_rendered_once_and_repeated_against_every_map(sweep):
    out, runs = sweep
    assert sorted(p.name for p in out.glob("seq_*")) == sorted(f"seq_{rc}" for rc in CONDITIONS)
    for run in runs:
        tc, rc = labels(run)
        config = json.loads((run / "run_manifest.json").read_text())["config"]
        assert (config["name"], config["map"], config["frames"]) == (
            f"{tc}_vs_{rc}", str(out / f"map_{tc}"), str(out / f"seq_{rc}"))
        assert synth.load_sequence(out / f"seq_{rc}")[1]["condition"] == rc


def test_two_runs_of_one_cell_are_3_and_named(sweep, tmp_path, capsys):
    _, runs = sweep
    twin = tmp_path / "twin"
    shutil.copytree(runs[0], twin)
    capsys.readouterr()
    assert main(["report", "--runs", *map(str, runs), str(twin),
                 "--out", str(tmp_path / "report")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data: ")
    assert f"runs {runs[0]} and {twin} both fill" in err
    assert not (tmp_path / "report").exists()
