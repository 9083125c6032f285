"""Smoke test of scripts/run_experiment.py --quick: one noon map repeated
under every condition of the day, reported as one matrix row."""

import csv
import importlib.util
from pathlib import Path

from stereoloc.synth import DAY_SCHEDULE

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiment.py"


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_quick_experiment_reports_one_noon_row(tmp_path):
    spec = importlib.util.spec_from_file_location("run_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "exp"
    assert script.run(["--quick", "--seed", "11", "--out", str(out)]) == 0

    assert len(read_csv(out / "report" / "aggregate.csv")) == 1 + len(DAY_SCHEDULE)
    header, *rows = read_csv(out / "report" / "condition_matrix.csv")
    assert header == ["teach\\repeat", *sorted(DAY_SCHEDULE)]
    assert [row[0] for row in rows] == ["noon"]
    for cond, cell in zip(header[1:], rows[0][1:]):
        own = read_csv(out / f"repeat_{cond}" / "condition_matrix.csv")
        assert own == [["teach\\repeat", cond], ["noon", cell]]
