"""scripts/bench_pairs.py's summary and record writer, on canned result
lines (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]
ENV = {"nproc": 2, "python": "3.11.7", "git_sha": "abc", "machine": "x86_64 Linux"}


def line(side, workload, seed, trace=0, **metrics):
    unit = "ms/item" if trace else "ms"
    return {
        "side": side, "workload": workload, "seed": seed, "trace": trace, "env": ENV,
        "detail": {"workload": workload, "seed": seed, "trace": trace},
        "result": {"correct": True, "attempted": 10, "failed": 0,
                   "metrics": {k: {"value": v, "unit": unit} for k, v in metrics.items()}},
    }


def canned_runs():
    # step_ms_p50: the change wins seeds 1 and 2, ties 3, loses 4;
    # items_per_s: the change wins 1, 3 and 4, ties 2
    pairs = [(1, (20.0, 10.0), (18.0, 19.0)), (2, (22.0, 12.0), (21.0, 12.0)),
             (3, (24.0, 14.0), (24.0, 15.0)), (4, (26.0, 16.0), (27.0, 17.0))]
    runs = []
    for seed, parent, change in pairs:
        runs.append(line("parent", "repeat-day", seed, step_ms_p50=parent[0],
                         items_per_s=parent[1]))
        runs.append(line("change", "repeat-day", seed, step_ms_p50=change[0],
                         items_per_s=change[1]))
    runs.append(line("parent", "repeat-day", 9, trace=1, **{"estimator.ransac_pose.self_ms": 3.0}))
    runs.append(line("change", "repeat-day", 9, trace=1, **{"estimator.ransac_pose.self_ms": 1.0}))
    return runs


def test_summary_counts_wins_and_ties_per_direction():
    s = bench_pairs.summarize(canned_runs(), SPEC)["repeat-day"]
    step = s["step_ms_p50"]
    assert step["parent"] == {"median": 23.0, "q1": 21.5, "q3": 24.5, "n": 4}
    assert step["change"]["median"] == 22.5
    assert (step["change_better_pairs"], step["tied_pairs"], step["pairs"]) == (2, 1, 4)
    assert step["change_over_parent"] == pytest.approx(22.5 / 23.0)
    assert step["parent_iqr_over_median"] == pytest.approx(3.0 / 23.0)
    assert step["bound"] == 0.25
    items = s["items_per_s"]
    assert (items["change_better_pairs"], items["tied_pairs"]) == (3, 1)


def test_traced_runs_are_kept_out_of_the_summary():
    record = bench_pairs.build_record("t", "note", {"parent": "p1", "change": "c1"}, "proto",
                                      25, canned_runs(), SPEC)
    assert record["summary"]["repeat-day"]["step_ms_p50"]["parent"]["n"] == 4
    assert record["traced_repeat_day_per_item"] == {
        "parent": {"estimator.ransac_pose.self_ms": 3.0},
        "change": {"estimator.ransac_pose.self_ms": 1.0},
    }


def test_record_schema_round_trips(tmp_path):
    runs = canned_runs()
    record = bench_pairs.build_record("t", "note", {"parent": "p1", "change": "c1"}, "proto",
                                      25, runs, SPEC)
    path = tmp_path / "BENCH_t.json"
    bench_pairs.write_record(path, record)
    loaded = json.loads(path.read_text())
    assert list(loaded) == ["label", "change", "parent_commit", "change_commit", "command",
                            "protocol", "machine", "summary", "traced_repeat_day_per_item",
                            "runs"]
    assert loaded["command"] == ("python3 perfbench/run.py --workload <w> --seed <s> "
                                 "--seconds 25 [--trace 1]")
    assert "git_sha" not in loaded["machine"] and loaded["machine"]["nproc"] == 2
    assert loaded["runs"] == runs
    assert not list(tmp_path.glob("*.tmp"))


def test_single_run_side_and_missing_pair():
    runs = [line("parent", "train-desk", 5, step_ms_p50=50.0, items_per_s=1.0),
            line("change", "train-desk", 5, step_ms_p50=50.0, items_per_s=1.0),
            line("parent", "train-desk", 6, step_ms_p50=52.0, items_per_s=1.0)]
    step = bench_pairs.summarize(runs, SPEC)["train-desk"]["step_ms_p50"]
    assert step["change"] == {"median": 50.0, "q1": 50.0, "q3": 50.0, "n": 1}
    assert (step["change_better_pairs"], step["tied_pairs"], step["pairs"]) == (0, 1, 1)


def test_seed_ranges_and_protocol():
    assert bench_pairs.seed_range("repeat-day:1501-1503") == ("repeat-day", [1501, 1502, 1503])
    assert bench_pairs.seed_range("train-desk:7") == ("train-desk", [7])
    with pytest.raises(Exception):
        bench_pairs.seed_range("repeat-day")
    text = bench_pairs.protocol_text([("repeat-day", [1, 2])], [("repeat-day", [9])])
    assert "2 pairs on repeat-day (seeds 1-2)" in text
    assert "one traced repeat-day run per side (seed 9)" in text


def test_anchor_slot_rotates_and_parent_change_alternate():
    orders = [bench_pairs.run_order(i, anchor=True) for i in range(6)]
    assert len(set(orders)) == 6  # every place among the other two
    for i, order in enumerate(orders):
        assert order.index("anchor") == i % 3
        pair = [s for s in order if s != "anchor"]
        assert pair == (["parent", "change"] if i % 2 == 0 else ["change", "parent"])
    assert [bench_pairs.run_order(i, anchor=False) for i in range(2)] == [
        ("parent", "change"), ("change", "parent")]


def test_anchor_side_gains_change_over_anchor():
    runs = canned_runs()
    for seed, (step, items) in zip(range(1, 5), [(30.0, 8.0), (32.0, 9.0), (34.0, 10.0),
                                                  (36.0, 11.0)]):
        runs.append(line("anchor", "repeat-day", seed, step_ms_p50=step, items_per_s=items))
    record = bench_pairs.build_record("t", "note", {"parent": "p1", "change": "c1",
                                                    "anchor": "a1"}, "proto", 25, runs, SPEC)
    assert record["anchor_commit"] == "a1"
    assert list(record)[:5] == ["label", "change", "parent_commit", "change_commit",
                                "anchor_commit"]
    step = record["summary"]["repeat-day"]["step_ms_p50"]
    assert step["anchor"] == {"median": 33.0, "q1": 31.5, "q3": 34.5, "n": 4}
    assert step["change_over_anchor"] == pytest.approx(22.5 / 33.0)
    # the pair counts stay parent against change
    assert (step["change_better_pairs"], step["tied_pairs"], step["pairs"]) == (2, 1, 4)
    assert "change_over_anchor" not in bench_pairs.summarize(
        canned_runs(), SPEC)["repeat-day"]["step_ms_p50"]
    text = bench_pairs.protocol_text([("repeat-day", [1, 2])], [], anchor=True)
    assert "the anchor runs on every seed as a third side" in text


def test_a_side_that_is_not_a_work_tree_is_refused_before_any_run(tmp_path, capsys,
                                                                   monkeypatch):
    import subprocess

    repo, copy = tmp_path / "repo", tmp_path / "copy"
    repo.mkdir()
    copy.mkdir()
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / "nested").mkdir()
    monkeypatch.setattr(bench_pairs, "run_one", lambda *a: pytest.fail("a run started"))
    for argv, side, path in [
        (["--parent", copy, "--change", repo], "parent", copy),  # a plain copy
        (["--parent", repo, "--change", repo / "nested"], "change", repo / "nested"),
        (["--parent", repo, "--change", repo, "--anchor", tmp_path / "gone"], "anchor",
         tmp_path / "gone"),
    ]:
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main([str(a) for a in argv] + ["--label", "t",
                                                       "--pairs", "train-desk:1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"--{side} {path.resolve()} is not the top of a git work tree" in err
    assert not list(tmp_path.glob("**/BENCH_*"))
