#!/usr/bin/env python3
"""Paired parent/change benchmark runs, summarised into BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --label pr5 \\
        --pairs repeat-day:1501-1510 --pairs train-desk:1521-1525 \\
        --trace repeat-day:1530 --anchor ../anchor --note "what the change does"

Each seed runs `python3 perfbench/run.py --workload W --seed S --seconds T`
once in each checkout, T being the change checkout's BENCHMARK.json
`run_seconds`; the side that runs first alternates from seed to seed.
`--anchor` names a third checkout, a fixed older commit, that runs on every
seed too: its slot rotates through first, second and third, so over six
seeds it takes every place among the other two, whose order still
alternates. Each `--trace` seed runs once per side with `--trace 1`. The
record holds the label, the commits, the command, the protocol, the
machine, a per-workload summary of every end-to-end metric in the change
checkout's BENCHMARK.json (median, inclusive quartiles, pairs the change
wins or ties, the parent's IQR over its median, the metric's bound, and,
with an anchor, its median and quartiles and the change's median over
it), the traced runs' per-layer metrics, and every raw result line. The
file is rewritten after every run, so an interrupted session keeps what it
measured.

Each side must be the top of a git work tree (a `git clone`, checked out at
the commit to measure), since the record names every side's commit. A plain
copy, such as a `git archive` export, is refused with a usage error (exit
2) before any run.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ANCHOR = "anchor"


def seed_range(spec: str) -> tuple[str, list[int]]:
    """'repeat-day:1501-1510' -> ('repeat-day', [1501, ..., 1510]); a single
    seed 'repeat-day:1530' is also accepted."""
    workload, _, seeds = spec.rpartition(":")
    lo, _, hi = seeds.partition("-")
    if not workload or not lo.isdigit() or (hi and not hi.isdigit()):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED[-SEED], got {spec!r}")
    return workload, list(range(int(lo), int(hi or lo) + 1))


def work_tree(path: Path) -> bool:
    """Whether `path` is the top directory of a git work tree; a plain copy
    inside another work tree is not."""
    if not path.is_dir():
        return False
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=path,
                         capture_output=True, text=True)
    return top.returncode == 0 and Path(top.stdout.strip()).resolve() == path.resolve()


def run_one(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its env, detail and result lines."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} printed no result\n{proc.stderr}")
    stamp, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "env": stamp["env"],
            "detail": stamp["detail"], "result": result}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    """Per workload and end-to-end metric, over the untraced runs: each
    side's median and quartiles, the pairs (same seed) the change wins or
    ties against the parent in the metric's better direction, and, where
    an anchor ran, the change's median over the anchor's."""
    summary: dict = {}
    untraced = [r for r in runs if not r["trace"] and r["result"]["metrics"]]
    for workload in dict.fromkeys(r["workload"] for r in untraced):
        by_seed: dict = {}
        for r in untraced:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        per_metric = {}
        for m in spec:
            name, lower = m["name"], m["better"] == "lower"
            values = {s: [v[s][name]["value"] for v in by_seed.values() if s in v] for s in SIDES}
            if not all(values.values()):
                continue
            paired = [(v["parent"][name]["value"], v["change"][name]["value"])
                      for v in by_seed.values() if all(side in v for side in SIDES)]
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            per_metric[name] = {
                "parent": parent,
                "change": change,
                "change_over_parent": (change["median"] / parent["median"]
                                       if parent["median"] else None),
                "change_better_pairs": sum((c < p) if lower else (c > p) for p, c in paired),
                "tied_pairs": sum(c == p for p, c in paired),
                "pairs": len(paired),
                "parent_iqr_over_median": ((parent["q3"] - parent["q1"]) / parent["median"]
                                           if parent["median"] else None),
                "bound": m["bound"],
            }
            anchor = [v[ANCHOR][name]["value"] for v in by_seed.values() if ANCHOR in v]
            if anchor:
                per_metric[name]["anchor"] = quartiles(anchor)
                a = per_metric[name]["anchor"]["median"]
                per_metric[name]["change_over_anchor"] = change["median"] / a if a else None
        summary[workload] = per_metric
    return summary


def traced(runs: list[dict]) -> dict:
    """`traced_<workload>_per_item`: each side's per-layer metrics."""
    out: dict = {}
    for r in runs:
        if r["trace"]:
            key = f"traced_{r['workload'].replace('-', '_')}_per_item"
            out.setdefault(key, {})[r["side"]] = {
                k: v["value"] for k, v in r["result"]["metrics"].items()
            }
    return out


def build_record(label: str, note: str, commits: dict, protocol: str, seconds: float,
                 runs: list[dict], spec: list[dict]) -> dict:
    machine = {k: v for k, v in runs[0]["env"].items() if k != "git_sha"} if runs else {}
    return {
        "label": label,
        "change": note,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        **({"anchor_commit": commits[ANCHOR]} if ANCHOR in commits else {}),
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g}"
                   " [--trace 1]",
        "protocol": protocol,
        "machine": machine,
        "summary": summarize(runs, spec),
        **traced(runs),
        "runs": runs,
    }


def write_record(path: Path, record: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1) + "\n")
    tmp.replace(path)


def protocol_text(pairs: list[tuple[str, list[int]]], traces: list[tuple[str, list[int]]],
                  anchor: bool = False) -> str:
    def seeds(s):
        return f"{s[0]}-{s[-1]}" if len(s) > 1 else str(s[0])

    parts = [f"{len(s)} pairs on {w} (seeds {seeds(s)})" for w, s in pairs]
    parts += [f"one traced {w} run per side (seed {seeds(s)})" for w, s in traces]
    third = ("; the anchor runs on every seed as a third side, its slot rotating through "
             "first, second and third" if anchor else "")
    return ("each side run from its own checkout; pairs of parent and change on the same "
            "seed, alternating which side runs first" + third + "; " + ", ".join(parts)
            + "; times are the benchmark's speed-probe-scaled values")


def run_order(i: int, anchor: bool) -> tuple[str, ...]:
    """The sides of the i-th seed in running order: parent and change
    alternate, and the anchor, if any, takes slot i % 3."""
    order = list(SIDES if i % 2 == 0 else SIDES[::-1])
    if anchor:
        order.insert(i % 3, ANCHOR)
    return tuple(order)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--label", required=True)
    ap.add_argument("--note", default="", help="one line on what the change does")
    ap.add_argument("--pairs", type=seed_range, action="append", default=[],
                    metavar="WORKLOAD:SEEDS")
    ap.add_argument("--trace", type=seed_range, action="append", default=[],
                    metavar="WORKLOAD:SEEDS")
    ap.add_argument("--anchor", type=Path, metavar="CHECKOUT",
                    help="a fixed older checkout run on every seed as a third side")
    ap.add_argument("--out", type=Path, help="default: BENCH_<label>.json in the change checkout")
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.anchor:
        checkouts[ANCHOR] = args.anchor.resolve()
    for side, checkout in checkouts.items():
        if not work_tree(checkout):
            ap.error(f"--{side} {checkout} is not the top of a git work tree")
    commits = {s: subprocess.run(["git", "rev-parse", "HEAD"], cwd=c, capture_output=True,
                                 text=True, check=True).stdout.strip()
               for s, c in checkouts.items()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    spec, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    out = args.out or checkouts["change"] / f"BENCH_{args.label}.json"
    protocol = protocol_text(args.pairs, args.trace, anchor=bool(args.anchor))

    jobs = []
    for trace, groups in ((0, args.pairs), (1, args.trace)):
        for workload, seeds in groups:
            for i, seed in enumerate(seeds):
                jobs += [(side, workload, seed, trace)
                         for side in run_order(i, bool(args.anchor))]
    runs: list[dict] = []
    for side, workload, seed, trace in jobs:
        run = run_one(checkouts[side], workload, seed, seconds, trace)
        runs.append({"side": side, **run})
        print(f"{side} {workload} seed {seed} trace {trace}: "
              f"{json.dumps(run['result']['metrics'].get('step_ms_p50'))}", file=sys.stderr)
        write_record(out, build_record(args.label, args.note, commits, protocol,
                                       seconds, runs, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
