"""Summarize perfbench pairs of a parent and a change into a BENCH file.

    PYTHONPYCACHEPREFIX=CHECKOUT/.perfbench/pycache \
        python -m compileall -q CHECKOUT/src     # in both checkouts
    python tools/bench.py --parent PARENT/.perfbench/results \
        --change CHANGE/.perfbench/results --out BENCH_<n>.json

Compile both checkouts' bytecode into perfbench's cache before the runs:
perfbench warms only what `infkit --help` imports, so otherwise a measured
command of the first cycle compiles the modules it loads, and its wall time
and max-RSS count the compile.

Each directory holds the untraced result files `perfbench/run.py` wrote,
one per workload and seed (`<workload>-seed<N>-trace0.json`). A pair is a
workload and seed present on both sides. For every workload and every
end-to-end metric `BENCHMARK.json` declares, the output gives each side's
median and quartiles, the pairs the change won (ties count for neither
side), the median gap, and whether the change counts as a gain: it wins at
least nine tenths of the pairs, and its median is better than the parent's
by more than the parent's interquartile range. Each command's median wall
time in seconds and median max-RSS in MB on each side, over every cycle of
the paired runs, show which commands moved. The seeds, the Python version and the CPU count of
the runs are recorded with them. Standard library only; the benchmark
itself is not touched.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT = re.compile(r"(?P<workload>[a-z_]+)-seed(?P<seed>\d+)-trace0\.json")


def load_results(directory: Path) -> dict[tuple[str, int], dict]:
    """The untraced result files of a directory, by (workload, seed)."""
    out = {}
    for path in sorted(directory.glob("*-trace0.json")):
        match = RESULT.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]))
            out[key] = json.loads(path.read_text(encoding="utf-8"))
    return out


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of a sample."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Pair wins and the gain rule for one metric over aligned pairs."""
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = spread(parent), spread(change)
    gap = sign * (c["median"] - p["median"])
    return {"parent": p, "change": c, "pairs": len(parent), "wins": wins,
            "losses": losses, "median_gain": gap,
            "gain": wins >= 0.9 * len(parent) and gap > p["iqr"]}


def command_medians(results: list[dict],
                    field: str = "wall_s") -> dict[str, float]:
    """Median of one field of each command's runs over every cycle of the
    result files: by default the wall time in seconds, or `maxrss_mb`.
    Runs without the field are left out."""
    values: dict[str, list[float]] = {}
    for result in results:
        for cycle in result.get("cycles", ()):
            for run in cycle:
                if field in run:
                    values.setdefault(run["name"], []).append(run[field])
    return {name: statistics.median(v) for name, v in values.items()}


def summarize(parent: dict, change: dict, metrics: list[dict]) -> dict:
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        raise SystemExit("error: no workload and seed has a result on both "
                         "sides")
    runs = [parent[k] for k in pairs] + [change[k] for k in pairs]
    hosts = {(r.get("python"), r.get("nproc")) for r in runs}
    if len(hosts) != 1:
        raise SystemExit(f"error: results come from different hosts: "
                         f"{sorted(map(str, hosts))}")
    ((python, nproc),) = hosts
    workloads = {}
    for workload in sorted({w for w, _ in pairs}):
        keys = [k for k in pairs if k[0] == workload]
        row = {"seeds": [seed for _, seed in keys],
               "seconds": sorted({parent[k].get("seconds") for k in keys}
                                 | {change[k].get("seconds") for k in keys}),
               "failed_share": {
                   "parent": max(parent[k]["failed_share"] for k in keys),
                   "change": max(change[k]["failed_share"] for k in keys)},
               "metrics": {}}
        for metric in metrics:
            name = metric["name"]
            row["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric.get("bound"),
                **compare([parent[k]["metrics"][name] for k in keys],
                          [change[k]["metrics"][name] for k in keys],
                          metric["better"])}
        sides = [parent[k] for k in keys], [change[k] for k in keys]
        before, after = map(command_medians, sides)
        rss_before, rss_after = (command_medians(side, "maxrss_mb")
                                 for side in sides)
        row["commands"] = {}
        for name in sorted(before.keys() & after.keys()):
            entry = row["commands"][name] = {"parent": before[name],
                                             "change": after[name]}
            if name in rss_before and name in rss_after:
                entry["parent_maxrss_mb"] = rss_before[name]
                entry["change_maxrss_mb"] = rss_after[name]
        workloads[workload] = row
    return {"python": python, "nproc": nproc, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    metrics = json.loads(args.benchmark.read_text(encoding="utf-8"))
    report = summarize(load_results(args.parent), load_results(args.change),
                       metrics["end_to_end"])
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
