"""tools/bench.py on synthetic perfbench result files: pairing by workload
and seed, medians and quartiles per side, pair wins, the gain rule, and
each command's median wall time and max-RSS per side."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
spec = importlib.util.spec_from_file_location("bench", TOOL)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def _write(directory, workload, seed, wall, rss, nproc=2, cycles=()):
    directory.mkdir(parents=True, exist_ok=True)
    result = {"workload": workload, "seed": seed, "seconds": 40.0,
              "python": "3.11.7", "nproc": nproc, "failed_share": 0.0,
              "metrics": {"wall_ref": wall, "peak_rss_mb": rss},
              "cycles": [[{"name": name, "wall_s": wall_s, "cpu_s": 0.0,
                           **({"maxrss_mb": more[0]} if more else {})}
                          for name, wall_s, *more in cycle]
                         for cycle in cycles]}
    (directory / f"{workload}-seed{seed}-trace0.json").write_text(
        json.dumps(result))


def _benchmark(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.24},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.1}]}))
    return path


def test_pairs_medians_wins_and_the_gain_rule(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(10):
        _write(parent, "families", seed, 7.5 + 0.1 * (seed % 3), 133.0)
        # the change wins nine pairs and loses the last one
        _write(change, "families", seed, 9.0 if seed == 9 else 6.0, 133.0)
    _write(parent, "search", 0, 7.0, 16.0)          # no change run: unpaired
    (parent / "families-seed0-trace1.json").write_text("{}")   # traced
    out = tmp_path / "BENCH.json"
    assert bench.main(["--parent", str(parent), "--change", str(change),
                       "--out", str(out),
                       "--benchmark", str(_benchmark(tmp_path))]) == 0
    report = json.loads(out.read_text())
    assert (report["python"], report["nproc"]) == ("3.11.7", 2)
    assert list(report["workloads"]) == ["families"]
    row = report["workloads"]["families"]
    assert row["seeds"] == list(range(10))
    wall = row["metrics"]["wall_ref"]
    assert (wall["pairs"], wall["wins"], wall["losses"]) == (10, 9, 1)
    assert wall["parent"]["median"] == pytest.approx(7.6)
    assert wall["change"]["median"] == 6.0
    assert wall["parent"]["iqr"] == pytest.approx(0.175)
    assert wall["median_gain"] == pytest.approx(1.6) and wall["gain"]
    rss = row["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["losses"], rss["gain"]) == (0, 0, False)


def test_per_command_medians_over_every_cycle(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(3):
        # two cycles per run; `sat` takes 0.1 s throughout, `check` moves
        _write(parent, "search", seed, 5.0, 16.0, cycles=[
            [("sat", 0.1), ("check", 0.3 + 0.01 * seed)],
            [("sat", 0.1), ("check", 0.2)]])
        _write(change, "search", seed, 4.5, 16.0, cycles=[
            [("sat", 0.1), ("check", 0.15), ("new", 1.0)]])
    _write(change, "search", 7, 4.5, 16.0, cycles=[[("check", 9.0)]])
    out = tmp_path / "BENCH.json"
    assert bench.main(["--parent", str(parent), "--change", str(change),
                       "--out", str(out),
                       "--benchmark", str(_benchmark(tmp_path))]) == 0
    commands = json.loads(out.read_text())["workloads"]["search"]["commands"]
    assert list(commands) == ["check", "sat"]     # on both sides only
    assert commands["sat"] == {"parent": 0.1, "change": 0.1}
    # parent: 0.2, 0.2, 0.2, 0.3, 0.31, 0.32; the unpaired seed 7 is left out
    assert commands["check"]["parent"] == pytest.approx(0.25)
    assert commands["check"]["change"] == 0.15


def test_per_command_max_rss_medians_next_to_the_wall_times(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(3):
        # `emit` holds less memory on the change side; `help` records no
        # max-RSS on the parent side, so it gets none
        _write(parent, "families", seed, 4.0, 105.7, cycles=[
            [("emit", 0.3, 105.0 + seed), ("help", 0.1)],
            [("emit", 0.3, 106.0), ("help", 0.1)]])
        _write(change, "families", seed, 3.5, 27.0, cycles=[
            [("emit", 0.1, 21.0), ("help", 0.1, 15.0)],
            [("emit", 0.1, 22.0 + seed), ("help", 0.1, 15.0)]])
    out = tmp_path / "BENCH.json"
    assert bench.main(["--parent", str(parent), "--change", str(change),
                       "--out", str(out),
                       "--benchmark", str(_benchmark(tmp_path))]) == 0
    commands = json.loads(out.read_text())["workloads"]["families"][
        "commands"]
    # parent: 105, 106, 106, 106, 106, 107; change: 21 x3, 22, 23, 24
    assert commands["emit"] == {"parent": 0.3, "change": 0.1,
                                "parent_maxrss_mb": 106.0,
                                "change_maxrss_mb": 21.5}
    assert commands["help"] == {"parent": 0.1, "change": 0.1}


def test_results_from_different_hosts_are_refused(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, "corpus", 1, 20.0, 16.0, nproc=2)
    _write(change, "corpus", 1, 20.0, 16.0, nproc=4)
    with pytest.raises(SystemExit, match="different hosts"):
        bench.main(["--parent", str(parent), "--change", str(change),
                    "--out", str(tmp_path / "out.json"),
                    "--benchmark", str(_benchmark(tmp_path))])
