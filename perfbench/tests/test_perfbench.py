"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The known-answer tests run every workload command once per seed as a
subprocess, so this module takes a few minutes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, run, workloads

ROOT = Path(__file__).resolve().parents[2]
CORPUS = ROOT / "src" / "infkit" / "corpus"


def _files(d: Path) -> dict:
    return {p.relative_to(d).as_posix(): p.read_bytes()
            for p in sorted(d.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_sizes_are_fixed(workload, tmp_path):
    a = workloads.generate(workload, 3, CORPUS, tmp_path / "a")
    b = workloads.generate(workload, 3, CORPUS, tmp_path / "b")
    c = workloads.generate(workload, 4, CORPUS, tmp_path / "c")
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert (_files(tmp_path / "a"), [x.argv for x in a]) != \
        (_files(tmp_path / "c"), [x.argv for x in c])
    # another seed: same commands and known answers, same file set
    assert [(x.name, x.exit, x.expect) for x in a] == \
        [(x.name, x.exit, x.expect) for x in c]
    assert _files(tmp_path / "a").keys() == _files(tmp_path / "c").keys()


def test_seeded_sentences_are_valid_at_fixed_cost(tmp_path):
    for seed in range(20):
        workloads.generate("search", seed, CORPUS, tmp_path / str(seed))
        theory = json.loads((tmp_path / str(seed) /
                             "theory_strong.json").read_text())
        seeded = theory["sentences"][:workloads.SEEDED_SENTENCES]
        assert [workloads._cost(f) for f in seeded] == \
            [workloads.SEEDED_SENTENCE_COST] * workloads.SEEDED_SENTENCES
        for f in seeded:
            assert not workloads._free_vars(f)
            body = f["forall"]["body"] if "forall" in f else f
            # `g or not g`: one in every Boolean-valued model
            g, neg = body["or"]
            assert neg == {"not": g}


def _runner(tmp_path, workload, seed):
    work = tmp_path / f"{workload}-{seed}"
    cmds = workloads.generate(workload, seed, CORPUS, work / "in")
    return run.Runner(ROOT, work), cmds


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_known_answers_hold(workload, seed, tmp_path):
    runner, cmds = _runner(tmp_path, workload, seed)
    with runner:
        cycle = runner.cycle(cmds)
    runner.check(cmds, [cycle])
    attempted, failed, probes, errors = run._tally(cmds, [cycle])
    assert failed == 0, errors
    assert attempted == sum(not c.probe for c in cmds)
    # only probes (known defects) may fail
    assert set(probes) <= {c.name for c in cmds if c.probe}


def test_strong_search_work_does_not_depend_on_the_seed(tmp_path):
    calls = []
    for seed in (0, 7):
        runner, cmds = _runner(tmp_path, "search", seed)
        strong = [c for c in cmds if c.name == "sat_strong"]
        traced = tmp_path / f"traced-{seed}"
        traced.mkdir()
        with runner:
            runner.cycle(strong, traced)
        summary = json.loads((traced / "00.json").read_text())
        calls.append({k: v["calls"] for k, v in summary["layers"].items()})
    assert calls[0]["bvmodel.eval_formula"] > calls[0]["bvmodel.models"]
    assert calls[0] == calls[1]


def test_exit_2_requires_an_empty_stdout():
    cmd = workloads.Command("probe", ("sat",), 2, probe=True)
    assert workloads.report_errors(cmd, b"") == []
    assert workloads.report_errors(cmd, b'{"found": false}\n') != []


def test_peak_rss_is_the_commands_own(tmp_path):
    """The spawner, not the benchmark, forks the commands, so a child's
    max-RSS does not start at the benchmark's."""
    ballast = b"x" * (64 << 20)
    runner, _ = _runner(tmp_path, "corpus", 0)
    with runner:
        r = runner.launch(workloads.Command("help", ("--help",), 0))
    assert r.exit == 0
    assert r.maxrss_mb < 48
    del ballast


@pytest.fixture(scope="module")
def traced_corpus(tmp_path_factory):
    runner, cmds = _runner(tmp_path_factory.mktemp("trace"), "corpus", 0)
    with runner:
        return cmds, run.trace(runner, cmds, runner.work)


def test_traced_stdout_equals_untraced(traced_corpus):
    cmds, (metrics, (plain, traced), summaries) = traced_corpus
    for p, t in zip(plain, traced):
        assert p.sha256 == t.sha256, p.name
        assert p.exit == t.exit, p.name
    assert metrics["trace_overhead"] > 0


def test_self_times_add_up_to_cli_main(traced_corpus):
    cmds, (metrics, cycles, summaries) = traced_corpus
    for s in summaries:
        assert s["layers"]["cli.main"]["calls"] == 1, s["command"]
        assert s["main_self_sum_s"] == pytest.approx(s["main_total_s"],
                                                     rel=1e-6, abs=1e-9)
    corpus = next(s for s in summaries if s["command"] == "corpus")
    assert corpus["threads"] > 1        # run_corpus workers are traced


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert spec["per_layer"] == layers.PER_LAYER


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_task_prints_its_digest():
    proc = subprocess.run([sys.executable, "perfbench/reference.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == run.REFERENCE_DIGEST
