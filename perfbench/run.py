"""The infkit benchmark: seeded CLI workloads run as subprocesses.

    python3 perfbench/run.py --workload search|families|corpus --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout. It runs `python3 -m infkit.cli`
from `src/` in a closed loop: one client, one command at a time, never more
than one infkit process. A cycle runs every command of the workload once;
cycles repeat while another one fits in `--seconds` (at least one runs).
Every verdict is checked against its known answer (`workloads.py`), and a
command's stdout must be byte-identical in every cycle.

With `--trace 0` the last stdout line reports the end-to-end metrics:

    wall_ref       mean over cycles of the summed command wall times
    cmd_gmean_ref  geometric mean wall time of one command (the typical
                   time to one verdict)
    cpu_ref        mean over cycles of the children's user+sys CPU
    peak_rss_mb    largest max-RSS of any child
    setup_s        median wall time of `infkit --help` (start-up, imports,
                   parser build), sampled before every cycle

The three `_ref` times are in units of `reference.py`, a fixed pure-Python
task of about 0.2 s that runs between the commands (see REFERENCE_EVERY_S):
`wall_ref` and `cpu_ref` are divided by the mean wall or CPU time of the
run's reference runs, `cmd_gmean_ref` by the geometric mean of their wall
times. On a shared host the speed of both drifts by 10-40% within minutes,
and the ratio moves far less than either time. The times in seconds, and
every reference sample, are in the results file.

With `--trace 1` one untraced and one traced cycle run, the latter through
`tracer.py`, and the last line reports the per-layer metrics (`layers.py`).

Commands are forked by `spawner.py`, a small resident helper, because
Linux starts a child's max-RSS at the RSS of the process that forks it; the
helper's RSS (about 8 MB) stays under that of any infkit command.

Per-command details (wall, CPU, RSS, stdout sha256, errors, failed share)
go to `.perfbench/results/`. Probes check the README exit-code contract and
byte-identical output on inputs where this version is known to break them.
They run in every cycle of `corpus` but are tallied apart from
`attempted`/`failed`; their failures are reported on stderr, in the results
file and as the per-layer metric `contract_probes.failed`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers, workloads  # noqa: E402

# A command that runs longer than this counts as failed.
COMMAND_TIME_LIMIT_S = 60.0
# `infkit --help` samples: before the first cycle, then before each cycle.
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_PER_CYCLE = 2
# In timed cycles `reference.py` runs before the first command and then
# before any command that follows this much command time since its last run.
REFERENCE_EVERY_S = 1.0
# What `reference.py` prints.
REFERENCE_DIGEST = ("573e5b045e36f1f1dabc32b4fde2614f"
                    "583d7f5b4fbea44bd31111f5d3616e41")

END_TO_END_UNITS = {"wall_ref": "ref", "cmd_gmean_ref": "ref",
                    "cpu_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Result:
    name: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit: int
    timed_out: bool
    sha256: str
    stderr: bytes
    errors: list = field(default_factory=list)


class Runner:
    """Runs infkit commands one at a time from the work directory, through
    `spawner.py`; each command's stdout and stderr go to files under `out/`.
    Close it to stop the spawner."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONPYCACHEPREFIX"] = str(root / ".perfbench" / "pycache")
        # Reports must repeat byte for byte; infkit orders some output by
        # set iteration, which follows the string-hash seed.
        self.env["PYTHONHASHSEED"] = "0"
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # (wall s, CPU s) of every `reference.py` run
        self.references: list[tuple[float, float]] = []
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S",
             str(root / "perfbench" / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def launch(self, cmd: workloads.Command,
               traced_summary: Path | None = None) -> Result:
        if traced_summary is None:
            argv = [sys.executable, "-m", "infkit.cli", *cmd.argv]
        else:
            argv = [sys.executable, str(self.root / "perfbench" / "tracer.py"),
                    str(traced_summary), "--", *cmd.argv]
        return self._spawn(cmd.name, argv, dict(cmd.env))

    def _spawn(self, name: str, argv: list, env: dict) -> Result:
        out_path = self.out / f"{name}.stdout"
        err_path = self.out / f"{name}.stderr"
        marshal.dump((argv, str(self.work), {**self.env, **env},
                      str(out_path), str(err_path), COMMAND_TIME_LIMIT_S),
                     self.spawner.stdin)
        self.spawner.stdin.flush()
        try:
            wall, status, utime, stime, maxrss_kib, timed_out = \
                marshal.load(self.spawner.stdout)
        except EOFError:
            raise SystemExit("perfbench: the spawner stopped") from None
        return Result(
            name=name, wall_s=wall, cpu_s=utime + stime,
            maxrss_mb=maxrss_kib / 1024.0,
            exit=os.waitstatus_to_exitcode(status), timed_out=timed_out,
            sha256=_sha256(out_path), stderr=err_path.read_bytes())

    def setup_sample(self) -> float:
        """Wall time of `infkit --help`."""
        r = self.launch(workloads.Command("help", ("--help",), 0))
        if r.exit != 0:
            raise SystemExit("perfbench: `infkit --help` failed")
        return r.wall_s

    def reference(self) -> None:
        """One run of `reference.py`, kept in `references`."""
        r = self._spawn("reference", [
            sys.executable, str(self.root / "perfbench" / "reference.py")], {})
        out = (self.out / "reference.stdout").read_text().strip()
        if r.exit != 0 or out != REFERENCE_DIGEST:
            raise SystemExit("perfbench: reference.py failed")
        self.references.append((r.wall_s, r.cpu_s))

    def cycle(self, cmds, traced_dir: Path | None = None,
              references: bool = False) -> list[Result]:
        """Every command once, in order; with `references`, interleaved
        with runs of `reference.py` (see REFERENCE_EVERY_S)."""
        results, since = [], REFERENCE_EVERY_S
        for i, cmd in enumerate(cmds):
            if references and since >= REFERENCE_EVERY_S:
                self.reference()
                since = 0.0
            r = self.launch(cmd, None if traced_dir is None
                            else traced_dir / f"{i:02d}.json")
            since += r.wall_s
            results.append(r)
        return results

    def check(self, cmds, cycles) -> None:
        """Fill in each result's errors. The report is read from the last
        cycle's stdout file, after the timed cycles; earlier cycles must
        have the same stdout digest."""
        index = {cmd.name: i for i, cmd in enumerate(cmds)}
        for i, cmd in enumerate(cmds):
            runs = [cycle[i] for cycle in cycles]
            content = workloads.report_errors(
                cmd, (self.out / f"{cmd.name}.stdout").read_bytes())
            for cycle, r in zip(cycles, runs):
                r.errors = workloads.process_errors(cmd, r.exit, r.stderr,
                                                    r.timed_out)
                r.errors += content if r.sha256 == runs[-1].sha256 \
                    else ["stdout differs between cycles"]
                if cmd.same_stdout_as and \
                        r.sha256 != cycle[index[cmd.same_stdout_as]].sha256:
                    r.errors.append(f"stdout differs from {cmd.same_stdout_as}")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _tally(cmds, cycles):
    """(attempted, failed, failing probes, error lines) over all cycles."""
    attempted = failed = 0
    probe_failed = set()
    errors = []
    for i, cmd in enumerate(cmds):
        for r in (cycle[i] for cycle in cycles):
            if cmd.probe:
                if r.errors:
                    probe_failed.add(cmd.name)
                continue
            attempted += 1
            if r.errors:
                failed += 1
                errors.append(f"{cmd.name}: {'; '.join(r.errors)}")
    return attempted, failed, sorted(probe_failed), errors


def measure(runner: Runner, cmds, seconds: float):
    """Untraced cycles while another fits in `seconds` (at least one);
    returns (end-to-end metrics, cycles, details for the results file)."""
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES_FIRST)]
    cycles = []
    start = time.perf_counter()
    while True:
        setup += [runner.setup_sample()
                  for _ in range(SETUP_SAMPLES_PER_CYCLE)]
        t0 = time.perf_counter()
        cycles.append(runner.cycle(cmds, references=True))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    runner.check(cmds, cycles)
    all_runs = [r for cycle in cycles for r in cycle]
    ref_wall = [wall for wall, _ in runner.references]
    times_s = {
        "wall_s": statistics.mean(sum(r.wall_s for r in c) for c in cycles),
        "cmd_gmean_s": statistics.geometric_mean(r.wall_s for r in all_runs),
        "cpu_s": statistics.mean(sum(r.cpu_s for r in c) for c in cycles),
        "reference_wall_s": statistics.mean(ref_wall),
        "reference_wall_gmean_s": statistics.geometric_mean(ref_wall),
        "reference_cpu_s": statistics.mean(
            cpu for _, cpu in runner.references),
    }
    # Means over means, geometric means over geometric means.
    metrics = {
        "wall_ref": times_s["wall_s"] / times_s["reference_wall_s"],
        "cmd_gmean_ref": (times_s["cmd_gmean_s"]
                          / times_s["reference_wall_gmean_s"]),
        "cpu_ref": times_s["cpu_s"] / times_s["reference_cpu_s"],
        "peak_rss_mb": max(r.maxrss_mb for r in all_runs),
        "setup_s": statistics.median(setup),
    }
    details = {"end_to_end_s": times_s, "setup_samples_s": setup,
               "reference_samples_s": runner.references}
    return metrics, cycles, details


def trace(runner: Runner, cmds, work: Path):
    """One untraced and one traced cycle; returns (per-layer metrics,
    [untraced, traced] cycles, per-command tracer summaries)."""
    plain = runner.cycle(cmds)
    runner.check(cmds, [plain])
    traced_dir = work / "traced"
    traced_dir.mkdir(parents=True, exist_ok=True)
    traced = runner.cycle(cmds, traced_dir)
    runner.check(cmds, [traced])
    for p, t in zip(plain, traced):
        if p.sha256 != t.sha256:
            t.errors.append("traced stdout differs from untraced")
    summaries = [json.loads((traced_dir / f"{i:02d}.json").read_text())
                 for i in range(len(cmds))]
    for cmd, s in zip(cmds, summaries):
        s["command"] = cmd.name
    metrics = layers.per_layer_metrics(summaries)
    metrics["trace_overhead"] = (sum(r.wall_s for r in traced)
                                 / sum(r.wall_s for r in plain))
    return metrics, [plain, traced], summaries


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    corpus_dir = root / "src" / "infkit" / "corpus"
    if not (root / "src" / "infkit" / "cli.py").is_file() \
            or not (corpus_dir / "manifest.json").is_file():
        print(f"perfbench: no infkit sources under {root / 'src'}",
              file=sys.stderr)
        return 2

    state = root / ".perfbench"
    work = state / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cmds = workloads.generate(args.workload, args.seed, corpus_dir,
                                  work / "in")
        with Runner(root, work) as runner:
            runner.setup_sample()       # fills the bytecode cache
            if args.trace:
                values, cycles, summaries = trace(runner, cmds, work)
                units = {m["name"]: m["unit"] for m in layers.PER_LAYER}
                details = {}
            else:
                values, cycles, details = measure(runner, cmds, args.seconds)
                units = END_TO_END_UNITS
                summaries = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, probe_failed, errors = _tally(cmds, cycles)
    if args.trace:
        values["contract_probes.failed"] = len(probe_failed)
    for line in errors:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if probe_failed:
        print(f"perfbench: {len(probe_failed)} contract probe(s) fail "
              f"(known defects): {', '.join(probe_failed)}", file=sys.stderr)

    _write_results(state / "results", args, values, cmds, cycles, details,
                   summaries, attempted, failed, probe_failed, errors)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def _write_results(dest: Path, args, values, cmds, cycles, details, summaries,
                   attempted, failed, probe_failed, errors) -> None:
    dest.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "metrics": values,
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "contract_probes_failed": probe_failed,
        "errors": errors,
        **details,
        "cycles": [[{"name": r.name, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                     "maxrss_mb": r.maxrss_mb, "exit": r.exit,
                     "sha256": r.sha256, "errors": r.errors}
                    for r in cycle] for cycle in cycles],
        "layers": summaries,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (dest / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
