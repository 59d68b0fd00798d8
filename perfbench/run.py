"""Benchmark of the ``affrep`` CLI: end-to-end metrics, or per-layer ones when traced.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 30 --trace 0

Each pass runs a workload's command list once in a fresh interpreter that
imports ``affrep`` from ``src/`` of this checkout (pure Python, nothing to
build).  Every command's output is checked by :mod:`checker`, which never
calls ``affrep``.  Passes repeat, closed loop and one at a time, while
another one fits in ``--seconds``, so a run ends within ``--seconds``
(unless a run of at least three passes needs longer).

``--trace 0`` prints the end-to-end metrics: ``wall_s``, ``setup_s`` and
``peak_rss_mb`` as medians over passes (``setup_s`` also over extra
set-up-only processes).  The times are CPU seconds scaled to the speed of
a reference host by :mod:`hostspeed`, whose probe shares the one core that
every pass and set-up process of the run is pinned to; the unscaled wall
times are printed and recorded beside them.  ``--trace 1`` alternates
untraced and traced passes, leaving room for one spot pass at the end,
and prints the per-layer metrics of :mod:`layers`.  ``error_rate``
(failed / attempted commands) is printed with the metrics and carried by
the result's ``failed`` and ``attempted``.  The last line of stdout is the JSON result;
the exit status is 0 exactly when every command succeeded and checked out.
Spans and a full record with the environment go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import layers
from checker import Checker, GoldenError, load_golden
from workloads import SPOT_COMMANDS, THREADS_ENV, WORKLOADS, child_env, plan_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

MIN_PASSES = 3  # per end-to-end run
SETUPS_PER_PASS = 3  # set-up-only processes after each pass, on top of the pass's own
SPOT_RESERVE_S = 6.0  # left at the end of a traced run for its spot pass
RUN_LIMIT_S = 170.0  # no pass starts that would end the run past this


class PassFailed(RuntimeError):
    """A pass process crashed, timed out or printed no report."""


class Runner:
    """Starts pass processes, checks their commands and tallies failures."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def child(self, mode: str, commands=(), spans: Path | None = None) -> dict:
        spec = {
            "mode": mode,
            "commands": [list(c) for c in commands],
            "spans": str(spans) if spans else None,
        }
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(CHILD), str(ROOT)],
                input=json.dumps(spec),
                capture_output=True,
                text=True,
                env=child_env(),
                cwd=ROOT,
                timeout=max(5.0, RUN_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            raise PassFailed(f"{mode} pass timed out") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise PassFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        if not report["affrep"].startswith(str(ROOT / "src") + os.sep):
            raise PassFailed(f"imported affrep from {report['affrep']}, not from this checkout")
        report["spawn"] = t_spawn
        report["setup_s"] = report["ready"] - t_spawn
        return report

    def run_pass(self, mode: str, commands, spans: Path | None = None) -> dict:
        report = self.child(mode, commands, spans)
        self.check(report)
        return report

    def check(self, report: dict) -> None:
        """Tally and check every command of a pass report."""
        for result in report["commands"]:
            problems = self.checker.problems(
                result["argv"], result["rc"], result["stdout"], result["error"]
            )
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{' '.join(result['argv'])}: {'; '.join(problems)}")
        report["stdout_bytes"] = sum(len(r["stdout"].encode()) for r in report["commands"])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted

    def repeat(self, modes, workload, seed, until_s, min_rounds, spans=None, setups=0) -> dict:
        """Rounds of one pass per mode, in turn, each followed by ``setups``
        set-up-only processes, while another round like the last would end
        within ``until_s`` seconds of the run, and for at least ``min_rounds``
        rounds; returns mode -> passes, and "setup" -> set-up reports."""
        passes: dict[str, list[dict]] = {mode: [] for mode in modes}
        passes["setup"] = []
        rounds = 0
        while True:
            started = self.elapsed()
            for mode in modes:
                plan = plan_pass(workload, seed, rounds * len(modes) + modes.index(mode))
                passes[mode].append(self.run_pass(mode, plan, spans))
            passes["setup"] += [self.child("setup") for _ in range(setups)]
            rounds += 1
            took = self.elapsed() - started
            if self.elapsed() + took > RUN_LIMIT_S - 15.0:
                return passes
            if rounds >= min_rounds and self.elapsed() + took > until_s:
                return passes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    threads = os.environ.get(THREADS_ENV)
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        THREADS_ENV: "removed from the pass environment"
        + (f" (was {threads!r})" if threads is not None else " (was not set)"),
    }


def end_to_end(runner: Runner, args) -> tuple[dict, dict]:
    # every process of the run shares one core with the host-speed probe
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-1:])
    with hostspeed.Probe(ROOT) as probe:
        runner.child("setup")  # fills the bytecode cache; users pay that once per install
        runs = runner.repeat(
            ("plain",), args.workload, args.seed, args.seconds, MIN_PASSES, setups=SETUPS_PER_PASS
        )
    if not probe.samples:
        raise PassFailed(f"host-speed probe exited {probe.proc.returncode} with no samples")
    passes, setups = runs["plain"], runs["plain"] + runs["setup"]
    samples = {
        "wall_s": [p["pass_cpu_s"] * probe.speed(p["start"], p["end"]) for p in passes],
        "setup_s": [p["ready_cpu"] * probe.speed(p["spawn"], p["ready"]) for p in setups],
        "peak_rss_mb": [p["rss_kb"] * 1024 / 1e6 for p in passes],
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: (statistics.median(v), units[k]) for k, v in samples.items()}
    samples.update(
        unscaled_wall_s=[p["wall_s"] for p in passes],
        unscaled_setup_s=[p["setup_s"] for p in setups],
        host_speed=[probe.speed(p["start"], p["end"]) for p in passes],
        probe_samples=len(probe.samples),
    )
    return metrics, samples


def per_layer(runner: Runner, args) -> tuple[dict, dict]:
    runner.child("setup")
    # untraced and traced passes alternate, so the overhead ratio compares like with like
    spans = OUT_DIR / f"{args.workload}.spans"
    until = args.seconds - SPOT_RESERVE_S
    runs = runner.repeat(("plain", "trace"), args.workload, args.seed, until, 1, spans)
    plain, traced = runs["plain"], runs["trace"]
    spot = runner.run_pass("spot", SPOT_COMMANDS)
    rows = [layers.pass_layers(p) for p in traced]
    samples = {name: [r[name] for r in rows] for name in rows[0]}
    for name, unit in layers.PER_LAYER:
        if unit != "s" and name in samples and len(set(samples[name])) > 1:
            runner.problems.append(f"note: {name} differs between traced passes: {samples[name]}")
    samples["cli.stdout_bytes"] = [p["stdout_bytes"] for p in traced]
    samples["proc.cpu_s"] = [p["cpu_s"] for p in plain]
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    samples["trace.overhead_ratio"] = [traced_wall / statistics.median(p["wall_s"] for p in plain)]
    for name in layers.SPOT_METRICS:
        samples[name] = [spot["marks"].get(name, 0.0)]
    missing = {m for p in traced + [spot] for m in p["missing"]}
    runner.problems += [f"note: not traced: {m}" for m in sorted(missing)]
    # counts report a value that occurred, so an even number of passes cannot yield x.5
    pick = {"s": statistics.median}
    return {
        name: (pick.get(unit, statistics.median_low)(samples[name]), unit)
        for name, unit in layers.PER_LAYER
    }, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "affrep" / "cli.py").is_file():
        print(f"perfbench: no affrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        checker = Checker(load_golden(ROOT))
    except GoldenError as exc:
        checker = Checker(None, str(exc))
    runner = Runner(checker)
    env = environment(args)  # before end_to_end pins the run to one core
    try:
        metrics, samples = (per_layer if args.trace else end_to_end)(runner, args)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    error_rate = runner.error_rate
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} {runner.elapsed():.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:>16.6g} {unit:6} median of {len(samples[name])}")
    for name in ("unscaled_wall_s", "unscaled_setup_s", "host_speed"):
        if name in samples:
            value = statistics.median(samples[name])
            print(f"  ({name:30} {value:>16.6g} {'':6} median of {len(samples[name])})")
    tally = f"{runner.failed} failed / {runner.attempted} commands"
    print(f"  {'error_rate':32} {error_rate:>16.6g} {'ratio':6} {tally}")
    for line in runner.problems:
        print(f"  {line}", file=sys.stderr)
    print("environment " + json.dumps(env))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, error_rate=error_rate, environment=env, samples=samples)
    record["problems"] = runner.problems
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
