"""Benchmark of the codecloud CLI on seeded, generated Java trees.

    python3 bench/run.py --workload {bodies,vocab,small,all} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere; it uses the ``src`` tree next to this directory and
needs nothing installed.  One closed-loop client runs the workload's command
in a fresh interpreter, one invocation at a time, for S seconds; the only
other processes are the tool's own extraction pool.  The benchmark removes
``CODECLOUD_NO_PARALLEL`` from its own environment, which the children and
the traced run share, so whether the pool runs stays the tool's own
decision.  ``setup_s`` times fresh interpreters that import
``codecloud.cli`` and load the lexicon, spread evenly over the same run.

Every invocation is checked: its exit code, its output bytes against the
run's first invocation, and that first output against the generator's
ground truth.  An untimed ``cloud --format csv`` before the loop must equal
the truth as well; it also compiles the bytecode and puts the tree in the
page cache.  The benchmark runs unprivileged: it neither drops the page
cache nor pins CPUs, so every timed invocation reads a warm tree.

Times are scaled to a reference host speed.  On a shared 2-vCPU virtual
machine (Intel Xeon, Python 3.11) the speed drifts by 10-25 % over minutes
(identical ``eval`` invocations took 4.0-5.6 s of user CPU), which moved
the medians of identical 30-second runs by as much, and it changes within
seconds.  Each run therefore also times REF_CODE, a fixed job of stdlib
imports and scattered dictionary lookups, in a fresh interpreter right
after every timed invocation and every set-up probe, and multiplies each
sample's wall and CPU time by REF_NOMINAL_S over the time of the probe that
follows it; ``wall_s``, ``cpu_s`` and ``setup_s`` (and so ``kloc_per_s``) are
medians of the scaled samples.  Pairing each sample with its own probe
took out more of the drift than scaling by the run's reference median.
The program's own unscaled medians, the reference median and the median
scale factor are printed as a JSON object on the line before the result.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced in-process run (``traced.py``).  The last line of
standard output is one JSON object; the lines before it are for people.
``--workload all`` runs every workload and prints one row each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import corpora
import traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 11
SETUP_CODE = "import codecloud.cli; codecloud.load_lexicon()"

#: The host-speed reference: a fixed job of stdlib imports and scattered
#: dictionary lookups, in the kind of fresh interpreter the tool runs in.
#: Each sample is scaled by REF_NOMINAL_S / (the wall time of the probe run
#: right after it).  REF_NOMINAL_S is a round figure inside the range of the
#: probe's per-run medians, 0.25-0.43 s, over runs of all three workloads on
#: the 2-vCPU Intel Xeon virtual machine (Python 3.11) the benchmark was
#: written on, so scaled times read as seconds on that host at a typical
#: speed.  The reference is one process; the same scaling is also applied
#: to ``bodies`` and ``small``, whose pool uses the second vCPU, so
#: contention for that vCPU alone is not corrected on those workloads.
REF_CODE = (
    "import argparse, csv, json, re, dataclasses, enum, logging, pathlib, unicodedata, "
    "concurrent.futures, xml.sax.saxutils, importlib.resources, random; "
    "keys = list(range(100000)); random.Random(1).shuffle(keys); "
    "table = {k: [k] for k in keys}; total = sum(table[k][0] for k in keys)"
)
REF_NOMINAL_S = 0.3

END_TO_END_UNITS = {
    "wall_s": "s",
    "kloc_per_s": "KLOC/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Sample:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


#: Spawns and reaps the timed commands.  Linux records a process's peak RSS
#: at exec from the address space the exec replaces, so a child spawned by
#: this benchmark process would report at least the benchmark's own peak;
#: children of this bare interpreter report their own.
LAUNCHER = """
import os, sys, time
null = os.open(os.devnull, os.O_RDONLY)
for line in sys.stdin:
    out, err, *argv = line.rstrip("\\n").split("\\0")
    fds = [os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) for path in (out, err)]
    actions = [(os.POSIX_SPAWN_DUP2, fd, n) for n, fd in enumerate([null, *fds])]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    for fd in fds:
        os.close(fd)
    print(os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
          usage.ru_maxrss, flush=True)
"""


class Runner:
    """Runs ``python <args>`` in fresh interpreters, one at a time.

    Each child's wall time, its CPU time with that of the pool workers it
    reaped, and its peak RSS come from the launcher's ``wait4``.
    """

    def __init__(self, work: Path):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.stdout = work / "stdout"
        self.stderr = work / "stderr"
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", "-c", LAUNCHER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def __call__(self, args) -> Sample:
        fields = [str(self.stdout), str(self.stderr), sys.executable, *args]
        if any("\n" in field or "\0" in field for field in fields):
            raise ValueError("command arguments may not contain newlines or NULs")
        self._launcher.stdin.write("\0".join(fields) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline().split()
        if len(reply) != 4:
            raise RuntimeError("the launcher exited")
        return Sample(int(reply[0]), float(reply[1]), float(reply[2]), int(reply[3]) / 1024)

    def output(self) -> bytes:
        return self.stdout.read_bytes()

    def errors(self) -> str:
        return self.stderr.read_text(encoding="utf-8", errors="replace")


# --- output checks against the ground truth --------------------------------


def _csv_matches(output: bytes, truth: dict[str, int]) -> bool:
    lines = output.decode().splitlines()
    return lines[:1] == ["stem,weight"] and lines[1:] == [f"{s},{w}" for s, w in truth.items()]


def _svg_matches(output: bytes, truth: dict[str, int]) -> bool:
    return re.findall(r">([^<>]*)</text>", output.decode()) == list(truth)


def _html_matches(output: bytes, truth: dict[str, int]) -> bool:
    pairs = re.findall(r">([^<>]*)</span> <span[^>]*>\[(\d+)\]</span>", output.decode())
    return pairs == [(stem, str(weight)) for stem, weight in truth.items()]


def _eval_matches(output: bytes, truth: dict[str, int]) -> bool:
    report = json.loads(output)
    freqs = [(row["stem"], row["cloudFreq"]) for row in report["rows"]]
    return report["allPerfect"] is True and freqs == list(truth.items())


@dataclass(frozen=True)
class Workload:
    generate: Callable  # (root, seed, lexicon) -> corpora.Tree
    command: tuple[str, ...]  # codecloud subcommand; the tree root follows it
    options: tuple[str, ...]
    check: Callable[[bytes, dict[str, int]], bool]


WORKLOADS = {
    "bodies": Workload(corpora.bodies_tree, ("cloud",), ("--format", "svg"), _svg_matches),
    "vocab": Workload(corpora.vocab_tree, ("eval",), ("--format", "json"), _eval_matches),
    "small": Workload(partial(corpora.bodies_tree, classes=145), ("cloud",),
                      ("--format", "html", "--show-freq"), _html_matches),
}


def command_args(workload: Workload, root: Path) -> list[str]:
    return ["-m", "codecloud", *workload.command, str(root), *workload.options]


# --- measurement ------------------------------------------------------------


@dataclass
class Measurement:
    """Timed samples, each paired with the reference probe run right after it."""

    samples: list[tuple[Sample, Sample]]
    failed: int
    setup: list[tuple[Sample, Sample]]

    def unscaled(self) -> dict[str, float]:
        """The program's own medians, the reference median and the median scale."""
        return {
            "wall_s": statistics.median(s.wall_s for s, _ in self.samples),
            "cpu_s": statistics.median(s.cpu_s for s, _ in self.samples),
            "setup_s": statistics.median(s.wall_s for s, _ in self.setup),
            "reference_s": statistics.median(r.wall_s for _, r in self.samples + self.setup),
            "scale": statistics.median(REF_NOMINAL_S / r.wall_s for _, r in self.samples),
        }

    def metrics(self, lines: int) -> dict[str, float]:
        """End-to-end metrics, times scaled to the reference host speed."""
        wall = _scaled(self.samples, "wall_s")
        return {
            "wall_s": wall,
            "kloc_per_s": lines / 1000 / wall,
            "cpu_s": _scaled(self.samples, "cpu_s"),
            "peak_rss_mb": statistics.median(s.rss_mb for s, _ in self.samples),
            "setup_s": _scaled(self.setup, "wall_s"),
        }

    def tail(self) -> str:
        """The highest percentile with at least ten samples beyond it."""
        walls = sorted(s.wall_s for s, _ in self.samples)
        n = len(walls)
        if n < 11:
            return f"no percentile has 10 samples beyond it (n={n})"
        return f"p{100 * (n - 10) / n:.0f}={walls[n - 11]:.4f} s (n={n})"


def _scaled(pairs: list[tuple[Sample, Sample]], field: str) -> float:
    """Median of ``field``, each value scaled by the reference probe after it."""
    return statistics.median(getattr(s, field) * REF_NOMINAL_S / ref.wall_s for s, ref in pairs)


def truth_check(runner: Runner, workload: Workload, tree: corpora.Tree) -> bool:
    """Untimed ``cloud --format csv`` of the tree, compared with the truth."""
    sample = runner(["-m", "codecloud", "cloud", str(tree.root), "--format", "csv"])
    return sample.exit_code == 0 and _csv_matches(runner.output(), tree.truth)


def measure(runner: Runner, workload: Workload, tree: corpora.Tree, seconds: float) -> Measurement:
    """The closed loop, with set-up probes spread evenly over it.

    A reference probe follows every invocation and every set-up probe.

    An invocation fails on a nonzero exit code, on output bytes that differ
    from the first invocation's, or when the tool's output disagrees with
    the truth (the untimed csv, or the first output in its own format), in
    which case every invocation failed.
    """
    truth_ok = truth_check(runner, workload, tree)
    command = command_args(workload, tree.root)
    samples: list[tuple[Sample, Sample]] = []
    setup: list[tuple[Sample, Sample]] = []
    failed = 0
    first = None
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < seconds:
        sample = runner(command)
        output = runner.output()
        if first is None:
            first = output
            truth_ok = truth_ok and sample.exit_code == 0 and workload.check(output, tree.truth)
        if sample.exit_code != 0 or output != first or not truth_ok:
            failed += 1
            if sample.exit_code != 0:
                print(runner.errors()[-2000:], file=sys.stderr)
        samples.append((sample, runner(["-c", REF_CODE])))
        done = (time.perf_counter() - started) / seconds if seconds > 0 else 1
        while len(setup) < min(1, done) * SETUP_SAMPLES:
            setup.append((runner(["-c", SETUP_CODE]), runner(["-c", REF_CODE])))
    while len(setup) < SETUP_SAMPLES:
        setup.append((runner(["-c", SETUP_CODE]), runner(["-c", REF_CODE])))
    return Measurement(samples, failed, setup)


def environment(tree: corpora.Tree, command: list[str]) -> dict:
    src_lines = sum(p.read_text(encoding="utf-8").count("\n")
                    for p in (SRC / "codecloud").glob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_codecloud_lines": src_lines,
        "command": " ".join(["codecloud", *command[2:]]),
        "tree": tree.identity(),
        "child_env": "CODECLOUD_NO_PARALLEL removed; PYTHONPATH=src",
        "limits": "page cache not dropped (tree warm after the untimed first "
                  "invocation); no CPU pinning",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload; returns the result object of the last output line."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        lexicon = corpora.read_lexicon(SRC / "codecloud" / "data")
        started = time.perf_counter()
        tree = workload.generate(work / "tree", seed, lexicon)
        generate_s = time.perf_counter() - started
        with Runner(work) as runner:
            command = command_args(workload, tree.root)
            print(f"{name}: environment {json.dumps(environment(tree, command), sort_keys=True)}")
            print(f"{name}: generated in {generate_s:.2f} s")
            if trace:
                correct = truth_check(runner, workload, tree)
                report = traced.run(name, runner, SRC, command, tree, seconds,
                                    WORK / f"trace-{name}-{seed}.json")
                correct = correct and report["correct"]
                return {"correct": correct, "attempted": report["attempted"],
                        "failed": report["attempted"] if not correct else 0,
                        "metrics": report["metrics"]}
            result = measure(runner, workload, tree, seconds)
            values = result.metrics(tree.lines)
            attempted = len(result.samples)
            print(f"{name}: unscaled {json.dumps(result.unscaled(), sort_keys=True)}")
            print(f"{name}: wall_s unscaled {result.tail()}; "
                  f"{tree.lines / 1000:.1f} KLOC, fail_frac {result.failed / attempted:.4f}")
            probes = [r for _, r in result.samples] + [p for pair in result.setup for p in pair]
            return {
                "correct": result.failed == 0 and all(p.exit_code == 0 for p in probes),
                "attempted": attempted,
                "failed": result.failed,
                "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_table(rows: dict[str, dict]) -> None:
    columns = list(END_TO_END_UNITS) + ["fail_frac"]
    header = ["workload"] + [f"{c} ({END_TO_END_UNITS.get(c, 'ratio')})" for c in columns]
    table = [header]
    for name, result in rows.items():
        values = {k: v["value"] for k, v in result["metrics"].items()}
        values["fail_frac"] = result["failed"] / result["attempted"]
        table.append([name] + [f"{values[c]:.4f}" for c in columns])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("CODECLOUD_NO_PARALLEL", None)
    if not (SRC / "codecloud" / "__init__.py").is_file():
        print(f"bench: no codecloud sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rows = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if not args.trace:
        print_table(rows)
    if len(rows) == 1:
        (result,) = rows.values()
    else:
        result = {
            "correct": all(r["correct"] for r in rows.values()),
            "attempted": sum(r["attempted"] for r in rows.values()),
            "failed": sum(r["failed"] for r in rows.values()),
            "metrics": {f"{name}.{k}": v for name, r in rows.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
