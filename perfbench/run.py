"""Benchmark of the epinet command-line tool, run as a user runs it.

    python3 perfbench/run.py --workload pipeline-300 --seed 1 --seconds 20 --trace 0

Builds the workload's input from ``--seed``, then runs whole rounds of one
CLI command, each in a fresh process with a fresh output directory, until
``--seconds`` have passed and at least ``MIN_ROUNDS`` commands have run.
Every command's outputs are checked against values computed apart from the
program (``checks.py``).

``--trace 0`` reports the end-to-end metrics (wall, CPU, peak RSS of the
command's own process, and the median interpreter-plus-import time).
``--trace 1`` runs each round twice, untraced and through ``trace_cli.py``,
and reports per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import CheckError, Expected
from inputs import make_inputs
from trace_cli import LAYER_OF, ROOT_SPAN

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = {"pipeline-300": "pipeline", "grid-300": "grid"}
# A grid-300 command takes about as long as a whole run; without a minimum
# many runs would report the figures of a single command.
MIN_ROUNDS = 2
# The host's speed drifts over seconds, so set-up is timed by launches spread
# over the whole run: this many before each command, and at the end as many
# more as it takes to reach the minimum. setup_s is their median.
SETUP_PER_ROUND = 2
SETUP_MIN = 9
SETUP_ARGV = [sys.executable, "-c", "import epinet.cli"]


class Run:
    """Counts and samples of one benchmark run."""

    def __init__(self, command: str, expected, work: Path, launch: Launcher):
        self.command = command
        self.launch = launch
        self.expected = expected
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples: dict[str, list[float]] = {}

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def execute(self, prefix: list[str], csv_path: Path, inspect=None) -> tuple[float, float, float] | None:
        """Run one CLI command into a fresh output directory, check its
        outputs, pass the directory to ``inspect`` and remove it.

        Returns wall s, CPU s and peak RSS MB of the command's process, or
        None when the command exited non-zero or an output check failed; a
        failed command is counted in ``failed`` and also clears ``correct``.
        """
        out = self.work / "out"
        self.attempted += 1
        argv = prefix + [self.command, "--input", str(csv_path), "--out", str(out)]
        wall, cpu, rss, code = self.launch(argv)
        try:
            if code != 0:
                raise CheckError(f"exited {code}")
            self.expected.check(self.command, out)
            if inspect is not None:
                inspect(out)
        except Exception as exc:  # malformed output raises more than CheckError
            print(f"perfbench: {self.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return wall, cpu, rss

    def result(self, units: dict[str, str]) -> dict:
        metrics = {
            name: {"value": statistics.median(values), "unit": units[name]}
            for name, values in self.samples.items()
        }
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


class Launcher:
    """The ``launcher.py`` process, which starts every measured command so
    that each command's peak RSS is its own (see that file)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self, argv: list[str]) -> tuple[float, float, float, int]:
        """Run ``argv`` to its end: wall s, CPU s, peak RSS MB and exit code."""
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit(f"perfbench: launcher exited {self.proc.wait()}")
        wall, cpu, rss, code = json.loads(reply)
        return wall, cpu, rss, code

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def measure_setup(run: Run, launches: int) -> None:
    for _ in range(launches):
        wall, _, _, code = run.launch(SETUP_ARGV)
        if code != 0:
            raise SystemExit(f"perfbench: importing epinet.cli exited {code}")
        run.add("setup_s", wall)


def timed_rounds(run: Run, csv_path: Path, seconds: float) -> None:
    cli = [sys.executable, "-m", "epinet.cli"]
    run.launch(SETUP_ARGV)  # writes the bytecode cache that every later command reads
    start = time.perf_counter()
    while True:
        measure_setup(run, SETUP_PER_ROUND)
        sample = run.execute(cli, csv_path)
        if sample is not None:
            for name, value in zip(("wall_s", "cpu_s", "peak_rss_mb"), sample):
                run.add(name, value)
        if run.attempted >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break
    measure_setup(run, SETUP_MIN - len(run.samples["setup_s"]))


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer self times and work counts of one traced command."""
    layer_of = {f"{m}.{f}": layer for (m, f), layer in LAYER_OF.items()}
    layer_of[ROOT_SPAN] = "cli.self_s"
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals = {layer: 0.0 for layer in layer_of.values()}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    for (name, start, end, _, counts), inner in zip(spans, covered):
        totals[layer_of[name]] += end - start - inner
        function = name.split(".")[1]
        calls[function] = calls.get(function, 0) + 1
        for key, value in counts.items():
            if key == "error":
                print(f"perfbench: no work count for {name}: {value}", file=sys.stderr)
                continue
            work[f"{function}.{key}"] = work.get(f"{function}.{key}", 0) + value
    command_s = spans[0][2] - spans[0][1]
    # An identity while every span but the root has a parent: this guards the
    # attribution above, not the program.
    if abs(sum(totals.values()) - command_s) > 1e-6 * command_s:
        raise CheckError("layer self times do not add up to the traced command time")

    def rate(count: int, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    return {
        **totals,
        "ingest.cells_per_s": rate(work.get("parse_cases_csv.cells", 0), totals["ingest.parse_s"]),
        "transform.calls": calls.get("to_exponent_series", 0),
        "netbuild.calls": calls.get("build_network", 0),
        "netbuild.edges": work.get("build_network.edges", 0),
        "netbuild.pairs_per_s": rate(work.get("build_network.pairs", 0), totals["netbuild.build_s"]),
        "community.calls": calls.get("louvain", 0),
        "community.edges_per_s": rate(work.get("louvain.edges", 0), totals["community.louvain_s"]),
        "trace.command_s": command_s,
    }


def traced_rounds(run: Run, csv_path: Path, seconds: float) -> None:
    """Each round runs the command untraced, then traced; the difference of
    the two walls' medians is the tracing overhead."""
    cli = [sys.executable, "-m", "epinet.cli"]
    trace_path = run.work / "trace.json"
    traced = [sys.executable, str(BENCH / "trace_cli.py"), str(trace_path)]

    def record(out: Path) -> None:
        trace = json.loads(trace_path.read_text())
        if trace["absent"]:
            print(f"perfbench: absent from epinet: {trace['absent']}", file=sys.stderr)
        for name, value in layer_metrics(trace).items():
            run.add(name, value)
        run.add("cli.bytes_written", sum(f.stat().st_size for f in out.iterdir()))

    plain_walls, traced_walls = [], []
    start = time.perf_counter()
    while True:
        for argv, inspect, walls in ((cli, None, plain_walls), (traced, record, traced_walls)):
            sample = run.execute(argv, csv_path, inspect=inspect)
            if sample is not None:
                walls.append(sample[0])
        if time.perf_counter() - start >= seconds:
            break
    if plain_walls and traced_walls:
        run.add("trace.overhead_s", statistics.median(traced_walls) - statistics.median(plain_walls))


def main() -> int:
    parser = argparse.ArgumentParser(description="epinet CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "epinet" / "cli.py").is_file():
        print(f"perfbench: no epinet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    launch = Launcher()
    try:
        inputs = make_inputs(args.workload, args.seed)
        csv_path = work / "cases.csv"
        csv_path.write_text(inputs.wide_csv())
        run = Run(WORKLOADS[args.workload], Expected(csv_path, inputs.groups), work, launch)
        if args.trace:
            traced_rounds(run, csv_path, args.seconds)
        else:
            timed_rounds(run, csv_path, args.seconds)
    finally:
        launch.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps(run.result(units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
