"""Check that two epinet source trees give the same outputs.

    python tests/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding an ``epinet`` package, such as
the ``src`` of two checkouts.  The inputs are made once, with NEW_SRC: the
planted and awkward-names fixtures of ``tests/test_cli.py`` and the seed-1
``pipeline-300`` and ``grid-300`` CSVs of ``perfbench/inputs.py``.  On each
input, ``transform``, ``network``, ``pipeline`` and ``grid`` (in 1 and in 2
processes) run from each tree in a fresh interpreter, with the same input and
output paths.  One line per run reports whether the two trees gave the same
exit code, standard output, standard error and sha256 of every output file;
the script exits 1 if any run differs.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = (("transform", None), ("network", None), ("pipeline", None), ("grid", 1), ("grid", 2))
FIXTURES = ("planted", "awkward")
WORKLOADS = ("pipeline-300", "grid-300")

# Runs the CLI, the grid in the given number of processes
RUN = """import sys
from epinet import analysis, cli
if sys.argv[1] != "-":
    analysis._grid_processes = lambda: int(sys.argv[1])
sys.exit(cli.main(sys.argv[2:]))
"""
MAKE_FIXTURES = """import sys, test_cli
for name in sys.argv[1:]:
    with open(name + ".csv", "w", encoding="utf-8") as fh:
        fh.write(getattr(test_cli, name + "_text")())
"""


def _python(src: Path, args: list, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, [src, ROOT / "tests"])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)


def _checked(done: subprocess.CompletedProcess) -> None:
    if done.returncode:
        sys.exit(f"same_outputs: making the inputs failed:\n{done.stderr.decode()}")


def _outputs(src: Path, tmp: Path, csv: Path, command: str, processes) -> tuple:
    """Exit code, stdout, stderr and {file: sha256} of one run."""
    out = tmp / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["-c", RUN, str(processes or "-"), command, "--input", str(csv), "--out", str(out)]
    done = _python(src, argv, tmp)
    files = {} if not out.is_dir() else {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    return done.returncode, done.stdout, done.stderr, files


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    old, new = (Path(a).resolve() for a in argv)
    for src in (old, new):
        if not (src / "epinet" / "cli.py").is_file():
            sys.exit(f"same_outputs: no epinet package under {src}")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        _checked(_python(new, ["-c", MAKE_FIXTURES, *FIXTURES], tmp))
        for workload in WORKLOADS:
            inputs = ["perfbench/inputs.py", "--workload", workload, "--seed", "1"]
            _checked(_python(new, [*inputs, "--out", str(tmp / f"{workload}.csv")], ROOT))
        for csv in [tmp / f"{name}.csv" for name in (*FIXTURES, *WORKLOADS)]:
            for command, processes in COMMANDS:
                old_run = _outputs(old, tmp, csv, command, processes)
                new_run = _outputs(new, tmp, csv, command, processes)
                what = [part for part, a, b in zip(
                    ("exit code", "stdout", "stderr", "files"), old_run, new_run) if a != b]
                if what == ["files"] and old_run[3].keys() == new_run[3].keys():
                    what = [f for f in old_run[3] if old_run[3][f] != new_run[3][f]]
                run = f"{csv.stem} {command}" + (f", {processes} process(es)" if processes else "")
                files = len(new_run[3])
                print(f"{run}: " + (f"differs in {', '.join(what)}" if what else
                                    f"same exit code {new_run[0]}, output and {files} files"))
                differ += bool(what)
    print(f"{differ} of {len(FIXTURES + WORKLOADS) * len(COMMANDS)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
