"""Command-line surface wiring the pipeline stages.

Subcommands: ``pipeline`` (full run), ``grid`` (robustness grid),
``network`` (stop after network construction), ``transform`` (stop after the
exponent transform).  Each command takes the settings it reads, as flags: a
flag it does not read is a usage error.  A flat key=value config file can
supply any setting, and each command reads the ones it takes; command-line
flags win over the file, and EPINET_SEED is the seed fallback of last resort.

Exit codes: 0 success, 2 input/format errors and running out of memory,
3 insufficient structure.  ``run`` is the ``epinet`` script and
``python -m epinet.cli``; ``main`` runs a command in process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import tempfile
from dataclasses import dataclass
from datetime import date, datetime
from enum import Enum
from pathlib import Path

import numpy as np

from . import analysis, community, ingest, netbuild, transform
from .errors import (
    CsvFormatError,
    CsvParseError,
    DateRangeError,
    DuplicateKeyError,
    InsufficientDataError,
    InsufficientStructureError,
    ParameterError,
)
from .netbuild import SimilarityMeasure

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STRUCTURE = 3

INPUT_ERRORS = (
    OSError,
    CsvFormatError,
    CsvParseError,
    DuplicateKeyError,
    DateRangeError,
    ParameterError,
)
STRUCTURE_ERRORS = (InsufficientDataError, InsufficientStructureError)


def _parse_date(text: str) -> date:
    return datetime.strptime(text, "%Y-%m-%d").date()


def _parse_count(text: str) -> int:
    count = int(text)
    if abs(count) > ingest.MAX_COUNT:  # the bound of the CSV's counts
        raise ValueError(text)
    return count


# Every run setting, keyed by its name in the config file, in RunConfig and in
# summary.json: the conversion from text and the help text.  The flag is the
# key with "-" for "_".  A command takes COMMON_SETTINGS and those that
# COMMANDS names for it.
SETTINGS = {
    "input": (Path, "wide-format cumulative case CSV"),
    "out": (Path, "output directory (default out)"),
    "start": (_parse_date, "analysis start date, ISO (default 2020-01-22)"),
    "end": (_parse_date, "analysis end date, ISO (default 2022-05-29)"),
    "min_cases": (_parse_count, "cumulative case threshold for selection (default 100000)"),
    "alpha": (float, "exponent clipping bound (default 7)"),
    "rho": (float, "edge threshold (default 0)"),
    "measure": (SimilarityMeasure, "similarity measure, pearson or cosine (default pearson)"),
    "seed": (int, "community detection seed (default 0)"),
}
COMMON_SETTINGS = ("input", "out", "start", "end", "min_cases")


@dataclass
class RunConfig:
    input: Path
    out: Path = Path("out")
    start: date = ingest.DEFAULT_START
    end: date = ingest.DEFAULT_END
    min_cases: int = ingest.DEFAULT_MIN_CUMULATIVE
    alpha: float = transform.DEFAULT_ALPHA
    rho: float = 0.0
    measure: SimilarityMeasure = SimilarityMeasure.PEARSON
    seed: int = 0

    def as_dict(self, keys) -> dict:
        return {key: _plain(getattr(self, key)) for key in keys}


def _plain(value):
    """The JSON form of a setting: dates in ISO, paths and the measure as
    text, and a number that is not finite as the text its flag takes ("inf",
    "-inf", "nan"), since JSON has no infinity or NaN."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (date, Path)) or isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def read_config_file(path: Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file; '#' starts a comment.  A key
    that is not one of SETTINGS raises ParameterError."""
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading byte order mark is no text
    except UnicodeDecodeError:
        raise ParameterError(f"{path}: config file is not UTF-8 text") from None
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{line_no}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise ParameterError(
                f"{path}:{line_no}: unknown setting {key!r}; settings are {', '.join(SETTINGS)}"
            )
        values[key] = value.strip()
    return values


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParameterError (exit 2 with
    the JSON error line); subparsers are built from the same class."""

    def error(self, message):
        if message.endswith("expected one argument"):
            # argparse takes a value such as -1e-3 for a flag
            message += "; write a negative value as --flag=value (e.g. --rho=-1e-3)"
        raise ParameterError(message)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epinet",
        description="Epidemic case-count correlation-network community analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command, _) in COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", help="flat key=value config file")
        for key in command_settings(name):
            p.add_argument(_flag(key), help=SETTINGS[key][1])
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Each setting that ``args.command`` takes from its flag, else the config
    file, else (seed only) EPINET_SEED, else the RunConfig default."""
    filevals = read_config_file(Path(args.config)) if args.config else {}
    env = {"seed": os.environ.get("EPINET_SEED") or None}
    values = {}
    for key in command_settings(args.command):
        parse = SETTINGS[key][0]
        sources = (
            (getattr(args, key), _flag(key)),
            (filevals.get(key), f"{args.config}: {key}"),
            (env.get(key), "EPINET_SEED"),
        )
        text, origin = next(((t, o) for t, o in sources if t is not None), (None, None))
        if text is None:
            continue
        try:
            values[key] = parse(text)
        except ValueError:
            raise ParameterError(f"{origin}: invalid value {text!r}") from None
    if "input" not in values:
        raise ParameterError("no input file given (use --input or the config file)")
    return RunConfig(**values)


def load_cases(config: RunConfig) -> ingest.Panel:
    if config.start > config.end:
        raise DateRangeError(f"start {config.start} after end {config.end}")
    panel = ingest.parse_cases_csv(config.input.read_bytes())
    if not len(panel):
        raise InsufficientDataError("input contains no data rows")
    panel = ingest.restrict_date_range(panel, config.start, config.end)
    selected = ingest.select_regions(panel, min_cumulative=config.min_cases)
    if not len(selected):
        raise InsufficientDataError(
            f"no region passes the selection filter (min_cases={config.min_cases})"
        )
    return selected


# A command returns its output files as {file name: writer(stream)} and the
# entries it adds to summary.json; main writes them all.


def _json(payload: dict):
    def write(fh) -> None:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return write


def cmd_transform(config: RunConfig) -> tuple[dict, dict]:
    """stop after the exponent transform (exponents.csv)"""
    cases = load_cases(config)
    exps = transform.to_exponent_series(cases, alpha=config.alpha)
    files = {
        "selected.csv": lambda fh: ingest.write_long_csv(cases, fh),
        "exponents.csv": lambda fh: transform.write_exponents_csv(cases, exps, fh),
    }
    return files, {"regions": len(exps)}


def _build(config: RunConfig):
    # no reference to the cases here: they go once transformed
    exps = transform.to_exponent_series(load_cases(config), alpha=config.alpha)
    net = netbuild.build_network(exps, rho=config.rho, measure=config.measure)
    return exps, net


def _network_files(net) -> dict:
    return {
        "edges.csv": lambda fh: netbuild.write_edge_csv(net, fh),
        "network.graphml": lambda fh: netbuild.write_graphml(net, fh),
    }


def cmd_network(config: RunConfig) -> tuple[dict, dict]:
    """stop after network construction (edges.csv, network.graphml)"""
    _, net = _build(config)
    return _network_files(net), {"nodes": net.n, "edges": len(net.weight)}


def cmd_pipeline(config: RunConfig) -> tuple[dict, dict]:
    """full run: ingest -> transform -> network -> communities -> curves"""
    exps, net = _build(config)
    part = community.louvain(net, seed=config.seed)
    dates = exps.dates
    medians = [
        analysis.median_curve(exps, net.rows[part.labels == label])
        for label in range(min(3, part.num_communities))
    ]
    peaks = {
        label: analysis.detect_peaks(dates, values)
        for label, values in enumerate(medians, start=1)
    }
    files = _network_files(net)
    files["partition.csv"] = lambda fh: community.write_partition_csv(net, part, fh)
    files["medians.csv"] = lambda fh: analysis.write_medians_csv(dates, medians, fh)
    files["peaks.csv"] = lambda fh: analysis.write_peaks_csv(peaks, fh)

    # a network with an edge gives every median at least MIN_OVERLAP days, as
    # many as the spline needs, so three medians always make a trajectory
    traj = analysis.build_trajectory(dates, *medians) if len(medians) == 3 else None
    if traj is not None:
        files["trajectory.csv"] = lambda fh: analysis.write_trajectory_csv(traj, fh)
        files["smoothed.csv"] = lambda fh: analysis.write_smoothed_csv(traj, fh)

    settings = analysis.BuildSettings(rho=config.rho, alpha=config.alpha, measure=config.measure)
    return files, {
        "partition": partition_summary(part, settings, config.seed),
        "network": {"nodes": net.n, "edges": len(net.weight)},
        "trajectory_built": traj is not None,
    }


def partition_summary(part: community.Partition, settings: analysis.BuildSettings,
                      seed: int) -> dict:
    """The summary.json entry of a partition found by ``louvain`` at ``seed``
    on the network of ``settings``."""
    return {
        "modularity": float(netbuild.fmt9(part.modularity)),
        "community_sizes": np.bincount(part.labels).tolist(),
        "settings_fingerprint": {
            "rho": _plain(settings.rho),
            "alpha": _plain(settings.alpha),
            "measure": settings.measure.value,
            "seed": seed,
            "resolution": 1.0,
        },
    }


def cmd_grid(config: RunConfig) -> tuple[dict, dict]:
    """robustness grid over rho x alpha x similarity measure"""
    # no reference to the cases here: run_grid frees them after its transform
    cells = analysis.run_grid(load_cases(config), config.seed)
    errors = {c.settings.label(): c.error for c in cells if c.error is not None}
    summaries = {
        c.settings.label(): partition_summary(c.partition, c.settings, config.seed)
        for c in cells
        if c.partition is not None
    }
    matrix = analysis.order_rows(analysis.align_labels(cells))
    files = {
        "grid_errors.json": _json(errors),
        "grid_cells.json": _json(summaries),
        "membership_matrix.csv": lambda fh: analysis.write_membership_csv(matrix, fh),
    }
    return files, {"cells": len(cells), "errors": len(errors)}


# Each command and the settings it takes beyond COMMON_SETTINGS: those it reads
COMMANDS = {
    "pipeline": (cmd_pipeline, ("alpha", "rho", "measure", "seed")),
    "grid": (cmd_grid, ("seed",)),
    "network": (cmd_network, ("alpha", "rho", "measure")),
    "transform": (cmd_transform, ("alpha",)),
}


def command_settings(name: str) -> list[str]:
    """The settings that command ``name`` takes, in SETTINGS order: its flags,
    and the ``config`` entries of its summary.json."""
    takes = COMMON_SETTINGS + COMMANDS[name][1]
    return [key for key in SETTINGS if key in takes]


# Every file name a command writes.  An existing --out is replaced as a whole,
# so one holding anything else is refused rather than deleted.
OUTPUT_FILES = frozenset({
    "summary.json",
    "selected.csv", "exponents.csv",
    "edges.csv", "network.graphml",
    "partition.csv", "medians.csv", "peaks.csv", "trajectory.csv", "smoothed.csv",
    "grid_errors.json", "grid_cells.json", "membership_matrix.csv",
})


def _write_outputs(out: Path, files: dict) -> None:
    """Write ``files`` into a new directory beside ``out``, then swap it in
    for ``out``.  Until the swap ``out`` keeps its earlier contents, and a
    failure at any point, a KeyboardInterrupt or SIGTERM under ``run``
    included, leaves ``out`` as it was or absent, never half-written, and no
    temporary directory.

    An existing ``out`` must be a directory holding only OUTPUT_FILES.
    """
    if out.exists() and not (out.is_dir() and {p.name for p in out.iterdir()} <= OUTPUT_FILES):
        raise ParameterError(f"--out {out} holds files that epinet does not write")
    out.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=out.parent))
    try:
        new = work / "new"
        new.mkdir()
        for name, write in files.items():
            with (new / name).open("w", encoding="utf-8", newline="") as fh:
                write(fh)
        if out.exists():
            out.rename(work / "old")
        new.rename(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    """Run one command, then write its files and summary.json into ``--out``:
    nothing else touches that directory, so a failed command leaves it as it
    was."""
    try:
        args = build_parser().parse_args(argv)
        config = resolve_config(args)
        files, summary = COMMANDS[args.command][0](config)
        settings = command_settings(args.command)
        files["summary.json"] = _json({"config": config.as_dict(settings), **summary})
        _write_outputs(config.out, files)
        return EXIT_OK
    except INPUT_ERRORS as exc:
        _report_error(exc)
        return EXIT_INPUT
    except STRUCTURE_ERRORS as exc:
        _report_error(exc)
        return EXIT_STRUCTURE
    except MemoryError as exc:
        # numpy raises a subclass of its own; Python's own has no message
        _report_error(MemoryError(str(exc) or "out of memory"))
        return EXIT_INPUT


class _Terminated(BaseException):
    """SIGTERM, raised in ``run`` so that the command unwinds as on
    KeyboardInterrupt, and no ``except Exception`` stops it."""


def _terminated(signum, frame) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # a second one would cut the clean-up short
    raise _Terminated


def run() -> None:
    """The ``epinet`` command: ``main``, then, once standard output and error
    are flushed, ``os._exit`` with its code, which skips the interpreter's
    teardown and ``atexit`` handlers.  A reader of standard output that has
    gone changes neither the exit code nor standard error; an exception that
    escapes ``main`` ends the process as usual, with a traceback and exit 1.
    SIGTERM unwinds ``main``, so that it leaves no temporary directory and no
    child, then ends the process by SIGTERM, as its default action would.
    """
    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # started with the descriptor closed
            continue
        try:
            stream.flush()
        except BrokenPipeError:  # nobody reads it any more
            pass
    os._exit(code)


def _report_error(exc: Exception) -> None:
    print(f"epinet: error: {exc}", file=sys.stderr)
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
    try:
        print(line, file=sys.stdout, flush=True)
    except BrokenPipeError:
        # Nobody reads standard output any more.  Point it at devnull, so that
        # the interpreter's flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    run()
