"""Command-line surface wiring the pipeline stages.

Subcommands: ``pipeline`` (full run), ``grid`` (robustness grid),
``network`` (stop after network construction), ``transform`` (stop after the
exponent transform).  A flat key=value config file can supply any flag's
value; command-line flags win over the file, and EPINET_SEED is the seed
fallback of last resort.

Exit codes: 0 success, 2 input/format errors, 3 insufficient structure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from datetime import date, datetime
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
from .netbuild import SimilarityMeasure, fmt9

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STRUCTURE = 3

INPUT_ERRORS = (
    FileNotFoundError,
    IsADirectoryError,
    CsvFormatError,
    CsvParseError,
    DuplicateKeyError,
    DateRangeError,
    ParameterError,
)
STRUCTURE_ERRORS = (InsufficientDataError, InsufficientStructureError)


@dataclass
class RunConfig:
    input_path: Path
    output_dir: Path
    start: date = ingest.DEFAULT_START
    end: date = ingest.DEFAULT_END
    min_cumulative: int = ingest.DEFAULT_MIN_CUMULATIVE
    alpha: float = transform.DEFAULT_ALPHA
    rho: float = 0.0
    measure: SimilarityMeasure = SimilarityMeasure.PEARSON
    seed: int = 0

    def as_dict(self) -> dict:
        return {
            "input": str(self.input_path),
            "out": str(self.output_dir),
            "start": self.start.isoformat(),
            "end": self.end.isoformat(),
            "min_cases": self.min_cumulative,
            "alpha": self.alpha,
            "rho": self.rho,
            "measure": self.measure.value,
            "seed": self.seed,
        }


def read_config_file(path: Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file; '#' starts a comment."""
    values: dict[str, str] = {}
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{line_no}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_date(text: str) -> date:
    return datetime.strptime(text, "%Y-%m-%d").date()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epinet",
        description="Epidemic case-count correlation-network community analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("pipeline", "full run: ingest -> transform -> network -> communities -> curves"),
        ("grid", "robustness grid over rho x alpha x similarity measure"),
        ("network", "stop after network construction (edges.csv, network.graphml)"),
        ("transform", "stop after the exponent transform (exponents.csv)"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--input", help="wide-format cumulative case CSV")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--alpha", type=float, help="exponent clipping bound (default 7)")
        p.add_argument("--rho", type=float, help="edge threshold (default 0)")
        p.add_argument("--measure", choices=["pearson", "cosine"])
        p.add_argument("--min-cases", type=int, dest="min_cases",
                       help="cumulative case threshold for region selection (default 100000)")
        p.add_argument("--start", help="analysis start date, ISO (default 2020-01-22)")
        p.add_argument("--end", help="analysis end date, ISO (default 2022-05-29)")
        p.add_argument("--seed", type=int, help="community detection seed (default 0)")
        p.add_argument("--out", help="output directory")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    filevals: dict[str, str] = {}
    if args.config:
        filevals = read_config_file(Path(args.config))

    def pick(flag, key, parse=lambda s: s, default=None):
        if flag is not None:
            return flag
        if key in filevals:
            return parse(filevals[key])
        return default

    seed = pick(args.seed, "seed", int)
    if seed is None:
        env = os.environ.get("EPINET_SEED")
        seed = int(env) if env else 0

    input_path = pick(args.input, "input")
    if input_path is None:
        raise ParameterError("no input file given (use --input or the config file)")
    return RunConfig(
        input_path=Path(input_path),
        output_dir=Path(pick(args.out, "out", default="out")),
        start=pick(_parse_date(args.start) if args.start else None, "start", _parse_date,
                   ingest.DEFAULT_START),
        end=pick(_parse_date(args.end) if args.end else None, "end", _parse_date,
                 ingest.DEFAULT_END),
        min_cumulative=pick(args.min_cases, "min_cases", int, ingest.DEFAULT_MIN_CUMULATIVE),
        alpha=pick(args.alpha, "alpha", float, transform.DEFAULT_ALPHA),
        rho=pick(args.rho, "rho", float, 0.0),
        measure=SimilarityMeasure(pick(args.measure, "measure", default="pearson")),
        seed=seed,
    )


def load_cases(config: RunConfig) -> ingest.Panel:
    data = config.input_path.read_bytes()
    series = ingest.parse_cases_csv(data)
    if not series:
        raise InsufficientDataError("input contains no data rows")
    panel = ingest.Panel.from_series(series)
    # clamp the requested window to what the data provides
    start = max(config.start, panel.start)
    end = min(config.end, panel.end)
    if start > end:
        raise InsufficientDataError(
            f"no region overlaps the requested range {config.start}..{config.end}"
        )
    panel = ingest.restrict_date_range(panel, start, end)
    selected = ingest.select_regions(
        panel, min_cumulative=config.min_cumulative, as_of=end
    )
    if not len(selected):
        raise InsufficientDataError(
            f"no region passes the selection filter (min_cases={config.min_cumulative})"
        )
    return selected


def _write(path: Path, writer_fn) -> None:
    with path.open("w", newline="") as fh:
        writer_fn(fh)


def cmd_transform(config: RunConfig) -> int:
    import csv

    cases = load_cases(config)
    exps = transform.to_exponent_series(cases, alpha=config.alpha)
    diffs = transform.daily_diffs(cases.values)
    avgs = transform.moving_average_7(diffs)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    _write(config.output_dir / "selected.csv", lambda fh: ingest.write_long_csv(cases, fh))
    days = [d.isoformat() for d in exps.dates]
    with (config.output_dir / "exponents.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["region", "date", "diff", "avg7", "exponent", "defined"])
        # exponent day t is diff day t + WARMUP_DAYS - 1 and average day t + 1
        rows = zip(exps.keys, diffs[:, transform.WARMUP_DAYS - 1 :], avgs[:, 1:], exps.values)
        for key, d_row, a_row, e_row in rows:
            for day, diff, avg, v in zip(days, d_row, a_row, e_row):
                ok = not np.isnan(v)
                writer.writerow(
                    [key.display, day, fmt9(diff), fmt9(avg), fmt9(v if ok else 0.0), int(ok)]
                )
    _write_summary(config, config.output_dir / "summary.json", {"regions": len(exps)})
    return EXIT_OK


def _build(config: RunConfig):
    cases = load_cases(config)
    exps = transform.to_exponent_series(cases, alpha=config.alpha)
    net = netbuild.build_network(
        exps, rho=config.rho, measure=config.measure, alpha=config.alpha
    )
    return exps, net


def cmd_network(config: RunConfig) -> int:
    _, net = _build(config)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    _write(config.output_dir / "edges.csv", lambda fh: netbuild.write_edge_csv(net, fh))
    _write(config.output_dir / "network.graphml", lambda fh: netbuild.write_graphml(net, fh))
    _write_summary(
        config,
        config.output_dir / "summary.json",
        {"nodes": net.n, "edges": len(net.edges)},
    )
    return EXIT_OK


def _write_summary(config: RunConfig, path: Path, extra: dict) -> None:
    payload = {"config": config.as_dict()}
    payload.update(extra)
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_pipeline(config: RunConfig) -> int:
    exps, net = _build(config)
    part = community.louvain(net, seed=config.seed)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)

    _write(out / "edges.csv", lambda fh: netbuild.write_edge_csv(net, fh))
    _write(out / "network.graphml", lambda fh: netbuild.write_graphml(net, fh))
    _write(out / "partition.csv", lambda fh: community.write_partition_csv(net, part, fh))

    comms = part.communities()
    n_major = min(3, len(comms))
    dates = exps.dates
    medians = []
    peaks_by_community = {}
    for label in range(n_major):
        members = {net.nodes[i] for i in comms[label]}
        values = analysis.median_curve(exps, members)
        medians.append(values)
        peaks_by_community[label + 1] = analysis.detect_peaks(dates, values)
    _write(out / "medians.csv", lambda fh: analysis.write_medians_csv(dates, medians, fh))
    _write(out / "peaks.csv", lambda fh: analysis.write_peaks_csv(peaks_by_community, fh))

    trajectory_built = False
    if n_major == 3:
        try:
            traj = analysis.build_trajectory(dates, *medians)
        except InsufficientDataError:
            traj = None
        if traj is not None:
            _write(out / "trajectory.csv", lambda fh: analysis.write_trajectory_csv(traj, fh))
            _write(out / "smoothed.csv", lambda fh: analysis.write_smoothed_csv(traj, fh))
            trajectory_built = True

    _write_summary(
        config,
        out / "summary.json",
        {
            "partition": community.partition_summary(part),
            "network": {"nodes": net.n, "edges": len(net.edges)},
            "trajectory_built": trajectory_built,
        },
    )
    return EXIT_OK


def cmd_grid(config: RunConfig) -> int:
    cases = load_cases(config)
    grid = analysis.GridSettings(seed=config.seed)
    cells = analysis.run_grid(cases, grid)
    reference = analysis.reference_settings()

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    errors = {
        c.settings.label(): c.error for c in cells if c.error is not None
    }
    with (out / "grid_errors.json").open("w") as fh:
        json.dump(errors, fh, indent=2, sort_keys=True)
        fh.write("\n")
    summaries = {
        c.settings.label(): community.partition_summary(c.partition)
        for c in cells
        if c.partition is not None
    }
    with (out / "grid_cells.json").open("w") as fh:
        json.dump(summaries, fh, indent=2, sort_keys=True)
        fh.write("\n")

    ref_cell = next((c for c in cells if c.settings == reference), None)
    if ref_cell is None or ref_cell.partition is None:
        msg = ref_cell.error if ref_cell else "reference cell missing"
        raise InsufficientStructureError(f"reference grid cell failed: {msg}")

    matrix = analysis.order_rows(analysis.align_labels(cells, reference))
    _write(out / "membership_matrix.csv", lambda fh: analysis.write_membership_csv(matrix, fh))
    _write_summary(config, out / "summary.json", {"cells": len(cells), "errors": len(errors)})
    return EXIT_OK


COMMANDS = {
    "pipeline": cmd_pipeline,
    "grid": cmd_grid,
    "network": cmd_network,
    "transform": cmd_transform,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return COMMANDS[args.command](config)
    except INPUT_ERRORS as exc:
        _report_error(exc)
        return EXIT_INPUT
    except STRUCTURE_ERRORS as exc:
        _report_error(exc)
        return EXIT_STRUCTURE


def _report_error(exc: Exception) -> None:
    print(f"epinet: error: {exc}", file=sys.stderr)
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
