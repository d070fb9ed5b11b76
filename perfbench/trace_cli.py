"""Run one epinet CLI command in-process with timing spans around the public
functions of each module, then write the spans to a JSON file.

    PYTHONPATH=src python3 perfbench/trace_cli.py TRACE.json pipeline --input cases.csv --out out

Each wrapper takes ``*args``/``**kwargs`` and replaces the module attribute
that callers look up, so it survives signature changes. ``analysis`` binds
``to_exponent_series``, ``build_network`` and ``louvain`` by name, so those
names are wrapped there as well. A name that no longer exists is listed as
absent in the trace. Spans are kept in memory and written once, at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

ROOT_SPAN = "cli.main"

# (module of epinet, attribute) -> layer metric that the span's self time adds to
LAYER_OF = {
    ("ingest", "parse_cases_csv"): "ingest.parse_s",
    ("ingest", "restrict_date_range"): "ingest.select_s",
    ("ingest", "select_regions"): "ingest.select_s",
    ("transform", "to_exponent_series"): "transform.s",
    ("analysis", "to_exponent_series"): "transform.s",
    ("netbuild", "build_network"): "netbuild.build_s",
    ("analysis", "build_network"): "netbuild.build_s",
    ("community", "louvain"): "community.louvain_s",
    ("analysis", "louvain"): "community.louvain_s",
    ("analysis", "run_grid"): "analysis.grid_s",
    ("analysis", "align_labels"): "analysis.align_s",
    ("analysis", "order_rows"): "analysis.align_s",
    ("analysis", "median_curve"): "analysis.medians_s",
    ("analysis", "detect_peaks"): "analysis.medians_s",
    ("analysis", "build_trajectory"): "analysis.trajectory_s",
    ("ingest", "write_long_csv"): "cli.write_s",
    ("netbuild", "write_edge_csv"): "cli.write_s",
    ("netbuild", "write_graphml"): "cli.write_s",
    ("community", "write_partition_csv"): "cli.write_s",
    ("analysis", "write_medians_csv"): "cli.write_s",
    ("analysis", "write_peaks_csv"): "cli.write_s",
    ("analysis", "write_trajectory_csv"): "cli.write_s",
    ("analysis", "write_smoothed_csv"): "cli.write_s",
    ("analysis", "write_membership_csv"): "cli.write_s",
}


def _work(function: str, args: tuple, result) -> dict[str, int]:
    """Work counts of one call, taken from its arguments and result."""
    if function == "parse_cases_csv":
        return {"cells": sum(len(s.cumulative) for s in result)}
    if function == "build_network":
        n = len(args[0])
        return {"pairs": n * (n - 1) // 2, "edges": len(result.edges)}
    if function == "louvain":
        return {"edges": len(args[0].edges)}
    return {}


class Tracer:
    """Spans ``[name, start, end, parent index, work]`` in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def call(self, name: str, function: str, fn, args: tuple, kwargs: dict):
        parent = self.stack[-1] if self.stack else None
        span = [name, 0.0, 0.0, parent, {}]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        try:
            span[4] = _work(function, args, result)
        except (AttributeError, IndexError, TypeError) as exc:
            span[4] = {"error": f"{type(exc).__name__}: {exc}"}
        return result

    def wrap(self, module: str, function: str) -> None:
        name = f"{module}.{function}"
        try:
            mod = importlib.import_module(f"epinet.{module}")
        except ModuleNotFoundError:
            self.absent.append(name)
            return
        fn = getattr(mod, function, None)
        if fn is None:
            self.absent.append(name)
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, function, fn, args, kwargs)

        setattr(mod, function, traced)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from epinet import cli

    tracer = Tracer()
    for module, function in LAYER_OF:
        tracer.wrap(module, function)
    code = tracer.call(ROOT_SPAN, "main", cli.main, (argv,), {})
    with open(trace_path, "w") as fh:
        json.dump({"exit": code, "spans": tracer.spans, "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
