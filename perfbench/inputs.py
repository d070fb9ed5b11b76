"""Seeded inputs of the benchmark workloads.

Every workload reads one wide-format cumulative case CSV built from
``epinet.synthetic.make_planted_cases`` over the CLI's whole default window
(2020-01-22 to 2022-05-29, 859 days), so the CLI never cuts the window.
``grid-300`` adds reporting artefacts to about half of its regions.

Regenerate an input by hand:

    PYTHONPATH=src python3 perfbench/inputs.py --workload grid-300 --seed 1 --out cases.csv
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from checks import exponents

START = date(2020, 1, 22)
DAYS = 859  # 2020-01-22 .. 2022-05-29 inclusive, the CLI's default window
GROUPS = 3
NOISE_SD = 0.05  # the generator's default

# workload -> (regions per group, artefacts?)
SHAPES = {
    "pipeline-300": (100, False),
    "grid-300": (100, True),
}

FREEZE_DAYS = 10


@dataclass
class Inputs:
    """One generated input: region names, planted group and counts."""

    regions: list[str]
    groups: np.ndarray  # (regions,) planted group of each region
    cumulative: np.ndarray  # (regions, DAYS) int64 cumulative counts
    artefacts: dict[str, int]  # artefact kind -> regions carrying it

    def wide_csv(self) -> str:
        dates = [START + timedelta(days=i) for i in range(DAYS)]
        header = ["Province/State", "Country/Region", "Lat", "Long"]
        header += [f"{d.month}/{d.day}/{d.strftime('%y')}" for d in dates]
        lines = [",".join(header)]
        for name, row in zip(self.regions, self.cumulative):
            lines.append(f",{name},,," + ",".join(map(str, row.tolist())))
        return "\n".join(lines) + "\n"


def _add_artefacts(cumulative: np.ndarray, rng: np.random.Generator) -> dict[str, int]:
    """Give about half of the regions one reporting artefact each.

    Each artefact drives the 7-day average to zero or below for a stretch,
    so the floored log-ratio reaches about +-30 and is clipped at every
    alpha of the grid (5, 7 and 9):

    - late onset: zero cumulative cases before a day in 10..60;
    - freeze: no new cases for 10 days, then the held-back cases at once;
    - negative correction: one day removes twice the previous six days.
    """
    counts = {"late_onset": 0, "freeze": 0, "negative_correction": 0}
    kinds = list(counts)
    for row in cumulative:
        if rng.random() >= 0.5:
            continue
        kind = kinds[rng.integers(len(kinds))]
        counts[kind] += 1
        new = np.diff(row, prepend=0)
        if kind == "late_onset":
            new[: rng.integers(10, 61)] = 0
        elif kind == "freeze":
            day = int(rng.integers(100, DAYS - 2 * FREEZE_DAYS))
            held = new[day : day + FREEZE_DAYS].sum()
            new[day : day + FREEZE_DAYS] = 0
            new[day + FREEZE_DAYS] += held
        else:
            day = int(rng.integers(100, DAYS - 1))
            new[day] = -2 * new[day - 6 : day].sum()
        row[:] = np.cumsum(new)
    return counts


def make_inputs(workload: str, seed: int) -> Inputs:
    """Build the input of ``workload``; the same seed gives the same input."""
    # imported here, once run.py has found the sources and put them on the path
    from epinet.synthetic import make_planted_cases

    per_group, artefacts = SHAPES[workload]
    series, labels = make_planted_cases(
        n_groups=GROUPS, per_group=per_group, days=DAYS, seed=seed,
        noise_sd=NOISE_SD, start=START,
    )
    cumulative = np.array([s.cumulative for s in series], dtype=np.int64)
    inputs = Inputs(
        regions=[s.key.display for s in series],
        groups=np.array([labels[s.key] for s in series]),
        cumulative=cumulative,
        artefacts={},
    )
    if artefacts:
        # a stream of its own, so the planted series match the clean workloads'
        inputs.artefacts = _add_artefacts(cumulative, np.random.default_rng([seed, 1]))
    return inputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="path of the CSV to write")
    args = parser.parse_args()
    inputs = make_inputs(args.workload, args.seed)
    with open(args.out, "w") as fh:
        fh.write(inputs.wide_csv())
    raw = exponents(inputs.cumulative, alpha=np.inf)
    clipped = ", ".join(f"{np.mean(np.abs(raw) > a):.3%} at alpha {a:g}" for a in (5, 7, 9))
    print(f"{args.out}: {len(inputs.regions)} regions x {DAYS} days, "
          f"artefacts {inputs.artefacts}, exponents clipped: {clipped}")


if __name__ == "__main__":
    main()
