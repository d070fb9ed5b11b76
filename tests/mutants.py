"""Mutation gate: each mutant breaks the package in one place, and the tests
named for it must catch it.

    python tests/mutants.py [NAME ...]

Each mutant names a file under ``src/epinet``, an exact text that occurs
exactly once in it, the text that replaces it, and a pytest selection.  The
script copies ``src`` to a temporary directory, applies one mutant there and
runs its selection with pytest in a fresh interpreter, with the copy in place
of ``src``.  A mutant is killed when the selection fails.  The script exits 1
if any mutant survives, or if a mutant's text does not occur exactly once,
so a change to the code it mutates must update the mutant too.  With NAMEs,
it runs only those mutants.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = "tests/"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/epinet
    text: str  # occurs exactly once in ``file``
    replacement: str
    selection: tuple[str, ...]  # pytest node ids, of which one at least must fail


COMMUNITY = TESTS + "test_community.py::TestLouvain::"
RUN_GRID = TESTS + "test_analysis.py::TestRunGrid"

MUTANTS = (
    Mutant(
        "stay adds ki back", "community.py",
        "                tot[cur] = own\n",
        "                tot[cur] += ki\n",
        (COMMUNITY + "test_same_decisions_as_dict_reference",),
    ),
    Mutant(
        "no stay on ties", "community.py",
        "if score.item(best) <= stay:",
        "if score.item(best) < stay:",
        (COMMUNITY + "test_same_decisions_as_dict_reference",),
    ),
    Mutant(
        "settled bound takes ties", "community.py",
        "if bound < s1 or bound < s_own:",
        "if bound <= s1 or bound <= s_own:",
        (COMMUNITY + "test_settled_equals_scoring_every_candidate",),
    ),
    Mutant(
        "candidates by weight", "community.py",
        "score[np.bincount(nbr_comm, minlength=n) == 0] = -np.inf",
        "score[w_to == 0] = -np.inf",
        (COMMUNITY + "test_same_decisions_as_dict_reference",),
    ),
    Mutant(
        "edge at the threshold", "netbuild.py",
        "np.triu(sims > rho, 1)",
        "np.triu(sims >= rho, 1)",
        (TESTS + "test_netbuild.py::TestBuildNetwork::test_exact_zero_correlation_excluded",),
    ),
    Mutant(
        "aggregate drops self-loops", "community.py",
        "np.bincount(new, weights=selfw, minlength=k)",
        "np.zeros(k)",
        (COMMUNITY + "test_same_decisions_as_dict_reference",),
    ),
    Mutant(
        "inside edges counted once", "community.py",
        "a[inside], 2.0 * weight[inside]",
        "a[inside], weight[inside]",
        (COMMUNITY + "test_same_decisions_as_dict_reference",),
    ),
    Mutant(
        "fast reader without the count bound", "ingest.py",
        " or values.max() > MAX_COUNT or values.min() < -MAX_COUNT",
        "",
        (TESTS + "test_ingest.py::test_counts_past_the_bound_name_their_cell",),
    ),
    Mutant(
        "window a day short", "ingest.py",
        "j = min((end - panel.start).days + 1, panel.days)",
        "j = min((end - panel.start).days, panel.days)",
        (TESTS + "test_ingest.py::test_restrict_inclusive_subrange",),
    ),
    Mutant(
        "outputs written into out", "cli.py",
        """        new = work / "new"
        new.mkdir()
        for name, write in files.items():
            with (new / name).open("w", encoding="utf-8", newline="") as fh:
                write(fh)
        if out.exists():
            out.rename(work / "old")
        new.rename(out)
""",
        """        if out.exists():
            shutil.rmtree(out)
        out.mkdir()
        for name, write in files.items():
            with (out / name).open("w", encoding="utf-8", newline="") as fh:
                write(fh)
""",
        (TESTS + "test_cli.py::TestPipeline::test_failed_write_leaves_out_as_it_was",),
    ),
    Mutant(
        "even-count median takes the upper value", "analysis.py",
        "lo = ranked[(len(ranked) - 1) // 2]",
        "lo = ranked[len(ranked) // 2]",
        (TESTS + "test_analysis.py::TestMedianCurve::test_even_count_mean_of_central",),
    ),
    Mutant(
        "spline end knots not clamped", "analysis.py",
        "[np.zeros(degree + 1), np.arange(1, n_spans), np.full(degree + 1, n_spans)]",
        "[np.arange(-degree, 1), np.arange(1, n_spans), np.arange(n_spans, n_spans + degree + 1)]",
        (TESTS + "test_analysis.py::TestBSpline::test_endpoints_exact",),
    ),
    Mutant(
        "alignment without the Jaccard index", "analysis.py",
        "pairs.sort(key=lambda p: (-p[0], p[1], p[2]))",
        "pairs.sort(key=lambda p: (p[1], p[2]))",
        (TESTS + "test_analysis.py::test_align_and_order_equal_set_and_sort_key_references",),
    ),
    Mutant(
        "grid in increasing alpha", "analysis.py",
        "product(sorted(ALPHA_VALUES, reverse=True), MEASURES)]",
        "product(sorted(ALPHA_VALUES), MEASURES)]",
        (RUN_GRID,),
    ),
    Mutant(
        "clip not in place", "analysis.py",
        "np.clip(exps.values, -alpha, alpha, out=exps.values)",
        "np.clip(exps.values, -alpha, alpha)",
        (RUN_GRID,),
    ),
    Mutant(
        "failed share not rerun", "analysis.py",
        """            if status != 0:  # a child that exits 0 has sent all of its cells
                for group in share:
                    _run_group(exps, group, seed)
                continue
""",
        """            if status != 0:
                continue
""",
        (RUN_GRID + "::test_a_share_whose_child_fails_runs_here",),
    ),
    Mutant(
        "children left to finish", "analysis.py",
        "os.kill(pid, 9)  # SIGKILL",
        "pass",
        (RUN_GRID + "::test_an_exception_here_kills_a_child_still_running",),
    ),
)


def mutate(src: Path, mutant: Mutant) -> None:
    """Apply ``mutant`` to the copy of the package under ``src``."""
    path = src / "epinet" / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.text)
    if found != 1:
        raise ValueError(f"{mutant.name}: its text occurs {found} times in {mutant.file}")
    path.write_text(text.replace(mutant.text, mutant.replacement), encoding="utf-8")


def killed(mutant: Mutant) -> bool:
    """Whether the mutant's selection fails on a mutated copy of ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src" / "epinet", src / "epinet",
                        ignore=shutil.ignore_patterns("__pycache__"))
        mutate(src, mutant)
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *mutant.selection],
            cwd=ROOT, capture_output=True, text=True,
        )
    if done.returncode not in (0, 1):  # 1: tests failed; anything else: pytest could not run them
        raise RuntimeError(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout}{done.stderr}")
    return done.returncode == 1


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"mutants: no mutant named {', '.join(sorted(unknown))}")
    survived = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        try:
            caught = killed(mutant)
        except (ValueError, RuntimeError) as exc:
            print(f"error     {exc}", flush=True)
            survived += 1
            continue
        print(f"{'killed' if caught else 'SURVIVED':9} {mutant.name}", flush=True)
        survived += not caught
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
