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
        "weight = np.insert(data, indptr[:-1], selfw)",
        "weight = np.insert(data, indptr[:-1], 0.0)",
        (COMMUNITY + "test_same_decisions_as_dict_reference",),
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
