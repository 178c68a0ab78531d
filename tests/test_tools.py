"""The repo's measuring tools run and hold their pinned counts.

``tools/trial_us.py`` reaches into the private stepping loop
(``integrate._step`` and ``integrate._prepare``), so a change to those
signatures breaks it; these smoke runs catch that here. The tool runs in a
child process from the repo root: its ``import_tree`` executes the package
again under the name ``timebarrier``, which must not replace this process's
package. Its ``CASES`` are the one statement of the pinned trial counts, and
it exits 1 when a case's counts differ from them.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [["--repeat", "1"], ["--repeat", "1", "--src", "src", "--src", "src"]],
    ids=["one_tree", "two_trees_interleaved"],
)
def test_trial_us_runs_and_holds_its_pinned_counts(argv):
    done = subprocess.run(
        [sys.executable, "tools/trial_us.py", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stderr == ""
