"""Byte identity: each seed-1 run of tools/digests.py prints what tests/golden_digests.txt records.

The runs are every job of the three benchmark workloads at seed 1, the README
examples and the EXTRA argvs.  Each runs in process through `cli.main`; its
exit status and the sha256 of its stdout and stderr must equal the golden
line.  A change of output rewrites the file with
`python3 tools/digests.py --write tests/golden_digests.txt` and names each
changed line in CHANGES.md.  The file's header names the Python, numpy and
platform that wrote it, so a last-digit drift of another libm can be told
apart from a regression; the test fails on either.
"""

import importlib.util
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_digests.txt"

_spec = importlib.util.spec_from_file_location("digests", ROOT / "tools" / "digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

HEADER, *LINES = GOLDEN.read_text(encoding="utf-8").splitlines()
EXPECTED = {line.rsplit(" ", 3)[0]: line for line in LINES}
RUNS = digests.runs([1])


def test_the_golden_file_lists_every_run_once():
    assert len(EXPECTED) == len(LINES)
    assert list(EXPECTED) == [label for label, _ in RUNS]


@pytest.mark.parametrize("label, argv", RUNS, ids=[label for label, _ in RUNS])
def test_output_matches_the_golden_digest(label, argv):
    code, stdout, stderr = digests.in_process(argv)
    line = digests.digest_line(label, code, stdout, stderr)
    assert line == EXPECTED.get(label), (
        f"gowersim {shlex.join(argv)}\nexit {code}\n--- stdout\n{stdout.decode()}"
        f"--- stderr\n{stderr.decode()}--- golden file {HEADER}"
    )
