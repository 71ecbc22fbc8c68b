"""Same-machine A/B timing of one gowersim command in two checkouts.

    python3 tools/ab.py CHECKOUT_A CHECKOUT_B [--rounds N] -- ARGS...

Each checkout's own perfbench/run.py supplies how a job runs: `spawn` of its
`CLI` (`python -c "from gowersim.cli import run; run()" ARGS --deterministic`) with its
`CHILD_ENV` (its src/ on PYTHONPATH, one BLAS thread), from spawn to reap,
with the peak RSS that `os.wait4` reports.  Both src/ trees are
byte-compiled first, so neither side pays for compiling its modules, and
checkouts whose paths differ in length are refused, because a child's peak
RSS moves with the length of its checkout's path.  After one untimed run per
side, N rounds run the command once in each checkout, alternating which side
goes first.  The report gives, per side, the median and interquartile range
of the wall time and of the peak RSS, the number of rounds in which B took
less wall time than A, the rounds whose exit status or stdout differ between
the sides, and each checkout's environment record as perfbench/run.py writes
it.  This is a measuring tool, not a test: it exits 2 on bad arguments, else 0.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import statistics
import sys
from pathlib import Path


def harness(checkout: Path, side: str):
    """The checkout's perfbench/run.py, loaded as its own module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_run_{side}",
                                                  checkout / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


def summary(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {median:.4f} IQR {q1:.4f}-{q3:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A (the baseline)")
    parser.add_argument("b", type=Path, help="checkout B (the change)")
    parser.add_argument("--rounds", type=int, default=20, help="interleaved rounds (>= 2)")
    parser.add_argument("args", nargs="+", help="the gowersim arguments, after --")
    opts = parser.parse_args()
    checkouts = {"A": opts.a.resolve(), "B": opts.b.resolve()}
    if opts.rounds < 2:
        parser.error("need at least 2 rounds for quartiles")
    if len(str(checkouts["A"])) != len(str(checkouts["B"])):
        parser.error(f"checkout paths differ in length: {checkouts['A']} vs {checkouts['B']}")
    for path in checkouts.values():
        if not (path / "perfbench" / "run.py").is_file() or not (path / "src").is_dir():
            parser.error(f"{path} holds no perfbench/run.py and src/")
    runs = {side: harness(path, side) for side, path in checkouts.items()}
    for path in checkouts.values():
        compileall.compile_dir(path / "src", quiet=1)

    def spawn(side: str) -> tuple[float, float, tuple[int, str]]:
        # keep only the digest: a child's peak RSS counts this process's memory at fork
        run = runs[side].spawn([*runs[side].CLI, *opts.args, "--deterministic"])
        return run.wall_s, run.peak_rss_mb, (run.exit, run.digest)

    for side in runs:
        spawn(side)  # untimed: page cache
    results: dict[str, list] = {"A": [], "B": []}
    for i in range(opts.rounds):
        for side in ("AB" if i % 2 == 0 else "BA"):
            results[side].append(spawn(side))

    for side, path in checkouts.items():
        walls, peaks, _ = zip(*results[side])
        print(f"{side} {path}: wall_s {summary(walls)}; peak_rss_mb {summary(peaks)}")
    wins = sum(b[0] < a[0] for a, b in zip(results["A"], results["B"]))
    differ = [i for i, (a, b) in enumerate(zip(results["A"], results["B"])) if a[2] != b[2]]
    print(f"B took less wall time in {wins} of {opts.rounds} rounds")
    print(f"exit status and stdout differ in rounds {differ}" if differ
          else "exit status and stdout are equal in every round")
    for side, run in runs.items():
        print(f"environment {side} {json.dumps(run.environment(None))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
