"""Digests of the output of every benchmark job, README example and EXTRA argv, one per line.

    python3 tools/digests.py [--seeds 1 2 3] > digests.txt

Runs each job of every workload in perfbench/workloads.py for each seed, as
perfbench/run.py runs it (`python -c "from gowersim.cli import run; run()"
ARGS --deterministic` with the checkout's src/ on PYTHONPATH), then each
`$ gowersim ...` line of the README as written, then the fixed argvs of
EXTRA, which reach odd BLR draw counts and options no job uses.  Each line of
output is `workload seed job exit sha256(stdout) sha256(stderr)`; README
examples read `readme - example-<i>-<subcommand>` and EXTRA runs
`extra - <argv joined by _>`.  Everything is read from the checkout
that holds this script, so comparing two checkouts is one `diff` of the
digest files that each one's copy prints.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

# what no benchmark job runs: odd BLR draw counts (every job draws an even one),
# `--family linear --u`, the empty ANF, and lintest and compare past 3n = 24 qubits,
# at n = 11 on x1 + x2 with one entry flipped, whose p0 no float holds, the
# definition route past (k+1)*n <= 24, up to its word guard and one variable over it,
# estimate's mean at draw counts around its chunks and --validate with odd trials, and
# last the draw budget's refusal of each sampling command
EXTRA = [
    *(["blr", "--family", "random", "--seed", "7", "-n", n, "--trials", trials]
      for n in ("1", "12", "20") for trials in ("1", "3", "65537", "100001")),
    *(["compare", "-n", "5", "--family", "random", "--seed", "11", "--shots", shots]
      for shots in ("1", "10001")),
    ["analyze", "-n", "3", "--family", "linear", "--u", "101"],
    ["analyze", "-n", "4", "--anf", "0"],
    ["lintest", "--family", "random", "--seed", "5", "-n", "9", "--shots", "100001"],
    *(["compare", "--family", "random", "--seed", "5", "-n", n] for n in ("12", "20")),
    ["compare", "--format", "csv", "--family", "random", "--seed", "5", "-n", "16"],
    ["lintest", "-n", "11", "--anf", "x1+x2+" + "*".join(f"x{i}" for i in range(1, 12)),
     "--seed", "5", "--shots", "100001"],
    *(["gowers", "-k", k, "-n", n, *route, "--family", "random", "--seed", "5"]
      for k, n, route in (("2", "10", ()), ("3", "7", ()), ("4", "6", ()),
                          ("1", "15", ("--route", "definition")), ("2", "11", ()))),
    *(["estimate", "--family", "random", "--seed", "5", "-n", n, "-m", m, "-t", "0.05"]
      for n in ("1", "3", "8") for m in ("65535", "65536", "65537", "131073")),
    *(["estimate", "--family", "random", "--seed", "5", "-n", n, "-m", "333", "-t", "0.05",
       "--validate", "--trials", "17"] for n in ("1", "3", "6")),
    *([*command, "2000000000", "--family", "bent", "-n", "10", "--seed", "5"]
      for command in (("estimate", "-t", "0.1", "-m"), ("lintest", "--shots"),
                      ("blr", "--trials"), ("compare", "--shots"))),
]


def readme_examples(readme: str) -> list[list[str]]:
    """The arguments of every `$ gowersim ...` line in the README's code blocks."""
    return [shlex.split(chunk.partition("\n")[0])
            for block in readme.split("```")[1::2]
            for chunk in block.split("$ gowersim ")[1:]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    opts = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path[:0] = [str(root / "perfbench"), str(src)]
    from workloads import WORKLOADS

    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    cli = [sys.executable, "-c", "from gowersim.cli import run; run()"]

    def digest(workload: str, seed: str, job: str, argv: list[str]) -> None:
        proc = subprocess.run([*cli, *argv], cwd=root, env=env, capture_output=True)
        print(workload, seed, job, proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
              hashlib.sha256(proc.stderr).hexdigest(), flush=True)

    for workload, jobs in WORKLOADS.items():
        for seed in opts.seeds:
            for job in jobs(seed):
                digest(workload, str(seed), job.name, [*job.args, "--deterministic"])
    readme = (root / "README.md").read_text(encoding="utf-8")
    for i, argv in enumerate(readme_examples(readme), 1):
        digest("readme", "-", f"example-{i}-{argv[0]}", argv)
    for argv in EXTRA:
        digest("extra", "-", "_".join(argv), [*argv, "--deterministic"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
