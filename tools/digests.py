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

    python3 tools/digests.py --write tests/golden_digests.txt

writes the golden file that tests/test_golden.py checks: the lines of the fast
runs (the sim-24q and small-n-batch jobs at seed 1, the README examples and
EXTRA), each run in process through `cli.main`, under a header naming the
Python, numpy and platform that wrote it.  exact-large-n stays out: its jobs
take most of this script's run time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAST = ("sim-24q", "small-n-batch")  # the workloads of the golden file

# what no benchmark job runs: odd BLR draw counts (every job draws an even one),
# `--family linear --u`, the empty ANF, and lintest and compare past 3n = 24 qubits,
# at n = 11 on x1 + x2 with one entry flipped, whose p0 no float holds, the
# definition route past (k+1)*n <= 24, up to its word guard and one variable over it,
# estimate's mean at draw counts around its chunks and --validate with odd trials, the
# draw budget's refusal of each sampling command, and last the circuit layer: simulate's
# layout and walk-guard refusals (the layout's first where both apply), the largest walk
# admitted at n = 2, a one-qubit-per-register u2, and compare at n = 11, whose p0 needs
# more than 53 bits, so that its exact rates are rounded once; then the bent family from
# its closed form at its smallest n and on the spectral route, and the name that was once
# its alias, now an invalid choice
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
    ["simulate", "--circuit", "u2", "-n", "9", "--family", "bent"],
    ["simulate", "--circuit", "derivative_walk", "-k", "7", "-n", "4", "--family", "bent"],
    ["simulate", "--circuit", "derivative_walk", "-k", "11", "-n", "2", "--dump"],
    ["simulate", "--circuit", "derivative_walk", "-k", "10", "-n", "2", "--dump", "--audit"],
    ["simulate", "--circuit", "u2", "-n", "1", "--family", "linear", "--u", "1", "--audit"],
    ["compare", "-n", "11", "--anf", "x1+x2+" + "*".join(f"x{i}" for i in range(1, 12)),
     "--seed", "5", "--shots", "1001"],
    ["analyze", "--family", "bent", "-n", "2"],
    ["gowers", "-k", "2", "--route", "spectral", "--family", "bent", "-n", "16"],
    ["analyze", "--family", "bent_quadratic", "-n", "4"],
]


def readme_examples(readme: str) -> list[list[str]]:
    """The arguments of every `$ gowersim ...` line in the README's code blocks."""
    return [shlex.split(chunk.partition("\n")[0])
            for block in readme.split("```")[1::2]
            for chunk in block.split("$ gowersim ")[1:]]


def runs(seeds: list[int], workloads=None) -> list[tuple[str, list[str]]]:
    """(label, argv) of every job of `workloads` (all by default) at each seed, with
    --deterministic, then each README example as written, then each EXTRA argv with
    --deterministic; a label reads `workload seed job`."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from workloads import WORKLOADS

    out = [(f"{workload} {seed} {job.name}", [*job.args, "--deterministic"])
           for workload, jobs in WORKLOADS.items() if workloads is None or workload in workloads
           for seed in seeds for job in jobs(seed)]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    out += [(f"readme - example-{i}-{argv[0]}", argv)
            for i, argv in enumerate(readme_examples(readme), 1)]
    return out + [(f"extra - {'_'.join(argv)}", [*argv, "--deterministic"]) for argv in EXTRA]


def digest_line(label: str, code: int, stdout: bytes, stderr: bytes) -> str:
    return (f"{label} {code} {hashlib.sha256(stdout).hexdigest()} "
            f"{hashlib.sha256(stderr).hexdigest()}")


def in_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    """The exit status, stdout and stderr of `cli.main(argv)`, run in this process."""
    from gowersim.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--write", metavar="FILE",
                        help="write the golden file of the fast runs, run in process")
    opts = parser.parse_args()
    if opts.write:
        import numpy

        system = " ".join([platform.system(), platform.machine(), *platform.libc_ver()])
        lines = [f"# written by python3 tools/digests.py --write: Python "
                 f"{platform.python_version()}, numpy {numpy.__version__}, {system}"]
        lines += [digest_line(label, *in_process(argv)) for label, argv in runs([1], FAST)]
        Path(opts.write).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return 0
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    cli = [sys.executable, "-c", "from gowersim.cli import run; run()"]
    for label, argv in runs(opts.seeds):
        proc = subprocess.run([*cli, *argv], cwd=ROOT, env=env, capture_output=True)
        print(digest_line(label, proc.returncode, proc.stdout, proc.stderr), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
