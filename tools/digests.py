"""Digests of the output of every benchmark job, README example and EXTRA argv, one per line.

    python3 tools/digests.py [--seeds 1 2 3] > digests.txt

Runs each job of every workload in perfbench/workloads.py for each seed, with
--deterministic, then each `$ gowersim ...` line of the README as written,
then the fixed argvs of EXTRA, which reach odd BLR draw counts and options no
job uses.  Every run goes in process through `cli.main`, which prints the
bytes that perfbench/run.py's `gowersim` process prints for the same argv.
Each line of output is `workload seed job exit sha256(stdout) sha256(stderr)`;
README examples read `readme - example-<i>-<subcommand>` and EXTRA runs
`extra - <argv joined by _, spaces dropped>`, so every line has six fields.
Everything is read from the checkout that holds this script, so comparing two
checkouts is one `diff` of the digest files that each one's copy prints.

    python3 tools/digests.py --write tests/golden_digests.txt

writes the golden file that tests/test_golden.py checks: the lines of every
run at seed 1, under a header naming the Python, numpy and platform that
wrote it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import platform
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# what no benchmark job runs: odd BLR draw counts (every job draws an even one), at sizes
# up to and past n = 15, the last whose pairs are enumerated, `--family linear --u`, the
# empty ANF and an ANF with a constant term, and lintest and compare past 3n = 24 qubits,
# at n = 11 on x1 + x2 with one entry flipped, whose p0 no float holds,
# the definition route past (k+1)*n <= 24, up to its word guard and one variable over it,
# the autocorrelation route at the last n that its word rule admits and one over it,
# estimate's mean at draw counts around its pools of keys and --validate with odd trials, and
# --validate at draw counts around those pools (2^16 draws at n = 6, 2^18 at n = 8), the
# draw budget's refusal of each sampling command, and last the circuit layer: simulate's
# layout and walk-guard refusals (the layout's first where both apply), the largest walk
# admitted at n = 2, a one-qubit-per-register u2, and compare at n = 11, whose p0 needs
# more than 53 bits, so that its exact rates are rounded once; then the bent family from
# its closed form at its smallest n and on the spectral route, and the name that was once
# its alias, now an invalid choice
EXTRA = [
    *(["blr", "--family", "random", "--seed", "7", "-n", n, "--trials", trials]
      for n in ("1", "12", "15", "20") for trials in ("1", "3", "65537", "100001")),
    *(["compare", "-n", "5", "--family", "random", "--seed", "11", "--shots", shots]
      for shots in ("1", "10001")),
    ["analyze", "-n", "3", "--family", "linear", "--u", "101"],
    ["analyze", "-n", "4", "--anf", "0"],
    ["analyze", "-n", "3", "--anf", "1 + x1*x2"],
    ["lintest", "--family", "random", "--seed", "5", "-n", "9", "--shots", "100001"],
    *(["compare", "--family", "random", "--seed", "5", "-n", n] for n in ("12", "20")),
    ["compare", "--format", "csv", "--family", "random", "--seed", "5", "-n", "16"],
    ["lintest", "-n", "11", "--anf", "x1+x2+" + "*".join(f"x{i}" for i in range(1, 12)),
     "--seed", "5", "--shots", "100001"],
    *(["gowers", "-k", k, "-n", n, *route, "--family", "random", "--seed", "5"]
      for k, n, route in (("2", "10", ()), ("3", "7", ()), ("4", "6", ()),
                          ("1", "15", ("--route", "definition")), ("2", "11", ()),
                          ("2", "15", ("--route", "autocorrelation")),
                          ("2", "16", ("--route", "autocorrelation")))),
    *(["estimate", "--family", "random", "--seed", "5", "-n", n, "-m", m, "-t", "0.05"]
      for n in ("1", "3", "8") for m in ("65535", "65536", "65537", "131073")),
    *(["estimate", "--family", "random", "--seed", "5", "-n", n, "-m", "333", "-t", "0.05",
       "--validate", "--trials", "17"] for n in ("1", "3", "6")),
    *(["estimate", "--family", "random", "--seed", "5", "-n", n, "-m", m, "-t", "0.05",
       "--validate", "--trials", trials]
      for n, m, trials in (("6", "65535", "3"), ("6", "65536", "3"), ("6", "65537", "3"),
                           ("8", "1000", "5"))),
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


def runs(seeds: list[int]) -> list[tuple[str, list[str]]]:
    """(label, argv) of every benchmark job at each seed, with
    --deterministic, then each README example as written, then each EXTRA argv with
    --deterministic; a label reads `workload seed job`."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from workloads import WORKLOADS

    out = [(f"{workload} {seed} {job.name}", [*job.args, "--deterministic"])
           for workload, jobs in WORKLOADS.items()
           for seed in seeds for job in jobs(seed)]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    out += [(f"readme - example-{i}-{argv[0]}", argv)
            for i, argv in enumerate(readme_examples(readme), 1)]
    return out + [(f"extra - {'_'.join(argv).replace(' ', '')}", [*argv, "--deterministic"])
                  for argv in EXTRA]


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
                        help="write the golden file of every run at seed 1")
    opts = parser.parse_args()
    if not opts.write:
        for label, argv in runs(opts.seeds):
            print(digest_line(label, *in_process(argv)), flush=True)
        return 0
    import numpy

    system = " ".join([platform.system(), platform.machine(), *platform.libc_ver()])
    lines = [f"# written by python3 tools/digests.py --write: Python "
             f"{platform.python_version()}, numpy {numpy.__version__}, {system}"]
    lines += [digest_line(label, *in_process(argv)) for label, argv in runs([1])]
    Path(opts.write).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
