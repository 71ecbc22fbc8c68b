"""A generated contract test of the CLI: any argv a user can type gets a clean answer.

Hypothesis builds the argv of every subcommand from a function source (an ANF
from the grammar with junk characters, a hex table of right or wrong length,
a family, a bare --u), an n from {-1, 0, 1..6, 25, 26} and each option at a
valid, boundary or malformed value, always with a --seed.  Every case runs in
process through `cli.main`, twice, under --deterministic.  The contract:

* the exit status is 0, 2 or 3: never 4, never an uncaught exception;
* on exit 0 stderr is empty and stdout parses: JSON without NaN or Infinity,
  or for `compare --format csv` a header row and one value row;
* otherwise stdout is empty and stderr is one `error:` line or an argparse
  usage message ending in the subcommand's error line;
* the two runs give identical bytes.

Admitted inputs stay cheap: n <= 6, -k <= 4, and the draw budget is patched
to 1,000, so every count that reaches a sampler is small.  Exit 3 is reached
arithmetically: n = 25 or 26, a huge -k past every route's guard, or a count
over the patched budget.
"""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from gowersim import cli, estimate

HUGE = str(10**30)
NON_ASCII = ["٣", "３", "२"]  # Arabic-Indic, fullwidth and Devanagari digits: int() reads them
MALFORMED = ["", " ", "nan", "inf", "-inf", "1.5", "1e3", "0x10", "one", "1_000", "\u00a0"]
JUNK = ["", " ", "\t", "\n", "\x00", "é", "٣", "３", "x", "+", "*", "&", "(", "0", "1", "-", "#"]
HEX = "0123456789abcdefABCDEF"


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def mostly(valid, other):
    """Five draws in six from `valid`, so that most cases get past argument checking."""
    return st.sampled_from([valid] * 5 + [other]).flatmap(lambda chosen: chosen)


def numbers(valid):
    """Option text: a valid value, or a boundary (0, -1), a huge value, non-ASCII digits or junk."""
    return mostly(valid.map(str), st.sampled_from(["0", "-1", HUGE, *NON_ASCII, *MALFORMED]))


COUNTS = numbers(st.integers(1, 200))  # a huge count is over the patched draw budget
ORDERS = numbers(st.integers(1, 4))  # a huge k is over every route's guard
MARGINS = st.one_of(st.sampled_from(["0.1", "0.5", "2", "1e-300", "1e308", "5e-324"]),
                    numbers(st.floats(0.01, 1.0)))
SEEDS = numbers(st.integers(0, 2**64))


@st.composite
def anf_text(draw, n):
    index = mostly(st.integers(1, max(1, n)), st.sampled_from([0, n + 1]))
    factor = st.one_of(st.sampled_from(["0", "1"]), index.map(lambda i: f"x{i}"))
    times = draw(st.sampled_from(["*", "&", " * "]))
    term = st.lists(factor, min_size=1, max_size=4).map(times.join)
    text = " + ".join(draw(st.lists(term, min_size=1, max_size=5)))
    for _ in range(draw(mostly(st.just(0), st.integers(1, 2)))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(JUNK)) + text[at:]
    return text


@st.composite
def hex_table(draw, n):
    right = (2**n + 3) // 4 if 1 <= n <= 6 else 4
    length = draw(mostly(st.just(right), st.sampled_from([max(0, right - 1), right + 1])))
    digits = draw(st.text(st.sampled_from(HEX), min_size=length, max_size=length))
    if draw(mostly(st.just(False), st.just(True))) and digits:
        at = draw(st.integers(0, len(digits) - 1))
        digits = digits[:at] + draw(st.sampled_from(JUNK + ["g", "0x"])) + digits[at + 1:]
    return digits


@st.composite
def bits(draw, n):
    length = draw(mostly(st.just(max(0, n)), st.sampled_from([n + 1, max(0, n - 1)])))
    text = draw(st.text(st.sampled_from("01"), min_size=length, max_size=length))
    return text + draw(mostly(st.just(""), st.sampled_from(JUNK)))


@st.composite
def function_source(draw, n):
    kind = draw(mostly(st.sampled_from(["anf", "hex", "family", "linear"]),
                       st.sampled_from(["u", "none", "two"])))
    if kind == "anf":
        return ["--anf", draw(anf_text(n))]
    if kind == "hex":
        return ["--tt-hex", draw(hex_table(n))]
    if kind == "family":
        return ["--family", draw(mostly(st.sampled_from(cli.FAMILIES), st.just("cubic")))]
    if kind == "linear":
        return ["--family", "linear", "--u", draw(bits(n))]
    if kind == "u":
        return ["--u", draw(bits(n))]
    if kind == "two":
        return ["--anf", "x1", "--family", "bent"]
    return []


def options(draw, command):
    """The subcommand's own options, each present or not, at drawn values."""
    flags = st.booleans()
    if command == "gowers":
        argv = ["-k", draw(ORDERS)] if draw(flags) else []
        if draw(flags):
            routes = st.sampled_from(
                ["definition", "spectral", "autocorrelation", "derivatives", "all"])
            argv += ["--route", draw(mostly(routes, st.just("fast")))]
        return argv
    if command == "simulate":
        argv = ["--circuit", draw(st.sampled_from(["u2", "u3_appendix", "derivative_walk"]))]
        argv += ["-k", draw(ORDERS)] if draw(flags) else []
        argv += ["--dump"] if draw(flags) else []
        return argv + (["--audit"] if draw(flags) else [])
    if command == "estimate":
        argv = ["-m", draw(COUNTS), "-t", draw(MARGINS)]
        if draw(flags):
            argv += ["--validate"] + (["--trials", draw(COUNTS)] if draw(flags) else [])
        return argv
    if command in ("lintest", "compare"):
        argv = ["--shots", draw(COUNTS)] if draw(flags) else ["--shots", "50"]
        if command == "compare" and draw(flags):
            argv += ["--format", draw(mostly(st.sampled_from(["json", "csv"]), st.just("xml")))]
        return argv
    if command == "blr":
        return ["--trials", draw(COUNTS)] if draw(flags) else ["--trials", "50"]
    return []


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(cli._HANDLERS)))
    n = draw(mostly(st.integers(1, 6), st.sampled_from([-1, 0, 25, 26])))
    argv = [command, *draw(function_source(n)), "-n", str(n), *options(draw, command)]
    return argv + ["--seed", draw(SEEDS), "--deterministic"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, code, out, err):
    command = argv[0]
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert err == ""
        if command == "compare" and "csv" in argv:
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) == 2 and rows[0][0] == "n" and len(rows[0]) == len(rows[1])
        else:
            assert json.loads(out, parse_constant=reject_constant)["command"] == command
        return
    assert out == ""
    lines = err.splitlines()
    usage = lines[0].startswith("usage: ") and lines[-1].startswith(f"gowersim {command}: error: ")
    assert usage or (len(lines) == 1 and lines[0].startswith("error: ")), err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs())
def test_every_argv_gets_a_clean_answer(argv):
    with mock.patch.object(estimate, "DRAW_BUDGET", 1000):
        first = run(argv)
        check_contract(argv, *first)
        assert run(argv) == first
