"""Importing the package, or running a subcommand, loads only the modules it uses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def loaded_modules(code: str, status: int = 0) -> set[str]:
    """The names in sys.modules when a fresh interpreter running `code` exits with `status`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    # written at exit, after anything `code` wrote to stderr, also when it calls sys.exit
    script = ("import atexit, sys\n"
              "atexit.register(lambda: sys.stderr.write('\\n' + ' '.join(sys.modules)))\n"
              f"{code}")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == status, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_import_gowersim_loads_no_submodule():
    loaded = loaded_modules("import gowersim")
    assert "gowersim" in loaded
    assert not {name for name in loaded if name.startswith("gowersim.")}


def test_gowers_without_seed_loads_no_sampling_module():
    loaded = loaded_modules(
        "from gowersim.cli import main\n"
        "assert main(['gowers', '--anf', 'x1*x2 + x3', '-n', '3', '--deterministic']) == 0"
    )
    assert {"gowersim.gowers", "gowersim.spectral", "gowersim.dyadic"} <= loaded
    unused = {"gowersim.qsim", "gowersim.estimate", "gowersim.lintest", "numpy.random"}
    assert not unused & loaded


@pytest.mark.parametrize("argv", [
    ["lintest", "--anf", "x1*x2", "-n", "2", "--shots", "10", "--seed", "1"],
    ["blr", "--anf", "x1*x2", "-n", "2", "--trials", "10", "--seed", "1"],
    ["compare", "--anf", "x1*x2", "-n", "2", "--shots", "10", "--seed", "1", "--format", "csv"],
])
def test_linearity_tests_load_no_simulator(argv):
    # the quantum test needs only the exact p0, never a circuit or a state
    loaded = loaded_modules(
        "from gowersim.cli import main\n"
        f"assert main({argv!r} + ['--deterministic']) == 0"
    )
    assert "gowersim.lintest" in loaded
    assert "gowersim.qsim" not in loaded


@pytest.mark.parametrize("validate", [[], ["--validate", "--trials", "3"]], ids=["plain", "validate"])
def test_estimate_loads_no_simulator(validate):
    # the norm circuit's final state has a closed form in the derivatives' spectra
    argv = ["estimate", "--anf", "x1*x2", "-n", "2", "-m", "10", "-t", "0.1", "--seed", "1",
            *validate]
    loaded = loaded_modules(
        "from gowersim.cli import main\n"
        f"assert main({argv!r} + ['--deterministic']) == 0"
    )
    assert "gowersim.estimate" in loaded
    assert "gowersim.qsim" not in loaded


def test_simulate_loads_no_exact_arithmetic_module():
    # the executor reads the block size from errors, not from spectral
    loaded = loaded_modules(
        "from gowersim.cli import main\n"
        "assert main(['simulate', '--circuit', 'u2', '-n', '4', '--family', 'bent']) == 0"
    )
    assert {"gowersim.qsim", "gowersim.boolfn", "gowersim.errors", "numpy"} <= loaded
    assert not {"gowersim.spectral", "gowersim.dyadic", "fractions"} & loaded


CLI_EXIT = "from gowersim.cli import main\nsys.exit(main({!r}))"


@pytest.mark.parametrize("code, status", [
    ("import gowersim.cli", 0),
    ("from gowersim.qsim import build_derivative_walk_circuit\n"
     "build_derivative_walk_circuit(8, 2)", 0),
    (CLI_EXIT.format(["--help"]), 0),
    (CLI_EXIT.format(["analyze", "-n", "0", "--family", "bent"]), 2),
    (CLI_EXIT.format(["simulate", "--audit", "--dump", "--circuit", "u3_appendix", "-n", "6"]), 0),
    (CLI_EXIT.format(["simulate", "--audit", "--dump", "--circuit", "derivative_walk", "-k", "3",
                      "-n", "4"]), 0),
    (CLI_EXIT.format(["simulate", "--circuit", "u2", "-n", "9", "--family", "bent"]), 3),
], ids=["import-cli", "build-u2", "help", "usage-error", "audit-u3", "audit-walk", "refused-u2"])
def test_work_without_a_truth_table_loads_no_numpy(code, status):
    # circuits are symbolic until run, and a refusal needs only the arguments; the gates
    # are NamedTuples, so neither `dataclasses` nor the `inspect` it imports loads either
    loaded = loaded_modules(code, status)
    assert "gowersim.errors" in loaded
    assert not {name for name in loaded if name == "numpy" or name.startswith("numpy.")}
    assert not {"dataclasses", "inspect"} & loaded


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "bent", "-n", "4"],
    ["gowers", "-k", "3", "--family", "bent", "-n", "4"],
    ["simulate", "--circuit", "u2", "-n", "2", "--anf", "x1*x2"],
    ["estimate", "--anf", "x1*x2", "-n", "2", "-m", "10", "-t", "0.1", "--seed", "1"],
    ["lintest", "--anf", "x1*x2", "-n", "2", "--shots", "10", "--seed", "1"],
    ["blr", "--anf", "x1*x2", "-n", "2", "--trials", "10", "--seed", "1"],
    ["compare", "--anf", "x1*x2", "-n", "2", "--shots", "10", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_no_subcommand_loads_dataclasses(argv):
    # no module of the package defines a dataclass: results and gates are NamedTuples
    loaded = loaded_modules(
        "from gowersim.cli import main\n"
        f"assert main({argv!r} + ['--deterministic']) == 0"
    )
    assert f"gowersim.{'qsim' if argv[0] == 'simulate' else 'boolfn'}" in loaded
    assert "dataclasses" not in loaded

