"""Importing the package, or running a subcommand, loads only the modules it uses."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def loaded_modules(code: str) -> set[str]:
    """The names in sys.modules after running `code` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    script = f"import sys\n{code}\nsys.stderr.write(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


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


def test_names_and_modules_resolve_on_first_use():
    import gowersim

    assert gowersim.spectral.walsh is gowersim.walsh
    namespace: dict = {}
    exec("from gowersim import *", namespace)
    assert set(gowersim.__all__) <= set(namespace)
