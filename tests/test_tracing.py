"""The benchmark's traced launcher finds every name it patches and prints what the CLI prints."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_analyze_records_the_boolfn_spans(tmp_path):
    trace = tmp_path / "trace.json"
    args = ["analyze", "-n", "3", "--anf", "x1*x2 + x3", "--deterministic"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(trace), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["anf"] == "x3 + x1*x2"
    record = json.loads(trace.read_text())
    assert record["exit"] == 0
    names = {span[2] for span in record["spans"]}
    spans = {"cli.resolve_function", "boolfn.anf_to_string", "boolfn.BooleanFunction.to_anf"}
    assert spans <= names


def test_traced_sampling_commands_print_what_the_untraced_cli_prints(tmp_path):
    # the benchmark's traced pass counts a job whose stdout differs as failed
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for args, status in (
        (["estimate", "--family", "random", "-n", "3", "-m", "500", "-t", "0.1", "--seed", "4",
          "--validate", "--trials", "5", "--deterministic"], 0),
        (["simulate", "--circuit", "u2", "-n", "3", "--family", "random", "--seed", "4",
          "--deterministic"], 0),
        (["simulate", "--circuit", "derivative_walk", "-k", "3", "-n", "4", "--family",
          "random", "--seed", "4", "--deterministic"], 0),
        (["simulate", "--audit", "--dump", "--circuit", "u3_appendix", "-n", "3",
          "--deterministic"], 0),
        # refusals that the untraced CLI reaches without building a truth table
        (["simulate", "--circuit", "u2", "-n", "9", "--family", "bent"], 3),
        (["analyze", "-n", "0", "--family", "bent"], 2),
    ):
        plain = subprocess.run([sys.executable, "-m", "gowersim.cli", *args],
                               capture_output=True, text=True, timeout=120, env=env)
        traced = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(tmp_path / "t.json"),
             *args],
            capture_output=True, text=True, timeout=120,
        )
        assert plain.returncode == traced.returncode == status, traced.stderr
        assert traced.stdout == plain.stdout
        assert bool(plain.stdout.strip()) == (status == 0)
