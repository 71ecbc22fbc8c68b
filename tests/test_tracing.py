"""The benchmark's traced launcher still finds every name it patches."""

import json
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
