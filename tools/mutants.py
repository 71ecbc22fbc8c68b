"""The committed mutant catalogue: one-line mutants of src/ and the tests that must kill them.

    python3 tools/mutants.py

Each entry of CATALOGUE is (path, original, replacement, test files, kind).
`original` is exact text that occurs once in `path`; the mutant replaces it
with `replacement`.  A `kill` mutant must make the named test files fail; an
`equivalent` one changes no observable behaviour, so it must pass them.

Each mutant runs in turn on a fresh temporary copy of the checkout's TREE,
with `python -m pytest -x -q -p no:cacheprovider <test files>` and the copy's
src/ alone on PYTHONPATH.  The unmutated copy first runs every named file and
must pass.  One line per mutant reads `status kind seconds path:line
original -> replacement`, then a line of counts.  The exit status is 1 if an
original text is not found exactly once, the unmutated tree fails, a `kill`
mutant survives, an `equivalent` one is killed or pytest cannot run; else 0.
Each test added for a behaviour comes with the mutant that it kills.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# perfbench/tracing.py puts its own checkout's src/ first on sys.path, so a copy of
# src/ alone would let the tracing tests import the unmutated package
TREE = ("src", "tests", "perfbench", "tools", "README.md", "pyproject.toml", "BENCHMARK.json")
TIMEOUT_S = 600  # a mutant that makes its tests hang counts as killed
KILLED = (1, 2)  # pytest: tests failed, or collection failed

BOOLFN, SPECTRAL, GOWERS, DYADIC, ERRORS, ESTIMATE, LINTEST, QSIM, CLI = (
    f"src/gowersim/{name}.py"
    for name in ("boolfn", "spectral", "gowers", "dyadic", "errors", "estimate", "lintest",
                 "qsim", "cli")
)
T = "tests/test_{}.py".format

CATALOGUE = [
    # boolfn: the guards on tables, packed integers, hex digits and linear's u
    (BOOLFN, "if not isinstance(n, int) or n < 1:", "if n < 1:", [T("boolfn")], "kill"),
    (BOOLFN, 'if arr.dtype.kind not in "biu":', 'if arr.dtype.kind not in "biuf":',
     [T("boolfn")], "kill"),
    (BOOLFN, "if not np.isin(arr, (0, 1)).all():", "if not np.isin(arr, (0, 1, 2)).all():",
     [T("boolfn")], "kill"),
    (BOOLFN, "    arr.setflags(write=False)", "    pass", [T("boolfn")], "kill"),
    (BOOLFN, "        table.setflags(write=False)", "        pass", [T("boolfn")], "kill"),
    (BOOLFN, "anf.coeffs.setflags(write=False)", "pass", [T("boolfn")], "kill"),
    (BOOLFN, "if not 0 <= bits < (1 << size):", "if False:", [T("boolfn")], "kill"),
    (BOOLFN, "digits = digits.strip()", "digits = digits", [T("boolfn")], "kill"),
    (BOOLFN, "if bits[size:].any():", "if bits[size + 1:].any():", [T("boolfn")], "kill"),
    (BOOLFN, "if not isinstance(u, (int, np.integer)):", "if False:", [T("boolfn")], "kill"),
    (BOOLFN, "if not 0 <= u < (1 << n):", "if not 0 <= u <= (1 << n):", [T("boolfn")], "kill"),
    (BOOLFN, "if not 1 <= index <= n:", "if not 1 <= index:", [T("boolfn")], "kill"),
    (BOOLFN, "np.bitwise_xor.at(coeffs,", "np.bitwise_or.at(coeffs,", [T("boolfn")], "kill"),
    (BOOLFN, "tobytes().hex()[:ndigits]", "tobytes().hex()", [T("boolfn")], "kill"),
    # spectral: the transform, the block clamps of _derivative_rows and the frozen results
    (SPECTRAL, "np.subtract(lo, hi, out=view[:, h:])", "np.add(lo, hi, out=view[:, h:])",
     [T("spectral")], "kill"),
    (SPECTRAL, "1 << max(0, (_BLOCK_CELLS // size).bit_length() - 1))",
     "1 << (_BLOCK_CELLS // size).bit_length() - 1)", [T("gowers")], "kill"),
    (SPECTRAL, "max(1, _BLOCK_CELLS // (per * size))", "_BLOCK_CELLS // (per * size)",
     [T("gowers")], "kill"),
    (SPECTRAL, "block ^= base[:, None, :]", "block |= base[:, None, :]", [T("spectral")], "kill"),
    (SPECTRAL, "    w.setflags(write=False)", "    pass", [T("spectral")], "kill"),
    (SPECTRAL, "    r.setflags(write=False)", "    pass", [T("spectral")], "kill"),
    (SPECTRAL, "u = int(np.argmax(w))", "u = int(np.argmax(np.abs(w)))", [T("spectral")],
     "kill"),
    (SPECTRAL, "if f.n != g.n:", "if False:", [T("spectral")], "kill"),
    # gowers and dyadic: the exact sums and their argument checks
    (GOWERS, "int(v) ** p * int(c)", "int(v) ** p", [T("gowers")], "kill"),
    (GOWERS, "(k + 1) * f.n, \"terms\")", "k * f.n, \"terms\")", [T("gowers")], "kill"),
    (GOWERS, "if k < 3:", "if k < 2:", [T("gowers")], "kill"),
    (DYADIC, "if log2_den < 0:", "if log2_den < -1:", [T("dyadic")], "kill"),
    (DYADIC, "if q.denominator != 1 << log2_den:", "if False:", [T("dyadic")], "kill"),
    (ERRORS, "if cost > budget:", "if cost >= budget:", [T("lintest")], "kill"),
    # estimate: the exact distribution, its sampler and the draw budget.  A mutant of a size
    # guard, such as u2_partial_sums' check_layout, is left out: its test would allocate GBs
    (ESTIMATE, "if count > DRAW_BUDGET:", "if count > 2 * DRAW_BUDGET:", [T("estimate")],
     "kill"),
    (ESTIMATE, "per = max(1, spectral._BLOCK_CELLS >> 2 * n)",
     "per = spectral._BLOCK_CELLS >> 2 * n", [T("estimate")], "kill"),
    (ESTIMATE, "part[0] += cum[(a << 2 * n) - 1] if a else 0", "part[0] += 0",
     [T("estimate")], "kill"),
    (ESTIMATE, "total = int(cum[-1]) if cum.size else 0", "total = int(cum[-1])",
     [T("estimate")], "kill"),
    (ESTIMATE, "if cum.dtype != np.int64:", "if cum.dtype.kind != \"i\":", [T("estimate")],
     "kill"),
    (ESTIMATE, "        del thresholds", "        pass", [T("estimate")], "kill"),
    (ESTIMATE, 'side="right"', 'side="left"', [T("estimate")], "kill"),
    (ESTIMATE, "        if m < 1:", "        if m < 0:", [T("estimate")], "kill"),
    (ESTIMATE, "return total / (self.cum.size * m)", "return total / (self.cum[-1] * m)",
     [T("estimate")], "kill"),
    # p0 is cum[0] / S exactly, and a draw r in [0, 1) equals it only with probability ~2^-53
    (ESTIMATE, "rng.random(size) >= p0", "rng.random(size) > p0", [T("estimate"), T("lintest")],
     "equivalent"),
    # lintest: the BLR cross-check, its draws and the verdict
    (LINTEST, "if 2 * n <= MAX_N:", "if 2 * n < MAX_N:", [T("cli")], "kill"),
    (LINTEST, "y_rng.bit_generator.advance(trials // 2)",
     "y_rng.bit_generator.advance((trials + 1) // 2)", [T("lintest")], "kill"),
    (LINTEST, "    if trials % 2:", "    if False:", [T("lintest")], "kill"),
    (LINTEST, '"REJECT" if rejections else "ACCEPT"', '"REJECT" if rejections > 1 else "ACCEPT"',
     [T("lintest")], "kill"),
    (LINTEST, "blr_test(f, shots, child_seed(seed, 1))", "blr_test(f, shots, child_seed(seed, 0))",
     [T("lintest")], "kill"),
    # qsim: layouts, gate and register checks, the executor's mesh and rows
    (QSIM, "return (self.m - register) * self.n", "return (self.m - register + 1) * self.n",
     [T("qsim")], "kill"),
    (QSIM, "if not 1 <= register <= self.m:", "if not 1 <= register:", [T("qsim")], "kill"),
    (QSIM, "layout._check_register(gate.target)", "pass", [T("qsim")], "kill"),
    (QSIM, "layout._check_register(gate.source)", "pass", [T("qsim")], "kill"),
    (QSIM, "layout._check_register(gate.register)", "pass", [T("qsim")], "kill"),
    (QSIM, "if self.register < 1:", "if False:", [T("qsim")], "kill"),
    (QSIM, "elif not (isinstance(gate, HadamardAll) and i == len(gates) - 1):",
     "elif not isinstance(gate, HadamardAll):", [T("qsim")], "kill"),
    (QSIM, "ramp[: max(1, size >> ((m - r) * n))]", "ramp[: size >> ((m - r) * n)]",
     [T("qsim")], "kill"),
    (QSIM, "table[np.bitwise_xor.outer(ramp, ramp)]", "table[np.bitwise_or.outer(ramp, ramp)]",
     [T("qsim")], "kill"),
    (QSIM, "if cosets and (f is None or f.n != n):", "if cosets and f is None:", [T("qsim")],
     "kill"),
    # without oracle calls the table is never read, and with them f is checked above
    (QSIM, "table = f.table if cosets else None", "table = f.table if f is not None else None",
     [T("qsim")], "equivalent"),
    # cli: the seed, the function options and the emitted document
    (CLI, 'return self.family == "random" or self.command in',
     "return self.command in", [T("cli")], "kill"),
    (CLI, 'if self.u is not None and self.family != "linear":', "if False:", [T("cli")], "kill"),
    (CLI, "if not cfg.deterministic:", "if cfg.deterministic:", [T("cli")], "kill"),
    # only compare has a --format option, so every other command reads the default
    (CLI, 'if getattr(cfg, "format", "json") == "csv":',
     'if cfg.command == "compare" and cfg.format == "csv":', [T("cli")], "equivalent"),
]


def _copy_tree(dst: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in TREE:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dst / name, ignore=skip)
        else:
            shutil.copy2(src, dst / name)


def _run(tests: list[str], mutant: tuple[str, str, str] | None = None) -> tuple[int, float]:
    """pytest's exit status on `tests` in a fresh copy, with `mutant` applied, and its seconds."""
    with tempfile.TemporaryDirectory(prefix="gowersim-mutant-") as tmp:
        copy = Path(tmp)
        _copy_tree(copy)
        if mutant is not None:
            path, original, replacement = mutant
            target = copy / path
            target.write_text(target.read_text(encoding="utf-8").replace(original, replacement),
                              encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        start = time.perf_counter()
        try:
            code = subprocess.run(argv, cwd=copy, env=env, capture_output=True,
                                  timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = KILLED[0]
        return code, time.perf_counter() - start


def main() -> int:
    failed = False
    lines = {}
    for path, original, *_ in CATALOGUE:
        text = (ROOT / path).read_text(encoding="utf-8")
        if text.count(original) != 1:
            print(f"error: {path}: {original!r} occurs {text.count(original)} times, not once")
            failed = True
        else:
            lines[path, original] = text[: text.index(original)].count("\n") + 1
    if failed:
        return 1
    files = sorted({name for *_, tests, _ in CATALOGUE for name in tests})
    code, seconds = _run(files)
    print(f"unmutated {'passed' if code == 0 else f'exit {code}'} {seconds:.1f}s {' '.join(files)}",
          flush=True)
    if code != 0:
        return 1
    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    for path, original, replacement, tests, kind in CATALOGUE:
        code, seconds = _run(tests, (path, original, replacement))
        status = "killed" if code in KILLED else "survived" if code == 0 else f"exit-{code}"
        if status in counts:
            counts[status] += 1
        if status == "survived" and kind == "equivalent":
            counts["equivalent"] += 1
        failed |= status != ("killed" if kind == "kill" else "survived")
        print(f"{status:8} {kind:10} {seconds:5.1f}s {path}:{lines[path, original]} "
              f"{original.strip()!r} -> {replacement.strip()!r}", flush=True)
    print(f"{len(CATALOGUE)} mutants: {counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['equivalent']} of them recorded as equivalent")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
