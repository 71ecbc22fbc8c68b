"""The committed mutant catalogue: one-line mutants of src/ and the tests that must kill them.

    python3 tools/mutants.py

Each entry of CATALOGUE is (path, original, replacement, tests, kind).
`original` is exact text that occurs once in `path`; the mutant replaces it
with `replacement`.  `tests` are test files or pytest node ids.  A `kill`
mutant must make the named tests fail; an `equivalent` one changes no
observable behaviour, so it must pass them.  A mutant that weakens a size
guard names only tests that refuse a size whose unguarded work is cheap, or
that make the first step of that work raise.

Each mutant runs in turn on a fresh temporary copy of the checkout's TREE,
with `python -m pytest -x -q -p no:cacheprovider <tests>` and the copy's
src/ alone on PYTHONPATH.  The unmutated copy first runs every named file and
must pass.  One line per mutant reads `status kind seconds peak-MB path:line
original -> replacement`, the peak being pytest's resident set size as
`os.wait4` reports it, then a line of counts.  The exit status is 1 if an
original text is not found exactly once, the unmutated tree fails, a `kill`
mutant survives, an `equivalent` one is killed or pytest cannot run; else 0.
Each test added for a behaviour comes with the mutant that it kills.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
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


def node(module: str, test: str) -> str:
    return f"{T(module)}::{test}"


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
    (BOOLFN, "digits = digits.strip()", "digits = digits", [T("boolfn")], "kill"),
    (BOOLFN, "if bits[size:].any():", "if bits[size + 1:].any():", [T("boolfn")], "kill"),
    (BOOLFN, "if not isinstance(u, (int, np.integer)):", "if False:", [T("boolfn")], "kill"),
    (BOOLFN, "if not 0 <= u < (1 << n):", "if not 0 <= u <= (1 << n):", [T("boolfn")], "kill"),
    (BOOLFN, "if not 1 <= index <= n:", "if not 1 <= index:", [T("boolfn")], "kill"),
    (BOOLFN, "np.bitwise_xor.at(coeffs,", "np.bitwise_or.at(coeffs,", [T("boolfn")], "kill"),
    (BOOLFN, "tobytes().hex()[:ndigits]", "tobytes().hex()", [T("boolfn")], "kill"),
    # bent's closed form: the pairs x1 x2, x3 x4, ... shifted by one bit
    (BOOLFN, 'int("01" * (n // 2), 2)', 'int("10" * (n // 2), 2)',
     [node("boolfn", "test_bent_family")], "kill"),
    # the table-size guard; unguarded, from_hex(25, "0") refuses its digit count instead
    (BOOLFN, 'n, "table entries")', 'n - 1, "table entries")',
     [node("boolfn", "test_table_validation")], "kill"),
    # spectral: the transform, the block clamps of _derivative_rows and the frozen results
    (SPECTRAL, "np.subtract(lo, hi, out=view[:, h:])", "np.add(lo, hi, out=view[:, h:])",
     [T("spectral")], "kill"),
    (SPECTRAL, "1 << max(0, (cells // size).bit_length() - 1))",
     "1 << (cells // size).bit_length() - 1)", [T("gowers")], "kill"),
    (SPECTRAL, "max(1, cells // (per * size))", "cells // (per * size)", [T("gowers")], "kill"),
    (SPECTRAL, "block ^= base[:, None, :]", "block |= base[:, None, :]", [T("spectral")], "kill"),
    # the blocks' results in block order, not in order of d, once a table spans blocks (n >= 9)
    (SPECTRAL, "np.stack(parts, axis=1)", "np.stack(parts, axis=0)",
     [node("spectral", "test_convolution_theorem"),
      node("estimate", "test_u2_partial_sums_equal_the_reference_state")], "kill"),
    (SPECTRAL, "    w.setflags(write=False)", "    pass", [T("spectral")], "kill"),
    (SPECTRAL, "    r.setflags(write=False)", "    pass", [T("spectral")], "kill"),
    (SPECTRAL, "u = int(np.argmax(w))", "u = int(np.argmax(np.abs(w)))", [T("spectral")],
     "kill"),
    (SPECTRAL, "if f.n != g.n:", "if False:", [T("spectral")], "kill"),
    (SPECTRAL, '2 * f.n, "terms")', 'f.n, "terms")', [node("spectral", "test_convolve_errors")],
     "kill"),
    # gowers and dyadic: the exact sums and their argument checks
    (GOWERS, "int(v) ** p * int(c)", "int(v) ** p", [T("gowers")], "kill"),
    # the definition's word guard; its refusal tests stub out the sum, so no mutant runs it
    (GOWERS, 'k * f.n + max(0, f.n - 6), "words")', '(k - 1) * f.n + max(0, f.n - 6), "words")',
     [node("gowers", "test_definition_refuses_before_any_work")], "kill"),
    (GOWERS, 'k * f.n + max(0, f.n - 6), "words")', 'k * f.n + f.n - 6, "words")',
     [node("gowers", "test_definition_guard_admits_the_words_it_xors")], "kill"),
    (GOWERS, 'k * f.n + max(0, f.n - 6), "words")', 'k * f.n + max(0, f.n - 7), "words")',
     [node("gowers", "test_definition_refuses_before_any_work"),
      node("gowers", "test_definition_guard_admits_the_words_it_xors")], "kill"),
    # the definition's packed count: a swap mask, the zero padding of blocks under 64 entries
    # (repeated bits instead), the in-word and the word-pair counts, and the doubling
    (GOWERS, "0x0000FFFF0000FFFF", "0x0000FFFF00FFFF00",
     [node("properties", "test_uk_definition_equals_the_byte_count")], "kill"),
    (GOWERS, "np.pad(packed, (0, -packed.size % 8))", "np.resize(packed, -(-packed.size // 8) * 8)",
     [node("properties", "test_uk_definition_equals_the_byte_count"),
      node("gowers", "test_u1_is_squared_bias")], "kill"),
    (GOWERS, "np.bitwise_and(np.bitwise_xor(hi, w, out=xs), m, out=xs)",
     "np.bitwise_xor(hi, w, out=xs)",
     [node("properties", "test_uk_definition_equals_the_byte_count")], "kill"),
    (GOWERS, "np.bitwise_xor(t[a + 1 :], t[a, 0], out=x[a + 1 :])",
     "np.bitwise_xor(t[a + 2 :], t[a, 0], out=x[a + 2 :])",
     [node("gowers", "test_definition_answers_past_one_byte_per_term")], "kill"),
    (GOWERS, "- 4 * pairs", "- 2 * pairs", [node("gowers", "test_u3_known_value")], "kill"),
    # D(x) = R(x) ^ R(x ^ e) equals D(x ^ e), so either x of each pair may stand for it
    (GOWERS, "m, out=xs)  # e's top bit is j", "~m, out=xs)  # e's top bit is j",
     [node("properties", "test_uk_definition_equals_the_byte_count"), T("gowers")],
     "equivalent"),
    (GOWERS, "if k < 3:", "if k < 2:", [T("gowers")], "kill"),
    (GOWERS, '(k - 1) * f.n, "transform entries")', '(k - 2) * f.n, "transform entries")',
     [node("gowers", "test_derivative_route_refuses_before_any_work")], "kill"),
    (DYADIC, "if log2_den < 0:", "if log2_den < -1:", [T("dyadic")], "kill"),
    (DYADIC, "if q.denominator != 1 << log2_den:", "if False:", [T("dyadic")], "kill"),
    (ERRORS, "if cost > budget:", "if cost >= budget:", [T("lintest")], "kill"),
    # estimate: the exact distribution, its sampler, the draw budget and the 3n <= 24 guard
    (ESTIMATE, "if count > DRAW_BUDGET:", "if count > 2 * DRAW_BUDGET:", [T("estimate")],
     "kill"),
    (ESTIMATE, "    check_layout(3, n)", "    check_layout(2, n)",
     [node("estimate", "test_u2_partial_sums_refuse_before_any_work")], "kill"),
    (ESTIMATE, "per = max(1, errors._BLOCK_CELLS >> 2 * n)",
     "per = errors._BLOCK_CELLS >> 2 * n", [T("estimate")], "kill"),
    (ESTIMATE, "part[0] += cum[(a << 2 * n) - 1] if a else 0", "part[0] += 0",
     [T("estimate")], "kill"),
    (ESTIMATE, "s = int(cum[-1]) if cum.size else 0", "s = int(cum[-1])",
     [T("estimate")], "kill"),
    (ESTIMATE, "if cum.dtype != np.int64:", "if cum.dtype.kind != \"i\":", [T("estimate")],
     "kill"),
    # y_bar: its chunked stream, the floor of r * S, the lookup and the one division
    (ESTIMATE, ".sum()) for size in _draw_sizes(m))", ".sum()) for size in [m])",
     [node("estimate", "test_y_bar_memory_does_not_grow_with_m")], "kill"),
    (ESTIMATE, "draws.astype(np.int64)", "np.rint(draws).astype(np.int64)", [T("estimate")],
     "kill"),
    (ESTIMATE, 'side="right"', 'side="left"', [T("estimate")], "kill"),
    (ESTIMATE, "    if m < 1:", "    if m < 0:", [T("estimate")], "kill"),
    (ESTIMATE, "return total / (cum.size * m)", "return total / (cum[-1] * m)",
     [T("estimate")], "kill"),
    # the outcome sum does not depend on the order of the draws; sorted, they are looked
    # up about twice as fast
    (ESTIMATE, "_lookup(cum, np.sort(rng.random(size)))", "_lookup(cum, rng.random(size))",
     [T("estimate"), node("cli", "test_estimate_at_24_qubits_is_pinned")], "equivalent"),
    # a draw just below and one just above a p0 that no float holds
    (ESTIMATE, "math.ceil(p0 * 2**53)", "math.floor(p0 * 2**53)",
     [node("lintest", "test_shots_compare_draws_with_the_exact_p0")], "kill"),
    (ESTIMATE, "rng.random(size) >= threshold", "rng.random(size) > threshold",
     [node("lintest", "test_shots_compare_draws_with_the_exact_p0")], "kill"),
    # lintest: the exact p0, the BLR cross-check, its draws and the verdict
    (LINTEST, "u2_spectral(f).pow_value ** 2", "float(u2_spectral(f).pow_value) ** 2",
     [node("lintest", "test_shots_compare_draws_with_the_exact_p0")], "kill"),
    (LINTEST, "if 2 * n <= MAX_N:", "if 2 * n < MAX_N:", [T("cli")], "kill"),
    # unchecked before the transform, the draws are refused only after it, in _draw_sizes
    (LINTEST, "    _check_draws(shots)", "    pass",
     [node("cli", "test_draw_budget_exits_3_before_any_work"),
      node("lintest", "test_samplers_refuse_the_draw_budget_before_the_transform")], "kill"),
    (LINTEST, "    _check_draws(trials)", "    pass",
     [node("cli", "test_draw_budget_exits_3_before_any_work"),
      node("lintest", "test_samplers_refuse_the_draw_budget_before_the_transform")], "kill"),
    (LINTEST, "y_rng.bit_generator.advance(trials // 2)",
     "y_rng.bit_generator.advance((trials + 1) // 2)", [T("lintest")], "kill"),
    (LINTEST, "    if trials % 2:", "    if False:", [T("lintest")], "kill"),
    (LINTEST, '"REJECT" if rejections else "ACCEPT"', '"REJECT" if rejections > 1 else "ACCEPT"',
     [T("lintest")], "kill"),
    (LINTEST, "_blr_trials(f, shots, child_seed(seed, 1))",
     "_blr_trials(f, shots, child_seed(seed, 0))", [T("lintest")], "kill"),
    # each exact complement rounded once, not 1.0 minus the rounded probability
    (LINTEST, "q_reject, blr_reject = 1 - p0, 1 - p_blr",
     "q_reject, blr_reject = 1 - float(p0), 1 - float(p_blr)",
     [node("lintest", "test_each_exact_float_is_one_rounding")], "kill"),
    # qsim: the circuit's checks, all in Circuit.__init__, the walk guard, the executor's
    # mesh and rows
    (QSIM, "return (self.m - register) * self.n", "return (self.m - register + 1) * self.n",
     [T("qsim")], "kill"),
    (QSIM, "check_layout(m, n)", "check_layout(m - 1, n)",
     [node("qsim", "test_register_layout")], "kill"),
    (QSIM, "k + (k + 1) * n,", "(k + 1) * n,", [node("qsim", "test_walk_work_guard")], "kill"),
    (QSIM, "if not 1 <= register <= m:", "if not 1 <= register:", [T("qsim")], "kill"),
    (QSIM, "if not 1 <= register <= m:", "if not 1 <= register < m:", [T("qsim")], "kill"),
    (QSIM, "for register in gate:", "for register in gate[:1]:",
     [node("qsim", "test_circuit_refuses_a_malformed_circuit")], "kill"),
    (QSIM, "if isinstance(gate, MCnot) and gate.target == gate.source:", "if False:",
     [node("qsim", "test_circuit_refuses_a_malformed_circuit")], "kill"),
    (QSIM, "if isinstance(gate, HadamardAll) and i == len(gates) - 1:",
     "if isinstance(gate, HadamardAll):",
     [node("qsim", "test_circuit_refuses_a_malformed_circuit")], "kill"),
    (QSIM, "if not isinstance(gate, (PhaseOracle, MCnot)):", "if isinstance(gate, HadamardAll):",
     [node("qsim", "test_circuit_refuses_a_malformed_circuit")], "kill"),
    (QSIM, "    def __setattr__(self, name, value):", "    def _setattr(self, name, value):",
     [node("qsim", "test_register_layout")], "kill"),
    # the walk's layout, refused after the walk guard, names the wrong rule
    (QSIM, "    Circuit(n, k + 1, ())  # the layout", "    pass  # the layout",
     [node("cli", "test_every_guard_refuses_before_any_kernel_runs")], "kill"),
    # a dataclass import loads dataclasses and inspect into every circuit command
    (QSIM, "from collections import Counter\n",
     "from collections import Counter\nfrom dataclasses import dataclass\n",
     [T("import_footprint")], "kill"),
    (QSIM, "ramp[: max(1, size >> ((m - r) * n))]", "ramp[: size >> ((m - r) * n)]",
     [T("qsim")], "kill"),
    (QSIM, "table[np.bitwise_xor.outer(ramp, ramp)]", "table[np.bitwise_or.outer(ramp, ramp)]",
     [T("qsim")], "kill"),
    # the block size read from spectral would load it, dyadic and fractions into simulate
    (QSIM, "from .errors import _BLOCK_CELLS as cells",
     "from .spectral import _BLOCK_CELLS as cells",
     [node("import_footprint", "test_simulate_loads_no_exact_arithmetic_module")], "kill"),
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
    # one changed byte in every JSON document
    (CLI, "json.dumps(out, indent=2)", "json.dumps(out, indent=1)", [T("golden")], "kill"),
    # the alias of bent, refused as an invalid choice
    (CLI, 'FAMILIES = ("linear", "bent", "random")',
     'FAMILIES = ("linear", "bent", "bent_quadratic", "random")',
     [node("cli", "test_numbers_are_checked_by_their_option")], "kill"),
    (CLI, "_check_draws(cfg.m * (1 + cfg.trials) if cfg.validate else cfg.m)",
     "_check_draws(cfg.m)", [node("cli", "test_draw_budget_exits_3_before_any_work")], "kill"),
    # without its own flush, the command's buffered stdout is lost at os._exit
    (CLI, "        sys.stdout.flush()  # a closed pipe raises here",
     "        pass  # a closed pipe raises here",
     [node("cli", "test_the_command_flushes_what_main_prints")], "kill"),
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


def _run(tests: list[str], mutant: tuple[str, str, str] | None = None) -> tuple[int, float, float]:
    """pytest's exit status on `tests` in a fresh copy, with `mutant` applied, its seconds
    and its peak resident set in MB."""
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
        proc = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code == -signal.SIGKILL:
            code = KILLED[0]
        return code, time.perf_counter() - start, usage.ru_maxrss / 1024  # KiB on Linux


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
    files = sorted({name.partition("::")[0] for *_, tests, _ in CATALOGUE for name in tests})
    code, seconds, _ = _run(files)
    print(f"unmutated {'passed' if code == 0 else f'exit {code}'} {seconds:.1f}s {' '.join(files)}",
          flush=True)
    if code != 0:
        return 1
    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    for path, original, replacement, tests, kind in CATALOGUE:
        code, seconds, peak_mb = _run(tests, (path, original, replacement))
        status = "killed" if code in KILLED else "survived" if code == 0 else f"exit-{code}"
        if status in counts:
            counts[status] += 1
        if status == "survived" and kind == "equivalent":
            counts["equivalent"] += 1
        failed |= status != ("killed" if kind == "kill" else "survived")
        print(f"{status:8} {kind:10} {seconds:5.1f}s {peak_mb:5.0f}MB "
              f"{path}:{lines[path, original]} {original.strip()!r} -> {replacement.strip()!r}",
              flush=True)
    print(f"{len(CATALOGUE)} mutants: {counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['equivalent']} of them recorded as equivalent")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
