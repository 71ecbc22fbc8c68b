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
    # bool tables are admitted, and the 0/1 check's two bounds are tight
    (BOOLFN, 'if arr.dtype.kind not in "biu":', 'if arr.dtype.kind not in "iu":',
     [node("boolfn", "test_table_validation")], "kill"),
    (BOOLFN, "if arr.min() < 0 or", "if arr.min() < -1 or",
     [node("boolfn", "test_table_validation")], "kill"),
    (BOOLFN, "or arr.max() > 1:", "or arr.max() > 2:", [T("boolfn")], "kill"),
    (BOOLFN, "self.table.setflags(write=False)", "pass", [T("boolfn")], "kill"),
    # a builder that checks and copies its table twice
    (BOOLFN, "return cls(n, bits[:size])", "return cls(n, cls(n, bits[:size]).table)",
     [node("boolfn", "test_every_function_is_built_by_the_checked_constructor_once")], "kill"),
    (BOOLFN, "anf.coeffs.setflags(write=False)", "pass", [T("boolfn")], "kill"),
    (BOOLFN, "digits = digits.strip()", "digits = digits", [T("boolfn")], "kill"),
    (BOOLFN, "if bits[size:].any():", "if bits[size + 1:].any():", [T("boolfn")], "kill"),
    (BOOLFN, "if not isinstance(u, str) or ", "if ",
     [node("boolfn", "test_linear_family")], "kill"),
    # a public Anf constructor: to_anf is its one source, so its tables go unchecked
    (BOOLFN, '__slots__ = ("n", "coeffs")',
     '__slots__ = ("n", "coeffs"); __init__ = lambda self, n, coeffs: None',
     [node("boolfn", "test_anf_has_no_public_constructor")], "kill"),
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
    # the correlation's word index b ^ (a >> 6) read as b | (a >> 6), wrong once a table spans
    # two words (n >= 7); its blocks unbounded, 2 MiB of gathered words at n = 12
    (SPECTRAL, "t[:, ramp[a : a + per, None] ^ ramp]", "t[:, ramp[a : a + per, None] | ramp]",
     [node("spectral", "test_convolve_equals_the_byte_references")], "kill"),
    (SPECTRAL, "per = max(1, errors._BLOCK_CELLS // t.nbytes)", "per = t.shape[1]",
     [node("lintest", "test_blr_memory_does_not_grow_with_trials")], "kill"),
    # one block per value of a >> 6: the same sums, gathered in more blocks
    (SPECTRAL, "per = max(1, errors._BLOCK_CELLS // t.nbytes)", "per = 1",
     [node("spectral", "test_convolve_equals_the_byte_references")], "equivalent"),
    # u2_partial_sums' rows F(x ^ s) ^ F(x) gathered as the translates F(x ^ s) alone
    (ESTIMATE, "rows = table[ramp ^ ramp[:, None]] ^ table", "rows = table[ramp ^ ramp[:, None]]",
     [node("estimate", "test_u2_partial_sums_equal_the_reference_state")], "kill"),
    (SPECTRAL, "    w.setflags(write=False)", "    pass", [T("spectral")], "kill"),
    (SPECTRAL, "    r.setflags(write=False)", "    pass", [T("spectral")], "kill"),
    (SPECTRAL, "u = int(np.argmax(w))", "u = int(np.argmax(np.abs(w)))", [T("spectral")],
     "kill"),
    (SPECTRAL, "if f.n != g.n:", "if False:", [T("spectral")], "kill"),
    # F's words taken from G: r(a) becomes G's autocorrelation, wrong wherever f != g
    (SPECTRAL, "_word_translates(f.table.reshape(-1, 1))",
     "_word_translates(g.table.reshape(-1, 1))",
     [node("spectral", "test_convolve_equals_the_byte_references")], "kill"),
    # r(a) = sum_y F(y) G(y ^ a) = sum_z G(z) F(z ^ a): which table is translated is free
    (SPECTRAL, "(f.table.reshape(-1, 1))[0, 0]  # F_b: 64 one-entry rows a word\n"
     "    t = _word_translates(g.table", "(g.table.reshape(-1, 1))[0, 0]  # F_b: 64 one-entry "
     "rows a word\n    t = _word_translates(f.table",
     [node("spectral", "test_convolve_equals_the_byte_references"), T("gowers")],
     "equivalent"),
    # convolve's word guard, uk_definition's rule at k = 1: one bit tighter, BLR silently skips
    # its enumeration at n = 15; one variable tighter, the same; its cost miscounted at n = 16;
    # unguarded, n = 16 is enumerated in ~0.2 s
    (SPECTRAL, 'f.n + max(0, f.n - 6), "words")', 'f.n + max(0, f.n - 6) + 1, "words")',
     [node("lintest", "test_blr_enumeration_capacity")], "kill"),
    (SPECTRAL, 'f.n + max(0, f.n - 6), "words")', 'f.n + max(0, f.n - 5), "words")',
     [node("lintest", "test_blr_enumeration_capacity")], "kill"),
    (SPECTRAL, 'f.n + max(0, f.n - 6), "words")', 'f.n + max(0, f.n - 7), "words")',
     [node("spectral", "test_convolve_errors")], "kill"),
    (SPECTRAL, 'f.n + max(0, f.n - 6), "words")', 'f.n, "words")',
     [node("spectral", "test_convolve_errors")], "kill"),
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
    # the packed words: a swap mask, the swap's two halves, the zero padding of rows under 64
    # entries (repeated bits instead); then the definition's in-word count, its word-pair
    # count and the doubling
    (SPECTRAL, "m = (2**64 - 1) // ((1 << s) + 1)", "m = (2**64 - 1) // ((1 << s) + 3)",
     [node("properties", "test_uk_definition_equals_the_byte_count"),
      node("spectral", "test_convolve_equals_the_byte_references")], "kill"),
    (SPECTRAL, "np.multiply(d, (1 << s) + 1, out=d)", "np.multiply(d, 1 << s, out=d)",
     [node("spectral", "test_convolve_equals_the_byte_references")], "kill"),
    (SPECTRAL, "np.concatenate((packed, np.zeros(-packed.size % 8, np.uint8)))",
     "np.resize(packed, -(-packed.size // 8) * 8)",
     [node("properties", "test_uk_definition_equals_the_byte_count"),
      node("gowers", "test_u1_is_squared_bias")], "kill"),
    (GOWERS, "pairs + int(np.bitwise_count(d).sum()) // 2",
     "pairs + int(np.bitwise_count(d).sum())",
     [node("properties", "test_uk_definition_equals_the_byte_count")], "kill"),
    (GOWERS, "np.bitwise_xor(t[a + 1 :], t[a, 0], out=t[a + 1 :])",
     "np.bitwise_xor(t[a + 2 :], t[a, 0], out=t[a + 2 :])",
     [node("gowers", "test_definition_answers_past_one_byte_per_term")], "kill"),
    (GOWERS, "- 4 * pairs", "- 2 * pairs", [node("gowers", "test_u3_known_value")], "kill"),
    # translate e = 0 meets no pair: its word XORed with itself counts no ones
    (GOWERS, "np.bitwise_xor(t[:, 1:], t[:, :1], out=t[:, 1:])",
     "np.bitwise_xor(t, t[:, :1], out=t)",
     [node("properties", "test_uk_definition_equals_the_byte_count"), T("gowers")],
     "equivalent"),
    # the word pairs XORed into a new array: t keeps its words, and every count is the same
    (GOWERS, "np.bitwise_xor(t[a + 1 :], t[a, 0], out=t[a + 1 :])",
     "np.bitwise_xor(t[a + 1 :], t[a, 0])",
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
    # the streams' set-up left out of validate_bound's budget, and a budget one draw short
    (ESTIMATE, "_check_draws(trials * (m + STREAM_SETUP_DRAWS))", "_check_draws(trials * m)",
     [node("estimate", "test_draw_budget_is_refused_before_the_first_draw")], "kill"),
    (ESTIMATE, "if count > DRAW_BUDGET:", "if count >= DRAW_BUDGET:",
     [node("estimate", "test_draw_budget_admits_its_streams_and_their_set_up")], "kill"),
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
    # the pooled means: the chunked stream, the floor of r * S from a raw word, shifted one
    # bit too little, the lookup and the one division
    (ESTIMATE, "keys = np.empty(_POOL_KEYS * max(1, cum.size >> 22), np.int64)",
     "keys = np.empty(max(m, _POOL_KEYS), np.int64)",
     [node("estimate", "test_y_bar_memory_does_not_grow_with_m")], "kill"),
    (ESTIMATE, "np.right_shift(_words(key, start, size), b + 1, out=view)",
     'np.copyto(view, np.rint((_words(key, start, size) >> 11) / 2**53 * s), casting="unsafe")',
     [T("estimate")], "kill"),
    (ESTIMATE, "_words(key, start, size), b + 1, out=view)",
     "_words(key, start, size), b, out=view)",
     [node("estimate", "test_y_bar_equals_the_fraction_inverse_cdf")], "kill"),
    (ESTIMATE, 'side="right"', 'side="left"', [T("estimate")], "kill"),
    (ESTIMATE, "    if m < 1:", "    if m < 0:", [T("estimate")], "kill"),
    (ESTIMATE, "int(total) / (cum.size * m)", "int(total) / (cum[-1] * m)", [T("estimate")],
     "kill"),
    # the outcome sum does not depend on the order of the keys; sorted, they are looked up
    # about twice as fast (test_validate_bound_looks_up_each_pool_once counts the sorts)
    (ESTIMATE, "        pool.sort()", "        pass",
     [node("estimate", "test_pooled_means_equal_each_streams_own_lookup"),
      node("estimate", "test_samplers_draw_the_same_streams_at_every_chunk_size"),
      node("estimate", "test_y_bar_equals_the_fraction_inverse_cdf"),
      node("cli", "test_estimate_at_24_qubits_is_pinned")], "equivalent"),
    # the pools: a slot cap one bit wider than the b-bit slot field, the last partial pool
    # dropped, a pool 16 times the size, lookup blocks the size of the pool, and a pool per
    # stream
    (ESTIMATE, "slot >> b:", "slot >> b + 1:",
     [node("estimate", "test_a_pool_holds_no_more_streams_than_its_slot_field")], "kill"),
    (ESTIMATE, "        slot += 1\n    yield from flush()", "        slot += 1",
     [node("estimate", "test_pooled_means_equal_each_streams_own_lookup")], "kill"),
    (ESTIMATE, "keys = np.empty(_POOL_KEYS *", "keys = np.empty(16 * _POOL_KEYS *",
     [node("estimate", "test_validate_bound_holds_one_pool_of_keys")], "kill"),
    (ESTIMATE, "shifted = np.empty(_DRAW_CHUNK, np.int64)",
     "shifted = np.empty(keys.size, np.int64)",
     [node("estimate", "test_validate_bound_holds_one_pool_of_keys")], "kill"),
    (ESTIMATE, "slot >> b:", "slot:",
     [node("estimate", "test_validate_bound_looks_up_each_pool_once")], "kill"),
    # validate_bound holding every trial's child seed, or every trial's mean, at once
    (ESTIMATE, "(child_seed(seed, i) for i in range(trials))",
     "[child_seed(seed, i) for i in range(trials)]",
     [node("estimate", "test_validate_bound_memory_does_not_grow_with_trials")], "kill"),
    (ESTIMATE, "means = _means(cum, m, (child_seed(seed, i) for i in range(trials)))",
     "means = list(_means(cum, m, (child_seed(seed, i) for i in range(trials))))",
     [node("estimate", "test_validate_bound_memory_does_not_grow_with_trials")], "kill"),
    # a draw just below and one just above a p0 that no float holds
    (ESTIMATE, "math.ceil(p0 * 2**53)", "math.floor(p0 * 2**53)",
     [node("lintest", "test_shots_compare_draws_with_the_exact_p0")], "kill"),
    (ESTIMATE, "_words(key, start, size) >= least", "_words(key, start, size) > least",
     [node("lintest", "test_shots_compare_draws_with_the_exact_p0")], "kill"),
    # the stream: a word's position, the key fold's limb counts, a finalizer round, the table
    # of steps cut to one chunk, and numpy.random back in a sampling module or the CLI
    (ESTIMATE, "np.uint64(key + start * _GAMMA & 2**64 - 1)",
     "np.uint64(key + start & 2**64 - 1)",
     [node("estimate", "test_the_stream_is_pinned_and_read_by_position")], "kill"),
    (ESTIMATE, "for value in (*limbs, len(limbs)):", "for value in limbs:",
     [node("estimate", "test_child_seed")], "kill"),
    (ESTIMATE, "    z ^= z >> 31\n    return z", "    return z",
     [node("estimate", "test_the_stream_is_pinned_and_read_by_position")], "kill"),
    (ESTIMATE, "_steps(max(count, _DRAW_CHUNK))", "_steps(_DRAW_CHUNK)",
     [node("estimate", "test_the_stream_is_pinned_and_read_by_position")], "kill"),
    (ESTIMATE, "if not isinstance(part, int) or part < 0:", "if not isinstance(part, int):",
     [node("estimate", "test_a_seed_is_an_int_a_pair_or_none")], "kill"),
    (ESTIMATE, "import numpy as np\n", "import numpy as np\nimport numpy.random\n",
     [node("import_footprint", "test_sampling_loads_no_numpy_random")], "kill"),
    (CLI, 'cfg.seed = int.from_bytes(os.urandom(16), "big")',
     'cfg.seed = int(__import__("numpy.random").random.SeedSequence().entropy)',
     [node("import_footprint", "test_sampling_loads_no_numpy_random")], "kill"),
    # spectral imported with estimate: a random table for simulate loads the exact arithmetic
    (ESTIMATE, "from . import errors\n", "from . import errors, spectral\n",
     [node("import_footprint", "test_simulate_loads_no_exact_arithmetic_module")], "kill"),
    # random_function's bytes read big-endian
    (BOOLFN, '.astype("<u8", copy=False).view(np.uint8)',
     '.astype(">u8", copy=False).view(np.uint8)',
     [node("boolfn", "test_random_tables_are_the_top_bits_of_the_streams_bytes")], "kill"),
    # lintest: the exact p0, the BLR cross-check, its draws and the verdict
    (LINTEST, "u2_spectral(f).pow_value ** 2", "float(u2_spectral(f).pow_value) ** 2",
     [node("lintest", "test_shots_compare_draws_with_the_exact_p0")], "kill"),
    # BLR past convolve's guard: the refusal propagates instead of the spectral value
    (LINTEST, "    except CapacityError:  # past n + max(0, n-6) <= 24",
     "    except ValueError:  # past n + max(0, n-6) <= 24",
     [node("lintest", "test_blr_enumeration_capacity")], "kill"),
    # BLR's gathers: the xs' entries read at the ys; points from the top n + 1 bits
    (LINTEST, "table.take(xs) ^ table.take(ys)", "table.take(ys) ^ table.take(ys)",
     [node("lintest", "test_blr_gathers_equal_the_fancy_index_reference")], "kill"),
    (LINTEST, "_key(seed), 32 - f.n,", "_key(seed), 31 - f.n,",
     [node("lintest", "test_blr_gathers_equal_the_fancy_index_reference")], "kill"),
    # unchecked before the transform, the draws are refused only after it, in _draw_chunks
    (LINTEST, "    _check_draws(shots)", "    pass",
     [node("cli", "test_draw_budget_exits_3_before_any_work"),
      node("lintest", "test_samplers_refuse_the_draw_budget_before_the_transform")], "kill"),
    (LINTEST, "    _check_draws(trials)", "    pass",
     [node("cli", "test_draw_budget_exits_3_before_any_work"),
      node("lintest", "test_samplers_refuse_the_draw_budget_before_the_transform")], "kill"),
    # the ys read one half past the xs' end, or from the low half where they start on a high
    # one (odd trials), or one word short there
    (LINTEST, "for at in (start, trials + start))", "for at in (start, trials + start + 1))",
     [T("lintest")], "kill"),
    (LINTEST, "[at & 1 :][:count]", "[:count]", [T("lintest")], "kill"),
    (LINTEST, "count + 2 >> 1)", "count + 1 >> 1)", [T("lintest")], "kill"),
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
    (QSIM, "if f is None or f.n != n:", "if f is None:", [T("qsim")], "kill"),
    # the amplitude at 0 read without the final HALL, where the sum of signs is not at 0
    (QSIM, "if not (circuit.gates and isinstance(circuit.gates[-1], HadamardAll)):", "if False:",
     [node("qsim", "test_phase_oracle_needs_matching_function")], "kill"),
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
    # y_bar's own stream, or every stream's set-up, left out of the validate pre-check
    (CLI, "(1 + cfg.trials) * (cfg.m + STREAM_SETUP_DRAWS)",
     "cfg.trials * (cfg.m + STREAM_SETUP_DRAWS)",
     [node("cli", "test_draw_budget_exits_3_before_any_work")], "kill"),
    (CLI, "(1 + cfg.trials) * (cfg.m + STREAM_SETUP_DRAWS)", "(1 + cfg.trials) * cfg.m",
     [node("cli", "test_every_guard_refuses_before_any_kernel_runs")], "kill"),
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
