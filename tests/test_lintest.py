"""Quantum linearity test, classical BLR, rejection bounds, comparison."""

import functools
import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stream_reference as stream
from closed_forms import random_quadratic
from gate_reference import lookup
from packed import from_packed

from gowersim import cli, estimate, lintest, spectral
from gowersim.boolfn import (
    BooleanFunction,
    bent_quadratic,
    linear,
    random_function,
)
from gowersim.dyadic import DyadicRational
from gowersim.errors import CapacityError, CrossCheckError
from gowersim.estimate import child_seed, u2_partial_sums
from gowersim.gowers import u2_spectral
from gowersim.lintest import (
    BLR_QUERIES_PER_TRIAL,
    QUANTUM_QUERIES_PER_SHOT,
    blr_exact_dyadic,
    blr_test,
    compare,
    quantum_linearity_test,
    rejection_lower_bound,
)
from gowersim.spectral import convolve, dist_to_linear, walsh

from_anf_string = BooleanFunction.from_anf_string


def test_linear_always_accepts():
    for u in ("000", "011", "111"):
        verdict = quantum_linearity_test(linear(3, u), shots=1000, seed=7)
        assert verdict["verdict"] == "ACCEPT"
        assert verdict["rejection_frequency"] == 0.0
        assert verdict["accept_probability_exact"] == 1.0


def test_affine_complement_also_accepts():
    # the test measures ||f||_{U_2}^8, which is 1 for every affine function,
    # so the constant-1 function is accepted even though it is not linear
    verdict = quantum_linearity_test(from_anf_string("1", 2), shots=500, seed=1)
    assert verdict["verdict"] == "ACCEPT"
    assert verdict["accept_probability_exact"] == 1.0


def test_and_rejection_probability():
    f = from_anf_string("x1*x2", 2)
    verdict = quantum_linearity_test(f, shots=20_000, seed=404)
    assert verdict["accept_probability_exact"] == 1 / 16
    p_rej = 15 / 16
    sigma = math.sqrt(p_rej * (1 - p_rej) / verdict["shots"])
    assert verdict["verdict"] == "REJECT"
    assert abs(verdict["rejection_frequency"] - p_rej) <= 4 * sigma


def test_exact_mode():
    # there is no count-0 exact mode: every verdict is sampled from >= 1 draws
    with pytest.raises(ValueError, match="shots must be >= 1"):
        quantum_linearity_test(from_anf_string("x1*x2", 2), shots=0)
    with pytest.raises(ValueError, match="shots must be >= 1"):
        quantum_linearity_test(linear(4, "1001"), shots=0)
    assert quantum_linearity_test(linear(4, "1001"), shots=1, seed=3)["mode"] == "sampled"

    with pytest.raises(ValueError):
        quantum_linearity_test(linear(2, "01"), shots=-1)


def test_rejection_lower_bound_values():
    b = rejection_lower_bound(0.1)
    assert b.keys() == {"exact", "exponential"}
    assert b["exact"] == pytest.approx(0.5904)
    assert b["exponential"] == pytest.approx(1 - math.exp(-0.8))
    assert rejection_lower_bound(0.5)["exact"] == pytest.approx(1.0)
    for bad in (0.0, -0.2, 0.51, 1.0):
        with pytest.raises(ValueError):
            rejection_lower_bound(bad)


def test_blr_known_values():
    assert blr_exact_dyadic(from_anf_string("x1*x2", 2)) == DyadicRational(5, 3)
    assert blr_exact_dyadic(bent_quadratic(4)) == DyadicRational(17, 5)
    assert blr_exact_dyadic(linear(3, "101")) == DyadicRational(1, 0)
    # constant 1 fails BLR often: F(x)+F(y) = 0 but F(x+y) = 1 always
    assert blr_exact_dyadic(from_anf_string("1", 2)) == DyadicRational(0, 0)


def blr_enumerated(f):
    """The BLR acceptance probability from all 2^(2n) pairs, via the XOR correlation."""
    s = int(np.dot(f.sign_table(), convolve(f, f)))
    return Fraction((1 << (2 * f.n)) + s, 1 << (2 * f.n + 1))


def test_blr_routes_agree_exactly():
    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            f = random_function(n, int(rng.integers(0, 2**32)))
            assert blr_exact_dyadic(f) == blr_enumerated(f)


def test_blr_brute_force_oracle():
    # independent O(4^n) check straight from the definition
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        f = random_function(n, int(rng.integers(0, 2**32)))
        size, t = 1 << n, f.table.tolist()
        good = sum(1 for x in range(size) for y in range(size) if t[x] ^ t[y] == t[x ^ y])
        assert blr_exact_dyadic(f) == Fraction(good, size * size)


def test_blr_enumeration_capacity(monkeypatch):
    f = random_function(16, 3)
    with pytest.raises(CapacityError):
        convolve(f, f)
    # above the cutoff only the spectral value is computed: convolve refuses before its kernel
    s3 = int((walsh(f) ** 3).sum())
    with mock.patch.object(spectral, "_word_translates", side_effect=AssertionError("enumerated")):
        assert blr_exact_dyadic(f) == Fraction((1 << 48) + s3, 1 << 49)
    # BLR reads convolve's refusal as "too many pairs", so a guard one bit tighter would skip
    # the enumeration silently: at n + max(0, n-6) = 24 words the correlation runs and is compared
    returned = []

    def recording(f, g):
        returned.append(convolve(f, g))
        return returned[-1]

    monkeypatch.setattr(lintest, "convolve", recording)
    f = random_function(15, 3)
    assert blr_exact_dyadic(f) == blr_enumerated(f)
    assert len(returned) == 1


@pytest.mark.parametrize("n", [13, 15])
def test_blr_enumerates_its_pairs_up_to_n15(monkeypatch, n):
    # n = 13 and 15 lie within the correlation's n + max(0, n-6) <= 24 words
    calls = []

    def counting(f, g):
        calls.append(f.n)
        return convolve(f, g)

    monkeypatch.setattr(lintest, "convolve", counting)
    f = random_function(n, 5)
    s3 = int((walsh(f) ** 3).sum())
    assert blr_exact_dyadic(f) == Fraction((1 << 3 * n) + s3, 1 << 3 * n + 1)
    assert calls == [n]


def test_blr_cross_check_fires_at_n15(monkeypatch):
    # one entry of the enumeration's correlation off by 2: the two routes disagree
    def perturbed(f, g):
        r = convolve(f, g).copy()
        r[12345] += 2
        return r

    monkeypatch.setattr(lintest, "convolve", perturbed)
    with pytest.raises(CrossCheckError, match="^BLR routes disagree: spectral "):
        blr_exact_dyadic(random_function(15, 5))


def test_samplers_refuse_the_draw_budget_before_the_transform(monkeypatch):
    # arithmetic only: the budget is patched down, never run at its real size
    monkeypatch.setattr(estimate, "DRAW_BUDGET", 1000)
    monkeypatch.setattr(lintest, "u2_spectral", None)
    monkeypatch.setattr(lintest, "walsh", None)
    f = bent_quadratic(2)
    for call in (lambda: quantum_linearity_test(f, 1001, 1), lambda: blr_test(f, 1001, 1),
                 lambda: compare(f, 1001, 1)):
        with pytest.raises(CapacityError, match="^1001 draws > the draw budget of 1000$"):
            call()


@pytest.mark.parametrize("n", [1, 4, 12, 20])
def test_blr_rejections_match_int64_draws(n):
    # points and table entries as Python ints, from the pure-Python reference of the stream
    for seed in (0, 1, 2024):
        f = random_function(n, seed + 17)
        trials = 5001
        rejections = stream.blr_rejections(f.table.tolist(), trials, seed)
        assert blr_test(f, trials, seed)["rejection_frequency"] == rejections / trials


def test_blr_sampled():
    f = from_anf_string("x1*x2", 2)
    verdict = blr_test(f, trials=50_000, seed=77)
    assert verdict["accept_probability_exact"] == 5 / 8
    sigma = math.sqrt(0.375 * 0.625 / 50_000)
    assert abs(verdict["rejection_frequency"] - 0.375) <= 4 * sigma

    with pytest.raises(ValueError, match="trials must be >= 1"):
        blr_test(f, trials=0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        blr_test(linear(3, "010"), trials=0)

    ok = blr_test(linear(3, "010"), trials=2000, seed=5)
    assert ok["verdict"] == "ACCEPT" and ok["rejection_frequency"] == 0.0


def blr_one_call_rejections(f, trials, seed):
    """BLR rejections with all xs, then all ys, read at once: the top n bits of the reference
    stream's uint32 halves [0, trials) and [trials, 2 trials)."""
    xs, ys = (np.array(stream.halves(seed, at, trials), np.uint32) >> 32 - f.n
              for at in (0, trials))
    t = f.table
    return int(np.count_nonzero(t[xs] ^ t[ys] ^ t[xs ^ ys]))


@functools.lru_cache(maxsize=None)
def cached_random_function(n):
    return random_function(n, 900 + n)


@st.composite
def chunks_and_trials(draw):
    """A patched draw chunk and a trial count, often chunk - 1, chunk or chunk + 1 times k."""
    chunk = draw(st.sampled_from([7, 1000]))
    near_edge = st.builds(lambda k, d: k * chunk + d, st.integers(1, 3), st.integers(-1, 1))
    return chunk, draw(near_edge | st.integers(1, 3 * chunk + 2))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24), chunks_and_trials(), st.integers(0, 2**128 - 1))
def test_chunked_blr_equals_one_call_draws(n, chunk_and_trials, seed):
    chunk, trials = chunk_and_trials
    f = cached_random_function(n)
    # only the draws are under test: skip the exact route's 2^n-point FWHT
    with mock.patch.object(estimate, "_DRAW_CHUNK", chunk), \
            mock.patch.object(lintest, "blr_exact_dyadic", return_value=DyadicRational(1, 1)):
        got = blr_test(f, trials, seed)["rejection_frequency"]
    assert got == blr_one_call_rejections(f, trials, seed) / trials


@pytest.mark.parametrize("trials", [1, 2, 8191, 8192, 8193, 65535, 65536, 65537, 200001])
def test_chunked_blr_at_the_real_chunk_size(trials):
    assert estimate._DRAW_CHUNK == 8192
    f = cached_random_function(10)
    got = blr_test(f, trials, 31337)["rejection_frequency"]
    assert got == blr_one_call_rejections(f, trials, 31337) / trials


@pytest.mark.parametrize("chunk", [1 << 4, 1 << 13, 1 << 16])
@pytest.mark.parametrize("trials", [70_000, 70_001])
def test_blr_trials_are_equal_at_every_chunk_size(monkeypatch, chunk, trials):
    # odd trials start the ys on the high half of a 64-bit word, at every chunk size
    f = cached_random_function(10)
    monkeypatch.setattr(estimate, "_DRAW_CHUNK", chunk)
    assert lintest._blr_trials(f, trials, 8)[1] == blr_one_call_rejections(f, trials, 8)


@pytest.mark.parametrize("n", range(1, 13))
def test_blr_gathers_equal_the_fancy_index_reference(n):
    f = random_function(n, 1200 + n)
    for trials, seed in ((1, 0), (4097, 1), (70001, 2)):
        assert lintest._blr_trials(f, trials, seed)[1] == blr_one_call_rejections(f, trials, seed)


def test_unseeded_blr_draws_its_ys_after_its_xs_from_one_generator():
    # a second fresh seed for the ys would start them on fresh entropy: here 999's stream
    f = cached_random_function(10)
    entropy = iter([(4242).to_bytes(16, "big"), (999).to_bytes(16, "big")])
    with mock.patch.object(estimate.os, "urandom", lambda size: next(entropy)):
        got = blr_test(f, 5001)["rejection_frequency"]
    assert got == blr_one_call_rejections(f, 5001, 4242) / 5001


def test_blr_memory_does_not_grow_with_trials():
    # 10^6 trials drawn at once held ~13 MiB of xs, ys and gathers, chunks of 2^16 ~1.4 MiB
    f = random_function(12, 5)
    tracemalloc.start()
    try:
        blr_test(f, 10**6, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19


def test_compare_report():
    f = from_anf_string("x1*x2", 2)
    rep = compare(f, shots=20_000, seed=123)
    assert rep["n"] == 2
    assert rep["function_tt_hex"] == "1"
    assert rep["eps"] == 0.25
    assert rep["nonlinearity"] == 1
    assert rep["quantum_reject_exact"] == 15 / 16
    assert rep["blr_reject_exact"] == 3 / 8
    assert rep["quantum_reject_bound"] == 15 / 16  # tight for AND
    assert rep["quantum_queries_per_shot"] == QUANTUM_QUERIES_PER_SHOT == 4
    assert rep["blr_queries_per_trial"] == BLR_QUERIES_PER_TRIAL == 3
    assert rep["quantum_reject_per_query"] == 15 / 64
    assert rep["blr_reject_per_query"] == 1 / 8
    sigma_q = math.sqrt((15 / 16) * (1 / 16) / rep["shots"])
    assert abs(rep["quantum_reject_freq"] - 15 / 16) <= 4 * sigma_q

    # the CSV columns are every key but the exact eps, which comes last
    assert list(rep)[:2] == ["n", "function_tt_hex"]
    assert list(rep)[-2:] == ["eps_num", "eps_log2_den"]


def test_compare_is_seeded():
    f = bent_quadratic(4)
    a = compare(f, shots=3000, seed=9)
    b = compare(f, shots=3000, seed=9)
    assert a == b
    with pytest.raises(ValueError):
        compare(f, shots=0, seed=9)


def test_rejection_bound_holds_with_affine_distance():
    # p_accept <= (1 - 2 delta)^4 where delta = nl/2^n is the distance to the
    # nearest affine function; exact dyadic comparison, exhaustive at n = 2, 3
    from gowersim.spectral import nonlinearity

    for n in (2, 3):
        for bits in range(1 << (1 << n)):
            f = from_packed(n, bits)
            p_accept = u2_spectral(f).pow_value ** 2
            cap = DyadicRational(int(np.abs(walsh(f)).max()) ** 4, 4 * n)
            assert p_accept <= cap


def test_signed_distance_bound_has_counterexamples():
    # The analogous bound written with the distance to *linear* functions
    # fails: complementing one bit of 1 + x1 at n = 3 gives eps = 3/8 but
    # p_accept = (11/32)^2, far above (1 - 2*eps)^4 = 1/256.  This pins the
    # behaviour the acceptance gate in test_acceptance.py documents as red.
    f = BooleanFunction(3, [0, 1, 1, 1, 0, 0, 0, 0])
    eps, _ = dist_to_linear(f)
    assert eps == DyadicRational(3, 3)
    p_accept = u2_spectral(f).pow_value ** 2
    assert p_accept == DyadicRational(11, 5) ** 2
    bound = DyadicRational(1, 8)  # (1 - 2 eps)^4 = (1/4)^4
    assert p_accept > bound

    violations = 0
    for bits in range(1 << 8):
        g = from_packed(3, bits)
        eps_g, _ = dist_to_linear(g)
        if not DyadicRational(0, 0) < eps_g < DyadicRational(1, 1):
            continue
        one_minus_2eps = DyadicRational(1, 0) - eps_g - eps_g
        if u2_spectral(g).pow_value ** 2 > one_minus_2eps**4:
            violations += 1
    assert violations > 0


# ---------------------------------------------------------------------------
# the state-free test against the full-state oracle: u2_partial_sums + the sorted lookup
# ---------------------------------------------------------------------------


def state_verdict(f, shots, seed):
    """quantum_linearity_test computed from the u2 circuit's final state."""
    cum = u2_partial_sums(f)
    p_accept = float(Fraction(int(cum[0]), int(cum[-1])))  # num[0]^2 / 2^(2q)
    draws = np.sort(np.array(stream.draws(seed, shots)))  # the stream of the shots
    rejections = int(np.count_nonzero(lookup(cum, draws)))
    return {
        "verdict": "REJECT" if rejections else "ACCEPT", "mode": "sampled", "shots": shots,
        "accept_probability_exact": p_accept, "rejection_frequency": rejections / shots,
        "seed": seed,
    }


@st.composite
def near_affine(draw, max_n=6):
    """An affine function with some table entries flipped, so p0 spans (0, 1]."""
    n = draw(st.integers(1, max_n))
    u = format(draw(st.integers(0, (1 << n) - 1)), f"0{n}b")
    table = linear(n, u).table ^ draw(st.integers(0, 1))
    flips = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=1 << (n - 1)))
    table[flips] ^= 1
    return BooleanFunction(n, table)


@settings(max_examples=150, deadline=None)
@given(near_affine(), st.integers(1, 3000), st.integers(0, 2**128 - 1))
def test_quantum_test_matches_state_sampler(f, shots, seed):
    got = quantum_linearity_test(f, shots, seed)
    assert json.dumps(got) == json.dumps(state_verdict(f, shots, seed))
    with pytest.raises(ValueError):
        quantum_linearity_test(f, 0, seed)


@settings(max_examples=80, deadline=None)
@given(near_affine(), st.integers(1, 3000), st.integers(0, 2**128 - 1))
def test_compare_matches_state_sampler(f, shots, seed):
    report = compare(f, shots, seed)
    oracle = state_verdict(f, shots, child_seed(seed, 0))
    cum = u2_partial_sums(f)
    reject = 1 - Fraction(int(cum[0]), int(cum[-1]))  # exact, rounded once below
    expected = {
        **report,
        "quantum_reject_exact": float(reject),
        "quantum_reject_freq": oracle["rejection_frequency"],
        "quantum_reject_per_query": float(reject / QUANTUM_QUERIES_PER_SHOT),
    }
    assert json.dumps(report) == json.dumps(expected)


def test_compare_pinned_at_n8():
    # values from the full-state sampler at 24 qubits (gate_reference.permuted_run) on the
    # reference stream's draws, and from the reference's BLR points
    table = linear(8, "10110101").table.copy()  # the function's own table is read-only
    table[[3, 77, 200]] ^= 1
    rep = compare(BooleanFunction(8, table), shots=50_000, seed=8080)
    assert rep["function_tt_hex"].startswith("4a5aa5a5a5a55a5a")
    assert (rep["eps_num"], rep["eps_log2_den"], rep["nonlinearity"]) == (3, 8, 3)
    assert rep["quantum_reject_exact"] == 0.17278350674223475
    assert rep["quantum_reject_freq"] == 0.1724
    assert rep["quantum_reject_per_query"] == 0.04319587668555869
    assert rep["blr_reject_exact"] == 0.034332275390625
    assert rep["blr_reject_freq"] == 0.03494


# ---------------------------------------------------------------------------
# past the circuit's 24 qubits: the state-free test runs wherever the truth table does
# ---------------------------------------------------------------------------

# x1 + x2 with F(1...1) flipped.  sum_u W(u)^4 = 2^n sum_a r(a)^2 with 4 | r(a), so
# p0 = (sum W^4)^2 / 2^(8n) fits 53 bits up to n = 10; at n = 11 this p0 rounds down
NEAR_LINEAR_11 = "x1 + x2 + " + "*".join(f"x{i}" for i in range(1, 12))


def constant_words(draw):
    """A stream whose every word is the draw r = (w >> 11) / 2^53 = `draw`."""
    return lambda key, start, count: np.full(count, int(draw * 2**53) << 11, np.uint64)


def test_shots_compare_draws_with_the_exact_p0(monkeypatch):
    f = from_anf_string(NEAR_LINEAR_11, 11)
    p0 = u2_spectral(f).pow_value ** 2
    below = float(p0)  # correctly rounded; p0 >= 1/2, so a multiple of 2^-53
    above = below + 2.0**-53
    assert Fraction(1, 2) <= Fraction(below) < p0 < Fraction(above)
    for draw, verdict in ((below, "ACCEPT"), (above, "REJECT")):
        monkeypatch.setattr(estimate, "_words", constant_words(draw))
        got = quantum_linearity_test(f, 1, 7)
        assert (got["verdict"], got["accept_probability_exact"]) == (verdict, below)


@pytest.mark.parametrize("n", [9, 11, 12, 13])
def test_shot_counts_equal_the_integer_reference(n):
    # a draw r = i / 2^53 rejects iff i >= p0 * 2^53, compared exactly
    rng = np.random.default_rng(n)
    table = linear(n, format(int(rng.integers(1 << n)), f"0{n}b")).table.copy()
    table[rng.integers(0, 1 << n, 1 << (n - 5))] ^= 1
    f = BooleanFunction(n, table)
    p0 = u2_spectral(f).pow_value ** 2
    shots, seed = 20_000, 100 + n
    steps = [word >> 11 for word in stream.words(stream.key(seed), 0, shots)]
    rejections = sum(Fraction(i, 1 << 53) >= p0 for i in steps)
    assert quantum_linearity_test(f, shots, seed)["rejection_frequency"] == rejections / shots


@pytest.mark.parametrize("n", [11, 20])
def test_each_exact_float_is_one_rounding(n):
    # x1 + x2 with F(1...1) flipped: 1.0 - float(p0) misses float(1 - p0) by an ulp here.
    # BLR's complement, rejecting pairs over 2^(2n), fits 53 bits up to n = 26
    f = from_anf_string("x1 + x2 + " + "*".join(f"x{i}" for i in range(1, n + 1)), n)
    p0, p_blr, eps = u2_spectral(f).pow_value ** 2, blr_exact_dyadic(f), dist_to_linear(f)[0]
    assert 1.0 - float(p0) != float(1 - p0)
    assert quantum_linearity_test(f, 10, 5)["accept_probability_exact"] == float(p0)
    assert blr_test(f, 10, 5)["accept_probability_exact"] == float(p_blr)
    row = compare(f, 10, 5)
    assert row["eps"] == float(eps)
    assert row["quantum_reject_exact"] == float(1 - p0)
    assert row["quantum_reject_per_query"] == float((1 - p0) / QUANTUM_QUERIES_PER_SHOT)
    assert row["blr_reject_exact"] == float(1 - p_blr)
    assert row["blr_reject_per_query"] == float((1 - p_blr) / BLR_QUERIES_PER_TRIAL)


def cli_json(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out)


def test_lintest_and_compare_run_to_the_table_limit(capsys):
    for n in (9, 16, 20):
        q = random_quadratic(n, n)
        p0 = q.u2_pow() ** 2
        function = ("--anf", q.anf(), "-n", str(n), "--seed", "3", "--shots", "2000")
        assert cli_json(capsys, "lintest", *function)["accept_probability_exact"] == float(p0)
        row = cli_json(capsys, "compare", *function)
        assert row["quantum_reject_exact"] == float(1 - p0)
        assert row["nonlinearity"] == q.nonlinearity()
    # past 24 variables the truth table is refused, before any circuit is considered
    code = cli.main(["lintest", "--family", "random", "-n", "25", "--seed", "1"])
    assert (code, *capsys.readouterr()) == (
        3, "", "error: n = 25 exceeds the supported maximum 24: 2^25 table entries > 2^24\n")


# ---------------------------------------------------------------------------
# the paper's "better than BLR" claim, exactly, for every function at n = 4
# ---------------------------------------------------------------------------


def all_spectra_n4():
    """W of all 65,536 functions at n = 4, row `bits` for from_packed(4, bits).

    One int64 product with the 16 x 16 Hadamard matrix, independent of the library's FWHT.
    """
    points = np.arange(16)
    tables = (np.arange(1 << 16)[:, None] >> points) & 1  # bit idx(x) of `bits` is F(x)
    hadamard = 1 - 2 * (np.bitwise_count(points[:, None] & points) & 1).astype(np.int64)
    return (1 - 2 * tables) @ hadamard


def test_quantum_test_against_blr_for_every_function_at_n4():
    # per shot the quantum test rejects with 1 - ||f||^8 = (2^32 - S4^2) / 2^32 and
    # BLR with 1 - (2^12 + S3) / 2^13 = 2^19 (2^12 - S3) / 2^32, where Sp = sum_u W(u)^p
    w = all_spectra_n4()
    s3, s4 = (w**3).sum(axis=1), (w**4).sum(axis=1)
    quantum = (1 << 32) - s4 * s4
    blr = (1 << 19) * ((1 << 12) - s3)

    def counts(q, b):
        return int((q > b).sum()), int((q < b).sum()), int((q == b).sum())

    # more, less, equal: per query each side is divided by its queries per shot (4 and 3)
    assert counts(3 * quantum, 4 * blr) == (63_568, 1_952, 16)
    assert counts(quantum, blr) == (65_248, 272, 16)
    # the 16 linear functions tie at 0; their 16 complements are accepted by the
    # quantum test with certainty and rejected by BLR with certainty
    linear_rows = [linear(4, format(u, "04b")).packed for u in range(16)]
    assert not quantum[linear_rows].any() and not blr[linear_rows].any()
    complements = [row ^ 0xFFFF for row in linear_rows]
    assert not quantum[complements].any() and (blr[complements] == 1 << 32).all()

    # the same exact values as the library's routes
    for bits in np.random.default_rng(4).integers(0, 1 << 16, 64):
        f = from_packed(4, int(bits))
        assert u2_spectral(f).pow_value == Fraction(int(s4[bits]), 1 << 16)
        assert blr_exact_dyadic(f) == Fraction((1 << 12) + int(s3[bits]), 1 << 13)
