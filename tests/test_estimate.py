"""The sampled mean of the norm circuit's outcomes and the Hoeffding-style norm estimator."""

import functools
import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gowersim import errors, estimate, spectral
from gowersim.boolfn import BooleanFunction, bent_quadratic, linear, random_function
from gowersim.errors import CapacityError, CrossCheckError
from gowersim.estimate import (
    child_seed,
    count_nonzero_outcomes,
    hoeffding_bound,
    u2_partial_sums,
    validate_bound,
    y_bar,
)
from gowersim.gowers import u2_spectral
from gowersim.qsim import Circuit, build_derivative_walk_circuit
from gowersim.spectral import fwht_inplace

import stream_reference as stream
from gate_reference import fold, lookup, partial_sums, permuted_run, uniform_state
from packed import from_packed

from_anf_string = BooleanFunction.from_anf_string


def u2_sums_and_norm(f):
    """The partial sums of the norm circuit's final state and the exact U2 norm they bound."""
    return u2_partial_sums(f), u2_spectral(f).norm


def reference_draws(seed, m):
    """The first m draws of the stream of `seed`, from the pure-Python reference."""
    return np.array(stream.draws(seed, m))


def sorted_outcomes(cum, m, seed):
    """The outcomes of the draws of y_bar(cum, m, seed), in sorted-draw order."""
    return lookup(cum, np.sort(reference_draws(seed, m)))


def point_mass(regs, index):
    """The partial sums of a state with all its weight on one basis index of regs' qubits."""
    num = np.zeros(1 << regs.qubits, dtype=np.int32)
    num[index] = 1
    return partial_sums(num)


def test_lookup_y_convention():
    # measured register contents (01, 10, 11) at n = 2 pack to index 27 of 64
    regs = Circuit(2, 3, ())
    idx = (0b01 << regs.shift(1)) | (0b10 << regs.shift(2)) | (0b11 << regs.shift(3))
    assert idx == 27
    outcomes = sorted_outcomes(point_mass(regs, idx), 10, 1)
    assert np.all(outcomes == 27)
    assert np.all(outcomes / (1 << regs.qubits) == 27 / 64)
    assert outcomes.size == 10
    assert y_bar(point_mass(regs, idx), 10, 1) == 27 / 64

    zeros = sorted_outcomes(point_mass(regs, 0), 5, 1)
    assert np.all(zeros / (1 << regs.qubits) == 0.0)
    assert y_bar(point_mass(regs, 0), 5, 1) == 0.0


def test_lookup_matches_distribution():
    # frequency of the zero outcome for AND must track p0 = 1/16
    f = from_anf_string("x1*x2", 2)
    m = 100_000
    outcomes = sorted_outcomes(u2_partial_sums(f), m, 2718)
    freq = np.count_nonzero(outcomes == 0) / m
    p = 1 / 16
    sigma = math.sqrt(p * (1 - p) / m)
    assert abs(freq - p) <= 4 * sigma


def test_y_bar_is_deterministic():
    cum = u2_partial_sums(bent_quadratic(2))
    a = y_bar(cum, 1000, 42)
    assert a == y_bar(cum, 1000, 42)
    assert a != y_bar(cum, 1000, 43)


def test_y_bar_rejects_unnormalized_sums():
    # the partial sums must end in a power of two <= 2^53
    regs = Circuit(1, 3, ())
    for squares, total in (([9] * 8, 72), ([0] * 8, 0), ([], 0), ([2**54, 0], 2**54)):
        with pytest.raises(ValueError, match=rf"power of two <= 2\^53, got {total}$"):
            y_bar(np.cumsum(np.array(squares, dtype=np.int64)), 1, 0)
    with pytest.raises(ValueError, match="need at least one sample"):  # not a ZeroDivisionError
        y_bar(partial_sums(uniform_state(regs)), 0, 0)


def test_y_bar_refuses_sums_that_are_not_int64():
    for cum in (np.cumsum(np.full(8, 0.125)), np.arange(1, 9, dtype=np.int32),
                np.arange(1, 9, dtype=np.uint64)):
        with pytest.raises(TypeError, match=str(cum.dtype)):
            y_bar(cum, 1, 0)


def test_child_seed():
    keys = {estimate._key(seed) for seed in (child_seed(7, 0), child_seed(7, 1), child_seed(8, 0),
                                             7, 8, 2**64 + 7, (0, 7), (7, 2**64))}
    assert len(keys) == 8  # the limb counts keep the pair (7, 1) apart from 2^64 + 7
    assert estimate._key(child_seed(7, 0)) == estimate._key((7, 0)) == stream.key((7, 0))


# the key of each seed and the first three words of its stream
PINNED_STREAMS = {
    0: (0x08B4FDA8C892B50E, [0x44E5B98100C67FB0, 0xA73822AC2EA54AB1, 0x9403B3663716577C]),
    1: (0xE9FD6049D65AF21E, [0x5775264A9A7E1B09, 0x9C0002E01D4A175E, 0xF029A3FA23F10E5A]),
    2**64: (0x5DEF8C1F8A9E3322, [0x7F5D1226A94F47CE, 0xBEC9C4098EAD2E6F, 0x22134C8DFF142466]),
    2**127 + 5: (0xCF4279133AB6A454,
                 [0xE591CE1A59604DC7, 0xBD238841A84AC2C1, 0xF68B9168E979E7C3]),
    child_seed(0, 0): (0x1833A3FC3B33A847,
                       [0x693E586E6067663F, 0x49D5D8872B6C77BC, 0x2B40B8CA0B3E7DC8]),
    child_seed(1, 0): (0x2DE5A4E32AE6D264,
                       [0xE8B2E90FDC725B93, 0xE88AD75412D4106F, 0xDCF35B6B76DBCF34]),
    child_seed(1, 1): (0xE22AF074957308C3,
                       [0x3C46A27B26CA8FB6, 0xF4628D44A4EE0ECD, 0xA164B1D59BFB319A]),
    child_seed(2**64, 7): (0xBB81B8FB038EC503,
                           [0x46C7E57BE6B2606E, 0x7985D68881DEC328, 0x9EBC7BD14F0DB786]),
}


def test_the_stream_is_pinned_and_read_by_position():
    # the words of key K are SplitMix64's outputs from the state K: for 1234567, the values
    # that its reference implementation (Vigna, splitmix64.c) prints
    published = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                 4593380528125082431, 16408922859458223821]
    assert estimate._words(1234567, 0, 5).tolist() == stream.words(1234567, 0, 5) == published
    for seed, (key, first) in PINNED_STREAMS.items():
        assert estimate._key(seed) == stream.key(seed) == key, seed
        assert estimate._words(key, 0, 3).tolist() == stream.words(key, 0, 3) == first, seed
    # any stretch is the matching slice of one longer read, across the chunk's edges
    key, chunk = estimate._key(child_seed(3, 1)), estimate._DRAW_CHUNK
    whole = estimate._words(key, 0, 3 * chunk + 2)
    assert whole[:2000].tolist() == stream.words(key, 0, 2000)
    for start in (1, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        for count in (1, 2, 7, chunk - 1 - start % 2, chunk):
            got = estimate._words(key, start, count)
            assert got.tolist() == whole[start : start + count].tolist(), (start, count)
    assert estimate._words(key, 70001, 5).tolist() == stream.words(key, 70001, 5)


def test_a_seed_is_an_int_a_pair_or_none(monkeypatch):
    for bad in (-1, 1.5, "7", np.random.default_rng(1), (1, -2), (1, None)):
        with pytest.raises(ValueError, match="^a seed is an int >= 0, a child_seed pair or None"):
            estimate._key(bad)
    # None is a fresh 128-bit seed from the operating system
    monkeypatch.setattr(estimate.os, "urandom", lambda size: bytes(range(size)))
    assert estimate._key(None) == stream.key(int.from_bytes(bytes(range(16)), "big"))


def test_hoeffding_report_values():
    report = hoeffding_bound(0.9, 10, 0.05)
    assert report["y_bar"] == pytest.approx(0.9)
    assert report["upper_bound"] == pytest.approx(0.15**0.125)
    assert report["upper_bound"] == pytest.approx(0.789, abs=5e-4)

    report50 = hoeffding_bound(0.0, 50, 0.2)
    assert report50["confidence_paper"] == pytest.approx(1 - math.exp(-200))
    assert report50["confidence_standard"] == pytest.approx(1 - math.exp(-4))
    # ybar = 0 makes the raw bound exceed 1, so it clips
    assert report50["upper_bound"] == 1.0


def test_hoeffding_bound_monotone_in_t():
    bounds = [hoeffding_bound(0.7, 4, t)["upper_bound"] for t in (0.01, 0.1, 0.2, 0.301)]
    assert bounds == sorted(bounds)
    with pytest.raises(ValueError):
        hoeffding_bound(0.7, 4, 0.0)
    with pytest.raises(ValueError):
        hoeffding_bound(0.7, 4, -0.1)


def test_bounds_reject_non_finite_t():
    # t = inf would print "t": Infinity, which is not JSON
    cum, norm = u2_sums_and_norm(bent_quadratic(2))
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            hoeffding_bound(0.7, 4, t)
        with pytest.raises(ValueError, match="finite"):
            validate_bound(cum, norm, m=10, t=t, trials=5, seed=1)


def test_mean_y_never_exceeds_rejection_mass():
    # E[Y] <= 1 - p0 exactly, with equality only when all mass sits at zero;
    # this is what makes (1 + t - ybar)^(1/8) an upper bound on the norm
    rng = np.random.default_rng(15)
    for n in (1, 2, 3):
        for _ in range(10):
            f = random_function(n, int(rng.integers(0, 2**32)))
            sign = (1 - 2 * f.table.astype(np.int64))
            size = 1 << n
            tensor = np.empty(size**3, dtype=np.int64)
            for x in range(size):
                for a in range(size):
                    for b in range(size):
                        tensor[(x << (2 * n)) | (a << n) | b] = (
                            sign[x] * sign[x ^ a] * sign[x ^ b] * sign[x ^ a ^ b]
                        )
            fwht_inplace(tensor)
            dim = size**3
            weights = [Fraction(int(w) ** 2, dim**2) for w in tensor]
            assert sum(weights) == 1
            mean_y = sum(Fraction(j, dim) * w for j, w in enumerate(weights))
            p0 = weights[0]
            if f.degree() <= 1:
                assert mean_y == 0 and p0 == 1
            else:
                assert mean_y < 1 - p0


def test_validate_bound_linear_is_always_covered():
    cum, norm = u2_sums_and_norm(linear(2, "10"))
    assert validate_bound(cum, norm, m=20, t=0.1, trials=30, seed=5) == 1.0


def test_validate_bound_inputs():
    cum, norm = u2_sums_and_norm(bent_quadratic(2))
    with pytest.raises(ValueError):
        validate_bound(cum, norm, m=10, t=0.0, trials=5, seed=1)
    with pytest.raises(ValueError):
        validate_bound(cum, norm, m=10, t=0.1, trials=0, seed=1)


def test_validate_bound_reproducible():
    cum, norm = u2_sums_and_norm(bent_quadratic(4))
    a = validate_bound(cum, norm, m=25, t=0.05, trials=40, seed=9)
    b = validate_bound(cum, norm, m=25, t=0.05, trials=40, seed=9)
    assert a == b


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chunked_count_equals_one_draw(offset):
    m = estimate._DRAW_CHUNK + offset
    for p0, seed in ((0.3, 4), (11 / 32, 5)):
        single = reference_draws(seed, m)
        assert count_nonzero_outcomes(p0, m, seed) == int(np.count_nonzero(single >= p0))


def test_count_draws_at_most_one_chunk_at_a_time(monkeypatch):
    sizes = []

    words = estimate._words

    def recorder(key, start, count):  # records each call's words
        sizes.append(count)
        return words(key, start, count)

    monkeypatch.setattr(estimate, "_DRAW_CHUNK", 1000)
    cum = u2_partial_sums(bent_quadratic(2))
    draws = reference_draws(7, 3005)
    monkeypatch.setattr(estimate, "_words", recorder)
    count = count_nonzero_outcomes(0.5, 3005, 7)
    assert sizes == [1000, 1000, 1000, 5]
    assert count == int(np.count_nonzero(draws >= 0.5))
    sizes.clear()  # y_bar's chunks too
    mean = y_bar(cum, 3005, 7)
    assert sizes == [1000, 1000, 1000, 5]
    assert mean == float(np.mean(np.searchsorted(cum, (draws * 2**12).astype(np.int64),
                                                 side="right") / 64))


@pytest.mark.parametrize("chunk", [7, 1000])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chunked_y_bar_equals_one_call_lookup(monkeypatch, chunk, offset):
    # sorted lookups per chunk add up to the mean of the one-call outcomes in draw order,
    # which the float CDF of the amplitudes gives too
    f = random_function(3, 12)
    num = permuted_run(build_derivative_walk_circuit(3, 2), f)
    cum = u2_partial_sums(f)
    cdf = np.cumsum((num * 2.0**-9) ** 2)
    monkeypatch.setattr(estimate, "_DRAW_CHUNK", chunk)
    for m in (chunk + offset, 3 * chunk + offset):
        draws = reference_draws(77, m)
        thresholds = (draws * 2**18).astype(np.int64)  # floor(r * S), S = (2^9)^2
        expected = np.searchsorted(cum, thresholds, side="right")
        assert sorted_outcomes(cum, m, 77).tolist() == sorted(expected.tolist())
        assert expected.tolist() == np.searchsorted(cdf, draws, side="right").tolist()
        assert y_bar(cum, m, 77) == float(np.mean(expected / 512))


@functools.lru_cache(maxsize=1)
def pooled_case(n):
    """The partial sums of a random function's norm circuit and its exact U2 norm."""
    return u2_sums_and_norm(random_function(n, 400 + n))


def stream_mean(cum, m, seed):
    """Y's mean over the outcomes of the reference's first m draws of `seed`, one lookup each."""
    return int(lookup(cum, reference_draws(seed, m)).sum()) / (cum.size * m)


@pytest.mark.parametrize("n", [1, 3, 6, 8])
def test_pooled_means_equal_each_streams_own_lookup(monkeypatch, n):
    # a pool of 64 keys, and 1/64 of the CDF's entries (256) at n = 8, filled by 16-draw
    # chunks and looked up in 16-key blocks: whole streams share a pool (m < pool), and a
    # stream fills a pool or spans several
    cum, _ = pooled_case(n)
    monkeypatch.setattr(estimate, "_DRAW_CHUNK", 16)
    monkeypatch.setattr(estimate, "_POOL_KEYS", 64)
    pool = 64 * max(1, cum.size >> 22)
    for trials in (1, 17, 200):
        seeds = [child_seed(n, i) for i in range(trials)]
        for m in (1, 333, pool - 1, pool, pool + 1, 3 * pool + 1):
            expected = [stream_mean(cum, m, seed) for seed in seeds]
            assert list(estimate._means(cum, m, seeds)) == expected
            # a norm that about half the trials cover: coverage equals a trial-by-trial loop
            bounds = [hoeffding_bound(y, m, 0.05)["upper_bound"] for y in expected]
            norm = sorted(bounds)[trials // 2]
            assert validate_bound(cum, norm, m, 0.05, trials, n) == \
                sum(norm <= bound for bound in bounds) / trials


def test_a_pool_holds_no_more_streams_than_its_slot_field():
    # at S = 2^53 a key keeps b = 10 bits for its slot, so 1,024 one-draw streams fill a pool
    cum = np.cumsum(np.full(4, 1 << 51, np.int64))
    seeds = range(2500)
    assert list(estimate._means(cum, 1, seeds)) == [stream_mean(cum, 1, seed) for seed in seeds]


def test_validate_bound_looks_up_each_pool_once(monkeypatch):
    # at n = 6, 32 trials of 2,000 draws fill each 2^16-key pool: 7 sorted pools for 200
    # trials, where one lookup per trial makes 200
    cum, norm = pooled_case(6)
    sorts = []

    class Pool(np.ndarray):  # the arrays estimate allocates, with their sorts recorded
        def sort(self, *args, **kwargs):
            sorts.append(self.size)
            return super().sort(*args, **kwargs)

    empty = np.empty
    monkeypatch.setattr(estimate.np, "empty", lambda *args, **kwargs:
                        empty(*args, **kwargs).view(Pool))
    validate_bound(cum, norm, m=2000, t=0.05, trials=200, seed=3)
    assert sorts == [32 * 2000] * 6 + [8 * 2000]


def test_validate_bound_holds_one_pool_of_keys():
    # at n = 6 a pool of keys is 0.5 MiB; each of a chunk's raw words and a lookup block's
    # shifted keys, outcomes and bincount weights takes 64 KiB, where blocks the size of the
    # pool would take 0.5 MiB each
    cum, norm = pooled_case(6)
    y_bar(cum, 1, 5)  # the stream's table of steps, 64 KiB, is built once
    tracemalloc.start()
    try:
        validate_bound(cum, norm, m=2000, t=0.05, trials=200, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * estimate._POOL_KEYS + 2**18  # the 2 MiB CDF is built before the trace


def test_validate_bound_memory_does_not_grow_with_trials(monkeypatch):
    # 4,000 one-draw trials in pools of 1,024 keys peak at ~50 KiB; their child seeds and
    # means held all at once take ~370 KiB, and grow with the trials
    f = bent_quadratic(2)
    cum, norm = u2_partial_sums(f), u2_spectral(f).norm
    monkeypatch.setattr(estimate, "_DRAW_CHUNK", 1024)
    monkeypatch.setattr(estimate, "_POOL_KEYS", 1024)
    y_bar(cum, 1, 5)  # the stream's table of steps, 8 KiB here, is built once
    tracemalloc.start()
    try:
        validate_bound(cum, norm, m=1, t=0.05, trials=4000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**17


def test_y_bar_memory_does_not_grow_with_m():
    # all 10^6 outcomes as int64 alone would take 7.6 MiB
    cum = u2_partial_sums(bent_quadratic(2))
    y_bar(cum, 1, 5)  # the stream's table of steps, 64 KiB, is built once
    tracemalloc.start()
    try:
        y_bar(cum, 10**6, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_partial_sums_hold_eight_bytes_per_state():
    # 8 bytes of int64 partial sums per basis state, and one block of the transform:
    # its int32 entries, their half-length scratch and numpy's cast buffers
    f = random_function(7, 70)
    dim = 1 << 21
    tracemalloc.start()
    try:
        u2_partial_sums(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * dim + 12 * errors._BLOCK_CELLS


def u2_reference_sums(f):
    return partial_sums(permuted_run(build_derivative_walk_circuit(f.n, 2), f))


def test_u2_partial_sums_equal_the_reference_state_for_every_function_at_n2():
    for bits in range(16):
        f = from_packed(2, bits)
        assert u2_partial_sums(f).tobytes() == u2_reference_sums(f).tobytes()


@pytest.mark.parametrize("n", [1, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("cells", [16, errors._BLOCK_CELLS])
def test_u2_partial_sums_equal_the_reference_state(monkeypatch, n, cells):
    # at 16 cells the derivative rows come in interleaved blocks, one a per block
    f = random_function(n, 50 + n)
    expected = u2_reference_sums(f)
    monkeypatch.setattr(errors, "_BLOCK_CELLS", cells)
    assert u2_partial_sums(f).tobytes() == expected.tobytes()


def test_u2_partial_sums_check_their_total(monkeypatch):
    monkeypatch.setattr(spectral, "fwht_inplace", lambda a: a)
    with pytest.raises(CrossCheckError, match=r"sum to 64 / 2\^12, not 1$"):
        u2_partial_sums(bent_quadratic(2))


def test_u2_partial_sums_refuse_before_any_work(monkeypatch):
    # past 3n = 24 the 2^(3n) int64 CDF is refused before the derivative rows are gathered
    # from the table, and so before their transform
    class Unread:
        n = 9

        @property
        def table(self):
            raise AssertionError("the table was read")

    def no_transform(*args):
        raise AssertionError("the derivative rows were transformed")

    monkeypatch.setattr(spectral, "fwht_inplace", no_transform)
    with pytest.raises(CapacityError, match=r"got 3 x 9: 2\^27 basis states > 2\^24$"):
        u2_partial_sums(Unread())


@st.composite
def sampled_circuits(draw):
    """The u2 circuit at n <= 3 or a walk of order k <= 3 at n <= 2, with a random f."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        circuit = build_derivative_walk_circuit(n, 2)
    else:
        n = draw(st.integers(1, 2))
        circuit = build_derivative_walk_circuit(n, draw(st.integers(1, 3)))
    return circuit, random_function(n, draw(st.integers(0, 2**32 - 1)))


def fraction_sample(num, draws):
    """Inverse CDF over the Fraction partial sums of num^2 / S: the first outcome
    whose partial sum exceeds r, for each draw r."""
    weights = [int(v) ** 2 for v in num]
    total = sum(weights)
    partial = list(accumulate(Fraction(w, total) for w in weights))
    return [bisect_right(partial, Fraction(r)) for r in draws]


@settings(max_examples=80, deadline=None)
@given(sampled_circuits(), st.integers(1, 400), st.integers(0, 2**64 - 1))
def test_y_bar_equals_the_fraction_inverse_cdf(case, m, seed):
    circuit, f = case
    num = fold(circuit, f)  # the integer gate-by-gate fold, independent of both sums
    u2 = circuit.gates == build_derivative_walk_circuit(f.n, 2).gates
    cum = u2_partial_sums(f) if u2 else partial_sums(num)
    # the lookup is monotone in r, so sorted draws give the oracle's outcomes, sorted
    oracle = sorted(fraction_sample(num, reference_draws(seed, m)))
    assert sorted_outcomes(cum, m, seed).tolist() == oracle
    assert y_bar(cum, m, seed) == float(Fraction(sum(oracle), cum.size * m))
    p0 = float(Fraction(int(num[0]) ** 2, int(np.sum(num.astype(np.int64) ** 2))))
    assert count_nonzero_outcomes(p0, m, seed) == sum(map(bool, oracle))


def test_draw_budget_is_refused_before_the_first_draw(monkeypatch):
    # arithmetic only: the budget is patched down, never run at its real size
    cum, norm = u2_sums_and_norm(bent_quadratic(2))
    monkeypatch.setattr(estimate, "DRAW_BUDGET", 1000)

    def no_draws(*args):
        raise AssertionError("a draw was made before the budget check")

    monkeypatch.setattr(estimate, "_words", no_draws)
    for call in (lambda: y_bar(cum, 1001, 1),
                 lambda: count_nonzero_outcomes(0.5, 1001, 1)):
        with pytest.raises(CapacityError, match="^1001 draws > the draw budget of 1000$"):
            call()
    # 234 draws, but three streams' set-up counts too: 3 * (78 + 256)
    with pytest.raises(CapacityError, match="^1002 draws > the draw budget of 1000$"):
        validate_bound(cum, norm, m=78, t=0.1, trials=3, seed=1)


def test_draw_budget_admits_its_streams_and_their_set_up(monkeypatch):
    cum, norm = u2_sums_and_norm(bent_quadratic(2))
    monkeypatch.setattr(estimate, "DRAW_BUDGET", 1000)
    assert estimate.STREAM_SETUP_DRAWS == 256
    validate_bound(cum, norm, m=77, t=0.1, trials=3, seed=1)  # 3 * (77 + 256) = 999 draws
    validate_bound(cum, norm, m=244, t=0.1, trials=2, seed=1)  # 2 * (244 + 256) = 1000


def test_a_raw_word_gives_the_floor_of_its_draw_times_every_power_of_two():
    # a word w is the draw r = (w >> 11) / 2^53, so the key floor(r * 2^L) of _means is
    # (w >> 11) >> (53 - L), the w >> (64 - L) that it computes: numpy shifts every bit out at
    # L = 0
    words = estimate._words(estimate._key(21), 0, 4096)
    draws = reference_draws(21, 4096)
    for lg in range(54):
        floors = np.floor(draws * 2.0**lg).astype(np.uint64)
        assert np.array_equal((words >> 11) >> (53 - lg), floors), lg
        assert np.array_equal(words >> (64 - lg), floors), lg


@pytest.mark.parametrize("chunk", [1 << 4, 1 << 13, 1 << 16])
def test_samplers_draw_the_same_streams_at_every_chunk_size(monkeypatch, chunk):
    # 70,001 draws span several chunks of each size, and end in a partial one
    cum, _ = pooled_case(6)
    seeds = [child_seed(6, i) for i in range(3)]
    means = [stream_mean(cum, 70_001, seed) for seed in seeds]
    count = int(np.count_nonzero(reference_draws(3, 70_001) >= 0.3))
    monkeypatch.setattr(estimate, "_DRAW_CHUNK", chunk)
    assert list(estimate._means(cum, 70_001, seeds)) == means
    assert count_nonzero_outcomes(0.3, 70_001, 3) == count
