"""Seeded job lists for the gowersim benchmark, and the output check of each job.

A job is one `gowersim` command line.  Every job is expected to exit 0, as the
README promises; any other exit status, or an output that disagrees with the
value the benchmark computes itself, makes the job fail.

Workloads (why each exists; the same text, shortened, is in BENCHMARK.json):

* exact-large-n -- the exact-analysis path at the largest n that 22 repeats of
  the workload allow.  ANF density and n vary, so `Anf.to_string` (dense
  random n = 20), the cold `_fold_masks` build inside `mobius_packed` (sparse
  n = 21) and the FWHT each dominate some job; the spectral `gowers` job has
  neither a mask build nor an ANF.  `qsim` does nothing here.
* sim-24q -- the float gate executor at its 24-qubit edge: a Hadamard-heavy
  u2 circuit, a gather-heavy derivative walk (8 oracles, 14 MCNOTs) and
  `compare`, which also draws one sample from a 2^24-state CDF and runs BLR.
* small-n-batch -- many short jobs where process set-up and per-call overhead
  dominate: ~8e5 `xor_translate` calls on small integers, 200 `sample` calls on
  one 18-qubit state, FWHTs on 64-element arrays.  It includes the known
  defect: `gowers` with the default `--route all` at k = 2 exits 3 for n > 8,
  although the README says it runs "every route in capacity".  The n = 10 and
  n = 12 jobs stay in the list and count as failed until that is fixed.

Measured limits (2 cores, Python 3.11.7, numpy 2.4.6), kept here so later
changes can target them:

* The cold mask build in `boolfn._fold_masks` costs about 4x per extra
  variable: 0.46 s, 1.7 s and 6.9 s at n = 19, 20, 21, and about 420 s at
  n = 24.  `analyze -n 24` is therefore left out: one job would take more than
  7 minutes, and the workload runs 22 times.
* `--tt-hex` cannot be passed on the command line from n = 19 on: 2^19 / 4
  hex digits exceed the 128 KiB per-argument limit (E2BIG).  Dense functions
  at n >= 19 therefore come only through `--family random --seed`.

Where the check cannot use a second route it says so in `Job.reference`:
at n = 20 only the spectral formula for U2 is in capacity, so the `gowers
--route spectral` job is checked against the same formula, computed by the
benchmark's own FWHT rather than by gowersim.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gowersim.boolfn import BooleanFunction, random_function
from gowersim.dyadic import DyadicRational
from gowersim.gowers import uk_definition

FLOAT_TOL = 1e-12  # the tolerance gowersim itself uses between float and exact values


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple[str, ...]  # arguments after `gowersim`
    check: Callable[[str], list[str]]  # stdout -> problems found (empty: correct)
    reference: str  # where the value the output is checked against comes from


# ---------------------------------------------------------------------------
# reference computations, independent of gowersim's own transforms
# ---------------------------------------------------------------------------


def _fwht(table: np.ndarray) -> np.ndarray:
    """Walsh spectrum of 0/1 tables along the last axis (int64 butterflies)."""
    w = 1 - 2 * table.astype(np.int64)
    size = w.shape[-1]
    h = 1
    while h < size:
        v = w.reshape(*w.shape[:-1], -1, 2, h)
        lo = v[..., 0, :].copy()
        v[..., 0, :] += v[..., 1, :]
        v[..., 1, :] = lo - v[..., 1, :]
        h *= 2
    return w


def _mobius(table: np.ndarray) -> np.ndarray:
    """Binary Moebius transform of a 0/1 table (an involution)."""
    a = table.astype(np.uint8, copy=True)
    h = 1
    while h < a.size:
        v = a.reshape(-1, 2, h)
        v[:, 1, :] ^= v[:, 0, :]
        h *= 2
    return a


def _power_sum(w: np.ndarray, power: int) -> int:
    values, counts = np.unique(w, return_counts=True)
    return sum(int(v) ** power * int(c) for v, c in zip(values, counts))


def _uk_pow(table: np.ndarray, k: int) -> DyadicRational:
    """||f||_{U_k}^(2^k) as the sum of W^4 over all (k-2)-fold derivatives."""
    n = table.size.bit_length() - 1
    t = table.astype(np.uint8)
    if k > 2:
        idx = np.arange(table.size)
        shifted = idx[:, None] ^ idx[None, :]  # [d, x] -> x + d
        for _ in range(k - 2):
            t = t[..., None, :] ^ t[..., shifted]
    return DyadicRational(_power_sum(_fwht(t), 4), (k + 2) * n)


def _eval_anf(monomials: list[int], n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.uint32)
    table = np.zeros(1 << n, np.uint8)
    for u in monomials:
        table ^= (idx & u) == u
    return table


def _parse_anf(text: str, n: int) -> np.ndarray:
    """ANF coefficient table of CLI output `x1*x2 + x3 + 1` (KeyError if malformed)."""
    bit = {f"x{i}": 1 << (n - i) for i in range(1, n + 1)}
    bit["1"] = 0
    terms = [] if text == "0" else text.split(" + ")
    us = [sum(map(bit.__getitem__, term.split("*"))) for term in terms]
    return (np.bincount(np.asarray(us, dtype=np.int64), minlength=1 << n) & 1).astype(np.uint8)


def _hex(table: np.ndarray) -> str:
    return np.packbits(table).tobytes().hex()


def _same_dyadic(got: dict, want: DyadicRational) -> bool:
    return (got["num"], got["log2_den"]) == (want.num, want.log2_den)


class _Spectrum:
    """Exact spectral quantities of one table, from the benchmark's own FWHT."""

    def __init__(self, table: np.ndarray):
        size = table.size
        n = size.bit_length() - 1
        w = _fwht(table)
        self.max_abs, self.max_signed = int(np.abs(w).max()), int(w.max())
        self.argmax = int(np.argmax(w == self.max_signed))
        self.nonlinearity = (size - self.max_abs) // 2
        self.eps = DyadicRational(size - self.max_signed, n + 1)
        self.u2 = DyadicRational(_power_sum(w, 4), 4 * n)
        self.blr_accept = DyadicRational((1 << 3 * n) + _power_sum(w, 3), 3 * n + 1)


class _Problems(list):
    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


# ---------------------------------------------------------------------------
# checks, one family per subcommand
# ---------------------------------------------------------------------------


def _check_analyze(table_fn: Callable[[], np.ndarray], n: int, bent: bool = False):
    def check(stdout: str) -> list[str]:
        out = json.loads(stdout)
        table = table_fn()
        size = 1 << n
        p = _Problems()
        p.expect(out["tt_hex"] == _hex(table), "tt_hex differs from the input table")
        try:
            anf_table = _mobius(_parse_anf(out["anf"], n))
            p.expect(np.array_equal(anf_table, table), "anf parsed back differs from input")
        except KeyError as exc:
            p.append(f"anf does not parse: bad token {exc}")
        present = np.flatnonzero(_mobius(table)).astype(np.uint32)
        degree = int(np.bitwise_count(present).max()) if present.size else 0
        p.expect(out["weight"] == int(table.sum()), "weight")
        p.expect(out["degree"] == degree, "degree")
        spec = _Spectrum(table)
        p.expect(out["walsh"] == {"max_abs": spec.max_abs, "max_signed": spec.max_signed},
                 "walsh extrema")
        p.expect(out["nonlinearity"] == (size - out["walsh"]["max_abs"]) // 2,
                 "nonlinearity != (2^n - max_abs)/2")
        dist = out["dist_to_linear"]
        p.expect(_same_dyadic(dist, spec.eps), "dist_to_linear")
        p.expect(dist["argmin_index"] == spec.argmax, "dist_to_linear argmin")
        p.expect(_same_dyadic(out["u2"]["pow"], spec.u2), "u2.pow")
        if bent:
            p.expect(_same_dyadic(out["u2"]["pow"], DyadicRational(1, n)), "bent u2.pow != 1/2^n")
            p.expect(out["nonlinearity"] == (1 << (n - 1)) - (1 << (n // 2 - 1)),
                     "bent nonlinearity != 2^(n-1) - 2^(n/2-1)")
        return p

    return check


def _check_gowers(table_fn: Callable[[], np.ndarray], k: int, routes: list[str]):
    def check(stdout: str) -> list[str]:
        out = json.loads(stdout)
        want = _uk_pow(table_fn(), k)
        p = _Problems()
        p.expect(sorted(out["routes"]) == sorted(routes), f"routes {sorted(out['routes'])}")
        p.expect(out["agreement"] is True, "agreement flag")
        for name, value in out["routes"].items():
            p.expect(_same_dyadic(value["pow"], want), f"route {name} pow")
        return p

    return check


def _probability_zero(table: np.ndarray, k: int) -> float:
    """||f||_{U_k}^(2^(k+1)) from gowersim's definition route, the simulator's target."""
    n = table.size.bit_length() - 1
    return float(uk_definition(BooleanFunction(n, table), k).pow_value) ** 2


def _check_simulate(table: np.ndarray, k: int, qubits: int, gates: int, oracles: int):
    def check(stdout: str) -> list[str]:
        out = json.loads(stdout)
        p = _Problems()
        p.expect((out["qubits"], out["gate_count"], out["oracle_count"]) == (qubits, gates, oracles),
                 "circuit shape")
        p.expect(abs(out["probability_zero"] - _probability_zero(table, k)) <= FLOAT_TOL,
                 "probability_zero differs from uk_definition pow^2")
        p.expect(abs(out["amplitude_at_zero"] ** 2 - out["probability_zero"]) <= FLOAT_TOL,
                 "probability_zero != amplitude_at_zero^2")
        return p

    return check


def _compare_problems(out: dict, table: np.ndarray, shots: int) -> _Problems:
    spec = _Spectrum(table)
    p = _Problems()
    p.expect(float(out["eps"]) == float(spec.eps), "eps")
    p.expect(int(out["nonlinearity"]) == spec.nonlinearity, "nonlinearity")
    p.expect(float(out["blr_reject_exact"]) == 1.0 - float(spec.blr_accept), "blr_reject_exact")
    p.expect(abs(float(out["quantum_reject_exact"]) - (1.0 - float(spec.u2) ** 2)) <= FLOAT_TOL,
             "quantum_reject_exact")
    p.expect(int(out["shots"]) == shots, "shots")
    for name in ("quantum_reject_freq", "blr_reject_freq"):
        p.expect(0.0 <= float(out[name]) <= 1.0, name)
    return p


def _check_compare_json(table: np.ndarray, shots: int):
    def check(stdout: str) -> list[str]:
        out = json.loads(stdout)
        p = _compare_problems(out, table, shots)
        p.expect(_same_dyadic({"num": out["eps_num"], "log2_den": out["eps_log2_den"]},
                              _Spectrum(table).eps), "eps dyadic")
        return p

    return check


def _check_compare_csv(table: np.ndarray, shots: int):
    def check(stdout: str) -> list[str]:
        header, row = stdout.strip().splitlines()
        return _compare_problems(dict(zip(header.split(","), row.split(","))), table, shots)

    return check


def _check_estimate(table: np.ndarray, m: int, trials: int):
    def check(stdout: str) -> list[str]:
        out = json.loads(stdout)
        u2 = _Spectrum(table).u2
        report = out["report"]
        p = _Problems()
        p.expect(_same_dyadic(out["exact_pow"], u2), "exact_pow")
        p.expect(out["exact_norm"] == u2.root(2), "exact_norm")
        p.expect(report["m"] == m and report["function_tt_hex"] == _hex(table), "report header")
        p.expect(out["covered"] == (out["exact_norm"] <= report["upper_bound"]), "covered flag")
        p.expect(out["validate"]["trials"] == trials and 0 <= out["validate"]["coverage"] <= 1,
                 "validate block")
        return p

    return check


def _check_lintest(table: np.ndarray, shots: int):
    def check(stdout: str) -> list[str]:
        out = json.loads(stdout)
        p = _Problems()
        p.expect(abs(out["accept_probability_exact"] - _probability_zero(table, 2)) <= FLOAT_TOL,
                 "accept_probability_exact differs from uk_definition pow^2")
        p.expect(_same_dyadic(out["dist_to_linear"], _Spectrum(table).eps), "dist_to_linear")
        p.expect(out["shots"] == shots, "shots")
        p.expect(out["verdict"] == ("REJECT" if out["rejection_frequency"] > 0 else "ACCEPT"),
                 "verdict disagrees with rejection_frequency")
        return p

    return check


def _check_blr(table: np.ndarray, trials: int):
    def check(stdout: str) -> list[str]:
        out = json.loads(stdout)
        want = _Spectrum(table).blr_accept
        p = _Problems()
        p.expect(_same_dyadic(out["accept_probability_exact_dyadic"], want),
                 "accept_probability_exact_dyadic")
        p.expect(out["accept_probability_exact"] == float(want), "accept_probability_exact")
        p.expect(out["shots"] == trials and 0 <= out["rejection_frequency"] <= 1, "trials")
        return p

    return check


def _walk_dump(k: int) -> list[str]:
    if k == 0:
        return ["UF r1"]
    inner = _walk_dump(k - 1)
    return inner + [f"MCNOT r1 r{k + 1}"] + inner + [f"MCNOT r1 r{k + 1}"]


def _check_audit(dump: list[str], status: str, missing: list[list[int]], oracles: int):
    def check(stdout: str) -> list[str]:
        out = json.loads(stdout)
        audit = out["audit"]
        p = _Problems()
        p.expect(out["dump"] == dump, "dump differs from the expected gate list")
        p.expect(audit["status"] == status, f"audit status {audit['status']!r}")
        p.expect(audit["missing"] == missing and audit["extra"] == [], "audit missing/extra")
        p.expect(audit["oracle_calls"] == oracles and audit["register_one_restored"],
                 "audit oracle calls / register 1")
        return p

    return check


_U3_APPENDIX_DUMP = (
    "UF r1,MCNOT r1 r2,UF r1,MCNOT r1 r3,UF r1,MCNOT r1 r4,UF r1,MCNOT r1 r2,UF r1,"
    "MCNOT r1 r3,UF r1,MCNOT r1 r4,MCNOT r1 r3,UF r1,MCNOT r1 r3,HALL"
).split(",")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Inputs:
    """Random tables and seeds, all derived from (workload, seed).

    Every argument has the same length for every seed: seeds have ten digits,
    tables a fixed size and the sparse ANF fixed degrees over x10..x21.  The
    process memory layout shifts with the size of argv, and the estimate
    job's minor faults vary between ~2e4 and ~2e5 with it (glibc trims and
    re-grows the heap as `sample` reallocates its 2 MB CDF arrays on each of
    its 200 calls), which would make its time depend on the seed's digits.
    """

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")

    def seed(self) -> int:
        return self.rng.randrange(10**9, 10**10)

    def table(self, n: int) -> np.ndarray:
        return np.array([self.rng.getrandbits(1) for _ in range(1 << n)], np.uint8)

    def sparse_anf(self, n: int, degrees: tuple[int, ...]) -> list[int]:
        """Distinct monomials over x10..xn of the given degrees; the first is x_n."""
        monomials = [1]
        for degree in degrees:
            u = 1
            while u in monomials:
                u = sum(1 << (n - i) for i in self.rng.sample(range(10, n + 1), degree))
            monomials.append(u)
        return sorted(monomials)


def _anf_text(monomials: list[int], n: int) -> str:
    return " + ".join(
        "*".join(f"x{i}" for i in range(1, n + 1) if u >> (n - i) & 1) for u in monomials
    )


def _function_args(table: np.ndarray) -> tuple[str, ...]:
    n = table.size.bit_length() - 1
    return ("-n", str(n), "--tt-hex", _hex(table))


_BENT_20 = [(1 << (19 - i)) | (1 << (18 - i)) for i in range(0, 20, 2)]  # x1*x2 + x3*x4 + ...


def exact_large_n(seed: int) -> list[Job]:
    rng = _Inputs("exact-large-n", seed)
    anf = rng.sparse_anf(21, (2, 2, 3, 3, 4, 4, 5))
    random_seed, spectral_seed = rng.seed(), rng.seed()

    def random_table(s: int) -> Callable[[], np.ndarray]:
        return lambda: random_function(20, s).table

    return [
        Job("analyze-bent-20", ("analyze", "--family", "bent", "-n", "20"),
            _check_analyze(lambda: _eval_anf(_BENT_20, 20), 20, bent=True),
            "table by direct monomial evaluation; benchmark FWHT/Moebius; bent closed forms"),
        Job("analyze-sparse-anf-21", ("analyze", "--anf", _anf_text(anf, 21), "-n", "21"),
            _check_analyze(lambda: _eval_anf(anf, 21), 21),
            "table by direct monomial evaluation; benchmark FWHT/Moebius"),
        Job("analyze-random-20",
            ("analyze", "--family", "random", "-n", "20", "--seed", str(random_seed)),
            _check_analyze(random_table(random_seed), 20),
            "benchmark FWHT/Moebius on the seeded table"),
        Job("gowers-spectral-random-20",
            ("gowers", "-k", "2", "--route", "spectral", "--family", "random", "-n", "20",
             "--seed", str(spectral_seed)),
            _check_gowers(random_table(spectral_seed), 2, ["spectral"]),
            "same route only: no other exact U2 route is in capacity at n = 20; "
            "the spectral sum is recomputed with the benchmark's own FWHT"),
    ]


def sim_24q(seed: int) -> list[Job]:
    rng = _Inputs("sim-24q", seed)
    u2_table, walk_table, compare_table = rng.table(8), rng.table(6), rng.table(8)
    compare_seed = rng.seed()
    return [
        Job("simulate-u2-8", ("simulate", "--circuit", "u2", *_function_args(u2_table)),
            _check_simulate(u2_table, 2, 24, 11, 4),
            "uk_definition(f, 2) pow^2"),
        Job("simulate-walk3-6",
            ("simulate", "--circuit", "derivative_walk", "-k", "3", *_function_args(walk_table)),
            _check_simulate(walk_table, 3, 24, 23, 8),
            "uk_definition(f, 3) pow^2"),
        Job("compare-8",
            ("compare", "--shots", "100000", "--seed", str(compare_seed),
             *_function_args(compare_table)),
            _check_compare_json(compare_table, 100000),
            "benchmark FWHT: eps, nonlinearity, BLR and U2 dyadics"),
    ]


def small_n_batch(seed: int) -> list[Job]:
    rng = _Inputs("small-n-batch", seed)
    jobs = []
    for n, k, count in ((8, 2, 3), (6, 3, 2), (4, 4, 1), (10, 2, 1), (12, 2, 1)):
        routes = ["definition", "spectral", "autocorrelation"] if k == 2 else ["definition", "derivatives"]
        for i in range(count):
            table = rng.table(n)
            jobs.append(Job(f"gowers-k{k}-n{n}-{i}", ("gowers", "-k", str(k), *_function_args(table)),
                            _check_gowers(lambda t=table: t, k, routes),
                            "benchmark FWHT over all (k-2)-fold derivatives"))
    table, s = rng.table(6), rng.seed()
    jobs.append(Job("estimate-validate-6",
                    ("estimate", "--validate", "--trials", "200", "-m", "2000", "-t", "0.05",
                     "--seed", str(s), *_function_args(table)),
                    _check_estimate(table, 2000, 200),
                    "benchmark FWHT: U2 dyadic"))
    table, s = rng.table(6), rng.seed()
    jobs.append(Job("lintest-6", ("lintest", "--shots", "1000000", "--seed", str(s),
                                  *_function_args(table)),
                    _check_lintest(table, 1000000),
                    "uk_definition(f, 2) pow^2; benchmark FWHT: eps"))
    table, s = rng.table(12), rng.seed()
    jobs.append(Job("blr-12", ("blr", "--trials", "1000000", "--seed", str(s),
                               *_function_args(table)),
                    _check_blr(table, 1000000),
                    "benchmark FWHT: 1/2 + 1/2 sum W^3 / 2^(3n)"))
    table, s = rng.table(4), rng.seed()
    jobs.append(Job("compare-csv-4", ("compare", "--format", "csv", "--seed", str(s),
                                      *_function_args(table)),
                    _check_compare_csv(table, 10000),
                    "benchmark FWHT: eps, nonlinearity, BLR and U2 dyadics"))
    jobs.append(Job("audit-walk3-6",
                    ("simulate", "--audit", "--dump", "--circuit", "derivative_walk", "-k", "3",
                     "-n", "6"),
                    _check_audit(_walk_dump(3) + ["HALL"], "ok", [], 8),
                    "recursive-doubling schedule rebuilt by the benchmark"))
    jobs.append(Job("audit-u3-appendix-6",
                    ("simulate", "--audit", "--dump", "--circuit", "u3_appendix", "-n", "6"),
                    _check_audit(_U3_APPENDIX_DUMP, "not-a-derivative", [[1, 2, 4]], 7),
                    "documented defect: coset x+a+c is never queried"))
    return jobs


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "exact-large-n": exact_large_n,
    "sim-24q": sim_24q,
    "small-n-batch": small_n_batch,
}
# Passes repeated beyond what --seconds asks for, so that per-job medians damp
# the +-15% run-to-run drift of a shared machine: a small-n-batch pass lasts
# ~8 s, an exact-large-n pass ~18 s.  One ~18 s pass of sim-24q is steady
# enough on its own, and more passes would lengthen every run.
MIN_PASSES = {"exact-large-n": 2, "small-n-batch": 4}
