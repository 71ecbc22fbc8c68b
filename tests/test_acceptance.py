"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL
line even under captured output.

Criterion 5 is split into 5a (linear functions accept) and 5b (far functions
reject at the stated rate).  5b is expected to FAIL: the stated rejection
bound uses the distance to the nearest *linear* function, and functions close
to the complement of a linear function violate it at n = 3 (they are far from
every linear function yet their norm is large because they are close to an
affine function).  The bound is provable with the distance to the nearest
*affine* function; that corrected form passes in
tests/test_lintest.py::test_rejection_bound_holds_with_affine_distance.
5b is kept as stated rather than weakened -- see README.md ("Known red
acceptance check") for the analysis.
"""

import json
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from gowersim import cli
from gowersim.boolfn import (
    BooleanFunction,
    bent_quadratic,
    linear,
    random_function,
)
from gowersim.dyadic import DyadicRational
from gowersim.estimate import _lookup, u2_partial_sums, validate_bound
from gowersim.gowers import u2_spectral, uk_definition, uk_via_derivatives
from gowersim.lintest import blr_exact_dyadic, compare
from gowersim.qsim import (
    build_appendix_u3_circuit,
    build_derivative_walk_circuit,
    phase_audit,
)
from gowersim.spectral import dist_to_linear, walsh

from gate_reference import permuted_run
from packed import from_packed

from_anf_string = BooleanFunction.from_anf_string


@contextmanager
def criterion(capsys, label, name):
    failed = True
    try:
        yield
        failed = False
    finally:
        with capsys.disabled():
            print(f"[criterion {label}] {name}: {'FAIL' if failed else 'PASS'}")


def zero_probability(circuit, f):
    """|amplitude at 0|^2 = (num / 2^q)^2 for a circuit that ends in a Hadamard layer."""
    return Fraction(int(permuted_run(circuit, f)[0]), 1 << circuit.qubits) ** 2


def test_criterion_01_amplitude_equals_norm_power(capsys):
    with criterion(capsys, 1, "zero amplitude squared equals the U2 norm to the 8th"):
        def check(f):
            u2 = build_derivative_walk_circuit(f.n, 2)
            assert zero_probability(u2, f) == u2_spectral(f).pow_value ** 2

        for bits in range(16):
            check(from_packed(2, bits))
        rng = np.random.default_rng(101)
        for n in (3, 4):
            for _ in range(500):
                check(random_function(n, int(rng.integers(0, 2**63))))


def test_criterion_02_route_equivalence(capsys):
    with criterion(capsys, 2, "all exact routes agree as integers"):
        for bits in range(16):
            f = from_packed(2, bits)
            assert uk_definition(f, 2).pow_value == u2_spectral(f).pow_value
        rng = np.random.default_rng(202)
        for _ in range(500):
            f = random_function(3, int(rng.integers(0, 2**63)))
            assert uk_definition(f, 2).pow_value == u2_spectral(f).pow_value
        for n in (1, 2, 3):
            for bits in range(1 << (1 << n)):
                f = from_packed(n, bits)
                assert uk_definition(f, 3).pow_value == uk_via_derivatives(f, 3).pow_value


def test_criterion_03_u3_circuit_identity(capsys):
    with criterion(capsys, 3, "walk circuit zero probability equals the U3 value squared"):
        rng = np.random.default_rng(303)
        for n in (2, 3):
            for _ in range(100):
                f = random_function(n, int(rng.integers(0, 2**63)))
                p0 = zero_probability(build_derivative_walk_circuit(n, 3), f)
                assert p0 == uk_definition(f, 3).pow_value ** 2
        f = from_anf_string("x1*x2*x3", 3)
        assert uk_definition(f, 3).pow_value == DyadicRational(11, 5)
        p0 = zero_probability(build_derivative_walk_circuit(3, 3), f)
        assert p0 == DyadicRational(11, 5) ** 2


def test_criterion_04_circuit_audits(capsys):
    with criterion(capsys, 4, "oracle-coset audits and builder equivalence"):
        appendix = phase_audit(build_appendix_u3_circuit(2))
        assert appendix["oracle_calls"] == 7
        assert len(appendix["cosets"]) == 7

        walk3 = phase_audit(build_derivative_walk_circuit(2, 3))
        expected = {
            (1,), (1, 2), (1, 3), (1, 4),
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4),
        }
        assert set(map(tuple, walk3["cosets"])) == expected
        assert len(walk3["cosets"]) == 8
        assert walk3["missing"] == [] and walk3["extra"] == []


def test_criterion_05a_linear_functions_accept(capsys):
    with criterion(capsys, "5a", "every linear function accepts with probability 1"):
        for n in (2, 3):
            for u in range(1 << n):
                assert zero_probability(build_derivative_walk_circuit(n, 2), linear(n, u)) == 1


def test_criterion_05b_far_functions_reject_at_stated_rate(capsys):
    with criterion(capsys, "5b", "rejection >= 1 - (1 - 2*eps)^4 for eps in (0, 1/2)"):
        violations = []
        for n in (2, 3):
            for bits in range(1 << (1 << n)):
                f = from_packed(n, bits)
                eps_dy, _ = dist_to_linear(f)
                eps = float(eps_dy)
                if not 0.0 < eps < 0.5:
                    continue
                rejection = 1.0 - float(u2_spectral(f).pow_value ** 2)
                bound = 1.0 - (1.0 - 2.0 * eps) ** 4
                if rejection < bound - 1e-12:
                    violations.append((n, f.to_hex(), eps, rejection, bound))
        assert not violations, (
            f"{len(violations)} functions violate the stated rejection bound; "
            f"first: n={violations[0][0]} tt_hex={violations[0][1]} "
            f"eps={violations[0][2]} rejection={violations[0][3]:.6f} "
            f"< bound={violations[0][4]:.6f}.  The bound holds only with the "
            "distance to the nearest affine function (see README.md, 'Known "
            "red acceptance check', and test_lintest.py::"
            "test_rejection_bound_holds_with_affine_distance)."
        )


def test_criterion_06_quantum_vs_blr_on_and(capsys):
    with criterion(capsys, 6, "AND rejection rates, exact and sampled"):
        f = from_anf_string("x1*x2", 2)
        assert 1 - zero_probability(build_derivative_walk_circuit(2, 2), f) == Fraction(15, 16)
        assert blr_exact_dyadic(f) == DyadicRational(5, 3)

        rep = compare(f, shots=100_000, seed=606)
        assert rep["quantum_reject_exact"] == 0.9375
        assert rep["blr_reject_exact"] == 0.375
        sigma_q = math.sqrt(0.9375 * 0.0625 / rep["shots"])
        sigma_b = math.sqrt(0.375 * 0.625 / rep["shots"])
        assert abs(rep["quantum_reject_freq"] - 0.9375) <= 4 * sigma_q
        assert abs(rep["blr_reject_freq"] - 0.375) <= 4 * sigma_b


def test_criterion_07_hoeffding_coverage(capsys):
    m, t, trials = 100, 0.1, 200
    confidence_standard = 1.0 - math.exp(-2 * m * t * t)
    confidence_alternate = 1.0 - math.exp(-2 * m * m * t * t)
    with criterion(capsys, 7, "upper bound covers the exact norm often enough"):
        coverages = {}
        for name, f in (("and", from_anf_string("x1*x2", 2)), ("bent", bent_quadratic(4))):
            coverages[name] = validate_bound(
                u2_partial_sums(f), u2_spectral(f).norm, m=m, t=t, trials=trials, seed=707
            )
            assert coverages[name] >= confidence_standard
    with capsys.disabled():
        print(
            f"[criterion 7] coverage and={coverages['and']:.3f} "
            f"bent={coverages['bent']:.3f}; standard confidence "
            f"{confidence_standard:.4f}, reported alternate form "
            f"{confidence_alternate:.6f}"
        )


def test_criterion_08_spectral_infrastructure(capsys):
    from gowersim.spectral import convolve, fwht_inplace

    with criterion(capsys, 8, "Parseval, convolution theorem, sampler chi-square"):
        rng = np.random.default_rng(808)
        for n in range(1, 11):
            for _ in range(200):
                f = random_function(n, int(rng.integers(0, 2**63)))
                w = walsh(f).astype(object)
                assert int(np.sum(w * w)) == 1 << (2 * n)

        for n in range(1, 7):
            f = random_function(n, int(rng.integers(0, 2**63)))
            g = random_function(n, int(rng.integers(0, 2**63)))
            scaled = convolve(f, g).astype(object)  # 2^n (f * g)
            fwht_inplace(scaled)
            assert np.array_equal(
                scaled, walsh(f).astype(object) * walsh(g).astype(object)
            )

        fixtures = (
            from_anf_string("x1*x2", 2),
            bent_quadratic(4),
            random_function(3, 80801),
        )
        m = 100_000
        for i, f in enumerate(fixtures):
            num = permuted_run(build_derivative_walk_circuit(f.n, 2), f)
            draws = np.sort(np.random.default_rng(8100 + i).random(m))  # y_bar's stream
            outcomes = _lookup(u2_partial_sums(f), draws)
            probs = num.astype(np.int64) ** 2 / num.size**2  # num / 2^q, 2^q = num.size
            observed = np.bincount(outcomes, minlength=probs.size).astype(float)
            assert observed[probs == 0].sum() == 0
            keep = probs * m >= 5
            obs = list(observed[keep])
            exp = list(probs[keep] * m)
            pooled_p = probs[~keep & (probs > 0)].sum()
            if pooled_p > 0:
                obs.append(observed[~keep].sum())
                exp.append(pooled_p * m)
            exp = np.asarray(exp) * (np.sum(obs) / np.sum(exp))
            result = scipy.stats.chisquare(obs, exp)
            assert result.pvalue > 0.001


def test_criterion_09_cli_determinism(capsys):
    invocations = (
        ("analyze", "--anf", "x1*x2 + x3", "-n", "3", "--deterministic"),
        ("gowers", "--family", "bent", "-n", "4", "-k", "2", "--deterministic"),
        ("simulate", "--circuit", "derivative_walk", "-n", "2", "-k", "3",
         "--anf", "x1*x2", "--dump", "--audit", "--deterministic"),
        ("estimate", "--family", "random", "-n", "3", "-m", "100", "-t", "0.1",
         "--seed", "909", "--validate", "--trials", "20", "--deterministic"),
        ("lintest", "--anf", "x1*x2", "-n", "2", "--shots", "500", "--seed", "909",
         "--deterministic"),
        ("blr", "--anf", "x1*x2", "-n", "2", "--trials", "500", "--seed", "909",
         "--deterministic"),
        ("compare", "--family", "random", "-n", "3", "--shots", "1000",
         "--seed", "909", "--deterministic"),
        ("compare", "--family", "random", "-n", "3", "--shots", "1000",
         "--seed", "909", "--deterministic", "--format", "csv"),
    )
    with criterion(capsys, 9, "every subcommand is reproducible under a fixed seed"):
        for argv in invocations:
            assert cli.main(list(argv)) == 0
            first = capsys.readouterr().out
            assert cli.main(list(argv)) == 0
            second = capsys.readouterr().out
            assert first == second and first.strip()
            if argv[-1] != "csv":
                json.loads(first)  # every JSON document must parse
