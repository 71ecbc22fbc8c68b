"""End-to-end CLI behaviour: happy paths, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gowersim import cli, estimate, gowers, lintest, spectral
from gowersim.boolfn import BooleanFunction, bent_quadratic
from gowersim.dyadic import DyadicRational
from gowersim.gowers import GowersValue


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


X1X2 = ("--anf", "x1*x2", "-n", "2")


def test_analyze(capsys):
    doc = run_json(capsys, "analyze", "--anf", "x1*x2", "-n", "2", "--deterministic")
    assert doc["command"] == "analyze"
    assert doc["tt_hex"] == "1"
    assert doc["degree"] == 2
    assert doc["nonlinearity"] == 1
    assert doc["walsh"] == {"max_abs": 2, "max_signed": 2}
    assert doc["dist_to_linear"]["num"] == 1
    assert doc["dist_to_linear"]["log2_den"] == 2
    assert doc["u2"]["pow"] == {"num": 1, "log2_den": 2, "value": 0.25}
    assert "timestamp" not in doc
    assert "seed" not in doc  # no randomness consumed


def test_analyze_tt_hex_matches_anf(capsys):
    via_hex = run_json(capsys, "analyze", "--tt-hex", "1", "-n", "2", "--deterministic")
    via_anf = run_json(capsys, "analyze", "--anf", "x1*x2", "-n", "2", "--deterministic")
    assert via_hex == via_anf


def test_analyze_anf_parses_back(capsys):
    doc = run_json(capsys, "analyze", "--family", "bent", "-n", "12", "--deterministic")
    parsed = BooleanFunction.from_anf_string(doc["anf"], 12)
    assert np.array_equal(parsed.table, bent_quadratic(12).table)
    assert len(doc["anf"].split(" + ")) == 6


def test_analyze_timestamp_present_by_default(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--anf", "x1", "-n", "1")
    assert code == 0
    assert "timestamp" in json.loads(out)


def test_gowers_all_routes(capsys):
    doc = run_json(
        capsys, "gowers", "--anf", "x1*x2*x3", "-n", "3", "-k", "3", "--deterministic"
    )
    assert doc["agreement"] is True
    assert set(doc["routes"]) == {"definition", "derivatives"}
    for route in doc["routes"].values():
        assert route["pow"] == {"num": 11, "log2_den": 5, "value": 0.34375}

    doc2 = run_json(capsys, "gowers", "--family", "bent", "-n", "4", "--deterministic")
    assert set(doc2["routes"]) == {"definition", "spectral", "autocorrelation"}
    assert doc2["routes"]["spectral"]["pow"]["num"] == 1
    assert doc2["routes"]["spectral"]["pow"]["log2_den"] == 4


def test_gowers_single_route_and_validation(capsys):
    doc = run_json(
        capsys, "gowers", "--anf", "x1", "-n", "2", "--route", "spectral", "--deterministic"
    )
    assert list(doc["routes"]) == ["spectral"]
    code, _, err = run_cli(capsys, "gowers", "--anf", "x1", "-n", "2", "-k", "3",
                           "--route", "spectral")
    assert code == 2 and "spectral" in err
    code, _, err = run_cli(capsys, "gowers", "--anf", "x1", "-n", "2", "-k", "2",
                           "--route", "derivatives")
    assert code == 2
    # the route is checked before the function is built: not the n = 25 capacity error
    code, _, err = run_cli(capsys, "gowers", "--family", "random", "-n", "25", "--seed", "1",
                           "-k", "3", "--route", "spectral")
    assert (code, err) == (2, "error: --route spectral is only defined for k = 2\n")


def test_gowers_autocorrelation_route(capsys):
    doc = run_json(capsys, "gowers", "--anf", "x1*x2", "-n", "2", "--route",
                   "autocorrelation", "--deterministic")
    assert list(doc["routes"]) == ["autocorrelation"]
    assert doc["routes"]["autocorrelation"]["pow"] == {"num": 1, "log2_den": 2, "value": 0.25}
    for k in ("1", "3"):
        code, _, err = run_cli(capsys, "gowers", "--anf", "x1", "-n", "2", "-k", k,
                               "--route", "autocorrelation")
        assert code == 2
        assert "--route autocorrelation is only defined for k = 2" in err


@pytest.mark.parametrize("n", ["13", "14", "15"])
def test_autocorrelation_route_reaches_n15(capsys, n):
    # the XOR correlation's word rule, n + max(0, n-6) <= 24, admits n = 15
    families = [("--family", "random", "--seed", "5")]
    if n == "14":  # bent needs an even n
        families.append(("--family", "bent"))
    for family in families:
        autocorrelation, spectral = (
            run_json(capsys, "gowers", *family, "-n", n, "--route", route,
                     "--deterministic")["routes"][route]
            for route in ("autocorrelation", "spectral"))
        assert autocorrelation == spectral


def test_simulate_dump_and_audit(capsys):
    doc = run_json(
        capsys, "simulate", "--circuit", "u2", "-n", "2", "--dump", "--audit",
        "--deterministic",
    )
    assert doc["gate_count"] == 11
    assert doc["oracle_count"] == 4
    assert doc["dump"][0] == "UF r1"
    assert doc["dump"][-1] == "HALL"
    assert doc["audit"]["status"] == "ok"

    doc = run_json(
        capsys, "simulate", "--circuit", "u3_appendix", "-n", "2", "--audit",
        "--deterministic",
    )
    assert doc["audit"]["status"] == "not-a-derivative"
    assert doc["audit"]["missing"] == [[1, 2, 4]]

    doc = run_json(
        capsys, "simulate", "--circuit", "derivative_walk", "-n", "2", "-k", "3",
        "--anf", "x1*x2", "--deterministic",
    )
    assert doc["oracle_count"] == 8
    assert doc["probability_zero"] == doc["amplitude_at_zero"] ** 2


@pytest.mark.parametrize(
    ("circuit", "expected"),
    [
        (("u2", "-n", "8"), 0.011404991149902344),
        (("derivative_walk", "-k", "3", "-n", "6"), 0.1002197265625),
        (("u3_appendix", "-n", "6"), 0.01348876953125),
        (("derivative_walk", "-k", "1", "-n", "12"), 0.00020051002502441406),
    ],
)
def test_simulate_24_qubit_amplitudes_are_pinned(capsys, circuit, expected):
    doc = run_json(capsys, "simulate", "--circuit", *circuit, "--family", "random", "--seed", "7",
                   "--deterministic")
    assert doc["qubits"] == 24
    assert doc["amplitude_at_zero"] == expected


def test_simulate_requires_something_to_do(capsys):
    code, _, err = run_cli(capsys, "simulate", "--circuit", "u2", "-n", "2")
    assert code == 2 and "nothing to do" in err
    code, _, err = run_cli(capsys, "simulate", "--circuit", "derivative_walk", "-n", "2",
                           "--dump")
    assert code == 2 and "-k" in err


def test_simulate_rejects_k_on_fixed_circuits(capsys):
    for circuit in ("u2", "u3_appendix"):
        code, out, err = run_cli(capsys, "simulate", "--circuit", circuit, "-n", "2", "-k", "5",
                                 "--audit", "--deterministic")
        assert code == 2 and out == "" and "-k" in err and circuit in err


def test_estimate(capsys):
    doc = run_json(
        capsys, "estimate", "--family", "bent", "-n", "4", "-m", "50", "-t", "0.2",
        "--seed", "7", "--deterministic",
    )
    assert doc["seed"] == 7
    assert doc["report"]["m"] == 50
    assert doc["report"]["rng"] == "SplitMix64"
    assert doc["exact_norm"] == pytest.approx(0.5)
    assert doc["covered"] is True

    doc = run_json(
        capsys, "estimate", "--anf", "x1", "-n", "2", "-m", "10", "-t", "0.1",
        "--seed", "3", "--validate", "--trials", "20", "--deterministic",
    )
    assert doc["validate"]["trials"] == 20
    assert doc["validate"]["coverage"] == 1.0


def test_estimate_at_24_qubits_is_pinned(capsys):
    # sha256 of the stdout whose y_bar the full 2^24-entry state (gate_reference.permuted_run)
    # gives on the reference stream's draws
    code, out, err = run_cli(capsys, "estimate", "--family", "bent", "-n", "8", "-m", "1000",
                             "-t", "0.05", "--seed", "7", "--deterministic")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ef5a9c45accc2ad099c41ede384cfabac052d21ea34f00df67ed369a7bea1393")


def test_estimate_validate_builds_the_cdf_once(capsys, monkeypatch):
    built = []
    partial_sums = estimate.u2_partial_sums

    def counting_partial_sums(f):
        cum = partial_sums(f)
        built.append(cum.size)
        return cum

    monkeypatch.setattr(estimate, "u2_partial_sums", counting_partial_sums)
    doc = run_json(capsys, "estimate", "--family", "bent", "-n", "4", "-m", "30", "-t", "0.1",
                   "--seed", "5", "--validate", "--trials", "7", "--deterministic")
    assert doc["validate"]["trials"] == 7
    assert built == [1 << 12]


def test_draw_budget_exits_3_before_any_work(capsys, monkeypatch):
    # arithmetic only: the budget is patched down, never run at its real size
    monkeypatch.setattr(estimate, "DRAW_BUDGET", 1000)
    function = ("--anf", "x1*x2", "-n", "2", "--seed", "1", "--deterministic")
    for argv in (("estimate", "-m", "1000", "-t", "0.1"),
                 # two streams, y_bar's and the trial's, each with 256 draws of set-up
                 ("estimate", "-m", "244", "-t", "0.1", "--validate", "--trials", "1"),
                 ("lintest", "--shots", "1000"),
                 ("blr", "--trials", "1000"),
                 ("compare", "--shots", "1000")):
        run_json(capsys, *argv, *function)

    # a request over the budget is refused before the first transform
    def no_transform(*args):
        raise AssertionError("a transform ran before the draw budget check")

    for module in (spectral, gowers, lintest):  # every name bound to spectral.walsh
        monkeypatch.setattr(module, "walsh", no_transform)
    monkeypatch.setattr(estimate, "u2_partial_sums", no_transform)
    for count, argv in ((1001, ("estimate", "-m", "1001", "-t", "0.1")),
                        (1002, ("estimate", "-m", "245", "-t", "0.1", "--validate", "--trials",
                                "1")),  # 2 * (245 + 256)
                        (1001, ("lintest", "--shots", "1001")),
                        (1001, ("blr", "--trials", "1001")),
                        (1001, ("compare", "--shots", "1001"))):
        code, out, err = run_cli(capsys, *argv, *function)
        assert (code, out, err) == (3, "", f"error: {count} draws > the draw budget of 1000\n")


def test_estimate_rejects_bad_t(capsys):
    code, _, err = run_cli(capsys, "estimate", "--anf", "x1", "-n", "1", "-m", "5",
                           "-t", "0")
    assert code == 2 and "-t" in err
    code, _, _ = run_cli(capsys, "estimate", "--anf", "x1", "-n", "1", "-m", "0",
                         "-t", "0.1")
    assert code == 2


def test_estimate_rejects_infinite_t(capsys):
    # "t": Infinity is not JSON (RFC 8259), so the margin must be finite
    for t in ("inf", "nan"):
        code, out, err = run_cli(capsys, "estimate", "--anf", "x1", "-n", "1", "-m", "5",
                                 "-t", t, "--seed", "1", "--deterministic")
        assert code == 2 and out == "" and "argument -t: must be finite and positive" in err


def test_numbers_are_checked_by_their_option(capsys):
    for argv, option, message in (
        (("analyze", "--anf", "x1", "-n", "2", "--seed", "-1"), "--seed", "must be >= 0, got -1"),
        (("lintest", "--anf", "x1", "-n", "2", "--shots", "0"), "--shots", "must be >= 1, got 0"),
        (("blr", "--anf", "x1", "-n", "2", "--trials", "0"), "--trials", "must be >= 1, got 0"),
        (("gowers", "--anf", "x1", "-n", "2", "-k", "0"), "-k", "must be >= 1, got 0"),
        (("estimate", "--anf", "x1", "-n", "1", "-m", "5", "-t", "x"), "-t",
         "invalid float value: 'x'"),
        (("lintest", "--anf", "x1", "-n", "2", "--shots", "1e3"), "--shots",
         "invalid int value: '1e3'"),
        # int() and float() read any Unicode digit; only ASCII text is converted
        (("analyze", "--anf", "x1", "-n", "٣"), "-n", "invalid int value: '٣'"),
        (("lintest", "--anf", "x1", "-n", "2", "--shots", "３"), "--shots",
         "invalid int value: '３'"),
        (("estimate", "--anf", "x1", "-n", "1", "-m", "5", "-t", "١.٥"), "-t",
         "invalid float value: '١.٥'"),
        # and a family by its choices: bent_quadratic, once an alias of bent, is gone
        (("analyze", "--family", "bent_quadratic", "-n", "4"), "--family",
         "invalid choice: 'bent_quadratic'"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("usage: ")
        assert f"gowersim {argv[0]}: error: argument {option}: {message}" in err


def test_lintest_and_blr(capsys):
    doc = run_json(
        capsys, "lintest", "--family", "linear", "--u", "101", "-n", "3",
        "--shots", "100", "--seed", "2", "--deterministic",
    )
    assert doc["verdict"] == "ACCEPT"
    assert doc["rejection_lower_bound"] is None

    doc = run_json(
        capsys, "lintest", "--anf", "x1*x2", "-n", "2", "--shots", "400",
        "--seed", "2", "--deterministic",
    )
    assert doc["verdict"] == "REJECT"
    assert doc["rejection_lower_bound"]["exact"] == 15 / 16

    doc = run_json(
        capsys, "blr", "--anf", "x1*x2", "-n", "2", "--trials", "500", "--seed", "5",
        "--deterministic",
    )
    assert doc["accept_probability_exact_dyadic"] == {
        "num": 5, "log2_den": 3, "value": 0.625,
    }


def test_sampled_outputs_are_pinned(capsys):
    # odd trials: the ys start on the high half of a 64-bit word; values from the pure-Python
    # reference of the stream and, for the estimates, from the full state on its draws
    doc = run_json(capsys, "blr", "--family", "random", "-n", "12", "--seed", "4",
                   "--trials", "1000001", "--deterministic")
    assert doc.pop("tt_hex").startswith("80c89771899b92ac")
    assert doc == {
        "command": "blr", "n": 12, "seed": 4, "verdict": "REJECT", "mode": "sampled",
        "shots": 1000001, "accept_probability_exact": 0.49928855895996094,
        "rejection_frequency": 0.5008764991235009,
        "accept_probability_exact_dyadic": {
            "num": 261771, "log2_den": 19, "value": 0.49928855895996094,
        },
    }
    # m spans two draw chunks
    doc = run_json(capsys, "estimate", "--family", "random", "-n", "4", "--seed", "9",
                   "-m", "70001", "-t", "0.001", "--validate", "--trials", "9",
                   "--deterministic")
    assert doc == {
        "command": "estimate", "n": 4, "seed": 9,
        "report": {
            "y_bar": 0.33624492097099506, "t": 0.001, "m": 70001,
            "upper_bound": 0.9502386874033304, "confidence_paper": 1.0,
            "confidence_standard": 0.13064350331592622, "seed": 9, "rng": "SplitMix64",
            "function_tt_hex": "c2e4",
        },
        "exact_norm": 0.5899027654426418,
        "exact_pow": {"num": 31, "log2_den": 8, "value": 0.12109375},
        "covered": True,
        "validate": {"trials": 9, "coverage": 1.0, "meets_confidence_standard": True},
    }
    # m spans sixteen draw chunks; the mean is summed chunk by chunk
    doc = run_json(capsys, "estimate", "--family", "bent", "-n", "2", "-m", "1000000",
                   "-t", "0.001", "--seed", "5", "--deterministic")
    assert doc == {
        "command": "estimate", "n": 2, "seed": 5,
        "report": {
            "y_bar": 0.117124203125, "t": 0.001, "m": 1000000,
            "upper_bound": 0.9846885891580303, "confidence_paper": 1.0,
            "confidence_standard": 0.8646647167633873, "seed": 5, "rng": "SplitMix64",
            "function_tt_hex": "1",
        },
        "exact_norm": 0.7071067811865476,
        "exact_pow": {"num": 1, "log2_den": 2, "value": 0.25},
        "covered": True,
    }


_AUDIT_U3 = {
    "status": "not-a-derivative", "oracle_calls": 7, "register_one_restored": True,
    "cosets": [[1], [1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 3, 4], [1, 4], [1, 3]],
    "missing": [[1, 2, 4]], "extra": [],
}
_U3_DUMP = ["UF r1", "MCNOT r1 r2", "UF r1", "MCNOT r1 r3", "UF r1", "MCNOT r1 r4", "UF r1",
            "MCNOT r1 r2", "UF r1", "MCNOT r1 r3", "UF r1", "MCNOT r1 r4", "MCNOT r1 r3",
            "UF r1", "MCNOT r1 r3", "HALL"]
_COMPARE_CSV = (
    "n,function_tt_hex,eps,nonlinearity,quantum_reject_exact,quantum_reject_freq,"
    "quantum_reject_bound,blr_reject_exact,blr_reject_freq,shots,quantum_queries_per_shot,"
    "blr_queries_per_trial,quantum_reject_per_query,blr_reject_per_query,seed\n"
    "2,1,0.25,1,0.9375,0.945,0.9375,0.375,0.381,1000,4,3,0.234375,0.125,11\n"
)


@pytest.mark.parametrize("argv, expected", [
    ("lintest --anf x1*x2 -n 2 --shots 1000 --seed 2", {
        "command": "lintest", "n": 2, "seed": 2, "tt_hex": "1", "verdict": "REJECT",
        "mode": "sampled", "shots": 1000, "accept_probability_exact": 0.0625,
        "rejection_frequency": 0.939,
        "dist_to_linear": {"num": 1, "log2_den": 2, "value": 0.25, "argmin_u": "00"},
        "rejection_lower_bound": {"exact": 0.9375, "exponential": 0.8646647167633873},
    }),
    ("blr --anf x1*x2 -n 2 --trials 1000 --seed 5", {
        "command": "blr", "n": 2, "seed": 5, "tt_hex": "1", "verdict": "REJECT",
        "mode": "sampled", "shots": 1000, "accept_probability_exact": 0.625,
        "rejection_frequency": 0.38,
        "accept_probability_exact_dyadic": {"num": 5, "log2_den": 3, "value": 0.625},
    }),
    ("estimate --family bent -n 4 -m 50 -t 0.2 --seed 7 --validate --trials 3", {
        "command": "estimate", "n": 4, "seed": 7,
        "report": {
            "y_bar": 0.029091796875, "t": 0.2, "m": 50, "upper_bound": 1.0,
            "confidence_paper": 1.0, "confidence_standard": 0.9816843611112658, "seed": 7,
            "rng": "SplitMix64", "function_tt_hex": "111e",
        },
        "exact_norm": 0.5, "exact_pow": {"num": 1, "log2_den": 4, "value": 0.0625},
        "covered": True,
        "validate": {"trials": 3, "coverage": 1.0, "meets_confidence_standard": True},
    }),
    ("compare --anf x1*x2 -n 2 --shots 1000 --seed 11", {
        "command": "compare", "n": 2, "seed": 11, "function_tt_hex": "1", "eps": 0.25,
        "nonlinearity": 1, "quantum_reject_exact": 0.9375, "quantum_reject_freq": 0.945,
        "quantum_reject_bound": 0.9375, "blr_reject_exact": 0.375, "blr_reject_freq": 0.381,
        "shots": 1000, "quantum_queries_per_shot": 4, "blr_queries_per_trial": 3,
        "quantum_reject_per_query": 0.234375, "blr_reject_per_query": 0.125,
        "eps_num": 1, "eps_log2_den": 2,
    }),
    ("compare --anf x1*x2 -n 2 --shots 1000 --seed 11 --format csv", _COMPARE_CSV),
    ("simulate --circuit u3_appendix -n 2 --anf x1*x2 --audit --dump", {
        "command": "simulate", "n": 2, "circuit": "u3_appendix", "registers": 4, "qubits": 8,
        "gate_count": 16, "oracle_count": 7, "dump": _U3_DUMP, "audit": _AUDIT_U3,
        "amplitude_at_zero": 0.5, "probability_zero": 0.25,
    }),
])
def test_stdout_text_is_pinned(capsys, argv, expected):
    # the exact text, key order included; a dict literal keeps its order in json.dumps
    code, out, err = run_cli(capsys, *argv.split(), "--deterministic")
    assert code == 0 and err == ""
    if isinstance(expected, dict):
        expected = json.dumps(expected, indent=2) + "\n"
    assert out == expected


def test_compare_json_and_csv(capsys):
    doc = run_json(
        capsys, "compare", "--anf", "x1*x2", "-n", "2", "--shots", "1000",
        "--seed", "11", "--deterministic",
    )
    assert doc["quantum_reject_exact"] == 0.9375
    assert doc["blr_reject_exact"] == 0.375
    assert doc["eps_num"] == 1 and doc["eps_log2_den"] == 2

    code, out, _ = run_cli(
        capsys, "compare", "--anf", "x1*x2", "-n", "2", "--shots", "1000",
        "--seed", "11", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "n"
    assert len(lines[1].split(",")) == len(lines[0].split(","))


def test_seed_is_drawn_and_printed_when_omitted(capsys):
    # a command that samples, and a random family under commands that otherwise draw nothing
    for argv in (("lintest", *X1X2, "--shots", "50"),
                 ("analyze", "--family", "random", "-n", "4"),
                 ("gowers", "--family", "random", "-n", "3"),
                 ("simulate", "--circuit", "u2", "--family", "random", "-n", "2")):
        doc = run_json(capsys, *argv, "--deterministic")
        seed = doc["seed"]
        assert isinstance(seed, int) and seed >= 0
        # replaying the printed seed reproduces the run: its tt_hex, amplitude or verdict
        assert run_json(capsys, *argv, "--seed", str(seed), "--deterministic") == doc, argv


def test_u_is_refused_without_family_linear(capsys):
    for argv in (("analyze", "--anf", "x1", "-n", "3"),
                 ("analyze", "--family", "bent", "-n", "4"),
                 ("simulate", "--circuit", "u2", "-n", "2", "--dump")):
        code, out, err = run_cli(capsys, *argv, "--u", "101", "--deterministic")
        assert code == 2 and out == "" and "--u applies only to --family linear" in err


def test_function_flags_are_exclusive(capsys):
    code, _, err = run_cli(capsys, "analyze", "-n", "2")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "analyze", "--anf", "x1", "--family", "bent", "-n", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze", "--family", "linear", "-n", "2")
    assert code == 2 and "--u" in err


def test_exit_code_2_on_parse_and_domain_errors(capsys):
    code, _, err = run_cli(capsys, "analyze", "--anf", "x9", "-n", "2")
    assert code == 2 and "out of range" in err
    code, _, _ = run_cli(capsys, "analyze", "--anf", "x1", "-n", "2", "--seed", "-1")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze", "--anf", "x1", "-n", "0")
    assert code == 2 and "argument -n: must be >= 1, got 0" in err
    code, out, err = run_cli(capsys, "simulate", "--circuit", "u2", "-n", "0", "--dump")
    assert code == 2 and out == "" and "argument -n: must be >= 1, got 0" in err
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, out, err = run_cli(capsys, "analyze", "-n", "4", "--tt-hex", "0x1f")
    assert code == 2 and out == "" and "'0x1f'" in err


def test_exit_code_3_on_capacity(capsys):
    # -n passes argparse's >= 1 check; the 24-variable cap is boolfn's
    code, out, err = run_cli(capsys, "analyze", "--family", "random", "-n", "25", "--seed", "1")
    assert code == 3 and out == "" and "exceeds the supported maximum 24" in err
    assert err.rstrip().endswith(": 2^25 table entries > 2^24")
    code, _, err = run_cli(capsys, "gowers", "--family", "bent", "-n", "14", "-k", "2",
                           "--route", "definition")
    assert code == 3 and "<= 24" in err
    code, _, err = run_cli(capsys, "gowers", "--family", "bent", "-n", "14", "-k", "3",
                           "--route", "derivatives")
    assert code == 3 and "(k-1)*n <= 24" in err
    # the u2 circuit's 3n <= 24 qubit envelope, worded as its layout's, bounds estimate's
    # 2^(3n)-entry CDF; lintest and compare hold no such array (tests/test_lintest.py)
    code, out, err = run_cli(capsys, "estimate", "-m", "10", "-t", "0.1", "--family", "bent",
                             "-n", "10", "--seed", "1")
    assert code == 3 and out == "" and "m*n <= 24" in err
    assert err.rstrip().endswith("got 3 x 10: 2^30 basis states > 2^24")
    code, out, err = run_cli(capsys, "simulate", "--circuit", "u2", "-n", "9", "--dump")
    assert code == 3 and out == ""
    assert err.rstrip().endswith("layout needs m*n <= 24, got 3 x 9: 2^27 basis states > 2^24")


def test_derivative_walk_work_is_guarded(capsys):
    # both fit 24 qubits, but 2^k oracle calls over 2^q states is 2^47 and 2^35
    for k, n, work in (("23", "1", 47), ("11", "2", 35)):
        code, out, err = run_cli(capsys, "simulate", "--circuit", "derivative_walk", "-k", k,
                                 "-n", n, "--dump", "--deterministic")
        assert code == 3 and out == ""
        assert f"2^{work} oracle-entry evaluations > 2^32" in err


def test_route_all_answers_up_to_the_definition_word_guard(capsys):
    # every route of k = 2 runs to n = 10 and of k = 3 to n = 7; one variable more exits 3
    for k, n, routes in (("2", "10", 3), ("3", "7", 2)):
        doc = run_json(capsys, "gowers", "--family", "random", "--seed", "5", "-k", k, "-n", n,
                       "--deterministic")
        assert len(doc["routes"]) == routes and doc["agreement"] is True
    for k, n in (("2", "11"), ("3", "8")):
        code, out, err = run_cli(capsys, "gowers", "--family", "random", "--seed", "5", "-k", k,
                                 "-n", n)
        assert code == 3 and out == "" and err.startswith("error: uk_definition needs")


def test_capacity_errors_state_the_cost_and_budget(capsys):
    for k, route, n, cost in (
        (2, "definition", 14, "2^36 words"),
        (3, "derivatives", 14, "2^28 transform entries"),
        (2, "autocorrelation", 16, "2^26 words"),
    ):
        code, out, err = run_cli(capsys, "gowers", "--family", "bent", "-n", str(n), "-k", str(k),
                                 "--route", route)
        assert code == 3 and out == "" and f"{cost} > 2^24" in err
    # every refusal's full stderr, byte for byte: the rule, then 2^cost unit > 2^budget
    from gowersim import boolfn, errors

    assert boolfn.MAX_N == errors.MAX_N == 24  # one constant, still importable from boolfn
    bent14 = ("gowers", "--family", "bent", "-n", "14")
    for argv, line in (
        (("analyze", "--family", "random", "-n", "25", "--seed", "1"),
         "n = 25 exceeds the supported maximum 24: 2^25 table entries > 2^24"),
        ((*bent14, "-k", "2", "--route", "definition"),
         "uk_definition needs k*n + max(0, n-6) <= 24, got k = 2, n = 14: 2^36 words > 2^24"),
        ((*bent14, "-k", "3", "--route", "derivatives"),
         "uk_via_derivatives needs (k-1)*n <= 24, got k = 3, n = 14: "
         "2^28 transform entries > 2^24"),
        (("gowers", "--family", "bent", "-n", "16", "-k", "2", "--route", "autocorrelation"),
         "the XOR correlation needs n + max(0, n-6) <= 24, got n = 16: 2^26 words > 2^24"),
        (("estimate", "--family", "bent", "-n", "10", "-m", "10", "-t", "0.1", "--seed", "1"),
         "layout needs m*n <= 24, got 3 x 10: 2^30 basis states > 2^24"),
        (("simulate", "--circuit", "u2", "-n", "9", "--family", "bent"),
         "layout needs m*n <= 24, got 3 x 9: 2^27 basis states > 2^24"),
        (("simulate", "--circuit", "derivative_walk", "-k", "23", "-n", "1", "--dump"),
         "derivative walk needs k + (k+1)*n <= 32, got k = 23, n = 1: "
         "2^47 oracle-entry evaluations > 2^32"),
        (("estimate", "--anf", "x1", "-n", "1", "-m", str(2**30 + 1), "-t", "0.1", "--seed", "1"),
         "1073741825 draws > the draw budget of 1073741824"),
    ):
        assert run_cli(capsys, *argv) == (3, "", f"error: {line}\n"), argv


BUDGET = 1 << 30  # estimate.DRAW_BUDGET
# random functions where one is built, as an ANF runs the Moebius transform; bent's closed
# form does not, so one row builds it; simulate refuses its circuit before it reads the function
RANDOM = ("--family", "random", "--seed", "1")
REFUSALS = [
    *(pytest.param((command, *args, *RANDOM, "-n", "25"),
                   "n = 25 exceeds the supported maximum 24: 2^25 table entries > 2^24",
                   id=f"{command}-table")
      for command, *args in (("analyze",), ("gowers", "-k", "3"),
                             ("estimate", "-m", "9", "-t", "1"), ("lintest",), ("blr",),
                             ("compare",))),
    pytest.param(("gowers", *RANDOM, "-n", "14", "--route", "definition"),
                 "uk_definition needs k*n + max(0, n-6) <= 24, got k = 2, n = 14: "
                 "2^36 words > 2^24", id="gowers-definition"),
    pytest.param(("gowers", "--family", "bent", "-n", "14", "--route", "definition"),
                 "uk_definition needs k*n + max(0, n-6) <= 24, got k = 2, n = 14: "
                 "2^36 words > 2^24", id="gowers-definition-bent"),
    # --route all refuses at its first route, the definition, before the spectral one runs
    pytest.param(("gowers", *RANDOM, "-n", "11"),
                 "uk_definition needs k*n + max(0, n-6) <= 24, got k = 2, n = 11: "
                 "2^27 words > 2^24", id="gowers-all"),
    pytest.param(("gowers", *RANDOM, "-n", "14", "-k", "3", "--route", "derivatives"),
                 "uk_via_derivatives needs (k-1)*n <= 24, got k = 3, n = 14: "
                 "2^28 transform entries > 2^24", id="gowers-derivatives"),
    pytest.param(("gowers", *RANDOM, "-n", "16", "--route", "autocorrelation"),
                 "the XOR correlation needs n + max(0, n-6) <= 24, got n = 16: "
                 "2^26 words > 2^24", id="gowers-autocorrelation"),
    pytest.param(("simulate", "--circuit", "u2", "-n", "9", "--family", "bent"),
                 "layout needs m*n <= 24, got 3 x 9: 2^27 basis states > 2^24", id="simulate-u2"),
    pytest.param(("simulate", "--circuit", "u3_appendix", "-n", "7", "--audit"),
                 "layout needs m*n <= 24, got 4 x 7: 2^28 basis states > 2^24", id="simulate-u3"),
    # over both the layout and the walk guard: the layout is named first
    pytest.param(("simulate", "--circuit", "derivative_walk", "-k", "7", "-n", "4", "--family",
                  "bent"),
                 "layout needs m*n <= 24, got 8 x 4: 2^32 basis states > 2^24",
                 id="simulate-walk-layout"),
    pytest.param(("simulate", "--circuit", "derivative_walk", "-k", "11", "-n", "2", "--dump"),
                 "derivative walk needs k + (k+1)*n <= 32, got k = 11, n = 2: "
                 "2^35 oracle-entry evaluations > 2^32", id="simulate-walk-guard"),
    pytest.param(("estimate", *RANDOM, "-n", "10", "-m", "10", "-t", "0.1"),
                 "layout needs m*n <= 24, got 3 x 10: 2^30 basis states > 2^24",
                 id="estimate-layout"),
    *(pytest.param((*argv, *RANDOM, "-n", "8"), f"{count} draws > the draw budget of {BUDGET}",
                   id=f"{argv[0]}-{name}")
      for name, count, argv in (
          ("draws", BUDGET + 1, ("estimate", "-m", str(BUDGET + 1), "-t", "0.1")),
          # three streams of 2^29 draws, each charged 256 draws of set-up
          ("draws-validate", 3 * (BUDGET // 2 + 256),
           ("estimate", "-m", str(BUDGET // 2), "-t", "0.1", "--validate", "--trials", "2")),
          # 2^30 one-draw streams: within the budget as draws, ~10 hours of stream set-up
          ("setup-validate", 257 * BUDGET,
           ("estimate", "-m", "1", "-t", "0.1", "--validate", "--trials", str(BUDGET - 1))),
          ("draws", BUDGET + 1, ("lintest", "--shots", str(BUDGET + 1))),
          ("draws", BUDGET + 1, ("blr", "--trials", str(BUDGET + 1))),
          ("draws", BUDGET + 1, ("compare", "--shots", str(BUDGET + 1))))),
]


@pytest.mark.parametrize(("argv", "line"), REFUSALS)
def test_every_guard_refuses_before_any_kernel_runs(capsys, monkeypatch, argv, line):
    from gowersim import boolfn, qsim

    def no_work(*args):
        raise AssertionError("a kernel ran before the refusal")

    # every name a caller binds; estimate reads spectral's kernels by attribute, and
    # u2_partial_sums itself is left in place because it holds estimate's 3n guard
    for module, name in ((spectral, "walsh"), (gowers, "walsh"), (lintest, "walsh"),
                         (spectral, "fwht_inplace"), (gowers, "fwht_inplace"),
                         (spectral, "_derivative_rows"), (gowers, "_derivative_rows"),
                         (spectral, "_word_translates"), (gowers, "_word_translates"),
                         (boolfn, "_word_translates"), (boolfn, "_mobius"),
                         (qsim, "_phase_blocks"), (qsim, "_walk_gates")):
        monkeypatch.setattr(module, name, no_work)
    assert estimate.DRAW_BUDGET == BUDGET
    assert run_cli(capsys, *argv, "--deterministic") == (3, "", f"error: {line}\n")


def test_every_subcommand_has_a_guarded_refusal():
    assert {param.values[0][0] for param in REFUSALS} == set(cli._HANDLERS)


def test_blr_transforms_its_function_once(capsys, monkeypatch):
    from gowersim import lintest, spectral

    walsh, calls = spectral.walsh, []

    def counting_walsh(f):
        calls.append(f.n)
        return walsh(f)

    for module in (spectral, lintest):  # lintest bound the name at import
        monkeypatch.setattr(module, "walsh", counting_walsh)
    run_json(capsys, "blr", "--family", "random", "-n", "10", "--seed", "3", "--trials", "100",
             "--deterministic")
    assert calls == [10]  # the exact value is computed once, its cross-check included


@pytest.mark.parametrize(
    ("argv", "target", "fake", "detail"),
    [
        (("gowers", *X1X2), "gowersim.gowers.u2_autocorrelation",
         lambda f: GowersValue(2, DyadicRational(1, 7)), "Gowers routes disagree: "),
        # one more in the spectral sum 2^(3n) + sum W^3: 81/128 instead of 5/8
        (("blr", *X1X2), "gowersim.lintest._power_sum", lambda w, p: gowers._power_sum(w, p) + 1,
         "BLR routes disagree: spectral 81/2^7 vs enumeration 5/2^3\n"),
        # the pairs are enumerated at n = 12, and at n = 15, n + max(0, n-6) = 24 words
        *((("blr", "--family", "random", "-n", n), "gowersim.lintest._power_sum",
           lambda w, p: gowers._power_sum(w, p) + 1, "BLR routes disagree: spectral ")
          for n in ("12", "15")),
    ],
    ids=["gowers", "blr", "blr-12", "blr-15"],
)
def test_exit_code_4_on_cross_check_failure(capsys, monkeypatch, argv, target, fake, detail):
    monkeypatch.setattr(target, fake)
    code, out, err = run_cli(capsys, *argv, "--seed", "1", "--deterministic")
    assert code == 4 and out == ""
    assert err.startswith(f"internal error: {detail}")


CHEAP_ARGVS = [
    ["analyze", "--anf", "x1*x2", "-n", "2"],
    ["gowers", "--anf", "x1*x2", "-n", "2"],
    ["simulate", "--circuit", "u2", "--anf", "x1*x2", "-n", "2", "--audit"],
    ["estimate", "--anf", "x1*x2", "-n", "2", "-m", "50", "-t", "0.2", "--seed", "3"],
    ["lintest", "--anf", "x1*x2", "-n", "2", "--shots", "20", "--seed", "3"],
    ["blr", "--anf", "x1*x2", "-n", "2", "--trials", "20", "--seed", "3"],
    *(["compare", "--anf", "x1*x2", "-n", "2", "--shots", "20", "--seed", "3", "--format", form]
      for form in ("json", "csv")),
]


def test_every_handler_has_a_cheap_argv():
    assert {argv[0] for argv in CHEAP_ARGVS} == set(cli._HANDLERS)


def _case_id(argv):
    return "-".join(a for a in argv if a in (*cli._HANDLERS, "json", "csv"))


@pytest.mark.parametrize("argv", CHEAP_ARGVS, ids=_case_id)
def test_handlers_return_the_document_that_main_prints(capsys, argv):
    cfg = cli.build_parser().parse_args([*argv, "--deterministic"], namespace=cli.RunConfig())
    doc = cli._HANDLERS[cfg.command](cfg)
    assert isinstance(doc, dict)
    assert capsys.readouterr().out == ""
    code, out, _ = run_cli(capsys, *argv, "--deterministic")
    assert code == 0
    if argv[-1] == "csv":
        columns = [name for name in doc if name not in ("eps_num", "eps_log2_den")]
        assert out == ",".join(columns) + "\n" + ",".join(str(doc[c]) for c in columns) + "\n"
    else:
        head = {"command": cfg.command, "n": cfg.n, **({"seed": 3} if "--seed" in argv else {})}
        assert out == json.dumps({**head, **doc}, indent=2) + "\n"


def test_module_runs_as_a_script():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["gowers", "--anf", "x1*x2", "-n", "2", "--route", "spectral", "--deterministic"]
    proc = subprocess.run([sys.executable, "-m", "gowersim.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["command"] == "gowers"
    assert doc["routes"]["spectral"]["pow"] == {"num": 1, "log2_den": 2, "value": 0.25}
    proc = subprocess.run([sys.executable, "-m", "gowersim.cli", "analyze", "-n", "2"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2 and "exactly one" in proc.stderr


def test_closed_stdout_exits_1_without_a_traceback():
    # ~1 MB of JSON: far more than a pipe buffer, so the writer meets the closed end
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["analyze", "--family", "random", "-n", "16", "--seed", "1", "--deterministic"]
    proc = subprocess.Popen([sys.executable, "-m", "gowersim.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


@pytest.mark.parametrize("argv, status", [
    (["analyze", "--family", "random", "-n", "16", "--seed", "1", "--deterministic"], 0),
    (["analyze", "--anf", "x9", "-n", "2"], 2),
    (["analyze", "--family", "random", "-n", "25", "--seed", "1"], 3),
], ids=["analyze-1MB", "exit-2", "exit-3"])
def test_the_command_flushes_what_main_prints(capsys, argv, status):
    # `run` ends with os._exit, so only its own flushes deliver buffered output;
    # PYTHONUNBUFFERED would write every line through and hide a missing flush
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "from gowersim.cli import run; run()", *argv],
                          capture_output=True, timeout=60, env=env)
    code, out, err = run_cli(capsys, *argv)
    assert (proc.returncode, code) == (status, status)
    assert proc.stdout == out.encode()
    assert proc.stderr == err.encode()
    assert (len(out) > 1 << 19) if status == 0 else err.startswith("error: ")  # ~1 MB


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "analyze" in out


def test_deterministic_runs_are_identical(capsys):
    argv = ("compare", "--family", "random", "-n", "3", "--shots", "200",
            "--seed", "31", "--deterministic")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_trace_launcher_finds_every_traced_name(tmp_path):
    # perfbench/tracing.py looks functions and methods up by name; a removed
    # name would break `perfbench/run.py --trace 1`
    launcher = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    trace = tmp_path / "trace.json"
    argv = ["gowers", "--anf", "x1*x2 + x3", "-n", "3", "-k", "2", "--deterministic"]
    proc = subprocess.run(
        [sys.executable, str(launcher), str(trace), *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["agreement"] is True
    names = {span[2] for span in json.loads(trace.read_text())["spans"]}
    assert {"gowers.u2_autocorrelation", "cli.resolve_function"} <= names


def test_benchmark_job_arguments_parse(monkeypatch):
    # every job the benchmark launches must still parse, or it would count as failed
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS

    parser = cli.build_parser()
    for build in WORKLOADS.values():
        for seed in (1, 7):
            for job in build(seed):
                cfg = parser.parse_args([*job.args, "--deterministic"], namespace=cli.RunConfig())
                assert cfg.command == job.args[0] and cfg.deterministic


def test_benchmark_jobs_pass_their_checks(monkeypatch, capsys):
    # each benchmark job's own output check, run in process on this tree
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS

    # `--route all` at k = 2 and n = 12 still stops at uk_definition's capacity guard
    over_capacity = {"gowers-k2-n12-0"}
    # analyze-random-20 is left out: it takes ~2 s, and its check re-parses a 19.6 MB ANF
    exact = [job for job in WORKLOADS["exact-large-n"](1) if job.name != "analyze-random-20"]
    for job in [*exact, *WORKLOADS["sim-24q"](1), *WORKLOADS["small-n-batch"](1)]:
        code, out, err = run_cli(capsys, *job.args, "--deterministic")
        if job.name in over_capacity:
            assert code == 3 and out == "", job.name
            continue
        assert code == 0, (job.name, err)
        assert job.check(out) == [], job.name
