"""Command-line interface.

Subcommands: analyze, gowers, simulate, estimate, lintest, blr, compare.  A function comes
from --anf, --tt-hex or --family (linear, bent, random), and `simulate --circuit u2` is the
derivative walk at k = 2.  Output is JSON on stdout (CSV available for `compare`).  All
randomness flows from a single --seed; when it is omitted and the command uses randomness,
a fresh seed is drawn and printed in the output.  --deterministic suppresses the timestamp
field so that equal arguments and seeds give byte-identical output.  Each subcommand imports
only the modules it runs; numpy loads only where a truth table is built (see README "Library").

argparse parses each run into one `RunConfig`, the only argument of every
handler; each number is range-checked by its option's type (exit 2, before any work).
Each handler returns the document that `main` hands to `_emit`, the one
function that prints a result.

Exit statuses: 0 success, 1 stdout closed early (broken pipe), 2
usage/parse/domain errors, 3 capacity errors, 4 internal cross-check failures.
`main(argv)` is the in-process API and returns the status; `run`, the
`gowersim` command, flushes stdout and stderr and ends the process with
`os._exit`, skipping the interpreter's teardown (~22 ms once numpy has
loaded).  `simulate` loads `qsim`, `boolfn` and `errors`, never the
exact-arithmetic `spectral` or `dyadic`; `--family random` adds `estimate`'s stream.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import TYPE_CHECKING

from .errors import CapacityError, CrossCheckError

if TYPE_CHECKING:
    from .boolfn import BooleanFunction

FAMILIES = ("linear", "bent", "random")


class RunConfig(argparse.Namespace):
    """The options of one run, as parsed by `build_parser`."""

    def resolve_function(self) -> BooleanFunction:
        if self.u is not None and self.family != "linear":
            raise ValueError("--u applies only to --family linear")
        if sum(x is not None for x in (self.anf, self.tt_hex, self.family)) != 1:
            raise ValueError("specify exactly one of --anf, --tt-hex, --family")
        from .boolfn import BooleanFunction, bent_quadratic, linear, random_function

        if self.anf is not None:
            return BooleanFunction.from_anf_string(self.anf, self.n)
        if self.tt_hex is not None:
            return BooleanFunction.from_hex(self.n, self.tt_hex)
        if self.family == "linear":
            if self.u is None:
                raise ValueError("--family linear requires --u <bit string>")
            return linear(self.n, self.u)
        if self.family == "random":
            return random_function(self.n, self.seed)
        return bent_quadratic(self.n)  # "bent" (argparse checked the choice)

    def uses_seed(self) -> bool:
        return self.family == "random" or self.command in ("estimate", "lintest", "blr", "compare")


def _emit(cfg: RunConfig, payload: dict) -> None:
    """Print a handler's document: JSON after command, n and seed, or `compare`'s CSV rows."""
    if getattr(cfg, "format", "json") == "csv":
        columns = [name for name in payload if name not in ("eps_num", "eps_log2_den")]
        print(",".join(columns) + "\n" + ",".join(str(payload[name]) for name in columns))
        return
    out: dict = {"command": cfg.command, "n": cfg.n}
    if cfg.uses_seed():
        out["seed"] = cfg.seed
    if not cfg.deterministic:
        out["timestamp"] = datetime.now(timezone.utc).isoformat()
    out.update(payload)
    print(json.dumps(out, indent=2))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(cfg: RunConfig) -> dict:
    from .gowers import u2_spectral
    from .spectral import dist_to_linear, nonlinearity, walsh

    f = cfg.resolve_function()
    w = walsh(f)
    eps, u = dist_to_linear(f)
    gv = u2_spectral(f)
    anf = f.to_anf()
    return {
        "tt_hex": f.to_hex(),
        "anf": anf.to_string(),
        "weight": f.weight,
        "degree": anf.degree(),
        "nonlinearity": nonlinearity(f),
        "dist_to_linear": {
            **eps.to_json_dict(),
            "argmin_u": format(u, f"0{f.n}b"),
            "argmin_index": u,
        },
        "walsh": {
            "max_abs": int(abs(w).max()),
            "max_signed": int(w.max()),
        },
        "u2": {"pow": gv.pow_value.to_json_dict(), "norm": gv.norm},
    }


def cmd_gowers(cfg: RunConfig) -> dict:
    k, route = cfg.k, cfg.route
    if route in ("spectral", "autocorrelation") and k != 2:
        raise ValueError(f"--route {route} is only defined for k = 2")
    if route == "derivatives" and k < 3:
        raise ValueError("--route derivatives requires k >= 3")
    if route == "all":
        names = ["definition", "spectral", "autocorrelation"] if k == 2 else ["definition"]
        if k >= 3:
            names.append("derivatives")
    else:
        names = [route]
    f = cfg.resolve_function()
    from . import gowers

    routes = {
        "definition": lambda: gowers.uk_definition(f, k),
        "spectral": lambda: gowers.u2_spectral(f),
        "autocorrelation": lambda: gowers.u2_autocorrelation(f),
        "derivatives": lambda: gowers.uk_via_derivatives(f, k),
    }
    results = {name: routes[name]() for name in names}
    if len({v.pow_value for v in results.values()}) > 1:
        detail = {name: str(v.pow_value) for name, v in results.items()}
        raise CrossCheckError(f"Gowers routes disagree: {detail}")
    return {
        "k": cfg.k,
        "route": cfg.route,
        "routes": {
            name: {"pow": v.pow_value.to_json_dict(), "norm": v.norm}
            for name, v in results.items()
        },
        "agreement": True,  # routes that disagree raise CrossCheckError above
    }


def cmd_simulate(cfg: RunConfig) -> dict:
    from . import qsim

    if cfg.k is not None and cfg.circuit != "derivative_walk":
        raise ValueError(f"-k applies only to --circuit derivative_walk, not {cfg.circuit}")
    if cfg.circuit == "derivative_walk" and cfg.k is None:
        raise ValueError("--circuit derivative_walk requires -k")
    circuit = (qsim.build_appendix_u3_circuit(cfg.n) if cfg.circuit == "u3_appendix"
               else qsim.build_derivative_walk_circuit(cfg.n, cfg.k or 2))  # u2: the walk at k = 2
    has_function = any(x is not None for x in (cfg.anf, cfg.tt_hex, cfg.family, cfg.u))
    if not (has_function or cfg.dump or cfg.audit):
        raise ValueError("nothing to do: give a function, --dump, or --audit")
    payload: dict = {
        "circuit": cfg.circuit,
        "registers": circuit.m,
        "qubits": circuit.qubits,
        "gate_count": len(circuit.gates),
        "oracle_count": circuit.oracle_count,
    }
    if cfg.k is not None:
        payload["k"] = cfg.k
    if cfg.dump:
        payload["dump"] = circuit.dump().splitlines()
    if cfg.audit:
        payload["audit"] = qsim.phase_audit(circuit)
    if has_function:
        f = cfg.resolve_function()
        amp0 = qsim.zero_amplitude(circuit, f)
        payload["amplitude_at_zero"] = amp0
        payload["probability_zero"] = amp0 * amp0
    return payload


def cmd_estimate(cfg: RunConfig) -> dict:
    from .estimate import (STREAM_SETUP_DRAWS, _check_draws, hoeffding_bound, u2_partial_sums,
                           validate_bound, y_bar)
    from .gowers import u2_spectral

    f = cfg.resolve_function()
    # under --validate, y_bar's stream and one per trial, each charged its set-up
    _check_draws((1 + cfg.trials) * (cfg.m + STREAM_SETUP_DRAWS) if cfg.validate else cfg.m)
    cum = u2_partial_sums(f)
    report = hoeffding_bound(y_bar(cum, cfg.m, cfg.seed), cfg.m, cfg.t, cfg.seed)
    report["function_tt_hex"] = f.to_hex()
    gv = u2_spectral(f)
    payload = {
        "report": report,
        "exact_norm": gv.norm,
        "exact_pow": gv.pow_value.to_json_dict(),
        "covered": gv.norm <= report["upper_bound"],
    }
    if cfg.validate:
        coverage = validate_bound(cum, gv.norm, cfg.m, cfg.t, cfg.trials, cfg.seed)
        payload["validate"] = {
            "trials": cfg.trials,
            "coverage": coverage,
            "meets_confidence_standard": coverage >= report["confidence_standard"],
        }
    return payload


def cmd_lintest(cfg: RunConfig) -> dict:
    from .lintest import quantum_linearity_test, rejection_lower_bound
    from .spectral import dist_to_linear

    f = cfg.resolve_function()
    verdict = quantum_linearity_test(f, cfg.shots, cfg.seed)
    eps, u = dist_to_linear(f)
    return {
        "tt_hex": f.to_hex(),
        **verdict,
        "dist_to_linear": {**eps.to_json_dict(), "argmin_u": format(u, f"0{f.n}b")},
        "rejection_lower_bound": rejection_lower_bound(float(eps)) if 0 < eps <= 0.5 else None,
    }


def cmd_blr(cfg: RunConfig) -> dict:
    from .lintest import blr_test

    f = cfg.resolve_function()
    return {"tt_hex": f.to_hex(), **blr_test(f, cfg.trials, cfg.seed)}


def cmd_compare(cfg: RunConfig) -> dict:
    from .lintest import compare

    return compare(cfg.resolve_function(), cfg.shots, cfg.seed)


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _checked(convert, ok, rule: str):
    """An argparse type: `convert` ASCII text, then require `ok(value)`, worded as `rule`."""
    def check(text: str):
        if not text.isascii():  # int() and float() would read any Unicode digit
            raise ValueError(text)  # argparse words it as "invalid int value: '...'"
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    check.__name__ = convert.__name__  # argparse's "invalid int value: 'x'" names it
    return check


_SEED = _checked(int, lambda v: v >= 0, ">= 0")
_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_MARGIN = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")


def _add_function_args(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group("function")
    group.add_argument("--anf", help="ANF expression, e.g. 'x1*x2 + x3'")
    group.add_argument("--tt-hex", dest="tt_hex", help="hex truth table, MSB first")
    group.add_argument("--family", choices=FAMILIES, help="named function family")
    group.add_argument("--u", help="bit string selecting the linear function u.x")
    p.add_argument("-n", type=_COUNT, required=True, help="number of variables")
    p.add_argument(
        "--seed",
        type=_SEED,
        help="master RNG seed (drawn and printed if omitted and the command uses randomness)",
    )
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="suppress the timestamp so equal seeds give byte-identical output",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gowersim",
        description="Exact Gowers-norm analysis and simulated quantum linearity testing "
        "of Boolean functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="weights, degree, spectrum, distances, U2")
    _add_function_args(p)

    p = sub.add_parser("gowers", help="exact U_k by one or all routes")
    _add_function_args(p)
    p.add_argument("-k", type=_COUNT, default=2, help="norm order (default 2)")
    p.add_argument(
        "--route",
        choices=("definition", "spectral", "autocorrelation", "derivatives", "all"),
        default="all",
    )

    p = sub.add_parser("simulate", help="run/dump/audit the norm circuits")
    _add_function_args(p)
    p.add_argument(
        "--circuit", choices=("u2", "u3_appendix", "derivative_walk"), required=True
    )
    p.add_argument("-k", type=_COUNT, help="walk order (derivative_walk only)")
    p.add_argument("--dump", action="store_true", help="print the gate list")
    p.add_argument("--audit", action="store_true", help="print the symbolic phase audit")

    p = sub.add_parser("estimate", help="Hoeffding upper bound on the U2 norm")
    _add_function_args(p)
    p.add_argument("-m", type=_COUNT, required=True, help="samples per trial")
    p.add_argument("-t", type=_MARGIN, required=True, help="margin t > 0")
    p.add_argument("--validate", action="store_true", help="measure bound coverage")
    p.add_argument("--trials", type=_COUNT, default=200, help="trials for --validate")

    p = sub.add_parser("lintest", help="sampled quantum linearity test")
    _add_function_args(p)
    p.add_argument("--shots", type=_COUNT, default=1000)

    p = sub.add_parser("blr", help="sampled classical BLR linearity test")
    _add_function_args(p)
    p.add_argument("--trials", type=_COUNT, default=1000)

    p = sub.add_parser("compare", help="quantum vs BLR side by side")
    _add_function_args(p)
    p.add_argument("--shots", type=_COUNT, default=10000)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


_HANDLERS = {
    "analyze": cmd_analyze,
    "gowers": cmd_gowers,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "lintest": cmd_lintest,
    "blr": cmd_blr,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_parser().parse_args(argv, namespace=RunConfig())
    except SystemExit as exc:  # argparse signals usage errors (and --help) this way
        return int(exc.code or 0)
    if cfg.seed is None and cfg.uses_seed():
        cfg.seed = int.from_bytes(os.urandom(16), "big")
    try:
        _emit(cfg, _HANDLERS[cfg.command](cfg))
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # AnfSyntaxError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    """The `gowersim` command: `main` on sys.argv, both streams flushed, then `os._exit`."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not unseen at os._exit
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull so that
        # no later flush can fail again (Python's SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
