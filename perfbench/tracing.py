"""Traced launcher: one gowersim CLI call with spans at every module boundary.

    python3 perfbench/tracing.py TRACE_OUT [gowersim arguments ...]

The launcher imports `gowersim.cli` from `src/`, replaces the public functions
of the modules in LAYERS (and a few methods) by timing wrappers, runs
`cli.main` on the arguments and writes the trace to TRACE_OUT as JSON when the
call ends.  Nothing under `src/` is edited: a wrapper is installed at the
module attribute and at every other module name that was bound to the same
function by `from ... import`, e.g. `qsim.fwht_inplace` and
`gowers.fwht_inplace` for `spectral.fwht_inplace`.

A span records name, parent, start, end and self time (its duration minus the
time of the calls it made to other wrapped functions).  The hot kernels in
KERNELS run up to ~10^5 or 10^6 times per job, so they are not spans: each call only
adds to a call count and a total time, and its time is charged to the
enclosing span as child time.  Each job is a fresh process, so lazy caches
such as `boolfn._FOLD_MASKS` start cold exactly as in the untraced run.

`aggregate` turns the trace files of a workload into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "boolfn", "spectral", "gowers", "qsim", "estimate", "lintest")
KERNELS = ("boolfn.xor_translate", "boolfn.mobius_packed", "boolfn.pack_point", "boolfn.unpack_point")
# (module, class, method, span name); classmethods keep their decorator
METHODS = (
    ("cli", "RunConfig", "resolve_function", "cli.resolve_function"),
    ("boolfn", "Anf", "to_string", "boolfn.anf_to_string"),
    ("boolfn", "Anf", "degree", "boolfn.Anf.degree"),
    ("boolfn", "BooleanFunction", "from_anf_string", "boolfn.BooleanFunction.from_anf_string"),
    ("boolfn", "BooleanFunction", "from_hex", "boolfn.BooleanFunction.from_hex"),
    ("boolfn", "BooleanFunction", "to_hex", "boolfn.BooleanFunction.to_hex"),
    ("boolfn", "BooleanFunction", "to_anf", "boolfn.BooleanFunction.to_anf"),
    ("boolfn", "BooleanFunction", "degree", "boolfn.BooleanFunction.degree"),
    ("boolfn", "BooleanFunction", "sign_table", "boolfn.BooleanFunction.sign_table"),
)
PRIVATE = {("cli", "_emit"): "cli.json_emit"}


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s)
        self.stack: list[list] = []  # open spans: [id, start, child_s]
        self.ids = itertools.count()
        self.counters: dict[str, float] = defaultdict(int)
        self.walsh_inputs: set[tuple[int, int]] = set()
        self.sample_states: list[weakref.ref] = []

    def span(self, name, fn, name_of=None, on_call=None, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call:
                on_call(self, args)
            parent = self.stack[-1][0] if self.stack else None
            frame = [next(self.ids), time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[1]
                if self.stack:
                    self.stack[-1][2] += duration
                label = name_of(args) if name_of else name
                self.spans.append((frame[0], parent, label, frame[1], end, duration - frame[2]))
            if on_return:
                on_return(self, result)
            return result

        return wrapper

    def kernel(self, name, fn):
        """Aggregated wrapper: call count, total time and the first (cold) call's time."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            if not counters[name + ".calls"]:
                counters[name + ".first_s"] = elapsed
            counters[name + ".calls"] += 1
            counters[name + ".s"] += elapsed
            if self.stack:
                self.stack[-1][2] += elapsed
            return result

        return wrapper

    def dump(self, path: str, exit_code) -> None:
        self.counters["spectral.walsh.distinct"] = len(self.walsh_inputs)
        record = {"exit": exit_code, "spans": self.spans, "counters": self.counters}
        Path(path).write_text(json.dumps(record))


# -- argument-derived counts ----------------------------------------------------


def _count_fwht(tracer: Tracer, args) -> None:
    size = args[0].shape[0]
    tracer.counters["spectral.fwht_inplace.butterflies"] += size * (size.bit_length() - 1)


def _count_walsh(tracer: Tracer, args) -> None:
    f = args[0]
    tracer.walsh_inputs.add((f.n, f.packed))


def _note_state(tracer: Tracer, state) -> None:
    counters = tracer.counters
    counters["qsim.state_bytes_max"] = max(counters["qsim.state_bytes_max"], state.amp.nbytes)


def _count_sample(tracer: Tracer, args) -> None:
    state, m = args[0], args[1]
    tracer.counters["estimate.sample.draws"] += m
    live = [ref for ref in tracer.sample_states if ref() is not None]
    if not any(ref() is state for ref in live):
        live.append(weakref.ref(state))
        tracer.counters["estimate.sample.distinct"] += 1
    tracer.sample_states = live


def _count_blr(tracer: Tracer, args) -> None:
    tracer.counters["lintest.blr_test.trials"] += args[1]


ON_CALL = {
    "spectral.fwht_inplace": _count_fwht,
    "spectral.walsh": _count_walsh,
    "estimate.sample": _count_sample,
    "lintest.blr_test": _count_blr,
}
ON_RETURN = {"qsim.uniform_state": _note_state, "qsim.apply": _note_state}
NAME_OF = {"qsim.apply": lambda args: "qsim.apply." + type(args[1]).__name__}


def install(tracer: Tracer) -> None:
    """Wrap the layers' functions and rebind every module name that refers to them."""
    modules = {name: importlib.import_module(f"gowersim.{name}") for name in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if not inspect.isfunction(value) or value.__module__ != module.__name__:
                continue
            name = PRIVATE.get((layer, attr)) or (None if attr.startswith("_") else f"{layer}.{attr}")
            if name is None:
                continue
            if name in KERNELS:
                wrapped[value] = tracer.kernel(name, value)
            else:
                wrapped[value] = tracer.span(
                    name, value, NAME_OF.get(name), ON_CALL.get(name), ON_RETURN.get(name)
                )
    for module in [importlib.import_module("gowersim"), *modules.values()]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
    handlers = modules["cli"]._HANDLERS
    for command, handler in handlers.items():
        handlers[command] = wrapped[handler]
    for layer, cls_name, method, name in METHODS:
        cls = getattr(modules[layer], cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(tracer.span(name, raw.__func__)))
        else:
            setattr(cls, method, tracer.span(name, raw))


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    tracer = Tracer()
    start = time.perf_counter()
    cli = importlib.import_module("gowersim.cli")
    end = time.perf_counter()
    tracer.spans.append((next(tracer.ids), None, "cli.import", start, end, end - start))
    install(tracer)
    code = None
    try:
        code = cli.main(cli_args)
    finally:
        tracer.dump(trace_out, code)
    return code


# ---------------------------------------------------------------------------
# aggregation (used by run.py)
# ---------------------------------------------------------------------------


def aggregate(traces: list[dict], job_walls: list[float]) -> dict[str, float]:
    """Per-layer totals over the traced jobs of one workload pass.

    `NAME.s` is summed self time and `NAME.calls` the number of spans; kernel
    counters and argument-derived counts are summed (`qsim.state_bytes_max`
    is a maximum).  The time no span covers is each job's wall time minus its
    root spans, i.e. interpreter start-up and exit.
    """
    out: dict[str, float] = defaultdict(int)
    for trace, wall in zip(traces, job_walls):
        covered = 0.0
        for _id, parent, name, start, end, self_s in trace["spans"]:
            out[name + ".s"] += self_s
            out[name + ".calls"] += 1
            if parent is None:
                covered += end - start
        out["trace.uncovered_s"] += wall - covered
        for name, value in trace["counters"].items():
            if name == "qsim.state_bytes_max":
                out[name] = max(out[name], value)
            else:
                out[name] += value
    out["spectral.walsh.repeat_ratio"] = out["spectral.walsh.calls"] / max(
        out["spectral.walsh.distinct"], 1
    )
    out["estimate.sample.cdf_rebuild_ratio"] = out["estimate.sample.calls"] / max(
        out["estimate.sample.distinct"], 1
    )
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
