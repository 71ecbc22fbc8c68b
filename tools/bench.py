"""Benchmark files: every workload of BENCHMARK.json at ten or more seeds, summarised.

    python3 tools/bench.py --out BENCH_<n>.json [--against CHECKOUT --against-out FILE]
                           [--seeds 1 2 ...] [--seconds 10]
    python3 tools/bench.py --compare OLD.json NEW.json

The first form runs `perfbench/run.py --workload W --seed S --seconds T` of this
checkout, one run at a time, for each seed and each workload, and writes FILE:
per workload, each end-to-end metric's median and quartiles over the seeds and
every run's pass count, outcome and metrics; then the first run's environment
record, the src/ line count and the tier-1 counts (pytest's summary line, run
as ROADMAP.md gives it).  The pass count matters because exact-large-n's
peak_rss_mb grows with it.  With --against, a second checkout's perfbench/run.py
runs the same list, alternating which checkout goes first at each step, and its
file is written to --against-out, so the two files hold alternating pairs.

The second form prints, per workload and metric, both medians and
interquartile ranges, the relative change of the medians against the metric's
bound in this checkout's BENCHMARK.json ("WORSE" past it), and, for the seeds
both files share, in how many of those pairs NEW was better.  A measuring tool,
not a test: it exits 2 on bad arguments, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = list(range(1, 11))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `checkout`: its last stdout line and its report's pass count."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads((checkout / "perfbench-out" / f"{workload}-seed{seed}-trace0.json")
                        .read_text())
    print(f"{checkout.name} {workload} seed {seed}: {report['passes']} passes, "
          + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
          file=sys.stderr, flush=True)
    return {"seed": seed, "passes": report["passes"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "environment": report["environment"]}


def tier1_counts(checkout: Path) -> dict:
    """pytest's counts on the checkout, as its summary line gives them."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=checkout,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              filter(None, ["src", os.environ.get("PYTHONPATH")]))})
    summary = proc.stdout.strip().splitlines()[-1]
    return {word: int(count) for count, word in re.findall(r"(\d+) (\w+)", summary)}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(checkout: Path, runs: dict[str, list[dict]], seconds: float) -> dict:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    first = next(iter(runs.values()))[0]["environment"]
    return {
        "command": [*spec["command"], "--workload", "W", "--seed", "S", "--seconds",
                    str(seconds)],
        "environment": {k: v for k, v in first.items() if k != "workload_seed"},
        "src_lines": first["src_lines"],
        "tier1": tier1_counts(checkout),
        "workloads": {
            workload: {
                "metrics": {name: {**quartiles([r["metrics"][name] for r in rs]), "unit": unit}
                            for name, unit in units.items()},
                "passes": [r["passes"] for r in rs],
                "runs": [{k: v for k, v in r.items() if k != "environment"} for r in rs],
            }
            for workload, rs in runs.items()
        },
    }


def measure(opts) -> None:
    sides = [(ROOT, Path(opts.out))]
    if opts.against:
        sides.append((Path(opts.against).resolve(), Path(opts.against_out)))
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs = {checkout: {w: [] for w in workloads} for checkout, _ in sides}
    step = 0
    for seed in opts.seeds:
        for workload in workloads:
            order = sides if step % 2 == 0 else sides[::-1]
            for checkout, _ in order:
                runs[checkout][workload].append(run_once(checkout, workload, seed, opts.seconds))
            step += 1
    for checkout, out in sides:
        out.write_text(json.dumps(summary(checkout, runs[checkout], opts.seconds), indent=1)
                       + "\n")
        print(f"wrote {out}", file=sys.stderr)


def compare(old_path: str, new_path: str) -> None:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload, entry in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            print(f"{workload}: not in {old_path}")
            continue
        print(f"{workload}: passes {before['passes']} -> {entry['passes']}")
        old_runs = {r["seed"]: r for r in before["runs"]}
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            a, b = before["metrics"][name], entry["metrics"][name]
            change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            worse = change > metric["bound"] if lower else -change > metric["bound"]
            pairs = [(old_runs[r["seed"]]["metrics"][name], r["metrics"][name])
                     for r in entry["runs"] if r["seed"] in old_runs]
            better = sum((y < x) if lower else (y > x) for x, y in pairs)
            print(f"  {name:12} {a['median']:.4g} ({a['q1']:.4g}-{a['q3']:.4g}) -> "
                  f"{b['median']:.4g} ({b['q1']:.4g}-{b['q3']:.4g}) {metric['unit']}: "
                  f"{change:+.2%} against bound {metric['bound']:.0%}"
                  f"{' WORSE' if worse else ''}; better in {better} of {len(pairs)} pairs")
    print(f"src/ lines {old['src_lines']} -> {new['src_lines']}; "
          f"tier-1 {old['tier1']} -> {new['tier1']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="the benchmark file of this checkout to write")
    parser.add_argument("--against", help="a second checkout, run alternately with this one")
    parser.add_argument("--against-out", help="the benchmark file of --against to write")
    parser.add_argument("--seeds", type=int, nargs="+", default=DEFAULT_SEEDS)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    opts = parser.parse_args()
    if opts.compare:
        compare(*opts.compare)
    elif not opts.out or bool(opts.against) != bool(opts.against_out) or len(opts.seeds) < 10:
        parser.error("give --out (and --against with --against-out), with at least ten seeds")
    else:
        measure(opts)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
