"""Benchmark a change against its parent in alternating pairs, and write the
medians as a ``BENCH_<n>.json`` trajectory file.

    python3 tools/bench_pairs.py run --parent DIR --change DIR --pairs 10 --out pairs.jsonl
    python3 tools/bench_pairs.py summarize pairs.jsonl --parent-commit SHA > BENCH_<n>.json

``run`` runs the benchmark that ``BENCHMARK.json`` declares, untraced, for its
``run_seconds``, on each of its workloads in two checkouts: the parent's and
the change's.  Pair i runs the parent first when i is even and the change
first when i is odd, so that a drift of the machine's speed falls on both
sides alike.  Each run appends one JSON line
``{pair, side, workload, seed, seconds, result}`` to ``--out``.

``summarize`` reduces those lines to, per workload, metric and side, the
median and the interquartile range of the benchmark's end-to-end metrics,
with the number of pairs in which the change was lower and the median of the
pairs' change/parent ratios, and records the machine.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def benchmark() -> dict:
    return json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def run(args) -> None:
    bench = benchmark()
    seconds = bench["run_seconds"]
    for i in range(args.pairs):
        for workload in (w["name"] for w in bench["workloads"]):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                proc = subprocess.run(
                    [sys.executable, *bench["command"][1:], "--workload", workload,
                     "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=getattr(args, side), capture_output=True, text=True, check=True,
                )
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                line = {"pair": i, "side": side, "workload": workload, "seed": args.seed,
                        "seconds": seconds, "result": result}
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(line) + "\n")


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "cpu_count": os.cpu_count(), "processor": platform.machine()}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def summarize(args) -> None:
    bench = benchmark()
    lines = [json.loads(ln) for ln in Path(args.pairs_file).read_text().splitlines() if ln]
    settings = {(ln["seed"], ln["seconds"]) for ln in lines}
    if len(settings) != 1:
        raise SystemExit(f"bench_pairs: runs with different seeds or lengths: {sorted(settings)}")
    ((seed, seconds),) = settings
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {side: {ln["pair"]: ln["result"] for ln in lines
                       if ln["workload"] == workload and ln["side"] == side} for side in SIDES}
        pairs = sorted(set(runs["parent"]) & set(runs["change"]))
        if len(pairs) < 2:
            raise SystemExit(f"bench_pairs: {workload} has {len(pairs)} complete pairs, needs 2")
        entry = {"pairs": len(pairs),
                 "all_correct": all(runs[s][p]["correct"] for s in SIDES for p in pairs),
                 "failed": sum(runs[s][p]["failed"] for s in SIDES for p in pairs)}
        for metric in (m["name"] for m in bench["end_to_end"]):
            value = {s: [runs[s][p]["metrics"][metric]["value"] for p in pairs] for s in SIDES}
            entry[metric] = {s: spread(value[s]) for s in SIDES}
            pairs_of = list(zip(value["parent"], value["change"]))
            entry[metric]["change_lower_in"] = sum(c < p for p, c in pairs_of)
            entry[metric]["median_ratio"] = statistics.median(c / p for p, c in pairs_of)
        workloads[workload] = entry
    out = {
        "parent_commit": args.parent_commit,
        "commit": "the commit that adds this file",
        "machine": machine(),
        "method": "tools/bench_pairs.py: alternating parent/change pairs of "
                  f"{' '.join(bench['command'])} --seed {seed} --seconds {seconds:g} --trace 0",
        "workloads": workloads,
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run alternating benchmark pairs")
    p_run.add_argument("--parent", required=True, help="checkout of the parent commit")
    p_run.add_argument("--change", required=True, help="checkout of the change")
    p_run.add_argument("--pairs", type=int, default=10)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--out", required=True, help="JSON-lines file to append to")
    p_sum = sub.add_parser("summarize", help="write the trajectory file to stdout")
    p_sum.add_argument("pairs_file")
    p_sum.add_argument("--parent-commit", required=True)
    args = p.parse_args(argv)
    if args.command == "run":
        run(args)
    else:
        summarize(args)


if __name__ == "__main__":
    main()
