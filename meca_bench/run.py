"""Benchmark of meca, driven from outside through ``meca.cli.main(argv)``.

    python3 meca_bench/run.py --workload sweep_meca --seed 1 --seconds 25 --trace 0

meca is imported from the ``src/`` next to this directory.  Each run makes its
workload's inputs from ``--seed``, repeats whole rounds of the workload's meca
command for ``--seconds`` seconds, checks the outputs and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.  See
README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# An untraced run cycles through this many input draws and reports, as run_s,
# the mean over draws of each draw's fastest round.  A round's cost depends on
# its data (the Jacobi eigensolver's sweep count does), so averaging draws
# steadies run_s; the fastest round filters out rounds that other tenants of
# a shared machine preempted, which only ever adds time.
DRAWS = 8
MICRO_DIMS = (6, 16, 64)
MICRO_SECONDS = 0.2   # per microbenchmark, after at least MICRO_MIN_CALLS calls
MICRO_MIN_CALLS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_meca():
    """Import meca from the checkout's src/, never from an installed copy;
    return the import time in seconds."""
    src = ROOT / "src"
    if not (src / "meca" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no meca package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import meca.cli  # noqa: F401
    setup_s = time.perf_counter() - start
    if Path(sys.modules["meca"].__file__).resolve().parent != (src / "meca").resolve():
        raise SystemExit("run.py: meca was not imported from the checkout")
    return setup_s


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def digest(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def run_meca(argv: list[str]) -> int:
    """One meca command through the public front door, its prints captured."""
    import meca.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return meca.cli.main(argv)


def microbench(results: dict) -> None:
    """Median microseconds per call of sym_eig and grad_dist_log_euclidean on
    fixed, seeded SPD inputs (the same in every run)."""
    import numpy as np
    from meca import spd

    for d in MICRO_DIMS:
        rng = np.random.default_rng(d)
        mats = []
        for _ in range(2):
            a = rng.standard_normal((d, 2 * d))
            mats.append(a @ a.T / (2 * d) + 0.1 * np.eye(d))
        cs, ct = spd.make_spd(mats[0]), spd.make_spd(mats[1])
        for name, call in (
            ("spd.sym_eig", lambda: spd.sym_eig(mats[0])),
            ("spd.grad_dist_log_euclidean", lambda: spd.grad_dist_log_euclidean(cs, ct)),
        ):
            times = []
            start = time.perf_counter()
            while len(times) < MICRO_MIN_CALLS or time.perf_counter() - start < MICRO_SECONDS:
                t = time.perf_counter()
                call()
                times.append(time.perf_counter() - t)
            results[f"{name}.d{d}_us"] = statistics.median(times) * 1e6


@dataclass
class Draw:
    """One input draw of a run: its inputs, its working directory and the
    wall times of its rounds."""
    seed: int
    data: tuple
    source: Path
    target: Path
    work: Path
    times: list[float] = field(default_factory=list)
    digest: dict | None = None
    out_dir: Path | None = None


def make_draw(w, seed: int, work: Path) -> Draw:
    import workloads

    work.mkdir(parents=True)
    data = workloads.make_domains(w, seed)
    source, target = work / "source.csv", work / "target.csv"
    workloads.write_dataset_csv(data[0], data[1], source)
    workloads.write_dataset_csv(data[2], data[3], target)
    return Draw(seed, data, source, target, work)


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_s = import_meca()

    # these import numpy, so they come after the timed import of meca
    import workloads
    from checks import CheckError

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    work = OUT / "work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    # A traced run needs one draw: its traced and untraced rounds must do the
    # same work for their difference to be the tracing overhead.
    draws = [
        make_draw(w, (args.seed * DRAWS + k) % 2**32, work / str(k))
        for k in range(1 if tracer else DRAWS)
    ]

    traced_times, layer_rounds, counts = [], [], None
    attempted = failed = rounds = 0
    problem = ""
    start = time.perf_counter()
    while True:
        # untraced runs cycle through the draws; traced runs do an untimed
        # warm-up round, then alternate untraced and traced rounds
        d = draws[rounds % len(draws)]
        traced = tracer is not None and len(d.times) > len(traced_times)
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
            tracer.counts.clear()
        # Each round writes a new directory: rewriting the files of the last
        # round makes ext4 flush them on close, and the next rewrite then
        # waits on that I/O.
        previous, d.out_dir = d.out_dir, d.work / f"round{rounds}"
        t = time.perf_counter()
        code = run_meca(workloads.argv(w, d.seed, d.source, d.target, d.out_dir))
        elapsed = time.perf_counter() - t
        if previous is not None:
            shutil.rmtree(previous)
        if traced:
            tracer.uninstall()
            traced_times.append(elapsed)
            layer_rounds.append(tracer.summary(first_span))
            if counts is None:
                counts = dict(tracer.counts)
            else:
                del tracer.spans[first_span:]   # keep the first traced round's spans
                if counts != tracer.counts:
                    problem = "per-layer counts differ between traced rounds"
        elif tracer is None or rounds > 0:
            d.times.append(elapsed)
        rounds += 1
        attempted += w.lanes
        lost = workloads.failed_lanes(w, d.out_dir, code)
        failed += lost
        if not lost:
            round_digest = digest(workloads.output_files(w, d.out_dir))
            d.digest = d.digest or round_digest
            if round_digest != d.digest:
                problem = f"output bytes of draw {d.seed} differ between rounds"
        if (time.perf_counter() - start >= args.seconds and rounds % len(draws) == 0
                and (tracer is None or traced_times)):
            break
    for d in draws:
        if d.digest is None:
            continue
        # every round of a draw wrote the same bytes, so checking its last
        # round checks them all
        try:
            workloads.check_outputs(w, d.seed, d.data, d.source, d.target, d.out_dir, run_meca)
        except (CheckError, OSError, ValueError) as exc:
            problem = f"draw {d.seed}: {exc}"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.mean(min(d.times) for d in draws), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(layer_rounds, counts or {}, draws[0].times, traced_times)
    info = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds,
        "round_s": {d.seed: d.times for d in draws}, "traced_round_s": traced_times,
        "problem": problem, "environment": environment(),
    }
    result = {"correct": not problem, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}_seed{args.seed}_trace{args.trace}"
    with open(OUT / "results" / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, **info}, fh, indent=2)
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{w.name}.jsonl")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info))
    if problem:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problem else 1


LAYER_SELF = (
    "cli.main", "data.read_csv", "selection.sweep", "trainer.train_run",
    "trainer.epoch_metrics", "network.forward", "network.backward",
    "alignment.covariance", "alignment.penalty_value_and_grads",
    "spd.sym_eig", "spd.grad_dist_log_euclidean",
)
LAYER_COUNTS = (
    "spd.sym_eig.calls", "alignment.covariance.calls",
    "alignment.penalty_value_and_grads.calls", "network.forward.calls",
    "network.forward.columns", "network.backward.calls", "data.read_csv.rows",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric that a traced run reports, with its unit."""
    units = {f"{name}.self_s": "s" for name in LAYER_SELF}
    units.update({f"{layer}.self_s": "s" for layer in tracing.TRACED})
    units.update({name: "count" for name in LAYER_COUNTS})
    units["selection.lanes"] = "count"
    units["spd.eig_per_penalty"] = "ratio"
    for d in MICRO_DIMS:
        units[f"spd.sym_eig.d{d}_us"] = "us"
        units[f"spd.grad_dist_log_euclidean.d{d}_us"] = "us"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


def layer_metrics(layer_rounds, counts, plain_times, traced_times) -> dict:
    """Counts of one traced round, self times of the fastest traced round,
    the microbenchmarks, and the tracing overhead."""
    values = {name: counts.get(name, 0) for name in LAYER_COUNTS}
    values["selection.lanes"] = counts.get("selection.sweep.lanes", 0)
    fastest = layer_rounds[traced_times.index(min(traced_times))]
    units = per_layer_units()
    for key in units:
        if key.endswith(".self_s") or key == "spd.eig_per_penalty":
            values[key] = fastest.get(key, 0.0)
    microbench(values)
    values["trace.overhead_s"] = min(traced_times) - min(plain_times)
    values["trace.overhead_share"] = values["trace.overhead_s"] / min(plain_times)
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
