"""Run a fixed list of meca commands in two checkouts and report every output
file whose bytes differ.

    python3 tools/compare_outputs.py --parent DIR --change DIR [--draws 8,9,10]

Both checkouts run each command on the same input files, each in its own
output directory, with meca imported from the checkout's ``src/``.  The list
is the three benchmark workloads' commands on each ``--draws`` input draw (the
inputs that ``meca_bench/run.py --seed 1`` makes as its draws 8 to 15), ``gen``
with both presets, ``train`` with each method, a ``train`` and a coral
``sweep`` that diverge, and the default ``sweep``.  Every file a command
writes is compared byte for byte, as are the exit codes; a manifest is
compared as JSON without ``wall_clock_seconds``, ``argv`` and ``artifacts``,
which name paths and times.  Prints one line per difference and a count, and
exits 1 when anything differs.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST_VOLATILE = ("wall_clock_seconds", "argv", "artifacts")
RUN_MECA = (
    "import sys, meca, meca.cli; "
    "assert meca.__file__.startswith(sys.argv[1]), meca.__file__; "
    "sys.exit(meca.cli.main(sys.argv[2:]))"
)
# train and sweep flags on the blobs preset's data: 10 epochs in well under a second
SMALL = ["--epochs", "10", "--hidden", "16,8", "--seed", "3"]


def commands(inputs: Path, draws: list[int]) -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, with ``{out}`` for the output directory.
    Writes the input files of the benchmark workloads' draws under ``inputs``."""
    sys.path.insert(0, str(ROOT / "meca_bench"))
    import workloads

    cmds = []
    for w in workloads.WORKLOADS.values():
        for seed in draws:
            d = inputs / f"{w.name}_{seed}"
            d.mkdir(parents=True)
            xs, ys, xt, yt = workloads.make_domains(w, seed)
            workloads.write_dataset_csv(xs, ys, d / "source.csv")
            workloads.write_dataset_csv(xt, yt, d / "target.csv")
            argv = workloads.argv(w, seed, d / "source.csv", d / "target.csv", Path("{out}"))
            cmds.append((f"{w.name} draw {seed}", [str(a) for a in argv]))
    cmds += [(f"gen {p}", ["gen", "--preset", p, "--seed", "0", "--out-dir", "{out}"])
             for p in ("blobs", "moons")]
    data = ["--source", str(inputs / "blobs" / "source.csv"),
            "--target", str(inputs / "blobs" / "target.csv"), "--out-dir", "{out}"]
    for name, flags in [
        ("train source_only", ["--method", "source_only"]),
        ("train entropy_reg", ["--method", "entropy_reg", "--gamma", "0.5"]),
        ("train coral", ["--method", "coral", "--lambda", "1"]),
        ("train meca tanh", ["--method", "meca", "--lambda", "2", "--activation", "tanh"]),
        ("train meca align 1", ["--method", "meca", "--lambda", "2", "--align-layer", "1"]),
        ("train coral diverging", ["--method", "coral", "--lambda", "1e6", "--lr", "0.05"]),
    ]:
        cmds.append((name, ["train", *flags, *SMALL, *data]))
    cmds.append(("sweep meca", ["sweep", *SMALL, *data]))
    cmds.append(("sweep coral diverging", ["sweep", "--method", "coral", "--grid",
                                           "0.01,1,1e6", "--lr", "0.05", *SMALL, *data]))
    return cmds


def run(checkout: Path, argv: list[str], out: Path) -> int:
    argv = [a.replace("{out}", str(out)) for a in argv]
    src = str((checkout / "src").resolve())
    proc = subprocess.run([sys.executable, "-c", RUN_MECA, src, *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    if proc.returncode not in (0, 1, 2, 3):  # a crash, not a meca exit code
        raise SystemExit(f"compare_outputs: {argv[0]} crashed in {checkout}:\n{proc.stderr}")
    return proc.returncode


def same(a: Path, b: Path) -> bool:
    if a.name != "manifest.json":
        return a.read_bytes() == b.read_bytes()
    ja, jb = (json.loads(p.read_text()) for p in (a, b))
    for key in MANIFEST_VOLATILE:
        ja.pop(key, None)
        jb.pop(key, None)
    return ja == jb


def compare(parent: Path, change: Path, draws: list[int], work: Path) -> list[str]:
    inputs = work / "inputs"
    cmds = commands(inputs, draws)
    # the train and sweep commands read the blobs preset, as the parent writes it
    run(parent, ["gen", "--preset", "blobs", "--seed", "0", "--out-dir", "{out}"],
        inputs / "blobs")
    diffs, files = [], 0
    for i, (name, argv) in enumerate(cmds):
        outs = {side: work / side / str(i) for side in ("parent", "change")}
        codes = {side: run(root, argv, outs[side])
                 for side, root in (("parent", parent), ("change", change))}
        if codes["parent"] != codes["change"]:
            diffs.append(f"{name}: exit code {codes['parent']} -> {codes['change']}")
        names = {side: {p.relative_to(o) for p in o.rglob("*") if p.is_file()}
                 for side, o in outs.items()}
        for rel in sorted(names["parent"] ^ names["change"]):
            diffs.append(f"{name}: {rel} written by one side only")
        for rel in sorted(names["parent"] & names["change"]):
            files += 1
            if not same(outs["parent"] / rel, outs["change"] / rel):
                diffs.append(f"{name}: {rel} differs")
        print(f"{name}: exit {codes['parent']}, {len(names['parent'])} files", file=sys.stderr)
    print(f"{len(cmds)} commands, {files} files compared, {len(diffs)} differences")
    return diffs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--draws", default="8,9,10",
                   help="comma-separated input draws of the benchmark workloads")
    args = p.parse_args(argv)
    draws = [int(s) for s in args.draws.split(",")]
    with tempfile.TemporaryDirectory(prefix="meca-compare-") as work:
        diffs = compare(args.parent, args.change, draws, Path(work))
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
