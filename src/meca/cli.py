"""Command-line front door: generate data, train one configuration, run the
lambda sweep, and run the verification suites.

Exit codes: 0 success, 1 usage, 2 numerical failure, 3 I/O failure
(including an input file that is malformed or holds no samples).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, data, network, selection, trainer, verify
from .errors import ConfigInvalidError, InsufficientRecordsError, MecaError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

DEFAULT_WEIGHT = 0.1  # --lambda/--gamma of the three weighted methods

CLI_METHODS = {
    "source_only": "source_only",
    "entropy_reg": "entropy_reg",
    "coral": "coral_euclidean",
    "meca": "meca_geodesic",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _csv_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _csv_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _add_train_options(p: argparse.ArgumentParser):
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=5e-4)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=_csv_ints, default=[32, 32],
                   help="comma-separated hidden layer widths")
    p.add_argument("--activation", choices=network.HIDDEN_ACTIVATIONS, default="relu")
    p.add_argument("--align-layer", type=int, default=None,
                   help="activation index used for alignment (default: penultimate)")
    p.add_argument("--jitter", type=float, default=1e-5)
    p.add_argument("--normalize-cov", action="store_true")
    p.add_argument("--source", required=True, help="labeled source CSV")
    p.add_argument("--target", required=True, help="target CSV (labels, if present, feed only the accuracy metric)")
    p.add_argument("--out-dir", required=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="meca", description=__doc__)
    parser.add_argument("--version", action="version", version=f"meca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a source/target CSV pair")
    p_gen.add_argument("--preset", choices=("blobs", "moons"), required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--per-class", type=int, default=125)
    p_gen.add_argument("--out-dir", required=True)

    p_train = sub.add_parser("train", help="train one configuration")
    p_train.add_argument("--method", choices=sorted(CLI_METHODS), default="meca")
    p_train.add_argument("--lambda", "--gamma", dest="weight", type=float, default=None,
                         help="weight of the alignment penalty (coral, meca) or of the "
                              "target entropy (entropy_reg), default 0.1; the two spellings "
                              "are one option; source_only takes none (or 0)")
    _add_train_options(p_train)

    p_sweep = sub.add_parser("sweep", help="train across a lambda grid and select by target entropy")
    p_sweep.add_argument("--method", choices=("coral", "meca"), default="meca")
    _add_train_options(p_sweep)
    p_sweep.add_argument(
        "--grid",
        type=_csv_floats,
        default=list(selection.DEFAULT_LAMBDA_GRID),
        help="comma-separated lambda values (default: 0.1,0.5,1,2,5,7,10,20)",
    )

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument(
        "--checks",
        type=lambda t: [v for v in t.split(",") if v],
        default=None,
        help=f"subset of: {','.join(verify.CHECKS)}",
    )
    return parser


def _build_info() -> dict:
    """The numpy and LAPACK build that byte-identical reruns hold for."""
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        lapack = "unknown"
    return {"numpy": np.__version__, "lapack": lapack}


def _divergence(divergence: trainer.Divergence | None) -> dict | None:
    return None if divergence is None else dataclasses.asdict(divergence)


def _describe(divergence: trainer.Divergence) -> str:
    where = "metrics" if divergence.step is None else f"step {divergence.step}"
    return f"epoch {divergence.epoch}, {where}: {divergence.cause}"


@dataclasses.dataclass
class _Run:
    """What train and sweep share: the output directory, the data, the
    configuration and the initial model."""

    start: float
    out_dir: Path
    source: network.LabeledBatch
    target: network.UnlabeledBatch
    eval_labels: np.ndarray | None
    config: trainer.TrainConfig
    sizes: list[int]
    model: network.MlpModel


def _set_up(args, weight: float) -> _Run:
    start = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    source_ds = data.read_csv(args.source)
    if source_ds.labels is None:
        raise ConfigInvalidError(f"source file {args.source} has no labels")
    target_ds = data.read_csv(args.target)
    config = trainer.TrainConfig(
        method=CLI_METHODS[args.method],
        lambda_or_gamma=weight,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        momentum=args.momentum,
        seed=args.seed,
        alignment_layer_index=args.align_layer,
        jitter_rel=args.jitter,
        normalize_cov=args.normalize_cov,
    )
    sizes = [source_ds.dim] + list(args.hidden) + [source_ds.labels.shape[1]]
    model = network.init_model(sizes, seed=args.seed, hidden_activation=args.activation)
    return _Run(start, out_dir, source_ds.as_labeled_batch(), target_ds.as_unlabeled_batch(),
                target_ds.labels, config, sizes, model)


def _write_manifest(run: _Run, args, argv: list[str], weight: float | None, **entries) -> None:
    """manifest.json: the keys train and sweep share, then the command's own."""
    manifest = {
        "command": args.command,
        "argv": argv,
        "build": _build_info(),
        "config": {**dataclasses.asdict(run.config), "lambda_or_gamma": weight},
        "layer_sizes": run.sizes,
        "hidden_activation": args.activation,
        **entries,
        "wall_clock_seconds": time.perf_counter() - run.start,
        "version": __version__,
    }
    with open(run.out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.preset == "blobs":
        source, target = data.rotated_blobs_benchmark(args.seed, per_class=args.per_class)
    else:
        source, target = data.moons_benchmark(args.seed, per_class=args.per_class)
    data.write_csv(source, out_dir / "source.csv")
    data.write_csv(target, out_dir / "target.csv")
    print(f"wrote {out_dir / 'source.csv'} and {out_dir / 'target.csv'}")
    return EXIT_OK


def _train_weight(args) -> float:
    """--lambda/--gamma, defaulting to 0.1, or to 0 for source_only, which has
    nothing to weight."""
    if args.method != "source_only":
        return DEFAULT_WEIGHT if args.weight is None else args.weight
    if args.weight:
        raise ConfigInvalidError(f"source_only takes no weight, got {args.weight:g}")
    return 0.0


def cmd_train(args, argv: list[str]) -> int:
    weight = _train_weight(args)
    run = _set_up(args, weight)
    result = trainer.train_run(run.model, run.source, run.target, run.config, run.eval_labels)
    metrics_path = run.out_dir / "metrics.csv"
    model_path = run.out_dir / "model.bin"
    trainer.write_metrics_csv(result.metrics, metrics_path)
    network.save_model(result.model, model_path)
    _write_manifest(
        run, args, argv, weight,
        artifacts={"metrics_csv": str(metrics_path), "model_bin": str(model_path)},
        diverged=result.diverged,
        divergence=_divergence(result.divergence),
    )
    if result.diverged:
        print(
            f"training diverged after {len(result.metrics)} epochs: "
            f"{_describe(result.divergence)}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    last = result.metrics[-1]
    print(
        f"done: h_source={last.h_source:.6g} e_target={last.e_target:.6g} "
        f"pen={last.pen_value:.6g} target_acc={last.target_accuracy:.6g}"
    )
    return EXIT_OK


def cmd_sweep(args, argv: list[str]) -> int:
    # the lanes take their weights from the grid; the base weight is unused
    run = _set_up(args, 0.0)
    result = selection.sweep(
        run.config,
        args.grid,
        run.source,
        run.target,
        run.model,
        eval_labels=run.eval_labels,
        out_dir=run.out_dir,
    )
    summary_path = run.out_dir / "sweep_summary.csv"
    selection.write_sweep_csv(result, summary_path)
    _write_manifest(
        run, args, argv, None,
        grid=[r.lam for r in result.records],
        artifacts={
            "sweep_summary_csv": str(summary_path),
            "metrics_csvs": [r.metrics_path for r in result.records],
        },
        divergence=[_divergence(r.divergence) for r in result.records],
        selected_lambda=result.selected_lambda,
    )
    print(f"selected lambda: {result.selected_lambda:g}  (rule: {result.selection_rule})")
    try:
        gap = selection.selection_gap(result)
        print(f"selection gap: {gap:.6g}")
    except InsufficientRecordsError:
        print("selection gap: n/a (needs >= 2 successful records)")
    if any(r.failed for r in result.records):
        failed = [
            f"lambda {r.lam:g} ({_describe(r.divergence)})" for r in result.records if r.failed
        ]
        print(f"diverged runs excluded from selection: {'; '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        results = verify.run_checks(args.checks)
    except KeyError as exc:
        print(f"meca verify: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "train":
            return cmd_train(args, argv)
        if args.command == "sweep":
            return cmd_sweep(args, argv)
        return cmd_verify(args)
    except ConfigInvalidError as exc:
        print(f"meca: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InsufficientRecordsError as exc:
        print(f"meca: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, MecaError) as exc:
        print(f"meca: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
