"""The benchmark's workloads: their inputs, the meca commands they time, and
the checks their outputs must pass.

Inputs are rotated, scaled, translated and renoised Gaussian blobs made here
from the run's seed, written as dataset CSVs in meca's documented format
(header ``f0..f{d-1},label``, 17 significant digits).  meca sees nothing else.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

BLOB_RADIUS = 4.0
# The target shift of the acceptance suite's rotated-blobs configuration.
ROTATION_DEG = 30.0
TRANSLATION = (1.0, -1.0)
SCALE = 1.3
NOISE_SIGMA = 0.2

DEFAULT_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 7.0, 10.0, 20.0)  # meca sweep's default
PENALTY_OF = {"meca": "log_euclidean", "coral": "euclidean", "entropy_reg": "log_euclidean"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "sweep" or "train"
    method: str           # meca CLI method name
    per_class: int
    hidden: tuple[int, ...]
    activation: str
    batch_size: int
    lr: float
    epochs: int
    weight: float | None = None   # --lambda, or --gamma for entropy_reg
    classes: int = 4
    dim: int = 16

    @property
    def lanes(self) -> int:
        """Operations per round: one per lambda lane, or the one train."""
        return len(DEFAULT_GRID) if self.command == "sweep" else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_meca", "sweep", "meca", per_class=75, hidden=(16, 6),
            activation="tanh", batch_size=16, lr=5e-4, epochs=4,
        ),
        Workload(
            "train_coral_wide", "train", "coral", per_class=125, hidden=(64, 32),
            activation="relu", batch_size=32, lr=1e-3, epochs=1, weight=1.0,
        ),
        Workload(
            "train_entropy_large", "train", "entropy_reg", per_class=1000,
            hidden=(32, 8), activation="relu", batch_size=16, lr=1e-3, epochs=30,
            weight=0.1,
        ),
    )
}


def make_domains(w: Workload, seed: int):
    """(xs, ys, xt, yt): source and shifted target blobs, columns are samples."""
    rng = np.random.default_rng([seed, w.dim, w.classes, w.per_class])

    def blobs():
        labels = np.repeat(np.arange(w.classes), w.per_class)
        angles = 2.0 * np.pi * labels / w.classes
        x = rng.standard_normal((w.dim, labels.size))
        x[0] += BLOB_RADIUS * np.cos(angles)
        x[1] += BLOB_RADIUS * np.sin(angles)
        return x, labels

    xs, ys = blobs()
    xt, yt = blobs()
    theta = np.deg2rad(ROTATION_DEG)
    c, s = np.cos(theta), np.sin(theta)
    x0, x1 = xt[0].copy(), xt[1].copy()
    xt[0], xt[1] = c * x0 - s * x1, s * x0 + c * x1
    xt = SCALE * xt
    xt[: len(TRANSLATION)] += np.asarray(TRANSLATION)[:, None]
    xt = xt + NOISE_SIGMA * rng.standard_normal(xt.shape)
    return xs, ys, xt, yt


def write_dataset_csv(x: np.ndarray, labels: np.ndarray, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"f{i}" for i in range(x.shape[0])] + ["label"]) + "\n")
        for j in range(x.shape[1]):
            fh.write(",".join([format(float(v), ".17g") for v in x[:, j]]))
            fh.write(f",{int(labels[j])}\n")


def train_flags(w: Workload, seed: int, source: Path, target: Path, out_dir: Path) -> list[str]:
    flags = [
        "--method", w.method,
        "--epochs", str(w.epochs),
        "--batch-size", str(w.batch_size),
        "--lr", repr(w.lr),
        "--hidden", ",".join(str(h) for h in w.hidden),
        "--activation", w.activation,
        "--seed", str(seed),
        "--source", str(source),
        "--target", str(target),
        "--out-dir", str(out_dir),
    ]
    if w.weight is not None:
        flags += ["--gamma" if w.method == "entropy_reg" else "--lambda", repr(w.weight)]
    return flags


def argv(w: Workload, seed: int, source: Path, target: Path, out_dir: Path) -> list[str]:
    return [w.command] + train_flags(w, seed, source, target, out_dir)


def output_files(w: Workload, out_dir: Path) -> list[Path]:
    """The files whose bytes must repeat exactly (the manifest holds a wall time)."""
    if w.command == "sweep":
        return [out_dir / "sweep_summary.csv"] + [
            out_dir / f"metrics_lambda_{lam:g}.csv" for lam in DEFAULT_GRID
        ]
    return [out_dir / "metrics.csv", out_dir / "model.bin"]


def failed_lanes(w: Workload, out_dir: Path, exit_code: int) -> int:
    """Operations of one round that failed: a diverged lane or a non-zero exit."""
    if w.command == "train":
        return int(exit_code != 0)
    if exit_code not in (0, 2):
        return w.lanes
    failed = 0
    for path in output_files(w, out_dir)[1:]:
        rows = path.read_text().count("\n") - 1 if path.exists() else 0
        failed += rows != w.epochs
    return failed


def check_outputs(w: Workload, seed: int, data, source: Path, target: Path,
                  out_dir: Path, run_meca) -> None:
    """Raise checks.CheckError unless the round's outputs are correct.

    ``run_meca(argv) -> exit code`` runs one meca command; the sweep uses it
    for the standalone train at the selected lambda.
    """
    xs, ys, xt, yt = data
    if w.command == "sweep":
        selected = checks.check_sweep(out_dir, DEFAULT_GRID, w.epochs, xt.shape[1], w.classes)
        train_dir = out_dir / "selected_train"
        flags = train_flags(w, seed, source, target, train_dir) + ["--lambda", repr(selected)]
        code = run_meca(["train"] + flags)
        if code != 0:
            raise checks.CheckError(f"standalone train at lambda {selected:g} exited {code}")
        lane_csv = out_dir / f"metrics_lambda_{selected:g}.csv"
        if lane_csv.read_bytes() != (train_dir / "metrics.csv").read_bytes():
            raise checks.CheckError(
                f"{lane_csv.name} differs from a standalone train at lambda {selected:g}"
            )
        metrics_path, model_path = train_dir / "metrics.csv", train_dir / "model.bin"
    else:
        metrics_path, model_path = out_dir / "metrics.csv", out_dir / "model.bin"
    metrics = checks.read_metrics_csv(metrics_path, w.epochs)
    checks.check_rows(metrics, xt.shape[1], w.classes)
    checks.check_last_row(
        metrics, model_path, w.activation, xs, ys, xt, yt, PENALTY_OF[w.method]
    )
