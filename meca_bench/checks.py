"""Checks of meca's output files against the reference computations."""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference

METRICS_HEADER = "epoch,h_source,e_target,pen_value,target_acc,kl_st"
SWEEP_HEADER = "lambda,final_e_target,final_target_acc,selected"
FINAL_WINDOW = 5          # the sweep's readout: mean over the last 5 epochs
ENTROPY_TIE_ATOL = 1e-12  # entropies this close tie, and the smaller lambda wins
JITTER_REL = 1e-5         # meca's default --jitter


class CheckError(Exception):
    """An output file is malformed or disagrees with the reference."""


def _read_csv(path: Path, header: str) -> list[list[str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"{path}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def read_metrics_csv(path: Path, epochs: int) -> dict[str, np.ndarray]:
    """Columns of a metrics CSV that must hold one row per epoch 1..epochs."""
    rows = _read_csv(path, METRICS_HEADER)
    if len(rows) != epochs:
        raise CheckError(f"{path}: {len(rows)} rows, expected {epochs} epochs")
    names = METRICS_HEADER.split(",")
    if any(len(r) != len(names) for r in rows):
        raise CheckError(f"{path}: a row does not have {len(names)} fields")
    if [r[0] for r in rows] != [str(e) for e in range(1, epochs + 1)]:
        raise CheckError(f"{path}: epochs are not 1..{epochs}")
    return {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(names)}


def check_rows(metrics: dict[str, np.ndarray], n_target: int, classes: int) -> None:
    """Every row: 0 <= e_target <= n ln K, 0 <= target_acc <= 1, pen_value >= 0."""
    bound = n_target * math.log(classes)
    e, acc, pen = metrics["e_target"], metrics["target_acc"], metrics["pen_value"]
    for name, bad in (
        ("e_target", ~((e >= 0.0) & (e <= bound))),
        ("target_acc", ~((acc >= 0.0) & (acc <= 1.0))),
        ("pen_value", ~(pen >= 0.0)),
    ):
        if np.any(bad):
            epoch = int(metrics["epoch"][np.argmax(bad)])
            raise CheckError(f"{name} out of range at epoch {epoch}")


def check_last_row(metrics, model_path, activation, xs, ys, xt, yt, penalty,
                   jitter_rel: float = JITTER_REL) -> None:
    """The model reproduces every column of the last metrics row."""
    model = reference.read_model(model_path)
    expected = reference.last_row(model, activation, xs, ys, xt, yt, penalty, jitter_rel)
    for name, (value, bound) in expected.items():
        got = float(metrics[name][-1])
        # two faithful evaluations differ by at most the sum of their bounds;
        # accuracy is a share of rows, and only ambiguous rows may flip
        tol = bound if name == "target_acc" else 2.0 * bound
        if not abs(got - value) <= tol:
            raise CheckError(
                f"last-row {name} = {got!r}, reference {value!r} "
                f"(|diff| {abs(got - value):.3e} > bound {tol:.3e})"
            )


def check_sweep(out_dir: Path, grid, epochs: int, n_target: int, classes: int) -> float:
    """Recompute the sweep's readout and selection from its per-lambda CSVs;
    return the selected lambda."""
    rows = _read_csv(Path(out_dir) / "sweep_summary.csv", SWEEP_HEADER)
    lams = [float(r[0]) for r in rows]
    if lams != [float(v) for v in grid]:
        raise CheckError(f"sweep summary grid {lams} is not {list(grid)}")
    readouts = []
    for lam, row in zip(lams, rows):
        m = read_metrics_csv(Path(out_dir) / f"metrics_lambda_{lam:g}.csv", epochs)
        check_rows(m, n_target, classes)
        e = float(np.mean(m["e_target"][-FINAL_WINDOW:]))
        acc = float(np.mean(m["target_acc"][-FINAL_WINDOW:]))
        if (float(row[1]), float(row[2])) != (e, acc):
            raise CheckError(
                f"summary readout at lambda {lam:g} is {row[1:3]}, recomputed {(e, acc)}"
            )
        readouts.append(e)
    best = 0
    for i in range(1, len(lams)):
        if readouts[i] < readouts[best] - ENTROPY_TIE_ATOL:
            best = i
    flags = [r[3] for r in rows]
    expected = ["1" if i == best else "0" for i in range(len(lams))]
    if flags != expected:
        raise CheckError(f"selected flags {flags}, recomputed argmin gives {expected}")
    return lams[best]
